//! Property tests for speed profiles and the planning constructions.

use crossroads_check::{ck_assert, ck_assert_eq, ck_assume, forall, CaseError};
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleSpec};

fn spec() -> VehicleSpec {
    VehicleSpec::scale_model()
}

forall! {
    /// Position along any planner-produced profile is nondecreasing
    /// (vehicles never reverse).
    fn position_is_monotone(
        v0 in 0.0f64..3.0,
        v1 in 0.0f64..3.0,
        hold in 0.0f64..5.0,
    ) {
        let s = spec();
        let mut p = SpeedProfile::starting_at(TimePoint::ZERO, Meters::ZERO, MetersPerSecond::new(v0));
        p.push_hold(Seconds::new(hold));
        p.push_speed_change(MetersPerSecond::new(v1), if v1 >= v0 { s.a_max } else { s.d_max });
        let mut last = p.position_at(TimePoint::ZERO);
        let end = p.end_time().value() + 1.0;
        let mut t = 0.0;
        while t <= end {
            let cur = p.position_at(TimePoint::new(t));
            ck_assert!(cur.value() >= last.value() - 1e-9);
            last = cur;
            t += 0.01;
        }
    }

    /// Speed along any planner profile stays within [0, v_max] and the
    /// limit checker agrees.
    fn limits_hold_for_planned_profiles(
        v0 in 0.0f64..3.0,
        v1 in 0.0f64..3.0,
    ) {
        let s = spec();
        let p = SpeedProfile::vt_response(
            TimePoint::ZERO,
            Meters::ZERO,
            MetersPerSecond::new(v0),
            MetersPerSecond::new(v1),
            &s,
        );
        p.check_limits(&s).map_err(CaseError::fail)?;
        let mut t = 0.0;
        while t <= p.end_time().value() + 0.5 {
            let v = p.speed_at(TimePoint::new(t)).value();
            ck_assert!((-1e-9..=3.0 + 1e-9).contains(&v));
            t += 0.01;
        }
    }

    /// `time_at_position` inverts `position_at` wherever the vehicle is
    /// moving.
    fn time_position_round_trip(
        v0 in 0.1f64..3.0,
        v1 in 0.1f64..3.0,
        hold in 0.0f64..3.0,
        frac in 0.05f64..0.95,
    ) {
        let s = spec();
        let mut p = SpeedProfile::starting_at(TimePoint::ZERO, Meters::ZERO, MetersPerSecond::new(v0));
        p.push_hold(Seconds::new(hold));
        p.push_speed_change(MetersPerSecond::new(v1), if v1 >= v0 { s.a_max } else { s.d_max });
        p.push_hold(Seconds::new(1.0));
        let target = p.final_position() * frac;
        let t = p.time_at_position(target).expect("moving profile reaches interior points");
        let round = p.position_at(t);
        ck_assert!((round - target).abs().value() < 1e-6,
            "position_at(time_at_position(s)) = {round}, wanted {target}");
    }

    /// `time_at_position ∘ position_at` on randomly generated multi-phase
    /// profiles (hold / accel / decel / full-stop-and-park / relaunch):
    /// whenever the vehicle is moving at `t`, the first time its position
    /// is reached is no later than `t`, and mapping that time back through
    /// `position_at` reproduces the position.
    fn time_at_position_inverts_position_at(
        v0 in 0.0f64..3.0,
        seg1 in (0u64..4, 0.05f64..3.0),
        seg2 in (0u64..4, 0.05f64..3.0),
        seg3 in (0u64..4, 0.05f64..3.0),
        frac in 0.0f64..1.2,
    ) {
        let s = spec();
        let mut p = SpeedProfile::starting_at(TimePoint::ZERO, Meters::ZERO, MetersPerSecond::new(v0));
        for (kind, param) in [seg1, seg2, seg3] {
            match kind {
                0 => p.push_hold(Seconds::new(param)),
                1 => {
                    let target = MetersPerSecond::new(param);
                    let rate = if target >= p.final_speed() { s.a_max } else { s.d_max };
                    p.push_speed_change(target, rate);
                }
                // Full stop, then sit parked — the branch-heavy shape.
                2 => {
                    p.push_speed_change(MetersPerSecond::ZERO, s.d_max);
                    p.push_hold(Seconds::new(param));
                }
                // Ulp-edge phase: a near-zero-duration sliver.
                _ => p.push_hold(Seconds::new(param * 1e-9)),
            }
        }
        let t = TimePoint::new((p.end_time().value() + 0.5) * frac);
        ck_assume!(p.speed_at(t).value() > 1e-6);
        let pos = p.position_at(t);
        let first = p
            .time_at_position(pos)
            .expect("a position the vehicle occupies while moving is reached");
        ck_assert!(
            first <= t + Seconds::new(1e-9),
            "first crossing {first} later than occupancy time {t}"
        );
        let round = p.position_at(first);
        ck_assert!(
            (round - pos).abs().value() < 1e-6,
            "position_at(time_at_position({pos})) = {round}"
        );
    }

    /// `max_speed` bounds the speed everywhere on random multi-phase
    /// profiles (hold / accel / decel / stop-and-park / relaunch): before
    /// the anchor, at the start, middle and end of every phase, and past
    /// the end. It therefore bounds the position increments too, which is
    /// what the audit's conservative contact march relies on.
    fn max_speed_bounds_every_instant(
        v0 in 0.0f64..3.0,
        seg1 in (0u64..3, 0.05f64..3.0),
        seg2 in (0u64..3, 0.05f64..3.0),
        seg3 in (0u64..3, 0.05f64..3.0),
        seg4 in (0u64..3, 0.05f64..3.0),
    ) {
        let s = spec();
        let mut p = SpeedProfile::starting_at(TimePoint::new(1.0), Meters::ZERO, MetersPerSecond::new(v0));
        for (kind, param) in [seg1, seg2, seg3, seg4] {
            match kind {
                0 => p.push_hold(Seconds::new(param)),
                1 => {
                    let target = MetersPerSecond::new(param);
                    let rate = if target >= p.final_speed() { s.a_max } else { s.d_max };
                    p.push_speed_change(target, rate);
                }
                _ => {
                    p.push_speed_change(MetersPerSecond::ZERO, s.d_max);
                    p.push_hold(Seconds::new(param));
                }
            }
        }
        let top = p.max_speed();
        let mut probes = vec![TimePoint::ZERO, p.start_time(), p.end_time() + Seconds::new(2.0)];
        for ph in p.phases() {
            probes.extend([ph.start, ph.start + ph.duration * 0.5, ph.start + ph.duration]);
        }
        for &t in &probes {
            ck_assert!(p.speed_at(t) <= top, "speed {} at {t} exceeds max_speed {top}", p.speed_at(t));
        }
        probes.sort_by(|a, b| a.total_cmp(*b));
        for w in probes.windows(2) {
            let moved = p.position_at(w[1]) - p.position_at(w[0]);
            ck_assert!(
                moved <= top * (w[1] - w[0]) + Meters::new(1e-9),
                "moved {moved} in {} at max_speed {top}", w[1] - w[0]
            );
        }
    }

    /// The Crossroads profile arrives at the line within a millisecond of
    /// the commanded ToA whenever the IM's (ToA, V_T) pair is kinematically
    /// consistent — here generated from the profile itself.
    fn crossroads_profiles_arrive_on_time(
        v0 in 0.3f64..3.0,
        vt in 0.3f64..3.0,
        rtd_ms in 0.0f64..150.0,
        d_t in 2.0f64..10.0,
    ) {
        let s = spec();
        let t_e = TimePoint::new(rtd_ms / 1e3);
        // Forward-compute a consistent ToA from (t_e, v0, vt, d_t).
        let mut probe = SpeedProfile::starting_at(TimePoint::ZERO, Meters::ZERO, MetersPerSecond::new(v0));
        probe.push_hold(t_e - TimePoint::ZERO);
        probe.push_speed_change(MetersPerSecond::new(vt), if vt >= v0 { s.a_max } else { s.d_max });
        let d = Meters::new(d_t);
        ck_assume!(probe.final_position() < d);
        let toa = probe.time_at_position(d).expect("cruise tail reaches the line");

        let p = SpeedProfile::crossroads_response(
            TimePoint::ZERO,
            Meters::ZERO,
            MetersPerSecond::new(v0),
            t_e,
            toa,
            d,
            MetersPerSecond::new(vt),
            &s,
        ).expect("consistent command plans");
        let arrive = p.time_at_position(d).expect("profile reaches the line");
        ck_assert!((arrive - toa).abs().value() < 1e-3);
        // RTD-invariance: nothing before t_e deviates from v0.
        ck_assert_eq!(p.speed_at(TimePoint::new(rtd_ms / 2e3)), MetersPerSecond::new(v0));
    }
}
