//! Property tests over the closed-form kinematics and planar geometry.

use crossroads_check::{bools, ck_assert, ck_assert_eq, forall};
use crossroads_units::kinematics::{
    accel_cruise, distance_covered, solve_cruise_speed, stopping_distance, time_to_reach_speed,
};
use crossroads_units::{
    Meters, MetersPerSecond, MetersPerSecondSquared, OrientedRect, Point2, Radians, Seconds,
};

/// The cruise-speed solver as first written, kept verbatim as the
/// reference for `solve_cruise_speed`: the same bisection run for a fixed
/// 200 halvings, with no early stop.
fn fixed_200_step_solve_cruise_speed(
    v_init: MetersPerSecond,
    v_max: MetersPerSecond,
    a_max: MetersPerSecondSquared,
    d_max: MetersPerSecondSquared,
    distance: Meters,
    total_time: Seconds,
) -> Option<MetersPerSecond> {
    if total_time.value() <= 0.0 || distance.value() < 0.0 {
        return None;
    }
    // Bisect on the target speed: arrival time is monotonically decreasing
    // in v_target over (0, v_max].
    let arrival = |v_t: MetersPerSecond| -> Option<Seconds> {
        let accel = if v_t >= v_init { a_max } else { -d_max };
        accel_cruise(v_init, v_t, accel, distance)
            .ok()
            .map(|p| p.total_time)
    };
    let fastest = arrival(v_max)?;
    if total_time < fastest - Seconds::new(1e-9) {
        return None; // deadline earlier than EToA
    }
    let mut lo = MetersPerSecond::new(1e-6);
    let mut hi = v_max;
    // If even the slowest representable cruise arrives too early the caller
    // wants a stop phase, not a crawl; signal with None.
    match arrival(lo) {
        Some(t_slow) if t_slow < total_time - Seconds::new(1e-9) => return None,
        None => return None,
        _ => {}
    }
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        match arrival(mid) {
            Some(t) if t > total_time => lo = mid,
            Some(_) => hi = mid,
            None => lo = mid,
        }
    }
    Some(hi)
}

forall! {
    /// `solve_cruise_speed` stops its bisection at the fixed point and
    /// still returns the fixed 200-halving answer bit for bit. Cases span
    /// both testbeds' limits; `v_init` anywhere, within a millionth of
    /// `v_max`, or at it; ordinary, short and tiny distances; and
    /// deadlines within 1e-9 s of EToA, anywhere later (the decelerate
    /// branch), within 1e-9 s of the 1 µm/s floor's arrival (the deepest
    /// bisections), or around holding `v_init` (where the branch flips).
    fn cruise_solver_matches_fixed_200_step_bisection(
        full_scale in bools(),
        v_pick in (0u64..3, 0.0f64..1.0),
        d_pick in (0u64..3, 0.0f64..1.0),
        t_pick in (0u64..4, 0.0f64..1.0),
    ) {
        let (v_max, a_max, d_max) = if full_scale { (15.0, 3.0, 4.5) } else { (3.0, 2.0, 3.0) };
        let v0 = match v_pick {
            (0, f) => f * v_max,
            (1, f) => v_max * (1.0 - f * 1e-6),
            _ => v_max,
        };
        let d = match d_pick {
            (0, f) => 0.5 + 200.0 * f,
            (1, f) => 1e-3 + 0.5 * f,
            (_, f) => 1e-9 + 1e-3 * f,
        };
        // Arrival at cruise speed `v`; 1 s where the distance is too short
        // for the speed change (both solvers then return None).
        let arrival = |v: f64| {
            let accel = if v >= v0 { a_max } else { -d_max };
            accel_cruise(
                MetersPerSecond::new(v0),
                MetersPerSecond::new(v),
                MetersPerSecondSquared::new(accel),
                Meters::new(d),
            )
            .map_or(1.0, |p| p.total_time.value())
        };
        let (t_mode, f) = t_pick;
        let jitter = (2.0 * f - 1.0) * 1e-9;
        let deadline = match t_mode {
            0 => arrival(v_max) + jitter,
            1 => arrival(v_max) + 20.0 * f,
            2 => arrival(1e-6) + jitter,
            _ if v0 > 0.0 => d / v0 * (0.9 + 0.2 * f),
            _ => arrival(v_max) + f,
        };
        let args = (
            MetersPerSecond::new(v0),
            MetersPerSecond::new(v_max),
            MetersPerSecondSquared::new(a_max),
            MetersPerSecondSquared::new(d_max),
            Meters::new(d),
            Seconds::new(deadline),
        );
        let early = solve_cruise_speed(args.0, args.1, args.2, args.3, args.4, args.5);
        let fixed = fixed_200_step_solve_cruise_speed(args.0, args.1, args.2, args.3, args.4, args.5);
        ck_assert_eq!(
            early.map(|v| v.value().to_bits()),
            fixed.map(|v| v.value().to_bits()),
            "v0 {v0} d {d} deadline {deadline}: early stop {early:?}, 200 halvings {fixed:?}"
        );
    }

    /// The accel-cruise profile's pieces always recompose to the given
    /// distance and its total time to the sum of its phases.
    fn accel_cruise_pieces_recompose(
        v0 in 0.0f64..15.0,
        dv in 0.0f64..10.0,
        d in 0.1f64..200.0,
        a in 0.2f64..5.0,
    ) {
        let v1 = v0 + dv;
        let Ok(p) = accel_cruise(
            MetersPerSecond::new(v0),
            MetersPerSecond::new(v1),
            MetersPerSecondSquared::new(a),
            Meters::new(d),
        ) else {
            return Ok(()); // distance too short for the speed change
        };
        ck_assert_eq!(p.total_time, p.accel_time + p.cruise_time);
        let cruise_d = MetersPerSecond::new(v1) * p.cruise_time;
        ck_assert!(((p.accel_distance + cruise_d).value() - d).abs() < 1e-6);
        // Phase distances agree with the v0t + at²/2 integral.
        let integral = distance_covered(
            MetersPerSecond::new(v0),
            MetersPerSecondSquared::new(a),
            p.accel_time,
        );
        ck_assert!((integral - p.accel_distance).abs().value() < 1e-9);
    }

    /// The cruise-speed solver, where it returns a speed, actually meets
    /// the deadline (round trip through accel_cruise).
    fn solver_round_trips(
        v0 in 0.0f64..14.0,
        d in 1.0f64..200.0,
        slack in 0.0f64..10.0,
    ) {
        let v_max = MetersPerSecond::new(15.0);
        let a_max = MetersPerSecondSquared::new(3.0);
        let d_max = MetersPerSecondSquared::new(4.5);
        let v_init = MetersPerSecond::new(v0);
        let Ok(fastest) = accel_cruise(v_init, v_max, a_max, Meters::new(d)) else {
            return Ok(());
        };
        let deadline = fastest.total_time + Seconds::new(slack);
        let Some(v) = solve_cruise_speed(v_init, v_max, a_max, d_max, Meters::new(d), deadline)
        else {
            return Ok(()); // deadline requires a stop
        };
        let accel = if v >= v_init { a_max } else { -d_max };
        let arrive = accel_cruise(v_init, v, accel, Meters::new(d))
            .expect("solver output is feasible")
            .total_time;
        ck_assert!((arrive - deadline).abs().value() < 1e-5,
            "arrive {arrive} vs deadline {deadline}");
    }

    /// Stopping distance is monotone in speed and consistent with the
    /// time-to-stop integral.
    fn stopping_distance_consistency(v in 0.01f64..30.0, d in 0.5f64..8.0) {
        let dist = stopping_distance(MetersPerSecond::new(v), MetersPerSecondSquared::new(d));
        let t = time_to_reach_speed(
            MetersPerSecond::new(v),
            MetersPerSecond::ZERO,
            MetersPerSecondSquared::new(d),
        );
        let integral = distance_covered(
            MetersPerSecond::new(v),
            MetersPerSecondSquared::new(-d),
            t,
        );
        ck_assert!((dist - integral).abs().value() < 1e-9);
        let further = stopping_distance(
            MetersPerSecond::new(v * 1.1),
            MetersPerSecondSquared::new(d),
        );
        ck_assert!(further > dist);
    }

    /// SAT rectangle intersection agrees with a dense point-sampling
    /// oracle (no false negatives against contained sample points).
    fn oriented_rect_sat_agrees_with_sampling(
        cx in -2.0f64..2.0,
        cy in -2.0f64..2.0,
        heading in 0.0f64..std::f64::consts::TAU,
    ) {
        let a = OrientedRect {
            center: Point2::ORIGIN,
            heading: Radians::new(0.3),
            length: Meters::new(1.0),
            width: Meters::new(0.5),
        };
        let b = OrientedRect {
            center: Point2::new(cx, cy),
            heading: Radians::new(heading),
            length: Meters::new(0.8),
            width: Meters::new(0.4),
        };
        // Oracle: sample b's area; if any sample lies inside a (checked
        // via a's frame), they definitely intersect.
        let mut oracle_hit = false;
        let (sin, cos) = (heading.sin(), heading.cos());
        for i in 0..20 {
            for j in 0..20 {
                let dl = (f64::from(i) / 19.0 - 0.5) * 0.8;
                let dw = (f64::from(j) / 19.0 - 0.5) * 0.4;
                let px = cx + dl * cos - dw * sin;
                let py = cy + dl * sin + dw * cos;
                // Transform into a's frame.
                let (asin, acos) = (0.3f64.sin(), 0.3f64.cos());
                let lx = px * acos + py * asin;
                let ly = -px * asin + py * acos;
                if lx.abs() <= 0.5 && ly.abs() <= 0.25 {
                    oracle_hit = true;
                }
            }
        }
        if oracle_hit {
            ck_assert!(a.intersects(&b), "SAT missed an overlap the oracle found");
        }
        // And symmetry always holds.
        ck_assert_eq!(a.intersects(&b), b.intersects(&a));
    }
}
