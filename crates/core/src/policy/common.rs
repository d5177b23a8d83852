//! The interval scheduler shared by VT-IM and Crossroads.
//!
//! Both velocity-transaction policies answer the same question: *given a
//! vehicle that will be at distance `d` from the box with speed `v0` at
//! time `t_base`, when may it enter, and at what cruise speed?* They
//! differ only in what `t_base` means (VT-IM: "whenever the response
//! lands", absorbed by buffer; Crossroads: the exact actuation time `T_E`)
//! and in the buffer the occupancy windows carry.

use crossroads_intersection::{
    Approach, IntersectionGeometry, Movement, Reservation, ReservationTable,
};
use crossroads_units::kinematics;
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleId, VehicleSpec};

use super::PlatoonShape;

/// Outcome of a scheduling attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotDecision {
    /// Enter at `toa` cruising at `speed` ("accelerate to V_T and maintain
    /// until exit").
    Cruise {
        /// Scheduled box-entry instant.
        toa: TimePoint,
        /// Commanded cruise speed.
        speed: MetersPerSecond,
    },
    /// Stop at the line, then launch from standstill entering at `toa`.
    StopAndGo {
        /// Scheduled box-entry (launch) instant.
        toa: TimePoint,
    },
    /// No admissible window close enough; the vehicle must stop and
    /// re-request (VT-IM's only recourse, since its command cannot carry
    /// a future start time).
    Deny,
}

/// FIFO earliest-fit scheduler over a [`ReservationTable`].
#[derive(Debug, Clone)]
pub struct IntervalScheduler {
    geometry: IntersectionGeometry,
    table: ReservationTable,
    /// Entry instant most recently granted per approach lane, indexed by
    /// [`Approach::index`] — prevents a follower from being scheduled
    /// ahead of its leader after message loss reorders requests.
    lane_gate: [Option<TimePoint>; 4],
    /// Fraction of `v_max` below which a commanded crawl is replaced by a
    /// stop (crawling holds the box far too long).
    crawl_fraction: f64,
    ops: u64,
}

impl IntervalScheduler {
    /// A scheduler over `geometry` using `table`'s conflict relation.
    #[must_use]
    pub fn new(
        geometry: IntersectionGeometry,
        table: ReservationTable,
        crawl_fraction: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&crawl_fraction),
            "crawl fraction must be in [0, 1)"
        );
        IntervalScheduler {
            geometry,
            table,
            lane_gate: [None; 4],
            crawl_fraction,
            ops: 0,
        }
    }

    /// Cumulative window-scan operations.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Read access to the underlying reservation ledger (tests/audits).
    #[must_use]
    pub fn table(&self) -> &ReservationTable {
        &self.table
    }

    /// Releases a vehicle's reservation (exit, or re-request replacing a
    /// stale grant).
    pub fn release(&mut self, vehicle: VehicleId) {
        self.table.release(vehicle);
    }

    /// Drops expired windows.
    pub fn prune(&mut self, now: TimePoint) {
        self.table.prune_before(now);
    }

    /// Time to traverse the box (path + effective length) entering at
    /// cruise speed `v` and maintaining it.
    #[must_use]
    pub fn cruise_occupancy(
        &self,
        movement: Movement,
        effective_length: Meters,
        v: MetersPerSecond,
    ) -> Seconds {
        (self.geometry.path_length(movement) + effective_length) / v
    }

    /// Occupancy and approach timing for a standstill launch from
    /// `setback` meters behind the box entry: the vehicle accelerates
    /// from zero, covers the setback (its queue position), enters the box
    /// at whatever speed it has reached, and keeps accelerating toward
    /// `v_max` until the rear (plus buffers) clears.
    ///
    /// Returns `(cover, occupancy)`: time from launch to box entry, and
    /// time the box is occupied from entry.
    ///
    /// # Panics
    ///
    /// Panics only on an inconsistent spec (negative limits), which
    /// [`VehicleSpec::validate`] prevents.
    #[must_use]
    pub fn launch_occupancy(
        &self,
        movement: Movement,
        effective_length: Meters,
        spec: &VehicleSpec,
        setback: Meters,
    ) -> (Seconds, Seconds) {
        let setback = setback.max(Meters::ZERO);
        let total = setback + self.geometry.path_length(movement) + effective_length;
        let v_top = reachable_speed(MetersPerSecond::ZERO, spec, total);
        let t_total = kinematics::accel_cruise(MetersPerSecond::ZERO, v_top, spec.a_max, total)
            .expect("standstill crossing profile is always feasible")
            .total_time;
        let cover = if setback.value() > 0.0 {
            let v_cover = reachable_speed(MetersPerSecond::ZERO, spec, setback);
            kinematics::accel_cruise(MetersPerSecond::ZERO, v_cover, spec.a_max, setback)
                .expect("approach run is feasible")
                .total_time
        } else {
            Seconds::ZERO
        };
        (cover, t_total - cover)
    }

    /// Schedules a *moving* vehicle: at `t_base` it will be `d` from the
    /// box entry doing `v0`. Returns the admitted slot, inserting the
    /// reservation, or a stop/deny decision (no reservation inserted for
    /// [`SlotDecision::Deny`]).
    ///
    /// `lead_length` is VT-IM's RTD buffer: the vehicle may be up to this
    /// much *closer* than reported (stale `D_T`), so the occupancy window
    /// opens `lead_length / v` before the scheduled entry.
    /// `effective_length` contains the sensing buffers only.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_moving(
        &mut self,
        vehicle: VehicleId,
        movement: Movement,
        spec: &VehicleSpec,
        t_base: TimePoint,
        d: Meters,
        v0: MetersPerSecond,
        effective_length: Meters,
        lead_length: Meters,
        allow_stop_and_go: bool,
    ) -> SlotDecision {
        self.schedule_moving_platooned(
            vehicle,
            movement,
            spec,
            t_base,
            d,
            v0,
            effective_length,
            lead_length,
            allow_stop_and_go,
            None,
        )
    }

    /// [`schedule_moving`](Self::schedule_moving) for a platoon leader:
    /// the booked occupancy is widened by the follower span (PAIM — one
    /// reservation covers the whole column), using the *cruise* offset at
    /// each candidate speed for the cruise outcome and the *launch*
    /// offset for the stop-and-go fallback. `None` is exactly the
    /// per-vehicle path.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_moving_platooned(
        &mut self,
        vehicle: VehicleId,
        movement: Movement,
        spec: &VehicleSpec,
        t_base: TimePoint,
        d: Meters,
        v0: MetersPerSecond,
        effective_length: Meters,
        lead_length: Meters,
        allow_stop_and_go: bool,
        platoon: Option<PlatoonShape>,
    ) -> SlotDecision {
        self.release(vehicle);
        let v_crawl = spec.v_max * self.crawl_fraction;
        let v_reach = reachable_speed(v0, spec, d);
        let Ok(fastest) = kinematics::accel_cruise(v0, v_reach, spec.a_max, d) else {
            return self.fall_back_to_stop(
                vehicle,
                movement,
                spec,
                t_base,
                d,
                v0,
                effective_length,
                allow_stop_and_go,
                platoon,
            );
        };
        let etoa = t_base + fastest.total_time;
        let gate = self.gate(movement.approach);
        let mut toa = etoa.max(gate);
        let eps = Seconds::new(1e-6);

        for _ in 0..64 {
            // Speed that makes this candidate entry time, entering at it.
            let speed = if (toa - etoa).abs() <= eps {
                v_reach
            } else {
                match kinematics::solve_cruise_speed(
                    v0,
                    spec.v_max,
                    spec.a_max,
                    spec.d_max,
                    d,
                    toa - t_base,
                ) {
                    Some(v) if v >= v_crawl => v,
                    _ => {
                        return self.fall_back_to_stop(
                            vehicle,
                            movement,
                            spec,
                            t_base,
                            d,
                            v0,
                            effective_length,
                            allow_stop_and_go,
                            platoon,
                        );
                    }
                }
            };
            // Window opens early by the lead (stale-position cover) and
            // lasts the buffered crossing — plus the follower span when a
            // platoon crosses on this grant.
            let lead = lead_length / speed;
            let span = platoon.map_or(Seconds::ZERO, |p| p.span(p.cruise_offset(speed)));
            let dur = self.cruise_occupancy(movement, effective_length, speed) + lead + span;
            let window_start = (toa - lead).max(TimePoint::ZERO);
            self.ops += self.table.len() as u64 + 1;
            let slot = self.table.earliest_slot(movement, window_start, dur);
            if (slot - window_start).abs() <= eps {
                // Admit at the exact slot the table returned: a sub-epsilon
                // difference from `window_start` would fail the insert's
                // overlap re-check.
                self.admit(vehicle, movement, slot, dur, span);
                return SlotDecision::Cruise { toa, speed };
            }
            toa = slot + lead;
        }
        self.fall_back_to_stop(
            vehicle,
            movement,
            spec,
            t_base,
            d,
            v0,
            effective_length,
            allow_stop_and_go,
            platoon,
        )
    }

    /// Schedules a vehicle launching from standstill `setback` meters
    /// behind the line, with the launch no earlier than `earliest_launch`.
    /// Returns `(entry, cover)`: the granted box-entry instant and the
    /// launch-to-entry travel time (launch = entry − cover).
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_stopped(
        &mut self,
        vehicle: VehicleId,
        movement: Movement,
        spec: &VehicleSpec,
        earliest_launch: TimePoint,
        setback: Meters,
        effective_length: Meters,
        pad: Seconds,
    ) -> (TimePoint, Seconds) {
        self.schedule_stopped_platooned(
            vehicle,
            movement,
            spec,
            earliest_launch,
            setback,
            effective_length,
            pad,
            None,
        )
    }

    /// [`schedule_stopped`](Self::schedule_stopped) for a platoon leader:
    /// widens the booked occupancy by the follower *launch* span — the
    /// column launches from standstill one `launch_offset` apart. `None`
    /// is exactly the per-vehicle path.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_stopped_platooned(
        &mut self,
        vehicle: VehicleId,
        movement: Movement,
        spec: &VehicleSpec,
        earliest_launch: TimePoint,
        setback: Meters,
        effective_length: Meters,
        pad: Seconds,
        platoon: Option<PlatoonShape>,
    ) -> (TimePoint, Seconds) {
        self.release(vehicle);
        let (cover, occupancy) = self.launch_occupancy(movement, effective_length, spec, setback);
        let span = platoon.map_or(Seconds::ZERO, |p| p.span(p.launch_offset(spec)));
        let dur = occupancy + pad + span;
        let gate = self.gate(movement.approach);
        self.ops += self.table.len() as u64 + 1;
        let toa = self
            .table
            .earliest_slot(movement, (earliest_launch + cover).max(gate), dur);
        self.admit(vehicle, movement, toa, dur, span);
        (toa, cover)
    }

    /// [`schedule_stopped_platooned`](Self::schedule_stopped_platooned)
    /// restricted to an *immediate* launch — the only grant VT-IM can
    /// express for a standstill vehicle. Admits (and moves the lane
    /// gate) only when the earliest admissible slot is exactly
    /// `earliest_launch + cover`; a non-immediate answer mutates
    /// nothing. The plain stopped path instead admits-then-releases on
    /// denial, which leaves the lane gate at the abandoned `toa`; with a
    /// follower span widening every abandoned window that gate ratchets
    /// ahead of the clock faster than the retry loop advances it, and
    /// the column starves its own lane (re-request livelock). Platooned
    /// stopped requests therefore go through this non-mutating probe.
    #[allow(clippy::too_many_arguments)]
    pub fn schedule_stopped_immediate(
        &mut self,
        vehicle: VehicleId,
        movement: Movement,
        spec: &VehicleSpec,
        earliest_launch: TimePoint,
        setback: Meters,
        effective_length: Meters,
        pad: Seconds,
        platoon: Option<PlatoonShape>,
    ) -> (TimePoint, Seconds, bool) {
        self.release(vehicle);
        let (cover, occupancy) = self.launch_occupancy(movement, effective_length, spec, setback);
        let span = platoon.map_or(Seconds::ZERO, |p| p.span(p.launch_offset(spec)));
        let dur = occupancy + pad + span;
        let gate = self.gate(movement.approach);
        self.ops += self.table.len() as u64 + 1;
        let start = (earliest_launch + cover).max(gate);
        let toa = self.table.earliest_slot(movement, start, dur);
        let immediate = (toa - (earliest_launch + cover)).abs() <= Seconds::new(1e-6);
        if immediate {
            self.admit(vehicle, movement, toa, dur, span);
        }
        (toa, cover, immediate)
    }

    #[allow(clippy::too_many_arguments)]
    fn fall_back_to_stop(
        &mut self,
        vehicle: VehicleId,
        movement: Movement,
        spec: &VehicleSpec,
        t_base: TimePoint,
        d: Meters,
        v0: MetersPerSecond,
        effective_length: Meters,
        allow_stop_and_go: bool,
        platoon: Option<PlatoonShape>,
    ) -> SlotDecision {
        if !allow_stop_and_go {
            return SlotDecision::Deny;
        }
        // Time to come to rest at the line from (t_base, d, v0). The IM
        // conservatively schedules the launch from the line itself (zero
        // setback): a vehicle that actually queues further back enters at
        // the same instant with more speed and clears sooner.
        let probe = SpeedProfile::stop_at(t_base, Meters::ZERO, v0, d, spec);
        let stopped_at = probe.end_time();
        let (toa, _cover) = self.schedule_stopped_platooned(
            vehicle,
            movement,
            spec,
            stopped_at,
            Meters::ZERO,
            effective_length,
            Seconds::ZERO,
            platoon,
        );
        SlotDecision::StopAndGo { toa }
    }

    fn gate(&self, approach: Approach) -> TimePoint {
        self.lane_gate[approach.index()].map_or(TimePoint::ZERO, |t| t + Seconds::new(1e-3))
    }

    fn admit(
        &mut self,
        vehicle: VehicleId,
        movement: Movement,
        toa: TimePoint,
        dur: Seconds,
        platoon_span: Seconds,
    ) {
        self.table
            .insert(Reservation {
                vehicle,
                movement,
                enter: toa,
                exit: toa + dur,
            })
            .expect("earliest_slot result must insert cleanly");
        // The lane gate must cover the *last follower's* entry, not just
        // the leader's, or the next same-approach grant could be slotted
        // into the middle of the column.
        self.lane_gate[movement.approach.index()] = Some(toa + platoon_span);
        debug_assert!(self.table.is_conflict_free());
    }
}

/// The top speed reachable from `v0` within distance `d` at the spec's
/// acceleration, capped at `v_max` (energy equation `v² = v0² + 2·a·d`).
#[must_use]
pub fn reachable_speed(v0: MetersPerSecond, spec: &VehicleSpec, d: Meters) -> MetersPerSecond {
    let v2 = v0.value() * v0.value() + 2.0 * spec.a_max.value() * d.value();
    MetersPerSecond::new(v2.sqrt()).min(spec.v_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_intersection::{ConflictTable, Turn};

    fn scheduler() -> IntervalScheduler {
        let g = IntersectionGeometry::scale_model();
        let table = ReservationTable::new(ConflictTable::compute(&g, Meters::new(0.296)));
        IntervalScheduler::new(g, table, 0.15)
    }

    fn spec() -> VehicleSpec {
        VehicleSpec::scale_model()
    }

    const S: Movement = Movement {
        approach: Approach::South,
        turn: Turn::Straight,
    };
    const E: Movement = Movement {
        approach: Approach::East,
        turn: Turn::Straight,
    };

    #[test]
    fn reachable_speed_caps_at_vmax() {
        let s = spec();
        assert_eq!(
            reachable_speed(MetersPerSecond::new(1.0), &s, Meters::new(100.0)),
            s.v_max
        );
        let short = reachable_speed(MetersPerSecond::ZERO, &s, Meters::new(1.0));
        assert!((short.value() - 2.0).abs() < 1e-12); // sqrt(2·2·1)
    }

    #[test]
    fn empty_intersection_grants_earliest_at_top_speed() {
        let mut sched = scheduler();
        let s = spec();
        // 3 m out at 1.5 m/s: EToA = accel to 3 then cruise.
        let d = Meters::new(3.0);
        let out = sched.schedule_moving(
            VehicleId(1),
            S,
            &s,
            TimePoint::ZERO,
            d,
            MetersPerSecond::new(1.5),
            Meters::new(0.724),
            Meters::ZERO,
            true,
        );
        let SlotDecision::Cruise { toa, speed } = out else {
            panic!("expected cruise, got {out:?}");
        };
        assert!((speed.value() - 3.0).abs() < 1e-9);
        let expect = kinematics::accel_cruise(MetersPerSecond::new(1.5), s.v_max, s.a_max, d)
            .unwrap()
            .total_time;
        assert!((toa.value() - expect.value()).abs() < 1e-9);
    }

    #[test]
    fn conflicting_grant_slows_the_second_vehicle() {
        let mut sched = scheduler();
        let s = spec();
        let d = Meters::new(3.0);
        let first = sched.schedule_moving(
            VehicleId(1),
            S,
            &s,
            TimePoint::ZERO,
            d,
            MetersPerSecond::new(1.5),
            Meters::new(0.724),
            Meters::ZERO,
            true,
        );
        let SlotDecision::Cruise { toa: toa1, .. } = first else {
            panic!()
        };
        let second = sched.schedule_moving(
            VehicleId(2),
            E,
            &s,
            TimePoint::ZERO,
            d,
            MetersPerSecond::new(1.5),
            Meters::new(0.724),
            Meters::ZERO,
            true,
        );
        match second {
            SlotDecision::Cruise { toa: toa2, speed } => {
                assert!(toa2 > toa1);
                assert!(speed < s.v_max);
            }
            SlotDecision::StopAndGo { toa } => assert!(toa > toa1),
            SlotDecision::Deny => panic!("stop-and-go was allowed"),
        }
        assert!(sched.table().is_conflict_free());
    }

    #[test]
    fn heavily_loaded_intersection_forces_stop_and_go() {
        let mut sched = scheduler();
        let s = spec();
        let d = Meters::new(3.0);
        // Fill the box for a long while.
        for i in 0..6 {
            let _ = sched.schedule_stopped(
                VehicleId(100 + i),
                if i % 2 == 0 { S } else { E },
                &s,
                TimePoint::new(f64::from(i) * 3.0),
                Meters::ZERO,
                Meters::new(3.0), // grossly oversized to jam the schedule
                Seconds::new(2.0),
            );
        }
        let out = sched.schedule_moving(
            VehicleId(1),
            E,
            &s,
            TimePoint::ZERO,
            d,
            MetersPerSecond::new(3.0),
            Meters::new(0.724),
            Meters::ZERO,
            true,
        );
        assert!(
            matches!(out, SlotDecision::StopAndGo { .. }),
            "expected stop-and-go under load, got {out:?}"
        );
    }

    #[test]
    fn deny_when_stop_and_go_disallowed() {
        let mut sched = scheduler();
        let s = spec();
        for i in 0..6 {
            let _ = sched.schedule_stopped(
                VehicleId(100 + i),
                S,
                &s,
                TimePoint::new(f64::from(i) * 3.0),
                Meters::ZERO,
                Meters::new(3.0),
                Seconds::new(2.0),
            );
        }
        let out = sched.schedule_moving(
            VehicleId(1),
            S,
            &s,
            TimePoint::ZERO,
            Meters::new(3.0),
            MetersPerSecond::new(3.0),
            Meters::new(0.724),
            Meters::ZERO,
            false,
        );
        assert_eq!(out, SlotDecision::Deny);
    }

    #[test]
    fn re_request_replaces_previous_reservation() {
        let mut sched = scheduler();
        let s = spec();
        let d = Meters::new(3.0);
        let _ = sched.schedule_moving(
            VehicleId(1),
            S,
            &s,
            TimePoint::ZERO,
            d,
            MetersPerSecond::new(1.5),
            Meters::new(0.724),
            Meters::ZERO,
            true,
        );
        assert_eq!(sched.table().reservations().len(), 1);
        let _ = sched.schedule_moving(
            VehicleId(1),
            S,
            &s,
            TimePoint::new(0.5),
            d,
            MetersPerSecond::new(1.5),
            Meters::new(0.724),
            Meters::ZERO,
            true,
        );
        assert_eq!(
            sched.table().reservations().len(),
            1,
            "stale grant must be replaced"
        );
    }

    #[test]
    fn lane_gate_prevents_follower_overtake() {
        let mut sched = scheduler();
        let s = spec();
        // Leader scheduled far out (slow crawl).
        let (lead, _) = sched.schedule_stopped(
            VehicleId(1),
            S,
            &s,
            TimePoint::new(10.0),
            Meters::ZERO,
            Meters::new(0.724),
            Seconds::ZERO,
        );
        // Follower with an earlier physical EToA must still enter after.
        let out = sched.schedule_moving(
            VehicleId(2),
            S,
            &s,
            TimePoint::ZERO,
            Meters::new(3.0),
            MetersPerSecond::new(3.0),
            Meters::new(0.724),
            Meters::ZERO,
            true,
        );
        let entry = match out {
            SlotDecision::Cruise { toa, .. } | SlotDecision::StopAndGo { toa } => toa,
            SlotDecision::Deny => panic!(),
        };
        assert!(
            entry > lead,
            "follower {entry} must enter after leader {lead}"
        );
    }

    #[test]
    fn occupancy_durations_scale_with_buffers() {
        let sched = scheduler();
        let small = sched.cruise_occupancy(S, Meters::new(0.724), MetersPerSecond::new(3.0));
        let big = sched.cruise_occupancy(S, Meters::new(1.174), MetersPerSecond::new(3.0));
        assert!(big > small);
        // (1.2 + 0.724)/3 ≈ 0.641 s.
        assert!((small.value() - (1.2 + 0.724) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn standstill_occupancy_exceeds_cruise() {
        let sched = scheduler();
        let s = spec();
        let (cover0, stand) = sched.launch_occupancy(S, Meters::new(0.724), &s, Meters::ZERO);
        let cruise = sched.cruise_occupancy(S, Meters::new(0.724), s.v_max);
        assert_eq!(cover0, Seconds::ZERO);
        assert!(stand > cruise);
    }

    #[test]
    fn setback_launch_enters_faster_and_clears_sooner() {
        let sched = scheduler();
        let s = spec();
        let (cover0, occ0) = sched.launch_occupancy(S, Meters::new(0.724), &s, Meters::ZERO);
        let (cover1, occ1) = sched.launch_occupancy(S, Meters::new(0.724), &s, Meters::new(0.8));
        assert_eq!(cover0, Seconds::ZERO);
        assert!(cover1 > Seconds::ZERO);
        // Entering with momentum shortens the in-box occupancy.
        assert!(
            occ1 < occ0,
            "occupancy with run-up {occ1} vs standstill {occ0}"
        );
    }

    #[test]
    fn ops_accumulate() {
        let mut sched = scheduler();
        let s = spec();
        assert_eq!(sched.ops(), 0);
        let _ = sched.schedule_stopped(
            VehicleId(1),
            S,
            &s,
            TimePoint::ZERO,
            Meters::ZERO,
            Meters::new(0.724),
            Seconds::ZERO,
        );
        assert!(sched.ops() > 0);
    }
}
