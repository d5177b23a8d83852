//! The interval scheduler shared by VT-IM and Crossroads.
//!
//! Both velocity-transaction policies answer the same question: *given a
//! vehicle that will be at distance `d` from the box with speed `v0` at
//! time `t_base`, when may it enter, and at what cruise speed?* They
//! differ only in what `t_base` means (VT-IM: "whenever the response
//! lands", absorbed by buffer; Crossroads: the exact actuation time `T_E`)
//! and in the buffer the occupancy windows carry. The scheduler holds one
//! cruise search, which books what it finds, and one standstill-launch
//! search, whose slot the caller books with [`IntervalScheduler::admit`]
//! or refuses. What to do when no cruise fits is the policy's: VT-IM
//! commands a stop, Crossroads a timed stop-and-go.

use crossroads_intersection::{
    Approach, IntersectionGeometry, Movement, Reservation, ReservationTable,
};
use crossroads_units::kinematics;
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{VehicleId, VehicleSpec};

use super::PlatoonShape;

/// A box-occupancy window for one grant: what [`IntervalScheduler::admit`]
/// books.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Box-entry instant.
    pub entry: TimePoint,
    /// Launch-to-entry travel time of a standstill launch (launch =
    /// `entry − cover`); zero for a cruise.
    pub cover: Seconds,
    /// Occupancy booked from `entry`, the follower span included.
    pub dur: Seconds,
    /// Follower span: the last column member enters at `entry + span`.
    pub span: Seconds,
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
        self.table.retire_before(now);
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
        let (_, t_total) = fastest_run(MetersPerSecond::ZERO, spec, total)
            .expect("standstill crossing profile is always feasible");
        let cover = launch_cover_time(spec, setback);
        (cover, t_total - cover)
    }

    /// Searches a cruise for a *moving* vehicle: at `t_base` it will be
    /// `d` from the box entry doing `v0`. Books the cruise and returns its
    /// entry instant and speed, or returns `None`, booking nothing, when
    /// no cruise at or above the crawl floor fits. Either way the
    /// vehicle's previous booking is released first.
    ///
    /// `lead_length` is VT-IM's RTD buffer: the vehicle may be up to this
    /// much *closer* than reported (stale `D_T`), so the occupancy window
    /// opens `lead_length / v` before the scheduled entry.
    /// `effective_length` contains the sensing buffers only.
    ///
    /// For a platoon leader (`platoon` is `Some`) the booked occupancy is
    /// widened by the follower span at the *cruise* offset of each
    /// candidate speed (PAIM — one reservation covers the whole column).
    /// `None` is the per-vehicle path.
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
        platoon: Option<PlatoonShape>,
    ) -> Option<(TimePoint, MetersPerSecond)> {
        self.release(vehicle);
        let v_crawl = spec.v_max * self.crawl_fraction;
        let (v_reach, fastest) = fastest_run(v0, spec, d)?;
        let etoa = t_base + fastest;
        let gate = self.gate(movement.approach);
        let mut toa = etoa.max(gate);
        let eps = Seconds::new(1e-6);

        for _ in 0..64 {
            // Speed that makes this candidate entry time, entering at it.
            let speed = if (toa - etoa).abs() <= eps {
                v_reach
            } else {
                kinematics::solve_cruise_speed(
                    v0,
                    spec.v_max,
                    spec.a_max,
                    spec.d_max,
                    d,
                    toa - t_base,
                )
                .filter(|&v| v >= v_crawl)?
            };
            // Window opens early by the lead (stale-position cover) and
            // lasts the buffered crossing — plus the follower span when a
            // platoon crosses on this grant.
            let lead = lead_length / speed;
            let span = platoon.map_or(Seconds::ZERO, |p| p.span(p.cruise_offset(speed)));
            let dur = self.cruise_occupancy(movement, effective_length, speed) + lead + span;
            let window_start = (toa - lead).max(TimePoint::ZERO);
            self.ops += self.table.len() as u64 + 1;
            let entry = self.table.earliest_slot(movement, window_start, dur);
            if (entry - window_start).abs() <= eps {
                // Admit at the exact slot the table returned: a sub-epsilon
                // difference from `window_start` would fail the insert's
                // overlap re-check.
                let cruise = Slot {
                    entry,
                    cover: Seconds::ZERO,
                    dur,
                    span,
                };
                self.admit(vehicle, movement, cruise);
                return Some((toa, speed));
            }
            toa = entry + lead;
        }
        None
    }

    /// Searches a launch from standstill `setback` meters behind the line,
    /// no earlier than `earliest_launch`, after releasing the vehicle's
    /// previous booking. Returns the slot *without* booking it: the caller
    /// books it with [`admit`](Self::admit) or refuses it.
    ///
    /// `pad` lengthens the booked occupancy. For a platoon leader
    /// (`platoon` is `Some`) it is also widened by the follower *launch*
    /// span — the column launches from standstill one `launch_offset`
    /// apart. `None` is the per-vehicle path.
    #[allow(clippy::too_many_arguments)]
    pub fn stopped_slot(
        &mut self,
        vehicle: VehicleId,
        movement: Movement,
        spec: &VehicleSpec,
        earliest_launch: TimePoint,
        setback: Meters,
        effective_length: Meters,
        pad: Seconds,
        platoon: Option<PlatoonShape>,
    ) -> Slot {
        self.release(vehicle);
        let (cover, occupancy) = self.launch_occupancy(movement, effective_length, spec, setback);
        let span = platoon.map_or(Seconds::ZERO, |p| p.span(p.launch_offset(spec)));
        let dur = occupancy + pad + span;
        let gate = self.gate(movement.approach);
        self.ops += self.table.len() as u64 + 1;
        let entry = self
            .table
            .earliest_slot(movement, (earliest_launch + cover).max(gate), dur);
        Slot {
            entry,
            cover,
            dur,
            span,
        }
    }

    fn gate(&self, approach: Approach) -> TimePoint {
        self.lane_gate[approach.index()].map_or(TimePoint::ZERO, |t| t + Seconds::new(1e-3))
    }

    /// Books `slot` for `vehicle` and moves its approach's lane gate to
    /// the slot's last column entry.
    ///
    /// # Panics
    ///
    /// Panics if `slot` overlaps a conflicting booking, i.e. it is not the
    /// latest search's answer over an unchanged ledger.
    pub fn admit(&mut self, vehicle: VehicleId, movement: Movement, slot: Slot) {
        self.table
            .insert(Reservation {
                vehicle,
                movement,
                enter: slot.entry,
                exit: slot.entry + slot.dur,
            })
            .expect("earliest_slot result must insert cleanly");
        // The lane gate must cover the *last follower's* entry, not just
        // the leader's, or the next same-approach grant could be slotted
        // into the middle of the column.
        self.lane_gate[movement.approach.index()] = Some(slot.entry + slot.span);
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

/// The fastest run over `d` from `v0`: accelerate at `a_max` to the
/// [`reachable_speed`], then hold it. Returns that speed and the run's
/// duration, or `None` for inputs [`kinematics::accel_cruise`] rejects.
#[must_use]
pub(crate) fn fastest_run(
    v0: MetersPerSecond,
    spec: &VehicleSpec,
    d: Meters,
) -> Option<(MetersPerSecond, Seconds)> {
    let v = reachable_speed(v0, spec, d);
    let run = kinematics::accel_cruise(v0, v, spec.a_max, d).ok()?;
    Some((v, run.total_time))
}

/// Time for a standstill launch to cover `d` (zero for `d <= 0`).
///
/// # Panics
///
/// Panics only on an inconsistent spec, which [`VehicleSpec::validate`]
/// prevents.
#[must_use]
pub(crate) fn launch_cover_time(spec: &VehicleSpec, d: Meters) -> Seconds {
    if d.value() <= 0.0 {
        return Seconds::ZERO;
    }
    fastest_run(MetersPerSecond::ZERO, spec, d)
        .expect("launch run-up is feasible")
        .1
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

    /// [`IntervalScheduler::schedule_moving`] for a solo vehicle 3 m out
    /// at `v0`, unbuffered by RTD.
    fn cruise(
        sched: &mut IntervalScheduler,
        v: u32,
        movement: Movement,
        t_base: f64,
        v0: f64,
    ) -> Option<(TimePoint, MetersPerSecond)> {
        sched.schedule_moving(
            VehicleId(v),
            movement,
            &spec(),
            TimePoint::new(t_base),
            Meters::new(3.0),
            MetersPerSecond::new(v0),
            Meters::new(0.724),
            Meters::ZERO,
            None,
        )
    }

    /// Books a solo standstill launch from the line no earlier than
    /// `earliest`, holding the box for an `eff`-long vehicle plus `pad`.
    fn launch(
        sched: &mut IntervalScheduler,
        v: u32,
        movement: Movement,
        earliest: f64,
        eff: f64,
        pad: f64,
    ) -> TimePoint {
        let slot = sched.stopped_slot(
            VehicleId(v),
            movement,
            &spec(),
            TimePoint::new(earliest),
            Meters::ZERO,
            Meters::new(eff),
            Seconds::new(pad),
            None,
        );
        sched.admit(VehicleId(v), movement, slot);
        slot.entry
    }

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
        let (toa, speed) = cruise(&mut sched, 1, S, 0.0, 1.5).expect("a cruise fits");
        assert!((speed.value() - 3.0).abs() < 1e-9);
        let expect = kinematics::accel_cruise(
            MetersPerSecond::new(1.5),
            s.v_max,
            s.a_max,
            Meters::new(3.0),
        )
        .unwrap()
        .total_time;
        assert!((toa.value() - expect.value()).abs() < 1e-9);
    }

    #[test]
    fn conflicting_grant_slows_the_second_vehicle() {
        let mut sched = scheduler();
        let (toa1, _) = cruise(&mut sched, 1, S, 0.0, 1.5).expect("a cruise fits");
        let (toa2, speed) = cruise(&mut sched, 2, E, 0.0, 1.5).expect("a slower cruise fits");
        assert!(toa2 > toa1);
        assert!(speed < spec().v_max);
        assert!(sched.table().is_conflict_free());
    }

    #[test]
    fn heavily_loaded_intersection_refuses_a_cruise() {
        let mut sched = scheduler();
        // Fill the box for a long while (grossly oversized vehicles).
        for i in 0..6 {
            let m = if i % 2 == 0 { S } else { E };
            let _ = launch(&mut sched, 100 + i, m, f64::from(i) * 3.0, 3.0, 2.0);
        }
        let booked = sched.table().reservations();
        assert_eq!(cruise(&mut sched, 1, E, 0.0, 3.0), None);
        assert_eq!(
            sched.table().reservations(),
            booked,
            "a refusal books nothing"
        );
    }

    #[test]
    fn re_request_replaces_previous_reservation() {
        let mut sched = scheduler();
        let _ = cruise(&mut sched, 1, S, 0.0, 1.5);
        assert_eq!(sched.table().reservations().len(), 1);
        let _ = cruise(&mut sched, 1, S, 0.5, 1.5);
        assert_eq!(
            sched.table().reservations().len(),
            1,
            "stale grant must be replaced"
        );
    }

    #[test]
    fn lane_gate_prevents_follower_overtake() {
        let mut sched = scheduler();
        // Leader booked far out.
        let lead = launch(&mut sched, 1, S, 10.0, 0.724, 0.0);
        // A follower with an earlier physical EToA must still enter after
        // it: no cruise can wait that long, and its launch comes later.
        assert_eq!(cruise(&mut sched, 2, S, 0.0, 3.0), None);
        let entry = launch(&mut sched, 2, S, 0.0, 0.724, 0.0);
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
        assert_eq!(cover1, launch_cover_time(&s, Meters::new(0.8)));
        // Entering with momentum shortens the in-box occupancy.
        assert!(
            occ1 < occ0,
            "occupancy with run-up {occ1} vs standstill {occ0}"
        );
    }

    #[test]
    fn stopped_search_counts_ops_and_books_nothing() {
        let mut sched = scheduler();
        assert_eq!(sched.ops(), 0);
        let _ = sched.stopped_slot(
            VehicleId(1),
            S,
            &spec(),
            TimePoint::ZERO,
            Meters::ZERO,
            Meters::new(0.724),
            Seconds::ZERO,
            None,
        );
        assert!(sched.ops() > 0);
        assert!(sched.table().reservations().is_empty());
    }
}
