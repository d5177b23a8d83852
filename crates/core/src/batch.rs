//! Batch (reordering) intersection scheduling — the related-work
//! extension of Ch. 5.1.
//!
//! Tachet et al. (2016) propose collecting the vehicles that reach the
//! transmission line within a re-organization window and *reordering*
//! them before assigning entry times, instead of first-come-first-served.
//! The thesis notes the idea ("the authors claim that the throughput can
//! be doubled in comparison with fair scheduling") but also its cost:
//! reordering inflates computation and network load, and without RTD
//! modelling it cannot run on a physical system.
//!
//! This module implements the *scheduling core* of that idea as an
//! offline planner over the same [`ReservationTable`] the closed-loop IMs
//! use, so FIFO and reordered schedules can be compared like-for-like:
//!
//! - [`BatchPlanner::schedule_fifo`] — the paper's FIFO assignment (what
//!   Crossroads does online).
//! - [`BatchPlanner::schedule_batched`] — greedy best-insertion over
//!   reorganization windows with an exchange improvement pass.
//!
//! The planner assumes Crossroads-style time-pinned execution (vehicles
//! can hit any commanded entry time), which is exactly why the thesis
//! argues time-sensitivity is a prerequisite for this class of optimizer.

use crossroads_intersection::{
    ConflictTable, IntersectionGeometry, Movement, Reservation, ReservationTable,
};
use crossroads_traffic::Arrival;
use crossroads_units::{Meters, Seconds, TimePoint};
use crossroads_vehicle::{VehicleId, VehicleSpec};

use crate::policy::common::fastest_run;

/// One vehicle's planned crossing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedCrossing {
    /// The vehicle.
    pub vehicle: VehicleId,
    /// Its movement.
    pub movement: Movement,
    /// Scheduled box-entry instant.
    pub entry: TimePoint,
    /// Earliest physically achievable entry (the delay baseline).
    pub earliest: TimePoint,
}

impl PlannedCrossing {
    /// Scheduling delay versus the unimpeded arrival.
    #[must_use]
    pub fn delay(&self) -> Seconds {
        self.entry - self.earliest
    }
}

/// A complete schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchSchedule {
    crossings: Vec<PlannedCrossing>,
}

impl BatchSchedule {
    /// Planned crossings, in entry order.
    #[must_use]
    pub fn crossings(&self) -> &[PlannedCrossing] {
        &self.crossings
    }

    /// Sum of scheduling delays.
    #[must_use]
    pub fn total_delay(&self) -> Seconds {
        self.crossings.iter().map(PlannedCrossing::delay).sum()
    }

    /// Mean scheduling delay (zero for an empty schedule).
    #[must_use]
    pub fn average_delay(&self) -> Seconds {
        if self.crossings.is_empty() {
            return Seconds::ZERO;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.crossings.len() as f64;
        self.total_delay() / n
    }
}

/// The planning context shared by both schedulers.
#[derive(Debug, Clone)]
pub struct BatchPlanner {
    geometry: IntersectionGeometry,
    /// Shared across every [`ReservationTable`] the planner builds — the
    /// table is immutable, so clones are reference bumps, not deep
    /// copies of the conflict relation.
    conflicts: std::sync::Arc<ConflictTable>,
    spec: VehicleSpec,
    effective_length: Meters,
}

impl BatchPlanner {
    /// Creates a planner for uniform `spec` vehicles with the given
    /// per-end sensing buffer.
    #[must_use]
    pub fn new(geometry: IntersectionGeometry, spec: VehicleSpec, buffer: Meters) -> Self {
        let conflicts = std::sync::Arc::new(ConflictTable::compute(&geometry, spec.width));
        BatchPlanner {
            geometry,
            conflicts,
            spec,
            effective_length: spec.length + buffer * 2.0,
        }
    }

    /// Earliest achievable entry for an arrival (accelerate to `v_max`
    /// over the approach) and its crossing occupancy at that speed.
    fn earliest_and_duration(&self, arrival: &Arrival) -> (TimePoint, Seconds) {
        let d = self.geometry.transmission_line_distance;
        let (v_reach, fastest) =
            fastest_run(arrival.speed, &self.spec, d).expect("approach profile is feasible");
        let occupancy =
            (self.geometry.path_length(arrival.movement) + self.effective_length) / v_reach;
        (arrival.at_line + fastest, occupancy)
    }

    /// FIFO assignment: vehicles take the earliest window in arrival
    /// order — the baseline both the thesis and Tachet et al. compare
    /// against.
    #[must_use]
    pub fn schedule_fifo(&self, arrivals: &[Arrival]) -> BatchSchedule {
        let mut table = ReservationTable::new(std::sync::Arc::clone(&self.conflicts));
        let mut crossings = Vec::with_capacity(arrivals.len());
        for a in arrivals {
            let (earliest, dur) = self.earliest_and_duration(a);
            let entry = table.earliest_slot(a.movement, earliest, dur);
            table
                .insert(Reservation {
                    vehicle: a.vehicle,
                    movement: a.movement,
                    enter: entry,
                    exit: entry + dur,
                })
                .expect("earliest_slot result inserts cleanly");
            crossings.push(PlannedCrossing {
                vehicle: a.vehicle,
                movement: a.movement,
                entry,
                earliest,
            });
        }
        crossings.sort_by(|x, y| x.entry.total_cmp(y.entry));
        BatchSchedule { crossings }
    }

    /// Batched reordering: arrivals are grouped into reorganization
    /// windows of `window` seconds; within each window the planner
    /// greedily picks, at every step, the vehicle whose admission causes
    /// the least marginal delay (best-insertion), then runs a
    /// pairwise-exchange pass (`improvement_rounds` times) swapping
    /// adjacent admissions when that lowers total delay.
    ///
    /// # Panics
    ///
    /// Panics if `window` is non-positive.
    #[must_use]
    pub fn schedule_batched(
        &self,
        arrivals: &[Arrival],
        window: Seconds,
        improvement_rounds: u32,
    ) -> BatchSchedule {
        assert!(
            window.value() > 0.0,
            "reorganization window must be positive"
        );
        if arrivals.is_empty() {
            return BatchSchedule::default();
        }
        // Partition into windows by line-crossing time.
        let t0 = arrivals[0].at_line;
        let mut batches: Vec<Vec<Arrival>> = Vec::new();
        for a in arrivals {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = ((a.at_line - t0) / window).max(0.0) as usize;
            while batches.len() <= idx {
                batches.push(Vec::new());
            }
            batches[idx].push(*a);
        }

        let mut table = ReservationTable::new(std::sync::Arc::clone(&self.conflicts));
        let mut crossings: Vec<PlannedCrossing> = Vec::with_capacity(arrivals.len());
        for batch in batches.iter().filter(|b| !b.is_empty()) {
            // Seed with the better of FIFO order and greedy best-insertion
            // (greedy is myopic when a long-occupancy movement conflicts
            // with everything — it strands it at the end), then improve
            // with pairwise exchanges. The result can therefore never be
            // worse than FIFO.
            let fifo_ids: Vec<VehicleId> = batch.iter().map(|a| a.vehicle).collect();
            let fifo = self.rebuild(&mut table, &fifo_ids, batch);
            let fifo_delay: Seconds = fifo.iter().map(PlannedCrossing::delay).sum();
            for c in &fifo {
                table.release(c.vehicle);
            }
            let greedy = self.greedy_order(&mut table, batch);
            let greedy_delay: Seconds = greedy.iter().map(PlannedCrossing::delay).sum();
            let mut order = if fifo_delay <= greedy_delay {
                for c in &greedy {
                    table.release(c.vehicle);
                }
                self.rebuild(&mut table, &fifo_ids, batch)
            } else {
                greedy
            };
            for _ in 0..improvement_rounds {
                if !self.exchange_pass(&mut table, &mut order, batch) {
                    break;
                }
            }
            crossings.extend(order);
        }
        crossings.sort_by(|x, y| x.entry.total_cmp(y.entry));
        BatchSchedule { crossings }
    }

    /// Greedy best-insertion of one batch into `table`.
    fn greedy_order(
        &self,
        table: &mut ReservationTable,
        batch: &[Arrival],
    ) -> Vec<PlannedCrossing> {
        let mut pending: Vec<Arrival> = batch.to_vec();
        let mut out = Vec::with_capacity(batch.len());
        while !pending.is_empty() {
            // Pick the pending vehicle with the smallest achievable delay.
            // Tie-break note (audited alongside the generator tie-break
            // fix): `min_by` returns the *last* of equal-delay candidates,
            // i.e. the highest batch index. That order is part of the
            // pinned exp_* goldens, so it is kept as-is and documented
            // here rather than flipped.
            let (best_idx, entry, earliest, dur) = pending
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let (earliest, dur) = self.earliest_and_duration(a);
                    let entry = table.earliest_slot(a.movement, earliest, dur);
                    (i, entry, earliest, dur)
                })
                .min_by(|x, y| (x.1 - x.2).total_cmp(y.1 - y.2))
                .expect("pending non-empty");
            let a = pending.swap_remove(best_idx);
            table
                .insert(Reservation {
                    vehicle: a.vehicle,
                    movement: a.movement,
                    enter: entry,
                    exit: entry + dur,
                })
                .expect("earliest_slot result inserts cleanly");
            out.push(PlannedCrossing {
                vehicle: a.vehicle,
                movement: a.movement,
                entry,
                earliest,
            });
        }
        out
    }

    /// One exchange improvement pass: try swapping every pair of this
    /// batch's admissions (not just adjacent ones — moving a
    /// long-occupancy blocker past two parallel-compatible vehicles is
    /// only reachable by a distant swap); keep a swap when it lowers the
    /// batch's total delay. Returns whether anything improved.
    fn exchange_pass(
        &self,
        table: &mut ReservationTable,
        order: &mut Vec<PlannedCrossing>,
        batch: &[Arrival],
    ) -> bool {
        let mut improved = false;
        let n = order.len();
        for i in 0..n.saturating_sub(1) {
            for j in (i + 1)..n {
                let mut candidate: Vec<VehicleId> = order.iter().map(|c| c.vehicle).collect();
                candidate.swap(i, j);
                let current_delay: Seconds = order.iter().map(PlannedCrossing::delay).sum();

                for c in order.iter() {
                    table.release(c.vehicle);
                }
                let rebuilt = self.rebuild(table, &candidate, batch);
                let new_delay: Seconds = rebuilt.iter().map(PlannedCrossing::delay).sum();
                if new_delay < current_delay - Seconds::new(1e-9) {
                    *order = rebuilt;
                    improved = true;
                } else {
                    // Restore the original order.
                    for c in rebuilt.iter() {
                        table.release(c.vehicle);
                    }
                    let original: Vec<VehicleId> = order.iter().map(|c| c.vehicle).collect();
                    *order = self.rebuild(table, &original, batch);
                }
            }
        }
        improved
    }

    fn rebuild(
        &self,
        table: &mut ReservationTable,
        ids: &[VehicleId],
        batch: &[Arrival],
    ) -> Vec<PlannedCrossing> {
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let a = batch
                .iter()
                .find(|a| a.vehicle == *id)
                .expect("candidate ids come from this batch");
            let (earliest, dur) = self.earliest_and_duration(a);
            let entry = table.earliest_slot(a.movement, earliest, dur);
            table
                .insert(Reservation {
                    vehicle: a.vehicle,
                    movement: a.movement,
                    enter: entry,
                    exit: entry + dur,
                })
                .expect("earliest_slot result inserts cleanly");
            out.push(PlannedCrossing {
                vehicle: a.vehicle,
                movement: a.movement,
                entry,
                earliest,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_intersection::{Approach, Turn};
    use crossroads_units::MetersPerSecond;

    fn planner() -> BatchPlanner {
        BatchPlanner::new(
            IntersectionGeometry::scale_model(),
            VehicleSpec::scale_model(),
            Meters::from_millis(78.0),
        )
    }

    fn arr(v: u32, a: Approach, t: Turn, at: f64) -> Arrival {
        Arrival {
            vehicle: VehicleId(v),
            movement: Movement::new(a, t),
            at_line: TimePoint::new(at),
            speed: MetersPerSecond::new(1.5),
        }
    }

    fn burst() -> Vec<Arrival> {
        vec![
            arr(0, Approach::South, Turn::Left, 0.00),
            arr(1, Approach::East, Turn::Straight, 0.01),
            arr(2, Approach::North, Turn::Straight, 0.02),
            arr(3, Approach::West, Turn::Straight, 0.03),
            arr(4, Approach::South, Turn::Straight, 1.20),
        ]
    }

    #[test]
    fn fifo_schedules_everyone_without_conflicts() {
        let p = planner();
        let s = p.schedule_fifo(&burst());
        assert_eq!(s.crossings().len(), 5);
        for c in s.crossings() {
            assert!(c.entry >= c.earliest);
        }
    }

    #[test]
    fn batched_never_worse_than_fifo() {
        let p = planner();
        let fifo = p.schedule_fifo(&burst());
        let batched = p.schedule_batched(&burst(), Seconds::new(2.0), 2);
        assert_eq!(batched.crossings().len(), 5);
        assert!(
            batched.total_delay() <= fifo.total_delay() + Seconds::new(1e-9),
            "batched {} vs fifo {}",
            batched.total_delay(),
            fifo.total_delay()
        );
    }

    #[test]
    fn batched_reorders_a_pathological_fifo_case() {
        // A left-turner arriving a hair before two *mutually compatible*
        // straights: FIFO admits the blocker first and delays both
        // straights; the batch planner lets the parallel pair go first and
        // pays only the blocker's wait. Reaching that order requires a
        // non-adjacent exchange (through any single adjacent swap the
        // total first gets worse).
        let p = planner();
        let w = vec![
            arr(0, Approach::South, Turn::Left, 0.00),
            arr(1, Approach::East, Turn::Straight, 0.01),
            arr(2, Approach::West, Turn::Straight, 0.02),
        ];
        let fifo = p.schedule_fifo(&w);
        let batched = p.schedule_batched(&w, Seconds::new(2.0), 3);
        assert!(
            batched.total_delay() < fifo.total_delay(),
            "expected strict improvement: batched {} vs fifo {}",
            batched.total_delay(),
            fifo.total_delay()
        );
        // The left-turner no longer enters first.
        assert_ne!(batched.crossings()[0].vehicle, VehicleId(0));
    }

    #[test]
    fn single_vehicle_gets_earliest_entry() {
        let p = planner();
        let w = vec![arr(0, Approach::South, Turn::Straight, 0.0)];
        for s in [
            p.schedule_fifo(&w),
            p.schedule_batched(&w, Seconds::new(1.0), 1),
        ] {
            assert_eq!(s.crossings().len(), 1);
            assert_eq!(s.crossings()[0].delay(), Seconds::ZERO);
        }
    }

    #[test]
    fn empty_input_yields_empty_schedule() {
        let p = planner();
        assert_eq!(
            p.schedule_batched(&[], Seconds::new(1.0), 1),
            BatchSchedule::default()
        );
        assert_eq!(p.schedule_fifo(&[]).crossings().len(), 0);
    }

    #[test]
    fn window_boundaries_respect_arrival_order_across_batches() {
        // A vehicle in a later window is scheduled after the earlier
        // window's admissions have claimed the table.
        let p = planner();
        let w = vec![
            arr(0, Approach::South, Turn::Straight, 0.0),
            arr(1, Approach::East, Turn::Straight, 5.0),
        ];
        let s = p.schedule_batched(&w, Seconds::new(1.0), 1);
        assert!(s.crossings()[0].vehicle == VehicleId(0));
        assert!(s.crossings()[1].entry > s.crossings()[0].entry);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let p = planner();
        let _ = p.schedule_batched(&burst(), Seconds::ZERO, 1);
    }

    #[test]
    fn delays_are_internally_consistent() {
        let p = planner();
        let s = p.schedule_batched(&burst(), Seconds::new(2.0), 3);
        let total: f64 = s.crossings().iter().map(|c| c.delay().value()).sum();
        assert!((total - s.total_delay().value()).abs() < 1e-9);
        assert!(s.average_delay().value() * 5.0 - total < 1e-9);
    }
}
