//! The naive velocity-transaction IM (Algorithms 1–2 of the paper).
//!
//! The IM computes a target velocity from the reported `(V_C, D_T)` and
//! the vehicle executes it *whenever the response arrives*. The IM cannot
//! know when that is, so every occupancy window is enlarged by the
//! worst-case-RTD position buffer (`v_max · WC-RTD` of extra vehicle
//! length — [`crate::BufferModel`]), and a launch from standstill can only
//! be granted when the box is free *immediately* (a future start time
//! cannot be encoded in a bare velocity command). Both limitations cost
//! throughput; quantifying that cost against Crossroads is the point of
//! the paper.

use crossroads_intersection::{IntersectionGeometry, ReservationTable};
use crossroads_units::{MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::VehicleId;

use crate::buffer::BufferModel;
use crate::policy::common::IntervalScheduler;
use crate::policy::{IntersectionPolicy, PolicyKind};
use crate::request::{CrossingCommand, CrossingRequest};

/// The VT-IM baseline.
pub struct VtPolicy {
    scheduler: IntervalScheduler,
    buffers: BufferModel,
}

impl VtPolicy {
    /// Builds a VT-IM over `geometry` with the given conflict relation and
    /// buffer model. `crawl_fraction` is the cruise-speed floor below
    /// which the IM commands a stop instead.
    #[must_use]
    pub fn new(
        geometry: IntersectionGeometry,
        table: ReservationTable,
        buffers: BufferModel,
        crawl_fraction: f64,
    ) -> Self {
        VtPolicy {
            scheduler: IntervalScheduler::new(geometry, table, crawl_fraction),
            buffers,
        }
    }

    /// Read access to the reservation ledger (audits).
    #[must_use]
    pub fn table(&self) -> &ReservationTable {
        self.scheduler.table()
    }
}

impl IntersectionPolicy for VtPolicy {
    fn decide(&mut self, request: &CrossingRequest, now: TimePoint) -> CrossingCommand {
        let eff = self
            .buffers
            .effective_length(PolicyKind::VtIm, &request.spec);
        if request.stopped {
            // A stopped vehicle launches the moment the response lands —
            // somewhere inside the next WC-RTD. Grant only an immediate
            // window, padded by WC-RTD to cover the launch uncertainty.
            // The vehicle reports its queue setback as D_T.
            let platoon = request.platoon_shape();
            let slot = self.scheduler.stopped_slot(
                request.vehicle,
                request.movement,
                &request.spec,
                now,
                request.distance_to_intersection,
                eff,
                self.buffers.rtd.wc_rtd(),
                platoon,
            );
            // A velocity command cannot say "go later": a later window is
            // refused and the vehicle re-requests.
            let immediate = (slot.entry - (now + slot.cover)).abs() <= Seconds::new(1e-6);
            // A refused solo request is booked and released, which leaves
            // its lane gate at the refused entry: no later request on this
            // approach gets an earlier slot. This ratchet shapes VT-IM's
            // results (DESIGN.md §8). A refused column books nothing: its
            // span would push the gate ahead of its own retries.
            if immediate || platoon.is_none() {
                self.scheduler
                    .admit(request.vehicle, request.movement, slot);
                if !immediate {
                    self.scheduler.release(request.vehicle);
                }
            }
            return CrossingCommand::VtTarget {
                target_speed: if immediate {
                    request.spec.v_max
                } else {
                    MetersPerSecond::ZERO
                },
                scheduled_entry: slot.entry,
            };
        }

        // Moving vehicle: the IM plans as if actuation happens now. The
        // reported D_T is stale by up to WC-RTD of travel, so the
        // occupancy window opens early by the RTD length buffer. When no
        // cruise fits, a bare velocity cannot command stop-and-go: the
        // vehicle stops and re-requests.
        let base = self
            .buffers
            .effective_length(PolicyKind::Crossroads, &request.spec);
        let lead = self.buffers.rtd_extra(PolicyKind::VtIm, request.spec.v_max);
        let (scheduled_entry, target_speed) = self
            .scheduler
            .schedule_moving(
                request.vehicle,
                request.movement,
                &request.spec,
                now,
                request.distance_to_intersection,
                request.speed,
                base,
                lead,
                request.platoon_shape(),
            )
            .unwrap_or((now, MetersPerSecond::ZERO));
        CrossingCommand::VtTarget {
            target_speed,
            scheduled_entry,
        }
    }

    fn on_exit(&mut self, vehicle: VehicleId, now: TimePoint) {
        self.scheduler.release(vehicle);
        self.scheduler.prune(now);
    }

    fn ops(&self) -> u64 {
        self.scheduler.ops()
    }

    fn prune(&mut self, now: TimePoint) {
        self.scheduler.prune(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_intersection::{Approach, ConflictTable, Movement, Turn};
    use crossroads_units::Meters;
    use crossroads_vehicle::VehicleSpec;

    fn policy() -> VtPolicy {
        let g = IntersectionGeometry::scale_model();
        let table = ReservationTable::new(ConflictTable::compute(&g, Meters::new(0.296)));
        VtPolicy::new(g, table, BufferModel::scale_model(), 0.15)
    }

    fn request(v: u32, approach: Approach, stopped: bool) -> CrossingRequest {
        let spec = VehicleSpec::scale_model();
        CrossingRequest {
            vehicle: VehicleId(v),
            movement: Movement::new(approach, Turn::Straight),
            spec,
            transmitted_at: TimePoint::ZERO,
            distance_to_intersection: if stopped {
                Meters::ZERO
            } else {
                Meters::new(3.0)
            },
            speed: if stopped {
                MetersPerSecond::ZERO
            } else {
                MetersPerSecond::new(1.5)
            },
            stopped,
            attempt: 1,
            proposed_arrival: None,
            platoon_followers: 0,
            platoon_gap: Meters::ZERO,
        }
    }

    #[test]
    fn empty_intersection_grants_top_speed() {
        let mut p = policy();
        let cmd = p.decide(&request(1, Approach::South, false), TimePoint::new(0.1));
        let CrossingCommand::VtTarget { target_speed, .. } = cmd else {
            panic!()
        };
        assert!((target_speed.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn conflicting_traffic_slows_or_stops_later_vehicles() {
        let mut p = policy();
        let now = TimePoint::new(0.1);
        let first = p.decide(&request(1, Approach::South, false), now);
        assert!(first.is_acceptance());
        let second = p.decide(&request(2, Approach::East, false), now);
        let CrossingCommand::VtTarget { target_speed, .. } = second else {
            panic!()
        };
        assert!(target_speed < VehicleSpec::scale_model().v_max);
    }

    #[test]
    fn stopped_vehicle_granted_when_box_free() {
        let mut p = policy();
        let cmd = p.decide(&request(1, Approach::South, true), TimePoint::new(5.0));
        let CrossingCommand::VtTarget {
            target_speed,
            scheduled_entry,
        } = cmd
        else {
            panic!()
        };
        assert_eq!(target_speed, VehicleSpec::scale_model().v_max);
        assert_eq!(scheduled_entry, TimePoint::new(5.0));
    }

    #[test]
    fn stopped_vehicle_denied_when_box_busy() {
        let mut p = policy();
        let now = TimePoint::new(0.1);
        // Occupy with a crossing grant.
        let first = p.decide(&request(1, Approach::South, false), now);
        assert!(first.is_acceptance());
        // A stopped conflicting vehicle cannot be granted "go later".
        let cmd = p.decide(&request(2, Approach::East, true), now);
        let CrossingCommand::VtTarget { target_speed, .. } = cmd else {
            panic!()
        };
        assert_eq!(target_speed, MetersPerSecond::ZERO);
        assert!(!cmd.is_acceptance());
        // The denial must not leave a reservation behind.
        assert!(p
            .table()
            .reservations()
            .iter()
            .all(|r| r.vehicle != VehicleId(2)));
    }

    #[test]
    fn refused_solo_launch_holds_its_lane_gate() {
        let mut p = policy();
        let now = TimePoint::new(0.1);
        assert!(p
            .decide(&request(1, Approach::South, false), now)
            .is_acceptance());
        let refused = p.decide(&request(2, Approach::East, true), now);
        assert!(!refused.is_acceptance());
        let CrossingCommand::VtTarget {
            scheduled_entry: refused_entry,
            ..
        } = refused
        else {
            panic!()
        };
        // With the box free again, only the gate the refusal left behind
        // holds the East approach.
        p.on_exit(VehicleId(1), now);
        let later = p.decide(&request(3, Approach::East, true), now);
        let CrossingCommand::VtTarget {
            scheduled_entry, ..
        } = later
        else {
            panic!()
        };
        assert!(
            scheduled_entry > refused_entry,
            "slot {scheduled_entry} must follow the refused entry {refused_entry}"
        );
    }

    #[test]
    fn refused_column_leaves_gate_and_table_untouched() {
        let mut p = policy();
        let now = TimePoint::new(0.1);
        assert!(p
            .decide(&request(1, Approach::South, false), now)
            .is_acceptance());
        let booked = p.table().reservations();
        let mut column = request(2, Approach::East, true);
        column.platoon_followers = 2;
        column.platoon_gap = Meters::new(0.5);
        assert!(!p.decide(&column, now).is_acceptance());
        assert_eq!(p.table().reservations(), booked);
        // With the box free again, a launch on the column's approach is
        // granted at once: the refusal left no gate behind.
        p.on_exit(VehicleId(1), now);
        let solo = p.decide(&request(3, Approach::East, true), now);
        assert_eq!(
            solo,
            CrossingCommand::VtTarget {
                target_speed: VehicleSpec::scale_model().v_max,
                scheduled_entry: now,
            }
        );
    }

    #[test]
    fn exit_releases_reservation() {
        let mut p = policy();
        let now = TimePoint::new(0.1);
        let _ = p.decide(&request(1, Approach::South, false), now);
        assert_eq!(p.table().reservations().len(), 1);
        p.on_exit(VehicleId(1), TimePoint::new(3.0));
        assert!(p.table().reservations().is_empty());
    }

    #[test]
    fn vt_windows_are_longer_than_crossroads_would_need() {
        // The RTD buffer inflates VT occupancy: the reservation outlasts
        // the physical crossing time.
        let mut p = policy();
        let now = TimePoint::ZERO;
        let _ = p.decide(&request(1, Approach::South, false), now);
        let r = p.table().reservations()[0];
        let physical = (1.2 + 0.568) / 3.0;
        assert!((r.exit - r.enter).value() > physical + 0.1);
    }

    #[test]
    fn ops_counted() {
        let mut p = policy();
        let _ = p.decide(&request(1, Approach::South, false), TimePoint::ZERO);
        assert!(p.ops() > 0);
    }
}
