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
use crate::policy::common::{IntervalScheduler, SlotDecision};
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
    fn kind(&self) -> PolicyKind {
        PolicyKind::VtIm
    }

    fn decide(&mut self, request: &CrossingRequest, now: TimePoint) -> CrossingCommand {
        let eff = self
            .buffers
            .effective_length(PolicyKind::VtIm, &request.spec);
        if request.stopped {
            // A stopped vehicle launches the moment the response lands —
            // somewhere inside the next WC-RTD. Grant only an immediate
            // window, padded by WC-RTD to cover the launch uncertainty.
            // The vehicle reports its queue setback as D_T.
            if let Some(shape) = request.platoon_shape() {
                // A denied column must not ratchet its own lane gate by
                // the abandoned window each retry (see
                // `schedule_stopped_immediate`): probe without mutating.
                let (toa, _, immediate) = self.scheduler.schedule_stopped_immediate(
                    request.vehicle,
                    request.movement,
                    &request.spec,
                    now,
                    request.distance_to_intersection,
                    eff,
                    self.buffers.rtd.wc_rtd(),
                    Some(shape),
                );
                return CrossingCommand::VtTarget {
                    target_speed: if immediate {
                        request.spec.v_max
                    } else {
                        MetersPerSecond::ZERO
                    },
                    scheduled_entry: toa,
                };
            }
            let (toa, cover) = self.scheduler.schedule_stopped(
                request.vehicle,
                request.movement,
                &request.spec,
                now,
                request.distance_to_intersection,
                eff,
                self.buffers.rtd.wc_rtd(),
                None,
            );
            if (toa - (now + cover)).abs() <= Seconds::new(1e-6) {
                return CrossingCommand::VtTarget {
                    target_speed: request.spec.v_max,
                    scheduled_entry: toa,
                };
            }
            // The window is not immediate; a velocity command cannot say
            // "go later", so the vehicle must keep waiting and re-request.
            self.scheduler.release(request.vehicle);
            return CrossingCommand::VtTarget {
                target_speed: MetersPerSecond::ZERO,
                scheduled_entry: toa,
            };
        }

        // Moving vehicle: the IM plans as if actuation happens now. The
        // reported D_T is stale by up to WC-RTD of travel, so the
        // occupancy window opens early by the RTD length buffer.
        let base = self
            .buffers
            .effective_length(PolicyKind::Crossroads, &request.spec);
        let lead = self.buffers.rtd_extra(PolicyKind::VtIm, request.spec.v_max);
        match self.scheduler.schedule_moving(
            request.vehicle,
            request.movement,
            &request.spec,
            now,
            request.distance_to_intersection,
            request.speed,
            base,
            lead,
            false, // stop-and-go cannot be commanded by a bare velocity
            request.platoon_shape(),
        ) {
            SlotDecision::Cruise { toa, speed } => CrossingCommand::VtTarget {
                target_speed: speed,
                scheduled_entry: toa,
            },
            SlotDecision::StopAndGo { .. } => unreachable!("stop-and-go disabled for VT-IM"),
            SlotDecision::Deny => CrossingCommand::VtTarget {
                target_speed: MetersPerSecond::ZERO,
                scheduled_entry: now,
            },
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
