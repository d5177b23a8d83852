//! Crossroads — the time-sensitive IM (Algorithms 7–8, Ch. 6).
//!
//! The request carries the vehicle's transmit timestamp `T_T`. The IM
//! pins the actuation instant `T_E = T_T + WC-RTD` (deferring further if
//! its own queue ran long), computes where the vehicle will *determin-
//! istically* be at `T_E` (it holds its speed until then), and schedules
//! from that state. Because actuation no longer depends on when the
//! response lands, no RTD buffer is needed, and a stop-and-go can be
//! commanded with a concrete launch time — the two levers behind the
//! paper's 1.62×/1.36× throughput results.

use crossroads_intersection::{IntersectionGeometry, ReservationTable};
use crossroads_units::{Meters, Seconds, TimePoint};
use crossroads_vehicle::VehicleId;

use crate::buffer::BufferModel;
use crate::policy::common::{IntervalScheduler, SlotDecision};
use crate::policy::{IntersectionPolicy, PolicyKind};
use crate::request::{CrossingCommand, CrossingRequest};

/// The paper's contribution.
pub struct CrossroadsPolicy {
    scheduler: IntervalScheduler,
    buffers: BufferModel,
    /// Safety margin added when deferring `T_E` past a late computation.
    response_margin: Seconds,
}

impl CrossroadsPolicy {
    /// Builds a Crossroads IM. See [`VtPolicy::new`](super::VtPolicy::new)
    /// for the shared parameters.
    #[must_use]
    pub fn new(
        geometry: IntersectionGeometry,
        table: ReservationTable,
        buffers: BufferModel,
        crawl_fraction: f64,
    ) -> Self {
        CrossroadsPolicy {
            scheduler: IntervalScheduler::new(geometry, table, crawl_fraction),
            buffers,
            // Must outlast the decision's own compute time plus slack so
            // the response reaches the vehicle before T_E even when the
            // nominal budget is blown.
            response_margin: buffers.rtd.wc_computation * 0.25 + Seconds::from_millis(5.0),
        }
    }

    /// Read access to the reservation ledger (audits).
    #[must_use]
    pub fn table(&self) -> &ReservationTable {
        self.scheduler.table()
    }

    /// `T_E = T_T + WC-RTD`, deferred when the IM finished later than the
    /// budget assumed (overloaded queue) so the response still arrives
    /// before the actuation instant.
    #[must_use]
    pub fn execute_time(&self, transmitted_at: TimePoint, now: TimePoint) -> TimePoint {
        let nominal = transmitted_at + self.buffers.rtd.wc_rtd();
        let floor = now + self.buffers.rtd.wc_network + self.response_margin;
        nominal.max(floor)
    }
}

impl IntersectionPolicy for CrossroadsPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Crossroads
    }

    fn decide(&mut self, request: &CrossingRequest, now: TimePoint) -> CrossingCommand {
        let eff = self
            .buffers
            .effective_length(PolicyKind::Crossroads, &request.spec);
        if request.stopped {
            // A time-pinned launch: any future window works, as long as
            // the response arrives before the launch instant. The vehicle
            // reports its queue setback as D_T and covers it during the
            // launch run-up.
            let earliest_launch = now + self.buffers.rtd.wc_network + self.response_margin;
            let (toa, cover) = self.scheduler.schedule_stopped(
                request.vehicle,
                request.movement,
                &request.spec,
                earliest_launch,
                request.distance_to_intersection,
                eff,
                Seconds::ZERO,
                request.platoon_shape(),
            );
            return CrossingCommand::Crossroads {
                execute_at: toa - cover,
                arrival: toa,
                target_speed: request.spec.v_max,
                stop_first: true,
            };
        }

        let t_e = self.execute_time(request.transmitted_at, now);
        // Deterministic state at T_E: the vehicle holds V_C until then.
        let travelled = request.speed * (t_e - request.transmitted_at);
        let d_e = (request.distance_to_intersection - travelled).max(Meters::new(0.05));

        match self.scheduler.schedule_moving(
            request.vehicle,
            request.movement,
            &request.spec,
            t_e,
            d_e,
            request.speed,
            eff,
            Meters::ZERO,
            true, // a fixed T_E lets the IM command stop-and-go
            request.platoon_shape(),
        ) {
            SlotDecision::Cruise { toa, speed } => CrossingCommand::Crossroads {
                execute_at: t_e,
                arrival: toa,
                target_speed: speed,
                stop_first: false,
            },
            SlotDecision::StopAndGo { toa } => CrossingCommand::Crossroads {
                execute_at: t_e,
                arrival: toa,
                target_speed: request.spec.v_max,
                stop_first: true,
            },
            SlotDecision::Deny => unreachable!("stop-and-go always available to Crossroads"),
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
    use crossroads_units::MetersPerSecond;
    use crossroads_vehicle::VehicleSpec;

    fn policy() -> CrossroadsPolicy {
        let g = IntersectionGeometry::scale_model();
        let table = ReservationTable::new(ConflictTable::compute(&g, Meters::new(0.296)));
        CrossroadsPolicy::new(g, table, BufferModel::scale_model(), 0.15)
    }

    fn request(v: u32, approach: Approach, t_t: f64) -> CrossingRequest {
        CrossingRequest {
            vehicle: VehicleId(v),
            movement: Movement::new(approach, Turn::Straight),
            spec: VehicleSpec::scale_model(),
            transmitted_at: TimePoint::new(t_t),
            distance_to_intersection: Meters::new(3.0),
            speed: MetersPerSecond::new(1.5),
            stopped: false,
            attempt: 1,
            proposed_arrival: None,
            platoon_followers: 0,
            platoon_gap: Meters::ZERO,
        }
    }

    #[test]
    fn execute_time_is_tt_plus_wcrtd() {
        let p = policy();
        let t_e = p.execute_time(TimePoint::new(1.0), TimePoint::new(1.05));
        assert!((t_e.value() - 1.150).abs() < 1e-9);
    }

    #[test]
    fn execute_time_defers_under_overload() {
        let p = policy();
        // IM finished 400 ms after transmit: nominal T_E already passed.
        let t_e = p.execute_time(TimePoint::new(1.0), TimePoint::new(1.4));
        assert!(t_e > TimePoint::new(1.4));
        // But still within network + compute-margin reach of the response.
        assert!((t_e.value() - (1.4 + 0.015 + 0.135 / 4.0 + 0.005)).abs() < 1e-9);
    }

    #[test]
    fn empty_intersection_cruises_from_te() {
        let mut p = policy();
        let cmd = p.decide(&request(1, Approach::South, 0.0), TimePoint::new(0.05));
        let CrossingCommand::Crossroads {
            execute_at,
            arrival,
            target_speed,
            stop_first,
        } = cmd
        else {
            panic!()
        };
        assert!(!stop_first);
        assert!((execute_at.value() - 0.150).abs() < 1e-9);
        assert!((target_speed.value() - 3.0).abs() < 1e-9);
        // D_E = 3 − 1.5·0.15 = 2.775; accel 1.5→3 at 2 (0.75 s, 1.6875 m),
        // cruise 1.0875 m at 3 (0.3625 s): ToA = 0.15 + 1.1125.
        assert!(
            (arrival.value() - (0.15 + 1.1125)).abs() < 1e-6,
            "arrival {arrival}"
        );
    }

    #[test]
    fn conflict_pushes_later_vehicle_without_rtd_buffer() {
        let mut p = policy();
        let now = TimePoint::new(0.1);
        let first = p.decide(&request(1, Approach::South, 0.0), now);
        let CrossingCommand::Crossroads { arrival: a1, .. } = first else {
            panic!()
        };
        let second = p.decide(&request(2, Approach::East, 0.0), now);
        let CrossingCommand::Crossroads { arrival: a2, .. } = second else {
            panic!()
        };
        assert!(a2 > a1);
        // Crossroads windows are tighter than VT's: the second arrival is
        // within one *unbuffered* occupancy of the first.
        let occupancy = (1.2 + 0.724) / 3.0;
        assert!(
            (a2 - a1).value() <= occupancy + 0.75 + 1e-6,
            "gap {}",
            (a2 - a1)
        );
    }

    #[test]
    fn stopped_vehicle_gets_future_launch() {
        let mut p = policy();
        let now = TimePoint::new(2.0);
        // Jam the box first.
        let _ = p.decide(&request(1, Approach::South, 1.9), now);
        let mut stopped = request(2, Approach::East, 1.95);
        stopped.stopped = true;
        stopped.speed = MetersPerSecond::ZERO;
        stopped.distance_to_intersection = Meters::ZERO;
        let cmd = p.decide(&stopped, now);
        let CrossingCommand::Crossroads {
            arrival,
            stop_first,
            ..
        } = cmd
        else {
            panic!()
        };
        assert!(stop_first);
        assert!(arrival > now, "launch must be in the future");
        assert!(cmd.is_acceptance(), "Crossroads never forces re-requests");
    }

    #[test]
    fn saturated_box_commands_stop_and_go_not_denial() {
        let mut p = policy();
        let now = TimePoint::new(0.1);
        for i in 0..4 {
            let approaches = [
                Approach::South,
                Approach::East,
                Approach::North,
                Approach::West,
            ];
            let _ = p.decide(&request(i, approaches[i as usize], 0.0), now);
        }
        // A fifth vehicle close behind: whatever it gets, it's a concrete
        // plan, not a rejection.
        let cmd = p.decide(&request(9, Approach::South, 0.05), TimePoint::new(0.15));
        assert!(cmd.is_acceptance());
    }

    #[test]
    fn exit_releases() {
        let mut p = policy();
        let _ = p.decide(&request(1, Approach::South, 0.0), TimePoint::new(0.1));
        assert_eq!(p.table().reservations().len(), 1);
        p.on_exit(VehicleId(1), TimePoint::new(5.0));
        assert!(p.table().reservations().is_empty());
    }
}
