//! The event alphabet of the closed-loop simulation.

use crossroads_vehicle::VehicleId;

use crate::request::{CrossingCommand, CrossingRequest};

/// Everything that can happen in the world. Events carrying a
/// `plan_version` are ignored when the vehicle has re-planned since they
/// were scheduled (cheap logical cancellation).
///
/// Every event names the intersection whose lane handles it (see
/// [`Event::im`]): the lane that scheduled it, or for a `LinkArrival` the
/// lane the vehicle is handed to. A vehicle restarts its protocol at
/// every handoff and leaves its old lane, so an event of one leg is
/// never acted on by the next leg's fresh state machine.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A workload vehicle crosses the tagged entry intersection's
    /// transmission line (index into the workload slice).
    LineCrossing(usize, u32),
    /// Clock synchronization with the tagged IM finished.
    SyncComplete(VehicleId, u32),
    /// The vehicle should (re)transmit its crossing request to the tagged
    /// IM; `attempt` guards against stale firings.
    SendRequest(VehicleId, u32, u32),
    /// An uplink frame reached the tagged IM's radio. The IM is bound
    /// at send time: a frame in flight when its vehicle hands off still
    /// lands at the IM it was addressed to.
    UplinkArrival(VehicleId, u32, CrossingRequest),
    /// The tagged IM finished computing this response (for the tagged
    /// request attempt); transmit it. The final field is the IM process
    /// epoch the computation started in: a crash bumps the epoch, so
    /// results of computations that were in flight when the IM died are
    /// discarded on arrival rather than transmitted by a machine that no
    /// longer exists.
    ImFinish(VehicleId, u32, u32, CrossingCommand, u32),
    /// A downlink frame from the tagged IM reached the vehicle, answering
    /// the tagged attempt.
    DownlinkArrival(VehicleId, u32, u32, CrossingCommand),
    /// The vehicle's response timeout elapsed for `attempt` on the tagged
    /// leg.
    ResponseTimeout(VehicleId, u32, u32),
    /// Last moment to start braking without a plan (`plan_version` guard).
    StopGuard(VehicleId, u32, u32),
    /// The braking profile completed; the vehicle now waits at the line.
    MarkStopped(VehicleId, u32, u32),
    /// Front bumper crosses into the box (`plan_version` guard).
    BoxEntry(VehicleId, u32, u32),
    /// Rear bumper clears the box (`plan_version` guard).
    BoxExit(VehicleId, u32, u32),
    /// The vehicle's exit notification reached the tagged IM.
    ImExitNotice(VehicleId, u32),
    /// Corridor handoff: the vehicle reaches the tagged downstream
    /// intersection's transmission line after traversing the link.
    LinkArrival(VehicleId, u32),
    /// Platoon fallback deadline for the tagged follower on the tagged
    /// leg: if it is still waiting on its leader's inherited grant when
    /// this fires (the leader's negotiation stalled — typically an IM
    /// crash mid-platoon), it detaches and runs the per-vehicle protocol.
    PlatoonTimeout(VehicleId, u32),
    /// Mixed traffic: a non-V2I vehicle (human or emergency) waiting at
    /// the tagged intersection's line re-checks whether it can commit its
    /// gap-acceptance crossing (humans) or preempt the box (emergency).
    ComplianceCheck(VehicleId, u32),
    /// Fault injection: the tagged IM process crashes. Uplinks arriving
    /// until the matching restart are dropped, queued requests and
    /// in-flight computations are lost.
    ImCrash(u32),
    /// Fault injection: the tagged crashed IM comes back up and
    /// conservatively re-validates its ledger
    /// (`IntersectionPolicy::on_restart`).
    ImRestart(u32),
}

impl Event {
    /// The intersection whose lane handles this event.
    pub(crate) fn im(&self) -> usize {
        let im = match *self {
            Event::LineCrossing(_, im)
            | Event::SyncComplete(_, im)
            | Event::SendRequest(_, _, im)
            | Event::UplinkArrival(_, im, _)
            | Event::ImFinish(_, im, ..)
            | Event::DownlinkArrival(_, im, ..)
            | Event::ResponseTimeout(_, _, im)
            | Event::StopGuard(_, _, im)
            | Event::MarkStopped(_, _, im)
            | Event::BoxEntry(_, _, im)
            | Event::BoxExit(_, _, im)
            | Event::ImExitNotice(_, im)
            | Event::LinkArrival(_, im)
            | Event::PlatoonTimeout(_, im)
            | Event::ComplianceCheck(_, im)
            | Event::ImCrash(im)
            | Event::ImRestart(im) => im,
        };
        im as usize
    }
}

#[cfg(test)]
mod tests {
    use super::Event;

    /// The intersection tags ride in padding next to the largest variant
    /// (`UplinkArrival`'s request), so tagging every event must not grow
    /// the queue's slots.
    #[test]
    fn intersection_tags_do_not_grow_the_event() {
        assert!(std::mem::size_of::<Event>() <= 128);
    }
}
