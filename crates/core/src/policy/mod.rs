//! The three intersection-management policies.

mod aim;
pub mod common;
mod crossroads;
mod vt;

pub use aim::{AimPolicy, EntryMode};
pub use common::{reachable_speed, IntervalScheduler, Slot};
pub use crossroads::CrossroadsPolicy;
pub use vt::VtPolicy;

use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{VehicleId, VehicleSpec};

use crate::request::{CrossingCommand, CrossingRequest};

/// The follower geometry of a platooned crossing request (PAIM): one
/// uplink books the whole column, so the policy widens the leader's
/// occupancy by the follower span and the world schedules each follower
/// one offset behind its predecessor.
///
/// This struct is the **single source of truth** for both sides of that
/// contract: the policy books `span = followers × offset` extra
/// occupancy, and the world derives follower entry times `T_i = T0 +
/// i × offset` from bit-identical inputs — so an inherited slot can
/// never overlap a conflicting grant that the audit would reject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatoonShape {
    /// Vehicles crossing behind the leader on the same grant.
    pub followers: u32,
    /// Front-to-front spacing each follower keeps behind its
    /// predecessor.
    pub gap: Meters,
}

impl PlatoonShape {
    /// Per-follower entry offset when the column crosses at cruise speed
    /// `v`: the time one front bumper takes to succeed the previous at a
    /// fixed spacing.
    #[must_use]
    pub fn cruise_offset(&self, v: MetersPerSecond) -> Seconds {
        Seconds::new(self.gap.value() / v.value())
    }

    /// Per-follower entry offset when the column launches from
    /// standstill: each member starts `gap` behind the previous and
    /// launches once its predecessor has cleared that distance at
    /// `a_max`, i.e. `sqrt(2·gap/a_max)` later. Separation then only
    /// grows (the predecessor is already moving when the follower
    /// starts), so the spacing at the line lower-bounds the spacing
    /// everywhere.
    #[must_use]
    pub fn launch_offset(&self, spec: &VehicleSpec) -> Seconds {
        Seconds::new((2.0 * self.gap.value() / spec.a_max.value()).sqrt())
    }

    /// Total extra occupancy the leader's grant must book to cover every
    /// follower entering `offset` apart.
    #[must_use]
    pub fn span(&self, offset: Seconds) -> Seconds {
        Seconds::new(f64::from(self.followers) * offset.value())
    }
}

/// Which IM protocol an instance speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Naive velocity-transaction IM with the RTD safety buffer.
    VtIm,
    /// The paper's time-sensitive technique.
    Crossroads,
    /// Query-based AIM (Dresner & Stone).
    Aim,
}

impl PolicyKind {
    /// All three, in the paper's comparison order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::VtIm, PolicyKind::Crossroads, PolicyKind::Aim];

    /// This policy's position in [`ALL`](Self::ALL) — a dense index for
    /// fixed-size accumulator arrays (`[f64; PolicyKind::ALL.len()]`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            PolicyKind::VtIm => 0,
            PolicyKind::Crossroads => 1,
            PolicyKind::Aim => 2,
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::VtIm => "VT-IM",
            PolicyKind::Crossroads => "Crossroads",
            PolicyKind::Aim => "AIM",
        };
        f.write_str(s)
    }
}

/// An intersection manager's decision logic, independent of the network
/// and execution environment (the simulator drives any implementor
/// identically — DESIGN.md §5.5).
///
/// `Send` because the windowed corridor engine steps each lane's world,
/// policy included, on whichever `crossroads_pool::WorkerPool::rounds`
/// worker claims the lane in a round: its home worker, or another worker
/// that found it unstarted. Exactly one worker touches a given lane per
/// round, so no `Sync` is needed.
pub trait IntersectionPolicy: Send {
    /// Decides on a crossing request. `now` is the instant the IM's
    /// computation *finishes* (the modeled computation delay has already
    /// elapsed).
    fn decide(&mut self, request: &CrossingRequest, now: TimePoint) -> CrossingCommand;

    /// The vehicle reported clearing the intersection; release its
    /// reservation.
    fn on_exit(&mut self, vehicle: VehicleId, now: TimePoint);

    /// Cumulative scheduling operations performed (conflict-window scans
    /// or tile checks) — the platform-independent computation metric of
    /// Ch. 7.2.
    fn ops(&self) -> u64;

    /// Drops bookkeeping that ended before `now`.
    fn prune(&mut self, now: TimePoint);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(PolicyKind::VtIm.to_string(), "VT-IM");
        assert_eq!(PolicyKind::Crossroads.to_string(), "Crossroads");
        assert_eq!(PolicyKind::Aim.to_string(), "AIM");
    }

    #[test]
    fn all_lists_three() {
        assert_eq!(PolicyKind::ALL.len(), 3);
    }
}
