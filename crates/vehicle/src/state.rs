//! The vehicle-side protocol state machine of Ch. 2.
//!
//! The paper's vehicle drives toward the transmission line (*Arriving*),
//! then moves through three states with the IM:
//!
//! 1. **Sync** — registered with the IM, exchanging clock-sync messages.
//! 2. **Request** — requesting an intersection crossing (with timeout and
//!    retransmission).
//! 3. **Follow** — executing the received plan through the intersection;
//!    on exit the vehicle reports its exit timestamp (**Done**).
//!
//! A simulated vehicle comes into being at the transmission line, so the
//! machine starts in `Sync`, and [`VehicleProtocol::restart`] puts it
//! back there at the next intersection's line (or when a negotiation is
//! abandoned). The machine counts the requests and rejections of the
//! current leg and of the whole trip.
//!
//! The machine is policy-agnostic: VT-IM, AIM and Crossroads differ only in
//! the payloads exchanged while in `Request`, which the orchestrator in
//! `crossroads-core` handles.

/// The protocol states from the transmission line on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolState {
    /// Performing clock synchronization with the IM: the state a machine
    /// starts and restarts in.
    #[default]
    Sync,
    /// Awaiting a crossing response; `attempts` counts transmissions so
    /// far (≥ 1 once the first request is sent).
    Request {
        /// Number of request transmissions, including the in-flight one.
        attempts: u32,
    },
    /// Executing a received plan through the intersection.
    Follow,
    /// Crossed and reported the exit timestamp.
    Done,
}

/// Events that drive the protocol machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolEvent {
    /// Clock synchronization completed.
    SyncCompleted,
    /// A crossing response was received and accepted.
    ResponseAccepted,
    /// A response was received but rejected (AIM's "no"); the vehicle will
    /// re-request.
    ResponseRejected,
    /// The response timeout elapsed; retransmit.
    TimedOut,
    /// The vehicle fully exited the intersection.
    CrossedIntersection,
}

/// An invalid event for the current state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidTransition {
    /// State the machine was in.
    pub state: ProtocolState,
    /// Event that does not apply there.
    pub event: ProtocolEvent,
}

impl std::fmt::Display for InvalidTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event {:?} is invalid in state {:?}",
            self.event, self.state
        )
    }
}

impl std::error::Error for InvalidTransition {}

/// A vehicle's protocol bookkeeping: its state, and its request and
/// rejection counts for the current leg and for the whole trip. A fresh
/// machine ([`Default`]) is in `Sync` with every count zero.
///
/// # Examples
///
/// ```
/// use crossroads_vehicle::{ProtocolEvent, ProtocolState, VehicleProtocol};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = VehicleProtocol::default();
/// p.apply(ProtocolEvent::SyncCompleted)?;
/// assert_eq!(p.state(), ProtocolState::Request { attempts: 1 });
/// p.apply(ProtocolEvent::ResponseAccepted)?;
/// p.apply(ProtocolEvent::CrossedIntersection)?;
/// p.restart();
/// assert_eq!(p.state(), ProtocolState::Sync);
/// assert_eq!(p.trip_requests(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VehicleProtocol {
    state: ProtocolState,
    /// Requests and rejections of the current leg.
    requests: u32,
    rejections: u32,
    /// Requests and rejections of the legs before it, banked by
    /// [`restart`](Self::restart).
    trip_requests: u32,
    trip_rejections: u32,
}

impl VehicleProtocol {
    /// Current state.
    #[must_use]
    pub fn state(&self) -> ProtocolState {
        self.state
    }

    /// Rejections received on this leg (AIM's "no" replies, VT-IM stops).
    #[must_use]
    pub fn rejections(&self) -> u32 {
        self.rejections
    }

    /// Requests transmitted over the whole trip, this leg's included
    /// (retransmissions and AIM re-requests too) — the network-load
    /// metric of Ch. 7.2.
    #[must_use]
    pub fn trip_requests(&self) -> u32 {
        self.trip_requests + self.requests
    }

    /// Rejections received over the whole trip, this leg's included.
    #[must_use]
    pub fn trip_rejections(&self) -> u32 {
        self.trip_rejections + self.rejections
    }

    /// Starts a new negotiation from `Sync` — at the next intersection's
    /// transmission line, or after an abandoned one — moving this leg's
    /// counts into the trip's.
    pub fn restart(&mut self) {
        self.state = ProtocolState::Sync;
        self.trip_requests += std::mem::take(&mut self.requests);
        self.trip_rejections += std::mem::take(&mut self.rejections);
    }

    /// Inherits the leader's crossing grant while platooned: jumps the
    /// machine from `Sync` straight to `Follow` without ever entering
    /// `Request`. A follower never transmits its own crossing request —
    /// that is the point of platoon-granularity admission — so the
    /// request counts stay untouched (the V2I message-count metric must
    /// reflect the saved uplinks).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTransition`] unless the machine is in `Sync`
    /// (a grant can only be inherited between registration and the
    /// first own request).
    pub fn inherit_grant(&mut self) -> Result<ProtocolState, InvalidTransition> {
        if self.state != ProtocolState::Sync {
            return Err(InvalidTransition {
                state: self.state,
                event: ProtocolEvent::ResponseAccepted,
            });
        }
        self.state = ProtocolState::Follow;
        Ok(self.state)
    }

    /// Applies `event`, transitioning the machine.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTransition`] if the event does not apply to the
    /// current state (protocol bug in the caller).
    pub fn apply(&mut self, event: ProtocolEvent) -> Result<ProtocolState, InvalidTransition> {
        use ProtocolEvent as E;
        use ProtocolState as S;
        let next = match (self.state, event) {
            (S::Sync, E::SyncCompleted) => {
                self.requests += 1;
                S::Request { attempts: 1 }
            }
            (S::Request { .. }, E::ResponseAccepted) => S::Follow,
            (S::Request { attempts }, E::ResponseRejected) => {
                self.rejections += 1;
                self.requests += 1;
                S::Request {
                    attempts: attempts + 1,
                }
            }
            (S::Request { attempts }, E::TimedOut) => {
                self.requests += 1;
                S::Request {
                    attempts: attempts + 1,
                }
            }
            (S::Follow, E::CrossedIntersection) => S::Done,
            (state, event) => return Err(InvalidTransition { state, event }),
        };
        self.state = next;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> VehicleProtocol {
        VehicleProtocol::default()
    }

    #[test]
    fn happy_path_vt_like() {
        let mut p = machine();
        assert_eq!(p.state(), ProtocolState::Sync);
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        assert_eq!(p.state(), ProtocolState::Request { attempts: 1 });
        p.apply(ProtocolEvent::ResponseAccepted).unwrap();
        assert_eq!(p.state(), ProtocolState::Follow);
        p.apply(ProtocolEvent::CrossedIntersection).unwrap();
        assert_eq!(p.state(), ProtocolState::Done);
        assert_eq!(p.requests, 1);
        assert_eq!(p.rejections(), 0);
    }

    #[test]
    fn aim_like_rejection_loop_counts_requests() {
        let mut p = machine();
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        for i in 0..5 {
            let s = p.apply(ProtocolEvent::ResponseRejected).unwrap();
            assert_eq!(s, ProtocolState::Request { attempts: i + 2 });
        }
        p.apply(ProtocolEvent::ResponseAccepted).unwrap();
        assert_eq!(p.requests, 6);
        assert_eq!(p.rejections(), 5);
    }

    #[test]
    fn timeout_retransmission_counts_requests() {
        let mut p = machine();
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        p.apply(ProtocolEvent::TimedOut).unwrap();
        assert_eq!(p.state(), ProtocolState::Request { attempts: 2 });
        assert_eq!(p.requests, 2);
        assert_eq!(p.rejections(), 0);
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut p = machine();
        let err = p.apply(ProtocolEvent::ResponseAccepted).unwrap_err();
        assert_eq!(err.state, ProtocolState::Sync);
        assert!(!err.to_string().is_empty());

        // Double sync completion is invalid.
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        assert!(p.apply(ProtocolEvent::SyncCompleted).is_err());
    }

    #[test]
    fn done_is_terminal() {
        let mut p = machine();
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        p.apply(ProtocolEvent::ResponseAccepted).unwrap();
        p.apply(ProtocolEvent::CrossedIntersection).unwrap();
        for ev in [
            ProtocolEvent::SyncCompleted,
            ProtocolEvent::ResponseAccepted,
            ProtocolEvent::ResponseRejected,
            ProtocolEvent::TimedOut,
            ProtocolEvent::CrossedIntersection,
        ] {
            assert!(p.apply(ev).is_err(), "{ev:?} must not apply to Done");
        }
    }

    #[test]
    fn inherited_grant_skips_request_and_counts_no_messages() {
        let mut p = machine();
        assert_eq!(p.inherit_grant().unwrap(), ProtocolState::Follow);
        assert_eq!(p.requests, 0, "a follower sends no uplink");
        p.apply(ProtocolEvent::CrossedIntersection).unwrap();
        assert_eq!(p.state(), ProtocolState::Done);
    }

    #[test]
    fn inherit_grant_requires_sync() {
        let mut p = machine();
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        assert!(p.inherit_grant().is_err(), "not once requesting");
    }

    #[test]
    fn cannot_cross_before_following() {
        let mut p = machine();
        assert!(p.apply(ProtocolEvent::CrossedIntersection).is_err());
    }

    #[test]
    fn restart_moves_the_leg_counts_into_the_trip() {
        let mut p = machine();
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        p.apply(ProtocolEvent::ResponseRejected).unwrap();
        p.apply(ProtocolEvent::TimedOut).unwrap();
        p.apply(ProtocolEvent::ResponseAccepted).unwrap();
        p.apply(ProtocolEvent::CrossedIntersection).unwrap();
        assert_eq!((p.trip_requests(), p.trip_rejections()), (3, 1));
        p.restart();
        assert_eq!(p.state(), ProtocolState::Sync);
        assert_eq!((p.requests, p.rejections()), (0, 0));
        assert_eq!((p.trip_requests(), p.trip_rejections()), (3, 1));
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        assert_eq!((p.requests, p.trip_requests()), (1, 4));
    }

    #[test]
    fn restart_starts_the_leg_rejections_from_zero() {
        let mut p = machine();
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        p.apply(ProtocolEvent::ResponseRejected).unwrap();
        p.apply(ProtocolEvent::ResponseRejected).unwrap();
        p.apply(ProtocolEvent::ResponseAccepted).unwrap();
        p.restart();
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        p.apply(ProtocolEvent::ResponseRejected).unwrap();
        assert_eq!(p.rejections(), 1, "the back-off reads this leg only");
        assert_eq!(p.trip_rejections(), 3);
    }

    #[test]
    fn grant_inherited_after_restart_counts_no_request() {
        let mut p = machine();
        p.apply(ProtocolEvent::SyncCompleted).unwrap();
        p.apply(ProtocolEvent::ResponseAccepted).unwrap();
        p.apply(ProtocolEvent::CrossedIntersection).unwrap();
        p.restart();
        assert_eq!(p.inherit_grant().unwrap(), ProtocolState::Follow);
        assert_eq!((p.requests, p.trip_requests()), (0, 1));
    }
}
