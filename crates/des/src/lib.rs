//! A small, deterministic discrete-event simulation (DES) kernel.
//!
//! The Crossroads reproduction replaces the paper's physical 1/10-scale
//! testbed and Matlab simulation loop with a discrete-event simulation.
//! Everything that happens in the world — a vehicle crossing the
//! transmission line, a radio packet arriving, the IM finishing a
//! computation, a retransmission timer firing — is an *event* with a
//! timestamp, processed in nondecreasing time order. Events are never
//! withdrawn: one that a later decision supersedes still fires, and its
//! handler discards it on a guard (a plan version, a request attempt, an
//! IM epoch).
//!
//! Determinism is a design requirement (DESIGN.md §5.3): events scheduled
//! for the same instant are processed in the order they were scheduled
//! (FIFO tie-breaking by a monotone sequence number), so a simulation with
//! a fixed RNG seed always produces the identical trace. That property is
//! what lets the integration tests assert exact protocol traces.
//!
//! A run's start schedule (every vehicle's line crossing, every IM
//! outage) is handed over in one piece with [`Simulation::with_prologue`].
//! Those events wait in a time-sorted list beside the heap instead of in
//! it, so the heap stays as shallow as the run's near-future events;
//! the dispatch order is the one scheduling them up front would give.
//!
//! # Examples
//!
//! ```
//! use crossroads_des::EventQueue;
//! use crossroads_units::TimePoint;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(TimePoint::new(2.0), "later");
//! q.schedule(TimePoint::new(1.0), "sooner");
//! let (t, ev) = q.pop().expect("queue is non-empty");
//! assert_eq!((t, ev), (TimePoint::new(1.0), "sooner"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod sim;

pub use queue::{Bound, EventQueue, Popped};
pub use sim::{RunOutcome, Simulation, StopReason};
