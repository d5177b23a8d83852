//! Flight-recorder tracing for the Crossroads simulation.
//!
//! The simulation's headline claim is *temporal determinism*: the same
//! (config, workload) pair replays to the byte at any worker-pool width.
//! Until now the only way to observe that was diffing final stdout — when
//! two runs disagreed there was nothing to bisect. This crate records the
//! structured event stream a run emits (uplink/downlink send + deliver, IM
//! decision enter/exit with the per-policy service latency, actuations,
//! fallback stops, IM epoch bumps, safety-audit verdicts), each record
//! stamped with the sim time, DES dispatch index, vehicle, request attempt
//! and IM epoch, so two runs can be compared record by record and the
//! *first* diverging event named.
//!
//! Design constraints, in order:
//!
//! 1. **Recording off = byte-identical to no recorder at all.** The world
//!    holds an `Option<&mut Recorder>`; the `None` arm does no work and
//!    draws no randomness (the same guarantee the fault layer makes).
//! 2. **Zero allocation on the hot path.** [`Recorder`] pre-allocates its
//!    full capacity up front; [`Recorder::record`] never grows the buffer.
//!    Append mode drops (and counts) overflow; ring mode overwrites the
//!    oldest record.
//! 3. **Hermetic on-disk format.** [`codec`] is a hand-rolled
//!    length-prefixed little-endian binary format with a matching reader —
//!    no serde, no registry crates.
//!
//! [`diff::first_divergence`] and [`diff::divergence_report`] turn two
//! traces into "record #N differs: left …, right …" with context, which is
//! what the `exp_trace_diff` tool in `crossroads-bench` prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod diff;

use crossroads_units::{Seconds, TimePoint};

/// Sentinel vehicle id for records not tied to a vehicle (IM crash/restart,
/// audit summary).
pub const NO_VEHICLE: u32 = u32::MAX;

/// The IM's decision outcome, flattened to a closed set so records stay
/// `Copy` and the codec stays fixed-width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verdict {
    /// VT-IM commanded a nonzero cruise speed.
    VtGo = 0,
    /// VT-IM commanded `V_T = 0` (stop, re-request from standstill).
    VtStop = 1,
    /// Crossroads issued a `(T_E, ToA, V_T)` plan.
    Crossroads = 2,
    /// AIM accepted the proposed arrival.
    AimAccept = 3,
    /// AIM rejected the proposal.
    AimReject = 4,
}

impl Verdict {
    fn from_u8(v: u8) -> Option<Verdict> {
        Some(match v {
            0 => Verdict::VtGo,
            1 => Verdict::VtStop,
            2 => Verdict::Crossroads,
            3 => Verdict::AimAccept,
            4 => Verdict::AimReject,
            _ => return None,
        })
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::VtGo => "vt-go",
            Verdict::VtStop => "vt-stop",
            Verdict::Crossroads => "crossroads",
            Verdict::AimAccept => "aim-accept",
            Verdict::AimReject => "aim-reject",
        }
    }
}

/// One structured simulation event.
///
/// Frame sends carry the fault pipeline's outcome: `copies` is how many
/// physical copies the channel will deliver (0 = lost, 2 = duplicated) and
/// `latency` the delay of the earliest copy ([`LOST_LATENCY`] when none
/// survive, so lost frames still compare equal across runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Vehicle handed a request frame to the uplink radio.
    UplinkSend {
        /// Surviving copies injected by the channel/fault pipeline.
        copies: u8,
        /// Delay of the earliest surviving copy, [`LOST_LATENCY`] if none.
        latency: Seconds,
    },
    /// A request frame copy reached the IM radio.
    UplinkDeliver,
    /// The IM dequeued the request and started deciding.
    DecisionEnter,
    /// The IM finished deciding; `service` is the policy's service latency
    /// for this decision (the busy time charged before the downlink).
    DecisionExit {
        /// Flattened decision outcome.
        verdict: Verdict,
        /// Per-policy computation time for this decision.
        service: Seconds,
    },
    /// IM handed the response frame to the downlink radio.
    DownlinkSend {
        /// Surviving copies injected by the channel/fault pipeline.
        copies: u8,
        /// Delay of the earliest surviving copy, [`LOST_LATENCY`] if none.
        latency: Seconds,
    },
    /// A response frame copy reached the vehicle radio.
    DownlinkDeliver,
    /// The vehicle accepted a plan and committed its crossing trajectory.
    Actuation {
        /// The accepted command's verdict.
        verdict: Verdict,
    },
    /// The vehicle fell back to the safe stop-at-line + re-request path.
    FallbackStop,
    /// A downlink landed after its `T_E` and was discarded.
    DeadlineMiss,
    /// The IM crashed; the epoch stamped on this record is the *new*
    /// epoch, so in-flight work of the old incarnation is identifiable.
    ImCrash,
    /// The IM came back and re-validated its ledger.
    ImRestart,
    /// Post-run safety audit: this vehicle overlapped `other` in the box.
    AuditViolation {
        /// The other vehicle of the offending pair.
        other: u32,
    },
    /// Post-run safety audit summary (total violation count).
    AuditSummary {
        /// Number of overlapping pairs found.
        violations: u32,
    },
}

/// The latency recorded for a send whose every copy was lost. A negative
/// duration cannot be drawn by any delay model, and unlike NaN it compares
/// equal to itself, so lost-frame records diff cleanly.
pub const LOST_LATENCY: Seconds = Seconds::new(-1.0);

/// One flight-recorder record: an event plus the identifying stamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Cumulative DES dispatch count when the record was written. Two
    /// traces of the same run agree on this; it localizes a divergence to
    /// an exact event-loop iteration.
    pub dispatch: u64,
    /// Simulation time of the event.
    pub at: TimePoint,
    /// Vehicle the event concerns, [`NO_VEHICLE`] when none.
    pub vehicle: u32,
    /// The request attempt the event belongs to (0 when not applicable).
    pub attempt: u32,
    /// IM epoch (bumped on every crash) at record time.
    pub epoch: u32,
    /// Intersection (shard) index the event concerns in a corridor world.
    /// 0 in single-intersection worlds — such records encode and render
    /// exactly as they did before the corridor format existed.
    pub im: u32,
    /// The event payload.
    pub event: TraceEvent,
}

impl std::fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[#{:08} {}] ", self.dispatch, self.at)?;
        if self.vehicle == NO_VEHICLE {
            write!(f, "im    ")?;
        } else {
            write!(f, "v{:<4}", self.vehicle)?;
        }
        write!(f, " a{} e{}", self.attempt, self.epoch)?;
        if self.im != 0 {
            write!(f, " im{}", self.im)?;
        }
        write!(f, " ")?;
        match self.event {
            TraceEvent::UplinkSend { copies, latency } => {
                write!(f, "uplink-send copies={copies} latency={latency}")
            }
            TraceEvent::UplinkDeliver => write!(f, "uplink-deliver"),
            TraceEvent::DecisionEnter => write!(f, "decision-enter"),
            TraceEvent::DecisionExit { verdict, service } => {
                write!(f, "decision-exit {} service={service}", verdict.label())
            }
            TraceEvent::DownlinkSend { copies, latency } => {
                write!(f, "downlink-send copies={copies} latency={latency}")
            }
            TraceEvent::DownlinkDeliver => write!(f, "downlink-deliver"),
            TraceEvent::Actuation { verdict } => {
                write!(f, "actuation {}", verdict.label())
            }
            TraceEvent::FallbackStop => write!(f, "fallback-stop"),
            TraceEvent::DeadlineMiss => write!(f, "deadline-miss"),
            TraceEvent::ImCrash => write!(f, "im-crash"),
            TraceEvent::ImRestart => write!(f, "im-restart"),
            TraceEvent::AuditViolation { other } => {
                write!(f, "audit-violation other=v{other}")
            }
            TraceEvent::AuditSummary { violations } => {
                write!(f, "audit-summary violations={violations}")
            }
        }
    }
}

/// Overflow policy of a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Keep the first `capacity` records, count the rest as dropped.
    Append,
    /// Keep the *last* `capacity` records (classic flight recorder).
    Ring,
}

/// Fixed-capacity, zero-alloc-on-record event recorder.
///
/// All memory is allocated in the constructor; [`record`](Self::record)
/// never allocates, so enabling tracing does not perturb allocator state
/// mid-run.
#[derive(Debug)]
pub struct Recorder {
    buf: Vec<TraceRecord>,
    /// Ring mode: index of the oldest record once the buffer is full.
    head: usize,
    mode: Mode,
    dropped: u64,
}

impl Recorder {
    /// Append-mode recorder: keeps the first `capacity` records, drops and
    /// counts the overflow.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn fixed(capacity: usize) -> Recorder {
        assert!(capacity > 0, "recorder capacity must be nonzero");
        Recorder {
            buf: Vec::with_capacity(capacity),
            head: 0,
            mode: Mode::Append,
            dropped: 0,
        }
    }

    /// Ring-mode recorder: keeps the most recent `capacity` records,
    /// overwriting the oldest (the classic flight-recorder shape).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn ring(capacity: usize) -> Recorder {
        assert!(capacity > 0, "recorder capacity must be nonzero");
        Recorder {
            buf: Vec::with_capacity(capacity),
            head: 0,
            mode: Mode::Ring,
            dropped: 0,
        }
    }

    /// Appends one record without allocating.
    pub fn record(&mut self, record: TraceRecord) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(record);
        } else {
            match self.mode {
                Mode::Append => self.dropped += 1,
                Mode::Ring => {
                    self.buf[self.head] = record;
                    self.head = (self.head + 1) % self.buf.len();
                    self.dropped += 1;
                }
            }
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Records that did not fit (append: discarded; ring: overwritten).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained records in event order, plus the drop count.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        let Recorder {
            mut buf,
            head,
            dropped,
            ..
        } = self;
        buf.rotate_left(head);
        Trace {
            records: buf,
            dropped,
        }
    }

    /// A copy of the current contents as a [`Trace`] (allocates; meant for
    /// post-run inspection, not the hot path).
    #[must_use]
    pub fn snapshot(&self) -> Trace {
        let mut records = Vec::with_capacity(self.buf.len());
        records.extend_from_slice(&self.buf[self.head..]);
        records.extend_from_slice(&self.buf[..self.head]);
        Trace {
            records,
            dropped: self.dropped,
        }
    }
}

/// An ordered set of records captured by a [`Recorder`], plus how many
/// were dropped on the way.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Records in event order.
    pub records: Vec<TraceRecord>,
    /// Records the recorder could not retain.
    pub dropped: u64,
}

impl Trace {
    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(dispatch: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            dispatch,
            at: TimePoint::new(dispatch as f64 * 0.5),
            vehicle: 7,
            attempt: 1,
            epoch: 0,
            im: 0,
            event,
        }
    }

    #[test]
    fn display_marks_nonzero_shard_only() {
        let base = rec(1, TraceEvent::UplinkDeliver);
        let zero = base.to_string();
        assert!(!zero.contains("im0"), "im 0 renders as before: {zero}");
        let shard = TraceRecord { im: 3, ..base };
        assert!(shard.to_string().contains(" im3 "), "{shard}");
    }

    #[test]
    fn append_mode_keeps_prefix_and_counts_drops() {
        let mut r = Recorder::fixed(2);
        for i in 0..5 {
            r.record(rec(i, TraceEvent::UplinkDeliver));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let t = r.into_trace();
        assert_eq!(t.records[0].dispatch, 0);
        assert_eq!(t.records[1].dispatch, 1);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn ring_mode_keeps_most_recent_in_order() {
        let mut r = Recorder::ring(3);
        for i in 0..7 {
            r.record(rec(i, TraceEvent::DecisionEnter));
        }
        assert_eq!(r.dropped(), 4);
        let t = r.snapshot();
        let got: Vec<u64> = t.records.iter().map(|x| x.dispatch).collect();
        assert_eq!(got, vec![4, 5, 6]);
        assert_eq!(r.into_trace().records.len(), 3);
    }

    #[test]
    fn record_never_allocates_past_capacity() {
        let mut r = Recorder::fixed(4);
        let cap = r.capacity();
        let ptr = r.buf.as_ptr();
        for i in 0..100 {
            r.record(rec(i, TraceEvent::FallbackStop));
        }
        assert_eq!(r.capacity(), cap);
        assert_eq!(r.buf.as_ptr(), ptr);
    }

    #[test]
    fn display_names_every_event_kind() {
        let events = [
            TraceEvent::UplinkSend {
                copies: 1,
                latency: Seconds::new(0.02),
            },
            TraceEvent::UplinkDeliver,
            TraceEvent::DecisionEnter,
            TraceEvent::DecisionExit {
                verdict: Verdict::Crossroads,
                service: Seconds::new(0.001),
            },
            TraceEvent::DownlinkSend {
                copies: 0,
                latency: LOST_LATENCY,
            },
            TraceEvent::DownlinkDeliver,
            TraceEvent::Actuation {
                verdict: Verdict::AimAccept,
            },
            TraceEvent::FallbackStop,
            TraceEvent::DeadlineMiss,
            TraceEvent::ImCrash,
            TraceEvent::ImRestart,
            TraceEvent::AuditViolation { other: 3 },
            TraceEvent::AuditSummary { violations: 0 },
        ];
        let mut renders: Vec<String> = events
            .iter()
            .map(|&event| rec(1, event).to_string())
            .collect();
        renders.dedup();
        assert_eq!(renders.len(), events.len(), "event renders must differ");
    }
}
