//! The simulation executive: a clock plus the event queue and a run loop.

use crossroads_units::{Seconds, TimePoint};

use crate::queue::Popped;
use crate::{EventId, EventQueue};

/// Why a [`Simulation::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained: nothing left to simulate.
    QueueExhausted,
    /// The time horizon was reached; later events remain unprocessed.
    HorizonReached,
    /// The handler requested a stop.
    HandlerStopped,
    /// The configured maximum event count was hit (runaway-loop backstop).
    EventLimit,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::QueueExhausted => write!(f, "event queue exhausted"),
            StopReason::HorizonReached => write!(f, "time horizon reached"),
            StopReason::HandlerStopped => write!(f, "handler requested stop"),
            StopReason::EventLimit => write!(f, "event limit reached"),
        }
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Number of events the handler processed.
    pub events_processed: u64,
    /// Simulation clock when the run stopped.
    pub end_time: TimePoint,
}

/// A discrete-event simulation: monotone clock + event queue + run loop.
///
/// The payload type `E` is the world's event alphabet; the handler passed to
/// [`run`](Simulation::run) interprets it and schedules follow-up events.
///
/// # Examples
///
/// Counting ticks until a horizon:
///
/// ```
/// use crossroads_des::{Simulation, StopReason};
/// use crossroads_units::{Seconds, TimePoint};
///
/// let mut sim: Simulation<u32> = Simulation::new();
/// sim.schedule_in(Seconds::new(1.0), 0);
/// let mut ticks = 0;
/// let outcome = sim.run_until(TimePoint::new(5.5), |sim, tick| {
///     ticks += 1;
///     sim.schedule_in(Seconds::new(1.0), tick + 1);
///     true // keep going
/// });
/// assert_eq!(outcome.reason, StopReason::HorizonReached);
/// assert_eq!(ticks, 5);
/// ```
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: TimePoint,
    max_events: u64,
    /// Cumulative events dispatched across every `step`/`run` call — the
    /// stamp the flight-recorder trace uses to pin a record to an exact
    /// event-loop iteration (unlike `RunOutcome::events_processed`, which
    /// resets per run call).
    dispatched: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Default backstop on events per run; generous compared to any
    /// experiment in the paper (160 cars × a few dozen events each).
    pub const DEFAULT_MAX_EVENTS: u64 = 50_000_000;

    /// Creates a simulation with the clock at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
            now: TimePoint::ZERO,
            max_events: Self::DEFAULT_MAX_EVENTS,
            dispatched: 0,
        }
    }

    /// Creates a simulation at `t = 0` whose queue starts with `events`,
    /// a run's start schedule: the same run as passing each event to
    /// [`schedule`](Self::schedule) in iteration order before the first
    /// dispatch, but the events stay out of the heap (see
    /// [`EventQueue::with_prologue`]). The heap then holds only what the
    /// run schedules, so every pop and every near-future schedule sifts
    /// through a shallow heap.
    ///
    /// # Panics
    ///
    /// Panics if a timestamp is negative or non-finite, as `schedule`
    /// does.
    #[must_use]
    pub fn with_prologue(events: impl IntoIterator<Item = (TimePoint, E)>) -> Self {
        let queue = EventQueue::with_prologue(events.into_iter().inspect(|&(at, _)| {
            assert!(
                at >= TimePoint::ZERO,
                "cannot schedule into the past: {at} < now {}",
                TimePoint::ZERO
            );
        }));
        Simulation {
            queue,
            ..Self::new()
        }
    }

    /// Replaces the runaway-loop backstop (events per `run` call).
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < now`) or non-finite. Scheduling
    /// into the past would silently violate causality, so it is rejected
    /// loudly instead.
    pub fn schedule(&mut self, at: TimePoint, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedules an event `delay` after the current time. Negative delays
    /// are clamped to zero (events fire "now", after already-queued events
    /// at the same instant).
    pub fn schedule_in(&mut self, delay: Seconds, event: E) -> EventId {
        self.queue
            .schedule(self.now + delay.max(Seconds::ZERO), event)
    }

    /// Cancels a scheduled event; see [`EventQueue::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Exposed for callers that need manual stepping (e.g. interleaving two
    /// simulations); most users want [`run`](Simulation::run).
    pub fn step(&mut self) -> Option<(TimePoint, E)> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue violated time order");
        self.now = at;
        self.dispatched += 1;
        Some((at, event))
    }

    /// Time of the next pending event, if any. O(1).
    #[must_use]
    pub fn peek_time(&self) -> Option<TimePoint> {
        self.queue.peek_time()
    }

    /// Whether no events remain queued. O(1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total number of events ever scheduled.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Cumulative events dispatched over the simulation's whole lifetime
    /// (all `step` and `run` calls). Monotone; never resets.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Runs until the queue drains or the handler returns `false`.
    ///
    /// The handler receives `&mut Simulation` so it can schedule follow-ups,
    /// and the event payload. Returning `false` stops the run after the
    /// current event.
    pub fn run<F>(&mut self, handler: F) -> RunOutcome
    where
        F: FnMut(&mut Simulation<E>, E) -> bool,
    {
        self.run_inner(None, handler)
    }

    /// Runs until `horizon` (exclusive), the queue drains, or the handler
    /// returns `false`. Events strictly after the horizon remain queued; the
    /// clock is advanced to the horizon when it is the stopping cause.
    pub fn run_until<F>(&mut self, horizon: TimePoint, handler: F) -> RunOutcome
    where
        F: FnMut(&mut Simulation<E>, E) -> bool,
    {
        self.run_inner(Some(horizon), handler)
    }

    /// Runs every event scheduled *strictly before* `end`, leaving events
    /// at or after `end` queued — the window-bounded drain of conservative
    /// parallel DES. Two deliberate differences from
    /// [`run_until`](Self::run_until):
    ///
    /// - the bound is **exclusive**: an event exactly at `end` belongs to
    ///   the *next* window (a cross-queue handoff landing exactly on a
    ///   barrier must be exchanged before the window covering that instant
    ///   runs);
    /// - the clock is **not** advanced to `end` when events remain: it
    ///   stays at the last processed event, so after the final window
    ///   `now()` still reports when this queue's last event actually
    ///   fired (and a handoff scheduled at `>= end` can never be "in the
    ///   past").
    pub fn run_window<F>(&mut self, end: TimePoint, mut handler: F) -> RunOutcome
    where
        F: FnMut(&mut Simulation<E>, E) -> bool,
    {
        let mut processed = 0u64;
        loop {
            if processed >= self.max_events {
                return RunOutcome {
                    reason: StopReason::EventLimit,
                    events_processed: processed,
                    end_time: self.now,
                };
            }
            let (at, event) = match self.queue.pop_before(end) {
                Popped::Empty => {
                    return RunOutcome {
                        reason: StopReason::QueueExhausted,
                        events_processed: processed,
                        end_time: self.now,
                    };
                }
                Popped::Beyond(_) => {
                    return RunOutcome {
                        reason: StopReason::HorizonReached,
                        events_processed: processed,
                        end_time: self.now,
                    };
                }
                Popped::Event(at, event) => (at, event),
            };
            self.now = at;
            processed += 1;
            self.dispatched += 1;
            if !handler(self, event) {
                return RunOutcome {
                    reason: StopReason::HandlerStopped,
                    events_processed: processed,
                    end_time: self.now,
                };
            }
        }
    }

    fn run_inner<F>(&mut self, horizon: Option<TimePoint>, mut handler: F) -> RunOutcome
    where
        F: FnMut(&mut Simulation<E>, E) -> bool,
    {
        let mut processed = 0u64;
        loop {
            if processed >= self.max_events {
                return RunOutcome {
                    reason: StopReason::EventLimit,
                    events_processed: processed,
                    end_time: self.now,
                };
            }
            // One queue operation per event: the pop itself checks the
            // horizon and pushes back (leaves queued) anything beyond it.
            let (at, event) = match self.queue.pop_within(horizon) {
                Popped::Empty => {
                    return RunOutcome {
                        reason: StopReason::QueueExhausted,
                        events_processed: processed,
                        end_time: self.now,
                    };
                }
                Popped::Beyond(_) => {
                    self.now = horizon.expect("Beyond implies a horizon");
                    return RunOutcome {
                        reason: StopReason::HorizonReached,
                        events_processed: processed,
                        end_time: self.now,
                    };
                }
                Popped::Event(at, event) => (at, event),
            };
            self.now = at;
            processed += 1;
            self.dispatched += 1;
            if !handler(self, event) {
                return RunOutcome {
                    reason: StopReason::HandlerStopped,
                    events_processed: processed,
                    end_time: self.now,
                };
            }
        }
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for Simulation<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("queue", &self.queue)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Simulation<&str> = Simulation::new();
        sim.schedule(TimePoint::new(1.5), "a");
        sim.schedule(TimePoint::new(0.5), "b");
        assert_eq!(sim.step(), Some((TimePoint::new(0.5), "b")));
        assert_eq!(sim.now(), TimePoint::new(0.5));
        assert_eq!(sim.step(), Some((TimePoint::new(1.5), "a")));
        assert_eq!(sim.now(), TimePoint::new(1.5));
        assert_eq!(sim.step(), None);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule(TimePoint::new(1.0), ());
        sim.step();
        sim.schedule(TimePoint::new(0.5), ());
    }

    #[test]
    fn schedule_in_clamps_negative_delay() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule(TimePoint::new(1.0), ());
        sim.step();
        sim.schedule_in(Seconds::new(-5.0), ());
        assert_eq!(sim.peek_time(), Some(TimePoint::new(1.0)));
    }

    #[test]
    fn run_drains_queue() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule(TimePoint::new(1.0), 1);
        sim.schedule(TimePoint::new(2.0), 2);
        let mut seen = Vec::new();
        let outcome = sim.run(|_, e| {
            seen.push(e);
            true
        });
        assert_eq!(outcome.reason, StopReason::QueueExhausted);
        assert_eq!(outcome.events_processed, 2);
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn handler_can_stop_early() {
        let mut sim: Simulation<u32> = Simulation::new();
        for i in 0..10 {
            sim.schedule(TimePoint::new(f64::from(i)), i);
        }
        let outcome = sim.run(|_, e| e < 3);
        assert_eq!(outcome.reason, StopReason::HandlerStopped);
        // Events 0,1,2 pass; the run stops after processing event 3.
        assert_eq!(outcome.events_processed, 4);
    }

    #[test]
    fn handler_stop_count_is_exact() {
        let mut sim: Simulation<u32> = Simulation::new();
        for i in 0..10 {
            sim.schedule(TimePoint::new(f64::from(i)), i);
        }
        let outcome = sim.run(|_, e| e != 2);
        assert_eq!(outcome.events_processed, 3);
        assert_eq!(outcome.end_time, TimePoint::new(2.0));
    }

    #[test]
    fn horizon_stops_and_clamps_clock() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule(TimePoint::new(1.0), ());
        sim.schedule(TimePoint::new(10.0), ());
        let outcome = sim.run_until(TimePoint::new(5.0), |_, _| true);
        assert_eq!(outcome.reason, StopReason::HorizonReached);
        assert_eq!(outcome.events_processed, 1);
        assert_eq!(sim.now(), TimePoint::new(5.0));
        // The late event is still queued and can be processed by a later run.
        let outcome2 = sim.run(|_, _| true);
        assert_eq!(outcome2.events_processed, 1);
    }

    #[test]
    fn event_exactly_at_horizon_is_processed() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule(TimePoint::new(5.0), ());
        let outcome = sim.run_until(TimePoint::new(5.0), |_, _| true);
        assert_eq!(outcome.events_processed, 1);
        assert_eq!(outcome.reason, StopReason::QueueExhausted);
    }

    #[test]
    fn run_window_excludes_the_end_instant_and_keeps_the_clock_honest() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule(TimePoint::new(1.0), 1);
        sim.schedule(TimePoint::new(2.0), 2);
        sim.schedule(TimePoint::new(3.0), 3);
        let mut seen = Vec::new();
        let outcome = sim.run_window(TimePoint::new(2.0), |_, e| {
            seen.push(e);
            true
        });
        assert_eq!(outcome.reason, StopReason::HorizonReached);
        assert_eq!(seen, vec![1]);
        // The clock stays at the last *processed* event — not the window
        // end — so a later schedule at exactly the barrier is legal.
        assert_eq!(sim.now(), TimePoint::new(1.0));
        sim.schedule(TimePoint::new(2.0), 20);
        let outcome = sim.run_window(TimePoint::new(4.0), |_, e| {
            seen.push(e);
            true
        });
        assert_eq!(outcome.reason, StopReason::QueueExhausted);
        // FIFO on the tie at t=2: the pre-existing event first.
        assert_eq!(seen, vec![1, 2, 20, 3]);
        assert_eq!(sim.now(), TimePoint::new(3.0));
    }

    #[test]
    fn run_window_then_run_until_matches_one_run_until() {
        // Chopping a run into windows must process the same events in the
        // same order as one inclusive run to the horizon.
        let schedule = |sim: &mut Simulation<u32>| {
            for i in 0..10 {
                sim.schedule(TimePoint::new(f64::from(i) * 0.5), i);
            }
        };
        let mut whole: Simulation<u32> = Simulation::new();
        schedule(&mut whole);
        let mut a = Vec::new();
        whole.run_until(TimePoint::new(4.5), |_, e| {
            a.push(e);
            true
        });
        let mut windowed: Simulation<u32> = Simulation::new();
        schedule(&mut windowed);
        let mut b = Vec::new();
        for w in [1.0, 2.0, 3.0, 4.5] {
            windowed.run_window(TimePoint::new(w), |_, e| {
                b.push(e);
                true
            });
        }
        // The exclusive windows leave the event exactly at 4.5 queued;
        // the final inclusive stretch picks it up.
        windowed.run_until(TimePoint::new(4.5), |_, e| {
            b.push(e);
            true
        });
        assert_eq!(a, b);
    }

    #[test]
    fn event_limit_backstop() {
        let mut sim: Simulation<()> = Simulation::new().with_max_events(100);
        sim.schedule(TimePoint::ZERO, ());
        // A self-perpetuating event chain.
        let outcome = sim.run(|sim, ()| {
            sim.schedule_in(Seconds::new(0.001), ());
            true
        });
        assert_eq!(outcome.reason, StopReason::EventLimit);
        assert_eq!(outcome.events_processed, 100);
    }

    #[test]
    fn handler_scheduled_events_interleave_correctly() {
        // An event at t=1 schedules another at t=1.5, before a pre-existing
        // event at t=2; order must be 1, 1.5, 2.
        let mut sim: Simulation<&str> = Simulation::new();
        sim.schedule(TimePoint::new(1.0), "first");
        sim.schedule(TimePoint::new(2.0), "third");
        let mut order = Vec::new();
        sim.run(|sim, e| {
            order.push(e);
            if e == "first" {
                sim.schedule(TimePoint::new(1.5), "second");
            }
            true
        });
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn dispatch_counter_is_cumulative_across_runs_and_steps() {
        let mut sim: Simulation<u32> = Simulation::new();
        for i in 0..5 {
            sim.schedule(TimePoint::new(f64::from(i)), i);
        }
        assert_eq!(sim.events_dispatched(), 0);
        sim.step();
        assert_eq!(sim.events_dispatched(), 1);
        sim.run_until(TimePoint::new(2.5), |_, _| true);
        assert_eq!(sim.events_dispatched(), 3);
        sim.run(|_, _| true);
        assert_eq!(sim.events_dispatched(), 5);
    }

    #[test]
    fn cancel_through_simulation() {
        let mut sim: Simulation<&str> = Simulation::new();
        let id = sim.schedule(TimePoint::new(1.0), "timer");
        sim.schedule(TimePoint::new(2.0), "other");
        assert!(sim.cancel(id));
        let mut seen = Vec::new();
        sim.run(|_, e| {
            seen.push(e);
            true
        });
        assert_eq!(seen, vec!["other"]);
    }

    #[test]
    fn prologue_runs_like_scheduling_up_front() {
        let start = [(3.0, 0), (1.0, 1), (2.0, 2), (1.0, 3)];
        let trace = |mut sim: Simulation<u32>| {
            let mut seen = Vec::new();
            sim.run(|sim, e| {
                seen.push((sim.now(), e));
                if e < 4 {
                    // A follow-up tying with a later start event pops
                    // after it: the start schedule holds the lower
                    // sequence numbers.
                    sim.schedule_in(Seconds::new(1.0), e + 10);
                }
                true
            });
            (seen, sim.scheduled_total(), sim.events_dispatched())
        };
        let mut upfront = Simulation::new();
        for (at, e) in start {
            upfront.schedule(TimePoint::new(at), e);
        }
        let prologue = Simulation::with_prologue(start.map(|(at, e)| (TimePoint::new(at), e)));
        assert_eq!(trace(prologue), trace(upfront));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn negative_prologue_time_panics() {
        let _ = Simulation::with_prologue([(TimePoint::new(-1.0), ())]);
    }

    #[test]
    fn same_instant_fifo_through_run() {
        let mut sim: Simulation<u32> = Simulation::new();
        for i in 0..50 {
            sim.schedule(TimePoint::new(1.0), i);
        }
        let mut seen = Vec::new();
        sim.run(|_, e| {
            seen.push(e);
            true
        });
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }
}
