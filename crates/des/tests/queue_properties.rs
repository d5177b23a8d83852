//! Property tests for the event queue and simulation executive.

use crossroads_check::{ck_assert, ck_assert_eq, forall, vec};
use crossroads_des::{Bound, EventQueue, Popped, Simulation};
use crossroads_units::{Seconds, TimePoint};

/// The obviously-correct reference queue: a flat vector scanned for the
/// minimum `(time, seq)` on every pop. The model tests below drive it in
/// lockstep with the heap.
#[derive(Default)]
struct NaiveQueue {
    /// `(at, seq, payload)` for every queued event.
    entries: Vec<(f64, u64, usize)>,
    next_seq: u64,
}

impl NaiveQueue {
    fn schedule(&mut self, at: f64, payload: usize) {
        self.entries.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    /// Index of the earliest `(time, seq)` entry.
    fn earliest(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(i, _)| i)
    }

    fn peek_time(&self) -> Option<f64> {
        self.earliest().map(|i| self.entries[i].0)
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let (at, _, payload) = self.entries.remove(self.earliest()?);
        Some((at, payload))
    }

    /// Pops the earliest entry if `keep(at)` holds, else reports its time.
    fn pop_if(&mut self, keep: impl Fn(f64) -> bool) -> Popped<usize> {
        match self.peek_time() {
            None => Popped::Empty,
            Some(at) if !keep(at) => Popped::Beyond(TimePoint::new(at)),
            Some(_) => {
                let (at, payload) = self.pop().expect("peeked an entry");
                Popped::Event(TimePoint::new(at), payload)
            }
        }
    }
}

/// A timestamp on a coarse 0.5 s grid, so equal times are common.
fn grid(step: u8) -> f64 {
    f64::from(step) * 0.5
}

/// A handler that records each dispatch as `(time bits, payload)` and
/// chains follow-ups `4i + 1`, `4i + 2` and `4i + 3` after a start event
/// `4i`, spaced 0, 0.5, 1 or 1.5 s by `i`.
fn chain(out: &mut Vec<(u64, u32)>) -> impl FnMut(&mut Simulation<u32>, u32) -> bool + '_ {
    move |sim, e| {
        out.push((sim.now().value().to_bits(), e));
        if e % 4 != 3 {
            sim.schedule_in(Seconds::new(f64::from(e / 4 % 4) * 0.5), e + 1);
        }
        true
    }
}

forall! {
    /// Popping always yields nondecreasing timestamps, whatever the
    /// insertion order.
    fn pops_are_time_sorted(times in vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(TimePoint::new(t), i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((at, _)) = q.pop() {
            ck_assert!(at.value() >= last);
            last = at.value();
        }
    }

    /// Equal-timestamp events preserve insertion order (stability), which is
    /// the determinism guarantee the protocol traces rely on.
    fn equal_times_are_fifo(n in 1usize..300) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(TimePoint::new(7.0), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        ck_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Model test: random interleavings of schedule / pop drive the heap
    /// and the naive reference queue in lockstep — pop transcripts (time
    /// bits + payload) must agree exactly.
    fn queue_matches_naive_reference(
        ops in vec((0u8..3, 0.0f64..100.0), 1..150),
    ) {
        let mut queue = EventQueue::new();
        let mut naive = NaiveQueue::default();
        let mut payload = 0usize;
        for &(op, time) in &ops {
            // Two schedule arms to one pop arm keep the queues populated.
            if op < 2 {
                queue.schedule(TimePoint::new(time), payload);
                naive.schedule(time, payload);
                payload += 1;
            } else {
                let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
                let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
                ck_assert_eq!(popped, expect);
            }
            ck_assert_eq!(queue.len(), naive.entries.len());
        }
        // Drain both: the tails must agree event for event.
        loop {
            let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
            let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
            ck_assert_eq!(popped, expect);
            if expect.is_none() {
                break;
            }
        }
    }

    /// Model test for the start-schedule prologue: a queue built by
    /// `with_prologue`, then driven by random interleavings of schedule /
    /// pop / `pop_within` under each kind of bound, must match the naive
    /// reference that schedules every prologue event up front. Pop
    /// results, deferred timestamps, `peek_time`, `is_empty` and `len`
    /// are compared after every operation. Times sit on a 0.5 s grid, so
    /// ties inside the prologue and between the prologue and later
    /// events occur in most cases.
    fn prologue_matches_scheduling_up_front(
        prologue in vec(0u8..20, 0..60),
        ops in vec((0u8..6, 0u8..20), 1..150),
    ) {
        let mut queue =
            EventQueue::with_prologue(prologue.iter().zip(0usize..).map(|(&step, payload)| {
                (TimePoint::new(grid(step)), payload)
            }));
        let mut naive = NaiveQueue::default();
        for (payload, &step) in prologue.iter().enumerate() {
            naive.schedule(grid(step), payload);
        }
        let mut payload = prologue.len();
        for &(op, step) in &ops {
            let at = grid(step);
            match op {
                0 | 1 => {
                    queue.schedule(TimePoint::new(at), payload);
                    naive.schedule(at, payload);
                    payload += 1;
                }
                2 => {
                    let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
                    let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
                    ck_assert_eq!(popped, expect);
                }
                3 => ck_assert_eq!(
                    queue.pop_within(Bound::Through(TimePoint::new(at))),
                    naive.pop_if(|t| t <= at)
                ),
                4 => ck_assert_eq!(
                    queue.pop_within(Bound::Unbounded),
                    naive.pop_if(|_| true)
                ),
                _ => ck_assert_eq!(
                    queue.pop_within(Bound::Before(TimePoint::new(at))),
                    naive.pop_if(|t| t < at)
                ),
            }
            ck_assert_eq!(queue.peek_time().map(TimePoint::value), naive.peek_time());
            ck_assert_eq!(queue.is_empty(), naive.entries.is_empty());
            ck_assert_eq!(queue.len(), naive.entries.len());
        }
        loop {
            let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
            let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
            ck_assert_eq!(popped, expect);
            if expect.is_none() {
                break;
            }
        }
    }

    /// Chopping a run into windows dispatches exactly what one inclusive
    /// run does. Start events and their handler follow-ups sit on the
    /// 0.5 s grid, as do the barriers, so events land exactly on barriers
    /// and on the horizon; follow-ups 0 s later land on the instant being
    /// drained. A random ascending sequence of `run_window` barriers at
    /// or before the horizon, then `run_until` the horizon, must give the
    /// `(time bits, payload)` transcript, `events_dispatched()` and final
    /// `now()` of one `run_until`, and each window must leave the clock at
    /// the last event it dispatched.
    fn windows_then_run_until_match_one_run_until(
        start in vec(0u8..20, 0..40),
        barriers in vec(0u8..24, 0..12),
        horizon in 0u8..24,
    ) {
        let sim = || {
            Simulation::with_prologue(start.iter().zip(0u32..).map(|(&step, i)| {
                (TimePoint::new(grid(step)), 4 * i)
            }))
        };
        let horizon_at = TimePoint::new(grid(horizon));

        let mut whole = sim();
        let mut expect = Vec::new();
        whole.run_until(horizon_at, chain(&mut expect));

        let mut barriers: Vec<u8> = barriers.into_iter().filter(|&b| b <= horizon).collect();
        barriers.sort_unstable();
        let mut windowed = sim();
        let mut got = Vec::new();
        for &b in &barriers {
            windowed.run_window(TimePoint::new(grid(b)), chain(&mut got));
            // A window end leaves the clock at the last dispatched event.
            let last = got.last().map_or(0.0f64.to_bits(), |&(at, _)| at);
            ck_assert_eq!(windowed.now().value().to_bits(), last);
        }
        windowed.run_until(horizon_at, chain(&mut got));

        ck_assert_eq!(got, expect);
        ck_assert_eq!(windowed.events_dispatched(), whole.events_dispatched());
        ck_assert_eq!(windowed.now().value().to_bits(), whole.now().value().to_bits());
    }

    /// The simulation clock never goes backwards over any run.
    fn clock_is_monotone(times in vec(0.0f64..1e4, 1..200)) {
        let mut sim: Simulation<()> = Simulation::new();
        for &t in &times {
            sim.schedule(TimePoint::new(t), ());
        }
        let mut last = TimePoint::ZERO;
        sim.run(|sim, ()| {
            assert!(sim.now() >= last);
            last = sim.now();
            true
        });
    }

    /// Two identically seeded schedules produce identical traces
    /// (determinism regression guard).
    fn identical_schedules_identical_traces(times in vec(0.0f64..1e3, 1..100)) {
        let trace = |times: &[f64]| -> Vec<(u64, usize)> {
            let mut sim: Simulation<usize> = Simulation::new();
            for (i, &t) in times.iter().enumerate() {
                sim.schedule(TimePoint::new(t), i);
            }
            let mut out = Vec::new();
            sim.run(|sim, e| {
                out.push((sim.now().value().to_bits(), e));
                true
            });
            out
        };
        ck_assert_eq!(trace(&times), trace(&times));
    }
}

/// Pinned regression for the `total_cmp` heap comparator: `-0.0` and `+0.0`
/// are distinct bit patterns that `partial_cmp` calls equal but `total_cmp`
/// orders `-0.0 < +0.0`. The queue must honor that total order (so the heap
/// comparator is consistent on every representable timestamp) while still
/// breaking exact-bit-pattern ties by insertion order.
#[test]
fn signed_zero_timestamps_pop_in_total_order() {
    let mut q: EventQueue<&'static str> = EventQueue::new();
    q.schedule(TimePoint::new(0.0), "pos-first");
    q.schedule(TimePoint::new(-0.0), "neg-first");
    q.schedule(TimePoint::new(0.0), "pos-second");
    q.schedule(TimePoint::new(-0.0), "neg-second");
    let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(
        order,
        ["neg-first", "neg-second", "pos-first", "pos-second"]
    );
}

/// A prologue timestamp must be finite, as a scheduled one must.
#[test]
#[should_panic(expected = "finite")]
fn non_finite_prologue_timestamp_panics() {
    let _ =
        EventQueue::with_prologue([(TimePoint::new(1.0), 'a'), (TimePoint::new(f64::NAN), 'b')]);
}

/// The same check holds behind `Simulation::with_prologue`.
#[test]
#[should_panic(expected = "finite")]
fn infinite_simulation_prologue_timestamp_panics() {
    let _ = Simulation::with_prologue([(TimePoint::new(f64::INFINITY), ())]);
}

/// Prologue events count as queued, exactly as if each had gone through
/// `schedule`.
#[test]
fn counters_include_the_prologue() {
    let mut q = EventQueue::with_prologue((0..5).map(|i| (TimePoint::new(f64::from(i)), i)));
    assert_eq!(q.len(), 5);
    assert!(!q.is_empty());
    q.schedule(TimePoint::new(2.5), 10);
    assert_eq!(q.len(), 6);
    assert_eq!(q.pop(), Some((TimePoint::new(0.0), 0)));
    assert_eq!(q.len(), 5);
    while q.pop().is_some() {}
    assert!(q.is_empty());
    assert_eq!(q.len(), 0);
}
