//! Property tests for the event queue and simulation executive.

use crossroads_check::{bools, ck_assert, ck_assert_eq, forall, vec};
use crossroads_des::{EventQueue, Popped, Simulation};
use crossroads_units::TimePoint;

/// The obviously-correct reference queue: a flat vector scanned for the
/// minimum `(time, seq)` on every pop, with cancellation by removal. The
/// model test below drives it in lockstep with the indexed heap.
#[derive(Default)]
struct NaiveQueue {
    /// `(at, seq, payload)` for every live event.
    entries: Vec<(f64, u64, usize)>,
    next_seq: u64,
}

impl NaiveQueue {
    /// Returns the sequence number as the cancellation handle.
    fn schedule(&mut self, at: f64, payload: usize) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((at, seq, payload));
        seq
    }

    fn cancel(&mut self, handle: u64) -> bool {
        match self.entries.iter().position(|&(_, seq, _)| seq == handle) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
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

    /// Cancelled events never surface; everything else does, exactly once.
    fn cancellation_is_exact(
        times in vec(0.0f64..1e3, 1..100),
        cancel_mask in vec(bools(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule(TimePoint::new(t), i)))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                ck_assert!(q.cancel(*id));
            } else {
                expect.push(*i);
            }
        }
        let mut popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        popped.sort_unstable();
        expect.sort_unstable();
        ck_assert_eq!(popped, expect);
    }

    /// Model test: random interleavings of schedule / cancel / pop drive
    /// the indexed heap and the naive reference queue in lockstep — pop
    /// transcripts (time bits + payload) and every `cancel` return value
    /// must agree exactly.
    fn indexed_heap_matches_naive_reference(
        ops in vec((0u8..4, 0.0f64..100.0, 0usize..64), 1..150),
    ) {
        let mut queue = EventQueue::new();
        let mut naive = NaiveQueue::default();
        // Parallel handle lists: entry k of each is the same logical event.
        let mut ids = Vec::new();
        let mut handles = Vec::new();
        let mut payload = 0usize;
        for &(op, time, pick) in &ops {
            match op {
                // Two schedule arms to one each of cancel/pop keeps the
                // queues populated enough for cancels to land on live ids.
                0 | 1 => {
                    ids.push(queue.schedule(TimePoint::new(time), payload));
                    handles.push(naive.schedule(time, payload));
                    payload += 1;
                }
                2 if !ids.is_empty() => {
                    let k = pick % ids.len();
                    ck_assert_eq!(
                        queue.cancel(ids[k]),
                        naive.cancel(handles[k]),
                        "cancel of event {k} disagreed"
                    );
                }
                _ => {
                    let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
                    let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
                    ck_assert_eq!(popped, expect);
                }
            }
            ck_assert_eq!(queue.raw_len(), naive.entries.len());
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
    /// cancel / pop / `pop_within` / `pop_before`, must match the naive
    /// reference that schedules every prologue event up front. Pop
    /// results, deferred timestamps, `peek_time`, `is_empty` and
    /// `raw_len` are compared after every operation. Times sit on a
    /// 0.5 s grid, so ties inside the prologue and between the prologue
    /// and later events occur in most cases.
    fn prologue_matches_scheduling_up_front(
        prologue in vec(0u8..20, 0..60),
        ops in vec((0u8..7, 0u8..20), 1..150),
    ) {
        let mut queue =
            EventQueue::with_prologue(prologue.iter().zip(0usize..).map(|(&step, payload)| {
                (TimePoint::new(grid(step)), payload)
            }));
        let mut naive = NaiveQueue::default();
        for (payload, &step) in prologue.iter().enumerate() {
            naive.schedule(grid(step), payload);
        }
        // Only events scheduled after the prologue have handles.
        let mut ids = Vec::new();
        let mut handles = Vec::new();
        let mut payload = prologue.len();
        for &(op, step) in &ops {
            let at = grid(step);
            match op {
                0 | 1 => {
                    ids.push(queue.schedule(TimePoint::new(at), payload));
                    handles.push(naive.schedule(at, payload));
                    payload += 1;
                }
                2 if !ids.is_empty() => {
                    let k = usize::from(step) % ids.len();
                    ck_assert_eq!(queue.cancel(ids[k]), naive.cancel(handles[k]));
                }
                3 => {
                    let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
                    let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
                    ck_assert_eq!(popped, expect);
                }
                4 => ck_assert_eq!(
                    queue.pop_within(Some(TimePoint::new(at))),
                    naive.pop_if(|t| t <= at)
                ),
                5 => ck_assert_eq!(queue.pop_within(None), naive.pop_if(|_| true)),
                _ => ck_assert_eq!(
                    queue.pop_before(TimePoint::new(at)),
                    naive.pop_if(|t| t < at)
                ),
            }
            ck_assert_eq!(queue.peek_time().map(TimePoint::value), naive.peek_time());
            ck_assert_eq!(queue.is_empty(), naive.entries.is_empty());
            ck_assert_eq!(queue.raw_len(), naive.entries.len());
        }
        loop {
            let popped = queue.pop().map(|(at, e)| (at.value().to_bits(), e));
            let expect = naive.pop().map(|(at, e)| (at.to_bits(), e));
            ck_assert_eq!(popped, expect);
            if expect.is_none() {
                break;
            }
        }
        ck_assert_eq!(queue.scheduled_total(), naive.next_seq);
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

/// Prologue events count as scheduled and as live, exactly as if each
/// had gone through `schedule`.
#[test]
fn counters_include_the_prologue() {
    let mut q = EventQueue::with_prologue((0..5).map(|i| (TimePoint::new(f64::from(i)), i)));
    assert_eq!(q.scheduled_total(), 5);
    assert_eq!(q.raw_len(), 5);
    assert!(!q.is_empty());
    q.schedule(TimePoint::new(2.5), 10);
    assert_eq!((q.scheduled_total(), q.raw_len()), (6, 6));
    assert_eq!(q.pop(), Some((TimePoint::new(0.0), 0)));
    assert_eq!((q.scheduled_total(), q.raw_len()), (6, 5));
    while q.pop().is_some() {}
    assert!(q.is_empty());
    assert_eq!((q.scheduled_total(), q.raw_len()), (6, 0));
}
