//! `crossroads-pool`: the workspace's own scoped worker pool.
//!
//! The experiment harness runs hundreds of independent `(policy × rate ×
//! seed)` simulation points; every point owns its seed, so the sweeps are
//! embarrassingly parallel. The hermetic-build policy (no registry
//! dependencies — see README.md) rules out `rayon`, so this crate
//! supplies the two primitives the workspace needs, both built on
//! [`std::thread::scope`]: an ordered parallel map over a slice for the
//! sweeps ([`WorkerPool::map`]), and bulk-synchronous rounds over
//! mutable slots for the windowed corridor engine
//! ([`WorkerPool::rounds`]). `rounds` is a barrier the calling thread
//! joins as a worker: each slot has a home worker for the whole call, a
//! worker done with its home slots steps any slot that no worker has
//! started, workers wait between rounds on an epoch counter (a short
//! fixed spin, then `park`), and nothing crosses a channel or allocates
//! per round.
//!
//! Guarantees:
//!
//! - **Deterministic result ordering.** `map` returns results indexed
//!   exactly like the input slice, whatever order workers finish in.
//!   Parallel runs are therefore byte-identical to sequential ones as
//!   long as each task is a pure function of its input (the sweeps are:
//!   every point derives its own PRNG stream from its seed).
//! - **Panic propagation.** A panic inside a worker is caught, the queue
//!   is drained, and the payload re-thrown in the caller via
//!   [`std::panic::resume_unwind`] — a failing sweep point fails the
//!   sweep, never hangs it. `rounds` stops and joins every helper before
//!   re-raising a panic from a step or from its control closure.
//! - **Fixed workers.** `map`'s `threads` workers pull indices off an
//!   atomic counter, so tasks ≫ workers oversubscribe gracefully;
//!   `rounds` never waits for a descheduled helper to start a slot,
//!   because any running worker steps it.
//!
//! The caller picks the thread count. The experiment binaries take it
//! from `CROSSROADS_THREADS` ([`THREADS_ENV`]), read by `crossroads_bench`,
//! never by this crate.
//!
//! # Examples
//!
//! ```
//! use crossroads_pool::WorkerPool;
//!
//! let squares = WorkerPool::new(4).map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

/// The experiment binaries' worker-count knob, read by `crossroads_bench`,
/// never by this crate.
pub const THREADS_ENV: &str = "CROSSROADS_THREADS";

/// A fixed-size pool mapping a slice through a function in parallel.
///
/// The pool is a configuration object: each [`map`](Self::map) call
/// spawns its workers inside a [`std::thread::scope`], so borrows of the
/// input slice and the task function need no `'static` bound and every
/// worker is joined before `map` returns.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        WorkerPool { threads }
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// `f` receives `(index, &item)`. With one worker (or fewer than two
    /// items) the map degenerates to the sequential fold — same results,
    /// no threads spawned.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic (by input index) raised inside `f`.
    /// Remaining queued tasks are abandoned once a panic is observed.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let done: Mutex<Vec<(usize, std::thread::Result<R>)>> =
            Mutex::new(Vec::with_capacity(items.len()));

        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(items.len()) {
                scope.spawn(|| loop {
                    if poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                    if out.is_err() {
                        poisoned.store(true, Ordering::Relaxed);
                    }
                    lock(&done).push((i, out));
                });
            }
        });

        let mut done = done
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        done.sort_by_key(|&(i, _)| i);
        let mut results = Vec::with_capacity(done.len());
        for (_, r) in done {
            match r {
                Ok(v) => results.push(v),
                Err(payload) => resume_unwind(payload),
            }
        }
        debug_assert_eq!(results.len(), items.len());
        results
    }

    /// Bulk-synchronous rounds over mutable slots — the "shard step"
    /// shape of conservative windowed parallel DES.
    ///
    /// Every round runs `step(plan, i, &mut slot_i)` once for every slot,
    /// distributed over the workers; each step returns a report. Round 1
    /// runs under `first`. After each round `control` receives the round's
    /// reports in slot order and returns the next round's plan, or `None`
    /// to end the call. `control` never sees a slot: whatever one slot
    /// sends another goes through state the two steps share (the windowed
    /// corridor engine's inboxes), and a step that reads it must wait for
    /// a later round to be sure the sender has run.
    ///
    /// The call spawns `W − 1` helper threads once, in one
    /// [`std::thread::scope`], for `W = min(workers, slots)`; the calling
    /// thread is worker 0 and also runs `control`. Each slot is lent to a
    /// mutex cell of its own once per call. Worker `w` is the home of the
    /// slots `[w·n/W, (w + 1)·n/W)` and steps them first in every round;
    /// it then claims any other slot that no worker has started in this
    /// round, scanning each other block from its far end. A per-slot round
    /// counter decides every claim, so no slot is stepped twice in a round
    /// or aliased, and a helper the OS has not scheduled never stalls a
    /// round: the running workers step its slots. Each worker adds the
    /// slots it stepped to a cumulative done counter once per round.
    ///
    /// The caller opens a round by publishing its plan and number on an
    /// epoch counter and unparking the helpers, then works, then waits on
    /// the done counter. Between rounds helpers spin on the epoch for a
    /// fixed budget of `spin_loop` hints, then park; the caller spins on
    /// the done counter for the same budget, then yields. Nothing crosses
    /// a channel and nothing is allocated per round.
    ///
    /// Determinism: each `step` owns its slot exclusively and `control`
    /// always receives the reports in slot order, so as long as `step` is
    /// a pure function of its plan, its slot and what earlier rounds sent
    /// it, the outcome is independent of the worker count and of which
    /// worker stepped which slot — one worker (or one slot) degenerates to
    /// the same step/control sequence run inline.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic (by slot index) raised inside `step` in
    /// the round that observed it, once every slot of that round has
    /// finished, and re-raises a panic raised inside `control`. Either
    /// way every helper is stopped and joined first.
    pub fn rounds<T, P, R, C, S>(&self, slots: &mut [T], first: P, mut control: C, step: S)
    where
        T: Send,
        P: Copy + Send,
        R: Send,
        C: FnMut(&[R]) -> Option<P>,
        S: Fn(P, usize, &mut T) -> R + Sync,
    {
        let n = slots.len();
        let workers = self.threads.min(n);
        let mut reports = Vec::with_capacity(n);
        let mut plan = first;
        if workers <= 1 {
            loop {
                reports.clear();
                for (i, slot) in slots.iter_mut().enumerate() {
                    reports.push(step(plan, i, slot));
                }
                match control(&reports) {
                    Some(next) => plan = next,
                    None => return,
                }
            }
        }
        let barrier = Barrier {
            seats: slots
                .iter_mut()
                .map(|slot| Seat {
                    round: AtomicUsize::new(0),
                    lent: Mutex::new(Lent { slot, report: None }),
                })
                .collect(),
            workers,
            plan: Mutex::new(first),
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            first_panic: Mutex::new(None),
        };
        let (barrier, step) = (&barrier, &step);
        std::thread::scope(|scope| {
            // Dropped on every exit path — a panic in `control` included —
            // so no helper is left parked when the scope joins them.
            let mut helpers = StopOnDrop {
                epoch: &barrier.epoch,
                threads: Vec::with_capacity(workers - 1),
            };
            for worker in 1..workers {
                let handle = scope.spawn(move || {
                    let mut seen = 0;
                    loop {
                        seen = barrier.next_epoch(seen);
                        if seen == STOP {
                            break;
                        }
                        barrier.work(worker, seen, step);
                    }
                });
                helpers.threads.push(handle.thread().clone());
            }
            for round in 1.. {
                *lock(&barrier.plan) = plan;
                barrier.epoch.store(round, Ordering::Release);
                for helper in &helpers.threads {
                    helper.unpark();
                }
                barrier.work(0, round, step);
                barrier.wait_done(round);
                reports.clear();
                for seat in &barrier.seats {
                    let report = lock(&seat.lent).report.take();
                    match report {
                        Some(report) => reports.push(report),
                        // Only a panicking step leaves no report.
                        None => {
                            let (_, payload) = lock(&barrier.first_panic)
                                .take()
                                .expect("a step without a report panicked");
                            resume_unwind(payload);
                        }
                    }
                }
                match control(&reports) {
                    Some(next) => plan = next,
                    None => break,
                }
            }
        });
    }
}

/// Spin-loop hints a waiting [`WorkerPool::rounds`] worker issues before
/// it blocks: helpers then park, the caller yields. Short on purpose —
/// on an oversubscribed host a long spin steals the core from the very
/// thread being waited for. A 2-worker corridor on an idle 2-core host
/// parks less with 1,024 hints, but the full grid sweep on 2 pool threads
/// × 7 shard workers ran slower with 512 or 1,024 (EXPERIMENTS.md,
/// "Windowed rounds on home workers").
const SPIN_BUDGET: u32 = 256;

/// Epoch value that tells the helpers of [`WorkerPool::rounds`] to exit.
const STOP: usize = usize::MAX;

/// A panic payload tagged with the slot index that raised it.
type SlotPanic = (usize, Box<dyn Any + Send>);

/// The shared state of one [`WorkerPool::rounds`] call.
///
/// Round `r` (numbered from 1) moves each seat's round counter from
/// `r − 1` to `r` when a worker claims the slot, and is complete once
/// `done` reaches `r·n`. A helper still scanning round `r` after the
/// caller opened round `r + 1` finds every counter past `r − 1` and
/// claims nothing.
///
/// Orderings: the caller's `Release` store of `epoch` pairs with the
/// helpers' `Acquire` loads, and each worker's `Release` increment of
/// `done` with the caller's `Acquire` load, so a round starts after the
/// control phase and the control phase after the round. Slot data,
/// reports and plans pass through mutexes; the seat counters publish
/// nothing and are `Relaxed`.
struct Barrier<'s, T, P, R> {
    /// Slot `i` and its claim counter, lent for the whole call.
    seats: Vec<Seat<'s, T, R>>,
    /// Worker count `W`; worker `w` is the home of `[w·n/W, (w + 1)·n/W)`.
    workers: usize,
    /// The open round's plan.
    plan: Mutex<P>,
    /// The open round; [`STOP`] shuts the helpers down.
    epoch: AtomicUsize,
    /// Slots finished so far, over all rounds.
    done: AtomicUsize,
    /// The lowest-indexed step panic of the current round.
    first_panic: Mutex<Option<SlotPanic>>,
}

/// One slot of a [`Barrier`], on a cache line of its own so that
/// stepping home slots leaves other workers' lines alone.
#[repr(align(128))]
struct Seat<'s, T, R> {
    /// The last round in which a worker claimed the slot.
    round: AtomicUsize,
    lent: Mutex<Lent<'s, T, R>>,
}

/// A lent slot and the report of its latest step (`None` once taken,
/// and after a step that panicked).
struct Lent<'s, T, R> {
    slot: &'s mut T,
    report: Option<R>,
}

impl<T, P: Copy, R> Barrier<'_, T, P, R> {
    /// Waits until the epoch moves past `seen` and returns it: a short
    /// spin, then parking (the caller unparks every helper per round).
    fn next_epoch(&self, seen: usize) -> usize {
        for _ in 0..SPIN_BUDGET {
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch != seen {
                return epoch;
            }
            std::hint::spin_loop();
        }
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch != seen {
                return epoch;
            }
            std::thread::park();
        }
    }

    /// Worker `worker`'s share of `round`: its home slots in order, then
    /// every other block from its far end, stepping each slot it claims.
    fn work<S: Fn(P, usize, &mut T) -> R>(&self, worker: usize, round: usize, step: &S) {
        let plan = *lock(&self.plan);
        let n = self.seats.len();
        let home = worker * n / self.workers..(worker + 1) * n / self.workers;
        let others = (home.end..n).rev().chain((0..home.start).rev());
        let stepped = home
            .chain(others)
            .filter(|&i| self.claim_and_step(i, round, plan, step))
            .count();
        if stepped > 0 {
            self.done.fetch_add(stepped, Ordering::Release);
        }
    }

    /// Steps slot `i` if no worker has claimed it in `round` yet; returns
    /// whether this worker did.
    fn claim_and_step<S: Fn(P, usize, &mut T) -> R>(
        &self,
        i: usize,
        round: usize,
        plan: P,
        step: &S,
    ) -> bool {
        let seat = &self.seats[i];
        // The plain load keeps a claimed seat's cache line shared instead
        // of taking it from its owner for a compare-exchange bound to fail.
        if seat.round.load(Ordering::Relaxed) != round - 1
            || seat
                .round
                .compare_exchange(round - 1, round, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return false;
        }
        let mut lent = lock(&seat.lent);
        let lent = &mut *lent;
        match catch_unwind(AssertUnwindSafe(|| step(plan, i, lent.slot))) {
            Ok(report) => lent.report = Some(report),
            Err(payload) => {
                let mut first_panic = lock(&self.first_panic);
                if first_panic.as_ref().is_none_or(|&(j, _)| i < j) {
                    *first_panic = Some((i, payload));
                }
            }
        }
        true
    }

    /// Waits (the caller) until every slot of `round` has been stepped:
    /// a short spin, then yielding.
    fn wait_done(&self, round: usize) {
        let quota = round * self.seats.len();
        let mut spins = 0;
        while self.done.load(Ordering::Acquire) < quota {
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// The helper threads of one [`WorkerPool::rounds`] call; publishes
/// [`STOP`] and wakes every helper when dropped.
struct StopOnDrop<'a> {
    epoch: &'a AtomicUsize,
    threads: Vec<Thread>,
}

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.epoch.store(STOP, Ordering::Release);
        for helper in &self.threads {
            helper.unpark();
        }
    }
}

/// Locks a mutex, ignoring poisoning. Every critical section in this
/// crate is a single push, assignment or take, or (a `rounds` seat) wraps
/// the step in `catch_unwind`, so the data is whole whenever a panic
/// could have poisoned it.
fn lock<M>(mutex: &Mutex<M>) -> MutexGuard<'_, M> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ordered_map_over_many_items() {
        let items: Vec<u64> = (0..257).collect();
        let out = WorkerPool::new(8).map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(WorkerPool::new(4).map(&empty, |_, &x| x).is_empty());
        assert_eq!(WorkerPool::new(4).map(&[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = WorkerPool::new(0);
    }

    /// A toy windowed engine over `rounds`: every round each slot seats
    /// what its left neighbour posted in the round before, mixes in the
    /// round number (the plan) and posts its value to its right neighbour
    /// through two inbox generations. The slots and every report must be
    /// identical at every worker count (inline path included).
    fn toy_rounds(workers: usize) -> (Vec<u64>, Vec<u64>) {
        const N: usize = 5;
        let mut slots: Vec<u64> = (0..N as u64).collect();
        let inboxes: Vec<[Mutex<u64>; 2]> = (0..N).map(|_| Default::default()).collect();
        let mut reports = Vec::new();
        WorkerPool::new(workers).rounds(
            &mut slots,
            1u64,
            |round| {
                reports.extend_from_slice(round);
                let rounds_run = (reports.len() / N) as u64;
                (rounds_run < 5).then_some(rounds_run + 1)
            },
            |round, i, slot| {
                let (post, seat) = (round as usize % 2, (round as usize + 1) % 2);
                *slot += std::mem::take(&mut *lock(&inboxes[i][seat]));
                *slot = slot.wrapping_mul(3) + round * (i as u64 + 1);
                *lock(&inboxes[(i + 1) % N][post]) += *slot;
                *slot
            },
        );
        (slots, reports)
    }

    #[test]
    fn rounds_worker_count_is_unobservable() {
        let reference = toy_rounds(1);
        assert_eq!(reference.1.len(), 25);
        for workers in [2, 3, 7] {
            assert_eq!(toy_rounds(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn rounds_control_sees_reports_in_slot_order_every_round() {
        let mut slots: Vec<(usize, u32)> = (0..9).map(|i| (i, 0)).collect();
        let mut rounds_run = 0;
        WorkerPool::new(4).rounds(
            &mut slots,
            (),
            |reports| {
                rounds_run += 1;
                assert_eq!(reports.len(), 9);
                for (i, &(slot, steps)) in reports.iter().enumerate() {
                    assert_eq!(slot, i, "report order after round {rounds_run}");
                    assert_eq!(steps, rounds_run);
                }
                (rounds_run < 4).then_some(())
            },
            |(), _, slot| {
                slot.1 += 1;
                *slot
            },
        );
        assert_eq!(rounds_run, 4);
        assert!(slots.iter().all(|&(_, steps)| steps == 4));
    }

    #[test]
    fn rounds_propagates_the_lowest_step_panic() {
        let mut slots = vec![0u32, 1, 2, 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::new(3).rounds(
                &mut slots,
                (),
                |_| Some(()),
                |(), i, _| assert!(i % 2 == 0, "boom at {i}"),
            );
        }));
        let payload = result.expect_err("step panic must propagate");
        assert_eq!(panic_message(&*payload), "boom at 1");
    }

    /// Runs `f` on its own thread and returns its result, failing the
    /// test (instead of hanging it) if the barrier deadlocks.
    fn within_timeout<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("rounds deadlocked instead of returning")
    }

    fn panic_message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn rounds_control_panic_stops_parked_helpers() {
        let message = within_timeout(|| {
            let mut slots = vec![0u32; 6];
            let mut round = 0;
            let result = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(3).rounds(
                    &mut slots,
                    (),
                    |_| {
                        round += 1;
                        if round == 3 {
                            // Long enough for both helpers to exhaust their
                            // spin budget and park on the epoch.
                            std::thread::sleep(Duration::from_millis(20));
                            panic!("control failed on round 3");
                        }
                        Some(())
                    },
                    |(), _, slot| *slot += 1,
                );
            }));
            panic_message(&*result.expect_err("control panic must propagate"))
        });
        assert_eq!(message, "control failed on round 3");
    }

    #[test]
    fn rounds_propagates_step_panic_on_the_calling_thread() {
        let message = within_timeout(|| {
            let caller = std::thread::current().id();
            // Both slots meet at the rendezvous, so the caller and the
            // helper each step exactly one of them.
            let rendezvous = std::sync::Barrier::new(2);
            let mut slots = [0u32; 2];
            let result = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(2).rounds(
                    &mut slots,
                    (),
                    |_| Some(()),
                    |(), i, _| {
                        rendezvous.wait();
                        assert!(
                            std::thread::current().id() != caller,
                            "caller stepped slot {i}"
                        );
                    },
                );
            }));
            panic_message(&*result.expect_err("caller step panic must propagate"))
        });
        assert!(message.starts_with("caller stepped slot"), "{message}");
    }

    #[test]
    fn rounds_wake_parked_helpers_every_round() {
        within_timeout(|| {
            // Each control phase outlasts the spin budget, so the helper
            // is parked when a round opens. Both slots meet at the
            // rendezvous, so no round can finish unless the caller wakes
            // the helper to step the second one.
            let rendezvous = std::sync::Barrier::new(2);
            let mut slots = [0u32; 2];
            let mut round = 0;
            WorkerPool::new(2).rounds(
                &mut slots,
                (),
                |_| {
                    std::thread::sleep(Duration::from_millis(2));
                    round += 1;
                    (round < 30).then_some(())
                },
                |(), _, slot| {
                    rendezvous.wait();
                    *slot += 1;
                },
            );
            assert_eq!(slots, [30, 30]);
        });
    }

    /// 3 slots on 2 workers: the caller is the home of slot 0, the helper
    /// of slots 1 and 2. In the first round slot 0's step waits until
    /// slot 1's has started, so the helper starts slot 1, and slot 1's
    /// step waits until slot 2 has been stepped. The helper is then stuck
    /// before its second home slot: only the caller's claim of that
    /// unstarted slot can finish the round.
    #[test]
    fn rounds_steal_a_blocked_helpers_slots() {
        let (slots, stolen) = within_timeout(|| {
            let caller = std::thread::current().id();
            let started_1 = AtomicBool::new(false);
            let stepped_2 = AtomicBool::new(false);
            let wait_for = |flag: &AtomicBool| {
                while !flag.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            };
            let mut slots = [0u32; 3];
            let (mut round, mut stolen) = (0, false);
            WorkerPool::new(2).rounds(
                &mut slots,
                (),
                |reports| {
                    stolen |= reports[2];
                    round += 1;
                    (round < 3).then_some(())
                },
                // Reports whether this was slot 2's first step, taken on
                // the caller's thread.
                |(), i, slot| {
                    *slot += 1;
                    if *slot > 1 {
                        return false;
                    }
                    match i {
                        0 => wait_for(&started_1),
                        1 => {
                            started_1.store(true, Ordering::Release);
                            wait_for(&stepped_2);
                        }
                        _ => {
                            stepped_2.store(true, Ordering::Release);
                            return std::thread::current().id() == caller;
                        }
                    }
                    false
                },
            );
            (slots, stolen)
        });
        assert_eq!(slots, [3, 3, 3]);
        assert!(stolen, "the caller did not step the helper's slot 2");
    }

    /// 10 000 rounds × 8 slots through a step that no lost, repeated or
    /// misrouted slot, nor a stale plan, leaves unnoticed; every 64th
    /// control phase sleeps so the helpers park and must be woken.
    fn stress_rounds(workers: usize) -> (Vec<u64>, u64) {
        let mut slots: Vec<u64> = (0..8).collect();
        let mut digest = 0u64;
        WorkerPool::new(workers).rounds(
            &mut slots,
            1u64,
            |reports| {
                let &(round, _) = reports.first().expect("a report per slot");
                for &(_, slot) in reports {
                    digest = digest.rotate_left(5) ^ slot;
                }
                if round % 64 == 63 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                (round < 10_000).then_some(round + 1)
            },
            |round, i, slot| {
                *slot = slot
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(round << 3 | i as u64);
                (round, *slot)
            },
        );
        (slots, digest)
    }

    #[test]
    fn rounds_stress_matches_the_inline_run() {
        let reference = stress_rounds(1);
        for workers in [2, 3, 8] {
            let got = within_timeout(move || stress_rounds(workers));
            assert_eq!(got, reference, "workers={workers}");
        }
    }
}
