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
//! joins as a worker: helpers claim slots off an atomic ticket counter,
//! wait between rounds on an epoch counter (a short fixed spin, then
//! `park`), and nothing crosses a channel or allocates per round —
//! a round costs a few atomic operations plus, when a helper has
//! parked, one unpark.
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
//! - **Fixed workers, shared queue.** `threads` workers pull indices off
//!   an atomic counter; tasks ≫ workers oversubscribe gracefully.
//!
//! Thread count comes from the `CROSSROADS_THREADS` environment variable
//! (see [`threads_from_env`]); the default is the machine's available
//! parallelism, and `CROSSROADS_THREADS=1` forces sequential execution.
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

/// The environment variable overriding the worker count.
pub const THREADS_ENV: &str = "CROSSROADS_THREADS";

/// Worker count from `CROSSROADS_THREADS`, defaulting to the machine's
/// available parallelism (1 if that cannot be determined). Values that
/// fail to parse, or parse to zero, fall back to the default.
#[must_use]
pub fn threads_from_env() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(default_threads)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

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

    /// A pool sized by [`threads_from_env`].
    #[must_use]
    pub fn from_env() -> Self {
        WorkerPool::new(threads_from_env())
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
    /// The loop alternates two phases until `control` returns `false`:
    ///
    /// 1. **Control (exclusive).** `control` runs on the calling thread
    ///    with mutable access to every slot (in input order) — this is
    ///    where a windowed engine exchanges handoffs between shards and
    ///    computes the next barrier. Returning `false` ends the call.
    /// 2. **Round (parallel).** `step(i, &mut slot_i)` runs for every
    ///    slot, distributed over the workers.
    ///
    /// The call spawns `min(workers, slots) − 1` helper threads once, in
    /// one [`std::thread::scope`]; the calling thread is the remaining
    /// worker. Before a round the caller lends each slot to its own
    /// uncontended mutex cell and publishes the round on an epoch
    /// counter. Workers claim slots off a shared ticket counter, so no
    /// slot is ever aliased, and the caller claims alongside them until
    /// the round's done counter reaches the slot count; then it takes the
    /// slots back for the next control phase. Between rounds helpers spin
    /// on the epoch for a short fixed budget of `spin_loop` hints, then
    /// park until the caller unparks them; the caller spins on the done
    /// counter for the same budget, then yields. No allocation happens
    /// per round.
    ///
    /// Determinism: each `step` owns its slot exclusively and the control
    /// phase always observes slots in input order, so as long as `step`
    /// is a pure function of its slot the outcome is independent of the
    /// worker count — one worker (or one slot) degenerates to the same
    /// control/step sequence run inline.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic (by slot index) raised inside `step` in
    /// the round that observed it, once every slot of that round has
    /// finished, and re-raises a panic raised inside `control`. Either
    /// way every helper is stopped and joined first.
    pub fn rounds<T, C, S>(&self, slots: &mut [T], mut control: C, step: S)
    where
        T: Send,
        C: FnMut(&mut [&mut T]) -> bool,
        S: Fn(usize, &mut T) + Sync,
    {
        let mut refs: Vec<&mut T> = slots.iter_mut().collect();
        let n = refs.len();
        if self.threads == 1 || n <= 1 {
            while control(&mut refs) {
                for (i, slot) in refs.iter_mut().enumerate() {
                    step(i, slot);
                }
            }
            return;
        }
        let barrier = Barrier {
            cells: (0..n).map(|_| Mutex::new(None)).collect(),
            epoch: AtomicUsize::new(0),
            tickets: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            first_panic: Mutex::new(None),
        };
        let (barrier, step) = (&barrier, &step);
        std::thread::scope(|scope| {
            // Dropped on every exit path — a panic in `control` included —
            // so no helper is left parked when the scope joins them.
            let mut helpers = StopOnDrop {
                epoch: &barrier.epoch,
                threads: Vec::with_capacity(self.threads.min(n) - 1),
            };
            for _ in 1..self.threads.min(n) {
                let handle = scope.spawn(move || {
                    let mut seen = 0;
                    loop {
                        seen = barrier.next_epoch(seen);
                        if seen == STOP {
                            break;
                        }
                        barrier.work(seen, step);
                    }
                });
                helpers.threads.push(handle.thread().clone());
            }
            let mut round = 0;
            while control(&mut refs) {
                for (cell, slot) in barrier.cells.iter().zip(refs.drain(..)) {
                    *lock(cell) = Some(slot);
                }
                round += 1;
                barrier.epoch.store(round, Ordering::Release);
                for helper in &helpers.threads {
                    helper.unpark();
                }
                barrier.work(round, step);
                let mut spins = 0;
                while barrier.done.load(Ordering::Acquire) < round * n {
                    if spins < SPIN_BUDGET {
                        std::hint::spin_loop();
                        spins += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
                if let Some((_, payload)) = lock(&barrier.first_panic).take() {
                    resume_unwind(payload);
                }
                refs.extend(
                    barrier
                        .cells
                        .iter()
                        .map(|cell| lock(cell).take().expect("every slot comes back")),
                );
            }
        });
    }
}

/// Spin-loop hints a waiting [`WorkerPool::rounds`] worker issues before
/// it blocks: helpers then park, the caller yields. Short on purpose —
/// on an oversubscribed host a long spin steals the core from the very
/// thread being waited for.
const SPIN_BUDGET: u32 = 256;

/// Epoch value that tells the helpers of [`WorkerPool::rounds`] to exit.
const STOP: usize = usize::MAX;

/// A panic payload tagged with the slot index that raised it.
type SlotPanic = (usize, Box<dyn Any + Send>);

/// The shared state of one [`WorkerPool::rounds`] call.
///
/// Round `r` (numbered from 1) owns the tickets `(r − 1)·n .. r·n` and is
/// complete once `done` reaches `r·n`. Both counters are cumulative, so a
/// helper still draining round `r` after the caller opened round `r + 1`
/// sees its own bound exhausted and cannot steal a newer ticket.
///
/// Orderings: the caller's `Release` store of `epoch` pairs with the
/// helpers' `Acquire` loads, and each worker's `Release` increment of
/// `done` with the caller's `Acquire` load, so a round starts after the
/// control phase and the control phase after the round. Slot data itself
/// passes through the cell mutexes; `tickets` publishes nothing and is
/// `Relaxed`.
struct Barrier<'s, T> {
    /// Slot `i`, lent by the caller for the duration of a round.
    cells: Vec<Mutex<Option<&'s mut T>>>,
    /// The open round; [`STOP`] shuts the helpers down.
    epoch: AtomicUsize,
    /// Tickets claimed so far, over all rounds.
    tickets: AtomicUsize,
    /// Slots finished so far, over all rounds.
    done: AtomicUsize,
    /// The lowest-indexed step panic of the current round.
    first_panic: Mutex<Option<SlotPanic>>,
}

impl<T> Barrier<'_, T> {
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

    /// Claims and steps slots of `round` until its tickets run out.
    fn work<S: Fn(usize, &mut T)>(&self, round: usize, step: &S) {
        let n = self.cells.len();
        let (first, end) = ((round - 1) * n, round * n);
        let mut ticket = self.tickets.load(Ordering::Relaxed);
        while ticket < end {
            if let Err(now) = self.tickets.compare_exchange_weak(
                ticket,
                ticket + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                ticket = now;
                continue;
            }
            let i = ticket - first;
            let out = {
                let mut cell = lock(&self.cells[i]);
                let slot = cell.as_deref_mut().expect("slot lent for the round");
                catch_unwind(AssertUnwindSafe(|| step(i, slot)))
            };
            if let Err(payload) = out {
                let mut first_panic = lock(&self.first_panic);
                if first_panic.as_ref().is_none_or(|&(j, _)| i < j) {
                    *first_panic = Some((i, payload));
                }
            }
            self.done.fetch_add(1, Ordering::Release);
            ticket = self.tickets.load(Ordering::Relaxed);
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
/// crate is a single push or assignment, or (a `rounds` cell) wraps the
/// step in `catch_unwind`, so the data is whole whenever a panic could
/// have poisoned it.
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

    /// A toy windowed engine over `rounds`: every round each slot adds
    /// its round number, the control phase exchanges the ends. The result
    /// must be identical at every worker count (inline path included).
    fn toy_rounds(workers: usize) -> Vec<u64> {
        let mut slots: Vec<u64> = (0..5).collect();
        let round = std::sync::atomic::AtomicU64::new(0);
        WorkerPool::new(workers).rounds(
            &mut slots,
            |slots| {
                if round.load(Ordering::Relaxed) > 0 {
                    let last = slots.len() - 1;
                    let (a, b) = (*slots[0], *slots[last]);
                    *slots[0] = b;
                    *slots[last] = a;
                }
                round.fetch_add(1, Ordering::Relaxed) < 4
            },
            |i, slot| *slot += round.load(Ordering::Relaxed) * (i as u64 + 1),
        );
        slots
    }

    #[test]
    fn rounds_worker_count_is_unobservable() {
        let reference = toy_rounds(1);
        for workers in [2, 3, 7] {
            assert_eq!(toy_rounds(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn rounds_control_sees_slots_in_input_order_every_round() {
        let mut slots: Vec<(usize, u32)> = (0..9).map(|i| (i, 0)).collect();
        let mut rounds_run = 0;
        WorkerPool::new(4).rounds(
            &mut slots,
            |slots| {
                for (i, slot) in slots.iter().enumerate() {
                    assert_eq!(slot.0, i, "control order after round {rounds_run}");
                    assert_eq!(slot.1, rounds_run);
                }
                rounds_run += 1;
                rounds_run <= 3
            },
            |_, slot| slot.1 += 1,
        );
        assert_eq!(rounds_run, 4);
    }

    #[test]
    fn rounds_propagates_step_panics() {
        let mut slots = vec![0u32, 1, 2, 3];
        let result = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::new(3).rounds(&mut slots, |_| true, |i, _| assert!(i != 2, "boom at {i}"));
        }));
        assert!(result.is_err(), "step panic must propagate");
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
                    |_| {
                        round += 1;
                        if round == 3 {
                            // Long enough for both helpers to exhaust their
                            // spin budget and park on the epoch.
                            std::thread::sleep(Duration::from_millis(20));
                            panic!("control failed on round 3");
                        }
                        true
                    },
                    |_, slot| *slot += 1,
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
                    |_| true,
                    |i, _| {
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
                |_| {
                    std::thread::sleep(Duration::from_millis(2));
                    round += 1;
                    round <= 30
                },
                |_, slot| {
                    rendezvous.wait();
                    *slot += 1;
                },
            );
            assert_eq!(slots, [30, 30]);
        });
    }

    /// 10 000 rounds × 8 slots through a step that no lost, repeated or
    /// misrouted slot leaves unnoticed; every 64th control phase sleeps
    /// so the helpers park and must be woken.
    fn stress_rounds(workers: usize) -> (Vec<u64>, u64) {
        let mut slots: Vec<u64> = (0..8).collect();
        let round = std::sync::atomic::AtomicU64::new(0);
        let mut digest = 0u64;
        WorkerPool::new(workers).rounds(
            &mut slots,
            |slots| {
                for slot in slots.iter() {
                    digest = digest.rotate_left(5) ^ **slot;
                }
                let r = round.fetch_add(1, Ordering::Relaxed);
                if r % 64 == 63 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                r < 10_000
            },
            |i, slot| {
                let r = round.load(Ordering::Relaxed);
                *slot = slot
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(r << 3 | i as u64);
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
