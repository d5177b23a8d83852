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
//! ([`WorkerPool::rounds`]).
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
//!   sweep, never hangs it.
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

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

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
                    done.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((i, out));
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

    /// Bulk-synchronous rounds over mutable slots, with workers spawned
    /// once and reused across every round — the "shard step" shape of
    /// conservative windowed parallel DES.
    ///
    /// The loop alternates two phases until `control` returns `false`:
    ///
    /// 1. **Control (exclusive).** `control` runs on the calling thread
    ///    with mutable access to every slot (in input order) — this is
    ///    where a windowed engine exchanges handoffs between shards and
    ///    computes the next barrier. Returning `false` ends the call.
    /// 2. **Round (parallel).** `step(i, &mut slot_i)` runs for every
    ///    slot, distributed over the workers. Slots travel to workers as
    ///    `&mut` borrows over a channel, so no slot is ever aliased and
    ///    no `'static` bound is needed — the whole call lives inside one
    ///    [`std::thread::scope`].
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
    /// the round that observed it, after every slot of that round has
    /// been returned.
    pub fn rounds<T, C, S>(&self, slots: &mut [T], mut control: C, step: S)
    where
        T: Send,
        C: FnMut(&mut [&mut T]) -> bool,
        S: Fn(usize, &mut T) + Sync,
    {
        let mut refs: Vec<&mut T> = slots.iter_mut().collect();
        if self.threads == 1 || refs.len() <= 1 {
            while control(&mut refs) {
                for (i, slot) in refs.iter_mut().enumerate() {
                    step(i, slot);
                }
            }
            return;
        }
        let step = &step;
        std::thread::scope(|scope| {
            type Returned<'r, T> = (usize, &'r mut T, Option<Box<dyn std::any::Any + Send>>);
            let (task_tx, task_rx) = mpsc::channel::<(usize, &mut T)>();
            let task_rx = Arc::new(Mutex::new(task_rx));
            let (done_tx, done_rx) = mpsc::channel::<Returned<'_, T>>();
            for _ in 0..self.threads.min(refs.len()) {
                let task_rx = Arc::clone(&task_rx);
                let done_tx = done_tx.clone();
                scope.spawn(move || loop {
                    // Workers park on the channel between rounds; the
                    // coordinator dropping the sender is the shutdown.
                    let msg = task_rx
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .recv();
                    let Ok((i, slot)) = msg else { break };
                    let out = catch_unwind(AssertUnwindSafe(|| step(i, &mut *slot)));
                    // The slot ref travels back even when the step
                    // panicked, so the control phase never loses a shard.
                    let _ = done_tx.send((i, slot, out.err()));
                });
            }
            drop(done_tx);
            while control(&mut refs) {
                let n = refs.len();
                for pair in refs.drain(..).enumerate() {
                    task_tx.send(pair).expect("workers outlive the rounds");
                }
                let mut returned: Vec<Option<&mut T>> = (0..n).map(|_| None).collect();
                let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
                for _ in 0..n {
                    let (i, slot, panic) = done_rx.recv().expect("every slot comes back");
                    returned[i] = Some(slot);
                    if let Some(p) = panic {
                        if first_panic.as_ref().is_none_or(|&(j, _)| i < j) {
                            first_panic = Some((i, p));
                        }
                    }
                }
                if let Some((_, payload)) = first_panic {
                    drop(task_tx);
                    resume_unwind(payload);
                }
                refs.extend(
                    returned
                        .into_iter()
                        .map(|s| s.expect("every index returned exactly once")),
                );
            }
            drop(task_tx);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
