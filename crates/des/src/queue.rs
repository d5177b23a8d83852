//! The time-ordered event queue.
//!
//! A binary min-heap of `(time, seq, slot)` keys over a slab of
//! payloads: the heap orders small keys, and each payload is written
//! once into a reusable slot and moved out once when it pops. Nothing
//! withdraws a queued event. The simulator lets a superseded event fire
//! and die on its own guard (a plan version, a request attempt, an IM
//! epoch), so the queue serves schedule, peek and a bounded pop.
//!
//! A run's start schedule can bypass the heap: [`EventQueue::with_prologue`]
//! writes those events into the slab and keeps their slots in a
//! time-sorted list that every pop merges with the heap root. The heap
//! then holds only the events scheduled while the run is under way —
//! about a hundred live at once in the simulator, against tens of
//! thousands of start events.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crossroads_units::TimePoint;

/// Where an event waits: its time, its global schedule order and the
/// slab slot holding its payload.
///
/// Keys order by time under `total_cmp`, then by `seq` (FIFO on ties).
/// Sequence numbers are unique within a queue, so this is a strict total
/// order: `total_cmp` keeps it total on every bit pattern (`schedule`
/// rejects non-finite timestamps, so the only wrinkle left is IEEE
/// `-0.0 < +0.0`), and no two keys compare equal.
#[derive(Clone, Copy)]
struct Key {
    at: TimePoint,
    seq: u64,
    slot: u32,
}

// The heap's sift loops are compiled in the crate that names the payload
// type; `#[inline]` lets them inline these comparisons there instead of
// calling across the crate boundary on every step.
impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.total_cmp(other.at).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// How far a bounded pop (and so a run) may reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Every event.
    Unbounded,
    /// Events at or before the instant: an inclusive horizon.
    Through(TimePoint),
    /// Events strictly before the instant: the end of a half-open
    /// window `[t0, end)`.
    Before(TimePoint),
}

impl Bound {
    fn admits(self, at: TimePoint) -> bool {
        match self {
            Bound::Unbounded => true,
            Bound::Through(horizon) => at <= horizon,
            Bound::Before(end) => at < end,
        }
    }
}

/// Result of [`EventQueue::pop_within`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popped<E> {
    /// The earliest event, inside the bound.
    Event(TimePoint, E),
    /// The earliest event lies outside the bound; it stays queued and
    /// its timestamp is reported.
    Beyond(TimePoint),
    /// No events remain.
    Empty,
}

/// A slab slot; `None` marks a vacant slot, listed in `free`.
///
/// `at` is read only while the slot holds a prologue event. Keeping it
/// here lets `with_prologue` collect the start schedule into the slab
/// alone: building a key list alongside would grow two vectors in turn,
/// and the allocator keeps what each move leaves behind (perfbench peak
/// RSS rose 2% on `mixed` and 5% on `corridor-w2`).
struct Slot<E> {
    at: TimePoint,
    payload: Option<E>,
}

/// A deterministic priority queue of timestamped events.
///
/// Events pop in nondecreasing time order; ties pop in insertion order.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Slots of the prologue's events in pop order; the entries before
    /// `prologue_next` have popped. A prologue event's slot is its `seq`.
    prologue: Vec<u32>,
    prologue_next: usize,
    slots: Vec<Slot<E>>,
    /// Vacant slots, for `schedule` to reuse.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_prologue([])
    }

    /// Creates a queue holding `events`, as if each were passed to
    /// [`schedule`](Self::schedule) in iteration order, but kept out of
    /// the heap.
    ///
    /// The events are written straight into the slab, and a stable sort
    /// by time puts their slots in pop order. Every pop compares the
    /// head of that list with the heap root by `(time, seq)`. The
    /// prologue holds the queue's lowest sequence numbers, so a time tie
    /// with a later-scheduled event goes to the prologue, exactly as the
    /// heap would order it: pop order and lengths are those of scheduling
    /// every event up front. A popped prologue slot is reused by later
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if a timestamp is NaN or infinite, as `schedule` does.
    #[must_use]
    pub fn with_prologue(events: impl IntoIterator<Item = (TimePoint, E)>) -> Self {
        let slots: Vec<Slot<E>> = events
            .into_iter()
            .map(|(at, payload)| {
                assert!(at.is_finite(), "event timestamp must be finite, got {at}");
                Slot {
                    at,
                    payload: Some(payload),
                }
            })
            .collect();
        let len = u32::try_from(slots.len()).expect("fewer than 2^32 live events");
        let mut prologue: Vec<u32> = (0..len).collect();
        prologue.sort_by(|&a, &b| slots[a as usize].at.total_cmp(slots[b as usize].at));
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: u64::from(len),
            prologue,
            prologue_next: 0,
            slots,
            free: Vec::new(),
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or infinite: a non-finite timestamp would
    /// corrupt the queue's total order.
    pub fn schedule(&mut self, at: TimePoint, payload: E) {
        assert!(at.is_finite(), "event timestamp must be finite, got {at}");
        let filled = Slot {
            at,
            payload: Some(payload),
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = filled;
            slot
        } else {
            self.slots.push(filled);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 live events")
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Key { at, seq, slot }));
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(TimePoint, E)> {
        match self.pop_within(Bound::Unbounded) {
            Popped::Event(at, payload) => Some((at, payload)),
            Popped::Beyond(_) | Popped::Empty => None,
        }
    }

    /// Pops the earliest event if `bound` admits its time; otherwise it
    /// stays queued and is reported as [`Popped::Beyond`]. One traversal
    /// serves the run loop's peek-then-pop.
    pub fn pop_within(&mut self, bound: Bound) -> Popped<E> {
        let Some(key) = self.head() else {
            return Popped::Empty;
        };
        if !bound.admits(key.at) {
            return Popped::Beyond(key.at);
        }
        if self.prologue.get(self.prologue_next) == Some(&key.slot) {
            self.prologue_next += 1;
        } else {
            self.heap.pop();
        }
        let payload = self.slots[key.slot as usize].payload.take();
        self.free.push(key.slot);
        Popped::Event(key.at, payload.expect("queued slots are occupied"))
    }

    /// Timestamp of the next event without removing it. O(1).
    #[must_use]
    pub fn peek_time(&self) -> Option<TimePoint> {
        self.head().map(|key| key.at)
    }

    /// Whether no events remain. O(1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.prologue_next == self.prologue.len()
    }

    /// Number of queued events, in the heap and the prologue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.prologue.len() - self.prologue_next
    }

    /// The earliest of the prologue's head and the heap root.
    fn head(&self) -> Option<Key> {
        let prologue = self.prologue.get(self.prologue_next).map(|&slot| Key {
            at: self.slots[slot as usize].at,
            seq: u64::from(slot),
            slot,
        });
        let heap = self.heap.peek().map(|&Reverse(key)| key);
        match (prologue, heap) {
            (Some(p), Some(h)) => Some(p.min(h)),
            (p, h) => p.or(h),
        }
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> TimePoint {
        TimePoint::new(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 'c');
        q.schedule(t(1.0), 'a');
        q.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_timestamp_panics() {
        let mut q = EventQueue::new();
        q.schedule(TimePoint::new(f64::NAN), ());
    }

    #[test]
    fn len_tracks_activity() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(5.0), 5);
        q.schedule(t(1.0), 1);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        q.schedule(t(3.0), 3);
        q.schedule(t(2.0), 2);
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert_eq!(q.pop(), Some((t(3.0), 3)));
        assert_eq!(q.pop(), Some((t(5.0), 5)));
    }

    #[test]
    fn through_bound_defers_past_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        q.schedule(t(3.0), "b");
        let horizon = Bound::Through(t(2.0));
        assert_eq!(q.pop_within(horizon), Popped::Event(t(1.0), "a"));
        assert_eq!(q.pop_within(horizon), Popped::Beyond(t(3.0)));
        // The deferred event is untouched.
        assert_eq!(q.pop_within(Bound::Unbounded), Popped::Event(t(3.0), "b"));
        assert_eq!(q.pop_within(horizon), Popped::Empty);
    }

    #[test]
    fn through_bound_takes_events_exactly_at_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), ());
        assert_eq!(
            q.pop_within(Bound::Through(t(2.0))),
            Popped::Event(t(2.0), ())
        );
    }

    #[test]
    fn before_bound_excludes_the_limit_instant() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        let end = Bound::Before(t(2.0));
        assert_eq!(q.pop_within(end), Popped::Event(t(1.0), "a"));
        // An event exactly at the limit is *deferred* — the half-open
        // window contract the inclusive horizon does not give.
        assert_eq!(q.pop_within(end), Popped::Beyond(t(2.0)));
        assert_eq!(
            q.pop_within(Bound::Before(t(2.0 + 1e-9))),
            Popped::Event(t(2.0), "b")
        );
        assert_eq!(q.pop_within(Bound::Before(t(10.0))), Popped::Empty);
    }

    #[test]
    fn before_bound_preserves_fifo_ties_inside_the_window() {
        let mut q = EventQueue::new();
        for i in 0..8u32 {
            q.schedule(t(1.0), i);
        }
        for i in 0..8u32 {
            assert_eq!(
                q.pop_within(Bound::Before(t(2.0))),
                Popped::Event(t(1.0), i)
            );
        }
    }

    #[test]
    fn popped_prologue_slots_are_reused() {
        let mut q = EventQueue::with_prologue((0..64).map(|i| (t(f64::from(i)), i)));
        assert_eq!(q.slots.len(), 64);
        // Each pop frees a slot and each schedule takes one back, so while
        // no more events are live than the prologue held, the slab does
        // not grow.
        for i in 0..1000 {
            let (at, _) = q.pop().expect("the queue stays non-empty");
            q.schedule(at + crossroads_units::Seconds::new(0.5), 64 + i);
            if i % 3 == 0 {
                q.pop();
            }
            if q.len() < 64 {
                q.schedule(at + crossroads_units::Seconds::new(2.0), 2000 + i);
            }
            assert_eq!(q.len(), 64);
        }
        assert_eq!(q.slots.len(), 64);
    }

    #[test]
    fn debug_output_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
