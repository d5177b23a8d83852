//! The time-ordered event queue.
//!
//! A slab-backed *indexed* binary min-heap: every scheduled event lives in
//! a reusable slot, and the heap stores slot indices while each slot
//! tracks its own heap position. That position index is what makes
//! cancellation **eager** — `cancel` swap-removes the entry and re-sifts
//! in O(log n), so the heap never carries tombstones and `peek_time` /
//! `is_empty` are O(1) reads on `&self` (the seed implementation reaped
//! lazily and needed `&mut self` for both).
//!
//! A run's start schedule can bypass the heap: [`EventQueue::with_prologue`]
//! writes those events into the slab and keeps their slot indices in a
//! time-sorted list that every pop merges with the heap root. The heap
//! then holds only the events scheduled while the run is under way —
//! about a hundred live at once in the simulator, against tens of
//! thousands of start events.

use std::cmp::Ordering;

use crossroads_units::TimePoint;

/// Vacant-slot sentinel for the intrusive free list.
const NIL: u32 = u32::MAX;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Packs the event's slot index and a generation tag; slots are recycled,
/// so the generation is what keeps a stale handle from cancelling a later
/// event that happens to reuse the same slot. Handles are unique within
/// one [`EventQueue`] for its whole lifetime (up to generation wrap at
/// 2³² reuses of a single slot, far beyond any simulated run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        {
            self.0 as u32
        }
    }

    fn generation(self) -> u32 {
        #[allow(clippy::cast_possible_truncation)]
        {
            (self.0 >> 32) as u32
        }
    }
}

struct Slot<E> {
    /// Bumped every time the slot is vacated, invalidating old handles.
    generation: u32,
    /// While occupied: this slot's index in `heap`, or [`NIL`] for a
    /// prologue event. While vacant: the next vacant slot (intrusive free
    /// list), or [`NIL`].
    pos: u32,
    at: TimePoint,
    /// Global schedule order; ties on `at` pop in `seq` order (FIFO).
    seq: u64,
    /// `Some` while the event is live; `None` marks the slot vacant.
    payload: Option<E>,
}

/// Result of [`EventQueue::pop_within`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popped<E> {
    /// The earliest event fired at or before the horizon.
    Event(TimePoint, E),
    /// The earliest event lies strictly beyond the horizon; it stays
    /// queued and its timestamp is reported.
    Beyond(TimePoint),
    /// No live events remain.
    Empty,
}

/// A deterministic, cancellable priority queue of timestamped events.
///
/// Events pop in nondecreasing time order; ties pop in insertion order.
/// Cancellation is eager: the entry is removed from the heap immediately
/// (O(log n)), so the queue never holds dead entries and every traversal
/// touches live events only.
pub struct EventQueue<E> {
    /// Slot indices, heap-ordered by the owning slot's `(at, seq)`.
    heap: Vec<u32>,
    slots: Vec<Slot<E>>,
    /// Slot indices of the prologue's events in `(at, seq)` order; the
    /// entries before `prologue_next` have popped.
    prologue: Vec<u32>,
    prologue_next: usize,
    /// Head of the vacant-slot free list threaded through `Slot::pos`.
    free_head: u32,
    next_seq: u64,
    scheduled_total: u64,
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
    /// by time puts their slot indices in pop order. Every pop compares
    /// the head of that list with the heap root by `(time, seq)`. The
    /// prologue holds the queue's lowest sequence numbers, so a time tie
    /// with a later-scheduled event goes to the prologue, exactly as the
    /// heap would order it: pop order, counters and lengths are those of
    /// scheduling every event up front. A popped prologue slot joins the
    /// free list for later events. Prologue events get no [`EventId`],
    /// so they cannot be cancelled.
    ///
    /// # Panics
    ///
    /// Panics if a timestamp is NaN or infinite, as `schedule` does.
    #[must_use]
    pub fn with_prologue(events: impl IntoIterator<Item = (TimePoint, E)>) -> Self {
        let slots: Vec<Slot<E>> = events
            .into_iter()
            .zip(0u64..)
            .map(|((at, payload), seq)| {
                assert!(at.is_finite(), "event timestamp must be finite, got {at}");
                Slot {
                    generation: 0,
                    pos: NIL,
                    at,
                    seq,
                    payload: Some(payload),
                }
            })
            .collect();
        let len = u32::try_from(slots.len()).expect("fewer than 2^32 live events");
        let mut prologue: Vec<u32> = (0..len).collect();
        prologue.sort_by(|&a, &b| slots[a as usize].at.total_cmp(slots[b as usize].at));
        EventQueue {
            heap: Vec::new(),
            slots,
            prologue,
            prologue_next: 0,
            free_head: NIL,
            next_seq: u64::from(len),
            scheduled_total: u64::from(len),
        }
    }

    /// Schedules `payload` to fire at absolute time `at`, returning a handle
    /// that can cancel it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or infinite: a non-finite timestamp would
    /// corrupt the queue's total order.
    pub fn schedule(&mut self, at: TimePoint, payload: E) -> EventId {
        assert!(at.is_finite(), "event timestamp must be finite, got {at}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let idx = if self.free_head == NIL {
            let idx = u32::try_from(self.slots.len()).expect("fewer than 2^32 live events");
            self.slots.push(Slot {
                generation: 0,
                pos: NIL,
                at,
                seq,
                payload: Some(payload),
            });
            idx
        } else {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.pos;
            slot.at = at;
            slot.seq = seq;
            slot.payload = Some(payload);
            idx
        };
        let pos = self.heap.len();
        self.heap.push(idx);
        self.slots[idx as usize].pos = u32::try_from(pos).expect("heap fits in u32");
        self.sift_up(pos);
        EventId::new(idx, self.slots[idx as usize].generation)
    }

    /// Cancels a previously scheduled event, removing it from the heap
    /// immediately. Returns `true` if the event had not yet fired or been
    /// cancelled. Cancelling an already-fired id is a harmless no-op
    /// returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let idx = id.slot();
        let Some(slot) = self.slots.get(idx as usize) else {
            return false;
        };
        if slot.generation != id.generation() || slot.payload.is_none() {
            return false;
        }
        let pos = slot.pos as usize;
        self.remove_at(pos);
        self.vacate(idx);
        true
    }

    /// Removes and returns the earliest live event, or `None` if the queue
    /// is empty.
    pub fn pop(&mut self) -> Option<(TimePoint, E)> {
        let (idx, in_prologue) = self.head()?;
        Some((self.slots[idx as usize].at, self.take(idx, in_prologue)))
    }

    /// Pops the earliest event if it fires at or before `horizon`
    /// (`None` means no horizon): the single-traversal form of
    /// peek-then-pop the run loop uses. A deferred event stays queued and
    /// is reported as [`Popped::Beyond`].
    pub fn pop_within(&mut self, horizon: Option<TimePoint>) -> Popped<E> {
        let Some((idx, in_prologue)) = self.head() else {
            return Popped::Empty;
        };
        let at = self.slots[idx as usize].at;
        if let Some(h) = horizon {
            if at > h {
                return Popped::Beyond(at);
            }
        }
        Popped::Event(at, self.take(idx, in_prologue))
    }

    /// Pops the earliest event if it fires *strictly before* `limit`; an
    /// event exactly at `limit` stays queued and is reported as
    /// [`Popped::Beyond`]. This is the window-bounded drain conservative
    /// parallel execution needs: windows are half-open `[t0, limit)`, so
    /// a cross-shard handoff landing exactly on a barrier is always
    /// scheduled into its target queue *before* the window that covers
    /// that instant runs (contrast [`pop_within`](Self::pop_within),
    /// whose horizon is inclusive).
    pub fn pop_before(&mut self, limit: TimePoint) -> Popped<E> {
        let Some((idx, in_prologue)) = self.head() else {
            return Popped::Empty;
        };
        let at = self.slots[idx as usize].at;
        if at >= limit {
            return Popped::Beyond(at);
        }
        Popped::Event(at, self.take(idx, in_prologue))
    }

    /// Timestamp of the next live event without removing it. O(1).
    #[must_use]
    pub fn peek_time(&self) -> Option<TimePoint> {
        self.head().map(|(idx, _)| self.slots[idx as usize].at)
    }

    /// Whether no live events remain. O(1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.prologue_next == self.prologue.len()
    }

    /// Number of live entries, in the heap and the prologue. Eager
    /// cancellation keeps no tombstones, so this is exact (the seed
    /// implementation counted unreaped cancelled entries too).
    #[must_use]
    pub fn raw_len(&self) -> usize {
        self.heap.len() + self.prologue.len() - self.prologue_next
    }

    /// Total number of events ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// The earliest live event's slot, and whether it heads the prologue
    /// rather than the heap. The two heads compare by the heap's own
    /// `(at, seq)` order.
    fn head(&self) -> Option<(u32, bool)> {
        match (self.prologue.get(self.prologue_next), self.heap.first()) {
            (Some(&p), Some(&h)) => Some(if self.before(h, p) {
                (h, false)
            } else {
                (p, true)
            }),
            (Some(&p), None) => Some((p, true)),
            (None, Some(&h)) => Some((h, false)),
            (None, None) => None,
        }
    }

    /// Removes the head event found by [`head`](Self::head) and returns
    /// its payload.
    fn take(&mut self, idx: u32, in_prologue: bool) -> E {
        if in_prologue {
            self.prologue_next += 1;
        } else {
            self.remove_at(0);
        }
        self.vacate(idx).expect("queued entries are occupied")
    }

    /// Frees a slot back to the free list, bumping its generation so any
    /// outstanding handle to the old occupant is invalidated.
    fn vacate(&mut self, idx: u32) -> Option<E> {
        let slot = &mut self.slots[idx as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.pos = self.free_head;
        self.free_head = idx;
        slot.payload.take()
    }

    /// Whether slot `a` orders strictly before slot `b`: earlier time,
    /// then earlier sequence number (FIFO on ties). Sequence numbers are
    /// unique, so this is a strict total order. `total_cmp` keeps the heap
    /// comparator total on every bit pattern — `schedule` already rejects
    /// non-finite timestamps, so the only behavioral wrinkle left is the
    /// IEEE `-0.0 < +0.0` ordering, which is exactly the consistent-order
    /// guarantee the heap needs.
    fn before(&self, a: u32, b: u32) -> bool {
        let (sa, sb) = (&self.slots[a as usize], &self.slots[b as usize]);
        match sa.at.total_cmp(sb.at) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => sa.seq < sb.seq,
        }
    }

    /// Writes `idx` at heap position `pos` and records the position in
    /// the slot — the invariant every sift step maintains.
    fn place(&mut self, pos: usize, idx: u32) {
        self.heap[pos] = idx;
        self.slots[idx as usize].pos = u32::try_from(pos).expect("heap fits in u32");
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.before(self.heap[pos], self.heap[parent]) {
                let (a, b) = (self.heap[pos], self.heap[parent]);
                self.place(pos, b);
                self.place(parent, a);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.before(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            if self.before(self.heap[child], self.heap[pos]) {
                let (a, b) = (self.heap[pos], self.heap[child]);
                self.place(pos, b);
                self.place(child, a);
                pos = child;
            } else {
                break;
            }
        }
    }

    /// Removes the heap entry at `pos` by swapping the tail in, then
    /// restoring heap order from `pos` (the replacement may need to move
    /// either direction). Does not touch the owning slot.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        if pos == last {
            self.heap.pop();
            return;
        }
        let tail = self.heap[last];
        self.heap.pop();
        self.place(pos, tail);
        self.sift_down(pos);
        self.sift_up(pos);
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.raw_len())
            .field("slots", &self.slots.len())
            .field("scheduled_total", &self.scheduled_total)
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
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let keep = q.schedule(t(1.0), "keep");
        let drop_ = q.schedule(t(0.5), "drop");
        assert!(q.cancel(drop_));
        assert_eq!(q.pop(), Some((t(1.0), "keep")));
        assert_eq!(q.pop(), None);
        // Cancelling after the fact is a no-op.
        assert!(!q.cancel(keep));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId::new(42, 0)));
    }

    #[test]
    fn double_cancel_is_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(t(1.0), ());
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn stale_handle_to_recycled_slot_is_false() {
        let mut q = EventQueue::new();
        let old = q.schedule(t(1.0), 1);
        q.pop();
        // The freed slot is recycled for the next schedule; the old handle
        // must not be able to cancel the new occupant.
        let new = q.schedule(t(2.0), 2);
        assert!(!q.cancel(old));
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert!(q.cancel(new));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let id = q.schedule(t(0.5), "x");
        q.schedule(t(1.0), "y");
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(t(1.0)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_timestamp_panics() {
        let mut q = EventQueue::new();
        q.schedule(TimePoint::new(f64::NAN), ());
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.raw_len(), 2);
        q.pop();
        assert_eq!(q.raw_len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn cancelled_entries_leave_the_heap_immediately() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t(f64::from(i)), i)).collect();
        for id in &ids[..9] {
            assert!(q.cancel(*id));
        }
        // Eager cancellation: no tombstones linger.
        assert_eq!(q.raw_len(), 1);
        assert_eq!(q.pop(), Some((t(9.0), 9)));
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
    fn pop_within_defers_past_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        q.schedule(t(3.0), "b");
        assert_eq!(q.pop_within(Some(t(2.0))), Popped::Event(t(1.0), "a"));
        assert_eq!(q.pop_within(Some(t(2.0))), Popped::Beyond(t(3.0)));
        // The deferred event is untouched.
        assert_eq!(q.pop_within(None), Popped::Event(t(3.0), "b"));
        assert_eq!(q.pop_within(Some(t(2.0))), Popped::Empty);
    }

    #[test]
    fn pop_within_takes_events_exactly_at_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), ());
        assert_eq!(q.pop_within(Some(t(2.0))), Popped::Event(t(2.0), ()));
    }

    #[test]
    fn pop_before_excludes_the_limit_instant() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop_before(t(2.0)), Popped::Event(t(1.0), "a"));
        // An event exactly at the limit is *deferred* — the half-open
        // window contract pop_within's inclusive horizon does not give.
        assert_eq!(q.pop_before(t(2.0)), Popped::Beyond(t(2.0)));
        assert_eq!(q.pop_before(t(2.0 + 1e-9)), Popped::Event(t(2.0), "b"));
        assert_eq!(q.pop_before(t(10.0)), Popped::Empty);
    }

    #[test]
    fn pop_before_preserves_fifo_ties_inside_the_window() {
        let mut q = EventQueue::new();
        for i in 0..8u32 {
            q.schedule(t(1.0), i);
        }
        for i in 0..8u32 {
            assert_eq!(q.pop_before(t(2.0)), Popped::Event(t(1.0), i));
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
            if q.raw_len() < 64 {
                q.schedule(at + crossroads_units::Seconds::new(2.0), 2000 + i);
            }
            assert_eq!(q.raw_len(), 64);
        }
        assert_eq!(q.slots.len(), 64);
    }

    #[test]
    fn debug_output_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
