//! The interval reservation table used by VT-IM and Crossroads.
//!
//! Each admitted vehicle holds one *occupancy window* `[enter, exit]` for
//! its movement; windows of conflicting movements must not overlap. The IM
//! processes requests FIFO (the paper's queue) and, for each, finds the
//! earliest window at or after the vehicle's earliest achievable arrival —
//! "a safe ToA is calculated based on \[the\] kinematic equation of vehicles
//! and the earliest arrival time assigned to the last entered vehicle".

use crossroads_units::{Seconds, TimePoint};
use crossroads_vehicle::VehicleId;

use crate::conflict::ConflictTable;
use crate::geometry::Movement;

/// One vehicle's occupancy window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reservation {
    /// Holder.
    pub vehicle: VehicleId,
    /// Movement the window covers.
    pub movement: Movement,
    /// Instant the (buffered) vehicle front enters the box.
    pub enter: TimePoint,
    /// Instant the (buffered) vehicle rear clears the box.
    pub exit: TimePoint,
}

impl Reservation {
    /// Whether two windows overlap in time. Windows are half-open
    /// `[enter, exit)`: a vehicle exiting at `t` and another entering at
    /// `t` do not overlap (the safety margin already lives *inside* the
    /// window via the buffered occupancy duration).
    #[must_use]
    pub fn overlaps(&self, other: &Reservation) -> bool {
        self.enter < other.exit && other.enter < self.exit
    }
}

/// Errors from [`ReservationTable`] operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// Insertion would overlap a conflicting reservation.
    Conflicts {
        /// The blocking holder.
        with: VehicleId,
    },
    /// The window is malformed (`exit < enter` or non-finite).
    InvalidWindow,
    /// The vehicle already holds a reservation.
    AlreadyReserved,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Conflicts { with } => write!(f, "window conflicts with {with}"),
            ScheduleError::InvalidWindow => write!(f, "invalid reservation window"),
            ScheduleError::AlreadyReserved => write!(f, "vehicle already holds a reservation"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The IM-side occupancy ledger.
///
/// # Examples
///
/// ```
/// use crossroads_intersection::{
///     Approach, ConflictTable, IntersectionGeometry, Movement, Reservation,
///     ReservationTable, Turn,
/// };
/// use crossroads_units::{Meters, Seconds, TimePoint};
/// use crossroads_vehicle::VehicleId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = IntersectionGeometry::scale_model();
/// let table = ConflictTable::compute(&g, Meters::new(0.296));
/// let mut sched = ReservationTable::new(table);
///
/// let south = Movement::new(Approach::South, Turn::Straight);
/// let east = Movement::new(Approach::East, Turn::Straight);
/// sched.insert(Reservation {
///     vehicle: VehicleId(1),
///     movement: south,
///     enter: TimePoint::new(1.0),
///     exit: TimePoint::new(2.0),
/// })?;
/// // A conflicting movement must wait for the window to clear.
/// let slot = sched.earliest_slot(east, TimePoint::new(1.5), Seconds::new(1.0));
/// assert_eq!(slot, TimePoint::new(2.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReservationTable {
    /// Shared, immutable conflict relation. An `Arc` so a K-shard
    /// corridor builds the geometry once and every shard's table points
    /// at the same allocation (cloning a table used to deep-copy it per
    /// shard).
    conflicts: std::sync::Arc<ConflictTable>,
    // One bucket per movement, each holding that movement's windows.
    //
    // Invariants (load-bearing for the binary searches below):
    //
    // - Windows within a bucket are pairwise disjoint: a movement always
    //   conflicts with itself, so `insert` rejects same-bucket overlaps.
    // - Each bucket is sorted lexicographically by `(enter, exit)`.
    //   Disjointness then makes `exit` sorted too, so both "first window
    //   ending after t" and "insertion point" are `partition_point`s,
    //   and expired windows form a removable *prefix*.
    // - `earliest_slot`/`insert` only ever consult the buckets of
    //   movements conflicting with the queried one (`masks`).
    buckets: [Vec<Window>; MOVEMENTS],
    // Bit `j` of `masks[i]`: movement `i` conflicts with movement `j`.
    masks: [u16; MOVEMENTS],
    // Total window count across buckets.
    len: usize,
    // Monotonic pruning watermark: every window ending before this is
    // gone, and `retire_before` calls at or below it are no-ops.
    retired: Option<TimePoint>,
}

/// Number of movements at a four-way single-lane intersection.
const MOVEMENTS: usize = 12;

/// A reservation without its movement (implied by the bucket).
#[derive(Debug, Clone, Copy)]
struct Window {
    enter: TimePoint,
    exit: TimePoint,
    vehicle: VehicleId,
}

impl ReservationTable {
    /// An empty table over the given conflict relation. Accepts either an
    /// owned [`ConflictTable`] or an `Arc<ConflictTable>`; pass a clone of
    /// one shared `Arc` to let many tables (e.g. one per corridor shard)
    /// reference the same immutable geometry without deep-copying it.
    #[must_use]
    pub fn new(conflicts: impl Into<std::sync::Arc<ConflictTable>>) -> Self {
        let conflicts = conflicts.into();
        let movements = Movement::all();
        let mut masks = [0u16; MOVEMENTS];
        for &a in &movements {
            for &b in &movements {
                if conflicts.conflicts(a, b) {
                    masks[a.index()] |= 1 << b.index();
                }
            }
        }
        ReservationTable {
            conflicts,
            buckets: std::array::from_fn(|_| Vec::new()),
            masks,
            len: 0,
            retired: None,
        }
    }

    /// Active reservations, ordered by entry time (collected across the
    /// per-movement buckets — diagnostics and tests; the schedulers never
    /// materialise this).
    #[must_use]
    pub fn reservations(&self) -> Vec<Reservation> {
        let movements = Movement::all();
        let mut out: Vec<Reservation> = Vec::with_capacity(self.len);
        for (i, bucket) in self.buckets.iter().enumerate() {
            out.extend(bucket.iter().map(|w| Reservation {
                vehicle: w.vehicle,
                movement: movements[i],
                enter: w.enter,
                exit: w.exit,
            }));
        }
        out.sort_by(|a, b| {
            a.enter
                .total_cmp(b.enter)
                .then(a.exit.total_cmp(b.exit))
                .then(a.movement.index().cmp(&b.movement.index()))
        });
        out
    }

    /// Number of live reservations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no reservations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indices of buckets conflicting with `movement`.
    fn conflicting_buckets(&self, movement: Movement) -> impl Iterator<Item = usize> {
        let mask = self.masks[movement.index()];
        (0..MOVEMENTS).filter(move |&j| mask & (1 << j) != 0)
    }

    /// Earliest `enter ≥ earliest` such that `[enter, enter + duration]`
    /// overlaps no conflicting reservation.
    ///
    /// Only conflicting buckets are consulted. Each is entered through
    /// one binary search for the first window ending after the candidate
    /// entry, then walked with a *monotonic cursor*: the candidate only
    /// moves later, so windows a cursor has passed can never overlap
    /// again and are never re-examined. Pushing through a saturated
    /// corridor therefore costs O(windows in the cascade) total, while a
    /// query into open time stays O(conflicting buckets × log windows).
    /// The answer is the *minimal* admissible entry: a jump to a blocking
    /// window's exit can never skip a feasible gap (any gap before it
    /// would itself overlap the blocker).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or non-finite.
    #[must_use]
    pub fn earliest_slot(
        &self,
        movement: Movement,
        earliest: TimePoint,
        duration: Seconds,
    ) -> TimePoint {
        assert!(
            duration.is_finite() && duration.value() >= 0.0,
            "occupancy duration must be non-negative"
        );
        let mut enter = earliest;
        let mask = self.masks[movement.index()];
        let mut cursor = [0usize; MOVEMENTS];
        for (j, bucket) in self.buckets.iter().enumerate() {
            if mask & (1 << j) != 0 {
                // First window ending after the candidate (half-open
                // windows touching at `enter` do not overlap).
                cursor[j] = bucket.partition_point(|w| w.exit <= enter);
            }
        }
        loop {
            let mut moved = false;
            for (j, bucket) in self.buckets.iter().enumerate() {
                if mask & (1 << j) == 0 {
                    continue;
                }
                let mut i = cursor[j];
                while i < bucket.len() {
                    let w = bucket[i];
                    if w.exit <= enter {
                        i += 1; // expired for this candidate, and forever
                        continue;
                    }
                    if w.enter >= enter + duration {
                        break; // beyond the window; re-examined next pass
                    }
                    enter = w.exit;
                    moved = true;
                    i += 1;
                }
                cursor[j] = i;
            }
            if !moved {
                return enter;
            }
        }
    }

    /// First window in `bucket` overlapping `[enter, exit)`, if any.
    fn first_overlap(bucket: &[Window], enter: TimePoint, exit: TimePoint) -> Option<&Window> {
        let i = bucket.partition_point(|w| w.exit <= enter);
        bucket.get(i).filter(|w| w.enter < exit)
    }

    /// Inserts a reservation after re-validating it against the table.
    ///
    /// # Errors
    ///
    /// - [`ScheduleError::InvalidWindow`] on a malformed window.
    /// - [`ScheduleError::AlreadyReserved`] if the vehicle holds one.
    /// - [`ScheduleError::Conflicts`] if it overlaps a conflicting window
    ///   (the IM must re-query [`earliest_slot`](Self::earliest_slot)).
    pub fn insert(&mut self, r: Reservation) -> Result<(), ScheduleError> {
        if !(r.enter.is_finite() && r.exit.is_finite()) || r.exit < r.enter {
            return Err(ScheduleError::InvalidWindow);
        }
        if self
            .buckets
            .iter()
            .any(|b| b.iter().any(|w| w.vehicle == r.vehicle))
        {
            return Err(ScheduleError::AlreadyReserved);
        }
        for j in self.conflicting_buckets(r.movement) {
            if let Some(block) = Self::first_overlap(&self.buckets[j], r.enter, r.exit) {
                return Err(ScheduleError::Conflicts {
                    with: block.vehicle,
                });
            }
        }
        let bucket = &mut self.buckets[r.movement.index()];
        // Lexicographic (enter, exit) order keeps `exit` sorted even when
        // zero-length windows share an endpoint with a real one.
        let pos = bucket.partition_point(|w| {
            (w.enter.value(), w.exit.value()) <= (r.enter.value(), r.exit.value())
        });
        bucket.insert(
            pos,
            Window {
                enter: r.enter,
                exit: r.exit,
                vehicle: r.vehicle,
            },
        );
        self.len += 1;
        Ok(())
    }

    /// Removes `vehicle`'s reservation (when it exits or aborts),
    /// returning it if present.
    pub fn release(&mut self, vehicle: VehicleId) -> Option<Reservation> {
        let movements = Movement::all();
        for (j, bucket) in self.buckets.iter_mut().enumerate() {
            if let Some(i) = bucket.iter().position(|w| w.vehicle == vehicle) {
                let w = bucket.remove(i);
                self.len -= 1;
                return Some(Reservation {
                    vehicle: w.vehicle,
                    movement: movements[j],
                    enter: w.enter,
                    exit: w.exit,
                });
            }
        }
        None
    }

    /// Retires reservations whose windows ended before `now`, advancing
    /// the monotonic watermark. Calls with `now` at or below the current
    /// watermark return immediately; otherwise each bucket drops an
    /// expired *prefix* (buckets are exit-sorted), so the sweep costs a
    /// binary search per bucket plus the windows actually removed.
    ///
    /// Queries at or after the watermark are unaffected by retirement: a
    /// window with `exit < watermark ≤ earliest` can never overlap a
    /// candidate starting at `earliest` (windows are half-open).
    pub fn retire_before(&mut self, now: TimePoint) {
        if self.retired.is_some_and(|r| now <= r) {
            return;
        }
        self.retired = Some(now);
        for bucket in &mut self.buckets {
            let k = bucket.partition_point(|w| w.exit < now);
            if k > 0 {
                bucket.drain(..k);
                self.len -= k;
            }
        }
    }

    /// Verifies the core safety invariant: no two conflicting reservations
    /// overlap. Intended for tests and debug assertions.
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        let all = self.reservations();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                if self.conflicts.conflicts(a.movement, b.movement) && a.overlaps(b) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Approach, IntersectionGeometry, Turn};
    use crossroads_units::Meters;

    fn sched() -> ReservationTable {
        ReservationTable::new(ConflictTable::compute(
            &IntersectionGeometry::scale_model(),
            Meters::new(0.296),
        ))
    }

    fn res(v: u32, m: Movement, enter: f64, exit: f64) -> Reservation {
        Reservation {
            vehicle: VehicleId(v),
            movement: m,
            enter: TimePoint::new(enter),
            exit: TimePoint::new(exit),
        }
    }

    const S: Movement = Movement {
        approach: Approach::South,
        turn: Turn::Straight,
    };
    const N: Movement = Movement {
        approach: Approach::North,
        turn: Turn::Straight,
    };
    const E: Movement = Movement {
        approach: Approach::East,
        turn: Turn::Straight,
    };

    #[test]
    fn empty_table_grants_immediately() {
        let t = sched();
        assert_eq!(
            t.earliest_slot(S, TimePoint::new(3.0), Seconds::new(1.0)),
            TimePoint::new(3.0)
        );
    }

    #[test]
    fn conflicting_window_is_pushed_after_exit() {
        let mut t = sched();
        t.insert(res(1, S, 1.0, 2.0)).unwrap();
        assert_eq!(
            t.earliest_slot(E, TimePoint::new(0.5), Seconds::new(1.0)),
            TimePoint::new(2.0)
        );
        // A short window that clears before the reservation starts fits
        // immediately (windows are half-open, so touching at 1.0 is fine).
        assert_eq!(
            t.earliest_slot(E, TimePoint::ZERO, Seconds::new(1.0)),
            TimePoint::ZERO
        );
    }

    #[test]
    fn non_conflicting_movements_share_time() {
        let mut t = sched();
        t.insert(res(1, S, 1.0, 2.0)).unwrap();
        // Opposing straight: same instant is fine.
        assert_eq!(
            t.earliest_slot(N, TimePoint::new(1.0), Seconds::new(1.0)),
            TimePoint::new(1.0)
        );
        t.insert(res(2, N, 1.0, 2.0)).unwrap();
        assert!(t.is_conflict_free());
    }

    #[test]
    fn chained_conflicts_cascade() {
        let mut t = sched();
        t.insert(res(1, S, 1.0, 2.0)).unwrap();
        t.insert(res(2, E, 2.0, 3.0)).unwrap();
        // S conflicts with E, E conflicts with S; a new E-movement vehicle
        // must clear both S (until 2.0) and its own lane (E until 3.0).
        assert_eq!(
            t.earliest_slot(E, TimePoint::new(1.5), Seconds::new(1.0)),
            TimePoint::new(3.0)
        );
    }

    #[test]
    fn insert_rejects_conflicting_window() {
        let mut t = sched();
        t.insert(res(1, S, 1.0, 2.0)).unwrap();
        let err = t.insert(res(2, E, 1.5, 2.5)).unwrap_err();
        assert_eq!(err, ScheduleError::Conflicts { with: VehicleId(1) });
    }

    #[test]
    fn insert_rejects_double_booking() {
        let mut t = sched();
        t.insert(res(1, S, 1.0, 2.0)).unwrap();
        let err = t.insert(res(1, N, 5.0, 6.0)).unwrap_err();
        assert_eq!(err, ScheduleError::AlreadyReserved);
    }

    #[test]
    fn insert_rejects_invalid_window() {
        let mut t = sched();
        assert_eq!(
            t.insert(res(1, S, 2.0, 1.0)),
            Err(ScheduleError::InvalidWindow)
        );
        assert_eq!(
            t.insert(res(1, S, f64::NAN, 1.0)),
            Err(ScheduleError::InvalidWindow)
        );
    }

    #[test]
    fn release_frees_the_window() {
        let mut t = sched();
        t.insert(res(1, S, 1.0, 2.0)).unwrap();
        assert!(t.release(VehicleId(1)).is_some());
        assert!(t.release(VehicleId(1)).is_none());
        assert_eq!(
            t.earliest_slot(E, TimePoint::new(1.0), Seconds::new(1.0)),
            TimePoint::new(1.0)
        );
    }

    #[test]
    fn prune_drops_expired_windows() {
        let mut t = sched();
        t.insert(res(1, S, 1.0, 2.0)).unwrap();
        t.insert(res(2, N, 5.0, 6.0)).unwrap();
        t.retire_before(TimePoint::new(3.0));
        assert_eq!(t.reservations().len(), 1);
        assert_eq!(t.reservations()[0].vehicle, VehicleId(2));
    }

    #[test]
    fn earliest_slot_result_always_inserts_cleanly() {
        let mut t = sched();
        t.insert(res(1, S, 1.0, 2.5)).unwrap();
        t.insert(res(2, E, 2.5, 4.0)).unwrap();
        // N runs concurrently with S (opposing straights don't conflict)
        // and clears before E's window begins.
        t.insert(res(3, N, 0.5, 2.4)).unwrap();
        let dur = Seconds::new(1.2);
        let slot = t.earliest_slot(E, TimePoint::new(0.2), dur);
        t.insert(Reservation {
            vehicle: VehicleId(9),
            movement: E,
            enter: slot,
            exit: slot + dur,
        })
        .unwrap();
        assert!(t.is_conflict_free());
    }

    #[test]
    fn fifo_ordering_emerges_from_sequential_queries() {
        // Two vehicles on the same lane, queried in arrival order, cross in
        // arrival order — the paper's FIFO behavior.
        let mut t = sched();
        let dur = Seconds::new(1.0);
        let first = t.earliest_slot(S, TimePoint::new(1.0), dur);
        t.insert(Reservation {
            vehicle: VehicleId(1),
            movement: S,
            enter: first,
            exit: first + dur,
        })
        .unwrap();
        let second = t.earliest_slot(S, TimePoint::new(1.2), dur);
        assert!(second >= first + dur);
    }
}
