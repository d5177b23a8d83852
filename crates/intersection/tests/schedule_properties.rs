//! Property tests: the reservation table's safety invariant holds under
//! arbitrary FIFO admission sequences, earliest-fit answers always
//! insert cleanly, and `earliest_slot` answers exactly as the seed's
//! restart scan does, so the slot it returns is the earliest admissible
//! one.

use crossroads_check::{ck_assert, ck_assert_eq, forall, vec};
use crossroads_intersection::tiles::TileInterval;
use crossroads_intersection::{
    ConflictTable, IntersectionGeometry, Movement, Reservation, ReservationTable, TileGrid,
    TileSchedule,
};
use crossroads_units::{Meters, Seconds, TimePoint};
use crossroads_vehicle::VehicleId;

/// The seed's reservation table, kept as the reference for
/// `earliest_slot`: a flat list of windows, re-scanned from the start
/// until a pass moves the candidate no further.
struct NaiveTable {
    conflicts: ConflictTable,
    reservations: Vec<Reservation>,
}

impl NaiveTable {
    fn earliest_slot(
        &self,
        movement: Movement,
        earliest: TimePoint,
        duration: Seconds,
    ) -> TimePoint {
        let mut enter = earliest;
        loop {
            let mut moved = false;
            for r in &self.reservations {
                if self.conflicts.conflicts(movement, r.movement)
                    && enter < r.exit
                    && r.enter < enter + duration
                {
                    enter = r.exit;
                    moved = true;
                }
            }
            if !moved {
                return enter;
            }
        }
    }
}

forall! {
    /// Whatever the arrival pattern, admitting every vehicle at its
    /// earliest slot keeps the table conflict-free, and slots are at or
    /// after the requested earliest time.
    ///
    /// Movements generate as an index into [`Movement::all`].
    fn fifo_admission_is_always_safe(
        arrivals in vec((0usize..12, 0.0f64..30.0, 0.2f64..3.0), 1..60),
    ) {
        let table = ConflictTable::compute(
            &IntersectionGeometry::scale_model(),
            Meters::new(0.296),
        );
        let mut sched = ReservationTable::new(table);
        for (i, (movement_idx, earliest, dur)) in arrivals.iter().enumerate() {
            let movement = Movement::all()[*movement_idx];
            let earliest = TimePoint::new(*earliest);
            let dur = Seconds::new(*dur);
            let slot = sched.earliest_slot(movement, earliest, dur);
            ck_assert!(slot >= earliest);
            #[allow(clippy::cast_possible_truncation)]
            sched
                .insert(Reservation {
                    vehicle: VehicleId(i as u32),
                    movement,
                    enter: slot,
                    exit: slot + dur,
                })
                .expect("earliest_slot answers must insert cleanly");
            ck_assert!(sched.is_conflict_free());
        }
    }

    /// Same-movement windows strictly serialize (FIFO on one lane).
    fn same_lane_windows_never_overlap(
        times in vec((0.0f64..20.0, 0.5f64..2.0), 2..30),
    ) {
        let table = ConflictTable::compute(
            &IntersectionGeometry::scale_model(),
            Meters::new(0.296),
        );
        let mut sched = ReservationTable::new(table);
        let m = Movement::all()[0];
        let mut windows: Vec<(f64, f64)> = Vec::new();
        for (i, (earliest, dur)) in times.iter().enumerate() {
            let slot = sched.earliest_slot(m, TimePoint::new(*earliest), Seconds::new(*dur));
            #[allow(clippy::cast_possible_truncation)]
            sched
                .insert(Reservation {
                    vehicle: VehicleId(i as u32),
                    movement: m,
                    enter: slot,
                    exit: slot + Seconds::new(*dur),
                })
                .unwrap();
            windows.push((slot.value(), slot.value() + dur));
        }
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in windows.windows(2) {
            ck_assert!(w[0].1 <= w[1].0 + 1e-12, "windows {w:?} overlap");
        }
    }

    /// Retiring expired windows is invisible to future queries: for any
    /// watermark at or below a query's `earliest`, `earliest_slot`
    /// answers exactly as it did before `retire_before`, and the answer
    /// still inserts cleanly into the pruned table.
    fn earliest_slot_unchanged_by_retirement(
        arrivals in vec((0usize..12, 0.0f64..30.0, 0.2f64..3.0), 1..40),
        query in (0usize..12, 0.0f64..35.0, 0.2f64..3.0),
        fraction in 0.0f64..1.0,
    ) {
        let table = ConflictTable::compute(
            &IntersectionGeometry::scale_model(),
            Meters::new(0.296),
        );
        let mut sched = ReservationTable::new(table);
        for (i, (movement_idx, earliest, dur)) in arrivals.iter().enumerate() {
            let movement = Movement::all()[*movement_idx];
            let slot = sched.earliest_slot(
                movement,
                TimePoint::new(*earliest),
                Seconds::new(*dur),
            );
            #[allow(clippy::cast_possible_truncation)]
            sched
                .insert(Reservation {
                    vehicle: VehicleId(i as u32),
                    movement,
                    enter: slot,
                    exit: slot + Seconds::new(*dur),
                })
                .unwrap();
        }
        let (movement_idx, earliest, dur) = query;
        let movement = Movement::all()[movement_idx];
        let earliest = TimePoint::new(earliest);
        let dur = Seconds::new(dur);
        let before = sched.earliest_slot(movement, earliest, dur);
        // Any watermark in [0, earliest] may only drop windows that end
        // strictly before it — none of which can touch the query.
        sched.retire_before(TimePoint::new(earliest.value() * fraction));
        let after = sched.earliest_slot(movement, earliest, dur);
        ck_assert_eq!(before, after, "retirement changed an unaffected query");
        #[allow(clippy::cast_possible_truncation)]
        sched
            .insert(Reservation {
                vehicle: VehicleId(u32::MAX - 1),
                movement,
                enter: after,
                exit: after + dur,
            })
            .expect("post-retirement answers must insert cleanly");
        ck_assert!(sched.is_conflict_free());
    }

    /// `earliest_slot` is the restart scan's answer bit for bit, through
    /// any interleaving of admissions, releases and `retire_before`
    /// calls: the bucketed table's cursors and watermark skip only
    /// windows that cannot move the candidate, so it returns the
    /// *earliest* admissible entry, not merely a safe one.
    ///
    /// Each step queries both tables, then acts on the draw's `op`:
    /// 0–6 admits at the answer, 7–8 releases the `pick`-th live window's
    /// vehicle, and 9 retires windows ending before `earliest` when that
    /// raises the watermark (a lower call is a no-op by contract, so a
    /// window admitted below the watermark stays until it rises).
    fn earliest_slot_matches_the_restart_scan(
        steps in vec((0u8..10, 0usize..12, 0.0f64..30.0, 0.0f64..3.0, 0usize..64), 1..80),
    ) {
        let conflicts = ConflictTable::compute(
            &IntersectionGeometry::scale_model(),
            Meters::new(0.296),
        );
        let mut naive = NaiveTable {
            conflicts: conflicts.clone(),
            reservations: Vec::new(),
        };
        let mut sched = ReservationTable::new(conflicts);
        let mut watermark = f64::NEG_INFINITY;
        for (i, &(op, movement_idx, earliest, dur, pick)) in steps.iter().enumerate() {
            let movement = Movement::all()[movement_idx];
            let earliest = TimePoint::new(earliest);
            let dur = Seconds::new(dur);
            let slot = sched.earliest_slot(movement, earliest, dur);
            let reference = naive.earliest_slot(movement, earliest, dur);
            ck_assert_eq!(
                slot.value().to_bits(),
                reference.value().to_bits(),
                "step {}: earliest_slot {} against the restart scan's {}",
                i,
                slot,
                reference
            );
            match op {
                0..=6 => {
                    #[allow(clippy::cast_possible_truncation)]
                    let r = Reservation {
                        vehicle: VehicleId(i as u32),
                        movement,
                        enter: slot,
                        exit: slot + dur,
                    };
                    sched.insert(r).expect("earliest_slot answers must insert cleanly");
                    naive.reservations.push(r);
                }
                7 | 8 if !naive.reservations.is_empty() => {
                    let r = naive.reservations.remove(pick % naive.reservations.len());
                    ck_assert_eq!(sched.release(r.vehicle), Some(r));
                }
                9 => {
                    sched.retire_before(earliest);
                    if earliest.value() > watermark {
                        watermark = earliest.value();
                        naive.reservations.retain(|r| r.exit >= earliest);
                    }
                }
                _ => {}
            }
            ck_assert_eq!(sched.len(), naive.reservations.len());
        }
    }

    /// A pruned table never re-admits an overlap: every surviving window
    /// still rejects a conflicting duplicate laid on top of it.
    fn pruned_tables_never_readmit_overlap(
        arrivals in vec((0usize..12, 0.0f64..30.0, 0.2f64..3.0), 1..40),
        watermark in 0.0f64..40.0,
    ) {
        let table = ConflictTable::compute(
            &IntersectionGeometry::scale_model(),
            Meters::new(0.296),
        );
        let mut sched = ReservationTable::new(table);
        for (i, (movement_idx, earliest, dur)) in arrivals.iter().enumerate() {
            let movement = Movement::all()[*movement_idx];
            let slot = sched.earliest_slot(
                movement,
                TimePoint::new(*earliest),
                Seconds::new(*dur),
            );
            #[allow(clippy::cast_possible_truncation)]
            sched
                .insert(Reservation {
                    vehicle: VehicleId(i as u32),
                    movement,
                    enter: slot,
                    exit: slot + Seconds::new(*dur),
                })
                .unwrap();
        }
        sched.retire_before(TimePoint::new(watermark));
        ck_assert!(sched.is_conflict_free());
        for r in sched.reservations() {
            // A same-movement copy always conflicts; the pruned table
            // must still reject it.
            let dup = Reservation {
                vehicle: VehicleId(u32::MAX - 2),
                movement: r.movement,
                enter: r.enter,
                exit: r.exit,
            };
            if (r.exit - r.enter).value() > 0.0 {
                ck_assert!(
                    sched.insert(dup).is_err(),
                    "pruned table re-admitted an overlap at {:?}",
                    (r.enter, r.exit)
                );
            }
        }
    }

    /// Tile reservations are atomic: a failed multi-tile request leaves no
    /// residue, a successful one is fully queryable.
    fn tile_reservation_atomicity(
        reqs in vec((0usize..16, 0.0f64..10.0, 0.1f64..2.0), 1..40),
    ) {
        let mut sched = TileSchedule::new(TileGrid::new(Meters::new(1.2), 4));
        for (i, (tile, from, len)) in reqs.iter().enumerate() {
            let iv = [
                TileInterval {
                    tile: *tile,
                    from: TimePoint::new(*from),
                    until: TimePoint::new(from + len),
                },
                TileInterval {
                    tile: (*tile + 1) % 16,
                    from: TimePoint::new(*from),
                    until: TimePoint::new(from + len),
                },
            ];
            let before = sched.reserved_intervals();
            #[allow(clippy::cast_possible_truncation)]
            let ok = sched.try_reserve(VehicleId(i as u32), &iv);
            let after = sched.reserved_intervals();
            if ok {
                ck_assert_eq!(after, before + 2);
            } else {
                ck_assert_eq!(after, before);
            }
        }
    }
}
