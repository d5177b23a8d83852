//! The sweep-pruned audit must be indistinguishable from the exhaustive
//! pairwise reference: same violations, same order, same instants.
//!
//! `audit_with_margin` *prunes* pairs whose box intervals cannot overlap
//! in time, and its contact march steps over samples that provably cannot
//! touch; the exhaustive reference tests every pair with the plain 5 ms
//! march. These properties drive both audits over randomized occupancy
//! sets — including heavy same-instant entries, zero-duration windows and
//! full-scale multi-phase crossings — and demand byte-for-byte agreement.

use crossroads_check::{bools, ck_assert_eq, forall, vec};
use crossroads_core::sim::{BoxOccupancy, SafetyReport};
use crossroads_core::BufferModel;
use crossroads_intersection::{Approach, IntersectionGeometry, Movement, Turn};
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleId, VehicleSpec};

fn geometry() -> IntersectionGeometry {
    IntersectionGeometry::scale_model()
}

fn spec() -> VehicleSpec {
    VehicleSpec::scale_model()
}

/// A constant-speed crossing entering the box at `enter` (profile
/// coordinates start at the box entry, as in the simulator's records).
fn occ(v: u32, movement: Movement, enter: f64, speed: f64) -> BoxOccupancy {
    let total = geometry().path_length(movement) + spec().length;
    BoxOccupancy {
        vehicle: VehicleId(v),
        movement,
        entered: TimePoint::new(enter),
        exited: TimePoint::new(enter + total.value() / speed),
        profile: SpeedProfile::starting_at(
            TimePoint::new(enter),
            Meters::ZERO,
            MetersPerSecond::new(speed),
        ),
        line_offset: Meters::ZERO,
    }
}

/// Flattens a report into comparable raw data (violation triples in
/// report order, with exact time bits).
fn digest(report: &SafetyReport) -> Vec<(u32, u32, u64)> {
    report
        .violations()
        .iter()
        .map(|v| (v.first.0, v.second.0, v.at.value().to_bits()))
        .collect()
}

fn occupancies_from(entries: &[(usize, usize, f64, f64)]) -> Vec<BoxOccupancy> {
    entries
        .iter()
        .enumerate()
        .map(|(i, &(a, t, enter, speed))| {
            let movement = Movement::new(Approach::ALL[a % 4], Turn::ALL[t % 3]);
            occ(i as u32, movement, enter, speed)
        })
        .collect()
}

/// One drawn full-scale crossing: movement index, profile shape, anchor
/// time, speed (or setback) fraction, hold, faulty speed factor, and the
/// window padding before entry and after exit.
type Crossing = (usize, usize, f64, f64, f64, f64, f64, f64);

/// A full-scale crossing with a multi-phase profile, in the simulator's
/// coordinates (the box entry at path position `line_offset`), its window
/// probed like the runtime filter's envelopes and then padded.
fn full_scale_occ(v: u32, crossing: &Crossing) -> BoxOccupancy {
    let &(m, shape, t0, frac, hold, factor, pad_before, pad_after) = crossing;
    let g = IntersectionGeometry::full_scale();
    let s = VehicleSpec::full_scale();
    let line = g.transmission_line_distance;
    let movement = Movement::all()[m % 12];
    let t0 = TimePoint::new(t0);
    // A faulty executor's mis-tracked target, clamped to the platform.
    let launch = (s.v_max * factor).min(s.v_max);
    let profile = match shape % 3 {
        // Cruise, hold, then a speed change toward the faulty target.
        0 => {
            let v0 = s.v_max * frac;
            let mut p = SpeedProfile::starting_at(t0, line - Meters::new(25.0), v0);
            p.push_hold(Seconds::new(hold));
            p.push_speed_change(launch, if launch >= v0 { s.a_max } else { s.d_max });
            p
        }
        // Brake to the line, hold, then launch from a standstill toward
        // the conflict point.
        1 => {
            let mut p =
                SpeedProfile::stop_at(t0, line - Meters::new(25.0), s.v_max * frac, line, &s);
            p.push_hold(Seconds::new(hold));
            p.push_speed_change(launch, s.a_max);
            p
        }
        // A human's gap-acceptance candidate: a standstill launch with
        // the front `frac` meters behind the line.
        _ => {
            let mut p =
                SpeedProfile::starting_at(t0, line - Meters::new(frac), MetersPerSecond::ZERO);
            p.push_speed_change(launch, s.a_max);
            p
        }
    };
    let s_exit = line + g.path_length(movement) + s.length;
    let probe = |at: Meters| profile.time_at_position(at).unwrap_or(t0).max(t0);
    BoxOccupancy {
        vehicle: VehicleId(v),
        movement,
        entered: probe(line + Meters::new(1e-3)) - Seconds::new(pad_before),
        exited: probe(s_exit) + Seconds::new(pad_after),
        profile,
        line_offset: line,
    }
}

/// A constant-speed crossing of `movement` on geometry `g` entering the
/// box at `enter`, in the simulator's coordinates (the box entry at path
/// position `line_offset`).
fn cruise_occ(
    g: &IntersectionGeometry,
    s: &VehicleSpec,
    v: u32,
    movement: Movement,
    enter: f64,
    speed: MetersPerSecond,
) -> BoxOccupancy {
    let line = g.transmission_line_distance;
    let crossing = (g.path_length(movement) + s.length) / speed;
    BoxOccupancy {
        vehicle: VehicleId(v),
        movement,
        entered: TimePoint::new(enter),
        exited: TimePoint::new(enter) + crossing,
        profile: SpeedProfile::starting_at(TimePoint::new(enter), line, speed),
        line_offset: line,
    }
}

forall! {
    /// Random traffic: the sweep audit and the exhaustive audit agree on
    /// the violation list exactly.
    fn sweep_matches_exhaustive(
        entries in vec((0usize..4, 0usize..3, 0.0f64..30.0, 0.5f64..3.0), 0..40),
    ) {
        let occs = occupancies_from(&entries);
        let sweep =
            SafetyReport::audit_with_margin(occs.clone(), &geometry(), &spec(), Meters::ZERO);
        let exhaustive = SafetyReport::audit_exhaustive_with_margin(
            occs,
            &geometry(),
            &spec(),
            Meters::ZERO,
        );
        ck_assert_eq!(digest(&sweep), digest(&exhaustive));
    }

    /// Same agreement under an inflation margin (the guarantee-level
    /// check), where near-miss pairs flip to violations.
    fn sweep_matches_exhaustive_with_margin(
        entries in vec((0usize..4, 0usize..3, 0.0f64..20.0, 0.5f64..3.0), 0..30),
        margin_cm in 0.0f64..0.3,
    ) {
        let occs = occupancies_from(&entries);
        let m = Meters::new(margin_cm);
        let sweep = SafetyReport::audit_with_margin(occs.clone(), &geometry(), &spec(), m);
        let exhaustive =
            SafetyReport::audit_exhaustive_with_margin(occs, &geometry(), &spec(), m);
        ck_assert_eq!(digest(&sweep), digest(&exhaustive));
    }

    /// Adversarial timing: many vehicles entering at the same handful of
    /// instants, so the sweep's tie handling (equal `entered`) is
    /// exercised hard.
    fn sweep_survives_entry_time_ties(
        entries in vec((0usize..4, 0usize..3, 0usize..3, 0.5f64..3.0), 0..30),
    ) {
        let occs: Vec<BoxOccupancy> = entries
            .iter()
            .enumerate()
            .map(|(i, &(a, t, slot, speed))| {
                let movement = Movement::new(Approach::ALL[a % 4], Turn::ALL[t % 3]);
                occ(i as u32, movement, slot as f64 * 2.0, speed)
            })
            .collect();
        let sweep =
            SafetyReport::audit_with_margin(occs.clone(), &geometry(), &spec(), Meters::ZERO);
        let exhaustive = SafetyReport::audit_exhaustive_with_margin(
            occs,
            &geometry(),
            &spec(),
            Meters::ZERO,
        );
        ck_assert_eq!(digest(&sweep), digest(&exhaustive));
    }

    /// Full-scale multi-phase traffic over all 12×12 movement pairs, at
    /// margins 0 and `e_long`: braking to the line, holding, standstill
    /// launches that accelerate through the conflict zone, faulty speed
    /// targets and windows padded up to 1 s on both sides (the human gap
    /// candidate's front still sits behind the line). The skipping march
    /// must report the plain march's violations at the same instants.
    fn skipping_march_matches_plain_march_at_full_scale(
        crossings in vec(
            (
                0usize..12,
                0usize..3,
                0.0f64..4.0,
                0.2f64..1.0,
                0.0f64..3.0,
                0.9f64..1.1,
                0.0f64..1.0,
                0.0f64..1.0,
            ),
            2..6,
        ),
        inflate in bools(),
    ) {
        let g = IntersectionGeometry::full_scale();
        let s = VehicleSpec::full_scale();
        let m = if inflate { BufferModel::full_scale().e_long } else { Meters::ZERO };
        let occs: Vec<BoxOccupancy> = crossings
            .iter()
            .enumerate()
            .map(|(i, c)| full_scale_occ(i as u32, c))
            .collect();
        let sweep = SafetyReport::audit_with_margin(occs.clone(), &g, &s, m);
        let exhaustive = SafetyReport::audit_exhaustive_with_margin(occs, &g, &s, m);
        ck_assert_eq!(digest(&sweep), digest(&exhaustive));
    }

    /// Opposite through lanes on both geometries, at margins on both
    /// sides of the clearance threshold `(lane_width − width)/2` (and on
    /// it, and a hair either side): the skipping march clears these pairs
    /// without marching when the lanes are provably apart, and must still
    /// report the plain march's verdicts and contact instants.
    fn parallel_lanes_match_plain_march(
        full in bools(),
        east_west in bools(),
        enters in (0.0f64..1.5, 0.0f64..1.5),
        speeds in (0.2f64..1.0, 0.2f64..1.0),
        snap in 0usize..4,
        spread in -0.5f64..0.5,
    ) {
        let (g, s) = if full {
            (IntersectionGeometry::full_scale(), VehicleSpec::full_scale())
        } else {
            (geometry(), spec())
        };
        let threshold = (g.lane_width - s.width) / 2.0;
        let m = match snap {
            0 => threshold,
            1 => threshold + Meters::new(1e-7),
            2 => threshold - Meters::new(1e-7),
            _ => threshold * (1.0 + spread),
        };
        let (a, b) = if east_west {
            (Approach::East, Approach::West)
        } else {
            (Approach::North, Approach::South)
        };
        let occs = vec![
            cruise_occ(&g, &s, 0, Movement::new(a, Turn::Straight), enters.0, s.v_max * speeds.0),
            cruise_occ(&g, &s, 1, Movement::new(b, Turn::Straight), enters.1, s.v_max * speeds.1),
        ];
        let sweep = SafetyReport::audit_with_margin(occs.clone(), &g, &s, m);
        let exhaustive = SafetyReport::audit_exhaustive_with_margin(occs, &g, &s, m);
        ck_assert_eq!(digest(&sweep), digest(&exhaustive));
    }
}
