//! Differential oracle suite for the closed-form trajectory kernels.
//!
//! Two layers of closed-form arithmetic replaced stepped marches in this
//! codebase, and both are verified here against the march they replaced:
//!
//! 1. **Kinematics** — [`SpeedProfile`]'s `position_at` / `speed_at` /
//!    `time_at_position` closed forms, checked against a fine-step
//!    (`h = 1 ms`) integrator that splits steps at phase boundaries so
//!    each sub-step is exactly constant-acceleration. The oracle shares
//!    no code with the closed forms: it advances `(s, v)` state sample
//!    by sample.
//! 2. **AIM footprints** — [`AimPolicy::propose_analytic`] checked
//!    against the seed's stepped march [`AimPolicy::propose_marched`]
//!    at the policy's own `sim_step`. The contract is asymmetric by
//!    design: verdicts (accept / reject, including the 120 s bail-out)
//!    must match *exactly*, while the analytic tile intervals must be a
//!    **superset** of the marched ones (safety can only get more
//!    conservative) with **bounded slack** (the over-reservation is
//!    capped by a closed-form traversal bound, so the speedup never
//!    silently costs throughput).
//!
//! A third property pins the analytic kernel's band-table cache: reusing
//! one policy across proposals must be unobservable.
//!
//! Case counts follow `CROSSROADS_CHECK_CASES` (ci.sh's quick gate sets
//! a small count; soak runs can raise it without a recompile).

use std::collections::HashMap;

use crossroads_check::{bools, ck_assert, ck_assert_eq, ck_assume, forall, vec, CaseError};
use crossroads_core::policy::{AimPolicy, EntryMode};
use crossroads_core::BufferModel;
use crossroads_intersection::tiles::TileInterval;
use crossroads_intersection::{IntersectionGeometry, Movement};
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleSpec};

// ---------------------------------------------------------------------
// Layer 1: SpeedProfile closed forms vs a fine-step marched integrator.
// ---------------------------------------------------------------------

/// Oracle integrator step. Tolerances below are pinned against this: the
/// per-sub-step update is exact constant-acceleration arithmetic, so the
/// only divergence from the closed forms is float accumulation across
/// ~`end_time / ORACLE_STEP` additions.
const ORACLE_STEP: f64 = 1e-3;

/// Marches `(t, s, v)` state across the profile's phases in
/// [`ORACLE_STEP`] sub-steps, splitting at phase boundaries, and calls
/// `visit(t, s, v)` after each sub-step (and once at the start).
fn oracle_march(profile: &SpeedProfile, mut visit: impl FnMut(f64, f64, f64)) {
    let first = profile.phases().first().expect("profiles have phases");
    let mut s = first.s0.value();
    let mut v = first.v0.value();
    visit(first.start.value(), s, v);
    for phase in profile.phases() {
        let a = phase.accel.value();
        let mut done = 0.0;
        let duration = phase.duration.value();
        while done < duration {
            let h = ORACLE_STEP.min(duration - done);
            s += v * h + 0.5 * a * h * h;
            v = (v + a * h).max(0.0);
            done += h;
            visit(phase.start.value() + done, s, v);
        }
    }
}

/// Builds the randomized multi-phase profile shared by the kinematics
/// properties: segments are holds, planner-rate speed changes, full
/// stop-and-park pairs, or near-zero-duration slivers.
fn build_profile(v0: f64, segs: [(u64, f64); 3]) -> SpeedProfile {
    let s = VehicleSpec::scale_model();
    let mut p = SpeedProfile::starting_at(TimePoint::ZERO, Meters::ZERO, MetersPerSecond::new(v0));
    for (kind, param) in segs {
        match kind {
            0 => p.push_hold(Seconds::new(param)),
            1 => {
                let target = MetersPerSecond::new(param);
                let rate = if target >= p.final_speed() {
                    s.a_max
                } else {
                    s.d_max
                };
                p.push_speed_change(target, rate);
            }
            2 => {
                p.push_speed_change(MetersPerSecond::ZERO, s.d_max);
                p.push_hold(Seconds::new(param));
            }
            _ => p.push_hold(Seconds::new(param * 1e-9)),
        }
    }
    p
}

forall! {
    /// `position_at` and `speed_at` agree with the fine-step integrator
    /// at every oracle sample, within float-accumulation tolerance.
    fn closed_form_state_matches_fine_march(
        v0 in 0.0f64..3.0,
        seg1 in (0u64..4, 0.05f64..3.0),
        seg2 in (0u64..4, 0.05f64..3.0),
        seg3 in (0u64..4, 0.05f64..3.0),
    ) {
        let p = build_profile(v0, [seg1, seg2, seg3]);
        let mut worst_s = 0.0f64;
        let mut worst_v = 0.0f64;
        oracle_march(&p, |t, s, v| {
            let t = TimePoint::new(t);
            worst_s = worst_s.max((p.position_at(t).value() - s).abs());
            worst_v = worst_v.max((p.speed_at(t).value() - v).abs());
        });
        ck_assert!(worst_s < 1e-6, "position diverged from oracle by {worst_s}");
        ck_assert!(worst_v < 1e-7, "speed diverged from oracle by {worst_v}");
    }

    /// `time_at_position` lands within one oracle step of the marched
    /// first crossing (away from stop points, where a float-sized
    /// position difference legitimately moves the crossing time).
    fn first_crossing_matches_fine_march(
        v0 in 0.0f64..3.0,
        seg1 in (0u64..4, 0.05f64..3.0),
        seg2 in (0u64..4, 0.05f64..3.0),
        seg3 in (0u64..4, 0.05f64..3.0),
        frac in 0.05f64..0.95,
    ) {
        let p = build_profile(v0, [seg1, seg2, seg3]);
        let target = p.final_position().value() * frac;
        ck_assume!(target > 0.0);
        let t_star = p
            .time_at_position(Meters::new(target))
            .expect("interior positions of a profile are reached");
        ck_assume!(p.speed_at(t_star).value() > 1e-3);
        let mut t_cross = f64::INFINITY;
        oracle_march(&p, |t, s, _| {
            if s >= target - 1e-9 && t < t_cross {
                t_cross = t;
            }
        });
        ck_assert!(t_cross.is_finite(), "oracle march never reached {target}");
        ck_assert!(
            (t_star.value() - t_cross).abs() <= ORACLE_STEP + 1e-6,
            "closed-form crossing {t_star} vs marched crossing {t_cross}"
        );
    }
}

// ---------------------------------------------------------------------
// Layer 2: AIM analytic footprints vs the stepped march.
// ---------------------------------------------------------------------

/// Per-tile merged occupancy runs, `tile → sorted disjoint [from, until)`.
fn merged_by_tile(intervals: &[TileInterval]) -> HashMap<usize, Vec<(f64, f64)>> {
    let mut by_tile: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    for iv in intervals {
        by_tile
            .entry(iv.tile)
            .or_default()
            .push((iv.from.value(), iv.until.value()));
    }
    for runs in by_tile.values_mut() {
        runs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(runs.len());
        for &(from, until) in runs.iter() {
            match merged.last_mut() {
                Some(last) if from <= last.1 => last.1 = last.1.max(until),
                _ => merged.push((from, until)),
            }
        }
        *runs = merged;
    }
    by_tile
}

/// Maximum ratio of analytic to marched total reserved tile-seconds.
/// Measured worst case over a dense (testbed × grid × step × movement ×
/// entry × speed) sweep is 2.44× — reached exactly where the march
/// under-samples (progress per step ≈ one tile side, so the march
/// *misses* real coverage the conservative kernel keeps); 3.5 pins it
/// with headroom while still failing on any unbounded regression.
const MAX_TILE_SECONDS_RATIO: f64 = 3.5;

/// Maximum growth of the *set of tiles touched*: `analytic ≤
/// 3 × marched + 2` (measured worst case 2.0×; the `+2` absorbs
/// integer effects on coarse grids that only touch a few tiles).
const MAX_TILE_COUNT_FACTOR: f64 = 3.0;
const MAX_TILE_COUNT_OFFSET: f64 = 2.0;

/// The superset-with-bounded-slack contract between one marched footprint
/// and one analytic footprint computed for the same proposal:
///
/// - **superset** — every marched interval lies inside a single merged
///   analytic run for its tile, so the tile ledger can never see the
///   analytic kernel reserve *less* than the march did;
/// - **bounded slack** — the conservatism is capped in aggregate: total
///   analytic tile-seconds ≤ [`MAX_TILE_SECONDS_RATIO`] × marched, and
///   the touched-tile set grows by at most [`MAX_TILE_COUNT_FACTOR`]×
///   (+[`MAX_TILE_COUNT_OFFSET`]).
///
/// The slack bound is deliberately aggregate, not per-tile: on arc
/// movements the footprint's bounding box can approach a tile
/// *tangentially*, staying within the band sweep's inflation pad for
/// `≈ sqrt(2 · pad · radius)` of progress without exact coverage — so a
/// single tile's analytic time span can legitimately exceed its marched
/// span by several tile-traversal times while the footprint as a whole
/// stays tight. Aggregate tile-seconds is also the quantity that costs
/// throughput (it is what the tile ledger arbitrates), which makes it
/// the right thing to pin.
fn check_superset_with_bounded_slack(
    marched: &[TileInterval],
    analytic: &[TileInterval],
) -> Result<(), CaseError> {
    let eps = 1e-9;

    let analytic_runs = merged_by_tile(analytic);
    for iv in marched {
        let (from, until) = (iv.from.value(), iv.until.value());
        let covered = analytic_runs.get(&iv.tile).is_some_and(|runs| {
            runs.iter()
                .any(|&(f, u)| f <= from + eps && until <= u + eps)
        });
        if !covered {
            return Err(CaseError::fail(format!(
                "marched interval on tile {} [{from}, {until}) not covered by analytic runs {:?}",
                iv.tile,
                analytic_runs.get(&iv.tile),
            )));
        }
    }

    let tile_seconds = |runs: &HashMap<usize, Vec<(f64, f64)>>| -> f64 {
        runs.values()
            .flat_map(|r| r.iter())
            .map(|&(f, u)| u - f)
            .sum()
    };
    let marched_runs = merged_by_tile(marched);
    let (sec_m, sec_a) = (tile_seconds(&marched_runs), tile_seconds(&analytic_runs));
    if sec_a > MAX_TILE_SECONDS_RATIO * sec_m + eps {
        return Err(CaseError::fail(format!(
            "analytic reserves {sec_a:.3} tile-seconds vs marched {sec_m:.3} — conservatism \
             ratio {:.2} exceeds {MAX_TILE_SECONDS_RATIO}",
            sec_a / sec_m,
        )));
    }
    #[allow(clippy::cast_precision_loss)]
    let (n_m, n_a) = (marched_runs.len() as f64, analytic_runs.len() as f64);
    if n_a > MAX_TILE_COUNT_FACTOR * n_m + MAX_TILE_COUNT_OFFSET {
        return Err(CaseError::fail(format!(
            "analytic touches {n_a} tiles vs marched {n_m} — exceeds \
             {MAX_TILE_COUNT_FACTOR}x + {MAX_TILE_COUNT_OFFSET}",
        )));
    }
    Ok(())
}

/// A pair of identically configured AIM policies for one differential
/// case: one evaluates the march, the other the analytic kernel.
fn policy_pair(
    geometry: IntersectionGeometry,
    buffers: BufferModel,
    grid_side: usize,
    sim_step: Seconds,
) -> (AimPolicy, AimPolicy) {
    (
        AimPolicy::new(geometry, buffers, grid_side, sim_step),
        AimPolicy::new(geometry, buffers, grid_side, sim_step).with_analytic(true),
    )
}

/// Runs one proposal through both kernels and applies the full contract.
#[allow(clippy::too_many_arguments)]
fn differential_case(
    geometry: IntersectionGeometry,
    buffers: BufferModel,
    grid_side: usize,
    sim_step: Seconds,
    movement: Movement,
    spec: &VehicleSpec,
    toa: TimePoint,
    entry: EntryMode,
) -> Result<bool, CaseError> {
    let (mut marched, mut analytic) = policy_pair(geometry, buffers, grid_side, sim_step);
    let verdict_m = marched.propose_marched(movement, spec, toa, entry);
    let verdict_a = analytic.propose_analytic(movement, spec, toa, entry);
    if verdict_m != verdict_a {
        return Err(CaseError::fail(format!(
            "kernel verdicts disagree for {movement:?} {entry:?}: marched {verdict_m}, \
             analytic {verdict_a}"
        )));
    }
    if verdict_m {
        check_superset_with_bounded_slack(marched.footprint(), analytic.footprint())?;
    }
    Ok(verdict_m)
}

forall! {
    /// The headline differential property: random movements, entry
    /// modes, speeds, arrival times, grid resolutions and simulation
    /// steps — identical verdicts, superset tile coverage, bounded slack.
    fn analytic_footprint_matches_marched_oracle(
        movement_idx in 0usize..12,
        entry_pick in (0u64..2, 0.05f64..3.0),
        toa_s in 0.0f64..50.0,
        grid_pick in 0u64..3,
        step_pick in 0u64..2,
    ) {
        let geometry = IntersectionGeometry::scale_model();
        let buffers = BufferModel::scale_model();
        let spec = VehicleSpec::scale_model();
        let movement = Movement::all()[movement_idx];
        let (kind, speed) = entry_pick;
        let entry = if kind == 0 {
            EntryMode::Constant(MetersPerSecond::new(speed))
        } else {
            EntryMode::Launch { entry_speed: MetersPerSecond::new(speed) }
        };
        let grid_side = [3, 5, 8][grid_pick as usize];
        let sim_step = Seconds::from_millis([20.0, 50.0][step_pick as usize]);
        let accepted = differential_case(
            geometry,
            buffers,
            grid_side,
            sim_step,
            movement,
            &spec,
            TimePoint::new(toa_s),
            entry,
        )?;
        // Every generated case is schedulable (v ≥ 0.05 m/s crosses the
        // scale box in well under the 120 s bail-out), so the property
        // exercises the footprint path, not just the reject path.
        ck_assert!(accepted, "generated proposal unexpectedly rejected");
    }
}

/// A footprint as exact bit patterns, for bit-for-bit comparison.
fn footprint_bits(intervals: &[TileInterval]) -> Vec<(usize, u64, u64)> {
    intervals
        .iter()
        .map(|iv| {
            (
                iv.tile,
                iv.from.value().to_bits(),
                iv.until.value().to_bits(),
            )
        })
        .collect()
}

forall! {
    /// The analytic kernel caches one band table per (movement,
    /// footprint, sweep sample count). Reusing one policy over a stream of
    /// proposals — distinct constant speeds and standstill-to-cruise
    /// launches across all twelve movements, on either testbed at its
    /// simulation settings — returns the same verdict and the same
    /// footprint, bit for bit, as a fresh policy (empty cache) per
    /// proposal. A key that let two sample counts share a table would
    /// hand a later proposal a sweep of the wrong length.
    fn band_cache_reuse_matches_a_fresh_policy(
        full_scale in bools(),
        stream in vec((0usize..12, bools(), 0.0f64..1.0, 0.0f64..50.0), 1..32),
    ) {
        let (geometry, buffers, spec, grid_side, sim_step) = if full_scale {
            (
                IntersectionGeometry::full_scale(),
                BufferModel::full_scale(),
                VehicleSpec::full_scale(),
                3,
                Seconds::from_millis(50.0),
            )
        } else {
            (
                IntersectionGeometry::scale_model(),
                BufferModel::scale_model(),
                VehicleSpec::scale_model(),
                8,
                Seconds::from_millis(20.0),
            )
        };
        let policy = || AimPolicy::new(geometry, buffers, grid_side, sim_step).with_analytic(true);
        let mut reused = policy();
        for (movement_idx, launch, frac, toa_s) in stream {
            let movement = Movement::all()[movement_idx];
            let entry = if launch {
                EntryMode::Launch { entry_speed: spec.v_max * frac }
            } else {
                EntryMode::Constant(spec.v_max * (0.05 + 0.95 * frac))
            };
            let toa = TimePoint::new(toa_s);
            let mut fresh = policy();
            let verdict = reused.propose_analytic(movement, &spec, toa, entry);
            ck_assert_eq!(
                verdict,
                fresh.propose_analytic(movement, &spec, toa, entry),
                "verdicts differ for {movement:?} {entry:?}"
            );
            if verdict {
                ck_assert_eq!(
                    footprint_bits(reused.footprint()),
                    footprint_bits(fresh.footprint()),
                    "cached footprint differs for {movement:?} {entry:?}"
                );
            }
        }
    }
}

/// A crawling constant-speed proposal (below the 1 µm/s floor) is
/// rejected identically by both kernels — the march would never
/// terminate on it, the analytic kernel short-circuits.
#[test]
fn crawl_proposal_rejected_by_both_kernels() {
    let (mut marched, mut analytic) = policy_pair(
        IntersectionGeometry::scale_model(),
        BufferModel::scale_model(),
        8,
        Seconds::from_millis(20.0),
    );
    let spec = VehicleSpec::scale_model();
    for speed in [0.0, 1e-9, 1e-7, 1e-6] {
        let entry = EntryMode::Constant(MetersPerSecond::new(speed));
        assert!(!marched.propose_marched(Movement::all()[0], &spec, TimePoint::ZERO, entry));
        assert!(!analytic.propose_analytic(Movement::all()[0], &spec, TimePoint::ZERO, entry));
    }
}

/// The march's defensive 120 s bail-out (a crossing that never clears
/// the box in time) is mirrored exactly: a crawling launch capped at
/// 5 mm/s needs > 120 s even on the shortest (right-turn) path and is
/// rejected by both kernels, while a 5 cm/s cap (≲ 60 s crossing) is
/// accepted by both. Covers AIM's only reject-by-timeout branch with
/// both verdict polarities.
#[test]
fn timeout_bailout_agrees_between_kernels() {
    let geometry = IntersectionGeometry::scale_model();
    let buffers = BufferModel::scale_model();
    for (v_max, expect_accept) in [(0.005, false), (0.05, true)] {
        let mut spec = VehicleSpec::scale_model();
        spec.v_max = MetersPerSecond::new(v_max);
        let entry = EntryMode::Launch {
            entry_speed: MetersPerSecond::ZERO,
        };
        for movement in Movement::all() {
            let (mut marched, mut analytic) =
                policy_pair(geometry, buffers, 8, Seconds::from_millis(20.0));
            let vm = marched.propose_marched(movement, &spec, TimePoint::ZERO, entry);
            let va = analytic.propose_analytic(movement, &spec, TimePoint::ZERO, entry);
            assert_eq!(
                vm, va,
                "timeout verdicts diverge for {movement:?} at v_max {v_max}"
            );
            assert_eq!(
                vm, expect_accept,
                "unexpected verdict for {movement:?} at v_max {v_max}"
            );
        }
    }
}

/// Full-scale geometry (coarse 3×3 grid, 50 ms step), all twelve
/// movements, both entry modes: verdict equality and the superset /
/// slack contract hold on the second testbed's constants too.
#[test]
fn full_scale_agreement_across_all_movements() {
    let geometry = IntersectionGeometry::full_scale();
    let buffers = BufferModel::full_scale();
    let spec = VehicleSpec::full_scale();
    let entries = [
        EntryMode::Constant(spec.v_max * (2.0 / 3.0)),
        EntryMode::Launch {
            entry_speed: MetersPerSecond::new(1.0),
        },
    ];
    for movement in Movement::all() {
        for entry in entries {
            let accepted = differential_case(
                geometry,
                buffers,
                3,
                Seconds::from_millis(50.0),
                movement,
                &spec,
                TimePoint::new(7.5),
                entry,
            )
            .unwrap_or_else(|e| panic!("{movement:?} {entry:?}: {e}"));
            assert!(accepted, "full-scale proposal rejected for {movement:?}");
        }
    }
}
