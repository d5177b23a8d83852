//! Byte-exact determinism of the corridor grid sweep: the table rows
//! `exp_grid_sweep` prints are a pure function of `(point, seed)`, so
//! fanning the grid out over a worker pool must reproduce the
//! sequential rows byte for byte at any thread count — the worker count
//! must be unobservable in the output — as must the corridor engine
//! itself: the windowed-parallel engine reproduces the serial rows and
//! full outcome at any shard-worker count.
//!
//! The points are small versions of the grid's: K ∈ {1, 4} at 0.08
//! car/s per arterial direction, 100 vehicles per intersection, built
//! here from the library API, so no environment variable changes them.

use crossroads_bench::{grid_demand, grid_row, GridPoint, WorkerPool, GRID_SEED};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{run_corridor, CorridorConfig, CorridorOutcome, SimConfig};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::{generate_corridor, CorridorDemand};

fn points() -> Vec<GridPoint> {
    [1, 4]
        .into_iter()
        .flat_map(|k| {
            PolicyKind::ALL.map(|policy| GridPoint {
                policy,
                k,
                rate: 0.08,
            })
        })
        .collect()
}

/// One small grid point on `shard_workers` (0 runs the serial engine),
/// asserted sound as `exp_grid_sweep` asserts its points.
fn run(p: &GridPoint, shard_workers: usize) -> CorridorOutcome {
    let sim = SimConfig::full_scale(p.policy).with_seed(GRID_SEED);
    #[allow(clippy::cast_possible_truncation)]
    let demand = CorridorDemand {
        total_vehicles: 100 * p.k as u32,
        ..grid_demand(&sim, p.k, p.rate)
    };
    let mut rng = StdRng::seed_from_u64(GRID_SEED + 2000);
    let (workload, entry_ims) = generate_corridor(&demand, &mut rng);
    let config = CorridorConfig::new(sim, p.k).with_shard_workers(shard_workers);
    let out = run_corridor(&config, &workload, &entry_ims);
    assert!(out.all_completed() && out.is_safe(), "{p:?} is unsound");
    out
}

#[test]
fn grid_rows_are_byte_identical_at_any_thread_count() {
    let points = points();
    let sequential: Vec<String> = points.iter().map(|p| grid_row(p, &run(p, 0))).collect();
    // Sanity: the rows actually carry figures, not placeholders.
    for row in &sequential {
        assert!(row.matches('|').count() >= 8, "malformed row: {row}");
    }

    for threads in [1usize, 4, 7] {
        let parallel = WorkerPool::new(threads).map(&points, |_, p| grid_row(p, &run(p, 0)));
        assert_eq!(
            sequential.iter().map(String::as_bytes).collect::<Vec<_>>(),
            parallel.iter().map(String::as_bytes).collect::<Vec<_>>(),
            "{threads}-thread grid sweep diverged from the sequential rows"
        );
    }
}

#[test]
fn grid_rows_are_byte_identical_at_any_shard_worker_count() {
    let points = points();
    let run_all = |workers| -> Vec<_> { points.iter().map(|p| run(p, workers)).collect() };

    // Serial corridor engine as the baseline (shard workers 0)...
    let serial = run_all(0);
    // ...vs the windowed-parallel engine at several worker counts: the
    // engine choice and the worker count must be unobservable in the full
    // outcome, and so in the rows, exactly like the sweep pool width above.
    for workers in [2usize, 4, 7, 8] {
        let windowed = run_all(workers);
        assert!(
            windowed == serial,
            "{workers}-shard-worker corridor outcome diverged from the serial engine"
        );
        for ((p, s), w) in points.iter().zip(&serial).zip(&windowed) {
            assert_eq!(grid_row(p, s), grid_row(p, w), "{workers} shard workers");
        }
    }
}
