//! Byte-exact determinism of the corridor grid sweep: the table rows
//! `exp_grid_sweep` prints are a pure function of `(point, seed)`, so
//! fanning the grid out over a worker pool must reproduce the
//! sequential rows byte for byte at any thread count — the worker count
//! must be unobservable in the output — as must the corridor engine
//! itself: the windowed-parallel engine reproduces the serial rows and
//! full outcome at any shard-worker count.

use crossroads_bench::{
    grid_points, grid_row, run_grid_point, run_grid_point_sharded, WorkerPool, GRID_SEED,
};

#[test]
fn grid_rows_are_byte_identical_at_any_thread_count() {
    // Pin fast mode so the test's point set does not depend on the
    // environment it runs in (this integration test owns its process).
    std::env::set_var("CROSSROADS_SWEEP_FAST", "1");
    let points = grid_points();
    assert!(
        points.len() >= 6,
        "fast grid should still cover all policies"
    );

    let sequential: Vec<String> = points
        .iter()
        .map(|p| grid_row(p, &run_grid_point(p, GRID_SEED)))
        .collect();
    // Sanity: the rows actually carry figures, not placeholders.
    for row in &sequential {
        assert!(row.matches('|').count() >= 8, "malformed row: {row}");
    }

    for threads in [1usize, 4, 7] {
        let parallel = WorkerPool::new(threads)
            .map(&points, |_, p| grid_row(p, &run_grid_point(p, GRID_SEED)));
        assert_eq!(
            sequential.iter().map(String::as_bytes).collect::<Vec<_>>(),
            parallel.iter().map(String::as_bytes).collect::<Vec<_>>(),
            "{threads}-thread grid sweep diverged from the sequential rows"
        );
    }
}

#[test]
fn grid_rows_are_byte_identical_at_any_shard_worker_count() {
    std::env::set_var("CROSSROADS_SWEEP_FAST", "1");
    let points = grid_points();
    let run = |workers| -> Vec<_> {
        points
            .iter()
            .map(|p| run_grid_point_sharded(p, GRID_SEED, workers))
            .collect()
    };

    // Serial corridor engine as the baseline (shard workers 0)...
    let serial = run(0);
    // ...vs the windowed-parallel engine at several worker counts: the
    // engine choice and the worker count must be unobservable in the full
    // outcome, and so in the rows, exactly like the sweep pool width above.
    for workers in [2usize, 4, 7, 8] {
        let windowed = run(workers);
        assert!(
            windowed == serial,
            "{workers}-shard-worker corridor outcome diverged from the serial engine"
        );
        for ((p, s), w) in points.iter().zip(&serial).zip(&windowed) {
            assert_eq!(grid_row(p, s), grid_row(p, w), "{workers} shard workers");
        }
    }
}
