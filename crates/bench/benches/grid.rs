//! Corridor transcript gate: the windowed-parallel corridor engine
//! (DESIGN.md §7) must reproduce the serial engine's full outcome —
//! records, counters, audits, end time, handoffs — at 2/4/8 shard
//! workers on a K = 4 grid point.
//!
//! A `harness = false` bench target that times nothing: per-K serial
//! and windowed wall-clock figures come from `exp_grid_sweep`, which
//! writes them to `BENCH_sweep.json`. Run with
//! `cargo bench --bench grid`; `ci.sh` runs it with
//! `CROSSROADS_SWEEP_FAST=1`, which sizes the grid point.

use crossroads_bench::{run_grid_point_sharded, GridPoint, GRID_SEED};
use crossroads_core::policy::PolicyKind;

fn main() {
    let gate = GridPoint {
        policy: PolicyKind::Crossroads,
        k: 4,
        rate: 0.08,
    };
    let serial = run_grid_point_sharded(&gate, GRID_SEED, 0);
    for workers in [2usize, 4, 8] {
        let windowed = run_grid_point_sharded(&gate, GRID_SEED, workers);
        assert!(
            windowed.metrics.records() == serial.metrics.records()
                && windowed.metrics.counters() == serial.metrics.counters()
                && windowed.ended_at == serial.ended_at
                && windowed.handoffs == serial.handoffs
                && windowed.safety == serial.safety,
            "corridor transcript diverged on {workers} shard workers"
        );
    }
    println!(
        "corridor transcript: windowed == serial over {} vehicles at K=4 x {{2,4,8}} shard workers",
        serial.spawned
    );
}
