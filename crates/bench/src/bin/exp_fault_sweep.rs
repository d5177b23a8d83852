//! E11 — fault injection: burst intensity × IM outage duration, for the
//! three policies at a moderate flow rate.
//!
//! The paper measures the V2I loop only while the WC-RTD contract holds;
//! this sweep measures what each protocol does when it breaks — bursty
//! Gilbert–Elliott frame loss, duplicated/reordered frames whose
//! displacement exceeds the 150 ms budget, and scheduled IM crash/restart
//! windows. The headline invariant (asserted by `run_fault_point` on every
//! grid point): **no fault intensity ever produces a safety-audit
//! violation or a stranded vehicle** — faults cost delay, never safety.
//! The expected shape: Crossroads degrades gracefully (late commands are
//! detected and discarded, vehicles fall back to a safe stop and re-ask),
//! while the deadline-miss and fallback counters show how much of the
//! fault load each protocol absorbed.

use crossroads_bench::{run_fault_point, table_header, SWEEP_SEEDS};
use crossroads_core::policy::PolicyKind;

/// Long-run mean burst-loss rates injected on both link directions.
const BURSTS: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// IM outage durations (seconds), recurring every 20 s.
const OUTAGES: [f64; 3] = [0.0, 1.0, 2.0];

/// The flow rate the whole grid runs at (cars/second/lane) — high enough
/// for queueing to interact with the faults, below the saturation knee.
const RATE: f64 = 0.3;

fn main() {
    let mut points: Vec<(PolicyKind, f64, f64, u64)> = Vec::new();
    for policy in PolicyKind::ALL {
        for burst in BURSTS {
            for outage in OUTAGES {
                for seed in SWEEP_SEEDS {
                    points.push((policy, burst, outage, seed));
                }
            }
        }
    }

    let outcomes = crossroads_bench::par_run(&points, |&(policy, burst, outage, seed)| {
        run_fault_point(policy, RATE, burst, outage, seed)
    });

    println!("## Fault sweep: burst loss x IM outage at {RATE} cars/s/lane\n");
    println!(
        "Safety audit: PASS on all {} runs (zero violations at every fault intensity).\n",
        points.len()
    );
    table_header(&[
        "policy",
        "burst",
        "outage (s)",
        "avg wait (s)",
        "deadline misses",
        "late discards",
        "burst losses",
        "outage drops",
        "fallback stops",
    ]);

    #[allow(clippy::cast_precision_loss)]
    let n_seeds = SWEEP_SEEDS.len() as f64;
    for policy in PolicyKind::ALL {
        for burst in BURSTS {
            for outage in OUTAGES {
                let mut wait = 0.0;
                let mut deadline_misses = 0u64;
                let mut late_discards = 0u64;
                let mut burst_losses = 0u64;
                let mut outage_drops = 0u64;
                let mut fallback_stops = 0u64;
                for (point, outcome) in points.iter().zip(&outcomes) {
                    if point.0 != policy || point.1 != burst || point.2 != outage {
                        continue;
                    }
                    wait += outcome.metrics.average_wait().value();
                    let c = outcome.metrics.counters();
                    deadline_misses += c.deadline_misses;
                    late_discards += c.late_discards;
                    burst_losses += c.burst_losses;
                    outage_drops += c.im_outage_drops;
                    fallback_stops += c.fallback_stops;
                }
                println!(
                    "| {policy} | {burst:.2} | {outage:.1} | {:.3} | {deadline_misses} | {late_discards} | {burst_losses} | {outage_drops} | {fallback_stops} |",
                    wait / n_seeds,
                );
            }
        }
    }
}
