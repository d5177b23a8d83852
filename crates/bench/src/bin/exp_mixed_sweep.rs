//! E16 — mixed traffic: compliance-mix grid × faulty-execution intensity,
//! for the three policies with the runtime safety filter armed.
//!
//! The paper's correctness argument assumes fully compliant execution;
//! this sweep measures the policies behind the policy-agnostic runtime
//! safety filter when that assumption breaks — human drivers crossing by
//! gap acceptance without V2I, faulty vehicles mis-executing their
//! granted profiles by a bounded speed/launch-timing error, and
//! emergency vehicles preempting the box. The headline invariant
//! (asserted by `run_mixed_point` on every grid point): **no compliance
//! mix or fault intensity ever produces a safety-audit violation or a
//! stranded vehicle** — non-compliance costs throughput, never safety.
//! The intervention counters show how often the filter had to veto a
//! granted downlink and how often emergency preemption flushed the box.

use crossroads_bench::{mixed_point, run_mixed_point, table_header, SWEEP_SEEDS};
use crossroads_core::policy::PolicyKind;
use crossroads_traffic::MixedConfig;

/// One compliance mix of the grid: shares of humans, faulty executors
/// and emergency vehicles (the rest is managed).
struct Mix {
    label: &'static str,
    human: f64,
    faulty: f64,
    emergency: f64,
}

/// Compliance mixes swept: humans only, faulty executors only, and the
/// full adversarial blend including emergency vehicles.
const MIXES: [Mix; 3] = [
    Mix {
        label: "humans",
        human: 0.10,
        faulty: 0.0,
        emergency: 0.0,
    },
    Mix {
        label: "faulty",
        human: 0.0,
        faulty: 0.10,
        emergency: 0.0,
    },
    Mix {
        label: "full-mix",
        human: 0.08,
        faulty: 0.05,
        emergency: 0.02,
    },
];

/// Faulty-execution error envelopes swept: `(speed_error, timing_error
/// seconds)` — clean execution as the baseline column, then a hostile
/// 30% speed mis-tracking with up to 2 s launch slip.
const FAULTS: [(f64, f64); 2] = [(0.0, 0.0), (0.3, 2.0)];

/// The flow rate the whole grid runs at (cars/second/lane) — busy enough
/// that non-compliant vehicles interact with queued managed traffic.
const RATE: f64 = 0.2;

fn main() {
    let mut points: Vec<(PolicyKind, usize, usize, u64)> = Vec::new();
    for policy in PolicyKind::ALL {
        for mi in 0..MIXES.len() {
            for fi in 0..FAULTS.len() {
                for seed in SWEEP_SEEDS {
                    points.push((policy, mi, fi, seed));
                }
            }
        }
    }

    let grid_mixed = |mi: usize, fi: usize| -> MixedConfig {
        let m = &MIXES[mi];
        let (speed_err, timing_err) = FAULTS[fi];
        mixed_point(m.human, m.faulty, m.emergency, speed_err, timing_err)
    };

    let outcomes = crossroads_bench::par_run(&points, |&(policy, mi, fi, seed)| {
        run_mixed_point(policy, RATE, grid_mixed(mi, fi), seed)
    });

    println!("## Mixed-traffic sweep: compliance mix x execution error at {RATE} cars/s/lane\n");
    println!(
        "Safety audit: PASS on all {} runs (zero violations at every compliance mix).\n",
        points.len()
    );
    table_header(&[
        "policy",
        "mix",
        "speed err",
        "slip (s)",
        "avg wait (s)",
        "filter vetoes",
        "noncompliant conflicts",
        "preemptions",
        "fallback stops",
    ]);

    #[allow(clippy::cast_precision_loss)]
    let n_seeds = SWEEP_SEEDS.len() as f64;
    let mut total_interventions = 0u64;
    for policy in PolicyKind::ALL {
        for (mi, mix) in MIXES.iter().enumerate() {
            for (fi, &(speed_err, timing_err)) in FAULTS.iter().enumerate() {
                let mut wait = 0.0;
                let mut vetoes = 0u64;
                let mut conflicts = 0u64;
                let mut preemptions = 0u64;
                let mut fallback_stops = 0u64;
                for (point, outcome) in points.iter().zip(&outcomes) {
                    if point.0 != policy || point.1 != mi || point.2 != fi {
                        continue;
                    }
                    wait += outcome.metrics.average_wait().value();
                    let c = outcome.metrics.counters();
                    vetoes += c.filter_interventions;
                    conflicts += c.noncompliant_conflicts;
                    preemptions += c.emergency_preemptions;
                    fallback_stops += c.fallback_stops;
                }
                total_interventions += vetoes;
                println!(
                    "| {policy} | {} | {speed_err:.2} | {timing_err:.1} | {:.3} | {vetoes} | {conflicts} | {preemptions} | {fallback_stops} |",
                    mix.label,
                    wait / n_seeds,
                );
            }
        }
    }
    assert!(
        total_interventions > 0,
        "the safety filter never intervened across the whole grid — \
         the sweep is not exercising the protection it claims to measure"
    );
}
