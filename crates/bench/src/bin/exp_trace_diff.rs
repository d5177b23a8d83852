//! E12 — replay divergence diff: record the flight-recorder trace of the
//! same experiment twice and name the first diverging record.
//!
//! The determinism contract says two runs of the same (config, workload)
//! pair are identical at any worker-pool width. When that contract
//! breaks, final stdout only says *that* the runs differ; the trace diff
//! says *where* — the exact DES dispatch, sim time, vehicle, attempt and
//! event at which the two event streams first disagree.
//!
//! Three demonstrations, all deterministic:
//!
//! 1. **Same pair, different pool widths** — every (policy, seed) point
//!    traced through a 1-thread and a 4-thread pool: zero divergences.
//! 2. **Disk round trip** — a trace encoded to the binary format, written
//!    out, read back and re-encoded must be byte-identical.
//! 3. **Perturbed pair** — the same point with and without the fault
//!    model: the report localizes the first record the faults touched.

use crossroads_bench::{fast_sweep, knobs, sweep_seeds, WorkerPool};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{run_simulation_traced, SimConfig};
use crossroads_net::{FaultConfig, GilbertElliott};
use crossroads_trace::codec::{decode, encode};
use crossroads_trace::diff::{divergence_report, first_divergence};
use crossroads_trace::{Recorder, Trace};
use crossroads_traffic::{scale_model_scenario, ScenarioId};
use crossroads_units::Seconds;

/// Roomy append-mode capacity: no scale-model scenario overflows it, so
/// the diffs below always compare complete traces.
const CAP: usize = 1 << 20;

fn traced(config: &SimConfig, seed: u64) -> Trace {
    let workload = scale_model_scenario(ScenarioId(1), seed);
    let mut rec = Recorder::fixed(CAP);
    let _ = run_simulation_traced(config, &workload, &mut rec);
    let trace = rec.into_trace();
    assert_eq!(trace.dropped, 0, "trace capacity too small");
    trace
}

fn traced_point(policy: PolicyKind, seed: u64) -> Trace {
    traced(&knobs().scale_model(policy).with_seed(seed), seed)
}

/// The fault model used for the perturbed pair: bursty loss on both link
/// directions plus frame chaos and a recurring IM outage.
fn perturbing_faults() -> FaultConfig {
    FaultConfig {
        uplink: GilbertElliott::bursty(0.2),
        downlink: GilbertElliott::bursty(0.2),
        duplicate_probability: 0.02,
        reorder_probability: 0.05,
        extra_delay: Seconds::from_millis(220.0),
        outage_start: Seconds::new(2.0),
        outage_duration: Seconds::new(1.0),
        outage_period: Seconds::new(8.0),
    }
}

fn main() {
    let seeds = sweep_seeds();
    let policies: Vec<PolicyKind> = if fast_sweep() {
        vec![PolicyKind::Crossroads]
    } else {
        PolicyKind::ALL.to_vec()
    };
    let points: Vec<(PolicyKind, u64)> = policies
        .iter()
        .flat_map(|&p| seeds.iter().map(move |&s| (p, s)))
        .collect();

    println!("## Trace diff: replay divergence localization\n");

    // 1. The determinism contract, checked record by record.
    let one = WorkerPool::new(1).map(&points, |_, &(p, s)| encode(&traced_point(p, s)));
    let four = WorkerPool::new(4).map(&points, |_, &(p, s)| encode(&traced_point(p, s)));
    let mut diverged = 0usize;
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        let left = decode(a).expect("1-thread trace decodes");
        let right = decode(b).expect("4-thread trace decodes");
        if let Some(report) = divergence_report(&left, &right, 3) {
            diverged += 1;
            let (policy, seed) = points[i];
            println!("{policy} seed {seed} DIVERGED:\n{report}");
        }
    }
    println!(
        "same-pair replay ({} points, 1-thread vs 4-thread pools): {diverged} divergences",
        points.len()
    );

    // 2. The on-disk format as exchange medium.
    let bytes = encode(&traced_point(points[0].0, points[0].1));
    let path = std::env::temp_dir().join(format!("crossroads-trace-{}.bin", std::process::id()));
    std::fs::write(&path, &bytes).expect("trace file writes");
    let read_back = std::fs::read(&path).expect("trace file reads");
    let _ = std::fs::remove_file(&path);
    let reloaded = decode(&read_back).expect("trace file decodes");
    println!(
        "disk round trip: {} bytes, {} records, re-encode identical: {}",
        bytes.len(),
        reloaded.len(),
        encode(&reloaded) == bytes,
    );

    // 3. A deliberately perturbed pair: same (policy, seed, workload),
    //    fault model on vs off — the report names the first record the
    //    injected faults touched.
    let (policy, seed) = points[0];
    let clean = traced_point(policy, seed);
    let faulted = traced(
        &knobs()
            .scale_model(policy)
            .with_seed(seed)
            .with_faults(perturbing_faults()),
        seed,
    );
    println!("\nperturbed pair ({policy} seed {seed}, faults off vs on):");
    match divergence_report(&clean, &faulted, 3) {
        Some(report) => print!("{report}"),
        None => println!("no divergence (unexpected: the fault model changed nothing)"),
    }
    // The diff is the exhibit; first_divergence is the machine answer.
    assert!(
        first_divergence(&clean, &faulted).is_some(),
        "the fault model must perturb the trace"
    );
}
