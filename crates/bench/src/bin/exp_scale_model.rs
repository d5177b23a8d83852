//! E4 — Fig. 7.1: average wait time on the 1/10-scale model, ten
//! scenarios x ten repeats, VT-IM vs Crossroads.
//!
//! Paper reference: Crossroads is 1.24x better in the worst case
//! (scenario 1), 1.08x in the best case (scenario 10), ~24% lower wait
//! overall.

use crossroads_bench::{knobs, par_run};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::run_simulation;
use crossroads_traffic::{scale_model_scenario, ScenarioId};

const REPEATS: u64 = 10;

fn main() {
    println!("# E4 — Fig. 7.1: scale-model average wait, 10 scenarios x {REPEATS} repeats\n");
    crossroads_bench::table_header(&[
        "scenario",
        "VT-IM wait (s)",
        "Crossroads wait (s)",
        "VT/XR ratio",
    ]);

    // One point per (scenario, policy, repeat) simulation, fanned out on
    // the `CROSSROADS_THREADS` worker pool.
    let points: Vec<(ScenarioId, PolicyKind, u64)> = ScenarioId::all()
        .into_iter()
        .flat_map(|id| {
            [PolicyKind::VtIm, PolicyKind::Crossroads]
                .into_iter()
                .flat_map(move |policy| (0..REPEATS).map(move |repeat| (id, policy, repeat)))
        })
        .collect();
    let waits = par_run(&points, |&(id, policy, repeat)| {
        let workload = scale_model_scenario(id, repeat);
        let config = knobs().scale_model(policy).with_seed(repeat * 1313 + 7);
        let outcome = run_simulation(&config, &workload);
        assert!(
            outcome.all_completed(),
            "{policy} {id} repeat {repeat}: incomplete"
        );
        assert!(
            outcome.safety.is_safe(),
            "{policy} {id} repeat {repeat}: unsafe"
        );
        outcome.metrics.average_wait().value()
    });
    let mean = |scenario: ScenarioId, policy: PolicyKind| {
        let total: f64 = points
            .iter()
            .zip(&waits)
            .filter(|(&(id, p, _), _)| id == scenario && p == policy)
            .map(|(_, &w)| w)
            .sum();
        total / REPEATS as f64
    };

    let mut vt_sum = 0.0;
    let mut xr_sum = 0.0;
    let mut worst_ratio: f64 = 0.0;
    let mut best_ratio = f64::INFINITY;
    for id in ScenarioId::all() {
        let vt = mean(id, PolicyKind::VtIm);
        let xr = mean(id, PolicyKind::Crossroads);
        vt_sum += vt;
        xr_sum += xr;
        let ratio = vt / xr.max(1e-9);
        worst_ratio = worst_ratio.max(ratio);
        best_ratio = best_ratio.min(ratio);
        println!("| {} | {vt:.3} | {xr:.3} | {ratio:.2}x |", id.0);
    }
    let (vt_avg, xr_avg) = (vt_sum / 10.0, xr_sum / 10.0);
    println!(
        "| **AVG** | {vt_avg:.3} | {xr_avg:.3} | {:.2}x |",
        vt_avg / xr_avg
    );

    println!("\n## Paper vs measured\n");
    crossroads_bench::table_header(&["claim", "paper", "measured"]);
    println!("| largest scenario ratio | 1.24x | {worst_ratio:.2}x |");
    println!("| smallest scenario ratio | 1.08x | {best_ratio:.2}x |");
    println!(
        "| average wait reduction | 24% | {:.0}% |",
        (1.0 - xr_avg / vt_avg) * 100.0
    );
}
