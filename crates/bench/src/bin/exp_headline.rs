//! E7 — the abstract's headline numbers, reproduced in one run:
//!
//! 1. scale model: Crossroads reduces average wait by 24% vs VT-IM;
//! 2. simulation: 1.62x higher throughput than VT-IM (worst case),
//!    1.36x better than AIM (the thesis text mixes "average/worst"
//!    phrasing; we report both aggregations for both baselines).
//!
//! Both stages fan out over the `CROSSROADS_THREADS` worker pool; each
//! point is a self-seeded simulation, so the output never depends on the
//! thread count.

use crossroads_bench::{carried_per_lane, knobs, par_sweep, run_sweep_point, SWEEP_RATES};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::run_simulation;
use crossroads_traffic::{scale_model_scenario, ScenarioId};

fn scale_model_reduction() -> f64 {
    let points: Vec<(ScenarioId, u64)> = ScenarioId::all()
        .into_iter()
        .flat_map(|id| (0..10).map(move |repeat| (id, repeat)))
        .collect();
    let waits = par_sweep(
        "headline_scale_model",
        &points,
        |&(id, repeat)| format!("scenario{}r{repeat}", id.0),
        |&(id, repeat)| {
            let w = scale_model_scenario(id, repeat);
            let seed = repeat * 1313 + 7;
            let a = run_simulation(&knobs().scale_model(PolicyKind::VtIm).with_seed(seed), &w);
            let b = run_simulation(
                &knobs().scale_model(PolicyKind::Crossroads).with_seed(seed),
                &w,
            );
            assert!(a.all_completed() && b.all_completed());
            (
                a.metrics.average_wait().value(),
                b.metrics.average_wait().value(),
            )
        },
    );
    let vt: f64 = waits.iter().map(|&(v, _)| v).sum();
    let xr: f64 = waits.iter().map(|&(_, x)| x).sum();
    (1.0 - xr / vt) * 100.0
}

fn sweep_ratios() -> (f64, f64, f64, f64) {
    let points: Vec<(f64, PolicyKind)> = SWEEP_RATES
        .into_iter()
        .flat_map(|rate| PolicyKind::ALL.map(|p| (rate, p)))
        .collect();
    let carried = par_sweep(
        "headline_sweep",
        &points,
        |&(rate, policy)| format!("{policy}@{rate}"),
        |&(rate, policy)| carried_per_lane(&run_sweep_point(policy, rate, 42)),
    );
    let mut vs_vt = Vec::new();
    let mut vs_aim = Vec::new();
    for chunk in carried.chunks(PolicyKind::ALL.len()) {
        let (vt, xr, aim) = (
            chunk[PolicyKind::VtIm.index()],
            chunk[PolicyKind::Crossroads.index()],
            chunk[PolicyKind::Aim.index()],
        );
        vs_vt.push(xr / vt);
        vs_aim.push(xr / aim);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    (max(&vs_vt), avg(&vs_vt), max(&vs_aim), avg(&vs_aim))
}

fn main() {
    println!("# E7 — headline claims\n");
    let reduction = scale_model_reduction();
    let (vt_worst, vt_avg, aim_worst, aim_avg) = sweep_ratios();

    crossroads_bench::table_header(&["claim", "paper", "measured"]);
    println!("| scale-model wait reduction vs VT-IM | 24% | {reduction:.0}% |");
    println!("| throughput vs VT-IM (worst case) | 1.62x | {vt_worst:.2}x |");
    println!("| throughput vs VT-IM (average) | 1.36x | {vt_avg:.2}x |");
    println!("| throughput vs AIM (worst case) | 1.28x | {aim_worst:.2}x |");
    println!("| throughput vs AIM (average) | 1.15x | {aim_avg:.2}x |");
}
