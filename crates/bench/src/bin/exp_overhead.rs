//! E6 — Ch. 7.2: IM computation and network overhead.
//!
//! Paper reference: AIM has up to 16x higher computation per admitted
//! vehicle than Crossroads; Crossroads/VT-IM network traffic is up to
//! 20x lower than AIM's.
//!
//! The (rate, policy) grid runs on the `CROSSROADS_THREADS` worker pool.

use crossroads_bench::{par_run, run_sweep_point};
use crossroads_core::policy::PolicyKind;

const RATES: [f64; 3] = [0.2, 0.6, 1.25];

fn main() {
    println!("# E6 — Ch. 7.2: computation and network overhead per policy\n");
    crossroads_bench::table_header(&[
        "rate",
        "policy",
        "IM ops/request",
        "IM busy (s)",
        "messages",
        "requests/vehicle",
    ]);

    let points: Vec<(f64, PolicyKind)> = RATES
        .into_iter()
        .flat_map(|rate| PolicyKind::ALL.map(|p| (rate, p)))
        .collect();
    let outcomes = par_run(&points, |&(rate, policy)| run_sweep_point(policy, rate, 42));

    let mut worst_ops_ratio: f64 = 0.0;
    let mut worst_msg_ratio: f64 = 0.0;
    for (chunk_points, chunk) in points
        .chunks(PolicyKind::ALL.len())
        .zip(outcomes.chunks(PolicyKind::ALL.len()))
    {
        let mut ops_per_req = [0.0f64; PolicyKind::ALL.len()];
        let mut msgs = [0.0f64; PolicyKind::ALL.len()];
        for (&(rate, policy), out) in chunk_points.iter().zip(chunk) {
            let c = out.metrics.counters();
            let opr = c.im_ops as f64 / c.im_requests.max(1) as f64;
            ops_per_req[policy.index()] = opr;
            msgs[policy.index()] = c.messages as f64;
            println!(
                "| {rate} | {policy} | {opr:.1} | {:.2} | {} | {:.2} |",
                c.im_busy.value(),
                c.messages,
                out.metrics.total_requests() as f64 / out.metrics.completed().max(1) as f64,
            );
        }
        worst_ops_ratio = worst_ops_ratio.max(
            ops_per_req[PolicyKind::Aim.index()] / ops_per_req[PolicyKind::Crossroads.index()],
        );
        worst_msg_ratio = worst_msg_ratio
            .max(msgs[PolicyKind::Aim.index()] / msgs[PolicyKind::Crossroads.index()]);
    }

    println!("\n## Decision-latency SLO (per policy, all rates pooled)\n");
    crossroads_bench::table_header(&["policy", "decisions", "p50", "p95", "p99", "max"]);
    let mut pooled: [crossroads_metrics::Histogram; PolicyKind::ALL.len()] = Default::default();
    for (&(_, policy), out) in points.iter().zip(&outcomes) {
        pooled[policy.index()].absorb(&out.metrics.decision_latency_histogram());
    }
    for policy in PolicyKind::ALL {
        let h = &pooled[policy.index()];
        // Quantiles are the histogram's upper bucket edges, so each cell
        // is a guaranteed "latency ≤ shown" bound.
        let cell = |q: f64| match h.quantile(q) {
            Some(s) => format!("{:.3} ms", s * 1e3),
            None => String::from("-"),
        };
        println!(
            "| {policy} | {} | {} | {} | {} | {} |",
            h.count(),
            cell(0.5),
            cell(0.95),
            cell(0.99),
            cell(1.0),
        );
    }

    println!("\n## Paper vs measured\n");
    crossroads_bench::table_header(&["claim", "paper", "measured"]);
    println!("| AIM/Crossroads compute per request | up to 16x | {worst_ops_ratio:.1}x |");
    println!("| AIM/Crossroads network traffic | up to 20x | {worst_msg_ratio:.1}x |");
}
