//! Extension experiment — saturation and recovery under time-varying
//! demand (beyond the paper's stationary sweeps).
//!
//! A morning-peak wave oversaturates the intersection; the experiment
//! tracks each policy's backlog through the wave and how long it takes
//! to drain after the peak passes.

use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::run_simulation;
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::{generate_rush_hour, PoissonConfig, RateProfile};
use crossroads_units::Seconds;

fn main() {
    let span = Seconds::new(240.0);
    let profile = RateProfile::morning_peak(span, 0.05, 0.7);

    println!("# Extension — rush-hour wave (0.05 -> 0.7 -> 0.05 car/s/lane over {span})\n");
    crossroads_bench::table_header(&[
        "policy",
        "vehicles",
        "avg wait (s)",
        "p95 wait (s)",
        "last clearance (s)",
        "drain after peak (s)",
    ]);

    // Each policy's wave is an independent, self-seeded simulation — run
    // the three on the `CROSSROADS_THREADS` worker pool.
    let outcomes = crossroads_bench::par_run(&PolicyKind::ALL, |&policy| {
        let config = crossroads_bench::knobs().full_scale(policy).with_seed(23);
        let mut rng = StdRng::seed_from_u64(230);
        let base = PoissonConfig::sweep_point(0.1, config.typical_line_speed());
        let workload = generate_rush_hour(&profile, &base, &mut rng);
        let out = run_simulation(&config, &workload);
        assert!(out.all_completed(), "{policy}: {} stranded", out.stranded());
        assert!(out.safety.is_safe(), "{policy}");
        out
    });
    for (policy, out) in PolicyKind::ALL.iter().zip(&outcomes) {
        let last = out
            .metrics
            .records()
            .iter()
            .map(|r| r.cleared_at.value())
            .fold(0.0f64, f64::max);
        println!(
            "| {policy} | {} | {:.1} | {:.1} | {last:.0} | {:.0} |",
            out.metrics.completed(),
            out.metrics.average_wait().value(),
            out.metrics.wait_percentiles().p95,
            last - span.value(),
        );
    }
    println!("\nThe drain column is each protocol's recovery time: how long the");
    println!("backlog persists after demand has already subsided.");
}
