//! E13 — corridor grid: K chained intersections × arterial rate ×
//! policy, at 10k vehicles.
//!
//! Beyond the paper: the ROADMAP's network-scale headline. Each point
//! chains K identical intersections into an arterial corridor
//! (westbound and eastbound through-traffic handed off box to box,
//! cross traffic at every intersection), runs the full V2I loop on every
//! leg, and reports the corridor's carried flow. The K = 8 points route
//! 10,000 vehicles each.
//!
//! Stdout is byte-identical at any `CROSSROADS_THREADS` setting: the
//! table carries only simulation-side figures, each a pure function of
//! its point.

use crossroads_bench::{
    grid_points, grid_row, par_run, run_grid_point, run_grid_point_sharded, GridPoint, GRID_SEED,
    GRID_SHARD_WORKERS,
};
use crossroads_core::policy::PolicyKind;

fn main() {
    println!("# E13 — corridor grid: K intersections x arterial rate x policy\n");
    crossroads_bench::table_header(&[
        "policy",
        "K",
        "rate (cars/s/dir)",
        "vehicles",
        "handoffs",
        "veh/hour",
        "avg wait (s)",
    ]);

    let points = grid_points();
    let outcomes = par_run(&points, |p| run_grid_point(p, GRID_SEED));

    for (p, out) in points.iter().zip(&outcomes) {
        println!("{}", grid_row(p, out));
    }

    // Corridor scaling: carried flow by corridor length at the top rate,
    // per policy. Longer corridors serve proportionally more demand, so
    // veh/hour growing with K is the headline scale-out claim.
    let top_rate = points.iter().map(|p| p.rate).fold(0.0, f64::max);
    println!("\n## Corridor scaling at {top_rate} cars/s/direction\n");
    crossroads_bench::table_header(&["policy", "K", "veh/hour", "handoffs"]);
    for policy in PolicyKind::ALL {
        for (p, out) in points.iter().zip(&outcomes) {
            if p.policy == policy && p.rate == top_rate {
                println!(
                    "| {} | {} | {:.0} | {} |",
                    p.policy,
                    p.k,
                    out.metrics.flow_rate() * 3600.0,
                    out.handoffs,
                );
            }
        }
    }

    // Windowed-parallel engine: per-K serial vs parallel, same points.
    // The agreement column is the deterministic contract (and is hard
    // asserted), so this table too is byte-identical at any thread or
    // shard-worker count.
    let ks: Vec<usize> = {
        let mut ks: Vec<usize> = points.iter().map(|p| p.k).collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    };
    println!(
        "\n## Windowed-parallel engine: serial vs {GRID_SHARD_WORKERS} shard workers \
         at {top_rate} cars/s/direction\n"
    );
    crossroads_bench::table_header(&["policy", "K", "vehicles", "handoffs", "agreement"]);
    for &k in &ks {
        let p = GridPoint {
            policy: PolicyKind::Crossroads,
            k,
            rate: top_rate,
        };
        let serial = run_grid_point_sharded(&p, GRID_SEED, 0);
        let windowed = run_grid_point_sharded(&p, GRID_SEED, GRID_SHARD_WORKERS);
        assert!(
            windowed == serial,
            "K={k}: windowed-parallel corridor diverged from the serial engine"
        );
        println!(
            "| {} | {} | {} | {} | identical |",
            p.policy, k, serial.spawned, serial.handoffs
        );
    }

    let total: usize = outcomes.iter().map(|o| o.spawned).sum();
    let safe = outcomes
        .iter()
        .all(crossroads_core::CorridorOutcome::is_safe);
    println!(
        "\n{total} vehicles routed across the grid, zero stranded, safety audits {}",
        if safe { "clean" } else { "FAILED" }
    );
}
