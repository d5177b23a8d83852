//! Ablations of the design decisions DESIGN.md calls out:
//!
//! 1. AIM tile-grid granularity — the lever behind the paper's
//!    AIM-vs-Crossroads gap (coarse grids reserve whole swaths; fine
//!    grids let AIM platoon past Crossroads).
//! 2. VT-IM RTD buffer size — what the intersection pays per millisecond
//!    of unhandled worst-case delay.
//! 3. Crossroads crawl floor — scheduling a stop instead of a crawl.
//!
//! Each ablation axis fans out over the `CROSSROADS_THREADS` worker pool.

use crossroads_bench::{carried_per_lane, knobs, par_sweep, sweep_workload};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::run_simulation;
use crossroads_net::RtdBudget;
use crossroads_units::Seconds;

fn main() {
    println!("# Ablations\n");

    // 1. AIM grid granularity at a saturating rate (`None` is the
    //    Crossroads reference row).
    println!("## AIM tile granularity (rate 0.9 car/s/lane)\n");
    crossroads_bench::table_header(&["tiles/side", "carried (car/s/lane)", "avg wait (s)"]);
    let grids: [Option<usize>; 8] = [
        Some(1),
        Some(2),
        Some(3),
        Some(4),
        Some(6),
        Some(8),
        Some(12),
        None,
    ];
    let grid_rows = par_sweep(
        "ablation_grid",
        &grids,
        |grid| grid.map_or_else(|| String::from("crossroads-ref"), |g| format!("grid{g}")),
        |&grid| match grid {
            Some(g) => {
                let mut config = knobs().full_scale(PolicyKind::Aim).with_seed(42);
                config.aim_grid_side = g;
                let w = sweep_workload(&config, 0.9, 1042);
                let out = run_simulation(&config, &w);
                assert!(out.all_completed() && out.safety.is_safe(), "grid {g}");
                (carried_per_lane(&out), out.metrics.average_wait().value())
            }
            None => {
                let config = knobs().full_scale(PolicyKind::Crossroads).with_seed(42);
                let w = sweep_workload(&config, 0.9, 1042);
                (carried_per_lane(&run_simulation(&config, &w)), 0.0)
            }
        },
    );
    let mut xr_ref = 0.0;
    for (grid, &(carried, wait)) in grids.iter().zip(&grid_rows) {
        match grid {
            Some(g) => println!("| {g} | {carried:.4} | {wait:.1} |"),
            None => xr_ref = carried,
        }
    }
    println!("| Crossroads (ref) | {xr_ref:.4} | — |");

    // 2. VT-IM with a sweep of assumed WC-RTD budgets.
    println!("\n## VT-IM throughput vs assumed WC-RTD (rate 0.9)\n");
    crossroads_bench::table_header(&["WC-RTD (ms)", "carried (car/s/lane)"]);
    let rtds = [50.0, 100.0, 150.0, 300.0, 600.0];
    let rtd_rows = par_sweep(
        "ablation_rtd",
        &rtds,
        |rtd_ms| format!("rtd{rtd_ms}ms"),
        |&rtd_ms| {
            let mut config = knobs().full_scale(PolicyKind::VtIm).with_seed(42);
            config.buffers.rtd = RtdBudget {
                wc_network: Seconds::from_millis(15.0),
                wc_computation: Seconds::from_millis(rtd_ms - 15.0),
            };
            let w = sweep_workload(&config, 0.9, 1042);
            let out = run_simulation(&config, &w);
            assert!(out.all_completed(), "rtd {rtd_ms}");
            carried_per_lane(&out)
        },
    );
    for (rtd_ms, carried) in rtds.iter().zip(&rtd_rows) {
        println!("| {rtd_ms:.0} | {carried:.4} |");
    }

    // 3. Crossroads crawl floor.
    println!("\n## Crossroads crawl floor (rate 0.9)\n");
    crossroads_bench::table_header(&["crawl fraction of v_max", "carried", "avg wait (s)"]);
    let crawls = [0.05, 0.15, 0.30, 0.50];
    let crawl_rows = par_sweep(
        "ablation_crawl",
        &crawls,
        |crawl| format!("crawl{crawl}"),
        |&crawl| {
            let mut config = knobs().full_scale(PolicyKind::Crossroads).with_seed(42);
            config.crawl_fraction = crawl;
            let w = sweep_workload(&config, 0.9, 1042);
            let out = run_simulation(&config, &w);
            assert!(out.all_completed(), "crawl {crawl}");
            (carried_per_lane(&out), out.metrics.average_wait().value())
        },
    );
    for (crawl, &(carried, wait)) in crawls.iter().zip(&crawl_rows) {
        println!("| {crawl} | {carried:.4} | {wait:.1} |");
    }
}
