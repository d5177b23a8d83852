//! E5 — Fig. 7.2: throughput vs input flow rate (0.05–1.25
//! car/second/lane, 160 cars) for AIM, Crossroads and VT-IM on the
//! full-scale intersection.
//!
//! Paper reference: all three coincide at low flow; VT-IM saturates
//! first, AIM next, Crossroads highest. Crossroads is 1.62x over VT-IM
//! in the worst case (1.36x average) and 1.28x over AIM (1.15x average).
//!
//! Every (rate, series, seed) point is an independent simulation, so the
//! sweep runs on the `CROSSROADS_THREADS` worker pool; the table is
//! byte-identical at any thread count.

use crossroads_bench::{
    carried_per_lane, par_run, run_ideal_point, run_sweep_point, SWEEP_RATES, SWEEP_SEEDS,
};
use crossroads_core::policy::PolicyKind;

fn main() {
    let (rates, seeds) = (SWEEP_RATES, SWEEP_SEEDS);
    println!(
        "# E5 — Fig. 7.2: carried throughput (cars/second/lane), mean of {} seeds\n",
        seeds.len()
    );
    crossroads_bench::table_header(&[
        "input rate",
        "VT-IM",
        "Crossroads",
        "AIM",
        "Ideal",
        "XR/VT",
        "XR/AIM",
    ]);

    // One point per (rate, series, seed); `None` is the Ideal series.
    let mut points: Vec<(f64, Option<PolicyKind>, u64)> = Vec::new();
    for &rate in &rates {
        for policy in PolicyKind::ALL {
            for &seed in &seeds {
                points.push((rate, Some(policy), seed));
            }
        }
        for &seed in &seeds {
            points.push((rate, None, seed));
        }
    }
    let carried = par_run(&points, |&(rate, policy, seed)| match policy {
        Some(p) => carried_per_lane(&run_sweep_point(p, rate, seed)),
        None => carried_per_lane(&run_ideal_point(rate, seed)),
    });

    let per_rate = points.len() / rates.len();
    let n = seeds.len() as f64;
    let mut ratios_vt = Vec::new();
    let mut ratios_aim = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        // Dense per-policy accumulator (indexed by `PolicyKind::index`),
        // plus the Ideal series on the side.
        let mut sums = [0.0f64; PolicyKind::ALL.len()];
        let mut ideal_sum = 0.0f64;
        let chunk = ri * per_rate;
        for (offset, &value) in carried[chunk..chunk + per_rate].iter().enumerate() {
            match points[chunk + offset].1 {
                Some(p) => sums[p.index()] += value,
                None => ideal_sum += value,
            }
        }
        let (vt, xr, aim) = (
            sums[PolicyKind::VtIm.index()] / n,
            sums[PolicyKind::Crossroads.index()] / n,
            sums[PolicyKind::Aim.index()] / n,
        );
        let ideal = ideal_sum / n;
        ratios_vt.push(xr / vt);
        ratios_aim.push(xr / aim);
        println!(
            "| {rate} | {vt:.4} | {xr:.4} | {aim:.4} | {ideal:.4} | {:.2}x | {:.2}x |",
            xr / vt,
            xr / aim
        );
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    println!("\n## Paper vs measured (throughput ratios)\n");
    crossroads_bench::table_header(&["claim", "paper", "measured"]);
    println!(
        "| Crossroads/VT-IM worst case | 1.62x | {:.2}x |",
        max(&ratios_vt)
    );
    println!(
        "| Crossroads/VT-IM average | 1.36x | {:.2}x |",
        avg(&ratios_vt)
    );
    println!(
        "| Crossroads/AIM worst case | 1.28x | {:.2}x |",
        max(&ratios_aim)
    );
    println!(
        "| Crossroads/AIM average | 1.15x | {:.2}x |",
        avg(&ratios_aim)
    );
    println!("\nShape check: near-identical at 0.05; VT-IM saturates lowest;");
    println!("Crossroads >= coarse-granularity AIM at saturating flows.");
}
