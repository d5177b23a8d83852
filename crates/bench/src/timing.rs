//! A small self-timed benchmark harness.
//!
//! The workspace builds hermetically, so instead of Criterion the bench
//! targets (`benches/*.rs`, built with `harness = false`) time themselves
//! with `std::time::Instant`: warm up, calibrate an iteration count to a
//! fixed sample length, take an odd number of samples, and report the
//! **median** ns/iter (robust against scheduler noise in a way the mean
//! is not). Results print as a markdown table so runs can be pasted into
//! `EXPERIMENTS.md` directly.
//!
//! This is a measurement aid, not a statistics package: no outlier
//! analysis, no confidence intervals. Numbers are indicative and meant
//! for *relative* comparison (e.g. AIM vs Crossroads decision cost) on
//! one machine in one session.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock length of one timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);
/// Warm-up length before calibration (fills caches, settles clocks).
const WARMUP_TARGET: Duration = Duration::from_millis(50);
/// Number of timed samples; odd so the median is a real observation.
const SAMPLES: usize = 11;

/// One benchmark's result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (table row label).
    pub name: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample's ns/iter (lower bound on the true cost).
    pub min_ns: f64,
    /// Slowest sample's ns/iter.
    pub max_ns: f64,
    /// Iterations per sample the calibration settled on.
    pub iters_per_sample: u64,
}

impl Measurement {
    /// Formats the median compactly with an adaptive unit.
    #[must_use]
    pub fn human_median(&self) -> String {
        format_ns(self.median_ns)
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
#[must_use]
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Times `f`, returning the measurement without printing.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimiser cannot delete the benchmarked work.
pub fn measure<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    // Warm up while counting iterations, so calibration starts informed.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < WARMUP_TARGET {
        black_box(f());
        warm_iters += 1;
    }
    let warm_ns = warm_start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;

    // Aim each sample at SAMPLE_TARGET using the warm-up estimate.
    let iters_per_sample =
        ((SAMPLE_TARGET.as_nanos() as f64 / warm_ns.max(1.0)).ceil() as u64).max(1);

    let mut per_iter: Vec<f64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters_per_sample {
            black_box(f());
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
    }
    per_iter.sort_by(f64::total_cmp);

    Measurement {
        name: name.to_string(),
        median_ns: per_iter[SAMPLES / 2],
        min_ns: per_iter[0],
        max_ns: per_iter[SAMPLES - 1],
        iters_per_sample,
    }
}

/// Times `f` and prints one markdown table row.
pub fn bench<T>(name: &str, f: impl FnMut() -> T) -> Measurement {
    let m = measure(name, f);
    println!(
        "| {} | {} | {} | {} | {} |",
        m.name,
        m.human_median(),
        format_ns(m.min_ns),
        format_ns(m.max_ns),
        m.iters_per_sample,
    );
    m
}

/// Prints the table header [`bench()`] rows belong under.
pub fn bench_table_header(group: &str) {
    println!("\n### {group}\n");
    println!("| benchmark | median/iter | min/iter | max/iter | iters/sample |");
    println!("|---|---|---|---|---|");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_numbers() {
        let m = measure("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.iters_per_sample >= 1);
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000.0), "3.000 s");
    }
}
