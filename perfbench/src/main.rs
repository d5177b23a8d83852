//! The repository benchmark: runs one (or every) workload through the
//! simulator's public entry points, checks the outputs, and prints every
//! metric by name with its unit. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload isect --seed 11 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! separate traced pass and the per-layer replays. See README.md.

mod layers;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::SHARD_WORKERS_ENV;
use crossroads_core::{AIM_ANALYTIC_ENV, PLATOON_ENV, SAFETY_FILTER_ENV};
use crossroads_traffic::MIXED_ENV;
use crossroads_units::TimePoint;

use layers::ratio;
use workloads::{Engine, Kind, ModelSummary, Outcome, Workload};

const USAGE: &str = "usage: perfbench [--workload isect|corridor|corridor-w2|mixed|all] \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 11;

/// Measured passes a run makes even when `--seconds` has already elapsed.
const MIN_PASSES: usize = 3;

/// The environment self-test runs the workload at this fraction of its size.
const HERMETIC_DIVISOR: u32 = 10;

/// Marks the fingerprint line a self-test child prints.
const HERMETIC_TAG: &str = "hermetic-fingerprint ";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    hermetic_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        hermetic_child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--hermetic-child" {
            args.hermetic_child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.kinds = if value == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?]
                };
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("{name} is not finite"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// One metric per policy (`<name>.vt`, `.crossroads`, `.aim`); a policy
    /// the workload does not run reports 0.
    fn per_policy(
        &mut self,
        name: &str,
        unit: &'static str,
        kind: Kind,
        value: impl Fn(usize) -> f64,
    ) {
        for policy in PolicyKind::ALL {
            let v = kind
                .policies()
                .iter()
                .position(|&p| p == policy)
                .map_or(0.0, &value);
            self.push(&format!("{name}.{}", suffix(policy)), v, unit);
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

fn suffix(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::VtIm => "vt",
        PolicyKind::Crossroads => "crossroads",
        PolicyKind::Aim => "aim",
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank 75th percentile of `values`. Host times are reported at
/// the upper quartile: on a shared host a run's passes split between a
/// faster and a slower level, and the median jumps between them from run
/// to run while the upper quartile stays on the level the host spends
/// most of its time at (README.md, "Findings").
fn upper_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[(3 * n).div_ceil(4) - 1],
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, if it is a git work tree.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env(
            "GIT_CEILING_DIRECTORIES",
            cwd.parent().unwrap_or(&cwd).as_os_str(),
        )
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || String::from("none"),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// One run call per policy, each timed on the calling thread.
struct Pass {
    outcomes: Vec<Option<Outcome>>,
    run_ms: Vec<f64>,
}

impl Pass {
    fn run(workload: &Workload, serial: bool) -> Pass {
        let n = workload.engines.len();
        let mut pass = Pass {
            outcomes: Vec::with_capacity(n),
            run_ms: Vec::with_capacity(n),
        };
        for i in 0..n {
            let t0 = Instant::now();
            let outcome = if serial {
                workload.run_serial(i)
            } else {
                workload.run(i)
            };
            pass.run_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            pass.outcomes.push(outcome);
        }
        pass
    }

    fn total_ms(&self) -> f64 {
        self.run_ms.iter().sum()
    }
}

/// Runs every policy with the flight recorder engaged and checks each
/// outcome against the untraced reference. Returns the pass's host
/// milliseconds and the records written.
fn traced_pass(
    kind: Kind,
    workload: &Workload,
    reference: &[Option<Outcome>],
    report: &mut Report,
) -> (f64, u64) {
    let t0 = Instant::now();
    let mut records = 0;
    for (i, expected) in reference.iter().enumerate() {
        let same = match (workload.run_traced(i), expected) {
            (Some((outcome, written)), Some(expected)) => {
                records += written;
                outcome == *expected
            }
            _ => false,
        };
        report.check(same, || {
            format!(
                "traced {} run differs from the untraced one",
                kind.policies()[i]
            )
        });
    }
    (t0.elapsed().as_secs_f64() * 1e3, records)
}

/// Runs every policy on the serial corridor engine and checks each outcome
/// against the windowed reference. Returns the pass's host milliseconds.
fn serial_pass(workload: &Workload, reference: &[Option<Outcome>], report: &mut Report) -> f64 {
    let serial = Pass::run(workload, true);
    report.check(serial.outcomes == reference, || {
        String::from("windowed outcome differs from the serial engine")
    });
    serial.total_ms()
}

fn events(outcomes: &[Option<Outcome>]) -> Vec<u64> {
    outcomes
        .iter()
        .map(|o| o.as_ref().map_or(0, |o| o.metrics.counters().des_events))
        .collect()
}

/// Runs `kind` in a child process with every configuration environment
/// variable set against the workload's pinned value, and checks that the
/// child's model outputs and event counts equal this process's.
fn hermetic_self_test(kind: Kind, seed: u64, report: &mut Report) {
    let (workload, _) = Workload::build(kind, seed, kind.vehicles() / HERMETIC_DIVISOR);
    let pass = Pass::run(&workload, false);
    let vehicles = workload.arrivals.len();
    let here = ModelSummary::of(&pass.outcomes, vehicles).fingerprint(&events(&pass.outcomes));
    let on = |pinned_on: bool| if pinned_on { "0" } else { "1" };
    let ext = kind == Kind::Mixed;
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--hermetic-child", "--workload", kind.name()])
            .args(["--seed", &seed.to_string()])
            .env(MIXED_ENV, on(ext))
            .env(PLATOON_ENV, on(ext))
            .env(SAFETY_FILTER_ENV, on(ext))
            .env(AIM_ANALYTIC_ENV, "0")
            .env(
                SHARD_WORKERS_ENV,
                if kind.shard_workers() >= 2 { "0" } else { "2" },
            )
            .output()
    });
    let there = match child {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .find_map(|l| l.strip_prefix(HERMETIC_TAG).map(str::to_string)),
        Ok(out) => {
            report.errors.push(format!(
                "hermetic self-test child failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
            return;
        }
        Err(e) => {
            report
                .errors
                .push(format!("hermetic self-test child did not start: {e}"));
            return;
        }
    };
    report.check(there.as_deref() == Some(here.as_str()), || {
        format!("environment changed the outputs: here [{here}], child [{there:?}]")
    });
}

/// The self-test child: the reduced workload under whatever environment
/// the parent set, fingerprinted on stdout.
fn hermetic_child(kind: Kind, seed: u64) {
    let (workload, _) = Workload::build(kind, seed, kind.vehicles() / HERMETIC_DIVISOR);
    let pass = Pass::run(&workload, false);
    let summary = ModelSummary::of(&pass.outcomes, workload.arrivals.len());
    println!(
        "{HERMETIC_TAG}{}",
        summary.fingerprint(&events(&pass.outcomes))
    );
}

fn run_workload(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();

    // Every pass sets the workload up afresh, so the set-up samples see the
    // same host conditions as the passes.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let (workload, generate) = Workload::build(kind, args.seed, kind.vehicles());
        setup_s.push(t0.elapsed().as_secs_f64());
        generate_s.push(generate);
        workload
    };

    // The warm-up pass is discarded from timing but is the reference every
    // later pass must reproduce exactly.
    let workload = set_up();
    let vehicles = workload.arrivals.len();
    let reference = Pass::run(&workload, false).outcomes;
    let n = reference.len();
    let windowed = kind.shard_workers() >= 2;
    let mut pass_ms = Vec::new();
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    // The traced run pairs every pass with a traced pass (and, on the
    // windowed engine, a serial one) over the same inputs, so each
    // difference is taken under the same host conditions.
    let mut trace_extra_ms = Vec::new();
    let mut windowed_extra_ms = Vec::new();
    let mut trace_records = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let workload = set_up();
        let pass = Pass::run(&workload, false);
        report.check(pass.outcomes == reference, || {
            format!("pass {} differs from the first pass", pass_ms.len() + 1)
        });
        pass_ms.push(pass.total_ms());
        for (i, ms) in pass.run_ms.iter().enumerate() {
            run_ms[i].push(*ms);
        }
        if args.trace {
            let serial_ms = windowed.then(|| serial_pass(&workload, &reference, &mut report));
            let (traced_ms, records) = traced_pass(kind, &workload, &reference, &mut report);
            trace_records = records;
            // Traced corridor runs always take the serial engine.
            trace_extra_ms.push(traced_ms - serial_ms.unwrap_or(pass.total_ms()));
            if let Some(serial_ms) = serial_ms {
                windowed_extra_ms.push(pass.total_ms() - serial_ms);
            }
        }
        if pass_ms.len() >= MIN_PASSES && Instant::now() >= deadline {
            break;
        }
    }
    let rss = peak_rss_mb();
    println!(
        "  passes={} pass_ms min={:.1} median={:.1} p75={:.1} max={:.1}",
        pass_ms.len(),
        pass_ms.iter().copied().fold(f64::INFINITY, f64::min),
        median(&pass_ms),
        upper_quartile(&pass_ms),
        pass_ms.iter().copied().fold(0.0, f64::max)
    );

    let summary = ModelSummary::of(&reference, vehicles);
    report.attempted = summary.spawned;
    report.failed = summary.failed;
    for (policy, outcome) in kind.policies().iter().zip(&reference) {
        match outcome {
            None => report.errors.push(format!("{policy} run panicked")),
            Some(o) => report.check(o.failed_vehicles() == 0, || {
                format!(
                    "{policy}: {} of {} vehicles stranded, {} audit violations",
                    o.spawned - o.metrics.completed(),
                    o.spawned,
                    o.safety.iter().map(|r| r.violations().len()).sum::<usize>()
                )
            }),
        }
    }

    // Output checks the traced run already made inside its loop: traced ≡
    // untraced and windowed ≡ serial. The environment check runs always.
    if !args.trace {
        traced_pass(kind, &workload, &reference, &mut report);
        if windowed {
            serial_pass(&workload, &reference, &mut report);
        }
    }
    hermetic_self_test(kind, args.seed, &mut report);

    if !args.trace {
        let wall_ms = upper_quartile(&pass_ms);
        report.push("setup_s", upper_quartile(&setup_s), "s");
        report.push("wall_ms", wall_ms, "ms");
        report.push(
            "vehicles_per_s",
            summary.completed as f64 / (wall_ms / 1e3),
            "veh/s",
        );
        report.push("peak_rss_mb", rss, "MB");
        report.push("sim_wait_s", summary.wait_mean_s, "sim_s");
        report.push("sim_wait_p99_s", summary.wait_p99_s, "sim_s");
        report.push("sim_flow_vph", summary.flow_vph, "veh/h");
        report.push(
            "sim_frames_per_vehicle",
            summary.frames_per_vehicle,
            "frames",
        );
        report.push(
            "success_ratio",
            1.0 - ratio(summary.failed, summary.spawned),
            "ratio",
        );
        return report;
    }

    let outcomes: Vec<&Outcome> = reference.iter().flatten().collect();
    if outcomes.len() != n {
        // A panicked run leaves nothing to attribute; the error is reported.
        return report;
    }
    let run_p75: Vec<f64> = run_ms.iter().map(|v| upper_quartile(v)).collect();
    let run_total: f64 = run_p75.iter().sum();
    let counters: Vec<_> = outcomes.iter().map(|o| *o.metrics.counters()).collect();
    let total =
        |f: fn(&crossroads_metrics::Counters) -> u64| -> u64 { counters.iter().map(f).sum() };

    report.per_policy("sim.run_ms", "ms", kind, |i| run_p75[i]);
    report.push("traffic.generate_ms", median(&generate_s) * 1e3, "ms");

    // des: the run's event counts, and the kernel alone at that count.
    let des_events = total(|c| c.des_events);
    let des_replay_ns: f64 = outcomes
        .iter()
        .map(|o| {
            let e = o.metrics.counters().des_events;
            layers::replay_des(e, o.ended_at - TimePoint::ZERO) * e as f64
        })
        .sum();
    let des_ns_per_event = des_replay_ns / des_events.max(1) as f64;
    report.push("des.events", des_events as f64, "count");
    report.push(
        "des.events_per_s",
        des_events as f64 / (run_total / 1e3),
        "1/s",
    );
    report.push("des.replay_ns_per_event", des_ns_per_event, "ns");

    // core::policy: open-loop replay of each intersection's arrivals.
    let replays: Vec<layers::PolicyReplay> = workload
        .engines
        .iter()
        .map(|engine| match engine {
            Engine::Single(config) => layers::replay_policy(config, &workload.arrivals),
            Engine::Corridor(config) => {
                let mut all = layers::PolicyReplay {
                    decide_ns: Vec::new(),
                    accepted: 0,
                };
                for im in 0..config.k {
                    let entering: Vec<_> = workload
                        .arrivals
                        .iter()
                        .zip(&workload.entry_ims)
                        .filter(|(_, &e)| e as usize == im)
                        .map(|(a, _)| *a)
                        .collect();
                    let r = layers::replay_policy(&config.sim, &entering);
                    all.decide_ns.extend(r.decide_ns);
                    all.accepted += r.accepted;
                }
                all
            }
        })
        .collect();
    report.per_policy("policy.decide_ns_p50", "ns", kind, |i| {
        replays[i].percentile_ns(0.50)
    });
    report.per_policy("policy.decide_ns_p99", "ns", kind, |i| {
        replays[i].percentile_ns(0.99)
    });
    report.per_policy("policy.replay_accept_ratio", "ratio", kind, |i| {
        replays[i].accept_ratio()
    });
    // Every completed box crossing needed one grant, except a platoon
    // follower's, which inherits its leader's.
    report.per_policy("policy.run_accept_ratio", "ratio", kind, |i| {
        let crossings = outcomes[i].metrics.completed() as u64 + outcomes[i].handoffs;
        ratio(
            crossings.saturating_sub(counters[i].platoon_grants),
            counters[i].im_requests,
        )
    });
    report.per_policy("policy.ops", "count", kind, |i| counters[i].im_ops as f64);
    report.per_policy("policy.requests_per_vehicle", "req/veh", kind, |i| {
        ratio(counters[i].im_requests, outcomes[i].spawned as u64)
    });
    let policy_est_ms: f64 = (0..n)
        .map(|i| counters[i].im_requests as f64 * replays[i].mean_ns() / 1e6)
        .sum();

    // net: the run's frame counters, and the radio model alone at that count.
    let frames = total(|c| c.messages);
    let net_ns = layers::replay_net(workload.engines[0].sim(), frames, args.seed);
    report.push("net.frames", frames as f64, "count");
    report.push(
        "net.frames_lost",
        total(|c| c.messages_lost) as f64,
        "count",
    );
    report.push(
        "net.burst_losses",
        total(|c| c.burst_losses) as f64,
        "count",
    );
    report.push(
        "net.outage_drops",
        total(|c| c.im_outage_drops) as f64,
        "count",
    );
    report.push("net.sample_ns_per_frame", net_ns, "ns");

    // core::sim protocol, filter and platoon counters.
    report.push(
        "protocol.fallback_stops",
        total(|c| c.fallback_stops) as f64,
        "count",
    );
    report.push(
        "protocol.deadline_misses",
        total(|c| c.deadline_misses) as f64,
        "count",
    );
    report.push(
        "filter.interventions",
        total(|c| c.filter_interventions) as f64,
        "count",
    );
    report.push(
        "filter.noncompliant_conflicts",
        total(|c| c.noncompliant_conflicts) as f64,
        "count",
    );
    report.push(
        "filter.emergency_preemptions",
        total(|c| c.emergency_preemptions) as f64,
        "count",
    );
    report.push(
        "platoon.formed",
        total(|c| c.platoons_formed) as f64,
        "count",
    );
    report.push(
        "platoon.grants",
        total(|c| c.platoon_grants) as f64,
        "count",
    );
    report.push(
        "platoon.fallbacks",
        total(|c| c.platoon_fallbacks) as f64,
        "count",
    );

    // core::sim::safety: the post-run audit, re-run on the recorded boxes.
    let occupancies: usize = outcomes
        .iter()
        .flat_map(|o| &o.safety)
        .map(|r| r.occupancies().len())
        .sum();
    let mut audit_ms = 0.0;
    for (engine, outcome) in workload.engines.iter().zip(&outcomes) {
        match layers::replay_audit(engine.sim(), outcome) {
            Some(ms) => audit_ms += ms,
            None => report.errors.push(format!(
                "{} re-audit disagrees with the run",
                outcome.policy
            )),
        }
    }
    report.push("safety.occupancies", occupancies as f64, "count");
    report.push("safety.audit_ms", audit_ms, "ms");

    // core::sim::windowed: handoffs, windows, and the engine's cost over
    // the serial one on identical inputs.
    report.push(
        "corridor.handoffs",
        outcomes.iter().map(|o| o.handoffs).sum::<u64>() as f64,
        "count",
    );
    let windows: f64 = if windowed {
        workload
            .engines
            .iter()
            .zip(&outcomes)
            .map(|(engine, o)| match engine {
                Engine::Corridor(c) => ((o.ended_at - TimePoint::ZERO).value()
                    / c.effective_lookahead().value())
                .ceil(),
                Engine::Single(_) => 0.0,
            })
            .sum()
    } else {
        0.0
    };
    let overhead_ms = median(&windowed_extra_ms);
    report.push("windowed.windows", windows, "count");
    report.push("windowed.overhead_ms", overhead_ms, "ms");
    report.push(
        "windowed.overhead_us_per_window",
        if windows > 0.0 {
            overhead_ms * 1e3 / windows
        } else {
            0.0
        },
        "us",
    );

    // metrics and trace.
    let summarize_ms: f64 = outcomes.iter().map(|o| layers::replay_summaries(o)).sum();
    report.push("metrics.summarize_ms", summarize_ms, "ms");
    report.push("trace.records", trace_records as f64, "count");
    report.push("trace.overhead_ms", median(&trace_extra_ms), "ms");

    let residual = run_total
        - (des_events as f64 * des_ns_per_event / 1e6
            + policy_est_ms
            + frames as f64 * net_ns / 1e6
            + audit_ms);
    report.push("world.residual_ms", residual, "ms");
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.hermetic_child {
        hermetic_child(args.kinds[0], args.seed);
        return ExitCode::SUCCESS;
    }

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "host nproc={nproc} rustc=\"{}\" profile={} commit={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit()
    );
    let prefix = args.kinds.len() > 1;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for &kind in &args.kinds {
        println!(
            "workload={} seed={} seconds={} trace={} threads={} vehicles={} policies={}",
            kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            kind.threads(),
            kind.vehicles(),
            kind.policies().len()
        );
        let report = run_workload(kind, &args);
        for m in &report.metrics {
            println!("  {:<36} {:>18} {}", m.name, m.value, m.unit);
        }
        for e in &report.errors {
            println!("  CHECK FAILED: {e}");
            eprintln!("perfbench: {}: {e}", kind.name());
        }
        correct &= report.errors.is_empty();
        attempted += report.attempted;
        failed += report.failed;
        for m in report.metrics {
            let name = if prefix {
                format!("{}.{}", kind.name(), m.name)
            } else {
                m.name
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
