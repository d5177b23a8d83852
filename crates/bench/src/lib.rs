//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`) that
//! regenerate the paper's tables and figures, and for the self-timed
//! micro-benchmarks (`benches/*.rs`) backing the computation-time series.
//!
//! Every binary prints a self-contained markdown table with the paper's
//! reference values alongside the measured ones; `EXPERIMENTS.md` records
//! a captured run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use std::io::Write as _;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::available_parallelism;
use std::time::Instant;

use std::path::{Path, PathBuf};

use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{
    run_corridor, run_corridor_traced, run_simulation, run_simulation_traced, CorridorConfig,
    CorridorOutcome, PlatoonConfig, SimConfig, SimOutcome, AIM_ANALYTIC_ENV, PLATOON_ENV,
    SAFETY_FILTER_ENV, SHARD_WORKERS_ENV,
};
use crossroads_metrics::{bench_sweep_to_json, BenchPoint, GridPointSummary};
use crossroads_net::{FaultConfig, GilbertElliott};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_trace::{Recorder, Trace};
use crossroads_traffic::{
    generate_corridor, generate_poisson, Arrival, CorridorDemand, MixedConfig, PoissonConfig,
    MIXED_ENV,
};
use crossroads_units::{MetersPerSecond, Seconds};

pub use crossroads_pool::{WorkerPool, THREADS_ENV};

/// The input flow rates of Fig. 7.2 (cars/second/lane).
pub const SWEEP_RATES: [f64; 9] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.25];

/// The seeds averaged by the sweep experiments.
pub const SWEEP_SEEDS: [u64; 3] = [11, 42, 91];

/// Environment variable selecting the reduced CI smoke sweep.
pub const FAST_ENV: &str = "CROSSROADS_SWEEP_FAST";

/// Environment variable overriding where sweep timings are appended
/// (default `BENCH_sweep.json`; `/dev/null` discards them).
pub const BENCH_OUT_ENV: &str = "CROSSROADS_BENCH_OUT";

/// Environment variable engaging the post-mortem flight recorder. When
/// set (and not `0`), every guarded sweep point runs with a last-N ring
/// [`Recorder`] attached, and a point that fails its soundness checks
/// (stranded vehicles or a safety violation) dumps the ring to disk
/// before the harness panics, so a diverging CI sweep leaves a replayable
/// `.xrtr` flight recording behind. The variable's value names the dump
/// directory; the value `1` selects `trace_dumps/`.
pub const TRACE_ENV: &str = "CROSSROADS_TRACE";

/// Ring capacity of the post-mortem recorder: the last 4096 records give
/// plenty of context around the failing decision without unbounded
/// memory on long sweeps.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// The flight-recorder dump directory selected by [`TRACE_ENV`], or
/// `None` when post-mortem tracing is disabled.
#[must_use]
pub fn trace_dump_dir() -> Option<PathBuf> {
    if flag(&env_lookup, TRACE_ENV) != Some(true) {
        return None;
    }
    let v = std::env::var_os(TRACE_ENV)?;
    let dir = if v == *"1" { "trace_dumps".into() } else { v };
    Some(PathBuf::from(dir))
}

/// Writes `trace` to `<dir>/<label>.xrtr` in the binary trace format
/// (creating `dir` if needed) and returns the path. The label is
/// sanitized to a filename-safe alphabet, so point labels like
/// `Crossroads@0.3/s42` can be used directly.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn dump_ring_trace(dir: &Path, label: &str, trace: &Trace) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let safe: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{safe}.xrtr"));
    std::fs::write(&path, crossroads_trace::codec::encode(trace))?;
    Ok(path)
}

/// Runs `run` with the [`TRACE_ENV`] post-mortem guard: when tracing is
/// enabled `run` gets a ring recorder, and an outcome that `sound`
/// rejects (stranded vehicles or safety violations — the conditions
/// every sweep harness asserts) dumps the flight recording to disk
/// before the caller's assertion fires.
fn guarded<O>(
    label: &str,
    sound: impl FnOnce(&O) -> bool,
    run: impl FnOnce(Option<&mut Recorder>) -> O,
) -> O {
    let Some(dir) = trace_dump_dir() else {
        return run(None);
    };
    let mut recorder = Recorder::ring(TRACE_RING_CAPACITY);
    let outcome = run(Some(&mut recorder));
    if !sound(&outcome) {
        match dump_ring_trace(&dir, label, &recorder.snapshot()) {
            Ok(path) => eprintln!(
                "[{label}] unsound run; flight recording at {}",
                path.display()
            ),
            Err(e) => eprintln!("[{label}] unsound run; trace dump failed: {e}"),
        }
    }
    outcome
}

/// Runs one simulation with the [`TRACE_ENV`] post-mortem guard.
#[must_use]
pub fn run_point_guarded(config: &SimConfig, workload: &[Arrival], label: &str) -> SimOutcome {
    guarded(
        label,
        |o: &SimOutcome| o.all_completed() && o.safety.is_safe(),
        |recorder| match recorder {
            Some(r) => run_simulation_traced(config, workload, r),
            None => run_simulation(config, workload),
        },
    )
}

/// Runs one simulation with the [`TRACE_ENV`] post-mortem guard and
/// asserts the run is sound.
///
/// # Panics
///
/// Panics naming `label` if any vehicle fails to complete or the safety
/// audit finds a violation — figure data from a broken run would be
/// meaningless.
#[must_use]
pub fn run_sound_point(config: &SimConfig, workload: &[Arrival], label: &str) -> SimOutcome {
    let outcome = run_point_guarded(config, workload, label);
    assert!(
        outcome.all_completed(),
        "{label}: {} of {} vehicles stranded",
        outcome.stranded(),
        outcome.spawned
    );
    assert!(outcome.safety.is_safe(), "{label}: SAFETY VIOLATION");
    outcome
}

/// Whether `CROSSROADS_SWEEP_FAST` selects the reduced smoke sweep
/// (any value but empty or `0` enables it).
#[must_use]
pub fn fast_sweep() -> bool {
    flag(&env_lookup, FAST_ENV).unwrap_or(false)
}

/// The experiment binaries' model and engine knobs, read by [`knobs`].
/// Build each [`SimConfig`] through [`Knobs::full_scale`] or
/// [`Knobs::scale_model`], then any explicit builder, which wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    platoon: bool,
    mixed: bool,
    safety_filter: bool,
    aim_analytic: bool,
    shard_workers: usize,
    threads: usize,
}

/// Reads [`Knobs`] from the process environment; no library crate reads
/// it (README.md tabulates the variables). A boolean knob is off when
/// unset, empty or `0`; a count knob ignores surrounding whitespace, and
/// unset, blank or `0` keeps its default. The safety filter follows
/// `CROSSROADS_MIXED` unless `CROSSROADS_SAFETY_FILTER` is set.
///
/// # Panics
///
/// Panics naming the variable and its value when `CROSSROADS_THREADS` or
/// `CROSSROADS_SHARD_WORKERS` is not a non-negative integer.
#[must_use]
pub fn knobs() -> Knobs {
    Knobs::read(&env_lookup)
}

impl Knobs {
    /// [`knobs`] with the variables looked up through `lookup`.
    fn read(lookup: &dyn Fn(&str) -> Option<String>) -> Knobs {
        let mixed = flag(lookup, MIXED_ENV).unwrap_or(false);
        Knobs {
            platoon: flag(lookup, PLATOON_ENV).unwrap_or(false),
            mixed,
            safety_filter: flag(lookup, SAFETY_FILTER_ENV).unwrap_or(mixed),
            aim_analytic: flag(lookup, AIM_ANALYTIC_ENV).unwrap_or(true),
            shard_workers: count(lookup, SHARD_WORKERS_ENV).unwrap_or(0),
            threads: count(lookup, THREADS_ENV)
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| available_parallelism().map_or(1, NonZeroUsize::get)),
        }
    }

    /// [`SimConfig::full_scale`] with the model knobs applied.
    #[must_use]
    pub fn full_scale(&self, policy: PolicyKind) -> SimConfig {
        self.apply(SimConfig::full_scale(policy))
    }

    /// [`SimConfig::scale_model`] with the model knobs applied.
    #[must_use]
    pub fn scale_model(&self, policy: PolicyKind) -> SimConfig {
        self.apply(SimConfig::scale_model(policy))
    }

    /// Sets the platoon, mixed-traffic, safety-filter and AIM-kernel
    /// fields of a config whose extensions are still at their defaults.
    fn apply(&self, mut config: SimConfig) -> SimConfig {
        if self.platoon {
            config.platoon = PlatoonConfig::standard();
        }
        if self.mixed {
            config.mixed = MixedConfig::standard();
        }
        config.safety_filter = self.safety_filter;
        config.aim_analytic = self.aim_analytic;
        config
    }
}

fn env_lookup(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// A boolean knob: `None` when unset or empty, `Some(false)` at `0`,
/// `Some(true)` at any other value.
fn flag(lookup: &dyn Fn(&str) -> Option<String>, name: &str) -> Option<bool> {
    lookup(name).filter(|v| !v.is_empty()).map(|v| v != "0")
}

/// A count knob, surrounding whitespace ignored: `None` when unset or
/// blank. Panics naming the variable and value when it does not parse.
fn count(lookup: &dyn Fn(&str) -> Option<String>, name: &str) -> Option<usize> {
    let raw = lookup(name)?;
    let value = raw.trim();
    if value.is_empty() {
        return None;
    }
    let n = value.parse();
    Some(n.unwrap_or_else(|_| panic!("{name}={raw:?} is not a worker count")))
}

/// Flow rates for the current mode: the full Fig. 7.2 axis, or a
/// three-point smoke subset under [`fast_sweep`].
#[must_use]
pub fn sweep_rates() -> Vec<f64> {
    if fast_sweep() {
        vec![0.05, 0.3]
    } else {
        SWEEP_RATES.to_vec()
    }
}

/// Seeds for the current mode ([`SWEEP_SEEDS`], or one under
/// [`fast_sweep`]).
#[must_use]
pub fn sweep_seeds() -> Vec<u64> {
    if fast_sweep() {
        vec![11]
    } else {
        SWEEP_SEEDS.to_vec()
    }
}

/// Maps `run` over `items` on a `CROSSROADS_THREADS`-wide worker pool,
/// preserving input order. The shared parallel driver behind [`par_sweep`] and the
/// determinism/golden end-to-end tests: results are byte-identical to a
/// sequential loop because every item owns its PRNG stream.
pub fn par_run<T, R>(items: &[T], run: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    WorkerPool::new(knobs().threads).map(items, |_, item| run(item))
}

/// [`par_run`] plus the perf trajectory: times every point and the whole
/// sweep, appends one JSON record to `BENCH_sweep.json` (see
/// [`BENCH_OUT_ENV`]), and notes the wall clock on stderr. Stdout is
/// untouched, so experiment tables stay byte-identical across thread
/// counts.
///
/// Each point also reports how many DES events its simulations
/// dispatched (via the engine's thread-local tally, read before and
/// after the point on its worker thread), so the JSON record carries
/// engine throughput as `events_per_sec`.
pub fn par_sweep<T, R>(
    experiment: &str,
    items: &[T],
    label: impl Fn(&T) -> String,
    run: impl Fn(&T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let pool = WorkerPool::new(knobs().threads);
    let started = Instant::now();
    let timed = pool.map(items, |_, item| {
        let events0 = crossroads_core::sim::thread_events_processed();
        let t0 = Instant::now();
        let out = run(item);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let events = crossroads_core::sim::thread_events_processed() - events0;
        (out, wall_ms, events)
    });
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let points: Vec<BenchPoint> = items
        .iter()
        .zip(&timed)
        .map(|(item, &(_, wall_ms, events))| BenchPoint {
            label: label(item),
            wall_ms,
            events,
        })
        .collect();
    emit_bench_record(&bench_sweep_to_json(
        experiment,
        pool.threads(),
        total_ms,
        &points,
    ));
    eprintln!(
        "[{experiment}] {} points in {:.0} ms on {} threads",
        items.len(),
        total_ms,
        pool.threads()
    );
    timed.into_iter().map(|(out, _, _)| out).collect()
}

/// Appends one micro-benchmark record to the bench output file (same
/// schema and destination as the [`par_sweep`] records): `experiment`
/// names the bench group, each [`BenchPoint`] one timed routine, with
/// `wall_ms` the median per-call time and `events` the iterations
/// sampled. Lets `benches/*.rs` land their measurements in
/// `BENCH_sweep.json` next to the sweep trajectories.
pub fn emit_micro_bench(experiment: &str, total_ms: f64, points: &[BenchPoint]) {
    emit_bench_record(&bench_sweep_to_json(experiment, 1, total_ms, points));
}

/// Appends one JSONL record to the bench output file (see
/// [`BENCH_OUT_ENV`]). The first write of a process truncates, so every
/// binary run starts a fresh trajectory capture; later sweeps in the
/// same run append. Public so experiment binaries can land additional
/// record kinds (e.g. the deterministic grid summary) next to the timed
/// sweeps.
pub fn emit_bench_record(record: &str) {
    static APPEND: AtomicBool = AtomicBool::new(false);
    let path = std::env::var(BENCH_OUT_ENV).unwrap_or_else(|_| String::from("BENCH_sweep.json"));
    let truncate = !APPEND.swap(true, Ordering::Relaxed);
    let opened = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(!truncate)
        .truncate(truncate)
        .open(&path);
    match opened {
        Ok(mut f) => {
            if let Err(e) = writeln!(f, "{record}") {
                eprintln!("warning: could not append to {path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not open {path}: {e}"),
    }
}

/// Builds the Fig. 7.2 workload for one sweep point.
#[must_use]
pub fn sweep_workload(config: &SimConfig, rate: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let line_speed: MetersPerSecond = config.typical_line_speed();
    generate_poisson(&PoissonConfig::sweep_point(rate, line_speed), &mut rng)
}

/// Runs one full-scale sweep point and asserts the run is sound.
///
/// # Panics
///
/// Panics on an unsound run, as [`run_sound_point`] does.
#[must_use]
pub fn run_sweep_point(policy: PolicyKind, rate: f64, seed: u64) -> SimOutcome {
    let config = knobs().full_scale(policy).with_seed(seed);
    let workload = sweep_workload(&config, rate, seed.wrapping_add(1000));
    run_sound_point(&config, &workload, &format!("{policy}@{rate}-s{seed}"))
}

/// Builds the fault grid point `(burst, outage)` used by the fault sweep
/// and its tests: symmetric Gilbert–Elliott burst loss at long-run mean
/// `burst` on both directions, mild duplication, and enough reordering
/// displacement (220 ms, beyond the 150 ms WC-RTD) that held-back
/// downlinks miss their execute-at deadlines. Outages of `outage_secs`
/// recur every 20 s starting at t = 5 s. `(0.0, 0.0)` returns the
/// disabled config — a clean baseline column for the sweep.
#[must_use]
pub fn fault_point(burst: f64, outage_secs: f64) -> FaultConfig {
    if burst == 0.0 && outage_secs == 0.0 {
        return FaultConfig::disabled();
    }
    FaultConfig {
        uplink: GilbertElliott::bursty(burst),
        downlink: GilbertElliott::bursty(burst),
        duplicate_probability: 0.03,
        reorder_probability: 0.08,
        extra_delay: Seconds::from_millis(220.0),
        outage_start: Seconds::new(5.0),
        outage_duration: Seconds::new(outage_secs),
        outage_period: Seconds::new(20.0),
    }
}

/// Runs one full-scale fault-sweep point and asserts the headline
/// invariant: faults may cost throughput, never safety or completion.
///
/// # Panics
///
/// Panics if any vehicle is stranded or the safety audit finds a
/// violation — at *any* injected fault intensity.
#[must_use]
pub fn run_fault_point(
    policy: PolicyKind,
    rate: f64,
    burst: f64,
    outage_secs: f64,
    seed: u64,
) -> SimOutcome {
    let config = knobs()
        .full_scale(policy)
        .with_seed(seed)
        .with_faults(fault_point(burst, outage_secs));
    let workload = sweep_workload(&config, rate, seed.wrapping_add(1000));
    run_sound_point(
        &config,
        &workload,
        &format!("{policy}@{rate}-b{burst}-o{outage_secs}-s{seed}"),
    )
}

/// Builds one mixed-traffic grid point: compliance shares for the
/// traffic generator plus the faulty execution-error envelope
/// `(speed_error, timing_error)`. The polling/gap parameters stay at
/// [`MixedConfig::standard`].
#[must_use]
pub fn mixed_point(
    human: f64,
    faulty: f64,
    emergency: f64,
    speed_error: f64,
    timing_error_secs: f64,
) -> MixedConfig {
    let mut mixed = MixedConfig::standard().with_shares(human, faulty, emergency);
    mixed.speed_error = speed_error;
    mixed.timing_error = Seconds::new(timing_error_secs);
    mixed
}

/// Runs one full-scale mixed-traffic point with the runtime safety
/// filter armed, asserting the headline invariant of E16: whatever the
/// compliance mix and fault intensity, every vehicle completes and the
/// exhaustive post-run audit of *executed* trajectories finds zero
/// violations — non-compliance costs throughput, never safety.
///
/// # Panics
///
/// Panics if any vehicle is stranded or the safety audit finds a
/// violation at any point of the compliance/fault grid.
#[must_use]
pub fn run_mixed_point(policy: PolicyKind, rate: f64, mixed: MixedConfig, seed: u64) -> SimOutcome {
    let config = knobs()
        .full_scale(policy)
        .with_seed(seed)
        .with_mixed(mixed)
        .with_safety_filter(true);
    let workload = sweep_workload(&config, rate, seed.wrapping_add(1000));
    let label = format!(
        "{policy}@{rate}-h{}-f{}-e{}-s{seed}",
        mixed.human_share, mixed.faulty_share, mixed.emergency_share
    );
    run_sound_point(&config, &workload, &label)
}

/// The "Ideal" series of Fig. 7.2: a Crossroads scheduler with a perfect
/// substrate — instantaneous radio and computation, zero buffers, no
/// residual uncertainty. It upper-bounds what any IM could carry on this
/// geometry.
#[must_use]
pub fn ideal_config() -> SimConfig {
    let mut config = knobs().full_scale(PolicyKind::Crossroads);
    config.channel = crossroads_net::ChannelConfig::ideal();
    config.computation = crossroads_net::ComputationDelayModel::instant();
    config.buffers.e_long = crossroads_units::Meters::ZERO;
    config.buffers.rtd = crossroads_net::RtdBudget {
        wc_network: crossroads_units::Seconds::ZERO,
        wc_computation: crossroads_units::Seconds::ZERO,
    };
    config
}

/// Runs the Ideal series at one sweep point.
///
/// # Panics
///
/// Panics on an unsound run, as [`run_sound_point`] does.
#[must_use]
pub fn run_ideal_point(rate: f64, seed: u64) -> SimOutcome {
    let config = ideal_config().with_seed(seed);
    let workload = sweep_workload(&config, rate, seed.wrapping_add(1000));
    run_sound_point(&config, &workload, &format!("ideal@{rate}-s{seed}"))
}

/// Carried throughput in cars/second/lane — Fig. 7.2's y-axis.
#[must_use]
pub fn carried_per_lane(outcome: &SimOutcome) -> f64 {
    outcome.metrics.flow_rate() / 4.0
}

/// The seed every grid point runs at.
pub const GRID_SEED: u64 = 11;

/// One corridor grid point: a policy crossing a corridor length and an
/// arterial demand level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// The admission policy every IM in the corridor runs.
    pub policy: PolicyKind,
    /// Chained intersections.
    pub k: usize,
    /// Arterial arrival rate, cars/second per direction (cross traffic
    /// runs at half this rate per lane).
    pub rate: f64,
}

/// Display label of a grid point, e.g. `Crossroads@K4/r0.25`.
#[must_use]
pub fn grid_label(p: &GridPoint) -> String {
    format!("{}@K{}/r{}", p.policy, p.k, p.rate)
}

/// The E13 grid: K ∈ {1, 2, 4, 8} × arterial rate × all three policies
/// (fast mode trims to K ∈ {1, 4} at one rate). Workload size scales
/// with K, so the K = 8 headline points route 10k vehicles each. The
/// rates sit below every policy's measured saturation throughput
/// (~0.1 car/s/lane, E5) — at 10k vehicles the corridor runs long enough
/// that any oversubscription strands the tail of the queue.
#[must_use]
pub fn grid_points() -> Vec<GridPoint> {
    let (ks, rates): (&[usize], &[f64]) = if fast_sweep() {
        (&[1, 4], &[0.08])
    } else {
        (&[1, 2, 4, 8], &[0.05, 0.08])
    };
    ks.iter()
        .flat_map(|&k| {
            rates.iter().flat_map(move |&rate| {
                PolicyKind::ALL.map(move |policy| GridPoint { policy, k, rate })
            })
        })
        .collect()
}

/// Demand shape of one grid point: two arterial directions at `rate`,
/// cross traffic at every intersection at `rate / 2` per lane, total
/// vehicles proportional to corridor length (1250 per intersection —
/// 10k at K = 8; 100 per intersection in fast mode).
#[must_use]
pub fn grid_demand(config: &SimConfig, k: usize, rate: f64) -> CorridorDemand {
    #[allow(clippy::cast_possible_truncation)]
    let per_k = if fast_sweep() { 100u32 } else { 1250u32 };
    CorridorDemand {
        k,
        arterial_rate: rate,
        cross_rate: rate / 2.0,
        total_vehicles: per_k * k as u32,
        line_speed: config.typical_line_speed(),
        min_headway: Seconds::new(1.0),
    }
}

/// Runs one corridor with the [`TRACE_ENV`] post-mortem guard, exactly
/// as [`run_point_guarded`] does for single intersections.
#[must_use]
pub fn run_corridor_guarded(
    config: &CorridorConfig,
    workload: &[Arrival],
    entry_ims: &[u32],
    label: &str,
) -> CorridorOutcome {
    guarded(
        label,
        |o: &CorridorOutcome| o.all_completed() && o.is_safe(),
        |recorder| match recorder {
            Some(r) => run_corridor_traced(config, workload, entry_ims, r),
            None => run_corridor(config, workload, entry_ims),
        },
    )
}

/// Shard workers on the windowed-parallel comparison axis of
/// `exp_grid_sweep` (the corridor's K = 8 headline width). Explicit
/// rather than knob-derived so the comparison's stdout is byte-identical
/// at any `CROSSROADS_SHARD_WORKERS` setting.
pub const GRID_SHARD_WORKERS: usize = 8;

/// Runs one grid point end to end and asserts it is sound. The engine
/// (serial or windowed-parallel) follows the `CROSSROADS_SHARD_WORKERS`
/// knob; the outcome is identical either way.
///
/// # Panics
///
/// Panics if any vehicle is stranded or any intersection's safety audit
/// finds a violation.
#[must_use]
pub fn run_grid_point(p: &GridPoint, seed: u64) -> CorridorOutcome {
    run_grid_point_sharded(p, seed, knobs().shard_workers)
}

/// [`run_grid_point`] with an explicit windowed-shard worker count
/// (`0` or `1` forces the serial engine), overriding the
/// `CROSSROADS_SHARD_WORKERS` knob.
///
/// # Panics
///
/// Panics on an unsound run, as [`run_grid_point`] does.
#[must_use]
pub fn run_grid_point_sharded(p: &GridPoint, seed: u64, shard_workers: usize) -> CorridorOutcome {
    let sim = knobs().full_scale(p.policy).with_seed(seed);
    let demand = grid_demand(&sim, p.k, p.rate);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2000));
    let (workload, entry_ims) = generate_corridor(&demand, &mut rng);
    let config = CorridorConfig::new(sim, p.k).with_shard_workers(shard_workers);
    let label = grid_label(p);
    let out = run_corridor_guarded(&config, &workload, &entry_ims, &label);
    assert!(
        out.all_completed(),
        "{label}: {} of {} vehicles stranded",
        out.stranded(),
        out.spawned
    );
    assert!(out.is_safe(), "{label}: SAFETY VIOLATION");
    out
}

/// Times one explicitly-sharded grid-point run on the calling thread:
/// returns the outcome, wall-clock milliseconds, and DES events
/// dispatched (via the engine's thread-local tally, which the windowed
/// engine credits to its caller).
#[must_use]
pub fn time_grid_point(
    p: &GridPoint,
    seed: u64,
    shard_workers: usize,
) -> (CorridorOutcome, f64, u64) {
    let events0 = crossroads_core::sim::thread_events_processed();
    let t0 = Instant::now();
    let out = run_grid_point_sharded(p, seed, shard_workers);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let events = crossroads_core::sim::thread_events_processed() - events0;
    (out, wall_ms, events)
}

/// One markdown row of the grid table — pure function of the outcome,
/// shared by `exp_grid_sweep` and the thread-count identity test.
#[must_use]
pub fn grid_row(p: &GridPoint, out: &CorridorOutcome) -> String {
    format!(
        "| {} | {} | {} | {} | {} | {:.0} | {:.2} |",
        p.policy,
        p.k,
        p.rate,
        out.spawned,
        out.handoffs,
        out.metrics.flow_rate() * 3600.0,
        out.metrics.average_wait().value(),
    )
}

/// The grid point's deterministic `BENCH_sweep.json` summary entry.
#[must_use]
pub fn grid_summary_point(p: &GridPoint, out: &CorridorOutcome) -> GridPointSummary {
    GridPointSummary {
        label: grid_label(p),
        k: p.k,
        rate: p.rate,
        vehicles: out.spawned,
        completed: out.metrics.completed(),
        handoffs: out.handoffs,
        vehicles_per_hour: out.metrics.flow_rate() * 3600.0,
        average_wait: out.metrics.average_wait().value(),
    }
}

/// Prints a markdown table header.
pub fn table_header(columns: &[&str]) {
    println!("| {} |", columns.join(" | "));
    println!(
        "|{}|",
        columns.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Knobs::read`] over `vars`, leaving the process environment alone.
    fn knobs_of(vars: &[(&str, &str)]) -> Knobs {
        Knobs::read(&|name| vars.iter().find(|v| v.0 == name).map(|v| v.1.into()))
    }

    #[test]
    fn boolean_knobs_are_off_when_unset_empty_or_zero_and_the_filter_follows_mixed() {
        let unset = knobs_of(&[]);
        assert!(!unset.platoon && !unset.mixed && !unset.safety_filter && unset.aim_analytic);
        for off in ["", "0"] {
            let knobs = knobs_of(&[(PLATOON_ENV, off), (MIXED_ENV, off)]);
            assert_eq!(knobs, unset, "{off:?}");
            assert_ne!(flag(&|_| Some(off.into()), FAST_ENV), Some(true));
        }
        assert!(knobs_of(&[(MIXED_ENV, "yes")]).safety_filter);
        assert!(!knobs_of(&[(MIXED_ENV, "1"), (SAFETY_FILTER_ENV, "0")]).safety_filter);
        let alone = knobs_of(&[(SAFETY_FILTER_ENV, "1")]);
        assert!(alone.safety_filter && !alone.mixed);
        assert!(knobs_of(&[(AIM_ANALYTIC_ENV, "")]).aim_analytic);
        let c = knobs_of(&[(PLATOON_ENV, "1"), (MIXED_ENV, "1")]).full_scale(PolicyKind::Aim);
        assert!(c.aim_analytic && c.platoon.enabled && c.mixed.enabled && c.safety_filter);
        let c = knobs_of(&[(AIM_ANALYTIC_ENV, "0")]).scale_model(PolicyKind::Aim);
        assert!(!c.aim_analytic && !c.platoon.enabled && !c.mixed.enabled && !c.safety_filter);
    }

    #[test]
    fn count_knobs_are_trimmed_and_zero_keeps_the_default() {
        let set = knobs_of(&[(SHARD_WORKERS_ENV, " 2"), (THREADS_ENV, "3\n")]);
        assert_eq!((set.shard_workers, set.threads), (2, 3));
        let zero = knobs_of(&[(SHARD_WORKERS_ENV, "0"), (THREADS_ENV, "0")]);
        assert_eq!(zero, knobs_of(&[]));
    }

    #[test]
    #[should_panic(expected = "CROSSROADS_SHARD_WORKERS=\"two\" is not a worker count")]
    fn unparsable_count_knob_panics_naming_variable_and_value() {
        let _ = knobs_of(&[(SHARD_WORKERS_ENV, "two")]);
    }

    #[test]
    fn sweep_workload_is_deterministic() {
        let config = SimConfig::full_scale(PolicyKind::Crossroads);
        assert_eq!(
            sweep_workload(&config, 0.3, 1),
            sweep_workload(&config, 0.3, 1)
        );
    }

    #[test]
    fn run_sweep_point_is_sound_at_low_rate() {
        let out = run_sweep_point(PolicyKind::Crossroads, 0.05, 9);
        assert!(carried_per_lane(&out) > 0.0);
    }

    #[test]
    fn ring_trace_dump_round_trips_and_sanitizes_labels() {
        let config = SimConfig::full_scale(PolicyKind::Crossroads).with_seed(3);
        let workload = sweep_workload(&config, 0.05, 1003);
        let mut recorder = Recorder::ring(64);
        let _ = run_simulation_traced(&config, &workload, &mut recorder);
        let trace = recorder.snapshot();
        assert!(!trace.records.is_empty(), "a run must leave records");

        let dir = std::env::temp_dir().join(format!("xr_trace_dump_{}", std::process::id()));
        let path = dump_ring_trace(&dir, "Crossroads@0.05/s3", &trace).expect("dump must succeed");
        assert_eq!(path.file_name().unwrap(), "Crossroads_0.05_s3.xrtr");
        let bytes = std::fs::read(&path).expect("dump readable");
        let decoded = crossroads_trace::codec::decode(&bytes).expect("dump decodes");
        assert_eq!(decoded, trace, "disk round trip must be lossless");
        std::fs::remove_dir_all(&dir).ok();
    }
}
