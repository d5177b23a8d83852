//! The four benchmark workloads: inputs generated from the seed, every
//! configuration knob pinned here, and one run call per policy.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::SafetyReport;
use crossroads_core::{
    run_corridor, run_corridor_traced, run_simulation, run_simulation_traced, CorridorConfig,
    PlatoonConfig, SimConfig,
};
use crossroads_metrics::{Percentiles, RunMetrics};
use crossroads_net::{FaultConfig, GilbertElliott};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_trace::Recorder;
use crossroads_traffic::{
    generate_corridor, generate_poisson, Arrival, CorridorDemand, MixedConfig, PoissonConfig,
};
use crossroads_units::{Seconds, TimePoint};

/// Corridor length of the `corridor` workloads.
const CORRIDOR_K: usize = 8;

/// Ring capacity of the recorder on traced runs: every record is still
/// written (and counted), only the last ones are kept.
const TRACE_RING: usize = 1 << 16;

/// Which workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One intersection below the Fig. 7.2 saturation knee, where AIM's
    /// reject/retry loop dominates, all three policies.
    Isect,
    /// K = 8 corridor on the serial engine, VT-IM and Crossroads.
    Corridor,
    /// The same corridor inputs on the windowed engine with 2 shard workers.
    CorridorW2,
    /// One intersection with platoons, mixed traffic, the safety filter
    /// and faults; Crossroads and AIM.
    Mixed,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 4] = [Kind::Isect, Kind::Corridor, Kind::CorridorW2, Kind::Mixed];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Isect => "isect",
            Kind::Corridor => "corridor",
            Kind::CorridorW2 => "corridor-w2",
            Kind::Mixed => "mixed",
        }
    }

    /// Policies run back to back in one pass.
    pub fn policies(self) -> &'static [PolicyKind] {
        match self {
            Kind::Isect => &PolicyKind::ALL,
            Kind::Corridor | Kind::CorridorW2 => &[PolicyKind::VtIm, PolicyKind::Crossroads],
            // VT-IM under this configuration strands vehicles on some seeds
            // (README.md, "Findings"), so it is not part of the workload.
            Kind::Mixed => &[PolicyKind::Crossroads, PolicyKind::Aim],
        }
    }

    /// Vehicles in the full-size workload.
    pub fn vehicles(self) -> u32 {
        match self {
            Kind::Isect | Kind::Mixed => 16_000,
            Kind::Corridor | Kind::CorridorW2 => 20_000,
        }
    }

    /// Windowed-engine shard workers (0 selects the serial engine).
    pub fn shard_workers(self) -> usize {
        match self {
            Kind::CorridorW2 => 2,
            _ => 0,
        }
    }

    /// Threads a run of this workload uses, the caller's included.
    pub fn threads(self) -> usize {
        self.shard_workers().max(1)
    }

    /// Whether platoons, mixed traffic, the safety filter and faults are on.
    fn extensions(self) -> bool {
        self == Kind::Mixed
    }

    /// Arrival rate: cars/s per lane, or per arterial direction on the
    /// corridor (whose cross lanes run at half of it).
    fn rate(self) -> f64 {
        match self {
            Kind::Isect => 0.06,
            Kind::Corridor | Kind::CorridorW2 => 0.08,
            Kind::Mixed => 0.05,
        }
    }

    fn is_corridor(self) -> bool {
        matches!(self, Kind::Corridor | Kind::CorridorW2)
    }
}

/// Burst loss on both directions at a 10% long-run mean, mild duplication,
/// reordering beyond the WC-RTD, and 2 s IM outages every 20 s from t = 5 s.
fn faults() -> FaultConfig {
    FaultConfig {
        uplink: GilbertElliott::bursty(0.1),
        downlink: GilbertElliott::bursty(0.1),
        duplicate_probability: 0.03,
        reorder_probability: 0.08,
        extra_delay: Seconds::from_millis(220.0),
        outage_start: Seconds::new(5.0),
        outage_duration: Seconds::new(2.0),
        outage_period: Seconds::new(20.0),
    }
}

/// The full-scale configuration of `policy` with every knob that a process
/// environment variable could otherwise default set explicitly.
fn pinned_config(kind: Kind, policy: PolicyKind, seed: u64) -> SimConfig {
    let ext = kind.extensions();
    let mut config = SimConfig::full_scale(policy)
        .with_seed(seed)
        .with_faults(if ext {
            faults()
        } else {
            FaultConfig::disabled()
        })
        .with_platoons(if ext {
            PlatoonConfig::standard()
        } else {
            PlatoonConfig::disabled()
        })
        .with_mixed(if ext {
            MixedConfig::standard()
        } else {
            MixedConfig::disabled()
        })
        .with_safety_filter(ext);
    config.aim_analytic = true;
    config
}

/// How one policy's run is executed.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// `run_simulation` on one intersection.
    Single(SimConfig),
    /// `run_corridor` on a chain of intersections.
    Corridor(CorridorConfig),
}

impl Engine {
    /// The per-intersection configuration.
    pub fn sim(&self) -> &SimConfig {
        match self {
            Engine::Single(c) => c,
            Engine::Corridor(c) => &c.sim,
        }
    }
}

/// One workload's generated inputs and per-policy configurations.
pub struct Workload {
    pub arrivals: Vec<Arrival>,
    /// Entry intersection of each arrival (corridor workloads only).
    pub entry_ims: Vec<u32>,
    pub engines: Vec<Engine>,
}

impl Workload {
    /// Generates the inputs from `seed` and builds the configurations.
    /// Returns the workload and the seconds spent in traffic generation.
    pub fn build(kind: Kind, seed: u64, vehicles: u32) -> (Workload, f64) {
        let configs: Vec<SimConfig> = kind
            .policies()
            .iter()
            .map(|&p| pinned_config(kind, p, seed))
            .collect();
        let line_speed = configs[0].typical_line_speed();
        let t0 = Instant::now();
        let (arrivals, entry_ims) = if kind.is_corridor() {
            let demand = CorridorDemand {
                k: CORRIDOR_K,
                arterial_rate: kind.rate(),
                cross_rate: kind.rate() / 2.0,
                total_vehicles: vehicles,
                line_speed,
                min_headway: Seconds::new(1.0),
            };
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2000));
            generate_corridor(&demand, &mut rng)
        } else {
            let poisson = PoissonConfig {
                rate_per_lane: kind.rate(),
                total_vehicles: vehicles,
                line_speed,
                min_headway: Seconds::new(1.0),
                turn_mix: [0.70, 0.15, 0.15],
            };
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1000));
            (generate_poisson(&poisson, &mut rng), Vec::new())
        };
        let generate_s = t0.elapsed().as_secs_f64();
        let engines = configs
            .into_iter()
            .map(|sim| {
                if kind.is_corridor() {
                    Engine::Corridor(
                        CorridorConfig::new(sim, CORRIDOR_K)
                            .with_link_time(Seconds::new(6.0))
                            .with_batch_workers(0)
                            .with_shard_workers(kind.shard_workers()),
                    )
                } else {
                    Engine::Single(sim)
                }
            })
            .collect();
        let workload = Workload {
            arrivals,
            entry_ims,
            engines,
        };
        (workload, generate_s)
    }

    /// Runs policy `i`, catching a panic as `None`.
    pub fn run(&self, i: usize) -> Option<Outcome> {
        self.run_on(&self.engines[i])
    }

    /// Runs policy `i` on the serial corridor engine (the windowed
    /// engine's reference).
    pub fn run_serial(&self, i: usize) -> Option<Outcome> {
        match self.engines[i] {
            Engine::Corridor(c) => self.run_on(&Engine::Corridor(c.with_shard_workers(0))),
            single @ Engine::Single(_) => self.run_on(&single),
        }
    }

    fn run_on(&self, engine: &Engine) -> Option<Outcome> {
        catch_unwind(AssertUnwindSafe(|| match engine {
            Engine::Single(c) => Outcome::single(c, run_simulation(c, &self.arrivals)),
            Engine::Corridor(c) => {
                Outcome::corridor(c, run_corridor(c, &self.arrivals, &self.entry_ims))
            }
        }))
        .ok()
    }

    /// Runs policy `i` with the flight recorder engaged; returns the
    /// outcome and the number of records written.
    pub fn run_traced(&self, i: usize) -> Option<(Outcome, u64)> {
        let mut recorder = Recorder::ring(TRACE_RING);
        let outcome = catch_unwind(AssertUnwindSafe(|| match &self.engines[i] {
            Engine::Single(c) => {
                Outcome::single(c, run_simulation_traced(c, &self.arrivals, &mut recorder))
            }
            Engine::Corridor(c) => Outcome::corridor(
                c,
                run_corridor_traced(c, &self.arrivals, &self.entry_ims, &mut recorder),
            ),
        }))
        .ok()?;
        let records = recorder.len() as u64 + recorder.dropped();
        Some((outcome, records))
    }
}

/// What one run call produced, in a shape shared by both engines.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub policy: PolicyKind,
    pub metrics: RunMetrics,
    /// One audit per intersection.
    pub safety: Vec<SafetyReport>,
    pub spawned: usize,
    pub ended_at: TimePoint,
    pub handoffs: u64,
}

impl Outcome {
    fn single(c: &SimConfig, o: crossroads_core::SimOutcome) -> Outcome {
        Outcome {
            policy: c.policy,
            metrics: o.metrics,
            safety: vec![o.safety],
            spawned: o.spawned,
            ended_at: o.ended_at,
            handoffs: 0,
        }
    }

    fn corridor(c: &CorridorConfig, o: crossroads_core::CorridorOutcome) -> Outcome {
        Outcome {
            policy: c.sim.policy,
            metrics: o.metrics,
            safety: o.safety,
            spawned: o.spawned,
            ended_at: o.ended_at,
            handoffs: o.handoffs,
        }
    }

    /// Vehicles that were stranded or took part in an audit violation.
    pub fn failed_vehicles(&self) -> usize {
        let mut bad: Vec<u32> = self
            .safety
            .iter()
            .flat_map(|r| r.violations())
            .flat_map(|v| [v.first.0, v.second.0])
            .collect();
        bad.sort_unstable();
        bad.dedup();
        (self.spawned - self.metrics.completed() + bad.len()).min(self.spawned)
    }
}

/// The model outputs of one pass, pooled over its policies. Deterministic
/// for a seed: a change that only speeds the simulator up keeps them
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSummary {
    pub spawned: u64,
    pub completed: u64,
    pub failed: u64,
    pub wait_mean_s: f64,
    pub wait_p99_s: f64,
    pub flow_vph: f64,
    pub frames_per_vehicle: f64,
}

impl ModelSummary {
    /// Pools the outcomes of one pass; a panicked run (`None`) counts all
    /// `vehicles` of it as failed.
    pub fn of(outcomes: &[Option<Outcome>], vehicles: usize) -> ModelSummary {
        let ok: Vec<&Outcome> = outcomes.iter().flatten().collect();
        let panicked = (outcomes.len() - ok.len()) * vehicles;
        let waits: Vec<f64> = ok
            .iter()
            .flat_map(|o| o.metrics.records().iter().map(|r| r.wait().value()))
            .collect();
        let spawned = ok.iter().map(|o| o.spawned).sum::<usize>() + panicked;
        let frames: u64 = ok.iter().map(|o| o.metrics.counters().messages).sum();
        let flows: Vec<f64> = ok.iter().map(|o| o.metrics.flow_rate() * 3600.0).collect();
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        ModelSummary {
            spawned: spawned as u64,
            completed: waits.len() as u64,
            failed: (ok.iter().map(|o| o.failed_vehicles()).sum::<usize>() + panicked) as u64,
            wait_mean_s: mean(&waits),
            wait_p99_s: Percentiles::of(waits.iter().copied()).p99,
            flow_vph: mean(&flows),
            frames_per_vehicle: if spawned == 0 {
                0.0
            } else {
                frames as f64 / spawned as f64
            },
        }
    }

    /// A canonical rendering that is equal exactly when the summaries are
    /// bit-identical (used to compare a child process's run).
    pub fn fingerprint(&self, events: &[u64]) -> String {
        let bits = [
            self.wait_mean_s,
            self.wait_p99_s,
            self.flow_vph,
            self.frames_per_vehicle,
        ]
        .map(|x| format!("{:016x}", x.to_bits()));
        format!(
            "spawned={} completed={} failed={} sim={} events={:?}",
            self.spawned,
            self.completed,
            self.failed,
            bits.join(","),
            events
        )
    }
}
