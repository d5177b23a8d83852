//! The closed-loop simulation: configuration, runner and outcome.
//!
//! One [`run_simulation`] call replaces one testbed experiment: the
//! workload's vehicles cross the transmission line, sync clocks, request
//! crossings over the lossy radio, follow the plans the configured IM
//! hands out, and report their exits. The outcome carries the Fig. 7.1 /
//! 7.2 metrics, the load counters of Ch. 7.2, and a ground-truth safety
//! audit.

mod event;
mod filter;
pub mod safety;
mod windowed;
mod world;

pub use safety::{BoxOccupancy, SafetyReport, SafetyViolation};

use crossroads_des::Simulation;
use crossroads_intersection::{ConflictTable, IntersectionGeometry, ReservationTable};
use crossroads_metrics::{Counters, RunMetrics, VehicleRecord};
use crossroads_net::{ChannelConfig, ComputationDelayModel, FaultConfig};
use crossroads_trace::Recorder;
use crossroads_traffic::{Arrival, MixedConfig};
use crossroads_units::{MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::VehicleSpec;

use crate::buffer::BufferModel;
use crate::policy::{AimPolicy, CrossroadsPolicy, IntersectionPolicy, PolicyKind, VtPolicy};

use self::event::Event;
use self::world::World;

/// Experiment-binary knob for [`SimConfig::aim_analytic`], read by
/// `crossroads_bench`, never by this crate.
pub const AIM_ANALYTIC_ENV: &str = "CROSSROADS_AIM_ANALYTIC";

/// Experiment-binary knob for [`CorridorConfig::shard_workers`], read by
/// `crossroads_bench`, never by this crate.
pub const SHARD_WORKERS_ENV: &str = "CROSSROADS_SHARD_WORKERS";

/// Experiment-binary knob for [`SimConfig::platoon`], read by
/// `crossroads_bench`, never by this crate.
pub const PLATOON_ENV: &str = "CROSSROADS_PLATOON";

/// Experiment-binary knob for [`SimConfig::safety_filter`], read by
/// `crossroads_bench`, never by this crate.
pub const SAFETY_FILTER_ENV: &str = "CROSSROADS_SAFETY_FILTER";

/// Platoon formation and admission parameters (PAIM, arXiv 1809.06956):
/// same-movement vehicles arriving within [`headway`](Self::headway) of
/// their lane predecessor join its platoon (up to
/// [`max_size`](Self::max_size) members); only the leader negotiates
/// with the IM, and followers inherit the grant at fixed entry offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatoonConfig {
    /// Whether platoons form at all. Off by default — the per-vehicle
    /// request loop is the paper's protocol and the pinned baseline.
    pub enabled: bool,
    /// Maximum platoon size including the leader (`>= 2` when enabled).
    pub max_size: u32,
    /// Maximum line-crossing headway behind the previous platoon member
    /// for a vehicle to join.
    pub headway: Seconds,
    /// Follower spacing in vehicle lengths: the front-to-front gap each
    /// follower keeps is `gap_lengths × spec.length`.
    pub gap_lengths: f64,
    /// How long a follower waits for its leader's grant before falling
    /// back to the per-vehicle protocol (covers lost downlinks and IM
    /// crashes mid-platoon).
    pub fallback_timeout: Seconds,
}

impl PlatoonConfig {
    /// The disabled default: per-vehicle admission, bit-identical to the
    /// pre-platoon tree.
    #[must_use]
    pub fn disabled() -> Self {
        PlatoonConfig {
            enabled: false,
            ..PlatoonConfig::standard()
        }
    }

    /// The standard enabled shape: platoons of up to 4, a 2.5 s join
    /// headway, followers two vehicle lengths apart front-to-front, and
    /// a 15 s grant-inheritance timeout.
    #[must_use]
    pub fn standard() -> Self {
        PlatoonConfig {
            enabled: true,
            max_size: 4,
            headway: Seconds::new(2.5),
            gap_lengths: 2.0,
            fallback_timeout: Seconds::new(15.0),
        }
    }

    /// Validates the shape when enabled.
    ///
    /// # Panics
    ///
    /// Panics when enabled with `max_size < 2`, a non-positive or
    /// non-finite `headway`/`fallback_timeout`, or `gap_lengths < 1.0`
    /// (followers may not overlap their predecessor).
    pub fn validate(&self) {
        if !self.enabled {
            return;
        }
        assert!(
            self.max_size >= 2,
            "platoon max_size must be >= 2 when enabled, got {}",
            self.max_size
        );
        assert!(
            self.headway.value().is_finite() && self.headway.value() > 0.0,
            "platoon headway must be finite and positive, got {:?}",
            self.headway
        );
        assert!(
            self.fallback_timeout.value().is_finite() && self.fallback_timeout.value() > 0.0,
            "platoon fallback_timeout must be finite and positive, got {:?}",
            self.fallback_timeout
        );
        assert!(
            self.gap_lengths.is_finite() && self.gap_lengths >= 1.0,
            "platoon gap_lengths must be >= 1 vehicle length, got {}",
            self.gap_lengths
        );
    }
}

/// Everything one experiment needs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Which IM runs the intersection.
    pub policy: PolicyKind,
    /// Physical intersection dimensions.
    pub geometry: IntersectionGeometry,
    /// The (uniform) vehicle platform.
    pub spec: VehicleSpec,
    /// Buffer arithmetic (sensing envelope, RTD budget).
    pub buffers: BufferModel,
    /// Radio model.
    pub channel: ChannelConfig,
    /// IM computation-time model.
    pub computation: ComputationDelayModel,
    /// RNG seed: same seed + same workload ⇒ identical trace.
    pub seed: u64,
    /// AIM tile grid resolution (tiles per side).
    pub aim_grid_side: usize,
    /// AIM trajectory-simulation step.
    pub aim_sim_step: Seconds,
    /// Whether AIM uses the closed-form analytic footprint kernel (the
    /// default) instead of the stepped march, its differential-test oracle;
    /// the two differ only in conservatism, never in safety (DESIGN.md §5d).
    pub aim_analytic: bool,
    /// Delay before a rejected AIM vehicle re-requests.
    pub aim_retry_interval: Seconds,
    /// Cruise-speed floor (fraction of `v_max`) below which the interval
    /// policies schedule a stop instead of a crawl.
    pub crawl_fraction: f64,
    /// Wall-clock cap on the simulation after the last arrival.
    pub horizon_slack: Seconds,
    /// Fault injection (bursty loss, duplication/reordering, IM outages).
    /// Disabled by default; a disabled config is zero-cost — the run is
    /// byte-identical to one without the fault subsystem.
    pub fault: FaultConfig,
    /// Platoon-based admission (PAIM). Disabled by default; a disabled
    /// config is zero-cost — the run is byte-identical to one without the
    /// platoon subsystem.
    pub platoon: PlatoonConfig,
    /// Mixed (non-compliant) traffic: the compliance mix and error
    /// bounds. Disabled by default; disabled draws no randomness, so the
    /// run is byte-identical to one without the compliance model.
    pub mixed: MixedConfig,
    /// Whether the runtime safety filter may veto actuations. Off by
    /// default; [`with_mixed`](Self::with_mixed) arms it with an enabled
    /// mix. It acts only with mixed traffic on: without non-compliant
    /// vehicles no check can fail, so no filter is built.
    pub safety_filter: bool,
}

impl SimConfig {
    /// The 1/10-scale testbed configuration of Ch. 2: platoons, mixed
    /// traffic and the safety filter off, AIM on the analytic kernel.
    #[must_use]
    pub fn scale_model(policy: PolicyKind) -> Self {
        SimConfig {
            policy,
            geometry: IntersectionGeometry::scale_model(),
            spec: VehicleSpec::scale_model(),
            buffers: BufferModel::scale_model(),
            channel: ChannelConfig::scale_model(),
            computation: ComputationDelayModel::scale_model(),
            seed: 0,
            aim_grid_side: 8,
            aim_sim_step: Seconds::from_millis(20.0),
            aim_analytic: true,
            aim_retry_interval: Seconds::from_millis(300.0),
            crawl_fraction: 0.30,
            horizon_slack: Seconds::new(1200.0),
            fault: FaultConfig::disabled(),
            platoon: PlatoonConfig::disabled(),
            mixed: MixedConfig::disabled(),
            safety_filter: false,
        }
    }

    /// A full-scale urban intersection for the Fig. 7.2 sweeps.
    ///
    /// The IM here is a modern machine (the paper's i7-6700 desktop), so a
    /// single decision costs ~2 ms rather than the 34 ms the Matlab-on-
    /// laptop testbed measured; the *protocol* WC-RTD budget stays at the
    /// thesis' 150 ms bound regardless (it is a contract, not a
    /// measurement).
    #[must_use]
    pub fn full_scale(policy: PolicyKind) -> Self {
        SimConfig {
            geometry: IntersectionGeometry::full_scale(),
            spec: VehicleSpec::full_scale(),
            buffers: BufferModel::full_scale(),
            computation: ComputationDelayModel {
                base: Seconds::from_millis(1.0),
                per_op: Seconds::from_millis(0.05),
            },
            // Coarse reservation granularity, as in Dresner & Stone's
            // original evaluation era. The tiles.rs ablation bench shows
            // AIM's throughput overtaking Crossroads at fine granularity
            // (>= 4 tiles/side) — the paper's AIM-vs-Crossroads gap holds
            // for coarse-granularity AIM.
            aim_grid_side: 3,
            aim_sim_step: Seconds::from_millis(50.0),
            ..SimConfig::scale_model(policy)
        }
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the buffer model (failure injection, ablations).
    #[must_use]
    pub fn with_buffers(mut self, buffers: BufferModel) -> Self {
        self.buffers = buffers;
        self
    }

    /// Installs a fault-injection configuration (validated when the run
    /// starts).
    #[must_use]
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Installs a platoon-admission configuration (validated when the run
    /// starts).
    #[must_use]
    pub fn with_platoons(mut self, platoon: PlatoonConfig) -> Self {
        self.platoon = platoon;
        self
    }

    /// Installs a mixed-traffic configuration (validated when the run
    /// starts) and arms the safety filter exactly when the mix is enabled
    /// — follow with [`with_safety_filter`](Self::with_safety_filter) to
    /// pin the filter explicitly.
    #[must_use]
    pub fn with_mixed(mut self, mixed: MixedConfig) -> Self {
        self.mixed = mixed;
        self.safety_filter = mixed.enabled;
        self
    }

    /// Pins the runtime safety filter on or off.
    #[must_use]
    pub fn with_safety_filter(mut self, on: bool) -> Self {
        self.safety_filter = on;
        self
    }

    /// Validates the platoon, mixed-traffic and (when enabled) fault
    /// sub-configs. Both engines call this once per run, before they
    /// build the start schedule.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the bad field, as
    /// [`PlatoonConfig::validate`], [`MixedConfig::validate`] and
    /// [`FaultConfig::validate`] do.
    pub fn validate(&self) {
        self.platoon.validate();
        self.mixed.validate();
        if self.fault.enabled() {
            self.fault.validate();
        }
    }

    /// The speed vehicles carry across the transmission line in the
    /// standard workloads — two thirds of the road limit, leaving the
    /// velocity-transaction IMs headroom to command an acceleration
    /// (used by workload builders; not enforced here).
    #[must_use]
    pub fn typical_line_speed(&self) -> MetersPerSecond {
        self.spec.v_max * (2.0 / 3.0)
    }

    pub(crate) fn build_policy(
        &self,
        conflicts: &std::sync::Arc<ConflictTable>,
    ) -> Box<dyn IntersectionPolicy> {
        match self.policy {
            PolicyKind::VtIm => Box::new(VtPolicy::new(
                self.geometry,
                ReservationTable::new(std::sync::Arc::clone(conflicts)),
                self.buffers,
                self.crawl_fraction,
            )),
            PolicyKind::Crossroads => Box::new(CrossroadsPolicy::new(
                self.geometry,
                ReservationTable::new(std::sync::Arc::clone(conflicts)),
                self.buffers,
                self.crawl_fraction,
            )),
            PolicyKind::Aim => Box::new(
                AimPolicy::new(
                    self.geometry,
                    self.buffers,
                    self.aim_grid_side,
                    self.aim_sim_step,
                )
                .with_analytic(self.aim_analytic),
            ),
        }
    }
}

/// Result of one run.
#[derive(Debug)]
pub struct SimOutcome {
    /// Per-vehicle delays and aggregate load counters.
    pub metrics: RunMetrics,
    /// Ground-truth conflict audit of the physical box occupancies.
    pub safety: SafetyReport,
    /// Vehicles in the workload (compare with `metrics.completed()`).
    pub spawned: usize,
    /// Simulated instant the run ended.
    pub ended_at: TimePoint,
}

impl SimOutcome {
    /// Whether every spawned vehicle cleared the intersection.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.metrics.completed() == self.spawned
    }

    /// Number of vehicles that never cleared the box (stranded at the
    /// horizon — e.g. under a dead radio).
    #[must_use]
    pub fn stranded(&self) -> usize {
        self.spawned - self.metrics.completed()
    }
}

thread_local! {
    /// Events dispatched by every `run_simulation` call on this thread.
    static DES_EVENTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total DES events dispatched by `run_simulation` calls on the calling
/// thread, ever. Timing harnesses read this before and after a run to
/// derive `events/sec` without threading a counter through every
/// experiment's return type.
#[must_use]
pub fn thread_events_processed() -> u64 {
    DES_EVENTS.with(std::cell::Cell::get)
}

/// Runs one experiment: `workload` through the configured IM.
///
/// Deterministic: the same `(config, workload)` pair always produces the
/// identical outcome.
///
/// # Panics
///
/// Panics if [`SimConfig::validate`] rejects the configuration, or if the
/// workload is not sorted by arrival time (validate with
/// [`crossroads_traffic::validate_workload`] first).
#[must_use]
pub fn run_simulation(config: &SimConfig, workload: &[Arrival]) -> SimOutcome {
    run_single(config, workload, None)
}

/// Runs one experiment with the flight recorder engaged: every structured
/// simulation event (frame sends and deliveries, IM decisions with their
/// service latency, actuations, fallback stops, epoch bumps, audit
/// verdicts) is appended to `recorder` as it happens.
///
/// The recorded run is otherwise identical to [`run_simulation`] — the
/// recorder draws no randomness and perturbs no decision, so a traced run
/// and an untraced run of the same `(config, workload)` produce the same
/// [`SimOutcome`].
///
/// # Panics
///
/// As [`run_simulation`].
#[must_use]
pub fn run_simulation_traced(
    config: &SimConfig,
    workload: &[Arrival],
    recorder: &mut Recorder,
) -> SimOutcome {
    run_single(config, workload, Some(recorder))
}

/// A single intersection is the serial engine at `k = 1`.
fn run_single(
    config: &SimConfig,
    workload: &[Arrival],
    recorder: Option<&mut Recorder>,
) -> SimOutcome {
    // One intersection has no links, so the link time is never read.
    let mut out = run_serial(config, workload, &[], 1, Seconds::ZERO, recorder);
    SimOutcome {
        safety: out.safety.pop().expect("one audit per intersection"),
        metrics: out.metrics,
        spawned: out.spawned,
        ended_at: out.ended_at,
    }
}

/// The instant a run is cut off: `horizon_slack` after the last arrival,
/// extended on a corridor so a through-vehicle entering at the last
/// arrival can still drive its up to `k - 1` further legs.
fn run_horizon(cfg: &SimConfig, workload: &[Arrival], k: usize, link_time: Seconds) -> TimePoint {
    #[allow(clippy::cast_precision_loss)]
    let corridor_slack = (link_time + Seconds::new(120.0)) * (k - 1) as f64;
    workload
        .last()
        .map_or(TimePoint::ZERO, |a| a.at_line + cfg.horizon_slack)
        + corridor_slack
}

/// A run's start events in schedule order: every arrival's line crossing
/// at its entry intersection (missing entries default to 0), then, under
/// faults, every IM's outages up to `horizon`. Each event names the
/// intersection that serves it (`event.im()`). Each IM crashes on the
/// same schedule (the windows are a pure function of the config) but
/// recovers independently: lane-local queues, epochs and fault streams.
fn start_events<'a>(
    cfg: &SimConfig,
    workload: &'a [Arrival],
    entry_ims: &'a [u32],
    k: usize,
    horizon: TimePoint,
) -> impl Iterator<Item = (TimePoint, Event)> + 'a {
    let crossings = workload.iter().enumerate().map(|(i, arr)| {
        let im = entry_ims.get(i).copied().unwrap_or(0);
        (arr.at_line, Event::LineCrossing(i, im))
    });
    let windows = if cfg.fault.enabled() {
        cfg.fault.outage_windows(horizon - TimePoint::ZERO)
    } else {
        Vec::new()
    };
    let outages = windows.into_iter().flat_map(move |(crash, restart)| {
        (0..k as u32).flat_map(move |im| {
            [
                (TimePoint::ZERO + crash, Event::ImCrash(im)),
                (TimePoint::ZERO + restart, Event::ImRestart(im)),
            ]
        })
    });
    crossings.chain(outages)
}

/// Checks that `workload` is sorted by arrival time, which the horizon
/// (taken from the last arrival) relies on.
///
/// # Panics
///
/// Panics naming the first vehicle that arrives before its predecessor,
/// in the words of [`crossroads_traffic::validate_workload`].
fn assert_sorted(workload: &[Arrival]) {
    if let Some(pair) = workload.windows(2).find(|p| p[1].at_line < p[0].at_line) {
        panic!("{}: arrivals not sorted by time", pair[1].vehicle);
    }
}

/// The serial engine: the `k` lanes of [`World::lanes`] driven by one
/// event queue, each event dispatched to the lane of the intersection it
/// names and every uplink decided inline by its IM. A vehicle leaving
/// its box toward the next intersection is re-seated there right after
/// the handler. This is the reference the windowed engine must
/// reproduce, and the only engine that can carry a flight recorder: the
/// recorder is lent to the dispatching lane, so its stamps are global
/// dispatch indices.
fn run_serial(
    cfg: &SimConfig,
    workload: &[Arrival],
    entry_ims: &[u32],
    k: usize,
    link_time: Seconds,
    recorder: Option<&mut Recorder>,
) -> CorridorOutcome {
    cfg.validate();
    assert_sorted(workload);
    // Rebound so the borrow can shrink to the lanes' lifetime: the lanes
    // hand it back after every event.
    let mut recorder = recorder;
    let mut lanes = World::lanes(cfg, workload, k, link_time);
    let horizon = run_horizon(cfg, workload, k, link_time);
    let mut sim = Simulation::with_prologue(start_events(cfg, workload, entry_ims, k, horizon));
    let mut handoffs = Vec::new();
    let run = sim.run_until(horizon, |sim, ev| {
        let lane = &mut lanes[ev.im()];
        lane.recorder = recorder.take();
        lane.handle(sim, ev);
        recorder = lane.recorder.take();
        handoffs.append(&mut lane.outbox);
        for h in handoffs.drain(..) {
            lanes[h.to_im].accept_handoff(sim, h);
        }
        true
    });

    let safety: Vec<SafetyReport> = lanes.iter_mut().map(World::audit).collect();
    for (lane, report) in lanes.iter_mut().zip(&safety) {
        lane.recorder = recorder.take();
        lane.record_audit(&sim, report);
        recorder = lane.recorder.take();
    }
    close_out(
        lanes.iter_mut().collect(),
        safety,
        workload.len(),
        run.events_processed,
        sim.now(),
    )
}

/// Closes a run out over its lanes, given in corridor order with their
/// audits. Vehicle records are merged by clearance time and decision
/// latencies by decision stamp (ties go to the lower lane), which is the
/// order one event queue dispatches them in; a single lane's metrics are
/// taken as they are. `im_busy` is folded over the merged latencies, so
/// its f64 sum is added in that order on either engine.
fn close_out(
    mut lanes: Vec<&mut World>,
    safety: Vec<SafetyReport>,
    spawned: usize,
    des_events: u64,
    ended_at: TimePoint,
) -> CorridorOutcome {
    let mut metrics = match lanes.as_mut_slice() {
        [lane] => std::mem::take(&mut lane.metrics),
        lanes => {
            let mut merged = RunMetrics::new();
            let records: Vec<&[VehicleRecord]> =
                lanes.iter().map(|l| l.metrics.records()).collect();
            merge_by(
                &records,
                |r| r.cleared_at,
                |l, i| merged.push(records[l][i]),
            );
            let stamps: Vec<&[TimePoint]> =
                lanes.iter().map(|l| l.decision_stamps.as_slice()).collect();
            merge_by(
                &stamps,
                |&t| t,
                |l, i| {
                    merged.push_decision_latency(lanes[l].metrics.decision_latencies()[i]);
                },
            );
            merged
        }
    };
    let mut counters = Counters::default();
    for lane in &lanes {
        counters.absorb(&lane.counters);
        lane.add_totals(&mut counters);
    }
    counters.im_busy = metrics
        .decision_latencies()
        .iter()
        .fold(Seconds::ZERO, |busy, &svc| busy + svc);
    counters.des_events = des_events;
    DES_EVENTS.with(|c| c.set(c.get() + des_events));
    metrics.add_counters(&counters);
    CorridorOutcome {
        metrics,
        safety,
        spawned,
        ended_at,
        handoffs: lanes.iter().map(|l| l.handoffs).sum(),
    }
}

/// Visits the items of `streams`, each already ordered by `key`, in one
/// merged `key` order with ties going to the lower stream, calling
/// `visit(stream, index)` for each.
fn merge_by<T, K: PartialOrd>(
    streams: &[&[T]],
    key: impl Fn(&T) -> K,
    mut visit: impl FnMut(usize, usize),
) {
    let mut next = vec![0usize; streams.len()];
    loop {
        let mut best: Option<(usize, K)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(item) = stream.get(next[s]) {
                let k = key(item);
                if best.as_ref().is_none_or(|(_, b)| k < *b) {
                    best = Some((s, k));
                }
            }
        }
        let Some((s, _)) = best else {
            return;
        };
        visit(s, next[s]);
        next[s] += 1;
    }
}

/// Configuration of a corridor run: `k` chained intersections sharing one
/// [`SimConfig`], connected by fixed-travel-time links.
#[derive(Debug, Clone, Copy)]
pub struct CorridorConfig {
    /// The per-intersection configuration (every IM in the corridor runs
    /// the same policy, geometry and radio).
    pub sim: SimConfig,
    /// Number of chained intersections (`k >= 1`; `k == 1` is exactly a
    /// single-intersection run).
    pub k: usize,
    /// Exit-to-next-transmission-line travel time between adjacent
    /// intersections.
    pub link_time: Seconds,
    /// Worker threads for the conservative time-windowed parallel engine.
    /// Below 2 (or at `k == 1`, or under a flight recorder) the corridor
    /// runs the serial engine; `>= 2` executes the intersections concurrently in
    /// lookahead windows with the identical outcome at any worker count.
    /// Defaults to 0.
    pub shard_workers: usize,
    /// Conservative window length override for the windowed engine. Must
    /// lie in `(0, link_time]`; `None` derives `link_time` minus the
    /// protocol's worst-case response-time budget (WC-RTD) — the largest
    /// window with comfortable slack under the handoff lookahead bound —
    /// or `link_time` itself when the budget is not shorter than the
    /// link.
    pub lookahead: Option<Seconds>,
}

impl CorridorConfig {
    /// A corridor of `k` identical intersections with a 6-second link.
    #[must_use]
    pub fn new(sim: SimConfig, k: usize) -> Self {
        CorridorConfig {
            sim,
            k,
            link_time: Seconds::new(6.0),
            shard_workers: 0,
            lookahead: None,
        }
    }

    /// Replaces the link travel time.
    #[must_use]
    pub fn with_link_time(mut self, link_time: Seconds) -> Self {
        self.link_time = link_time;
        self
    }

    /// Returns the config unchanged. Batched admission was removed: every
    /// request is decided inline with its uplink, which is what
    /// `workers < 2` selected. Kept so existing callers still build.
    #[must_use]
    pub fn with_batch_workers(self, _workers: usize) -> Self {
        self
    }

    /// Enables the windowed parallel engine on `workers` threads.
    #[must_use]
    pub fn with_shard_workers(mut self, workers: usize) -> Self {
        self.shard_workers = workers;
        self
    }

    /// Overrides the conservative window length (tests sweep this; the
    /// outcome is invariant for any value in `(0, link_time]`).
    #[must_use]
    pub fn with_lookahead(mut self, lookahead: Seconds) -> Self {
        self.lookahead = Some(lookahead);
        self
    }

    /// The conservative window the windowed engine will use. Any window
    /// in `(0, link_time]` gives the identical outcome.
    #[must_use]
    pub fn effective_lookahead(&self) -> Seconds {
        let derived = self.link_time - self.sim.buffers.rtd.wc_rtd();
        self.lookahead
            .unwrap_or(if derived > Seconds::ZERO {
                derived
            } else {
                self.link_time
            })
            .min(self.link_time)
    }

    /// Validates the corridor shape.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`, when `link_time` is shorter than 2 s (the
    /// V2I retransmission timeouts are all well under that bound, so a
    /// link this long guarantees no stale event of the previous leg can
    /// still be in flight when the vehicle reaches the next
    /// intersection), or when an explicit `lookahead` falls outside
    /// `(0, link_time]` — the conservative-window safety bound.
    pub fn validate(&self) {
        assert!(self.k >= 1, "a corridor needs at least one intersection");
        assert!(
            self.link_time >= Seconds::new(2.0),
            "link_time {} must be >= 2 s (the stale-event horizon)",
            self.link_time
        );
        if let Some(la) = self.lookahead {
            assert!(
                la > Seconds::ZERO && la <= self.link_time,
                "lookahead {la} must be in (0, link_time]"
            );
        }
    }
}

/// Result of one corridor run.
#[derive(Debug, PartialEq)]
pub struct CorridorOutcome {
    /// Per-vehicle trip records (line crossing to final box clearance,
    /// across all legs) and aggregate load counters summed over
    /// intersections.
    pub metrics: RunMetrics,
    /// One ground-truth safety audit per intersection.
    pub safety: Vec<SafetyReport>,
    /// Vehicles in the workload.
    pub spawned: usize,
    /// Simulated instant the run ended.
    pub ended_at: TimePoint,
    /// Completed intersection-to-intersection handoffs.
    pub handoffs: u64,
}

impl CorridorOutcome {
    /// Whether every spawned vehicle cleared its final intersection.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.metrics.completed() == self.spawned
    }

    /// Vehicles that never cleared their final box.
    #[must_use]
    pub fn stranded(&self) -> usize {
        self.spawned - self.metrics.completed()
    }

    /// Whether every intersection's audit found zero conflicts.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.safety.iter().all(SafetyReport::is_safe)
    }
}

/// Runs a corridor experiment: `workload[i]` enters the network at
/// intersection `entry_ims[i]` (missing entries default to 0). Arterial
/// through-traffic (westbound/eastbound `Straight` movements) chains to
/// the adjacent intersection after `link_time`; everything else exits
/// after one box.
///
/// Deterministic: the same `(config, workload, entry_ims)` triple always
/// produces the identical outcome, at any `shard_workers` setting — the
/// windowed engine reproduces the serial engine bit for bit.
///
/// # Panics
///
/// Panics if [`CorridorConfig::validate`] or [`SimConfig::validate`]
/// rejects the configuration, an entry index is out of range, or the
/// workload is not sorted by arrival time.
#[must_use]
pub fn run_corridor(
    config: &CorridorConfig,
    workload: &[Arrival],
    entry_ims: &[u32],
) -> CorridorOutcome {
    run_corridor_with_recorder(config, workload, entry_ims, None)
}

/// [`run_corridor`] with the flight recorder engaged (see
/// [`run_simulation_traced`] for the recording contract).
///
/// # Panics
///
/// As [`run_corridor`].
#[must_use]
pub fn run_corridor_traced(
    config: &CorridorConfig,
    workload: &[Arrival],
    entry_ims: &[u32],
    recorder: &mut Recorder,
) -> CorridorOutcome {
    run_corridor_with_recorder(config, workload, entry_ims, Some(recorder))
}

fn run_corridor_with_recorder(
    config: &CorridorConfig,
    workload: &[Arrival],
    entry_ims: &[u32],
    recorder: Option<&mut Recorder>,
) -> CorridorOutcome {
    config.validate();
    assert!(
        entry_ims.iter().all(|&im| (im as usize) < config.k),
        "every entry intersection must be inside the corridor"
    );
    // The windowed parallel engine handles the untraced multi-lane case;
    // flight-recorder stamps carry the global dispatch index, which only
    // the serial engine's one queue defines, so traced runs take it.
    if recorder.is_none() && config.k >= 2 && config.shard_workers >= 2 {
        return windowed::run_corridor_windowed(
            config,
            workload,
            entry_ims,
            config.shard_workers,
            config.effective_lookahead(),
        );
    }
    run_serial(
        &config.sim,
        workload,
        entry_ims,
        config.k,
        config.link_time,
        recorder,
    )
}
