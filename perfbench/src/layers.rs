//! Per-layer replays: each layer's public API is called directly, fed
//! with inputs taken from the workload and its outcome, and timed from
//! here. These are models of the layer's share of a run, not spans inside
//! it (see README.md, "What the replays model").

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crossroads_core::policy::{AimPolicy, CrossroadsPolicy, PolicyKind, VtPolicy};
use crossroads_core::sim::SafetyReport;
use crossroads_core::{CrossingCommand, CrossingRequest, IntersectionPolicy, SimConfig};
use crossroads_des::Simulation;
use crossroads_intersection::{ConflictTable, ReservationTable};
use crossroads_metrics::run_to_json;
use crossroads_net::{Channel, Direction, FaultModel};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::Arrival;
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::VehicleId;

use crate::workloads::Outcome;

/// Re-requests a replayed vehicle may make before the replay gives up on it.
const MAX_ATTEMPTS: u32 = 400;

/// IM-side delay between a request's transmission and its decision.
const DECISION_DELAY: Seconds = Seconds::new(0.05);

/// Delay before a stopped VT-IM vehicle re-requests.
const VT_RETRY: Seconds = Seconds::new(0.3);

/// Concurrent tokens in the DES replay's queue.
const DES_TOKENS: u64 = 64;

/// Result of the open-loop policy replay.
pub struct PolicyReplay {
    /// Host nanoseconds of every `decide` call, in call order.
    pub decide_ns: Vec<u64>,
    pub accepted: u64,
}

impl PolicyReplay {
    pub fn decisions(&self) -> u64 {
        self.decide_ns.len() as u64
    }

    pub fn accept_ratio(&self) -> f64 {
        ratio(self.accepted, self.decisions())
    }

    pub fn mean_ns(&self) -> f64 {
        ratio(self.decide_ns.iter().sum(), self.decisions())
    }

    /// Nearest-rank percentile of the decide times.
    pub fn percentile_ns(&self, q: f64) -> f64 {
        let mut v = self.decide_ns.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx] as f64
    }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Builds the policy a run of `config` would use, through the public
/// constructors.
fn build_policy(config: &SimConfig) -> Box<dyn IntersectionPolicy> {
    let conflicts = Arc::new(ConflictTable::compute(&config.geometry, config.spec.width));
    match config.policy {
        PolicyKind::VtIm => Box::new(VtPolicy::new(
            config.geometry,
            ReservationTable::new(conflicts),
            config.buffers,
            config.crawl_fraction,
        )),
        PolicyKind::Crossroads => Box::new(CrossroadsPolicy::new(
            config.geometry,
            ReservationTable::new(conflicts),
            config.buffers,
            config.crawl_fraction,
        )),
        PolicyKind::Aim => Box::new(
            AimPolicy::new(
                config.geometry,
                config.buffers,
                config.aim_grid_side,
                config.aim_sim_step,
            )
            .with_analytic(config.aim_analytic),
        ),
    }
}

/// Open-loop replay of one intersection's policy: every arrival sends a
/// first-attempt request as it crosses the line; a refusal re-requests
/// from standstill at the line; a grant releases its reservation once the
/// vehicle would have cleared the box.
pub fn replay_policy(config: &SimConfig, arrivals: &[Arrival]) -> PolicyReplay {
    let mut policy = build_policy(config);
    let spec = config.spec;
    let aim = config.policy == PolicyKind::Aim;
    // Heaps keyed by time bits: every time here is finite and non-negative,
    // where the IEEE bit order is the numeric order.
    let mut pending: BinaryHeap<Reverse<(u64, usize, u32)>> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| Reverse((a.at_line.value().to_bits(), i, 1)))
        .collect();
    let mut exits: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut out = PolicyReplay {
        decide_ns: Vec::with_capacity(arrivals.len() * 2),
        accepted: 0,
    };
    while let Some(Reverse((bits, arrival, attempt))) = pending.pop() {
        let sent = TimePoint::new(f64::from_bits(bits));
        let now = sent + DECISION_DELAY;
        while let Some(&Reverse((exit_bits, v))) = exits.peek() {
            if f64::from_bits(exit_bits) > now.value() {
                break;
            }
            exits.pop();
            policy.on_exit(VehicleId(v), TimePoint::new(f64::from_bits(exit_bits)));
        }
        let a = &arrivals[arrival];
        let stopped = attempt > 1;
        let (distance, speed) = if stopped {
            (Meters::ZERO, MetersPerSecond::ZERO)
        } else {
            (config.geometry.transmission_line_distance, a.speed)
        };
        let proposed_arrival = aim.then(|| {
            if stopped {
                sent + config.buffers.rtd.wc_rtd() + config.aim_retry_interval
            } else {
                sent + distance / speed
            }
        });
        let request = CrossingRequest {
            vehicle: a.vehicle,
            movement: a.movement,
            spec,
            transmitted_at: sent,
            distance_to_intersection: distance,
            speed,
            stopped,
            attempt,
            proposed_arrival,
            platoon_followers: 0,
            platoon_gap: Meters::ZERO,
        };
        let t0 = Instant::now();
        let command = policy.decide(black_box(&request), now);
        out.decide_ns.push(t0.elapsed().as_nanos() as u64);
        let grant = match command {
            CrossingCommand::VtTarget {
                target_speed,
                scheduled_entry,
            } if target_speed.value() > 0.0 => Some((scheduled_entry, target_speed)),
            CrossingCommand::Crossroads {
                arrival,
                target_speed,
                ..
            } => Some((arrival, target_speed)),
            CrossingCommand::AimAccept { arrival } => Some((arrival, speed)),
            _ => None,
        };
        if let Some((entry, v)) = grant {
            out.accepted += 1;
            let v = v.value().max(spec.v_max.value() * 0.25);
            let cover = (config.geometry.box_size + spec.length).value() / v;
            let exit = entry.max(now).value() + cover;
            exits.push(Reverse((exit.to_bits(), a.vehicle.0)));
        } else if attempt < MAX_ATTEMPTS {
            let retry = if aim {
                config.aim_retry_interval
            } else {
                VT_RETRY
            };
            pending.push(Reverse((
                (now + retry).value().to_bits(),
                arrival,
                attempt + 1,
            )));
        }
    }
    out
}

/// Host nanoseconds per event of the DES kernel alone: `events` events
/// spread over `span` simulated seconds, dispatched to a handler that only
/// reschedules its token.
pub fn replay_des(events: u64, span: Seconds) -> f64 {
    if events == 0 {
        return 0.0;
    }
    let step = span.value().max(1.0) * DES_TOKENS as f64 / events as f64;
    let mut sim: Simulation<u64> = Simulation::new().with_max_events(events + DES_TOKENS);
    for token in 0..DES_TOKENS.min(events) {
        sim.schedule(
            TimePoint::new(step * token as f64 / DES_TOKENS as f64),
            token,
        );
    }
    let mut left = events;
    let mut draw = 0x9e37_79b9_7f4a_7c15u64;
    let t0 = Instant::now();
    let run = sim.run(|sim, token| {
        left -= 1;
        if left >= DES_TOKENS {
            // Jitter each hop in [0.5, 1.5) steps so tokens interleave.
            draw = draw
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let jitter = 0.5 + (draw >> 11) as f64 / (1u64 << 53) as f64;
            sim.schedule_in(Seconds::new(step * jitter), black_box(token));
        }
        left > 0
    });
    t0.elapsed().as_nanos() as f64 / run.events_processed.max(1) as f64
}

/// Host nanoseconds per frame of the radio model: `frames` alternating
/// uplink/downlink sends through the channel, each also run through the
/// fault injector when the configuration enables one.
pub fn replay_net(config: &SimConfig, frames: u64, seed: u64) -> f64 {
    if frames == 0 {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut channel = Channel::new(config.channel);
    let mut faults = config
        .fault
        .enabled()
        .then(|| FaultModel::new(config.fault, &rng));
    let t0 = Instant::now();
    for i in 0..frames {
        let (direction, outcome) = if i % 2 == 0 {
            (Direction::Uplink, channel.send_uplink(&mut rng))
        } else {
            (Direction::Downlink, channel.send_downlink(&mut rng))
        };
        match faults.as_mut() {
            Some(f) => {
                black_box(f.filter(direction, outcome));
            }
            None => {
                black_box(outcome);
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / frames as f64
}

/// Host milliseconds to re-audit every intersection of `outcome` from its
/// recorded occupancies. Returns `None` when the re-audit disagrees with
/// the run's own report.
pub fn replay_audit(config: &SimConfig, outcome: &Outcome) -> Option<f64> {
    let mut total = 0.0;
    for report in &outcome.safety {
        let occupancies = report.occupancies().to_vec();
        let t0 = Instant::now();
        let again = SafetyReport::audit(occupancies, &config.geometry, &config.spec);
        total += t0.elapsed().as_secs_f64() * 1e3;
        if again != *report {
            return None;
        }
    }
    Some(total)
}

/// Host milliseconds of the metrics layer's post-run summaries over one
/// outcome: percentiles, histograms and the JSON export.
pub fn replay_summaries(outcome: &Outcome) -> f64 {
    let m = &outcome.metrics;
    let t0 = Instant::now();
    black_box(m.wait_percentiles());
    black_box(m.decision_latency_percentiles());
    black_box(m.wait_histogram());
    black_box(m.decision_latency_histogram());
    black_box(run_to_json(m));
    t0.elapsed().as_secs_f64() * 1e3
}
