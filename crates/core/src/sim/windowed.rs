//! Conservative time-windowed parallel corridor engine.
//!
//! The corridor's only cross-intersection influence is the `LinkArrival`
//! handoff, and it is delayed by `link_time >= 2 s`. That is the classic
//! conservative-PDES lookahead structure (Chandy–Misra): an event a shard
//! processes inside the window `[t0, t0 + L)` can affect *another* shard
//! no earlier than `t0 + link_time >= t0 + L` for any `L <= link_time`.
//! So all `K` shards may advance through the window concurrently, one
//! per [`Lane`], with no shard ever seeing an event out of order.
//!
//! The engine is bulk-synchronous: every lane drains its own event queue
//! up to the barrier at `t0 + lookahead` (half-open — an event *at* the
//! barrier belongs to the next window), then the buffered handoffs are
//! exchanged on the caller thread in deterministic
//! (destination, time, source-lane) order, and the next window opens at
//! the earliest pending event across all lanes. The final stretch runs
//! inclusive to the horizon, exactly like the serial engine's
//! `run_until`; since `horizon < t0 + lookahead` there, every handoff it
//! generates lands beyond the horizon and the loop terminates.
//!
//! Determinism: each lane is a complete serial [`World`] whose RNG,
//! radio, fault injector and policy are shard-local (see
//! `Shard::rng`), so a lane's draw sequence depends only on its own
//! event history — which windowing preserves. The merge below
//! reassembles the global metrics in the serial engine's order: vehicle
//! records by clearance time, decision latencies by decision stamp (the
//! `im_busy` f64 sum is refolded in that merged order so floating-point
//! addition order matches the serial engine bit-for-bit). Worker count
//! never enters any of it — `WorkerPool::rounds` only changes *where*
//! a lane's window executes, not what it computes.

use std::sync::Arc;

use crossroads_des::Simulation;
use crossroads_intersection::ConflictTable;
use crossroads_metrics::{Counters, RunMetrics};
use crossroads_pool::WorkerPool;
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::Arrival;
use crossroads_units::{Seconds, TimePoint};

use crate::sim::event::Event;
use crate::sim::safety::SafetyReport;
use crate::sim::world::{Handoff, World};
use crate::sim::{CorridorConfig, CorridorOutcome};

/// One shard's independent DES: its own event queue and a single-shard
/// [`World`] hosting the shard's policy, radio, fault injector and RNG.
struct Lane<'a> {
    sim: Simulation<Event>,
    world: World<'a>,
    /// Barrier for the window the next `step` call runs (set by the
    /// control closure each round).
    window_end: TimePoint,
    /// Whether the next window is the final inclusive run to the horizon.
    inclusive: bool,
}

impl Lane<'_> {
    fn step(&mut self) {
        let world = &mut self.world;
        if self.inclusive {
            self.sim.run_until(self.window_end, |sim, ev| {
                world.handle(sim, ev);
                true
            });
        } else {
            self.sim.run_window(self.window_end, |sim, ev| {
                world.handle(sim, ev);
                true
            });
        }
    }
}

/// Runs a corridor on `workers` threads in conservative windows of
/// `lookahead` simulated seconds (`0 < lookahead <= link_time`).
///
/// Produces the identical [`CorridorOutcome`] as the serial
/// `run_corridor` engine at any worker count (the tracing engine is the
/// one exception: flight-recorder dispatch stamps are inherently global,
/// so traced runs always use the serial engine).
pub(crate) fn run_corridor_windowed(
    config: &CorridorConfig,
    workload: &[Arrival],
    entry_ims: &[u32],
    workers: usize,
    lookahead: Seconds,
) -> CorridorOutcome {
    let cfg = &config.sim;
    let k = config.k;
    cfg.validate();
    assert!(
        lookahead > Seconds::ZERO && lookahead <= config.link_time,
        "lookahead {lookahead} must be in (0, link_time] for conservative windows"
    );
    let conflicts = Arc::new(ConflictTable::compute(&cfg.geometry, cfg.spec.width));
    let root = StdRng::seed_from_u64(cfg.seed);
    let mut lanes: Vec<Lane> = (0..k)
        .map(|im| Lane {
            sim: Simulation::new(),
            world: World::new_lane(
                cfg,
                workload,
                entry_ims,
                &conflicts,
                &root,
                im,
                k,
                config.link_time,
            ),
            window_end: TimePoint::ZERO,
            inclusive: false,
        })
        .collect();

    // Seed each lane with the arrivals entering at its intersection and
    // its own outage schedule — the same absolute instants, in the same
    // per-intersection order, as the serial engine.
    let horizon = super::run_horizon(cfg, workload, k, config.link_time);
    super::schedule_start(cfg, workload, entry_ims, k, horizon, |im, at, ev| {
        lanes[im].sim.schedule(at, ev);
    });

    let pool = WorkerPool::new(workers.clamp(1, k));
    let mut exchange: Vec<(usize, Handoff)> = Vec::new();
    pool.rounds(
        &mut lanes,
        |lanes: &mut [&mut Lane]| {
            // Barrier: collect every lane's banked departures and re-seat
            // them at their destination, in (destination, time, source)
            // order. Exact-time ties across sources cannot influence shard
            // state (per-shard RNGs; continuous-time draws make cross-lane
            // stamp collisions measure-zero), but the fixed order makes
            // the exchange itself deterministic by construction.
            exchange.clear();
            for (src, lane) in lanes.iter_mut().enumerate() {
                lane.world.drain_outbox(src, &mut exchange);
            }
            exchange.sort_by(|(a_src, a), (b_src, b)| {
                a.to_im
                    .cmp(&b.to_im)
                    .then(a.at.total_cmp(b.at))
                    .then(a_src.cmp(b_src))
            });
            for (_, h) in exchange.drain(..) {
                let lane = &mut *lanes[h.to_im];
                lane.world.accept_handoff(&mut lane.sim, h);
            }
            // Open the next window at the earliest pending event.
            let t0 = lanes
                .iter()
                .filter_map(|l| l.sim.peek_time())
                .min_by(|a, b| a.total_cmp(*b));
            let Some(t0) = t0 else { return false };
            if t0 > horizon {
                return false;
            }
            let w_end = t0 + lookahead;
            // The last window runs inclusive to the horizon (matching the
            // serial `run_until` contract that events *at* the horizon are
            // processed); every handoff it generates lands at
            // `>= t0 + link_time >= w_end > horizon`, so the next round
            // terminates the loop.
            let inclusive = w_end > horizon;
            for lane in lanes.iter_mut() {
                lane.window_end = if inclusive { horizon } else { w_end };
                lane.inclusive = inclusive;
            }
            true
        },
        |_i, lane| lane.step(),
    );

    // --- Deterministic merge: reassemble the serial engine's global
    // metric order from the per-lane streams. -----------------------------

    let mut metrics = RunMetrics::new();
    // Vehicle records, globally ordered by clearance time (each lane's
    // stream is already chronological); ties broken by lane index.
    {
        let streams: Vec<&[crossroads_metrics::VehicleRecord]> =
            lanes.iter().map(|l| l.world.metrics.records()).collect();
        let mut idx = vec![0usize; k];
        let total: usize = streams.iter().map(|s| s.len()).sum();
        for _ in 0..total {
            let mut best: Option<usize> = None;
            for (lane, stream) in streams.iter().enumerate() {
                let Some(r) = stream.get(idx[lane]) else {
                    continue;
                };
                if best.is_none_or(|b| r.cleared_at < streams[b][idx[b]].cleared_at) {
                    best = Some(lane);
                }
            }
            let b = best.expect("total counts remaining records");
            metrics.push(streams[b][idx[b]]);
            idx[b] += 1;
        }
    }
    // Decision latencies, globally ordered by decision stamp. `im_busy`
    // is refolded in the merged order so the f64 accumulation sequence
    // matches the serial engine exactly.
    let mut im_busy = Seconds::ZERO;
    {
        let streams: Vec<&[(TimePoint, Seconds)]> = lanes
            .iter()
            .map(|l| l.world.decision_log.as_slice())
            .collect();
        let mut idx = vec![0usize; k];
        let total: usize = streams.iter().map(|s| s.len()).sum();
        for _ in 0..total {
            let mut best: Option<usize> = None;
            for (lane, stream) in streams.iter().enumerate() {
                let Some(&(at, _)) = stream.get(idx[lane]) else {
                    continue;
                };
                if best.is_none_or(|b| at < streams[b][idx[b]].0) {
                    best = Some(lane);
                }
            }
            let b = best.expect("total counts remaining decisions");
            let (_, svc) = streams[b][idx[b]];
            metrics.push_decision_latency(svc);
            im_busy += svc;
            idx[b] += 1;
        }
    }

    let mut counters = Counters::default();
    for lane in &lanes {
        counters.absorb(&lane.world.counters);
        lane.world.add_totals(&mut counters);
    }
    counters.im_busy = im_busy;
    let des_events: u64 = lanes.iter().map(|l| l.sim.events_dispatched()).sum();
    counters.des_events = des_events;
    super::DES_EVENTS.with(|c| c.set(c.get() + des_events));
    metrics.add_counters(&counters);

    let safety: Vec<SafetyReport> = lanes
        .iter_mut()
        .map(|l| {
            let occ = std::mem::take(&mut l.world.occupancies)
                .pop()
                .expect("one shard per lane");
            SafetyReport::audit(occ, &cfg.geometry, &cfg.spec)
        })
        .collect();

    // `ended_at` follows the serial engine: the horizon if any event
    // remains beyond it, else the instant of the globally last event.
    let pending = lanes.iter().any(|l| !l.sim.is_empty());
    let ended_at = if pending {
        horizon
    } else {
        lanes
            .iter()
            .map(|l| l.sim.now())
            .fold(TimePoint::ZERO, |a, b| if b > a { b } else { a })
    };

    CorridorOutcome {
        metrics,
        safety,
        spawned: workload.len(),
        ended_at,
        handoffs: lanes.iter().map(|l| l.world.handoffs).sum(),
    }
}
