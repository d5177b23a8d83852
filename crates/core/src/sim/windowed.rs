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
//! exchanged between rounds in deterministic
//! (destination, time, source-lane) order, and the next window opens at
//! the earliest pending event across all lanes. The final stretch runs
//! inclusive to the horizon, exactly like the serial engine's
//! `run_until`; since `horizon < t0 + lookahead` there, every handoff it
//! generates lands beyond the horizon. One last round then runs every
//! lane's safety audit, and the loop ends.
//!
//! Rounds run on `WorkerPool::rounds`, a barrier whose calling thread is
//! itself a worker: lanes are claimed off an atomic counter, idle workers
//! spin briefly and then park, and a round neither allocates nor crosses
//! a channel. Windows are short — a pass of perfbench's `corridor-w2`
//! workload (K = 8, 2 workers, two policies) runs 8 586 windows of about
//! 124 DES events each, summed over all eight lanes — so the barrier's
//! cost decides whether the engine wins at all. On a 2-core host
//! (`nproc` = 2) that workload's upper-quartile pass takes 565 ms,
//! against 757 ms for the serial engine on the same inputs (the
//! benchmark's `corridor` workload); see EXPERIMENTS.md E14.
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
use crate::sim::{CorridorConfig, CorridorOutcome, SimConfig};

/// One shard's independent DES: its own event queue and a single-shard
/// [`World`] hosting the shard's policy, radio, fault injector and RNG.
struct Lane<'a> {
    sim: Simulation<Event>,
    world: World<'a>,
    /// What the next `step` call does (set by the control closure each
    /// round).
    next: Step,
    /// The lane's safety verdict, filled in by the final round.
    safety: Option<SafetyReport>,
}

/// One round's work for a lane.
#[derive(Clone, Copy)]
enum Step {
    /// Drain events strictly before the barrier.
    Window(TimePoint),
    /// The final stretch: drain events up to and including the horizon.
    Last(TimePoint),
    /// After the last window: audit the lane's box occupancies.
    Audit,
}

impl Lane<'_> {
    fn step(&mut self, cfg: &SimConfig) {
        let world = &mut self.world;
        match self.next {
            Step::Window(end) => {
                self.sim.run_window(end, |sim, ev| {
                    world.handle(sim, ev);
                    true
                });
            }
            Step::Last(horizon) => {
                self.sim.run_until(horizon, |sim, ev| {
                    world.handle(sim, ev);
                    true
                });
            }
            Step::Audit => {
                let occ = std::mem::take(&mut world.occupancies)
                    .pop()
                    .expect("one shard per lane");
                self.safety = Some(SafetyReport::audit(occ, &cfg.geometry, &cfg.spec));
            }
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
            next: Step::Window(TimePoint::ZERO),
            safety: None,
        })
        .collect();

    // Seed each lane with the arrivals entering at its intersection and
    // its own outage schedule — the same absolute instants, in the same
    // per-intersection order, as the serial engine.
    let horizon = super::run_horizon(cfg, workload, k, config.link_time);
    super::schedule_start(cfg, workload, entry_ims, k, horizon, |im, at, ev| {
        lanes[im].sim.schedule(at, ev);
    });

    let mut exchange: Vec<(usize, Handoff)> = Vec::new();
    let mut audited = false;
    let control = |lanes: &mut [&mut Lane]| {
        if audited {
            return false;
        }
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
        // Open the next window at the earliest pending event; once
        // none is left before the horizon, one last round audits
        // every lane.
        let t0 = lanes
            .iter()
            .filter_map(|l| l.sim.peek_time())
            .min_by(|a, b| a.total_cmp(*b))
            .filter(|&t0| t0 <= horizon);
        // The last window runs inclusive to the horizon (matching the
        // serial `run_until` contract that events *at* the horizon are
        // processed); every handoff it generates lands at
        // `>= t0 + link_time >= t0 + lookahead > horizon`, so the next
        // round audits.
        let next = match t0 {
            None => {
                audited = true;
                Step::Audit
            }
            Some(t0) if t0 + lookahead > horizon => Step::Last(horizon),
            Some(t0) => Step::Window(t0 + lookahead),
        };
        for lane in lanes.iter_mut() {
            lane.next = next;
        }
        true
    };
    // The rounds run on a scoped thread rather than on the caller. Their
    // thread steps lanes too, so part of the lane state comes from its
    // malloc arena and returns there when the lanes drop. Run on the
    // caller, that left the caller's arena full of free chunks, which its
    // next large allocation had to sort first (glibc; perfbench
    // `corridor-w2` `setup_s` rose by a quarter on a 2-core host).
    let pool = WorkerPool::new(workers.clamp(1, k));
    std::thread::scope(|scope| {
        scope
            .spawn(|| pool.rounds(&mut lanes, control, |_i, lane| lane.step(cfg)))
            .join()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

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
        .map(|l| l.safety.take().expect("the final round audits every lane"))
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
