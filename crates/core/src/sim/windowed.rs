//! Conservative time-windowed parallel corridor engine.
//!
//! The corridor's only cross-intersection influence is the `LinkArrival`
//! handoff, and it is delayed by `link_time >= 2 s`. That is the classic
//! conservative-PDES lookahead structure (Chandy–Misra): an event a lane
//! processes inside the window `[t0, t0 + L)` can affect *another* lane
//! no earlier than `t0 + link_time >= t0 + L` for any `L <= link_time`.
//! So all `K` intersections may advance through the window concurrently,
//! one per [`Lane`], with no lane ever seeing an event out of order.
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
//! Determinism: each lane is the same single-intersection [`World`] the
//! serial engine dispatches to, built by the same [`World::lanes`], with
//! its own RNG, radio, fault injector and policy, so a lane's draw
//! sequence depends only on its own event history — which windowing
//! preserves. Both engines close out through `close_out`, which
//! reassembles the global metrics in one-queue order. Worker count never
//! enters any of it — `WorkerPool::rounds` only changes *where* a lane's
//! window executes, not what it computes.

use crossroads_des::Simulation;
use crossroads_pool::WorkerPool;
use crossroads_traffic::Arrival;
use crossroads_units::{Seconds, TimePoint};

use crate::sim::event::Event;
use crate::sim::safety::SafetyReport;
use crate::sim::world::{Handoff, World};
use crate::sim::{CorridorConfig, CorridorOutcome};

/// One intersection's independent DES: its own event queue and its
/// [`World`].
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
    fn step(&mut self) {
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
            Step::Audit => self.safety = Some(world.audit()),
        }
    }
}

/// Runs a corridor on `workers` threads in conservative windows of
/// `lookahead` simulated seconds (`0 < lookahead <= link_time`).
///
/// Produces the identical [`CorridorOutcome`] as the serial engine at any
/// worker count. Traced runs always take the serial engine: it lends its
/// one recorder to each dispatching lane in global dispatch order.
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
    let mut lanes: Vec<Lane> = World::lanes(cfg, workload, k, config.link_time)
        .into_iter()
        .map(|world| Lane {
            sim: Simulation::new(),
            world,
            next: Step::Window(TimePoint::ZERO),
            safety: None,
        })
        .collect();

    // Seed each lane with the arrivals entering at its intersection and
    // its own outage schedule — the same absolute instants, in the same
    // per-intersection order, as the serial engine.
    let horizon = super::run_horizon(cfg, workload, k, config.link_time);
    super::schedule_start(cfg, workload, entry_ims, k, horizon, |at, ev| {
        lanes[ev.im()].sim.schedule(at, ev);
    });

    let mut exchange: Vec<(usize, Handoff)> = Vec::new();
    let mut audited = false;
    let control = |lanes: &mut [&mut Lane]| {
        if audited {
            return false;
        }
        // Barrier: collect every lane's banked departures and re-seat
        // them at their destination, in (destination, time, source)
        // order. Exact-time ties across sources cannot influence lane
        // state (per-lane RNGs; continuous-time draws make cross-lane
        // stamp collisions measure-zero), but the fixed order makes
        // the exchange itself deterministic by construction.
        for (src, lane) in lanes.iter_mut().enumerate() {
            exchange.extend(lane.world.outbox.drain(..).map(|h| (src, h)));
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
            .spawn(|| pool.rounds(&mut lanes, control, |_i, lane| lane.step()))
            .join()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

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
    let des_events = lanes.iter().map(|l| l.sim.events_dispatched()).sum();
    let safety = lanes
        .iter_mut()
        .map(|l| l.safety.take().expect("the final round audits every lane"))
        .collect();
    super::close_out(
        lanes.iter_mut().map(|l| &mut l.world).collect(),
        safety,
        workload.len(),
        des_events,
        ended_at,
    )
}
