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
//! The engine is bulk-synchronous. In every round each lane, on its own:
//!
//! 1. seats the handoffs the previous round addressed to it, in
//!    (time, source lane) order;
//! 2. drains its event queue up to the barrier at `t0 + lookahead`
//!    (half-open — an event *at* the barrier belongs to the next window);
//! 3. posts the handoffs it emitted to their destinations' inboxes;
//! 4. reports its earliest pending instant: its queue head, or a handoff
//!    it just emitted.
//!
//! The control step between rounds only takes the minimum `t0` of the K
//! reports and opens the next window there. Each inbox has two
//! generations: round `r` posts into generation `r % 2` while every lane
//! seats generation `(r + 1) % 2`, which round `r − 1` filled and no lane
//! writes in round `r`. So a handoff is seated exactly one round after it
//! was emitted, and in a fixed order, whichever threads stepped its
//! source and its destination. The final stretch runs inclusive to the
//! horizon, exactly like the serial engine's `run_until`; since
//! `horizon < t0 + lookahead` there, every handoff it generates lands
//! beyond the horizon. One last round then seats those handoffs and runs
//! every lane's safety audit, and the loop ends.
//!
//! Rounds run on `WorkerPool::rounds`, a barrier whose calling thread is
//! itself a worker. Each lane has a home worker for the whole call; a
//! worker that has stepped its home lanes steps any lane that no worker
//! has started in the round, so a helper the OS has not scheduled never
//! stalls it. Idle workers spin briefly and then park, and a round
//! neither allocates nor crosses a channel. Windows are short — a pass of
//! perfbench's `corridor-w2` workload (K = 8, 2 workers, two policies)
//! runs 8 586 windows of about 124 DES events each, summed over all eight
//! lanes — so the barrier's cost decides whether the engine wins at all
//! (EXPERIMENTS.md, "Windowed rounds on home workers").
//!
//! Determinism: each lane is the same single-intersection [`World`] the
//! serial engine dispatches to, built by the same [`World::lanes`], with
//! its own RNG, radio, fault injector and policy, so a lane's draw
//! sequence depends only on its own event history — which windowing
//! preserves. Both engines close out through `close_out`, which
//! reassembles the global metrics in one-queue order. Worker count never
//! enters any of it — `WorkerPool::rounds` only changes *where* a lane's
//! window executes, not what it computes.

use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// Rounds stepped so far: round `r` (from 0) posts into inbox
    /// generation `r % 2` and seats generation `(r + 1) % 2`.
    rounds: usize,
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

/// The handoffs bound for one lane, tagged with their source lane, in two
/// generations: a round posts into one while the lanes seat the other, so
/// a handoff emitted in round `r` is seated in round `r + 1` whichever
/// thread stepped either lane.
type Inbox = [Mutex<Vec<(usize, Handoff)>>; 2];

impl Lane<'_> {
    /// Lane `im`'s share of one round: seat the handoffs the previous
    /// round addressed to it, in (time, source lane) order; run `step`;
    /// post the handoffs it emitted to their destinations' inboxes; and
    /// report its earliest pending instant, its queue head or a handoff
    /// it just emitted.
    fn step(&mut self, step: Step, im: usize, inboxes: &[Inbox]) -> Option<TimePoint> {
        let (post, seat) = (self.rounds % 2, (self.rounds + 1) % 2);
        self.rounds += 1;
        {
            // Stable: a source's handoffs of one instant keep its order.
            let mut arrivals = lock(&inboxes[im][seat]);
            arrivals.sort_by(|(a_src, a), (b_src, b)| a.at.total_cmp(b.at).then(a_src.cmp(b_src)));
            for (_, h) in arrivals.drain(..) {
                self.world.accept_handoff(&mut self.sim, h);
            }
        }
        let world = &mut self.world;
        match step {
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
        let pending = earliest(
            self.sim
                .peek_time()
                .into_iter()
                .chain(world.outbox.iter().map(|h| h.at)),
        );
        for h in world.outbox.drain(..) {
            lock(&inboxes[h.to_im][post]).push((im, h));
        }
        pending
    }
}

/// The earliest of `times` under [`TimePoint::total_cmp`].
fn earliest(times: impl Iterator<Item = TimePoint>) -> Option<TimePoint> {
    times.min_by(|a, b| a.total_cmp(*b))
}

/// Locks an inbox, ignoring poisoning: a step that panics fails the whole
/// run, so nothing reads a half-written inbox.
fn lock<M>(mutex: &Mutex<M>) -> MutexGuard<'_, M> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
    super::assert_sorted(workload);
    assert!(
        lookahead > Seconds::ZERO && lookahead <= config.link_time,
        "lookahead {lookahead} must be in (0, link_time] for conservative windows"
    );
    let horizon = super::run_horizon(cfg, workload, k, config.link_time);
    // Each lane starts with the arrivals entering at its intersection and
    // its own outage schedule — the same absolute instants, in the same
    // per-intersection order, as the serial engine.
    let mut lanes: Vec<Lane> = World::lanes(cfg, workload, k, config.link_time)
        .into_iter()
        .enumerate()
        .map(|(im, world)| Lane {
            sim: Simulation::with_prologue(
                super::start_events(cfg, workload, entry_ims, k, horizon)
                    .filter(|(_, ev)| ev.im() == im),
            ),
            world,
            rounds: 0,
            safety: None,
        })
        .collect();
    let inboxes: Vec<Inbox> = (0..k).map(|_| Default::default()).collect();

    // The next round's step, given the earliest pending instant across
    // all lanes: a window of `lookahead` from it; the last window, run
    // inclusive to the horizon (matching the serial `run_until` contract
    // that events *at* the horizon are processed), once it reaches past
    // the horizon; and once nothing is due by the horizon, one round that
    // seats the last handoffs and audits every lane. Every handoff the
    // last window emits lands at `>= t0 + link_time >= t0 + lookahead >
    // horizon`, so the round after it audits.
    let plan = |t0: Option<TimePoint>| match t0.filter(|&t0| t0 <= horizon) {
        None => Step::Audit,
        Some(t0) if t0 + lookahead > horizon => Step::Last(horizon),
        Some(t0) => Step::Window(t0 + lookahead),
    };
    let first = plan(earliest(lanes.iter().filter_map(|l| l.sim.peek_time())));
    let mut last = first;
    let control = |reports: &[Option<TimePoint>]| {
        if matches!(last, Step::Audit) {
            return None;
        }
        last = plan(earliest(reports.iter().flatten().copied()));
        Some(last)
    };
    // The rounds run on a scoped thread rather than on the caller. Their
    // thread steps lanes too, so part of the lane state comes from its
    // malloc arena and returns there when the lanes drop. Run on the
    // caller, that left the caller's arena full of free chunks, which its
    // next large allocation had to sort first (glibc; perfbench
    // `corridor-w2` `setup_s` rose by a quarter on a 2-core host).
    let pool = WorkerPool::new(workers.clamp(1, k));
    let inboxes = &inboxes;
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                pool.rounds(&mut lanes, first, control, |step, im, lane| {
                    lane.step(step, im, inboxes)
                });
            })
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
