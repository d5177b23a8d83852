//! The closed-loop world of one intersection: the paper's V2I protocol
//! (Ch. 2) on the vehicle side, its IM server, its radio and the storage
//! of the vehicle agents approaching or crossing its box, coupled on the
//! DES.
//!
//! A vehicle's protocol state lives only in its [`VehicleProtocol`]: a
//! granted vehicle is in `Follow`, a crossed one in `Done`. Each
//! protocol step — leg entry, request, rejection, grant commit — has one
//! implementation here, and the extensions that hook into them keep
//! their own modules: `platoon` (PAIM column admission) and `mixed`
//! (non-compliant traffic and the runtime safety filter).
//!
//! A run holds one `World` per intersection, a *lane*, built by
//! [`World::lanes`]; a single-intersection run is one lane. Lanes share
//! no state. A vehicle that clears its box toward the next intersection
//! leaves its lane's agent storage as a [`Handoff`] in the outbox, and
//! the engine re-seats it in the destination lane with
//! [`World::accept_handoff`].

use std::collections::VecDeque;
use std::sync::Arc;

use crossroads_des::Simulation;
use crossroads_intersection::ConflictTable;
use crossroads_metrics::{Counters, RunMetrics, VehicleRecord};
use crossroads_net::{clock::testbed_sync, Channel, Deliveries, Direction, FaultModel, LocalClock};
use crossroads_prng::Rng;
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_trace::{Recorder, TraceEvent, TraceRecord, Verdict, LOST_LATENCY, NO_VEHICLE};
use crossroads_traffic::{Arrival, Compliance, MixedConfig};
use crossroads_units::kinematics;
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{ProtocolEvent, ProtocolState, SpeedProfile, VehicleId, VehicleProtocol};

use crate::policy::common::{fastest_run, launch_cover_time};
use crate::policy::IntersectionPolicy;
use crate::request::{CrossingCommand, CrossingRequest};
use crate::sim::event::Event;
use crate::sim::filter::SafetyFilter;
use crate::sim::safety::{BoxOccupancy, SafetyReport};
use crate::sim::SimConfig;

use self::platoon::{PlatoonColumn, PlatoonRole};

mod mixed;
mod platoon;

/// Margin before the hard braking point at which the stop guard fires.
const GUARD_MARGIN: Meters = Meters::new(0.02);

/// Speed multiplier a moving AIM vehicle applies after a rejection.
const AIM_SLOWDOWN_FACTOR: f64 = 0.7;

/// The most parked vehicles a world may hold for the missed-wake guard
/// to check it after every event (see [`World::assert_parked_held`]).
/// Saturated runs in the test suite park up to ~150 in one world; the
/// 2,000-vehicle stall reproducer parks ~500, and re-checking them all
/// after each of its events took 30 s of a debug run.
#[cfg(debug_assertions)]
const GUARD_LIMIT: usize = 256;

/// The poll period of a held request: the modelled reaction time of a
/// driver (or its automation) noticing that the lane ahead cleared.
const REQUEST_POLL: Seconds = Seconds::new(0.2);

/// What a parked vehicle waits to do once its lane frees it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wait {
    /// Send request `attempt`, which [`World::queue_blocked`] holds.
    Request(u32),
    /// Re-run its gap check, which found it still braking toward the
    /// line or behind an unentered predecessor.
    Gap,
}

/// A vehicle waiting on its lane instead of polling (see
/// [`World::release_parked`]).
struct Parked {
    vehicle: VehicleId,
    wait: Wait,
    /// The next tick of the poll chain the wait replaces: the instant of
    /// the check that parked it plus one poll period.
    tick: TimePoint,
}

/// Where a parked vehicle stands after its lane changed.
enum Park {
    /// Its wait is over by other means: the attempt was superseded, the
    /// vehicle committed or left the lane. Dropped without a wake.
    Stale,
    /// The lane still holds it.
    Held,
    /// Nothing holds it any more: wake it at its next tick.
    Free,
}

/// Flattens a command to the closed verdict set the flight recorder
/// stores (a `V_T = 0` velocity transaction is the VT-IM's "stop and
/// re-request" answer, everything else maps one-to-one).
fn verdict_of(cmd: &CrossingCommand) -> Verdict {
    match cmd {
        CrossingCommand::VtTarget { target_speed, .. } => {
            if target_speed.value() > 0.0 {
                Verdict::VtGo
            } else {
                Verdict::VtStop
            }
        }
        CrossingCommand::Crossroads { .. } => Verdict::Crossroads,
        CrossingCommand::AimAccept { .. } => Verdict::AimAccept,
        CrossingCommand::AimReject => Verdict::AimReject,
    }
}

/// The per-vehicle clock-noise stream: a pure function of (vehicle, leg),
/// so clock errors survive event reordering and every corridor leg draws
/// an independent error. Leg 0 collapses to the pre-corridor stream id,
/// keeping single-intersection runs byte-identical.
fn clock_stream(vehicle: u32, im: u32) -> u64 {
    u64::from(vehicle) | (u64::from(im) << 32)
}

/// Stream id of lane `im`'s main RNG (`SHARD_RNG_STREAM | im`). Lane 0
/// uses the root stream itself, so the single-intersection world (and the
/// first corridor lane) draws exactly the pre-corridor sequence. The
/// high constant keeps the id space disjoint from both [`clock_stream`]
/// (whose ids stay below `2^34` for any realistic corridor) and the fault
/// injector's `0xFA17_…` streams.
const SHARD_RNG_STREAM: u64 = 0x5AAD_0000_0000_0000;

/// `World::agent_slot` entry of a vehicle the world does not hold.
const NO_SLOT: u32 = u32::MAX;

/// The panic of [`World::expect_agent`]: lane `im` holds no agent for `v`.
fn no_agent(im: u32, v: VehicleId) -> ! {
    panic!("lane {im} holds no agent for {v}")
}

pub(crate) struct Agent {
    movement: crossroads_intersection::Movement,
    /// When the current leg's transmission line was crossed.
    line_at: TimePoint,
    /// When the vehicle first entered the corridor (equals `line_at` on
    /// the first leg).
    first_line_at: TimePoint,
    profile: SpeedProfile,
    /// The vehicle's one protocol state — granted means `Follow`, crossed
    /// means `Done` (see [`Agent::committed`]) — and its request and
    /// rejection tallies for the leg and the trip.
    protocol: VehicleProtocol,
    clock_err: Seconds,
    plan_version: u32,
    stopped: bool,
    entered_at: Option<TimePoint>,
    /// Free-flow time for the current leg (line to box clearance).
    free_flow: Seconds,
    /// Free-flow time accumulated over completed legs, including link
    /// traversals. Zero on the first leg.
    trip_free_flow: Seconds,
    /// The AIM proposal backing the in-flight request: (arrival, speed at
    /// proposal, stopped flag). Acceptances are validated against it so a
    /// grant computed for a superseded state is discarded.
    last_proposal: Option<(TimePoint, MetersPerSecond, bool)>,
    /// Whether the vehicle holds a queue slot: it planned a stop at the
    /// box entry line and has not entered the box. Queued vehicles are
    /// *virtually* co-located at the line — the standard traffic
    /// abstraction in which a queue creeps forward as it discharges, so
    /// by the time a vehicle is granted a launch its front is at the stop
    /// line. Launch order is enforced by [`queue_blocked`]
    /// (World::queue_blocked) and per-lane scheduling gates, entry
    /// spacing by the IM's own occupancy windows/tiles.
    queued: bool,
    /// Highest request attempt the IM has processed from this vehicle on
    /// the current leg: the IM drops reordered/stale/duplicated uplinks
    /// so its ledger only ever moves forward with the newest vehicle
    /// state it has seen. `None` until the first uplink — an explicit
    /// "never seen" so a legitimate first attempt can never collide with
    /// a sentinel value.
    im_seen_attempt: Option<u32>,
    /// The vehicle's place in a platoon while its column negotiates a
    /// shared grant; `None` is the per-vehicle protocol (always `None`
    /// with platooning disabled — the field is never read on that path).
    platoon: Option<PlatoonRole>,
    /// How this vehicle relates to the V2I protocol. Always `Managed`
    /// with mixed traffic disabled — the assignment then draws no
    /// randomness (the byte-identity contract).
    compliance: Compliance,
    /// A faulty vehicle's private execution-noise stream, a pure function
    /// of `(seed, vehicle)` — it travels with the agent across corridor
    /// handoffs, so the noise sequence is independent of worker count.
    /// `None` for every other compliance mode.
    fault_rng: Option<StdRng>,
}

impl Agent {
    /// A vehicle crossing its first transmission line: its compliance
    /// mode drawn, its trip tallies zero. [`World::enter_leg`] sets the
    /// leg state.
    fn new(cfg: &SimConfig, arr: &Arrival) -> Agent {
        let compliance = cfg.mixed.assign(cfg.seed, arr.vehicle);
        Agent {
            movement: arr.movement,
            line_at: arr.at_line,
            first_line_at: arr.at_line,
            profile: SpeedProfile::starting_at(arr.at_line, Meters::ZERO, arr.speed),
            protocol: VehicleProtocol::default(),
            clock_err: Seconds::ZERO,
            plan_version: 0,
            stopped: false,
            entered_at: None,
            free_flow: Seconds::ZERO,
            trip_free_flow: Seconds::ZERO,
            last_proposal: None,
            queued: false,
            im_seen_attempt: None,
            platoon: None,
            compliance,
            fault_rng: (compliance == Compliance::Faulty)
                .then(|| MixedConfig::exec_rng(cfg.seed, arr.vehicle)),
        }
    }

    /// Whether the vehicle holds a crossing on this leg: it follows a
    /// granted plan (`Follow`) or has crossed (`Done`).
    fn committed(&self) -> bool {
        matches!(
            self.protocol.state(),
            ProtocolState::Follow | ProtocolState::Done
        )
    }

    /// Whether the vehicle has cleared this leg's box.
    fn done(&self) -> bool {
        self.protocol.state() == ProtocolState::Done
    }
}

/// A vehicle that cleared its box and continues at the next
/// intersection: the agent leaves its lane here, and the engine re-seats
/// it in the destination lane, which schedules the `LinkArrival`.
pub(crate) struct Handoff {
    /// Absolute arrival instant at the downstream transmission line
    /// (`exit + link_time`).
    pub(crate) at: TimePoint,
    /// Destination intersection.
    pub(crate) to_im: usize,
    pub(crate) vehicle: VehicleId,
    agent: Agent,
}

pub(crate) struct World<'a> {
    cfg: &'a SimConfig,
    workload: &'a [Arrival],
    /// This world's intersection: its index in the corridor, and the tag
    /// of every event it schedules.
    im: u32,
    /// Corridor length — leg routing must see the whole corridor.
    k: usize,
    /// Link travel time between adjacent intersections (exit of this box
    /// to the transmission line of the next).
    link_time: Seconds,
    /// The IM's decision logic.
    policy: Box<dyn IntersectionPolicy>,
    /// This intersection's radio.
    channel: Channel,
    /// Fault injector, present only when the config enables any fault —
    /// the disabled path never touches it (zero cost, identical traces).
    fault: Option<FaultModel>,
    im_queue: VecDeque<(VehicleId, CrossingRequest)>,
    im_busy: bool,
    /// Whether the IM is inside an injected crash window (uplinks are
    /// dropped on arrival).
    im_down: bool,
    /// IM process incarnation: bumped by every crash so results of
    /// computations started before the crash are discarded on arrival.
    im_epoch: u32,
    /// Per-approach vehicles in line-crossing order — the physical lane
    /// order, indexed by `Approach::index`. Stop positions, queue
    /// discharge and follower suppression all derive from it.
    lane_arrivals: [Vec<VehicleId>; 4],
    /// Index of the first lane entry that might still be occupying the
    /// approach. Entries before it have permanently passed (entered the
    /// box, finished, or handed off), so predecessor scans skip them —
    /// without this the per-request scan is O(n) in lane length and the
    /// 10k-vehicle corridor goes quadratic.
    lane_cursor: [usize; 4],
    /// Columns crossing on one inherited reservation. The leader's slot
    /// covers every member, so the IM must not free it on the *leader's*
    /// exit notice — only when the last member reports out (see the
    /// `ImExitNotice` handler).
    columns: Vec<PlatoonColumn>,
    /// This lane's main RNG: radio latency draws, clock-sync noise.
    /// Per-lane so a lane's draw sequence depends only on its own event
    /// history — the property that lets the windowed engine run lanes
    /// concurrently and still match the serial engine draw-for-draw.
    rng: StdRng,
    /// Vehicles that cleared this box toward another intersection,
    /// awaiting re-seating by the engine.
    pub(crate) outbox: Vec<Handoff>,
    /// The instant of every IM decision, parallel to `metrics`' decision
    /// latencies: the close-out merges lanes by it.
    pub(crate) decision_stamps: Vec<TimePoint>,
    /// Agent slot of each `VehicleId` ([`NO_SLOT`] until the vehicle
    /// reaches this world). Workload ids are small sequential integers,
    /// so lookup is two indexings with no hashing on the hot path.
    agent_slot: Vec<u32>,
    /// Dense agent storage, one entry per vehicle this world has hosted.
    /// Reserved to the workload size but filled only as vehicles arrive,
    /// so a lane pays memory for its own vehicles, not for the whole
    /// corridor's. A slot is `None` only while free.
    agents: Vec<Option<Agent>>,
    /// Slots vacated by vehicles handed off to another lane, reused
    /// before `agents` grows.
    free_slots: Vec<u32>,
    /// Box occupancies for the ground-truth safety audit.
    occupancies: Vec<BoxOccupancy>,
    pub(crate) metrics: RunMetrics,
    pub(crate) counters: Counters,
    /// Vehicles handed off to this intersection from the previous one.
    pub(crate) handoffs: u64,
    s_entry: Meters,
    /// Flight recorder, lent by the serial engine to the lane handling
    /// the current event. The `None` arm does no work and draws no
    /// randomness, so an untraced run is byte-identical to one built
    /// before tracing existed (the same guarantee the fault layer makes).
    pub(crate) recorder: Option<&'a mut Recorder>,
    /// The runtime safety monitor (see `sim/filter.rs`). Present exactly
    /// when mixed traffic is on: the registry is what humans judge gaps
    /// against, and without non-compliant envelopes in it no check could
    /// ever fail. `None` is zero-cost — the pre-mixed event flow is
    /// untouched.
    filter: Option<SafetyFilter>,
    /// Per-approach vehicles waiting on their lane instead of polling,
    /// indexed by `Approach::index`: held requests and non-V2I vehicles
    /// not yet free to check their gap (see
    /// [`release_parked`](World::release_parked)). Entries whose wait
    /// ended otherwise linger until the lane's next release drops them.
    parked: [Vec<Parked>; 4],
}

impl<'a> World<'a> {
    /// The lanes of a `k`-intersection run, one world per intersection in
    /// corridor order. The lanes share the conflict table; every lane's
    /// RNG and fault injector split off the seed-fresh root stream.
    pub(crate) fn lanes(
        cfg: &'a SimConfig,
        workload: &'a [Arrival],
        k: usize,
        link_time: Seconds,
    ) -> Vec<World<'a>> {
        assert!(k >= 1, "a corridor needs at least one intersection");
        let conflicts = Arc::new(ConflictTable::compute(&cfg.geometry, cfg.spec.width));
        let root = StdRng::seed_from_u64(cfg.seed);
        (0..k)
            .map(|im| World {
                cfg,
                workload,
                im: u32::try_from(im).expect("fewer than u32::MAX intersections"),
                k,
                link_time,
                policy: cfg.build_policy(&conflicts),
                channel: Channel::new(cfg.channel),
                // The injector's streams derive from the root seed alone,
                // so the fault pattern is independent of the main
                // stream's draw history (and of every other lane's).
                fault: cfg
                    .fault
                    .enabled()
                    .then(|| FaultModel::for_shard(cfg.fault, &root, im as u64)),
                im_queue: VecDeque::new(),
                im_busy: false,
                im_down: false,
                im_epoch: 0,
                lane_arrivals: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
                lane_cursor: [0; 4],
                columns: Vec::new(),
                rng: if im == 0 {
                    root.clone()
                } else {
                    root.stream(SHARD_RNG_STREAM | im as u64)
                },
                outbox: Vec::new(),
                decision_stamps: Vec::new(),
                agent_slot: Vec::new(),
                agents: Vec::with_capacity(workload.len()),
                free_slots: Vec::new(),
                occupancies: Vec::new(),
                metrics: RunMetrics::new(),
                counters: Counters::default(),
                handoffs: 0,
                s_entry: cfg.geometry.transmission_line_distance,
                recorder: None,
                filter: cfg.mixed.enabled.then(|| SafetyFilter::new(cfg)),
                parked: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            })
            .collect()
    }

    /// Re-seats a vehicle handed off from the previous intersection and
    /// schedules its `LinkArrival` at `exit + link_time`.
    pub(crate) fn accept_handoff(&mut self, sim: &mut Simulation<Event>, h: Handoff) {
        debug_assert_eq!(
            h.to_im, self.im as usize,
            "handoff routed to the wrong lane"
        );
        self.insert_agent(h.vehicle, h.agent);
        sim.schedule(h.at, Event::LinkArrival(h.vehicle, self.im));
    }

    /// Appends one flight-recorder record stamped with the current DES
    /// dispatch index, sim time, this intersection and its IM epoch. A
    /// no-op when recording is disabled.
    fn rec(&mut self, sim: &Simulation<Event>, vehicle: u32, attempt: u32, event: TraceEvent) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(TraceRecord {
                dispatch: sim.events_dispatched(),
                at: sim.now(),
                vehicle,
                attempt,
                epoch: self.im_epoch,
                im: self.im,
                event,
            });
        }
    }

    /// The vehicle's current request attempt (0 outside the Request
    /// state), for records emitted where the attempt is not in scope.
    fn current_attempt(&self, v: VehicleId) -> u32 {
        match self.agent(v).map(|a| a.protocol.state()) {
            Some(ProtocolState::Request { attempts }) => attempts,
            _ => 0,
        }
    }

    /// The agent for `v`, if the vehicle is in this world. A
    /// [`NO_SLOT`] entry indexes past `agents` and reads as `None`.
    fn agent(&self, v: VehicleId) -> Option<&Agent> {
        let slot = *self.agent_slot.get(v.0 as usize)?;
        self.agents.get(slot as usize)?.as_ref()
    }

    /// Mutable access to the agent for `v`.
    fn agent_mut(&mut self, v: VehicleId) -> Option<&mut Agent> {
        let slot = *self.agent_slot.get(v.0 as usize)?;
        self.agents.get_mut(slot as usize)?.as_mut()
    }

    /// The agent for `v`, which this lane must hold.
    ///
    /// # Panics
    ///
    /// Panics naming the lane and the vehicle when it holds none.
    fn expect_agent(&self, v: VehicleId) -> &Agent {
        self.agent(v).unwrap_or_else(|| no_agent(self.im, v))
    }

    /// Mutable [`expect_agent`](Self::expect_agent).
    fn expect_agent_mut(&mut self, v: VehicleId) -> &mut Agent {
        let im = self.im;
        self.agent_mut(v).unwrap_or_else(|| no_agent(im, v))
    }

    /// Installs an agent for `v`: over its current one if it has a slot,
    /// else in a freed slot, else in a new one.
    fn insert_agent(&mut self, v: VehicleId, agent: Agent) {
        let id = v.0 as usize;
        if id >= self.agent_slot.len() {
            self.agent_slot.resize(id + 1, NO_SLOT);
        }
        if self.agent_slot[id] == NO_SLOT {
            self.agent_slot[id] = match self.free_slots.pop() {
                Some(slot) => slot,
                None => {
                    self.agents.push(None);
                    u32::try_from(self.agents.len() - 1).expect("fewer than u32::MAX agents")
                }
            };
        }
        self.agents[self.agent_slot[id] as usize] = Some(agent);
    }

    /// Removes `v`'s agent from this world and frees its slot.
    fn take_agent(&mut self, v: VehicleId) -> Option<Agent> {
        let slot = std::mem::replace(self.agent_slot.get_mut(v.0 as usize)?, NO_SLOT);
        let agent = self.agents.get_mut(slot as usize)?.take();
        self.free_slots.push(slot);
        agent
    }

    /// Advances the lane cursor past the prefix of vehicles that have
    /// permanently left the approach (entered the box, finished the leg,
    /// or handed off downstream). The skip condition is monotone — none
    /// of those states ever reverts for a vehicle in this world — so
    /// skipped entries can never matter to a later predecessor scan.
    fn advance_lane_cursor(&mut self, lane: usize) {
        let mut cur = self.lane_cursor[lane];
        while let Some(&u) = self.lane_arrivals[lane].get(cur) {
            // A missing agent was handed off to the next intersection —
            // it has permanently left this approach.
            let passed = self
                .agent(u)
                .is_none_or(|a| a.done() || a.entered_at.is_some());
            if !passed {
                break;
            }
            cur += 1;
        }
        self.lane_cursor[lane] = cur;
    }

    /// The agents of the vehicles in `lane` that crossed this
    /// intersection's line before `v` and have not yet entered the box.
    fn unentered_predecessors(&self, v: VehicleId, lane: usize) -> impl Iterator<Item = &Agent> {
        self.lane_arrivals[lane][self.lane_cursor[lane]..]
            .iter()
            .take_while(move |&&u| u != v)
            .filter_map(|&u| self.agent(u))
            .filter(|a| !a.done() && a.entered_at.is_none())
    }

    /// Replaces `v`'s plan with a brake to a stop at the box entry line,
    /// where it takes its queue slot (see [`Agent::queued`]).
    fn brake_to_line(&mut self, v: VehicleId, now: TimePoint) {
        let (spec, s_entry) = (self.cfg.spec, self.s_entry);
        let agent = self.expect_agent_mut(v);
        agent.queued = true;
        let (s_now, v_now) = (agent.profile.position_at(now), agent.profile.speed_at(now));
        agent.profile = SpeedProfile::stop_at(now, s_now, v_now, s_entry, &spec);
    }

    /// `p` held at rest until `at`, then a full-throttle launch toward
    /// `v_max`: the one shape of every standstill launch a grant commands.
    fn launch(&self, mut p: SpeedProfile, at: TimePoint) -> SpeedProfile {
        p.push_hold(at - p.end_time());
        p.push_speed_change(self.cfg.spec.v_max, self.cfg.spec.a_max);
        p
    }

    /// `p` extended by the standstill launch whose front reaches the
    /// entry line at `entry`, or `None` when that launch would have to
    /// start before `p` ends.
    fn launch_into(&self, p: SpeedProfile, entry: TimePoint) -> Option<SpeedProfile> {
        let at = entry - self.cover_time(self.s_entry - p.final_position());
        (p.end_time() <= at).then(|| self.launch(p, at))
    }

    /// Time for a standstill launch to cover `d` (zero for `d <= 0`).
    fn cover_time(&self, d: Meters) -> Seconds {
        launch_cover_time(&self.cfg.spec, d)
    }

    /// Adds this lane's run totals to `counters`: the policy's
    /// scheduling work, and frames on the air and lost over its radio and
    /// fault injector. Nothing else writes these fields and they are
    /// integer sums, so the close-out adds them lane by lane.
    pub(crate) fn add_totals(&self, counters: &mut Counters) {
        counters.im_ops += self.policy.ops();
        let st = self.channel.stats();
        counters.messages += st.total_sent();
        counters.messages_lost += st.lost;
        if let Some(f) = self.fault.as_ref() {
            // Burst drops are losses on top of the base channel's;
            // duplicated copies are extra frames on the air.
            let fs = f.stats();
            counters.burst_losses += fs.burst_losses;
            counters.messages_lost += fs.burst_losses;
            counters.messages += fs.duplicated;
        }
    }

    /// Prices an uplink frame on this intersection's radio and runs it
    /// through the fault pipeline (identity when faults are disabled).
    fn uplink_deliveries(&mut self) -> Deliveries {
        let outcome = self.channel.send_uplink(&mut self.rng);
        match self.fault.as_mut() {
            Some(f) => f.filter(Direction::Uplink, outcome),
            None => Deliveries::from(outcome),
        }
    }

    /// Prices a downlink frame on this intersection's radio and runs it
    /// through the fault pipeline.
    fn downlink_deliveries(&mut self) -> Deliveries {
        let outcome = self.channel.send_downlink(&mut self.rng);
        match self.fault.as_mut() {
            Some(f) => f.filter(Direction::Downlink, outcome),
            None => Deliveries::from(outcome),
        }
    }

    /// Physical distance from the line to the rear clearing the box.
    fn s_exit(&self, movement: crossroads_intersection::Movement) -> Meters {
        self.s_entry + self.cfg.geometry.path_length(movement) + self.cfg.spec.length
    }

    /// The intersection a vehicle on `movement` proceeds to after
    /// clearing this one, if any. Only arterial through-traffic
    /// propagates: westbound entries run east (`im + 1`), eastbound
    /// entries run west (`im - 1`); turning vehicles and cross traffic
    /// leave the network after one box.
    fn next_leg(&self, movement: crossroads_intersection::Movement) -> Option<usize> {
        use crossroads_intersection::{Approach, Turn};
        if movement.turn != Turn::Straight {
            return None;
        }
        let im = self.im as usize;
        match movement.approach {
            Approach::West => Some(im + 1).filter(|&next| next < self.k),
            Approach::East => im.checked_sub(1),
            Approach::North | Approach::South => None,
        }
    }

    /// Handles one event of this intersection (`event.im() == self.im`).
    pub(crate) fn handle(&mut self, sim: &mut Simulation<Event>, event: Event) {
        debug_assert_eq!(
            event.im(),
            self.im as usize,
            "event routed to the wrong lane"
        );
        match event {
            Event::LineCrossing(i, _) => self.on_line_crossing(sim, i),
            Event::SyncComplete(v, _) => self.on_sync_complete(sim, v),
            Event::SendRequest(v, attempt, _) => self.on_send_request(sim, v, attempt),
            Event::UplinkArrival(v, _, req) => self.on_uplink(sim, v, req),
            Event::ImFinish(v, _, attempt, cmd, epoch) => {
                self.on_im_finish(sim, v, attempt, cmd, epoch);
            }
            Event::DownlinkArrival(v, _, attempt, cmd) => self.on_downlink(sim, v, attempt, cmd),
            Event::ResponseTimeout(v, attempt, _) => self.on_timeout(sim, v, attempt),
            Event::StopGuard(v, version, _) => self.on_stop_guard(sim, v, version),
            Event::MarkStopped(v, version, _) => self.on_mark_stopped(sim, v, version),
            Event::BoxEntry(v, version, _) => self.on_box_entry(sim, v, version),
            Event::BoxExit(v, version, _) => self.on_box_exit(sim, v, version),
            Event::LinkArrival(v, _) => self.on_link_arrival(sim, v),
            Event::PlatoonTimeout(v, _) => self.on_platoon_timeout(sim, v),
            Event::ComplianceCheck(v, _) => self.on_compliance_check(sim, v),
            Event::ImExitNotice(v, _) => {
                if self.im_down {
                    self.counters.im_outage_drops += 1;
                } else {
                    self.on_exit_notice(v, sim.now());
                }
            }
            Event::ImCrash(_) => {
                self.on_im_crash();
                // Stamped with the *new* epoch, so in-flight work of the
                // dead incarnation is identifiable in the trace.
                self.rec(sim, NO_VEHICLE, 0, TraceEvent::ImCrash);
            }
            Event::ImRestart(_) => {
                self.on_im_restart(sim.now());
                self.rec(sim, NO_VEHICLE, 0, TraceEvent::ImRestart);
            }
        }
        #[cfg(debug_assertions)]
        self.assert_parked_held();
    }

    // --- Vehicle lifecycle --------------------------------------------------

    /// Starts `v`'s V2I protocol with this intersection's IM: a restarted
    /// negotiation, one two-way clock-sync exchange on its link, and the
    /// `SyncComplete` that leads to the first request. The offset/drift
    /// noise comes from a per-(vehicle, leg) stream split off the root
    /// seed, so a vehicle's clock error is a function of
    /// (seed, vehicle id, leg) alone and survives event reordering.
    fn start_protocol(&mut self, sim: &mut Simulation<Event>, v: VehicleId, now: TimePoint) {
        let mut vrng = self.rng.stream(clock_stream(v.0, self.im));
        let clock = LocalClock::new(
            Seconds::from_millis(vrng.gen_range(-200.0..200.0)),
            vrng.gen_range(-100.0..100.0),
        );
        let sync = testbed_sync(&clock, now, &mut self.rng);
        // Two frames on the air for the exchange.
        let _ = self.channel.send_uplink(&mut self.rng);
        let _ = self.channel.send_downlink(&mut self.rng);
        self.restart_negotiation(v, sync.residual());
        sim.schedule_in(
            sync.round_trip + Seconds::from_millis(2.0),
            Event::SyncComplete(v, self.im),
        );
    }

    fn on_line_crossing(&mut self, sim: &mut Simulation<Event>, index: usize) {
        let arr = self.workload[index];
        self.insert_agent(arr.vehicle, Agent::new(self.cfg, &arr));
        self.enter_leg(sim, arr.vehicle, arr.speed);
    }

    /// Corridor handoff: the vehicle reaches the next intersection's
    /// transmission line. Vehicles settle to the corridor cruise speed on
    /// the link — the same speed the standard workload builders use at
    /// entry, so each leg starts from the state the policies were tuned
    /// for.
    fn on_link_arrival(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        if self.agent(v).is_some() {
            self.handoffs += 1;
            self.enter_leg(sim, v, self.cfg.typical_line_speed());
        }
    }

    /// Starts seated vehicle `v`'s leg at this intersection's
    /// transmission line, crossed at `speed` now. Everything leg-scoped
    /// resets — the negotiation, profile (position re-origined at the
    /// line), stop state, platoon role — and the plan version bumps so
    /// every event of a previous leg dies on its guard.
    fn enter_leg(&mut self, sim: &mut Simulation<Event>, v: VehicleId, speed: MetersPerSecond) {
        let now = sim.now();
        let (movement, v2i) = {
            let agent = self.expect_agent(v);
            (agent.movement, agent.compliance.uses_v2i())
        };
        let joined = if v2i {
            self.platoon_try_join(movement, now)
        } else {
            None
        };
        let profile = if v2i {
            SpeedProfile::starting_at(now, Meters::ZERO, speed)
        } else {
            // Humans and emergency vehicles brake to the line and cross
            // by gap acceptance instead of negotiating.
            SpeedProfile::stop_at(now, Meters::ZERO, speed, self.s_entry, &self.cfg.spec)
        };
        let free_flow = self.free_flow_time(movement, speed);
        self.lane_arrivals[movement.approach.index()].push(v);
        let agent = self.expect_agent_mut(v);
        agent.line_at = now;
        agent.profile = profile;
        agent.plan_version += 1;
        agent.stopped = false;
        agent.entered_at = None;
        agent.free_flow = free_flow;
        agent.queued = false;
        agent.platoon = None;
        // A platoon follower rides its leader's negotiation (no sync
        // exchange, no frames, no RNG draws of its own), and a vehicle
        // without radio waits in `Sync` so its gap-acceptance commit can
        // inherit a grant the same way.
        self.restart_negotiation(v, Seconds::ZERO);
        match joined {
            Some(leader) => self.platoon_attach(sim, v, leader),
            None if v2i => self.start_protocol(sim, v, now),
            None => {}
        }
        if v2i {
            self.schedule_guard(sim, v);
        } else {
            self.begin_gap_acceptance(sim, v);
        }
    }

    /// Restarts `v`'s negotiation with this IM from `Sync`: the machine
    /// moves its leg's tallies into the trip's, and the clock error
    /// becomes `clock_err`. The old negotiation's AIM proposal snapshot
    /// and the IM's watermark of its attempts are dropped, so the
    /// restarted attempt numbers count from 1 again.
    fn restart_negotiation(&mut self, v: VehicleId, clock_err: Seconds) {
        let agent = self.expect_agent_mut(v);
        agent.protocol.restart();
        agent.clock_err = clock_err;
        agent.last_proposal = None;
        agent.im_seen_attempt = None;
    }

    fn free_flow_time(
        &self,
        movement: crossroads_intersection::Movement,
        speed: MetersPerSecond,
    ) -> Seconds {
        fastest_run(speed, &self.cfg.spec, self.s_exit(movement))
            .expect("free-flow profile is feasible")
            .1
    }

    fn on_sync_complete(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let im = self.im;
        let Some(agent) = self.agent_mut(v) else {
            return;
        };
        agent
            .protocol
            .apply(ProtocolEvent::SyncCompleted)
            .expect("sync completes in Sync state");
        sim.schedule_in(Seconds::ZERO, Event::SendRequest(v, 1, im));
    }

    /// Whether this vehicle must hold its request. Queues discharge
    /// front-first, and whether a follower may even *ask* depends on the
    /// protocol:
    ///
    /// - **VT-IM**: a bare velocity command executes on receipt, so only
    ///   the queue front may request — a follower granted "go now" would
    ///   launch through the cars ahead.
    /// - **AIM**: grants echo the requester's proposal and cannot be
    ///   reordered by the IM, so a follower defers until every
    ///   predecessor holds a reservation.
    /// - **Crossroads**: commands carry explicit future launch times and
    ///   the IM's lane gate serializes entries, so queued followers may
    ///   request immediately and the whole queue discharge is scheduled
    ///   in advance — the protocol's signature advantage.
    ///
    /// A held request parks on its lane (see
    /// [`release_parked`](Self::release_parked)). Only two changes can
    /// turn this `false`, and each re-checks the lane: a predecessor
    /// entering the box (sets `entered_at`, clears `queued`) or committing
    /// to a grant. `v`'s own `stopped` only ever adds holds.
    fn queue_blocked(&self, v: VehicleId, lane: usize) -> bool {
        use crate::policy::PolicyKind;
        let mixed = self.cfg.mixed.enabled;
        let stopped = self.expect_agent(v).stopped;
        let holds = |a: &Agent| {
            // A human or emergency vehicle ahead in the lane is invisible
            // to the IM — no policy can sequence a launch around it — so
            // any unentered non-V2I predecessor holds the request under
            // every policy, including Crossroads' scheduled discharge.
            (mixed && !a.compliance.uses_v2i())
                || match self.cfg.policy {
                    PolicyKind::Crossroads => false,
                    PolicyKind::VtIm => a.queued,
                    // Stop-sign-style discharge (Dresner & Stone; Fok et
                    // al.): once a vehicle has come to rest it engages the
                    // IM only after every leader has entered the box —
                    // queues drain one launch at a time. Cruising vehicles
                    // merely defer to leaders that are queued or still
                    // unscheduled, so moving platoons at low flow are
                    // unaffected.
                    PolicyKind::Aim => stopped || a.queued || !a.committed(),
                }
        };
        (mixed || self.cfg.policy != PolicyKind::Crossroads)
            && self.unentered_predecessors(v, lane).any(holds)
    }

    /// Whether non-V2I vehicle `v` must hold its gap check: it is still
    /// braking toward the line or — queue discipline: even a human waits
    /// out the cars ahead of it — not yet at its front.
    ///
    /// A held check parks on its lane; its own `MarkStopped` or the last
    /// predecessor's box entry releases it.
    fn gap_blocked(&self, v: VehicleId, lane: usize) -> bool {
        !self.expect_agent(v).stopped || self.unentered_predecessors(v, lane).next().is_some()
    }

    /// Whether `v` still waits on request attempt `attempt`: every event
    /// of the request loop is stale once its attempt is superseded, the
    /// vehicle holds a crossing, or it has left for another leg.
    fn requesting(&self, v: VehicleId, attempt: u32) -> bool {
        self.agent(v)
            .is_some_and(|a| a.protocol.state() == (ProtocolState::Request { attempts: attempt }))
    }

    fn on_send_request(&mut self, sim: &mut Simulation<Event>, v: VehicleId, attempt: u32) {
        let now = sim.now();
        if !self.requesting(v, attempt) {
            return;
        }
        let lane = self.expect_agent(v).movement.approach.index();
        self.advance_lane_cursor(lane);
        if self.queue_blocked(v, lane) {
            // Hold the request until the lane ahead clears: the lane
            // wakes it on the poll tick after the change that frees it.
            self.park(sim.now(), v, lane, Wait::Request(attempt));
            return;
        }
        let (req, timeout) = {
            let agent = self.expect_agent(v);
            let s_now = agent.profile.position_at(now);
            let v_now = agent.profile.speed_at(now);
            let t_vehicle = now + agent.clock_err;
            let d_t = (self.s_entry - s_now).max(Meters::ZERO);
            let proposed = self.aim_proposal(agent, t_vehicle, d_t, v_now);
            // A platoon leader asks for the whole column: the IM books
            // `followers × offset` of extra span behind the leader's slot
            // (solo vehicles report 0/0 — bit-identical to pre-platoon).
            let platoon_followers = match &agent.platoon {
                Some(PlatoonRole::Leader(l)) => {
                    u32::try_from(l.followers.len()).unwrap_or(u32::MAX)
                }
                _ => 0,
            };
            let platoon_gap = if platoon_followers > 0 {
                self.platoon_gap()
            } else {
                Meters::ZERO
            };
            // Exponential backoff on retransmissions: a response can
            // legitimately take several service times under queueing, and
            // re-requesting faster than the IM can answer only grows the
            // queue (the classic retransmission livelock).
            let backoff = 1u32 << attempt.saturating_sub(1).min(3);
            (
                CrossingRequest {
                    vehicle: v,
                    movement: agent.movement,
                    spec: self.cfg.spec,
                    transmitted_at: t_vehicle,
                    distance_to_intersection: d_t,
                    speed: v_now,
                    stopped: agent.stopped,
                    attempt,
                    proposed_arrival: proposed,
                    platoon_followers,
                    platoon_gap,
                },
                self.cfg.buffers.rtd.retransmit_timeout() * f64::from(backoff),
            )
        };
        let agent = self.expect_agent_mut(v);
        if let Some(toa) = req.proposed_arrival {
            agent.last_proposal = Some((toa, req.speed, req.stopped));
        }
        match &mut agent.platoon {
            // Snapshot what this uplink asked for: the grant that answers
            // it covers exactly this many followers, spaced by the offset
            // this stopped-flag selects. (The downlink guard pins the
            // acted-on response to the *latest* attempt, so the snapshot
            // is always the one the grant answers.)
            Some(PlatoonRole::Leader(l)) if req.platoon_followers > 0 => {
                l.sent = req.platoon_followers;
                l.sent_stopped = req.stopped;
            }
            _ => {}
        }
        let deliveries = self.uplink_deliveries();
        self.rec(
            sim,
            v.0,
            attempt,
            TraceEvent::UplinkSend {
                copies: u8::try_from(deliveries.count()).unwrap_or(u8::MAX),
                latency: deliveries.first_latency().unwrap_or(LOST_LATENCY),
            },
        );
        for latency in deliveries.iter() {
            sim.schedule_in(latency, Event::UplinkArrival(v, self.im, req));
        }
        sim.schedule_in(timeout, Event::ResponseTimeout(v, attempt, self.im));
    }

    fn aim_proposal(
        &self,
        agent: &Agent,
        t_vehicle: TimePoint,
        d_t: Meters,
        v_now: MetersPerSecond,
    ) -> Option<TimePoint> {
        if self.cfg.policy != crate::policy::PolicyKind::Aim {
            return None;
        }
        if agent.stopped || v_now.value() < 1e-6 {
            // Launch proposal: far enough out that the acceptance can land
            // before the launch even after AIM's own trajectory-simulation
            // latency, plus the queue run-up to the box.
            Some(
                t_vehicle
                    + self.cfg.buffers.rtd.wc_rtd()
                    + self.cfg.aim_retry_interval
                    + self.cover_time(d_t),
            )
        } else {
            Some(t_vehicle + d_t / v_now)
        }
    }

    fn on_timeout(&mut self, sim: &mut Simulation<Event>, v: VehicleId, attempt: u32) {
        if self.requesting(v, attempt) {
            self.supersede_request(sim, v);
        }
    }

    /// Supersedes `v`'s in-flight request as a retransmission timeout
    /// does: the machine counts a new attempt and sends it now, and a late
    /// response to the old one dies on the attempt guard. A vehicle not
    /// in `Request` has nothing in flight.
    fn supersede_request(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let im = self.im;
        let agent = self.expect_agent_mut(v);
        if let ProtocolState::Request { attempts } = agent.protocol.state() {
            agent
                .protocol
                .apply(ProtocolEvent::TimedOut)
                .expect("retransmission applies in Request state");
            sim.schedule_in(Seconds::ZERO, Event::SendRequest(v, attempts + 1, im));
        }
    }

    // --- IM server ----------------------------------------------------------

    fn on_uplink(&mut self, sim: &mut Simulation<Event>, v: VehicleId, req: CrossingRequest) {
        // The frame physically reached the IM radio — recorded whether or
        // not the IM process is alive to act on it.
        self.rec(sim, v.0, req.attempt, TraceEvent::UplinkDeliver);
        if self.im_down {
            // The IM radio is dead: the frame vanishes, the vehicle's own
            // timeout is the only recovery (exactly like a medium loss,
            // but attributed to the outage).
            self.counters.im_outage_drops += 1;
            return;
        }
        self.im_queue.push_back((v, req));
        if !self.im_busy {
            self.im_start_next(sim);
        }
    }

    /// Watermark admission for one dequeued request: `true` if the IM
    /// should decide it, `false` if it is stale/duplicated (or from a
    /// vehicle that has since handed off to the next intersection) and
    /// must be dropped.
    fn admit_request(&mut self, v: VehicleId, req: &CrossingRequest) -> bool {
        // The agent carries the IM's per-vehicle watermark.
        let Some(agent) = self.agent_mut(v) else {
            return false;
        };
        if agent
            .im_seen_attempt
            .is_some_and(|seen| req.attempt <= seen)
        {
            return false;
        }
        agent.im_seen_attempt = Some(req.attempt);
        true
    }

    fn im_start_next(&mut self, sim: &mut Simulation<Event>) {
        // Iterative drain: a retransmission storm can queue arbitrarily
        // many stale frames back-to-back, so dropping them must not grow
        // the call stack once per frame.
        while let Some((v, req)) = self.im_queue.pop_front() {
            // Drop stale/reordered/duplicated requests: the ledger must
            // only ever move forward with the vehicle's newest reported
            // state.
            if !self.admit_request(v, &req) {
                continue;
            }
            self.im_busy = true;
            // The decision is computed now; the response leaves the IM
            // once the computation time — proportional to the scheduling
            // work it actually performed — has elapsed. This is how AIM's
            // trajectory re-simulation turns into response latency.
            let now = sim.now();
            self.rec(sim, v.0, req.attempt, TraceEvent::DecisionEnter);
            let (cmd, svc) = {
                let policy = &mut self.policy;
                let ops_before = policy.ops();
                let cmd = policy.decide(&req, now);
                let svc = self
                    .cfg
                    .computation
                    .decision_time(policy.ops() - ops_before);
                (cmd, svc)
            };
            self.metrics.push_decision_latency(svc);
            self.decision_stamps.push(now);
            self.rec(
                sim,
                v.0,
                req.attempt,
                TraceEvent::DecisionExit {
                    verdict: verdict_of(&cmd),
                    service: svc,
                },
            );
            self.counters.im_requests += 1;
            self.policy.prune(now);
            sim.schedule_in(
                svc,
                Event::ImFinish(v, self.im, req.attempt, cmd, self.im_epoch),
            );
            return;
        }
        self.im_busy = false;
    }

    fn on_im_finish(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        attempt: u32,
        cmd: CrossingCommand,
        epoch: u32,
    ) {
        if epoch != self.im_epoch {
            // The IM crashed while this computation was in flight: its
            // result dies with the process that was computing it. The
            // post-restart incarnation drives its own queue.
            return;
        }
        let deliveries = self.downlink_deliveries();
        self.rec(
            sim,
            v.0,
            attempt,
            TraceEvent::DownlinkSend {
                copies: u8::try_from(deliveries.count()).unwrap_or(u8::MAX),
                latency: deliveries.first_latency().unwrap_or(LOST_LATENCY),
            },
        );
        for latency in deliveries.iter() {
            sim.schedule_in(latency, Event::DownlinkArrival(v, self.im, attempt, cmd));
        }
        self.im_start_next(sim);
    }

    fn on_im_crash(&mut self) {
        self.im_down = true;
        self.im_epoch = self.im_epoch.wrapping_add(1);
        // Requests queued inside the IM die with it; the vehicles recover
        // through their retransmission timeouts. An in-flight decision
        // dies on the epoch guard when its ImFinish lands.
        self.counters.im_outage_drops += self.im_queue.len() as u64;
        self.im_queue.clear();
        self.im_busy = false;
    }

    fn on_im_restart(&mut self, now: TimePoint) {
        self.im_down = false;
        // Conservative ledger re-validation: grants already issued stay
        // booked (their vehicles will execute them regardless, so
        // forgetting them could double-book the box), expired
        // bookkeeping is dropped.
        self.policy.prune(now);
    }

    // --- Response handling ---------------------------------------------------

    fn on_downlink(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        attempt: u32,
        cmd: CrossingCommand,
    ) {
        let now = sim.now();
        // The frame physically reached the vehicle radio — recorded even
        // when the guards below discard it as stale.
        self.rec(sim, v.0, attempt, TraceEvent::DownlinkDeliver);
        // Only the response to the *current* attempt may be acted on: a
        // slower response to a superseded request would desynchronize the
        // executed plan from the IM's ledger (which has since been
        // re-simulated from the newer request).
        if !self.requesting(v, attempt) {
            return;
        }
        // Late-command rejection: a Crossroads command delivered after its
        // own execute-at deadline cannot be followed — the WC-RTD contract
        // it was scheduled under is already broken (burst losses, frame
        // reordering, IM queueing past the budget). The vehicle detects
        // and discards it, falls back to a safe stop at the line and
        // re-requests; the IM's orphaned reservation is released by its
        // next prune once the reserved window expires.
        if let CrossingCommand::Crossroads { execute_at, .. } = cmd {
            if now > execute_at {
                self.counters.deadline_misses += 1;
                self.rec(sim, v.0, attempt, TraceEvent::DeadlineMiss);
                return self.stale_response(sim, v);
            }
        }
        let granted = match cmd {
            CrossingCommand::VtTarget { target_speed, .. } if target_speed.value() > 0.0 => {
                let p = &self.expect_agent(v).profile;
                let (s_now, v_now) = (p.position_at(now), p.speed_at(now));
                Some(SpeedProfile::vt_response(
                    now,
                    s_now,
                    v_now,
                    target_speed,
                    &self.cfg.spec,
                ))
            }
            CrossingCommand::VtTarget { .. } => {
                // Escalate the re-request interval with consecutive
                // denials on this leg: a vehicle parked behind a busy
                // box gains nothing from polling the IM at round-trip
                // rate.
                let denials = self.expect_agent(v).protocol.rejections();
                let factor = f64::from((1 + denials).min(6));
                let retry = self.cfg.buffers.rtd.retransmit_timeout() * factor;
                return self.reject(sim, v, retry, Self::fallback_stop);
            }
            CrossingCommand::Crossroads {
                execute_at,
                arrival,
                target_speed,
                stop_first,
            } => self.crossroads_grant(v, execute_at, arrival, target_speed, stop_first, now),
            CrossingCommand::AimAccept { arrival } => self.aim_grant(sim, v, arrival, now),
            CrossingCommand::AimReject => {
                return self.reject(sim, v, self.cfg.aim_retry_interval, Self::aim_replan);
            }
        };
        let Some(profile) = granted else {
            return self.stale_response(sim, v);
        };
        let Some(profile) = self.actuation_check(v, profile, now) else {
            return self.reject(sim, v, Seconds::from_millis(50.0), Self::fallback_stop);
        };
        let role = self.commit_grant(sim, v, profile);
        self.grant_followers(sim, v, role, cmd, now);
        let verdict = verdict_of(&cmd);
        self.rec(sim, v.0, attempt, TraceEvent::Actuation { verdict });
    }

    /// The plan a Crossroads command installs, or `None` when it is stale:
    /// its execute-at instant has passed, or it no longer fits the
    /// vehicle's state.
    fn crossroads_grant(
        &mut self,
        v: VehicleId,
        t_e: TimePoint,
        arrival: TimePoint,
        target: MetersPerSecond,
        stop_first: bool,
        now: TimePoint,
    ) -> Option<SpeedProfile> {
        let (spec, s_entry) = (self.cfg.spec, self.s_entry);
        let agent = self.expect_agent(v);
        let (s_now, v_now) = (agent.profile.position_at(now), agent.profile.speed_at(now));
        if agent.stopped {
            // Waiting in the queue: a pure launch command. The launch
            // instant is `execute_at`; the run-up covers the setback so
            // the box entry lands at `arrival`.
            let cover = self.cover_time(s_entry - s_now);
            if t_e < now || (t_e + cover - arrival).abs() > Seconds::from_millis(50.0) {
                return None;
            }
            let rest = SpeedProfile::starting_at(now, s_now, MetersPerSecond::ZERO);
            return Some(self.launch(rest, t_e));
        }
        if now > t_e {
            return None;
        }
        if !stop_first {
            return SpeedProfile::crossroads_response(
                now, s_now, v_now, t_e, arrival, s_entry, target, &spec,
            )
            .ok();
        }
        // Brake into the physical queue, wait, and launch so the box entry
        // lands at `arrival`.
        self.expect_agent_mut(v).queued = true;
        let mut p = SpeedProfile::starting_at(now, s_now, v_now);
        p.push_hold(t_e - now);
        let d_avail = s_entry - p.final_position();
        let d_brake = kinematics::stopping_distance(v_now, spec.d_max);
        if d_avail > d_brake {
            p.push_hold((d_avail - d_brake) / v_now);
        }
        p.push_speed_change(MetersPerSecond::ZERO, spec.d_max);
        if p.final_position() > s_entry + Meters::new(1e-6) {
            return None;
        }
        self.launch_into(p, arrival)
    }

    /// The plan an AIM acceptance installs, or `None` when it is stale: it
    /// answers a superseded proposal, the vehicle has left the trajectory
    /// AIM simulated, or — a counted deadline miss — its launch instant
    /// passed in transit.
    fn aim_grant(
        &mut self,
        sim: &Simulation<Event>,
        v: VehicleId,
        arrival: TimePoint,
        now: TimePoint,
    ) -> Option<SpeedProfile> {
        let agent = self.expect_agent(v);
        let (s_now, v_now) = (agent.profile.position_at(now), agent.profile.speed_at(now));
        // Validate against the proposal this grant answers: if the vehicle
        // has braked, stopped or re-proposed since, the IM simulated the
        // wrong trajectory — discard and re-request.
        let (toa_prop, v_prop, was_stopped) = agent.last_proposal?;
        if (arrival - toa_prop).abs() > Seconds::from_millis(1.0) || was_stopped != agent.stopped {
            return None;
        }
        if was_stopped {
            let rest = SpeedProfile::starting_at(now, s_now, MetersPerSecond::ZERO);
            let launch = self.launch_into(rest, arrival);
            if launch.is_none() {
                // The grant's launch instant already passed in transit —
                // AIM's equivalent of a missed execute-at deadline.
                self.counters.deadline_misses += 1;
                let attempt = self.current_attempt(v);
                self.rec(sim, v.0, attempt, TraceEvent::DeadlineMiss);
            }
            return launch;
        }
        // The grant assumed a constant-speed approach; verify we still are
        // where the proposal said we would be.
        if (v_now - v_prop).abs() > MetersPerSecond::new(0.02) || v_now.value() <= 1e-6 {
            return None;
        }
        let predicted_entry = now + (self.s_entry - s_now) / v_now;
        if (predicted_entry - arrival).abs() > Seconds::from_millis(30.0) {
            return None;
        }
        // Hold the proposed speed through the box.
        Some(SpeedProfile::starting_at(now, s_now, v_now))
    }

    /// Counts a rejection — AIM's "no", a VT stop, a vetoed or discarded
    /// grant — and re-arms the request: the machine moves to its next
    /// attempt, `replan` sets the motion the vehicle holds meanwhile, and
    /// that attempt goes out after `retry`.
    fn reject(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        retry: Seconds,
        replan: fn(&mut Self, &mut Simulation<Event>, VehicleId),
    ) {
        let im = self.im;
        let protocol = &mut self.expect_agent_mut(v).protocol;
        protocol
            .apply(ProtocolEvent::ResponseRejected)
            .expect("reject applies in Request state");
        let ProtocolState::Request { attempts } = protocol.state() else {
            unreachable!("rejection keeps the machine in Request")
        };
        replan(self, sim, v);
        sim.schedule_in(retry, Event::SendRequest(v, attempts, im));
    }

    /// AIM's re-plan after a "no": a moving vehicle slows by
    /// [`AIM_SLOWDOWN_FACTOR`], or brakes to the line when that would crawl
    /// or it is already inside braking distance.
    fn aim_replan(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        let spec = self.cfg.spec;
        let agent = self.expect_agent(v);
        if agent.stopped {
            return;
        }
        let (s_now, v_now) = (agent.profile.position_at(now), agent.profile.speed_at(now));
        let v_new = v_now * AIM_SLOWDOWN_FACTOR;
        let room = self.s_entry - s_now;
        if v_new < spec.v_max * 0.15
            || room <= kinematics::stopping_distance(v_now, spec.d_max) + GUARD_MARGIN
        {
            self.brake_to_line(v, now);
        } else {
            self.expect_agent_mut(v).profile =
                SpeedProfile::vt_response(now, s_now, v_now, v_new, &spec);
        }
        self.bump_unaccepted_plan(sim, v);
    }

    fn stale_response(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        // Every discard lands here: deadline misses and superseded-state
        // grants alike. The vehicle treats the response as never received
        // (beyond noting it must re-request promptly).
        self.counters.late_discards += 1;
        self.reject(sim, v, Seconds::from_millis(50.0), Self::fallback_stop);
    }

    // --- Plan bookkeeping ----------------------------------------------------

    /// Installs the (already stored) unaccepted profile: bumps the version,
    /// arms the stop guard or the stopped marker.
    fn bump_unaccepted_plan(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let agent = self.expect_agent_mut(v);
        agent.plan_version += 1;
        let (version, final_speed) = (agent.plan_version, agent.profile.final_speed());
        let end_time = agent.profile.end_time();
        if final_speed.value() <= 0.0 {
            sim.schedule(
                end_time.max(sim.now()),
                Event::MarkStopped(v, version, self.im),
            );
        } else {
            self.schedule_guard(sim, v);
        }
    }

    /// Arms the safe-stop guard for the current (unaccepted) profile.
    fn schedule_guard(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        let Some(agent) = self.agent(v) else {
            return;
        };
        let v_f = agent.profile.final_speed();
        if agent.committed() || v_f.value() <= 0.0 {
            return; // nothing to guard, or already braking to a stop
        }
        let s_brake =
            self.s_entry - kinematics::stopping_distance(v_f, self.cfg.spec.d_max) - GUARD_MARGIN;
        // A profile that never reaches the brake point stops earlier:
        // nothing to guard.
        if let Some(t) = agent.profile.time_at_position(s_brake) {
            sim.schedule(t.max(now), Event::StopGuard(v, agent.plan_version, self.im));
        }
    }

    fn on_stop_guard(&mut self, sim: &mut Simulation<Event>, v: VehicleId, version: u32) {
        if self
            .agent(v)
            .is_some_and(|a| !a.committed() && a.plan_version == version)
        {
            self.fallback_stop(sim, v);
        }
    }

    /// The counted safe fallback of a vehicle without a grant — a stop
    /// guard firing, a VT stop, a discarded or vetoed grant: if it is
    /// still moving, it brakes to a stop at the line, recorded against
    /// its current attempt. (A `stopped` vehicle is always at rest.)
    fn fallback_stop(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let agent = self.expect_agent(v);
        if agent.stopped || agent.profile.speed_at(sim.now()).value() <= 0.0 {
            return;
        }
        self.brake_to_line(v, sim.now());
        self.counters.fallback_stops += 1;
        let attempt = self.current_attempt(v);
        self.rec(sim, v.0, attempt, TraceEvent::FallbackStop);
        self.bump_unaccepted_plan(sim, v);
    }

    fn on_mark_stopped(&mut self, sim: &mut Simulation<Event>, v: VehicleId, version: u32) {
        if let Some(agent) = self.agent_mut(v) {
            if !agent.committed() && agent.plan_version == version {
                agent.stopped = true;
                // A non-V2I vehicle at rest may now check its gap.
                let lane = agent.movement.approach.index();
                self.release_parked(sim, lane);
            }
        }
    }

    /// Commits `v` to a granted crossing, accepted as the response to its
    /// request (`Request`) or inherited without one (`Sync`: platoon
    /// followers and gap-accepting vehicles). The profile replaces its
    /// plan, box entry and exit are scheduled from it, and the crossing
    /// registers with the runtime monitor: every committed crossing
    /// funnels through here. Returns the platoon role the vehicle held,
    /// which ends with the grant (a leader's extends to its followers).
    fn commit_grant(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        profile: SpeedProfile,
    ) -> Option<PlatoonRole> {
        let (now, im) = (sim.now(), self.im);
        let agent = self.expect_agent_mut(v);
        let protocol = &mut agent.protocol;
        match protocol.state() {
            ProtocolState::Request { .. } => protocol.apply(ProtocolEvent::ResponseAccepted),
            _ => protocol.inherit_grant(),
        }
        .expect("a grant is accepted in Request or inherited in Sync");
        agent.profile = profile;
        agent.stopped = false;
        agent.plan_version += 1;
        let (version, role) = (agent.plan_version, agent.platoon.take());
        let agent = self.expect_agent(v);
        let (entered, exited) = self.box_window(agent.movement, &agent.profile, now);
        sim.schedule(entered, Event::BoxEntry(v, version, im));
        sim.schedule(exited, Event::BoxExit(v, version, im));
        if self.filter.is_some() {
            let occ = BoxOccupancy {
                vehicle: v,
                movement: agent.movement,
                entered,
                exited,
                profile: agent.profile.clone(),
                line_offset: self.s_entry,
            };
            let noncompliant = agent.compliance.noncompliant();
            if let Some(f) = self.filter.as_mut() {
                f.register(occ, noncompliant, now);
            }
        }
        // A committed leader no longer holds an AIM follower. The
        // re-check also drops `v`'s own stale entries, so the restarted
        // negotiation of an emergency override never meets an old entry
        // carrying its attempt number.
        let lane = self.expect_agent(v).movement.approach.index();
        self.release_parked(sim, lane);
        role
    }

    /// When `profile` brings a vehicle's front into the box: the first
    /// *moving* crossing of the entry plane. A stop-and-go vehicle parks
    /// with its bumper exactly on the plane, so the probe sits a
    /// millimetre past it — the parked wait does not count as being
    /// inside the box. `now` when the profile never gets there.
    fn entry_time(&self, profile: &SpeedProfile, now: TimePoint) -> TimePoint {
        profile
            .time_at_position(self.s_entry + Meters::new(1e-3))
            .unwrap_or(now)
    }

    /// When `profile` takes a vehicle on `movement` into the box and its
    /// rear out of it, clamped to `now`: a grant can land after a slight
    /// overshoot of the line (a stop command arriving inside braking
    /// distance), and the vehicle then enters as it launches.
    fn box_window(
        &self,
        movement: crossroads_intersection::Movement,
        profile: &SpeedProfile,
        now: TimePoint,
    ) -> (TimePoint, TimePoint) {
        let exited = profile
            .time_at_position(self.s_exit(movement))
            .unwrap_or(now);
        (self.entry_time(profile, now).max(now), exited.max(now))
    }

    fn on_box_entry(&mut self, sim: &mut Simulation<Event>, v: VehicleId, version: u32) {
        let now = sim.now();
        let Some(agent) = self.agent_mut(v) else {
            return;
        };
        if agent.done() || agent.plan_version != version {
            return;
        }
        if agent.entered_at.is_none() {
            agent.entered_at = Some(now);
        }
        // Entering the box vacates the approach: clear the queue slot and
        // release the followers it held.
        agent.queued = false;
        let lane = agent.movement.approach.index();
        self.release_parked(sim, lane);
    }

    // --- Waiting without polling ---------------------------------------------

    /// Parks `v` on `lane` after a check at `now` found it held: no event
    /// is scheduled until a release frees it.
    fn park(&mut self, now: TimePoint, v: VehicleId, lane: usize, wait: Wait) {
        let tick = now + self.poll_period(wait);
        self.parked[lane].push(Parked {
            vehicle: v,
            wait,
            tick,
        });
    }

    /// The period of the poll chain a wait replaces.
    fn poll_period(&self, wait: Wait) -> Seconds {
        match wait {
            Wait::Request(_) => REQUEST_POLL,
            Wait::Gap => self.cfg.mixed.gap_poll,
        }
    }

    /// Where parked `p` stands on `lane` now, by the checks its handler
    /// makes: [`queue_blocked`](Self::queue_blocked) for a request whose
    /// attempt is current, [`gap_blocked`](Self::gap_blocked) for a
    /// non-V2I vehicle that has not committed.
    fn park_state(&self, p: &Parked, lane: usize) -> Park {
        let v = p.vehicle;
        let held = match p.wait {
            Wait::Request(attempt) if self.requesting(v, attempt) => self.queue_blocked(v, lane),
            Wait::Gap if self.agent(v).is_some_and(|a| !a.committed()) => self.gap_blocked(v, lane),
            _ => return Park::Stale,
        };
        if held {
            Park::Held
        } else {
            Park::Free
        }
    }

    /// Re-checks `lane`'s parked vehicles after a change that can free
    /// one: a predecessor entering the box or committing, or a vehicle
    /// coming to rest. Each freed vehicle is woken on the first tick of
    /// its own poll chain at or after now, found by the same repeated
    /// addition of the period that polling performed, and its handler
    /// re-checks there — so it acts at the instant, in the state and
    /// with the draws that polling would have. A release landing exactly
    /// on a tick wakes the vehicle at that instant, after every event
    /// already queued for it. Stale entries are dropped.
    fn release_parked(&mut self, sim: &mut Simulation<Event>, lane: usize) {
        if self.parked[lane].is_empty() {
            return;
        }
        self.advance_lane_cursor(lane);
        let now = sim.now();
        let mut parked = std::mem::take(&mut self.parked[lane]);
        parked.retain(|p| match self.park_state(p, lane) {
            Park::Stale => false,
            Park::Held => true,
            Park::Free => {
                let period = self.poll_period(p.wait);
                let mut tick = p.tick;
                while tick < now {
                    tick += period;
                }
                let event = match p.wait {
                    Wait::Request(attempt) => Event::SendRequest(p.vehicle, attempt, self.im),
                    Wait::Gap => Event::ComplianceCheck(p.vehicle, self.im),
                };
                sim.schedule(tick, event);
                false
            }
        });
        self.parked[lane] = parked;
    }

    /// The missed-wake guard: after every event, each live parked
    /// vehicle must still be held, or a release hook is missing or
    /// misplaced and the vehicle may wait forever. Each check re-runs its
    /// handler's scan, so a world holding more than [`GUARD_LIMIT`]
    /// parked vehicles, which only a stalled run reaches, is skipped.
    ///
    /// # Panics
    ///
    /// Panics naming the lane, the vehicle and its wait when one is free.
    #[cfg(debug_assertions)]
    fn assert_parked_held(&self) {
        if self.parked.iter().map(Vec::len).sum::<usize>() > GUARD_LIMIT {
            return;
        }
        for (lane, parked) in self.parked.iter().enumerate() {
            for p in parked {
                if let Park::Free = self.park_state(p, lane) {
                    panic!(
                        "lane {} approach {lane}: parked {} ({:?}) is free but was not woken",
                        self.im, p.vehicle, p.wait
                    );
                }
            }
        }
    }

    fn on_box_exit(&mut self, sim: &mut Simulation<Event>, v: VehicleId, version: u32) {
        let now = sim.now();
        let line_offset = self.s_entry;
        let occupancy = {
            let Some(agent) = self.agent_mut(v) else {
                return;
            };
            if agent.done() || agent.plan_version != version {
                return;
            }
            agent
                .protocol
                .apply(ProtocolEvent::CrossedIntersection)
                .expect("exit applies in Follow state");
            BoxOccupancy {
                vehicle: v,
                movement: agent.movement,
                entered: agent.entered_at.unwrap_or(now),
                exited: now,
                profile: agent.profile.clone(),
                line_offset,
            }
        };
        let next = self.next_leg(occupancy.movement);
        self.occupancies.push(occupancy);
        match next {
            Some(to_im) => {
                // Handoff: bank this leg's free-flow time (plus the link
                // traversal), and leave the lane through the outbox to
                // ride the link to the next intersection's transmission
                // line, where the protocol machine restarts.
                let im = self.im;
                let mut agent = self.take_agent(v).unwrap_or_else(|| no_agent(im, v));
                agent.trip_free_flow += agent.free_flow + self.link_time;
                self.outbox.push(Handoff {
                    at: now + self.link_time,
                    to_im,
                    vehicle: v,
                    agent,
                });
            }
            None => {
                // Final exit: one record for the whole trip.
                let agent = self.expect_agent(v);
                let record = VehicleRecord {
                    vehicle: v,
                    line_at: agent.first_line_at,
                    cleared_at: now,
                    free_flow: agent.trip_free_flow + agent.free_flow,
                    requests_sent: agent.protocol.trip_requests(),
                    rejections: agent.protocol.trip_rejections(),
                };
                self.metrics.push(record);
            }
        }
        // Exit notification to the IM. A lost notice is safe: the policy's
        // reservation for the vehicle simply expires via prune instead of
        // being released early.
        for latency in self.uplink_deliveries().iter() {
            sim.schedule_in(latency, Event::ImExitNotice(v, self.im));
        }
    }

    /// The ground-truth safety audit of every box occupancy this lane
    /// logged (see [`SafetyReport::audit`]).
    pub(crate) fn audit(&mut self) -> SafetyReport {
        let occupancies = std::mem::take(&mut self.occupancies);
        SafetyReport::audit(occupancies, &self.cfg.geometry, &self.cfg.spec)
    }

    /// Appends this lane's post-run safety-audit verdicts to the trace:
    /// one record per overlapping pair, then a summary. A no-op when
    /// recording is disabled.
    pub(crate) fn record_audit(&mut self, sim: &Simulation<Event>, report: &SafetyReport) {
        for viol in report.violations() {
            self.rec(
                sim,
                viol.first.0,
                0,
                TraceEvent::AuditViolation {
                    other: viol.second.0,
                },
            );
        }
        self.rec(
            sim,
            NO_VEHICLE,
            0,
            TraceEvent::AuditSummary {
                violations: u32::try_from(report.violations().len()).unwrap_or(u32::MAX),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crossroads_intersection::{Approach, Movement, Turn};

    fn test_config() -> SimConfig {
        SimConfig::scale_model(PolicyKind::Crossroads).with_seed(7)
    }

    /// The one lane of a single-intersection run.
    fn single_lane<'a>(cfg: &'a SimConfig, workload: &'a [Arrival]) -> World<'a> {
        World::lanes(cfg, workload, 1, Seconds::ZERO)
            .pop()
            .expect("one lane")
    }

    fn test_workload() -> Vec<Arrival> {
        vec![Arrival {
            vehicle: VehicleId(0),
            movement: Movement::new(Approach::South, Turn::Straight),
            at_line: TimePoint::ZERO,
            speed: MetersPerSecond::new(1.5),
        }]
    }

    /// The workload's one vehicle already past sync, in
    /// `Request { attempts: 1 }` — the state an IM-side uplink test needs.
    fn requesting_agent(cfg: &SimConfig, arr: &Arrival) -> Agent {
        let mut agent = Agent::new(cfg, arr);
        agent.protocol.apply(ProtocolEvent::SyncCompleted).unwrap();
        agent.free_flow = Seconds::new(10.0);
        agent
    }

    fn request(cfg: &SimConfig, movement: Movement, attempt: u32) -> CrossingRequest {
        CrossingRequest {
            vehicle: VehicleId(0),
            movement,
            spec: cfg.spec,
            transmitted_at: TimePoint::ZERO,
            distance_to_intersection: cfg.geometry.transmission_line_distance,
            speed: MetersPerSecond::new(1.5),
            stopped: false,
            attempt,
            proposed_arrival: None,
            platoon_followers: 0,
            platoon_gap: Meters::ZERO,
        }
    }

    /// Delivers `uplinks` — `(instant, attempt)` frames from one vehicle
    /// already past sync — to a fresh single-intersection world, runs it
    /// for five seconds, and returns what the IM made of them: requests
    /// processed, the vehicle's watermark, and whether the IM is busy.
    fn serve_uplinks(uplinks: &[(f64, u32)]) -> (u64, Option<u32>, bool) {
        let cfg = test_config();
        let workload = test_workload();
        let movement = workload[0].movement;
        let mut sim: Simulation<Event> = Simulation::new();
        let mut world = single_lane(&cfg, &workload);
        world.insert_agent(VehicleId(0), requesting_agent(&cfg, &workload[0]));
        for &(at, attempt) in uplinks {
            sim.schedule(
                TimePoint::new(at),
                Event::UplinkArrival(VehicleId(0), 0, request(&cfg, movement, attempt)),
            );
        }
        sim.run_until(TimePoint::new(5.0), |sim, ev| {
            world.handle(sim, ev);
            true
        });
        let seen = world.agent(VehicleId(0)).unwrap().im_seen_attempt;
        (world.counters.im_requests, seen, world.im_busy)
    }

    /// Regression (watermark sentinel): a *duplicated* attempt-1 uplink —
    /// the first frame this vehicle ever sends, twice on the air — must be
    /// processed exactly once. With the old `0`-as-never-seen sentinel the
    /// invariant relied on attempts never being 0; `Option<u32>` makes
    /// "never seen" unconfusable with any attempt number.
    #[test]
    fn duplicated_first_attempt_is_processed_once() {
        let (requests, seen, _) = serve_uplinks(&[(0.001, 1), (0.002, 1)]);
        assert_eq!(
            requests, 1,
            "the duplicate attempt-1 frame must be dropped by the watermark"
        );
        assert_eq!(seen, Some(1), "watermark records the processed attempt");
    }

    /// Stale duplicates queued around two distinct attempts: exactly the
    /// two attempts are processed and the IM ends idle. The storm case
    /// checks that the iterative drain drops every stale frame in one
    /// sweep (the old recursive version deepened the call stack per
    /// dropped frame); the same-instant case lands a duplicate and the
    /// fresh attempt at the original's instant.
    #[test]
    fn stale_storm_drains_iteratively_to_the_fresh_request() {
        // Attempt 1 arrives first and occupies the IM; while it computes,
        // a storm of duplicated attempt-1 frames and one fresh attempt-2
        // frame pile into the queue.
        let mut storm = vec![(0.001, 1)];
        storm.extend((0..64u32).map(|i| (0.002 + f64::from(i) * 1e-5, 1)));
        storm.push((0.004, 2));
        let same_instant = vec![(0.001, 1), (0.001, 1), (0.001, 2)];
        for uplinks in [storm, same_instant] {
            let (requests, seen, busy) = serve_uplinks(&uplinks);
            assert_eq!(
                requests, 2,
                "exactly the two distinct attempts are processed"
            );
            assert_eq!(seen, Some(2));
            assert!(!busy, "the IM drains its queue and goes idle");
        }
    }

    /// Uplinks landing during an IM crash window are dropped and counted;
    /// the queue the IM held when it died is lost too.
    #[test]
    fn outage_drops_uplinks_and_queued_requests() {
        let cfg = test_config();
        let workload = test_workload();
        let movement = workload[0].movement;
        let mut sim: Simulation<Event> = Simulation::new();
        let mut world = single_lane(&cfg, &workload);
        world.insert_agent(VehicleId(0), requesting_agent(&cfg, &workload[0]));
        sim.schedule(
            TimePoint::new(0.001),
            Event::UplinkArrival(VehicleId(0), 0, request(&cfg, movement, 1)),
        );
        // Queued behind the busy IM when the crash hits.
        sim.schedule(
            TimePoint::new(0.002),
            Event::UplinkArrival(VehicleId(0), 0, request(&cfg, movement, 2)),
        );
        sim.schedule(TimePoint::new(0.003), Event::ImCrash(0));
        // Landing on the dead radio.
        sim.schedule(
            TimePoint::new(0.004),
            Event::UplinkArrival(VehicleId(0), 0, request(&cfg, movement, 3)),
        );
        sim.schedule(TimePoint::new(0.005), Event::ImRestart(0));
        // Processed by the restarted IM.
        sim.schedule(
            TimePoint::new(0.006),
            Event::UplinkArrival(VehicleId(0), 0, request(&cfg, movement, 4)),
        );
        sim.run_until(TimePoint::new(5.0), |sim, ev| {
            world.handle(sim, ev);
            true
        });
        assert_eq!(
            world.counters.im_outage_drops, 2,
            "one queued request lost in the crash + one dropped on the dead radio"
        );
        assert_eq!(
            world.counters.im_requests, 2,
            "attempt 1 (pre-crash) and attempt 4 (post-restart) are served"
        );
        // The in-flight attempt-1 computation died with the old epoch: its
        // downlink was never transmitted.
        assert!(!world.im_down);
    }

    // --- Waiting without polling -------------------------------------------

    /// `n` south-approach through vehicles crossing the line at `t = 0`,
    /// in line order.
    fn queue_workload(n: u32) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                vehicle: VehicleId(i),
                movement: Movement::new(Approach::South, Turn::Straight),
                at_line: TimePoint::ZERO,
                speed: MetersPerSecond::new(1.5),
            })
            .collect()
    }

    /// Seats every workload vehicle in `world`'s south lane in line
    /// order, each in `Request { attempts: 1 }` and cruising from the
    /// line.
    fn seat_requesting(world: &mut World, cfg: &SimConfig, workload: &[Arrival]) -> usize {
        let lane = Approach::South.index();
        for arr in workload {
            world.insert_agent(arr.vehicle, requesting_agent(cfg, arr));
            world.lane_arrivals[lane].push(arr.vehicle);
        }
        lane
    }

    /// An event no lane acts on: stepping onto it moves the clock.
    fn clock_mark() -> Event {
        Event::LinkArrival(VehicleId(u32::MAX), 0)
    }

    /// Dispatches every event through `until` to `world`, logging each.
    fn drive(
        sim: &mut Simulation<Event>,
        world: &mut World,
        until: TimePoint,
        log: &mut Vec<(TimePoint, Event)>,
    ) {
        sim.schedule(until, clock_mark());
        sim.run_until(until, |sim, ev| {
            log.push((sim.now(), ev.clone()));
            world.handle(sim, ev);
            true
        });
    }

    /// The instants at which `log` dispatched a `SendRequest` of `v`.
    fn sends_of(log: &[(TimePoint, Event)], v: VehicleId, attempt: u32) -> Vec<TimePoint> {
        log.iter()
            .filter(|(_, e)| matches!(*e, Event::SendRequest(u, a, _) if u == v && a == attempt))
            .map(|&(t, _)| t)
            .collect()
    }

    /// The first tick of the poll chain `park + period, + period, …` at
    /// or after `release`, by the repeated addition polling performed.
    fn chain_tick(park: TimePoint, period: Seconds, release: TimePoint) -> TimePoint {
        let mut tick = park;
        loop {
            tick += period;
            if tick >= release {
                return tick;
            }
        }
    }

    /// An AIM follower held by an uncommitted leader parks without
    /// polling; the leader's grant releases it, and it sends on its own
    /// poll chain's tick after the grant, not at the grant instant.
    #[test]
    fn aim_follower_released_by_leader_grant_sends_on_its_tick() {
        let cfg = SimConfig::scale_model(PolicyKind::Aim).with_seed(7);
        let workload = queue_workload(2);
        let (leader, follower) = (VehicleId(0), VehicleId(1));
        let mut sim: Simulation<Event> = Simulation::new();
        let mut world = single_lane(&cfg, &workload);
        let lane = seat_requesting(&mut world, &cfg, &workload);
        let t_park = TimePoint::new(0.0137);
        sim.schedule(t_park, Event::SendRequest(follower, 1, 0));
        let mut log = Vec::new();
        let t_grant = TimePoint::new(0.9);
        drive(&mut sim, &mut world, t_grant, &mut log);
        assert_eq!(world.parked[lane].len(), 1, "the held follower parks");
        assert_eq!(sends_of(&log, follower, 1), [t_park], "and does not poll");

        let p = SpeedProfile::starting_at(t_grant, Meters::new(2.0), MetersPerSecond::new(1.5));
        world.commit_grant(&mut sim, leader, p);
        assert!(world.parked[lane].is_empty(), "the grant releases it");
        drive(&mut sim, &mut world, TimePoint::new(1.5), &mut log);
        let wake = chain_tick(t_park, Seconds::from_millis(200.0), t_grant);
        assert_eq!(sends_of(&log, follower, 1), [t_park, wake]);
        assert!(
            wake > t_grant + Seconds::from_millis(100.0),
            "not at the grant"
        );
        assert!(
            world.agent(follower).unwrap().last_proposal.is_some(),
            "the woken request is sent"
        );
    }

    /// A stopped VT-IM follower stays parked while its queued leader
    /// merely commits, and is released by the leader's box entry.
    #[test]
    fn stopped_vt_follower_released_by_leader_box_entry() {
        let cfg = SimConfig::scale_model(PolicyKind::VtIm).with_seed(7);
        let workload = queue_workload(2);
        let (leader, follower) = (VehicleId(0), VehicleId(1));
        let mut sim: Simulation<Event> = Simulation::new();
        let mut world = single_lane(&cfg, &workload);
        let lane = seat_requesting(&mut world, &cfg, &workload);
        let s_entry = world.s_entry;
        for v in [leader, follower] {
            let a = world.expect_agent_mut(v);
            a.queued = true;
            a.stopped = true;
            a.profile = SpeedProfile::starting_at(TimePoint::ZERO, s_entry, MetersPerSecond::ZERO);
        }
        let t_park = TimePoint::new(0.0421);
        sim.schedule(t_park, Event::SendRequest(follower, 1, 0));
        let mut log = Vec::new();
        let t_grant = TimePoint::new(0.5);
        drive(&mut sim, &mut world, t_grant, &mut log);
        let rest = SpeedProfile::starting_at(t_grant, s_entry, MetersPerSecond::ZERO);
        let launch = world.launch(rest, TimePoint::new(1.3));
        world.commit_grant(&mut sim, leader, launch);
        assert_eq!(
            world.parked[lane].len(),
            1,
            "a committed but queued VT leader still holds the follower"
        );
        drive(&mut sim, &mut world, TimePoint::new(3.0), &mut log);
        let entry = log
            .iter()
            .find(|(_, e)| matches!(*e, Event::BoxEntry(u, ..) if u == leader))
            .map(|&(t, _)| t)
            .expect("the leader enters the box");
        let wake = chain_tick(t_park, Seconds::from_millis(200.0), entry);
        assert_eq!(sends_of(&log, follower, 1), [t_park, wake]);
        assert!(world.parked[lane].is_empty());
    }

    /// A human braking toward the line parks at its first gap check and
    /// is released by its own `MarkStopped`: it checks again on its
    /// gap-poll tick after the stop and, the box being clear, commits.
    #[test]
    fn human_released_by_own_stop_checks_on_its_gap_tick() {
        let cfg = SimConfig::scale_model(PolicyKind::Crossroads)
            .with_seed(7)
            .with_mixed(MixedConfig::standard());
        let workload = queue_workload(1);
        let human = VehicleId(0);
        let mut sim: Simulation<Event> = Simulation::new();
        let mut world = single_lane(&cfg, &workload);
        let mut agent = Agent::new(&cfg, &workload[0]);
        agent.compliance = Compliance::Human;
        world.insert_agent(human, agent);
        world.enter_leg(&mut sim, human, workload[0].speed);
        let mut log = Vec::new();
        drive(&mut sim, &mut world, TimePoint::new(10.0), &mut log);
        let at = |pred: &dyn Fn(&Event) -> bool| -> Vec<TimePoint> {
            log.iter()
                .filter(|(_, e)| pred(e))
                .map(|&(t, _)| t)
                .collect()
        };
        let checks = at(&|e| matches!(e, Event::ComplianceCheck(..)));
        let stopped = at(&|e| matches!(e, Event::MarkStopped(..)));
        let poll = cfg.mixed.gap_poll;
        let t_park = TimePoint::ZERO + poll;
        assert!(
            stopped[0] > t_park + poll,
            "still braking at its first check"
        );
        assert_eq!(checks, [t_park, chain_tick(t_park, poll, stopped[0])]);
        assert!(
            world.agent(human).unwrap().committed(),
            "the clear gap commits"
        );
    }

    /// A parked request whose attempt a platoon join superseded is
    /// dropped on the next release; only the current attempt wakes.
    #[test]
    fn superseded_parked_attempt_is_dropped_not_woken() {
        let cfg = SimConfig::scale_model(PolicyKind::Aim).with_seed(7);
        let workload = queue_workload(3);
        let (front, leader, joiner) = (VehicleId(0), VehicleId(1), VehicleId(2));
        let mut sim: Simulation<Event> = Simulation::new();
        let mut world = single_lane(&cfg, &workload[..2]);
        let lane = seat_requesting(&mut world, &cfg, &workload[..2]);
        world.insert_agent(joiner, Agent::new(&cfg, &workload[2]));
        let t_park = TimePoint::new(0.0173);
        sim.schedule(t_park, Event::SendRequest(leader, 1, 0));
        let mut log = Vec::new();
        let t_join = TimePoint::new(0.3311);
        drive(&mut sim, &mut world, t_join, &mut log);
        world.platoon_attach(&mut sim, joiner, leader);
        drive(&mut sim, &mut world, TimePoint::new(0.5), &mut log);
        let waits: Vec<Wait> = world.parked[lane].iter().map(|p| p.wait).collect();
        assert_eq!(waits, [Wait::Request(1), Wait::Request(2)]);

        let t_grant = TimePoint::new(0.8);
        drive(&mut sim, &mut world, t_grant, &mut log);
        let p = SpeedProfile::starting_at(t_grant, Meters::new(2.0), MetersPerSecond::new(1.5));
        world.commit_grant(&mut sim, front, p);
        assert!(world.parked[lane].is_empty(), "stale entry dropped");
        drive(&mut sim, &mut world, TimePoint::new(1.5), &mut log);
        assert_eq!(
            sends_of(&log, leader, 1),
            [t_park],
            "the old attempt never wakes"
        );
        let wake = chain_tick(t_join, Seconds::from_millis(200.0), t_grant);
        assert_eq!(sends_of(&log, leader, 2), [t_join, wake]);
    }

    /// VT-IM's re-request back-off escalates with this leg's denials
    /// only: a vehicle refused twice on its previous leg re-requests
    /// after its first refusal here at the base interval.
    #[test]
    fn vt_denial_backoff_counts_this_legs_rejections() {
        let cfg = SimConfig::scale_model(PolicyKind::VtIm).with_seed(7);
        let workload = test_workload();
        let v = VehicleId(0);
        let mut sim: Simulation<Event> = Simulation::new();
        let mut world = single_lane(&cfg, &workload);
        let mut agent = requesting_agent(&cfg, &workload[0]);
        for event in [
            ProtocolEvent::ResponseRejected,
            ProtocolEvent::ResponseRejected,
            ProtocolEvent::ResponseAccepted,
            ProtocolEvent::CrossedIntersection,
        ] {
            agent.protocol.apply(event).unwrap();
        }
        agent.protocol.restart();
        agent.protocol.apply(ProtocolEvent::SyncCompleted).unwrap();
        world.insert_agent(v, agent);
        let t_deny = TimePoint::new(0.3);
        let stop = CrossingCommand::VtTarget {
            target_speed: MetersPerSecond::ZERO,
            scheduled_entry: TimePoint::new(5.0),
        };
        sim.schedule(t_deny, Event::DownlinkArrival(v, 0, 1, stop));
        let mut log = Vec::new();
        drive(&mut sim, &mut world, TimePoint::new(2.0), &mut log);
        let retry = t_deny + cfg.buffers.rtd.retransmit_timeout();
        assert_eq!(sends_of(&log, v, 2), [retry]);
        assert_eq!(world.expect_agent(v).protocol.trip_rejections(), 3);
    }
}
