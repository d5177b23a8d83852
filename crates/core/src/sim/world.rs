//! The closed-loop world of one intersection: its IM server, its radio
//! and the vehicle agents approaching or crossing its box, coupled on
//! the DES.
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
use crossroads_units::{Meters, MetersPerSecond, MetersPerSecondSquared, Seconds, TimePoint};
use crossroads_vehicle::{ProtocolEvent, ProtocolState, SpeedProfile, VehicleId, VehicleProtocol};

use crate::policy::IntersectionPolicy;
use crate::request::{CrossingCommand, CrossingRequest};
use crate::sim::event::Event;
use crate::sim::filter::SafetyFilter;
use crate::sim::safety::{BoxOccupancy, SafetyReport};
use crate::sim::SimConfig;

/// Margin before the hard braking point at which the stop guard fires.
const GUARD_MARGIN: Meters = Meters::new(0.02);

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

/// A fresh protocol machine parked at the line in `Sync` — the state a
/// platoon follower waits in for its inherited grant
/// ([`VehicleProtocol::inherit_grant`] only applies there).
fn follower_protocol(v: VehicleId, now: TimePoint) -> VehicleProtocol {
    let mut protocol = VehicleProtocol::new(v);
    protocol
        .apply(ProtocolEvent::ReachedTransmissionLine, now)
        .expect("fresh machine accepts line crossing");
    protocol
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

pub(crate) struct Agent {
    movement: crossroads_intersection::Movement,
    /// When the current leg's transmission line was crossed.
    line_at: TimePoint,
    /// When the vehicle first entered the corridor (equals `line_at` on
    /// the first leg).
    first_line_at: TimePoint,
    profile: SpeedProfile,
    protocol: VehicleProtocol,
    clock_err: Seconds,
    plan_version: u32,
    stopped: bool,
    accepted: bool,
    entered_at: Option<TimePoint>,
    done: bool,
    /// Free-flow time for the current leg (line to box clearance).
    free_flow: Seconds,
    /// Free-flow time accumulated over completed legs, including link
    /// traversals. Zero on the first leg.
    trip_free_flow: Seconds,
    /// Requests/rejections accumulated over completed legs (the protocol
    /// machine restarts at every handoff).
    trip_requests: u32,
    trip_rejections: u32,
    /// The AIM proposal backing the in-flight request: (arrival, speed at
    /// proposal, stopped flag). Acceptances are validated against it so a
    /// grant computed for a superseded state is discarded.
    last_proposal: Option<(TimePoint, MetersPerSecond, bool)>,
    /// Assigned stop position (queue slot) once the vehicle plans a stop.
    stop_target: Option<Meters>,
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

/// A vehicle's role in an undissolved platoon (PAIM-style admission:
/// one uplink, one decision, one downlink for the whole column).
pub(crate) enum PlatoonRole {
    /// Front of the column: negotiates with the IM on behalf of the
    /// followers queued behind it.
    Leader(PlatoonLead),
    /// Riding a leader's negotiation: no sync exchange and no uplink of
    /// its own — the inherited grant (or the fallback deadline) is the
    /// next protocol step that happens to it.
    Follower {
        /// The vehicle whose grant this follower inherits.
        leader: VehicleId,
    },
}

/// Leader-side platoon state.
pub(crate) struct PlatoonLead {
    /// Followers in lane order (join order equals line-crossing order).
    followers: Vec<VehicleId>,
    /// Follower count the in-flight request reported. The IM booked span
    /// for exactly this many, so the grant covers exactly this many;
    /// later joiners detach when it lands.
    sent: u32,
    /// Whether that request reported the leader stopped — selects the
    /// launch-vs-cruise follower offset, mirroring the span the policy
    /// booked (the [`PlatoonShape`](crate::policy::PlatoonShape)
    /// contract).
    sent_stopped: bool,
}

/// One platoon crossing on a single reservation, tracked IM-side so the
/// slot is freed when the *column* clears the box, not when its leader
/// does. `members` stays immutable (it also classifies duplicate exit
/// notices); `remaining` drains as notices land.
struct PlatoonColumn {
    leader: VehicleId,
    members: Vec<VehicleId>,
    remaining: Vec<VehicleId>,
}

/// How a freshly granted leader's followers are spaced behind it,
/// derived from the granted command so the world's follower entry times
/// stay inside the span the policy booked.
#[derive(Clone, Copy)]
enum FollowerSpacing {
    /// Stop-and-go column: successive standstill launches.
    Launch,
    /// Rolling column entering at the granted speed.
    Cruise(MetersPerSecond),
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
    /// Reusable scratch for [`unentered_predecessors`]
    /// (`Self::unentered_predecessors`), so the per-request queue check
    /// allocates nothing in steady state.
    pred_scratch: Vec<VehicleId>,
    /// Flight recorder, lent by the serial engine to the lane handling
    /// the current event. The `None` arm does no work and draws no
    /// randomness, so an untraced run is byte-identical to one built
    /// before tracing existed (the same guarantee the fault layer makes).
    pub(crate) recorder: Option<&'a mut Recorder>,
    /// The runtime safety monitor (see `sim/filter.rs`). Present when
    /// mixed traffic can appear (the registry is what humans judge gaps
    /// against) or the filter is forced on; `None` is zero-cost — the
    /// pre-mixed event flow is untouched.
    filter: Option<SafetyFilter>,
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
                pred_scratch: Vec::new(),
                recorder: None,
                filter: (cfg.safety_filter || cfg.mixed.enabled).then(|| SafetyFilter::new(cfg)),
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
                .is_none_or(|a| a.done || a.entered_at.is_some());
            if !passed {
                break;
            }
            cur += 1;
        }
        self.lane_cursor[lane] = cur;
    }

    /// Same-lane vehicles that crossed this intersection's line before
    /// `v` and have not yet entered the box, written into `out` (cleared
    /// first) — the caller holds the buffer so the per-request check
    /// never allocates.
    fn unentered_predecessors(&self, v: VehicleId, out: &mut Vec<VehicleId>) {
        out.clear();
        let Some(agent) = self.agent(v) else {
            return;
        };
        let lane = agent.movement.approach.index();
        for &u in &self.lane_arrivals[lane][self.lane_cursor[lane]..] {
            if u == v {
                break;
            }
            if self
                .agent(u)
                .is_some_and(|a| !a.done && a.entered_at.is_none())
            {
                out.push(u);
            }
        }
    }

    /// Assigns (or returns the already-assigned) stop position: the box
    /// entry line. Queued vehicles are *virtually* co-located at the line
    /// — the standard traffic abstraction in which a queue creeps forward
    /// as it discharges, so by the time a vehicle is granted a launch its
    /// front is at the stop line. Discharge order and spacing are
    /// enforced separately: launch order by [`queue_blocked`]
    /// (Self::queue_blocked) and per-lane scheduling gates, and entry
    /// spacing by the IM's own occupancy windows/tiles.
    fn assign_stop_target(&mut self, v: VehicleId) -> Meters {
        if let Some(t) = self.agent(v).and_then(|a| a.stop_target) {
            return t;
        }
        let target = self.s_entry;
        let agent = self.agent_mut(v).expect("agent exists");
        agent.stop_target = Some(target);
        target
    }

    /// Time for a standstill launch to cover `d` (zero for `d <= 0`).
    fn cover_time(&self, d: Meters) -> Seconds {
        if d.value() <= 0.0 {
            return Seconds::ZERO;
        }
        let spec = &self.cfg.spec;
        let v = crate::policy::common::reachable_speed(MetersPerSecond::ZERO, spec, d);
        kinematics::accel_cruise(MetersPerSecond::ZERO, v, spec.a_max, d)
            .expect("launch run-up is feasible")
            .total_time
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
            Event::MarkStopped(v, version, _) => self.on_mark_stopped(v, version),
            Event::BoxEntry(v, version, _) => self.on_box_entry(sim.now(), v, version),
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
    }

    // --- Vehicle lifecycle --------------------------------------------------

    /// Starts the V2I protocol with this intersection's IM: fresh state
    /// machine, one two-way clock-sync exchange on its link, and the
    /// `SyncComplete` that leads to the first request. The offset/drift
    /// noise comes from a per-(vehicle, leg) stream split off the root
    /// seed, so a vehicle's clock error is a function of
    /// (seed, vehicle id, leg) alone and survives event reordering.
    fn start_protocol(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        now: TimePoint,
    ) -> (VehicleProtocol, Seconds) {
        let mut protocol = VehicleProtocol::new(v);
        protocol
            .apply(ProtocolEvent::ReachedTransmissionLine, now)
            .expect("fresh machine accepts line crossing");
        let mut vrng = self.rng.stream(clock_stream(v.0, self.im));
        let clock = LocalClock::new(
            Seconds::from_millis(vrng.gen_range(-200.0..200.0)),
            vrng.gen_range(-100.0..100.0),
        );
        let sync = testbed_sync(&clock, now, &mut self.rng);
        // Two frames on the air for the exchange.
        let _ = self.channel.send_uplink(&mut self.rng);
        let _ = self.channel.send_downlink(&mut self.rng);
        sim.schedule_in(
            sync.round_trip + Seconds::from_millis(2.0),
            Event::SyncComplete(v, self.im),
        );
        (protocol, sync.residual())
    }

    fn on_line_crossing(&mut self, sim: &mut Simulation<Event>, index: usize) {
        let arr = self.workload[index];
        let now = sim.now();
        let compliance = self.cfg.mixed.assign(self.cfg.seed, arr.vehicle);
        let joined = if compliance.uses_v2i() {
            self.platoon_try_join(arr.movement, now)
        } else {
            None
        };
        let (protocol, clock_err) = match joined {
            // A follower rides its leader's negotiation: no sync
            // exchange, no radio frames, no RNG draws of its own.
            Some(_) => (follower_protocol(arr.vehicle, now), Seconds::ZERO),
            None if compliance.uses_v2i() => self.start_protocol(sim, arr.vehicle, now),
            // No radio at all: the machine parks in `Sync` so the
            // eventual gap-acceptance commit can `inherit_grant`, exactly
            // like a platoon follower waiting on its leader.
            None => (follower_protocol(arr.vehicle, now), Seconds::ZERO),
        };

        let profile = if compliance.uses_v2i() {
            SpeedProfile::starting_at(now, Meters::ZERO, arr.speed)
        } else {
            // Humans and emergency vehicles brake to the line and cross
            // by gap acceptance instead of negotiating.
            SpeedProfile::stop_at(now, Meters::ZERO, arr.speed, self.s_entry, &self.cfg.spec)
        };
        let free_flow = self.free_flow_time(arr.movement, arr.speed);
        self.lane_arrivals[arr.movement.approach.index()].push(arr.vehicle);
        self.insert_agent(
            arr.vehicle,
            Agent {
                movement: arr.movement,
                line_at: now,
                first_line_at: now,
                profile,
                protocol,
                clock_err,
                plan_version: 0,
                stopped: false,
                accepted: false,
                entered_at: None,
                done: false,
                free_flow,
                trip_free_flow: Seconds::ZERO,
                trip_requests: 0,
                trip_rejections: 0,
                last_proposal: None,
                stop_target: None,
                im_seen_attempt: None,
                platoon: None,
                compliance,
                fault_rng: (compliance == Compliance::Faulty)
                    .then(|| MixedConfig::exec_rng(self.cfg.seed, arr.vehicle)),
            },
        );
        if let Some(leader) = joined {
            self.platoon_attach(sim, arr.vehicle, leader);
        }
        if compliance.uses_v2i() {
            self.schedule_guard(sim, arr.vehicle);
        } else {
            self.begin_gap_acceptance(sim, arr.vehicle);
        }
    }

    fn free_flow_time(
        &self,
        movement: crossroads_intersection::Movement,
        speed: MetersPerSecond,
    ) -> Seconds {
        let total = self.s_exit(movement);
        let v_reach = crate::policy::common::reachable_speed(speed, &self.cfg.spec, total);
        kinematics::accel_cruise(speed, v_reach, self.cfg.spec.a_max, total)
            .expect("free-flow profile is feasible")
            .total_time
    }

    /// Corridor handoff: the vehicle reaches the next intersection's
    /// transmission line. Everything leg-scoped resets — protocol, clock
    /// sync, profile (position re-origined at the new line), stop state,
    /// IM watermark — and the plan version bumps so every event of the
    /// previous leg dies on its guard.
    fn on_link_arrival(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        // Vehicles settle to the corridor cruise speed on the link — the
        // same speed the standard workload builders use at entry, so each
        // leg starts from the state the policies were tuned for.
        let speed = self.cfg.typical_line_speed();
        let (movement, compliance) = {
            let Some(agent) = self.agent(v) else {
                return;
            };
            (agent.movement, agent.compliance)
        };
        let joined = if compliance.uses_v2i() {
            self.platoon_try_join(movement, now)
        } else {
            None
        };
        let (protocol, clock_err) = match joined {
            Some(_) => (follower_protocol(v, now), Seconds::ZERO),
            None if compliance.uses_v2i() => self.start_protocol(sim, v, now),
            None => (follower_protocol(v, now), Seconds::ZERO),
        };
        let free_flow = self.free_flow_time(movement, speed);
        let profile = if compliance.uses_v2i() {
            SpeedProfile::starting_at(now, Meters::ZERO, speed)
        } else {
            SpeedProfile::stop_at(now, Meters::ZERO, speed, self.s_entry, &self.cfg.spec)
        };
        self.lane_arrivals[movement.approach.index()].push(v);
        let agent = self.agent_mut(v).expect("agent exists");
        agent.line_at = now;
        agent.profile = profile;
        agent.protocol = protocol;
        agent.clock_err = clock_err;
        agent.plan_version += 1;
        agent.stopped = false;
        agent.accepted = false;
        agent.entered_at = None;
        agent.done = false;
        agent.free_flow = free_flow;
        agent.last_proposal = None;
        agent.stop_target = None;
        agent.im_seen_attempt = None;
        agent.platoon = None;
        self.handoffs += 1;
        if let Some(leader) = joined {
            self.platoon_attach(sim, v, leader);
        }
        if compliance.uses_v2i() {
            self.schedule_guard(sim, v);
        } else {
            self.begin_gap_acceptance(sim, v);
        }
    }

    /// Parks a non-V2I vehicle (human or emergency) in the approach
    /// queue: claims the stop slot, arms the stopped marker for its brake
    /// profile, and starts the gap-acceptance polling loop.
    fn begin_gap_acceptance(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        self.assign_stop_target(v);
        self.bump_unaccepted_plan(sim, v);
        sim.schedule_in(self.cfg.mixed.gap_poll, Event::ComplianceCheck(v, self.im));
    }

    fn on_sync_complete(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        let im = self.im;
        let Some(agent) = self.agent_mut(v) else {
            return;
        };
        agent
            .protocol
            .apply(ProtocolEvent::SyncCompleted, now)
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
    fn queue_blocked(&self, v: VehicleId, preds: &mut Vec<VehicleId>) -> bool {
        if self.cfg.mixed.enabled {
            // A human or emergency vehicle ahead in the lane is invisible
            // to the IM — no policy can sequence a launch around it — so
            // any unentered non-V2I predecessor holds the request under
            // every policy, including Crossroads' scheduled discharge.
            self.unentered_predecessors(v, preds);
            if preds
                .iter()
                .any(|&u| self.agent(u).is_some_and(|a| !a.compliance.uses_v2i()))
            {
                return true;
            }
        }
        match self.cfg.policy {
            crate::policy::PolicyKind::Crossroads => false,
            crate::policy::PolicyKind::VtIm => {
                self.unentered_predecessors(v, preds);
                preds
                    .iter()
                    .any(|&u| self.agent(u).is_some_and(|a| a.stop_target.is_some()))
            }
            crate::policy::PolicyKind::Aim => {
                // Stop-sign-style discharge (Dresner & Stone; Fok et al.):
                // once a vehicle has come to rest it engages the IM only
                // after every leader has entered the box — queues drain
                // one launch at a time. Cruising vehicles merely defer to
                // leaders that are queued or still unscheduled, so moving
                // platoons at low flow are unaffected.
                self.unentered_predecessors(v, preds);
                if preds.is_empty() {
                    false
                } else if self.agent(v).is_some_and(|a| a.stopped) {
                    true
                } else {
                    preds.iter().any(|&u| {
                        self.agent(u)
                            .is_some_and(|a| a.stop_target.is_some() || !a.accepted)
                    })
                }
            }
        }
    }

    fn on_send_request(&mut self, sim: &mut Simulation<Event>, v: VehicleId, attempt: u32) {
        let now = sim.now();
        let Some(agent) = self.agent(v) else {
            return;
        };
        self.advance_lane_cursor(agent.movement.approach.index());
        let mut preds = std::mem::take(&mut self.pred_scratch);
        let blocked = self.queue_blocked(v, &mut preds);
        self.pred_scratch = preds;
        if blocked {
            // Hold the request until the lane ahead clears; poll at a
            // human-scale cadence rather than spamming the radio.
            let still_relevant = self.agent(v).is_some_and(|a| {
                !a.done
                    && !a.accepted
                    && a.protocol.state() == (ProtocolState::Request { attempts: attempt })
            });
            if still_relevant {
                sim.schedule_in(
                    Seconds::from_millis(200.0),
                    Event::SendRequest(v, attempt, self.im),
                );
            }
            return;
        }
        let (req, timeout) = {
            let Some(agent) = self.agent(v) else {
                return;
            };
            if agent.done || agent.accepted {
                return;
            }
            if agent.protocol.state() != (ProtocolState::Request { attempts: attempt }) {
                return; // stale send for a superseded attempt
            }
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
        if let Some(toa) = req.proposed_arrival {
            let agent = self.agent_mut(v).expect("agent exists");
            agent.last_proposal = Some((toa, req.speed, req.stopped));
        }
        if req.platoon_followers > 0 {
            // Snapshot what this uplink asked for: the grant that answers
            // it covers exactly this many followers, spaced by the offset
            // this stopped-flag selects. (The downlink guard pins the
            // acted-on response to the *latest* attempt, so the snapshot
            // is always the one the grant answers.)
            if let Some(PlatoonRole::Leader(l)) =
                &mut self.agent_mut(v).expect("agent exists").platoon
            {
                l.sent = req.platoon_followers;
                l.sent_stopped = req.stopped;
            }
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
        let now = sim.now();
        let im = self.im;
        let Some(agent) = self.agent_mut(v) else {
            return;
        };
        if agent.done || agent.accepted {
            return;
        }
        if agent.protocol.state() != (ProtocolState::Request { attempts: attempt }) {
            return;
        }
        agent
            .protocol
            .apply(ProtocolEvent::TimedOut, now)
            .expect("timeout applies in Request state");
        sim.schedule_in(Seconds::ZERO, Event::SendRequest(v, attempt + 1, im));
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
        // booked (their vehicles will execute them regardless), expired
        // bookkeeping is dropped.
        self.policy.on_restart(now);
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
        {
            let Some(agent) = self.agent(v) else {
                return;
            };
            if agent.done || agent.accepted {
                return;
            }
            // Only the response to the *current* attempt may be acted on:
            // a slower response to a superseded request would desynchronize
            // the executed plan from the IM's ledger (which has since been
            // re-simulated from the newer request).
            if agent.protocol.state() != (ProtocolState::Request { attempts: attempt }) {
                return;
            }
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
                return self.stale_response(sim, v, now);
            }
        }
        match cmd {
            CrossingCommand::VtTarget { target_speed, .. } => {
                if target_speed.value() > 0.0 {
                    self.accept_vt(sim, v, target_speed, now);
                } else {
                    // Escalate the re-request interval with consecutive
                    // denials: a vehicle parked behind a busy box gains
                    // nothing from polling the IM at round-trip rate.
                    let denials = self.agent(v).map_or(0, |a| a.protocol.total_rejections());
                    let factor = f64::from((1 + denials).min(6));
                    self.reject_and_stop(
                        sim,
                        v,
                        now,
                        self.cfg.buffers.rtd.retransmit_timeout() * factor,
                    );
                }
            }
            CrossingCommand::Crossroads {
                execute_at,
                arrival,
                target_speed,
                stop_first,
            } => {
                self.accept_crossroads(sim, v, execute_at, arrival, target_speed, stop_first, now);
            }
            CrossingCommand::AimAccept { arrival } => self.accept_aim(sim, v, arrival, now),
            CrossingCommand::AimReject => self.reject_aim(sim, v, now),
        }
        // The agent was not `accepted` on entry (early return above), so
        // `accepted` now means *this* command was acted on: the vehicle
        // committed its crossing trajectory.
        if self.agent(v).is_some_and(|a| a.accepted) {
            self.rec(
                sim,
                v.0,
                attempt,
                TraceEvent::Actuation {
                    verdict: verdict_of(&cmd),
                },
            );
        }
    }

    fn accept_vt(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        target: MetersPerSecond,
        now: TimePoint,
    ) {
        let spec = self.cfg.spec;
        // VT booked follower span by the *request's* stopped flag (the
        // PlatoonShape contract), so spacing keys on the same.
        let spacing = if self.platoon_sent_stopped(v) {
            FollowerSpacing::Launch
        } else {
            FollowerSpacing::Cruise(target)
        };
        let (s_now, v_now) = {
            let agent = self.agent(v).expect("agent exists");
            (agent.profile.position_at(now), agent.profile.speed_at(now))
        };
        let profile = SpeedProfile::vt_response(now, s_now, v_now, target, &spec);
        let Some(profile) = self.filter_admit(sim, v, profile, now) else {
            return;
        };
        let agent = self.agent_mut(v).expect("agent exists");
        agent
            .protocol
            .apply(ProtocolEvent::ResponseAccepted, now)
            .expect("accept applies in Request state");
        agent.profile = profile;
        agent.accepted = true;
        agent.stopped = false;
        self.schedule_crossing_events(sim, v);
        self.grant_followers(sim, v, now, spacing);
    }

    #[allow(clippy::too_many_arguments)]
    fn accept_crossroads(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        t_e: TimePoint,
        arrival: TimePoint,
        target: MetersPerSecond,
        stop_first: bool,
        now: TimePoint,
    ) {
        let spec = self.cfg.spec;
        let s_entry = self.s_entry;
        let agent = self.agent_mut(v).expect("agent exists");
        let s_now = agent.profile.position_at(now);
        let v_now = agent.profile.speed_at(now);

        let profile = if agent.stopped {
            // Waiting in the queue: a pure launch command. The launch
            // instant is `execute_at`; the run-up covers the setback so
            // the box entry lands at `arrival`.
            let cover = self.cover_time(s_entry - s_now);
            if t_e < now || (t_e + cover - arrival).abs() > Seconds::from_millis(50.0) {
                return self.stale_response(sim, v, now);
            }
            let mut p = SpeedProfile::starting_at(now, s_now, MetersPerSecond::ZERO);
            p.push_hold(t_e - now);
            p.push_speed_change(spec.v_max, spec.a_max);
            p
        } else if stop_first {
            if now > t_e {
                return self.stale_response(sim, v, now);
            }
            // Brake into the physical queue, wait, and launch so the box
            // entry lands at `arrival`.
            let target = self.assign_stop_target(v);
            let mut p = SpeedProfile::starting_at(now, s_now, v_now);
            p.push_hold(t_e - now);
            let d_avail = target - p.final_position();
            let d_brake = kinematics::stopping_distance(v_now, spec.d_max);
            if d_avail > d_brake {
                p.push_hold((d_avail - d_brake) / v_now);
            }
            p.push_speed_change(MetersPerSecond::ZERO, spec.d_max);
            if p.final_position() > s_entry + Meters::new(1e-6) {
                return self.stale_response(sim, v, now);
            }
            let cover = {
                let d = s_entry - p.final_position();
                if d.value() <= 0.0 {
                    Seconds::ZERO
                } else {
                    let ve =
                        crate::policy::common::reachable_speed(MetersPerSecond::ZERO, &spec, d);
                    kinematics::accel_cruise(MetersPerSecond::ZERO, ve, spec.a_max, d)
                        .expect("launch run-up is feasible")
                        .total_time
                }
            };
            let launch = arrival - cover;
            if p.end_time() > launch {
                return self.stale_response(sim, v, now);
            }
            p.push_hold(launch - p.end_time());
            p.push_speed_change(spec.v_max, spec.a_max);
            p
        } else {
            if now > t_e {
                return self.stale_response(sim, v, now);
            }
            match SpeedProfile::crossroads_response(
                now, s_now, v_now, t_e, arrival, s_entry, target, &spec,
            ) {
                Ok(p) => p,
                Err(_) => return self.stale_response(sim, v, now),
            }
        };

        let Some(profile) = self.filter_admit(sim, v, profile, now) else {
            return;
        };
        let agent = self.agent_mut(v).expect("agent exists");
        agent
            .protocol
            .apply(ProtocolEvent::ResponseAccepted, now)
            .expect("accept applies in Request state");
        agent.profile = profile;
        agent.accepted = true;
        agent.stopped = false;
        self.schedule_crossing_events(sim, v);
        // Crossroads may answer a moving platoon with stop-and-go, in
        // which case the scheduler booked *launch* span — spacing keys on
        // the command, not the request.
        let spacing = if stop_first {
            FollowerSpacing::Launch
        } else {
            FollowerSpacing::Cruise(target)
        };
        self.grant_followers(sim, v, now, spacing);
    }

    fn accept_aim(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        arrival: TimePoint,
        now: TimePoint,
    ) {
        let spec = self.cfg.spec;
        let s_entry = self.s_entry;
        let (s_now, v_now, last_proposal, stopped) = {
            let agent = self.agent(v).expect("agent exists");
            (
                agent.profile.position_at(now),
                agent.profile.speed_at(now),
                agent.last_proposal,
                agent.stopped,
            )
        };
        // Validate against the proposal this grant answers: if the vehicle
        // has braked, stopped or re-proposed since, the IM simulated the
        // wrong trajectory — discard and re-request.
        let Some((toa_prop, v_prop, was_stopped)) = last_proposal else {
            return self.stale_response(sim, v, now);
        };
        if (arrival - toa_prop).abs() > Seconds::from_millis(1.0) || was_stopped != stopped {
            return self.stale_response(sim, v, now);
        }
        let profile = if stopped {
            let cover = self.cover_time(s_entry - s_now);
            let launch = arrival - cover;
            if launch < now {
                // The grant's launch instant already passed in transit —
                // AIM's equivalent of a missed execute-at deadline.
                self.counters.deadline_misses += 1;
                let attempt = self.current_attempt(v);
                self.rec(sim, v.0, attempt, TraceEvent::DeadlineMiss);
                return self.stale_response(sim, v, now);
            }
            let mut p = SpeedProfile::starting_at(now, s_now, MetersPerSecond::ZERO);
            p.push_hold(launch - now);
            p.push_speed_change(spec.v_max, spec.a_max);
            p
        } else {
            // The grant assumed a constant-speed approach; verify we still
            // are where the proposal said we would be.
            if (v_now - v_prop).abs() > MetersPerSecond::new(0.02) || v_now.value() <= 1e-6 {
                return self.stale_response(sim, v, now);
            }
            let predicted_entry = now + (s_entry - s_now) / v_now;
            if (predicted_entry - arrival).abs() > Seconds::from_millis(30.0) {
                return self.stale_response(sim, v, now);
            }
            // Hold the proposed speed through the box.
            SpeedProfile::starting_at(now, s_now, v_now)
        };
        let Some(profile) = self.filter_admit(sim, v, profile, now) else {
            return;
        };
        let agent = self.agent_mut(v).expect("agent exists");
        agent
            .protocol
            .apply(ProtocolEvent::ResponseAccepted, now)
            .expect("accept applies in Request state");
        agent.profile = profile;
        agent.accepted = true;
        agent.stopped = false;
        self.schedule_crossing_events(sim, v);
        // AIM's tile intervals were extended by the entry mode the
        // proposal implied: launch span for a standstill proposal, cruise
        // span at the proposed speed otherwise.
        let spacing = if was_stopped {
            FollowerSpacing::Launch
        } else {
            FollowerSpacing::Cruise(v_prop)
        };
        self.grant_followers(sim, v, now, spacing);
    }

    fn reject_aim(&mut self, sim: &mut Simulation<Event>, v: VehicleId, now: TimePoint) {
        let retry = self.cfg.aim_retry_interval;
        let slowdown = self.cfg.aim_slowdown_factor;
        let spec = self.cfg.spec;
        let s_entry = self.s_entry;
        let im = self.im;
        let agent = self.agent_mut(v).expect("agent exists");
        agent
            .protocol
            .apply(ProtocolEvent::ResponseRejected, now)
            .expect("reject applies in Request state");
        let attempts = match agent.protocol.state() {
            ProtocolState::Request { attempts } => attempts,
            _ => unreachable!("rejection keeps the machine in Request"),
        };
        if !agent.stopped {
            let s_now = agent.profile.position_at(now);
            let v_now = agent.profile.speed_at(now);
            let v_new = v_now * slowdown;
            let room = s_entry - s_now;
            let needs_stop = v_new < spec.v_max * 0.15
                || room <= kinematics::stopping_distance(v_now, spec.d_max) + GUARD_MARGIN;
            if needs_stop {
                let target = self.assign_stop_target(v);
                let agent = self.agent_mut(v).expect("agent exists");
                agent.profile = SpeedProfile::stop_at(now, s_now, v_now, target, &spec);
                self.bump_unaccepted_plan(sim, v);
            } else {
                let agent = self.agent_mut(v).expect("agent exists");
                agent.profile = SpeedProfile::vt_response(now, s_now, v_now, v_new, &spec);
                self.bump_unaccepted_plan(sim, v);
            }
        }
        sim.schedule_in(retry, Event::SendRequest(v, attempts, im));
    }

    /// A VT "stop" command, or any stale/invalid acceptance: brake toward
    /// the line and re-request after `retry`.
    fn reject_and_stop(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        now: TimePoint,
        retry: Seconds,
    ) {
        let spec = self.cfg.spec;
        let im = self.im;
        let agent = self.agent_mut(v).expect("agent exists");
        agent
            .protocol
            .apply(ProtocolEvent::ResponseRejected, now)
            .expect("reject applies in Request state");
        let attempts = match agent.protocol.state() {
            ProtocolState::Request { attempts } => attempts,
            _ => unreachable!("rejection keeps the machine in Request"),
        };
        if !agent.stopped {
            let s_now = agent.profile.position_at(now);
            let v_now = agent.profile.speed_at(now);
            if v_now.value() > 0.0 {
                let target = self.assign_stop_target(v);
                let agent = self.agent_mut(v).expect("agent exists");
                agent.profile = SpeedProfile::stop_at(now, s_now, v_now, target, &spec);
                self.counters.fallback_stops += 1;
                self.rec(sim, v.0, attempts, TraceEvent::FallbackStop);
                self.bump_unaccepted_plan(sim, v);
            }
        }
        sim.schedule_in(retry, Event::SendRequest(v, attempts, im));
    }

    fn stale_response(&mut self, sim: &mut Simulation<Event>, v: VehicleId, now: TimePoint) {
        // Every discard lands here: deadline misses and superseded-state
        // grants alike. The vehicle treats the response as never received
        // (beyond noting it must re-request promptly).
        self.counters.late_discards += 1;
        self.reject_and_stop(sim, v, now, Seconds::from_millis(50.0));
    }

    // --- Mixed traffic and the runtime safety filter -------------------------

    /// Vehicle-side actuation hook, run on every granted downlink before
    /// the vehicle commits: first applies a faulty vehicle's bounded
    /// execution error, producing the profile it will *actually* trace;
    /// then (with the filter armed) checks the resulting crossing
    /// envelope against the registry and vetoes the grant into the safe
    /// stop-at-line + re-request fallback when it conflicts. Returns the
    /// (possibly perturbed) profile to execute, or `None` on a veto.
    ///
    /// A managed candidate is only tested against non-compliant
    /// envelopes — managed-managed separation is the policy's own
    /// invariant, and second-guessing it would perturb fully-compliant
    /// runs (see `sim/filter.rs`).
    fn filter_admit(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        profile: SpeedProfile,
        now: TimePoint,
    ) -> Option<SpeedProfile> {
        let profile = self.faulty_execution(v, profile);
        let vetoed = match self.filter.as_ref() {
            Some(f) if f.vetoes() => {
                let cand = self.crossing_envelope(v, &profile, now);
                let agent = self.agent(v).expect("agent exists");
                f.first_conflict(&cand, agent.compliance.noncompliant())
                    .is_some()
            }
            _ => false,
        };
        if vetoed {
            self.counters.filter_interventions += 1;
            self.counters.noncompliant_conflicts += 1;
            self.reject_and_stop(sim, v, now, Seconds::from_millis(50.0));
            return None;
        }
        Some(profile)
    }

    /// Degrades a granted profile into what a faulty vehicle actually
    /// executes: one launch-timing slip plus a mis-tracked speed target,
    /// both drawn from the vehicle's private noise stream (so the error
    /// sequence is a pure function of `(seed, vehicle)`). Identity for
    /// every other compliance mode and whenever mixed traffic is off —
    /// on that path no randomness is drawn.
    fn faulty_execution(&mut self, v: VehicleId, profile: SpeedProfile) -> SpeedProfile {
        if !self.cfg.mixed.enabled {
            return profile;
        }
        let mixed = self.cfg.mixed;
        let v_max = self.cfg.spec.v_max;
        let Some(agent) = self.agent_mut(v) else {
            return profile;
        };
        if agent.compliance != Compliance::Faulty {
            return profile;
        }
        let rng = agent
            .fault_rng
            .as_mut()
            .expect("faulty vehicle owns a noise stream");
        let delay = if mixed.timing_error > Seconds::ZERO {
            Seconds::new(rng.gen_range(0.0..mixed.timing_error.value()))
        } else {
            Seconds::ZERO
        };
        let factor = if mixed.speed_error > 0.0 {
            rng.gen_range(1.0 - mixed.speed_error..1.0 + mixed.speed_error)
        } else {
            1.0
        };
        // Replay the granted phases with the execution error: the launch
        // slips by `delay` once, and every commanded speed change lands
        // on the mis-tracked target (clamped to the platform envelope)
        // at the commanded rate.
        let start = profile.start_time();
        let mut q =
            SpeedProfile::starting_at(start, profile.position_at(start), profile.speed_at(start));
        q.push_hold(delay);
        for ph in profile.phases() {
            if ph.accel == MetersPerSecondSquared::ZERO {
                q.push_hold(ph.duration);
            } else {
                let target = (ph.exit_speed() * factor).min(v_max);
                q.push_speed_change(target, ph.accel.abs());
            }
        }
        q
    }

    /// The physical box occupancy `v` would trace if it executed
    /// `profile`: the same entry/exit probes `schedule_crossing_events`
    /// uses, so the filter judges exactly the window the audit will
    /// later replay.
    fn crossing_envelope(
        &self,
        v: VehicleId,
        profile: &SpeedProfile,
        now: TimePoint,
    ) -> BoxOccupancy {
        let agent = self.agent(v).expect("agent exists");
        let s_exit = self.s_exit(agent.movement);
        let entered = profile
            .time_at_position(self.s_entry + Meters::new(1e-3))
            .unwrap_or(now);
        let exited = profile.time_at_position(s_exit).unwrap_or(now);
        BoxOccupancy {
            vehicle: v,
            movement: agent.movement,
            entered: entered.max(now),
            exited: exited.max(now),
            profile: profile.clone(),
            line_offset: self.s_entry,
        }
    }

    /// A waiting non-V2I vehicle re-checks the intersection. Humans cross
    /// by gap acceptance: front of the queue, at rest, and a padded
    /// crossing envelope that conflicts with nothing committed.
    /// Emergency vehicles preempt: conflicting grants whose vehicles can
    /// still stop are flushed back to the line, then the siren crosses.
    fn on_compliance_check(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        let poll = self.cfg.mixed.gap_poll;
        let im = self.im;
        let Some(agent) = self.agent(v) else {
            return;
        };
        if agent.done || agent.accepted {
            return;
        }
        let compliance = agent.compliance;
        let lane = agent.movement.approach.index();
        if !agent.stopped {
            // Still braking toward the line: check back once parked.
            sim.schedule_in(poll, Event::ComplianceCheck(v, im));
            return;
        }
        // Queue discipline: even a human waits out the cars ahead of it.
        self.advance_lane_cursor(lane);
        let mut preds = std::mem::take(&mut self.pred_scratch);
        self.unentered_predecessors(v, &mut preds);
        let blocked = !preds.is_empty();
        self.pred_scratch = preds;
        if blocked {
            sim.schedule_in(poll, Event::ComplianceCheck(v, im));
            return;
        }
        // The crossing it would commit to: a standstill launch from the
        // line, padded by the gap-acceptance caution margin on both
        // sides before asking "is the box observably clear for me".
        let spec = self.cfg.spec;
        let s_now = self
            .agent(v)
            .expect("agent exists")
            .profile
            .position_at(now);
        let mut p = SpeedProfile::starting_at(now, s_now, MetersPerSecond::ZERO);
        p.push_speed_change(spec.v_max, spec.a_max);
        let margin = self.cfg.mixed.gap_margin;
        let mut cand = self.crossing_envelope(v, &p, now);
        cand.entered -= margin;
        cand.exited += margin;
        match compliance {
            Compliance::Human => {
                let clear = self
                    .filter
                    .as_ref()
                    .is_none_or(|f| f.first_conflict(&cand, true).is_none());
                if clear {
                    self.commit_gap_crossing(sim, v, p);
                } else {
                    sim.schedule_in(poll, Event::ComplianceCheck(v, im));
                }
            }
            Compliance::Emergency => self.emergency_preempt(sim, v, p, &cand),
            // A managed/faulty vehicle never schedules this event.
            Compliance::Managed | Compliance::Faulty => {}
        }
    }

    /// Installs a committed gap-acceptance crossing: the parked `Sync`
    /// machine inherits a grant (the same transition a platoon follower
    /// uses), the launch profile replaces the wait, and the crossing
    /// envelope registers like any other commitment.
    fn commit_gap_crossing(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        profile: SpeedProfile,
    ) {
        let now = sim.now();
        let agent = self.agent_mut(v).expect("agent exists");
        agent
            .protocol
            .inherit_grant(now)
            .expect("gap-acceptance machine waits in Sync");
        agent.profile = profile;
        agent.accepted = true;
        agent.stopped = false;
        self.schedule_crossing_events(sim, v);
    }

    /// Emergency preemption: partition the conflicting commitments into
    /// overridable (granted, not yet entered, still able to stop, and
    /// reachable over V2I) and hard (already inside the box, another
    /// non-V2I vehicle, or past its braking point). All overridable →
    /// flush each back to the safe stop + re-request fallback and cross;
    /// any hard conflict → re-check on a tight siren cadence.
    fn emergency_preempt(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        profile: SpeedProfile,
        cand: &BoxOccupancy,
    ) {
        let now = sim.now();
        let mut conflicts = Vec::new();
        self.filter
            .as_ref()
            .expect("mixed traffic maintains the registry")
            .conflicts_into(cand, &mut conflicts);
        let spec = self.cfg.spec;
        let mut overridable = Vec::new();
        let mut hard = false;
        for &u in &conflicts {
            let stoppable = self.agent(u).is_some_and(|a| {
                a.accepted
                    && a.entered_at.is_none()
                    && !a.done
                    && a.compliance.uses_v2i()
                    && a.platoon.is_none()
                    && !self.columns.iter().any(|c| c.members.contains(&u))
                    && self.s_entry - a.profile.position_at(now)
                        > kinematics::stopping_distance(a.profile.speed_at(now), spec.d_max)
                            + GUARD_MARGIN
            });
            if stoppable {
                overridable.push(u);
            } else {
                hard = true;
            }
        }
        if hard {
            sim.schedule_in(
                Seconds::from_millis(100.0),
                Event::ComplianceCheck(v, self.im),
            );
            return;
        }
        for u in overridable {
            self.override_grant(sim, u, now);
        }
        self.counters.emergency_preemptions += 1;
        self.commit_gap_crossing(sim, v, profile);
    }

    /// Flushes one granted-but-unentered vehicle back to the safe
    /// stop-at-line + re-request fallback (emergency preemption).
    /// Mirrors `platoon_detach`'s fresh-protocol pattern: bank the old
    /// machine's tallies, restart negotiation from sync, and bump the
    /// plan version so every event of the overridden trajectory dies on
    /// its guard. The IM's orphaned reservation is replaced when the
    /// fresh request lands (or expires via prune).
    fn override_grant(&mut self, sim: &mut Simulation<Event>, u: VehicleId, now: TimePoint) {
        let (protocol, clock_err) = self.start_protocol(sim, u, now);
        let spec = self.cfg.spec;
        let target = self.assign_stop_target(u);
        let agent = self.agent_mut(u).expect("agent exists");
        agent.trip_requests += agent.protocol.total_requests();
        agent.trip_rejections += agent.protocol.total_rejections();
        agent.protocol = protocol;
        agent.clock_err = clock_err;
        agent.accepted = false;
        agent.last_proposal = None;
        agent.im_seen_attempt = None;
        let s_now = agent.profile.position_at(now);
        let v_now = agent.profile.speed_at(now);
        if v_now.value() > 0.0 {
            agent.profile = SpeedProfile::stop_at(now, s_now, v_now, target, &spec);
            agent.stopped = false;
        } else {
            agent.profile = SpeedProfile::starting_at(now, s_now, MetersPerSecond::ZERO);
            agent.stopped = true;
        }
        self.counters.filter_interventions += 1;
        self.counters.fallback_stops += 1;
        self.bump_unaccepted_plan(sim, u);
        if let Some(f) = self.filter.as_mut() {
            f.remove(u);
        }
    }

    // --- Platooning ----------------------------------------------------------

    /// Front-to-front spacing between successive platoon members, in
    /// vehicle lengths (the same value the leader's uplink reports and
    /// the policies book span from).
    fn platoon_gap(&self) -> Meters {
        self.cfg.spec.length * self.cfg.platoon.gap_lengths
    }

    /// Whether `v` leads a platoon whose in-flight request reported it
    /// stopped — the flag the policy's span booking keyed on.
    fn platoon_sent_stopped(&self, v: VehicleId) -> bool {
        matches!(
            self.agent(v).and_then(|a| a.platoon.as_ref()),
            Some(PlatoonRole::Leader(l)) if l.sent_stopped
        )
    }

    /// Platoon formation at the transmission line: if the vehicle
    /// immediately ahead in this lane belongs to a platoon still
    /// negotiating the same movement with this IM, the new arrival
    /// joins it as a follower. Returns the leader to follow, or `None`
    /// to run the per-vehicle protocol (always `None` with platooning
    /// disabled — that path costs one branch and touches nothing).
    fn platoon_try_join(
        &self,
        movement: crossroads_intersection::Movement,
        now: TimePoint,
    ) -> Option<VehicleId> {
        let p = &self.cfg.platoon;
        if !p.enabled {
            return None;
        }
        let &pred = self.lane_arrivals[movement.approach.index()].last()?;
        let pred_agent = self.agent(pred)?;
        // The headway gate is against the column's tail — the vehicle
        // physically ahead — not the leader. A non-V2I tail (human or
        // emergency vehicle) never platoons: it has no radio to
        // negotiate through.
        if now - pred_agent.line_at > p.headway || !pred_agent.compliance.uses_v2i() {
            return None;
        }
        let leader = match pred_agent.platoon {
            Some(PlatoonRole::Follower { leader }) => leader,
            _ => pred,
        };
        let lead_agent = self.agent(leader)?;
        // Joinable only while the leader still negotiates: once its grant
        // is issued (or it reached the box) the booked span cannot cover
        // another member.
        if lead_agent.movement != movement
            || lead_agent.done
            || lead_agent.accepted
            || lead_agent.entered_at.is_some()
        {
            return None;
        }
        let size = match &lead_agent.platoon {
            Some(PlatoonRole::Leader(l)) => 1 + l.followers.len(),
            // A dissolving chain (its members detaching): don't re-join.
            Some(PlatoonRole::Follower { .. }) => return None,
            None => 1,
        };
        (size < p.max_size as usize).then_some(leader)
    }

    /// Enrols `v` (already seated, role `None`) as a follower of `leader`
    /// and arms its fallback deadline: if the inherited grant has not
    /// arrived by then — e.g. the IM crashed mid-platoon — the follower
    /// detaches and negotiates alone.
    fn platoon_attach(&mut self, sim: &mut Simulation<Event>, v: VehicleId, leader: VehicleId) {
        self.agent_mut(v).expect("agent exists").platoon = Some(PlatoonRole::Follower { leader });
        let mut formed = false;
        let lead_agent = self.agent_mut(leader).expect("leader exists");
        match &mut lead_agent.platoon {
            Some(PlatoonRole::Leader(l)) => l.followers.push(v),
            Some(PlatoonRole::Follower { .. }) => {
                unreachable!("join resolves to the platoon leader")
            }
            slot @ None => {
                *slot = Some(PlatoonRole::Leader(PlatoonLead {
                    followers: vec![v],
                    sent: 0,
                    sent_stopped: false,
                }));
                formed = true;
            }
        }
        if formed {
            self.counters.platoons_formed += 1;
        }
        self.counters.platoon_followers += 1;
        // Refresh an in-flight ask so the booked span covers the new
        // member: the leader's current attempt is superseded exactly as a
        // retransmission timeout would supersede it — the old response,
        // if one still arrives, is dropped by the downlink's attempt
        // guard, and the IM replaces the old reservation when it
        // re-simulates the newer request. A leader still syncing or
        // holding for the queue has not uplinked yet; its eventual
        // request already counts this follower.
        let now = sim.now();
        let lead_agent = self.agent_mut(leader).expect("leader exists");
        if let ProtocolState::Request { attempts } = lead_agent.protocol.state() {
            lead_agent
                .protocol
                .apply(ProtocolEvent::TimedOut, now)
                .expect("retransmission applies in Request state");
            sim.schedule_in(
                Seconds::ZERO,
                Event::SendRequest(leader, attempts + 1, self.im),
            );
        }
        sim.schedule_in(
            self.cfg.platoon.fallback_timeout,
            Event::PlatoonTimeout(v, self.im),
        );
    }

    /// Extends the leader's fresh grant to its platoon: follower `i`
    /// inherits the slot at `T_0 + (i+1)·Δ`, where `T_0` is the leader's
    /// box-entry instant from its accepted profile and `Δ` the spacing
    /// offset matching the span the policy booked. Followers the grant
    /// does not cover (joined after the last uplink) and followers whose
    /// inherited slot is unreachable detach to the per-vehicle protocol.
    /// The platoon dissolves either way.
    fn grant_followers(
        &mut self,
        sim: &mut Simulation<Event>,
        leader: VehicleId,
        now: TimePoint,
        spacing: FollowerSpacing,
    ) {
        if self.agent(leader).is_none_or(|a| a.platoon.is_none()) {
            return;
        }
        let Some(PlatoonRole::Leader(lead)) =
            self.agent_mut(leader).expect("agent exists").platoon.take()
        else {
            return;
        };
        let spec = self.cfg.spec;
        let shape = crate::policy::PlatoonShape {
            followers: lead.sent,
            gap: self.platoon_gap(),
        };
        let offset = match spacing {
            FollowerSpacing::Launch => shape.launch_offset(&spec),
            FollowerSpacing::Cruise(v) => shape.cruise_offset(v),
        };
        let t0 = self
            .agent(leader)
            .expect("agent exists")
            .profile
            .time_at_position(self.s_entry + Meters::new(1e-3))
            .unwrap_or(now);
        let mut t_i = t0;
        let mut members = vec![leader];
        for (i, &f) in lead.followers.iter().enumerate() {
            if i >= lead.sent as usize {
                // Joined after the leader's last uplink: the booked span
                // does not cover this follower.
                self.platoon_detach(sim, f, now);
                continue;
            }
            t_i += offset;
            if self.grant_follower(sim, f, t_i, spacing, now) {
                members.push(f);
            }
        }
        if members.len() > 1 {
            // The column shares the leader's reservation; the IM frees it
            // on the *last* member's exit notice, not the leader's.
            self.columns.push(PlatoonColumn {
                leader,
                members: members.clone(),
                remaining: members,
            });
        }
    }

    /// IM-side receipt of a vehicle's exit notification. A vehicle that
    /// crossed solo releases its own reservation; a platoon member only
    /// drains the column ledger, and the shared reservation is released
    /// when the last member reports out. Duplicate notices from a column
    /// member are swallowed — the slot belongs to the column, not the
    /// vehicle. A *lost* notice leaves the column undrained and the
    /// reservation expires via prune, the same conservative degradation
    /// as a lost solo notice.
    fn on_exit_notice(&mut self, v: VehicleId, now: TimePoint) {
        if let Some(ix) = self.columns.iter().position(|c| c.members.contains(&v)) {
            let col = &mut self.columns[ix];
            if let Some(r) = col.remaining.iter().position(|&u| u == v) {
                col.remaining.swap_remove(r);
                if col.remaining.is_empty() {
                    let leader = col.leader;
                    self.columns.swap_remove(ix);
                    self.policy.on_exit(leader, now);
                }
            }
            return;
        }
        self.policy.on_exit(v, now);
    }

    /// Installs one follower's inherited slot: entry at `t_i`, either a
    /// timed standstill launch (column discharging from rest) or a shaped
    /// approach reaching the entry line at the cruise speed. Detaches the
    /// follower instead when its physical state does not match the
    /// spacing mode the span was booked under — a stopped follower on a
    /// cruise-spaced grant (or a rolling one on a launch-spaced grant)
    /// would enter closer behind its predecessor than the booked offset
    /// guarantees — or when the slot is unreachable from its current
    /// state.
    fn grant_follower(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        t_i: TimePoint,
        spacing: FollowerSpacing,
        now: TimePoint,
    ) -> bool {
        let spec = self.cfg.spec;
        let s_entry = self.s_entry;
        let Some(agent) = self.agent(v) else {
            return false;
        };
        if agent.done || agent.accepted {
            return false;
        }
        let s_f = agent.profile.position_at(now);
        let v_f = agent.profile.speed_at(now);
        let at_rest = v_f.value() <= 1e-9;
        let detach = |world: &mut Self, sim: &mut Simulation<Event>| {
            world.platoon_detach(sim, v, now);
            false
        };
        let profile = match spacing {
            FollowerSpacing::Launch if at_rest => {
                // At rest: a timed launch like the leader's stop-and-go —
                // hold, then run up so the front crosses the line at
                // `t_i`, exactly one launch offset behind its predecessor.
                let cover = self.cover_time(s_entry - s_f);
                let launch = t_i - cover;
                if launch < now {
                    return detach(self, sim);
                }
                let mut p = SpeedProfile::starting_at(now, s_f, MetersPerSecond::ZERO);
                p.push_hold(launch - now);
                p.push_speed_change(spec.v_max, spec.a_max);
                p
            }
            FollowerSpacing::Cruise(entry_speed) if !at_rest => {
                match SpeedProfile::crossroads_response(
                    now,
                    s_f,
                    v_f,
                    now,
                    t_i,
                    s_entry,
                    entry_speed,
                    &spec,
                ) {
                    Ok(p) => p,
                    Err(_) => return detach(self, sim),
                }
            }
            // Kinematic mode diverged from the booked spacing (the
            // follower stopped under a cruise grant, or is still rolling
            // under a launch grant): the inherited offset no longer
            // bounds its separation — per-vehicle fallback.
            _ => return detach(self, sim),
        };
        // Inherited grants pass the same actuation monitor as direct
        // ones; a vetoed follower detaches to the per-vehicle protocol
        // (its own request then re-derives a safe window).
        let profile = self.faulty_execution(v, profile);
        let vetoed = match self.filter.as_ref() {
            Some(f) if f.vetoes() => {
                let cand = self.crossing_envelope(v, &profile, now);
                let agent = self.agent(v).expect("agent exists");
                f.first_conflict(&cand, agent.compliance.noncompliant())
                    .is_some()
            }
            _ => false,
        };
        if vetoed {
            self.counters.filter_interventions += 1;
            self.counters.noncompliant_conflicts += 1;
            return detach(self, sim);
        }
        let agent = self.agent_mut(v).expect("agent exists");
        if agent.protocol.inherit_grant(now).is_err() {
            return detach(self, sim);
        }
        agent.profile = profile;
        agent.accepted = true;
        agent.stopped = false;
        agent.platoon = None;
        self.counters.platoon_grants += 1;
        self.schedule_crossing_events(sim, v);
        true
    }

    /// Severs `v` from its platoon and falls back to the per-vehicle
    /// protocol — fresh sync exchange, own request: exactly the path it
    /// would have taken had it never joined (the degradation mode the
    /// fault experiments measure).
    fn platoon_detach(&mut self, sim: &mut Simulation<Event>, v: VehicleId, now: TimePoint) {
        let Some(agent) = self.agent(v) else {
            return;
        };
        if agent.done || agent.accepted {
            return;
        }
        let (protocol, clock_err) = self.start_protocol(sim, v, now);
        let agent = self.agent_mut(v).expect("agent exists");
        agent.platoon = None;
        agent.protocol = protocol;
        agent.clock_err = clock_err;
        self.counters.platoon_fallbacks += 1;
    }

    /// The follower's fallback deadline fired. If it is still waiting on
    /// its leader's grant — the negotiation stalled, typically because
    /// the IM crashed mid-platoon — it leaves the platoon and negotiates
    /// alone. It comes off the leader's roster first, so a late grant
    /// cannot race the fresh protocol's sync window (where the machine
    /// briefly sits in `Sync` again and would accept an inherit).
    fn on_platoon_timeout(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        let Some(agent) = self.agent(v) else {
            return;
        };
        if agent.done || agent.accepted {
            return;
        }
        let leader = match &agent.platoon {
            Some(PlatoonRole::Follower { leader }) => *leader,
            _ => return,
        };
        // A healthy negotiation that is merely queue-blocked is not a
        // stall: a live IM always answers the leader eventually (the
        // liveness the closed-loop tests pin), and detaching would
        // forfeit the amortization exactly where it pays most — deep
        // queues. Only a dead IM process counts as stalled; while it is
        // down the grant can never come, so the follower leaves now.
        let leader_negotiating = self.agent(leader).is_some_and(|a| !a.done && !a.accepted);
        if leader_negotiating && !self.im_down {
            sim.schedule_in(
                self.cfg.platoon.fallback_timeout,
                Event::PlatoonTimeout(v, self.im),
            );
            return;
        }
        if let Some(PlatoonRole::Leader(l)) =
            self.agent_mut(leader).and_then(|a| a.platoon.as_mut())
        {
            l.followers.retain(|&u| u != v);
        }
        self.platoon_detach(sim, v, now);
    }

    // --- Plan bookkeeping ----------------------------------------------------

    /// Installs the (already stored) unaccepted profile: bumps the version,
    /// arms the stop guard or the stopped marker.
    fn bump_unaccepted_plan(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let (version, final_speed, end_time) = {
            let agent = self.agent_mut(v).expect("agent exists");
            agent.plan_version += 1;
            (
                agent.plan_version,
                agent.profile.final_speed(),
                agent.profile.end_time(),
            )
        };
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
        let spec = self.cfg.spec;
        let s_entry = self.s_entry;
        let Some(agent) = self.agent(v) else {
            return;
        };
        if agent.accepted || agent.done {
            return;
        }
        let v_f = agent.profile.final_speed();
        if v_f.value() <= 0.0 {
            return; // already braking to a stop
        }
        let s_brake = s_entry - kinematics::stopping_distance(v_f, spec.d_max) - GUARD_MARGIN;
        let version = agent.plan_version;
        match agent.profile.time_at_position(s_brake) {
            Some(t) => {
                sim.schedule(t.max(now), Event::StopGuard(v, version, self.im));
            }
            None => {
                // The profile never reaches the brake point (it stops
                // earlier); nothing to guard.
            }
        }
    }

    fn on_stop_guard(&mut self, sim: &mut Simulation<Event>, v: VehicleId, version: u32) {
        let now = sim.now();
        let spec = self.cfg.spec;
        let Some(agent) = self.agent_mut(v) else {
            return;
        };
        if agent.done || agent.accepted || agent.plan_version != version {
            return;
        }
        let s_now = agent.profile.position_at(now);
        let v_now = agent.profile.speed_at(now);
        if v_now.value() <= 0.0 {
            return;
        }
        let target = self.assign_stop_target(v);
        let agent = self.agent_mut(v).expect("agent exists");
        agent.profile = SpeedProfile::stop_at(now, s_now, v_now, target, &spec);
        self.counters.fallback_stops += 1;
        let attempt = self.current_attempt(v);
        self.rec(sim, v.0, attempt, TraceEvent::FallbackStop);
        self.bump_unaccepted_plan(sim, v);
    }

    fn on_mark_stopped(&mut self, v: VehicleId, version: u32) {
        let Some(agent) = self.agent_mut(v) else {
            return;
        };
        if agent.done || agent.accepted || agent.plan_version != version {
            return;
        }
        agent.stopped = true;
    }

    /// Schedules box entry/exit from the accepted profile.
    ///
    /// "Entry" is the first *moving* crossing of the entry plane: a
    /// stop-and-go vehicle parks with its bumper exactly on the plane, so
    /// we probe a millimeter past it — the parked wait does not count as
    /// being inside the box.
    fn schedule_crossing_events(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        let s_entry = self.s_entry;
        let geometry = self.cfg.geometry;
        let length = self.cfg.spec.length;
        let (version, entry_t, exit_t) = {
            let agent = self.agent_mut(v).expect("agent exists");
            agent.plan_version += 1;
            let s_exit = s_entry + geometry.path_length(agent.movement) + length;
            // A grant can land after a slight overshoot of the line (a
            // stop command arriving inside braking distance): the vehicle
            // is then effectively entering as it launches — clamp to now.
            let entry = agent
                .profile
                .time_at_position(s_entry + Meters::new(1e-3))
                .unwrap_or(now);
            let exit = agent.profile.time_at_position(s_exit).unwrap_or(now);
            (agent.plan_version, entry, exit)
        };
        sim.schedule(entry_t.max(now), Event::BoxEntry(v, version, self.im));
        sim.schedule(exit_t.max(now), Event::BoxExit(v, version, self.im));
        // Every committed crossing — granted, inherited, or gap-accepted —
        // funnels through here, so this is the single registration point
        // of the runtime monitor's envelope registry.
        if self.filter.is_some() {
            let agent = self.agent(v).expect("agent exists");
            let occ = BoxOccupancy {
                vehicle: v,
                movement: agent.movement,
                entered: entry_t.max(now),
                exited: exit_t.max(now),
                profile: agent.profile.clone(),
                line_offset: s_entry,
            };
            let noncompliant = agent.compliance.noncompliant();
            if let Some(f) = self.filter.as_mut() {
                f.register(occ, noncompliant, now);
            }
        }
    }

    fn on_box_entry(&mut self, now: TimePoint, v: VehicleId, version: u32) {
        let Some(agent) = self.agent_mut(v) else {
            return;
        };
        if agent.done || agent.plan_version != version {
            return;
        }
        if agent.entered_at.is_none() {
            agent.entered_at = Some(now);
        }
        // Entering the box vacates the approach: clear the queue slot so
        // followers' blocked checks release.
        agent.stop_target = None;
    }

    fn on_box_exit(&mut self, sim: &mut Simulation<Event>, v: VehicleId, version: u32) {
        let now = sim.now();
        let line_offset = self.s_entry;
        let occupancy = {
            let Some(agent) = self.agent_mut(v) else {
                return;
            };
            if agent.done || agent.plan_version != version {
                return;
            }
            agent
                .protocol
                .apply(ProtocolEvent::CrossedIntersection, now)
                .expect("exit applies in Follow state");
            agent.done = true;
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
                // Handoff: bank this leg's protocol tallies and free-flow
                // time (plus the link traversal), and leave the lane
                // through the outbox to ride the link to the next
                // intersection's transmission line.
                let mut agent = self.take_agent(v).expect("agent exists");
                agent.trip_requests += agent.protocol.total_requests();
                agent.trip_rejections += agent.protocol.total_rejections();
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
                let agent = self.agent(v).expect("agent exists");
                let record = VehicleRecord {
                    vehicle: v,
                    line_at: agent.first_line_at,
                    cleared_at: now,
                    free_flow: agent.trip_free_flow + agent.free_flow,
                    requests_sent: agent.trip_requests + agent.protocol.total_requests(),
                    rejections: agent.trip_rejections + agent.protocol.total_rejections(),
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

    /// An agent already past sync, in `Request { attempts: 1 }` — the
    /// state an IM-side uplink test needs.
    fn requesting_agent(movement: Movement) -> Agent {
        let mut protocol = VehicleProtocol::new(VehicleId(0));
        protocol
            .apply(ProtocolEvent::ReachedTransmissionLine, TimePoint::ZERO)
            .unwrap();
        protocol
            .apply(ProtocolEvent::SyncCompleted, TimePoint::ZERO)
            .unwrap();
        Agent {
            movement,
            line_at: TimePoint::ZERO,
            first_line_at: TimePoint::ZERO,
            profile: SpeedProfile::starting_at(
                TimePoint::ZERO,
                Meters::ZERO,
                MetersPerSecond::new(1.5),
            ),
            protocol,
            clock_err: Seconds::ZERO,
            plan_version: 0,
            stopped: false,
            accepted: false,
            entered_at: None,
            done: false,
            free_flow: Seconds::new(10.0),
            trip_free_flow: Seconds::ZERO,
            trip_requests: 0,
            trip_rejections: 0,
            last_proposal: None,
            stop_target: None,
            im_seen_attempt: None,
            platoon: None,
            compliance: Compliance::Managed,
            fault_rng: None,
        }
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
        world.insert_agent(VehicleId(0), requesting_agent(movement));
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
        world.insert_agent(VehicleId(0), requesting_agent(movement));
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
}
