//! Platoon-based admission (PAIM, arXiv 1809.06956) at one
//! intersection: a vehicle joins the platoon ahead at the transmission
//! line, only the leader negotiates, its grant extends to the followers
//! at booked offsets, and the IM frees the shared reservation when the
//! last member's exit notice lands. A follower the grant cannot carry
//! detaches to the per-vehicle protocol. With platooning disabled
//! `platoon_try_join` returns `None` and nothing here runs.

use crossroads_des::Simulation;
use crossroads_units::{Meters, MetersPerSecond, TimePoint};
use crossroads_vehicle::{ProtocolState, SpeedProfile, VehicleId};

use super::{Agent, World};
use crate::request::CrossingCommand;
use crate::sim::event::Event;

/// A vehicle's role in an undissolved platoon (PAIM-style admission:
/// one uplink, one decision, one downlink for the whole column).
pub(super) enum PlatoonRole {
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
pub(super) struct PlatoonLead {
    /// Followers in lane order (join order equals line-crossing order).
    pub(super) followers: Vec<VehicleId>,
    /// Follower count the in-flight request reported. The IM booked span
    /// for exactly this many, so the grant covers exactly this many;
    /// later joiners detach when it lands.
    pub(super) sent: u32,
    /// Whether that request reported the leader stopped — selects the
    /// launch-vs-cruise follower offset, mirroring the span the policy
    /// booked (the [`PlatoonShape`](crate::policy::PlatoonShape)
    /// contract).
    pub(super) sent_stopped: bool,
}

/// One platoon crossing on a single reservation, tracked IM-side so the
/// slot is freed when the *column* clears the box, not when its leader
/// does. `members` stays immutable (it also classifies duplicate exit
/// notices); `remaining` drains as notices land.
pub(super) struct PlatoonColumn {
    leader: VehicleId,
    pub(super) members: Vec<VehicleId>,
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

impl World<'_> {
    /// Front-to-front spacing between successive platoon members, in
    /// vehicle lengths (the same value the leader's uplink reports and
    /// the policies book span from).
    pub(super) fn platoon_gap(&self) -> Meters {
        self.cfg.spec.length * self.cfg.platoon.gap_lengths
    }

    /// Platoon formation at the transmission line: if the vehicle
    /// immediately ahead in this lane belongs to a platoon still
    /// negotiating the same movement with this IM, the new arrival
    /// joins it as a follower. Returns the leader to follow, or `None`
    /// to run the per-vehicle protocol (always `None` with platooning
    /// disabled — that path costs one branch and touches nothing).
    pub(super) fn platoon_try_join(
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
            || lead_agent.committed()
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
    pub(super) fn platoon_attach(
        &mut self,
        sim: &mut Simulation<Event>,
        v: VehicleId,
        leader: VehicleId,
    ) {
        self.expect_agent_mut(v).platoon = Some(PlatoonRole::Follower { leader });
        let role = &mut self.expect_agent_mut(leader).platoon;
        let formed = role.is_none();
        match role {
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
            }
        }
        self.counters.platoons_formed += u64::from(formed);
        self.counters.platoon_followers += 1;
        // Refresh an in-flight ask so the booked span covers the new
        // member: the IM replaces the old reservation when it
        // re-simulates the newer request. A leader still syncing or
        // holding for the queue has not uplinked yet; its eventual
        // request already counts this follower.
        self.supersede_request(sim, leader);
        sim.schedule_in(
            self.cfg.platoon.fallback_timeout,
            Event::PlatoonTimeout(v, self.im),
        );
    }

    /// Extends a leader's fresh grant to its platoon: follower `i`
    /// inherits the slot at `T_0 + (i+1)·Δ`, where `T_0` is the leader's
    /// box-entry instant from its accepted profile and `Δ` the spacing
    /// offset matching the span the policy booked for `cmd`. `role` is
    /// what the leader held when its grant committed; anything but a
    /// `Leader` has no one to extend to. Followers the grant does not
    /// cover (joined after the last uplink) and followers whose
    /// inherited slot is unreachable detach to the per-vehicle protocol.
    /// The platoon dissolves either way.
    pub(super) fn grant_followers(
        &mut self,
        sim: &mut Simulation<Event>,
        leader: VehicleId,
        role: Option<PlatoonRole>,
        cmd: CrossingCommand,
        now: TimePoint,
    ) {
        let Some(PlatoonRole::Leader(lead)) = role else {
            return;
        };
        // The booked span follows the PlatoonShape contract: VT books by
        // the request's stopped flag; Crossroads may answer a moving
        // platoon with stop-and-go, booking launch span, so it keys on
        // the command; AIM extends its tile intervals by the entry mode
        // the proposal implied.
        let spacing = match cmd {
            CrossingCommand::VtTarget { target_speed, .. } if !lead.sent_stopped => {
                FollowerSpacing::Cruise(target_speed)
            }
            CrossingCommand::Crossroads {
                stop_first: false,
                target_speed,
                ..
            } => FollowerSpacing::Cruise(target_speed),
            CrossingCommand::AimAccept { .. } => match self.expect_agent(leader).last_proposal {
                Some((_, v_prop, false)) => FollowerSpacing::Cruise(v_prop),
                _ => FollowerSpacing::Launch,
            },
            _ => FollowerSpacing::Launch,
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
        let mut t_i = self.entry_time(&self.expect_agent(leader).profile, now);
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
    pub(super) fn on_exit_notice(&mut self, v: VehicleId, now: TimePoint) {
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
        let Some(agent) = self.agent(v) else {
            return false;
        };
        if agent.committed() {
            return false;
        }
        let (s_f, v_f) = (agent.profile.position_at(now), agent.profile.speed_at(now));
        let at_rest = v_f.value() <= 1e-9;
        let profile = match spacing {
            // At rest: a timed launch like the leader's stop-and-go —
            // hold, then run up so the front crosses the line at `t_i`,
            // exactly one launch offset behind its predecessor.
            FollowerSpacing::Launch if at_rest => {
                let rest = SpeedProfile::starting_at(now, s_f, MetersPerSecond::ZERO);
                self.launch_into(rest, t_i)
            }
            FollowerSpacing::Cruise(entry_speed) if !at_rest => SpeedProfile::crossroads_response(
                now,
                s_f,
                v_f,
                now,
                t_i,
                self.s_entry,
                entry_speed,
                &self.cfg.spec,
            )
            .ok(),
            // Kinematic mode diverged from the booked spacing (the
            // follower stopped under a cruise grant, or is still rolling
            // under a launch grant): the inherited offset no longer
            // bounds its separation — per-vehicle fallback.
            _ => None,
        };
        // Inherited grants pass the same actuation check as direct ones;
        // a vetoed follower detaches to the per-vehicle protocol (its own
        // request then re-derives a safe window), as does one whose
        // machine has left `Sync`, where no grant can be inherited.
        match profile.and_then(|p| self.actuation_check(v, p, now)) {
            Some(p) if self.expect_agent(v).protocol.state() == ProtocolState::Sync => {
                self.counters.platoon_grants += 1;
                self.commit_grant(sim, v, p);
                true
            }
            _ => {
                self.platoon_detach(sim, v, now);
                false
            }
        }
    }

    /// Severs `v` from its platoon and falls back to the per-vehicle
    /// protocol — fresh sync exchange, own request: exactly the path it
    /// would have taken had it never joined (the degradation mode the
    /// fault experiments measure).
    fn platoon_detach(&mut self, sim: &mut Simulation<Event>, v: VehicleId, now: TimePoint) {
        if self.agent(v).is_none_or(Agent::committed) {
            return;
        }
        self.expect_agent_mut(v).platoon = None;
        self.start_protocol(sim, v, now);
        self.counters.platoon_fallbacks += 1;
    }

    /// The follower's fallback deadline fired. If it is still waiting on
    /// its leader's grant — the negotiation stalled, typically because
    /// the IM crashed mid-platoon — it leaves the platoon and negotiates
    /// alone. It comes off the leader's roster first, so a late grant
    /// cannot race the fresh protocol's sync window (where the machine
    /// briefly sits in `Sync` again and would accept an inherit).
    pub(super) fn on_platoon_timeout(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        let Some(agent) = self.agent(v) else {
            return;
        };
        let leader = match agent.platoon {
            Some(PlatoonRole::Follower { leader }) if !agent.committed() => leader,
            _ => return,
        };
        // A healthy negotiation that is merely queue-blocked is not a
        // stall: a live IM always answers the leader eventually (the
        // liveness the closed-loop tests pin), and detaching would
        // forfeit the amortization exactly where it pays most — deep
        // queues. Only a dead IM process counts as stalled; while it is
        // down the grant can never come, so the follower leaves now.
        let leader_negotiating = self.agent(leader).is_some_and(|a| !a.committed());
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
}
