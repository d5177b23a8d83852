//! Mixed traffic at one intersection: the actuation check every grant
//! passes before its vehicle commits (a faulty vehicle's execution error,
//! then the runtime safety filter's veto), gap acceptance for vehicles
//! without V2I, and emergency preemption with the grant override it
//! uses. With mixed traffic off no vehicle is non-compliant, no filter
//! exists, and the actuation check returns every profile unchanged
//! without drawing randomness.

use crossroads_des::Simulation;
use crossroads_prng::Rng;
use crossroads_traffic::Compliance;
use crossroads_units::kinematics;
use crossroads_units::{MetersPerSecond, MetersPerSecondSquared, Seconds, TimePoint};
use crossroads_vehicle::{ProtocolState, SpeedProfile, VehicleId};

use super::{Wait, World, GUARD_MARGIN};
use crate::sim::event::Event;
use crate::sim::safety::BoxOccupancy;

impl World<'_> {
    /// The vehicle-side actuation check every grant passes before the
    /// vehicle commits, a direct one and a platoon follower's inherited
    /// one alike: first a faulty vehicle's bounded execution error,
    /// producing the profile it will *actually* trace; then (with the
    /// filter armed) the resulting crossing envelope against the registry.
    /// Returns the (possibly perturbed) profile to execute, or `None` on a
    /// veto, counted here; the caller picks the fallback.
    ///
    /// A managed candidate is only tested against non-compliant
    /// envelopes — managed-managed separation is the policy's own
    /// invariant, and second-guessing it would perturb fully-compliant
    /// runs (see `sim/filter.rs`).
    pub(super) fn actuation_check(
        &mut self,
        v: VehicleId,
        profile: SpeedProfile,
        now: TimePoint,
    ) -> Option<SpeedProfile> {
        let profile = self.faulty_execution(v, profile);
        let vetoed = match self.filter.as_ref() {
            Some(f) if f.vetoes() => {
                let cand = self.crossing_envelope(v, &profile, now);
                let check_all = self.expect_agent(v).compliance.noncompliant();
                f.first_conflict(&cand, check_all).is_some()
            }
            _ => false,
        };
        if vetoed {
            self.counters.filter_interventions += 1;
            self.counters.noncompliant_conflicts += 1;
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
        let agent = self.expect_agent_mut(v);
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
    /// `profile`: the same entry/exit probe a committed crossing is
    /// scheduled by, so the filter judges exactly the window the audit
    /// will later replay.
    fn crossing_envelope(
        &self,
        v: VehicleId,
        profile: &SpeedProfile,
        now: TimePoint,
    ) -> BoxOccupancy {
        let movement = self.expect_agent(v).movement;
        let (entered, exited) = self.box_window(movement, profile, now);
        BoxOccupancy {
            vehicle: v,
            movement,
            entered,
            exited,
            profile: profile.clone(),
            line_offset: self.s_entry,
        }
    }

    /// Parks a non-V2I vehicle (human or emergency) in the approach
    /// queue: claims the stop slot, arms the stopped marker for its brake
    /// profile, and starts the gap-acceptance polling loop.
    pub(super) fn begin_gap_acceptance(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        self.expect_agent_mut(v).queued = true;
        self.bump_unaccepted_plan(sim, v);
        sim.schedule_in(self.cfg.mixed.gap_poll, Event::ComplianceCheck(v, self.im));
    }

    /// A waiting non-V2I vehicle re-checks the intersection. Humans cross
    /// by gap acceptance: front of the queue, at rest, and a padded
    /// crossing envelope that conflicts with nothing committed. The
    /// committed crossing inherits a grant in the parked `Sync` machine,
    /// as a platoon follower does. Emergency vehicles preempt:
    /// conflicting grants whose vehicles can still stop are flushed back
    /// to the line, then the siren crosses.
    pub(super) fn on_compliance_check(&mut self, sim: &mut Simulation<Event>, v: VehicleId) {
        let now = sim.now();
        let (poll, im) = (self.cfg.mixed.gap_poll, self.im);
        let Some(agent) = self.agent(v) else {
            return;
        };
        if agent.committed() {
            return;
        }
        let compliance = agent.compliance;
        let (lane, s_now) = (
            agent.movement.approach.index(),
            agent.profile.position_at(now),
        );
        // Still braking toward the line, or not yet at its queue's front:
        // park until the lane wakes it on the gap-poll tick after the
        // change that frees it.
        self.advance_lane_cursor(lane);
        if self.gap_blocked(v, lane) {
            self.park(now, v, lane, Wait::Gap);
            return;
        }
        // The crossing it would commit to: a standstill launch from the
        // line, padded by the gap-acceptance caution margin on both
        // sides before asking "is the box observably clear for me".
        let spec = self.cfg.spec;
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
                    self.commit_grant(sim, v, p);
                } else {
                    sim.schedule_in(poll, Event::ComplianceCheck(v, im));
                }
            }
            Compliance::Emergency => self.emergency_preempt(sim, v, p, &cand),
            // A managed/faulty vehicle never schedules this event.
            Compliance::Managed | Compliance::Faulty => {}
        }
    }

    /// Emergency preemption: partition the conflicting commitments into
    /// overridable (granted, not yet entered, still able to stop, and
    /// reachable over V2I outside any platoon column) and hard (already
    /// inside the box, another non-V2I vehicle, or past its braking
    /// point). All overridable → flush each back to the safe stop +
    /// re-request fallback and cross; any hard conflict → re-check on a
    /// tight siren cadence.
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
                a.protocol.state() == ProtocolState::Follow
                    && a.entered_at.is_none()
                    && a.compliance.uses_v2i()
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
        self.commit_grant(sim, v, profile);
    }

    /// Flushes one granted-but-unentered vehicle back to the safe
    /// stop-at-line + re-request fallback (emergency preemption).
    /// Mirrors `platoon_detach`: the negotiation restarts from sync, and
    /// the plan version bumps so every event of the overridden
    /// trajectory dies on its guard. The IM's orphaned reservation is
    /// replaced when the fresh request lands (or expires via prune).
    fn override_grant(&mut self, sim: &mut Simulation<Event>, u: VehicleId, now: TimePoint) {
        self.start_protocol(sim, u, now);
        let agent = self.expect_agent_mut(u);
        let (s_now, v_now) = (agent.profile.position_at(now), agent.profile.speed_at(now));
        if v_now.value() > 0.0 {
            self.brake_to_line(u, now);
        } else {
            agent.queued = true;
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
}
