//! Longitudinal speed profiles and the paper's trajectory constructions.
//!
//! A [`SpeedProfile`] is a piecewise-constant-acceleration description of a
//! vehicle's motion along its path: a sequence of [`Phase`]s, each holding a
//! start time, duration, entry speed and acceleration. After the last phase
//! the vehicle is modelled as continuing at the final speed (the paper's
//! "maintain until exit").
//!
//! Position is measured as *distance travelled along the path* from the
//! profile's origin (for approach profiles, the transmission line), so a
//! vehicle `D_T` meters from the intersection reaches it at
//! `position == D_T`.
//!
//! The three IM policies all build their command profiles here:
//!
//! - VT-IM ([`SpeedProfile::vt_response`]): change speed to `V_T` *the
//!   moment the response arrives* — whenever that is — then cruise.
//! - Crossroads ([`SpeedProfile::crossroads_response`]): hold the current
//!   speed until the fixed actuation instant `T_E`, then change to `V_T`
//!   and cruise so the intersection line is reached exactly at `ToA`
//!   (Fig. 6.2).
//! - The safe-stop fallback ([`SpeedProfile::stop_at`]) used when no response
//!   arrives before the safe stopping distance (Algorithm 2/6/8's
//!   "slow down to stop" clause).

use crossroads_units::kinematics::{self, AccelCruise, ProfileError};
use crossroads_units::{Meters, MetersPerSecond, MetersPerSecondSquared, Seconds, TimePoint};

use crate::spec::VehicleSpec;

/// One constant-acceleration segment of a [`SpeedProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Absolute start time of this phase.
    pub start: TimePoint,
    /// Phase length; non-negative.
    pub duration: Seconds,
    /// Speed at phase entry.
    pub v0: MetersPerSecond,
    /// Constant acceleration over the phase (signed).
    pub accel: MetersPerSecondSquared,
    /// Path position at phase entry (distance travelled from origin).
    pub s0: Meters,
}

impl Phase {
    /// Speed `dt` into the phase (clamped to the phase duration).
    ///
    /// Profiles are forward-only by construction, but recomputing the exit
    /// speed as `v0 + accel * duration` can round a ulp below zero on a
    /// brake-to-stop phase; clamp so callers never observe a negative speed.
    #[must_use]
    pub fn speed_after(&self, dt: Seconds) -> MetersPerSecond {
        let dt = dt.clamp(Seconds::ZERO, self.duration);
        (self.v0 + self.accel * dt).max(MetersPerSecond::ZERO)
    }

    /// Position `dt` into the phase (clamped to the phase duration).
    #[must_use]
    pub fn position_after(&self, dt: Seconds) -> Meters {
        let dt = dt.clamp(Seconds::ZERO, self.duration);
        self.s0 + kinematics::distance_covered(self.v0, self.accel, dt)
    }

    /// Speed at phase exit.
    #[must_use]
    pub fn exit_speed(&self) -> MetersPerSecond {
        self.speed_after(self.duration)
    }

    /// Position at phase exit.
    #[must_use]
    pub fn exit_position(&self) -> Meters {
        self.position_after(self.duration)
    }
}

/// Why a trajectory could not be planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The requested arrival is earlier than the earliest achievable
    /// (`ToA < EToA`).
    ArrivalTooEarly,
    /// The requested arrival is so late the vehicle would need to stop;
    /// the caller should plan an explicit stop-and-go instead.
    ArrivalTooLate,
    /// Inputs were non-finite, negative where forbidden, or otherwise
    /// outside the documented domain.
    InvalidInput,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ArrivalTooEarly => {
                write!(f, "requested arrival precedes earliest achievable arrival")
            }
            PlanError::ArrivalTooLate => {
                write!(f, "requested arrival requires stopping; plan a stop phase")
            }
            PlanError::InvalidInput => write!(f, "invalid trajectory input"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<ProfileError> for PlanError {
    fn from(e: ProfileError) -> Self {
        match e {
            ProfileError::DistanceTooShort => PlanError::ArrivalTooEarly,
            ProfileError::InvalidInput => PlanError::InvalidInput,
        }
    }
}

/// A piecewise-constant-acceleration longitudinal trajectory.
///
/// # Examples
///
/// ```
/// use crossroads_units::{Meters, MetersPerSecond, MetersPerSecondSquared, Seconds, TimePoint};
/// use crossroads_vehicle::SpeedProfile;
///
/// // Hold 1 m/s for 2 s, then accelerate to 3 m/s at 2 m/s².
/// let mut p = SpeedProfile::starting_at(TimePoint::ZERO, Meters::ZERO, MetersPerSecond::new(1.0));
/// p.push_hold(Seconds::new(2.0));
/// p.push_speed_change(MetersPerSecond::new(3.0), MetersPerSecondSquared::new(2.0));
/// assert_eq!(p.speed_at(TimePoint::new(1.0)), MetersPerSecond::new(1.0));
/// assert_eq!(p.speed_at(TimePoint::new(3.0)), MetersPerSecond::new(3.0));
/// assert_eq!(p.position_at(TimePoint::new(2.0)), Meters::new(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedProfile {
    start: TimePoint,
    origin: Meters,
    v_start: MetersPerSecond,
    phases: Vec<Phase>,
}

impl SpeedProfile {
    /// Creates an empty profile anchored at `start`, path position `origin`,
    /// moving at `v_start`.
    ///
    /// # Panics
    ///
    /// Panics if `v_start` is negative or any argument is non-finite.
    #[must_use]
    pub fn starting_at(start: TimePoint, origin: Meters, v_start: MetersPerSecond) -> Self {
        assert!(start.is_finite() && origin.is_finite() && v_start.is_finite());
        assert!(v_start.value() >= 0.0, "speeds are forward-only");
        SpeedProfile {
            start,
            origin,
            v_start,
            phases: Vec::new(),
        }
    }

    /// The profile's anchor time.
    #[must_use]
    pub fn start_time(&self) -> TimePoint {
        self.start
    }

    /// End of the last phase (== start for an empty profile).
    #[must_use]
    pub fn end_time(&self) -> TimePoint {
        self.phases
            .last()
            .map_or(self.start, |p| p.start + p.duration)
    }

    /// Speed after the last phase.
    #[must_use]
    pub fn final_speed(&self) -> MetersPerSecond {
        self.phases.last().map_or(self.v_start, Phase::exit_speed)
    }

    /// Path position at the end of the last phase.
    #[must_use]
    pub fn final_position(&self) -> Meters {
        self.phases.last().map_or(self.origin, Phase::exit_position)
    }

    /// The phases, in time order.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// An upper bound on [`speed_at`](Self::speed_at) over all time: the
    /// start speed (reported before the anchor), every phase's entry and
    /// exit speed (speed is monotone within a constant-acceleration
    /// phase) and the final speed the tail keeps. It is the Lipschitz
    /// constant of [`position_at`](Self::position_at), which conservative
    /// contact searches use to bound how far a vehicle can move between
    /// two instants.
    #[must_use]
    pub fn max_speed(&self) -> MetersPerSecond {
        self.phases
            .iter()
            .fold(self.v_start, |top, p| top.max(p.v0).max(p.exit_speed()))
    }

    /// Appends a constant-speed phase of length `duration`.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite duration.
    pub fn push_hold(&mut self, duration: Seconds) {
        assert!(duration.is_finite() && duration.value() >= 0.0);
        let (start, v0, s0) = (self.end_time(), self.final_speed(), self.final_position());
        self.phases.push(Phase {
            start,
            duration,
            v0,
            accel: MetersPerSecondSquared::ZERO,
            s0,
        });
    }

    /// Appends a constant-acceleration phase that changes speed to
    /// `v_target` at magnitude `|rate|` (the sign is inferred).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero while a speed change is required, or if
    /// `v_target` is negative.
    pub fn push_speed_change(&mut self, v_target: MetersPerSecond, rate: MetersPerSecondSquared) {
        assert!(v_target.value() >= 0.0, "speeds are forward-only");
        let (start, v0, s0) = (self.end_time(), self.final_speed(), self.final_position());
        if v_target == v0 {
            return;
        }
        let duration = kinematics::time_to_reach_speed(v0, v_target, rate);
        let accel = (v_target - v0) / duration;
        self.phases.push(Phase {
            start,
            duration,
            v0,
            accel,
            s0,
        });
    }

    /// Speed at absolute time `t`. Before the anchor the start speed is
    /// reported; after the last phase the final speed persists.
    #[must_use]
    pub fn speed_at(&self, t: TimePoint) -> MetersPerSecond {
        if t <= self.start {
            return self.v_start;
        }
        match self.phase_at(t) {
            Some(p) => p.speed_after(t - p.start),
            None => self.final_speed(),
        }
    }

    /// Path position at absolute time `t`.
    ///
    /// Before the anchor, the position is extrapolated backwards at the
    /// start speed; after the last phase it is extrapolated forwards at the
    /// final speed ("maintain until exit").
    #[must_use]
    pub fn position_at(&self, t: TimePoint) -> Meters {
        if t <= self.start {
            return self.origin + self.v_start * (t - self.start);
        }
        match self.phase_at(t) {
            Some(p) => p.position_after(t - p.start),
            None => self.final_position() + self.final_speed() * (t - self.end_time()),
        }
    }

    /// First time at which the vehicle's path position reaches `s`, or
    /// `None` if it never does (e.g. it stops short).
    #[must_use]
    pub fn time_at_position(&self, s: Meters) -> Option<TimePoint> {
        if s <= self.origin {
            // Reached at or before the anchor; report the anchor unless the
            // vehicle starts at rest behind s.
            if s == self.origin {
                return Some(self.start);
            }
            if self.v_start.value() > 0.0 {
                return Some(self.start + (s - self.origin) / self.v_start);
            }
            return None;
        }
        for p in &self.phases {
            let s_end = p.exit_position();
            if s <= s_end {
                // Solve s0 + v0 dt + a dt²/2 = s on [0, duration]; a
                // parked phase or negative discriminant falls through to
                // the next phase.
                match kinematics::first_time_at_distance(p.v0, p.accel, s - p.s0) {
                    Some(dt) if dt.value() <= p.duration.value() + 1e-9 => {
                        return Some(p.start + dt);
                    }
                    _ => {}
                }
            }
        }
        // Tail extrapolation at final speed.
        let v = self.final_speed();
        if v.value() > 0.0 {
            Some(self.end_time() + (s - self.final_position()) / v)
        } else {
            None
        }
    }

    fn phase_at(&self, t: TimePoint) -> Option<&Phase> {
        // Phases are contiguous; linear scan is fine for the ≤4 phases the
        // planners generate. The window is half-open [start, start+dur):
        // at an exact boundary the *next* phase answers (its `v0`/`s0`
        // are the previous phase's exit values by construction, so the
        // evaluated speed/position are identical — but the half-open scan
        // also skips zero-duration phases and matches the evaluation
        // semantics the analytic kernels assume). Past the last phase the
        // tail extrapolation in the callers takes over.
        self.phases
            .iter()
            .find(|p| t >= p.start && t < p.start + p.duration)
    }

    /// Verifies the profile respects `spec`'s speed and acceleration limits.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated limit.
    pub fn check_limits(&self, spec: &VehicleSpec) -> Result<(), String> {
        let tol = 1e-9;
        for (i, p) in self.phases.iter().enumerate() {
            let a = p.accel.value();
            if a > spec.a_max.value() + tol {
                return Err(format!("phase {i}: accel {a} exceeds a_max {}", spec.a_max));
            }
            if -a > spec.d_max.value() + tol {
                return Err(format!(
                    "phase {i}: decel {} exceeds d_max {}",
                    -a, spec.d_max
                ));
            }
            for v in [p.v0, p.exit_speed()] {
                if v.value() > spec.v_max.value() + tol {
                    return Err(format!("phase {i}: speed {v} exceeds v_max {}", spec.v_max));
                }
                if v.value() < -tol {
                    return Err(format!("phase {i}: negative speed {v}"));
                }
            }
        }
        Ok(())
    }

    // --- The paper's planning constructions --------------------------------

    /// Earliest achievable arrival profile over `distance`: full-throttle to
    /// `v_max` then cruise (Fig. 6.2). Returns the kinematic summary whose
    /// `total_time` is `EToA`.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError::ArrivalTooEarly`] when `distance` is too
    /// short to reach `v_max` (callers may still cross slower).
    pub fn earliest_arrival(
        v_init: MetersPerSecond,
        spec: &VehicleSpec,
        distance: Meters,
    ) -> Result<AccelCruise, PlanError> {
        kinematics::accel_cruise(v_init, spec.v_max, spec.a_max, distance).map_err(Into::into)
    }

    /// VT-IM response execution: at `received` (whenever the response lands,
    /// RTD included) change speed from `v_current` to `v_target` and hold.
    ///
    /// The vehicle is at path position `s_now` when the command arrives —
    /// under VT-IM that position is *uncertain* to the IM, which is exactly
    /// the paper's point.
    #[must_use]
    pub fn vt_response(
        received: TimePoint,
        s_now: Meters,
        v_current: MetersPerSecond,
        v_target: MetersPerSecond,
        spec: &VehicleSpec,
    ) -> SpeedProfile {
        let mut p = SpeedProfile::starting_at(received, s_now, v_current);
        let rate = if v_target >= v_current {
            spec.a_max
        } else {
            spec.d_max
        };
        p.push_speed_change(v_target, rate);
        p
    }

    /// Crossroads response execution (Algorithm 8): hold the current speed
    /// until the commanded actuation time `t_e`, then change to `v_target`
    /// and cruise, reaching the intersection line (path position
    /// `d_t` from the transmission line) at `toa`.
    ///
    /// `now`/`s_now`/`v_current` describe the vehicle when it *transmitted*
    /// (position known to the IM: on the transmission line). The profile is
    /// valid regardless of when the response is received because nothing
    /// changes before `t_e`.
    ///
    /// # Errors
    ///
    /// - [`PlanError::InvalidInput`] if `t_e < now` (actuation in the past)
    ///   or geometry is inconsistent.
    /// - [`PlanError::ArrivalTooEarly`] if even `v_max` cannot make `toa`.
    /// - [`PlanError::ArrivalTooLate`] if meeting `toa` needs a speed below
    ///   the crawl floor (callers plan a stop instead).
    #[allow(clippy::too_many_arguments)] // mirrors the paper's (T_E, ToA, V_T) command tuple
    pub fn crossroads_response(
        now: TimePoint,
        s_now: Meters,
        v_current: MetersPerSecond,
        t_e: TimePoint,
        toa: TimePoint,
        d_t: Meters,
        v_target: MetersPerSecond,
        spec: &VehicleSpec,
    ) -> Result<SpeedProfile, PlanError> {
        if t_e < now || toa < t_e || d_t < s_now {
            return Err(PlanError::InvalidInput);
        }
        let mut p = SpeedProfile::starting_at(now, s_now, v_current);
        p.push_hold(t_e - now);
        let rate = if v_target >= v_current {
            spec.a_max
        } else {
            spec.d_max
        };
        p.push_speed_change(v_target, rate);
        // Cruise until the intersection line.
        let s_after_change = p.final_position();
        if s_after_change > d_t + Meters::new(1e-9) {
            return Err(PlanError::ArrivalTooEarly);
        }
        let remaining = (d_t - s_after_change).max(Meters::ZERO);
        if remaining.value() > 0.0 {
            if v_target.value() <= 0.0 {
                return Err(PlanError::ArrivalTooLate);
            }
            p.push_hold(remaining / v_target);
        }
        // The IM chose (toa, v_target) consistently; verify we hit it.
        let arrive = p.end_time();
        if (arrive - toa).abs() > Seconds::from_millis(1.0) {
            return Err(PlanError::InvalidInput);
        }
        Ok(p)
    }

    /// Plans a stop with the front bumper at path position `s_stop`
    /// (Algorithm 2/6/8's "if distance to intersection <= safe stop
    /// distance, slow down to stop"): hold the current speed until the
    /// latest braking point, then brake at `d_max`.
    ///
    /// If the vehicle is already inside its stopping distance the brake is
    /// applied immediately and the vehicle stops past `s_stop` — callers
    /// should invoke the guard no later than the braking point.
    #[must_use]
    pub fn stop_at(
        now: TimePoint,
        s_now: Meters,
        v_current: MetersPerSecond,
        s_stop: Meters,
        spec: &VehicleSpec,
    ) -> SpeedProfile {
        let mut p = SpeedProfile::starting_at(now, s_now, v_current);
        if v_current.value() <= 0.0 {
            return p; // already stopped
        }
        let d_brake = kinematics::stopping_distance(v_current, spec.d_max);
        let d_avail = s_stop - s_now;
        if d_avail > d_brake {
            p.push_hold((d_avail - d_brake) / v_current);
        }
        p.push_speed_change(MetersPerSecond::ZERO, spec.d_max);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> VehicleSpec {
        VehicleSpec::scale_model()
    }

    fn t(s: f64) -> TimePoint {
        TimePoint::new(s)
    }
    fn m(v: f64) -> Meters {
        Meters::new(v)
    }
    fn mps(v: f64) -> MetersPerSecond {
        MetersPerSecond::new(v)
    }

    #[test]
    fn empty_profile_extends_at_start_speed() {
        let p = SpeedProfile::starting_at(t(1.0), m(0.0), mps(2.0));
        assert_eq!(p.speed_at(t(5.0)), mps(2.0));
        assert_eq!(p.position_at(t(3.0)), m(4.0));
        // Backward extrapolation.
        assert_eq!(p.position_at(t(0.0)), m(-2.0));
    }

    #[test]
    fn hold_then_accelerate_positions() {
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(1.0));
        p.push_hold(Seconds::new(2.0));
        p.push_speed_change(mps(3.0), spec().a_max); // 2 m/s² for 1 s, covers 2 m
        assert_eq!(p.position_at(t(2.0)), m(2.0));
        assert_eq!(p.speed_at(t(2.5)), mps(2.0));
        assert_eq!(p.position_at(t(3.0)), m(4.0));
        assert_eq!(p.final_speed(), mps(3.0));
        // Tail cruise.
        assert_eq!(p.position_at(t(4.0)), m(7.0));
    }

    #[test]
    fn push_speed_change_noop_for_same_speed() {
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(2.0));
        p.push_speed_change(mps(2.0), spec().a_max);
        assert!(p.phases().is_empty());
    }

    #[test]
    fn deceleration_phase_sign_inferred() {
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(3.0));
        p.push_speed_change(mps(1.0), spec().d_max); // 3 m/s² magnitude
        let ph = p.phases()[0];
        assert!(ph.accel.value() < 0.0);
        assert!((ph.duration.value() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.final_speed(), mps(1.0));
    }

    #[test]
    fn time_at_position_within_phases_and_tail() {
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(1.0));
        p.push_hold(Seconds::new(2.0)); // reach s=2 at t=2
        p.push_speed_change(mps(3.0), spec().a_max); // s=4 at t=3
        assert_eq!(p.time_at_position(m(1.0)), Some(t(1.0)));
        let t_mid = p.time_at_position(m(3.0)).unwrap();
        // 2 + (solve 1*dt + 1*dt² = 1) => dt = (−1+√5)/2 ≈ 0.618
        assert!((t_mid.value() - 2.618).abs() < 1e-3);
        // Tail: s=7 at t=4.
        assert_eq!(p.time_at_position(m(7.0)), Some(t(4.0)));
    }

    #[test]
    fn time_at_position_none_when_stopped_short() {
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(3.0));
        p.push_speed_change(mps(0.0), spec().d_max); // stops after 1.5 m
        assert!(p.time_at_position(m(2.0)).is_none());
        assert!(p.time_at_position(m(1.4)).is_some());
    }

    #[test]
    fn time_at_position_exact_stop_point() {
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(3.0));
        p.push_speed_change(mps(0.0), spec().d_max);
        // Stop point = 1.5 m at t = 1.0 s.
        let reach = p.time_at_position(m(1.5)).unwrap();
        assert!((reach.value() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn check_limits_accepts_planner_output() {
        let s = spec();
        let p = SpeedProfile::vt_response(t(0.0), m(0.0), mps(1.0), mps(3.0), &s);
        p.check_limits(&s).unwrap();
    }

    #[test]
    fn check_limits_rejects_overspeed() {
        let s = spec();
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(1.0));
        p.push_speed_change(mps(10.0), s.a_max);
        assert!(p.check_limits(&s).is_err());
    }

    #[test]
    fn check_limits_rejects_overbraking() {
        let s = spec();
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(3.0));
        p.push_speed_change(mps(0.0), MetersPerSecondSquared::new(50.0));
        assert!(p.check_limits(&s).is_err());
    }

    #[test]
    fn earliest_arrival_matches_fig_6_2() {
        // V_init=1, V_max=3, a_max=2, D_E=3: EToA = 1 + 1/3 s.
        let s = spec();
        let e = SpeedProfile::earliest_arrival(mps(1.0), &s, m(3.0)).unwrap();
        assert!((e.total_time.value() - (1.0 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn vt_response_executes_immediately() {
        let s = spec();
        // Received 0.15 s late: speed change begins at the reception time.
        let p = SpeedProfile::vt_response(t(0.15), m(0.3), mps(2.0), mps(3.0), &s);
        assert_eq!(p.speed_at(t(0.15)), mps(2.0));
        assert!(p.speed_at(t(0.65)) == mps(3.0));
        assert_eq!(p.position_at(t(0.15)), m(0.3));
    }

    #[test]
    fn vt_rtd_shifts_position_downstream() {
        // The paper's Fig. 4.1: the same command received later puts the
        // speed change (and hence every subsequent position) elsewhere.
        let s = spec();
        let on_time = SpeedProfile::vt_response(t(0.0), m(0.0), mps(1.0), mps(3.0), &s);
        let delayed = SpeedProfile::vt_response(t(0.15), m(0.15), mps(1.0), mps(3.0), &s);
        let probe = t(2.0);
        let gap = delayed.position_at(probe) - on_time.position_at(probe);
        // Delayed vehicle travelled 0.15 m at 1 m/s instead of accelerating:
        // it ends up *behind* by (3-1) * 0.15 = 0.3 m... minus the 0.15 m
        // head start => 0.15 m behind? Compute: on_time at t=2: accel 1 s
        // (covers 2 m), cruise 1 s (3 m) = 5 m. Delayed: hold to 0.15
        // (0.15 m), accel 1 s (2 m), cruise 0.85 s (2.55 m) = 4.7 m.
        assert!((gap.value() + 0.3).abs() < 1e-9, "gap {gap}");
    }

    #[test]
    fn crossroads_response_is_rtd_invariant() {
        // Fig. 6.1: different RTDs, same trajectory, because actuation is
        // pinned to T_E.
        let s = spec();
        let p = SpeedProfile::crossroads_response(
            t(0.0),
            m(0.0),
            mps(1.0),
            t(0.15),
            t(0.15 + 1.0 + (3.0 - 0.15 - 2.0) / 3.0),
            m(3.0),
            mps(3.0),
            &s,
        )
        .unwrap();
        // The reception time does not appear anywhere in the profile:
        // holding at 1 m/s until exactly T_E = 0.15.
        assert_eq!(p.speed_at(t(0.10)), mps(1.0));
        assert_eq!(p.speed_at(t(0.149)), mps(1.0));
        assert!(p.speed_at(t(1.15)) == mps(3.0));
        let arrival = p.time_at_position(m(3.0)).unwrap();
        assert!((arrival.value() - p.end_time().value()).abs() < 1e-9);
    }

    #[test]
    fn crossroads_response_rejects_past_actuation() {
        let s = spec();
        let e = SpeedProfile::crossroads_response(
            t(1.0),
            m(0.0),
            mps(1.0),
            t(0.5),
            t(3.0),
            m(3.0),
            mps(3.0),
            &s,
        )
        .unwrap_err();
        assert_eq!(e, PlanError::InvalidInput);
    }

    #[test]
    fn crossroads_response_rejects_unreachable_toa() {
        let s = spec();
        // ToA of 0.2 s over 3 m is impossible at 3 m/s max.
        let e = SpeedProfile::crossroads_response(
            t(0.0),
            m(0.0),
            mps(1.0),
            t(0.1),
            t(0.2),
            m(3.0),
            mps(3.0),
            &s,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            PlanError::ArrivalTooEarly | PlanError::InvalidInput
        ));
    }

    #[test]
    fn stop_at_braking_at_once_halts_at_stopping_distance() {
        let s = spec();
        // Stop mark at the current position: the brake starts now.
        let p = SpeedProfile::stop_at(t(0.0), m(0.0), mps(3.0), m(0.0), &s);
        assert_eq!(p.final_speed(), MetersPerSecond::ZERO);
        // v²/2d = 9/6 = 1.5 m.
        assert!((p.final_position().value() - 1.5).abs() < 1e-12);
        // Stays parked afterwards.
        assert_eq!(p.position_at(t(100.0)), p.final_position());
    }

    #[test]
    fn stop_at_halts_exactly_at_target() {
        let s = spec();
        let p = SpeedProfile::stop_at(t(0.0), m(0.0), mps(1.5), m(3.0), &s);
        assert_eq!(p.final_speed(), MetersPerSecond::ZERO);
        assert!((p.final_position().value() - 3.0).abs() < 1e-9);
        // Holds speed first, then brakes: still at 1.5 m/s halfway.
        assert_eq!(p.speed_at(t(1.0)), mps(1.5));
    }

    #[test]
    fn stop_at_inside_braking_distance_brakes_immediately() {
        let s = spec();
        // 3 m/s needs 1.5 m; only 1 m available -> immediate brake,
        // overshooting the mark.
        let p = SpeedProfile::stop_at(t(0.0), m(0.0), mps(3.0), m(1.0), &s);
        assert_eq!(p.final_speed(), MetersPerSecond::ZERO);
        assert!(p.final_position() > m(1.0));
        assert!((p.final_position().value() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn stop_at_when_already_stopped_is_empty() {
        let s = spec();
        let p = SpeedProfile::stop_at(t(0.0), m(2.0), mps(0.0), m(3.0), &s);
        assert!(p.phases().is_empty());
        assert_eq!(p.position_at(t(10.0)), m(2.0));
    }

    #[test]
    fn boundary_time_evaluates_next_phase() {
        // Pins the half-open `phase_at` scan: at the exact boundary
        // between a hold and an acceleration phase, evaluation enters the
        // *next* phase. The observable values are continuous (the next
        // phase's v0/s0 are the previous phase's exit floats), and a
        // zero-duration phase at the boundary is skipped entirely.
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(1.0));
        p.push_hold(Seconds::new(2.0));
        p.push_hold(Seconds::ZERO); // zero-duration phase at the boundary
        p.push_speed_change(mps(3.0), spec().a_max);
        let boundary = t(2.0);
        assert_eq!(p.speed_at(boundary), mps(1.0));
        assert_eq!(p.position_at(boundary), m(2.0));
        // A hair past the boundary the acceleration phase is in effect.
        let just_after = t(2.0 + 1e-9);
        assert!(p.speed_at(just_after) > mps(1.0));
        // At the profile end the tail extrapolation answers with the
        // exact final floats.
        assert_eq!(p.speed_at(p.end_time()), p.final_speed());
        assert_eq!(p.position_at(p.end_time()), p.final_position());
    }

    #[test]
    fn time_at_position_skips_parked_phase_to_relaunch() {
        // Brake to a stop, sit parked (a zero-accel zero-speed phase —
        // the `|a| < 1e-12, v0 <= 0` branch), then relaunch. Positions
        // past the stop point must resolve into the relaunch phase, so
        // the scan has to fall through the parked phase.
        let s = spec();
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(3.0));
        p.push_speed_change(mps(0.0), s.d_max); // stops at 1.5 m, t = 1.0
        p.push_hold(Seconds::new(2.0)); // parked until t = 3.0
        p.push_speed_change(mps(2.0), s.a_max); // relaunch
        let reach = p.time_at_position(m(1.6)).unwrap();
        assert!(
            reach.value() > 3.0,
            "past-stop position must be reached in the relaunch, got {reach}"
        );
        assert!((p.position_at(reach) - m(1.6)).abs().value() < 1e-9);
        // The stop point itself is first reached by the braking phase.
        let stop = p.time_at_position(m(1.5)).unwrap();
        assert!((stop.value() - 1.0).abs() < 1e-6, "got {stop}");
    }

    #[test]
    fn time_at_position_near_stop_point_never_panics() {
        // Regression guard for the negative-discriminant branch: querying
        // a few ulps around the braking phase's exact stop point must
        // return a sane time (the ulp where disc rounds below zero falls
        // through to the parked phase and then the tail).
        let s = spec();
        let mut p = SpeedProfile::starting_at(t(0.0), m(0.0), mps(3.0));
        p.push_speed_change(mps(0.0), s.d_max);
        p.push_hold(Seconds::new(1.0));
        let stop = p.final_position();
        let mut q = stop.value();
        for _ in 0..4 {
            let reach = p.time_at_position(Meters::new(q));
            let reach = reach.expect("positions at or before the stop point are reached");
            assert!((p.position_at(reach) - Meters::new(q)).abs().value() < 1e-9);
            q = f64::from_bits(q.to_bits() - 1); // next ulp down
        }
        // One ulp past the stop point is genuinely unreachable.
        assert!(p
            .time_at_position(Meters::new(f64::from_bits(stop.value().to_bits() + 1)))
            .is_none());
    }

    #[test]
    fn phase_accessors_clamp() {
        let ph = Phase {
            start: t(0.0),
            duration: Seconds::new(1.0),
            v0: mps(1.0),
            accel: MetersPerSecondSquared::new(2.0),
            s0: m(0.0),
        };
        assert_eq!(ph.speed_after(Seconds::new(-1.0)), mps(1.0));
        assert_eq!(ph.speed_after(Seconds::new(5.0)), mps(3.0));
        assert_eq!(ph.exit_position(), m(2.0));
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn negative_start_speed_panics() {
        let _ = SpeedProfile::starting_at(t(0.0), m(0.0), mps(-1.0));
    }
}
