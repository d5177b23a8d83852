//! Closed-form uniform-acceleration kinematics.
//!
//! These are the equations behind the paper's trajectory construction
//! (Fig. 6.2): a vehicle accelerates at `a_max` from `V_init` to `V_max`
//! over `T_Acc = (V_max - V_init) / a_max`, covering
//! `ΔX = 0.5 a_max T_Acc² + V_init T_Acc`, then cruises. The earliest time
//! of arrival over a remaining distance `D_E` is
//! `EToA = T_Acc + (D_E - ΔX) / V_max`.

use crate::{Meters, MetersPerSecond, MetersPerSecondSquared, Seconds};

/// Time to change speed from `from` to `to` at constant acceleration `accel`.
///
/// The sign conventions are checked: the result is the (non-negative)
/// magnitude of the required time, computed as `(to - from) / accel`.
///
/// # Panics
///
/// Panics if `accel` is zero while `from != to`, since no finite time can
/// achieve the change.
#[must_use]
pub fn time_to_reach_speed(
    from: MetersPerSecond,
    to: MetersPerSecond,
    accel: MetersPerSecondSquared,
) -> Seconds {
    if from == to {
        return Seconds::ZERO;
    }
    assert!(
        accel.value() != 0.0,
        "cannot change speed {from} -> {to} with zero acceleration"
    );
    ((to - from) / accel).abs()
}

/// Distance covered in `t` seconds starting at speed `v0` under constant
/// acceleration `a`: `v0 t + a t² / 2`.
#[must_use]
pub fn distance_covered(v0: MetersPerSecond, a: MetersPerSecondSquared, t: Seconds) -> Meters {
    v0 * t + (a * t) * t * 0.5
}

/// Earliest time at which a constant-acceleration motion starting at
/// speed `v0` has covered distance `ds`: the smallest admissible root of
/// `v0 t + a t² / 2 = ds`.
///
/// Returns `None` when the distance is never covered: a parked segment
/// (`|a| < 1e-12` and `v0 ≤ 0`), or a braking segment that stops short
/// (negative discriminant). The constant-speed branch reports the signed
/// crossing time — negative for `ds < 0` — while the quadratic branch
/// clamps its root at zero; callers that need a window must clamp
/// themselves. This is the closed-form kernel behind
/// `SpeedProfile::time_at_position` and the analytic AIM footprint, so
/// its branch structure (including the `1e-12` parked floor and the
/// `-1e-12` root tolerance) is pinned by the differential oracle suite.
#[must_use]
pub fn first_time_at_distance(
    v0: MetersPerSecond,
    a: MetersPerSecondSquared,
    ds: Meters,
) -> Option<Seconds> {
    let (v0, a, ds) = (v0.value(), a.value(), ds.value());
    if a.abs() < 1e-12 {
        if v0 <= 0.0 {
            return None; // parked segment cannot advance
        }
        return Some(Seconds::new(ds / v0));
    }
    let disc = v0 * v0 + 2.0 * a * ds;
    if disc < 0.0 {
        return None; // brakes to a stop before covering ds
    }
    // Earliest non-negative root.
    let sq = disc.sqrt();
    let r1 = (-v0 + sq) / a;
    let r2 = (-v0 - sq) / a;
    let mut best = f64::INFINITY;
    for r in [r1, r2] {
        if r >= -1e-12 && r < best {
            best = r;
        }
    }
    if !best.is_finite() {
        return None;
    }
    Some(Seconds::new(best.max(0.0)))
}

/// The distance needed to come to a complete stop from `v` when braking at
/// `decel` (a positive magnitude): `v² / (2 d)`.
///
/// This is the paper's *safe stop distance* check in the vehicle-side
/// algorithm ("if distance to intersection <= safe stop distance, slow
/// down to stop").
///
/// # Panics
///
/// Panics if `decel` is not strictly positive.
#[must_use]
pub fn stopping_distance(v: MetersPerSecond, decel: MetersPerSecondSquared) -> Meters {
    assert!(
        decel.value() > 0.0,
        "deceleration magnitude must be positive"
    );
    Meters::new(v.value() * v.value() / (2.0 * decel.value()))
}

/// Result of the accelerate-then-cruise construction of Fig. 6.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelCruise {
    /// `T_Acc`: time spent accelerating from the initial to the target speed.
    pub accel_time: Seconds,
    /// `ΔX`: distance covered while accelerating.
    pub accel_distance: Meters,
    /// Time spent cruising at the target speed after the acceleration phase.
    pub cruise_time: Seconds,
    /// Total time to cover the full distance (this is `EToA` when the target
    /// speed is `V_max`).
    pub total_time: Seconds,
}

/// Error from [`accel_cruise`] when the profile cannot cover the distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// The distance is shorter than the distance consumed by the speed
    /// change, so the target speed cannot be reached within it.
    DistanceTooShort,
    /// An input was non-finite or out of its documented domain.
    InvalidInput,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::DistanceTooShort => {
                write!(f, "distance too short to reach target speed")
            }
            ProfileError::InvalidInput => write!(f, "invalid kinematic input"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Computes the accelerate-to-`v_target`-then-cruise profile over `distance`.
///
/// This is the Fig. 6.2 construction: with `v_target = V_max` the returned
/// `total_time` is the paper's earliest time of arrival
/// `EToA = T_Acc + (D_E − ΔX) / V_max`.
///
/// Deceleration profiles work the same way: pass `accel` as the *signed*
/// acceleration (negative to slow down to a lower `v_target`).
///
/// # Errors
///
/// - [`ProfileError::DistanceTooShort`] if the speed change alone would
///   overshoot `distance`.
/// - [`ProfileError::InvalidInput`] if any argument is non-finite, the
///   speeds are negative, `v_target` is zero over a positive distance
///   (the cruise would never finish), or `accel` has the wrong sign for the
///   requested speed change.
pub fn accel_cruise(
    v_init: MetersPerSecond,
    v_target: MetersPerSecond,
    accel: MetersPerSecondSquared,
    distance: Meters,
) -> Result<AccelCruise, ProfileError> {
    if !v_init.is_finite()
        || !v_target.is_finite()
        || !accel.is_finite()
        || !distance.is_finite()
        || v_init.value() < 0.0
        || v_target.value() < 0.0
        || distance.value() < 0.0
    {
        return Err(ProfileError::InvalidInput);
    }
    let dv = v_target - v_init;
    if dv.value() != 0.0 && dv.value() * accel.value() <= 0.0 {
        // Sign mismatch (or zero accel) cannot produce the speed change.
        return Err(ProfileError::InvalidInput);
    }

    let accel_time = if dv.value() == 0.0 {
        Seconds::ZERO
    } else {
        dv / accel
    };
    let accel_distance = distance_covered(v_init, accel, accel_time);
    if accel_distance > distance + Meters::new(1e-12) {
        return Err(ProfileError::DistanceTooShort);
    }
    let remaining = (distance - accel_distance).max(Meters::ZERO);
    let cruise_time = if remaining.value() == 0.0 {
        Seconds::ZERO
    } else if v_target.value() == 0.0 {
        return Err(ProfileError::InvalidInput);
    } else {
        remaining / v_target
    };
    Ok(AccelCruise {
        accel_time,
        accel_distance,
        cruise_time,
        total_time: accel_time + cruise_time,
    })
}

/// Solves for the constant cruise speed that covers `distance` in exactly
/// `total_time` after first accelerating from `v_init` at the signed rate
/// implied by the bounds `a_max` (speed-up) / `d_max` (slow-down, positive
/// magnitude).
///
/// This is the IM-side computation in Crossroads and VT-IM: given a desired
/// time of arrival, find the target velocity `V_T` the vehicle should hold.
/// Returns `None` when no speed in `[0, v_max]` meets the deadline — i.e.
/// the deadline is earlier than the earliest achievable arrival or so late
/// that the vehicle would have to stop (the caller then schedules a stop
/// phase explicitly).
///
/// The bisection halves `(lo, hi)` at most 200 times and returns `hi`.
/// It stops early at its fixed point: once an iteration's midpoint equals
/// the bound it would replace, `(lo, hi)` is unchanged, so every later
/// iteration computes the same midpoint, takes the same branch and
/// changes nothing. The early stop therefore returns the same `hi`, bit
/// for bit, as running all 200 halvings; on both testbeds' vehicle specs
/// it comes after 53 to 77 halvings, 55 in the median.
#[must_use]
pub fn solve_cruise_speed(
    v_init: MetersPerSecond,
    v_max: MetersPerSecond,
    a_max: MetersPerSecondSquared,
    d_max: MetersPerSecondSquared,
    distance: Meters,
    total_time: Seconds,
) -> Option<MetersPerSecond> {
    if total_time.value() <= 0.0 || distance.value() < 0.0 {
        return None;
    }
    // Bisect on the target speed: arrival time is monotonically decreasing
    // in v_target over (0, v_max].
    let arrival = |v_t: MetersPerSecond| -> Option<Seconds> {
        let accel = if v_t >= v_init { a_max } else { -d_max };
        accel_cruise(v_init, v_t, accel, distance)
            .ok()
            .map(|p| p.total_time)
    };
    let fastest = arrival(v_max)?;
    if total_time < fastest - Seconds::new(1e-9) {
        return None; // deadline earlier than EToA
    }
    let mut lo = MetersPerSecond::new(1e-6);
    let mut hi = v_max;
    // If even the slowest representable cruise arrives too early the caller
    // wants a stop phase, not a crawl; signal with None.
    match arrival(lo) {
        Some(t_slow) if t_slow < total_time - Seconds::new(1e-9) => return None,
        None => return None,
        _ => {}
    }
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        let bound = match arrival(mid) {
            Some(t) if t > total_time => &mut lo,
            Some(_) => &mut hi,
            None => &mut lo,
        };
        if bound.value().to_bits() == mid.value().to_bits() {
            break; // fixed point: the remaining iterations are no-ops
        }
        *bound = mid;
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mps(v: f64) -> MetersPerSecond {
        MetersPerSecond::new(v)
    }
    fn mps2(a: f64) -> MetersPerSecondSquared {
        MetersPerSecondSquared::new(a)
    }

    #[test]
    fn time_to_reach_speed_basic() {
        assert_eq!(
            time_to_reach_speed(mps(0.0), mps(3.0), mps2(1.5)),
            Seconds::new(2.0)
        );
        assert_eq!(
            time_to_reach_speed(mps(3.0), mps(3.0), mps2(1.5)),
            Seconds::ZERO
        );
        // Deceleration expressed with negative accel still yields positive time.
        assert_eq!(
            time_to_reach_speed(mps(3.0), mps(0.0), mps2(-1.5)),
            Seconds::new(2.0)
        );
    }

    #[test]
    #[should_panic(expected = "zero acceleration")]
    fn time_to_reach_speed_zero_accel_panics() {
        let _ = time_to_reach_speed(mps(0.0), mps(1.0), mps2(0.0));
    }

    #[test]
    fn distance_covered_matches_integral() {
        // v0=1, a=2, t=3 -> 1*3 + 0.5*2*9 = 12
        assert_eq!(
            distance_covered(mps(1.0), mps2(2.0), Seconds::new(3.0)),
            Meters::new(12.0)
        );
    }

    #[test]
    fn first_time_at_distance_constant_speed() {
        // 2 m at 1 m/s: 2 s, independent of a ulp-sized acceleration.
        assert_eq!(
            first_time_at_distance(mps(1.0), mps2(0.0), Meters::new(2.0)),
            Some(Seconds::new(2.0))
        );
        assert_eq!(
            first_time_at_distance(mps(1.0), mps2(1e-13), Meters::new(2.0)),
            Some(Seconds::new(2.0))
        );
    }

    #[test]
    fn first_time_at_distance_parked_branch_pinned() {
        // The `|a| < 1e-12` parked guard: zero speed, zero accel never
        // covers a positive distance.
        assert_eq!(
            first_time_at_distance(mps(0.0), mps2(0.0), Meters::new(0.5)),
            None
        );
        // A parked segment asked for zero distance is still `None` — the
        // caller (profile scan) falls through to the next phase, which
        // starts at the same position.
        assert_eq!(
            first_time_at_distance(mps(0.0), mps2(0.0), Meters::ZERO),
            None
        );
    }

    #[test]
    fn first_time_at_distance_negative_discriminant_pinned() {
        // Braking 1 m/s at 2 m/s² stops after 0.25 m; 0.26 m is out of
        // reach (disc = 1 − 2·2·0.26 = −0.04).
        assert_eq!(
            first_time_at_distance(mps(1.0), mps2(-2.0), Meters::new(0.26)),
            None
        );
        // The exact stop point is reached (disc == 0) at t = v/|a|.
        let t = first_time_at_distance(mps(1.0), mps2(-2.0), Meters::new(0.25)).unwrap();
        assert!((t.value() - 0.5).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn first_time_at_distance_accelerating_root() {
        // From rest at 2 m/s²: 1 m takes √(2·1/2) = 1 s.
        let t = first_time_at_distance(mps(0.0), mps2(2.0), Meters::new(1.0)).unwrap();
        assert!((t.value() - 1.0).abs() < 1e-12);
        // Zero distance is reached immediately.
        let t0 = first_time_at_distance(mps(1.0), mps2(2.0), Meters::ZERO).unwrap();
        assert_eq!(t0, Seconds::ZERO);
    }

    #[test]
    fn stopping_distance_quadratic_in_speed() {
        let d1 = stopping_distance(mps(1.0), mps2(2.0));
        let d2 = stopping_distance(mps(2.0), mps2(2.0));
        assert_eq!(d1, Meters::new(0.25));
        assert_eq!(d2, Meters::new(1.0));
    }

    #[test]
    fn accel_cruise_matches_paper_fig_6_2() {
        // Paper's scale model: V_init = 1 m/s, V_max = 3 m/s, a_max = 2 m/s²,
        // D_E = 3 m. T_Acc = 1 s, ΔX = 0.5*2*1 + 1*1 = 2 m,
        // EToA = 1 + (3-2)/3 = 1.3333 s.
        let p = accel_cruise(mps(1.0), mps(3.0), mps2(2.0), Meters::new(3.0)).unwrap();
        assert!((p.accel_time.value() - 1.0).abs() < 1e-12);
        assert!((p.accel_distance.value() - 2.0).abs() < 1e-12);
        assert!((p.total_time.value() - (1.0 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn accel_cruise_pure_cruise() {
        let p = accel_cruise(mps(2.0), mps(2.0), mps2(1.0), Meters::new(4.0)).unwrap();
        assert_eq!(p.accel_time, Seconds::ZERO);
        assert_eq!(p.accel_distance, Meters::ZERO);
        assert_eq!(p.total_time, Seconds::new(2.0));
    }

    #[test]
    fn accel_cruise_decelerating_profile() {
        // 3 -> 1 m/s at -2 m/s²: T = 1 s, ΔX = 3 - 1 = 2 m, then cruise 1 m at 1 m/s.
        let p = accel_cruise(mps(3.0), mps(1.0), mps2(-2.0), Meters::new(3.0)).unwrap();
        assert!((p.accel_time.value() - 1.0).abs() < 1e-12);
        assert!((p.accel_distance.value() - 2.0).abs() < 1e-12);
        assert!((p.cruise_time.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accel_cruise_rejects_too_short_distance() {
        // Accelerating 0->3 at 2 m/s² needs 2.25 m; only 1 m available.
        let e = accel_cruise(mps(0.0), mps(3.0), mps2(2.0), Meters::new(1.0)).unwrap_err();
        assert_eq!(e, ProfileError::DistanceTooShort);
    }

    #[test]
    fn accel_cruise_rejects_sign_mismatch() {
        let e = accel_cruise(mps(0.0), mps(3.0), mps2(-2.0), Meters::new(10.0)).unwrap_err();
        assert_eq!(e, ProfileError::InvalidInput);
        let e = accel_cruise(mps(3.0), mps(1.0), mps2(2.0), Meters::new(10.0)).unwrap_err();
        assert_eq!(e, ProfileError::InvalidInput);
    }

    #[test]
    fn accel_cruise_rejects_nonsense() {
        assert!(accel_cruise(mps(f64::NAN), mps(1.0), mps2(1.0), Meters::new(1.0)).is_err());
        assert!(accel_cruise(mps(-1.0), mps(1.0), mps2(1.0), Meters::new(1.0)).is_err());
        assert!(accel_cruise(mps(1.0), mps(1.0), mps2(1.0), Meters::new(-1.0)).is_err());
        // Target speed 0 over positive distance never arrives.
        assert!(accel_cruise(mps(1.0), mps(0.0), mps2(-1.0), Meters::new(10.0)).is_err());
    }

    #[test]
    fn accel_cruise_zero_distance_zero_time() {
        let p = accel_cruise(mps(1.0), mps(1.0), mps2(1.0), Meters::ZERO).unwrap();
        assert_eq!(p.total_time, Seconds::ZERO);
    }

    #[test]
    fn solve_cruise_speed_recovers_known_speed() {
        // The profile accelerate 1->2 at 2 m/s² then cruise over 5 m takes
        // T_Acc = 0.5 s, ΔX = 0.75 m, cruise (5-0.75)/2 = 2.125 s, total 2.625 s.
        let v = solve_cruise_speed(
            mps(1.0),
            mps(3.0),
            mps2(2.0),
            mps2(3.0),
            Meters::new(5.0),
            Seconds::new(2.625),
        )
        .unwrap();
        assert!((v.value() - 2.0).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn solve_cruise_speed_deadline_before_etoa_is_none() {
        let v = solve_cruise_speed(
            mps(1.0),
            mps(3.0),
            mps2(2.0),
            mps2(3.0),
            Meters::new(5.0),
            Seconds::new(0.1),
        );
        assert!(v.is_none());
    }

    #[test]
    fn solve_cruise_speed_exactly_etoa_returns_vmax() {
        let fastest = accel_cruise(mps(1.0), mps(3.0), mps2(2.0), Meters::new(5.0))
            .unwrap()
            .total_time;
        let v = solve_cruise_speed(
            mps(1.0),
            mps(3.0),
            mps2(2.0),
            mps2(3.0),
            Meters::new(5.0),
            fastest,
        )
        .unwrap();
        assert!((v.value() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn solve_cruise_speed_decelerating_target() {
        // Ask for an arrival slower than cruising at v_init: solution < v_init.
        let v = solve_cruise_speed(
            mps(3.0),
            mps(3.0),
            mps2(2.0),
            mps2(3.0),
            Meters::new(6.0),
            Seconds::new(4.0),
        )
        .unwrap();
        assert!(v.value() < 3.0);
        // Check the found speed indeed arrives on time.
        let p = accel_cruise(mps(3.0), v, mps2(-3.0), Meters::new(6.0)).unwrap();
        assert!((p.total_time.value() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn solve_cruise_speed_absurdly_late_deadline_is_none() {
        // Would require near-zero speed forever; caller must plan a stop.
        let v = solve_cruise_speed(
            mps(3.0),
            mps(3.0),
            mps2(2.0),
            mps2(3.0),
            Meters::new(1.0),
            Seconds::new(1e9),
        );
        assert!(v.is_none());
    }
}
