//! The uncertainty model of Ch. 3: sensing, control and clock-sync error.
//!
//! The paper identifies three contributors to the longitudinal position
//! uncertainty `E_long` that the safety buffer must cover:
//!
//! 1. **Sensor error** — encoder (longitudinal) and GPS/IMU (both axes).
//! 2. **Control error** — the speed controller never tracks the commanded
//!    profile exactly (Fig. 3.1).
//! 3. **Time-synchronization error** — a clock offset of `ε` seconds at
//!    speed `v` displaces the *believed* position by `v·ε` (1 ms at 3 m/s
//!    → 3 mm in the testbed).
//!
//! [`ErrorModel`] bundles the noise magnitudes; the controller draws from
//! it each control step, and [`ErrorModel::sync_position_error`] gives the
//! worst-case sync contribution the IM adds when sizing the buffer.

use crossroads_prng::{Distribution, Rng, Uniform};
use crossroads_units::{Meters, MetersPerSecond, Seconds};

/// Magnitudes of the injected uncertainties.
///
/// All noises are sampled uniformly in `[-bound, +bound]`: the paper
/// reasons exclusively in worst-case envelopes, and uniform sampling
/// exercises the full envelope without assuming a distribution shape the
/// thesis never measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Bound on the speed-measurement error (encoder quantization +
    /// slippage), in m/s.
    pub speed_sensor_bound: MetersPerSecond,
    /// Bound on the achieved-vs-commanded acceleration error, as a
    /// fraction of the commanded magnitude (e.g. `0.05` = ±5 %).
    pub control_fraction_bound: f64,
    /// Bound on the per-step actuator disturbance, in m/s (wheel slip,
    /// motor cogging), applied to speed directly.
    pub actuation_speed_bound: MetersPerSecond,
    /// Bound on the residual clock offset after synchronization.
    pub sync_error_bound: Seconds,
}

impl ErrorModel {
    /// The noise levels calibrated so the Ch. 3 experiment reproduces the
    /// thesis' measured worst-case `E_long ≈ ±75 mm` over the standard
    /// 0.1 ↔ 3.0 m/s step test on the scale platform, with NTP sync at
    /// 1 ms.
    #[must_use]
    pub fn scale_model() -> Self {
        ErrorModel {
            speed_sensor_bound: MetersPerSecond::new(0.03),
            control_fraction_bound: 0.05,
            actuation_speed_bound: MetersPerSecond::new(0.0033),
            sync_error_bound: Seconds::from_millis(1.0),
        }
    }

    /// A noiseless model, for tests that need exact kinematics.
    #[must_use]
    pub fn ideal() -> Self {
        ErrorModel {
            speed_sensor_bound: MetersPerSecond::ZERO,
            control_fraction_bound: 0.0,
            actuation_speed_bound: MetersPerSecond::ZERO,
            sync_error_bound: Seconds::ZERO,
        }
    }

    /// Proportionally scaled noise for the full-scale simulations (the
    /// Matlab sweeps "only considered sensor error buffer"; we scale the
    /// measured testbed envelope by the size ratio).
    #[must_use]
    pub fn full_scale() -> Self {
        ErrorModel {
            speed_sensor_bound: MetersPerSecond::new(0.15),
            control_fraction_bound: 0.05,
            actuation_speed_bound: MetersPerSecond::new(0.075),
            sync_error_bound: Seconds::from_millis(1.0),
        }
    }

    /// Samples a speed-measurement error.
    pub fn sample_speed_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> MetersPerSecond {
        sample_symmetric(rng, self.speed_sensor_bound.value())
            .map_or(MetersPerSecond::ZERO, MetersPerSecond::new)
    }

    /// Samples a multiplicative control-tracking factor in
    /// `[1-b, 1+b]` where `b` is the control fraction bound.
    pub fn sample_control_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        1.0 + sample_symmetric(rng, self.control_fraction_bound).unwrap_or(0.0)
    }

    /// Samples a per-step actuation speed disturbance.
    pub fn sample_actuation_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> MetersPerSecond {
        sample_symmetric(rng, self.actuation_speed_bound.value())
            .map_or(MetersPerSecond::ZERO, MetersPerSecond::new)
    }

    /// Worst-case position error contributed by clock synchronization at
    /// travel speed `v`: `v · ε_sync` (the paper's 3 mm at 3 m/s).
    #[must_use]
    pub fn sync_position_error(&self, v: MetersPerSecond) -> Meters {
        v.abs() * self.sync_error_bound
    }
}

/// Uniform sample in `[-bound, bound]`; `None` when the bound is zero so
/// callers can avoid degenerate `Uniform` panics.
fn sample_symmetric<R: Rng + ?Sized>(rng: &mut R, bound: f64) -> Option<f64> {
    if bound <= 0.0 {
        return None;
    }
    Some(Uniform::new_inclusive(-bound, bound).sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_prng::{SeedableRng, StdRng};

    #[test]
    fn sync_position_error_matches_paper() {
        // 1 ms at 3 m/s = 3 mm.
        let m = ErrorModel::scale_model();
        let e = m.sync_position_error(MetersPerSecond::new(3.0));
        assert!((e.as_millis() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_model_is_silent() {
        let m = ErrorModel::ideal();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(m.sample_speed_noise(&mut rng), MetersPerSecond::ZERO);
            assert_eq!(m.sample_control_factor(&mut rng), 1.0);
            assert_eq!(m.sample_actuation_noise(&mut rng), MetersPerSecond::ZERO);
        }
    }

    #[test]
    fn samples_respect_bounds() {
        let m = ErrorModel::scale_model();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert!(m.sample_speed_noise(&mut rng).abs() <= m.speed_sensor_bound);
            let f = m.sample_control_factor(&mut rng);
            assert!((f - 1.0).abs() <= m.control_fraction_bound + 1e-12);
            assert!(m.sample_actuation_noise(&mut rng).abs() <= m.actuation_speed_bound);
        }
    }

    #[test]
    fn samples_are_two_sided() {
        let m = ErrorModel::scale_model();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut neg, mut pos) = (false, false);
        for _ in 0..1000 {
            let v = m.sample_speed_noise(&mut rng).value();
            neg |= v < 0.0;
            pos |= v > 0.0;
        }
        assert!(neg && pos, "uniform noise must cover both signs");
    }

    #[test]
    fn deterministic_under_seed() {
        let m = ErrorModel::scale_model();
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10)
                .map(|_| m.sample_speed_noise(&mut rng).value())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }
}
