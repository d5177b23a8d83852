//! Mixed-traffic compliance model: which vehicles actually follow V2I.
//!
//! The paper's correctness argument assumes 100% compliance — every
//! vehicle executes its granted velocity/time profile exactly. Real
//! deployments mix in human-driven vehicles with no radio, faulty
//! vehicles that mis-execute commands within bounded error, and
//! emergency vehicles that preempt the intersection outright. This
//! module assigns each generated vehicle a [`Compliance`] mode from a
//! configured mix, using a dedicated per-vehicle RNG stream so the
//! assignment is a pure function of `(seed, vehicle)` — independent of
//! generation order, corridor leg, or shard interleaving.
//!
//! The runtime consequences of each mode (gap-acceptance crossing,
//! command perturbation, preemption) live in the core simulator's
//! safety-filter layer; this module only decides *who* misbehaves and
//! hands out the deterministic noise streams they draw from.

use crossroads_prng::{Rng, SeedableRng, StdRng};
use crossroads_units::Seconds;
use crossroads_vehicle::VehicleId;

/// Experiment-binary knob for [`MixedConfig::standard`] traffic, read by
/// `crossroads_bench`, never by this crate.
pub const MIXED_ENV: &str = "CROSSROADS_MIXED";

/// RNG stream id for the per-vehicle compliance assignment draw.
/// Disjoint from the shard streams (`0x5AAD_…`), the fault-injection
/// streams (`0xFA17_…`) and the per-vehicle clock streams (< 2^34).
const COMPLIANCE_STREAM: u64 = 0xC04F_0000_0000_0000;

/// RNG stream id base for a faulty vehicle's execution-error draws.
const FAULT_EXEC_STREAM: u64 = 0xFAB5_0000_0000_0000;

/// How a vehicle relates to the V2I protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compliance {
    /// Fully managed: radios, requests, and executes grants exactly
    /// (the paper's assumption; the only mode when mixed traffic is off).
    #[default]
    Managed,
    /// Human-driven, no radio: stops at the line and crosses by gap
    /// acceptance when the intersection is observably clear for it.
    Human,
    /// Radios normally but executes granted profiles with bounded speed
    /// and launch-timing error (degraded actuation, not malice).
    Faulty,
    /// Emergency vehicle: does not negotiate; requests preemption that
    /// flushes conflicting reservations and crosses with priority.
    Emergency,
}

impl Compliance {
    /// Whether this vehicle participates in the V2I request protocol.
    #[must_use]
    pub fn uses_v2i(self) -> bool {
        matches!(self, Compliance::Managed | Compliance::Faulty)
    }

    /// Whether the safety filter must treat this vehicle's motion as a
    /// worst-case reachable set rather than a trusted granted profile.
    #[must_use]
    pub fn noncompliant(self) -> bool {
        self != Compliance::Managed
    }

    /// Short display label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Compliance::Managed => "managed",
            Compliance::Human => "human",
            Compliance::Faulty => "faulty",
            Compliance::Emergency => "emergency",
        }
    }
}

/// The compliance mix and the non-compliance error bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedConfig {
    /// Master switch. `false` assigns every vehicle [`Compliance::Managed`]
    /// without drawing any randomness (the byte-identity contract).
    pub enabled: bool,
    /// Probability a vehicle is human-driven (no V2I).
    pub human_share: f64,
    /// Probability a vehicle is faulty (mis-executes grants).
    pub faulty_share: f64,
    /// Probability a vehicle is an emergency vehicle.
    pub emergency_share: f64,
    /// Maximum relative cruise-speed execution error of a faulty vehicle
    /// (0.1 → executes at 90–110% of the commanded target speed).
    pub speed_error: f64,
    /// Maximum extra launch delay a faulty vehicle adds to a commanded
    /// start-of-motion.
    pub timing_error: Seconds,
    /// How often a waiting human (or emergency vehicle) re-checks the
    /// intersection for an acceptable gap.
    pub gap_poll: Seconds,
    /// Extra temporal clearance a human demands around its crossing
    /// window before committing (gap-acceptance caution).
    pub gap_margin: Seconds,
}

impl MixedConfig {
    /// Mixed traffic off: everyone managed, nothing drawn.
    #[must_use]
    pub fn disabled() -> Self {
        MixedConfig {
            enabled: false,
            human_share: 0.0,
            faulty_share: 0.0,
            emergency_share: 0.0,
            speed_error: 0.0,
            timing_error: Seconds::ZERO,
            gap_poll: Seconds::new(0.5),
            gap_margin: Seconds::new(1.0),
        }
    }

    /// The standard evaluation mix: 10% human, 5% faulty (±10% speed,
    /// ≤300 ms launch slip), 1% emergency.
    #[must_use]
    pub fn standard() -> Self {
        MixedConfig {
            enabled: true,
            human_share: 0.10,
            faulty_share: 0.05,
            emergency_share: 0.01,
            speed_error: 0.10,
            timing_error: Seconds::from_millis(300.0),
            gap_poll: Seconds::new(0.5),
            gap_margin: Seconds::new(1.0),
        }
    }

    /// Overrides the compliance shares, keeping the error bounds.
    #[must_use]
    pub fn with_shares(mut self, human: f64, faulty: f64, emergency: f64) -> Self {
        self.human_share = human;
        self.faulty_share = faulty;
        self.emergency_share = emergency;
        self.enabled = true;
        self
    }

    /// Validates shares and bounds.
    ///
    /// # Panics
    ///
    /// Panics on a share vector that is not a sub-distribution or on
    /// non-finite / out-of-range error bounds.
    pub fn validate(&self) {
        let shares = [self.human_share, self.faulty_share, self.emergency_share];
        assert!(
            shares.iter().all(|s| s.is_finite() && *s >= 0.0) && shares.iter().sum::<f64>() <= 1.0,
            "compliance shares (human_share, faulty_share, emergency_share) must be \
             non-negative and sum to at most 1, got {shares:?}"
        );
        assert!(
            self.speed_error.is_finite() && (0.0..1.0).contains(&self.speed_error),
            "speed_error must be in [0, 1), got {}",
            self.speed_error
        );
        assert!(
            self.timing_error.value().is_finite() && self.timing_error >= Seconds::ZERO,
            "timing_error must be finite and non-negative, got {:?}",
            self.timing_error
        );
        assert!(
            self.gap_poll > Seconds::ZERO && self.gap_margin >= Seconds::ZERO,
            "gap_poll must be positive and gap_margin non-negative, got {:?}/{:?}",
            self.gap_poll,
            self.gap_margin
        );
    }

    /// Assigns `vehicle` its compliance mode: a single uniform draw from
    /// a per-vehicle stream of the root `seed`, so the answer is stable
    /// whatever order vehicles are asked about (shards, corridor legs and
    /// windowed replays all agree). Draws nothing when disabled.
    #[must_use]
    pub fn assign(&self, seed: u64, vehicle: VehicleId) -> Compliance {
        if !self.enabled {
            return Compliance::Managed;
        }
        let mut rng = StdRng::seed_from_u64(seed).stream(COMPLIANCE_STREAM | u64::from(vehicle.0));
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < self.human_share {
            Compliance::Human
        } else if u < self.human_share + self.faulty_share {
            Compliance::Faulty
        } else if u < self.human_share + self.faulty_share + self.emergency_share {
            Compliance::Emergency
        } else {
            Compliance::Managed
        }
    }

    /// The dedicated execution-noise generator of a faulty vehicle: a
    /// pure function of `(seed, vehicle)`. The caller owns the returned
    /// generator and advances it once per actuation, so a vehicle's noise
    /// sequence is private to it and replayable.
    #[must_use]
    pub fn exec_rng(seed: u64, vehicle: VehicleId) -> StdRng {
        StdRng::seed_from_u64(seed).stream(FAULT_EXEC_STREAM | u64::from(vehicle.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_assigns_managed_everywhere() {
        let cfg = MixedConfig::disabled();
        for v in 0..200 {
            assert_eq!(cfg.assign(42, VehicleId(v)), Compliance::Managed);
        }
    }

    #[test]
    fn assignment_is_a_pure_function_of_seed_and_vehicle() {
        let cfg = MixedConfig::standard();
        for v in (0..500).rev() {
            // Asking in reverse order must agree with forward order.
            assert_eq!(cfg.assign(7, VehicleId(v)), cfg.assign(7, VehicleId(v)));
        }
        let forward: Vec<Compliance> = (0..500).map(|v| cfg.assign(7, VehicleId(v))).collect();
        let reverse: Vec<Compliance> = {
            let mut r: Vec<Compliance> = (0..500)
                .rev()
                .map(|v| cfg.assign(7, VehicleId(v)))
                .collect();
            r.reverse();
            r
        };
        assert_eq!(forward, reverse);
    }

    #[test]
    fn standard_mix_hits_every_mode() {
        let cfg = MixedConfig::standard();
        let mut counts = [0usize; 4];
        for v in 0..4000 {
            counts[match cfg.assign(11, VehicleId(v)) {
                Compliance::Managed => 0,
                Compliance::Human => 1,
                Compliance::Faulty => 2,
                Compliance::Emergency => 3,
            }] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "mode starved: {counts:?}");
        // Managed dominates under the standard mix.
        assert!(counts[0] > counts[1] + counts[2] + counts[3]);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = MixedConfig::standard().with_shares(0.3, 0.3, 0.3);
        let a: Vec<Compliance> = (0..256).map(|v| cfg.assign(1, VehicleId(v))).collect();
        let b: Vec<Compliance> = (0..256).map(|v| cfg.assign(2, VehicleId(v))).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn exec_rng_is_stable_per_vehicle() {
        let mut a = MixedConfig::exec_rng(5, VehicleId(9));
        let mut b = MixedConfig::exec_rng(5, VehicleId(9));
        let mut c = MixedConfig::exec_rng(5, VehicleId(10));
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(av, bv);
        assert_ne!(av, cv);
    }

    #[test]
    #[should_panic(expected = "compliance shares")]
    fn oversubscribed_shares_panic() {
        MixedConfig::standard()
            .with_shares(0.6, 0.5, 0.1)
            .validate();
    }
}
