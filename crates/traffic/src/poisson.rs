//! Poisson arrival generation for the Fig. 7.2 throughput sweeps.

use crossroads_intersection::{Approach, Movement, Turn};
use crossroads_prng::{Distribution, Rng, Uniform};
use crossroads_units::{MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::VehicleId;

use crate::Arrival;

/// Configuration of a random input flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonConfig {
    /// Mean arrival rate per lane, cars/second (the paper sweeps
    /// 0.05–1.25).
    pub rate_per_lane: f64,
    /// Total vehicles to route across all four lanes (the paper uses 160).
    pub total_vehicles: u32,
    /// Speed at the transmission line.
    pub line_speed: MetersPerSecond,
    /// Minimum same-lane headway; closer exponential samples are pushed
    /// apart (a physical car cannot cross the line inside its leader).
    pub min_headway: Seconds,
    /// Probability mass for (straight, left, right) — defaults to the
    /// common 70/15/15 urban split.
    pub turn_mix: [f64; 3],
}

impl PoissonConfig {
    /// The Fig. 7.2 sweep point at `rate` cars/s/lane with the paper's
    /// 160-vehicle total.
    #[must_use]
    pub fn sweep_point(rate: f64, line_speed: MetersPerSecond) -> Self {
        PoissonConfig {
            rate_per_lane: rate,
            total_vehicles: 160,
            line_speed,
            min_headway: Seconds::new(1.0),
            turn_mix: [0.70, 0.15, 0.15],
        }
    }

    fn validate(&self) {
        assert!(
            self.rate_per_lane.is_finite() && self.rate_per_lane > 0.0,
            "rate must be positive"
        );
        assert!(self.total_vehicles > 0, "need at least one vehicle");
        assert!(
            self.min_headway.value().is_finite() && self.min_headway.value() >= 0.0,
            "min_headway must be finite and non-negative, got {:?}",
            self.min_headway
        );
        let mass: f64 = self.turn_mix.iter().sum();
        assert!(
            (mass - 1.0).abs() < 1e-9 && self.turn_mix.iter().all(|&p| p >= 0.0),
            "turn mix must be a probability distribution, got {:?}",
            self.turn_mix
        );
    }
}

/// Draws an exponential inter-arrival time with rate `lambda` via inverse
/// CDF (keeps us inside the allowed `rand` feature set).
pub(crate) fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    let u: f64 = Uniform::new(f64::EPSILON, 1.0).sample(rng);
    -u.ln() / lambda
}

/// Draws a turn from the (straight, left, right) probability mass `mix`.
pub(crate) fn sample_turn<R: Rng + ?Sized>(rng: &mut R, mix: &[f64; 3]) -> Turn {
    let u: f64 = rng.gen_range(0.0..1.0);
    if u < mix[0] {
        Turn::Straight
    } else if u < mix[0] + mix[1] {
        Turn::Left
    } else {
        Turn::Right
    }
}

/// Merges independent Poisson streams `(payload, rate)` into `total`
/// arrivals with dense ids in time order: the stream with the earliest
/// pending arrival emits next, ties going to the earlier stream.
/// `movement(rng, payload)` names each arrival's movement before its
/// stream draws the gap to its next arrival, an exponential clamped to at
/// least `min_headway`.
pub(crate) fn merge_streams<R: Rng + ?Sized, T: Copy>(
    rng: &mut R,
    streams: &[(T, f64)],
    total: u32,
    line_speed: MetersPerSecond,
    min_headway: Seconds,
    mut movement: impl FnMut(&mut R, T) -> Movement,
) -> Vec<Arrival> {
    let mut next_time: Vec<f64> = streams
        .iter()
        .map(|&(_, rate)| sample_exponential(rng, rate))
        .collect();
    let mut arrivals = Vec::with_capacity(total as usize);
    let mut id = 0u32;
    while arrivals.len() < total as usize {
        // The index comparison is load-bearing: `Iterator::min_by`
        // returns the *last* of equal minima, so without it two streams
        // tied to the bit would emit from the higher index.
        let s = (0..streams.len())
            .min_by(|&a, &b| next_time[a].total_cmp(&next_time[b]).then(a.cmp(&b)))
            .expect("at least one stream");
        let (payload, rate) = streams[s];
        let at = next_time[s];
        arrivals.push(Arrival {
            vehicle: VehicleId(id),
            movement: movement(rng, payload),
            at_line: TimePoint::new(at),
            speed: line_speed,
        });
        id += 1;
        let gap = sample_exponential(rng, rate).max(min_headway.value());
        let mut next = at + gap;
        // When the gap clamps to exactly min_headway, `at + gap - at` can
        // round a ulp below the floor the validator enforces; nudge until
        // the subtraction round-trips.
        while next - at < min_headway.value() {
            next = next.next_up();
        }
        next_time[s] = next;
    }
    arrivals
}

/// Generates a sorted workload of `config.total_vehicles` arrivals, one
/// independent Poisson process per approach lane, merged by time so lane
/// loads stay balanced in expectation.
///
/// # Panics
///
/// Panics if the configuration is invalid (see fields).
pub fn generate_poisson<R: Rng + ?Sized>(config: &PoissonConfig, rng: &mut R) -> Vec<Arrival> {
    config.validate();
    merge_streams(
        rng,
        &Approach::ALL.map(|a| (a, config.rate_per_lane)),
        config.total_vehicles,
        config.line_speed,
        config.min_headway,
        |rng, approach| Movement::new(approach, sample_turn(rng, &config.turn_mix)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_workload;
    use crossroads_prng::{SeedableRng, StdRng};

    fn cfg(rate: f64) -> PoissonConfig {
        PoissonConfig::sweep_point(rate, MetersPerSecond::new(3.0))
    }

    #[test]
    fn generates_exact_count_valid_and_sorted() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = generate_poisson(&cfg(0.5), &mut rng);
        assert_eq!(w.len(), 160);
        validate_workload(&w, Seconds::new(1.0)).unwrap();
    }

    #[test]
    fn rate_controls_density() {
        let mut rng = StdRng::seed_from_u64(2);
        let slow = generate_poisson(&cfg(0.05), &mut rng);
        let fast = generate_poisson(&cfg(1.25), &mut rng);
        let span = |w: &[Arrival]| w.last().unwrap().at_line.value() - w[0].at_line.value();
        assert!(
            span(&slow) > 3.0 * span(&fast),
            "low-rate workload should span much longer: {} vs {}",
            span(&slow),
            span(&fast)
        );
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let rate = 0.3;
        let w = generate_poisson(&cfg(rate), &mut rng);
        let span = w.last().unwrap().at_line.value() - w[0].at_line.value();
        let empirical = 160.0 / span / 4.0; // per lane
        assert!(
            (empirical - rate).abs() / rate < 0.25,
            "empirical per-lane rate {empirical} too far from {rate}"
        );
    }

    #[test]
    fn all_lanes_are_used() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = generate_poisson(&cfg(0.5), &mut rng);
        for a in Approach::ALL {
            assert!(
                w.iter().any(|x| x.movement.approach == a),
                "lane {a} unused in 160 arrivals"
            );
        }
    }

    #[test]
    fn turn_mix_is_respected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = cfg(1.0);
        c.total_vehicles = 4000;
        let w = generate_poisson(&c, &mut rng);
        #[allow(clippy::cast_precision_loss)]
        let frac =
            |t: Turn| w.iter().filter(|a| a.movement.turn == t).count() as f64 / w.len() as f64;
        assert!((frac(Turn::Straight) - 0.70).abs() < 0.03);
        assert!((frac(Turn::Left) - 0.15).abs() < 0.03);
        assert!((frac(Turn::Right) - 0.15).abs() < 0.03);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            generate_poisson(&cfg(0.5), &mut rng)
        };
        assert_eq!(run(6), run(6));
        assert_ne!(run(6), run(7));
    }

    /// An [`Rng`] whose every draw is the same 64-bit word: all four
    /// lanes start with bit-identical exponential samples and every
    /// clamped headway lands the streams on exactly tied next-arrival
    /// times — the adversarial input for the documented tie-break.
    struct ConstantRng(u64);

    impl Rng for ConstantRng {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn exact_ties_break_toward_lower_lane_index() {
        // Constant draws: every lane's next arrival time is bit-identical
        // at every step, so *every* emission is a 4-way tie. The docs
        // promise ties break toward the earlier stream, so the emission
        // order must cycle West, East, North, South (Approach::ALL order)
        // — `min_by` alone would return the *last* minimum and start at
        // the highest lane index instead.
        let mut rng = ConstantRng(u64::MAX / 3);
        let mut c = cfg(0.5);
        c.total_vehicles = 8;
        let w = generate_poisson(&c, &mut rng);
        let lanes: Vec<Approach> = w.iter().map(|a| a.movement.approach).collect();
        let expected: Vec<Approach> = Approach::ALL.iter().copied().cycle().take(8).collect();
        assert_eq!(
            lanes, expected,
            "tied arrivals must emit in ascending lane order"
        );
    }

    #[test]
    #[should_panic(expected = "min_headway must be finite")]
    fn nan_headway_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = cfg(0.5);
        c.min_headway = Seconds::new(f64::NAN);
        let _ = generate_poisson(&c, &mut rng);
    }

    #[test]
    #[should_panic(expected = "min_headway must be finite")]
    fn negative_headway_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = cfg(0.5);
        c.min_headway = Seconds::new(-1.0);
        let _ = generate_poisson(&c, &mut rng);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = generate_poisson(&cfg(0.0), &mut rng);
    }

    #[test]
    #[should_panic(expected = "probability distribution")]
    fn bad_turn_mix_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = cfg(0.5);
        c.turn_mix = [0.5, 0.5, 0.5];
        let _ = generate_poisson(&c, &mut rng);
    }
}
