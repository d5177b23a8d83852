//! Corridor (arterial grid) workload generation.
//!
//! The single-intersection generators in [`poisson`](crate::poisson)
//! drive four lanes of one box; a corridor of `k` chained intersections
//! instead sees two kinds of demand:
//!
//! - **Arterial through-traffic** — westbound vehicles entering the first
//!   intersection and eastbound vehicles entering the last, all
//!   `Straight`, which the corridor hands off from box to box.
//! - **Cross traffic** — north/south `Straight` vehicles entering at
//!   every intersection and leaving after one box, contending with the
//!   artery for the conflict area.
//!
//! Each (intersection, lane) stream is an independent Poisson process
//! with a minimum same-lane headway, merged by arrival time into one
//! sorted workload with densely renumbered vehicle ids, plus the
//! parallel entry-intersection vector the corridor runner consumes.

use crossroads_intersection::{Approach, Movement, Turn};
use crossroads_prng::Rng;
use crossroads_units::{MetersPerSecond, Seconds};

use crate::poisson::merge_streams;
use crate::Arrival;

/// Demand shape of one corridor workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorridorDemand {
    /// Chained intersections (`k >= 1`).
    pub k: usize,
    /// Mean arrival rate of each arterial direction, cars/second.
    pub arterial_rate: f64,
    /// Mean arrival rate of each cross-traffic lane (north and south at
    /// every intersection), cars/second.
    pub cross_rate: f64,
    /// Total vehicles across all streams.
    pub total_vehicles: u32,
    /// Speed at the transmission line.
    pub line_speed: MetersPerSecond,
    /// Minimum same-lane headway; closer samples are pushed apart.
    pub min_headway: Seconds,
}

impl CorridorDemand {
    fn validate(&self) {
        assert!(self.k >= 1, "a corridor needs at least one intersection");
        assert!(
            self.arterial_rate.is_finite() && self.arterial_rate > 0.0,
            "arterial rate must be positive"
        );
        assert!(
            self.cross_rate.is_finite() && self.cross_rate > 0.0,
            "cross rate must be positive"
        );
        assert!(self.total_vehicles > 0, "need at least one vehicle");
        assert!(
            self.min_headway.value().is_finite() && self.min_headway.value() >= 0.0,
            "min_headway must be finite and non-negative, got {:?}",
            self.min_headway
        );
    }
}

/// Generates a sorted corridor workload of `demand.total_vehicles`
/// arrivals and the entry intersection of each, for
/// `run_corridor(config, &arrivals, &entry_ims)`.
///
/// Streams, in fixed order: westbound artery at intersection 0, eastbound
/// artery at intersection `k - 1`, then north and south cross lanes at
/// every intersection. The merge always emits the stream with the
/// earliest pending arrival (ties break toward the earlier stream), so
/// the output is deterministic in `(demand, rng)`.
///
/// # Panics
///
/// Panics if the demand shape is invalid (see field docs).
#[must_use]
pub fn generate_corridor<R: Rng + ?Sized>(
    demand: &CorridorDemand,
    rng: &mut R,
) -> (Vec<Arrival>, Vec<u32>) {
    demand.validate();
    #[allow(clippy::cast_possible_truncation)]
    let last = (demand.k - 1) as u32;
    // ((entry intersection, approach), rate) per stream.
    let mut streams = vec![
        ((0, Approach::West), demand.arterial_rate),
        ((last, Approach::East), demand.arterial_rate),
    ];
    for im in 0..demand.k {
        #[allow(clippy::cast_possible_truncation)]
        let im = im as u32;
        streams.push(((im, Approach::North), demand.cross_rate));
        streams.push(((im, Approach::South), demand.cross_rate));
    }

    let mut entry_ims = Vec::with_capacity(demand.total_vehicles as usize);
    let arrivals = merge_streams(
        rng,
        &streams,
        demand.total_vehicles,
        demand.line_speed,
        demand.min_headway,
        |_, (im, approach)| {
            entry_ims.push(im);
            Movement::new(approach, Turn::Straight)
        },
    );
    (arrivals, entry_ims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_prng::{SeedableRng, StdRng};

    fn demand(k: usize) -> CorridorDemand {
        CorridorDemand {
            k,
            arterial_rate: 0.4,
            cross_rate: 0.2,
            total_vehicles: 200,
            line_speed: MetersPerSecond::new(10.0),
            min_headway: Seconds::new(1.0),
        }
    }

    #[test]
    fn workload_is_sorted_dense_and_deterministic() {
        let (a, ims_a) = generate_corridor(&demand(4), &mut StdRng::seed_from_u64(7));
        let (b, ims_b) = generate_corridor(&demand(4), &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert_eq!(ims_a, ims_b);
        assert_eq!(a.len(), 200);
        assert_eq!(ims_a.len(), 200);
        for (i, arr) in a.iter().enumerate() {
            assert_eq!(arr.vehicle.0 as usize, i, "ids must be dense");
        }
        for w in a.windows(2) {
            assert!(w[0].at_line <= w[1].at_line, "must be time-sorted");
        }
    }

    #[test]
    fn entries_respect_the_corridor_shape() {
        let k = 4;
        let (arrivals, entry_ims) = generate_corridor(&demand(k), &mut StdRng::seed_from_u64(9));
        for (arr, &im) in arrivals.iter().zip(&entry_ims) {
            assert!((im as usize) < k);
            assert_eq!(arr.movement.turn, Turn::Straight);
            match arr.movement.approach {
                Approach::West => assert_eq!(im, 0, "westbound artery enters at 0"),
                Approach::East => assert_eq!(im as usize, k - 1, "eastbound enters at k-1"),
                Approach::North | Approach::South => {}
            }
        }
        // Every intersection sees some cross traffic at these rates.
        for im in 0..k as u32 {
            assert!(entry_ims.contains(&im), "no arrivals at intersection {im}");
        }
    }

    /// Constant-draw [`Rng`]: every stream's exponential samples are
    /// bit-identical, so every merge step is an all-streams tie.
    struct ConstantRng(u64);

    impl Rng for ConstantRng {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn exact_ties_break_toward_earlier_stream() {
        // With constant draws, the westbound (stream 0) and eastbound
        // (stream 1) arteries share one rate and therefore tie to the bit
        // at every step; the cross streams (a different rate) tie among
        // themselves the same way. The documented merge order is "earliest
        // pending arrival, ties toward the earlier stream" — so within
        // each tied group the emission order must be ascending stream
        // index, which for the arteries means West strictly before East.
        let mut d = demand(3);
        d.total_vehicles = 20;
        let (arrivals, entry_ims) = generate_corridor(&d, &mut ConstantRng(1 << 40));
        // Both arteries share a rate, so their draws stay in exact
        // lockstep: the j-th West emission and the j-th East emission are
        // one bit-identical tie, and West (the earlier stream) must win
        // each one.
        let west: Vec<usize> = arrivals
            .iter()
            .enumerate()
            .filter(|(_, a)| a.movement.approach == Approach::West)
            .map(|(i, _)| i)
            .collect();
        let east: Vec<usize> = arrivals
            .iter()
            .enumerate()
            .filter(|(_, a)| a.movement.approach == Approach::East)
            .map(|(i, _)| i)
            .collect();
        assert!(!west.is_empty() && !east.is_empty(), "both arteries emit");
        for (j, (&w, &e)) in west.iter().zip(&east).enumerate() {
            assert!(w < e, "tied artery wave {j}: West must emit before East");
        }
        // Cross streams are pushed in (im, North, South) order; within one
        // tied wave they must appear in exactly that order.
        let cross: Vec<(u32, Approach)> = arrivals
            .iter()
            .zip(&entry_ims)
            .filter(|(a, _)| matches!(a.movement.approach, Approach::North | Approach::South))
            .map(|(a, &im)| (im, a.movement.approach))
            .collect();
        let mut expected = Vec::new();
        for im in 0..3u32 {
            expected.push((im, Approach::North));
            expected.push((im, Approach::South));
        }
        let first_wave: Vec<(u32, Approach)> = cross.iter().copied().take(6).collect();
        assert_eq!(
            first_wave, expected,
            "tied cross streams must emit in declaration order"
        );
    }

    #[test]
    #[should_panic(expected = "min_headway must be finite")]
    fn nan_headway_panics() {
        let mut d = demand(2);
        d.min_headway = Seconds::new(f64::NAN);
        let _ = generate_corridor(&d, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "min_headway must be finite")]
    fn negative_headway_panics() {
        let mut d = demand(2);
        d.min_headway = Seconds::new(-0.5);
        let _ = generate_corridor(&d, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn same_lane_headway_holds_per_stream() {
        let (arrivals, entry_ims) = generate_corridor(&demand(3), &mut StdRng::seed_from_u64(3));
        let mut last: std::collections::HashMap<(u32, crossroads_intersection::Approach), f64> =
            std::collections::HashMap::new();
        for (arr, &im) in arrivals.iter().zip(&entry_ims) {
            let key = (im, arr.movement.approach);
            if let Some(prev) = last.get(&key) {
                assert!(
                    arr.at_line.value() - prev >= 1.0,
                    "headway violated on {key:?}"
                );
            }
            last.insert(key, arr.at_line.value());
        }
    }
}
