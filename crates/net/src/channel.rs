//! A lossy half-duplex V2I channel with delivery-time sampling and traffic
//! accounting.
//!
//! The channel does not own an event queue; it *prices* each transmission
//! (delivery latency or loss) and the caller schedules the delivery on its
//! DES. This keeps the networking model reusable by any executive and makes
//! the traffic counters — the basis of the Ch. 7.2 network-overhead
//! comparison — live in one place.

use crossroads_prng::Rng;
use crossroads_units::Seconds;

use crate::delay::NetworkDelayModel;

/// Channel parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// One-way latency model.
    pub latency: NetworkDelayModel,
    /// Probability a frame is lost (no delivery, no NACK — the sender's
    /// timeout is the only recovery, as on the testbed radios).
    pub loss_probability: f64,
}

impl ChannelConfig {
    /// The testbed link: 1–7.5 ms latency, 1 % frame loss.
    #[must_use]
    pub fn scale_model() -> Self {
        ChannelConfig {
            latency: NetworkDelayModel::scale_model(),
            loss_probability: 0.01,
        }
    }

    /// A perfect, instantaneous link for unit tests.
    #[must_use]
    pub fn ideal() -> Self {
        ChannelConfig {
            latency: NetworkDelayModel::instant(),
            loss_probability: 0.0,
        }
    }
}

/// Traffic counters, split by direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames handed to the channel, vehicle → IM.
    pub uplink_sent: u64,
    /// Frames handed to the channel, IM → vehicle.
    pub downlink_sent: u64,
    /// Frames lost in either direction.
    pub lost: u64,
}

impl ChannelStats {
    /// Total frames offered to the medium — the paper's "network traffic".
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.uplink_sent + self.downlink_sent
    }
}

/// Direction-tagged outcome of a send: delivered after a latency, or lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// Frame arrives `latency` after transmission.
    Delivered {
        /// Sampled one-way latency.
        latency: Seconds,
    },
    /// Frame vanished; the sender's timeout must recover.
    Lost,
}

/// The shared medium. One instance models the whole intersection's radio
/// environment (the testbed used a single 2.4 GHz channel).
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
    stats: ChannelStats,
}

impl Channel {
    /// Creates a channel with the given configuration, validating it
    /// once here so the per-frame `transmit` path only debug-asserts.
    ///
    /// # Panics
    ///
    /// Panics if the loss probability is outside `[0, 1]` or the latency
    /// bounds are inverted/negative/non-finite.
    #[must_use]
    pub fn new(config: ChannelConfig) -> Self {
        let p = config.loss_probability;
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1], got {p}"
        );
        config.latency.validate();
        Channel {
            config,
            stats: ChannelStats::default(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Cumulative traffic counters.
    #[must_use]
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Prices an uplink (vehicle → IM) transmission.
    pub fn send_uplink<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SendOutcome {
        self.stats.uplink_sent += 1;
        self.transmit(rng)
    }

    /// Prices a downlink (IM → vehicle) transmission.
    pub fn send_downlink<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SendOutcome {
        self.stats.downlink_sent += 1;
        self.transmit(rng)
    }

    fn transmit<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SendOutcome {
        let p = self.config.loss_probability;
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1], got {p}"
        );
        if p > 0.0 && rng.gen_bool(p) {
            self.stats.lost += 1;
            return SendOutcome::Lost;
        }
        SendOutcome::Delivered {
            latency: self.config.latency.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_prng::{SeedableRng, StdRng};

    #[test]
    fn ideal_channel_never_loses_and_is_instant() {
        let mut ch = Channel::new(ChannelConfig::ideal());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            match ch.send_uplink(&mut rng) {
                SendOutcome::Delivered { latency } => assert_eq!(latency, Seconds::ZERO),
                SendOutcome::Lost => panic!("ideal channel lost a frame"),
            }
        }
        assert_eq!(ch.stats().lost, 0);
        assert_eq!(ch.stats().uplink_sent, 1000);
    }

    #[test]
    fn scale_model_latency_within_bounds() {
        let mut ch = Channel::new(ChannelConfig::scale_model());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            if let SendOutcome::Delivered { latency } = ch.send_downlink(&mut rng) {
                assert!(latency >= Seconds::from_millis(1.0));
                assert!(latency <= Seconds::from_millis(7.5));
            }
        }
    }

    #[test]
    fn loss_rate_is_plausible() {
        let mut ch = Channel::new(ChannelConfig {
            loss_probability: 0.2,
            ..ChannelConfig::ideal()
        });
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let _ = ch.send_uplink(&mut rng);
        }
        let rate = ch.stats().lost as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn stats_split_directions() {
        let mut ch = Channel::new(ChannelConfig::ideal());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3 {
            let _ = ch.send_uplink(&mut rng);
        }
        for _ in 0..5 {
            let _ = ch.send_downlink(&mut rng);
        }
        let s = ch.stats();
        assert_eq!(s.uplink_sent, 3);
        assert_eq!(s.downlink_sent, 5);
        assert_eq!(s.total_sent(), 8);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics_at_construction() {
        let _ = Channel::new(ChannelConfig {
            loss_probability: 1.5,
            ..ChannelConfig::ideal()
        });
    }

    #[test]
    #[should_panic(expected = "invalid network delay bounds")]
    fn invalid_latency_bounds_panic_at_construction() {
        let _ = Channel::new(ChannelConfig {
            latency: NetworkDelayModel {
                min: Seconds::from_millis(9.0),
                max: Seconds::from_millis(1.0),
            },
            loss_probability: 0.0,
        });
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut ch = Channel::new(ChannelConfig::scale_model());
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|_| match ch.send_uplink(&mut rng) {
                    SendOutcome::Delivered { latency } => latency.value(),
                    SendOutcome::Lost => -1.0,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
