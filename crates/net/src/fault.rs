//! Fault injection: bursty loss, frame duplication/reordering, and IM
//! outages layered on top of the base [`Channel`](crate::Channel) model.
//!
//! The paper measures the V2I loop only inside its WC-RTD envelope; this
//! module models the regimes *outside* it — correlated loss bursts (a
//! Gilbert–Elliott two-state channel), duplicated and reordered frames,
//! and scheduled IM crash/restart windows — so the executive can measure
//! how each protocol degrades when the comms assumptions break. The model
//! is strictly additive: a disabled [`FaultConfig`] injects nothing and
//! consumes no randomness from the simulation's main stream (all fault
//! draws come from dedicated [`stream`](crossroads_prng::StdRng::stream)
//! children of the run seed), so fault-free traces are byte-identical to
//! a build without the subsystem.

use crossroads_prng::{Rng, StdRng};
use crossroads_units::Seconds;

use crate::channel::SendOutcome;

/// RNG stream ids for the fault model's dedicated generators. Vehicle
/// noise streams use small ids (the vehicle number), so these live far
/// away in the id space.
const STREAM_UPLINK: u64 = 0xFA17_0000_0000_0001;
const STREAM_DOWNLINK: u64 = 0xFA17_0000_0000_0002;
const STREAM_AUX: u64 = 0xFA17_0000_0000_0003;

/// A Gilbert–Elliott two-state loss channel: the medium alternates
/// between a Good and a Bad state with per-frame transition
/// probabilities, and drops each offered frame with a per-state loss
/// probability. This produces the *correlated* loss bursts real radios
/// exhibit, which independent per-frame loss (the base channel model)
/// cannot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-frame probability of a Good → Bad transition.
    pub p_good_to_bad: f64,
    /// Per-frame probability of a Bad → Good transition.
    pub p_bad_to_good: f64,
    /// Loss probability while in the Good state.
    pub loss_good: f64,
    /// Loss probability while in the Bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A chain that never leaves the Good state and never drops: the
    /// disabled configuration.
    #[must_use]
    pub fn off() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 0.0,
        }
    }

    /// A bursty channel whose *long-run mean* loss rate is `mean_loss`,
    /// concentrated in bursts of ~4 frames (every frame offered during a
    /// Bad dwell is dropped). With recovery probability `r = 0.25` the
    /// stationary Bad probability `g/(g+r)` equals `mean_loss` when
    /// `g = mean_loss · r / (1 − mean_loss)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ mean_loss ≤ 0.9` (a mean above 0.9 leaves the
    /// retransmission loop no workable channel).
    #[must_use]
    pub fn bursty(mean_loss: f64) -> Self {
        assert!(
            (0.0..=0.9).contains(&mean_loss),
            "mean burst loss must be in [0, 0.9], got {mean_loss}"
        );
        if mean_loss == 0.0 {
            return GilbertElliott::off();
        }
        let recovery = 0.25;
        GilbertElliott {
            p_good_to_bad: mean_loss * recovery / (1.0 - mean_loss),
            p_bad_to_good: recovery,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Whether this chain can ever drop a frame.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.loss_good == 0.0 && (self.loss_bad == 0.0 || self.p_good_to_bad == 0.0)
    }

    fn validate(&self) {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "Gilbert-Elliott {name} must be a probability, got {p}"
            );
        }
    }

    /// Advances the chain by one offered frame and reports whether that
    /// frame is lost. Always consumes exactly two draws, so the chain's
    /// trajectory is a pure function of (seed, frames offered).
    fn advance<R: Rng + ?Sized>(&self, bad: &mut bool, rng: &mut R) -> bool {
        let u_trans = rng.next_f64();
        if *bad {
            if u_trans < self.p_bad_to_good {
                *bad = false;
            }
        } else if u_trans < self.p_good_to_bad {
            *bad = true;
        }
        let loss = if *bad { self.loss_bad } else { self.loss_good };
        rng.next_f64() < loss
    }
}

/// Everything the fault injector can do to one run. All-zero (see
/// [`disabled`](Self::disabled)) means the subsystem is inert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Bursty-loss chain applied to vehicle → IM frames.
    pub uplink: GilbertElliott,
    /// Bursty-loss chain applied to IM → vehicle frames.
    pub downlink: GilbertElliott,
    /// Per-delivered-frame probability the frame is duplicated (the copy
    /// arrives up to `extra_delay / 2` later).
    pub duplicate_probability: f64,
    /// Per-delivered-frame probability the frame is held back by
    /// `0.5–1 × extra_delay`, letting later frames overtake it.
    pub reorder_probability: f64,
    /// Displacement scale for duplication and reordering. Values beyond
    /// the WC-RTD margin push reordered downlinks past their `T_E`
    /// deadline — the late-command regime.
    pub extra_delay: Seconds,
    /// Simulation time of the first IM crash.
    pub outage_start: Seconds,
    /// How long each outage lasts (zero disables outages). While down,
    /// the IM drops every uplink and loses its in-flight computations;
    /// granted reservations are conservatively retained (vehicles will
    /// execute them regardless; the restarted IM only prunes expired
    /// bookkeeping).
    pub outage_duration: Seconds,
    /// Gap between successive crash starts (zero means a single outage).
    /// Must exceed `outage_duration` so the IM has up-time between
    /// crashes.
    pub outage_period: Seconds,
}

impl FaultConfig {
    /// No faults: the simulation behaves exactly as without the
    /// subsystem.
    #[must_use]
    pub fn disabled() -> Self {
        FaultConfig {
            uplink: GilbertElliott::off(),
            downlink: GilbertElliott::off(),
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            extra_delay: Seconds::ZERO,
            outage_start: Seconds::ZERO,
            outage_duration: Seconds::ZERO,
            outage_period: Seconds::ZERO,
        }
    }

    /// Whether any fault mechanism is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.uplink.is_off()
            || !self.downlink.is_off()
            || self.duplicate_probability > 0.0
            || self.reorder_probability > 0.0
            || self.outage_duration.value() > 0.0
    }

    /// Validates every knob once, at construction time (the per-frame
    /// path never re-checks).
    ///
    /// # Panics
    ///
    /// Panics on any probability outside `[0, 1]`, a negative or
    /// non-finite delay/window, or an outage period no longer than the
    /// outage itself.
    pub fn validate(&self) {
        self.uplink.validate();
        self.downlink.validate();
        for (name, p) in [
            ("duplicate_probability", self.duplicate_probability),
            ("reorder_probability", self.reorder_probability),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "fault {name} must be a probability, got {p}"
            );
        }
        for (name, s) in [
            ("extra_delay", self.extra_delay),
            ("outage_start", self.outage_start),
            ("outage_duration", self.outage_duration),
            ("outage_period", self.outage_period),
        ] {
            assert!(
                s.is_finite() && s.value() >= 0.0,
                "fault {name} must be finite and non-negative, got {s}"
            );
        }
        assert!(
            self.outage_period.value() == 0.0 || self.outage_period > self.outage_duration,
            "outage period {} must exceed outage duration {} (the IM needs up-time)",
            self.outage_period,
            self.outage_duration
        );
        assert!(
            (self.duplicate_probability == 0.0 && self.reorder_probability == 0.0)
                || self.extra_delay.value() > 0.0,
            "duplication/reordering need a positive extra_delay displacement"
        );
    }

    /// The crash/restart windows falling within `horizon`, as
    /// `(crash_at, restart_at)` offsets from the simulation origin.
    #[must_use]
    pub fn outage_windows(&self, horizon: Seconds) -> Vec<(Seconds, Seconds)> {
        let mut windows = Vec::new();
        if self.outage_duration.value() <= 0.0 {
            return windows;
        }
        let mut start = self.outage_start;
        while start <= horizon {
            windows.push((start, start + self.outage_duration));
            if self.outage_period.value() <= 0.0 {
                break;
            }
            start += self.outage_period;
        }
        windows
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// What the injector did to a run's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped by the Gilbert–Elliott chains (on top of the base
    /// channel's independent losses).
    pub burst_losses: u64,
    /// Extra frame copies injected by duplication.
    pub duplicated: u64,
    /// Frames held back by the reordering knob.
    pub reordered: u64,
}

/// Which way a frame is travelling (each direction owns an independent
/// loss chain and RNG stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Vehicle → IM.
    Uplink,
    /// IM → vehicle.
    Downlink,
}

/// Delivery latencies for one offered frame after fault processing: none
/// (lost), one, or two (duplicated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deliveries {
    slots: [Option<Seconds>; 2],
}

impl Deliveries {
    /// The frame was lost.
    #[must_use]
    pub fn none() -> Self {
        Deliveries {
            slots: [None, None],
        }
    }

    /// A single delivery after `latency`.
    #[must_use]
    pub fn one(latency: Seconds) -> Self {
        Deliveries {
            slots: [Some(latency), None],
        }
    }

    /// Original and duplicate delivery latencies.
    #[must_use]
    pub fn two(first: Seconds, second: Seconds) -> Self {
        Deliveries {
            slots: [Some(first), Some(second)],
        }
    }

    /// The delivery latencies, in injection order.
    pub fn iter(&self) -> impl Iterator<Item = Seconds> + '_ {
        self.slots.iter().flatten().copied()
    }

    /// Number of copies that will arrive.
    #[must_use]
    pub fn count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Latency of the first copy in injection order, `None` when the
    /// frame was lost. This is the value the flight-recorder trace stamps
    /// on send records, so a diverging delay draw is visible at the send,
    /// not first at the (reordered) arrival.
    #[must_use]
    pub fn first_latency(&self) -> Option<Seconds> {
        self.slots.iter().flatten().next().copied()
    }
}

impl From<SendOutcome> for Deliveries {
    fn from(outcome: SendOutcome) -> Self {
        match outcome {
            SendOutcome::Delivered { latency } => Deliveries::one(latency),
            SendOutcome::Lost => Deliveries::none(),
        }
    }
}

/// The stateful injector: per-direction Gilbert–Elliott chains plus the
/// duplication/reordering machinery. All randomness comes from dedicated
/// [`stream`](StdRng::stream) children of the run's root generator, so
/// the injected fault pattern is a pure function of the run seed —
/// independent of thread count, event order, and the main stream's draw
/// history.
#[derive(Debug, Clone)]
pub struct FaultModel {
    config: FaultConfig,
    up_bad: bool,
    up_rng: StdRng,
    down_bad: bool,
    down_rng: StdRng,
    aux: StdRng,
    stats: FaultStats,
}

impl FaultModel {
    /// Builds the injector, validating the configuration once.
    ///
    /// # Panics
    ///
    /// Panics if [`FaultConfig::validate`] rejects the configuration.
    #[must_use]
    pub fn new(config: FaultConfig, root: &StdRng) -> Self {
        FaultModel::for_shard(config, root, 0)
    }

    /// Per-intersection injector for corridor worlds: shard `i`'s streams
    /// are offset from the base constants so every IM sees an independent
    /// fault pattern, still derived from the root seed alone (independent
    /// of the main stream's draw history). `for_shard(cfg, root, 0)` is
    /// exactly [`FaultModel::new`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FaultConfig::validate`]).
    #[must_use]
    pub fn for_shard(config: FaultConfig, root: &StdRng, shard: u64) -> Self {
        config.validate();
        // The base constants differ in the low byte; shards shift into the
        // next bytes so no two (direction, shard) pairs collide.
        let offset = shard.wrapping_mul(0x100);
        FaultModel {
            config,
            up_bad: false,
            up_rng: root.stream(STREAM_UPLINK.wrapping_add(offset)),
            down_bad: false,
            down_rng: root.stream(STREAM_DOWNLINK.wrapping_add(offset)),
            aux: root.stream(STREAM_AUX.wrapping_add(offset)),
            stats: FaultStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Cumulative injection counters.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Runs one frame (already priced by the base channel) through the
    /// fault pipeline: the direction's loss chain advances per *offered*
    /// frame, then surviving deliveries may be reordered (held back) or
    /// duplicated.
    pub fn filter(&mut self, direction: Direction, outcome: SendOutcome) -> Deliveries {
        let (ge, bad, rng) = match direction {
            Direction::Uplink => (&self.config.uplink, &mut self.up_bad, &mut self.up_rng),
            Direction::Downlink => (
                &self.config.downlink,
                &mut self.down_bad,
                &mut self.down_rng,
            ),
        };
        let burst_lost = ge.advance(bad, rng);
        let SendOutcome::Delivered { latency } = outcome else {
            return Deliveries::none(); // base channel already lost it
        };
        if burst_lost {
            self.stats.burst_losses += 1;
            return Deliveries::none();
        }
        let extra = self.config.extra_delay;
        let mut first = latency;
        if self.config.reorder_probability > 0.0
            && self.aux.gen_bool(self.config.reorder_probability)
        {
            // Hold the frame back far enough that frames sent after it
            // can overtake: a reordering event, and — when `extra`
            // exceeds the schedule's slack — a deadline miss.
            first += extra * self.aux.gen_range(0.5..1.0);
            self.stats.reordered += 1;
        }
        if self.config.duplicate_probability > 0.0
            && self.aux.gen_bool(self.config.duplicate_probability)
        {
            self.stats.duplicated += 1;
            let second = latency + extra * self.aux.gen_range(0.0..0.5);
            return Deliveries::two(first, second);
        }
        Deliveries::one(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_prng::SeedableRng;

    fn root(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn first_latency_follows_injection_order() {
        assert_eq!(Deliveries::none().first_latency(), None);
        assert_eq!(
            Deliveries::one(Seconds::new(0.02)).first_latency(),
            Some(Seconds::new(0.02))
        );
        assert_eq!(
            Deliveries::two(Seconds::new(0.25), Seconds::new(0.02)).first_latency(),
            Some(Seconds::new(0.25))
        );
    }

    #[test]
    fn disabled_config_is_inert_and_valid() {
        let cfg = FaultConfig::disabled();
        cfg.validate();
        assert!(!cfg.enabled());
        assert!(cfg.outage_windows(Seconds::new(1e6)).is_empty());
        let mut model = FaultModel::new(cfg, &root(1));
        for _ in 0..1000 {
            let d = model.filter(
                Direction::Uplink,
                SendOutcome::Delivered {
                    latency: Seconds::from_millis(2.0),
                },
            );
            assert_eq!(d.count(), 1);
            assert_eq!(d.iter().next(), Some(Seconds::from_millis(2.0)));
        }
        assert_eq!(model.stats(), FaultStats::default());
    }

    #[test]
    fn bursty_mean_loss_matches_target() {
        for target in [0.1, 0.3] {
            let cfg = FaultConfig {
                uplink: GilbertElliott::bursty(target),
                ..FaultConfig::disabled()
            };
            let mut model = FaultModel::new(cfg, &root(7));
            let n = 200_000;
            let mut lost = 0u64;
            for _ in 0..n {
                let d = model.filter(
                    Direction::Uplink,
                    SendOutcome::Delivered {
                        latency: Seconds::ZERO,
                    },
                );
                if d.count() == 0 {
                    lost += 1;
                }
            }
            #[allow(clippy::cast_precision_loss)]
            let rate = lost as f64 / f64::from(n);
            assert!(
                (rate - target).abs() < 0.02,
                "target {target}, observed {rate}"
            );
            assert_eq!(model.stats().burst_losses, lost);
        }
    }

    #[test]
    fn losses_are_bursty_not_independent() {
        // Consecutive-loss runs must be far longer than an independent
        // channel at the same mean would produce: with mean 0.2 and
        // burst length ~4, P(loss | previous loss) ≈ 0.75 vs 0.2.
        let cfg = FaultConfig {
            uplink: GilbertElliott::bursty(0.2),
            ..FaultConfig::disabled()
        };
        let mut model = FaultModel::new(cfg, &root(3));
        let outcomes: Vec<bool> = (0..100_000)
            .map(|_| {
                model
                    .filter(
                        Direction::Uplink,
                        SendOutcome::Delivered {
                            latency: Seconds::ZERO,
                        },
                    )
                    .count()
                    == 0
            })
            .collect();
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let both = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        #[allow(clippy::cast_precision_loss)]
        let cond = both as f64 / pairs as f64;
        assert!(cond > 0.5, "P(loss|loss) = {cond}, losses not correlated");
    }

    #[test]
    fn directions_use_independent_streams() {
        let cfg = FaultConfig {
            uplink: GilbertElliott::bursty(0.3),
            downlink: GilbertElliott::bursty(0.3),
            ..FaultConfig::disabled()
        };
        let mut model = FaultModel::new(cfg, &root(11));
        let up: Vec<usize> = (0..200)
            .map(|_| {
                model
                    .filter(
                        Direction::Uplink,
                        SendOutcome::Delivered {
                            latency: Seconds::ZERO,
                        },
                    )
                    .count()
            })
            .collect();
        let mut model2 = FaultModel::new(cfg, &root(11));
        let down: Vec<usize> = (0..200)
            .map(|_| {
                model2
                    .filter(
                        Direction::Downlink,
                        SendOutcome::Delivered {
                            latency: Seconds::ZERO,
                        },
                    )
                    .count()
            })
            .collect();
        assert_ne!(up, down, "directions should not share a loss pattern");
    }

    #[test]
    fn duplication_and_reordering_inject() {
        let cfg = FaultConfig {
            duplicate_probability: 0.5,
            reorder_probability: 0.5,
            extra_delay: Seconds::from_millis(100.0),
            ..FaultConfig::disabled()
        };
        let mut model = FaultModel::new(cfg, &root(5));
        let base = Seconds::from_millis(2.0);
        let mut dups = 0;
        for _ in 0..1000 {
            let d = model.filter(
                Direction::Downlink,
                SendOutcome::Delivered { latency: base },
            );
            assert!(d.count() >= 1, "dup/reorder never lose the frame");
            if d.count() == 2 {
                dups += 1;
            }
            for latency in d.iter() {
                assert!(latency >= base);
                assert!(latency <= base + Seconds::from_millis(100.0));
            }
        }
        assert!((300..700).contains(&dups), "observed {dups}/1000 dups");
        let stats = model.stats();
        assert!(stats.duplicated > 0 && stats.reordered > 0);
        assert_eq!(stats.burst_losses, 0);
    }

    #[test]
    fn filter_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            uplink: GilbertElliott::bursty(0.25),
            duplicate_probability: 0.1,
            reorder_probability: 0.1,
            extra_delay: Seconds::from_millis(50.0),
            ..FaultConfig::disabled()
        };
        let run = |seed| {
            let mut model = FaultModel::new(cfg, &root(seed));
            (0..500)
                .map(|_| {
                    model
                        .filter(
                            Direction::Uplink,
                            SendOutcome::Delivered {
                                latency: Seconds::from_millis(1.0),
                            },
                        )
                        .count()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn outage_windows_repeat_until_horizon() {
        let cfg = FaultConfig {
            outage_start: Seconds::new(5.0),
            outage_duration: Seconds::new(2.0),
            outage_period: Seconds::new(10.0),
            ..FaultConfig::disabled()
        };
        cfg.validate();
        assert!(cfg.enabled());
        let w = cfg.outage_windows(Seconds::new(30.0));
        assert_eq!(
            w,
            vec![
                (Seconds::new(5.0), Seconds::new(7.0)),
                (Seconds::new(15.0), Seconds::new(17.0)),
                (Seconds::new(25.0), Seconds::new(27.0)),
            ]
        );
        // Single-shot when period is zero.
        let once = FaultConfig {
            outage_period: Seconds::ZERO,
            ..cfg
        };
        assert_eq!(once.outage_windows(Seconds::new(30.0)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "outage period")]
    fn period_shorter_than_outage_rejected() {
        FaultConfig {
            outage_start: Seconds::ZERO,
            outage_duration: Seconds::new(5.0),
            outage_period: Seconds::new(2.0),
            ..FaultConfig::disabled()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn bad_probability_rejected_at_construction() {
        let cfg = FaultConfig {
            duplicate_probability: 1.5,
            extra_delay: Seconds::from_millis(1.0),
            ..FaultConfig::disabled()
        };
        let _ = FaultModel::new(cfg, &root(0));
    }

    #[test]
    fn base_loss_still_counts_as_lost() {
        let mut model = FaultModel::new(FaultConfig::disabled(), &root(2));
        let d = model.filter(Direction::Uplink, SendOutcome::Lost);
        assert_eq!(d.count(), 0);
        assert_eq!(model.stats().burst_losses, 0, "base loss is not a burst");
    }
}
