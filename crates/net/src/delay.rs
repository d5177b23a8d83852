//! Delay models: network latency, IM computation time, and the WC-RTD
//! budget.

use crossroads_prng::{Distribution, Rng, Uniform};
use crossroads_units::Seconds;

/// One-way network latency model: uniform in `[min, max]`.
///
/// The worst measured one-way latency on the paper's 2.4 GHz link was
/// 7.5 ms (15 ms round trip); [`NetworkDelayModel::scale_model`] captures
/// that envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkDelayModel {
    /// Fastest observed delivery.
    pub min: Seconds,
    /// Worst-case delivery (the bound the protocols rely on).
    pub max: Seconds,
}

impl NetworkDelayModel {
    /// Builds a validated model.
    ///
    /// Validation happens *here*, once — the per-frame
    /// [`sample`](Self::sample) path only debug-asserts. Callers that
    /// assemble the struct literally (the fields are public) get the same
    /// check at [`Channel::new`](crate::Channel::new).
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is negative/non-finite.
    #[must_use]
    pub fn new(min: Seconds, max: Seconds) -> Self {
        let model = NetworkDelayModel { min, max };
        model.validate();
        model
    }

    /// The testbed's radio link: 1–7.5 ms one way (15 ms worst round trip).
    #[must_use]
    pub fn scale_model() -> Self {
        NetworkDelayModel::new(Seconds::from_millis(1.0), Seconds::from_millis(7.5))
    }

    /// A zero-latency link for unit tests.
    #[must_use]
    pub fn instant() -> Self {
        NetworkDelayModel {
            min: Seconds::ZERO,
            max: Seconds::ZERO,
        }
    }

    /// Samples a one-way delivery latency.
    ///
    /// The bounds were validated at construction ([`new`](Self::new) or
    /// [`Channel::new`](crate::Channel::new)); this hot path only
    /// debug-asserts them.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Seconds {
        #[cfg(debug_assertions)]
        self.validate();
        if self.min == self.max {
            return self.min;
        }
        Seconds::new(Uniform::new_inclusive(self.min.value(), self.max.value()).sample(rng))
    }

    /// Asserts the bounds are usable. Called once per model from the
    /// validated constructors; the sampling hot path repeats it only in
    /// debug builds.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is negative/non-finite.
    pub(crate) fn validate(&self) {
        assert!(
            self.min.is_finite()
                && self.max.is_finite()
                && self.min.value() >= 0.0
                && self.min <= self.max,
            "invalid network delay bounds [{}, {}]",
            self.min,
            self.max
        );
    }
}

/// IM computation-time model: a base cost plus a cost per scheduling
/// operation the decision performs.
///
/// Requests queued at the IM wait for the decisions ahead of them, so a
/// burst of arrivals still costs the last one most, as the paper observes
/// ("longest when many vehicle requests are in the queue"); the budget
/// that bounds it is [`RtdBudget::scale_model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputationDelayModel {
    /// Cost of one decision before its scheduling work.
    pub base: Seconds,
    /// Cost per scheduling operation the decision performs (conflict-
    /// window scan or tile check): this is what makes AIM's trajectory
    /// simulation ~16× more expensive per decision than the interval
    /// policies, exactly as the paper measures.
    pub per_op: Seconds,
}

impl ComputationDelayModel {
    /// Calibrated to the testbed: 15 ms base and ~0.3 ms per scheduling
    /// operation on the Matlab/laptop IM (an AIM trajectory simulation of
    /// ~200 tile checks then costs ~75 ms, staying inside the 135 ms
    /// worst-case computation budget of [`RtdBudget::scale_model`]).
    #[must_use]
    pub fn scale_model() -> Self {
        ComputationDelayModel {
            base: Seconds::from_millis(15.0),
            per_op: Seconds::from_millis(0.3),
        }
    }

    /// Zero-cost computation for unit tests.
    #[must_use]
    pub fn instant() -> Self {
        ComputationDelayModel {
            base: Seconds::ZERO,
            per_op: Seconds::ZERO,
        }
    }

    /// Service time of one decision that performed `ops` scheduling
    /// operations.
    #[must_use]
    pub fn decision_time(&self, ops: u64) -> Seconds {
        #[allow(clippy::cast_precision_loss)]
        let n = ops as f64;
        self.base + self.per_op * n
    }
}

/// The worst-case round-trip-delay budget of Ch. 3/4.
///
/// `WC-RTD = WC-network (request) + WC-computation + WC-network (response)`
/// — bounded at 150 ms in the paper "for the sake of our experiments".
///
/// # Examples
///
/// ```
/// use crossroads_net::RtdBudget;
///
/// let b = RtdBudget::scale_model();
/// assert!((b.wc_rtd().as_millis() - 150.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtdBudget {
    /// Worst-case *round-trip* network delay (both directions).
    pub wc_network: Seconds,
    /// Worst-case computation delay.
    pub wc_computation: Seconds,
}

impl RtdBudget {
    /// The testbed's measured budget: 15 ms network + 135 ms computation.
    /// The computation bound is the paper's worst case, four simultaneous
    /// arrivals: at 15 ms base plus 30 ms per request in the queue, the
    /// last of the four finishes after 15 + 30·4 = 135 ms.
    #[must_use]
    pub fn scale_model() -> Self {
        RtdBudget {
            wc_network: Seconds::from_millis(15.0),
            wc_computation: Seconds::from_millis(135.0),
        }
    }

    /// Total worst-case round-trip delay.
    #[must_use]
    pub fn wc_rtd(&self) -> Seconds {
        self.wc_network + self.wc_computation
    }

    /// The extra *position* buffer a VT-IM must add: at top speed `v_max`,
    /// the command may land anywhere within `v_max · WC-RTD` of the
    /// intended actuation point (Ch. 4).
    #[must_use]
    pub fn position_buffer(
        &self,
        v_max: crossroads_units::MetersPerSecond,
    ) -> crossroads_units::Meters {
        v_max * self.wc_rtd()
    }

    /// The retransmission timeout vehicles use (Algorithm 2/6/8's
    /// `elapsed time < timeout` guard): the WC-RTD plus a small margin.
    #[must_use]
    pub fn retransmit_timeout(&self) -> Seconds {
        self.wc_rtd() + Seconds::from_millis(10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_prng::{SeedableRng, StdRng};
    use crossroads_units::MetersPerSecond;

    #[test]
    fn network_samples_within_bounds() {
        let m = NetworkDelayModel::scale_model();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10_000 {
            let d = m.sample(&mut rng);
            assert!(d >= m.min && d <= m.max);
        }
    }

    #[test]
    fn instant_network_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(NetworkDelayModel::instant().sample(&mut rng), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid network delay bounds")]
    fn inverted_bounds_panic_at_construction() {
        let _ = NetworkDelayModel::new(Seconds::from_millis(5.0), Seconds::from_millis(1.0));
    }

    #[test]
    fn decision_time_is_base_plus_ops() {
        let m = ComputationDelayModel::scale_model();
        assert!((m.decision_time(10).as_millis() - (15.0 + 3.0)).abs() < 1e-9);
        assert_eq!(m.decision_time(0), m.base);
    }

    #[test]
    fn rtd_budget_is_150ms() {
        let b = RtdBudget::scale_model();
        assert!((b.wc_rtd().as_millis() - 150.0).abs() < 1e-9);
        assert!(b.retransmit_timeout() > b.wc_rtd());
    }

    #[test]
    fn rtd_position_buffer_at_top_speed() {
        // 150 ms at 3 m/s = 0.45 m (the paper misprints this as 0.45 mm).
        let b = RtdBudget::scale_model();
        let buf = b.position_buffer(MetersPerSecond::new(3.0));
        assert!((buf.value() - 0.45).abs() < 1e-9);
    }
}
