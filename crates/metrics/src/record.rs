//! Per-vehicle records and per-run aggregates.

use crossroads_units::{Seconds, TimePoint};
use crossroads_vehicle::VehicleId;

use crate::stats::Summary;

/// One vehicle's measured life through the intersection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleRecord {
    /// The vehicle.
    pub vehicle: VehicleId,
    /// When it crossed the transmission line (its "arrival").
    pub line_at: TimePoint,
    /// When its rear cleared the intersection box.
    pub cleared_at: TimePoint,
    /// How long the same trip would have taken unimpeded (free flow at the
    /// vehicle's limits).
    pub free_flow: Seconds,
    /// Requests this vehicle transmitted (retransmissions and AIM
    /// re-requests included).
    pub requests_sent: u32,
    /// Rejections it received (AIM's "no" replies).
    pub rejections: u32,
}

impl VehicleRecord {
    /// The wait (delay): trip time minus free-flow time, floored at zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use crossroads_metrics::VehicleRecord;
    /// use crossroads_units::{Seconds, TimePoint};
    /// use crossroads_vehicle::VehicleId;
    ///
    /// let r = VehicleRecord {
    ///     vehicle: VehicleId(1),
    ///     line_at: TimePoint::new(10.0),
    ///     cleared_at: TimePoint::new(13.5),
    ///     free_flow: Seconds::new(2.0),
    ///     requests_sent: 1,
    ///     rejections: 0,
    /// };
    /// assert_eq!(r.wait(), Seconds::new(1.5));
    /// ```
    #[must_use]
    pub fn wait(&self) -> Seconds {
        ((self.cleared_at - self.line_at) - self.free_flow).max(Seconds::ZERO)
    }

    /// Total trip time from the line to clearing the box.
    #[must_use]
    pub fn trip(&self) -> Seconds {
        self.cleared_at - self.line_at
    }
}

/// Declares [`Counters`] from one field list: the struct with its field
/// docs, [`Counters::absorb`] and the fields in the key order that
/// [`counters_to_json`](crate::counters_to_json) writes. A field is a
/// `u64` count or `Seconds`; the `@json` arm writes each as a JSON number.
macro_rules! counters {
    (@json $value:expr, u64) => {
        $value.to_string()
    };
    (@json $value:expr, Seconds) => {
        crate::export::fmt_f64($value.value())
    };
    ($($(#[$doc:meta])* $field:ident: $ty:ident,)*) => {
        /// Compute- and network-load counters for one run.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Counters {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Counters {
            /// Merges another counter set into this one.
            pub fn absorb(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }

            /// Calls `f` with each field's name and its value as JSON
            /// text, in declaration order.
            pub(crate) fn for_each_json(&self, mut f: impl FnMut(&'static str, String)) {
                $(f(stringify!($field), counters!(@json self.$field, $ty));)*
            }
        }
    };
}

counters! {
    /// Scheduling operations the IM performed (conflict scans, trajectory
    /// simulation steps) — the platform-independent computation metric.
    im_ops: u64,
    /// Requests the IM processed (accepted + rejected).
    im_requests: u64,
    /// Frames offered to the radio, both directions.
    messages: u64,
    /// Frames lost in the medium.
    messages_lost: u64,
    /// Simulated seconds the IM spent computing.
    im_busy: Seconds,
    /// Discrete events the DES engine dispatched for this run — the
    /// denominator-free measure of simulator work that `events/sec`
    /// reporting divides by wall time.
    des_events: u64,
    /// Commands that reached their vehicle *after* the execute-at deadline
    /// the WC-RTD contract promised (the vehicle detected and discarded
    /// them). Zero unless fault injection breaks the RTD envelope.
    deadline_misses: u64,
    /// Downlink commands a vehicle discarded as stale or late (deadline
    /// misses and superseded-state grants alike); each discard triggers
    /// the safe-stop-and-re-request fallback.
    late_discards: u64,
    /// Frames dropped by the injected Gilbert–Elliott burst channel, on
    /// top of the base channel's independent losses.
    burst_losses: u64,
    /// Uplink frames that reached the IM radio while the IM was crashed
    /// (plus requests queued inside the IM when it went down).
    im_outage_drops: u64,
    /// Safe stop-at-line fallback profiles vehicles installed (stop
    /// guards firing without a grant, and post-discard fallbacks).
    fallback_stops: u64,
    /// Platoons formed (a vehicle promoted to leader by its first
    /// follower). Zero unless platooned admission is enabled.
    platoons_formed: u64,
    /// Vehicles that joined a platoon as followers; platoon member counts
    /// sum to `platoons_formed + platoon_followers`.
    platoon_followers: u64,
    /// Followers granted by inheriting their leader's slot — each saved
    /// its own sync exchange, uplink(s) and downlink.
    platoon_grants: u64,
    /// Followers that detached to the per-vehicle protocol (the leader's
    /// grant did not cover them, the inherited slot was infeasible, or
    /// the fallback deadline expired — e.g. an IM crash mid-platoon).
    platoon_fallbacks: u64,
    /// Actuations the runtime safety filter vetoed or overrode (downlinks
    /// redirected into the safe stop-at-line fallback, and committed
    /// crossings revoked by an emergency preemption). Zero unless mixed
    /// traffic and the safety filter are enabled.
    filter_interventions: u64,
    /// Conflicts the filter detected between a granted occupancy envelope
    /// and the worst-case reachable set of a non-compliant (human, faulty
    /// or emergency) vehicle.
    noncompliant_conflicts: u64,
    /// Emergency vehicles granted a priority crossing by the filter's
    /// preemption path (flushing conflicting reservations where needed).
    emergency_preemptions: u64,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMetrics {
    records: Vec<VehicleRecord>,
    counters: Counters,
    /// Per-decision IM service latencies, in arrival order. The per-policy
    /// computation cost of each decision (the same quantity `im_busy`
    /// integrates) — kept individually so the export can report a
    /// distribution, not just the sum.
    decision_latencies: Vec<Seconds>,
}

impl RunMetrics {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Adds a completed vehicle.
    pub fn push(&mut self, r: VehicleRecord) {
        self.records.push(r);
    }

    /// Accumulates load counters.
    pub fn add_counters(&mut self, c: &Counters) {
        self.counters.absorb(c);
    }

    /// Records one IM decision's service latency.
    pub fn push_decision_latency(&mut self, latency: Seconds) {
        self.decision_latencies.push(latency);
    }

    /// Per-decision IM service latencies, in decision order.
    #[must_use]
    pub fn decision_latencies(&self) -> &[Seconds] {
        &self.decision_latencies
    }

    /// Distribution of the per-decision IM service latency.
    #[must_use]
    pub fn decision_latency_summary(&self) -> Summary {
        Summary::of(self.decision_latencies.iter().map(|s| s.value()))
    }

    /// Tail behaviour of the per-decision IM service latency.
    #[must_use]
    pub fn decision_latency_percentiles(&self) -> crate::stats::Percentiles {
        crate::stats::Percentiles::of(self.decision_latencies.iter().map(|s| s.value()))
    }

    /// Log2-bucketed histogram of the per-decision IM service latency.
    #[must_use]
    pub fn decision_latency_histogram(&self) -> crate::Histogram {
        crate::Histogram::of(self.decision_latencies.iter().map(|s| s.value()))
    }

    /// Log2-bucketed histogram of per-vehicle waits.
    #[must_use]
    pub fn wait_histogram(&self) -> crate::Histogram {
        crate::Histogram::of(self.records.iter().map(|r| r.wait().value()))
    }

    /// All per-vehicle records.
    #[must_use]
    pub fn records(&self) -> &[VehicleRecord] {
        &self.records
    }

    /// Load counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Number of vehicles that completed.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Wait-time distribution.
    #[must_use]
    pub fn wait_summary(&self) -> Summary {
        Summary::of(self.records.iter().map(|r| r.wait().value()))
    }

    /// Wait-time percentiles (tail behaviour under saturation).
    #[must_use]
    pub fn wait_percentiles(&self) -> crate::stats::Percentiles {
        crate::stats::Percentiles::of(self.records.iter().map(|r| r.wait().value()))
    }

    /// Average wait per vehicle (Fig. 7.1's y-axis). Zero when no vehicle
    /// completed.
    #[must_use]
    pub fn average_wait(&self) -> Seconds {
        if self.records.is_empty() {
            return Seconds::ZERO;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.records.len() as f64;
        Seconds::new(self.records.iter().map(|r| r.wait().value()).sum::<f64>() / n)
    }

    /// The paper's throughput: completed vehicles divided by total wait
    /// time (cars per wait-second, Fig. 7.2's y-axis). When the total wait
    /// is zero (free-flowing), returns `f64::INFINITY` — callers plotting
    /// the sweep clamp it.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let total_wait: f64 = self.records.iter().map(|r| r.wait().value()).sum();
        #[allow(clippy::cast_precision_loss)]
        let n = self.records.len() as f64;
        if total_wait <= 0.0 {
            if n == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            n / total_wait
        }
    }

    /// Vehicles that cleared per simulated second over the span between the
    /// first line-crossing and the last clearance — a conventional flow
    /// metric reported alongside the paper's wait-based throughput.
    #[must_use]
    pub fn flow_rate(&self) -> f64 {
        if self.records.len() < 2 {
            return 0.0;
        }
        let first = self
            .records
            .iter()
            .map(|r| r.line_at.value())
            .fold(f64::INFINITY, f64::min);
        let last = self
            .records
            .iter()
            .map(|r| r.cleared_at.value())
            .fold(f64::NEG_INFINITY, f64::max);
        if last <= first {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.records.len() as f64;
        n / (last - first)
    }

    /// Total requests transmitted by vehicles (network-load numerator).
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.records
            .iter()
            .map(|r| u64::from(r.requests_sent))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(v: u32, line: f64, cleared: f64, free: f64) -> VehicleRecord {
        VehicleRecord {
            vehicle: VehicleId(v),
            line_at: TimePoint::new(line),
            cleared_at: TimePoint::new(cleared),
            free_flow: Seconds::new(free),
            requests_sent: 1,
            rejections: 0,
        }
    }

    #[test]
    fn wait_floors_at_zero() {
        // Finished faster than "free flow" (possible with generous
        // rounding): wait clamps rather than going negative.
        let r = rec(1, 0.0, 1.0, 2.0);
        assert_eq!(r.wait(), Seconds::ZERO);
    }

    #[test]
    fn average_wait_and_throughput() {
        let mut m = RunMetrics::new();
        m.push(rec(1, 0.0, 3.0, 2.0)); // wait 1
        m.push(rec(2, 1.0, 6.0, 2.0)); // wait 3
        assert_eq!(m.average_wait(), Seconds::new(2.0));
        assert!((m.throughput() - 2.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.completed(), 2);
    }

    #[test]
    fn zero_wait_throughput_is_infinite() {
        let mut m = RunMetrics::new();
        m.push(rec(1, 0.0, 2.0, 2.0));
        assert!(m.throughput().is_infinite());
        let empty = RunMetrics::new();
        assert_eq!(empty.throughput(), 0.0);
    }

    #[test]
    fn flow_rate_spans_first_to_last() {
        let mut m = RunMetrics::new();
        m.push(rec(1, 0.0, 2.0, 2.0));
        m.push(rec(2, 4.0, 10.0, 2.0));
        assert!((m.flow_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn counters_absorb() {
        let mut a = Counters {
            im_ops: 1,
            im_requests: 2,
            messages: 3,
            messages_lost: 0,
            im_busy: Seconds::new(0.5),
            des_events: 100,
            deadline_misses: 1,
            late_discards: 2,
            burst_losses: 3,
            im_outage_drops: 4,
            fallback_stops: 5,
            platoons_formed: 6,
            platoon_followers: 7,
            platoon_grants: 8,
            platoon_fallbacks: 9,
            filter_interventions: 10,
            noncompliant_conflicts: 11,
            emergency_preemptions: 12,
        };
        let b = Counters {
            im_ops: 10,
            im_requests: 1,
            messages: 7,
            messages_lost: 2,
            im_busy: Seconds::new(1.0),
            des_events: 40,
            deadline_misses: 1,
            late_discards: 1,
            burst_losses: 1,
            im_outage_drops: 1,
            fallback_stops: 1,
            platoons_formed: 1,
            platoon_followers: 1,
            platoon_grants: 1,
            platoon_fallbacks: 1,
            filter_interventions: 1,
            noncompliant_conflicts: 1,
            emergency_preemptions: 1,
        };
        a.absorb(&b);
        assert_eq!(a.im_ops, 11);
        assert_eq!(a.messages, 10);
        assert_eq!(a.messages_lost, 2);
        assert_eq!(a.im_busy, Seconds::new(1.5));
        assert_eq!(a.des_events, 140);
        assert_eq!(a.deadline_misses, 2);
        assert_eq!(a.late_discards, 3);
        assert_eq!(a.burst_losses, 4);
        assert_eq!(a.im_outage_drops, 5);
        assert_eq!(a.fallback_stops, 6);
        assert_eq!(a.platoons_formed, 7);
        assert_eq!(a.platoon_followers, 8);
        assert_eq!(a.platoon_grants, 9);
        assert_eq!(a.platoon_fallbacks, 10);
        assert_eq!(a.filter_interventions, 11);
        assert_eq!(a.noncompliant_conflicts, 12);
        assert_eq!(a.emergency_preemptions, 13);
    }

    #[test]
    fn requests_aggregate() {
        let mut m = RunMetrics::new();
        let mut r = rec(1, 0.0, 3.0, 2.0);
        r.requests_sent = 5;
        m.push(r);
        m.push(rec(2, 0.0, 3.0, 2.0));
        assert_eq!(m.total_requests(), 6);
    }

    #[test]
    fn decision_latencies_feed_summary_and_histogram() {
        let mut m = RunMetrics::new();
        for ms in [0.4, 0.8, 1.6] {
            m.push_decision_latency(Seconds::from_millis(ms));
        }
        assert_eq!(m.decision_latencies().len(), 3);
        let s = m.decision_latency_summary();
        assert_eq!(s.count, 3);
        assert!((s.min - 0.0004).abs() < 1e-12);
        let p = m.decision_latency_percentiles();
        assert!((p.p50 - 0.0008).abs() < 1e-12);
        assert_eq!(m.decision_latency_histogram().count(), 3);
    }

    #[test]
    fn wait_histogram_counts_completed_vehicles() {
        let mut m = RunMetrics::new();
        m.push(rec(1, 0.0, 3.0, 2.0)); // wait 1
        m.push(rec(2, 0.0, 2.0, 2.0)); // wait 0
        let h = m.wait_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.zero(), 1);
        assert_eq!(h.bucket(0), 1);
    }

    #[test]
    fn wait_summary_reports_distribution() {
        let mut m = RunMetrics::new();
        for (i, w) in [1.0, 2.0, 3.0].iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            m.push(rec(i as u32, 0.0, 2.0 + w, 2.0));
        }
        let s = m.wait_summary();
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.max - 3.0).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12);
    }
}
