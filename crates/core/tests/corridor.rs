//! Corridor handoff properties: chaining K intersections must never
//! lose or duplicate a vehicle (even across IM outages), the windowed
//! engine must reproduce the serial engine bit for bit, and a K = 1
//! corridor must be indistinguishable from the single-intersection
//! simulator.

use crossroads_check::{ck_assert, forall, Config};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{run_corridor, run_simulation, CorridorConfig, SimConfig};
use crossroads_net::{FaultConfig, GilbertElliott};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::{generate_corridor, CorridorDemand};
use crossroads_units::Seconds;
use std::collections::HashSet;

fn demand(config: &SimConfig, k: usize, arterial_rate: f64, vehicles: u32) -> CorridorDemand {
    CorridorDemand {
        k,
        arterial_rate,
        cross_rate: arterial_rate / 2.0,
        total_vehicles: vehicles,
        line_speed: config.typical_line_speed(),
        min_headway: Seconds::new(1.0),
    }
}

fn workload_for(
    config: &SimConfig,
    k: usize,
    rate: f64,
    vehicles: u32,
    seed: u64,
) -> (Vec<crossroads_traffic::Arrival>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(9000));
    generate_corridor(&demand(config, k, rate, vehicles), &mut rng)
}

forall! {
    // Each case is a full corridor run; keep the count CI-sized
    // (CROSSROADS_CHECK_CASES scales it up for soak runs).
    config = Config::default().with_cases(12);

    /// Conservation across the corridor: every spawned vehicle clears its
    /// final box exactly once — none lost in a handoff, none duplicated —
    /// including when every IM crashes and restarts on a recurring
    /// outage schedule mid-run.
    fn no_vehicle_is_lost_or_duplicated(
        policy_ix in 0usize..3,
        k in 1usize..5,
        seed in 0u64..1_000_000,
        outage_tenths in 0u32..12,
    ) {
        let policy = PolicyKind::ALL[policy_ix];
        let mut sim = SimConfig::full_scale(policy).with_seed(seed);
        if outage_tenths > 0 {
            sim = sim.with_faults(FaultConfig {
                uplink: GilbertElliott::bursty(0.10),
                downlink: GilbertElliott::bursty(0.10),
                duplicate_probability: 0.02,
                reorder_probability: 0.05,
                extra_delay: Seconds::from_millis(220.0),
                outage_start: Seconds::new(5.0),
                outage_duration: Seconds::new(f64::from(outage_tenths) / 10.0),
                outage_period: Seconds::new(20.0),
            });
        }
        #[allow(clippy::cast_possible_truncation)]
        let vehicles = (30 * k) as u32;
        let (workload, entry_ims) = workload_for(&sim, k, 0.06, vehicles, seed);
        let out = run_corridor(&CorridorConfig::new(sim, k), &workload, &entry_ims);

        ck_assert!(
            out.metrics.completed() + out.stranded() == out.spawned,
            "{policy} K={k} seed {seed}: completed {} + stranded {} != spawned {}",
            out.metrics.completed(),
            out.stranded(),
            out.spawned,
        );
        ck_assert!(
            out.all_completed(),
            "{policy} K={k} seed {seed} outage {:.1}s: {}/{} vehicles completed",
            f64::from(outage_tenths) / 10.0,
            out.metrics.completed(),
            out.spawned,
        );
        let ids: HashSet<_> = out.metrics.records().iter().map(|r| r.vehicle).collect();
        ck_assert!(
            ids.len() == out.metrics.records().len(),
            "{policy} K={k} seed {seed}: a vehicle cleared the corridor twice",
        );
        ck_assert!(
            out.is_safe(),
            "{policy} K={k} seed {seed}: safety violation in a shard audit",
        );
    }
}

forall! {
    config = Config::default().with_cases(12);

    /// The conservative time-windowed parallel engine is bit-identical to
    /// the serial engine: same per-vehicle records (f64s and all), same
    /// counters (including the f64 `im_busy` accumulation), same audits,
    /// same end time — across random policies, corridor lengths, seeds,
    /// window lengths and worker counts, with recurring IM outage windows
    /// (which freely straddle barrier instants) thrown in.
    fn windowed_parallel_matches_serial(
        policy_ix in 0usize..3,
        k in 2usize..6,
        seed in 0u64..1_000_000,
        outage_tenths in 0u32..12,
        lookahead_tenths in 1u64..11,
        workers in 2usize..8,
    ) {
        let policy = PolicyKind::ALL[policy_ix];
        let mut sim = SimConfig::full_scale(policy).with_seed(seed);
        if outage_tenths > 0 {
            sim = sim.with_faults(FaultConfig {
                uplink: GilbertElliott::bursty(0.10),
                downlink: GilbertElliott::bursty(0.10),
                duplicate_probability: 0.02,
                reorder_probability: 0.05,
                extra_delay: Seconds::from_millis(220.0),
                outage_start: Seconds::new(5.0),
                outage_duration: Seconds::new(f64::from(outage_tenths) / 10.0),
                outage_period: Seconds::new(20.0),
            });
        }
        #[allow(clippy::cast_possible_truncation)]
        let vehicles = (30 * k) as u32;
        let (workload, entry_ims) = workload_for(&sim, k, 0.06, vehicles, seed);
        let base = CorridorConfig::new(sim, k).with_shard_workers(0);
        #[allow(clippy::cast_precision_loss)]
        let lookahead = base.link_time * (lookahead_tenths as f64 / 10.0);

        let serial = run_corridor(&base, &workload, &entry_ims);
        let windowed = run_corridor(
            &base.with_shard_workers(workers).with_lookahead(lookahead),
            &workload,
            &entry_ims,
        );

        ck_assert!(
            windowed.metrics.records() == serial.metrics.records(),
            "{policy} K={k} seed {seed} w={workers} la={lookahead}: records diverge",
        );
        ck_assert!(
            windowed.metrics.counters() == serial.metrics.counters(),
            "{policy} K={k} seed {seed} w={workers} la={lookahead}: counters diverge \
             ({:?} vs {:?})",
            windowed.metrics.counters(),
            serial.metrics.counters(),
        );
        ck_assert!(
            windowed.metrics.decision_latencies() == serial.metrics.decision_latencies(),
            "{policy} K={k} seed {seed} w={workers} la={lookahead}: \
             decision latency order diverges",
        );
        ck_assert!(
            windowed.ended_at == serial.ended_at,
            "{policy} K={k} seed {seed} w={workers} la={lookahead}: \
             ended_at {} vs {}",
            windowed.ended_at,
            serial.ended_at,
        );
        ck_assert!(
            windowed.handoffs == serial.handoffs,
            "{policy} K={k} seed {seed} w={workers} la={lookahead}: \
             handoffs {} vs {}",
            windowed.handoffs,
            serial.handoffs,
        );
        ck_assert!(
            windowed.safety == serial.safety,
            "{policy} K={k} seed {seed} w={workers} la={lookahead}: audits diverge",
        );
        ck_assert!(
            windowed.spawned == serial.spawned,
            "{policy} K={k} seed {seed}: spawned diverges",
        );
    }
}

/// A K = 1 corridor is exactly the single-intersection simulator: same
/// per-vehicle records, same load counters, same audit, same end time.
#[test]
fn single_intersection_corridor_matches_run_simulation() {
    for policy in PolicyKind::ALL {
        let sim = SimConfig::full_scale(policy).with_seed(42);
        let (workload, entry_ims) = workload_for(&sim, 1, 0.08, 120, 42);
        let single = run_simulation(&sim, &workload);
        let corridor = run_corridor(&CorridorConfig::new(sim, 1), &workload, &entry_ims);

        assert_eq!(
            corridor.metrics.records(),
            single.metrics.records(),
            "{policy}"
        );
        assert_eq!(
            corridor.metrics.counters(),
            single.metrics.counters(),
            "{policy}"
        );
        assert_eq!(corridor.ended_at, single.ended_at, "{policy}");
        assert_eq!(corridor.safety.len(), 1, "{policy}");
        assert_eq!(corridor.safety[0], single.safety, "{policy}");
        assert_eq!(
            corridor.handoffs, 0,
            "{policy}: K=1 has no links to hand off over"
        );
    }
}
