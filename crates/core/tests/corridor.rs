//! Corridor handoff properties: chaining K intersections must never
//! lose or duplicate a vehicle (even across IM outages), the windowed
//! engine must reproduce the serial engine bit for bit (with platoons and
//! mixed traffic too), a traced corridor must be the untraced one, and a
//! K = 1 corridor must be indistinguishable from the single-intersection
//! simulator.

use crossroads_check::{bools, ck_assert, forall, Config};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{
    run_corridor, run_corridor_traced, run_simulation, CorridorConfig, CorridorOutcome,
    PlatoonConfig, SimConfig,
};
use crossroads_net::{FaultConfig, GilbertElliott, RtdBudget};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_trace::Recorder;
use crossroads_traffic::{generate_corridor, CorridorDemand, MixedConfig};
use crossroads_units::Seconds;
use std::collections::{BTreeSet, HashSet};

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

/// The first part of the outcome on which `a` and `b` differ, if any —
/// the engines must agree on all of it bit for bit.
fn outcome_diff(a: &CorridorOutcome, b: &CorridorOutcome) -> Option<String> {
    let (ma, mb) = (&a.metrics, &b.metrics);
    if ma.records() != mb.records() {
        Some("records diverge".into())
    } else if ma.counters() != mb.counters() {
        Some(format!(
            "counters diverge ({:?} vs {:?})",
            ma.counters(),
            mb.counters()
        ))
    } else if ma.decision_latencies() != mb.decision_latencies() {
        Some("decision latency order diverges".into())
    } else if a.ended_at != b.ended_at {
        Some(format!("ended_at {} vs {}", a.ended_at, b.ended_at))
    } else if a.handoffs != b.handoffs {
        Some(format!("handoffs {} vs {}", a.handoffs, b.handoffs))
    } else if a.safety != b.safety {
        Some("audits diverge".into())
    } else if a.spawned != b.spawned {
        Some("spawned diverges".into())
    } else {
        None
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
    /// window lengths and worker counts, with platoons, mixed traffic
    /// under the safety filter, and recurring IM outage windows (which
    /// freely straddle barrier instants) thrown in.
    fn windowed_parallel_matches_serial(
        policy_ix in 0usize..3,
        k in 2usize..6,
        seed in 0u64..1_000_000,
        outage_tenths in 0u32..12,
        lookahead_tenths in 1u64..11,
        workers in 2usize..8,
        platoon in bools(),
        mixed in bools(),
    ) {
        let policy = PolicyKind::ALL[policy_ix];
        let mut sim = SimConfig::full_scale(policy)
            .with_seed(seed)
            .with_platoons(if platoon {
                PlatoonConfig::standard()
            } else {
                PlatoonConfig::disabled()
            })
            .with_mixed(if mixed {
                MixedConfig::standard()
            } else {
                MixedConfig::disabled()
            });
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
        let base = CorridorConfig::new(sim, k);
        #[allow(clippy::cast_precision_loss)]
        let lookahead = base.link_time * (lookahead_tenths as f64 / 10.0);

        let serial = run_corridor(&base, &workload, &entry_ims);
        let windowed = run_corridor(
            &base.with_shard_workers(workers).with_lookahead(lookahead),
            &workload,
            &entry_ims,
        );
        let diff = outcome_diff(&windowed, &serial);
        ck_assert!(
            diff.is_none(),
            "{policy} K={k} seed {seed} w={workers} la={lookahead} platoon={platoon} \
             mixed={mixed}: {}",
            diff.unwrap_or_default(),
        );
    }
}

/// A WC-RTD budget longer than the link leaves no positive derived
/// lookahead. The windowed engine then runs `link_time` windows (any
/// window in `(0, link_time]` is exact) and matches the serial engine.
#[test]
fn windowed_matches_serial_when_wc_rtd_exceeds_the_link() {
    let mut sim = SimConfig::full_scale(PolicyKind::Crossroads).with_seed(42);
    sim.buffers.rtd = RtdBudget {
        wc_network: Seconds::from_millis(10.0),
        wc_computation: Seconds::from_millis(2500.0),
    };
    let base = CorridorConfig::new(sim, 2).with_link_time(Seconds::new(2.0));
    assert_eq!(base.effective_lookahead(), base.link_time);
    let (workload, entry_ims) = workload_for(&sim, 2, 0.06, 40, 42);

    let serial = run_corridor(&base, &workload, &entry_ims);
    assert!(serial.all_completed(), "{}/40", serial.metrics.completed());
    let windowed = run_corridor(&base.with_shard_workers(2), &workload, &entry_ims);
    assert_eq!(outcome_diff(&windowed, &serial), None);
}

/// A loaded K = 8 corridor: 2,000 vehicles at 0.08 car/s per arterial
/// direction and 0.04 on cross lanes, the benchmark corridor's rates, so
/// that vehicles cross the lane-block boundaries of 2, 3 and 8 workers in
/// both directions in most rounds. For every policy the windowed engine
/// at each of those worker counts reproduces the serial engine.
#[test]
fn windowed_matches_serial_on_a_loaded_corridor() {
    const K: usize = 8;
    for policy in PolicyKind::ALL {
        let sim = SimConfig::full_scale(policy).with_seed(11);
        let demand = CorridorDemand {
            cross_rate: 0.04,
            ..demand(&sim, K, 0.08, 2_000)
        };
        let mut rng = StdRng::seed_from_u64(11 + 2000);
        let (workload, entry_ims) = generate_corridor(&demand, &mut rng);
        let base = CorridorConfig::new(sim, K);
        let serial = run_corridor(&base, &workload, &entry_ims);
        assert!(serial.all_completed(), "{policy}: vehicles stranded");
        for workers in [2, 3, 8] {
            let windowed = run_corridor(&base.with_shard_workers(workers), &workload, &entry_ims);
            let diff = outcome_diff(&windowed, &serial);
            assert!(
                diff.is_none(),
                "{policy} w={workers}: {}",
                diff.unwrap_or_default()
            );
        }
    }
}

/// A traced corridor is the untraced one with a recorder attached: for
/// every policy at K = 3 the traced outcome equals `run_corridor` on the
/// serial and on the windowed engine, the recorder keeps every record,
/// dispatch stamps never decrease, and every intersection records into
/// the one trace.
#[test]
fn traced_corridor_matches_untraced_engines() {
    const K: usize = 3;
    for policy in PolicyKind::ALL {
        let sim = SimConfig::full_scale(policy).with_seed(42);
        let (workload, entry_ims) = workload_for(&sim, K, 0.06, 90, 42);
        let base = CorridorConfig::new(sim, K);
        let mut recorder = Recorder::fixed(1 << 20);
        // Shard workers are set, but a traced run takes the serial engine.
        let traced = run_corridor_traced(
            &base.with_shard_workers(2),
            &workload,
            &entry_ims,
            &mut recorder,
        );
        for workers in [0, 2] {
            let untraced = run_corridor(&base.with_shard_workers(workers), &workload, &entry_ims);
            assert_eq!(
                outcome_diff(&traced, &untraced),
                None,
                "{policy} w={workers}"
            );
        }
        assert!(traced.handoffs > 0, "{policy}: no vehicle crossed a link");

        let trace = recorder.into_trace();
        assert_eq!(trace.dropped, 0, "{policy}");
        assert!(
            trace
                .records
                .windows(2)
                .all(|w| w[0].dispatch <= w[1].dispatch),
            "{policy}: dispatch stamps decrease"
        );
        #[allow(clippy::cast_possible_truncation)]
        let all: BTreeSet<u32> = (0..K as u32).collect();
        let named: BTreeSet<u32> = trace.records.iter().map(|r| r.im).collect();
        assert_eq!(named, all, "{policy}");
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

/// One run of the liveness item's platoon × mixed-traffic stall shape:
/// VT-IM on a full-scale `k`-intersection corridor with 6 s links,
/// platoons, mixed traffic and the safety filter, no faults, and
/// `vehicles` arrivals at 0.08 car/s per arterial direction and 0.04
/// on cross lanes (RNG seed `seed + 2000`). `workers` 0 is the serial
/// engine.
fn stall_run(k: usize, vehicles: u32, seed: u64, workers: usize) -> CorridorOutcome {
    let sim = SimConfig::full_scale(PolicyKind::VtIm)
        .with_seed(seed)
        .with_platoons(PlatoonConfig::standard())
        .with_mixed(MixedConfig::standard());
    let demand = CorridorDemand {
        cross_rate: 0.04,
        ..demand(&sim, k, 0.08, vehicles)
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2000));
    let (workload, entry_ims) = generate_corridor(&demand, &mut rng);
    let config = CorridorConfig::new(sim, k)
        .with_link_time(Seconds::new(6.0))
        .with_shard_workers(workers);
    run_corridor(&config, &workload, &entry_ims)
}

/// The smallest stall reproducers (VT-IM, K = 2, 240 vehicles, seed 7;
/// K = 4, 2,000 vehicles, seed 6) strand vehicles, but cheaply and
/// consistently: the windowed engine at 2 and 4 workers reproduces the
/// serial run, no vehicle is lost or duplicated, every audit is clean,
/// and the run takes a bounded number of events — a held vehicle waits
/// parked on its lane instead of re-polling every 200 ms (the polling
/// engine spent 455,123 and 8,163,237 events on these runs). Completion
/// is not asserted: the deadlock itself is still open.
#[test]
fn platoon_mixed_stall_reproducers_stay_cheap_and_consistent() {
    for (k, vehicles, seed, max_events) in [(2, 240, 7, 100_000), (4, 2_000, 6, 500_000)] {
        let serial = stall_run(k, vehicles, seed, 0);
        let case = format!("K={k} {vehicles} vehicles seed {seed}");
        for workers in [2, 4] {
            let windowed = stall_run(k, vehicles, seed, workers);
            let diff = outcome_diff(&windowed, &serial);
            assert!(
                diff.is_none(),
                "{case} w={workers}: {}",
                diff.unwrap_or_default()
            );
        }
        let ids: HashSet<_> = serial.metrics.records().iter().map(|r| r.vehicle).collect();
        assert_eq!(
            ids.len(),
            serial.metrics.records().len(),
            "{case}: duplicated record"
        );
        assert_eq!(
            serial.metrics.completed() + serial.stranded(),
            serial.spawned,
            "{case}: vehicles lost"
        );
        assert!(serial.is_safe(), "{case}: audit violation");
        let events = serial.metrics.counters().des_events;
        assert!(
            events < max_events,
            "{case}: {events} DES events, polling is back"
        );
    }
}
