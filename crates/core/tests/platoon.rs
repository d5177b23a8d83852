//! Platoon-based admission (PAIM) end to end: enabled runs must be
//! exhaustively safe (a follower's inherited slot never overlaps a
//! conflicting grant), must actually amortize the V2I message load when
//! columns form, and must degrade to the per-vehicle protocol — never to
//! a violation — when the IM crashes mid-platoon.

use crossroads_check::{ck_assert, ck_assert_eq, forall, Config};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{
    run_corridor, run_simulation, CorridorConfig, PlatoonConfig, SafetyReport, SimConfig,
    SimOutcome,
};
use crossroads_net::{FaultConfig, GilbertElliott};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::{generate_poisson, PoissonConfig};
use crossroads_units::{Meters, Seconds};

/// A Poisson workload sized for test-speed closed loops.
fn workload(
    config: &SimConfig,
    rate: f64,
    total: u32,
    seed: u64,
) -> Vec<crossroads_traffic::Arrival> {
    let mut poisson = PoissonConfig::sweep_point(rate, config.typical_line_speed());
    poisson.total_vehicles = total;
    generate_poisson(&poisson, &mut StdRng::seed_from_u64(seed))
}

fn run_point(policy: PolicyKind, rate: f64, seed: u64, platoon: PlatoonConfig) -> SimOutcome {
    let config = SimConfig::scale_model(policy)
        .with_seed(seed)
        .with_platoons(platoon);
    let w = workload(&config, rate, 48, seed.wrapping_add(1000));
    run_simulation(&config, &w)
}

/// The run's occupancy log re-audited by the exhaustive reference (every
/// pair, plain contact march).
fn exhaustive_audit(out: &SimOutcome, config: &SimConfig) -> SafetyReport {
    SafetyReport::audit_exhaustive_with_margin(
        out.safety.occupancies().to_vec(),
        &config.geometry,
        &config.spec,
        Meters::ZERO,
    )
}

/// A report's violations with exact time bits, for bit-for-bit
/// comparison of the run's own audit against the reference.
fn digest(report: &SafetyReport) -> Vec<(u32, u32, u64)> {
    report
        .violations()
        .iter()
        .map(|v| (v.first.0, v.second.0, v.at.value().to_bits()))
        .collect()
}

forall! {
    // Each case is a full closed-loop run; keep the count CI-sized
    // (CROSSROADS_CHECK_CASES scales it up for soak runs).
    config = Config::default().with_cases(24);

    /// The tentpole invariant, pinned against the exhaustive pairwise
    /// audit rather than the sweep-pruned one the harness uses: platooned
    /// admission never admits a follower whose inherited slot overlaps a
    /// conflicting grant — the physical occupancy log of an enabled run
    /// is violation-free under ground truth for every policy, rate, and
    /// platoon shape, and the run's own audit agrees with it exactly.
    fn follower_slots_never_overlap_conflicting_grants(
        policy_ix in 0usize..3,
        rate_centi in 10u32..90,
        seed in 0u64..1_000_000,
        max_size in 2u32..6,
        headway_tenths in 10u32..40,
    ) {
        let policy = PolicyKind::ALL[policy_ix];
        let rate = f64::from(rate_centi) / 100.0;
        let platoon = PlatoonConfig {
            max_size,
            headway: Seconds::new(f64::from(headway_tenths) / 10.0),
            ..PlatoonConfig::standard()
        };
        let out = run_point(policy, rate, seed, platoon);
        ck_assert!(
            out.all_completed(),
            "{policy} rate {rate} seed {seed} max {max_size}: \
             {}/{} vehicles completed",
            out.metrics.completed(),
            out.spawned,
        );
        let exhaustive = exhaustive_audit(&out, &SimConfig::scale_model(policy));
        ck_assert!(
            exhaustive.is_safe(),
            "{policy} rate {rate} seed {seed} max {max_size}: \
             inherited slot overlapped a conflicting grant: {:?}",
            exhaustive.violations(),
        );
        ck_assert_eq!(digest(&out.safety), digest(&exhaustive));
    }
}

/// Enabled queued traffic forms platoons, inherits grants, and puts
/// strictly fewer frames on the air than the per-vehicle baseline over
/// the same workload — the PAIM amortization claim.
#[test]
fn platooned_admission_reduces_message_load() {
    for policy in [PolicyKind::VtIm, PolicyKind::Aim] {
        let solo = run_point(policy, 0.6, 7, PlatoonConfig::disabled());
        let grouped = run_point(policy, 0.6, 7, PlatoonConfig::standard());
        assert!(
            grouped.all_completed() && grouped.safety.is_safe(),
            "{policy}"
        );
        let s = solo.metrics.counters();
        let g = grouped.metrics.counters();
        assert_eq!(
            (
                s.platoons_formed,
                s.platoon_followers,
                s.platoon_grants,
                s.platoon_fallbacks
            ),
            (0, 0, 0, 0),
            "{policy}: disabled run must not touch the platoon counters"
        );
        assert!(
            g.platoons_formed > 0 && g.platoon_grants > 0,
            "{policy}: queued traffic at 0.6 cars/s/lane must form platoons \
             (formed {}, grants {})",
            g.platoons_formed,
            g.platoon_grants,
        );
        assert!(
            g.messages < s.messages,
            "{policy}: platooned run must send fewer frames \
             ({} platooned vs {} solo)",
            g.messages,
            s.messages,
        );
    }
}

/// Crossroads admits so fast that the joinable window (leader still
/// negotiating) closes before the 1 s minimum same-lane headway lets a
/// follower cross the line: platooning must stay sound there even though
/// it rarely engages.
#[test]
fn crossroads_stays_sound_with_platoons_enabled() {
    let out = run_point(PolicyKind::Crossroads, 0.8, 3, PlatoonConfig::standard());
    assert!(
        out.all_completed(),
        "{}/{}",
        out.metrics.completed(),
        out.spawned
    );
    assert!(out.safety.is_safe(), "{:?}", out.safety.violations());
    let c = out.metrics.counters();
    assert!(
        c.platoon_grants >= c.platoon_fallbacks || c.platoons_formed == 0,
        "bookkeeping: grants {} fallbacks {} formed {}",
        c.platoon_grants,
        c.platoon_fallbacks,
        c.platoons_formed,
    );
}

/// An IM that crashes mid-platoon stalls the leader's negotiation past
/// the followers' inheritance deadline: they must detach to the
/// per-vehicle protocol (counted as fallbacks) and the run must stay
/// complete and violation-free under the exhaustive audit.
#[test]
fn im_crash_mid_platoon_degrades_to_per_vehicle_fallback() {
    let fault = FaultConfig {
        uplink: GilbertElliott::bursty(0.0),
        downlink: GilbertElliott::bursty(0.0),
        duplicate_probability: 0.0,
        reorder_probability: 0.0,
        extra_delay: Seconds::ZERO,
        // An outage longer than the 15 s inheritance deadline, recurring:
        // any platoon negotiating when the IM dies must hit the fallback
        // path.
        outage_start: Seconds::new(4.0),
        outage_duration: Seconds::new(18.0),
        outage_period: Seconds::new(60.0),
    };
    let config = SimConfig::scale_model(PolicyKind::VtIm)
        .with_seed(5)
        .with_platoons(PlatoonConfig::standard())
        .with_faults(fault);
    let w = workload(&config, 0.6, 64, 1005);
    let out = run_simulation(&config, &w);
    assert!(
        out.all_completed(),
        "{}/{}",
        out.metrics.completed(),
        out.spawned
    );
    let exhaustive = exhaustive_audit(&out, &config);
    assert!(exhaustive.is_safe(), "{:?}", exhaustive.violations());
    assert_eq!(digest(&out.safety), digest(&exhaustive));
    let c = out.metrics.counters();
    assert!(
        c.platoons_formed > 0,
        "the workload must actually platoon (formed {})",
        c.platoons_formed
    );
    assert!(
        c.platoon_fallbacks > 0,
        "an 18 s outage must strand at least one follower past its \
         deadline (fallbacks {})",
        c.platoon_fallbacks
    );
}

/// A platoon shape that puts followers inside their predecessor is
/// rejected before the first event on the serial engine.
#[test]
#[should_panic(expected = "gap_lengths")]
fn overlapping_follower_gap_is_rejected_by_run_simulation() {
    let platoon = PlatoonConfig {
        gap_lengths: 0.5,
        ..PlatoonConfig::standard()
    };
    let config = SimConfig::scale_model(PolicyKind::Crossroads).with_platoons(platoon);
    let w = workload(&config, 0.3, 8, 1);
    let _ = run_simulation(&config, &w);
}

/// The same check guards the windowed corridor engine.
#[test]
#[should_panic(expected = "max_size")]
fn single_member_platoon_is_rejected_by_the_windowed_corridor() {
    let platoon = PlatoonConfig {
        max_size: 1,
        ..PlatoonConfig::standard()
    };
    let sim = SimConfig::scale_model(PolicyKind::Crossroads).with_platoons(platoon);
    let w = workload(&sim, 0.3, 8, 1);
    let config = CorridorConfig::new(sim, 2).with_shard_workers(2);
    let _ = run_corridor(&config, &w, &[]);
}
