//! Mixed (non-compliant) traffic and the runtime safety filter, end to
//! end: the feature must be unobservable while disabled (byte-identity
//! contract of `CROSSROADS_MIXED` / `CROSSROADS_SAFETY_FILTER`), and
//! with it enabled the filter must be load-bearing — adversarial mixes
//! of humans, faulty executors and emergency vehicles produce zero
//! exhaustive-audit violations with the filter armed, while the
//! intervention counters show it actually fired.

use crossroads_check::{ck_assert, forall, Config};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{
    run_corridor, run_simulation, CorridorConfig, SafetyReport, SimConfig, SimOutcome,
};
use crossroads_metrics::{records_to_csv, run_to_json};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::{generate_poisson, MixedConfig, PoissonConfig};
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

/// Serialises a run to its full byte-comparable form (aggregate JSON +
/// per-vehicle CSV).
fn run_bytes(config: &SimConfig, rate: f64, seed: u64) -> (String, String) {
    let w = workload(config, rate, 48, seed.wrapping_add(1000));
    let out = run_simulation(config, &w);
    (
        run_to_json(&out.metrics),
        records_to_csv(out.metrics.records()),
    )
}

/// An adversarial mix: heavy human share, error-prone faulty vehicles
/// and enough emergency vehicles that preemption engages on most seeds.
fn adversarial_mix() -> MixedConfig {
    let mut mixed = MixedConfig::standard().with_shares(0.15, 0.10, 0.05);
    mixed.speed_error = 0.30;
    mixed.timing_error = Seconds::new(1.5);
    mixed
}

fn mixed_run(policy: PolicyKind, rate: f64, seed: u64, filter: bool) -> SimOutcome {
    let config = SimConfig::scale_model(policy)
        .with_seed(seed)
        .with_mixed(adversarial_mix())
        .with_safety_filter(filter);
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
    // Each case is three full closed-loop runs; keep the count CI-sized.
    config = Config::default().with_cases(12);

    /// The byte-identity contract: a run with mixed traffic explicitly
    /// disabled — and one with the safety filter armed over pure managed
    /// traffic (where it observes but by construction never fires) —
    /// must serialise byte-identically to the plain default run, for
    /// every policy, rate and seed.
    fn disabled_mixed_and_armed_filter_are_unobservable(
        policy_ix in 0usize..3,
        rate_centi in 10u32..90,
        seed in 0u64..1_000_000,
    ) {
        let policy = PolicyKind::ALL[policy_ix];
        let rate = f64::from(rate_centi) / 100.0;
        let plain = SimConfig::scale_model(policy).with_seed(seed);
        let disabled = plain.with_mixed(MixedConfig::disabled());
        let filtered = plain.with_safety_filter(true);
        let baseline = run_bytes(&plain, rate, seed);
        ck_assert!(
            baseline == run_bytes(&disabled, rate, seed),
            "{policy} rate {rate} seed {seed}: \
             explicit MixedConfig::disabled() perturbed the run"
        );
        ck_assert!(
            baseline == run_bytes(&filtered, rate, seed),
            "{policy} rate {rate} seed {seed}: \
             the armed filter perturbed a pure managed run"
        );
    }
}

/// The headline adversarial invariant: with the filter armed, every
/// policy survives a hostile compliance mix — humans crossing by gap
/// acceptance, faulty vehicles mis-executing grants by up to 30% speed
/// and 1.5 s launch slip, emergency vehicles preempting the box — with
/// every vehicle completing and the exhaustive pairwise audit of the
/// *executed* trajectories finding zero violations. The intervention
/// counters must show the filter and the preemption path actually
/// engaged somewhere on the grid, so the clean audits are evidence of
/// protection rather than of an idle monitor. The run's own audit must
/// agree with the exhaustive one exactly.
#[test]
fn filtered_adversarial_mix_is_exhaustively_safe() {
    let mut interventions = 0u64;
    let mut preemptions = 0u64;
    let mut conflicts = 0u64;
    for policy in PolicyKind::ALL {
        for seed in [3u64, 7, 11] {
            let out = mixed_run(policy, 0.5, seed, true);
            assert!(
                out.all_completed(),
                "{policy} seed {seed}: {}/{} vehicles completed",
                out.metrics.completed(),
                out.spawned,
            );
            let exhaustive = exhaustive_audit(&out, &SimConfig::scale_model(policy));
            assert!(
                exhaustive.is_safe(),
                "{policy} seed {seed}: executed trajectories collided: {:?}",
                exhaustive.violations(),
            );
            assert_eq!(digest(&out.safety), digest(&exhaustive));
            let c = out.metrics.counters();
            interventions += c.filter_interventions;
            preemptions += c.emergency_preemptions;
            conflicts += c.noncompliant_conflicts;
        }
    }
    assert!(
        interventions > 0,
        "the filter never fired across the whole adversarial grid"
    );
    assert!(
        conflicts > 0,
        "no granted downlink was ever vetoed against a non-compliant envelope"
    );
    assert!(
        preemptions > 0,
        "no emergency vehicle ever preempted the box"
    );
}

/// The filter is load-bearing, not decorative: the same adversarial grid
/// run *without* the veto (mixed traffic on, filter off — the registry
/// still guides human gap acceptance, but granted downlinks go through
/// unchecked against faulty/emergency envelopes) must produce at least
/// one exhaustive-audit violation somewhere. If it never does, the
/// clean audits above prove nothing about the filter. The run's own
/// audit must report the same violations at the same instants.
#[test]
fn unfiltered_adversarial_mix_shows_real_violations() {
    let mut violations = 0usize;
    for policy in PolicyKind::ALL {
        for seed in [3u64, 7, 11] {
            let out = mixed_run(policy, 0.5, seed, false);
            let exhaustive = exhaustive_audit(&out, &SimConfig::scale_model(policy));
            assert_eq!(
                digest(&out.safety),
                digest(&exhaustive),
                "{policy} seed {seed}: the run's audit disagrees with the reference"
            );
            violations += exhaustive.violations().len();
        }
    }
    assert!(
        violations > 0,
        "disarming the filter exposed no violations — the adversarial \
         grid is not actually adversarial"
    );
}

/// Compliance shares summing past 1 are rejected before the first event
/// on the serial engine.
#[test]
#[should_panic(expected = "human_share")]
fn oversubscribed_compliance_shares_are_rejected_by_run_simulation() {
    let config = SimConfig::scale_model(PolicyKind::Crossroads)
        .with_mixed(MixedConfig::standard().with_shares(0.6, 0.4, 0.2));
    let w = workload(&config, 0.3, 8, 1);
    let _ = run_simulation(&config, &w);
}

/// The same check guards the windowed corridor engine.
#[test]
#[should_panic(expected = "speed_error")]
fn out_of_range_speed_error_is_rejected_by_the_windowed_corridor() {
    let mut mixed = MixedConfig::standard();
    mixed.speed_error = 1.5;
    let sim = SimConfig::scale_model(PolicyKind::Crossroads).with_mixed(mixed);
    let w = workload(&sim, 0.3, 8, 1);
    let config = CorridorConfig::new(sim, 2).with_shard_workers(2);
    let _ = run_corridor(&config, &w, &[]);
}
