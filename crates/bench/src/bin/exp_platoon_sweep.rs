//! Extension experiment — platoon-based admission (PAIM) against the
//! per-vehicle request loop, across the Fig. 7.2 flow axis, a rush-hour
//! wave, and an IM-crash fault scenario.
//!
//! Platooning amortizes the V2I protocol: one sync exchange, one uplink
//! and one downlink admit a whole same-movement column, with followers
//! inheriting the leader's slot at fixed entry offsets. The experiment
//! measures what that amortization buys each policy — frames per vehicle
//! and queue wait — and what it costs when the substrate misbehaves: an
//! IM that crashes mid-platoon must strand no one (followers detach to
//! the per-vehicle protocol at the inheritance deadline) and must never
//! trade safety for the saved messages. Every run here asserts full
//! completion and a clean safety audit.
//!
//! Crossroads forms almost no platoons by design: it admits a stopped
//! vehicle faster than the workload's 1 s minimum headway delivers a
//! joinable follower, so the leader has already been granted when the
//! next vehicle crosses the line. The interesting rows are VT-IM and
//! AIM, whose queues hold vehicles long enough to column up.

use crossroads_bench::{
    knobs, run_sound_point, sweep_workload, table_header, SWEEP_RATES, SWEEP_SEEDS,
};
use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{PlatoonConfig, SimOutcome};
use crossroads_net::{FaultConfig, GilbertElliott};
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::{generate_rush_hour, PoissonConfig, RateProfile};
use crossroads_units::Seconds;

/// One sweep point: full-scale intersection, optional platooning, sound
/// by assertion.
fn run_point(policy: PolicyKind, rate: f64, seed: u64, platooned: bool) -> SimOutcome {
    let platoon = if platooned {
        PlatoonConfig::standard()
    } else {
        PlatoonConfig::disabled()
    };
    let config = knobs()
        .full_scale(policy)
        .with_seed(seed)
        .with_platoons(platoon);
    let workload = sweep_workload(&config, rate, seed.wrapping_add(1000));
    let mode = if platooned { "paim" } else { "solo" };
    let label = format!("{policy}@{rate}-{mode}-s{seed}");
    run_sound_point(&config, &workload, &label)
}

/// The IM-crash scenario: a clean channel, but the IM dies for 18 s —
/// longer than the 15 s grant-inheritance deadline — out of every 60 s.
/// Any platoon negotiating when the crash lands must hit the fallback
/// path.
fn crash_fault() -> FaultConfig {
    FaultConfig {
        uplink: GilbertElliott::bursty(0.0),
        downlink: GilbertElliott::bursty(0.0),
        duplicate_probability: 0.0,
        reorder_probability: 0.0,
        extra_delay: Seconds::ZERO,
        outage_start: Seconds::new(5.0),
        outage_duration: Seconds::new(18.0),
        outage_period: Seconds::new(60.0),
    }
}

#[allow(clippy::cast_precision_loss)]
fn per_vehicle(count: u64, out: &SimOutcome) -> f64 {
    count as f64 / out.spawned.max(1) as f64
}

#[allow(clippy::too_many_lines)]
fn main() {
    let (rates, seeds) = (SWEEP_RATES, SWEEP_SEEDS);

    // --- Section 1: the Fig. 7.2 flow axis, per-vehicle vs platooned ---
    let mut points: Vec<(PolicyKind, f64, u64, bool)> = Vec::new();
    for policy in PolicyKind::ALL {
        for &rate in &rates {
            for &seed in &seeds {
                for platooned in [false, true] {
                    points.push((policy, rate, seed, platooned));
                }
            }
        }
    }
    let outcomes = crossroads_bench::par_run(&points, |&(policy, rate, seed, platooned)| {
        run_point(policy, rate, seed, platooned)
    });

    println!("# Extension — platooned admission (PAIM) vs per-vehicle requests\n");
    println!(
        "Safety audit: PASS on all {} runs (both modes, every rate).\n",
        points.len()
    );
    println!("## Flow sweep (msgs = radio frames per vehicle, averaged over seeds)\n");
    table_header(&[
        "policy",
        "rate",
        "msgs solo",
        "msgs paim",
        "saved",
        "formed",
        "grants",
        "fallbacks",
        "wait solo (s)",
        "wait paim (s)",
    ]);

    #[allow(clippy::cast_precision_loss)]
    let n_seeds = seeds.len() as f64;
    let mut solo_messages = 0u64;
    let mut paim_messages = 0u64;
    let mut paim_grants = 0u64;
    for policy in PolicyKind::ALL {
        for &rate in &rates {
            let mut msgs = [0.0f64; 2];
            let mut wait = [0.0f64; 2];
            let mut formed = 0u64;
            let mut grants = 0u64;
            let mut fallbacks = 0u64;
            for (point, out) in points.iter().zip(&outcomes) {
                if point.0 != policy || point.1 != rate {
                    continue;
                }
                let c = out.metrics.counters();
                let mode = usize::from(point.3);
                msgs[mode] += per_vehicle(c.messages, out);
                wait[mode] += out.metrics.average_wait().value();
                if point.3 {
                    formed += c.platoons_formed;
                    grants += c.platoon_grants;
                    fallbacks += c.platoon_fallbacks;
                    paim_messages += c.messages;
                    paim_grants += c.platoon_grants;
                } else {
                    solo_messages += c.messages;
                }
            }
            let (solo, paim) = (msgs[0] / n_seeds, msgs[1] / n_seeds);
            println!(
                "| {policy} | {rate} | {solo:.2} | {paim:.2} | {:.1}% | {formed} | {grants} | {fallbacks} | {:.2} | {:.2} |",
                (solo - paim) / solo * 100.0,
                wait[0] / n_seeds,
                wait[1] / n_seeds,
            );
        }
    }
    assert!(
        paim_grants > 0,
        "the sweep must exercise inherited grants (0 granted followers)"
    );
    assert!(
        paim_messages < solo_messages,
        "platooned admission must save frames overall \
         ({paim_messages} paim vs {solo_messages} solo)"
    );

    // --- Section 2: rush-hour wave ---
    let span = Seconds::new(240.0);
    let profile = RateProfile::morning_peak(span, 0.05, 0.7);
    let mut wave_points: Vec<(PolicyKind, bool)> = Vec::new();
    for policy in PolicyKind::ALL {
        for platooned in [false, true] {
            wave_points.push((policy, platooned));
        }
    }
    let wave_outcomes = crossroads_bench::par_run(&wave_points, |&(policy, platooned)| {
        let platoon = if platooned {
            PlatoonConfig::standard()
        } else {
            PlatoonConfig::disabled()
        };
        let config = knobs()
            .full_scale(policy)
            .with_seed(23)
            .with_platoons(platoon);
        let mut rng = StdRng::seed_from_u64(230);
        let base = PoissonConfig::sweep_point(0.1, config.typical_line_speed());
        let workload = generate_rush_hour(&profile, &base, &mut rng);
        run_sound_point(&config, &workload, &format!("{policy}-wave-{platooned}"))
    });
    println!(
        "\n## Rush-hour wave (0.05 -> 0.7 -> 0.05 car/s/lane over {:.0} s)\n",
        span.value()
    );
    table_header(&[
        "policy",
        "mode",
        "vehicles",
        "msgs/veh",
        "avg wait (s)",
        "p95 wait (s)",
        "formed",
        "grants",
        "fallbacks",
    ]);
    for (&(policy, platooned), out) in wave_points.iter().zip(&wave_outcomes) {
        let c = out.metrics.counters();
        println!(
            "| {policy} | {} | {} | {:.2} | {:.1} | {:.1} | {} | {} | {} |",
            if platooned { "paim" } else { "solo" },
            out.metrics.completed(),
            per_vehicle(c.messages, out),
            out.metrics.average_wait().value(),
            out.metrics.wait_percentiles().p95,
            c.platoons_formed,
            c.platoon_grants,
            c.platoon_fallbacks,
        );
    }

    // --- Section 3: IM crash mid-platoon ---
    let crash_rate = 0.6;
    let crash_points: Vec<PolicyKind> = PolicyKind::ALL.to_vec();
    let crash_outcomes = crossroads_bench::par_run(&crash_points, |&policy| {
        let config = knobs()
            .full_scale(policy)
            .with_seed(5)
            .with_platoons(PlatoonConfig::standard())
            .with_faults(crash_fault());
        let workload = sweep_workload(&config, crash_rate, 1005);
        run_sound_point(&config, &workload, &format!("{policy}-crash"))
    });
    println!("\n## IM crash mid-platoon (18 s outage every 60 s at {crash_rate} car/s/lane)\n");
    println!("Followers whose leader's negotiation dies with the IM detach to the");
    println!("per-vehicle protocol at the 15 s inheritance deadline; the run stays");
    println!("complete and violation-free at every policy.\n");
    table_header(&[
        "policy",
        "vehicles",
        "avg wait (s)",
        "formed",
        "grants",
        "fallbacks",
        "outage drops",
    ]);
    for (policy, out) in crash_points.iter().zip(&crash_outcomes) {
        let c = out.metrics.counters();
        println!(
            "| {policy} | {} | {:.1} | {} | {} | {} | {} |",
            out.metrics.completed(),
            out.metrics.average_wait().value(),
            c.platoons_formed,
            c.platoon_grants,
            c.platoon_fallbacks,
            c.im_outage_drops,
        );
    }
}
