//! Edge-case behaviour of the closed loop: degenerate workloads, broken
//! radios, analytic single-vehicle timings.

use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::{run_corridor, run_simulation, CorridorConfig, SimConfig};
use crossroads_intersection::{Approach, Movement, Turn};
use crossroads_net::FaultConfig;
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::{generate_poisson, Arrival, PoissonConfig};
use crossroads_units::kinematics;
use crossroads_units::{MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{VehicleId, VehicleSpec};

fn single(speed: f64) -> Vec<Arrival> {
    vec![Arrival {
        vehicle: VehicleId(0),
        movement: Movement::new(Approach::South, Turn::Straight),
        at_line: TimePoint::new(1.0),
        speed: MetersPerSecond::new(speed),
    }]
}

#[test]
fn empty_workload_is_a_clean_no_op() {
    for policy in PolicyKind::ALL {
        let out = run_simulation(&SimConfig::scale_model(policy), &[]);
        assert_eq!(out.spawned, 0);
        assert_eq!(out.metrics.completed(), 0);
        assert!(out.safety.is_safe());
        assert_eq!(out.metrics.counters().messages, 0);
    }
}

#[test]
fn lone_crossroads_vehicle_matches_analytic_trip() {
    // One vehicle, empty intersection: the trip equals holding v0 until
    // T_E = T_T + WC-RTD, then flooring it — computable by hand.
    let config = SimConfig::scale_model(PolicyKind::Crossroads).with_seed(11);
    let out = run_simulation(&config, &single(1.5));
    assert!(out.all_completed());
    let r = &out.metrics.records()[0];
    let spec = VehicleSpec::scale_model();

    // Hold 1.5 m/s for ~0.15 s (plus sync handshake before T_T), then
    // accelerate to 3 and cruise: trip over 3 + 1.2 + 0.568 m.
    let total = 3.0 + 1.2 + spec.length.value();
    // Lower bound: free-flow with zero protocol latency.
    let v_reach = (1.5f64.powi(2) + 2.0 * spec.a_max.value() * total)
        .sqrt()
        .min(3.0);
    let free = kinematics::accel_cruise(
        MetersPerSecond::new(1.5),
        MetersPerSecond::new(v_reach),
        spec.a_max,
        crossroads_units::Meters::new(total),
    )
    .unwrap()
    .total_time;
    let trip = r.trip();
    assert!(trip >= free, "trip {trip} cannot beat free flow {free}");
    // Upper bound: free flow + sync + WC-RTD hold penalty (~0.2 s at
    // these speeds) + slack.
    assert!(
        trip <= free + Seconds::new(0.35),
        "trip {trip} vs free {free}: protocol overhead too large"
    );
}

#[test]
fn lone_vt_vehicle_is_faster_than_lone_crossroads_vehicle() {
    // The documented trade-off: in zero-conflict traffic VT-IM pays only
    // the realized RTD while Crossroads always pays the worst case.
    let vt = run_simulation(
        &SimConfig::scale_model(PolicyKind::VtIm).with_seed(11),
        &single(1.5),
    );
    let xr = run_simulation(
        &SimConfig::scale_model(PolicyKind::Crossroads).with_seed(11),
        &single(1.5),
    );
    assert!(vt.all_completed() && xr.all_completed());
    let (vt_trip, xr_trip) = (
        vt.metrics.records()[0].trip(),
        xr.metrics.records()[0].trip(),
    );
    assert!(
        vt_trip < xr_trip,
        "lone VT trip {vt_trip} should undercut Crossroads {xr_trip}"
    );
    // …but by no more than the WC-RTD budget.
    assert!(xr_trip - vt_trip <= Seconds::from_millis(200.0));
}

#[test]
fn dead_radio_strands_vehicles_gracefully() {
    // 100% loss: nothing ever completes, but the run terminates at its
    // horizon without panicking and reports the stranding.
    for policy in PolicyKind::ALL {
        let mut config = SimConfig::scale_model(policy).with_seed(1);
        config.channel.loss_probability = 1.0;
        config.horizon_slack = Seconds::new(30.0);
        let out = run_simulation(&config, &single(1.5));
        assert_eq!(out.metrics.completed(), 0, "{policy}");
        assert!(!out.all_completed());
        assert!(out.safety.is_safe());
        // The vehicle kept retransmitting into the void.
        assert!(out.metrics.counters().messages > 3, "{policy}");
    }
}

#[test]
fn stopped_vehicle_zero_speed_arrival_is_handled() {
    // A vehicle that crosses the line already crawling at near-zero speed
    // must still complete under every policy (it stops and re-requests).
    for policy in PolicyKind::ALL {
        let out = run_simulation(&SimConfig::scale_model(policy).with_seed(5), &single(0.3));
        assert!(out.all_completed(), "{policy}: slow arrival stranded");
        assert!(out.safety.is_safe());
    }
}

#[test]
fn all_turns_complete_for_every_policy() {
    for policy in PolicyKind::ALL {
        for turn in [Turn::Straight, Turn::Left, Turn::Right] {
            let w = vec![Arrival {
                vehicle: VehicleId(0),
                movement: Movement::new(Approach::East, turn),
                at_line: TimePoint::new(0.5),
                speed: MetersPerSecond::new(1.5),
            }];
            let out = run_simulation(&SimConfig::scale_model(policy).with_seed(2), &w);
            assert!(out.all_completed(), "{policy} {turn}");
            assert!(out.safety.is_safe(), "{policy} {turn}");
        }
    }
}

#[test]
fn left_turns_occupy_longer_than_rights() {
    // Geometry sanity through the whole stack: the left arc (r=0.9) is
    // longer than the right arc (r=0.3), so the box occupancy is longer.
    let run_turn = |turn| {
        let w = vec![Arrival {
            vehicle: VehicleId(0),
            movement: Movement::new(Approach::South, turn),
            at_line: TimePoint::new(0.5),
            speed: MetersPerSecond::new(1.5),
        }];
        let out = run_simulation(
            &SimConfig::scale_model(PolicyKind::Crossroads).with_seed(2),
            &w,
        );
        let occ = &out.safety.occupancies()[0];
        occ.exited - occ.entered
    };
    assert!(run_turn(Turn::Left) > run_turn(Turn::Right));
}

#[test]
fn stranded_count_matches_completion_gap() {
    let mut config = SimConfig::scale_model(PolicyKind::VtIm).with_seed(1);
    config.channel.loss_probability = 1.0;
    config.horizon_slack = Seconds::new(10.0);
    let out = run_simulation(&config, &single(1.5));
    assert_eq!(out.stranded(), 1);
    let ok = run_simulation(
        &SimConfig::scale_model(PolicyKind::VtIm).with_seed(1),
        &single(1.5),
    );
    assert_eq!(ok.stranded(), 0);
}

/// A 200-vehicle Poisson workload with its last arrival moved to the
/// front: the horizon, taken from the last arrival, would be too early.
fn unsorted_workload(config: &SimConfig) -> Vec<Arrival> {
    let mut poisson = PoissonConfig::sweep_point(0.3, config.typical_line_speed());
    poisson.total_vehicles = 200;
    let mut w = generate_poisson(&poisson, &mut StdRng::seed_from_u64(3));
    w.rotate_right(1);
    w
}

/// The serial engine rejects a workload that is not sorted by arrival
/// time, naming the first vehicle that arrives before its predecessor.
#[test]
#[should_panic(expected = "veh#0: arrivals not sorted by time")]
fn unsorted_workload_is_rejected_by_run_simulation() {
    let config = SimConfig::scale_model(PolicyKind::Crossroads);
    let w = unsorted_workload(&config);
    let _ = run_simulation(&config, &w);
}

/// The same check guards the windowed corridor engine.
#[test]
#[should_panic(expected = "arrivals not sorted by time")]
fn unsorted_workload_is_rejected_by_the_windowed_corridor() {
    let sim = SimConfig::scale_model(PolicyKind::Crossroads);
    let w = unsorted_workload(&sim);
    let config = CorridorConfig::new(sim, 2).with_shard_workers(2);
    let _ = run_corridor(&config, &w, &[]);
}

/// A scale-model Crossroads corridor of `k` intersections on the default
/// 6 s link; each test below breaks one rule of its shape.
fn corridor(k: usize) -> CorridorConfig {
    CorridorConfig::new(SimConfig::scale_model(PolicyKind::Crossroads), k)
}

#[test]
#[should_panic(expected = "a corridor needs at least one intersection")]
fn corridor_without_intersections_is_rejected() {
    corridor(0).validate();
}

#[test]
#[should_panic(expected = "link_time 1.500000s must be >= 2 s")]
fn link_shorter_than_the_stale_event_horizon_is_rejected() {
    corridor(2).with_link_time(Seconds::new(1.5)).validate();
}

#[test]
#[should_panic(expected = "lookahead 0.000000s must be in (0, link_time]")]
fn zero_lookahead_is_rejected() {
    corridor(2).with_lookahead(Seconds::ZERO).validate();
}

#[test]
#[should_panic(expected = "lookahead 7.000000s must be in (0, link_time]")]
fn lookahead_beyond_the_link_is_rejected() {
    corridor(2).with_lookahead(Seconds::new(7.0)).validate();
}

#[test]
#[should_panic(expected = "every entry intersection must be inside the corridor")]
fn entry_past_the_last_intersection_is_rejected() {
    let _ = run_corridor(&corridor(2), &single(2.0), &[2]);
}

/// An IM that would never come back up between outages is rejected by
/// the config check both engines run before the first event.
#[test]
#[should_panic(expected = "must exceed outage duration")]
fn outage_period_shorter_than_the_outage_is_rejected_by_validate() {
    let config = SimConfig::scale_model(PolicyKind::Crossroads).with_faults(FaultConfig {
        outage_start: Seconds::new(5.0),
        outage_duration: Seconds::new(10.0),
        outage_period: Seconds::new(8.0),
        ..FaultConfig::disabled()
    });
    config.validate();
}
