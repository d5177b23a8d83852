//! Trajectory-planning micro-costs: profile construction, inversion, the
//! cruise-speed solver behind every IM decision — and the headline
//! comparison of this series: AIM footprint construction with the seed's
//! stepped march against the closed-form analytic kernel.
//!
//! Before any timing, the bench **hard-asserts** kernel agreement on
//! every movement, entry mode and both testbed geometries: identical
//! accept/reject verdicts, and every marched tile interval covered by
//! the analytic footprint. It also asserts that the analytic kernel's
//! band-table cache is unobservable: over a spread of cruise speeds, a
//! policy reused across proposals returns the footprints of a fresh
//! policy per proposal, bit for bit. The timing loops run only when cargo
//! passes `--bench`, as `cargo bench --bench trajectory` does. `ci.sh`
//! runs `cargo test --bench trajectory`, which keeps both gates and skips
//! the timing loops, so every CI pass re-proves the analytic kernel
//! stands in for the march. (The full randomized contracts live in
//! `crates/core/tests/analytic_oracle.rs`.)
//!
//! Self-timed (`harness = false`).

use crossroads_bench::timing::{bench, bench_table_header};
use crossroads_core::policy::{AimPolicy, EntryMode, IntersectionPolicy};
use crossroads_core::request::CrossingRequest;
use crossroads_core::BufferModel;
use crossroads_intersection::{Approach, IntersectionGeometry, Movement, Turn};
use crossroads_units::kinematics;
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleId, VehicleSpec};
use std::hint::black_box;

/// One testbed's AIM configuration for the agreement gate and timings.
struct AimSetup {
    geometry: IntersectionGeometry,
    buffers: BufferModel,
    spec: VehicleSpec,
    grid_side: usize,
    sim_step: Seconds,
}

impl AimSetup {
    fn scale() -> Self {
        AimSetup {
            geometry: IntersectionGeometry::scale_model(),
            buffers: BufferModel::scale_model(),
            spec: VehicleSpec::scale_model(),
            grid_side: 8,
            sim_step: Seconds::from_millis(20.0),
        }
    }

    fn full() -> Self {
        AimSetup {
            geometry: IntersectionGeometry::full_scale(),
            buffers: BufferModel::full_scale(),
            spec: VehicleSpec::full_scale(),
            grid_side: 3,
            sim_step: Seconds::from_millis(50.0),
        }
    }

    fn policy(&self, analytic: bool) -> AimPolicy {
        AimPolicy::new(self.geometry, self.buffers, self.grid_side, self.sim_step)
            .with_analytic(analytic)
    }

    fn entries(&self) -> [EntryMode; 3] {
        [
            EntryMode::Constant(self.spec.v_max * (2.0 / 3.0)),
            EntryMode::Constant(self.spec.v_max * 0.25),
            EntryMode::Launch {
                entry_speed: MetersPerSecond::ZERO,
            },
        ]
    }
}

/// Hard gate: the analytic kernel returns the march's verdict and a
/// superset of its tile intervals, for every movement × entry mode on
/// both testbeds. Panics on the first disagreement.
fn assert_footprint_agreement() {
    for setup in [AimSetup::scale(), AimSetup::full()] {
        let mut marched = setup.policy(false);
        let mut analytic = setup.policy(true);
        for movement in Movement::all() {
            for entry in setup.entries() {
                let toa = TimePoint::new(5.0);
                let vm = marched.propose_marched(movement, &setup.spec, toa, entry);
                let va = analytic.propose_analytic(movement, &setup.spec, toa, entry);
                assert_eq!(vm, va, "kernel verdicts diverge: {movement:?} {entry:?}");
                if !vm {
                    continue;
                }
                for iv in marched.footprint() {
                    let covered = analytic
                        .footprint()
                        .iter()
                        .any(|a| a.tile == iv.tile && a.from <= iv.from && iv.until <= a.until);
                    assert!(
                        covered,
                        "marched tile {} interval not covered by analytic footprint: \
                         {movement:?} {entry:?}",
                        iv.tile
                    );
                }
            }
        }
    }
}

/// The `i`-th cruise speed of the closed-loop spread: a golden-ratio
/// sequence over `[v_max / 4, v_max]` that never repeats a speed. In the
/// simulator a constant-speed proposal carries the vehicle's speed at
/// transmit time, so consecutive AIM proposals almost never share one.
fn spread_speed(spec: &VehicleSpec, i: u32) -> MetersPerSecond {
    let frac = (f64::from(i) * 0.618_033_988_749_894_9).fract();
    spec.v_max * (0.25 + 0.75 * frac)
}

/// Hard gate: the band-table cache is unobservable. For every movement
/// on both testbeds, a policy reused over a spread of cruise speeds
/// returns the verdict and footprint, bit for bit, of a fresh policy
/// (empty cache) per proposal. Panics on the first difference.
fn assert_warm_cache_matches_cold() {
    let bits = |policy: &AimPolicy| -> Vec<(usize, u64, u64)> {
        policy
            .footprint()
            .iter()
            .map(|iv| {
                (
                    iv.tile,
                    iv.from.value().to_bits(),
                    iv.until.value().to_bits(),
                )
            })
            .collect()
    };
    for setup in [AimSetup::scale(), AimSetup::full()] {
        let mut warm = setup.policy(true);
        for movement in Movement::all() {
            for i in 0..64 {
                let entry = EntryMode::Constant(spread_speed(&setup.spec, i));
                let toa = TimePoint::new(5.0);
                let mut cold = setup.policy(true);
                let vw = warm.propose_analytic(movement, &setup.spec, toa, entry);
                let vc = cold.propose_analytic(movement, &setup.spec, toa, entry);
                assert_eq!(vw, vc, "cached verdict differs: {movement:?} {entry:?}");
                assert_eq!(
                    bits(&warm),
                    bits(&cold),
                    "cached footprint differs: {movement:?} {entry:?}"
                );
            }
        }
    }
}

/// A standing AIM request for the decide-latency benches (constant-speed
/// proposal far enough out that the response margin never rejects it).
fn aim_request(setup: &AimSetup) -> CrossingRequest {
    CrossingRequest {
        vehicle: VehicleId(1),
        movement: Movement::new(Approach::North, Turn::Left),
        spec: setup.spec,
        transmitted_at: TimePoint::ZERO,
        distance_to_intersection: Meters::new(3.0),
        speed: setup.spec.v_max * (2.0 / 3.0),
        stopped: false,
        attempt: 1,
        proposed_arrival: Some(TimePoint::new(5.0)),
        platoon_followers: 0,
        platoon_gap: Meters::ZERO,
    }
}

fn aim_kernel_benches() {
    let setup = AimSetup::scale();
    // The left turn is the most expensive footprint (longest arc), and
    // the standstill launch the longest entry motion: the march's worst
    // case, hence the honest baseline for the speedup claim.
    let movement = Movement::new(Approach::North, Turn::Left);
    let entry = EntryMode::Launch {
        entry_speed: MetersPerSecond::ZERO,
    };
    let toa = TimePoint::new(5.0);

    let mut marched = setup.policy(false);
    let m_footprint = bench("aim_footprint_marched", || {
        black_box(marched.propose_marched(movement, &setup.spec, toa, black_box(entry)))
    });

    let mut analytic = setup.policy(true);
    // Warm the band-table cache outside the timed region: steady-state
    // decisions reuse it, and that steady state is what the march is
    // being compared against.
    analytic.propose_analytic(movement, &setup.spec, toa, entry);
    let a_footprint = bench("aim_footprint_analytic", || {
        black_box(analytic.propose_analytic(movement, &setup.spec, toa, black_box(entry)))
    });

    // Full decision latency: trajectory evaluation plus ledger check and
    // reservation. Each call re-requests the same vehicle, so the policy
    // releases the prior reservation and re-admits — the steady-state
    // re-request cycle AIM's load model is built around.
    let request = aim_request(&setup);
    let mut marched = setup.policy(false);
    let m_decide = bench("aim_decide_marched", || {
        black_box(marched.decide(black_box(&request), TimePoint::ZERO))
    });

    let mut analytic = setup.policy(true);
    analytic.decide(&request, TimePoint::ZERO);
    let a_decide = bench("aim_decide_analytic", || {
        black_box(analytic.decide(black_box(&request), TimePoint::ZERO))
    });

    // The closed-loop shape: every proposal brings a new cruise speed.
    // These rows time the cache as the simulator uses it.
    let mut analytic = setup.policy(true);
    let mut i = 0u32;
    bench("aim_footprint_analytic_spread", || {
        i = i.wrapping_add(1);
        let entry = EntryMode::Constant(spread_speed(&setup.spec, i));
        black_box(analytic.propose_analytic(movement, &setup.spec, toa, black_box(entry)))
    });

    let mut analytic = setup.policy(true);
    let mut request = aim_request(&setup);
    bench("aim_decide_analytic_spread", || {
        i = i.wrapping_add(1);
        request.speed = spread_speed(&setup.spec, i);
        black_box(analytic.decide(black_box(&request), TimePoint::ZERO))
    });

    let speedup = m_footprint.median_ns / a_footprint.median_ns;
    let decide_speedup = m_decide.median_ns / a_decide.median_ns;
    println!();
    println!(
        "footprint construction speedup (marched/analytic): {speedup:.1}x; \
         full decision: {decide_speedup:.1}x"
    );
}

fn main() {
    assert_footprint_agreement();
    assert_warm_cache_matches_cold();
    if !std::env::args().any(|a| a == "--bench") {
        println!(
            "trajectory gates: analytic/marched footprint agreement and \
             warm/cold band-cache identity OK; `cargo bench` runs the timing loops"
        );
        return;
    }

    let spec = VehicleSpec::scale_model();
    bench_table_header("trajectory");

    bench("crossroads_response", || {
        let p = SpeedProfile::crossroads_response(
            TimePoint::ZERO,
            Meters::ZERO,
            MetersPerSecond::new(1.5),
            TimePoint::new(0.150),
            TimePoint::new(1.2625),
            Meters::new(3.0),
            MetersPerSecond::new(3.0),
            black_box(&spec),
        );
        black_box(p)
    });

    let mut p = SpeedProfile::starting_at(TimePoint::ZERO, Meters::ZERO, MetersPerSecond::new(1.0));
    p.push_hold(Seconds::new(1.0));
    p.push_speed_change(MetersPerSecond::new(3.0), spec.a_max);
    p.push_hold(Seconds::new(2.0));
    bench("time_at_position", || {
        black_box(p.time_at_position(black_box(Meters::new(5.0))))
    });

    bench("solve_cruise_speed", || {
        black_box(kinematics::solve_cruise_speed(
            black_box(MetersPerSecond::new(1.5)),
            spec.v_max,
            spec.a_max,
            spec.d_max,
            Meters::new(3.0),
            Seconds::new(1.8),
        ))
    });

    bench("earliest_arrival", || {
        black_box(SpeedProfile::earliest_arrival(
            black_box(MetersPerSecond::new(1.5)),
            &spec,
            Meters::new(3.0),
        ))
    });

    bench_table_header("aim footprint kernels");
    aim_kernel_benches();
}
