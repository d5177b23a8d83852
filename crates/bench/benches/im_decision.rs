//! Measured per-decision cost of the three IM policies — the "computation
//! time" series of Fig. 7.2 / Ch. 7.2, in wall-clock nanoseconds. The
//! `aim` row runs the analytic footprint kernel, as the simulator does;
//! `aim_marched` runs the stepped trajectory march it replaced.
//!
//! Self-timed (`harness = false`); run with
//! `cargo bench --bench im_decision`.

use crossroads_bench::timing::{bench, bench_table_header};
use crossroads_core::policy::{AimPolicy, CrossroadsPolicy, IntersectionPolicy, VtPolicy};
use crossroads_core::{BufferModel, CrossingRequest};
use crossroads_intersection::{
    Approach, ConflictTable, IntersectionGeometry, Movement, ReservationTable, Turn,
};
use crossroads_units::{Meters, MetersPerSecond, Seconds, TimePoint};
use crossroads_vehicle::{VehicleId, VehicleSpec};
use std::hint::black_box;

fn request(v: u32, approach: Approach, t: f64, aim: bool) -> CrossingRequest {
    CrossingRequest {
        vehicle: VehicleId(v),
        movement: Movement::new(approach, Turn::Straight),
        spec: VehicleSpec::full_scale(),
        transmitted_at: TimePoint::new(t),
        distance_to_intersection: Meters::new(100.0),
        speed: MetersPerSecond::new(10.0),
        stopped: false,
        attempt: 1,
        proposed_arrival: aim.then(|| TimePoint::new(t + 10.0)),
        platoon_followers: 0,
        platoon_gap: Meters::ZERO,
    }
}

fn geometry() -> IntersectionGeometry {
    IntersectionGeometry::full_scale()
}

fn table() -> ReservationTable {
    ReservationTable::new(ConflictTable::compute(&geometry(), Meters::new(1.8)))
}

/// Runs one decide/on_exit cycle per iteration against a fresh stream of
/// requests, mirroring the steady-state load the IM sees.
fn bench_policy(name: &str, mut policy: impl IntersectionPolicy) {
    let mut v = 0u32;
    let mut t = 0.0f64;
    let aim = name.starts_with("aim");
    bench(name, move || {
        let req = request(v, Approach::ALL[(v % 4) as usize], t, aim);
        let cmd = policy.decide(black_box(&req), TimePoint::new(t + 0.05));
        policy.on_exit(VehicleId(v), TimePoint::new(t + 0.06));
        v = v.wrapping_add(1);
        t += 0.01;
        black_box(cmd)
    });
}

fn main() {
    bench_table_header("im_decision");
    bench_policy(
        "vt_im",
        VtPolicy::new(geometry(), table(), BufferModel::full_scale(), 0.15),
    );
    bench_policy(
        "crossroads",
        CrossroadsPolicy::new(geometry(), table(), BufferModel::full_scale(), 0.15),
    );
    let aim = || {
        AimPolicy::new(
            geometry(),
            BufferModel::full_scale(),
            3,
            Seconds::from_millis(50.0),
        )
    };
    bench_policy("aim", aim().with_analytic(true));
    bench_policy("aim_marched", aim());
}
