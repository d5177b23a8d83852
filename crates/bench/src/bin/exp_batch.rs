//! Extension experiment — batch reordering (Ch. 5.1, Tachet et al.):
//! how much does reordering within a reorganization window buy over the
//! FIFO assignment all the closed-loop IMs use?
//!
//! Tachet et al. claim up to 2x over fair (FIFO) scheduling; the thesis
//! counters that the reordering cost inflates WC-RTD. This bin
//! quantifies the scheduling-side gain alone.

use crossroads_core::batch::BatchPlanner;
use crossroads_prng::{SeedableRng, StdRng};
use crossroads_traffic::generate_poisson;
use crossroads_traffic::PoissonConfig;
use crossroads_units::{Meters, MetersPerSecond, Seconds};
use crossroads_vehicle::VehicleSpec;

fn main() {
    let geometry = crossroads_intersection::IntersectionGeometry::full_scale();
    let spec = VehicleSpec::full_scale();
    let planner = BatchPlanner::new(geometry, spec, Meters::new(0.5));

    println!("# Extension — batch reordering vs FIFO (offline planner)\n");
    crossroads_bench::table_header(&[
        "rate (car/s/lane)",
        "window (s)",
        "FIFO avg delay (s)",
        "batched avg delay (s)",
        "gain",
    ]);

    // The planner is shared read-only across the (rate, window) grid,
    // which runs on the `CROSSROADS_THREADS` worker pool.
    let points: Vec<(f64, f64)> = [0.2, 0.4, 0.8]
        .into_iter()
        .flat_map(|rate| [2.0, 5.0, 10.0].map(|window_s| (rate, window_s)))
        .collect();
    let delays = crossroads_bench::par_run(&points, |&(rate, window_s)| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut pc = PoissonConfig::sweep_point(rate, MetersPerSecond::new(10.0));
        pc.total_vehicles = 120;
        let arrivals = generate_poisson(&pc, &mut rng);
        let fifo = planner.schedule_fifo(&arrivals);
        let batched = planner.schedule_batched(&arrivals, Seconds::new(window_s), 2);
        assert_eq!(batched.crossings().len(), arrivals.len());
        (
            fifo.average_delay().value(),
            batched.average_delay().value(),
        )
    });
    for (&(rate, window_s), &(f, b)) in points.iter().zip(&delays) {
        println!(
            "| {rate} | {window_s} | {f:.3} | {b:.3} | {:.2}x |",
            f / b.max(1e-9)
        );
    }
    println!("\nThe gain grows with the window at every rate and shrinks as");
    println!("congestion grows at every window. A longer window also costs more");
    println!("per-batch computation (O(n^2) exchange rebuilds), which is the");
    println!("thesis' argument for why such optimizers need time-sensitive");
    println!("actuation to be deployable at all.");
}
