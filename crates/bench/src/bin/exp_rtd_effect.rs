//! E2 — Figs. 3.2 / 4.1 / 6.1: round-trip delay displaces the VT-IM
//! vehicle; the Crossroads trajectory is RTD-invariant.
//!
//! Also measures the closed-loop consequence: the spread between the
//! IM-scheduled entry and the actual entry across a simulated run.

use crossroads_core::policy::PolicyKind;
use crossroads_core::sim::run_simulation;
use crossroads_traffic::{scale_model_scenario, ScenarioId};
use crossroads_units::{Meters, MetersPerSecond, TimePoint};
use crossroads_vehicle::{SpeedProfile, VehicleSpec};

fn open_loop_table() {
    let spec = VehicleSpec::scale_model();
    let v0 = MetersPerSecond::new(1.5);
    let d_t = Meters::new(3.0);

    println!("## Open loop: arrival time vs realized RTD\n");
    crossroads_bench::table_header(&[
        "RTD (ms)",
        "VT-IM arrival (s)",
        "VT-IM displacement (m)",
        "Crossroads arrival (s)",
    ]);

    let assumed = SpeedProfile::vt_response(TimePoint::ZERO, Meters::ZERO, v0, spec.v_max, &spec)
        .time_at_position(d_t)
        .expect("cruise reaches the line");

    let t_e = TimePoint::new(0.150);
    let mut probe = SpeedProfile::starting_at(TimePoint::ZERO, Meters::ZERO, v0);
    probe.push_hold(t_e - TimePoint::ZERO);
    probe.push_speed_change(spec.v_max, spec.a_max);
    let toa = probe.time_at_position(d_t).expect("reaches the line");

    for rtd_ms in [0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0] {
        let received = TimePoint::new(rtd_ms / 1e3);
        let s_now = v0 * (received - TimePoint::ZERO);
        let vt_arrival = SpeedProfile::vt_response(received, s_now, v0, spec.v_max, &spec)
            .time_at_position(d_t)
            .expect("cruise reaches the line");
        let xr = SpeedProfile::crossroads_response(
            TimePoint::ZERO,
            Meters::ZERO,
            v0,
            t_e,
            toa,
            d_t,
            spec.v_max,
            &spec,
        )
        .expect("consistent command");
        let xr_arrival = xr.time_at_position(d_t).expect("reaches the line");
        println!(
            "| {rtd_ms:.0} | {:.4} | {:+.3} | {:.4} |",
            vt_arrival.value(),
            (vt_arrival - assumed).value() * spec.v_max.value(),
            xr_arrival.value(),
        );
    }
}

fn closed_loop_spread() {
    println!("\n## Closed loop: buffer stripped, 78 mm-envelope audit (30 seeds)\n");
    crossroads_bench::table_header(&["policy", "RTD buffer", "seeds with envelope violations"]);
    // Every (buffer-setting, seed) audit is independent — fan the grid
    // out over the `CROSSROADS_THREADS` worker pool.
    let points: Vec<(bool, u64)> = [true, false]
        .into_iter()
        .flat_map(|enabled| (0..30).map(move |seed| (enabled, seed)))
        .collect();
    let violations = crossroads_bench::par_run(&points, |&(enabled, seed)| {
        let mut buffers = crossroads_core::BufferModel::scale_model();
        buffers.vt_rtd_buffer_enabled = enabled;
        if !enabled {
            buffers.e_long = Meters::ZERO;
        }
        let w = scale_model_scenario(ScenarioId(1), seed);
        let config = crossroads_bench::knobs()
            .scale_model(PolicyKind::VtIm)
            .with_seed(seed)
            .with_buffers(buffers);
        let out = run_simulation(&config, &w);
        let audit = crossroads_core::sim::SafetyReport::audit_with_margin(
            out.safety.occupancies().to_vec(),
            &config.geometry,
            &config.spec,
            Meters::from_millis(78.0),
        );
        !audit.is_safe()
    });
    for (enabled, label) in [(true, "on"), (false, "off (failure injection)")] {
        let bad = points
            .iter()
            .zip(&violations)
            .filter(|(&(e, _), &v)| e == enabled && v)
            .count();
        println!("| VT-IM | {label} | {bad}/30 |");
    }
}

fn main() {
    println!("# E2 — RTD causes late command delivery (Figs. 3.2/4.1/6.1)\n");
    open_loop_table();
    closed_loop_spread();
    println!("\nShape check: the VT-IM displacement column grows linearly with RTD");
    println!("(up to v_max x WC-RTD = 0.45 m); the Crossroads column is constant.");
}
