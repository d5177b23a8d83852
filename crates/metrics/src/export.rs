//! Hand-rolled JSON and CSV writers for metrics records.
//!
//! The workspace builds hermetically with no registry crates, so instead
//! of `serde` derives these functions emit the two formats directly. The
//! output is **deterministic**: field order is fixed, floats are printed
//! with Rust's shortest-roundtrip `Display` (the same bytes for the same
//! bits on every platform), and no timestamps or map iteration orders are
//! involved. Two same-seed runs therefore serialise byte-identically,
//! which the determinism test in `tests/` relies on.

use crate::record::{Counters, RunMetrics, VehicleRecord};

/// Formats an `f64` deterministically for both JSON and CSV.
///
/// Uses the shortest representation that round-trips (`Display`). JSON
/// has no literal for non-finite numbers, so NaN and ±inf are emitted as
/// `null` — the output stays parseable whatever the value. (The old
/// `debug_assert!` version wrote bare `NaN`/`inf` tokens in release
/// builds, producing invalid JSON.) CSV cells get the same `null` token.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("null")
    }
}

/// One CSV line per vehicle, with a fixed header.
///
/// Columns: `vehicle,line_at,cleared_at,free_flow,wait,requests_sent,rejections`.
/// All values are plain numbers, so no quoting/escaping is ever needed.
#[must_use]
pub fn records_to_csv(records: &[VehicleRecord]) -> String {
    let mut out =
        String::from("vehicle,line_at,cleared_at,free_flow,wait,requests_sent,rejections\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.vehicle.0,
            fmt_f64(r.line_at.value()),
            fmt_f64(r.cleared_at.value()),
            fmt_f64(r.free_flow.value()),
            fmt_f64(r.wait().value()),
            r.requests_sent,
            r.rejections,
        ));
    }
    out
}

/// A JSON array of per-vehicle objects with fixed key order.
#[must_use]
pub fn records_to_json(records: &[VehicleRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"vehicle\":{},\"line_at\":{},\"cleared_at\":{},\"free_flow\":{},\"wait\":{},\"requests_sent\":{},\"rejections\":{}}}",
            r.vehicle.0,
            fmt_f64(r.line_at.value()),
            fmt_f64(r.cleared_at.value()),
            fmt_f64(r.free_flow.value()),
            fmt_f64(r.wait().value()),
            r.requests_sent,
            r.rejections,
        ));
    }
    out.push(']');
    out
}

/// Load counters as a JSON object with fixed key order.
#[must_use]
pub fn counters_to_json(c: &Counters) -> String {
    let mut out = String::new();
    c.for_each_json(|key, value| {
        out.push(if out.is_empty() { '{' } else { ',' });
        out.push_str(&format!("\"{key}\":{value}"));
    });
    out.push('}');
    out
}

/// A whole run — aggregates, counters, and every record — as one JSON
/// object. This is the canonical serialisation the determinism test
/// compares byte-for-byte across same-seed runs.
#[must_use]
pub fn run_to_json(m: &RunMetrics) -> String {
    // `throughput()` is +inf for free-flowing runs; `fmt_f64` writes it
    // (like every non-finite value) as `null`, which readers recognise.
    let lat = m.decision_latency_summary();
    let lat_p = m.decision_latency_percentiles();
    let hist = m.decision_latency_histogram();
    // SLO quantiles are the histogram's conservative upper bucket edges —
    // guaranteed "p99 ≤ reported" bounds, unlike the sample percentiles
    // above which interpolate.
    let slo = |q: f64| fmt_f64(hist.quantile(q).unwrap_or(f64::NAN));
    format!(
        "{{\"completed\":{},\"average_wait\":{},\"throughput\":{},\"flow_rate\":{},\"total_requests\":{},\"decision_latency\":{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"slo\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}},\"hist\":{}}},\"wait_hist\":{},\"counters\":{},\"records\":{}}}",
        m.completed(),
        fmt_f64(m.average_wait().value()),
        fmt_f64(m.throughput()),
        fmt_f64(m.flow_rate()),
        m.total_requests(),
        lat.count,
        fmt_f64(lat.mean),
        fmt_f64(lat.min),
        fmt_f64(lat.max),
        fmt_f64(lat_p.p50),
        fmt_f64(lat_p.p90),
        fmt_f64(lat_p.p95),
        fmt_f64(lat_p.p99),
        slo(0.5),
        slo(0.95),
        slo(0.99),
        slo(1.0),
        hist.to_json(),
        m.wait_histogram().to_json(),
        counters_to_json(m.counters()),
        records_to_json(m.records()),
    )
}

/// One timed sweep point of the `BENCH_*.json` perf trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Point label, e.g. `Crossroads@0.3/s42`.
    pub label: String,
    /// Wall-clock milliseconds the point took.
    pub wall_ms: f64,
    /// DES events the engine dispatched while computing the point.
    pub events: u64,
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One `BENCH_sweep.json` record: an experiment's per-point and total
/// wall-clock timings, as a single JSON object (one line — the file is
/// JSON Lines, one record per sweep). Schema is documented in README.md
/// under "Running the experiments".
#[must_use]
pub fn bench_sweep_to_json(
    experiment: &str,
    threads: usize,
    total_wall_ms: f64,
    points: &[BenchPoint],
) -> String {
    let sum: f64 = points.iter().map(|p| p.wall_ms).sum();
    let events: u64 = points.iter().map(|p| p.events).sum();
    // Engine throughput over the *summed* point time (parallel sweeps
    // overlap points, so total wall would undercount per-core speed).
    let events_per_sec = if sum > 0.0 {
        #[allow(clippy::cast_precision_loss)]
        let rate = events as f64 / (sum / 1e3);
        rate
    } else {
        0.0
    };
    let mut out = format!(
        "{{\"experiment\":\"{}\",\"threads\":{},\"points\":{},\"total_wall_ms\":{},\"points_wall_ms_sum\":{},\"events\":{},\"events_per_sec\":{},\"point_timings\":[",
        json_escape(experiment),
        threads,
        points.len(),
        fmt_f64(total_wall_ms),
        fmt_f64(sum),
        events,
        fmt_f64(events_per_sec),
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"wall_ms\":{},\"events\":{}}}",
            json_escape(&p.label),
            fmt_f64(p.wall_ms),
            p.events,
        ));
    }
    out.push_str("]}");
    out
}

/// One corridor grid point's deterministic summary for the
/// `BENCH_sweep.json` grid record — the simulation-side figures
/// (vehicles/hour, handoffs) that stay byte-identical across thread
/// counts, complementing the wall-clock record `par_sweep` emits for the
/// same sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPointSummary {
    /// Point label, e.g. `Crossroads@K4/r0.25`.
    pub label: String,
    /// Chained intersections at this point.
    pub k: usize,
    /// Arterial arrival rate, cars/second per direction.
    pub rate: f64,
    /// Vehicles spawned.
    pub vehicles: usize,
    /// Vehicles that cleared their final intersection.
    pub completed: usize,
    /// Intersection-to-intersection handoffs the corridor served.
    pub handoffs: u64,
    /// Corridor carried flow in vehicles/hour (flow rate × 3600).
    pub vehicles_per_hour: f64,
    /// Mean wait per vehicle, seconds.
    pub average_wait: f64,
}

/// One `BENCH_sweep.json` record summarising a corridor grid sweep:
/// `{"experiment":"<name>/grid","points":[...]}` with one object per
/// grid point. Deterministic — no wall-clock fields — so the record is
/// byte-identical at any thread count.
#[must_use]
pub fn grid_summary_to_json(experiment: &str, points: &[GridPointSummary]) -> String {
    let mut out = format!(
        "{{\"experiment\":\"{}/grid\",\"points\":[",
        json_escape(experiment)
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"k\":{},\"rate\":{},\"vehicles\":{},\"completed\":{},\"handoffs\":{},\"vehicles_per_hour\":{},\"average_wait\":{}}}",
            json_escape(&p.label),
            p.k,
            fmt_f64(p.rate),
            p.vehicles,
            p.completed,
            p.handoffs,
            fmt_f64(p.vehicles_per_hour),
            fmt_f64(p.average_wait),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_units::{Seconds, TimePoint};
    use crossroads_vehicle::VehicleId;

    fn rec(v: u32, line: f64, cleared: f64, free: f64) -> VehicleRecord {
        VehicleRecord {
            vehicle: VehicleId(v),
            line_at: TimePoint::new(line),
            cleared_at: TimePoint::new(cleared),
            free_flow: Seconds::new(free),
            requests_sent: 1,
            rejections: 0,
        }
    }

    #[test]
    fn csv_has_header_and_one_line_per_record() {
        let csv = records_to_csv(&[rec(1, 0.0, 3.5, 2.0), rec(2, 1.0, 6.0, 2.0)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "vehicle,line_at,cleared_at,free_flow,wait,requests_sent,rejections"
        );
        assert_eq!(lines[1], "1,0,3.5,2,1.5,1,0");
    }

    #[test]
    fn json_is_valid_shape_and_key_order() {
        let json = records_to_json(&[rec(7, 0.25, 3.0, 2.0)]);
        assert_eq!(
            json,
            "[{\"vehicle\":7,\"line_at\":0.25,\"cleared_at\":3,\"free_flow\":2,\"wait\":0.75,\"requests_sent\":1,\"rejections\":0}]"
        );
    }

    #[test]
    fn empty_records_serialise_cleanly() {
        assert_eq!(records_to_json(&[]), "[]");
        assert_eq!(records_to_csv(&[]).lines().count(), 1);
    }

    #[test]
    fn run_json_is_deterministic() {
        let mut m = RunMetrics::new();
        m.push(rec(1, 0.0, 3.0, 2.0));
        m.push(rec(2, 1.0, 6.0, 2.0));
        m.add_counters(&Counters {
            im_ops: 10,
            im_requests: 2,
            messages: 4,
            messages_lost: 1,
            im_busy: Seconds::new(0.125),
            des_events: 321,
            deadline_misses: 6,
            late_discards: 7,
            burst_losses: 8,
            im_outage_drops: 9,
            fallback_stops: 10,
            platoons_formed: 11,
            platoon_followers: 12,
            platoon_grants: 13,
            platoon_fallbacks: 14,
            filter_interventions: 15,
            noncompliant_conflicts: 16,
            emergency_preemptions: 17,
        });
        let a = run_to_json(&m);
        let b = run_to_json(&m);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"completed\":2,"));
        assert!(a.contains("\"im_busy\":0.125"));
        assert!(a.contains("\"des_events\":321"));
        assert!(a.contains(
            "\"deadline_misses\":6,\"late_discards\":7,\"burst_losses\":8,\
             \"im_outage_drops\":9,\"fallback_stops\":10"
        ));
        assert!(a.contains(
            "\"platoons_formed\":11,\"platoon_followers\":12,\
             \"platoon_grants\":13,\"platoon_fallbacks\":14"
        ));
        assert!(a.contains(
            "\"filter_interventions\":15,\"noncompliant_conflicts\":16,\
             \"emergency_preemptions\":17"
        ));
    }

    #[test]
    fn bench_sweep_json_shape() {
        let points = [
            BenchPoint {
                label: String::from("Crossroads@0.05/s11"),
                wall_ms: 12.5,
                events: 1500,
            },
            BenchPoint {
                label: String::from("VT-IM@0.05/s11"),
                wall_ms: 7.5,
                events: 500,
            },
        ];
        let json = bench_sweep_to_json("exp_flow_sweep", 4, 13.25, &points);
        assert!(json.starts_with(
            "{\"experiment\":\"exp_flow_sweep\",\"threads\":4,\"points\":2,\
             \"total_wall_ms\":13.25,\"points_wall_ms_sum\":20,\
             \"events\":2000,\"events_per_sec\":100000,"
        ));
        assert!(
            json.contains("{\"label\":\"Crossroads@0.05/s11\",\"wall_ms\":12.5,\"events\":1500}")
        );
        assert!(json.ends_with("]}"));
        assert!(!json.contains('\n'), "one JSONL record per sweep");
    }

    #[test]
    fn grid_summary_json_shape() {
        let points = [GridPointSummary {
            label: String::from("Crossroads@K4/r0.25"),
            k: 4,
            rate: 0.25,
            vehicles: 5000,
            completed: 5000,
            handoffs: 3750,
            vehicles_per_hour: 1234.5,
            average_wait: 2.75,
        }];
        let json = grid_summary_to_json("exp_grid_sweep", &points);
        assert_eq!(
            json,
            "{\"experiment\":\"exp_grid_sweep/grid\",\"points\":[\
             {\"label\":\"Crossroads@K4/r0.25\",\"k\":4,\"rate\":0.25,\
             \"vehicles\":5000,\"completed\":5000,\"handoffs\":3750,\
             \"vehicles_per_hour\":1234.5,\"average_wait\":2.75}]}"
        );
        assert!(!json.contains('\n'), "one JSONL record per grid sweep");
        crate::parse_json(&json).expect("valid JSON");
    }

    #[test]
    fn zero_time_sweep_reports_zero_rate() {
        let json = bench_sweep_to_json("empty", 1, 0.0, &[]);
        assert!(
            json.contains("\"events\":0,\"events_per_sec\":0,"),
            "{json}"
        );
    }

    #[test]
    fn bench_labels_are_escaped() {
        let points = [BenchPoint {
            label: String::from("odd \"label\"\\with\tescapes"),
            wall_ms: 1.0,
            events: 0,
        }];
        let json = bench_sweep_to_json("x", 1, 1.0, &points);
        assert!(json.contains("odd \\\"label\\\"\\\\with\\tescapes"));
    }

    #[test]
    fn infinite_throughput_maps_to_null() {
        let mut m = RunMetrics::new();
        m.push(rec(1, 0.0, 2.0, 2.0)); // zero wait -> infinite throughput
        let json = run_to_json(&m);
        assert!(json.contains("\"throughput\":null"), "{json}");
    }

    #[test]
    fn non_finite_values_emit_null_not_bare_tokens() {
        // Regression: the old fmt_f64 only debug_assert!ed finiteness, so
        // release builds wrote bare `NaN`/`inf` tokens — invalid JSON.
        // This test exercises the exact release-mode inputs.
        let json = records_to_json(&[rec(1, f64::NAN, f64::INFINITY, 2.0)]);
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        assert!(json.contains("\"line_at\":null"), "{json}");
        assert!(json.contains("\"cleared_at\":null"), "{json}");
        let csv = records_to_csv(&[rec(1, f64::NAN, 3.0, 2.0)]);
        assert!(!csv.contains("NaN"), "{csv}");
    }

    #[test]
    fn json_with_non_finite_values_parses_with_the_reader() {
        let mut m = RunMetrics::new();
        m.push(rec(1, f64::NAN, f64::INFINITY, 2.0));
        m.push_decision_latency(Seconds::new(f64::NAN));
        let json = run_to_json(&m);
        let doc = crate::parse_json(&json).expect("export must stay valid JSON");
        // The poisoned record's fields read back as null.
        let first = doc
            .get("records")
            .and_then(|r| r.index(0))
            .expect("one record");
        assert!(first.get("line_at").expect("key").is_null());
        let lat = doc.get("decision_latency").expect("latency block");
        assert!(lat.get("mean").expect("key").is_null());
        assert_eq!(
            lat.get("count").and_then(crate::JsonValue::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn run_json_reports_latency_and_wait_histograms() {
        let mut m = RunMetrics::new();
        m.push(rec(1, 0.0, 3.0, 2.0)); // wait 1 s
        m.push_decision_latency(Seconds::from_millis(0.5));
        m.push_decision_latency(Seconds::from_millis(1.0));
        let json = run_to_json(&m);
        let doc = crate::parse_json(&json).expect("valid");
        let lat = doc.get("decision_latency").expect("latency block");
        assert_eq!(
            lat.get("count").and_then(crate::JsonValue::as_f64),
            Some(2.0)
        );
        assert!(lat.get("hist").and_then(|h| h.get("buckets")).is_some());
        // The SLO block carries the histogram's conservative upper-edge
        // quantiles: both samples land in [2^-11, 2^-10) ∪ [2^-10, 2^-9),
        // so p50 is 2^-10 and the max edge is 2^-9.
        let slo = lat.get("slo").expect("slo block");
        assert_eq!(
            slo.get("p50").and_then(crate::JsonValue::as_f64),
            Some(f64::powi(2.0, -10))
        );
        assert_eq!(
            slo.get("max").and_then(crate::JsonValue::as_f64),
            Some(f64::powi(2.0, -9))
        );
        let wait_hist = doc.get("wait_hist").expect("wait histogram");
        assert_eq!(
            wait_hist.get("count").and_then(crate::JsonValue::as_f64),
            Some(1.0)
        );
        // wait = 1 s lands in bucket [2^0, 2^1).
        assert!(
            json.contains(
                "\"wait_hist\":{\"count\":1,\"zero\":0,\"non_finite\":0,\"buckets\":[[0,1]]}"
            ),
            "{json}"
        );
    }
}
