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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};
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
        let doc = parse_json(&json).expect("export must stay valid JSON");
        // The poisoned record's fields read back as null.
        let first = doc
            .get("records")
            .and_then(|r| r.index(0))
            .expect("one record");
        assert!(first.get("line_at").expect("key").is_null());
        let lat = doc.get("decision_latency").expect("latency block");
        assert!(lat.get("mean").expect("key").is_null());
        assert_eq!(lat.get("count").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn run_json_reports_latency_and_wait_histograms() {
        let mut m = RunMetrics::new();
        m.push(rec(1, 0.0, 3.0, 2.0)); // wait 1 s
        m.push_decision_latency(Seconds::from_millis(0.5));
        m.push_decision_latency(Seconds::from_millis(1.0));
        let json = run_to_json(&m);
        let doc = parse_json(&json).expect("valid");
        let lat = doc.get("decision_latency").expect("latency block");
        assert_eq!(lat.get("count").and_then(JsonValue::as_f64), Some(2.0));
        assert!(lat.get("hist").and_then(|h| h.get("buckets")).is_some());
        // The SLO block carries the histogram's conservative upper-edge
        // quantiles: both samples land in [2^-11, 2^-10) ∪ [2^-10, 2^-9),
        // so p50 is 2^-10 and the max edge is 2^-9.
        let slo = lat.get("slo").expect("slo block");
        assert_eq!(
            slo.get("p50").and_then(JsonValue::as_f64),
            Some(f64::powi(2.0, -10))
        );
        assert_eq!(
            slo.get("max").and_then(JsonValue::as_f64),
            Some(f64::powi(2.0, -9))
        );
        let wait_hist = doc.get("wait_hist").expect("wait histogram");
        assert_eq!(
            wait_hist.get("count").and_then(JsonValue::as_f64),
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
