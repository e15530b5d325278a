//! Metric declarations, the percentile rule and the result formats.
//!
//! Every metric the benchmark prints is declared here with its unit, and
//! `BENCHMARK.json` at the repository root declares the same list (a unit
//! test keeps the two equal).

use serde::{Serialize, Value};

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("runs_per_s", "1/s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("trace.decode_ms", "ms"),
    ("trace.gen_uop_ns", "ns"),
    ("core.construct_ms", "ms"),
    ("core.simulate_ms", "ms"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_uop", "ns"),
    ("core.cycles", "count"),
    ("core.committed_uops", "count"),
    ("core.squashed_uops", "count"),
    ("core.useful_uop_frac", "frac"),
    ("core.dispatched_uops", "count"),
    ("core.issued_uops", "count"),
    ("core.iq_stall_events", "count"),
    ("core.rename_blocked", "count"),
    ("core.rf_blocked", "count"),
    ("core.mispredicts", "count"),
    ("core.l2_misses", "count"),
    ("core.copies_retired", "count"),
    ("core.ckpt_capture_ms", "ms"),
    ("core.ckpt_fastforward_uops", "count"),
    ("core.ckpt_restore_ms", "ms"),
    ("core.ckpt_verify_ms", "ms"),
    ("core.window_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.put_us_p50", "us"),
    ("store.puts", "count"),
    ("store.bytes_written", "bytes"),
    ("store.get_ms", "ms"),
    ("store.get_us_p50", "us"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.artifact_get_ms", "ms"),
    ("store.artifact_put_ms", "ms"),
    ("store.artifact_hits", "count"),
    ("store.artifact_misses", "count"),
    ("experiments.runner_self_ms", "ms"),
    ("experiments.render_ms", "ms"),
    ("experiments.table_json_bytes", "bytes"),
    ("serve.daemon_start_ms", "ms"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.ack_ms_p50", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.compute_ms_p99", "ms"),
    ("serve.client_render_ms_p50", "ms"),
    ("serve.store_hits", "count"),
    ("serve.store_misses", "count"),
    ("serve.sims_completed", "count"),
    ("mem.l1_access_ns", "ns"),
    ("mem.hierarchy_load_ns", "ns"),
    ("mem.mob_op_ns", "ns"),
    ("frontend.gshare_update_ns", "ns"),
    ("backend.iq_scan_ns", "ns"),
    ("span_coverage_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

/// The unit `name` is declared with.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Percentiles the latency report picks from, in basis points.
const LADDER: [(u64, &str); 6] = [
    (5_000, "p50"),
    (9_000, "p90"),
    (9_500, "p95"),
    (9_900, "p99"),
    (9_990, "p99.9"),
    (9_999, "p99.99"),
];

/// 1-based nearest rank of the `bp`-basis-point percentile of `n` samples.
fn rank(n: usize, bp: u64) -> usize {
    ((bp * n as u64).div_ceil(10_000) as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`bp` in basis points) of ascending samples.
pub fn percentile(sorted: &[f64], bp: u64) -> f64 {
    sorted[rank(sorted.len(), bp) - 1]
}

/// Samples ranked above the `bp` percentile of `n` samples.
fn beyond(n: usize, bp: u64) -> usize {
    n - rank(n, bp)
}

/// The highest percentile that has at least ten samples beyond it, as
/// (basis points, label); `None` below 20 samples.
pub fn reportable_percentile(n: usize) -> Option<(u64, &'static str)> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&(bp, _)| n > 0 && beyond(n, bp) >= 10)
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One printed metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (passes, requests or runs).
    pub samples: usize,
}

/// The `workload metric value unit (n=samples)` line of one reading.
pub fn line(workload: &str, r: &Reading) -> String {
    let unit = unit_of(r.name).unwrap_or_else(|| panic!("metric {} is not declared", r.name));
    format!("{workload} {} {} {unit} (n={})", r.name, r.value, r.samples)
}

/// A `serde::Value` rendered as it is.
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Any JSON document, parsed as it is.
struct Any(Value);

impl serde::Deserialize for Any {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Any(v.clone()))
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Any>(text)
        .map(|a| a.0)
        .map_err(|e| e.to_string())
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{"<name>": {"value": v, "unit": u}, ...}` of some readings.
pub fn metrics_value(readings: &[Reading]) -> Value {
    Value::Object(
        readings
            .iter()
            .map(|r| {
                let unit = unit_of(r.name).expect("declared metric");
                (
                    r.name.to_string(),
                    obj(vec![
                        ("value", Value::Float(r.value)),
                        ("unit", Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(reportable_percentile(0), None);
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(20), Some((5_000, "p50")));
        assert_eq!(reportable_percentile(99), Some((5_000, "p50")));
        assert_eq!(reportable_percentile(100), Some((9_000, "p90")));
        assert_eq!(reportable_percentile(200), Some((9_500, "p95")));
        assert_eq!(reportable_percentile(999), Some((9_500, "p95")));
        assert_eq!(reportable_percentile(1_000), Some((9_900, "p99")));
        assert_eq!(reportable_percentile(9_999), Some((9_900, "p99")));
        assert_eq!(reportable_percentile(10_000), Some((9_990, "p99.9")));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 9_900), 990.0);
        assert_eq!(percentile(&v, 5_000), 500.0);
        assert_eq!(percentile(&[3.0], 9_900), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 9_900), 4.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are unique");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
    }

    #[test]
    fn printed_lines_name_declared_metrics() {
        let r = Reading {
            name: "runs_per_s",
            value: 12.5,
            samples: 4,
        };
        assert_eq!(
            line("fig2-short", &r),
            "fig2-short runs_per_s 12.5 1/s (n=4)"
        );
    }

    /// Every metric the code can print is declared in `BENCHMARK.json`
    /// with the same unit, in the same section, and nothing else is.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (section, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(section)
                .and_then(Value::as_array)
                .expect("metric section")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{section}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::inputs::WorkloadId::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
