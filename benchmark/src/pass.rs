//! What one measured pass reports back to the harness.
//!
//! Every pass runs in a fresh child process of the benchmark binary, so
//! each pays the first-touch costs a CLI user pays on every run. The
//! child prints `ready` once its set-up is done, then one JSON line with
//! its [`PassResult`].

use csmt_core::{SimResult, SimStats};
use serde::{Deserialize, Serialize};
use std::io::Write as _;

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PassResult {
    /// Wall time of the measured region, seconds.
    pub wall_s: f64,
    /// Run results delivered.
    pub runs: u64,
    /// Latency of each request, milliseconds. A sweep pass is one request.
    pub lat_ms: Vec<f64>,
    /// FNV-1a digest of the pass's outputs, in hex.
    pub digest: String,
    /// Operations that failed, and what each failure was.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Peak resident memory of the process that did the work, MB.
    pub rss_mb: f64,
    /// Per-layer readings (traced passes only).
    pub layer: Vec<(String, f64)>,
    /// Recorded spans as JSON (traced passes only).
    pub spans: String,
    /// Self time per span name: (name, count, ms) (traced passes only).
    pub self_ms: Vec<(String, u64, f64)>,
}

impl PassResult {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Tell the harness set-up is done; the measured region starts now.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    out.write_all(b"ready\n").expect("write to the harness");
    out.flush().expect("flush to the harness");
}

/// FNV-1a over the parts, newline-separated, in hex.
pub fn digest(parts: impl IntoIterator<Item = String>) -> String {
    let mut all = String::new();
    for p in parts {
        all.push_str(&p);
        all.push('\n');
    }
    format!("{:016x}", csmt_store::fnv1a(all.as_bytes()))
}

/// Peak resident memory (`VmHWM`) of process `pid`, or of this process,
/// in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn total(results: &[SimResult], f: impl Fn(&SimStats) -> u64) -> f64 {
    results.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
}

/// The deterministic `SimStats` counts of some results' measured
/// regions, summed.
pub fn sim_counts(results: &[SimResult]) -> Vec<(String, f64)> {
    let committed = total(results, |s| s.committed.iter().sum());
    let squashed = total(results, |s| s.squashed);
    let attempted = committed + squashed;
    [
        ("core.cycles", total(results, |s| s.cycles)),
        ("core.committed_uops", committed),
        ("core.squashed_uops", squashed),
        (
            "core.useful_uop_frac",
            if attempted > 0.0 {
                committed / attempted
            } else {
                0.0
            },
        ),
        (
            "core.dispatched_uops",
            total(results, |s| s.dispatched.iter().sum()),
        ),
        (
            "core.issued_uops",
            total(results, |s| s.issued.iter().sum()),
        ),
        (
            "core.iq_stall_events",
            total(results, |s| s.iq_stall_events),
        ),
        ("core.rename_blocked", total(results, |s| s.rename_blocked)),
        (
            "core.rf_blocked",
            total(results, |s| s.rf_blocked.iter().sum()),
        ),
        ("core.mispredicts", total(results, |s| s.mispredicts)),
        (
            "core.l2_misses",
            total(results, |s| s.l2_misses.iter().sum()),
        ),
        ("core.copies_retired", total(results, |s| s.copies_retired)),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// Median of some span durations in nanoseconds, scaled by `unit_ns`; 0
/// when there are none.
pub fn median_of(durations_ns: &[f64], unit_ns: f64) -> f64 {
    if durations_ns.is_empty() {
        0.0
    } else {
        crate::metrics::median(durations_ns) / unit_ns
    }
}

/// Total size of the files under `dir`, in bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map(|m| m.len()).unwrap_or(0),
        })
        .sum()
}
