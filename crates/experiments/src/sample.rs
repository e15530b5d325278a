//! Sampled simulation: checkpointed fast-forward between detailed
//! measurement intervals, plus the statistics layer that turns the
//! per-interval measurements into a pooled estimate with a confidence
//! interval.
//!
//! A sampled run of `--sample intervals=N,warmup=W,detail=D` over a
//! `commit_target` horizon H:
//!
//! 1. captures N architectural checkpoints at commit offsets
//!    `(H/N)·i` in **one** oracle replay pass per thread
//!    ([`Checkpoint::capture_many`]), caching them in the
//!    [`ArtifactStore`] so later sweeps over the same workload skip the
//!    replay entirely;
//! 2. restores each checkpoint into a detailed simulator and runs a
//!    W-commit warm-up (reconstructing microarchitectural state the
//!    checkpoint deliberately does not carry) followed by a D-commit
//!    measured window;
//! 3. pools the N windows into one [`SimResult`] (u64 counters summed,
//!    terminal ratios averaged) — the value that is memoized and
//!    persisted exactly like a full run's — and keeps the per-interval
//!    results as a [`SampleStats`] sidecar.
//!
//! The sidecar is what the `-ci` companion tables are computed from:
//! per-interval metric values are treated as independent draws and
//! summarized as mean ± t·s/√N (two-sided 95% Student-t). Intervals
//! measure disjoint regions of the program, so the independence
//! assumption is the standard SMARTS/SimPoint-style sampling posture:
//! honest enough for a half-width annotation, and testable — the
//! equivalence suite asserts full-run values land inside the reported
//! intervals.

use csmt_core::{Checkpoint, SimResult, SimStats, Simulator};
use csmt_store::ArtifactStore;
use csmt_trace::stream::SharedStream;
use csmt_trace::suite::TraceSpec;
use csmt_types::{MachineConfig, RegFileSchemeKind, SampleSpec, SchemeKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Artifact-store kind tag for cached checkpoints.
pub const CHECKPOINT_KIND: &str = "checkpoint";
/// Artifact-store kind tag for sampling sidecars.
pub const SAMPLE_STATS_KIND: &str = "sample-stats";

/// Per-interval measurements of one sampled run: interval `i`'s detailed
/// window result is `runs[i]`, each a self-contained [`SimResult`] over
/// its own measured region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleStats {
    pub spec: SampleSpec,
    pub runs: Vec<SimResult>,
}

impl SampleStats {
    /// Per-interval values of an arbitrary scalar metric.
    pub fn series<F: Fn(&SimResult) -> f64>(&self, f: F) -> Vec<f64> {
        self.runs.iter().map(f).collect()
    }

    /// Mean and 95% CI half-width of throughput across intervals.
    pub fn throughput_ci(&self) -> (f64, f64) {
        mean_ci(&self.series(|r| r.throughput()))
    }

    /// Pool the intervals into one result: u64 counters summed across
    /// windows, terminal ratio fields averaged, commit target set to the
    /// total measured commits (`intervals × detail`) so
    /// [`SimResult::ipc`]'s clamp stays meaningful.
    pub fn pooled(&self) -> SimResult {
        let first = &self.runs[0];
        let nt = first.num_threads;
        let nc = first.stats.dispatched.len();
        let mut s = SimStats::sized(nt, nc.max(1));
        let n = self.runs.len() as f64;
        for r in &self.runs {
            let st = &r.stats;
            s.cycles += st.cycles;
            s.copies_retired += st.copies_retired;
            s.iq_stall_events += st.iq_stall_events;
            s.rename_blocked += st.rename_blocked;
            s.cycles_with_issue += st.cycles_with_issue;
            s.branches += st.branches;
            s.mispredicts += st.mispredicts;
            s.flushes += st.flushes;
            s.squashed += st.squashed;
            for t in 0..nt {
                s.committed[t] += st.committed.get(t).copied().unwrap_or(0);
                // A thread that never finished its window is charged the
                // whole window, the same lower bound `ipc()` applies.
                let finish = st.finish_cycle.get(t).copied().unwrap_or(0);
                s.finish_cycle[t] += if finish > 0 { finish } else { st.cycles };
                s.rf_blocked[t] += st.rf_blocked.get(t).copied().unwrap_or(0);
                s.l2_misses[t] += st.l2_misses.get(t).copied().unwrap_or(0);
            }
            for c in 0..s.dispatched.len() {
                s.dispatched[c] += st.dispatched.get(c).copied().unwrap_or(0);
                s.issued[c] += st.issued.get(c).copied().unwrap_or(0);
                if let Some(ports) = st.issued_by_port.get(c) {
                    for p in 0..3 {
                        s.issued_by_port[c][p] += ports[p];
                    }
                }
            }
            for k in 0..s.imbalance.len() {
                for a in 0..2 {
                    s.imbalance[k][a] += st.imbalance[k][a];
                }
            }
            s.tc_miss_ratio += st.tc_miss_ratio / n;
            s.l1_miss_ratio += st.l1_miss_ratio / n;
            s.l2_miss_ratio += st.l2_miss_ratio / n;
        }
        SimResult {
            num_threads: nt,
            commit_target: self.spec.detail * self.runs.len() as u64,
            stats: s,
        }
    }
}

/// Two-sided 95% Student-t critical value for `dof` degrees of freedom
/// (asymptotic 1.960 past the table).
fn t95(dof: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match dof {
        0 => f64::INFINITY,
        d if d <= TABLE.len() => TABLE[d - 1],
        _ => 1.960,
    }
}

/// Mean and 95% CI half-width of `values` (Student-t with n−1 dof).
/// A single value has an unbounded interval; that degenerate case
/// renders as 0.0 rather than poisoning a table with infinities.
pub fn mean_ci(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let half = t95(n - 1) * (var / n as f64).sqrt();
    (mean, if half.is_finite() { half } else { 0.0 })
}

/// Mean and 95% CI half-width of the per-interval **paired** ratios
/// `num[i] / den[i]` — the right uncertainty for "speedup vs baseline"
/// cells, where numerator and denominator sample the same program
/// region. Mismatched lengths (e.g. one side not sampled) degrade to
/// (0, 0).
pub fn ratio_ci(num: &[f64], den: &[f64]) -> (f64, f64) {
    if num.len() != den.len() || num.is_empty() {
        return (0.0, 0.0);
    }
    let ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .map(|(a, b)| if b.abs() > 1e-12 { a / b } else { 0.0 })
        .collect();
    mean_ci(&ratios)
}

/// CI half-width of the arithmetic mean of independent estimates with
/// the given half-widths: `sqrt(Σ hᵢ²) / n`. Used for category/average
/// rows, which are means of per-workload estimates.
pub fn combine_halves(halves: &[f64]) -> f64 {
    if halves.is_empty() {
        return 0.0;
    }
    halves.iter().map(|h| h * h).sum::<f64>().sqrt() / halves.len() as f64
}

/// Canonical artifact-store key of one cached checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointKey {
    specs: Vec<TraceSpec>,
    offset: u64,
}

fn checkpoint_key(specs: &[TraceSpec], offset: u64) -> String {
    serde_json::to_string(&CheckpointKey {
        specs: specs.to_vec(),
        offset,
    })
    .expect("checkpoint key serializes")
}

/// The checkpoints for `specs` at `offsets`: all served from the
/// artifact store when present and verifiable, otherwise captured (see
/// [`capture_checkpoints`]).
fn checkpoints_for(
    specs: &[TraceSpec],
    offsets: &[u64],
    artifacts: Option<&ArtifactStore>,
) -> Vec<Checkpoint> {
    if let Some(store) = artifacts {
        let cached: Vec<Checkpoint> = offsets
            .iter()
            .filter_map(|&off| {
                let payload = store.get_record(CHECKPOINT_KIND, &checkpoint_key(specs, off))?;
                let ck: Checkpoint = serde_json::from_str(&payload).ok()?;
                // A record that round-trips but fails its own checksum is
                // stale or tampered: recompute rather than resume it.
                ck.verify().ok()?;
                Some(ck)
            })
            .collect();
        if cached.len() == offsets.len() {
            return cached;
        }
    }
    capture_checkpoints(specs, offsets, artifacts)
}

/// Capture the checkpoints for `specs` at `offsets` in one replay pass
/// and write them back to the artifact store, overwriting any record at
/// the same key (best-effort — a failed write degrades to a re-capture
/// next time, never to an error).
fn capture_checkpoints(
    specs: &[TraceSpec],
    offsets: &[u64],
    artifacts: Option<&ArtifactStore>,
) -> Vec<Checkpoint> {
    let captured = Checkpoint::capture_many(specs, offsets);
    if let Some(store) = artifacts {
        for (ck, &off) in captured.iter().zip(offsets) {
            let payload = serde_json::to_string(ck).expect("checkpoint serializes");
            let _ = store.put_record(CHECKPOINT_KIND, &checkpoint_key(specs, off), &payload);
        }
    }
    captured
}

/// One sampled run: N checkpointed fast-forwards, N detailed windows,
/// pooled result + per-interval sidecar. Deterministic for fixed inputs
/// — the checkpoints are pure functions of (specs, offsets) and each
/// window restore is bit-exact — so sampled runs memoize and dedup
/// exactly like full runs.
#[allow(clippy::too_many_arguments)]
pub fn sampled_run(
    cfg: &MachineConfig,
    iq: SchemeKind,
    rf: RegFileSchemeKind,
    specs: &[TraceSpec],
    spec: SampleSpec,
    horizon: u64,
    max_cycles: u64,
    validate: bool,
    shared: Option<&[Arc<SharedStream>]>,
    artifacts: Option<&ArtifactStore>,
) -> (SimResult, SampleStats) {
    let offsets: Vec<u64> = (0..spec.intervals)
        .map(|i| spec.offset(i, horizon))
        .collect();
    let windows = |ckpts: &[Checkpoint]| -> Result<Vec<SimResult>, String> {
        ckpts
            .iter()
            .map(|ck| {
                let mut sim = match shared {
                    Some(streams) => {
                        Simulator::from_checkpoint_batched(cfg.clone(), iq, rf, ck, streams)
                    }
                    None => Simulator::from_checkpoint(cfg.clone(), iq, rf, ck),
                }?;
                if validate {
                    sim.enable_oracle();
                }
                Ok(sim.run_with_warmup(spec.warmup, spec.detail, max_cycles))
            })
            .collect()
    };
    // A cached checkpoint can verify yet not restore (its cursor does not
    // fit the program): treat it like one that fails `verify()` — capture
    // again and overwrite the record. Windows are pure functions of their
    // checkpoint, so re-running them changes no result.
    let runs = windows(&checkpoints_for(specs, &offsets, artifacts))
        .or_else(|_| windows(&capture_checkpoints(specs, &offsets, artifacts)))
        .expect("a freshly captured checkpoint restores");
    let stats = SampleStats { spec, runs };
    (stats.pooled(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_trace::suite;

    fn specs() -> Vec<TraceSpec> {
        suite::suite()[0].traces.to_vec()
    }

    fn sspec(intervals: u64) -> SampleSpec {
        SampleSpec {
            intervals,
            warmup: 150,
            detail: 400,
        }
    }

    #[test]
    fn t_table_is_monotone_and_converges() {
        assert!(t95(1) > t95(2));
        assert!(t95(5) > t95(30));
        assert!((t95(31) - 1.960).abs() < 1e-9);
        assert_eq!(t95(0), f64::INFINITY);
    }

    #[test]
    fn mean_ci_matches_hand_computation() {
        // n=4, mean 2.5, s² = 5/3; half = 3.182 * sqrt(5/12).
        let (m, h) = mean_ci(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((h - 3.182 * (5.0f64 / 12.0).sqrt()).abs() < 1e-9);
        // Degenerate inputs.
        assert_eq!(mean_ci(&[]), (0.0, 0.0));
        assert_eq!(mean_ci(&[7.0]), (7.0, 0.0));
        let (_, h0) = mean_ci(&[3.0, 3.0, 3.0]);
        assert_eq!(h0, 0.0, "zero variance → zero width");
    }

    #[test]
    fn ratio_ci_pairs_and_guards() {
        let (m, h) = ratio_ci(&[2.0, 4.0], &[1.0, 2.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert_eq!(h, 0.0, "identical ratios have zero spread");
        assert_eq!(ratio_ci(&[1.0], &[1.0, 2.0]), (0.0, 0.0));
        assert_eq!(ratio_ci(&[], &[]), (0.0, 0.0));
    }

    #[test]
    fn combine_halves_is_rss_over_n() {
        assert!((combine_halves(&[3.0, 4.0]) - 2.5).abs() < 1e-12);
        assert_eq!(combine_halves(&[]), 0.0);
    }

    #[test]
    fn sampled_run_is_deterministic_and_pools() {
        let cfg = csmt_types::MachineConfig::iq_study(32);
        let run = || {
            sampled_run(
                &cfg,
                SchemeKind::Cssp,
                RegFileSchemeKind::Shared,
                &specs(),
                sspec(3),
                6_000,
                2_000_000,
                false,
                None,
                None,
            )
        };
        let (a, sa) = run();
        let (b, _) = run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "sampled runs must be bit-identical"
        );
        assert_eq!(sa.runs.len(), 3);
        assert!(a.throughput() > 0.0);
        assert_eq!(a.commit_target, 3 * 400);
        // Pooled commits are the sum of window commits.
        let total: u64 = sa.runs.iter().map(|r| r.stats.committed[0]).sum();
        assert_eq!(a.stats.committed[0], total);
        // The sidecar round-trips through the artifact record format.
        let json = serde_json::to_string(&sa).unwrap();
        let back: SampleStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.runs.len(), sa.runs.len());
        assert_eq!(
            serde_json::to_string(&back.pooled()).unwrap(),
            serde_json::to_string(&a).unwrap()
        );
    }

    fn scratch_store(tag: &str) -> (std::path::PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!("csmt-sample-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        (dir, store)
    }

    /// A three-window sampled run over `specs()`, through `store`.
    fn sampled(store: Option<&ArtifactStore>) -> String {
        let (pooled, stats) = sampled_run(
            &csmt_types::MachineConfig::iq_study(32),
            SchemeKind::Cssp,
            RegFileSchemeKind::Shared,
            &specs(),
            sspec(3),
            6_000,
            2_000_000,
            false,
            None,
            store,
        );
        serde_json::to_string(&(pooled, stats)).unwrap()
    }

    fn offsets() -> Vec<u64> {
        (0..3).map(|i| sspec(3).offset(i, 6_000)).collect()
    }

    /// Seed `store` with `records` at the sampled run's checkpoint keys,
    /// then check the run recaptures (and rewrites) them and matches a
    /// store-less run bit for bit.
    fn recaptures_over(tag: &str, records: Vec<String>) {
        let (dir, store) = scratch_store(tag);
        for (off, payload) in offsets().into_iter().zip(&records) {
            store
                .put_record(CHECKPOINT_KIND, &checkpoint_key(&specs(), off), payload)
                .unwrap();
        }
        let seeded = store.counters().puts;
        assert_eq!(sampled(Some(&store)), sampled(None), "{tag}: results moved");
        assert_eq!(
            store.counters().puts,
            seeded + 3,
            "{tag}: the checkpoints must be captured again and rewritten"
        );
        // The rewritten records now restore: a second run writes nothing.
        assert_eq!(sampled(Some(&store)), sampled(None));
        assert_eq!(store.counters().puts, seeded + 3, "{tag}: rewrite stuck");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_1_checkpoints_without_a_cursor_are_recaptured() {
        // The layout a schema-1 binary wrote: no cursor per thread.
        #[derive(Serialize)]
        struct ThreadV1 {
            spec: TraceSpec,
            offset: u64,
            warm_lines: Vec<u64>,
        }
        #[derive(Serialize)]
        struct CheckpointV1 {
            schema: u32,
            threads: Vec<ThreadV1>,
            checksum: u64,
        }
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let records = Checkpoint::capture_many(&specs(), &offsets())
            .into_iter()
            .map(|ck| {
                let mut v1 = CheckpointV1 {
                    schema: 1,
                    threads: ck
                        .threads
                        .into_iter()
                        .map(|t| ThreadV1 {
                            spec: t.spec,
                            offset: t.offset,
                            warm_lines: t.warm_lines,
                        })
                        .collect(),
                    checksum: 0,
                };
                v1.checksum = fnv1a(serde_json::to_string(&v1).unwrap().as_bytes());
                serde_json::to_string(&v1).unwrap()
            })
            .collect();
        recaptures_over("schema1", records);
    }

    #[test]
    fn checkpoints_that_verify_but_do_not_restore_are_recaptured() {
        let records = Checkpoint::capture_many(&specs(), &offsets())
            .into_iter()
            .enumerate()
            .map(|(i, mut ck)| {
                if i == 1 {
                    // Out-of-range block, re-sealed so `verify()` passes.
                    ck.threads[0].cursor.block = u32::MAX;
                    ck.checksum = ck.content_hash();
                    ck.verify().unwrap();
                }
                serde_json::to_string(&ck).unwrap()
            })
            .collect();
        recaptures_over("badcursor", records);
    }

    #[test]
    fn checkpoints_cache_through_the_artifact_store() {
        let dir = std::env::temp_dir().join(format!("csmt-sample-ck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        let offsets = [0u64, 2_000, 4_000];
        let cold = checkpoints_for(&specs(), &offsets, Some(&store));
        assert_eq!(store.counters().puts, 3);
        let warm = checkpoints_for(&specs(), &offsets, Some(&store));
        assert_eq!(cold, warm, "cached checkpoints must be identical");
        assert_eq!(store.counters().puts, 3, "warm pass writes nothing");
        assert_eq!(store.counters().hits, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
