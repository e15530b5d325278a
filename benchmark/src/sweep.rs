//! The three sweep workloads: the untraced pass through `Sweeps`, and a
//! traced re-enactment of the same pass built from each layer's public
//! calls.
//!
//! The re-enactment makes the calls `Sweeps` makes with one worker, in
//! the same order and with the same inputs: the warm-phase store lookups,
//! the shared-stream decode of batched sweeps, construction, simulation,
//! the checkpoint cache of sampled runs, and the store writes. Its digest
//! must equal the untraced pass's, which proves it did the same work.
//! What it leaves out (the executor, the orchestrator and its journal, the
//! memo and its keying) is the sweep runner's own time.

use crate::inputs::{Point, SweepPlan};
use crate::pass::{self, median_of, PassResult};
use crate::spans::{self, Recorder};
use csmt_core::{Checkpoint, SimResult, Simulator};
use csmt_experiments::runner::ExpOptions;
use csmt_experiments::sample::{SampleStats, CHECKPOINT_KIND, SAMPLE_STATS_KIND};
use csmt_experiments::Sweeps;
use csmt_store::{ArtifactStore, Lookup, ResultStore, StoreKey, SCHEMA_VERSION};
use csmt_trace::stream::SharedStream;
use csmt_trace::suite::{TraceSpec, Workload};
use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn digest(results: impl Iterator<Item = SimResult>) -> String {
    pass::digest(results.map(|r| serde_json::to_string(&r).expect("result serializes")))
}

/// One untraced pass: the whole batch through one `Sweeps::smt_batch`.
pub fn pass(plan: &SweepPlan, dir: &Path) -> PassResult {
    let sweeps = if plan.store {
        Sweeps::with_store(plan.opts, dir.join("store")).expect("open the pass store")
    } else {
        Sweeps::new(plan.opts)
    };
    pass::ready();
    let t0 = Instant::now();
    sweeps.smt_batch(&plan.workloads, &plan.points);
    let wall_s = t0.elapsed().as_secs_f64();
    let results = plan
        .grid()
        .map(|(w, (iq, rf, cfg))| sweeps.get(&Sweeps::smt_key(w, iq, rf, cfg)));
    let mut out = PassResult {
        wall_s,
        runs: plan.runs() as u64,
        lat_ms: vec![wall_s * 1e3],
        digest: digest(results),
        rss_mb: pass::peak_rss_mb(None).unwrap_or(0.0),
        ..PassResult::default()
    };
    for _ in 0..sweeps.counters().orch.failures {
        out.fail("a run failed every attempt".to_string());
    }
    out
}

/// The key `Sweeps` files a run under in the persistent store.
pub(crate) fn store_key(opts: &ExpOptions, w: &Workload, (iq, rf, cfg): Point) -> StoreKey {
    StoreKey {
        schema: SCHEMA_VERSION,
        label: w.name.clone(),
        iq: iq.name().to_string(),
        rf: rf.name().to_string(),
        cfg: cfg.label(),
        config: cfg.build(),
        commit_target: opts.commit_target,
        warmup: opts.warmup,
        max_cycles: opts.max_cycles,
        sample: opts.sample,
    }
}

/// Artifact-store key of one cached checkpoint; serializes to the same
/// bytes as the sweep runner's.
#[derive(Serialize)]
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

/// Work done inside spans, counted exactly.
#[derive(Default)]
struct Work {
    /// Cycles stepped by `core.simulate` and `core.window`.
    cycles: u64,
    /// Useful uops committed in those cycles.
    uops: u64,
    /// Uops the checkpoint captures replayed (all threads).
    ffwd_uops: u64,
}

type StreamCache = HashMap<(String, u64), Arc<SharedStream>>;

/// The shared decoded stream of one trace, decoded on first use.
fn stream_for(
    rec: &mut Recorder,
    cache: &mut StreamCache,
    spec: &TraceSpec,
    run: usize,
) -> Arc<SharedStream> {
    let key = (
        serde_json::to_string(&spec.profile).expect("profile serializes"),
        spec.seed,
    );
    if let Some(s) = cache.get(&key) {
        return s.clone();
    }
    let s = Arc::new(rec.leaf("trace.decode", run, || {
        SharedStream::new(&spec.profile, spec.seed)
    }));
    cache.insert(key, s.clone());
    s
}

/// The checkpoints of a sampled run: from the artifact store when all are
/// cached and verify, else captured in one replay and written back.
fn checkpoints(
    rec: &mut Recorder,
    arts: Option<&ArtifactStore>,
    specs: &[TraceSpec],
    offsets: &[u64],
    run: usize,
    work: &mut Work,
) -> Vec<Checkpoint> {
    if let Some(store) = arts {
        let cached: Vec<Checkpoint> = offsets
            .iter()
            .filter_map(|&off| {
                let ck: Checkpoint = rec.leaf("store.artifact_get", run, || {
                    let payload = store.get_record(CHECKPOINT_KIND, &checkpoint_key(specs, off))?;
                    serde_json::from_str(&payload).ok()
                })?;
                rec.leaf("core.ckpt_verify", run, || ck.verify()).ok()?;
                Some(ck)
            })
            .collect();
        if cached.len() == offsets.len() {
            return cached;
        }
    }
    let captured = rec.leaf("core.ckpt_capture", run, || {
        Checkpoint::capture_many(specs, offsets)
    });
    work.ffwd_uops += specs.len() as u64 * offsets.last().copied().unwrap_or(0);
    if let Some(store) = arts {
        for (ck, &off) in captured.iter().zip(offsets) {
            rec.leaf("store.artifact_put", run, || {
                let payload = serde_json::to_string(ck).expect("checkpoint serializes");
                let _ = store.put_record(CHECKPOINT_KIND, &checkpoint_key(specs, off), &payload);
            });
        }
    }
    captured
}

/// The traced re-enactment of one pass, on one thread.
pub fn replay(plan: &SweepPlan, dir: &Path) -> PassResult {
    let store_dir = dir.join("store");
    let store = plan
        .store
        .then(|| ResultStore::open(&store_dir).expect("open the pass store"));
    let arts = plan
        .store
        .then(|| ArtifactStore::open(&store_dir).expect("open the artifact store"));
    let opts = plan.opts;
    let mut streams = StreamCache::new();
    let mut work = Work::default();
    let mut out = PassResult::default();
    pass::ready();
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let keys: Vec<StoreKey> = plan.grid().map(|(w, p)| store_key(&opts, w, p)).collect();
    if let Some(store) = &store {
        // `Sweeps` looks every key up before it simulates anything.
        for (run, key) in keys.iter().enumerate() {
            if let Lookup::Hit(_) = rec.leaf("store.get", run, || store.get(key)) {
                out.fail(format!("run {run} hit a fresh store"));
            }
        }
    }
    let mut results = Vec::with_capacity(keys.len());
    for (run, ((w, (iq, rf, cfg)), key)) in plan.grid().zip(&keys).enumerate() {
        let shared: Option<Vec<Arc<SharedStream>>> = opts.batch.then(|| {
            w.traces
                .iter()
                .map(|t| stream_for(&mut rec, &mut streams, t, run))
                .collect()
        });
        let (result, sidecar) = match opts.sample {
            None => {
                let mut sim = rec.leaf("core.construct", run, || {
                    let cfg = cfg.build();
                    match &shared {
                        Some(s) => Simulator::new_batched(cfg, iq, rf, &w.traces, s),
                        None => Simulator::new(cfg, iq, rf, &w.traces),
                    }
                });
                let r = rec.leaf("core.simulate", run, || {
                    sim.run_with_warmup(opts.warmup, opts.commit_target, opts.max_cycles)
                });
                work.cycles += sim.cycles();
                work.uops += sim.committed_total();
                (r, None)
            }
            Some(spec) => {
                let cfg = cfg.build();
                let offsets: Vec<u64> = (0..spec.intervals)
                    .map(|i| spec.offset(i, opts.commit_target))
                    .collect();
                let ckpts =
                    checkpoints(&mut rec, arts.as_ref(), &w.traces, &offsets, run, &mut work);
                let streams = shared.as_deref().expect("sampled sweeps are batched");
                let runs: Vec<SimResult> = ckpts
                    .iter()
                    .map(|ck| {
                        let mut sim = rec
                            .leaf("core.ckpt_restore", run, || {
                                Simulator::from_checkpoint_batched(cfg.clone(), iq, rf, ck, streams)
                            })
                            .expect("a verified checkpoint restores");
                        let r = rec.leaf("core.window", run, || {
                            sim.run_with_warmup(spec.warmup, spec.detail, opts.max_cycles)
                        });
                        work.cycles += sim.cycles();
                        work.uops += sim.committed_total();
                        r
                    })
                    .collect();
                let stats = SampleStats { spec, runs };
                (stats.pooled(), Some(stats))
            }
        };
        if let Some(store) = &store {
            if let Err(e) = rec.leaf("store.put", run, || store.put(key, &result)) {
                out.fail(format!("store put of run {run}: {e}"));
            }
        }
        if let (Some(arts), Some(stats)) = (&arts, &sidecar) {
            let put = rec.leaf("store.artifact_put", run, || {
                let payload = serde_json::to_string(stats).expect("sidecar serializes");
                arts.put_record(SAMPLE_STATS_KIND, &key.canonical_json(), &payload)
            });
            if let Err(e) = put {
                out.fail(format!("sidecar put of run {run}: {e}"));
            }
        }
        results.push(result);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.runs = results.len() as u64;
    out.lat_ms = vec![out.wall_s * 1e3];
    out.rss_mb = pass::peak_rss_mb(None).unwrap_or(0.0);
    out.layer = readings(
        &rec,
        &work,
        store.as_ref(),
        arts.as_ref(),
        &store_dir,
        out.wall_s,
    );
    out.layer.extend(pass::sim_counts(&results));
    out.digest = digest(results.into_iter());
    out.spans = rec.to_json();
    out.self_ms = spans::self_ms(&rec.spans);
    out
}

fn readings(
    rec: &Recorder,
    work: &Work,
    store: Option<&ResultStore>,
    arts: Option<&ArtifactStore>,
    store_dir: &Path,
    wall_s: f64,
) -> Vec<(String, f64)> {
    let sim_ns = (rec.total_ms("core.simulate") + rec.total_ms("core.window")) * 1e6;
    let per = |n: u64| if n > 0 { sim_ns / n as f64 } else { 0.0 };
    let sc = store.map(ResultStore::counters).unwrap_or_default();
    let ac = arts.map(ArtifactStore::counters).unwrap_or_default();
    let wall_ns = wall_s * 1e9;
    vec![
        ("trace.decode_ms", rec.total_ms("trace.decode")),
        ("core.construct_ms", rec.total_ms("core.construct")),
        ("core.simulate_ms", rec.total_ms("core.simulate")),
        ("core.ns_per_cycle", per(work.cycles)),
        ("core.ns_per_uop", per(work.uops)),
        ("core.ckpt_capture_ms", rec.total_ms("core.ckpt_capture")),
        ("core.ckpt_fastforward_uops", work.ffwd_uops as f64),
        ("core.ckpt_restore_ms", rec.total_ms("core.ckpt_restore")),
        ("core.ckpt_verify_ms", rec.total_ms("core.ckpt_verify")),
        ("core.window_ms", rec.total_ms("core.window")),
        ("store.put_ms", rec.total_ms("store.put")),
        (
            "store.put_us_p50",
            median_of(&rec.durations("store.put"), 1e3),
        ),
        ("store.puts", sc.puts as f64),
        ("store.bytes_written", pass::dir_bytes(store_dir) as f64),
        ("store.get_ms", rec.total_ms("store.get")),
        (
            "store.get_us_p50",
            median_of(&rec.durations("store.get"), 1e3),
        ),
        ("store.hits", sc.hits as f64),
        ("store.misses", sc.misses as f64),
        ("store.artifact_get_ms", rec.total_ms("store.artifact_get")),
        ("store.artifact_put_ms", rec.total_ms("store.artifact_put")),
        ("store.artifact_hits", ac.hits as f64),
        ("store.artifact_misses", ac.misses as f64),
        ("span_coverage_frac", rec.covered_ns() as f64 / wall_ns),
        (
            "trace_overhead_frac",
            rec.spans.len() as f64 * spans::cost_per_span_ns() / wall_ns,
        ),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}
