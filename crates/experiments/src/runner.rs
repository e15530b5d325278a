//! Parallel, memoized simulation runner.
//!
//! A [`Sweeps`] store maps [`RunKey`]s (workload × scheme × configuration)
//! to [`SimResult`]s. Figures request batches of keys; the store simulates
//! missing ones across an in-order [`csmt_store::Executor`]
//! (`--jobs N` worker threads, default `min(cores, 8)`, starting runs in
//! batch order; `--jobs 1` is a true serial path) and memoizes, so e.g.
//! the Icount@32 baseline shared by Figures 2, 3, 4 and 5 is simulated
//! exactly once per process.
//! Results are aggregated **in batch order**, not completion order, so
//! every figure, CSV and store record is byte-identical whatever the
//! worker count or interleaving.
//!
//! The memo is also the in-process single-flight: a key being computed
//! sits in it as an in-flight entry, so a concurrent caller wanting the
//! same key (another daemon job, another figure thread) waits for that
//! result instead of simulating it again.
//!
//! With [`Sweeps::with_store`], memoization extends **across processes**:
//! each run's identity (key + full [`MachineConfig`] + run options) is
//! hashed into a [`csmt_store::ResultStore`] lookup, so a second
//! `csmt-experiments all` serves every run from disk and simulates
//! nothing. Simulations are executed through a
//! [`csmt_store::Orchestrator`]: a panicking run is journaled and
//! recorded as a failed job — it never tears down the sweep.

use crate::sample::{self, SampleStats};
use csmt_core::metrics::{SimResult, SimStats};
use csmt_core::Simulator;
use csmt_store::{
    ArtifactStore, EventKind, ExecCounters, Executor, JobDesc, Journal, Lookup, OrchCounters,
    Orchestrator, ResultStore, StoreCounters, StoreKey, SCHEMA_VERSION,
};
use csmt_trace::stream::SharedStream;
use csmt_trace::suite::{Bundle, TraceSpec, Workload};
use csmt_types::{MachineConfig, RegFileSchemeKind, SampleSpec, SchemeKind};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// What one run produces: the memoized (possibly pooled) result, plus
/// the per-interval sampling sidecar when the run was sampled.
type RunOutput = (SimResult, Option<SampleStats>);

/// Test-only fault injection for sweep jobs; see
/// [`csmt_store::fault_injection`]. Re-exported here because the hook
/// fires inside [`Sweeps`] jobs and the harness tests arm it through this
/// path.
#[doc(hidden)]
pub use csmt_store::fault_injection;

/// Machine configuration variants used by the paper's studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CfgKind {
    /// §5.1 issue-queue study: `iq` entries per cluster, unbounded
    /// registers and ROB.
    IqStudy { iq: usize },
    /// §5.2 register-file study: 32-entry IQs, `regs` registers per
    /// cluster and class.
    RfStudy { regs: usize },
    /// Full Table-1 baseline.
    Baseline,
    /// Ablation A1: steering balance threshold sweep (32-entry IQ study).
    SteerAblation { threshold: usize },
    /// Ablation A2: CDPRF interval sweep (64-register RF study),
    /// interval = 2^shift cycles.
    IntervalAblation { shift: u32 },
    /// Ablation A3: inter-cluster link count / latency sweep.
    LinkAblation { links: usize, latency: u64 },
    /// Ablation A4: hardware prefetcher (0 none, 1 next-line, 2 stride),
    /// 32-entry IQ study.
    PrefetchAblation { kind: u8 },
    /// Scaled-shape issue-queue study: the Figure-2 machine (unbounded
    /// registers and ROB) at `threads × clusters` instead of the paper's
    /// 2×2.
    ScaledIq {
        threads: usize,
        clusters: usize,
        iq: usize,
    },
    /// Scaled-shape register-file study: the Figure-6/10 machine at
    /// `threads × clusters`. `regs` must satisfy the rename-deadlock
    /// floor for the thread count (`threads × 32` per cluster).
    ScaledRf {
        threads: usize,
        clusters: usize,
        regs: usize,
    },
}

impl CfgKind {
    pub fn build(self) -> MachineConfig {
        match self {
            CfgKind::IqStudy { iq } => MachineConfig::iq_study(iq),
            CfgKind::RfStudy { regs } => MachineConfig::rf_study(regs),
            CfgKind::Baseline => MachineConfig::baseline(),
            CfgKind::SteerAblation { threshold } => MachineConfig {
                steer_imbalance_threshold: threshold,
                ..MachineConfig::iq_study(32)
            },
            CfgKind::IntervalAblation { shift } => MachineConfig {
                cdprf_interval: 1 << shift,
                ..MachineConfig::rf_study(64)
            },
            CfgKind::LinkAblation { links, latency } => MachineConfig {
                num_links: links,
                link_latency: latency,
                ..MachineConfig::iq_study(32)
            },
            CfgKind::PrefetchAblation { kind } => MachineConfig {
                prefetcher: ["none", "next-line", "stride"][kind as usize % 3].to_string(),
                ..MachineConfig::iq_study(32)
            },
            CfgKind::ScaledIq {
                threads,
                clusters,
                iq,
            } => MachineConfig {
                num_threads: threads,
                num_clusters: clusters,
                ..MachineConfig::iq_study(iq)
            },
            CfgKind::ScaledRf {
                threads,
                clusters,
                regs,
            } => MachineConfig {
                num_threads: threads,
                num_clusters: clusters,
                ..MachineConfig::rf_study(regs)
            },
        }
    }

    pub fn label(self) -> String {
        match self {
            CfgKind::IqStudy { iq } => format!("iq{iq}"),
            CfgKind::RfStudy { regs } => format!("rf{regs}"),
            CfgKind::Baseline => "base".to_string(),
            CfgKind::SteerAblation { threshold } => format!("steer{threshold}"),
            CfgKind::IntervalAblation { shift } => format!("interval2^{shift}"),
            CfgKind::LinkAblation { links, latency } => format!("links{links}x{latency}"),
            CfgKind::PrefetchAblation { kind } => format!("pf{kind}"),
            CfgKind::ScaledIq {
                threads,
                clusters,
                iq,
            } => format!("iq{iq}@{threads}x{clusters}"),
            CfgKind::ScaledRf {
                threads,
                clusters,
                regs,
            } => format!("rf{regs}@{threads}x{clusters}"),
        }
    }
}

/// Identity of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Workload name from the suite, or `single:<profile>:<seed>` for a
    /// fairness baseline.
    pub label: String,
    pub iq: SchemeKind,
    pub rf: RegFileSchemeKind,
    pub cfg: CfgKind,
}

/// What a key simulates. Boxed: a 2-trace workload carries two full
/// profiles and would dominate the variant size otherwise.
enum RunInput {
    Smt(Box<Workload>),
    Single(Box<TraceSpec>),
    /// An N-thread bundle for scaled machine shapes.
    Bundle(Box<Bundle>),
}

impl From<Workload> for RunInput {
    fn from(w: Workload) -> Self {
        RunInput::Smt(Box::new(w))
    }
}

impl From<TraceSpec> for RunInput {
    fn from(spec: TraceSpec) -> Self {
        RunInput::Single(Box::new(spec))
    }
}

impl From<Bundle> for RunInput {
    fn from(b: Bundle) -> Self {
        RunInput::Bundle(Box::new(b))
    }
}

impl RunInput {
    /// The traces the run simulates, one per hardware thread.
    fn traces(&self) -> &[TraceSpec] {
        match self {
            RunInput::Smt(w) => &w.traces,
            RunInput::Single(s) => std::slice::from_ref(&**s),
            RunInput::Bundle(b) => &b.traces,
        }
    }
}

/// Harness options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpOptions {
    /// Committed uops per thread per run.
    pub commit_target: u64,
    /// Warm-up committed uops per thread before measurement.
    pub warmup: u64,
    /// Hard cycle cap per run.
    pub max_cycles: u64,
    /// Sweep worker threads (`--jobs`): 0 = `min(cores, 8)`, 1 = serial
    /// on the caller's thread, N = that many workers taking runs in batch
    /// order.
    pub jobs: usize,
    /// Print progress dots.
    pub verbose: bool,
    /// Arm the architectural invariant suite + differential oracle on
    /// every run (`--validate`). Validators are read-only observers, so
    /// results are unchanged — but a violation panics the run, so
    /// validated sweeps skip the persistent store (a failed placeholder
    /// must never be persisted as a real result).
    pub validate: bool,
    /// Batched sweep mode (`--batch`): decode each distinct trace once
    /// into a [`SharedStream`] and run every config point sharing it
    /// against that stream, instead of re-decoding per config. Results
    /// are bit-identical (the stream is a pure function of the trace
    /// spec; see `tests/batch_determinism.rs`), so batched and
    /// per-config runs share store records.
    pub batch: bool,
    /// Sampled simulation (`--sample intervals=N,warmup=W,detail=D`):
    /// instead of one contiguous detailed run to `commit_target`, fast
    /// forward (via checkpoints) to N evenly spaced commit offsets across
    /// the `commit_target` horizon and run a detailed W-warmup + D-detail
    /// window at each. The memoized result is the pooled estimate; the
    /// per-interval measurements ride along as a [`SampleStats`] sidecar
    /// so figures can annotate confidence intervals. Sampled results
    /// never alias full runs in the store (the spec is part of the key).
    pub sample: Option<SampleSpec>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            commit_target: 20_000,
            warmup: 10_000,
            max_cycles: 30_000_000,
            jobs: 0,
            verbose: true,
            validate: false,
            batch: false,
            sample: None,
        }
    }
}

/// Combined cache/orchestration counters of one [`Sweeps`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Persistent-store traffic; `None` when running without a store.
    pub store: Option<StoreCounters>,
    /// Simulation outcomes (completed / failed jobs).
    pub orch: OrchCounters,
    /// Executor traffic (workers used, jobs run).
    pub exec: ExecCounters,
    /// Shared-stream traffic; `None` unless the sweep is batched.
    pub streams: Option<StreamCounters>,
}

/// Shared decoded streams of a batched sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Streams decoded. A stream is decoded once per batch that reads it,
    /// so with one worker and one caller this is deterministic.
    pub decoded: u64,
    /// Most streams held at once.
    pub peak_held: u64,
}

/// Cache identity of a decoded stream: the full serialized profile plus
/// seed (the exact identity the stream is a pure function of — two
/// profiles that differ anywhere get distinct streams even if they share
/// a name).
type StreamKey = (String, u64);

fn stream_key(spec: &TraceSpec) -> StreamKey {
    (
        serde_json::to_string(&spec.profile).expect("profile serializes"),
        spec.seed,
    )
}

/// Decoded-trace cache for batched sweeps. An entry lives only as long
/// as the runs that read it: [`Sweeps::ensure`] reserves one pending run
/// per (job, trace) before any job starts, each job releases its traces
/// once it is finished, and the last release drops the cache's
/// `Arc<SharedStream>`. A reader still running holds its own `Arc`, so
/// nothing is freed under it; a later batch over the same trace decodes
/// it again, to the same bytes. A trace that recurs later in the same
/// batch stays held until its last run there.
#[derive(Default)]
struct StreamCache(Mutex<StreamTable>);

#[derive(Default)]
struct StreamTable {
    entries: HashMap<StreamKey, StreamEntry>,
    counters: StreamCounters,
}

#[derive(Default)]
struct StreamEntry {
    /// Decoded on first use.
    stream: Option<Arc<SharedStream>>,
    /// Reserved runs that have not yet released this entry.
    pending: usize,
}

impl StreamCache {
    /// Count one pending run per key (a key listed twice counts twice).
    fn reserve<'k>(&self, keys: impl IntoIterator<Item = &'k StreamKey>) {
        let mut table = self.0.lock().unwrap_or_else(|e| e.into_inner());
        for key in keys {
            table.entries.entry(key.clone()).or_default().pending += 1;
        }
    }

    /// The stream of a reserved key, decoded on first use. The decode
    /// runs under the cache lock: concurrent workers wanting the same
    /// trace wait for one decode instead of racing on duplicates.
    fn get(&self, key: &StreamKey, spec: &TraceSpec) -> Arc<SharedStream> {
        let mut table = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let entry = table
            .entries
            .get_mut(key)
            .expect("stream reserved before use");
        if let Some(stream) = &entry.stream {
            return stream.clone();
        }
        let stream = Arc::new(SharedStream::new(&spec.profile, spec.seed));
        entry.stream = Some(stream.clone());
        let held = table
            .entries
            .values()
            .filter(|e| e.stream.is_some())
            .count();
        table.counters.decoded += 1;
        table.counters.peak_held = table.counters.peak_held.max(held as u64);
        stream
    }

    /// Release one pending run of `key`; the last release drops the
    /// entry and its stream.
    fn release(&self, key: &StreamKey) {
        let mut table = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = table.entries.get_mut(key) else {
            return;
        };
        entry.pending -= 1;
        if entry.pending == 0 {
            let gone = table.entries.remove(key);
            // Free the chunks outside the lock.
            drop(table);
            drop(gone);
        }
    }

    fn counters(&self) -> StreamCounters {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).counters
    }
}

/// Releases one job's reserved streams when dropped: after the job,
/// whether it completed, failed or unwound.
struct StreamLease<'a> {
    cache: &'a StreamCache,
    keys: &'a [StreamKey],
}

impl Drop for StreamLease<'_> {
    fn drop(&mut self) {
        for key in self.keys {
            self.cache.release(key);
        }
    }
}

/// One memo entry.
enum Slot {
    /// Claimed by one [`Sweeps::ensure`] call, which publishes it as
    /// `Ready` or, if it unwinds, removes it.
    Pending,
    /// The shared result, plus the per-interval sampling sidecar when the
    /// run was sampled.
    Ready(Arc<SimResult>, Option<Arc<SampleStats>>),
}

/// The run memo and its in-flight entries.
#[derive(Default)]
struct Memo {
    slots: Mutex<HashMap<RunKey, Slot>>,
    /// Signalled whenever a claim is published or released.
    settled: Condvar,
}

impl Memo {
    fn lock(&self) -> MutexGuard<'_, HashMap<RunKey, Slot>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish(&self, key: RunKey, (result, stats): RunOutput) {
        self.lock()
            .insert(key, Slot::Ready(Arc::new(result), stats.map(Arc::new)));
        self.settled.notify_all();
    }
}

/// The keys one `ensure` call claimed. Every claim is published before
/// `ensure` returns; if it unwinds instead, the drop removes the claims
/// still `Pending` and wakes every waiter, which then finds the key
/// absent and claims it itself.
struct Claims<'a> {
    memo: &'a Memo,
    keys: Vec<RunKey>,
}

impl Drop for Claims<'_> {
    fn drop(&mut self) {
        if self.keys.is_empty() {
            return;
        }
        let mut slots = self.memo.lock();
        for key in &self.keys {
            if let Some(Slot::Pending) = slots.get(key) {
                slots.remove(key);
            }
        }
        drop(slots);
        self.memo.settled.notify_all();
    }
}

/// Memoizing run store. The memo shares each result (`Arc`) instead of
/// copying it: a figure over an already-memoized grid reads every run in
/// place and builds no [`RunInput`].
pub struct Sweeps {
    pub opts: ExpOptions,
    memo: Memo,
    store: Option<Arc<ResultStore>>,
    /// Checkpoint + sidecar cache, colocated with the result store
    /// (`<store>/artifacts/`); `None` without a store.
    artifacts: Option<Arc<ArtifactStore>>,
    journal: Option<Arc<Journal>>,
    orch: Orchestrator,
    exec: Executor,
    /// Shared decoded streams of the batches in flight (batch mode
    /// only; empty otherwise).
    streams: StreamCache,
}

impl Sweeps {
    /// In-process memoization only (no persistence, no journal), with
    /// panic-isolated execution.
    pub fn new(opts: ExpOptions) -> Self {
        Sweeps::build(opts, None, None, None)
    }

    /// Memoization backed by a persistent [`ResultStore`] under `dir`,
    /// with a JSONL [`Journal`] and a crash-resilient orchestrator.
    pub fn with_store(opts: ExpOptions, dir: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let store = Arc::new(ResultStore::open(dir.as_ref())?);
        let artifacts = Arc::new(ArtifactStore::open(dir.as_ref())?);
        let journal = Arc::new(Journal::open(dir.as_ref())?);
        Ok(Sweeps::build(
            opts,
            Some(store),
            Some(artifacts),
            Some(journal),
        ))
    }

    /// Memoization over an already-open store and journal — the sweep
    /// service's constructor. The service keeps one `Sweeps` per option
    /// group, and a run's store identity is its key plus the group's
    /// options, so the memo alone keeps every run to one simulation
    /// across concurrent jobs.
    pub fn with_shared_store(
        opts: ExpOptions,
        store: Arc<ResultStore>,
        journal: Arc<Journal>,
    ) -> Self {
        let artifacts = ArtifactStore::open(store.root()).ok().map(Arc::new);
        Sweeps::build(opts, Some(store), artifacts, Some(journal))
    }

    fn build(
        opts: ExpOptions,
        store: Option<Arc<ResultStore>>,
        artifacts: Option<Arc<ArtifactStore>>,
        journal: Option<Arc<Journal>>,
    ) -> Self {
        Sweeps {
            opts,
            memo: Memo::default(),
            store,
            artifacts,
            orch: Orchestrator::new(journal.clone()),
            journal,
            exec: Executor::new(opts.jobs),
            streams: StreamCache::default(),
        }
    }

    /// Resolved sweep worker count.
    pub fn jobs(&self) -> usize {
        self.exec.jobs()
    }

    /// The event journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Snapshot of cache and orchestration counters.
    pub fn counters(&self) -> SweepCounters {
        SweepCounters {
            store: self.store.as_ref().map(|s| s.counters()),
            orch: self.orch.counters(),
            exec: self.exec.counters(),
            streams: self.opts.batch.then(|| self.streams.counters()),
        }
    }

    /// Persistent identity of one run under the current options.
    fn store_key(&self, key: &RunKey) -> StoreKey {
        StoreKey {
            schema: SCHEMA_VERSION,
            label: key.label.clone(),
            iq: key.iq.name().to_string(),
            rf: key.rf.name().to_string(),
            cfg: key.cfg.label(),
            config: key.cfg.build(),
            commit_target: self.opts.commit_target,
            warmup: self.opts.warmup,
            max_cycles: self.opts.max_cycles,
            sample: self.opts.sample,
        }
    }

    /// Key for an SMT run of a suite workload.
    pub fn smt_key(w: &Workload, iq: SchemeKind, rf: RegFileSchemeKind, cfg: CfgKind) -> RunKey {
        RunKey {
            label: w.name.clone(),
            iq,
            rf,
            cfg,
        }
    }

    /// Key for a single-thread baseline run of one trace.
    pub fn single_key(spec: &TraceSpec, cfg: CfgKind) -> RunKey {
        RunKey {
            label: format!("single:{}:{}", spec.profile.name, spec.seed),
            iq: SchemeKind::Icount,
            rf: RegFileSchemeKind::Shared,
            cfg,
        }
    }

    /// Key for an SMT run of an N-thread bundle. The `bundle:` prefix
    /// keeps bundle labels disjoint from Table 2 workload names and
    /// `single:` baselines in the store.
    pub fn bundle_key(b: &Bundle, iq: SchemeKind, rf: RegFileSchemeKind, cfg: CfgKind) -> RunKey {
        RunKey {
            label: format!("bundle:{}", b.name),
            iq,
            rf,
            cfg,
        }
    }

    /// The shared results of a batch of (key, input) pairs, in batch
    /// order. The memo answers under one lock; only for a key nobody
    /// holds is a [`RunInput`] built and the run served from the
    /// persistent store or simulated (see [`Sweeps::fill`]), so a warm
    /// figure copies nothing.
    ///
    /// Each absent key is claimed as `Pending` under that lock. This call
    /// computes its own claims first and only then waits on keys another
    /// caller holds, so two callers can never wait on each other.
    fn ensure<I>(&self, batch: &[(RunKey, &I)]) -> Vec<Arc<SimResult>>
    where
        I: Clone + Into<RunInput>,
    {
        let mut claims = Claims {
            memo: &self.memo,
            keys: Vec::new(),
        };
        let mut shared = Vec::with_capacity(batch.len());
        let mut claimed = Vec::new();
        let mut slots = self.memo.lock();
        for (i, (key, _)) in batch.iter().enumerate() {
            shared.push(match slots.get(key) {
                Some(Slot::Ready(result, _)) => Some(result.clone()),
                Some(Slot::Pending) => None,
                None => {
                    slots.insert(key.clone(), Slot::Pending);
                    claimed.push(i);
                    None
                }
            });
        }
        if shared.iter().all(Option::is_some) {
            return shared.into_iter().flatten().collect();
        }
        drop(slots);
        claims.keys = claimed.iter().map(|&i| batch[i].0.clone()).collect();
        self.fill(
            claimed
                .into_iter()
                .map(|i| (batch[i].0.clone(), batch[i].1.clone().into()))
                .collect(),
        );
        let mut slots = self.memo.lock();
        for (out, &(ref key, input)) in shared.iter_mut().zip(batch) {
            while out.is_none() {
                match slots.get(key) {
                    Some(Slot::Ready(result, _)) => *out = Some(result.clone()),
                    Some(Slot::Pending) => {
                        slots = self
                            .memo
                            .settled
                            .wait(slots)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    // Its claimer unwound: claim and compute it here.
                    None => {
                        slots.insert(key.clone(), Slot::Pending);
                        drop(slots);
                        claims.keys.push(key.clone());
                        self.fill(vec![(key.clone(), input.clone().into())]);
                        slots = self.memo.lock();
                    }
                }
            }
        }
        // `slots` drops before `claims`, whose drop takes the lock.
        shared.into_iter().flatten().collect()
    }

    /// Compute and publish every claimed run: served from the persistent
    /// store when it has the run, simulated otherwise.
    fn fill(&self, claimed: Vec<(RunKey, RunInput)>) {
        // Warm phase: serve what the persistent store already has. A
        // sampled run is only a hit when its sidecar is also present and
        // parses — a pooled result without its per-interval measurements
        // would silently drop every CI table, so it re-simulates instead.
        let todo: Vec<(RunKey, RunInput)> = match &self.store {
            None => claimed,
            Some(store) => claimed
                .into_iter()
                .filter(|(key, _)| {
                    let skey = self.store_key(key);
                    let hit = match store.get(&skey) {
                        Lookup::Hit(result) if self.opts.sample.is_none() => Some((result, None)),
                        Lookup::Hit(result) => self
                            .stored_sidecar(&skey)
                            .map(|stats| (result, Some(stats))),
                        Lookup::Miss => None,
                    };
                    if let Some(j) = &self.journal {
                        j.log(match hit {
                            Some(_) => EventKind::CacheHit { job: job_desc(key) },
                            None => EventKind::CacheMiss { job: job_desc(key) },
                        });
                    }
                    let Some(output) = hit else { return true };
                    self.memo.publish(key.clone(), output);
                    false
                })
                .collect(),
        };
        if todo.is_empty() {
            return;
        }
        let total = todo.len();
        // Simulate the misses across the executor. Each job is
        // self-contained (orchestrator isolation, store put, publish), and
        // what a run produces never depends on scheduling.
        //
        // Batch mode keys each job's traces once and reserves them all
        // before any job starts, so a stream lives exactly as long as the
        // runs of this batch that read it. Jobs start in `todo` order, so
        // with the pairing-major batches the figures request, the streams
        // held at once belong to at most `jobs + 1` pairings: one per
        // worker, plus the pairing the next job comes from.
        let keys: Vec<Vec<StreamKey>> = todo
            .iter()
            .map(|(_, input)| {
                if self.opts.batch {
                    input.traces().iter().map(stream_key).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        self.streams.reserve(keys.iter().flatten());
        self.exec.run(&todo, |i, (key, input)| {
            let _lease = StreamLease {
                cache: &self.streams,
                keys: &keys[i],
            };
            let streams = self.opts.batch.then(|| (&self.streams, keys[i].as_slice()));
            let desc = job_desc(key);
            let outcome = self.orch.run_job(&desc, || {
                run_one(key, input, &self.opts, streams, self.artifacts.as_deref())
            });
            let output = match outcome {
                // Persisted before it is published, so a result another
                // caller receives is already durable.
                Some(output) => {
                    let skey = self.store_key(key);
                    if let Some(store) = &self.store {
                        if let Err(e) = store.put(&skey, &output.0) {
                            eprintln!("store write failed for {desc}: {e}");
                        }
                    }
                    if let (Some(arts), Some(stats)) = (&self.artifacts, &output.1) {
                        let payload = serde_json::to_string(stats).expect("sidecar serializes");
                        if let Err(e) = arts.put_record(
                            sample::SAMPLE_STATS_KIND,
                            &skey.canonical_json(),
                            &payload,
                        ) {
                            eprintln!("sidecar write failed for {desc}: {e}");
                        }
                    }
                    output
                }
                // The run panicked: record a zeroed result so dependent
                // figures render (as zeros) instead of panicking; the
                // journal and counters carry the failure.
                None => (failed_placeholder(key, input, &self.opts), None),
            };
            self.memo.publish(key.clone(), output);
            if self.opts.verbose {
                eprint!(".");
            }
        });
        if self.opts.verbose {
            eprintln!(" [{total} runs]");
        }
    }

    /// Run (or fetch) a batch of SMT runs over `workloads`; returns the
    /// shared results workload-major (each workload's `combos` in order).
    pub fn smt_batch(
        &self,
        workloads: &[Workload],
        combos: &[(SchemeKind, RegFileSchemeKind, CfgKind)],
    ) -> Vec<Arc<SimResult>> {
        let batch: Vec<_> = workloads
            .iter()
            .flat_map(|w| {
                combos
                    .iter()
                    .map(move |&(iq, rf, cfg)| (Sweeps::smt_key(w, iq, rf, cfg), w))
            })
            .collect();
        self.ensure(&batch)
    }

    /// Run (or fetch) single-thread baselines for every trace of the
    /// workloads; returns the shared results in trace order.
    pub fn single_batch(&self, workloads: &[Workload], cfg: CfgKind) -> Vec<Arc<SimResult>> {
        let batch: Vec<_> = workloads
            .iter()
            .flat_map(|w| &w.traces)
            .map(|spec| (Sweeps::single_key(spec, cfg), spec))
            .collect();
        self.ensure(&batch)
    }

    /// Run (or fetch) a batch of SMT runs over N-thread bundles; returns
    /// the shared results bundle-major.
    pub fn bundle_batch(
        &self,
        bundles: &[Bundle],
        combos: &[(SchemeKind, RegFileSchemeKind, CfgKind)],
    ) -> Vec<Arc<SimResult>> {
        let batch: Vec<_> = bundles
            .iter()
            .flat_map(|b| {
                combos
                    .iter()
                    .map(move |&(iq, rf, cfg)| (Sweeps::bundle_key(b, iq, rf, cfg), b))
            })
            .collect();
        self.ensure(&batch)
    }

    /// Run (or fetch) single-thread baselines for every trace of the
    /// bundles (solo on the same scaled machine, for fairness); returns
    /// the shared results in trace order.
    pub fn bundle_single_batch(&self, bundles: &[Bundle], cfg: CfgKind) -> Vec<Arc<SimResult>> {
        let batch: Vec<_> = bundles
            .iter()
            .flat_map(|b| &b.traces)
            .map(|spec| (Sweeps::single_key(spec, cfg), spec))
            .collect();
        self.ensure(&batch)
    }

    /// An owned copy of a memoized result (must have been ensured).
    /// Figures read the shared results the batch calls return instead,
    /// which copies nothing.
    pub fn get(&self, key: &RunKey) -> SimResult {
        match self.memo.lock().get(key) {
            Some(Slot::Ready(result, _)) => SimResult::clone(result),
            _ => panic!("run not simulated: {key:?}"),
        }
    }

    /// Per-interval sampling sidecar of a run, if the run was sampled.
    /// `None` for full runs, failed jobs, and keys never ensured.
    pub fn get_ci(&self, key: &RunKey) -> Option<Arc<SampleStats>> {
        match self.memo.lock().get(key) {
            Some(Slot::Ready(_, stats)) => stats.clone(),
            _ => None,
        }
    }

    /// Parse and verify a persisted sampling sidecar for one store key,
    /// rejecting records whose interval count disagrees with the current
    /// `--sample` spec (a stale sidecar from before a spec change).
    fn stored_sidecar(&self, skey: &StoreKey) -> Option<SampleStats> {
        let arts = self.artifacts.as_ref()?;
        let payload = arts.get_record(sample::SAMPLE_STATS_KIND, &skey.canonical_json())?;
        let stats: SampleStats = serde_json::from_str(&payload).ok()?;
        let spec = self.opts.sample?;
        (stats.spec == spec && stats.runs.len() as u64 == spec.intervals).then_some(stats)
    }

    /// Number of memoized runs.
    pub fn len(&self) -> usize {
        let slots = self.memo.lock();
        slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(..)))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Journal/orchestrator identity of a run key.
fn job_desc(key: &RunKey) -> JobDesc {
    JobDesc {
        label: key.label.clone(),
        iq: key.iq.name().to_string(),
        rf: key.rf.name().to_string(),
        cfg: key.cfg.label(),
    }
}

/// Stand-in result for a job that panicked: correct shape
/// (thread count, target, per-shape stats lanes), all-zero stats.
fn failed_placeholder(key: &RunKey, input: &RunInput, opts: &ExpOptions) -> SimResult {
    let cfg = key.cfg.build();
    SimResult {
        num_threads: input.traces().len(),
        commit_target: opts.commit_target,
        stats: SimStats::sized(cfg.num_threads, cfg.num_clusters),
    }
}

fn run_one(
    key: &RunKey,
    input: &RunInput,
    opts: &ExpOptions,
    streams: Option<(&StreamCache, &[StreamKey])>,
    artifacts: Option<&ArtifactStore>,
) -> RunOutput {
    fault_injection::maybe_panic(&key.label);
    let cfg = key.cfg.build();
    let traces = input.traces();
    let shared: Option<Vec<Arc<SharedStream>>> = streams.map(|(cache, keys)| {
        keys.iter()
            .zip(traces)
            .map(|(k, t)| cache.get(k, t))
            .collect()
    });
    if let Some(spec) = opts.sample {
        // Sampled run: checkpointed fast-forward + N detailed windows.
        // Batch mode shares each trace's synthesized program with the
        // restores; the windows resume private generators from the
        // checkpointed cursors and never read the shared stream.
        let (pooled, stats) = sample::sampled_run(
            &cfg,
            key.iq,
            key.rf,
            traces,
            spec,
            opts.commit_target,
            opts.max_cycles,
            opts.validate,
            shared.as_deref(),
            artifacts,
        );
        return (pooled, Some(stats));
    }
    let mut sim = match shared {
        Some(shared) => Simulator::new_batched(cfg, key.iq, key.rf, traces, &shared),
        None => Simulator::new(cfg, key.iq, key.rf, traces),
    };
    if opts.validate {
        // Invariant suite + differential oracle, fail-fast: a violation
        // panics the run, which the orchestrator journals as failed.
        sim.enable_oracle();
    }
    (
        sim.run_with_warmup(opts.warmup, opts.commit_target, opts.max_cycles),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_trace::suite;

    type Combo = (SchemeKind, RegFileSchemeKind, CfgKind);
    const ICOUNT_IQ32: Combo = (
        SchemeKind::Icount,
        RegFileSchemeKind::Shared,
        CfgKind::IqStudy { iq: 32 },
    );
    const CSSP_IQ32: Combo = (
        SchemeKind::Cssp,
        RegFileSchemeKind::Shared,
        CfgKind::IqStudy { iq: 32 },
    );
    const CSSP_CDPRF64: Combo = (
        SchemeKind::Cssp,
        RegFileSchemeKind::Cdprf,
        CfgKind::RfStudy { regs: 64 },
    );

    fn tiny_opts() -> ExpOptions {
        ExpOptions {
            commit_target: 800,
            warmup: 200,
            max_cycles: 2_000_000,
            jobs: 0,
            verbose: false,
            validate: false,
            batch: false,
            sample: None,
        }
    }

    #[test]
    fn memoization_avoids_reruns() {
        let sweeps = Sweeps::new(tiny_opts());
        let ws: Vec<_> = suite().into_iter().take(2).collect();
        let combos = [ICOUNT_IQ32];
        sweeps.smt_batch(&ws, &combos);
        assert_eq!(sweeps.len(), 2);
        sweeps.smt_batch(&ws, &combos); // no-op
        assert_eq!(sweeps.len(), 2);
        let k = Sweeps::smt_key(&ws[0], combos[0].0, combos[0].1, combos[0].2);
        let r = sweeps.get(&k);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn warm_batches_simulate_nothing() {
        let sweeps = Sweeps::new(tiny_opts());
        let ws: Vec<_> = suite().into_iter().take(2).collect();
        let bs: Vec<_> = suite::bundles(4).into_iter().take(1).collect();
        let combos = [ICOUNT_IQ32, CSSP_CDPRF64];
        let scaled = CfgKind::ScaledIq {
            threads: 4,
            clusters: 2,
            iq: 32,
        };
        let all_batches = || {
            sweeps.smt_batch(&ws, &combos);
            sweeps.single_batch(&ws, CfgKind::Baseline);
            sweeps.bundle_batch(
                &bs,
                &[(SchemeKind::Icount, RegFileSchemeKind::Shared, scaled)],
            );
            sweeps.bundle_single_batch(&bs, scaled);
        };
        all_batches();
        let cold = sweeps.counters();
        assert_eq!(cold.orch.completed, 4 + 4 + 1 + 4);
        all_batches();
        let warm = sweeps.counters();
        assert_eq!(warm.exec, cold.exec, "a warm batch reached the executor");
        assert_eq!(warm.orch, cold.orch, "a warm batch simulated");
        // The shared results come back workload-major and match the
        // owned copies.
        let shared = sweeps.smt_batch(&ws, &combos);
        let keys = ws
            .iter()
            .flat_map(|w| combos.map(|(iq, rf, cfg)| Sweeps::smt_key(w, iq, rf, cfg)));
        assert_eq!(shared.len(), ws.len() * combos.len());
        for (result, key) in shared.iter().zip(keys) {
            assert_eq!(
                serde_json::to_string(&**result).unwrap(),
                serde_json::to_string(&sweeps.get(&key)).unwrap(),
                "{key:?}"
            );
        }
    }

    #[test]
    fn warm_fig2_renders_byte_identically() {
        let sweeps = Sweeps::new(ExpOptions {
            commit_target: 50,
            warmup: 0,
            ..tiny_opts()
        });
        let render = || -> Vec<String> {
            crate::figures::run_named_all("fig2", &sweeps)
                .expect("fig2 is an artifact")
                .iter()
                .map(|(_, t)| t.to_json())
                .collect()
        };
        let cold = render();
        let counters = sweeps.counters();
        assert_eq!(counters.orch.completed, 120 * 14);
        assert_eq!(render(), cold, "warm fig2 differs from the cold render");
        assert_eq!(sweeps.counters(), counters, "warm fig2 simulated");
    }

    #[test]
    fn single_baselines_dedupe_by_trace() {
        let sweeps = Sweeps::new(tiny_opts());
        let ws: Vec<_> = suite().into_iter().take(1).collect();
        sweeps.single_batch(&ws, CfgKind::Baseline);
        assert_eq!(sweeps.len(), 2, "two traces per workload");
        let k = Sweeps::single_key(&ws[0].traces[0], CfgKind::Baseline);
        assert_eq!(sweeps.get(&k).num_threads, 1);
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("csmt-runner-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_serves_second_process_warm() {
        let dir = tmp("warm");
        let ws: Vec<_> = suite().into_iter().take(2).collect();
        let combos = [ICOUNT_IQ32];
        // Cold process: everything simulates and persists.
        let cold_cycles = {
            let sweeps = Sweeps::with_store(tiny_opts(), &dir).unwrap();
            sweeps.smt_batch(&ws, &combos);
            let c = sweeps.counters();
            assert_eq!(c.store.unwrap().hits, 0);
            assert_eq!(c.store.unwrap().misses, 2);
            assert_eq!(c.store.unwrap().puts, 2);
            assert_eq!(c.orch.completed, 2);
            let k = Sweeps::smt_key(&ws[0], combos[0].0, combos[0].1, combos[0].2);
            sweeps.get(&k).stats.cycles
        };
        // Warm process: zero simulations, identical results.
        let sweeps = Sweeps::with_store(tiny_opts(), &dir).unwrap();
        sweeps.smt_batch(&ws, &combos);
        let c = sweeps.counters();
        assert_eq!(c.store.unwrap().hits, 2, "warm run must be all cache hits");
        assert_eq!(c.store.unwrap().misses, 0);
        assert_eq!(c.orch.completed, 0, "warm run must not simulate");
        let k = Sweeps::smt_key(&ws[0], combos[0].0, combos[0].1, combos[0].2);
        assert_eq!(
            sweeps.get(&k).stats.cycles,
            cold_cycles,
            "stored result must be identical"
        );
    }

    #[test]
    fn store_does_not_alias_across_options() {
        let dir = tmp("opts");
        let ws: Vec<_> = suite().into_iter().take(1).collect();
        let combos = [ICOUNT_IQ32];
        {
            let sweeps = Sweeps::with_store(tiny_opts(), &dir).unwrap();
            sweeps.smt_batch(&ws, &combos);
        }
        // Same key, different commit target → different content hash.
        let sweeps = Sweeps::with_store(
            ExpOptions {
                commit_target: 1200,
                ..tiny_opts()
            },
            &dir,
        )
        .unwrap();
        sweeps.smt_batch(&ws, &combos);
        let c = sweeps.counters();
        assert_eq!(c.store.unwrap().hits, 0, "changed options must miss");
        assert_eq!(c.orch.completed, 1);
    }

    /// Serializes the fault-injection tests: they share the global armed
    /// state and the process panic hook.
    static INJECT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn injected_panic_fails_one_job_and_the_sweep_survives() {
        let _guard = INJECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp("inject");
        // Workloads no other test in this binary simulates, so the armed
        // panic cannot leak into a concurrently running sweep.
        let ws: Vec<_> = suite().into_iter().skip(20).take(2).collect();
        let combos = [ICOUNT_IQ32];
        // One armed panic: the first workload's only attempt dies, the
        // other workload is untouched.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        fault_injection::arm(&ws[0].name, 1);
        let sweeps = Sweeps::with_store(
            ExpOptions {
                jobs: 1,
                ..tiny_opts()
            },
            &dir,
        )
        .unwrap();
        sweeps.smt_batch(&ws, &combos);
        let leftover = fault_injection::disarm();
        std::panic::set_hook(hook);
        assert_eq!(leftover, 0, "the injected panic must have fired");
        let c = sweeps.counters();
        assert_eq!((c.orch.completed, c.orch.failures), (1, 1));
        let key = |w: &Workload| Sweeps::smt_key(w, combos[0].0, combos[0].1, combos[0].2);
        let failed = sweeps.get(&key(&ws[0]));
        assert_eq!(failed.stats.cycles, 0, "failed job renders as zeros");
        assert_eq!(failed.num_threads, 2);
        assert!(sweeps.get(&key(&ws[1])).throughput() > 0.0);
        // The journal tells the one-attempt story with identity fields
        // attached.
        let events = Journal::read(sweeps.journal().unwrap().path());
        let story: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::JobPanic { job, attempt, .. } => Some((job.label.clone(), *attempt)),
                EventKind::JobFailed { job, attempts } => Some((job.label.clone(), *attempts)),
                _ => None,
            })
            .collect();
        assert_eq!(story, [(ws[0].name.clone(), 1), (ws[0].name.clone(), 1)]);
        // Nothing bogus was persisted: a fresh store misses the failed
        // run and hits the other.
        let sweeps2 = Sweeps::with_store(tiny_opts(), &dir).unwrap();
        sweeps2.smt_batch(&ws, &combos);
        let c2 = sweeps2.counters().store.unwrap();
        assert_eq!((c2.hits, c2.misses), (1, 1));
    }

    /// Two callers ensuring overlapping keys at once simulate each
    /// distinct key exactly once, whichever claims it first.
    #[test]
    fn concurrent_callers_simulate_each_key_once() {
        let ws: Vec<_> = suite().into_iter().take(4).collect();
        let combos = [ICOUNT_IQ32, CSSP_IQ32];
        let sweeps = Sweeps::new(ExpOptions {
            jobs: 1,
            ..tiny_opts()
        });
        let start = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                start.wait();
                sweeps.smt_batch(&ws[..3], &combos)
            });
            let b = s.spawn(|| {
                start.wait();
                sweeps.smt_batch(&ws[1..], &combos)
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(sweeps.counters().orch.completed, 4 * 2);
        // The overlap is the same shared result in both answers.
        for (ra, rb) in a[2..].iter().zip(&b[..4]) {
            assert!(Arc::ptr_eq(ra, rb));
        }
    }

    /// Holds its claim until the waiter has published `after`, then
    /// panics while converting into a run: a claim that unwinds outside
    /// the orchestrator.
    #[derive(Clone)]
    struct Doomed<'a> {
        claimed: &'a std::sync::Barrier,
        memo: &'a Memo,
        after: RunKey,
    }

    impl From<Doomed<'_>> for RunInput {
        fn from(d: Doomed) -> RunInput {
            d.claimed.wait();
            let mut slots = d.memo.lock();
            while !matches!(slots.get(&d.after), Some(Slot::Ready(..))) {
                slots = d
                    .memo
                    .settled
                    .wait(slots)
                    .unwrap_or_else(|e| e.into_inner());
            }
            drop(slots);
            panic!("planted outside catch_unwind");
        }
    }

    #[test]
    fn unwound_claim_is_released_to_a_waiter() {
        let _guard = INJECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ws: Vec<_> = suite().into_iter().skip(5).take(2).collect();
        let (iq, rf, cfg) = ICOUNT_IQ32;
        let [doomed_key, other_key] = [0, 1].map(|i| Sweeps::smt_key(&ws[i], iq, rf, cfg));
        let sweeps = Sweeps::new(tiny_opts());
        let claimed = std::sync::Barrier::new(2);
        let doomed = Doomed {
            claimed: &claimed,
            memo: &sweeps.memo,
            after: other_key.clone(),
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (claimer, waiter) = std::thread::scope(|s| {
            let claimer = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    sweeps.ensure(&[(doomed_key.clone(), &doomed)])
                }))
            });
            let waiter = s.spawn(|| {
                // The claimer holds `doomed_key` from here until this
                // caller has published its own claim, `other_key`; it
                // unwinds while this caller waits on `doomed_key`.
                claimed.wait();
                sweeps.ensure(&[(doomed_key.clone(), &ws[0]), (other_key.clone(), &ws[1])])
            });
            (claimer.join().unwrap(), waiter.join().unwrap())
        });
        std::panic::set_hook(hook);
        assert!(claimer.is_err(), "the claimer unwound");
        assert!(waiter[0].throughput() > 0.0, "the waiter computed the key");
        assert_eq!(sweeps.counters().orch.completed, 2);
    }

    /// Two suite workloads plus two that reuse their traces: one pairs a
    /// trace of each, one runs the same trace on both threads.
    fn repeating_workloads(skip: usize) -> Vec<Workload> {
        let ws: Vec<Workload> = suite().into_iter().skip(skip).take(2).collect();
        let reuse = |name: &str, traces: [TraceSpec; 2]| Workload {
            name: name.to_string(),
            traces,
            ..ws[0].clone()
        };
        let cross = reuse(
            "reuse/cross",
            [ws[0].traces[0].clone(), ws[1].traces[1].clone()],
        );
        let twin = reuse(
            "reuse/twin",
            [ws[1].traces[0].clone(), ws[1].traces[0].clone()],
        );
        vec![ws[0].clone(), ws[1].clone(), cross, twin]
    }

    fn distinct_traces(ws: &[Workload]) -> u64 {
        let keys: std::collections::HashSet<StreamKey> =
            ws.iter().flat_map(|w| &w.traces).map(stream_key).collect();
        keys.len() as u64
    }

    fn streams_held(sweeps: &Sweeps) -> usize {
        sweeps
            .streams
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    #[test]
    fn batch_frees_every_stream_and_matches_per_config() {
        let ws = repeating_workloads(10);
        let combos = [ICOUNT_IQ32, CSSP_CDPRF64];
        let per_config = Sweeps::new(ExpOptions {
            jobs: 1,
            ..tiny_opts()
        });
        let batched = Sweeps::new(ExpOptions {
            jobs: 2,
            batch: true,
            ..tiny_opts()
        });
        for sweeps in [&per_config, &batched] {
            sweeps.smt_batch(&ws, &combos);
            assert_eq!(streams_held(sweeps), 0, "smt batch left a stream");
            sweeps.single_batch(&ws, CfgKind::Baseline);
            assert_eq!(streams_held(sweeps), 0, "single batch left a stream");
        }
        let mut keys: Vec<RunKey> = ws
            .iter()
            .flat_map(|w| combos.map(|(iq, rf, cfg)| Sweeps::smt_key(w, iq, rf, cfg)))
            .collect();
        keys.extend(
            ws.iter()
                .flat_map(|w| &w.traces)
                .map(|t| Sweeps::single_key(t, CfgKind::Baseline)),
        );
        for key in &keys {
            let a = serde_json::to_string(&per_config.get(key)).unwrap();
            let b = serde_json::to_string(&batched.get(key)).unwrap();
            assert_eq!(a, b, "batched result diverged for {key:?}");
        }
        assert_eq!(per_config.counters().streams, None);
        let c = batched.counters().streams.unwrap();
        assert!(c.peak_held >= 1 && c.peak_held <= distinct_traces(&ws));
    }

    #[test]
    fn batched_streams_stay_within_the_pairings_in_flight() {
        // Runs start in batch order, so with every trace distinct at most
        // `jobs + 1` pairings hold streams at once, whatever the workers'
        // relative speed: each worker's pairing plus the cursor's.
        const JOBS: usize = 2;
        let opts = ExpOptions {
            commit_target: 200,
            warmup: 0,
            jobs: JOBS,
            batch: true,
            ..tiny_opts()
        };
        let bound = |threads: usize| (threads * (JOBS + 1)) as u64;
        let ws: Vec<Workload> = suite().into_iter().skip(24).take(48).collect();
        let combos = [ICOUNT_IQ32, CSSP_IQ32];
        let smt = Sweeps::new(opts);
        smt.smt_batch(&ws[..24], &combos);
        let c = smt.counters().streams.unwrap();
        assert_eq!(c.decoded, distinct_traces(&ws[..24]));
        assert!(c.peak_held <= bound(2), "smt batch held {}", c.peak_held);

        // 24 four-thread bundles over the same suite's distinct traces.
        let bs: Vec<Bundle> = ws
            .chunks(2)
            .map(|pair| Bundle {
                name: format!("{}+{}", pair[0].name, pair[1].name),
                traces: [pair[0].traces.clone(), pair[1].traces.clone()].concat(),
                ..suite::bundles(4).remove(0)
            })
            .collect();
        let scaled = CfgKind::ScaledIq {
            threads: 4,
            clusters: 2,
            iq: 32,
        };
        let bundled = Sweeps::new(opts);
        bundled.bundle_batch(
            &bs,
            &[
                (SchemeKind::Icount, RegFileSchemeKind::Shared, scaled),
                (SchemeKind::Cssp, RegFileSchemeKind::Shared, scaled),
            ],
        );
        let c = bundled.counters().streams.unwrap();
        assert_eq!(c.decoded, 4 * 24);
        assert!(c.peak_held <= bound(4), "bundle batch held {}", c.peak_held);
        assert_eq!(streams_held(&bundled), 0);
    }

    #[test]
    fn serial_batch_decodes_each_trace_once_per_ensure() {
        let ws = repeating_workloads(12);
        let distinct = distinct_traces(&ws);
        let combos = [ICOUNT_IQ32, CSSP_IQ32];
        let sweeps = Sweeps::new(ExpOptions {
            jobs: 1,
            batch: true,
            ..tiny_opts()
        });
        sweeps.smt_batch(&ws, &combos);
        let c = sweeps.counters().streams.unwrap();
        assert_eq!(c.decoded, distinct, "a trace was evicted and re-decoded");
        assert_eq!(streams_held(&sweeps), 0);
        // A later batch over the same traces decodes each again.
        sweeps.single_batch(&ws, CfgKind::Baseline);
        assert_eq!(sweeps.counters().streams.unwrap().decoded, 2 * distinct);
        assert_eq!(streams_held(&sweeps), 0);
    }

    #[test]
    fn failed_batch_job_releases_its_stream() {
        let _guard = INJECT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Workloads no other test in this binary simulates. The first
        // workload's first job panics; its lease must still be released
        // exactly once, so the trace it shares with `reuse/cross` is
        // neither freed early (a second decode) nor leaked.
        let ws = repeating_workloads(40);
        let combos = [ICOUNT_IQ32, CSSP_IQ32];
        let opts = ExpOptions {
            jobs: 1,
            batch: true,
            ..tiny_opts()
        };
        let clean = Sweeps::new(opts);
        clean.smt_batch(&ws, &combos);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        fault_injection::arm(&ws[0].name, 1);
        let failed = Sweeps::new(opts);
        failed.smt_batch(&ws, &combos);
        let leftover = fault_injection::disarm();
        std::panic::set_hook(hook);
        assert_eq!(leftover, 0, "the injected panic must have fired");
        let c = failed.counters();
        assert_eq!((c.orch.completed, c.orch.failures), (7, 1));
        assert_eq!(
            c.streams.unwrap().decoded,
            distinct_traces(&ws),
            "the failed job freed a stream early"
        );
        assert_eq!(streams_held(&failed), 0);
        for (n, key) in ws
            .iter()
            .flat_map(|w| combos.map(|(iq, rf, cfg)| Sweeps::smt_key(w, iq, rf, cfg)))
            .enumerate()
        {
            let got = failed.get(&key);
            if n == 0 {
                assert_eq!(got.stats.cycles, 0, "{key:?} failed");
            } else {
                assert_eq!(
                    serde_json::to_string(&clean.get(&key)).unwrap(),
                    serde_json::to_string(&got).unwrap(),
                    "{key:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let ws: Vec<_> = suite().into_iter().take(3).collect();
        let combos = [CSSP_IQ32];
        let a = Sweeps::new(ExpOptions {
            jobs: 1,
            ..tiny_opts()
        });
        a.smt_batch(&ws, &combos);
        let b = Sweeps::new(ExpOptions {
            jobs: 3,
            ..tiny_opts()
        });
        b.smt_batch(&ws, &combos);
        for w in &ws {
            let k = Sweeps::smt_key(w, combos[0].0, combos[0].1, combos[0].2);
            assert_eq!(a.get(&k).stats.cycles, b.get(&k).stats.cycles, "{}", w.name);
        }
    }
}
