//! Architectural invariant checker.
//!
//! A [`CheckSuite`] holds a set of [`Validator`]s hooked into the pipeline
//! at dispatch, issue, completion and retirement, plus a per-cycle sweep.
//! The suite lives in `Simulator::checker` as an `Option` — `None` costs
//! one branch per hook site (the same zero-overhead pattern as the event
//! log), so release builds pay nothing unless `--validate` arms it. Debug
//! builds arm the standard validators at construction.
//!
//! The standard validators enforce the structural contracts every
//! assignment scheme of the paper relies on:
//!
//! * **Conservation** — per-cluster issue-queue entry accounting, register
//!   free-list conservation per class per cluster, and occupancy ≤
//!   capacity for every shared structure (IQ, RF, ROB, MOB, fetch queues).
//! * **Scheme caps** — the static per-thread occupancy bounds a scheme
//!   advertises via [`IqScheme::steered_caps`](crate::schemes::IqScheme)
//!   (CSSP per-cluster, CISP total) are never exceeded by steered
//!   (non-copy) uops, and a Private-Clusters binding is never violated.
//! * **Copy locality** — copy uops exist only for cross-cluster
//!   dependences: a copy issues in the producer cluster and writes a
//!   register in a *different* cluster; a non-copy uop's destination
//!   lives in its own cluster.
//! * **ROB FIFO** — per-thread retirement is in strictly increasing
//!   program order and never retires a wrong-path uop.
//! * **CDPRF mirror** — an independent replica of the CDPRF budget
//!   arithmetic (Figures 7–8) fed the same per-cycle inputs as the real
//!   scheme; RFOC, starvation, thresholds and the interval phase must
//!   agree across every re-threshold.
//!
//! The differential *oracle* (committed-stream replay, see
//! [`csmt_trace::oracle`]) is a validator too, but is **not** part of the
//! standard suite: harnesses that inject synthetic uops would falsely
//! diverge. Arm it with [`Simulator::enable_oracle`](crate::Simulator).

use crate::pipeline::Simulator;
use csmt_trace::oracle::ThreadOracle;
use csmt_trace::suite::TraceSpec;
use csmt_types::{ClusterId, OpClass, RegClass, ThreadId};

const MAX_THREADS: usize = csmt_types::MAX_THREADS;

/// One invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which validator fired.
    pub validator: &'static str,
    /// Simulated cycle at which it fired.
    pub cycle: u64,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] cycle {}: {}",
            self.validator, self.cycle, self.message
        )
    }
}

/// Read-only view of a live uop, for validators outside this crate (the
/// slab itself is crate-private). Obtain with
/// [`Simulator::uop_view`](crate::Simulator::uop_view).
#[derive(Debug, Clone, Copy)]
pub struct UopView {
    pub thread: ThreadId,
    pub seq: u64,
    pub pc: u64,
    pub class: OpClass,
    pub is_copy: bool,
    pub wrong_path: bool,
    pub cluster: ClusterId,
}

/// A pipeline-hooked invariant validator. Hooks default to no-ops so each
/// validator implements only the events it watches. `sim` is the whole
/// machine, immutably; `id` identifies the uop in the slab (still live at
/// every hook, including retirement).
pub trait Validator: Send {
    fn name(&self) -> &'static str;
    fn on_dispatch(&mut self, _sim: &Simulator, _id: u32, _out: &mut Vec<Violation>) {}
    fn on_issue(&mut self, _sim: &Simulator, _id: u32, _out: &mut Vec<Violation>) {}
    fn on_complete(&mut self, _sim: &Simulator, _id: u32, _out: &mut Vec<Violation>) {}
    fn on_retire(&mut self, _sim: &Simulator, _id: u32, _out: &mut Vec<Violation>) {}
    fn end_cycle(&mut self, _sim: &Simulator, _out: &mut Vec<Violation>) {}
}

/// The validator set armed on a simulator.
pub struct CheckSuite {
    validators: Vec<Box<dyn Validator>>,
    /// Staging buffer reused across hook calls.
    staged: Vec<Violation>,
}

impl CheckSuite {
    /// The standard always-sound validators (everything but the oracle).
    pub fn standard() -> Self {
        CheckSuite {
            validators: vec![
                Box::new(Conservation),
                Box::new(SchemeCaps),
                Box::new(CopyLocality),
                Box::new(RobFifo::default()),
                Box::new(CdprfMirror::default()),
            ],
            staged: Vec::new(),
        }
    }

    /// An empty suite (compose your own with [`Self::add`]).
    pub fn empty() -> Self {
        CheckSuite {
            validators: Vec::new(),
            staged: Vec::new(),
        }
    }

    pub fn add(&mut self, v: Box<dyn Validator>) {
        self.validators.push(v);
    }

    /// Attach the differential oracle for the given trace specs
    /// (idempotent — a second call replaces nothing and adds nothing if an
    /// oracle is already armed).
    pub fn add_oracle(&mut self, specs: &[TraceSpec]) {
        self.add_oracle_at(specs, &vec![0; specs.len()]);
    }

    /// [`CheckSuite::add_oracle`] with each thread's replay fast-forwarded
    /// to an architectural commit offset first — for simulators resumed
    /// from a checkpoint, whose first detailed commit is the offset-th
    /// uop of the program. Same idempotence as `add_oracle`.
    pub fn add_oracle_at(&mut self, specs: &[TraceSpec], offsets: &[u64]) {
        if self.validators.iter().any(|v| v.name() == ORACLE_NAME) {
            return;
        }
        self.add(Box::new(OracleCheck::at(specs, offsets)));
    }

    /// Panic on the first violation the hooks staged, if any.
    fn absorb(&mut self, now: u64) {
        if let Some(v) = self.staged.first_mut() {
            v.cycle = now;
            panic!("architectural invariant violated {v}");
        }
    }

    pub(crate) fn on_dispatch(&mut self, sim: &Simulator, id: u32) {
        for v in self.validators.iter_mut() {
            v.on_dispatch(sim, id, &mut self.staged);
        }
        self.absorb(sim.cycles());
    }

    pub(crate) fn on_issue(&mut self, sim: &Simulator, id: u32) {
        for v in self.validators.iter_mut() {
            v.on_issue(sim, id, &mut self.staged);
        }
        self.absorb(sim.cycles());
    }

    pub(crate) fn on_complete(&mut self, sim: &Simulator, id: u32) {
        for v in self.validators.iter_mut() {
            v.on_complete(sim, id, &mut self.staged);
        }
        self.absorb(sim.cycles());
    }

    pub(crate) fn on_retire(&mut self, sim: &Simulator, id: u32) {
        for v in self.validators.iter_mut() {
            v.on_retire(sim, id, &mut self.staged);
        }
        self.absorb(sim.cycles());
    }

    pub(crate) fn end_cycle(&mut self, sim: &Simulator) {
        for v in self.validators.iter_mut() {
            v.end_cycle(sim, &mut self.staged);
        }
        self.absorb(sim.cycles());
    }
}

fn fire(out: &mut Vec<Violation>, validator: &'static str, message: String) {
    out.push(Violation {
        validator,
        cycle: 0, // stamped by the suite
        message,
    });
}

// ---------------------------------------------------------------------------
// Conservation: entry and register accounting, occupancy ≤ capacity.
// ---------------------------------------------------------------------------

struct Conservation;

impl Validator for Conservation {
    fn name(&self) -> &'static str {
        "conservation"
    }

    fn end_cycle(&mut self, sim: &Simulator, out: &mut Vec<Violation>) {
        let cfg = &sim.cfg;
        for c in 0..cfg.num_clusters {
            let iq = &sim.iqs[c];
            if !iq.conserves_occupancy() {
                fire(
                    out,
                    self.name(),
                    format!("cluster {c} IQ per-thread occupancy counters drifted"),
                );
            }
            if iq.len() > iq.capacity() {
                fire(
                    out,
                    self.name(),
                    format!(
                        "cluster {c} IQ over capacity: {} > {}",
                        iq.len(),
                        iq.capacity()
                    ),
                );
            }
            for (k, class) in RegClass::all().into_iter().enumerate() {
                let rf = &sim.regfiles[c][k];
                if !rf.conserves_registers() {
                    fire(
                        out,
                        self.name(),
                        format!(
                            "cluster {c} {class:?} register file leaked: \
                             free {} + used {} != capacity {}",
                            rf.free_len(),
                            rf.used_total(),
                            rf.capacity()
                        ),
                    );
                }
                if !rf.is_unbounded() && rf.used_total() > rf.capacity() {
                    fire(
                        out,
                        self.name(),
                        format!(
                            "cluster {c} {class:?} register file over capacity: \
                             {} > {}",
                            rf.used_total(),
                            rf.capacity()
                        ),
                    );
                }
            }
        }
        for th in sim.threads.iter() {
            if !cfg.unbounded_rob && th.rob.len() > cfg.rob_per_thread {
                fire(
                    out,
                    self.name(),
                    format!(
                        "thread {} ROB over capacity: {} > {}",
                        th.id.0,
                        th.rob.len(),
                        cfg.rob_per_thread
                    ),
                );
            }
            if th.fetchq.len() > cfg.fetch_queue_entries {
                fire(
                    out,
                    self.name(),
                    format!(
                        "thread {} fetch queue over capacity: {} > {}",
                        th.id.0,
                        th.fetchq.len(),
                        cfg.fetch_queue_entries
                    ),
                );
            }
        }
        let mob = sim.mob_occupancy();
        if mob > cfg.mob_entries {
            fire(
                out,
                self.name(),
                format!("MOB over capacity: {mob} > {}", cfg.mob_entries),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Scheme caps: the static bounds a scheme advertises are never exceeded
// by steered (non-copy) uops.
// ---------------------------------------------------------------------------

struct SchemeCaps;

impl Validator for SchemeCaps {
    fn name(&self) -> &'static str {
        "scheme-caps"
    }

    fn end_cycle(&mut self, sim: &Simulator, out: &mut Vec<Violation>) {
        let caps = sim.iq_scheme.steered_caps();
        let mut totals = [0usize; MAX_THREADS];
        for c in 0..sim.cfg.num_clusters {
            for (t, n) in sim.iq_noncopy_occupancy(c) {
                totals[t.idx()] += n;
                if let Some(cap) = caps.per_cluster {
                    if n > cap {
                        fire(
                            out,
                            self.name(),
                            format!(
                                "thread {} holds {n} steered entries in cluster {c}, \
                                 per-cluster cap is {cap}",
                                t.0
                            ),
                        );
                    }
                }
                if n > 0 {
                    if let Some(fc) = sim.iq_scheme.forced_cluster(t) {
                        if fc.idx() != c {
                            fire(
                                out,
                                self.name(),
                                format!(
                                    "thread {} bound to cluster {} has {n} steered \
                                     entries in cluster {c}",
                                    t.0, fc.0
                                ),
                            );
                        }
                    }
                }
            }
        }
        if let Some(cap) = caps.total {
            for (ti, &n) in totals.iter().enumerate() {
                if n > cap {
                    fire(
                        out,
                        self.name(),
                        format!("thread {ti} holds {n} steered entries total, cap is {cap}"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Copy locality: copies exist only for cross-cluster dependences.
// ---------------------------------------------------------------------------

struct CopyLocality;

impl Validator for CopyLocality {
    fn name(&self) -> &'static str {
        "copy-locality"
    }

    fn on_dispatch(&mut self, sim: &Simulator, id: u32, out: &mut Vec<Violation>) {
        let cluster = sim.slab.cluster(id);
        let dest = sim.slab.payload(id).dest;
        if sim.slab.is_copy(id) {
            let Some(d) = dest else {
                fire(
                    out,
                    self.name(),
                    format!("copy uop {id} has no destination"),
                );
                return;
            };
            if d.cluster == cluster {
                fire(
                    out,
                    self.name(),
                    format!(
                        "copy uop {id} issues and writes in the same cluster {} — \
                         no cross-cluster dependence",
                        d.cluster.0
                    ),
                );
            }
            if !d.is_copy_mapping {
                fire(
                    out,
                    self.name(),
                    format!("copy uop {id} would free its previous mapping at commit"),
                );
            }
        } else if let Some(d) = dest {
            if d.cluster != cluster {
                fire(
                    out,
                    self.name(),
                    format!(
                        "non-copy uop {id} in cluster {} writes cluster {}",
                        cluster.0, d.cluster.0
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ROB FIFO: per-thread retirement in strictly increasing program order.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RobFifo {
    last_seq: [Option<u64>; MAX_THREADS],
}

impl Validator for RobFifo {
    fn name(&self) -> &'static str {
        "rob-fifo"
    }

    fn on_retire(&mut self, sim: &Simulator, id: u32, out: &mut Vec<Violation>) {
        let thread = sim.slab.thread(id);
        let seq = sim.slab.seq(id);
        if sim.slab.wrong_path(id) {
            fire(
                out,
                self.name(),
                format!("wrong-path uop {id} (thread {}) retired", thread.0),
            );
        }
        if let Some(prev) = self.last_seq[thread.idx()] {
            if seq <= prev {
                fire(
                    out,
                    self.name(),
                    format!(
                        "thread {} retired seq {seq} after seq {prev} — not FIFO",
                        thread.0
                    ),
                );
            }
        }
        self.last_seq[thread.idx()] = Some(seq);
    }
}

// ---------------------------------------------------------------------------
// CDPRF budget mirror: independent replica of the Figure-7/8 arithmetic.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct CdprfMirror {
    seeded: bool,
    rfoc: [[u64; RegClass::COUNT]; MAX_THREADS],
    starvation: [[u64; RegClass::COUNT]; MAX_THREADS],
    threshold: [[usize; RegClass::COUNT]; MAX_THREADS],
    cycle_in_interval: u64,
}

impl Validator for CdprfMirror {
    fn name(&self) -> &'static str {
        "cdprf-mirror"
    }

    fn end_cycle(&mut self, sim: &Simulator, out: &mut Vec<Violation>) {
        let Some(real) = sim.rf_scheme.as_cdprf() else {
            return;
        };
        // This hook runs after the real scheme consumed this cycle's
        // inputs. On the first call (possibly a mid-run arm) adopt the
        // real state; from then on evolve independently and compare.
        if !self.seeded {
            self.seeded = true;
            for t in 0..MAX_THREADS {
                for (k, class) in RegClass::all().into_iter().enumerate() {
                    let tid = ThreadId(t as u8);
                    self.rfoc[t][k] = real.rfoc(tid, class);
                    self.starvation[t][k] = real.starvation(tid, class);
                    self.threshold[t][k] = real.threshold(tid, class);
                }
            }
            self.cycle_in_interval = real.cycle_in_interval();
            return;
        }
        // Independent replica of Figure 7 (per cycle) and Figure 8 (per
        // interval), driven by the same view and starvation flags the
        // real scheme received in `step`.
        let view = &sim.rf_view_cycle;
        let starved = &sim.rf_starved;
        let interval = real.interval();
        let shift = interval.trailing_zeros();
        for t in 0..MAX_THREADS {
            for k in 0..RegClass::COUNT {
                if starved[t][k] {
                    self.starvation[t][k] += 1;
                } else {
                    self.starvation[t][k] = 0;
                }
                let used = view.used[t][k].iter().sum::<usize>() as u64;
                self.rfoc[t][k] += used + self.starvation[t][k];
            }
        }
        self.cycle_in_interval += 1;
        if self.cycle_in_interval == interval {
            self.cycle_in_interval = 0;
            for t in 0..MAX_THREADS {
                for (k, class) in RegClass::all().into_iter().enumerate() {
                    let avg = (self.rfoc[t][k] >> shift) as usize;
                    let share = view.total_capacity(class) / view.num_threads;
                    self.threshold[t][k] = avg.min(share);
                    self.rfoc[t][k] = 0;
                }
            }
        }
        // Compare.
        if self.cycle_in_interval != real.cycle_in_interval() {
            fire(
                out,
                self.name(),
                format!(
                    "interval phase drifted: mirror {} vs scheme {}",
                    self.cycle_in_interval,
                    real.cycle_in_interval()
                ),
            );
            return;
        }
        for t in 0..MAX_THREADS {
            let tid = ThreadId(t as u8);
            for (k, class) in RegClass::all().into_iter().enumerate() {
                if self.rfoc[t][k] != real.rfoc(tid, class)
                    || self.starvation[t][k] != real.starvation(tid, class)
                    || self.threshold[t][k] != real.threshold(tid, class)
                {
                    fire(
                        out,
                        self.name(),
                        format!(
                            "thread {t} {class:?} budget drifted: mirror \
                             rfoc/starv/thresh = {}/{}/{} vs scheme {}/{}/{}",
                            self.rfoc[t][k],
                            self.starvation[t][k],
                            self.threshold[t][k],
                            real.rfoc(tid, class),
                            real.starvation(tid, class),
                            real.threshold(tid, class),
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential oracle: committed-stream replay.
// ---------------------------------------------------------------------------

const ORACLE_NAME: &str = "oracle";

struct OracleCheck {
    oracles: Vec<ThreadOracle>,
}

impl OracleCheck {
    fn at(specs: &[TraceSpec], offsets: &[u64]) -> Self {
        assert_eq!(specs.len(), offsets.len(), "one offset per thread");
        OracleCheck {
            oracles: specs
                .iter()
                .zip(offsets)
                .map(|(spec, &off)| {
                    let mut o = ThreadOracle::from_spec(spec);
                    // The footprint is discarded: arming only needs the
                    // replay cursor, not the warm summary.
                    o.fast_forward(off, &mut csmt_trace::WarmFootprint::new());
                    o
                })
                .collect(),
        }
    }
}

impl Validator for OracleCheck {
    fn name(&self) -> &'static str {
        ORACLE_NAME
    }

    fn on_retire(&mut self, sim: &Simulator, id: u32, out: &mut Vec<Violation>) {
        let thread = sim.slab.thread(id);
        let Some(oracle) = self.oracles.get_mut(thread.idx()) else {
            fire(
                out,
                ORACLE_NAME,
                format!("thread {} retired a uop but has no oracle", thread.0),
            );
            return;
        };
        if let Err(d) = oracle.expect_seq(sim.slab.seq(id)) {
            fire(out, ORACLE_NAME, format!("thread {}: {d}", thread.0));
            return;
        }
        if sim.slab.is_copy(id) {
            return;
        }
        let uop = sim.slab.payload(id).uop;
        if let Err(d) = oracle.expect_next(uop.pc, uop.class) {
            fire(out, ORACLE_NAME, format!("thread {}: {d}", thread.0));
        }
    }
}
