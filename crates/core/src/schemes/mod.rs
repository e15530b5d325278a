//! Resource assignment schemes — the paper's subject matter.
//!
//! Two orthogonal scheme families compose (§5):
//!
//! * [`IqScheme`] (Table 3) governs the **issue queues** and the rename
//!   selection policy: Icount, Stall, Flush+, CISP, CSSP, CSPSP, PC.
//! * [`RfScheme`] (Table 4 + §5.2) governs the **physical register files**:
//!   Shared (no cap), CSSPRF, CISPRF, and the proposed dynamic CDPRF.
//!
//! The paper's final proposal is CSSP + CDPRF.

mod adaptive;
mod iq;
mod rf;

pub use adaptive::{Caiq, Carf, CAIQ_CAP_FLOOR};
pub use iq::*;
pub use rf::*;

use crate::perf::EpochStats;
use csmt_types::{ClusterId, RegClass, SchemeKind, ThreadId, MAX_CLUSTERS};

/// Maximum hardware threads (compile-time array bound; the runtime thread
/// count lives on `MachineConfig::num_threads`).
pub const MAX_THREADS: usize = csmt_types::MAX_THREADS;

/// Per-cycle pipeline state the IQ schemes observe.
///
/// Arrays are sized by the compile-time bounds; slots past the machine's
/// `num_threads`/`num_clusters` stay zero.
#[derive(Debug, Clone)]
pub struct SchedView {
    /// Issue-queue occupancy per thread per cluster (includes copies).
    pub iq_occ: [[usize; MAX_CLUSTERS]; MAX_THREADS],
    /// Total issue-queue capacity per cluster.
    pub iq_capacity: usize,
    /// Uops between rename and issue per thread — the Icount metric.
    pub rename_to_issue: [usize; MAX_THREADS],
    /// Outstanding L2 misses per thread (what Stall / Flush+ react to).
    pub pending_l2: [u32; MAX_THREADS],
    /// Cycle at which each thread's *earliest outstanding* L2 miss started
    /// (`u64::MAX` when none) — Flush+ tie-breaking.
    pub earliest_l2_start: [u64; MAX_THREADS],
    /// Fetch-queue length per thread (threads with an empty queue cannot be
    /// selected for rename).
    pub fetchq_len: [usize; MAX_THREADS],
    /// Which thread contexts are running.
    pub active: [bool; MAX_THREADS],
    /// Rename-scan rotation for this cycle, cycling through
    /// `0..num_threads`: the thread index the selection scan starts from,
    /// so no thread is structurally favored when counts are equal. (On
    /// the paper's 2-thread shape this is the low bit of the cycle
    /// counter; a fixed start instead hands every tie to the lowest
    /// thread ids and starves the rest at higher thread counts.)
    pub scan_rotation: usize,
    /// Hardware thread contexts of the machine shape.
    pub num_threads: usize,
    /// Back-end clusters of the machine shape.
    pub num_clusters: usize,
}

impl Default for SchedView {
    /// Zero state on the paper's 2-thread × 2-cluster shape.
    fn default() -> Self {
        SchedView {
            iq_occ: [[0; MAX_CLUSTERS]; MAX_THREADS],
            iq_capacity: 0,
            rename_to_issue: [0; MAX_THREADS],
            pending_l2: [0; MAX_THREADS],
            earliest_l2_start: [0; MAX_THREADS],
            fetchq_len: [0; MAX_THREADS],
            active: [false; MAX_THREADS],
            scan_rotation: 0,
            num_threads: 2,
            num_clusters: 2,
        }
    }
}

impl SchedView {
    /// Total issue-queue entries held by a thread across clusters.
    pub fn total_occ(&self, t: ThreadId) -> usize {
        self.iq_occ[t.idx()].iter().sum()
    }

    /// Entries used in one cluster by all threads.
    pub fn cluster_used(&self, c: ClusterId) -> usize {
        (0..MAX_THREADS).map(|t| self.iq_occ[t][c.idx()]).sum()
    }
}

/// Per-cycle register-file state the RF schemes observe.
#[derive(Debug, Clone)]
pub struct RfView {
    /// Registers used per thread, class, cluster.
    pub used: [[[usize; MAX_CLUSTERS]; RegClass::COUNT]; MAX_THREADS],
    /// Hard capacity per cluster for each class.
    pub capacity: [usize; RegClass::COUNT],
    /// Register files are unbounded (Figure-2 study) — schemes must not
    /// constrain anything.
    pub unbounded: bool,
    /// Hardware thread contexts of the machine shape.
    pub num_threads: usize,
    /// Back-end clusters of the machine shape.
    pub num_clusters: usize,
}

impl Default for RfView {
    /// Zero state on the paper's 2-thread × 2-cluster shape.
    fn default() -> Self {
        RfView {
            used: [[[0; MAX_CLUSTERS]; RegClass::COUNT]; MAX_THREADS],
            capacity: [0; RegClass::COUNT],
            unbounded: false,
            num_threads: 2,
            num_clusters: 2,
        }
    }
}

impl RfView {
    /// Registers of `class` used by `t` across all clusters.
    pub fn used_total(&self, t: ThreadId, class: RegClass) -> usize {
        self.used[t.idx()][class.idx()].iter().sum()
    }

    /// Registers of `class` used by everyone across all clusters.
    pub fn used_all(&self, class: RegClass) -> usize {
        (0..MAX_THREADS)
            .map(|t| ThreadId(t as u8))
            .map(|t| self.used_total(t, class))
            .sum()
    }

    /// Total capacity of `class` across clusters.
    pub fn total_capacity(&self, class: RegClass) -> usize {
        self.capacity[class.idx()] * self.num_clusters
    }
}

/// Issue-queue assignment scheme: rename selection + per-cluster occupancy
/// policy (Table 3).
pub trait IqScheme: Send {
    fn kind(&self) -> SchemeKind;

    /// Whether the scheme refuses to *rename* from `t` this cycle (Stall
    /// and Flush+ hold back threads with outstanding L2 misses).
    fn thread_stalled(&self, _t: ThreadId, _view: &SchedView) -> bool {
        false
    }

    /// Rename selection policy: pick the thread to rename this cycle.
    ///
    /// Default: Icount — the runnable thread with the fewest uops between
    /// rename and issue (ties to the lower thread id, matching the paper's
    /// simple policy).
    fn select_rename_thread(&mut self, view: &SchedView) -> Option<ThreadId> {
        let mut best: Option<(usize, ThreadId)> = None;
        // Rotate the scan start across all threads so equal counts do not
        // structurally favor the low thread ids.
        for k in 0..MAX_THREADS {
            let i = (k + view.scan_rotation) % MAX_THREADS;
            let t = ThreadId(i as u8);
            if !view.active[i] || view.fetchq_len[i] == 0 || self.thread_stalled(t, view) {
                continue;
            }
            let count = view.rename_to_issue[i];
            if best.is_none_or(|(c, _)| count < c) {
                best = Some((count, t));
            }
        }
        best.map(|(_, t)| t)
    }

    /// How many more issue-queue entries `t` may take in `c` under this
    /// scheme's policy (hard capacity is checked by the pipeline).
    /// `usize::MAX` means unconstrained.
    fn headroom(&self, _t: ThreadId, _c: ClusterId, _view: &SchedView) -> usize {
        usize::MAX
    }

    /// Additional cap on entries taken *across all clusters* in one
    /// dispatch (cluster-insensitive schemes bound the total, so a consumer
    /// plus its copies draw from one budget).
    fn total_headroom(&self, _t: ThreadId, _view: &SchedView) -> usize {
        usize::MAX
    }

    /// Whether `t` may take one more issue-queue entry in `c`.
    fn allows(&self, t: ThreadId, c: ClusterId, view: &SchedView) -> bool {
        self.headroom(t, c, view) >= 1 && self.total_headroom(t, view) >= 1
    }

    /// Static thread→cluster binding (Private Clusters).
    fn forced_cluster(&self, _t: ThreadId) -> Option<ClusterId> {
        None
    }

    /// Whether a thread incurring an L2 miss should be flushed (Flush+).
    /// Called when the miss is detected; the pipeline performs the flush.
    /// `view` reflects the state at detection time.
    fn should_flush_on_l2_miss(&self, _t: ThreadId, _view: &SchedView) -> bool {
        false
    }

    /// Static occupancy caps this scheme guarantees over *steered*
    /// (non-copy) uops, for the invariant checker. `None` fields mean the
    /// scheme imposes no such static bound.
    fn steered_caps(&self) -> SteeredCaps {
        SteeredCaps::default()
    }

    /// Whether the scheme wants the perf-counter feedback layer armed.
    /// The pipeline only pays for counter accumulation when an active
    /// scheme returns `true`.
    fn wants_feedback(&self) -> bool {
        false
    }

    /// Epoch-boundary feedback hook: the closed counter window of the last
    /// `adaptive_epoch` cycles. Only ever called when [`Self::wants_feedback`]
    /// returned `true` at build time.
    fn observe_epoch(&mut self, _ep: &EpochStats) {}
}

/// Static per-thread occupancy caps a scheme promises never to exceed with
/// steered (non-copy) uops — what [`IqScheme::steered_caps`] reports and
/// the `check` module enforces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SteeredCaps {
    /// Cap per thread *per cluster* (CSSP).
    pub per_cluster: Option<usize>,
    /// Cap per thread across all clusters (CISP).
    pub total: Option<usize>,
}

/// Register-file assignment scheme (Table 4, §5.2).
pub trait RfScheme: Send {
    fn kind(&self) -> csmt_types::RegFileSchemeKind;

    /// Whether `t` may allocate one more `class` register in cluster `c`.
    /// Hard free-list capacity is checked by the pipeline.
    fn allows(&self, _t: ThreadId, _class: RegClass, _c: ClusterId, _view: &RfView) -> bool {
        true
    }

    /// Per-cycle hook (Figure 7): `starved[t][class]` is set when thread
    /// `t` was denied a `class` register this cycle.
    fn end_cycle(&mut self, _view: &RfView, _starved: &[[bool; RegClass::COUNT]; MAX_THREADS]) {}

    /// Downcast for the CDPRF budget-mirror validator, which cross-checks
    /// the scheme's RFOC/starvation counters against an independent
    /// replica. `None` for every other scheme.
    fn as_cdprf(&self) -> Option<&Cdprf> {
        None
    }

    /// Whether the scheme wants the perf-counter feedback layer armed.
    fn wants_feedback(&self) -> bool {
        false
    }

    /// Epoch-boundary feedback hook; see [`IqScheme::observe_epoch`].
    fn observe_epoch(&mut self, _ep: &EpochStats) {}
}

/// Instantiate an issue-queue scheme.
pub fn make_iq_scheme(kind: SchemeKind, cfg: &csmt_types::MachineConfig) -> Box<dyn IqScheme> {
    match kind {
        SchemeKind::Icount => Box::new(Icount),
        SchemeKind::Stall => Box::new(Stall),
        SchemeKind::FlushPlus => Box::new(FlushPlus),
        SchemeKind::Cisp => Box::new(Cisp::new(cfg)),
        SchemeKind::Cssp => Box::new(Cssp::new(cfg)),
        SchemeKind::Cspsp => Box::new(Cspsp::new(cfg)),
        SchemeKind::Pc => Box::new(PrivateClusters::new(cfg)),
        SchemeKind::Caiq => Box::new(Caiq::new(cfg)),
    }
}

/// Instantiate a register-file scheme.
pub fn make_rf_scheme(
    kind: csmt_types::RegFileSchemeKind,
    cfg: &csmt_types::MachineConfig,
) -> Box<dyn RfScheme> {
    use csmt_types::RegFileSchemeKind as K;
    match kind {
        K::Shared => Box::new(SharedRf),
        K::Cssprf => Box::new(Cssprf),
        K::Cisprf => Box::new(Cisprf),
        K::Cdprf => Box::new(Cdprf::new(cfg)),
        K::Carf => Box::new(Carf::new(cfg)),
    }
}
