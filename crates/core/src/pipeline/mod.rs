//! The cycle-level clustered SMT pipeline.
//!
//! One [`Simulator`] models the full machine of §3: shared front-end,
//! two-cluster back-end, shared MOB and memory hierarchy. The per-cycle
//! stage order is commit → execute-completion → issue → rename/dispatch →
//! fetch, so structural effects resolve the way hardware resolves them
//! (a value produced this cycle wakes consumers for next cycle's issue).
//!
//! The module is split by stage:
//! * `frontend` — fetch, trace cache, prediction, wrong-path injection;
//! * `dispatch` — rename selection, steering, copy generation, resource
//!   checks against the assignment schemes;
//! * `backend` — wakeup/select, ports, execution, memory access;
//! * `retire` — in-order commit, squash (mispredicts and Flush+).

mod backend;
mod dispatch;
mod frontend;
mod retire;
#[cfg(test)]
mod tests;

use crate::metrics::{SimResult, SimStats};
use crate::schemes::{make_iq_scheme, make_rf_scheme, IqScheme, RfScheme, RfView, SchedView};
use csmt_backend::{IssueQueue, LinkFabric, RegFile};
use csmt_frontend::{FetchQueue, Gshare, IndirectPredictor, RenameTable, Rob, TraceCache};
use csmt_mem::{MemHierarchy, Mob, MobIdx, Tlb};
use csmt_trace::stream::{SharedStream, StreamReader};
use csmt_trace::suite::{TraceSpec, Workload};
use csmt_trace::{Program, ThreadTrace, TraceProfile, WrongPathSource};
use csmt_types::{
    ClusterId, MachineConfig, MicroOp, OpClass, PhysReg, RegClass, RegFileSchemeKind, SchemeKind,
    ThreadId, MAX_CLUSTERS, MAX_THREADS,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Execution state of an in-flight uop (the low two bits of the slab's
/// flags lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UopState {
    /// Dispatched, waiting in an issue queue.
    InIq = 0,
    /// Issued, executing (or waiting on memory).
    Executing = 1,
    /// Completed, waiting to commit.
    Done = 2,
}

/// Destination-register bookkeeping of an in-flight uop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DestInfo {
    pub class: RegClass,
    pub log: csmt_types::LogReg,
    pub phys: PhysReg,
    /// Cluster whose register file holds `phys` (for copies this is the
    /// *consuming* cluster, not the issuing one).
    pub cluster: ClusterId,
    /// Rename-table mapping before this uop renamed (walk-back restore; for
    /// plain defines also the registers to free at commit).
    pub prev: csmt_frontend::rename::Mapping,
    /// True when `prev` was produced by `add_location` (copy) rather than
    /// `define`: commit must not free the previous locations.
    pub is_copy_mapping: bool,
}

/// A source operand resolved to a physical register.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrcInfo {
    pub class: RegClass,
    pub phys: PhysReg,
}

/// Allocation record for one in-flight uop: what dispatch knows when the
/// uop enters the window. The slab scatters these fields into its
/// structure-of-arrays lanes; every uop starts `InIq` with no completion
/// cycle, no resolved address and no outstanding miss.
#[derive(Debug, Clone)]
pub(crate) struct UopInit {
    pub uop: MicroOp,
    pub thread: ThreadId,
    /// Per-thread program-order sequence number (copies get their own,
    /// just before their consumer).
    pub seq: u64,
    /// Cluster in which the uop *issues* (for copies: the producer
    /// cluster).
    pub cluster: ClusterId,
    pub wrong_path: bool,
    /// Branch known (trace-driven) to have been mispredicted at fetch.
    pub mispredicted: bool,
    pub is_copy: bool,
    pub dest: Option<DestInfo>,
    /// Sources in `cluster`'s register files.
    pub srcs: [Option<SrcInfo>; 2],
    pub mob: Option<MobIdx>,
}

/// Cold per-uop fields: read at dispatch, memory phases and retire, but
/// not by the per-cycle commit/completion polls, so they live apart from
/// the hot lanes.
#[derive(Debug, Clone)]
pub(crate) struct Payload {
    pub uop: MicroOp,
    pub dest: Option<DestInfo>,
    /// Sources in the issuing cluster's register files.
    pub srcs: [Option<SrcInfo>; 2],
    pub mob: Option<MobIdx>,
}

/// `flags` lane bit layout (bits 0..2 are the [`UopState`]).
const F_STATE_MASK: u8 = 0b11;
const F_LIVE: u8 = 1 << 2;
const F_WRONG_PATH: u8 = 1 << 3;
const F_MISPREDICTED: u8 = 1 << 4;
const F_IS_COPY: u8 = 1 << 5;
/// Load/store phase flag: address has been sent to the MOB.
const F_ADDR_SET: u8 = 1 << 6;
/// This load's L2 miss is still outstanding (for squash accounting).
const F_L2_OUTSTANDING: u8 = 1 << 7;

/// Slab of in-flight uops with free-list recycling, stored as a
/// structure of arrays keyed by dense uop id. The per-cycle walks
/// (commit poll, completion scan, ready checks) read the one-byte
/// `flags` lane and the fixed-width hot lanes contiguously; the wide
/// payload (uop, rename bookkeeping, MOB index) is only touched at
/// dispatch, memory phases and retire. The free list is LIFO so uop ids
/// recycle in the exact historical order (id assignment is
/// behavior-visible through the event log and bit-exact snapshots).
#[derive(Debug, Default)]
pub(crate) struct Slab {
    flags: Vec<u8>,
    class: Vec<OpClass>,
    thread: Vec<ThreadId>,
    cluster: Vec<ClusterId>,
    seq: Vec<u64>,
    /// Completion cycle once issued.
    exec_done_at: Vec<u64>,
    payload: Vec<Payload>,
    free: Vec<u32>,
}

impl Slab {
    pub fn alloc(&mut self, e: UopInit) -> u32 {
        let flags = F_LIVE
            | if e.wrong_path { F_WRONG_PATH } else { 0 }
            | if e.mispredicted { F_MISPREDICTED } else { 0 }
            | if e.is_copy { F_IS_COPY } else { 0 };
        let class = e.uop.class;
        let payload = Payload {
            uop: e.uop,
            dest: e.dest,
            srcs: e.srcs,
            mob: e.mob,
        };
        if let Some(i) = self.free.pop() {
            let n = i as usize;
            self.flags[n] = flags;
            self.class[n] = class;
            self.thread[n] = e.thread;
            self.cluster[n] = e.cluster;
            self.seq[n] = e.seq;
            self.exec_done_at[n] = 0;
            self.payload[n] = payload;
            i
        } else {
            self.flags.push(flags);
            self.class.push(class);
            self.thread.push(e.thread);
            self.cluster.push(e.cluster);
            self.seq.push(e.seq);
            self.exec_done_at.push(0);
            self.payload.push(payload);
            (self.flags.len() - 1) as u32
        }
    }

    pub fn release(&mut self, id: u32) {
        self.check_live(id);
        self.flags[id as usize] &= !F_LIVE;
        self.free.push(id);
    }

    #[inline]
    fn check_live(&self, id: u32) {
        debug_assert!(self.flags[id as usize] & F_LIVE != 0, "dead uop {id}");
    }

    #[inline]
    fn flag(&self, id: u32, bit: u8) -> bool {
        self.check_live(id);
        self.flags[id as usize] & bit != 0
    }

    #[inline]
    fn set_flag(&mut self, id: u32, bit: u8, v: bool) {
        self.check_live(id);
        if v {
            self.flags[id as usize] |= bit;
        } else {
            self.flags[id as usize] &= !bit;
        }
    }

    #[inline]
    pub fn state(&self, id: u32) -> UopState {
        self.check_live(id);
        match self.flags[id as usize] & F_STATE_MASK {
            0 => UopState::InIq,
            1 => UopState::Executing,
            _ => UopState::Done,
        }
    }

    #[inline]
    pub fn set_state(&mut self, id: u32, s: UopState) {
        self.check_live(id);
        let f = &mut self.flags[id as usize];
        *f = (*f & !F_STATE_MASK) | s as u8;
    }

    #[inline]
    pub fn class(&self, id: u32) -> OpClass {
        self.check_live(id);
        self.class[id as usize]
    }

    #[inline]
    pub fn thread(&self, id: u32) -> ThreadId {
        self.check_live(id);
        self.thread[id as usize]
    }

    #[inline]
    pub fn cluster(&self, id: u32) -> ClusterId {
        self.check_live(id);
        self.cluster[id as usize]
    }

    #[inline]
    pub fn seq(&self, id: u32) -> u64 {
        self.check_live(id);
        self.seq[id as usize]
    }

    #[inline]
    pub fn exec_done_at(&self, id: u32) -> u64 {
        self.check_live(id);
        self.exec_done_at[id as usize]
    }

    #[inline]
    pub fn set_exec_done_at(&mut self, id: u32, cycle: u64) {
        self.check_live(id);
        self.exec_done_at[id as usize] = cycle;
    }

    #[inline]
    pub fn wrong_path(&self, id: u32) -> bool {
        self.flag(id, F_WRONG_PATH)
    }

    #[inline]
    pub fn mispredicted(&self, id: u32) -> bool {
        self.flag(id, F_MISPREDICTED)
    }

    #[inline]
    pub fn is_copy(&self, id: u32) -> bool {
        self.flag(id, F_IS_COPY)
    }

    #[inline]
    pub fn addr_set(&self, id: u32) -> bool {
        self.flag(id, F_ADDR_SET)
    }

    #[inline]
    pub fn set_addr_set(&mut self, id: u32, v: bool) {
        self.set_flag(id, F_ADDR_SET, v);
    }

    #[inline]
    pub fn l2_outstanding(&self, id: u32) -> bool {
        self.flag(id, F_L2_OUTSTANDING)
    }

    #[inline]
    pub fn set_l2_outstanding(&mut self, id: u32, v: bool) {
        self.set_flag(id, F_L2_OUTSTANDING, v);
    }

    #[inline]
    pub fn payload(&self, id: u32) -> &Payload {
        self.check_live(id);
        &self.payload[id as usize]
    }

    pub fn live_count(&self) -> usize {
        self.flags.len() - self.free.len()
    }
}

/// Executing-uop list with a parallel due-cycle vector: the completion
/// stage's "any uop due?" scan reads a dense `u64` array instead of
/// chasing slab pointers. The due entry mirrors the uop's
/// `exec_done_at`; every site that changes one changes the other.
#[derive(Debug, Default)]
pub(crate) struct ExecList {
    ids: Vec<u32>,
    due: Vec<u64>,
    /// Lower bound on every entry's due cycle: lets the completion stage
    /// skip its scan entirely on cycles where nothing can be due.
    min_due: u64,
    /// Bumped on every order-disturbing removal (squash). The completion
    /// stage's scan can keep its position across events as long as this is
    /// stable, and restarts from the front when it changes.
    generation: u64,
}

impl ExecList {
    pub fn push(&mut self, id: u32, due: u64) {
        self.ids.push(id);
        self.due.push(due);
        self.min_due = self.min_due.min(due);
    }

    /// Position of the first entry at or after `pos` due at `now`, in list
    /// order. The scan packs 64 comparisons at a time into a `u64` lane —
    /// the compare loop is branch-free and auto-vectorizes — and
    /// `trailing_zeros` picks the first due position out of the lane.
    #[inline]
    pub fn next_due_from(&self, pos: usize, now: u64) -> Option<usize> {
        let due = &self.due[pos..];
        let mut base = 0;
        while base < due.len() {
            let lane = &due[base..due.len().min(base + 64)];
            let mut word = 0u64;
            for (j, &d) in lane.iter().enumerate() {
                word |= u64::from(d <= now) << j;
            }
            if word != 0 {
                return Some(pos + base + word.trailing_zeros() as usize);
            }
            base += 64;
        }
        None
    }

    #[inline]
    pub fn id_at(&self, pos: usize) -> u32 {
        self.ids[pos]
    }

    pub fn set_due(&mut self, pos: usize, due: u64) {
        self.due[pos] = due;
        self.min_due = self.min_due.min(due);
    }

    pub fn swap_remove(&mut self, pos: usize) {
        self.ids.swap_remove(pos);
        self.due.swap_remove(pos);
    }

    /// Remove `id` preserving list order (squash path).
    pub fn remove_id(&mut self, id: u32) {
        if let Some(pos) = self.ids.iter().position(|&x| x == id) {
            self.ids.remove(pos);
            self.due.remove(pos);
            self.generation += 1;
        }
    }

    #[inline]
    pub fn min_due(&self) -> u64 {
        self.min_due
    }

    /// Tighten `min_due` to the exact minimum (after a completion sweep;
    /// removals only ever raise the true minimum, so the cached bound
    /// stays conservative between sweeps).
    pub fn recompute_min(&mut self) {
        self.min_due = self.due.iter().copied().min().unwrap_or(u64::MAX);
    }

    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn iter_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }
}

/// Pack a uop's wakeup-relevant fields into the issue queue's per-entry
/// metadata word, so the select loop's ready scan reads one dense `u64`
/// per entry instead of dereferencing the uop slab.
///
/// Layout: bits 0..8 hold the [`OpClass`] discriminant; source slot `i`
/// occupies bits `8+18*i .. 26+18*i` as `present(1) | reg class(1) |
/// physical register(16)`. The issuing cluster is not encoded — it always
/// equals the queue's cluster (checked by `check_invariants`). Bits
/// 44..64 are a scratch wakeup hint maintained by the select loop: the
/// entry is known not to be ready before that (saturated) cycle.
pub(crate) fn pack_iq_meta(class: OpClass, srcs: &[Option<SrcInfo>; 2]) -> u64 {
    let mut m = class.as_u8() as u64;
    for (i, s) in srcs.iter().enumerate() {
        if let Some(s) = s {
            let slot = 1u64 | ((s.class.idx() as u64) << 1) | ((s.phys.0 as u64) << 2);
            m |= slot << (8 + 18 * i);
        }
    }
    m
}

/// First bit of the select loop's wakeup hint: 19 bits of absolute cycle
/// plus the [`META_HINT_HARD`] flag on top.
pub(crate) const META_HINT_SHIFT: u32 = 44;
/// Maximum hint cycle value (19 bits of absolute cycle). The top value is
/// the *parked* marker (see [`Scoreboard::park`]); finite bounds saturate
/// one below it and are re-derived once `now` catches up.
pub(crate) const META_HINT_CAP: u64 = (1 << 19) - 1;
/// "Hard" hint flag (bit 63 of the meta word). A hard hint records the
/// *exact* cycle the entry becomes ready — every source had a finite
/// scheduled ready-cycle when it was computed, and those never change
/// while the consumer lives — so the select loop trusts it in both
/// directions and never re-reads the scoreboard for the entry. A soft
/// hint (flag clear) only means "cannot be ready before this cycle"; some
/// producer had not scheduled its wakeup yet, so the entry is re-derived
/// once the hint expires.
pub(crate) const META_HINT_HARD: u64 = 1 << (META_HINT_SHIFT + 19);
/// Mask selecting everything below the hint.
pub(crate) const META_LOW_MASK: u64 = (1 << META_HINT_SHIFT) - 1;

/// Operation class packed by [`pack_iq_meta`].
#[inline]
pub(crate) fn meta_class(meta: u64) -> OpClass {
    OpClass::from_u8((meta & 0xff) as u8)
}

/// Source operand `i` packed by [`pack_iq_meta`], if present.
#[inline]
pub(crate) fn meta_src(meta: u64, i: usize) -> Option<(RegClass, PhysReg)> {
    let slot = (meta >> (8 + 18 * i)) & 0x3_ffff;
    if slot & 1 == 0 {
        None
    } else {
        let class = if slot & 2 == 0 {
            RegClass::Int
        } else {
            RegClass::FpSimd
        };
        Some((class, PhysReg((slot >> 2) as u16)))
    }
}

/// Per-(cluster, class) readiness scoreboard over physical registers.
#[derive(Debug, Default)]
pub(crate) struct Scoreboard {
    ready: [[Vec<u64>; RegClass::COUNT]; MAX_CLUSTERS],
    /// Issue-queue entries parked on a source whose producer has not
    /// scheduled its wakeup yet, per (cluster, class, phys reg). A pending
    /// source can only gain a finite ready-cycle through `set_ready_at`,
    /// so the select loop parks such entries here instead of re-deriving
    /// their readiness every cycle; `set_ready_at` drains the list into
    /// the `rewake` bitmap. Stale ids (issued or squashed while parked)
    /// are harmless: a spurious rewake bit just triggers one re-check.
    waiters: [[Vec<Vec<u32>>; RegClass::COUNT]; MAX_CLUSTERS],
    /// Per-cluster bitmap over uop ids: parked entries whose awaited
    /// wakeup has arrived since the entry parked.
    rewake: [Vec<u64>; MAX_CLUSTERS],
    /// Set when a wakeup drained at least one parked waiter in the
    /// cluster: the next issue scan must run even if no timed hint is due.
    scan_dirty: [bool; MAX_CLUSTERS],
}

impl Scoreboard {
    /// Pre-size the per-(cluster, class) tables to the configured register
    /// capacities so the hot wakeup path never grows them (physical
    /// registers are dense from 0 in every file). Unbounded-register
    /// configs still grow on demand through [`Self::slot`].
    fn reserve(&mut self, int_regs: usize, fp_regs: usize) {
        let caps = [int_regs, fp_regs];
        for c in 0..MAX_CLUSTERS {
            for (k, &cap) in caps.iter().enumerate() {
                self.ready[c][k].resize(cap, u64::MAX);
                self.waiters[c][k].resize_with(cap, Vec::new);
            }
        }
    }

    fn slot(&mut self, c: ClusterId, k: RegClass, p: PhysReg) -> &mut u64 {
        let v = &mut self.ready[c.idx()][k.idx()];
        if v.len() <= p.idx() {
            v.resize(p.idx() + 1, u64::MAX);
        }
        &mut v[p.idx()]
    }

    /// Mark a register pending (at rename).
    pub fn mark_pending(&mut self, c: ClusterId, k: RegClass, p: PhysReg) {
        *self.slot(c, k, p) = u64::MAX;
    }

    /// Set the cycle at which the register's value becomes usable, waking
    /// any issue-queue entries parked on this register.
    pub fn set_ready_at(&mut self, c: ClusterId, k: RegClass, p: PhysReg, cycle: u64) {
        if let Some(list) = self.waiters[c.idx()][k.idx()].get_mut(p.idx()) {
            if !list.is_empty() {
                self.scan_dirty[c.idx()] = true;
            }
            let rw = &mut self.rewake[c.idx()];
            for id in list.drain(..) {
                let w = id as usize >> 6;
                if rw.len() <= w {
                    rw.resize(w + 1, 0);
                }
                rw[w] |= 1 << (id & 63);
            }
        }
        *self.slot(c, k, p) = cycle;
    }

    /// Whether a wakeup for parked entry `id` has arrived (test only).
    pub fn rewake_pending(&self, c: usize, id: u32) -> bool {
        self.rewake[c]
            .get(id as usize >> 6)
            .is_some_and(|w| w & (1 << (id & 63)) != 0)
    }

    #[inline]
    pub fn is_ready(&self, c: ClusterId, k: RegClass, p: PhysReg, now: u64) -> bool {
        self.ready[c.idx()][k.idx()]
            .get(p.idx())
            .is_some_and(|&r| r <= now)
    }
}

/// Outstanding L2 miss record (for Flush+ ordering and stall release).
#[derive(Debug, Clone, Copy)]
pub(crate) struct L2Miss {
    /// Slab id of the missing load.
    pub uop: u32,
    pub started: u64,
    pub ready_at: u64,
}

/// Correct-path uop source for one thread: either a private generator
/// (per-config mode) or a reader over a shared immutable uop stream
/// (batched sweeps, where all config points sharing a trace pair reuse
/// one decoded stream). Both yield the identical stream — it is a pure
/// function of `(profile, seed)`.
pub(crate) enum TraceSource {
    /// Boxed: the generator's PRNG, stream and dependency state would
    /// dominate the variant size otherwise.
    Live(Box<ThreadTrace>),
    Shared(StreamReader),
}

impl TraceSource {
    #[inline]
    pub fn next_uop(&mut self) -> MicroOp {
        match self {
            TraceSource::Live(t) => t.next_uop(),
            TraceSource::Shared(r) => r.next_uop(),
        }
    }

    pub fn profile(&self) -> &TraceProfile {
        match self {
            TraceSource::Live(t) => t.profile(),
            TraceSource::Shared(r) => r.profile(),
        }
    }

    pub fn program(&self) -> &Program {
        match self {
            TraceSource::Live(t) => t.program(),
            TraceSource::Shared(r) => r.program(),
        }
    }
}

/// Per-thread context: trace source, private front-end state, ROB section.
pub(crate) struct ThreadCtx {
    pub id: ThreadId,
    pub trace: TraceSource,
    pub wrong: WrongPathSource,
    /// Replay buffer: correct-path uops refetched after a flush (FIFO,
    /// consumed before the generator).
    pub replay: VecDeque<MicroOp>,
    pub fetchq: FetchQueue,
    pub rename: RenameTable,
    pub rob: Rob,
    pub seq_next: u64,
    /// Fetching down the wrong path of an unresolved mispredicted branch.
    pub wrong_path_mode: bool,
    /// Slab id of the unresolved mispredicted branch, if any.
    pub unresolved_mispredict: Option<u32>,
    /// Fetch suppressed until this cycle (redirect penalty, TC/MROM stall).
    pub fetch_resume_at: u64,
    /// Trace-cache chunk tracking.
    pub cur_block: u32,
    pub block_pos: u32,
    /// Outstanding L2 misses of correct-path loads.
    pub l2_misses: Vec<L2Miss>,
    pub committed: u64,
    pub finish_cycle: u64,
    /// Home cluster holding the architected state at reset.
    pub home: ClusterId,
}

impl ThreadCtx {
    pub fn pending_l2(&self) -> u32 {
        self.l2_misses.len() as u32
    }

    pub fn earliest_l2_start(&self) -> u64 {
        self.l2_misses
            .iter()
            .map(|m| m.started)
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// Batched construction takes one shared stream per trace spec, decoded
/// from that very spec.
fn check_streams(traces: &[TraceSpec], streams: &[Arc<SharedStream>]) {
    assert_eq!(
        streams.len(),
        traces.len(),
        "one shared stream per trace spec"
    );
    for (spec, s) in traces.iter().zip(streams) {
        assert_eq!(
            s.profile().name,
            spec.profile.name,
            "shared stream built from a different profile"
        );
        assert_eq!(
            s.seed(),
            spec.seed,
            "shared stream built from a different seed"
        );
    }
}

/// The simulator.
pub struct Simulator {
    pub(crate) cfg: MachineConfig,
    pub(crate) iq_scheme: Box<dyn IqScheme>,
    pub(crate) rf_scheme: Box<dyn RfScheme>,
    pub(crate) threads: Vec<ThreadCtx>,
    // shared front-end
    pub(crate) tc: TraceCache,
    pub(crate) gshare: Gshare,
    pub(crate) indirect: IndirectPredictor,
    pub(crate) itlb: Tlb,
    // back-end
    pub(crate) iqs: [IssueQueue; MAX_CLUSTERS],
    /// `regfiles[cluster][class]`.
    pub(crate) regfiles: [[RegFile; RegClass::COUNT]; MAX_CLUSTERS],
    pub(crate) links: LinkFabric,
    pub(crate) mob: Mob,
    pub(crate) mem: MemHierarchy,
    pub(crate) slab: Slab,
    pub(crate) scoreboard: Scoreboard,
    /// Per-cluster earliest cycle at which an issue scan could find a
    /// ready entry, derived from the timed hints seen in the previous
    /// scan. Issue skips a cluster outright while `now` is below it and
    /// no insert or parked-entry wakeup has dirtied the queue (inserts
    /// reset it to 0; wakeups set `Scoreboard::scan_dirty`).
    pub(crate) iq_next_scan: [u64; MAX_CLUSTERS],
    /// Uops currently executing (issued, not yet complete).
    pub(crate) executing: ExecList,
    /// Reusable issue-stage pick buffer (`(uop id, port)`), drained every
    /// cluster scan; lives here so the hot loop never reallocates it.
    pub(crate) issue_buf: Vec<(u32, usize)>,
    /// Register-file view maintained incrementally by the dispatch stage.
    /// Dispatch is the last stage of a cycle to touch the register files,
    /// so after it runs this equals a fresh [`Self::rf_view`] rebuild and
    /// feeds `end_cycle` without another O(threads·classes·clusters) scan.
    pub(crate) rf_view_cycle: RfView,
    pub(crate) now: u64,
    pub(crate) stats: SimStats,
    /// Commit priority alternates between threads each cycle.
    pub(crate) commit_rr: u8,
    /// Register-file starvation flags for the current cycle (CDPRF input).
    pub(crate) rf_starved: [[bool; RegClass::COUNT]; MAX_THREADS],
    /// Perf-counter feedback window for the counter-adaptive schemes
    /// (None = one branch per cycle). Armed at build time iff an active
    /// scheme asked for feedback and `cfg.adaptive_epoch > 0`. Derived
    /// state, deliberately outside [`crate::Checkpoint`]: a restored
    /// simulator restarts its window cold and the detailed warm-up
    /// re-trains it deterministically.
    pub(crate) perf: Option<crate::perf::PerfCounters>,
    /// Opt-in per-uop event log (None = zero overhead).
    pub(crate) event_log: Option<crate::tracelog::EventLog>,
    /// Orientation bit for every scheduling tie-break (fetch/rename/commit
    /// alternation phase, steering ties, cluster scan order). Always 0 in
    /// the historical mode; with [`MachineConfig::symmetric_sched`] it is
    /// derived from the thread *programs* so that swapping the two threads'
    /// programs yields an exactly mirrored execution.
    pub(crate) orient: u8,
    /// The trace specs this simulator was built from (oracle replay).
    pub(crate) specs: Vec<TraceSpec>,
    /// Architectural commit offset each thread was fast-forwarded to
    /// before detailed execution began (all zeros unless built by
    /// [`Simulator::from_checkpoint`]). The oracle arms its replay from
    /// these offsets.
    pub(crate) arch_base: Vec<u64>,
    /// Opt-in architectural invariant checker (None = zero overhead).
    /// Debug builds arm the standard validators by default.
    pub(crate) checker: Option<crate::check::CheckSuite>,
}

impl Simulator {
    /// Build a simulator for 1 to `cfg.num_threads` trace specs, decoding
    /// each trace into a private generator.
    pub fn new(
        cfg: MachineConfig,
        iq_kind: SchemeKind,
        rf_kind: RegFileSchemeKind,
        traces: &[TraceSpec],
    ) -> Self {
        let sources = traces
            .iter()
            .map(|spec| {
                TraceSource::Live(Box::new(ThreadTrace::from_profile(
                    &spec.profile,
                    spec.seed,
                )))
            })
            .collect();
        Self::build(cfg, iq_kind, rf_kind, traces, sources)
    }

    /// Build a simulator whose correct-path uops come from pre-decoded
    /// shared streams (one per thread) instead of private generators —
    /// the batched-sweep mode, where every config point sharing a trace
    /// pair reads the same immutable stream. Execution is bit-identical
    /// to [`Self::new`] with the same specs: the stream is a pure
    /// function of `(profile, seed)`, and everything config-dependent
    /// (wrong-path injection, all back-end state) stays private.
    pub fn new_batched(
        cfg: MachineConfig,
        iq_kind: SchemeKind,
        rf_kind: RegFileSchemeKind,
        traces: &[TraceSpec],
        streams: &[Arc<SharedStream>],
    ) -> Self {
        check_streams(traces, streams);
        let sources = streams
            .iter()
            .map(|s| TraceSource::Shared(StreamReader::new(s.clone())))
            .collect();
        Self::build(cfg, iq_kind, rf_kind, traces, sources)
    }

    /// Resume detailed simulation from an architectural [`Checkpoint`]:
    /// verify its integrity, build a fresh machine for its specs whose
    /// trace generators resume from the checkpointed cursors, and
    /// pre-warm the memory hierarchy with the recorded footprint. The
    /// resumed machine is bit-exact: two simulators restored from equal
    /// checkpoints execute identically. Relative to a detailed run from
    /// zero the commit stream is architecturally identical past the
    /// offset (enforce with [`Simulator::enable_oracle`], which replays
    /// from zero to the offset independently of the cursor);
    /// microarchitectural warm state is reconstructed by running a
    /// warm-up window before measuring.
    ///
    /// A checkpoint that verifies but whose cursor does not fit its
    /// program (or its offset) is an `Err`, not a panic.
    pub fn from_checkpoint(
        cfg: MachineConfig,
        iq_kind: SchemeKind,
        rf_kind: RegFileSchemeKind,
        ckpt: &crate::checkpoint::Checkpoint,
    ) -> Result<Self, String> {
        ckpt.verify()?;
        let programs = ckpt
            .threads
            .iter()
            .map(|t| Arc::new(Program::synthesize(&t.spec.profile, t.spec.seed)))
            .collect();
        Self::restore(cfg, iq_kind, rf_kind, ckpt, programs)
    }

    /// [`Simulator::from_checkpoint`] for a batched sweep: the programs
    /// come from the pre-decoded shared streams, so a restore synthesizes
    /// nothing. The streams themselves are never read — each thread's
    /// generator resumes privately from its cursor.
    pub fn from_checkpoint_batched(
        cfg: MachineConfig,
        iq_kind: SchemeKind,
        rf_kind: RegFileSchemeKind,
        ckpt: &crate::checkpoint::Checkpoint,
        streams: &[Arc<SharedStream>],
    ) -> Result<Self, String> {
        ckpt.verify()?;
        check_streams(&ckpt.specs(), streams);
        let programs = streams.iter().map(|s| s.program().clone()).collect();
        Self::restore(cfg, iq_kind, rf_kind, ckpt, programs)
    }

    fn restore(
        cfg: MachineConfig,
        iq_kind: SchemeKind,
        rf_kind: RegFileSchemeKind,
        ckpt: &crate::checkpoint::Checkpoint,
        programs: Vec<Arc<Program>>,
    ) -> Result<Self, String> {
        let sources = ckpt
            .threads
            .iter()
            .zip(programs)
            .enumerate()
            .map(|(i, (tc, program))| {
                if tc.cursor.emitted != tc.offset {
                    return Err(format!(
                        "thread {i}: trace cursor at uop {}, checkpoint offset {}",
                        tc.cursor.emitted, tc.offset
                    ));
                }
                ThreadTrace::resume(program, &tc.cursor)
                    .map(|t| TraceSource::Live(Box::new(t)))
                    .map_err(|e| format!("thread {i}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut sim = Self::build(cfg, iq_kind, rf_kind, &ckpt.specs(), sources);
        // Same per-thread warm budget as the cold-start `warm_caches`:
        // half the L2, split between threads.
        let l2_lines = (sim.cfg.l2_size / sim.cfg.l1_line) as u64;
        let n = sim.threads.len().max(1) as u64;
        let per_thread = l2_lines / (2 * n);
        for (i, tc) in ckpt.threads.iter().enumerate() {
            sim.arch_base[i] = tc.offset;
            let mut budget = per_thread;
            // Oldest-first order: the most recently touched lines are
            // warmed last and end up most-recently-used. If the budget
            // is smaller than the footprint, keep the newest lines.
            let keep = (budget as usize).min(tc.warm_lines.len());
            for &line in &tc.warm_lines[tc.warm_lines.len() - keep..] {
                sim.mem.warm(line, 1, true, &mut budget);
            }
        }
        Ok(sim)
    }

    /// Counter layer for a scheme pair: armed only when a scheme asked
    /// for feedback and the configured epoch is non-zero.
    fn perf_for(
        cfg: &MachineConfig,
        iq: &dyn IqScheme,
        rf: &dyn RfScheme,
    ) -> Option<crate::perf::PerfCounters> {
        (cfg.adaptive_epoch > 0 && (iq.wants_feedback() || rf.wants_feedback())).then(|| {
            crate::perf::PerfCounters::new(cfg.adaptive_epoch, cfg.num_threads, cfg.num_clusters)
        })
    }

    fn build(
        cfg: MachineConfig,
        iq_kind: SchemeKind,
        rf_kind: RegFileSchemeKind,
        traces: &[TraceSpec],
        sources: Vec<TraceSource>,
    ) -> Self {
        cfg.validate().expect("invalid machine configuration");
        assert!(
            !traces.is_empty() && traces.len() <= cfg.num_threads,
            "need 1 to num_threads ({}) trace specs, got {}",
            cfg.num_threads,
            traces.len()
        );
        // Program-derived orientation (symmetric-scheduling mode): hash
        // each thread's (profile, seed) identity and orient every
        // tie-break by which hash is larger. Swapping the two programs
        // flips the bit, which mirrors every structural tie-break.
        let orient = if cfg.symmetric_sched && traces.len() == 2 {
            let h = |s: &TraceSpec| {
                let mut x: u64 = 0xcbf2_9ce4_8422_2325;
                let mut eat = |b: u8| {
                    x ^= b as u64;
                    x = x.wrapping_mul(0x0000_0100_0000_01b3);
                };
                for b in s.profile.name.bytes() {
                    eat(b);
                }
                for b in s.seed.to_le_bytes() {
                    eat(b);
                }
                x
            };
            (h(&traces[0]) > h(&traces[1])) as u8
        } else {
            0
        };
        let make_rf = |cluster_regs: usize| {
            if cfg.unbounded_regs {
                RegFile::unbounded()
            } else {
                RegFile::new(cluster_regs)
            }
        };
        let regfiles = std::array::from_fn(|_| {
            [
                make_rf(cfg.int_regs_per_cluster),
                make_rf(cfg.fp_regs_per_cluster),
            ]
        });
        let threads: Vec<ThreadCtx> = traces
            .iter()
            .zip(sources)
            .enumerate()
            .map(|(i, (spec, trace))| {
                let wrong = WrongPathSource::new(&spec.profile, spec.seed);
                ThreadCtx {
                    id: ThreadId(i as u8),
                    trace,
                    wrong,
                    replay: VecDeque::new(),
                    fetchq: FetchQueue::new(cfg.fetch_queue_entries),
                    rename: RenameTable::new(),
                    rob: if cfg.unbounded_rob {
                        Rob::unbounded()
                    } else {
                        Rob::new(cfg.rob_per_thread)
                    },
                    seq_next: 0,
                    wrong_path_mode: false,
                    unresolved_mispredict: None,
                    fetch_resume_at: 0,
                    cur_block: u32::MAX,
                    block_pos: 0,
                    l2_misses: Vec::new(),
                    committed: 0,
                    finish_cycle: 0,
                    home: ClusterId((i % cfg.num_clusters) as u8),
                }
            })
            .collect();
        let iq_scheme = make_iq_scheme(iq_kind, &cfg);
        let rf_scheme = make_rf_scheme(rf_kind, &cfg);
        let perf = Self::perf_for(&cfg, iq_scheme.as_ref(), rf_scheme.as_ref());
        let mut sim = Simulator {
            iq_scheme,
            rf_scheme,
            tc: TraceCache::new(&cfg),
            gshare: Gshare::new(cfg.gshare_entries),
            indirect: IndirectPredictor::new(cfg.indirect_entries),
            itlb: Tlb::new(cfg.itlb_entries, cfg.itlb_assoc, cfg.tlb_miss_penalty),
            iqs: std::array::from_fn(|_| IssueQueue::new(cfg.iq_per_cluster)),
            regfiles,
            links: LinkFabric::new(cfg.num_links, cfg.link_latency),
            mob: Mob::new(cfg.mob_entries),
            mem: MemHierarchy::new(&cfg),
            slab: Slab::default(),
            scoreboard: Scoreboard::default(),
            iq_next_scan: [0; MAX_CLUSTERS],
            executing: ExecList::default(),
            issue_buf: Vec::new(),
            rf_view_cycle: RfView::default(),
            now: 0,
            stats: SimStats::sized(cfg.num_threads, cfg.num_clusters),
            commit_rr: orient,
            rf_starved: [[false; RegClass::COUNT]; MAX_THREADS],
            perf,
            event_log: None,
            orient,
            specs: traces.to_vec(),
            arch_base: vec![0; traces.len()],
            checker: if cfg!(debug_assertions) {
                Some(crate::check::CheckSuite::standard())
            } else {
                None
            },
            threads,
            cfg,
        };
        if !sim.cfg.unbounded_regs {
            sim.scoreboard
                .reserve(sim.cfg.int_regs_per_cluster, sim.cfg.fp_regs_per_cluster);
        }
        sim.init_architected_state();
        sim.warm_caches();
        sim
    }

    /// Checkpoint-style cache warm-up: preload each thread's hot region
    /// (L1+L2) and stream regions (L2) so short measured runs see steady
    /// state instead of a compulsory-miss transient. The budget splits the
    /// L2 between threads; genuinely memory-bound footprints exceed it and
    /// keep missing, as they should.
    fn warm_caches(&mut self) {
        let l2_lines = (self.cfg.l2_size / self.cfg.l1_line) as u64;
        let n = self.threads.len().max(1);
        let per_thread = l2_lines / (2 * n as u64);
        // Warm in orientation order so mirrored workloads contend for the
        // shared warm-up budget in the mirrored order.
        for i in 0..self.threads.len() {
            let th = &self.threads[(i + self.orient as usize) % n];
            let mut budget = per_thread;
            for (i, (start, len)) in th.trace.program().warm_ranges().into_iter().enumerate() {
                // Range 0 is the hot region: L1-resident.
                self.mem.warm(start, len, i == 0, &mut budget);
            }
        }
    }

    /// Allocate initial physical registers for each thread's architected
    /// state in its home cluster (values ready at cycle 0).
    fn init_architected_state(&mut self) {
        for ti in 0..self.threads.len() {
            let t = ThreadId(ti as u8);
            let home = self.threads[ti].home;
            let spans = {
                let p = self.threads[ti].trace.profile();
                [p.int_reg_span.max(1), p.fp_reg_span.max(1)]
            };
            for (ki, class) in RegClass::all().into_iter().enumerate() {
                for r in 0..spans[ki] {
                    let phys = self.regfiles[home.idx()][class.idx()]
                        .alloc(t)
                        .expect("register file too small for architected state");
                    self.threads[ti].rename.define(
                        class,
                        csmt_types::LogReg(r as u8),
                        home.idx(),
                        phys,
                    );
                    self.scoreboard.set_ready_at(home, class, phys, 0);
                }
            }
        }
    }

    /// Run a checker callback with the suite temporarily taken out of
    /// `self`, so validators can inspect the whole simulator immutably.
    /// No-op (one branch) when no checker is armed.
    #[inline]
    pub(crate) fn check_event(
        &mut self,
        f: impl FnOnce(&mut crate::check::CheckSuite, &Simulator),
    ) {
        if self.checker.is_some() {
            let mut ck = self.checker.take().unwrap();
            f(&mut ck, self);
            self.checker = Some(ck);
        }
    }

    /// Current scheduler view (built fresh each cycle; cheap).
    pub(crate) fn sched_view(&self) -> SchedView {
        let mut v = SchedView {
            iq_capacity: self.cfg.iq_per_cluster,
            // Scan rotation cycling through every thread. Reduces to the
            // cycle-parity ^ orient value on the 2-thread shape (addition
            // mod 2 is xor), so the paper-shape goldens are unmoved.
            scan_rotation: (self.now as usize + self.orient as usize) % self.cfg.num_threads,
            num_threads: self.cfg.num_threads,
            num_clusters: self.cfg.num_clusters,
            ..Default::default()
        };
        for (i, th) in self.threads.iter().enumerate() {
            v.active[i] = true;
            v.fetchq_len[i] = th.fetchq.len();
            v.pending_l2[i] = th.pending_l2();
            v.earliest_l2_start[i] = th.earliest_l2_start();
            for c in 0..self.cfg.num_clusters {
                v.iq_occ[i][c] = self.iqs[c].thread_occupancy(th.id);
            }
            v.rename_to_issue[i] = v.iq_occ[i].iter().sum();
        }
        v
    }

    /// Current register-file view.
    pub(crate) fn rf_view(&self) -> RfView {
        let mut v = RfView {
            capacity: [self.cfg.int_regs_per_cluster, self.cfg.fp_regs_per_cluster],
            unbounded: self.cfg.unbounded_regs,
            num_threads: self.cfg.num_threads,
            num_clusters: self.cfg.num_clusters,
            ..Default::default()
        };
        for (i, th) in self.threads.iter().enumerate() {
            for c in 0..self.cfg.num_clusters {
                for k in 0..RegClass::COUNT {
                    v.used[i][k][c] = self.regfiles[c][k].used_by(th.id);
                }
            }
        }
        v
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        self.rf_starved = [[false; RegClass::COUNT]; MAX_THREADS];
        self.commit();
        self.complete_execution();
        self.issue();
        self.dispatch();
        self.fetch();
        // CDPRF per-cycle hook (Figure 7). Dispatch maintained the
        // register-file view incrementally; nothing after it touches the
        // register files, so the view is current.
        self.rf_scheme
            .end_cycle(&self.rf_view_cycle, &self.rf_starved);
        // Perf-counter feedback (counter-adaptive schemes): fold in this
        // cycle's occupancy sample; at each epoch boundary deliver the
        // closed window to both schemes. Pure function of simulated
        // state, so adaptive runs stay byte-identical across serial /
        // parallel / batched / served execution.
        if let Some(p) = self.perf.as_mut() {
            let mut committed = [0u64; MAX_THREADS];
            for (i, th) in self.threads.iter().enumerate() {
                committed[i] = th.committed;
                for c in 0..self.cfg.num_clusters {
                    p.note_occupancy(i, c, self.iqs[c].thread_occupancy(th.id));
                }
            }
            if let Some(ep) = p.end_cycle(&committed) {
                self.iq_scheme.observe_epoch(&ep);
                self.rf_scheme.observe_epoch(&ep);
            }
        }
        // Per-cycle invariant sweep (after the RF scheme's own end-cycle
        // update so budget mirrors observe the same inputs it consumed).
        if self.checker.is_some() {
            let mut ck = self.checker.take().unwrap();
            ck.end_cycle(self);
            self.checker = Some(ck);
        }
        self.now += 1;
    }

    /// Run until every thread has committed `target` uops (or `max_cycles`
    /// elapses) and return the collected result.
    pub fn run(&mut self, target: u64, max_cycles: u64) -> SimResult {
        self.run_with_warmup(0, target, max_cycles)
    }

    /// Run `warmup` committed uops per thread to heat caches, predictors
    /// and the trace cache, reset the statistics, then measure `target`
    /// committed uops per thread. Standard trace-driven methodology — the
    /// paper's runs measure steady-state regions of much longer traces.
    pub fn run_with_warmup(&mut self, warmup: u64, target: u64, max_cycles: u64) -> SimResult {
        // Phase 1: warm up.
        while self.now < max_cycles && self.threads.iter().any(|t| t.committed < warmup) {
            self.step();
        }
        // Reset counters; measurement starts here.
        self.stats = SimStats::sized(self.cfg.num_threads, self.cfg.num_clusters);
        let epoch = self.now;
        let bases: Vec<u64> = self.threads.iter().map(|t| t.committed).collect();

        // Phase 2: measure.
        while self.now < max_cycles {
            self.step();
            let mut all_done = true;
            for (i, th) in self.threads.iter_mut().enumerate() {
                if th.committed - bases[i] >= target && th.finish_cycle == 0 {
                    th.finish_cycle = self.now - epoch;
                }
                if th.finish_cycle == 0 {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
        }
        for (i, th) in self.threads.iter().enumerate() {
            self.stats.committed[i] = th.committed - bases[i];
            self.stats.finish_cycle[i] = th.finish_cycle;
        }
        self.stats.cycles = self.now - epoch;
        self.stats.tc_miss_ratio = self.tc.miss_ratio();
        self.stats.l1_miss_ratio = self.mem.l1_miss_ratio();
        self.stats.l2_miss_ratio = self.mem.l2_miss_ratio();
        SimResult {
            num_threads: self.threads.len(),
            commit_target: target,
            stats: self.stats.clone(),
        }
    }

    /// Simulated cycle count so far.
    pub fn cycles(&self) -> u64 {
        self.now
    }

    /// Non-copy issue-queue entries per thread in cluster `c` (the
    /// population the schemes' occupancy caps govern; see
    /// [`crate::probe::MachineSnapshot::iq_steered`]).
    pub(crate) fn iq_noncopy_occupancy(&self, c: usize) -> Vec<(ThreadId, usize)> {
        let mut out: Vec<(ThreadId, usize)> = (0..self.cfg.num_threads)
            .map(|t| (ThreadId(t as u8), 0usize))
            .collect();
        for id in self.iqs[c].iter() {
            if !self.slab.is_copy(id) {
                out[self.slab.thread(id).idx()].1 += 1;
            }
        }
        out
    }

    /// Total useful uops committed by all threads since construction.
    /// Unlike [`Self::stats`] (which covers the measured region of a
    /// `run_with_warmup`), this is valid for raw `step()` loops.
    pub fn committed_total(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Cross-structure consistency checks, used by tests and property
    /// harnesses. Panics on violation.
    pub fn check_invariants(&self) {
        // Every issue-queue entry is a live, InIq uop of that cluster, and
        // per-thread occupancies add up.
        for c in 0..MAX_CLUSTERS {
            let mut per_thread = [0usize; MAX_THREADS];
            assert!(
                c < self.cfg.num_clusters || self.iqs[c].is_empty(),
                "uop in cluster {c} beyond the machine shape"
            );
            for (id, meta) in self.iqs[c].iter_with_meta() {
                let p = self.slab.payload(id);
                let cluster = self.slab.cluster(id);
                assert_eq!(
                    self.slab.state(id),
                    UopState::InIq,
                    "IQ holds non-InIq uop {id}"
                );
                assert_eq!(cluster.idx(), c, "uop {id} in wrong cluster queue");
                assert_eq!(meta_class(meta), p.uop.class, "meta class drift on {id}");
                for i in 0..2 {
                    assert_eq!(
                        meta_src(meta, i),
                        p.srcs[i].map(|s| (s.class, s.phys)),
                        "meta src {i} drift on uop {id}"
                    );
                }
                // A future wakeup hint (either kind) claims the entry is
                // not ready yet — a hint that outlived an actually-ready
                // entry would stall it forever. A *hard* hint additionally
                // records the exact ready cycle: once it passes, the entry
                // is skipped past the scoreboard on every later scan, so it
                // must genuinely be ready (finite source ready-cycles never
                // change while the consumer lives).
                let cyc = (meta >> META_HINT_SHIFT) & META_HINT_CAP;
                let gating = if p.uop.class == OpClass::Store { 1 } else { 2 };
                if meta & META_HINT_HARD == 0 && cyc == META_HINT_CAP {
                    // Parked entries are only woken by `set_ready_at`; if
                    // every source already has a scheduled ready-cycle and
                    // no wakeup is pending, the entry would sleep forever.
                    let some_pending = p.srcs[..gating].iter().flatten().any(|s| {
                        self.scoreboard.ready[cluster.idx()][s.class.idx()]
                            .get(s.phys.idx())
                            .is_none_or(|&r| r == u64::MAX)
                    });
                    assert!(
                        some_pending || self.scoreboard.rewake_pending(c, id),
                        "parked uop {id} with every source scheduled and no rewake"
                    );
                } else if cyc != 0 && cyc < META_HINT_CAP {
                    let ready = p.srcs[..gating]
                        .iter()
                        .flatten()
                        .all(|s| self.scoreboard.is_ready(cluster, s.class, s.phys, self.now));
                    if cyc > self.now {
                        assert!(!ready, "stale wakeup hint on ready uop {id}");
                    } else if meta & META_HINT_HARD != 0 {
                        assert!(ready, "hard-ready hint on non-ready uop {id}");
                    }
                }
                per_thread[self.slab.thread(id).idx()] += 1;
            }
            for (ti, th) in self.threads.iter().enumerate() {
                assert_eq!(
                    per_thread[ti],
                    self.iqs[c].thread_occupancy(th.id),
                    "occupancy counter drift in cluster {c}"
                );
            }
        }
        // Every live slab entry sits in exactly one ROB; ROB seqs increase.
        let rob_total: usize = self.threads.iter().map(|t| t.rob.len()).sum();
        assert_eq!(self.slab.live_count(), rob_total, "slab/ROB drift");
        for th in &self.threads {
            let mut prev = None;
            for (id, rob_seq) in th.rob.iter_with_seq() {
                assert_eq!(self.slab.thread(id), th.id);
                let seq = self.slab.seq(id);
                assert_eq!(rob_seq, seq, "ROB seq mirror drifted for uop {id}");
                if let Some(p) = prev {
                    assert!(seq > p, "ROB out of program order");
                }
                prev = Some(seq);
            }
        }
        // Executing list consistency, including the mirrored due cycles.
        for (pos, id) in self.executing.iter_ids().enumerate() {
            assert_eq!(self.slab.state(id), UopState::Executing);
            assert_eq!(
                self.executing.due[pos],
                self.slab.exec_done_at(id),
                "due-cycle mirror drifted for uop {id}"
            );
        }
        // MOB occupancy equals live memory uops holding an entry.
        let mem_uops = self
            .threads
            .iter()
            .flat_map(|t| t.rob.iter())
            .filter(|&id| self.slab.payload(id).mob.is_some())
            .count();
        assert_eq!(self.mob.occupancy(), mem_uops, "MOB leak");
        // Outstanding-miss records reference live loads still flagged as
        // outstanding, with coherent timestamps (a leaked record would
        // stall the Stall/Flush+ schemes forever).
        for th in &self.threads {
            for m in &th.l2_misses {
                assert!(m.ready_at >= m.started, "miss record time-travels");
                assert!(self.slab.l2_outstanding(m.uop), "stale L2 miss record");
                assert_eq!(
                    self.slab.thread(m.uop),
                    th.id,
                    "miss record on wrong thread"
                );
            }
        }
    }

    /// Read-only access to the accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Enable per-uop event logging (see [`crate::tracelog`]); records up
    /// to `capacity` uops.
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.event_log = Some(crate::tracelog::EventLog::new(capacity));
    }

    /// Access the event log, if enabled.
    pub fn event_log(&self) -> Option<&crate::tracelog::EventLog> {
        self.event_log.as_ref()
    }

    /// Arm the standard architectural validators (conservation, scheme
    /// caps, copy locality, ROB FIFO, CDPRF budget mirror). Debug builds
    /// arm them at construction; release builds pay nothing until this is
    /// called. Idempotent — an armed suite is kept, not replaced.
    pub fn enable_validation(&mut self) {
        if self.checker.is_none() {
            self.checker = Some(crate::check::CheckSuite::standard());
        }
    }

    /// Drop the checker entirely (also drops any recorded violations).
    pub fn disable_validation(&mut self) {
        self.checker = None;
    }

    /// Whether any validator suite is armed.
    pub fn validation_enabled(&self) -> bool {
        self.checker.is_some()
    }

    /// Arm the differential oracle: an in-order replay of each thread's
    /// program cross-checked against the committed-uop stream. Not armed
    /// by default even in debug builds — harnesses that inject synthetic
    /// uops (e.g. [`Self::debug_inject`]) would falsely diverge. Arms the
    /// standard suite too if nothing is armed yet.
    pub fn enable_oracle(&mut self) {
        self.enable_validation();
        let specs = self.specs.clone();
        let offsets = self.arch_base.clone();
        self.checker
            .as_mut()
            .unwrap()
            .add_oracle_at(&specs, &offsets);
    }

    /// Add a custom validator (arms an empty suite first if none is
    /// armed, so only the added validator runs).
    pub fn add_validator(&mut self, v: Box<dyn crate::check::Validator>) {
        if self.checker.is_none() {
            self.checker = Some(crate::check::CheckSuite::empty());
        }
        self.checker.as_mut().unwrap().add(v);
    }

    /// Read-only view of a live uop by slab id (external-validator
    /// support: the slab itself is crate-private).
    pub fn uop_view(&self, id: u32) -> crate::check::UopView {
        let p = self.slab.payload(id);
        crate::check::UopView {
            thread: self.slab.thread(id),
            seq: self.slab.seq(id),
            pc: p.uop.pc,
            class: p.uop.class,
            is_copy: self.slab.is_copy(id),
            wrong_path: self.slab.wrong_path(id),
            cluster: self.slab.cluster(id),
        }
    }

    /// Collect violations instead of panicking on the first one
    /// (mutation-testing support). Fail-fast is the default.
    pub fn set_validation_fail_fast(&mut self, fail_fast: bool) {
        if let Some(ck) = self.checker.as_mut() {
            ck.set_fail_fast(fail_fast);
        }
    }

    /// Drain the violations recorded so far (empty in fail-fast mode,
    /// which panics instead).
    pub fn take_violations(&mut self) -> Vec<crate::check::Violation> {
        self.checker
            .as_mut()
            .map(|ck| ck.take_violations())
            .unwrap_or_default()
    }

    /// Test/debug: suppress fetch on every thread (injection harnesses).
    #[doc(hidden)]
    pub fn debug_disable_fetch(&mut self) {
        for th in self.threads.iter_mut() {
            th.fetch_resume_at = u64::MAX;
        }
    }

    /// Test/debug: suppress fetch on one thread only (single-thread
    /// equivalence harnesses leave the other thread's context idle).
    #[doc(hidden)]
    pub fn debug_disable_fetch_thread(&mut self, t: usize) {
        self.threads[t].fetch_resume_at = u64::MAX;
    }

    /// Test/debug: inject a uop into a thread's fetch queue.
    #[doc(hidden)]
    pub fn debug_inject(&mut self, t: usize, uop: MicroOp) {
        let ok = self.threads[t].fetchq.push(csmt_frontend::FetchedUop {
            uop,
            wrong_path: false,
            mispredicted: false,
        });
        assert!(ok, "injection queue full");
    }

    /// Test/debug: one-line state dump.
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        let mut out = String::new();
        for th in &self.threads {
            out.push_str(&format!(
                "T{}[fq{} rob{} com{}] ",
                th.id.0,
                th.fetchq.len(),
                th.rob.len(),
                th.committed
            ));
        }
        for id in self.threads.iter().flat_map(|t| t.rob.iter()) {
            out.push_str(&format!(
                "{{{} {} {:?} c{} done@{}}} ",
                id,
                self.slab.class(id),
                self.slab.state(id),
                self.slab.cluster(id).0,
                self.slab.exec_done_at(id)
            ));
        }
        out
    }

    /// Shared MOB occupancy (probe support).
    pub(crate) fn mob_occupancy(&self) -> usize {
        self.mob.occupancy()
    }

    /// Per-thread occupancy views (probe support).
    pub(crate) fn thread_views(&self) -> Vec<crate::probe::ThreadView> {
        self.threads
            .iter()
            .map(|th| {
                let mut regs = [[0usize; MAX_CLUSTERS]; RegClass::COUNT];
                for c in 0..self.cfg.num_clusters {
                    for k in 0..RegClass::COUNT {
                        regs[k][c] = self.regfiles[c][k].used_by(th.id);
                    }
                }
                crate::probe::ThreadView {
                    iq: std::array::from_fn(|c| self.iqs[c].thread_occupancy(th.id)),
                    regs,
                    rob: th.rob.len(),
                    fetchq: th.fetchq.len(),
                    committed: th.committed,
                    pending_l2: th.pending_l2(),
                }
            })
            .collect()
    }
}

/// Convenience builder used by examples, tests and the experiment harness.
pub struct SimBuilder {
    cfg: MachineConfig,
    iq: SchemeKind,
    iq_custom: Option<Box<dyn IqScheme>>,
    rf: RegFileSchemeKind,
    traces: Vec<TraceSpec>,
    target: u64,
    warmup: u64,
    max_cycles: u64,
}

impl SimBuilder {
    pub fn new(cfg: MachineConfig) -> Self {
        SimBuilder {
            cfg,
            iq: SchemeKind::Icount,
            iq_custom: None,
            rf: RegFileSchemeKind::Shared,
            traces: Vec::new(),
            target: 20_000,
            warmup: 5_000,
            max_cycles: u64::MAX,
        }
    }

    pub fn iq_scheme(mut self, s: SchemeKind) -> Self {
        self.iq = s;
        self
    }

    /// Use a custom issue-queue scheme (e.g. the
    /// [`ext::HillClimb`](crate::schemes::ext::HillClimb) extension)
    /// instead of one of the paper's Table-3 schemes.
    pub fn iq_scheme_custom(mut self, s: Box<dyn IqScheme>) -> Self {
        self.iq_custom = Some(s);
        self
    }

    pub fn rf_scheme(mut self, s: RegFileSchemeKind) -> Self {
        self.rf = s;
        self
    }

    /// Use both traces of a suite workload.
    pub fn workload(mut self, w: &Workload) -> Self {
        self.traces = w.traces.to_vec();
        self
    }

    /// Run a single trace alone (fairness baselines).
    pub fn single(mut self, spec: &TraceSpec) -> Self {
        self.traces = vec![spec.clone()];
        self
    }

    /// Append one trace (build custom workloads thread by thread).
    pub fn push_trace(mut self, spec: TraceSpec) -> Self {
        self.traces.push(spec);
        self
    }

    /// Committed uops per thread to simulate (measured region).
    pub fn commit_target(mut self, n: u64) -> Self {
        self.target = n;
        self
    }

    /// Committed uops per thread to warm caches and predictors before the
    /// measured region (default 5000).
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Safety valve on simulated cycles.
    pub fn max_cycles(mut self, n: u64) -> Self {
        self.max_cycles = n;
        self
    }

    pub fn build(self) -> (Simulator, u64, u64) {
        let mut sim = Simulator::new(self.cfg, self.iq, self.rf, &self.traces);
        if let Some(custom) = self.iq_custom {
            sim.iq_scheme = custom;
            // The custom scheme's feedback appetite may differ from the
            // stock one it replaced: re-arm the counter layer to match.
            // Nothing has stepped yet, so a fresh window is equivalent to
            // having built with this scheme from the start.
            sim.perf =
                Simulator::perf_for(&sim.cfg, sim.iq_scheme.as_ref(), sim.rf_scheme.as_ref());
        }
        (sim, self.target, self.max_cycles)
    }

    /// Build and run to completion.
    pub fn run(self) -> SimResult {
        let target = self.target;
        let warmup = self.warmup;
        // Default safety valve: generous but finite (200 cycles per uop).
        let max_cycles = if self.max_cycles == u64::MAX {
            (target + warmup).saturating_mul(200).max(1_000_000)
        } else {
            self.max_cycles
        };
        let (mut sim, target, _) = SimBuilder { max_cycles, ..self }.build();
        sim.run_with_warmup(warmup, target, max_cycles)
    }
}
