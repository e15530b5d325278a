//! Extensions beyond the paper: the adaptive schemes its conclusion names
//! as future work, adapted to the clustered machine.
//!
//! * [`HillClimb`] — learning-based partitioning in the spirit of Choi &
//!   Yeung \[32\]: per-thread, per-cluster issue-queue caps are perturbed
//!   every feedback epoch and the perturbation is kept only if measured
//!   throughput did not drop.
//! * [`Dcra`] — DCRA-style fast/slow thread classification (Cazorla et
//!   al. \[30\]).
//!
//! These are not part of the paper's evaluated grid (`SchemeKind`); build
//! them directly and pass them to
//! [`SimBuilder::iq_scheme_custom`](crate::SimBuilder::iq_scheme_custom).

use super::{EpochStats, IqScheme, SchedView, SteeredCaps, MAX_THREADS};
use csmt_types::{ClusterId, MachineConfig, SchemeKind, ThreadId, MAX_CLUSTERS};

/// Entries a hill-climbing move always leaves the shrinking thread in its
/// cluster: a move that would take a cap below this is skipped.
pub const HILL_CLIMB_FLOOR: usize = 4;

/// Hill-climbing issue-queue partitioning.
///
/// State: one cap per live (thread, cluster), initialized to an even
/// `iq_per_cluster / num_threads` split. The scheme runs on the
/// perf-counter feedback layer: at every epoch boundary it scores the
/// closed window by the uops committed across live threads (higher is
/// better). If the last perturbation lowered the score it is reverted;
/// then the next candidate move is tried. Moves cycle over the live
/// (thread, cluster) pairs and shift `iq_per_cluster / 8` entries from the
/// next thread to this one in the same cluster, so each cluster's cap sum
/// stays at its initial value. A one-thread machine never moves.
pub struct HillClimb {
    caps: [[usize; MAX_CLUSTERS]; MAX_THREADS],
    /// Committed uops of the last epoch window.
    last_score: u64,
    /// The (thread, cluster) the last perturbation grew.
    last_move: Option<(usize, usize)>,
    step: usize,
    /// Next candidate move, in `0..num_threads * num_clusters`.
    rr: usize,
    /// Largest cap any thread can reach: no move takes a cap below
    /// `min(share, HILL_CLIMB_FLOOR)`, so one thread holds at most the
    /// cluster's sum minus that much for every other live thread.
    max_cap: usize,
    num_threads: usize,
    num_clusters: usize,
}

impl HillClimb {
    pub fn new(cfg: &MachineConfig) -> Self {
        let n = cfg.num_threads;
        let share = cfg.iq_per_cluster / n;
        HillClimb {
            caps: [[share; MAX_CLUSTERS]; MAX_THREADS],
            last_score: 0,
            last_move: None,
            step: cfg.iq_per_cluster / 8,
            rr: 0,
            max_cap: n * share - (n - 1) * share.min(HILL_CLIMB_FLOOR),
            num_threads: n,
            num_clusters: cfg.num_clusters,
        }
    }

    fn perturb(&mut self) {
        self.last_move = None;
        let n = self.num_threads;
        if n == 1 {
            return;
        }
        let (t, c) = (self.rr % n, self.rr / n);
        self.rr = (self.rr + 1) % (n * self.num_clusters);
        let other = (t + 1) % n;
        if self.caps[other][c] >= self.step + HILL_CLIMB_FLOOR {
            self.caps[t][c] += self.step;
            self.caps[other][c] -= self.step;
            self.last_move = Some((t, c));
        }
    }

    fn revert(&mut self) {
        if let Some((t, c)) = self.last_move.take() {
            let other = (t + 1) % self.num_threads;
            self.caps[t][c] -= self.step;
            self.caps[other][c] += self.step;
        }
    }

    /// Current cap for a thread and cluster (diagnostics / tests).
    pub fn cap(&self, t: ThreadId, c: ClusterId) -> usize {
        self.caps[t.idx()][c.idx()]
    }
}

impl IqScheme for HillClimb {
    fn kind(&self) -> SchemeKind {
        // Reported as CSSP's family for display purposes: it is a
        // cluster-sensitive partitioner.
        SchemeKind::Cssp
    }

    fn headroom(&self, t: ThreadId, c: ClusterId, view: &SchedView) -> usize {
        self.caps[t.idx()][c.idx()].saturating_sub(view.iq_occ[t.idx()][c.idx()])
    }

    fn steered_caps(&self) -> SteeredCaps {
        SteeredCaps {
            per_cluster: Some(self.max_cap),
            ..Default::default()
        }
    }

    fn wants_feedback(&self) -> bool {
        true
    }

    fn observe_epoch(&mut self, ep: &EpochStats) {
        let score: u64 = ep.committed[..self.num_threads].iter().sum();
        if score < self.last_score {
            self.revert();
        }
        self.last_score = score;
        self.perturb();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(occ: [[usize; 2]; 2]) -> SchedView {
        let mut v = SchedView {
            iq_capacity: 32,
            earliest_l2_start: [u64::MAX; MAX_THREADS],
            ..Default::default()
        };
        for t in 0..2 {
            v.iq_occ[t][..2].copy_from_slice(&occ[t]);
            v.rename_to_issue[t] = occ[t][0] + occ[t][1];
            v.fetchq_len[t] = 1;
            v.active[t] = true;
        }
        v
    }

    /// A closed 2×2 feedback window in which each thread committed
    /// `committed` uops.
    fn epoch(committed: u64) -> EpochStats {
        let mut ep = EpochStats::zeroed(2, 2);
        ep.cycles = 1024;
        ep.committed[..2].fill(committed);
        ep
    }

    #[test]
    fn hill_climb_starts_at_even_split() {
        let h = HillClimb::new(&MachineConfig::baseline());
        for t in 0..2 {
            for c in 0..2 {
                assert_eq!(h.cap(ThreadId(t), ClusterId(c)), 16);
            }
        }
        assert!(h.wants_feedback());
    }

    #[test]
    fn hill_climb_caps_enforced_via_headroom() {
        let h = HillClimb::new(&MachineConfig::baseline());
        let v = view([[16, 0], [0, 0]]);
        assert_eq!(h.headroom(ThreadId(0), ClusterId(0), &v), 0);
        assert_eq!(h.headroom(ThreadId(0), ClusterId(1), &v), 16);
        assert!(!h.allows(ThreadId(0), ClusterId(0), &v));
    }

    #[test]
    fn hill_climb_perturbs_after_epoch() {
        let mut h = HillClimb::new(&MachineConfig::baseline());
        let before = h.caps;
        h.observe_epoch(&epoch(500));
        assert_ne!(h.caps, before, "an epoch boundary must perturb the caps");
        // Rising, falling and flat windows: per-cluster sums never exceed
        // capacity.
        for committed in [600, 400, 400, 700, 100, 100, 900] {
            h.observe_epoch(&epoch(committed));
            for c in 0..2 {
                assert!(h.caps[0][c] + h.caps[1][c] <= 32);
            }
        }
    }

    #[test]
    fn hill_climb_reverts_a_move_that_lowered_throughput() {
        let mut h = HillClimb::new(&MachineConfig::baseline());
        h.observe_epoch(&epoch(500));
        assert_eq!((h.caps[0][0], h.caps[1][0]), (20, 12));
        // Worse window: the (t0, c0) move is undone before thread 1 tries
        // its own move in cluster 0.
        h.observe_epoch(&epoch(400));
        assert_eq!((h.caps[0][0], h.caps[1][0]), (12, 20));
    }

    #[test]
    fn hill_climb_never_moves_on_one_thread() {
        let mut cfg = MachineConfig::baseline();
        cfg.num_threads = 1;
        let mut h = HillClimb::new(&cfg);
        for committed in [500, 100, 900] {
            let mut ep = EpochStats::zeroed(1, 2);
            ep.committed[0] = committed;
            h.observe_epoch(&ep);
            for c in 0..2 {
                assert_eq!(h.cap(ThreadId(0), ClusterId(c)), 32);
            }
        }
    }
}

/// DCRA-inspired dynamic resource allocation (Cazorla et al. \[30\],
/// adapted to the clustered machine).
///
/// Threads are classified each cycle as *fast* (no outstanding L2 miss) or
/// *slow* (at least one). Slow threads are capped at a quarter of each
/// cluster's issue queue — enough to keep memory-level parallelism in
/// flight, not enough to bury the fast thread's entries under
/// miss-dependent work. Fast threads may use up to three quarters, so the
/// machine never degenerates into a static 50/50 split when both threads
/// are healthy.
pub struct Dcra {
    capacity: usize,
}

impl Dcra {
    pub fn new(cfg: &MachineConfig) -> Self {
        Dcra {
            capacity: cfg.iq_per_cluster,
        }
    }

    fn is_slow(t: ThreadId, view: &SchedView) -> bool {
        view.pending_l2[t.idx()] > 0
    }
}

impl IqScheme for Dcra {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Cssp // cluster-sensitive family for reporting
    }

    fn headroom(&self, t: ThreadId, c: ClusterId, view: &SchedView) -> usize {
        let other_active = (0..view.num_threads).any(|o| o != t.idx() && view.active[o]);
        let cap = if !other_active {
            self.capacity
        } else if Self::is_slow(t, view) {
            self.capacity / 4
        } else {
            self.capacity * 3 / 4
        };
        cap.saturating_sub(view.iq_occ[t.idx()][c.idx()])
    }
}

#[cfg(test)]
mod dcra_tests {
    use super::*;

    fn view(occ: [[usize; 2]; 2], l2: [u32; 2]) -> SchedView {
        let mut v = SchedView {
            iq_capacity: 32,
            earliest_l2_start: [u64::MAX; MAX_THREADS],
            ..Default::default()
        };
        for t in 0..2 {
            v.iq_occ[t][..2].copy_from_slice(&occ[t]);
            v.rename_to_issue[t] = occ[t][0] + occ[t][1];
            v.pending_l2[t] = l2[t];
            v.fetchq_len[t] = 1;
            v.active[t] = true;
        }
        v
    }

    #[test]
    fn slow_thread_capped_at_quarter() {
        let d = Dcra::new(&MachineConfig::baseline()); // 32 → slow cap 8
        let v = view([[8, 0], [0, 0]], [1, 0]);
        assert!(!d.allows(ThreadId(0), ClusterId(0), &v));
        assert_eq!(d.headroom(ThreadId(0), ClusterId(1), &v), 8);
    }

    #[test]
    fn fast_thread_gets_three_quarters() {
        let d = Dcra::new(&MachineConfig::baseline()); // fast cap 24
        let v = view([[23, 0], [0, 0]], [0, 0]);
        assert!(d.allows(ThreadId(0), ClusterId(0), &v));
        let v = view([[24, 0], [0, 0]], [0, 0]);
        assert!(!d.allows(ThreadId(0), ClusterId(0), &v));
    }

    #[test]
    fn lone_thread_uncapped() {
        let d = Dcra::new(&MachineConfig::baseline());
        let mut v = view([[30, 0], [0, 0]], [1, 0]);
        v.active[1] = false;
        assert!(d.allows(ThreadId(0), ClusterId(0), &v));
    }

    #[test]
    fn classification_follows_miss_state() {
        let d = Dcra::new(&MachineConfig::baseline());
        let v = view([[10, 0], [10, 0]], [1, 0]);
        // Thread 0 slow (cap 8 < 10 used → no headroom), thread 1 fast.
        assert_eq!(d.headroom(ThreadId(0), ClusterId(0), &v), 0);
        assert_eq!(d.headroom(ThreadId(1), ClusterId(0), &v), 14);
    }
}
