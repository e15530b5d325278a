//! Metrics: throughput, the fairness metric of Luo/Gabor (\[17\], \[33\]),
//! copy and issue-queue-stall ratios, and the Figure-5 workload-imbalance
//! histogram.

use csmt_types::{ImbalanceKind, ThreadId};
use serde::{Deserialize, Serialize};

/// Raw counters accumulated over one simulation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed correct-path uops per thread (copies excluded — they are
    /// overhead, not useful work). One entry per thread of the machine
    /// shape (see [`SimStats::sized`]).
    pub committed: Vec<u64>,
    /// Cycle at which each thread reached its commit target (0 = never).
    pub finish_cycle: Vec<u64>,
    /// Copy micro-ops that committed.
    pub copies_retired: u64,
    /// Figure-4 events: a uop could not go to its *preferred* cluster
    /// because that cluster's issue queue was full or the scheme's limit
    /// was exceeded (whether or not it was then redirected).
    pub iq_stall_events: u64,
    /// Events where the redirect also failed and rename truly blocked.
    pub rename_blocked: u64,
    /// Events where a register-file denial blocked dispatch, per thread.
    pub rf_blocked: Vec<u64>,
    /// Dispatched uops per cluster (workload distribution).
    pub dispatched: Vec<u64>,
    /// Issued uops per cluster.
    pub issued: Vec<u64>,
    /// Issued uops per cluster per port (`[cluster][port]`): port
    /// utilization, the denominator of the Figure-5 analysis.
    pub issued_by_port: Vec<[u64; 3]>,
    /// Cycles in which at least one uop issued (Figure-5 denominator).
    pub cycles_with_issue: u64,
    /// `imbalance[kind][avail]`: cycles in which a ready uop of `kind`
    /// failed to issue in some cluster while *another* cluster had
    /// `avail` (0 = none, 1 = ≥1) free compatible ports (Figure 5).
    pub imbalance: [[u64; 2]; ImbalanceKind::COUNT],
    /// Branch statistics.
    pub branches: u64,
    pub mispredicts: u64,
    /// L2 misses observed by loads, per thread.
    pub l2_misses: Vec<u64>,
    /// Flush+ thread flushes performed.
    pub flushes: u64,
    /// Squashed uops (wrong-path + flushes).
    pub squashed: u64,
    /// Trace-cache miss ratio at end of run.
    pub tc_miss_ratio: f64,
    /// L1 / L2 miss ratios at end of run.
    pub l1_miss_ratio: f64,
    pub l2_miss_ratio: f64,
}

impl SimStats {
    /// Zeroed counters with the per-thread and per-cluster vectors sized
    /// for the machine shape. (`Default` produces empty vectors — fine for
    /// deserialization, but a running simulator must use this.)
    pub fn sized(num_threads: usize, num_clusters: usize) -> Self {
        SimStats {
            committed: vec![0; num_threads],
            finish_cycle: vec![0; num_threads],
            rf_blocked: vec![0; num_threads],
            l2_misses: vec![0; num_threads],
            dispatched: vec![0; num_clusters],
            issued: vec![0; num_clusters],
            issued_by_port: vec![[0; 3]; num_clusters],
            ..Default::default()
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Number of active threads (1 for the fairness baselines).
    pub num_threads: usize,
    /// Commit target per thread the run was configured with.
    pub commit_target: u64,
    pub stats: SimStats,
}

impl SimResult {
    /// Per-thread IPC: committed target divided by the cycle at which the
    /// thread got there. Threads that never finished use the total cycle
    /// count (lower bound on their slowdown).
    pub fn ipc(&self, t: ThreadId) -> f64 {
        let i = t.idx();
        let finish = self.stats.finish_cycle.get(i).copied().unwrap_or(0);
        let cycles = if finish > 0 {
            finish
        } else {
            self.stats.cycles
        };
        let committed = self.stats.committed.get(i).copied().unwrap_or(0);
        if cycles == 0 {
            0.0
        } else {
            committed.min(self.commit_target) as f64 / cycles as f64
        }
    }

    /// Throughput: sum of per-thread IPCs (committed useful uops per
    /// cycle).
    pub fn throughput(&self) -> f64 {
        (0..self.num_threads)
            .map(|i| self.ipc(ThreadId(i as u8)))
            .sum()
    }

    /// Copies per retired (useful) instruction — Figure 3's metric.
    pub fn copies_per_retired(&self) -> f64 {
        let retired: u64 = self.stats.committed.iter().sum();
        if retired == 0 {
            0.0
        } else {
            self.stats.copies_retired as f64 / retired as f64
        }
    }

    /// Issue-queue stalls per retired instruction — Figure 4's metric.
    pub fn iq_stalls_per_retired(&self) -> f64 {
        let retired: u64 = self.stats.committed.iter().sum();
        if retired == 0 {
            0.0
        } else {
            self.stats.iq_stall_events as f64 / retired as f64
        }
    }

    /// Figure-5 row: fraction of cycles-with-issue in each
    /// (kind, other-cluster-availability) bucket.
    pub fn imbalance_fractions(&self) -> [[f64; 2]; ImbalanceKind::COUNT] {
        let denom = self.stats.cycles_with_issue.max(1) as f64;
        let mut out = [[0.0; 2]; ImbalanceKind::COUNT];
        for k in 0..ImbalanceKind::COUNT {
            for a in 0..2 {
                out[k][a] = self.stats.imbalance[k][a] as f64 / denom;
            }
        }
        out
    }

    /// Aggregate "1" fraction — ready work that had room in the other
    /// cluster (pure imbalance evidence).
    pub fn imbalance_score(&self) -> f64 {
        self.imbalance_fractions().iter().map(|k| k[1]).sum()
    }

    /// Port utilization: fraction of issue slots used per cluster per
    /// port over the measured cycles.
    pub fn port_utilization(&self) -> Vec<[f64; 3]> {
        let cycles = self.stats.cycles.max(1) as f64;
        self.stats
            .issued_by_port
            .iter()
            .map(|ports| {
                let mut row = [0.0; 3];
                for (o, &n) in row.iter_mut().zip(ports.iter()) {
                    *o = n as f64 / cycles;
                }
                row
            })
            .collect()
    }

    /// Branch misprediction ratio.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.stats.branches == 0 {
            0.0
        } else {
            self.stats.mispredicts as f64 / self.stats.branches as f64
        }
    }
}

/// The fairness metric of \[33\] (Gabor et al.), as used in §4: the minimum
/// over thread pairs of the ratio of relative slowdowns versus
/// single-threaded execution.
///
/// `smt_ipc[i]` is thread *i*'s IPC inside the SMT run; `alone_ipc[i]` its
/// IPC running alone on the same machine. Returns a value in `(0, 1]`
/// where 1 means both threads were slowed down equally.
pub fn fairness(smt_ipc: [f64; 2], alone_ipc: [f64; 2]) -> f64 {
    fairness_n(&smt_ipc, &alone_ipc)
}

/// N-thread generalization of [`fairness`]: the minimum over thread pairs
/// of the ratio of relative slowdowns, which reduces to the smallest
/// slowdown divided by the largest. 1.0 for a single thread (every thread
/// pair agrees trivially), 0.0 on degenerate inputs.
pub fn fairness_n(smt_ipc: &[f64], alone_ipc: &[f64]) -> f64 {
    debug_assert_eq!(smt_ipc.len(), alone_ipc.len());
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for (&smt, &alone) in smt_ipc.iter().zip(alone_ipc.iter()) {
        let sd = smt / alone;
        if sd <= 0.0 || !sd.is_finite() {
            return 0.0;
        }
        lo = lo.min(sd);
        hi = hi.max(sd);
    }
    if hi == 0.0 {
        return 0.0; // empty input
    }
    lo / hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(committed: [u64; 2], finish: [u64; 2], cycles: u64) -> SimResult {
        SimResult {
            num_threads: 2,
            commit_target: 1000,
            stats: SimStats {
                cycles,
                committed: committed.to_vec(),
                finish_cycle: finish.to_vec(),
                ..SimStats::sized(2, 2)
            },
        }
    }

    #[test]
    fn ipc_uses_per_thread_finish_cycle() {
        let r = result([1000, 1000], [500, 2000], 2000);
        assert!((r.ipc(ThreadId(0)) - 2.0).abs() < 1e-9);
        assert!((r.ipc(ThreadId(1)) - 0.5).abs() < 1e-9);
        assert!((r.throughput() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn unfinished_thread_uses_total_cycles() {
        let r = result([1000, 700], [500, 0], 2000);
        assert!((r.ipc(ThreadId(1)) - 0.35).abs() < 1e-9);
    }

    #[test]
    fn commit_beyond_target_does_not_inflate_ipc() {
        let r = result([1500, 1000], [500, 1000], 1000);
        assert!((r.ipc(ThreadId(0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_guard_zero_denominators() {
        let r = result([0, 0], [0, 0], 0);
        assert_eq!(r.ipc(ThreadId(0)), 0.0);
        assert_eq!(r.copies_per_retired(), 0.0);
        assert_eq!(r.iq_stalls_per_retired(), 0.0);
        assert_eq!(r.mispredict_ratio(), 0.0);
    }

    #[test]
    fn copies_and_stall_ratios() {
        let mut r = result([800, 200], [1, 1], 1);
        r.stats.copies_retired = 260;
        r.stats.iq_stall_events = 500;
        assert!((r.copies_per_retired() - 0.26).abs() < 1e-9);
        assert!((r.iq_stalls_per_retired() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fairness_is_one_for_equal_slowdowns() {
        assert!((fairness([1.0, 2.0], [2.0, 4.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_penalizes_skew() {
        // Thread 0 slowed to 90%, thread 1 to 30% → fairness = 1/3.
        let f = fairness([0.9, 0.3], [1.0, 1.0]);
        assert!((f - 1.0 / 3.0).abs() < 1e-9);
        // Symmetric.
        let g = fairness([0.3, 0.9], [1.0, 1.0]);
        assert!((f - g).abs() < 1e-12);
    }

    #[test]
    fn fairness_bounds() {
        let mut rng = csmt_types::Prng::new(77);
        for _ in 0..1000 {
            let smt = [rng.f64().max(0.01), rng.f64().max(0.01)];
            let alone = [rng.f64().max(0.01), rng.f64().max(0.01)];
            let f = fairness(smt, alone);
            assert!(f > 0.0 && f <= 1.0 + 1e-12, "f={f}");
        }
    }

    #[test]
    fn fairness_n_matches_pairwise_minimum() {
        // Four threads slowed to 0.9/0.6/0.3/0.6 → min pair ratio 0.3/0.9.
        let f = fairness_n(&[0.9, 0.6, 0.3, 0.6], &[1.0; 4]);
        assert!((f - 1.0 / 3.0).abs() < 1e-9);
        // One thread: trivially fair.
        assert!((fairness_n(&[0.4], &[0.8]) - 1.0).abs() < 1e-12);
        // Degenerate member poisons the whole metric.
        assert_eq!(fairness_n(&[0.5, 0.0, 0.5], &[1.0; 3]), 0.0);
    }

    #[test]
    fn fairness_degenerate_inputs() {
        assert_eq!(fairness([0.0, 1.0], [1.0, 1.0]), 0.0);
        assert_eq!(fairness([1.0, 1.0], [0.0, 1.0]), 0.0);
    }

    #[test]
    fn imbalance_fractions_normalize_by_issue_cycles() {
        let mut r = result([1, 1], [1, 1], 100);
        r.stats.cycles_with_issue = 50;
        r.stats.imbalance[0][1] = 25; // Int with room elsewhere
        r.stats.imbalance[2][0] = 10; // Mem with no room anywhere
        let f = r.imbalance_fractions();
        assert!((f[0][1] - 0.5).abs() < 1e-9);
        assert!((f[2][0] - 0.2).abs() < 1e-9);
        assert!((r.imbalance_score() - 0.5).abs() < 1e-9);
    }
}
