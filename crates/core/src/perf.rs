//! Performance-counter sampling for the feedback-driven schemes.
//!
//! The related work (SYNPA-style allocation) drives resource assignment
//! from runtime telemetry instead of static shares. This module is the
//! telemetry: a small set of per-thread counters accumulated every cycle
//! into a window, delivered to the schemes as an [`EpochStats`] once per
//! `adaptive_epoch` cycles, then reset.
//!
//! Determinism contract: every counter is a pure function of simulated
//! events (dispatch vetoes, issue-queue occupancy, commit counts). No
//! wall-clock, no randomness, no host state — so a run with feedback
//! enabled is byte-identical across serial, `--jobs`, `--batch`, the
//! csmt-serve daemon and sampled simulation, exactly like the rest of the
//! pipeline.
//!
//! Checkpoint contract: counters are *derived* state. They are not part of
//! [`crate::Checkpoint`]; a simulator restored from a checkpoint restarts
//! its window from zero, and the detailed-warmup phase that every sampling
//! schedule already runs re-trains it deterministically (see DESIGN.md).
//! Restore-vs-restore therefore stays bit-exact even though
//! restore-vs-contiguous may adapt on a shifted epoch grid.

use csmt_types::{RegClass, MAX_CLUSTERS, MAX_THREADS};

/// One closed feedback window, as handed to
/// [`crate::schemes::IqScheme::observe_epoch`] /
/// [`crate::schemes::RfScheme::observe_epoch`].
///
/// All arrays are sized to the storage envelope; only the first
/// `num_threads` × `num_clusters` lanes are live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochStats {
    /// Cycles in this window (equals the configured epoch length).
    pub cycles: u64,
    /// Uops committed per thread during the window.
    pub committed: [u64; MAX_THREADS],
    /// Dispatch stalls per thread × *preferred* cluster: cycles where the
    /// thread's selected uop could not enter the issue queue the steering
    /// algorithm wanted (either vetoed outright or redirected elsewhere).
    pub iq_stalls: [[u64; MAX_CLUSTERS]; MAX_THREADS],
    /// Register-file starvation events per thread × register class: a
    /// dispatch candidate vetoed because the RF scheme denied an
    /// allocation of that class.
    pub rf_stalls: [[u64; RegClass::COUNT]; MAX_THREADS],
    /// Dispatch stalls per thread caused by window resources (ROB/MOB)
    /// rather than the IQ or RF schemes.
    pub window_stalls: [u64; MAX_THREADS],
    /// Issue-queue occupancy per thread × cluster, accumulated per cycle
    /// (divide by `cycles` for the mean).
    pub issue_occ: [[u64; MAX_CLUSTERS]; MAX_THREADS],
    /// Live shape, copied from the machine configuration.
    pub num_threads: usize,
    pub num_clusters: usize,
}

impl EpochStats {
    pub(crate) fn zeroed(num_threads: usize, num_clusters: usize) -> Self {
        EpochStats {
            cycles: 0,
            committed: [0; MAX_THREADS],
            iq_stalls: [[0; MAX_CLUSTERS]; MAX_THREADS],
            rf_stalls: [[0; RegClass::COUNT]; MAX_THREADS],
            window_stalls: [0; MAX_THREADS],
            issue_occ: [[0; MAX_CLUSTERS]; MAX_THREADS],
            num_threads,
            num_clusters,
        }
    }
}

/// The accumulating counter window. Lives on the simulator as
/// `Option<PerfCounters>` — `None` unless an active scheme asked for
/// feedback, so non-adaptive runs pay a single branch per cycle.
#[derive(Debug, Clone)]
pub struct PerfCounters {
    /// Epoch length in cycles (> 0; `adaptive_epoch == 0` means the
    /// counters are never constructed at all).
    epoch_len: u64,
    /// Per-thread committed-uop totals at the start of the window, so the
    /// window's delta can be computed from the monotonic per-thread
    /// counters without hooking the commit stage.
    committed_base: [u64; MAX_THREADS],
    win: EpochStats,
}

impl PerfCounters {
    pub fn new(epoch_len: u64, num_threads: usize, num_clusters: usize) -> Self {
        assert!(epoch_len > 0, "epoch 0 means feedback disabled");
        PerfCounters {
            epoch_len,
            committed_base: [0; MAX_THREADS],
            win: EpochStats::zeroed(num_threads, num_clusters),
        }
    }

    /// Record a dispatch stall of `thread` against its preferred cluster.
    #[inline]
    pub fn note_iq_stall(&mut self, thread: usize, preferred: usize) {
        self.win.iq_stalls[thread][preferred] += 1;
    }

    /// Record a register-file starvation event of `thread` for `class`.
    #[inline]
    pub fn note_rf_stall(&mut self, thread: usize, class: RegClass) {
        self.win.rf_stalls[thread][class.idx()] += 1;
    }

    /// Record a window-resource (ROB/MOB) dispatch stall of `thread`.
    #[inline]
    pub fn note_window_stall(&mut self, thread: usize) {
        self.win.window_stalls[thread] += 1;
    }

    /// Accumulate one cycle of issue-queue occupancy for `thread`.
    #[inline]
    pub fn note_occupancy(&mut self, thread: usize, cluster: usize, occ: usize) {
        self.win.issue_occ[thread][cluster] += occ as u64;
    }

    /// Close out one cycle. `committed[t]` is thread *t*'s monotonic
    /// committed-uop total. Returns the finished window at each epoch
    /// boundary (and starts the next one), `None` otherwise.
    pub fn end_cycle(&mut self, committed: &[u64]) -> Option<EpochStats> {
        self.win.cycles += 1;
        if self.win.cycles < self.epoch_len {
            return None;
        }
        for (t, &total) in committed.iter().enumerate().take(MAX_THREADS) {
            self.win.committed[t] = total - self.committed_base[t];
            self.committed_base[t] = total;
        }
        let (n, m) = (self.win.num_threads, self.win.num_clusters);
        Some(std::mem::replace(&mut self.win, EpochStats::zeroed(n, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_fires_every_epoch_len_cycles_with_window_deltas() {
        let mut p = PerfCounters::new(4, 2, 2);
        let mut committed = [0u64; MAX_THREADS];
        for cycle in 1..=8u64 {
            committed[0] += 3;
            committed[1] += 1;
            p.note_iq_stall(0, 1);
            let ep = p.end_cycle(&committed);
            if cycle % 4 == 0 {
                let ep = ep.expect("boundary cycle must close the window");
                assert_eq!(ep.cycles, 4);
                // Deltas, not totals: each window saw 4 cycles of +3 / +1.
                assert_eq!(ep.committed[0], 12);
                assert_eq!(ep.committed[1], 4);
                assert_eq!(ep.iq_stalls[0][1], 4);
                assert_eq!(ep.iq_stalls[1][1], 0);
                assert_eq!(ep.num_threads, 2);
                assert_eq!(ep.num_clusters, 2);
            } else {
                assert!(ep.is_none());
            }
        }
    }

    #[test]
    fn counters_reset_between_windows() {
        let mut p = PerfCounters::new(2, 2, 2);
        p.note_rf_stall(1, RegClass::FpSimd);
        p.note_window_stall(0);
        p.note_occupancy(0, 0, 7);
        let committed = [5u64, 9, 0, 0, 0, 0, 0, 0];
        assert!(p.end_cycle(&committed).is_none());
        let ep = p.end_cycle(&committed).unwrap();
        assert_eq!(ep.rf_stalls[1][RegClass::FpSimd.idx()], 1);
        assert_eq!(ep.window_stalls[0], 1);
        assert_eq!(ep.issue_occ[0][0], 7);
        // Second window starts from zero, with the committed base advanced.
        assert!(p.end_cycle(&committed).is_none());
        let ep2 = p.end_cycle(&committed).unwrap();
        assert_eq!(ep2.rf_stalls[1][RegClass::FpSimd.idx()], 0);
        assert_eq!(ep2.committed[0], 0);
        assert_eq!(ep2.committed[1], 0);
    }
}
