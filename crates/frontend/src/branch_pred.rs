//! Branch prediction: a gshare direction predictor (32K 2-bit counters,
//! Table 1) and a 4096-entry indirect-target predictor.
//!
//! Per §3, all front-end structures are shared between threads *except* the
//! global history register, which is private per thread — both predictors
//! here take the thread's history as input and keep one history register
//! per thread.

use csmt_types::{ThreadId, MAX_THREADS};

/// gshare conditional-branch direction predictor.
#[derive(Debug, Clone)]
pub struct Gshare {
    /// 2-bit saturating counters (0..=3; taken when ≥ 2).
    table: Vec<u8>,
    /// Per-thread global history register.
    history: [u64; MAX_THREADS],
    index_mask: u64,
    history_bits: u32,
    predictions: u64,
    mispredictions: u64,
}

impl Gshare {
    /// `entries` must be a power of two (32K in Table 1).
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        Gshare {
            table: vec![1; entries], // weakly not-taken
            history: [0; MAX_THREADS],
            index_mask: entries as u64 - 1,
            history_bits: entries.trailing_zeros(),
            predictions: 0,
            mispredictions: 0,
        }
    }

    #[inline]
    fn index(&self, thread: ThreadId, pc: u64) -> usize {
        let h = self.history[thread.idx()] & ((1 << self.history_bits) - 1);
        (((pc >> 2) ^ h) & self.index_mask) as usize
    }

    /// Predict the direction of the branch at `pc` for `thread`.
    pub fn predict(&self, thread: ThreadId, pc: u64) -> bool {
        self.table[self.index(thread, pc)] >= 2
    }

    /// Update with the architected outcome; also records accuracy and
    /// shifts the outcome into the thread's history register. Returns
    /// whether the pre-update prediction was correct.
    pub fn update(&mut self, thread: ThreadId, pc: u64, taken: bool) -> bool {
        let idx = self.index(thread, pc);
        let predicted = self.table[idx] >= 2;
        let correct = predicted == taken;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        let h = &mut self.history[thread.idx()];
        *h = (*h << 1) | taken as u64;
        correct
    }

    /// Current history register of a thread (exposed for the indirect
    /// predictor, which hashes it into its index).
    pub fn history(&self, thread: ThreadId) -> u64 {
        self.history[thread.idx()]
    }

    /// Misprediction ratio so far.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

/// Tagless indirect-branch target predictor (4096 entries, Table 1).
#[derive(Debug, Clone)]
pub struct IndirectPredictor {
    targets: Vec<u32>,
    index_mask: u64,
    predictions: u64,
    mispredictions: u64,
}

/// Sentinel meaning "no target recorded yet" (block ids are program block
/// indices, far below this).
const NO_TARGET: u32 = u32::MAX;

impl IndirectPredictor {
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        IndirectPredictor {
            targets: vec![NO_TARGET; entries],
            index_mask: entries as u64 - 1,
            predictions: 0,
            mispredictions: 0,
        }
    }

    #[inline]
    fn index(&self, pc: u64, history: u64) -> usize {
        (((pc >> 2) ^ (history << 3)) & self.index_mask) as usize
    }

    /// Predict the target of the indirect branch at `pc`.
    pub fn predict(&self, pc: u64, history: u64) -> Option<u32> {
        let t = self.targets[self.index(pc, history)];
        (t != NO_TARGET).then_some(t)
    }

    /// Update with the architected target; returns whether the pre-update
    /// prediction was correct.
    pub fn update(&mut self, pc: u64, history: u64, target: u32) -> bool {
        let idx = self.index(pc, history);
        let correct = self.targets[idx] == target;
        self.predictions += 1;
        if !correct {
            self.mispredictions += 1;
        }
        self.targets[idx] = target;
        correct
    }

    pub fn mispredict_ratio(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn learns_always_taken_branch() {
        let mut g = Gshare::new(1024);
        let pc = 0x400;
        // Warm up past the point where the all-taken history saturates to
        // all-ones (10 history bits for 1024 entries), so the index predict
        // uses has been trained.
        for _ in 0..16 {
            g.update(T0, pc, true);
        }
        assert!(g.predict(T0, pc));
    }

    #[test]
    fn learns_loop_pattern_mostly() {
        // A loop with trip count 8: 7 taken + 1 not-taken. gshare with
        // enough history learns the exit too; accuracy must be high.
        let mut g = Gshare::new(32 * 1024);
        let pc = 0x1000;
        let mut correct = 0;
        let mut total = 0;
        for _iter in 0..200 {
            for i in 0..8 {
                let taken = i != 7;
                total += 1;
                if g.update(T0, pc, taken) {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "accuracy={acc}");
    }

    #[test]
    fn random_branch_mispredicts_often() {
        let mut g = Gshare::new(1024);
        let mut rng = csmt_types::Prng::new(3);
        for _ in 0..10_000 {
            g.update(T0, 0x2000, rng.chance(0.5));
        }
        assert!(g.mispredict_ratio() > 0.3, "{}", g.mispredict_ratio());
    }

    #[test]
    fn histories_are_per_thread() {
        let mut g = Gshare::new(1024);
        for _ in 0..10 {
            g.update(T0, 0x100, true);
            g.update(T1, 0x200, false);
        }
        assert_ne!(g.history(T0) & 0x3FF, g.history(T1) & 0x3FF);
    }

    #[test]
    fn biased_branch_reaches_high_accuracy() {
        let mut g = Gshare::new(32 * 1024);
        let mut rng = csmt_types::Prng::new(5);
        let mut correct = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if g.update(T0, 0x3000, rng.chance(0.95)) {
                correct += 1;
            }
        }
        let acc = correct as f64 / n as f64;
        assert!(acc > 0.85, "accuracy={acc}");
    }

    #[test]
    fn indirect_learns_stable_target() {
        let mut p = IndirectPredictor::new(4096);
        assert_eq!(p.predict(0x500, 0), None);
        p.update(0x500, 0, 42);
        assert_eq!(p.predict(0x500, 0), Some(42));
        assert!(p.update(0x500, 0, 42));
        assert!(!p.update(0x500, 0, 43), "target change must mispredict");
        assert_eq!(p.predict(0x500, 0), Some(43));
    }

    #[test]
    fn indirect_polymorphic_target_mispredicts() {
        let mut p = IndirectPredictor::new(4096);
        let mut rng = csmt_types::Prng::new(9);
        for _ in 0..5000 {
            // Same history → same entry; target flips randomly among 8.
            p.update(0x700, 0, rng.below(8) as u32);
        }
        assert!(p.mispredict_ratio() > 0.5, "{}", p.mispredict_ratio());
    }

    #[test]
    fn history_disambiguates_indirect_targets() {
        let mut p = IndirectPredictor::new(4096);
        // Same pc, two histories, two stable targets: both learnable.
        for _ in 0..3 {
            p.update(0x900, 0b01, 7);
            p.update(0x900, 0b10, 9);
        }
        assert_eq!(p.predict(0x900, 0b01), Some(7));
        assert_eq!(p.predict(0x900, 0b10), Some(9));
    }
}
