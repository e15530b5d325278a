//! Physical register file with free-list allocation.
//!
//! One instance per (cluster, register class). Tracks per-thread usage —
//! the quantity the CSSPRF / CISPRF / CDPRF schemes reason about — and
//! supports the "unbounded" mode of the Figure-2 issue-queue study.

use csmt_types::{PhysReg, ThreadId, MAX_THREADS};

/// A physical register file.
///
/// Allocation pops a LIFO free list — the pop order is behavior-visible
/// (it decides which physical ids uops get, and the ids feed the
/// scoreboard and bit-exact snapshots), so the list is the source of
/// truth and must stay LIFO. A parallel occupancy bitmap (`u64` words,
/// bit = register allocated) mirrors it for O(words) occupancy scans
/// and popcount-based conservation checks — the dense occupancy view
/// the CDPRF-style schemes and the invariant checker consume.
#[derive(Debug, Clone)]
pub struct RegFile {
    free: Vec<PhysReg>,
    /// Bit `r` set ⇔ register `r` is allocated. Sized to capacity for
    /// bounded files; grows with `next_fresh` for unbounded ones.
    occupied: Vec<u64>,
    capacity: usize,
    used: [usize; MAX_THREADS],
    unbounded: bool,
    /// Next fresh register id when growing an unbounded file.
    next_fresh: u16,
}

impl RegFile {
    pub fn new(capacity: usize) -> Self {
        RegFile {
            free: (0..capacity as u16).rev().map(PhysReg).collect(),
            occupied: vec![0; capacity.div_ceil(64)],
            capacity,
            used: [0; MAX_THREADS],
            unbounded: false,
            next_fresh: capacity as u16,
        }
    }

    #[inline]
    fn mark(&mut self, reg: PhysReg, allocated: bool) {
        let w = reg.idx() >> 6;
        if self.occupied.len() <= w {
            self.occupied.resize(w + 1, 0);
        }
        let bit = 1u64 << (reg.idx() & 63);
        if allocated {
            debug_assert!(self.occupied[w] & bit == 0, "double-alloc of {reg:?}");
            self.occupied[w] |= bit;
        } else {
            debug_assert!(self.occupied[w] & bit != 0, "double-free of {reg:?}");
            self.occupied[w] &= !bit;
        }
    }

    /// Allocated registers by popcount over the occupancy bitmap.
    pub fn occupancy(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// An effectively infinite register file (Figure-2 study).
    pub fn unbounded() -> Self {
        let mut rf = RegFile::new(256);
        rf.unbounded = true;
        rf
    }

    pub fn is_unbounded(&self) -> bool {
        self.unbounded
    }

    /// Nominal capacity (meaningless when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers currently allocated in total.
    pub fn used_total(&self) -> usize {
        self.used.iter().sum()
    }

    /// Registers currently allocated by `thread`.
    pub fn used_by(&self, thread: ThreadId) -> usize {
        self.used[thread.idx()]
    }

    /// Free registers remaining (`usize::MAX` when unbounded).
    pub fn free_count(&self) -> usize {
        if self.unbounded {
            usize::MAX
        } else {
            self.free.len()
        }
    }

    /// Actual free-list length, even for unbounded files (introspection
    /// for the invariant checker; prefer [`Self::free_count`] for
    /// allocation decisions).
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Free-list conservation: for a bounded file, every register is
    /// either free or accounted to a thread, and the occupancy bitmap's
    /// popcount agrees with the per-thread counters. Unbounded files only
    /// require the bitmap agreement (no thread count underflowed — that
    /// is enforced at release). The checker crates call this instead of
    /// reimplementing the arithmetic.
    pub fn conserves_registers(&self) -> bool {
        if self.occupancy() != self.used_total() {
            return false;
        }
        self.unbounded || self.free.len() + self.used_total() == self.capacity
    }

    /// Whether an allocation would succeed against the *hard* capacity
    /// (schemes impose their own softer limits on top).
    pub fn has_free(&self) -> bool {
        self.unbounded || !self.free.is_empty()
    }

    /// Allocate a register for `thread`. `None` only when the hard capacity
    /// is exhausted.
    pub fn alloc(&mut self, thread: ThreadId) -> Option<PhysReg> {
        if self.free.is_empty() {
            if self.unbounded {
                // Grow: mint a fresh register id.
                let r = PhysReg(self.next_fresh);
                self.next_fresh = self
                    .next_fresh
                    .checked_add(1)
                    .expect("unbounded RF overflow");
                self.used[thread.idx()] += 1;
                self.mark(r, true);
                return Some(r);
            }
            return None;
        }
        let r = self.free.pop().unwrap();
        self.used[thread.idx()] += 1;
        self.mark(r, true);
        Some(r)
    }

    /// Return a register to the free list.
    pub fn release(&mut self, thread: ThreadId, reg: PhysReg) {
        debug_assert!(self.used[thread.idx()] > 0, "register over-release");
        self.used[thread.idx()] -= 1;
        self.mark(reg, false);
        self.free.push(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn alloc_to_capacity_then_fails() {
        let mut rf = RegFile::new(4);
        let regs: Vec<_> = (0..4).map(|_| rf.alloc(T0).unwrap()).collect();
        assert!(rf.alloc(T1).is_none());
        assert_eq!(rf.used_by(T0), 4);
        assert_eq!(rf.free_count(), 0);
        // All allocated registers are distinct.
        let mut ids: Vec<u16> = regs.iter().map(|r| r.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn release_recycles() {
        let mut rf = RegFile::new(2);
        let a = rf.alloc(T0).unwrap();
        let _b = rf.alloc(T1).unwrap();
        assert!(!rf.has_free());
        rf.release(T0, a);
        assert_eq!(rf.used_by(T0), 0);
        assert_eq!(rf.used_by(T1), 1);
        assert!(rf.alloc(T0).is_some());
    }

    #[test]
    fn unbounded_never_fails() {
        let mut rf = RegFile::unbounded();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let r = rf.alloc(if i % 2 == 0 { T0 } else { T1 }).unwrap();
            assert!(seen.insert(r.0), "duplicate register {}", r.0);
        }
        assert_eq!(rf.used_total(), 1000);
        assert!(rf.has_free());
    }

    #[test]
    fn per_thread_accounting() {
        let mut rf = RegFile::new(8);
        let a = rf.alloc(T0).unwrap();
        rf.alloc(T0).unwrap();
        rf.alloc(T1).unwrap();
        assert_eq!(rf.used_by(T0), 2);
        assert_eq!(rf.used_by(T1), 1);
        assert_eq!(rf.used_total(), 3);
        rf.release(T0, a);
        assert_eq!(rf.used_by(T0), 1);
        assert_eq!(rf.used_total(), 2);
    }
}
