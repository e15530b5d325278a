//! Victim cache (Jouppi, ISCA 1990).
//!
//! A small fully-associative buffer holding the last lines evicted from
//! the L1: conflict misses in the 2-way L1 of Table 1 often hit here and
//! pay a 1-cycle bounce instead of the L2 trip. Extension beyond the
//! paper's memory system (off by default).

use std::collections::VecDeque;

/// Fully-associative victim buffer with FIFO replacement.
#[derive(Debug, Clone)]
pub struct VictimCache {
    lines: VecDeque<u64>,
    capacity: usize,
    pub hits: u64,
    pub probes: u64,
}

impl VictimCache {
    /// `capacity` in lines (0 disables the cache entirely).
    pub fn new(capacity: usize) -> Self {
        VictimCache {
            lines: VecDeque::with_capacity(capacity),
            capacity,
            hits: 0,
            probes: 0,
        }
    }

    /// Probe for `line`; on hit the line is removed (it moves back into
    /// the L1, swapping roles with the L1's victim).
    pub fn take(&mut self, line: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.probes += 1;
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Insert an evicted L1 line.
    pub fn insert(&mut self, line: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
        }
        if self.lines.len() == self.capacity {
            self.lines.pop_front();
        }
        self.lines.push_back(line);
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_never_hits() {
        let mut v = VictimCache::new(0);
        v.insert(1);
        assert!(!v.take(1));
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn hit_removes_the_line() {
        let mut v = VictimCache::new(4);
        v.insert(10);
        assert!(v.take(10));
        assert!(!v.take(10), "line must move out on hit");
        assert_eq!(v.hits, 1);
        assert_eq!(v.probes, 2);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut v = VictimCache::new(2);
        v.insert(1);
        v.insert(2);
        v.insert(3); // evicts 1
        assert!(!v.take(1));
        assert!(v.take(2));
        assert!(v.take(3));
    }

    #[test]
    fn reinsert_refreshes_position() {
        let mut v = VictimCache::new(2);
        v.insert(1);
        v.insert(2);
        v.insert(1); // moves 1 to the back
        v.insert(3); // evicts 2, not 1
        assert!(v.take(1));
        assert!(!v.take(2));
    }
}
