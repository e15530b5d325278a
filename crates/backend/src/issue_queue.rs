//! Per-cluster issue queue.
//!
//! Holds dispatched-but-not-issued uop ids in age order and tracks
//! per-thread occupancy — the quantity every scheme of Table 3 reasons
//! about. The queue itself enforces only its hard capacity; per-thread
//! limits are the schemes' job.

use csmt_types::{ThreadId, MAX_THREADS};

/// An age-ordered issue queue of uop ids.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    /// Uop ids, oldest first (insertion order; select scans in order, so
    /// oldest-ready-first arbitration falls out naturally).
    entries: Vec<u32>,
    /// Owning thread of each entry, parallel to `entries`.
    owners: Vec<ThreadId>,
    /// Caller-defined packed wakeup metadata, parallel to `entries`. The
    /// select loop scans this dense array instead of dereferencing each
    /// uop's window entry; the queue itself never interprets it.
    meta: Vec<u64>,
    capacity: usize,
    per_thread: [usize; MAX_THREADS],
}

impl IssueQueue {
    pub fn new(capacity: usize) -> Self {
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            owners: Vec::with_capacity(capacity),
            meta: Vec::with_capacity(capacity),
            capacity,
            per_thread: [0; MAX_THREADS],
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Entries held by `thread`.
    pub fn thread_occupancy(&self, thread: ThreadId) -> usize {
        self.per_thread[thread.idx()]
    }

    /// Insert a uop at the tail (youngest). Returns `false` when full.
    pub fn insert(&mut self, uop_id: u32, thread: ThreadId) -> bool {
        self.insert_with_meta(uop_id, thread, 0)
    }

    /// Insert a uop with its packed wakeup metadata. Returns `false` when
    /// full.
    pub fn insert_with_meta(&mut self, uop_id: u32, thread: ThreadId, meta: u64) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push(uop_id);
        self.owners.push(thread);
        self.meta.push(meta);
        self.per_thread[thread.idx()] += 1;
        true
    }

    /// Iterate uop ids oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().copied()
    }

    /// Iterate `(uop id, metadata)` pairs oldest-first.
    pub fn iter_with_meta(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.entries.iter().copied().zip(self.meta.iter().copied())
    }

    /// Occupancy conservation: the per-thread counters add up to the entry
    /// count and match the owner list.
    pub fn conserves_occupancy(&self) -> bool {
        let mut counted = [0usize; MAX_THREADS];
        for t in &self.owners {
            counted[t.idx()] += 1;
        }
        counted == self.per_thread && self.entries.len() == self.owners.len()
    }

    /// Remove a specific uop (after it issues). Returns whether it was
    /// present.
    pub fn remove(&mut self, uop_id: u32) -> bool {
        if let Some(pos) = self.entries.iter().position(|&e| e == uop_id) {
            let t = self.owners[pos];
            self.entries.remove(pos);
            self.owners.remove(pos);
            self.meta.remove(pos);
            self.per_thread[t.idx()] -= 1;
            true
        } else {
            false
        }
    }

    /// Remove a batch of uops that appear in the queue in the order given
    /// (the select loop's pick list is naturally age-ordered). One
    /// compaction pass instead of one `Vec::remove` per issued uop.
    /// Returns the number removed; every id must be present.
    pub fn remove_in_order<I: IntoIterator<Item = u32>>(&mut self, ids: I) -> usize {
        let mut it = ids.into_iter();
        let Some(mut target) = it.next() else {
            return 0;
        };
        let mut write = 0;
        let mut removed = 0;
        let mut remaining = true;
        for read in 0..self.entries.len() {
            if remaining && self.entries[read] == target {
                self.per_thread[self.owners[read].idx()] -= 1;
                removed += 1;
                match it.next() {
                    Some(next) => target = next,
                    None => remaining = false,
                }
            } else {
                self.entries[write] = self.entries[read];
                self.owners[write] = self.owners[read];
                self.meta[write] = self.meta[read];
                write += 1;
            }
        }
        debug_assert!(
            !remaining && it.next().is_none(),
            "remove_in_order: id missing or out of queue order"
        );
        self.entries.truncate(write);
        self.owners.truncate(write);
        self.meta.truncate(write);
        removed
    }

    /// Fused select-and-compact: visit every entry oldest-first, handing
    /// `take` the uop id and a mutable reference to its metadata word (so
    /// the select loop can cache wakeup hints in place). Entries for which
    /// `take` returns `true` are removed; the rest are compacted in the
    /// same pass, so selecting and removing the picks costs one traversal
    /// instead of a scan plus a [`remove_in_order`](Self::remove_in_order)
    /// pass. No copying happens until the first removal. Returns the
    /// number removed.
    pub fn scan_issue<F: FnMut(u32, &mut u64) -> bool>(&mut self, mut take: F) -> usize {
        let len = self.entries.len();
        let mut read = 0;
        // Until something is taken, every entry stays in place.
        while read < len {
            if take(self.entries[read], &mut self.meta[read]) {
                break;
            }
            read += 1;
        }
        if read == len {
            return 0;
        }
        self.per_thread[self.owners[read].idx()] -= 1;
        let mut removed = 1;
        let mut write = read;
        read += 1;
        while read < len {
            if take(self.entries[read], &mut self.meta[read]) {
                self.per_thread[self.owners[read].idx()] -= 1;
                removed += 1;
            } else {
                self.entries[write] = self.entries[read];
                self.owners[write] = self.owners[read];
                self.meta[write] = self.meta[read];
                write += 1;
            }
            read += 1;
        }
        self.entries.truncate(write);
        self.owners.truncate(write);
        self.meta.truncate(write);
        removed
    }

    /// Remove every entry of `thread` satisfying `pred` (squash support).
    /// Returns the removed uop ids.
    pub fn squash<F: FnMut(u32) -> bool>(&mut self, thread: ThreadId, mut pred: F) -> Vec<u32> {
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            if self.owners[i] == thread && pred(self.entries[i]) {
                removed.push(self.entries[i]);
                self.entries.remove(i);
                self.owners.remove(i);
                self.meta.remove(i);
                self.per_thread[thread.idx()] -= 1;
            } else {
                i += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn insert_to_capacity() {
        let mut q = IssueQueue::new(3);
        assert!(q.insert(1, T0));
        assert!(q.insert(2, T1));
        assert!(q.insert(3, T0));
        assert!(q.is_full());
        assert!(!q.insert(4, T0));
        assert_eq!(q.len(), 3);
        assert_eq!(q.thread_occupancy(T0), 2);
        assert_eq!(q.thread_occupancy(T1), 1);
    }

    #[test]
    fn iteration_is_age_ordered() {
        let mut q = IssueQueue::new(8);
        for id in [5, 9, 2, 7] {
            q.insert(id, T0);
        }
        let order: Vec<u32> = q.iter().collect();
        assert_eq!(order, vec![5, 9, 2, 7]);
    }

    #[test]
    fn remove_updates_occupancy() {
        let mut q = IssueQueue::new(4);
        q.insert(1, T0);
        q.insert(2, T1);
        assert!(q.remove(1));
        assert!(!q.remove(1));
        assert_eq!(q.thread_occupancy(T0), 0);
        assert_eq!(q.thread_occupancy(T1), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn squash_removes_only_matching_thread_entries() {
        let mut q = IssueQueue::new(8);
        q.insert(10, T0);
        q.insert(11, T1);
        q.insert(12, T0);
        q.insert(13, T0);
        // Squash thread 0 uops with id >= 12.
        let removed = q.squash(T0, |id| id >= 12);
        assert_eq!(removed, vec![12, 13]);
        assert_eq!(q.thread_occupancy(T0), 1);
        assert_eq!(q.thread_occupancy(T1), 1);
        let left: Vec<u32> = q.iter().collect();
        assert_eq!(left, vec![10, 11]);
    }

    #[test]
    fn meta_rides_along_with_entries() {
        let mut q = IssueQueue::new(8);
        q.insert_with_meta(1, T0, 0xAA);
        q.insert_with_meta(2, T1, 0xBB);
        q.insert_with_meta(3, T0, 0xCC);
        q.remove(2);
        let pairs: Vec<(u32, u64)> = q.iter_with_meta().collect();
        assert_eq!(pairs, vec![(1, 0xAA), (3, 0xCC)]);
    }

    #[test]
    fn remove_in_order_compacts_in_one_pass() {
        let mut q = IssueQueue::new(8);
        for id in [10, 11, 12, 13, 14] {
            q.insert_with_meta(id, if id % 2 == 0 { T0 } else { T1 }, id as u64);
        }
        assert_eq!(q.remove_in_order([10, 12, 14]), 3);
        let pairs: Vec<(u32, u64)> = q.iter_with_meta().collect();
        assert_eq!(pairs, vec![(11, 11), (13, 13)]);
        assert_eq!(q.thread_occupancy(T0), 0);
        assert_eq!(q.thread_occupancy(T1), 2);
        assert_eq!(q.remove_in_order(std::iter::empty()), 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn scan_issue_selects_and_compacts_in_one_pass() {
        let mut q = IssueQueue::new(8);
        for id in [10, 11, 12, 13, 14] {
            q.insert_with_meta(id, if id % 2 == 0 { T0 } else { T1 }, id as u64);
        }
        // Take the even ids; bump metadata of the survivors in place.
        let removed = q.scan_issue(|id, meta| {
            if id % 2 == 0 {
                true
            } else {
                *meta += 100;
                false
            }
        });
        assert_eq!(removed, 3);
        let pairs: Vec<(u32, u64)> = q.iter_with_meta().collect();
        assert_eq!(pairs, vec![(11, 111), (13, 113)]);
        assert_eq!(q.thread_occupancy(T0), 0);
        assert_eq!(q.thread_occupancy(T1), 2);
        assert!(q.conserves_occupancy());
        // Taking nothing leaves the queue untouched.
        assert_eq!(q.scan_issue(|_, _| false), 0);
        assert_eq!(q.len(), 2);
        // Taking everything empties it.
        assert_eq!(q.scan_issue(|_, _| true), 2);
        assert!(q.is_empty());
        assert_eq!(q.scan_issue(|_, _| true), 0);
    }

    #[test]
    fn occupancies_always_sum_to_len() {
        let mut q = IssueQueue::new(16);
        for i in 0..16 {
            q.insert(i, if i % 3 == 0 { T0 } else { T1 });
        }
        q.remove(3);
        q.squash(T1, |id| id > 10);
        assert_eq!(q.thread_occupancy(T0) + q.thread_occupancy(T1), q.len());
    }
}
