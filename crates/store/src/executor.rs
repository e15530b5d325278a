//! Work-stealing sweep executor.
//!
//! A sweep is an embarrassingly parallel bag of independent jobs whose
//! durations vary by an order of magnitude (a 2-thread ILP workload at a
//! 32-entry IQ finishes long before a memory-bound mix on a bounded
//! register file). A shared-counter loop keeps every worker busy but
//! funnels all scheduling through one cache line; static chunking leaves
//! workers idle behind a slow chunk. The executor here does the classic
//! third thing: each worker owns a deque seeded round-robin, pops work
//! from its own front, and when it runs dry **steals from the back** of a
//! sibling's deque, so load imbalance self-corrects without a central
//! queue.
//!
//! Two properties matter more than raw throughput:
//!
//! * **Determinism of aggregation.** `run` returns results in *item
//!   order*, whatever the interleaving. Each job writes only its own
//!   result slot; no output depends on which worker ran it or when. A
//!   sweep aggregated from these slots is byte-identical between
//!   `--jobs 1` and `--jobs 8`.
//! * **A genuinely serial path.** With one worker (explicit `jobs = 1`,
//!   or a single-core host) no threads are spawned at all: jobs run on
//!   the caller's thread in item order, which keeps single-threaded
//!   debugging, profiling and backtraces trivial.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default worker count: `min(available cores, 8)`. Sweeps are
/// memory-bandwidth-bound well before 8 workers on desktop parts, and a
/// polite default keeps shared CI hosts usable.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Executor traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecCounters {
    /// Worker threads used by the most recent `run` call.
    pub workers: u64,
    /// Jobs executed across all `run` calls.
    pub executed: u64,
    /// Jobs taken from another worker's deque.
    pub steals: u64,
}

/// Work-stealing job executor with a fixed worker count.
pub struct Executor {
    jobs: usize,
    executed: AtomicU64,
    steals: AtomicU64,
    last_workers: AtomicU64,
}

impl Executor {
    /// An executor with `jobs` worker threads; `0` means [`default_jobs`].
    pub fn new(jobs: usize) -> Executor {
        Executor {
            jobs: if jobs == 0 { default_jobs() } else { jobs },
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            last_workers: AtomicU64::new(0),
        }
    }

    /// Resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Counter snapshot.
    pub fn counters(&self) -> ExecCounters {
        ExecCounters {
            workers: self.last_workers.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Execute `f` over every item and return the results **in item
    /// order**, regardless of which worker ran which job or in what
    /// interleaving. `f` is expected to handle its own panics (the sweep
    /// runner wraps jobs in an [`crate::Orchestrator`]); a panic that does
    /// escape `f` propagates out of `run` after all workers have joined.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n).max(1);
        self.last_workers.store(workers as u64, Ordering::Relaxed);
        if workers == 1 {
            // Serial path: caller's thread, item order, no spawns.
            let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            self.executed.fetch_add(n as u64, Ordering::Relaxed);
            return out;
        }

        // Seed per-worker deques round-robin so early items (often the
        // slow, shared baselines a figure requests first) spread across
        // workers instead of serializing behind one.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let deques = &deques;
                    let f = &f;
                    let executed = &self.executed;
                    let steals = &self.steals;
                    s.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            // Own deque first (front: FIFO over the seed
                            // order), then sweep the siblings and steal
                            // from the back.
                            let job = {
                                let own = deques[w]
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .pop_front();
                                match own {
                                    Some(i) => Some(i),
                                    None => (1..workers).find_map(|d| {
                                        let victim = (w + d) % workers;
                                        let stolen = deques[victim]
                                            .lock()
                                            .unwrap_or_else(|e| e.into_inner())
                                            .pop_back();
                                        if stolen.is_some() {
                                            steals.fetch_add(1, Ordering::Relaxed);
                                        }
                                        stolen
                                    }),
                                }
                            };
                            // No job anywhere: the bag is fixed up front,
                            // so an empty sweep means we are done.
                            let Some(i) = job else { break };
                            local.push((i, f(i, &items[i])));
                            executed.fetch_add(1, Ordering::Relaxed);
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("sweep worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every job executes exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..57).collect();
        for jobs in [1, 2, 4, 8] {
            let exec = Executor::new(jobs);
            let out = exec.run(&items, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(out, (0..57).map(|x| x * 10).collect::<Vec<_>>());
            assert_eq!(exec.counters().executed, 57);
        }
    }

    #[test]
    fn zero_jobs_resolves_to_default_and_one_is_serial() {
        assert_eq!(Executor::new(0).jobs(), default_jobs());
        assert!(default_jobs() >= 1 && default_jobs() <= 8);
        // jobs = 1 runs on the caller's thread.
        let caller = std::thread::current().id();
        let exec = Executor::new(1);
        let out = exec.run(&[(); 5], |_, _| std::thread::current().id());
        assert!(out.iter().all(|&id| id == caller));
        assert_eq!(exec.counters().workers, 1);
    }

    #[test]
    fn every_job_executes_exactly_once_under_contention() {
        let n = 300;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..n).collect();
        let exec = Executor::new(8);
        exec.run(&items, |_, &i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(exec.counters().executed, n as u64);
    }

    #[test]
    fn imbalanced_jobs_get_stolen() {
        // Worker 0's deque is seeded with the slow jobs (indices 0, 4,
        // 8, ... are made slow); with 4 workers, someone must steal.
        let n = 64;
        let items: Vec<usize> = (0..n).collect();
        let exec = Executor::new(4);
        exec.run(&items, |_, &i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let c = exec.counters();
        assert_eq!(c.executed, n as u64);
        assert_eq!(c.workers, 4);
        // Stealing is scheduling-dependent; just require the counters to
        // stay consistent (steals never exceed total jobs).
        assert!(c.steals <= n as u64);
    }

    #[test]
    fn more_workers_than_items_degrades_gracefully() {
        let exec = Executor::new(8);
        let out = exec.run(&[1, 2], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3]);
        assert_eq!(exec.counters().workers, 2, "workers capped at item count");
        let out: Vec<i32> = exec.run(&[], |_, &x: &i32| x);
        assert!(out.is_empty());
    }
}
