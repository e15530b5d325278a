//! In-order sweep executor.
//!
//! A sweep is an embarrassingly parallel bag of independent jobs whose
//! durations vary by an order of magnitude (a 2-thread ILP workload at a
//! 32-entry IQ finishes long before a memory-bound mix on a bounded
//! register file). Workers share one atomic cursor over the items: each
//! takes the next untaken item, runs it, and comes back for another, so
//! no worker idles while work remains and jobs **start in item order**.
//!
//! Starting in item order bounds what a batch holds live. Figures list
//! their runs pairing-major, so at any moment at most `workers + 1`
//! pairings have runs started but not all finished (one per worker's
//! job, plus the pairing the cursor is in), and a batched sweep keeps
//! only those pairings' decoded trace streams alive.
//!
//! Two properties matter more than raw throughput:
//!
//! * **Determinism of aggregation.** `run` returns results in *item
//!   order*, whatever the interleaving. Each result carries its item
//!   index; no output depends on which worker ran it or when. A sweep
//!   aggregated from these results is byte-identical between `--jobs 1`
//!   and `--jobs 8`.
//! * **A genuinely serial path.** With one worker (explicit `jobs = 1`,
//!   or a single-core host) no threads are spawned at all: jobs run on
//!   the caller's thread in item order, which keeps single-threaded
//!   debugging, profiling and backtraces trivial.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
}

/// In-order job executor with a fixed worker count.
pub struct Executor {
    jobs: usize,
    executed: AtomicU64,
    last_workers: AtomicU64,
}

impl Executor {
    /// An executor with `jobs` worker threads; `0` means [`default_jobs`].
    pub fn new(jobs: usize) -> Executor {
        Executor {
            jobs: if jobs == 0 { default_jobs() } else { jobs },
            executed: AtomicU64::new(0),
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
        }
    }

    /// Execute `f` over every item, starting jobs in item order, and
    /// return the results **in item order**, regardless of which worker
    /// ran which job or in what interleaving. `f` is expected to handle
    /// its own panics (the sweep runner wraps jobs in an
    /// [`crate::Orchestrator`]); a panic that does escape `f` is re-raised
    /// from `run`, with its original payload, after all workers have
    /// joined.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n).max(1);
        self.last_workers.store(workers as u64, Ordering::Relaxed);
        self.executed.fetch_add(n as u64, Ordering::Relaxed);
        if workers == 1 {
            // Serial path: caller's thread, item order, no spawns.
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        // The cursor only hands out indices; results reach this thread
        // through `join`, so `Relaxed` suffices.
        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, R)> = Vec::with_capacity(n);
        let mut panic = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let next = || {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            items.get(i).map(|item| (i, f(i, item)))
                        };
                        std::iter::from_fn(next).collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(local) => done.extend(local),
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

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
    fn imbalanced_jobs_start_in_item_order_on_every_worker() {
        // Every fourth job is slow, and jobs 0..4 wait for each other: a
        // worker holds one job at a time, so they overlap only if all
        // four workers run.
        let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let exec = Executor::new(4);
        exec.run(&[(); 64], |i, _| {
            // Jobs below `i` were all claimed first, and each of the other
            // three workers holds at most one of them unfinished.
            let done = finished.load(Ordering::SeqCst);
            assert!(done + 4 > i, "job {i} started with {done} finished");
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(30);
            while i < 4 && started.load(Ordering::SeqCst) < 4 {
                assert!(Instant::now() < deadline, "the first jobs never overlapped");
                std::thread::yield_now();
            }
            if i % 4 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            finished.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(
            exec.counters(),
            ExecCounters {
                workers: 4,
                executed: 64
            }
        );
    }

    #[test]
    fn escaped_panic_is_reraised_with_its_payload_after_every_job() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            Executor::new(2).run(&[(); 6], |i, _| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 1 {
                    std::panic::panic_any("job 1 failed");
                }
            })
        });
        std::panic::set_hook(hook);
        let payload = caught.expect_err("the job's panic escapes run");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 1 failed"));
        // The other worker drained the rest before `run` re-raised.
        assert_eq!(ran.load(Ordering::SeqCst), 6);
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
