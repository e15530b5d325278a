//! Crash-resilient job execution: one `catch_unwind` attempt per job.
//!
//! The simulator is supposed to be panic-free, but a sweep of thousands of
//! runs must not lose hours of work to one poisoned configuration. The
//! orchestrator runs each job once inside [`std::panic::catch_unwind`]: a
//! panic is journaled, the job is recorded as failed, and the sweep moves
//! on. A run is a pure function of its inputs, so a second attempt would
//! only panic the same way; there are no retries.

use crate::journal::{EventKind, JobDesc, Journal};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Orchestrator traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrchCounters {
    /// Jobs that produced a result.
    pub completed: u64,
    /// Jobs that panicked and were recorded as failed.
    pub failures: u64,
}

/// Runs jobs with panic isolation and journaling.
pub struct Orchestrator {
    journal: Option<Arc<Journal>>,
    completed: AtomicU64,
    failures: AtomicU64,
}

impl Orchestrator {
    pub fn new(journal: Option<Arc<Journal>>) -> Orchestrator {
        Orchestrator {
            journal,
            completed: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> OrchCounters {
        OrchCounters {
            completed: self.completed.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }

    fn log(&self, kind: EventKind) {
        if let Some(j) = &self.journal {
            j.log(kind);
        }
    }

    /// Execute `job` once, isolating panics. Returns `None` iff it
    /// panicked; the failure is journaled and counted, never propagated —
    /// the caller decides how a failed job appears in its figures.
    pub fn run_job<R>(&self, desc: &JobDesc, job: impl FnOnce() -> R) -> Option<R> {
        self.log(EventKind::JobStart { job: desc.clone() });
        let t0 = Instant::now();
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(result) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.log(EventKind::JobOk {
                    job: desc.clone(),
                    wall_ms: t0.elapsed().as_millis() as u64,
                });
                Some(result)
            }
            Err(payload) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.log(EventKind::JobPanic {
                    job: desc.clone(),
                    attempt: 1,
                    error: panic_message(payload.as_ref()),
                });
                self.log(EventKind::JobFailed {
                    job: desc.clone(),
                    attempts: 1,
                });
                None
            }
        }
    }
}

/// Test-only fault injection: arm a number of simulated-job panics for
/// job labels containing a substring, to exercise the failure path
/// end-to-end (the sweep runner checks [`fault_injection::maybe_panic`]
/// at the top of every job).
///
/// Safe under concurrent sweep workers and concurrent tests: the armed
/// state is a list of independent injections — arming for one label never
/// clobbers another label's countdown — and matching + decrement happen
/// under a single lock, so exactly `times` panics fire however many
/// workers race through `maybe_panic`. Disarmed it costs one uncontended
/// mutex check per job — noise next to a simulation. Not part of the
/// public API.
#[doc(hidden)]
pub mod fault_injection {
    use std::sync::Mutex;

    struct Injection {
        label_contains: String,
        remaining: u32,
    }

    static ARMED: Mutex<Vec<Injection>> = Mutex::new(Vec::new());

    /// Arm `times` panics for jobs whose label contains `label_contains`.
    /// Independent of any other armed label.
    pub fn arm(label_contains: &str, times: u32) {
        ARMED
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Injection {
                label_contains: label_contains.to_string(),
                remaining: times,
            });
    }

    /// Disarm every injection and return how many armed panics were left
    /// unused in total.
    pub fn disarm() -> u32 {
        ARMED
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .map(|i| i.remaining)
            .sum()
    }

    /// Panic iff an armed injection matches `label` and has shots left.
    /// The decrement happens before the panic, under the lock.
    pub fn maybe_panic(label: &str) {
        let mut guard = ARMED.lock().unwrap_or_else(|e| e.into_inner());
        let hit = guard
            .iter_mut()
            .find(|inj| inj.remaining > 0 && label.contains(&inj.label_contains));
        if let Some(inj) = hit {
            inj.remaining -= 1;
            drop(guard);
            panic!("injected fault for test ({label})");
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> JobDesc {
        JobDesc {
            label: "w".into(),
            iq: "Icount".into(),
            rf: "Shared".into(),
            cfg: "base".into(),
        }
    }

    /// Panics are noisy on stderr; keep test output readable by muting the
    /// default hook for the duration of a closure.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn success_on_first_attempt() {
        let orch = Orchestrator::new(None);
        assert_eq!(orch.run_job(&desc(), || 42), Some(42));
        let c = orch.counters();
        assert_eq!((c.completed, c.failures), (1, 0));
    }

    #[test]
    fn panicking_job_fails_once_without_aborting() {
        quiet_panics(|| {
            let orch = Orchestrator::new(None);
            let mut calls = 0;
            let out: Option<u32> = orch.run_job(&desc(), || {
                calls += 1;
                panic!("always")
            });
            assert_eq!(out, None);
            assert_eq!(calls, 1, "a panicking job runs exactly once");
            let c = orch.counters();
            assert_eq!((c.completed, c.failures), (0, 1));
            // The orchestrator is still usable for the next job.
            assert_eq!(orch.run_job(&desc(), || 1), Some(1));
        });
    }

    #[test]
    fn journal_records_the_failure_story() {
        quiet_panics(|| {
            let dir =
                std::env::temp_dir().join(format!("csmt-orch-journal-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let journal = Arc::new(Journal::open(&dir).unwrap());
            let orch = Orchestrator::new(Some(journal.clone()));
            orch.run_job(&desc(), || -> u32 { panic!("dies") });
            orch.run_job(&desc(), || 0u32);
            let kinds: Vec<String> = Journal::read(journal.path())
                .into_iter()
                .map(|e| match e.kind {
                    EventKind::JobStart { .. } => "start".to_string(),
                    EventKind::JobPanic { attempt, .. } => format!("panic{attempt}"),
                    EventKind::JobOk { .. } => "ok".to_string(),
                    EventKind::JobFailed { attempts, .. } => format!("failed{attempts}"),
                    _ => "other".to_string(),
                })
                .collect();
            assert_eq!(kinds, ["start", "panic1", "failed1", "start", "ok"]);
        });
    }
}
