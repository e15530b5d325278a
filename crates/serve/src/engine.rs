//! Pure job-lifecycle state machine — the functional core of the daemon.
//!
//! The engine owns every scheduling decision and none of the I/O: inputs
//! go in ([`Input`]: submissions, completions, cancellations, recovered
//! journal state), explicit [`Effect`]s come out (start this job, write
//! this journal event, notify subscribers, stop the process). The socket
//! adapters in [`crate::server`] translate connections into inputs and
//! effects into syscalls, so every lifecycle rule here is testable with
//! plain function calls — no sockets, no threads, no clock.
//!
//! Lifecycle: `Queued → Admitted → Running → {Done, Failed}`, with
//! `Queued → Cancelled` the only cancellation edge (running work is
//! never interrupted; its results are about to become store records
//! either way). Admission is bounded: at most `queue_depth` jobs wait,
//! beyond that submissions are rejected with a deterministic
//! `retry_after` hint — the backpressure contract. Identical submissions
//! (same canonical spec bytes) attach to the existing non-terminal job
//! instead of queueing a duplicate.

use csmt_experiments::proto::JobEvent;
use csmt_store::EventKind;
use std::collections::HashMap;

/// Engine tuning; all deterministic (no clocks, no randomness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum jobs waiting in the admission queue.
    pub queue_depth: usize,
    /// Maximum jobs admitted/running at once.
    pub max_running: usize,
    /// Fixed backpressure hint handed to rejected clients.
    pub retry_after_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_depth: 16,
            max_running: 2,
            retry_after_ms: 250,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the bounded admission queue.
    Queued,
    /// Selected to run; the adapter has been told to start it.
    Admitted,
    /// The adapter confirmed the job thread is executing.
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Wire name used by `status` responses.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Admitted | JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// Everything that can happen to the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A client submitted a spec (canonical bytes).
    Submit { canonical: String },
    /// A journaled, unfinished job from a previous daemon run; keeps its
    /// original id and is *not* re-journaled as submitted.
    Recover { id: u64, canonical: String },
    /// A journaled terminal job from a previous daemon run, replayed so
    /// `status` keeps answering for it.
    RecoverTerminal { id: u64, state: JobState },
    /// The adapter's job thread started executing.
    Started { id: u64 },
    /// The job thread finished; `error` is `None` for success.
    Finished { id: u64, error: Option<String> },
    /// A client asked to cancel a queued job.
    Cancel { id: u64 },
    /// Stop admitting and start draining: running jobs finish, queued
    /// jobs stay journaled-unfinished for the next daemon to recover.
    Shutdown,
}

/// Everything the engine asks the adapters to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Answer the submitter: job id, and whether it attached to an
    /// identical job already in flight.
    Accepted { id: u64, attached: bool },
    /// Answer the submitter: refused. `retry_after_ms > 0` means
    /// backpressure (queue full), 0 means permanent.
    Rejected { reason: String, retry_after_ms: u64 },
    /// Spawn the job's worker (the job is now `Admitted`).
    Start { id: u64, canonical: String },
    /// Append this event to the store journal.
    Journal(EventKind),
    /// Publish a job event to its subscribers.
    Notify { id: u64, event: JobEvent },
    /// Answer a failed cancellation.
    CancelFailed { id: u64, reason: String },
    /// All work is drained after a shutdown: the process may exit.
    Stop,
}

struct Job {
    canonical: String,
    state: JobState,
}

/// Lifecycle totals, for the `stats` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTotals {
    pub submitted: u64,
    pub done: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub queued: u64,
    pub running: u64,
}

/// The state machine. Owns no I/O handles; every method is a pure
/// transition on its in-memory state.
pub struct Engine {
    cfg: EngineConfig,
    jobs: HashMap<u64, Job>,
    /// Canonical spec → id of the non-terminal job with that spec (there
    /// is at most one: identical submissions attach), so a submission
    /// finds its identical job without walking every job.
    live: HashMap<String, u64>,
    /// Jobs `Admitted` or `Running`.
    running: usize,
    /// Admission queue, FIFO by submission order.
    queue: Vec<u64>,
    next_id: u64,
    draining: bool,
    submitted: u64,
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            cfg,
            jobs: HashMap::new(),
            live: HashMap::new(),
            running: 0,
            queue: Vec::new(),
            next_id: 1,
            draining: false,
            submitted: 0,
        }
    }

    /// Current state of a job, if known.
    pub fn state(&self, id: u64) -> Option<JobState> {
        self.jobs.get(&id).map(|j| j.state)
    }

    /// Canonical spec of a job, if known.
    pub fn canonical(&self, id: u64) -> Option<&str> {
        self.jobs.get(&id).map(|j| j.canonical.as_str())
    }

    /// Jobs `Admitted` or `Running`, kept as a running count.
    pub fn running(&self) -> usize {
        self.running
    }

    /// True once `Shutdown` was received.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Lifecycle totals across this engine's lifetime (recovered
    /// terminal jobs count toward their terminal bucket, not
    /// `submitted`).
    pub fn totals(&self) -> JobTotals {
        let mut t = JobTotals {
            submitted: self.submitted,
            ..JobTotals::default()
        };
        for j in self.jobs.values() {
            match j.state {
                JobState::Queued => t.queued += 1,
                JobState::Admitted | JobState::Running => t.running += 1,
                JobState::Done => t.done += 1,
                JobState::Failed => t.failed += 1,
                JobState::Cancelled => t.cancelled += 1,
            }
        }
        t
    }

    /// Apply one input; returns the effects the adapters must perform,
    /// in order.
    pub fn handle(&mut self, input: Input) -> Vec<Effect> {
        let mut fx = Vec::new();
        match input {
            Input::Submit { canonical } => self.submit(canonical, &mut fx),
            Input::Recover { id, canonical } => {
                self.next_id = self.next_id.max(id + 1);
                self.live.insert(canonical.clone(), id);
                self.jobs.insert(
                    id,
                    Job {
                        canonical,
                        state: JobState::Queued,
                    },
                );
                self.queue.push(id);
                fx.push(Effect::Notify {
                    id,
                    event: JobEvent::Queued,
                });
            }
            Input::RecoverTerminal { id, state } => {
                debug_assert!(state.is_terminal());
                self.next_id = self.next_id.max(id + 1);
                self.jobs.insert(
                    id,
                    Job {
                        canonical: String::new(),
                        state,
                    },
                );
            }
            Input::Started { id } => {
                if let Some(job) = self.jobs.get_mut(&id) {
                    if job.state == JobState::Admitted {
                        job.state = JobState::Running;
                        fx.push(Effect::Journal(EventKind::ServeStart { job_id: id }));
                        fx.push(Effect::Notify {
                            id,
                            event: JobEvent::Started,
                        });
                    }
                }
            }
            Input::Finished { id, error } => self.finished(id, error, &mut fx),
            Input::Cancel { id } => self.cancel(id, &mut fx),
            Input::Shutdown => {
                self.draining = true;
            }
        }
        self.pump(&mut fx);
        fx
    }

    /// Admit queued jobs while capacity allows (and we are not
    /// draining); emit `Stop` once a drain has nothing left running.
    fn pump(&mut self, fx: &mut Vec<Effect>) {
        if !self.draining {
            while self.running < self.cfg.max_running && !self.queue.is_empty() {
                let id = self.queue.remove(0);
                let job = self.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Admitted;
                self.running += 1;
                fx.push(Effect::Start {
                    id,
                    canonical: job.canonical.clone(),
                });
            }
        } else if self.running == 0 {
            fx.push(Effect::Stop);
        }
    }

    fn submit(&mut self, canonical: String, fx: &mut Vec<Effect>) {
        if self.draining {
            fx.push(Effect::Rejected {
                reason: "daemon is shutting down".into(),
                retry_after_ms: 0,
            });
            return;
        }
        // Dedup: an identical non-terminal job absorbs the submission.
        if let Some(&id) = self.live.get(&canonical) {
            fx.push(Effect::Accepted { id, attached: true });
            return;
        }
        if self.queue.len() >= self.cfg.queue_depth {
            fx.push(Effect::Rejected {
                reason: format!("admission queue full ({} jobs waiting)", self.queue.len()),
                retry_after_ms: self.cfg.retry_after_ms,
            });
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.submitted += 1;
        self.live.insert(canonical.clone(), id);
        self.jobs.insert(
            id,
            Job {
                canonical: canonical.clone(),
                state: JobState::Queued,
            },
        );
        self.queue.push(id);
        fx.push(Effect::Journal(EventKind::ServeSubmit {
            job_id: id,
            spec: canonical,
        }));
        fx.push(Effect::Accepted {
            id,
            attached: false,
        });
        fx.push(Effect::Notify {
            id,
            event: JobEvent::Queued,
        });
    }

    fn finished(&mut self, id: u64, error: Option<String>, fx: &mut Vec<Effect>) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return;
        };
        if !matches!(job.state, JobState::Admitted | JobState::Running) {
            return;
        }
        self.running -= 1;
        self.live.remove(&job.canonical);
        match error {
            None => {
                job.state = JobState::Done;
                fx.push(Effect::Journal(EventKind::ServeDone { job_id: id }));
                fx.push(Effect::Notify {
                    id,
                    event: JobEvent::Finished {
                        state: "done".into(),
                    },
                });
            }
            Some(e) => {
                job.state = JobState::Failed;
                fx.push(Effect::Journal(EventKind::ServeFailed {
                    job_id: id,
                    error: e.clone(),
                }));
                fx.push(Effect::Notify {
                    id,
                    event: JobEvent::Finished {
                        state: format!("failed:{e}"),
                    },
                });
            }
        }
    }

    fn cancel(&mut self, id: u64, fx: &mut Vec<Effect>) {
        match self.jobs.get_mut(&id) {
            None => fx.push(Effect::CancelFailed {
                id,
                reason: format!("unknown job {id}"),
            }),
            Some(job) => match job.state {
                JobState::Queued => {
                    job.state = JobState::Cancelled;
                    self.live.remove(&job.canonical);
                    self.queue.retain(|&q| q != id);
                    fx.push(Effect::Journal(EventKind::ServeCancelled { job_id: id }));
                    fx.push(Effect::Notify {
                        id,
                        event: JobEvent::Finished {
                            state: "cancelled".into(),
                        },
                    });
                }
                state => fx.push(Effect::CancelFailed {
                    id,
                    reason: format!("job {id} is {}, only queued jobs cancel", state.name()),
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(queue_depth: usize, max_running: usize) -> EngineConfig {
        EngineConfig {
            queue_depth,
            max_running,
            retry_after_ms: 250,
        }
    }

    fn submit(e: &mut Engine, spec: &str) -> (u64, Vec<Effect>) {
        let fx = e.handle(Input::Submit {
            canonical: spec.to_string(),
        });
        let id = fx
            .iter()
            .find_map(|f| match f {
                Effect::Accepted { id, .. } => Some(*id),
                _ => None,
            })
            .expect("submission accepted");
        (id, fx)
    }

    #[test]
    fn lifecycle_walks_queued_admitted_running_done() {
        let mut e = Engine::new(cfg(4, 1));
        let (id, fx) = submit(&mut e, "spec-a");
        assert!(fx.iter().any(|f| matches!(
            f,
            Effect::Journal(EventKind::ServeSubmit { job_id, .. }) if *job_id == id
        )));
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::Start { id: s, .. } if *s == id)));
        assert_eq!(e.state(id), Some(JobState::Admitted));
        let fx = e.handle(Input::Started { id });
        assert_eq!(e.state(id), Some(JobState::Running));
        assert!(fx.iter().any(
            |f| matches!(f, Effect::Journal(EventKind::ServeStart { job_id }) if *job_id == id)
        ));
        let fx = e.handle(Input::Finished { id, error: None });
        assert_eq!(e.state(id), Some(JobState::Done));
        assert!(fx.iter().any(
            |f| matches!(f, Effect::Journal(EventKind::ServeDone { job_id }) if *job_id == id)
        ));
        assert!(fx.iter().any(|f| matches!(
            f,
            Effect::Notify { event: JobEvent::Finished { state }, .. } if state == "done"
        )));
    }

    #[test]
    fn max_running_queues_the_overflow() {
        let mut e = Engine::new(cfg(8, 1));
        let (a, _) = submit(&mut e, "a");
        let (b, _) = submit(&mut e, "b");
        assert_eq!(e.state(a), Some(JobState::Admitted));
        assert_eq!(e.state(b), Some(JobState::Queued), "capacity 1: b waits");
        // a finishing pumps b in.
        e.handle(Input::Started { id: a });
        let fx = e.handle(Input::Finished { id: a, error: None });
        assert!(fx
            .iter()
            .any(|f| matches!(f, Effect::Start { id, .. } if *id == b)));
        assert_eq!(e.state(b), Some(JobState::Admitted));
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let mut e = Engine::new(cfg(1, 1));
        submit(&mut e, "a"); // admitted
        submit(&mut e, "b"); // queued (depth 1)
        let fx = e.handle(Input::Submit {
            canonical: "c".into(),
        });
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            Effect::Rejected {
                reason,
                retry_after_ms,
            } => {
                assert!(reason.contains("queue full"), "{reason}");
                assert_eq!(*retry_after_ms, 250, "deterministic backpressure hint");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn identical_submissions_attach_and_different_ones_do_not() {
        let mut e = Engine::new(cfg(4, 1));
        let (a, _) = submit(&mut e, "same");
        let fx = e.handle(Input::Submit {
            canonical: "same".into(),
        });
        assert_eq!(
            fx,
            vec![Effect::Accepted {
                id: a,
                attached: true
            }],
            "no second journal entry, no second job"
        );
        assert_eq!(e.totals().submitted, 1);
        let (b, _) = submit(&mut e, "different");
        assert_ne!(a, b);
        // A terminal job no longer absorbs submissions.
        e.handle(Input::Started { id: a });
        e.handle(Input::Finished { id: a, error: None });
        let (c, fx) = submit(&mut e, "same");
        assert_ne!(c, a);
        assert!(fx.iter().any(|f| matches!(
            f,
            Effect::Accepted {
                attached: false,
                ..
            }
        )));
    }

    #[test]
    fn cancel_only_touches_queued_jobs() {
        let mut e = Engine::new(cfg(4, 1));
        let (a, _) = submit(&mut e, "a");
        let (b, _) = submit(&mut e, "b");
        // b is queued: cancellable.
        let fx = e.handle(Input::Cancel { id: b });
        assert_eq!(e.state(b), Some(JobState::Cancelled));
        assert!(fx.iter().any(
            |f| matches!(f, Effect::Journal(EventKind::ServeCancelled { job_id }) if *job_id == b)
        ));
        // a is admitted: not cancellable.
        let fx = e.handle(Input::Cancel { id: a });
        assert!(matches!(&fx[0], Effect::CancelFailed { id, .. } if *id == a));
        assert_eq!(e.state(a), Some(JobState::Admitted));
        // Unknown job: explicit failure.
        let fx = e.handle(Input::Cancel { id: 999 });
        assert!(matches!(&fx[0], Effect::CancelFailed { id, .. } if *id == 999));
    }

    #[test]
    fn shutdown_drains_running_and_strands_queued_for_recovery() {
        let mut e = Engine::new(cfg(4, 1));
        let (a, _) = submit(&mut e, "a");
        let (b, _) = submit(&mut e, "b");
        e.handle(Input::Started { id: a });
        let fx = e.handle(Input::Shutdown);
        assert!(e.draining());
        assert!(!fx.contains(&Effect::Stop), "a still running: no stop yet");
        // New submissions are refused permanently (no retry hint).
        let fx = e.handle(Input::Submit {
            canonical: "c".into(),
        });
        assert!(matches!(
            &fx[0],
            Effect::Rejected {
                retry_after_ms: 0,
                ..
            }
        ));
        // The running job finishing stops the engine; b stays Queued —
        // its ServeSubmit is journaled without a terminal event, which
        // is exactly what recovery picks up.
        let fx = e.handle(Input::Finished { id: a, error: None });
        assert!(fx.contains(&Effect::Stop));
        assert_eq!(e.state(b), Some(JobState::Queued));
    }

    #[test]
    fn recovery_requeues_unfinished_and_remembers_terminal_jobs() {
        let mut e = Engine::new(cfg(4, 1));
        let fx = e.handle(Input::Recover {
            id: 7,
            canonical: "spec".into(),
        });
        assert!(
            !fx.iter()
                .any(|f| matches!(f, Effect::Journal(EventKind::ServeSubmit { .. }))),
            "recovered jobs must not be re-journaled as submitted"
        );
        assert!(fx.iter().any(|f| matches!(f, Effect::Start { id: 7, .. })));
        e.handle(Input::RecoverTerminal {
            id: 3,
            state: JobState::Done,
        });
        assert_eq!(e.state(3), Some(JobState::Done));
        // Fresh ids continue past everything recovered.
        let (id, _) = submit(&mut e, "fresh");
        assert_eq!(id, 8);
    }

    #[test]
    fn failed_job_journals_the_error() {
        let mut e = Engine::new(cfg(4, 1));
        let (id, _) = submit(&mut e, "a");
        e.handle(Input::Started { id });
        let fx = e.handle(Input::Finished {
            id,
            error: Some("boom".into()),
        });
        assert_eq!(e.state(id), Some(JobState::Failed));
        assert!(fx.iter().any(|f| matches!(
            f,
            Effect::Journal(EventKind::ServeFailed { job_id, error }) if *job_id == id && error == "boom"
        )));
        assert!(fx.iter().any(|f| matches!(
            f,
            Effect::Notify { event: JobEvent::Finished { state }, .. } if state == "failed:boom"
        )));
    }

    #[test]
    fn totals_track_every_bucket() {
        let mut e = Engine::new(cfg(8, 1));
        let (a, _) = submit(&mut e, "a");
        let (b, _) = submit(&mut e, "b");
        let (_c, _) = submit(&mut e, "c");
        e.handle(Input::Cancel { id: b });
        e.handle(Input::Started { id: a });
        e.handle(Input::Finished { id: a, error: None });
        let t = e.totals();
        assert_eq!(t.submitted, 3);
        assert_eq!(t.done, 1);
        assert_eq!(t.cancelled, 1);
        assert_eq!(t.running, 1, "c was pumped in after a finished");
        assert_eq!(t.queued, 0);
    }

    #[test]
    fn duplicate_lifecycle_inputs_are_idempotent() {
        let mut e = Engine::new(cfg(4, 1));
        let (id, _) = submit(&mut e, "a");
        e.handle(Input::Started { id });
        assert!(e.handle(Input::Started { id }).is_empty(), "double start");
        e.handle(Input::Finished { id, error: None });
        assert!(
            e.handle(Input::Finished { id, error: None }).is_empty(),
            "double finish"
        );
        assert_eq!(e.state(id), Some(JobState::Done));
    }
}
