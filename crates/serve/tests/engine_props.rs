//! Random event sequences against the pure job engine: submissions
//! (drawn from a small spec pool, so duplicates attach), starts,
//! completions (ok or error), cancellations and shutdowns, in any order
//! and for any id, known or not. The engine must never panic and must
//! keep its admission bounds, its running count and its dedup index
//! after every input; once every admitted job has finished, every
//! accepted submission must have ended in exactly one terminal state.

use csmt_experiments::proto::JobEvent;
use csmt_serve::{Effect, Engine, EngineConfig, Input, JobState};
use csmt_store::EventKind;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// A pool this small makes identical in-flight submissions common.
const SPECS: [&str; 3] = ["spec-a", "spec-b", "spec-c"];

/// Ids drawn below this include jobs never created.
const IDS: u64 = 12;

/// One random input. `arg` picks the spec of a submission and the job
/// id of everything else.
fn input(kind: u8, arg: u64) -> Input {
    match kind {
        0..=4 => Input::Submit {
            canonical: SPECS[arg as usize % SPECS.len()].to_string(),
        },
        5..=7 => Input::Started { id: arg },
        8..=10 => Input::Finished {
            id: arg,
            error: None,
        },
        11..=12 => Input::Finished {
            id: arg,
            error: Some("boom".into()),
        },
        13..=14 => Input::Cancel { id: arg },
        _ => Input::Shutdown,
    }
}

/// The engine plus what its effects have promised so far.
struct Model {
    cfg: EngineConfig,
    engine: Engine,
    /// Every id an `Accepted` effect handed out.
    accepted: BTreeSet<u64>,
    /// Terminal `Notify` states per job.
    finished: HashMap<u64, Vec<String>>,
    /// Terminal journal events per job.
    journaled: HashMap<u64, usize>,
    stopped: bool,
}

impl Model {
    fn new(cfg: EngineConfig) -> Model {
        Model {
            cfg,
            engine: Engine::new(cfg),
            accepted: BTreeSet::new(),
            finished: HashMap::new(),
            journaled: HashMap::new(),
            stopped: false,
        }
    }

    fn state(&self, id: u64) -> Option<JobState> {
        self.engine.state(id)
    }

    /// Apply one input and check the invariants that hold after every
    /// step.
    fn apply(&mut self, input: Input) -> Result<(), String> {
        // Non-terminal jobs with the submitted spec, before the input.
        let identical: Vec<u64> = match &input {
            Input::Submit { canonical } => self
                .in_state(|s| !s.is_terminal())
                .into_iter()
                .filter(|&id| self.engine.canonical(id) == Some(canonical.as_str()))
                .collect(),
            _ => Vec::new(),
        };
        for effect in self.engine.handle(input.clone()) {
            match effect {
                Effect::Accepted { id, attached } => {
                    let fresh = self.accepted.insert(id);
                    prop_assert_eq!(fresh, !attached, "{:?} accepted job {}", input, id);
                    let state = self.state(id);
                    prop_assert!(
                        state.is_some_and(|s| !s.is_terminal()),
                        "accepted job {id} is {state:?}"
                    );
                    // Dedup attaches exactly when a non-terminal job has
                    // the same spec, and then to that job.
                    if attached {
                        prop_assert_eq!(&identical, &vec![id], "{:?} attached", input);
                    } else {
                        prop_assert!(identical.is_empty(), "{input:?} missed {identical:?}");
                    }
                }
                Effect::Notify {
                    id,
                    event: JobEvent::Finished { state },
                } => self.finished.entry(id).or_default().push(state),
                Effect::Journal(
                    EventKind::ServeDone { job_id }
                    | EventKind::ServeFailed { job_id, .. }
                    | EventKind::ServeCancelled { job_id },
                ) => *self.journaled.entry(job_id).or_default() += 1,
                Effect::Start { id, .. } => {
                    let state = self.state(id);
                    prop_assert_eq!(state, Some(JobState::Admitted), "started job {}", id);
                }
                Effect::Stop => self.stopped = true,
                _ => {}
            }
        }
        let totals = self.engine.totals();
        prop_assert_eq!(
            self.engine.running() as u64,
            totals.running,
            "running count after {:?}",
            input
        );
        prop_assert!(
            totals.queued as usize <= self.cfg.queue_depth,
            "{} queued, depth {} after {:?}",
            totals.queued,
            self.cfg.queue_depth,
            input
        );
        prop_assert!(
            totals.running as usize <= self.cfg.max_running,
            "{} running, limit {} after {:?}",
            totals.running,
            self.cfg.max_running,
            input
        );
        for (id, states) in &self.finished {
            prop_assert!(states.len() == 1, "job {id} finished as {states:?}");
        }
        Ok(())
    }

    /// Accepted jobs in `state`.
    fn in_state(&self, pred: impl Fn(JobState) -> bool) -> Vec<u64> {
        self.accepted
            .iter()
            .copied()
            .filter(|&id| self.state(id).is_some_and(&pred))
            .collect()
    }

    /// Finish every admitted job, which admits more from the queue,
    /// until nothing is admitted or running. A draining engine admits
    /// nothing, so whatever it still holds queued is cancelled.
    fn drain(&mut self) -> Result<(), String> {
        for _ in 0..=self.accepted.len() {
            let active = self.in_state(|s| matches!(s, JobState::Admitted | JobState::Running));
            if active.is_empty() {
                for id in self.in_state(|s| s == JobState::Queued) {
                    self.apply(Input::Cancel { id })?;
                }
                return Ok(());
            }
            for id in active {
                self.apply(Input::Started { id })?;
                self.apply(Input::Finished { id, error: None })?;
            }
        }
        Err("the engine kept admitting work".into())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn engine_conserves_every_accepted_job(
        queue_depth in 0usize..5,
        max_running in 1usize..4,
        ops in prop::collection::vec((0u8..16, 0u64..IDS), 0..48),
    ) {
        let mut m = Model::new(EngineConfig {
            queue_depth,
            max_running,
            retry_after_ms: 250,
        });
        for (kind, arg) in ops {
            m.apply(input(kind, arg))?;
        }
        m.drain()?;
        for &id in &m.accepted {
            let state = m.state(id).expect("accepted job is known");
            prop_assert!(state.is_terminal(), "job {id} ended {state:?}");
            let notified = m.finished.get(&id).map(|states| states[0].as_str());
            let expected = match (state, notified) {
                (JobState::Done, Some(n)) => n == "done",
                (JobState::Failed, Some(n)) => n.starts_with("failed:"),
                (JobState::Cancelled, Some(n)) => n == "cancelled",
                _ => false,
            };
            prop_assert!(expected, "job {id} is {state:?} but finished as {notified:?}");
            prop_assert_eq!(m.journaled.get(&id), Some(&1), "terminal journal events of {}", id);
        }
        let totals = m.engine.totals();
        prop_assert_eq!(totals.submitted as usize, m.accepted.len());
        prop_assert_eq!(
            totals.done + totals.failed + totals.cancelled,
            totals.submitted,
            "{:?}",
            totals
        );
        prop_assert_eq!(m.engine.draining(), m.stopped, "a drained shutdown must stop");
    }
}
