//! Socket adapters around the pure [`crate::engine`].
//!
//! The [`Server`] owns the shared infrastructure — one
//! [`ResultStore`] + [`Journal`], one [`SingleFlight`] table, one
//! memoizing [`Sweeps`] per option group — and translates between the
//! wire protocol and engine inputs. Each accepted connection runs
//! [`Server::handle_conn`] on its own thread; each admitted job runs on
//! its own worker thread, simulating through the same store-backed,
//! single-flight-coalesced sweep layer the batch CLI uses, so artifacts
//! are byte-identical to a local run and every RunKey simulates at most
//! once across all concurrent clients.
//!
//! All engine transitions go through [`Server::dispatch`]: lock the
//! engine, apply the input, unlock, then perform the returned effects
//! (journal writes, subscriber notifications, job-thread spawns). Only
//! the pure transition holds the lock, so effects can themselves
//! dispatch (a finishing job pumps the next queued job in) without
//! deadlock.

use crate::engine::{Effect, Engine, EngineConfig, Input};
use crate::recovery::recover;
use csmt_experiments::figures::run_named_all;
use csmt_experiments::proto::{read_request, write_line, JobEvent, Request, Response, ServeStats};
use csmt_experiments::spec::{JobSpec, SweepGroupKey};
use csmt_experiments::{RunOutput, Sweeps};
use csmt_store::{Journal, ResultStore, SingleFlight};
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Persistent store directory (shared with the batch CLI).
    pub store_dir: PathBuf,
    /// Admission/backpressure tuning.
    pub engine: EngineConfig,
    /// Executor worker threads per job (0 = `min(cores, 8)`).
    pub jobs: usize,
    /// Suppress stderr progress lines.
    pub quiet: bool,
}

/// Per-job event history plus a wakeup for streaming subscribers. The
/// history is append-only and replayed from the start for every
/// subscriber, so a client attaching late still sees every artifact.
struct JobLog {
    events: Mutex<Vec<JobEvent>>,
    wake: Condvar,
}

impl JobLog {
    fn new() -> JobLog {
        JobLog {
            events: Mutex::new(Vec::new()),
            wake: Condvar::new(),
        }
    }

    fn push(&self, event: JobEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
        self.wake.notify_all();
    }
}

/// Specs grouped by the options that shape store identity share one
/// memoizing `Sweeps`.
type SweepGroups = Mutex<HashMap<SweepGroupKey, Arc<Sweeps>>>;

struct Inner {
    cfg: ServerConfig,
    engine: Mutex<Engine>,
    store: Arc<ResultStore>,
    journal: Arc<Journal>,
    flight: Arc<SingleFlight<RunOutput>>,
    sweeps: SweepGroups,
    logs: Mutex<HashMap<u64, Arc<JobLog>>>,
    /// Set by the engine's `Stop` effect: accept loops exit.
    stopped: AtomicBool,
}

/// The daemon. Cheap to clone; clones share all state.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Open the store and journal under `cfg.store_dir`, replay the
    /// journal's serve events, and re-queue every unfinished job (their
    /// worker threads start immediately; already-persisted simulations
    /// come back as store hits).
    pub fn new(cfg: ServerConfig) -> io::Result<Server> {
        let store = Arc::new(ResultStore::open(&cfg.store_dir)?);
        let journal = Arc::new(Journal::open(&cfg.store_dir)?);
        let recovered = recover(&Journal::read(journal.path()));
        let server = Server {
            inner: Arc::new(Inner {
                engine: Mutex::new(Engine::new(cfg.engine)),
                cfg,
                store,
                journal,
                flight: Arc::new(SingleFlight::new()),
                sweeps: Mutex::new(HashMap::new()),
                logs: Mutex::new(HashMap::new()),
                stopped: AtomicBool::new(false),
            }),
        };
        for (id, state) in &recovered.terminal {
            server.dispatch(Input::RecoverTerminal {
                id: *id,
                state: *state,
            });
            // Late subscribers of a terminal job still get a stream:
            // just its final word.
            server.log_for(*id).push(JobEvent::Finished {
                state: state.name().to_string(),
            });
        }
        for (id, canonical) in &recovered.unfinished {
            if !server.inner.cfg.quiet {
                eprintln!("recovery: re-running job {id}");
            }
            server.dispatch(Input::Recover {
                id: *id,
                canonical: canonical.clone(),
            });
        }
        Ok(server)
    }

    /// True once a shutdown has fully drained: accept loops should exit.
    pub fn stopped(&self) -> bool {
        self.inner.stopped.load(Ordering::SeqCst)
    }

    /// The journal path (tests poke it).
    pub fn journal_path(&self) -> PathBuf {
        self.inner.journal.path().to_path_buf()
    }

    /// Daemon-wide counters: engine job totals plus the sweep layer's
    /// store/orchestrator/executor/single-flight counters.
    pub fn stats(&self) -> ServeStats {
        let totals = self
            .inner
            .engine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .totals();
        let store = self.inner.store.counters();
        let flight = self.inner.flight.counters();
        let mut stats = ServeStats {
            jobs_submitted: totals.submitted,
            jobs_done: totals.done,
            jobs_failed: totals.failed,
            jobs_cancelled: totals.cancelled,
            jobs_queued: totals.queued,
            jobs_running: totals.running,
            store_hits: store.hits,
            store_misses: store.misses,
            store_puts: store.puts,
            store_quarantined: store.quarantined,
            flights_led: flight.led,
            flights_coalesced: flight.coalesced,
            ..ServeStats::default()
        };
        // The store/flight counters are global (shared Arcs); the
        // orchestrator and executor live per sweep group, so sum them.
        let groups = self.inner.sweeps.lock().unwrap_or_else(|e| e.into_inner());
        for sweeps in groups.values() {
            let c = sweeps.counters();
            stats.sims_completed += c.orch.completed;
            stats.sims_retried += c.orch.retries;
            stats.sims_failed += c.orch.failures;
            stats.exec_workers = stats.exec_workers.max(c.exec.workers);
            stats.exec_executed += c.exec.executed;
            stats.exec_steals += c.exec.steals;
        }
        stats
    }

    /// Apply one input to the engine and perform the resulting effects.
    /// Returns the effects so request handlers can extract their reply.
    fn dispatch(&self, input: Input) -> Vec<Effect> {
        let fx = self
            .inner
            .engine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .handle(input);
        for effect in &fx {
            match effect {
                Effect::Journal(kind) => self.inner.journal.log(kind.clone()),
                Effect::Notify { id, event } => self.log_for(*id).push(event.clone()),
                Effect::Start { id, canonical } => {
                    let server = self.clone();
                    let id = *id;
                    let canonical = canonical.clone();
                    std::thread::spawn(move || server.run_job(id, &canonical));
                }
                Effect::Stop => {
                    self.inner.stopped.store(true, Ordering::SeqCst);
                    // Wake every event subscriber so none outlives the
                    // daemon blocked on a stranded queued job.
                    let logs = self.inner.logs.lock().unwrap_or_else(|e| e.into_inner());
                    for log in logs.values() {
                        log.wake.notify_all();
                    }
                }
                // Replies; the request handler picks these up.
                Effect::Accepted { .. } | Effect::Rejected { .. } | Effect::CancelFailed { .. } => {
                }
            }
        }
        fx
    }

    fn log_for(&self, id: u64) -> Arc<JobLog> {
        self.inner
            .logs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(id)
            .or_insert_with(|| Arc::new(JobLog::new()))
            .clone()
    }

    /// The memoizing sweep store for one option group, shared by every
    /// job with the same (target, warmup, max_cycles, batch).
    fn sweeps_for(&self, spec: &JobSpec) -> Arc<Sweeps> {
        self.inner
            .sweeps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(spec.sweep_group())
            .or_insert_with(|| {
                Arc::new(Sweeps::with_shared_store(
                    spec.to_options(self.inner.cfg.jobs, false),
                    self.inner.store.clone(),
                    self.inner.journal.clone(),
                    self.inner.flight.clone(),
                ))
            })
            .clone()
    }

    /// One admitted job's worker: parse the spec, produce each artifact
    /// through the shared sweep layer, stream progress, report the
    /// terminal state back to the engine.
    fn run_job(&self, id: u64, canonical: &str) {
        self.dispatch(Input::Started { id });
        let log = self.log_for(id);
        let error = match JobSpec::parse(canonical) {
            Err(e) => Some(e),
            Ok(spec) => {
                let sweeps = self.sweeps_for(&spec);
                let mut failure = None;
                for name in &spec.artifacts {
                    log.push(JobEvent::ArtifactStart { name: name.clone() });
                    let produced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_named_all(name, &sweeps)
                    }));
                    match produced {
                        // Sampled jobs render companion `<name>-ci`
                        // tables; each streams as its own ArtifactDone so
                        // the client writes one CSV/JSON per table.
                        Ok(Some(tables)) => {
                            for (tname, table) in &tables {
                                log.push(JobEvent::ArtifactDone {
                                    name: tname.clone(),
                                    table_json: table.to_json(),
                                });
                            }
                        }
                        Ok(None) => {
                            failure = Some(format!("unknown artifact: {name}"));
                            break;
                        }
                        Err(_) => {
                            failure = Some(format!("artifact {name} panicked"));
                            break;
                        }
                    }
                }
                failure
            }
        };
        self.dispatch(Input::Finished { id, error });
    }

    /// Serve one connection: a sequence of requests, one reply each —
    /// except `Events`, which streams until the job's terminal event.
    /// Generic over the byte streams so tests drive it with socket
    /// pairs (or anything `Read + Write`).
    pub fn handle_conn<R: Read, W: Write>(&self, reader: R, mut writer: W) -> io::Result<()> {
        let mut reader = BufReader::new(reader);
        while let Some(request) = read_request(&mut reader)? {
            match request {
                Request::Submit { spec } => {
                    let reply = match spec.validate() {
                        Err(reason) => Response::Rejected {
                            reason,
                            retry_after_ms: 0,
                        },
                        Ok(()) => self.submit(&spec),
                    };
                    write_line(&mut writer, &reply)?;
                }
                Request::Status { job } => {
                    let state = self
                        .inner
                        .engine
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .state(job);
                    let reply = match state {
                        Some(s) => Response::Status {
                            job,
                            state: s.name().to_string(),
                        },
                        None => Response::Error {
                            message: format!("unknown job {job}"),
                        },
                    };
                    write_line(&mut writer, &reply)?;
                }
                Request::Events { job } => self.stream_events(job, &mut writer)?,
                Request::Cancel { job } => {
                    let fx = self.dispatch(Input::Cancel { id: job });
                    let reply = fx
                        .iter()
                        .find_map(|f| match f {
                            Effect::CancelFailed { reason, .. } => Some(Response::Error {
                                message: reason.clone(),
                            }),
                            _ => None,
                        })
                        .unwrap_or(Response::Status {
                            job,
                            state: "cancelled".to_string(),
                        });
                    write_line(&mut writer, &reply)?;
                }
                Request::Stats => {
                    write_line(
                        &mut writer,
                        &Response::Stats {
                            stats: self.stats(),
                        },
                    )?;
                }
                Request::Shutdown => {
                    // Answer before draining: an idle daemon stops at
                    // once, and its process can exit before a later write.
                    let answered = write_line(&mut writer, &Response::ShuttingDown);
                    self.dispatch(Input::Shutdown);
                    answered?;
                }
            }
        }
        Ok(())
    }

    fn submit(&self, spec: &JobSpec) -> Response {
        let fx = self.dispatch(Input::Submit {
            canonical: spec.canonical(),
        });
        fx.iter()
            .find_map(|f| match f {
                Effect::Accepted { id, attached } => Some(Response::Submitted {
                    job: *id,
                    attached: *attached,
                }),
                Effect::Rejected {
                    reason,
                    retry_after_ms,
                } => Some(Response::Rejected {
                    reason: reason.clone(),
                    retry_after_ms: *retry_after_ms,
                }),
                _ => None,
            })
            .unwrap_or(Response::Error {
                message: "submission produced no decision".to_string(),
            })
    }

    /// Replay a job's history, then follow live events until its
    /// terminal event (or daemon shutdown).
    fn stream_events(&self, job: u64, writer: &mut impl Write) -> io::Result<()> {
        let known = self
            .inner
            .engine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .state(job)
            .is_some();
        if !known {
            return write_line(
                writer,
                &Response::Error {
                    message: format!("unknown job {job}"),
                },
            );
        }
        let log = self.log_for(job);
        let mut cursor = 0usize;
        loop {
            let batch: Vec<JobEvent> = {
                let mut events = log.events.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if events.len() > cursor {
                        break events[cursor..].to_vec();
                    }
                    if self.stopped() {
                        return write_line(
                            writer,
                            &Response::Error {
                                message: "daemon shut down before the job finished".to_string(),
                            },
                        );
                    }
                    let (guard, _) = log
                        .wake
                        .wait_timeout(events, Duration::from_millis(200))
                        .unwrap_or_else(|e| e.into_inner());
                    events = guard;
                }
            };
            for event in batch {
                cursor += 1;
                let terminal = matches!(event, JobEvent::Finished { .. });
                write_line(writer, &Response::Event { job, event })?;
                if terminal {
                    return Ok(());
                }
            }
        }
    }
}
