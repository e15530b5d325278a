//! Socket adapters around the pure [`crate::engine`].
//!
//! The [`Server`] owns the shared infrastructure — one
//! [`ResultStore`] + [`Journal`] and one memoizing [`Sweeps`] per option
//! group — and translates between the wire protocol and engine inputs.
//! Each accepted connection runs [`Server::handle_conn`] on its own
//! thread; each admitted job runs on its own worker thread, simulating
//! through the same store-backed sweep layer the batch CLI uses, so
//! artifacts are byte-identical to a local run. The groups partition the
//! store's keys, and a group's memo holds in-flight runs too, so every
//! run simulates at most once across all concurrent clients.
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
use csmt_experiments::Sweeps;
use csmt_store::{Journal, ResultStore};
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
/// history is replayed from the start for every subscriber, so a client
/// attaching while the job runs still sees every artifact. Once the job
/// is terminal and no connection can still replay it, only the final
/// `Finished` event is kept: late subscribers get the final word, as for
/// a job recovered from the journal, and a long-lived daemon does not
/// keep every finished job's tables.
struct JobLog {
    state: Mutex<LogState>,
    wake: Condvar,
}

#[derive(Default)]
struct LogState {
    events: Vec<JobEvent>,
    /// Connections that may still replay the history: each submitter
    /// until it has streamed the job (or hung up), and each `Events`
    /// stream until it returns.
    readers: usize,
}

impl LogState {
    fn compact(&mut self) {
        let terminal = matches!(self.events.last(), Some(JobEvent::Finished { .. }));
        if terminal && self.readers == 0 && self.events.len() > 1 {
            self.events.drain(..self.events.len() - 1);
            self.events.shrink_to_fit();
        }
    }
}

impl JobLog {
    fn new() -> JobLog {
        JobLog {
            state: Mutex::new(LogState::default()),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, event: JobEvent) {
        let mut state = self.lock();
        state.events.push(event);
        state.compact();
        drop(state);
        self.wake.notify_all();
    }
}

/// One reader's claim on a job's full history; dropping it may compact
/// the log.
struct ReadHold(Arc<JobLog>);

impl ReadHold {
    /// Count a new reader.
    fn new(log: Arc<JobLog>) -> ReadHold {
        log.lock().readers += 1;
        ReadHold(log)
    }
}

impl Drop for ReadHold {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.readers = state.readers.saturating_sub(1);
        state.compact();
    }
}

/// Specs grouped by the options that shape store identity share one
/// memoizing `Sweeps`, so each run has exactly one memo in the daemon.
type SweepGroups = Mutex<HashMap<SweepGroupKey, Arc<Sweeps>>>;

struct Inner {
    cfg: ServerConfig,
    engine: Mutex<Engine>,
    store: Arc<ResultStore>,
    journal: Arc<Journal>,
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
    /// store/orchestrator/executor counters.
    pub fn stats(&self) -> ServeStats {
        let totals = self
            .inner
            .engine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .totals();
        let store = self.inner.store.counters();
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
            ..ServeStats::default()
        };
        // The store counters are global (a shared Arc); the orchestrator
        // and executor live per sweep group, so sum them.
        let groups = self.inner.sweeps.lock().unwrap_or_else(|e| e.into_inner());
        for sweeps in groups.values() {
            let c = sweeps.counters();
            stats.sims_completed += c.orch.completed;
            stats.sims_failed += c.orch.failures;
            stats.exec_workers = stats.exec_workers.max(c.exec.workers);
            stats.exec_executed += c.exec.executed;
        }
        stats
    }

    /// Apply one input to the engine and perform the resulting effects.
    /// Returns the effects so request handlers can extract their reply.
    fn dispatch(&self, input: Input) -> Vec<Effect> {
        let fx = {
            let mut engine = self.inner.engine.lock().unwrap_or_else(|e| e.into_inner());
            let fx = engine.handle(input);
            // Count the submitter as a reader of the accepted job before
            // the engine lets the job finish, so its history cannot be
            // compacted before the submitter streams it.
            for effect in &fx {
                if let Effect::Accepted { id, .. } = effect {
                    self.log_for(*id).lock().readers += 1;
                }
            }
            fx
        };
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
    /// job with the same (target, warmup, max_cycles, sample). The group
    /// runs with the options of the spec that created it: `batch` only
    /// changes how runs execute, never what they produce.
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
        // The reader counts `dispatch` took for this connection's
        // accepted submissions, released once it has streamed the job
        // or when it hangs up.
        let mut submitted: Vec<(u64, ReadHold)> = Vec::new();
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
                    if let Response::Submitted { job, .. } = reply {
                        submitted.push((job, ReadHold(self.log_for(job))));
                    }
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
                Request::Events { job } => {
                    self.stream_events(job, &mut writer)?;
                    submitted.retain(|(id, _)| *id != job);
                }
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
        let hold = ReadHold::new(self.log_for(job));
        let log = &hold.0;
        let mut cursor = 0usize;
        loop {
            let batch: Vec<JobEvent> = {
                let mut state = log.lock();
                loop {
                    if state.events.len() > cursor {
                        break state.events[cursor..].to_vec();
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
                        .wait_timeout(state, Duration::from_millis(200))
                        .unwrap_or_else(|e| e.into_inner());
                    state = guard;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use csmt_experiments::client::{run_on, ClientConfig, Outcome};
    use csmt_experiments::runner::ExpOptions;
    use std::os::unix::net::UnixStream;

    /// Events each job's log retains.
    fn retained(server: &Server) -> HashMap<u64, usize> {
        let logs = server.inner.logs.lock().unwrap_or_else(|e| e.into_inner());
        logs.iter()
            .map(|(&id, log)| (id, log.lock().events.len()))
            .collect()
    }

    #[test]
    fn terminal_jobs_keep_only_their_final_event() {
        let dir = std::env::temp_dir().join(format!("csmt-serve-logs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::new(ServerConfig {
            store_dir: dir.clone(),
            engine: EngineConfig {
                queue_depth: 4,
                max_running: 1,
                retry_after_ms: 250,
            },
            jobs: 2,
            quiet: true,
        })
        .expect("server opens");
        // One long-lived connection, as a closed-loop client keeps.
        let (client, srv) = UnixStream::pair().expect("socketpair");
        let s = server.clone();
        let conn = std::thread::spawn(move || {
            let reader = srv.try_clone().expect("clone server end");
            s.handle_conn(reader, srv)
        });
        let mut reader = std::io::BufReader::new(client.try_clone().expect("clone client end"));
        let mut writer = client;
        // fig2 jobs whose event logs differ in size: one or two figures,
        // cold and memoized.
        let jobs: [&[&str]; 4] = [&["fig2"], &["fig2", "fig3"], &["fig2"], &["fig3", "fig2"]];
        for (n, artifacts) in jobs.into_iter().enumerate() {
            let opts = ExpOptions {
                commit_target: 10,
                warmup: 0,
                verbose: false,
                batch: true,
                ..ExpOptions::default()
            };
            let cfg = ClientConfig {
                spec: JobSpec::new(artifacts.iter().map(|a| a.to_string()).collect(), &opts),
                csv_dir: None,
                bars: false,
                quiet: true,
            };
            let mut out = Vec::new();
            let outcome = run_on(&mut reader, &mut writer, &cfg, &mut out, &mut Vec::new())
                .expect("client round trip");
            assert_eq!(outcome, Outcome::Done);
            // The client saw every table before its job was compacted.
            let tables = String::from_utf8(out).expect("utf-8 tables");
            assert!(tables.matches("Figure 2").count() >= 1, "{tables}");
            let kept = retained(&server);
            assert_eq!(kept.len(), n + 1);
            assert!(
                kept.values().all(|&events| events == 1),
                "a terminal job kept more than its final event: {kept:?}"
            );
        }
        drop(writer);
        drop(reader);
        conn.join()
            .expect("connection thread")
            .expect("connection ends cleanly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
