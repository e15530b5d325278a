//! Sweep-service client: submit a spec, stream events, render artifacts.
//!
//! The client speaks the [`crate::proto`] line protocol over a Unix
//! socket (`--socket PATH`) or local TCP (`--connect HOST:PORT`), and
//! renders each finished artifact's table **byte-identically** to the
//! batch CLI: the daemon ships every table as JSON and the client prints
//! `table.render()` in submission order, so `csmt-experiments client`
//! and a plain `csmt-experiments` run of the same artifacts produce the
//! same stdout (and the same `--csv` files).
//!
//! The protocol logic lives in [`run_on`], which is generic over the
//! byte streams, so tests drive it against scripted transcripts without
//! a socket.

use crate::proto::{read_response, write_line, JobEvent, Request, Response, ServeStats};
use crate::report::Table;
use crate::spec::JobSpec;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

impl Endpoint {
    /// Open both directions of a connection to the daemon.
    pub fn connect(&self) -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        match self {
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                let r = s.try_clone()?;
                Ok((Box::new(r), Box::new(s)))
            }
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                let r = s.try_clone()?;
                Ok((Box::new(r), Box::new(s)))
            }
        }
    }
}

/// What the client should do besides streaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    pub spec: JobSpec,
    /// Also write `<artifact>.csv` / `.json` under this directory,
    /// exactly like the batch CLI's `--csv`.
    pub csv_dir: Option<String>,
    /// Render ASCII bar charts after each table (`--bars`).
    pub bars: bool,
    /// Suppress stderr progress lines.
    pub quiet: bool,
}

/// Terminal outcome of one client run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Job finished; artifacts were rendered.
    Done,
    /// The daemon's admission queue is full; retry after the hint.
    Backpressure { reason: String, retry_after_ms: u64 },
    /// Permanent rejection (malformed spec) or terminal job failure.
    Failed(String),
    /// The job was cancelled before it ran.
    Cancelled,
}

impl Outcome {
    /// Process exit code: 0 done, 1 failed/cancelled, 3 backpressure
    /// (distinct so scripts can retry only the retryable case).
    pub fn exit_code(&self) -> i32 {
        match self {
            Outcome::Done => 0,
            Outcome::Backpressure { .. } => 3,
            Outcome::Failed(_) | Outcome::Cancelled => 1,
        }
    }
}

/// Render the daemon's counters the way the client's stderr summary
/// prints them (job totals first, then the sweep-layer counters in the
/// batch CLI's own format).
pub fn render_serve_stats(s: &ServeStats) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "serve: {} submitted, {} done, {} failed, {} cancelled, {} queued, {} running",
        s.jobs_submitted,
        s.jobs_done,
        s.jobs_failed,
        s.jobs_cancelled,
        s.jobs_queued,
        s.jobs_running
    )
    .unwrap();
    let lookups = s.store_hits + s.store_misses;
    let warm = if lookups > 0 {
        100.0 * s.store_hits as f64 / lookups as f64
    } else {
        0.0
    };
    writeln!(
        out,
        "store: {} hits / {} misses ({warm:.1}% warm), {} records written, {} quarantined",
        s.store_hits, s.store_misses, s.store_puts, s.store_quarantined
    )
    .unwrap();
    writeln!(
        out,
        "jobs:  {} simulated, {} failed",
        s.sims_completed, s.sims_failed
    )
    .unwrap();
    writeln!(
        out,
        "exec:  {} workers, {} jobs executed",
        s.exec_workers, s.exec_executed
    )
    .unwrap();
    out
}

/// Submit, stream, render. Generic over the transport so tests can feed
/// a scripted server transcript; `out` receives exactly what the batch
/// CLI would print to stdout, `err` the progress/summary lines.
pub fn run_on(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    cfg: &ClientConfig,
    out: &mut impl Write,
    err: &mut impl Write,
) -> io::Result<Outcome> {
    write_line(
        writer,
        &Request::Submit {
            spec: cfg.spec.clone(),
        },
    )?;
    let job = match read_response(reader)? {
        Some(Response::Submitted { job, attached }) => {
            if !cfg.quiet {
                let how = if attached {
                    "attached to identical in-flight job"
                } else {
                    "accepted"
                };
                writeln!(err, "job {job}: {how}")?;
            }
            job
        }
        Some(Response::Rejected {
            reason,
            retry_after_ms,
        }) => {
            return Ok(if retry_after_ms > 0 {
                writeln!(
                    err,
                    "rejected (backpressure): {reason}; retry after {retry_after_ms} ms"
                )?;
                Outcome::Backpressure {
                    reason,
                    retry_after_ms,
                }
            } else {
                writeln!(err, "rejected: {reason}")?;
                Outcome::Failed(reason)
            });
        }
        other => return Err(unexpected(&other)),
    };
    write_line(writer, &Request::Events { job })?;
    let outcome = loop {
        match read_response(reader)? {
            Some(Response::Event { event, .. }) => match event {
                JobEvent::Queued | JobEvent::Started => {}
                JobEvent::ArtifactStart { name } => {
                    if !cfg.quiet {
                        writeln!(err, "job {job}: running {name}")?;
                    }
                }
                JobEvent::ArtifactDone { name, table_json } => {
                    let table = Table::from_json(&table_json).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad table for {name}: {e}"),
                        )
                    })?;
                    render_artifact(&table, &name, cfg, out, err)?;
                }
                JobEvent::Finished { state } => {
                    break match state.as_str() {
                        "done" => Outcome::Done,
                        "cancelled" => Outcome::Cancelled,
                        other => Outcome::Failed(other.to_string()),
                    };
                }
            },
            other => return Err(unexpected(&other)),
        }
    };
    // Run summary: the daemon's counters, on stderr like the batch CLI.
    write_line(writer, &Request::Stats)?;
    match read_response(reader)? {
        Some(Response::Stats { stats }) => {
            write!(err, "{}", render_serve_stats(&stats))?;
        }
        other => return Err(unexpected(&other)),
    }
    Ok(outcome)
}

/// Print one artifact the way the batch CLI does: rendered table (and
/// bars) to stdout, optional CSV/JSON files, `wrote ...` note to stderr.
fn render_artifact(
    table: &Table,
    name: &str,
    cfg: &ClientConfig,
    out: &mut impl Write,
    err: &mut impl Write,
) -> io::Result<()> {
    writeln!(out, "{}", table.render())?;
    if cfg.bars {
        writeln!(out, "{}", table.render_all_bars())?;
    }
    if let Some(dir) = &cfg.csv_dir {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{name}.csv");
        let jpath = format!("{dir}/{name}.json");
        std::fs::write(&path, table.to_csv())?;
        std::fs::write(&jpath, table.to_json())?;
        writeln!(err, "wrote {path} and {jpath}")?;
    }
    Ok(())
}

fn unexpected(r: &Option<Response>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        match r {
            Some(resp) => format!("unexpected daemon response: {resp:?}"),
            None => "daemon closed the connection mid-conversation".to_string(),
        },
    )
}

/// Connect to `endpoint` and run the client against the live daemon,
/// writing to this process's stdout/stderr.
pub fn run(endpoint: &Endpoint, cfg: &ClientConfig) -> io::Result<Outcome> {
    let (reader, mut writer) = endpoint.connect()?;
    let mut reader = BufReader::new(reader);
    let stdout = io::stdout();
    let stderr = io::stderr();
    run_on(
        &mut reader,
        &mut writer,
        cfg,
        &mut stdout.lock(),
        &mut stderr.lock(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExpOptions;

    fn cfg() -> ClientConfig {
        ClientConfig {
            spec: JobSpec::new(vec!["fig2".into()], &ExpOptions::default()),
            csv_dir: None,
            bars: false,
            quiet: true,
        }
    }

    fn table() -> Table {
        let mut t = Table::new("Fig 2", "category", vec!["A".into()]);
        t.push("row", vec![1.5]);
        t
    }

    /// Scripted daemon transcript → (outcome, stdout bytes).
    fn drive(responses: &[Response]) -> (Outcome, String) {
        let mut transcript = Vec::new();
        for r in responses {
            write_line(&mut transcript, r).unwrap();
        }
        let mut reader = io::Cursor::new(transcript);
        let mut writer = Vec::new();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let outcome = run_on(&mut reader, &mut writer, &cfg(), &mut out, &mut err).unwrap();
        (outcome, String::from_utf8(out).unwrap())
    }

    #[test]
    fn renders_tables_byte_identically_to_the_batch_cli() {
        let t = table();
        let (outcome, stdout) = drive(&[
            Response::Submitted {
                job: 1,
                attached: false,
            },
            Response::Event {
                job: 1,
                event: JobEvent::ArtifactDone {
                    name: "fig2".into(),
                    table_json: t.to_json(),
                },
            },
            Response::Event {
                job: 1,
                event: JobEvent::Finished {
                    state: "done".into(),
                },
            },
            Response::Stats {
                stats: ServeStats::default(),
            },
        ]);
        assert_eq!(outcome, Outcome::Done);
        // Exactly what the batch CLI prints: `println!("{}", render())`.
        assert_eq!(stdout, format!("{}\n", t.render()));
    }

    #[test]
    fn backpressure_maps_to_its_own_exit_code() {
        let (outcome, stdout) = drive(&[Response::Rejected {
            reason: "admission queue full".into(),
            retry_after_ms: 250,
        }]);
        assert_eq!(
            outcome,
            Outcome::Backpressure {
                reason: "admission queue full".into(),
                retry_after_ms: 250,
            }
        );
        assert_eq!(outcome.exit_code(), 3);
        assert!(stdout.is_empty(), "nothing rendered on rejection");
    }

    #[test]
    fn permanent_rejection_and_failure_exit_nonzero() {
        let (outcome, _) = drive(&[Response::Rejected {
            reason: "unknown artifact: fig99".into(),
            retry_after_ms: 0,
        }]);
        assert_eq!(outcome.exit_code(), 1);
        let (outcome, _) = drive(&[
            Response::Submitted {
                job: 2,
                attached: false,
            },
            Response::Event {
                job: 2,
                event: JobEvent::Finished {
                    state: "failed:boom".into(),
                },
            },
            Response::Stats {
                stats: ServeStats::default(),
            },
        ]);
        assert_eq!(outcome, Outcome::Failed("failed:boom".into()));
    }

    #[test]
    fn summary_renders_every_counter_group() {
        let s = render_serve_stats(&ServeStats {
            jobs_submitted: 2,
            jobs_done: 1,
            store_hits: 3,
            store_misses: 1,
            sims_completed: 4,
            sims_failed: 1,
            exec_workers: 2,
            exec_executed: 5,
            ..ServeStats::default()
        });
        assert!(s.contains("serve: 2 submitted, 1 done"), "{s}");
        assert!(s.contains("store: 3 hits / 1 misses (75.0% warm)"), "{s}");
        assert!(s.contains("jobs:  4 simulated, 1 failed"), "{s}");
        assert!(s.contains("exec:  2 workers, 5 jobs executed"), "{s}");
        assert_eq!(s.lines().count(), 4, "one line per counter group: {s}");
    }
}
