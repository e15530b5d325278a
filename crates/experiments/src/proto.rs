//! Line-delimited JSON wire protocol between sweep-service clients and
//! the `csmt-serve` daemon.
//!
//! Every message is one JSON object on one line. A connection carries a
//! sequence of client [`Request`]s; the daemon answers each with one
//! [`Response`] — except `Events`, which streams one `Response::Event`
//! line per job event and ends the stream with the job's
//! [`JobEvent::Finished`] event (the connection then accepts further
//! requests). Enums use the vendored serde's externally-tagged encoding,
//! e.g. `{"Submit":{"spec":{...}}}` and plain `"Stats"` for unit
//! variants.

use crate::spec::JobSpec;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Read, Write};

/// What a client can ask.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job. Answered with `Submitted` (possibly attached to an
    /// identical in-flight job) or `Rejected` (queue full / bad spec).
    Submit { spec: JobSpec },
    /// One-shot state query for a job id.
    Status { job: u64 },
    /// Stream the job's events from the beginning (history replays
    /// first), ending with its `Finished` event.
    Events { job: u64 },
    /// Cancel a queued job. Running jobs are not interrupted.
    Cancel { job: u64 },
    /// Daemon-wide counters.
    Stats,
    /// Stop accepting work and exit once running jobs finish. Queued
    /// jobs stay journaled and are recovered by the next daemon.
    Shutdown,
}

/// What the daemon answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Job accepted. `attached = true` means an identical job was
    /// already queued or running and this submission joined it.
    Submitted { job: u64, attached: bool },
    /// Job refused. `retry_after_ms` > 0 marks backpressure (admission
    /// queue full): retry after the hint. `retry_after_ms == 0` marks a
    /// permanent rejection (malformed spec) — do not retry.
    Rejected { reason: String, retry_after_ms: u64 },
    /// Current lifecycle state: `queued`, `running`, `done`, `failed`,
    /// or `cancelled`.
    Status { job: u64, state: String },
    /// One streamed job event.
    Event { job: u64, event: JobEvent },
    /// Daemon-wide counters.
    Stats { stats: ServeStats },
    /// The request could not be served (unknown job, cancel of a
    /// running job, ...).
    Error { message: String },
    /// Acknowledges `Shutdown`.
    ShuttingDown,
}

/// Progress events of one job, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    /// Admitted to the queue.
    Queued,
    /// Left the queue; simulations may now run.
    Started,
    /// One artifact's computation began.
    ArtifactStart { name: String },
    /// One artifact finished; `table_json` is the rendered
    /// [`crate::report::Table`] serialized with `to_json`, so clients
    /// reproduce the batch CLI's output byte-for-byte.
    ArtifactDone { name: String, table_json: String },
    /// Terminal event: `state` is `done`, `cancelled`, or
    /// `failed:<message>`.
    Finished { state: String },
}

/// Daemon-wide counters: job lifecycle totals plus the underlying
/// sweep-layer counters (store traffic, simulation outcomes, executor
/// activity), flattened for a stable wire shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    pub jobs_submitted: u64,
    pub jobs_done: u64,
    pub jobs_failed: u64,
    pub jobs_cancelled: u64,
    pub jobs_queued: u64,
    pub jobs_running: u64,
    /// Store lookups served from disk ([`csmt_store::StoreCounters`]).
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_puts: u64,
    pub store_quarantined: u64,
    /// Simulation outcomes ([`csmt_store::OrchCounters`]): `sims_completed`
    /// counts actual simulations — the exactly-once witness.
    pub sims_completed: u64,
    pub sims_failed: u64,
    /// Executor traffic ([`csmt_store::ExecCounters`]).
    pub exec_workers: u64,
    pub exec_executed: u64,
}

/// Write one message as a JSON line and flush it (the peer blocks on the
/// newline).
pub fn write_line<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let text = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(text.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Longest request line the daemon reads, in bytes, newline excluded.
/// A longer line ends its connection with an `InvalidData` error, so one
/// client cannot grow daemon memory without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Bytes of an offending line (or parser message) quoted in an error.
const QUOTE_BYTES: usize = 200;

/// Read the next non-empty line and parse it as a [`Request`]. `None` on
/// clean EOF. Errors (each ends the connection): `InvalidData` for a line
/// over [`MAX_REQUEST_LINE`], non-UTF-8 or malformed JSON (including
/// nesting deeper than [`serde_json::MAX_DEPTH`]), and `UnexpectedEof`
/// for a peer that closed the connection mid-line.
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    read_parsed(r, MAX_REQUEST_LINE)
}

/// Read the next non-empty line and parse it as a [`Response`]. `None`
/// on clean EOF. Unbounded: a response carries whole rendered tables.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Option<Response>> {
    read_parsed(r, usize::MAX)
}

/// At most [`QUOTE_BYTES`] of `text`, cut on a character boundary.
fn clip(text: &str) -> String {
    if text.len() <= QUOTE_BYTES {
        return text.to_string();
    }
    let mut end = QUOTE_BYTES;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}...", &text[..end])
}

fn read_parsed<T: Deserialize>(r: &mut impl BufRead, limit: usize) -> io::Result<Option<T>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    loop {
        let mut line = Vec::new();
        // One byte past the limit tells an oversized line from one that
        // ends exactly at it (its newline is that byte).
        let take = (limit as u64).saturating_add(1);
        r.by_ref().take(take).read_until(b'\n', &mut line)?;
        if line.is_empty() {
            return Ok(None);
        }
        let terminated = line.last() == Some(&b'\n');
        if terminated {
            line.pop();
        }
        if line.len() > limit {
            return Err(invalid(format!(
                "protocol line longer than {limit} bytes: '{}'",
                clip(&String::from_utf8_lossy(
                    &line[..QUOTE_BYTES.min(line.len())]
                ))
            )));
        }
        let text = std::str::from_utf8(&line).map_err(|_| {
            invalid(format!(
                "protocol line is not UTF-8: '{}'",
                clip(&String::from_utf8_lossy(&line))
            ))
        })?;
        let trimmed = text.trim();
        if trimmed.is_empty() {
            if terminated {
                continue;
            }
            return Ok(None);
        }
        return match serde_json::from_str(trimmed) {
            Ok(msg) => Ok(Some(msg)),
            Err(_) if !terminated => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "connection closed mid-line after {} bytes: '{}'",
                    line.len(),
                    clip(trimmed)
                ),
            )),
            Err(e) => Err(invalid(format!(
                "bad protocol line '{}': {}",
                clip(trimmed),
                clip(&e.to_string())
            ))),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExpOptions;

    fn spec() -> JobSpec {
        JobSpec::new(vec!["fig2".into()], &ExpOptions::default())
    }

    #[test]
    fn requests_round_trip_the_wire() {
        let reqs = vec![
            Request::Submit { spec: spec() },
            Request::Status { job: 3 },
            Request::Events { job: 3 },
            Request::Cancel { job: 4 },
            Request::Stats,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_line(&mut buf, r).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for expect in &reqs {
            assert_eq!(read_request(&mut r).unwrap().as_ref(), Some(expect));
        }
        assert_eq!(read_request(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn responses_round_trip_the_wire() {
        let resps = vec![
            Response::Submitted {
                job: 1,
                attached: true,
            },
            Response::Rejected {
                reason: "queue full".into(),
                retry_after_ms: 250,
            },
            Response::Status {
                job: 1,
                state: "running".into(),
            },
            Response::Event {
                job: 1,
                event: JobEvent::ArtifactDone {
                    name: "fig2".into(),
                    table_json: "{}".into(),
                },
            },
            Response::Stats {
                stats: ServeStats {
                    jobs_submitted: 2,
                    sims_completed: 7,
                    sims_failed: 1,
                    ..ServeStats::default()
                },
            },
            Response::Error {
                message: "unknown job 9".into(),
            },
            Response::ShuttingDown,
        ];
        let mut buf = Vec::new();
        for r in &resps {
            write_line(&mut buf, r).unwrap();
        }
        let mut r = std::io::Cursor::new(buf);
        for expect in &resps {
            assert_eq!(read_response(&mut r).unwrap().as_ref(), Some(expect));
        }
        assert_eq!(read_response(&mut r).unwrap(), None);
    }

    #[test]
    fn blank_lines_are_skipped_and_junk_is_an_error() {
        let mut r = std::io::Cursor::new(b"\n\n\"Stats\"\nnot json\n".to_vec());
        assert_eq!(read_request(&mut r).unwrap(), Some(Request::Stats));
        let err = read_request(&mut r).unwrap_err();
        assert!(err.to_string().contains("not json"), "{err}");
    }

    #[test]
    fn oversized_request_lines_are_refused_with_a_short_quote() {
        let mut wire = vec![b'x'; MAX_REQUEST_LINE + 1];
        wire.extend_from_slice(b"\n\"Stats\"\n");
        let err = read_request(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(&MAX_REQUEST_LINE.to_string()), "{msg}");
        assert!(
            msg.len() < 2 * QUOTE_BYTES,
            "quote not clipped: {} bytes",
            msg.len()
        );

        // A line exactly at the limit is read (and here, rejected only as
        // bad JSON, with the quote still clipped).
        let mut wire = vec![b' '; MAX_REQUEST_LINE - 7];
        wire.extend_from_slice(b"\"Stats\"\n");
        assert_eq!(wire.len(), MAX_REQUEST_LINE + 1);
        let mut r = std::io::Cursor::new(wire);
        assert_eq!(read_request(&mut r).unwrap(), Some(Request::Stats));
        let mut wire = vec![b'y'; MAX_REQUEST_LINE];
        wire.push(b'\n');
        let err = read_request(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().len() < 3 * QUOTE_BYTES,
            "{}",
            err.to_string().len()
        );

        // Responses stay unbounded: tables can be large.
        let big = Response::Error {
            message: "z".repeat(MAX_REQUEST_LINE + 10),
        };
        let mut buf = Vec::new();
        write_line(&mut buf, &big).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_response(&mut r).unwrap(), Some(big));
    }

    #[test]
    fn a_peer_closing_mid_line_is_an_unexpected_eof() {
        let mut r = std::io::Cursor::new(b"\"Stats\"\n{\"Status\":{\"jo".to_vec());
        assert_eq!(read_request(&mut r).unwrap(), Some(Request::Stats));
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("mid-line"), "{err}");
        // A complete final message without its newline still parses.
        let mut r = std::io::Cursor::new(b"\"Shutdown\"".to_vec());
        assert_eq!(read_request(&mut r).unwrap(), Some(Request::Shutdown));
        assert_eq!(read_request(&mut r).unwrap(), None);
    }

    #[test]
    fn job_events_replay_in_order() {
        let events = vec![
            JobEvent::Queued,
            JobEvent::Started,
            JobEvent::ArtifactStart {
                name: "fig2".into(),
            },
            JobEvent::ArtifactDone {
                name: "fig2".into(),
                table_json: "{\"title\":\"t\"}".into(),
            },
            JobEvent::Finished {
                state: "done".into(),
            },
        ];
        for e in &events {
            let text = serde_json::to_string(e).unwrap();
            let back: JobEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(&back, e);
        }
    }
}
