//! Append-only JSONL event journal.
//!
//! Every sweep run appends structured events to `<store>/journal.jsonl`.
//! Each line is one [`Event`]: a `run_id` (monotonically increasing across
//! runs of the same store — no wall clocks involved), a per-run monotonic
//! `seq`, and an [`EventKind`] carrying the run identity fields
//! (workload/scheme/config) so tests and tooling can assert on exactly
//! what a sweep did. Lines are flushed as they are written, so the journal
//! survives a `kill -9` mid-sweep and `--resume` can pick up from it.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Identity of one simulation job inside an event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobDesc {
    /// Workload label.
    pub label: String,
    /// Issue-queue scheme name.
    pub iq: String,
    /// Register-file scheme name.
    pub rf: String,
    /// Configuration variant label.
    pub cfg: String,
}

impl std::fmt::Display for JobDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}+{}/{}", self.label, self.iq, self.rf, self.cfg)
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A sweep process started with these requested artifacts.
    RunStart { artifacts: Vec<String> },
    /// An artifact's figure computation began.
    ArtifactStart { artifact: String },
    /// An artifact completed (its table was rendered).
    ArtifactEnd { artifact: String },
    /// A job was served from the persistent store.
    CacheHit { job: JobDesc },
    /// A job had no usable record and will be simulated.
    CacheMiss { job: JobDesc },
    /// A corrupt record was quarantined during lookup.
    Quarantined { job: JobDesc },
    /// A simulation began.
    JobStart { job: JobDesc },
    /// A simulation finished; wall time in milliseconds.
    JobOk { job: JobDesc, wall_ms: u64 },
    /// A simulation panicked. `attempt` is 1-based; a job runs once, so
    /// it is 1 (journals from builds that retried may hold larger values).
    JobPanic {
        job: JobDesc,
        attempt: u32,
        error: String,
    },
    /// The job is recorded as failed after its panic and the sweep
    /// continues; `attempts` is 1 (larger in journals from builds that
    /// retried).
    JobFailed { job: JobDesc, attempts: u32 },
    /// The sweep process finished cleanly.
    RunEnd { artifacts: usize },
    /// The sweep service accepted a job submission. `spec` is the
    /// canonical JSON of the submitted spec, so a restarted daemon can
    /// re-run the job without the client resubmitting.
    ServeSubmit { job_id: u64, spec: String },
    /// A serve job left the queue and began executing.
    ServeStart { job_id: u64 },
    /// A serve job completed successfully.
    ServeDone { job_id: u64 },
    /// A serve job failed terminally.
    ServeFailed { job_id: u64, error: String },
    /// A serve job was cancelled before it started running.
    ServeCancelled { job_id: u64 },
}

/// One journal line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    pub run_id: u64,
    pub seq: u64,
    pub kind: EventKind,
}

/// Appending journal writer for one run.
///
/// The writer is safe to share across sweep workers: `seq` is assigned
/// **under the same lock** as the file append, so the on-disk line order
/// always matches the sequence order — event `seq = k` is the `k`-th line
/// this run wrote, however many threads are logging. (A separate atomic
/// counter would let a worker grab `seq = 4`, lose the CPU, and have
/// `seq = 5` hit the disk first — a torn tail after a crash would then
/// eat the wrong event.)
pub struct Journal {
    path: PathBuf,
    run_id: u64,
    writer: Mutex<Writer>,
}

/// Sequence counter + file handle, advanced together under one lock.
struct Writer {
    seq: u64,
    file: fs::File,
}

impl Journal {
    /// Open `journal.jsonl` under `store_root` for appending, assigning
    /// this run the next `run_id` (1 + the largest seen in the file; 1 for
    /// a fresh journal).
    pub fn open(store_root: impl AsRef<Path>) -> io::Result<Journal> {
        let root = store_root.as_ref();
        fs::create_dir_all(root)?;
        let path = root.join("journal.jsonl");
        let bytes = fs::read(&path).unwrap_or_default();
        let run_id = parse(&bytes).iter().map(|e| e.run_id).max().unwrap_or(0) + 1;
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        // A crash mid-write leaves a torn final line with no newline. End
        // it, or this run's first event would fuse with the fragment and
        // be skipped as unparseable on read.
        if bytes.last().is_some_and(|&b| b != b'\n') {
            file.write_all(b"\n")?;
        }
        Ok(Journal {
            path,
            run_id,
            writer: Mutex::new(Writer { seq: 0, file }),
        })
    }

    /// This run's id.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// Journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event, assigning the next sequence number under the
    /// writer lock (see the type docs: seq order == file order). Flushed
    /// immediately; write errors are swallowed (the journal is telemetry —
    /// it must never take a sweep down).
    pub fn log(&self, kind: EventKind) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let event = Event {
            run_id: self.run_id,
            seq: w.seq,
            kind,
        };
        w.seq += 1;
        if let Ok(mut line) = serde_json::to_string(&event) {
            // One write per line: a crash can tear the line, but never
            // separate it from its newline.
            line.push('\n');
            let _ = w.file.write_all(line.as_bytes());
            let _ = w.file.flush();
        }
    }

    /// Parse a journal file. Unparseable lines (e.g. a torn final line
    /// after a crash) are skipped. The file is read as raw bytes and each
    /// line decoded independently: a crash mid-write can tear a multi-byte
    /// UTF-8 sequence (or leave arbitrary garbage), and one bad line must
    /// not discard the whole journal the way a failed
    /// `read_to_string` would.
    pub fn read(path: impl AsRef<Path>) -> Vec<Event> {
        fs::read(path).map(|b| parse(&b)).unwrap_or_default()
    }

    /// Artifacts that ran to completion in the most recent *unfinished*
    /// run — the resume set. Returns `None` if the journal is absent, the
    /// last run ended cleanly ([`EventKind::RunEnd`]) or nothing was
    /// completed: there is nothing to resume from.
    pub fn resumable_artifacts(path: impl AsRef<Path>) -> Option<Vec<String>> {
        let events = Self::read(path);
        let last = events.iter().map(|e| e.run_id).max()?;
        let last_run: Vec<&Event> = events.iter().filter(|e| e.run_id == last).collect();
        if last_run
            .iter()
            .any(|e| matches!(e.kind, EventKind::RunEnd { .. }))
        {
            return None;
        }
        let done: Vec<String> = last_run
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::ArtifactEnd { artifact } => Some(artifact.clone()),
                _ => None,
            })
            .collect();
        if done.is_empty() {
            None
        } else {
            Some(done)
        }
    }
}

/// The events of a journal's bytes, skipping lines that do not parse.
fn parse(bytes: &[u8]) -> Vec<Event> {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(|l| std::str::from_utf8(l).ok())
        .filter_map(|l| serde_json::from_str::<Event>(l).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("csmt-journal-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn job() -> JobDesc {
        JobDesc {
            label: "mixes/mix.2.1".into(),
            iq: "CSSP".into(),
            rf: "CDPRF".into(),
            cfg: "rf64".into(),
        }
    }

    #[test]
    fn events_carry_monotonic_seq_and_run_id() {
        let dir = tmp("seq");
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.run_id(), 1);
        j.log(EventKind::RunStart {
            artifacts: vec!["fig2".into()],
        });
        j.log(EventKind::CacheMiss { job: job() });
        j.log(EventKind::JobStart { job: job() });
        let events = Journal::read(j.path());
        assert_eq!(events.len(), 3);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.run_id, 1);
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(
            events[1].kind,
            EventKind::CacheMiss { job: job() },
            "identity fields must round-trip"
        );
    }

    #[test]
    fn concurrent_writers_keep_file_order_equal_to_seq_order() {
        // Eight threads log concurrently; the journal must come back with
        // seq 0..n in file order — the invariant sweep workers rely on
        // when a torn tail is dropped after a crash.
        let dir = tmp("concurrent");
        let j = Journal::open(&dir).unwrap();
        let threads = 8;
        let per_thread = 50u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let j = &j;
                s.spawn(move || {
                    for i in 0..per_thread {
                        j.log(EventKind::JobOk {
                            job: job(),
                            wall_ms: t * 1000 + i,
                        });
                    }
                });
            }
        });
        let events = Journal::read(j.path());
        assert_eq!(events.len(), (threads * per_thread) as usize);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "file order must equal seq order");
            assert_eq!(e.run_id, 1);
        }
        // Nothing torn or interleaved: every thread's 50 events arrived.
        for t in 0..threads {
            let n = events
                .iter()
                .filter(
                    |e| matches!(e.kind, EventKind::JobOk { wall_ms, .. } if wall_ms / 1000 == t),
                )
                .count();
            assert_eq!(n, per_thread as usize, "thread {t} lost events");
        }
    }

    #[test]
    fn run_ids_increase_across_opens() {
        let dir = tmp("runid");
        {
            let j = Journal::open(&dir).unwrap();
            j.log(EventKind::RunStart { artifacts: vec![] });
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.run_id(), 2);
    }

    #[test]
    fn torn_trailing_line_is_skipped() {
        let dir = tmp("torn");
        let j = Journal::open(&dir).unwrap();
        j.log(EventKind::RunStart { artifacts: vec![] });
        drop(j);
        let path = dir.join("journal.jsonl");
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"run_id\":1,\"seq\":9,\"kind\""); // simulated crash mid-write
        fs::write(&path, text).unwrap();
        assert_eq!(Journal::read(&path).len(), 1);
        // And the next run still gets a fresh id, and its first event
        // starts a line of its own instead of fusing with the fragment.
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.run_id(), 2);
        j.log(EventKind::RunStart { artifacts: vec![] });
        drop(j);
        let runs: Vec<(u64, u64)> = Journal::read(&path)
            .iter()
            .map(|e| (e.run_id, e.seq))
            .collect();
        assert_eq!(runs, [(1, 0), (2, 0)], "run 2's first event was lost");
    }

    #[test]
    fn torn_line_with_invalid_utf8_does_not_lose_the_journal() {
        // A kill -9 mid-write can truncate the final line anywhere —
        // including inside a multi-byte UTF-8 sequence. Earlier journal
        // events must survive such a tail byte-for-byte.
        let dir = tmp("torn-utf8");
        let j = Journal::open(&dir).unwrap();
        j.log(EventKind::RunStart {
            artifacts: vec!["fig2".into()],
        });
        j.log(EventKind::ArtifactEnd {
            artifact: "fig2".into(),
        });
        drop(j);
        let path = dir.join("journal.jsonl");
        let mut bytes = fs::read(&path).unwrap();
        // Torn line ending in the first byte of a two-byte sequence ('é').
        bytes.extend_from_slice(
            b"{\"run_id\":1,\"seq\":9,\"kind\":{\"JobPanic\":{\"error\":\"caf\xc3",
        );
        fs::write(&path, &bytes).unwrap();
        let events = Journal::read(&path);
        assert_eq!(events.len(), 2, "valid prefix must survive a torn tail");
        assert_eq!(
            Journal::resumable_artifacts(&path),
            Some(vec!["fig2".to_string()]),
            "resume set must come from the surviving events"
        );
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.run_id(), 2, "run ids must keep increasing");
    }

    #[test]
    fn truncation_drill_at_every_byte_boundary() {
        // Chop the journal after every possible byte count and require the
        // reader to recover exactly the fully-written lines.
        let dir = tmp("drill");
        let j = Journal::open(&dir).unwrap();
        j.log(EventKind::RunStart {
            artifacts: vec!["fig2".into()],
        });
        j.log(EventKind::JobOk {
            job: job(),
            wall_ms: 12,
        });
        j.log(EventKind::RunEnd { artifacts: 1 });
        drop(j);
        let path = dir.join("journal.jsonl");
        let bytes = fs::read(&path).unwrap();
        let full = Journal::read(&path);
        assert_eq!(full.len(), 3);
        let cut = dir.join("cut.jsonl");
        for n in 0..=bytes.len() {
            fs::write(&cut, &bytes[..n]).unwrap();
            let got = Journal::read(&cut);
            // Everything recovered must be a prefix of the real history —
            // at least the newline-terminated lines (a cut between a line
            // and its newline may legitimately recover one more).
            let complete = bytes[..n].iter().filter(|&&b| b == b'\n').count();
            assert!(
                got.len() >= complete,
                "cut at byte {n}: lost a fully-written line ({} < {complete})",
                got.len()
            );
            assert_eq!(
                got[..],
                full[..got.len()],
                "cut at byte {n}: recovered events must be a prefix of the history"
            );
        }
    }

    #[test]
    fn resumable_artifacts_reflect_last_unfinished_run() {
        let dir = tmp("resume");
        let path = dir.join("journal.jsonl");
        assert_eq!(Journal::resumable_artifacts(&path), None, "no journal yet");
        {
            // Run 1: finished cleanly.
            let j = Journal::open(&dir).unwrap();
            j.log(EventKind::ArtifactStart {
                artifact: "fig2".into(),
            });
            j.log(EventKind::ArtifactEnd {
                artifact: "fig2".into(),
            });
            j.log(EventKind::RunEnd { artifacts: 1 });
        }
        assert_eq!(
            Journal::resumable_artifacts(&path),
            None,
            "clean run: nothing to resume"
        );
        {
            // Run 2: killed after fig2 and fig3 completed.
            let j = Journal::open(&dir).unwrap();
            j.log(EventKind::ArtifactEnd {
                artifact: "fig2".into(),
            });
            j.log(EventKind::ArtifactEnd {
                artifact: "fig3".into(),
            });
            j.log(EventKind::ArtifactStart {
                artifact: "fig4".into(),
            });
        }
        assert_eq!(
            Journal::resumable_artifacts(&path),
            Some(vec!["fig2".to_string(), "fig3".to_string()])
        );
    }
}
