//! Append-only record log: the one on-disk format under both
//! [`crate::ResultStore`] and [`crate::ArtifactStore`].
//!
//! ```text
//! <root>/
//!   index.jsonl          one line per put or quarantine: hash → extent
//!   segments/<id>.jsonl  records, appended; every open log instance
//!                        writes only to segments it created itself
//!   quarantine/<hash>-<seg>-<off>.rec
//!                        bytes of records that failed verification
//! ```
//!
//! A record is a header line, its body and a closing newline:
//!
//! ```text
//! {"magic":"csmt-log","kind":"…","hash":"<16 hex>","len":N,"checksum":"<16 hex>"}
//! <N body bytes: single-line JSON documents joined by \n>
//! ```
//!
//! The checksum is FNV-1a over the body bytes. A put is one positional
//! write plus `sync_data`, then an index line; so a record is durable
//! before any reader can see it. Segment space is zero-filled ahead of
//! the records in 64 KiB steps, so the `sync_data` of most puts flushes
//! data only, with no change to the file's size or block map; a clean
//! close trims the unused fill. A get is one positional read of the
//! indexed extent on a shared handle.
//!
//! On open the index is replayed (the last line for a hash wins) and each
//! segment is scanned only past its last indexed extent: whole records
//! found there (a crash between the write and the index line, or a lost
//! index) are adopted, and a torn tail or the zero fill a crash left
//! behind is ignored. A record that fails
//! verification on read is a miss: its bytes are copied to `quarantine/`
//! and a quarantine line in the index keeps it unserved after a reopen.
//! A later put of the same hash supersedes it.

use crate::key::fnv1a;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

const MAGIC: &str = "csmt-log";
const INDEX: &str = "index.jsonl";

/// Store traffic counters, cheap to snapshot at any point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Verified lookups served from disk.
    pub hits: u64,
    /// Lookups that found no usable record.
    pub misses: u64,
    /// Records written.
    pub puts: u64,
    /// Records that failed verification and were copied to `quarantine/`.
    pub quarantined: u64,
}

/// Where one record lives: `len` bytes at `off` in segment `seg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    seg: u64,
    off: u64,
    len: u64,
}

/// Record header line.
#[derive(Debug, Serialize, Deserialize)]
struct Header {
    magic: String,
    kind: String,
    hash: String,
    len: u64,
    checksum: String,
}

/// One `index.jsonl` line.
#[derive(Debug, Serialize, Deserialize)]
struct IndexLine {
    hash: String,
    seg: u64,
    off: u64,
    len: u64,
    quarantined: bool,
}

/// Segment space is zero-filled this many bytes at a time, so that a
/// put overwrites allocated blocks and its `sync_data` flushes data
/// only, not the file's size and block map.
const CHUNK: u64 = 64 << 10;

/// The segment one log instance appends to.
struct Segment {
    id: u64,
    file: Arc<File>,
    /// End of the last record.
    end: u64,
    /// End of the zero-filled space.
    filled: u64,
}

impl Segment {
    /// Write `record` after the last one and make it durable; return
    /// its offset.
    fn append(&mut self, record: &[u8]) -> io::Result<u64> {
        let (off, end) = (self.end, self.end + record.len() as u64);
        if end > self.filled {
            let filled = end.div_ceil(CHUNK) * CHUNK;
            let zeros = vec![0; (filled - self.filled) as usize];
            self.file.write_all_at(&zeros, self.filled)?;
            self.filled = filled;
        }
        self.file.write_all_at(record, off)?;
        self.file.sync_data()?;
        self.end = end;
        Ok(off)
    }
}

impl Drop for Segment {
    /// Give back the unused zero-filled space. A crash leaves it in
    /// place, where the open-time scan reads it as the end of the records.
    fn drop(&mut self) {
        let _ = self.file.set_len(self.end);
    }
}

/// The appending side of one log instance.
struct Writer {
    /// This instance's segment; created on the first put.
    segment: Option<Segment>,
    /// First id to try for a new segment.
    next_id: u64,
    /// `index.jsonl`, opened for append.
    index: File,
}

/// Persistent content-addressed map from a 64-bit hash to a record body.
pub(crate) struct RecordLog {
    root: PathBuf,
    /// hash → extent. The in-memory warm index.
    index: RwLock<HashMap<u64, Extent>>,
    /// Read handles by segment id, opened on first read.
    readers: RwLock<HashMap<u64, Arc<File>>>,
    writer: Mutex<Writer>,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    quarantined: AtomicU64,
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

fn segment_path(root: &Path, id: u64) -> PathBuf {
    root.join("segments").join(format!("{id:06}.jsonl"))
}

/// Parse one index line; `None` for anything malformed, including the
/// torn last line a crash can leave.
fn parse_index_line(line: &[u8]) -> Option<(u64, Extent, bool)> {
    let line: IndexLine = serde_json::from_str(std::str::from_utf8(line).ok()?).ok()?;
    let hash = u64::from_str_radix(&line.hash, 16).ok()?;
    let ext = Extent {
        seg: line.seg,
        off: line.off,
        len: line.len,
    };
    Some((hash, ext, line.quarantined))
}

/// Parse the header at the start of `bytes` and return it with the
/// length of the whole record it frames.
fn frame(bytes: &[u8]) -> Option<(Header, usize)> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let header: Header = serde_json::from_str(std::str::from_utf8(&bytes[..nl]).ok()?).ok()?;
    let body = usize::try_from(header.len).ok()?;
    let len = nl.checked_add(body)?.checked_add(2)?;
    Some((header, len))
}

/// Check that `rec` is exactly one whole, intact record; return its
/// header and body.
fn verify(rec: &[u8]) -> Option<(Header, &str)> {
    let (header, len) = frame(rec)?;
    if header.magic != MAGIC || len != rec.len() || rec.last() != Some(&b'\n') {
        return None;
    }
    let body = &rec[len - 1 - header.len as usize..len - 1];
    if hex(fnv1a(body)) != header.checksum {
        return None;
    }
    Some((header, std::str::from_utf8(body).ok()?))
}

/// The verified records in a segment tail, with their offsets in it.
/// Scanning stops at the first record that is not whole.
fn scan(tail: &[u8]) -> Vec<(u64, u64, u64)> {
    let mut found = Vec::new();
    let mut at = 0;
    while let Some((_, len)) = frame(&tail[at..]) {
        let Some(rec) = at.checked_add(len).and_then(|end| tail.get(at..end)) else {
            break; // torn tail
        };
        if let Some(hash) = verify(rec).and_then(|(h, _)| u64::from_str_radix(&h.hash, 16).ok()) {
            found.push((hash, at as u64, len as u64));
        }
        at += len;
    }
    found
}

impl RecordLog {
    /// Open (creating if necessary) the log rooted at `root`: replay
    /// `index.jsonl`, then adopt whole records past each segment's last
    /// indexed extent.
    pub(crate) fn open(root: PathBuf) -> io::Result<RecordLog> {
        fs::create_dir_all(root.join("segments"))?;
        fs::create_dir_all(root.join("quarantine"))?;

        let mut sizes: HashMap<u64, u64> = HashMap::new();
        for dirent in fs::read_dir(root.join("segments"))? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let id = name.to_str().and_then(|n| n.strip_suffix(".jsonl"));
            if let Some(id) = id.and_then(|n| n.parse().ok()) {
                sizes.insert(id, dirent.metadata()?.len());
            }
        }

        let mut index: HashMap<u64, Extent> = HashMap::new();
        let mut indexed_end: HashMap<u64, u64> = HashMap::new();
        let lines = match fs::read(root.join(INDEX)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        for (hash, ext, quarantined) in lines.split(|&b| b == b'\n').filter_map(parse_index_line) {
            let end = ext.off.saturating_add(ext.len);
            if end > sizes.get(&ext.seg).copied().unwrap_or(0) {
                continue; // its segment is gone or shorter than the extent
            }
            let seen = indexed_end.entry(ext.seg).or_insert(0);
            *seen = (*seen).max(end);
            if !quarantined {
                index.insert(hash, ext);
            } else if index.get(&hash) == Some(&ext) {
                index.remove(&hash);
            }
        }

        let mut readers = HashMap::new();
        for (&seg, &size) in &sizes {
            let from = indexed_end.get(&seg).copied().unwrap_or(0);
            if size <= from {
                continue;
            }
            let Ok(file) = File::open(segment_path(&root, seg)) else {
                continue;
            };
            let mut tail = vec![0; (size - from) as usize];
            if file.read_exact_at(&mut tail, from).is_err() {
                continue;
            }
            for (hash, off, len) in scan(&tail) {
                let off = from + off;
                index.insert(hash, Extent { seg, off, len });
            }
            readers.insert(seg, Arc::new(file));
        }

        let writer = Writer {
            segment: None,
            next_id: sizes.keys().max().map_or(0, |m| m + 1),
            index: OpenOptions::new()
                .create(true)
                .append(true)
                .open(root.join(INDEX))?,
        };
        Ok(RecordLog {
            root,
            index: RwLock::new(index),
            readers: RwLock::new(readers),
            writer: Mutex::new(writer),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    /// Number of indexed records.
    pub(crate) fn len(&self) -> usize {
        self.index.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub(crate) fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Look up `hash`. A record is served only when its framing and
    /// checksum verify, its header names `kind` and `hash`, and `accept`
    /// takes its body; anything else is a miss, quarantined on the way.
    pub(crate) fn get<T>(
        &self,
        hash: u64,
        kind: &str,
        accept: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let ext = self
            .index
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&hash)
            .copied();
        let Some(ext) = ext else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let bytes = self.read(ext).unwrap_or_default();
        let found = verify(&bytes)
            .filter(|(h, _)| h.kind == kind && h.hash == hex(hash))
            .and_then(|(_, body)| accept(body));
        match found {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.quarantine(hash, ext, &bytes);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The bytes of one extent, by positional read on the segment's
    /// shared handle.
    fn read(&self, ext: Extent) -> io::Result<Vec<u8>> {
        let cached = self
            .readers
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&ext.seg)
            .cloned();
        let file = match cached {
            Some(file) => file,
            None => {
                let file = Arc::new(File::open(segment_path(&self.root, ext.seg))?);
                self.readers
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(ext.seg, file.clone());
                file
            }
        };
        let mut bytes = vec![0; ext.len as usize];
        file.read_exact_at(&mut bytes, ext.off)?;
        Ok(bytes)
    }

    /// Copy a bad record's bytes aside, forget it, and index the
    /// quarantine so a reopen does not serve it either. Only the failed
    /// extent is dropped: a concurrent put of the same hash survives.
    fn quarantine(&self, hash: u64, ext: Extent, bytes: &[u8]) {
        let name = format!("{}-{}-{}.rec", hex(hash), ext.seg, ext.off);
        let _ = fs::write(self.root.join("quarantine").join(name), bytes);
        {
            let mut index = self.index.write().unwrap_or_else(|e| e.into_inner());
            if index.get(&hash) == Some(&ext) {
                index.remove(&hash);
            }
        }
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = append_index(&mut writer.index, hash, ext, true);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Append one record and publish it: a positional write plus
    /// `sync_data` on this instance's segment, then an index line.
    pub(crate) fn put(&self, hash: u64, kind: &str, body: &str) -> io::Result<()> {
        let header = serde_json::to_string(&Header {
            magic: MAGIC.to_string(),
            kind: kind.to_string(),
            hash: hex(hash),
            len: body.len() as u64,
            checksum: hex(fnv1a(body.as_bytes())),
        })
        .map_err(io::Error::other)?;
        let mut record = Vec::with_capacity(header.len() + body.len() + 2);
        record.extend_from_slice(header.as_bytes());
        record.push(b'\n');
        record.extend_from_slice(body.as_bytes());
        record.push(b'\n');

        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let mut seg = match writer.segment.take() {
            Some(segment) => segment,
            None => {
                let (id, file) = create_segment(&self.root, &mut writer.next_id)?;
                self.readers
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(id, file.clone());
                Segment {
                    id,
                    file,
                    end: 0,
                    filled: 0,
                }
            }
        };
        // On failure the segment is dropped, which trims any partial
        // record, and the next put starts a new one.
        let off = seg.append(&record)?;
        let ext = Extent {
            seg: seg.id,
            off,
            len: record.len() as u64,
        };
        writer.segment = Some(seg);
        append_index(&mut writer.index, hash, ext, false)?;
        self.index
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(hash, ext);
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Create a new segment with `O_EXCL`, skipping ids another instance
/// took, and make its directory entry durable.
fn create_segment(root: &Path, next_id: &mut u64) -> io::Result<(u64, Arc<File>)> {
    loop {
        let id = *next_id;
        *next_id += 1;
        let created = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(segment_path(root, id));
        match created {
            Ok(file) => {
                File::open(root.join("segments"))?.sync_all()?;
                return Ok((id, Arc::new(file)));
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// One index line, written whole in a single append.
fn append_index(index: &mut File, hash: u64, ext: Extent, quarantined: bool) -> io::Result<()> {
    let mut line = serde_json::to_string(&IndexLine {
        hash: hex(hash),
        seg: ext.seg,
        off: ext.off,
        len: ext.len,
        quarantined,
    })
    .map_err(io::Error::other)?;
    line.push('\n');
    index.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("csmt-log-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn body(v: u64) -> String {
        format!(r#"{{"v":{v}}}"#)
    }

    fn accept(b: &str) -> Option<String> {
        Some(b.to_string())
    }

    #[test]
    fn unindexed_records_are_adopted_past_the_last_indexed_extent() {
        let dir = tmp("adopt");
        let log = RecordLog::open(dir.clone()).unwrap();
        log.put(1, "k", &body(1)).unwrap();
        // Keep only the first index line: the second record is past the
        // last indexed extent, as after a crash before its index append.
        let index = fs::read_to_string(dir.join(INDEX)).unwrap();
        log.put(2, "k", &body(2)).unwrap();
        fs::write(dir.join(INDEX), index).unwrap();
        // The writer is still open, so zero fill follows its records.
        let seg = segment_path(&dir, 0);
        assert_eq!(fs::metadata(&seg).unwrap().len(), CHUNK);
        let reopened = RecordLog::open(dir.clone()).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(2, "k", accept), Some(body(2)));
        let ext = reopened.index.read().unwrap()[&2];
        drop(log);
        let trimmed = fs::metadata(&seg).unwrap().len();
        assert_eq!(trimmed, ext.off + ext.len, "a clean close trims the fill");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_survives_reopen_and_a_later_put_supersedes_it() {
        let dir = tmp("quarantine");
        let log = RecordLog::open(dir.clone()).unwrap();
        log.put(7, "k", &body(7)).unwrap();
        // The accept hook rejecting a verified record also quarantines it.
        assert_eq!(log.get(7, "k", |_| None::<String>), None);
        assert_eq!(log.counters().quarantined, 1);
        assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 1);
        assert_eq!(RecordLog::open(dir.clone()).unwrap().len(), 0);
        log.put(7, "k", &body(8)).unwrap();
        let log = RecordLog::open(dir.clone()).unwrap();
        assert_eq!(log.get(7, "k", accept), Some(body(8)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_index_lines_and_lost_segments_are_skipped() {
        let dir = tmp("malformed");
        {
            let log = RecordLog::open(dir.clone()).unwrap();
            log.put(1, "k", &body(1)).unwrap();
        }
        let mut index = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(INDEX))
            .unwrap();
        index
            .write_all(b"{\"hash\":\"0000000000000009\",\"seg\":42,\"off\":0,\"len\":9,\"quarantined\":false}\n\xff\xfe{\"hash\"")
            .unwrap();
        let log = RecordLog::open(dir.clone()).unwrap();
        assert_eq!(log.len(), 1, "the line naming a missing segment is dropped");
        assert_eq!(log.get(1, "k", accept), Some(body(1)));
        let _ = fs::remove_dir_all(&dir);
    }
}
