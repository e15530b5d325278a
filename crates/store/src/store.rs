//! On-disk content-addressed result store.
//!
//! One record per [`StoreKey`], named by the key's content hash:
//!
//! ```text
//! records/<hash>.json:
//!   {"magic":"csmt-store","schema":1,"checksum":"<16 hex>"}   ← header
//!   {"key":{…},"result":{…}}                                  ← payload
//! ```
//!
//! The checksum is FNV-1a over the exact payload bytes, so any on-disk
//! corruption — a flipped bit, a truncated write that survived a crash,
//! manual editing — is detected on load. A bad record is moved to
//! `quarantine/` and reported as a miss: the caller re-simulates, and the
//! damaged bytes stay available for post-mortem. The store never panics
//! on corrupt input and never returns unverified data.
//!
//! Writes go to a temp file in the same directory first and are renamed
//! into place, so a record is either fully present or absent. An
//! append-only `index.jsonl` carries one line per record; it is loaded
//! into a hash map on open for O(1) warm lookups and reconciled against
//! the records directory so a crash between record write and index append
//! self-heals.

use crate::key::{fnv1a, StoreKey, SCHEMA_VERSION};
use csmt_core::SimResult;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Outcome of a store lookup.
///
/// `Hit` carries the result inline: lookups are immediately consumed at
/// the single call site in the sweep runner, so the size asymmetry with
/// `Miss` never lives anywhere it matters.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Lookup {
    /// Verified record: checksum and full key material matched.
    Hit(SimResult),
    /// No record (never written, schema-invalidated, or quarantined just
    /// now) — simulate and [`ResultStore::put`].
    Miss,
}

/// Store traffic counters, cheap to snapshot at any point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Verified warm lookups served from disk.
    pub hits: u64,
    /// Lookups that found no usable record.
    pub misses: u64,
    /// Records written.
    pub puts: u64,
    /// Corrupt records moved to `quarantine/`.
    pub quarantined: u64,
}

/// What one index line / record payload carries besides the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct IndexEntry {
    hash: String,
    file: String,
    label: String,
    iq: String,
    rf: String,
    cfg: String,
}

/// Record header line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Header {
    magic: String,
    schema: u32,
    checksum: String,
}

/// Record payload line.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Payload {
    key: StoreKey,
    result: SimResult,
}

const MAGIC: &str = "csmt-store";

/// Persistent content-addressed map from [`StoreKey`] to [`SimResult`].
pub struct ResultStore {
    root: PathBuf,
    /// hash → record file name. The in-memory warm index.
    index: Mutex<HashMap<u64, String>>,
    /// Distinguishes concurrent temp files (see [`ResultStore::put`]).
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    quarantined: AtomicU64,
}

impl ResultStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    ///
    /// Loads `index.jsonl`, then reconciles against the `records/`
    /// directory: records missing from the index (crash between record
    /// write and index append) are adopted; index lines whose file is gone
    /// are dropped.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ResultStore> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join("records"))?;
        fs::create_dir_all(root.join("quarantine"))?;

        let mut index: HashMap<u64, String> = HashMap::new();
        if let Ok(text) = fs::read_to_string(root.join("index.jsonl")) {
            for line in text.lines() {
                let Ok(entry) = serde_json::from_str::<IndexEntry>(line) else {
                    continue; // torn trailing line after a crash — records/ scan recovers it
                };
                if let Ok(h) = u64::from_str_radix(&entry.hash, 16) {
                    index.insert(h, entry.file);
                }
            }
        }
        // Reconcile with the directory. The records/ contents are
        // authoritative; index.jsonl is an accelerator.
        let mut on_disk: HashMap<u64, String> = HashMap::new();
        for dirent in fs::read_dir(root.join("records"))? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                // Orphan from a crash mid-`put`; the rename never happened
                // so it carries no committed data.
                let _ = fs::remove_file(dirent.path());
                continue;
            }
            if let Some(stem) = name.strip_suffix(".json") {
                if let Ok(h) = u64::from_str_radix(stem, 16) {
                    on_disk.insert(h, name);
                }
            }
        }
        index.retain(|h, _| on_disk.contains_key(h));
        for (h, name) in on_disk {
            index.entry(h).or_insert(name);
        }

        Ok(ResultStore {
            root,
            index: Mutex::new(index),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// Root directory of this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Look up a key. Returns [`Lookup::Hit`] only for a record whose
    /// checksum verifies **and** whose stored key material equals `key`
    /// (guarding against hash collisions); anything else is a miss, with
    /// corrupt records quarantined on the way.
    pub fn get(&self, key: &StoreKey) -> Lookup {
        let hash = key.content_hash();
        let file = {
            self.index
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&hash)
                .cloned()
        };
        let Some(file) = file else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Lookup::Miss;
        };
        let path = self.root.join("records").join(&file);
        match self.load_verified(&path, key) {
            Some(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(result)
            }
            None => {
                self.quarantine(&file, hash);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Parse + verify one record file. `None` means corrupt or mismatched.
    fn load_verified(&self, path: &Path, key: &StoreKey) -> Option<SimResult> {
        let text = fs::read_to_string(path).ok()?;
        let (header_line, payload_line) = text.split_once('\n')?;
        let header: Header = serde_json::from_str(header_line).ok()?;
        if header.magic != MAGIC || header.schema != SCHEMA_VERSION {
            return None;
        }
        let payload_bytes = payload_line.trim_end_matches('\n');
        if format!("{:016x}", fnv1a(payload_bytes.as_bytes())) != header.checksum {
            return None;
        }
        let payload: Payload = serde_json::from_str(payload_bytes).ok()?;
        if payload.key != *key {
            return None; // hash collision or stale semantics — never serve it
        }
        Some(payload.result)
    }

    /// Move a bad record aside and forget it. Failure to move (e.g. the
    /// file vanished) still drops it from the index.
    fn quarantine(&self, file: &str, hash: u64) {
        let from = self.root.join("records").join(file);
        let to = self.root.join("quarantine").join(file);
        let _ = fs::rename(&from, &to);
        self.index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&hash);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Persist a result: atomic record write (temp + rename in the same
    /// directory), then an index append.
    pub fn put(&self, key: &StoreKey, result: &SimResult) -> io::Result<()> {
        let stem = key.file_stem();
        let file = format!("{stem}.json");
        let payload = serde_json::to_string(&Payload {
            key: key.clone(),
            result: result.clone(),
        })
        .expect("record serializes");
        let header = serde_json::to_string(&Header {
            magic: MAGIC.to_string(),
            schema: SCHEMA_VERSION,
            checksum: format!("{:016x}", fnv1a(payload.as_bytes())),
        })
        .expect("header serializes");

        let records = self.root.join("records");
        // The temp name carries the pid and a per-store sequence number,
        // not just the content hash: two workers putting the *same* key
        // concurrently must not write through one temp file (interleaved
        // writes would tear it). Each writes its own temp and the renames
        // commit whole records in either order — same bytes either way.
        let tmp = records.join(format!(
            ".tmp-{}-{}-{stem}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(payload.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        fs::rename(&tmp, records.join(&file))?;

        let entry = serde_json::to_string(&IndexEntry {
            hash: stem.clone(),
            file: file.clone(),
            label: key.label.clone(),
            iq: key.iq.clone(),
            rf: key.rf.clone(),
            cfg: key.cfg.clone(),
        })
        .expect("index entry serializes");
        {
            // Serialize concurrent appends through the index lock so lines
            // never interleave.
            let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.root.join("index.jsonl"))?;
            f.write_all(entry.as_bytes())?;
            f.write_all(b"\n")?;
            f.flush()?;
            index.insert(key.content_hash(), file);
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_core::SimStats;
    use csmt_types::MachineConfig;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("csmt-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(label: &str) -> StoreKey {
        StoreKey {
            schema: SCHEMA_VERSION,
            label: label.to_string(),
            iq: "Icount".into(),
            rf: "Shared".into(),
            cfg: "iq32".into(),
            config: MachineConfig::iq_study(32),
            commit_target: 1000,
            warmup: 100,
            max_cycles: 1_000_000,
            sample: None,
        }
    }

    fn result(cycles: u64) -> SimResult {
        SimResult {
            num_threads: 2,
            commit_target: 1000,
            stats: SimStats {
                cycles,
                committed: vec![1000, 1000],
                ..Default::default()
            },
        }
    }

    #[test]
    fn put_get_round_trip_and_counters() {
        let store = ResultStore::open(tmp("roundtrip")).unwrap();
        let k = key("w1");
        assert!(matches!(store.get(&k), Lookup::Miss));
        store.put(&k, &result(777)).unwrap();
        match store.get(&k) {
            Lookup::Hit(r) => assert_eq!(r.stats.cycles, 777),
            other => panic!("expected hit, got {other:?}"),
        }
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.puts, c.quarantined), (1, 1, 1, 0));
    }

    #[test]
    fn reopen_serves_warm_from_index() {
        let dir = tmp("reopen");
        let k = key("w2");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(&k, &result(42)).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(matches!(store.get(&k), Lookup::Hit(_)));
    }

    #[test]
    fn missing_index_rebuilds_from_records_dir() {
        let dir = tmp("reindex");
        let k = key("w3");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(&k, &result(5)).unwrap();
        }
        fs::remove_file(dir.join("index.jsonl")).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "records/ scan must repopulate the index");
        assert!(matches!(store.get(&k), Lookup::Hit(_)));
    }

    #[test]
    fn corrupt_record_quarantines_and_misses() {
        let dir = tmp("corrupt");
        let k = key("w4");
        let store = ResultStore::open(&dir).unwrap();
        store.put(&k, &result(9)).unwrap();
        // Flip one byte in the payload.
        let path = dir.join("records").join(format!("{}.json", k.file_stem()));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 10;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        assert!(matches!(store.get(&k), Lookup::Miss));
        assert!(!path.exists(), "corrupt record must leave records/");
        assert!(
            dir.join("quarantine")
                .join(format!("{}.json", k.file_stem()))
                .exists(),
            "corrupt record must be preserved in quarantine/"
        );
        assert_eq!(store.counters().quarantined, 1);
        // The slot is usable again.
        store.put(&k, &result(9)).unwrap();
        assert!(matches!(store.get(&k), Lookup::Hit(_)));
    }

    #[test]
    fn different_options_do_not_alias() {
        let store = ResultStore::open(tmp("alias")).unwrap();
        let k1 = key("w5");
        let mut k2 = key("w5");
        k2.commit_target = 2000;
        store.put(&k1, &result(1)).unwrap();
        assert!(matches!(store.get(&k2), Lookup::Miss));
    }

    #[test]
    fn orphaned_temp_files_are_swept_on_open() {
        let dir = tmp("orphan");
        let k = key("w7");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(&k, &result(4)).unwrap();
        }
        // Simulate a crash mid-put: a temp file that never got renamed.
        let stale = dir.join("records").join(".tmp-999-0-deadbeef");
        fs::write(&stale, b"half a record").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert!(!stale.exists(), "orphaned temp must be removed");
        assert_eq!(store.len(), 1, "committed records are untouched");
        assert!(matches!(store.get(&k), Lookup::Hit(_)));
    }

    #[test]
    fn stale_index_line_for_missing_file_is_dropped() {
        let dir = tmp("stale");
        let k = key("w6");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(&k, &result(3)).unwrap();
        }
        fs::remove_file(dir.join("records").join(format!("{}.json", k.file_stem()))).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 0);
        assert!(matches!(store.get(&k), Lookup::Miss));
    }
}
