//! On-disk content-addressed **artifact** store: durable records that are
//! not [`csmt_core::SimResult`]s — checkpoints, sampling sidecars, and
//! whatever future subsystems need to persist alongside run results.
//!
//! The vendored serde has no generics-aware derive, so the store speaks
//! strings: a record is `(kind, canonical key JSON, payload JSON)`, and
//! callers serialize/deserialize their own types at the boundary. The
//! durability contract is exactly [`crate::ResultStore`]'s:
//!
//! ```text
//! <root>/artifacts/
//!   index.jsonl              one line per record: hash → file + kind
//!   records/<hash>.json      header + key line + payload line
//!   quarantine/<hash>.json   corrupt records, moved aside for post-mortem
//! ```
//!
//! ```text
//! records/<hash>.json:
//!   {"magic":"csmt-artifact","schema":1,"kind":"…","checksum":"<16 hex>"}
//!   {…canonical key…}
//!   {…payload…}
//! ```
//!
//! The address is FNV-1a over `kind \n key`, so distinct kinds sharing a
//! key never alias. The checksum is FNV-1a over `key \n payload` — any
//! flipped bit, truncation or manual edit is detected on load; the bad
//! record is **quarantined** and reported as a miss, so a damaged
//! artifact degrades into a recompute, never into wrong data. Writes are
//! atomic (pid+seq temp file, rename into place) and the append-only
//! index self-heals against the records directory on open.

use crate::key::fnv1a;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bump when the record framing changes incompatibly.
pub const ARTIFACT_SCHEMA: u32 = 1;

const MAGIC: &str = "csmt-artifact";

/// Artifact traffic counters, cheap to snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactCounters {
    /// Verified lookups served from disk.
    pub hits: u64,
    /// Lookups that found no usable record.
    pub misses: u64,
    /// Records written.
    pub puts: u64,
    /// Corrupt records moved to `quarantine/`.
    pub quarantined: u64,
}

/// One index line: enough to rebuild the warm map and eyeball the store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct IndexEntry {
    hash: String,
    file: String,
    kind: String,
}

/// Record header line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Header {
    magic: String,
    schema: u32,
    kind: String,
    checksum: String,
}

/// Persistent content-addressed map from `(kind, canonical key)` to a
/// JSON payload string.
pub struct ArtifactStore {
    root: PathBuf,
    /// hash → record file name. The in-memory warm index.
    index: Mutex<HashMap<u64, String>>,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    quarantined: AtomicU64,
}

/// Content address of one artifact: FNV-1a over `kind \n key`.
fn address(kind: &str, key: &str) -> u64 {
    let mut bytes = Vec::with_capacity(kind.len() + 1 + key.len());
    bytes.extend_from_slice(kind.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(key.as_bytes());
    fnv1a(&bytes)
}

impl ArtifactStore {
    /// Open (creating if necessary) an artifact store nested under
    /// `dir/artifacts/` — `dir` is typically a [`crate::ResultStore`]
    /// root, and the nesting keeps the two stores' `records/` apart.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        let root = dir.as_ref().join("artifacts");
        fs::create_dir_all(root.join("records"))?;
        fs::create_dir_all(root.join("quarantine"))?;

        let mut index: HashMap<u64, String> = HashMap::new();
        if let Ok(text) = fs::read_to_string(root.join("index.jsonl")) {
            for line in text.lines() {
                let Ok(entry) = serde_json::from_str::<IndexEntry>(line) else {
                    continue; // torn trailing line — records/ scan recovers it
                };
                if let Ok(h) = u64::from_str_radix(&entry.hash, 16) {
                    index.insert(h, entry.file);
                }
            }
        }
        // Reconcile: records/ is authoritative, the index an accelerator.
        let mut on_disk: HashMap<u64, String> = HashMap::new();
        for dirent in fs::read_dir(root.join("records"))? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
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

        Ok(ArtifactStore {
            root,
            index: Mutex::new(index),
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// Root directory (`…/artifacts`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of indexed artifacts.
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
    pub fn counters(&self) -> ArtifactCounters {
        ArtifactCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Look up `(kind, key)`. Returns the stored payload only when the
    /// record's checksum verifies **and** its stored kind and key bytes
    /// equal the request (guarding against hash collisions); anything
    /// else is a miss, with corrupt records quarantined on the way.
    pub fn get_record(&self, kind: &str, key: &str) -> Option<String> {
        let hash = address(kind, key);
        let file = {
            self.index
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&hash)
                .cloned()
        };
        let Some(file) = file else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let path = self.root.join("records").join(&file);
        match self.load_verified(&path, kind, key) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                self.quarantine(&file, hash);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Parse + verify one record file. `None` means corrupt or mismatched.
    fn load_verified(&self, path: &Path, kind: &str, key: &str) -> Option<String> {
        let text = fs::read_to_string(path).ok()?;
        let mut lines = text.splitn(3, '\n');
        let header: Header = serde_json::from_str(lines.next()?).ok()?;
        let key_line = lines.next()?;
        let payload_line = lines.next()?.trim_end_matches('\n');
        if header.magic != MAGIC || header.schema != ARTIFACT_SCHEMA || header.kind != kind {
            return None;
        }
        if format!("{:016x}", checksum(key_line, payload_line)) != header.checksum {
            return None;
        }
        if key_line != key {
            return None; // hash collision or stale semantics — never serve it
        }
        Some(payload_line.to_string())
    }

    /// Move a bad record aside and forget it.
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

    /// Persist an artifact: atomic record write (temp + rename in the
    /// same directory), then an index append. `key` and `payload` must be
    /// single-line JSON (the canonical serializer emits no newlines).
    pub fn put_record(&self, kind: &str, key: &str, payload: &str) -> io::Result<()> {
        assert!(
            !kind.contains('\n') && !key.contains('\n') && !payload.contains('\n'),
            "artifact records are line-framed"
        );
        let hash = address(kind, key);
        let stem = format!("{hash:016x}");
        let file = format!("{stem}.json");
        let header = serde_json::to_string(&Header {
            magic: MAGIC.to_string(),
            schema: ARTIFACT_SCHEMA,
            kind: kind.to_string(),
            checksum: format!("{:016x}", checksum(key, payload)),
        })
        .expect("header serializes");

        let records = self.root.join("records");
        // pid + per-store sequence in the temp name: concurrent writers of
        // the same artifact each write their own temp, renames commit
        // whole records in either order — same bytes either way.
        let tmp = records.join(format!(
            ".tmp-{}-{}-{stem}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(key.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(payload.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        fs::rename(&tmp, records.join(&file))?;

        let entry = serde_json::to_string(&IndexEntry {
            hash: stem,
            file: file.clone(),
            kind: kind.to_string(),
        })
        .expect("index entry serializes");
        {
            let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.root.join("index.jsonl"))?;
            f.write_all(entry.as_bytes())?;
            f.write_all(b"\n")?;
            f.flush()?;
            index.insert(hash, file);
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Record checksum: FNV-1a over `key \n payload`.
fn checksum(key: &str, payload: &str) -> u64 {
    let mut bytes = Vec::with_capacity(key.len() + 1 + payload.len());
    bytes.extend_from_slice(key.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(payload.as_bytes());
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("csmt-artifact-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip_and_counters() {
        let store = ArtifactStore::open(tmp("roundtrip")).unwrap();
        let key = r#"{"specs":["a"],"offset":1000}"#;
        assert!(store.get_record("checkpoint", key).is_none());
        store.put_record("checkpoint", key, r#"{"x":1}"#).unwrap();
        assert_eq!(
            store.get_record("checkpoint", key).as_deref(),
            Some(r#"{"x":1}"#)
        );
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.puts, c.quarantined), (1, 1, 1, 0));
    }

    #[test]
    fn kinds_do_not_alias() {
        let store = ArtifactStore::open(tmp("kinds")).unwrap();
        let key = r#"{"k":1}"#;
        store.put_record("checkpoint", key, r#"{"a":1}"#).unwrap();
        store.put_record("sample-stats", key, r#"{"b":2}"#).unwrap();
        assert_eq!(
            store.get_record("checkpoint", key).as_deref(),
            Some(r#"{"a":1}"#)
        );
        assert_eq!(
            store.get_record("sample-stats", key).as_deref(),
            Some(r#"{"b":2}"#)
        );
    }

    #[test]
    fn reopen_serves_warm_and_rebuilds_lost_index() {
        let dir = tmp("reopen");
        let key = r#"{"k":2}"#;
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put_record("checkpoint", key, r#"{"v":9}"#).unwrap();
        }
        {
            let store = ArtifactStore::open(&dir).unwrap();
            assert_eq!(store.len(), 1);
            assert!(store.get_record("checkpoint", key).is_some());
        }
        fs::remove_file(dir.join("artifacts").join("index.jsonl")).unwrap();
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "records/ scan must repopulate the index");
        assert!(store.get_record("checkpoint", key).is_some());
    }

    #[test]
    fn corrupt_record_quarantines_and_misses() {
        let dir = tmp("corrupt");
        let key = r#"{"k":3}"#;
        let store = ArtifactStore::open(&dir).unwrap();
        store.put_record("checkpoint", key, r#"{"v":5}"#).unwrap();
        let stem = format!("{:016x}", address("checkpoint", key));
        let path = dir
            .join("artifacts")
            .join("records")
            .join(format!("{stem}.json"));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        assert!(store.get_record("checkpoint", key).is_none());
        assert!(!path.exists(), "corrupt record must leave records/");
        assert!(
            dir.join("artifacts")
                .join("quarantine")
                .join(format!("{stem}.json"))
                .exists(),
            "corrupt record must be preserved in quarantine/"
        );
        assert_eq!(store.counters().quarantined, 1);
        // The slot heals on re-put.
        store.put_record("checkpoint", key, r#"{"v":5}"#).unwrap();
        assert!(store.get_record("checkpoint", key).is_some());
    }

    #[test]
    fn shares_a_root_with_the_result_store_without_collision() {
        use crate::{ResultStore, StoreKey, SCHEMA_VERSION};
        let dir = tmp("shared-root");
        let results = ResultStore::open(&dir).unwrap();
        let artifacts = ArtifactStore::open(&dir).unwrap();
        let skey = StoreKey {
            schema: SCHEMA_VERSION,
            label: "w".into(),
            iq: "Icount".into(),
            rf: "Shared".into(),
            cfg: "iq32".into(),
            config: csmt_types::MachineConfig::iq_study(32),
            commit_target: 100,
            warmup: 10,
            max_cycles: 1000,
            sample: None,
        };
        let result = csmt_core::SimResult {
            num_threads: 2,
            commit_target: 100,
            stats: csmt_core::SimStats {
                cycles: 7,
                committed: vec![100, 100],
                ..Default::default()
            },
        };
        results.put(&skey, &result).unwrap();
        artifacts.put_record("checkpoint", "{}", "{}").unwrap();
        assert!(matches!(results.get(&skey), crate::Lookup::Hit(_)));
        assert!(artifacts.get_record("checkpoint", "{}").is_some());
        assert!(dir.join("records").exists());
        assert!(dir.join("artifacts").join("records").exists());
    }
}
