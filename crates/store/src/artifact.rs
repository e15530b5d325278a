//! On-disk content-addressed **artifact** store: durable records that are
//! not [`csmt_core::SimResult`]s — checkpoints, sampling sidecars, and
//! whatever future subsystems need to persist alongside run results.
//!
//! The vendored serde has no generics-aware derive, so the store speaks
//! strings: a record is `(kind, canonical key JSON, payload JSON)`, and
//! callers serialize/deserialize their own types at the boundary. It is
//! a second record log (see `log.rs`), rooted at `<store>/artifacts/`.
//! A record's body is the key line then the payload line; its address is
//! FNV-1a over `kind \n key`, so distinct kinds sharing a key never
//! alias, and a hit also requires the stored key to equal the request.

use crate::key::fnv1a;
use crate::log::{RecordLog, StoreCounters};
use std::io;
use std::path::Path;

/// Persistent content-addressed map from `(kind, canonical key)` to a
/// JSON payload string.
pub struct ArtifactStore {
    log: RecordLog,
}

/// Content address of one artifact: FNV-1a over `kind \n key`.
fn address(kind: &str, key: &str) -> u64 {
    fnv1a(format!("{kind}\n{key}").as_bytes())
}

impl ArtifactStore {
    /// Open (creating if necessary) an artifact store nested under
    /// `dir/artifacts/` — `dir` is typically a [`crate::ResultStore`]
    /// root, and the nesting keeps the two logs apart.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        Ok(ArtifactStore {
            log: RecordLog::open(dir.as_ref().join("artifacts"))?,
        })
    }

    /// Root directory (`…/artifacts`).
    pub fn root(&self) -> &Path {
        self.log.root()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> StoreCounters {
        self.log.counters()
    }

    /// Look up `(kind, key)`. Returns the stored payload only when the
    /// record's checksum verifies **and** its stored kind and key bytes
    /// equal the request (guarding against hash collisions); anything
    /// else is a miss, with corrupt records quarantined on the way.
    pub fn get_record(&self, kind: &str, key: &str) -> Option<String> {
        self.log.get(address(kind, key), kind, |body| {
            let (stored_key, payload) = body.split_once('\n')?;
            (stored_key == key).then(|| payload.to_string())
        })
    }

    /// Persist an artifact: one durable append to the record log. `key`
    /// and `payload` must be single-line JSON (the canonical serializer
    /// emits no newlines); anything else is rejected as invalid input.
    pub fn put_record(&self, kind: &str, key: &str, payload: &str) -> io::Result<()> {
        if key.contains('\n') || payload.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "artifact key and payload must be single lines",
            ));
        }
        self.log
            .put(address(kind, key), kind, &format!("{key}\n{payload}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

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
    fn multi_line_input_is_a_typed_error() {
        let store = ArtifactStore::open(tmp("lines")).unwrap();
        let err = store.put_record("checkpoint", "{}\n{}", "{}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(store.counters().puts, 0);
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
        assert!(dir.join("segments").exists());
        assert!(dir.join("artifacts").join("segments").exists());
    }
}
