//! On-disk content-addressed result store: [`StoreKey`] → [`SimResult`]
//! over the record log (see `log.rs` for the layout and the crash and
//! corruption rules). A record's body is one payload line,
//! `{"key":{…},"result":{…}}`, addressed by the key's content hash; a
//! hit also requires the stored key to equal the requested one. Stores
//! in the earlier file-per-record layout (`records/<hash>.json`) are not
//! read: their runs simulate once more and land in the log.

use crate::key::{fnv1a, StoreKey};
use crate::log::{RecordLog, StoreCounters};
use csmt_core::SimResult;
use serde::Deserialize;
use std::io;
use std::path::Path;

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

/// Record payload.
#[derive(Deserialize)]
struct Payload {
    key: StoreKey,
    result: SimResult,
}

const KIND: &str = "result";

/// Persistent content-addressed map from [`StoreKey`] to [`SimResult`].
pub struct ResultStore {
    log: RecordLog,
}

impl ResultStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ResultStore> {
        Ok(ResultStore {
            log: RecordLog::open(dir.as_ref().to_path_buf())?,
        })
    }

    /// Root directory of this store.
    pub fn root(&self) -> &Path {
        self.log.root()
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn counters(&self) -> StoreCounters {
        self.log.counters()
    }

    /// Look up a key. Returns [`Lookup::Hit`] only for a record whose
    /// checksum verifies **and** whose stored key material equals `key`
    /// (guarding against hash collisions); anything else is a miss, with
    /// corrupt records quarantined on the way.
    pub fn get(&self, key: &StoreKey) -> Lookup {
        let found = self.log.get(key.content_hash(), KIND, |body| {
            let payload: Payload = serde_json::from_str(body).ok()?;
            (payload.key == *key).then_some(payload.result)
        });
        found.map_or(Lookup::Miss, Lookup::Hit)
    }

    /// Persist a result: one durable append to the record log.
    pub fn put(&self, key: &StoreKey, result: &SimResult) -> io::Result<()> {
        let key_json = key.canonical_json();
        let result_json = serde_json::to_string(result).map_err(io::Error::other)?;
        let payload = format!(r#"{{"key":{key_json},"result":{result_json}}}"#);
        self.log.put(fnv1a(key_json.as_bytes()), KIND, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SCHEMA_VERSION;
    use csmt_core::SimStats;
    use csmt_types::MachineConfig;
    use std::fs;
    use std::path::PathBuf;

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
    fn different_options_do_not_alias() {
        let store = ResultStore::open(tmp("alias")).unwrap();
        let k1 = key("w5");
        let mut k2 = key("w5");
        k2.commit_target = 2000;
        store.put(&k1, &result(1)).unwrap();
        assert!(matches!(store.get(&k2), Lookup::Miss));
    }

    #[test]
    fn legacy_record_files_are_not_read() {
        let dir = tmp("legacy");
        let k = key("w7");
        let records = dir.join("records");
        fs::create_dir_all(&records).unwrap();
        let file = records.join(format!("{:016x}.json", k.content_hash()));
        fs::write(file, b"{}\n{}\n").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 0);
        assert!(matches!(store.get(&k), Lookup::Miss));
    }
}
