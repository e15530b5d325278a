//! Concurrency stress for the content-addressed store: many threads
//! hammering `put`/`get` over an *overlapping* key set. The properties
//! under test are exactly what the parallel sweep executor relies on:
//! no torn records (every hit verifies its checksum and key material),
//! nothing quarantined, and an index that ends up with exactly one
//! entry per unique key — both in-process and after a fresh reopen.

use csmt_core::{SimResult, SimStats};
use csmt_store::{Lookup, ResultStore, StoreKey, SCHEMA_VERSION};
use csmt_types::MachineConfig;
use std::fs;
use std::path::PathBuf;

const THREADS: usize = 8;
const ITERS: usize = 300;
const KEYS: usize = 24;

/// Canonical form for equality checks: `SimResult` has no `PartialEq`,
/// and its serialized form is what the store persists anyway.
fn canon(r: &SimResult) -> String {
    serde_json::to_string(r).unwrap()
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csmt-store-cc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Key `i` of the shared pool. Labels are distinct per index, so the
/// pool has exactly `KEYS` unique content hashes.
fn key(i: usize) -> StoreKey {
    StoreKey {
        schema: SCHEMA_VERSION,
        label: format!("stress/wl.{i}"),
        iq: "Cssp".to_string(),
        rf: "Shared".to_string(),
        cfg: "iq32".to_string(),
        config: MachineConfig::iq_study(32),
        commit_target: 2_000,
        warmup: 500,
        max_cycles: 10_000_000,
        sample: None,
    }
}

/// The one true result for key `i`. Every writer of key `i` writes this
/// exact value, so any verified hit can be checked field-for-field; a
/// torn or cross-wired record cannot masquerade as correct data.
fn result(i: usize) -> SimResult {
    let i = i as u64;
    SimResult {
        num_threads: 2,
        commit_target: 2_000,
        stats: SimStats {
            cycles: 10_000 + i,
            committed: vec![2_000 + i, 3_000 + i],
            finish_cycle: vec![5_000 + i, 10_000 + i],
            copies_retired: 7 * i,
            ..Default::default()
        },
    }
}

#[test]
fn concurrent_puts_and_gets_over_overlapping_keys() {
    let dir = tmp("overlap");
    let store = ResultStore::open(&dir).unwrap();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                // Deterministic per-thread walk over the shared pool with
                // a thread-dependent stride, so every key sees writes and
                // reads from several threads at once.
                for it in 0..ITERS {
                    let i = (t * 7 + it * (t + 3)) % KEYS;
                    store.put(&key(i), &result(i)).unwrap();
                    // Read a *different* key that some sibling is likely
                    // writing right now.
                    let j = (i + 1 + t) % KEYS;
                    match store.get(&key(j)) {
                        Lookup::Hit(r) => {
                            assert_eq!(canon(&r), canon(&result(j)), "torn record for key {j}")
                        }
                        Lookup::Miss => {} // not written yet — fine
                    }
                }
            });
        }
    });

    // Every key was written at least once by the stride walk above.
    for i in 0..KEYS {
        match store.get(&key(i)) {
            Lookup::Hit(r) => assert_eq!(canon(&r), canon(&result(i))),
            Lookup::Miss => panic!("key {i} lost after the stress run"),
        }
    }
    assert_eq!(store.len(), KEYS, "index holds exactly one entry per key");
    let c = store.counters();
    assert_eq!(c.quarantined, 0, "stress run quarantined records: {c:?}");
    assert_eq!(c.puts as usize, THREADS * ITERS, "every put was counted");

    // A fresh process (reopen) must see the same picture: the index scan
    // rebuilds from disk, so this catches records that only looked fine
    // through the in-memory index.
    drop(store);
    let reopened = ResultStore::open(&dir).unwrap();
    assert_eq!(reopened.len(), KEYS);
    for i in 0..KEYS {
        match reopened.get(&key(i)) {
            Lookup::Hit(r) => {
                assert_eq!(canon(&r), canon(&result(i)), "key {i} differs after reopen")
            }
            Lookup::Miss => panic!("key {i} missing after reopen"),
        }
    }
    assert_eq!(reopened.counters().quarantined, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Two store instances on one directory, as two processes (or a daemon
/// and a CLI run) would open it: each appends to its own segment, both
/// put overlapping keys from several threads, and a fresh reopen serves
/// every key from whichever instance wrote it last.
#[test]
fn two_instances_on_one_directory_share_the_log() {
    let dir = tmp("two-instances");
    let stores = [
        ResultStore::open(&dir).unwrap(),
        ResultStore::open(&dir).unwrap(),
    ];

    std::thread::scope(|scope| {
        for t in 0..4 {
            let store = &stores[t % 2];
            scope.spawn(move || {
                for it in 0..ITERS / 10 {
                    let i = (t * 5 + it * (t + 2)) % KEYS;
                    store.put(&key(i), &result(i)).unwrap();
                }
            });
        }
    });
    for store in &stores {
        assert_eq!(store.counters().quarantined, 0);
    }
    assert_eq!(
        fs::read_dir(dir.join("segments")).unwrap().count(),
        2,
        "one segment per writing instance"
    );
    drop(stores);

    let reopened = ResultStore::open(&dir).unwrap();
    assert_eq!(reopened.len(), KEYS);
    for i in 0..KEYS {
        match reopened.get(&key(i)) {
            Lookup::Hit(r) => assert_eq!(canon(&r), canon(&result(i)), "key {i}"),
            Lookup::Miss => panic!("key {i} missing after reopen"),
        }
    }
    assert_eq!(reopened.counters().quarantined, 0);
    assert_eq!(
        fs::read_dir(dir.join("segments")).unwrap().count(),
        2,
        "a store that only reads creates no segment"
    );
    let _ = fs::remove_dir_all(&dir);
}
