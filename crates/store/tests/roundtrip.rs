//! Integration tests for the content-addressed store: property-based
//! round-trips over generated keys/results, and the crash and corruption
//! drills the record log exists for — flip a byte inside one record's
//! extent, or tear a segment's tail, and observe quarantine + miss +
//! successful re-simulation, never a panic and never wrong data.

use csmt_core::{SimResult, SimStats};
use csmt_store::{Lookup, ResultStore, StoreKey, SCHEMA_VERSION};
use csmt_types::MachineConfig;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csmt-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Build a key from the generated raw material.
#[allow(clippy::too_many_arguments)]
fn make_key(
    label: String,
    iq: &str,
    rf: &str,
    iq_entries: usize,
    l2_latency: u64,
    commit_target: u64,
    warmup: u64,
) -> StoreKey {
    let mut config = MachineConfig::iq_study(iq_entries);
    config.l2_latency = l2_latency;
    StoreKey {
        schema: SCHEMA_VERSION,
        label,
        iq: iq.to_string(),
        rf: rf.to_string(),
        cfg: format!("iq{iq_entries}"),
        config,
        commit_target,
        warmup,
        max_cycles: 30_000_000,
        sample: None,
    }
}

/// Build a result whose every varying field derives from the generated
/// numbers, so a swapped or truncated field cannot go unnoticed.
fn make_result(cycles: u64, c0: u64, c1: u64, copies: u64) -> SimResult {
    SimResult {
        num_threads: 2,
        commit_target: c0.max(1),
        stats: SimStats {
            cycles,
            committed: vec![c0, c1],
            finish_cycle: vec![cycles / 2, cycles],
            copies_retired: copies,
            ..Default::default()
        },
    }
}

/// Canonical bytes of a result; `SimResult` has no `PartialEq`, and byte
/// equality of the canonical serialization is the stronger statement
/// anyway (it is what the store persists).
fn canon(r: &SimResult) -> String {
    serde_json::to_string(r).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Anything stored comes back bit-identical, across a process-restart
    /// boundary (fresh `ResultStore::open` over the same directory).
    #[test]
    fn stored_results_round_trip_across_reopen(
        label in "[a-z]{1,12}",
        pick in prop::sample::select(vec![
            ("Icount", "Shared"),
            ("RoundRobin", "Shared"),
            ("CDPRF", "CISPRF"),
        ]),
        iq_entries in prop::sample::select(vec![16usize, 32, 64]),
        l2_latency in 5u64..40,
        commit_target in 1_000u64..50_000,
        warmup in 0u64..10_000,
        cycles in 1u64..1_000_000,
        c0 in 0u64..100_000,
        c1 in 0u64..100_000,
        copies in 0u64..10_000,
        case in 0u64..1_000_000,
    ) {
        let dir = tmp(&format!("prop-{case}"));
        let key = make_key(label, pick.0, pick.1, iq_entries, l2_latency, commit_target, warmup);
        let result = make_result(cycles, c0, c1, copies);
        {
            let store = ResultStore::open(&dir).unwrap();
            prop_assert!(matches!(store.get(&key), Lookup::Miss));
            store.put(&key, &result).unwrap();
            match store.get(&key) {
                Lookup::Hit(r) => prop_assert_eq!(canon(&r), canon(&result)),
                Lookup::Miss => prop_assert!(false, "fresh record must hit"),
            }
        }
        // Reopen: the warm path through index.jsonl must serve the same bytes.
        let store = ResultStore::open(&dir).unwrap();
        match store.get(&key) {
            Lookup::Hit(r) => prop_assert_eq!(canon(&r), canon(&result)),
            Lookup::Miss => prop_assert!(false, "reopened store must still hit"),
        }
        prop_assert_eq!(store.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte inside one record's extent makes the
    /// store quarantine that record and miss — never panic, never return
    /// the damaged payload, not even after a reopen — while its
    /// neighbours in the same segment stay served.
    #[test]
    fn any_single_byte_flip_is_quarantined(
        cycles in 1u64..1_000_000,
        flip_pos_seed in 0usize..10_000,
        flip_bit in 0u8..8,
        case in 0u64..1_000_000,
    ) {
        let dir = tmp(&format!("flip-{case}"));
        let key = make_key("dh".into(), "Icount", "Shared", 32, 12, 2_000, 100);
        let before = make_key("before".into(), "Icount", "Shared", 32, 12, 2_000, 100);
        let after = make_key("after".into(), "Icount", "Shared", 32, 12, 2_000, 100);
        let store = ResultStore::open(&dir).unwrap();
        store.put(&before, &make_result(1, 1, 1, 1)).unwrap();
        store.put(&key, &make_result(cycles, 10, 20, 3)).unwrap();
        store.put(&after, &make_result(2, 2, 2, 2)).unwrap();

        let (seg, off, len) = extent(&dir, &key);
        let mut bytes = fs::read(&seg).unwrap();
        let pos = off + flip_pos_seed % len;
        bytes[pos] ^= 1 << flip_bit;
        fs::write(&seg, &bytes).unwrap();

        // A flip may hit the header or the payload; either way the record
        // must not be served, and its bytes are kept.
        prop_assert!(matches!(store.get(&key), Lookup::Miss));
        prop_assert_eq!(store.counters().quarantined, 1);
        prop_assert_eq!(quarantined(&dir), vec![bytes[off..off + len].to_vec()]);
        prop_assert!(matches!(store.get(&before), Lookup::Hit(_)));
        prop_assert!(matches!(store.get(&after), Lookup::Hit(_)));

        let reopened = ResultStore::open(&dir).unwrap();
        prop_assert!(matches!(reopened.get(&key), Lookup::Miss));
        prop_assert!(matches!(reopened.get(&before), Lookup::Hit(_)));
        prop_assert!(matches!(reopened.get(&after), Lookup::Hit(_)));
        prop_assert_eq!(reopened.counters().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The segment holding `key`'s record, and the record's offset and
/// length in it, from the last `index.jsonl` line naming its hash.
fn extent(dir: &Path, key: &StoreKey) -> (PathBuf, usize, usize) {
    let index = fs::read_to_string(dir.join("index.jsonl")).unwrap();
    let hash = format!("{:016x}", key.content_hash());
    let line = index
        .lines()
        .map(|l| serde_json::from_str::<serde_json::Value>(l).unwrap())
        .rfind(|v| v.get("hash").and_then(|h| h.as_str()) == Some(&hash))
        .expect("the record is indexed");
    let num = |f: &str| match line.get(f) {
        Some(serde_json::Value::UInt(n)) => *n,
        other => panic!("index field {f}: {other:?}"),
    };
    let seg = dir
        .join("segments")
        .join(format!("{:06}.jsonl", num("seg")));
    (seg, num("off") as usize, num("len") as usize)
}

/// The contents of every file in `quarantine/`.
fn quarantined(dir: &Path) -> Vec<Vec<u8>> {
    fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .map(|e| fs::read(e.unwrap().path()).unwrap())
        .collect()
}

/// The full corruption drill: corrupt a record, observe the quarantine,
/// then "re-simulate" (put the result again) and get a clean hit — all
/// without a panic, with the damaged bytes preserved for post-mortem.
#[test]
fn corruption_forces_resimulation_then_recovers() {
    let dir = tmp("drill");
    let key = make_key("dh".into(), "CDPRF", "CISPRF", 32, 12, 2_000, 100);
    let fresh = make_result(5_000, 2_000, 2_000, 41);

    let store = ResultStore::open(&dir).unwrap();
    store.put(&key, &fresh).unwrap();
    let (seg, off, len) = extent(&dir, &key);

    // Flip a byte in the middle of the payload line.
    let mut bytes = fs::read(&seg).unwrap();
    bytes[off + len * 3 / 4] ^= 0x10;
    fs::write(&seg, &bytes).unwrap();

    // Lookup detects the damage: quarantine + miss, i.e. "re-simulate".
    assert!(matches!(store.get(&key), Lookup::Miss));
    assert_eq!(
        quarantined(&dir),
        vec![bytes[off..off + len].to_vec()],
        "quarantine preserves the record verbatim"
    );

    // The caller re-simulates and stores again; the slot heals, also
    // across a reopen.
    store.put(&key, &fresh).unwrap();
    match store.get(&key) {
        Lookup::Hit(r) => assert_eq!(canon(&r), canon(&fresh)),
        Lookup::Miss => panic!("healed record must hit"),
    }
    let c = store.counters();
    assert_eq!(c.quarantined, 1);
    assert_eq!(c.puts, 2);
    match ResultStore::open(&dir).unwrap().get(&key) {
        Lookup::Hit(r) => assert_eq!(canon(&r), canon(&fresh)),
        Lookup::Miss => panic!("the re-put supersedes the quarantined record"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A segment truncated under an indexed record is a quarantine, not a
/// panic.
#[test]
fn truncated_record_is_quarantined() {
    let dir = tmp("trunc");
    let key = make_key("dh".into(), "Icount", "Shared", 32, 12, 2_000, 100);
    let store = ResultStore::open(&dir).unwrap();
    store.put(&key, &make_result(100, 1, 2, 0)).unwrap();

    let (seg, _, len) = extent(&dir, &key);
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..len / 3]).unwrap();

    assert!(matches!(store.get(&key), Lookup::Miss));
    assert_eq!(store.counters().quarantined, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash mid-append leaves a torn tail, and may lose the index too.
/// A reopen serves every complete record, misses the torn one, and
/// accepts the next put.
#[test]
fn torn_tail_without_index_serves_whole_records() {
    let dir = tmp("torn");
    let keys: Vec<StoreKey> = (0..3)
        .map(|i| make_key(format!("w{i}"), "Icount", "Shared", 32, 12, 2_000, 100))
        .collect();
    let results: Vec<SimResult> = (0..3).map(|i| make_result(100 + i, 1, 2, i)).collect();
    {
        let store = ResultStore::open(&dir).unwrap();
        for (k, r) in keys.iter().zip(&results) {
            store.put(k, r).unwrap();
        }
    }
    let (seg, off, len) = extent(&dir, &keys[2]);
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..off + len / 2]).unwrap();
    fs::remove_file(dir.join("index.jsonl")).unwrap();

    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.len(), 2);
    for (k, r) in keys.iter().zip(&results).take(2) {
        match store.get(k) {
            Lookup::Hit(hit) => assert_eq!(canon(&hit), canon(r)),
            Lookup::Miss => panic!("complete record {} must be served", k.label),
        }
    }
    assert!(matches!(store.get(&keys[2]), Lookup::Miss));
    store.put(&keys[2], &results[2]).unwrap();
    assert!(matches!(store.get(&keys[2]), Lookup::Hit(_)));
    drop(store);

    let reopened = ResultStore::open(&dir).unwrap();
    assert_eq!(reopened.len(), 3);
    for (k, r) in keys.iter().zip(&results) {
        match reopened.get(k) {
            Lookup::Hit(hit) => assert_eq!(canon(&hit), canon(r)),
            Lookup::Miss => panic!("record {} lost after the re-put", k.label),
        }
    }
    assert_eq!(reopened.counters().quarantined, 0);
    let _ = fs::remove_dir_all(&dir);
}
