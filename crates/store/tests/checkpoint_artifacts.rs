//! Checkpoint persistence through the [`ArtifactStore`]: capture →
//! persist → restore must resume **byte-identically** to a direct
//! (uninterrupted) restore, and a damaged checkpoint record must be
//! quarantined and recomputed — never silently resumed.

use csmt_core::{Checkpoint, Simulator};
use csmt_store::ArtifactStore;
use csmt_trace::suite::{suite, TraceSpec};
use csmt_types::{MachineConfig, RegFileSchemeKind, SchemeKind};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csmt-ckpt-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn specs() -> Vec<TraceSpec> {
    suite()[0].traces.to_vec()
}

/// Run from a checkpoint to a fixed horizon; serialized result bytes.
fn resume_bytes(ck: &Checkpoint) -> String {
    let cfg = MachineConfig::iq_study(32);
    let mut sim = Simulator::from_checkpoint(cfg, SchemeKind::Cssp, RegFileSchemeKind::Shared, ck)
        .expect("checkpoint restores");
    let r = sim.run_with_warmup(200, 800, 2_000_000);
    serde_json::to_string(&r).unwrap()
}

/// Capture → store → reload → resume equals capture → resume directly:
/// the persisted artifact carries the complete checkpoint state.
#[test]
fn stored_checkpoint_resumes_byte_identically() {
    let dir = tmp("roundtrip");
    let store = ArtifactStore::open(&dir).unwrap();
    let ck = Checkpoint::capture(&specs(), 4_000);
    let direct = resume_bytes(&ck);

    let payload = serde_json::to_string(&ck).unwrap();
    store.put_record("checkpoint", "k", &payload).unwrap();
    let loaded: Checkpoint =
        serde_json::from_str(&store.get_record("checkpoint", "k").unwrap()).unwrap();
    loaded.verify().expect("stored checkpoint verifies");
    assert_eq!(loaded, ck, "checkpoint must round-trip losslessly");
    assert_eq!(
        resume_bytes(&loaded),
        direct,
        "resume from the stored checkpoint must be byte-identical"
    );

    // And across a process boundary (fresh store over the same root).
    drop(store);
    let reopened = ArtifactStore::open(&dir).unwrap();
    let reloaded: Checkpoint =
        serde_json::from_str(&reopened.get_record("checkpoint", "k").unwrap()).unwrap();
    assert_eq!(resume_bytes(&reloaded), direct);
    let _ = fs::remove_dir_all(&dir);
}

/// An interrupted-and-resumed run equals an uninterrupted run at the
/// same commit target: fast-forward to K, run detailed to the target,
/// and compare against running detailed from the cold start — at the
/// architectural level the oracle enforces this during the run (armed
/// below), and the restore side must also be self-consistent twice over.
#[test]
fn kill_and_resume_matches_direct_restore_with_oracle_armed() {
    let cfg = MachineConfig::iq_study(32);
    let run = || {
        let ck = Checkpoint::capture(&specs(), 6_000);
        let mut sim = Simulator::from_checkpoint(
            cfg.clone(),
            SchemeKind::Cssp,
            RegFileSchemeKind::Shared,
            &ck,
        )
        .unwrap();
        sim.enable_oracle();
        serde_json::to_string(&sim.run_with_warmup(300, 900, 2_000_000)).unwrap()
    };
    // "Kill": the first capture's process state is gone; a second
    // process recaptures from the same specs and must land in exactly
    // the same place, with the differential oracle agreeing throughout.
    assert_eq!(run(), run(), "recaptured resume must be bit-exact");
}

/// The segment and extent of the last record `index.jsonl` names.
fn last_extent(root: &std::path::Path) -> (PathBuf, usize, usize) {
    let index = fs::read_to_string(root.join("index.jsonl")).unwrap();
    let line: serde_json::Value = serde_json::from_str(index.lines().last().unwrap()).unwrap();
    let num = |f: &str| match line.get(f) {
        Some(serde_json::Value::UInt(n)) => *n as usize,
        other => panic!("index field {f}: {other:?}"),
    };
    let seg = root
        .join("segments")
        .join(format!("{:06}.jsonl", num("seg")));
    (seg, num("off"), num("len"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any single flipped byte inside a persisted checkpoint record's
    /// extent is quarantined on read: `get_record` misses (forcing a
    /// recapture), the record's bytes are kept in `quarantine/`, and
    /// neither this store nor a reopened one resumes from the damaged
    /// state. The record written before it in the same segment is
    /// untouched.
    #[test]
    fn corrupt_checkpoint_is_quarantined_not_resumed(
        offset in 1_000u64..8_000,
        flip_pos_seed in 0usize..100_000,
        flip_bit in 0u8..8,
        case in 0u32..1_000,
    ) {
        let dir = tmp(&format!("flip-{case}"));
        let store = ArtifactStore::open(&dir).unwrap();
        let ck = Checkpoint::capture(&specs(), offset);
        let payload = serde_json::to_string(&ck).unwrap();
        store.put_record("checkpoint", "neighbour", &payload).unwrap();
        store.put_record("checkpoint", "k", &payload).unwrap();

        // Flip one byte of the record's extent in its segment.
        let (seg, off, len) = last_extent(store.root());
        let mut bytes = fs::read(&seg).unwrap();
        bytes[off + flip_pos_seed % len] ^= 1 << flip_bit;
        fs::write(&seg, &bytes).unwrap();

        prop_assert!(store.get_record("checkpoint", "k").is_none());
        prop_assert_eq!(store.counters().quarantined, 1);
        let kept: Vec<Vec<u8>> = fs::read_dir(store.root().join("quarantine"))
            .unwrap()
            .map(|e| fs::read(e.unwrap().path()).unwrap())
            .collect();
        prop_assert_eq!(kept, vec![bytes[off..off + len].to_vec()]);
        prop_assert_eq!(store.get_record("checkpoint", "neighbour"), Some(payload.clone()));

        let reopened = ArtifactStore::open(&dir).unwrap();
        prop_assert!(reopened.get_record("checkpoint", "k").is_none());
        prop_assert_eq!(reopened.get_record("checkpoint", "neighbour"), Some(payload));
        let _ = fs::remove_dir_all(&dir);
    }
}
