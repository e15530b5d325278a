//! Architectural checkpoints: fast-forward a trace to a commit offset and
//! resume detailed simulation from there.
//!
//! A [`Checkpoint`] captures the *architectural* state of a machine after
//! each thread has committed exactly `offset` correct-path uops: the trace
//! specs (from which the architected register values and the program are
//! pure functions), the per-thread trace-generator cursor at that offset
//! (a [`TraceCursor`]: PRNG states, block position, stream and cold-burst
//! state — squashed correct-path uops are refetched from the replay
//! buffer, never by rewinding the source, so the source position after K
//! commits is exactly K), and a bounded summary of the memory lines the
//! skipped execution touched most recently (to pre-warm the hierarchy).
//! Restoring resumes each thread's generator from its cursor, so no
//! prefix is regenerated and no decoded stream is retained.
//!
//! What it deliberately does **not** capture is microarchitectural state:
//! cache tags, predictor tables, queue occupancies. Those are
//! reconstructed by the detailed warm-up window that sampled simulation
//! runs before each measured interval (see DESIGN.md, "Checkpointing").
//! The contract is therefore two-sided:
//!
//! * resuming from the *same checkpoint* is bit-exact — two simulators
//!   restored from equal checkpoints execute identically, byte for byte,
//!   whether the checkpoint came from memory or from a store round trip;
//! * the resumed commit stream is *architecturally* identical to a
//!   detailed run from zero: commit index K+i retires the same (pc,
//!   class) for every i, proven by the armed oracle and the boundary
//!   property tests.
//!
//! Capture replays the program with the in-order [`ThreadOracle`] — the
//! same engine that cross-checks detailed commits — so the fast-forward
//! path and the validation path cannot drift apart.

use csmt_trace::suite::TraceSpec;
use csmt_trace::{ThreadOracle, TraceCursor, WarmFootprint};
use serde::{Deserialize, Serialize};

/// Bump when the checkpoint layout changes incompatibly.
pub const CHECKPOINT_SCHEMA: u32 = 2;

/// One thread's slice of a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadCheckpoint {
    /// The trace this thread replays (architected state and stream are
    /// pure functions of it).
    pub spec: TraceSpec,
    /// Architectural commit offset: correct-path uops committed before
    /// the resume point.
    pub offset: u64,
    /// The trace generator's position after `offset` uops; a restore
    /// resumes the stream from it.
    pub cursor: TraceCursor,
    /// Most recently touched 64-byte line addresses during the skipped
    /// region, oldest first, bounded (see [`WarmFootprint`]).
    pub warm_lines: Vec<u64>,
}

/// A resumable architectural checkpoint for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    pub schema: u32,
    pub threads: Vec<ThreadCheckpoint>,
    /// FNV-1a over the JSON serialization of this record with
    /// `checksum` zeroed; [`Checkpoint::verify`] recomputes it.
    pub checksum: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Checkpoint {
    /// Capture a checkpoint with every thread fast-forwarded to the same
    /// commit `offset`.
    pub fn capture(specs: &[TraceSpec], offset: u64) -> Checkpoint {
        Self::capture_many(specs, &[offset])
            .pop()
            .expect("one offset in, one checkpoint out")
    }

    /// Capture checkpoints at several commit offsets in **one** forward
    /// replay pass per thread (offsets must be non-decreasing): the
    /// oracle advances monotonically and the warm footprint is
    /// snapshotted at each offset. This is what makes sampled simulation
    /// cheap — N interval checkpoints cost one replay to the last
    /// offset, not N replays.
    pub fn capture_many(specs: &[TraceSpec], offsets: &[u64]) -> Vec<Checkpoint> {
        assert!(!specs.is_empty(), "checkpoint needs at least one thread");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "capture_many offsets must be non-decreasing"
        );
        // thread -> offset index -> (cursor, warm-line) snapshot.
        let mut snapshots: Vec<std::vec::IntoIter<(TraceCursor, Vec<u64>)>> = specs
            .iter()
            .map(|spec| {
                let mut oracle = ThreadOracle::from_spec(spec);
                let mut fp = WarmFootprint::new();
                offsets
                    .iter()
                    .map(|&off| {
                        oracle.fast_forward(off - oracle.committed(), &mut fp);
                        (oracle.cursor(), fp.recent_lines())
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
            })
            .collect();
        offsets
            .iter()
            .map(|&off| {
                Checkpoint::sealed(
                    specs
                        .iter()
                        .zip(&mut snapshots)
                        .map(|(spec, snaps)| {
                            let (cursor, warm_lines) =
                                snaps.next().expect("one snapshot per offset");
                            ThreadCheckpoint {
                                spec: spec.clone(),
                                offset: off,
                                cursor,
                                warm_lines,
                            }
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn sealed(threads: Vec<ThreadCheckpoint>) -> Checkpoint {
        let mut c = Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            threads,
            checksum: 0,
        };
        c.checksum = c.content_hash();
        c
    }

    /// The checksum this record *should* carry: FNV-1a over its JSON
    /// form with the checksum field zeroed.
    pub fn content_hash(&self) -> u64 {
        let unsealed = Checkpoint {
            checksum: 0,
            ..self.clone()
        };
        let json = serde_json::to_string(&unsealed).expect("checkpoint serializes");
        fnv1a(json.as_bytes())
    }

    /// The trace specs of every thread, in thread order.
    pub fn specs(&self) -> Vec<TraceSpec> {
        self.threads.iter().map(|t| t.spec.clone()).collect()
    }

    /// Integrity check: schema, non-emptiness, checksum. A checkpoint
    /// that fails here must be treated as corrupt and never resumed.
    pub fn verify(&self) -> Result<(), String> {
        if self.schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "checkpoint schema {} != supported {CHECKPOINT_SCHEMA}",
                self.schema
            ));
        }
        if self.threads.is_empty() {
            return Err("checkpoint has no threads".into());
        }
        let want = self.content_hash();
        if self.checksum != want {
            return Err(format!(
                "checkpoint checksum mismatch: stored {:016x}, computed {:016x}",
                self.checksum, want
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmt_trace::suite;

    fn specs() -> Vec<TraceSpec> {
        suite::suite()[0].traces.to_vec()
    }

    #[test]
    fn capture_is_deterministic_and_verifies() {
        let a = Checkpoint::capture(&specs(), 3_000);
        let b = Checkpoint::capture(&specs(), 3_000);
        assert_eq!(a, b);
        a.verify().unwrap();
        assert_eq!(a.threads.len(), 2);
        assert!(a.threads.iter().all(|t| t.offset == 3_000));
        assert!(a.threads.iter().all(|t| !t.warm_lines.is_empty()));
    }

    #[test]
    fn capture_many_matches_individual_captures() {
        let offsets = [1_000, 4_000, 9_000];
        let many = Checkpoint::capture_many(&specs(), &offsets);
        for (ck, &off) in many.iter().zip(&offsets) {
            assert_eq!(ck, &Checkpoint::capture(&specs(), off), "offset {off}");
        }
    }

    #[test]
    fn tampering_fails_verification() {
        let mut ck = Checkpoint::capture(&specs(), 2_000);
        ck.threads[0].offset += 1;
        assert!(ck.verify().is_err(), "offset tamper must be caught");
        let mut ck = Checkpoint::capture(&specs(), 2_000);
        ck.threads[1].warm_lines.push(0xdead_beef);
        assert!(ck.verify().is_err(), "warm-line tamper must be caught");
        let mut ck = Checkpoint::capture(&specs(), 2_000);
        ck.checksum ^= 1;
        assert!(ck.verify().is_err(), "checksum flip must be caught");
    }

    #[test]
    fn json_round_trip_preserves_verification() {
        let ck = Checkpoint::capture(&specs(), 5_000);
        let json = serde_json::to_string(&ck).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ck);
        back.verify().unwrap();
    }

    #[test]
    fn restore_is_bit_exact_and_oracle_clean() {
        use crate::Simulator;
        use csmt_types::{MachineConfig, RegFileSchemeKind, SchemeKind};
        let ck = Checkpoint::capture(&specs(), 2_000);
        let run = |ck: &Checkpoint| {
            let mut sim = Simulator::from_checkpoint(
                MachineConfig::baseline(),
                SchemeKind::Cssp,
                RegFileSchemeKind::Shared,
                ck,
            )
            .unwrap();
            // Validators + oracle armed at the offset: every detailed
            // commit past the fast-forward must match the replay.
            sim.enable_oracle();
            sim.run_with_warmup(200, 800, 1_000_000)
        };
        let a = run(&ck);
        let b = run(&ck);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "two restores from the same checkpoint must be bit-exact"
        );
        assert!(a.throughput() > 0.0);

        // A corrupt checkpoint is refused, not silently resumed.
        let mut bad = ck.clone();
        bad.threads[0].offset += 1;
        assert!(Simulator::from_checkpoint(
            MachineConfig::baseline(),
            SchemeKind::Cssp,
            RegFileSchemeKind::Shared,
            &bad,
        )
        .is_err());
    }

    #[test]
    fn a_verified_checkpoint_whose_cursor_does_not_fit_is_refused() {
        use crate::Simulator;
        use csmt_types::{MachineConfig, RegFileSchemeKind, SchemeKind};
        let restore = |edit: &dyn Fn(&mut Checkpoint)| {
            let mut ck = Checkpoint::capture(&specs(), 2_000);
            edit(&mut ck);
            ck.checksum = ck.content_hash();
            ck.verify().unwrap();
            Simulator::from_checkpoint(
                MachineConfig::baseline(),
                SchemeKind::Cssp,
                RegFileSchemeKind::Shared,
                &ck,
            )
            .map(|_| ())
        };
        assert_eq!(restore(&|_| {}), Ok(()));
        let err = restore(&|ck| ck.threads[1].cursor.block = u32::MAX).unwrap_err();
        assert!(err.contains("thread 1") && err.contains("block"), "{err}");
        let err = restore(&|ck| ck.threads[0].cursor.program ^= 1).unwrap_err();
        assert!(err.contains("program"), "{err}");
        // Offset and cursor must name the same position.
        let err = restore(&|ck| ck.threads[0].offset += 1).unwrap_err();
        assert!(err.contains("offset"), "{err}");
    }

    #[test]
    fn offset_zero_is_a_valid_cold_start() {
        let ck = Checkpoint::capture(&specs(), 0);
        ck.verify().unwrap();
        assert!(ck.threads.iter().all(|t| t.warm_lines.is_empty()));
    }
}
