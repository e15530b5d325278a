//! Content addressing: the identity of one simulation run, and its hash.

use csmt_types::{MachineConfig, SampleSpec};
use serde::{Deserialize, Serialize};

/// Version of the record format **and** of anything that changes simulated
/// behaviour outside [`StoreKey`]'s explicit fields (e.g. a deliberate
/// model change). Bumping it invalidates every cached record: the version
/// participates in the content hash, so old records are simply never
/// addressed again.
pub const SCHEMA_VERSION: u32 = 1;

/// Full identity of a simulation run.
///
/// Two runs with equal `StoreKey`s produce bit-identical [`csmt_core::SimResult`]s
/// (the simulator is deterministic), so the key's content hash can address
/// the result durably — across processes and machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreKey {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema: u32,
    /// Workload label (`Sweeps`' `RunKey::label`): a suite workload name or
    /// `single:<profile>:<seed>` for a fairness baseline.
    pub label: String,
    /// Issue-queue scheme name (`SchemeKind::name`).
    pub iq: String,
    /// Register-file scheme name (`RegFileSchemeKind::name`).
    pub rf: String,
    /// Configuration variant label (`CfgKind::label`), kept for human
    /// inspection of the index; the `config` field is authoritative.
    pub cfg: String,
    /// The complete machine configuration the run was built from.
    pub config: MachineConfig,
    /// Committed uops per thread the run targets.
    pub commit_target: u64,
    /// Warm-up committed uops per thread before measurement.
    pub warmup: u64,
    /// Hard cycle cap.
    pub max_cycles: u64,
    /// Sampling plan, when the run is a checkpointed sampled estimate
    /// rather than a contiguous detailed run. `None` (serialized as
    /// `null`) for full runs, so sampled and full results of the same
    /// workload never alias.
    pub sample: Option<SampleSpec>,
}

impl StoreKey {
    /// Canonical serialized form: compact JSON. The vendored serializer
    /// emits object keys in field-declaration order, so equal keys always
    /// produce identical bytes.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("store key serializes")
    }

    /// 64-bit FNV-1a content hash of the canonical form.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.canonical_json().as_bytes())
    }
}

/// FNV-1a 64-bit hash — the same primitive the golden-trace tests use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(label: &str) -> StoreKey {
        StoreKey {
            schema: SCHEMA_VERSION,
            label: label.to_string(),
            iq: "Icount".to_string(),
            rf: "Shared".to_string(),
            cfg: "iq32".to_string(),
            config: MachineConfig::iq_study(32),
            commit_target: 20_000,
            warmup: 10_000,
            max_cycles: 30_000_000,
            sample: None,
        }
    }

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(key("a").content_hash(), key("a").content_hash());
    }

    #[test]
    fn any_field_changes_the_hash() {
        let base = key("a");
        let mut k = key("a");
        k.label = "b".to_string();
        assert_ne!(base.content_hash(), k.content_hash());

        let mut k = key("a");
        k.schema += 1;
        assert_ne!(
            base.content_hash(),
            k.content_hash(),
            "schema bump must invalidate"
        );

        let mut k = key("a");
        k.commit_target += 1;
        assert_ne!(base.content_hash(), k.content_hash());

        let mut k = key("a");
        k.config.l2_latency += 1;
        assert_ne!(
            base.content_hash(),
            k.content_hash(),
            "config is part of identity"
        );

        let mut k = key("a");
        k.sample = Some(SampleSpec {
            intervals: 8,
            warmup: 200,
            detail: 800,
        });
        assert_ne!(
            base.content_hash(),
            k.content_hash(),
            "sampled and full runs must not alias"
        );
    }

    #[test]
    fn canonical_json_round_trips() {
        let k = key("suite/mix.2.1");
        let back: StoreKey = serde_json::from_str(&k.canonical_json()).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.content_hash(), k.content_hash());
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a("") is the offset basis; "a" is a published test vector.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
