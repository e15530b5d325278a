//! Sweep-service job specifications.
//!
//! A [`JobSpec`] is what a client submits to the `csmt-serve` daemon: the
//! artifact list plus the run options that shape every simulation
//! (commit target, warm-up, cycle cap, batched front end). It is the
//! *identity* of a job — two submissions with the same canonical form are
//! the same work and the daemon deduplicates them — so the spec
//! deliberately excludes anything that does not change results:
//! `--jobs` (worker count; bit-identical by construction), verbosity,
//! and output formatting all stay client- or daemon-side.
//!
//! The canonical form is the compact JSON serialization. The vendored
//! serde emits object keys in field-declaration order, so equal specs
//! canonicalize to equal bytes with no extra sorting step.

use crate::figures::{ABLATIONS, ALL_ARTIFACTS};
use crate::runner::ExpOptions;
use csmt_types::SampleSpec;
use serde::{Deserialize, Serialize};

/// Everything that groups specs onto one memoizing [`crate::Sweeps`]:
/// each option that participates in the store identity of a run. `batch`
/// does not: like `--jobs`, it changes how runs execute, not what they
/// produce, so groups partition the store's keys.
pub type SweepGroupKey = (u64, u64, u64, Option<SampleSpec>);

/// One submitted unit of work: which artifacts to produce, under which
/// run options.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Artifact names in render order (`fig2`, `detail:<workload>`, ...).
    pub artifacts: Vec<String>,
    /// Committed uops per thread per run (`--target`).
    pub target: u64,
    /// Warm-up committed uops per thread (`--warmup`).
    pub warmup: u64,
    /// Hard cycle cap per run.
    pub max_cycles: u64,
    /// Shared-stream batched front end (`--batch`).
    pub batch: bool,
    /// Sampled simulation plan (`--sample`); `None` for full runs.
    pub sample: Option<SampleSpec>,
}

impl JobSpec {
    /// Spec for `artifacts` under the given harness options.
    pub fn new(artifacts: Vec<String>, opts: &ExpOptions) -> JobSpec {
        JobSpec {
            artifacts,
            target: opts.commit_target,
            warmup: opts.warmup,
            max_cycles: opts.max_cycles,
            batch: opts.batch,
            sample: opts.sample,
        }
    }

    /// Canonical identity bytes: compact JSON, keys in declaration order.
    pub fn canonical(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }

    /// Parse a canonical (or any JSON) spec.
    pub fn parse(s: &str) -> Result<JobSpec, String> {
        let spec: JobSpec = serde_json::from_str(s).map_err(|e| format!("bad spec: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Reject malformed specs before any scheduling: unknown artifacts,
    /// an empty artifact list, or a zero commit target.
    pub fn validate(&self) -> Result<(), String> {
        if self.artifacts.is_empty() {
            return Err("spec names no artifacts".into());
        }
        for name in &self.artifacts {
            let known = ALL_ARTIFACTS.contains(&name.as_str())
                || ABLATIONS.contains(&name.as_str())
                || name.starts_with("detail:");
            if !known {
                return Err(format!("unknown artifact: {name}"));
            }
        }
        if self.target == 0 {
            return Err("target must be positive".into());
        }
        if let Some(s) = &self.sample {
            s.validate()?;
        }
        Ok(())
    }

    /// Harness options for running this spec. Worker count and verbosity
    /// are the *daemon's* call, not the spec's — they do not change
    /// results, so they are not part of the job identity.
    pub fn to_options(&self, jobs: usize, verbose: bool) -> ExpOptions {
        ExpOptions {
            commit_target: self.target,
            warmup: self.warmup,
            max_cycles: self.max_cycles,
            jobs,
            verbose,
            validate: false,
            batch: self.batch,
            sample: self.sample,
        }
    }

    /// Key grouping specs that can share one memoizing [`crate::Sweeps`]
    /// instance: every option that participates in the store identity.
    pub fn sweep_group(&self) -> SweepGroupKey {
        (self.target, self.warmup, self.max_cycles, self.sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(artifacts: &[&str]) -> JobSpec {
        JobSpec {
            artifacts: artifacts.iter().map(|s| s.to_string()).collect(),
            target: 2000,
            warmup: 500,
            max_cycles: 1_000_000,
            batch: false,
            sample: None,
        }
    }

    #[test]
    fn canonical_round_trips_and_is_stable() {
        let s = spec(&["fig2", "detail:DH/ilp.2.1"]);
        let c = s.canonical();
        let back = JobSpec::parse(&c).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.canonical(), c, "canonical form is a fixed point");
    }

    #[test]
    fn equal_specs_share_canonical_bytes() {
        assert_eq!(spec(&["fig2"]).canonical(), spec(&["fig2"]).canonical());
        assert_ne!(spec(&["fig2"]).canonical(), spec(&["fig3"]).canonical());
        let mut faster = spec(&["fig2"]);
        faster.target = 9999;
        assert_ne!(spec(&["fig2"]).canonical(), faster.canonical());
    }

    #[test]
    fn validation_rejects_junk() {
        assert!(spec(&[]).validate().unwrap_err().contains("no artifacts"));
        assert!(spec(&["fig99"]).validate().unwrap_err().contains("fig99"));
        let mut z = spec(&["fig2"]);
        z.target = 0;
        assert!(z.validate().unwrap_err().contains("target"));
        assert!(spec(&["fig2", "ablation-links", "detail:x"])
            .validate()
            .is_ok());
        assert!(JobSpec::parse("{nope").unwrap_err().contains("bad spec"));
    }

    #[test]
    fn options_carry_spec_fields_but_not_identity_noise() {
        let s = spec(&["fig2"]);
        let o = s.to_options(4, false);
        assert_eq!(o.commit_target, 2000);
        assert_eq!(o.warmup, 500);
        assert_eq!(o.jobs, 4);
        assert!(!o.verbose);
        assert!(!o.validate);
        // jobs/verbose do not affect the canonical identity.
        assert_eq!(s.canonical(), spec(&["fig2"]).canonical());
    }

    #[test]
    fn sweep_group_folds_option_identity() {
        let a = spec(&["fig2"]);
        let b = spec(&["fig3"]);
        assert_eq!(
            a.sweep_group(),
            b.sweep_group(),
            "artifacts don't split groups"
        );
        let mut c = spec(&["fig2"]);
        c.batch = true;
        assert_eq!(
            a.sweep_group(),
            c.sweep_group(),
            "batch doesn't split groups"
        );
        assert_ne!(a.canonical(), c.canonical(), "but it is a distinct spec");
        let mut d = spec(&["fig2"]);
        d.sample = Some(SampleSpec {
            intervals: 8,
            warmup: 200,
            detail: 800,
        });
        assert_ne!(a.sweep_group(), d.sweep_group(), "sampling splits groups");
        assert_ne!(a.canonical(), d.canonical());
        let mut bad = d.clone();
        bad.sample.as_mut().unwrap().intervals = 0;
        assert!(bad.validate().is_err(), "degenerate sample spec rejected");
    }
}
