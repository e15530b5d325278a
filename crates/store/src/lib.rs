//! # csmt-store
//!
//! Persistent, content-addressed storage for simulation results plus a
//! crash-resilient sweep orchestrator.
//!
//! The experiment harness regenerates every figure from simulation runs
//! that are pure functions of (workload, schemes, machine configuration,
//! run options). This crate makes those runs **durable and shareable**:
//!
//! * [`StoreKey`] captures the full identity of a run — workload label,
//!   scheme names, the complete [`csmt_types::MachineConfig`], the commit
//!   target / warm-up / cycle-cap options and a [`SCHEMA_VERSION`] — and
//!   hashes its canonical JSON into a 64-bit content address.
//! * [`ResultStore`] maps that address to a serialized
//!   [`csmt_core::SimResult`] on disk. Records are written atomically
//!   (temp file + rename), carry a per-record checksum, and corrupt
//!   records are **quarantined** instead of panicking — a damaged cache
//!   degrades into a re-simulation, never into wrong data.
//! * [`Journal`] appends structured JSONL events (cache hits/misses, job
//!   start/finish/failure, artifact progress) with a per-run `run_id` and a
//!   monotonic `seq`, so an interrupted sweep can be resumed and tests can
//!   assert on exactly what happened.
//! * [`Orchestrator`] runs each simulation once inside `catch_unwind`:
//!   a poisoned run is recorded as a failed job and the rest of the
//!   sweep completes.
//! * [`Executor`] runs a fixed bag of jobs across `--jobs N` worker
//!   threads that take the next job from one shared atomic cursor, so
//!   jobs start in item order, and hands results back **in item order**,
//!   so sweep aggregation is byte-identical whatever the interleaving;
//!   `jobs = 1` is a true serial path on the caller's thread.
//!
//! ## On-disk layout
//!
//! ```text
//! <store>/
//!   index.jsonl            one line per record: hash → file + run identity
//!   journal.jsonl          append-only event log across runs
//!   records/<hash>.json    header line (checksum) + payload line
//!   quarantine/<hash>.json corrupt records, moved aside for post-mortem
//!   artifacts/             [`ArtifactStore`]: checkpoints and sampling
//!                          sidecars, same record framing and quarantine
//!                          discipline (own index/records/quarantine)
//! ```

pub mod artifact;
pub mod executor;
pub mod journal;
pub mod key;
pub mod orchestrator;
pub mod store;

pub use artifact::{ArtifactCounters, ArtifactStore, ARTIFACT_SCHEMA};
pub use executor::{default_jobs, ExecCounters, Executor};
pub use journal::{Event, EventKind, JobDesc, Journal};
pub use key::{fnv1a, StoreKey, SCHEMA_VERSION};
#[doc(hidden)]
pub use orchestrator::fault_injection;
pub use orchestrator::{OrchCounters, Orchestrator};
pub use store::{Lookup, ResultStore, StoreCounters};
