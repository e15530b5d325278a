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
//!   [`csmt_core::SimResult`] on disk. Records are appended to a shared
//!   record log (one `sync_data`'d write per record, no file per
//!   record), carry a per-record checksum, and corrupt records are
//!   **quarantined** instead of panicking — a damaged cache degrades into
//!   a re-simulation, never into wrong data.
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
//!   index.jsonl            one line per put or quarantine: hash → segment,
//!                          offset, length
//!   segments/<id>.jsonl    append-only records (header line with checksum,
//!                          payload); each open store writes its own segment,
//!                          zero-filled ahead of its records until closed
//!   quarantine/            bytes of records that failed verification
//!   journal.jsonl          append-only event log across runs
//!   artifacts/             [`ArtifactStore`]: checkpoints and sampling
//!                          sidecars in a second log of the same format
//! ```
//!
//! Stores in the earlier file-per-record layout (`records/<hash>.json`)
//! are not read; their runs simulate once more.

pub mod artifact;
pub mod executor;
pub mod journal;
pub mod key;
mod log;
pub mod orchestrator;
pub mod store;

pub use artifact::ArtifactStore;
pub use executor::{default_jobs, ExecCounters, Executor};
pub use journal::{Event, EventKind, JobDesc, Journal};
pub use key::{fnv1a, StoreKey, SCHEMA_VERSION};
pub use log::StoreCounters;
#[doc(hidden)]
pub use orchestrator::fault_injection;
pub use orchestrator::{OrchCounters, Orchestrator};
pub use store::{Lookup, ResultStore};
