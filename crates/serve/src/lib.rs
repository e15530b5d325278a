//! # csmt-serve
//!
//! Long-running sweep-service daemon: the experiment harness behind a
//! job API instead of a batch CLI.
//!
//! Structured as a functional-core/adapters split:
//!
//! * [`engine`] — a pure job-lifecycle state machine
//!   (`Queued → Admitted → Running → {Done, Failed, Cancelled}`):
//!   inputs in, explicit effects out, no I/O, no clock. Bounded
//!   admission with deterministic backpressure, identical-submission
//!   dedup, drain-on-shutdown.
//! * [`recovery`] — replays the store journal's serve events into the
//!   engine after a crash or SIGTERM: unfinished jobs re-queue (their
//!   finished simulations return as store hits), terminal jobs keep
//!   answering `status`.
//! * [`server`] — the adapters: Unix-socket / local-TCP connections
//!   speaking the line-delimited JSON protocol of
//!   [`csmt_experiments::proto`], job worker threads running artifacts
//!   through the shared store-backed [`csmt_experiments::Sweeps`] layer
//!   (one memo per run options, whose in-flight entries keep each run
//!   to one simulation across concurrent jobs), and the effect
//!   interpreter wiring it all together.
//!
//! Clients: `csmt-experiments client` submits specs, streams events and
//! renders tables byte-identically to the batch path.

pub mod engine;
pub mod recovery;
pub mod server;

pub use engine::{Effect, Engine, EngineConfig, Input, JobState};
pub use recovery::{recover, Recovered};
pub use server::{Server, ServerConfig};
