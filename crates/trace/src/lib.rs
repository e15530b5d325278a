//! # csmt-trace
//!
//! Synthetic micro-op trace generation standing in for the paper's pool of
//! 120 proprietary 2-threaded x86 traces (Table 2).
//!
//! The paper's traces come from Intel production workloads (SPEC2K, TPC,
//! Sysmark, digital-home, multimedia, office, ...). We cannot obtain them;
//! per DESIGN.md the substitution is a *profile-driven synthetic program
//! model*: each category is described by a [`profile::TraceProfile`]
//! (instruction mix, dependency-distance distribution, memory footprint and
//! locality, branch predictability, code footprint, register pressure), a
//! static program is synthesized from the profile, and a [`gen::ThreadTrace`]
//! walks that program emitting an infinite micro-op stream.
//!
//! The resource-assignment schemes under study react to trace
//! *characteristics* — issue-queue pressure, L2 miss rate, register-file
//! pressure per class, ILP — not to program semantics, so a synthetic stream
//! with the right characteristics exercises the same mechanisms.
//!
//! Traces are deterministic: the stream is a pure function of
//! `(profile, seed)`.

#![allow(clippy::needless_range_loop)]

pub mod gen;
pub mod io;
pub mod oracle;
pub mod profile;
pub mod program;
pub mod stats;
pub mod stream;
pub mod suite;

pub use gen::{CursorError, ThreadTrace, TraceCursor, WrongPathSource};
pub use io::{record_trace, TraceReader, TraceWriter};
pub use oracle::{OracleDivergence, ThreadOracle, WarmFootprint};
pub use profile::{TraceClass, TraceProfile};
pub use program::Program;
pub use stats::{characterize, characterize_trace, TraceStats};
pub use stream::{SharedStream, StreamReader};
pub use suite::{bundles, suite, Bundle, Category, Workload, WorkloadKind};
