//! # csmt-core
//!
//! The clustered SMT pipeline and the paper's contribution: the resource
//! assignment schemes of Tables 3 and 4 plus the proposed dynamic
//! register-file scheme CDPRF (Figures 7–8), evaluated on a cycle-level
//! model of the §3 microarchitecture.
//!
//! ## Architecture recap (§3, Figure 1)
//!
//! A monolithic front-end (trace cache, gshare + indirect predictors,
//! MITE/MROM decode) fetches from **one thread per cycle** into private
//! fetch queues, and renames from **one thread per cycle** — the *rename
//! selection policy* (the scheme under study) decides which. Renamed uops
//! are steered to one of two clusters by a dependence- and workload-based
//! algorithm; operands crossing clusters travel as on-demand **copy
//! micro-ops** over two 1-cycle links. Each cluster has a 32–64 entry
//! issue queue, 64–128 entry integer and FP/SIMD register files, and three
//! issue ports. A shared 128-entry MOB and L1/L2/memory hierarchy serve
//! loads and stores. The ROB is 128 entries per thread.
//!
//! ## Quick start
//!
//! ```
//! use csmt_core::{SimBuilder, Simulator};
//! use csmt_types::{MachineConfig, SchemeKind, RegFileSchemeKind};
//! use csmt_trace::suite;
//!
//! let workload = &suite()[0];
//! let result = SimBuilder::new(MachineConfig::baseline())
//!     .iq_scheme(SchemeKind::Cssp)
//!     .rf_scheme(RegFileSchemeKind::Cdprf)
//!     .workload(workload)
//!     .commit_target(5_000)
//!     .run();
//! assert!(result.throughput() > 0.0);
//! ```

#![allow(clippy::needless_range_loop)]

pub mod check;
pub mod checkpoint;
pub mod metrics;
pub mod perf;
pub mod pipeline;
pub mod probe;
pub mod schemes;
pub mod steering;
pub mod tracelog;

pub use check::{CheckSuite, UopView, Validator, Violation};
pub use checkpoint::{Checkpoint, ThreadCheckpoint, CHECKPOINT_SCHEMA};
pub use metrics::{fairness, fairness_n, SimResult, SimStats};
pub use perf::{EpochStats, PerfCounters};
pub use pipeline::{SimBuilder, Simulator};
pub use probe::MachineSnapshot;
pub use schemes::{
    make_iq_scheme, make_rf_scheme, IqScheme, RfScheme, RfView, SchedView, SteeredCaps,
};
pub use steering::{steer, SteerDecision};
pub use tracelog::{EventLog, UopRecord};
