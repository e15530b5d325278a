//! # csmt-frontend
//!
//! The monolithic SMT front-end of §3: trace cache, gshare and indirect
//! branch predictors, ITLB, per-thread fetch queues feeding the rename
//! stage, per-thread rename tables (one per thread, as the paper requires)
//! and the per-thread reorder buffer sections.
//!
//! The front-end fetches from **one thread per cycle** and renames from
//! **one thread per cycle**; the *fetch selection policy* always picks the
//! thread with the fewest uops in its private fetch queue (§3), while the
//! *rename selection policy* is the resource-assignment scheme under study
//! and lives in `csmt-core`.

pub mod branch_pred;
pub mod fetch_queue;
pub mod rename;
pub mod rob;
pub mod trace_cache;

pub use branch_pred::{Gshare, IndirectPredictor};
pub use fetch_queue::{FetchQueue, FetchedUop};
pub use rename::RenameTable;
pub use rob::Rob;
pub use trace_cache::TraceCache;
