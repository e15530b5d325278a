//! # csmt-experiments
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5). Each `figures::figN` module regenerates one artifact:
//!
//! | Artifact  | Content                                                      |
//! |-----------|--------------------------------------------------------------|
//! | Table 2   | the 120-workload suite definition                            |
//! | Figure 2  | throughput of the 7 IQ schemes at 32/64 entries per cluster  |
//! | Figure 3  | inter-cluster copies per retired instruction                 |
//! | Figure 4  | issue-queue stalls per retired instruction                   |
//! | Figure 5  | workload-imbalance histogram                                 |
//! | Figure 6  | throughput of CSSP/CSSPRF/CISPRF at 64/128 regs per cluster  |
//! | Figure 9  | CDPRF on the ISPEC-FSPEC category, per workload              |
//! | Figure 10 | fairness speedup vs Icount                                   |
//! | Summary   | headline numbers (CDPRF vs Icount throughput and fairness)   |
//!
//! Runs are memoized in a [`runner::Sweeps`] store so figures sharing a
//! configuration (2/3/4/5 share the 32-entry IQ study) simulate once.

#![allow(clippy::needless_range_loop)]

pub mod client;
pub mod figures;
pub mod fuzz;
pub mod proto;
pub mod report;
pub mod runner;
pub mod sample;
pub mod spec;

pub use runner::{ExpOptions, RunKey, SweepCounters, Sweeps};
pub use sample::SampleStats;
pub use spec::{JobSpec, SweepGroupKey};
