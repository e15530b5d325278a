//! Figure 10: fairness speedup versus Icount for Stall, Flush+, CSSP and
//! CSSP+CDPRF, per category plus average.
//!
//! Fairness follows \[33\]: the minimum ratio of the two threads' relative
//! slowdowns versus running alone on the same machine. The single-thread
//! baselines run Icount/Shared (a lone thread with the full machine).

use super::{push_category_means, suite};
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_core::metrics::{fairness, SimResult};
use csmt_types::{RegFileSchemeKind, SchemeKind, ThreadId};
use std::sync::Arc;

/// (label, iq scheme, rf scheme) series of Figure 10.
pub const SERIES: [(&str, SchemeKind, RegFileSchemeKind); 4] = [
    ("Stall", SchemeKind::Stall, RegFileSchemeKind::Shared),
    ("Flush+", SchemeKind::FlushPlus, RegFileSchemeKind::Shared),
    ("CSSP", SchemeKind::Cssp, RegFileSchemeKind::Shared),
    ("CDPRF", SchemeKind::Cssp, RegFileSchemeKind::Cdprf),
];

pub const REGS: usize = 64;

/// Fairness of each SMT run of one workload against its two solo
/// baselines.
pub fn workload_fairness(smt: &[Arc<SimResult>], alone: &[Arc<SimResult>]) -> Vec<f64> {
    let alone = [alone[0].ipc(ThreadId(0)), alone[1].ipc(ThreadId(0))];
    smt.iter()
        .map(|r| fairness([r.ipc(ThreadId(0)), r.ipc(ThreadId(1))], alone))
        .collect()
}

pub fn run(sweeps: &Sweeps) -> Table {
    let cfg = CfgKind::RfStudy { regs: REGS };
    let mut grid: Vec<_> = SERIES.iter().map(|&(_, iq, rf)| (iq, rf, cfg)).collect();
    grid.push((SchemeKind::Icount, RegFileSchemeKind::Shared, cfg));
    let smt = sweeps.smt_batch(suite(), &grid);
    let alone = sweeps.single_batch(suite(), cfg);
    let rows: Vec<Vec<f64>> = smt
        .chunks(grid.len())
        .zip(alone.chunks(2))
        .map(|(smt, alone)| {
            let fair = workload_fairness(smt, alone);
            // The Icount base is the grid's last point.
            let (&base, series) = fair.split_last().expect("non-empty grid");
            series
                .iter()
                .map(|f| if base > 0.0 { f / base } else { 1.0 })
                .collect()
        })
        .collect();

    let columns: Vec<String> = SERIES.iter().map(|(n, _, _)| n.to_string()).collect();
    let mut t = Table::new(
        "Figure 10 — fairness speedup vs Icount (64 regs/cluster)",
        "category",
        columns,
    );
    push_category_means(&mut t, &rows);
    t.push_average("Average");
    t
}
