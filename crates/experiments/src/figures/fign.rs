//! Figure N: the paper's headline comparisons re-run at scaled machine
//! shapes the paper never measured — 4 threads × 2 clusters and
//! 4 threads × 4 clusters.
//!
//! Two question marks ride on scaling. Throughput: do the
//! cluster-sensitive IQ schemes (Figure 2's result) still beat Icount
//! when the per-thread share of each queue shrinks? Fairness: does CDPRF
//! (Figure 10's result) still raise fairness over a shared register file
//! when four threads compete? Rows are the N-thread bundles per shape;
//! the first four columns are throughput speedups vs Icount on the
//! scaled IQ-study machine, the last two are fairness speedups vs
//! Icount/Shared on the scaled RF-study machine.

use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_core::fairness_n;
use csmt_core::metrics::SimResult;
use csmt_trace::suite::bundles;
use csmt_types::{RegFileSchemeKind, SchemeKind, ThreadId};
use std::sync::Arc;

/// The scaled shapes: (threads, clusters).
pub const SHAPES: [(usize, usize); 2] = [(4, 2), (4, 4)];

/// Issue-queue entries per cluster for the throughput columns.
pub const IQ: usize = 32;

/// Registers per cluster and class for the fairness columns. 128 sits
/// exactly on the 4-thread rename-deadlock floor (4 × 32), the scaled
/// analogue of Figure 6's smallest interesting file.
pub const REGS: usize = 128;

/// Throughput series (all on the scaled IQ-study machine, vs Icount).
pub const IQ_SERIES: [(&str, SchemeKind); 4] = [
    ("Stall/tp", SchemeKind::Stall),
    ("Flush+/tp", SchemeKind::FlushPlus),
    ("CISP/tp", SchemeKind::Cisp),
    ("CSSP/tp", SchemeKind::Cssp),
];

/// Fairness series (all on the scaled RF-study machine, vs
/// Icount/Shared).
pub const RF_SERIES: [(&str, SchemeKind, RegFileSchemeKind); 2] = [
    ("CSSP/fair", SchemeKind::Cssp, RegFileSchemeKind::Shared),
    ("CDPRF/fair", SchemeKind::Cssp, RegFileSchemeKind::Cdprf),
];

fn iq_cfg(threads: usize, clusters: usize) -> CfgKind {
    CfgKind::ScaledIq {
        threads,
        clusters,
        iq: IQ,
    }
}

fn rf_cfg(threads: usize, clusters: usize) -> CfgKind {
    CfgKind::ScaledRf {
        threads,
        clusters,
        regs: REGS,
    }
}

/// Fairness of each SMT run of one bundle: `fairness_n` over every
/// thread's slowdown vs running alone on the same scaled machine.
fn bundle_fairness(smt: &[Arc<SimResult>], alone: &[Arc<SimResult>]) -> Vec<f64> {
    let alone_ipc: Vec<f64> = alone.iter().map(|r| r.ipc(ThreadId(0))).collect();
    smt.iter()
        .map(|r| {
            let smt_ipc: Vec<f64> = (0..alone.len()).map(|t| r.ipc(ThreadId(t as u8))).collect();
            fairness_n(&smt_ipc, &alone_ipc)
        })
        .collect()
}

pub fn run(sweeps: &Sweeps) -> Table {
    let columns: Vec<String> = IQ_SERIES
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(RF_SERIES.iter().map(|(n, _, _)| n.to_string()))
        .collect();
    let mut t = Table::new(
        "Figure N — scaled shapes: throughput speedup vs Icount (IQ study) \
         and fairness speedup vs Icount/Shared (RF study)",
        "shape:bundle",
        columns,
    );
    for (threads, clusters) in SHAPES {
        let bs = bundles(threads);
        let iq_cfg = iq_cfg(threads, clusters);
        let rf_cfg = rf_cfg(threads, clusters);

        // Per bundle: the throughput series and their Icount base on
        // the IQ machine, then the fairness series and their
        // Icount/Shared base on the RF machine.
        let mut grid: Vec<_> = IQ_SERIES
            .iter()
            .map(|&(_, s)| (s, RegFileSchemeKind::Shared, iq_cfg))
            .collect();
        grid.push((SchemeKind::Icount, RegFileSchemeKind::Shared, iq_cfg));
        for &(_, s, rf) in &RF_SERIES {
            grid.push((s, rf, rf_cfg));
        }
        grid.push((SchemeKind::Icount, RegFileSchemeKind::Shared, rf_cfg));
        let smt = sweeps.bundle_batch(&bs, &grid);
        let alone = sweeps.bundle_single_batch(&bs, rf_cfg);

        let n = IQ_SERIES.len();
        for ((b, runs), alone) in bs
            .iter()
            .zip(smt.chunks(grid.len()))
            .zip(alone.chunks(threads))
        {
            let icount_tp = runs[n].throughput();
            let mut vals: Vec<f64> = runs[..n]
                .iter()
                .map(|r| r.throughput() / icount_tp.max(1e-9))
                .collect();
            let fair = bundle_fairness(&runs[n + 1..], alone);
            let (&icount_fair, series) = fair.split_last().expect("non-empty grid");
            vals.extend(series.iter().map(|f| {
                if icount_fair > 0.0 {
                    f / icount_fair
                } else {
                    1.0
                }
            }));
            t.push(&format!("{threads}x{clusters}:{}", b.name), vals);
        }
    }
    t.push_average("Average");
    t
}
