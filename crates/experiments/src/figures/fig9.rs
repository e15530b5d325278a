//! Figure 9: CDPRF on the ISPEC-FSPEC category — per-workload throughput
//! of CSSP, CSSPRF, CISPRF and CDPRF normalized to Icount, plus the
//! category average (AVG) and the average over the full suite (AVG All).
//!
//! 64 registers per cluster: the configuration where the register file is
//! actually contended and the static/dynamic partitioning trade-off shows.

use super::{column_means, suite};
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_trace::suite::Category;
use csmt_types::{RegFileSchemeKind, SchemeKind};

pub const RF_SERIES: [RegFileSchemeKind; 4] = [
    RegFileSchemeKind::Shared, // plain CSSP
    RegFileSchemeKind::Cssprf,
    RegFileSchemeKind::Cisprf,
    RegFileSchemeKind::Cdprf,
];

pub const REGS: usize = 64;

fn series_name(rf: RegFileSchemeKind) -> &'static str {
    match rf {
        RegFileSchemeKind::Shared => "CSSP",
        other => other.name(),
    }
}

pub fn run(sweeps: &Sweeps) -> Table {
    let cfg = CfgKind::RfStudy { regs: REGS };
    let mut grid: Vec<_> = RF_SERIES
        .into_iter()
        .map(|rf| (SchemeKind::Cssp, rf, cfg))
        .collect();
    grid.push((SchemeKind::Icount, RegFileSchemeKind::Shared, cfg));
    // Each workload's throughput per series vs Icount.
    let norm: Vec<Vec<f64>> = sweeps
        .smt_batch(suite(), &grid)
        .chunks(grid.len())
        .map(|runs| {
            // The Icount base is the grid's last point.
            let (base, series) = runs.split_last().expect("non-empty grid");
            let base = base.throughput().max(1e-9);
            series.iter().map(|r| r.throughput() / base).collect()
        })
        .collect();

    let columns: Vec<String> = RF_SERIES.iter().map(|rf| series_name(*rf).into()).collect();
    let mut t = Table::new(
        "Figure 9 — ISPEC-FSPEC throughput vs Icount (64 regs/cluster)",
        "workload",
        columns,
    );
    for (w, row) in suite().iter().zip(&norm) {
        if w.category == Category::IspecFspec {
            let short = w.name.split('/').nth(1).unwrap_or(&w.name);
            t.push(short, row.clone());
        }
    }
    t.push_average("AVG");
    // AVG All: mean over the whole suite.
    t.push("AVG All", column_means(&norm, RF_SERIES.len()));
    t
}
