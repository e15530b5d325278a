//! Figure 6: throughput of CSSP, CSSPRF and CISPRF with 64 and 128
//! physical registers per cluster, normalized per workload to Icount with
//! 64 registers (32-entry issue queues, Table-1 memory system).

use super::{category_table, suite};
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_types::{RegFileSchemeKind, SchemeKind};

/// The (rf-scheme, regs) grid of Figure 6. All run CSSP issue queues.
pub fn combos() -> Vec<(RegFileSchemeKind, usize)> {
    let mut v = Vec::new();
    for rf in [
        RegFileSchemeKind::Shared, // the "CSSP" series: no RF cap
        RegFileSchemeKind::Cssprf,
        RegFileSchemeKind::Cisprf,
    ] {
        for regs in [64usize, 128] {
            v.push((rf, regs));
        }
    }
    v
}

fn series_name(rf: RegFileSchemeKind) -> &'static str {
    match rf {
        RegFileSchemeKind::Shared => "CSSP",
        other => other.name(),
    }
}

pub fn run(sweeps: &Sweeps) -> Table {
    let mut grid: Vec<_> = combos()
        .into_iter()
        .map(|(rf, regs)| (SchemeKind::Cssp, rf, CfgKind::RfStudy { regs }))
        .collect();
    grid.push((
        SchemeKind::Icount,
        RegFileSchemeKind::Shared,
        CfgKind::RfStudy { regs: 64 },
    ));
    let rows: Vec<Vec<f64>> = sweeps
        .smt_batch(suite(), &grid)
        .chunks(grid.len())
        .map(|runs| {
            // The Icount@64regs base is the grid's last point.
            let (base, series) = runs.split_last().expect("non-empty grid");
            let base = base.throughput().max(1e-9);
            series.iter().map(|r| r.throughput() / base).collect()
        })
        .collect();

    let columns: Vec<String> = combos()
        .iter()
        .map(|(rf, regs)| format!("{}/{regs}", series_name(*rf)))
        .collect();
    category_table(
        "Figure 6 — throughput vs Icount@64regs (RF study, CSSP IQs)",
        columns,
        &rows,
    )
}
