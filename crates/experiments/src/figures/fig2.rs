//! Figure 2: throughput of the seven IQ assignment schemes with 32 and 64
//! issue-queue entries per cluster, register files and ROB unbounded,
//! normalized per workload to Icount with 32 entries.

use super::{category_table, suite};
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_types::{RegFileSchemeKind, SchemeKind};

/// Workloads of the fig2 slice — one per suite region, stable names. The
/// golden fixtures and the sampling-equivalence tests pin this slice.
pub const SLICE_WORKLOADS: [&str; 4] = [
    "DH/ilp.2.1",
    "multimedia/mix.2.1",
    "ISPEC-FSPEC/mix.2.1",
    "mixes/mix.2.3",
];

/// Scheme/IQ-size combos of the fig2 slice (all with the shared RF, as in
/// Figure 2's IQ study); a subset of [`combos`].
pub const SLICE_COMBOS: [(SchemeKind, usize); 4] = [
    (SchemeKind::Icount, 32),
    (SchemeKind::FlushPlus, 32),
    (SchemeKind::Cssp, 32),
    (SchemeKind::Cssp, 64),
];

/// The (scheme, iq-size) grid of Figure 2.
pub fn combos() -> Vec<(SchemeKind, usize)> {
    let mut v = Vec::new();
    for s in SchemeKind::all() {
        for iq in [32usize, 64] {
            v.push((s, iq));
        }
    }
    v
}

pub fn run(sweeps: &Sweeps) -> Table {
    let combos = combos();
    let grid: Vec<_> = combos
        .iter()
        .map(|&(s, iq)| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq }))
        .collect();
    let base = combos
        .iter()
        .position(|&c| c == (SchemeKind::Icount, 32))
        .expect("the grid holds the Icount@32 base");
    let rows: Vec<Vec<f64>> = sweeps
        .smt_batch(suite(), &grid)
        .chunks(grid.len())
        .map(|runs| {
            let base = runs[base].throughput().max(1e-9);
            runs.iter().map(|r| r.throughput() / base).collect()
        })
        .collect();

    let columns: Vec<String> = combos.iter().map(|(s, iq)| format!("{s}/{iq}")).collect();
    category_table(
        "Figure 2 — throughput speedup vs Icount@32 (IQ study)",
        columns,
        &rows,
    )
}
