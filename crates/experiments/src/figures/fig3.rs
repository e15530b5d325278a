//! Figure 3: inter-cluster communication — copy micro-ops per retired
//! instruction for each IQ scheme (32-entry issue queues, unbounded RF).

use super::{category_table, suite};
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_types::{RegFileSchemeKind, SchemeKind};

pub fn run(sweeps: &Sweeps) -> Table {
    let grid: Vec<_> = SchemeKind::all()
        .into_iter()
        .map(|s| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq: 32 }))
        .collect();
    let rows: Vec<Vec<f64>> = sweeps
        .smt_batch(suite(), &grid)
        .chunks(grid.len())
        .map(|runs| runs.iter().map(|r| r.copies_per_retired()).collect())
        .collect();

    let columns: Vec<String> = SchemeKind::all().iter().map(|s| s.to_string()).collect();
    category_table(
        "Figure 3 — copies per retired instruction (32-entry IQs)",
        columns,
        &rows,
    )
}
