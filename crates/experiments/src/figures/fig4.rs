//! Figure 4: renaming stalls caused by lack of issue-queue entries per
//! retired instruction (32-entry issue queues, unbounded RF).
//!
//! An event is counted when a uop cannot go to its *preferred* cluster
//! because that cluster's queue is full or the scheme's limit is exceeded
//! (§5.1) — whether or not the uop is then redirected to the other cluster.

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
        .map(|runs| runs.iter().map(|r| r.iq_stalls_per_retired()).collect())
        .collect();

    let columns: Vec<String> = SchemeKind::all().iter().map(|s| s.to_string()).collect();
    category_table(
        "Figure 4 — IQ stalls per retired instruction (32-entry IQs)",
        columns,
        &rows,
    )
}
