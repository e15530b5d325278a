//! figPair — the pairing sweep: every Table-2 trace pairing under three
//! scheme regimes, asking which pairings change their minds under
//! feedback.
//!
//! * **Shared** — Icount + Shared: no partitioning at all.
//! * **Static** — CSSP + CDPRF: the paper's final proposal, the best
//!   static/semi-static pair of §5.
//! * **Adaptive** — CAIQ + CARF: the counter-driven family, starting from
//!   the static shares and re-apportioning each epoch from observed
//!   stall imbalance.
//!
//! All three run on the §5.2 contention machine (32-entry IQs, 96
//! registers per cluster and class): both resources bounded, and the
//! register share sits above the rename floor so CARF has room to move.
//! The paper's claim is that IQ assignment is cluster-*sensitive* while
//! RF assignment is cluster-*insensitive*; this artifact re-examines the
//! scheme choice per pairing once the shares are allowed to follow the
//! counters. `Flips` is the fraction of pairings in each category where
//! the adaptive pair strictly beats both the shared and the static
//! regime — pairings whose winner the feedback changes.

use super::{category_table, suite};
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_types::{RegFileSchemeKind, SchemeKind};

/// Registers per cluster and class of the pairing-sweep machine.
pub const PAIR_REGS: usize = 96;

/// The three regimes, in column order.
pub fn combos() -> [(&'static str, SchemeKind, RegFileSchemeKind); 3] {
    [
        ("Shared", SchemeKind::Icount, RegFileSchemeKind::Shared),
        ("Static", SchemeKind::Cssp, RegFileSchemeKind::Cdprf),
        ("Adaptive", SchemeKind::Caiq, RegFileSchemeKind::Carf),
    ]
}

fn cfg() -> CfgKind {
    CfgKind::RfStudy { regs: PAIR_REGS }
}

pub fn run(sweeps: &Sweeps) -> Table {
    let grid: Vec<_> = combos()
        .into_iter()
        .map(|(_, s, rf)| (s, rf, cfg()))
        .collect();
    let rows: Vec<Vec<f64>> = sweeps
        .smt_batch(suite(), &grid)
        .chunks(grid.len())
        .map(|runs| {
            let [shared, fixed, adaptive] = [0, 1, 2].map(|j| runs[j].throughput());
            vec![
                shared,
                fixed,
                adaptive,
                adaptive / fixed.max(1e-9),
                // 1 when the adaptive regime strictly wins this pairing;
                // category rows then read as the flipped fraction.
                (adaptive > fixed && adaptive > shared) as u8 as f64,
            ]
        })
        .collect();

    let mut columns: Vec<String> = combos()
        .iter()
        .map(|(name, _, _)| name.to_string())
        .collect();
    columns.push("Adapt/Static".to_string());
    columns.push("Flips".to_string());
    category_table(
        "figPair — pairing sweep: Shared vs Static vs Adaptive (RF96 machine)",
        columns,
        &rows,
    )
}
