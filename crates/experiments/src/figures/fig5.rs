//! Figure 5: workload-imbalance analysis for Icount, CISP, CSSP and PC.
//!
//! For each category and scheme the columns give the fraction of
//! cycles-with-issue in which a ready uop of each kind failed to issue
//! while the other cluster had no ("0") or at least one ("1") compatible
//! free port. "1" fractions are direct evidence of imbalance.

use super::{by_category, suite};
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_types::{ImbalanceKind, RegFileSchemeKind, SchemeKind};

/// The schemes Figure 5 compares.
pub const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Icount,
    SchemeKind::Cisp,
    SchemeKind::Cssp,
    SchemeKind::Pc,
];

pub fn run(sweeps: &Sweeps) -> Table {
    let grid: Vec<_> = SCHEMES
        .into_iter()
        .map(|s| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq: 32 }))
        .collect();
    let runs = sweeps.smt_batch(suite(), &grid);
    let per_workload: Vec<_> = runs.chunks(grid.len()).collect();

    let mut columns = Vec::new();
    for avail in 0..2 {
        for kind in ImbalanceKind::all() {
            columns.push(format!("{avail} {kind}"));
        }
    }
    let mut t = Table::new(
        "Figure 5 — workload imbalance (fraction of issue cycles)",
        "category/scheme",
        columns,
    );
    for (c, group) in by_category(&per_workload) {
        for (j, s) in SCHEMES.into_iter().enumerate() {
            let mut acc = vec![0.0; 6];
            for runs in &group {
                let f = runs[j].imbalance_fractions();
                for (ki, k) in ImbalanceKind::all().into_iter().enumerate() {
                    acc[ki] += f[k.idx()][0];
                    acc[3 + ki] += f[k.idx()][1];
                }
            }
            for v in &mut acc {
                *v /= group.len() as f64;
            }
            t.push(&format!("{}/{}", c.name(), s), acc);
        }
    }
    // Per-scheme averages over categories.
    for s in SCHEMES {
        let rows: Vec<Vec<f64>> = t
            .rows
            .iter()
            .filter(|(l, _)| l.ends_with(&format!("/{s}")))
            .map(|(_, v)| v.clone())
            .collect();
        let n = rows.len() as f64;
        let avg: Vec<f64> = (0..6)
            .map(|i| rows.iter().map(|r| r[i]).sum::<f64>() / n)
            .collect();
        t.push(&format!("AVG/{s}"), avg);
    }
    t
}
