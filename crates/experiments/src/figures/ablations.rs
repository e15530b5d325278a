//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * **A1 — steering balance threshold**: how aggressively the
//!   dependence-based steering overrides operand affinity for balance.
//! * **A2 — CDPRF adaptation interval**: sensitivity of the dynamic
//!   register-file partition to its re-thresholding period.
//! * **A3 — inter-cluster links**: bandwidth/latency of the copy network,
//!   probing the paper's claim that communication is largely hidden by
//!   multithreaded execution.

use super::suite;
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_trace::suite::{Category, WorkloadKind};
use csmt_trace::Workload;
use csmt_types::{RegFileSchemeKind, SchemeKind};

/// Representative sample: the first MIX workload of every category (the
/// workloads most sensitive to steering and communication).
fn sample() -> Vec<Workload> {
    Category::all()
        .into_iter()
        .filter_map(|c| {
            suite()
                .iter()
                .find(|w| w.category == c && w.kind == WorkloadKind::Mix)
                .cloned()
        })
        .collect()
}

/// One row per workload: throughput at each grid point relative to the
/// point at index `base`; then an AVG row.
fn push_relative(
    t: &mut Table,
    sweeps: &Sweeps,
    ws: &[Workload],
    grid: &[(SchemeKind, RegFileSchemeKind, CfgKind)],
    base: usize,
    label: fn(&Workload) -> &str,
) {
    let runs = sweeps.smt_batch(ws, grid);
    for (w, runs) in ws.iter().zip(runs.chunks(grid.len())) {
        let base = runs[base].throughput().max(1e-9);
        t.push(
            label(w),
            runs.iter().map(|r| r.throughput() / base).collect(),
        );
    }
    t.push_average("AVG");
}

/// A1: throughput across steering thresholds, normalized to threshold 6
/// (the default). Run under **Icount**, whose only balancing force is the
/// steering override — CSSP's per-cluster caps would mask the effect.
pub fn steering(sweeps: &Sweeps) -> Table {
    let ws = sample();
    let thresholds = [2usize, 6, 12, 24, 64];
    let grid: Vec<_> = thresholds
        .iter()
        .map(|&t| {
            (
                SchemeKind::Icount,
                RegFileSchemeKind::Shared,
                CfgKind::SteerAblation { threshold: t },
            )
        })
        .collect();
    let mut t = Table::new(
        "Ablation A1 — steering balance threshold (Icount throughput vs thr=6)",
        "workload",
        thresholds.iter().map(|x| format!("thr{x}")).collect(),
    );
    push_relative(&mut t, sweeps, &ws, &grid, 1, |w| &w.name);
    t
}

/// A2: CDPRF throughput across adaptation intervals (2^shift cycles),
/// normalized to 2^13 (the study default).
pub fn interval(sweeps: &Sweeps) -> Table {
    let ws: Vec<Workload> = suite()
        .iter()
        .filter(|w| w.category == Category::IspecFspec)
        .cloned()
        .collect();
    let shifts = [10u32, 13, 15, 17];
    let grid: Vec<_> = shifts
        .iter()
        .map(|&s| {
            (
                SchemeKind::Cssp,
                RegFileSchemeKind::Cdprf,
                CfgKind::IntervalAblation { shift: s },
            )
        })
        .collect();
    let mut t = Table::new(
        "Ablation A2 — CDPRF interval (ISPEC-FSPEC throughput vs 2^13)",
        "workload",
        shifts.iter().map(|s| format!("2^{s}")).collect(),
    );
    push_relative(&mut t, sweeps, &ws, &grid, 1, |w| {
        w.name.split('/').nth(1).unwrap_or(&w.name)
    });
    t
}

/// A3: link bandwidth/latency sensitivity (CSSP throughput vs 2 links ×
/// 1 cycle, the Table-1 fabric). The paper's claim: communication is
/// largely hidden by multithreading, so modest fabric changes matter
/// little.
pub fn links(sweeps: &Sweeps) -> Table {
    let ws = sample();
    let fabrics = [(1usize, 1u64), (2, 1), (4, 1), (2, 3), (2, 6)];
    let grid: Vec<_> = fabrics
        .iter()
        .map(|&(l, lat)| {
            (
                SchemeKind::Cssp,
                RegFileSchemeKind::Shared,
                CfgKind::LinkAblation {
                    links: l,
                    latency: lat,
                },
            )
        })
        .collect();
    let mut t = Table::new(
        "Ablation A3 — inter-cluster links (CSSP throughput vs 2 links @1cy)",
        "workload",
        fabrics
            .iter()
            .map(|(l, lat)| format!("{l}x{lat}cy"))
            .collect(),
    );
    push_relative(&mut t, sweeps, &ws, &grid, 1, |w| &w.name);
    t
}

/// A4: hardware prefetcher × scheme interplay. A prefetcher hides exactly
/// the L2 misses that Stall/Flush+ react to and that make Icount clog —
/// does it shrink the gaps the assignment schemes exploit?
pub fn prefetch(sweeps: &Sweeps) -> Table {
    let ws = sample();
    let kinds = [(0u8, "none"), (1, "next-line"), (2, "stride")];
    let schemes = [SchemeKind::Icount, SchemeKind::Stall, SchemeKind::Cssp];
    let mut grid = Vec::new();
    for &(k, _) in &kinds {
        for &s in &schemes {
            grid.push((
                s,
                RegFileSchemeKind::Shared,
                CfgKind::PrefetchAblation { kind: k },
            ));
        }
    }
    let mut t = Table::new(
        "Ablation A4 — prefetcher x scheme (throughput vs Icount/no-prefetch)",
        "workload",
        kinds
            .iter()
            .flat_map(|(_, n)| schemes.iter().map(move |s| format!("{s}/{n}")))
            .collect(),
    );
    // Icount without a prefetcher is the grid's first point.
    push_relative(&mut t, sweeps, &ws, &grid, 0, |w| &w.name);
    t
}
