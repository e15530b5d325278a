//! Confidence-interval companion tables for sampled runs.
//!
//! When a sweep runs with `--sample`, every memoized result is a pooled
//! estimate over N detailed intervals and carries a [`SampleStats`]
//! sidecar. For each headline figure this module renders a table with
//! the **same rows and columns** whose cells are the 95% CI half-widths
//! of the corresponding estimates: `fig2-ci[r][c]` is the error bar on
//! `fig2[r][c]`.
//!
//! Half-width composition mirrors how the point estimates compose:
//!
//! * a speedup cell (ratio vs a baseline measured on the same program
//!   regions) uses the **paired** per-interval ratio series
//!   ([`sample::ratio_ci`]), which cancels region-to-region program
//!   variation exactly like the point estimate does;
//! * a category / AVG cell is a mean of per-workload estimates, so its
//!   half-width is the root-sum-square of the constituent half-widths
//!   over the count ([`sample::combine_halves`]);
//! * a missing or mismatched sidecar (full-run baseline, failed job)
//!   degrades that cell to 0.0 — an absent error bar, never a crash.

use super::{by_category, fig10, fig2, fign, figpair, suite};
use crate::report::Table;
use crate::runner::{CfgKind, RunKey, Sweeps};
use crate::sample::{self, SampleStats};
use csmt_core::metrics::{fairness, fairness_n};
use csmt_trace::suite::{bundles, Bundle, Workload};
use csmt_types::{RegFileSchemeKind, SchemeKind, ThreadId};
use std::sync::Arc;

/// Per-interval series of a scalar metric for one run, when that run was
/// sampled.
fn series(
    sweeps: &Sweeps,
    key: &RunKey,
    f: impl Fn(&csmt_core::SimResult) -> f64,
) -> Option<Vec<f64>> {
    sweeps.get_ci(key).map(|s| s.series(f))
}

/// Half-width of the paired ratio `num_i / den_i` across intervals;
/// 0.0 when either sidecar is absent or the interval counts disagree.
fn paired_half(num: Option<&[f64]>, den: Option<&[f64]>) -> f64 {
    match (num, den) {
        (Some(n), Some(d)) if n.len() == d.len() => sample::ratio_ci(n, d).1,
        _ => 0.0,
    }
}

/// Half-width of a metric's mean across one run's intervals; 0.0 when
/// the run has no sidecar.
fn mean_half(values: Option<Vec<f64>>) -> f64 {
    values.map(|vs| sample::mean_ci(&vs).1).unwrap_or(0.0)
}

/// Column-wise RSS combination of `width`-wide half-width rows, each
/// column combined in row order.
fn combine_columns<R: AsRef<[f64]>>(rows: &[R], width: usize) -> Vec<f64> {
    (0..width)
        .map(|j| {
            let halves: Vec<f64> = rows.iter().map(|r| r.as_ref()[j]).collect();
            sample::combine_halves(&halves)
        })
        .collect()
}

/// One row per category from per-workload half-width rows: a category's
/// cell RSS-combines its workloads' half-widths in that column, in suite
/// order. Each run's sidecar is read once per workload.
fn push_category_halves(t: &mut Table, row: impl Fn(&Workload) -> Vec<f64>) {
    let width = t.columns.len();
    let rows: Vec<Vec<f64>> = suite().iter().map(row).collect();
    for (c, group) in by_category(&rows) {
        t.push(c.name(), combine_columns(&group, width));
    }
}

/// Append the combined-row (`AVG`-style) line: each column's half-width
/// is the RSS-combination of the body rows' half-widths.
fn push_combined(t: &mut Table, label: &str) {
    let rows: Vec<&[f64]> = t.rows.iter().map(|(_, vals)| vals.as_slice()).collect();
    let combined = combine_columns(&rows, t.columns.len());
    t.push(label, combined);
}

/// Figure 2 companion: half-widths of the throughput speedups vs
/// Icount@32.
pub fn fig2_ci(sweeps: &Sweeps) -> Table {
    let columns: Vec<String> = fig2::combos()
        .iter()
        .map(|(s, iq)| format!("{s}/{iq}"))
        .collect();
    let mut t = Table::new(
        "Figure 2 (CI) — 95% half-width of throughput speedup vs Icount@32",
        "category",
        columns,
    );
    push_category_halves(&mut t, |w| {
        let tput = |s, iq| {
            series(
                sweeps,
                &Sweeps::smt_key(w, s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq }),
                |r| r.throughput(),
            )
        };
        let den = tput(SchemeKind::Icount, 32);
        fig2::combos()
            .into_iter()
            .map(|(s, iq)| paired_half(tput(s, iq).as_deref(), den.as_deref()))
            .collect()
    });
    push_combined(&mut t, "AVG");
    t
}

/// Figure 4 companion: half-widths of IQ stalls per retired instruction.
pub fn fig4_ci(sweeps: &Sweeps) -> Table {
    let columns: Vec<String> = SchemeKind::all().iter().map(|s| s.to_string()).collect();
    let mut t = Table::new(
        "Figure 4 (CI) — 95% half-width of IQ stalls per retired instruction",
        "category",
        columns,
    );
    push_category_halves(&mut t, |w| {
        SchemeKind::all()
            .into_iter()
            .map(|s| {
                mean_half(series(
                    sweeps,
                    &Sweeps::smt_key(w, s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq: 32 }),
                    |r| r.iq_stalls_per_retired(),
                ))
            })
            .collect()
    });
    push_combined(&mut t, "AVG");
    t
}

/// Per-interval fairness series of one (scheme, rf) pair on one
/// workload: interval `i` pairs the SMT run's window `i` with the two
/// solo baselines' windows `i` — all three sample the same program
/// regions, so the series is the sampled analogue of
/// [`fig10::workload_fairness`] for one pair.
fn fairness_series(
    sweeps: &Sweeps,
    w: &Workload,
    iq: SchemeKind,
    rf: RegFileSchemeKind,
) -> Option<Vec<f64>> {
    let cfg = CfgKind::RfStudy { regs: fig10::REGS };
    let smt = sweeps.get_ci(&Sweeps::smt_key(w, iq, rf, cfg))?;
    let a0 = sweeps.get_ci(&Sweeps::single_key(&w.traces[0], cfg))?;
    let a1 = sweeps.get_ci(&Sweeps::single_key(&w.traces[1], cfg))?;
    window_zip3(&smt, &a0, &a1, |s, x, y| {
        fairness(
            [s.ipc(ThreadId(0)), s.ipc(ThreadId(1))],
            [x.ipc(ThreadId(0)), y.ipc(ThreadId(0))],
        )
    })
}

fn window_zip3(
    a: &SampleStats,
    b: &SampleStats,
    c: &SampleStats,
    f: impl Fn(&csmt_core::SimResult, &csmt_core::SimResult, &csmt_core::SimResult) -> f64,
) -> Option<Vec<f64>> {
    if a.runs.len() != b.runs.len() || a.runs.len() != c.runs.len() {
        return None;
    }
    Some(
        a.runs
            .iter()
            .zip(&b.runs)
            .zip(&c.runs)
            .map(|((x, y), z)| f(x, y, z))
            .collect(),
    )
}

/// Figure 10 companion: half-widths of the fairness speedups vs Icount.
pub fn fig10_ci(sweeps: &Sweeps) -> Table {
    let columns: Vec<String> = fig10::SERIES
        .iter()
        .map(|(n, _, _)| n.to_string())
        .collect();
    let mut t = Table::new(
        "Figure 10 (CI) — 95% half-width of fairness speedup vs Icount",
        "category",
        columns,
    );
    push_category_halves(&mut t, |w| {
        let den = fairness_series(sweeps, w, SchemeKind::Icount, RegFileSchemeKind::Shared);
        fig10::SERIES
            .iter()
            .map(|&(_, iq, rf)| {
                paired_half(
                    fairness_series(sweeps, w, iq, rf).as_deref(),
                    den.as_deref(),
                )
            })
            .collect()
    });
    push_combined(&mut t, "Average");
    t
}

/// Per-interval `fairness_n` series of one bundle at one scaled shape.
fn bundle_fairness_series(
    sweeps: &Sweeps,
    b: &Bundle,
    iq: SchemeKind,
    rf: RegFileSchemeKind,
    cfg: CfgKind,
) -> Option<Vec<f64>> {
    let smt = sweeps.get_ci(&Sweeps::bundle_key(b, iq, rf, cfg))?;
    let alone: Vec<Arc<SampleStats>> = b
        .traces
        .iter()
        .map(|spec| sweeps.get_ci(&Sweeps::single_key(spec, cfg)))
        .collect::<Option<_>>()?;
    let n = smt.runs.len();
    if alone.iter().any(|s| s.runs.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| {
                let smt_ipc: Vec<f64> = (0..b.traces.len())
                    .map(|t| smt.runs[i].ipc(ThreadId(t as u8)))
                    .collect();
                let alone_ipc: Vec<f64> =
                    alone.iter().map(|s| s.runs[i].ipc(ThreadId(0))).collect();
                fairness_n(&smt_ipc, &alone_ipc)
            })
            .collect(),
    )
}

/// Figure N companion: half-widths of the scaled-shape speedups.
pub fn fign_ci(sweeps: &Sweeps) -> Table {
    let columns: Vec<String> = fign::IQ_SERIES
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(fign::RF_SERIES.iter().map(|(n, _, _)| n.to_string()))
        .collect();
    let mut t = Table::new(
        "Figure N (CI) — 95% half-width of scaled-shape speedups",
        "shape:bundle",
        columns,
    );
    for (threads, clusters) in fign::SHAPES {
        let iq_cfg = CfgKind::ScaledIq {
            threads,
            clusters,
            iq: fign::IQ,
        };
        let rf_cfg = CfgKind::ScaledRf {
            threads,
            clusters,
            regs: fign::REGS,
        };
        for b in &bundles(threads) {
            let icount_tp = series(
                sweeps,
                &Sweeps::bundle_key(b, SchemeKind::Icount, RegFileSchemeKind::Shared, iq_cfg),
                |r| r.throughput(),
            );
            let icount_fair = bundle_fairness_series(
                sweeps,
                b,
                SchemeKind::Icount,
                RegFileSchemeKind::Shared,
                rf_cfg,
            );
            let mut vals: Vec<f64> = fign::IQ_SERIES
                .iter()
                .map(|&(_, s)| {
                    let num = series(
                        sweeps,
                        &Sweeps::bundle_key(b, s, RegFileSchemeKind::Shared, iq_cfg),
                        |r| r.throughput(),
                    );
                    paired_half(num.as_deref(), icount_tp.as_deref())
                })
                .collect();
            for &(_, s, rf) in &fign::RF_SERIES {
                let num = bundle_fairness_series(sweeps, b, s, rf, rf_cfg);
                vals.push(paired_half(num.as_deref(), icount_fair.as_deref()));
            }
            t.push(&format!("{threads}x{clusters}:{}", b.name), vals);
        }
    }
    push_combined(&mut t, "Average");
    t
}

/// figPair companion: half-widths of the per-regime throughputs and of
/// the paired Adapt/Static ratio. The `Flips` column is a per-pairing
/// binary decision, not an interval statistic, so its cells are 0.0
/// (no error bar) by construction.
pub fn figpair_ci(sweeps: &Sweeps) -> Table {
    let cfg = CfgKind::RfStudy {
        regs: figpair::PAIR_REGS,
    };
    let mut columns: Vec<String> = figpair::combos()
        .iter()
        .map(|(n, _, _)| n.to_string())
        .collect();
    columns.push("Adapt/Static".to_string());
    columns.push("Flips".to_string());
    let mut t = Table::new(
        "figPair (CI) — 95% half-width of per-regime throughput (RF96 machine)",
        "category",
        columns,
    );
    push_category_halves(&mut t, |w| {
        let [shared, fixed, adaptive] = figpair::combos()
            .map(|(_, s, rf)| series(sweeps, &Sweeps::smt_key(w, s, rf, cfg), |r| r.throughput()));
        let adapt_static = paired_half(adaptive.as_deref(), fixed.as_deref());
        vec![
            mean_half(shared),
            mean_half(fixed),
            mean_half(adaptive),
            adapt_static,
            0.0,
        ]
    });
    push_combined(&mut t, "AVG");
    t
}

/// CI companion table for one artifact, when one exists. Must run after
/// the main artifact (the runs and sidecars are already ensured); never
/// simulates anything itself.
pub fn run_named_ci(name: &str, sweeps: &Sweeps) -> Option<Table> {
    Some(match name {
        "fig2" => fig2_ci(sweeps),
        "fig4" => fig4_ci(sweeps),
        "fig10" => fig10_ci(sweeps),
        "figN" => fign_ci(sweeps),
        "figPair" => figpair_ci(sweeps),
        _ => return None,
    })
}
