//! One module per reproduced artifact. Every module exposes
//! `run(&Sweeps) -> Table` so the CLI, the sweep service and the
//! integration tests share one code path.

pub mod ablations;
pub mod ci;
pub mod detail;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig9;
pub mod fign;
pub mod figpair;
pub mod summary;
pub mod tables;

use crate::report::Table;
use crate::runner::Sweeps;
use csmt_trace::suite::{Category, Workload};
use std::sync::OnceLock;

/// The Table-2 suite, generated once per process: every figure render
/// reads it, and a warm render would otherwise spend a quarter of its
/// time regenerating it.
pub fn suite() -> &'static [Workload] {
    static SUITE: OnceLock<Vec<Workload>> = OnceLock::new();
    SUITE.get_or_init(csmt_trace::suite::suite)
}

/// Per-workload `rows` (one per [`suite`] workload, in suite order)
/// grouped by category in the paper's reporting order, each group in
/// suite order.
pub fn by_category<R>(rows: &[R]) -> Vec<(Category, Vec<&R>)> {
    assert_eq!(rows.len(), suite().len(), "one row per suite workload");
    Category::all()
        .into_iter()
        .map(|c| {
            let group = suite().iter().zip(rows).filter(|(w, _)| w.category == c);
            (c, group.map(|(_, r)| r).collect())
        })
        .collect()
}

/// Column-wise means of `width`-wide rows, each column summed in row
/// order.
pub fn column_means<R: AsRef<[f64]>>(rows: &[R], width: usize) -> Vec<f64> {
    (0..width)
        .map(|j| rows.iter().map(|r| r.as_ref()[j]).sum::<f64>() / rows.len() as f64)
        .collect()
}

/// Push one row per category: the column means of its workloads' rows
/// (one row per suite workload, in suite order).
pub fn push_category_means(t: &mut Table, rows: &[Vec<f64>]) {
    let width = t.columns.len();
    for (c, group) in by_category(rows) {
        t.push(c.name(), column_means(&group, width));
    }
}

/// A category×column table from one row per suite workload, plus an AVG
/// row of category means.
pub fn category_table(title: &str, columns: Vec<String>, rows: &[Vec<f64>]) -> Table {
    let mut t = Table::new(title, "category", columns);
    push_category_means(&mut t, rows);
    t.push_average("AVG");
    t
}

/// Render-and-return helper used by the CLI.
pub fn run_named(name: &str, sweeps: &Sweeps) -> Option<Table> {
    Some(match name {
        "table2" => tables::table2(),
        "fig2" => fig2::run(sweeps),
        "fig3" => fig3::run(sweeps),
        "fig4" => fig4::run(sweeps),
        "fig5" => fig5::run(sweeps),
        "fig6" => fig6::run(sweeps),
        "fig9" => fig9::run(sweeps),
        "fig10" => fig10::run(sweeps),
        "figN" => fign::run(sweeps),
        "figPair" => figpair::run(sweeps),
        "summary" => summary::run(sweeps),
        "ablation-steering" => ablations::steering(sweeps),
        "ablation-interval" => ablations::interval(sweeps),
        "ablation-links" => ablations::links(sweeps),
        "ablation-prefetch" => ablations::prefetch(sweeps),
        other => {
            // `detail:<workload>` deep-dives one suite workload.
            if let Some(wname) = other.strip_prefix("detail:") {
                return detail::run(sweeps, wname);
            }
            return None;
        }
    })
}

/// Render an artifact plus, for sampled sweeps, its CI companion table
/// (named `<artifact>-ci`, same rows/columns, cells = 95% half-widths).
/// The companion rides on the runs the main table just ensured, so it
/// adds no simulation work.
pub fn run_named_all(name: &str, sweeps: &Sweeps) -> Option<Vec<(String, Table)>> {
    let main = run_named(name, sweeps)?;
    let mut out = vec![(name.to_string(), main)];
    if sweeps.opts.sample.is_some() {
        if let Some(t) = ci::run_named_ci(name, sweeps) {
            out.push((format!("{name}-ci"), t));
        }
    }
    Some(out)
}

/// All artifact names in paper order. `figN` extends the paper to scaled
/// machine shapes (4 threads × 2/4 clusters); `figPair` extends it to
/// counter-adaptive schemes (pairing sweep, Shared vs Static vs Adaptive).
pub const ALL_ARTIFACTS: [&str; 11] = [
    "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "figN", "figPair", "summary",
];

/// Ablation artifact names (run via `csmt-experiments ablations`).
pub const ABLATIONS: [&str; 4] = [
    "ablation-steering",
    "ablation-interval",
    "ablation-links",
    "ablation-prefetch",
];
