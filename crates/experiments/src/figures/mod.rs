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
use csmt_trace::suite;
use csmt_trace::suite::{Category, Workload};

/// The suite grouped by category, in the paper's reporting order.
pub fn by_category() -> Vec<(Category, Vec<Workload>)> {
    let all = suite();
    Category::all()
        .into_iter()
        .map(|c| (c, all.iter().filter(|w| w.category == c).cloned().collect()))
        .collect()
}

/// Mean of `f` over the workloads of each category; returns
/// (category name, mean) rows in reporting order.
pub fn category_means<F: Fn(&Workload) -> f64>(f: F) -> Vec<(String, f64)> {
    by_category()
        .into_iter()
        .map(|(c, ws)| {
            let mean = ws.iter().map(&f).sum::<f64>() / ws.len() as f64;
            (c.name().to_string(), mean)
        })
        .collect()
}

/// Build a category×column table from a per-workload metric: each column
/// `j` uses `metric(workload, j)`; an AVG row of category means is added.
pub fn category_table<F: Fn(&Workload, usize) -> f64>(
    title: &str,
    columns: Vec<String>,
    metric: F,
) -> Table {
    let mut t = Table::new(title, "category", columns.clone());
    for (c, ws) in by_category() {
        let vals: Vec<f64> = (0..columns.len())
            .map(|j| ws.iter().map(|w| metric(w, j)).sum::<f64>() / ws.len() as f64)
            .collect();
        t.push(c.name(), vals);
    }
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
