//! Per-workload deep dive: every (IQ scheme × metric) for one workload —
//! the tool used while calibrating the reproduction, kept as a CLI command
//! (`csmt-experiments detail:<workload-name>`).

use super::suite;
use crate::report::Table;
use crate::runner::{CfgKind, Sweeps};
use csmt_types::{RegFileSchemeKind, SchemeKind, ThreadId};

/// Build the detail table for one suite workload.
pub fn run(sweeps: &Sweeps, workload_name: &str) -> Option<Table> {
    let w = suite().iter().find(|w| w.name == workload_name)?;
    let cfg = CfgKind::IqStudy { iq: 32 };
    let grid: Vec<_> = SchemeKind::all()
        .into_iter()
        .map(|s| (s, RegFileSchemeKind::Shared, cfg))
        .collect();
    let runs = sweeps.smt_batch(std::slice::from_ref(w), &grid);

    let mut t = Table::new(
        &format!(
            "Detail — {} ({} + {})",
            w.name, w.traces[0].profile.name, w.traces[1].profile.name
        ),
        "scheme",
        vec![
            "tput".into(),
            "ipc0".into(),
            "ipc1".into(),
            "copies".into(),
            "iqstall".into(),
            "misp".into(),
            "flushes".into(),
            "squashed".into(),
        ],
    );
    for (s, r) in SchemeKind::all().into_iter().zip(runs) {
        t.push(
            s.name(),
            vec![
                r.throughput(),
                r.ipc(ThreadId(0)),
                r.ipc(ThreadId(1)),
                r.copies_per_retired(),
                r.iq_stalls_per_retired(),
                r.mispredict_ratio(),
                r.stats.flushes as f64,
                r.stats.squashed as f64,
            ],
        );
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExpOptions;

    #[test]
    fn detail_builds_for_suite_workload() {
        let sweeps = Sweeps::new(ExpOptions {
            commit_target: 400,
            warmup: 100,
            max_cycles: 2_000_000,
            jobs: 0,
            verbose: false,
            validate: false,
            batch: false,
            sample: None,
        });
        let t = run(&sweeps, "DH/ilp.2.1").expect("known workload");
        assert_eq!(t.rows.len(), 7, "one row per scheme");
        assert!(t.value("Icount", "tput").unwrap() > 0.0);
        assert!(run(&sweeps, "no/such.workload").is_none());
    }
}
