//! Property tests for the parallel sweep scheduler: arbitrary job sets
//! with injected panics (via the orchestrator's fault hook) must never
//! lose a job or run one twice. These pin the executor/orchestrator
//! contract the `--jobs` flag depends on: each submitted job is executed
//! exactly once by the in-order executor, a panic inside a job fails it
//! on its one attempt, and `SweepCounters` accounts for every job.
//!
//! Kept in its own test binary: the fault-injection hook is process
//! global, so these cases must not share a process with other tests
//! that arm it.

use csmt_experiments::runner::{fault_injection, CfgKind, ExpOptions, Sweeps};
use csmt_trace::suite::{suite, Workload};
use csmt_types::{RegFileSchemeKind, SchemeKind};
use proptest::prelude::*;

/// Workload pool whose names are pairwise non-substrings of each other,
/// so arming a fault on one job's exact label can never match a sibling
/// job (the hook matches by `label.contains(..)`).
fn pool(n: usize) -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    for w in suite() {
        if out
            .iter()
            .all(|p: &Workload| !p.name.contains(&w.name) && !w.name.contains(&p.name))
        {
            out.push(w);
        }
        if out.len() == n {
            return out;
        }
    }
    panic!("suite too small for a pool of {n}");
}

/// Silence the default panic hook for injected faults only; everything
/// else still reaches the previous hook. Without this, every injected
/// panic spews a backtrace into the test output.
fn mute_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected fault"));
        if !injected {
            prev(info);
        }
    }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For an arbitrary job set where job `i` is armed to panic
    /// `faults[i]` times, under an arbitrary worker count:
    ///
    /// * the executor runs each job exactly once (`exec.executed`);
    /// * jobs with no injected panic complete, every armed job fails —
    ///   nothing is lost either way;
    /// * each armed job consumes exactly one shot: every other shot is
    ///   left over in the hook (the orchestrator did not run it again).
    #[test]
    fn injected_panics_never_lose_or_double_count_jobs(
        faults in proptest::collection::vec(0u32..6, 1..=6usize),
        jobs in 1usize..=4,
    ) {
        mute_injected_panics();
        prop_assert_eq!(fault_injection::disarm(), 0, "dirty hook at case start");

        let workloads = pool(faults.len());
        for (w, &t) in workloads.iter().zip(&faults) {
            if t > 0 {
                fault_injection::arm(&w.name, t);
            }
        }

        let sweeps = Sweeps::new(ExpOptions {
            commit_target: 300,
            warmup: 0,
            max_cycles: 500_000,
            jobs,
            verbose: false,
            validate: false,
            batch: false,
            sample: None,
        });
        let combos = [(
            SchemeKind::Icount,
            RegFileSchemeKind::Shared,
            CfgKind::IqStudy { iq: 32 },
        )];
        sweeps.smt_batch(&workloads, &combos);

        let doomed = faults.iter().filter(|&&t| t > 0).count() as u64;
        let leftover: u32 = faults.iter().map(|&t| t.saturating_sub(1)).sum();

        let c = sweeps.counters();
        prop_assert_eq!(
            c.exec.executed,
            faults.len() as u64,
            "executor must run each job exactly once: {:?}",
            c.exec
        );
        prop_assert_eq!(c.orch.completed, faults.len() as u64 - doomed);
        prop_assert_eq!(c.orch.failures, doomed);
        prop_assert_eq!(fault_injection::disarm(), leftover, "unused shots mismatch");

        // No job may be lost or double-inserted: one memoized result per
        // job, failed ones as the all-zero placeholder, completed ones
        // with real cycles.
        prop_assert_eq!(sweeps.len(), faults.len());
        for (w, &t) in workloads.iter().zip(&faults) {
            let r = sweeps.get(&Sweeps::smt_key(
                w,
                SchemeKind::Icount,
                RegFileSchemeKind::Shared,
                CfgKind::IqStudy { iq: 32 },
            ));
            if t > 0 {
                prop_assert_eq!(r.stats.cycles, 0, "{} should have failed", w.name);
            } else {
                prop_assert!(r.stats.cycles > 0, "{} should have completed", w.name);
            }
        }
    }
}
