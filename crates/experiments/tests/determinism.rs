//! Determinism tests: the simulator and the parallel sweep runner must be
//! bit-reproducible. Any nondeterminism (iteration over unordered maps,
//! worker-count-dependent results, time-dependent seeding) breaks the
//! paper reproduction, so these assert *byte equality* of serialized
//! metrics, not approximate closeness.

use csmt_core::Simulator;
use csmt_experiments::figures::fig2::{self, SLICE_WORKLOADS};
use csmt_experiments::runner::{CfgKind, ExpOptions, Sweeps};
use csmt_trace::suite::{suite, Workload};
use csmt_types::{MachineConfig, RegFileSchemeKind, SchemeKind};

fn workload(name: &str) -> Workload {
    suite()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("{name} not in suite"))
}

/// Same (workload, scheme, config) twice in-process → byte-identical
/// serialized metrics. Covers a plain IQ-study run and a bounded-RF
/// CDPRF run (the scheme with the most per-cycle state).
#[test]
fn same_run_twice_is_byte_identical() {
    let cases = [
        (
            "ISPEC-FSPEC/mix.2.1",
            SchemeKind::Cssp,
            RegFileSchemeKind::Shared,
            MachineConfig::iq_study(32),
        ),
        (
            "mixes/mix.2.3",
            SchemeKind::Cssp,
            RegFileSchemeKind::Cdprf,
            MachineConfig::rf_study(64),
        ),
    ];
    for (name, iq, rf, cfg) in cases {
        let w = workload(name);
        let run = || {
            let mut sim = Simulator::new(cfg.clone(), iq, rf, &w.traces);
            let r = sim.run_with_warmup(500, 2_000, 10_000_000);
            serde_json::to_string(&r).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{name}/{iq}: two in-process runs diverged");
    }
}

/// The fig2 AVG-row computation over the fig2 slice workloads must not
/// depend on the worker count: `--jobs 1` and `--jobs 4` must give
/// byte-identical results for every run in the grid and for the AVG row
/// itself. Catches scheduling nondeterminism in the
/// parallel sweep runner.
#[test]
fn fig2_avg_row_identical_across_worker_counts() {
    let workloads: Vec<Workload> = SLICE_WORKLOADS.iter().map(|n| workload(n)).collect();
    let grid: Vec<_> = fig2::combos()
        .into_iter()
        .map(|(s, iq)| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq }))
        .collect();

    let sweep = |jobs: usize| {
        let sweeps = Sweeps::new(ExpOptions {
            commit_target: 1_500,
            warmup: 300,
            max_cycles: 5_000_000,
            jobs,
            verbose: false,
            validate: false,
            batch: false,
            sample: None,
        });
        sweeps.smt_batch(&workloads, &grid);
        // Serialize every result in grid order, then compute the AVG row
        // exactly as fig2 does (mean of per-workload speedups vs
        // Icount@32).
        let mut blob = String::new();
        let mut avg_row: Vec<f64> = Vec::new();
        for &(s, rf, cfg) in &grid {
            let mut mean = 0.0;
            for w in &workloads {
                let base = sweeps.get(&Sweeps::smt_key(
                    w,
                    SchemeKind::Icount,
                    RegFileSchemeKind::Shared,
                    CfgKind::IqStudy { iq: 32 },
                ));
                let r = sweeps.get(&Sweeps::smt_key(w, s, rf, cfg));
                blob.push_str(&serde_json::to_string(&r).unwrap());
                blob.push('\n');
                mean += r.throughput() / base.throughput().max(1e-9);
            }
            avg_row.push(mean / workloads.len() as f64);
        }
        (blob, avg_row)
    };

    let (blob1, avg1) = sweep(1);
    let (blob4, avg4) = sweep(4);
    // Bit-exact, not approximately equal: f64 summation order must match.
    assert_eq!(
        avg1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        avg4.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "fig2 AVG row differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(blob1, blob4, "per-run results differ across worker counts");
}

/// Build the fig2-slice table (workload rows × scheme/IQ columns of
/// throughput speedup vs Icount@32) exactly as the figure modules do,
/// from a sweep at the given worker count.
fn fig2_slice_table(jobs: usize) -> csmt_experiments::report::Table {
    let workloads: Vec<Workload> = SLICE_WORKLOADS.iter().map(|n| workload(n)).collect();
    let grid: Vec<_> = fig2::combos()
        .into_iter()
        .map(|(s, iq)| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq }))
        .collect();
    let sweeps = Sweeps::new(ExpOptions {
        commit_target: 2_000,
        warmup: 500,
        max_cycles: 10_000_000,
        jobs,
        verbose: false,
        validate: false,
        batch: false,
        sample: None,
    });
    sweeps.smt_batch(&workloads, &grid);
    let columns: Vec<String> = fig2::combos()
        .into_iter()
        .map(|(s, iq)| format!("{s}/{iq}"))
        .collect();
    let mut t = csmt_experiments::report::Table::new("fig2-slice", "workload", columns);
    for w in &workloads {
        let base = sweeps.get(&Sweeps::smt_key(
            w,
            SchemeKind::Icount,
            RegFileSchemeKind::Shared,
            CfgKind::IqStudy { iq: 32 },
        ));
        let row: Vec<f64> = grid
            .iter()
            .map(|&(s, rf, cfg)| {
                sweeps.get(&Sweeps::smt_key(w, s, rf, cfg)).throughput()
                    / base.throughput().max(1e-9)
            })
            .collect();
        t.push(&w.name, row);
    }
    t.push_average("AVG");
    t
}

/// The satellite acceptance check of the parallel executor: the fig2
/// slice at `--jobs 1` and `--jobs 8` must render **byte-identical CSV
/// and JSON artifacts** — not merely close values. Any scheduling
/// dependence in simulation, aggregation order or float summation shows
/// up here as a byte diff.
#[test]
fn fig2_slice_csv_is_byte_identical_between_jobs_1_and_8() {
    let serial = fig2_slice_table(1);
    let parallel = fig2_slice_table(8);
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "fig2 slice CSV differs between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "fig2 slice JSON differs between --jobs 1 and --jobs 8"
    );
}

/// The parallel runner must reproduce the *committed golden snapshot*:
/// the fig2 speedup stats of `tests/golden/fig_headline.json` (blessed
/// from direct, serial `Simulator` runs) computed through a `--jobs 8`
/// sweep come out identical to the fixture's values, bit for bit. This
/// pins the executor to the pre-parallelism oracle, not just to itself.
#[test]
fn jobs8_sweep_reproduces_golden_headline_speedups() {
    /// Mirror of the fixture row shape blessed by
    /// `tests/golden_snapshots.rs` (fig3_copies is present in the file
    /// but irrelevant to this test).
    #[derive(serde::Serialize, serde::Deserialize)]
    struct HeadlineRow {
        combo: String,
        fig2_speedup: f64,
        fig3_copies: f64,
    }

    let fixture_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/fig_headline.json");
    let text = std::fs::read_to_string(&fixture_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", fixture_path.display()));
    let fixture: Vec<HeadlineRow> = serde_json::from_str(&text).unwrap();

    // Same scale as the golden fixture (warmup 500, target 2000).
    let workloads: Vec<Workload> = SLICE_WORKLOADS.iter().map(|n| workload(n)).collect();
    let mut combos: Vec<(SchemeKind, usize)> = Vec::new();
    for s in SchemeKind::all() {
        for iq in [32usize, 64] {
            combos.push((s, iq));
        }
    }
    let grid: Vec<_> = combos
        .iter()
        .map(|&(s, iq)| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq }))
        .collect();
    let sweeps = Sweeps::new(ExpOptions {
        commit_target: 2_000,
        warmup: 500,
        max_cycles: 10_000_000,
        jobs: 8,
        verbose: false,
        validate: false,
        batch: false,
        sample: None,
    });
    sweeps.smt_batch(&workloads, &grid);

    assert_eq!(fixture.len(), combos.len(), "fixture covers every combo");
    for (row, &(s, iq)) in fixture.iter().zip(&combos) {
        let combo = row.combo.as_str();
        assert_eq!(combo, format!("{s}/{iq}"), "fixture order matches");
        let mut speedup = 0.0;
        for w in &workloads {
            let base = sweeps.get(&Sweeps::smt_key(
                w,
                SchemeKind::Icount,
                RegFileSchemeKind::Shared,
                CfgKind::IqStudy { iq: 32 },
            ));
            let r = sweeps.get(&Sweeps::smt_key(
                w,
                s,
                RegFileSchemeKind::Shared,
                CfgKind::IqStudy { iq },
            ));
            speedup += r.throughput() / base.throughput().max(1e-9);
        }
        speedup /= workloads.len() as f64;
        let golden = row.fig2_speedup;
        assert_eq!(
            speedup.to_bits(),
            golden.to_bits(),
            "{combo}: --jobs 8 sweep drifted from the golden snapshot \
             ({speedup} vs {golden})"
        );
    }
}
