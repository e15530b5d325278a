//! Cheap versions of the paper's qualitative claims, checked end-to-end on
//! a handful of workloads. The full quantitative reproduction lives in
//! `csmt-experiments` (see EXPERIMENTS.md); these tests pin the *shape* so
//! regressions that would invalidate the reproduction fail CI.

use clustered_smt::prelude::*;

fn run(iq: SchemeKind, rf: RegFileSchemeKind, cfg: MachineConfig, name: &str) -> SimResult {
    let workloads = suite();
    let w = workloads.iter().find(|w| w.name == name).expect("workload");
    SimBuilder::new(cfg)
        .iq_scheme(iq)
        .rf_scheme(rf)
        .workload(w)
        .warmup(2_000)
        .commit_target(4_000)
        .run()
}

fn tp(iq: SchemeKind, rf: RegFileSchemeKind, cfg: MachineConfig, name: &str) -> f64 {
    run(iq, rf, cfg, name).throughput()
}

#[test]
fn partitioned_schemes_beat_icount_on_mixed_workloads() {
    // §5.1: static partitioning protects a thread from its stalled
    // partner. Individual workloads vary; the claim holds on average, so
    // assert on the mean over a few MIX workloads.
    let cfg = || MachineConfig::iq_study(32);
    let names = ["mixes/mix.2.1", "mixes/mix.2.2", "mixes/mix.2.4"];
    let mean = |iq: SchemeKind| {
        names
            .iter()
            .map(|n| tp(iq, RegFileSchemeKind::Shared, cfg(), n))
            .sum::<f64>()
            / names.len() as f64
    };
    let icount = mean(SchemeKind::Icount);
    let cssp = mean(SchemeKind::Cssp);
    let cspsp = mean(SchemeKind::Cspsp);
    assert!(
        cssp > icount,
        "CSSP {cssp} must beat Icount {icount} on average"
    );
    assert!(
        cspsp > icount,
        "CSPSP {cspsp} must beat Icount {icount} on average"
    );
}

#[test]
fn pc_never_communicates_and_loses_to_cssp_on_ilp_pair() {
    // §5.1: statically binding threads to clusters kills workload balance.
    let workloads = suite();
    let w = workloads.iter().find(|w| w.name == "DH/ilp.2.1").unwrap();
    let run = |iq| {
        SimBuilder::new(MachineConfig::iq_study(32))
            .iq_scheme(iq)
            .workload(w)
            .warmup(2_000)
            .commit_target(4_000)
            .run()
    };
    let pc = run(SchemeKind::Pc);
    let cssp = run(SchemeKind::Cssp);
    assert_eq!(pc.stats.copies_retired, 0, "PC must not communicate");
    assert!(cssp.stats.copies_retired > 0, "CSSP must communicate");
    assert!(
        cssp.throughput() > pc.throughput(),
        "CSSP {} must beat PC {} on an ILP pair",
        cssp.throughput(),
        pc.throughput()
    );
}

#[test]
fn static_rf_partition_loses_on_disjoint_demand_cdprf_recovers() {
    // §5.2 / Figure 9: ISPEC-FSPEC pairs have nearly disjoint register
    // demand; halving each file statically starves one thread. The dynamic
    // scheme must recover (a big part of) the loss.
    let cfg = || MachineConfig::rf_study(64);
    let name = "ISPEC-FSPEC/mix.2.1";
    let shared = tp(SchemeKind::Cssp, RegFileSchemeKind::Shared, cfg(), name);
    let cssprf = tp(SchemeKind::Cssp, RegFileSchemeKind::Cssprf, cfg(), name);
    let adaptive = run(SchemeKind::Cssp, RegFileSchemeKind::Cdprf, cfg(), name);
    // The same point with an interval that never elapses: CDPRF never
    // repartitions, so if the default run matched it, the checks below
    // would be passing on the initial partition, not on adaptation.
    let frozen = MachineConfig {
        cdprf_interval: 1 << 40,
        ..cfg()
    };
    let never = run(SchemeKind::Cssp, RegFileSchemeKind::Cdprf, frozen, name);
    assert_ne!(
        adaptive.stats.cycles, never.stats.cycles,
        "CDPRF at its default interval must differ from CDPRF that never adapts"
    );
    let cdprf = adaptive.throughput();
    assert!(
        cssprf < shared * 0.97,
        "static partition should lose: {cssprf} vs {shared}"
    );
    assert!(
        cdprf > cssprf,
        "CDPRF {cdprf} must recover over CSSPRF {cssprf}"
    );
    assert!(
        cdprf > shared * 0.9,
        "CDPRF {cdprf} must be close to shared {shared}"
    );
}

#[test]
fn cssprf_never_beats_cisprf_much() {
    // §5.2: the cluster-sensitive RF scheme conflicts with the IQ scheme's
    // steering and always performs worse than (or like) cluster-insensitive.
    let cfg = || MachineConfig::rf_study(64);
    for name in ["ISPEC-FSPEC/mix.2.1", "FSPEC00/ilp.2.1"] {
        let cssprf = tp(SchemeKind::Cssp, RegFileSchemeKind::Cssprf, cfg(), name);
        let cisprf = tp(SchemeKind::Cssp, RegFileSchemeKind::Cisprf, cfg(), name);
        assert!(
            cssprf <= cisprf * 1.05,
            "{name}: CSSPRF {cssprf} should not beat CISPRF {cisprf}"
        );
    }
}

#[test]
fn flush_plus_releases_resources() {
    let workloads = suite();
    let w = workloads
        .iter()
        .find(|w| w.name == "server/mem.2.1")
        .unwrap();
    let r = SimBuilder::new(MachineConfig::iq_study(32))
        .iq_scheme(SchemeKind::FlushPlus)
        .workload(w)
        .warmup(1_000)
        .commit_target(2_000)
        .run();
    assert!(
        r.stats.flushes > 0,
        "memory-bound pair must trigger flushes"
    );
    assert!(r.stats.squashed > 0);
}
