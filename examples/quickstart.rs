//! Quickstart: print the Table-1 machine, then run one memory-bound +
//! compute-bound (MIX) workload under every issue-queue scheme of Table 3
//! and under the paper's proposal (CSSP + CDPRF). MIX is where the schemes
//! differ most: a stalled thread can clog the issue queues and starve its
//! partner unless the scheme intervenes.
//!
//! Each row reports throughput, the speedup over Icount, per-thread IPC,
//! copies and IQ stalls per retired uop, and the paper's §4 fairness
//! metric — the minimum ratio of the two threads' slowdowns relative to
//! running alone ([33]) — from two single-thread baseline runs.
//!
//! Run with: `cargo run --release --example quickstart`

use clustered_smt::prelude::*;

fn main() {
    let cfg = MachineConfig::baseline();
    println!("Machine (Table 1):");
    println!(
        "  fetch/commit width : {} / {}",
        cfg.fetch_width, cfg.commit_width
    );
    println!(
        "  issue queues       : {} entries x {} clusters",
        cfg.iq_per_cluster, cfg.num_clusters
    );
    println!(
        "  registers/cluster  : {} int + {} fp/simd",
        cfg.int_regs_per_cluster, cfg.fp_regs_per_cluster
    );
    println!("  ROB                : {} per thread", cfg.rob_per_thread);
    println!(
        "  memory             : L1 {}KB/{}cy, L2 {}MB/{}cy, mem {}cy",
        cfg.l1_size / 1024,
        cfg.l1_latency,
        cfg.l2_size / (1024 * 1024),
        cfg.l2_latency,
        cfg.mem_latency
    );

    // The register-file study's machine: 64 registers per cluster and
    // class, so CDPRF has a scarce register file to partition.
    let cfg = MachineConfig::rf_study(64);
    println!(
        "  (runs below use {} int + {} fp/simd registers/cluster, the RF-study point)",
        cfg.int_regs_per_cluster, cfg.fp_regs_per_cluster
    );
    println!();

    let workloads = suite();
    let w = workloads
        .iter()
        .find(|w| w.name == "ISPEC-FSPEC/mix.2.2")
        .expect("suite workload");
    let run = |b: SimBuilder| b.warmup(5_000).commit_target(10_000).run();

    // Single-thread baselines: each trace alone on the full machine.
    let alone: Vec<f64> = w
        .traces
        .iter()
        .map(|spec| run(SimBuilder::new(cfg.clone()).single(spec)).ipc(ThreadId(0)))
        .collect();
    println!(
        "Workload {}: thread0 = {}, thread1 = {} (alone IPC {:.2} / {:.2})",
        w.name, w.traces[0].profile.name, w.traces[1].profile.name, alone[0], alone[1]
    );
    println!(
        "{:<12} {:>15} {:>7} {:>7} {:>11} {:>12} {:>9}",
        "scheme", "throughput", "ipc[0]", "ipc[1]", "copies/uop", "iqstall/uop", "fairness"
    );

    let rows = SchemeKind::all()
        .into_iter()
        .map(|iq| (iq.name().to_string(), iq, RegFileSchemeKind::Shared))
        .chain([(
            "CSSP+CDPRF".to_string(),
            SchemeKind::Cssp,
            RegFileSchemeKind::Cdprf,
        )]);
    let mut base = None;
    for (label, iq, rf) in rows {
        let r = run(SimBuilder::new(cfg.clone())
            .iq_scheme(iq)
            .rf_scheme(rf)
            .workload(w));
        let tp = r.throughput();
        let base_tp = *base.get_or_insert(tp);
        let smt = [r.ipc(ThreadId(0)), r.ipc(ThreadId(1))];
        println!(
            "{:<12} {:>7.3} ({:+4.0}%) {:>7.2} {:>7.2} {:>11.3} {:>12.3} {:>9.3}",
            label,
            tp,
            (tp / base_tp - 1.0) * 100.0,
            smt[0],
            smt[1],
            r.copies_per_retired(),
            r.iq_stalls_per_retired(),
            fairness(smt, [alone[0], alone[1]]),
        );
    }
    println!("\n(speedups relative to Icount, the first row; fairness = min slowdown ratio,");
    println!(" 1.0 means both threads slowed equally)");
}
