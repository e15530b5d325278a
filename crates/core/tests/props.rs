//! Property tests: scheme-policy algebra and whole-pipeline invariants
//! under randomized configurations.

use csmt_core::schemes::{make_iq_scheme, make_rf_scheme, RfView, SchedView};
use csmt_core::Simulator;
use csmt_trace::profile::{category_base, TraceClass};
use csmt_trace::suite::TraceSpec;
use csmt_types::{ClusterId, MachineConfig, RegClass, RegFileSchemeKind, SchemeKind, ThreadId};
use proptest::prelude::*;

fn arb_sched_view() -> impl Strategy<Value = SchedView> {
    (
        prop::array::uniform2(prop::array::uniform2(0usize..33)),
        prop::array::uniform2(0u32..4),
        prop::array::uniform2(0usize..16),
        0usize..2,
    )
        .prop_map(|(iq_occ, pending_l2, fetchq_len, parity)| {
            let mut v = SchedView {
                iq_capacity: 32,
                scan_rotation: parity,
                ..Default::default()
            };
            for t in 0..2 {
                v.iq_occ[t][..2].copy_from_slice(&iq_occ[t]);
                v.rename_to_issue[t] = iq_occ[t][0] + iq_occ[t][1];
                v.pending_l2[t] = pending_l2[t];
                v.earliest_l2_start[t] = if pending_l2[t] > 0 {
                    100 * (t as u64 + 1)
                } else {
                    u64::MAX
                };
                v.fetchq_len[t] = fetchq_len[t];
                v.active[t] = true;
            }
            v
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn allows_iff_headroom(view in arb_sched_view()) {
        // For every scheme: allows == (headroom ≥ 1 && total_headroom ≥ 1).
        let cfg = MachineConfig::baseline();
        for kind in SchemeKind::all() {
            let s = make_iq_scheme(kind, &cfg);
            for t in [ThreadId(0), ThreadId(1)] {
                for c in ClusterId::first(2) {
                    let a = s.allows(t, c, &view);
                    let h = s.headroom(t, c, &view) >= 1 && s.total_headroom(t, &view) >= 1;
                    prop_assert_eq!(a, h, "{}: allows != headroom", kind);
                }
            }
        }
    }

    #[test]
    fn cssp_headroom_respects_half_cap(view in arb_sched_view()) {
        let cfg = MachineConfig::baseline(); // 32-entry queues → cap 16
        let s = make_iq_scheme(SchemeKind::Cssp, &cfg);
        for t in [ThreadId(0), ThreadId(1)] {
            for c in ClusterId::first(2) {
                let occ = view.iq_occ[t.idx()][c.idx()];
                let h = s.headroom(t, c, &view);
                prop_assert!(h.saturating_add(occ) <= 16 || h == 0);
            }
        }
    }

    #[test]
    fn cspsp_always_grants_guarantee(view in arb_sched_view()) {
        // Below the 25% guarantee a thread is never denied.
        let cfg = MachineConfig::baseline(); // guarantee 8
        let s = make_iq_scheme(SchemeKind::Cspsp, &cfg);
        for t in [ThreadId(0), ThreadId(1)] {
            for c in ClusterId::first(2) {
                if view.iq_occ[t.idx()][c.idx()] < 8 {
                    prop_assert!(s.allows(t, c, &view), "guarantee violated");
                }
            }
        }
    }

    #[test]
    fn rename_selection_skips_empty_queues(view in arb_sched_view()) {
        let cfg = MachineConfig::baseline();
        for kind in SchemeKind::all() {
            let mut s = make_iq_scheme(kind, &cfg);
            if let Some(t) = s.select_rename_thread(&view) {
                prop_assert!(view.fetchq_len[t.idx()] > 0, "{}: selected empty thread", kind);
            } else {
                // No selectable thread: both empty or policy-stalled.
                for i in 0..2 {
                    let t = ThreadId(i as u8);
                    prop_assert!(
                        view.fetchq_len[i] == 0 || s.thread_stalled(t, &view),
                        "{}: refused a runnable thread",
                        kind
                    );
                }
            }
        }
    }

    #[test]
    fn rf_schemes_never_deny_below_reservation(
        used in prop::array::uniform2(prop::array::uniform2(prop::array::uniform2(0usize..65))),
    ) {
        let mut view = RfView {
            capacity: [64, 64],
            unbounded: false,
            ..Default::default()
        };
        for (t, per_class) in used.iter().enumerate() {
            for (k, per_cluster) in per_class.iter().enumerate() {
                view.used[t][k][..2].copy_from_slice(per_cluster);
            }
        }
        let cfg = MachineConfig::rf_study(64);
        // CISPRF: a thread strictly below half the total is always allowed.
        let s = make_rf_scheme(RegFileSchemeKind::Cisprf, &cfg);
        for t in [ThreadId(0), ThreadId(1)] {
            for k in [RegClass::Int, RegClass::FpSimd] {
                let mine: usize = used[t.idx()][k.idx()].iter().sum();
                if mine < 64 {
                    prop_assert!(s.allows(t, k, ClusterId(0), &view));
                }
            }
        }
    }
}

// Scheme capacity conservation across the whole supported shape
// envelope: at every (threads, clusters) in 1–8 × 1–4, each scheme's
// static caps must partition the queues without oversubscription, and
// sitting exactly on a cap must deny further entries.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn steered_caps_conserve_capacity_across_shapes(
        iq_size in prop::sample::select(vec![16usize, 32, 48, 64]),
        n in 1usize..=8,
        m in 1usize..=4,
    ) {
        let mut cfg = MachineConfig::baseline();
        cfg.num_threads = n;
        cfg.num_clusters = m;
        cfg.iq_per_cluster = iq_size;
        cfg.unbounded_regs = true;
        prop_assert!(cfg.validate().is_ok(), "{n}x{m} iq{iq_size} rejected");
        let mut at_cap = SchedView {
            iq_capacity: iq_size,
            num_threads: n,
            num_clusters: m,
            ..Default::default()
        };
        for t in 0..n {
            at_cap.active[t] = true;
        }
        for kind in SchemeKind::all() {
            let s = make_iq_scheme(kind, &cfg);
            let caps = s.steered_caps();
            if let Some(cap) = caps.per_cluster {
                // Every thread's share fits in each cluster simultaneously,
                // and the validate() floor keeps each share dispatchable
                // (a uop plus a same-cluster dependent).
                prop_assert!(cap * n <= iq_size, "{kind}: {n}x{cap} > {iq_size}");
                prop_assert!(cap >= 2, "{kind}: share starves at {n}x{m}");
                for t in 0..n {
                    for c in 0..m {
                        at_cap.iq_occ[t][c] = cap;
                    }
                }
                for t in 0..n {
                    for c in 0..m {
                        prop_assert!(
                            !s.allows(ThreadId(t as u8), ClusterId(c as u8), &at_cap),
                            "{kind}: thread {t} allowed past its per-cluster cap"
                        );
                    }
                }
                for c in 0..m {
                    prop_assert!(at_cap.cluster_used(ClusterId(c as u8)) <= iq_size);
                }
                for t in 0..n {
                    for c in 0..m {
                        at_cap.iq_occ[t][c] = 0;
                    }
                }
            }
            if let Some(cap) = caps.total {
                prop_assert!(cap * n <= iq_size * m, "{kind}: total caps oversubscribe");
                prop_assert!(cap >= 2, "{kind}: share starves at {n}x{m}");
                // A thread holding its whole total share (spread anywhere)
                // is denied everywhere.
                for c in 0..m {
                    at_cap.iq_occ[0][c] = cap / m + usize::from(c < cap % m);
                }
                for c in 0..m {
                    prop_assert!(
                        !s.allows(ThreadId(0), ClusterId(c as u8), &at_cap),
                        "{kind}: allowed past its total cap"
                    );
                }
                for c in 0..m {
                    at_cap.iq_occ[0][c] = 0;
                }
            }
            // Forced bindings stay inside the machine shape.
            for t in 0..n {
                if let Some(c) = s.forced_cluster(ThreadId(t as u8)) {
                    prop_assert!(c.idx() < m, "{kind}: bound outside the shape");
                }
            }
        }
    }
}

// Whole-pipeline invariants on randomized (scheme, config, seed) points.
// Expensive, so few cases and short runs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_invariants_hold_for_random_points(
        iq_idx in 0usize..7,
        rf_idx in 0usize..4,
        seed in 0u64..1000,
        iq_size in prop::sample::select(vec![16usize, 32, 64]),
        cat in prop::sample::select(vec!["DH", "ISPEC00", "server", "office"]),
        mem_trace: bool,
    ) {
        let iq = SchemeKind::all()[iq_idx];
        let rf = RegFileSchemeKind::all()[rf_idx];
        let class = if mem_trace { TraceClass::Mem } else { TraceClass::Ilp };
        let traces = vec![
            TraceSpec { profile: category_base(cat).variant(class), seed },
            TraceSpec { profile: category_base(cat).variant(TraceClass::Ilp), seed: seed + 1 },
        ];
        let mut cfg = MachineConfig::rf_study(64);
        cfg.iq_per_cluster = iq_size;
        let mut sim = Simulator::new(cfg, iq, rf, &traces);
        for i in 0..3000 {
            sim.step();
            if i % 500 == 0 {
                sim.check_invariants();
            }
        }
        sim.check_invariants();
    }
}

/// Mini-fuzzer: inject arbitrary (valid) uop sequences directly into the
/// pipeline with fetch disabled; every injected uop must commit, and the
/// machine must satisfy its structural invariants throughout and end
/// drained.
mod injection_fuzz {
    use super::*;
    use csmt_types::uop::RegOperand;
    use csmt_types::{MicroOp, OpClass};

    #[derive(Debug, Clone, Copy)]
    struct MiniOp {
        class_sel: u8,
        dest: u8,
        src0: u8,
        src1: u8,
        addr: u16,
        taken: bool,
    }

    fn arb_mini() -> impl Strategy<Value = MiniOp> {
        (0u8..8, 0u8..8, 0u8..8, 0u8..8, any::<u16>(), any::<bool>()).prop_map(
            |(class_sel, dest, src0, src1, addr, taken)| MiniOp {
                class_sel,
                dest,
                src0,
                src1,
                addr,
                taken,
            },
        )
    }

    fn build(pc: u64, m: MiniOp) -> MicroOp {
        let int = |r: u8| Some(RegOperand::int(r));
        let fp = |r: u8| Some(RegOperand::fp(r));
        let base = MicroOp::nop(pc);
        match m.class_sel {
            0 | 1 => base
                .with_class(if m.class_sel == 0 {
                    OpClass::Int
                } else {
                    OpClass::IntMul
                })
                .with_dest(RegOperand::int(m.dest))
                .with_srcs(int(m.src0), int(m.src1)),
            2 => base
                .with_class(OpClass::FpSimd)
                .with_dest(RegOperand::fp(m.dest))
                .with_srcs(fp(m.src0), fp(m.src1)),
            3 => base
                .with_class(OpClass::FpDiv)
                .with_dest(RegOperand::fp(m.dest))
                .with_srcs(fp(m.src0), None),
            4 => base
                .with_class(OpClass::Load)
                .with_dest(RegOperand::int(m.dest))
                .with_srcs(int(m.src0), None)
                .with_mem(0x1000_0000 + m.addr as u64 * 8, 8),
            5 => base
                .with_class(OpClass::Store)
                .with_srcs(int(m.src0), int(m.src1))
                .with_mem(0x1000_0000 + m.addr as u64 * 8, 8),
            6 => base
                .with_class(OpClass::Branch)
                .with_srcs(int(m.src0), None)
                .with_branch(m.taken, m.addr as u32),
            _ => base
                .with_class(OpClass::BranchIndirect)
                .with_srcs(int(m.src0), None)
                .with_branch(m.taken, m.addr as u32),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn injected_sequences_always_drain(
            ops0 in prop::collection::vec(arb_mini(), 1..40),
            ops1 in prop::collection::vec(arb_mini(), 0..40),
            iq_idx in 0usize..7,
        ) {
            let iq = SchemeKind::all()[iq_idx];
            let traces = vec![
                TraceSpec { profile: category_base("DH").variant(TraceClass::Ilp), seed: 1 },
                TraceSpec { profile: category_base("DH").variant(TraceClass::Ilp), seed: 2 },
            ];
            let mut sim = Simulator::new(
                MachineConfig::rf_study(64),
                iq,
                RegFileSchemeKind::Cdprf,
                &traces,
            );
            sim.debug_disable_fetch();
            for (i, &m) in ops0.iter().enumerate() {
                sim.debug_inject(0, build(0x1000 + i as u64 * 4, m));
            }
            for (i, &m) in ops1.iter().enumerate() {
                sim.debug_inject(1, build(0x8000 + i as u64 * 4, m));
            }
            // Generous drain budget: fpdivs + cold memory + TLB walks.
            for cycle in 0..20_000u64 {
                sim.step();
                if cycle % 1024 == 0 {
                    sim.check_invariants();
                }
                let s = sim.snapshot();
                if s.committed[0] as usize == ops0.len()
                    && s.committed[1] as usize == ops1.len()
                {
                    break;
                }
            }
            sim.check_invariants();
            let s = sim.snapshot();
            prop_assert_eq!(s.committed[0] as usize, ops0.len(), "{} stalled", iq.name());
            prop_assert_eq!(s.committed[1] as usize, ops1.len(), "{} stalled", iq.name());
            // Fully drained: no in-flight state left anywhere.
            prop_assert_eq!(s.iq_total(), 0);
            prop_assert_eq!(s.rob, [0usize; csmt_types::MAX_THREADS]);
            prop_assert_eq!(s.mob, 0);
        }
    }
}

// Checkpoint boundary: fast-forwarding to an arbitrary split K and
// resuming detailed simulation must commit exactly the same
// (seq, pc, class) suffix as a detailed run from zero, for any split —
// with the standard validators AND the differential oracle armed on
// both sides, so the replay cross-check polices every retire while the
// suffix comparison polices the boundary itself.
mod checkpoint_boundary {
    use super::*;
    use csmt_core::check::{Validator, Violation};
    use csmt_core::Checkpoint;
    use csmt_types::OpClass;
    use std::sync::{Arc, Mutex};

    /// One architectural commit: (thread, commit index, pc, class). The
    /// index is the recorder's own per-thread count of non-copy retires
    /// — slab `seq` numbers are fetch-order (wrong-path inclusive) and
    /// so not comparable between a from-zero and a resumed run.
    type Commit = (u8, u64, u64, OpClass);

    /// External validator that records every non-copy retirement.
    struct Recorder {
        log: Arc<Mutex<Vec<Commit>>>,
        counts: [u64; csmt_types::MAX_THREADS],
    }

    impl Recorder {
        fn new(log: Arc<Mutex<Vec<Commit>>>) -> Self {
            Recorder {
                log,
                counts: [0; csmt_types::MAX_THREADS],
            }
        }
    }

    impl Validator for Recorder {
        fn name(&self) -> &'static str {
            "commit-recorder"
        }
        fn on_retire(&mut self, sim: &Simulator, id: u32, _out: &mut Vec<Violation>) {
            let v = sim.uop_view(id);
            if !v.is_copy {
                let idx = self.counts[v.thread.idx()];
                self.counts[v.thread.idx()] += 1;
                self.log
                    .lock()
                    .unwrap()
                    .push((v.thread.0, idx, v.pc, v.class));
            }
        }
    }

    /// Step until every thread has recorded `per_thread` commits (or the
    /// cycle budget runs out — the assertions below then catch it).
    fn run_until(
        sim: &mut Simulator,
        log: &Arc<Mutex<Vec<Commit>>>,
        threads: usize,
        per_thread: u64,
    ) {
        for _ in 0..2_000_000u64 {
            for _ in 0..64 {
                sim.step();
            }
            let mut counts = [0u64; csmt_types::MAX_THREADS];
            for &(t, ..) in log.lock().unwrap().iter() {
                counts[t as usize] += 1;
            }
            if (0..threads).all(|t| counts[t] >= per_thread) {
                return;
            }
        }
    }

    /// Thread `t`'s commits with index in `[split, split + len)`, in
    /// order, re-based to the split (so a from-zero window and a resumed
    /// window describe the same program region with the same indices).
    fn window(log: &[Commit], t: u8, split: u64, len: u64) -> Vec<Commit> {
        log.iter()
            .copied()
            .filter(|&(th, idx, ..)| th == t && idx >= split && idx < split + len)
            .map(|(th, idx, pc, class)| (th, idx - split, pc, class))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn resume_suffix_matches_detailed_from_zero(
            split in 200u64..2_500,
            widx in 0usize..120,
            iq_idx in 0usize..7,
        ) {
            const SUFFIX: u64 = 250;
            let workloads = csmt_trace::suite::suite();
            let w = &workloads[widx % workloads.len()];
            let iq = SchemeKind::all()[iq_idx];
            let cfg = MachineConfig::iq_study(32);
            let n = w.traces.len();

            // Detailed from zero, validators + oracle armed.
            let zero_log = Arc::new(Mutex::new(Vec::new()));
            let mut sim =
                Simulator::new(cfg.clone(), iq, RegFileSchemeKind::Shared, &w.traces);
            sim.enable_oracle();
            sim.add_validator(Box::new(Recorder::new(zero_log.clone())));
            run_until(&mut sim, &zero_log, n, split + SUFFIX);

            // Fast-forward to the split, resume detailed, oracle armed at
            // the offset.
            let ck = Checkpoint::capture(&w.traces, split);
            let resumed_log = Arc::new(Mutex::new(Vec::new()));
            let mut sim =
                Simulator::from_checkpoint(cfg, iq, RegFileSchemeKind::Shared, &ck).unwrap();
            sim.enable_oracle();
            sim.add_validator(Box::new(Recorder::new(resumed_log.clone())));
            run_until(&mut sim, &resumed_log, n, SUFFIX);

            let zero = zero_log.lock().unwrap();
            let resumed = resumed_log.lock().unwrap();
            for t in 0..n as u8 {
                let want = window(&zero, t, split, SUFFIX);
                let got = window(&resumed, t, 0, SUFFIX);
                prop_assert_eq!(
                    want.len() as u64, SUFFIX,
                    "thread {}: from-zero run never reached seq {}",
                    t, split + SUFFIX
                );
                prop_assert_eq!(
                    want, got,
                    "thread {}: resumed commit stream diverged past split {}",
                    t, split
                );
            }
        }
    }
}

// Counter-adaptive schemes (CAIQ/CARF): epoch re-apportioning must
// conserve total capacity and respect the validated floors at every
// supported shape, for any sequence of feedback windows.
mod adaptive_props {
    use super::*;
    use csmt_core::perf::EpochStats;
    use csmt_core::schemes::{Caiq, Carf, CAIQ_CAP_FLOOR};
    use csmt_types::{MAX_CLUSTERS, MAX_THREADS, NUM_LOG_REGS};

    /// Synthetic feedback window from raw per-thread stall draws. The
    /// same 8×4 draw feeds the IQ stalls directly and the RF stalls via
    /// its first two columns — the schemes only ever compare counts
    /// within a column, so any coupling between the two is harmless.
    fn window(n: usize, m: usize, stalls: &[[u64; MAX_CLUSTERS]; MAX_THREADS]) -> EpochStats {
        let mut rf_stalls = [[0u64; RegClass::COUNT]; MAX_THREADS];
        for t in 0..MAX_THREADS {
            rf_stalls[t].copy_from_slice(&stalls[t][..RegClass::COUNT]);
        }
        EpochStats {
            cycles: 1024,
            committed: [0; MAX_THREADS],
            iq_stalls: *stalls,
            rf_stalls,
            window_stalls: [0; MAX_THREADS],
            issue_occ: [[0; MAX_CLUSTERS]; MAX_THREADS],
            num_threads: n,
            num_clusters: m,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn reapportioning_conserves_capacity_and_floors_across_shapes(
            n in 1usize..=8,
            m in 1usize..=4,
            iq_size in prop::sample::select(vec![16usize, 32, 48, 64]),
            regs in prop::sample::select(vec![256usize, 320, 512]),
            step in 1usize..=8,
            hyst in 0u64..=8,
            windows in prop::collection::vec(
                prop::collection::vec(0u64..200, MAX_THREADS * MAX_CLUSTERS), 1..10),
        ) {
            let mut cfg = MachineConfig::baseline();
            cfg.num_threads = n;
            cfg.num_clusters = m;
            cfg.iq_per_cluster = iq_size;
            cfg.int_regs_per_cluster = regs;
            cfg.fp_regs_per_cluster = regs;
            cfg.adaptive_epoch = 1024;
            cfg.adaptive_hysteresis = hyst;
            cfg.adaptive_step = step;
            prop_assert!(cfg.validate().is_ok(), "{n}x{m} rejected");

            use csmt_core::schemes::{IqScheme, RfScheme};
            let mut caiq = Caiq::new(&cfg);
            let mut carf = Carf::new(&cfg);
            let iq_share = iq_size / n;
            let rf_share = regs * m / n;
            for draws in &windows {
                let mut stalls = [[0u64; MAX_CLUSTERS]; MAX_THREADS];
                for (i, &v) in draws.iter().enumerate() {
                    stalls[i / MAX_CLUSTERS][i % MAX_CLUSTERS] = v;
                }
                caiq.observe_epoch(&window(n, m, &stalls));
                carf.observe_epoch(&window(n, m, &stalls));
                for c in 0..m {
                    let col: usize =
                        (0..n).map(|t| caiq.cap(ThreadId(t as u8), ClusterId(c as u8))).sum();
                    prop_assert_eq!(col, iq_share * n,
                        "cluster {} IQ capacity not conserved", c);
                    for t in 0..n {
                        prop_assert!(
                            caiq.cap(ThreadId(t as u8), ClusterId(c as u8)) >= CAIQ_CAP_FLOOR,
                            "thread {} squeezed below the IQ floor in cluster {}", t, c);
                    }
                }
                for class in [RegClass::Int, RegClass::FpSimd] {
                    let col: usize =
                        (0..n).map(|t| carf.threshold(ThreadId(t as u8), class)).sum();
                    prop_assert_eq!(col, rf_share * n,
                        "{:?} register capacity not conserved", class);
                    for t in 0..n {
                        prop_assert!(
                            carf.threshold(ThreadId(t as u8), class) >= NUM_LOG_REGS * m,
                            "thread {} squeezed below the {:?} rename floor", t, class);
                    }
                }
            }
        }
    }

    // Feedback disabled (`adaptive_epoch = 0`, i.e. epoch = ∞): the
    // counter layer is never armed and the adaptive schemes must be
    // bit-identical to their static parents over whole runs — same
    // serialized SimStats, the same identity the golden fixtures use.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn feedback_disabled_is_bit_identical_to_the_static_parents(
            widx in 0usize..120,
            seed_bump in 0u64..3,
        ) {
            let workloads = csmt_trace::suite::suite();
            let w = &workloads[widx % workloads.len()];
            let mut traces = w.traces.to_vec();
            for t in &mut traces {
                t.seed = t.seed.wrapping_add(seed_bump);
            }
            let mut cfg = MachineConfig::rf_study(96);
            cfg.adaptive_epoch = 0;
            let run = |iq, rf| {
                let mut sim = Simulator::new(cfg.clone(), iq, rf, &traces);
                let res = sim.run(1_000, 2_000_000);
                serde_json::to_string(&res.stats).unwrap()
            };
            prop_assert_eq!(
                run(SchemeKind::Caiq, RegFileSchemeKind::Carf),
                run(SchemeKind::Cssp, RegFileSchemeKind::Cisprf),
                "epoch-disabled adaptive pair diverged from CSSP+CISPRF"
            );
        }
    }
}

// CSSP's contract in the *running pipeline* (not just the policy
// algebra): a thread may never hold more than half of any cluster's
// issue queue with *steered* uops, which is exactly what guarantees the
// other thread its reserved half. (Rename-generated copy uops bypass the
// caps by design — "redirects only incur extra copies" — so the capped
// population is `iq_steered`, not raw occupancy.) Random suite
// workloads, observed via snapshots.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cssp_guarantee_never_violated_in_pipeline(
        widx in 0usize..120,
        iq_size in prop::sample::select(vec![16usize, 32, 64]),
        rf_idx in 0usize..4,
    ) {
        let workloads = csmt_trace::suite::suite();
        let w = &workloads[widx % workloads.len()];
        let rf = RegFileSchemeKind::all()[rf_idx];
        let cfg = MachineConfig::iq_study(iq_size);
        let cap = iq_size / 2;
        let mut sim = Simulator::new(cfg, SchemeKind::Cssp, rf, &w.traces);
        for cycle in 0..2500u64 {
            sim.step();
            if cycle % 50 == 0 {
                let s = sim.snapshot();
                for t in 0..2 {
                    for c in 0..2 {
                        prop_assert!(
                            s.iq_steered[t][c] <= cap,
                            "cycle {}: thread {} holds {} steered uops of cluster {}'s \
                             {}-entry queue (cap {}), guarantee violated",
                            sim.cycles(), t, s.iq_steered[t][c], c, iq_size, cap
                        );
                        prop_assert!(s.iq_steered[t][c] <= s.iq[t][c]);
                    }
                }
            }
        }
    }
}
