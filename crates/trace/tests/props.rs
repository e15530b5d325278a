//! Property-based tests: every profile in a broad parameter envelope
//! produces valid, deterministic micro-op streams.

use csmt_trace::profile::{TraceClass, TraceProfile};
use csmt_trace::{Program, SharedStream, StreamReader, ThreadTrace, WrongPathSource};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_profile() -> impl Strategy<Value = TraceProfile> {
    (
        0.02f64..0.9, // dep_tightness
        0.0f64..0.8,  // global_src_frac
        12u64..20,    // log2 footprint
        0.2f64..1.0,  // hot_frac
        0.0f64..1.0,  // stride_frac
        2.0f64..80.0, // mean_trip
        0.0f64..0.3,  // chaotic
        2usize..600,  // static blocks
        2usize..30,   // int span
        2usize..30,   // fp span
        1usize..8,    // dep_min
    )
        .prop_map(
            |(dep, glob, lfp, hot, stride, trip, chaos, blocks, ispan, fspan, dmin)| {
                let mut p = TraceProfile::balanced("prop");
                p.dep_tightness = dep;
                p.global_src_frac = glob;
                p.footprint = 1 << lfp;
                p.hot_frac = hot;
                p.stride_frac = stride;
                p.mean_trip = trip;
                p.chaotic_branch_frac = chaos;
                p.static_blocks = blocks;
                p.int_reg_span = ispan;
                p.fp_reg_span = fspan;
                p.dep_min = dmin;
                p
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_profile_generates_valid_uops(p in arb_profile(), seed: u64) {
        p.validate().unwrap();
        let mut t = ThreadTrace::from_profile(&p, seed);
        for _ in 0..400 {
            let u = t.next_uop();
            u.validate().unwrap();
        }
    }

    #[test]
    fn streams_are_deterministic(p in arb_profile(), seed: u64) {
        let mut a = ThreadTrace::from_profile(&p, seed);
        let mut b = ThreadTrace::from_profile(&p, seed);
        for _ in 0..200 {
            prop_assert_eq!(a.next_uop(), b.next_uop());
        }
    }

    #[test]
    fn shared_stream_replays_the_private_generator(p in arb_profile(), seed: u64) {
        // Past two chunk boundaries of the packed shared stream.
        let mut reader = StreamReader::new(Arc::new(SharedStream::new(&p, seed)));
        let mut private = ThreadTrace::from_profile(&p, seed);
        for i in 0..9_000 {
            prop_assert_eq!(reader.next_uop(), private.next_uop(), "uop {}", i);
        }
    }

    #[test]
    fn wrong_path_never_branches(p in arb_profile(), seed: u64) {
        let mut w = WrongPathSource::new(&p, seed);
        for _ in 0..200 {
            let u = w.next_uop();
            u.validate().unwrap();
            prop_assert!(!u.class.is_branch());
        }
    }

    #[test]
    fn programs_have_valid_structure(p in arb_profile(), seed: u64) {
        let prog = Program::synthesize(&p, seed);
        prop_assert_eq!(prog.blocks.len(), p.static_blocks);
        for b in &prog.blocks {
            prop_assert!(b.base_trip >= 1);
            prop_assert!((b.succ[0] as usize) < p.static_blocks);
            prop_assert!((b.succ[1] as usize) < p.static_blocks);
            prop_assert_ne!(b.succ[0], b.id);
            prop_assert_ne!(b.succ[1], b.id);
        }
    }

    #[test]
    fn variants_preserve_validity(p in arb_profile(), mem: bool) {
        let v = p.variant(if mem { TraceClass::Mem } else { TraceClass::Ilp });
        v.validate().unwrap();
    }

    #[test]
    fn branch_targets_match_next_blocks(p in arb_profile(), seed: u64) {
        // The uop after a branch belongs to the block the branch names.
        let mut t = ThreadTrace::from_profile(&p, seed);
        let mut prev_target: Option<u32> = None;
        for _ in 0..300 {
            let u = t.next_uop();
            if let Some(tgt) = prev_target.take() {
                prop_assert_eq!(u.code_block, tgt, "control flow mismatch");
            }
            if let Some(b) = u.branch {
                prev_target = Some(b.target);
            }
        }
    }
}
