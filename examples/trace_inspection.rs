//! Inspect the synthetic workload suite: characterize one trace of every
//! category and show that each has the features its Table-2 row promises
//! (integer vs FP mix, memory-boundedness, branchiness, code footprint).
//!
//! Run with: `cargo run --release --example trace_inspection`

use clustered_smt::trace::profile::{category_base, TraceClass};
use clustered_smt::trace::{characterize_trace, ThreadTrace};

const N: u64 = 50_000;

fn main() {
    println!(
        "{:<16} {:>5} {:>5} {:>5} {:>5} {:>7} {:>7} {:>8} {:>9}",
        "profile", "int", "fp", "mem", "br", "depdist", "entropy", "blocks", "span(KB)"
    );
    for cat in [
        "DH",
        "FSPEC00",
        "ISPEC00",
        "multimedia",
        "office",
        "productivity",
        "server",
        "workstation",
        "miscellanea",
    ] {
        for class in [TraceClass::Ilp, TraceClass::Mem] {
            let p = category_base(cat).variant(class);
            let mut t = ThreadTrace::from_profile(&p, 1);
            let s = characterize_trace(&mut t, N);
            println!(
                "{:<16} {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>7.1} {:>7.3} {:>8} {:>9}",
                p.name,
                s.frac_int,
                s.frac_fp,
                s.frac_load + s.frac_store,
                s.frac_branch,
                s.mean_dep_distance,
                s.branch_entropy,
                s.static_blocks,
                s.addr_span / 1024,
            );
        }
    }
}
