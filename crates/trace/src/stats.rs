//! Trace characterization.
//!
//! Computes, from any micro-op stream, the features the paper's workload
//! taxonomy (Table 2) is built on: instruction mix, code footprint, branch
//! behaviour, dependency distances and data footprint. Used by the
//! `trace_inspection` example and by tests that pin each category's
//! intended character.

use csmt_types::{MicroOp, OpClass, RegClass};
use std::collections::HashMap;

/// Aggregate characteristics of a micro-op stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    pub uops: u64,
    // ---- mix fractions (of all uops) ----
    pub frac_int: f64,
    pub frac_fp: f64,
    pub frac_load: f64,
    pub frac_store: f64,
    pub frac_branch: f64,
    pub frac_mrom: f64,
    // ---- control flow ----
    /// Distinct static PCs (code footprint in uops).
    pub static_uops: usize,
    /// Distinct code blocks touched.
    pub static_blocks: usize,
    /// Fraction of branch executions that were taken.
    pub taken_ratio: f64,
    /// Mean dynamic basic-block length (uops between branches).
    pub mean_block_len: f64,
    /// Empirical per-static-branch outcome entropy, averaged over dynamic
    /// executions (0 = perfectly biased, 1 = coin flips).
    pub branch_entropy: f64,
    // ---- dataflow ----
    /// Mean distance (in producing uops of the same class) from a consumed
    /// register to its most recent producer.
    pub mean_dep_distance: f64,
    /// Fraction of value-producing uops whose destination is FP/SIMD.
    pub fp_dest_share: f64,
    // ---- memory ----
    /// Distinct 64-byte lines touched (data footprint).
    pub data_lines: usize,
    /// Span of touched data addresses (max − min), a footprint proxy that
    /// is robust to short observation windows.
    pub addr_span: u64,
    /// Fraction of memory accesses to the 64 most-touched lines (locality
    /// proxy).
    pub hot_line_frac: f64,
}

/// Characterize the next `n` uops of a stream.
fn characterize(mut next: impl FnMut() -> MicroOp, n: u64) -> TraceStats {
    let mut uops = 0u64;
    let mut counts = [0u64; 6]; // int, fp, load, store, branch, mrom
    let mut pcs: HashMap<u64, ()> = HashMap::new();
    let mut blocks: HashMap<u32, ()> = HashMap::new();
    let mut taken = 0u64;
    let mut branches = 0u64;
    let mut branch_outcomes: HashMap<u64, (u64, u64)> = HashMap::new();
    // Per (class, logical reg): index of the last producer in that class.
    let mut last_def: [HashMap<u8, u64>; 2] = [HashMap::new(), HashMap::new()];
    let mut produced: [u64; 2] = [0, 0];
    let mut dep_sum = 0f64;
    let mut dep_n = 0u64;
    let mut fp_dests = 0u64;
    let mut dests = 0u64;
    let mut lines: HashMap<u64, u64> = HashMap::new();
    let mut mem_accesses = 0u64;
    let (mut addr_min, mut addr_max) = (u64::MAX, 0u64);

    for _ in 0..n {
        let u = next();
        uops += 1;
        match u.class {
            OpClass::Int | OpClass::IntMul => counts[0] += 1,
            OpClass::FpSimd | OpClass::FpDiv => counts[1] += 1,
            OpClass::Load => counts[2] += 1,
            OpClass::Store => counts[3] += 1,
            OpClass::Branch | OpClass::BranchIndirect => counts[4] += 1,
            OpClass::Copy => {}
        }
        if u.is_mrom {
            counts[5] += 1;
        }
        pcs.insert(u.pc, ());
        blocks.insert(u.code_block, ());
        if let Some(b) = u.branch {
            branches += 1;
            taken += b.taken as u64;
            let e = branch_outcomes.entry(u.pc).or_insert((0, 0));
            e.0 += b.taken as u64;
            e.1 += 1;
        }
        for s in u.srcs.into_iter().flatten() {
            let k = s.class.idx();
            if let Some(&def_idx) = last_def[k].get(&s.reg.0) {
                dep_sum += (produced[k] - def_idx) as f64;
                dep_n += 1;
            }
        }
        if let Some(d) = u.dest {
            dests += 1;
            if d.class == RegClass::FpSimd {
                fp_dests += 1;
            }
            let k = d.class.idx();
            produced[k] += 1;
            last_def[k].insert(d.reg.0, produced[k]);
        }
        if let Some(m) = u.mem {
            mem_accesses += 1;
            *lines.entry(m.addr / 64).or_insert(0) += 1;
            addr_min = addr_min.min(m.addr);
            addr_max = addr_max.max(m.addr);
        }
    }

    // Entropy over per-branch empirical bias, execution-weighted. Summed
    // in PC order so the result is independent of hash iteration order.
    let mut entropy_sum = 0f64;
    let mut outcomes: Vec<(u64, (u64, u64))> = branch_outcomes.into_iter().collect();
    outcomes.sort_unstable_by_key(|&(pc, _)| pc);
    for &(_, (t, total)) in outcomes.iter() {
        let p = t as f64 / total as f64;
        let h = if p <= 0.0 || p >= 1.0 {
            0.0
        } else {
            -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
        };
        entropy_sum += h * total as f64;
    }

    // Hot-line mass: fraction of accesses landing on the 64 busiest lines.
    let mut line_counts: Vec<u64> = lines.values().copied().collect();
    line_counts.sort_unstable_by(|a, b| b.cmp(a));
    let hot: u64 = line_counts.iter().take(64).sum();

    let f = |c: u64| c as f64 / uops.max(1) as f64;
    TraceStats {
        uops,
        frac_int: f(counts[0]),
        frac_fp: f(counts[1]),
        frac_load: f(counts[2]),
        frac_store: f(counts[3]),
        frac_branch: f(counts[4]),
        frac_mrom: f(counts[5]),
        static_uops: pcs.len(),
        static_blocks: blocks.len(),
        taken_ratio: taken as f64 / branches.max(1) as f64,
        mean_block_len: uops as f64 / branches.max(1) as f64,
        branch_entropy: entropy_sum / branches.max(1) as f64,
        mean_dep_distance: dep_sum / dep_n.max(1) as f64,
        fp_dest_share: fp_dests as f64 / dests.max(1) as f64,
        data_lines: lines.len(),
        addr_span: addr_max.saturating_sub(addr_min.min(addr_max)),
        hot_line_frac: hot as f64 / mem_accesses.max(1) as f64,
    }
}

/// Characterize a [`ThreadTrace`](crate::ThreadTrace)'s next `n` uops.
pub fn characterize_trace(trace: &mut crate::ThreadTrace, n: u64) -> TraceStats {
    characterize(|| trace.next_uop(), n)
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "uops                 {}", self.uops)?;
        writeln!(
            f,
            "mix                  int {:.2}  fp {:.2}  ld {:.2}  st {:.2}  br {:.2}",
            self.frac_int, self.frac_fp, self.frac_load, self.frac_store, self.frac_branch
        )?;
        writeln!(
            f,
            "code                 {} static uops in {} blocks, block len {:.1}",
            self.static_uops, self.static_blocks, self.mean_block_len
        )?;
        writeln!(
            f,
            "branches             taken {:.2}, entropy {:.3}",
            self.taken_ratio, self.branch_entropy
        )?;
        writeln!(
            f,
            "dataflow             dep distance {:.1}, fp-dest share {:.2}",
            self.mean_dep_distance, self.fp_dest_share
        )?;
        write!(
            f,
            "memory               {} lines ({} KB), hot-64-line mass {:.2}",
            self.data_lines,
            self.data_lines * 64 / 1024,
            self.hot_line_frac
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{category_base, TraceClass};
    use crate::ThreadTrace;

    fn stats(cat: &str, class: TraceClass, n: u64) -> TraceStats {
        let p = category_base(cat).variant(class);
        let mut t = ThreadTrace::from_profile(&p, 9);
        characterize_trace(&mut t, n)
    }

    #[test]
    fn mix_fractions_sum_to_one() {
        let s = stats("miscellanea", TraceClass::Ilp, 30_000);
        let sum = s.frac_int + s.frac_fp + s.frac_load + s.frac_store + s.frac_branch;
        assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
    }

    #[test]
    fn ispec_vs_fspec_character() {
        let ispec = stats("ISPEC00", TraceClass::Ilp, 30_000);
        let fspec = stats("FSPEC00", TraceClass::Ilp, 30_000);
        assert!(ispec.frac_fp < 0.05, "{}", ispec.frac_fp);
        assert!(fspec.frac_fp > 0.25, "{}", fspec.frac_fp);
        assert!(ispec.fp_dest_share < 0.1);
        assert!(fspec.fp_dest_share > 0.3);
        assert!(ispec.frac_branch > fspec.frac_branch);
    }

    #[test]
    fn mem_variant_spans_a_much_larger_footprint() {
        let ilp = stats("server", TraceClass::Ilp, 30_000);
        let mem = stats("server", TraceClass::Mem, 30_000);
        assert!(
            mem.addr_span > 10 * ilp.addr_span,
            "mem {} vs ilp {}",
            mem.addr_span,
            ilp.addr_span
        );
    }

    #[test]
    fn ilp_variant_has_wider_dataflow() {
        let ilp = stats("office", TraceClass::Ilp, 30_000);
        let mem = stats("office", TraceClass::Mem, 30_000);
        assert!(
            ilp.mean_dep_distance > mem.mean_dep_distance,
            "ilp {} vs mem {}",
            ilp.mean_dep_distance,
            mem.mean_dep_distance
        );
    }

    #[test]
    fn chaotic_branches_raise_entropy() {
        // Make every block a decision block (trip count 1) so branch
        // entropy isolates the successor choice: biased (0.9) for calm
        // blocks vs near coin-flip for chaotic ones.
        let mut calm = category_base("DH");
        calm.chaotic_branch_frac = 0.0;
        calm.mean_trip = 1.0;
        let mut wild = calm.clone();
        wild.chaotic_branch_frac = 0.5;
        let mut a = ThreadTrace::from_profile(&calm, 3);
        let mut b = ThreadTrace::from_profile(&wild, 3);
        let sa = characterize_trace(&mut a, 30_000);
        let sb = characterize_trace(&mut b, 30_000);
        assert!(
            sb.branch_entropy > sa.branch_entropy,
            "wild {} vs calm {}",
            sb.branch_entropy,
            sa.branch_entropy
        );
    }

    #[test]
    fn visited_blocks_bounded_by_profile() {
        for cat in ["DH", "office"] {
            let p = category_base(cat).variant(TraceClass::Ilp);
            let mut t = ThreadTrace::from_profile(&p, 9);
            let s = characterize_trace(&mut t, 40_000);
            assert!(s.static_blocks >= 2);
            assert!(s.static_blocks <= p.static_blocks);
        }
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = stats("DH", TraceClass::Ilp, 2_000);
        let text = s.to_string();
        assert!(text.contains("uops"));
        assert!(text.contains("entropy"));
    }
}
