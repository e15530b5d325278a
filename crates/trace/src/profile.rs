//! Trace profiles: the tunable characteristics a synthetic trace is built
//! from, and the per-category profiles mirroring Table 2.
//!
//! The classification follows the paper (§4.1): every category provides
//! *highly parallel* (ILP) and *memory-bounded* (MEM) single-thread traces,
//! in the style of Tullsen & Brown's workload taxonomy.

use serde::{Deserialize, Serialize};

/// Whether a single-thread trace is compute-parallel or memory-bounded —
/// the per-trace half of the ILP/MEM/MIX workload taxonomy of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceClass {
    /// Highly parallel: large dependency distances, cache-resident working
    /// set, predictable control flow.
    Ilp,
    /// Memory-bounded: working set far beyond L2, frequent long-latency
    /// misses.
    Mem,
}

impl std::fmt::Display for TraceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceClass::Ilp => write!(f, "ilp"),
            TraceClass::Mem => write!(f, "mem"),
        }
    }
}

/// All knobs of the synthetic program/trace model.
///
/// Fractions in `mix` need not sum to one — they are weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Human-readable profile name (category + variant).
    pub name: String,

    // ---- instruction mix weights ----
    /// `[int, int_mul, fp_simd, fp_div, load, store, branch, branch_ind]`.
    pub mix: [f64; 8],

    // ---- instruction-level parallelism ----
    /// Parameter of the geometric dependency-distance distribution: the
    /// probability that a source refers to the most recent producer.
    /// High (≈0.8) ⇒ tight chains, low ILP; low (≈0.15) ⇒ wide dataflow.
    pub dep_tightness: f64,
    /// Probability a source operand is a long-lived "global" value (loop
    /// invariant) rather than a recent producer. Globals never serialize.
    pub global_src_frac: f64,
    /// Minimum dependency distance (in producers of the class). Unrolled /
    /// software-pipelined loops rarely consume the immediately preceding
    /// result; a floor above 1 is what makes a trace genuinely wide.
    pub dep_min: usize,

    // ---- memory behaviour ----
    /// Total data footprint in bytes. Regions are carved from it.
    pub footprint: u64,
    /// Fraction of accesses that hit a small hot region (L1-resident).
    pub hot_frac: f64,
    /// Size of the hot region in bytes.
    pub hot_bytes: u64,
    /// Fraction of the remaining accesses that are sequential/strided
    /// (prefetch-friendly line reuse) rather than random in the footprint.
    pub stride_frac: f64,

    // ---- control flow ----
    /// Average basic-block length in uops (min 3).
    pub block_len: f64,
    /// Mean loop trip count (geometric); high values make back-edge
    /// branches very predictable.
    pub mean_trip: f64,
    /// Fraction of block-exit branches that are effectively random
    /// (data-dependent, unpredictable by gshare).
    pub chaotic_branch_frac: f64,
    /// Number of static basic blocks — the code footprint seen by the
    /// trace cache (blocks × block_len uops).
    pub static_blocks: usize,
    /// Fraction of uops sequenced from the MROM (complex macro-ops).
    pub mrom_frac: f64,

    // ---- register pressure ----
    /// How many distinct integer logical destination registers the program
    /// cycles through (2..=NUM_LOG_REGS). More live registers ⇒ more
    /// physical-register pressure per in-flight instruction window.
    pub int_reg_span: usize,
    /// Same for the FP/SIMD file.
    pub fp_reg_span: usize,
    /// Probability that a strided access pattern walks line-granular
    /// (64-byte stride: every access a fresh cache line — independent
    /// L1-missing loads, the memory-level-parallelism source) rather than
    /// word-granular (dense reuse within a line).
    pub stride_line_frac: f64,
}

impl TraceProfile {
    /// A neutral, balanced profile. Tests start from here and tweak.
    pub fn balanced(name: &str) -> Self {
        TraceProfile {
            name: name.to_string(),
            //    int   imul  fp    fdiv  load  store br    ibr
            mix: [0.36, 0.02, 0.10, 0.01, 0.25, 0.11, 0.13, 0.02],
            dep_tightness: 0.45,
            global_src_frac: 0.25,
            dep_min: 1,
            footprint: 8 << 20,
            hot_frac: 0.90,
            hot_bytes: 16 << 10,
            stride_frac: 0.5,
            block_len: 8.0,
            mean_trip: 12.0,
            chaotic_branch_frac: 0.08,
            static_blocks: 400,
            mrom_frac: 0.01,
            int_reg_span: 12,
            fp_reg_span: 8,
            stride_line_frac: 0.3,
        }
    }

    /// Make the profile memory-bounded: huge, poorly localized footprint
    /// and chain-y dataflow (pointer chasing serializes the misses).
    pub fn memory_bound(mut self) -> Self {
        self.name.push_str("-mem");
        self.footprint = 128 << 20; // far beyond the 4 MB L2
        self.hot_frac = 0.50;
        self.hot_bytes = 8 << 10;
        self.stride_frac = 0.10;
        // Pointer-chasing style: consumers hang directly off the missing
        // loads, so dependent work piles up in the issue queues for the
        // whole miss — the starvation scenario the schemes manage.
        self.dep_tightness = 0.72;
        self.global_src_frac = 0.15;
        self
    }

    /// Make the profile highly parallel: wide dataflow, predictable control
    /// flow, and a working set sized to produce L1-missing / L2-hitting
    /// loads with high memory-level parallelism — the kind of thread that
    /// profits from a large combined instruction window.
    pub fn highly_parallel(mut self) -> Self {
        self.name.push_str("-ilp");
        // Small enough that checkpoint warming makes the thread truly
        // compute-bound: 8 stream regions of 128 KB plus the hot set fit
        // the warmed half of the L2 alongside a second thread.
        self.footprint = 1 << 20;
        self.hot_frac = 0.85;
        self.hot_bytes = 24 << 10;
        self.stride_frac = 0.95;
        self.stride_line_frac = 0.85; // line-granular streams: MLP source
        self.dep_tightness = 0.10;
        self.global_src_frac = 0.35;
        self.dep_min = 5;
        self.chaotic_branch_frac = 0.015;
        self.mean_trip = 60.0;
        self
    }

    /// Apply the ILP/MEM variant.
    pub fn variant(self, class: TraceClass) -> Self {
        match class {
            TraceClass::Ilp => self.highly_parallel(),
            TraceClass::Mem => self.memory_bound(),
        }
    }

    /// Probability weights over op classes in emission order
    /// `[Int, IntMul, FpSimd, FpDiv, Load, Store, Branch, BranchIndirect]`.
    pub fn mix_weights(&self) -> &[f64; 8] {
        &self.mix
    }

    /// Fraction of value-producing uops whose destination is FP/SIMD — the
    /// first-order driver of FP register-file pressure.
    pub fn fp_dest_share(&self) -> f64 {
        let fp = self.mix[2] + self.mix[3];
        let int = self.mix[0] + self.mix[1] + self.mix[4]; // loads default to int dests
        if fp + int == 0.0 {
            0.0
        } else {
            fp / (fp + int)
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.mix.iter().any(|&w| w < 0.0) || self.mix.iter().sum::<f64>() <= 0.0 {
            return Err(format!("{}: invalid mix weights", self.name));
        }
        if !(0.0..=1.0).contains(&self.stride_line_frac)
            || !(0.0..=1.0).contains(&self.dep_tightness)
            || !(0.0..=1.0).contains(&self.global_src_frac)
            || !(0.0..=1.0).contains(&self.hot_frac)
            || !(0.0..=1.0).contains(&self.stride_frac)
            || !(0.0..=1.0).contains(&self.chaotic_branch_frac)
            || !(0.0..=1.0).contains(&self.mrom_frac)
        {
            return Err(format!("{}: probability out of [0,1]", self.name));
        }
        if self.footprint < 4096 || self.hot_bytes < 256 {
            return Err(format!("{}: footprint too small", self.name));
        }
        if self.block_len < 3.0 || self.mean_trip < 1.0 {
            return Err(format!("{}: degenerate control flow", self.name));
        }
        if self.static_blocks < 2 {
            return Err(format!("{}: need at least 2 static blocks", self.name));
        }
        if self.dep_min < 1 || self.dep_min > 16 {
            return Err(format!("{}: dep_min out of range", self.name));
        }
        let max_span = csmt_types::NUM_LOG_REGS;
        if self.int_reg_span < 2
            || self.int_reg_span > max_span
            || self.fp_reg_span < 2
            || self.fp_reg_span > max_span
        {
            return Err(format!("{}: register span out of range", self.name));
        }
        Ok(())
    }
}

/// Category base profiles (before the ILP/MEM variant is applied).
///
/// The shapes are chosen so each category stresses what the paper says it
/// stresses: ISPEC00 pressures the integer register file (Figure 6 shows up
/// to +14% from partitioning it), FSPEC00 pressures the FP/SIMD file, server
/// traces are L2-miss bound, multimedia/DH are SIMD-streaming, office /
/// productivity are branchy integer codes.
pub fn category_base(category: &str) -> TraceProfile {
    let mut p = TraceProfile::balanced(category);
    match category {
        "DH" => {
            p.mix = [0.22, 0.02, 0.30, 0.01, 0.24, 0.12, 0.08, 0.01];
            p.stride_frac = 0.9;
            p.fp_reg_span = 14;
            p.int_reg_span = 8;
            p.static_blocks = 160;
            p.mean_trip = 48.0;
            p.chaotic_branch_frac = 0.03;
        }
        "FSPEC00" => {
            p.mix = [0.18, 0.02, 0.34, 0.03, 0.26, 0.09, 0.07, 0.01];
            p.fp_reg_span = 20;
            p.int_reg_span = 8;
            p.dep_tightness = 0.30;
            p.mean_trip = 64.0;
            p.chaotic_branch_frac = 0.02;
            p.static_blocks = 220;
        }
        "ISPEC00" => {
            p.mix = [0.44, 0.03, 0.01, 0.00, 0.24, 0.10, 0.16, 0.02];
            p.int_reg_span = 26; // heavy integer register pressure
            p.fp_reg_span = 2;
            p.dep_tightness = 0.55;
            p.chaotic_branch_frac = 0.12;
            p.static_blocks = 900;
            p.mean_trip = 9.0;
        }
        "multimedia" => {
            p.mix = [0.24, 0.02, 0.28, 0.01, 0.23, 0.12, 0.09, 0.01];
            p.stride_frac = 0.85;
            p.fp_reg_span = 16;
            p.mean_trip = 32.0;
            p.static_blocks = 260;
        }
        "office" => {
            p.mix = [0.42, 0.01, 0.03, 0.00, 0.27, 0.11, 0.14, 0.02];
            p.int_reg_span = 16;
            p.fp_reg_span = 4;
            p.chaotic_branch_frac = 0.14;
            p.static_blocks = 1400;
            p.mean_trip = 6.0;
            p.mrom_frac = 0.03;
        }
        "productivity" => {
            p.mix = [0.40, 0.02, 0.06, 0.00, 0.26, 0.11, 0.13, 0.02];
            p.int_reg_span = 14;
            p.fp_reg_span = 6;
            p.chaotic_branch_frac = 0.11;
            p.static_blocks = 1000;
            p.mean_trip = 8.0;
            p.mrom_frac = 0.02;
        }
        "server" => {
            p.mix = [0.38, 0.01, 0.02, 0.00, 0.30, 0.13, 0.14, 0.02];
            p.int_reg_span = 14;
            p.fp_reg_span = 2;
            p.footprint = 96 << 20;
            p.hot_frac = 0.65;
            p.chaotic_branch_frac = 0.13;
            p.static_blocks = 2000;
            p.mean_trip = 5.0;
            p.mrom_frac = 0.03;
        }
        "workstation" => {
            p.mix = [0.28, 0.02, 0.22, 0.02, 0.25, 0.10, 0.10, 0.01];
            p.int_reg_span = 12;
            p.fp_reg_span = 14;
            p.footprint = 32 << 20;
            p.mean_trip = 20.0;
            p.static_blocks = 500;
        }
        "miscellanea" => {
            p.mix = [0.33, 0.02, 0.16, 0.01, 0.25, 0.11, 0.11, 0.01];
            p.int_reg_span = 14;
            p.fp_reg_span = 10;
            p.stride_frac = 0.7;
            p.static_blocks = 450;
        }
        other => {
            p.name = other.to_string();
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    const CATEGORIES: [&str; 9] = [
        "DH",
        "FSPEC00",
        "ISPEC00",
        "multimedia",
        "office",
        "productivity",
        "server",
        "workstation",
        "miscellanea",
    ];

    #[test]
    fn all_category_bases_validate() {
        for c in CATEGORIES {
            category_base(c).validate().unwrap();
            category_base(c)
                .variant(TraceClass::Ilp)
                .validate()
                .unwrap();
            category_base(c)
                .variant(TraceClass::Mem)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn mem_variant_is_bigger_and_less_local() {
        for c in CATEGORIES {
            let base = category_base(c);
            let mem = base.clone().variant(TraceClass::Mem);
            let ilp = base.clone().variant(TraceClass::Ilp);
            assert!(mem.footprint > ilp.footprint, "{c}");
            assert!(mem.hot_frac < ilp.hot_frac, "{c}");
            assert!(ilp.dep_tightness < mem.dep_tightness, "{c}");
        }
    }

    #[test]
    fn ispec_pressures_int_file_fspec_pressures_fp_file() {
        let ispec = category_base("ISPEC00");
        let fspec = category_base("FSPEC00");
        assert!(ispec.fp_dest_share() < 0.05);
        assert!(fspec.fp_dest_share() > 0.30);
        assert!(ispec.int_reg_span > fspec.int_reg_span);
        assert!(fspec.fp_reg_span > ispec.fp_reg_span);
    }

    #[test]
    fn variant_names_are_tagged() {
        let p = category_base("DH").variant(TraceClass::Ilp);
        assert!(p.name.ends_with("-ilp"));
        let p = category_base("DH").variant(TraceClass::Mem);
        assert!(p.name.ends_with("-mem"));
    }

    #[test]
    fn validate_rejects_bad_profiles() {
        let mut p = TraceProfile::balanced("bad");
        p.mix = [0.0; 8];
        assert!(p.validate().is_err());

        let mut p = TraceProfile::balanced("bad");
        p.dep_tightness = 1.5;
        assert!(p.validate().is_err());

        let mut p = TraceProfile::balanced("bad");
        p.block_len = 1.0;
        assert!(p.validate().is_err());

        let mut p = TraceProfile::balanced("bad");
        p.int_reg_span = 1;
        assert!(p.validate().is_err());

        let mut p = TraceProfile::balanced("bad");
        p.int_reg_span = csmt_types::NUM_LOG_REGS + 1;
        assert!(p.validate().is_err());
    }
}
