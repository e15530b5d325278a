//! Static synthetic program model.
//!
//! A [`Program`] is a set of basic blocks synthesized from a
//! [`TraceProfile`]. Each block is a sequence
//! of uop *templates* (op class, destination register, memory pattern)
//! terminated by a conditional exit branch. Blocks loop on themselves with a
//! profile-dependent trip count and then transfer to one of two successors,
//! so the dynamic stream has the loop/branch structure real predictors and
//! trace caches exploit — rather than white noise, which would make every
//! front-end model trivially pessimal.

use crate::profile::TraceProfile;
use csmt_types::{LogReg, OpClass, Prng, RegClass};
use serde::{Deserialize, Serialize};

/// How a static memory instruction generates addresses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MemPattern {
    /// Sequential walk through one of the program's shared stream regions:
    /// `region_base + k·stride` (mod region size). Regions are shared by
    /// many static instructions — programs walk a handful of arrays, they
    /// do not give every load its own — so the compulsory-miss phase ends
    /// and steady state is line reuse.
    Stride { region: u8, stride: u64 },
    /// Uniform random within the small hot region (L1-resident).
    Hot,
    /// Uniform random within the full footprint (misses for big footprints).
    Cold,
}

/// Number of shared stream regions per program.
pub const NUM_STREAM_REGIONS: usize = 8;

/// One static micro-op template.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UopTemplate {
    pub pc: u64,
    pub class: OpClass,
    /// Destination register (class implied by `dest_class`), if any.
    pub dest: Option<(LogReg, RegClass)>,
    pub mem: Option<MemPattern>,
    pub is_mrom: bool,
}

/// A basic block: body templates plus one exit branch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    pub id: u32,
    pub body: Vec<UopTemplate>,
    /// PC of the exit branch.
    pub branch_pc: u64,
    /// The exit branch is indirect (predicted by the indirect predictor).
    pub indirect_exit: bool,
    /// Base self-loop trip count (≥ 1). 1 means the block never repeats.
    /// The generator adds small per-visit jitter; the base is stable so
    /// predictors can learn the loop exit, as they do for real loops.
    pub base_trip: u32,
    /// Two possible successor blocks.
    pub succ: [u32; 2],
    /// Probability of taking `succ\[0\]` on exit.
    pub succ_bias: f64,
    /// The exit choice is chaotic (data-dependent, unpredictable).
    pub chaotic: bool,
}

/// A complete static program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    pub blocks: Vec<Block>,
    /// The profile this program was synthesized from (kept for reports).
    pub profile: TraceProfile,
}

/// Address-space layout of the synthetic data segment: the hot region comes
/// first, the remaining footprint is carved into per-instruction stride
/// regions and a shared cold region.
const DATA_BASE: u64 = 0x1000_0000;

impl Program {
    /// Synthesize a static program from a profile, deterministically from
    /// `seed`.
    pub fn synthesize(profile: &TraceProfile, seed: u64) -> Program {
        profile.validate().expect("invalid trace profile");
        let mut rng = Prng::derive(seed, 0xB10C);

        // Mean body length derived from the instruction mix: one exit branch
        // per block, so bodies average (non-branch weight / branch weight).
        let br_w = profile.mix[6] + profile.mix[7];
        let body_w: f64 = profile.mix[..6].iter().sum();
        let mean_body = if br_w > 0.0 {
            (body_w / br_w).clamp(3.0, 24.0)
        } else {
            profile.block_len.clamp(3.0, 24.0)
        };
        // Body-slot class weights: the non-branch part of the mix.
        let body_weights = [
            profile.mix[0],
            profile.mix[1],
            profile.mix[2],
            profile.mix[3],
            profile.mix[4],
            profile.mix[5],
        ];
        let indirect_share = if br_w > 0.0 {
            profile.mix[7] / br_w
        } else {
            0.0
        };

        let n = profile.static_blocks as u32;
        let mut blocks = Vec::with_capacity(n as usize);
        let mut next_pc: u64 = 0x40_0000;

        for id in 0..n {
            let len = rng.geometric(1.0 / mean_body, 48).max(2) as usize;
            let mut body = Vec::with_capacity(len);
            for _ in 0..len {
                let class = match rng.weighted(&body_weights) {
                    0 => OpClass::Int,
                    1 => OpClass::IntMul,
                    2 => OpClass::FpSimd,
                    3 => OpClass::FpDiv,
                    4 => OpClass::Load,
                    _ => OpClass::Store,
                };
                let dest = match class {
                    OpClass::Store => None,
                    OpClass::FpSimd | OpClass::FpDiv => Some((
                        LogReg(rng.below(profile.fp_reg_span as u64) as u8),
                        RegClass::FpSimd,
                    )),
                    OpClass::Load => {
                        // Loads feed whichever file the program pressures.
                        if rng.chance(profile.fp_dest_share()) {
                            Some((
                                LogReg(rng.below(profile.fp_reg_span as u64) as u8),
                                RegClass::FpSimd,
                            ))
                        } else {
                            Some((
                                LogReg(rng.below(profile.int_reg_span as u64) as u8),
                                RegClass::Int,
                            ))
                        }
                    }
                    _ => Some((
                        LogReg(rng.below(profile.int_reg_span as u64) as u8),
                        RegClass::Int,
                    )),
                };
                let mem = if class.is_mem() {
                    Some(Self::pick_mem_pattern(profile, &mut rng))
                } else {
                    None
                };
                body.push(UopTemplate {
                    pc: next_pc,
                    class,
                    dest,
                    mem,
                    is_mrom: rng.chance(profile.mrom_frac),
                });
                next_pc += 4;
            }
            let branch_pc = next_pc;
            next_pc += 4;
            // Successors: mostly nearby blocks (loop nests / straight-line
            // regions), occasionally a far jump, never self (self-looping is
            // modeled by the trip count).
            let near = |rng: &mut Prng| -> u32 {
                let span = 16.min(n.saturating_sub(1)).max(1) as u64;
                let delta = rng.below(span) as i64 - (span / 2) as i64;
                let mut t = id as i64 + delta;
                if t == id as i64 {
                    t += 1;
                }
                t.rem_euclid(n as i64) as u32
            };
            let far = |rng: &mut Prng| rng.below(n as u64) as u32;
            let mut s0 = if rng.chance(0.85) {
                near(&mut rng)
            } else {
                far(&mut rng)
            };
            let mut s1 = if rng.chance(0.85) {
                near(&mut rng)
            } else {
                far(&mut rng)
            };
            if s0 == id {
                s0 = (id + 1) % n;
            }
            if s1 == id {
                s1 = (id + 1) % n;
            }
            let chaotic = rng.chance(profile.chaotic_branch_frac);
            // Chaotic blocks are straight-line decision blocks whose exit
            // direction is a near coin flip; the rest are loops with a
            // stable per-block trip count drawn around the profile mean.
            let base_trip = if chaotic {
                1
            } else {
                let mean = (profile.mean_trip * (0.5 + rng.f64())).max(1.0);
                rng.geometric(1.0 / mean, 4096) as u32
            };
            blocks.push(Block {
                id,
                body,
                branch_pc,
                // Indirect control flow (calls through tables, virtual
                // dispatch) is a decision, not a loop back edge: placing an
                // indirect exit on a loop block would make its target
                // alternate self/successor every visit, which no predictor
                // of this class could learn. The share is scaled up because
                // only decision blocks are eligible.
                indirect_exit: base_trip == 1 && rng.chance((indirect_share * 5.0).min(0.8)),
                base_trip,
                succ: [s0, s1],
                succ_bias: if chaotic {
                    0.35 + 0.3 * rng.f64() // ≈ coin flip: unpredictable
                } else {
                    0.9 + 0.08 * rng.f64() // strongly biased: predictable
                },
                chaotic,
            });
        }

        Program {
            blocks,
            profile: profile.clone(),
        }
    }

    fn pick_mem_pattern(profile: &TraceProfile, rng: &mut Prng) -> MemPattern {
        if rng.chance(profile.hot_frac) {
            MemPattern::Hot
        } else if rng.chance(profile.stride_frac) {
            let stride = if rng.chance(profile.stride_line_frac) {
                64
            } else {
                [8u64, 16][rng.below(2) as usize]
            };
            MemPattern::Stride {
                region: rng.below(NUM_STREAM_REGIONS as u64) as u8,
                stride,
            }
        } else {
            MemPattern::Cold
        }
    }

    /// Size of each shared stream region: larger than the L1 (so line-
    /// granular walks keep missing it) and scaled with the footprint so
    /// memory-bounded programs stream through more than the L2 holds.
    pub fn stream_region_size(&self) -> u64 {
        (self.profile.footprint / 8).clamp(64 << 10, 16 << 20)
    }

    /// Base address of stream region `idx`.
    pub fn stream_base(&self, idx: u8) -> u64 {
        DATA_BASE + self.profile.hot_bytes + idx as u64 * self.stream_region_size()
    }

    /// Address ranges a checkpoint-style cache warm-up should preload:
    /// the hot region (L1-resident) plus every stream region. The caller
    /// clamps to its cache capacities.
    pub fn warm_ranges(&self) -> Vec<(u64, u64)> {
        let mut v = vec![(self.hot_base(), self.profile.hot_bytes)];
        for r in 0..NUM_STREAM_REGIONS {
            v.push((self.stream_base(r as u8), self.stream_region_size()));
        }
        v
    }

    /// Base address of the hot region.
    pub fn hot_base(&self) -> u64 {
        DATA_BASE
    }

    /// Base address of the cold region (everything after the hot bytes).
    pub fn cold_base(&self) -> u64 {
        DATA_BASE + self.profile.hot_bytes
    }

    /// Total dynamic uops per average block iteration (body + branch).
    pub fn mean_block_uops(&self) -> f64 {
        let total: usize = self.blocks.iter().map(|b| b.body.len() + 1).sum();
        total as f64 / self.blocks.len() as f64
    }

    /// Total static uops — the code footprint the trace cache sees.
    pub fn static_uops(&self) -> usize {
        self.blocks.iter().map(|b| b.body.len() + 1).sum()
    }

    /// Cheap structural identity of this program: FNV-1a over every
    /// block's branch PC and body length, then the total template count.
    /// A [`crate::TraceCursor`] records it so a cursor is only resumed on
    /// the program that produced it.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut templates = 0u64;
        for b in &self.blocks {
            eat(b.branch_pc);
            eat(b.body.len() as u64);
            templates += b.body.len() as u64;
        }
        eat(templates);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::category_base;

    #[test]
    fn synthesis_is_deterministic() {
        let p = category_base("ISPEC00");
        let a = Program::synthesize(&p, 42);
        let b = Program::synthesize(&p, 42);
        assert_eq!(a, b);
        let c = Program::synthesize(&p, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn fingerprint_is_stable_and_tells_programs_apart() {
        let p = category_base("server");
        let a = Program::synthesize(&p, 42);
        assert_eq!(a.fingerprint(), Program::synthesize(&p, 42).fingerprint());
        assert_ne!(a.fingerprint(), Program::synthesize(&p, 43).fingerprint());
        let mut shorter = a.clone();
        shorter.blocks[0].body.pop();
        assert_ne!(a.fingerprint(), shorter.fingerprint());
    }

    #[test]
    fn block_count_matches_profile() {
        let p = category_base("office");
        let prog = Program::synthesize(&p, 1);
        assert_eq!(prog.blocks.len(), p.static_blocks);
    }

    #[test]
    fn no_self_successors() {
        let p = category_base("server");
        let prog = Program::synthesize(&p, 7);
        for b in &prog.blocks {
            assert_ne!(b.succ[0], b.id, "block {} self-succ", b.id);
            assert_ne!(b.succ[1], b.id, "block {} self-succ", b.id);
            assert!((b.succ[0] as usize) < prog.blocks.len());
            assert!((b.succ[1] as usize) < prog.blocks.len());
        }
    }

    #[test]
    fn pcs_are_unique_and_word_aligned() {
        let p = category_base("DH");
        let prog = Program::synthesize(&p, 3);
        let mut pcs: Vec<u64> = prog
            .blocks
            .iter()
            .flat_map(|b| {
                b.body
                    .iter()
                    .map(|t| t.pc)
                    .chain(std::iter::once(b.branch_pc))
            })
            .collect();
        let len = pcs.len();
        pcs.sort_unstable();
        pcs.dedup();
        assert_eq!(pcs.len(), len, "duplicate PCs");
        assert!(pcs.iter().all(|pc| pc % 4 == 0));
    }

    #[test]
    fn templates_are_internally_consistent() {
        for cat in ["ISPEC00", "FSPEC00", "server", "multimedia"] {
            let p = category_base(cat);
            let prog = Program::synthesize(&p, 11);
            for b in &prog.blocks {
                for t in &b.body {
                    assert_eq!(t.class.is_mem(), t.mem.is_some(), "{cat}: mem mismatch");
                    assert!(!t.class.is_branch(), "{cat}: branch in body");
                    if t.class == OpClass::Store {
                        assert!(t.dest.is_none(), "{cat}: store with dest");
                    }
                    if let Some((r, RegClass::Int)) = t.dest {
                        assert!((r.idx()) < p.int_reg_span, "{cat}: int reg beyond span");
                    }
                    if let Some((r, RegClass::FpSimd)) = t.dest {
                        assert!((r.idx()) < p.fp_reg_span, "{cat}: fp reg beyond span");
                    }
                }
                assert!(b.base_trip >= 1);
                assert!((0.0..=1.0).contains(&b.succ_bias));
                if b.chaotic {
                    assert_eq!(b.base_trip, 1, "chaotic blocks must not loop");
                }
            }
        }
    }

    #[test]
    fn mean_body_length_tracks_mix() {
        // ISPEC00 is branchy (≈18% branches) → short blocks; FSPEC00 has few
        // branches → long blocks.
        let ispec = Program::synthesize(&category_base("ISPEC00"), 5);
        let fspec = Program::synthesize(&category_base("FSPEC00"), 5);
        assert!(
            fspec.mean_block_uops() > ispec.mean_block_uops() + 2.0,
            "fspec {} vs ispec {}",
            fspec.mean_block_uops(),
            ispec.mean_block_uops()
        );
    }

    #[test]
    fn ispec_code_footprint_exceeds_dh() {
        let ispec = Program::synthesize(&category_base("ISPEC00"), 5);
        let dh = Program::synthesize(&category_base("DH"), 5);
        assert!(ispec.static_uops() > dh.static_uops());
    }
}
