//! The dynamic trace generator: walks a [`Program`] and emits an infinite,
//! deterministic micro-op stream, plus a decorrelated wrong-path source used
//! by the pipeline after a branch misprediction (the paper's traces *"hold
//! enough information to faithfully simulate wrong path execution"*, §4.1).

use crate::profile::TraceProfile;
use crate::program::{MemPattern, Program, UopTemplate, NUM_STREAM_REGIONS};
use csmt_types::uop::RegOperand;
use csmt_types::{LogReg, MicroOp, OpClass, Prng, RegClass, NUM_LOG_REGS};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many recent producers the dependency model remembers per class.
const RECENT_WINDOW: usize = 32;

/// Longest cold burst, in accesses (bursts walk 4–16 words of a line).
const MAX_COLD_BURST: u8 = 16;

/// Blocks with a base trip count above this behave as loops (the exit
/// branch is a back edge); at 1 they are decision blocks (the exit branch
/// direction selects the successor).
const LOOP_TRIP_THRESHOLD: u32 = 1;

/// Correct-path trace generator for one thread.
///
/// The stream is infinite — the simulator decides how many uops to commit.
/// Determinism: two `ThreadTrace`s built from the same `(program, seed)`
/// yield identical streams.
pub struct ThreadTrace {
    program: Arc<Program>,
    rng_ctl: Prng,
    rng_dep: Prng,
    rng_mem: Prng,
    /// Current block index.
    cur: usize,
    /// Remaining repetitions of the current block after this pass.
    trips_left: u64,
    /// Position within the current block body (== len means at the branch).
    pos: usize,
    /// Shared per-region stream cursors, in bytes. All static instructions
    /// walking a region advance the same cursor — the program streams
    /// through a handful of arrays.
    stream_pos: [u64; NUM_STREAM_REGIONS],
    /// Per-template cold-burst state: (current line base, accesses left).
    /// Cold misses walk a few consecutive words of a random line, giving
    /// the spatial locality real memory-bound code has — without it every
    /// cold access is a fresh L2 miss and miss rates become absurd.
    cold_state: Vec<(u64, u8)>,
    /// Flattened index of the first template of each block.
    block_base: Vec<u32>,
    /// Recently produced registers per class, most recent first.
    recent: [VecDeque<LogReg>; 2],
    emitted: u64,
}

/// Flattened index of each block's first template, and the template count.
fn block_bases(program: &Program) -> (Vec<u32>, usize) {
    let mut bases = Vec::with_capacity(program.blocks.len());
    let mut acc = 0u32;
    for b in &program.blocks {
        bases.push(acc);
        acc += b.body.len() as u32;
    }
    (bases, acc as usize)
}

/// A [`ThreadTrace`]'s position in its stream: everything the generator
/// carries except the program it walks. Capturing it costs a few hundred
/// bytes, and resuming from it ([`ThreadTrace::resume`]) replaces
/// regenerating the whole prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCursor {
    /// [`Program::fingerprint`] of the program this cursor walks.
    pub program: u64,
    /// The three PRNG states: control flow, dependencies, addresses.
    pub rng_ctl: [u64; 4],
    pub rng_dep: [u64; 4],
    pub rng_mem: [u64; 4],
    /// Current block, remaining self-loop trips, and position in the
    /// block body (`pos == body.len()` means the exit branch is next).
    pub block: u32,
    pub trips_left: u64,
    pub pos: u32,
    /// Byte offset of each shared stream region's walk.
    pub stream_pos: [u64; NUM_STREAM_REGIONS],
    /// In-flight cold bursts only, as `(template, line, accesses left)`
    /// with the template's flattened index; every other template is idle.
    pub cold: Vec<(u32, u64, u8)>,
    /// Recent producers per register class (int, fp), most recent first.
    pub recent: [Vec<u8>; 2],
    /// Correct-path uops emitted before this position.
    pub emitted: u64,
}

/// Why a [`TraceCursor`] cannot be resumed on a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorError {
    /// The cursor was taken on a different program.
    ProgramMismatch { cursor: u64, program: u64 },
    /// A field is outside what the program (or the generator) allows.
    OutOfRange { field: &'static str, value: u64 },
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CursorError::ProgramMismatch { cursor, program } => write!(
                f,
                "trace cursor taken on program {cursor:016x}, resumed on {program:016x}"
            ),
            CursorError::OutOfRange { field, value } => {
                write!(f, "trace cursor field {field} out of range: {value}")
            }
        }
    }
}

impl std::error::Error for CursorError {}

impl ThreadTrace {
    /// Build a generator for `profile`, synthesizing the static program from
    /// the same seed.
    pub fn from_profile(profile: &TraceProfile, seed: u64) -> Self {
        Self::new(Program::synthesize(profile, seed), seed)
    }

    /// Build a generator walking an existing program.
    pub fn new(program: impl Into<Arc<Program>>, seed: u64) -> Self {
        let program = program.into();
        let (block_base, templates) = block_bases(&program);
        let mut rng_ctl = Prng::derive(seed, 0xC011);
        let start = rng_ctl.below(program.blocks.len() as u64) as usize;
        let mut s = ThreadTrace {
            stream_pos: [0; NUM_STREAM_REGIONS],
            cold_state: vec![(0, 0); templates],
            block_base,
            program,
            rng_ctl,
            rng_dep: Prng::derive(seed, 0xDE65),
            rng_mem: Prng::derive(seed, 0x3E33),
            cur: start,
            trips_left: 0,
            pos: 0,
            recent: [VecDeque::new(), VecDeque::new()],
            emitted: 0,
        };
        s.enter_block(start);
        s
    }

    /// Resume a generator from a [`TraceCursor`] taken on `program`: the
    /// next uop is the one the captured generator would have emitted
    /// next. The cursor is checked against the program (fingerprint) and
    /// every field that indexes program state is range-checked, so a
    /// corrupt or foreign cursor is an `Err`, never a panic.
    pub fn resume(program: Arc<Program>, cursor: &TraceCursor) -> Result<Self, CursorError> {
        let fingerprint = program.fingerprint();
        if cursor.program != fingerprint {
            return Err(CursorError::ProgramMismatch {
                cursor: cursor.program,
                program: fingerprint,
            });
        }
        let bad = |field: &'static str, value: u64| CursorError::OutOfRange { field, value };
        let rng = |field: &'static str, s: [u64; 4]| Prng::from_state(s).ok_or(bad(field, 0));
        let block = program
            .blocks
            .get(cursor.block as usize)
            .ok_or_else(|| bad("block", cursor.block as u64))?;
        if cursor.pos as usize > block.body.len() {
            return Err(bad("pos", cursor.pos as u64));
        }
        if let Some(&pos) = cursor
            .stream_pos
            .iter()
            .find(|&&pos| pos >= program.stream_region_size())
        {
            return Err(bad("stream_pos", pos));
        }
        let (block_base, templates) = block_bases(&program);
        let mut cold_state = vec![(0, 0); templates];
        let cold_lo = program.cold_base();
        let cold_hi = cold_lo + program.profile.footprint.max(64);
        for &(tmpl, line, left) in &cursor.cold {
            let slot = cold_state
                .get_mut(tmpl as usize)
                .ok_or_else(|| bad("cold.template", tmpl as u64))?;
            if !(cold_lo..cold_hi).contains(&line) {
                return Err(bad("cold.line", line));
            }
            if !(1..=MAX_COLD_BURST).contains(&left) {
                return Err(bad("cold.left", left as u64));
            }
            *slot = (line, left);
        }
        let recent = |field: &'static str, regs: &[u8]| {
            if regs.len() > RECENT_WINDOW {
                return Err(bad(field, regs.len() as u64));
            }
            match regs.iter().find(|&&r| r as usize >= NUM_LOG_REGS) {
                Some(&r) => Err(bad(field, r as u64)),
                None => Ok(regs.iter().map(|&r| LogReg(r)).collect::<VecDeque<_>>()),
            }
        };
        Ok(ThreadTrace {
            rng_ctl: rng("rng_ctl", cursor.rng_ctl)?,
            rng_dep: rng("rng_dep", cursor.rng_dep)?,
            rng_mem: rng("rng_mem", cursor.rng_mem)?,
            cur: cursor.block as usize,
            trips_left: cursor.trips_left,
            pos: cursor.pos as usize,
            stream_pos: cursor.stream_pos,
            cold_state,
            block_base,
            recent: [
                recent("recent_int", &cursor.recent[0])?,
                recent("recent_fp", &cursor.recent[1])?,
            ],
            emitted: cursor.emitted,
            program,
        })
    }

    /// Snapshot the generator position: resuming the snapshot with
    /// [`ThreadTrace::resume`] on the same program continues this stream
    /// exactly.
    pub fn cursor(&self) -> TraceCursor {
        TraceCursor {
            program: self.program.fingerprint(),
            rng_ctl: self.rng_ctl.state(),
            rng_dep: self.rng_dep.state(),
            rng_mem: self.rng_mem.state(),
            block: self.cur as u32,
            trips_left: self.trips_left,
            pos: self.pos as u32,
            stream_pos: self.stream_pos,
            cold: self
                .cold_state
                .iter()
                .enumerate()
                .filter(|(_, &(_, left))| left > 0)
                .map(|(i, &(line, left))| (i as u32, line, left))
                .collect(),
            recent: self
                .recent
                .each_ref()
                .map(|q| q.iter().map(|r| r.0).collect()),
            emitted: self.emitted,
        }
    }

    /// The profile the underlying program was synthesized from.
    pub fn profile(&self) -> &TraceProfile {
        &self.program.profile
    }

    /// The static program this generator walks.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Total correct-path uops emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn enter_block(&mut self, id: usize) {
        self.cur = id;
        self.pos = 0;
        let b = &self.program.blocks[id];
        self.trips_left = if b.base_trip > LOOP_TRIP_THRESHOLD {
            // Stable base trip count with small per-visit jitter: mostly
            // learnable loop exits, occasional genuine surprise.
            let base = b.base_trip as u64;
            let jitter = match self.rng_ctl.below(32) {
                0 => -1i64,
                1 => 1,
                _ => 0,
            };
            (base as i64 + jitter).max(1) as u64 - 1
        } else {
            0
        };
    }

    /// Emit the next correct-path micro-op.
    pub fn next_uop(&mut self) -> MicroOp {
        let block = &self.program.blocks[self.cur];
        self.emitted += 1;
        if self.pos < block.body.len() {
            let tmpl_idx = self.block_base[self.cur] as usize + self.pos;
            let tmpl = block.body[self.pos];
            self.pos += 1;
            self.emit_from_template(&tmpl, tmpl_idx, block.id)
        } else {
            // Exit branch of the block.
            self.emit_branch(self.cur)
        }
    }

    fn emit_branch(&mut self, cur: usize) -> MicroOp {
        let b = &self.program.blocks[cur];
        let (block_id, branch_pc, indirect_exit, base_trip, succ, succ_bias) = (
            b.id,
            b.branch_pc,
            b.indirect_exit,
            b.base_trip,
            b.succ,
            b.succ_bias,
        );
        let looping = self.trips_left > 0;
        let is_loop_block = base_trip > LOOP_TRIP_THRESHOLD;
        let (taken, next_block): (bool, u32) = if looping {
            self.trips_left -= 1;
            (true, block_id)
        } else {
            let s = if self.rng_ctl.chance(succ_bias) {
                succ[0]
            } else {
                succ[1]
            };
            // For loop blocks the exit is the not-taken direction of the
            // back edge; for decision blocks the direction encodes the
            // successor choice.
            let taken = if is_loop_block { false } else { s == succ[0] };
            (taken, s)
        };
        let class = if indirect_exit {
            OpClass::BranchIndirect
        } else {
            OpClass::Branch
        };
        let src = self.pick_src(RegClass::Int);
        let u = MicroOp {
            pc: branch_pc,
            class,
            dest: None,
            srcs: [src, None],
            mem: None,
            branch: Some(csmt_types::BranchInfo {
                taken,
                target: next_block,
            }),
            code_block: block_id,
            is_mrom: false,
        };
        if next_block == block_id {
            self.pos = 0; // repeat body
        } else {
            self.enter_block(next_block as usize);
        }
        u
    }

    fn emit_from_template(&mut self, t: &UopTemplate, tmpl_idx: usize, block_id: u32) -> MicroOp {
        let mem = t.mem.map(|pat| {
            let (addr, size) = self.gen_addr(pat, tmpl_idx);
            csmt_types::MemInfo { addr, size }
        });
        let srcs = self.gen_srcs(t.class);
        let u = MicroOp {
            pc: t.pc,
            class: t.class,
            dest: t.dest.map(|(reg, class)| RegOperand { reg, class }),
            srcs,
            mem,
            branch: None,
            code_block: block_id,
            is_mrom: t.is_mrom,
        };
        if let Some((reg, class)) = t.dest {
            let q = &mut self.recent[class.idx()];
            // Move-to-front with dedup: renaming resolves a logical register
            // to its *newest* definition, so distance is only meaningful
            // over distinct registers ordered by last definition.
            if let Some(pos) = q.iter().position(|&r| r == reg) {
                q.remove(pos);
            }
            q.push_front(reg);
            if q.len() > RECENT_WINDOW {
                q.pop_back();
            }
        }
        u
    }

    fn gen_addr(&mut self, pat: MemPattern, tmpl_idx: usize) -> (u64, u8) {
        let p = &self.program.profile;
        let size = if self.rng_mem.chance(0.5) { 8 } else { 4 };
        let addr = match pat {
            MemPattern::Hot => {
                (self.program.hot_base() + self.rng_mem.below(p.hot_bytes.max(size))) & !(size - 1)
            }
            MemPattern::Stride { region, stride } => {
                let size = self.program.stream_region_size().max(stride);
                let pos = self.stream_pos[region as usize];
                self.stream_pos[region as usize] = (pos + stride) % size;
                self.program.stream_base(region) + pos
            }
            MemPattern::Cold => {
                if self.cold_state[tmpl_idx].1 == 0 {
                    // New burst: a random line in the footprint, walked for
                    // 4–16 consecutive 8-byte words.
                    let line =
                        (self.program.cold_base() + self.rng_mem.below(p.footprint.max(64))) & !63;
                    let len = 4 + self.rng_mem.below(13) as u8;
                    self.cold_state[tmpl_idx] = (line, len);
                }
                let (line, left) = self.cold_state[tmpl_idx];
                self.cold_state[tmpl_idx].1 = left - 1;
                // Offset advances as the burst drains (≤ 120 bytes, so a
                // burst touches at most two cache lines).
                line + (MAX_COLD_BURST as u64 - left as u64).min(15) * 8
            }
        };
        (addr, size as u8)
    }

    fn gen_srcs(&mut self, class: OpClass) -> [Option<RegOperand>; 2] {
        match class {
            OpClass::Int | OpClass::IntMul => [
                self.pick_src(RegClass::Int),
                self.pick_src2(RegClass::Int, true),
            ],
            OpClass::FpSimd | OpClass::FpDiv => [
                self.pick_src(RegClass::FpSimd),
                self.pick_src2(RegClass::FpSimd, true),
            ],
            // Loads read a base address register.
            OpClass::Load => [self.pick_src(RegClass::Int), None],
            // Stores read an address register and a data register.
            OpClass::Store => {
                let data_class = if self.rng_dep.chance(self.program.profile.fp_dest_share()) {
                    RegClass::FpSimd
                } else {
                    RegClass::Int
                };
                [self.pick_src(RegClass::Int), self.pick_src(data_class)]
            }
            OpClass::Branch | OpClass::BranchIndirect => [self.pick_src(RegClass::Int), None],
            OpClass::Copy => [None, None],
        }
    }

    /// Pick a source register of `class`: a loop-invariant global with
    /// probability `global_src_frac`, otherwise the d-th most recent
    /// producer where d = `dep_min` − 1 + a geometric draw with parameter
    /// `dep_tightness`. The second operand of an instruction is widened
    /// further (globals more likely, distance doubled): real code chains
    /// one operand deep and keeps the other shallow (`acc += a[i] * b[i]`).
    fn pick_src2(&mut self, class: RegClass, second: bool) -> Option<RegOperand> {
        let p = &self.program.profile;
        let q = &self.recent[class.idx()];
        let global_p = if second {
            (p.global_src_frac * 2.0).min(0.8)
        } else {
            p.global_src_frac
        };
        if q.is_empty() || self.rng_dep.chance(global_p) {
            // Global: register 0 of the class (periodically rewritten like a
            // stack pointer / loop bound — close enough to invariant).
            return Some(RegOperand {
                reg: LogReg(0),
                class,
            });
        }
        let tight = if second {
            (p.dep_tightness * 0.5).max(0.02)
        } else {
            p.dep_tightness.max(0.02)
        };
        let d = p.dep_min - 1 + self.rng_dep.geometric(tight, q.len() as u64) as usize - 1;
        Some(RegOperand {
            reg: q[d.min(q.len() - 1)],
            class,
        })
    }

    fn pick_src(&mut self, class: RegClass) -> Option<RegOperand> {
        self.pick_src2(class, false)
    }
}

/// Wrong-path micro-op source.
///
/// After a mispredicted branch the front-end keeps fetching down the wrong
/// path; those uops allocate real resources until the squash. The wrong
/// path is *plausible garbage*: same instruction mix as the thread's
/// profile, distinct PC range, random operands and cache-polluting
/// addresses within the same footprint.
pub struct WrongPathSource {
    mix: [f64; 8],
    footprint: u64,
    hot_bytes: u64,
    int_span: u64,
    fp_span: u64,
    rng: Prng,
    next_pc: u64,
}

/// Wrong-path PCs live far away from correct-path code.
const WRONG_PATH_PC_BASE: u64 = 0x8000_0000;

impl WrongPathSource {
    pub fn new(profile: &TraceProfile, seed: u64) -> Self {
        WrongPathSource {
            mix: *profile.mix_weights(),
            footprint: profile.footprint,
            hot_bytes: profile.hot_bytes,
            int_span: profile.int_reg_span as u64,
            fp_span: profile.fp_reg_span as u64,
            rng: Prng::derive(seed, 0xDEAD),
            next_pc: WRONG_PATH_PC_BASE,
        }
    }

    /// Emit one wrong-path uop.
    pub fn next_uop(&mut self) -> MicroOp {
        let pc = self.next_pc;
        self.next_pc = WRONG_PATH_PC_BASE + ((self.next_pc + 4) & 0xF_FFFF);
        let class = match self.rng.weighted(&self.mix) {
            0 => OpClass::Int,
            1 => OpClass::IntMul,
            2 => OpClass::FpSimd,
            3 => OpClass::FpDiv,
            4 => OpClass::Load,
            5 => OpClass::Store,
            // Wrong-path branches are never resolved as mispredictions —
            // emit them as plain int ops so control stays linear until the
            // squash.
            _ => OpClass::Int,
        };
        let int_reg = |rng: &mut Prng, span: u64| RegOperand {
            reg: LogReg(rng.below(span) as u8),
            class: RegClass::Int,
        };
        let fp_reg = |rng: &mut Prng, span: u64| RegOperand {
            reg: LogReg(rng.below(span) as u8),
            class: RegClass::FpSimd,
        };
        let (dest, srcs): (Option<RegOperand>, [Option<RegOperand>; 2]) = match class {
            OpClass::FpSimd | OpClass::FpDiv => (
                Some(fp_reg(&mut self.rng, self.fp_span)),
                [
                    Some(fp_reg(&mut self.rng, self.fp_span)),
                    Some(fp_reg(&mut self.rng, self.fp_span)),
                ],
            ),
            OpClass::Load => (
                Some(int_reg(&mut self.rng, self.int_span)),
                [Some(int_reg(&mut self.rng, self.int_span)), None],
            ),
            OpClass::Store => (
                None,
                [
                    Some(int_reg(&mut self.rng, self.int_span)),
                    Some(int_reg(&mut self.rng, self.int_span)),
                ],
            ),
            _ => (
                Some(int_reg(&mut self.rng, self.int_span)),
                [
                    Some(int_reg(&mut self.rng, self.int_span)),
                    Some(int_reg(&mut self.rng, self.int_span)),
                ],
            ),
        };
        let mem = if class.is_mem() {
            // Wrong paths run the same code on stale inputs: their accesses
            // have roughly the correct path's locality, not uniform noise —
            // otherwise wrong-path pollution wrecks the L1 unrealistically.
            let addr = if self.rng.chance(0.9) {
                0x1000_0000 + self.rng.below(self.hot_bytes.max(8))
            } else {
                0x1000_0000 + self.hot_bytes + self.rng.below(self.footprint.max(8))
            };
            Some(csmt_types::MemInfo { addr, size: 8 })
        } else {
            None
        };
        MicroOp {
            pc,
            class,
            dest,
            srcs,
            mem,
            branch: None,
            code_block: u32::MAX, // distinct wrong-path code region
            is_mrom: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{category_base, TraceClass};

    fn sample(cat: &str, class: TraceClass, seed: u64, n: usize) -> Vec<MicroOp> {
        let p = category_base(cat).variant(class);
        let mut t = ThreadTrace::from_profile(&p, seed);
        (0..n).map(|_| t.next_uop()).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let a = sample("ISPEC00", TraceClass::Ilp, 9, 5000);
        let b = sample("ISPEC00", TraceClass::Ilp, 9, 5000);
        assert_eq!(a, b);
        let c = sample("ISPEC00", TraceClass::Ilp, 10, 5000);
        assert_ne!(a, c);
    }

    #[test]
    fn all_uops_validate() {
        for cat in ["DH", "ISPEC00", "FSPEC00", "server", "office"] {
            for class in [TraceClass::Ilp, TraceClass::Mem] {
                for u in sample(cat, class, 3, 3000) {
                    u.validate().unwrap_or_else(|e| panic!("{cat}: {e}"));
                }
            }
        }
    }

    #[test]
    fn mix_is_respected() {
        let uops = sample("ISPEC00", TraceClass::Ilp, 1, 50_000);
        let n = uops.len() as f64;
        let frac = |pred: fn(&MicroOp) -> bool| uops.iter().filter(|u| pred(u)).count() as f64 / n;
        let loads = frac(|u| u.class == OpClass::Load);
        let branches = frac(|u| u.class.is_branch());
        let fp = frac(|u| matches!(u.class, OpClass::FpSimd | OpClass::FpDiv));
        // ISPEC00: ~24% loads, ~18% branches, ~1% fp.
        assert!((0.15..0.35).contains(&loads), "loads={loads}");
        assert!((0.08..0.30).contains(&branches), "branches={branches}");
        assert!(fp < 0.05, "fp={fp}");
    }

    #[test]
    fn fspec_is_fp_heavy() {
        let uops = sample("FSPEC00", TraceClass::Ilp, 1, 50_000);
        let fp = uops
            .iter()
            .filter(|u| matches!(u.class, OpClass::FpSimd | OpClass::FpDiv))
            .count() as f64
            / uops.len() as f64;
        assert!(fp > 0.25, "fp={fp}");
    }

    #[test]
    fn branch_targets_reference_real_blocks() {
        let p = category_base("office");
        let prog = Program::synthesize(&p, 2);
        let nblocks = prog.blocks.len() as u32;
        let mut t = ThreadTrace::new(prog, 2);
        for _ in 0..20_000 {
            let u = t.next_uop();
            if let Some(b) = u.branch {
                assert!(b.target < nblocks);
            }
        }
    }

    #[test]
    fn loops_actually_loop() {
        // In an ILP profile with long trip counts, most branch executions
        // are taken back edges.
        let uops = sample("FSPEC00", TraceClass::Ilp, 4, 50_000);
        let (taken, total) = uops
            .iter()
            .filter_map(|u| u.branch)
            .fold((0u32, 0u32), |(t, n), b| (t + b.taken as u32, n + 1));
        let ratio = taken as f64 / total as f64;
        assert!(ratio > 0.6, "taken ratio={ratio}");
    }

    #[test]
    fn mem_variant_spreads_addresses() {
        let dispersion = |uops: &[MicroOp]| {
            let addrs: Vec<u64> = uops.iter().filter_map(|u| u.mem.map(|m| m.addr)).collect();
            let min = *addrs.iter().min().unwrap();
            let max = *addrs.iter().max().unwrap();
            max - min
        };
        let ilp = sample("server", TraceClass::Ilp, 5, 30_000);
        let mem = sample("server", TraceClass::Mem, 5, 30_000);
        assert!(dispersion(&mem) > dispersion(&ilp) * 4);
    }

    #[test]
    fn sources_reference_written_registers() {
        // After warm-up, sources must be registers that appear as dests in
        // the profile's spans (plus the global reg 0).
        let p = category_base("ISPEC00");
        let mut t = ThreadTrace::from_profile(&p, 8);
        for _ in 0..10_000 {
            let u = t.next_uop();
            for s in u.srcs.into_iter().flatten() {
                let span = match s.class {
                    RegClass::Int => p.int_reg_span,
                    RegClass::FpSimd => p.fp_reg_span,
                };
                assert!(s.reg.idx() < span.max(1), "src {:?} beyond span", s);
            }
        }
    }

    #[test]
    fn wrong_path_is_deterministic_and_valid() {
        let p = category_base("server");
        let mut a = WrongPathSource::new(&p, 7);
        let mut b = WrongPathSource::new(&p, 7);
        for _ in 0..2000 {
            let ua = a.next_uop();
            let ub = b.next_uop();
            assert_eq!(ua, ub);
            ua.validate().unwrap();
            assert!(!ua.class.is_branch(), "wrong path must not branch");
            assert!(ua.pc >= WRONG_PATH_PC_BASE);
            assert_eq!(ua.code_block, u32::MAX);
        }
    }

    /// Generator after `n` uops of a straight walk.
    fn walked(program: &Arc<Program>, seed: u64, n: u64) -> ThreadTrace {
        let mut t = ThreadTrace::new(program.clone(), seed);
        for _ in 0..n {
            t.next_uop();
        }
        t
    }

    #[test]
    fn resumed_cursor_matches_a_straight_generator() {
        // A MIX pairing: one ILP and one MEM thread, so cold bursts are in
        // flight at most offsets of the second.
        let w = crate::suite()
            .into_iter()
            .find(|w| w.name == "server/mix.2.1")
            .unwrap();
        for (thread, spec) in w.traces.iter().enumerate() {
            let program = Arc::new(Program::synthesize(&spec.profile, spec.seed));
            // Offsets: the start, the first mid-block position, the first
            // position inside a cold burst, several 4,096-uop stream
            // chunks in, and past 100,000.
            let mut offsets = vec![0, 3 * 4096 + 321, 100_003];
            let mut t = ThreadTrace::new(program.clone(), spec.seed);
            let (mut mid_block, mut in_burst) = (None, None);
            while mid_block.is_none() || (in_burst.is_none() && t.emitted() < 50_000) {
                let len = t.program.blocks[t.cur].body.len();
                if mid_block.is_none() && t.pos > 0 && t.pos < len {
                    mid_block = Some(t.emitted());
                }
                if in_burst.is_none() && t.cold_state.iter().any(|&(_, left)| left > 0) {
                    in_burst = Some(t.emitted());
                }
                t.next_uop();
            }
            offsets.extend(mid_block);
            offsets.extend(in_burst);
            if thread == 1 {
                assert!(in_burst.is_some(), "{}: no cold burst", spec.profile.name);
            }
            for n in offsets {
                let cursor = walked(&program, spec.seed, n).cursor();
                assert_eq!(cursor.emitted, n);
                let json = serde_json::to_string(&cursor).unwrap();
                let back: TraceCursor = serde_json::from_str(&json).unwrap();
                assert_eq!(back, cursor, "cursor JSON round trip at {n}");
                let mut resumed = ThreadTrace::resume(program.clone(), &back).unwrap();
                assert_eq!(resumed.cursor(), cursor, "resume/cursor round trip at {n}");
                let mut straight = walked(&program, spec.seed, n);
                for i in 0..5_000 {
                    assert_eq!(
                        resumed.next_uop(),
                        straight.next_uop(),
                        "{}: uop {i} after resuming at {n}",
                        spec.profile.name
                    );
                }
            }
        }
    }

    #[test]
    fn resume_rejects_foreign_and_out_of_range_cursors() {
        let w = crate::suite()
            .into_iter()
            .find(|w| w.name == "server/mix.2.1")
            .unwrap();
        let spec = &w.traces[1]; // the MEM thread
        let program = Arc::new(Program::synthesize(&spec.profile, spec.seed));
        let good = walked(&program, spec.seed, 20_000).cursor();
        assert!(
            !good.cold.is_empty(),
            "fixture needs a cold burst in flight"
        );
        let resume = |edit: &dyn Fn(&mut TraceCursor)| {
            let mut c = good.clone();
            edit(&mut c);
            ThreadTrace::resume(program.clone(), &c).map(|_| ())
        };
        assert_eq!(resume(&|_| {}), Ok(()));

        let other = Arc::new(Program::synthesize(&spec.profile, spec.seed + 1));
        assert!(matches!(
            ThreadTrace::resume(other, &good).map(|_| ()),
            Err(CursorError::ProgramMismatch { .. })
        ));
        let blocks = program.blocks.len() as u32;
        let field = |r: Result<(), CursorError>| match r {
            Err(CursorError::OutOfRange { field, .. }) => field,
            other => panic!("expected an out-of-range error, got {other:?}"),
        };
        assert_eq!(field(resume(&|c| c.block = blocks)), "block");
        assert_eq!(field(resume(&|c| c.block = u32::MAX)), "block");
        assert_eq!(field(resume(&|c| c.pos = u32::MAX)), "pos");
        assert_eq!(field(resume(&|c| c.cold[0].0 = u32::MAX)), "cold.template");
        assert_eq!(field(resume(&|c| c.cold[0].1 = u64::MAX)), "cold.line");
        assert_eq!(field(resume(&|c| c.cold[0].2 = 0)), "cold.left");
        assert_eq!(field(resume(&|c| c.cold[0].2 = 17)), "cold.left");
        assert_eq!(field(resume(&|c| c.stream_pos[3] = u64::MAX)), "stream_pos");
        assert_eq!(field(resume(&|c| c.rng_mem = [0; 4])), "rng_mem");
        assert_eq!(
            field(resume(&|c| c.recent[0] = vec![1; RECENT_WINDOW + 1])),
            "recent_int"
        );
        assert_eq!(field(resume(&|c| c.recent[1] = vec![200])), "recent_fp");
    }

    #[test]
    fn emitted_counter_advances() {
        let p = category_base("DH");
        let mut t = ThreadTrace::from_profile(&p, 1);
        assert_eq!(t.emitted(), 0);
        for _ in 0..100 {
            t.next_uop();
        }
        assert_eq!(t.emitted(), 100);
    }
}
