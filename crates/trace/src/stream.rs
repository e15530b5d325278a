//! Shared immutable uop streams for batched multi-config sweeps.
//!
//! A sweep varies only back-end resource-assignment parameters over the
//! same trace pairs, yet the per-config simulator re-synthesizes the
//! program and re-generates the uop stream for every config point. The
//! stream is a pure function of `(profile, seed)` (see the crate docs),
//! so all config points sharing a trace can read one decoded stream.
//!
//! [`SharedStream`] owns the generator and publishes the stream as a
//! list of immutable fixed-size chunks; [`StreamReader`] is a per-config
//! cursor over those chunks. Extension is demand-driven: whichever
//! reader first runs off the published tail locks the generator and
//! appends the next chunk. Because generation is deterministic and
//! strictly append-only, the published prefix is identical no matter
//! which readers trigger extension in which order — a reader at
//! position `n` always sees the same uop a private generator would have
//! produced as its `n`-th.
//!
//! ## Packed chunks
//!
//! Most of a [`MicroOp`] is fixed by the static program: the PC, op
//! class, destination, MROM flag and code block all come from the uop's
//! template (or, for the exit branch, from its block). A chunk therefore
//! stores each uop as a 16-byte record instead of the 56-byte `MicroOp`:
//!
//! ```text
//! word   u64    memory address (loads/stores) or branch target (branches)
//! block  u32    block of the uop in the program
//! slot   u8     position in the block body; body.len() is the exit branch
//! srcs   [u8;2] source operands: 0 = none, else 0x80 | class << 6 | reg
//! aux    u8     access size (loads/stores) or taken flag (branches)
//! ```
//!
//! [`StreamReader::next_uop`] rebuilds the identical `MicroOp` from the
//! record and the program's template. The packing is lossless: every
//! field the generator draws at run time (sources, address and size,
//! branch outcome and target) is in the record verbatim.
//!
//! A stream keeps every chunk it has published for as long as it lives.
//! The batched sweep runner therefore holds each stream only while runs
//! of its batch still need it: the cache drops its `Arc` when the last
//! such run finishes (readers still running keep theirs), and a later
//! batch over the same trace decodes it again, to identical bytes. The
//! executor starts runs in batch order, so only the pairings in flight
//! hold streams. On the benchmark's `loop-long` workload (96 streams of
//! ~55k uops, two workers) at most 4 streams are live, each ~0.9 MB of
//! packed chunks where unpacked `MicroOp`s took 3.2 MB, and a pass peaks
//! at 15–19 MB RSS (30–109 MB with 56-byte chunks and workers free to
//! drift apart).
//!
//! Wrong-path injection is *not* shared: it depends on machine state
//! (which branches mispredict, how long recovery takes), so every
//! simulator keeps its private [`crate::WrongPathSource`].

use crate::gen::ThreadTrace;
use crate::profile::TraceProfile;
use crate::program::Program;
use csmt_types::uop::RegOperand;
use csmt_types::{BranchInfo, LogReg, MemInfo, MicroOp, OpClass, RegClass};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Uops per published chunk. Large enough that steady-state reading is
/// a bounds check and an array index; small enough that a short run
/// does not generate far past what it consumes.
const CHUNK: usize = 4096;

/// One correct-path uop as a chunk stores it; see the module docs.
#[derive(Clone, Copy)]
struct Packed {
    word: u64,
    block: u32,
    slot: u8,
    srcs: [u8; 2],
    aux: u8,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 16);
// Registers are below `NUM_LOG_REGS`, so six bits hold them.
const _: () = assert!(csmt_types::NUM_LOG_REGS <= 0x40);

fn pack_src(src: Option<RegOperand>) -> u8 {
    match src {
        None => 0,
        Some(RegOperand { reg, class }) => 0x80 | (class.idx() as u8) << 6 | reg.0,
    }
}

fn unpack_src(b: u8) -> Option<RegOperand> {
    (b & 0x80 != 0).then_some(RegOperand {
        reg: LogReg(b & 0x3f),
        class: if b & 0x40 != 0 {
            RegClass::FpSimd
        } else {
            RegClass::Int
        },
    })
}

impl Packed {
    /// Pack `u`, emitted at `(block, slot)` of its program.
    fn new((block, slot): (usize, usize), u: &MicroOp) -> Packed {
        let (word, aux) = match (u.mem, u.branch) {
            (Some(m), _) => (m.addr, m.size),
            (None, Some(b)) => (b.target as u64, b.taken as u8),
            (None, None) => (0, 0),
        };
        Packed {
            word,
            block: block as u32,
            slot: slot as u8,
            srcs: u.srcs.map(pack_src),
            aux,
        }
    }

    /// The `MicroOp` this record was packed from.
    #[inline]
    fn unpack(self, program: &Program) -> MicroOp {
        let block = &program.blocks[self.block as usize];
        let srcs = self.srcs.map(unpack_src);
        match block.body.get(self.slot as usize) {
            Some(t) => MicroOp {
                pc: t.pc,
                class: t.class,
                dest: t.dest.map(|(reg, class)| RegOperand { reg, class }),
                srcs,
                mem: t.mem.map(|_| MemInfo {
                    addr: self.word,
                    size: self.aux,
                }),
                branch: None,
                code_block: block.id,
                is_mrom: t.is_mrom,
            },
            None => MicroOp {
                pc: block.branch_pc,
                class: if block.indirect_exit {
                    OpClass::BranchIndirect
                } else {
                    OpClass::Branch
                },
                dest: None,
                srcs,
                mem: None,
                branch: Some(BranchInfo {
                    taken: self.aux != 0,
                    target: self.word as u32,
                }),
                code_block: block.id,
                is_mrom: false,
            },
        }
    }
}

type Chunk = Arc<[Packed]>;

/// One thread trace decoded once and shared, read-only, by every
/// simulator in a batch.
pub struct SharedStream {
    /// The synthesized program, shared with the generator (cache warm-up,
    /// architected-state setup and checkpoint restores read it, and
    /// readers rebuild uops from its templates).
    program: Arc<Program>,
    seed: u64,
    /// The generator producing the not-yet-published tail.
    tail: Mutex<ThreadTrace>,
    /// Published prefix, in order. Chunks are append-only and immutable
    /// once pushed.
    chunks: RwLock<Vec<Chunk>>,
}

/// Ignore lock poisoning: a panicking simulator thread (e.g. a failed
/// validator in a fuzz worker) never leaves the stream in a partial
/// state — chunks are pushed fully built — so the data is still good.
fn lock_tail(m: &Mutex<ThreadTrace>) -> MutexGuard<'_, ThreadTrace> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SharedStream {
    /// Decode `(profile, seed)` once. This is the expensive front-end
    /// work a batch amortizes: program synthesis plus stream generation.
    pub fn new(profile: &TraceProfile, seed: u64) -> Self {
        let program = Arc::new(Program::synthesize(profile, seed));
        let fits = |b: &crate::program::Block| b.body.len() <= u8::MAX as usize;
        assert!(
            program.blocks.len() <= u32::MAX as usize && program.blocks.iter().all(fits),
            "the program outgrows the packed block and slot fields"
        );
        SharedStream {
            tail: Mutex::new(ThreadTrace::new(program.clone(), seed)),
            program,
            seed,
            chunks: RwLock::new(Vec::new()),
        }
    }

    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    pub fn profile(&self) -> &TraceProfile {
        &self.program.profile
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of uops published so far (tests / diagnostics).
    pub fn published(&self) -> usize {
        self.chunks.read().unwrap_or_else(|e| e.into_inner()).len() * CHUNK
    }

    /// Chunk `idx`, generating forward as needed.
    fn chunk(&self, idx: usize) -> Chunk {
        if let Some(c) = self
            .chunks
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(idx)
        {
            return c.clone();
        }
        // Extend under the generator lock. Another reader may have
        // published the chunk between our read miss and acquiring the
        // lock, so re-check each iteration.
        let mut tail = lock_tail(&self.tail);
        loop {
            {
                let chunks = self.chunks.read().unwrap_or_else(|e| e.into_inner());
                if let Some(c) = chunks.get(idx) {
                    return c.clone();
                }
            }
            let chunk: Chunk = (0..CHUNK)
                .map(|_| {
                    let site = tail.site();
                    Packed::new(site, &tail.next_uop())
                })
                .collect();
            self.chunks
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .push(chunk);
        }
    }
}

impl std::fmt::Debug for SharedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStream")
            .field("profile", &self.profile().name)
            .field("seed", &self.seed)
            .field("published_uops", &self.published())
            .finish()
    }
}

/// A private cursor over a [`SharedStream`]: one per simulator thread
/// context. Reading is lock-free in the steady state (the current chunk
/// is cached); only crossing into an unpublished chunk takes the
/// stream's locks.
pub struct StreamReader {
    stream: Arc<SharedStream>,
    /// Absolute position in the stream (uops consumed so far).
    pos: usize,
    /// The chunk `pos` was last read from, and its index.
    cur: Chunk,
    cur_idx: usize,
}

impl StreamReader {
    pub fn new(stream: Arc<SharedStream>) -> Self {
        StreamReader {
            stream,
            pos: 0,
            cur: Arc::new([]),
            cur_idx: usize::MAX,
        }
    }

    pub fn profile(&self) -> &TraceProfile {
        self.stream.profile()
    }

    pub fn program(&self) -> &Program {
        self.stream.program()
    }

    /// Next correct-path uop — the exact uop a private
    /// [`ThreadTrace`] built from the same `(profile, seed)` would
    /// produce at this position.
    #[inline]
    pub fn next_uop(&mut self) -> MicroOp {
        let idx = self.pos / CHUNK;
        let off = self.pos % CHUNK;
        if self.cur_idx != idx {
            self.cur = self.stream.chunk(idx);
            self.cur_idx = idx;
        }
        self.pos += 1;
        self.cur[off].unpack(&self.stream.program)
    }
}

impl std::fmt::Debug for StreamReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamReader")
            .field("profile", &self.profile().name)
            .field("pos", &self.pos)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn shared_stream_matches_private_generator() {
        // Every Table-2 trace, across three chunk boundaries.
        for w in suite() {
            for spec in &w.traces {
                let shared = Arc::new(SharedStream::new(&spec.profile, spec.seed));
                let mut private = ThreadTrace::from_profile(&spec.profile, spec.seed);
                let mut reader = StreamReader::new(shared.clone());
                for i in 0..3 * CHUNK + 17 {
                    assert_eq!(
                        reader.next_uop(),
                        private.next_uop(),
                        "divergence at uop {i} of {} in {}",
                        spec.profile.name,
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn interleaved_readers_see_the_same_stream() {
        let w = &suite()[1];
        let spec = &w.traces[0];
        let shared = Arc::new(SharedStream::new(&spec.profile, spec.seed));
        let mut a = StreamReader::new(shared.clone());
        let mut b = StreamReader::new(shared.clone());
        // Reader `a` races ahead (forcing extension), `b` lags; both see
        // the identical prefix.
        let lead: Vec<MicroOp> = (0..CHUNK + 100).map(|_| a.next_uop()).collect();
        let lag: Vec<MicroOp> = (0..CHUNK + 100).map(|_| b.next_uop()).collect();
        assert_eq!(lead, lag);
    }

    #[test]
    fn source_operands_round_trip() {
        let mut all = vec![None];
        for reg in 0..csmt_types::NUM_LOG_REGS as u8 {
            all.push(Some(RegOperand::int(reg)));
            all.push(Some(RegOperand::fp(reg)));
        }
        for src in all {
            assert_eq!(unpack_src(pack_src(src)), src);
        }
    }
}
