//! Component loops: nanoseconds per operation of the parts the cycle loop
//! is built from, each timed as the median of a few repetitions after one
//! untimed warm-up repetition.

use csmt_backend::IssueQueue;
use csmt_frontend::Gshare;
use csmt_mem::{MemHierarchy, Mob, SetAssocCache};
use csmt_trace::profile::{category_base, TraceClass};
use csmt_trace::ThreadTrace;
use csmt_types::{MachineConfig, Prng, ThreadId};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const OPS: u64 = 200_000;

/// Median ns per operation of `body`, which returns the operations it did.
fn ns_per_op(mut body: impl FnMut() -> u64) -> f64 {
    body();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let ops = body();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::metrics::median(&samples)
}

pub fn readings() -> Vec<(String, f64)> {
    let profile = category_base("ISPEC00").variant(TraceClass::Ilp);
    let mut trace = ThreadTrace::from_profile(&profile, 1);
    let gen_uop = ns_per_op(|| {
        for _ in 0..OPS {
            black_box(trace.next_uop());
        }
        OPS
    });

    let mut cache = SetAssocCache::new(32 * 1024, 2, 64);
    let mut rng = Prng::new(7);
    let l1 = ns_per_op(|| {
        for _ in 0..OPS {
            black_box(cache.access(rng.below(1 << 20)));
        }
        OPS
    });

    let mut mem = MemHierarchy::new(&MachineConfig::baseline());
    let mut rng = Prng::new(9);
    let mut now = 0u64;
    let hierarchy = ns_per_op(|| {
        for _ in 0..OPS {
            now += 1;
            black_box(mem.load(now, rng.below(8 << 20)));
        }
        OPS
    });

    // One op: allocate an entry, set its address, then check the load or
    // mark the store's data ready; every entry is released after 64.
    let mob = ns_per_op(|| {
        let mut ops = 0;
        for _ in 0..OPS / 64 {
            let mut mob = Mob::new(128);
            let mut handles = Vec::with_capacity(64);
            for s in 0..64u64 {
                let is_store = s % 3 == 0;
                let h = mob.alloc(ThreadId(0), is_store, s).expect("MOB has room");
                mob.set_addr(h, s * 8, 8);
                if is_store {
                    mob.set_store_data_ready(h);
                } else {
                    black_box(mob.check_load(h));
                }
                handles.push(h);
            }
            for h in handles {
                mob.release(h);
            }
            ops += 64;
        }
        ops
    });

    let mut gshare = Gshare::new(32 * 1024);
    let mut rng = Prng::new(11);
    let gshare_update = ns_per_op(|| {
        for i in 0..OPS {
            black_box(gshare.update(ThreadId(0), i * 4, rng.chance(0.7)));
        }
        OPS
    });

    // One op: one insert into a 32-entry queue kept full, plus its share of
    // the select scans; each entry becomes ready after 0 to 7 scans.
    let mut iq = IssueQueue::new(32);
    let mut rng = Prng::new(13);
    let mut id = 0u32;
    let iq_scan = ns_per_op(|| {
        let mut ops = 0;
        while ops < OPS {
            while !iq.is_full() {
                iq.insert_with_meta(id, ThreadId((id & 1) as u8), rng.below(8));
                id = id.wrapping_add(1);
                ops += 1;
            }
            black_box(iq.scan_issue(|_, wait| {
                if *wait == 0 {
                    true
                } else {
                    *wait -= 1;
                    false
                }
            }));
        }
        ops
    });

    [
        ("trace.gen_uop_ns", gen_uop),
        ("mem.l1_access_ns", l1),
        ("mem.hierarchy_load_ns", hierarchy),
        ("mem.mob_op_ns", mob),
        ("frontend.gshare_update_ns", gshare_update),
        ("backend.iq_scan_ns", iq_scan),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}
