//! Seeded inputs of the four workloads.
//!
//! The benchmark seed is the only source of variation. It re-derives every
//! trace seed of the Table-2 suite (`splitmix64(spec.seed ^ seed)`) and
//! drives every choice: which pairings the serve clients ask about and in
//! what order. How much work a pass does is fixed, so that throughput
//! compares across seeds. The programs under test only ever see the
//! generated `Workload`s and `JobSpec`s.

use csmt_experiments::figures::fig2;
use csmt_experiments::runner::{CfgKind, ExpOptions};
use csmt_experiments::JobSpec;
use csmt_trace::suite::{suite, Workload};
use csmt_types::{RegFileSchemeKind, SampleSpec, SchemeKind};

/// Cycle cap of every run; far above what any workload reaches.
pub const MAX_CYCLES: u64 = 10_000_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Fig2Short,
    LoopLong,
    SampleLong,
    ServeWarm,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Fig2Short,
        WorkloadId::LoopLong,
        WorkloadId::SampleLong,
        WorkloadId::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Fig2Short => "fig2-short",
            WorkloadId::LoopLong => "loop-long",
            WorkloadId::SampleLong => "sample-long",
            WorkloadId::ServeWarm => "serve-warm",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: one avalanche step of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream. `stream` separates the choices one seed drives,
/// so adding a choice never shifts another.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed) ^ splitmix64(stream.wrapping_mul(0x2545_F491_4F6C_DD1D)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Shuffle `items` in place (Fisher-Yates).
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `n` distinct items chosen by `rng`, kept in their original order.
fn choose<T: Clone>(items: &[T], n: usize, rng: &mut Rng) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    shuffle(&mut idx, rng);
    let mut picked = idx[..n].to_vec();
    picked.sort_unstable();
    picked.into_iter().map(|i| items[i].clone()).collect()
}

/// The suite positions `i` with `i % period` in `phases`: a fixed subset
/// spread evenly over every category and kind, so the work of a pass
/// does not depend on which pairings a seed would pick.
fn spread<T: Clone>(items: &[T], period: usize, phases: &[usize]) -> Vec<T> {
    items
        .iter()
        .enumerate()
        .filter(|(i, _)| phases.contains(&(i % period)))
        .map(|(_, w)| w.clone())
        .collect()
}

/// The Table-2 suite with every trace seed re-derived from `seed`.
pub fn reseeded_suite(seed: u64) -> Vec<Workload> {
    suite()
        .into_iter()
        .map(|mut w| {
            for t in &mut w.traces {
                t.seed = splitmix64(t.seed ^ seed);
            }
            w
        })
        .collect()
}

/// One configuration point of a sweep.
pub type Point = (SchemeKind, RegFileSchemeKind, CfgKind);

/// One point per scheme-hook family: occupancy-free issue, a static IQ
/// cap, the CDPRF per-cycle hook, and the counter-adaptive pair with its
/// perf counters armed.
pub const LONG_POINTS: [Point; 4] = [
    (
        SchemeKind::Icount,
        RegFileSchemeKind::Shared,
        CfgKind::IqStudy { iq: 32 },
    ),
    (
        SchemeKind::Cssp,
        RegFileSchemeKind::Shared,
        CfgKind::IqStudy { iq: 32 },
    ),
    (
        SchemeKind::Cssp,
        RegFileSchemeKind::Cdprf,
        CfgKind::RfStudy { regs: 64 },
    ),
    (
        SchemeKind::Caiq,
        RegFileSchemeKind::Carf,
        CfgKind::RfStudy { regs: 96 },
    ),
];

/// Sampling plan of `sample-long`.
pub const LONG_SAMPLE: SampleSpec = SampleSpec {
    intervals: 8,
    warmup: 200,
    detail: 800,
};

/// What one pass of a sweep workload runs.
pub struct SweepPlan {
    pub opts: ExpOptions,
    pub workloads: Vec<Workload>,
    pub points: Vec<Point>,
    /// Whether each pass writes through a fresh persistent store.
    pub store: bool,
}

impl SweepPlan {
    pub fn runs(&self) -> usize {
        self.workloads.len() * self.points.len()
    }

    /// Every (workload, point) in batch order: the order `Sweeps` runs
    /// them in with one worker, and the order the digest covers.
    pub fn grid(&self) -> impl Iterator<Item = (&Workload, Point)> + '_ {
        self.workloads
            .iter()
            .flat_map(|w| self.points.iter().map(move |&p| (w, p)))
    }
}

/// The sweep plan of `w` (`None` for `serve-warm`), run on `jobs` workers.
pub fn sweep_plan(w: WorkloadId, seed: u64, jobs: usize) -> Option<SweepPlan> {
    let all = reseeded_suite(seed);
    let opts = ExpOptions {
        commit_target: 0,
        warmup: 0,
        max_cycles: MAX_CYCLES,
        jobs,
        verbose: false,
        validate: false,
        batch: false,
        sample: None,
    };
    Some(match w {
        WorkloadId::Fig2Short => SweepPlan {
            opts: ExpOptions {
                commit_target: 400,
                warmup: 100,
                ..opts
            },
            workloads: all,
            points: fig2::combos()
                .into_iter()
                .map(|(s, iq)| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq }))
                .collect(),
            store: true,
        },
        WorkloadId::LoopLong => SweepPlan {
            opts: ExpOptions {
                commit_target: 20_000,
                warmup: 2_000,
                batch: true,
                ..opts
            },
            workloads: spread(&all, 5, &[0, 3]),
            points: LONG_POINTS.to_vec(),
            store: false,
        },
        WorkloadId::SampleLong => SweepPlan {
            opts: ExpOptions {
                commit_target: 500_000,
                batch: true,
                sample: Some(LONG_SAMPLE),
                ..opts
            },
            workloads: spread(&all, 10, &[4]),
            points: LONG_POINTS.to_vec(),
            store: true,
        },
        WorkloadId::ServeWarm => return None,
    })
}

/// Client connections of `serve-warm`, each a closed loop with no think
/// time.
pub const SERVE_CONNECTIONS: usize = 2;
/// Requests per connection per pass.
pub const SERVE_REQUESTS: usize = 400;
/// Suite pairings the `detail:` requests draw from.
pub const SERVE_PAIRINGS: usize = 60;
const SERVE_TARGETS: [u64; 2] = [400, 800];
const SERVE_WARMUP: u64 = 100;

/// The job spec of one serve request.
pub fn serve_spec(artifact: String, target: u64) -> JobSpec {
    JobSpec {
        artifacts: vec![artifact],
        target,
        warmup: SERVE_WARMUP,
        max_cycles: MAX_CYCLES,
        batch: false,
        sample: None,
    }
}

/// The request sequence of each `serve-warm` connection, shuffled by the
/// seed: 10% `fig2` at target 400, and 90% `detail:<w>` over the seeded
/// pairings, half at target 400 and half at 800. The mix is exact, so the
/// work of a pass does not depend on the seed.
pub fn serve_plan(seed: u64) -> Vec<Vec<JobSpec>> {
    let names: Vec<String> = suite().into_iter().map(|w| w.name).collect();
    let pairings = choose(&names, SERVE_PAIRINGS, &mut Rng::new(seed, 3));
    let mut rng = Rng::new(seed, 4);
    (0..SERVE_CONNECTIONS)
        .map(|_| {
            let fig2 = SERVE_REQUESTS / 10;
            let mut specs: Vec<JobSpec> = (0..SERVE_REQUESTS)
                .map(|i| {
                    if i < fig2 {
                        serve_spec("fig2".to_string(), 400)
                    } else {
                        let w = &pairings[rng.below(pairings.len())];
                        serve_spec(format!("detail:{w}"), SERVE_TARGETS[i % 2])
                    }
                })
                .collect();
            shuffle(&mut specs, &mut rng);
            specs
        })
        .collect()
}

/// Run results one serve request's table is built from.
pub fn runs_behind(spec: &JobSpec) -> u64 {
    if spec.artifacts[0] == "fig2" {
        (suite().len() * fig2::combos().len()) as u64
    } else {
        SchemeKind::all().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds_of(plan: &SweepPlan) -> Vec<u64> {
        plan.workloads
            .iter()
            .flat_map(|w| w.traces.iter().map(|t| t.seed))
            .collect()
    }

    #[test]
    fn one_seed_gives_the_same_inputs() {
        for w in WorkloadId::ALL {
            match (sweep_plan(w, 7, 2), sweep_plan(w, 7, 2)) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.workloads, b.workloads, "{}", w.name());
                    assert_eq!(a.points, b.points);
                    assert_eq!(a.opts, b.opts);
                }
                (None, None) => assert_eq!(serve_plan(7), serve_plan(7)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in [
            WorkloadId::Fig2Short,
            WorkloadId::LoopLong,
            WorkloadId::SampleLong,
        ] {
            let a = sweep_plan(w, 1, 2).unwrap();
            let b = sweep_plan(w, 2, 2).unwrap();
            assert_eq!(a.runs(), b.runs(), "size does not depend on the seed");
            assert_ne!(seeds_of(&a), seeds_of(&b), "{}", w.name());
        }
        assert_ne!(serve_plan(1), serve_plan(2));
    }

    #[test]
    fn long_workloads_run_fixed_pairings() {
        let a = sweep_plan(WorkloadId::LoopLong, 3, 2).unwrap();
        let b = sweep_plan(WorkloadId::LoopLong, 4, 2).unwrap();
        let names = |p: &SweepPlan| {
            p.workloads
                .iter()
                .map(|w| w.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b), "the seed re-seeds traces only");
        assert_eq!(a.runs(), 48 * 4);
        assert_eq!(
            sweep_plan(WorkloadId::SampleLong, 3, 2).unwrap().runs(),
            12 * 4
        );
    }

    #[test]
    fn serve_requests_are_valid_and_mostly_detail() {
        let plan = serve_plan(5);
        assert_eq!(plan.len(), SERVE_CONNECTIONS);
        let all: Vec<&JobSpec> = plan.iter().flatten().collect();
        assert_eq!(all.len(), SERVE_CONNECTIONS * SERVE_REQUESTS);
        for spec in &all {
            spec.validate().expect("every generated spec is valid");
        }
        let fig2 = all.iter().filter(|s| s.artifacts[0] == "fig2").count();
        assert_eq!(fig2, all.len() / 10);
        let at_800 = all.iter().filter(|s| s.target == 800).count();
        assert_eq!(at_800, (all.len() - fig2) / 2);
        assert_eq!(runs_behind(&serve_spec("fig2".into(), 400)), 1680);
    }
}
