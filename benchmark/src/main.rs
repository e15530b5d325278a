//! `csmt-benchmark`: the seeded end-to-end and per-layer benchmark of the
//! simulator, its result store and the sweep service.
//!
//! ```text
//! csmt-benchmark [--workload NAME] [--seed N] [--seconds S] [--traced | --trace 0|1]
//! ```
//!
//! Run it through `benchmark/run.sh` from the repository root, which
//! builds `csmt-serve` and this binary into one target directory first.
//! Without `--workload` every workload runs. The last line of standard
//! output is a JSON summary; the exit code is 1 when a correctness check
//! fails.

mod components;
mod harness;
mod inputs;
mod metrics;
mod pass;
mod serve;
mod spans;
mod sweep;

use inputs::WorkloadId;
use std::path::PathBuf;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 30.0;

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\n\
         usage: csmt-benchmark [--workload NAME] [--seed N] [--seconds S] [--traced | --trace 0|1]\n\
         workloads: fig2-short loop-long sample-long serve-warm"
    );
    std::process::exit(2);
}

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> &'a str {
    it.next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: bad value '{v}'")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut pass_kind: Option<String> = None;
    let mut dir: Option<PathBuf> = None;
    let mut jobs = harness::WORKERS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(flag, &mut it);
                workload = Some(
                    WorkloadId::parse(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => seed = number(flag, value(flag, &mut it)),
            "--seconds" => seconds = number(flag, value(flag, &mut it)),
            "--traced" => traced = true,
            "--trace" => {
                traced = match value(flag, &mut it) {
                    "0" => false,
                    "1" => true,
                    v => usage(&format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            // A pass in a child process, spawned by the harness.
            "--pass" => pass_kind = Some(value(flag, &mut it).to_string()),
            "--dir" => dir = Some(PathBuf::from(value(flag, &mut it))),
            "--jobs" => jobs = number(flag, value(flag, &mut it)),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if let Some(kind) = pass_kind {
        let w = workload.unwrap_or_else(|| usage("--pass needs --workload"));
        let dir = dir.unwrap_or_else(|| usage("--pass needs --dir"));
        child(&kind, w, seed, &dir, jobs);
        return;
    }
    if !std::path::Path::new("benchmark/Cargo.toml").is_file() {
        usage("run from the repository root (benchmark/run.sh does)");
    }
    let opts = harness::Options {
        workloads: workload.map_or(WorkloadId::ALL.to_vec(), |w| vec![w]),
        seed,
        seconds,
        traced,
    };
    std::process::exit(harness::run(&opts));
}

/// One pass, in a child process of the harness.
fn child(kind: &str, w: WorkloadId, seed: u64, dir: &std::path::Path, jobs: usize) {
    let plan = || inputs::sweep_plan(w, seed, jobs).expect("a sweep workload");
    let result = match (kind, w) {
        ("run", WorkloadId::ServeWarm) => serve::pass(dir, seed),
        ("replay", WorkloadId::ServeWarm) => serve::replay(dir, seed),
        ("run", _) => Ok(sweep::pass(&plan(), dir)),
        ("replay", _) => Ok(sweep::replay(&plan(), dir)),
        _ => usage(&format!("unknown pass kind '{kind}'")),
    };
    match result {
        Ok(mut r) => {
            if kind == "replay" {
                r.layer.extend(components::readings());
            }
            println!(
                "{}",
                serde_json::to_string(&r).expect("pass result renders")
            );
        }
        Err(e) => {
            eprintln!("error: {} {kind} pass: {e}", w.name());
            std::process::exit(1);
        }
    }
}
