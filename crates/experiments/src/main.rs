//! Command-line driver: regenerate any table or figure of the paper.
//!
//! ```text
//! csmt-experiments <artifact>... [--target N] [--jobs N] [--batch] [--csv DIR]
//!                                [--sample intervals=N,warmup=W,detail=D]
//!                                [--quiet] [--store DIR | --no-store] [--resume]
//!                                [--bars]
//! csmt-experiments all [--target N]
//! csmt-experiments compare <a.json> <b.json> [tolerance]
//! csmt-experiments fuzz [--seeds N] [--seed S] [--jobs N] [--batch]
//!                       [--no-validate] [--out DIR] [--repro FILE]
//! ```
//!
//! Results persist in a content-addressed store (`results/store` by
//! default): a second run of the same artifacts serves every simulation
//! from disk. `--resume` additionally skips artifacts a killed previous
//! run had already completed, using the store's JSONL journal.

use csmt_experiments::client;
use csmt_experiments::figures::{run_named_all, ABLATIONS, ALL_ARTIFACTS};
use csmt_experiments::fuzz::{self, FuzzCase, FuzzOptions};
use csmt_experiments::report::render_store_summary;
use csmt_experiments::runner::{ExpOptions, Sweeps};
use csmt_experiments::spec::JobSpec;
use csmt_store::{EventKind, Journal};
use csmt_types::SampleSpec;

/// Default persistent store location (relative to the working directory).
const DEFAULT_STORE_DIR: &str = "results/store";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    artifacts: Vec<String>,
    opts: ExpOptions,
    csv_dir: Option<String>,
    bars: bool,
    store_dir: Option<String>,
    no_store: bool,
    resume: bool,
}

fn usage() -> String {
    format!(
        "usage: csmt-experiments <artifact>... [options]\n\
         \n\
         artifacts: {}\n\
         \x20          ablations  {}  detail:<workload-name>\n\
         \n\
         options:\n\
         \x20 --target N     committed uops per thread per run (positive integer)\n\
         \x20 --warmup N     warm-up uops per thread before measuring (default: 10000)\n\
         \x20 --jobs N       sweep worker threads, N >= 1 (default: min(cores, 8);\n\
         \x20                --jobs 1 runs serially; results are bit-identical for any N)\n\
         \x20 --batch        decode each distinct trace once and share the stream across\n\
         \x20                all config points (bit-identical results, faster sweeps)\n\
         \x20 --sample SPEC  sampled simulation: SPEC is intervals=N,warmup=W,detail=D.\n\
         \x20                Fast-forwards (via cached checkpoints) to N evenly spaced\n\
         \x20                commit offsets across --target and measures a detailed\n\
         \x20                W-warmup + D-commit window at each; figures report the\n\
         \x20                pooled estimate plus a <name>-ci table of 95% CI half-widths\n\
         \x20 --csv DIR      also write <artifact>.csv and .json under DIR\n\
         \x20 --bars         render ASCII bar charts per column\n\
         \x20 --quiet        no progress dots\n\
         \x20 --store DIR    persistent result store (default: {DEFAULT_STORE_DIR})\n\
         \x20 --no-store     disable the persistent store and journal\n\
         \x20 --resume       skip artifacts completed by an interrupted previous run\n\
         \x20 --validate     arm the invariant suite + differential oracle on every run\n\
         \x20                (read-only checks; implies --no-store)\n\
         \n\
         csmt-experiments compare <a.json> <b.json> [tolerance]  (artifact drift check)\n\
         csmt-experiments fuzz [--seeds N] [--seed S] [--jobs N] [--batch] [--no-validate] [--out DIR] [--repro FILE]\n\
         \x20                                                       (randomized scheme fuzzing; shrunk repros)\n\
         csmt-experiments client (--socket PATH | --connect HOST:PORT) <artifact>... [--target N]\n\
         \x20                      [--warmup N] [--batch] [--csv DIR] [--bars] [--quiet]\n\
         \x20                                                       (submit to a running csmt-serve daemon)",
        ALL_ARTIFACTS.join(" "),
        ABLATIONS.join(" "),
    )
}

/// Parse a flag's value as a positive integer (`>= 1`). The one parser
/// behind every count-valued flag (`--target`, `--jobs`, `--seeds`, ...)
/// so they all reject zero, negatives and junk with the same message.
fn positive_int(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} needs a positive integer, got '{v}'"))
}

/// [`positive_int`] for subcommands that exit on bad flags.
fn positive_int_or_die(flag: &str, value: Option<&String>) -> u64 {
    positive_int(flag, value).unwrap_or_else(|e| fail(&e))
}

/// Parse and validate arguments. Errors are user-facing messages.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        artifacts: Vec::new(),
        opts: ExpOptions::default(),
        csv_dir: None,
        bars: false,
        store_dir: None,
        no_store: false,
        resume: false,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--target" => {
                cli.opts.commit_target = positive_int("--target", it.next())?;
            }
            "--warmup" => {
                let v = it.next().ok_or("--warmup needs a value")?;
                cli.opts.warmup = v
                    .parse::<u64>()
                    .map_err(|_| format!("--warmup needs a non-negative integer, got '{v}'"))?;
            }
            "--jobs" => {
                cli.opts.jobs = positive_int("--jobs", it.next())? as usize;
            }
            "--workers" => {
                return Err("--workers was removed; use --jobs N".into());
            }
            "--batch" => cli.opts.batch = true,
            "--sample" => {
                let v = it
                    .next()
                    .ok_or("--sample needs intervals=N,warmup=W,detail=D")?;
                cli.opts.sample = Some(SampleSpec::parse(v)?);
            }
            "--csv" => {
                cli.csv_dir = Some(it.next().ok_or("--csv needs a directory")?.clone());
            }
            "--store" => {
                cli.store_dir = Some(it.next().ok_or("--store needs a directory")?.clone());
            }
            "--no-store" => cli.no_store = true,
            "--resume" => cli.resume = true,
            "--validate" => cli.opts.validate = true,
            "--quiet" => cli.opts.verbose = false,
            "--bars" => cli.bars = true,
            "all" => cli
                .artifacts
                .extend(ALL_ARTIFACTS.iter().map(|s| s.to_string())),
            "ablations" => cli
                .artifacts
                .extend(ABLATIONS.iter().map(|s| s.to_string())),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            other => cli.artifacts.push(other.to_string()),
        }
    }
    if cli.no_store && cli.store_dir.is_some() {
        return Err("--no-store and --store are mutually exclusive".into());
    }
    if cli.no_store && cli.resume {
        return Err("--resume needs the store's journal; drop --no-store".into());
    }
    if cli.opts.validate {
        // Validated runs can panic on a violation; a retried/failed
        // placeholder must never be memoized as a real result, so the
        // persistent store is off for them.
        if cli.store_dir.is_some() || cli.resume {
            return Err(
                "--validate implies --no-store (incompatible with --store/--resume)".into(),
            );
        }
        cli.no_store = true;
    }
    // Validate artifact names up front so a typo fails before hours of
    // simulation, not after.
    for name in &cli.artifacts {
        let known = ALL_ARTIFACTS.contains(&name.as_str())
            || ABLATIONS.contains(&name.as_str())
            || name.starts_with("detail:")
            || name == "compare";
        if !known {
            return Err(format!("unknown artifact: {name}"));
        }
    }
    if cli.artifacts.is_empty() {
        return Err("no artifact named".into());
    }
    Ok(cli)
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `compare` is a standalone subcommand: no simulation, no store.
    if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..]);
        return;
    }
    // `fuzz` is a standalone subcommand: randomized invariant fuzzing.
    if args.first().map(String::as_str) == Some("fuzz") {
        fuzz_cmd(&args[1..]);
        return;
    }
    // `client` talks to a running csmt-serve daemon instead of
    // simulating locally.
    if args.first().map(String::as_str) == Some("client") {
        client_cmd(&args[1..]);
        return;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => fail(&e),
    };

    let sweeps = if cli.no_store {
        Sweeps::new(cli.opts)
    } else {
        let dir = cli.store_dir.as_deref().unwrap_or(DEFAULT_STORE_DIR);
        match Sweeps::with_store(cli.opts, dir) {
            Ok(s) => s,
            Err(e) => fail(&format!("cannot open store at {dir}: {e}")),
        }
    };

    // Resume: skip artifacts a previous, interrupted run already finished.
    let mut skip: Vec<String> = Vec::new();
    if cli.resume {
        if let Some(journal) = sweeps.journal() {
            if let Some(done) = Journal::resumable_artifacts(journal.path()) {
                skip = done;
            }
        }
        if skip.is_empty() {
            eprintln!("resume: no interrupted run found; running everything");
        }
    }

    if let Some(journal) = sweeps.journal() {
        journal.log(EventKind::RunStart {
            artifacts: cli.artifacts.clone(),
        });
    }

    let mut completed = 0usize;
    for name in &cli.artifacts {
        if skip.contains(name) {
            eprintln!("resume: skipping {name} (completed by the interrupted run)");
            continue;
        }
        if let Some(journal) = sweeps.journal() {
            journal.log(EventKind::ArtifactStart {
                artifact: name.clone(),
            });
        }
        let Some(tables) = run_named_all(name, &sweeps) else {
            // Unknown names are rejected in parse_args; this covers a
            // `detail:` target that names no suite workload.
            fail(&format!("unknown artifact: {name}"));
        };
        for (tname, table) in &tables {
            println!("{}", table.render());
            if cli.bars {
                println!("{}", table.render_all_bars());
            }
            if let Some(dir) = &cli.csv_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    fail(&format!("cannot create csv dir {dir}: {e}"));
                }
                let path = format!("{dir}/{tname}.csv");
                let jpath = format!("{dir}/{tname}.json");
                if let Err(e) = std::fs::write(&path, table.to_csv())
                    .and_then(|_| std::fs::write(&jpath, table.to_json()))
                {
                    fail(&format!("cannot write artifact files: {e}"));
                }
                eprintln!("wrote {path} and {jpath}");
            }
        }
        if let Some(journal) = sweeps.journal() {
            journal.log(EventKind::ArtifactEnd {
                artifact: name.clone(),
            });
        }
        completed += 1;
    }

    if let Some(journal) = sweeps.journal() {
        journal.log(EventKind::RunEnd {
            artifacts: completed,
        });
    }
    eprint!("{}", render_store_summary(&sweeps.counters()));
}

/// `fuzz [--seeds N] [--seed S] [--jobs N] [--batch] [--no-validate]
/// [--out DIR] [--repro FILE]`: run a seeded corpus of random config ×
/// scheme × trace cases with the invariant suite and differential oracle
/// armed. `--batch` feeds every case through the shared-stream front end.
/// Failing cases are shrunk and written as replayable JSON repros under
/// `--out` (default `results/fuzz`). Exit 0 clean, 1 on failures. Output
/// and artifacts are byte-identical at any `--jobs` count.
fn fuzz_cmd(args: &[String]) {
    let mut opts = FuzzOptions::default();
    let mut out_dir = "results/fuzz".to_string();
    let mut repro: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => opts.seeds = positive_int_or_die("--seeds", it.next()) as usize,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| fail("--seed needs a value"));
                let parsed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| v.parse::<u64>());
                match parsed {
                    Ok(s) => opts.master = s,
                    Err(_) => fail(&format!(
                        "--seed needs an integer (decimal or 0x hex), got '{v}'"
                    )),
                }
            }
            "--jobs" => opts.jobs = positive_int_or_die("--jobs", it.next()) as usize,
            // Validation defaults ON for fuzzing (that is the point of
            // the harness); accept the explicit form too.
            "--validate" => opts.validate = true,
            "--no-validate" => opts.validate = false,
            "--batch" => opts.batch = true,
            "--out" => match it.next() {
                Some(v) => out_dir = v.clone(),
                None => fail("--out needs a directory"),
            },
            "--repro" => match it.next() {
                Some(v) => repro = Some(v.clone()),
                None => fail("--repro needs a JSON case file"),
            },
            other => fail(&format!("unknown fuzz flag: {other}")),
        }
    }

    // Replay a single shrunk case from disk.
    if let Some(path) = repro {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let case: FuzzCase = serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
        println!("repro {}", fuzz::describe(&case));
        match fuzz::run_case_in(&case, opts.validate, opts.batch) {
            Ok(()) => println!("PASS: case no longer fails"),
            Err(e) => {
                println!("FAIL: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "fuzz: {} cases, master seed 0x{:016x}, validators {}, {} front end",
        opts.seeds,
        opts.master,
        if opts.validate { "armed" } else { "off" },
        if opts.batch { "batched" } else { "direct" }
    );
    let report = fuzz::fuzz(&opts);
    if report.failures.is_empty() {
        println!("ok: {} cases, no failures", report.cases);
        return;
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        fail(&format!("cannot create {out_dir}: {e}"));
    }
    let mut lines = String::new();
    for (case, msg) in &report.failures {
        let path = format!(
            "{out_dir}/case-{:016x}-{}.json",
            case.master_seed, case.index
        );
        let json = serde_json::to_string_pretty(case).expect("fuzz case serializes");
        if let Err(e) = std::fs::write(&path, json + "\n") {
            fail(&format!("cannot write {path}: {e}"));
        }
        let line = format!(
            "FAIL {}\n  {msg}\n  repro: fuzz --repro {path}",
            fuzz::describe(case)
        );
        println!("{line}");
        lines.push_str(&line);
        lines.push('\n');
    }
    let summary = format!("{out_dir}/failures.txt");
    if let Err(e) = std::fs::write(&summary, &lines) {
        fail(&format!("cannot write {summary}: {e}"));
    }
    println!(
        "{} of {} cases failed; shrunk repros under {out_dir}/",
        report.failures.len(),
        report.cases
    );
    std::process::exit(1);
}

/// `client (--socket PATH | --connect HOST:PORT) <artifact>...
/// [--target N] [--warmup N] [--batch] [--csv DIR] [--bars] [--quiet]`:
/// submit the artifacts to a running `csmt-serve` daemon, stream its
/// events, and render the tables byte-identically to the batch path.
/// Exit 0 on success, 3 on backpressure (retry later), 1 otherwise.
fn client_cmd(args: &[String]) {
    let mut socket: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut artifacts: Vec<String> = Vec::new();
    let mut opts = ExpOptions::default();
    let mut csv_dir: Option<String> = None;
    let mut bars = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(v) => socket = Some(v.clone()),
                None => fail("--socket needs a path"),
            },
            "--connect" => match it.next() {
                Some(v) => connect = Some(v.clone()),
                None => fail("--connect needs HOST:PORT"),
            },
            "--target" => opts.commit_target = positive_int_or_die("--target", it.next()),
            "--warmup" => {
                let v = it.next().unwrap_or_else(|| fail("--warmup needs a value"));
                opts.warmup = v.parse::<u64>().unwrap_or_else(|_| {
                    fail(&format!("--warmup needs a non-negative integer, got '{v}'"))
                });
            }
            "--batch" => opts.batch = true,
            "--sample" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--sample needs intervals=N,warmup=W,detail=D"));
                opts.sample = Some(SampleSpec::parse(v).unwrap_or_else(|e| fail(&e)));
            }
            "--csv" => match it.next() {
                Some(v) => csv_dir = Some(v.clone()),
                None => fail("--csv needs a directory"),
            },
            "--bars" => bars = true,
            "--quiet" => quiet = true,
            "all" => artifacts.extend(ALL_ARTIFACTS.iter().map(|s| s.to_string())),
            "ablations" => artifacts.extend(ABLATIONS.iter().map(|s| s.to_string())),
            other if other.starts_with("--") => fail(&format!("unknown client flag: {other}")),
            other => artifacts.push(other.to_string()),
        }
    }
    let endpoint = match (socket, connect) {
        (Some(path), None) => client::Endpoint::Unix(path.into()),
        (None, Some(addr)) => client::Endpoint::Tcp(addr),
        (Some(_), Some(_)) => fail("--socket and --connect are mutually exclusive"),
        (None, None) => fail("client needs --socket PATH or --connect HOST:PORT"),
    };
    let spec = JobSpec::new(artifacts, &opts);
    if let Err(e) = spec.validate() {
        fail(&e);
    }
    let cfg = client::ClientConfig {
        spec,
        csv_dir,
        bars,
        quiet,
    };
    match client::run(&endpoint, &cfg) {
        Ok(outcome) => std::process::exit(outcome.exit_code()),
        Err(e) => {
            eprintln!("client error: {e}");
            std::process::exit(1);
        }
    }
}

/// `compare <a.json> <b.json> [tolerance]`: artifact drift check.
fn compare(args: &[String]) {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        fail("compare needs two JSON table files");
    };
    let tol: f64 = match args.get(2) {
        None => 0.05,
        Some(t) => match t.parse() {
            Ok(tol) => tol,
            Err(_) => fail(&format!("tolerance must be a number, got '{t}'")),
        },
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        csmt_experiments::report::Table::from_json(&text)
            .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
    };
    let ta = read(a);
    let tb = read(b);
    let (diff, violations) = ta.diff(&tb, tol);
    println!("{}", diff.render());
    if violations.is_empty() {
        println!("OK: no cell drifted more than {:.1}%", tol * 100.0);
        return;
    }
    println!(
        "{} cells drifted beyond {:.1}%:",
        violations.len(),
        tol * 100.0
    );
    for v in &violations {
        println!("  {v}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn rejects_zero_jobs() {
        let e = parse(&["fig2", "--jobs", "0"]).unwrap_err();
        assert!(e.contains("--jobs"), "{e}");
    }

    #[test]
    fn removed_workers_alias_is_a_hard_error() {
        // Whatever follows the flag — even a valid count — the answer is
        // the same pointer at --jobs.
        for args in [
            &["fig2", "--workers", "4"][..],
            &["fig2", "--workers", "0"],
            &["fig2", "--workers"],
        ] {
            let e = parse(args).unwrap_err();
            assert!(e.contains("removed"), "{e}");
            assert!(e.contains("--jobs"), "{e}");
        }
    }

    #[test]
    fn jobs_flag_sets_the_worker_count() {
        assert_eq!(parse(&["fig2", "--jobs", "4"]).unwrap().opts.jobs, 4);
        assert_eq!(parse(&["fig2", "--jobs", "1"]).unwrap().opts.jobs, 1);
        assert_eq!(
            parse(&["fig2"]).unwrap().opts.jobs,
            0,
            "default resolves to min(cores, 8) in the executor"
        );
        assert!(parse(&["fig2", "--jobs", "two"])
            .unwrap_err()
            .contains("'two'"));
    }

    #[test]
    fn batch_flag_sets_batched_mode() {
        assert!(parse(&["fig2", "--batch"]).unwrap().opts.batch);
        assert!(!parse(&["fig2"]).unwrap().opts.batch);
    }

    #[test]
    fn sample_flag_parses_and_rejects_junk() {
        let cli = parse(&["fig2", "--sample", "intervals=8,warmup=200,detail=800"]).unwrap();
        assert_eq!(
            cli.opts.sample,
            Some(SampleSpec {
                intervals: 8,
                warmup: 200,
                detail: 800
            })
        );
        assert_eq!(parse(&["fig2"]).unwrap().opts.sample, None);
        assert!(parse(&["fig2", "--sample"])
            .unwrap_err()
            .contains("--sample"));
        assert!(parse(&["fig2", "--sample", "intervals=0,warmup=1,detail=1"]).is_err());
        assert!(parse(&["fig2", "--sample", "bogus"]).is_err());
    }

    #[test]
    fn rejects_non_numeric_target_and_jobs() {
        assert!(parse(&["fig2", "--target", "lots"])
            .unwrap_err()
            .contains("'lots'"));
        assert!(parse(&["fig2", "--target", "-5"])
            .unwrap_err()
            .contains("'-5'"));
        assert!(parse(&["fig2", "--target", "0"])
            .unwrap_err()
            .contains("'0'"));
        assert!(parse(&["fig2", "--jobs", "-1"])
            .unwrap_err()
            .contains("'-1'"));
        assert!(parse(&["fig2", "--target"])
            .unwrap_err()
            .contains("--target"));
        assert!(parse(&["fig2", "--warmup", "soon"])
            .unwrap_err()
            .contains("'soon'"));
        assert_eq!(parse(&["fig2", "--warmup", "0"]).unwrap().opts.warmup, 0);
    }

    #[test]
    fn rejects_unknown_artifacts_and_flags() {
        assert!(parse(&["fig99"]).unwrap_err().contains("fig99"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse(&[]).unwrap_err().contains("no artifact"));
    }

    #[test]
    fn store_flag_combinations() {
        assert!(parse(&["fig2", "--no-store", "--store", "/tmp/x"]).is_err());
        assert!(parse(&["fig2", "--no-store", "--resume"]).is_err());
        let cli = parse(&["fig2", "--store", "/tmp/x", "--resume"]).unwrap();
        assert_eq!(cli.store_dir.as_deref(), Some("/tmp/x"));
        assert!(cli.resume);
        let cli = parse(&["fig2"]).unwrap();
        assert!(!cli.no_store && cli.store_dir.is_none());
    }

    #[test]
    fn expands_artifact_groups_and_accepts_valid_flags() {
        let cli = parse(&["all", "--target", "5000", "--jobs", "2", "--quiet"]).unwrap();
        assert_eq!(cli.artifacts.len(), ALL_ARTIFACTS.len());
        assert_eq!(cli.opts.commit_target, 5000);
        assert_eq!(cli.opts.jobs, 2);
        assert!(!cli.opts.verbose);
        let cli = parse(&["ablations", "detail:mixes/mix.2.1"]).unwrap();
        assert_eq!(cli.artifacts.len(), ABLATIONS.len() + 1);
    }

    #[test]
    fn usage_names_every_artifact() {
        let u = usage();
        for a in ALL_ARTIFACTS.iter().chain(ABLATIONS.iter()) {
            assert!(u.contains(a), "usage must list {a}");
        }
        assert!(u.contains("--no-store") && u.contains("--resume"));
    }
}
