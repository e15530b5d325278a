//! The harness: runs each workload's passes in fresh child processes,
//! checks their outputs, and reports the metrics.

use crate::inputs::WorkloadId;
use crate::metrics::{self, line, median, obj, percentile, Json, Reading, PER_LAYER};
use crate::pass::PassResult;
use crate::serve;
use serde::Value;
use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Where runs keep their stores and write their results, relative to the
/// repository root.
const OUT_DIR: &str = "benchmark/out";
/// Digests a pinned seed must reproduce.
const EXPECTED: &str = "benchmark/expected.json";
/// Sweep workers and client connections: one per core of the 2-core
/// benchmarking host.
pub const WORKERS: usize = 2;
/// Fewest passes a measurement takes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

pub struct Options {
    pub workloads: Vec<WorkloadId>,
    pub seed: u64,
    /// Measured time per workload, seconds.
    pub seconds: f64,
    pub traced: bool,
}

/// What one workload reported.
struct Report {
    workload: WorkloadId,
    readings: Vec<Reading>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: String,
    /// Traced runs only: self time per span name, and the spans.
    self_ms: Vec<(String, u64, f64)>,
    spans: String,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// A run's working directory under [`OUT_DIR`], removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn new(w: WorkloadId, seed: u64) -> io::Result<RunDir> {
        let dir = Path::new(OUT_DIR).join(format!("{}-{seed}-{}", w.name(), std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    /// A fresh sub-directory for one sweep pass.
    fn sub(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A child process, killed and reaped if dropped while it runs.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Run one pass of `kind` ("run" or "replay") in a fresh child process of
/// this binary. Returns the seconds from spawn until the child finished
/// its set-up, and the child's result.
fn child_pass(
    kind: &str,
    w: WorkloadId,
    seed: u64,
    dir: &Path,
    jobs: usize,
) -> io::Result<(f64, PassResult)> {
    let t0 = Instant::now();
    let mut child = Reaped(
        Command::new(std::env::current_exe()?)
            .args(["--pass", kind, "--workload", w.name()])
            .args(["--seed", &seed.to_string(), "--jobs", &jobs.to_string()])
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?,
    );
    let failed = |what: &str| io::Error::other(format!("{} {kind} pass: {what}", w.name()));
    let mut lines = BufReader::new(child.0.stdout.take().expect("piped stdout")).lines();
    if lines.next().transpose()?.as_deref() != Some("ready") {
        return Err(failed("set-up failed"));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let result = lines
        .next()
        .transpose()?
        .ok_or_else(|| failed("no result"))?;
    let status = child.0.wait()?;
    if !status.success() {
        return Err(failed(&format!("exited with {status}")));
    }
    let result = serde_json::from_str(&result).map_err(|e| failed(&e.to_string()))?;
    Ok((setup_s, result))
}

/// The digest pinned for `w`, when `seed` is the pinned seed.
fn pinned(w: WorkloadId, seed: u64) -> Option<String> {
    let doc = metrics::parse(&fs::read_to_string(EXPECTED).ok()?).ok()?;
    let pinned_seed = match doc.get("seed")? {
        Value::UInt(s) => *s,
        _ => return None,
    };
    if pinned_seed != seed {
        return None;
    }
    doc.get("digests")?
        .get(w.name())?
        .as_str()
        .map(str::to_string)
}

fn check_pinned(report: &mut Report, seed: u64) {
    if let Some(want) = pinned(report.workload, seed) {
        if report.digest != want {
            let got = report.digest.clone();
            report.fail(format!("digest {got} differs from the pinned {want}"));
        }
    }
}

/// The untraced end-to-end measurement of one workload: passes until
/// `seconds` have elapsed (and at least [`MIN_PASSES`]).
fn measure(w: WorkloadId, opts: &Options) -> io::Result<Report> {
    let run_dir = RunDir::new(w, opts.seed)?;
    if w == WorkloadId::ServeWarm {
        let t = Instant::now();
        serve::prefill(opts.seed, &run_dir.0, WORKERS)?;
        println!("# {} pre-fill {:.3} s", w.name(), t.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let mut passes: Vec<(f64, PassResult)> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        let pass = if w == WorkloadId::ServeWarm {
            child_pass("run", w, opts.seed, &run_dir.0, WORKERS)?
        } else {
            let dir = run_dir.sub(&format!("pass-{}", passes.len()))?;
            let pass = child_pass("run", w, opts.seed, &dir, WORKERS)?;
            let _ = fs::remove_dir_all(&dir);
            pass
        };
        println!(
            "# {} pass {} wall {:.4} s, {} runs, {} requests, set-up {:.4} s, peak {:.1} MB",
            w.name(),
            passes.len(),
            pass.1.wall_s,
            pass.1.runs,
            pass.1.lat_ms.len(),
            pass.0,
            pass.1.rss_mb
        );
        passes.push(pass);
    }

    let n = passes.len();
    let per_pass =
        |f: fn(&PassResult) -> f64| median(&passes.iter().map(|(_, p)| f(p)).collect::<Vec<_>>());
    let mut lat: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.lat_ms.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    let setups: Vec<f64> = passes.iter().map(|(s, _)| *s).collect();
    let readings = vec![
        Reading {
            name: "runs_per_s",
            value: per_pass(|p| p.runs as f64 / p.wall_s),
            samples: n,
        },
        Reading {
            name: "req_ms_p50",
            value: percentile(&lat, 5_000),
            samples: lat.len(),
        },
        Reading {
            name: "req_ms_p99",
            value: percentile(&lat, 9_900),
            samples: lat.len(),
        },
        Reading {
            name: "req_per_s",
            value: per_pass(|p| p.lat_ms.len() as f64 / p.wall_s),
            samples: n,
        },
        Reading {
            name: "peak_rss_mb",
            value: per_pass(|p| p.rss_mb),
            samples: n,
        },
        Reading {
            name: "setup_s",
            value: median(&setups),
            samples: n,
        },
    ];
    let tail = metrics::reportable_percentile(lat.len()).map_or("none", |(_, label)| label);
    println!(
        "# {} request latency: {} samples; the highest percentile with 10 beyond is {tail}",
        w.name(),
        lat.len()
    );

    let mut report = Report {
        workload: w,
        readings,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        digest: passes[0].1.digest.clone(),
        self_ms: Vec::new(),
        spans: String::new(),
    };
    for (i, (_, p)) in passes.into_iter().enumerate() {
        report.attempted += if w == WorkloadId::ServeWarm {
            p.lat_ms.len() as u64
        } else {
            p.runs
        };
        report.failed += p.failed;
        report.failures.extend(p.failures);
        if p.digest != report.digest {
            let first = report.digest.clone();
            report.fail(format!(
                "pass {i} digest {} differs from pass 0's {first}",
                p.digest
            ));
        }
    }
    check_pinned(&mut report, opts.seed);
    Ok(report)
}

/// The traced run of one workload: one traced serial re-enactment and,
/// for the sweeps, an untraced serial pass through `Sweeps` before and
/// after it (their mean cancels a linear drift of the host's speed).
fn trace(w: WorkloadId, opts: &Options) -> io::Result<Report> {
    let run_dir = RunDir::new(w, opts.seed)?;
    let serial = |name: &str| -> io::Result<PassResult> {
        let dir = run_dir.sub(name)?;
        let (_, pass) = child_pass("run", w, opts.seed, &dir, 1)?;
        let _ = fs::remove_dir_all(&dir);
        Ok(pass)
    };
    let mut serials = Vec::new();
    let replay = if w == WorkloadId::ServeWarm {
        serve::prefill(opts.seed, &run_dir.0, WORKERS)?;
        child_pass("replay", w, opts.seed, &run_dir.0, 1)?.1
    } else {
        serials.push(serial("serial-0")?);
        let dir = run_dir.sub("replay")?;
        let (_, replay) = child_pass("replay", w, opts.seed, &dir, 1)?;
        serials.push(serial("serial-1")?);
        replay
    };

    let mut layer = replay.layer;
    if !serials.is_empty() {
        // The runner's executor, orchestrator and journal, memo and
        // keying: what the production path spends beyond the calls the
        // re-enactment makes.
        let serial_s = serials.iter().map(|s| s.wall_s).sum::<f64>() / serials.len() as f64;
        layer.push((
            "experiments.runner_self_ms".to_string(),
            (serial_s - replay.wall_s) * 1e3,
        ));
    }
    let readings = PER_LAYER
        .iter()
        .map(|&(name, _)| Reading {
            name,
            value: layer
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v),
            samples: 1,
        })
        .collect();
    let mut report = Report {
        workload: w,
        readings,
        attempted: if w == WorkloadId::ServeWarm {
            replay.lat_ms.len() as u64
        } else {
            replay.runs
        },
        failed: replay.failed,
        failures: replay.failures,
        digest: replay.digest,
        self_ms: replay.self_ms,
        spans: replay.spans,
    };
    for s in serials {
        report.failed += s.failed;
        report.failures.extend(s.failures);
        if s.digest != report.digest {
            let traced = report.digest.clone();
            report.fail(format!(
                "traced digest {traced} differs from the untraced Sweeps digest {}",
                s.digest
            ));
        }
    }
    check_pinned(&mut report, opts.seed);
    Ok(report)
}

fn print_report(r: &Report) {
    let w = r.workload.name();
    for reading in &r.readings {
        println!("{}", line(w, reading));
    }
    for (name, count, ms) in &r.self_ms {
        println!("# {w} span {name} self {ms:.3} ms over {count} spans");
    }
    for f in r.failures.iter().take(20) {
        println!("# {w} failure: {f}");
    }
    let frac = if r.attempted > 0 {
        r.failed as f64 / r.attempted as f64
    } else {
        0.0
    };
    println!(
        "# {w} attempted {} failed {} (failed_frac {frac}) digest {}",
        r.attempted, r.failed, r.digest
    );
}

/// Run every requested workload and print the result; the exit code.
pub fn run(opts: &Options) -> i32 {
    let mut reports = Vec::new();
    for &w in &opts.workloads {
        let report = if opts.traced {
            trace(w, opts)
        } else {
            measure(w, opts)
        };
        match report {
            Ok(r) => {
                print_report(&r);
                reports.push(r);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return 1;
            }
        }
    }
    if let Err(e) = write_results(opts, &reports) {
        eprintln!("error: writing results: {e}");
        return 1;
    }
    let correct = reports.iter().all(Report::correct);
    let metrics = match &reports[..] {
        [one] => metrics::metrics_value(&one.readings),
        all => Value::Object(
            all.iter()
                .map(|r| {
                    (
                        r.workload.name().to_string(),
                        metrics::metrics_value(&r.readings),
                    )
                })
                .collect(),
        ),
    };
    let summary = obj(vec![
        ("correct", Value::Bool(correct)),
        (
            "attempted",
            Value::UInt(reports.iter().map(|r| r.attempted).sum()),
        ),
        (
            "failed",
            Value::UInt(reports.iter().map(|r| r.failed).sum()),
        ),
        ("metrics", metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Json(summary)).expect("summary renders")
    );
    if correct {
        0
    } else {
        1
    }
}

/// `benchmark/out/<seed>.json`, or `trace-<seed>.json` with the spans.
fn write_results(opts: &Options, reports: &[Report]) -> io::Result<()> {
    let workloads = reports
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("workload", Value::Str(r.workload.name().to_string())),
                ("correct", Value::Bool(r.correct())),
                ("attempted", Value::UInt(r.attempted)),
                ("failed", Value::UInt(r.failed)),
                ("digest", Value::Str(r.digest.clone())),
                ("metrics", metrics::metrics_value(&r.readings)),
            ];
            if opts.traced {
                let self_ms = r
                    .self_ms
                    .iter()
                    .map(|(n, count, ms)| {
                        obj(vec![
                            ("name", Value::Str(n.clone())),
                            ("count", Value::UInt(*count)),
                            ("self_ms", Value::Float(*ms)),
                        ])
                    })
                    .collect();
                fields.push(("self_ms", Value::Array(self_ms)));
                let spans = metrics::parse(&r.spans).map_err(io::Error::other)?;
                fields.push(("spans", spans));
            }
            Ok(obj(fields))
        })
        .collect::<io::Result<Vec<Value>>>()?;
    let doc = obj(vec![
        ("seed", Value::UInt(opts.seed)),
        ("workloads", Value::Array(workloads)),
    ]);
    let name = if opts.traced {
        format!("trace-{}.json", opts.seed)
    } else {
        format!("{}.json", opts.seed)
    };
    fs::create_dir_all(OUT_DIR)?;
    fs::write(
        Path::new(OUT_DIR).join(name),
        serde_json::to_string(&Json(doc)).expect("results render"),
    )
}
