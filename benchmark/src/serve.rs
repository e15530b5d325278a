//! The `serve-warm` workload: a fresh `csmt-serve` daemon per pass on a
//! store pre-filled during set-up, loaded by closed-loop client
//! connections with no think time.
//!
//! Nothing simulates (`sims_completed` must stay 0): store reads on first
//! touch, rendering, JSON, the protocol and admission are the whole cost.
//! Every table served must be byte-equal to the same artifact rendered
//! in-process during set-up.

use crate::inputs::{runs_behind, serve_plan, Point};
use crate::metrics::percentile;
use crate::pass::{self, median_of, PassResult};
use crate::spans::{self, Recorder};
use crate::sweep::store_key;
use csmt_experiments::figures::{fig2, run_named_all};
use csmt_experiments::proto::{read_response, write_line, JobEvent, Request, Response, ServeStats};
use csmt_experiments::report::Table;
use csmt_experiments::runner::{CfgKind, ExpOptions};
use csmt_experiments::{JobSpec, SweepGroupKey, Sweeps};
use csmt_store::{Lookup, ResultStore, StoreKey};
use csmt_trace::suite::suite;
use csmt_types::{RegFileSchemeKind, SchemeKind};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::hint::black_box;
use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Store and socket names, relative to the run directory the daemon runs
/// in (a relative socket path keeps it under the 108-byte limit).
const STORE: &str = "store";
const SOCKET: &str = "serve.sock";
/// The in-process renders every served table is compared against.
const EXPECTED: &str = "expected.json";

/// Every distinct request of the plan, in first-request order.
fn distinct(plan: &[Vec<JobSpec>]) -> Vec<JobSpec> {
    let mut seen = HashSet::new();
    plan.iter()
        .flatten()
        .filter(|s| seen.insert(s.canonical()))
        .cloned()
        .collect()
}

/// One memoizing `Sweeps` per option group over the run's store, as the
/// daemon keeps them.
struct Groups(Vec<(SweepGroupKey, Sweeps)>);

impl Groups {
    fn get(&mut self, spec: &JobSpec, store: &Path, jobs: usize) -> io::Result<&Sweeps> {
        let key = spec.sweep_group();
        let idx = match self.0.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let sweeps = Sweeps::with_store(spec.to_options(jobs, false), store)?;
                self.0.push((key, sweeps));
                self.0.len() - 1
            }
        };
        Ok(&self.0[idx].1)
    }
}

fn tables_of(spec: &JobSpec, sweeps: &Sweeps) -> io::Result<Vec<String>> {
    let tables = run_named_all(&spec.artifacts[0], sweeps)
        .ok_or_else(|| io::Error::other(format!("unknown artifact {}", spec.artifacts[0])))?;
    Ok(tables.into_iter().map(|(_, t)| t.to_json()).collect())
}

/// A fresh store's journal would replay into the next daemon; every pass
/// starts without one.
fn remove_journal(run_dir: &Path) {
    let _ = fs::remove_file(run_dir.join(STORE).join("journal.jsonl"));
}

/// Set-up: simulate every run the requests of `seed` read into the run's
/// store on `jobs` workers, and save each distinct request's tables as
/// rendered in-process.
pub fn prefill(seed: u64, run_dir: &Path, jobs: usize) -> io::Result<()> {
    let store = run_dir.join(STORE);
    let mut groups = Groups(Vec::new());
    let mut expected: Vec<(String, Vec<String>)> = Vec::new();
    for spec in distinct(&serve_plan(seed)) {
        let tables = tables_of(&spec, groups.get(&spec, &store, jobs)?)?;
        expected.push((spec.canonical(), tables));
    }
    drop(groups);
    remove_journal(run_dir);
    let text = serde_json::to_string(&expected).expect("tables serialize");
    fs::write(run_dir.join(EXPECTED), text)
}

fn load_expected(run_dir: &Path) -> io::Result<HashMap<String, Vec<String>>> {
    let text = fs::read_to_string(run_dir.join(EXPECTED))?;
    let pairs: Vec<(String, Vec<String>)> =
        serde_json::from_str(&text).map_err(|e| io::Error::other(e.to_string()))?;
    Ok(pairs.into_iter().collect())
}

/// The `csmt-serve` binary built next to this one.
fn serve_bin() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let bin = exe.with_file_name("csmt-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(io::Error::other(format!(
            "{} not found: benchmark/run.sh builds csmt-serve into the benchmark's target directory",
            bin.display()
        )))
    }
}

/// A running `csmt-serve`; killed and reaped if dropped before it exits.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Start a daemon in `run_dir` and wait until its socket accepts.
    pub fn start(run_dir: &Path) -> io::Result<Daemon> {
        let bin = serve_bin()?;
        let socket = run_dir.join(SOCKET);
        let _ = fs::remove_file(&socket);
        let child = Command::new(bin)
            .current_dir(run_dir)
            .args(["--socket", SOCKET, "--store", STORE])
            .args(["--jobs", "1", "--max-running", "2", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(60);
        while UnixStream::connect(&daemon.socket).is_err() {
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "csmt-serve exited at start: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("csmt-serve did not listen within 60 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(daemon)
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.socket)
    }

    /// The daemon's counters.
    pub fn stats(&self) -> io::Result<ServeStats> {
        let mut conn = self.connect()?;
        conn.send(&Request::Stats)?;
        match conn.recv()? {
            Some(Response::Stats { stats }) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Peak resident memory of the daemon so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        pass::peak_rss_mb(Some(self.child.id())).unwrap_or(0.0)
    }

    /// Ask the daemon to drain and exit, and reap it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = self.connect()?;
        conn.send(&Request::Shutdown)?;
        match conn.recv()? {
            Some(Response::ShuttingDown) => {}
            other => return Err(unexpected(other)),
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("csmt-serve exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("csmt-serve did not exit within 60 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn unexpected(r: Option<Response>) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected daemon response: {r:?}"),
    )
}

/// One client connection, kept open across requests.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// How a job's event stream ended.
struct Followed {
    tables: Vec<String>,
    state: String,
    /// When the last table (or, without tables, the end) arrived.
    last_table: Instant,
}

impl Conn {
    fn connect(socket: &Path) -> io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn send(&mut self, r: &Request) -> io::Result<()> {
        write_line(&mut self.writer, r)
    }

    fn recv(&mut self) -> io::Result<Option<Response>> {
        read_response(&mut self.reader)
    }

    /// Submit a job: its id, or why the daemon refused it.
    fn submit(&mut self, spec: &JobSpec) -> io::Result<Result<u64, String>> {
        self.send(&Request::Submit { spec: spec.clone() })?;
        match self.recv()? {
            Some(Response::Submitted { job, .. }) => Ok(Ok(job)),
            Some(Response::Rejected { reason, .. }) => Ok(Err(format!("rejected: {reason}"))),
            other => Err(unexpected(other)),
        }
    }

    /// Stream a job's events to its terminal event.
    fn follow(&mut self, job: u64) -> io::Result<Followed> {
        self.send(&Request::Events { job })?;
        let mut tables = Vec::new();
        let mut last_table = None;
        loop {
            match self.recv()? {
                Some(Response::Event { event, .. }) => match event {
                    JobEvent::ArtifactDone { table_json, .. } => {
                        tables.push(table_json);
                        last_table = Some(Instant::now());
                    }
                    JobEvent::Finished { state } => {
                        return Ok(Followed {
                            tables,
                            state,
                            last_table: last_table.unwrap_or_else(Instant::now),
                        });
                    }
                    _ => {}
                },
                other => return Err(unexpected(other)),
            }
        }
    }
}

/// The tables a request was served, or why it failed.
type Outcome = Result<Vec<String>, String>;

/// Render tables the way a client prints them.
fn render(tables: &[String]) -> io::Result<()> {
    for t in tables {
        let table = Table::from_json(t).map_err(|e| io::Error::other(e.to_string()))?;
        black_box(table.render());
    }
    Ok(())
}

/// One request end to end: submit, follow, render. `Err` inside carries
/// why the request failed.
fn request(conn: &mut Conn, spec: &JobSpec) -> io::Result<Outcome> {
    let job = match conn.submit(spec)? {
        Ok(job) => job,
        Err(why) => return Ok(Err(why)),
    };
    let f = conn.follow(job)?;
    if f.state != "done" {
        return Ok(Err(format!("job {job} ended {}", f.state)));
    }
    render(&f.tables)?;
    Ok(Ok(f.tables))
}

/// One closed-loop client: its requests back to back on one connection.
fn client(socket: &Path, specs: &[JobSpec]) -> Vec<(f64, Outcome)> {
    let mut conn = Conn::connect(socket).map_err(|e| format!("connect: {e}"));
    specs
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let outcome = match conn.as_mut() {
                Ok(c) => request(c, spec).unwrap_or_else(|e| Err(format!("protocol: {e}"))),
                Err(e) => Err(e.clone()),
            };
            (t.elapsed().as_secs_f64() * 1e3, outcome)
        })
        .collect()
}

/// Check each served request against the in-process renders, count the
/// runs the good ones deliver, and digest every table in request order.
fn check(
    out: &mut PassResult,
    expected: &HashMap<String, Vec<String>>,
    served: Vec<(&JobSpec, Outcome)>,
) {
    let mut all = Vec::new();
    for (spec, outcome) in served {
        match outcome {
            Err(why) => out.fail(format!("{}: {why}", spec.artifacts[0])),
            Ok(tables) => {
                if expected.get(&spec.canonical()) == Some(&tables) {
                    out.runs += runs_behind(spec);
                } else {
                    out.fail(format!(
                        "{} at target {}: served table differs from the in-process render",
                        spec.artifacts[0], spec.target
                    ));
                }
                all.extend(tables);
            }
        }
    }
    out.digest = pass::digest(all);
}

/// Read the daemon's counters and peak memory, then shut it down.
fn retire(daemon: Daemon, out: &mut PassResult) -> Option<ServeStats> {
    let stats = daemon.stats();
    out.rss_mb = daemon.peak_rss_mb();
    if let Err(e) = daemon.shutdown() {
        out.fail(format!("shutdown: {e}"));
    }
    match stats {
        Ok(s) => {
            if s.sims_completed != 0 {
                out.fail(format!("the daemon simulated {} runs", s.sims_completed));
            }
            Some(s)
        }
        Err(e) => {
            out.fail(format!("stats: {e}"));
            None
        }
    }
}

/// One untraced pass: a fresh daemon, one thread per client connection.
pub fn pass(run_dir: &Path, seed: u64) -> io::Result<PassResult> {
    let plan = serve_plan(seed);
    remove_journal(run_dir);
    let daemon = Daemon::start(run_dir)?;
    pass::ready();
    let t0 = Instant::now();
    let socket = &daemon.socket;
    let served: Vec<Vec<(f64, Outcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|specs| s.spawn(move || client(socket, specs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut out = PassResult {
        wall_s: t0.elapsed().as_secs_f64(),
        ..PassResult::default()
    };
    retire(daemon, &mut out);
    let mut outcomes = Vec::new();
    for (specs, served) in plan.iter().zip(served) {
        for (spec, (lat_ms, outcome)) in specs.iter().zip(served) {
            out.lat_ms.push(lat_ms);
            outcomes.push((spec, outcome));
        }
    }
    check(&mut out, &load_expected(run_dir)?, outcomes);
    Ok(out)
}

/// The store keys one request reads, in the order the daemon reads them.
fn request_keys(spec: &JobSpec) -> Vec<StoreKey> {
    let opts: ExpOptions = spec.to_options(1, false);
    let name = &spec.artifacts[0];
    let suite = suite();
    let (workloads, points): (Vec<_>, Vec<Point>) = if name == "fig2" {
        let points = fig2::combos()
            .into_iter()
            .map(|(s, iq)| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq }))
            .collect();
        (suite, points)
    } else {
        let w = name.strip_prefix("detail:").unwrap_or(name);
        let points = SchemeKind::all()
            .into_iter()
            .map(|s| (s, RegFileSchemeKind::Shared, CfgKind::IqStudy { iq: 32 }))
            .collect();
        (suite.into_iter().filter(|x| x.name == w).collect(), points)
    };
    workloads
        .iter()
        .flat_map(|w| points.iter().map(move |&p| store_key(&opts, w, p)))
        .collect()
}

/// The traced pass: every request in turn on one connection, with spans
/// around each protocol step; then the daemon's store reads and renders
/// re-enacted in-process, with spans around each call.
pub fn replay(run_dir: &Path, seed: u64) -> io::Result<PassResult> {
    let plan = serve_plan(seed);
    let specs: Vec<&JobSpec> = plan.iter().flatten().collect();
    let keys: HashMap<String, Vec<(u64, StoreKey)>> = distinct(&plan)
        .iter()
        .map(|s| {
            let keys = request_keys(s).into_iter();
            (s.canonical(), keys.map(|k| (k.content_hash(), k)).collect())
        })
        .collect();
    remove_journal(run_dir);
    let mut out = PassResult::default();
    pass::ready();
    let mut rec = Recorder::new();
    let t0 = Instant::now();

    let daemon = rec.leaf("serve.daemon_start", 0, || Daemon::start(run_dir))?;
    let mut conn = rec.leaf("serve.connect", 0, || daemon.connect())?;
    let mut outcomes = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let outcome = rec.span("serve.request", i, |rec| {
            let job = match rec.leaf("serve.ack", i, || conn.submit(spec))? {
                Ok(job) => job,
                Err(why) => return Ok(Err(why)),
            };
            let acked = Instant::now();
            let f = conn.follow(job)?;
            rec.record("serve.compute", i, acked, f.last_table);
            if f.state != "done" {
                return Ok(Err(format!("job {job} ended {}", f.state)));
            }
            rec.leaf("serve.client_render", i, || render(&f.tables))?;
            Ok::<_, io::Error>(Ok(f.tables))
        });
        outcomes.push((
            *spec,
            outcome.unwrap_or_else(|e| Err(format!("protocol: {e}"))),
        ));
    }
    drop(conn);
    let client_wall = t0.elapsed();
    let stats = retire(daemon, &mut out).unwrap_or_default();
    check(&mut out, &load_expected(run_dir)?, outcomes);

    // The daemon's first-touch store reads: one memo per option group,
    // so each key is read once however many requests share it.
    let t1 = Instant::now();
    let store = ResultStore::open(run_dir.join(STORE))?;
    let mut seen_specs = HashSet::new();
    let mut seen_keys = HashSet::new();
    let mut results = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let canonical = spec.canonical();
        if !seen_specs.insert(canonical.clone()) {
            continue;
        }
        for (hash, key) in &keys[&canonical] {
            if seen_keys.insert(*hash) {
                match rec.leaf("store.get", i, || store.get(key)) {
                    Lookup::Hit(r) => results.push(r),
                    Lookup::Miss => out.fail(format!("{} missed the pre-filled store", key.label)),
                }
            }
        }
    }
    let read_wall = t1.elapsed();

    // Rendering from a warm memo, as the daemon renders every request
    // after the first touch. Filling the memo is left out of the spans.
    let mut groups = Groups(Vec::new());
    for spec in distinct(&plan) {
        tables_of(&spec, groups.get(&spec, &run_dir.join(STORE), 1)?)?;
    }
    let t2 = Instant::now();
    let mut json_bytes = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let sweeps = groups.get(spec, &run_dir.join(STORE), 1)?;
        let tables = rec.leaf("experiments.render", i, || tables_of(spec, sweeps))?;
        json_bytes += tables.iter().map(String::len).sum::<usize>();
    }
    let render_wall = t2.elapsed();
    drop(groups);
    remove_journal(run_dir);

    out.lat_ms = rec
        .durations("serve.request")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    out.wall_s = (client_wall + read_wall + render_wall).as_secs_f64();
    let wall_ns = out.wall_s * 1e9;
    let compute = rec.durations("serve.compute");
    let mut sorted = compute.clone();
    sorted.sort_by(f64::total_cmp);
    let sc = store.counters();
    out.layer = [
        ("serve.daemon_start_ms", rec.total_ms("serve.daemon_start")),
        (
            "serve.connect_ms_p50",
            median_of(&rec.durations("serve.connect"), 1e6),
        ),
        (
            "serve.ack_ms_p50",
            median_of(&rec.durations("serve.ack"), 1e6),
        ),
        ("serve.compute_ms_p50", median_of(&compute, 1e6)),
        (
            "serve.compute_ms_p99",
            if sorted.is_empty() {
                0.0
            } else {
                percentile(&sorted, 9_900) / 1e6
            },
        ),
        (
            "serve.client_render_ms_p50",
            median_of(&rec.durations("serve.client_render"), 1e6),
        ),
        ("serve.store_hits", stats.store_hits as f64),
        ("serve.store_misses", stats.store_misses as f64),
        ("serve.sims_completed", stats.sims_completed as f64),
        ("store.get_ms", rec.total_ms("store.get")),
        (
            "store.get_us_p50",
            median_of(&rec.durations("store.get"), 1e3),
        ),
        ("store.hits", sc.hits as f64),
        ("store.misses", sc.misses as f64),
        ("experiments.render_ms", rec.total_ms("experiments.render")),
        ("experiments.table_json_bytes", json_bytes as f64),
        // The daemon works from Submit to the last table (its job thread
        // starts before the ack is written); what its reads and renders do
        // not explain is protocol, engine, job threads and journal.
        (
            "experiments.runner_self_ms",
            rec.total_ms("serve.ack") + rec.total_ms("serve.compute")
                - rec.total_ms("store.get")
                - rec.total_ms("experiments.render"),
        ),
        ("span_coverage_frac", rec.covered_ns() as f64 / wall_ns),
        (
            "trace_overhead_frac",
            rec.spans.len() as f64 * spans::cost_per_span_ns() / wall_ns,
        ),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();
    out.layer.extend(pass::sim_counts(&results));
    out.spans = rec.to_json();
    out.self_ms = spans::self_ms(&rec.spans);
    Ok(out)
}
