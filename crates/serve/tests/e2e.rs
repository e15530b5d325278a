//! In-process end-to-end tests of the daemon: real protocol traffic
//! over `UnixStream::pair`, real simulations through the shared store —
//! only the accept loop is skipped.

use csmt_experiments::client::{run_on, ClientConfig, Outcome};
use csmt_experiments::proto::{read_response, write_line, Request, Response, MAX_REQUEST_LINE};
use csmt_experiments::runner::ExpOptions;
use csmt_experiments::spec::JobSpec;
use csmt_experiments::{figures, Sweeps};
use csmt_serve::{EngineConfig, Server, ServerConfig};
use std::io::{BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csmt-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server(dir: &Path, queue_depth: usize, max_running: usize) -> Server {
    Server::new(ServerConfig {
        store_dir: dir.to_path_buf(),
        engine: EngineConfig {
            queue_depth,
            max_running,
            retry_after_ms: 250,
        },
        jobs: 1,
        quiet: true,
    })
    .expect("server opens")
}

/// Open a client connection to an in-process server: the server side of
/// a socket pair runs `handle_conn` on its own thread.
fn connect(server: &Server) -> (BufReader<UnixStream>, UnixStream) {
    let (client, srv) = UnixStream::pair().expect("socketpair");
    let s = server.clone();
    std::thread::spawn(move || {
        let reader = srv.try_clone().expect("clone server end");
        let _ = s.handle_conn(reader, srv);
    });
    (
        BufReader::new(client.try_clone().expect("clone client end")),
        client,
    )
}

fn tiny_opts() -> ExpOptions {
    ExpOptions {
        commit_target: 400,
        warmup: 100,
        max_cycles: 2_000_000,
        jobs: 1,
        verbose: false,
        validate: false,
        batch: false,
        sample: None,
    }
}

fn spec(artifacts: &[&str], opts: &ExpOptions) -> JobSpec {
    JobSpec::new(artifacts.iter().map(|s| s.to_string()).collect(), opts)
}

fn cfg(spec: JobSpec) -> ClientConfig {
    ClientConfig {
        spec,
        csv_dir: None,
        bars: false,
        quiet: true,
    }
}

/// What the batch path prints for these artifacts: `run_named` on a
/// fresh local store, rendered in order.
fn batch_reference(artifacts: &[&str], opts: &ExpOptions) -> String {
    let sweeps = Sweeps::new(*opts);
    artifacts
        .iter()
        .map(|name| {
            format!(
                "{}\n",
                figures::run_named(name, &sweeps)
                    .expect("known artifact")
                    .render()
            )
        })
        .collect()
}

/// Drive one full client conversation against the server; returns
/// (outcome, stdout bytes).
fn run_client(server: &Server, config: &ClientConfig) -> (Outcome, String) {
    let (mut reader, mut writer) = connect(server);
    let mut out = Vec::new();
    let mut err = Vec::new();
    let outcome =
        run_on(&mut reader, &mut writer, config, &mut out, &mut err).expect("client conversation");
    (outcome, String::from_utf8(out).expect("utf8 stdout"))
}

#[test]
fn concurrent_overlapping_clients_byte_identical_and_exactly_once() {
    let dir = tmp("overlap");
    let srv = server(&dir, 8, 2);
    let opts = tiny_opts();
    // Client A's artifact is a strict subset of client B's: the 7
    // DH/ilp.2.1 RunKeys are hammered by both jobs concurrently.
    let a_artifacts = ["detail:DH/ilp.2.1"];
    let b_artifacts = ["detail:DH/ilp.2.1", "detail:DH/mix.2.1"];
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(|| run_client(&srv, &cfg(spec(&a_artifacts, &opts))));
        let hb = s.spawn(|| run_client(&srv, &cfg(spec(&b_artifacts, &opts))));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a.0, Outcome::Done);
    assert_eq!(b.0, Outcome::Done);
    // Byte-identical to the batch CLI's stdout for the same artifacts.
    assert_eq!(a.1, batch_reference(&a_artifacts, &opts));
    assert_eq!(b.1, batch_reference(&b_artifacts, &opts));
    // Exactly-once: 14 distinct RunKeys (7 schemes × 2 workloads) exist
    // across both jobs; the overlap must coalesce, not re-simulate.
    let stats = srv.stats();
    assert_eq!(
        stats.sims_completed, 14,
        "each RunKey simulated exactly once: {stats:?}"
    );
    assert_eq!(stats.jobs_done, 2);
    assert_eq!(stats.store_puts, 14);

    // A warm resubmission of A's spec is served without simulating.
    let (outcome, stdout) = run_client(&srv, &cfg(spec(&a_artifacts, &opts)));
    assert_eq!(outcome, Outcome::Done);
    assert_eq!(stdout, batch_reference(&a_artifacts, &opts));
    assert_eq!(srv.stats().sims_completed, 14, "warm job simulates nothing");
}

#[test]
fn identical_inflight_submissions_attach_to_one_job() {
    let dir = tmp("attach");
    // max_running 1: a blocker job keeps the interesting spec queued, so
    // the attach window is open no matter how fast simulations are.
    let srv = server(&dir, 8, 1);
    let blocker_opts = ExpOptions {
        commit_target: 2000,
        ..tiny_opts()
    };
    let (mut r0, mut w0) = connect(&srv);
    write_line(
        &mut w0,
        &Request::Submit {
            spec: spec(&["detail:DH/ilp.2.1"], &blocker_opts),
        },
    )
    .unwrap();
    assert!(matches!(
        read_response(&mut r0).unwrap().unwrap(),
        Response::Submitted { .. }
    ));
    let s = spec(&["detail:DH/mem.2.1"], &tiny_opts());
    // Submit twice on raw connections before streaming: the second must
    // attach to the first's job id.
    let (mut r1, mut w1) = connect(&srv);
    write_line(&mut w1, &Request::Submit { spec: s.clone() }).unwrap();
    let first = read_response(&mut r1).unwrap().unwrap();
    let Response::Submitted {
        job,
        attached: false,
    } = first
    else {
        panic!("expected fresh submission, got {first:?}");
    };
    let (mut r2, mut w2) = connect(&srv);
    write_line(&mut w2, &Request::Submit { spec: s.clone() }).unwrap();
    assert_eq!(
        read_response(&mut r2).unwrap().unwrap(),
        Response::Submitted {
            job,
            attached: true
        },
        "identical in-flight spec attaches"
    );
    assert_eq!(srv.stats().jobs_submitted, 2, "blocker + one shared job");
    // Both connections can stream the same job to completion.
    for (r, w) in [(&mut r1, &mut w1), (&mut r2, &mut w2)] {
        write_line(w, &Request::Events { job }).unwrap();
        loop {
            match read_response(r).unwrap().unwrap() {
                Response::Event { event, .. } => {
                    if let csmt_experiments::proto::JobEvent::Finished { state } = event {
                        assert_eq!(state, "done");
                        break;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn full_admission_queue_rejects_with_backpressure() {
    let dir = tmp("backpressure");
    // Capacity 1 running + 1 queued: the third distinct spec must be
    // rejected with the deterministic retry hint.
    let srv = server(&dir, 1, 1);
    let opts = ExpOptions {
        commit_target: 5000,
        ..tiny_opts()
    };
    let (mut r1, mut w1) = connect(&srv);
    write_line(
        &mut w1,
        &Request::Submit {
            spec: spec(&["detail:DH/ilp.2.1"], &opts),
        },
    )
    .unwrap();
    assert!(matches!(
        read_response(&mut r1).unwrap().unwrap(),
        Response::Submitted { .. }
    ));
    let (mut r2, mut w2) = connect(&srv);
    write_line(
        &mut w2,
        &Request::Submit {
            spec: spec(&["detail:DH/mix.2.1"], &opts),
        },
    )
    .unwrap();
    assert!(matches!(
        read_response(&mut r2).unwrap().unwrap(),
        Response::Submitted { .. }
    ));
    // Queue is now full; a third distinct spec bounces. Through the
    // client this is the dedicated Backpressure outcome / exit code 3.
    let (outcome, stdout) = run_client(&srv, &cfg(spec(&["detail:DH/mem.2.1"], &opts)));
    match &outcome {
        Outcome::Backpressure {
            reason,
            retry_after_ms,
        } => {
            assert!(reason.contains("queue full"), "{reason}");
            assert_eq!(*retry_after_ms, 250);
        }
        other => panic!("expected backpressure, got {other:?}"),
    }
    assert_eq!(outcome.exit_code(), 3);
    assert!(stdout.is_empty());
}

#[test]
fn malformed_specs_are_rejected_permanently() {
    let dir = tmp("badspec");
    let srv = server(&dir, 8, 1);
    let (mut r, mut w) = connect(&srv);
    write_line(
        &mut w,
        &Request::Submit {
            spec: spec(&["fig99"], &tiny_opts()),
        },
    )
    .unwrap();
    match read_response(&mut r).unwrap().unwrap() {
        Response::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert!(reason.contains("fig99"), "{reason}");
            assert_eq!(retry_after_ms, 0, "permanent rejection: no retry hint");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn hostile_request_lines_end_only_their_own_connection() {
    let dir = tmp("hostile");
    let srv = server(&dir, 8, 1);
    let (mut good_r, mut good_w) = connect(&srv);
    // Send `bytes` on a fresh connection, hang up, and return the error
    // its `handle_conn` ended with.
    let hostile = |bytes: &[u8]| {
        let (mut client, srv_end) = UnixStream::pair().expect("socketpair");
        let s = srv.clone();
        let conn = std::thread::spawn(move || {
            let reader = srv_end.try_clone().expect("clone server end");
            s.handle_conn(reader, srv_end)
        });
        // The daemon may hang up before the whole line is written.
        let _ = client.write_all(bytes);
        drop(client);
        conn.join().expect("connection thread").unwrap_err()
    };
    let mut oversized = vec![b'x'; MAX_REQUEST_LINE + 1];
    oversized.push(b'\n');
    let err = hostile(&oversized);
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("longer than"), "{err}");
    let err = hostile(b"{\"Status\":{\"jo");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    // Nesting far past the JSON parser's depth bound, in a line far under
    // the size cap: rejected as bad JSON, not a stack overflow that takes
    // the whole daemon down.
    for level in ["[", "{\"a\":"] {
        let mut nested = level.repeat(20_000).into_bytes();
        nested.push(b'\n');
        let err = hostile(&nested);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }

    // A client that half-closes after a complete request still gets its
    // answer, and its connection ends cleanly.
    let (client, srv_end) = UnixStream::pair().expect("socketpair");
    let s = srv.clone();
    let conn = std::thread::spawn(move || {
        let reader = srv_end.try_clone().expect("clone server end");
        s.handle_conn(reader, srv_end)
    });
    let mut w = client.try_clone().expect("clone client end");
    write_line(&mut w, &Request::Stats).unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let mut r = BufReader::new(client);
    assert!(matches!(
        read_response(&mut r).unwrap().unwrap(),
        Response::Stats { .. }
    ));
    assert!(read_response(&mut r).unwrap().is_none());
    conn.join().expect("connection thread").unwrap();

    // The daemon still serves the connection that was open all along,
    // and new ones.
    write_line(&mut good_w, &Request::Stats).unwrap();
    assert!(matches!(
        read_response(&mut good_r).unwrap().unwrap(),
        Response::Stats { .. }
    ));
    let (mut r, mut w) = connect(&srv);
    write_line(&mut w, &Request::Stats).unwrap();
    assert!(matches!(
        read_response(&mut r).unwrap().unwrap(),
        Response::Stats { .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_cancel_and_stats_endpoints() {
    let dir = tmp("endpoints");
    let srv = server(&dir, 8, 1);
    let opts = ExpOptions {
        commit_target: 5000,
        ..tiny_opts()
    };
    let (mut r, mut w) = connect(&srv);
    write_line(
        &mut w,
        &Request::Submit {
            spec: spec(&["detail:DH/ilp.2.1"], &opts),
        },
    )
    .unwrap();
    let Response::Submitted { job: running, .. } = read_response(&mut r).unwrap().unwrap() else {
        panic!("submit failed");
    };
    write_line(
        &mut w,
        &Request::Submit {
            spec: spec(&["detail:DH/mix.2.1"], &opts),
        },
    )
    .unwrap();
    let Response::Submitted { job: queued, .. } = read_response(&mut r).unwrap().unwrap() else {
        panic!("submit failed");
    };
    // Status reflects the lifecycle.
    write_line(&mut w, &Request::Status { job: running }).unwrap();
    assert_eq!(
        read_response(&mut r).unwrap().unwrap(),
        Response::Status {
            job: running,
            state: "running".into()
        }
    );
    write_line(&mut w, &Request::Status { job: queued }).unwrap();
    assert_eq!(
        read_response(&mut r).unwrap().unwrap(),
        Response::Status {
            job: queued,
            state: "queued".into()
        }
    );
    write_line(&mut w, &Request::Status { job: 999 }).unwrap();
    assert!(matches!(
        read_response(&mut r).unwrap().unwrap(),
        Response::Error { .. }
    ));
    // Only the queued job cancels.
    write_line(&mut w, &Request::Cancel { job: queued }).unwrap();
    assert_eq!(
        read_response(&mut r).unwrap().unwrap(),
        Response::Status {
            job: queued,
            state: "cancelled".into()
        }
    );
    write_line(&mut w, &Request::Cancel { job: running }).unwrap();
    assert!(matches!(
        read_response(&mut r).unwrap().unwrap(),
        Response::Error { .. }
    ));
    // A cancelled job's event stream still terminates.
    write_line(&mut w, &Request::Events { job: queued }).unwrap();
    loop {
        match read_response(&mut r).unwrap().unwrap() {
            Response::Event { event, .. } => {
                if let csmt_experiments::proto::JobEvent::Finished { state } = event {
                    assert_eq!(state, "cancelled");
                    break;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Stats carries the lifecycle and sweep counters.
    write_line(&mut w, &Request::Stats).unwrap();
    match read_response(&mut r).unwrap().unwrap() {
        Response::Stats { stats } => {
            assert_eq!(stats.jobs_submitted, 2);
            assert_eq!(stats.jobs_cancelled, 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn shutdown_drains_and_stops() {
    let dir = tmp("shutdown");
    let srv = server(&dir, 8, 1);
    let opts = tiny_opts();
    // Finish one quick job, then shut down: the engine must stop once
    // nothing is running.
    let (outcome, _) = run_client(&srv, &cfg(spec(&["detail:DH/ilp.2.1"], &opts)));
    assert_eq!(outcome, Outcome::Done);
    assert!(!srv.stopped());
    let (mut r, mut w) = connect(&srv);
    write_line(&mut w, &Request::Shutdown).unwrap();
    assert_eq!(
        read_response(&mut r).unwrap().unwrap(),
        Response::ShuttingDown
    );
    // Drained immediately (nothing was running).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !srv.stopped() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(srv.stopped(), "drained daemon must stop");
    // Submissions after shutdown are refused permanently.
    let (mut r2, mut w2) = connect(&srv);
    write_line(
        &mut w2,
        &Request::Submit {
            spec: spec(&["detail:DH/mix.2.1"], &opts),
        },
    )
    .unwrap();
    assert!(matches!(
        read_response(&mut r2).unwrap().unwrap(),
        Response::Rejected {
            retry_after_ms: 0,
            ..
        }
    ));
}
