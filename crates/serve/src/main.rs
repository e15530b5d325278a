//! `csmt-serve`: the sweep-service daemon binary.
//!
//! ```text
//! csmt-serve --socket PATH [--listen 127.0.0.1:PORT] [--store DIR]
//!            [--queue-depth N] [--max-running N] [--jobs N] [--quiet]
//! ```
//!
//! Listens on a Unix-domain socket (and optionally local TCP), accepts
//! line-delimited JSON requests (`submit` / `status` / `events` /
//! `cancel` / `stats` / `shutdown`), and runs submitted sweeps through
//! the shared content-addressed store and one in-memory run cache per
//! run options, which holds in-flight runs so each simulates once. On
//! start it replays the store journal and re-runs any job a previous
//! daemon left unfinished, so a crash or kill never loses accepted
//! work. Exits cleanly after a `shutdown` request drains running jobs.

use csmt_serve::{EngineConfig, Server, ServerConfig};
use std::io;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> String {
    "usage: csmt-serve --socket PATH [--listen 127.0.0.1:PORT] [--store DIR]\n\
     \x20                 [--queue-depth N] [--max-running N] [--jobs N] [--quiet]\n\
     \n\
     options:\n\
     \x20 --socket PATH     Unix-domain socket to listen on (required unless --listen)\n\
     \x20 --listen ADDR     also listen on local TCP, e.g. 127.0.0.1:7070\n\
     \x20 --store DIR       persistent result store (default: results/store)\n\
     \x20 --queue-depth N   max jobs waiting for admission (default: 16)\n\
     \x20 --max-running N   max jobs running at once (default: 2)\n\
     \x20 --jobs N          executor worker threads per job (default: min(cores, 8))\n\
     \x20 --quiet           no stderr progress lines"
        .to_string()
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}

fn positive(flag: &str, value: Option<&String>) -> usize {
    let v = value.unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    v.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| fail(&format!("{flag} needs a positive integer, got '{v}'")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut store_dir = PathBuf::from("results/store");
    let mut engine = EngineConfig::default();
    let mut jobs = 0usize;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(v) => socket = Some(PathBuf::from(v)),
                None => fail("--socket needs a path"),
            },
            "--listen" => match it.next() {
                Some(v) => listen = Some(v.clone()),
                None => fail("--listen needs HOST:PORT"),
            },
            "--store" => match it.next() {
                Some(v) => store_dir = PathBuf::from(v),
                None => fail("--store needs a directory"),
            },
            "--queue-depth" => engine.queue_depth = positive("--queue-depth", it.next()),
            "--max-running" => engine.max_running = positive("--max-running", it.next()),
            "--jobs" => jobs = positive("--jobs", it.next()),
            "--quiet" => quiet = true,
            other => fail(&format!("unknown flag: {other}")),
        }
    }
    if socket.is_none() && listen.is_none() {
        fail("nothing to listen on: pass --socket PATH and/or --listen ADDR");
    }

    let server = match Server::new(ServerConfig {
        store_dir: store_dir.clone(),
        engine,
        jobs,
        quiet,
    }) {
        Ok(s) => s,
        Err(e) => fail(&format!(
            "cannot open store at {}: {e}",
            store_dir.display()
        )),
    };

    // Bind the listeners non-blocking so the accept loop can notice a
    // drained shutdown promptly.
    let unix = socket.as_ref().map(|path| {
        // A previous daemon's socket file would make bind fail; a stale
        // one is unreachable anyway.
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path)
            .unwrap_or_else(|e| fail(&format!("cannot bind {}: {e}", path.display())));
        l.set_nonblocking(true).expect("nonblocking unix listener");
        l
    });
    let tcp = listen.as_ref().map(|addr| {
        let l =
            TcpListener::bind(addr).unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
        l.set_nonblocking(true).expect("nonblocking tcp listener");
        l
    });
    if !quiet {
        if let Some(path) = &socket {
            eprintln!("csmt-serve: listening on {}", path.display());
        }
        if let Some(addr) = &listen {
            eprintln!("csmt-serve: listening on tcp {addr}");
        }
    }

    while !server.stopped() {
        let mut accepted = false;
        if let Some(l) = &unix {
            match l.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    let server = server.clone();
                    std::thread::spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        let _ = server.handle_conn(reader, stream);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => eprintln!("accept failed: {e}"),
            }
        }
        if let Some(l) = &tcp {
            match l.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    let server = server.clone();
                    std::thread::spawn(move || {
                        let reader = match stream.try_clone() {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        let _ = server.handle_conn(reader, stream);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => eprintln!("accept failed: {e}"),
            }
        }
        if !accepted {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    if let Some(path) = &socket {
        let _ = std::fs::remove_file(path);
    }
    if !quiet {
        eprintln!("csmt-serve: drained, exiting");
    }
}
