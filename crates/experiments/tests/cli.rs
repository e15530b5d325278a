//! End-to-end tests of the `csmt-experiments` binary: the acceptance
//! criteria of the result-store work, exercised through a real process —
//! cold run populates the store, warm run serves everything from disk,
//! `--resume` skips completed artifacts, and bad flags fail fast with
//! usage text.

use csmt_store::{EventKind, Journal};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A cheap artifact: one workload × 7 IQ schemes = 7 simulations.
const ARTIFACT: &str = "detail:DH/ilp.2.1";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_csmt-experiments"))
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csmt-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Short runs so the whole file stays in CI budget.
const FAST: &[&str] = &["--target", "400", "--warmup", "100", "--quiet"];

#[test]
fn cold_run_then_warm_run_hits_the_store_for_everything() {
    let dir = tmp("coldwarm");
    let store = dir.to_str().unwrap();

    // Cold: nothing cached, 7 simulations, 7 records written.
    let cold = run(&[&[ARTIFACT, "--store", store], FAST].concat());
    assert!(cold.status.success(), "cold run failed: {}", stderr(&cold));
    let e = stderr(&cold);
    assert!(e.contains("0 hits / 7 misses"), "cold summary: {e}");
    assert!(e.contains("7 records written"), "cold summary: {e}");
    assert!(e.contains("7 simulated"), "cold summary: {e}");

    // Warm: every simulation served from disk, zero simulator invocations.
    let warm = run(&[&[ARTIFACT, "--store", store], FAST].concat());
    assert!(warm.status.success(), "warm run failed: {}", stderr(&warm));
    let e = stderr(&warm);
    assert!(
        e.contains("7 hits / 0 misses (100.0% warm)"),
        "warm summary: {e}"
    );
    assert!(e.contains("0 simulated"), "warm summary: {e}");

    // Both runs print the same table.
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "cached results must reproduce the table bit-for-bit"
    );

    // The journal recorded both runs with the full event vocabulary.
    let events = Journal::read(dir.join("journal.jsonl"));
    let runs: Vec<u64> = events.iter().map(|e| e.run_id).collect();
    assert!(runs.contains(&1) && runs.contains(&2), "two journaled runs");
    let n = |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
    assert_eq!(n(|k| matches!(k, EventKind::CacheMiss { .. })), 7);
    assert_eq!(n(|k| matches!(k, EventKind::CacheHit { .. })), 7);
    assert_eq!(n(|k| matches!(k, EventKind::JobOk { .. })), 7);
    assert_eq!(n(|k| matches!(k, EventKind::RunEnd { .. })), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_artifacts_completed_by_an_interrupted_run() {
    let dir = tmp("resume");
    let store = dir.to_str().unwrap();

    // Fabricate an interrupted run: ARTIFACT completed, then the process
    // died (RunStart with no RunEnd).
    {
        let j = Journal::open(&dir).unwrap();
        j.log(EventKind::RunStart {
            artifacts: vec![ARTIFACT.into(), "detail:DH/ilp.2.2".into()],
        });
        j.log(EventKind::ArtifactStart {
            artifact: ARTIFACT.into(),
        });
        j.log(EventKind::ArtifactEnd {
            artifact: ARTIFACT.into(),
        });
        j.log(EventKind::ArtifactStart {
            artifact: "detail:DH/ilp.2.2".into(),
        });
    }

    let out = run(&[
        &[ARTIFACT, "detail:DH/ilp.2.2", "--store", store, "--resume"],
        FAST,
    ]
    .concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let e = stderr(&out);
    assert!(e.contains(&format!("resume: skipping {ARTIFACT}")), "{e}");
    // Only the unfinished artifact was simulated: 7 jobs, not 14.
    assert!(e.contains("7 simulated"), "{e}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("DH/ilp.2.1"),
        "skipped artifact must not render"
    );
    assert!(
        stdout.contains("DH/ilp.2.2"),
        "remaining artifact must render"
    );

    // With the run now cleanly finished, --resume finds nothing to skip.
    let again = run(&[&[ARTIFACT, "--store", store, "--resume"], FAST].concat());
    assert!(
        stderr(&again).contains("resume: no interrupted run found"),
        "{}",
        stderr(&again)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The determinism guarantee at the CLI boundary: the rendered artifact
/// (stdout) is byte-identical whatever `--jobs` says. Any scheduling
/// dependence that sneaks past the in-process determinism tests would
/// surface here as a table diff.
#[test]
fn jobs_counts_render_byte_identical_tables() {
    let serial = run(&[&[ARTIFACT, "--no-store", "--jobs", "1"], FAST].concat());
    let parallel = run(&[&[ARTIFACT, "--no-store", "--jobs", "2"], FAST].concat());
    assert!(serial.status.success(), "{}", stderr(&serial));
    assert!(parallel.status.success(), "{}", stderr(&parallel));
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "--jobs 1 and --jobs 2 rendered different tables"
    );
}

/// The resume drill under parallelism: a `--jobs 4` sweep dies mid-flight
/// (simulated by truncating the journal after the first artifact's
/// ArtifactEnd and leaving a torn half-written line behind, exactly what
/// a kill -9 during an append leaves). `--resume --jobs 4` must skip the
/// completed artifact, serve the rest from the store, and simulate
/// nothing.
#[test]
fn resume_completes_a_killed_parallel_sweep_from_the_store() {
    let dir = tmp("parresume");
    let store = dir.to_str().unwrap();
    const SECOND: &str = "detail:DH/ilp.2.2";

    // Cold parallel run of both artifacts: populates the store fully and
    // journals a clean run.
    let cold = run(&[&[ARTIFACT, SECOND, "--store", store, "--jobs", "4"], FAST].concat());
    assert!(cold.status.success(), "cold run failed: {}", stderr(&cold));
    assert!(stderr(&cold).contains("14 simulated"), "{}", stderr(&cold));

    // Kill the run retroactively: drop everything after the first
    // artifact completed, then append a torn fragment with no newline.
    let journal_path = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let end = text
        .lines()
        .position(|l| l.contains("ArtifactEnd"))
        .expect("first artifact completion is journaled");
    let mut truncated: String = text
        .lines()
        .take(end + 1)
        .map(|l| format!("{l}\n"))
        .collect();
    truncated.push_str("{\"seq\":9999,\"run_id\":1,\"kind\":{\"JobOk\":{\"jo");
    std::fs::write(&journal_path, truncated).unwrap();

    // Resume with the same parallelism: the finished artifact is skipped,
    // the interrupted one is served entirely from the store.
    let resumed = run(&[
        &[
            ARTIFACT, SECOND, "--store", store, "--resume", "--jobs", "4",
        ],
        FAST,
    ]
    .concat());
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    let e = stderr(&resumed);
    assert!(e.contains(&format!("resume: skipping {ARTIFACT}")), "{e}");
    assert!(e.contains("7 hits / 0 misses (100.0% warm)"), "{e}");
    assert!(e.contains("0 simulated"), "{e}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(!stdout.contains("DH/ilp.2.1"), "skipped artifact rendered");
    assert!(
        stdout.contains("DH/ilp.2.2"),
        "resumed artifact must render"
    );

    // The resumed run closed cleanly: a further --resume has nothing to do.
    let again = run(&[&[ARTIFACT, SECOND, "--store", store, "--resume"], FAST].concat());
    assert!(
        stderr(&again).contains("resume: no interrupted run found"),
        "{}",
        stderr(&again)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_store_disables_persistence() {
    let dir = tmp("nostore");
    let out = bin()
        .args([&[ARTIFACT, "--no-store"], FAST].concat())
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("store: disabled"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_flags_fail_fast_with_usage() {
    for (args, needle) in [
        (
            vec!["fig2", "--workers", "4"],
            "--workers was removed; use --jobs",
        ),
        (vec!["fig2", "--jobs", "0"], "positive integer"),
        (vec!["fig2", "--target", "lots"], "positive integer"),
        (vec!["fig2", "--target", "0"], "positive integer"),
        (vec!["fig99"], "unknown artifact: fig99"),
        (vec!["bench"], "unknown artifact: bench"),
        (vec!["fig2", "--frobnicate"], "unknown flag"),
        (vec![], "no artifact named"),
        (vec!["fig2", "--no-store", "--resume"], "--resume"),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let e = stderr(&out);
        assert!(
            e.contains(needle),
            "args {args:?}: missing '{needle}' in: {e}"
        );
        assert!(e.contains("usage:"), "args {args:?} must print usage");
        assert!(
            e.contains("fig2") && e.contains("table2"),
            "usage lists artifacts"
        );
    }
    // Validation happens before any simulation or store I/O: instant even
    // with a bogus store path.
    let out = run(&["fig99", "--store", "/nonexistent/deep/path"]);
    assert_eq!(out.status.code(), Some(2));
}
