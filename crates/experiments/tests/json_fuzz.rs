//! Byte-level fuzzing of the vendored JSON parser, which reads untrusted
//! socket input in `csmt-serve`:
//!
//! - arbitrary bytes fed to `proto::read_request` never panic;
//! - arbitrary UTF-8 fed to `serde_json::from_str::<Value>` never panics;
//! - every `Value` that parses round-trips through `to_string` and
//!   `from_str` unchanged.
//!
//! The inputs mix JSON tokens into the noise so a useful share of cases
//! gets past the first byte. A last test pins the nesting depth of every
//! document the workspace itself writes far below the parser's bound.

use csmt_core::Checkpoint;
use csmt_experiments::proto::{self, JobEvent, Request, Response};
use csmt_experiments::runner::{CfgKind, ExpOptions, Sweeps};
use csmt_experiments::JobSpec;
use csmt_trace::suite::suite;
use csmt_types::{RegFileSchemeKind, SampleSpec, SchemeKind};
use proptest::prelude::*;
use proptest::TestRng;
use serde_json::Value;
use std::io::Cursor;

/// Fragments that steer random input into the parser's deeper paths.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\u00e9", "\\ud83d", "\\n", "\"a\":", "null",
    "true", "false", "nul", "-", "0", "-0", "7", "1.5", "2e3", "1e400", "-9223372036854775808",
    "18446744073709551616", "0.1e-2", ".", "e", "+", " ", "\n", "\t", "é", "\u{1F600}", "\"Stats\"",
    "{\"Status\":{\"job\":", "{\"Submit\":{\"spec\":",
];

/// A random mix of tokens and characters from the whole Unicode range.
struct Noise {
    max_pieces: u64,
}

impl Strategy for Noise {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for _ in 0..rng.below(self.max_pieces + 1) {
            if rng.below(3) == 0 {
                let c = char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}');
                out.push(c);
            } else {
                out.push_str(TOKENS[rng.below(TOKENS.len() as u64) as usize]);
            }
        }
        out
    }
}

/// A float from random bits, NaN and infinities mapped to 0.5 (JSON
/// spells neither).
fn finite(rng: &mut TestRng) -> f64 {
    Some(f64::from_bits(rng.next_u64()))
        .filter(|x| x.is_finite())
        .unwrap_or(0.5)
}

/// Well-formed JSON text: a random tree with random whitespace,
/// number spellings and string escapes.
struct JsonText {
    depth: u32,
}

impl JsonText {
    fn value(&self, rng: &mut TestRng, depth: u32, out: &mut String) {
        const WS: &[&str] = &["", "", " ", "\n", "\t ", "\r\n"];
        let ws = |rng: &mut TestRng, out: &mut String| {
            out.push_str(WS[rng.below(WS.len() as u64) as usize]);
        };
        ws(rng, out);
        let leaf = depth == 0 || rng.below(3) == 0;
        match (leaf, rng.below(2)) {
            (false, 0) => {
                out.push('[');
                for i in 0..rng.below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.value(rng, depth - 1, out);
                }
                ws(rng, out);
                out.push(']');
            }
            (false, _) => {
                out.push('{');
                for i in 0..rng.below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    ws(rng, out);
                    self.string(rng, out);
                    ws(rng, out);
                    out.push(':');
                    self.value(rng, depth - 1, out);
                }
                ws(rng, out);
                out.push('}');
            }
            (true, _) => match rng.below(8) {
                0 => out.push_str(["null", "true", "false"][rng.below(3) as usize]),
                1 | 2 => self.string(rng, out),
                3 => out.push_str(&rng.next_u64().to_string()),
                4 => out.push_str(&(rng.next_u64() as i64).to_string()),
                5 => out.push_str(&finite(rng).to_string()),
                6 => out.push_str(&format!("{:e}", finite(rng))),
                _ => out.push_str(
                    [
                        "-0",
                        "0.0",
                        "-0.0",
                        "1e5",
                        "1E-3",
                        "2.50",
                        "1.7976931348623157e308",
                    ][rng.below(7) as usize],
                ),
            },
        }
        ws(rng, out);
    }

    fn string(&self, rng: &mut TestRng, out: &mut String) {
        #[rustfmt::skip]
        const PARTS: &[&str] = &[
            "a", "Z", " ", "é", "\u{1F600}", "\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b",
            "\\f", "\\u0041", "\\u00e9", "\\u001f", "\\uFFFF", "\u{7f}",
        ];
        out.push('"');
        for _ in 0..rng.below(6) {
            out.push_str(PARTS[rng.below(PARTS.len() as u64) as usize]);
        }
        out.push('"');
    }
}

impl Strategy for JsonText {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        self.value(rng, self.depth, &mut out);
        out
    }
}

/// Equal trees, with numbers compared by value: the renderer prints an
/// integral float without a fraction, so `1.0` comes back as the
/// integer `1` (which the float `Deserialize` accepts).
fn same(a: &Value, b: &Value) -> bool {
    let num = |v: &Value| match *v {
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        Value::Float(x) => Some(x),
        _ => None,
    };
    match (a, b) {
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => match (num(a), num(b)) {
            (Some(x), Some(y)) => x == y,
            _ => a == b,
        },
    }
}

/// Parse `text`; when it parses, check the value round-trips.
fn check_round_trip(text: &str) -> Result<(), String> {
    let Ok(first) = serde_json::from_str::<Value>(text) else {
        return Ok(());
    };
    let rendered = serde_json::to_string(&first).unwrap();
    let second: Value = serde_json::from_str(&rendered)
        .map_err(|e| format!("{text:?} rendered as {rendered:?}, which fails: {e}"))?;
    prop_assert!(
        same(&first, &second),
        "{text:?}: {first:?} came back as {second:?}"
    );
    prop_assert_eq!(serde_json::to_string(&second).unwrap(), rendered);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    #[test]
    fn arbitrary_request_bytes_never_panic(
        pieces in proptest::collection::vec((0u8..=255, Noise { max_pieces: 2 }, 0u8..4), 0..200),
    ) {
        let mut wire = Vec::new();
        for (byte, noise, pick) in pieces {
            match pick {
                0 => wire.push(byte),
                _ => wire.extend_from_slice(noise.as_bytes()),
            }
        }
        let mut r = Cursor::new(wire);
        // Each call consumes at least one line, so this ends.
        while let Ok(Some(_)) = proto::read_request(&mut r) {}
    }

    #[test]
    fn arbitrary_text_never_panics_and_round_trips(text in Noise { max_pieces: 40 }) {
        check_round_trip(&text)?;
    }

    #[test]
    fn parsed_json_round_trips(text in JsonText { depth: 5 }) {
        prop_assert!(
            serde_json::from_str::<Value>(&text).is_ok(),
            "generator produced invalid JSON {text:?}"
        );
        check_round_trip(&text)?;
    }
}

/// Array/object nesting depth of a parsed document.
fn depth(v: &Value) -> usize {
    match v {
        Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Value::Object(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn every_written_document_nests_far_below_the_parser_bound() {
    const BOUND: usize = 10;
    const { assert!(BOUND * 10 < serde_json::MAX_DEPTH) };
    let mut deepest = Vec::new();
    let mut note = |what: String, text: &str| {
        let doc: Value = serde_json::from_str(text).unwrap_or_else(|e| panic!("{what}: {e}"));
        deepest.push((depth(&doc), what));
    };

    // Everything a sampled, stored sweep persists: result records,
    // checkpoints, sampling sidecars and the journal.
    let dir = std::env::temp_dir().join(format!("csmt-json-depth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ExpOptions {
        commit_target: 3000,
        warmup: 100,
        max_cycles: 2_000_000,
        jobs: 1,
        verbose: false,
        validate: false,
        batch: true,
        sample: Some(SampleSpec {
            intervals: 2,
            warmup: 100,
            detail: 200,
        }),
    };
    let ws: Vec<_> = suite().into_iter().take(1).collect();
    let sweeps = Sweeps::with_store(opts, &dir).unwrap();
    sweeps.smt_batch(
        &ws,
        &[(
            SchemeKind::Cssp,
            RegFileSchemeKind::Cdprf,
            CfgKind::RfStudy { regs: 64 },
        )],
    );
    // Close the store first: an open segment ends in zero fill, which a
    // clean close trims.
    drop(sweeps);
    let mut stack = vec![dir.clone()];
    let mut files = 0;
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            stack.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            note(path.display().to_string(), line);
        }
        files += 1;
    }
    assert!(files >= 4, "expected records, artifacts and a journal");
    let _ = std::fs::remove_dir_all(&dir);

    // A schema-2 checkpoint on its own, and the wire messages.
    let ck = Checkpoint::capture_many(&ws[0].traces, &[500]);
    note("checkpoint".into(), &serde_json::to_string(&ck).unwrap());
    let spec = JobSpec::new(vec!["fig2".into()], &opts);
    note(
        "submit".into(),
        &serde_json::to_string(&Request::Submit { spec }).unwrap(),
    );
    for response in [
        Response::Stats {
            stats: Default::default(),
        },
        Response::Event {
            job: 1,
            event: JobEvent::ArtifactDone {
                name: "fig2".into(),
                table_json: "{\"rows\":[[\"a\",[1.0]]]}".into(),
            },
        },
    ] {
        note(
            "response".into(),
            &serde_json::to_string(&response).unwrap(),
        );
    }
    let (max, what) = deepest.iter().max().unwrap();
    assert!(*max < BOUND, "{what} nests {max} levels");
}
