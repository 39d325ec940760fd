//! Generative tests of the JSON layer and every strict parser built on it.
//!
//! * Round trip: random [`Value`] trees (finite numbers including −0,
//!   subnormals and integers up to 2^53; strings with quotes, backslashes,
//!   control and multibyte characters; nesting up to depth 8) satisfy
//!   `parse(v.to_json()) == v`, and `to_json` is a fixed point.
//! * Mutation: a committed valid document — one of the five scenarios,
//!   the five golden reports (the `d26_dynamic_grid` one embeds a dynsweep
//!   table) and the sweep and fleet corpus bases — is damaged by one to
//!   three byte flips, truncations, range deletions, range duplications or
//!   digit runs replaced by edge-case numbers. Every parser must return
//!   `Ok` or `Err` on the result, never panic, and whatever `json::parse`
//!   accepts must re-emit as a fixed point. Deeply nested inputs are
//!   checked the same way.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vi_noc_api::Scenario;
use vi_noc_core::json::{self, Value};
use vi_noc_fleet::parse_message;
use vi_noc_sweep::{merge_checkpoints, parse_frontier_file, parse_shard_checkpoint};

// --- Round trip -----------------------------------------------------------

/// Characters that exercise every escape path of the string writer.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', '☃', '😀',
];

/// Numbers the writer must reproduce exactly.
const SPECIAL_NUMBERS: &[f64] = &[
    0.0,
    -0.0,
    0.1,
    1.0 / 3.0,
    f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    f64::MAX,
    f64::MIN,
    1e308,
    9007199254740992.0,
    -9007199254740992.0,
];

fn draw(rng: &mut TestRng, n: usize) -> usize {
    (0..n).generate(rng)
}

/// Random JSON trees up to a nesting depth.
#[derive(Clone, Copy)]
struct ArbValue {
    depth: usize,
}

impl ArbValue {
    fn number(rng: &mut TestRng) -> f64 {
        let bits = (0..=u64::MAX).generate(rng);
        match draw(rng, 5) {
            0 => SPECIAL_NUMBERS[draw(rng, SPECIAL_NUMBERS.len())],
            // Integers up to 2^53, either sign.
            1 => (bits % ((1 << 53) + 1)) as f64,
            2 => -((bits % ((1 << 53) + 1)) as f64),
            // Subnormals: a zero exponent field.
            3 => f64::from_bits(bits & ((1 << 52) - 1) | (bits & (1 << 63))),
            _ => Some(f64::from_bits(bits))
                .filter(|x| x.is_finite())
                .unwrap_or(0.5),
        }
    }

    fn string(rng: &mut TestRng) -> String {
        (0..draw(rng, 9))
            .map(|_| PALETTE[draw(rng, PALETTE.len())])
            .collect()
    }
}

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        // Below the top level, half the draws are containers of up to five
        // children, so trees regularly reach the depth cap.
        let kinds = if self.depth == 0 { 4 } else { 8 };
        let inner = ArbValue {
            depth: self.depth.saturating_sub(1),
        };
        match draw(rng, kinds) {
            0 => Value::Null,
            1 => Value::Bool(draw(rng, 2) == 1),
            2 => Value::Num(Self::number(rng)),
            3 => Value::Str(Self::string(rng)),
            4 | 5 => Value::Arr((0..draw(rng, 6)).map(|_| inner.generate(rng)).collect()),
            _ => {
                // Keys must be distinct: the parser rejects duplicates.
                let mut members: Vec<(String, Value)> = Vec::new();
                for _ in 0..draw(rng, 6) {
                    let key = Self::string(rng);
                    if members.iter().all(|(k, _)| *k != key) {
                        members.push((key, inner.generate(rng)));
                    }
                }
                Value::Obj(members)
            }
        }
    }
}

proptest! {
    #[test]
    fn random_trees_round_trip_and_write_a_fixed_point(v in ArbValue { depth: 8 }) {
        let text = v.to_json();
        let back = json::parse(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_json(), text);
    }
}

// --- Mutation -------------------------------------------------------------

/// Every committed valid document.
const DOCUMENTS: &[&str] = &[
    include_str!("../../../scenarios/d26_baseline.json"),
    include_str!("../../../scenarios/d26_dynamic_grid.json"),
    include_str!("../../../scenarios/d26_overclocked_fine.json"),
    include_str!("../../../scenarios/d26_saturated.json"),
    include_str!("../../../scenarios/d26_shutdown_stress.json"),
    include_str!("../../../scenarios/golden/d26_baseline.report.json"),
    include_str!("../../../scenarios/golden/d26_dynamic_grid.report.json"),
    include_str!("../../../scenarios/golden/d26_overclocked_fine.report.json"),
    include_str!("../../../scenarios/golden/d26_saturated.report.json"),
    include_str!("../../../scenarios/golden/d26_shutdown_stress.report.json"),
    include_str!("../../sweep/tests/corpus/valid_shard.json"),
    include_str!("../../sweep/tests/corpus/valid_frontier.json"),
    include_str!("../../fleet/tests/corpus/valid_delta.json"),
];

/// Replacements for a digit run: zero, negative, just past 2^53, near
/// the float ceiling, and 2^64 − 1.
const NUMBER_EDGES: &[&str] = &[
    "0",
    "-1",
    "9007199254740993",
    "1e308",
    "18446744073709551615",
];

/// One mutation, its positions drawn modulo the document length.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Flip { at: usize, byte: u8 },
    Truncate { at: usize },
    Delete { at: usize, len: usize },
    Duplicate { at: usize, len: usize },
    Number { run: usize, edge: usize },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0usize..5, 0usize..1 << 20, 1usize..64, 0u8..=255).prop_map(|(kind, at, len, byte)| match kind
    {
        0 => Mutation::Flip { at, byte },
        1 => Mutation::Truncate { at },
        2 => Mutation::Delete { at, len },
        3 => Mutation::Duplicate { at, len },
        _ => Mutation::Number {
            run: at,
            edge: byte as usize % NUMBER_EDGES.len(),
        },
    })
}

fn mutate(doc: &str, m: Mutation) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let n = bytes.len();
    if n == 0 {
        return String::new();
    }
    match m {
        Mutation::Flip { at, byte } => bytes[at % n] = byte,
        Mutation::Truncate { at } => bytes.truncate(at % n),
        Mutation::Delete { at, len } => {
            let at = at % n;
            bytes.drain(at..(at + len).min(n));
        }
        Mutation::Duplicate { at, len } => {
            let at = at % n;
            let copy = bytes[at..(at + len).min(n)].to_vec();
            bytes.splice(at..at, copy);
        }
        Mutation::Number { run, edge } => {
            let mut runs = Vec::new();
            let mut i = 0;
            while i < n {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i > start {
                    runs.push(start..i);
                }
                i += 1;
            }
            if let Some(r) = runs.get(run % runs.len().max(1)) {
                bytes.splice(r.clone(), NUMBER_EDGES[edge].bytes());
            }
        }
    }
    // Byte-level damage may split a UTF-8 sequence; the parsers take text.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `f` (one parser on `text`), turning a panic into a test failure.
fn no_panic<R>(name: &str, text: &str, f: impl FnOnce() -> R) -> Result<R, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|_| TestCaseError::fail(format!("{name} panicked on {text:?}")))
}

/// Runs every strict parser on `text`: none may panic, and a document
/// `json::parse` accepts must re-emit as a write fixed point.
fn check_every_parser(text: &str) -> Result<(), TestCaseError> {
    if let Some(v) = no_panic("json::parse", text, || json::parse(text).ok())? {
        let out = v.to_json();
        let again = json::parse(&out).map_err(|e| TestCaseError::fail(format!("{e}: {out}")))?;
        prop_assert_eq!(&again, &v);
        prop_assert_eq!(again.to_json(), out);
    }
    no_panic("Scenario::from_json", text, || {
        Scenario::from_json(text).is_ok()
    })?;
    no_panic("parse_shard_checkpoint", text, || {
        parse_shard_checkpoint(text).is_ok()
    })?;
    no_panic("merge_checkpoints", text, || {
        merge_checkpoints(&[text.to_string()]).is_ok()
    })?;
    no_panic("parse_frontier_file", text, || {
        parse_frontier_file(text).is_ok()
    })?;
    no_panic("parse_message", text, || parse_message(text).is_ok())?;
    Ok(())
}

#[test]
fn every_parser_accepts_its_committed_documents() {
    // The mutation base must be valid, or the mutations test nothing.
    for doc in DOCUMENTS {
        let v = json::parse(doc).expect("committed documents parse");
        assert_eq!(json::parse(&v.to_json()).unwrap().to_json(), v.to_json());
    }
    for doc in &DOCUMENTS[..5] {
        Scenario::from_json(doc).expect("committed scenarios ingest");
    }
    parse_shard_checkpoint(DOCUMENTS[10]).expect("valid_shard parses");
    parse_frontier_file(DOCUMENTS[11]).expect("valid_frontier parses");
    parse_message(DOCUMENTS[12].trim_end()).expect("valid_delta parses");
}

#[test]
fn deep_nesting_is_an_error_for_every_parser() {
    for deep in [
        "[".repeat(20_000),
        "[".repeat(200_000),
        "{\"a\":".repeat(100_000),
    ] {
        check_every_parser(&deep).unwrap();
        let err = json::parse(&deep).unwrap_err();
        assert!(err.msg.contains("nesting deeper than 128 levels"), "{err}");
        assert!(Scenario::from_json(&deep).is_err());
        assert!(parse_message(&deep).is_err());
    }
}

proptest! {
    #[test]
    fn mutated_documents_never_panic_a_parser(
        doc in 0..DOCUMENTS.len(),
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let text = mutations
            .into_iter()
            .fold(DOCUMENTS[doc].to_string(), |text, m| mutate(&text, m));
        check_every_parser(&text)?;
    }
}
