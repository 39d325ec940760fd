//! Malformed-message corpus for the fleet wire protocol, extending the
//! pattern of `crates/sweep/tests/corpus/`: every fixture under
//! `tests/corpus/` is one protocol line with one deliberate defect, and
//! the parser — or, for the stateful cases, the lease book — must reject
//! it with the exact pinned error. `valid_delta.json` pins that the
//! corpus base itself still parses; if the wire format evolves,
//! regenerate the corpus rather than letting the negative cases rot.

use std::time::Instant;
use vi_noc_fleet::{grid_fingerprint, parse_message, FleetConfig, LeaseBook, Message};
use vi_noc_sweep::GridDescriptor;

/// Parse-level fixtures: (name, line, exact error). These never reach the
/// lease book — the line itself is malformed.
const PARSE_CASES: &[(&str, &str, &str)] = &[
    (
        "truncated_delta",
        include_str!("corpus/truncated_delta.json"),
        "JSON error at byte 109: unterminated string",
    ),
    (
        "missing_type",
        include_str!("corpus/missing_type.json"),
        "message: missing 'type'",
    ),
    (
        "unknown_type",
        include_str!("corpus/unknown_type.json"),
        "message: unknown type 'gossip'",
    ),
    (
        "wrong_protocol",
        include_str!("corpus/wrong_protocol.json"),
        "hello: protocol 'vi-noc-fleet-v0' is not 'vi-noc-fleet-v3'",
    ),
    (
        "bad_lease_id",
        include_str!("corpus/bad_lease_id.json"),
        "delta: 'lease_id' is not an unsigned integer",
    ),
    (
        "delta_missing_stats",
        include_str!("corpus/delta_missing_stats.json"),
        "delta: missing 'stats'",
    ),
    (
        "entries_not_array",
        include_str!("corpus/entries_not_array.json"),
        "delta: 'entries' is not an array",
    ),
    (
        "negative_from",
        include_str!("corpus/negative_from.json"),
        "delta: 'from' is not an unsigned integer",
    ),
    (
        "submit_missing_job",
        include_str!("corpus/submit_missing_job.json"),
        "message: unknown type 'submit'",
    ),
    (
        "lease_bad_grid_fp",
        include_str!("corpus/lease_bad_grid_fp.json"),
        "lease: 'grid_fp' is not a string",
    ),
];

#[test]
fn every_malformed_message_is_rejected_with_its_pinned_error() {
    for &(name, line, want) in PARSE_CASES {
        let err = parse_message(line).unwrap_err();
        assert_eq!(err, want, "{name}");
    }
}

/// The grid the stateful fixtures were generated against. Its serialized
/// descriptor hashes to the `grid_fp` baked into the fixtures — asserted
/// below, so a descriptor-format change tells you to regenerate them.
fn corpus_desc() -> GridDescriptor {
    GridDescriptor {
        spec_name: "toy".to_string(),
        island_count: 2,
        partition: "logical:2".to_string(),
        seed: 1,
        max_boost: 1,
        freq_scales: vec![1.0],
        max_intermediate: 1,
        num_chains: 8,
        windows: Vec::new(),
    }
}

/// A book with one lease (id 1, range 0..8) issued — the state the
/// stateful fixtures assume.
fn corpus_book() -> LeaseBook {
    let mut book = LeaseBook::new(FleetConfig {
        lease_chunk: 8,
        checkpoint_every: 2,
        ..FleetConfig::default()
    });
    book.submit("toy-job", &corpus_desc()).unwrap();
    let lease = book.next_lease(Instant::now()).unwrap();
    assert_eq!(lease.lease_id, 1, "the corpus assumes the first lease id");
    assert_eq!(
        lease.grid_fp,
        grid_fingerprint(&corpus_desc().to_json()),
        "descriptor format drifted — regenerate the corpus grid_fp"
    );
    assert_eq!(lease.grid_fp, "c110e3979ccf6304", "fixtures bake this fp");
    book
}

fn as_delta(line: &str) -> vi_noc_fleet::Delta {
    match parse_message(line).unwrap() {
        Message::Delta(d) => d,
        other => panic!("fixture is not a delta: {other:?}"),
    }
}

#[test]
fn the_valid_base_fixture_parses_and_folds() {
    let mut book = corpus_book();
    let d = as_delta(include_str!("corpus/valid_delta.json"));
    let outcome = book.fold_delta(&d, Instant::now()).unwrap();
    assert_eq!(outcome.done(), 2);
}

#[test]
fn a_descriptor_mismatch_is_rejected_before_any_folding() {
    let mut book = corpus_book();
    let d = as_delta(include_str!("corpus/descriptor_mismatch.json"));
    let err = book.fold_delta(&d, Instant::now()).unwrap_err();
    assert_eq!(
        err,
        "delta: grid fingerprint 'deadbeefdeadbeef' does not match the job's 'c110e3979ccf6304'"
    );
    // Nothing advanced: the valid delta still folds from position 0.
    let d = as_delta(include_str!("corpus/valid_delta.json"));
    assert_eq!(book.fold_delta(&d, Instant::now()).unwrap().done(), 2);
}

#[test]
fn a_duplicate_ack_is_rejected_and_folds_nothing_twice() {
    let mut book = corpus_book();
    let valid = as_delta(include_str!("corpus/valid_delta.json"));
    book.fold_delta(&valid, Instant::now()).unwrap();
    // Replaying the same interval is a duplicate ack...
    let err = book.fold_delta(&valid, Instant::now()).unwrap_err();
    assert_eq!(err, "delta: duplicate ack at 0 (the watermark is 2)");
    // ...and so is a delta starting past the watermark (a gap).
    let ahead = as_delta(include_str!("corpus/stale_watermark.json"));
    book.fold_delta(&ahead, Instant::now()).unwrap();
    let err = book.fold_delta(&ahead, Instant::now()).unwrap_err();
    assert_eq!(err, "delta: duplicate ack at 2 (the watermark is 4)");
}

#[test]
fn an_unknown_lease_is_rejected() {
    let mut book = corpus_book();
    let mut d = as_delta(include_str!("corpus/valid_delta.json"));
    d.lease_id = 42;
    let err = book.fold_delta(&d, Instant::now()).unwrap_err();
    assert_eq!(err, "delta: unknown lease 42");
}
