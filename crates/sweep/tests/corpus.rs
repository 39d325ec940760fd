//! Malformed-input corpus for the sweep JSON layer: every fixture under
//! `tests/corpus/` is a real checkpoint or frontier file (generated by a
//! d16 windowed run) with one deliberate defect, and the parser must
//! reject it with a path-contexted error naming that defect. The two
//! `valid_*` fixtures pin that the corpus base itself still parses —
//! if the format evolves, regenerate the corpus rather than letting the
//! negative cases rot into testing yesterday's format.

use vi_noc_sweep::{merge_checkpoints, parse_frontier_file, parse_shard_checkpoint};

/// Frontier-file fixtures: (name, contents, substring the error must
/// contain).
const FRONTIER_CASES: &[(&str, &str, &str)] = &[
    (
        "truncated_frontier",
        include_str!("corpus/truncated_frontier.json"),
        "JSON error at byte",
    ),
    (
        "duplicate_key",
        include_str!("corpus/duplicate_key.json"),
        "duplicate object key 'seed'",
    ),
    (
        "boost_arity",
        include_str!("corpus/boost_arity.json"),
        "frontier[0]: boosts arity 3 does not match the grid's island_count 4",
    ),
    (
        "chain_out_of_range",
        include_str!("corpus/chain_out_of_range.json"),
        "frontier[0]: chain_id 500 is outside the grid's 96 chains",
    ),
    (
        "ordinal_mismatch",
        include_str!("corpus/ordinal_mismatch.json"),
        "frontier[0]: ordinal 99 does not belong to chain 4 (chain length 2)",
    ),
    (
        "out_of_window",
        include_str!("corpus/out_of_window.json"),
        "frontier[0]: chain 4 lies outside every refinement window",
    ),
    (
        "bad_scale",
        include_str!("corpus/bad_scale.json"),
        "frontier[0]: scale 3 is not a grid scale",
    ),
    (
        "key_mismatch",
        include_str!("corpus/key_mismatch.json"),
        "frontier[0]: key fields disagree with point metrics",
    ),
    (
        "wrong_format",
        include_str!("corpus/wrong_format.json"),
        "frontier: format 'vi-noc-sweep-frontier-v9' is not",
    ),
    (
        "negative_boost",
        include_str!("corpus/negative_boost.json"),
        "frontier[0]: boost is not an unsigned integer",
    ),
    (
        "missing_stats",
        include_str!("corpus/missing_stats.json"),
        "frontier: missing 'stats'",
    ),
    (
        "stats_off_grid",
        include_str!("corpus/stats_off_grid.json"),
        "frontier: stats count 23 chains + 74 inactive_chains, not the grid's num_chains 96",
    ),
];

#[test]
fn the_corpus_base_files_parse_cleanly() {
    let frontier = parse_frontier_file(include_str!("corpus/valid_frontier.json"))
        .expect("valid frontier fixture parses");
    assert_eq!(frontier.entries.len(), 1);
    let shard = parse_shard_checkpoint(include_str!("corpus/valid_shard.json"))
        .expect("valid shard fixture parses");
    assert_eq!(shard.entries.len(), 1);
    assert!(shard.is_complete().unwrap(), "fixture covers its stripe");
}

#[test]
fn every_tampered_frontier_fixture_is_rejected_with_context() {
    for (name, text, want) in FRONTIER_CASES {
        let err = parse_frontier_file(text)
            .err()
            .unwrap_or_else(|| panic!("{name}: tampered fixture parsed cleanly"));
        assert!(
            err.contains(want),
            "{name}: error {err:?} does not mention {want:?}"
        );
    }
}

#[test]
fn tampered_shard_checkpoints_are_rejected_by_parse_and_merge() {
    let truncated = include_str!("corpus/truncated_shard.json");
    let err = parse_shard_checkpoint(truncated).unwrap_err();
    assert!(err.contains("JSON error at byte"), "parse: {err}");
    // Through `merge`, the same defect gains the file's position context.
    let err = merge_checkpoints(&[truncated.to_string()]).unwrap_err();
    assert!(
        err.starts_with("checkpoint #0:") && err.contains("JSON error at byte"),
        "merge: {err}"
    );
}

/// Shard-checkpoint fixtures with a bad `chains_done` watermark: (name,
/// contents, exact parse error). Both derive from `valid_shard`, shard
/// 0/2 of a 96-chain grid, whose stripe is 48 chains.
const WATERMARK_CASES: &[(&str, &str, &str)] = &[
    (
        "missing_chains_done",
        include_str!("corpus/missing_chains_done.json"),
        "checkpoint: missing 'chains_done'",
    ),
    (
        "chains_done_above_stripe",
        include_str!("corpus/chains_done_above_stripe.json"),
        "checkpoint: chains_done 999999 is above the 48 chains of shard 0/2",
    ),
];

#[test]
fn a_missing_or_overlong_watermark_is_rejected_by_parse_and_merge() {
    for (name, text, want) in WATERMARK_CASES {
        assert_eq!(parse_shard_checkpoint(text).unwrap_err(), *want, "{name}");
        // Neither passes as a complete shard: merge names the file.
        let err = merge_checkpoints(&[text.to_string()]).unwrap_err();
        assert_eq!(err, format!("checkpoint #0: {want}"), "{name}");
    }
}

/// Shard-checkpoint fixtures whose entries or counters do not belong to
/// their stripe: (name, contents, exact parse error). All derive from
/// `valid_shard` (shard 0/2 of a 96-chain grid, 48 stripe positions, one
/// entry of chain 4, at stripe position 2).
const STRIPE_CASES: &[(&str, &str, &str)] = &[
    (
        "entry_of_another_stripe",
        include_str!("corpus/entry_of_another_stripe.json"),
        "frontier[0]: chain 4 is not in the stripe of shard 1/2",
    ),
    (
        "entry_past_watermark",
        include_str!("corpus/entry_past_watermark.json"),
        "frontier[0]: chain 4 is at stripe position 2, not below chains_done 2",
    ),
    (
        "stats_off_stripe",
        include_str!("corpus/stats_off_stripe.json"),
        "checkpoint: stats count 11 chains + 38 inactive_chains, not chains_done 48",
    ),
];

#[test]
fn entries_and_counters_off_their_stripe_are_rejected() {
    for (name, text, want) in STRIPE_CASES {
        assert_eq!(parse_shard_checkpoint(text).unwrap_err(), *want, "{name}");
        let err = merge_checkpoints(&[text.to_string()]).unwrap_err();
        assert_eq!(err, format!("checkpoint #0: {want}"), "{name}");
    }
}

#[test]
fn a_crafted_shard_count_fails_merge_instead_of_allocating() {
    // Shard 0 of `"count":9007199254740992` (2^53, the largest count
    // `Shard::new` admits), a consistent record of the one-chain stripe
    // that count leaves it: merge must report the first missing shard, not
    // size a table by the untrusted count.
    let err =
        merge_checkpoints(&[include_str!("corpus/huge_shard_count.json").to_string()]).unwrap_err();
    assert_eq!(err, "shard 1/9007199254740992 is missing");
}
