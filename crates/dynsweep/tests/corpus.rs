//! Malformed-input corpus for the `vi-noc-dynsweep-v1` table parser:
//! every fixture under `tests/corpus/` is a real emitted table (a d12
//! single-point dynamic sweep, one free-running and one gated cell) with
//! one deliberate defect, and `parse_table` must reject it with a
//! path-contexted error naming that defect. The `valid_exact` fixture
//! pins that the corpus base itself still parses — if the format evolves,
//! regenerate the corpus rather than letting the negative cases rot into
//! testing yesterday's format.

use vi_noc_dynsweep::parse_table;

/// Table fixtures: (name, contents, substring the error must contain).
const CASES: &[(&str, &str, &str)] = &[
    (
        "wrong_format",
        include_str!("corpus/wrong_format.json"),
        "table: format 'vi-noc-dynsweep-v9' is not 'vi-noc-dynsweep-v1'",
    ),
    (
        "bad_mode",
        include_str!("corpus/bad_mode.json"),
        "table: mode 'fuzzy' is not 'exact'",
    ),
    (
        "truncated_table",
        include_str!("corpus/truncated_table.json"),
        "JSON error at byte",
    ),
    (
        "bad_load_axis",
        include_str!("corpus/bad_load_axis.json"),
        "axes: 'loads' must be a non-empty array of positive finite numbers",
    ),
    (
        "duplicate_load",
        include_str!("corpus/duplicate_load.json"),
        "axes: loads[1] repeats loads[0]",
    ),
    (
        "short_signature",
        include_str!("corpus/short_signature.json"),
        "points[0]: 'island_signature' is not a 16-hex-digit string",
    ),
    (
        "cell_out_of_order",
        include_str!("corpus/cell_out_of_order.json"),
        "cells[0]: cell is out of canonical order",
    ),
    (
        "missing_shutdown_stats",
        include_str!("corpus/missing_shutdown_stats.json"),
        "cells[1]: gated cell is missing 'shutdown' stats",
    ),
    (
        "clusters_in_exact",
        include_str!("corpus/clusters_in_exact.json"),
        "table: unknown member 'clusters'",
    ),
    (
        "reused_in_exact",
        include_str!("corpus/reused_in_exact.json"),
        "cells[0]: provenance is not 'exact'",
    ),
    (
        "unknown_member",
        include_str!("corpus/unknown_member.json"),
        "table: unknown member 'comment'",
    ),
];

#[test]
fn the_corpus_base_table_parses_cleanly() {
    let exact =
        parse_table(include_str!("corpus/valid_exact.json")).expect("valid exact fixture parses");
    assert_eq!(exact.points.len(), 1);
    assert_eq!(exact.cells.len(), 2);
}

#[test]
fn every_malformed_table_is_rejected_with_its_pinned_message() {
    for (name, text, needle) in CASES {
        let err = parse_table(text)
            .map(|_| ())
            .expect_err(&format!("{name}: parsed despite its defect"));
        assert!(
            err.contains(needle),
            "{name}: error {err:?} does not contain {needle:?}"
        );
    }
}
