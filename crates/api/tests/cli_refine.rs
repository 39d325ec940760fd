//! The CLI and the library refine alike: on a scenario with a `refine`
//! member, `vi-noc sweep run --frontier` → `sweep refine` on two shards →
//! `sweep merge` writes exactly the frontier `Scenario::run` embeds in its
//! report, and so does one unsharded `sweep refine --frontier`. Both read
//! the fine grid and the window radii from the scenario, through the one
//! window derivation `Scenario::run` calls.

use vi_noc_api::cli::vi_noc_cli;
use vi_noc_api::Scenario;

const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/d26_dynamic_grid.json"
);

fn scratch(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("vi-noc-cli-refine-{}-{name}", std::process::id()));
    p.display().to_string()
}

fn cli(words: &[&str]) {
    let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
    if let Err(e) = vi_noc_cli(&args) {
        panic!("vi-noc {}: {e}", words.join(" "));
    }
}

#[test]
fn sharded_sweep_refine_merges_to_the_frontier_of_scenario_run() {
    let report = Scenario::from_json(&std::fs::read_to_string(SCENARIO).unwrap())
        .unwrap()
        .run()
        .unwrap();
    let want = report.frontier.expect("the scenario declares a sweep");

    let [coarse, r0, r1, merged, unsharded] =
        ["coarse", "r0", "r1", "merged", "unsharded"].map(|n| scratch(&format!("{n}.json")));
    cli(&[
        "sweep",
        "run",
        "--scenario",
        SCENARIO,
        "--frontier",
        "--out",
        &coarse,
    ]);
    for (shard, out) in [("0/2", &r0), ("1/2", &r1)] {
        cli(&[
            "sweep",
            "refine",
            "--scenario",
            SCENARIO,
            "--frontier-in",
            &coarse,
            "--shard",
            shard,
            "--out",
            out,
        ]);
    }
    cli(&["sweep", "merge", &r0, &r1, "--out", &merged]);
    cli(&[
        "sweep",
        "refine",
        "--scenario",
        SCENARIO,
        "--frontier-in",
        &coarse,
        "--frontier",
        "--out",
        &unsharded,
    ]);
    let read = |p: &str| std::fs::read_to_string(p).unwrap();
    let (merged_text, unsharded_text) = (read(&merged), read(&unsharded));
    for p in [&coarse, &r0, &r1, &merged, &unsharded] {
        let _ = std::fs::remove_file(p);
    }
    assert!(
        merged_text == want,
        "sharded refine + merge differs from Scenario::run's frontier"
    );
    assert!(
        unsharded_text == want,
        "unsharded refine differs from Scenario::run's frontier"
    );
}
