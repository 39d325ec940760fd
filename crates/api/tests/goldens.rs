//! Every committed scenario that has a golden report reproduces it byte for
//! byte: `scenarios/<stem>.json` → `Scenario::from_json` → `run` →
//! `Report::to_json` must equal `scenarios/golden/<stem>.report.json`.
//!
//! The reports cover every stage, the floorplan included, so a drift in
//! any of them fails here and not only in the CLI `cmp` steps. Debug and
//! release builds emit the same bytes, so this runs in the plain test
//! profile.

use std::path::{Path, PathBuf};
use vi_noc_api::{report_summary, Scenario};
use vi_noc_core::json;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// `(stem, scenario path, golden path)` for every scenario with a golden.
fn golden_cases() -> Vec<(String, PathBuf, PathBuf)> {
    let dir = scenarios_dir();
    let mut cases: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .filter_map(|scenario| {
            let stem = scenario.file_stem()?.to_str()?.to_string();
            let golden = dir.join("golden").join(format!("{stem}.report.json"));
            golden.is_file().then_some((stem, scenario, golden))
        })
        .collect();
    cases.sort();
    cases
}

#[test]
fn every_golden_report_is_reproduced_byte_for_byte() {
    let cases = golden_cases();
    let stems: Vec<&str> = cases.iter().map(|c| c.0.as_str()).collect();
    assert_eq!(
        stems,
        [
            "d26_baseline",
            "d26_dynamic_grid",
            "d26_overclocked_fine",
            "d26_saturated",
            "d26_shutdown_stress",
        ],
        "the committed goldens"
    );
    for (stem, scenario, golden) in &cases {
        let text = std::fs::read_to_string(scenario).unwrap();
        let report = Scenario::from_json(&text)
            .and_then(|s| s.run())
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        let want = std::fs::read_to_string(golden).unwrap();
        assert!(
            report.to_json() == want,
            "{stem}: report differs from {}",
            golden.display()
        );
    }
}

#[test]
fn the_stepped_engine_reproduces_every_simulated_golden() {
    // Batching is exact: the reference engine, which ticks every island at
    // every clock edge, must write the same reports. Only Rust selects it.
    let cases = golden_cases();
    for stem in ["d26_baseline", "d26_saturated", "d26_shutdown_stress"] {
        let (_, scenario, golden) = cases.iter().find(|c| c.0 == stem).unwrap();
        let mut scenario = Scenario::from_json(&std::fs::read_to_string(scenario).unwrap())
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        let sim = scenario.sim.as_mut().expect("a simulated scenario");
        assert!(sim.config.batching, "{stem}: batched by default");
        sim.config.batching = false;
        let report = scenario.run().unwrap_or_else(|e| panic!("{stem}: {e}"));
        let want = std::fs::read_to_string(golden).unwrap();
        assert!(
            report.to_json() == want,
            "{stem}: the stepped report differs from {}",
            golden.display()
        );
    }
}

#[test]
fn the_summary_names_every_section_each_golden_carries() {
    for (stem, _, golden) in golden_cases() {
        let text = std::fs::read_to_string(golden).unwrap();
        let doc = json::parse(&text).unwrap();
        let summary = report_summary(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let mut want = vec!["scenario '", "  synthesis: ", "  floorplan: "];
        for (member, line) in [
            ("sim", "  simulated "),
            ("shutdown", " gated: drained cleanly = "),
            ("frontier", "  sweep frontier: "),
            ("dyn_sweep", "  dynamic sweep: "),
        ] {
            if doc.get(member).is_some() {
                want.push(line);
            }
        }
        if doc
            .get("sim")
            .and_then(|s| s.get("measured_power_mw"))
            .is_some()
        {
            want.push("  measured NoC power: ");
        }
        assert_eq!(summary.lines().count(), want.len(), "{stem}:\n{summary}");
        for line in want {
            assert!(summary.contains(line), "{stem} lacks {line:?}:\n{summary}");
        }
    }
    let dynamic =
        std::fs::read_to_string(scenarios_dir().join("golden/d26_dynamic_grid.report.json"))
            .unwrap();
    let summary = report_summary(&dynamic).unwrap();
    assert!(
        summary.ends_with("  dynamic sweep: 36 cell(s) simulated over 3 frontier point(s)\n"),
        "{summary}"
    );
}
