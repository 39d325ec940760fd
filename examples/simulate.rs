//! End-to-end dynamic validation as a *data-driven* experiment: the
//! committed `scenarios/d26_baseline.json` declares the whole flow —
//! synthesize the D26 NoC, realize it on a floorplan, simulate CBR traffic
//! with the event-batched engine, power-gate an island mid-run, and sweep
//! the paper-equivalent design grid — and this example is now just a thin
//! wrapper that executes it through the unified [`vi_noc::Scenario`] API.
//!
//! ```sh
//! cargo run --release --example simulate
//! ```
//!
//! The same experiment runs without any Rust at all:
//!
//! ```sh
//! cargo run --release --bin vi-noc -- run scenarios/d26_baseline.json
//! ```

use vi_noc::api::report_summary;
use vi_noc::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::from_json(include_str!("../scenarios/d26_baseline.json"))?;
    let report = scenario.run()?;
    // The report (chosen design point, realized metrics, SimStats, sweep
    // frontier) serializes byte-deterministically — this is what
    // `vi-noc run --out report.json` writes and CI diffs against a golden —
    // and its summary is what `vi-noc report report.json` prints.
    let json = report.to_json();
    assert_eq!(json, report.to_json());
    print!("{}", report_summary(&json)?);

    // The paper's headline property, as asserted by the old hand-chained
    // example: the gated island drains cleanly and the surviving islands'
    // traffic never stalls.
    let shutdown = report.shutdown.as_ref().expect("scenario gates an island");
    assert!(shutdown.outcome.drained_cleanly);
    assert!(shutdown.outcome.survivors_after >= shutdown.outcome.survivors_before);
    println!("shutdown left surviving traffic undisturbed");
    println!("report: {} bytes of deterministic JSON", json.len());
    Ok(())
}
