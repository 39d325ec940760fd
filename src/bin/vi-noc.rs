//! The `vi-noc` CLI: run complete experiments — SoC spec → synthesis →
//! floorplan → simulation → shutdown → sweep → dynamic sweep — from JSON
//! scenario files.
//!
//! ```text
//! vi-noc run      SCENARIO.json [--out report.json] [--frontier-out FILE]
//! vi-noc report   REPORT.json
//! vi-noc sweep    run|merge|info ...
//! vi-noc fleet    serve|work|run ...
//! vi-noc dynsweep run --scenario SCENARIO.json [--out table.json]
//! ```
//!
//! `dynsweep run` simulates every frontier point at every cell of the
//! scenario's declared sim grid and writes the `vi-noc-dynsweep-v1` table.
//! The implementation lives in [`vi_noc_api::cli`]; see `scenarios/` for
//! committed example experiments.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match vi_noc_api::cli::vi_noc_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vi-noc: {e}");
            eprintln!("{}", vi_noc_api::cli::usage(&args));
            ExitCode::from(2)
        }
    }
}
