//! The `vi-noc` CLI: run complete experiments — SoC spec → synthesis →
//! floorplan → simulation → shutdown → sweep → dynamic sweep — from JSON
//! scenario files.
//!
//! ```text
//! vi-noc run      SCENARIO.json [--out report.json] [--frontier-out FILE]
//! vi-noc report   REPORT.json
//! vi-noc sweep    run|refine|merge|info ...
//! vi-noc fleet    serve|work ...
//! ```
//!
//! A scenario's `dyn_sweep` member simulates every frontier point at every
//! cell of its declared sim grid; `run` embeds the `vi-noc-dynsweep-v1`
//! table in the report. The implementation lives in [`vi_noc_api::cli`];
//! see `scenarios/` for committed example experiments.

use std::io::Write;
use std::process::ExitCode;
use vi_noc_api::cli::{usage, vi_noc_cli, CliError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match vi_noc_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // The usage text follows only a malformed command line. Best
            // effort: a closed stderr must not turn exit 2 into a panic.
            let mut stderr = std::io::stderr();
            let _ = writeln!(stderr, "vi-noc: {e}");
            if let CliError::Usage(_) = e {
                let _ = writeln!(stderr, "{}", usage(&args));
            }
            ExitCode::from(2)
        }
    }
}
