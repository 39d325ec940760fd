//! Implementation of the `vi-noc` CLI.
//!
//! ```text
//! vi-noc run      SCENARIO.json [--out FILE] [--frontier-out FILE]
//! vi-noc report   REPORT.json
//! vi-noc sweep    run|refine|merge|info ...
//! vi-noc fleet    serve|work ...
//! ```
//!
//! `run` executes every stage a scenario declares, writes the report JSON
//! (a scenario without a `sweep` member has no sweep stage) and prints its
//! summary; `report` prints the same summary of a report file; `sweep` is
//! the sharded workflow over a scenario's sweep grid (one shard per
//! process, `--resume` and `--checkpoint-every` for preemptible shards),
//! whose `refine` windows the scenario's refinement grid exactly as `run`
//! does; `fleet` is the elastic alternative to static shards — `serve`
//! runs a coordinator that leases chain ranges to `work` processes, which
//! can join, die, and be replaced mid-sweep, with the frontier folded
//! byte-identically to `sweep run --frontier`. On one machine, `sweep run`
//! is the direct way: a loopback fleet only adds protocol overhead.
//!
//! Artifacts written to stdout fail the command (exit 2) when the write
//! fails, a closed pipe included; progress lines on stderr are best effort
//! and never change the exit code. Only a malformed command line
//! ([`CliError::Usage`]) is followed by the usage text.

use crate::error::Error;
use crate::fleet::{job_payload, ScenarioJobResolver};
use crate::report::report_summary;
use crate::scenario::Scenario;
use std::fmt;
use std::io::Write as _;
use std::time::Instant;
use vi_noc_fleet::FleetConfig;
use vi_noc_soc::{SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, merge_checkpoints, parse_shard_checkpoint, run_deltas, shard_checkpoint_json,
    GridDescriptor, RangeDelta, Shard, ShardProgress, SweepGrid,
};

/// Top-level usage text of the `vi-noc` binary.
pub const USAGE: &str = "\
usage:
  vi-noc run      SCENARIO.json [--out FILE] [--frontier-out FILE]
  vi-noc report   REPORT.json
  vi-noc sweep    run|refine|merge|info ...   (see `vi-noc sweep` for details)
  vi-noc fleet    serve|work ...              (see `vi-noc fleet` for details)";

/// Usage text of the `sweep` subcommand. The scenario names the grid:
/// `run` sweeps its `sweep` member (pruned when it sets `sweep_prune`),
/// `refine` its `refine` member around a coarse frontier.
pub const SWEEP_USAGE: &str = "\
usage:
  sweep run    --scenario FILE [--shard I/N] [--frontier] [--resume]
               [--checkpoint-every C] --out FILE
  sweep refine --scenario FILE --frontier-in COARSE.json [--shard I/N] [--frontier]
               [--resume] [--checkpoint-every C] --out FILE
  sweep merge  SHARD.json... --out FILE
  sweep info   --scenario FILE";

/// Usage text of the `fleet` subcommand.
pub const FLEET_USAGE: &str = "\
usage:
  fleet serve --scenario FILE [--listen ADDR] [--addr-file FILE] [--out FILE]
              [--lease-chunk N] [--lease-timeout-ms T] [--checkpoint-every C]
              [--verbose]
  fleet work  --connect HOST:PORT [--throttle-ms T]";

/// The usage text to print after a failed `args`: the subcommand's own
/// for `sweep` and `fleet`, [`USAGE`] otherwise.
pub fn usage(args: &[String]) -> &'static str {
    match args.first().map(String::as_str) {
        Some("sweep") => SWEEP_USAGE,
        Some("fleet") => FLEET_USAGE,
        _ => USAGE,
    }
}

/// A failed `vi-noc` command: the binary prints its message, followed by
/// the usage text for a [`CliError::Usage`] only.
#[derive(Debug, PartialEq)]
pub enum CliError {
    /// A malformed command line: an unknown command or option, a flag with
    /// no value or an unparsable one, a missing required argument, or an
    /// invalid flag combination.
    Usage(String),
    /// A well-formed command that failed.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (CliError::Usage(msg) | CliError::Failed(msg)) = self;
        f.write_str(msg)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

impl From<Error> for CliError {
    fn from(e: Error) -> Self {
        CliError::Failed(e.to_string())
    }
}

fn usage_error(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// The value after flag `name`.
fn flag_value(it: &mut std::slice::Iter<String>, name: &str) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| usage_error(format!("{name} needs a value")))
}

/// Entry point of the `vi-noc` binary.
///
/// # Errors
///
/// A printable message, and whether the command line was malformed.
pub fn vi_noc_cli(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("sweep") => sweep_cli(&args[1..]),
        Some("fleet") => fleet_cli(&args[1..]),
        Some(other) => Err(usage_error(format!("unknown command '{other}'"))),
        None => Err(usage_error("missing command")),
    }
}

/// Writes one diagnostic line to stderr, best effort: a closed or full
/// stderr must not change what the command does or its exit code.
macro_rules! note {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Writes an artifact to the file `out`, or to stdout for `None` and
/// `"-"`. A failed stdout write (a closed pipe included) is an error.
fn write_out(out: Option<&str>, text: &str) -> Result<(), String> {
    match out {
        None | Some("-") => {
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|e| format!("writing stdout: {e}"))
        }
        Some(path) => write_atomic(path, text),
    }
}

/// Writes `text` to the file `path` atomically: the bytes go to a sibling
/// temp file that is then renamed over `path`, so a concurrent reader (or a
/// `--resume` after a SIGKILL) sees the old file or the new one, never a
/// torn write. Nothing is fsynced: this guards against the process dying
/// mid-write, not against power loss. Symlinks and special files such as
/// `/dev/null` are written in place, since a rename would replace them.
fn write_atomic(path: &str, text: &str) -> Result<(), String> {
    let err = |e: std::io::Error| format!("writing {path}: {e}");
    let target = std::path::Path::new(path);
    let special = std::fs::symlink_metadata(target).is_ok_and(|m| !m.is_file());
    let Some(name) = target.file_name().filter(|_| !special) else {
        return std::fs::write(target, text).map_err(err);
    };
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = target.with_file_name(tmp_name);
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, target))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            err(e)
        })
}

// --- run -----------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let mut scenario_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut frontier_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(flag_value(&mut it, arg)?),
            "--frontier-out" => frontier_out = Some(flag_value(&mut it, arg)?),
            path if !path.starts_with('-') && scenario_path.is_none() => {
                scenario_path = Some(path.to_string())
            }
            other => return Err(usage_error(format!("unknown option '{other}'"))),
        }
    }
    let path = scenario_path.ok_or_else(|| usage_error("a scenario file is required"))?;
    let scenario = Scenario::from_json(&read_file(&path)?)?;
    if frontier_out.is_some() && scenario.sweep.is_none() {
        return Err(CliError::Failed(
            "--frontier-out requires the scenario to declare a sweep grid".into(),
        ));
    }
    note!("vi-noc: running scenario '{}' from {path}", scenario.name);
    let start = Instant::now();
    let report = scenario.run()?;
    note!("vi-noc: done in {:.2?}", start.elapsed());
    let text = report.to_json();
    if let (Some(fpath), Some(frontier)) = (&frontier_out, &report.frontier) {
        write_out(Some(fpath), frontier)?;
    }
    write_out(out.as_deref(), &text)?;
    // The summary is a diagnostic too: the report is written either way.
    match report_summary(&text) {
        Ok(summary) => note!("{}", summary.trim_end()),
        Err(e) => note!("vi-noc: the report does not read back: {e}"),
    }
    Ok(())
}

// --- report --------------------------------------------------------------

fn cmd_report(args: &[String]) -> Result<(), CliError> {
    let path = match args {
        [path] => path,
        _ => return Err(usage_error("report takes exactly one REPORT.json argument")),
    };
    Ok(write_out(None, &report_summary(&read_file(path)?)?)?)
}

// --- sweep ---------------------------------------------------------------

/// Entry point of the `sweep` subcommand.
fn sweep_cli(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("run") => sweep_run(&args[1..]),
        Some("refine") => sweep_refine(&args[1..]),
        Some("merge") => sweep_merge(&args[1..]),
        Some("info") => sweep_info(&args[1..]),
        Some(other) => Err(usage_error(format!("unknown command '{other}'"))),
        None => Err(usage_error("missing command")),
    }
}

/// Options shared by `sweep run`, `sweep refine` and `sweep info`: the
/// scenario names the grid, the flags say how to run it.
#[derive(Debug)]
struct SweepOpts {
    scenario: Scenario,
    spec: SocSpec,
    vi: ViAssignment,
    frontier_in: Option<String>,
    shard: Shard,
    frontier: bool,
    resume: bool,
    checkpoint_every: Option<u64>,
    out: Option<String>,
}

/// Parses the `sweep` flags; `refine` also takes (and requires)
/// `--frontier-in`.
fn parse_sweep_opts(args: &[String], refine: bool) -> Result<SweepOpts, CliError> {
    let mut scenario_path: Option<String> = None;
    let mut frontier_in: Option<String> = None;
    let mut shard = Shard::full();
    let mut frontier = false;
    let mut resume = false;
    let mut checkpoint_every: Option<u64> = None;
    let mut out: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => scenario_path = Some(flag_value(&mut it, arg)?),
            "--frontier-in" if refine => frontier_in = Some(flag_value(&mut it, arg)?),
            "--shard" => shard = Shard::parse(&flag_value(&mut it, arg)?).map_err(usage_error)?,
            "--frontier" => frontier = true,
            "--resume" => resume = true,
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    flag_value(&mut it, arg)?
                        .parse()
                        .map_err(|_| usage_error("bad --checkpoint-every value"))?,
                )
            }
            "--out" => out = Some(flag_value(&mut it, arg)?),
            other => return Err(usage_error(format!("unknown option '{other}'"))),
        }
    }

    if refine && frontier_in.is_none() {
        return Err(usage_error("--frontier-in COARSE.json is required"));
    }
    if frontier && shard != Shard::full() {
        return Err(usage_error(
            "--frontier requires the unsharded run (--shard 0/1)",
        ));
    }
    if resume && out.as_deref().is_none_or(|o| o == "-") {
        return Err(usage_error(
            "--resume needs --out FILE (the checkpoint to resume from)",
        ));
    }
    if checkpoint_every == Some(0) {
        return Err(usage_error("--checkpoint-every must be at least 1"));
    }
    if checkpoint_every.is_some() && out.as_deref().is_none_or(|o| o == "-") {
        return Err(usage_error("--checkpoint-every needs --out FILE"));
    }
    let scenario = sweep_scenario(scenario_path)?;
    let spec = scenario.resolve_spec()?;
    let vi = scenario.resolve_partition(&spec)?;
    Ok(SweepOpts {
        scenario,
        spec,
        vi,
        frontier_in,
        shard,
        frontier,
        resume,
        checkpoint_every,
        out,
    })
}

/// Loads the scenario behind the required `--scenario` and checks it
/// declares a sweep grid, the one thing `sweep` and `fleet` run.
fn sweep_scenario(path: Option<String>) -> Result<Scenario, CliError> {
    let path = path.ok_or_else(|| usage_error("--scenario FILE is required"))?;
    let scenario = Scenario::from_json(&read_file(&path)?)?;
    if scenario.sweep.is_none() {
        return Err(format!("scenario '{}' declares no sweep grid", scenario.name).into());
    }
    Ok(scenario)
}

/// The scenario's coarse grid.
fn coarse_grid(opts: &SweepOpts) -> SweepGrid {
    let grid_cfg = opts
        .scenario
        .sweep
        .as_ref()
        .expect("checked by sweep_scenario");
    SweepGrid::build(&opts.spec, &opts.vi, &opts.scenario.synthesis, grid_cfg)
}

fn sweep_run(args: &[String]) -> Result<(), CliError> {
    let opts = parse_sweep_opts(args, false)?;
    Ok(drive_sweep(&opts, &coarse_grid(&opts))?)
}

/// Sweeps the scenario's refinement grid, windowed around the survivors of
/// the `--frontier-in` coarse frontier exactly as [`Scenario::run`] windows
/// it, with the same sharding, resume and emission flags as `sweep run`.
fn sweep_refine(args: &[String]) -> Result<(), CliError> {
    let opts = parse_sweep_opts(args, true)?;
    let scenario = &opts.scenario;
    let Some(plan) = &scenario.refine else {
        return Err(format!("scenario '{}' declares no refine stage", scenario.name).into());
    };
    let path = opts.frontier_in.as_deref().expect("required by refine");
    let grid = scenario
        .refine_grid(&opts.spec, &opts.vi, plan, &read_file(path)?)
        .map_err(|e| format!("{path}: {e}"))?;
    note!(
        "sweep refine: {} window(s) around the survivors of {path}",
        grid.windows().len()
    );
    Ok(drive_sweep(&opts, &grid)?)
}

/// The shared shard driver of `sweep run` and `sweep refine`: resume,
/// periodic checkpoints, optional pruning, final emission.
fn drive_sweep(opts: &SweepOpts, grid: &SweepGrid) -> Result<(), String> {
    let (spec, vi, cfg) = (&opts.spec, &opts.vi, &opts.scenario.synthesis);
    let prune = opts.scenario.sweep_prune;
    let desc =
        GridDescriptor::for_grid(grid, spec.name(), &opts.scenario.partition.tag(), cfg.seed);
    note!(
        "sweep run: {} ({}), grid {} chains / {} candidates, shard {}{}",
        desc.spec_name,
        desc.partition,
        grid.num_active_chains(),
        grid.num_candidates(),
        opts.shard,
        if prune { ", slack pruning on" } else { "" }
    );

    // Restore a previous (possibly partial) checkpoint when resuming.
    let mut progress = ShardProgress::new();
    if opts.resume {
        let path = opts.out.as_deref().expect("validated by parse_sweep_opts");
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let parsed =
                    parse_shard_checkpoint(&text).map_err(|e| format!("resuming {path}: {e}"))?;
                if parsed.grid.to_json() != desc.to_json() {
                    return Err(format!(
                        "resuming {path}: checkpoint describes a different grid"
                    ));
                }
                if parsed.shard != opts.shard {
                    return Err(format!(
                        "resuming {path}: checkpoint covers shard {}, not {}",
                        parsed.shard, opts.shard
                    ));
                }
                progress = parsed.to_progress();
                note!(
                    "sweep run: resuming shard {} from {path} at {}/{} chains",
                    opts.shard,
                    progress.chains_done,
                    opts.shard.stripe_len(grid.num_chains())
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                note!("sweep run: no checkpoint at {path}, starting fresh");
            }
            Err(e) => return Err(format!("reading {path}: {e}")),
        }
    }

    let start = Instant::now();
    let stripe_len = opts.shard.stripe_len(grid.num_chains());
    let from = progress.chains_done;
    let mut emit = |delta: RangeDelta| {
        progress.absorb(delta);
        if progress.chains_done < stripe_len {
            // Periodic checkpoint so a killed process loses at most one delta.
            let path = opts.out.as_deref().expect("validated by parse_sweep_opts");
            write_atomic(path, &shard_checkpoint_json(&desc, opts.shard, &progress))?;
            note!(
                "sweep run: checkpoint at {}/{stripe_len} chains -> {path}",
                progress.chains_done
            );
        }
        Ok(())
    };
    let ids = opts.shard.chain_ids(grid.num_chains());
    let every = opts.checkpoint_every.unwrap_or(u64::MAX);
    run_deltas(spec, vi, grid, cfg, ids, from, every, prune, &mut emit)?;
    let elapsed = start.elapsed();
    note!(
        "sweep run: shard {} done in {elapsed:.2?}: {} chains ({} skipped by slack pruning), \
         {} feasible / {} duplicate / {} infeasible candidates, {} frontier points",
        opts.shard,
        progress.stats.chains,
        progress.pruned_chains,
        progress.stats.feasible,
        progress.stats.duplicates,
        progress.stats.infeasible,
        progress.frontier.len()
    );
    let text = if opts.frontier {
        frontier_json(&desc, &progress)
    } else {
        shard_checkpoint_json(&desc, opts.shard, &progress)
    };
    write_out(opts.out.as_deref(), &text)
}

fn sweep_merge(args: &[String]) -> Result<(), CliError> {
    let mut files = Vec::new();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(flag_value(&mut it, arg)?),
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        return Err(usage_error("merge needs at least one checkpoint file"));
    }
    let contents: Vec<String> = files
        .iter()
        .map(|p| read_file(p))
        .collect::<Result<_, _>>()?;
    let merged = merge_checkpoints(&contents)?;
    note!(
        "sweep merge: {} shard file(s) -> {} frontier bytes",
        files.len(),
        merged.len()
    );
    Ok(write_out(out.as_deref(), &merged)?)
}

fn sweep_info(args: &[String]) -> Result<(), CliError> {
    let opts = parse_sweep_opts(args, false)?;
    let grid = coarse_grid(&opts);
    let grid_cfg = grid.config();
    let rows = [
        ("spec:", opts.spec.name().to_string()),
        ("partition:", opts.scenario.partition.tag()),
        ("max boost:", grid_cfg.max_boost.to_string()),
        ("freq scales:", format!("{:?}", grid_cfg.freq_scales)),
        ("max mid:", grid_cfg.max_intermediate.to_string()),
        ("chain ids:", grid.num_chains().to_string()),
        ("active chains:", grid.num_active_chains().to_string()),
        ("candidates:", grid.num_candidates().to_string()),
        ("chain length:", grid.chain_len().to_string()),
    ];
    let info: String = rows.iter().map(|(k, v)| format!("{k:<17}{v}\n")).collect();
    Ok(write_out(None, &info)?)
}

// --- fleet ---------------------------------------------------------------

/// Entry point of the `fleet` subcommand: a scenario's sweep grid run by a
/// coordinator (`serve`) and worker processes (`work`) over TCP, folding the
/// frontier byte-identically to `sweep run --scenario FILE --frontier`.
fn fleet_cli(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("serve") => fleet_serve(&args[1..]),
        Some("work") => fleet_work(&args[1..]),
        Some(other) => Err(usage_error(format!("unknown command '{other}'"))),
        None => Err(usage_error("missing command")),
    }
}

fn fleet_serve(args: &[String]) -> Result<(), CliError> {
    let mut scenario_path: Option<String> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut addr_file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut cfg = FleetConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => scenario_path = Some(flag_value(&mut it, arg)?),
            "--listen" => listen = flag_value(&mut it, arg)?,
            "--addr-file" => addr_file = Some(flag_value(&mut it, arg)?),
            "--out" => out = Some(flag_value(&mut it, arg)?),
            "--verbose" => cfg.verbose = true,
            "--lease-chunk" | "--lease-timeout-ms" | "--checkpoint-every" => {
                let n: u64 = flag_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| usage_error(format!("bad {arg} value")))?;
                match arg.as_str() {
                    "--lease-timeout-ms" => cfg.lease_timeout = std::time::Duration::from_millis(n),
                    _ if n == 0 => return Err(usage_error(format!("{arg} must be at least 1"))),
                    "--lease-chunk" => cfg.lease_chunk = n,
                    _ => cfg.checkpoint_every = n,
                }
            }
            other => return Err(usage_error(format!("unknown option '{other}'"))),
        }
    }
    let scenario = sweep_scenario(scenario_path)?;
    let resolver: std::sync::Arc<dyn vi_noc_fleet::JobResolver> =
        std::sync::Arc::new(ScenarioJobResolver);
    let handle = vi_noc_fleet::start_coordinator(&listen, resolver, cfg)?;
    note!(
        "fleet serve: scenario '{}' on {} — join with `vi-noc fleet work --connect {}`",
        scenario.name,
        handle.addr(),
        handle.addr()
    );
    // The resolved address lets scripts bind port 0 and still find us.
    if let Some(path) = &addr_file {
        write_atomic(path, &format!("{}\n", handle.addr()))?;
    }
    let start = Instant::now();
    let result = handle.submit(&job_payload(&scenario, None));
    handle.shutdown();
    let frontier = result?;
    note!("fleet serve: frontier folded in {:.2?}", start.elapsed());
    Ok(write_out(out.as_deref(), &frontier)?)
}

fn fleet_work(args: &[String]) -> Result<(), CliError> {
    let mut connect: Option<String> = None;
    let mut opts = vi_noc_fleet::WorkerOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(flag_value(&mut it, arg)?),
            "--throttle-ms" => {
                let ms: u64 = flag_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| usage_error("bad --throttle-ms value"))?;
                opts.throttle = std::time::Duration::from_millis(ms);
            }
            other => return Err(usage_error(format!("unknown option '{other}'"))),
        }
    }
    let connect = connect.ok_or_else(|| usage_error("--connect HOST:PORT is required"))?;
    let addr = std::net::ToSocketAddrs::to_socket_addrs(connect.as_str())
        .map_err(|e| format!("resolving {connect}: {e}"))?
        .next()
        .ok_or_else(|| format!("{connect} resolves to no address"))?;
    let stats = vi_noc_fleet::run_worker(addr, &ScenarioJobResolver, &opts)?;
    note!(
        "fleet work: {} lease(s) done, {} delta(s) acked carrying {} entries, {} abandoned",
        stats.leases,
        stats.deltas,
        stats.entries,
        stats.abandoned
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_commands_are_reported() {
        let err = vi_noc_cli(&["explode".to_string()]).unwrap_err();
        assert_eq!(err, usage_error("unknown command 'explode'"));
        assert_eq!(sweep_cli(&[]), Err(usage_error("missing command")));
        // A loopback fleet is `sweep run` with protocol overhead: a fleet
        // is `serve` plus `work` processes.
        let err = vi_noc_cli(&args(&["fleet", "run", "--workers", "2"])).unwrap_err();
        assert_eq!(err, usage_error("unknown command 'run'"));
    }

    /// `err` is a malformed command line whose message holds `needle`.
    fn is_usage(err: &CliError, needle: &str) -> bool {
        matches!(err, CliError::Usage(msg) if msg.contains(needle))
    }

    /// The committed scenario `scenarios/{name}.json`.
    fn scenario(name: &str) -> String {
        format!("{}/../../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"))
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn sweep_opts_validate_flag_combinations() {
        let fine = scenario("d26_overclocked_fine");
        let parse = |extra: &[&str]| {
            parse_sweep_opts(&args(&[&["--scenario", &fine], extra].concat()), false)
        };
        // --frontier with a real shard is rejected.
        let err = parse(&["--shard", "1/3", "--frontier"]).unwrap_err();
        assert!(is_usage(&err, "--frontier"), "{err:?}");
        // --resume and --checkpoint-every need the --out file.
        let err = parse(&["--resume"]).unwrap_err();
        assert!(is_usage(&err, "--resume"), "{err:?}");
        let err = parse(&["--checkpoint-every", "2"]).unwrap_err();
        assert!(is_usage(&err, "--checkpoint-every needs --out"), "{err:?}");
        // The scenario is mandatory, must declare a sweep grid, and is the
        // only way to name one: the grid flags are gone, and `--frontier-in`
        // belongs to `refine`.
        let err = parse_sweep_opts(&args(&["--shard", "0/2"]), false).unwrap_err();
        assert!(is_usage(&err, "--scenario FILE is required"), "{err:?}");
        let err = parse_sweep_opts(&args(&["--scenario", &scenario("d26_saturated")]), false)
            .unwrap_err();
        let no_grid = "scenario 'd26 saturated' declares no sweep grid";
        assert_eq!(err, CliError::Failed(no_grid.into()));
        for deleted in [
            "--spec",
            "--islands",
            "--max-boost",
            "--seq",
            "--prune",
            "--frontier-in",
        ] {
            let err = parse(&[deleted, "1"]).unwrap_err();
            assert_eq!(err, usage_error(format!("unknown option '{deleted}'")));
        }
        let opts = parse(&["--shard", "0/2"]).unwrap();
        assert_eq!(opts.shard, Shard::new(0, 2).unwrap());
        assert_eq!(opts.scenario.name, "d26 overclocked fine grid");
    }

    #[test]
    fn sweep_refine_validates_its_flags() {
        let dynamic = scenario("d26_dynamic_grid");
        // The coarse frontier is mandatory.
        let err = sweep_refine(&args(&["--scenario", &dynamic])).unwrap_err();
        assert!(is_usage(&err, "--frontier-in"), "{err:?}");
        // The radii are the scenario's `refine` member's.
        for deleted in ["--boost-radius", "--base-radius", "--scale-window"] {
            let err = sweep_refine(&args(&["--frontier-in", "f.json", deleted, "1"])).unwrap_err();
            assert_eq!(err, usage_error(format!("unknown option '{deleted}'")));
        }
        // A scenario without a `refine` member has no fine grid.
        let fine = scenario("d26_overclocked_fine");
        let err =
            sweep_refine(&args(&["--frontier-in", "f.json", "--scenario", &fine])).unwrap_err();
        let no_refine = "scenario 'd26 overclocked fine grid' declares no refine stage";
        assert_eq!(err, CliError::Failed(no_refine.into()));
        // A missing frontier file fails with the path in the message.
        let missing = "/nonexistent/f.json";
        let err =
            sweep_refine(&args(&["--frontier-in", missing, "--scenario", &dynamic])).unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains(missing)),
            "{err:?}"
        );
    }

    #[test]
    fn frontier_out_is_rejected_before_the_run() {
        // Resolving island 6 of six would fail the run: the flag must fail
        // first, with its own message.
        let path =
            std::env::temp_dir().join(format!("vi-noc-no-sweep-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"name":"no sweep","spec":{"benchmark":"d26"},
            "partition":{"kind":"logical","islands":6},"shutdown":{"island":6}}"#,
        )
        .unwrap();
        let path = path.display().to_string();
        let err = cmd_run(&args(&[&path, "--frontier-out", "/nonexistent/f.json"])).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        let msg = "--frontier-out requires the scenario to declare a sweep grid";
        assert_eq!(err, CliError::Failed(msg.into()));
    }

    #[test]
    fn report_reads_its_members_strictly() {
        let golden = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/golden/d26_baseline.report.json"
        );
        report_summary(&read_file(golden).unwrap()).unwrap();
        // A report cut short after its header fails on the first missing
        // member instead of printing placeholders.
        let path = std::env::temp_dir().join(format!("vi-noc-report-{}.json", std::process::id()));
        std::fs::write(
            &path,
            "{\"format\":\"vi-noc-report-v1\",\"scenario\":\"x\",\"spec_name\":\"d12\",\
             \"island_count\":4,\"explored_points\":1}",
        )
        .unwrap();
        let err = cmd_report(&[path.display().to_string()]).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err, CliError::Failed("report: missing 'point'".into()));
    }
}
