//! Implementation of the `vi-noc` CLI.
//!
//! ```text
//! vi-noc run      SCENARIO.json [--out FILE] [--frontier-out FILE]
//! vi-noc simulate SCENARIO.json [--out FILE]
//! vi-noc report   REPORT.json
//! vi-noc sweep    run|merge|info ...
//! vi-noc fleet    serve|work|run ...
//! vi-noc dynsweep run --scenario FILE [--out FILE]
//! ```
//!
//! `run` executes every stage a scenario declares and writes the report
//! JSON; `simulate` skips the sweep stage; `report` pretty-prints a report
//! file; `sweep` is the sharded design-space workflow (one shard per
//! process), extended with `--scenario` (grid + configs from a scenario
//! file), `--resume` and `--checkpoint-every` (preemptible shards);
//! `fleet` is the elastic alternative to static shards — a coordinator
//! leases chain ranges to workers that can join, die, and be replaced
//! mid-sweep, with the frontier folded byte-identically to `sweep run
//! --frontier`; `dynsweep run` runs a scenario's dynamic simulation sweep,
//! which simulates every cell, and writes the result table.

use crate::error::Error;
use crate::fleet::{job_payload, ScenarioJobResolver};
use crate::report::REPORT_FORMAT;
use crate::scenario::{benchmark_by_name, PartitionPlan, Scenario};
use std::time::Instant;
use vi_noc_core::{json, SynthesisConfig};
use vi_noc_dynsweep::parse_table;
use vi_noc_fleet::FleetConfig;
use vi_noc_soc::{partition, SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, frontier_seeds, merge_checkpoints, parse_frontier_file, parse_shard_checkpoint,
    run_deltas, shard_checkpoint_json, validate_frontier_source, windows_from_frontier, GridConfig,
    GridDescriptor, RangeDelta, RefineParams, Shard, ShardProgress, SweepGrid,
};

/// Top-level usage text of the `vi-noc` binary.
pub const USAGE: &str = "\
usage:
  vi-noc run      SCENARIO.json [--out FILE] [--frontier-out FILE]
  vi-noc simulate SCENARIO.json [--out FILE]
  vi-noc report   REPORT.json
  vi-noc sweep    run|merge|info ...   (see `vi-noc sweep` for details)
  vi-noc fleet    serve|work|run ...   (see `vi-noc fleet` for details)
  vi-noc dynsweep run ...              (see `vi-noc dynsweep` for details)";

/// Usage text of the `sweep` subcommand.
pub const SWEEP_USAGE: &str = "\
usage:
  sweep run    --spec <d12|d16|d20|d26|d36> --islands K [--partition logical|comm]
               [--comm-seed S] [--max-boost B] [--scales 1.0,1.15] [--max-mid M]
               | --scenario FILE
               [--prune] [--shard I/N] [--seq] [--frontier] [--resume]
               [--checkpoint-every C] --out FILE
  sweep refine --frontier-in COARSE.json (--spec ... --islands K | --scenario FILE)
               [fine grid flags as in run] [--boost-radius B] [--base-radius R]
               [--scale-window W] [--prune] [--shard I/N] [--seq] [--frontier]
               [--resume] [--checkpoint-every C] --out FILE
  sweep merge  SHARD.json... --out FILE
  sweep info   (--spec ... --islands K [grid flags] | --scenario FILE)";

/// Usage text of the `fleet` subcommand.
pub const FLEET_USAGE: &str = "\
usage:
  fleet serve --scenario FILE [--listen ADDR] [--addr-file FILE] [--out FILE]
              [--lease-chunk N] [--lease-timeout-ms T] [--checkpoint-every C]
              [--verbose]
  fleet work  --connect HOST:PORT [--throttle-ms T]
  fleet run   --scenario FILE --workers N [--out FILE]
              [--lease-chunk N] [--lease-timeout-ms T] [--checkpoint-every C]
              [--verbose]";

/// Usage text of the `dynsweep` subcommand. `run` simulates every cell
/// of the scenario's declared dynamic sweep and writes the table.
pub const DYNSWEEP_USAGE: &str = "\
usage:
  dynsweep run --scenario FILE [--out FILE]";

/// The usage text to print after a failed `args`: the subcommand's own
/// for `sweep`, `fleet` and `dynsweep`, [`USAGE`] otherwise.
pub fn usage(args: &[String]) -> &'static str {
    match args.first().map(String::as_str) {
        Some("sweep") => SWEEP_USAGE,
        Some("fleet") => FLEET_USAGE,
        Some("dynsweep") => DYNSWEEP_USAGE,
        _ => USAGE,
    }
}

/// Entry point of the `vi-noc` binary.
///
/// # Errors
///
/// A printable message; the binary appends the usage text.
pub fn vi_noc_cli(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], true),
        Some("simulate") => cmd_run(&args[1..], false),
        Some("report") => cmd_report(&args[1..]),
        Some("sweep") => sweep_cli(&args[1..]),
        Some("fleet") => fleet_cli(&args[1..]),
        Some("dynsweep") => dynsweep_cli(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".to_string()),
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn write_out(out: Option<&str>, text: &str) -> Result<(), String> {
    match out {
        None | Some("-") => {
            print!("{text}");
            Ok(())
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

// --- run / simulate ------------------------------------------------------

fn cmd_run(args: &[String], with_sweep: bool) -> Result<(), String> {
    let mut scenario_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut frontier_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--frontier-out" if with_sweep => {
                frontier_out = Some(it.next().ok_or("--frontier-out needs a value")?.clone())
            }
            path if !path.starts_with('-') && scenario_path.is_none() => {
                scenario_path = Some(path.to_string())
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let path = scenario_path.ok_or("a scenario file is required")?;
    let scenario = Scenario::from_json(&read_file(&path)?)?;
    eprintln!("vi-noc: running scenario '{}' from {path}", scenario.name);
    let start = Instant::now();
    let report = if with_sweep {
        scenario.run()
    } else {
        scenario.run_without_sweep()
    }?;
    eprintln!("vi-noc: done in {:.2?}", start.elapsed());
    eprint!("{}", report.summary());
    if let Some(fpath) = frontier_out {
        let frontier = report
            .frontier
            .as_ref()
            .ok_or("--frontier-out requires the scenario to declare a sweep grid")?;
        write_out(Some(&fpath), frontier)?;
    }
    write_out(out.as_deref(), &report.to_json())
}

// --- report --------------------------------------------------------------

fn cmd_report(args: &[String]) -> Result<(), String> {
    let path = match args {
        [path] => path,
        _ => return Err("report takes exactly one REPORT.json argument".to_string()),
    };
    let doc = json::parse(&read_file(path)?).map_err(|e| e.to_string())?;
    let format = doc
        .get("format")
        .and_then(|v| v.as_str())
        .ok_or("not a vi-noc report file (no 'format' member)")?;
    if format != REPORT_FORMAT {
        return Err(format!("'{format}' is not '{REPORT_FORMAT}'"));
    }
    let ctx = "report";
    println!(
        "report: scenario '{}' — {} @ {} islands, {} design point(s) explored",
        doc.str_member("scenario", ctx)?,
        doc.str_member("spec_name", ctx)?,
        doc.u64_member("island_count", ctx)?,
        doc.u64_member("explored_points", ctx)?,
    );
    let total_mw = |metrics: &json::Value, ctx: &str| {
        metrics.member("power_mw", ctx)?.f64_member("total", ctx)
    };
    let metrics = doc.member("point", ctx)?.member("metrics", "point")?;
    println!(
        "  chosen point: {:.1} mW, {:.2} cycles avg zero-load latency",
        total_mw(metrics, "point.metrics")?,
        metrics.f64_member("avg_latency_cycles", "point.metrics")?
    );
    let realized = doc.member("realized", ctx)?.member("metrics", "realized")?;
    println!(
        "  floorplan-realized: {:.1} mW with Manhattan wires",
        total_mw(realized, "realized.metrics")?
    );
    if let Some(sim) = doc.get("sim") {
        println!(
            "  simulated {} ns: {} packets delivered",
            sim.u64_member("horizon_ns", "sim")?,
            sim.member("stats", "sim")?
                .u64_member("total_delivered_packets", "sim.stats")?
        );
    }
    if let Some(sd) = doc.get("shutdown") {
        println!(
            "  shutdown: island {} gated, drained cleanly = {}, {} survivor packets after",
            sd.u64_member("island", "shutdown")?,
            sd.bool_member("drained_cleanly", "shutdown")?,
            sd.u64_member("survivors_after", "shutdown")?,
        );
    }
    if let Some(frontier) = doc.get("frontier") {
        let n = frontier
            .member("frontier", "frontier")?
            .as_arr()
            .ok_or("frontier: 'frontier' is not an array")?
            .len();
        println!("  sweep frontier: {n} undominated point(s)");
    }
    Ok(())
}

// --- sweep ---------------------------------------------------------------

/// Entry point of the `sweep` subcommand.
///
/// # Errors
///
/// A printable message; the binary appends [`SWEEP_USAGE`].
pub fn sweep_cli(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => sweep_run(&args[1..]),
        Some("refine") => sweep_refine(&args[1..]),
        Some("merge") => sweep_merge(&args[1..]),
        Some("info") => sweep_info(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".to_string()),
    }
}

/// Options shared by `sweep run` and `sweep info`.
#[derive(Debug)]
struct SweepOpts {
    spec: SocSpec,
    vi: ViAssignment,
    partition_tag: String,
    grid_cfg: GridConfig,
    cfg: SynthesisConfig,
    shard: Shard,
    prune: bool,
    frontier: bool,
    resume: bool,
    checkpoint_every: Option<u64>,
    out: Option<String>,
}

fn parse_sweep_opts(args: &[String]) -> Result<SweepOpts, String> {
    let mut scenario_path: Option<String> = None;
    let mut spec_name: Option<String> = None;
    let mut islands: Option<usize> = None;
    let mut partition_kind: Option<String> = None;
    let mut comm_seed: Option<u64> = None;
    let mut grid_flags: Vec<(String, String)> = Vec::new();
    let mut seq = false;
    let mut shard = Shard::full();
    let mut prune = false;
    let mut frontier = false;
    let mut resume = false;
    let mut checkpoint_every: Option<u64> = None;
    let mut out: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => scenario_path = Some(value("--scenario")?.clone()),
            "--spec" => spec_name = Some(value("--spec")?.clone()),
            "--islands" => {
                islands = Some(
                    value("--islands")?
                        .parse()
                        .map_err(|_| "bad --islands value")?,
                )
            }
            "--partition" => partition_kind = Some(value("--partition")?.clone()),
            "--comm-seed" => {
                comm_seed = Some(
                    value("--comm-seed")?
                        .parse()
                        .map_err(|_| "bad --comm-seed value")?,
                )
            }
            "--max-boost" | "--scales" | "--max-mid" => {
                grid_flags.push((arg.clone(), value(arg)?.clone()))
            }
            "--shard" => shard = Shard::parse(value("--shard")?)?,
            "--prune" => prune = true,
            "--seq" => seq = true,
            "--frontier" => frontier = true,
            "--resume" => resume = true,
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    value("--checkpoint-every")?
                        .parse()
                        .map_err(|_| "bad --checkpoint-every value")?,
                )
            }
            "--out" => out = Some(value("--out")?.clone()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }

    let (spec, vi, partition_tag, mut grid_cfg, mut cfg) = if let Some(path) = scenario_path {
        // The scenario owns spec and partition; silently ignoring these
        // flags would run a different grid than the user asked for.
        if spec_name.is_some()
            || islands.is_some()
            || partition_kind.is_some()
            || comm_seed.is_some()
        {
            return Err(
                "--scenario and --spec/--islands/--partition/--comm-seed are mutually exclusive"
                    .to_string(),
            );
        }
        let scenario = Scenario::from_json(&read_file(&path)?)?;
        let spec = scenario.resolve_spec()?;
        let vi = scenario.resolve_partition(&spec)?;
        let grid = scenario
            .sweep
            .clone()
            .ok_or_else(|| format!("scenario '{}' declares no sweep grid", scenario.name))?;
        // The scenario may opt into pruning for every process of the sweep.
        prune |= scenario.sweep_prune;
        (
            spec,
            vi,
            scenario.partition.tag(),
            grid,
            scenario.synthesis.clone(),
        )
    } else {
        let spec_name = spec_name.ok_or("--spec (or --scenario) is required")?;
        let spec =
            benchmark_by_name(&spec_name).ok_or_else(|| format!("unknown spec '{spec_name}'"))?;
        let k = islands.ok_or("--islands is required")?;
        let seed = comm_seed.unwrap_or(1);
        let (vi, tag) = match partition_kind.as_deref().unwrap_or("logical") {
            "logical" => (
                partition::logical_partition(&spec, k).map_err(|e| e.to_string())?,
                PartitionPlan::Logical { islands: k }.tag(),
            ),
            "comm" => (
                partition::communication_partition(&spec, k, seed).map_err(|e| e.to_string())?,
                PartitionPlan::Communication { islands: k, seed }.tag(),
            ),
            other => return Err(format!("unknown partition '{other}'")),
        };
        (
            spec,
            vi,
            tag,
            GridConfig::default(),
            SynthesisConfig::default(),
        )
    };

    // Grid flags refine the base grid (scenario-provided or default).
    for (flag, value) in grid_flags {
        match flag.as_str() {
            "--max-boost" => {
                grid_cfg.max_boost = value.parse().map_err(|_| "bad --max-boost value")?
            }
            "--scales" => {
                grid_cfg.freq_scales = value
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad scale '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--max-mid" => {
                grid_cfg.max_intermediate = value.parse().map_err(|_| "bad --max-mid value")?
            }
            _ => unreachable!("only grid flags collected"),
        }
    }
    if seq {
        cfg.parallel = false;
    }
    if grid_cfg.freq_scales.is_empty()
        || grid_cfg
            .freq_scales
            .iter()
            .any(|&s| !s.is_finite() || s < 1.0)
    {
        return Err("--scales must be a non-empty list of factors >= 1.0".to_string());
    }
    if frontier && shard != Shard::full() {
        return Err("--frontier requires the unsharded run (--shard 0/1)".to_string());
    }
    if resume && out.as_deref().is_none_or(|o| o == "-") {
        return Err("--resume needs --out FILE (the checkpoint to resume from)".to_string());
    }
    if checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be at least 1".to_string());
    }
    if checkpoint_every.is_some() && out.as_deref().is_none_or(|o| o == "-") {
        return Err("--checkpoint-every needs --out FILE".to_string());
    }
    Ok(SweepOpts {
        spec,
        vi,
        partition_tag,
        grid_cfg,
        cfg,
        shard,
        prune,
        frontier,
        resume,
        checkpoint_every,
        out,
    })
}

fn sweep_run(args: &[String]) -> Result<(), String> {
    let opts = parse_sweep_opts(args)?;
    let grid = SweepGrid::build(&opts.spec, &opts.vi, &opts.cfg, &opts.grid_cfg);
    drive_sweep(&opts, &grid)
}

/// Builds the refinement windows of the requested fine grid around a
/// merged coarse frontier, then sweeps the windowed grid exactly like
/// `sweep run` (same sharding, pruning, resume and emission flags).
fn sweep_refine(args: &[String]) -> Result<(), String> {
    // The refine-specific flags are peeled off here; everything else is the
    // `sweep run` surface, fine-grid flags included.
    let mut frontier_in: Option<String> = None;
    let mut params = RefineParams::default();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--frontier-in" => frontier_in = Some(value("--frontier-in")?.clone()),
            "--boost-radius" => {
                params.boost_radius = value("--boost-radius")?
                    .parse()
                    .map_err(|_| "bad --boost-radius value")?
            }
            "--base-radius" => {
                params.base_radius = value("--base-radius")?
                    .parse()
                    .map_err(|_| "bad --base-radius value")?
            }
            "--scale-window" => {
                let w: f64 = value("--scale-window")?
                    .parse()
                    .map_err(|_| "bad --scale-window value")?;
                if !w.is_finite() || w < 0.0 {
                    return Err("--scale-window must be a finite factor >= 0".to_string());
                }
                params.scale_window = w;
            }
            other => rest.push(other.to_string()),
        }
    }
    let opts = parse_sweep_opts(&rest)?;
    let path = frontier_in.ok_or("--frontier-in COARSE.json is required")?;
    let parsed = parse_frontier_file(&read_file(&path)?).map_err(|e| format!("{path}: {e}"))?;
    // Refining a frontier of a different spec, partition or seed would
    // window the fine grid around points of a different design space.
    validate_frontier_source(
        &parsed,
        opts.spec.name(),
        &opts.partition_tag,
        opts.cfg.seed,
    )
    .map_err(|e| format!("{path}: {e}"))?;
    let seeds = frontier_seeds(&parsed).map_err(|e| format!("{path}: {e}"))?;
    let windows = windows_from_frontier(&seeds, &opts.grid_cfg, &params);
    if windows.is_empty() {
        return Err(format!(
            "{path}: no refinement window covers the fine grid (empty frontier, or every \
             surviving scale is outside --scale-window)"
        ));
    }
    eprintln!(
        "sweep refine: {} window(s) around {} surviving point(s) of {path}",
        windows.len(),
        seeds.len()
    );
    let grid = SweepGrid::build_windowed(&opts.spec, &opts.vi, &opts.cfg, &opts.grid_cfg, windows);
    drive_sweep(&opts, &grid)
}

/// The shared shard driver of `sweep run` and `sweep refine`: resume,
/// periodic checkpoints, optional pruning, final emission.
fn drive_sweep(opts: &SweepOpts, grid: &SweepGrid) -> Result<(), String> {
    let desc = GridDescriptor::for_grid(grid, opts.spec.name(), &opts.partition_tag, opts.cfg.seed);
    eprintln!(
        "sweep run: {} ({}), grid {} chains / {} candidates, shard {}{}",
        desc.spec_name,
        desc.partition,
        grid.num_active_chains(),
        grid.num_candidates(),
        opts.shard,
        if opts.prune { ", slack pruning on" } else { "" }
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
                eprintln!(
                    "sweep run: resuming shard {} from {path} at {}/{} chains",
                    opts.shard,
                    progress.chains_done,
                    opts.shard.stripe_len(grid.num_chains())
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                eprintln!("sweep run: no checkpoint at {path}, starting fresh");
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
            eprintln!(
                "sweep run: checkpoint at {}/{stripe_len} chains -> {path}",
                progress.chains_done
            );
        }
        Ok(())
    };
    let ids = opts.shard.chain_ids(grid.num_chains());
    let every = opts.checkpoint_every.unwrap_or(u64::MAX);
    let (spec, vi, cfg) = (&opts.spec, &opts.vi, &opts.cfg);
    run_deltas(spec, vi, grid, cfg, ids, from, every, opts.prune, &mut emit)?;
    let elapsed = start.elapsed();
    eprintln!(
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

fn sweep_merge(args: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        return Err("merge needs at least one checkpoint file".to_string());
    }
    let contents: Vec<String> = files
        .iter()
        .map(|p| read_file(p))
        .collect::<Result<_, _>>()?;
    let merged = merge_checkpoints(&contents)?;
    eprintln!(
        "sweep merge: {} shard file(s) -> {} frontier bytes",
        files.len(),
        merged.len()
    );
    write_out(out.as_deref(), &merged)
}

fn sweep_info(args: &[String]) -> Result<(), String> {
    let opts = parse_sweep_opts(args)?;
    let grid = SweepGrid::build(&opts.spec, &opts.vi, &opts.cfg, &opts.grid_cfg);
    println!("spec:            {}", opts.spec.name());
    println!("partition:       {}", opts.partition_tag);
    println!("max boost:       {}", opts.grid_cfg.max_boost);
    println!("freq scales:     {:?}", opts.grid_cfg.freq_scales);
    println!("max mid:         {}", opts.grid_cfg.max_intermediate);
    println!("chain ids:       {}", grid.num_chains());
    println!("active chains:   {}", grid.num_active_chains());
    println!("candidates:      {}", grid.num_candidates());
    println!("chain length:    {}", grid.chain_len());
    Ok(())
}

// --- fleet ---------------------------------------------------------------

/// Entry point of the `fleet` subcommand: a scenario's sweep grid run by a
/// coordinator + worker fleet over TCP, folding the frontier byte-identically
/// to `sweep run --scenario FILE --frontier`.
///
/// # Errors
///
/// A printable message; the binary appends [`FLEET_USAGE`].
pub fn fleet_cli(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("serve") => fleet_serve(&args[1..]),
        Some("work") => fleet_work(&args[1..]),
        Some("run") => fleet_run(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".to_string()),
    }
}

/// Applies one of the shared coordinator knobs (`--lease-chunk`,
/// `--lease-timeout-ms`, `--checkpoint-every`) to `cfg`.
fn apply_fleet_flag(cfg: &mut FleetConfig, flag: &str, value: &str) -> Result<(), String> {
    let parsed: u64 = value.parse().map_err(|_| format!("bad {flag} value"))?;
    match flag {
        "--lease-timeout-ms" => cfg.lease_timeout = std::time::Duration::from_millis(parsed),
        _ if parsed == 0 => return Err(format!("{flag} must be at least 1")),
        "--lease-chunk" => cfg.lease_chunk = parsed,
        "--checkpoint-every" => cfg.checkpoint_every = parsed,
        _ => unreachable!("only fleet flags dispatched"),
    }
    Ok(())
}

/// Loads the scenario behind `--scenario` and checks it declares a sweep
/// grid — the one thing a fleet can run.
fn fleet_scenario(path: Option<String>) -> Result<Scenario, String> {
    let path = path.ok_or("--scenario FILE is required")?;
    let scenario = Scenario::from_json(&read_file(&path)?)?;
    if scenario.sweep.is_none() {
        return Err(format!(
            "scenario '{}' declares no sweep grid",
            scenario.name
        ));
    }
    Ok(scenario)
}

fn fleet_serve(args: &[String]) -> Result<(), String> {
    let mut scenario_path: Option<String> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut addr_file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut cfg = FleetConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => scenario_path = Some(value("--scenario")?.clone()),
            "--listen" => listen = value("--listen")?.clone(),
            "--addr-file" => addr_file = Some(value("--addr-file")?.clone()),
            "--out" => out = Some(value("--out")?.clone()),
            "--verbose" => cfg.verbose = true,
            "--lease-chunk" | "--lease-timeout-ms" | "--checkpoint-every" => {
                apply_fleet_flag(&mut cfg, arg, value(arg)?)?
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let scenario = fleet_scenario(scenario_path)?;
    let resolver: std::sync::Arc<dyn vi_noc_fleet::JobResolver> =
        std::sync::Arc::new(ScenarioJobResolver);
    let handle = vi_noc_fleet::start_coordinator(&listen, resolver, cfg)?;
    eprintln!(
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
    eprintln!("fleet serve: frontier folded in {:.2?}", start.elapsed());
    write_out(out.as_deref(), &frontier)
}

fn fleet_work(args: &[String]) -> Result<(), String> {
    let mut connect: Option<String> = None;
    let mut opts = vi_noc_fleet::WorkerOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--connect" => connect = Some(value("--connect")?.clone()),
            "--throttle-ms" => {
                let ms: u64 = value("--throttle-ms")?
                    .parse()
                    .map_err(|_| "bad --throttle-ms value")?;
                opts.throttle = std::time::Duration::from_millis(ms);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let connect = connect.ok_or("--connect HOST:PORT is required")?;
    let addr = std::net::ToSocketAddrs::to_socket_addrs(connect.as_str())
        .map_err(|e| format!("resolving {connect}: {e}"))?
        .next()
        .ok_or_else(|| format!("{connect} resolves to no address"))?;
    let stats = vi_noc_fleet::run_worker(addr, &ScenarioJobResolver, &opts)?;
    eprintln!(
        "fleet work: {} lease(s) done, {} delta(s) acked, {} abandoned",
        stats.leases, stats.deltas, stats.abandoned
    );
    Ok(())
}

fn fleet_run(args: &[String]) -> Result<(), String> {
    let mut scenario_path: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut cfg = FleetConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => scenario_path = Some(value("--scenario")?.clone()),
            "--workers" => {
                workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|_| "bad --workers value")?,
                )
            }
            "--out" => out = Some(value("--out")?.clone()),
            "--verbose" => cfg.verbose = true,
            "--lease-chunk" | "--lease-timeout-ms" | "--checkpoint-every" => {
                apply_fleet_flag(&mut cfg, arg, value(arg)?)?
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let scenario = fleet_scenario(scenario_path)?;
    let workers = workers.ok_or("--workers N is required")?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    let start = Instant::now();
    let frontier = crate::fleet::run_local_fleet(&job_payload(&scenario, None), workers, cfg)?;
    eprintln!(
        "fleet run: frontier folded by {workers} worker(s) in {:.2?}",
        start.elapsed()
    );
    write_out(out.as_deref(), &frontier)
}

// --- dynsweep ------------------------------------------------------------

/// Entry point of the `dynsweep` subcommand: runs a scenario's declared
/// dynamic sweep.
///
/// # Errors
///
/// A printable message; the binary appends [`DYNSWEEP_USAGE`].
pub fn dynsweep_cli(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => dynsweep_run(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".to_string()),
    }
}

fn dynsweep_run(args: &[String]) -> Result<(), String> {
    let mut scenario_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => scenario_path = Some(value("--scenario")?.clone()),
            "--out" => out = Some(value("--out")?.clone()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let path = scenario_path.ok_or("--scenario FILE is required")?;
    let scenario = Scenario::from_json(&read_file(&path)?)?;
    if scenario.dyn_sweep.is_none() {
        return Err(format!(
            "scenario '{}' declares no dyn_sweep stage",
            scenario.name
        ));
    }
    eprintln!("dynsweep run: scenario '{}'", scenario.name);
    let start = Instant::now();
    let report = scenario.run()?;
    let table = report.dyn_sweep.expect("dyn_sweep stage declared");
    let parsed =
        parse_table(&table).map_err(|e| format!("internal: emitted table does not parse: {e}"))?;
    eprintln!(
        "dynsweep run: {} point(s) x {} sim config(s) = {} cell(s) simulated in {:.2?}",
        parsed.points.len(),
        parsed.axes.cells_per_point(),
        parsed.cells.len(),
        start.elapsed(),
    );
    write_out(out.as_deref(), &table)
}

// Lets the String-error CLI functions apply `?` directly to API results.
impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_commands_are_reported() {
        let err = vi_noc_cli(&["explode".to_string()]).unwrap_err();
        assert!(err.contains("explode"));
        assert!(sweep_cli(&[]).is_err());
    }

    #[test]
    fn sweep_opts_validate_flag_combinations() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        // --frontier with a real shard is rejected.
        let err =
            parse_sweep_opts(&args("--spec d12 --islands 4 --shard 1/3 --frontier")).unwrap_err();
        assert!(err.contains("--frontier"));
        // --resume without --out is rejected.
        let err = parse_sweep_opts(&args("--spec d12 --islands 4 --resume")).unwrap_err();
        assert!(err.contains("--resume"));
        // --scenario owns spec AND partition: every overridden flag is
        // rejected rather than silently ignored.
        for conflicting in [
            "--scenario x.json --spec d12 --islands 4",
            "--scenario x.json --partition comm",
            "--scenario x.json --comm-seed 7",
        ] {
            let err = parse_sweep_opts(&args(conflicting)).unwrap_err();
            assert!(err.contains("mutually exclusive"), "{conflicting}: {err}");
        }
        // The classic flag surface still parses.
        let opts = parse_sweep_opts(&args(
            "--spec d12 --islands 4 --max-boost 1 --shard 0/2 --seq",
        ))
        .unwrap();
        assert_eq!(opts.grid_cfg.max_boost, 1);
        assert!(!opts.cfg.parallel);
        assert_eq!(opts.shard, Shard::new(0, 2).unwrap());
        // Slack pruning is off unless asked for.
        assert!(!opts.prune);
        let opts = parse_sweep_opts(&args("--spec d12 --islands 4 --prune")).unwrap();
        assert!(opts.prune);
    }

    #[test]
    fn sweep_refine_validates_its_flags() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        // The coarse frontier is mandatory.
        let err = sweep_refine(&args("--spec d12 --islands 4")).unwrap_err();
        assert!(err.contains("--frontier-in"), "{err}");
        // Radii must be numbers; the window must be a finite non-negative float.
        let err = sweep_refine(&args(
            "--frontier-in f.json --spec d12 --islands 4 --boost-radius x",
        ))
        .unwrap_err();
        assert!(err.contains("--boost-radius"), "{err}");
        let err = sweep_refine(&args(
            "--frontier-in f.json --spec d12 --islands 4 --scale-window -1",
        ))
        .unwrap_err();
        assert!(err.contains("--scale-window"), "{err}");
        // A missing frontier file fails with the path in the message.
        let err = sweep_refine(&args(
            "--frontier-in /nonexistent/f.json --spec d12 --islands 4",
        ))
        .unwrap_err();
        assert!(err.contains("/nonexistent/f.json"), "{err}");
    }

    #[test]
    fn report_reads_its_members_strictly() {
        let golden = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/golden/d26_baseline.report.json"
        );
        cmd_report(&[golden.to_string()]).unwrap();
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
        assert_eq!(err, "report: missing 'point'");
    }
}
