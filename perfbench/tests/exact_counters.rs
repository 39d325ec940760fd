//! The benchmark's exact work counters and modelled metrics repeat exactly
//! across runs and across rayon thread counts, every layer reports on the
//! workloads that run it, and the printed metric names are the ones
//! `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::Command;
use vi_noc_sweep::json::{self, Value};

/// Metrics that must repeat bit for bit (counts, sizes, ratios of counts,
/// modelled outputs).
const EXACT: [&str; 23] = [
    "api.report_bytes",
    "synth.points",
    "floorplan.moves",
    "sim.ticks",
    "sim.packets",
    "sim.shutdown_packets",
    "sweep.chains",
    "sweep.inactive_chains",
    "sweep.feasible",
    "sweep.duplicates",
    "sweep.infeasible",
    "sweep.frontier_points",
    "dynsweep.cells",
    "dynsweep.simulated",
    "dynsweep.table_bytes",
    "fleet.leases_per_job",
    "fleet.deltas_per_job",
    "fleet.abandoned",
    "noc_power_mw",
    "noc_latency_cyc",
    "sim_latency_ns",
    "sweep.feasible_ratio",
    "dynsweep.sim_ratio",
];

/// Metrics that must be non-zero on a workload because it runs the layer.
const SHOWS_ON: [(&str, &[&str]); 3] = [
    (
        "flow",
        &[
            "floorplan.realize_ms",
            "sim.run_ms",
            "sim.ticks",
            "sim.shutdown_ms",
            "sim.shutdown_packets",
            "sim_latency_ns",
            "sweep.chains",
        ],
    ),
    (
        "dynsweep",
        &[
            "synth.synthesize_ms",
            "sweep.run_ms",
            "sweep.refine_ms",
            "noc_power_mw",
            "dynsweep.run_ms",
            "dynsweep.cells",
            "dynsweep.table_bytes",
            "api.report_bytes",
        ],
    ),
    (
        "fleet",
        &[
            "fleet.resolve_ms",
            "fleet.direct_ms",
            "fleet.leases_per_job",
            "fleet.deltas_per_job",
        ],
    ),
];

/// Work counts of the committed scenarios (the default seed): a change here
/// means the program's behaviour changed, not its speed.
const PINNED: [(&str, &str, f64); 7] = [
    ("flow", "synth.points", 7.0),
    ("flow", "sweep.chains", 8.0),
    ("dynsweep", "dynsweep.cells", 36.0),
    ("dynsweep", "dynsweep.simulated", 36.0),
    ("fleet", "fleet.leases_per_job", 64.0),
    ("fleet", "fleet.deltas_per_job", 128.0),
    ("fleet", "fleet.abandoned", 0.0),
];

fn bench(workload: &str, trace: bool, threads: usize) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_vi-noc-perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .env("RAYON_NUM_THREADS", threads.to_string())
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = json::parse(stdout.lines().last().expect("a result line")).unwrap();
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    result
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn names(result: &Value) -> BTreeSet<String> {
    let Some(Value::Obj(members)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    members.iter().map(|(k, _)| k.clone()).collect()
}

fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn exact_counters_repeat_across_runs_and_thread_counts() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (workload, shows) in SHOWS_ON {
        let one = bench(workload, true, 1);
        let two = bench(workload, true, nproc.min(2));
        for name in EXACT {
            assert_eq!(
                metric(&one, name).to_bits(),
                metric(&two, name).to_bits(),
                "{workload}: {name} differs between RAYON_NUM_THREADS 1 and 2"
            );
        }
        for name in shows {
            assert!(metric(&one, name) > 0.0, "{workload}: {name} is zero");
        }
        for &(w, name, value) in &PINNED {
            if w == workload {
                assert_eq!(metric(&one, name), value, "{workload}: {name}");
            }
        }
        assert_eq!(names(&one), declared("per_layer"), "{workload}");
    }
}

#[test]
fn end_to_end_metrics_are_the_declared_ones() {
    let result = bench("flow", false, 1);
    assert_eq!(names(&result), declared("end_to_end"));
    for name in declared("end_to_end") {
        assert!(metric(&result, &name) > 0.0, "{name} is zero");
    }
}
