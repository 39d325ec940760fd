//! Shutdown demo: simulate the synthesized NoC, power-gate an island
//! mid-run, and show that traffic between the surviving islands never
//! notices — the property the whole paper exists to guarantee.
//!
//! ```sh
//! cargo run --release --example shutdown_simulation
//! ```

use vi_noc::sim::{run_shutdown_scenario, ShutdownScenario, SimConfig};
use vi_noc::soc::{benchmarks, partition};
use vi_noc::synth::{synthesize, SynthesisConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6)?;
    let space = synthesize(&soc, &vi, &SynthesisConfig::default())?;
    let point = space.min_power_point().expect("non-empty space");

    println!("zero-load route latencies (cycles):");
    for fid in soc.flow_ids().take(6) {
        let f = soc.flow(fid);
        println!(
            "  {:>10} -> {:<10} {} cycles (constraint {})",
            soc.core(f.src).name,
            soc.core(f.dst).name,
            point.topology.route(fid).unwrap().latency_cycles,
            f.max_latency_cycles
        );
    }

    println!("\ngating each shutdown-capable island in turn:");
    for island in 0..vi.island_count() {
        if !vi.can_shutdown(island) {
            println!("  island {island}: always-on (shared memories) — skipped");
            continue;
        }
        let outcome = run_shutdown_scenario(
            &soc,
            &vi,
            &point.topology,
            &SimConfig::default(),
            &ShutdownScenario {
                island,
                stop_at_ns: 20_000,
                drain_ns: 8_000,
                post_gate_ns: 40_000,
            },
        );
        println!(
            "  island {island}: drained cleanly = {}, survivors delivered {} packets before \
             and {} after the gate",
            outcome.drained_cleanly, outcome.survivors_before, outcome.survivors_after
        );
        assert!(outcome.drained_cleanly);
        assert!(outcome.survivors_after >= outcome.survivors_before);
    }
    println!("\nall gateable islands shut down without disturbing foreign traffic");
    Ok(())
}
