//! Figure 2 reproduction: NoC dynamic power vs voltage-island count for
//! logical and communication-based partitioning of the D26 mobile SoC.
//!
//! Power is the paper's metric — switches + links + synchronizers (§5) —
//! taken from the minimum-power feasible design point of each sweep
//! configuration. Compare shapes, not absolute mW (our component models are
//! calibrated stand-ins for ×pipesLite; see ARCHITECTURE.md's
//! `vi-noc-models` row).

use vi_noc_bench::{
    comparison_table, island_sweep, Strategy, PAPER_FIG2_COMM_MW, PAPER_FIG2_LOGICAL_MW,
};
use vi_noc_soc::benchmarks;

fn main() {
    let soc = benchmarks::d26_mobile();
    println!(
        "== Figure 2: VI count vs NoC dynamic power ({}) ==\n",
        soc.name()
    );

    let logical = island_sweep(&soc, Strategy::Logical);
    let comm = island_sweep(&soc, Strategy::Communication);

    println!(
        "{}",
        comparison_table(
            "-- logical partitioning --",
            "mW",
            &logical,
            |p| p.power_mw,
            &PAPER_FIG2_LOGICAL_MW,
        )
    );
    println!(
        "{}",
        comparison_table(
            "-- communication-based partitioning --",
            "mW",
            &comm,
            |p| p.power_mw,
            &PAPER_FIG2_COMM_MW,
        )
    );

    let reference = logical[0].power_mw;
    let comm_min = comm[1..comm.len() - 1]
        .iter()
        .map(|p| p.power_mw)
        .fold(f64::INFINITY, f64::min);
    println!("shape checks:");
    println!(
        "  [{}] communication dips below the 1-island reference ({:.1} vs {:.1} mW)",
        if comm_min < reference { "ok" } else { "MISS" },
        comm_min,
        reference
    );
    let logical_overhead_ok = logical[1..].iter().all(|p| p.power_mw > reference);
    println!(
        "  [{}] logical partitioning pays an overhead at every island count",
        if logical_overhead_ok { "ok" } else { "MISS" }
    );
    let max26 = logical.last().unwrap().power_mw;
    println!(
        "  [{}] 26 islands is the most expensive point ({:.1} mW, {:.2}x reference)",
        if max26 >= logical.iter().map(|p| p.power_mw).fold(0.0, f64::max) {
            "ok"
        } else {
            "MISS"
        },
        max26,
        max26 / reference
    );

    let rows = logical
        .iter()
        .zip(&comm)
        .map(|(l, c)| format!("{},{:.2},{:.2}", l.islands, l.power_mw, c.power_mw));
    let path = "fig2_power.csv";
    match vi_noc_bench::write_csv(path, "islands,logical_mw,communication_mw", rows) {
        Ok(()) => println!("\nseries written to {path}"),
        Err(e) => eprintln!("\ncsv write failed: {e}"),
    }
}
