//! Wake-list edge cases on hand-built topologies.
//!
//! The golden saturation matrix (`batching.rs`) drives synthesized designs,
//! which reach these configurations only probabilistically. The fixtures
//! here pin them deterministically with `TopologyBuilder`:
//!
//! * two upstream clock domains parked on the *same* full queue, woken by
//!   the same pop and racing for the freed slot;
//! * a watcher whose domain is slower than the popping domain, where the
//!   wake tick must round up across incommensurate `period_ps` ratios;
//! * backpressure chained across three clock domains, where each pop's wake
//!   cascades one hop upstream;
//! * gating a drained island while its former congestion partners keep
//!   popping — no wake may revive the gated domain.
//!
//! Every test asserts the engine contract: batched == stepped `SimStats`,
//! bit for bit, snapshot for snapshot.

use vi_noc_core::{Topology, TopologyBuilder};
use vi_noc_models::{Bandwidth, Frequency};
use vi_noc_sim::{SimConfig, Simulator, TrafficKind};
use vi_noc_soc::{CoreKind, CoreSpec, FlowId, SocSpec, TrafficFlow};

/// Two source cores on separate islands fanning into one destination:
/// both `sw0 → sw1` and `sw2 → sw1` upstream queues park on `sw1`'s single
/// eject queue once the destination island can no longer keep up.
///
/// `mhz = [source 0, destination, source 2]` island clocks;
/// `mbps = [flow c0→c1, flow c2→c1]` demands.
fn fan_in(mhz: [f64; 3], mbps: [f64; 2]) -> (SocSpec, Topology) {
    let mut spec = SocSpec::new("fan-in");
    let c0 = spec.add_core(CoreSpec::new("src0", CoreKind::Cpu, 1.0, 10.0, mhz[0]));
    let c1 = spec.add_core(CoreSpec::new("dst", CoreKind::Memory, 1.0, 10.0, mhz[1]));
    let c2 = spec.add_core(CoreSpec::new("src2", CoreKind::Dsp, 1.0, 10.0, mhz[2]));
    let f0 = spec.add_flow(TrafficFlow::new(c0, c1, mbps[0], 64));
    let f1 = spec.add_flow(TrafficFlow::new(c2, c1, mbps[1], 64));

    let freqs: Vec<Frequency> = [mhz[0], mhz[1], mhz[2], 1000.0]
        .iter()
        .map(|&m| Frequency::from_mhz(m))
        .collect();
    let mut b = TopologyBuilder::new(&spec, 3, freqs, 32);
    let sw0 = b.add_switch("sw0", 0, vec![c0]);
    let sw1 = b.add_switch("sw1", 1, vec![c1]);
    let sw2 = b.add_switch("sw2", 2, vec![c2]);
    let cap = Bandwidth::from_mbps(4000.0);
    b.open_link(sw0, sw1, cap);
    b.open_link(sw2, sw1, cap);
    b.set_route(&spec, f0, vec![sw0, sw1]);
    b.set_route(&spec, f1, vec![sw2, sw1]);
    (spec, b.build())
}

/// One flow crossing three islands in series, `sw0 → sw1 → sw2`, with the
/// sink island slowest: the eject queue fills, `sw1` parks on it, `sw1`'s
/// input queue fills, `sw0` parks on that — each sink pop wakes `sw1`,
/// whose forward pops wake `sw0`.
fn chain(mhz: [f64; 3], mbps: f64) -> (SocSpec, Topology) {
    let mut spec = SocSpec::new("chain");
    let c0 = spec.add_core(CoreSpec::new("src", CoreKind::Cpu, 1.0, 10.0, mhz[0]));
    let c1 = spec.add_core(CoreSpec::new("dst", CoreKind::Memory, 1.0, 10.0, mhz[2]));
    let f0 = spec.add_flow(TrafficFlow::new(c0, c1, mbps, 64));

    let freqs: Vec<Frequency> = [mhz[0], mhz[1], mhz[2], 1000.0]
        .iter()
        .map(|&m| Frequency::from_mhz(m))
        .collect();
    let mut b = TopologyBuilder::new(&spec, 3, freqs, 32);
    let sw0 = b.add_switch("sw0", 0, vec![c0]);
    let sw1 = b.add_switch("sw1", 1, vec![]);
    let sw2 = b.add_switch("sw2", 2, vec![c1]);
    let cap = Bandwidth::from_mbps(4000.0);
    b.open_link(sw0, sw1, cap);
    b.open_link(sw1, sw2, cap);
    b.set_route(&spec, f0, vec![sw0, sw1, sw2]);
    (spec, b.build())
}

fn assert_equivalent(spec: &SocSpec, topo: &Topology, cfg: &SimConfig, segments_ns: &[u64]) {
    let mut batched = Simulator::new(
        spec,
        topo,
        &SimConfig {
            batching: true,
            ..cfg.clone()
        },
    );
    let mut stepped = Simulator::new(
        spec,
        topo,
        &SimConfig {
            batching: false,
            ..cfg.clone()
        },
    );
    for (i, &ns) in segments_ns.iter().enumerate() {
        let sb = batched.run_for_ns(ns);
        let ss = stepped.run_for_ns(ns);
        assert_eq!(
            sb, ss,
            "batched vs stepped diverged in segment {i} (+{ns} ns) of {cfg:?}"
        );
    }
}

/// Two domains watch the same eject queue; every pop wakes both and only
/// one can take the freed slot — arbitration across the wake must match the
/// stepped engine's retry order exactly.
#[test]
fn two_domains_watching_one_queue() {
    // Combined demand 3600 MB/s versus 2800 MB/s of eject capacity at the
    // destination: both upstream queues spend most of the run parked.
    let (spec, topo) = fan_in([1000.0, 700.0, 1000.0], [1800.0, 1800.0]);
    for queue_capacity in [1, 2] {
        for traffic in [TrafficKind::Cbr, TrafficKind::Poisson] {
            let cfg = SimConfig {
                queue_capacity,
                traffic,
                ..SimConfig::default()
            };
            assert_equivalent(&spec, &topo, &cfg, &[20_000, 1, 15_000]);
        }
    }
}

/// The watching domain is slower than the popping domain and no period
/// divides another (313 / 701 / 997 MHz): the wake tick lands between grid
/// points of the watcher and must round up to its next edge, in both the
/// `watcher > popper` (same-timestamp) and `watcher < popper` (next-edge)
/// index orders — island 0 watches from below the popper index, island 2
/// from above.
#[test]
fn slow_watcher_fast_popper_tick_rounding() {
    let (spec, topo) = fan_in([313.0, 701.0, 997.0], [1100.0, 2600.0]);
    for queue_capacity in [1, 2] {
        let cfg = SimConfig {
            queue_capacity,
            ..SimConfig::default()
        };
        assert_equivalent(&spec, &topo, &cfg, &[25_000, 1, 1, 10_000]);
    }
}

/// Backpressure chained across three clock domains: the sink's pops wake
/// the middle island, whose forwards wake the source island, two hops of
/// cascaded wake lists deep.
#[test]
fn chained_backpressure_across_three_domains() {
    let (spec, topo) = chain([1000.0, 600.0, 250.0], 3200.0);
    for queue_capacity in [1, 2] {
        let cfg = SimConfig {
            queue_capacity,
            ..SimConfig::default()
        };
        assert_equivalent(&spec, &topo, &cfg, &[30_000, 1, 12_000]);
    }
}

/// Gates a congested source island after draining it, while the remaining
/// source keeps saturating the shared queue. The drain's pops must fire the
/// gated-island-bound wakes *before* the gate (a parked element implies a
/// non-empty or full queue, which `gate_island` rejects), and pops after
/// the gate must not revive the gated domain. Both engines poll the same
/// deterministic drain schedule, so gating happens at the same simulated
/// time in both.
#[test]
fn gating_a_congestion_partner_island() {
    // Saturated while both flows run (800 + 2400 > 2800 MB/s of eject
    // capacity), but the survivor alone leaves plenty of spare slots, so
    // island 2's backlog can actually drain once its flow stops (the
    // lower-indexed island's retries win ties for a freed slot, so a
    // survivor demanding most of the capacity would starve the drain —
    // identically in both engines, but then there is nothing to gate).
    let (spec, topo) = fan_in([1000.0, 700.0, 1000.0], [800.0, 2400.0]);
    let run = |batching: bool| {
        // Default queue capacity: with a 1-deep queue the 4-cycle crossing
        // dwell serializes the eject pipeline and even the survivor's
        // demand exceeds the effective throughput — nothing would drain.
        let cfg = SimConfig {
            batching,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&spec, &topo, &cfg);
        sim.run_for_ns(20_000);
        // Island 2's flow stops; its backlog must drain through the still
        // contested queue at sw1.
        sim.deactivate_flow(FlowId::from_index(1));
        let mut polls = 0;
        while !sim.island_drained(2) {
            sim.run_for_ns(500);
            polls += 1;
            assert!(polls < 200, "island 2 never drained");
        }
        sim.gate_island(2);
        (polls, sim.run_for_ns(20_000))
    };
    assert_eq!(run(true), run(false));
}

/// The point of the wake lists: a saturated run must process drastically
/// fewer ticks than the stepped reference — blocked domains sleep between
/// pops instead of busy-waiting — while producing identical stats. Tick
/// counts are deterministic, so the bound is exact, not a flaky wall-clock
/// proxy.
#[test]
fn saturated_chain_processes_far_fewer_ticks() {
    let (spec, topo) = chain([1000.0, 600.0, 250.0], 3200.0);
    let cfg = SimConfig {
        queue_capacity: 2,
        ..SimConfig::default()
    };
    let mut batched = Simulator::new(
        &spec,
        &topo,
        &SimConfig {
            batching: true,
            ..cfg.clone()
        },
    );
    let mut stepped = Simulator::new(
        &spec,
        &topo,
        &SimConfig {
            batching: false,
            ..cfg
        },
    );
    let sb = batched.run_for_ns(200_000);
    let ss = stepped.run_for_ns(200_000);
    assert_eq!(sb, ss);
    assert!(
        stepped.ticks_processed() >= 4 * batched.ticks_processed(),
        "saturated batching too weak: stepped {} ticks vs batched {}",
        stepped.ticks_processed(),
        batched.ticks_processed()
    );
}
