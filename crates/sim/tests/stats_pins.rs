//! Pinned simulator output: `SimStats`, shutdown outcomes and tick counts,
//! bit for bit.
//!
//! `batching.rs` and `wake_edges.rs` compare the event-batched engine with
//! the cycle-stepped one. Both engines share the queue, injection and
//! forwarding primitives, so a change that both make together passes those
//! tests. This file pins the output itself. Every case hashes every field
//! of every snapshot it takes, in declaration order, with [`fnv1a64`], and
//! compares the hash with a constant; plain runs also pin the batched
//! engine's `ticks_processed`. The constants were produced by the engine
//! that kept its queues as `Vec<Vec<VecDeque>>` and staged one flit per
//! copy, so any change to timing, arbitration, backpressure or the RNG
//! draw order moves a pin. Both engines must hit every digest.
//!
//! Cases: d26 at 6 islands (CBR across loads, queue depths and packet
//! sizes; Poisson), d12 at 4 islands, the shutdown drivers on every
//! gateable d26 island (one cell that does not drain), and a hand-built
//! switch with 70 cores, whose eject ports and cores overflow one 64-bit
//! word.

use vi_noc_core::{fnv1a64, synthesize, SynthesisConfig, Topology, TopologyBuilder};
use vi_noc_models::{Bandwidth, Frequency};
use vi_noc_sim::{
    run_dynamic_cell, run_shutdown_scenario, CellOutcome, ShutdownOutcome, ShutdownScenario,
    SimConfig, SimStats, Simulator, TrafficKind,
};
use vi_noc_soc::{benchmarks, partition, CoreKind, CoreSpec, SocSpec, TrafficFlow, ViAssignment};

/// Appends every `SimStats` field, in declaration order, little-endian.
fn push_stats(bytes: &mut Vec<u8>, s: &SimStats) {
    bytes.extend_from_slice(&(s.flows.len() as u64).to_le_bytes());
    for f in &s.flows {
        bytes.extend_from_slice(&f.injected_packets.to_le_bytes());
        bytes.extend_from_slice(&f.delivered_packets.to_le_bytes());
        bytes.extend_from_slice(&f.total_latency_ps.to_le_bytes());
        bytes.extend_from_slice(&f.max_latency_ps.to_le_bytes());
    }
    bytes.extend_from_slice(&s.elapsed_ps.to_le_bytes());
    bytes.extend_from_slice(&s.flits_in_flight.to_le_bytes());
    bytes.extend_from_slice(&(s.switch_flits.len() as u64).to_le_bytes());
    for &n in &s.switch_flits {
        bytes.extend_from_slice(&n.to_le_bytes());
    }
}

fn outcome_digest(o: &ShutdownOutcome) -> u64 {
    let mut bytes = Vec::new();
    for n in [o.survivors_before, o.survivors_after, o.total_delivered] {
        bytes.extend_from_slice(&n.to_le_bytes());
    }
    bytes.push(o.drained_cleanly as u8);
    fnv1a64(&bytes)
}

fn cell_digest(c: &CellOutcome) -> u64 {
    let mut bytes = Vec::new();
    push_stats(&mut bytes, &c.stats);
    if let Some(s) = &c.shutdown {
        bytes.push(s.drained_cleanly as u8);
        bytes.extend_from_slice(&s.survivors_before.to_le_bytes());
        bytes.extend_from_slice(&s.survivors_after.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Runs `segments_ns` back to back in one engine and returns the digest of
/// every snapshot, with the engine's tick count.
fn run(
    soc: &SocSpec,
    topo: &Topology,
    cfg: &SimConfig,
    batching: bool,
    segments_ns: &[u64],
) -> (u64, u64) {
    let mut sim = Simulator::new(
        soc,
        topo,
        &SimConfig {
            batching,
            ..cfg.clone()
        },
    );
    let mut bytes = Vec::new();
    for &ns in segments_ns {
        push_stats(&mut bytes, &sim.run_for_ns(ns));
    }
    (fnv1a64(&bytes), sim.ticks_processed())
}

/// Asserts that both engines reproduce the pinned digest and the batched
/// engine the pinned tick count.
fn check(
    name: &str,
    soc: &SocSpec,
    topo: &Topology,
    cfg: &SimConfig,
    segments_ns: &[u64],
    pin: (u64, u64),
) {
    let (digest, ticks) = run(soc, topo, cfg, true, segments_ns);
    assert_eq!(
        (digest, ticks),
        pin,
        "{name}: batched (digest, ticks) = ({digest:#018x}, {ticks})"
    );
    let (stepped, _) = run(soc, topo, cfg, false, segments_ns);
    assert_eq!(stepped, pin.0, "{name}: stepped digest {stepped:#018x}");
}

fn design(soc: &SocSpec, k: usize) -> (ViAssignment, Topology) {
    let vi = partition::logical_partition(soc, k).unwrap();
    let space = synthesize(soc, &vi, &SynthesisConfig::default()).unwrap();
    let topo = space.min_power_point().unwrap().topology.clone();
    (vi, topo)
}

const SEGMENTS_NS: [u64; 3] = [12_000, 1, 30_000];

/// `D26_CBR[load][queue capacity][packet bytes]` for loads 0.05, 0.8 and
/// 1.2, queue capacities 1 and 8, and 4- and 64-byte packets.
const D26_CBR: [[[(u64, u64); 2]; 2]; 3] = [
    // load 0.05
    [
        [(0x49f15a221074b2e9, 17644), (0x5a67c45d55c4880e, 19632)],
        [(0x6d53971fe893e636, 17453), (0x551b3030fed65edf, 12394)],
    ],
    // load 0.8
    [
        [(0x0826d30e973c3ce2, 62579), (0x5cd5f8e0617f8798, 59542)],
        [(0xf0ff815f7832b8d1, 63693), (0x5d87a495f02bf0c9, 63113)],
    ],
    // load 1.2
    [
        [(0xcf70c752226db38e, 63041), (0xc466266552378c27, 59495)],
        [(0x8c44d5cf8564c9ec, 63726), (0x5b75133ec3219021, 63697)],
    ],
];

fn d26_cbr(li: usize) {
    let soc = benchmarks::d26_mobile();
    let (_, topo) = design(&soc, 6);
    let load = [0.05, 0.8, 1.2][li];
    for (qi, queue_capacity) in [1, 8].into_iter().enumerate() {
        for (pi, packet_bytes) in [4, 64].into_iter().enumerate() {
            let cfg = SimConfig {
                load_factor: load,
                queue_capacity,
                packet_bytes,
                ..SimConfig::default()
            };
            let name = format!("d26 cbr load {load} queue {queue_capacity} packet {packet_bytes}");
            check(&name, &soc, &topo, &cfg, &SEGMENTS_NS, D26_CBR[li][qi][pi]);
        }
    }
}

#[test]
fn d26_cbr_light() {
    d26_cbr(0);
}

#[test]
fn d26_cbr_dense() {
    d26_cbr(1);
}

#[test]
fn d26_cbr_overload() {
    d26_cbr(2);
}

/// `D26_POISSON[load]` for loads 0.6 and 1.0 at queue capacity 2.
const D26_POISSON: [(u64, u64); 2] = [(0x1bc9a961ee3acc4a, 61382), (0x917d15f9a26fb8ac, 62589)];

#[test]
fn d26_poisson() {
    let soc = benchmarks::d26_mobile();
    let (_, topo) = design(&soc, 6);
    for (li, load) in [0.6, 1.0].into_iter().enumerate() {
        let cfg = SimConfig {
            traffic: TrafficKind::Poisson,
            load_factor: load,
            queue_capacity: 2,
            ..SimConfig::default()
        };
        let name = format!("d26 poisson load {load}");
        check(&name, &soc, &topo, &cfg, &SEGMENTS_NS, D26_POISSON[li]);
    }
}

/// `D12[traffic]` for CBR at load 1.0 and Poisson at load 0.85.
const D12: [(u64, u64); 2] = [(0x382e69a91edc578e, 26041), (0x77d72ff43d388fc7, 25426)];

#[test]
fn d12_cbr_and_poisson() {
    let soc = benchmarks::d12_auto();
    let (_, topo) = design(&soc, 4);
    for (ti, (traffic, load)) in [(TrafficKind::Cbr, 1.0), (TrafficKind::Poisson, 0.85)]
        .into_iter()
        .enumerate()
    {
        let cfg = SimConfig {
            traffic,
            load_factor: load,
            ..SimConfig::default()
        };
        check(
            &format!("d12 {traffic}"),
            &soc,
            &topo,
            &cfg,
            &SEGMENTS_NS,
            D12[ti],
        );
    }
}

/// Per gateable d26 island, ascending: the digest of
/// `run_shutdown_scenario`'s outcome and of `run_dynamic_cell`'s.
const D26_SHUTDOWN: [(u64, u64); 5] = [
    (0x601d025cfca2a752, 0x7e61928c5b50ef28),
    (0xacb9b17a4e98a984, 0xf20117d7eb910845),
    (0xbb8c7ace63977e7f, 0x4f95ba2f8debee80),
    (0x1f01964639669d12, 0x3bcb802ebd897a50),
    (0x14535bcaef304c8e, 0x6dd17f6d001ecd6c),
];

/// The overloaded cell whose drain budget is too short to empty the island.
const D26_UNDRAINED_CELL: u64 = 0xe995beac69a6a3f2;

#[test]
fn d26_shutdown_drivers() {
    let soc = benchmarks::d26_mobile();
    let (vi, topo) = design(&soc, 6);
    let gateable: Vec<usize> = (0..vi.island_count())
        .filter(|&j| vi.can_shutdown(j))
        .collect();
    assert_eq!(gateable.len(), D26_SHUTDOWN.len());
    for (&island, &pin) in gateable.iter().zip(&D26_SHUTDOWN) {
        let sched = ShutdownScenario {
            island,
            stop_at_ns: 8_000,
            drain_ns: 3_000,
            post_gate_ns: 10_000,
        };
        let cfg = SimConfig::default();
        let per_engine = |batching: bool| {
            let cfg = SimConfig {
                batching,
                ..cfg.clone()
            };
            (
                outcome_digest(&run_shutdown_scenario(&soc, &vi, &topo, &cfg, &sched)),
                cell_digest(&run_dynamic_cell(&soc, &vi, &topo, &cfg, 0, Some(&sched))),
            )
        };
        for batching in [true, false] {
            let got = per_engine(batching);
            assert_eq!(
                got, pin,
                "island {island}, batching {batching}: digests ({:#018x}, {:#018x})",
                got.0, got.1
            );
        }
    }

    let sched = ShutdownScenario {
        island: gateable[0],
        stop_at_ns: 6_000,
        drain_ns: 50,
        post_gate_ns: 4_000,
    };
    let per_engine = |batching: bool| {
        let cfg = SimConfig {
            load_factor: 1.2,
            batching,
            ..SimConfig::default()
        };
        run_dynamic_cell(&soc, &vi, &topo, &cfg, 0, Some(&sched))
    };
    for batching in [true, false] {
        let cell = per_engine(batching);
        assert!(!cell.shutdown.as_ref().unwrap().drained_cleanly);
        let got = cell_digest(&cell);
        assert_eq!(
            got, D26_UNDRAINED_CELL,
            "undrained cell, batching {batching}: digest {got:#018x}"
        );
    }
}

/// One switch with 70 cores on island 0, and a two-core switch on the
/// other island. Every big-switch core sends to its neighbour (70 eject
/// ports in use) and every even one also across, and the far cores send
/// back to the last cores of the big switch: the eject ports and cores
/// above index 63 carry traffic, and at overload both islands park and
/// wake.
fn seventy_core_switch() -> (SocSpec, Topology) {
    const N: usize = 70;
    let mut spec = SocSpec::new("wide");
    let big: Vec<_> = (0..N)
        .map(|i| {
            spec.add_core(CoreSpec::new(
                format!("c{i}"),
                CoreKind::Dsp,
                1.0,
                10.0,
                500.0,
            ))
        })
        .collect();
    let far: Vec<_> = (0..2)
        .map(|i| {
            spec.add_core(CoreSpec::new(
                format!("m{i}"),
                CoreKind::Memory,
                1.0,
                10.0,
                300.0,
            ))
        })
        .collect();
    let mut local = Vec::new();
    let mut out = Vec::new();
    let mut back = Vec::new();
    for i in 0..N {
        local.push(spec.add_flow(TrafficFlow::new(big[i], big[(i + 1) % N], 300.0, 64)));
        if i % 2 == 0 {
            out.push(spec.add_flow(TrafficFlow::new(big[i], far[i / 2 % 2], 40.0, 64)));
        }
    }
    for (j, &m) in far.iter().enumerate() {
        for k in 0..3 {
            back.push(spec.add_flow(TrafficFlow::new(m, big[N - 1 - 2 * k - j], 250.0, 64)));
        }
    }
    let freqs: Vec<Frequency> = [500.0, 300.0, 1000.0]
        .iter()
        .map(|&m| Frequency::from_mhz(m))
        .collect();
    let mut b = TopologyBuilder::new(&spec, 2, freqs, 32);
    let sw0 = b.add_switch("sw0", 0, big);
    let sw1 = b.add_switch("sw1", 1, far);
    let cap = Bandwidth::from_mbps(4000.0);
    b.open_link(sw0, sw1, cap);
    b.open_link(sw1, sw0, cap);
    for f in local {
        b.set_route(&spec, f, vec![sw0]);
    }
    for f in out {
        b.set_route(&spec, f, vec![sw0, sw1]);
    }
    for f in back {
        b.set_route(&spec, f, vec![sw1, sw0]);
    }
    (spec, b.build())
}

/// `WIDE[queue capacity]` for capacities 1 and 8 at load 1.5.
const WIDE: [(u64, u64); 2] = [(0xb77fe2640ab6d3d6, 15479), (0xba1e45ee19b53e58, 15989)];

#[test]
fn seventy_core_switch_overflows_one_word() {
    let (spec, topo) = seventy_core_switch();
    for (qi, queue_capacity) in [1, 8].into_iter().enumerate() {
        let cfg = SimConfig {
            load_factor: 1.5,
            queue_capacity,
            ..SimConfig::default()
        };
        let name = format!("wide queue {queue_capacity}");
        check(&name, &spec, &topo, &cfg, &[8_000, 1, 12_000], WIDE[qi]);
    }
}
