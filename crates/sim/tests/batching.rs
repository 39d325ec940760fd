//! The batching contract: the event-batched engine must be an *exact*
//! optimization of the cycle-stepped reference — same `SimStats`, bit for
//! bit, on every workload.
//!
//! This is the simulator's analogue of `crates/core/tests/warm_start.rs`
//! (which pins warm-started sweeps to cold evaluation): golden runs over
//! the bundled benchmarks plus property tests over random synthetic
//! designs, covering CBR and Poisson traffic, light and saturating loads,
//! multi-clock islands, segmented runs, flow deactivation and full
//! shutdown scenarios.

use proptest::prelude::*;
use vi_noc_core::{synthesize, SynthesisConfig, Topology};
use vi_noc_sim::{
    run_shutdown_scenario, ShutdownScenario, SimConfig, SimStats, Simulator, TrafficKind,
};
use vi_noc_soc::{benchmarks, generate_synthetic, partition, SocSpec, SyntheticConfig};

/// Synthesizes the minimum-power topology for a bundled benchmark.
fn design(soc: &SocSpec, k: usize) -> Topology {
    let vi = partition::logical_partition(soc, k).unwrap();
    let space = synthesize(soc, &vi, &SynthesisConfig::default()).unwrap();
    space.min_power_point().unwrap().topology.clone()
}

/// Runs the same segmented schedule in both modes and asserts each
/// intermediate snapshot (not just the final one) is identical.
fn assert_equivalent(soc: &SocSpec, topo: &Topology, cfg: &SimConfig, segments_ns: &[u64]) {
    let mut batched = Simulator::new(
        soc,
        topo,
        &SimConfig {
            batching: true,
            ..cfg.clone()
        },
    );
    let mut stepped = Simulator::new(
        soc,
        topo,
        &SimConfig {
            batching: false,
            ..cfg.clone()
        },
    );
    for (i, &ns) in segments_ns.iter().enumerate() {
        let sb: SimStats = batched.run_for_ns(ns);
        let ss: SimStats = stepped.run_for_ns(ns);
        assert_eq!(
            sb, ss,
            "batched vs stepped diverged in segment {i} (+{ns} ns) of {:?}",
            cfg
        );
    }
}

#[test]
fn golden_d12_cbr_and_poisson() {
    let soc = benchmarks::d12_auto();
    let topo = design(&soc, 4);
    for traffic in [TrafficKind::Cbr, TrafficKind::Poisson] {
        for load in [0.1, 0.85] {
            let cfg = SimConfig {
                traffic,
                load_factor: load,
                ..SimConfig::default()
            };
            assert_equivalent(&soc, &topo, &cfg, &[12_000, 1, 30_000]);
        }
    }
}

/// D26 at 6 islands is the paper's case study and the sharpest multi-clock
/// configuration the suite runs: seven distinct clock domains (six islands
/// plus the intermediate island), so same-timestamp tick coincidences and
/// cross-domain dwell timing all get exercised.
#[test]
fn golden_d26_multi_clock_islands() {
    let soc = benchmarks::d26_mobile();
    let topo = design(&soc, 6);
    // CBR from light load through the saturation knee at 1.0 to overload;
    // the light and dense regimes (0.05, 0.8) also run a 100 us horizon.
    for (load, segments_ns) in [
        (0.05, [20_000, 80_000]),
        (0.25, [20_000, 40_000]),
        (0.8, [20_000, 80_000]),
        (0.9, [20_000, 40_000]),
        (1.0, [20_000, 40_000]),
        (1.2, [20_000, 40_000]),
    ] {
        let cfg = SimConfig {
            load_factor: load,
            ..SimConfig::default()
        };
        assert_equivalent(&soc, &topo, &cfg, &segments_ns);
    }
    let cfg = SimConfig {
        traffic: TrafficKind::Poisson,
        load_factor: 0.6,
        ..SimConfig::default()
    };
    assert_equivalent(&soc, &topo, &cfg, &[25_000]);
}

/// Saturation keeps NI backlogs non-empty for long stretches and runs the
/// queues full: the wake-list path, where blocked heads and backlogged NIs
/// park instead of busy-waiting and every pop must re-arm its watchers at
/// exactly the stepped engine's retry tick.
#[test]
fn golden_overload_backpressure() {
    let soc = benchmarks::d12_auto();
    let topo = design(&soc, 4);
    let cfg = SimConfig {
        load_factor: 1.5,
        queue_capacity: 2,
        ..SimConfig::default()
    };
    assert_equivalent(&soc, &topo, &cfg, &[30_000]);
}

/// The saturation matrix on the paper's multi-clock case study: tiny
/// (1- and 2-deep) queues × overload CBR and bursty Poisson at the
/// saturation point, across D26's seven clock domains. Tiny queues park
/// and wake on almost every hop; the frequency ratios place wake targets
/// between the watcher's grid points in both index directions.
#[test]
fn golden_saturation_matrix_d26() {
    let soc = benchmarks::d26_mobile();
    let topo = design(&soc, 6);
    for queue_capacity in [1, 2] {
        for (traffic, load) in [(TrafficKind::Cbr, 1.2), (TrafficKind::Poisson, 1.0)] {
            let cfg = SimConfig {
                queue_capacity,
                traffic,
                load_factor: load,
                ..SimConfig::default()
            };
            assert_equivalent(&soc, &topo, &cfg, &[15_000, 1, 10_000]);
        }
    }
}

/// Mid-run shutdown of a congested island at overload: the drain's pops
/// must wake the upstream islands parked on the island's full queues, and
/// the whole stop–drain–gate–continue outcome must agree bit for bit.
#[test]
fn saturated_shutdown_of_congested_islands_agree() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
    let topo = space.min_power_point().unwrap().topology.clone();
    for island in 0..vi.island_count() {
        if !vi.can_shutdown(island) {
            continue;
        }
        // Stop early and drain generously: `deactivate_flow` only stops the
        // generators, so the island's staged overload backlog still has to
        // flush through queues the survivors keep contending. Queue depth
        // stays at the default — 1–2-deep queues dwell-serialize the
        // contested paths below even the backlog's drain demand, and then
        // nothing ever drains (identically in both engines, but the
        // scenario driver panics).
        let scenario = ShutdownScenario {
            island,
            stop_at_ns: 6_000,
            drain_ns: 25_000,
            post_gate_ns: 15_000,
        };
        let outcome = |batching: bool| {
            let cfg = SimConfig {
                batching,
                load_factor: 1.3,
                ..SimConfig::default()
            };
            run_shutdown_scenario(&soc, &vi, &topo, &cfg, &scenario)
        };
        assert_eq!(outcome(true), outcome(false), "island {island}");
    }
}

/// The perf half of the wake-list contract on the paper's case study.
/// Uniformly saturated D26 is *real-work dense*: every island hosts live
/// flows, so nearly every domain performs some state change almost every
/// cycle and exact batching cannot sleep it — the measured tick reduction
/// (~1.4×, the busy-wait fraction the wake lists eliminate) is the honest
/// ceiling for this workload, unlike bottleneck backpressure where whole
/// domains stall (see `wake_edges::saturated_chain_processes_far_fewer_
/// ticks`, which pins ≥4×). Tick counts are deterministic, so the bound is
/// exact, not a wall-clock proxy.
#[test]
fn saturated_d26_batches_ticks() {
    let soc = benchmarks::d26_mobile();
    let topo = design(&soc, 6);
    let mut sims: Vec<Simulator> = [true, false]
        .iter()
        .map(|&batching| {
            Simulator::new(
                &soc,
                &topo,
                &SimConfig {
                    batching,
                    load_factor: 1.2,
                    queue_capacity: 2,
                    ..SimConfig::default()
                },
            )
        })
        .collect();
    let sb = sims[0].run_for_ns(20_000);
    let ss = sims[1].run_for_ns(20_000);
    assert_eq!(sb, ss);
    assert!(
        10 * sims[1].ticks_processed() >= 13 * sims[0].ticks_processed(),
        "saturated batching regressed below the 1.3x busy-wait floor: \
         stepped {} ticks vs batched {}",
        sims[1].ticks_processed(),
        sims[0].ticks_processed()
    );
}

/// Single-flit packets change the staging cadence (no multi-cycle packet
/// bursts), a different event-density regime than the 16-flit default.
#[test]
fn golden_single_flit_packets() {
    let soc = benchmarks::d12_auto();
    let topo = design(&soc, 4);
    let cfg = SimConfig {
        packet_bytes: 4,
        load_factor: 0.5,
        ..SimConfig::default()
    };
    assert_equivalent(&soc, &topo, &cfg, &[40_000]);
}

/// The zero-load latency probe (the measurement pattern behind Figure 3):
/// one single-flit flow crosses the d26 design while every other flow is
/// deactivated before the first cycle, so nearly every tick is idle.
#[test]
fn zero_load_probe_d26() {
    let soc = benchmarks::d26_mobile();
    let topo = design(&soc, 6);
    let run = |batching: bool| {
        let mut sim = Simulator::new(
            &soc,
            &topo,
            &SimConfig {
                packet_bytes: 4,
                batching,
                ..SimConfig::default()
            },
        );
        for fid in soc.flow_ids().skip(1) {
            sim.deactivate_flow(fid);
        }
        [20_000, 80_000].map(|ns| sim.run_for_ns(ns))
    };
    let batched = run(true);
    assert!(
        batched[1].total_delivered_packets() > 0,
        "the probe flow ran"
    );
    assert_eq!(batched, run(false));
}

/// Deactivating flows mid-run must leave both engines in lock-step: the
/// drain that follows is the sparse regime batching exists for, and the
/// arbitration pointers must come out of the idle span aligned.
#[test]
fn deactivation_and_drain_stay_in_lock_step() {
    let soc = benchmarks::d26_mobile();
    let topo = design(&soc, 6);
    let run = |batching: bool| {
        let mut sim = Simulator::new(
            &soc,
            &topo,
            &SimConfig {
                batching,
                ..SimConfig::default()
            },
        );
        sim.run_for_ns(15_000);
        for (i, fid) in soc.flow_ids().enumerate() {
            if i % 2 == 0 {
                sim.deactivate_flow(fid);
            }
        }
        sim.run_for_ns(200_000);
        sim.run_for_ns(5_000)
    };
    assert_eq!(run(true), run(false));
}

/// Full shutdown scenarios — stop, drain, gate, continue — agree on every
/// outcome field for every gateable island.
#[test]
fn shutdown_scenarios_agree() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
    let topo = space.min_power_point().unwrap().topology.clone();
    for island in 0..vi.island_count() {
        if !vi.can_shutdown(island) {
            continue;
        }
        let scenario = ShutdownScenario {
            island,
            stop_at_ns: 15_000,
            drain_ns: 8_000,
            post_gate_ns: 20_000,
        };
        let outcome = |batching: bool| {
            let cfg = SimConfig {
                batching,
                ..SimConfig::default()
            };
            run_shutdown_scenario(&soc, &vi, &topo, &cfg, &scenario)
        };
        assert_eq!(outcome(true), outcome(false), "island {island}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random synthetic designs, random loads, both traffic kinds, random
    /// segment boundaries: batched == stepped, snapshot for snapshot.
    #[test]
    fn batched_equals_stepped_on_random_designs(
        n_cores in 8usize..20,
        seed in 0u64..64,
        load in 0.05f64..1.2,
        poisson in proptest::bool::ANY,
        seg1 in 1u64..30_000,
        seg2 in 1u64..30_000,
    ) {
        let spec = generate_synthetic(&SyntheticConfig {
            n_cores,
            seed,
            ..SyntheticConfig::default()
        });
        let Ok(vi) = partition::communication_partition(&spec, 3.min(spec.core_count()), seed)
        else { return Ok(()); };
        let Ok(space) = synthesize(&spec, &vi, &SynthesisConfig::default()) else {
            return Ok(());
        };
        let Some(point) = space.min_power_point() else { return Ok(()); };
        let cfg = SimConfig {
            load_factor: load,
            traffic: if poisson { TrafficKind::Poisson } else { TrafficKind::Cbr },
            seed,
            ..SimConfig::default()
        };
        let mut batched = Simulator::new(&spec, &point.topology, &SimConfig { batching: true, ..cfg.clone() });
        let mut stepped = Simulator::new(&spec, &point.topology, &SimConfig { batching: false, ..cfg.clone() });
        for ns in [seg1, seg2] {
            let sb = batched.run_for_ns(ns);
            let ss = stepped.run_for_ns(ns);
            prop_assert_eq!(&sb, &ss, "diverged after +{} ns", ns);
        }
    }

    /// The saturated regime specifically: random designs driven past their
    /// capacity through tiny (1–2 deep) queues, so the wake lists carry the
    /// whole schedule — most heads are blocked, most NIs parked, and every
    /// pop must re-arm its watchers at exactly the stepped retry tick.
    #[test]
    fn batched_equals_stepped_on_saturated_designs(
        n_cores in 8usize..20,
        seed in 0u64..64,
        load in 1.0f64..2.0,
        queue_capacity in 1usize..3,
        poisson in proptest::bool::ANY,
        seg1 in 1u64..30_000,
        seg2 in 1u64..30_000,
    ) {
        let spec = generate_synthetic(&SyntheticConfig {
            n_cores,
            seed,
            ..SyntheticConfig::default()
        });
        let Ok(vi) = partition::communication_partition(&spec, 3.min(spec.core_count()), seed)
        else { return Ok(()); };
        let Ok(space) = synthesize(&spec, &vi, &SynthesisConfig::default()) else {
            return Ok(());
        };
        let Some(point) = space.min_power_point() else { return Ok(()); };
        let cfg = SimConfig {
            load_factor: load,
            queue_capacity,
            traffic: if poisson { TrafficKind::Poisson } else { TrafficKind::Cbr },
            seed,
            ..SimConfig::default()
        };
        let mut batched = Simulator::new(&spec, &point.topology, &SimConfig { batching: true, ..cfg.clone() });
        let mut stepped = Simulator::new(&spec, &point.topology, &SimConfig { batching: false, ..cfg.clone() });
        for ns in [seg1, 1, seg2] {
            let sb = batched.run_for_ns(ns);
            let ss = stepped.run_for_ns(ns);
            prop_assert_eq!(&sb, &ss, "diverged after +{} ns", ns);
        }
    }
}
