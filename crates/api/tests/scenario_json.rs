//! Scenario JSON round-trips and parser error paths.
//!
//! The core property: `Scenario::from_json(s.to_json()) == s` exactly, for
//! random synthetic SoCs and stage configurations — emission writes every
//! field in storage units with shortest-round-trip numbers, so nothing is
//! lost. A second property runs what ingestion accepts: `Scenario::run`
//! returns a report or an error, never a panic. Plus error-path coverage
//! for the serde-free JSON parser the ingestion is built on (truncated
//! input, duplicate keys, non-finite numbers) and for the sizes ingestion
//! and partition resolution refuse.

use proptest::prelude::*;
use vi_noc_api::fleet::{job_payload, ScenarioJobResolver};
use vi_noc_api::{
    DynSweepPlan, IslandChoice, PartitionPlan, RefinePlan, Scenario, ShutdownPlan, SimPlan,
    SpecSource,
};
use vi_noc_core::{json, SynthesisConfig};
use vi_noc_dynsweep::Mode;
use vi_noc_fleet::JobResolver;
use vi_noc_floorplan::FloorplanConfig;
use vi_noc_models::Technology;
use vi_noc_sim::TrafficKind;
use vi_noc_soc::{generate_synthetic, SyntheticConfig};
use vi_noc_sweep::{GridConfig, RefineParams};

fn arb_spec() -> impl Strategy<Value = SpecSource> {
    (0usize..5, 4usize..24, 0u64..1000).prop_map(|(pick, n_cores, seed)| match pick {
        0 => SpecSource::Benchmark("d12".into()),
        1 => SpecSource::Benchmark("d26".into()),
        _ => SpecSource::Inline(generate_synthetic(&SyntheticConfig {
            n_cores,
            seed,
            ..SyntheticConfig::default()
        })),
    })
}

fn arb_partition() -> impl Strategy<Value = PartitionPlan> {
    (0usize..2, 1usize..5, 0u64..100).prop_map(|(pick, islands, seed)| match pick {
        0 => PartitionPlan::Logical { islands },
        _ => PartitionPlan::Communication { islands, seed },
    })
}

fn arb_synthesis() -> impl Strategy<Value = SynthesisConfig> {
    (0.05f64..0.95, 0u64..1_000_000, 0usize..3).prop_map(|(alpha, seed, tech)| SynthesisConfig {
        alpha,
        seed,
        technology: match tech {
            0 => Technology::cmos_65nm(),
            1 => Technology::cmos_90nm(),
            _ => {
                // A custom node exercises the inline-object emission.
                Technology {
                    vdd_v: 0.8 + alpha / 10.0,
                    node_nm: 45.0,
                    ..Technology::cmos_65nm()
                }
            }
        },
        ..SynthesisConfig::default()
    })
}

fn arb_floorplan() -> impl Strategy<Value = FloorplanConfig> {
    (1_000usize..30_000, 1usize..4, 0u64..1000).prop_map(|(iterations, restarts, seed)| {
        FloorplanConfig {
            iterations,
            restarts,
            seed,
            ..FloorplanConfig::default()
        }
    })
}

fn arb_sim() -> impl Strategy<Value = Option<SimPlan>> {
    (0usize..3, 0.05f64..1.5, 1u64..500_000, proptest::bool::ANY).prop_map(
        |(pick, load_factor, horizon_ns, batching)| match pick {
            0 => None,
            p => {
                let mut plan = SimPlan::default();
                plan.config.traffic = if p == 1 {
                    TrafficKind::Cbr
                } else {
                    TrafficKind::Poisson
                };
                plan.config.load_factor = load_factor;
                plan.config.batching = batching;
                plan.horizon_ns = horizon_ns;
                Some(plan)
            }
        },
    )
}

fn arb_shutdown() -> impl Strategy<Value = Option<ShutdownPlan>> {
    (0usize..3, 0usize..6, 1u64..100_000).prop_map(|(pick, island, stop_at_ns)| match pick {
        0 => None,
        p => Some(ShutdownPlan {
            island: if p == 1 {
                IslandChoice::Auto
            } else {
                IslandChoice::Index(island)
            },
            stop_at_ns,
            ..ShutdownPlan::default()
        }),
    })
}

/// Points every explicit shutdown island of `s` (its `shutdown` member and
/// its dynamic sweep's schedules) at an island its partition can gate, so
/// that a run reaches the shutdown cell: index `j` becomes the `j`-th
/// gateable island, cyclically. Without a gateable island (or a partition)
/// the index stays as drawn and the run fails when it resolves it.
fn aim_at_gateable_islands(s: &mut Scenario) {
    let gateable: Vec<usize> = s
        .resolve_spec()
        .and_then(|spec| s.resolve_partition(&spec))
        .map(|vi| {
            (0..vi.island_count())
                .filter(|&j| vi.can_shutdown(j))
                .collect()
        })
        .unwrap_or_default();
    if gateable.is_empty() {
        return;
    }
    let schedules = s.dyn_sweep.iter_mut().flat_map(|p| &mut p.schedules);
    for plan in s.shutdown.iter_mut().chain(schedules.flatten()) {
        if let IslandChoice::Index(j) = plan.island {
            plan.island = IslandChoice::Index(gateable[j % gateable.len()]);
        }
    }
}

fn arb_sweep() -> impl Strategy<Value = Option<GridConfig>> {
    (0usize..3, 0usize..3, 0usize..5, 1.0f64..1.5).prop_map(
        |(pick, max_boost, max_intermediate, scale)| match pick {
            0 => None,
            p => Some(GridConfig {
                max_boost,
                max_intermediate,
                freq_scales: if p == 1 { vec![1.0] } else { vec![1.0, scale] },
            }),
        },
    )
}

fn arb_refine() -> impl Strategy<Value = Option<RefinePlan>> {
    (0usize..3, 0usize..3, 0usize..4, 0.0f64..0.6).prop_map(
        |(pick, boost_radius, base_radius, scale_window)| match pick {
            0 => None,
            p => Some(RefinePlan {
                grid: GridConfig {
                    max_boost: boost_radius + 1,
                    max_intermediate: base_radius,
                    freq_scales: if p == 1 {
                        vec![1.0]
                    } else {
                        vec![1.0, 1.0 + scale_window]
                    },
                },
                params: RefineParams {
                    boost_radius,
                    base_radius,
                    scale_window,
                },
            }),
        },
    )
}

fn arb_dyn_sweep() -> impl Strategy<Value = Option<DynSweepPlan>> {
    (0usize..3, 0.1f64..1.5, 1u64..50_000, arb_shutdown()).prop_map(
        |(pick, load, horizon_ns, sched)| match pick {
            0 => None,
            p => Some(DynSweepPlan {
                loads: if p == 1 {
                    vec![load]
                } else {
                    vec![load, load + 0.25]
                },
                traffic: if p == 1 {
                    vec![TrafficKind::Cbr]
                } else {
                    vec![TrafficKind::Cbr, TrafficKind::Poisson]
                },
                // Axes never repeat a value, so the second schedule gates.
                schedules: if p == 1 {
                    vec![None]
                } else {
                    vec![None, Some(sched.unwrap_or_default())]
                },
                horizon_ns,
                mode: Mode::Exact,
            }),
        },
    )
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (arb_spec(), arb_partition(), arb_synthesis()),
        (arb_floorplan(), arb_sim(), arb_shutdown(), arb_sweep()),
        (proptest::bool::ANY, arb_refine(), arb_dyn_sweep()),
        0u64..u64::MAX,
    )
        .prop_map(
            |(
                (spec, partition, synthesis),
                (floorplan, sim, shutdown, sweep),
                (sweep_prune, refine, dyn_sweep),
                tag,
            )| {
                let mut s = Scenario {
                    name: format!("prop scenario {tag}"),
                    spec,
                    partition,
                    synthesis,
                    floorplan,
                    sim,
                    shutdown,
                    // Refinement or a dynamic sweep without a coarse grid is
                    // rejected at ingestion, so it never round-trips; keep the
                    // members consistent.
                    refine: if sweep.is_some() { refine } else { None },
                    dyn_sweep: if sweep.is_some() { dyn_sweep } else { None },
                    sweep,
                    sweep_prune,
                    sweep_workers: None,
                };
                aim_at_gateable_islands(&mut s);
                s
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: serialization loses nothing, exactly.
    #[test]
    fn scenario_json_round_trips_exactly(scenario in arb_scenario()) {
        let json = scenario.to_json();
        let back = Scenario::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{json}")))?;
        prop_assert_eq!(&back, &scenario);
        // Emission is a fixed point of parse -> emit.
        prop_assert_eq!(back.to_json(), json);
    }

    /// Any strict truncation of an emitted scenario is rejected, never
    /// mis-parsed or panicked on. (The last two bytes are a closing `}`
    /// and a trailing newline; only cuts before them are malformed.)
    #[test]
    fn truncated_scenarios_are_rejected(scenario in arb_scenario(), frac in 1usize..10) {
        let json = scenario.to_json();
        let cut = json.len() * frac / 10;
        if cut < json.len() - 2 {
            prop_assert!(Scenario::from_json(&json[..cut]).is_err(), "cut at {cut}");
        }
    }
}

/// `s` with the annealing and every simulated horizon cut short (sim
/// ≤ 4 µs, shutdown and dynamic-sweep schedules ≤ 2 µs), so a generated
/// case runs in milliseconds even in a debug build.
fn cut_short(mut s: Scenario) -> Scenario {
    s.floorplan.iterations = s.floorplan.iterations.min(2_000);
    if let Some(plan) = &mut s.sim {
        plan.horizon_ns = plan.horizon_ns.min(4_000);
    }
    let clamp = |p: &mut ShutdownPlan| {
        p.stop_at_ns = p.stop_at_ns.min(2_000);
        p.drain_ns = p.drain_ns.min(2_000);
        p.post_gate_ns = p.post_gate_ns.min(2_000);
    };
    if let Some(plan) = &mut s.shutdown {
        clamp(plan);
    }
    if let Some(plan) = &mut s.dyn_sweep {
        plan.horizon_ns = plan.horizon_ns.min(2_000);
        plan.schedules.iter_mut().flatten().for_each(clamp);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A scenario that passes ingestion never panics further down: every
    /// stage either produces its part of the report or fails with an
    /// `Err` (an unresolvable island, an undrained island, an empty
    /// refinement window, ...).
    #[test]
    fn an_ingested_scenario_runs_to_a_report_or_an_error(scenario in arb_scenario()) {
        let json = cut_short(scenario).to_json();
        let ingested = Scenario::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{json}")))?;
        let run = std::panic::catch_unwind(|| ingested.run().map(|_| ()));
        prop_assert!(run.is_ok(), "Scenario::run panicked on\n{json}");
    }
}

// --- Error paths of the serde-free parser itself ------------------------

#[test]
fn parser_rejects_truncations_of_a_real_document() {
    let doc = Scenario::new(
        "trunc",
        SpecSource::Benchmark("d12".into()),
        PartitionPlan::Logical { islands: 2 },
    )
    .to_json();
    // Every strict prefix that drops more than the trailing newline and
    // closing brace must fail to parse.
    for cut in 0..doc.len().saturating_sub(2) {
        assert!(
            json::parse(&doc[..cut]).is_err(),
            "prefix of {cut} bytes unexpectedly parsed"
        );
    }
}

#[test]
fn parser_rejects_duplicate_keys_everywhere() {
    for bad in [
        r#"{"name":"a","name":"b"}"#,
        r#"{"sim":{"seed":1,"seed":2}}"#,
        r#"[{"x":1},{"y":1,"y":2}]"#,
    ] {
        let err = json::parse(bad).unwrap_err();
        assert!(err.msg.contains("duplicate"), "{bad}: {err}");
    }
    // And through scenario ingestion, with the parse offset attached.
    let err = Scenario::from_json(r#"{"name":"x","name":"y"}"#).unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
}

#[test]
fn parser_rejects_non_finite_numbers() {
    for bad in ["1e999", "-1e999", r#"{"alpha":1e999}"#, "[1e400]"] {
        assert!(json::parse(bad).is_err(), "{bad}");
    }
    // A scenario smuggling an over-range literal is rejected at parse, so
    // non-finite values can never reach the synthesis math.
    let err = Scenario::from_json(
        r#"{"name":"x","spec":{"benchmark":"d12"},"partition":{"kind":"logical","islands":2},"synthesis":{"alpha":1e999}}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("non-finite"), "{err}");
}

#[test]
fn out_of_range_intermediate_counts_fail_at_ingestion() {
    // The sweeps enumerate every intermediate count up front, so an
    // unbounded one would abort the process allocating them.
    let with = |member: &str, n: &str| {
        format!(
            r#"{{"name":"m","spec":{{"benchmark":"d26"}},
            "partition":{{"kind":"logical","islands":2}},{}}}"#,
            member.replace('N', n)
        )
    };
    for (member, path) in [
        (
            r#""synthesis":{"max_intermediate_switches":N}"#,
            "scenario.synthesis.max_intermediate_switches",
        ),
        (
            r#""sweep":{"max_intermediate":N}"#,
            "scenario.sweep.max_intermediate",
        ),
        (
            r#""sweep":{},"refine":{"grid":{"max_intermediate":N}}"#,
            "scenario.refine.grid.max_intermediate",
        ),
    ] {
        for n in ["65", "100000000000"] {
            let msg = Scenario::from_json(&with(member, n))
                .unwrap_err()
                .to_string();
            assert!(msg.contains(path) && msg.contains("at most 64"), "{msg}");
        }
        assert!(Scenario::from_json(&with(member, "64")).is_ok(), "{path}");
    }
}

#[test]
fn the_parallel_members_are_unknown() {
    // Fan-out width is the thread count, not a scenario member.
    for (member, path) in [
        (r#""synthesis":{"parallel":false}"#, "scenario.synthesis"),
        (r#""floorplan":{"parallel":true}"#, "scenario.floorplan"),
    ] {
        let text = format!(
            r#"{{"name":"p","spec":{{"benchmark":"d12"}},
            "partition":{{"kind":"logical","islands":4}},{member}}}"#
        );
        let msg = Scenario::from_json(&text).unwrap_err().to_string();
        assert!(
            msg.contains(&format!("{path}: unknown member 'parallel'")),
            "{msg}"
        );
    }
}

#[test]
fn a_grid_too_large_to_number_fails_before_any_stage() {
    // 2001^6 boost codes: building the grid would overflow a u64 and
    // panic, after synthesis and the floorplan had run.
    let coarse = r#""sweep":{"max_boost":2000,"freq_scales":[1],"max_intermediate":1}"#;
    let fine = r#""sweep":{},"refine":{"grid":{"max_boost":400}}"#;
    for (grid, context) in [(coarse, "scenario sweep:"), (fine, "scenario refine.grid:")] {
        let text = format!(
            r#"{{"name":"huge","spec":{{"benchmark":"d26"}},
            "partition":{{"kind":"logical","islands":6}},{grid}}}"#
        );
        let s = Scenario::from_json(&text).unwrap();
        let run = std::panic::catch_unwind(|| s.run());
        let err = run.expect("no panic").unwrap_err().to_string();
        assert!(err.starts_with(context) && err.contains("2^53"), "{err}");
        let payload = job_payload(&s, None);
        let resolved = std::panic::catch_unwind(|| ScenarioJobResolver.resolve(&payload));
        assert!(resolved.expect("no panic").is_err());
    }
}

#[test]
fn committed_example_scenarios_parse_and_round_trip() {
    for (name, text) in [
        (
            "d26_baseline",
            include_str!("../../../scenarios/d26_baseline.json"),
        ),
        (
            "d26_overclocked_fine",
            include_str!("../../../scenarios/d26_overclocked_fine.json"),
        ),
        (
            "d26_shutdown_stress",
            include_str!("../../../scenarios/d26_shutdown_stress.json"),
        ),
        (
            "d26_dynamic_grid",
            include_str!("../../../scenarios/d26_dynamic_grid.json"),
        ),
    ] {
        let scenario = Scenario::from_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(back, scenario, "{name}");
        // Committed scenarios must resolve against the bundled benchmarks.
        let spec = scenario
            .resolve_spec()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        scenario
            .resolve_partition(&spec)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
