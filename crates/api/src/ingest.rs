//! Scenario JSON ingestion and emission.
//!
//! Built on the workspace's one JSON module ([`vi_noc_core::json`]):
//! ingestion is *strict* — unknown members,
//! duplicate keys (rejected by the parser itself), wrong types and
//! out-of-range values are all errors with a JSON-path context — and
//! emission is byte-deterministic (fixed member order, every field written,
//! shortest-round-trip numbers), so
//! `Scenario::from_json(s.to_json()) == s` holds exactly; the proptest in
//! `crates/api/tests/scenario_json.rs` pins it over random synthetic SoCs
//! and configurations.
//!
//! Quantities have one spelling each, in their storage units (`clock_hz`,
//! `bandwidth_bytes_per_s`, `dyn_power_w`), so values round-trip
//! bit-exactly. Each config object is one member table ([`Table`]), which
//! the unknown-member check, the reads and the writes all walk.

use crate::error::Error;
use crate::scenario::{
    DynSweepPlan, IslandChoice, PartitionPlan, RefinePlan, Scenario, ShutdownPlan, SimPlan,
    SpecSource,
};
use vi_noc_core::json::{self, Obj, Value};
use vi_noc_core::SynthesisConfig;
use vi_noc_dynsweep::{first_repeat, Mode};
use vi_noc_floorplan::FloorplanConfig;
use vi_noc_models::{Area, Bandwidth, Frequency, Power, Technology};
use vi_noc_sim::TrafficKind;
use vi_noc_soc::{CoreId, CoreKind, CoreSpec, SocSpec, TrafficFlow};
use vi_noc_sweep::GridConfig;

/// `format` tag of scenario files.
pub const SCENARIO_FORMAT: &str = "vi-noc-scenario-v1";

type Members = [(String, Value)];

fn as_obj<'a>(v: &'a Value, ctx: &str) -> Result<&'a Members, Error> {
    match v {
        Value::Obj(members) => Ok(members),
        _ => Err(Error::scenario(ctx, "expected an object")),
    }
}

fn check_keys(members: &Members, allowed: &[&str], ctx: &str) -> Result<(), Error> {
    for (k, _) in members {
        if !allowed.contains(&k.as_str()) {
            return Err(Error::scenario(
                ctx,
                format!("unknown member '{k}' (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn get<'a>(members: &'a Members, key: &str) -> Option<&'a Value> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req<'a>(members: &'a Members, key: &str, ctx: &str) -> Result<&'a Value, Error> {
    get(members, key).ok_or_else(|| Error::scenario(ctx, format!("missing member '{key}'")))
}

fn str_of<'a>(v: &'a Value, ctx: &str) -> Result<&'a str, Error> {
    v.as_str()
        .ok_or_else(|| Error::scenario(ctx, "expected a string"))
}

fn f64_of(v: &Value, ctx: &str) -> Result<f64, Error> {
    v.as_f64()
        .ok_or_else(|| Error::scenario(ctx, "expected a number"))
}

fn u64_of(v: &Value, ctx: &str) -> Result<u64, Error> {
    v.as_u64()
        .ok_or_else(|| Error::scenario(ctx, "expected an unsigned integer"))
}

fn usize_of(v: &Value, ctx: &str) -> Result<usize, Error> {
    v.as_usize()
        .ok_or_else(|| Error::scenario(ctx, "expected an unsigned integer"))
}

fn u32_of(v: &Value, ctx: &str) -> Result<u32, Error> {
    u64_of(v, ctx)?
        .try_into()
        .map_err(|_| Error::scenario(ctx, "value does not fit in 32 bits"))
}

fn bool_of(v: &Value, ctx: &str) -> Result<bool, Error> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(Error::scenario(ctx, "expected true or false")),
    }
}

fn numbers_of(v: &Value, ctx: &str) -> Result<Vec<f64>, Error> {
    let arr = v
        .as_arr()
        .ok_or_else(|| Error::scenario(ctx, "expected an array"))?;
    arr.iter()
        .enumerate()
        .map(|(i, x)| f64_of(x, &format!("{ctx}[{i}]")))
        .collect()
}

/// Applies `read` to member `key` if present (config overrides on top of
/// defaults).
fn override_field<T>(
    members: &Members,
    key: &str,
    ctx: &str,
    slot: &mut T,
    read: impl Fn(&Value, &str) -> Result<T, Error>,
) -> Result<(), Error> {
    if let Some(v) = get(members, key) {
        *slot = read(v, &format!("{ctx}.{key}"))?;
    }
    Ok(())
}

/// A strictly positive number (core areas and clocks — zero or negative
/// values would panic deep in the floorplanner instead of erroring here).
fn positive(x: f64, ctx: &str) -> Result<f64, Error> {
    if x > 0.0 {
        Ok(x)
    } else {
        Err(Error::scenario(ctx, format!("must be positive, got {x}")))
    }
}

/// A non-negative number (core dynamic power may be zero, never negative).
fn non_negative(x: f64, ctx: &str) -> Result<f64, Error> {
    if x >= 0.0 {
        Ok(x)
    } else {
        Err(Error::scenario(ctx, format!("must be >= 0, got {x}")))
    }
}

/// An unsigned integer in `lo..=hi`.
fn usize_in(v: &Value, ctx: &str, lo: usize, hi: usize) -> Result<usize, Error> {
    match usize_of(v, ctx)? {
        x if x < lo => Err(Error::scenario(
            ctx,
            format!("must be at least {lo}, got {x}"),
        )),
        x if x > hi => Err(Error::scenario(
            ctx,
            format!("must be at most {hi}, got {x}"),
        )),
        x => Ok(x),
    }
}

/// Largest sim load factor. The simulator stages every generated packet at
/// its source NI, so the backlog of an overloaded run grows with the load;
/// every committed scenario stays at or below 1.2.
const MAX_LOAD: f64 = 16.0;

/// Largest sim packet, bytes. Bounds the flits per packet, which the
/// engine counts in 32 bits, even on one-bit links.
const MAX_PACKET_BYTES: usize = 65_536;

/// A sim load factor: finite and in `(0, MAX_LOAD]`. Zero or negative
/// loads deliver nothing; huge ones exhaust memory staging packets.
fn load_factor(x: f64, ctx: &str) -> Result<f64, Error> {
    if x > 0.0 && x <= MAX_LOAD {
        Ok(x)
    } else {
        Err(Error::scenario(
            ctx,
            format!("must lie in (0, {MAX_LOAD}], got {x}"),
        ))
    }
}

// --- Spec ----------------------------------------------------------------

fn spec_from_value(v: &Value, ctx: &str) -> Result<SpecSource, Error> {
    let members = as_obj(v, ctx)?;
    if get(members, "benchmark").is_some() {
        check_keys(members, &["benchmark"], ctx)?;
        let name = str_of(req(members, "benchmark", ctx)?, &format!("{ctx}.benchmark"))?;
        return Ok(SpecSource::Benchmark(name.to_string()));
    }
    check_keys(members, &["name", "cores", "flows"], ctx)?;
    let name = str_of(req(members, "name", ctx)?, &format!("{ctx}.name"))?;
    let mut spec = SocSpec::new(name);

    let cores_ctx = format!("{ctx}.cores");
    let cores = req(members, "cores", ctx)?
        .as_arr()
        .ok_or_else(|| Error::scenario(&cores_ctx, "expected an array"))?;
    for (i, core) in cores.iter().enumerate() {
        let cctx = format!("{cores_ctx}[{i}]");
        let m = as_obj(core, &cctx)?;
        check_keys(
            m,
            &[
                "name",
                "kind",
                "area_mm2",
                "dyn_power_w",
                "clock_hz",
                "always_on",
            ],
            &cctx,
        )?;
        let kind_ctx = format!("{cctx}.kind");
        let kind: CoreKind = str_of(req(m, "kind", &cctx)?, &kind_ctx)?
            .parse()
            .map_err(|e: String| Error::scenario(&kind_ctx, e))?;
        let mut always_on = false;
        override_field(m, "always_on", &cctx, &mut always_on, bool_of)?;
        let number = |key: &str, check: fn(f64, &str) -> Result<f64, Error>| {
            let kctx = format!("{cctx}.{key}");
            check(f64_of(req(m, key, &cctx)?, &kctx)?, &kctx)
        };
        spec.add_core(CoreSpec {
            name: str_of(req(m, "name", &cctx)?, &format!("{cctx}.name"))?.to_string(),
            kind,
            area: Area::from_mm2(number("area_mm2", positive)?),
            dyn_power: Power::from_watts(number("dyn_power_w", non_negative)?),
            clock: Frequency::from_hz(number("clock_hz", positive)?),
            always_on,
        });
    }

    let flows_ctx = format!("{ctx}.flows");
    let flows = req(members, "flows", ctx)?
        .as_arr()
        .ok_or_else(|| Error::scenario(&flows_ctx, "expected an array"))?;
    for (i, flow) in flows.iter().enumerate() {
        let fctx = format!("{flows_ctx}[{i}]");
        let m = as_obj(flow, &fctx)?;
        check_keys(
            m,
            &["src", "dst", "bandwidth_bytes_per_s", "max_latency_cycles"],
            &fctx,
        )?;
        let flow = TrafficFlow {
            src: CoreId::from_index(usize_of(req(m, "src", &fctx)?, &format!("{fctx}.src"))?),
            dst: CoreId::from_index(usize_of(req(m, "dst", &fctx)?, &format!("{fctx}.dst"))?),
            bandwidth: Bandwidth::from_bytes_per_s(f64_of(
                req(m, "bandwidth_bytes_per_s", &fctx)?,
                &format!("{fctx}.bandwidth_bytes_per_s"),
            )?),
            max_latency_cycles: u32_of(
                req(m, "max_latency_cycles", &fctx)?,
                &format!("{fctx}.max_latency_cycles"),
            )?,
        };
        // Malformed flows are rejected at their source (the `soc` layer's
        // Result-based construction), with the JSON path attached.
        spec.try_add_flow(flow)
            .map_err(|e| Error::scenario(&fctx, e.to_string()))?;
    }
    Ok(SpecSource::Inline(spec))
}

fn write_spec(out: &mut String, spec: &SpecSource) {
    let mut o = Obj::new(out);
    match spec {
        SpecSource::Benchmark(name) => {
            o.str("benchmark", name);
        }
        SpecSource::Inline(spec) => {
            o.str("name", spec.name());
            json::array(o.key("cores"), spec.cores(), |out, c| {
                Obj::new(out)
                    .str("name", &c.name)
                    .str("kind", &c.kind.to_string())
                    .num("area_mm2", c.area.mm2())
                    .num("dyn_power_w", c.dyn_power.watts())
                    .num("clock_hz", c.clock.hz())
                    .bool("always_on", c.always_on)
                    .end();
            });
            json::array(o.key("flows"), spec.flows(), |out, f| {
                Obj::new(out)
                    .num("src", f.src.index())
                    .num("dst", f.dst.index())
                    .num("bandwidth_bytes_per_s", f.bandwidth.bytes_per_s())
                    .num("max_latency_cycles", f.max_latency_cycles)
                    .end();
            });
        }
    }
    o.end();
}

// --- Partition -----------------------------------------------------------

fn partition_from_value(v: &Value, ctx: &str) -> Result<PartitionPlan, Error> {
    let members = as_obj(v, ctx)?;
    let kind_ctx = format!("{ctx}.kind");
    let kind = str_of(req(members, "kind", ctx)?, &kind_ctx)?;
    let islands = usize_of(req(members, "islands", ctx)?, &format!("{ctx}.islands"))?;
    match kind {
        "logical" => {
            check_keys(members, &["kind", "islands"], ctx)?;
            Ok(PartitionPlan::Logical { islands })
        }
        "communication" | "comm" => {
            check_keys(members, &["kind", "islands", "seed"], ctx)?;
            let mut seed = 1u64;
            override_field(members, "seed", ctx, &mut seed, u64_of)?;
            Ok(PartitionPlan::Communication { islands, seed })
        }
        other => Err(Error::scenario(
            kind_ctx,
            format!("unknown partition kind '{other}' (logical | communication)"),
        )),
    }
}

fn write_partition(out: &mut String, p: &PartitionPlan) {
    let mut o = Obj::new(out);
    match p {
        PartitionPlan::Logical { islands } => o.str("kind", "logical").num("islands", *islands),
        PartitionPlan::Communication { islands, seed } => o
            .str("kind", "communication")
            .num("islands", *islands)
            .num("seed", *seed),
    };
    o.end();
}

// --- Member tables -------------------------------------------------------

/// Largest accepted technology parameter and cost-model member: with every
/// power field at this bound a report's derived powers stay finite (JSON
/// has no `inf`).
const TECH_MAX: f64 = 1e6;

/// Most annealing restarts a scenario may ask for. The floorplanner holds
/// every restart index in memory at once, so an unbounded count could
/// abort the process; every committed scenario uses the default 2.
const MAX_RESTARTS: usize = 64;

/// Largest intermediate-island switch count a scenario may explore
/// (`synthesis.max_intermediate_switches`, `sweep.max_intermediate` and
/// `refine.grid.max_intermediate`). The sweeps enumerate every count up
/// front, so an unbounded one could abort the process; every committed
/// scenario uses 4 or less.
const MAX_INTERMEDIATE: usize = 64;

/// The field one member of a table-driven object fills, by kind: the kind
/// says how the member is read, bound included, and how it is written.
enum Slot<'a> {
    /// Any number.
    Num(&'a mut f64),
    /// A number in `[0, max]`.
    NonNeg(&'a mut f64, f64),
    /// A number in `(0, max]`.
    Pos(&'a mut f64, f64),
    /// A sim load factor, in `(0, MAX_LOAD]`.
    Load(&'a mut f64),
    /// A clock in hertz.
    Hz(&'a mut Frequency),
    /// An unsigned integer in `lo..=hi`.
    Int(&'a mut usize, usize, usize),
    U32(&'a mut u32),
    U64(&'a mut u64),
    Bool(&'a mut bool),
    /// A traffic kind by name.
    Traffic(&'a mut TrafficKind),
    /// `"auto"` or an island index.
    Island(&'a mut IslandChoice),
    /// A non-empty list of finite frequency factors `>= 1.0`.
    Scales(&'a mut Vec<f64>),
    /// A named technology or an inline [`TECHNOLOGY`] object.
    Technology(&'a mut Technology),
    /// A [`SWEEP`] object, and the one required member (`refine.grid`).
    Grid(&'a mut GridConfig),
}

/// The members of a table-driven scenario object, in emission order: each
/// member's name and the slot of `T` it fills. Reading, the unknown-member
/// check and writing all walk this one list.
type Table<T> = [(&'static str, fn(&mut T) -> Slot<'_>)];

const SYNTHESIS: &Table<SynthesisConfig> = &[
    ("alpha", |c| Slot::Num(&mut c.alpha)),
    ("link_width_bits", |c| {
        Slot::Int(&mut c.link_width_bits, 1, usize::MAX)
    }),
    ("allow_intermediate_vi", |c| {
        Slot::Bool(&mut c.allow_intermediate_vi)
    }),
    ("max_intermediate_switches", |c| {
        Slot::Int(&mut c.max_intermediate_switches, 0, MAX_INTERMEDIATE)
    }),
    ("switch_delay_cycles", |c| {
        Slot::U32(&mut c.switch_delay_cycles)
    }),
    ("link_delay_cycles", |c| Slot::U32(&mut c.link_delay_cycles)),
    // The path search's edge weights are priced from these six members,
    // and it needs them non-negative.
    ("cost_power_weight", |c| {
        Slot::NonNeg(&mut c.cost_power_weight, TECH_MAX)
    }),
    ("cost_latency_weight", |c| {
        Slot::NonNeg(&mut c.cost_latency_weight, TECH_MAX)
    }),
    ("cost_port_scarcity", |c| {
        Slot::NonNeg(&mut c.cost_port_scarcity, TECH_MAX)
    }),
    ("est_intra_link_mm", |c| {
        Slot::NonNeg(&mut c.est_intra_link_mm, TECH_MAX)
    }),
    ("est_inter_link_mm", |c| {
        Slot::NonNeg(&mut c.est_inter_link_mm, TECH_MAX)
    }),
    ("est_mid_link_mm", |c| {
        Slot::NonNeg(&mut c.est_mid_link_mm, TECH_MAX)
    }),
    ("min_frequency_hz", |c| Slot::Hz(&mut c.min_frequency)),
    ("technology", |c| Slot::Technology(&mut c.technology)),
    ("seed", |c| Slot::U64(&mut c.seed)),
];

/// An inline technology: the two fractions lie in [0, 1], `node_nm` and
/// `vdd_v` in (0, [`TECH_MAX`]], every other field in [0, [`TECH_MAX`]].
const TECHNOLOGY: &Table<Technology> = &[
    ("node_nm", |t| Slot::Pos(&mut t.node_nm, TECH_MAX)),
    ("vdd_v", |t| Slot::Pos(&mut t.vdd_v, TECH_MAX)),
    ("wire_cap_ff_per_mm", |t| {
        Slot::NonNeg(&mut t.wire_cap_ff_per_mm, TECH_MAX)
    }),
    ("wire_delay_ps_per_mm", |t| {
        Slot::NonNeg(&mut t.wire_delay_ps_per_mm, TECH_MAX)
    }),
    ("link_setup_margin_ns", |t| {
        Slot::NonNeg(&mut t.link_setup_margin_ns, TECH_MAX)
    }),
    ("switch_delay_base_ns", |t| {
        Slot::NonNeg(&mut t.switch_delay_base_ns, TECH_MAX)
    }),
    ("switch_delay_per_port_ns", |t| {
        Slot::NonNeg(&mut t.switch_delay_per_port_ns, TECH_MAX)
    }),
    ("activity_factor", |t| {
        Slot::NonNeg(&mut t.activity_factor, 1.0)
    }),
    ("leak_density_mw_per_mm2", |t| {
        Slot::NonNeg(&mut t.leak_density_mw_per_mm2, TECH_MAX)
    }),
    ("gating_residual", |t| {
        Slot::NonNeg(&mut t.gating_residual, 1.0)
    }),
    ("level_shift_energy_pj_per_bit", |t| {
        Slot::NonNeg(&mut t.level_shift_energy_pj_per_bit, TECH_MAX)
    }),
];

const FLOORPLAN: &Table<FloorplanConfig> = &[
    ("seed", |c| Slot::U64(&mut c.seed)),
    ("iterations", |c| {
        Slot::Int(&mut c.iterations, 0, usize::MAX)
    }),
    ("initial_temp", |c| Slot::Num(&mut c.initial_temp)),
    ("cooling", |c| Slot::Num(&mut c.cooling)),
    ("lambda_wire", |c| Slot::Num(&mut c.lambda_wire)),
    ("lambda_island", |c| Slot::Num(&mut c.lambda_island)),
    ("lambda_aspect", |c| Slot::Num(&mut c.lambda_aspect)),
    ("restarts", |c| Slot::Int(&mut c.restarts, 0, MAX_RESTARTS)),
];

const SIM: &Table<SimPlan> = &[
    ("packet_bytes", |p| {
        Slot::Int(&mut p.config.packet_bytes, 1, MAX_PACKET_BYTES)
    }),
    ("queue_capacity", |p| {
        Slot::Int(&mut p.config.queue_capacity, 1, usize::MAX)
    }),
    ("traffic", |p| Slot::Traffic(&mut p.config.traffic)),
    ("seed", |p| Slot::U64(&mut p.config.seed)),
    ("load_factor", |p| Slot::Load(&mut p.config.load_factor)),
    ("horizon_ns", |p| Slot::U64(&mut p.horizon_ns)),
];

const SHUTDOWN: &Table<ShutdownPlan> = &[
    ("island", |p| Slot::Island(&mut p.island)),
    ("stop_at_ns", |p| Slot::U64(&mut p.stop_at_ns)),
    ("drain_ns", |p| Slot::U64(&mut p.drain_ns)),
    ("post_gate_ns", |p| Slot::U64(&mut p.post_gate_ns)),
];

const SWEEP: &Table<GridConfig> = &[
    ("max_boost", |c| Slot::Int(&mut c.max_boost, 0, usize::MAX)),
    ("freq_scales", |c| Slot::Scales(&mut c.freq_scales)),
    ("max_intermediate", |c| {
        Slot::Int(&mut c.max_intermediate, 0, MAX_INTERMEDIATE)
    }),
];

/// A negative `scale_window` would silently refine nothing.
const REFINE: &Table<RefinePlan> = &[
    ("grid", |p| Slot::Grid(&mut p.grid)),
    ("boost_radius", |p| {
        Slot::Int(&mut p.params.boost_radius, 0, usize::MAX)
    }),
    ("base_radius", |p| {
        Slot::Int(&mut p.params.base_radius, 0, usize::MAX)
    }),
    ("scale_window", |p| {
        Slot::NonNeg(&mut p.params.scale_window, f64::INFINITY)
    }),
];

/// `x` if it is at most `max`.
fn at_most(x: f64, max: f64, ctx: &str) -> Result<f64, Error> {
    if x <= max {
        Ok(x)
    } else {
        Err(Error::scenario(
            ctx,
            format!("must be at most {max}, got {x}"),
        ))
    }
}

impl Slot<'_> {
    /// Fills the slot from member value `v` at path `ctx`.
    fn read(self, v: &Value, ctx: &str) -> Result<(), Error> {
        match self {
            Slot::Num(x) => *x = f64_of(v, ctx)?,
            Slot::NonNeg(x, max) => *x = at_most(non_negative(f64_of(v, ctx)?, ctx)?, max, ctx)?,
            Slot::Pos(x, max) => *x = at_most(positive(f64_of(v, ctx)?, ctx)?, max, ctx)?,
            Slot::Load(x) => *x = load_factor(f64_of(v, ctx)?, ctx)?,
            Slot::Hz(f) => *f = Frequency::from_hz(f64_of(v, ctx)?),
            Slot::Int(x, lo, hi) => *x = usize_in(v, ctx, lo, hi)?,
            Slot::U32(x) => *x = u32_of(v, ctx)?,
            Slot::U64(x) => *x = u64_of(v, ctx)?,
            Slot::Bool(b) => *b = bool_of(v, ctx)?,
            Slot::Traffic(t) => {
                *t = str_of(v, ctx)?
                    .parse()
                    .map_err(|e| Error::scenario(ctx, e))?
            }
            Slot::Island(island) => {
                *island = match v {
                    Value::Str(s) if s == "auto" => IslandChoice::Auto,
                    Value::Num(_) => IslandChoice::Index(usize_of(v, ctx)?),
                    _ => return Err(Error::scenario(ctx, "expected \"auto\" or an island index")),
                }
            }
            Slot::Scales(scales) => {
                *scales = numbers_of(v, ctx)?;
                // Checked here so a bad scenario fails with a path instead
                // of panicking later in `FrequencyPlan::scaled`.
                if scales.is_empty() || scales.iter().any(|&s| !s.is_finite() || s < 1.0) {
                    return Err(Error::scenario(
                        ctx,
                        "must be a non-empty list of finite factors >= 1.0",
                    ));
                }
            }
            Slot::Technology(t) => *t = technology_from_value(v, ctx)?,
            Slot::Grid(grid) => *grid = read_object(SWEEP, v, ctx)?,
        }
        Ok(())
    }

    /// Writes the slot's value to `out`.
    fn write(self, out: &mut String) {
        match self {
            Slot::Num(x) | Slot::NonNeg(x, _) | Slot::Pos(x, _) | Slot::Load(x) => {
                json::num(out, *x)
            }
            Slot::Hz(f) => json::num(out, f.hz()),
            Slot::Int(x, ..) => json::num(out, *x),
            Slot::U32(x) => json::num(out, *x),
            Slot::U64(x) => json::num(out, *x),
            Slot::Bool(b) => json::raw(out, if *b { "true" } else { "false" }),
            Slot::Traffic(t) => json::string(out, &t.to_string()),
            Slot::Island(IslandChoice::Auto) => json::string(out, "auto"),
            Slot::Island(IslandChoice::Index(j)) => json::num(out, *j),
            Slot::Scales(scales) => json::array(out, scales.iter(), |out, &x| json::num(out, x)),
            Slot::Technology(t) => write_technology(out, t),
            Slot::Grid(grid) => write_object(out, SWEEP, grid),
        }
    }
}

/// Reads a table-driven object: each member present overrides its field of
/// `T::default()`, in table order.
fn read_object<T: Default>(table: &Table<T>, v: &Value, ctx: &str) -> Result<T, Error> {
    let members = as_obj(v, ctx)?;
    let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
    check_keys(members, &names, ctx)?;
    let mut t = T::default();
    for &(name, slot) in table {
        match (get(members, name), slot(&mut t)) {
            (Some(v), slot) => slot.read(v, &format!("{ctx}.{name}"))?,
            (None, Slot::Grid(_)) => {
                return Err(Error::scenario(ctx, format!("missing member '{name}'")))
            }
            (None, _) => {}
        }
    }
    Ok(t)
}

/// Reads the table-driven member `key` of the scenario, if present.
fn read_member<T: Default>(
    members: &Members,
    key: &str,
    table: &Table<T>,
) -> Result<Option<T>, Error> {
    get(members, key)
        .map(|v| read_object(table, v, &format!("scenario.{key}")))
        .transpose()
}

/// Writes a table-driven object, every member in table order. The slots
/// borrow mutably, so the walk runs over a copy.
fn write_object<T: Clone>(out: &mut String, table: &Table<T>, t: &T) {
    let mut t = t.clone();
    let mut o = Obj::new(out);
    for &(name, slot) in table {
        slot(&mut t).write(o.key(name));
    }
    o.end();
}

fn technology_from_value(v: &Value, ctx: &str) -> Result<Technology, Error> {
    match v {
        Value::Str(name) => match name.as_str() {
            "cmos_65nm" => Ok(Technology::cmos_65nm()),
            "cmos_90nm" => Ok(Technology::cmos_90nm()),
            other => Err(Error::scenario(
                ctx,
                format!("unknown technology '{other}' (cmos_65nm | cmos_90nm | inline object)"),
            )),
        },
        _ => read_object(TECHNOLOGY, v, ctx),
    }
}

fn write_technology(out: &mut String, t: &Technology) {
    if *t == Technology::cmos_65nm() {
        json::string(out, "cmos_65nm");
    } else if *t == Technology::cmos_90nm() {
        json::string(out, "cmos_90nm");
    } else {
        write_object(out, TECHNOLOGY, t);
    }
}

/// Rejects an axis value that repeats an earlier one: it would simulate
/// the same cells twice.
fn no_repeats<T: PartialEq>(xs: &[T], ctx: &str, axis: &str) -> Result<(), Error> {
    match first_repeat(xs) {
        Some((i, j)) => Err(Error::scenario(
            format!("{ctx}.{axis}[{i}]"),
            format!("repeats {axis}[{j}]"),
        )),
        None => Ok(()),
    }
}

fn dyn_sweep_from_value(v: &Value, ctx: &str) -> Result<DynSweepPlan, Error> {
    let m = as_obj(v, ctx)?;
    check_keys(
        m,
        &["loads", "traffic", "schedules", "horizon_ns", "mode"],
        ctx,
    )?;
    let lctx = format!("{ctx}.loads");
    let loads = numbers_of(req(m, "loads", ctx)?, &lctx)?;
    // Validated here so a bad scenario fails with a path instead of a
    // late axes error inside the engine.
    if loads.is_empty() || loads.iter().any(|&l| !(l > 0.0 && l <= MAX_LOAD)) {
        return Err(Error::scenario(
            lctx,
            format!("must be a non-empty list of load factors in (0, {MAX_LOAD}]"),
        ));
    }
    let mut traffic = vec![TrafficKind::Cbr];
    if let Some(v) = get(m, "traffic") {
        let tctx = format!("{ctx}.traffic");
        let arr = v
            .as_arr()
            .ok_or_else(|| Error::scenario(&tctx, "expected an array"))?;
        if arr.is_empty() {
            return Err(Error::scenario(&tctx, "must be a non-empty list"));
        }
        traffic = arr
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let tctx = format!("{tctx}[{i}]");
                str_of(t, &tctx)?
                    .parse::<TrafficKind>()
                    .map_err(|e| Error::scenario(&tctx, e))
            })
            .collect::<Result<_, _>>()?;
    }
    let mut schedules: Vec<Option<ShutdownPlan>> = vec![None];
    if let Some(v) = get(m, "schedules") {
        let sctx = format!("{ctx}.schedules");
        let arr = v
            .as_arr()
            .ok_or_else(|| Error::scenario(&sctx, "expected an array"))?;
        if arr.is_empty() {
            return Err(Error::scenario(
                &sctx,
                "must be a non-empty list (null entries are free-running)",
            ));
        }
        schedules = arr
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let sctx = format!("{sctx}[{i}]");
                match s {
                    Value::Null => Ok(None),
                    _ => read_object(SHUTDOWN, s, &sctx).map(Some),
                }
            })
            .collect::<Result<_, _>>()?;
    }
    let bits: Vec<u64> = loads.iter().map(|l| l.to_bits()).collect();
    no_repeats(&bits, ctx, "loads")?;
    no_repeats(&traffic, ctx, "traffic")?;
    no_repeats(&schedules, ctx, "schedules")?;
    let hctx = format!("{ctx}.horizon_ns");
    let horizon_ns = u64_of(req(m, "horizon_ns", ctx)?, &hctx)?;
    if horizon_ns == 0 {
        return Err(Error::scenario(hctx, "must be positive"));
    }
    let mut mode = Mode::Exact;
    if let Some(v) = get(m, "mode") {
        let mctx = format!("{ctx}.mode");
        mode = str_of(v, &mctx)?
            .parse()
            .map_err(|e: String| Error::scenario(&mctx, e))?;
    }
    Ok(DynSweepPlan {
        loads,
        traffic,
        schedules,
        horizon_ns,
        mode,
    })
}

fn write_dyn_sweep(out: &mut String, plan: &DynSweepPlan) {
    let mut o = Obj::new(out);
    json::array(o.key("loads"), &plan.loads, |out, &l| json::num(out, l));
    json::array(o.key("traffic"), &plan.traffic, |out, t| {
        json::string(out, &t.to_string())
    });
    json::array(o.key("schedules"), &plan.schedules, |out, s| match s {
        None => out.push_str("null"),
        Some(sd) => write_object(out, SHUTDOWN, sd),
    });
    o.num("horizon_ns", plan.horizon_ns)
        .str("mode", &plan.mode.to_string())
        .end();
}

// --- Scenario ------------------------------------------------------------

pub(crate) fn scenario_from_json(text: &str) -> Result<Scenario, Error> {
    let doc = json::parse(text)?;
    let ctx = "scenario";
    let members = as_obj(&doc, ctx)?;
    check_keys(
        members,
        &[
            "format",
            "name",
            "spec",
            "partition",
            "synthesis",
            "floorplan",
            "sim",
            "shutdown",
            "sweep",
            "sweep_prune",
            "refine",
            "dyn_sweep",
        ],
        ctx,
    )?;
    if let Some(v) = get(members, "format") {
        let format = str_of(v, "scenario.format")?;
        if format != SCENARIO_FORMAT {
            return Err(Error::scenario(
                "scenario.format",
                format!("'{format}' is not '{SCENARIO_FORMAT}'"),
            ));
        }
    }
    let name = str_of(req(members, "name", ctx)?, "scenario.name")?.to_string();
    let spec = spec_from_value(req(members, "spec", ctx)?, "scenario.spec")?;
    let partition = partition_from_value(req(members, "partition", ctx)?, "scenario.partition")?;
    let synthesis = read_member(members, "synthesis", SYNTHESIS)?.unwrap_or_default();
    let floorplan = read_member(members, "floorplan", FLOORPLAN)?.unwrap_or_default();
    let sim = read_member(members, "sim", SIM)?;
    let shutdown = read_member(members, "shutdown", SHUTDOWN)?;
    let sweep = read_member(members, "sweep", SWEEP)?;
    let mut sweep_prune = false;
    override_field(
        members,
        "sweep_prune",
        "scenario",
        &mut sweep_prune,
        bool_of,
    )?;
    let refine = read_member(members, "refine", REFINE)?;
    if refine.is_some() && sweep.is_none() {
        return Err(Error::scenario(
            "scenario.refine",
            "refinement needs a coarse 'sweep' grid to start from",
        ));
    }
    let dyn_sweep = get(members, "dyn_sweep")
        .map(|v| dyn_sweep_from_value(v, "scenario.dyn_sweep"))
        .transpose()?;
    if dyn_sweep.is_some() && sweep.is_none() {
        return Err(Error::scenario(
            "scenario.dyn_sweep",
            "a dynamic sweep needs a 'sweep' grid whose frontier it sweeps",
        ));
    }
    Ok(Scenario {
        name,
        spec,
        partition,
        synthesis,
        floorplan,
        sim,
        shutdown,
        sweep,
        sweep_prune,
        sweep_workers: None,
        refine,
        dyn_sweep,
    })
}

pub(crate) fn scenario_to_json(s: &Scenario) -> String {
    let mut out = String::new();
    let mut o = Obj::lines(&mut out);
    o.str("format", SCENARIO_FORMAT).str("name", &s.name);
    write_spec(o.key("spec"), &s.spec);
    write_partition(o.key("partition"), &s.partition);
    write_object(o.key("synthesis"), SYNTHESIS, &s.synthesis);
    write_object(o.key("floorplan"), FLOORPLAN, &s.floorplan);
    if let Some(sim) = &s.sim {
        write_object(o.key("sim"), SIM, sim);
    }
    if let Some(sd) = &s.shutdown {
        write_object(o.key("shutdown"), SHUTDOWN, sd);
    }
    if let Some(grid) = &s.sweep {
        write_object(o.key("sweep"), SWEEP, grid);
    }
    // Emitted only when set, so pre-refinement scenario files keep their
    // exact bytes.
    if s.sweep_prune {
        o.bool("sweep_prune", true);
    }
    if let Some(plan) = &s.refine {
        write_object(o.key("refine"), REFINE, plan);
    }
    if let Some(plan) = &s.dyn_sweep {
        write_dyn_sweep(o.key("dyn_sweep"), plan);
    }
    o.end_line();
    out.push('\n');
    out
}

impl Scenario {
    /// Parses a scenario from its JSON description.
    ///
    /// Ingestion is strict: unknown members, duplicate keys, wrong types,
    /// non-finite numbers and malformed flows are all rejected with a
    /// JSON-path context. Missing config members fall back to the same
    /// defaults the programmatic API uses.
    ///
    /// # Errors
    ///
    /// [`Error::Json`] for malformed JSON, [`Error::Scenario`] for
    /// schema-level problems, [`Error::Spec`]-shaped messages for inline
    /// specs with malformed flows.
    pub fn from_json(text: &str) -> Result<Scenario, Error> {
        scenario_from_json(text)
    }

    /// Serializes the scenario byte-deterministically, writing every field
    /// (storage units, shortest-round-trip numbers), so
    /// `Scenario::from_json(s.to_json())` reproduces `s` exactly.
    pub fn to_json(&self) -> String {
        scenario_to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::from_json(
            r#"{"name":"min","spec":{"benchmark":"d12"},"partition":{"kind":"logical","islands":4}}"#,
        )
        .unwrap();
        assert_eq!(s.name, "min");
        assert_eq!(s.synthesis, SynthesisConfig::default());
        assert_eq!(s.floorplan, FloorplanConfig::default());
        assert!(s.sim.is_none() && s.shutdown.is_none() && s.sweep.is_none());
    }

    #[test]
    fn default_round_trip_is_exact() {
        let mut s = Scenario::new(
            "rt",
            SpecSource::Inline(vi_noc_soc::benchmarks::d12_auto()),
            PartitionPlan::Communication {
                islands: 3,
                seed: 9,
            },
        );
        s.sim = Some(SimPlan::default());
        s.shutdown = Some(ShutdownPlan::default());
        s.sweep = Some(GridConfig {
            max_boost: 1,
            freq_scales: vec![1.0, 1.12],
            max_intermediate: 3,
        });
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json, "emission is a fixed point");
    }

    /// Asserts that every member of `table` is off its default in `t`.
    fn assert_every_member_set<T: Clone + Default>(table: &Table<T>, t: &T) {
        for &(name, slot) in table {
            let (mut default, mut set) = (String::new(), String::new());
            slot(&mut T::default()).write(&mut default);
            slot(&mut t.clone()).write(&mut set);
            assert_ne!(default, set, "'{name}' is at its default");
        }
    }

    #[test]
    fn every_table_member_round_trips_at_its_bound() {
        let technology = Technology {
            node_nm: 45.0,
            vdd_v: 0.9,
            wire_cap_ff_per_mm: 250.0,
            wire_delay_ps_per_mm: 120.0,
            link_setup_margin_ns: 0.125,
            switch_delay_base_ns: 0.375,
            switch_delay_per_port_ns: 0.0625,
            activity_factor: 1.0,
            leak_density_mw_per_mm2: 0.5,
            gating_residual: 1.0,
            level_shift_energy_pj_per_bit: 0.5,
        };
        let synthesis = SynthesisConfig {
            alpha: 0.75,
            link_width_bits: 1,
            allow_intermediate_vi: false,
            max_intermediate_switches: MAX_INTERMEDIATE,
            switch_delay_cycles: 2,
            link_delay_cycles: 3,
            cost_power_weight: TECH_MAX,
            cost_latency_weight: 0.0,
            cost_port_scarcity: TECH_MAX,
            est_intra_link_mm: TECH_MAX,
            est_inter_link_mm: 0.0,
            est_mid_link_mm: TECH_MAX,
            min_frequency: Frequency::from_hz(7.5e7),
            technology: technology.clone(),
            seed: 42,
        };
        let floorplan = FloorplanConfig {
            seed: 7,
            iterations: 1_234,
            initial_temp: 2.5,
            cooling: 0.875,
            lambda_wire: 0.5,
            lambda_island: 3.0,
            lambda_aspect: 0.75,
            restarts: MAX_RESTARTS,
        };
        let mut sim = SimPlan {
            horizon_ns: 1_234,
            ..SimPlan::default()
        };
        sim.config.packet_bytes = MAX_PACKET_BYTES;
        sim.config.queue_capacity = 3;
        sim.config.traffic = TrafficKind::Poisson;
        sim.config.seed = 9;
        sim.config.load_factor = MAX_LOAD;
        let shutdown = ShutdownPlan {
            island: IslandChoice::Index(2),
            stop_at_ns: 1_000,
            drain_ns: 2_000,
            post_gate_ns: 3_000,
        };
        let grid = |max_boost, freq_scales| GridConfig {
            max_boost,
            freq_scales,
            max_intermediate: MAX_INTERMEDIATE,
        };
        let refine = RefinePlan {
            grid: grid(1, vec![1.0, 1.05, 1.1]),
            params: vi_noc_sweep::RefineParams {
                boost_radius: 2,
                base_radius: 3,
                scale_window: 0.5,
            },
        };
        assert_every_member_set(SYNTHESIS, &synthesis);
        assert_every_member_set(TECHNOLOGY, &technology);
        assert_every_member_set(FLOORPLAN, &floorplan);
        assert_every_member_set(SIM, &sim);
        assert_every_member_set(SHUTDOWN, &shutdown);
        assert_every_member_set(SWEEP, &grid(2, vec![1.0, 1.25]));
        assert_every_member_set(REFINE, &refine);

        let mut s = Scenario::new(
            "every member",
            SpecSource::Benchmark("d26".into()),
            PartitionPlan::Logical { islands: 6 },
        );
        s.synthesis = synthesis;
        s.floorplan = floorplan;
        s.sim = Some(sim);
        s.shutdown = Some(shutdown);
        s.sweep = Some(grid(2, vec![1.0, 1.25]));
        s.refine = Some(refine);
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json, "emission is a fixed point");
    }

    #[test]
    fn each_object_lists_its_members_in_emission_order() {
        let doc = |object: &str| {
            format!(
                r#"{{"name":"x","spec":{{"benchmark":"d12"}},"partition":{{"kind":"logical","islands":4}},"sweep":{{}},{object}}}"#
            )
        };
        for (object, want) in [
            (
                r#""synthesis":{"bogus":1}"#,
                "scenario scenario.synthesis: unknown member 'bogus' (allowed: alpha, \
                 link_width_bits, allow_intermediate_vi, max_intermediate_switches, \
                 switch_delay_cycles, link_delay_cycles, cost_power_weight, cost_latency_weight, \
                 cost_port_scarcity, est_intra_link_mm, est_inter_link_mm, est_mid_link_mm, \
                 min_frequency_hz, technology, seed)",
            ),
            (
                r#""synthesis":{"technology":{"bogus":1}}"#,
                "scenario scenario.synthesis.technology: unknown member 'bogus' (allowed: \
                 node_nm, vdd_v, wire_cap_ff_per_mm, wire_delay_ps_per_mm, link_setup_margin_ns, \
                 switch_delay_base_ns, switch_delay_per_port_ns, activity_factor, \
                 leak_density_mw_per_mm2, gating_residual, level_shift_energy_pj_per_bit)",
            ),
            (
                r#""floorplan":{"bogus":1}"#,
                "scenario scenario.floorplan: unknown member 'bogus' (allowed: seed, iterations, \
                 initial_temp, cooling, lambda_wire, lambda_island, lambda_aspect, restarts)",
            ),
            (
                r#""sim":{"bogus":1}"#,
                "scenario scenario.sim: unknown member 'bogus' (allowed: packet_bytes, \
                 queue_capacity, traffic, seed, load_factor, horizon_ns)",
            ),
            (
                r#""shutdown":{"bogus":1}"#,
                "scenario scenario.shutdown: unknown member 'bogus' (allowed: island, \
                 stop_at_ns, drain_ns, post_gate_ns)",
            ),
            (
                r#""refine":{"grid":{"bogus":1}}"#,
                "scenario scenario.refine.grid: unknown member 'bogus' (allowed: max_boost, \
                 freq_scales, max_intermediate)",
            ),
            (
                r#""refine":{"grid":{},"bogus":1}"#,
                "scenario scenario.refine: unknown member 'bogus' (allowed: grid, boost_radius, \
                 base_radius, scale_window)",
            ),
        ] {
            let err = Scenario::from_json(&doc(object)).unwrap_err();
            assert_eq!(err.to_string(), want);
        }
        // `refine.grid` is the one required member.
        let err = Scenario::from_json(&doc(r#""refine":{}"#)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scenario scenario.refine: missing member 'grid'"
        );
    }

    #[test]
    fn custom_technology_round_trips_inline() {
        let mut s = Scenario::new(
            "tech",
            SpecSource::Benchmark("d12".into()),
            PartitionPlan::Logical { islands: 2 },
        );
        s.synthesis.technology.vdd_v = 0.9;
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.synthesis.technology.vdd_v, 0.9);
        assert_eq!(back, s);
    }

    #[test]
    fn unknown_members_are_rejected_with_a_path() {
        let err = Scenario::from_json(
            r#"{"name":"x","spec":{"benchmark":"d12"},"partition":{"kind":"logical","islands":4},"sim":{"horizon_nsec":5}}"#,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("scenario.sim") && msg.contains("horizon_nsec"),
            "{msg}"
        );
        let err = Scenario::from_json(
            r#"{"name":"x","spec":{"benchmark":"d12"},"partition":{"kind":"logical","islands":4},"sweep_workers":2}"#,
        )
        .unwrap_err();
        assert!(err
            .to_string()
            .contains("scenario: unknown member 'sweep_workers'"));
    }

    #[test]
    fn restated_facts_fail_as_unknown_members_at_their_path() {
        // The simulator's link width is the synthesized topology's, the
        // engine is chosen only in Rust, and each quantity has one unit:
        // none of these members exists.
        let cores = r#"{"name":"c0","kind":"cpu","area_mm2":1,"dyn_power_w":0.01,"clock_hz":1e8},
            {"name":"c1","kind":"memory","area_mm2":1,"dyn_power_w":0.01,"clock_hz":1e8,"always_on":true}"#;
        let flow = r#""src":0,"dst":1,"bandwidth_bytes_per_s":1e8,"max_latency_cycles":10"#;
        let doc = |cores: &str, flow: &str, sim: &str| {
            format!(
                r#"{{"name":"u","spec":{{"name":"tiny","cores":[{cores}],"flows":[{{{flow}}}]}},
                "partition":{{"kind":"logical","islands":1}},"sim":{{{sim}}}}}"#
            )
        };
        Scenario::from_json(&doc(cores, flow, "")).unwrap();
        for (text, path, key) in [
            (
                doc(cores, flow, r#""link_width_bits":64"#),
                "scenario.sim",
                "link_width_bits",
            ),
            (
                doc(cores, flow, r#""batching":false"#),
                "scenario.sim",
                "batching",
            ),
            (
                doc(
                    &cores.replacen("clock_hz\":1e8", "clock_mhz\":100", 1),
                    flow,
                    "",
                ),
                "scenario.spec.cores[0]",
                "clock_mhz",
            ),
            (
                doc(
                    &cores.replacen("dyn_power_w\":0.01", "dyn_power_mw\":10", 1),
                    flow,
                    "",
                ),
                "scenario.spec.cores[0]",
                "dyn_power_mw",
            ),
            (
                doc(cores, &flow.replace("bytes_per_s\":1e8", "mbps\":100"), ""),
                "scenario.spec.flows[0]",
                "bandwidth_mbps",
            ),
        ] {
            let err = Scenario::from_json(&text).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!(
                    "scenario {path}: unknown member '{key}' (allowed: "
                )),
                "{key}: {err}"
            );
        }
    }

    #[test]
    fn out_of_range_core_numbers_fail_at_ingestion() {
        // Negative area would otherwise panic deep in the floorplanner;
        // negative power would silently produce negative-mW reports.
        let with_core = |core: &str| {
            format!(
                r#"{{"name":"r","spec":{{"name":"t","cores":[{core},
                {{"name":"m","kind":"memory","area_mm2":1,"dyn_power_w":1,"clock_hz":1e8,"always_on":true}}],
                "flows":[{{"src":0,"dst":1,"bandwidth_bytes_per_s":1e7,"max_latency_cycles":5}}]}},
                "partition":{{"kind":"logical","islands":1}}}}"#
            )
        };
        for (core, needle) in [
            (
                r#"{"name":"c","kind":"cpu","area_mm2":-5,"dyn_power_w":1,"clock_hz":1e8}"#,
                "area_mm2",
            ),
            (
                r#"{"name":"c","kind":"cpu","area_mm2":0,"dyn_power_w":1,"clock_hz":1e8}"#,
                "area_mm2",
            ),
            (
                r#"{"name":"c","kind":"cpu","area_mm2":1,"dyn_power_w":-0.003,"clock_hz":1e8}"#,
                "dyn_power",
            ),
            (
                r#"{"name":"c","kind":"cpu","area_mm2":1,"dyn_power_w":1,"clock_hz":0}"#,
                "clock",
            ),
        ] {
            let err = Scenario::from_json(&with_core(core)).unwrap_err();
            assert!(err.to_string().contains(needle), "{core}: {err}");
        }
        // Zero power is physically fine (a pad or dummy block).
        let ok =
            with_core(r#"{"name":"c","kind":"cpu","area_mm2":1,"dyn_power_w":0,"clock_hz":1e8}"#);
        assert!(Scenario::from_json(&ok).is_ok());
    }

    #[test]
    fn out_of_range_technology_numbers_fail_at_ingestion() {
        // Unbounded overrides would make `vi-noc run` write bare `inf`
        // tokens, which no JSON parser (the report reader included) accepts.
        let with_tech = |tech: &str| {
            format!(
                r#"{{"name":"t","spec":{{"benchmark":"d12"}},
                "partition":{{"kind":"logical","islands":4}},
                "synthesis":{{"technology":{tech}}},"sim":{{"horizon_ns":5000}}}}"#
            )
        };
        for (field, value) in [
            ("activity_factor", "1e308"),
            ("activity_factor", "-1"),
            ("vdd_v", "1e200"),
            ("wire_cap_ff_per_mm", "1e308"),
            ("level_shift_energy_pj_per_bit", "1e308"),
        ] {
            let err = Scenario::from_json(&with_tech(&format!(r#"{{"{field}":{value}}}"#)))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("scenario.synthesis.technology.{field}")),
                "{field}={value}: {err}"
            );
        }

        // Every power field at its upper bound still reports finite
        // numbers that parse back.
        let s = Scenario::from_json(&with_tech(
            r#"{"vdd_v":1e6,"wire_cap_ff_per_mm":1e6,"activity_factor":1,
            "leak_density_mw_per_mm2":1e6,"gating_residual":1,
            "level_shift_energy_pj_per_bit":1e6}"#,
        ))
        .unwrap();
        let report = s.run().unwrap().to_json();
        json::parse(&report).unwrap();

        // Both named nodes and every committed scenario stay in range.
        for name in ["cmos_65nm", "cmos_90nm"] {
            Scenario::from_json(&with_tech(&format!("\"{name}\""))).unwrap();
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                Scenario::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            }
        }
    }

    #[test]
    fn out_of_range_sim_and_synthesis_numbers_fail_at_ingestion() {
        // Each of these used to reach the simulator or the synthesis models
        // and panic (zero link widths, a wrapped flit count), exhaust memory
        // (zero-byte packets inject one packet per ps, huge loads stage
        // without bound) or deliver nothing (non-positive loads, zero-deep
        // queues).
        let doc = |members: &str| {
            format!(
                r#"{{"name":"n","spec":{{"benchmark":"d12"}},
                "partition":{{"kind":"logical","islands":4}},
                "floorplan":{{"iterations":2000}},{members}}}"#
            )
        };
        for (members, path) in [
            (
                r#""synthesis":{"link_width_bits":0}"#,
                "synthesis.link_width_bits",
            ),
            (
                r#""sim":{"packet_bytes":0,"horizon_ns":50000}"#,
                "sim.packet_bytes",
            ),
            (r#""sim":{"packet_bytes":65537}"#, "sim.packet_bytes"),
            (r#""sim":{"packet_bytes":17179869184}"#, "sim.packet_bytes"),
            (r#""sim":{"packet_bytes":17179869185}"#, "sim.packet_bytes"),
            (
                r#""sim":{"load_factor":1e9,"horizon_ns":5000}"#,
                "sim.load_factor",
            ),
            (r#""sim":{"load_factor":16.5}"#, "sim.load_factor"),
            (r#""sim":{"load_factor":-1}"#, "sim.load_factor"),
            (r#""sim":{"load_factor":0}"#, "sim.load_factor"),
            (r#""sim":{"queue_capacity":0}"#, "sim.queue_capacity"),
            (
                r#""sweep":{},"dyn_sweep":{"loads":[1e9],"horizon_ns":4000}"#,
                "dyn_sweep.loads",
            ),
            (
                r#""sweep":{},"dyn_sweep":{"loads":[0.5,16.5],"horizon_ns":4000}"#,
                "dyn_sweep.loads",
            ),
        ] {
            let err = Scenario::from_json(&doc(members)).unwrap_err().to_string();
            assert!(
                err.contains(&format!("scenario.{path}")),
                "{members}: {err}"
            );
        }

        // The bounds themselves are accepted.
        for members in [
            r#""sim":{"packet_bytes":1,"queue_capacity":1,"load_factor":16}"#,
            r#""sim":{"packet_bytes":65536}"#,
            r#""synthesis":{"link_width_bits":1}"#,
            r#""sweep":{},"dyn_sweep":{"loads":[16],"horizon_ns":4000}"#,
        ] {
            Scenario::from_json(&doc(members)).unwrap_or_else(|e| panic!("{members}: {e}"));
        }

        // Every committed scenario stays in range.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                Scenario::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            }
        }
    }

    #[test]
    fn out_of_range_restarts_fail_at_ingestion() {
        // An unbounded restart count would abort the process allocating
        // the restart indices deep in the floorplanner.
        let with_restarts = |r: &str| {
            format!(
                r#"{{"name":"r","spec":{{"benchmark":"d26"}},
                "partition":{{"kind":"logical","islands":2}},
                "floorplan":{{"restarts":{r}}}}}"#
            )
        };
        for r in ["65", "100000000000"] {
            let err = Scenario::from_json(&with_restarts(r)).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("scenario.floorplan.restarts") && msg.contains("at most 64"),
                "{r}: {msg}"
            );
        }
        // Zero clamps to one chain in the floorplanner; the cap is accepted.
        for (r, want) in [("0", 0), ("64", 64)] {
            let s = Scenario::from_json(&with_restarts(r)).unwrap();
            assert_eq!(s.floorplan.restarts, want);
        }
    }

    /// Asserts that synthesis member `member` is rejected below 0 and above
    /// [`TECH_MAX`] with a path-contexted error, and accepted at 0. The
    /// path search relaxes edges priced from the six cost-model members; a
    /// negative one would give it negative edge weights.
    fn assert_cost_member_bounded(member: &str) {
        let text = |x: &str| {
            format!(
                r#"{{"name":"c","spec":{{"benchmark":"d26"}},
                "partition":{{"kind":"logical","islands":6}},
                "synthesis":{{"{member}":{x}}}}}"#
            )
        };
        for (x, want) in [("-1", "must be >= 0, got -1"), ("1e7", "must be at most")] {
            let msg = Scenario::from_json(&text(x)).unwrap_err().to_string();
            assert!(
                msg.contains(&format!("scenario.synthesis.{member}")) && msg.contains(want),
                "{member} = {x}: {msg}"
            );
        }
        Scenario::from_json(&text("0")).unwrap();
    }

    #[test]
    fn negative_cost_power_weight_fails_at_ingestion() {
        assert_cost_member_bounded("cost_power_weight");
    }

    #[test]
    fn negative_cost_latency_weight_fails_at_ingestion() {
        assert_cost_member_bounded("cost_latency_weight");
    }

    #[test]
    fn negative_cost_port_scarcity_fails_at_ingestion() {
        assert_cost_member_bounded("cost_port_scarcity");
    }

    #[test]
    fn negative_est_intra_link_mm_fails_at_ingestion() {
        assert_cost_member_bounded("est_intra_link_mm");
    }

    #[test]
    fn negative_est_inter_link_mm_fails_at_ingestion() {
        assert_cost_member_bounded("est_inter_link_mm");
    }

    #[test]
    fn negative_est_mid_link_mm_fails_at_ingestion() {
        assert_cost_member_bounded("est_mid_link_mm");
    }

    #[test]
    fn malformed_inline_flows_fail_at_their_source() {
        let text = r#"{"name":"bad","spec":{"name":"t","cores":[
            {"name":"a","kind":"cpu","area_mm2":1,"dyn_power_w":1,"clock_hz":1e8},
            {"name":"b","kind":"memory","area_mm2":1,"dyn_power_w":1,"clock_hz":1e8}
        ],"flows":[{"src":0,"dst":0,"bandwidth_bytes_per_s":1e7,"max_latency_cycles":5}]},
        "partition":{"kind":"logical","islands":1}}"#;
        let err = Scenario::from_json(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("flows[0]") && msg.contains("itself"), "{msg}");
    }

    #[test]
    fn bad_sweep_scales_fail_with_a_path() {
        let text = r#"{"name":"x","spec":{"benchmark":"d12"},"partition":{"kind":"logical","islands":2},"sweep":{"freq_scales":[0.5]}}"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.to_string().contains("freq_scales"), "{err}");
    }

    #[test]
    fn refine_and_prune_round_trip_and_stay_absent_by_default() {
        let mut s = Scenario::new(
            "rp",
            SpecSource::Benchmark("d26".into()),
            PartitionPlan::Logical { islands: 6 },
        );
        // Defaults emit neither member, keeping pre-refinement files byte-stable.
        let plain = s.to_json();
        assert!(!plain.contains("sweep_prune") && !plain.contains("refine"));

        s.sweep = Some(GridConfig::default());
        s.sweep_prune = true;
        s.refine = Some(crate::RefinePlan {
            grid: GridConfig {
                max_boost: 1,
                freq_scales: vec![1.0, 1.12],
                max_intermediate: 4,
            },
            params: vi_noc_sweep::RefineParams {
                boost_radius: 1,
                base_radius: 0,
                scale_window: 0.25,
            },
        });
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json, "emission is a fixed point");
    }

    #[test]
    fn refine_params_default_when_omitted() {
        let text = r#"{"name":"x","spec":{"benchmark":"d26"},"partition":{"kind":"logical","islands":6},"sweep":{},"refine":{"grid":{"max_boost":1}}}"#;
        let s = Scenario::from_json(text).unwrap();
        let plan = s.refine.unwrap();
        assert_eq!(plan.params, vi_noc_sweep::RefineParams::default());
        assert_eq!(plan.grid.max_boost, 1);
    }

    #[test]
    fn refine_without_a_coarse_sweep_is_rejected() {
        let text = r#"{"name":"x","spec":{"benchmark":"d26"},"partition":{"kind":"logical","islands":6},"refine":{"grid":{}}}"#;
        let err = Scenario::from_json(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("refine") && msg.contains("coarse"), "{msg}");
    }

    #[test]
    fn dyn_sweep_round_trips_and_defaults_its_axes() {
        let mut s = Scenario::new(
            "ds",
            SpecSource::Benchmark("d12".into()),
            PartitionPlan::Logical { islands: 4 },
        );
        s.sweep = Some(GridConfig::default());
        s.dyn_sweep = Some(DynSweepPlan {
            loads: vec![0.5, 0.9, 1.2],
            traffic: vec![TrafficKind::Cbr, TrafficKind::Poisson],
            schedules: vec![
                None,
                Some(ShutdownPlan {
                    island: IslandChoice::Index(2),
                    stop_at_ns: 2_000,
                    drain_ns: 1_500,
                    post_gate_ns: 3_000,
                }),
            ],
            horizon_ns: 8_000,
            mode: Mode::Exact,
        });
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json, "emission is a fixed point");

        // Omitted axes default: cbr traffic, one free-running schedule,
        // exact mode.
        let text = r#"{"name":"x","spec":{"benchmark":"d12"},"partition":{"kind":"logical","islands":4},"sweep":{},"dyn_sweep":{"loads":[0.5],"horizon_ns":4000}}"#;
        let plan = Scenario::from_json(text).unwrap().dyn_sweep.unwrap();
        assert_eq!(plan.traffic, vec![TrafficKind::Cbr]);
        assert_eq!(plan.schedules, vec![None]);
        assert_eq!(plan.mode, Mode::Exact);
    }

    #[test]
    fn dyn_sweep_rejects_bad_members_with_a_path() {
        let base = |ds: &str| {
            format!(
                r#"{{"name":"x","spec":{{"benchmark":"d12"}},"partition":{{"kind":"logical","islands":4}},"sweep":{{}},"dyn_sweep":{ds}}}"#
            )
        };
        for (ds, needle) in [
            (r#"{"horizon_ns":4000}"#, "loads"),
            (r#"{"loads":[],"horizon_ns":4000}"#, "loads"),
            (r#"{"loads":[-0.5],"horizon_ns":4000}"#, "loads"),
            (r#"{"loads":[0.5],"horizon_ns":0}"#, "horizon_ns"),
            (
                r#"{"loads":[0.5],"horizon_ns":4000,"traffic":[]}"#,
                "traffic",
            ),
            (
                r#"{"loads":[0.5],"horizon_ns":4000,"traffic":["burst"]}"#,
                "burst",
            ),
            (
                r#"{"loads":[0.5],"horizon_ns":4000,"mode":"fuzzy"}"#,
                "fuzzy",
            ),
            (
                r#"{"loads":[0.5],"horizon_ns":4000,"mode":"clustered"}"#,
                "dyn_sweep.mode: mode 'clustered' is not 'exact'",
            ),
            (
                r#"{"loads":[0.7,0.7],"horizon_ns":4000}"#,
                "dyn_sweep.loads[1]: repeats loads[0]",
            ),
            (
                r#"{"loads":[0.5],"horizon_ns":4000,"traffic":["cbr","poisson","cbr"]}"#,
                "dyn_sweep.traffic[2]: repeats traffic[0]",
            ),
            (
                r#"{"loads":[0.5],"horizon_ns":4000,"schedules":[null,null]}"#,
                "dyn_sweep.schedules[1]: repeats schedules[0]",
            ),
            (
                r#"{"loads":[0.5],"horizon_ns":4000,"schedules":[{"island":1},null,{"island":1}]}"#,
                "dyn_sweep.schedules[2]: repeats schedules[0]",
            ),
            (
                r#"{"loads":[0.5],"horizon_ns":4000,"schedules":[{"stop_ns":5}]}"#,
                "schedules[0]",
            ),
        ] {
            let err = Scenario::from_json(&base(ds)).unwrap_err();
            assert!(err.to_string().contains(needle), "{ds}: {err}");
        }
    }

    #[test]
    fn dyn_sweep_without_a_sweep_grid_is_rejected() {
        let text = r#"{"name":"x","spec":{"benchmark":"d12"},"partition":{"kind":"logical","islands":4},"dyn_sweep":{"loads":[0.5],"horizon_ns":4000}}"#;
        let err = Scenario::from_json(text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("dyn_sweep") && msg.contains("'sweep' grid"),
            "{msg}"
        );
    }

    #[test]
    fn refine_rejects_unknown_members_and_bad_windows() {
        let base = |refine: &str| {
            format!(
                r#"{{"name":"x","spec":{{"benchmark":"d26"}},"partition":{{"kind":"logical","islands":6}},"sweep":{{}},"refine":{refine}}}"#
            )
        };
        let err = Scenario::from_json(&base(r#"{"grid":{},"radius":2}"#)).unwrap_err();
        assert!(err.to_string().contains("radius"), "{err}");
        let err = Scenario::from_json(&base(r#"{"grid":{},"scale_window":-0.5}"#)).unwrap_err();
        assert!(err.to_string().contains("scale_window"), "{err}");
    }
}
