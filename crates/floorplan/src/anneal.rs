//! Simulated-annealing floorplan optimization (Wong–Liu moves), with
//! independently seeded restarts fanned out across threads.

use crate::placement::{evaluate, Evaluator, Placement, Rect};
use crate::slicing::{Module, Net, PolishElem, PolishExpr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

/// Parameters for [`floorplan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanConfig {
    /// RNG seed; equal seeds give identical floorplans.
    pub seed: u64,
    /// Number of proposed moves per restart.
    pub iterations: usize,
    /// Initial acceptance temperature (relative to typical cost deltas).
    pub initial_temp: f64,
    /// Geometric cooling factor applied every `iterations / 50` moves.
    pub cooling: f64,
    /// Weight of traffic-weighted wirelength in the cost.
    pub lambda_wire: f64,
    /// Weight of voltage-island cohesion (islands should be contiguous so
    /// each can have its own power rails).
    pub lambda_island: f64,
    /// Weight of the aspect-ratio penalty (`|ln(W/H)|`).
    pub lambda_aspect: f64,
    /// Number of independent annealing chains; the best result wins.
    /// Restart `r` is seeded with `seed + r`, so restart 0 reproduces the
    /// single-chain result and adding restarts can only improve the cost.
    /// The restarts run across `rayon::current_num_threads()` threads (the
    /// same order-preserving fan-out the synthesis sweep uses); every
    /// thread count selects the identical placement.
    pub restarts: usize,
}

impl Default for FloorplanConfig {
    fn default() -> Self {
        FloorplanConfig {
            seed: 0xF100,
            iterations: 20_000,
            initial_temp: 2.0,
            cooling: 0.92,
            lambda_wire: 0.02,
            lambda_island: 0.3,
            lambda_aspect: 2.0,
            restarts: 2,
        }
    }
}

/// The per-chain constants of the cost function (each net's weight share,
/// each island's members), computed once per chain instead of once per
/// move.
struct CostModel<'a> {
    cfg: &'a FloorplanConfig,
    /// Each net's pins with its share of the total net weight (the total
    /// taken as at least `1e-12`).
    nets: Vec<(f64, &'a [usize])>,
    /// Module indices of each non-empty island, islands and members both
    /// in ascending order.
    islands: Vec<Vec<usize>>,
}

impl<'a> CostModel<'a> {
    fn new(modules: &[Module], nets: &'a [Net], cfg: &'a FloorplanConfig) -> Self {
        let mut by_island: Vec<usize> = (0..modules.len()).collect();
        by_island.sort_by_key(|&i| modules[i].island);
        let total_weight = nets.iter().map(|n| n.weight).sum::<f64>().max(1e-12);
        CostModel {
            cfg,
            nets: nets
                .iter()
                .map(|n| (n.weight / total_weight, &n.pins[..]))
                .collect(),
            islands: by_island
                .chunk_by(|&a, &b| modules[a].island == modules[b].island)
                .map(<[usize]>::to_vec)
                .collect(),
        }
    }

    /// Cost of the placement `rects` on a `die`: die area + weighted
    /// wirelength + island spread + aspect penalty. Lower is better.
    fn cost(&self, rects: &[Rect], (w, h): (f64, f64)) -> f64 {
        let area = w * h;
        let aspect = if w > 0.0 && h > 0.0 {
            (w / h).ln().abs()
        } else {
            10.0
        };

        // Traffic-weighted half-perimeter wirelength.
        let mut wl = 0.0;
        for &(share, pins) in &self.nets {
            wl += share * half_perimeter(rects, pins);
        }

        // Island cohesion: half-perimeter of each island's bounding box, summed.
        let mut spread = 0.0;
        for members in &self.islands {
            spread += half_perimeter(rects, members);
        }

        let cfg = self.cfg;
        area + cfg.lambda_aspect * area * aspect.min(2.0) / 2.0
            + cfg.lambda_wire * area * wl
            + cfg.lambda_island * spread
    }
}

/// Half-perimeter of the bounding box of the centers of `rects[i]` for
/// each `i` in `members`.
fn half_perimeter(rects: &[Rect], members: &[usize]) -> f64 {
    let (mut lo_x, mut hi_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut lo_y, mut hi_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &i in members {
        let (cx, cy) = rects[i].center();
        lo_x = lo_x.min(cx);
        hi_x = hi_x.max(cx);
        lo_y = lo_y.min(cy);
        hi_y = hi_y.max(cy);
    }
    (hi_x - lo_x) + (hi_y - lo_y)
}

/// A move applied in place. Every move is its own inverse, so applying it
/// again undoes a rejected proposal.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Swap the elements at two positions (M1, M3).
    Swap(usize, usize),
    /// Complement the run of operators starting at a position (M2).
    Complement(usize),
    /// Flip a module's rotation flag (M4).
    Rotate(usize),
}

impl Move {
    fn apply(self, expr: &mut PolishExpr) {
        match self {
            Move::Swap(a, b) => expr.elems.swap(a, b),
            Move::Complement(start) => {
                for e in &mut expr.elems[start..] {
                    match e {
                        PolishElem::H => *e = PolishElem::V,
                        PolishElem::V => *e = PolishElem::H,
                        PolishElem::Operand(_) => break,
                    }
                }
            }
            Move::Rotate(i) => expr.rotated[i] = !expr.rotated[i],
        }
    }
}

/// Proposes one random Wong–Liu move on the valid expression `expr` over
/// `n` modules and applies it; returns `None`, with `expr` unchanged, if
/// the proposal was structurally invalid (caller retries).
fn propose(expr: &mut PolishExpr, n: usize, rng: &mut StdRng) -> Option<Move> {
    let is_operand = |e: &PolishElem| matches!(e, PolishElem::Operand(_));
    let mv = match rng.random_range(0..4u8) {
        // M1: swap two adjacent operands (a valid expression has `n`).
        0 => {
            if n < 2 {
                return None;
            }
            let k = rng.random_range(0..n - 1);
            let mut operands = (0..expr.elems.len()).filter(|&i| is_operand(&expr.elems[i]));
            let a = operands.nth(k).expect("k-th operand");
            Move::Swap(a, operands.next().expect("next operand"))
        }
        // M2: complement a chain of operators (flip H<->V) from a random
        // operator (a valid expression has `n - 1`) to the next operand.
        1 => {
            if n < 2 {
                return None;
            }
            let k = rng.random_range(0..n - 1);
            let start = (0..expr.elems.len())
                .filter(|&i| !is_operand(&expr.elems[i]))
                .nth(k)
                .expect("k-th operator");
            Move::Complement(start)
        }
        // M3: swap an adjacent operand/operator pair, if validity holds.
        2 => {
            if expr.elems.len() < 2 {
                return None;
            }
            let k = rng.random_range(0..expr.elems.len() - 1);
            if is_operand(&expr.elems[k]) == is_operand(&expr.elems[k + 1]) {
                return None;
            }
            expr.elems.swap(k, k + 1);
            if !expr.is_valid(n) {
                expr.elems.swap(k, k + 1);
                return None;
            }
            return Some(Move::Swap(k, k + 1));
        }
        // M4: rotate a random module.
        _ => Move::Rotate(rng.random_range(0..n)),
    };
    mv.apply(expr);
    Some(mv)
}

/// One annealing chain from `seed`; returns the best cost seen and the
/// expression achieving it.
///
/// Each move is applied to the one working expression in place, evaluated
/// into reused buffers, and undone if rejected, so a move allocates nothing.
fn anneal_chain(
    modules: &[Module],
    nets: &[Net],
    cfg: &FloorplanConfig,
    seed: u64,
) -> (f64, PolishExpr) {
    let n = modules.len();
    let model = CostModel::new(modules, nets, cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expr = PolishExpr::initial(n);
    let mut evaluator = Evaluator::new(expr.elems.len());
    let mut rects = vec![Rect::default(); n];
    let mut cost_of = |expr: &PolishExpr| {
        let die = evaluator.place(expr, modules, &mut rects);
        model.cost(&rects, die)
    };
    let mut current_cost = cost_of(&expr);
    let mut best_expr = expr.clone();
    let mut best_cost = current_cost;

    let mut temp = cfg.initial_temp * current_cost.max(1e-9);
    let chunk = (cfg.iterations / 50).max(1);

    for it in 0..cfg.iterations {
        let Some(mv) = propose(&mut expr, n, &mut rng) else {
            continue;
        };
        debug_assert!(expr.is_valid(n));
        let c = cost_of(&expr);
        let delta = c - current_cost;
        let accept = delta <= 0.0 || rng.random::<f64>() < (-delta / temp.max(1e-12)).exp();
        if accept {
            current_cost = c;
            if c < best_cost {
                best_cost = c;
                best_expr.elems.copy_from_slice(&expr.elems);
                best_expr.rotated.copy_from_slice(&expr.rotated);
            }
        } else {
            mv.apply(&mut expr);
        }
        if (it + 1) % chunk == 0 {
            temp *= cfg.cooling;
        }
    }

    (best_cost, best_expr)
}

/// Floorplans `modules` by simulated annealing, minimizing die area,
/// traffic-weighted wirelength, island spread and aspect-ratio penalty.
///
/// Runs [`FloorplanConfig::restarts`] independent chains (seeded
/// `seed + r`, fanned out across threads) and returns the best placement
/// encountered; cost ties go to the lowest restart index, so the result is
/// deterministic for a fixed [`FloorplanConfig`] at any thread count.
///
/// # Panics
///
/// Panics if `modules` is empty or a net references a missing module.
pub fn floorplan(modules: &[Module], nets: &[Net], cfg: &FloorplanConfig) -> Placement {
    assert!(!modules.is_empty(), "cannot floorplan zero modules");
    for net in nets {
        for &p in &net.pins {
            assert!(p < modules.len(), "net references missing module {p}");
        }
    }
    let restarts: Vec<u64> = (0..cfg.restarts.max(1) as u64).collect();
    let chains: Vec<(f64, PolishExpr)> = restarts
        .par_iter()
        .map(|&r| anneal_chain(modules, nets, cfg, cfg.seed.wrapping_add(r)))
        .collect();
    let best = chains
        .into_iter()
        .reduce(|best, next| if next.0 < best.0 { next } else { best })
        .expect("at least one restart");
    evaluate(&best.1, modules)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> FloorplanConfig {
        FloorplanConfig {
            iterations: 3_000,
            ..FloorplanConfig::default()
        }
    }

    fn modules_two_islands() -> Vec<Module> {
        (0..8)
            .map(|i| Module::new(format!("m{i}"), 1.0 + (i % 3) as f64 * 0.5, i / 4))
            .collect()
    }

    #[test]
    fn result_is_overlap_free_and_reasonably_packed() {
        let modules = modules_two_islands();
        let plan = floorplan(&modules, &[], &quick_cfg());
        assert!(plan.is_overlap_free());
        assert!(
            plan.utilization() > 0.5,
            "utilization {} too low",
            plan.utilization()
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let modules = modules_two_islands();
        let a = floorplan(&modules, &[], &quick_cfg());
        let b = floorplan(&modules, &[], &quick_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn annealing_beats_initial_expression() {
        // Mixed-size modules: the initial strip layout is bad.
        let modules: Vec<Module> = (0..12)
            .map(|i| Module::new(format!("m{i}"), 0.5 + (i as f64) * 0.3, 0))
            .collect();
        let initial = evaluate(&PolishExpr::initial(12), &modules);
        let annealed = floorplan(&modules, &[], &quick_cfg());
        assert!(
            annealed.die_area_mm2() < initial.die_area_mm2(),
            "SA {} should beat initial {}",
            annealed.die_area_mm2(),
            initial.die_area_mm2()
        );
    }

    #[test]
    fn heavy_net_pulls_modules_together() {
        // Modules 0 and 7 heavily connected: after annealing they should be
        // closer than the die diagonal would suggest at random.
        let modules: Vec<Module> = (0..8)
            .map(|i| Module::new(format!("m{i}"), 1.0, 0))
            .collect();
        let nets = vec![Net::two_pin(0, 7, 100.0)];
        let cfg = FloorplanConfig {
            iterations: 12_000,
            lambda_wire: 1.0,
            ..FloorplanConfig::default()
        };
        let plan = floorplan(&modules, &nets, &cfg);
        let (ax, ay) = plan.center(0);
        let (bx, by) = plan.center(7);
        let dist = (ax - bx).abs() + (ay - by).abs();
        let (dw, dh) = plan.die();
        assert!(
            dist < (dw + dh) * 0.55,
            "hot pair distance {dist} vs die {dw}x{dh}"
        );
    }

    #[test]
    fn island_cohesion_groups_islands() {
        // Two islands of 4; cohesion weight high. Island bounding boxes
        // should not both span the whole die.
        let modules = modules_two_islands();
        let cfg = FloorplanConfig {
            iterations: 15_000,
            lambda_island: 3.0,
            ..FloorplanConfig::default()
        };
        let plan = floorplan(&modules, &[], &cfg);
        let bbox = |isl: usize| {
            let mut lo = (f64::INFINITY, f64::INFINITY);
            let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for (i, m) in modules.iter().enumerate() {
                if m.island == isl {
                    let (x, y) = plan.center(i);
                    lo = (lo.0.min(x), lo.1.min(y));
                    hi = (hi.0.max(x), hi.1.max(y));
                }
            }
            (hi.0 - lo.0) + (hi.1 - lo.1)
        };
        let (dw, dh) = plan.die();
        let die_hp = dw + dh;
        assert!(
            bbox(0) + bbox(1) < 1.6 * die_hp,
            "island spread {} + {} vs die half-perimeter {}",
            bbox(0),
            bbox(1),
            die_hp
        );
    }

    #[test]
    fn restart_modes_select_the_same_placement() {
        let modules = modules_two_islands();
        let nets = vec![Net::two_pin(0, 7, 10.0)];
        let base = FloorplanConfig {
            restarts: 4,
            ..quick_cfg()
        };
        let at = |width| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
            pool.unwrap().install(|| floorplan(&modules, &nets, &base))
        };
        assert_eq!(at(1), at(2));
    }

    #[test]
    fn extra_restarts_never_worsen_the_cost() {
        let modules = modules_two_islands();
        let nets = vec![Net::two_pin(1, 6, 25.0)];
        let single = FloorplanConfig {
            restarts: 1,
            ..quick_cfg()
        };
        let multi = FloorplanConfig {
            restarts: 4,
            ..quick_cfg()
        };
        let p1 = floorplan(&modules, &nets, &single);
        let p4 = floorplan(&modules, &nets, &multi);
        // Restart 0 of the multi run *is* the single run, so best-of-4 can
        // only match or beat it.
        let cost =
            |p: &Placement, cfg| CostModel::new(&modules, &nets, cfg).cost(p.rects(), p.die());
        assert!(
            cost(&p4, &multi) <= cost(&p1, &single) + 1e-12,
            "best-of-4 cost {} worse than single-chain {}",
            cost(&p4, &multi),
            cost(&p1, &single)
        );
    }

    #[test]
    fn zero_restarts_clamps_to_one_chain() {
        let modules = modules_two_islands();
        let zero = FloorplanConfig {
            restarts: 0,
            ..quick_cfg()
        };
        let one = FloorplanConfig {
            restarts: 1,
            ..quick_cfg()
        };
        assert_eq!(
            floorplan(&modules, &[], &zero),
            floorplan(&modules, &[], &one)
        );
    }

    #[test]
    fn single_module_floorplan() {
        let modules = vec![Module::new("only", 2.25, 0)];
        let plan = floorplan(&modules, &[], &quick_cfg());
        assert_eq!(plan.rect_count(), 1);
        assert!((plan.die_area_mm2() - 2.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "missing module")]
    fn net_validation() {
        floorplan(
            &[Module::new("a", 1.0, 0)],
            &[Net::two_pin(0, 3, 1.0)],
            &quick_cfg(),
        );
    }
}
