//! Pinned placement digests: the floorplanner's output, bit for bit.
//!
//! Every case hashes the bit patterns of each placed `Rect` and of the die
//! with [`fnv1a64`] and compares the hash with a constant. The constants
//! were produced by the boxed-tree evaluator that preceded the flat one, so
//! any change to the annealer's RNG draw order, float operation order or
//! cooling schedule moves a pin. No pin may move: a faster annealer must
//! select exactly the same placements.
//!
//! Two families are covered: the d26 benchmark as `realize_on_floorplan`
//! feeds it (logical partitions of 1, 3, 4 and 6 islands, four seeds,
//! one to three restarts, default iterations), and generated module sets
//! with non-square modules, multi-pin nets (repeated pins included),
//! restarts 0–3, one thread and two, and short iteration counts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vi_noc_core::fnv1a64;
use vi_noc_floorplan::{floorplan, FloorplanConfig, Module, Net, Placement};
use vi_noc_soc::{benchmarks, partition, CoreId};

/// FNV-1a over the little-endian bit patterns of every rect (x, y, w, h in
/// module order) followed by the die's width and height.
fn digest(plan: &Placement) -> u64 {
    let (die_w, die_h) = plan.die();
    let mut bytes = Vec::with_capacity(8 * (4 * plan.rect_count() + 2));
    for r in plan.rects() {
        for v in [r.x, r.y, r.w, r.h] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for v in [die_w, die_h] {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The modules and nets `realize_on_floorplan` builds for d26 under a
/// logical partition into `islands` islands.
fn d26_inputs(islands: usize) -> (Vec<Module>, Vec<Net>) {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, islands).unwrap();
    let modules = soc
        .cores()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Module::new(
                c.name.clone(),
                c.area.mm2(),
                vi.island_of(CoreId::from_index(i)),
            )
        })
        .collect();
    let nets = soc
        .flows()
        .iter()
        .map(|f| Net::two_pin(f.src.index(), f.dst.index(), f.bandwidth.mbps()))
        .collect();
    (modules, nets)
}

const D26_SEEDS: [u64; 4] = [0xF100, 1, 2, 77];

/// `D26_PINS[island case][seed][restarts - 1]` for islands 1, 3, 4, 6.
const D26_PINS: [[[u64; 3]; 4]; 4] = [
    // 1 island
    [
        [0x549cc9b2fb25e5bc, 0x549cc9b2fb25e5bc, 0x549cc9b2fb25e5bc],
        [0x694bda7c412a0590, 0xfc84cf90f61c99d0, 0xfc84cf90f61c99d0],
        [0xfc84cf90f61c99d0, 0xfc84cf90f61c99d0, 0xb72ba05fe284a652],
        [0x8d347c94434c5f0d, 0x8d347c94434c5f0d, 0xf0e0bca9f3d8eef2],
    ],
    // 3 islands
    [
        [0xdd4636e570c351e0, 0x8fc27204192fb872, 0xc269902b7b04a112],
        [0xcde89d73fb80da82, 0xcde89d73fb80da82, 0xcde89d73fb80da82],
        [0x244351877e8d2054, 0xed82a98da43f2882, 0xed82a98da43f2882],
        [0xf09746fc93b5b98f, 0xf09746fc93b5b98f, 0x62d69e8a47237192],
    ],
    // 4 islands
    [
        [0x1dc5fba5aecadcbe, 0x1dc5fba5aecadcbe, 0x768069c7ca6d00e0],
        [0x3c134aa3909d1424, 0x3c134aa3909d1424, 0x3c134aa3909d1424],
        [0x15c90c8adf9e3535, 0xad2256119991963e, 0x79d6326c72bf3c86],
        [0xd474e5bf7bf0bfa2, 0xd474e5bf7bf0bfa2, 0x7b67e88452738e96],
    ],
    // 6 islands
    [
        [0xd60da75c014750eb, 0xd60da75c014750eb, 0x43fe016d692b0e3d],
        [0xac5002cf72d3725d, 0x0367863e579ce3fc, 0xb5ba17b832a9afca],
        [0x0367863e579ce3fc, 0xb5ba17b832a9afca, 0x74095fa9a3b58eb4],
        [0xb21ae7bf25362311, 0xb21ae7bf25362311, 0xb21ae7bf25362311],
    ],
];

fn check_d26(case: usize, islands: usize) {
    let (modules, nets) = d26_inputs(islands);
    for (s, &seed) in D26_SEEDS.iter().enumerate() {
        for restarts in 1..=3 {
            let cfg = FloorplanConfig {
                seed,
                restarts,
                ..FloorplanConfig::default()
            };
            let got = digest(&floorplan(&modules, &nets, &cfg));
            assert_eq!(
                got,
                D26_PINS[case][s][restarts - 1],
                "d26/{islands} seed {seed:#x} restarts {restarts}: digest {got:#x}"
            );
        }
    }
}

#[test]
fn d26_one_island_placements_are_pinned() {
    check_d26(0, 1);
}

#[test]
fn d26_three_island_placements_are_pinned() {
    check_d26(1, 3);
}

#[test]
fn d26_four_island_placements_are_pinned() {
    check_d26(2, 4);
}

#[test]
fn d26_six_island_placements_are_pinned() {
    check_d26(3, 6);
}

/// Iteration counts of the generated cases: none, fewer than the 50
/// cooling chunks, and a few short anneals.
const GEN_ITERATIONS: [usize; 6] = [0, 1, 7, 49, 400, 1_500];

/// Generated case `i`: 1–18 non-square modules over 1–4 islands, 0–8 nets
/// of 1–4 pins drawn with replacement, restarts `i % 4`, and an iteration
/// count from [`GEN_ITERATIONS`]. It runs on two threads for even `i / 4`,
/// on one otherwise.
fn generated_case(i: u64) -> (Vec<Module>, Vec<Net>, FloorplanConfig) {
    let mut rng = StdRng::seed_from_u64(0x9E0_0000 + i);
    let n = rng.random_range(1..=18usize);
    let islands = rng.random_range(1..=4usize);
    let modules = (0..n)
        .map(|j| {
            Module::with_shape(
                format!("g{i}m{j}"),
                rng.random_range(0.3..3.0),
                rng.random_range(0.3..3.0),
                rng.random_range(0..islands),
            )
        })
        .collect();
    let nets = (0..rng.random_range(0..=8usize))
        .map(|_| Net {
            pins: (0..rng.random_range(1..=4usize))
                .map(|_| rng.random_range(0..n))
                .collect(),
            weight: rng.random_range(0.1..50.0),
        })
        .collect();
    let cfg = FloorplanConfig {
        seed: rng.random::<u64>(),
        iterations: GEN_ITERATIONS[(i % 6) as usize],
        restarts: (i % 4) as usize,
        lambda_wire: if i % 5 == 0 { 1.0 } else { 0.02 },
        ..FloorplanConfig::default()
    };
    (modules, nets, cfg)
}

/// `GEN_PINS[i]` is the digest of generated case `i`.
const GEN_PINS: [u64; 60] = [
    0x9a0ac93e387db4a9,
    0xaf66955851b9ccfa,
    0x85be7229b82dddb8,
    0x6bf78340a1b6cddd,
    0xcb631ea20cdf6aef,
    0x6120faa1de3de860,
    0x2d50533141cd8815,
    0x52728f30120f7b50,
    0x790c5b64de8209ac,
    0xf678d21adbe6c081,
    0x50bbf0c479424dcb,
    0x1dd5d1f3a2d5a152,
    0x0f0c2a85ed34b1ce,
    0xff6b49c20ecbaf79,
    0x246cba4b199f33db,
    0x2cb1b002862e6c7d,
    0x66cad43dbed20429,
    0x9515313e850d6c57,
    0x69e912bb9ad726c8,
    0x7fc6a154765053ad,
    0x65df6b7b96db7a09,
    0x394c91fd7ef433ed,
    0xe1c258d10cfa70ca,
    0x462a412a34fb38ac,
    0xc7ee4f701fe3f8b5,
    0x85fbc7a92736e2f9,
    0xda02fd8c0b0afaa2,
    0xc90fd8546f766f89,
    0x092d3e1e8fcc0c35,
    0x5d1a3c72d09f8534,
    0x084dc10962f12f3f,
    0xc14ecaeedad97605,
    0x395c14027750f39e,
    0x33a5c83848df1342,
    0xa3bb7c6d9f90f3f4,
    0xbde781725e6fbcb1,
    0xfd329765c66542ac,
    0xc86cc292ab19b491,
    0x7a5edd5cfb405f16,
    0x79b9208ea72c5b61,
    0xe9aa3f98ee51d34e,
    0x6a2db7a6b511f7b7,
    0xb5dbb4cde18c11d2,
    0x476c934f8bf24f58,
    0xfe7c44b482440e69,
    0x18c84e10263a0ea7,
    0x6a81da128afec5b0,
    0xffcf4f497a8eff79,
    0x68d6eb86f79f6778,
    0xfcced73971aa8c51,
    0x1a29f0e087e2785d,
    0x41f3be715118e3b9,
    0xf04feb2ad4632dd0,
    0x94c6853ef810e0ea,
    0x53aad0b339e83885,
    0x1e03c6b39f96f01f,
    0xd6faf90b2745d74f,
    0xa462201592bfad26,
    0xd24a1bbfb6105b1b,
    0x11f09effdb189df3,
];

#[test]
fn generated_placements_are_pinned() {
    for (i, &pin) in GEN_PINS.iter().enumerate() {
        let (modules, nets, cfg) = generated_case(i as u64);
        let width = if (i / 4) % 2 == 0 { 2 } else { 1 };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
        let got = digest(&pool.unwrap().install(|| floorplan(&modules, &nets, &cfg)));
        assert_eq!(got, pin, "generated case {i} ({cfg:?}): digest {got:#x}");
    }
}
