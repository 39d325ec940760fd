//! Pinned synthesis outcomes: the path allocator's results, byte for byte.
//!
//! Every case runs the whole Algorithm 1 sweep of one (SoC, partition,
//! config) through [`evaluate_candidate_chain`], one chain per sweep index
//! exactly as `synthesize` fans out, and hashes the outcomes with
//! [`fnv1a64`]: each feasible point's [`design_point_json`], each
//! `Duplicate` mark and each `Infeasible` reason text, in candidate order.
//! The constants were produced by the allocator that searched a
//! materialized candidate graph with a generic Dijkstra, so any change to
//! the search's float operations, tie-breaking, edge order, link-opening
//! order, warm-start replays or failure messages moves a pin. No pin may
//! move: a faster allocator must produce exactly the same outcomes.
//!
//! The corpus: the benchmark suite at 1, 2, k−1, k, k+1 and k+2 logical
//! islands (k each design's natural count); communication partitions at 2,
//! 4, 6 and 7 islands with seeds 1 and 2 (d36's include the port-reserve
//! retry chains); d26 at 3, 5, 8, 13 and 26 islands; and 80 generated SoCs
//! under five cost-model variants.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vi_noc_core::{
    design_point_json, evaluate_candidate_chain, fnv1a64, CandidateOutcome, SweepPlan,
    SynthesisConfig,
};
use vi_noc_soc::{
    benchmarks, generate_synthetic, partition, SocSpec, SyntheticConfig, ViAssignment,
};

/// FNV-1a over every chain outcome of the sweep, in candidate order.
fn digest(spec: &SocSpec, vi: &ViAssignment, cfg: &SynthesisConfig) -> u64 {
    let sweep = SweepPlan::build(spec, vi, cfg);
    let mut text = String::new();
    for chain in sweep
        .candidates()
        .chunk_by(|a, b| a.sweep_index == b.sweep_index)
    {
        for outcome in evaluate_candidate_chain(spec, vi, sweep.table(), chain, cfg).0 {
            match outcome {
                CandidateOutcome::Feasible(point) => {
                    text.push('F');
                    text.push_str(&design_point_json(&point));
                }
                CandidateOutcome::Duplicate => text.push('D'),
                CandidateOutcome::Infeasible(reason) => {
                    text.push('I');
                    text.push_str(&reason);
                }
            }
            text.push('\n');
        }
    }
    fnv1a64(text.as_bytes())
}

/// Digests every case and compares it with its pin, listing every
/// mismatch (with the actual digests, ready to paste) before failing.
fn check(cases: Vec<(String, SocSpec, ViAssignment, SynthesisConfig)>, pins: &[u64]) {
    let actual: Vec<u64> = cases
        .iter()
        .map(|(_, spec, vi, cfg)| digest(spec, vi, cfg))
        .collect();
    let mismatches: Vec<String> = cases
        .iter()
        .zip(&actual)
        .zip(pins.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((_, a), pin)| *pin != Some(*a))
        .map(|(((label, ..), a), pin)| format!("{label}: {a:#018x}, pinned {pin:x?}"))
        .collect();
    let table: String = actual.iter().map(|a| format!("    {a:#018x},\n")).collect();
    assert!(
        mismatches.is_empty() && cases.len() == pins.len(),
        "{} of {} cases moved ({} pins):\n{}\nactual:\n{table}",
        mismatches.len(),
        cases.len(),
        pins.len(),
        mismatches.join("\n")
    );
}

/// The benchmark suite at 1, 2, k−1, k, k+1 and k+2 logical islands, where
/// the design's functional mix supports that count.
fn suite_cases() -> Vec<(String, SocSpec, ViAssignment, SynthesisConfig)> {
    let mut cases = Vec::new();
    for (soc, k) in benchmarks::suite() {
        let mut counts = vec![1, 2, k - 1, k, k + 1, k + 2];
        counts.dedup();
        for islands in counts {
            if let Ok(vi) = partition::logical_partition(&soc, islands) {
                let label = format!("{} logical {islands}", soc.name());
                cases.push((label, soc.clone(), vi, SynthesisConfig::default()));
            }
        }
    }
    cases
}

/// Communication partitions of every suite design at 2, 4, 6 and 7
/// islands, seeds 1 and 2, plus d26 at 3, 5, 8, 13 and 26 islands
/// (logical where its functional mix supports the count).
fn partition_cases() -> Vec<(String, SocSpec, ViAssignment, SynthesisConfig)> {
    let mut cases = Vec::new();
    for (soc, _) in benchmarks::suite() {
        for islands in [2, 4, 6, 7] {
            for seed in [1, 2] {
                let vi = partition::communication_partition(&soc, islands, seed).unwrap();
                let label = format!("{} communication {islands} seed {seed}", soc.name());
                cases.push((label, soc.clone(), vi, SynthesisConfig::default()));
            }
        }
    }
    let d26 = benchmarks::d26_mobile();
    for islands in [3, 5, 8, 13, 26] {
        let (label, vi) = match partition::logical_partition(&d26, islands) {
            Ok(vi) => (format!("d26 logical {islands}"), vi),
            Err(_) => (
                format!("d26 communication {islands} seed 1"),
                partition::communication_partition(&d26, islands, 1).unwrap(),
            ),
        };
        cases.push((label, d26.clone(), vi, SynthesisConfig::default()));
    }
    cases
}

/// Generated case `i`: a 6–30-core synthetic SoC under a communication
/// partition of 1–7 islands, with cost-model variant `i % 5` — the default,
/// no latency term, no port-scarcity term, six intermediate switches, and
/// a light power weight with free intermediate wires.
fn generated_case(i: u64) -> (String, SocSpec, ViAssignment, SynthesisConfig) {
    let mut rng = StdRng::seed_from_u64(0x5A7_0000 + i);
    let spec = generate_synthetic(&SyntheticConfig {
        n_cores: rng.random_range(6..=30usize),
        seed: rng.random::<u64>(),
        ..SyntheticConfig::default()
    });
    let islands = rng.random_range(1..=7usize).min(spec.core_count());
    let vi = partition::communication_partition(&spec, islands, rng.random::<u64>()).unwrap();
    let mut cfg = SynthesisConfig::default();
    match i % 5 {
        1 => cfg.cost_latency_weight = 0.0,
        2 => cfg.cost_port_scarcity = 0.0,
        3 => cfg.max_intermediate_switches = 6,
        4 => {
            cfg.cost_power_weight = 0.25;
            cfg.est_mid_link_mm = 0.0;
        }
        _ => {}
    }
    let label = format!("generated {i}: {} at {islands} islands", spec.name());
    (label, spec, vi, cfg)
}

/// `SUITE_PINS[i]` is the digest of the `i`-th case of [`suite_cases`].
const SUITE_PINS: [u64; 24] = [
    0x1cc5b39824dda3bd,
    0x96e0f631c92ca49e,
    0xf764991e9061b6f9,
    0x71ca2ef8ee6c8063,
    0x58a230300f0ed8e8,
    0xa5600b58e0e52c25,
    0x8da527d777482bbc,
    0xb311ae38bfe1de1a,
    0x5510dcf4529a23f9,
    0x683f0a2b1edc94d7,
    0x4dbc22a7230d48b0,
    0x7367c8b52e5987ed,
    0xd0b2e12f69f00645,
    0xd2c12588ca13f655,
    0x788ad92075599e57,
    0x43ec9de0886987f6,
    0x3aaf66f1d9a62e7f,
    0x9ae29bcddaf7b09d,
    0x7e6b146126a2e9ed,
    0x85c13f34609a5e41,
    0x7924f1ed96499243,
    0x14b1311a76c3e655,
    0x78d62a7281bc09a4,
    0x97514590953325f8,
];

/// `PARTITION_PINS[i]` is the digest of the `i`-th case of
/// [`partition_cases`].
const PARTITION_PINS: [u64; 45] = [
    0xf10fab33deab9a02,
    0xf10fab33deab9a02,
    0xe8612e8e43157043,
    0xe8612e8e43157043,
    0x9a55c99f989f1747,
    0x9a55c99f989f1747,
    0x857b7c154cf64469,
    0x857b7c154cf64469,
    0x8b1f6ca022966795,
    0x8b1f6ca022966795,
    0x2b64e8960ac7f207,
    0x2b64e8960ac7f207,
    0x89cc9397e8a9292b,
    0x89cc9397e8a9292b,
    0x499deca227786fd7,
    0x499deca227786fd7,
    0x8e5952a7126a2322,
    0x8e5952a7126a2322,
    0x9e1d1f9fb6ad6894,
    0x9e1d1f9fb6ad6894,
    0x8863b4466c11fad9,
    0x8863b4466c11fad9,
    0xe94dd50b8b952810,
    0xe94dd50b8b952810,
    0x39fa8502ccca91da,
    0x39fa8502ccca91da,
    0xcd3b191b9a0e60cd,
    0xcd3b191b9a0e60cd,
    0x9b942ec51ebc5bc6,
    0x9b942ec51ebc5bc6,
    0x79e75210bf523b9c,
    0x1cd8b53adcb60c7b,
    0xb1202f2fa75cb481,
    0xb1202f2fa75cb481,
    0xa9cd158f85bf9910,
    0xa9cd158f85bf9910,
    0x9cdeb3e43b06066f,
    0x12485c351883e208,
    0xd125269ed285f84b,
    0xafb27f27008d8a31,
    0x9ebeb91db0754fb6,
    0x9ae29bcddaf7b09d,
    0x87e3471c00727c91,
    0x1b6fa3f5a5563541,
    0x1c863a0ef5b0af9a,
];

/// `GEN_PINS[i]` is the digest of generated case `i`.
const GEN_PINS: [u64; 80] = [
    0x7ab252c9805edfa4,
    0x7fb0a85bb2094453,
    0x5feacf1ecbb0b89b,
    0x2615e73096125861,
    0xb27cb304288cbcfa,
    0x9f9cedda7e793487,
    0x78b4dc0003d067a1,
    0xd6965cab44cf4f0e,
    0x90ce058bc435a506,
    0x33a7bd43871772a0,
    0x25eeaab50b48e9ad,
    0x767ad79471ec2a81,
    0xc7a285a5d1a4c19c,
    0xe5eccfc63f1ecf1a,
    0xcc72a80bb17efc2a,
    0x37e291f237a476de,
    0x14bb3ec53da4d702,
    0xad59efb728635b67,
    0xb7fe60d971cb6347,
    0x87d26a8ec2e28485,
    0xd35d98d9e708a6f6,
    0x4dbc7a60ea5e1532,
    0xc2f305e255ffc844,
    0xc5aa9eb74f4ad186,
    0xdba9256ffc0e3586,
    0x8db1c5b2426ddcd3,
    0xcf7f2403116541d8,
    0xb698cfc1e9c1cbcd,
    0x74b67f13902f3ee2,
    0xbc542d191cc7c255,
    0x79cae2c18e9a1de6,
    0x877d856cfecab111,
    0x6fa83562e6e52293,
    0xc687daea1d586735,
    0xe33161c61e0811a6,
    0xe758ddb2c0011c7f,
    0x7993162c24d27924,
    0x420974646c54853c,
    0x24227c0701c1aee6,
    0x624fdfaaae7b2944,
    0xfeb951e05c8c8ebc,
    0x8c68e5a8e8b744d5,
    0xd7eae1039e7331b1,
    0x18cdfea076d4dce9,
    0x7e0217665846a36a,
    0x6756cf8240a35b77,
    0x11d9b2f88ac13d6f,
    0x3c10d1f4a7404d32,
    0x85255a68f98af949,
    0x35aa564eade5d495,
    0x5e0d481ec56e432f,
    0x3609e336209ab156,
    0x350ca609b45f3b4d,
    0xc71526059fd4d67c,
    0x5a14798b746c1946,
    0x0e14cd3a38207843,
    0x34d9104b254f6a4f,
    0xffbe9a4e0fca6c19,
    0xacd313f5e201c9f2,
    0x02efe5c303e6244a,
    0x5faac1e28a24889b,
    0x145e200229029655,
    0xb3c0b17abde83cb2,
    0x368509ddf583541c,
    0xc7539d152a86ea24,
    0x2fe56011abf8f290,
    0x03b9e9134ceb68a4,
    0x7ac11a9375e0e935,
    0x239d992424bc1e50,
    0x8356d7262f2f7390,
    0x90f2f8e8b13cc1eb,
    0x0c63ad2c58d57a4e,
    0x018cc26c9a7e18a2,
    0x41addcdaf0621c5d,
    0xc489915564f139b8,
    0xe8fca0a134452399,
    0x9ef5e5d1d8908276,
    0xdf49a82f3728657e,
    0x2edc624ead451230,
    0xbf8366d0ba75fbb1,
];

#[test]
fn suite_outcomes_are_pinned() {
    check(suite_cases(), &SUITE_PINS);
}

#[test]
fn partition_outcomes_are_pinned() {
    check(partition_cases(), &PARTITION_PINS);
}

#[test]
fn generated_outcomes_are_pinned() {
    check((0..80).map(generated_case).collect(), &GEN_PINS);
}
