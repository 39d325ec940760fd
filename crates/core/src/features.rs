//! Traffic-relevant features of design points and specs, recorded on
//! every point row of a dynamic-sweep table (see the `vi-noc-dynsweep`
//! crate).
//!
//! Two topologies that agree on these features behave near-identically
//! under the flit-level simulator *for a fixed sim config*: the island
//! structure fixes the clock domains and per-island switch capacity, the
//! flow fingerprint fixes the offered traffic matrix. The signatures are
//! deliberately **insensitive to intermediate-island structure** — design
//! points that differ only in their intermediate switch count share a
//! signature.
//!
//! Everything here is a pure function of committed data, hashed with
//! FNV-1a over a canonical ASCII rendering (floats in Rust's shortest
//! round-trip `Display` form, as in [`crate::json::num`]), so the
//! features are byte-deterministic across platforms and runs.

use crate::topology::Topology;
use vi_noc_soc::SocSpec;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`. Stable across platforms — the signatures
/// here and the fleet's grid fingerprints are built from it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The island-topology signature of a design point: a hash of the real
/// islands' structure — island count, per-real-island switch counts, and
/// the frequency plan (real islands plus the intermediate domain's clock,
/// which stays on even when no intermediate switch exists).
///
/// Intermediate-island *switch structure* is excluded on purpose: design
/// points that differ only in how many always-on intermediate switches
/// they route through are structural neighbours under dynamic traffic and
/// share a signature.
pub fn island_signature(topo: &Topology) -> u64 {
    let n = topo.island_count();
    let mut per_island = vec![0usize; n];
    for sw in topo.switches() {
        if sw.island_ext < n {
            per_island[sw.island_ext] += 1;
        }
    }
    let mut canon = format!("islands:{n}");
    for count in &per_island {
        canon.push_str(&format!("|sw:{count}"));
    }
    for i in 0..=n {
        canon.push_str(&format!("|f:{}", topo.island_frequency(i).hz()));
    }
    fnv1a64(canon.as_bytes())
}

/// The flow-matrix fingerprint of a spec: a hash over every flow's
/// endpoints, bandwidth, and latency constraint, in flow-id order.
///
/// Topology-independent by design (no routes, no switch assignment): every
/// design point synthesized for the same spec shares the fingerprint, so
/// it pins *which traffic* a table row was measured under, not how a
/// particular point carries it.
pub fn flow_fingerprint(spec: &SocSpec) -> u64 {
    let mut canon = format!("flows:{}", spec.flow_count());
    for flow in spec.flows() {
        canon.push_str(&format!(
            "|{}>{}:{}:{}",
            flow.src.index(),
            flow.dst.index(),
            flow.bandwidth.bytes_per_s(),
            flow.max_latency_cycles
        ));
    }
    fnv1a64(canon.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, SynthesisConfig};
    use vi_noc_soc::{benchmarks, partition};

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn signatures_are_deterministic_and_traffic_relevant() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let points = &space.points;
        assert!(points.len() >= 2, "need at least two design points");

        // Deterministic over repeated calls.
        let p0 = &points[0];
        assert_eq!(
            island_signature(&p0.topology),
            island_signature(&p0.topology)
        );
        assert_eq!(flow_fingerprint(&soc), flow_fingerprint(&soc));

        // The fingerprint is a property of the spec alone.
        let other = benchmarks::d26_mobile();
        assert_ne!(flow_fingerprint(&soc), flow_fingerprint(&other));

        // Points with different per-island switch counts get different
        // signatures; points differing only in intermediate switches share
        // one.
        for p in points.iter().skip(1) {
            if p.switch_counts == p0.switch_counts
                && p.requested_intermediate != p0.requested_intermediate
            {
                assert_eq!(
                    island_signature(&p.topology),
                    island_signature(&p0.topology)
                );
            }
            if p.switch_counts != p0.switch_counts {
                // Usually distinct — only assert the well-defined direction
                // when counts visibly differ per island.
                let sum: usize = p.switch_counts.iter().sum();
                let sum0: usize = p0.switch_counts.iter().sum();
                if sum != sum0 {
                    assert_ne!(
                        island_signature(&p.topology),
                        island_signature(&p0.topology)
                    );
                }
            }
        }
    }
}
