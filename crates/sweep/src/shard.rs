//! Deterministic striping of a [`crate::SweepGrid`] across shards, plus the
//! contiguous [`ChainRange`] shape the fleet coordinator leases out.

use std::fmt;
use vi_noc_core::json;

/// One stripe of a sharded sweep: shard `index` of `count` owns every chain
/// id congruent to `index` modulo `count`.
///
/// Striping is by **chain**, not by candidate: all intermediate-count
/// candidates of a chain share their allocation context and warm-start one
/// another (PR 2's exact optimization), so splitting a chain across shards
/// would forfeit the warm start. Round-robin over chain ids also balances
/// load — neighbouring chains have similar switch counts and hence similar
/// evaluation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's stripe, `0 <= index < count`.
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

impl Shard {
    /// The trivial sharding: one shard owning every chain (the unsharded,
    /// single-process streaming run).
    pub fn full() -> Self {
        Shard { index: 0, count: 1 }
    }

    /// Creates a shard, validating `index < count` and that a checkpoint
    /// can record `count` (at most [`json::MAX_EXACT_INT`]).
    pub fn new(index: u64, count: u64) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if count > json::MAX_EXACT_INT {
            return Err(format!(
                "shard count {count} is above 2^53, the largest a checkpoint can record"
            ));
        }
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(Shard { index, count })
    }

    /// Parses the CLI form `index/count`, e.g. `0/3`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("expected INDEX/COUNT, got '{s}'"))?;
        let index: u64 = i.parse().map_err(|_| format!("bad shard index '{i}'"))?;
        let count: u64 = n.parse().map_err(|_| format!("bad shard count '{n}'"))?;
        Shard::new(index, count)
    }

    /// The chain ids this shard owns, in ascending order.
    pub fn chain_ids(&self, num_chains: u64) -> impl Iterator<Item = u64> + '_ {
        (self.index..num_chains).step_by(self.count as usize)
    }

    /// Number of stripe positions this shard owns in a grid of
    /// `num_chains` chain ids — the completion value of the checkpoint's
    /// `chains_done` watermark.
    pub fn stripe_len(&self, num_chains: u64) -> u64 {
        num_chains.saturating_sub(self.index).div_ceil(self.count)
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// A contiguous half-open chain-id range `[start, end)` — the lease shape
/// of the fleet coordinator (`vi-noc-fleet`).
///
/// Where [`Shard`] stripes a grid round-robin for a *fixed* process count
/// known up front, a `ChainRange` carves out an arbitrary contiguous run of
/// chain ids: a coordinator can cut the id space into any number of ranges,
/// lease them to however many workers happen to be connected, and re-cut a
/// dead worker's remainder — all without renumbering anything. Exactness is
/// the same argument as for shards: any set of ranges that covers every
/// chain id exactly once folds to the frontier of the full sequential pass,
/// because dominance survival is pairwise and the fold is order-independent
/// (see [`vi_noc_core::pareto`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainRange {
    /// First chain id of the range (inclusive).
    pub start: u64,
    /// One past the last chain id of the range (exclusive).
    pub end: u64,
}

impl ChainRange {
    /// Creates a range, validating `start <= end`.
    pub fn new(start: u64, end: u64) -> Result<Self, String> {
        if start > end {
            return Err(format!("chain range {start}..{end} is inverted"));
        }
        Ok(ChainRange { start, end })
    }

    /// The whole id space of a grid with `num_chains` chains.
    pub fn full(num_chains: u64) -> Self {
        ChainRange {
            start: 0,
            end: num_chains,
        }
    }

    /// Number of chain ids in the range.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` when the range holds no chain ids.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` iff the range contains `chain_id`.
    pub fn contains(&self, chain_id: u64) -> bool {
        (self.start..self.end).contains(&chain_id)
    }

    /// The chain ids of the range, in ascending order.
    pub fn chain_ids(&self) -> impl Iterator<Item = u64> {
        self.start..self.end
    }

    /// Cuts `0..num_chains` into consecutive ranges of `chunk` ids each
    /// (the last one possibly shorter). `chunk` is clamped to at least 1;
    /// an empty grid yields no ranges.
    pub fn cut(num_chains: u64, chunk: u64) -> Vec<ChainRange> {
        let chunk = chunk.max(1);
        (0..num_chains)
            .step_by(usize::try_from(chunk).unwrap_or(usize::MAX))
            .map(|start| ChainRange {
                start,
                end: (start + chunk).min(num_chains),
            })
            .collect()
    }
}

impl fmt::Display for ChainRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_partition_the_chain_ids() {
        for n in [1u64, 2, 3, 7] {
            let mut seen = [0u32; 23];
            for i in 0..n {
                let shard = Shard::new(i, n).unwrap();
                for c in shard.chain_ids(23) {
                    seen[c as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "n={n}: each chain once");
        }
    }

    #[test]
    fn stripe_len_counts_owned_positions() {
        for n in [1u64, 2, 3, 7] {
            for num_chains in [0u64, 1, 22, 23, 24] {
                for i in 0..n {
                    let shard = Shard::new(i, n).unwrap();
                    assert_eq!(
                        shard.stripe_len(num_chains),
                        shard.chain_ids(num_chains).count() as u64,
                        "shard {shard} of {num_chains}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranges_cut_the_id_space_exactly_once() {
        for num_chains in [0u64, 1, 5, 23, 24] {
            for chunk in [1u64, 2, 7, 23, 100] {
                let ranges = ChainRange::cut(num_chains, chunk);
                let mut seen = vec![0u32; num_chains as usize];
                for r in &ranges {
                    assert!(!r.is_empty(), "cut never yields empty ranges");
                    assert!(r.len() <= chunk);
                    for c in r.chain_ids() {
                        assert!(r.contains(c));
                        seen[c as usize] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&s| s == 1),
                    "chunk={chunk} n={num_chains}: each chain exactly once"
                );
            }
        }
        assert!(ChainRange::cut(0, 4).is_empty());
        assert_eq!(ChainRange::cut(10, 0), ChainRange::cut(10, 1));
    }

    #[test]
    fn range_construction_validates_and_displays() {
        assert!(ChainRange::new(3, 2).is_err());
        let r = ChainRange::new(2, 9).unwrap();
        assert_eq!(r.len(), 7);
        assert_eq!(r.to_string(), "2..9");
        assert_eq!(ChainRange::full(5), ChainRange { start: 0, end: 5 });
        assert!(ChainRange::new(4, 4).unwrap().is_empty());
    }

    #[test]
    fn parse_accepts_cli_form_and_rejects_junk() {
        assert_eq!(Shard::parse("2/5").unwrap(), Shard { index: 2, count: 5 });
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::full());
        for bad in ["", "3", "3/3", "a/2", "1/0", "1/b", "-1/2"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(Shard::parse("2/5").unwrap().to_string(), "2/5");
    }

    #[test]
    fn shard_counts_stay_within_what_a_checkpoint_records() {
        assert!(Shard::parse("1/9007199254740993").is_err());
        assert!(Shard::new(0, u64::MAX).is_err());
        assert_eq!(Shard::parse("1/9007199254740992").unwrap().count, 1 << 53);
    }
}
