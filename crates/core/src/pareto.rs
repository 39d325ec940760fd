//! Power/latency Pareto dominance, shared by [`crate::DesignSpace`] and the
//! streaming sweep fold of the `vi-noc-sweep` crate.
//!
//! # Dominance semantics
//!
//! Every point is keyed by `(power, latency, ordinal)` where `ordinal` is a
//! stable exploration index. Point `q` *dominates* point `p` iff `q` sorts
//! strictly before `p` lexicographically **and** `q.latency <= p.latency` —
//! i.e. `q` is no worse on both axes and strictly better on power, latency,
//! or (for bit-equal metrics) exploration order. The front is the set of
//! undominated points, ordered by increasing power.
//!
//! The relation is deliberately epsilon-free: it is a strict partial order
//! (irreflexive, transitive, antisymmetric), which buys the property the
//! sharded sweep depends on — *survival is pairwise and order-independent*.
//! A point is on the front iff no other point of the whole set dominates it,
//! so folding points one at a time ([`ParetoFold`]), folding shard-local
//! fronts, or scanning the full sorted set ([`front_of`]) all produce the
//! identical front, bit for bit. (An epsilon tolerance would break
//! transitivity: `a` within epsilon of `b` and `b` within epsilon of `c`
//! does not put `a` within epsilon of `c`, and shard merges could then
//! disagree with the unsharded scan.)

/// Sort/dominance key of one design point: total power in mW, mean zero-load
/// latency in cycles, and a stable exploration ordinal for tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoKey {
    /// Total NoC dynamic power, mW (lower is better).
    pub power_mw: f64,
    /// Mean zero-load latency, cycles (lower is better).
    pub latency_cycles: f64,
    /// Stable exploration index; among bit-equal metrics the earliest
    /// explored point wins, so results never depend on evaluation order.
    pub ordinal: u64,
}

impl ParetoKey {
    /// Strict lexicographic `(power, latency, ordinal)` order.
    ///
    /// Both metrics must be finite (guaranteed for synthesized designs);
    /// ordinals are assumed unique, so two distinct keys always order.
    pub fn sorts_before(&self, other: &ParetoKey) -> bool {
        debug_assert!(self.power_mw.is_finite() && self.latency_cycles.is_finite());
        if self.power_mw != other.power_mw {
            return self.power_mw < other.power_mw;
        }
        if self.latency_cycles != other.latency_cycles {
            return self.latency_cycles < other.latency_cycles;
        }
        self.ordinal < other.ordinal
    }

    /// `true` iff `self` dominates `other`: no worse on either axis and
    /// strictly better on power, latency, or exploration order.
    pub fn dominates(&self, other: &ParetoKey) -> bool {
        self.sorts_before(other) && self.latency_cycles <= other.latency_cycles
    }
}

/// Index of the minimum of `key` over `items` (first of equal minima,
/// matching `Iterator::min_by` with a `partial_cmp` fallback), or `None` for
/// an empty slice. Backs [`crate::DesignSpace::min_power_point`].
pub fn argmin<T>(items: &[T], key: impl Fn(&T) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, item) in items.iter().enumerate() {
        let k = key(item);
        match best {
            Some((_, kb)) if k < kb => best = Some((i, k)),
            None => best = Some((i, k)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

/// Indices of the Pareto front of `keys`, ordered by increasing
/// `(power, latency, ordinal)`.
///
/// Equivalent to offering every key to a [`ParetoFold`] and sorting the
/// survivors — the scan over the sorted set is just cheaper when all points
/// are already materialized.
pub fn front_of(keys: &[ParetoKey]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| {
        if keys[a].sorts_before(&keys[b]) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
    let mut front = Vec::new();
    let mut best_latency = f64::INFINITY;
    for i in order {
        // Every earlier key sorts before this one, so it is dominated iff
        // any of them has latency <= this latency — i.e. iff this latency
        // does not strictly improve on the best so far.
        if keys[i].latency_cycles < best_latency {
            best_latency = keys[i].latency_cycles;
            front.push(i);
        }
    }
    front
}

/// A bounded-memory streaming Pareto fold: feed it `(key, value)` outcomes
/// one at a time and it retains exactly the undominated ones.
///
/// Because dominance is a strict partial order, the retained set after any
/// sequence of [`ParetoFold::offer`]s equals the front of the full multiset
/// offered so far, regardless of order — a dominated point is always killed
/// either by a current survivor or by a chain of removals ending in one.
/// [`ParetoFold::absorb`] merges two folds with the same guarantee, which is
/// what makes sharded sweeps exact: merging shard-local fronts reproduces
/// the unsharded front bit for bit.
///
/// Memory is bounded by the front size (points with pairwise incomparable
/// power/latency), not by the number of candidates offered.
#[derive(Debug, Clone, Default)]
pub struct ParetoFold<T> {
    entries: Vec<(ParetoKey, T)>,
}

impl<T> ParetoFold<T> {
    /// An empty fold.
    pub fn new() -> Self {
        ParetoFold {
            entries: Vec::new(),
        }
    }

    /// Offers one point. Returns `true` if it joined the front (possibly
    /// evicting dominated survivors), `false` if it was dominated.
    pub fn offer(&mut self, key: ParetoKey, value: T) -> bool {
        if self.entries.iter().any(|(k, _)| k.dominates(&key)) {
            return false;
        }
        self.entries.retain(|(k, _)| !key.dominates(k));
        self.entries.push((key, value));
        true
    }

    /// Merges another fold into this one (exact, order-independent).
    pub fn absorb(&mut self, other: ParetoFold<T>) {
        for (key, value) in other.entries {
            self.offer(key, value);
        }
    }

    /// `true` iff `key` is dominated by a current survivor — offering it
    /// now would leave the front unchanged.
    ///
    /// Because dominance is transitive and the survivors are exactly the
    /// front of everything offered so far, checking against survivors alone
    /// is exact: any key dominated by *some* offered point is dominated by
    /// a current survivor. This is what the sweep pruning proofs check —
    /// every skipped chain's force-evaluated points must satisfy it.
    pub fn is_dominated(&self, key: &ParetoKey) -> bool {
        self.entries.iter().any(|(k, _)| k.dominates(key))
    }

    /// Number of current survivors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing offered so far survived (or nothing was offered).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the current survivors in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(ParetoKey, T)> {
        self.entries.iter()
    }

    /// Consumes the fold, returning the front ordered by increasing
    /// `(power, latency, ordinal)`.
    pub fn into_sorted(self) -> Vec<(ParetoKey, T)> {
        let mut entries = self.entries;
        entries.sort_by(|(a, _), (b, _)| {
            if a.sorts_before(b) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: f64, l: f64, o: u64) -> ParetoKey {
        ParetoKey {
            power_mw: p,
            latency_cycles: l,
            ordinal: o,
        }
    }

    #[test]
    fn dominance_is_strict_and_antisymmetric() {
        let a = key(1.0, 5.0, 0);
        let b = key(2.0, 4.0, 1);
        let c = key(2.0, 6.0, 2);
        assert!(!a.dominates(&b) && !b.dominates(&a), "trade-off points");
        assert!(a.dominates(&c), "better on both axes");
        assert!(!c.dominates(&a));
        assert!(!a.dominates(&a), "irreflexive");
        // Bit-equal metrics: the earlier ordinal wins.
        let d = key(1.0, 5.0, 7);
        assert!(a.dominates(&d) && !d.dominates(&a));
    }

    #[test]
    fn fold_matches_front_of_in_any_order() {
        let keys = vec![
            key(3.0, 2.0, 0),
            key(1.0, 6.0, 1),
            key(2.0, 4.0, 2),
            key(2.5, 4.0, 3), // dominated by ordinal 2
            key(2.0, 4.0, 4), // bit-equal to ordinal 2, loses the tie
            key(0.5, 9.0, 5),
            key(4.0, 1.0, 6),
        ];
        let want: Vec<ParetoKey> = front_of(&keys).into_iter().map(|i| keys[i]).collect();
        assert_eq!(want.len(), 5);

        // Offer in several permutations; the surviving front never changes.
        let orders: Vec<Vec<usize>> = vec![
            (0..keys.len()).collect(),
            (0..keys.len()).rev().collect(),
            vec![3, 1, 4, 0, 6, 2, 5],
        ];
        for order in orders {
            let mut fold = ParetoFold::new();
            for &i in &order {
                fold.offer(keys[i], i);
            }
            let got: Vec<ParetoKey> = fold.into_sorted().into_iter().map(|(k, _)| k).collect();
            assert_eq!(got, want, "order {order:?}");
        }
    }

    #[test]
    fn absorbing_shard_folds_is_exact() {
        // Split a point set into stripes, fold each, merge: identical to the
        // unsharded fold.
        let keys: Vec<ParetoKey> = (0..40)
            .map(|i| {
                let p = (i as f64 * 7.3) % 11.0;
                let l = (i as f64 * 3.7) % 13.0;
                key(p, l, i)
            })
            .collect();
        let mut full = ParetoFold::new();
        for &k in &keys {
            full.offer(k, ());
        }
        let want: Vec<ParetoKey> = full.into_sorted().into_iter().map(|(k, _)| k).collect();
        for n in [1usize, 2, 3, 7] {
            let mut merged = ParetoFold::new();
            for s in 0..n {
                let mut shard = ParetoFold::new();
                for (i, &k) in keys.iter().enumerate() {
                    if i % n == s {
                        shard.offer(k, ());
                    }
                }
                merged.absorb(shard);
            }
            let got: Vec<ParetoKey> = merged.into_sorted().into_iter().map(|(k, _)| k).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn is_dominated_agrees_with_offer() {
        let keys = vec![
            key(3.0, 2.0, 0),
            key(1.0, 6.0, 1),
            key(2.0, 4.0, 2),
            key(2.5, 4.0, 3),
            key(2.0, 4.0, 4),
        ];
        let mut fold = ParetoFold::new();
        for &k in &keys {
            fold.offer(k, ());
        }
        for &k in &keys {
            // A key the fold would reject is exactly a dominated key; the
            // survivors themselves are never dominated (irreflexivity).
            let mut probe = fold.clone();
            assert_eq!(fold.is_dominated(&k), !probe.offer(k, ()));
        }
        assert!(fold.is_dominated(&key(9.0, 9.0, 100)));
        assert!(!fold.is_dominated(&key(0.1, 0.1, 100)));
    }

    #[test]
    fn argmin_returns_first_of_equal_minima() {
        let v = [3.0, 1.0, 2.0, 1.0];
        assert_eq!(argmin(&v, |&x| x), Some(1));
        assert_eq!(argmin::<f64>(&[], |&x| x), None);
    }
}
