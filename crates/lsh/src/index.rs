//! The multi-table LSH index `I_G = {D_g1, …, D_gℓ}` (§4.1) and the
//! virtual-bucket view of Appendix B.2.1.

use std::sync::Arc;

use crate::family::{BucketHasher, LshFamily};
use crate::signature::Composite;
use crate::simhash::SimHashFamily;
use crate::table::LshTable;
use crate::view::IndexView;
use vsj_sampling::Rng;
use vsj_vector::{VectorCollection, VectorId};

/// Index parameters: `k` functions per table, `ℓ` tables, and the seed
/// that derives every hash function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Number of hash functions concatenated per table (the paper's `k`;
    /// its experiments default to 20).
    pub k: usize,
    /// Number of tables (the paper's `ℓ`; the estimators of §4–5 use 1).
    pub l: usize,
    /// Master seed.
    pub seed: u64,
    /// Hashing thread cap (`None` = all cores).
    pub threads: Option<usize>,
}

impl LshParams {
    /// Creates parameters with the given `k` and `ℓ` (seed 0).
    pub fn new(k: usize, l: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(l >= 1, "an index needs at least one table");
        Self {
            k,
            l,
            seed: 0,
            threads: None,
        }
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps hashing threads (useful for deterministic benchmarking).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The paper's experimental default: `k = 20`, one table.
    pub fn paper_default() -> Self {
        Self::new(20, 1)
    }
}

/// An LSH index: `ℓ` independent bucket-counted tables over one collection.
pub struct LshIndex {
    params: LshParams,
    tables: Vec<LshTable>,
    family_name: &'static str,
}

impl LshIndex {
    /// Builds a SimHash (cosine) index — the configuration the paper
    /// evaluates.
    pub fn build(collection: &VectorCollection, params: LshParams) -> Self {
        Self::build_with_family(collection, SimHashFamily::new(), params)
    }

    /// Builds an index over any LSH family.
    pub fn build_with_family<F>(collection: &VectorCollection, family: F, params: LshParams) -> Self
    where
        F: LshFamily + Clone + 'static,
    {
        let family_name = family.name();
        let tables = (0..params.l as u64)
            .map(|t| {
                let hasher: Arc<dyn BucketHasher> =
                    Arc::new(Composite::derive(family.clone(), params.seed, t, params.k));
                LshTable::build(collection, hasher, params.threads)
            })
            .collect();
        Self {
            params,
            tables,
            family_name,
        }
    }

    /// The parameters the index was built with.
    #[inline]
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// Family name ("simhash", "minhash", …).
    #[inline]
    pub fn family_name(&self) -> &'static str {
        self.family_name
    }

    /// Number of tables `ℓ`.
    #[inline]
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// A single table `D_gi`.
    ///
    /// # Panics
    /// Panics when `i ≥ ℓ`.
    #[inline]
    pub fn table(&self, i: usize) -> &LshTable {
        &self.tables[i]
    }

    /// All tables.
    #[inline]
    pub fn tables(&self) -> &[LshTable] {
        &self.tables
    }

    /// Number of indexed vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.tables.first().map_or(0, LshTable::len)
    }

    /// True when nothing is indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // --- virtual buckets (Appendix B.2.1) --------------------------------

    /// Virtual-bucket membership: `B(u) = B(v)` iff `u` and `v` share a
    /// bucket in *any* of the `ℓ` tables.
    pub fn same_bucket_any(&self, a: VectorId, b: VectorId) -> bool {
        self.tables.iter().any(|t| t.same_bucket(a, b))
    }

    /// In how many tables the pair shares a bucket (the multiplicity used
    /// by union sampling).
    pub fn same_bucket_multiplicity(&self, a: VectorId, b: VectorId) -> usize {
        self.tables.iter().filter(|t| t.same_bucket(a, b)).count()
    }

    /// Sum of per-table same-bucket pair counts `Σ_i N_H(i)` — the
    /// *multiset* size of the virtual stratum.
    pub fn sum_nh(&self) -> u64 {
        self.tables.iter().map(LshTable::nh).sum()
    }

    /// Draws a uniform pair from the virtual stratum
    /// `S_H^∪ = {(u,v) : ∃i, B_i(u) = B_i(v)}` by multiplicity-rejection:
    /// draw a table proportional to `N_H(i)`, a same-bucket pair within
    /// it, and accept with probability `1/multiplicity`. `None` when every
    /// table has `N_H = 0`.
    pub fn sample_virtual_bucket_pair<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Option<(VectorId, VectorId)> {
        let total = self.sum_nh();
        if total == 0 {
            return None;
        }
        loop {
            // Table ∝ NH(i). ℓ is small (≤ tens); a linear scan is fine
            // and avoids caching an alias table across &self.
            let mut target = rng.below(total);
            let mut chosen = None;
            for t in &self.tables {
                if target < t.nh() {
                    chosen = Some(t);
                    break;
                }
                target -= t.nh();
            }
            let t = chosen.expect("target < total implies a table is chosen");
            let (a, b) = t
                .sample_same_bucket_pair(rng)
                .expect("table with nh > 0 must yield a pair");
            let mult = self.same_bucket_multiplicity(a, b);
            debug_assert!(mult >= 1);
            if mult == 1 || rng.below(mult as u64) == 0 {
                return Some((a, b));
            }
        }
    }

    /// Unbiased estimate of the virtual stratum size
    /// `N_H^∪ = |S_H^∪| = Σ_i N_H(i) · E[1/multiplicity]`, from `samples`
    /// multiset draws. Exact (zero variance) when `ℓ = 1`.
    pub fn estimate_virtual_nh<R: Rng + ?Sized>(&self, rng: &mut R, samples: u64) -> f64 {
        let total = self.sum_nh();
        if total == 0 {
            return 0.0;
        }
        if self.tables.len() == 1 {
            return total as f64;
        }
        assert!(samples > 0, "need at least one sample");
        let mut inv_sum = 0.0f64;
        for _ in 0..samples {
            // Draw from the multiset (no rejection): table ∝ NH, pair in it.
            let mut target = rng.below(total);
            let mut chosen = None;
            for t in &self.tables {
                if target < t.nh() {
                    chosen = Some(t);
                    break;
                }
                target -= t.nh();
            }
            let (a, b) = chosen
                .expect("table chosen")
                .sample_same_bucket_pair(rng)
                .expect("nh > 0");
            inv_sum += 1.0 / self.same_bucket_multiplicity(a, b) as f64;
        }
        total as f64 * inv_sum / samples as f64
    }
}

impl std::fmt::Debug for LshIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshIndex")
            .field("family", &self.family_name)
            .field("k", &self.params.k)
            .field("l", &self.params.l)
            .field("n", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHashFamily;
    use vsj_sampling::Xoshiro256;
    use vsj_vector::SparseVector;

    fn set(members: &[u32]) -> SparseVector {
        SparseVector::binary_from_members(members.to_vec())
    }

    /// Overlapping sets so that different MinHash tables disagree about
    /// which pairs collide.
    fn fuzzy_collection() -> VectorCollection {
        let base: Vec<u32> = (0..12).collect();
        let mut vectors = Vec::new();
        for i in 0..30u32 {
            let mut m = base.clone();
            m.push(100 + i); // one private element each
            if i % 3 == 0 {
                m.push(200 + i);
            }
            vectors.push(set(&m));
        }
        VectorCollection::from_vectors(vectors)
    }

    fn build_minhash_index(k: usize, l: usize, seed: u64) -> (VectorCollection, LshIndex) {
        let coll = fuzzy_collection();
        let idx = LshIndex::build_with_family(
            &coll,
            MinHashFamily::new(),
            LshParams::new(k, l).with_seed(seed).with_threads(1),
        );
        (coll, idx)
    }

    #[test]
    fn params_validation() {
        let p = LshParams::paper_default();
        assert_eq!(p.k, 20);
        assert_eq!(p.l, 1);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        LshParams::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn zero_tables_rejected() {
        LshParams::new(4, 0);
    }

    #[test]
    fn tables_are_distinct() {
        let (_, idx) = build_minhash_index(4, 3, 9);
        assert_eq!(idx.num_tables(), 3);
        // Different tables should induce different bucketings of this
        // fuzzy data (identical bucketings would mean the per-table
        // function namespaces collide).
        let keys0: Vec<u64> = (0..idx.len() as u32)
            .map(|i| idx.table(0).key_of(i))
            .collect();
        let keys1: Vec<u64> = (0..idx.len() as u32)
            .map(|i| idx.table(1).key_of(i))
            .collect();
        assert_ne!(keys0, keys1);
    }

    #[test]
    fn same_bucket_any_is_union_of_tables() {
        let (_, idx) = build_minhash_index(3, 4, 11);
        let n = idx.len() as u32;
        for a in 0..n {
            for b in (a + 1)..n {
                let any = (0..idx.num_tables()).any(|t| idx.table(t).same_bucket(a, b));
                assert_eq!(idx.same_bucket_any(a, b), any);
                assert_eq!(
                    idx.same_bucket_multiplicity(a, b),
                    (0..idx.num_tables())
                        .filter(|&t| idx.table(t).same_bucket(a, b))
                        .count()
                );
            }
        }
    }

    #[test]
    fn virtual_pairs_are_in_union_stratum() {
        let (_, idx) = build_minhash_index(3, 3, 13);
        let mut rng = Xoshiro256::seeded(1);
        for _ in 0..2000 {
            let Some((a, b)) = idx.sample_virtual_bucket_pair(&mut rng) else {
                panic!("virtual stratum unexpectedly empty");
            };
            assert!(idx.same_bucket_any(a, b));
            assert_ne!(a, b);
        }
    }

    #[test]
    fn virtual_pair_sampling_is_uniform_over_union() {
        let (_, idx) = build_minhash_index(2, 3, 17);
        // Enumerate the union stratum exactly.
        let n = idx.len() as u32;
        let mut union_pairs = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if idx.same_bucket_any(a, b) {
                    union_pairs.push((a, b));
                }
            }
        }
        assert!(union_pairs.len() >= 4, "test needs a non-trivial union");
        let mut counts = std::collections::HashMap::new();
        let mut rng = Xoshiro256::seeded(2);
        let trials = 40_000 * union_pairs.len() as u64 / 10;
        for _ in 0..trials {
            let (a, b) = idx.sample_virtual_bucket_pair(&mut rng).unwrap();
            *counts.entry((a.min(b), a.max(b))).or_insert(0u64) += 1;
        }
        let expected = trials as f64 / union_pairs.len() as f64;
        for &pair in &union_pairs {
            let c = counts.get(&pair).copied().unwrap_or(0);
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "pair {pair:?} deviates {dev} (count {c})");
        }
    }

    #[test]
    fn virtual_nh_estimate_matches_enumeration() {
        let (_, idx) = build_minhash_index(2, 3, 19);
        let n = idx.len() as u32;
        let mut exact = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                if idx.same_bucket_any(a, b) {
                    exact += 1;
                }
            }
        }
        let mut rng = Xoshiro256::seeded(3);
        let est = idx.estimate_virtual_nh(&mut rng, 60_000);
        let rel = (est - exact as f64).abs() / exact as f64;
        assert!(rel < 0.05, "estimate {est} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn single_table_virtual_nh_is_exact() {
        let (_, idx) = build_minhash_index(4, 1, 23);
        let mut rng = Xoshiro256::seeded(4);
        assert_eq!(
            idx.estimate_virtual_nh(&mut rng, 1),
            idx.table(0).nh() as f64
        );
    }

    #[test]
    fn empty_union_returns_none() {
        // Fully disjoint sets at high k: no collisions anywhere.
        let coll = VectorCollection::from_vectors(
            (0..6).map(|i| set(&[1000 * i, 1000 * i + 1])).collect(),
        );
        let idx = LshIndex::build_with_family(
            &coll,
            MinHashFamily::new(),
            LshParams::new(24, 2).with_seed(5).with_threads(1),
        );
        let mut rng = Xoshiro256::seeded(5);
        assert_eq!(idx.sum_nh(), 0);
        assert!(idx.sample_virtual_bucket_pair(&mut rng).is_none());
        assert_eq!(idx.estimate_virtual_nh(&mut rng, 10), 0.0);
    }

    #[test]
    fn simhash_default_build_works() {
        let coll = fuzzy_collection();
        let idx = LshIndex::build(&coll, LshParams::new(8, 2).with_seed(1).with_threads(1));
        assert_eq!(idx.family_name(), "simhash");
        assert_eq!(idx.num_tables(), 2);
        assert_eq!(idx.len(), coll.len());
        let dbg = format!("{idx:?}");
        assert!(dbg.contains("simhash"));
    }

    #[test]
    fn rebuild_is_deterministic() {
        let coll = fuzzy_collection();
        let p = LshParams::new(6, 2).with_seed(77).with_threads(1);
        let a = LshIndex::build(&coll, p);
        let b = LshIndex::build(&coll, p);
        for t in 0..2 {
            for id in 0..coll.len() as u32 {
                assert_eq!(a.table(t).key_of(id), b.table(t).key_of(id));
            }
        }
    }
}
