//! A single LSH table `D_g` with bucket counts — §4.1.1 of the paper.
//!
//! The paper's extension over a vanilla LSH table is tiny but essential:
//! each bucket `B_j` carries its member count `b_j`, from which the table
//! exposes
//!
//! * `N_H = Σ_j C(b_j, 2)` — the number of *same-bucket pairs*, an exact
//!   constant of the table (not an estimate);
//! * the storage primitives of [`IndexView`] — the alias table over the
//!   pair buckets with `weight(B_j) = C(b_j, 2)` and their member lists
//!   — from which the view's provided methods draw a uniform pair from
//!   stratum `S_H` (SampleH, Algorithm 1 lines 3–4) or, by rejection,
//!   from stratum `S_L` (SampleL line 3).
//!
//! Construction hashes all vectors as one batch on a work pool (the
//! only data-parallel step; grouping is one sort).
//!
//! # One frozen table
//!
//! A table is built — [`LshTable::build`], [`LshTable::from_parts`],
//! [`LshTable::from_parts_delta`], [`LshTable::from_slab`] — and never
//! mutated: ids are dense (`0..len`), buckets enumerate key-ascending,
//! the sampler is a plain field read without a lock. Growing an index
//! means building the next table from the previous one plus the
//! appended keys; removing rows means rebuilding from the surviving
//! keys (the service's write side keeps rows, not a table, for exactly
//! that reason).
//!
//! Buckets live in one [`BucketSlab`]: the keys ascending, a `u32`
//! offset per bucket and every member id in one array, id-ascending
//! within a bucket — the `BKTK`/`BOFF`/`BMEM` sections of a checkpoint.
//! Each pair bucket (`b_j ≥ 2`) is one alias column holding its member
//! range, so a SampleH draw reads the column's range and then the two
//! members. The slab, not the table, owns those columns, `N_H` and the
//! alias table: the mapped tier and heap recovery build their slabs
//! from buckets that are already grouped ([`BucketSlab::from_grouped`])
//! and index them by the same code.
//!
//! # Incremental (epoch) construction
//!
//! [`LshTable::from_parts_delta`] merges the previous epoch's slab with
//! the sorted appended keys in one linear pass. Appended ids are larger
//! than every existing id, so a touched bucket is its old members
//! followed by its new ones, and the merged slab equals the one a batch
//! grouping of all keys yields, array for array. The pass copies
//! 4 bytes per indexed row plus 12 per bucket — the same O(n) class as
//! the row-key copy and the alias rebuild a publish already does — and
//! hashes and regroups nothing.

use std::ops::Range;
use std::sync::Arc;

use crate::family::BucketHasher;
use crate::view::IndexView;
use vsj_pool::WorkPool;
use vsj_sampling::AliasTable;
use vsj_vector::{pairs_of, SparseVector, VectorCollection, VectorId};

/// One bucket: its folded key and the ids of its members, borrowed from
/// the table's [`BucketSlab`]. The paper's bucket count `b_j` is
/// `members.len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket<'a> {
    /// Folded `g`-value identifying the bucket.
    pub key: u64,
    /// Ids of the vectors hashed here, ascending.
    pub members: &'a [VectorId],
}

impl Bucket<'_> {
    /// The bucket count `b_j`.
    #[inline]
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Same-bucket pairs contributed by this bucket: `C(b_j, 2)`.
    #[inline]
    pub fn pair_weight(&self) -> u64 {
        pairs_of(self.members.len() as u64)
    }
}

/// Ids grouped by bucket key in three flat arrays — the checkpoint's
/// `BKTK`/`BOFF`/`BMEM` shape — and the §4.1.1 extension over them.
/// Bucket `j` has key `keys[j]` (strictly ascending) and members
/// `members[offsets[j]..offsets[j + 1]]` (ascending ids). The slab
/// answers the [`IndexView`] storage primitives `nh`, `pair_alias` and
/// `pair_bucket_pick` for both storage tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSlab {
    keys: Vec<u64>,
    offsets: Vec<u32>,
    members: Vec<VectorId>,
    /// Member range of each pair bucket, key-ascending: column `c` of
    /// `alias`.
    pairs: Vec<(u32, u32)>,
    /// `N_H = Σ_j C(b_j, 2)`.
    nh: u64,
    /// Alias table over `pairs` with `weight(B_j) = C(b_j, 2)`; `None`
    /// when no bucket holds ≥ 2 vectors.
    alias: Option<AliasTable>,
}

impl BucketSlab {
    /// Groups ids `0..vector_keys.len()` by their keys with one sort.
    ///
    /// # Panics
    /// Panics when the ids do not fit a `u32`.
    pub fn group(vector_keys: &[u64]) -> Self {
        Self::with_capacity(0).close().merged(0, vector_keys)
    }

    /// The slab of buckets that are already grouped: `keys` strictly
    /// ascending, `offsets` one per bucket plus the end of `members`,
    /// each bucket's members non-empty and ascending. Every slab ends
    /// here, which builds its pair columns, `N_H` and alias table;
    /// nothing is sorted or copied.
    ///
    /// # Panics
    /// Panics when `offsets` does not run from 0 to `members.len()` with
    /// one entry per bucket plus one.
    pub fn from_grouped(keys: Vec<u64>, offsets: Vec<u32>, members: Vec<VectorId>) -> Self {
        assert!(
            offsets.len() == keys.len() + 1
                && offsets[0] == 0
                && offsets[keys.len()] as usize == members.len(),
            "one offset per bucket plus the end of the members"
        );
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1])
                && offsets.windows(2).all(|w| {
                    w[0] < w[1] && members[w[0] as usize..w[1] as usize].is_sorted_by(|a, b| a < b)
                }),
            "keys ascending, buckets non-empty, members ascending"
        );
        let pair_buckets = || offsets.windows(2).filter(|w| w[1] - w[0] >= 2);
        let mut pairs = Vec::with_capacity(pair_buckets().count());
        pairs.extend(pair_buckets().map(|w| (w[0], w[1])));
        let weight = |&(start, end): &(u32, u32)| pairs_of(u64::from(end - start));
        let nh = pairs.iter().map(weight).sum();
        let alias = (!pairs.is_empty()).then(|| {
            AliasTable::from_weights(pairs.iter().map(|p| weight(p) as f64))
                .expect("positive C(b,2) weights")
        });
        Self {
            keys,
            offsets,
            members,
            pairs,
            nh,
            alias,
        }
    }

    /// This slab with ids `first..` (all larger than every id here)
    /// keyed by `new_keys` merged in: one linear pass that bulk-copies
    /// the stretches of buckets the delta does not touch.
    fn merged(&self, first: VectorId, new_keys: &[u64]) -> Self {
        let end =
            VectorId::try_from(first as usize + new_keys.len()).expect("table exceeds u32 ids");
        let delta = sorted_by_key(new_keys, first..end);
        let mut slab = Self::with_capacity(self.members.len() + delta.len());
        let mut next = 0usize;
        for group in delta.chunk_by(|a, b| a.0 == b.0) {
            let key = group[0].0;
            let at = next + self.keys[next..].partition_point(|&k| k < key);
            let hit = self.keys.get(at) == Some(&key);
            let end = at + usize::from(hit);
            slab.copy_buckets(self, next..end);
            if !hit {
                slab.open(key);
            }
            slab.members.extend(group.iter().map(|&(_, id)| id));
            next = end;
        }
        slab.copy_buckets(self, next..self.keys.len());
        slab.close()
    }

    /// An empty slab to append buckets to in key order.
    fn with_capacity(members: usize) -> Self {
        Self {
            keys: Vec::new(),
            offsets: Vec::new(),
            members: Vec::with_capacity(members),
            pairs: Vec::new(),
            nh: 0,
            alias: None,
        }
    }

    /// Starts bucket `key` at the current end of `members`.
    fn open(&mut self, key: u64) {
        self.keys.push(key);
        self.offsets.push(self.members.len() as u32);
    }

    /// Appends `from`'s buckets `range` whole.
    fn copy_buckets(&mut self, from: &Self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let members = from.offsets[range.start] as usize..from.offsets[range.end] as usize;
        // Everything before `range` in `from` is already here.
        let shift = self.members.len() as u32 - from.offsets[range.start];
        self.keys.extend_from_slice(&from.keys[range.clone()]);
        self.offsets
            .extend(from.offsets[range].iter().map(|&o| o + shift));
        self.members.extend_from_slice(&from.members[members]);
    }

    /// Ends the last bucket and indexes the slab.
    fn close(mut self) -> Self {
        self.offsets.push(self.members.len() as u32);
        Self::from_grouped(self.keys, self.offsets, self.members)
    }

    /// Bucket keys, strictly ascending (`BKTK`).
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Member offsets, one per bucket plus the end (`BOFF`).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Member ids, bucket by bucket (`BMEM`).
    #[inline]
    pub fn members(&self) -> &[VectorId] {
        &self.members
    }

    /// `N_H = Σ_j C(b_j, 2)` — pairs in the same bucket.
    #[inline]
    pub fn nh(&self) -> u64 {
        self.nh
    }

    /// See [`IndexView::pair_alias`].
    #[inline]
    pub fn pair_alias(&self) -> Option<&AliasTable> {
        self.alias.as_ref()
    }

    /// See [`IndexView::pair_bucket_pick`]: one range read, then the
    /// two member reads.
    #[inline]
    pub fn pair_bucket_pick(
        &self,
        col: usize,
        pick: impl FnOnce(usize) -> (usize, usize),
    ) -> (VectorId, VectorId) {
        let (start, end) = self.pairs[col];
        let members = &self.members[start as usize..end as usize];
        let (i, j) = pick(members.len());
        (members[i], members[j])
    }

    /// Bucket `j`.
    #[inline]
    fn bucket(&self, j: usize) -> Bucket<'_> {
        Bucket {
            key: self.keys[j],
            members: &self.members[self.offsets[j] as usize..self.offsets[j + 1] as usize],
        }
    }
}

/// `(key, id)` pairs sorted by key, ids ascending within a key.
fn sorted_by_key(keys: &[u64], ids: Range<VectorId>) -> Vec<(u64, VectorId)> {
    let mut pairs: Vec<(u64, VectorId)> = keys.iter().copied().zip(ids).collect();
    pairs.sort_unstable();
    pairs
}

/// A bucket-counted LSH table over a vector collection: the hasher, the
/// bucket key of every row and the [`BucketSlab`] grouping them.
pub struct LshTable {
    hasher: Arc<dyn BucketHasher>,
    /// Bucket key of each vector id — O(1) `B(v)` lookup without
    /// re-hashing the vector.
    vector_keys: Vec<u64>,
    /// The buckets, key-ascending, with their pair columns and sampler.
    slab: BucketSlab,
}

impl LshTable {
    /// Builds the table, hashing the vectors as one batch
    /// ([`BucketHasher::keys`]) on a work pool sized by `threads`
    /// (`None` = the process-wide [`vsj_pool::global`] pool, `Some(1)`
    /// = fully serial). Batch keys are exactly the per-vector keys, so
    /// the table is bit-identical at any thread count.
    pub fn build(
        collection: &VectorCollection,
        hasher: Arc<dyn BucketHasher>,
        threads: Option<usize>,
    ) -> Self {
        let local;
        let pool = match threads {
            None => vsj_pool::global(),
            Some(n) => {
                local = WorkPool::new(n);
                &local
            }
        };
        let rows: Vec<&SparseVector> = collection.vectors().iter().collect();
        let vector_keys = hasher.keys(&rows, pool);
        Self::from_parts(hasher, vector_keys)
    }

    /// Builds the table from *precomputed* bucket keys (the service
    /// hashes once, at ingest): one O(n log n) grouping sort, no hash
    /// evaluations. [`LshTable::build`] ends here, so the result equals
    /// it over vectors hashing to `vector_keys`, draw for draw.
    pub fn from_parts(hasher: Arc<dyn BucketHasher>, vector_keys: Vec<u64>) -> Self {
        let slab = BucketSlab::group(&vector_keys);
        Self::from_slab(hasher, vector_keys, slab)
    }

    /// Builds the table for `prev`'s keys followed by `new_keys` — the
    /// **incremental epoch path**: `prev`'s slab and the sorted new keys
    /// are merged in one linear pass, with no re-hashing and no
    /// regrouping of the `n` existing keys. The result equals
    /// [`LshTable::from_parts`] over the concatenated keys slab for slab
    /// (pinned by tests), so epochs publish incrementally with estimates
    /// bit-identical to a full merge.
    ///
    /// # Panics
    /// Panics when the id space would overflow `u32`.
    pub fn from_parts_delta(prev: &Self, new_keys: &[u64]) -> Self {
        let first = VectorId::try_from(prev.len()).expect("table exceeds u32 ids");
        let slab = prev.slab.merged(first, new_keys);
        let mut vector_keys = Vec::with_capacity(prev.len() + new_keys.len());
        vector_keys.extend_from_slice(&prev.vector_keys);
        vector_keys.extend_from_slice(new_keys);
        Self::from_slab(prev.hasher.clone(), vector_keys, slab)
    }

    /// The table over `vector_keys` whose buckets `slab` already groups
    /// ([`BucketSlab::group`] of `vector_keys`): heap recovery's path,
    /// with the slab copied out of a validated checkpoint, not sorted.
    pub fn from_slab(
        hasher: Arc<dyn BucketHasher>,
        vector_keys: Vec<u64>,
        slab: BucketSlab,
    ) -> Self {
        debug_assert_eq!(slab.members.len(), vector_keys.len(), "one member per row");
        Self {
            hasher,
            vector_keys,
            slab,
        }
    }

    /// Number of indexed vectors `n` (ids are `0..n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.vector_keys.len()
    }

    /// True when no vector is indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vector_keys.is_empty()
    }

    /// Number of buckets `n_g` (only non-empty buckets are stored).
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.slab.keys.len()
    }

    /// `N_H = Σ_j C(b_j, 2)` — pairs in the same bucket.
    #[inline]
    pub fn nh(&self) -> u64 {
        self.slab.nh
    }

    /// The composite hasher `g` of this table.
    #[inline]
    pub fn hasher(&self) -> &Arc<dyn BucketHasher> {
        &self.hasher
    }

    /// The buckets as one key-ordered slab — what a checkpoint writes
    /// as its `BKTK`/`BOFF`/`BMEM` sections.
    #[inline]
    pub fn slab(&self) -> &BucketSlab {
        &self.slab
    }

    /// Serializes the table to its parts: the bucket key of every
    /// vector in id order. The inverse of [`LshTable::from_parts`] —
    /// `from_parts(hasher, t.to_parts())` reproduces a table with
    /// identical buckets, `N_H`, and sampling behavior.
    pub fn to_parts(&self) -> Vec<u64> {
        self.vector_keys.clone()
    }

    /// Bucket key of an indexed vector (`B(v)` of the paper).
    #[inline]
    pub fn key_of(&self, id: VectorId) -> u64 {
        self.vector_keys[id as usize]
    }

    /// Whether two indexed vectors share a bucket — the event `H`.
    #[inline]
    pub fn same_bucket(&self, a: VectorId, b: VectorId) -> bool {
        self.vector_keys[a as usize] == self.vector_keys[b as usize]
    }

    /// The bucket with the given key, if present (the "standard
    /// hashing" of §4.1: only existing buckets are stored).
    pub fn bucket_by_key(&self, key: u64) -> Option<Bucket<'_>> {
        let j = self.slab.keys.binary_search(&key).ok()?;
        Some(self.slab.bucket(j))
    }

    /// All buckets, key-ascending.
    pub fn buckets(&self) -> impl Iterator<Item = Bucket<'_>> {
        (0..self.num_buckets()).map(|j| self.slab.bucket(j))
    }

    /// Bucket count `b_j` for a key (0 when the bucket does not exist).
    pub fn bucket_count(&self, key: u64) -> usize {
        self.bucket_by_key(key).map_or(0, |b| b.count())
    }
}

/// The table's storage primitives are its slab's; the stratum draws are
/// the view's provided methods.
impl IndexView for LshTable {
    #[inline]
    fn len(&self) -> usize {
        LshTable::len(self)
    }

    #[inline]
    fn nh(&self) -> u64 {
        self.slab.nh
    }

    #[inline]
    fn k(&self) -> usize {
        self.hasher.k()
    }

    #[inline]
    fn same_bucket(&self, a: VectorId, b: VectorId) -> bool {
        LshTable::same_bucket(self, a, b)
    }

    #[inline]
    fn pair_alias(&self) -> Option<&AliasTable> {
        self.slab.pair_alias()
    }

    #[inline]
    fn pair_bucket_pick(
        &self,
        col: usize,
        pick: impl FnOnce(usize) -> (usize, usize),
    ) -> (VectorId, VectorId) {
        self.slab.pair_bucket_pick(col, pick)
    }
}

impl std::fmt::Debug for LshTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshTable")
            .field("n", &self.len())
            .field("k", &self.hasher.k())
            .field("family", &self.hasher.family_name())
            .field("buckets", &self.num_buckets())
            .field("nh", &self.slab.nh)
            .finish()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHashFamily;
    use crate::signature::Composite;
    use crate::simhash::SimHashFamily;
    use std::collections::HashMap;
    use vsj_sampling::{Rng, Xoshiro256};
    use vsj_vector::SparseVector;

    fn set(members: &[u32]) -> SparseVector {
        SparseVector::binary_from_members(members.to_vec())
    }

    /// Three exact-duplicate groups of sizes 3, 2, 1 — with MinHash these
    /// hash identically, giving a fully predictable table.
    fn clustered_collection() -> VectorCollection {
        VectorCollection::from_vectors(vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 3]),
            set(&[1, 2, 3]),
            set(&[10, 20]),
            set(&[10, 20]),
            set(&[500, 600, 700]),
        ])
    }

    fn minhash_table(coll: &VectorCollection, k: usize) -> LshTable {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 42, 0, k));
        LshTable::build(coll, hasher, Some(1))
    }

    #[test]
    fn duplicates_share_buckets_nh_exact() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        // Duplicate groups must collide; distinct sets at k=16 essentially
        // never collide.
        assert!(t.same_bucket(0, 1));
        assert!(t.same_bucket(1, 2));
        assert!(t.same_bucket(3, 4));
        assert!(!t.same_bucket(0, 3));
        assert!(!t.same_bucket(0, 5));
        // NH = C(3,2) + C(2,2)... = 3 + 1 = 4.
        assert_eq!(t.nh(), 4);
        assert_eq!(t.total_pairs(), 15);
        assert_eq!(t.nl(), 11);
        assert_eq!(t.num_buckets(), 3);
    }

    #[test]
    fn bucket_counts_accessible_by_key() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let key = t.key_of(0);
        assert_eq!(t.bucket_count(key), 3);
        let b = t.bucket_by_key(key).unwrap();
        assert_eq!(b.pair_weight(), 3);
        assert_eq!(b.members, [0, 1, 2]);
        assert_eq!(t.bucket_count(key ^ 0xFFFF), 0);
    }

    #[test]
    fn same_bucket_pair_sampling_is_pair_uniform() {
        // Stratum SH has 4 pairs: (0,1),(0,2),(1,2),(3,4). Each must be
        // drawn with probability 1/4 (bucket weighted C(b,2), pair uniform
        // within bucket).
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let mut rng = Xoshiro256::seeded(1);
        let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
        let trials = 80_000;
        for _ in 0..trials {
            let (a, b) = t.sample_same_bucket_pair(&mut rng).unwrap();
            assert!(t.same_bucket(a, b));
            assert_ne!(a, b);
            let key = (a.min(b), a.max(b));
            *counts.entry(key).or_default() += 1;
        }
        assert_eq!(counts.len(), 4, "expected exactly 4 same-bucket pairs");
        for (pair, c) in counts {
            let frac = c as f64 / trials as f64;
            assert!((frac - 0.25).abs() < 0.01, "pair {pair:?} frequency {frac}");
        }
    }

    #[test]
    fn cross_bucket_pairs_never_collide() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let mut rng = Xoshiro256::seeded(2);
        for _ in 0..5000 {
            let (a, b) = t.sample_cross_bucket_pair(&mut rng).unwrap();
            assert!(!t.same_bucket(a, b));
            assert_ne!(a, b);
        }
    }

    #[test]
    fn cross_bucket_sampling_is_uniform_over_sl() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let mut rng = Xoshiro256::seeded(3);
        let mut counts: HashMap<(u32, u32), u64> = HashMap::new();
        let trials = 110_000;
        for _ in 0..trials {
            let (a, b) = t.sample_cross_bucket_pair(&mut rng).unwrap();
            *counts.entry((a.min(b), a.max(b))).or_default() += 1;
        }
        assert_eq!(counts.len() as u64, t.nl());
        let expected = trials as f64 / t.nl() as f64;
        for (pair, c) in counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "pair {pair:?} deviates {dev}");
        }
    }

    #[test]
    fn sample_any_pair_classification_matches_table() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let mut rng = Xoshiro256::seeded(4);
        let mut same = 0u64;
        let trials = 60_000u64;
        for _ in 0..trials {
            let (a, b, in_same) = t.sample_any_pair(&mut rng);
            assert_eq!(in_same, t.same_bucket(a, b));
            same += u64::from(in_same);
        }
        // P(H) = NH/M = 4/15.
        let rate = same as f64 / trials as f64;
        assert!((rate - 4.0 / 15.0).abs() < 0.01, "P(H) = {rate}");
    }

    #[test]
    fn all_identical_vectors_have_no_stratum_l() {
        let coll = VectorCollection::from_vectors(vec![set(&[1]); 4]);
        let t = minhash_table(&coll, 8);
        assert_eq!(t.nh(), 6);
        assert_eq!(t.nl(), 0);
        let mut rng = Xoshiro256::seeded(5);
        assert!(t.sample_cross_bucket_pair(&mut rng).is_none());
        assert!(t.sample_same_bucket_pair(&mut rng).is_some());
    }

    #[test]
    fn all_distinct_vectors_have_no_stratum_h() {
        // At k=32 MinHash, pairwise-disjoint sets never collide.
        let coll =
            VectorCollection::from_vectors((0..8).map(|i| set(&[i * 10, i * 10 + 1])).collect());
        let t = minhash_table(&coll, 32);
        assert_eq!(t.nh(), 0);
        assert_eq!(t.num_buckets(), 8);
        let mut rng = Xoshiro256::seeded(6);
        assert!(t.sample_same_bucket_pair(&mut rng).is_none());
        assert!(t.sample_cross_bucket_pair(&mut rng).is_some());
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // 2000 random-ish sets, both thread counts must agree exactly.
        let coll = VectorCollection::from_vectors(
            (0..2000u32)
                .map(|i| set(&[i % 37, (i * 7) % 37, (i * 13) % 37]))
                .collect(),
        );
        let hasher = || Arc::new(Composite::derive(SimHashFamily::new(), 9, 0, 12));
        let seq = LshTable::build(&coll, hasher(), Some(1));
        let par = LshTable::build(&coll, hasher(), Some(4));
        assert_eq!(seq.nh(), par.nh());
        assert_eq!(seq.num_buckets(), par.num_buckets());
        for id in 0..coll.len() as u32 {
            assert_eq!(seq.key_of(id), par.key_of(id));
        }
    }

    #[test]
    fn simhash_table_groups_similar_vectors() {
        // Two tight direction clusters; with k=4 bits the clusters should
        // produce large same-bucket mass across the cluster members.
        let mut vectors = Vec::new();
        for i in 0..20 {
            // Cluster A around dimension 0; tiny per-vector noise dim.
            vectors.push(SparseVector::from_entries(vec![(0, 10.0), (100 + i, 0.1)]).unwrap());
            // Cluster B around dimension 1.
            vectors.push(SparseVector::from_entries(vec![(1, 10.0), (200 + i, 0.1)]).unwrap());
        }
        let coll = VectorCollection::from_vectors(vectors);
        let hasher = Arc::new(Composite::derive(SimHashFamily::new(), 3, 0, 4));
        let t = LshTable::build(&coll, hasher, Some(1));
        // Within-cluster pairs in same bucket should far outnumber
        // cross-cluster ones.
        let (mut within_same, mut cross_same) = (0u64, 0u64);
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                if t.same_bucket(a, b) {
                    if a % 2 == b % 2 {
                        within_same += 1;
                    } else {
                        cross_same += 1;
                    }
                }
            }
        }
        assert!(
            within_same > 5 * cross_same.max(1),
            "within {within_same} vs cross {cross_same}"
        );
    }

    #[test]
    fn debug_output_mentions_family() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 8);
        let s = format!("{t:?}");
        assert!(s.contains("minhash"), "{s}");
    }

    #[test]
    fn pair_count_twins_agree() {
        // `vsj_vector::pairs_of` and `vsj_sampling::pair_count` are
        // deliberate dependency-free twins; this crate sees both, so pin
        // their agreement here (divergence would skew M vs. N_L).
        for n in (0..2000u64).chain([1 << 20, 1 << 32, 794_016]) {
            assert_eq!(pairs_of(n), vsj_sampling::pair_count(n), "n = {n}");
        }
    }

    #[test]
    fn from_parts_matches_build() {
        let coll = VectorCollection::from_vectors(
            (0..500u32)
                .map(|i| set(&[i % 23, (i * 5) % 23, (i * 11) % 23]))
                .collect(),
        );
        let hasher = || Arc::new(Composite::derive(SimHashFamily::new(), 17, 0, 10));
        let built = LshTable::build(&coll, hasher(), Some(1));
        let keys: Vec<u64> = (0..coll.len() as u32).map(|id| built.key_of(id)).collect();
        let assembled = LshTable::from_parts(hasher(), keys);
        assert_eq!(assembled.nh(), built.nh());
        assert_eq!(assembled.num_buckets(), built.num_buckets());
        assert_eq!(assembled.len(), built.len());
        for id in 0..coll.len() as u32 {
            assert_eq!(assembled.key_of(id), built.key_of(id));
        }
        // Identical RNG stream ⇒ identical sample sequence: the two
        // construction paths are observationally equivalent.
        let mut r1 = Xoshiro256::seeded(3);
        let mut r2 = Xoshiro256::seeded(3);
        for _ in 0..500 {
            assert_eq!(
                built.sample_same_bucket_pair(&mut r1),
                assembled.sample_same_bucket_pair(&mut r2)
            );
            assert_eq!(
                built.sample_cross_bucket_pair(&mut r1),
                assembled.sample_cross_bucket_pair(&mut r2)
            );
        }
    }

    #[test]
    fn to_parts_round_trips_through_from_parts() {
        let coll = clustered_collection();
        let t = minhash_table(&coll, 16);
        let parts = t.to_parts();
        assert_eq!(parts.len(), t.len());
        for (id, &key) in parts.iter().enumerate() {
            assert_eq!(key, t.key_of(id as VectorId));
        }
    }

    // ---- incremental (delta) construction ---------------------------------

    /// Asserts full equivalence: statistics, per-id keys, the frozen
    /// arrays (slab and pair columns), key-ordered bucket enumeration,
    /// and the sampling streams.
    fn assert_tables_equivalent(a: &LshTable, b: &LshTable, context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: len");
        assert_eq!(a.nh(), b.nh(), "{context}: nh");
        assert_eq!(a.num_buckets(), b.num_buckets(), "{context}: buckets");
        for id in 0..a.len() as u32 {
            assert_eq!(a.key_of(id), b.key_of(id), "{context}: key of {id}");
        }
        assert_eq!(a.slab, b.slab, "{context}: bucket slab");
        assert_eq!(a.slab.pairs, b.slab.pairs, "{context}: pair columns");
        assert!(a.buckets().eq(b.buckets()), "{context}: enumeration order");
        let mut r1 = Xoshiro256::seeded(0xD3);
        let mut r2 = Xoshiro256::seeded(0xD3);
        for _ in 0..400 {
            assert_eq!(
                a.sample_same_bucket_pair(&mut r1),
                b.sample_same_bucket_pair(&mut r2),
                "{context}: SH stream"
            );
            assert_eq!(
                a.sample_cross_bucket_pair(&mut r1),
                b.sample_cross_bucket_pair(&mut r2),
                "{context}: SL stream"
            );
            assert_eq!(
                a.sample_any_pair(&mut r1),
                b.sample_any_pair(&mut r2),
                "{context}: any stream"
            );
        }
    }

    /// Skewed key sequence: plenty of bucket collisions plus fresh keys.
    fn key_sequence(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n)
            .map(|_| {
                if rng.below(3) == 0 {
                    rng.below(20) // hot keys: multi-member buckets
                } else {
                    0x1000 + rng.below(2 * n.max(1) as u64) // mostly-unique tail
                }
            })
            .collect()
    }

    #[test]
    fn from_parts_delta_matches_batch_from_parts() {
        let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), 1, 0, 8));
        let keys = key_sequence(600, 41);
        for split in [0, 1, 250, 599, 600] {
            let base = LshTable::from_parts(hasher(), keys[..split].to_vec());
            let delta = LshTable::from_parts_delta(&base, &keys[split..]);
            let batch = LshTable::from_parts(hasher(), keys.clone());
            assert_tables_equivalent(&delta, &batch, &format!("split {split}"));
        }
    }

    #[test]
    fn chained_deltas_match_batch_build() {
        // Epoch after epoch of appends — the service's publish cadence.
        let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), 7, 0, 8));
        let keys = key_sequence(500, 43);
        let mut table = LshTable::from_parts(hasher(), Vec::new());
        for chunk in keys.chunks(7) {
            table = LshTable::from_parts_delta(&table, chunk);
        }
        let batch = LshTable::from_parts(hasher(), keys);
        assert_tables_equivalent(&table, &batch, "chained deltas");
    }

    #[test]
    fn delta_slab_equals_batch_slab() {
        let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), 3, 0, 8));
        let base = LshTable::from_parts(hasher(), vec![10, 20, 20, 30, 30, 30]);
        // Delta touches key 20 and creates key 40; 10 and 30 untouched.
        let next = LshTable::from_parts_delta(&base, &[20, 40]);
        assert_eq!(next.slab.keys(), [10, 20, 30, 40]);
        assert_eq!(next.slab.offsets(), [0, 1, 4, 7, 8]);
        assert_eq!(next.slab.members(), [0, 1, 2, 6, 3, 4, 5, 7]);
        // Pair columns: bucket 20's and bucket 30's member ranges.
        assert_eq!(next.slab.pairs, [(1, 4), (4, 7)]);
        let batch = LshTable::from_parts(hasher(), vec![10, 20, 20, 30, 30, 30, 20, 40]);
        assert_eq!(next.slab, batch.slab);
        assert_eq!(next.slab.pairs, batch.slab.pairs);
        // The base epoch is frozen: its bucket 20 still has two members.
        assert_eq!(base.bucket_count(20), 2);
        assert_eq!(next.bucket_count(20), 3);
        assert_eq!(next.nh(), base.nh() + 2); // +2 pairs in bucket 20
    }

    #[test]
    fn delta_weaves_new_buckets_into_key_order() {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 5, 0, 8));
        let base = LshTable::from_parts(hasher, vec![10, 30, 50]);
        // New keys land before, between, and after the existing ones.
        let next = LshTable::from_parts_delta(&base, &[40, 5, 60, 20]);
        let enumerated: Vec<u64> = next.buckets().map(|b| b.key).collect();
        assert_eq!(enumerated, vec![5, 10, 20, 30, 40, 50, 60]);
        // Key lookups binary-search the merged keys.
        for key in [5, 10, 20, 30, 40, 50, 60] {
            assert_eq!(next.bucket_count(key), 1, "key {key}");
        }
        assert_eq!(next.bucket_count(25), 0);
    }

    #[test]
    fn empty_delta_is_identity() {
        let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), 9, 0, 8));
        let base = LshTable::from_parts(hasher(), key_sequence(120, 47));
        let same = LshTable::from_parts_delta(&base, &[]);
        assert_tables_equivalent(&same, &base, "empty delta");
    }

    mod delta_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Any split of any key sequence: delta == batch, the frozen
            /// arrays and the sampling streams alike.
            #[test]
            fn delta_equals_batch_everywhere(
                n in 0usize..300,
                split_frac in 0.0f64..1.0,
                seed in 0u64..1000,
            ) {
                let keys = key_sequence(n, seed);
                let split = ((n as f64) * split_frac) as usize;
                let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), seed, 0, 8));
                let base = LshTable::from_parts(hasher(), keys[..split].to_vec());
                let delta = LshTable::from_parts_delta(&base, &keys[split..]);
                let batch = LshTable::from_parts(hasher(), keys.clone());
                prop_assert_eq!(delta.nh(), batch.nh());
                prop_assert_eq!(&delta.slab, &batch.slab);
                prop_assert_eq!(&delta.slab.pairs, &batch.slab.pairs);
                let mut r1 = Xoshiro256::seeded(seed ^ 0xA5A5);
                let mut r2 = Xoshiro256::seeded(seed ^ 0xA5A5);
                for _ in 0..60 {
                    prop_assert_eq!(
                        delta.sample_same_bucket_pair(&mut r1),
                        batch.sample_same_bucket_pair(&mut r2)
                    );
                    prop_assert_eq!(
                        delta.sample_cross_bucket_pair(&mut r1),
                        batch.sample_cross_bucket_pair(&mut r2)
                    );
                }
            }

            /// Chains of deltas stay equal to one batch build, the frozen
            /// arrays and the sampling stream alike.
            #[test]
            fn delta_chains_equal_batch(
                n in 0usize..240,
                chunk in 1usize..12,
                seed in 0u64..500,
            ) {
                let keys = key_sequence(n, seed);
                let hasher = || Arc::new(Composite::derive(MinHashFamily::new(), seed, 0, 8));
                let mut table = LshTable::from_parts(hasher(), Vec::new());
                for c in keys.chunks(chunk) {
                    table = LshTable::from_parts_delta(&table, c);
                }
                let batch = LshTable::from_parts(hasher(), keys.clone());
                prop_assert_eq!(table.nh(), batch.nh());
                prop_assert_eq!(&table.slab, &batch.slab);
                prop_assert_eq!(&table.slab.pairs, &batch.slab.pairs);
                let mut r1 = Xoshiro256::seeded(seed ^ 0x77);
                let mut r2 = Xoshiro256::seeded(seed ^ 0x77);
                for _ in 0..40 {
                    prop_assert_eq!(
                        table.sample_same_bucket_pair(&mut r1),
                        batch.sample_same_bucket_pair(&mut r2)
                    );
                }
            }
        }
    }
}
