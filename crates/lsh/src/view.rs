//! The index view estimators sample through — and the one place the
//! stratum draws of Algorithm 1 are written.
//!
//! The paper's estimators touch the LSH index through a narrow read
//! surface: the stratum constants (`N_H`, `N_L`, `M`), the composite
//! width `k`, the same-bucket predicate `H`, and the draws SampleH and
//! SampleL. [`IndexView`] names exactly that surface. A backend supplies
//! a handful of *storage primitives* — its size, `N_H`, the alias table
//! over its pair buckets, the members of one pair bucket, `same_bucket`
//! — and inherits the draws as provided methods, so every backend
//! consumes the RNG identically and two views over the same rows return
//! the same pairs by construction:
//!
//! * an owned, offline [`LshTable`](crate::LshTable);
//! * an epoch snapshot published by the `vsj-service` engine, on the
//!   heap or over a memory-mapped checkpoint.
//!
//! Every method takes `&self`: a view is immutable, safe to sample from
//! concurrently without a lock.

use vsj_sampling::{pair_count, sample_distinct_pair, AliasTable, Rng};
use vsj_vector::VectorId;

/// Read surface of a bucket-counted LSH table (one hash table `D_g`).
///
/// Ids are dense: the indexed vectors are `0..len()`. Implementations
/// keep the strata consistent — `nh()` is `Σ_j C(b_j, 2)` over the
/// buckets `same_bucket` induces, and the pair buckets behind
/// [`pair_alias`](Self::pair_alias) are exactly the buckets with
/// `b_j ≥ 2`, in bucket-key order, weighted `C(b_j, 2)`.
pub trait IndexView {
    /// Number of indexed vectors `n`.
    fn len(&self) -> usize;

    /// True when no vector is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pairs `M = C(n, 2)`.
    fn total_pairs(&self) -> u64 {
        pair_count(self.len() as u64)
    }

    /// `N_H = Σ_j C(b_j, 2)` — pairs sharing a bucket.
    fn nh(&self) -> u64;

    /// `N_L = M − N_H` — pairs in different buckets.
    fn nl(&self) -> u64 {
        self.total_pairs() - self.nh()
    }

    /// Number of hash functions `k` composed into the bucket key.
    fn k(&self) -> usize;

    /// Whether two indexed vectors share a bucket — the event `H`.
    fn same_bucket(&self, a: VectorId, b: VectorId) -> bool;

    /// Storage primitive: the alias table over the pair buckets, one
    /// column per bucket with `b_j ≥ 2`, key-ascending, weight
    /// `C(b_j, 2)`. `None` when `N_H = 0`.
    fn pair_alias(&self) -> Option<&AliasTable>;

    /// Storage primitive: looks up pair bucket `col` (a column of
    /// [`pair_alias`](Self::pair_alias)), hands its count `b_j` to
    /// `pick`, and returns the members at the two positions `pick`
    /// chose (members are in ascending id order). One call per draw, so
    /// a backend resolves the bucket once, not once per member.
    fn pair_bucket_pick(
        &self,
        col: usize,
        pick: impl FnOnce(usize) -> (usize, usize),
    ) -> (VectorId, VectorId);

    /// Uniform pair from stratum `S_H`: a bucket with probability
    /// `C(b_j, 2)/N_H`, then a uniform distinct pair within it
    /// (Algorithm 1, SampleH lines 3–4). `None` when `N_H = 0`.
    fn sample_same_bucket_pair<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Option<(VectorId, VectorId)> {
        let alias = self.pair_alias()?;
        Some(self.pair_bucket_pick(alias.sample(rng), |b| {
            debug_assert!(b >= 2);
            let i = rng.below_usize(b);
            let mut j = rng.below_usize(b - 1);
            if j >= i {
                j += 1;
            }
            (i, j)
        }))
    }

    /// Uniform pair from stratum `S_L` by rejection from the full pair
    /// population (SampleL line 3). `None` when `N_L = 0`.
    ///
    /// Expected draws per sample is `M / N_L`; for any useful `k` this is
    /// ≈ 1 because `N_H ≪ M`.
    fn sample_cross_bucket_pair<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Option<(VectorId, VectorId)> {
        if self.nl() == 0 {
            return None;
        }
        loop {
            let (a, b, same) = self.sample_any_pair(rng);
            if !same {
                return Some((a, b));
            }
        }
    }

    /// Uniform pair from the full population plus its stratum flag —
    /// for estimators that classify rather than reject.
    fn sample_any_pair<R: Rng + ?Sized>(&self, rng: &mut R) -> (VectorId, VectorId, bool) {
        let (i, j) = sample_distinct_pair(rng, self.len() as u64);
        let (i, j) = (i as VectorId, j as VectorId);
        (i, j, self.same_bucket(i, j))
    }
}

impl<V: IndexView + ?Sized> IndexView for &V {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn nh(&self) -> u64 {
        (**self).nh()
    }

    fn k(&self) -> usize {
        (**self).k()
    }

    fn same_bucket(&self, a: VectorId, b: VectorId) -> bool {
        (**self).same_bucket(a, b)
    }

    fn pair_alias(&self) -> Option<&AliasTable> {
        (**self).pair_alias()
    }

    fn pair_bucket_pick(
        &self,
        col: usize,
        pick: impl FnOnce(usize) -> (usize, usize),
    ) -> (VectorId, VectorId) {
        (**self).pair_bucket_pick(col, pick)
    }
}
