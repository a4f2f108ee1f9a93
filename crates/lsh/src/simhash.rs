//! SimHash: Charikar's random-hyperplane LSH for cosine similarity
//! (STOC 2002; reference \[5\] of the paper).
//!
//! One function is `h_r(u) = sign(r · u)` for a Gaussian vector `r`. For
//! any pair, `P(h_r(u) = h_r(v)) = 1 − θ(u,v)/π` where `θ` is the angle —
//! the probability a random hyperplane does *not* separate the two
//! vectors.
//!
//! The hyperplane is never materialized: coordinate `r_i` of function `f`
//! under index seed `s` is `gaussian_at(s, f, i)` — the inverse normal
//! CDF `Φ⁻¹` of one counter-based uniform word `mix3(s, f, i)`. A
//! `d = 10⁵`-dimensional family therefore costs nothing to store, and
//! hashing a vector with `nnz` features costs `nnz × k` coordinates.
//!
//! One row ([`LshFamily::hash_row`], which [`Composite::key`](crate::Composite)
//! calls) is swept term-major: the counter's share of the word is mixed
//! once per nonzero and shared by all `k` functions, each of which then
//! pays one more mix, one `Φ⁻¹` and one multiply-add into its own
//! accumulator. A batch ([`LshFamily::hash_batch`]) realizes each
//! distinct dimension's `k` coordinates once, so hashing `n` rows costs
//! `distinct dims × k` coordinates plus `nnz × k` multiply-adds, in
//! `O(distinct dims × k)` transient memory. Every path adds a function's
//! products in the row's index order, so all of them give the signs of
//! [`SimHashFunction::projection`] bit for bit.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

use crate::family::{batch_pool, LshFamily, LshFunction};
use vsj_pool::WorkPool;
use vsj_sampling::gauss::{gaussian_at_base, gaussian_from_word};
use vsj_sampling::SplitMix64;
use vsj_vector::{AngularKernel, SparseVector};

/// The random-hyperplane family. Stateless: all randomness comes from the
/// `(seed, function id)` pair at hash time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimHashFamily;

impl SimHashFamily {
    /// Creates the family.
    pub fn new() -> Self {
        Self
    }
}

/// One hyperplane function `h(u) = sign(r·u)`, output in `{0, 1}`.
///
/// Coordinate `r_i` is `Φ⁻¹` of the word `mix3(seed, id, i)`
/// ([`gaussian_at`](vsj_sampling::gauss::gaussian_at)). The `(seed, id)`
/// half of that hash is precomputed at construction
/// ([`SplitMix64::mix3_base`]), so realizing `r_i` inside the projection
/// sweep costs two mixes instead of four; a row swept for all `k`
/// functions at once shares one of the two as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimHashFunction {
    base: u64,
}

impl SimHashFunction {
    /// The signed projection `r · u` (exposed for tests and diagnostics).
    pub fn projection(&self, v: &SparseVector) -> f64 {
        let mut acc = 0.0f64;
        for (dim, val) in v.iter() {
            acc += f64::from(val) * gaussian_at_base(self.base, u64::from(dim));
        }
        acc
    }
}

impl LshFunction for SimHashFunction {
    #[inline]
    fn hash(&self, v: &SparseVector) -> u64 {
        // sign(0) must be deterministic: empty vectors and exact-zero
        // projections land on the positive side.
        u64::from(self.projection(v) >= 0.0)
    }
}

impl LshFamily for SimHashFamily {
    type Func = SimHashFunction;

    fn function(&self, seed: u64, id: u64) -> SimHashFunction {
        SimHashFunction {
            base: SplitMix64::mix3_base(seed, id),
        }
    }

    #[inline]
    fn collision_probability(&self, s: f64) -> f64 {
        AngularKernel.collision_probability(s)
    }

    #[inline]
    fn similarity_for_probability(&self, p: f64) -> f64 {
        AngularKernel.similarity_for_probability(p)
    }

    fn name(&self) -> &'static str {
        "simhash"
    }

    /// Walks the row once for all functions: per nonzero, the counter
    /// term [`SplitMix64::mix3_counter`] is shared, and each function
    /// adds `val · r_f[dim]` to its own accumulator, in the row's index
    /// order — the sum of [`SimHashFunction::projection`], term for term.
    fn hash_row(&self, funcs: &[SimHashFunction], row: &SparseVector, out: &mut [u64]) {
        // `out` doubles as the k accumulators: word f holds r_f · row as
        // f64 bits (0 is +0.0) until its sign replaces it.
        out.fill(0);
        for (dim, val) in row.iter() {
            let counter = SplitMix64::mix3_counter(u64::from(dim));
            let val = f64::from(val);
            for (acc, f) in out.iter_mut().zip(funcs) {
                let r = gaussian_from_word(SplitMix64::mix(f.base ^ counter));
                *acc = (f64::from_bits(*acc) + val * r).to_bits();
            }
        }
        for word in out {
            *word = u64::from(f64::from_bits(*word) >= 0.0);
        }
    }

    /// Realizes each distinct dimension's coordinates once (a
    /// `distinct × k` table), then projects every row from that table
    /// with the products and order of [`SimHashFunction::projection`],
    /// so every sign is bit-identical to the per-row `hash`.
    fn hash_batch<E>(
        &self,
        funcs: &[SimHashFunction],
        rows: &[&SparseVector],
        pool: &WorkPool,
        out: &mut [u64],
        emit: E,
    ) where
        E: Fn(&[u64], &mut [u64]) + Sync,
    {
        let pool = batch_pool(pool, rows.len());
        let coords = BatchCoordinates::new(funcs, rows, pool);
        let k = funcs.len();
        pool.for_each_chunked(
            rows,
            out,
            || (vec![0.0f64; k], vec![0u64; k]),
            |(acc, signature), row, words| {
                coords.project(row, acc);
                for (bit, &p) in signature.iter_mut().zip(acc.iter()) {
                    *bit = u64::from(p >= 0.0);
                }
                emit(signature, words);
            },
        );
    }
}

/// The hyperplane coordinates a batch of rows reads: for each distinct
/// dimension of the batch, its `k` coordinates, realized once.
///
/// Sized by the batch's distinct dimensions, never by the largest
/// dimension id (a wire row may carry any `u32`).
struct BatchCoordinates {
    /// Dimension → slot, in first-seen order.
    slots: HashMap<u32, u32, DimHashing>,
    k: usize,
    /// `coords[slot·k + f]` = coordinate `dim` of function `f`.
    coords: Vec<f64>,
}

impl BatchCoordinates {
    /// Maps the batch's distinct dimensions to slots, then fills their
    /// coordinates in dimension chunks on `pool`.
    fn new(funcs: &[SimHashFunction], rows: &[&SparseVector], pool: &WorkPool) -> Self {
        // The distinct count is unknown until the pass ends; the map
        // grows to it rather than reserving the batch's total nnz.
        let mut slots = HashMap::with_hasher(DimHashing::new());
        let mut dims: Vec<u32> = Vec::new();
        for row in rows {
            for &dim in row.indices() {
                slots.entry(dim).or_insert_with(|| {
                    dims.push(dim);
                    (dims.len() - 1) as u32
                });
            }
        }
        let k = funcs.len();
        let mut coords = vec![0.0f64; dims.len() * k];
        pool.for_each_chunked(
            &dims,
            &mut coords,
            || (),
            |(), &dim, coords| {
                let counter = SplitMix64::mix3_counter(u64::from(dim));
                for (c, f) in coords.iter_mut().zip(funcs) {
                    *c = gaussian_from_word(SplitMix64::mix(f.base ^ counter));
                }
            },
        );
        Self { slots, k, coords }
    }

    /// Writes `r_f · row` into `acc[f]` for every function `f`: the sum
    /// of [`SimHashFunction::projection`], term for term, in the row's
    /// index order.
    fn project(&self, row: &SparseVector, acc: &mut [f64]) {
        acc.fill(0.0);
        for (dim, val) in row.iter() {
            let slot = self.slots[&dim] as usize;
            let coords = &self.coords[slot * self.k..(slot + 1) * self.k];
            for (a, &r) in acc.iter_mut().zip(coords) {
                *a += f64::from(val) * r;
            }
        }
    }
}

/// Builds the slot map's hasher: one folded 64×64→128-bit multiply of
/// the dimension id by a random odd key. The map takes one lookup per
/// nonzero of the batch; against std's SipHash map this hasher cuts the
/// `fresh_heap` benchmark's set-up from 0.101 s to 0.091 s (medians of
/// 12 interleaved pairs, 2 vCPUs). The per-map key keeps the ids of
/// wire rows from being chosen to collide. Slots follow first
/// appearance, never map order, so the key cannot change a result.
struct DimHashing {
    key: u64,
}

impl DimHashing {
    fn new() -> Self {
        Self {
            key: RandomState::new().hash_one(0u64) | 1,
        }
    }
}

impl BuildHasher for DimHashing {
    type Hasher = DimHasher;

    fn build_hasher(&self) -> DimHasher {
        DimHasher {
            key: self.key,
            hash: 0,
        }
    }
}

struct DimHasher {
    key: u64,
    hash: u64,
}

impl Hasher for DimHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the slot map hashes u32 dimension ids only")
    }

    #[inline]
    fn write_u32(&mut self, dim: u32) {
        let product = u128::from(dim) * u128::from(self.key);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bucket_key, BucketHasher, Composite};
    use proptest::prelude::*;
    use vsj_sampling::{Rng, Xoshiro256};
    use vsj_vector::{Cosine, Similarity};

    fn sv(entries: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_entries(entries.to_vec()).expect("valid test vector")
    }

    /// Random dense-ish vector over `dims` dimensions.
    fn random_vector(rng: &mut Xoshiro256, dims: u32, nnz: usize) -> SparseVector {
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            entries.push((
                rng.below(u64::from(dims)) as u32,
                (rng.next_f64() * 2.0 - 1.0) as f32,
            ));
        }
        SparseVector::from_entries(entries).expect("finite entries")
    }

    #[test]
    fn hash_is_deterministic() {
        let fam = SimHashFamily::new();
        let f = fam.function(42, 7);
        let v = sv(&[(1, 1.0), (100, -2.0)]);
        assert_eq!(f.hash(&v), f.hash(&v));
        // Different function ids generally disagree on some vectors.
        let g = fam.function(42, 8);
        let mut disagreements = 0;
        let mut rng = Xoshiro256::seeded(1);
        for _ in 0..100 {
            let v = random_vector(&mut rng, 50, 10);
            if f.hash(&v) != g.hash(&v) {
                disagreements += 1;
            }
        }
        assert!(disagreements > 10, "functions look identical");
    }

    #[test]
    fn output_is_binary() {
        let fam = SimHashFamily::new();
        let mut rng = Xoshiro256::seeded(2);
        for id in 0..20 {
            let f = fam.function(9, id);
            let v = random_vector(&mut rng, 64, 8);
            assert!(f.hash(&v) <= 1);
        }
    }

    #[test]
    fn identical_vectors_always_collide() {
        let fam = SimHashFamily::new();
        let v = sv(&[(3, 1.5), (17, -0.5)]);
        for id in 0..200 {
            let f = fam.function(5, id);
            assert_eq!(f.hash(&v), f.hash(&v.clone()));
        }
    }

    #[test]
    fn scaling_does_not_change_hash() {
        // sign(r·(cu)) = sign(r·u) for c > 0: SimHash only sees direction.
        let fam = SimHashFamily::new();
        let v = sv(&[(0, 1.0), (5, 2.0), (9, -1.0)]);
        let scaled = sv(&[(0, 3.0), (5, 6.0), (9, -3.0)]);
        for id in 0..100 {
            let f = fam.function(11, id);
            assert_eq!(f.hash(&v), f.hash(&scaled));
        }
    }

    #[test]
    fn opposite_vectors_never_collide() {
        // sign flips exactly (modulo the measure-zero sign(0) tie).
        let fam = SimHashFamily::new();
        let v = sv(&[(2, 1.0), (8, -4.0)]);
        let neg = sv(&[(2, -1.0), (8, 4.0)]);
        let mut collisions = 0;
        for id in 0..200 {
            let f = fam.function(13, id);
            if f.hash(&v) == f.hash(&neg) {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn collision_rate_matches_angular_kernel() {
        // The core LSH property: empirical single-bit collision rate over
        // many functions ≈ 1 − θ/π, for several similarity levels.
        let fam = SimHashFamily::new();
        let mut rng = Xoshiro256::seeded(3);
        for trial in 0..5 {
            let a = random_vector(&mut rng, 40, 20);
            let b = random_vector(&mut rng, 40, 20);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let s = Cosine.sim(&a, &b);
            let expected = fam.collision_probability(s);
            let m = 4000u64;
            let mut collisions = 0u64;
            for id in 0..m {
                let f = fam.function(trial, id);
                if f.hash(&a) == f.hash(&b) {
                    collisions += 1;
                }
            }
            let rate = collisions as f64 / m as f64;
            // Binomial σ ≈ 0.008 at m=4000; allow 4σ.
            assert!(
                (rate - expected).abs() < 0.035,
                "trial {trial}: sim {s:.3}, rate {rate:.4}, expected {expected:.4}"
            );
        }
    }

    #[test]
    fn near_duplicates_collide_almost_always() {
        // A pair at cosine ~0.98 should collide per-bit with p ≈ 0.94.
        let fam = SimHashFamily::new();
        let base: Vec<(u32, f32)> = (0..50).map(|i| (i, 1.0)).collect();
        let mut perturbed = base.clone();
        perturbed[0].1 = 0.0; // drop one of 50 features
        let a = SparseVector::from_entries(base).unwrap();
        let b = SparseVector::from_entries(perturbed).unwrap();
        let s = Cosine.sim(&a, &b);
        assert!(s > 0.98);
        let m = 2000u64;
        let collisions = (0..m)
            .filter(|&id| {
                let f = fam.function(21, id);
                f.hash(&a) == f.hash(&b)
            })
            .count();
        let rate = collisions as f64 / m as f64;
        assert!(rate > 0.90, "rate {rate}");
    }

    #[test]
    fn empty_vector_hashes_consistently() {
        let fam = SimHashFamily::new();
        let e = SparseVector::empty();
        for id in 0..10 {
            assert_eq!(fam.function(1, id).hash(&e), 1); // sign(0) ⇒ positive side
        }
    }

    /// The per-function signs of table `table`'s composite: what the
    /// term-major sweep must reproduce.
    fn projection_signs(seed: u64, table: u64, k: usize, v: &SparseVector) -> Vec<u64> {
        (0..k as u64)
            .map(|i| {
                let f = SimHashFamily::new().function(seed, (table << 32) | i);
                u64::from(f.projection(v) >= 0.0)
            })
            .collect()
    }

    #[test]
    fn term_major_sweep_on_edge_rows() {
        let rows = [
            SparseVector::empty(),
            sv(&[(u32::MAX, -1.0)]),
            sv(&[(0, 1e-30), (1, -1e30), (u32::MAX - 1, 2.5)]),
        ];
        for k in [1, 16, 80] {
            let composite = Composite::derive(SimHashFamily::new(), 3, 1, k);
            for v in &rows {
                let signs = projection_signs(3, 1, k, v);
                assert_eq!(composite.signature(v), signs, "k {k}");
                assert_eq!(composite.key(v), bucket_key(&signs), "k {k}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One row swept once for all functions gives every function's
        /// own projection sign: weighted rows with negative weights,
        /// dimensions up to `u32::MAX`, and the empty row.
        #[test]
        fn term_major_key_equals_per_function_projection_signs(
            entries in proptest::collection::vec((0u32..64, -4.0f32..4.0, 0u32..4), 0..40),
            seed in 0u64..1_000,
            table in 0u64..4,
            k in 1usize..40,
        ) {
            let v = sv(&entries
                .into_iter()
                .map(|(dim, w, high)| (if high == 0 { u32::MAX - dim } else { dim }, w))
                .collect::<Vec<_>>());
            let composite = Composite::derive(SimHashFamily::new(), seed, table, k);
            let signs = projection_signs(seed, table, k, &v);
            prop_assert_eq!(composite.signature(&v), signs.clone());
            prop_assert_eq!(composite.key(&v), bucket_key(&signs));
        }
    }
}
