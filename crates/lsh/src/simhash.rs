//! SimHash: Charikar's random-hyperplane LSH for cosine similarity
//! (STOC 2002; reference \[5\] of the paper).
//!
//! One function is `h_r(u) = sign(r · u)` for a Gaussian vector `r`. For
//! any pair, `P(h_r(u) = h_r(v)) = 1 − θ(u,v)/π` where `θ` is the angle —
//! the probability a random hyperplane does *not* separate the two
//! vectors.
//!
//! The hyperplane is never materialized: coordinate `r_i` of function `f`
//! under index seed `s` is `gaussian_at(s, f, i)` — a counter-based
//! deterministic deviate. A `d = 10⁵`-dimensional family therefore costs
//! nothing to store, and hashing a vector with `nnz` features costs
//! `O(nnz)` Gaussians per function. A batch
//! ([`LshFamily::hash_batch`]) realizes each distinct dimension's `k`
//! coordinates once, so hashing `n` rows costs `distinct dims × k`
//! Gaussians plus `nnz × k` multiply-adds, in `O(distinct dims × k)`
//! transient memory.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

use crate::family::{batch_pool, LshFamily, LshFunction};
use vsj_pool::WorkPool;
use vsj_sampling::gauss::gaussian_at_base;
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
/// The `(seed, id)` half of the coordinate hash is precomputed at
/// construction ([`SplitMix64::mix3_base`]), so realizing `r_i` inside
/// the projection sweep costs two mixes instead of four — bit-identical
/// to [`gaussian_at`](vsj_sampling::gauss::gaussian_at) on the fused triple.
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
                for (c, f) in coords.iter_mut().zip(funcs) {
                    *c = gaussian_at_base(f.base, u64::from(dim));
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
}
