//! The LSH family abstraction.
//!
//! Definition 3 of the paper idealizes a locality-sensitive family as one
//! with `P(h(u) = h(v)) = sim(u, v)`. Real families satisfy a weaker but
//! sufficient statement: the collision probability is a *known, strictly
//! increasing* function `p(s)` of the similarity. MinHash attains
//! `p(s) = s` exactly (for Jaccard); SimHash attains `p(s) = 1 − arccos(s)/π`
//! (for cosine). All estimator math that the paper writes in terms of
//! `f(s) = s^k` is implemented downstream against the family's actual
//! `p(s)^k`, with the paper's idealized closed forms available as the
//! special case `p(s) = s`.

use std::sync::OnceLock;

use vsj_pool::WorkPool;
use vsj_vector::SparseVector;

/// One concrete hash function `h : ℝ^d → U` drawn from a family.
pub trait LshFunction: Send + Sync {
    /// Hash of a vector. The codomain is embedded in `u64`; equality of
    /// outputs is the collision event of Definition 3.
    fn hash(&self, v: &SparseVector) -> u64;
}

/// A family of LSH functions for some similarity measure.
///
/// Functions are *derived*, not sampled: `function(seed, id)` must return
/// the same function for the same `(seed, id)` pair forever. This is what
/// makes indexes rebuildable and experiments replayable.
pub trait LshFamily: Send + Sync {
    /// The concrete function type.
    type Func: LshFunction;

    /// Derives the `id`-th function of the family instance identified by
    /// `seed`.
    fn function(&self, seed: u64, id: u64) -> Self::Func;

    /// The exact single-function collision probability at similarity `s`:
    /// `p(s) = P(h(u) = h(v) | sim(u,v) = s)`.
    fn collision_probability(&self, s: f64) -> f64;

    /// Inverse of [`Self::collision_probability`] (defined on `[0, 1]`);
    /// used to translate signature match rates back into similarities
    /// (Lattice Counting does this).
    fn similarity_for_probability(&self, p: f64) -> f64;

    /// Stable short name for reports.
    fn name(&self) -> &'static str;

    /// Writes the signature of one row under `funcs` (functions of
    /// this family): `out[i] = funcs[i].hash(row)`, with
    /// `out.len() == funcs.len()`.
    ///
    /// The default evaluates the functions one after another. A family
    /// whose functions share per-dimension work overrides it to walk
    /// the row once for all of them ([`SimHashFamily`](crate::SimHashFamily)).
    /// [`Composite::key`](crate::Composite), `Composite::signature_into`
    /// and the default [`Self::hash_batch`] all hash a row through it.
    fn hash_row(&self, funcs: &[Self::Func], row: &SparseVector, out: &mut [u64]) {
        for (slot, f) in out.iter_mut().zip(funcs) {
            *slot = f.hash(row);
        }
    }

    /// Hashes a batch of rows under `funcs` (functions of this family)
    /// on `pool`: for every row, `emit(signature, words)` receives the
    /// row's signature `(funcs[0].hash(row), …)` and the row's own
    /// `out.len() / rows.len()` words of `out`.
    ///
    /// The default hashes every row through [`Self::hash_row`]. A family
    /// whose functions share per-dimension work across rows overrides it
    /// to do that work once per batch
    /// ([`SimHashFamily`](crate::SimHashFamily)). Either way every
    /// signature equals the per-row `hash` values and each row writes
    /// only its own words, so `out` is the serial loop's at any thread
    /// count. A batch of fewer than 64 rows is hashed on the calling
    /// thread.
    fn hash_batch<E>(
        &self,
        funcs: &[Self::Func],
        rows: &[&SparseVector],
        pool: &WorkPool,
        out: &mut [u64],
        emit: E,
    ) where
        E: Fn(&[u64], &mut [u64]) + Sync,
    {
        batch_pool(pool, rows.len()).for_each_chunked(
            rows,
            out,
            || vec![0u64; funcs.len()],
            |signature, row, words| {
                self.hash_row(funcs, row, signature);
                emit(signature, words);
            },
        );
    }
}

/// Batches of fewer rows are hashed on the calling thread. Fanning one
/// out wakes workers that may otherwise stay idle for the process's
/// life (a restarted server replaying a short WAL tail), and touching
/// their stacks and allocator arenas costs that process a few hundred
/// KB of resident memory.
const MIN_POOLED_ROWS: usize = 64;

/// The pool a batch of `rows` rows is hashed on: `pool`, or below
/// [`MIN_POOLED_ROWS`] a one-thread pool, which runs on the calling
/// thread and has no workers.
pub(crate) fn batch_pool(pool: &WorkPool, rows: usize) -> &WorkPool {
    static CALLER: OnceLock<WorkPool> = OnceLock::new();
    if rows >= MIN_POOLED_ROWS {
        pool
    } else {
        CALLER.get_or_init(|| WorkPool::new(1))
    }
}

impl<F: LshFamily> LshFamily for &F {
    type Func = F::Func;

    fn function(&self, seed: u64, id: u64) -> Self::Func {
        (**self).function(seed, id)
    }

    fn collision_probability(&self, s: f64) -> f64 {
        (**self).collision_probability(s)
    }

    fn similarity_for_probability(&self, p: f64) -> f64 {
        (**self).similarity_for_probability(p)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn hash_row(&self, funcs: &[Self::Func], row: &SparseVector, out: &mut [u64]) {
        (**self).hash_row(funcs, row, out)
    }

    fn hash_batch<E>(
        &self,
        funcs: &[Self::Func],
        rows: &[&SparseVector],
        pool: &WorkPool,
        out: &mut [u64],
        emit: E,
    ) where
        E: Fn(&[u64], &mut [u64]) + Sync,
    {
        (**self).hash_batch(funcs, rows, pool, out, emit)
    }
}

/// A composite bucket hasher `g = (h₁, …, h_k)` reduced to a single 64-bit
/// bucket key. Object-safe so `LshTable` can hold any family behind an
/// `Arc<dyn BucketHasher>`.
pub trait BucketHasher: Send + Sync {
    /// The bucket key of `v` — equal keys ⇔ same bucket (up to the
    /// documented ~2⁻⁶⁴ fold-collision rate).
    fn key(&self, v: &SparseVector) -> u64;

    /// The bucket keys of a batch of rows, hashed on `pool`: exactly
    /// `rows.map(key)`, at any thread count.
    /// [`Composite`](crate::Composite) hashes through its family's
    /// [`LshFamily::hash_batch`].
    fn keys(&self, rows: &[&SparseVector], pool: &WorkPool) -> Vec<u64>;

    /// Number of concatenated functions `k`.
    fn k(&self) -> usize;

    /// Single-function collision probability `p(s)` of the underlying
    /// family (so estimators can form `P(g(u)=g(v)) = p(s)^k`).
    fn collision_probability(&self, s: f64) -> f64;

    /// Family name for reports.
    fn family_name(&self) -> &'static str;
}

/// `P(g(u) = g(v))` for a `k`-fold composite at similarity `s`, given the
/// family's single-function curve. This is the paper's `f(s)` (Figure 1)
/// with the idealized `s^k` generalized to `p(s)^k`.
#[inline]
pub fn composite_collision_probability<H: BucketHasher + ?Sized>(hasher: &H, s: f64) -> f64 {
    hasher.collision_probability(s).powi(hasher.k() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHashFamily;
    use crate::simhash::SimHashFamily;

    #[test]
    fn minhash_is_identity_curve() {
        let f = MinHashFamily::new();
        for s in [0.0, 0.25, 0.5, 1.0] {
            assert!((f.collision_probability(s) - s).abs() < 1e-12);
            assert!((f.similarity_for_probability(s) - s).abs() < 1e-12);
        }
    }

    #[test]
    fn simhash_curve_is_angular() {
        let f = SimHashFamily::new();
        assert!((f.collision_probability(1.0) - 1.0).abs() < 1e-12);
        assert!((f.collision_probability(0.0) - 0.5).abs() < 1e-12);
        // Roundtrip.
        for s in [0.1, 0.5, 0.9] {
            let p = f.collision_probability(s);
            assert!((f.similarity_for_probability(p) - s).abs() < 1e-9);
        }
    }
}
