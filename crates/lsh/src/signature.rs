//! Composite functions `g = (h₁, …, h_k)`, signature matrices and bucket
//! keys.
//!
//! §4.1 of the paper: *"for an integer k, we define a function family
//! G = {g : ℝ^d → U^k} such that g(v) = (h₁(v), …, h_k(v))"*. Two
//! consumers need two different views of `g`:
//!
//! * the LSH **table** only needs equality of `g` values — we fold the k
//!   hash outputs into a single 64-bit key ([`bucket_key`]), matching the
//!   paper's "only existing buckets are stored using standard hashing";
//! * **Lattice Counting** needs the individual positions of the signature
//!   to count partial matches — [`SignatureMatrix`] stores the full
//!   `n × k` matrix.

use crate::family::{BucketHasher, LshFamily};
use vsj_pool::WorkPool;
use vsj_sampling::SplitMix64;
use vsj_vector::{SparseVector, VectorCollection};

/// Folds a signature into a 64-bit bucket key.
///
/// Position-dependent mixing: `key = mix(mix(... ) ^ mix(pos ⊕ value))` so
/// permuted signatures do not collide. With `n ≤ 2³²` vectors, the chance
/// that any two *distinct* signatures share a key is below
/// `C(n,2)/2⁶⁴ ≈ 2⁻³³` per table — negligible next to the estimators'
/// sampling error, as the paper's "standard hashing" implicitly assumes.
#[inline]
pub fn bucket_key(signature: &[u64]) -> u64 {
    signature.iter().enumerate().fold(
        0x9E37_79B9_7F4A_7C15u64 ^ (signature.len() as u64),
        |acc, (pos, &h)| {
            SplitMix64::mix(acc ^ SplitMix64::mix(h.wrapping_add(pos as u64).rotate_left(17)))
        },
    )
}

/// A materialized composite `g` for one table: the k functions plus the
/// metadata estimators need. This is the canonical [`BucketHasher`]
/// implementation.
pub struct Composite<F: LshFamily> {
    family: F,
    funcs: Vec<F::Func>,
}

impl<F: LshFamily> Composite<F> {
    /// Derives the composite for table `table_id` under `seed` with `k`
    /// functions. Function ids are namespaced by table so tables are
    /// independent: function `i` of table `t` is family function
    /// `t * 2³² + i`.
    pub fn derive(family: F, seed: u64, table_id: u64, k: usize) -> Self {
        assert!(k >= 1, "a composite needs at least one hash function");
        let funcs = (0..k as u64)
            .map(|i| family.function(seed, (table_id << 32) | i))
            .collect();
        Self { family, funcs }
    }

    /// Writes the full signature of `v` into `out` (length must be `k`).
    pub fn signature_into(&self, v: &SparseVector, out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.funcs.len(),
            "output buffer must hold k hashes"
        );
        self.family.hash_row(&self.funcs, v, out);
    }

    /// The full signature of `v` as a fresh vector.
    pub fn signature(&self, v: &SparseVector) -> Vec<u64> {
        let mut out = vec![0u64; self.funcs.len()];
        self.signature_into(v, &mut out);
        out
    }

    /// Access to the underlying family.
    pub fn family(&self) -> &F {
        &self.family
    }
}

impl<F: LshFamily> BucketHasher for Composite<F> {
    fn key(&self, v: &SparseVector) -> u64 {
        bucket_key(&self.signature(v))
    }

    fn keys(&self, rows: &[&SparseVector], pool: &WorkPool) -> Vec<u64> {
        let mut keys = vec![0u64; rows.len()];
        self.family
            .hash_batch(&self.funcs, rows, pool, &mut keys, |signature, key| {
                key[0] = bucket_key(signature);
            });
        keys
    }

    fn k(&self) -> usize {
        self.funcs.len()
    }

    fn collision_probability(&self, s: f64) -> f64 {
        self.family.collision_probability(s)
    }

    fn family_name(&self) -> &'static str {
        self.family.name()
    }
}

/// The `n × k` matrix of signature values for a whole collection — the
/// "signature database" Lattice Counting analyzes (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatrix {
    k: usize,
    /// Row-major `n × k`.
    data: Vec<u64>,
}

impl SignatureMatrix {
    /// Computes signatures for every vector in the collection, as one
    /// batch on the process-wide work pool
    /// ([`LshFamily::hash_batch`]): bit-identical to the per-row loop
    /// at any thread count.
    pub fn build<F: LshFamily>(
        collection: &VectorCollection,
        family: F,
        seed: u64,
        k: usize,
    ) -> Self {
        let composite = Composite::derive(family, seed, 0, k);
        let rows: Vec<&SparseVector> = collection.vectors().iter().collect();
        let mut data = vec![0u64; rows.len() * k];
        composite.family.hash_batch(
            &composite.funcs,
            &rows,
            vsj_pool::global(),
            &mut data,
            |signature, words| words.copy_from_slice(signature),
        );
        Self { k, data }
    }

    /// Signature length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of rows (vectors).
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.k).unwrap_or(0)
    }

    /// True when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The signature of vector `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// Number of positions on which two rows agree — the quantity whose
    /// expectation is `k · p(sim)` and which LC inverts.
    pub fn matching_positions(&self, i: usize, j: usize) -> usize {
        self.row(i)
            .iter()
            .zip(self.row(j))
            .filter(|(a, b)| a == b)
            .count()
    }

    /// Projects row `i` onto a subset of positions and folds to a key —
    /// the sub-signature hashing primitive of Lattice Counting.
    pub fn project_key(&self, i: usize, positions: &[usize]) -> u64 {
        let row = self.row(i);
        let mut acc = 0xA076_1D64_78BD_642Fu64 ^ (positions.len() as u64);
        for (rank, &p) in positions.iter().enumerate() {
            debug_assert!(p < self.k, "position {p} out of range for k={}", self.k);
            acc = SplitMix64::mix(
                acc ^ SplitMix64::mix(row[p].wrapping_add(rank as u64).rotate_left(13)),
            );
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHashFamily;
    use crate::simhash::SimHashFamily;
    use vsj_vector::{Jaccard, Similarity};

    fn set(members: &[u32]) -> SparseVector {
        SparseVector::binary_from_members(members.to_vec())
    }

    #[test]
    fn bucket_key_deterministic_and_position_sensitive() {
        let a = bucket_key(&[1, 2, 3]);
        assert_eq!(a, bucket_key(&[1, 2, 3]));
        assert_ne!(a, bucket_key(&[3, 2, 1]), "permutation must change key");
        assert_ne!(a, bucket_key(&[1, 2]), "length must change key");
        assert_ne!(
            bucket_key(&[0, 0]),
            bucket_key(&[0]),
            "zero padding must matter"
        );
    }

    #[test]
    fn composite_key_matches_signature_fold() {
        let fam = MinHashFamily::new();
        let c = Composite::derive(fam, 5, 0, 8);
        let v = set(&[1, 5, 9, 12]);
        assert_eq!(c.key(&v), bucket_key(&c.signature(&v)));
    }

    #[test]
    fn composite_tables_are_independent() {
        let v = set(&[2, 4, 6]);
        let c0 = Composite::derive(MinHashFamily::new(), 5, 0, 8);
        let c1 = Composite::derive(MinHashFamily::new(), 5, 1, 8);
        assert_ne!(c0.signature(&v), c1.signature(&v));
    }

    #[test]
    fn composite_equal_vectors_equal_keys() {
        let c = Composite::derive(SimHashFamily::new(), 1, 0, 16);
        let v = SparseVector::from_entries(vec![(0, 1.0), (9, -2.0)]).unwrap();
        assert_eq!(c.key(&v), c.key(&v.clone()));
    }

    #[test]
    #[should_panic(expected = "at least one hash function")]
    fn composite_rejects_k_zero() {
        Composite::derive(MinHashFamily::new(), 0, 0, 0);
    }

    #[test]
    fn signature_matrix_shape_and_rows() {
        let coll = VectorCollection::from_vectors(vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 3]),
            set(&[100, 200]),
        ]);
        let m = SignatureMatrix::build(&coll, MinHashFamily::new(), 7, 12);
        assert_eq!(m.len(), 3);
        assert_eq!(m.k(), 12);
        // Identical sets have identical signatures.
        assert_eq!(m.row(0), m.row(1));
        assert_eq!(m.matching_positions(0, 1), 12);
        // Disjoint sets should match almost nowhere.
        assert!(m.matching_positions(0, 2) <= 1);
    }

    #[test]
    fn matching_positions_rate_tracks_jaccard() {
        // E[matches]/k = Jaccard for MinHash.
        let a = set(&(0..12).collect::<Vec<_>>());
        let b = set(&(6..18).collect::<Vec<_>>());
        let coll = VectorCollection::from_vectors(vec![a.clone(), b.clone()]);
        let k = 2000;
        let m = SignatureMatrix::build(&coll, MinHashFamily::new(), 3, k);
        let rate = m.matching_positions(0, 1) as f64 / k as f64;
        let expected = Jaccard.sim(&a, &b); // 6/18 = 1/3
        assert!((rate - expected).abs() < 0.035, "rate {rate} vs {expected}");
    }

    #[test]
    fn project_key_agrees_iff_positions_agree() {
        let coll = VectorCollection::from_vectors(vec![
            set(&[1, 2, 3, 4]),
            set(&[1, 2, 3, 4]),
            set(&[50, 60, 70]),
        ]);
        let m = SignatureMatrix::build(&coll, MinHashFamily::new(), 11, 10);
        let positions = [0usize, 3, 7];
        assert_eq!(m.project_key(0, &positions), m.project_key(1, &positions));
        assert_ne!(m.project_key(0, &positions), m.project_key(2, &positions));
    }

    #[test]
    fn empty_matrix() {
        let m = SignatureMatrix::build(&VectorCollection::new(), MinHashFamily::new(), 0, 4);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
