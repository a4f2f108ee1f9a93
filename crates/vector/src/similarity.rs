//! Similarity measures over sparse vectors.
//!
//! The paper fixes cosine similarity for the VSJ problem (§1) but notes the
//! algorithms "can easily support other similarity measures by using an
//! appropriate LSH family" (§4.1). We therefore expose similarity as a
//! trait; the LSH crate pairs each [`Similarity`] with a hash family whose
//! collision probability is a known function of it.

use crate::row::Row;
use crate::sparse::SparseVector;

/// A symmetric similarity measure `sim : V × V → [-1, 1]`.
///
/// A measure is defined once, over borrowed [`Row`]s, so it scores a heap
/// [`SparseVector`] and a row stored in a checkpoint's payload by the same
/// code, to the same bits.
pub trait Similarity {
    /// Computes the similarity of two borrowed rows.
    fn sim_rows(&self, u: Row<'_>, v: Row<'_>) -> f64;

    /// Computes the similarity of `u` and `v`.
    #[inline]
    fn sim(&self, u: &SparseVector, v: &SparseVector) -> f64 {
        self.sim_rows(u.as_row(), v.as_row())
    }

    /// Short stable name used in reports and experiment CSVs.
    fn name(&self) -> &'static str;
}

/// Cosine similarity `cos(u,v) = u·v / (‖u‖·‖v‖)` — the paper's measure.
///
/// Conventions for degenerate inputs: if either vector is zero the
/// similarity is 0 (no direction to agree on). Floating-point results are
/// clamped to `[-1, 1]` so that `acos` in the angular LSH model never
/// receives an out-of-domain argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cosine;

impl Similarity for Cosine {
    #[inline]
    fn sim_rows(&self, u: Row<'_>, v: Row<'_>) -> f64 {
        let denom = u.norm() * v.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (u.dot(v) / denom).clamp(-1.0, 1.0)
    }

    fn name(&self) -> &'static str {
        "cosine"
    }
}

/// Jaccard similarity over the *coordinate sets*:
/// `|u ∩ v| / |u ∪ v|` (weights ignored).
///
/// This is the SSJ measure (Definition 2) used by the Lattice Counting
/// baseline and by MinHash, for which Definition 3 holds exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Jaccard;

impl Similarity for Jaccard {
    #[inline]
    fn sim_rows(&self, u: Row<'_>, v: Row<'_>) -> f64 {
        let inter = u.intersection_size(v);
        let union = u.nnz() + v.nnz() - inter;
        if union == 0 {
            // Both empty: conventionally identical.
            return 1.0;
        }
        inter as f64 / union as f64
    }

    fn name(&self) -> &'static str {
        "jaccard"
    }
}

/// The angular collision kernel of Charikar's random-hyperplane (SimHash)
/// family: for one hash bit,
///
/// `P(h(u) = h(v)) = 1 − θ(u,v)/π`, with `θ = arccos(cos(u,v))`.
///
/// The paper's Definition 3 idealizes this to `P = sim` directly; the
/// difference matters when converting between similarities and collision
/// probabilities in the JU / LSH-S estimators, so both directions of the
/// mapping live here and are unit-tested against each other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AngularKernel;

impl AngularKernel {
    /// Collision probability of one SimHash bit for a pair at cosine
    /// similarity `s ∈ [-1, 1]`.
    #[inline]
    pub fn collision_probability(self, s: f64) -> f64 {
        1.0 - s.clamp(-1.0, 1.0).acos() / std::f64::consts::PI
    }

    /// Inverse map: the cosine similarity at which one bit collides with
    /// probability `p ∈ [0, 1]`.
    #[inline]
    pub fn similarity_for_probability(self, p: f64) -> f64 {
        ((1.0 - p.clamp(0.0, 1.0)) * std::f64::consts::PI).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sv(entries: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_entries(entries.to_vec()).expect("valid test vector")
    }

    #[test]
    fn cosine_identical_vectors_is_one() {
        let v = sv(&[(0, 1.0), (3, 2.0)]);
        assert!((Cosine.sim(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_vectors_is_zero() {
        let a = sv(&[(0, 1.0)]);
        let b = sv(&[(1, 1.0)]);
        assert_eq!(Cosine.sim(&a, &b), 0.0);
    }

    #[test]
    fn cosine_opposite_vectors_is_minus_one() {
        let a = sv(&[(0, 1.0)]);
        let b = sv(&[(0, -1.0)]);
        assert!((Cosine.sim(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let a = SparseVector::empty();
        let b = sv(&[(0, 1.0)]);
        assert_eq!(Cosine.sim(&a, &b), 0.0);
        assert_eq!(Cosine.sim(&a, &a), 0.0);
    }

    #[test]
    fn cosine_known_value() {
        // (1,1) vs (1,0): cos = 1/√2.
        let a = sv(&[(0, 1.0), (1, 1.0)]);
        let b = sv(&[(0, 1.0)]);
        assert!((Cosine.sim(&a, &b) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn jaccard_known_values() {
        let a = sv(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        let b = sv(&[(2, 1.0), (3, 1.0), (4, 1.0)]);
        // |∩|=2, |∪|=4.
        assert!((Jaccard.sim(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(Jaccard.sim(&a, &a), 1.0);
        assert_eq!(
            Jaccard.sim(&SparseVector::empty(), &SparseVector::empty()),
            1.0
        );
        assert_eq!(Jaccard.sim(&a, &SparseVector::empty()), 0.0);
    }

    #[test]
    fn jaccard_ignores_weights() {
        let a = sv(&[(1, 5.0), (2, 0.1)]);
        let b = sv(&[(1, 1.0), (2, 9.0)]);
        assert_eq!(Jaccard.sim(&a, &b), 1.0);
    }

    #[test]
    fn angular_kernel_fixed_points() {
        let k = AngularKernel;
        // Identical vectors: θ=0, p=1.
        assert!((k.collision_probability(1.0) - 1.0).abs() < 1e-12);
        // Orthogonal: θ=π/2, p=1/2.
        assert!((k.collision_probability(0.0) - 0.5).abs() < 1e-12);
        // Opposite: θ=π, p=0.
        assert!(k.collision_probability(-1.0).abs() < 1e-12);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Cosine.name(), "cosine");
        assert_eq!(Jaccard.name(), "jaccard");
    }

    proptest! {
        #[test]
        fn prop_cosine_in_unit_interval_for_nonneg(
            a in proptest::collection::vec((0u32..64, 0.01f32..10.0), 1..16),
            b in proptest::collection::vec((0u32..64, 0.01f32..10.0), 1..16),
        ) {
            let a = SparseVector::from_entries(a).unwrap();
            let b = SparseVector::from_entries(b).unwrap();
            let s = Cosine.sim(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "cosine {s} outside [0,1] for non-negative vectors");
        }

        #[test]
        fn prop_cosine_symmetric(
            a in proptest::collection::vec((0u32..64, -5.0f32..5.0), 0..16),
            b in proptest::collection::vec((0u32..64, -5.0f32..5.0), 0..16),
        ) {
            let a = SparseVector::from_entries(a).unwrap();
            let b = SparseVector::from_entries(b).unwrap();
            prop_assert!((Cosine.sim(&a, &b) - Cosine.sim(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn prop_jaccard_bounds_cosine_for_binary(
            members_a in proptest::collection::vec(0u32..48, 1..16),
            members_b in proptest::collection::vec(0u32..48, 1..16),
        ) {
            // For binary vectors, jaccard ≤ cosine (standard inequality:
            // |∩|/|∪| ≤ |∩|/√(|A||B|) since |∪| ≥ max ≥ √(|A||B|)).
            let a = SparseVector::binary_from_members(members_a);
            let b = SparseVector::binary_from_members(members_b);
            prop_assert!(Jaccard.sim(&a, &b) <= Cosine.sim(&a, &b) + 1e-12);
        }

        #[test]
        fn prop_angular_kernel_roundtrip(s in -1.0f64..1.0) {
            let k = AngularKernel;
            let p = k.collision_probability(s);
            prop_assert!((0.0..=1.0).contains(&p));
            let s2 = k.similarity_for_probability(p);
            prop_assert!((s - s2).abs() < 1e-9, "roundtrip {s} -> {p} -> {s2}");
        }

        #[test]
        fn prop_angular_kernel_monotone(s1 in -1.0f64..1.0, s2 in -1.0f64..1.0) {
            let k = AngularKernel;
            if s1 <= s2 {
                prop_assert!(k.collision_probability(s1) <= k.collision_probability(s2) + 1e-12);
            }
        }
    }
}
