//! Vector ↔ set embeddings.
//!
//! Section 1 of the paper discusses the "straightforward extension of SSJ
//! techniques for the VSJ problem": *"We convert a vector into a set by
//! treating a dimension as an element and repeating the element as many
//! times as the dimension value, using standard rounding techniques if
//! values are not integral"* (following Arasu et al. \[2\]). The paper then
//! argues this embedding has adverse effects in practice — we implement it
//! so that claim can be exercised.

use crate::merge::for_each_match;
use crate::sparse::SparseVector;

/// A multiset produced by embedding a weighted vector: each `(dimension,
/// multiplicity)` entry represents `multiplicity` copies of the element.
///
/// Elements of the expanded set are encoded as `dimension * stride + copy`
/// so two multisets can be intersected with plain set semantics (see
/// [`MultisetEmbedding::to_expanded_binary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Multiset {
    entries: Vec<(u32, u32)>,
}

impl Multiset {
    /// `(dimension, multiplicity)` entries with multiplicity ≥ 1, sorted by
    /// dimension.
    pub fn entries(&self) -> &[(u32, u32)] {
        &self.entries
    }

    /// Total multiset cardinality `Σ multiplicity`.
    pub fn cardinality(&self) -> u64 {
        self.entries.iter().map(|&(_, m)| u64::from(m)).sum()
    }

    /// Multiset intersection size with another multiset:
    /// `Σ_d min(m_a(d), m_b(d))`.
    pub fn intersection_size(&self, other: &Self) -> u64 {
        let mut acc = 0u64;
        for_each_match(
            &self.entries,
            &other.entries,
            |(dim, _)| dim,
            |(dim, _)| dim,
            |i, j| acc += u64::from(self.entries[i].1.min(other.entries[j].1)),
        );
        acc
    }

    /// Multiset Jaccard similarity `|A ∩ B| / |A ∪ B|` with
    /// `|A ∪ B| = |A| + |B| − |A ∩ B|`.
    pub fn jaccard(&self, other: &Self) -> f64 {
        let inter = self.intersection_size(other);
        let union = self.cardinality() + other.cardinality() - inter;
        if union == 0 {
            return 1.0;
        }
        inter as f64 / union as f64
    }
}

/// The rounding embedding of a real-valued vector into a multiset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultisetEmbedding {
    /// Weights are multiplied by this factor before rounding, controlling
    /// quantization error: a weight `w` becomes `round(w * scale)` copies.
    pub scale: f64,
    /// Multiplicities are capped here to bound the expansion of heavy
    /// dimensions (the "required resources" downside the paper mentions).
    pub max_multiplicity: u32,
}

impl Default for MultisetEmbedding {
    fn default() -> Self {
        Self {
            scale: 1.0,
            max_multiplicity: 64,
        }
    }
}

impl MultisetEmbedding {
    /// Embeds a vector; dimensions whose scaled weight rounds to zero are
    /// dropped (matching the paper's "standard rounding techniques").
    /// Negative weights are clamped to zero — multisets cannot represent
    /// them, which is one of the embedding's documented losses.
    pub fn embed(&self, v: &SparseVector) -> Multiset {
        let entries = v
            .iter()
            .filter_map(|(dim, w)| {
                let m = (f64::from(w) * self.scale).round();
                if m < 1.0 {
                    None
                } else {
                    Some((dim, (m as u64).min(u64::from(self.max_multiplicity)) as u32))
                }
            })
            .collect();
        Multiset { entries }
    }

    /// Expands a multiset into a plain binary vector over a strided
    /// dimension space (`dimension * (max_multiplicity+1) + copy`), so SSJ
    /// machinery that only understands sets (e.g. MinHash) can run on it.
    ///
    /// Note the expansion is exactly where the embedding's cost explodes:
    /// nnz multiplies by the average multiplicity.
    pub fn to_expanded_binary(&self, m: &Multiset) -> SparseVector {
        let stride = u64::from(self.max_multiplicity) + 1;
        let mut members = Vec::with_capacity(m.cardinality() as usize);
        for &(dim, mult) in m.entries() {
            for copy in 0..mult {
                let encoded = u64::from(dim) * stride + u64::from(copy);
                members.push(u32::try_from(encoded).expect(
                    "expanded dimension exceeds u32; reduce max_multiplicity or dimensionality",
                ));
            }
        }
        SparseVector::binary_from_members(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{Jaccard, Similarity};
    use proptest::prelude::*;

    fn sv(entries: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_entries(entries.to_vec()).expect("valid test vector")
    }

    #[test]
    fn embed_integral_weights_is_exact() {
        let v = sv(&[(0, 2.0), (3, 1.0)]);
        let m = MultisetEmbedding::default().embed(&v);
        assert_eq!(m.entries(), &[(0, 2), (3, 1)]);
        assert_eq!(m.cardinality(), 3);
    }

    #[test]
    fn embed_rounds_fractional_weights() {
        let v = sv(&[(0, 1.4), (1, 1.6), (2, 0.4)]);
        let m = MultisetEmbedding::default().embed(&v);
        // 1.4 -> 1, 1.6 -> 2, 0.4 -> dropped.
        assert_eq!(m.entries(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn embed_scale_refines_quantization() {
        let v = sv(&[(0, 1.4)]);
        let m = MultisetEmbedding {
            scale: 10.0,
            ..Default::default()
        }
        .embed(&v);
        assert_eq!(m.entries(), &[(0, 14)]);
    }

    #[test]
    fn embed_caps_multiplicity() {
        let v = sv(&[(0, 1000.0)]);
        let e = MultisetEmbedding {
            scale: 1.0,
            max_multiplicity: 8,
        };
        assert_eq!(e.embed(&v).entries(), &[(0, 8)]);
    }

    #[test]
    fn embed_drops_negative_weights() {
        let v = sv(&[(0, -3.0), (1, 2.0)]);
        let m = MultisetEmbedding::default().embed(&v);
        assert_eq!(m.entries(), &[(1, 2)]);
    }

    #[test]
    fn multiset_jaccard_known_value() {
        // A = {a,a,b}, B = {a,b,b}: |∩| = min(2,1)+min(1,2) = 2, |∪| = 4.
        let a = Multiset {
            entries: vec![(0, 2), (1, 1)],
        };
        let b = Multiset {
            entries: vec![(0, 1), (1, 2)],
        };
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expanded_binary_preserves_multiset_jaccard() {
        let e = MultisetEmbedding::default();
        let a = e.embed(&sv(&[(0, 2.0), (1, 1.0)]));
        let b = e.embed(&sv(&[(0, 1.0), (1, 2.0)]));
        let ea = e.to_expanded_binary(&a);
        let eb = e.to_expanded_binary(&b);
        assert!((Jaccard.sim(&ea, &eb) - a.jaccard(&b)).abs() < 1e-12);
    }

    #[test]
    fn expansion_blows_up_nnz() {
        // Documents the paper's resource complaint: a single heavy
        // dimension becomes many set elements.
        let v = sv(&[(0, 50.0)]);
        let e = MultisetEmbedding::default();
        let expanded = e.to_expanded_binary(&e.embed(&v));
        assert_eq!(expanded.nnz(), 50);
    }

    proptest! {
        #[test]
        fn prop_embedding_jaccard_matches_expanded_jaccard(
            a in proptest::collection::vec((0u32..32, 1.0f32..5.0), 1..10),
            b in proptest::collection::vec((0u32..32, 1.0f32..5.0), 1..10),
        ) {
            let e = MultisetEmbedding::default();
            let (va, vb) = (SparseVector::from_entries(a).unwrap(), SparseVector::from_entries(b).unwrap());
            let (ma, mb) = (e.embed(&va), e.embed(&vb));
            let (xa, xb) = (e.to_expanded_binary(&ma), e.to_expanded_binary(&mb));
            prop_assert!((Jaccard.sim(&xa, &xb) - ma.jaccard(&mb)).abs() < 1e-12);
        }

        #[test]
        fn prop_multiset_intersection_is_sum_of_min_multiplicities(
            a in proptest::collection::vec((0u32..48, 1.0f32..9.0), 0..40),
            b in proptest::collection::vec((0u32..48, 1.0f32..9.0), 0..40),
        ) {
            let e = MultisetEmbedding::default();
            let ma = e.embed(&SparseVector::from_entries(a).unwrap());
            let mb = e.embed(&SparseVector::from_entries(b).unwrap());
            let by_lookup: u64 = ma
                .entries()
                .iter()
                .filter_map(|&(dim, m)| {
                    let other = mb.entries().iter().find(|&&(d, _)| d == dim)?;
                    Some(u64::from(m.min(other.1)))
                })
                .sum();
            prop_assert_eq!(ma.intersection_size(&mb), by_lookup);
        }

        #[test]
        fn prop_multiset_intersection_symmetric_and_bounded(
            a in proptest::collection::vec((0u32..32, 1.0f32..5.0), 0..10),
            b in proptest::collection::vec((0u32..32, 1.0f32..5.0), 0..10),
        ) {
            let e = MultisetEmbedding::default();
            let ma = e.embed(&SparseVector::from_entries(a).unwrap());
            let mb = e.embed(&SparseVector::from_entries(b).unwrap());
            let i = ma.intersection_size(&mb);
            prop_assert_eq!(i, mb.intersection_size(&ma));
            prop_assert!(i <= ma.cardinality().min(mb.cardinality()));
        }
    }
}
