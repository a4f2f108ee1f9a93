//! The vector database `V = {v1, ..., vn}`.

use crate::similarity::Similarity;
use crate::sparse::SparseVector;
use crate::{pairs_of, VectorId};

/// An ordered collection of sparse vectors — the join relation of the VSJ
/// problem. Vectors are addressed by dense [`VectorId`]s (`0..n`), which is
/// what the LSH buckets and all samplers store.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VectorCollection {
    vectors: Vec<SparseVector>,
}

impl VectorCollection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a collection from existing vectors.
    pub fn from_vectors(vectors: Vec<SparseVector>) -> Self {
        Self { vectors }
    }

    /// Appends a vector, returning its id.
    pub fn push(&mut self, v: SparseVector) -> VectorId {
        let id = u32::try_from(self.vectors.len()).expect("collection exceeds u32 ids");
        self.vectors.push(v);
        id
    }

    /// Number of vectors `n = |V|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if the collection has no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Total number of unordered pairs `M = C(n, 2)` — the denominator of
    /// every population-level estimate in the paper.
    #[inline]
    pub fn total_pairs(&self) -> u64 {
        pairs_of(self.vectors.len() as u64)
    }

    /// The vector with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range; ids come from this collection, so an
    /// out-of-range id is a logic error upstream, not a recoverable state.
    #[inline]
    pub fn vector(&self, id: VectorId) -> &SparseVector {
        &self.vectors[id as usize]
    }

    /// The underlying slice of vectors.
    #[inline]
    pub fn vectors(&self) -> &[SparseVector] {
        &self.vectors
    }

    /// Consumes the collection, yielding the owned vectors in id order.
    pub fn into_vectors(self) -> Vec<SparseVector> {
        self.vectors
    }

    /// Iterates `(id, vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VectorId, &SparseVector)> {
        self.vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i as VectorId, v))
    }

    /// Similarity between two members by id.
    #[inline]
    pub fn sim<S: Similarity>(&self, measure: &S, a: VectorId, b: VectorId) -> f64 {
        measure.sim(self.vector(a), self.vector(b))
    }

    /// Returns a copy with every vector scaled to unit norm. Cosine
    /// similarity is invariant under this; the prefix-filtering exact join
    /// requires it.
    pub fn normalized(&self) -> Self {
        Self {
            vectors: self.vectors.iter().map(SparseVector::normalized).collect(),
        }
    }

    /// Summary statistics (dimensionality, feature counts) — the numbers
    /// the paper reports for each dataset in Appendix C.1.
    pub fn stats(&self) -> CollectionStats {
        let mut stats = CollectionStats {
            n: self.vectors.len(),
            ..CollectionStats::default()
        };
        if self.vectors.is_empty() {
            return stats;
        }
        stats.min_nnz = usize::MAX;
        let mut total_nnz = 0usize;
        let mut all_binary = true;
        for v in &self.vectors {
            let nnz = v.nnz();
            total_nnz += nnz;
            stats.min_nnz = stats.min_nnz.min(nnz);
            stats.max_nnz = stats.max_nnz.max(nnz);
            stats.dimensionality = stats.dimensionality.max(v.dim_bound());
            all_binary &= v.is_binary();
        }
        stats.total_nnz = total_nnz;
        stats.avg_nnz = total_nnz as f64 / self.vectors.len() as f64;
        stats.is_binary = all_binary;
        stats
    }
}

impl FromIterator<SparseVector> for VectorCollection {
    fn from_iter<T: IntoIterator<Item = SparseVector>>(iter: T) -> Self {
        Self {
            vectors: iter.into_iter().collect(),
        }
    }
}

impl std::ops::Index<VectorId> for VectorCollection {
    type Output = SparseVector;

    fn index(&self, id: VectorId) -> &SparseVector {
        self.vector(id)
    }
}

/// Dataset summary statistics, mirroring the descriptions in Appendix C.1
/// of the paper (e.g. DBLP: "average number of features is 14, the smallest
/// is 3 and the biggest is 219").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CollectionStats {
    /// Number of vectors `n`.
    pub n: usize,
    /// Upper bound on dimensionality (max index + 1).
    pub dimensionality: u32,
    /// Sum of nnz over all vectors.
    pub total_nnz: usize,
    /// Mean features per vector.
    pub avg_nnz: f64,
    /// Minimum features in any vector (0 for an empty collection).
    pub min_nnz: usize,
    /// Maximum features in any vector.
    pub max_nnz: usize,
    /// True when every weight is 1.0 (a set collection).
    pub is_binary: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::Cosine;

    fn sv(entries: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_entries(entries.to_vec()).expect("valid test vector")
    }

    fn sample_collection() -> VectorCollection {
        VectorCollection::from_vectors(vec![
            sv(&[(0, 1.0), (1, 1.0)]),
            sv(&[(0, 1.0)]),
            sv(&[(2, 2.0), (3, 2.0), (4, 2.0)]),
        ])
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut c = VectorCollection::new();
        assert_eq!(c.push(sv(&[(0, 1.0)])), 0);
        assert_eq!(c.push(sv(&[(1, 1.0)])), 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn total_pairs_matches_formula() {
        let c = sample_collection();
        assert_eq!(c.total_pairs(), 3); // C(3,2)
        assert_eq!(VectorCollection::new().total_pairs(), 0);
    }

    #[test]
    fn sim_by_id() {
        let c = sample_collection();
        let s = c.sim(&Cosine, 0, 1);
        assert!((s - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn stats_reports_feature_counts() {
        let c = sample_collection();
        let st = c.stats();
        assert_eq!(st.n, 3);
        assert_eq!(st.min_nnz, 1);
        assert_eq!(st.max_nnz, 3);
        assert_eq!(st.total_nnz, 6);
        assert!((st.avg_nnz - 2.0).abs() < 1e-12);
        assert_eq!(st.dimensionality, 5);
        assert!(!st.is_binary); // third vector has weight 2.0
    }

    #[test]
    fn stats_detects_binary_collections() {
        let c = VectorCollection::from_vectors(vec![
            SparseVector::binary_from_members(vec![1, 2]),
            SparseVector::binary_from_members(vec![3]),
        ]);
        assert!(c.stats().is_binary);
    }

    #[test]
    fn stats_of_empty_collection() {
        let st = VectorCollection::new().stats();
        assert_eq!(st.n, 0);
        assert_eq!(st.min_nnz, 0);
        assert_eq!(st.max_nnz, 0);
    }

    #[test]
    fn normalized_preserves_cosine() {
        let c = sample_collection();
        let n = c.normalized();
        for a in 0..c.len() as u32 {
            for b in 0..c.len() as u32 {
                let s1 = c.sim(&Cosine, a, b);
                let s2 = n.sim(&Cosine, a, b);
                assert!((s1 - s2).abs() < 1e-5, "cosine changed by normalization");
            }
        }
        for (_, v) in n.iter() {
            assert!((v.norm() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn from_iterator_collects() {
        let c: VectorCollection = (0..4).map(|i| sv(&[(i, 1.0)])).collect();
        assert_eq!(c.len(), 4);
        assert_eq!(c[2].indices(), &[2]);
    }
}
