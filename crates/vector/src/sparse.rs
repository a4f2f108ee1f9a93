//! Immutable sparse vectors with sorted coordinates.
//!
//! The representation is the classic coordinate-sorted pair of parallel
//! arrays (`indices[i]` ↔ `values[i]`, strictly increasing indices). All
//! pairwise kernels (dot product, intersection size) are one merge over
//! the two sorted index arrays, reached through the vector's borrowed
//! [`Row`] — the dominant inner loop of both the exact join and
//! the sampling estimators (one similarity per sampled pair), so it is
//! allocation-free, block-wise and branch-free: the `merge` module compares
//! four indices of each side all-against-all per step and advances by
//! arithmetic on the comparison, not by a branch on it. It reports matches
//! in ascending index order, which fixes the order in which `dot` adds its
//! products and so the bits of every similarity.

use std::fmt;

use crate::row::Row;

/// An immutable sparse vector: strictly increasing `u32` dimension indices
/// with `f32` weights.
///
/// Invariants (enforced by every constructor):
/// * `indices.len() == values.len()`
/// * `indices` strictly increasing (no duplicates)
/// * every value is finite and non-zero (explicit zeros are dropped —
///   a stored zero would silently distort norms cached downstream)
///
/// The L2 norm is precomputed at construction: cosine similarity
/// (`dot(u,v) / (‖u‖·‖v‖)`, §1 of the paper) is evaluated billions of times
/// by the exact-join ground truth, and recomputing norms would double its
/// cost.
#[derive(Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SparseVector {
    indices: Box<[u32]>,
    values: Box<[f32]>,
    norm: f64,
}

impl fmt::Debug for SparseVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseVector[")?;
        for (i, (ix, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{ix}:{v}")?;
        }
        write!(f, "] (‖·‖={:.4})", self.norm)
    }
}

/// Error returned by the checked [`SparseVector`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseVectorError {
    /// `indices` and `values` have different lengths.
    LengthMismatch {
        /// Number of indices supplied.
        indices: usize,
        /// Number of values supplied.
        values: usize,
    },
    /// Indices are not strictly increasing at the reported position.
    UnsortedIndices {
        /// Position in the index array where monotonicity broke.
        position: usize,
    },
    /// A weight is NaN or infinite at the reported position.
    NonFiniteValue {
        /// Position of the offending weight.
        position: usize,
    },
    /// A stored row holds a zero weight at the reported position
    /// ([`split_block`](crate::row::split_block); the constructors drop
    /// zeros instead).
    ZeroValue {
        /// Position of the offending weight.
        position: usize,
    },
    /// A stored row's block is shorter than its `nnz` prefix says
    /// ([`split_block`](crate::row::split_block)).
    TruncatedBlock,
}

impl fmt::Display for SparseVectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { indices, values } => write!(
                f,
                "index/value length mismatch: {indices} indices vs {values} values"
            ),
            Self::UnsortedIndices { position } => {
                write!(f, "indices not strictly increasing at position {position}")
            }
            Self::NonFiniteValue { position } => {
                write!(f, "non-finite value at position {position}")
            }
            Self::ZeroValue { position } => {
                write!(f, "stored zero value at position {position}")
            }
            Self::TruncatedBlock => write!(f, "row block shorter than its nnz prefix"),
        }
    }
}

impl std::error::Error for SparseVectorError {}

impl SparseVector {
    /// Builds a vector from pre-sorted parallel arrays.
    ///
    /// # Errors
    /// Returns [`SparseVectorError`] if the invariants documented on the
    /// type do not hold. Zero values are permitted here and silently
    /// dropped.
    pub fn from_sorted(indices: Vec<u32>, values: Vec<f32>) -> Result<Self, SparseVectorError> {
        if indices.len() != values.len() {
            return Err(SparseVectorError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        Self::check_sorted(indices.iter().copied(), values.iter().copied())?;
        if !values.contains(&0.0) {
            return Ok(Self::trusted(indices, values));
        }
        let (indices, values): (Vec<u32>, Vec<f32>) = indices
            .into_iter()
            .zip(values)
            .filter(|&(_, v)| v != 0.0)
            .unzip();
        Ok(Self::trusted(indices, values))
    }

    /// The per-coordinate invariants [`from_sorted`](Self::from_sorted)
    /// enforces — indices strictly increasing, every value finite —
    /// checked over any pair of sequences without building a vector, so
    /// a stored row is validated in place
    /// ([`split_block`](crate::row::split_block)) by
    /// the one definition the constructor uses.
    ///
    /// # Errors
    /// [`SparseVectorError::UnsortedIndices`] or
    /// [`SparseVectorError::NonFiniteValue`] at the first offending
    /// position.
    pub fn check_sorted(
        indices: impl IntoIterator<Item = u32>,
        values: impl IntoIterator<Item = f32>,
    ) -> Result<(), SparseVectorError> {
        let mut prev: Option<u32> = None;
        for (position, i) in indices.into_iter().enumerate() {
            if prev.is_some_and(|p| p >= i) {
                return Err(SparseVectorError::UnsortedIndices { position });
            }
            prev = Some(i);
        }
        match values.into_iter().position(|v| !v.is_finite()) {
            Some(position) => Err(SparseVectorError::NonFiniteValue { position }),
            None => Ok(()),
        }
    }

    /// Builds a vector from arbitrary `(index, value)` entries: entries are
    /// sorted and weights on duplicate indices are summed (the natural
    /// semantics for bag-of-words accumulation).
    ///
    /// # Errors
    /// Returns [`SparseVectorError::NonFiniteValue`] if any accumulated
    /// weight is NaN/∞.
    pub fn from_entries(mut entries: Vec<(u32, f32)>) -> Result<Self, SparseVectorError> {
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values: Vec<f32> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            match indices.last() {
                Some(&last) if last == i => {
                    *values.last_mut().expect("parallel arrays") += v;
                }
                _ => {
                    indices.push(i);
                    values.push(v);
                }
            }
        }
        for (pos, &v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(SparseVectorError::NonFiniteValue { position: pos });
            }
        }
        let (indices, values): (Vec<u32>, Vec<f32>) = indices
            .into_iter()
            .zip(values)
            .filter(|&(_, v)| v != 0.0)
            .unzip();
        Ok(Self::trusted(indices, values))
    }

    /// Builds a binary vector (all weights 1.0) from set members.
    /// Duplicate members are collapsed: this is the paper's "set as a
    /// binary vector" representation (§1).
    pub fn binary_from_members(mut members: Vec<u32>) -> Self {
        members.sort_unstable();
        members.dedup();
        let values = vec![1.0f32; members.len()];
        Self::trusted(members, values)
    }

    /// Internal constructor for inputs already known to satisfy the
    /// invariants (sorted, deduplicated, finite, non-zero).
    pub(crate) fn trusted(indices: Vec<u32>, values: Vec<f32>) -> Self {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(values.iter().all(|v| v.is_finite() && *v != 0.0));
        let norm = l2_norm(values.iter().copied());
        Self {
            indices: indices.into_boxed_slice(),
            values: values.into_boxed_slice(),
            norm,
        }
    }

    /// The empty vector (zero in every dimension).
    pub fn empty() -> Self {
        Self::trusted(Vec::new(), Vec::new())
    }

    /// Number of stored (non-zero) coordinates — the paper's "number of
    /// features".
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True if no coordinate is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Sorted dimension indices.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Weights parallel to [`Self::indices`].
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Precomputed L2 norm `‖u‖ = sqrt(Σ u[i]²)`.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Largest dimension index plus one, or 0 for the empty vector.
    #[inline]
    pub fn dim_bound(&self) -> u32 {
        self.indices.last().map_or(0, |&i| i + 1)
    }

    /// Maximum stored weight (0 for the empty vector). Used by the
    /// prefix-filtering exact join for its upper bounds.
    #[inline]
    pub fn max_value(&self) -> f32 {
        self.values.iter().copied().fold(0.0f32, f32::max)
    }

    /// Iterates `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Weight at `dim` (0 when absent), by binary search.
    pub fn get(&self, dim: u32) -> f32 {
        match self.indices.binary_search(&dim) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// True if every stored weight equals 1.0 — the binary-vector (set)
    /// special case for which the paper's SSJ baselines apply directly.
    pub fn is_binary(&self) -> bool {
        self.values.iter().all(|&v| v == 1.0)
    }

    /// The vector as a borrowed [`Row`], the form similarities read.
    #[inline]
    pub fn as_row(&self) -> Row<'_> {
        Row::native(self)
    }

    /// Dot product `u·v = Σ u[i]·v[i]` over the shared dimensions,
    /// accumulated in `f64`.
    ///
    /// The products are added in ascending dimension order whatever the
    /// lengths of the two vectors, so `u.dot(v)` and `v.dot(u)` are the
    /// same bits.
    #[inline]
    pub fn dot(&self, other: &Self) -> f64 {
        self.as_row().dot(other.as_row())
    }

    /// Size of the coordinate-set intersection `|u ∩ v|` (ignores weights).
    #[inline]
    pub fn intersection_size(&self, other: &Self) -> usize {
        self.as_row().intersection_size(other.as_row())
    }

    /// Returns a copy scaled to unit L2 norm. The empty vector is returned
    /// unchanged (there is no direction to preserve).
    pub fn normalized(&self) -> Self {
        if self.norm == 0.0 {
            return self.clone();
        }
        let inv = 1.0 / self.norm;
        let values: Vec<f32> = self
            .values
            .iter()
            .map(|&v| (f64::from(v) * inv) as f32)
            .collect();
        // Renormalize exactly: rounding to f32 perturbs the norm slightly.
        Self::trusted(self.indices.to_vec(), values)
    }
}

/// L2 norm `sqrt(Σ v²)` of a row's weights, summed in `f64` in order —
/// the one definition behind [`SparseVector::norm`] and
/// [`split_block`](crate::row::split_block), so a stored row's norm has
/// the vector's bits.
pub(crate) fn l2_norm(values: impl Iterator<Item = f32>) -> f64 {
    values
        .map(|v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt()
}

/// Incremental builder accumulating `(dimension, weight)` entries, e.g. one
/// token at a time when vectorizing a document.
#[derive(Default, Debug, Clone)]
pub struct SparseVectorBuilder {
    entries: Vec<(u32, f32)>,
}

impl SparseVectorBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Adds `weight` to dimension `dim` (accumulates across calls).
    pub fn add(&mut self, dim: u32, weight: f32) -> &mut Self {
        self.entries.push((dim, weight));
        self
    }

    /// Number of raw entries added so far (before deduplication).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finishes the vector, summing duplicate dimensions.
    ///
    /// # Errors
    /// Propagates [`SparseVectorError::NonFiniteValue`] from accumulation.
    pub fn build(self) -> Result<SparseVector, SparseVectorError> {
        SparseVector::from_entries(self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::GALLOP_RATIO;
    use proptest::prelude::*;

    fn sv(entries: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_entries(entries.to_vec()).expect("valid test vector")
    }

    #[test]
    fn from_sorted_accepts_valid_input() {
        let v = SparseVector::from_sorted(vec![1, 5, 9], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(v.nnz(), 3);
        assert_eq!(v.indices(), &[1, 5, 9]);
        assert!((v.norm() - f64::sqrt(1.0 + 4.0 + 9.0)).abs() < 1e-12);
    }

    #[test]
    fn from_sorted_rejects_unsorted() {
        let err = SparseVector::from_sorted(vec![5, 1], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, SparseVectorError::UnsortedIndices { position: 1 });
    }

    #[test]
    fn from_sorted_rejects_duplicates() {
        let err = SparseVector::from_sorted(vec![3, 3], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, SparseVectorError::UnsortedIndices { position: 1 });
    }

    #[test]
    fn from_sorted_rejects_length_mismatch() {
        let err = SparseVector::from_sorted(vec![1, 2], vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            SparseVectorError::LengthMismatch {
                indices: 2,
                values: 1
            }
        );
    }

    #[test]
    fn from_sorted_rejects_nan() {
        let err = SparseVector::from_sorted(vec![1], vec![f32::NAN]).unwrap_err();
        assert_eq!(err, SparseVectorError::NonFiniteValue { position: 0 });
    }

    #[test]
    fn zeros_are_dropped() {
        let v = SparseVector::from_sorted(vec![1, 2, 3], vec![1.0, 0.0, 2.0]).unwrap();
        assert_eq!(v.indices(), &[1, 3]);
        assert_eq!(v.values(), &[1.0, 2.0]);
    }

    #[test]
    fn from_entries_sorts_and_accumulates() {
        let v = sv(&[(7, 1.0), (2, 3.0), (7, 2.0)]);
        assert_eq!(v.indices(), &[2, 7]);
        assert_eq!(v.values(), &[3.0, 3.0]);
    }

    #[test]
    fn from_entries_cancellation_to_zero_drops_dimension() {
        let v = sv(&[(4, 1.5), (4, -1.5), (9, 2.0)]);
        assert_eq!(v.indices(), &[9]);
    }

    #[test]
    fn binary_from_members_dedups() {
        let v = SparseVector::binary_from_members(vec![9, 1, 9, 4]);
        assert_eq!(v.indices(), &[1, 4, 9]);
        assert!(v.is_binary());
        assert!((v.norm() - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_vector_behaves() {
        let e = SparseVector::empty();
        assert!(e.is_empty());
        assert_eq!(e.norm(), 0.0);
        assert_eq!(e.dim_bound(), 0);
        assert_eq!(e.dot(&sv(&[(1, 1.0)])), 0.0);
        assert_eq!(e.normalized(), e);
    }

    #[test]
    fn dot_product_matches_dense_computation() {
        let a = sv(&[(0, 1.0), (2, 2.0), (5, -1.0)]);
        let b = sv(&[(1, 4.0), (2, 0.5), (5, 2.0)]);
        // Only dims 2 and 5 overlap: 2.0*0.5 + (-1.0)*2.0 = -1.0
        assert!((a.dot(&b) + 1.0).abs() < 1e-12);
        assert!((b.dot(&a) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn dot_galloping_matches_merge() {
        // Short probe vs long target takes the binary-search path
        // (ratio ≥ GALLOP_RATIO).
        let short = sv(&[(10, 1.0), (500, 2.0), (999, 3.0)]);
        let long_entries: Vec<(u32, f32)> = (0..1000).map(|i| (i, (i % 7) as f32 + 1.0)).collect();
        let long = sv(&long_entries);
        let expected: f64 = short
            .iter()
            .map(|(i, v)| f64::from(v) * f64::from(long.get(i)))
            .sum();
        assert!((short.dot(&long) - expected).abs() < 1e-9);
        assert!((long.dot(&short) - expected).abs() < 1e-9);
    }

    #[test]
    fn intersection_size_counts_common_dims() {
        let a = sv(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        let b = sv(&[(2, 5.0), (3, 5.0), (4, 5.0)]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
        assert_eq!(a.intersection_size(&SparseVector::empty()), 0);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = sv(&[(0, 3.0), (1, 4.0)]);
        let n = v.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-6);
        // Direction preserved: 3-4-5 triangle.
        assert!((f64::from(n.get(0)) - 0.6).abs() < 1e-6);
        assert!((f64::from(n.get(1)) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn get_returns_zero_for_absent_dims() {
        let v = sv(&[(2, 7.0)]);
        assert_eq!(v.get(1), 0.0);
        assert_eq!(v.get(2), 7.0);
        assert_eq!(v.get(3), 0.0);
    }

    #[test]
    fn max_value_and_dim_bound() {
        let v = sv(&[(3, 0.5), (10, 2.5), (20, 1.0)]);
        assert_eq!(v.max_value(), 2.5);
        assert_eq!(v.dim_bound(), 21);
    }

    #[test]
    fn builder_accumulates() {
        let mut b = SparseVectorBuilder::with_capacity(4);
        b.add(5, 1.0).add(5, 1.0).add(2, 3.0);
        assert_eq!(b.len(), 3);
        let v = b.build().unwrap();
        assert_eq!(v.get(5), 2.0);
        assert_eq!(v.get(2), 3.0);
    }

    #[test]
    fn debug_format_is_readable() {
        let v = sv(&[(1, 2.0)]);
        let s = format!("{v:?}");
        assert!(s.contains("1:2"), "{s}");
    }

    // ---- the merge kernel against the three-way merge it replaced --------

    /// The scalar three-way merge `dot` ran before the block kernel: the
    /// oracle for the order of additions, hence for every bit of the sum.
    fn dot_reference(a: &SparseVector, b: &SparseVector) -> f64 {
        let (ai, av) = (a.indices(), a.values());
        let (bi, bv) = (b.indices(), b.values());
        let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
        while i < ai.len() && j < bi.len() {
            match ai[i].cmp(&bi[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += f64::from(av[i]) * f64::from(bv[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// The scalar three-way merge behind the old `intersection_size`.
    fn intersection_reference(a: &SparseVector, b: &SparseVector) -> usize {
        let (ai, bi) = (a.indices(), b.indices());
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < ai.len() && j < bi.len() {
            match ai[i].cmp(&bi[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Both kernels against their oracles, in both argument orders.
    fn assert_matches_reference(a: &SparseVector, b: &SparseVector) {
        let want = dot_reference(a, b).to_bits();
        assert_eq!(a.dot(b).to_bits(), want, "dot of {a:?} and {b:?}");
        assert_eq!(b.dot(a).to_bits(), want, "dot is not symmetric");
        let want = intersection_reference(a, b);
        assert_eq!(a.intersection_size(b), want, "|{a:?} ∩ {b:?}|");
        assert_eq!(b.intersection_size(a), want);
    }

    /// Lengths on both sides of every block boundary the kernel has.
    const BOUNDARY_LENGTHS: [usize; 15] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65];

    /// How the second index set lies relative to the first.
    #[derive(Debug, Clone, Copy)]
    enum Layout {
        /// The same indices (the second length is ignored).
        Identical,
        /// The second set starts above the first one's last index.
        DisjointAbove,
        /// Evens against odds: every comparison fails, cursors alternate.
        DisjointInterleaved,
        /// Every second against every third index: matches at multiples of 6.
        Interleaved,
        /// A dense run strictly inside a widely spaced set.
        Inside,
    }

    /// Weights of both signs, a different sequence per `salt`. The dyadic
    /// ones have exact products that keep returning the sum to `+0.0`; the
    /// ragged ones have 48-bit products spread over sixty binades, so every
    /// addition rounds, the sum depends on the order of additions and a
    /// kernel that visits matches out of order is caught.
    fn signed_weights(len: usize, salt: usize, dyadic: bool) -> Vec<f32> {
        const DYADIC: [f32; 6] = [1.0, -1.0, 0.5, -0.5, 2.0, -2.0];
        (0..len)
            .map(|k| {
                if dyadic {
                    DYADIC[(k * (salt + 1) + salt) % 6]
                } else {
                    let mantissa = 1.0 + ((k * 37 + salt * 11) % 101) as f32 / 101.0;
                    let sign = if (k + salt).is_multiple_of(3) {
                        -1.0
                    } else {
                        1.0
                    };
                    sign * mantissa * 2.0f32.powi(((k * 7 + salt) % 31) as i32 - 15)
                }
            })
            .collect()
    }

    fn laid_out(
        layout: Layout,
        la: usize,
        lb: usize,
        dyadic: bool,
    ) -> (SparseVector, SparseVector) {
        let step = |len: usize, scale: u32, offset: u32| -> Vec<u32> {
            (0..len as u32).map(|k| k * scale + offset).collect()
        };
        let (ai, bi) = match layout {
            Layout::Identical => (step(la, 3, 1), step(la, 3, 1)),
            Layout::DisjointAbove => (step(la, 2, 0), step(lb, 2, 2 * la as u32)),
            Layout::DisjointInterleaved => (step(la, 2, 0), step(lb, 2, 1)),
            Layout::Interleaved => (step(la, 2, 0), step(lb, 3, 0)),
            Layout::Inside => (step(la, 8, 0), step(lb, 1, 4 * la as u32)),
        };
        let av = signed_weights(ai.len(), 0, dyadic);
        let bv = signed_weights(bi.len(), 1, dyadic);
        (
            SparseVector::from_sorted(ai, av).expect("valid layout"),
            SparseVector::from_sorted(bi, bv).expect("valid layout"),
        )
    }

    #[test]
    fn kernel_matches_reference_across_block_boundaries() {
        for layout in [
            Layout::Identical,
            Layout::DisjointAbove,
            Layout::DisjointInterleaved,
            Layout::Interleaved,
            Layout::Inside,
        ] {
            for la in BOUNDARY_LENGTHS {
                for lb in BOUNDARY_LENGTHS {
                    for dyadic in [true, false] {
                        let (a, b) = laid_out(layout, la, lb, dyadic);
                        assert_matches_reference(&a, &b);
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_matches_reference_around_the_galloping_cutover() {
        for short in [1usize, 2, 3, 4, 5, 9] {
            for ratio in [GALLOP_RATIO - 1, GALLOP_RATIO, GALLOP_RATIO + 1] {
                for slack in [0usize, 1] {
                    // Every third index of the long vector is in the short
                    // one's reach; the short one hits some and misses some.
                    let long_len = short * ratio + slack;
                    let long = SparseVector::from_sorted(
                        (0..long_len as u32).map(|k| 3 * k).collect(),
                        signed_weights(long_len, 2, slack == 0),
                    )
                    .expect("valid");
                    let stride = (3 * long_len / short) as u32;
                    let probe = SparseVector::from_sorted(
                        (0..short as u32).map(|k| k * stride + k % 2).collect(),
                        signed_weights(short, 3, slack == 0),
                    )
                    .expect("valid");
                    assert_matches_reference(&probe, &long);
                }
            }
        }
    }

    #[test]
    fn cancelling_weights_return_the_sum_to_positive_zero() {
        // +1·1, −1·1, +0.5·2, −2·0.5: the running sum is 1, 0, 1, 0 — and
        // the zero it ends on must be +0.0 as in the scalar merge, on the
        // block path (4 and 8 matches) and on the tail path (2 matches).
        for len in [2usize, 4, 8, 18] {
            let indices: Vec<u32> = (0..len as u32).collect();
            let a = SparseVector::from_sorted(
                indices.clone(),
                [1.0, -1.0, 0.5, -2.0]
                    .into_iter()
                    .cycle()
                    .take(len)
                    .collect(),
            )
            .unwrap();
            let b = SparseVector::from_sorted(
                indices,
                [1.0, 1.0, 2.0, 0.5].into_iter().cycle().take(len).collect(),
            )
            .unwrap();
            assert_eq!(a.dot(&b).to_bits(), 0.0f64.to_bits());
            assert_matches_reference(&a, &b);
        }
    }

    // ---- property tests ---------------------------------------------------

    fn arb_vector(max_dim: u32, max_nnz: usize) -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0..max_dim, -10.0f32..10.0), 0..max_nnz)
            .prop_map(|entries| SparseVector::from_entries(entries).expect("finite entries"))
    }

    /// One side of a kernel case: a boundary length, indices as running
    /// sums of small gaps (dense enough that the two sides keep meeting),
    /// weights of both signs — per side either exact dyadic ones (sums that
    /// cancel) or arbitrary ones over thirty binades (sums that round at
    /// every addition, so they depend on the order).
    fn arb_kernel_side() -> impl Strategy<Value = SparseVector> {
        let dyadic = prop_oneof![Just(1.0f32), Just(-1.0f32), Just(0.5f32), Just(-2.0f32)];
        (
            0usize..BOUNDARY_LENGTHS.len(),
            0u32..2,
            proptest::collection::vec((1u32..4, dyadic, -2.0f32..2.0, -15i32..16), 65..66),
        )
            .prop_map(|(len, exact, steps)| {
                let mut next = 0u32;
                let (indices, values): (Vec<u32>, Vec<f32>) = steps[..BOUNDARY_LENGTHS[len]]
                    .iter()
                    .map(|&(gap, dyadic, mantissa, exponent)| {
                        next += gap;
                        let arbitrary = mantissa * 2.0f32.powi(exponent);
                        (next, if exact == 0 { dyadic } else { arbitrary })
                    })
                    .unzip();
                SparseVector::from_sorted(indices, values).expect("increasing indices")
            })
    }

    proptest! {
        #[test]
        fn prop_dot_is_symmetric(a in arb_vector(64, 24), b in arb_vector(64, 24)) {
            prop_assert_eq!(a.dot(&b).to_bits(), b.dot(&a).to_bits());
        }

        #[test]
        fn prop_dot_with_self_is_norm_squared(a in arb_vector(64, 24)) {
            let d = a.dot(&a);
            prop_assert!((d - a.norm() * a.norm()).abs() < 1e-6 * (1.0 + d.abs()));
        }

        #[test]
        fn prop_cauchy_schwarz(a in arb_vector(64, 24), b in arb_vector(64, 24)) {
            prop_assert!(a.dot(&b).abs() <= a.norm() * b.norm() + 1e-9);
        }

        #[test]
        fn prop_entries_roundtrip_sorted(a in arb_vector(128, 32)) {
            let rebuilt = SparseVector::from_sorted(a.indices().to_vec(), a.values().to_vec())
                .expect("vector invariants hold");
            prop_assert_eq!(a, rebuilt);
        }

        #[test]
        fn prop_normalized_is_unit_or_empty(a in arb_vector(64, 24)) {
            let n = a.normalized();
            if a.norm() > 0.0 {
                prop_assert!((n.norm() - 1.0).abs() < 1e-5);
            } else {
                prop_assert!(n.is_empty());
            }
        }

        #[test]
        fn prop_kernel_matches_reference(a in arb_kernel_side(), b in arb_kernel_side()) {
            assert_matches_reference(&a, &b);
        }

        #[test]
        fn prop_intersection_bounded_by_nnz(a in arb_vector(64, 24), b in arb_vector(64, 24)) {
            let i = a.intersection_size(&b);
            prop_assert!(i <= a.nnz().min(b.nnz()));
        }
    }
}
