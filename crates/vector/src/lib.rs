//! Sparse vector kernel for vector similarity joins.
//!
//! This crate is the data-model substrate of the `vsj` workspace, the
//! reproduction of *"Similarity Join Size Estimation using Locality
//! Sensitive Hashing"* (Lee, Ng, Shim; PVLDB 4(6), 2011). The paper's VSJ
//! problem (Definition 1) operates on a collection of real-valued vectors
//! under cosine similarity; its SSJ predecessor operates on sets under
//! Jaccard similarity. Everything downstream (LSH indexing, sampling
//! estimators, exact joins) is built on the types defined here:
//!
//! * [`SparseVector`] — an immutable sparse vector with sorted `u32`
//!   coordinates and `f32` weights. Sets are represented as binary vectors
//!   (all weights 1), exactly as the paper treats a set as "a special case
//!   of a binary vector" (§1).
//! * [`Row`] — a borrowed row, from a [`SparseVector`] or from a stored
//!   row's block (`nnz | indices | values`), so a memory-mapped row is
//!   scored in place. The [`row`] module is the block's one codec.
//! * [`Similarity`] implementations — [`Cosine`] (the paper's measure)
//!   and [`Jaccard`] (for the SSJ baseline track), written once over
//!   [`Row`].
//! * [`VectorCollection`] — the vector database `V = {v1, ..., vn}` with
//!   summary statistics.
//! * [`SharedVectorCollection`] / [`VectorStore`] — rows stored as
//!   payload blocks in `Arc`-shared slabs (a service epoch snapshot's
//!   rows, scored in place), and the read trait that lets estimators run
//!   against either collection flavor.
//!
//! Similarities are computed in `f64` from `f32` storage: collections are
//! large (storage matters) but estimator math is sensitive to cancellation
//! (Eq. 1 of the paper divides by a difference of probabilities).
//!
//! The crate's one `unsafe` block is the call into the merge kernel's
//! AVX2 step, made only after the CPU was found to have AVX2; everything
//! else is safe Rust, which `#![deny(unsafe_code)]` keeps so.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod collection;
mod merge;
pub mod row;
pub mod shared;
pub mod similarity;
pub mod sparse;

pub use collection::{CollectionStats, VectorCollection};
pub use merge::scoring_kernel;
pub use row::Row;
pub use shared::{EncodedRow, Payload, SharedVectorCollection, VectorStore};
pub use similarity::{AngularKernel, Cosine, Jaccard, Similarity};
pub use sparse::{SparseVector, SparseVectorBuilder};

/// Identifier of a vector inside a [`VectorCollection`].
///
/// `u32` bounds collections to ~4.29 billion vectors, far above the paper's
/// largest dataset (DBLP, n = 794,016) while halving index memory relative
/// to `usize` ids.
pub type VectorId = u32;

/// Number of unordered pairs `C(n, 2)` as an exact `u64`.
///
/// Twin of `vsj_sampling::pair_count` — kept as two dependency-free
/// copies on purpose (neither foundation crate depends on the other);
/// the `vsj-lsh` test suite pins their agreement.
///
/// This is the paper's `M` (with `n = |V|`) and `N_H` building block
/// (`N_H = Σ_j C(b_j, 2)`). Computed as `n * (n - 1) / 2` with the even
/// factor divided first so the intermediate cannot overflow for any
/// `n ≤ u32::MAX`.
#[inline]
pub fn pairs_of(n: u64) -> u64 {
    if n.is_multiple_of(2) {
        (n / 2) * n.saturating_sub(1)
    } else {
        n * (n.saturating_sub(1) / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_of_small_values() {
        assert_eq!(pairs_of(0), 0);
        assert_eq!(pairs_of(1), 0);
        assert_eq!(pairs_of(2), 1);
        assert_eq!(pairs_of(3), 3);
        assert_eq!(pairs_of(4), 6);
        assert_eq!(pairs_of(5), 10);
    }

    #[test]
    fn pairs_of_paper_scale() {
        // DBLP: n = 794,016 -> M ≈ 3.15e11 (the paper's "more than 100
        // billion true pairs at τ=0.1" is consistent with this M).
        assert_eq!(pairs_of(794_016), 794_016u64 * 794_015 / 2);
    }

    #[test]
    fn pairs_of_no_overflow_at_u32_max() {
        let n = u32::MAX as u64;
        // n(n-1)/2 for n = 2^32-1 fits comfortably in u64.
        let expected = n * ((n - 1) / 2);
        assert_eq!(pairs_of(n), expected);
    }
}
