//! The index-view abstraction estimators sample through.
//!
//! The paper's estimators only ever interact with the LSH index through a
//! narrow read surface: the stratum constants (`N_H`, `N_L`, `M`), the
//! composite width `k`, the same-bucket predicate `H`, and the sampling
//! draws of Algorithm 1. [`IndexView`] names exactly that surface, so the
//! estimators are decoupled from *who owns* the index — an offline
//! [`LshTable`](vsj_lsh::LshTable) or an epoch snapshot of the
//! `vsj-service` engine on either storage tier.
//!
//! The trait is defined next to the table, in [`vsj_lsh::view`], where
//! the draws are written once as provided methods over a backend's
//! storage primitives; this module re-exports it under the name the
//! estimators (and their callers) import.

/// Read surface of a bucket-counted LSH table (one hash table `D_g`).
///
/// # Example
///
/// The same estimator code runs against any view — here an owned
/// [`LshTable`](vsj_lsh::LshTable), but a `vsj-service` epoch snapshot
/// works identically:
///
/// ```
/// use std::sync::Arc;
/// use vsj_core::{IndexView, LshSs};
/// use vsj_lsh::{Composite, LshTable, MinHashFamily};
/// use vsj_sampling::Xoshiro256;
/// use vsj_vector::{Jaccard, SparseVector, VectorCollection};
///
/// let coll = VectorCollection::from_vectors(
///     (0..40u32)
///         .map(|i| SparseVector::binary_from_members(vec![i % 8, 100 + i % 5]))
///         .collect(),
/// );
/// let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 7, 0, 8));
/// let table = LshTable::build(&coll, hasher, Some(1));
///
/// // The strata partition all C(n, 2) pairs...
/// assert_eq!(table.nh() + table.nl(), table.total_pairs());
///
/// // ...and estimators only ever touch the index through the view.
/// let est = LshSs::with_defaults(IndexView::len(&table));
/// let answer = est.estimate(&coll, &table, &Jaccard, 0.8, &mut Xoshiro256::seeded(1));
/// assert!(answer.value >= 0.0);
/// ```
pub use vsj_lsh::IndexView;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vsj_lsh::{Composite, LshTable, MinHashFamily};
    use vsj_vector::{SparseVector, VectorCollection};

    fn table() -> LshTable {
        let coll = VectorCollection::from_vectors(
            (0..20u32)
                .map(|i| SparseVector::binary_from_members(vec![i % 4, 50 + i % 4]))
                .collect(),
        );
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 5, 0, 8));
        LshTable::build(&coll, hasher, Some(1))
    }

    #[test]
    fn lsh_table_view_delegates() {
        let t = table();
        assert_eq!(IndexView::len(&t), LshTable::len(&t));
        assert_eq!(IndexView::nh(&t), LshTable::nh(&t));
        assert_eq!(t.nl(), t.total_pairs() - t.nh());
        assert_eq!(t.total_pairs(), 190);
        assert_eq!(IndexView::k(&t), t.hasher().k());
        assert!(!IndexView::is_empty(&t));
    }

    #[test]
    fn reference_view_is_transparent() {
        let t = table();
        let by_ref: &LshTable = &t;
        assert_eq!(IndexView::nh(&by_ref), IndexView::nh(&t));
        assert_eq!(IndexView::k(&by_ref), IndexView::k(&t));
        let (a, b) = (0u32, 1u32);
        assert_eq!(
            IndexView::same_bucket(&by_ref, a, b),
            IndexView::same_bucket(&t, a, b)
        );
    }
}
