//! Arc-shared vector storage — the payload substrate of incremental
//! epoch publication.
//!
//! The service layer's epoch snapshots and mutable shards both need the
//! same vector payloads, but a snapshot must be immutable while shards
//! keep mutating. Deep-copying every [`SparseVector`] into each snapshot
//! (what the original `publish()` did) makes publication O(corpus
//! bytes); holding the payloads behind [`Arc`]s makes it pointer work:
//!
//! * [`SharedVectorCollection`] — an ordered collection over
//!   `Arc<SparseVector>` payloads. Cloning the collection, or extending
//!   a clone with a delta, never copies vector data — only refcounted
//!   pointers move.
//! * [`VectorStore`] — the read trait estimators actually need
//!   (`len` + `vector` + derived `sim`), implemented by both
//!   [`VectorCollection`] and [`SharedVectorCollection`], so the same
//!   estimator code runs against an owned offline collection or an
//!   Arc-shared epoch snapshot.

use std::sync::Arc;

use crate::collection::VectorCollection;
use crate::similarity::Similarity;
use crate::sparse::SparseVector;
use crate::{pairs_of, VectorId};

/// Read access to an ordered vector database `V = {v1, ..., vn}`.
///
/// This is the surface every sampling estimator needs from the
/// collection: the size `n` and id → vector resolution (from which
/// pairwise similarity derives). Who *owns* the payloads — an inline
/// [`VectorCollection`] or an Arc-sharing [`SharedVectorCollection`] —
/// is invisible behind it, which is what lets service snapshots share
/// payloads with the mutable shards instead of deep-copying them.
pub trait VectorStore {
    /// Number of vectors `n = |V|`.
    fn len(&self) -> usize;

    /// True when the store holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vector with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range; ids come from the store itself,
    /// so an out-of-range id is an upstream logic error.
    fn vector(&self, id: VectorId) -> &SparseVector;

    /// Total number of unordered pairs `M = C(n, 2)`.
    fn total_pairs(&self) -> u64 {
        pairs_of(self.len() as u64)
    }

    /// Similarity between two members by id — the call every estimator
    /// scores a sampled pair with. A store whose rows are not
    /// [`SparseVector`]s (a memory-mapped checkpoint) overrides it to
    /// score its [`Row`](crate::Row)s in place through
    /// [`Similarity::sim_rows`].
    #[inline]
    fn sim<S: Similarity + ?Sized>(&self, measure: &S, a: VectorId, b: VectorId) -> f64 {
        measure.sim(self.vector(a), self.vector(b))
    }
}

impl VectorStore for VectorCollection {
    #[inline]
    fn len(&self) -> usize {
        VectorCollection::len(self)
    }

    #[inline]
    fn vector(&self, id: VectorId) -> &SparseVector {
        VectorCollection::vector(self, id)
    }
}

impl<T: VectorStore + ?Sized> VectorStore for &T {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn vector(&self, id: VectorId) -> &SparseVector {
        (**self).vector(id)
    }

    #[inline]
    fn sim<S: Similarity + ?Sized>(&self, measure: &S, a: VectorId, b: VectorId) -> f64 {
        (**self).sim(measure, a, b)
    }
}

/// Maximum payload runs before [`SharedVectorCollection::extended`]
/// coalesces them into one — bounds per-lookup run-search depth while
/// keeping the per-epoch extension cost O(delta) (the flatten is an
/// O(n) pointer pass amortized over this many epochs).
const COALESCE_RUNS: usize = 32;

/// An ordered collection of `Arc`-shared sparse vectors, stored as a
/// short list of immutable, `Arc`-shared **runs**.
///
/// Same id discipline as [`VectorCollection`] (dense [`VectorId`]s
/// `0..n` in insertion order) but nothing is owned exclusively: runs
/// are shared between collections, and the payloads inside them are
/// shared with whoever else holds them (mutable shards, neighboring
/// epoch snapshots, checkpoint rows).
/// [`SharedVectorCollection::extended`] produces a new collection that
/// reuses every existing run *by pointer* and appends one run holding
/// the delta — the O(changed) payload half of epoch publication.
#[derive(Debug, Clone, Default)]
pub struct SharedVectorCollection {
    runs: Vec<Arc<Vec<Arc<SparseVector>>>>,
    /// Id of the first vector of each run (parallel to `runs`).
    starts: Vec<u32>,
    len: u32,
}

impl SharedVectorCollection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a collection from already-shared payloads (one run).
    pub fn from_arcs(vectors: Vec<Arc<SparseVector>>) -> Self {
        let len = u32::try_from(vectors.len()).expect("collection exceeds u32 ids");
        Self {
            runs: vec![Arc::new(vectors)],
            starts: vec![0],
            len,
        }
    }

    /// Run containing `id`.
    #[inline]
    fn run_of(&self, id: VectorId) -> usize {
        if self.runs.len() == 1 {
            0
        } else {
            self.starts.partition_point(|&s| s <= id) - 1
        }
    }

    /// Appends a shared vector, returning its id.
    pub fn push(&mut self, v: Arc<SparseVector>) -> VectorId {
        let id = self.len;
        assert!(id != u32::MAX, "collection exceeds u32 ids");
        match self.runs.last_mut() {
            Some(run) => Arc::make_mut(run).push(v),
            None => {
                self.runs.push(Arc::new(vec![v]));
                self.starts.push(0);
            }
        }
        self.len += 1;
        id
    }

    /// A new collection holding this one's payloads followed by `tail`:
    /// existing runs are reused by `Arc` (O(#runs), not O(n)) and the
    /// tail becomes one appended run — no payload is copied. Runs are
    /// flattened once the list passes an internal bound, keeping lookups
    /// shallow.
    pub fn extended<I>(&self, tail: I) -> Self
    where
        I: IntoIterator<Item = Arc<SparseVector>>,
    {
        let tail: Vec<Arc<SparseVector>> = tail.into_iter().collect();
        let added = u32::try_from(tail.len()).expect("collection exceeds u32 ids");
        let len = self
            .len
            .checked_add(added)
            .expect("collection exceeds u32 ids");
        let mut runs = Vec::with_capacity(self.runs.len() + 1);
        let mut starts = Vec::with_capacity(self.runs.len() + 1);
        runs.extend(self.runs.iter().cloned());
        starts.extend_from_slice(&self.starts);
        if !tail.is_empty() {
            starts.push(self.len);
            runs.push(Arc::new(tail));
        }
        if runs.len() > COALESCE_RUNS {
            let mut flat = Vec::with_capacity(len as usize);
            for run in &runs {
                flat.extend(run.iter().cloned());
            }
            return Self::from_arcs(flat);
        }
        Self { runs, starts, len }
    }

    /// The shared handle of a vector (for re-sharing into another owner,
    /// e.g. a checkpoint row or the next epoch's snapshot).
    #[inline]
    pub fn arc(&self, id: VectorId) -> &Arc<SparseVector> {
        let run = self.run_of(id);
        &self.runs[run][(id - self.starts[run]) as usize]
    }

    /// Iterates the shared handles in id order.
    pub fn iter_arcs(&self) -> impl Iterator<Item = &Arc<SparseVector>> {
        self.runs.iter().flat_map(|run| run.iter())
    }

    /// Iterates `(id, vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VectorId, &SparseVector)> {
        self.iter_arcs()
            .enumerate()
            .map(|(i, v)| (i as VectorId, v.as_ref()))
    }

    /// Deep-copies into an owned [`VectorCollection`] (offline tooling
    /// that needs exclusive payloads; the service itself never does
    /// this).
    pub fn to_owned_collection(&self) -> VectorCollection {
        VectorCollection::from_vectors(self.iter_arcs().map(|v| (**v).clone()).collect())
    }
}

impl VectorStore for SharedVectorCollection {
    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn vector(&self, id: VectorId) -> &SparseVector {
        self.arc(id)
    }
}

impl From<VectorCollection> for SharedVectorCollection {
    /// Moves the owned payloads behind `Arc`s (no vector-data copies).
    fn from(collection: VectorCollection) -> Self {
        Self::from_arcs(
            collection
                .into_vectors()
                .into_iter()
                .map(Arc::new)
                .collect(),
        )
    }
}

impl FromIterator<Arc<SparseVector>> for SharedVectorCollection {
    fn from_iter<T: IntoIterator<Item = Arc<SparseVector>>>(iter: T) -> Self {
        Self::from_arcs(iter.into_iter().collect())
    }
}

impl std::ops::Index<VectorId> for SharedVectorCollection {
    type Output = SparseVector;

    fn index(&self, id: VectorId) -> &SparseVector {
        self.arc(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::Cosine;

    fn sv(entries: &[(u32, f32)]) -> Arc<SparseVector> {
        Arc::new(SparseVector::from_entries(entries.to_vec()).expect("valid test vector"))
    }

    fn sample() -> SharedVectorCollection {
        SharedVectorCollection::from_arcs(vec![
            sv(&[(0, 1.0), (1, 1.0)]),
            sv(&[(0, 1.0)]),
            sv(&[(2, 2.0), (3, 2.0)]),
        ])
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut c = SharedVectorCollection::new();
        assert_eq!(c.push(sv(&[(0, 1.0)])), 0);
        assert_eq!(c.push(sv(&[(1, 1.0)])), 1);
        assert_eq!(VectorStore::len(&c), 2);
        assert!(!VectorStore::is_empty(&c));
    }

    #[test]
    fn store_trait_agrees_with_owned_collection() {
        let shared = sample();
        let owned = shared.to_owned_collection();
        assert_eq!(VectorStore::len(&shared), VectorStore::len(&owned));
        assert_eq!(shared.total_pairs(), owned.total_pairs());
        for id in 0..3u32 {
            assert_eq!(
                VectorStore::vector(&shared, id),
                VectorStore::vector(&owned, id)
            );
        }
        let s1 = VectorStore::sim(&shared, &Cosine, 0, 1);
        let s2 = VectorStore::sim(&owned, &Cosine, 0, 1);
        assert_eq!(s1.to_bits(), s2.to_bits(), "sim must be bit-identical");
    }

    #[test]
    fn extended_shares_existing_payloads() {
        let base = sample();
        let next = base.extended([sv(&[(9, 1.0)])]);
        assert_eq!(VectorStore::len(&next), 4);
        for id in 0..3u32 {
            assert!(
                Arc::ptr_eq(base.arc(id), next.arc(id)),
                "payload {id} was copied, not shared"
            );
        }
        // The parent is untouched.
        assert_eq!(VectorStore::len(&base), 3);
    }

    #[test]
    fn clone_is_pointer_work() {
        let base = sample();
        let cloned = base.clone();
        for id in 0..3u32 {
            assert!(Arc::ptr_eq(base.arc(id), cloned.arc(id)));
        }
    }

    #[test]
    fn from_owned_collection_wraps_without_reordering() {
        let owned = VectorCollection::from_vectors(vec![
            (*sv(&[(0, 1.0)])).clone(),
            (*sv(&[(5, 2.0)])).clone(),
        ]);
        let shared = SharedVectorCollection::from(owned.clone());
        for id in 0..2u32 {
            assert_eq!(shared[id], owned[id]);
        }
    }

    #[test]
    fn reference_store_is_transparent() {
        let c = sample();
        let by_ref: &SharedVectorCollection = &c;
        assert_eq!(VectorStore::len(&by_ref), VectorStore::len(&c));
        assert_eq!(
            VectorStore::sim(&by_ref, &Cosine, 0, 2).to_bits(),
            VectorStore::sim(&c, &Cosine, 0, 2).to_bits()
        );
    }
}
