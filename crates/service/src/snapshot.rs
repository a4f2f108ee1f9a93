//! Epoch-consistent, immutable read views.
//!
//! A snapshot is a *frozen* index view assembled from a consistent cut
//! across every shard, tagged with a monotonically increasing epoch.
//! Readers clone an `Arc<Snapshot>` (a pointer copy) and then sample
//! against it with zero coordination — writers can keep ingesting and
//! publishing newer epochs; existing snapshots are never mutated and
//! are freed when the last reader drops them.
//!
//! **Two storage tiers** back a snapshot:
//!
//! * **Heap** — the classic `(collection, table)` pair. Payloads live
//!   behind `Arc`s ([`SharedVectorCollection`]), so a snapshot never
//!   copies vector data.
//! * **Mapped** — a [`MappedView`](crate::mapped::MappedView): a
//!   memory-mapped checkpoint base, minus a tombstone set of removed
//!   base rows, plus a heap overlay. The base corpus stays on disk;
//!   estimates sample straight from the mapping. A background
//!   compaction periodically folds overlay + tombstones into a fresh
//!   checkpoint and the view resets to a bare base.
//!
//! Both tiers implement only the storage primitives of [`IndexView`]
//! (size, `N_H`, `same_bucket`, the pair-bucket alias table and member
//! lists), and a snapshot merely dispatches those on its tier; the
//! stratum draws are the trait's provided methods, one body for every
//! backend.
//!
//! **Incremental publication.** Two assembly paths exist:
//!
//! * [`Snapshot::assemble_delta`] — the **O(changed)** path: when an
//!   epoch's delta is append-only (only inserts, all with global ids
//!   past the previous cut — the common ingest pattern), the new
//!   snapshot extends the previous one: payload handles are shared,
//!   and the heap table is built by [`LshTable::from_parts_delta`]
//!   (the mapped tier extends its overlay the same way).
//! * [`Snapshot::assemble`] — the general merge for epochs whose delta
//!   contains removals, upserts, or out-of-order ids: an O(n log n)
//!   re-sort of the live rows, but still pure pointer work (no payload
//!   copies, no re-hashing).
//!
//! **Offline equivalence.** Every path produces a view observationally
//! identical to [`LshTable::build`] over the same live vectors in
//! global-id order, so any estimator run against a snapshot returns
//! *the same value* as an offline run over an equivalently-ordered
//! collection with the same RNG — the property the service's tests pin
//! down, and the reason results from the live engine are directly
//! comparable to the paper's offline numbers. The mapped tier upholds
//! the same contract: at every published `(seed, epoch, τ)` it is
//! bit-identical to the heap tier.

use std::sync::Arc;

use vsj_core::IndexView;
use vsj_lsh::{BucketHasher, LshTable};
use vsj_sampling::AliasTable;
use vsj_vector::{SharedVectorCollection, Similarity, SparseVector, VectorId, VectorStore};

use crate::mapped::{MappedCheckpoint, MappedView, TombstoneSet};
use crate::GlobalId;

/// The storage backing a snapshot's index and payloads.
// Snapshots are only ever held behind an `Arc`, so the size gap
// between the variants never multiplies across copies.
#[allow(clippy::large_enum_variant)]
enum View {
    /// Decoded, heap-resident collection and table.
    Heap {
        collection: SharedVectorCollection,
        table: LshTable,
    },
    /// Memory-mapped checkpoint base plus heap overlay.
    Mapped(MappedView),
}

/// An immutable epoch-consistent view of the engine's live data.
pub struct Snapshot {
    epoch: u64,
    /// Ingest-counter value at the cut (drift reference for the cache).
    ingested: u64,
    /// Snapshot index → global id (ascending).
    ids: Vec<GlobalId>,
    view: View,
}

impl Snapshot {
    /// Builds the empty epoch-0 snapshot.
    pub(crate) fn empty(hasher: Arc<dyn BucketHasher>) -> Self {
        Self {
            epoch: 0,
            ingested: 0,
            ids: Vec::new(),
            view: View::Heap {
                collection: SharedVectorCollection::new(),
                table: LshTable::from_parts(hasher, Vec::new()),
            },
        }
    }

    /// Assembles a heap snapshot from shard rows (`global id`,
    /// precomputed bucket key, vector). Rows may arrive in any order;
    /// they are sorted by global id so the layout is independent of
    /// shard count and removal history.
    ///
    /// Cost: O(n log n) for the sort plus O(n) *pointer* work — the
    /// payloads are `Arc`-shared with the shards, never copied, and the
    /// bucket keys were computed at ingest so no hashing happens here.
    /// This is the general path; epochs whose delta is append-only go
    /// through [`Snapshot::assemble_delta`] instead and skip even the
    /// O(n) regrouping.
    pub(crate) fn assemble(
        epoch: u64,
        ingested: u64,
        hasher: Arc<dyn BucketHasher>,
        mut rows: Vec<(GlobalId, u64, Arc<SparseVector>)>,
    ) -> Self {
        rows.sort_unstable_by_key(|r| r.0);
        let mut ids = Vec::with_capacity(rows.len());
        let mut keys = Vec::with_capacity(rows.len());
        let mut vectors = Vec::with_capacity(rows.len());
        for (global, key, v) in rows {
            ids.push(global);
            keys.push(key);
            vectors.push(v);
        }
        Self {
            epoch,
            ingested,
            ids,
            view: View::Heap {
                collection: SharedVectorCollection::from_arcs(vectors),
                table: LshTable::from_parts(hasher, keys),
            },
        }
    }

    /// Assembles a **mapped** snapshot: the memory-mapped checkpoint
    /// base, minus `tombstones` (removed base rows), plus `tail` rows
    /// ingested after the checkpoint cut (the replayed WAL tail, or a
    /// full republish of the live shard rows).
    ///
    /// The tail may interleave *below* the base gid watermark — an
    /// upsert replacing a tombstoned base row lands there — but it must
    /// be duplicate-free and never collide with a **live** base row.
    /// Returns `None` when that (or the tombstone bound) is violated;
    /// the engine's write paths make violations impossible, so `None`
    /// means a logic bug upstream, surfaced loudly by the caller.
    pub(crate) fn from_mapped(
        epoch: u64,
        ingested: u64,
        k: usize,
        base: Arc<MappedCheckpoint>,
        mut tail: Vec<(GlobalId, u64, Arc<SparseVector>)>,
        tombstones: Arc<TombstoneSet>,
    ) -> Option<Self> {
        tail.sort_unstable_by_key(|r| r.0);
        let base_n = base.len();
        if tombstones
            .rows()
            .last()
            .is_some_and(|&r| r as usize >= base_n)
        {
            return None;
        }
        if !tail.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        for (gid, _, _) in &tail {
            if base
                .find_gid(*gid)
                .is_some_and(|row| !tombstones.contains(row as u32))
            {
                return None;
            }
        }
        let view = MappedView::new(base, k, tombstones, tail);
        // The view's merge walk fixed the dense (gid-ascending) order.
        let ids = (0..view.len() as VectorId)
            .map(|d| view.gid_of(d))
            .collect();
        Some(Self {
            epoch,
            ingested,
            ids,
            view: View::Mapped(view),
        })
    }

    /// Assembles the next epoch **incrementally** from the previous
    /// snapshot plus this epoch's delta rows — O(changed) instead of
    /// O(n): payload handles and untouched table buckets are shared
    /// with `prev` by `Arc`; only the delta is newly indexed. On the
    /// mapped tier the base mapping is shared and the overlay extended.
    ///
    /// Returns `None` (caller falls back to [`Snapshot::assemble`])
    /// unless the delta is *append-only*: inserts only, every global id
    /// strictly greater than `prev`'s largest. That restriction is what
    /// keeps the snapshot bit-identical to a full merge — appended rows
    /// extend the global-id order without renumbering any existing
    /// snapshot-local id.
    pub(crate) fn assemble_delta(
        prev: &Snapshot,
        epoch: u64,
        ingested: u64,
        mut delta: Vec<(GlobalId, u64, Arc<SparseVector>)>,
    ) -> Option<Self> {
        delta.sort_unstable_by_key(|r| r.0);
        if !Self::is_append_only(prev, &delta) {
            return None;
        }
        let mut ids = Vec::with_capacity(prev.ids.len() + delta.len());
        ids.extend_from_slice(&prev.ids);
        ids.extend(delta.iter().map(|r| r.0));
        let view = match &prev.view {
            View::Heap { collection, table } => {
                let mut keys = Vec::with_capacity(delta.len());
                let mut arcs = Vec::with_capacity(delta.len());
                for (_, key, v) in delta {
                    keys.push(key);
                    arcs.push(v);
                }
                View::Heap {
                    collection: collection.extended(arcs),
                    table: LshTable::from_parts_delta(table, &keys),
                }
            }
            View::Mapped(mapped) => View::Mapped(mapped.extended(&delta)),
        };
        Some(Self {
            epoch,
            ingested,
            ids,
            view,
        })
    }

    /// The single source of truth for delta-path eligibility: `delta`
    /// (sorted by global id) is *append-only* on top of this snapshot —
    /// strictly ascending ids, all past this snapshot's largest. The
    /// engine uses this to pick the publish path under the cut, and
    /// [`Snapshot::assemble_delta`] re-checks the same predicate, so
    /// the two can never disagree.
    pub(crate) fn is_append_only(
        prev: &Snapshot,
        delta: &[(GlobalId, u64, Arc<SparseVector>)],
    ) -> bool {
        let floor = prev.ids.last().copied();
        delta.windows(2).all(|w| w[0].0 < w[1].0)
            && delta
                .first()
                .is_none_or(|first| floor.is_none_or(|max| first.0 > max))
    }

    /// The snapshot's epoch (monotonically increasing per engine).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ingest operations applied engine-wide when this cut was taken.
    #[inline]
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Number of vectors in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True when this snapshot serves its base from a memory-mapped
    /// checkpoint rather than heap structures.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.view, View::Mapped(_))
    }

    /// The frozen heap collection (aligned with [`Snapshot::table`]).
    /// The payloads are `Arc`-shared with the shards and, typically,
    /// with the neighboring epochs' snapshots.
    ///
    /// # Panics
    /// Panics on a mapped snapshot — the base payloads live in the
    /// mapping, not in a heap collection. Tier-agnostic readers go
    /// through the [`VectorStore`] impl instead.
    #[inline]
    pub fn collection(&self) -> &SharedVectorCollection {
        match &self.view {
            View::Heap { collection, .. } => collection,
            View::Mapped(_) => panic!("mapped snapshots have no heap collection"),
        }
    }

    /// The frozen bucket-counted heap table.
    ///
    /// # Panics
    /// Panics on a mapped snapshot — the index lives in the mapping.
    /// Tier-agnostic readers go through the [`IndexView`] impl instead.
    #[inline]
    pub fn table(&self) -> &LshTable {
        match &self.view {
            View::Heap { table, .. } => table,
            View::Mapped(_) => panic!("mapped snapshots have no heap table"),
        }
    }

    /// The heap parts, when this snapshot is heap-backed.
    pub(crate) fn heap_parts(&self) -> Option<(&SharedVectorCollection, &LshTable)> {
        match &self.view {
            View::Heap { collection, table } => Some((collection, table)),
            View::Mapped(_) => None,
        }
    }

    /// The mapped view, when this snapshot is map-backed.
    pub(crate) fn mapped_view(&self) -> Option<&MappedView> {
        match &self.view {
            View::Heap { .. } => None,
            View::Mapped(mapped) => Some(mapped),
        }
    }

    /// An owned copy of a vector. A mapped base row is decoded straight
    /// from its payload block and nothing is kept, unlike
    /// [`VectorStore::vector`].
    pub(crate) fn to_vector(&self, id: VectorId) -> SparseVector {
        match &self.view {
            View::Heap { collection, .. } => collection.vector(id).clone(),
            View::Mapped(mapped) => mapped.to_vector(id),
        }
    }

    /// Global id of a snapshot-local vector id.
    #[inline]
    pub fn global_of(&self, id: VectorId) -> GlobalId {
        self.ids[id as usize]
    }

    /// All global ids, ascending (parallel to the view's rows).
    #[inline]
    pub fn global_ids(&self) -> &[GlobalId] {
        &self.ids
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("n", &self.len())
            .field("nh", &IndexView::nh(self))
            .field("mapped", &self.is_mapped())
            .field("ingested", &self.ingested)
            .finish()
    }
}

/// Snapshots are index views: estimators run against them directly,
/// whichever tier backs them. Only the storage primitives dispatch on
/// the tier; the draws are the view's provided methods.
impl IndexView for Snapshot {
    #[inline]
    fn len(&self) -> usize {
        Snapshot::len(self)
    }

    #[inline]
    fn nh(&self) -> u64 {
        match &self.view {
            View::Heap { table, .. } => table.nh(),
            View::Mapped(mapped) => mapped.nh(),
        }
    }

    #[inline]
    fn k(&self) -> usize {
        match &self.view {
            View::Heap { table, .. } => table.k(),
            View::Mapped(mapped) => mapped.k(),
        }
    }

    #[inline]
    fn same_bucket(&self, a: VectorId, b: VectorId) -> bool {
        match &self.view {
            View::Heap { table, .. } => table.same_bucket(a, b),
            View::Mapped(mapped) => mapped.same_bucket(a, b),
        }
    }

    #[inline]
    fn pair_alias(&self) -> Option<&AliasTable> {
        match &self.view {
            View::Heap { table, .. } => table.pair_alias(),
            View::Mapped(mapped) => mapped.pair_alias(),
        }
    }

    #[inline]
    fn pair_bucket_pick(
        &self,
        col: usize,
        pick: impl FnOnce(usize) -> (usize, usize),
    ) -> (VectorId, VectorId) {
        match &self.view {
            View::Heap { table, .. } => table.pair_bucket_pick(col, pick),
            View::Mapped(mapped) => mapped.pair_bucket_pick(col, pick),
        }
    }
}

/// Snapshots are vector stores. Similarity — what the sampling passes
/// ask of a store — reads each tier's rows where they lie: heap `Arc`s,
/// or, on the mapped tier, base rows borrowed from the checkpoint's
/// payload blocks and overlay rows from the heap, with no decode. The
/// `vector` accessor is off the served path; on the mapped tier its
/// first call decodes the whole base onto the heap.
impl VectorStore for Snapshot {
    #[inline]
    fn len(&self) -> usize {
        Snapshot::len(self)
    }

    #[inline]
    fn vector(&self, id: VectorId) -> &SparseVector {
        match &self.view {
            View::Heap { collection, .. } => collection.vector(id),
            View::Mapped(mapped) => mapped.vector(id),
        }
    }

    #[inline]
    fn sim<S: Similarity + ?Sized>(&self, measure: &S, a: VectorId, b: VectorId) -> f64 {
        match &self.view {
            View::Heap { collection, .. } => collection.sim(measure, a, b),
            View::Mapped(mapped) => measure.sim_rows(mapped.row(a), mapped.row(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_lsh::{Composite, MinHashFamily};
    use vsj_sampling::Xoshiro256;
    use vsj_vector::VectorCollection;

    fn hasher() -> Arc<dyn BucketHasher> {
        Arc::new(Composite::derive(MinHashFamily::new(), 2, 0, 8))
    }

    fn v(members: &[u32]) -> Arc<SparseVector> {
        Arc::new(SparseVector::binary_from_members(members.to_vec()))
    }

    #[test]
    fn assemble_sorts_by_global_id_and_matches_build() {
        let rows = vec![
            (30, hasher().key(&v(&[1, 2])), v(&[1, 2])),
            (10, hasher().key(&v(&[1, 2])), v(&[1, 2])),
            (20, hasher().key(&v(&[5, 6])), v(&[5, 6])),
        ];
        let snap = Snapshot::assemble(3, 7, hasher(), rows);
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.ingested(), 7);
        assert_eq!(snap.global_ids(), &[10, 20, 30]);
        assert_eq!(snap.global_of(2), 30);
        // Equivalent offline build: same vectors in global-id order.
        let coll = VectorCollection::from_vectors(vec![
            (*v(&[1, 2])).clone(),
            (*v(&[5, 6])).clone(),
            (*v(&[1, 2])).clone(),
        ]);
        let built = LshTable::build(&coll, hasher(), Some(1));
        assert_eq!(snap.table().nh(), built.nh());
        assert_eq!(snap.table().num_buckets(), built.num_buckets());
        for id in 0..3u32 {
            assert_eq!(snap.table().key_of(id), built.key_of(id));
        }
        // The two duplicates (globals 10 and 30 → locals 0 and 2) share
        // a bucket in the snapshot view.
        assert!(IndexView::same_bucket(&snap, 0, 2));
        assert_eq!(IndexView::nh(&snap), 1);
    }

    #[test]
    fn assemble_shares_payloads_instead_of_copying() {
        let payload = v(&[1, 2, 3]);
        let rows = vec![(5, hasher().key(&payload), payload.clone())];
        let snap = Snapshot::assemble(1, 1, hasher(), rows);
        assert!(
            Arc::ptr_eq(snap.collection().arc(0), &payload),
            "snapshot must hold the shard's Arc, not a copy"
        );
    }

    #[test]
    fn delta_assembly_matches_full_merge() {
        let base_rows: Vec<_> = [(1u64, &[1, 2][..]), (4, &[5, 6]), (9, &[1, 2])]
            .iter()
            .map(|&(g, m)| (g, hasher().key(&v(m)), v(m)))
            .collect();
        let delta_rows: Vec<_> = [(12u64, &[1, 2][..]), (15, &[9, 9])]
            .iter()
            .map(|&(g, m)| (g, hasher().key(&v(m)), v(m)))
            .collect();
        let prev = Snapshot::assemble(1, 3, hasher(), base_rows.clone());
        let next = Snapshot::assemble_delta(&prev, 2, 5, delta_rows.clone())
            .expect("append-only delta must take the incremental path");
        let mut all = base_rows;
        all.extend(delta_rows);
        let merged = Snapshot::assemble(2, 5, hasher(), all);
        assert_eq!(next.global_ids(), merged.global_ids());
        assert_eq!(next.table().nh(), merged.table().nh());
        assert_eq!(next.len(), merged.len());
        // Identical sampling streams ⇒ identical estimates downstream.
        let mut r1 = Xoshiro256::seeded(8);
        let mut r2 = Xoshiro256::seeded(8);
        for _ in 0..200 {
            assert_eq!(
                next.table().sample_same_bucket_pair(&mut r1),
                merged.table().sample_same_bucket_pair(&mut r2)
            );
            assert_eq!(
                next.table().sample_cross_bucket_pair(&mut r1),
                merged.table().sample_cross_bucket_pair(&mut r2)
            );
        }
        // And the epoch chain shares payloads with its base.
        for local in 0..prev.len() as u32 {
            assert!(
                Arc::ptr_eq(prev.collection().arc(local), next.collection().arc(local)),
                "payload {local} was copied across epochs"
            );
        }
    }

    #[test]
    fn delta_assembly_rejects_non_appends() {
        let prev = Snapshot::assemble(1, 2, hasher(), vec![(10, hasher().key(&v(&[1])), v(&[1]))]);
        // Id below the floor → fallback.
        let low = vec![(3, hasher().key(&v(&[2])), v(&[2]))];
        assert!(Snapshot::assemble_delta(&prev, 2, 3, low).is_none());
        // Duplicate ids inside the delta → fallback.
        let dup = vec![
            (11, hasher().key(&v(&[2])), v(&[2])),
            (11, hasher().key(&v(&[3])), v(&[3])),
        ];
        assert!(Snapshot::assemble_delta(&prev, 2, 3, dup).is_none());
        // Empty delta is a valid (trivial) append.
        let same = Snapshot::assemble_delta(&prev, 2, 3, Vec::new()).unwrap();
        assert_eq!(same.len(), 1);
        assert_eq!(same.epoch(), 2);
    }

    #[test]
    fn empty_snapshot_is_epoch_zero() {
        let snap = Snapshot::empty(hasher());
        assert_eq!(snap.epoch(), 0);
        assert!(snap.is_empty());
        assert!(!snap.is_mapped());
        assert_eq!(IndexView::total_pairs(&snap), 0);
    }
}
