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
//! * **Heap** — the classic `(collection, table)` pair. Rows live as
//!   payload blocks in `Arc`-shared slabs, laid out like a checkpoint's
//!   payload section ([`SharedVectorCollection`]), and a sampled pair is
//!   scored from the two blocks in place, as on the mapped tier.
//! * **Mapped** — a [`MappedView`](crate::mapped::MappedView): a
//!   memory-mapped checkpoint base, minus a tombstone set of removed
//!   base rows, plus a heap overlay. The base corpus stays on disk;
//!   estimates sample straight from the mapping. A background
//!   compaction periodically folds overlay + tombstones into a fresh
//!   checkpoint and the view resets to a bare base.
//!
//! Both tiers keep their buckets in one [`BucketSlab`], which answers
//! the [`IndexView`] storage primitives (`N_H`, the pair-bucket alias
//! table and member lists) whichever tier built it; `same_bucket`
//! compares two rows' keys. The stratum draws are the trait's provided
//! methods, one body for every backend.
//!
//! **Incremental publication.** Two assembly paths exist:
//!
//! * [`Snapshot::assemble_delta`] — the incremental path: when an
//!   epoch's delta is append-only (only inserts, all with global ids
//!   past the previous cut — the common ingest pattern), the new
//!   snapshot extends the previous one: its slabs are shared, the
//!   appended rows are copied into one new slab, and the heap table is
//!   built by [`LshTable::from_parts_delta`], one linear merge of the
//!   previous bucket slab with the delta's keys (the mapped tier
//!   extends its overlay the same way).
//! * [`Snapshot::assemble`] — the general merge for epochs whose delta
//!   contains removals, upserts, or out-of-order ids: an O(n log n)
//!   re-sort of the live rows and a rebuilt row directory. A row an
//!   earlier cut published keeps its block (found by a global-id merge
//!   walk of the previous snapshot), only the cut's new rows are
//!   encoded, and nothing is re-hashed.
//!
//! Either way the shards hand their pending payloads over at the cut and
//! keep none, so a published row's payload is held once, in a slab.
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
//!
//! **Memoized answers.** The engine samples every pass over a snapshot
//! from an RNG keyed by the snapshot's epoch alone, so an answer is a
//! pure function of (snapshot, τ). Each snapshot remembers the answers
//! computed on it, by τ, in its own [`Memo`], and a repeat is served from there with the same
//! bits a fresh pass would give. Every snapshot — a publish, a
//! checkpoint cut, a compaction re-map — starts with an empty memo, so
//! an answer is only ever served by the snapshot it was computed on.

use std::sync::Arc;

use vsj_core::IndexView;
use vsj_lsh::{BucketHasher, BucketSlab, LshTable};
use vsj_sampling::AliasTable;
use vsj_vector::{
    EncodedRow, Payload, SharedVectorCollection, Similarity, SparseVector, VectorId, VectorStore,
};

use crate::cache::Memo;
use crate::mapped::{MappedCheckpoint, MappedView, TombstoneSet};
use crate::shard::{AppendedRow, ShardRow};
use crate::GlobalId;

/// The storage backing a snapshot's index and payloads.
// Snapshots are only ever held behind an `Arc`, so the size gap
// between the variants never multiplies across copies.
#[allow(clippy::large_enum_variant)]
enum View {
    /// The rows' global ids (ascending), heap payload slabs and table.
    Heap {
        ids: Vec<GlobalId>,
        collection: SharedVectorCollection,
        table: LshTable,
    },
    /// Memory-mapped checkpoint base plus heap overlay.
    Mapped(MappedView),
}

/// An immutable epoch-consistent view of the engine's live data.
pub struct Snapshot {
    epoch: u64,
    /// Ingest-counter value at the cut (the publish lag's reference,
    /// recorded in checkpoint metadata).
    ingested: u64,
    view: View,
    /// Answers computed on this snapshot.
    memo: Memo,
}

impl Snapshot {
    /// Builds the empty epoch-0 snapshot.
    pub(crate) fn empty(hasher: Arc<dyn BucketHasher>) -> Self {
        Self {
            epoch: 0,
            ingested: 0,
            view: View::Heap {
                ids: Vec::new(),
                collection: SharedVectorCollection::new(),
                table: LshTable::from_parts(hasher, Vec::new()),
            },
            memo: Memo::default(),
        }
    }

    /// Assembles a heap snapshot from the live shard rows of a full cut
    /// (`global id`, precomputed bucket key, pending payload) on top of
    /// `prev`, the previous heap cut. Rows may arrive in any order; they
    /// are sorted by global id so the layout is independent of shard
    /// count and removal history.
    ///
    /// Cost: O(n log n) for the sort plus an O(n) directory rebuild. A
    /// row without a payload keeps the block it occupies in `prev`
    /// (found by one merge walk over both gid orders), only the rows
    /// with payloads are copied in, and the bucket keys were computed at
    /// ingest so no hashing happens here. This is the general path;
    /// epochs whose delta is append-only go through
    /// [`Snapshot::assemble_delta`] instead and skip even the O(n)
    /// regrouping.
    ///
    /// # Panics
    /// Panics if `prev` is mapped, or holds no row for a payload-less
    /// gid.
    pub(crate) fn assemble(
        prev: &Snapshot,
        epoch: u64,
        ingested: u64,
        hasher: Arc<dyn BucketHasher>,
        mut rows: Vec<ShardRow>,
    ) -> Self {
        rows.sort_unstable_by_key(|r| r.0);
        let View::Heap {
            ids, collection, ..
        } = &prev.view
        else {
            panic!("a heap cut follows a heap cut");
        };
        let collection = payloads(ids, collection, &rows);
        Self {
            epoch,
            ingested,
            view: View::Heap {
                ids: rows.iter().map(|r| r.0).collect(),
                collection,
                table: LshTable::from_parts(hasher, rows.iter().map(|r| r.1).collect()),
            },
            memo: Memo::default(),
        }
    }

    /// A heap snapshot of unpublished rows, as the first full cut of a
    /// fresh engine assembles it.
    #[cfg(test)]
    pub(crate) fn of_rows(
        epoch: u64,
        ingested: u64,
        hasher: Arc<dyn BucketHasher>,
        rows: Vec<(GlobalId, u64, Arc<SparseVector>)>,
    ) -> Self {
        let rows = rows
            .into_iter()
            .map(|(g, k, v)| (g, k, Some(EncodedRow::new(&v))))
            .collect();
        Self::assemble(&Self::empty(hasher.clone()), epoch, ingested, hasher, rows)
    }

    /// The heap snapshot of a validated checkpoint: its payload section
    /// copied once into one slab, its offsets as the row directory, and
    /// the norms the validation scan recorded, and its bucket slab copied
    /// once; nothing is decoded, re-hashed or regrouped.
    pub(crate) fn from_checkpoint(base: &MappedCheckpoint, hasher: Arc<dyn BucketHasher>) -> Self {
        let meta = base.meta();
        let keys = (0..base.len()).map(|i| base.key(i)).collect();
        Self {
            epoch: meta.epoch,
            ingested: meta.ingested,
            view: View::Heap {
                ids: (0..base.len()).map(|i| base.gid(i)).collect(),
                collection: base.to_collection(),
                table: LshTable::from_slab(hasher, keys, base.to_slab()),
            },
            memo: Memo::default(),
        }
    }

    /// Assembles a **mapped** snapshot: the memory-mapped checkpoint
    /// base, minus `tombstones` (removed base rows), plus `tail` rows
    /// ingested after the checkpoint cut (the replayed WAL tail, or a
    /// full republish of the live shard rows). A tail row without a
    /// payload keeps its block in `prev`, the previous cut's overlay.
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
        base: Arc<MappedCheckpoint>,
        mut tail: Vec<ShardRow>,
        tombstones: Arc<TombstoneSet>,
        prev: Option<&MappedView>,
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
        let overlay = match prev {
            Some(prev) => payloads(prev.tail_gids(), prev.tail(), &tail),
            None => payloads(&[], &SharedVectorCollection::new(), &tail),
        };
        let view = MappedView::new(
            base,
            tombstones,
            tail.iter().map(|r| r.0).collect(),
            tail.iter().map(|r| r.1).collect(),
            overlay,
        );
        Some(Self {
            epoch,
            ingested,
            view: View::Mapped(view),
            memo: Memo::default(),
        })
    }

    /// Assembles the next epoch **incrementally** from the previous
    /// snapshot plus this epoch's appended rows: payload slabs are shared
    /// with `prev` by `Arc`, only the delta is newly encoded, and the
    /// bucket slab is one linear merge with the delta's keys. On the
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
        mut delta: Vec<AppendedRow>,
    ) -> Option<Self> {
        delta.sort_unstable_by_key(|r| r.0);
        if !Self::is_append_only(prev, delta.iter().map(|r| r.0)) {
            return None;
        }
        let view = match &prev.view {
            View::Heap {
                ids,
                collection,
                table,
            } => {
                let mut next = Vec::with_capacity(ids.len() + delta.len());
                next.extend_from_slice(ids);
                next.extend(delta.iter().map(|r| r.0));
                let keys: Vec<u64> = delta.iter().map(|r| r.1).collect();
                let vectors: Vec<&EncodedRow> = delta.iter().map(|r| &r.2).collect();
                View::Heap {
                    ids: next,
                    collection: collection.extended(&vectors),
                    table: LshTable::from_parts_delta(table, &keys),
                }
            }
            View::Mapped(mapped) => View::Mapped(mapped.extended(&delta)),
        };
        Some(Self {
            epoch,
            ingested,
            view,
            memo: Memo::default(),
        })
    }

    /// The single source of truth for delta-path eligibility: the
    /// appended `gids` (sorted) are *append-only* on top of this
    /// snapshot — strictly ascending, all past this snapshot's largest.
    /// The engine uses this to pick the publish path under the cut, and
    /// [`Snapshot::assemble_delta`] re-checks the same predicate, so
    /// the two can never disagree.
    pub(crate) fn is_append_only(
        prev: &Snapshot,
        gids: impl IntoIterator<Item = GlobalId>,
    ) -> bool {
        let mut floor = (prev.len() as VectorId)
            .checked_sub(1)
            .map(|last| prev.global_of(last));
        gids.into_iter().all(|gid| {
            let above = floor.is_none_or(|max| gid > max);
            floor = Some(gid);
            above
        })
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
        match &self.view {
            View::Heap { ids, .. } => ids.len(),
            View::Mapped(mapped) => mapped.len(),
        }
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when this snapshot serves its base from a memory-mapped
    /// checkpoint rather than heap structures.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.view, View::Mapped(_))
    }

    /// The frozen heap collection (aligned with [`Snapshot::table`]):
    /// the rows' payload blocks, in slabs `Arc`-shared with the
    /// neighboring epochs' snapshots. It scores pairs in place; its
    /// [`VectorStore::vector`] decodes every row on first call.
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

    /// The buckets, whichever tier built them: what every draw and a
    /// checkpoint's `BKTK`/`BOFF`/`BMEM` read.
    #[inline]
    pub fn slab(&self) -> &BucketSlab {
        match &self.view {
            View::Heap { table, .. } => table.slab(),
            View::Mapped(mapped) => mapped.slab(),
        }
    }

    /// Bucket key of a snapshot-local vector id (`B(v)`), whichever tier
    /// holds it.
    #[inline]
    pub(crate) fn key_of(&self, id: VectorId) -> u64 {
        match &self.view {
            View::Heap { table, .. } => table.key_of(id),
            View::Mapped(mapped) => mapped.key_of(id),
        }
    }

    /// The mapped view, when this snapshot is map-backed.
    pub(crate) fn mapped_view(&self) -> Option<&MappedView> {
        match &self.view {
            View::Heap { .. } => None,
            View::Mapped(mapped) => Some(mapped),
        }
    }

    /// An owned copy of a vector, decoded straight from its payload
    /// block; nothing is kept, unlike [`VectorStore::vector`].
    pub(crate) fn to_vector(&self, id: VectorId) -> SparseVector {
        match &self.view {
            View::Heap { collection, .. } => collection.decode(id),
            View::Mapped(mapped) => mapped.to_vector(id),
        }
    }

    /// Rows held decoded by the decode-once caches behind
    /// [`VectorStore::vector`] (the heap collection's, or the mapped
    /// base's and overlay's) — 0 while only the served path has read
    /// this snapshot.
    #[cfg(test)]
    pub(crate) fn materialized(&self) -> usize {
        match &self.view {
            View::Heap { collection, .. } => collection.materialized(),
            View::Mapped(mapped) => {
                mapped.base().materialized() as usize + mapped.tail().materialized()
            }
        }
    }

    /// Row `id`'s payload block (`nnz | indices | values`, little-endian
    /// words), borrowed from wherever it lies — what a checkpoint stores.
    pub(crate) fn block(&self, id: VectorId) -> &[u8] {
        match &self.view {
            View::Heap { collection, .. } => collection.block(id).as_flattened(),
            View::Mapped(mapped) => mapped.block(id),
        }
    }

    /// Global id of a snapshot-local vector id.
    #[inline]
    pub fn global_of(&self, id: VectorId) -> GlobalId {
        match &self.view {
            View::Heap { ids, .. } => ids[id as usize],
            View::Mapped(mapped) => mapped.gid_of(id),
        }
    }

    /// All global ids, ascending (parallel to the view's rows). A mapped
    /// snapshot builds this array on the first call (8 B per row); the
    /// served path and the checkpoint writer read [`Snapshot::global_of`].
    #[inline]
    pub fn global_ids(&self) -> &[GlobalId] {
        match &self.view {
            View::Heap { ids, .. } => ids,
            View::Mapped(mapped) => mapped.gids(),
        }
    }

    /// The answers remembered for this snapshot.
    pub(crate) fn memo(&self) -> &Memo {
        &self.memo
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

/// The payload collection of gid-sorted cut rows. A row the cut found
/// without a payload was published by an earlier cut and keeps the block
/// it occupies in `prev` (whose rows carry the ascending `prev_gids`),
/// found by one merge walk; only the rows with payloads are copied in.
fn payloads(
    prev_gids: &[GlobalId],
    prev: &SharedVectorCollection,
    rows: &[ShardRow],
) -> SharedVectorCollection {
    let mut at = 0usize;
    prev.rebuilt(rows.iter().map(move |(gid, _, payload)| match payload {
        Some(v) => Payload::New(v),
        None => {
            while prev_gids.get(at).is_some_and(|g| g < gid) {
                at += 1;
            }
            assert_eq!(
                prev_gids.get(at),
                Some(gid),
                "a published row is in the previous cut"
            );
            Payload::Kept(at as VectorId)
        }
    }))
}

/// Snapshots are index views: estimators run against them directly,
/// whichever tier backs them. The storage primitives read the tier's
/// slab and row keys; the draws are the view's provided methods.
impl IndexView for Snapshot {
    #[inline]
    fn len(&self) -> usize {
        Snapshot::len(self)
    }

    #[inline]
    fn nh(&self) -> u64 {
        self.slab().nh()
    }

    #[inline]
    fn k(&self) -> usize {
        match &self.view {
            View::Heap { table, .. } => table.k(),
            View::Mapped(mapped) => mapped.base().meta().config.k,
        }
    }

    #[inline]
    fn same_bucket(&self, a: VectorId, b: VectorId) -> bool {
        self.key_of(a) == self.key_of(b)
    }

    #[inline]
    fn pair_alias(&self) -> Option<&AliasTable> {
        self.slab().pair_alias()
    }

    #[inline]
    fn pair_bucket_pick(
        &self,
        col: usize,
        pick: impl FnOnce(usize) -> (usize, usize),
    ) -> (VectorId, VectorId) {
        self.slab().pair_bucket_pick(col, pick)
    }
}

/// Snapshots are vector stores. Similarity — what the sampling passes
/// ask of a store — reads each tier's rows where they lie, with no
/// decode: heap rows and mapped overlay rows borrowed from their payload
/// slabs, mapped base rows from the checkpoint's payload blocks. The
/// `vector` accessor is off the served path; its first call decodes the
/// whole collection (on the mapped tier: the whole base, or the whole
/// overlay) onto the heap.
impl VectorStore for Snapshot {
    #[inline]
    fn len(&self) -> usize {
        Snapshot::len(self)
    }

    #[inline]
    fn vector(&self, id: VectorId) -> &SparseVector {
        match &self.view {
            View::Heap { collection, .. } => VectorStore::vector(collection, id),
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
    use vsj_vector::{Cosine, Jaccard, VectorCollection};

    fn hasher() -> Arc<dyn BucketHasher> {
        Arc::new(Composite::derive(MinHashFamily::new(), 2, 0, 8))
    }

    fn v(members: &[u32]) -> Arc<SparseVector> {
        Arc::new(SparseVector::binary_from_members(members.to_vec()))
    }

    fn encoded(rows: &[(GlobalId, u64, Arc<SparseVector>)]) -> Vec<AppendedRow> {
        rows.iter()
            .map(|(g, k, v)| (*g, *k, EncodedRow::new(v)))
            .collect()
    }

    #[test]
    fn assemble_sorts_by_global_id_and_matches_build() {
        let rows = vec![
            (30, hasher().key(&v(&[1, 2])), v(&[1, 2])),
            (10, hasher().key(&v(&[1, 2])), v(&[1, 2])),
            (20, hasher().key(&v(&[5, 6])), v(&[5, 6])),
        ];
        let snap = Snapshot::of_rows(3, 7, hasher(), rows);
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
        let rows: Vec<_> = (0..6u64)
            .map(|g| (g, hasher().key(&v(&[g as u32, 9])), v(&[g as u32, 9])))
            .collect();
        let prev = Snapshot::of_rows(1, 6, hasher(), rows.clone());
        // The next full cut: gid 2 removed, the rest published earlier
        // (no payload), plus one new row that brings its payload.
        let fresh = v(&[7, 8, 9]);
        let mut cut: Vec<ShardRow> = rows
            .iter()
            .filter(|r| r.0 != 2)
            .map(|r| (r.0, r.1, None))
            .collect();
        cut.push((40, hasher().key(&fresh), Some(EncodedRow::new(&fresh))));
        let next = Snapshot::assemble(&prev, 2, 8, hasher(), cut);
        assert_eq!(next.global_ids(), &[0, 1, 3, 4, 5, 40]);
        let (old, new) = (prev.collection(), next.collection());
        // One fresh slab for the new row; the old slab shared by `Arc`.
        assert_eq!(new.slabs().len(), 2);
        assert!(Arc::ptr_eq(&old.slabs()[0], &new.slabs()[1]));
        assert_eq!(new.slabs()[0].len(), 1 + 2 * fresh.nnz());
        for (local, prev_local) in [(0, 0), (1, 1), (2, 3), (3, 4), (4, 5)] {
            assert!(
                std::ptr::eq(new.block(local), old.block(prev_local)),
                "row {local} was copied, not shared"
            );
        }
        assert_eq!(next.to_vector(5), *fresh);
    }

    #[test]
    fn delta_assembly_matches_full_merge() {
        let weighted = |g: u64| {
            let g = g as u32;
            let entries = (0..1 + g % 4)
                .map(|t| {
                    (
                        t * 3 + g % 2,
                        (1.0 + t as f32) * if g.is_multiple_of(3) { -0.75 } else { 1.5 },
                    )
                })
                .collect();
            Arc::new(SparseVector::from_entries(entries).expect("finite entries"))
        };
        let base_rows: Vec<_> = [(1u64, &[1, 2][..]), (4, &[5, 6]), (9, &[1, 2])]
            .iter()
            .map(|&(g, m)| (g, hasher().key(&v(m)), v(m)))
            .chain([3u64, 7].map(|g| (g, hasher().key(&weighted(g)), weighted(g))))
            .collect();
        let delta_rows: Vec<_> = [(12u64, &[1, 2][..]), (15, &[9, 9])]
            .iter()
            .map(|&(g, m)| (g, hasher().key(&v(m)), v(m)))
            .chain([16u64, 18].map(|g| (g, hasher().key(&weighted(g)), weighted(g))))
            .collect();
        let prev = Snapshot::of_rows(1, 3, hasher(), base_rows.clone());
        let next = Snapshot::assemble_delta(&prev, 2, 5, encoded(&delta_rows))
            .expect("append-only delta must take the incremental path");
        let mut all = base_rows;
        all.extend(delta_rows);
        let merged = Snapshot::of_rows(2, 5, hasher(), all.clone());
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
        // Both score every pair in place to the bits of the vectors.
        all.sort_by_key(|r| r.0);
        for (a, (_, _, u)) in all.iter().enumerate() {
            for (b, (_, _, w)) in all.iter().enumerate() {
                let (a, b) = (a as VectorId, b as VectorId);
                for snap in [&next, &merged] {
                    assert_eq!(snap.to_vector(a), **u);
                    assert_eq!(
                        snap.sim(&Cosine, a, b).to_bits(),
                        Cosine.sim(u, w).to_bits()
                    );
                    assert_eq!(
                        snap.sim(&Jaccard, a, b).to_bits(),
                        Jaccard.sim(u, w).to_bits()
                    );
                }
            }
        }
        // And the epoch chain shares its base's slab.
        assert!(Arc::ptr_eq(
            &prev.collection().slabs()[0],
            &next.collection().slabs()[0]
        ));
        for local in 0..prev.len() as u32 {
            assert!(
                std::ptr::eq(
                    prev.collection().block(local),
                    next.collection().block(local)
                ),
                "payload {local} was copied across epochs"
            );
        }
    }

    #[test]
    fn delta_assembly_rejects_non_appends() {
        let prev = Snapshot::of_rows(1, 2, hasher(), vec![(10, hasher().key(&v(&[1])), v(&[1]))]);
        // Id below the floor → fallback.
        let low = vec![(3, hasher().key(&v(&[2])), v(&[2]))];
        assert!(Snapshot::assemble_delta(&prev, 2, 3, encoded(&low)).is_none());
        // Duplicate ids inside the delta → fallback.
        let dup = vec![
            (11, hasher().key(&v(&[2])), v(&[2])),
            (11, hasher().key(&v(&[3])), v(&[3])),
        ];
        assert!(Snapshot::assemble_delta(&prev, 2, 3, encoded(&dup)).is_none());
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
