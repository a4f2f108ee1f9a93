//! Shared row storage — the payload substrate of incremental epoch
//! publication.
//!
//! The service layer's epoch snapshots must be immutable while its shards
//! keep mutating, and consecutive epochs hold mostly the same rows.
//! [`SharedVectorCollection`] stores rows the way a checkpoint's payload
//! section does: each row is one block — `nnz | indices | values`, one
//! little-endian word each — in an immutable, `Arc`-shared payload
//! **slab**, reached through a per-row directory entry (slab, block
//! offset, L2 norm). A sampled pair is scored from borrowed slices of the
//! two blocks ([`Row::from_block`]), with no decode and no allocation —
//! exactly how the memory-mapped tier scores its base rows. Blocks are
//! written, borrowed and decoded only through the [`row`](crate::row)
//! module, the block's one codec.
//!
//! * [`SharedVectorCollection::extended`] appends one run of new rows in
//!   one new slab and shares every existing slab and directory run by
//!   `Arc`: O(delta). New rows arrive as [`EncodedRow`]s — a row's block
//!   and norm in one allocation of exactly that size, which is how a
//!   service shard holds a row until the cut that publishes it.
//! * [`SharedVectorCollection::rebuilt`] rebuilds only the directory for
//!   an arbitrary new row set, pointing kept rows at the blocks they
//!   already occupy and copying only the new ones into one new slab.
//!
//! Neither copies a payload byte an earlier collection already holds,
//! until the slabs a collection references hold too much garbage (or
//! are too many): a compaction then moves the live rows of its small and
//! mostly-dead slabs into one new slab, leaving the large ones shared.
//! A collection references at most 32 slabs, and its slabs hold at most
//! twice its live rows' bytes.
//!
//! [`VectorStore`] is the read trait estimators actually need (`len` +
//! `vector` + derived `sim`), implemented by both [`VectorCollection`]
//! and [`SharedVectorCollection`], so the same estimator code runs
//! against an owned offline collection or a service epoch snapshot.

use std::sync::{Arc, OnceLock};

use crate::collection::VectorCollection;
use crate::row::{block_at, block_words, Row};
use crate::similarity::Similarity;
use crate::sparse::SparseVector;
use crate::{pairs_of, VectorId};

/// Read access to an ordered vector database `V = {v1, ..., vn}`.
///
/// This is the surface every sampling estimator needs from the
/// collection: the size `n` and id → vector resolution (from which
/// pairwise similarity derives). How the rows are stored — an inline
/// [`VectorCollection`] or the payload slabs of a
/// [`SharedVectorCollection`] — is invisible behind it.
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
    /// [`SparseVector`]s (payload slabs, a memory-mapped checkpoint)
    /// overrides it to score its [`Row`]s in place through
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

/// Most payload slabs a collection references. Building one that would
/// reference more merges its smaller slabs (see
/// [`SharedVectorCollection::compacted`]), which also bounds the
/// directory runs a lookup searches (a collection never has more runs
/// than slabs) while keeping the per-epoch extension cost O(delta).
const COALESCE_RUNS: usize = 32;

/// An immutable payload slab: row blocks back to back.
type Slab = Arc<[[u8; 4]]>;

/// Where a row lives: its block's slab and first word, and its L2 norm
/// (the one part of a row scoring needs that the block does not store).
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    slab: u32,
    at: u32,
    norm: f64,
}

/// A row encoded as its payload block, with its L2 norm, in one
/// allocation of exactly its size: the form a row waits in until a
/// collection copies it into a slab.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedRow {
    /// The norm's two little-endian words, then the block.
    words: Box<[[u8; 4]]>,
}

impl EncodedRow {
    /// Encodes `v`.
    pub fn new(v: &SparseVector) -> Self {
        let norm = v.norm().to_le_bytes();
        let mut words = Vec::with_capacity(3 + 2 * v.nnz());
        words.push([norm[0], norm[1], norm[2], norm[3]]);
        words.push([norm[4], norm[5], norm[6], norm[7]]);
        words.extend(block_words(v));
        Self {
            words: words.into_boxed_slice(),
        }
    }

    /// The row's payload block: `nnz | indices | values`.
    #[inline]
    pub fn block(&self) -> &[[u8; 4]] {
        &self.words[2..]
    }

    /// The row's L2 norm, bit-identical to the vector's.
    #[inline]
    pub fn norm(&self) -> f64 {
        let [a, b] = [self.words[0], self.words[1]];
        f64::from_le_bytes([a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]])
    }
}

/// One row of a [`SharedVectorCollection::rebuilt`] collection.
#[derive(Debug, Clone, Copy)]
pub enum Payload<'a> {
    /// A row of the collection being rebuilt, by its id there: the new
    /// collection points at the block it already occupies.
    Kept(VectorId),
    /// A new row, copied into the new collection's one fresh slab.
    New(&'a EncodedRow),
}

/// An ordered collection of sparse rows stored as payload blocks in
/// immutable, `Arc`-shared slabs (see the [module docs](self)).
///
/// Same id discipline as [`VectorCollection`] (dense [`VectorId`]s
/// `0..n`), but the storage is shared: a collection built from another
/// by [`extended`](Self::extended) or [`rebuilt`](Self::rebuilt)
/// references the blocks its rows already occupy. The per-row directory
/// is a short list of `Arc`-shared **runs**.
#[derive(Default)]
pub struct SharedVectorCollection {
    slabs: Vec<Slab>,
    runs: Vec<Arc<[Entry]>>,
    /// Id of the first row of each run (parallel to `runs`).
    starts: Vec<u32>,
    len: u32,
    /// Words of the live rows' blocks.
    live_words: u64,
    /// Every row decoded, for [`VectorStore::vector`] only.
    decoded: OnceLock<Box<[SparseVector]>>,
}

impl std::fmt::Debug for SharedVectorCollection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedVectorCollection")
            .field("len", &self.len)
            .field("runs", &self.runs.len())
            .field("slabs", &self.slabs.len())
            .field("live_words", &self.live_words)
            .field("materialized", &self.materialized())
            .finish()
    }
}

/// The `n` items of `items` in one allocation of exactly `n` (collecting
/// an iterator of unknown length into an `Arc<[T]>` would build a `Vec`
/// and copy it).
fn exact<T: Copy + Default>(n: usize, items: impl Iterator<Item = T>) -> Arc<[T]> {
    let mut out: Arc<[T]> = std::iter::repeat_n(T::default(), n).collect();
    let slots = Arc::get_mut(&mut out).expect("a fresh allocation is unshared");
    let mut filled = 0;
    for (slot, item) in slots.iter_mut().zip(items) {
        *slot = item;
        filled += 1;
    }
    assert_eq!(filled, n, "exactly n items");
    out
}

/// Fills one new slab, block by block, before anything shares it.
struct SlabWriter {
    slab: Slab,
    at: usize,
}

impl SlabWriter {
    /// A zeroed slab of exactly `words` words (one allocation).
    fn new(words: usize) -> Self {
        Self {
            slab: std::iter::repeat_n([0u8; 4], words).collect(),
            at: 0,
        }
    }

    /// Appends a block copied from another slab; returns its offset.
    fn copy(&mut self, block: &[[u8; 4]]) -> u32 {
        let at = self.at;
        let out = Arc::get_mut(&mut self.slab).expect("a slab is filled before it is shared");
        out[at..at + block.len()].copy_from_slice(block);
        self.at += block.len();
        u32::try_from(at).expect("payload slab exceeds u32 words")
    }

    /// Appends `row`'s block; returns its entry in slab `slab`.
    fn put(&mut self, slab: u32, row: &EncodedRow) -> Entry {
        Entry {
            slab,
            at: self.copy(row.block()),
            norm: row.norm(),
        }
    }

    fn finish(self) -> Slab {
        debug_assert_eq!(self.at, self.slab.len(), "slab sized exactly");
        self.slab
    }
}

impl SharedVectorCollection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// A one-slab collection over a copy of `payload`, a sequence of row
    /// blocks (a checkpoint's payload section): row `i` is the block at
    /// word offset `blocks[i].0`, with L2 norm `blocks[i].1`.
    ///
    /// Nothing is checked: the caller validated every block (see
    /// [`split_block`](crate::row::split_block), which also yields the
    /// norm). An offset
    /// that is not a block start panics or scores to a meaningless
    /// number, never to undefined behaviour.
    pub fn from_payload(
        payload: &[[u8; 4]],
        blocks: impl ExactSizeIterator<Item = (usize, f64)>,
    ) -> Self {
        let slab: Slab = Arc::from(payload);
        let mut live_words = 0u64;
        let entries = exact(
            blocks.len(),
            blocks.map(|(at, norm)| {
                live_words += block_at(&slab, at).len() as u64;
                Entry {
                    slab: 0,
                    at: u32::try_from(at).expect("payload slab exceeds u32 words"),
                    norm,
                }
            }),
        );
        Self::from_parts(vec![slab], vec![entries], live_words)
    }

    /// The collection of `runs` over `slabs` — [compacted](Self::compacted)
    /// when it would reference more than [`COALESCE_RUNS`] slabs, or when
    /// its slabs would hold more than twice its live rows' words: the
    /// bound on the garbage removed and replaced rows leave behind.
    fn from_parts(slabs: Vec<Slab>, mut runs: Vec<Arc<[Entry]>>, live_words: u64) -> Self {
        runs.retain(|run| !run.is_empty());
        let mut starts = Vec::with_capacity(runs.len());
        let mut len = 0u32;
        for run in &runs {
            starts.push(len);
            len = u32::try_from(run.len())
                .ok()
                .and_then(|n| len.checked_add(n))
                .expect("collection exceeds u32 ids");
        }
        let collection = Self {
            slabs,
            runs,
            starts,
            len,
            live_words,
            decoded: OnceLock::new(),
        };
        let slab_words: u64 = collection.slabs.iter().map(|s| s.len() as u64).sum();
        if collection.slabs.len() > COALESCE_RUNS || slab_words > 2 * live_words {
            collection.compacted()
        } else {
            collection
        }
    }

    /// Moves the live rows of the slabs that hold little into one new
    /// slab: every slab whose live rows fill less than half of it, and
    /// every slab but the `COALESCE_RUNS / 2` largest. The large slabs
    /// stay shared, so a compaction copies the small and the mostly-dead
    /// slabs — not the corpus — and afterwards every slab is at least
    /// half live and there are at most `COALESCE_RUNS / 2 + 1`. The
    /// directory becomes one run.
    fn compacted(&self) -> Self {
        let ids = || (0..self.len).map(|id| self.entry(id));
        let mut live = vec![0u64; self.slabs.len()];
        for entry in ids() {
            live[entry.slab as usize] += self.block_of(entry).len() as u64;
        }
        let mut kept: Vec<usize> = (0..self.slabs.len())
            .filter(|&s| 2 * live[s] >= self.slabs[s].len() as u64)
            .collect();
        kept.sort_by_key(|&s| std::cmp::Reverse(live[s]));
        kept.truncate(COALESCE_RUNS / 2);
        // Kept slabs keep their order of index; the merged slab is last.
        kept.sort_unstable();
        let mut renumbered: Vec<Option<u32>> = vec![None; self.slabs.len()];
        for (to, &from) in kept.iter().enumerate() {
            renumbered[from] = Some(to as u32);
        }
        let merged: u64 = (0..self.slabs.len())
            .filter(|&s| renumbered[s].is_none())
            .map(|s| live[s])
            .sum();
        let merged_slab = kept.len() as u32;
        let mut writer = SlabWriter::new(merged as usize);
        let entries = exact(
            self.len as usize,
            ids().map(|entry| match renumbered[entry.slab as usize] {
                Some(slab) => Entry { slab, ..entry },
                None => Entry {
                    slab: merged_slab,
                    at: writer.copy(self.block_of(entry)),
                    norm: entry.norm,
                },
            }),
        );
        let mut slabs: Vec<Slab> = kept.iter().map(|&s| self.slabs[s].clone()).collect();
        if merged > 0 {
            slabs.push(writer.finish());
        }
        // Both bounds hold now, so this builds no second compaction.
        Self::from_parts(slabs, vec![entries], self.live_words)
    }

    /// A new collection holding this one's rows followed by `tail`:
    /// every existing slab and directory run is shared by `Arc`, and the
    /// tail is copied into one new slab behind one new run — O(tail),
    /// unless the slab bound forces a compaction.
    pub fn extended(&self, tail: &[&EncodedRow]) -> Self {
        let mut slabs = self.slabs.clone();
        let mut runs = self.runs.clone();
        let mut live_words = self.live_words;
        if !tail.is_empty() {
            let words: usize = tail.iter().map(|row| row.block().len()).sum();
            let slab = u32::try_from(slabs.len()).expect("slab count fits a u32");
            let mut writer = SlabWriter::new(words);
            runs.push(exact(
                tail.len(),
                tail.iter().map(|row| writer.put(slab, row)),
            ));
            slabs.push(writer.finish());
            live_words += words as u64;
        }
        Self::from_parts(slabs, runs, live_words)
    }

    /// A new collection of `rows`, in order: a [`Payload::Kept`] row
    /// points at the block it occupies in this collection (its slab is
    /// shared by `Arc`), and the [`Payload::New`] rows are copied into
    /// one new slab. The directory is one new run; slabs no kept row
    /// references are dropped.
    ///
    /// `rows` is walked twice (sizing the fresh slab, then filling it),
    /// so it must yield the same rows from each clone.
    ///
    /// # Panics
    /// Panics if a kept id is out of range.
    pub fn rebuilt<'a>(&self, rows: impl ExactSizeIterator<Item = Payload<'a>> + Clone) -> Self {
        let words: usize = rows
            .clone()
            .map(|row| match row {
                Payload::Kept(_) => 0,
                Payload::New(row) => row.block().len(),
            })
            .sum();
        // The fresh slab (if any) is slab 0; kept slabs follow in order
        // of first use.
        let mut slabs: Vec<Slab> = Vec::new();
        let mut renumbered: Vec<Option<u32>> = vec![None; self.slabs.len()];
        let mut writer = (words > 0).then(|| SlabWriter::new(words));
        let first_kept = u32::from(writer.is_some());
        let mut live_words = 0u64;
        let entries = exact(
            rows.len(),
            rows.map(|row| match row {
                Payload::Kept(id) => {
                    let entry = self.entry(id);
                    live_words += self.block_of(entry).len() as u64;
                    let slab = *renumbered[entry.slab as usize].get_or_insert_with(|| {
                        slabs.push(self.slabs[entry.slab as usize].clone());
                        first_kept + slabs.len() as u32 - 1
                    });
                    Entry { slab, ..entry }
                }
                Payload::New(row) => {
                    live_words += row.block().len() as u64;
                    writer
                        .as_mut()
                        .expect("a new row sized the fresh slab")
                        .put(0, row)
                }
            }),
        );
        if let Some(writer) = writer {
            slabs.insert(0, writer.finish());
        }
        Self::from_parts(slabs, vec![entries], live_words)
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

    #[inline]
    fn entry(&self, id: VectorId) -> Entry {
        let run = self.run_of(id);
        self.runs[run][(id - self.starts[run]) as usize]
    }

    /// Row `id`'s payload block: `nnz | indices | values`, little-endian
    /// words — byte for byte the block a checkpoint stores.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: VectorId) -> &[[u8; 4]] {
        self.block_of(self.entry(id))
    }

    #[inline]
    fn block_of(&self, entry: Entry) -> &[[u8; 4]] {
        block_at(&self.slabs[entry.slab as usize], entry.at as usize)
    }

    /// Row `id`, borrowed from its payload block — the served path's
    /// only read of a row: no decode, no allocation.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn row(&self, id: VectorId) -> Row<'_> {
        let entry = self.entry(id);
        Row::from_block(self.block_of(entry), entry.norm)
    }

    /// Row `id` decoded into an owned vector; nothing is kept.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn decode(&self, id: VectorId) -> SparseVector {
        self.row(id).to_vector()
    }

    /// Encoded bytes of the rows' payload blocks (what a checkpoint
    /// stores for them).
    pub fn payload_bytes(&self) -> u64 {
        4 * self.live_words
    }

    /// The payload slabs this collection references.
    pub fn slabs(&self) -> &[Arc<[[u8; 4]]>] {
        &self.slabs
    }

    /// Rows decoded onto the heap: 0 until a reader asks for
    /// [`VectorStore::vector`], then every row.
    pub fn materialized(&self) -> usize {
        self.decoded.get().map_or(0, |rows| rows.len())
    }

    /// Decodes every row into an owned [`VectorCollection`] (offline
    /// tooling; the service never does this), keeping nothing here.
    pub fn to_owned_collection(&self) -> VectorCollection {
        VectorCollection::from_vectors((0..self.len).map(|id| self.decode(id)).collect())
    }
}

/// Similarity reads rows in place. `vector` is off the served path: its
/// first call decodes every row, for as long as the collection lives.
impl VectorStore for SharedVectorCollection {
    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    fn vector(&self, id: VectorId) -> &SparseVector {
        &self
            .decoded
            .get_or_init(|| (0..self.len).map(|i| self.decode(i)).collect())[id as usize]
    }

    #[inline]
    fn sim<S: Similarity + ?Sized>(&self, measure: &S, a: VectorId, b: VectorId) -> f64 {
        measure.sim_rows(self.row(a), self.row(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::split_block;
    use crate::similarity::{Cosine, Jaccard};

    fn sv(entries: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_entries(entries.to_vec()).expect("valid test vector")
    }

    fn rows() -> Vec<SparseVector> {
        vec![
            sv(&[(0, 1.0), (1, 1.0)]),
            sv(&[(0, 1.0)]),
            sv(&[(2, 2.0), (3, 2.0)]),
            sv(&[(1, -0.5), (3, 1.5e-3), (7, 3.0)]),
            SparseVector::empty(),
        ]
    }

    /// A collection of `vectors`, appended as one run.
    fn of(vectors: &[SparseVector]) -> SharedVectorCollection {
        let encoded: Vec<EncodedRow> = vectors.iter().map(EncodedRow::new).collect();
        let refs: Vec<&EncodedRow> = encoded.iter().collect();
        SharedVectorCollection::new().extended(&refs)
    }

    fn sample() -> SharedVectorCollection {
        of(&rows())
    }

    /// Every row decodes to its vector and every pair scores in place
    /// to the bits the vectors give.
    fn assert_holds(c: &SharedVectorCollection, want: &[SparseVector]) {
        assert_eq!(VectorStore::len(c), want.len());
        for (a, u) in want.iter().enumerate() {
            assert_eq!(&c.decode(a as VectorId), u, "row {a}");
            for (b, v) in want.iter().enumerate() {
                let (a, b) = (a as VectorId, b as VectorId);
                assert_eq!(c.sim(&Cosine, a, b).to_bits(), Cosine.sim(u, v).to_bits());
                assert_eq!(c.sim(&Jaccard, a, b).to_bits(), Jaccard.sim(u, v).to_bits());
            }
        }
    }

    #[test]
    fn blocks_are_the_checkpoint_layout() {
        let c = sample();
        for (id, v) in rows().iter().enumerate() {
            let block = c.block(id as VectorId);
            let mut want = vec![(v.nnz() as u32).to_le_bytes()];
            want.extend(v.indices().iter().map(|i| i.to_le_bytes()));
            want.extend(v.values().iter().map(|w| w.to_le_bytes()));
            assert_eq!(block, &want[..], "block {id}");
            let (row, rest) = split_block(block).unwrap();
            assert!(rest.is_empty());
            assert_eq!(row.norm().to_bits(), v.norm().to_bits());
        }
    }

    #[test]
    fn encoded_rows_carry_block_and_norm() {
        for v in rows() {
            let row = EncodedRow::new(&v);
            let (checked, _) = split_block(row.block()).unwrap();
            assert_eq!(row.norm().to_bits(), checked.norm().to_bits());
            assert_eq!(row.norm().to_bits(), v.norm().to_bits());
        }
    }

    #[test]
    fn store_trait_agrees_with_owned_collection() {
        let shared = sample();
        let owned = shared.to_owned_collection();
        assert_eq!(
            shared.materialized(),
            0,
            "to_owned_collection keeps nothing"
        );
        assert_eq!(shared.total_pairs(), owned.total_pairs());
        assert_holds(&shared, owned.vectors());
        assert_eq!(shared.materialized(), 0, "scoring decodes nothing");
        for id in 0..VectorStore::len(&shared) as VectorId {
            assert_eq!(
                VectorStore::vector(&shared, id),
                VectorStore::vector(&owned, id)
            );
        }
        assert_eq!(shared.materialized(), rows().len(), "vector() decodes once");
    }

    #[test]
    fn extended_shares_existing_payloads() {
        let base = sample();
        let tail = sv(&[(9, 1.0)]);
        let next = base.extended(&[&EncodedRow::new(&tail)]);
        let mut want = rows();
        assert_holds(&base, &want);
        want.push(tail);
        assert_holds(&next, &want);
        assert_eq!(next.slabs().len(), 2);
        assert!(Arc::ptr_eq(&base.slabs()[0], &next.slabs()[0]));
        for id in 0..VectorStore::len(&base) as VectorId {
            assert!(
                std::ptr::eq(base.block(id), next.block(id)),
                "block {id} was copied"
            );
        }
    }

    #[test]
    fn rebuilt_keeps_blocks_and_encodes_only_new_rows() {
        let base = sample();
        let fresh = sv(&[(4, 4.0), (5, -1.0)]);
        let next = base.rebuilt(
            [
                Payload::Kept(3),
                Payload::New(&EncodedRow::new(&fresh)),
                Payload::Kept(0),
            ]
            .into_iter(),
        );
        let old = rows();
        assert_holds(&next, &[old[3].clone(), fresh.clone(), old[0].clone()]);
        assert_eq!(
            next.slabs().len(),
            2,
            "the fresh slab and the one kept slab"
        );
        assert!(std::ptr::eq(next.block(0), base.block(3)));
        assert!(std::ptr::eq(next.block(2), base.block(0)));
        assert_eq!(next.slabs()[0].len(), 1 + 2 * fresh.nnz());
        // Dropping most rows leaves more garbage than live bytes: the
        // kept row moves into a slab of its own.
        let small = base.rebuilt([Payload::Kept(1)].into_iter());
        assert_holds(&small, &[old[1].clone()]);
        assert_eq!(small.slabs().len(), 1);
        assert_eq!(small.slabs()[0].len(), 1 + 2 * old[1].nnz());
    }

    #[test]
    fn slab_count_stays_bounded_across_extensions() {
        let mut want: Vec<SparseVector> = (0..50u32).map(|i| sv(&[(i, 3.0)])).collect();
        let base = of(&want);
        let mut c = base.extended(&[]);
        for i in 0..100u32 {
            let v = sv(&[(i, 1.0), (i + 1, 2.0)]);
            c = c.extended(&[&EncodedRow::new(&v)]);
            want.push(v);
            assert!(c.slabs().len() <= COALESCE_RUNS);
            assert!(c.runs.len() <= c.slabs().len());
            // A compaction merges the small slabs and leaves the large
            // one shared.
            assert!(c.slabs().iter().any(|s| Arc::ptr_eq(s, &base.slabs()[0])));
        }
        assert_holds(&c, &want);
    }

    #[test]
    fn from_payload_reads_blocks_in_place() {
        let source = sample();
        let payload: Vec<[u8; 4]> = (0..5).flat_map(|id| source.block(id).to_vec()).collect();
        let mut at = 0;
        let blocks: Vec<(usize, f64)> = rows()
            .iter()
            .map(|v| {
                let block = (at, v.norm());
                at += 1 + 2 * v.nnz();
                block
            })
            .collect();
        let c = SharedVectorCollection::from_payload(&payload, blocks.into_iter());
        assert_holds(&c, &rows());
        assert_eq!(c.slabs().len(), 1);
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
