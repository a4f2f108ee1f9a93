//! The out-of-core "map + go" checkpoint tier.
//!
//! [`MappedCheckpoint`] is the one reader of a v3 checkpoint container.
//! The container is memory-mapped, and every section's checksum, the
//! cross-section structure and every row's vector invariants are
//! validated once, at open. The heap tier then copies the payload
//! section once into a heap payload slab and drops the mapping; the
//! mapped tier serves the file
//! *directly*: bucket runs, key arrays, and vector payloads are read
//! straight out of the mapping — the base corpus never enters the heap.
//! A sampled pair is scored from borrowed slices of the rows' payload
//! blocks ([`Row::from_le_words`]): no row is decoded and nothing is
//! allocated, so a cold start costs O(map + validation scan) instead of
//! O(copy + rebuild), and its first estimate costs what every later
//! one does. The validation scan reads every value anyway, so it also
//! records each row's L2 norm in an 8 B/row heap array — the one part of
//! a row scoring needs that the payload does not store. Whole decoded
//! vectors exist only for readers outside the served path
//! ([`MappedCheckpoint::vector`], decoded all at once on first call).
//!
//! [`MappedView`] is the index a mapped engine publishes: the mapped
//! base, minus a [`TombstoneSet`] of removed base rows, plus a heap
//! *overlay* of rows ingested after the checkpoint (the replayed WAL
//! tail and live inserts — including upserts that replace a tombstoned
//! base row). The view presents one **dense id space** `[0, n_live)`
//! in global-id order — exactly the id space the heap
//! [`LshTable`](vsj_lsh::LshTable) would assign to the same live rows —
//! and implements the storage primitives of [`IndexView`] over it:
//! merged buckets are enumerated key-ascending, so the pair-bucket
//! columns and the alias table built from their `C(b_j, 2)` weights are
//! the heap table's, member for member. The draws themselves are the
//! view's provided methods, shared with the heap table — which is what
//! makes the mapped tier bit-identical to the heap tier at every
//! published `(seed, epoch, τ)` — before, during, and after a
//! background compaction folds the overlay and tombstones into a fresh
//! base.
//!
//! Each view build (map + go, every publish, the compaction swap) is one
//! O(base + overlay) pass that freezes the view's index: `rows`, one
//! `u32` per live row naming its base or overlay row, and one
//! key-ascending slab of pair-bucket members (dense ids) with a `u32`
//! offset per column — the BOFF/BMEM shape of the checkpoint itself.
//! Every id resolution, draw and scored pair is then one or two array
//! reads, with no search over tombstones or the overlay. Columns are
//! key-ascending and members dense-ascending, the heap table's order,
//! so the frozen index changes no answer and no checkpoint byte.

use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use memmap2::Mmap;
use vsj_core::IndexView;
use vsj_datasets::io::{self, ContainerIndex};
use vsj_sampling::{pair_count, AliasTable};
use vsj_vector::{
    row_words, EncodedRow, Row, SharedVectorCollection, SparseVector, VectorId, VectorStore,
};

use crate::persist::{
    decode_meta, CheckpointMeta, PersistError, SECTION_BKTK, SECTION_BMEM, SECTION_BOFF,
    SECTION_GIDS, SECTION_KEYS, SECTION_META, SECTION_VOFF, SECTION_VPAY,
};
use crate::shard::AppendedRow;
use crate::GlobalId;

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// The set of base rows removed (or replaced by an upsert) since the
/// mapped checkpoint was cut: sorted, deduplicated base-row indices.
/// The merged view subtracts these rows from every enumeration, which
/// is what lets `remove`/`upsert` work on a mapped engine without
/// mutating the immutable mapping — compaction later folds the set
/// into a fresh checkpoint and it resets to empty.
#[derive(Debug, Default, Clone)]
pub(crate) struct TombstoneSet {
    rows: Vec<u32>,
}

impl TombstoneSet {
    /// The empty set (a freshly mapped or just-compacted base).
    pub(crate) fn empty() -> Self {
        Self::default()
    }

    /// Builds the set from sorted, deduplicated base-row indices (the
    /// engine's tombstone state is kept sorted by insertion).
    pub(crate) fn from_rows(rows: Vec<u32>) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows sorted + unique");
        Self { rows }
    }

    /// Number of tombstoned base rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether base row `row` is tombstoned.
    #[inline]
    pub(crate) fn contains(&self, row: u32) -> bool {
        self.rows.binary_search(&row).is_ok()
    }

    /// The sorted row indices.
    #[inline]
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }
}

/// A validated, memory-mapped v3 checkpoint: the base rows of a mapped
/// engine, and the source a heap recovery copies its payloads from. All
/// integer reads go through `from_le_bytes` on mapped slices; rows are
/// scored in place ([`MappedCheckpoint::row`]).
pub(crate) struct MappedCheckpoint {
    map: Mmap,
    meta: CheckpointMeta,
    n: usize,
    buckets: usize,
    gids: Range<usize>,
    keys: Range<usize>,
    bktk: Range<usize>,
    boff: Range<usize>,
    bmem: Range<usize>,
    voff: Range<usize>,
    vpay: Range<usize>,
    /// L2 norm of each base row, recorded by the validation scan.
    norms: Vec<f64>,
    /// Every base row decoded, for [`MappedCheckpoint::vector`] only.
    decoded: OnceLock<Box<[SparseVector]>>,
}

impl std::fmt::Debug for MappedCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCheckpoint")
            .field("n", &self.n)
            .field("buckets", &self.buckets)
            .field("bytes", &self.map.len())
            .field("mapped", &self.map.is_mapped())
            .field("materialized", &self.materialized())
            .finish()
    }
}

impl MappedCheckpoint {
    /// Maps and validates the checkpoint at `path` — the only way any
    /// code reads a checkpoint, whichever tier then serves it.
    ///
    /// Validation is one linear scan (the container's per-section
    /// checksums) plus O(n) structure checks over the integer sections
    /// and, in place, every row's payload block (indices strictly
    /// ascending, values finite and non-zero — [`Row::check_le_words`],
    /// which also returns the row's norm). No vector is decoded, no heap
    /// table is built. Any framing, checksum,
    /// cross-section or row inconsistency fails loudly here so both
    /// tiers can trust the mapping unconditionally.
    pub(crate) fn open(path: &Path) -> Result<Self, PersistError> {
        let file = std::fs::File::open(path)?;
        let map = Mmap::map(&file)?;
        Self::from_map(map)
    }

    fn from_map(map: Mmap) -> Result<Self, PersistError> {
        let index = ContainerIndex::parse(&map)?;
        let meta_range = index.require(SECTION_META)?;
        let (meta, n64) = decode_meta(&map[meta_range])?;
        if n64 > u32::MAX as u64 {
            return Err(corrupt(format!("{n64} rows exceed the id space")));
        }
        let n = n64 as usize;
        let gids = index.require(SECTION_GIDS)?;
        let keys = index.require(SECTION_KEYS)?;
        let bktk = index.require(SECTION_BKTK)?;
        let boff = index.require(SECTION_BOFF)?;
        let bmem = index.require(SECTION_BMEM)?;
        let voff = index.require(SECTION_VOFF)?;
        let vpay = index.require(SECTION_VPAY)?;
        if gids.len() != n * 8 || keys.len() != n * 8 || bmem.len() != n * 4 {
            return Err(corrupt(format!(
                "row sections disagree with META row count {n}"
            )));
        }
        if !bktk.len().is_multiple_of(8) {
            return Err(corrupt("BKTK length not a multiple of 8"));
        }
        let buckets = bktk.len() / 8;
        if boff.len() != (buckets + 1) * 8 {
            return Err(corrupt("BOFF is not one offset per bucket plus one"));
        }
        if voff.len() != (n + 1) * 8 {
            return Err(corrupt("VOFF is not one offset per row plus one"));
        }
        let u64_in = |r: &Range<usize>, i: usize| -> u64 {
            let at = r.start + i * 8;
            u64::from_le_bytes(map[at..at + 8].try_into().expect("8 bytes"))
        };
        let u32_in = |r: &Range<usize>, i: usize| -> u32 {
            let at = r.start + i * 4;
            u32::from_le_bytes(map[at..at + 4].try_into().expect("4 bytes"))
        };
        // GIDS: strictly ascending, below the id allocator's watermark.
        for i in 0..n {
            let gid = u64_in(&gids, i);
            if i + 1 < n && gid >= u64_in(&gids, i + 1) {
                return Err(corrupt("GIDS are not strictly ascending"));
            }
            if gid >= meta.next_id {
                return Err(corrupt("a snapshot row carries an unallocated global id"));
            }
        }
        // Buckets: keys strictly ascending, offsets partition exactly
        // [0, n), members ascending within their bucket and carrying
        // the bucket's key — with Σ sizes = n this proves the buckets
        // exactly cover the rows.
        if buckets > 0 {
            for b in 0..buckets - 1 {
                if u64_in(&bktk, b) >= u64_in(&bktk, b + 1) {
                    return Err(corrupt("BKTK bucket keys are not strictly ascending"));
                }
            }
        }
        if u64_in(&boff, 0) != 0 || u64_in(&boff, buckets) != n as u64 {
            return Err(corrupt("BOFF does not span exactly the row count"));
        }
        for b in 0..buckets {
            let start = u64_in(&boff, b);
            let end = u64_in(&boff, b + 1);
            if start >= end || end > n as u64 {
                return Err(corrupt("BOFF offsets are not strictly increasing"));
            }
            let bucket_key = u64_in(&bktk, b);
            let mut prev_member: Option<u32> = None;
            for at in start..end {
                let member = u32_in(&bmem, at as usize);
                if member as usize >= n {
                    return Err(corrupt("BMEM member out of range"));
                }
                if prev_member.is_some_and(|p| p >= member) {
                    return Err(corrupt("BMEM members not ascending within a bucket"));
                }
                prev_member = Some(member);
                if u64_in(&keys, member as usize) != bucket_key {
                    return Err(corrupt("BMEM member disagrees with its row key"));
                }
            }
        }
        // Payload offsets: partition the slab, and each block's nnz
        // prefix must account for its exact length, so a row read in
        // place can never run off its block.
        if u64_in(&voff, 0) != 0 || u64_in(&voff, n) != vpay.len() as u64 {
            return Err(corrupt("VOFF does not span exactly the payload slab"));
        }
        let mut norms = Vec::with_capacity(n);
        for i in 0..n {
            let start = u64_in(&voff, i);
            let end = u64_in(&voff, i + 1);
            if start > end || end > vpay.len() as u64 {
                return Err(corrupt("VOFF offsets are not monotone"));
            }
            let len = end - start;
            if len < 4 {
                return Err(corrupt("VPAY block too short for an nnz prefix"));
            }
            let at = vpay.start + start as usize;
            let nnz = u32::from_le_bytes(map[at..at + 4].try_into().expect("4 bytes")) as u64;
            if len != 4 + nnz * 8 {
                return Err(corrupt("VPAY block length disagrees with its nnz prefix"));
            }
            let (indices, values) = row_words(map[at..at + len as usize].as_chunks::<4>().0);
            let norm = Row::check_le_words(indices, values)
                .map_err(|e| corrupt(format!("VPAY row {i}: {e}")))?;
            norms.push(norm);
        }
        Ok(Self {
            map,
            meta,
            n,
            buckets,
            gids,
            keys,
            bktk,
            boff,
            bmem,
            voff,
            vpay,
            norms,
            decoded: OnceLock::new(),
        })
    }

    #[inline]
    fn u64_in(&self, r: &Range<usize>, i: usize) -> u64 {
        let at = r.start + i * 8;
        u64::from_le_bytes(self.map[at..at + 8].try_into().expect("8 bytes"))
    }

    /// The checkpoint metadata (epoch, counters, config).
    pub(crate) fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// Number of base rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Number of base buckets.
    #[inline]
    pub(crate) fn num_buckets(&self) -> usize {
        self.buckets
    }

    /// Size of the mapped file in bytes.
    pub(crate) fn file_len(&self) -> usize {
        self.map.len()
    }

    /// True when the view is a real `mmap(2)` mapping (false on the
    /// buffered fallback of non-Unix targets).
    pub(crate) fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Base vectors decoded onto the heap: 0 until an off-path reader
    /// asks for [`MappedCheckpoint::vector`], then every row.
    pub(crate) fn materialized(&self) -> u64 {
        self.decoded.get().map_or(0, |rows| rows.len() as u64)
    }

    /// Global id of base row `i`.
    #[inline]
    pub(crate) fn gid(&self, i: usize) -> GlobalId {
        self.u64_in(&self.gids, i)
    }

    /// Base row holding `global`, if any (binary search over the
    /// ascending GIDS section). Whether that row is *live* is the
    /// caller's tombstone check.
    pub(crate) fn find_gid(&self, global: GlobalId) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.gid(mid).cmp(&global) {
                std::cmp::Ordering::Equal => return Some(mid),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Bucket key of base row `i`.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> u64 {
        self.u64_in(&self.keys, i)
    }

    /// Key of base bucket `b` (buckets are key-ascending).
    #[inline]
    pub(crate) fn bucket_key(&self, b: usize) -> u64 {
        self.u64_in(&self.bktk, b)
    }

    /// `(start, len)` of bucket `b`'s member run inside the member
    /// array.
    #[inline]
    pub(crate) fn bucket_members(&self, b: usize) -> (usize, usize) {
        let start = self.u64_in(&self.boff, b) as usize;
        let end = self.u64_in(&self.boff, b + 1) as usize;
        (start, end - start)
    }

    /// Member at position `at` of the member array (a base-local row
    /// id).
    #[inline]
    pub(crate) fn member(&self, at: usize) -> VectorId {
        let off = self.bmem.start + at * 4;
        u32::from_le_bytes(self.map[off..off + 4].try_into().expect("4 bytes"))
    }

    /// The whole payload slab.
    fn payload_slab(&self) -> &[u8] {
        &self.map[self.vpay.clone()]
    }

    /// Byte offset of row `i`'s payload block inside the slab.
    #[inline]
    fn payload_offset(&self, i: usize) -> u64 {
        self.u64_in(&self.voff, i)
    }

    /// Base row `i`'s payload block: `nnz | indices | values`.
    #[inline]
    pub(crate) fn block(&self, i: usize) -> &[u8] {
        let start = self.payload_offset(i) as usize;
        let end = self.payload_offset(i + 1) as usize;
        &self.map[self.vpay.start + start..self.vpay.start + end]
    }

    /// Base row `i`, borrowed from its payload block — the served path's
    /// only read of a base row: no decode, no allocation.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> Row<'_> {
        let (indices, values) = row_words(self.block(i).as_chunks::<4>().0);
        Row::from_le_words(indices, values, self.norms[i])
    }

    /// The whole base as one heap collection: the payload slab copied
    /// once, its offsets as the directory and the norms the validation
    /// scan recorded — nothing is decoded.
    pub(crate) fn to_collection(&self) -> SharedVectorCollection {
        let (words, _) = self.payload_slab().as_chunks::<4>();
        SharedVectorCollection::from_payload(
            words,
            (0..self.n).map(|i| (self.payload_offset(i) as usize / 4, self.norms[i])),
        )
    }

    /// The vector of base row `i`, for readers that need a
    /// [`SparseVector`] reference (`VectorStore::vector`). Nothing on the
    /// served path calls it: the first call decodes every base row onto
    /// the heap, for as long as the mapping lives.
    pub(crate) fn vector(&self, i: usize) -> &SparseVector {
        &self
            .decoded
            .get_or_init(|| (0..self.n).map(|r| self.decode(r)).collect())[i]
    }

    /// Decodes base row `i`'s vector straight from its payload block,
    /// keeping nothing — the heap tier's and the auditor's copy out of
    /// the mapping.
    ///
    /// # Panics
    /// Never on a checkpoint that opened: [`MappedCheckpoint::open`]
    /// checks every block's length, order and values, which is
    /// everything decoding validates.
    pub(crate) fn decode(&self, i: usize) -> SparseVector {
        let mut block = self.block(i);
        io::decode_vector(&mut block).expect("VPAY rows are validated at open")
    }
}

/// Where a dense view id resolves: a live base row of the mapping, or
/// an overlay row in a heap payload slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MappedRow {
    /// Base row index into the mapped checkpoint.
    Base(usize),
    /// Overlay row index into the view's tail.
    Tail(usize),
}

/// `dense_of_row` entry of a tombstoned base row.
const DEAD: VectorId = VectorId::MAX;

/// The published index of a mapped engine: the mapped checkpoint base,
/// minus its tombstoned rows, plus a heap overlay — presented as one
/// dense id space in global-id order, sampling bit-identically to the
/// equivalent heap table.
pub(crate) struct MappedView {
    base: Arc<MappedCheckpoint>,
    k: usize,
    tombstones: Arc<TombstoneSet>,
    tail_gids: Vec<GlobalId>,
    tail_keys: Vec<u64>,
    /// The overlay rows' payloads, in overlay-row order.
    tail: SharedVectorCollection,
    /// Encoded size of the overlay's payload blocks — the "heap bytes
    /// a compaction would fold away" trigger signal.
    tail_bytes: u64,
    /// Backing row of each dense id: base row `r` as `r`, overlay row
    /// `t` as `base.len() + t`.
    rows: Vec<u32>,
    /// Pair-bucket column `c` is `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// Dense-id members of every pair bucket, key-ascending by column
    /// and dense-ascending within one.
    members: Vec<VectorId>,
    alias: Option<AliasTable>,
    nh: u64,
}

impl std::fmt::Debug for MappedView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedView")
            .field("base_n", &self.base.len())
            .field("tombstones", &self.tombstones.len())
            .field("tail_n", &self.tail_keys.len())
            .field("nh", &self.nh)
            .finish()
    }
}

impl MappedView {
    /// Builds the merged view from the base, the tombstone set, and the
    /// overlay rows (gids strictly ascending, never colliding with a live
    /// base gid — the caller validates — with their keys and payloads).
    ///
    /// One gid-order merge walk over the live base rows and the overlay
    /// assigns every dense id and freezes `rows`. Base buckets
    /// (key-ascending by layout) and overlay key groups are then merged
    /// into one member slab, emitting every bucket with ≥ 2 live members
    /// as an alias column — the same column sequence, weights and member
    /// order the heap table derives over the live rows, hence the same
    /// sampling stream. O(base + overlay · log overlay).
    pub(crate) fn new(
        base: Arc<MappedCheckpoint>,
        k: usize,
        tombstones: Arc<TombstoneSet>,
        tail_gids: Vec<GlobalId>,
        tail_keys: Vec<u64>,
        tail: SharedVectorCollection,
    ) -> Self {
        debug_assert!(tail_gids.windows(2).all(|w| w[0] < w[1]), "tail gid-sorted");
        debug_assert_eq!(tail_gids.len(), tail_keys.len());
        debug_assert_eq!(tail_gids.len(), tail.len());
        let base_n = base.len();
        let tail_bytes = tail.payload_bytes();
        let row_id = |r: usize| VectorId::try_from(r).expect("base + overlay rows fit a u32");

        // The merge walk, and its inverse over base-then-overlay rows.
        let dead = tombstones.rows();
        let mut rows = Vec::with_capacity(base_n - dead.len() + tail_gids.len());
        let mut dense_of_row = vec![DEAD; base_n + tail_gids.len()];
        let mut push = |row: usize| {
            dense_of_row[row] = row_id(rows.len());
            rows.push(row_id(row));
        };
        let (mut next_dead, mut t) = (0usize, 0usize);
        for r in 0..base_n {
            if dead.get(next_dead).is_some_and(|&d| d as usize == r) {
                next_dead += 1;
                continue;
            }
            while t < tail_gids.len() && tail_gids[t] < base.gid(r) {
                push(base_n + t);
                t += 1;
            }
            push(r);
        }
        for t in t..tail_gids.len() {
            push(base_n + t);
        }

        // Overlay rows grouped by key; the stable sort keeps each group
        // overlay-ascending, i.e. dense-ascending.
        let mut tail_order: Vec<u32> = (0..tail_keys.len()).map(row_id).collect();
        tail_order.sort_by_key(|&t| tail_keys[t as usize]);
        let mut groups = tail_order
            .chunk_by(|&a, &b| tail_keys[a as usize] == tail_keys[b as usize])
            .peekable();
        let group_key = |group: &[u32]| tail_keys[group[0] as usize];

        let mut starts = vec![0u32];
        let mut members: Vec<VectorId> = Vec::with_capacity(rows.len());
        let mut weights = Vec::new();
        let mut nh = 0u64;
        let mut emit = |bucket: Option<usize>, group: &[u32]| {
            let start = members.len();
            if let Some(b) = bucket {
                let (at, len) = base.bucket_members(b);
                members.extend(
                    (at..at + len)
                        .map(|i| dense_of_row[base.member(i) as usize])
                        .filter(|&d| d != DEAD),
                );
            }
            members.extend(group.iter().map(|&t| dense_of_row[base_n + t as usize]));
            // Dense ids are unique, so sorting the run merges its base
            // and overlay members into the heap table's member order.
            members[start..].sort_unstable();
            let weight = pair_count((members.len() - start) as u64);
            if weight == 0 {
                members.truncate(start);
            } else {
                nh += weight;
                weights.push(weight as f64);
                starts.push(row_id(members.len()));
            }
        };
        for b in 0..base.num_buckets() {
            let bucket_key = base.bucket_key(b);
            while let Some(group) = groups.next_if(|g| group_key(g) < bucket_key) {
                emit(None, group);
            }
            let group = groups.next_if(|g| group_key(g) == bucket_key);
            emit(Some(b), group.unwrap_or_default());
        }
        for group in groups {
            emit(None, group);
        }

        let alias = if weights.is_empty() {
            None
        } else {
            Some(AliasTable::new(&weights).expect("positive C(b,2) weights"))
        };
        Self {
            base,
            k,
            tombstones,
            tail_gids,
            tail_keys,
            tail,
            tail_bytes,
            rows,
            starts,
            members,
            alias,
            nh,
        }
    }

    /// A new view with `rows` appended to the overlay (the mapped
    /// delta-publish path — tombstones unchanged by construction). The
    /// base mapping, tombstone set and overlay slabs are shared, the
    /// appended payloads go into one new slab, and the frozen index is
    /// rebuilt in one O(base + overlay) walk.
    pub(crate) fn extended(&self, rows: &[AppendedRow]) -> Self {
        let mut tail_gids = self.tail_gids.clone();
        let mut tail_keys = self.tail_keys.clone();
        tail_gids.extend(rows.iter().map(|r| r.0));
        tail_keys.extend(rows.iter().map(|r| r.1));
        let vectors: Vec<&EncodedRow> = rows.iter().map(|r| &r.2).collect();
        Self::new(
            self.base.clone(),
            self.k,
            self.tombstones.clone(),
            tail_gids,
            tail_keys,
            self.tail.extended(&vectors),
        )
    }

    /// The mapped base.
    pub(crate) fn base(&self) -> &Arc<MappedCheckpoint> {
        &self.base
    }

    /// The tombstone set this view was published with.
    pub(crate) fn tombstones(&self) -> &Arc<TombstoneSet> {
        &self.tombstones
    }

    /// The overlay's global ids, ascending (overlay-row order).
    pub(crate) fn tail_gids(&self) -> &[GlobalId] {
        &self.tail_gids
    }

    /// The overlay's payloads, in overlay-row order.
    pub(crate) fn tail(&self) -> &SharedVectorCollection {
        &self.tail
    }

    /// Encoded bytes of the overlay's payload blocks — the heap-resident
    /// weight a compaction folds back into the mapping.
    #[inline]
    pub(crate) fn tail_bytes(&self) -> u64 {
        self.tail_bytes
    }

    /// Live rows: base minus tombstones plus overlay.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Resolves a dense view id to its backing row.
    #[inline]
    pub(crate) fn row_of_dense(&self, id: VectorId) -> MappedRow {
        let row = self.rows[id as usize] as usize;
        if row < self.base.len() {
            MappedRow::Base(row)
        } else {
            MappedRow::Tail(row - self.base.len())
        }
    }

    /// Global id of a dense view id.
    #[inline]
    pub(crate) fn gid_of(&self, id: VectorId) -> GlobalId {
        match self.row_of_dense(id) {
            MappedRow::Base(row) => self.base.gid(row),
            MappedRow::Tail(t) => self.tail_gids[t],
        }
    }

    /// Bucket key of a dense view id.
    #[inline]
    pub(crate) fn key_of(&self, id: VectorId) -> u64 {
        match self.row_of_dense(id) {
            MappedRow::Base(row) => self.base.key(row),
            MappedRow::Tail(t) => self.tail_keys[t],
        }
    }

    /// The row of a dense view id, borrowed from its payload block in
    /// the mapping or in an overlay slab.
    #[inline]
    pub(crate) fn row(&self, id: VectorId) -> Row<'_> {
        match self.row_of_dense(id) {
            MappedRow::Base(row) => self.base.row(row),
            MappedRow::Tail(t) => self.tail.row(t as VectorId),
        }
    }

    /// The payload block of a dense view id, in the mapping or in an
    /// overlay slab.
    pub(crate) fn block(&self, id: VectorId) -> &[u8] {
        match self.row_of_dense(id) {
            MappedRow::Base(row) => self.base.block(row),
            MappedRow::Tail(t) => self.tail.block(t as VectorId).as_flattened(),
        }
    }

    /// The vector of a dense view id, off the served path: the first
    /// call for a base row decodes the whole base
    /// ([`MappedCheckpoint::vector`]), for an overlay row the whole
    /// overlay.
    pub(crate) fn vector(&self, id: VectorId) -> &SparseVector {
        match self.row_of_dense(id) {
            MappedRow::Base(row) => self.base.vector(row),
            MappedRow::Tail(t) => self.tail.vector(t as VectorId),
        }
    }

    /// An owned copy of a dense view id's vector, decoded straight from
    /// its payload block (nothing is kept).
    pub(crate) fn to_vector(&self, id: VectorId) -> SparseVector {
        match self.row_of_dense(id) {
            MappedRow::Base(row) => self.base.decode(row),
            MappedRow::Tail(t) => self.tail.decode(t as VectorId),
        }
    }
}

impl IndexView for MappedView {
    #[inline]
    fn len(&self) -> usize {
        MappedView::len(self)
    }

    #[inline]
    fn nh(&self) -> u64 {
        self.nh
    }

    #[inline]
    fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn same_bucket(&self, a: VectorId, b: VectorId) -> bool {
        self.key_of(a) == self.key_of(b)
    }

    #[inline]
    fn pair_alias(&self) -> Option<&AliasTable> {
        self.alias.as_ref()
    }

    #[inline]
    fn pair_bucket_pick(
        &self,
        col: usize,
        pick: impl FnOnce(usize) -> (usize, usize),
    ) -> (VectorId, VectorId) {
        let start = self.starts[col] as usize;
        let column = &self.members[start..self.starts[col + 1] as usize];
        let (i, j) = pick(column.len());
        (column[i], column[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::persist::{self, CheckpointMeta};
    use crate::snapshot::Snapshot;
    use crate::ServiceConfig;
    use vsj_lsh::{BucketHasher, Composite, MinHashFamily};
    use vsj_vector::{Cosine, Jaccard, Similarity};

    /// Base row `r` carries gid `3 (r + 1)`, so gids `3 i + 1` and
    /// `3 i + 2` can interleave below the base watermark.
    fn base_gid(r: usize) -> GlobalId {
        3 * (r as u64 + 1)
    }

    /// The payload of row `gid`: a dimension naming the gid, so a
    /// resolved vector shows which row it came from, plus 2–7 weighted
    /// terms on dimensions other rows share — of both signs, over nine
    /// binades, so a pair's `dot` rounds at every addition and depends on
    /// the order of additions.
    fn payload(gid: GlobalId) -> SparseVector {
        let g = gid as u32;
        let shared = (0..2 + g % 6).map(|t| {
            let mantissa = 1.0 + ((g * 7 + t) % 13) as f32 / 13.0;
            let sign = if (g + t).is_multiple_of(4) { -1.0 } else { 1.0 };
            (
                t * (1 + g % 3),
                sign * mantissa * 2.0f32.powi(((g + t) % 9) as i32 - 4),
            )
        });
        SparseVector::from_entries(shared.chain([(1_000 + g, 1.0)]).collect())
            .expect("finite entries")
    }

    fn row(gid: GlobalId, key: u64) -> (GlobalId, u64, Arc<SparseVector>) {
        (gid, key, Arc::new(payload(gid)))
    }

    /// Maps a checkpoint whose base rows have `keys` (arbitrary bucket
    /// keys: the view never re-hashes).
    fn checkpoint(keys: &[u64]) -> Arc<MappedCheckpoint> {
        static FILES: AtomicU64 = AtomicU64::new(0);
        let rows = keys
            .iter()
            .enumerate()
            .map(|(r, &key)| row(base_gid(r), key))
            .collect();
        let hasher: Arc<dyn BucketHasher> =
            Arc::new(Composite::derive(MinHashFamily::new(), 1, 0, 8));
        let meta = CheckpointMeta {
            epoch: 1,
            ingested: 0,
            next_id: 1 << 20,
            applied_seq: 0,
            publishes: 1,
            config: ServiceConfig::default(),
        };
        let bytes = persist::encode_checkpoint(&meta, &Snapshot::of_rows(1, 0, hasher, rows));
        let path = std::env::temp_dir().join(format!(
            "vsj_mapped_view_{}_{}",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes.as_slice()).unwrap();
        let base = MappedCheckpoint::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        Arc::new(base)
    }

    /// Brute force: the live rows `(gid, key, backing row)` in gid
    /// order — the dense id space the view must present.
    fn live_rows(
        base_keys: &[u64],
        dead: &[u32],
        tail: &[(GlobalId, u64)],
    ) -> Vec<(GlobalId, u64, MappedRow)> {
        let mut live: Vec<_> = base_keys
            .iter()
            .enumerate()
            .filter(|&(r, _)| !dead.contains(&(r as u32)))
            .map(|(r, &key)| (base_gid(r), key, MappedRow::Base(r)))
            .chain(
                tail.iter()
                    .enumerate()
                    .map(|(t, &(gid, key))| (gid, key, MappedRow::Tail(t))),
            )
            .collect();
        live.sort_by_key(|r| r.0);
        live
    }

    fn view(base: &Arc<MappedCheckpoint>, dead: &[u32], tail: &[(GlobalId, u64)]) -> MappedView {
        let tombstones = Arc::new(TombstoneSet::from_rows(dead.to_vec()));
        let rows: Vec<EncodedRow> = tail
            .iter()
            .map(|&(gid, _)| EncodedRow::new(&payload(gid)))
            .collect();
        let refs: Vec<&EncodedRow> = rows.iter().collect();
        MappedView::new(
            base.clone(),
            4,
            tombstones,
            tail.iter().map(|r| r.0).collect(),
            tail.iter().map(|r| r.1).collect(),
            SharedVectorCollection::new().extended(&refs),
        )
    }

    /// Every id resolves to its brute-force row, every pair — base ×
    /// base, base × overlay, overlay × overlay — scores in place to the
    /// bits `Cosine` and `Jaccard` give the decoded vectors, and the
    /// pair-bucket columns are the live rows grouped by key —
    /// key-ascending, members dense-ascending, singletons dropped.
    fn check(view: &MappedView, live: &[(GlobalId, u64, MappedRow)]) {
        assert_eq!(view.len(), live.len());
        assert_eq!(IndexView::len(view), live.len());
        let mut by_key: BTreeMap<u64, Vec<VectorId>> = BTreeMap::new();
        for (d, &(gid, key, at)) in live.iter().enumerate() {
            let d = d as VectorId;
            assert_eq!(view.row_of_dense(d), at, "row of dense {d}");
            assert_eq!(view.key_of(d), key, "key of dense {d}");
            assert_eq!(view.gid_of(d), gid, "gid of dense {d}");
            assert_eq!(view.to_vector(d), payload(gid), "vector of dense {d}");
            by_key.entry(key).or_default().push(d);
        }
        for a in 0..live.len() {
            let u = payload(live[a].0);
            for b in 0..live.len() {
                let same = live[a].1 == live[b].1;
                let (da, db) = (a as VectorId, b as VectorId);
                assert_eq!(view.same_bucket(da, db), same);
                let v = payload(live[b].0);
                let (ra, rb) = (view.row(da), view.row(db));
                let pair = format!("{:?} × {:?}", live[a].2, live[b].2);
                assert_eq!(
                    Cosine.sim_rows(ra, rb).to_bits(),
                    Cosine.sim(&u, &v).to_bits(),
                    "cosine of {pair}"
                );
                assert_eq!(
                    Jaccard.sim_rows(ra, rb).to_bits(),
                    Jaccard.sim(&u, &v).to_bits(),
                    "jaccard of {pair}"
                );
            }
        }
        let columns: Vec<Vec<VectorId>> = by_key.into_values().filter(|m| m.len() >= 2).collect();
        let nh: u64 = columns.iter().map(|m| pair_count(m.len() as u64)).sum();
        assert_eq!(view.nh(), nh);
        assert_eq!(view.pair_alias().map_or(0, AliasTable::len), columns.len());
        for (c, want) in columns.iter().enumerate() {
            let got: Vec<VectorId> = (0..want.len())
                .map(|i| {
                    view.pair_bucket_pick(c, |b_j| {
                        assert_eq!(b_j, want.len(), "b_j of column {c}");
                        (i, (i + 1) % b_j)
                    })
                    .0
                })
                .collect();
            assert_eq!(&got, want, "members of column {c}");
        }
    }

    #[test]
    fn degenerate_views_match_the_brute_force_merge() {
        // n = 0: no base, no overlay.
        let empty = checkpoint(&[]);
        let v = view(&empty, &[], &[]);
        check(&v, &[]);
        assert!(v.pair_alias().is_none());
        // Every base row tombstoned.
        let keys = [1, 1, 2, 2, 2];
        let base = checkpoint(&keys);
        let dead = [0, 1, 2, 3, 4];
        check(&view(&base, &dead, &[]), &[]);
        // ... and each one upserted back.
        let upserts: Vec<_> = (0..5).map(|r| (base_gid(r), 7 + r as u64 % 2)).collect();
        check(
            &view(&base, &dead, &upserts),
            &live_rows(&keys, &dead, &upserts),
        );
        // Overlay only.
        let tail = [(1, 4), (2, 4), (5, 9)];
        check(&view(&empty, &[], &tail), &live_rows(&[], &[], &tail));
        // A bare base.
        let keys = [0, 0, 1, 2, 2, 2];
        check(
            &view(&checkpoint(&keys), &[], &[]),
            &live_rows(&keys, &[], &[]),
        );
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random bases with duplicate keys, random tombstones, and
            /// overlays mixing appends, upserts of tombstoned gids,
            /// interleaving fresh gids and overlay-only keys: the view
            /// matches the brute-force gid-sorted merge and scores every
            /// pair in place, bit-identically to the decoded rows, with
            /// no row decoded onto the heap; and extending a prefix of
            /// the overlay equals building over all of it.
            #[test]
            fn view_matches_brute_force_merge(
                base_rows in proptest::collection::vec((0u64..5, 0u8..3), 0..14),
                overlay in proptest::collection::vec((0u8..3, 0u64..7, 0usize..64), 0..10),
                split in 0usize..16,
            ) {
                let keys: Vec<u64> = base_rows.iter().map(|r| r.0).collect();
                let dead: Vec<u32> = (0..keys.len() as u32)
                    .filter(|&r| base_rows[r as usize].1 == 0)
                    .collect();
                // Keys 5 and 6 only ever occur in the overlay.
                let mut tail: BTreeMap<GlobalId, u64> = BTreeMap::new();
                for (i, &(kind, key, pick)) in overlay.iter().enumerate() {
                    let gid = match kind {
                        0 => 1_000 + i as u64,
                        1 if !dead.is_empty() => base_gid(dead[pick % dead.len()] as usize),
                        _ => 3 * (pick % (keys.len() + 1)) as u64 + 1,
                    };
                    tail.insert(gid, key);
                }
                let tail: Vec<(GlobalId, u64)> = tail.into_iter().collect();
                let base = checkpoint(&keys);
                let full = view(&base, &dead, &tail);
                check(&full, &live_rows(&keys, &dead, &tail));

                let split = split % (tail.len() + 1);
                let suffix: Vec<_> = tail[split..]
                    .iter()
                    .map(|&(g, k)| (g, k, EncodedRow::new(&payload(g))))
                    .collect();
                let extended = view(&base, &dead, &tail[..split]).extended(&suffix);
                check(&extended, &live_rows(&keys, &dead, &tail));
                prop_assert_eq!(&extended.rows, &full.rows);
                prop_assert_eq!(&extended.starts, &full.starts);
                prop_assert_eq!(&extended.members, &full.members);
                prop_assert_eq!(extended.tail_bytes(), full.tail_bytes());

                prop_assert_eq!(base.materialized(), 0);
                for d in 0..full.len() as VectorId {
                    prop_assert_eq!(full.vector(d), &full.to_vector(d));
                }
                let decoded = if full.len() > full.tail().len() { base.len() } else { 0 };
                prop_assert_eq!(base.materialized(), decoded as u64);
                prop_assert_eq!(full.tail().materialized(), full.tail().len());
            }
        }
    }
}
