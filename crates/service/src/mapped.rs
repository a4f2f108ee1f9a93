//! The out-of-core "map + go" checkpoint tier.
//!
//! [`MappedCheckpoint`] serves a v3 checkpoint container *directly from
//! the on-disk file*: the container is memory-mapped, every section's
//! checksum and the cross-section structure are validated once, and
//! from then on bucket runs, key arrays, and vector payloads are read
//! straight out of the mapping — the base corpus never enters the heap.
//! Vector payloads materialize lazily (one [`OnceLock`] cell per row)
//! the first time an estimator actually touches them, so a cold start
//! costs O(map + validation scan) instead of O(decode + rebuild).
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

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use memmap2::Mmap;
use vsj_core::IndexView;
use vsj_datasets::io::{self, ContainerIndex};
use vsj_sampling::{pair_count, AliasTable};
use vsj_vector::{SparseVector, VectorId};

use crate::persist::{
    decode_meta, CheckpointMeta, PersistError, SECTION_BKTK, SECTION_BMEM, SECTION_BOFF,
    SECTION_GIDS, SECTION_KEYS, SECTION_META, SECTION_VOFF, SECTION_VPAY,
};
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

    /// True when no base row is tombstoned.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether base row `row` is tombstoned.
    #[inline]
    pub(crate) fn contains(&self, row: u32) -> bool {
        self.rows.binary_search(&row).is_ok()
    }

    /// Number of tombstoned rows with index strictly below `row`.
    #[inline]
    pub(crate) fn rank_below(&self, row: u32) -> usize {
        self.rows.partition_point(|&d| d < row)
    }

    /// The sorted row indices.
    #[inline]
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }
}

/// A validated, memory-mapped v3 checkpoint: the base rows of a mapped
/// engine. All integer reads go through `from_le_bytes` on mapped
/// slices; vectors decode lazily into per-row cells on first touch.
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
    cells: Vec<OnceLock<SparseVector>>,
    materialized: AtomicU64,
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
    /// Maps and validates the checkpoint at `path`.
    ///
    /// Validation is one linear scan (the container's per-section
    /// checksums) plus O(n) integer structure checks — no vector is
    /// decoded, no heap table is built. Any framing, checksum, or
    /// cross-section inconsistency fails loudly here so the serving
    /// path can trust the mapping unconditionally.
    pub(crate) fn open(path: &Path) -> Result<Self, PersistError> {
        let file = std::fs::File::open(path)?;
        let map = Mmap::map(&file)?;
        Self::from_map(map)
    }

    fn from_map(map: Mmap) -> Result<Self, PersistError> {
        let index = ContainerIndex::parse(&map)?;
        let meta_range = index.require(SECTION_META)?;
        let (meta, n64) = decode_meta(Bytes::copy_from_slice(&map[meta_range]))?;
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
        // prefix must account for its exact length, so lazy decoding
        // can never run off a block.
        if u64_in(&voff, 0) != 0 || u64_in(&voff, n) != vpay.len() as u64 {
            return Err(corrupt("VOFF does not span exactly the payload slab"));
        }
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
        }
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, OnceLock::new);
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
            cells,
            materialized: AtomicU64::new(0),
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

    /// Base vectors whose payload has been decoded into the heap cell.
    pub(crate) fn materialized(&self) -> u64 {
        self.materialized.load(Ordering::Relaxed)
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

    /// The whole payload slab (for re-encoding at checkpoint time).
    pub(crate) fn payload_slab(&self) -> &[u8] {
        &self.map[self.vpay.clone()]
    }

    /// Byte offset of row `i`'s payload block inside the slab.
    #[inline]
    pub(crate) fn payload_offset(&self, i: usize) -> u64 {
        self.u64_in(&self.voff, i)
    }

    /// The vector of base row `i`, decoding its payload block into the
    /// row's cell on first touch.
    ///
    /// # Panics
    /// Panics if the block fails vector-invariant validation — ruled
    /// out for disk corruption by the map-time checksums, so a panic
    /// here means a writer bug, not bad media.
    pub(crate) fn vector(&self, i: usize) -> &SparseVector {
        self.cells[i].get_or_init(|| {
            let start = self.payload_offset(i) as usize;
            let end = self.payload_offset(i + 1) as usize;
            let mut block =
                Bytes::copy_from_slice(&self.map[self.vpay.start + start..self.vpay.start + end]);
            let v = io::decode_vector(&mut block)
                .expect("checksummed VPAY block failed vector validation");
            self.materialized.fetch_add(1, Ordering::Relaxed);
            v
        })
    }
}

/// Where a dense view id resolves: a live base row of the mapping, or
/// an overlay row on the heap. The checkpoint writer walks dense ids
/// through this to byte-copy base payload blocks and re-encode only the
/// overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MappedRow {
    /// Base row index into the mapped checkpoint.
    Base(usize),
    /// Overlay row index into the view's tail.
    Tail(usize),
}

/// One merged pair bucket (`C(b_j, 2) > 0`) of a [`MappedView`], in
/// key-ascending enumeration order. Members are **dense view ids**
/// (global-id ascending), matching the heap table's bucket member
/// order exactly.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// The common shape: no tombstoned member, and every overlay member
    /// sorts after every base member (append-only buckets). Base
    /// members are read from the mapping and converted to dense ids at
    /// sample time; overlay members are a run of `tail_members`.
    Direct {
        base_start: u64,
        base_len: u32,
        tail_start: u32,
        tail_len: u32,
    },
    /// A bucket touched by a tombstone or an interleaving upsert: its
    /// live members were merged explicitly into a run of `patched`.
    Patched { start: u32, len: u32 },
}

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
    tail_vectors: Vec<Arc<SparseVector>>,
    /// Dense view id of each overlay row (ascending — overlay rows are
    /// gid-sorted).
    tail_dense: Vec<VectorId>,
    /// Encoded size of the overlay's payload blocks — the "heap bytes
    /// a compaction would fold away" trigger signal.
    tail_bytes: u64,
    /// Fast path: no tombstones and the whole overlay sorts after the
    /// whole base, so dense ids are the identity over base rows.
    plain: bool,
    columns: Vec<Column>,
    tail_members: Vec<VectorId>,
    patched: Vec<VectorId>,
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
    /// overlay rows (`(gid, key, vector)`, strictly ascending by gid,
    /// never colliding with a live base gid — the caller validates).
    ///
    /// Walks base buckets (key-ascending by layout) and overlay key
    /// groups (key-ascending by `BTreeMap`) in a single merge, emitting
    /// every bucket with ≥ 2 live merged members as an alias column —
    /// the same column sequence and weights the heap table's sampler
    /// derives over the live rows, hence the same sampling stream. Only
    /// buckets actually touched by a tombstone or an interleaving
    /// overlay row pay an explicit member merge; the append-only rest
    /// stays O(1) per bucket.
    pub(crate) fn new(
        base: Arc<MappedCheckpoint>,
        k: usize,
        tombstones: Arc<TombstoneSet>,
        tail: Vec<(GlobalId, u64, Arc<SparseVector>)>,
    ) -> Self {
        debug_assert!(tail.windows(2).all(|w| w[0].0 < w[1].0), "tail gid-sorted");
        let base_n = base.len();
        let mut tail_gids = Vec::with_capacity(tail.len());
        let mut tail_keys = Vec::with_capacity(tail.len());
        let mut tail_vectors = Vec::with_capacity(tail.len());
        let mut tail_bytes = 0u64;
        for (gid, key, v) in tail {
            tail_gids.push(gid);
            tail_keys.push(key);
            tail_bytes += 4 + 8 * v.nnz() as u64;
            tail_vectors.push(v);
        }
        let plain = tombstones.is_empty()
            && (tail_gids.is_empty() || base_n == 0 || tail_gids[0] > base.gid(base_n - 1));

        // Dense id of each overlay row: live base rows with a smaller
        // gid, plus earlier overlay rows (gid-sorted, so exactly `t`).
        let dead = tombstones.rows();
        let live_base_below_gid = |gid: GlobalId| -> usize {
            let mut lo = 0usize;
            let mut hi = base_n;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if base.gid(mid) < gid {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo - dead.partition_point(|&d| (d as usize) < lo)
        };
        let tail_dense: Vec<VectorId> = tail_gids
            .iter()
            .enumerate()
            .map(|(t, &gid)| (live_base_below_gid(gid) + t) as VectorId)
            .collect();
        let dense_of_row = |row: VectorId| -> VectorId {
            if plain {
                return row;
            }
            let live_rank = row as usize - dead.partition_point(|&d| d < row);
            let below = tail_gids.partition_point(|&g| g < base.gid(row as usize));
            (live_rank + below) as VectorId
        };

        // Buckets a tombstone touches, found by key lookup: only these
        // pay the explicit member merge.
        let mut dead_in_bucket: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for &row in dead {
            let key = base.key(row as usize);
            let mut lo = 0usize;
            let mut hi = base.num_buckets();
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if base.bucket_key(mid) < key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            debug_assert!(lo < base.num_buckets() && base.bucket_key(lo) == key);
            dead_in_bucket.entry(lo).or_default().push(row);
        }

        let mut tail_groups: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (t, &key) in tail_keys.iter().enumerate() {
            tail_groups.entry(key).or_default().push(t as u32);
        }

        let mut columns = Vec::new();
        let mut weights = Vec::new();
        let mut tail_members: Vec<VectorId> = Vec::new();
        let mut patched: Vec<VectorId> = Vec::new();
        let mut nh = 0u64;
        let empty_dead: Vec<u32> = Vec::new();
        let mut emit = |bucket: Option<usize>, group: Option<&Vec<u32>>| {
            let (start, len, bucket_dead) = match bucket {
                Some(b) => {
                    let (s, l) = base.bucket_members(b);
                    (s, l, dead_in_bucket.get(&b).unwrap_or(&empty_dead))
                }
                None => (0, 0, &empty_dead),
            };
            let live_len = len - bucket_dead.len();
            let tail_len = group.map_or(0, Vec::len);
            let weight = pair_count((live_len + tail_len) as u64);
            nh += weight;
            if weight == 0 {
                return;
            }
            weights.push(weight as f64);
            // Direct needs dense-ascending concatenation: all base
            // members live, and the first overlay gid past the last
            // base member's gid.
            let interleaved = live_len > 0 && tail_len > 0 && {
                let last_row = base.member(start + len - 1);
                tail_gids[group.expect("tail_len > 0")[0] as usize] < base.gid(last_row as usize)
            };
            if bucket_dead.is_empty() && !interleaved {
                let tail_start = tail_members.len() as u32;
                if let Some(group) = group {
                    tail_members.extend(group.iter().map(|&t| tail_dense[t as usize]));
                }
                columns.push(Column::Direct {
                    base_start: start as u64,
                    base_len: len as u32,
                    tail_start,
                    tail_len: tail_len as u32,
                });
            } else {
                let p_start = patched.len() as u32;
                let live: Vec<VectorId> = (0..len)
                    .map(|off| base.member(start + off))
                    .filter(|row| bucket_dead.binary_search(row).is_err())
                    .map(dense_of_row)
                    .collect();
                let tail_ds: Vec<VectorId> = group
                    .map(|g| g.iter().map(|&t| tail_dense[t as usize]).collect())
                    .unwrap_or_default();
                let (mut a, mut b) = (0usize, 0usize);
                while a < live.len() && b < tail_ds.len() {
                    if live[a] < tail_ds[b] {
                        patched.push(live[a]);
                        a += 1;
                    } else {
                        patched.push(tail_ds[b]);
                        b += 1;
                    }
                }
                patched.extend_from_slice(&live[a..]);
                patched.extend_from_slice(&tail_ds[b..]);
                columns.push(Column::Patched {
                    start: p_start,
                    len: (live_len + tail_len) as u32,
                });
            }
        };

        let mut tail_iter = tail_groups.iter().peekable();
        for b in 0..base.num_buckets() {
            let bucket_key = base.bucket_key(b);
            while tail_iter
                .peek()
                .is_some_and(|(&tail_key, _)| tail_key < bucket_key)
            {
                let (_, members) = tail_iter.next().expect("peeked");
                emit(None, Some(members));
            }
            let merged = tail_iter
                .peek()
                .is_some_and(|(&tail_key, _)| tail_key == bucket_key)
                .then(|| tail_iter.next().expect("peeked").1);
            emit(Some(b), merged);
        }
        for (_, members) in tail_iter {
            emit(None, Some(members));
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
            tail_vectors,
            tail_dense,
            tail_bytes,
            plain,
            columns,
            tail_members,
            patched,
            alias,
            nh,
        }
    }

    /// A new view with `rows` appended to the overlay (the mapped
    /// delta-publish path — tombstones unchanged by construction). The
    /// base mapping and tombstone set are shared; merged columns are
    /// rebuilt in O(buckets + overlay).
    pub(crate) fn extended(&self, rows: &[(GlobalId, u64, Arc<SparseVector>)]) -> Self {
        let mut tail: Vec<(GlobalId, u64, Arc<SparseVector>)> = self
            .tail_gids
            .iter()
            .zip(&self.tail_keys)
            .zip(&self.tail_vectors)
            .map(|((&g, &k), v)| (g, k, v.clone()))
            .collect();
        tail.extend_from_slice(rows);
        Self::new(self.base.clone(), self.k, self.tombstones.clone(), tail)
    }

    /// The mapped base.
    pub(crate) fn base(&self) -> &Arc<MappedCheckpoint> {
        &self.base
    }

    /// The tombstone set this view was published with.
    pub(crate) fn tombstones(&self) -> &Arc<TombstoneSet> {
        &self.tombstones
    }

    /// The overlay's vectors, in overlay-row order.
    pub(crate) fn tail_vectors(&self) -> &[Arc<SparseVector>] {
        &self.tail_vectors
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
        self.base.len() - self.tombstones.len() + self.tail_keys.len()
    }

    /// Resolves a dense view id to its backing row.
    pub(crate) fn row_of_dense(&self, id: VectorId) -> MappedRow {
        if self.plain {
            let id = id as usize;
            return if id < self.base.len() {
                MappedRow::Base(id)
            } else {
                MappedRow::Tail(id - self.base.len())
            };
        }
        match self.tail_dense.binary_search(&id) {
            Ok(t) => MappedRow::Tail(t),
            Err(t) => {
                // `id` is the (id - t)-th live base row; select it by
                // binary search over the live-rank prefix function.
                let live_rank = id as usize - t;
                let dead = self.tombstones.rows();
                let mut lo = 0usize;
                let mut hi = self.base.len();
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let live_through = mid + 1 - dead.partition_point(|&d| (d as usize) <= mid);
                    if live_through <= live_rank {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                debug_assert!(lo < self.base.len() && !self.tombstones.contains(lo as u32));
                MappedRow::Base(lo)
            }
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

    /// The vector of a dense view id (base rows materialize from the
    /// mapping on first touch).
    #[inline]
    pub(crate) fn vector(&self, id: VectorId) -> &SparseVector {
        match self.row_of_dense(id) {
            MappedRow::Base(row) => self.base.vector(row),
            MappedRow::Tail(t) => &self.tail_vectors[t],
        }
    }

    /// Dense view id of a live base row.
    #[inline]
    fn dense_of_base_row(&self, row: VectorId) -> VectorId {
        if self.plain {
            return row;
        }
        let live_rank = row as usize - self.tombstones.rank_below(row);
        let below = self
            .tail_gids
            .partition_point(|&g| g < self.base.gid(row as usize));
        (live_rank + below) as VectorId
    }

    #[inline]
    fn column_member(&self, col: &Column, i: usize) -> VectorId {
        match *col {
            Column::Direct {
                base_start,
                base_len,
                tail_start,
                ..
            } => {
                if i < base_len as usize {
                    self.dense_of_base_row(self.base.member(base_start as usize + i))
                } else {
                    self.tail_members[tail_start as usize + (i - base_len as usize)]
                }
            }
            Column::Patched { start, .. } => self.patched[start as usize + i],
        }
    }

    #[inline]
    fn column_len(col: &Column) -> usize {
        match *col {
            Column::Direct {
                base_len, tail_len, ..
            } => (base_len + tail_len) as usize,
            Column::Patched { len, .. } => len as usize,
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
        let column = self.columns[col];
        let (i, j) = pick(Self::column_len(&column));
        (
            self.column_member(&column, i),
            self.column_member(&column, j),
        )
    }
}
