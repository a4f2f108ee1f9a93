//! Write-ahead log of ingest operations between checkpoints.
//!
//! The log is a [`WalSet`]: per-shard *segment chains* stitched by a
//! global sequence number. Durable ingests grab a sequence from an
//! atomic counter and append to their own shard's active segment in
//! parallel — writers on different shards never contend on the log.
//! Recovery merge-replays all chains in global sequence order,
//! reproducing the exact serialized history; `publish` records act as
//! **sequence barriers** (they are only logged while no ingest is in
//! flight, so "every record with a smaller sequence is applied, none
//! with a larger one" holds both live and under replay).
//! Acknowledgement is one rule ([`WalSet::commit`], per
//! [`FsyncPolicy`]): under `Always` a writer's ticket is acknowledged
//! once an fsync covers it, and one fsync covers every ticket
//! outstanding on its shard. This is the only log format: recovery
//! refuses a directory holding anything else (see
//! [`EstimationEngine::recover_with`](crate::EstimationEngine::recover_with)).
//!
//! ## File layout (all little-endian)
//!
//! Each shard `s` owns a chain of segment files
//! `wal-SSSS-IIIIIIII.vsjw` (shard, segment index, both zero-padded
//! decimal):
//!
//! ```text
//! segment header:
//!   magic       4 bytes  "VSJW"
//!   version     u32      3
//!   fingerprint u64      identity hash of the engine config
//!   shard       u32      owning shard (must match the file name)
//!   segment     u64      chain index (must match the file name)
//! per record:
//!   len      u32      payload length in bytes
//!   checksum u64      checksum64 of the payload
//!   payload:
//!     seq u64      global sequence number
//!     op  u8       1 = insert, 2 = remove, 3 = upsert, 4 = publish
//!     id  u64      global id (0 for publish)
//!     (insert/upsert) the row block: nnz u32, nnz × u32 indices,
//!                     nnz × f32 weights
//! ```
//!
//! The row block is the one a checkpoint stores, written, checked and
//! decoded by [`vsj_vector::row`], the block's one codec: a record whose
//! block is not a stored row (unsorted indices, a non-finite or zero
//! weight, a wrong length) is undecodable like a failed checksum. A
//! frame is built in one buffer and read in place from the segment's
//! bytes.
//!
//! Within a chain, sequence numbers strictly increase (the sequence is
//! assigned under the shard's append lock), so file order is sequence
//! order per shard and a k-way merge by `seq` reconstructs the global
//! history. Gaps between *shards* are legal — they mark un-acknowledged
//! records lost to a crash on some other shard, which commute with
//! everything that survived (operations on one global id always land on
//! one shard; cross-shard ordering is only constrained at publish
//! barriers, and a barrier is only acknowledged after everything before
//! it).
//!
//! ## Torn tails vs. corruption
//!
//! Only the **last** segment of a chain may carry a torn tail (a crash
//! mid-append); the reader truncates it to the last whole record.
//! Sealed segments were fsync'd at
//! rotation, so damage inside one — or a missing segment in the middle
//! of a chain, or a duplicated sequence number — is real corruption and
//! fails loudly. Header damage is never survivable (with one
//! exception: a last segment shorter than a header is the residue of a
//! crash mid-rotation and is recreated empty).
//!
//! ## Checkpoint truncation is O(1)
//!
//! A checkpoint never rewrites the log. It records its cut sequence
//! in the checkpoint metadata; [`WalSet::truncate`] then *unlinks whole
//! sealed segments* whose records are all at or below the retention
//! horizon — the minimum cut over every kept checkpoint generation —
//! and touches no surviving byte.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use vsj_datasets::io::checksum64;
use vsj_obs::{Histogram, HistogramSpec, Registry};
use vsj_vector::row::{block_words, split_block};
use vsj_vector::SparseVector;

use crate::config::FsyncPolicy;
use crate::locks;
use crate::persist::{take, PersistError};
use crate::GlobalId;

const WAL_MAGIC: &[u8; 4] = b"VSJW";
/// The segmented per-shard format.
const WAL_SEGMENT_VERSION: u32 = 3;
const SEGMENT_HEADER_LEN: u64 = 28;
/// A frame's `len | checksum` ahead of its payload.
const FRAME_HEADER_LEN: usize = 12;

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_UPSERT: u8 = 3;
const OP_PUBLISH: u8 = 4;

/// One logged ingest operation, borrowed form (what writers append).
#[derive(Debug, Clone, Copy)]
pub enum WalOp<'a> {
    /// A fresh vector under an engine-assigned id.
    Insert(GlobalId, &'a SparseVector),
    /// Removal of a live id (only *applied* removes are logged).
    Remove(GlobalId),
    /// Insert-or-replace under a caller-chosen id.
    Upsert(GlobalId, &'a SparseVector),
    /// A snapshot publication — explicit calls, auto-publish boundary
    /// crossings on durable engines, and checkpoint cuts are all
    /// logged, because parallel replay cannot re-derive them from the
    /// ingest stream alone. A publish record is a **sequence barrier**:
    /// it is only appended while no ingest is in flight.
    Publish,
}

/// One logged ingest operation, owned form (what replay consumes).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// See [`WalOp::Insert`].
    Insert {
        /// Engine-assigned global id.
        id: GlobalId,
        /// The ingested vector.
        vector: SparseVector,
    },
    /// See [`WalOp::Remove`].
    Remove {
        /// The removed global id.
        id: GlobalId,
    },
    /// See [`WalOp::Upsert`].
    Upsert {
        /// Caller-chosen global id.
        id: GlobalId,
        /// The replacement vector.
        vector: SparseVector,
    },
    /// See [`WalOp::Publish`].
    Publish,
}

impl WalRecord {
    /// The vector an insert or upsert carries; `None` for the others.
    pub fn vector(&self) -> Option<&SparseVector> {
        match self {
            WalRecord::Insert { vector, .. } | WalRecord::Upsert { vector, .. } => Some(vector),
            WalRecord::Remove { .. } | WalRecord::Publish => None,
        }
    }
}

/// The frame of `op` under sequence `seq`, built in one buffer: `len |
/// checksum` over the payload `seq | op | id | block`, the block written
/// by the row codec.
fn encode_frame(seq: u64, op: WalOp<'_>) -> Vec<u8> {
    let (tag, id, vector) = match op {
        WalOp::Insert(id, v) => (OP_INSERT, id, Some(v)),
        WalOp::Remove(id) => (OP_REMOVE, id, None),
        WalOp::Upsert(id, v) => (OP_UPSERT, id, Some(v)),
        WalOp::Publish => (OP_PUBLISH, 0, None),
    };
    let words = vector.map_or(0, |v| 1 + 2 * v.nnz());
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + 17 + 4 * words);
    frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(&id.to_le_bytes());
    if let Some(v) = vector {
        block_words(v).for_each(|word| frame.extend_from_slice(&word));
    }
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&checksum64(payload).to_le_bytes());
    frame
}

/// The sequence number and record of one frame payload, or `None` when
/// the payload is not a record this writer lays down (an unknown op,
/// trailing bytes, or a block that is not a stored row).
fn decode_payload(mut data: &[u8]) -> Option<(u64, WalRecord)> {
    let seq = u64::from_le_bytes(take(&mut data)?);
    let [tag] = take(&mut data)?;
    let id = u64::from_le_bytes(take(&mut data)?);
    let vector = || {
        let (words, []) = data.as_chunks() else {
            return None;
        };
        let (row, []) = split_block(words).ok()? else {
            return None;
        };
        Some(row.to_vector())
    };
    let record = match tag {
        OP_INSERT => WalRecord::Insert {
            id,
            vector: vector()?,
        },
        OP_UPSERT => WalRecord::Upsert {
            id,
            vector: vector()?,
        },
        OP_REMOVE if data.is_empty() => WalRecord::Remove { id },
        OP_PUBLISH if data.is_empty() => WalRecord::Publish,
        _ => return None,
    };
    Some((seq, record))
}

/// Walks length+checksum frames from `data`, handing each valid payload
/// to `sink` until the tail tears (short frame, checksum or decode
/// failure). Returns the byte length of the valid prefix (relative to
/// `start`) and whether the whole input was consumed cleanly.
fn walk_frames(
    mut data: &[u8],
    start: u64,
    mut sink: impl FnMut(&[u8], u64) -> bool,
) -> (u64, bool) {
    let mut offset = start;
    while !data.is_empty() {
        let (Some(len), Some(checksum)) = (take(&mut data), take(&mut data)) else {
            return (offset, false);
        };
        let Some((payload, rest)) = data.split_at_checked(u32::from_le_bytes(len) as usize) else {
            return (offset, false);
        };
        if checksum64(payload) != u64::from_le_bytes(checksum) {
            return (offset, false);
        }
        let end = offset + (FRAME_HEADER_LEN + payload.len()) as u64;
        if !sink(payload, end) {
            return (offset, false);
        }
        data = rest;
        offset = end;
    }
    (offset, true)
}

// --- segmented per-shard log -------------------------------------------------

/// File name of shard `shard`'s segment `index`.
pub fn segment_file_name(shard: usize, index: u64) -> String {
    format!("wal-{shard:04}-{index:08}.vsjw")
}

fn parse_segment_file_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".vsjw")?;
    let (shard, index) = rest.split_once('-')?;
    if shard.len() != 4 || index.len() != 8 {
        return None;
    }
    Some((shard.parse().ok()?, index.parse().ok()?))
}

/// The segment files of shard `shard` present in `dir`, ascending by
/// chain index.
pub fn segment_files(dir: &Path, shard: usize) -> Vec<PathBuf> {
    let mut found = Vec::new();
    if let Ok(listing) = std::fs::read_dir(dir) {
        for entry in listing.flatten() {
            let name = entry.file_name();
            if let Some((s, index)) = name.to_str().and_then(parse_segment_file_name) {
                if s == shard {
                    found.push((index, entry.path()));
                }
            }
        }
    }
    found.sort_unstable_by_key(|(index, _)| *index);
    found.into_iter().map(|(_, path)| path).collect()
}

fn encode_segment_header(fingerprint: u64, shard: usize, index: u64) -> Vec<u8> {
    [
        WAL_MAGIC.as_slice(),
        &WAL_SEGMENT_VERSION.to_le_bytes(),
        &fingerprint.to_le_bytes(),
        &(shard as u32).to_le_bytes(),
        &index.to_le_bytes(),
    ]
    .concat()
}

/// One validated record: the global sequence number, the shard whose
/// chain carried it, and the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqEntry {
    /// Global sequence number.
    pub seq: u64,
    /// Shard whose segment chain holds the record.
    pub shard: usize,
    /// The operation.
    pub record: WalRecord,
    /// Byte offset one past this record's frame within its segment.
    pub end_offset: u64,
}

/// Everything [`read_segment`] learned about one segment file.
#[derive(Debug)]
pub struct SegmentReplay {
    /// Config fingerprint from the header.
    pub fingerprint: u64,
    /// Owning shard from the header.
    pub shard: usize,
    /// Chain index from the header.
    pub index: u64,
    /// The valid record prefix.
    pub entries: Vec<SeqEntry>,
    /// `false` when bytes past the valid prefix were ignored.
    pub clean: bool,
    /// Byte length of the valid prefix (header + whole records).
    pub valid_len: u64,
}

/// Parses and validates one segment file.
///
/// # Errors
/// Unreadable file or damaged header (wrong magic/version/owner). A
/// torn record tail is *not* an error here — the caller decides whether
/// this segment was allowed to tear (only the last of a chain is).
pub fn read_segment(path: &Path) -> Result<SegmentReplay, PersistError> {
    let raw = std::fs::read(path)?;
    let mut data = raw.as_slice();
    let (Some(magic), Some(version), Some(fingerprint), Some(shard), Some(index)) = (
        take::<4>(&mut data),
        take(&mut data).map(u32::from_le_bytes),
        take(&mut data).map(u64::from_le_bytes),
        take(&mut data).map(|s| u32::from_le_bytes(s) as usize),
        take(&mut data).map(u64::from_le_bytes),
    ) else {
        return Err(PersistError::Corrupt(format!(
            "WAL segment header truncated ({} bytes) in {}",
            raw.len(),
            path.display()
        )));
    };
    if &magic != WAL_MAGIC {
        return Err(PersistError::Corrupt(format!(
            "{} is not a VSJW segment",
            path.display()
        )));
    }
    if version != WAL_SEGMENT_VERSION {
        return Err(PersistError::Corrupt(format!(
            "unsupported WAL segment version {version} in {}",
            path.display()
        )));
    }
    if let Some((name_shard, name_index)) = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_segment_file_name)
    {
        if name_shard != shard || name_index != index {
            return Err(PersistError::Corrupt(format!(
                "segment {} claims shard {shard} index {index} in its header",
                path.display()
            )));
        }
    }
    let mut entries = Vec::new();
    let (valid_len, clean) = walk_frames(data, SEGMENT_HEADER_LEN, |payload, end| {
        let Some((seq, record)) = decode_payload(payload) else {
            return false;
        };
        entries.push(SeqEntry {
            seq,
            shard,
            record,
            end_offset: end,
        });
        true
    });
    Ok(SegmentReplay {
        fingerprint,
        shard,
        index,
        entries,
        clean,
        valid_len,
    })
}

/// A claim ticket for one appended record: [`WalSet::commit`] blocks on
/// it until the record is flushed per the engine's [`FsyncPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct WalTicket {
    /// The record's global sequence number.
    pub seq: u64,
    shard: usize,
    ticket: u64,
}

/// Histogram handles a [`WalSet`] records its timings into — normally
/// registered against the owning engine's metric [`Registry`]. The set
/// keeps its own plain fsync/rotation *counts* for [`WalSetStats`]; the
/// histograms add the latency and batch-size distributions on top
/// (their `_count` series double as registry-side event counters).
#[derive(Debug, Clone)]
pub struct WalMetrics {
    /// Segment-file fsync latency, µs (`Always` flush leaders, seals,
    /// barrier and checkpoint syncs).
    pub fsync_us: Histogram,
    /// Full [`WalSet::commit`] wait, µs — time from calling commit to
    /// the durable acknowledgement, leader or follower. Not recorded
    /// under [`FsyncPolicy::Never`] (commit is a no-op there).
    pub commit_wait_us: Histogram,
    /// Tickets covered per completed flush — how many writers each
    /// `Always` fsync (or seal, or sync) acknowledged.
    pub group_batch: Histogram,
    /// Segment rotation duration (seal fsync + next-segment create), µs.
    pub rotation_us: Histogram,
    /// Checkpoint truncation duration (sealed-segment unlink sweep), µs.
    pub truncation_us: Histogram,
}

impl WalMetrics {
    /// Handles that record nowhere — the default for a [`WalSet`] used
    /// outside an engine (tests, tooling).
    pub fn disabled() -> Self {
        let none = HistogramSpec::disabled();
        Self {
            fsync_us: Histogram::new(none),
            commit_wait_us: Histogram::new(none),
            group_batch: Histogram::new(none),
            rotation_us: Histogram::new(none),
            truncation_us: Histogram::new(none),
        }
    }

    /// Registers the WAL series against `registry` (idempotent — the
    /// registry dedupes by name, so re-registration returns the same
    /// underlying handles).
    pub fn registered(registry: &Registry, latency: HistogramSpec, size: HistogramSpec) -> Self {
        Self {
            fsync_us: registry.histogram(
                "vsj_wal_fsync_duration_us",
                "WAL segment fsync latency in microseconds",
                latency,
            ),
            commit_wait_us: registry.histogram(
                "vsj_wal_commit_wait_us",
                "Durable-acknowledgement wait in WAL commit in microseconds",
                latency,
            ),
            group_batch: registry.histogram(
                "vsj_wal_group_commit_batch",
                "Tickets covered per completed WAL flush",
                size,
            ),
            rotation_us: registry.histogram(
                "vsj_wal_rotation_duration_us",
                "WAL segment rotation duration in microseconds",
                latency,
            ),
            truncation_us: registry.histogram(
                "vsj_wal_truncation_duration_us",
                "WAL checkpoint truncation duration in microseconds",
                latency,
            ),
        }
    }
}

/// Point-in-time counters of a [`WalSet`].
#[derive(Debug, Clone)]
pub struct WalSetStats {
    /// Live segment files across all shards.
    pub segments: u64,
    /// fsync calls issued (appends, seals, checkpoint syncs).
    pub fsyncs: u64,
    /// Segment rotations (seal + fresh segment).
    pub rotations: u64,
    /// Per-shard records not yet covered by a checkpoint.
    pub shard_pending: Vec<u64>,
}

struct ShardWalState {
    file: File,
    /// Chain index of the active segment.
    index: u64,
    /// Valid bytes in the active segment (header + whole frames).
    offset: u64,
    /// Global sequence of the last record in the active segment (0 when
    /// it has none).
    last_seq: u64,
    /// Whether the active segment holds any records.
    has_records: bool,
    /// Append tickets issued on this shard.
    appended: u64,
    /// Tickets covered by a completed flush (fsync or seal).
    flushed: u64,
    /// A leader is mid-fsync.
    flushing: bool,
    /// Sealed segments still on disk: `(chain index, last seq)`.
    sealed: Vec<(u64, u64)>,
    /// Latched failure (mirrored by the set-wide poison flag).
    failed: bool,
}

struct ShardWal {
    state: Mutex<ShardWalState>,
    flushed: Condvar,
    /// Records past the checkpoint cut, readable without the lock.
    pending: AtomicU64,
}

/// The write-ahead log: one segment chain per shard, stitched by a
/// global sequence counter. See the module docs for the format and the
/// merge-replay/barrier invariants.
///
/// All methods take `&self`; per-shard appends synchronize on their
/// shard's lock only, so writers on different shards proceed in
/// parallel. The set is **failure-latching**: any I/O error on any
/// shard, or a panic while a shard's lock was held, poisons the whole
/// set and every further append is refused (a deployment that cannot
/// persist must not keep acknowledging writes it may lose). Shard locks
/// are taken under the crate's one lock policy (the `locks` module).
pub struct WalSet {
    dir: PathBuf,
    fingerprint: u64,
    policy: FsyncPolicy,
    segment_bytes: u64,
    shards: Vec<ShardWal>,
    /// Last assigned global sequence number.
    last_seq: AtomicU64,
    poisoned: AtomicBool,
    fsyncs: AtomicU64,
    rotations: AtomicU64,
    metrics: WalMetrics,
}

impl std::fmt::Debug for WalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalSet")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .field("last_seq", &self.last_seq.load(Ordering::Relaxed))
            .field("policy", &self.policy)
            .finish()
    }
}

/// Removes every segment file in `dir` (any shard, any index).
fn remove_all_segments(dir: &Path) -> Result<(), PersistError> {
    if let Ok(listing) = std::fs::read_dir(dir) {
        for entry in listing.flatten() {
            let name = entry.file_name();
            if name
                .to_str()
                .is_some_and(|n| parse_segment_file_name(n).is_some() || n.ends_with(".vsjw.tmp"))
            {
                std::fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(())
}

/// Fsyncs `dir` itself so directory entries (segment creations and
/// unlinks) survive power loss — file-data fsync alone does not make
/// the *name* durable, and a vanished segment file would read as a
/// silently shorter chain.
fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    // Directory fsync is not supported everywhere (e.g. Windows);
    // failure to open-or-sync a directory is ignored rather than
    // poisoning the log, matching fs::rename-based code elsewhere.
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
    Ok(())
}

fn create_segment(
    dir: &Path,
    fingerprint: u64,
    shard: usize,
    index: u64,
) -> Result<File, PersistError> {
    let path = dir.join(segment_file_name(shard, index));
    let mut file = File::create(&path)?;
    file.write_all(&encode_segment_header(fingerprint, shard, index))?;
    // The header must be durable before records land behind it: page
    // cache flush order is not write order, so an unsynced header could
    // be lost while later record pages survive, orphaning the chain.
    file.sync_data()?;
    // And the directory entry must be durable before any record in
    // this segment is acknowledged: a power cut that keeps the sealed
    // predecessor but loses this file's *name* would silently shorten
    // the chain (the predecessor would read as a legal torn tail).
    sync_dir(dir)?;
    Ok(file)
}

impl WalSet {
    /// Creates a fresh set: one empty segment per shard, sequence
    /// counter starting past `base_seq`. Any pre-existing segment files
    /// in `dir` are removed first (they can only be stale residue of an
    /// initialisation that died before its first checkpoint).
    pub fn create(
        dir: &Path,
        shards: usize,
        base_seq: u64,
        fingerprint: u64,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<Self, PersistError> {
        assert!(shards >= 1, "a WalSet needs at least one shard");
        remove_all_segments(dir)?;
        let mut shard_wals = Vec::with_capacity(shards);
        for shard in 0..shards {
            let file = create_segment(dir, fingerprint, shard, 0)?;
            shard_wals.push(ShardWal {
                state: Mutex::new(ShardWalState {
                    file,
                    index: 0,
                    offset: SEGMENT_HEADER_LEN,
                    last_seq: 0,
                    has_records: false,
                    appended: 0,
                    flushed: 0,
                    flushing: false,
                    sealed: Vec::new(),
                    failed: false,
                }),
                flushed: Condvar::new(),
                pending: AtomicU64::new(0),
            });
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            fingerprint,
            policy,
            segment_bytes,
            shards: shard_wals,
            last_seq: AtomicU64::new(base_seq),
            poisoned: AtomicBool::new(false),
            fsyncs: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            metrics: WalMetrics::disabled(),
        })
    }

    /// Opens an existing set for appending: validates every chain
    /// (contiguous indices, clean sealed segments, torn tail only on
    /// the last segment — which is truncated back to its last whole
    /// record), merges all records by global sequence, and positions
    /// each shard's writer at the end of its chain. Returns the set
    /// plus the merged history; the caller replays entries past
    /// `applied_seq` (records at or below it are covered by the
    /// checkpoint).
    ///
    /// # Errors
    /// Fingerprint mismatches, missing chains or mid-chain segments,
    /// damage inside a sealed segment, duplicate or non-monotone
    /// sequence numbers, or a non-empty history that ends before
    /// `applied_seq` (records the checkpoint claims to cover are
    /// missing; fully empty chains are the legal residue of a
    /// checkpoint cut that sealed and dropped every segment).
    pub fn open(
        dir: &Path,
        shards: usize,
        applied_seq: u64,
        fingerprint: u64,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<(Self, Vec<SeqEntry>), PersistError> {
        assert!(shards >= 1, "a WalSet needs at least one shard");
        let mut shard_wals = Vec::with_capacity(shards);
        let mut entries: Vec<SeqEntry> = Vec::new();
        let mut max_seq = 0u64;
        for shard in 0..shards {
            let files = segment_files(dir, shard);
            if files.is_empty() {
                return Err(PersistError::Corrupt(format!(
                    "shard {shard} has no WAL segment chain"
                )));
            }
            let last_file = files.len() - 1;
            let mut prev_index: Option<u64> = None;
            let mut prev_seq = 0u64;
            let mut sealed = Vec::new();
            let mut active: Option<(File, u64, u64, u64, bool)> = None;
            for (fi, path) in files.iter().enumerate() {
                let is_last = fi == last_file;
                // A last segment shorter than its header is the residue
                // of a crash mid-rotation: recreate it empty.
                if is_last
                    && std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) < SEGMENT_HEADER_LEN
                {
                    let index = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .and_then(parse_segment_file_name)
                        .map(|(_, index)| index)
                        .ok_or_else(|| {
                            PersistError::Corrupt(format!("unparseable segment {}", path.display()))
                        })?;
                    if let Some(prev) = prev_index {
                        if index != prev + 1 {
                            return Err(PersistError::Corrupt(format!(
                                "shard {shard} chain jumps from segment {prev} to {index}"
                            )));
                        }
                    }
                    let file = create_segment(dir, fingerprint, shard, index)?;
                    active = Some((file, index, SEGMENT_HEADER_LEN, prev_seq, false));
                    prev_index = Some(index);
                    continue;
                }
                let replay = read_segment(path)?;
                if replay.fingerprint != fingerprint {
                    return Err(PersistError::ConfigMismatch(format!(
                        "WAL segment fingerprint {:#x} does not match the checkpoint's engine config ({:#x})",
                        replay.fingerprint, fingerprint
                    )));
                }
                if let Some(prev) = prev_index {
                    if replay.index != prev + 1 {
                        return Err(PersistError::Corrupt(format!(
                            "shard {shard} chain jumps from segment {prev} to {} — a middle segment is missing",
                            replay.index
                        )));
                    }
                }
                prev_index = Some(replay.index);
                if !replay.clean && !is_last {
                    return Err(PersistError::Corrupt(format!(
                        "sealed segment {} of shard {shard} is damaged (it was fsync'd at rotation; only the last segment may tear)",
                        replay.index
                    )));
                }
                for e in &replay.entries {
                    if e.seq <= prev_seq {
                        return Err(PersistError::Corrupt(format!(
                            "shard {shard} sequence numbers are not strictly increasing ({} after {prev_seq})",
                            e.seq
                        )));
                    }
                    prev_seq = e.seq;
                }
                max_seq = max_seq.max(prev_seq);
                if is_last {
                    // Truncate a torn tail back to the last whole record
                    // and position the writer after the prefix.
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(replay.valid_len)?;
                    let mut file = file;
                    use std::io::Seek;
                    file.seek(std::io::SeekFrom::End(0))?;
                    active = Some((
                        file,
                        replay.index,
                        replay.valid_len,
                        prev_seq,
                        !replay.entries.is_empty(),
                    ));
                } else {
                    let seg_last = replay.entries.last().map(|e| e.seq).unwrap_or(prev_seq);
                    sealed.push((replay.index, seg_last));
                }
                entries.extend(replay.entries);
            }
            let (file, index, offset, last_seq, has_records) =
                active.expect("chain is non-empty, so a last segment was opened");
            shard_wals.push(ShardWal {
                state: Mutex::new(ShardWalState {
                    file,
                    index,
                    offset,
                    last_seq,
                    has_records,
                    appended: 0,
                    flushed: 0,
                    flushing: false,
                    sealed,
                    failed: false,
                }),
                flushed: Condvar::new(),
                pending: AtomicU64::new(0),
            });
        }
        entries.sort_by_key(|e| e.seq);
        if entries.windows(2).any(|w| w[0].seq == w[1].seq) {
            return Err(PersistError::Corrupt(
                "two WAL records carry the same global sequence number".into(),
            ));
        }
        // A history that ends before the checkpoint's cut means records
        // the checkpoint claims to cover are missing — unless every
        // chain is empty, the legal residue of a checkpoint that sealed
        // and dropped every segment (the whole log was covered; there
        // is no tail to replay).
        if max_seq < applied_seq && !entries.is_empty() {
            return Err(PersistError::Corrupt(format!(
                "WAL ends at seq {max_seq} but the checkpoint covers {applied_seq}"
            )));
        }
        for e in &entries {
            if e.seq > applied_seq {
                shard_wals[e.shard].pending.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok((
            Self {
                dir: dir.to_path_buf(),
                fingerprint,
                policy,
                segment_bytes,
                shards: shard_wals,
                last_seq: AtomicU64::new(max_seq.max(applied_seq)),
                poisoned: AtomicBool::new(false),
                fsyncs: AtomicU64::new(0),
                rotations: AtomicU64::new(0),
                metrics: WalMetrics::disabled(),
            },
            entries,
        ))
    }

    /// Replaces the (default disabled) metric handles — builder-style,
    /// called once right after [`create`](Self::create) /
    /// [`open`](Self::open) by the owning engine.
    pub fn with_metrics(mut self, metrics: WalMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Number of shard chains.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Last assigned global sequence number.
    #[inline]
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::SeqCst)
    }

    /// Whether the set has latched a failure.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Latches the whole set failed; every further append is refused.
    /// Used by the engine when checkpointing fails.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            // Waiters blocked in commit() must observe the failure.
            self.lock(shard).failed = true;
            shard.flushed.notify_all();
        }
    }

    /// Records on shard `shard` not yet covered by a checkpoint.
    /// Lock-free.
    #[inline]
    pub fn shard_pending(&self, shard: usize) -> u64 {
        self.shards[shard].pending.load(Ordering::Relaxed)
    }

    /// Records on every shard not yet covered by a checkpoint — the
    /// sum of the per-shard depths. Lock-free.
    pub fn pending(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.pending.load(Ordering::Relaxed))
            .sum()
    }

    /// The deepest per-shard backlog (records past the checkpoint cut).
    /// Lock-free; the serving layer's shed signal.
    pub fn max_shard_pending(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.pending.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Locks `shard`'s state under the crate's lock policy
    /// ([`locks`]): a poisoned lock hands its guard back, and latches the
    /// set failed.
    fn lock<'a>(&self, shard: &'a ShardWal) -> MutexGuard<'a, ShardWalState> {
        self.latch_poisoned(shard, locks::lock(&shard.state))
    }

    /// `st`, once the set is latched failed if `shard`'s lock is
    /// poisoned: a holder panicked mid-append or mid-flush and may have
    /// left a torn frame, which would hide every later record of the
    /// shard from recovery — so, as after an I/O error, nothing more is
    /// appended or acknowledged.
    fn latch_poisoned<'a>(
        &self,
        shard: &'a ShardWal,
        mut st: MutexGuard<'a, ShardWalState>,
    ) -> MutexGuard<'a, ShardWalState> {
        if shard.state.is_poisoned() && !st.failed {
            st.failed = true;
            self.poisoned.store(true, Ordering::SeqCst);
            shard.flushed.notify_all();
        }
        st
    }

    fn poison_err(&self) -> PersistError {
        PersistError::Corrupt("WAL set is poisoned by an earlier I/O failure or panic".into())
    }

    /// Appends one operation to `shard`'s active segment, assigning the
    /// next global sequence number, and returns the ticket to
    /// [`commit`](Self::commit). The frame is written (buffered) before
    /// return — the caller applies the operation, then commits.
    ///
    /// Sequence assignment happens under the shard's append lock, so
    /// within one shard file order is sequence order; publish barriers
    /// are the engine's job (it only appends them while no ingest is in
    /// flight).
    ///
    /// # Errors
    /// I/O failures (which poison the set; the torn frame is truncated
    /// away best-effort) or an already-poisoned set.
    pub fn append(&self, shard: usize, op: WalOp<'_>) -> Result<WalTicket, PersistError> {
        if self.is_poisoned() {
            return Err(self.poison_err());
        }
        let shard_wal = &self.shards[shard];
        let mut st = self.lock(shard_wal);
        if st.failed {
            return Err(self.poison_err());
        }
        if st.offset >= self.segment_bytes && st.has_records {
            if let Err(e) = self.rotate(shard, &mut st) {
                st.failed = true;
                drop(st);
                self.poison();
                return Err(e);
            }
            shard_wal.flushed.notify_all();
        }
        let seq = self.last_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let frame = encode_frame(seq, op);
        if let Err(e) = st.file.write_all(&frame) {
            let _ = st.file.set_len(st.offset);
            st.failed = true;
            drop(st);
            self.poison();
            return Err(e.into());
        }
        st.offset += frame.len() as u64;
        st.last_seq = seq;
        st.has_records = true;
        st.appended += 1;
        let ticket = st.appended;
        shard_wal.pending.fetch_add(1, Ordering::Relaxed);
        Ok(WalTicket { seq, shard, ticket })
    }

    /// Seals the active segment (fsync, covering every outstanding
    /// ticket on this shard) and opens the next one. Called with the
    /// shard lock held.
    fn rotate(&self, shard: usize, st: &mut ShardWalState) -> Result<(), PersistError> {
        let rotation_started = Instant::now();
        st.file.sync_data()?;
        self.metrics
            .fsync_us
            .record_duration(rotation_started.elapsed());
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let covered = st.appended - st.flushed;
        if covered > 0 {
            self.metrics.group_batch.record(covered);
        }
        st.flushed = st.appended;
        st.sealed.push((st.index, st.last_seq));
        let next = st.index + 1;
        st.file = create_segment(&self.dir, self.fingerprint, shard, next)?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed); // header sync
        st.index = next;
        st.offset = SEGMENT_HEADER_LEN;
        st.has_records = false;
        self.rotations.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .rotation_us
            .record_duration(rotation_started.elapsed());
        Ok(())
    }

    /// Blocks until the ticket's record is flushed per the engine's
    /// [`FsyncPolicy`] — the acknowledgement point of a durable write.
    /// Under `Never` this returns immediately. Under `Always` the
    /// caller finds its record flushed, or waits for the flush in
    /// progress on its shard, or becomes the shard's flush leader: one
    /// fsync that covers every ticket outstanding on the shard. There
    /// is no batch size and no timer.
    ///
    /// # Errors
    /// A flush failure on this shard, or a set poisoned while the
    /// caller waited — the caller must not acknowledge the write.
    pub fn commit(&self, ticket: &WalTicket) -> Result<(), PersistError> {
        if self.policy == FsyncPolicy::Never {
            return Ok(());
        }
        let wait_started = Instant::now();
        let shard_wal = &self.shards[ticket.shard];
        let mut st = self.lock(shard_wal);
        loop {
            if st.flushed >= ticket.ticket {
                self.metrics
                    .commit_wait_us
                    .record_duration(wait_started.elapsed());
                return Ok(());
            }
            if st.failed || self.is_poisoned() {
                return Err(self.poison_err());
            }
            if st.flushing {
                // The leader notifies when its flush lands; a failed
                // flush poisons the set, which notifies too.
                let guard = locks::unpoison(shard_wal.flushed.wait(st));
                st = self.latch_poisoned(shard_wal, guard);
                continue;
            }
            // Become the flush leader: fsync outside the lock so
            // same-shard appends (and fellow waiters) keep moving.
            st.flushing = true;
            let covers = st.appended;
            let file = match st.file.try_clone() {
                Ok(file) => file,
                Err(e) => {
                    st.flushing = false;
                    st.failed = true;
                    drop(st);
                    self.poison();
                    return Err(e.into());
                }
            };
            drop(st);
            let fsync_started = Instant::now();
            let result = file.sync_data();
            self.metrics
                .fsync_us
                .record_duration(fsync_started.elapsed());
            st = self.lock(shard_wal);
            st.flushing = false;
            if let Err(e) = result {
                st.failed = true;
                drop(st);
                self.poison();
                return Err(e.into());
            }
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            let batch = covers.saturating_sub(st.flushed);
            if batch > 0 {
                self.metrics.group_batch.record(batch);
            }
            st.flushed = st.flushed.max(covers);
            shard_wal.flushed.notify_all();
        }
    }

    /// The acknowledgement point of a **publish barrier**: under
    /// `Always` this flushes *every* shard's chain, not just the
    /// barrier's own — an acknowledged barrier promises that the epoch
    /// it cut is reproducible, which requires every record below its
    /// sequence (on any shard) to be durable, acknowledged or not.
    /// Under `Never` it returns immediately, like any commit.
    pub fn commit_barrier(&self, _ticket: &WalTicket) -> Result<(), PersistError> {
        match self.policy {
            FsyncPolicy::Never => Ok(()),
            FsyncPolicy::Always => self.sync_all(),
        }
    }

    /// Fsyncs every shard's active segment, covering all outstanding
    /// tickets — the checkpoint-cut flush, independent of the policy.
    pub fn sync_all(&self) -> Result<(), PersistError> {
        for shard_wal in &self.shards {
            let mut st = self.lock(shard_wal);
            if st.failed {
                return Err(self.poison_err());
            }
            let fsync_started = Instant::now();
            if let Err(e) = st.file.sync_data() {
                st.failed = true;
                drop(st);
                self.poison();
                return Err(e.into());
            }
            self.metrics
                .fsync_us
                .record_duration(fsync_started.elapsed());
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            let batch = st.appended - st.flushed;
            if batch > 0 {
                self.metrics.group_batch.record(batch);
            }
            st.flushed = st.appended;
            shard_wal.flushed.notify_all();
        }
        Ok(())
    }

    /// Seals every shard's active segment that holds records (fsync +
    /// fresh segment), so a following [`WalSet::truncate`] can drop the
    /// whole file the moment its records fall below the horizon.
    /// Called at the checkpoint cut: without this, the records logged
    /// since the last organic rotation would pin the active file — and
    /// every recovery would re-read and re-decode all of them — until
    /// enough new traffic rotated it out.
    ///
    /// # Errors
    /// Filesystem failures sealing or opening a segment.
    pub fn seal_active(&self) -> Result<(), PersistError> {
        for (shard, shard_wal) in self.shards.iter().enumerate() {
            let mut st = self.lock(shard_wal);
            if st.has_records {
                self.rotate(shard, &mut st)?;
            }
        }
        Ok(())
    }

    /// Marks a checkpoint cut: every record logged so far is covered,
    /// so the per-shard pending depths reset to zero.
    pub fn mark_cut(&self) {
        for shard in &self.shards {
            shard.pending.store(0, Ordering::Relaxed);
        }
    }

    /// Drops every **sealed** segment whose records all sit at or below
    /// `horizon` — O(dropped files) unlinks, zero bytes rewritten; no
    /// surviving file is touched. The horizon must be the minimum cut
    /// sequence over every checkpoint generation still on disk, so any
    /// kept generation can roll forward through the surviving chains.
    /// Returns how many segment files were removed.
    pub fn truncate(&self, horizon: u64) -> Result<u64, PersistError> {
        let truncation_started = Instant::now();
        let mut dropped = 0u64;
        for (shard, shard_wal) in self.shards.iter().enumerate() {
            let mut st = self.lock(shard_wal);
            let mut keep = Vec::with_capacity(st.sealed.len());
            for &(index, last_seq) in &st.sealed {
                if last_seq <= horizon {
                    std::fs::remove_file(self.dir.join(segment_file_name(shard, index)))?;
                    dropped += 1;
                } else {
                    keep.push((index, last_seq));
                }
            }
            st.sealed = keep;
        }
        if dropped > 0 {
            sync_dir(&self.dir)?;
        }
        self.metrics
            .truncation_us
            .record_duration(truncation_started.elapsed());
        Ok(dropped)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> WalSetStats {
        let mut segments = 0u64;
        for shard in &self.shards {
            segments += self.lock(shard).sealed.len() as u64 + 1;
        }
        WalSetStats {
            segments,
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            rotations: self.rotations.load(Ordering::Relaxed),
            shard_pending: self
                .shards
                .iter()
                .map(|s| s.pending.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(members: &[u32]) -> SparseVector {
        SparseVector::binary_from_members(members.to_vec())
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("vsj_wal_unit")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_set(dir: &Path, shards: usize, policy: FsyncPolicy) -> WalSet {
        WalSet::create(dir, shards, 0, 0xFEED, policy, 1024).unwrap()
    }

    fn append_commit(wal: &WalSet, shard: usize, op: WalOp<'_>) -> u64 {
        let ticket = wal.append(shard, op).unwrap();
        wal.commit(&ticket).unwrap();
        ticket.seq
    }

    #[test]
    fn segmented_roundtrip_merges_by_sequence() {
        let dir = tmp_dir("seg_roundtrip");
        let wal = small_set(&dir, 3, FsyncPolicy::Never);
        // Interleave shards; seqs are global and strictly increasing.
        assert_eq!(append_commit(&wal, 1, WalOp::Insert(10, &v(&[1]))), 1);
        assert_eq!(append_commit(&wal, 2, WalOp::Insert(20, &v(&[2]))), 2);
        assert_eq!(append_commit(&wal, 0, WalOp::Publish), 3);
        assert_eq!(append_commit(&wal, 1, WalOp::Remove(10)), 4);
        assert_eq!(append_commit(&wal, 2, WalOp::Upsert(21, &v(&[3]))), 5);
        wal.sync_all().unwrap();
        drop(wal);

        let (wal, entries) = WalSet::open(&dir, 3, 0, 0xFEED, FsyncPolicy::Never, 1024).unwrap();
        assert_eq!(wal.last_seq(), 5);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "merge-replay is seq-ordered");
        assert_eq!(entries[2].record, WalRecord::Publish);
        assert_eq!(entries[2].shard, 0);
        assert_eq!(entries[3].record, WalRecord::Remove { id: 10 });
        // applied_seq filtering is the caller's job, but pending honors it.
        let (wal, _) = WalSet::open(&dir, 3, 3, 0xFEED, FsyncPolicy::Never, 1024).unwrap();
        assert_eq!(wal.shard_pending(1), 1);
        assert_eq!(wal.shard_pending(2), 1);
        assert_eq!(wal.shard_pending(0), 0);
        assert_eq!(wal.max_shard_pending(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_seals_segments_and_truncate_drops_only_covered_files() {
        let dir = tmp_dir("seg_rotate");
        let wal = small_set(&dir, 2, FsyncPolicy::Never);
        // Big-ish vectors so the 1 KiB segments rotate quickly.
        let payload: Vec<u32> = (0..40).collect();
        let mut last = 0;
        for _ in 0..40 {
            last = append_commit(&wal, 0, WalOp::Insert(last, &v(&payload)));
        }
        let stats = wal.stats();
        assert!(stats.rotations >= 3, "1 KiB segments must have rotated");
        assert!(stats.segments >= 4);
        let files_before = segment_files(&dir, 0);
        assert!(files_before.len() >= 4);

        // Truncating at a mid-chain horizon drops exactly the sealed
        // segments fully at or below it — and rewrites nothing: every
        // surviving file is byte-identical.
        let survivors: Vec<(PathBuf, Vec<u8>)> = files_before
            .iter()
            .map(|p| (p.clone(), std::fs::read(p).unwrap()))
            .collect();
        let horizon = last / 2;
        let dropped = wal.truncate(horizon).unwrap();
        assert!(dropped >= 1, "some sealed segment is fully covered");
        let files_after = segment_files(&dir, 0);
        assert_eq!(files_after.len(), files_before.len() - dropped as usize);
        for (path, before) in &survivors {
            if files_after.contains(path) {
                assert_eq!(
                    &std::fs::read(path).unwrap(),
                    before,
                    "truncation must not rewrite surviving WAL bytes"
                );
            }
        }
        // The surviving chain still opens and still carries every
        // record past the horizon.
        wal.sync_all().unwrap();
        drop(wal);
        let (_, entries) =
            WalSet::open(&dir, 2, horizon, 0xFEED, FsyncPolicy::Never, 1024).unwrap();
        assert!(entries.iter().any(|e| e.seq > horizon));
        assert!(entries.windows(2).all(|w| w[0].seq < w[1].seq));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_and_truncate_at_head_drop_every_sealed_segment_idempotently() {
        // The compaction cut: seal every active chain, then truncate at
        // the head sequence. Every sealed file is covered, so exactly
        // one fresh (empty) active segment per shard survives and a
        // reopen replays zero records — recovery after a fold must
        // never re-decode a covered record.
        let dir = tmp_dir("seg_cut");
        let wal = small_set(&dir, 2, FsyncPolicy::Never);
        let payload: Vec<u32> = (0..40).collect();
        for i in 0..30 {
            append_commit(&wal, (i % 2) as usize, WalOp::Insert(i, &v(&payload)));
        }
        append_commit(&wal, 0, WalOp::Remove(3));
        let last = append_commit(&wal, 0, WalOp::Publish);
        wal.seal_active().unwrap();
        let dropped = wal.truncate(last).unwrap();
        assert!(dropped >= 2, "every sealed segment sits below the head");
        for shard in 0..2 {
            let files = segment_files(&dir, shard);
            assert_eq!(
                files.len(),
                1,
                "shard {shard}: only the fresh active survives"
            );
            assert!(
                read_segment(&files[0]).unwrap().entries.is_empty(),
                "shard {shard}: the surviving segment must carry no covered record"
            );
        }
        // Truncation at the same horizon again is a no-op: the sealed
        // lists were pruned, nothing is double-unlinked.
        assert_eq!(wal.truncate(last).unwrap(), 0);
        wal.sync_all().unwrap();
        drop(wal);
        let (wal, entries) = WalSet::open(&dir, 2, last, 0xFEED, FsyncPolicy::Never, 1024).unwrap();
        assert!(entries.is_empty(), "reopen replays nothing past the cut");
        // The reopened set keeps sequencing from the cut, so post-fold
        // traffic lands strictly above the horizon.
        assert_eq!(
            append_commit(&wal, 1, WalOp::Insert(99, &v(&[7]))),
            last + 1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_on_last_segment_recovers_prefix_but_sealed_damage_is_loud() {
        let dir = tmp_dir("seg_torn");
        let wal = small_set(&dir, 1, FsyncPolicy::Never);
        let payload: Vec<u32> = (0..40).collect();
        for i in 0..40 {
            append_commit(&wal, 0, WalOp::Insert(i, &v(&payload)));
        }
        wal.sync_all().unwrap();
        drop(wal);
        let files = segment_files(&dir, 0);
        assert!(files.len() >= 3);

        // Torn tail on the LAST segment: prefix recovery.
        let last = files.last().unwrap();
        let bytes = std::fs::read(last).unwrap();
        std::fs::write(last, &bytes[..bytes.len() - 3]).unwrap();
        let (_, entries) = WalSet::open(&dir, 1, 0, 0xFEED, FsyncPolicy::Never, 1024).unwrap();
        assert!(entries.len() < 40, "torn record dropped");
        assert!(entries.windows(2).all(|w| w[0].seq + 1 == w[1].seq));

        // Damage inside a SEALED segment: loud.
        let sealed = &files[0];
        let mut bytes = std::fs::read(sealed).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0xFF;
        std::fs::write(sealed, &bytes).unwrap();
        assert!(matches!(
            WalSet::open(&dir, 1, 0, 0xFEED, FsyncPolicy::Never, 1024),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_middle_segment_fails_loudly() {
        let dir = tmp_dir("seg_gap");
        let wal = small_set(&dir, 1, FsyncPolicy::Never);
        let payload: Vec<u32> = (0..40).collect();
        for i in 0..40 {
            append_commit(&wal, 0, WalOp::Insert(i, &v(&payload)));
        }
        drop(wal);
        let files = segment_files(&dir, 0);
        assert!(files.len() >= 3);
        std::fs::remove_file(&files[1]).unwrap();
        let err = WalSet::open(&dir, 1, 0, 0xFEED, FsyncPolicy::Never, 1024).unwrap_err();
        assert!(
            err.to_string().contains("missing"),
            "expected a missing-segment error, got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_loud() {
        let dir = tmp_dir("seg_fp");
        let wal = small_set(&dir, 2, FsyncPolicy::Never);
        append_commit(&wal, 0, WalOp::Insert(0, &v(&[1])));
        drop(wal);
        assert!(matches!(
            WalSet::open(&dir, 2, 0, 0xBEEF, FsyncPolicy::Never, 1024),
            Err(PersistError::ConfigMismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_sequence_numbers_fail_loudly() {
        let dir = tmp_dir("seg_dup");
        let wal = small_set(&dir, 2, FsyncPolicy::Never);
        append_commit(&wal, 0, WalOp::Insert(0, &v(&[1])));
        drop(wal);
        // Forge a second chain that reuses seq 1: a fresh one-shard set
        // in a scratch dir, its header rewritten to claim shard 1
        // (header bytes 16..20), dropped into the victim chain.
        let forge_dir = tmp_dir("seg_dup_forge");
        let forged = small_set(&forge_dir, 1, FsyncPolicy::Never);
        append_commit(&forged, 0, WalOp::Insert(9, &v(&[2])));
        drop(forged);
        let mut bytes = std::fs::read(forge_dir.join(segment_file_name(0, 0))).unwrap();
        bytes[16..20].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(dir.join(segment_file_name(1, 0)), &bytes).unwrap();
        let err = WalSet::open(&dir, 2, 0, 0xFEED, FsyncPolicy::Never, 1024).unwrap_err();
        assert!(
            err.to_string().contains("same global sequence"),
            "expected a duplicate-seq error, got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&forge_dir).ok();
    }

    /// Under `Always` one flush covers every ticket outstanding on its
    /// shard: committing the last of N uncommitted appends costs exactly
    /// one fsync (recorded as one flush of N tickets), the earlier
    /// tickets then commit with none, and a reopen reads all N.
    #[test]
    fn one_always_flush_covers_every_outstanding_ticket() {
        let dir = tmp_dir("seg_always_shared");
        let registry = Registry::new();
        let obs = vsj_obs::ObsOptions::default();
        let metrics = WalMetrics::registered(&registry, obs.latency_spec(), obs.size_spec());
        let wal = WalSet::create(&dir, 2, 0, 1, FsyncPolicy::Always, 1 << 20)
            .unwrap()
            .with_metrics(metrics.clone());
        const N: u64 = 16;
        let tickets: Vec<WalTicket> = (0..N)
            .map(|i| wal.append(1, WalOp::Insert(i, &v(&[i as u32]))).unwrap())
            .collect();
        assert_eq!(wal.stats().fsyncs, 0, "appending flushes nothing");
        wal.commit(tickets.last().unwrap()).unwrap();
        assert_eq!(wal.stats().fsyncs, 1, "one fsync for the last ticket");
        for ticket in &tickets {
            wal.commit(ticket).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 1, "the earlier tickets were covered");
        assert_eq!(metrics.group_batch.count(), 1);
        assert_eq!(metrics.group_batch.sum(), N, "one flush of N tickets");
        drop(wal);
        let (_, entries) = WalSet::open(&dir, 2, 0, 1, FsyncPolicy::Never, 1 << 20).unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=N).collect::<Vec<_>>(), "every record is on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn always_policy_fsyncs_every_quiet_commit() {
        let dir = tmp_dir("seg_always");
        let wal = small_set(&dir, 1, FsyncPolicy::Always);
        for i in 0..5 {
            append_commit(&wal, 0, WalOp::Insert(i, &v(&[1])));
        }
        assert!(
            wal.stats().fsyncs >= 5,
            "sequential Always commits each fsync"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_set_refuses_appends_and_commits() {
        let dir = tmp_dir("seg_poison");
        let wal = small_set(&dir, 2, FsyncPolicy::Never);
        append_commit(&wal, 0, WalOp::Insert(0, &v(&[1])));
        wal.poison();
        assert!(wal.is_poisoned());
        assert!(wal.append(1, WalOp::Insert(1, &v(&[2]))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksum-valid insert frame whose block holds a zero weight.
    fn zero_weight_frame(seq: u64) -> Vec<u8> {
        let vector = SparseVector::from_sorted(vec![4], vec![2.5]).unwrap();
        let mut frame = encode_frame(seq, WalOp::Insert(seq, &vector));
        let weight = frame.len() - 4;
        assert_eq!(frame[weight..], 2.5f32.to_le_bytes());
        frame[weight..].copy_from_slice(&0.0f32.to_le_bytes());
        let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
        header[4..].copy_from_slice(&checksum64(payload).to_le_bytes());
        frame
    }

    /// A record whose block is not a stored row is undecodable like any
    /// other: the last segment's tail tears there, and inside a sealed
    /// segment it is corruption.
    #[test]
    fn a_zero_weight_record_is_refused_like_any_undecodable_record() {
        let dir = tmp_dir("seg_zero");
        let write_segment = |index: u64, frames: &[Vec<u8>]| {
            let mut bytes = encode_segment_header(0xFEED, 0, index);
            for frame in frames {
                bytes.extend_from_slice(frame);
            }
            std::fs::write(dir.join(segment_file_name(0, index)), bytes).unwrap();
        };
        let ok = |seq: u64| encode_frame(seq, WalOp::Insert(seq, &v(&[1])));
        write_segment(0, &[ok(1), zero_weight_frame(2), ok(3)]);
        let (_, entries) = WalSet::open(&dir, 1, 0, 0xFEED, FsyncPolicy::Never, 1024).unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1], "the tail tears at the zero weight");

        write_segment(0, &[ok(1), zero_weight_frame(2), ok(3)]);
        write_segment(1, &[ok(4)]);
        assert!(matches!(
            WalSet::open(&dir, 1, 0, 0xFEED, FsyncPolicy::Never, 1024),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_poisoned_shard_lock_latches_the_set_failed() {
        let dir = tmp_dir("seg_lock_poison");
        let wal = small_set(&dir, 2, FsyncPolicy::Always);
        append_commit(&wal, 1, WalOp::Insert(0, &v(&[1])));
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = wal.shards[0].state.lock();
                panic!("a holder panics with the shard lock held");
            });
            assert!(holder.join().is_err());
        });
        assert!(wal.append(0, WalOp::Insert(1, &v(&[2]))).is_err());
        assert!(wal.is_poisoned());
        assert!(wal.append(1, WalOp::Insert(2, &v(&[3]))).is_err());
        assert_eq!(wal.stats().segments, 2);
        assert!(wal.sync_all().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_last_segment_is_recreated_as_torn_rotation() {
        let dir = tmp_dir("seg_shortlast");
        let wal = small_set(&dir, 1, FsyncPolicy::Never);
        let payload: Vec<u32> = (0..40).collect();
        for i in 0..40 {
            append_commit(&wal, 0, WalOp::Insert(i, &v(&payload)));
        }
        drop(wal);
        let files = segment_files(&dir, 0);
        let next_index = files.len() as u64;
        // Simulate a crash mid-rotation: the next segment file exists
        // but holds less than a header.
        std::fs::write(dir.join(segment_file_name(0, next_index)), [1u8, 2, 3]).unwrap();
        let (wal, entries) = WalSet::open(&dir, 1, 0, 0xFEED, FsyncPolicy::Never, 1024).unwrap();
        assert_eq!(entries.len(), 40, "no records lost to the torn rotation");
        // And the recreated segment accepts appends.
        append_commit(&wal, 0, WalOp::Insert(100, &v(&[1])));
        std::fs::remove_dir_all(&dir).ok();
    }
}
