//! Durable epoch checkpoints and the background checkpointer.
//!
//! A *checkpoint* is one file (`checkpoint.vsjc`, a
//! [`datasets::io`](vsj_datasets::io) container) holding everything
//! needed to resurrect an [`EstimationEngine`]
//! at a published epoch. It is written in the container's one layout
//! (fixed-width directory, 8-byte-aligned sections) and read by one
//! reader, the `mapped` module's `MappedCheckpoint`: every recovery maps
//! the file and validates it once, then the out-of-core tier serves
//! estimates straight from the mapping while the heap tier copies the
//! payload section into one heap slab and drops it:
//!
//! | section | payload |
//! |---|---|
//! | `META` | epoch, ingest counter, id allocator, WAL cut, publishes, full [`ServiceConfig`] |
//! | `GIDS` | global ids of the snapshot rows, ascending (`n × u64`) |
//! | `KEYS` | precomputed LSH bucket keys, parallel to `GIDS` (`n × u64`) |
//! | `BKTK` | bucket keys, strictly ascending (`B × u64`) |
//! | `BOFF` | bucket member-run offsets (`(B+1) × u64`, `[0] = 0`, `[B] = n`) |
//! | `BMEM` | bucket member runs: row ids grouped by bucket, ascending within (`n × u32`) |
//! | `VOFF` | payload-slab byte offsets (`(n+1) × u64`) |
//! | `VPAY` | concatenated per-vector wire blocks: `nnz`, indices, values (the layout of a heap payload slab) |
//!
//! Storing the bucket keys means recovery re-hashes *nothing*: shard
//! rows are restored with their stored keys and the published table is
//! grouped from them by [`LshTable::from_parts`](vsj_lsh::LshTable),
//! exactly like snapshot publication — and the mapped tier skips even
//! that, serving buckets from `BKTK`/`BOFF`/`BMEM` directly. Every
//! section is checksummed by the container, and the structure across
//! sections (including every row's vector invariants) is checked at
//! open, so a damaged file — a flipped byte or a well-checksummed file
//! that is not what this writer lays out — fails the load loudly on
//! both tiers instead of resurrecting a silently wrong index.
//!
//! Checkpoint files are written to a temp name and atomically renamed,
//! so a crash mid-checkpoint leaves the previous checkpoint intact. The
//! WAL is truncated only after the rename (see
//! [`EstimationEngine::checkpoint`](crate::EstimationEngine::checkpoint)
//! for the full protocol).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use memmap2::Mmap;
use vsj_datasets::io::{ContainerIndex, ContainerWriter, IoError};
use vsj_obs::{Trace, TraceRing};
use vsj_pool::WorkPool;

use crate::background::PollThread;
use crate::config::{IndexFamily, ServiceConfig};
use crate::engine::EstimationEngine;
use crate::snapshot::Snapshot;

/// File name of the checkpoint container inside a storage directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.vsjc";
/// A single-file write-ahead log, which this engine never writes: the
/// log is the segmented [`WalSet`](crate::wal::WalSet).
const SINGLE_FILE_WAL: &str = "wal.vsjw";
/// Temp name a checkpoint is written under before its atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.vsjc.tmp";

pub(crate) const SECTION_META: [u8; 4] = *b"META";
pub(crate) const SECTION_GIDS: [u8; 4] = *b"GIDS";
pub(crate) const SECTION_KEYS: [u8; 4] = *b"KEYS";
pub(crate) const SECTION_BKTK: [u8; 4] = *b"BKTK";
pub(crate) const SECTION_BOFF: [u8; 4] = *b"BOFF";
pub(crate) const SECTION_BMEM: [u8; 4] = *b"BMEM";
pub(crate) const SECTION_VOFF: [u8; 4] = *b"VOFF";
pub(crate) const SECTION_VPAY: [u8; 4] = *b"VPAY";

/// Errors from the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Container-level decode failure (framing, checksum, vectors).
    Container(IoError),
    /// Structurally valid container with semantically inconsistent
    /// contents (mismatched section lengths, non-ascending ids, …).
    Corrupt(String),
    /// Snapshot and WAL (or caller expectations) disagree about the
    /// engine configuration.
    ConfigMismatch(String),
    /// A durability operation was invoked on a non-durable engine.
    NotDurable,
    /// `durable()` refused to overwrite an existing storage directory.
    AlreadyInitialized(PathBuf),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "persistence I/O error: {e}"),
            Self::Container(e) => write!(f, "checkpoint container error: {e}"),
            Self::Corrupt(msg) => write!(f, "corrupt persistent state: {msg}"),
            Self::ConfigMismatch(msg) => write!(f, "config mismatch: {msg}"),
            Self::NotDurable => write!(f, "engine has no storage attached (not durable)"),
            Self::AlreadyInitialized(dir) => write!(
                f,
                "storage directory {} already holds a checkpoint; use recover()",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<IoError> for PersistError {
    fn from(e: IoError) -> Self {
        Self::Container(e)
    }
}

/// Engine counters and configuration frozen at a checkpoint cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointMeta {
    /// Epoch of the checkpointed snapshot.
    pub epoch: u64,
    /// Ingest-operation counter at the cut.
    pub ingested: u64,
    /// Id-allocator watermark at the cut.
    pub next_id: u64,
    /// WAL sequence number the cut covers: records with `seq` beyond
    /// this are replayed on recovery.
    pub applied_seq: u64,
    /// Publish counter at the cut.
    pub publishes: u64,
    /// The engine configuration (fully round-tripped; `recover` needs
    /// no config argument).
    pub config: ServiceConfig,
}

/// Identity hash of the configuration fields that determine what the
/// persisted bytes *mean* (hash functions, sharding, RNG streams). Used
/// to pair a WAL with its checkpoint.
pub fn config_fingerprint(config: &ServiceConfig) -> u64 {
    use vsj_sampling::SplitMix64;
    let family = match config.family {
        IndexFamily::SimHash => 1u64,
        IndexFamily::MinHash => 2u64,
    };
    let mut acc = SplitMix64::mix(0x5EED_CAFE ^ config.seed);
    acc = SplitMix64::mix(acc ^ config.k as u64);
    acc = SplitMix64::mix(acc ^ config.shards as u64);
    SplitMix64::mix(acc ^ family)
}

fn encode_meta(meta: &CheckpointMeta, n: u64) -> Bytes {
    let c = &meta.config;
    let mut buf = BytesMut::with_capacity(128);
    buf.put_u64_le(meta.epoch);
    buf.put_u64_le(meta.ingested);
    buf.put_u64_le(meta.next_id);
    buf.put_u64_le(meta.applied_seq);
    buf.put_u64_le(meta.publishes);
    buf.put_u64_le(n);
    buf.put_u64_le(c.seed);
    buf.put_u64_le(c.k as u64);
    buf.put_u64_le(c.shards as u64);
    buf.put_slice(&[match c.family {
        IndexFamily::SimHash => 0u8,
        IndexFamily::MinHash => 1u8,
    }]);
    buf.put_u64_le(c.cache_epsilon);
    match c.auto_publish_every {
        None => buf.put_slice(&[0]),
        Some(b) => {
            buf.put_slice(&[1]);
            buf.put_u64_le(b);
        }
    }
    match c.estimator {
        None => buf.put_slice(&[0]),
        Some(e) => {
            buf.put_slice(&[1]);
            buf.put_u64_le(e.m_h);
            buf.put_u64_le(e.m_l);
            buf.put_u64_le(e.delta);
            match e.dampening {
                vsj_core::Dampening::SafeLowerBound => buf.put_slice(&[0]),
                vsj_core::Dampening::Constant(v) => {
                    buf.put_slice(&[1]);
                    buf.put_f64_le(v);
                }
                vsj_core::Dampening::NlOverDelta => buf.put_slice(&[2]),
            }
        }
    }
    buf.freeze()
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

pub(crate) fn decode_meta(mut data: &[u8]) -> Result<(CheckpointMeta, u64), PersistError> {
    let need = |data: &mut &[u8], bytes: usize, what: &str| -> Result<(), PersistError> {
        if data.remaining() < bytes {
            Err(corrupt(format!("META truncated at {what}")))
        } else {
            Ok(())
        }
    };
    need(&mut data, 6 * 8, "counters")?;
    let epoch = data.get_u64_le();
    let ingested = data.get_u64_le();
    let next_id = data.get_u64_le();
    let applied_seq = data.get_u64_le();
    let publishes = data.get_u64_le();
    let n = data.get_u64_le();
    need(&mut data, 3 * 8 + 1, "config")?;
    let seed = data.get_u64_le();
    let k = data.get_u64_le() as usize;
    let shards = data.get_u64_le() as usize;
    let mut byte = [0u8; 1];
    data.copy_to_slice(&mut byte);
    let family = match byte[0] {
        0 => IndexFamily::SimHash,
        1 => IndexFamily::MinHash,
        b => return Err(corrupt(format!("unknown family tag {b}"))),
    };
    need(&mut data, 8 + 1, "cache/publish policy")?;
    let cache_epsilon = data.get_u64_le();
    data.copy_to_slice(&mut byte);
    let auto_publish_every = match byte[0] {
        0 => None,
        1 => {
            need(&mut data, 8, "auto-publish batch")?;
            Some(data.get_u64_le())
        }
        b => return Err(corrupt(format!("bad auto-publish flag {b}"))),
    };
    need(&mut data, 1, "estimator flag")?;
    data.copy_to_slice(&mut byte);
    let estimator = match byte[0] {
        0 => None,
        1 => {
            need(&mut data, 3 * 8 + 1, "estimator config")?;
            let m_h = data.get_u64_le();
            let m_l = data.get_u64_le();
            let delta = data.get_u64_le();
            data.copy_to_slice(&mut byte);
            let dampening = match byte[0] {
                0 => vsj_core::Dampening::SafeLowerBound,
                1 => {
                    need(&mut data, 8, "dampening constant")?;
                    vsj_core::Dampening::Constant(data.get_f64_le())
                }
                2 => vsj_core::Dampening::NlOverDelta,
                b => return Err(corrupt(format!("unknown dampening tag {b}"))),
            };
            Some(vsj_core::LshSsConfig {
                m_h,
                m_l,
                delta,
                dampening,
            })
        }
        b => return Err(corrupt(format!("bad estimator flag {b}"))),
    };
    if data.has_remaining() {
        return Err(corrupt(format!("{} trailing META bytes", data.remaining())));
    }
    // Re-validate what the builder validates: a corrupt-but-checksummed
    // file must fail loudly here, never panic inside engine assembly.
    if shards == 0 || k == 0 || auto_publish_every == Some(0) {
        return Err(corrupt("META carries an invalid engine configuration"));
    }
    // `parallel` is operational (like DurabilityOptions): never encoded
    // into META, so a recovered engine picks up this process's default —
    // the pool is proven answer- and byte-neutral, so this cannot change
    // what the engine serves.
    let config = ServiceConfig {
        shards,
        k,
        family,
        seed,
        cache_epsilon,
        auto_publish_every,
        estimator,
        parallel: crate::config::ParallelOptions::default(),
    };
    Ok((
        CheckpointMeta {
            epoch,
            ingested,
            next_id,
            applied_seq,
            publishes,
            config,
        },
        n,
    ))
}

fn encode_u64s(values: impl ExactSizeIterator<Item = u64>) -> Bytes {
    let mut buf = BytesMut::with_capacity(values.len() * 8);
    for v in values {
        buf.put_u64_le(v);
    }
    buf.freeze()
}

/// Serializes a checkpoint (exposed for tests and tooling; the private
/// `write_checkpoint` is the durable path). Works for both storage
/// tiers, copying every row's payload block as it lies. A mapped
/// snapshot walks its dense id space — tombstoned base rows are
/// *dropped* and overlay rows are interleaved in global-id order, so the
/// file a compaction writes is exactly the file a from-scratch build over
/// the live rows would write.
pub fn encode_checkpoint(meta: &CheckpointMeta, snapshot: &Snapshot) -> Bytes {
    encode_checkpoint_inner(meta, snapshot, None)
}

/// [`encode_checkpoint`] with the `VPAY` payload slab filled in
/// parallel on `pool`: per-row block lengths are computed first (a pool
/// map), a prefix sum pre-sizes the slab and fixes every row's offset,
/// and contiguous row chunks are serialized into disjoint `&mut` slices
/// concurrently. Offsets are a pure function of the rows, so the bytes
/// are **identical** to the serial encoding at any thread count (pinned
/// by `parallel_encode_is_byte_identical` below and the checkpoint legs
/// of `tests/parallel_determinism.rs`). A one-thread pool takes the
/// exact serial path.
pub(crate) fn encode_checkpoint_with(
    meta: &CheckpointMeta,
    snapshot: &Snapshot,
    pool: &WorkPool,
) -> Bytes {
    if pool.threads() <= 1 {
        encode_checkpoint_inner(meta, snapshot, None)
    } else {
        encode_checkpoint_inner(meta, snapshot, Some(pool))
    }
}

/// Fills contiguous row chunks of a pre-sized payload slab in parallel:
/// chunk `r..e` owns the disjoint byte range `voff[r]..voff[e]`, handed
/// out by `split_at_mut`, and `encode_row` fills each row's exact-length
/// cell.
fn fill_payload_parallel(
    pool: &WorkPool,
    voff: &[u64],
    slab: &mut [u8],
    encode_row: impl Fn(usize, &mut [u8]) + Sync,
) {
    let n = voff.len() - 1;
    if n == 0 {
        return;
    }
    let chunk_rows = n.div_ceil((pool.threads() * 4).min(n));
    let encode_row = &encode_row;
    pool.scope(|scope| {
        let mut rest = slab;
        let mut row = 0usize;
        while row < n {
            let end = (row + chunk_rows).min(n);
            let bytes = (voff[end] - voff[row]) as usize;
            let (chunk, tail) = rest.split_at_mut(bytes);
            rest = tail;
            scope.spawn(move || {
                let mut out = chunk;
                for r in row..end {
                    let len = (voff[r + 1] - voff[r]) as usize;
                    let (cell, after) = out.split_at_mut(len);
                    encode_row(r, cell);
                    out = after;
                }
            });
            row = end;
        }
    });
}

fn encode_checkpoint_inner(
    meta: &CheckpointMeta,
    snapshot: &Snapshot,
    pool: Option<&WorkPool>,
) -> Bytes {
    let n = snapshot.len();
    // Row keys in snapshot-local id order, whichever tier holds them.
    let keys: Vec<u64> = match snapshot.mapped_view() {
        Some(view) => (0..n as u32).map(|d| view.key_of(d)).collect(),
        None => snapshot.table().to_parts(),
    };
    // Bucket runs: group rows by key (key-ascending, members in id
    // order) — exactly the grouping `LshTable::from_parts` performs, so
    // a mapped reader enumerates the same bucket sequence as a heap
    // rebuild.
    let mut buckets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for (id, &key) in keys.iter().enumerate() {
        buckets.entry(key).or_default().push(id as u32);
    }
    let mut boff = Vec::with_capacity(buckets.len() + 1);
    boff.push(0u64);
    let mut bmem = BytesMut::with_capacity(n * 4);
    let mut covered = 0u64;
    for members in buckets.values() {
        covered += members.len() as u64;
        boff.push(covered);
        for &m in members {
            bmem.put_u32_le(m);
        }
    }
    // Payload slab + per-row offsets: every row's block is copied as it
    // lies — from a heap or overlay payload slab, or from the mapping's
    // slab for a mapped base row — with no decode and no re-encode (the
    // blocks are position-independent), all in snapshot-id order.
    let block = |d: usize| snapshot.block(d as u32);
    let mut voff = Vec::with_capacity(n + 1);
    voff.push(0u64);
    let mut total = 0u64;
    for d in 0..n {
        total += block(d).len() as u64;
        voff.push(total);
    }

    let mut w = ContainerWriter::new();
    w.section(SECTION_META, encode_meta(meta, n as u64));
    w.section(
        SECTION_GIDS,
        encode_u64s(snapshot.global_ids().iter().copied()),
    );
    w.section(SECTION_KEYS, encode_u64s(keys.into_iter()));
    w.section(SECTION_BKTK, encode_u64s(buckets.keys().copied()));
    w.section(SECTION_BOFF, encode_u64s(boff.into_iter()));
    w.section(SECTION_BMEM, bmem.freeze());
    let mut vpay = vec![0u8; total as usize];
    match pool {
        Some(pool) => fill_payload_parallel(pool, &voff, &mut vpay, |r, out| {
            out.copy_from_slice(block(r));
        }),
        None => {
            for d in 0..n {
                vpay[voff[d] as usize..voff[d + 1] as usize].copy_from_slice(block(d));
            }
        }
    }
    w.section(SECTION_VOFF, encode_u64s(voff.into_iter()));
    w.section(SECTION_VPAY, Bytes::from(vpay));
    w.finish()
}

/// Atomically replaces the checkpoint file in `dir`.
pub(crate) fn write_checkpoint(
    dir: &Path,
    meta: &CheckpointMeta,
    snapshot: &Snapshot,
    pool: &WorkPool,
) -> Result<(), PersistError> {
    use std::io::Write;
    let bytes = encode_checkpoint_with(meta, snapshot, pool);
    let tmp = dir.join(CHECKPOINT_TMP);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes.as_slice())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    Ok(())
}

// --- checkpoint generations ---------------------------------------------

/// Path of checkpoint generation `generation` inside `dir`: `0` is the
/// current `checkpoint.vsjc`, `g ≥ 1` is `checkpoint.vsjc.g` (the g-th
/// most recent previous checkpoint).
pub fn generation_path(dir: &Path, generation: u64) -> PathBuf {
    if generation == 0 {
        dir.join(CHECKPOINT_FILE)
    } else {
        dir.join(format!("{CHECKPOINT_FILE}.{generation}"))
    }
}

/// Reads **only the `META` section** of a checkpoint container: the
/// file is mapped and framed by the same directory walk every reader
/// uses ([`ContainerIndex::parse_sections`]), and only `META`'s checksum
/// is verified — the other payloads are never touched. Recovery peeks
/// every retained generation once per life to learn its WAL cut (the
/// retention horizon), which stays O(metadata) however large the
/// generations are.
pub fn peek_checkpoint_meta(path: &Path) -> Result<CheckpointMeta, PersistError> {
    let map = Mmap::map(&std::fs::File::open(path)?)?;
    let index = ContainerIndex::parse_sections(&map, &[SECTION_META])?;
    decode_meta(&map[index.require(SECTION_META)?]).map(|(meta, _)| meta)
}

/// Refuses a storage directory that holds a single-file `wal.vsjw`:
/// this engine cannot replay it, and recovering around it would serve
/// a state that silently lacks whatever the file logged.
pub(crate) fn refuse_single_file_wal(dir: &Path) -> Result<(), PersistError> {
    let path = dir.join(SINGLE_FILE_WAL);
    if path.exists() {
        return Err(corrupt(format!(
            "{} is a single-file write-ahead log, which this engine cannot replay \
             (it reads only the segmented wal-SSSS-IIIIIIII.vsjw chains)",
            path.display()
        )));
    }
    Ok(())
}

/// How many checkpoint-generation file names were found malformed or
/// orphaned by [`list_generations`] over the process lifetime — the
/// loud counterpart of what used to be a silent skip. Operators
/// watching this counter learn that a storage directory holds files
/// rotation will never reclaim.
static GENERATION_WARNINGS: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime count of malformed or orphaned
/// `checkpoint.vsjc.g*` names seen by [`list_generations`].
pub fn generation_name_warnings() -> u64 {
    GENERATION_WARNINGS.load(Ordering::Relaxed)
}

/// The prior checkpoint generations present in `dir`, ascending (`1` =
/// most recent previous). The current checkpoint (generation 0) is not
/// listed; a fresh directory returns an empty vector.
///
/// Rotation keeps `.1..` contiguous, so only the contiguous prefix is
/// usable — but unlike the historical probe-until-gap scan, this walk
/// reads the whole directory and makes every skipped file **loud**:
/// unparsable `checkpoint.vsjc.*` names and orphaned generations past
/// a gap are warned about and counted in
/// [`generation_name_warnings`] instead of silently ignored.
pub fn list_generations(dir: &Path) -> Vec<u64> {
    let prefix = format!("{CHECKPOINT_FILE}.");
    let mut found: Vec<u64> = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(suffix) = name.strip_prefix(prefix.as_str()) else {
            continue;
        };
        // The writer's transient temp file is expected, not malformed
        // (stale ones are reclaimed by `clean_stale_tmp` at startup).
        if suffix == "tmp" {
            continue;
        }
        // Canonical generation names only: `.g` with g ≥ 1 and no
        // leading zeros or signs (`parse` would accept "+3"/"007").
        match suffix.parse::<u64>() {
            Ok(g) if g >= 1 && g.to_string() == suffix => found.push(g),
            _ => {
                GENERATION_WARNINGS.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "vsj-service: malformed checkpoint generation name {name:?} in {} \
                     (rotation will never reclaim it)",
                    dir.display()
                );
            }
        }
    }
    found.sort_unstable();
    found.dedup();
    let mut contiguous = Vec::with_capacity(found.len());
    for g in found {
        if g == contiguous.len() as u64 + 1 {
            contiguous.push(g);
        } else {
            GENERATION_WARNINGS.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "vsj-service: orphaned checkpoint generation {g} in {} \
                 (gap in the rotation chain; not recoverable from)",
                dir.display()
            );
        }
    }
    contiguous
}

/// Removes a stale checkpoint temp file left behind by a crash between
/// the temp write and the atomic rename. Returns whether one was
/// found. Called on every engine startup (`durable_with` / `recover`),
/// so a crashed rotation can never leak the temp file forever.
pub(crate) fn clean_stale_tmp(dir: &Path) -> Result<bool, PersistError> {
    let tmp = dir.join(CHECKPOINT_TMP);
    match std::fs::remove_file(&tmp) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(PersistError::Io(e)),
    }
}

/// Rotates checkpoint generations ahead of a new checkpoint write:
/// prunes generations at or past `retain`, shifts `.g → .(g+1)` for the
/// survivors, and *hard-links* the current checkpoint to `.1` so the
/// file `write_checkpoint`'s atomic rename replaces lives on as the
/// newest prior generation. Crash-safe: the current checkpoint is never
/// unlinked by rotation, so every window leaves a loadable generation 0.
pub(crate) fn rotate_generations(dir: &Path, retain: usize) -> Result<(), PersistError> {
    // Prune every generation the shift would push past the window
    // (`.g` becomes `.g+1`, so `.retain-1` and beyond must go). Also
    // cleans up after a `retain` lowered between lives; the scan runs a
    // little past the window so stale stragglers are reclaimed too.
    let horizon = (retain as u64).saturating_sub(1).max(1);
    let mut g = horizon;
    while generation_path(dir, g).exists() || g < horizon + 8 {
        if generation_path(dir, g).exists() {
            std::fs::remove_file(generation_path(dir, g))?;
        }
        g += 1;
    }
    if retain <= 1 {
        return Ok(());
    }
    for g in (1..retain as u64 - 1).rev() {
        let from = generation_path(dir, g);
        if from.exists() {
            std::fs::rename(&from, generation_path(dir, g + 1))?;
        }
    }
    let current = dir.join(CHECKPOINT_FILE);
    if current.exists() {
        // Hard link, not rename: generation 0 must stay present through
        // every crash window. Fall back to a copy on filesystems
        // without hard links.
        let one = generation_path(dir, 1);
        if std::fs::hard_link(&current, &one).is_err() {
            std::fs::copy(&current, &one)?;
        }
    }
    Ok(())
}

/// A background thread that checkpoints a durable engine whenever the
/// WAL backlog reaches a threshold — the component that keeps the WAL
/// bounded ("truncate after each durable epoch") without putting
/// checkpoint latency on the write path.
///
/// Stopping (explicitly via [`Checkpointer::stop`] or by dropping)
/// joins the thread; it does **not** take a final checkpoint — callers
/// decide whether the tail should ride the WAL or be made durable.
#[derive(Debug)]
pub struct Checkpointer(PollThread);

impl Checkpointer {
    /// Spawns the checkpointer: every `poll`, if at least
    /// `min_pending_records` WAL records accumulated since the last
    /// checkpoint, takes one. With `traces`, every checkpoint taken
    /// additionally offers a `Trace` labeled `"checkpoint"` (stage
    /// `cut`) to that ring — the same ring a serving layer exposes
    /// under `/trace/slow`, so background cuts show up next to slow
    /// requests.
    ///
    /// # Panics
    /// Panics if the engine is not durable. The background thread
    /// panics if a checkpoint fails (the panic resurfaces from
    /// [`Checkpointer::stop`]). The engine itself stays up but does
    /// **not** keep silently accepting writes: a failed checkpoint
    /// poisons the WAL writer, so every subsequent durable ingest fails
    /// loudly instead of being acknowledged and lost.
    pub fn spawn(
        engine: Arc<EstimationEngine>,
        min_pending_records: u64,
        poll: Duration,
        traces: Option<Arc<TraceRing>>,
    ) -> Self {
        assert!(
            engine.is_durable(),
            "Checkpointer requires a durable engine"
        );
        Self(PollThread::spawn("checkpointer", poll, move || {
            if engine.wal_pending() < min_pending_records.max(1) {
                return false;
            }
            let started = Instant::now();
            engine
                .checkpoint()
                .expect("background checkpoint failed; refusing to continue unlogged");
            if let Some(ring) = &traces {
                offer_op_trace(ring, "checkpoint", "cut", started.elapsed());
            }
            true
        }))
    }

    /// Signals the thread and joins it, returning how many checkpoints
    /// it took.
    pub fn stop(self) -> u64 {
        self.0.stop()
    }
}

/// A background thread that *compacts* a durable mapped engine whenever
/// its trigger policy says the overlay is worth folding — the component
/// that keeps a long-lived mapped engine's heap overlay and tombstone
/// set bounded without putting compaction latency on the write path.
///
/// Each poll asks [`EstimationEngine::compaction_due`] (overlay-bytes /
/// tombstone-ratio knobs on
/// [`DurabilityOptions`](crate::DurabilityOptions)) and, when due, runs
/// [`EstimationEngine::compact`]: publish barrier, fold into a fresh
/// checkpoint, atomic re-map. Estimates are bit-identical across the
/// swap, so the thread is safe to run under live reads and writes.
///
/// Stopping (explicitly via [`Compactor::stop`] or by dropping) joins
/// the thread; it does **not** take a final compaction.
#[derive(Debug)]
pub struct Compactor(PollThread);

impl Compactor {
    /// Spawns the compactor, polling the engine's trigger policy every
    /// `poll`. With `traces`, every compaction taken additionally
    /// offers a `Trace` labeled `"compaction"` (stage `fold`) to that
    /// ring — the same ring a serving layer exposes under `/trace/slow`.
    ///
    /// # Panics
    /// Panics if the engine is not durable. The background thread
    /// panics if a compaction fails (the panic resurfaces from
    /// [`Compactor::stop`]); as with a failed checkpoint, the engine
    /// does not keep silently accepting writes — a failed fold poisons
    /// the WAL writer, so subsequent durable ingests fail loudly.
    pub fn spawn(
        engine: Arc<EstimationEngine>,
        poll: Duration,
        traces: Option<Arc<TraceRing>>,
    ) -> Self {
        assert!(engine.is_durable(), "Compactor requires a durable engine");
        Self(PollThread::spawn("compactor", poll, move || {
            if !engine.compaction_due() {
                return false;
            }
            let started = Instant::now();
            engine
                .compact()
                .expect("background compaction failed; refusing to continue unlogged");
            if let Some(ring) = &traces {
                offer_op_trace(ring, "compaction", "fold", started.elapsed());
            }
            true
        }))
    }

    /// Signals the thread and joins it, returning how many compactions
    /// it took.
    pub fn stop(self) -> u64 {
        self.0.stop()
    }
}

/// Offers a one-stage background-operation trace to a slow-trace ring
/// (the [`Auditor`](crate::Auditor) builds its two-stage trace inline).
fn offer_op_trace(ring: &TraceRing, label: &'static str, stage: &'static str, took: Duration) {
    let micros = u64::try_from(took.as_micros()).unwrap_or(u64::MAX);
    let mut trace = Trace::new(label);
    trace.stage(stage, micros);
    trace.total_us = micros;
    ring.offer(trace);
}
