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
//! | `META` | epoch, ingest counter, id allocator, WAL cut, publishes, row count, then the [`ServiceConfig`]: seed, `k`, shards, family (MinHash 1, SimHash 2; SimHash's retired Box–Muller tag 0 is refused), a retired `u64` slot (written 0, ignored on read), auto-publish batch, estimator |
//! | `GIDS` | global ids of the snapshot rows, ascending (`n × u64`) |
//! | `KEYS` | precomputed LSH bucket keys, parallel to `GIDS` (`n × u64`) |
//! | `BKTK` | bucket keys, strictly ascending (`B × u64`) |
//! | `BOFF` | bucket member-run offsets (`(B+1) × u64`, `[0] = 0`, `[B] = n`) |
//! | `BMEM` | bucket member runs: row ids grouped by bucket, ascending within (`n × u32`) |
//! | `VOFF` | payload-slab byte offsets (`(n+1) × u64`) |
//! | `VPAY` | concatenated row blocks: `nnz`, indices, values (the layout of a heap payload slab; [`vsj_vector::row`] is its codec) |
//!
//! Storing the bucket keys and their grouping means recovery re-hashes
//! and regroups *nothing*: shard rows are restored with their stored
//! keys, the heap tier copies `BKTK`/`BOFF`/`BMEM` once into its table's
//! [`BucketSlab`](vsj_lsh::BucketSlab), and the mapped tier merges them
//! with its overlay into the slab it serves. Every
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

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memmap2::Mmap;
use vsj_datasets::io::{ContainerIndex, ContainerWriter, IoError};
use vsj_obs::{Trace, TraceRing};

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
    /// The state was hashed by functions this build no longer computes:
    /// its stored bucket keys would share tables with keys of other
    /// functions, so every estimate over them would be silently wrong.
    RetiredHashFunctions(String),
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
            Self::RetiredHashFunctions(msg) => {
                write!(f, "persistent state hashed by retired functions: {msg}")
            }
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
///
/// SimHash's term is 3: its hyperplane coordinates are `Φ⁻¹` of one
/// uniform word. Term 1 was SimHash with Box–Muller coordinates, whose
/// bucket keys differ, so a log stamped with it fails the pairing.
pub fn config_fingerprint(config: &ServiceConfig) -> u64 {
    use vsj_sampling::SplitMix64;
    let family = match config.family {
        IndexFamily::SimHash => 3u64,
        IndexFamily::MinHash => 2u64,
    };
    let mut acc = SplitMix64::mix(0x5EED_CAFE ^ config.seed);
    acc = SplitMix64::mix(acc ^ config.k as u64);
    acc = SplitMix64::mix(acc ^ config.shards as u64);
    SplitMix64::mix(acc ^ family)
}

/// META's family byte for SimHash with `Φ⁻¹` hyperplane coordinates.
const META_SIMHASH: u8 = 2;
/// META's family byte for MinHash.
const META_MINHASH: u8 = 1;
/// META's family byte for SimHash with Box–Muller coordinates, which
/// this build refuses ([`PersistError::RetiredHashFunctions`]).
const META_SIMHASH_BOX_MULLER: u8 = 0;

fn encode_meta(meta: &CheckpointMeta, n: u64) -> Vec<u8> {
    let c = &meta.config;
    let mut buf = Vec::with_capacity(128);
    for word in [
        meta.epoch,
        meta.ingested,
        meta.next_id,
        meta.applied_seq,
        meta.publishes,
        n,
        c.seed,
        c.k as u64,
        c.shards as u64,
    ] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    buf.push(match c.family {
        IndexFamily::SimHash => META_SIMHASH,
        IndexFamily::MinHash => META_MINHASH,
    });
    // A retired u64 slot, always written as 0 (see `decode_meta`).
    buf.extend_from_slice(&0u64.to_le_bytes());
    match c.auto_publish_every {
        None => buf.push(0),
        Some(b) => {
            buf.push(1);
            buf.extend_from_slice(&b.to_le_bytes());
        }
    }
    match c.estimator {
        None => buf.push(0),
        Some(e) => {
            buf.push(1);
            for word in [e.m_h, e.m_l, e.delta] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
            match e.dampening {
                vsj_core::Dampening::SafeLowerBound => buf.push(0),
                vsj_core::Dampening::Constant(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                vsj_core::Dampening::NlOverDelta => buf.push(2),
            }
        }
    }
    buf
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// Splits the first `N` bytes off `data` — how the readers of this crate
/// walk a little-endian record (checkpoint metadata, WAL segments).
pub(crate) fn take<const N: usize>(data: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = data.split_first_chunk()?;
    *data = rest;
    Some(*head)
}

pub(crate) fn decode_meta(mut data: &[u8]) -> Result<(CheckpointMeta, u64), PersistError> {
    let truncated = || corrupt("META truncated");
    let u64_le = |data: &mut &[u8]| take(data).map(u64::from_le_bytes).ok_or_else(truncated);
    let byte = |data: &mut &[u8]| take(data).map(|[b]| b).ok_or_else(truncated);
    let epoch = u64_le(&mut data)?;
    let ingested = u64_le(&mut data)?;
    let next_id = u64_le(&mut data)?;
    let applied_seq = u64_le(&mut data)?;
    let publishes = u64_le(&mut data)?;
    let n = u64_le(&mut data)?;
    let seed = u64_le(&mut data)?;
    let k = u64_le(&mut data)? as usize;
    let shards = u64_le(&mut data)? as usize;
    let family = match byte(&mut data)? {
        META_SIMHASH => IndexFamily::SimHash,
        META_MINHASH => IndexFamily::MinHash,
        META_SIMHASH_BOX_MULLER => {
            return Err(PersistError::RetiredHashFunctions(
                "a SimHash checkpoint (META family tag 0) whose hyperplane coordinates \
                 were Box–Muller deviates; this build draws each coordinate as Φ⁻¹ of \
                 one uniform, so its stored bucket keys are not this build's — rebuild \
                 the index from the rows"
                    .into(),
            ))
        }
        b => return Err(corrupt(format!("unknown family tag {b}"))),
    };
    // A retired u64 slot: older writers stored an estimate-cache
    // tolerance here. It no longer means anything and is skipped.
    u64_le(&mut data)?;
    let auto_publish_every = match byte(&mut data)? {
        0 => None,
        1 => Some(u64_le(&mut data)?),
        b => return Err(corrupt(format!("bad auto-publish flag {b}"))),
    };
    let estimator = match byte(&mut data)? {
        0 => None,
        1 => {
            let m_h = u64_le(&mut data)?;
            let m_l = u64_le(&mut data)?;
            let delta = u64_le(&mut data)?;
            let dampening = match byte(&mut data)? {
                0 => vsj_core::Dampening::SafeLowerBound,
                1 => vsj_core::Dampening::Constant(f64::from_bits(u64_le(&mut data)?)),
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
    if !data.is_empty() {
        return Err(corrupt(format!("{} trailing META bytes", data.len())));
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

fn encode_u64s(values: impl ExactSizeIterator<Item = u64>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(values.len() * 8);
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// Serializes a checkpoint (exposed for tests and tooling; the private
/// `write_checkpoint` is the durable path). Works for both storage
/// tiers, copying every row's payload block as it lies. A mapped
/// snapshot walks its dense id space — tombstoned base rows are
/// *dropped* and overlay rows are interleaved in global-id order, so the
/// file a compaction writes is exactly the file a from-scratch build over
/// the live rows would write.
pub fn encode_checkpoint(meta: &CheckpointMeta, snapshot: &Snapshot) -> Vec<u8> {
    encode_checkpoint_inner(meta, snapshot).finish()
}

/// The checkpoint's sections, every one — `VPAY` included — built in
/// memory, ready to be written: [`encode_checkpoint`] concatenates them
/// into one buffer, [`write_checkpoint`] writes them to its file.
fn encode_checkpoint_inner(meta: &CheckpointMeta, snapshot: &Snapshot) -> ContainerWriter {
    let n = snapshot.len();
    // Row keys in snapshot-local id order, and the buckets grouping them
    // (key-ascending, members in id order): the one slab both tiers
    // sample from, so a reader of either tier enumerates the bucket
    // sequence of a heap rebuild.
    let slab = snapshot.slab();
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
        encode_u64s((0..n as u32).map(|d| snapshot.global_of(d))),
    );
    w.section(
        SECTION_KEYS,
        encode_u64s((0..n as u32).map(|d| snapshot.key_of(d))),
    );
    w.section(SECTION_BKTK, encode_u64s(slab.keys().iter().copied()));
    w.section(
        SECTION_BOFF,
        encode_u64s(slab.offsets().iter().map(|&o| u64::from(o))),
    );
    let mut bmem = Vec::with_capacity(slab.members().len() * 4);
    for m in slab.members() {
        bmem.extend_from_slice(&m.to_le_bytes());
    }
    w.section(SECTION_BMEM, bmem);
    let mut vpay = Vec::with_capacity(total as usize);
    for d in 0..n {
        vpay.extend_from_slice(block(d));
    }
    w.section(SECTION_VOFF, encode_u64s(voff.into_iter()));
    w.section(SECTION_VPAY, vpay);
    w
}

/// Atomically replaces the checkpoint file in `dir`: the sections are
/// built in memory ([`encode_checkpoint_inner`]), written to a temp file,
/// fsync'd and renamed over the current checkpoint.
///
/// The `sync_data` runs under every `FsyncPolicy`, `Never` included.
/// The policy decides only when an *ingest* is acknowledged; a
/// checkpoint is a cut, and the engine's cut is durable under any
/// policy. It fsyncs the WAL (`WalSet::sync_all`), writes this file,
/// seals the record-bearing segments (`seal_active` → `rotate`, which
/// `sync_data`s them), and then `WalSet::truncate` unlinks the sealed
/// segments at or below the retention horizon. With one retained
/// generation that horizon is this checkpoint's own cut, so the unlinks
/// delete the only other copy of the records this file covers. Left in
/// the page cache, a power cut after the rename could keep a torn
/// checkpoint and no log to rebuild it from, losing writes the cut had
/// already made durable. So the file reaches the disk before any
/// segment it covers is dropped.
pub(crate) fn write_checkpoint(
    dir: &Path,
    meta: &CheckpointMeta,
    snapshot: &Snapshot,
) -> Result<(), PersistError> {
    let writer = encode_checkpoint_inner(meta, snapshot);
    let tmp = dir.join(CHECKPOINT_TMP);
    {
        let mut file = std::fs::File::create(&tmp)?;
        writer.write_to(&mut file)?;
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
