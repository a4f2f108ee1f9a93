//! The concurrent estimation engine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use std::sync::{Mutex, RwLock};

use crate::locks;

use vsj_core::{Estimate, IndexView, LshSs, LshSsConfig};
use vsj_exact::ExactJoin;
use vsj_lsh::{BucketHasher, Composite, MinHashFamily, SimHashFamily};
use vsj_obs::{snapshot_ordered, Counter, Gauge, Histogram, ObsOptions, Registry};
use vsj_pool::WorkPool;
use vsj_sampling::{signed_relative_error, Rng, RngStreams, SplitMix64, Xoshiro256};
use vsj_vector::{pairs_of, Cosine, EncodedRow, Jaccard, SparseVector, VectorCollection};

use crate::audit::{AuditOptions, AuditRecord, AuditState, QualityReport};
use crate::cache::{CacheEntry, CacheKey, EstimateCache};
use crate::config::{DurabilityOptions, FsyncPolicy, IndexFamily, ServiceConfig, StorageTier};
use crate::mapped::{MappedCheckpoint, TombstoneSet};
use crate::persist::{self, CheckpointMeta, PersistError, CHECKPOINT_FILE};
use crate::shard::{ShardState, ShardStats};
use crate::snapshot::Snapshot;
use crate::wal::{WalMetrics, WalOp, WalRecord, WalSet};
use crate::GlobalId;

/// Shard whose segment chain carries publish barrier records.
const PUBLISH_SHARD: usize = 0;

/// Storage attachment of a durable engine: the directory holding the
/// checkpoint generations, the per-shard segmented [`WalSet`], and the
/// **apply gate** that makes parallel durable writes replayable.
///
/// Every durable ingest holds the gate *shared* across sequence
/// assignment, log append, and apply — writers on different shards run
/// fully in parallel (they contend only on their own shard's locks).
/// Publish barriers and checkpoints take the gate *exclusive*: with no
/// ingest anywhere between its sequence and its apply, "all records
/// below the barrier's sequence are applied, none above it" holds at
/// the instant the barrier is logged — which is exactly what lets the
/// merge-replay reproduce every cut bit for bit.
struct Durability {
    dir: PathBuf,
    wal: WalSet,
    gate: RwLock<()>,
    /// Records appended since the last checkpoint cut, mirrored in an
    /// atomic so `stats()`/`wal_pending()` never block on a checkpoint
    /// in progress.
    pending: AtomicU64,
    /// Cut sequences of the checkpoint generations on disk, newest
    /// first (`[0]` = current). Their minimum is the WAL retention
    /// horizon: segments older than it can serve no kept generation and
    /// are dropped at the next checkpoint.
    horizons: Mutex<Vec<u64>>,
    options: DurabilityOptions,
}

/// The engine's metric handles, all registered against one [`Registry`]
/// (also the home of the WAL and, in a serving deployment, the exposure
/// point of `GET /metrics`). The counters here *are* the engine's
/// counters — [`EngineStats`] reads them through [`snapshot_ordered`],
/// which is what rules out torn-snapshot inversions like
/// `cache_misses < sampling_passes`.
struct EngineMetrics {
    registry: Registry,
    /// Bucket layouts, kept so the WAL series can register lazily
    /// (storage attaches after construction).
    obs: ObsOptions,
    ingests: Counter,
    publishes: Counter,
    delta_publishes: Counter,
    full_publishes: Counter,
    sampling_passes: Counter,
    sampled_pairs: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    publish_delta_us: Histogram,
    publish_full_us: Histogram,
    sampling_us: Histogram,
    pairs_per_pass: Histogram,
    cache_hit_us: Histogram,
    /// Time an ingest holds its shard lock to *apply* (row push /
    /// swap-remove, map update, tombstone edit) — on every path the
    /// bucket key was hashed before the lock, so hashing is never in it.
    ingest_apply_us: Histogram,
    /// Checkpoint mappings established (mapped recoveries and
    /// compaction re-maps).
    checkpoint_maps: Counter,
    /// Background compactions completed (overlay + tombstones folded
    /// into a fresh mapped base).
    compactions: Counter,
    compaction_us: Histogram,
    /// Encoded bytes of the published mapped-tier heap overlay.
    overlay_bytes: Gauge,
    /// Tombstoned mapped base rows awaiting compaction.
    tombstone_rows: Gauge,
    /// Bytes currently served from a checkpoint mapping.
    mapped_bytes: Gauge,
    /// Base vectors decoded onto the heap (refreshed by `stats()`): 0
    /// on the served path, which scores base rows in place.
    mapped_materialized: Gauge,
    /// Process major page faults (refreshed by `stats()`; the mapped
    /// tier's "how much of the base did we actually touch" signal).
    major_faults: Gauge,
    coldstart_heap_us: Histogram,
    coldstart_mapped_us: Histogram,
    /// Tasks executed by the engine's work pool (refreshed by
    /// `stats()`).
    pool_tasks: Counter,
    /// Tasks a pool worker stole from another worker's queue
    /// (refreshed by `stats()`).
    pool_steals: Counter,
    /// Tasks currently queued in the pool (refreshed by `stats()`).
    pool_queue_depth: Gauge,
    /// Per-task pool execution latency (fed live by the pool observer).
    pool_task_us: Histogram,
}

impl EngineMetrics {
    fn new() -> Self {
        let obs = ObsOptions::default();
        let registry = Registry::new();
        let latency = obs.latency_spec();
        let size = obs.size_spec();
        Self {
            ingests: registry.counter(
                "vsj_engine_ingests_total",
                "Ingest operations (inserts + removes + upsert halves)",
            ),
            publishes: registry.counter("vsj_engine_publishes_total", "Snapshots published"),
            delta_publishes: registry.counter(
                "vsj_engine_delta_publishes_total",
                "Publishes served by the incremental O(changed) path",
            ),
            full_publishes: registry.counter(
                "vsj_engine_full_publishes_total",
                "Publishes that fell back to the full pointer-merge",
            ),
            sampling_passes: registry.counter(
                "vsj_engine_sampling_passes_total",
                "Estimate computations that actually sampled",
            ),
            sampled_pairs: registry.counter(
                "vsj_engine_sampled_pairs_total",
                "Total pair draws across all sampling passes",
            ),
            cache_hits: registry.counter("vsj_engine_cache_hits_total", "Estimate-cache hits"),
            cache_misses: registry
                .counter("vsj_engine_cache_misses_total", "Estimate-cache misses"),
            publish_delta_us: registry.histogram_with(
                "vsj_engine_publish_duration_us",
                "Snapshot publish duration in microseconds",
                &[("kind", "delta")],
                latency,
            ),
            publish_full_us: registry.histogram_with(
                "vsj_engine_publish_duration_us",
                "Snapshot publish duration in microseconds",
                &[("kind", "full")],
                latency,
            ),
            sampling_us: registry.histogram(
                "vsj_engine_sampling_duration_us",
                "Sampling-pass duration in microseconds",
                latency,
            ),
            pairs_per_pass: registry.histogram(
                "vsj_engine_sampling_pairs",
                "Pairs drawn per sampling pass",
                size,
            ),
            cache_hit_us: registry.histogram(
                "vsj_engine_cache_hit_duration_us",
                "Cache-served estimate latency in microseconds",
                latency,
            ),
            ingest_apply_us: registry.histogram(
                "vsj_engine_ingest_apply_duration_us",
                "Per-shard ingest apply time under the shard lock in microseconds (hashing excluded)",
                latency,
            ),
            checkpoint_maps: registry.counter(
                "vsj_engine_checkpoint_maps_total",
                "Checkpoint mappings established (mapped-tier recoveries)",
            ),
            compactions: registry.counter(
                "vsj_engine_compactions_total",
                "Background compactions folding overlay + tombstones into a fresh mapped base",
            ),
            compaction_us: registry.histogram(
                "vsj_engine_compaction_duration_us",
                "Compaction duration (cut + fold + re-map) in microseconds",
                latency,
            ),
            overlay_bytes: registry.gauge(
                "vsj_engine_overlay_bytes",
                "Encoded bytes of the published mapped-tier heap overlay",
            ),
            tombstone_rows: registry.gauge(
                "vsj_engine_tombstones",
                "Tombstoned mapped base rows awaiting compaction",
            ),
            mapped_bytes: registry.gauge(
                "vsj_engine_mapped_bytes",
                "Bytes served from the current checkpoint mapping",
            ),
            mapped_materialized: registry.gauge(
                "vsj_engine_mapped_materialized_vectors",
                "Mapped base vectors decoded onto the heap (0 on the served path, which scores rows in place)",
            ),
            major_faults: registry.gauge(
                "vsj_process_major_page_faults",
                "Major page faults of this process (mapped-tier cold reads)",
            ),
            coldstart_heap_us: registry.histogram_with(
                "vsj_engine_coldstart_duration_us",
                "Recovery time to a serving engine in microseconds",
                &[("tier", "heap")],
                latency,
            ),
            coldstart_mapped_us: registry.histogram_with(
                "vsj_engine_coldstart_duration_us",
                "Recovery time to a serving engine in microseconds",
                &[("tier", "mapped")],
                latency,
            ),
            pool_tasks: registry.counter(
                "vsj_pool_tasks_total",
                "Tasks executed by the engine work pool",
            ),
            pool_steals: registry.counter(
                "vsj_pool_steal_total",
                "Pool tasks stolen from another worker's queue",
            ),
            pool_queue_depth: registry.gauge(
                "vsj_pool_queue_depth",
                "Tasks currently queued in the engine work pool",
            ),
            pool_task_us: registry.histogram(
                "vsj_pool_task_duration_us",
                "Work-pool task execution time in microseconds",
                latency,
            ),
            registry,
            obs,
        }
    }

    /// WAL histogram handles on this registry (idempotent).
    fn wal_metrics(&self) -> WalMetrics {
        WalMetrics::registered(
            &self.registry,
            self.obs.latency_spec(),
            self.obs.size_spec(),
        )
    }
}

/// One answer from the service, with the provenance a query optimizer
/// (or an SLA dashboard) needs to judge it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceEstimate {
    /// The join-size estimate (value + how it was formed).
    pub estimate: Estimate,
    /// Standard error of the estimate: the square root of the summed
    /// per-stratum variances LSH-SS's per-τ accounting accumulated over
    /// the draws it read (see [`vsj_core::LshSsEstimate::std_err`]).
    /// Cache-served answers replay the std_err recorded when they were
    /// computed.
    pub std_err: f64,
    /// Epoch of the snapshot it was computed on.
    pub epoch: u64,
    /// Live vectors in that snapshot.
    pub n: usize,
    /// The threshold asked for.
    pub tau: f64,
    /// Whether the answer came from the estimate cache (no sampling
    /// performed by this call).
    pub cached: bool,
}

/// Normal-approximation z for the served ~95% confidence interval.
const CI_Z: f64 = 1.96;

/// `b` distinct indices drawn uniformly from `0..n` (partial
/// Fisher–Yates over a sparse swap map: O(b) time and space, no O(n)
/// permutation) — the audit loop's bounded-stratum selection.
fn sample_distinct_indices(n: usize, b: usize, rng: &mut Xoshiro256) -> Vec<usize> {
    debug_assert!(b <= n);
    let mut swaps: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(b);
    for i in 0..b {
        let j = i + rng.below((n - i) as u64) as usize;
        let pick = *swaps.get(&j).unwrap_or(&j);
        let at_i = *swaps.get(&i).unwrap_or(&i);
        swaps.insert(j, at_i);
        out.push(pick);
    }
    out
}

impl ServiceEstimate {
    /// Lower edge of the ~95% normal-approximation confidence interval,
    /// clamped to `[0, value]` — a join size is never negative, and the
    /// interval always contains the point estimate.
    pub fn ci_low(&self) -> f64 {
        (self.estimate.value - CI_Z * self.std_err)
            .max(0.0)
            .min(self.estimate.value)
    }

    /// Upper edge of the ~95% normal-approximation confidence interval
    /// (always ≥ the point estimate).
    pub fn ci_high(&self) -> f64 {
        (self.estimate.value + CI_Z * self.std_err).max(self.estimate.value)
    }
}

/// Point-in-time engine statistics.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Live vectors across all shards (may be ahead of the snapshot).
    pub live: usize,
    /// Total ingest operations (inserts + removes + upsert halves).
    pub ingests: u64,
    /// Ingest operations applied since the current snapshot's cut — the
    /// staleness of the read view, and the signal a serving layer sheds
    /// load on (see [`EstimationEngine::publish_lag`]).
    pub publish_lag: u64,
    /// Snapshots published.
    pub publishes: u64,
    /// Publishes served by the incremental O(changed) path (append-only
    /// epochs extending the previous snapshot).
    pub delta_publishes: u64,
    /// Publishes that fell back to the full pointer-merge (epochs with
    /// removals, upserts of existing ids, or out-of-order id arrivals).
    pub full_publishes: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
    /// Estimate-cache hits.
    pub cache_hits: u64,
    /// Estimate-cache misses.
    pub cache_misses: u64,
    /// Resident cache entries.
    pub cache_entries: usize,
    /// Estimate computations that actually sampled (cache misses served).
    pub sampling_passes: u64,
    /// Total pair draws across those passes.
    pub sampled_pairs: u64,
    /// WAL records not yet covered by a checkpoint (0 for non-durable
    /// engines).
    pub wal_pending: u64,
    /// Per-shard WAL backlog (records past the checkpoint cut on each
    /// shard's segment chain) — the serving layer's per-shard shed
    /// signal. Empty for non-durable engines.
    pub wal_shard_pending: Vec<u64>,
    /// Live WAL segment files across all shards (0 when non-durable).
    pub wal_segments: u64,
    /// fsync calls the WAL issued — appends under
    /// [`FsyncPolicy::Always`](crate::FsyncPolicy) share one per
    /// group-commit batch, segment seals and checkpoint cuts always
    /// sync.
    pub wal_fsyncs: u64,
    /// Segment rotations (seal + fresh segment).
    pub wal_rotations: u64,
    /// Background compactions completed (mapped tier; see
    /// [`EstimationEngine::compact`]).
    pub compactions: u64,
    /// Encoded bytes of the published mapped-tier heap overlay (0 on
    /// the heap tier, and again right after a compaction folds the
    /// overlay into the base).
    pub overlay_bytes: u64,
    /// Tombstoned mapped base rows awaiting compaction.
    pub tombstones: usize,
    /// Worker threads in the engine's data-parallel pool (1 means the
    /// pool is disabled and every hot path runs its serial legacy
    /// route).
    pub pool_threads: usize,
    /// Tasks executed by the pool since engine construction.
    pub pool_tasks: u64,
    /// Pool tasks stolen from another worker's queue — the load-skew
    /// signal (stealing is scheduling only; results are always joined
    /// in submission order).
    pub pool_steals: u64,
}

/// A long-lived, concurrently usable VSJ size-estimation service.
///
/// * **Writes** (`insert` / `remove` / `upsert`) go to one of `S` shards
///   chosen by a hash of the global id; the vector is hashed once
///   (`k` LSH functions) before the shard's lock is taken, and the
///   shard stores the `(id, key, vector)` row under its own lock —
///   writers on different shards never contend.
/// * **Publication** (`publish`, or automatic every
///   [`ServiceConfig::auto_publish_every`] ingests) takes a consistent
///   cut across the shards and assembles an immutable epoch
///   [`Snapshot`] in **O(changed)**: append-only epochs extend the
///   previous snapshot (payload slabs and untouched bucket runs are
///   `Arc`-shared; only the new rows' blocks are copied, nothing is
///   re-hashed), and only epochs with removals or replacing upserts pay
///   a full merge, which rebuilds the row directory but still copies no
///   published payload. The new snapshot is then swapped in as the
///   current read view.
/// * **Reads** (`estimate` / `estimate_batch`) clone the current
///   snapshot `Arc` (readers never block writers or each other beyond
///   that pointer read) and run the paper's LSH-SS estimator against
///   it, through the [`IndexView`](vsj_core::IndexView) abstraction.
/// * **The estimate cache** short-circuits repeated thresholds: answers
///   stay servable until the data drifts more than ε ingests past the
///   state they were computed on.
///
/// Determinism: every estimate at an epoch replays the one pair sample
/// drawn from the RNG [`EstimationEngine::batch_rng`] derives from the
/// master seed, so the same engine state always returns the same value
/// — and the value equals an offline
/// [`LshSs::estimate_curve_detailed`] run over the snapshot with that
/// RNG.
pub struct EstimationEngine {
    config: ServiceConfig,
    hasher: Arc<dyn BucketHasher>,
    shards: Vec<Mutex<ShardState>>,
    /// Current published snapshot; writers swap, readers clone the Arc.
    current: RwLock<Arc<Snapshot>>,
    /// Serializes publishes; holds the last published epoch.
    publish_lock: Mutex<u64>,
    next_id: AtomicU64,
    metrics: EngineMetrics,
    cache: Mutex<EstimateCache>,
    streams: RngStreams,
    /// Mapped-tier removal state: base-row indices removed (or replaced
    /// by an upsert) since the current mapping's cut, sorted ascending.
    /// Mutated only under the owning gid's shard lock (the established
    /// shard → tombstones lock order), cloned into every mapped cut,
    /// reset when a compaction folds it into a fresh base. Always empty
    /// on the heap tier.
    tombstones: Mutex<Vec<u32>>,
    /// Latched across [`checkpoint`](Self::checkpoint)/
    /// [`compact`](Self::compact) so the trigger policy
    /// ([`compaction_due`](Self::compaction_due)) never fires into an
    /// in-flight cut.
    checkpoint_in_flight: AtomicBool,
    /// `Some` for durable engines (see [`EstimationEngine::durable`]).
    durability: Option<Durability>,
    /// Estimator-quality audit state: the recently-served threshold
    /// ring, the `vsj_audit_*` series (on the engine registry), and the
    /// worst-calibrated ring (see [`crate::Auditor`]).
    audit: AuditState,
    /// The engine's work pool for data-parallel hot paths (batch
    /// hashing, `estimate_batch` fan-out, checkpoint encode). Sized by
    /// [`crate::ParallelOptions::pool_threads`]; one thread means the
    /// pool spawns no workers and every hot path takes its exact serial
    /// legacy route. Every pooled path is bit-identical to serial at
    /// any thread count (see the crate docs of `vsj_pool`).
    pool: Arc<WorkPool>,
}

impl EstimationEngine {
    /// Builds an engine from a configuration. The engine + WAL series
    /// use the default histogram bucket layouts
    /// ([`ObsOptions::default`]); a server's own registry is shaped by
    /// its `ServerConfig.obs`.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.shards >= 1, "an engine needs at least one shard");
        assert!(config.k >= 1, "k must be at least 1");
        assert!(
            config.auto_publish_every != Some(0),
            "auto_publish_every must be at least 1"
        );
        config.parallel.validate();
        let hasher: Arc<dyn BucketHasher> = match config.family {
            IndexFamily::SimHash => Arc::new(Composite::derive(
                SimHashFamily::new(),
                config.seed,
                0,
                config.k,
            )),
            IndexFamily::MinHash => Arc::new(Composite::derive(
                MinHashFamily::new(),
                config.seed,
                0,
                config.k,
            )),
        };
        let shards = (0..config.shards)
            .map(|_| Mutex::new(ShardState::new()))
            .collect();
        let metrics = EngineMetrics::new();
        let audit = AuditState::new(&metrics.registry, &metrics.obs);
        let pool = Arc::new(WorkPool::new(config.parallel.pool_threads));
        let task_us = metrics.pool_task_us.clone();
        pool.set_observer(Some(Arc::new(move |d| task_us.record_duration(d))));
        Self {
            config,
            current: RwLock::new(Arc::new(Snapshot::empty(hasher.clone()))),
            hasher,
            shards,
            publish_lock: Mutex::new(0),
            next_id: AtomicU64::new(0),
            metrics,
            audit,
            cache: Mutex::new(EstimateCache::default()),
            streams: RngStreams::new(config.seed),
            tombstones: Mutex::new(Vec::new()),
            checkpoint_in_flight: AtomicBool::new(false),
            durability: None,
            pool,
        }
    }

    // --- durability ------------------------------------------------------

    /// Builds a **durable** engine over a fresh storage directory: an
    /// initial (epoch 0) checkpoint pins the configuration on disk, and
    /// every subsequent ingest is appended to a write-ahead log *before*
    /// it is applied. Combined with periodic
    /// [`checkpoint`](Self::checkpoint) calls (or a
    /// [`Checkpointer`](crate::Checkpointer)), the engine survives
    /// restarts via [`recover`](Self::recover).
    ///
    /// Durable writes are **shard-parallel**: each ingest appends to
    /// its own shard's WAL segment chain under that shard's locks only,
    /// stitched into one replayable history by a global sequence
    /// number. Acknowledgement is governed by
    /// [`DurabilityOptions::fsync`] (see
    /// [`FsyncPolicy`](crate::FsyncPolicy)).
    ///
    /// # Errors
    /// Filesystem failures, [`PersistError::AlreadyInitialized`] when
    /// `dir` already holds a checkpoint (recover it instead — silently
    /// overwriting a previous life's state is exactly the kind of data
    /// loss this subsystem exists to prevent), or
    /// [`PersistError::Corrupt`] naming a single-file `wal.vsjw` found
    /// in `dir` (see [`recover_with`](Self::recover_with)).
    ///
    /// # Example
    ///
    /// ```
    /// use vsj_service::{EstimationEngine, ServiceConfig};
    /// use vsj_vector::SparseVector;
    ///
    /// let dir = std::env::temp_dir().join(format!("vsj-doc-durable-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    ///
    /// let config = ServiceConfig::builder().shards(2).k(8).seed(1).build();
    /// let engine = EstimationEngine::durable(config, &dir).unwrap();
    /// engine.insert(SparseVector::binary_from_members(vec![1, 2, 3]));
    /// assert_eq!(engine.wal_pending(), 1, "the insert is WAL-logged");
    ///
    /// // A second life must recover, never re-initialize.
    /// assert!(EstimationEngine::durable(config, &dir).is_err());
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn durable(config: ServiceConfig, dir: &Path) -> Result<Self, PersistError> {
        Self::durable_with(config, dir, DurabilityOptions::default())
    }

    /// [`durable`](Self::durable) with explicit storage-layer options
    /// (checkpoint retention, see [`DurabilityOptions`]).
    pub fn durable_with(
        config: ServiceConfig,
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<Self, PersistError> {
        options.validate();
        std::fs::create_dir_all(dir)?;
        if dir.join(CHECKPOINT_FILE).exists() {
            return Err(PersistError::AlreadyInitialized(dir.to_path_buf()));
        }
        persist::refuse_single_file_wal(dir)?;
        // A crashed previous life may have left a checkpoint temp file
        // without ever completing a checkpoint; reclaim it.
        persist::clean_stale_tmp(dir)?;
        let mut engine = Self::new(config);
        let meta = CheckpointMeta {
            epoch: 0,
            ingested: 0,
            next_id: 0,
            applied_seq: 0,
            publishes: 0,
            config,
        };
        persist::write_checkpoint(dir, &meta, &engine.snapshot(), &engine.pool)?;
        let wal = WalSet::create(
            dir,
            config.shards,
            0,
            persist::config_fingerprint(&config),
            options.fsync,
            options.segment_bytes,
        )?
        .with_metrics(engine.metrics.wal_metrics());
        engine.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal,
            gate: RwLock::new(()),
            pending: AtomicU64::new(0),
            horizons: Mutex::new(vec![0]),
            options,
        });
        Ok(engine)
    }

    /// Resurrects a durable engine from its storage directory: loads
    /// the checkpoint (every section checksum-verified), rebuilds the
    /// shards from the stored bucket keys (no re-hashing), restores the
    /// epoch/ingest/id counters, then replays the WAL records past the
    /// checkpoint's cut through the normal apply path — re-firing any
    /// auto-publishes at the same ingest boundaries as the original
    /// run. A torn WAL tail (crash mid-append) is truncated and the
    /// clean prefix recovered; a damaged checkpoint or WAL header fails
    /// loudly.
    ///
    /// The recovered engine is *bit-identical* to the pre-shutdown one
    /// at every published epoch: the same `(epoch, τ)` query returns the
    /// same estimate, and the next publish produces the same snapshot,
    /// because all RNG streams derive from the recovered seed and epoch
    /// counter.
    ///
    /// Explicit [`publish`](Self::publish) calls are WAL-logged (a
    /// dedicated record type) and re-fired by replay at the same
    /// position in the ingest order, so manual epochs — not just
    /// auto-publish cadences and [`checkpoint`](Self::checkpoint)
    /// epochs — are reproduced exactly.
    ///
    /// # Example
    ///
    /// ```
    /// use vsj_service::{EstimationEngine, ServiceConfig};
    /// use vsj_vector::SparseVector;
    ///
    /// let dir = std::env::temp_dir().join(format!("vsj-doc-recover-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    ///
    /// let config = ServiceConfig::builder().shards(2).k(8).seed(9).build();
    /// let engine = EstimationEngine::durable(config, &dir).unwrap();
    /// for i in 0..20u32 {
    ///     engine.insert(SparseVector::binary_from_members(vec![i % 5, 50 + i % 3]));
    /// }
    /// engine.checkpoint().unwrap();
    /// engine.insert(SparseVector::binary_from_members(vec![7, 8])); // rides the WAL
    /// let before = engine.publish(); // explicit epoch — also WAL-logged
    /// let answer = engine.estimate(0.8);
    /// drop(engine); // "crash"
    ///
    /// let revived = EstimationEngine::recover(&dir).unwrap();
    /// assert_eq!(revived.current_epoch(), before, "manual epoch replayed");
    /// assert_eq!(revived.estimate(0.8), answer, "estimates are bit-identical");
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn recover(dir: &Path) -> Result<Self, PersistError> {
        Self::recover_with(dir, DurabilityOptions::default())
    }

    /// [`recover`](Self::recover) with explicit storage-layer options
    /// (checkpoint retention, fsync policy, segment size, storage tier
    /// — see [`DurabilityOptions`]).
    ///
    /// There is one recovery route and one checkpoint reader: the
    /// checkpoint is mapped and validated once, and the tier decides
    /// only what becomes of the validated mapping —
    /// [`StorageTier::Mapped`] serves it as the base (the base corpus is
    /// never decoded or rebuilt), [`StorageTier::Heap`] copies its
    /// payload section into one heap slab, gives the shards each row's
    /// gid and key, and drops it. Both then share one tail: open the
    /// [`WalSet`], replay the records past the checkpoint's cut, collect
    /// the retained generations' horizons, attach storage.
    ///
    /// # Errors
    /// Everything that is not exactly what this engine writes is
    /// refused, never worked around, and both tiers refuse exactly the
    /// same files: a checkpoint that fails to map or validate is
    /// returned as the error it is — a container in another version as
    /// [`IoError::BadVersion`](vsj_datasets::io::IoError) — and a
    /// directory holding a single-file `wal.vsjw` fails with a
    /// [`PersistError::Corrupt`] naming the file.
    pub fn recover_with(dir: &Path, options: DurabilityOptions) -> Result<Self, PersistError> {
        options.validate();
        let started = Instant::now();
        // A crash between the checkpoint temp write and its atomic
        // rename leaves `checkpoint.vsjc.tmp` behind; reclaim it before
        // anything else so it can never accumulate or confuse a later
        // directory scan.
        if persist::clean_stale_tmp(dir)? {
            eprintln!(
                "vsj-service: removed a stale checkpoint temp file in {}",
                dir.display()
            );
        }
        persist::refuse_single_file_wal(dir)?;
        let base = MappedCheckpoint::open(&dir.join(CHECKPOINT_FILE))?;
        let meta = *base.meta();
        let mut engine = match options.storage_tier {
            StorageTier::Heap => Self::hydrate(base),
            StorageTier::Mapped => Self::serve_mapped(Arc::new(base)),
        };
        let (wal, entries) = WalSet::open(
            dir,
            meta.config.shards,
            meta.applied_seq,
            persist::config_fingerprint(&meta.config),
            options.fsync,
            options.segment_bytes,
        )?;
        // Replay the tail through the normal apply path: inserts land
        // in the shards (on the mapped tier, the future overlay),
        // removals/upserts of mapped base rows land in the tombstone
        // set, publish barriers re-fire their epochs — the same
        // epoch/ingest boundaries, hence bit-identical estimates.
        for entry in &entries {
            if entry.seq > meta.applied_seq {
                engine.apply_replayed(&entry.record)?;
            }
        }
        let pending = wal.last_seq().saturating_sub(meta.applied_seq);
        // The retention horizon needs every kept generation's cut;
        // their METAs are peeked (not fully decoded) once per life.
        let mut horizons = vec![meta.applied_seq];
        for generation in persist::list_generations(dir) {
            horizons.push(
                persist::peek_checkpoint_meta(&persist::generation_path(dir, generation))?
                    .applied_seq,
            );
        }
        engine.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal: wal.with_metrics(engine.metrics.wal_metrics()),
            gate: RwLock::new(()),
            pending: AtomicU64::new(pending),
            horizons: Mutex::new(horizons),
            options,
        });
        let coldstart_us = match options.storage_tier {
            StorageTier::Heap => &engine.metrics.coldstart_heap_us,
            StorageTier::Mapped => &engine.metrics.coldstart_mapped_us,
        };
        coldstart_us.record_duration(started.elapsed());
        Ok(engine)
    }

    /// The "map + go" base of [`recover_with`](Self::recover_with):
    /// serve the validated mapping as the published cut with an empty
    /// overlay — shards start empty (they hold only post-checkpoint
    /// rows).
    fn serve_mapped(base: Arc<MappedCheckpoint>) -> Self {
        if !base.is_mapped() {
            // Non-Unix: the "mapping" is a buffered read. Everything
            // still works (and stays bit-identical); only the
            // out-of-core memory benefit is lost, which is worth a note.
            eprintln!("vsj-service: mmap unavailable; serving the checkpoint from a buffered copy");
        }
        let meta = *base.meta();
        let mut engine = Self::new(meta.config);
        engine.metrics.checkpoint_maps.inc();
        engine.metrics.mapped_bytes.set(base.file_len() as u64);
        engine.restore_cut(
            &meta,
            Snapshot::from_mapped(
                meta.epoch,
                meta.ingested,
                meta.config.k,
                base,
                Vec::new(),
                Arc::new(TombstoneSet::empty()),
                None,
            )
            .expect("an empty overlay over a fresh mapping is trivially consistent"),
        );
        engine
    }

    /// Resurrects a **read-only view of a prior checkpoint generation**
    /// (`generation` = 1 for the most recent previous checkpoint, 2 for
    /// the one before, …; see [`DurabilityOptions::retain_checkpoints`]).
    /// The returned engine is *non-durable*, lives on the heap tier and
    /// replays **no** WAL: the log on disk belongs to the newest
    /// generation, so an older checkpoint can only be restored exactly
    /// as it was cut. The file is opened and validated by the same
    /// reader as [`recover_with`](Self::recover_with), so it refuses
    /// exactly the files recovery refuses. Estimates at that
    /// checkpoint's epoch are bit-identical to the answers the original
    /// engine served then — the point-in-time debugging story.
    pub fn recover_generation(dir: &Path, generation: u64) -> Result<Self, PersistError> {
        MappedCheckpoint::open(&persist::generation_path(dir, generation)).map(Self::hydrate)
    }

    /// Copies a validated checkpoint onto the heap — the restoration
    /// protocol shared by [`recover_with`](Self::recover_with) (which
    /// then replays the WAL and attaches storage) and
    /// [`recover_generation`](Self::recover_generation) (which stops
    /// here): the published snapshot is the checkpoint's payload section
    /// copied once, with its offsets as the row directory and the norms
    /// the open-time validation computed (nothing is decoded or
    /// re-hashed); the shards get each row's gid and key, with no
    /// payload — the snapshot holds it — and the counters are restored
    /// to the cut. The mapping is dropped on return.
    fn hydrate(base: MappedCheckpoint) -> Self {
        let meta = base.meta();
        let mut engine = Self::new(meta.config);
        for i in 0..base.len() {
            let gid = base.gid(i);
            let shard = engine.shard_of(gid);
            let fresh = locks::unpoison(engine.shards[shard].get_mut()).restore(gid, base.key(i));
            assert!(fresh, "GIDS strictly ascend (checked at open)");
        }
        let snapshot = Snapshot::from_checkpoint(&base, engine.hasher.clone());
        engine.restore_cut(meta, snapshot);
        engine
    }

    /// Installs `snapshot` as the published cut of a checkpoint and
    /// restores the epoch/id/ingest/publish counters to that cut.
    fn restore_cut(&mut self, meta: &CheckpointMeta, snapshot: Snapshot) {
        *locks::unpoison(self.current.get_mut()) = Arc::new(snapshot);
        *locks::unpoison(self.publish_lock.get_mut()) = meta.epoch;
        *self.next_id.get_mut() = meta.next_id;
        self.metrics.ingests.store(meta.ingested);
        self.metrics.publishes.store(meta.publishes);
    }

    /// Re-applies one replayed WAL record. Runs single-threaded during
    /// recovery, reproducing the original serialized order exactly.
    /// The log carries every publish (explicit, auto, checkpoint) as a
    /// barrier record, so replay counts ingests but never re-derives an
    /// auto-publish from the counter.
    fn apply_replayed(&self, record: &WalRecord) -> Result<(), PersistError> {
        let ops = match record {
            WalRecord::Insert { id, vector } => {
                self.next_id.fetch_max(id + 1, Ordering::Relaxed);
                let key = self.hasher.key(vector);
                let fresh = locks::lock(&self.shards[self.shard_of(*id)]).insert(
                    *id,
                    key,
                    EncodedRow::new(vector),
                );
                if !fresh {
                    return Err(PersistError::Corrupt(format!(
                        "WAL replays insert of already-live id {id}"
                    )));
                }
                1
            }
            WalRecord::Remove { id } => {
                // Mirror the live path: a shard row is removed in
                // place; a live mapped base row is tombstoned.
                let removed = {
                    let mut shard = locks::lock(&self.shards[self.shard_of(*id)]);
                    shard.remove(*id) || self.tombstone_base_row(*id)
                };
                if !removed {
                    return Err(PersistError::Corrupt(format!(
                        "WAL replays remove of non-live id {id}"
                    )));
                }
                1
            }
            WalRecord::Upsert { id, vector } => {
                self.next_id.fetch_max(id + 1, Ordering::Relaxed);
                let key = self.hasher.key(vector);
                let mut shard = locks::lock(&self.shards[self.shard_of(*id)]);
                // Mirror the live path: replacing a live mapped base
                // row tombstones it; the fresh vector lands in the
                // shard (the overlay).
                let replaced = shard.remove(*id) || self.tombstone_base_row(*id);
                let inserted = shard.insert(*id, key, EncodedRow::new(vector));
                debug_assert!(inserted, "id was just vacated");
                if replaced {
                    2
                } else {
                    1
                }
            }
            WalRecord::Publish => {
                self.publish_inner();
                return Ok(());
            }
        };
        self.count_ingest(ops);
        Ok(())
    }

    /// Publishes the next epoch **and makes it durable**: under the
    /// exclusive apply gate (no ingest in flight), logs the cut as a
    /// publish barrier record, fsyncs every shard chain, takes the cut,
    /// writes the snapshot container (temp file + atomic rename), then
    /// drops whole WAL segments older than the retention horizon — an
    /// O(files) unlink pass that rewrites **no** surviving byte.
    /// Returns the checkpointed epoch.
    ///
    /// The barrier record is what keeps *older* checkpoint generations
    /// recoverable: replaying from generation `g` re-fires every later
    /// checkpoint's epoch at its exact position (the newest checkpoint
    /// itself skips it — its `applied_seq` covers the record). The
    /// horizon is therefore the minimum cut over every kept generation,
    /// so any of them can roll forward through the surviving chains.
    ///
    /// Crash windows are all safe: before the rename the previous
    /// checkpoint + full chains recover the same state (the barrier
    /// record replays the epoch); between rename and truncation the new
    /// checkpoint simply skips the already-covered records.
    ///
    /// # Errors
    /// [`PersistError::NotDurable`] on a non-durable engine; otherwise
    /// filesystem failures — which poison the WAL, so every subsequent
    /// durable ingest fails loudly instead of being acknowledged and
    /// lost.
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        self.cut(false)
    }

    /// A **minor compaction**: a [`checkpoint`](Self::checkpoint) that,
    /// on the mapped tier, additionally folds the heap overlay and the
    /// tombstone set into the freshly written v3 checkpoint, re-maps
    /// it, and swaps the serving view to the bare new base — overlay
    /// heap bytes return to ~0 and the tombstone set empties.
    ///
    /// The swap happens **at the epoch boundary the cut just
    /// published** and changes no answer: the checkpoint writer emits
    /// exactly the live rows in global-id order (the view's dense id
    /// space), so the folded view has the same buckets, the same
    /// `C(b,2)` weight sequence, and the same sampling streams —
    /// estimates at every `(seed, epoch, τ)` are bit-identical before,
    /// during, and after the fold. Readers holding older snapshots keep
    /// the old mapping alive (the inode survives the rename) until they
    /// drop.
    ///
    /// On a heap-tier engine this degenerates to a plain checkpoint.
    /// Usually driven by a [`Compactor`](crate::Compactor) thread via
    /// [`compaction_due`](Self::compaction_due); safe to call directly.
    ///
    /// # Errors
    /// As [`checkpoint`](Self::checkpoint): [`PersistError::NotDurable`]
    /// without storage, otherwise filesystem failures (which poison the
    /// WAL). A crash at any phase — tmp write, rename, WAL truncation,
    /// re-map — recovers to a consistent generation: the fold is
    /// *disk-first*, so the in-memory swap happens only after the
    /// checkpoint is durable.
    pub fn compact(&self) -> Result<u64, PersistError> {
        self.cut(true)
    }

    /// Whether the compaction trigger policy says a
    /// [`compact`](Self::compact) is worthwhile now: the engine is
    /// durable and mapped, no checkpoint/compaction is already in
    /// flight, and a [`DurabilityOptions`] threshold is crossed —
    /// `compact_overlay_bytes` against the published overlay's encoded
    /// size, or `compact_tombstone_ratio` against the tombstoned
    /// fraction of the base. `false` when both knobs are `None`.
    pub fn compaction_due(&self) -> bool {
        let Some(durability) = &self.durability else {
            return false;
        };
        if self.checkpoint_in_flight.load(Ordering::SeqCst) {
            return false;
        }
        let snapshot = self.snapshot();
        let Some(view) = snapshot.mapped_view() else {
            return false;
        };
        let options = &durability.options;
        let overlay = options
            .compact_overlay_bytes
            .is_some_and(|limit| view.tail_bytes() >= limit);
        let ratio = options.compact_tombstone_ratio.is_some_and(|limit| {
            let base_n = view.base().len();
            base_n > 0 && locks::lock(&self.tombstones).len() as f64 >= limit * base_n as f64
        });
        overlay || ratio
    }

    /// The shared cut machinery of [`checkpoint`](Self::checkpoint) and
    /// [`compact`](Self::compact): barrier, publish, container write,
    /// WAL truncation, then (when `fold` and the engine is mapped) the
    /// re-map swap. Returns the cut epoch.
    fn cut(&self, fold: bool) -> Result<u64, PersistError> {
        let durability = self.durability.as_ref().ok_or(PersistError::NotDurable)?;
        let started = Instant::now();
        self.checkpoint_in_flight.store(true, Ordering::SeqCst);
        let result = self.cut_inner(durability, fold);
        self.checkpoint_in_flight.store(false, Ordering::SeqCst);
        let (epoch, remapped) = result?;
        if remapped {
            self.metrics.compactions.inc();
            self.metrics
                .compaction_us
                .record_duration(started.elapsed());
        }
        Ok(epoch)
    }

    fn cut_inner(&self, durability: &Durability, fold: bool) -> Result<(u64, bool), PersistError> {
        let _quiesced = locks::write(&durability.gate);
        durability.wal.append(PUBLISH_SHARD, WalOp::Publish)?;
        durability.pending.fetch_add(1, Ordering::Relaxed);
        let epoch = self.publish_inner();
        let cut_seq = durability.wal.last_seq();
        let snapshot = self.snapshot();
        debug_assert_eq!(snapshot.epoch(), epoch, "cut raced a publish");
        let meta = CheckpointMeta {
            epoch,
            ingested: snapshot.ingested(),
            next_id: self.next_id.load(Ordering::SeqCst),
            applied_seq: cut_seq,
            publishes: self.metrics.publishes.get(),
            config: self.config,
        };
        let result = durability.wal.sync_all().and_then(|()| {
            persist::rotate_generations(&durability.dir, durability.options.retain_checkpoints)?;
            persist::write_checkpoint(&durability.dir, &meta, &snapshot, &self.pool)?;
            // The generation set just rotated: the new cut is [0], the
            // old horizons shift back, pruned ones fall off the window.
            let horizon = {
                let mut horizons = locks::lock(&durability.horizons);
                horizons.insert(0, cut_seq);
                horizons.truncate(durability.options.retain_checkpoints);
                *horizons.last().expect("at least the fresh cut")
            };
            // Seal the record-bearing active segments at the cut:
            // everything they hold is now covered by the checkpoint,
            // so truncation can drop the whole files (here, or as soon
            // as older retained generations age out) instead of every
            // future recovery re-decoding records the checkpoint
            // already owns.
            durability.wal.seal_active()?;
            durability.wal.truncate(horizon)?;
            // The fold: the container just written holds the merged
            // live rows, so the overlay and tombstones it absorbed can
            // be dropped by re-mapping it as the new bare base. Disk
            // state is already final — a crash from here on recovers
            // straight onto the compacted generation.
            if fold && snapshot.is_mapped() {
                self.remap(durability, &meta)?;
                Ok(true)
            } else {
                Ok(false)
            }
        });
        match result {
            Err(e) => {
                // A deployment that cannot persist must not keep
                // acknowledging writes it may lose: latch the failure so
                // every subsequent durable ingest fails loudly.
                durability.wal.poison();
                Err(e)
            }
            Ok(remapped) => {
                durability.wal.mark_cut();
                durability.pending.store(0, Ordering::Relaxed);
                Ok((epoch, remapped))
            }
        }
    }

    /// The in-memory half of a compaction: map the just-written
    /// checkpoint, verify nothing changed observationally, and swap it
    /// in as the bare base — shards and tombstones reset (their
    /// contents now live in the mapping). Runs under the exclusive
    /// apply gate, so no write is in flight; readers keep sampling old
    /// snapshots and see the new view only at the swap, which by
    /// construction answers identically at this epoch.
    fn remap(&self, durability: &Durability, meta: &CheckpointMeta) -> Result<(), PersistError> {
        let base = Arc::new(MappedCheckpoint::open(
            &durability.dir.join(CHECKPOINT_FILE),
        )?);
        let fresh = Snapshot::from_mapped(
            meta.epoch,
            meta.ingested,
            meta.config.k,
            base.clone(),
            Vec::new(),
            Arc::new(TombstoneSet::empty()),
            None,
        )
        .expect("an empty overlay over a fresh mapping is trivially consistent");
        let last_epoch = locks::lock(&self.publish_lock);
        debug_assert_eq!(*last_epoch, meta.epoch, "remap raced a publish");
        let mut guards: Vec<_> = self.shards.iter().map(locks::lock).collect();
        debug_assert_eq!(
            locks::read(&self.current).global_ids(),
            fresh.global_ids(),
            "the folded base must present exactly the live id set"
        );
        for g in guards.iter_mut() {
            **g = ShardState::new();
        }
        locks::lock(&self.tombstones).clear();
        *locks::write(&self.current) = Arc::new(fresh);
        drop(guards);
        drop(last_epoch);
        self.metrics.checkpoint_maps.inc();
        self.metrics.mapped_bytes.set(base.file_len() as u64);
        Ok(())
    }

    /// Whether the engine has storage attached.
    #[inline]
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The storage directory of a durable engine.
    pub fn storage_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// WAL records not yet covered by a checkpoint (0 when
    /// non-durable). Lock-free: safe to poll while a checkpoint is in
    /// flight.
    pub fn wal_pending(&self) -> u64 {
        self.durability
            .as_ref()
            .map_or(0, |d| d.pending.load(Ordering::Relaxed))
    }

    /// The deepest per-shard WAL backlog (records past the checkpoint
    /// cut on any one shard's segment chain); 0 when non-durable.
    /// Lock-free — the serving layer polls this per ingest to key
    /// `429 Retry-After` backpressure off durable-write depth.
    pub fn max_wal_shard_pending(&self) -> u64 {
        self.durability
            .as_ref()
            .map_or(0, |d| d.wal.max_shard_pending())
    }

    /// The engine's configuration.
    #[inline]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn shard_of(&self, global: GlobalId) -> usize {
        (SplitMix64::mix(global) % self.shards.len() as u64) as usize
    }

    // --- writes ----------------------------------------------------------

    /// Ingests a vector, returning its engine-assigned global id. Not
    /// visible to reads until the next [`publish`](Self::publish). On a
    /// durable engine the vector is WAL-logged before it is applied.
    ///
    /// # Panics
    /// A durable engine panics when the WAL append fails — accepting a
    /// write that would vanish on restart is worse than refusing it.
    pub fn insert(&self, v: SparseVector) -> GlobalId {
        let key = self.hasher.key(&v);
        self.insert_row(&v, EncodedRow::new(&v), key)
    }

    /// Shared insert body. `key` is `v`'s bucket key and `row` its
    /// encoding, both made before any shard lock is taken; the shard
    /// keeps only `row` (`v` is what the WAL logs).
    fn insert_row(&self, v: &SparseVector, row: EncodedRow, key: u64) -> GlobalId {
        let mut row = Some(row);
        if let Some(durability) = &self.durability {
            let shared = locks::read(&durability.gate);
            let (id, ticket) = loop {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let mut shard = locks::lock(&self.shards[self.shard_of(id)]);
                // A concurrent upsert may have claimed this id between
                // our allocation and the shard lock (its fetch_max
                // reservation is not atomic with our fetch_add); ids
                // only grow, so retrying with a fresh id terminates.
                // The check and the log share one shard guard — the
                // same guard the upsert's own log+apply holds — so a
                // logged insert is always fresh.
                if shard.contains(id) {
                    continue;
                }
                let ticket = durability
                    .wal
                    .append(self.shard_of(id), WalOp::Insert(id, v))
                    .expect("WAL append failed; refusing to apply an unlogged insert");
                durability.pending.fetch_add(1, Ordering::Relaxed);
                let apply_started = Instant::now();
                let fresh = shard.insert(id, key, row.take().expect("inserted once"));
                self.metrics
                    .ingest_apply_us
                    .record_duration(apply_started.elapsed());
                debug_assert!(fresh, "freshness checked under this shard guard");
                break (id, ticket);
            };
            let crossed = self.count_ingest(1);
            drop(shared);
            durability
                .wal
                .commit(&ticket)
                .expect("WAL flush failed; refusing to acknowledge an unflushed insert");
            if crossed {
                self.durable_publish(durability);
            }
            return id;
        }
        loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            // See the durable arm for why a collision is possible here.
            let mut shard = locks::lock(&self.shards[self.shard_of(id)]);
            if shard.contains(id) {
                continue;
            }
            let apply_started = Instant::now();
            let inserted = shard.insert(id, key, row.take().expect("inserted once"));
            self.metrics
                .ingest_apply_us
                .record_duration(apply_started.elapsed());
            drop(shard);
            debug_assert!(inserted, "freshness checked under this shard guard");
            self.after_ingest(1);
            return id;
        }
    }

    /// Ingests a batch, returning the assigned ids (one auto-publish
    /// check per vector, same as sequential inserts).
    ///
    /// The bucket keys of the whole batch are hashed on the engine's
    /// [work pool](crate::ParallelOptions) (serially on a one-thread
    /// pool) *before* any shard lock is taken, and each insert applies
    /// its key. Hashing consumes no RNG and is a pure function of the
    /// vector, so ids, shard contents, and every later estimate are
    /// bit-identical to inserting the vectors one by one.
    pub fn insert_batch<I>(&self, vectors: I) -> Vec<GlobalId>
    where
        I: IntoIterator<Item = SparseVector>,
    {
        let vectors: Vec<SparseVector> = vectors.into_iter().collect();
        let hasher = &self.hasher;
        let keys = self
            .pool
            .parallel_map_indexed(&vectors, |_, v| hasher.key(v));
        // Every row is encoded before any vector is dropped, so the
        // encoded rows lie together and leave together at the cut.
        let rows: Vec<EncodedRow> = vectors.iter().map(EncodedRow::new).collect();
        vectors
            .iter()
            .zip(rows)
            .zip(keys)
            .map(|((v, row), key)| self.insert_row(v, row, key))
            .collect()
    }

    /// Removes a vector by global id; `false` when absent (or already
    /// removed). Takes effect for reads at the next publish. Only
    /// *applied* removes are WAL-logged, so replay never sees a
    /// spurious record.
    ///
    /// Works on **both storage tiers**: a shard (heap or overlay) row
    /// is removed in place; a live mapped base row is *tombstoned* —
    /// excluded from every later cut — and physically dropped by the
    /// next [`compact`](Self::compact).
    ///
    /// # Panics
    /// A durable engine panics when the WAL append fails — accepting a
    /// removal that would silently reappear on restart is worse than
    /// refusing it.
    pub fn remove(&self, global: GlobalId) -> bool {
        if let Some(durability) = &self.durability {
            let shared = locks::read(&durability.gate);
            // One shard guard across peek, log, and apply: only applied
            // removes reach the WAL, with no window for liveness to
            // change in between. The guard also covers the tombstone
            // decision — upserts of this gid mutate the tombstone set
            // under the same shard lock, so shard row and base row are
            // judged against one consistent state.
            let mut shard = locks::lock(&self.shards[self.shard_of(global)]);
            let ticket = if shard.contains(global) {
                let ticket = durability
                    .wal
                    .append(self.shard_of(global), WalOp::Remove(global))
                    .expect("WAL append failed; refusing to apply an unlogged remove");
                durability.pending.fetch_add(1, Ordering::Relaxed);
                let apply_started = Instant::now();
                let removed = shard.remove(global);
                self.metrics
                    .ingest_apply_us
                    .record_duration(apply_started.elapsed());
                debug_assert!(removed, "contains() held under the shard lock");
                ticket
            } else {
                let Some(row) = self.live_base_row(global) else {
                    return false;
                };
                let ticket = durability
                    .wal
                    .append(self.shard_of(global), WalOp::Remove(global))
                    .expect("WAL append failed; refusing to apply an unlogged remove");
                durability.pending.fetch_add(1, Ordering::Relaxed);
                let apply_started = Instant::now();
                let mut tombstones = locks::lock(&self.tombstones);
                let at = tombstones
                    .binary_search(&row)
                    .expect_err("live_base_row() held under the shard lock");
                tombstones.insert(at, row);
                drop(tombstones);
                self.metrics
                    .ingest_apply_us
                    .record_duration(apply_started.elapsed());
                ticket
            };
            drop(shard);
            let crossed = self.count_ingest(1);
            drop(shared);
            durability
                .wal
                .commit(&ticket)
                .expect("WAL flush failed; refusing to acknowledge an unflushed remove");
            if crossed {
                self.durable_publish(durability);
            }
            return true;
        }
        let apply_started = Instant::now();
        let removed = {
            let mut shard = locks::lock(&self.shards[self.shard_of(global)]);
            shard.remove(global) || self.tombstone_base_row(global)
        };
        self.metrics
            .ingest_apply_us
            .record_duration(apply_started.elapsed());
        if removed {
            self.after_ingest(1);
        }
        removed
    }

    /// The base row currently holding `global` as **live** data: in the
    /// mapped view and not yet tombstoned. Callers hold the gid's shard
    /// lock, which serializes this against the tombstone mutations of
    /// concurrent removes/upserts of the same gid.
    fn live_base_row(&self, global: GlobalId) -> Option<u32> {
        let snapshot = self.snapshot();
        let row = snapshot.mapped_view()?.base().find_gid(global)? as u32;
        locks::lock(&self.tombstones)
            .binary_search(&row)
            .is_err()
            .then_some(row)
    }

    /// Tombstones the live base row holding `global`, if any; `true`
    /// when a row was tombstoned. Must run under the gid's shard lock
    /// (the shard → tombstones lock order every mutation path uses).
    fn tombstone_base_row(&self, global: GlobalId) -> bool {
        let snapshot = self.snapshot();
        let Some(row) = snapshot
            .mapped_view()
            .and_then(|m| m.base().find_gid(global))
        else {
            return false;
        };
        let row = row as u32;
        let mut tombstones = locks::lock(&self.tombstones);
        match tombstones.binary_search(&row) {
            Ok(_) => false,
            Err(at) => {
                tombstones.insert(at, row);
                true
            }
        }
    }

    /// Inserts or replaces the vector under a caller-chosen global id.
    /// Returns `true` when an existing vector was replaced. The id is
    /// reserved against future [`insert`](Self::insert) allocations.
    ///
    /// Works on **both storage tiers**: replacing a live mapped base
    /// row tombstones it and the fresh vector joins the heap overlay
    /// under the same gid, folded back into one base row by the next
    /// [`compact`](Self::compact).
    ///
    /// # Panics
    /// A durable engine panics when the WAL append fails, exactly like
    /// [`insert`](Self::insert).
    pub fn upsert(&self, global: GlobalId, v: SparseVector) -> bool {
        let key = self.hasher.key(&v);
        if let Some(durability) = &self.durability {
            let shared = locks::read(&durability.gate);
            self.next_id.fetch_max(global + 1, Ordering::Relaxed);
            let (replaced, ticket) = {
                let mut shard = locks::lock(&self.shards[self.shard_of(global)]);
                let ticket = durability
                    .wal
                    .append(self.shard_of(global), WalOp::Upsert(global, &v))
                    .expect("WAL append failed; refusing to apply an unlogged upsert");
                durability.pending.fetch_add(1, Ordering::Relaxed);
                let apply_started = Instant::now();
                // A live mapped base row under this gid is replaced by
                // tombstoning it (checked only when no shard row was —
                // an earlier upsert of the same gid already tombstoned
                // the base row when it created the shard row).
                let replaced = shard.remove(global) || self.tombstone_base_row(global);
                let inserted = shard.insert(global, key, EncodedRow::new(&v));
                self.metrics
                    .ingest_apply_us
                    .record_duration(apply_started.elapsed());
                debug_assert!(inserted, "id was just vacated");
                (replaced, ticket)
            };
            let crossed = self.count_ingest(if replaced { 2 } else { 1 });
            drop(shared);
            durability
                .wal
                .commit(&ticket)
                .expect("WAL flush failed; refusing to acknowledge an unflushed upsert");
            if crossed {
                self.durable_publish(durability);
            }
            return replaced;
        }
        self.next_id.fetch_max(global + 1, Ordering::Relaxed);
        let replaced = {
            let mut shard = locks::lock(&self.shards[self.shard_of(global)]);
            let apply_started = Instant::now();
            let replaced = shard.remove(global) || self.tombstone_base_row(global);
            let inserted = shard.insert(global, key, EncodedRow::new(&v));
            self.metrics
                .ingest_apply_us
                .record_duration(apply_started.elapsed());
            debug_assert!(inserted, "id was just vacated");
            replaced
        };
        self.after_ingest(if replaced { 2 } else { 1 });
        replaced
    }

    /// Whether a global id is currently live in the mutable index (the
    /// current snapshot may not reflect it yet). On the mapped tier a
    /// checkpoint base row counts as live unless it has been tombstoned
    /// by a [`remove`](Self::remove)/[`upsert`](Self::upsert).
    pub fn contains(&self, global: GlobalId) -> bool {
        let shard = locks::lock(&self.shards[self.shard_of(global)]);
        shard.contains(global) || self.live_base_row(global).is_some()
    }

    /// Counts `ops` ingest operations; returns whether the counter
    /// crossed an auto-publish boundary. The *caller* owns firing the
    /// publish: inline for non-durable engines
    /// ([`after_ingest`](Self::after_ingest)), as a logged sequence
    /// barrier for durable ones ([`durable_publish`](Self::durable_publish)).
    fn count_ingest(&self, ops: u64) -> bool {
        let count = self.metrics.ingests.add_fetch(ops);
        match self.config.auto_publish_every {
            // Crossing test (not `% == 0`) so multi-op ingests keep the
            // cadence even.
            Some(batch) => count / batch > (count - ops) / batch,
            None => false,
        }
    }

    fn after_ingest(&self, ops: u64) {
        if self.count_ingest(ops) {
            self.publish_inner();
        }
    }

    /// Logs a publish barrier record and fires the publish under the
    /// exclusive apply gate — the durable arm of every explicit and
    /// auto publish. Exclusivity is what makes the record a barrier:
    /// every ingest with a smaller sequence has fully applied, none
    /// with a larger one has started, so merge-replay firing the
    /// publish at this sequence reproduces the cut exactly.
    fn durable_publish(&self, durability: &Durability) -> u64 {
        let excl = locks::write(&durability.gate);
        let ticket = durability
            .wal
            .append(PUBLISH_SHARD, WalOp::Publish)
            .expect("WAL append failed; refusing to apply an unlogged publish");
        durability.pending.fetch_add(1, Ordering::Relaxed);
        let epoch = self.publish_inner();
        drop(excl);
        // Barrier acknowledgement flushes every chain (not just the
        // barrier's own): the ack promises the cut epoch is
        // reproducible, which needs every smaller-sequence record on
        // every shard durable.
        durability
            .wal
            .commit_barrier(&ticket)
            .expect("WAL flush failed; refusing to acknowledge an unflushed publish");
        epoch
    }

    // --- publication -----------------------------------------------------

    /// Takes a consistent cut across all shards and publishes it as the
    /// next epoch snapshot. Returns the new epoch. Concurrent publishers
    /// are serialized; readers are never blocked (they keep the old
    /// snapshot until the swap).
    ///
    /// **Cost is proportional to what changed, not to corpus size.**
    /// Each shard logs its mutations since the last cut; when every
    /// shard's delta is append-only (pure inserts with fresh, past-cut
    /// global ids — the common ingest pattern), the new epoch is
    /// assembled from the previous snapshot plus the delta
    /// (`Snapshot::assemble_delta`): payload slabs and untouched
    /// buckets are `Arc`-shared and only the appended rows' blocks are copied,
    /// so an epoch after `k` ingests into an `n`-vector corpus costs
    /// O(k) real work. Epochs whose delta holds removals, replacing
    /// upserts, or out-of-order ids fall back to a full merge — O(n log
    /// n) over the live rows' ids and keys, rebuilding only the row
    /// directory: rows published earlier keep their payload blocks,
    /// only the cut's new rows are copied in, and nothing is re-hashed.
    /// The shards hand their pending payloads to the cut and keep none.
    /// Either way the published snapshot is bit-identical to a full
    /// offline rebuild; only the assembly cost differs (see
    /// [`EngineStats::delta_publishes`]).
    ///
    /// # Example
    ///
    /// ```
    /// use vsj_service::{EstimationEngine, ServiceConfig};
    /// use vsj_vector::SparseVector;
    ///
    /// let engine = EstimationEngine::new(
    ///     ServiceConfig::builder().shards(2).k(8).seed(3).build(),
    /// );
    /// engine.insert(SparseVector::binary_from_members(vec![1, 2]));
    /// assert_eq!(engine.current_epoch(), 0, "not visible before publish");
    ///
    /// let epoch = engine.publish();
    /// assert_eq!(epoch, 1);
    /// assert_eq!(engine.snapshot().len(), 1, "the cut is now readable");
    /// // Appends-only epochs take the incremental O(changed) path.
    /// assert_eq!(engine.stats().delta_publishes, 1);
    /// ```
    ///
    /// On a **durable** engine an explicit publish is WAL-logged (its
    /// own record type) before it is applied, so recovery re-fires it
    /// at the same position in the ingest order — the epoch counter
    /// survives restarts even for manual epochs.
    ///
    /// # Panics
    /// A durable engine panics when the WAL append fails, exactly like
    /// the ingest paths: acknowledging an epoch that would vanish on
    /// restart is worse than refusing it.
    pub fn publish(&self) -> u64 {
        if let Some(durability) = &self.durability {
            return self.durable_publish(durability);
        }
        self.publish_inner()
    }

    /// The publish machinery, *without* WAL logging — the shared tail
    /// of explicit publishes (logged by [`publish`](Self::publish)),
    /// auto-publishes (reproduced by ingest replay), checkpoint cuts
    /// (recorded in checkpoint metadata), and WAL replay itself.
    fn publish_inner(&self) -> u64 {
        let publish_started = Instant::now();
        let mut last_epoch = locks::lock(&self.publish_lock);
        // Only publish() (serialized by the lock we hold) and recovery
        // (exclusive access) replace `current`, so this read is the
        // previous cut — the base the delta path extends.
        let prev = locks::read(&self.current).clone();
        // Lock every shard (in index order) for the cut: ingest counter
        // and delta/live rows are read under the same freeze, so the
        // snapshot is transactionally consistent. The publish path is
        // decided *under the cut* — a delta found invalid here must be
        // re-collected before any writer can slip in a mutation that
        // would otherwise straddle two epochs.
        let mut guards: Vec<_> = self.shards.iter().map(locks::lock).collect();
        let ingested = self.metrics.ingests.get();
        let mut full = guards.iter().any(|g| g.appended().is_none());
        // A mapped cut freezes the tombstone state under the same
        // guards as the shard deltas (every tombstone mutation holds a
        // shard lock, all of which we hold). The shard delta logs don't
        // see tombstones, so any change since the published set forces
        // the full path.
        let tombstone_cut = prev
            .is_mapped()
            .then(|| locks::lock(&self.tombstones).clone());
        if !full {
            if let Some(cut) = &tombstone_cut {
                let published = prev.mapped_view().expect("is_mapped() held").tombstones();
                full = cut.len() != published.len();
            }
        }
        if !full {
            let mut appended: Vec<GlobalId> = guards
                .iter()
                .flat_map(|g| g.appended().expect("no shard needs a re-collect"))
                .collect();
            appended.sort_unstable();
            full = !Snapshot::is_append_only(&prev, appended);
        }
        // The cut takes every pending payload out of the shards: from
        // here on the snapshot's slabs are the rows' only copy.
        let epoch = *last_epoch + 1;
        let snapshot = if full {
            let mut rows = Vec::new();
            for g in &mut guards {
                g.take_live(&mut rows);
            }
            drop(guards);
            if let Some(mapped) = prev.mapped_view() {
                // Mapped tier: the shards hold *only* post-cut rows (the
                // base lives in the mapping), so the live collection is
                // the complete overlay; the frozen tombstone set
                // subtracts the base rows removed or replaced since the
                // mapping's cut. Every overlay gid landing on a base row
                // tombstoned that row when it was written, so the
                // combination is always representable.
                let tombstones = Arc::new(TombstoneSet::from_rows(
                    tombstone_cut.expect("mapped prev froze its tombstones"),
                ));
                Arc::new(
                    Snapshot::from_mapped(
                        epoch,
                        ingested,
                        IndexView::k(prev.as_ref()),
                        mapped.base().clone(),
                        rows,
                        tombstones,
                        Some(mapped),
                    )
                    .expect("overlay rows never collide with live base rows"),
                )
            } else {
                Arc::new(Snapshot::assemble(
                    &prev,
                    epoch,
                    ingested,
                    self.hasher.clone(),
                    rows,
                ))
            }
        } else {
            let mut delta = Vec::new();
            for g in &mut guards {
                g.take_appends(&mut delta);
            }
            drop(guards);
            Arc::new(
                Snapshot::assemble_delta(&prev, epoch, ingested, delta)
                    .expect("append-only delta was validated under the cut"),
            )
        };
        *locks::write(&self.current) = snapshot;
        *last_epoch = epoch;
        // Counter order matters for torn-read-free stats: the total is
        // bumped before its per-kind breakdown, and stats() reads the
        // breakdown first, so `delta + full ≤ publishes` always holds
        // (publishes are serialized by the lock we still hold anyway).
        self.metrics.publishes.inc();
        if full {
            self.metrics.full_publishes.inc();
            self.metrics
                .publish_full_us
                .record_duration(publish_started.elapsed());
        } else {
            self.metrics.delta_publishes.inc();
            self.metrics
                .publish_delta_us
                .record_duration(publish_started.elapsed());
        }
        epoch
    }

    /// The current published snapshot (cheap: one `Arc` clone under a
    /// briefly held read lock; sampling happens entirely lock-free
    /// against the immutable snapshot).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        locks::read(&self.current).clone()
    }

    /// Epoch of the current snapshot.
    pub fn current_epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Ingest operations applied since the current snapshot's cut — how
    /// stale the read view is. This is the signal a serving front-end
    /// applies backpressure on: when the lag crosses a threshold,
    /// shedding ingests (until a publish catches the view up) bounds
    /// both snapshot staleness and the cost of the next publish.
    /// Lock-free and O(1).
    pub fn publish_lag(&self) -> u64 {
        // Two reads that can race a concurrent publish; the value is a
        // momentary lag estimate either way, which is all a
        // load-shedding threshold needs.
        self.metrics
            .ingests
            .get()
            .saturating_sub(self.snapshot().ingested())
    }

    // --- reads -----------------------------------------------------------

    /// The LSH-SS parameters used at live size `n` (the configured fixed
    /// parameters, or the paper defaults derived from `n`).
    pub fn estimator_config(&self, n: usize) -> LshSsConfig {
        self.config
            .estimator
            .unwrap_or_else(|| LshSsConfig::paper_defaults(n))
    }

    /// The deterministic RNG every estimate at `epoch` uses —
    /// deliberately keyed by the epoch **alone**, not by τ or the τ
    /// grid. [`estimate_curve`](LshSs::estimate_curve) consumes the RNG
    /// independently of the grid (one shared pair sample, per-τ replay),
    /// so with a grid-independent stream every τ's answer at a given
    /// epoch is one fixed value no matter which other thresholds ride in
    /// the same call. That is what lets a serving layer coalesce
    /// whatever estimate requests happen to be concurrent into one
    /// sampling pass without changing any individual answer. Exposed so
    /// offline runs can replicate service answers exactly:
    /// `LshSs::estimate_curve_detailed(snapshot, snapshot, measure,
    /// &[τ], &mut engine.batch_rng(epoch))[0]` equals
    /// [`estimate`](Self::estimate) at that epoch.
    pub fn batch_rng(&self, epoch: u64) -> Xoshiro256 {
        self.streams.subfamily(epoch).stream(0x6A09_E667_F3BC_C909)
    }

    /// Cache fingerprint of the estimator *policy*. With a fixed config
    /// the exact parameters are hashed; with per-snapshot paper defaults
    /// a constant is used — the defaults drift together with `n`, and
    /// serving an answer computed under a ≤ ε-stale `n` is precisely the
    /// staleness the drift tolerance already accepts.
    fn fingerprint(&self) -> u64 {
        match self.config.estimator {
            None => 0x7A9E_7A9E_7A9E_7A9E,
            Some(config) => {
                let damp = match config.dampening {
                    vsj_core::Dampening::SafeLowerBound => 0u64,
                    vsj_core::Dampening::Constant(c) => 1 ^ c.to_bits().rotate_left(8),
                    vsj_core::Dampening::NlOverDelta => 2,
                };
                let mut acc = SplitMix64::mix(config.m_h);
                acc = SplitMix64::mix(acc ^ config.m_l);
                acc = SplitMix64::mix(acc ^ config.delta);
                SplitMix64::mix(acc ^ damp)
            }
        }
    }

    /// Estimates the join size at threshold `τ` against the current
    /// snapshot, serving from the estimate cache when a previous answer
    /// is within the configured drift tolerance ε. A single estimate
    /// *is* a batch of one: this is
    /// [`estimate_batch(&[τ])`](Self::estimate_batch), same answer,
    /// same cache entry.
    pub fn estimate(&self, tau: f64) -> ServiceEstimate {
        self.estimate_batch(&[tau])[0]
    }

    /// Estimates a whole threshold grid from **one** sampling pass
    /// ([`LshSs::estimate_curve`]) unless every τ is already cached
    /// within tolerance. This is the engine's **one estimate path** —
    /// [`estimate`](Self::estimate), the wire's coalescing batcher and
    /// the auditor all come through here — and results are cached per
    /// `(τ, config)`. The pass samples through
    /// [`batch_rng`](Self::batch_rng), keyed by the epoch alone, so each
    /// τ's answer at a given epoch is **independent of the grid it rides
    /// in**: `estimate_batch(&[τ])` equals the τ entry of any larger
    /// same-epoch batch, which is what makes request coalescing in a
    /// serving layer invisible to callers.
    pub fn estimate_batch(&self, taus: &[f64]) -> Vec<ServiceEstimate> {
        if taus.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        let snapshot = self.snapshot();
        let est_config = self.estimator_config(snapshot.len());
        let config_fp = self.fingerprint();
        let now = snapshot.ingested();
        // Fast path: only when *every* threshold can be served from
        // cache (lookup is a pure read — hits are recorded only if
        // actually served, misses only for the batch that bypasses the
        // cache).
        {
            let cache = locks::lock(&self.cache);
            let hits: Option<Vec<ServiceEstimate>> = taus
                .iter()
                .map(|&tau| {
                    cache
                        .lookup(
                            CacheKey {
                                tau_bits: tau.to_bits(),
                                config: config_fp,
                            },
                            now,
                            self.config.cache_epsilon,
                        )
                        .map(|hit| ServiceEstimate {
                            estimate: hit.estimate,
                            std_err: hit.std_err,
                            epoch: hit.epoch,
                            n: hit.n,
                            tau,
                            cached: true,
                        })
                })
                .collect();
            drop(cache);
            match hits {
                Some(all) => {
                    self.metrics.cache_hits.add(taus.len() as u64);
                    self.metrics.cache_hit_us.record_duration(started.elapsed());
                    for &tau in taus {
                        self.audit.note_served(tau);
                    }
                    return all;
                }
                None => self.metrics.cache_misses.add(taus.len() as u64),
            }
        }
        // Shared pass over the grid.
        let sampling_started = Instant::now();
        let est = LshSs { config: est_config };
        let mut rng = self.batch_rng(snapshot.epoch());
        // Pooled: pair draws stay serial on `rng`, similarity scoring
        // and the per-τ replays fan out over the engine pool — bit-
        // identical to the serial curve at any thread count (pinned by
        // `pooled_curve_is_bit_identical_to_serial` in vsj-core and the
        // parallel determinism battery).
        let curve = match self.config.family {
            IndexFamily::SimHash => est.estimate_curve_detailed_pooled(
                snapshot.as_ref(),
                snapshot.as_ref(),
                &Cosine,
                taus,
                &mut rng,
                &self.pool,
            ),
            IndexFamily::MinHash => est.estimate_curve_detailed_pooled(
                snapshot.as_ref(),
                snapshot.as_ref(),
                &Jaccard,
                taus,
                &mut rng,
                &self.pool,
            ),
        };
        let sampled = if IndexView::nh(snapshot.as_ref()) > 0 {
            est_config.m_h
        } else {
            0
        } + if IndexView::nl(snapshot.as_ref()) > 0 {
            est_config.m_l
        } else {
            0
        };
        self.metrics
            .sampling_us
            .record_duration(sampling_started.elapsed());
        self.metrics.pairs_per_pass.record(sampled);
        self.metrics.sampled_pairs.add(sampled);
        self.metrics.sampling_passes.inc();
        let mut cache = locks::lock(&self.cache);
        let answers: Vec<ServiceEstimate> = taus
            .iter()
            .zip(curve)
            .map(|(&tau, point)| {
                let estimate = point.estimate;
                let std_err = point.std_err();
                cache.store(
                    CacheKey {
                        tau_bits: tau.to_bits(),
                        config: config_fp,
                    },
                    CacheEntry {
                        estimate,
                        std_err,
                        epoch: snapshot.epoch(),
                        ingested: now,
                        n: snapshot.len(),
                    },
                );
                ServiceEstimate {
                    estimate,
                    std_err,
                    epoch: snapshot.epoch(),
                    n: snapshot.len(),
                    tau,
                    cached: false,
                }
            })
            .collect();
        drop(cache);
        for &tau in taus {
            self.audit.note_served(tau);
        }
        answers
    }

    /// Drops every cached estimate (forces recomputation).
    pub fn clear_cache(&self) {
        locks::lock(&self.cache).clear();
    }

    // --- observability ---------------------------------------------------

    /// The engine's metric [`Registry`] — every engine and WAL series
    /// (counters, gauges, histograms), renderable as Prometheus text via
    /// [`Registry::render`]. A serving layer merges this into its own
    /// exposition under `GET /metrics`.
    pub fn metrics(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Runs one estimator-quality audit cycle: picks the next threshold
    /// from the recently-served ring (deterministic rotation), re-asks
    /// the engine for it through [`estimate`](Self::estimate) — the
    /// one path every caller and the wire share, so this is the answer
    /// a client would get right now, cached or freshly sampled, with
    /// its interval — computes exact
    /// ground truth on a bounded stratum via [`vsj_exact::ExactJoin`],
    /// and folds the verdict into the `vsj_audit_*` series and the
    /// worst-calibrated ring.
    ///
    /// Returns `None` (counting `vsj_audit_skipped_total`) when nothing
    /// has been served yet or the snapshot holds fewer than two
    /// vectors. Corpora larger than [`AuditOptions::max_exact_n`] are
    /// audited on a deterministic uniform subset, with truth scaled by
    /// `C(n,2)/C(b,2)` — unbiased over the subset draw, at bounded
    /// cost. The served answer may be up to cache-ε stale relative to
    /// the snapshot the truth is computed on; that is exactly the
    /// staleness the drift tolerance already accepts, and miscalibration
    /// it causes is precisely what the audit series exist to surface.
    ///
    /// Usually driven by a background [`crate::Auditor`]; callable
    /// directly for synchronous audits in tests and tools.
    pub fn audit_once(&self, options: &AuditOptions) -> Option<AuditRecord> {
        options.validate();
        let Some(tau) = self.audit.next_tau() else {
            self.audit.skipped.inc();
            return None;
        };
        let snapshot = self.snapshot();
        let n = snapshot.len();
        if n < 2 {
            self.audit.skipped.inc();
            return None;
        }
        let serve_started = Instant::now();
        let served = self.estimate(tau);
        let serve_us = u64::try_from(serve_started.elapsed().as_micros()).unwrap_or(u64::MAX);

        // The audited stratum: the whole corpus when it fits the exact
        // budget (truth is exact), otherwise a deterministic uniform
        // subset with pair-count rescaling. Vectors are copied with
        // `Snapshot::to_vector`: a mapped base row is decoded from its
        // payload, and no decoded row outlives the audit.
        let bound = options.max_exact_n;
        let (vectors, scale): (Vec<SparseVector>, f64) = if n <= bound {
            let all = (0..n).map(|i| snapshot.to_vector(i as u32)).collect();
            (all, 1.0)
        } else {
            let cycle = self.audit.cycles.get();
            let mut rng = self
                .streams
                .subfamily(snapshot.epoch())
                .stream(0xA0D1_7EA5 ^ cycle);
            let picked = sample_distinct_indices(n, bound, &mut rng);
            let subset = picked
                .iter()
                .map(|&i| snapshot.to_vector(i as u32))
                .collect();
            let scale = pairs_of(n as u64) as f64 / pairs_of(bound as u64) as f64;
            (subset, scale)
        };
        let audited_n = vectors.len();
        let coll = VectorCollection::from_vectors(vectors);
        let exact_started = Instant::now();
        let raw = match self.config.family {
            IndexFamily::SimHash => ExactJoin::new(&coll, Cosine)
                .with_threads(options.exact_threads)
                .count(tau),
            IndexFamily::MinHash => ExactJoin::new(&coll, Jaccard)
                .with_threads(options.exact_threads)
                .count(tau),
        };
        let exact_us = u64::try_from(exact_started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.audit.exact_us.record(exact_us);

        let truth = raw as f64 * scale;
        let record = AuditRecord {
            tau,
            epoch: served.epoch,
            n,
            audited_n,
            estimate: served.estimate.value,
            std_err: served.std_err,
            ci_low: served.ci_low(),
            ci_high: served.ci_high(),
            truth,
            signed_error: signed_relative_error(served.estimate.value, truth),
            within_ci: served.ci_low() <= truth && truth <= served.ci_high(),
            cached: served.cached,
            serve_us,
            exact_us,
        };
        self.audit.record(record);
        Some(record)
    }

    /// Point-in-time audit summary: scored/skipped cycle counts, the
    /// CI-coverage ratio, a Welford summary of the signed relative
    /// errors, and the worst-calibrated audited queries. The data a
    /// serving layer renders under `GET /quality`.
    pub fn quality_report(&self) -> QualityReport {
        self.audit.report()
    }

    /// The thresholds currently in the recently-served ring — the pool
    /// [`audit_once`](Self::audit_once) rotates over (bounded,
    /// deduplicated; most useful for tests and tools).
    pub fn recently_served(&self) -> Vec<f64> {
        self.audit.served_taus()
    }

    /// The fsync policy of a durable engine (`None` when storage is not
    /// attached) — operational provenance for health endpoints.
    pub fn fsync_policy(&self) -> Option<FsyncPolicy> {
        self.durability.as_ref().map(|d| d.options.fsync)
    }

    /// The storage tier the engine actually serves from:
    /// [`StorageTier::Mapped`] when the base corpus is a checkpoint
    /// mapping (a mapped-tier recovery), [`StorageTier::Heap`]
    /// otherwise. Operational provenance for
    /// health endpoints.
    pub fn storage_tier(&self) -> StorageTier {
        if self.snapshot().is_mapped() {
            StorageTier::Mapped
        } else {
            StorageTier::Heap
        }
    }

    /// Point-in-time statistics (briefly locks each shard in turn).
    ///
    /// Counter families are read through [`snapshot_ordered`],
    /// downstream-first, so causally-related pairs can never invert:
    /// `sampling_passes ≤ cache_misses` and
    /// `delta_publishes + full_publishes ≤ publishes` hold in every
    /// snapshot, no matter how reads race concurrent increments.
    pub fn stats(&self) -> EngineStats {
        let m = &self.metrics;
        let [sampling_passes, cache_misses, cache_hits, sampled_pairs] = snapshot_ordered([
            &m.sampling_passes,
            &m.cache_misses,
            &m.cache_hits,
            &m.sampled_pairs,
        ]);
        let [delta_publishes, full_publishes, publishes, ingests] = snapshot_ordered([
            &m.delta_publishes,
            &m.full_publishes,
            &m.publishes,
            &m.ingests,
        ]);
        let shards: Vec<ShardStats> = self.shards.iter().map(|s| locks::lock(s).stats()).collect();
        let cache_entries = locks::lock(&self.cache).len();
        let wal = self.durability.as_ref().map(|d| d.wal.stats());
        let snapshot = self.snapshot();
        // The mapped base is live data the shards don't see; fold it
        // (minus its tombstoned rows) into the live count and refresh
        // the lazily-sampled gauges.
        let mapped_base = snapshot.mapped_view().map(|m| m.base().clone());
        let overlay_bytes = snapshot.mapped_view().map_or(0, |m| m.tail_bytes());
        let tombstones = if mapped_base.is_some() {
            locks::lock(&self.tombstones).len()
        } else {
            0
        };
        if let Some(base) = &mapped_base {
            self.metrics.mapped_materialized.set(base.materialized());
        }
        self.metrics.overlay_bytes.set(overlay_bytes);
        self.metrics.tombstone_rows.set(tombstones as u64);
        if let Some(faults) = vsj_obs::major_page_faults() {
            self.metrics.major_faults.set(faults);
        }
        // Pool series follow the refreshed-by-stats() convention of the
        // other lazily-sampled gauges above.
        let pool_stats = self.pool.stats();
        self.metrics.pool_tasks.store(pool_stats.tasks_total);
        self.metrics.pool_steals.store(pool_stats.steals_total);
        self.metrics.pool_queue_depth.set(pool_stats.queued);
        EngineStats {
            wal_shard_pending: wal
                .as_ref()
                .map(|w| w.shard_pending.clone())
                .unwrap_or_default(),
            wal_segments: wal.as_ref().map_or(0, |w| w.segments),
            wal_fsyncs: wal.as_ref().map_or(0, |w| w.fsyncs),
            wal_rotations: wal.as_ref().map_or(0, |w| w.rotations),
            epoch: snapshot.epoch(),
            live: shards.iter().map(|s| s.live).sum::<usize>()
                + mapped_base.as_ref().map_or(0, |b| b.len())
                - tombstones,
            ingests,
            compactions: self.metrics.compactions.get(),
            overlay_bytes,
            tombstones,
            publish_lag: ingests.saturating_sub(snapshot.ingested()),
            publishes,
            delta_publishes,
            full_publishes,
            shards,
            cache_hits,
            cache_misses,
            cache_entries,
            sampling_passes,
            sampled_pairs,
            wal_pending: self.wal_pending(),
            pool_threads: pool_stats.threads,
            pool_tasks: pool_stats.tasks_total,
            pool_steals: pool_stats.steals_total,
        }
    }
}

impl std::fmt::Debug for EstimationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EstimationEngine")
            .field("shards", &self.shards.len())
            .field("epoch", &stats.epoch)
            .field("live", &stats.live)
            .field("ingests", &stats.ingests)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_vector::VectorId;

    fn mapped_engine_with_dirty_overlay(dir: &std::path::Path) -> EstimationEngine {
        let config = ServiceConfig::builder()
            .shards(2)
            .k(8)
            .seed(5)
            .family(IndexFamily::MinHash)
            .build();
        let seed = EstimationEngine::durable_with(config, dir, crate::DurabilityOptions::default())
            .unwrap();
        for i in 0..6u32 {
            seed.insert(SparseVector::binary_from_members(vec![i, i + 1, i + 2]));
        }
        seed.checkpoint().unwrap();
        drop(seed);
        let engine = EstimationEngine::recover_with(
            dir,
            crate::DurabilityOptions {
                storage_tier: crate::StorageTier::Mapped,
                compact_overlay_bytes: Some(1),
                ..crate::DurabilityOptions::default()
            },
        )
        .unwrap();
        engine.insert(SparseVector::binary_from_members(vec![9, 10, 11]));
        engine.publish();
        engine
    }

    /// The trigger must stay quiet while a checkpoint or compaction is
    /// already cutting — the flag set by [`EstimationEngine::cut`] —
    /// even when a threshold is crossed, so a polling [`Compactor`]
    /// never stacks a second cut behind an in-flight one.
    #[test]
    fn trigger_is_suppressed_while_a_checkpoint_is_in_flight() {
        let dir = std::env::temp_dir().join(format!("vsj_engine_inflight_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = mapped_engine_with_dirty_overlay(&dir);
        assert!(engine.compaction_due(), "the 1-byte threshold is crossed");
        engine.checkpoint_in_flight.store(true, Ordering::SeqCst);
        assert!(
            !engine.compaction_due(),
            "an in-flight cut must suppress the trigger"
        );
        engine.checkpoint_in_flight.store(false, Ordering::SeqCst);
        assert!(engine.compaction_due(), "clearing the flag re-arms it");
        engine.compact().unwrap();
        assert!(
            !engine.compaction_due(),
            "the fold emptied the overlay below the threshold"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn assert_pooled_encode_matches(engine: &EstimationEngine, what: &str) {
        let snapshot = engine.snapshot();
        let meta = CheckpointMeta {
            epoch: snapshot.epoch(),
            ingested: snapshot.ingested(),
            next_id: engine.next_id.load(Ordering::SeqCst),
            applied_seq: 0,
            publishes: 1,
            config: *engine.config(),
        };
        let serial = persist::encode_checkpoint(&meta, &snapshot);
        for threads in [1usize, 2, 8] {
            let pool = WorkPool::new(threads);
            let pooled = persist::encode_checkpoint_with(&meta, &snapshot, &pool);
            assert_eq!(
                serial.as_slice(),
                pooled.as_slice(),
                "{what}: pooled encode diverged at {threads} threads"
            );
        }
    }

    /// The pooled checkpoint encoder must produce the exact bytes of
    /// the serial one — on the heap tier (slab block copies) and on the
    /// mapped tier (base block copies interleaved with overlay slab
    /// blocks, tombstoned rows dropped) — at every thread count.
    #[test]
    fn parallel_encode_is_byte_identical() {
        let config = ServiceConfig::builder().shards(3).k(8).seed(42).build();
        let engine = EstimationEngine::new(config);
        let ids: Vec<GlobalId> =
            engine.insert_batch((0..257u32).map(|i| {
                SparseVector::binary_from_members(vec![i, i * 7 % 97, i * 13 % 101 + 200])
            }));
        engine.remove(ids[3]);
        engine.publish();
        assert_pooled_encode_matches(&engine, "heap");

        let dir = std::env::temp_dir().join(format!("vsj_engine_parenc_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mapped = mapped_engine_with_dirty_overlay(&dir);
        assert!(mapped.remove(2), "base row 2 is live");
        mapped.publish();
        assert_pooled_encode_matches(&mapped, "mapped");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `insert_batch`'s pool pre-hash must assign the same ids and
    /// build the same index as sequential inserts — same estimates,
    /// same stats — and the pool counters must surface through
    /// `stats()`.
    #[test]
    fn pooled_insert_batch_matches_sequential_inserts() {
        let mk = |threads: usize| {
            ServiceConfig::builder()
                .shards(2)
                .k(8)
                .seed(11)
                .pool_threads(threads)
                .build()
        };
        let vectors: Vec<SparseVector> = (0..300u32)
            .map(|i| SparseVector::binary_from_members(vec![i % 50, i % 51 + 60, i % 7 + 120]))
            .collect();
        let serial = EstimationEngine::new(mk(1));
        let serial_ids: Vec<GlobalId> = vectors.iter().map(|v| serial.insert(v.clone())).collect();
        serial.publish();
        let pooled = EstimationEngine::new(mk(4));
        let pooled_ids = pooled.insert_batch(vectors.clone());
        pooled.publish();
        assert_eq!(serial_ids, pooled_ids, "id assignment must not change");
        let taus = [0.2, 0.5, 0.9];
        let a = serial.estimate_batch(&taus);
        let b = pooled.estimate_batch(&taus);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.estimate.value.to_bits(), y.estimate.value.to_bits());
            assert_eq!(x.std_err.to_bits(), y.std_err.to_bits());
        }
        let stats = pooled.stats();
        assert_eq!(stats.pool_threads, 4);
        assert!(
            stats.pool_tasks > 0,
            "the batch pre-hash must run on the pool"
        );
    }

    fn weighted(i: u64, round: u64) -> SparseVector {
        let entries = (0..1 + (i + round) % 6)
            .map(|t| (((t * 5 + i) % 97) as u32 + 100 * t as u32, 0.5 + t as f32))
            .collect();
        SparseVector::from_entries(entries).expect("finite entries")
    }

    /// The heap twin of `mapped_tier::mapped_serving_and_auditing_materialize_no_row`:
    /// ingest, a delta publish, an upsert + remove + full publish,
    /// estimates, an audit and a checkpoint read every heap row in place
    /// — no snapshot's decode-once cache holds a row afterwards.
    #[test]
    fn heap_serving_and_auditing_materialize_no_row() {
        let dir = std::env::temp_dir().join(format!("vsj_engine_heapdec_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = ServiceConfig::builder().shards(2).k(4).seed(9).build();
        let engine =
            EstimationEngine::durable_with(config, &dir, DurabilityOptions::default()).unwrap();
        let ids = engine.insert_batch((0..60).map(|i| weighted(i, 0)));
        let mut snapshots = vec![];
        engine.publish();
        snapshots.push(engine.snapshot());
        assert_eq!(engine.stats().delta_publishes, 1);
        assert!(engine.upsert(ids[3], weighted(3, 1)));
        assert!(engine.remove(ids[5]));
        engine.publish();
        snapshots.push(engine.snapshot());
        assert_eq!(engine.stats().full_publishes, 1);
        engine.estimate_batch(&[0.3, 0.6]);
        engine.estimate(0.9);
        assert!(engine.audit_once(&AuditOptions::default()).is_some());
        engine.checkpoint().unwrap();
        snapshots.push(engine.snapshot());
        for (at, snapshot) in snapshots.iter().enumerate() {
            assert!(!snapshot.is_mapped());
            assert_eq!(snapshot.materialized(), 0, "snapshot {at} decoded rows");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A published row's payload is held once, in a snapshot slab — no
    /// shard row keeps it — and 200 rounds of upserts, removals, inserts
    /// and both publish paths keep a snapshot's slabs few and its
    /// garbage bounded, while every row still decodes to what was
    /// written.
    #[test]
    fn published_payloads_are_held_once_and_garbage_stays_bounded() {
        let engine = EstimationEngine::new(ServiceConfig::builder().shards(3).k(6).seed(4).build());
        let mut model: std::collections::BTreeMap<GlobalId, SparseVector> =
            std::collections::BTreeMap::new();
        for (i, id) in engine
            .insert_batch((0..300).map(|i| weighted(i, 0)))
            .into_iter()
            .enumerate()
        {
            model.insert(id, weighted(i as u64, 0));
        }
        let pending = || -> usize { engine.shards.iter().map(|s| locks::lock(s).pending()).sum() };
        assert_eq!(pending(), 300);
        engine.publish();
        assert_eq!(pending(), 0, "the cut took every payload");
        let mut rng = Xoshiro256::seeded(17);
        for round in 1..=200u64 {
            let live: Vec<GlobalId> = model.keys().copied().collect();
            let mut pick = || live[(rng.next_u64() % live.len() as u64) as usize];
            if round % 3 != 0 {
                for _ in 0..4 {
                    let gid = pick();
                    engine.upsert(gid, weighted(gid, round));
                    model.insert(gid, weighted(gid, round));
                }
                for _ in 0..2 {
                    let gid = pick();
                    if model.remove(&gid).is_some() {
                        assert!(engine.remove(gid));
                    }
                }
            }
            for i in 0..3 {
                let v = weighted(round * 7 + i, round);
                model.insert(engine.insert(v.clone()), v);
            }
            engine.publish();
            assert_eq!(pending(), 0, "round {round}: a shard kept a payload");
            let snapshot = engine.snapshot();
            let rows = snapshot.collection();
            let slab_bytes: u64 = rows.slabs().iter().map(|s| 4 * s.len() as u64).sum();
            let live_bytes: u64 = (0..snapshot.len() as VectorId)
                .map(|id| 4 * rows.block(id).len() as u64)
                .sum();
            assert_eq!(live_bytes, rows.payload_bytes());
            assert!(
                rows.slabs().len() <= 32,
                "round {round}: {} slabs",
                rows.slabs().len()
            );
            assert!(
                slab_bytes <= 2 * live_bytes,
                "round {round}: {slab_bytes} slab bytes hold {live_bytes} live"
            );
        }
        let snapshot = engine.snapshot();
        assert_eq!(
            snapshot.global_ids(),
            model.keys().copied().collect::<Vec<_>>()
        );
        for (local, v) in model.values().enumerate() {
            assert_eq!(&snapshot.to_vector(local as VectorId), v);
        }
        assert_eq!(engine.stats().delta_publishes, 1 + 200 / 3);
    }
}
