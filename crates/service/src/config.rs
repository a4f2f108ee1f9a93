//! Service configuration and builder, plus the storage-layer knobs of
//! durable engines ([`DurabilityOptions`], [`FsyncPolicy`]).

use vsj_core::LshSsConfig;

/// When a durable write is acknowledged relative to `fsync`.
///
/// The policy trades ingest latency against the crash window: every
/// WAL frame is always *written* (buffered) before its operation is
/// applied, but the policy decides whether the writer also waits for
/// the frame to reach stable storage before the call returns.
/// Checkpoints and segment seals fsync regardless of the policy, so
/// the window only ever covers the tail since the last flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Every acknowledged write is on stable storage: the writer blocks
    /// until an fsync covers its record. Concurrent writers on the same
    /// shard share one fsync — it covers every record outstanding on
    /// the shard when it starts — so the cost is one fsync per
    /// *quiet-period* write, not per record under load. Nothing defers
    /// a flush: there is no batch size and no timer.
    Always,
    /// Acknowledge as soon as the frame is in the OS page cache — the
    /// pre-segmented engine's behavior, and the default. A process
    /// crash loses nothing (the kernel still holds the bytes); an OS
    /// crash or power cut may lose the un-fsynced tail, recovering the
    /// flushed prefix.
    #[default]
    Never,
}

/// Which medium a recovered engine serves its checkpoint base from.
///
/// The tier is an *operational* choice made at [`recover`] time: the
/// on-disk format is identical either way (the v3 mappable container),
/// both tiers open and validate it through the same reader — so they
/// accept and refuse exactly the same files — and both serve
/// bit-identical estimates at every published `(seed, epoch, τ)`.
///
/// [`recover`]: crate::EstimationEngine::recover
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageTier {
    /// Copy the validated checkpoint's rows onto the heap and rebuild
    /// heap tables — the classic path. Cold-start is O(corpus decode);
    /// all operations are supported.
    #[default]
    Heap,
    /// "Map + go": `mmap` the checkpoint, validate it once (checksums,
    /// cross-section structure, every row's vector invariants),
    /// and serve estimates directly from the on-disk base with the WAL
    /// tail replayed into a heap overlay. Cold-start is O(map + WAL
    /// tail) and the base corpus never enters the heap. [`remove`] and
    /// [`upsert`] of a base row *tombstone* it (the mapping is never
    /// mutated in place); the overlay and tombstone set are folded back
    /// into a fresh checkpoint by [`compact`] — run automatically by a
    /// [`Compactor`](crate::Compactor) under the
    /// [`compact_overlay_bytes`] / [`compact_tombstone_ratio`] trigger
    /// policy — which atomically re-maps without changing any answer.
    ///
    /// [`remove`]: crate::EstimationEngine::remove
    /// [`upsert`]: crate::EstimationEngine::upsert
    /// [`compact`]: crate::EstimationEngine::compact
    /// [`compact_overlay_bytes`]: DurabilityOptions::compact_overlay_bytes
    /// [`compact_tombstone_ratio`]: DurabilityOptions::compact_tombstone_ratio
    Mapped,
}

/// Storage-layer knobs of a durable engine. Unlike [`ServiceConfig`]
/// these are *operational*: they are not persisted in checkpoint
/// metadata and may differ across an engine's lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityOptions {
    /// How many checkpoint generations to keep: the current
    /// `checkpoint.vsjc` plus up to `retain_checkpoints - 1` prior
    /// generations (`checkpoint.vsjc.1` = most recent previous, …).
    /// Older generations are pruned at each checkpoint, and the WAL
    /// retains every segment needed to roll *any* kept generation
    /// forward to the present. Must be ≥ 1; `1` (the default) keeps
    /// only the current checkpoint.
    pub retain_checkpoints: usize,
    /// When durable writes are acknowledged relative to `fsync` (see
    /// [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Rotation threshold of a WAL segment: once a shard's active
    /// segment reaches this many bytes it is sealed (fsync'd) and a
    /// fresh segment opened. Smaller segments reclaim space sooner at
    /// checkpoints (truncation drops whole sealed files); larger ones
    /// rotate less often. Must be ≥ 1 KiB.
    pub segment_bytes: u64,
    /// Which medium recovery serves the checkpoint base from (see
    /// [`StorageTier`]). Ignored by [`durable_with`] (a fresh engine
    /// starts empty on the heap); honored by [`recover_with`].
    ///
    /// [`durable_with`]: crate::EstimationEngine::durable_with
    /// [`recover_with`]: crate::EstimationEngine::recover_with
    pub storage_tier: StorageTier,
    /// Compaction trigger: a mapped engine reports
    /// [`compaction_due`](crate::EstimationEngine::compaction_due) once
    /// its heap overlay holds at least this many payload bytes. `None`
    /// (the default) disables the overlay-size trigger. Must be ≥ 1
    /// when set. Ignored by heap engines.
    pub compact_overlay_bytes: Option<u64>,
    /// Compaction trigger: a mapped engine reports
    /// [`compaction_due`](crate::EstimationEngine::compaction_due) once
    /// `tombstones / base_rows` reaches this ratio. `None` (the
    /// default) disables the tombstone trigger. Must be finite and in
    /// `(0, 1]` when set. Ignored by heap engines.
    pub compact_tombstone_ratio: Option<f64>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            retain_checkpoints: 1,
            fsync: FsyncPolicy::default(),
            segment_bytes: 4 << 20,
            storage_tier: StorageTier::default(),
            compact_overlay_bytes: None,
            compact_tombstone_ratio: None,
        }
    }
}

impl DurabilityOptions {
    /// Panics unless the options are internally valid (positive
    /// capacities, sane compaction triggers).
    pub(crate) fn validate(&self) {
        assert!(
            self.retain_checkpoints >= 1,
            "retain_checkpoints must be at least 1 (the current checkpoint)"
        );
        assert!(
            self.segment_bytes >= 1024,
            "segment_bytes must be at least 1 KiB"
        );
        if let Some(bytes) = self.compact_overlay_bytes {
            assert!(
                bytes >= 1,
                "compact_overlay_bytes must be at least 1 byte when set"
            );
        }
        if let Some(ratio) = self.compact_tombstone_ratio {
            assert!(
                ratio.is_finite() && ratio > 0.0 && ratio <= 1.0,
                "compact_tombstone_ratio must be in (0, 1] when set"
            );
        }
    }
}

/// Data-parallelism knobs of an engine. Like [`DurabilityOptions`]
/// these are *operational*: they are not persisted in checkpoint
/// metadata, excluded from the config fingerprint, and may differ
/// across an engine's lives — the pool is forbidden (and tested) from
/// changing any answer or any checkpoint byte, so two engines that
/// differ only here are indistinguishable on the wire and on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Parallelism degree of the engine's work pool, used by batch
    /// estimate fan-out and by key hashing of batch ingests and
    /// replayed WAL tails. `1` runs the exact legacy serial path (no
    /// worker threads at all). Defaults to `VSJ_POOL_THREADS` when set,
    /// else [`std::thread::available_parallelism`].
    pub pool_threads: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            pool_threads: vsj_pool::default_threads(),
        }
    }
}

impl ParallelOptions {
    pub(crate) fn validate(&self) {
        assert!(self.pool_threads >= 1, "pool_threads must be at least 1");
    }
}

/// Which LSH family the engine's shards hash with (and therefore which
/// similarity measure estimates are computed under — the pairing the
/// paper evaluates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexFamily {
    /// Charikar's random-hyperplane family; estimates are over **cosine**
    /// similarity (the paper's VSJ configuration).
    #[default]
    SimHash,
    /// Broder's MinHash family; estimates are over **Jaccard** similarity
    /// (the SSJ configuration, exact under Definition 3).
    MinHash,
}

/// Tunables of an [`EstimationEngine`](crate::EstimationEngine).
///
/// Everything is fixed at engine construction: the hash functions (and
/// hence every bucket key ever computed) derive from `(family, k, seed)`,
/// so changing them would invalidate all shard state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of shards `S` the live index is partitioned into by id
    /// hash. More shards mean less writer contention; reads are
    /// unaffected (they go through snapshots).
    pub shards: usize,
    /// Composite width `k` (hash functions folded per bucket key).
    pub k: usize,
    /// LSH family (and similarity measure).
    pub family: IndexFamily,
    /// Master seed: derives the hash functions and every estimate RNG
    /// stream.
    pub seed: u64,
    /// When `Some(b)`, the engine publishes a fresh snapshot
    /// automatically after every `b` ingest operations; `None` leaves
    /// publication entirely to explicit [`publish`] calls.
    ///
    /// [`publish`]: crate::EstimationEngine::publish
    pub auto_publish_every: Option<u64>,
    /// Fixed LSH-SS parameters, or `None` to use the paper's defaults
    /// (`m_H = m_L = n`, `δ = log₂ n`) at each snapshot's live size `n`.
    pub estimator: Option<LshSsConfig>,
    /// Work-pool sizing (see [`ParallelOptions`]). Operational — never
    /// persisted, never part of the fingerprint, never answer-changing.
    pub parallel: ParallelOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            k: 20,
            family: IndexFamily::SimHash,
            seed: 0,
            auto_publish_every: None,
            estimator: None,
            parallel: ParallelOptions::default(),
        }
    }
}

impl ServiceConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`ServiceConfig`] (validates on [`build`]).
///
/// [`build`]: ServiceConfigBuilder::build
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the shard count `S` (≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the composite width `k` (≥ 1).
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Sets the LSH family / similarity measure.
    pub fn family(mut self, family: IndexFamily) -> Self {
        self.config.family = family;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Publishes a snapshot automatically every `batch` ingests (≥ 1).
    pub fn auto_publish_every(mut self, batch: u64) -> Self {
        self.config.auto_publish_every = Some(batch);
        self
    }

    /// Pins the LSH-SS parameters instead of per-snapshot paper defaults.
    pub fn estimator(mut self, config: LshSsConfig) -> Self {
        self.config.estimator = Some(config);
        self
    }

    /// Sets the work-pool parallelism degree (≥ 1; `1` = serial legacy
    /// path). The default follows `VSJ_POOL_THREADS` / available cores.
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.config.parallel.pool_threads = threads;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Panics
    /// Panics on `shards == 0`, `k == 0`, or `auto_publish_every == Some(0)`.
    pub fn build(self) -> ServiceConfig {
        let c = self.config;
        assert!(c.shards >= 1, "an engine needs at least one shard");
        assert!(c.k >= 1, "k must be at least 1");
        assert!(
            c.auto_publish_every != Some(0),
            "auto_publish_every must be at least 1"
        );
        c.parallel.validate();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let c = ServiceConfig::builder()
            .shards(4)
            .k(12)
            .family(IndexFamily::MinHash)
            .seed(7)
            .auto_publish_every(64)
            .build();
        assert_eq!(c.shards, 4);
        assert_eq!(c.k, 12);
        assert_eq!(c.family, IndexFamily::MinHash);
        assert_eq!(c.seed, 7);
        assert_eq!(c.auto_publish_every, Some(64));
        assert!(c.estimator.is_none());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ServiceConfig::builder().shards(0).build();
    }

    #[test]
    fn pool_threads_builder_and_default() {
        assert!(ParallelOptions::default().pool_threads >= 1);
        let c = ServiceConfig::builder().pool_threads(3).build();
        assert_eq!(c.parallel.pool_threads, 3);
    }

    #[test]
    #[should_panic(expected = "pool_threads must be")]
    fn zero_pool_threads_rejected() {
        ServiceConfig::builder().pool_threads(0).build();
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        ServiceConfig::builder().k(0).build();
    }
}
