//! `vsj-service` — a concurrent **online** estimation engine for the
//! VSJ problem.
//!
//! The paper's motivation (§1) is a query optimizer that needs a join
//! size estimate *in milliseconds, during planning* — but the offline
//! crates operate on a frozen [`LshTable`](vsj_lsh::LshTable) built in
//! one shot. This crate closes the gap with a long-lived service over
//! **live** data:
//!
//! ```text
//!          writers (insert / remove / upsert)
//!                │ shard by hash(id)
//!     ┌──────────┼──────────┐
//!  ┌──▼───┐  ┌───▼──┐   ┌───▼──┐       mutable write side: per-shard
//!  │shard0│  │shard1│ … │shardS│       (id, key, vector) rows, keys
//!  └──┬───┘  └───┬──┘   └───┬──┘       hashed before the shard lock
//!     └──────────┼──────────┘
//!                │ publish(): O(changed) — previous snapshot + per-shard
//!                │ deltas (payload slabs & bucket runs Arc-shared, new
//!                │ rows encoded once; full directory-merge fallback for
//!                │ removal epochs)
//!          ┌─────▼──────┐
//!          │ Snapshot e │  immutable, Arc-shared, epoch-tagged
//!          └─────┬──────┘
//!     ┌──────────┼──────────┐
//!  readers: estimate(τ) = estimate_batch(&[τ]) → one LSH-SS pass per
//!  epoch over the snapshot (IndexView), answers cached per (τ, config)
//!  until drift > ε ingests
//! ```
//!
//! Key properties:
//!
//! * **Epoch consistency** — every estimate is computed against (and
//!   labeled with) a single published snapshot; readers never observe a
//!   half-applied write.
//! * **Offline equivalence** — a snapshot is bit-identical (buckets,
//!   `N_H`, sampling behavior) to an offline [`LshTable::build`] over
//!   the same live vectors in global-id order, so service answers equal
//!   offline [`LshSs`](vsj_core::LshSs) curve runs with the same RNG
//!   ([`EstimationEngine::batch_rng`]).
//! * **One estimate path** — [`EstimationEngine::estimate`] is
//!   [`estimate_batch`](EstimationEngine::estimate_batch) of one: a
//!   direct call, a wire request coalesced with others, and the
//!   auditor's re-ask all get the same cached answer per `(epoch, τ)`.
//! * **Determinism** — everything derives from the master seed; the
//!   same ingest history gives the same answers, across thread counts.
//! * **Durability** (opt-in) — [`EstimationEngine::durable`] attaches a
//!   storage directory: epoch checkpoints (checksummed, mappable
//!   [`datasets::io`](vsj_datasets::io) containers, see [`persist`])
//!   plus a **per-shard segmented write-ahead log** of every ingest
//!   between checkpoints ([`wal`]): durable writers on different
//!   shards append (and group-commit fsync, per [`FsyncPolicy`]) in
//!   parallel, stitched by a global sequence number.
//!   [`EstimationEngine::recover`] rebuilds the engine — shards from
//!   stored bucket keys, no re-hashing — and merge-replays the chains
//!   in sequence order, yielding answers bit-identical to the engine
//!   that died; anything on disk the engine did not write itself is
//!   refused with a structured error, never worked around. A
//!   background [`Checkpointer`] keeps the WAL bounded;
//!   checkpoint truncation drops whole sealed segments (O(1) — no
//!   surviving byte rewritten).
//!
//! [`LshTable::build`]: vsj_lsh::LshTable::build
//!
//! # Example
//!
//! ```
//! use vsj_service::{EstimationEngine, ServiceConfig};
//! use vsj_vector::SparseVector;
//!
//! let engine = EstimationEngine::new(
//!     ServiceConfig::builder().shards(4).k(16).seed(7).build(),
//! );
//! for i in 0..200u32 {
//!     engine.insert(SparseVector::binary_from_members(vec![i % 10, 100 + i % 7]));
//! }
//! engine.publish();
//! let answer = engine.estimate(0.8);
//! assert_eq!(answer.epoch, 1);
//! assert!(answer.estimate.value >= 0.0);
//! // Same epoch, same τ: served from cache, no new sampling.
//! assert!(engine.estimate(0.8).cached);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod background;
mod cache;
mod config;
mod engine;
mod locks;
mod mapped;
pub mod persist;
mod shard;
mod snapshot;
pub mod wal;

pub use audit::{AuditOptions, AuditRecord, Auditor, QualityReport, WORST_CAPACITY};
pub use config::{
    DurabilityOptions, FsyncPolicy, IndexFamily, ParallelOptions, ServiceConfig,
    ServiceConfigBuilder, StorageTier,
};
pub use engine::{EngineStats, EstimationEngine, ServiceEstimate};
pub use persist::{Checkpointer, Compactor, PersistError};
pub use shard::ShardStats;
pub use snapshot::Snapshot;
pub use vsj_obs::{ObsOptions, Registry};

/// Stable identifier of a vector across the engine's lifetime (survives
/// snapshot compaction; never reused after removal).
pub type GlobalId = u64;

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_core::{IndexView, LshSs, LshSsConfig};
    use vsj_datasets::DblpLike;
    use vsj_lsh::{LshIndex, LshParams, LshTable};
    use vsj_vector::{Cosine, Jaccard, SparseVector, VectorCollection};

    fn members(start: u32, len: u32) -> SparseVector {
        SparseVector::binary_from_members((start..start + len).collect())
    }

    fn minhash_engine(shards: usize) -> EstimationEngine {
        EstimationEngine::new(
            ServiceConfig::builder()
                .shards(shards)
                .k(8)
                .seed(42)
                .family(IndexFamily::MinHash)
                .build(),
        )
    }

    #[test]
    fn empty_engine_answers_zero() {
        let engine = minhash_engine(4);
        let a = engine.estimate(0.5);
        assert_eq!(a.epoch, 0);
        assert_eq!(a.n, 0);
        assert_eq!(a.estimate.value, 0.0);
    }

    #[test]
    fn writes_invisible_until_publish() {
        let engine = minhash_engine(4);
        engine.insert(members(0, 5));
        engine.insert(members(0, 5));
        assert_eq!(engine.snapshot().len(), 0);
        let epoch = engine.publish();
        assert_eq!(epoch, 1);
        assert_eq!(engine.snapshot().len(), 2);
        assert_eq!(engine.snapshot().table().nh(), 1);
    }

    #[test]
    fn snapshot_matches_offline_build_and_estimate_exactly() {
        // The acceptance property: the service answer equals an offline
        // LshSs curve run over the same data with the same epoch RNG.
        let engine = minhash_engine(8);
        let mut vectors = Vec::new();
        for i in 0..300u32 {
            let v = members(i % 40, 4 + i % 6);
            vectors.push(v.clone());
            engine.insert(v);
        }
        let epoch = engine.publish();
        let snapshot = engine.snapshot();

        // Global ids are assigned 0..n in insert order, so the offline
        // collection in the same order matches the snapshot layout.
        assert_eq!(snapshot.global_ids(), &(0..300).collect::<Vec<u64>>()[..]);
        let coll = VectorCollection::from_vectors(vectors);
        let offline = LshIndex::build_with_family(
            &coll,
            vsj_lsh::MinHashFamily::new(),
            LshParams::new(8, 1).with_seed(42).with_threads(1),
        );
        let table: &LshTable = offline.table(0);
        assert_eq!(snapshot.table().nh(), table.nh());
        assert_eq!(snapshot.table().num_buckets(), table.num_buckets());

        for tau in [0.3, 0.7, 0.9] {
            let served = engine.estimate(tau);
            assert_eq!(served.epoch, epoch);
            let est = LshSs {
                config: engine.estimator_config(coll.len()),
            };
            let mut rng = engine.batch_rng(epoch);
            let offline = est.estimate_curve_detailed(&coll, table, &Jaccard, &[tau], &mut rng);
            assert_eq!(
                served.estimate, offline[0].estimate,
                "service and offline disagree at τ={tau}"
            );
        }
    }

    #[test]
    fn cache_serves_repeats_without_sampling() {
        let engine = minhash_engine(2);
        for i in 0..100u32 {
            engine.insert(members(i % 20, 5));
        }
        engine.publish();
        let first = engine.estimate(0.7);
        assert!(!first.cached);
        let passes_after_first = engine.stats().sampling_passes;
        for _ in 0..10 {
            let again = engine.estimate(0.7);
            assert!(again.cached);
            assert_eq!(again.estimate, first.estimate);
            assert_eq!(again.epoch, first.epoch);
        }
        assert_eq!(
            engine.stats().sampling_passes,
            passes_after_first,
            "cache hits must not sample"
        );
        assert_eq!(engine.stats().cache_hits, 10);
    }

    #[test]
    fn cache_invalidates_after_drift_exceeds_epsilon() {
        let engine = EstimationEngine::new(
            ServiceConfig::builder()
                .shards(2)
                .k(8)
                .seed(3)
                .family(IndexFamily::MinHash)
                .cache_epsilon(5)
                .build(),
        );
        for i in 0..50u32 {
            engine.insert(members(i % 10, 4));
        }
        engine.publish();
        let first = engine.estimate(0.6);
        assert!(!first.cached);

        // Drift of 3 ≤ ε = 5: still served from cache after republish.
        for i in 0..3u32 {
            engine.insert(members(i, 4));
        }
        engine.publish();
        assert!(engine.estimate(0.6).cached, "drift 3 within ε=5");

        // Total drift 8 > ε: recomputed against the new epoch.
        for i in 0..5u32 {
            engine.insert(members(i, 4));
        }
        engine.publish();
        let fresh = engine.estimate(0.6);
        assert!(!fresh.cached, "drift 8 exceeds ε=5");
        assert_eq!(fresh.epoch, engine.current_epoch());
    }

    #[test]
    fn removals_take_effect_at_publish() {
        let engine = minhash_engine(4);
        let ids = engine.insert_batch((0..10u32).map(|_| members(0, 5)));
        engine.publish();
        assert_eq!(engine.snapshot().table().nh(), 45); // C(10,2)
        for id in &ids[..4] {
            assert!(engine.remove(*id));
        }
        assert!(!engine.remove(ids[0]), "double remove is a no-op");
        assert_eq!(engine.snapshot().table().nh(), 45, "not yet published");
        engine.publish();
        assert_eq!(engine.snapshot().len(), 6);
        assert_eq!(engine.snapshot().table().nh(), 15); // C(6,2)
    }

    #[test]
    fn upsert_replaces_in_place() {
        let engine = minhash_engine(4);
        let id = engine.insert(members(0, 5));
        engine.publish();
        assert!(engine.contains(id));
        assert!(engine.upsert(id, members(100, 5)), "existing id replaced");
        assert!(!engine.upsert(999, members(50, 5)), "fresh id inserted");
        engine.publish();
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot.global_ids(), &[id, 999]);
        // A subsequent insert must not collide with the reserved id.
        let next = engine.insert(members(1, 3));
        assert!(next > 999);
    }

    #[test]
    fn auto_publish_fires_on_batch_boundaries() {
        let engine = EstimationEngine::new(
            ServiceConfig::builder()
                .shards(2)
                .k(4)
                .family(IndexFamily::MinHash)
                .auto_publish_every(10)
                .build(),
        );
        for i in 0..25u32 {
            engine.insert(members(i, 3));
        }
        let stats = engine.stats();
        assert_eq!(stats.publishes, 2, "25 ingests at batch 10 → 2 publishes");
        assert_eq!(engine.snapshot().len(), 20);
        assert_eq!(engine.current_epoch(), 2);
    }

    #[test]
    fn batch_estimates_share_one_pass_and_cache() {
        let engine = minhash_engine(4);
        for i in 0..200u32 {
            engine.insert(members(i % 30, 5));
        }
        engine.publish();
        let taus = [0.3, 0.5, 0.7, 0.9];
        let first = engine.estimate_batch(&taus);
        assert_eq!(first.len(), 4);
        assert!(first.iter().all(|e| !e.cached));
        assert_eq!(engine.stats().sampling_passes, 1, "one pass for the grid");
        // Estimates are monotone non-increasing in τ for a shared pass.
        for w in first.windows(2) {
            assert!(
                w[1].estimate.value <= w[0].estimate.value + 1e-9,
                "curve must not rise: {:?}",
                first.iter().map(|e| e.estimate.value).collect::<Vec<_>>()
            );
        }
        let again = engine.estimate_batch(&taus);
        assert!(again.iter().all(|e| e.cached));
        assert_eq!(engine.stats().sampling_passes, 1);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.estimate, b.estimate);
        }
    }

    #[test]
    fn sharding_is_invisible_to_results() {
        // The same ingest history must produce identical snapshots and
        // answers regardless of shard count.
        let build = |shards| {
            let engine = minhash_engine(shards);
            for i in 0..150u32 {
                engine.insert(members(i % 25, 4 + i % 3));
            }
            engine.remove(7);
            engine.remove(93);
            engine.publish();
            engine
        };
        let a = build(1);
        let b = build(16);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa.global_ids(), sb.global_ids());
        assert_eq!(sa.table().nh(), sb.table().nh());
        for tau in [0.4, 0.8] {
            assert_eq!(a.estimate(tau).estimate, b.estimate(tau).estimate);
        }
    }

    #[test]
    fn simhash_cosine_end_to_end() {
        // The paper's configuration over the DBLP-like preset.
        let engine =
            EstimationEngine::new(ServiceConfig::builder().shards(4).k(16).seed(11).build());
        let data = DblpLike::with_size(500).generate(9);
        for (_, v) in data.iter() {
            engine.insert(v.clone());
        }
        let epoch = engine.publish();
        let answer = engine.estimate(0.7);
        assert_eq!(answer.epoch, epoch);
        assert_eq!(answer.n, 500);
        assert!(answer.estimate.value.is_finite() && answer.estimate.value >= 0.0);

        // Offline replication through the public RNG hook.
        let snapshot = engine.snapshot();
        let est = LshSs {
            config: engine.estimator_config(snapshot.len()),
        };
        let mut rng = engine.batch_rng(epoch);
        let offline = est.estimate_curve_detailed(
            snapshot.collection(),
            snapshot.as_ref(),
            &Cosine,
            &[0.7],
            &mut rng,
        );
        assert_eq!(answer.estimate, offline[0].estimate);
    }

    #[test]
    fn fixed_estimator_config_is_honored() {
        let fixed = LshSsConfig {
            m_h: 64,
            m_l: 64,
            delta: 4,
            dampening: vsj_core::Dampening::NlOverDelta,
        };
        let engine = EstimationEngine::new(
            ServiceConfig::builder()
                .shards(2)
                .k(8)
                .family(IndexFamily::MinHash)
                .estimator(fixed)
                .build(),
        );
        assert_eq!(engine.estimator_config(10_000), fixed);
        for i in 0..80u32 {
            engine.insert(members(i % 12, 4));
        }
        engine.publish();
        let a = engine.estimate(0.5);
        assert!(!a.cached);
        // Sampled pairs bounded by the fixed budgets.
        assert!(engine.stats().sampled_pairs <= 128);
    }

    #[test]
    #[should_panic(expected = "auto_publish_every")]
    fn direct_construction_rejects_zero_publish_batch() {
        // ServiceConfig fields are pub; new() must re-validate what the
        // builder validates, or the first ingest divides by zero.
        EstimationEngine::new(ServiceConfig {
            auto_publish_every: Some(0),
            ..ServiceConfig::default()
        });
    }

    #[test]
    fn concurrent_insert_and_upsert_never_lose_vectors() {
        // insert() allocates ids with fetch_add while upsert() reserves
        // caller ids with fetch_max; under contention an upsert can win
        // an id insert just allocated — insert must retry, not drop.
        let engine = minhash_engine(4);
        let upsert_ids: Vec<GlobalId> = (0..300).collect();
        let mut inserted: Vec<GlobalId> = Vec::new();
        std::thread::scope(|scope| {
            let engine = &engine;
            let inserter = scope.spawn(move || {
                (0..300)
                    .map(|i| engine.insert(members(i % 30, 4)))
                    .collect::<Vec<_>>()
            });
            for &id in &upsert_ids {
                engine.upsert(id, members((id % 30) as u32, 5));
            }
            inserted = inserter.join().expect("inserter panicked");
        });
        engine.publish();
        let snapshot = engine.snapshot();
        // Returned ids are unique.
        let mut sorted = inserted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), inserted.len(), "insert ids must be unique");
        // Every inserted id outside the upsert range must be live (an
        // upsert may legitimately have replaced a colliding id's vector,
        // but never silently swallowed an insert).
        let live: std::collections::HashSet<GlobalId> =
            snapshot.global_ids().iter().copied().collect();
        for &id in &inserted {
            assert!(live.contains(&id), "inserted id {id} lost");
        }
        for &id in &upsert_ids {
            assert!(live.contains(&id), "upserted id {id} lost");
        }
    }

    #[test]
    fn stats_reflect_shards_and_counters() {
        let engine = minhash_engine(3);
        for i in 0..30u32 {
            engine.insert(members(i, 3));
        }
        engine.publish();
        engine.estimate(0.5);
        engine.estimate(0.5);
        let stats = engine.stats();
        assert_eq!(stats.live, 30);
        assert_eq!(stats.ingests, 30);
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.shards.len(), 3);
        assert_eq!(stats.shards.iter().map(|s| s.live).sum::<usize>(), 30);
        assert!(stats.shards.iter().all(|s| s.live > 0), "hash spreads ids");
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.sampling_passes, 1);
        assert!(stats.sampled_pairs > 0);
        assert_eq!(stats.epoch, 1);
    }

    #[test]
    fn snapshot_view_trait_round_trip() {
        let engine = minhash_engine(2);
        for i in 0..40u32 {
            engine.insert(members(i % 8, 4));
        }
        engine.publish();
        let snapshot = engine.snapshot();
        assert_eq!(IndexView::len(snapshot.as_ref()), 40);
        assert_eq!(IndexView::nh(snapshot.as_ref()), snapshot.table().nh());
        assert_eq!(
            IndexView::total_pairs(snapshot.as_ref()),
            snapshot.table().total_pairs()
        );
    }
}
