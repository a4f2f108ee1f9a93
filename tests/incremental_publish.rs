//! Incremental O(changed) publication: equivalence and sharing.
//!
//! The contract under test: a snapshot published through the delta path
//! (previous epoch + per-shard append logs) is **observationally
//! identical** to a from-scratch offline build over the same live
//! vectors in global-id order — same table statistics and bit-identical
//! estimates at every `(seed, epoch, τ)` — while actually *sharing* its
//! payloads and untouched buckets with the previous epoch instead of
//! copying them. The fallback (full pointer-merge) path used for epochs
//! with removals/upserts must satisfy the same equivalence.

use std::sync::Arc;

use vsj_core::LshSs;
use vsj_lsh::{BucketHasher, Composite, LshTable, MinHashFamily};
use vsj_service::{EstimationEngine, IndexFamily, ServiceConfig, Snapshot};
use vsj_vector::{Jaccard, SparseVector, VectorCollection};

const SEED: u64 = 0xBEE5;
const TAUS: [f64; 3] = [0.3, 0.6, 0.9];

fn config(shards: usize) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(shards)
        .k(8)
        .seed(SEED)
        .family(IndexFamily::MinHash)
        .build()
}

fn doc(i: u32) -> SparseVector {
    // Heavy duplication so stratum H is populated at every epoch.
    SparseVector::binary_from_members(vec![i % 7, 100 + i % 5, 200 + i % 3])
}

/// Offline ground truth: hash and build a fresh table over the
/// snapshot's vectors (global-id order) with an identically-derived
/// hasher, then require bit-identical estimates through the engine's
/// own epoch-pinned RNG streams.
fn assert_matches_offline_build(engine: &EstimationEngine, snapshot: &Snapshot, context: &str) {
    let hasher: Arc<dyn BucketHasher> = Arc::new(Composite::derive(
        MinHashFamily::new(),
        SEED,
        0,
        engine.config().k,
    ));
    let collection: VectorCollection = snapshot.collection().to_owned_collection();
    let offline = LshTable::build(&collection, hasher, Some(1));
    assert_eq!(snapshot.table().nh(), offline.nh(), "{context}: N_H");
    assert_eq!(snapshot.len(), offline.len(), "{context}: n");
    assert_eq!(
        snapshot.table().num_buckets(),
        offline.num_buckets(),
        "{context}: buckets"
    );
    let est = LshSs {
        config: engine.estimator_config(snapshot.len()),
    };
    let via_snapshot = est.estimate_curve(
        snapshot.collection(),
        snapshot,
        &Jaccard,
        &TAUS,
        &mut engine.batch_rng(snapshot.epoch()),
    );
    let via_build = est.estimate_curve(
        &collection,
        &offline,
        &Jaccard,
        &TAUS,
        &mut engine.batch_rng(snapshot.epoch()),
    );
    assert_eq!(
        via_snapshot, via_build,
        "{context}: the estimate curve diverged from the offline build"
    );
}

#[test]
fn append_only_epochs_take_delta_path_and_match_offline() {
    let engine = EstimationEngine::new(config(4));
    let mut inserted = 0u32;
    for epoch_batch in [1usize, 3, 16, 40, 7] {
        for _ in 0..epoch_batch {
            engine.insert(doc(inserted));
            inserted += 1;
        }
        let epoch = engine.publish();
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.epoch(), epoch);
        assert_eq!(snapshot.len(), inserted as usize);
        assert_matches_offline_build(&engine, &snapshot, &format!("epoch {epoch}"));
    }
    let stats = engine.stats();
    assert_eq!(
        stats.delta_publishes, 5,
        "append-only epochs must all take the incremental path"
    );
    assert_eq!(stats.full_publishes, 0);
}

#[test]
fn consecutive_epochs_share_payloads_and_buckets() {
    let engine = EstimationEngine::new(config(4));
    for i in 0..60 {
        engine.insert(doc(i));
    }
    engine.publish();
    let first = engine.snapshot();
    for i in 60..70 {
        engine.insert(doc(i));
    }
    engine.publish();
    let second = engine.snapshot();
    assert_eq!(engine.stats().delta_publishes, 2);
    // Every payload block of epoch 1 is the same memory in epoch 2.
    for local in 0..first.len() as u32 {
        assert!(
            std::ptr::eq(
                first.collection().block(local),
                second.collection().block(local)
            ),
            "payload {local} was deep-copied between epochs"
        );
    }
    // Buckets the delta did not touch are shared between the tables.
    let untouched_shared = first
        .table()
        .buckets()
        .filter(|b| {
            second
                .table()
                .bucket_by_key(b.key)
                .is_some_and(|b2| Arc::ptr_eq(&b.members, &b2.members))
        })
        .count();
    assert!(
        untouched_shared > 0,
        "no bucket sharing observed between consecutive epochs"
    );
}

#[test]
fn removals_and_upserts_fall_back_but_stay_equivalent() {
    let engine = EstimationEngine::new(config(4));
    let ids: Vec<u64> = (0..80).map(|i| engine.insert(doc(i))).collect();
    engine.publish();

    // Removal epoch → full merge, still offline-identical.
    engine.remove(ids[5]);
    engine.remove(ids[41]);
    let epoch = engine.publish();
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.len(), 78);
    assert_matches_offline_build(&engine, &snapshot, "post-remove epoch");
    assert!(engine.stats().full_publishes >= 1);

    // Upsert (replacement) epoch → full merge again.
    engine.upsert(ids[7], doc(999));
    let epoch2 = engine.publish();
    assert!(epoch2 > epoch);
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.len(), 78);
    assert_matches_offline_build(&engine, &snapshot, "post-upsert epoch");

    // Once the churn stops, publication returns to the delta path.
    let before = engine.stats().delta_publishes;
    engine.insert(doc(1000));
    engine.publish();
    let snapshot = engine.snapshot();
    assert_eq!(engine.stats().delta_publishes, before + 1);
    assert_matches_offline_build(&engine, &snapshot, "post-churn append epoch");
}

#[test]
fn upsert_of_fresh_high_id_stays_on_delta_path() {
    // An upsert that replaces nothing is an append; only replacements
    // (which renumber snapshot-local ids) force the full merge.
    let engine = EstimationEngine::new(config(2));
    engine.insert(doc(1));
    engine.publish();
    engine.upsert(500, doc(2));
    engine.publish();
    let stats = engine.stats();
    assert_eq!((stats.delta_publishes, stats.full_publishes), (2, 0));
    assert_matches_offline_build(&engine, &engine.snapshot(), "fresh-id upsert epoch");
}

#[test]
fn empty_epoch_is_shared_wholesale() {
    let engine = EstimationEngine::new(config(4));
    for i in 0..30 {
        engine.insert(doc(i));
    }
    engine.publish();
    let first = engine.snapshot();
    let epoch = engine.publish(); // nothing changed
    let second = engine.snapshot();
    assert_eq!(epoch, 2);
    assert_eq!(second.len(), first.len());
    assert_eq!(engine.stats().delta_publishes, 2);
    for local in 0..first.len() as u32 {
        assert!(std::ptr::eq(
            first.collection().block(local),
            second.collection().block(local)
        ));
    }
    assert_eq!(first.table().nh(), second.table().nh());
}

#[test]
fn delta_chain_survives_checkpoint_and_recovery() {
    // Engine A lives straight through; engine B is checkpointed,
    // "killed", and recovered mid-chain. Every subsequently published
    // epoch must be bit-identical between the two — the incremental
    // path must compose with durability.
    let dir = std::env::temp_dir().join(format!("vsj-incr-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Auto-publish cadence (reproduced exactly by WAL replay, unlike
    // explicit publishes — the documented recovery caveat).
    let cfg = ServiceConfig::builder()
        .shards(4)
        .k(8)
        .seed(SEED)
        .family(IndexFamily::MinHash)
        .auto_publish_every(20)
        .build();
    let a = EstimationEngine::new(cfg);
    let b = EstimationEngine::durable(cfg, &dir).unwrap();

    for i in 0..50 {
        a.insert(doc(i));
        b.insert(doc(i)); // auto epochs fire at 20 and 40 on both
    }
    b.checkpoint().unwrap(); // publishes the next epoch durably
    a.publish(); // keep A's epoch counter in lockstep
    for i in 50..65 {
        a.insert(doc(i));
        b.insert(doc(i)); // rides B's WAL; auto epoch at 60
    }
    assert_eq!(a.current_epoch(), b.current_epoch());

    // Crash and resurrect B, then continue the chain on both.
    drop(b);
    let b = EstimationEngine::recover(&dir).unwrap();
    for i in 65..90 {
        a.insert(doc(i));
        b.insert(doc(i)); // auto epoch at 80 on both
    }
    let (ea, eb) = (a.publish(), b.publish());
    assert_eq!(ea, eb, "epoch counters diverged after recovery");
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.len(), sb.len());
    assert_eq!(sa.table().nh(), sb.table().nh());
    assert_eq!(sa.global_ids(), sb.global_ids());
    for tau in TAUS {
        assert_eq!(
            a.estimate(tau),
            b.estimate(tau),
            "estimates diverged at τ={tau} after recovery"
        );
    }
    assert_matches_offline_build(&a, &sa, "uninterrupted engine");
    assert_matches_offline_build(&b, &sb, "recovered engine");
    // The recovered engine keeps publishing incrementally.
    assert!(b.stats().delta_publishes >= 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interleaved_epoch_estimates_are_deterministic_per_epoch() {
    // Two engines fed identical histories but different publish
    // cadences agree wherever their epochs line up on the same cut.
    let fast = EstimationEngine::new(config(3));
    let slow = EstimationEngine::new(config(3));
    for i in 0..90 {
        fast.insert(doc(i));
        slow.insert(doc(i));
        if i % 10 == 9 {
            fast.publish();
        }
        if i % 30 == 29 {
            slow.publish();
        }
    }
    // fast epochs 3, 6, 9 were cut at the same ingest counts as slow
    // epochs 1, 2, 3 — but estimate RNG is epoch-keyed, so compare the
    // snapshots' structure plus offline equivalence instead.
    let (sf, ss) = (fast.snapshot(), slow.snapshot());
    assert_eq!(sf.len(), ss.len());
    assert_eq!(sf.table().nh(), ss.table().nh());
    assert_eq!(sf.global_ids(), ss.global_ids());
    assert_matches_offline_build(&fast, &sf, "fast cadence");
    assert_matches_offline_build(&slow, &ss, "slow cadence");
}
