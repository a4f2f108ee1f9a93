//! Out-of-core serving tier: mmap-backed checkpoint ("map + go").
//!
//! The tier contract under test:
//!
//! * **Tier equivalence** — recovering the same storage directory with
//!   `StorageTier::Mapped` and `StorageTier::Heap` yields engines whose
//!   LSH-SS estimates are bit-identical at every published
//!   (seed, epoch, τ) — including when a non-empty WAL tail is replayed
//!   onto the mapped base, and after further post-recovery inserts and
//!   publishes on both tiers. Pinned by the property test below.
//! * **Tombstoned mutation** — `remove` / `upsert` of a mapped base
//!   row tombstone it instead of panicking: the row disappears from
//!   (or is replaced in) the next published snapshot, bit-identically
//!   to the heap tier doing the same. A WAL tail containing removes or
//!   upserts recovers *mapped* (the tail replays into tombstones +
//!   overlay); a mapped recovery never degrades to the heap tier — a
//!   checkpoint that cannot be mapped is an error (`tests/recovery.rs`).
//! * **Serving parity** — `contains`, `stats().live`, epoch counters,
//!   and `storage_tier()` reporting all see base (mapped) rows exactly
//!   as the heap tier sees its materialized rows.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use vsj::prelude::*;
use vsj::vector::VectorId;

/// Fresh per-test storage directory (tests run in parallel).
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vsj_mapped_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(seed: u64) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(3)
        .k(8)
        .seed(seed)
        .family(IndexFamily::MinHash)
        .build()
}

/// Small segments so WAL tails cross segment boundaries.
fn options(tier: StorageTier) -> DurabilityOptions {
    DurabilityOptions {
        segment_bytes: 1024,
        storage_tier: tier,
        ..DurabilityOptions::default()
    }
}

fn members(start: u32, len: u32) -> SparseVector {
    SparseVector::binary_from_members((start..start + len).collect())
}

fn clone_dir(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

const TAUS: [f64; 3] = [0.3, 0.6, 0.9];

/// Tier-agnostic equivalence: epoch, global ids, index-level statistics
/// through the `IndexView` trait (never `Snapshot::table()`, which is a
/// heap-only accessor), and bit-identical LSH-SS estimates at every τ —
/// single-τ serving path and the batch curve alike.
fn assert_tiers_equivalent(heap: &EstimationEngine, mapped: &EstimationEngine, context: &str) {
    let (sh, sm) = (heap.snapshot(), mapped.snapshot());
    assert_eq!(sh.epoch(), sm.epoch(), "{context}: epoch");
    assert_eq!(sh.global_ids(), sm.global_ids(), "{context}: global ids");
    assert_eq!(
        IndexView::nh(sh.as_ref()),
        IndexView::nh(sm.as_ref()),
        "{context}: N_H"
    );
    assert_eq!(
        IndexView::total_pairs(sh.as_ref()),
        IndexView::total_pairs(sm.as_ref()),
        "{context}: total pairs"
    );
    assert_eq!(
        IndexView::nl(sh.as_ref()),
        IndexView::nl(sm.as_ref()),
        "{context}: N_L"
    );
    assert_eq!(
        pair_columns(sh.as_ref()),
        pair_columns(sm.as_ref()),
        "{context}: pair columns"
    );
    for tau in TAUS {
        let (eh, em) = (heap.estimate(tau), mapped.estimate(tau));
        assert_eq!(eh, em, "{context}: LSH-SS at τ={tau}");
    }
    assert_eq!(
        heap.estimate_batch(&TAUS),
        mapped.estimate_batch(&TAUS),
        "{context}: batch curve"
    );
}

/// The members of every pair bucket in alias-column order, read through
/// the draw primitive `pair_bucket_pick`.
fn pair_columns(view: &impl IndexView) -> Vec<Vec<VectorId>> {
    let columns = view.pair_alias().map_or(0, |alias| alias.len());
    (0..columns)
        .map(|col| {
            let mut count = 0;
            view.pair_bucket_pick(col, |b| {
                count = b;
                (0, 0)
            });
            (0..count)
                .map(|i| view.pair_bucket_pick(col, |_| (i, i)).0)
                .collect()
        })
        .collect()
}

/// Builds a durable run: `pre` inserts, checkpoint, `post` tail inserts
/// (+ a publish barrier when the tail is non-empty), then kills the
/// engine so the tail lives only in the WAL.
fn seed_dir(dir: &Path, seed: u64, pre: u32, post: u32) {
    let engine =
        EstimationEngine::durable_with(config(seed), dir, options(StorageTier::Heap)).unwrap();
    for i in 0..pre {
        engine.insert(members(i % 25, 2 + i % 5));
    }
    engine.checkpoint().unwrap();
    for i in 0..post {
        engine.insert(members((pre + i) % 25, 2 + i % 5));
    }
    if post > 0 {
        engine.publish();
    }
    drop(engine);
}

fn recover(dir: &Path, tier: StorageTier) -> EstimationEngine {
    EstimationEngine::recover_with(dir, options(tier)).unwrap()
}

// --- serving parity ---------------------------------------------------------

#[test]
fn mapped_recovery_reports_mapped_tier_and_serves_base_rows() {
    let dir = fresh_dir("tier");
    seed_dir(&dir, 7, 12, 0);

    let mapped = recover(&dir, StorageTier::Mapped);
    assert_eq!(mapped.storage_tier(), StorageTier::Mapped);
    assert!(mapped.snapshot().is_mapped());
    assert_eq!(mapped.stats().live, 12, "base rows count as live");
    for id in 0..12u64 {
        assert!(mapped.contains(id), "base row {id} must be visible");
    }
    assert!(!mapped.contains(12));

    let heap = recover(&dir, StorageTier::Heap);
    assert_eq!(heap.storage_tier(), StorageTier::Heap);
    assert!(!heap.snapshot().is_mapped());
    assert_tiers_equivalent(&heap, &mapped, "checkpoint only");
    std::fs::remove_dir_all(&dir).ok();
}

/// Map + go decodes no row, and neither does serving: a mapped engine
/// scores base rows straight from the checkpoint's payload blocks, so
/// the materialized gauge stays 0 through recovery, an estimate and an
/// audit (which copies its rows out of the payload and keeps none).
/// (The answers equal the heap tier's:
/// `mapped_recovery_reports_mapped_tier_and_serves_base_rows`.)
#[test]
fn mapped_serving_and_auditing_materialize_no_row() {
    let dir = fresh_dir("coldstart");
    seed_dir(&dir, 5, 40, 0);
    let mapped = recover(&dir, StorageTier::Mapped);
    let materialized = || {
        mapped.stats();
        let exposition = mapped.metrics().render();
        exposition
            .lines()
            .find_map(|line| line.strip_prefix("vsj_engine_mapped_materialized_vectors "))
            .expect("mapped engines export the materialized gauge")
            .parse::<u64>()
            .expect("integer gauge")
    };
    assert_eq!(materialized(), 0, "recovery must decode no row");
    mapped.estimate(0.6);
    assert_eq!(materialized(), 0, "scoring pairs must decode no row");
    let audited = mapped.audit_once(&AuditOptions::default());
    assert!(audited.is_some(), "a served τ is audited");
    assert_eq!(materialized(), 0, "an audit must keep no decoded row");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_recovery_replays_wal_tail_onto_base() {
    let dir = fresh_dir("tail");
    seed_dir(&dir, 11, 10, 6);

    let mapped = recover(&dir, StorageTier::Mapped);
    assert_eq!(mapped.storage_tier(), StorageTier::Mapped);
    assert_eq!(mapped.stats().live, 16, "base + tail rows are live");
    for id in 0..16u64 {
        assert!(mapped.contains(id), "row {id} must be visible");
    }

    let heap = recover(&dir, StorageTier::Heap);
    assert_tiers_equivalent(&heap, &mapped, "wal tail");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_engine_keeps_ingesting_and_publishing() {
    let dir = fresh_dir("ingest");
    seed_dir(&dir, 13, 8, 3);

    let mapped = recover(&dir, StorageTier::Mapped);
    let heap = recover(&dir, StorageTier::Heap);

    for i in 0..9u32 {
        let a = heap.insert(members(i % 20, 3 + i % 4));
        let b = mapped.insert(members(i % 20, 3 + i % 4));
        assert_eq!(a, b, "both tiers allocate the same global id");
    }
    assert_eq!(heap.publish(), mapped.publish());
    assert_eq!(mapped.storage_tier(), StorageTier::Mapped, "still mapped");
    assert_tiers_equivalent(&heap, &mapped, "post-recovery publish");

    // A second wave forces delta-over-delta extension of the mapped view.
    for i in 0..5u32 {
        heap.insert(members(i, 4));
        mapped.insert(members(i, 4));
    }
    assert_eq!(heap.publish(), mapped.publish());
    assert_tiers_equivalent(&heap, &mapped, "second publish");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_and_mapped_snapshots_draw_from_equal_pair_columns() {
    let dir = fresh_dir("columns");
    seed_dir(&dir, 29, 60, 15);
    let heap = recover(&dir, StorageTier::Heap);
    let mapped = recover(&dir, StorageTier::Mapped);
    let columns = |engine: &EstimationEngine| pair_columns(engine.snapshot().as_ref());
    let slabs_equal = |context: &str| {
        assert_eq!(
            heap.snapshot().slab(),
            mapped.snapshot().slab(),
            "{context}: bucket slab"
        );
    };
    let recovered = columns(&heap);
    assert!(!recovered.is_empty(), "the corpus has same-bucket pairs");
    assert_eq!(recovered, columns(&mapped), "base + WAL tail");
    slabs_equal("base + WAL tail");

    // A tombstoned base row, an upserted one, and overlay inserts.
    for engine in [&heap, &mapped] {
        assert!(engine.remove(3));
        assert!(engine.upsert(5, members(0, 2)));
        for i in 0..6 {
            engine.insert(members(i, 3));
        }
    }
    assert_eq!(heap.publish(), mapped.publish());
    assert_eq!(mapped.storage_tier(), StorageTier::Mapped, "still mapped");
    assert_eq!(columns(&heap), columns(&mapped), "tombstones + overlay");
    slabs_equal("tombstones + overlay");
    std::fs::remove_dir_all(&dir).ok();
}

// --- tombstoned mutation ----------------------------------------------------

#[test]
fn remove_tombstones_base_row_on_mapped_tier() {
    let dir = fresh_dir("remove");
    seed_dir(&dir, 17, 6, 0);
    let mapped = recover(&dir, StorageTier::Mapped);
    let heap = recover(&dir, StorageTier::Heap);

    assert!(mapped.remove(0), "base row 0 is live");
    assert!(heap.remove(0));
    assert!(!mapped.remove(0), "a second remove finds nothing");
    assert!(!mapped.contains(0), "tombstone is visible pre-publish");
    assert_eq!(heap.publish(), mapped.publish());

    assert_eq!(mapped.storage_tier(), StorageTier::Mapped, "still mapped");
    assert_eq!(mapped.stats().tombstones, 1);
    assert_eq!(mapped.stats().live, 5);
    assert_tiers_equivalent(&heap, &mapped, "tombstoned remove");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn upsert_replaces_base_row_on_mapped_tier() {
    let dir = fresh_dir("upsert");
    seed_dir(&dir, 19, 6, 0);
    let mapped = recover(&dir, StorageTier::Mapped);
    let heap = recover(&dir, StorageTier::Heap);

    assert!(mapped.upsert(0, members(1, 3)), "base row 0 is replaced");
    assert!(heap.upsert(0, members(1, 3)));
    assert!(mapped.contains(0), "an upserted row stays visible");
    assert_eq!(heap.publish(), mapped.publish());

    assert_eq!(mapped.storage_tier(), StorageTier::Mapped, "still mapped");
    assert_eq!(mapped.stats().live, 6, "replacement, not growth");
    assert_tiers_equivalent(&heap, &mapped, "tombstoned upsert");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_tail_with_remove_recovers_mapped() {
    let dir = fresh_dir("tail_remove");
    {
        let engine =
            EstimationEngine::durable_with(config(23), &dir, options(StorageTier::Heap)).unwrap();
        for i in 0..8u32 {
            engine.insert(members(i, 3));
        }
        engine.checkpoint().unwrap();
        engine.insert(members(9, 3));
        assert!(engine.remove(2), "tail remove under test");
        assert!(engine.upsert(4, members(11, 2)), "tail upsert under test");
        engine.publish();
    }

    // A destructive tail replays into tombstones + overlay: recovery
    // stays on the mapped tier.
    let mapped = recover(&dir, StorageTier::Mapped);
    assert_eq!(mapped.storage_tier(), StorageTier::Mapped);
    assert!(!mapped.contains(2), "the tail remove must have applied");
    assert!(mapped.contains(4), "the tail upsert must have applied");
    assert_eq!(mapped.stats().tombstones, 2, "remove + upsert tombstone");

    let heap = recover(&dir, StorageTier::Heap);
    assert_tiers_equivalent(&heap, &mapped, "destructive tail");
    std::fs::remove_dir_all(&dir).ok();
}

// --- tier-equivalence property test -----------------------------------------

mod tier_equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The acceptance property: for a random append-only ingest
        /// sequence with a checkpoint somewhere in the middle (the rest
        /// left as a WAL tail), recovering the same directory with
        /// `StorageTier::Mapped` and `StorageTier::Heap` yields
        /// bit-identical LSH-SS estimates at every published
        /// (seed, epoch, τ) — before and after a further publish on
        /// both tiers.
        #[test]
        fn mapped_recovery_is_bit_identical_to_heap_recovery(
            pre in 1u32..30,
            post in 0u32..15,
            seed in 0u64..1000,
            extra in 0u32..8,
        ) {
            let dir = fresh_dir("prop");
            seed_dir(&dir, seed, pre, post);
            let snapshot_dir = fresh_dir("prop_clone");
            clone_dir(&dir, &snapshot_dir);

            let heap = recover(&dir, StorageTier::Heap);
            let mapped = recover(&snapshot_dir, StorageTier::Mapped);
            prop_assert_eq!(mapped.storage_tier(), StorageTier::Mapped);
            prop_assert_eq!(heap.current_epoch(), mapped.current_epoch());
            assert_tiers_equivalent(&heap, &mapped, "recovered");

            for i in 0..extra {
                heap.insert(members(i % 25, 2 + i % 5));
                mapped.insert(members(i % 25, 2 + i % 5));
            }
            prop_assert_eq!(heap.publish(), mapped.publish());
            assert_tiers_equivalent(&heap, &mapped, "post-publish");

            std::fs::remove_dir_all(&dir).ok();
            std::fs::remove_dir_all(&snapshot_dir).ok();
        }
    }
}
