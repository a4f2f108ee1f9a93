//! Minor compaction of the mapped tier: background fold of the heap
//! overlay + tombstone set into a fresh v3 checkpoint, atomically
//! re-mapped under live traffic.
//!
//! The compaction contract under test:
//!
//! * **Answer preservation** — a compaction is a publish barrier plus a
//!   representation change: estimates at every (seed, epoch, τ) are
//!   bit-identical to a from-scratch heap engine fed the same op
//!   sequence, before, at, and after the fold. Pinned by the
//!   interleaving property test below.
//! * **Crash safety** — the fold is disk-first (tmp write → atomic
//!   rename → WAL truncation → in-memory re-map), so killing the
//!   process at *any* phase recovers onto a consistent generation:
//!   either the pre-compaction base + full WAL or the compacted base,
//!   both answering identically. Pinned by the synthetic crash-state
//!   matrix and the byte-flip sweep over the compacted container.
//! * **Resource reclamation** — after a fold the published overlay
//!   holds ~0 heap bytes, the tombstone set is empty, and every sealed
//!   WAL segment behind the cut is unlinked (O(files)); recovery
//!   re-decodes no covered record.
//! * **Liveness** — writers, readers, and the background [`Compactor`]
//!   race freely; answers stay pinned per epoch throughout (soak test).
//!
//! `VSJ_TEST_FSYNC` (`never` / `always`) selects the fsync policy, as
//! in `tests/recovery.rs`, so the CI matrix exercises the shared-flush
//! commit protocol under compaction too.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use vsj::prelude::*;
use vsj::service::persist::{self, CHECKPOINT_FILE};
use vsj::service::wal;

/// Fresh per-test storage directory (tests run in parallel).
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vsj_compaction_{tag}_{}_{}",
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

/// The fsync policy the CI matrix selects (default `Never`). Any other
/// value fails loudly rather than silently running `Never`.
fn test_fsync() -> FsyncPolicy {
    match std::env::var("VSJ_TEST_FSYNC") {
        Err(std::env::VarError::NotPresent) => FsyncPolicy::Never,
        Ok(value) if value == "never" => FsyncPolicy::Never,
        Ok(value) if value == "always" => FsyncPolicy::Always,
        other => panic!("VSJ_TEST_FSYNC must be unset, `never` or `always`, not {other:?}"),
    }
}

/// Small segments (1 KiB) so compaction cuts cross segment boundaries.
fn options(tier: StorageTier) -> DurabilityOptions {
    DurabilityOptions {
        segment_bytes: 1024,
        fsync: test_fsync(),
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

/// Tier-agnostic equivalence through `IndexView` (a mapped snapshot has
/// no heap table) plus bit-identical LSH-SS estimates at every τ. A warm
/// engine (a long-lived reference) may serve an answer from its
/// snapshot's memo where a fresh one (a just-recovered survivor)
/// samples: every field but `cached` must still agree, so the memo is
/// checked against a fresh pass at the *current* epoch.
fn assert_tiers_equivalent(a: &EstimationEngine, b: &EstimationEngine, context: &str) {
    let answer = |e: ServiceEstimate| ServiceEstimate { cached: false, ..e };
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.epoch(), sb.epoch(), "{context}: epoch");
    assert_eq!(sa.global_ids(), sb.global_ids(), "{context}: global ids");
    assert_eq!(
        IndexView::nh(sa.as_ref()),
        IndexView::nh(sb.as_ref()),
        "{context}: N_H"
    );
    assert_eq!(
        IndexView::total_pairs(sa.as_ref()),
        IndexView::total_pairs(sb.as_ref()),
        "{context}: total pairs"
    );
    for tau in TAUS {
        assert_eq!(
            answer(a.estimate(tau)),
            answer(b.estimate(tau)),
            "{context}: LSH-SS at τ={tau}"
        );
    }
    assert_eq!(
        a.estimate_batch(&TAUS)
            .into_iter()
            .map(answer)
            .collect::<Vec<_>>(),
        b.estimate_batch(&TAUS)
            .into_iter()
            .map(answer)
            .collect::<Vec<_>>(),
        "{context}: batch curve"
    );
}

/// Builds a durable heap run (`pre` inserts + checkpoint) and kills it,
/// leaving a mappable v3 base.
fn seed_dir(dir: &Path, seed: u64, pre: u32) {
    seed_dir_with(dir, seed, (0..pre).map(|i| members(i % 25, 2 + i % 5)));
}

/// [`seed_dir`] over caller-chosen rows.
fn seed_dir_with(dir: &Path, seed: u64, rows: impl Iterator<Item = SparseVector>) {
    let engine =
        EstimationEngine::durable_with(config(seed), dir, options(StorageTier::Heap)).unwrap();
    for row in rows {
        engine.insert(row);
    }
    engine.checkpoint().unwrap();
    drop(engine);
}

fn recover(dir: &Path, tier: StorageTier) -> EstimationEngine {
    EstimationEngine::recover_with(dir, options(tier)).unwrap()
}

// --- the fold itself --------------------------------------------------------

#[test]
fn compact_folds_overlay_and_tombstones_without_changing_answers() {
    let dir = fresh_dir("fold");
    seed_dir(&dir, 7, 16);
    let heap_dir = fresh_dir("fold_heap");
    clone_dir(&dir, &heap_dir);

    let mapped = recover(&dir, StorageTier::Mapped);
    let heap = recover(&heap_dir, StorageTier::Heap);

    // Dirty the overlay and the tombstone set on both engines alike.
    let script = |e: &EstimationEngine| {
        for i in 0..6u32 {
            e.insert(members(30 + i, 3 + i % 4));
        }
        assert!(e.remove(2));
        assert!(e.remove(9));
        assert!(e.upsert(5, members(40, 4)));
    };
    script(&mapped);
    script(&heap);
    assert_eq!(heap.publish(), mapped.publish());
    assert_tiers_equivalent(&heap, &mapped, "dirty overlay");

    let stats = mapped.stats();
    assert!(stats.overlay_bytes > 0, "the overlay must hold heap bytes");
    assert_eq!(stats.tombstones, 3, "2 removes + 1 upsert of base rows");
    assert_eq!(stats.compactions, 0);

    // The fold: one epoch boundary on both sides (a heap checkpoint is
    // the same barrier without the representation change).
    let folded_epoch = mapped.compact().unwrap();
    assert_eq!(heap.checkpoint().unwrap(), folded_epoch);
    assert_eq!(mapped.storage_tier(), StorageTier::Mapped, "still mapped");
    let stats = mapped.stats();
    assert_eq!(stats.overlay_bytes, 0, "overlay folded into the base");
    assert_eq!(stats.tombstones, 0, "tombstones folded into the base");
    assert_eq!(stats.compactions, 1);
    assert!(mapped
        .metrics()
        .render()
        .contains("vsj_engine_compactions_total 1"));
    assert_tiers_equivalent(&heap, &mapped, "after fold");

    // The folded base keeps serving mutations: remove a row that was in
    // the *overlay* before the fold (now a mapped base row).
    let overlay_gid = 16u64; // first post-recovery insert
    assert!(
        mapped.remove(overlay_gid),
        "folded overlay row is a base row"
    );
    assert!(heap.remove(overlay_gid));
    for i in 0..3u32 {
        mapped.insert(members(50 + i, 3));
        heap.insert(members(50 + i, 3));
    }
    assert_eq!(heap.publish(), mapped.publish());
    assert_eq!(
        mapped.stats().tombstones,
        1,
        "fresh tombstone on the new base"
    );
    assert_tiers_equivalent(&heap, &mapped, "post-fold mutation");

    // A second life recovers straight onto the compacted generation.
    drop(mapped);
    let revived = recover(&dir, StorageTier::Mapped);
    heap.publish();
    revived.publish();
    assert_tiers_equivalent(&heap, &revived, "post-fold recovery");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&heap_dir).ok();
}

#[test]
fn compact_on_heap_tier_degenerates_to_checkpoint() {
    let dir = fresh_dir("heap_compact");
    seed_dir(&dir, 11, 8);
    let engine = recover(&dir, StorageTier::Heap);
    engine.insert(members(1, 4));
    let epoch = engine.compact().unwrap();
    assert_eq!(engine.current_epoch(), epoch);
    assert_eq!(engine.stats().compactions, 0, "nothing was folded");
    assert_eq!(engine.wal_pending(), 0, "but the checkpoint was cut");
    std::fs::remove_dir_all(&dir).ok();
}

// --- the bucket directory, across builds and tiers ---------------------------

/// The pair buckets a view exposes through its storage primitives, in
/// alias-column order: one member list (`b_j` ids) per column.
fn pair_columns<V: IndexView>(view: &V) -> Vec<Vec<u32>> {
    let columns = view.pair_alias().map_or(0, |alias| alias.len());
    (0..columns)
        .map(|col| {
            let mut b = 0;
            view.pair_bucket_pick(col, |len| {
                b = len;
                (0, 0)
            });
            (0..b)
                .map(|i| view.pair_bucket_pick(col, |_| (i, i)).0)
                .collect()
        })
        .collect()
}

type Pair = Option<(u32, u32)>;

/// 1 000 draws of each kind from one seed agree pair for pair.
fn assert_same_draws<A: IndexView, B: IndexView>(a: &A, b: &B, context: &str) {
    let mut ra = Xoshiro256::seeded(0xD1EC);
    let mut rb = Xoshiro256::seeded(0xD1EC);
    for _ in 0..1000 {
        let same = a.sample_same_bucket_pair(&mut ra);
        assert!(same.is_some(), "{context}: fixture has an S_H");
        assert_eq!(same, b.sample_same_bucket_pair(&mut rb), "{context}: S_H");
    }
    for _ in 0..1000 {
        let cross = a.sample_cross_bucket_pair(&mut ra);
        assert!(cross.is_some(), "{context}: fixture has an S_L");
        assert_eq!(cross, b.sample_cross_bucket_pair(&mut rb), "{context}: S_L");
    }
    for _ in 0..1000 {
        assert_eq!(
            a.sample_any_pair(&mut ra),
            b.sample_any_pair(&mut rb),
            "{context}: any pair"
        );
    }
}

/// One SampleH and one SampleL draw.
fn stratum_draws<V: IndexView>(view: &V) -> (Pair, Pair) {
    let mut rng = Xoshiro256::seeded(3);
    (
        view.sample_same_bucket_pair(&mut rng),
        view.sample_cross_bucket_pair(&mut rng),
    )
}

#[test]
fn bucket_directory_is_identical_across_builds_and_tiers() {
    use vsj::lsh::{BucketHasher, Composite};
    use vsj::vector::VectorStore;

    let hasher = || std::sync::Arc::new(Composite::derive(MinHashFamily::new(), 7, 0, 8));

    // A mapped snapshot whose pair buckets take every shape the view
    // knows. Base row i is `members(i % 25, 2 + i % 5)`, so gids i,
    // i + 25 and i + 50 are duplicates.
    let dir = fresh_dir("directory");
    seed_dir(&dir, 7, 60);
    let mapped = recover(&dir, StorageTier::Mapped);
    assert!(mapped.remove(2), "tombstone inside bucket {{2, 27, 52}}");
    assert!(mapped.remove(9), "tombstone inside bucket {{9, 34, 59}}");
    // Interleaving upsert: the overlay row (gid 5) sorts *below* the
    // base members {7, 32, 57} of the bucket it joins.
    assert!(mapped.upsert(5, members(7, 4)));
    // Append-only overlay: joins base bucket {3, 28, 53} from above...
    mapped.insert(members(3, 5));
    // ...and a bucket that lives in the overlay alone.
    mapped.insert(members(100, 3));
    mapped.insert(members(100, 3));
    mapped.publish();
    let snapshot = mapped.snapshot();
    assert!(snapshot.is_mapped());
    assert_eq!(mapped.stats().tombstones, 3);

    // The same live rows, in the same (gid) order, as a batch-built
    // heap table and as a chain of one-row deltas (one linear slab merge
    // per row).
    let n = snapshot.len() as u32;
    let keys: Vec<u64> = (0..n)
        .map(|id| hasher().key(VectorStore::vector(snapshot.as_ref(), id)))
        .collect();
    let batch = LshTable::from_parts(hasher(), keys.clone());
    let mut chain = LshTable::from_parts(hasher(), Vec::new());
    for key in &keys {
        chain = LshTable::from_parts_delta(&chain, std::slice::from_ref(key));
    }

    let columns = pair_columns(&batch);
    assert!(
        columns.iter().any(|c| c.len() == 4) && columns.len() > 10,
        "fixture must have plenty of pair buckets, one of them {{5, 7, 32, 57}}: {columns:?}"
    );
    for members in &columns {
        assert!(members.windows(2).all(|w| w[0] < w[1]), "ids ascend");
    }
    assert_eq!(pair_columns(&chain), columns, "delta chain: columns");
    assert_eq!(pair_columns(snapshot.as_ref()), columns, "mapped: columns");
    let nh: u64 = columns
        .iter()
        .map(|c| vsj::sampling::pair_count(c.len() as u64))
        .sum();
    assert_eq!(batch.nh(), nh);
    assert_eq!(chain.nh(), nh);
    assert_eq!(IndexView::nh(snapshot.as_ref()), nh);

    assert_same_draws(&batch, &chain, "delta chain");
    assert_same_draws(&batch, snapshot.as_ref(), "mapped");

    // Degenerate views, on both tiers: nothing panics, and a stratum
    // without pairs answers `None`.
    let mapped_over = |tag: &str, rows: Vec<SparseVector>| {
        let dir = fresh_dir(tag);
        seed_dir_with(&dir, 7, rows.into_iter());
        let snapshot = recover(&dir, StorageTier::Mapped).snapshot();
        assert!(snapshot.is_mapped());
        snapshot
    };
    // n = 0 and n = 1: no pair at all.
    for n in 0..2usize {
        let heap = LshTable::from_parts(hasher(), vec![9; n]);
        assert_eq!(stratum_draws(&heap), (None, None), "heap, n = {n}");
        let mapped = mapped_over("tiny", vec![members(1, 3); n]);
        assert_eq!(IndexView::len(mapped.as_ref()), n);
        assert_eq!(
            stratum_draws(mapped.as_ref()),
            (None, None),
            "mapped, n = {n}"
        );
    }
    // Every row in one bucket: S_L is empty.
    let heap = LshTable::from_parts(hasher(), vec![9; 5]);
    let mapped = mapped_over("one_bucket", vec![members(1, 3); 5]);
    for (same, cross) in [stratum_draws(&heap), stratum_draws(mapped.as_ref())] {
        assert!(same.is_some());
        assert_eq!(cross, None);
    }
    // Every row in a bucket of its own: S_H is empty.
    let heap = LshTable::from_parts(hasher(), (0..5).collect());
    let mapped = mapped_over("distinct", (0..5).map(|i| members(10 * i, 3)).collect());
    for (same, cross) in [stratum_draws(&heap), stratum_draws(mapped.as_ref())] {
        assert_eq!(same, None);
        assert!(cross.is_some());
    }
}

// --- WAL truncation after the fold ------------------------------------------

#[test]
fn compaction_cut_unlinks_covered_segments_and_replays_nothing() {
    let dir = fresh_dir("truncate");
    seed_dir(&dir, 13, 10);
    let mapped = recover(&dir, StorageTier::Mapped);

    // Rotate every shard's chain: 1 KiB segments fill fast.
    for i in 0..30u32 {
        mapped.insert(members(i % 9, 12));
    }
    assert!(mapped.remove(0));
    assert!(mapped.remove(4));
    mapped.publish();
    assert!(
        mapped.stats().wal_rotations >= 3,
        "the scenario must span segment boundaries"
    );
    let before: usize = (0..3).map(|s| wal::segment_files(&dir, s).len()).sum();
    assert!(before > 3, "rotated chains hold sealed segments");

    mapped.compact().unwrap();
    assert_eq!(mapped.wal_pending(), 0, "the cut covers the whole log");
    // O(files) reclamation: only each shard's fresh active segment
    // survives, and no surviving segment carries a single record the
    // compacted checkpoint already owns.
    for shard in 0..3usize {
        let files = wal::segment_files(&dir, shard);
        assert_eq!(
            files.len(),
            1,
            "shard {shard}: sealed segments behind the horizon must be unlinked"
        );
        let entries = wal::read_segment(&files[0]).unwrap().entries;
        assert!(
            entries.is_empty(),
            "shard {shard}: recovery would re-decode {} covered records",
            entries.len()
        );
    }
    drop(mapped);
    let revived = recover(&dir, StorageTier::Mapped);
    assert_eq!(revived.stats().live, 10 + 30 - 2);
    std::fs::remove_dir_all(&dir).ok();
}

// --- crash-injection matrix -------------------------------------------------

/// Runs the compaction scenario once for real, capturing the directory
/// immediately *before* the `compact()` call (`pre`) and after it
/// (`post`), plus the compacted container bytes. The synthetic crash
/// states of the matrix are spliced from these two endpoints — exactly
/// the intermediate directory contents the fold protocol (tmp write →
/// rename → truncate → unlink) passes through.
struct CompactionRun {
    pre: PathBuf,
    post: PathBuf,
    seed: u64,
}

impl CompactionRun {
    fn build(seed: u64) -> Self {
        let dir = fresh_dir("matrix");
        seed_dir(&dir, seed, 12);
        let mapped = recover(&dir, StorageTier::Mapped);
        Self::dirty(&mapped);
        mapped.publish();
        drop(mapped);

        let pre = fresh_dir("matrix_pre");
        clone_dir(&dir, &pre);
        let mapped = recover(&dir, StorageTier::Mapped);
        mapped.compact().unwrap();
        drop(mapped);
        let post = fresh_dir("matrix_post");
        clone_dir(&dir, &post);
        std::fs::remove_dir_all(&dir).ok();
        Self { pre, post, seed }
    }

    /// The mutation script both the scenario and the reference run.
    fn dirty(e: &EstimationEngine) {
        for i in 0..8u32 {
            e.insert(members(30 + i, 3 + i % 4));
        }
        assert!(e.remove(1));
        assert!(e.remove(6));
        assert!(e.upsert(3, members(40, 5)));
    }

    /// From-scratch reference at the same seed: the full logical
    /// history, never serialized, published to the same epoch count as
    /// a recovery of `state` would reach after one more publish.
    fn reference(&self) -> EstimationEngine {
        let reference = EstimationEngine::new(config(self.seed));
        for i in 0..12u32 {
            reference.insert(members(i % 25, 2 + i % 5));
        }
        reference.publish(); // the seed checkpoint's epoch
        Self::dirty(&reference);
        reference.publish(); // the pre-compaction publish
        reference
    }
}

impl Drop for CompactionRun {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.pre).ok();
        std::fs::remove_dir_all(&self.post).ok();
    }
}

#[test]
fn crash_at_every_compaction_phase_recovers_a_consistent_generation() {
    let run = CompactionRun::build(17);
    let compacted = std::fs::read(run.post.join(CHECKPOINT_FILE)).unwrap();

    // Phase boundaries as directory states. `pre` and `post` bracket
    // the protocol; the two synthetic middles are the crash windows the
    // protocol is *designed* around: tmp written but not renamed, and
    // renamed but the WAL not yet truncated.
    let tmp_written = fresh_dir("matrix_tmp");
    clone_dir(&run.pre, &tmp_written);
    std::fs::write(tmp_written.join("checkpoint.vsjc.tmp"), &compacted).unwrap();

    // Post-rename, pre-truncation: the fold appends its publish barrier
    // to the WAL *before* the rename, so the faithful state carries
    // that barrier record too — append a real one (a publish barrier's
    // encoding does not depend on which call logged it), then splice in
    // the compacted container over the old base.
    let renamed_wal_intact = fresh_dir("matrix_renamed");
    clone_dir(&run.pre, &renamed_wal_intact);
    let barrier = recover(&renamed_wal_intact, StorageTier::Mapped);
    barrier.publish();
    drop(barrier);
    std::fs::write(renamed_wal_intact.join(CHECKPOINT_FILE), &compacted).unwrap();

    let states: [(&str, &Path); 4] = [
        ("before the tmp write", &run.pre),
        ("after the tmp write, before the rename", &tmp_written),
        (
            "after the rename, before WAL truncation",
            &renamed_wal_intact,
        ),
        ("after truncation, before the re-map", &run.post),
    ];
    for (phase, state) in states {
        // Both tiers must recover the state without error, agree with
        // each other, and agree with the from-scratch reference — the
        // no-silent-data-loss bar: whichever generation the crash
        // landed on, the logical state (base + WAL) is complete.
        let work_mapped = fresh_dir("matrix_work_m");
        let work_heap = fresh_dir("matrix_work_h");
        clone_dir(state, &work_mapped);
        clone_dir(state, &work_heap);
        let mapped = recover(&work_mapped, StorageTier::Mapped);
        assert_eq!(
            mapped.storage_tier(),
            StorageTier::Mapped,
            "crash {phase}: the v3 base must stay mappable"
        );
        let heap = recover(&work_heap, StorageTier::Heap);
        let landed = mapped.current_epoch();
        assert_eq!(
            heap.current_epoch(),
            landed,
            "crash {phase}: both tiers land on the same generation"
        );
        assert!(
            landed == 2 || landed == 3,
            "crash {phase}: recovery must land on a published generation, got epoch {landed}"
        );
        // Advance the from-scratch reference to the landed epoch: the
        // pre-rename states replay the full WAL onto the old base
        // (epoch 2); the post-rename states serve the compacted base
        // (epoch 3, identical rows, one more barrier).
        let reference = run.reference();
        if landed == 3 {
            reference.publish();
        }
        assert_tiers_equivalent(&reference, &mapped, &format!("crash {phase} (mapped)"));
        assert_tiers_equivalent(&reference, &heap, &format!("crash {phase} (heap)"));
        // A stale tmp must be reclaimed, never mistaken for a base.
        assert!(
            !work_mapped.join("checkpoint.vsjc.tmp").exists(),
            "crash {phase}: stale tmp must be cleaned"
        );
        std::fs::remove_dir_all(&work_mapped).ok();
        std::fs::remove_dir_all(&work_heap).ok();
    }
    std::fs::remove_dir_all(&tmp_written).ok();
    std::fs::remove_dir_all(&renamed_wal_intact).ok();
}

#[test]
fn crash_during_generation_rotation_keeps_both_generations_loadable() {
    // With retention, the fold rotates the old base to `.1` (hard link)
    // before the rename. A crash in that window leaves the old base
    // twice — current and `.1` — plus the full WAL: both the normal
    // recovery and the explicit generation-1 view must load.
    let dir = fresh_dir("rotate_crash");
    seed_dir(&dir, 19, 10);
    let retain = DurabilityOptions {
        retain_checkpoints: 2,
        ..options(StorageTier::Mapped)
    };
    let mapped = EstimationEngine::recover_with(&dir, retain).unwrap();
    CompactionRun::dirty(&mapped);
    mapped.publish();
    let pre_answer = mapped.estimate(0.6);
    drop(mapped);

    // Splice the mid-rotation state: old base hard-linked to `.1`.
    let work = fresh_dir("rotate_crash_work");
    clone_dir(&dir, &work);
    std::fs::copy(
        work.join(CHECKPOINT_FILE),
        persist::generation_path(&work, 1),
    )
    .unwrap();

    let revived = EstimationEngine::recover_with(&work, retain).unwrap();
    assert_eq!(
        revived.estimate(0.6),
        pre_answer,
        "mid-rotation crash must recover the pre-fold answers"
    );
    drop(revived);
    let generation = EstimationEngine::recover_generation(&work, 1).unwrap();
    assert!(
        generation.current_epoch() >= 1,
        "the linked generation loads"
    );

    // And the completed fold afterwards leaves a loadable `.1` too.
    let finished = EstimationEngine::recover_with(&work, retain).unwrap();
    finished.compact().unwrap();
    drop(finished);
    assert!(persist::generation_path(&work, 1).exists());
    EstimationEngine::recover_generation(&work, 1).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn corrupting_any_byte_of_the_compacted_checkpoint_fails_loudly() {
    let run = CompactionRun::build(23);
    let compacted = std::fs::read(run.post.join(CHECKPOINT_FILE)).unwrap();
    let work = fresh_dir("matrix_corrupt");
    clone_dir(&run.post, &work);
    for at in 0..compacted.len() {
        let mut broken = compacted.clone();
        broken[at] ^= 0x20;
        std::fs::write(work.join(CHECKPOINT_FILE), &broken).unwrap();
        assert!(
            EstimationEngine::recover_with(&work, options(StorageTier::Mapped)).is_err(),
            "compacted byte {at} flipped: recovery must fail, not serve a wrong base"
        );
    }
    std::fs::remove_dir_all(&work).ok();
}

// --- trigger policy ---------------------------------------------------------

#[test]
fn overlay_bytes_trigger_fires_exactly_on_crossing() {
    let dir = fresh_dir("trigger_overlay");
    seed_dir(&dir, 29, 6);
    // One published overlay row of `members(40, 4)` encodes to a known
    // block size; pick the threshold between one and two rows.
    let probe = recover(&dir, StorageTier::Mapped);
    probe.insert(members(40, 4));
    probe.publish();
    let one_row = probe.stats().overlay_bytes;
    assert!(one_row > 0);
    drop(probe);

    let dir = fresh_dir("trigger_overlay_armed");
    seed_dir(&dir, 29, 6);
    let opts = DurabilityOptions {
        compact_overlay_bytes: Some(one_row + 1),
        ..options(StorageTier::Mapped)
    };
    let mapped = EstimationEngine::recover_with(&dir, opts).unwrap();
    assert!(!mapped.compaction_due(), "empty overlay: below threshold");
    mapped.insert(members(40, 4));
    mapped.publish();
    assert_eq!(mapped.stats().overlay_bytes, one_row);
    assert!(
        !mapped.compaction_due(),
        "exactly one row is below the threshold — the trigger must not fire early"
    );
    mapped.insert(members(40, 4));
    mapped.publish();
    assert!(
        mapped.compaction_due(),
        "the second row crosses the threshold"
    );
    mapped.compact().unwrap();
    assert!(!mapped.compaction_due(), "a fold re-arms the trigger");
    assert_eq!(mapped.stats().compactions, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tombstone_ratio_trigger_fires_exactly_on_crossing() {
    let dir = fresh_dir("trigger_ratio");
    seed_dir(&dir, 31, 8);
    let opts = DurabilityOptions {
        compact_tombstone_ratio: Some(0.5),
        ..options(StorageTier::Mapped)
    };
    let mapped = EstimationEngine::recover_with(&dir, opts).unwrap();
    for gid in 0..3u64 {
        assert!(mapped.remove(gid));
        assert!(
            !mapped.compaction_due(),
            "{} tombstones over 8 base rows is below ratio 0.5",
            gid + 1
        );
    }
    assert!(mapped.remove(3));
    assert!(
        mapped.compaction_due(),
        "4 tombstones over 8 base rows crosses ratio 0.5 exactly"
    );
    mapped.compact().unwrap();
    assert!(
        !mapped.compaction_due(),
        "the fold cleared the tombstones (4 rows live on an 4-row base)"
    );
    assert_eq!(mapped.stats().live, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_tier_and_unarmed_engines_are_never_due() {
    let dir = fresh_dir("trigger_unarmed");
    seed_dir(&dir, 37, 6);
    // No knobs set: a mapped engine with a dirty overlay is not due.
    let mapped = recover(&dir, StorageTier::Mapped);
    mapped.insert(members(1, 4));
    assert!(mapped.remove(0));
    mapped.publish();
    assert!(!mapped.compaction_due(), "both knobs default to None");
    drop(mapped);
    // Heap tier: armed knobs are ignored (nothing to fold).
    let opts = DurabilityOptions {
        compact_overlay_bytes: Some(1),
        compact_tombstone_ratio: Some(0.01),
        ..options(StorageTier::Heap)
    };
    let heap = EstimationEngine::recover_with(&dir, opts).unwrap();
    heap.insert(members(2, 4));
    heap.publish();
    assert!(!heap.compaction_due(), "heap engines have no overlay");
    // Non-durable engines are never due either.
    assert!(!EstimationEngine::new(config(37)).compaction_due());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compactor_thread_folds_when_due_and_counts_via_obs() {
    let dir = fresh_dir("compactor");
    seed_dir(&dir, 41, 10);
    let opts = DurabilityOptions {
        compact_overlay_bytes: Some(1),
        ..options(StorageTier::Mapped)
    };
    let engine = std::sync::Arc::new(EstimationEngine::recover_with(&dir, opts).unwrap());
    let compactor = Compactor::spawn(engine.clone(), Duration::from_millis(2), None);
    engine.insert(members(3, 5));
    engine.publish();
    // The overlay is non-empty and the threshold is 1 byte: the thread
    // must fold it promptly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.stats().compactions == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "compactor never folded a due overlay"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        engine.stats().overlay_bytes,
        0,
        "the fold emptied the overlay"
    );
    let folds = compactor.stop();
    assert!(folds >= 1, "stop() reports the folds taken");
    assert!(engine
        .metrics()
        .render()
        .contains("vsj_engine_compactions_total"));
    std::fs::remove_dir_all(&dir).ok();
}

// --- interleaving property test ---------------------------------------------

mod compaction_equivalence {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u32),
        Remove(u64),
        Upsert(u64, u32, u32),
        Publish,
        Compact,
        Recover,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored `prop_oneof!` is uniform over its arms; bias
        // toward mutations by repeating their arms.
        prop_oneof![
            (0u32..25, 2u32..7).prop_map(|(s, l)| Op::Insert(s, l)),
            (0u32..25, 2u32..7).prop_map(|(s, l)| Op::Insert(s, l)),
            (0u64..30).prop_map(Op::Remove),
            (0u64..30, 0u32..25, 2u32..7).prop_map(|(id, s, l)| Op::Upsert(id, s, l)),
            Just(Op::Publish),
            Just(Op::Compact),
            Just(Op::Recover),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The acceptance property: a mapped durable engine driven
        /// through random interleavings of ingest / remove / upsert /
        /// publish / **compact** / **recover** answers bit-identically
        /// to a from-scratch heap engine fed the same logical sequence,
        /// at every epoch both sides publish.
        #[test]
        fn interleaved_compaction_is_bit_identical_to_from_scratch(
            ops in proptest::collection::vec(op_strategy(), 1..25),
            pre in 1u32..15,
            seed in 0u64..1000,
        ) {
            let dir = fresh_dir("prop");
            seed_dir(&dir, seed, pre);
            let mut mapped = recover(&dir, StorageTier::Mapped);

            // From-scratch reference: same history, never serialized,
            // never mapped. A compact is a publish barrier to it.
            let reference = EstimationEngine::new(config(seed));
            for i in 0..pre {
                reference.insert(members(i % 25, 2 + i % 5));
            }
            reference.publish();
            assert_tiers_equivalent(&reference, &mapped, "seeded");

            for (at, op) in ops.iter().enumerate() {
                match *op {
                    Op::Insert(s, l) => {
                        prop_assert_eq!(
                            mapped.insert(members(s, l)),
                            reference.insert(members(s, l)),
                            "op {}: same id allocation", at
                        );
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(
                            mapped.remove(id),
                            reference.remove(id),
                            "op {}: same remove outcome", at
                        );
                    }
                    Op::Upsert(id, s, l) => {
                        prop_assert_eq!(
                            mapped.upsert(id, members(s, l)),
                            reference.upsert(id, members(s, l)),
                            "op {}: same upsert outcome", at
                        );
                    }
                    Op::Publish => {
                        prop_assert_eq!(mapped.publish(), reference.publish());
                        assert_tiers_equivalent(
                            &reference, &mapped, &format!("op {at}: publish"));
                    }
                    Op::Compact => {
                        let epoch = mapped.compact().unwrap();
                        prop_assert_eq!(epoch, reference.publish());
                        prop_assert_eq!(mapped.storage_tier(), StorageTier::Mapped);
                        prop_assert_eq!(mapped.stats().overlay_bytes, 0);
                        prop_assert_eq!(mapped.stats().tombstones, 0);
                        assert_tiers_equivalent(
                            &reference, &mapped, &format!("op {at}: compact"));
                    }
                    Op::Recover => {
                        drop(mapped);
                        mapped = recover(&dir, StorageTier::Mapped);
                        prop_assert_eq!(
                            mapped.current_epoch(),
                            reference.current_epoch(),
                            "op {}: every published epoch replays", at
                        );
                        assert_tiers_equivalent(
                            &reference, &mapped, &format!("op {at}: recover"));
                    }
                }
            }
            prop_assert_eq!(mapped.publish(), reference.publish());
            assert_tiers_equivalent(&reference, &mapped, "final publish");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

// --- concurrent soak --------------------------------------------------------

/// Writers, readers, and the background compactor race for a while;
/// every estimate observed at a given (epoch, τ) must be bit-identical
/// no matter which side of a fold it was computed on, and no request
/// may error during the swaps.
#[test]
fn soak_writers_readers_and_compactor_pin_answers_per_epoch() {
    let dir = fresh_dir("soak");
    seed_dir(&dir, 43, 20);
    let opts = DurabilityOptions {
        compact_overlay_bytes: Some(64),
        compact_tombstone_ratio: Some(0.2),
        ..options(StorageTier::Mapped)
    };
    let engine = std::sync::Arc::new(EstimationEngine::recover_with(&dir, opts).unwrap());
    let compactor = Compactor::spawn(engine.clone(), Duration::from_millis(1), None);
    let stop = AtomicBool::new(false);
    // (epoch, τ-bits) → estimate-bits: the per-epoch answer pin.
    let pinned: Mutex<HashMap<(u64, u64), u64>> = Mutex::new(HashMap::new());

    std::thread::scope(|scope| {
        let engine = &engine;
        let stop = &stop;
        let pinned = &pinned;
        for w in 0..2u64 {
            scope.spawn(move || {
                for i in 0..300u64 {
                    let gid = engine.insert(members(((w * 300 + i) % 40) as u32, 4));
                    if i % 5 == 0 {
                        engine.remove(gid / 2);
                    }
                    if i % 4 == 0 {
                        engine.upsert(gid / 3, members((i % 17) as u32, 3));
                    }
                    if i % 25 == 0 {
                        engine.publish();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        for _ in 0..2 {
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for tau in TAUS {
                        let estimate = engine.estimate(tau);
                        let key = (estimate.epoch, tau.to_bits());
                        let bits = estimate.estimate.value.to_bits();
                        let mut pins = pinned.lock().unwrap();
                        if let Some(&seen) = pins.get(&key) {
                            assert_eq!(
                                seen, bits,
                                "estimate at (epoch {}, τ {tau}) changed across a fold",
                                estimate.epoch
                            );
                        } else {
                            pins.insert(key, bits);
                        }
                    }
                }
            });
        }
    });
    let folds = compactor.stop();
    assert!(folds >= 1, "the soak must race at least one real fold");
    assert!(
        pinned.lock().unwrap().len() >= 3,
        "readers must have pinned answers across epochs"
    );

    // The survivor still agrees with a from-scratch heap recovery.
    engine.publish();
    let heap_dir = fresh_dir("soak_heap");
    engine.checkpoint().unwrap();
    clone_dir(&dir, &heap_dir);
    let heap = recover(&heap_dir, StorageTier::Heap);
    heap.publish();
    engine.publish();
    assert_tiers_equivalent(&heap, &engine, "post-soak");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&heap_dir).ok();
}

// --- golden fixture: compacted v3 + tombstoned overlay generation -----------

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("golden-v3")
}

fn golden_config() -> ServiceConfig {
    ServiceConfig::builder()
        .shards(2)
        .k(8)
        .seed(2011)
        .family(IndexFamily::MinHash)
        .build()
}

fn golden_ops(engine: &EstimationEngine) {
    for i in 0..10u32 {
        engine.insert(members(i % 5, 3 + i % 4));
    }
}

/// The destructive tail the fixture carries in its v3 segments (must
/// mirror [`write_golden_v3`]).
fn golden_tail(engine: &EstimationEngine) {
    engine.insert(members(2, 5));
    assert!(engine.remove(1));
    assert!(engine.upsert(4, members(9, 4)));
}

/// Writes the fixture's generation into `dir` with today's writer: a
/// compacted checkpoint whose WAL tail tombstones base rows.
fn write_golden_v3(dir: &Path) {
    let engine = EstimationEngine::durable_with(
        golden_config(),
        dir,
        DurabilityOptions {
            segment_bytes: 1024,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    golden_ops(&engine);
    assert_eq!(engine.checkpoint().unwrap(), 1);
    golden_tail(&engine);
    engine.publish();
    drop(engine);
    std::fs::remove_file(dir.join("checkpoint.vsjc.tmp")).ok();
}

/// The files of `dir`, sorted by name, with their bytes.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Regenerates the committed v3 fixture. Run manually after an
/// *intentional* layout change:
/// `cargo test --test mapped_compaction -- --ignored regenerate_golden_v3_fixture`
#[test]
#[ignore = "writes the committed fixture; run only on intentional format changes"]
fn regenerate_golden_v3_fixture() {
    let dir = golden_dir();
    std::fs::remove_dir_all(&dir).ok();
    write_golden_v3(&dir);
    println!("golden v3 fixture regenerated at {}", dir.display());
}

/// The writer byte pin: today's checkpoint and WAL writers reproduce
/// the committed fixture byte for byte, so any change to the bytes
/// either writer lays down fails here.
#[test]
fn todays_writer_writes_the_golden_v3_fixture() {
    let dir = fresh_dir("golden_writer");
    write_golden_v3(&dir);
    let written = dir_files(&dir);
    let committed = dir_files(&golden_dir());
    let names =
        |files: &[(String, Vec<u8>)]| files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&written), names(&committed));
    assert_eq!(written.len(), 3, "a checkpoint and one segment per shard");
    for ((name, ours), (_, theirs)) in written.iter().zip(&committed) {
        assert!(ours == theirs, "{name} differs from the committed fixture");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_v3_fixture_recovers_mapped_with_tombstones_and_compacts() {
    let work = fresh_dir("golden_work");
    std::fs::create_dir_all(&work).unwrap();
    for entry in std::fs::read_dir(golden_dir())
        .expect("golden-v3 fixture missing; run regenerate_golden_v3_fixture")
        .flatten()
    {
        std::fs::copy(entry.path(), work.join(entry.file_name())).unwrap();
    }
    let recovered = EstimationEngine::recover_with(&work, options(StorageTier::Mapped)).unwrap();
    assert_eq!(recovered.storage_tier(), StorageTier::Mapped);
    assert_eq!(
        recovered.stats().tombstones,
        2,
        "remove + upsert of base rows"
    );

    let reference = EstimationEngine::new(golden_config());
    golden_ops(&reference);
    reference.publish();
    golden_tail(&reference);
    reference.publish();
    assert_tiers_equivalent(&reference, &recovered, "golden v3 recovery");

    // The committed generation must stay foldable: compaction rewrites
    // it through today's writer and answers must not move.
    recovered.compact().unwrap();
    reference.publish();
    assert_tiers_equivalent(&reference, &recovered, "golden v3 folded");
    assert_eq!(recovered.stats().tombstones, 0);
    std::fs::remove_dir_all(&work).ok();
}
