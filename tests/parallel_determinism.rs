//! Determinism battery for the data-parallel hot paths (vsj-pool).
//!
//! The parallelism contract under test — the pool is a **scheduling**
//! choice, never an **answer** choice:
//!
//! * **Estimate identity** — engines configured with
//!   `pool_threads ∈ {1, 2, 8}` and fed the same ingest sequence serve
//!   bit-identical `estimate` / `estimate_batch` answers at every
//!   published (seed, epoch, τ). One thread is the exact serial legacy
//!   path, so this pins pooled == serial, not merely pooled == pooled.
//! * **Checkpoint identity** — the checkpoint files durable engines cut
//!   (including a mapped-tier compaction's fold) are **byte-equal**
//!   across pool sizes: the batch pre-hash leaves no trace in the
//!   on-disk artifact.
//! * **Recovery identity** — recovering any of those byte-equal
//!   directories (heap and mapped tier alike) yields engines that
//!   serve bit-identically to an uninterrupted serial engine; a
//!   recovered engine sizes its pool from the environment
//!   (`VSJ_POOL_THREADS` — the CI matrix runs this whole battery at 1
//!   and 4), so the serving-side thread count is exercised there too.
//! * **Concurrent publish** — pooled `estimate_batch` fan-outs racing a
//!   writer's inserts/publishes and an in-flight checkpoint encode all
//!   return answers that replay bit-identically once the dust settles.
//!
//! A proptest sweeps random op sequences and τ grids over the same
//! three pool sizes.
//!
//! Every check runs under both index families: MinHash over binary
//! rows, and SimHash over weighted rows (negative weights included), so
//! the batched SimHash keys — f32 weights times f64 hyperplane
//! coordinates, summed per row — are held to the per-row bits too.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use vsj::prelude::*;
use vsj::service::persist::CHECKPOINT_FILE;

/// Fresh per-test storage directory (tests run in parallel).
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vsj_pardet_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const POOL_SIZES: [usize; 3] = [1, 2, 8];
const TAUS: [f64; 4] = [0.2, 0.5, 0.8, 0.95];
const FAMILIES: [IndexFamily; 2] = [IndexFamily::MinHash, IndexFamily::SimHash];

fn config(family: IndexFamily, seed: u64, pool_threads: usize) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(3)
        .k(8)
        .seed(seed)
        .family(family)
        .pool_threads(pool_threads)
        .build()
}

/// The row over dimensions `start..start + len`: binary for MinHash
/// (a set), weighted for SimHash, with weights of both signs that
/// depend on the dimension and on `start`.
fn members(family: IndexFamily, start: u32, len: u32) -> SparseVector {
    let dims = start..start + len;
    match family {
        IndexFamily::MinHash => SparseVector::binary_from_members(dims.collect()),
        IndexFamily::SimHash => SparseVector::from_entries(
            dims.map(|d| (d, ((d * 7 + start * 3) % 11) as f32 * 0.37 - 1.6))
                .collect(),
        )
        .expect("finite weights"),
    }
}

/// A deterministic mixed workload: two batch ingests (the pooled
/// pre-hash path), scattered single inserts, and a couple of removes,
/// with a publish after each phase so several epochs exist.
fn run_workload(engine: &EstimationEngine, family: IndexFamily) {
    let row = |start, len| members(family, start, len);
    let batch: Vec<SparseVector> = (0..120u32).map(|i| row(i % 37, 3 + i % 5)).collect();
    let ids = engine.insert_batch(batch);
    engine.publish();
    for i in 0..40u32 {
        engine.insert(row(100 + i % 23, 2 + i % 7));
    }
    engine.remove(ids[7]);
    engine.remove(ids[31]);
    engine.publish();
    let tail: Vec<SparseVector> = (0..64u32).map(|i| row(i % 19, 4 + i % 3)).collect();
    engine.insert_batch(tail);
    engine.publish();
}

/// The answer bits that must not depend on the pool: value, standard
/// error, epoch, size, τ — everything except the `cached` provenance
/// flag (whether an answer was served from cache depends on what was
/// asked before, not on how it was computed).
fn answer_bits(e: &ServiceEstimate) -> (u64, u64, u64, usize, u64) {
    (
        e.estimate.value.to_bits(),
        e.std_err.to_bits(),
        e.epoch,
        e.n,
        e.tau.to_bits(),
    )
}

/// Bitwise equality of served answers between two engines.
fn assert_serving_identical(a: &EstimationEngine, b: &EstimationEngine, context: &str) {
    assert_eq!(
        a.snapshot().epoch(),
        b.snapshot().epoch(),
        "{context}: epoch"
    );
    for tau in TAUS {
        assert_eq!(
            answer_bits(&a.estimate(tau)),
            answer_bits(&b.estimate(tau)),
            "{context}: τ={tau}"
        );
    }
    let (ca, cb) = (a.estimate_batch(&TAUS), b.estimate_batch(&TAUS));
    assert_eq!(
        ca.iter().map(answer_bits).collect::<Vec<_>>(),
        cb.iter().map(answer_bits).collect::<Vec<_>>(),
        "{context}: batch curve"
    );
}

/// Estimate identity: the same workload at pool sizes 1/2/8 serves
/// bit-identical answers at every (family, seed, epoch, τ).
#[test]
fn estimates_are_bit_identical_across_pool_sizes() {
    for family in FAMILIES {
        for seed in [3u64, 17, 4242] {
            let reference = EstimationEngine::new(config(family, seed, 1));
            run_workload(&reference, family);
            for threads in POOL_SIZES {
                let pooled = EstimationEngine::new(config(family, seed, threads));
                run_workload(&pooled, family);
                assert_serving_identical(
                    &reference,
                    &pooled,
                    &format!("{family:?}, seed {seed}, {threads} threads"),
                );
            }
        }
    }
}

fn checkpoint_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap()
}

/// Checkpoint identity: durable engines at every pool size cut
/// byte-equal checkpoint files, and a mapped-tier recovery + overlay
/// tail + compaction folds to byte-equal files again.
#[test]
fn checkpoint_files_are_byte_equal_across_pool_sizes() {
    for family in FAMILIES {
        assert_checkpoints_byte_equal(family);
    }
}

fn assert_checkpoints_byte_equal(family: IndexFamily) {
    let mut heap_files: Vec<Vec<u8>> = Vec::new();
    let mut compacted_files: Vec<Vec<u8>> = Vec::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    for threads in POOL_SIZES {
        let dir = fresh_dir(&format!("ckpt_{threads}"));
        let engine = EstimationEngine::durable(config(family, 9, threads), &dir).unwrap();
        run_workload(&engine, family);
        engine.checkpoint().unwrap();
        drop(engine);
        heap_files.push(checkpoint_bytes(&dir));

        // Mapped tier: serve the cut via mmap, tombstone a base row,
        // grow an overlay, and compact — the fold's encode is the
        // other pooled writer path.
        let mapped = EstimationEngine::recover_with(
            &dir,
            DurabilityOptions {
                storage_tier: StorageTier::Mapped,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        assert!(mapped.remove(5), "base row for id 5 is live");
        mapped.insert_batch(
            (0..96u32)
                .map(|i| members(family, 200 + i % 11, 3))
                .collect::<Vec<_>>(),
        );
        mapped.publish();
        mapped.compact().unwrap();
        drop(mapped);
        compacted_files.push(checkpoint_bytes(&dir));
        dirs.push(dir);
    }
    for (i, threads) in POOL_SIZES.iter().enumerate().skip(1) {
        assert_eq!(
            heap_files[0], heap_files[i],
            "{family:?}: heap checkpoint diverged at {threads} threads"
        );
        assert_eq!(
            compacted_files[0], compacted_files[i],
            "{family:?}: compacted checkpoint diverged at {threads} threads"
        );
    }
    // Recovery identity: every (byte-equal) directory recovers — heap
    // and mapped tier — to an engine serving bit-identically to the
    // others.
    let heap_ref = EstimationEngine::recover(&dirs[0]).unwrap();
    for dir in &dirs {
        let heap = EstimationEngine::recover(dir).unwrap();
        assert_serving_identical(&heap_ref, &heap, "recovered heap");
        let mapped = EstimationEngine::recover_with(
            dir,
            DurabilityOptions {
                storage_tier: StorageTier::Mapped,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        assert_serving_identical(&heap_ref, &mapped, "recovered mapped");
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Concurrent publish: readers hammer the pooled `estimate_batch` while
/// a writer ingests and publishes and a checkpointer cuts — every
/// answer must replay bit-identically from the answer's own epoch once
/// the engine is quiescent.
#[test]
fn concurrent_publish_keeps_pooled_answers_deterministic() {
    for family in FAMILIES {
        assert_concurrent_publish_deterministic(family);
    }
}

fn assert_concurrent_publish_deterministic(family: IndexFamily) {
    let dir = fresh_dir("conc");
    let engine =
        std::sync::Arc::new(EstimationEngine::durable(config(family, 21, 4), &dir).unwrap());
    engine.insert_batch(
        (0..80u32)
            .map(|i| members(family, i % 29, 3 + i % 4))
            .collect::<Vec<_>>(),
    );
    engine.publish();

    let mut readers = Vec::new();
    for _ in 0..3 {
        let engine = engine.clone();
        readers.push(std::thread::spawn(move || {
            let mut seen: Vec<(u64, Vec<ServiceEstimate>)> = Vec::new();
            for _ in 0..25 {
                let answers = engine.estimate_batch(&TAUS);
                let epoch = answers[0].epoch;
                seen.push((epoch, answers));
            }
            seen
        }));
    }
    let writer = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for round in 0..10u32 {
                // 64 rows: the smallest batch hashed on the pool.
                engine.insert_batch(
                    (0..64u32)
                        .map(|i| members(family, 300 + round * 16 + i, 3))
                        .collect::<Vec<_>>(),
                );
                engine.publish();
                if round % 4 == 0 {
                    engine.checkpoint().unwrap();
                }
            }
        })
    };
    let mut all: Vec<(u64, Vec<ServiceEstimate>)> = Vec::new();
    for reader in readers {
        all.extend(reader.join().unwrap());
    }
    writer.join().unwrap();

    // Quiescent replay: same epoch ⇒ the exact same curve, whichever
    // thread asked and whatever else was in flight.
    for (epoch, answers) in &all {
        for (_, other) in all.iter().filter(|(e, _)| e == epoch) {
            assert_eq!(
                answers.iter().map(answer_bits).collect::<Vec<_>>(),
                other.iter().map(answer_bits).collect::<Vec<_>>(),
                "{family:?}: epoch {epoch} served two curves"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u32),
        Batch(u32, u8),
        Remove(u64),
        Publish,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..40, 2u32..7).prop_map(|(s, l)| Op::Insert(s, l)),
            // Batches of 64 rows and more are hashed on the pool.
            (0u32..40, 3u8..100).prop_map(|(s, c)| Op::Batch(s, c)),
            (0u64..60).prop_map(Op::Remove),
            Just(Op::Publish),
        ]
    }

    fn apply(engine: &EstimationEngine, family: IndexFamily, op: &Op) {
        match *op {
            Op::Insert(s, l) => {
                engine.insert(members(family, s, l));
            }
            Op::Batch(s, c) => {
                engine.insert_batch(
                    (0..u32::from(c))
                        .map(|i| members(family, s + i % 13, 2 + i % 5))
                        .collect::<Vec<_>>(),
                );
            }
            Op::Remove(id) => {
                engine.remove(id);
            }
            Op::Publish => {
                engine.publish();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For a random op sequence and τ grid, every pool size serves
        /// the same bits and encodes the same checkpoint file.
        #[test]
        fn random_workloads_are_pool_size_invariant(
            ops in proptest::collection::vec(op_strategy(), 1..30),
            taus in proptest::collection::vec(0.05f64..1.0, 1..5),
            seed in 0u64..500,
        ) {
            for family in FAMILIES {
                let mut curves: Vec<Vec<ServiceEstimate>> = Vec::new();
                let mut files: Vec<Vec<u8>> = Vec::new();
                for threads in POOL_SIZES {
                    let dir = fresh_dir(&format!("prop_{threads}"));
                    let engine =
                        EstimationEngine::durable(config(family, seed, threads), &dir).unwrap();
                    for op in &ops {
                        apply(&engine, family, op);
                    }
                    engine.publish();
                    curves.push(engine.estimate_batch(&taus));
                    engine.checkpoint().unwrap();
                    drop(engine);
                    files.push(checkpoint_bytes(&dir));
                    std::fs::remove_dir_all(&dir).ok();
                }
                prop_assert_eq!(&curves[0], &curves[1], "{:?}", family);
                prop_assert_eq!(&curves[0], &curves[2], "{:?}", family);
                prop_assert_eq!(&files[0], &files[1], "{:?}", family);
                prop_assert_eq!(&files[0], &files[2], "{:?}", family);
            }
        }
    }
}
