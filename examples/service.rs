//! The online estimation service under concurrent load.
//!
//! Scenario: a similarity-search deployment keeps ingesting documents
//! while a query optimizer asks for join-size estimates. This demo runs
//! the `vsj-service` engine with
//!
//! * **2 writer threads** streaming a DBLP-like corpus in (the engine
//!   auto-publishes a fresh epoch snapshot every 512 ingests), and
//! * **4 reader threads** hammering `estimate(0.7)` the whole time,
//!
//! then verifies the two properties that make the service trustworthy:
//!
//! 1. **Epoch consistency** — every answer a reader observed is labeled
//!    with a published epoch, epochs only move forward per reader, and
//!    each answer's `n` is exactly the snapshot size of its epoch (no
//!    torn reads across a publish).
//! 2. **Offline equivalence** — after the dust settles, the service's
//!    estimate at τ = 0.7 equals, bit for bit, an offline `LshSs` run
//!    over the final snapshot with the engine's deterministic RNG.
//!
//! A final act demonstrates **durability**: a second engine runs with a
//! checkpoint + write-ahead log attached, is killed (dropped) with 500
//! ingests living only in the WAL, and is recovered from disk — the
//! recovered engine returns the *bit-identical* estimate at the same
//! `(seed, epoch, τ)` as the engine that died.
//!
//! Run with: `cargo run --release --example service`

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use vsj::prelude::*;

const WRITERS: usize = 2;
const READERS: usize = 4;
const DOCS_PER_WRITER: usize = 4_000;

fn main() {
    let engine = EstimationEngine::new(
        ServiceConfig::builder()
            .shards(8)
            .k(16)
            .seed(7)
            .auto_publish_every(512)
            .build(),
    );
    println!(
        "engine: {} shards, k = {}, SimHash/cosine, auto-publish every 512 ingests\n",
        engine.config().shards,
        engine.config().k
    );

    // Pre-generate per-writer corpora (generation is not what we measure).
    let corpora: Vec<Vec<SparseVector>> = (0..WRITERS)
        .map(|w| {
            DblpLike::with_size(DOCS_PER_WRITER)
                .generate(100 + w as u64)
                .vectors()
                .to_vec()
        })
        .collect();

    let done = AtomicBool::new(false);
    let mut reader_logs: Vec<Vec<ServiceEstimate>> = Vec::new();

    thread::scope(|scope| {
        let engine = &engine;
        let done = &done;

        let writer_handles: Vec<_> = corpora
            .into_iter()
            .enumerate()
            .map(|(w, docs)| {
                scope.spawn(move || {
                    let n = docs.len();
                    for v in docs {
                        engine.insert(v);
                    }
                    println!("writer {w}: ingested {n} vectors");
                })
            })
            .collect();

        let reader_handles: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let mut log = Vec::new();
                    let mut last_epoch = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let answer = engine.estimate(0.7);
                        assert!(
                            answer.epoch >= last_epoch,
                            "reader {r}: epoch went backwards ({} < {last_epoch})",
                            answer.epoch
                        );
                        last_epoch = answer.epoch;
                        log.push(answer);
                    }
                    log
                })
            })
            .collect();

        for h in writer_handles {
            h.join().expect("writer panicked");
        }
        done.store(true, Ordering::Relaxed);
        for h in reader_handles {
            reader_logs.push(h.join().expect("reader panicked"));
        }
    });

    // --- 1. epoch consistency across everything the readers saw --------
    let mut per_epoch_n: HashMap<u64, usize> = HashMap::new();
    let mut per_epoch_value: HashMap<u64, f64> = HashMap::new();
    let (mut answers, mut cached_answers) = (0u64, 0u64);
    for log in &reader_logs {
        for a in log {
            answers += 1;
            cached_answers += u64::from(a.cached);
            if let Some(&n) = per_epoch_n.get(&a.epoch) {
                assert_eq!(
                    n, a.n,
                    "torn read: epoch {} seen with n {} and {}",
                    a.epoch, n, a.n
                );
            } else {
                per_epoch_n.insert(a.epoch, a.n);
            }
            // Same (epoch, τ) must mean the same deterministic value, no
            // matter which reader asked or whether the snapshot's memo
            // answered.
            let v = per_epoch_value.entry(a.epoch).or_insert(a.estimate.value);
            assert_eq!(
                *v, a.estimate.value,
                "nondeterministic answer at epoch {}",
                a.epoch
            );
        }
    }
    println!(
        "\nreaders: {answers} answers ({cached_answers} memo-served, {:.1}%), {} distinct epochs observed, all epoch-consistent",
        100.0 * cached_answers as f64 / answers.max(1) as f64,
        per_epoch_n.len(),
    );

    // --- 2. final state + offline equivalence ---------------------------
    let epoch = engine.publish();
    let snapshot = engine.snapshot();
    let served = engine.estimate(0.7);
    assert_eq!(served.epoch, epoch);

    let estimator = LshSs {
        config: engine.estimator_config(snapshot.len()),
    };
    let mut rng = engine.batch_rng(epoch);
    let offline = estimator.estimate_curve_detailed(
        snapshot.collection(),
        snapshot.table(),
        &Cosine,
        &[0.7],
        &mut rng,
    );
    assert_eq!(
        served.estimate, offline[0].estimate,
        "service answer must equal the offline LshSs run"
    );

    let stats = engine.stats();
    println!(
        "final: epoch {epoch}, n = {}, N_H = {}, Ĵ(0.7) = {:.1} ({:?})",
        snapshot.len(),
        snapshot.table().nh(),
        served.estimate.value,
        served.estimate.kind,
    );
    println!(
        "engine: {} ingests, {} publishes, cache {}/{} hit/miss, {} sampling passes, {} pairs sampled",
        stats.ingests,
        stats.publishes,
        stats.cache_hits,
        stats.cache_misses,
        stats.sampling_passes,
        stats.sampled_pairs,
    );
    println!("\nservice estimate == offline LshSs estimate (bit-exact) ✓");

    // --- 3. durability: kill/restart equivalence -------------------------
    println!("\n--- kill/restart demo ---");
    let dir = std::env::temp_dir().join(format!("vsj_service_demo_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let docs = DblpLike::with_size(1_200).generate(77).vectors().to_vec();

    let durable = EstimationEngine::durable(
        ServiceConfig::builder()
            .shards(4)
            .k(16)
            .seed(7)
            .auto_publish_every(256)
            .build(),
        &dir,
    )
    .expect("attach storage");
    for v in &docs[..700] {
        durable.insert(v.clone());
    }
    let checkpoint_epoch = durable.checkpoint().expect("checkpoint");
    println!(
        "ingested 700, checkpointed epoch {checkpoint_epoch} (WAL truncated, {} records pending)",
        durable.wal_pending()
    );
    for v in &docs[700..] {
        durable.insert(v.clone());
    }
    let before = durable.estimate(0.7);
    println!(
        "ingested 500 more (live only in the WAL: {} records), Ĵ(0.7) = {:.1} at epoch {}",
        durable.wal_pending(),
        before.estimate.value,
        before.epoch
    );
    drop(durable); // kill -9, as far as the in-memory index is concerned

    let recovered = EstimationEngine::recover(&dir).expect("recover from checkpoint + WAL");
    let after = recovered.estimate(0.7);
    assert_eq!(
        (before.estimate, before.epoch, before.n),
        (after.estimate, after.epoch, after.n),
        "recovered engine must answer bit-identically at the same (seed, epoch, τ)"
    );
    println!(
        "recovered: Ĵ(0.7) = {:.1} at epoch {} over n = {} — bit-identical ✓",
        after.estimate.value, after.epoch, after.n
    );
    std::fs::remove_dir_all(&dir).ok();
}
