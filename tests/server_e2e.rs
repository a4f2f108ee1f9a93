//! End-to-end acceptance tests for the `vsj-server` network layer.
//!
//! The headline property: **N client threads issuing estimates while
//! M threads ingest and publish against a live server yield answers
//! bit-identical to an offline-built index at every published epoch**
//! — the network layer and the engine may change *when* and *how
//! cheaply* an answer is computed, never *what* it is. Plus: a
//! panicking sampling pass costs one request a `500` and nothing more,
//! and backpressure sheds ingests under overload.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vsj::prelude::*;

const TAUS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

fn fixed_estimator() -> LshSsConfig {
    LshSsConfig {
        m_h: 256,
        m_l: 256,
        delta: 4,
        dampening: Dampening::NlOverDelta,
    }
}

fn engine_config(seed: u64) -> ServiceConfig {
    ServiceConfig::builder()
        .shards(4)
        .k(8)
        .seed(seed)
        .family(IndexFamily::MinHash)
        .estimator(fixed_estimator())
        .build()
}

fn members_for(tag: u32) -> SparseVector {
    SparseVector::binary_from_members(vec![tag % 23, 100 + tag % 11, 200 + tag % 5])
}

/// Offline replication of a served batch answer at `(epoch, τ)`: build
/// a fresh index over the same vectors in global-id order (re-hashing
/// from scratch) and run the estimator with the engine's epoch-keyed
/// batch RNG. Equality is bit-level.
fn offline_value(
    engine: &EstimationEngine,
    snapshot: &Snapshot,
    id_to_vector: &HashMap<u64, SparseVector>,
    tau: f64,
) -> f64 {
    let vectors: Vec<SparseVector> = snapshot
        .global_ids()
        .iter()
        .map(|gid| {
            id_to_vector
                .get(gid)
                .unwrap_or_else(|| panic!("server invented global id {gid}"))
                .clone()
        })
        .collect();
    let coll = VectorCollection::from_vectors(vectors);
    let offline = vsj::lsh::LshIndex::build_with_family(
        &coll,
        MinHashFamily::new(),
        vsj::lsh::LshParams::new(engine.config().k, 1)
            .with_seed(engine.config().seed)
            .with_threads(1),
    );
    let est = LshSs {
        config: fixed_estimator(),
    };
    let mut rng = engine.batch_rng(snapshot.epoch());
    est.estimate_curve(&coll, offline.table(0), &Jaccard, &[tau], &mut rng)[0].value
}

/// Concurrent writers, a publisher and readers over the wire: every
/// answer equals an offline build at its epoch.
#[test]
fn concurrent_clients_get_offline_identical_answers_at_every_epoch() {
    let engine = Arc::new(EstimationEngine::new(engine_config(77)));
    let server =
        Server::start(engine.clone(), ServerConfig::builder().workers(8).build()).expect("bind");
    let addr = server.addr();

    const WRITERS: usize = 2;
    const READERS: usize = 4;
    const DOCS_PER_WRITER: u32 = 250;

    let id_to_vector: Mutex<HashMap<u64, SparseVector>> = Mutex::new(HashMap::new());
    let snapshots: Mutex<BTreeMap<u64, Arc<Snapshot>>> = Mutex::new(BTreeMap::new());
    let done = AtomicBool::new(false);
    let mut reader_logs: Vec<Vec<Estimated>> = Vec::new();

    std::thread::scope(|scope| {
        let id_to_vector = &id_to_vector;
        let snapshots = &snapshots;
        let done = &done;
        let engine = &engine;

        // M ingest threads, through the wire.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("writer connect");
                    for j in 0..DOCS_PER_WRITER {
                        let v = members_for(w as u32 * 1_000 + j);
                        let id = client.insert(&v).expect("insert");
                        id_to_vector.lock().unwrap().insert(id, v);
                    }
                })
            })
            .collect();

        // One publisher thread, through the wire. Being the only
        // publisher (no auto-publish), the snapshot read right after
        // each publish *is* that epoch — recorded for offline replay.
        let publisher = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("publisher connect");
            loop {
                let finished = done.load(Ordering::Relaxed);
                client.publish().expect("publish");
                let snapshot = engine.snapshot();
                snapshots.lock().unwrap().insert(snapshot.epoch(), snapshot);
                if finished {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        // N estimate threads, through the wire.
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connect");
                    let mut log = Vec::new();
                    // Per-τ monotonicity: the cache may serve different
                    // τ from different (still valid) computed-at
                    // epochs, but a single τ never goes backwards.
                    let mut last_epoch = [0u64; TAUS.len()];
                    for i in 0..150usize {
                        let slot = (r + i) % TAUS.len();
                        let answer = client.estimate(TAUS[slot]).expect("estimate");
                        assert!(
                            answer.epoch >= last_epoch[slot],
                            "reader {r}: epoch went backwards for τ {}",
                            TAUS[slot]
                        );
                        last_epoch[slot] = answer.epoch;
                        log.push(answer);
                    }
                    log
                })
            })
            .collect();

        for writer in writers {
            writer.join().expect("writer");
        }
        for reader in readers {
            reader_logs.push(reader.join().expect("reader"));
        }
        done.store(true, Ordering::Relaxed);
        publisher.join().expect("publisher");
    });

    let id_to_vector = id_to_vector.into_inner().unwrap();
    let snapshots = snapshots.into_inner().unwrap();
    assert_eq!(
        id_to_vector.len(),
        WRITERS * DOCS_PER_WRITER as usize,
        "every insert got a unique id"
    );

    // 1. Bit-identical to an offline build at EVERY published epoch a
    //    reader observed (epoch 0 is the empty pre-publish view).
    //    Deduplicate (epoch, τ) — determinism makes repeats redundant,
    //    but first check every repeat agrees.
    let mut observed: BTreeMap<(u64, u64), (f64, usize)> = BTreeMap::new();
    let mut answers = 0usize;
    for a in reader_logs.iter().flatten() {
        answers += 1;
        let key = (a.epoch, a.tau.to_bits());
        match observed.get(&key) {
            None => {
                observed.insert(key, (a.value, a.n));
            }
            Some(&(value, n)) => {
                assert_eq!(value, a.value, "nondeterministic answer at {key:?}");
                assert_eq!(n, a.n, "torn n at {key:?}");
            }
        }
    }
    assert!(answers >= READERS * 100, "readers actually ran");
    let mut verified = 0usize;
    for (&(epoch, tau_bits), &(value, n)) in &observed {
        let tau = f64::from_bits(tau_bits);
        if epoch == 0 {
            assert_eq!((value, n), (0.0, 0), "empty epoch answers zero");
            continue;
        }
        let snapshot = snapshots
            .get(&epoch)
            .unwrap_or_else(|| panic!("answer at unpublished epoch {epoch}"));
        assert_eq!(n, snapshot.len(), "answer's n vs epoch {epoch} snapshot");
        assert_eq!(
            value,
            offline_value(&engine, snapshot, &id_to_vector, tau),
            "server answer at (epoch {epoch}, τ {tau}) != offline build"
        );
        verified += 1;
    }
    assert!(verified >= 4, "several (epoch, τ) points verified offline");

    // 2. Every estimate request was answered, and nothing was shed.
    let mut client = Client::connect(addr).expect("scrape connect");
    let text = client.metrics().expect("scrape /metrics");
    assert_eq!(
        sample_value(
            &text,
            "vsj_server_route_requests_total{route=\"/estimate\"}"
        ),
        Some(answers as f64),
        "one answer per estimate request"
    );
    let stats = server.stats();
    assert_eq!(stats.shed_ingests, 0);
    assert_eq!(stats.shed_wal, 0);
    server.shutdown().expect("shutdown");
}

/// A panicking sampling pass costs its request a `500` and nothing
/// more: the pass runs on the worker, inside the router's panic guard,
/// so the next estimate gets a pass (and a `500`) of its own and the
/// other routes keep answering. `m_h = 2^62` makes the draw pass panic
/// with a capacity overflow.
#[test]
fn a_panicking_estimate_pass_costs_a_500_not_the_route() {
    let engine = Arc::new(EstimationEngine::new(
        ServiceConfig::builder()
            .shards(2)
            .k(8)
            .seed(61)
            .family(IndexFamily::MinHash)
            .estimator(LshSsConfig {
                m_h: 1 << 62,
                ..fixed_estimator()
            })
            .build(),
    ));
    // Ten copies of each vector: exact duplicates share every bucket,
    // so S_H is not empty and the pass draws.
    for i in 0..100u32 {
        engine.insert(members_for(i % 10));
    }
    let epoch = engine.publish();
    let server = Server::start(engine, ServerConfig::builder().workers(2).build()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for attempt in 0..2 {
        let started = Instant::now();
        match client.estimate(0.5) {
            Err(ClientError::Status { status: 500, .. }) => {}
            other => panic!("estimate {attempt}: expected a 500, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "estimate {attempt} took {:?}",
            started.elapsed()
        );
    }
    assert_eq!(client.health().expect("healthz after the panics"), epoch);
    let exposition = client.metrics().expect("metrics after the panics");
    assert_eq!(
        sample_value(&exposition, "vsj_server_panics_total{route=\"/estimate\"}"),
        Some(2.0),
        "each panic is counted against its route"
    );
    assert_eq!(
        sample_value(&exposition, "vsj_server_panics_total{route=\"/healthz\"}"),
        Some(0.0)
    );
    server.shutdown().expect("shutdown");
}

/// Satellite: `estimate_batch` under concurrent publish — one pass
/// never mixes epochs, answers are deterministic per (epoch, τ), and
/// grid answers equal per-request answers.
#[test]
fn estimate_batch_pins_one_epoch_under_concurrent_publish() {
    let engine = Arc::new(EstimationEngine::new(engine_config(13)));
    for i in 0..100u32 {
        engine.insert(members_for(i));
    }
    engine.publish();

    let done = AtomicBool::new(false);
    let mut observed: HashMap<(u64, u64), f64> = HashMap::new();
    std::thread::scope(|scope| {
        let engine = &engine;
        let done = &done;
        // A writer publishing as fast as it can.
        let writer = scope.spawn(move || {
            let mut i = 1_000u32;
            while !done.load(Ordering::Relaxed) {
                engine.insert(members_for(i));
                engine.publish();
                i += 1;
            }
        });
        // Grid reads racing the publishes.
        for _ in 0..300 {
            let grid = engine.estimate_batch(&TAUS);
            let epoch = grid[0].epoch;
            for answer in &grid {
                assert_eq!(
                    answer.epoch, epoch,
                    "one estimate_batch pass straddled a publish"
                );
                let key = (answer.epoch, answer.tau.to_bits());
                let value = observed.entry(key).or_insert(answer.estimate.value);
                assert_eq!(*value, answer.estimate.value, "nondeterministic at {key:?}");
            }
        }
        done.store(true, Ordering::Relaxed);
        writer.join().expect("writer");
    });

    // Quiescent: grid answers equal per-request (singleton-grid)
    // answers, entry by entry — the bit-identity that makes a lone
    // request's pass equal any larger same-epoch pass.
    // Both sides are fresh passes at `epoch`: the publish starts a new
    // snapshot, and the memo is cleared after the grid so each lone τ
    // is sampled again.
    let epoch = engine.publish();
    let grid = engine.estimate_batch(&TAUS);
    assert!(grid.iter().all(|a| !a.cached && a.epoch == epoch));
    engine.clear_cache();
    for (tau, from_grid) in TAUS.iter().zip(&grid) {
        let alone = engine.estimate_batch(&[*tau])[0];
        assert_eq!(alone.epoch, epoch);
        assert_eq!(
            alone.estimate, from_grid.estimate,
            "τ {tau}: grid and per-request answers diverge"
        );
    }
}

/// Satellite: overload keeps the ingest path bounded — ingest floods
/// are shed at `max_publish_lag` until a publish catches the view up.
#[test]
fn backpressure_bounds_queues_under_overload() {
    let engine = Arc::new(EstimationEngine::new(engine_config(29)));
    for i in 0..150u32 {
        engine.insert(members_for(i));
    }
    engine.publish();
    let server = Server::start(
        engine,
        ServerConfig::builder()
            .workers(16)
            .max_publish_lag(20)
            .build(),
    )
    .expect("bind");
    let addr = server.addr();

    // Ingest flood: lag cap 20 sheds the 21st unpublished ingest.
    let mut client = Client::connect(addr).expect("connect");
    let mut accepted = 0;
    let mut ingest_shed = 0;
    for i in 0..30u32 {
        match client.insert(&members_for(10_000 + i)) {
            Ok(_) => accepted += 1,
            Err(ClientError::Overloaded { .. }) => ingest_shed += 1,
            Err(other) => panic!("unexpected {other}"),
        }
    }
    assert_eq!(accepted, 20);
    assert_eq!(ingest_shed, 10);
    client.publish().expect("publish");
    client.insert(&members_for(20_000)).expect("lag cleared");
    server.shutdown().expect("shutdown");
}

/// Satellite: durable-write backpressure — ingests shed with `429` once
/// the deepest shard's WAL backlog reaches `max_wal_depth`, with a
/// `Retry-After`, and a checkpoint (which covers the whole log) clears
/// the pressure.
#[test]
fn wal_depth_backpressure_sheds_and_checkpoint_clears_it() {
    let dir = std::env::temp_dir().join(format!("vsj_e2e_waldepth_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let engine =
        Arc::new(EstimationEngine::durable(engine_config(31), &dir).expect("durable engine"));
    let server = Server::start(
        engine,
        ServerConfig::builder().workers(4).max_wal_depth(6).build(),
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Single wire-writer: the backlog concentrates per shard; once any
    // shard's chain holds 6 uncheckpointed records the server refuses.
    let mut accepted = 0u32;
    let mut retry_after = None;
    for i in 0..200u32 {
        match client.insert(&members_for(i)) {
            Ok(_) => accepted += 1,
            Err(ClientError::Overloaded {
                retry_after: after, ..
            }) => {
                retry_after = Some(after);
                break;
            }
            Err(other) => panic!("unexpected {other}"),
        }
    }
    assert!(
        retry_after.expect("the flood must hit the WAL depth limit") >= Duration::from_secs(1),
        "shed replies carry a Retry-After keyed off the backlog"
    );
    assert!(accepted >= 6, "nothing sheds below the per-shard limit");
    assert_eq!(server.stats().shed_wal, 1);

    // A checkpoint covers the whole log; ingests flow again.
    client.checkpoint().expect("checkpoint over the wire");
    assert_eq!(server.engine().max_wal_shard_pending(), 0);
    client
        .insert(&members_for(90_000))
        .expect("pressure cleared");
    server.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// Extracts the value of one exact sample line (name + label set) from
/// a Prometheus text exposition.
fn sample_value(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == series).then(|| value.parse().expect("sample value parses"))
    })
}

/// Observability satellite: `/metrics` serves a *valid* Prometheus text
/// exposition covering all three layers, and the per-route request
/// counter matches the client-side count exactly.
#[test]
fn metrics_exposition_is_valid_and_counts_requests_exactly() {
    let dir = std::env::temp_dir().join(format!("vsj_e2e_metrics_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // A durable engine so the WAL series have real fsync samples.
    let engine =
        Arc::new(EstimationEngine::durable(engine_config(41), &dir).expect("durable engine"));
    let server = Server::start(engine, ServerConfig::builder().workers(4).build()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    const INSERTS: u64 = 25;
    const ESTIMATES: u64 = 7;
    for i in 0..INSERTS as u32 {
        client.insert(&members_for(i)).expect("insert");
    }
    client.publish().expect("publish");
    for i in 0..ESTIMATES as usize {
        client.estimate(TAUS[i % TAUS.len()]).expect("estimate");
    }

    let text = client.metrics().expect("scrape /metrics");
    let samples = vsj::obs::validate_exposition(&text).expect("exposition validates");
    assert!(samples > 50, "a real exposition has many series: {samples}");

    // Exact request accounting: the scrape itself rides a different
    // route, so the per-route counters are undisturbed by reading them.
    assert_eq!(
        sample_value(
            &text,
            "vsj_server_route_requests_total{route=\"/estimate\"}"
        ),
        Some(ESTIMATES as f64),
        "estimate count on the wire == client-side count"
    );
    assert_eq!(
        sample_value(&text, "vsj_server_route_requests_total{route=\"/insert\"}"),
        Some(INSERTS as f64),
    );
    assert_eq!(
        sample_value(&text, "vsj_server_requests_total"),
        // inserts + publish + estimates + this scrape itself.
        Some((INSERTS + 1 + ESTIMATES + 1) as f64),
    );

    // Every layer is represented: engine, WAL, server.
    for series in [
        "vsj_engine_publishes_total",
        "vsj_engine_sampling_duration_us_count",
        "vsj_engine_cache_misses_total",
        "vsj_wal_fsync_duration_us_count",
        "vsj_wal_group_commit_batch_count",
        "vsj_server_publish_lag",
    ] {
        assert!(
            sample_value(&text, series).is_some(),
            "missing required series {series}"
        );
    }
    // The engine actually sampled through the wire requests.
    assert!(
        sample_value(&text, "vsj_engine_sampling_passes_total").unwrap() >= 1.0,
        "estimates must have driven sampling passes"
    );

    // A second scrape is still valid and strictly later in request
    // counts. Route counters are stamped after the response body is
    // rendered, so the Nth scrape reports N-1 completed scrapes.
    let again = client.metrics().expect("second scrape");
    vsj::obs::validate_exposition(&again).expect("still valid");
    assert_eq!(
        sample_value(
            &again,
            "vsj_server_route_requests_total{route=\"/metrics\"}"
        ),
        Some(1.0),
    );

    server.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// Observability satellite: a request slower than the threshold shows
/// up in `/trace/slow` with its stage-by-stage breakdown. Threshold
/// zero makes every request an outlier, deterministically.
#[test]
fn slow_requests_are_traced_with_stage_breakdown() {
    let engine = Arc::new(EstimationEngine::new(engine_config(43)));
    for i in 0..100u32 {
        engine.insert(members_for(i));
    }
    engine.publish();
    let server = Server::start(
        engine,
        ServerConfig::builder()
            .obs(ObsOptions {
                slow_query_threshold: Duration::ZERO,
                ..ObsOptions::default()
            })
            .build(),
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    client.estimate(0.7).expect("estimate");
    client.insert(&members_for(9_000)).expect("insert");

    let doc = client.slow_traces().expect("scrape /trace/slow");
    use vsj::server::json::Json;
    assert_eq!(doc.get("threshold_us").and_then(Json::as_u64), Some(0));
    let traces = doc
        .get("traces")
        .and_then(Json::as_arr)
        .expect("traces array");
    assert!(traces.len() >= 2, "both requests captured");

    let find = |route: &str| {
        traces
            .iter()
            .find(|t| t.get("route").and_then(Json::as_str) == Some(route))
            .unwrap_or_else(|| panic!("no captured trace for {route}"))
    };
    // The estimate trace carries its one stage: the sampling pass.
    let estimate = find("/estimate");
    let stages: Vec<String> = estimate
        .get("stages")
        .and_then(Json::as_arr)
        .expect("stages")
        .iter()
        .map(|s| s.get("stage").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(stages, ["sampling"]);
    assert!(estimate.get("total_us").and_then(Json::as_u64).is_some());
    assert!(estimate.get("seq").and_then(Json::as_u64).unwrap() >= 1);

    // The ingest trace records its apply (engine mutation) stage.
    let insert = find("/insert");
    let insert_stages = insert.get("stages").and_then(Json::as_arr).unwrap();
    assert_eq!(
        insert_stages[0].get("stage").and_then(Json::as_str),
        Some("apply")
    );

    // The captures surface on the metrics side too.
    let text = client.metrics().expect("metrics");
    assert!(
        sample_value(&text, "vsj_server_slow_traces_total").unwrap() >= 2.0,
        "slow-trace counter tracks ring captures"
    );
    server.shutdown().expect("shutdown");
}

/// Satellite: the compaction surface over the wire — a mapped-tier
/// server accepts removals (tombstoned, never a panic or fallback),
/// `POST /compact` folds the overlay while the server keeps answering,
/// and `/stats` + `/healthz` expose the fold.
#[test]
fn mapped_server_compacts_over_the_wire() {
    use vsj::server::json::Json;
    let dir = std::env::temp_dir().join(format!("vsj_e2e_compact_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Seed a mappable base, then serve it mapped.
    {
        let seed = EstimationEngine::durable(engine_config(53), &dir).expect("durable engine");
        for i in 0..20u32 {
            seed.insert(members_for(i));
        }
        seed.checkpoint().expect("seed checkpoint");
    }
    let engine = Arc::new(
        EstimationEngine::recover_with(
            &dir,
            DurabilityOptions {
                storage_tier: StorageTier::Mapped,
                ..DurabilityOptions::default()
            },
        )
        .expect("mapped recovery"),
    );
    assert_eq!(engine.storage_tier(), StorageTier::Mapped);
    let server = Server::start(engine, ServerConfig::builder().workers(2).build()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Wire mutations against the mapped base: overlay + tombstones.
    for i in 100..106u32 {
        client.insert(&members_for(i)).expect("overlay insert");
    }
    assert!(client.remove(3).expect("tombstone a base row"));
    assert!(!client.remove(3).expect("idempotent second remove"));
    client.publish().expect("publish");
    let before = client.estimate(0.5).expect("estimate before the fold");
    let stats = client.stats().expect("stats");
    let engine_stats = stats.get("engine").expect("engine object");
    assert!(
        engine_stats
            .get("overlay_bytes")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    assert_eq!(
        engine_stats.get("tombstones").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        engine_stats.get("compactions").and_then(Json::as_u64),
        Some(0)
    );

    // The fold, over the wire. The cut is a publish barrier, so the
    // epoch advances by exactly one and the server keeps serving.
    let folded = client.compact().expect("POST /compact");
    assert_eq!(folded, before.epoch + 1);
    // The folded base is a new snapshot: its answer is sampled there and
    // carries its epoch, never the pre-fold answer; a repeat is that
    // snapshot's memo, and both equal a fresh in-process pass.
    let after = client.estimate(0.5).expect("estimate after the fold");
    assert!(!after.cached);
    assert_eq!(after.epoch, folded);
    let again = client.estimate(0.5).expect("repeat after the fold");
    assert!(again.cached);
    assert_eq!(
        (again.epoch, again.value.to_bits()),
        (folded, after.value.to_bits())
    );
    server.engine().clear_cache();
    let direct = server.engine().estimate(0.5);
    assert!(!direct.cached);
    assert_eq!(
        (direct.epoch, direct.estimate.value.to_bits()),
        (folded, after.value.to_bits())
    );
    let stats = client.stats().expect("stats after fold");
    let engine_stats = stats.get("engine").expect("engine object");
    assert_eq!(
        engine_stats.get("overlay_bytes").and_then(Json::as_u64),
        Some(0),
        "the fold reclaimed the overlay"
    );
    assert_eq!(
        engine_stats.get("tombstones").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(
        engine_stats.get("compactions").and_then(Json::as_u64),
        Some(1)
    );
    // A post-fold write and publish: the next pass samples the folded
    // base plus its new overlay.
    client.insert(&members_for(200)).expect("post-fold insert");
    client.publish().expect("post-fold publish");
    let fresh = client
        .estimate(0.5)
        .expect("fresh estimate on the folded base");
    assert_eq!(fresh.epoch, folded + 1);
    assert!(!fresh.cached);

    // The fold surfaces on the metrics side too.
    let text = client.metrics().expect("metrics");
    assert!(
        sample_value(&text, "vsj_engine_compactions_total").unwrap() >= 1.0,
        "the compaction counter must appear in the exposition"
    );
    server.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
