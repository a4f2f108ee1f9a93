//! The network serving layer under concurrent client load — the CI
//! smoke scenario for `vsj-server`.
//!
//! One process plays both sides of the wire:
//!
//! * a [`Server`] is started on an ephemeral port over a **durable**
//!   engine (checkpoint + WAL in a temp directory, 3 checkpoint
//!   generations retained), and
//! * **2 writer clients** stream vectors in over HTTP while **4 reader
//!   clients** hammer `POST /estimate` and one publisher client cuts
//!   epochs — every byte crossing a real TCP socket.
//!
//! Then the serving-layer properties are verified:
//!
//! 1. **Offline equivalence** — the served estimate at the final epoch
//!    equals, bit for bit, an offline `LshSs` run over a freshly built
//!    index of the same vectors with the engine's epoch-keyed batch
//!    RNG.
//! 2. **Observability** — `GET /metrics` serves a valid Prometheus
//!    text exposition with engine, WAL, and server series; its
//!    `/estimate` route counter equals the answers the readers got
//!    (each request is answered on the worker that read it),
//!    and `GET /trace/slow` serves the slow-request ring.
//! 3. **Graceful shutdown + restart** — shutdown cuts a final
//!    checkpoint; a recovered engine answers bit-identically.
//!
//! Run with: `cargo run --release --example server`

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vsj::prelude::*;

const WRITERS: usize = 2;
const READERS: usize = 4;
const DOCS_PER_WRITER: usize = 1_500;
const TAUS: [f64; 3] = [0.5, 0.7, 0.9];

fn main() {
    let dir = std::env::temp_dir().join(format!("vsj_server_demo_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let config = ServiceConfig::builder().shards(8).k(16).seed(7).build();
    let engine = Arc::new(
        EstimationEngine::durable_with(
            config,
            &dir,
            DurabilityOptions {
                retain_checkpoints: 3,
                ..DurabilityOptions::default()
            },
        )
        .expect("attach storage"),
    );
    let server = Server::start(
        engine.clone(),
        ServerConfig::builder()
            .workers(8)
            .checkpoint_on_shutdown(true)
            .build(),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    println!("serving on http://{addr} (SimHash/cosine, k = 16, durable at {dir:?})\n");

    // Pre-generate per-writer corpora.
    let corpora: Vec<Vec<SparseVector>> = (0..WRITERS)
        .map(|w| {
            DblpLike::with_size(DOCS_PER_WRITER)
                .generate(100 + w as u64)
                .vectors()
                .to_vec()
        })
        .collect();

    let id_to_vector: Mutex<HashMap<u64, SparseVector>> = Mutex::new(HashMap::new());
    let done = AtomicBool::new(false);
    let mut served_answers = 0u64;

    std::thread::scope(|scope| {
        let id_to_vector = &id_to_vector;
        let done = &done;

        let writer_handles: Vec<_> = corpora
            .into_iter()
            .enumerate()
            .map(|(w, docs)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("writer connect");
                    let n = docs.len();
                    for v in docs {
                        let id = client.insert(&v).expect("insert over the wire");
                        id_to_vector.lock().unwrap().insert(id, v);
                    }
                    println!("writer {w}: streamed {n} vectors over HTTP");
                })
            })
            .collect();

        let publisher = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("publisher connect");
            let mut epochs = 0u64;
            loop {
                let finished = done.load(Ordering::Relaxed);
                client.publish().expect("publish");
                epochs += 1;
                if finished {
                    return epochs;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });

        let reader_handles: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connect");
                    let mut answers = 0u64;
                    // Every answer carries the epoch of the snapshot
                    // that served it, memoized or sampled, so one
                    // reader's epochs never regress, whatever the τ.
                    let mut last_epoch = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let tau = TAUS[answers as usize % TAUS.len()];
                        let a = client.estimate(tau).expect("estimate over the wire");
                        assert!(
                            a.epoch >= last_epoch,
                            "reader {r}: epoch went backwards at τ {tau}"
                        );
                        last_epoch = a.epoch;
                        answers += 1;
                    }
                    answers
                })
            })
            .collect();

        for h in writer_handles {
            h.join().expect("writer panicked");
        }
        done.store(true, Ordering::Relaxed);
        for h in reader_handles {
            served_answers += h.join().expect("reader panicked");
        }
        let epochs = publisher.join().expect("publisher panicked");
        println!("publisher: cut {epochs} epochs while traffic ran");
    });

    // --- 1. offline equivalence at the final epoch ----------------------
    let mut client = Client::connect(addr).expect("verifier connect");
    let final_epoch = client.publish().expect("final publish");
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.epoch(), final_epoch);

    let id_to_vector = id_to_vector.into_inner().unwrap();
    let vectors: Vec<SparseVector> = snapshot
        .global_ids()
        .iter()
        .map(|gid| id_to_vector[gid].clone())
        .collect();
    let coll = VectorCollection::from_vectors(vectors);
    let offline_index = LshIndex::build(&coll, LshParams::new(16, 1).with_seed(7).with_threads(1));
    let estimator = LshSs {
        config: engine.estimator_config(coll.len()),
    };
    for tau in TAUS {
        let served = client.estimate(tau).expect("estimate");
        assert_eq!(served.epoch, final_epoch);
        let mut rng = engine.batch_rng(final_epoch);
        let offline =
            estimator.estimate_curve(&coll, offline_index.table(0), &Cosine, &[tau], &mut rng)[0];
        assert_eq!(
            served.value, offline.value,
            "served answer at τ={tau} must equal the offline build"
        );
        println!(
            "τ = {tau}: served Ĵ = {:.1} over n = {} == offline rebuild (bit-exact) ✓",
            served.value, served.n
        );
    }

    // --- 2. observability: /metrics + /trace/slow scrape -----------------
    let exposition = client.metrics().expect("scrape /metrics");
    let samples = vsj::obs::validate_exposition(&exposition)
        .expect("/metrics must serve a valid Prometheus text exposition");
    for required in [
        "vsj_engine_sampling_passes_total",
        "vsj_engine_publish_duration_us_count",
        "vsj_wal_fsync_duration_us_count",
        "vsj_server_route_latency_us_count",
        "vsj_server_publish_lag",
    ] {
        assert!(
            exposition.contains(required),
            "/metrics is missing the required series {required}"
        );
    }
    let estimates = exposition
        .lines()
        .find_map(|line| line.strip_prefix("vsj_server_route_requests_total{route=\"/estimate\"} "))
        .and_then(|value| value.parse::<f64>().ok())
        .expect("the /estimate route counter");
    assert_eq!(estimates, (served_answers + TAUS.len() as u64) as f64);
    let stats = server.stats();
    println!(
        "\nserver: {} requests on {} connections; {estimates} estimates answered on the workers; \
         {} ingests shed",
        stats.requests, stats.connections, stats.shed_ingests,
    );
    let slow = client.slow_traces().expect("scrape /trace/slow");
    let captured = slow
        .get("captured")
        .and_then(vsj::server::json::Json::as_u64)
        .expect("capture counter");
    println!("observability: {samples} metric samples exposed; {captured} slow traces captured");

    // --- 3. graceful shutdown cuts a checkpoint; restart is identical ---
    let checkpointed = server
        .shutdown()
        .expect("graceful shutdown")
        .expect("final checkpoint taken");
    println!("\nshutdown: drained and checkpointed epoch {checkpointed}");
    drop(engine);

    let revived = Arc::new(EstimationEngine::recover(&dir).expect("recover"));
    assert_eq!(revived.wal_pending(), 0, "shutdown checkpoint covered all");
    let server2 = Server::start(revived.clone(), ServerConfig::default()).expect("rebind");
    let mut client2 = Client::connect(server2.addr()).expect("reconnect");
    let after = client2.estimate(0.7).expect("post-restart estimate");
    assert_eq!(
        after.epoch, checkpointed,
        "restart resumes at the checkpoint"
    );
    assert_eq!(after.n, coll.len());
    // The corpus did not change between the final publish and the
    // shutdown checkpoint, so the offline rebuild replicates the
    // restarted server's answer at the checkpointed epoch bit-for-bit.
    let mut rng = revived.batch_rng(checkpointed);
    let offline =
        estimator.estimate_curve(&coll, offline_index.table(0), &Cosine, &[0.7], &mut rng)[0];
    assert_eq!(
        after.value, offline.value,
        "restarted server must answer identically to the offline build"
    );
    println!(
        "restarted server answers Ĵ(0.7) = {:.1} at epoch {} == offline rebuild ✓",
        after.value, after.epoch
    );
    server2.shutdown().expect("shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
