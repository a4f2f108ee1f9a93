//! `vsj-server` — the network serving layer over
//! [`vsj_service::EstimationEngine`].
//!
//! The engine is a concurrent, durable, incrementally-publishing
//! estimator, but only as an in-process library. This crate puts a wire
//! in front of it: a small HTTP/1.1 JSON protocol (`docs/PROTOCOL.md`)
//! served entirely on `std::net` blocking sockets (the build
//! environment has no registry access, so no tokio/hyper — one acceptor
//! thread and a bounded pool of workers).
//!
//! ```text
//!   clients ──► acceptor ──► bounded conn queue ──► workers
//!                                                     │
//!                    ingests (shed 429 on publish lag) │ estimates
//!                                                     ▼
//!                             EstimationEngine::estimate(τ): one
//!                             sampling pass on the worker that read it
//! ```
//!
//! Three properties define the layer:
//!
//! * **One pass per request** — a `POST /estimate` runs
//!   [`EstimationEngine::estimate`] on the worker that read it, inside
//!   the router's panic guard: a panicking pass costs that request a
//!   `500`, never a thread or a later request. The engine's batch RNG
//!   is keyed by the epoch alone, so every answer equals the offline
//!   run at its epoch, whichever requests ran beside it. Passes on
//!   different workers share the engine's work pool.
//! * **Backpressure, not queues** — ingest requests are shed with `429`
//!   once the engine's publish lag crosses
//!   [`ServerConfig::max_publish_lag`] (or the WAL backlog crosses
//!   [`ServerConfig::max_wal_depth`]); the connection queue is bounded,
//!   and estimates in flight are at most
//!   [`ServerConfig::workers`]. Nothing in the server grows without
//!   bound under overload.
//! * **Graceful shutdown** — [`Server::shutdown`] stops intake, drains
//!   queued connections and in-flight requests (every accepted request
//!   gets a real answer), and optionally cuts a final checkpoint on a
//!   durable engine.
//!
//! [`EstimationEngine::estimate`]: vsj_service::EstimationEngine::estimate
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vsj_server::{Client, Server, ServerConfig};
//! use vsj_service::{EstimationEngine, ServiceConfig};
//!
//! let engine = Arc::new(EstimationEngine::new(
//!     ServiceConfig::builder().shards(2).k(8).seed(42).build(),
//! ));
//! let server = Server::start(engine, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! for i in 0..50u32 {
//!     client.insert_members(&[i % 8, 100 + i % 5]).unwrap();
//! }
//! client.publish().unwrap();
//! let answer = client.estimate(0.7).unwrap();
//! assert_eq!(answer.epoch, 1);
//! assert_eq!(answer.n, 50);
//! server.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod http;
pub mod json;
mod server;

pub use client::{Client, ClientError, Estimated};
pub use server::{Server, ServerConfig, ServerConfigBuilder, ServerStats};
pub use vsj_obs::ObsOptions;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use vsj_service::{EstimationEngine, IndexFamily, ServiceConfig};

    fn engine() -> Arc<EstimationEngine> {
        Arc::new(EstimationEngine::new(
            ServiceConfig::builder()
                .shards(4)
                .k(8)
                .seed(9)
                .family(IndexFamily::MinHash)
                .build(),
        ))
    }

    fn start(engine: Arc<EstimationEngine>, config: ServerConfig) -> Server {
        Server::start(engine, config).expect("bind ephemeral port")
    }

    #[test]
    fn full_protocol_roundtrip() {
        let server = start(engine(), ServerConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();

        // Ingest, publish, estimate.
        let a = client.insert_members(&[1, 2, 3]).unwrap();
        let b = client.insert_members(&[1, 2, 3]).unwrap();
        let c = client.insert_members(&[9, 10]).unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(client.publish().unwrap(), 1);
        let answer = client.estimate(0.9).unwrap();
        assert_eq!(answer.epoch, 1);
        assert_eq!(answer.n, 3);
        assert!(answer.value >= 1.0, "the duplicate pair joins at τ=0.9");

        // Remove + upsert round-trip.
        assert!(client.remove(c).unwrap());
        assert!(!client.remove(c).unwrap(), "double remove is a no-op");
        let vec = vsj_vector::SparseVector::from_entries(vec![(4, 0.5), (7, 1.5)]).unwrap();
        assert!(!client.upsert(77, &vec).unwrap(), "fresh id inserted");
        assert!(client.upsert(77, &vec).unwrap(), "second upsert replaces");
        assert_eq!(client.publish().unwrap(), 2);

        // The server answer equals the engine's own batch answer.
        let served = client.estimate(0.5).unwrap();
        let direct = server.engine().estimate_batch(&[0.5])[0];
        assert_eq!(served.value, direct.estimate.value);
        assert_eq!(served.epoch, direct.epoch);

        // Health + stats.
        assert_eq!(client.health().unwrap(), 2);
        let stats = client.stats().unwrap();
        assert_eq!(
            stats
                .get("engine")
                .and_then(|e| e.get("epoch"))
                .and_then(json::Json::as_u64),
            Some(2)
        );
        assert!(
            stats
                .get("server")
                .and_then(|s| s.get("requests"))
                .and_then(json::Json::as_u64)
                .unwrap()
                > 0
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn checkpoint_on_non_durable_engine_is_conflict() {
        let server = start(engine(), ServerConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        match client.checkpoint() {
            Err(ClientError::Status { status: 409, .. }) => {}
            other => panic!("expected 409, got {other:?}"),
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn malformed_requests_get_clean_errors() {
        let server = start(engine(), ServerConfig::builder().max_body(256).build());
        let mut client = Client::connect(server.addr()).unwrap();
        match client.estimate(7.0) {
            Err(ClientError::Status {
                status: 400,
                message,
            }) => {
                assert!(message.contains("outside"), "{message}")
            }
            other => panic!("expected 400, got {other:?}"),
        }
        // The connection survives an application-level 400.
        client.insert_members(&[1]).unwrap();

        // Raw probes: unknown path, bad method, bad JSON, oversized body.
        let probe = |raw: &str| -> u16 {
            use std::io::Write;
            let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            let mut response = String::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut reader = std::io::BufReader::new(&mut stream);
            std::io::BufRead::read_line(&mut reader, &mut response).unwrap();
            response
                .split_whitespace()
                .nth(1)
                .and_then(|code| code.parse().ok())
                .unwrap_or_else(|| panic!("no status in {response:?}"))
        };
        assert_eq!(
            probe("POST /nope HTTP/1.1\r\ncontent-length: 0\r\n\r\n"),
            404
        );
        assert_eq!(
            probe("PUT /estimate HTTP/1.1\r\ncontent-length: 0\r\n\r\n"),
            405
        );
        assert_eq!(
            probe("POST /estimate HTTP/1.1\r\ncontent-length: 3\r\n\r\n{{{"),
            400
        );
        assert_eq!(
            probe("POST /insert HTTP/1.1\r\ncontent-length: 9999\r\n\r\n"),
            413
        );
        assert_eq!(probe("GARBAGE\r\n\r\n"), 400);
        server.shutdown().unwrap();
    }

    #[test]
    fn publish_lag_sheds_ingests_until_publish() {
        let server = start(
            engine(),
            ServerConfig::builder().max_publish_lag(10).build(),
        );
        let mut client = Client::connect(server.addr()).unwrap();
        let mut accepted = 0u64;
        let mut shed = 0u64;
        for i in 0..40u32 {
            match client.insert_members(&[i, i + 1]) {
                Ok(_) => accepted += 1,
                Err(ClientError::Overloaded { retry_after, .. }) => {
                    assert!(retry_after >= Duration::from_secs(1));
                    shed += 1;
                }
                Err(other) => panic!("unexpected {other}"),
            }
        }
        assert_eq!(accepted, 10, "exactly the lag budget is accepted");
        assert_eq!(shed, 30);
        assert_eq!(server.stats().shed_ingests, 30);

        // A publish clears the lag; ingests flow again.
        client.publish().unwrap();
        client.insert_members(&[500, 501]).unwrap();
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_cuts_final_checkpoint_when_asked() {
        let dir = std::env::temp_dir().join(format!("vsj-server-shutdown-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig::builder()
            .shards(2)
            .k(8)
            .seed(4)
            .family(IndexFamily::MinHash)
            .build();
        let durable = Arc::new(EstimationEngine::durable(config, &dir).unwrap());
        let server = start(
            durable,
            ServerConfig::builder().checkpoint_on_shutdown(true).build(),
        );
        let mut client = Client::connect(server.addr()).unwrap();
        for i in 0..20u32 {
            client.insert_members(&[i % 4, 50 + i % 3]).unwrap();
        }
        let answer = client.estimate(0.6).unwrap();
        let final_epoch = server.shutdown().unwrap();
        assert!(final_epoch.is_some(), "shutdown checkpointed");

        // The checkpoint holds everything — recovery needs no WAL tail.
        let revived = EstimationEngine::recover(&dir).unwrap();
        assert_eq!(revived.wal_pending(), 0);
        assert_eq!(revived.current_epoch(), final_epoch.unwrap());
        assert_eq!(revived.snapshot().len(), 20);
        let _ = answer;
        std::fs::remove_dir_all(&dir).ok();
    }
}
