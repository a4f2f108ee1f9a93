//! Estimator-quality observability, end to end — the CI smoke scenario
//! for the audit loop.
//!
//! One process plays both sides of the wire:
//!
//! * a [`Server`] is started on an ephemeral port, a corpus is streamed
//!   in over HTTP and published, and every threshold is served **with
//!   its confidence interval** (`"ci": true`), checking the interval
//!   invariants on each response;
//! * an [`Auditor`] runs at an **aggressive 1 ms cadence**, re-serving
//!   recently-asked thresholds, computing exact ground truth on a
//!   bounded stratum, and scoring the served intervals — its cycle
//!   traces land in the same slow-trace ring as requests.
//!
//! Then the observability surface is verified:
//!
//! 1. `GET /quality` reports the scored cycles, CI coverage, and the
//!    worst-calibrated ring;
//! 2. `GET /metrics` exposes the `vsj_audit_*` series and the merged
//!    engine+server exposition parses under
//!    [`validate_exposition`](vsj::obs::validate_exposition);
//! 3. `GET /trace/slow` tells audit cycles from requests by `op`.
//!
//! Run with: `cargo run --release --example quality`

use std::sync::Arc;
use std::time::{Duration, Instant};

use vsj::obs::validate_exposition;
use vsj::prelude::*;
use vsj::server::json::Json;

const DOCS: usize = 400;
const TAUS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];
const MIN_CYCLES: u64 = 8;

fn main() {
    let engine = Arc::new(EstimationEngine::new(
        ServiceConfig::builder().shards(4).k(12).seed(9).build(),
    ));
    let server = Server::start(
        engine.clone(),
        ServerConfig::builder()
            .obs(ObsOptions {
                // Capture every request and audit cycle into the ring
                // so the op breakdown below is deterministic.
                slow_query_threshold: Duration::ZERO,
                ..ObsOptions::default()
            })
            .build(),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    println!("serving on http://{addr} (SimHash/cosine, k = 12)\n");

    // Stream the corpus in over the wire and publish one epoch.
    let mut client = Client::connect(addr).expect("connect");
    for (_, v) in DblpLike::with_size(DOCS).generate(22).iter() {
        client.insert(v).expect("insert over the wire");
    }
    let epoch = client.publish().expect("publish");
    println!("streamed {DOCS} vectors over HTTP, published epoch {epoch}");

    // Serve every threshold with its interval; each response must be a
    // well-ordered non-negative interval around the point estimate.
    for tau in TAUS {
        let e = client.estimate_with_ci(tau).expect("estimate with ci");
        let (lo, hi) = (e.ci_low.expect("ci_low"), e.ci_high.expect("ci_high"));
        assert!(
            lo >= 0.0 && lo <= e.value && e.value <= hi,
            "disordered interval at tau {tau}"
        );
        println!(
            "Ĵ({tau}) = {:.1}  (std_err {:.1}, ~95% CI [{:.1}, {:.1}])",
            e.value,
            e.std_err.expect("std_err"),
            lo,
            hi
        );
    }

    // The auditor, at an aggressive cadence: every millisecond it picks
    // a recently-served threshold, re-serves it, and holds the answer
    // against exact ground truth on a bounded stratum (the whole corpus
    // here: 400 ≤ max_exact_n, so truth is exact and the coverage
    // assertion below scores only the served intervals, not auditor
    // subsampling noise).
    let auditor = Auditor::spawn(
        engine.clone(),
        AuditOptions {
            max_exact_n: 512,
            exact_threads: 1,
        },
        Duration::from_millis(1),
        Some(server.trace_ring()),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.quality_report().cycles < MIN_CYCLES {
        assert!(Instant::now() < deadline, "auditor made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    let cycles = auditor.stop();
    println!("\nauditor stopped after {cycles} scored cycles");

    // 1. `GET /quality`: the audit summary document.
    let quality = client.quality().expect("GET /quality");
    let get_u64 = |f: &str| {
        quality
            .get(f)
            .and_then(Json::as_u64)
            .expect("quality field")
    };
    let coverage = quality
        .get("coverage")
        .and_then(Json::as_f64)
        .expect("coverage after scored cycles");
    let worst = quality
        .get("worst")
        .and_then(Json::as_arr)
        .expect("worst ring");
    println!(
        "/quality: cycles {} (skipped {}), within CI {}, outside {}, coverage {:.2}, worst ring {}",
        get_u64("cycles"),
        get_u64("skipped"),
        get_u64("within_ci"),
        get_u64("outside_ci"),
        coverage,
        worst.len()
    );
    assert!(get_u64("cycles") >= MIN_CYCLES);
    assert!(!worst.is_empty());
    assert!(
        coverage >= 0.9,
        "CI coverage {coverage} below 0.9 — served intervals are miscalibrated"
    );

    // 2. `GET /metrics`: audit series present, merged exposition valid.
    let text = client.metrics().expect("GET /metrics");
    for series in [
        "vsj_audit_cycles_total",
        "vsj_audit_within_ci_total",
        "vsj_audit_relative_error_bp_bucket",
        "vsj_audit_exact_duration_us_bucket",
        "vsj_obs_duplicate_metric_names",
    ] {
        assert!(text.contains(series), "metrics lack {series}");
    }
    let samples = validate_exposition(&text).expect("valid exposition");
    println!("/metrics: {samples} samples, audit series present, exposition valid");

    // 3. `GET /trace/slow`: audit cycles and requests share the ring,
    // told apart by `op`.
    let traces = client.slow_traces().expect("GET /trace/slow");
    let entries = traces.get("traces").and_then(Json::as_arr).expect("traces");
    let audits = entries
        .iter()
        .filter(|t| t.get("op").and_then(Json::as_str) == Some("audit"))
        .count();
    let requests = entries.len() - audits;
    println!("/trace/slow: {audits} audit cycles + {requests} requests in the ring");
    assert!(audits >= 1, "no audit trace captured");
    assert!(requests >= 1, "no request trace captured");

    server.shutdown().expect("shutdown");
    println!("\nquality demo OK");
}
