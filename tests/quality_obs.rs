//! End-to-end acceptance tests for estimator-quality observability
//! (PR 9): confidence intervals on the wire, the online accuracy
//! auditor, and the calibration series.
//!
//! The headline properties:
//!
//! 1. **Interval invariants on every wire response** — a `"ci": true`
//!    estimate request yields `ci_low ≤ value ≤ ci_high` with
//!    `ci_low ≥ 0`, and a memo-served answer replays the same interval
//!    it was computed with. Responses without the flag carry none of
//!    the new keys (old clients stay byte-stable).
//! 2. **Audit CI-coverage** — on a synthetic corpus at default auditor
//!    settings the served ~95% intervals cover exact ground truth on at
//!    least ~90% of scored cycles.
//! 3. **Exposition** — `/metrics` exposes the `vsj_audit_*` series and
//!    the merged engine+server exposition passes
//!    [`validate_exposition`], and `/quality` serves the audit summary
//!    as JSON; background audit cycles land in `/trace/slow` with
//!    `op == "audit"`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vsj::obs::validate_exposition;
use vsj::prelude::*;
use vsj::server::json::Json;

const TAUS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

fn fixed_estimator() -> LshSsConfig {
    LshSsConfig {
        m_h: 512,
        m_l: 512,
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

/// A published engine over a small synthetic corpus.
fn seeded_engine(seed: u64, docs: usize) -> Arc<EstimationEngine> {
    let engine = Arc::new(EstimationEngine::new(engine_config(seed)));
    let data = DblpLike::with_size(docs).generate(seed);
    for v in data.vectors() {
        engine.insert(v.clone());
    }
    engine.publish();
    engine
}

/// The value of an unlabelled counter or gauge in an exposition.
fn sample(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("exposition lacks {name}"))
        .parse()
        .expect("integer sample")
}

/// Samples recorded so far across every histogram in an exposition
/// (the sum of their `_count` series).
fn histogram_records(exposition: &str) -> u64 {
    let histograms: Vec<&str> = exposition
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" histogram"))
        .collect();
    exposition
        .lines()
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let name = series.split('{').next()?.strip_suffix("_count")?;
            histograms
                .contains(&name)
                .then(|| value.parse::<u64>().expect("integer count"))
        })
        .sum()
}

#[test]
fn wire_responses_carry_a_well_ordered_interval_only_when_asked() {
    let engine = seeded_engine(42, 300);
    let server = Server::start(engine, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    for tau in TAUS {
        // Without the flag: none of the interval keys appear.
        let plain = client.estimate(tau).expect("estimate");
        assert_eq!(plain.std_err, None, "std_err must be opt-in");
        assert_eq!(plain.ci_low, None, "ci_low must be opt-in");
        assert_eq!(plain.ci_high, None, "ci_high must be opt-in");

        // With it: a well-ordered non-negative interval around the
        // same point estimate (the flag must not perturb the value).
        let with_ci = client.estimate_with_ci(tau).expect("estimate with ci");
        assert_eq!(with_ci.value.to_bits(), plain.value.to_bits());
        let std_err = with_ci.std_err.expect("std_err requested");
        let ci_low = with_ci.ci_low.expect("ci_low requested");
        let ci_high = with_ci.ci_high.expect("ci_high requested");
        assert!(std_err.is_finite() && std_err >= 0.0);
        assert!(
            ci_low >= 0.0 && ci_low <= with_ci.value && with_ci.value <= ci_high,
            "interval disordered at tau {tau}: [{ci_low}, {ci_high}] around {}",
            with_ci.value
        );

        // A memo-served replay carries the identical interval.
        let replay = client.estimate_with_ci(tau).expect("cached estimate");
        assert!(replay.cached, "second ask should hit the snapshot's memo");
        assert_eq!(replay.value.to_bits(), with_ci.value.to_bits());
        assert_eq!(replay.std_err.unwrap().to_bits(), std_err.to_bits());
        assert_eq!(replay.ci_low.unwrap().to_bits(), ci_low.to_bits());
        assert_eq!(replay.ci_high.unwrap().to_bits(), ci_high.to_bits());
    }
}

#[test]
fn audit_coverage_hits_ninety_percent_on_a_synthetic_corpus() {
    let engine = seeded_engine(7, 250);
    // Serve each threshold so the auditor has a pool to pick from.
    for tau in TAUS {
        engine.estimate(tau);
    }
    // Three deterministic audit rotations over the four served
    // thresholds, at default auditor settings (full-corpus exact truth:
    // 250 ≤ max_exact_n).
    let options = AuditOptions::default();
    for _ in 0..12 {
        engine
            .audit_once(&options)
            .expect("a served ring is never empty once fed");
    }
    let report = engine.quality_report();
    assert_eq!(report.cycles, 12);
    assert_eq!(report.within_ci + report.outside_ci, 12);
    assert_eq!(report.served_taus, TAUS.len());
    let coverage = report.coverage.expect("scored cycles");
    assert!(
        coverage >= 0.9,
        "CI coverage {coverage} below 0.9 (within {}, outside {})",
        report.within_ci,
        report.outside_ci
    );
    assert!(report.worst.len() <= vsj::service::WORST_CAPACITY);
}

/// The auditor must score the number a wire client received, not a
/// second draw: the wire, `estimate`, `estimate_batch` and `audit_once`
/// all go through one estimate path and one cache entry per (τ, config).
#[test]
fn the_auditor_audits_the_answer_the_wire_served() {
    let engine = seeded_engine(23, 200);
    let server = Server::start(engine.clone(), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let tau = 0.6;
    let wire = client.estimate(tau).expect("estimate");
    assert!(!wire.cached, "the first ask samples");

    let record = engine
        .audit_once(&AuditOptions::default())
        .expect("the wire answer fed the served ring");
    assert_eq!(record.tau, tau);
    assert!(record.cached, "the audit re-serves the wire's cache entry");
    assert_eq!(record.estimate.to_bits(), wire.value.to_bits());
    assert_eq!(record.epoch, wire.epoch);

    let single = engine.estimate(tau);
    let batch = engine.estimate_batch(&[tau])[0];
    assert_eq!(single, batch, "a single estimate is a batch of one");
    assert_eq!(single.estimate.value.to_bits(), wire.value.to_bits());
    assert_eq!(
        engine.stats().cache_entries,
        1,
        "one cache entry per (τ, config), whichever API asked"
    );
    assert_eq!(
        engine.stats().sampling_passes,
        1,
        "one pass served them all"
    );
}

#[test]
fn quality_and_metrics_expose_the_audit_series() {
    let engine = seeded_engine(11, 200);
    let server = Server::start(
        engine.clone(),
        ServerConfig::builder()
            .obs(ObsOptions {
                // Capture every request and audit cycle in the ring.
                slow_query_threshold: Duration::ZERO,
                ..ObsOptions::default()
            })
            .build(),
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Serve over the wire, then let a background auditor score cycles,
    // offering its traces into the server's ring.
    for tau in TAUS {
        client.estimate_with_ci(tau).expect("estimate");
    }
    let auditor = Auditor::spawn(
        engine.clone(),
        AuditOptions::default(),
        Duration::from_millis(1),
        Some(server.trace_ring()),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.quality_report().cycles < 4 {
        assert!(Instant::now() < deadline, "auditor made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    let cycles = auditor.stop();
    assert!(cycles >= 4);

    // `/quality`: the audit summary document.
    let quality = client.quality().expect("quality");
    let scored = quality
        .get("cycles")
        .and_then(Json::as_u64)
        .expect("cycles");
    assert!(scored >= 4);
    assert!(quality.get("coverage").and_then(Json::as_f64).is_some());
    let worst = quality
        .get("worst")
        .and_then(Json::as_arr)
        .expect("worst ring");
    assert!(!worst.is_empty() && worst.len() <= vsj::service::WORST_CAPACITY);
    for record in worst {
        let lo = record.get("ci_low").and_then(Json::as_f64).expect("ci_low");
        let hi = record
            .get("ci_high")
            .and_then(Json::as_f64)
            .expect("ci_high");
        let est = record
            .get("estimate")
            .and_then(Json::as_f64)
            .expect("estimate");
        assert!(lo <= est && est <= hi);
    }

    // `/metrics`: audit series present, merged exposition valid.
    let text = client.metrics().expect("metrics");
    for series in [
        "vsj_audit_cycles_total",
        "vsj_audit_within_ci_total",
        "vsj_audit_outside_ci_total",
        "vsj_audit_relative_error_bp_bucket",
        "vsj_audit_exact_duration_us_bucket",
        "vsj_obs_duplicate_metric_names",
    ] {
        assert!(text.contains(series), "metrics lack {series}");
    }
    let samples = validate_exposition(&text).expect("valid exposition");
    assert!(samples > 0);

    // `/trace/slow`: audit cycles landed in the ring with their op.
    let traces = client.slow_traces().expect("slow traces");
    let entries = traces.get("traces").and_then(Json::as_arr).expect("traces");
    let ops: Vec<&str> = entries
        .iter()
        .filter_map(|t| t.get("op").and_then(Json::as_str))
        .collect();
    assert!(ops.contains(&"audit"), "no audit trace in {ops:?}");
    assert!(ops.contains(&"request"), "no request trace in {ops:?}");

    server.shutdown().expect("shutdown");
}

/// Instrumentation is per request, not per pair: one uncached
/// `estimate_batch` records the same number of histogram samples on a
/// 2 000-row and on a 20 000-row engine, although the paper-default
/// SampleL budget `m_L = n` (and with it every pass's pair count) is
/// 10× larger on the second.
#[test]
fn instrumentation_records_per_request_not_per_pair() {
    let added = |docs: usize| {
        let engine = EstimationEngine::new(
            ServiceConfig::builder()
                .shards(4)
                .k(8)
                .seed(17)
                .family(IndexFamily::MinHash)
                .pool_threads(2)
                .build(),
        );
        for v in DblpLike::with_size(docs).generate(17).vectors() {
            engine.insert(v.clone());
        }
        engine.publish();
        let before = engine.metrics().render();
        let answers = engine.estimate_batch(&TAUS);
        assert!(answers.iter().all(|a| !a.cached), "the pass must sample");
        let after = engine.metrics().render();
        let pairs = sample(&after, "vsj_engine_sampled_pairs_total")
            - sample(&before, "vsj_engine_sampled_pairs_total");
        assert!(sample(&after, "vsj_engine_sampling_passes_total") >= 1);
        (
            histogram_records(&after) - histogram_records(&before),
            pairs,
        )
    };
    let (small_records, small_pairs) = added(2_000);
    let (large_records, large_pairs) = added(20_000);
    assert!(
        large_pairs >= 5 * small_pairs,
        "the larger engine must score far more pairs ({large_pairs} vs {small_pairs})"
    );
    assert!(small_records > 0, "the pass must be instrumented");
    assert_eq!(
        small_records, large_records,
        "histogram samples per request must not grow with the pairs scored"
    );
}
