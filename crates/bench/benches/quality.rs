//! Estimator-quality observability overhead: serving throughput with a
//! background accuracy auditor vs. the plain serving configuration.
//!
//! PR 9 added per-estimate confidence intervals (variance accumulation
//! riding the existing sampling draws) and an online [`Auditor`] that
//! recomputes exact ground truth for recently-served thresholds on its
//! own thread. The interval accumulation is always-on by design (like
//! the metrics layer); the auditor is the new optional subsystem — and
//! the promise is that running it at an **aggressive cadence** costs
//! the serving hot path **under 5%** of `estimate_batch` throughput
//! versus the audit-free baseline configuration (the pre-PR 9 serving
//! setup). Asserted here, so CI fails if the audit loop leaks onto the
//! serving path (shared locks, cache thrash, CPU starvation).
//!
//! Emits a JSON summary line (prefixed `QUALITY_BENCH_JSON:`) for the
//! perf-trajectory tooling.
//!
//! Run with: `cargo bench -p vsj-bench --bench quality`

use std::sync::Arc;
use std::time::{Duration, Instant};

use vsj_bench::BENCH_SCHEMA_VERSION;
use vsj_datasets::DblpLike;
use vsj_service::{AuditOptions, Auditor, EstimationEngine, ServiceConfig};

const DOCS: usize = 2_000;
const TAUS: [f64; 4] = [0.5, 0.7, 0.8, 0.9];
const ITERS: usize = 60;
const ROUNDS: usize = 5;
/// Acceptance bound from the issue: the audit loop must cost < 5% of
/// `estimate_batch` throughput.
const MAX_OVERHEAD: f64 = 0.05;

fn build_engine() -> Arc<EstimationEngine> {
    let engine = Arc::new(EstimationEngine::new(
        ServiceConfig::builder()
            .shards(8)
            .k(16)
            .seed(3)
            .cache_epsilon(0)
            .build(),
    ));
    for (_, v) in DblpLike::with_size(DOCS).generate(1).iter() {
        engine.insert(v.clone());
    }
    engine.publish();
    engine
}

/// One measured round: `ITERS` full sampling passes (the cache is
/// dropped before each call so every iteration pays the real hot
/// path — though the concurrent auditor may re-fill entries, which only
/// flatters the audited arm).
fn round(engine: &EstimationEngine) -> Duration {
    let started = Instant::now();
    for _ in 0..ITERS {
        engine.clear_cache();
        let answers = engine.estimate_batch(&TAUS);
        assert_eq!(answers.len(), TAUS.len());
    }
    started.elapsed()
}

fn main() {
    let baseline = build_engine();
    let audited = build_engine();

    // Feed the served-threshold ring, then run the auditor as fast as
    // it can cycle: every poll picks a threshold, re-serves it, and
    // runs a bounded exact join — the aggressive-cadence configuration.
    audited.estimate_batch(&TAUS);
    let auditor = Auditor::spawn(
        audited.clone(),
        AuditOptions {
            max_exact_n: 512,
            exact_threads: 1,
        },
        Duration::from_millis(1),
        None,
    );

    // Warm both engines (page in the snapshot, settle the allocator).
    round(&baseline);
    round(&audited);

    // Interleave the measurements so ambient machine noise hits both
    // arms equally rather than biasing whichever ran second.
    let mut t_baseline = Duration::MAX;
    let mut t_audited = Duration::MAX;
    for _ in 0..ROUNDS {
        t_baseline = t_baseline.min(round(&baseline));
        t_audited = t_audited.min(round(&audited));
    }

    let cycles = auditor.stop();
    let report = audited.quality_report();
    assert!(
        report.cycles >= 1,
        "the auditor must have scored at least one cycle while serving"
    );

    let per_call_baseline = t_baseline.as_secs_f64() / ITERS as f64;
    let per_call_audited = t_audited.as_secs_f64() / ITERS as f64;
    let overhead = per_call_audited / per_call_baseline - 1.0;

    println!(
        "quality bench: n = {DOCS} (DBLP-like), k = 16, 8 shards, {} τ per batch, {ITERS} passes × best-of-{ROUNDS}",
        TAUS.len()
    );
    println!(
        "auditor: {cycles} cycles at 1 ms cadence (max_exact_n = 512), coverage {:?}\n",
        report.coverage
    );
    println!(
        "{:<14} {:>16} {:>16}",
        "engine", "per batch (µs)", "batches/sec"
    );
    for (name, per_call) in [
        ("audited", per_call_audited),
        ("baseline", per_call_baseline),
    ] {
        println!(
            "{:<14} {:>16.1} {:>16.0}",
            name,
            per_call * 1e6,
            1.0 / per_call
        );
    }
    println!(
        "\naudit-loop overhead: {:+.2}% (bound {:.0}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );

    // Machine-readable summary for the perf trajectory.
    println!(
        concat!(
            "\nQUALITY_BENCH_JSON:{{\"schema\":{},\"bench\":\"quality_overhead\",",
            "\"n\":{},\"k\":16,\"shards\":8,\"iters\":{},\"audit_cycles\":{},",
            "\"audited_us_per_batch\":{:.2},\"baseline_us_per_batch\":{:.2},",
            "\"overhead_frac\":{:.5}}}"
        ),
        BENCH_SCHEMA_VERSION,
        DOCS,
        ITERS,
        cycles,
        per_call_audited * 1e6,
        per_call_baseline * 1e6,
        overhead
    );

    assert!(
        overhead < MAX_OVERHEAD,
        "audit-loop overhead {:.2}% exceeds the {:.0}% budget",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
}
