//! Estimator-quality auditing: the online estimate-vs-exact loop.
//!
//! The engine's other metrics watch *mechanical* health (latency, queue
//! depth, WAL depth); this module watches whether the numbers the
//! engine serves are any good. On every audit cycle the engine re-asks
//! itself for a threshold it recently served, through the one estimate
//! path every client uses — so it scores the answer a client would get
//! right now, cached or fresh, with its confidence interval —
//! then computes exact ground truth on a bounded stratum via
//! [`vsj_exact::ExactJoin`] and scores the served answer:
//!
//! ```text
//!   served τ ring ──► estimate(τ) ──► ExactJoin on ≤ max_exact_n
//!        ▲                │   vectors (full corpus when it fits,
//!        │                │   a deterministic subset scaled by
//!   note_served(τ)        │   C(n,2)/C(b,2) otherwise)
//!   on every answer       ▼
//!              signed_relative_error + CI-coverage
//!                (vsj_audit_* series, worst-calibrated ring)
//! ```
//!
//! The resulting series are the production form of the paper's §6.1
//! evaluation protocol: over/under relative-error histograms and a
//! CI-coverage ratio (how often truth fell inside the served ~95%
//! interval — should sit near 0.95 when the estimator is calibrated).
//!
//! One limit of this loop: every answer at an epoch comes from the one
//! pair sample that epoch's RNG draws, so re-auditing a τ at the same
//! epoch re-serves the same sample (from the snapshot's memo, with no
//! new sampling pass) and scores it again. Repeated audits of one τ are
//! not independent trials; coverage and bias only average out across
//! epochs (or seeds), never across repeated calls at one epoch.
//!
//! [`Auditor`] is the background driver, shaped like
//! [`Checkpointer`](crate::Checkpointer) /
//! [`Compactor`](crate::Compactor): a poll loop, explicit
//! [`stop`](Auditor::stop), join-on-drop. Unlike those it needs no
//! durable storage — any engine can be audited.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::Mutex;

use crate::locks;

use vsj_obs::{Counter, Histogram, ObsOptions, Registry, Trace, TraceRing};
use vsj_sampling::Summary;

use crate::background::PollThread;
use crate::engine::EstimationEngine;

/// Knobs of one audit cycle (see [`EstimationEngine::audit_once`]).
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// Largest corpus audited *exactly*. Above it, ground truth is
    /// computed on a deterministic subset of this many vectors and
    /// scaled by `C(n,2)/C(b,2)` — a bounded-cost stand-in that keeps
    /// the audit loop O(`max_exact_n`²) regardless of corpus size.
    pub max_exact_n: usize,
    /// Threads for the exact join (1 keeps the auditor off the serving
    /// path's cores).
    pub exact_threads: usize,
}

impl Default for AuditOptions {
    fn default() -> Self {
        Self {
            max_exact_n: 2048,
            exact_threads: 1,
        }
    }
}

impl AuditOptions {
    /// Panics on unusable settings.
    pub fn validate(&self) {
        assert!(self.max_exact_n >= 2, "auditing needs at least one pair");
        assert!(self.exact_threads >= 1, "exact_threads must be at least 1");
    }
}

/// One scored audit cycle: the served answer, the ground truth it was
/// held against, and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRecord {
    /// Threshold audited (picked from the recently-served ring).
    pub tau: f64,
    /// Epoch of the served answer.
    pub epoch: u64,
    /// Live size of the snapshot the truth was computed against.
    pub n: usize,
    /// Vectors the exact join actually ran over (≤ `max_exact_n`).
    pub audited_n: usize,
    /// The served point estimate.
    pub estimate: f64,
    /// Its standard error.
    pub std_err: f64,
    /// Served ~95% interval, low edge.
    pub ci_low: f64,
    /// Served ~95% interval, high edge.
    pub ci_high: f64,
    /// Ground truth (exact on the audited stratum, scaled to the full
    /// corpus when the stratum was a subset).
    pub truth: f64,
    /// `signed_relative_error(estimate, truth)` — positive is an
    /// overestimate (+∞ when truth is 0 but the estimate is not).
    pub signed_error: f64,
    /// Whether truth fell inside `[ci_low, ci_high]`.
    pub within_ci: bool,
    /// Whether the served answer came from the snapshot's memo.
    pub cached: bool,
    /// Time serving the estimate took (cache hit or sampling pass), µs.
    pub serve_us: u64,
    /// Time the exact join took, µs.
    pub exact_us: u64,
}

/// Point-in-time audit summary (see
/// [`EstimationEngine::quality_report`]).
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Scored audit cycles.
    pub cycles: u64,
    /// Cycles skipped (nothing served yet, or a < 2-vector snapshot).
    pub skipped: u64,
    /// Cycles where truth fell inside the served interval.
    pub within_ci: u64,
    /// Cycles where it fell outside.
    pub outside_ci: u64,
    /// `within / (within + outside)`, `None` before the first scored
    /// cycle. Near 0.95 when the served intervals are calibrated.
    pub coverage: Option<f64>,
    /// Welford summary of the finite signed relative errors (mean near
    /// 0 for an unbiased estimator; see
    /// [`Summary::mean`]/[`Summary::std`]).
    pub errors: Summary,
    /// Worst-calibrated audited queries, largest |signed error| first
    /// (bounded; see [`WORST_CAPACITY`]).
    pub worst: Vec<AuditRecord>,
    /// Distinct thresholds currently in the recently-served ring.
    pub served_taus: usize,
}

/// Bound on the worst-calibrated ring in a [`QualityReport`].
pub const WORST_CAPACITY: usize = 8;

/// Bound on the recently-served threshold ring the auditor picks from.
const SERVED_CAPACITY: usize = 64;

/// Scale of the relative-error histograms: basis points (1% = 100).
const ERROR_BP: f64 = 10_000.0;

#[derive(Default)]
struct ServedRing {
    taus: Vec<f64>,
    next: usize,
}

/// The engine-resident audit state: the recently-served ring the
/// auditor picks thresholds from, the `vsj_audit_*` series, and the
/// worst-calibrated ring. Registered on the *engine's* registry so the
/// serving layer's `/metrics` exposition carries the series with no new
/// plumbing.
pub(crate) struct AuditState {
    served: Mutex<ServedRing>,
    rotation: AtomicU64,
    worst: Mutex<Vec<AuditRecord>>,
    errors: Mutex<Summary>,
    pub(crate) cycles: Counter,
    pub(crate) skipped: Counter,
    pub(crate) within_ci: Counter,
    pub(crate) outside_ci: Counter,
    over_error_bp: Histogram,
    under_error_bp: Histogram,
    pub(crate) exact_us: Histogram,
}

impl AuditState {
    pub(crate) fn new(registry: &Registry, obs: &ObsOptions) -> Self {
        Self {
            served: Mutex::new(ServedRing::default()),
            rotation: AtomicU64::new(0),
            worst: Mutex::new(Vec::new()),
            errors: Mutex::new(Summary::new()),
            cycles: registry.counter(
                "vsj_audit_cycles_total",
                "Scored estimate-vs-exact audit cycles",
            ),
            skipped: registry.counter(
                "vsj_audit_skipped_total",
                "Audit cycles skipped (nothing served yet, or a trivial snapshot)",
            ),
            within_ci: registry.counter(
                "vsj_audit_within_ci_total",
                "Audits where exact truth fell inside the served ~95% interval",
            ),
            outside_ci: registry.counter(
                "vsj_audit_outside_ci_total",
                "Audits where exact truth fell outside the served ~95% interval",
            ),
            over_error_bp: registry.histogram_with(
                "vsj_audit_relative_error_bp",
                "Absolute signed relative error of audited estimates, in basis points",
                &[("sign", "over")],
                obs.size_spec(),
            ),
            under_error_bp: registry.histogram_with(
                "vsj_audit_relative_error_bp",
                "Absolute signed relative error of audited estimates, in basis points",
                &[("sign", "under")],
                obs.size_spec(),
            ),
            exact_us: registry.histogram(
                "vsj_audit_exact_duration_us",
                "Exact-join ground-truth duration per audit cycle in microseconds",
                obs.latency_spec(),
            ),
        }
    }

    /// Notes a threshold the engine just answered (deduplicated by bit
    /// pattern; bounded ring).
    pub(crate) fn note_served(&self, tau: f64) {
        let mut ring = locks::lock(&self.served);
        if ring.taus.iter().any(|t| t.to_bits() == tau.to_bits()) {
            return;
        }
        if ring.taus.len() < SERVED_CAPACITY {
            ring.taus.push(tau);
        } else {
            let at = ring.next;
            ring.taus[at] = tau;
        }
        ring.next = (ring.next + 1) % SERVED_CAPACITY;
    }

    /// Deterministic rotation over the served ring — each call audits
    /// the next resident threshold, so every served τ gets its turn.
    pub(crate) fn next_tau(&self) -> Option<f64> {
        let ring = locks::lock(&self.served);
        if ring.taus.is_empty() {
            return None;
        }
        let at = self.rotation.fetch_add(1, Ordering::Relaxed) as usize % ring.taus.len();
        Some(ring.taus[at])
    }

    /// The thresholds currently in the served ring (tests, reports).
    pub(crate) fn served_taus(&self) -> Vec<f64> {
        locks::lock(&self.served).taus.clone()
    }

    /// Folds one scored cycle into the series and the worst ring.
    pub(crate) fn record(&self, record: AuditRecord) {
        self.cycles.inc();
        if record.within_ci {
            self.within_ci.inc();
        } else {
            self.outside_ci.inc();
        }
        let bp = (record.signed_error.abs() * ERROR_BP).min(u64::MAX as f64) as u64;
        if record.signed_error >= 0.0 {
            self.over_error_bp.record(bp);
        } else {
            self.under_error_bp.record(bp);
        }
        if record.signed_error.is_finite() {
            locks::lock(&self.errors).push(record.signed_error);
        }
        let mut worst = locks::lock(&self.worst);
        worst.push(record);
        worst.sort_by(|a, b| {
            b.signed_error
                .abs()
                .partial_cmp(&a.signed_error.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        worst.truncate(WORST_CAPACITY);
    }

    pub(crate) fn report(&self) -> QualityReport {
        // Downstream-first (within/outside before cycles), so a report
        // racing a concurrent audit can never show more verdicts than
        // cycles.
        let within_ci = self.within_ci.get();
        let outside_ci = self.outside_ci.get();
        let skipped = self.skipped.get();
        let cycles = self.cycles.get();
        let scored = within_ci + outside_ci;
        QualityReport {
            cycles,
            skipped,
            within_ci,
            outside_ci,
            coverage: (scored > 0).then(|| within_ci as f64 / scored as f64),
            errors: *locks::lock(&self.errors),
            worst: locks::lock(&self.worst).clone(),
            served_taus: locks::lock(&self.served).taus.len(),
        }
    }
}

/// A background thread that audits estimator quality on a cadence —
/// each poll runs one [`EstimationEngine::audit_once`] cycle. Works on
/// any engine (durable or not).
///
/// Stopping (explicitly via [`Auditor::stop`] or by dropping) joins the
/// thread.
#[derive(Debug)]
pub struct Auditor(PollThread);

impl Auditor {
    /// Spawns the auditor, running one audit cycle every `poll`. With
    /// `traces`, every scored cycle additionally offers a `Trace`
    /// labeled `"audit"` (stages `serve` + `exact`) to that ring — the
    /// same ring a serving layer exposes under `/trace/slow`.
    pub fn spawn(
        engine: Arc<EstimationEngine>,
        options: AuditOptions,
        poll: Duration,
        traces: Option<Arc<TraceRing>>,
    ) -> Self {
        options.validate();
        Self(PollThread::spawn("auditor", poll, move || {
            let started = Instant::now();
            let Some(record) = engine.audit_once(&options) else {
                return false;
            };
            if let Some(ring) = &traces {
                let mut trace = Trace::new("audit");
                trace.stage("serve", record.serve_us);
                trace.stage("exact", record.exact_us);
                trace.total_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                ring.offer(trace);
            }
            true
        }))
    }

    /// Signals the thread and joins it, returning how many cycles it
    /// scored.
    pub fn stop(self) -> u64 {
        self.0.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EstimationEngine, IndexFamily, ServiceConfig};
    use vsj_vector::SparseVector;

    fn members(start: u32, len: u32) -> SparseVector {
        SparseVector::binary_from_members((start..start + len).collect())
    }

    fn engine() -> EstimationEngine {
        EstimationEngine::new(
            ServiceConfig::builder()
                .shards(2)
                .k(8)
                .seed(7)
                .family(IndexFamily::MinHash)
                .build(),
        )
    }

    #[test]
    fn audit_skips_until_something_was_served() {
        let e = engine();
        assert!(e.audit_once(&AuditOptions::default()).is_none());
        let report = e.quality_report();
        assert_eq!(report.cycles, 0);
        assert_eq!(report.skipped, 1);
        assert!(report.coverage.is_none());
    }

    #[test]
    fn served_ring_deduplicates_and_rotates() {
        let e = engine();
        for i in 0..100u32 {
            e.insert(members(i % 20, 5));
        }
        e.publish();
        for _ in 0..3 {
            e.estimate(0.5);
            e.estimate(0.7);
        }
        let served = e.recently_served();
        assert_eq!(served.len(), 2, "repeats deduplicate: {served:?}");
        // The rotation visits both thresholds across two cycles.
        let a = e.audit_once(&AuditOptions::default()).unwrap();
        let b = e.audit_once(&AuditOptions::default()).unwrap();
        let mut taus = [a.tau, b.tau];
        taus.sort_by(f64::total_cmp);
        assert_eq!(taus, [0.5, 0.7]);
    }

    #[test]
    fn full_corpus_audit_uses_exact_truth() {
        let e = engine();
        for i in 0..60u32 {
            e.insert(members(i % 10, 5));
        }
        e.publish();
        let served = e.estimate(0.8);
        let record = e.audit_once(&AuditOptions::default()).unwrap();
        assert_eq!(record.tau, 0.8);
        assert_eq!(record.n, 60);
        assert_eq!(record.audited_n, 60, "60 ≤ max_exact_n: exact, unscaled");
        assert_eq!(record.estimate, served.estimate.value);
        assert!(record.truth.fract() == 0.0, "unscaled truth is a count");
        assert!(record.ci_low <= record.estimate && record.estimate <= record.ci_high);
        let report = e.quality_report();
        assert_eq!(report.cycles, 1);
        assert_eq!(report.within_ci + report.outside_ci, 1);
        assert_eq!(report.worst.len(), 1);
        assert_eq!(report.worst[0], record);
    }

    #[test]
    fn oversized_corpus_audits_a_bounded_scaled_stratum() {
        let e = engine();
        for i in 0..200u32 {
            e.insert(members(i % 25, 5));
        }
        e.publish();
        e.estimate(0.6);
        let options = AuditOptions {
            max_exact_n: 50,
            exact_threads: 1,
        };
        let record = e.audit_once(&options).unwrap();
        assert_eq!(record.n, 200);
        assert_eq!(record.audited_n, 50, "stratum bounded by max_exact_n");
        // Scaled truth: raw count × C(200,2)/C(50,2).
        let scale = (200.0 * 199.0) / (50.0 * 49.0);
        let raw = record.truth / scale;
        assert!(
            (raw - raw.round()).abs() < 1e-9,
            "truth must be an integer count times the pair scale: {}",
            record.truth
        );
    }

    #[test]
    fn worst_ring_is_bounded_and_sorted() {
        let e = engine();
        for i in 0..40u32 {
            e.insert(members(i % 8, 5));
        }
        e.publish();
        for i in 0..(WORST_CAPACITY + 4) {
            e.estimate(0.3 + i as f64 * 0.02);
            e.audit_once(&AuditOptions::default()).unwrap();
        }
        let report = e.quality_report();
        assert_eq!(report.cycles as usize, WORST_CAPACITY + 4);
        assert!(report.worst.len() <= WORST_CAPACITY);
        for w in report.worst.windows(2) {
            assert!(
                w[0].signed_error.abs() >= w[1].signed_error.abs(),
                "worst ring must be sorted by |error| descending"
            );
        }
    }

    #[test]
    fn auditor_thread_scores_cycles_and_offers_traces() {
        let e = Arc::new(engine());
        for i in 0..50u32 {
            e.insert(members(i % 10, 4));
        }
        e.publish();
        e.estimate(0.7);
        let ring = Arc::new(TraceRing::new(8, Duration::ZERO));
        let auditor = Auditor::spawn(
            e.clone(),
            AuditOptions::default(),
            Duration::from_millis(1),
            Some(ring.clone()),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while e.quality_report().cycles < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let scored = auditor.stop();
        assert!(scored >= 3, "auditor scored {scored} cycles");
        let traces = ring.recent();
        assert!(!traces.is_empty(), "audit cycles must reach the ring");
        assert!(traces.iter().all(|t| t.label == "audit"));
        let stages: Vec<&str> = traces[0].stages().iter().map(|s| s.name).collect();
        assert_eq!(stages, ["serve", "exact"]);
    }
}
