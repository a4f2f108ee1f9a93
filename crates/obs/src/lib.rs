//! `vsj-obs` — zero-dependency observability primitives for the VSJ
//! serving stack.
//!
//! The build environment has no registry access, so this crate plays
//! the role `prometheus` + `tracing` would play elsewhere, in ~std-only
//! code (the same constraint that produced `crates/compat/*`):
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars, cloneable
//!   handles (an `Arc<AtomicU64>` each).
//! * [`Histogram`] — fixed log₂-scale buckets over `u64` values
//!   (latencies in microseconds, sizes in counts): atomic buckets, a
//!   running sum and max, O(buckets) mergeable, with approximate
//!   p50/p90/p99 readout from bucket upper bounds.
//! * [`Span`] — a start/finish timer that records its elapsed
//!   microseconds into a histogram (and hands the number back so the
//!   caller can attach it to a [`Trace`] stage).
//! * [`Trace`] — a `Copy`, fixed-capacity per-request record of named
//!   stage timings (queue wait → batch wait → sampling → fsync wait).
//!   No allocation: it lives on the caller's stack until (and unless)
//!   it crosses the slow-query threshold.
//! * [`TraceRing`] — a bounded ring buffer that captures full traces
//!   for requests slower than a threshold. The mutex inside is taken
//!   only for outliers and readers, never on the fast path.
//! * [`Registry`] — a named collection of the above that renders the
//!   whole set in Prometheus text exposition format
//!   ([`Registry::render`]); [`validate_exposition`] is a strict
//!   checker for tests and smoke scripts.
//! * [`snapshot_ordered`] — reads a family of causally-related
//!   counters downstream-first so a stats snapshot can never report an
//!   inversion (e.g. more sampling passes than cache misses).
//!
//! Everything on the hot path is an atomic op or two; registration and
//! rendering are the only places a lock is held.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
///
/// Increments use `SeqCst`: on the dominant platforms this costs the
/// same as a relaxed `lock xadd`, and it is what lets
/// [`snapshot_ordered`] give cross-counter guarantees.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::SeqCst);
    }

    /// Adds `n` and returns the post-increment value in one atomic op
    /// (for callers that key follow-up work off the running total).
    pub fn add_fetch(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Ordering::SeqCst) + n
    }

    /// Overwrites the value. Counters are monotone in steady state;
    /// this exists only for state restoration (checkpoint recovery
    /// rehydrating lifetime totals), not for regular use.
    pub fn store(&self, v: u64) {
        self.value.store(v, Ordering::SeqCst);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

/// An atomic gauge (a value that can go up and down).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::SeqCst);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::SeqCst);
    }

    /// Subtracts `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

/// Reads causally-related counters **in the given order** with
/// sequentially-consistent loads, returning their values.
///
/// List counters *downstream-first*: if every increment of counter `B`
/// is preceded (in program order, across the same or synchronized
/// threads) by an increment of counter `A`, then reading `B` before
/// `A` guarantees the snapshot satisfies `B ≤ A`. Example: every
/// sampling pass is preceded by a cache-miss increment, so
/// `snapshot_ordered([&passes, &misses])` can never report
/// `misses < passes` — the inversion a field-by-field read allows.
pub fn snapshot_ordered<const N: usize>(counters: [&Counter; N]) -> [u64; N] {
    let mut out = [0u64; N];
    for (slot, counter) in out.iter_mut().zip(counters) {
        *slot = counter.value.load(Ordering::SeqCst);
    }
    out
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Shape of a log₂ histogram: bucket `i` has upper bound
/// `first_bound << i`; the last bucket is the `+Inf` overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSpec {
    /// Upper bound of the first bucket (≥ 1).
    pub first_bound: u64,
    /// Number of buckets including the overflow bucket. `0` makes a
    /// **disabled** histogram whose `record` is a no-op; real specs
    /// need ≥ 2.
    pub buckets: usize,
}

impl HistogramSpec {
    /// Latency spec: 1 µs first bound, 24 buckets → finite bounds up to
    /// `2^22` µs ≈ 4.2 s, overflow above.
    pub fn latency_us() -> Self {
        Self {
            first_bound: 1,
            buckets: 24,
        }
    }

    /// Size spec (batch sizes, pair counts): 1 first bound, 32 buckets
    /// → finite bounds up to `2^30`.
    pub fn size() -> Self {
        Self {
            first_bound: 1,
            buckets: 32,
        }
    }

    /// A disabled spec: `record` becomes a no-op. For tests that need
    /// no metrics — production metrics stay always-on.
    pub fn disabled() -> Self {
        Self {
            first_bound: 1,
            buckets: 0,
        }
    }

    fn validate(&self) {
        assert!(self.first_bound >= 1, "first_bound must be at least 1");
        assert!(
            self.buckets == 0 || self.buckets >= 2,
            "a histogram needs at least 2 buckets (or 0 for disabled)"
        );
    }
}

#[derive(Debug)]
struct HistogramInner {
    spec: HistogramSpec,
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket log₂-scale histogram with atomic buckets.
///
/// Recording is lock-free: one bit-scan, one relaxed `fetch_add` on a
/// bucket, one on the sum, one `fetch_max`. The count is derived from
/// the buckets, so a rendered snapshot is always internally consistent
/// (`_count` equals the sum of `_bucket` increments it saw).
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new(spec: HistogramSpec) -> Self {
        spec.validate();
        let buckets = (0..spec.buckets).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                spec,
                buckets,
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// A disabled histogram: `record` is a no-op, all readouts zero.
    pub fn disabled() -> Self {
        Self::new(HistogramSpec::disabled())
    }

    /// The spec this histogram was built with.
    pub fn spec(&self) -> HistogramSpec {
        self.inner.spec
    }

    /// Upper bound of bucket `i` (`u64::MAX` stands in for `+Inf`).
    pub fn bound(&self, i: usize) -> u64 {
        if i + 1 >= self.inner.spec.buckets {
            u64::MAX
        } else {
            self.inner.spec.first_bound.saturating_shl(i)
        }
    }

    fn bucket_index(&self, v: u64) -> usize {
        let first = self.inner.spec.first_bound;
        let idx = if v <= first {
            0
        } else {
            // Smallest i with v ≤ first << i, i.e. ceil(log2(v / first)).
            let ratio = (v - 1) / first;
            (64 - ratio.leading_zeros()) as usize
        };
        idx.min(self.inner.spec.buckets - 1)
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        if self.inner.buckets.is_empty() {
            return;
        }
        let idx = self.bucket_index(v);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds (saturating).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` observation (the observed max for
    /// the overflow bucket). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return if i + 1 == counts.len() {
                    self.max()
                } else {
                    self.bound(i).min(self.max())
                };
            }
        }
        self.max()
    }

    /// Approximate median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Approximate 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Approximate 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other`'s observations into `self`.
    ///
    /// # Panics
    /// Panics if the specs differ (the buckets would not line up).
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.inner.spec, other.inner.spec,
            "cannot merge histograms with different specs"
        );
        for (mine, theirs) in self.inner.buckets.iter().zip(other.inner.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.inner
            .sum
            .fetch_add(other.inner.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.inner
            .max
            .fetch_max(other.inner.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: usize) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: usize) -> u64 {
        if shift >= 64 || self.leading_zeros() < shift as u32 {
            u64::MAX
        } else {
            self << shift
        }
    }
}

// ---------------------------------------------------------------------------
// Spans and traces
// ---------------------------------------------------------------------------

/// A timer that records its elapsed microseconds into a histogram when
/// finished (or dropped), and returns the number so the caller can also
/// attach it to a [`Trace`] stage.
#[derive(Debug)]
pub struct Span {
    histogram: Option<Histogram>,
    start: Instant,
}

impl Span {
    /// Starts timing against `histogram`.
    pub fn start(histogram: &Histogram) -> Self {
        Self {
            histogram: Some(histogram.clone()),
            start: Instant::now(),
        }
    }

    /// Microseconds elapsed so far (saturating).
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Stops the timer, records the elapsed microseconds, and returns
    /// them.
    pub fn finish(mut self) -> u64 {
        let us = self.elapsed_us();
        if let Some(h) = self.histogram.take() {
            h.record(us);
        }
        us
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = self.histogram.take() {
            h.record(u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }
}

/// Maximum named stages a [`Trace`] can hold (extra stages are
/// silently dropped — the pipeline has far fewer).
pub const MAX_TRACE_STAGES: usize = 8;

/// One named stage timing inside a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStage {
    /// Stage name (e.g. `"sampling"`).
    pub name: &'static str,
    /// Stage duration in microseconds.
    pub micros: u64,
}

/// A per-request record of stage timings. `Copy` and fixed-capacity:
/// it costs no allocation to carry through a request, and is copied
/// into the [`TraceRing`] only when the request is slow.
#[derive(Debug, Clone, Copy)]
pub struct Trace {
    /// What the request was (e.g. the route).
    pub label: &'static str,
    /// End-to-end duration in microseconds.
    pub total_us: u64,
    /// Capture sequence number, assigned by the ring (0 until captured).
    pub seq: u64,
    len: usize,
    stages: [TraceStage; MAX_TRACE_STAGES],
}

impl Trace {
    /// A fresh trace for `label` with no stages.
    pub fn new(label: &'static str) -> Self {
        Self {
            label,
            total_us: 0,
            seq: 0,
            len: 0,
            stages: [TraceStage {
                name: "",
                micros: 0,
            }; MAX_TRACE_STAGES],
        }
    }

    /// Appends a stage timing (ignored beyond [`MAX_TRACE_STAGES`]).
    pub fn stage(&mut self, name: &'static str, micros: u64) {
        if self.len < MAX_TRACE_STAGES {
            self.stages[self.len] = TraceStage { name, micros };
            self.len += 1;
        }
    }

    /// The recorded stages, in insertion order.
    pub fn stages(&self) -> &[TraceStage] {
        &self.stages[..self.len]
    }
}

struct RingInner {
    slots: Vec<Trace>,
    next: usize,
    seq: u64,
}

/// A bounded ring buffer of slow-request traces.
///
/// [`offer`](TraceRing::offer) compares against the threshold with one
/// atomic load; only traces at or above it take the lock and enter the
/// ring, overwriting the oldest entry once full.
pub struct TraceRing {
    capacity: usize,
    threshold_us: AtomicU64,
    captured: Counter,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// A ring holding up to `capacity` traces (≥ 1), capturing requests
    /// whose total duration is ≥ `threshold`.
    pub fn new(capacity: usize, threshold: Duration) -> Self {
        assert!(capacity >= 1, "trace ring needs capacity of at least 1");
        Self {
            capacity,
            threshold_us: AtomicU64::new(u64::try_from(threshold.as_micros()).unwrap_or(u64::MAX)),
            captured: Counter::new(),
            inner: Mutex::new(RingInner {
                slots: Vec::with_capacity(capacity),
                next: 0,
                seq: 0,
            }),
        }
    }

    /// The current slow-query threshold in microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of traces captured over the ring's lifetime (including
    /// ones since overwritten).
    pub fn captured(&self) -> u64 {
        self.captured.get()
    }

    /// A counter handle for lifetime captures (registerable).
    pub fn captured_counter(&self) -> Counter {
        self.captured.clone()
    }

    /// Offers a finished trace; captures it (assigning `seq`) if it is
    /// at or above the threshold. Returns whether it was captured.
    pub fn offer(&self, mut trace: Trace) -> bool {
        if trace.total_us < self.threshold_us.load(Ordering::Relaxed) {
            return false;
        }
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        inner.seq += 1;
        trace.seq = inner.seq;
        if inner.slots.len() < self.capacity {
            inner.slots.push(trace);
        } else {
            let at = inner.next;
            inner.slots[at] = trace;
        }
        inner.next = (inner.next + 1) % self.capacity;
        drop(inner);
        self.captured.inc();
        true
    }

    /// The captured traces, newest first.
    pub fn recent(&self) -> Vec<Trace> {
        let inner = self.inner.lock().expect("trace ring poisoned");
        let n = inner.slots.len();
        let mut out = Vec::with_capacity(n);
        for back in 1..=n {
            // `next` points at the oldest slot once the ring is full and
            // at the next free slot before that; either way the newest
            // entry sits just behind it.
            let idx = (inner.next + self.capacity - back) % self.capacity;
            if idx < n {
                out.push(inner.slots[idx]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Registry + Prometheus text exposition
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone)]
struct Entry {
    name: &'static str,
    help: &'static str,
    labels: &'static [(&'static str, &'static str)],
    metric: Metric,
}

/// A named set of metrics, rendered in Prometheus text exposition
/// format. Global-free: owners (engine, server) each hold their own and
/// the `/metrics` handler concatenates the renders.
///
/// Registration takes a lock; the returned handles are lock-free.
/// Registering the same `(name, labels)` twice returns the existing
/// handle (and panics if the kind differs).
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, entry: Entry) -> Metric {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(existing) = entries
            .iter()
            .find(|e| e.name == entry.name && e.labels == entry.labels)
        {
            let compatible = matches!(
                (&existing.metric, &entry.metric),
                (Metric::Counter(_), Metric::Counter(_))
                    | (Metric::Gauge(_), Metric::Gauge(_))
                    | (Metric::Histogram(_), Metric::Histogram(_))
            );
            assert!(
                compatible,
                "metric {} re-registered with a different kind",
                entry.name
            );
            return existing.metric.clone();
        }
        let metric = entry.metric.clone();
        entries.push(entry);
        metric
    }

    /// Registers (or fetches) a counter. Name counters `*_total` per
    /// Prometheus convention.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or fetches) a counter with static labels.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> Counter {
        match self.register(Entry {
            name,
            help,
            labels,
            metric: Metric::Counter(Counter::new()),
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or fetches) a gauge with static labels.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
    ) -> Gauge {
        match self.register(Entry {
            name,
            help,
            labels,
            metric: Metric::Gauge(Gauge::new()),
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or fetches) a histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        spec: HistogramSpec,
    ) -> Histogram {
        self.histogram_with(name, help, &[], spec)
    }

    /// Registers (or fetches) a histogram with static labels.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
        spec: HistogramSpec,
    ) -> Histogram {
        match self.register(Entry {
            name,
            help,
            labels,
            metric: Metric::Histogram(Histogram::new(spec)),
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, series sorted by name then labels, `# HELP` / `# TYPE`
    /// emitted once per metric name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Renders into an existing buffer (lets callers concatenate
    /// several registries into one exposition — but see
    /// [`render_registries`], which also guards against the same metric
    /// name living in more than one registry).
    pub fn render_into(&self, out: &mut String) {
        let mut entries: Vec<Entry> = self.entries.lock().expect("registry poisoned").clone();
        entries.sort_by(|a, b| a.name.cmp(b.name).then_with(|| a.labels.cmp(b.labels)));
        render_entries(&entries, out);
    }
}

/// Renders sorted entries in Prometheus text exposition format, `#
/// HELP`/`# TYPE` once per metric name (shared by
/// [`Registry::render_into`] and [`render_registries`]).
fn render_entries(entries: &[Entry], out: &mut String) {
    use std::fmt::Write as _;
    let mut previous: Option<&'static str> = None;
    for entry in entries {
        if previous != Some(entry.name) {
            previous = Some(entry.name);
            let kind = match entry.metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
            let _ = writeln!(out, "# TYPE {} {}", entry.name, kind);
        }
        match &entry.metric {
            Metric::Counter(c) => {
                out.push_str(entry.name);
                write_labels(out, entry.labels, None);
                let _ = writeln!(out, " {}", c.get());
            }
            Metric::Gauge(g) => {
                out.push_str(entry.name);
                write_labels(out, entry.labels, None);
                let _ = writeln!(out, " {}", g.get());
            }
            Metric::Histogram(h) => {
                let spec = h.spec();
                let mut cumulative = 0u64;
                for i in 0..spec.buckets {
                    cumulative += h.inner.buckets[i].load(Ordering::Relaxed);
                    let _ = write!(out, "{}_bucket", entry.name);
                    let le = if i + 1 == spec.buckets {
                        None
                    } else {
                        Some(h.bound(i))
                    };
                    write_labels(out, entry.labels, Some(le));
                    let _ = writeln!(out, " {cumulative}");
                }
                if spec.buckets == 0 {
                    // Disabled histogram: still a well-formed series.
                    let _ = write!(out, "{}_bucket", entry.name);
                    write_labels(out, entry.labels, Some(None));
                    let _ = writeln!(out, " 0");
                }
                let _ = write!(out, "{}_sum", entry.name);
                write_labels(out, entry.labels, None);
                let _ = writeln!(out, " {}", h.sum());
                let _ = write!(out, "{}_count", entry.name);
                write_labels(out, entry.labels, None);
                let _ = writeln!(out, " {cumulative}");
            }
        }
    }
}

/// Renders several registries into **one** exposition, guarding the
/// seam naive concatenation leaves open: a metric name registered in
/// more than one registry would emit two `# TYPE` blocks and fail
/// [`validate_exposition`] (and confuse any Prometheus scraper).
/// Entries whose name already appeared in an earlier registry are
/// dropped (first registry wins) with a loud stderr warning, and the
/// always-emitted `vsj_obs_duplicate_metric_names` gauge carries the
/// drop count so dashboards can alert on a non-zero value. Same-name
/// entries *within* one registry (label variants of one series) are
/// untouched. Returns the number of dropped entries.
pub fn render_registries(registries: &[&Registry], out: &mut String) -> usize {
    use std::fmt::Write as _;
    let mut entries: Vec<Entry> = Vec::new();
    let mut seen: std::collections::HashSet<&'static str> = std::collections::HashSet::new();
    let mut duplicates = 0usize;
    for registry in registries {
        let snapshot: Vec<Entry> = registry.entries.lock().expect("registry poisoned").clone();
        let mut names_here: Vec<&'static str> = Vec::new();
        for entry in snapshot {
            if seen.contains(entry.name) {
                duplicates += 1;
                eprintln!(
                    "vsj-obs: metric name {} registered in more than one registry; \
                     keeping the first registration",
                    entry.name
                );
                continue;
            }
            names_here.push(entry.name);
            entries.push(entry);
        }
        seen.extend(names_here);
    }
    entries.sort_by(|a, b| a.name.cmp(b.name).then_with(|| a.labels.cmp(b.labels)));
    render_entries(&entries, out);
    let _ = writeln!(
        out,
        "# HELP vsj_obs_duplicate_metric_names Metric entries dropped because their name was registered in more than one concatenated registry"
    );
    let _ = writeln!(out, "# TYPE vsj_obs_duplicate_metric_names gauge");
    let _ = writeln!(out, "vsj_obs_duplicate_metric_names {duplicates}");
    duplicates
}

/// Writes `{k="v",...}` (plus an optional `le` bound, `None` inside
/// `Some` meaning `+Inf`); writes nothing when there are no labels.
fn write_labels(
    out: &mut String,
    labels: &[(&'static str, &'static str)],
    le: Option<Option<u64>>,
) {
    use std::fmt::Write as _;
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(bound) = le {
        if !first {
            out.push(',');
        }
        match bound {
            Some(b) => {
                let _ = write!(out, "le=\"{b}\"");
            }
            None => out.push_str("le=\"+Inf\""),
        }
    }
    out.push('}');
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Strictly validates a Prometheus text exposition, returning the
/// number of sample lines.
///
/// Checks: every non-empty line is a `# HELP`, `# TYPE`, or sample
/// line; metric and label names are well-formed; label values are
/// properly quoted; sample values parse as numbers (or `+Inf`/`-Inf`/
/// `NaN`); a name is `# TYPE`d at most once and before its samples.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed: Vec<&str> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let detail = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name in HELP: {name:?}"));
                    }
                }
                "TYPE" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
                    }
                    if !matches!(
                        detail,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown TYPE {detail:?}"));
                    }
                    if typed.contains(&name) {
                        return Err(format!("line {n}: duplicate TYPE for {name}"));
                    }
                    typed.push(name);
                }
                _ => return Err(format!("line {n}: unknown comment keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {n}: no value in sample line {line:?}")),
        };
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {n}: bad sample value {value:?}"));
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return Err(format!("line {n}: unterminated label set in {series:?}"));
                };
                validate_labels(labels).map_err(|e| format!("line {n}: {e}"))?;
                name
            }
            None => series,
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !typed.contains(&name) && !typed.contains(&base) {
            return Err(format!("line {n}: sample for {name} precedes its TYPE"));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Major page faults incurred by this process so far (`majflt` from
/// `/proc/self/stat`), or `None` where procfs is unavailable. A major
/// fault is a read that had to go to the backing store — for a service
/// mapping its checkpoint ("map + go"), the counter measures how much
/// of the mapped base has actually been paged in from cold disk, which
/// is the out-of-core tier's core residency signal.
pub fn major_page_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // `comm` (field 2) is an arbitrary parenthesized string that may
    // itself contain spaces or ')'; everything after the *last* ')' is
    // reliably space-delimited, starting at field 3 (`state`). majflt
    // is field 12 overall, so index 9 of that tail.
    let tail = &stat[stat.rfind(')')? + 1..];
    tail.split_ascii_whitespace().nth(9)?.parse().ok()
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn validate_labels(labels: &str) -> Result<(), String> {
    // k="v",k="v" — values may contain escaped quotes.
    let mut rest = labels;
    while !rest.is_empty() {
        let Some((key, after_eq)) = rest.split_once('=') else {
            return Err(format!("label without '=': {rest:?}"));
        };
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}"));
        }
        let Some(after_quote) = after_eq.strip_prefix('"') else {
            return Err(format!("label value not quoted after {key}"));
        };
        // Find the closing unescaped quote.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in after_quote.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let Some(end) = end else {
            return Err(format!("unterminated label value for {key}"));
        };
        rest = &after_quote[end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// ObsOptions
// ---------------------------------------------------------------------------

/// Operational observability knobs. Like `DurabilityOptions` in
/// `vsj-service`, these are not part of any persisted configuration and
/// may differ across an engine's lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsOptions {
    /// First bucket bound (µs) of latency histograms.
    pub latency_first_bound_us: u64,
    /// Bucket count of latency histograms (0 disables recording).
    pub latency_buckets: usize,
    /// Bucket count of size histograms (batch sizes, pairs drawn).
    pub size_buckets: usize,
    /// Requests at or above this duration are captured into the
    /// slow-trace ring.
    pub slow_query_threshold: Duration,
    /// Capacity of the slow-trace ring buffer.
    pub trace_ring: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        Self {
            latency_first_bound_us: 1,
            latency_buckets: 24,
            size_buckets: 32,
            slow_query_threshold: Duration::from_millis(100),
            trace_ring: 64,
        }
    }
}

impl ObsOptions {
    /// The latency histogram spec these options describe.
    pub fn latency_spec(&self) -> HistogramSpec {
        HistogramSpec {
            first_bound: self.latency_first_bound_us,
            buckets: self.latency_buckets,
        }
    }

    /// The size histogram spec these options describe.
    pub fn size_spec(&self) -> HistogramSpec {
        HistogramSpec {
            first_bound: 1,
            buckets: self.size_buckets,
        }
    }

    /// Panics unless the options are internally valid.
    pub fn validate(&self) {
        self.latency_spec().validate();
        self.size_spec().validate();
        assert!(self.trace_ring >= 1, "trace_ring must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn major_page_faults_reads_procfs() {
        // Only asserts the parse path on platforms that have procfs;
        // elsewhere the helper degrades to None.
        if std::path::Path::new("/proc/self/stat").exists() {
            let faults = major_page_faults().expect("procfs stat line must parse");
            // Sanity: a fresh process has had *some* bounded fault
            // count; the parse must not have grabbed a pointer-sized
            // field like startcode.
            assert!(faults < 1 << 40, "implausible majflt {faults}");
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(3);
        g.sub(20); // saturates
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn ordered_snapshot_preserves_causal_inequalities() {
        // Writer increments upstream then downstream; the snapshot reads
        // downstream-first, so downstream ≤ upstream always holds.
        let upstream = Counter::new();
        let downstream = Counter::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (u, d, stop) = (&upstream, &downstream, &stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    u.inc();
                    d.inc();
                }
            });
            for _ in 0..10_000 {
                let [down, up] = snapshot_ordered([d, u]);
                assert!(down <= up, "inversion: downstream {down} > upstream {up}");
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::new(HistogramSpec {
            first_bound: 4,
            buckets: 5, // bounds 4, 8, 16, 32, +Inf
        });
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(4), 0, "first bound is inclusive");
        assert_eq!(h.bucket_index(5), 1);
        assert_eq!(h.bucket_index(8), 1, "each bound is inclusive");
        assert_eq!(h.bucket_index(9), 2);
        assert_eq!(h.bucket_index(16), 2);
        assert_eq!(h.bucket_index(32), 3);
        assert_eq!(h.bucket_index(33), 4, "overflow bucket");
        assert_eq!(h.bucket_index(u64::MAX), 4);
        assert_eq!(h.bound(0), 4);
        assert_eq!(h.bound(3), 32);
        assert_eq!(h.bound(4), u64::MAX, "+Inf stand-in");
    }

    #[test]
    fn histogram_count_sum_max_and_percentiles() {
        let h = Histogram::new(HistogramSpec {
            first_bound: 1,
            buckets: 12,
        });
        // 100 observations: 1..=100.
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        // p50: rank 50 lands in bucket with bound 64 (33..=64 covers
        // ranks 33..=64).
        assert_eq!(h.p50(), 64);
        assert_eq!(h.p90(), 128.min(h.max()).max(h.p50()));
        assert!(h.p99() >= h.p90());
        assert!(h.quantile(1.0) >= h.p99());
        // Empty histogram answers zero everywhere.
        let empty = Histogram::new(HistogramSpec::latency_us());
        assert_eq!(empty.p99(), 0);
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn histogram_top_bucket_saturation() {
        let h = Histogram::new(HistogramSpec {
            first_bound: 1,
            buckets: 4, // bounds 1, 2, 4, +Inf
        });
        h.record(1_000_000);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        // Sum saturates semantics: wrapping is fine for the spec sizes we
        // use in practice, but max is exact.
        assert_eq!(h.max(), u64::MAX);
        // All mass in the overflow bucket: every quantile reports the max.
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        let spec = HistogramSpec {
            first_bound: 1,
            buckets: 8,
        };
        let a = Histogram::new(spec);
        let b = Histogram::new(spec);
        for v in [1u64, 2, 3, 50] {
            a.record(v);
        }
        for v in [4u64, 100, 1000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 7);
        assert_eq!(a.sum(), 1 + 2 + 3 + 50 + 4 + 100 + 1000);
        assert_eq!(a.max(), 1000);
        assert_eq!(b.count(), 3, "merge source unchanged");
    }

    #[test]
    #[should_panic(expected = "different specs")]
    fn histogram_merge_rejects_mismatched_specs() {
        let a = Histogram::new(HistogramSpec {
            first_bound: 1,
            buckets: 8,
        });
        let b = Histogram::new(HistogramSpec {
            first_bound: 2,
            buckets: 8,
        });
        a.merge(&b);
    }

    #[test]
    fn disabled_histogram_is_a_no_op() {
        let h = Histogram::disabled();
        h.record(42);
        h.record_duration(Duration::from_secs(1));
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn span_records_into_histogram() {
        let h = Histogram::new(HistogramSpec::latency_us());
        let span = Span::start(&h);
        std::thread::sleep(Duration::from_millis(2));
        let us = span.finish();
        assert!(us >= 2_000, "slept 2ms but span says {us}µs");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), us);
        // Dropping an unfinished span records too.
        drop(Span::start(&h));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn trace_holds_stages_in_order_and_caps() {
        let mut t = Trace::new("/estimate");
        t.stage("queue_wait", 10);
        t.stage("batch_wait", 20);
        t.stage("sampling", 30);
        assert_eq!(
            t.stages()
                .iter()
                .map(|s| (s.name, s.micros))
                .collect::<Vec<_>>(),
            vec![("queue_wait", 10), ("batch_wait", 20), ("sampling", 30)]
        );
        for i in 0..20 {
            t.stage("extra", i);
        }
        assert_eq!(t.stages().len(), MAX_TRACE_STAGES, "capacity capped");
    }

    #[test]
    fn trace_ring_threshold_and_wraparound() {
        let ring = TraceRing::new(4, Duration::from_micros(100));
        let mut fast = Trace::new("fast");
        fast.total_us = 99;
        assert!(!ring.offer(fast), "below threshold is not captured");
        assert_eq!(ring.captured(), 0);

        // Offer 10 slow traces into a 4-slot ring.
        for i in 1..=10u64 {
            let mut t = Trace::new("slow");
            t.total_us = 100 + i;
            t.stage("sampling", i);
            assert!(ring.offer(t));
        }
        assert_eq!(ring.captured(), 10);
        let recent = ring.recent();
        assert_eq!(recent.len(), 4, "ring holds only the last 4");
        // Newest first: seqs 10, 9, 8, 7 with matching payloads.
        assert_eq!(
            recent.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![10, 9, 8, 7]
        );
        assert_eq!(recent[0].total_us, 110);
        assert_eq!(recent[3].total_us, 107);
        assert_eq!(recent[0].stages()[0].micros, 10);
    }

    #[test]
    fn trace_ring_partial_fill_reads_newest_first() {
        let ring = TraceRing::new(8, Duration::ZERO);
        for i in 1..=3u64 {
            let mut t = Trace::new("t");
            t.total_us = i;
            ring.offer(t);
        }
        let recent = ring.recent();
        assert_eq!(
            recent.iter().map(|t| t.total_us).collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
    }

    #[test]
    fn registry_renders_valid_exposition() {
        let registry = Registry::new();
        let requests = registry.counter_with(
            "vsj_test_requests_total",
            "Requests handled",
            &[("route", "/estimate")],
        );
        let other = registry.counter_with(
            "vsj_test_requests_total",
            "Requests handled",
            &[("route", "/insert")],
        );
        let depth = registry.gauge("vsj_test_queue_depth", "Queue depth");
        let latency = registry.histogram(
            "vsj_test_latency_us",
            "Request latency (µs)",
            HistogramSpec {
                first_bound: 1,
                buckets: 4,
            },
        );
        requests.add(3);
        other.inc();
        depth.set(7);
        latency.record(1);
        latency.record(3);
        latency.record(999);

        let text = registry.render();
        let samples = validate_exposition(&text).expect("exposition must validate");
        // 2 counter series + 1 gauge + (4 buckets + sum + count) = 9.
        assert_eq!(samples, 9);
        assert!(text.contains("# TYPE vsj_test_requests_total counter"));
        assert_eq!(
            text.matches("# TYPE vsj_test_requests_total").count(),
            1,
            "TYPE once per name"
        );
        assert!(text.contains("vsj_test_requests_total{route=\"/estimate\"} 3"));
        assert!(text.contains("vsj_test_requests_total{route=\"/insert\"} 1"));
        assert!(text.contains("vsj_test_queue_depth 7"));
        assert!(text.contains("vsj_test_latency_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("vsj_test_latency_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("vsj_test_latency_us_sum 1003"));
        assert!(text.contains("vsj_test_latency_us_count 3"));
    }

    #[test]
    fn registry_returns_existing_handle_on_reregistration() {
        let registry = Registry::new();
        let a = registry.counter("vsj_dup_total", "dup");
        let b = registry.counter("vsj_dup_total", "dup");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "both handles hit the same counter");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for bad in [
            "vsj_untyped 1\n",                           // sample before TYPE
            "# TYPE x banana\nx 1\n",                    // unknown type
            "# TYPE 9bad counter\n",                     // bad name
            "# TYPE x counter\nx{le=1} 1\n",             // unquoted label
            "# TYPE x counter\nx{le=\"1\"} pear\n",      // bad value
            "# TYPE x counter\n# TYPE x counter\nx 1\n", // duplicate TYPE
            "# TYPE x counter\nx\n",                     // no value
        ] {
            assert!(
                validate_exposition(bad).is_err(),
                "{bad:?} must not validate"
            );
        }
        let good = "# HELP x help text here\n# TYPE x counter\nx{a=\"b\",c=\"d\"} 12\nx 5\n";
        assert_eq!(validate_exposition(good).unwrap(), 2);
    }

    #[test]
    fn obs_options_specs() {
        let options = ObsOptions::default();
        options.validate();
        assert_eq!(options.latency_spec().buckets, 24);
        let off = HistogramSpec::disabled();
        off.validate();
        assert_eq!(Histogram::new(off).count(), 0);
    }
    #[test]
    #[should_panic(expected = "cannot merge histograms with different specs")]
    fn merge_rejects_mismatched_specs() {
        let a = Histogram::new(HistogramSpec {
            first_bound: 1,
            buckets: 8,
        });
        let b = Histogram::new(HistogramSpec {
            first_bound: 1,
            buckets: 16,
        });
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "cannot merge histograms with different specs")]
    fn merge_rejects_mismatched_first_bound() {
        let a = Histogram::new(HistogramSpec {
            first_bound: 1,
            buckets: 8,
        });
        let b = Histogram::new(HistogramSpec {
            first_bound: 2,
            buckets: 8,
        });
        a.merge(&b);
    }

    #[test]
    fn quantile_boundaries() {
        let h = Histogram::new(HistogramSpec {
            first_bound: 1,
            buckets: 8,
        });
        // Empty: every quantile (including the boundaries) is 0.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        for v in [1, 2, 4, 100] {
            h.record(v);
        }
        // q = 0.0: rank clamps to 1 — the smallest observation's bucket.
        assert_eq!(h.quantile(0.0), 1);
        // q = 1.0: rank = count — here the overflow-adjacent max wins.
        assert_eq!(h.quantile(1.0), 100);
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn render_registries_dedupes_across_registries() {
        let engine = Registry::new();
        let server = Registry::new();
        let a = engine.counter("dup_total", "claimed by the engine");
        a.add(3);
        // Same name in the second registry: naive concatenation would
        // emit two TYPE blocks and fail validation.
        let b = server.counter("dup_total", "claimed by the server");
        b.add(9);
        server.counter("only_server_total", "unique").inc();

        let mut naive = String::new();
        engine.render_into(&mut naive);
        server.render_into(&mut naive);
        assert!(
            validate_exposition(&naive).is_err(),
            "naive concatenation of a shared name must fail validation"
        );

        let mut merged = String::new();
        let dropped = render_registries(&[&engine, &server], &mut merged);
        assert_eq!(dropped, 1);
        validate_exposition(&merged).expect("merged exposition must validate");
        assert!(merged.contains("dup_total 3"), "first registry wins");
        assert!(!merged.contains("dup_total 9"));
        assert!(merged.contains("only_server_total 1"));
        assert!(
            merged.contains("vsj_obs_duplicate_metric_names 1"),
            "the warning series must carry the drop count"
        );
    }

    #[test]
    fn render_registries_keeps_label_variants_within_one_registry() {
        let r = Registry::new();
        r.counter_with("family_total", "labelled", &[("kind", "a")])
            .inc();
        r.counter_with("family_total", "labelled", &[("kind", "b")])
            .add(2);
        let mut out = String::new();
        let dropped = render_registries(&[&r], &mut out);
        assert_eq!(dropped, 0, "label variants of one series are not dupes");
        validate_exposition(&out).expect("must validate");
        assert!(out.contains("family_total{kind=\"a\"} 1"));
        assert!(out.contains("family_total{kind=\"b\"} 2"));
        assert!(out.contains("vsj_obs_duplicate_metric_names 0"));
    }
}
