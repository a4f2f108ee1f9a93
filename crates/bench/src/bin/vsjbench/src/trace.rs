//! The in-memory span buffer of a traced run.
//!
//! Every span is recorded by the benchmark around a public call. A
//! `wire.<route>` root is the client's view of one request; its children
//! are *replays* of the same operation in-process (same snapshot, same
//! RNG stream, answers checked equal), so a child's duration is what
//! that layer contributes to the root even though its timestamps lie
//! after the root's. A layer's self time is its span's duration minus
//! its children's.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use vsj_server::json::Json;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Wire request the span belongs to (all spans of one request share
    /// it).
    pub request: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_request: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records the root span of a request that ran from `started` for
    /// `ms` milliseconds.
    pub fn root(&mut self, name: &'static str, started: Instant, ms: f64) -> SpanId {
        let start_ns = started.duration_since(self.origin).as_nanos() as u64;
        let request = self.next_request;
        self.next_request += 1;
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (ms * 1e6) as u64,
            parent: None,
            request,
        })
    }

    /// Runs `work` as a child span of `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        work: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_ns = self.now_ns();
        let out = work();
        let end_ns = self.now_ns();
        let id = self.record(name, parent, start_ns, end_ns);
        (out, id)
    }

    /// Records a child span from explicit offsets within its parent
    /// (for steps the benchmark itself performs inside a root).
    pub fn child_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        offset_ms: f64,
        ms: f64,
    ) -> SpanId {
        let start_ns = self.spans[parent as usize].start_ns + (offset_ms * 1e6) as u64;
        self.record(name, parent, start_ns, start_ns + (ms * 1e6) as u64)
    }

    fn record(&mut self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> SpanId {
        let request = self.spans[parent as usize].request;
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
        })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Duration (ms) of one span.
    pub fn ms(&self, id: SpanId) -> f64 {
        self.spans[id as usize].ms()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span, the total duration (ms) of its direct children.
    fn children_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent as usize] += span.ms();
            }
        }
        child_ms
    }

    /// Per span name: count, total duration and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(self.children_ms()) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ms += span.ms();
            entry.self_ms += (span.ms() - children).max(0.0);
            entry.is_root |= span.parent.is_none();
        }
        totals
    }

    /// Share (%) of all root time that no child span explains: for an
    /// estimate that is HTTP, JSON, the batcher hand-off and thread
    /// wake-ups; for a route that is not replayed, all of it.
    pub fn unattributed_pct(&self) -> f64 {
        let totals = self.totals();
        let roots = totals.values().filter(|t| t.is_root);
        let (total, own) = roots.fold((0.0, 0.0), |(t, s), r| (t + r.total_ms, s + r.self_ms));
        if total > 0.0 {
            100.0 * own / total
        } else {
            0.0
        }
    }

    /// Largest excess (%) of children over parent among the span names
    /// in `parents`: per name, the median over its spans of children ÷
    /// span, minus one. The replay of one request can beat or miss its
    /// parent by a scheduling stall; the median request cannot, so a
    /// positive excess means the replay is not the work the request did.
    pub fn child_excess_pct(&self, parents: &[&str]) -> f64 {
        let mut ratios: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(self.children_ms()) {
            if parents.contains(&span.name) && span.ms() > 0.0 {
                ratios
                    .entry(span.name)
                    .or_default()
                    .push(children / span.ms());
            }
        }
        ratios
            .values()
            .map(|ratios| 100.0 * (crate::stats::median(ratios) - 1.0))
            .fold(0.0, f64::max)
    }

    /// Writes the buffer as JSON: `{"spans": [{name, start_ns, end_ns,
    /// parent, request}, …]}` with `parent` an index into the array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::u64(s.start_ns)),
                    ("end_ns", Json::u64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                    ),
                    ("request", Json::u64(s.request as u64)),
                ])
            })
            .collect();
        std::fs::write(path, Json::obj([("spans", Json::Arr(spans))]).encode())
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
    pub is_root: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tracer = Tracer::new();
        let root = tracer.root("wire.estimate", Instant::now(), 10.0);
        let service = tracer.child_at("service.estimate", root, 0.0, 8.0);
        tracer.child_at("core.pass", service, 0.0, 7.0);
        let totals = tracer.totals();
        assert!((totals["wire.estimate"].self_ms - 2.0).abs() < 1e-6);
        assert!((totals["service.estimate"].self_ms - 1.0).abs() < 1e-6);
        assert!((totals["core.pass"].self_ms - 7.0).abs() < 1e-6);
        assert!((tracer.unattributed_pct() - 20.0).abs() < 1e-6);
        assert_eq!(
            tracer.child_excess_pct(&["wire.estimate", "service.estimate"]),
            0.0
        );
        assert_eq!(
            tracer.spans[service as usize].request,
            tracer.spans[root as usize].request
        );
    }

    #[test]
    fn a_child_outweighing_its_parent_is_reported() {
        let mut tracer = Tracer::new();
        let root = tracer.root("wire.insert", Instant::now(), 1.0);
        tracer.child_at("service.insert", root, 0.0, 1.5);
        assert!((tracer.child_excess_pct(&["wire.insert"]) - 50.0).abs() < 1e-6);
        assert_eq!(tracer.child_excess_pct(&["wire.estimate"]), 0.0);
        assert_eq!(tracer.ms(root), 1.0);
        // Self time never goes negative.
        assert_eq!(tracer.totals()["wire.insert"].self_ms, 0.0);
        // One stalled replay among healthy ones does not set the figure.
        for _ in 0..2 {
            let root = tracer.root("wire.insert", Instant::now(), 1.0);
            tracer.child_at("service.insert", root, 0.0, 0.9);
        }
        assert_eq!(tracer.child_excess_pct(&["wire.insert"]), 0.0);
    }
}
