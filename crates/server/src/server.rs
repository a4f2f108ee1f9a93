//! The server proper: acceptor, worker pool, router, backpressure.
//!
//! ```text
//!            TcpListener (acceptor thread)
//!                  │ bounded connection queue (dropped when full)
//!        ┌─────────┼─────────┐
//!     worker …  worker …  worker        parse HTTP → route
//!        │         │         │
//!   ingest ops   estimate    admin (publish/checkpoint/stats)
//!   (shed 429    one sampling
//!    on publish  pass on the
//!    lag)        worker
//! ```
//!
//! See `docs/PROTOCOL.md` for the wire format and
//! `docs/ARCHITECTURE.md` for the serving/backpressure contract.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vsj_core::EstimateKind;
use vsj_obs::{
    render_registries, Counter, Gauge, Histogram, ObsOptions, Registry, Trace, TraceRing,
};
use vsj_service::{AuditRecord, EstimationEngine, FsyncPolicy, PersistError, StorageTier};
use vsj_vector::SparseVector;

use crate::http::{self, ReadError, Request};
use crate::json::Json;

/// How long an idle keep-alive connection may sit between requests
/// before the worker re-checks the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);
/// Transport timeout while a request is actually being read/written.
const ACTIVE_TIMEOUT: Duration = Duration::from_secs(10);

/// Tunables of a [`Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads parsing and answering requests.
    pub workers: usize,
    /// Bound on accepted-but-unserviced connections; past it the
    /// acceptor drops new connections instead of queuing them.
    pub max_pending_connections: usize,
    /// Ingest backpressure: when the engine's publish lag (ingests not
    /// yet visible to reads) exceeds this, `insert`/`upsert`/`remove`
    /// are shed with `429` until a publish catches the view up. `None`
    /// disables shedding.
    pub max_publish_lag: Option<u64>,
    /// Durable-write backpressure: when the deepest per-shard WAL
    /// backlog (records past the checkpoint cut on any one shard's
    /// segment chain) reaches this, ingests are shed with `429` whose
    /// `Retry-After` scales with how far past the limit the backlog is
    /// — a checkpoint (manual or background) drains it. `None` disables
    /// shedding; it is also inert on non-durable engines (depth 0).
    pub max_wal_depth: Option<u64>,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Cut a final checkpoint during [`Server::shutdown`] when the
    /// engine is durable.
    pub checkpoint_on_shutdown: bool,
    /// Observability knobs for the server's own registry and slow-trace
    /// ring (histogram bucket shapes, slow-query threshold, ring
    /// capacity). The engine's registry keeps the default layouts (see
    /// [`EstimationEngine::new`](vsj_service::EstimationEngine::new));
    /// `GET /metrics` serves both registries concatenated.
    pub obs: ObsOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_pending_connections: 128,
            max_publish_lag: None,
            max_wal_depth: None,
            max_body: 1 << 20,
            checkpoint_on_shutdown: false,
            obs: ObsOptions::default(),
        }
    }
}

impl ServerConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`ServerConfig`] (validates on [`build`]).
///
/// [`build`]: ServerConfigBuilder::build
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the bind address (default `127.0.0.1:0`).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Sets the worker thread count (≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the connection queue bound (≥ 1).
    pub fn max_pending_connections(mut self, bound: usize) -> Self {
        self.config.max_pending_connections = bound;
        self
    }

    /// Sets the ingest-shedding publish-lag threshold.
    pub fn max_publish_lag(mut self, lag: u64) -> Self {
        self.config.max_publish_lag = Some(lag);
        self
    }

    /// Sets the ingest-shedding per-shard WAL depth threshold.
    pub fn max_wal_depth(mut self, depth: u64) -> Self {
        self.config.max_wal_depth = Some(depth);
        self
    }

    /// Sets the request body cap.
    pub fn max_body(mut self, bytes: usize) -> Self {
        self.config.max_body = bytes;
        self
    }

    /// Cut a final checkpoint on graceful shutdown (durable engines).
    pub fn checkpoint_on_shutdown(mut self, yes: bool) -> Self {
        self.config.checkpoint_on_shutdown = yes;
        self
    }

    /// Sets the server-side observability options (bucket shapes,
    /// slow-query threshold, trace-ring capacity).
    pub fn obs(mut self, obs: ObsOptions) -> Self {
        self.config.obs = obs;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Panics
    /// Panics when `workers` or `max_pending_connections` is zero.
    pub fn build(self) -> ServerConfig {
        let c = self.config;
        assert!(c.workers >= 1, "a server needs at least one worker");
        assert!(
            c.max_pending_connections >= 1,
            "connection queue needs capacity"
        );
        c.obs.validate();
        c
    }
}

/// Point-in-time server statistics (the engine's own counters live in
/// [`EngineStats`](vsj_service::EngineStats), served alongside these by
/// `GET /stats`).
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests routed (any endpoint, any outcome).
    pub requests: u64,
    /// Connections accepted into the queue.
    pub connections: u64,
    /// Connections refused because the queue was full.
    pub rejected_connections: u64,
    /// Requests routed to `/estimate` (its route counter). Kept only
    /// for vsjbench, which reads it.
    pub batched_estimates: u64,
    /// Always 0: each estimate runs its own pass. Kept only for
    /// vsjbench, which reads it.
    pub merged_estimates: u64,
    /// Always 0: estimates are never shed. Kept only for vsjbench,
    /// which reads it.
    pub shed_estimates: u64,
    /// Ingest requests shed with `429` (publish lag).
    pub shed_ingests: u64,
    /// Ingest requests shed with `429` (per-shard WAL depth).
    pub shed_wal: u64,
}

/// The routes the server knows, each with a per-route counter and
/// latency histogram under static Prometheus labels. Unknown paths
/// aggregate under `other` so an attacker probing random URLs cannot
/// grow the registry.
const ROUTE_LABELS: &[(&str, &[(&str, &str)])] = &[
    ("/estimate", &[("route", "/estimate")]),
    ("/insert", &[("route", "/insert")]),
    ("/remove", &[("route", "/remove")]),
    ("/upsert", &[("route", "/upsert")]),
    ("/publish", &[("route", "/publish")]),
    ("/checkpoint", &[("route", "/checkpoint")]),
    ("/compact", &[("route", "/compact")]),
    ("/stats", &[("route", "/stats")]),
    ("/healthz", &[("route", "/healthz")]),
    ("/metrics", &[("route", "/metrics")]),
    ("/quality", &[("route", "/quality")]),
    ("/trace/slow", &[("route", "/trace/slow")]),
    ("other", &[("route", "other")]),
];

/// One route's always-on instrumentation.
struct RouteMetrics {
    label: &'static str,
    requests: Counter,
    latency_us: Histogram,
    panics: Counter,
}

/// The server's own metric registry and the lock-free handles the hot
/// path records into. The engine keeps a separate registry
/// ([`EstimationEngine::metrics`](vsj_service::EstimationEngine::metrics));
/// `GET /metrics` concatenates the two renders (their name spaces are
/// disjoint: `vsj_engine_*`/`vsj_wal_*` vs `vsj_server_*`).
struct ServerMetrics {
    registry: Registry,
    requests: Counter,
    connections: Counter,
    rejected_connections: Counter,
    shed_ingests: Counter,
    shed_wal: Counter,
    publish_lag: Gauge,
    slow_traces: Counter,
    routes: Vec<RouteMetrics>,
}

impl ServerMetrics {
    fn new(obs: &ObsOptions) -> Self {
        let registry = Registry::new();
        let latency = obs.latency_spec();
        let routes = ROUTE_LABELS
            .iter()
            .map(|&(label, labels)| RouteMetrics {
                label,
                requests: registry.counter_with(
                    "vsj_server_route_requests_total",
                    "Requests routed, by endpoint",
                    labels,
                ),
                latency_us: registry.histogram_with(
                    "vsj_server_route_latency_us",
                    "Request handling latency by endpoint (µs, read to reply)",
                    labels,
                    latency,
                ),
                panics: registry.counter_with(
                    "vsj_server_panics_total",
                    "Handler panics answered with 500, by endpoint",
                    labels,
                ),
            })
            .collect();
        Self {
            requests: registry.counter(
                "vsj_server_requests_total",
                "Requests routed (any endpoint, any outcome)",
            ),
            connections: registry.counter(
                "vsj_server_connections_total",
                "Connections accepted into the queue",
            ),
            rejected_connections: registry.counter(
                "vsj_server_rejected_connections_total",
                "Connections refused because the queue was full",
            ),
            shed_ingests: registry.counter_with(
                "vsj_server_shed_total",
                "Requests shed with 429, by cause",
                &[("cause", "publish_lag")],
            ),
            shed_wal: registry.counter_with(
                "vsj_server_shed_total",
                "Requests shed with 429, by cause",
                &[("cause", "wal_depth")],
            ),
            publish_lag: registry.gauge(
                "vsj_server_publish_lag",
                "Engine publish lag: ingests not yet visible to reads (set at scrape time)",
            ),
            slow_traces: registry.counter(
                "vsj_server_slow_traces_total",
                "Requests slower than the slow-query threshold, captured into the trace ring",
            ),
            routes,
            registry,
        }
    }

    /// The metrics slot for `path` (unknown paths land on `other`).
    fn route(&self, path: &str) -> &RouteMetrics {
        self.routes
            .iter()
            .find(|r| r.label == path)
            .unwrap_or_else(|| self.routes.last().expect("`other` route is always present"))
    }
}

struct ConnectionQueue {
    queue: Mutex<(VecDeque<TcpStream>, bool)>,
    wake: Condvar,
    capacity: usize,
}

impl ConnectionQueue {
    fn new(capacity: usize) -> Self {
        Self {
            queue: Mutex::new((VecDeque::new(), false)),
            wake: Condvar::new(),
            capacity,
        }
    }

    /// `false` when the queue is at capacity or closed (caller sheds).
    fn push(&self, stream: TcpStream) -> bool {
        let mut guard = self.queue.lock().expect("connection queue");
        if guard.1 || guard.0.len() >= self.capacity {
            return false;
        }
        guard.0.push_back(stream);
        drop(guard);
        self.wake.notify_one();
        true
    }

    /// Blocks for the next connection; `None` once closed **and**
    /// drained (shutdown finishes queued clients).
    fn pop(&self) -> Option<TcpStream> {
        let mut guard = self.queue.lock().expect("connection queue");
        loop {
            if let Some(stream) = guard.0.pop_front() {
                return Some(stream);
            }
            if guard.1 {
                return None;
            }
            guard = self.wake.wait(guard).expect("connection queue");
        }
    }

    fn close(&self) {
        self.queue.lock().expect("connection queue").1 = true;
        self.wake.notify_all();
    }
}

struct Inner {
    engine: Arc<EstimationEngine>,
    config: ServerConfig,
    metrics: ServerMetrics,
    traces: Arc<TraceRing>,
    started: Instant,
    connections: ConnectionQueue,
    shutting_down: AtomicBool,
}

/// A running VSJ estimation server: the network front-end over an
/// [`EstimationEngine`].
///
/// Start with [`Server::start`], talk to it with
/// [`Client`](crate::Client) (or any HTTP client speaking
/// `docs/PROTOCOL.md`), stop it with [`Server::shutdown`] — which
/// drains in-flight work and, when configured, cuts a final checkpoint.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use vsj_server::{Client, Server, ServerConfig};
/// use vsj_service::{EstimationEngine, ServiceConfig};
///
/// let engine = Arc::new(EstimationEngine::new(
///     ServiceConfig::builder().shards(2).k(8).seed(1).build(),
/// ));
/// let server = Server::start(engine, ServerConfig::default()).unwrap();
/// let mut client = Client::connect(server.addr()).unwrap();
///
/// let id = client.insert_members(&[1, 2, 3]).unwrap();
/// assert_eq!(id, 0);
/// assert_eq!(client.publish().unwrap(), 1);
/// let answer = client.estimate(0.8).unwrap();
/// assert_eq!(answer.epoch, 1);
///
/// server.shutdown().unwrap();
/// ```
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and the worker pool, and returns the
    /// handle. With port 0 the chosen port is in [`Server::addr`].
    pub fn start(engine: Arc<EstimationEngine>, config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.workers >= 1, "a server needs at least one worker");
        assert!(
            config.max_pending_connections >= 1,
            "connection queue needs capacity"
        );
        config.obs.validate();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = ServerMetrics::new(&config.obs);
        let traces = Arc::new(TraceRing::new(
            config.obs.trace_ring,
            config.obs.slow_query_threshold,
        ));
        let inner = Arc::new(Inner {
            engine,
            metrics,
            traces,
            started: Instant::now(),
            connections: ConnectionQueue::new(config.max_pending_connections),
            shutting_down: AtomicBool::new(false),
            config,
        });

        let acceptor_inner = inner.clone();
        let acceptor = std::thread::Builder::new()
            .name("vsj-acceptor".into())
            .spawn(move || accept_loop(listener, acceptor_inner))?;

        let workers = (0..inner.config.workers)
            .map(|i| {
                let worker_inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("vsj-worker-{i}"))
                    .spawn(move || worker_loop(worker_inner))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(Server {
            addr,
            inner,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<EstimationEngine> {
        &self.inner.engine
    }

    /// The slow-trace ring `GET /trace/slow` serves. Hand a clone to
    /// [`Checkpointer::spawn`](vsj_service::Checkpointer::spawn),
    /// [`Compactor::spawn`](vsj_service::Compactor::spawn),
    /// or [`Auditor::spawn`](vsj_service::Auditor::spawn)
    /// so background maintenance cycles land in the same ring as slow
    /// requests (told apart by the `op` field).
    pub fn trace_ring(&self) -> Arc<TraceRing> {
        self.inner.traces.clone()
    }

    /// Point-in-time server statistics.
    pub fn stats(&self) -> ServerStats {
        stats_of(&self.inner)
    }

    /// Graceful shutdown: stop accepting, finish queued connections and
    /// in-flight requests, join every thread, and — when
    /// [`ServerConfig::checkpoint_on_shutdown`] is set and the engine
    /// is durable — cut a final checkpoint. Returns the checkpointed
    /// epoch, if one was taken.
    pub fn shutdown(mut self) -> Result<Option<u64>, PersistError> {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.connections.close();
        // Unblock the acceptor's blocking `accept` with a no-op connect.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if self.inner.config.checkpoint_on_shutdown && self.inner.engine.is_durable() {
            return self.inner.engine.checkpoint().map(Some);
        }
        Ok(None)
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            // Persistent accept errors (EMFILE under fd exhaustion,
            // ENOBUFS, …) would otherwise busy-spin this thread at
            // 100% CPU — exactly when the workers need cycles to close
            // connections and clear the condition.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        inner.metrics.connections.inc();
        if !inner.connections.push(stream) {
            // Bounded queue full: shed the connection, never buffer it.
            // (The stream drops here; a 503 body would require blocking
            // the acceptor on a possibly-unwritable socket.)
            inner.metrics.rejected_connections.inc();
        }
    }
}

fn worker_loop(inner: Arc<Inner>) {
    while let Some(stream) = inner.connections.pop() {
        // Backstop for panics outside the routed handler (route() has
        // its own catch): the connection is lost, the worker survives.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = serve_connection(&inner, stream);
        }));
    }
}

/// Keep-alive loop over one connection. Idle waits poll at
/// [`IDLE_POLL`] so shutdown is observed promptly without dropping
/// half-read requests.
fn serve_connection(inner: &Arc<Inner>, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        // Wait (peek, consuming nothing) for the next request's first
        // byte so a transport timeout can never tear a request apart.
        reader.get_ref().set_read_timeout(Some(IDLE_POLL))?;
        use std::io::BufRead;
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // clean EOF between requests
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        reader.get_ref().set_read_timeout(Some(ACTIVE_TIMEOUT))?;
        let request = match http::read_request(&mut reader, inner.config.max_body) {
            Ok(request) => request,
            Err(ReadError::Closed) => return Ok(()),
            Err(ReadError::Io(e)) => return Err(e),
            Err(ReadError::Malformed(reason)) => {
                let body = error_body(&reason);
                return http::write_response(
                    &mut writer,
                    400,
                    "application/json",
                    &body,
                    true,
                    None,
                );
            }
            Err(ReadError::BodyTooLarge { declared, limit }) => {
                let body = error_body(&format!("body of {declared} bytes exceeds limit {limit}"));
                return http::write_response(
                    &mut writer,
                    413,
                    "application/json",
                    &body,
                    true,
                    None,
                );
            }
        };
        inner.metrics.requests.inc();
        let close = request.wants_close();
        let handling_started = Instant::now();
        let route_metrics = inner.metrics.route(&request.path);
        // Panic isolation: a handler panic (most plausibly a durable
        // engine refusing an unlogged write after a WAL I/O failure)
        // must cost a 500, not a worker thread — a shrinking pool would
        // eventually strand accepted connections forever.
        let reply =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(inner, &request)))
                .unwrap_or_else(|panic| {
                    route_metrics.panics.inc();
                    let reason = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "handler panicked".into());
                    Reply::error(500, format!("internal error: {reason}"))
                });
        let elapsed = handling_started.elapsed();
        route_metrics.requests.inc();
        route_metrics.latency_us.record_duration(elapsed);
        // Every request carries a trace on the stack; it crosses into
        // the ring (the only allocation/lock on this path) only when
        // slower than the threshold. Handlers that know their pipeline
        // attach stage timings; for the rest the total alone is kept.
        let mut trace = reply
            .trace
            .map(|boxed| *boxed)
            .unwrap_or_else(|| Trace::new(route_metrics.label));
        trace.total_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        if inner.traces.offer(trace) {
            inner.metrics.slow_traces.inc();
        }
        http::write_response(
            &mut writer,
            reply.status,
            reply.content_type,
            &reply.body,
            close,
            reply.retry_after,
        )?;
        if close {
            return Ok(());
        }
    }
}

struct Reply {
    status: u16,
    body: String,
    content_type: &'static str,
    retry_after: Option<Duration>,
    /// Stage timings the handler collected; the serve loop stamps the
    /// total and offers it to the slow-trace ring. Boxed to keep the
    /// common traceless `Reply` small (clippy::result_large_err).
    trace: Option<Box<Trace>>,
}

impl Reply {
    fn ok(body: Json) -> Self {
        Self {
            status: 200,
            body: body.encode(),
            content_type: "application/json",
            retry_after: None,
            trace: None,
        }
    }

    /// A non-JSON body (the Prometheus text exposition).
    fn text(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            body,
            content_type,
            retry_after: None,
            trace: None,
        }
    }

    fn error(status: u16, message: impl AsRef<str>) -> Self {
        Self {
            status,
            body: Json::obj([("error", Json::str(message.as_ref()))]).encode(),
            content_type: "application/json",
            retry_after: None,
            trace: None,
        }
    }

    /// Attaches handler-collected stage timings.
    fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = Some(Box::new(trace));
        self
    }

    fn shed(message: impl AsRef<str>) -> Self {
        Self::shed_after(Duration::from_secs(1), message)
    }

    fn shed_after(retry_after: Duration, message: impl AsRef<str>) -> Self {
        Self {
            retry_after: Some(retry_after),
            ..Self::error(429, message)
        }
    }
}

fn error_body(message: &str) -> String {
    Json::obj([("error", Json::str(message))]).encode()
}

fn route(inner: &Arc<Inner>, request: &Request) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/estimate") => handle_estimate(inner, request),
        ("POST", "/insert") => handle_insert(inner, request),
        ("POST", "/remove") => handle_remove(inner, request),
        ("POST", "/upsert") => handle_upsert(inner, request),
        ("POST", "/publish") => {
            let mut trace = Trace::new("/publish");
            let publish_started = Instant::now();
            let epoch = inner.engine.publish();
            trace.stage("publish", micros(publish_started.elapsed()));
            Reply::ok(Json::obj([("epoch", Json::u64(epoch))])).with_trace(trace)
        }
        ("POST", "/checkpoint") => match inner.engine.checkpoint() {
            Ok(epoch) => Reply::ok(Json::obj([("epoch", Json::u64(epoch))])),
            Err(PersistError::NotDurable) => {
                Reply::error(409, "engine has no storage attached (not durable)")
            }
            Err(e) => Reply::error(500, format!("checkpoint failed: {e}")),
        },
        ("POST", "/compact") => match inner.engine.compact() {
            Ok(epoch) => Reply::ok(Json::obj([("epoch", Json::u64(epoch))])),
            Err(PersistError::NotDurable) => {
                Reply::error(409, "engine has no storage attached (not durable)")
            }
            Err(e) => Reply::error(500, format!("compaction failed: {e}")),
        },
        ("GET", "/stats") => handle_stats(inner),
        ("GET", "/healthz") => Reply::ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("epoch", Json::u64(inner.engine.current_epoch())),
            ("uptime_secs", Json::u64(inner.started.elapsed().as_secs())),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            ("fsync", Json::str(fsync_str(inner.engine.fsync_policy()))),
            (
                "storage_tier",
                Json::str(tier_str(inner.engine.storage_tier())),
            ),
            ("compactions", Json::u64(inner.engine.stats().compactions)),
        ])),
        ("GET", "/metrics") => handle_metrics(inner),
        ("GET", "/quality") => handle_quality(inner),
        ("GET", "/trace/slow") => handle_trace_slow(inner),
        ("GET" | "POST", _) => Reply::error(404, format!("no such endpoint {}", request.path)),
        _ => Reply::error(405, format!("method {} not supported", request.method)),
    }
}

/// Saturating whole-microseconds of a duration (trace stages).
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The engine's fsync policy as a stable string for `/healthz` and
/// `/stats` (`none` = the engine has no storage attached).
fn fsync_str(policy: Option<FsyncPolicy>) -> &'static str {
    match policy {
        None => "none",
        Some(FsyncPolicy::Always) => "always",
        Some(FsyncPolicy::Never) => "never",
    }
}

/// The engine's serving tier as a stable string for `/healthz` and
/// `/stats` (`mapped` = estimates are served from the mmapped
/// checkpoint base plus a heap overlay; `heap` = fully materialized).
fn tier_str(tier: StorageTier) -> &'static str {
    match tier {
        StorageTier::Heap => "heap",
        StorageTier::Mapped => "mapped",
    }
}

/// `GET /metrics`: the engine's and the server's registries rendered as
/// one Prometheus text exposition. Point-in-time gauges are refreshed
/// here, at scrape time — a gauge is a sample, not an event stream.
/// [`render_registries`] merges the two with cross-registry name
/// deduplication, so a name accidentally registered in both (their
/// namespaces are disjoint by convention, not by construction) cannot
/// produce an exposition that fails
/// [`validate_exposition`](vsj_obs::validate_exposition); the
/// `vsj_obs_duplicate_metric_names` gauge it always emits makes such a
/// collision loud instead of silent.
fn handle_metrics(inner: &Arc<Inner>) -> Reply {
    inner.metrics.publish_lag.set(inner.engine.publish_lag());
    let mut text = String::new();
    render_registries(
        &[inner.engine.metrics(), &inner.metrics.registry],
        &mut text,
    );
    Reply::text("text/plain; version=0.0.4", text)
}

/// `GET /quality`: the engine's estimator-quality audit summary —
/// CI-coverage counters, the signed-relative-error summary, and the
/// worst-calibrated ring (see `docs/OBSERVABILITY.md`).
fn handle_quality(inner: &Arc<Inner>) -> Reply {
    let report = inner.engine.quality_report();
    let coverage = report.coverage.map_or(Json::Null, Json::Num);
    let error_mean = if report.errors.count() == 0 {
        Json::Null
    } else {
        Json::Num(report.errors.mean())
    };
    let error_std = if report.errors.count() < 2 {
        Json::Null
    } else {
        Json::Num(report.errors.std())
    };
    Reply::ok(Json::obj([
        ("cycles", Json::u64(report.cycles)),
        ("skipped", Json::u64(report.skipped)),
        ("within_ci", Json::u64(report.within_ci)),
        ("outside_ci", Json::u64(report.outside_ci)),
        ("coverage", coverage),
        ("error_count", Json::u64(report.errors.count())),
        ("error_mean", error_mean),
        ("error_std", error_std),
        ("served_taus", Json::usize(report.served_taus)),
        (
            "worst",
            Json::Arr(report.worst.iter().map(audit_record_json).collect()),
        ),
    ]))
}

/// One [`AuditRecord`] as protocol JSON (the `worst` array of
/// `GET /quality`).
fn audit_record_json(r: &AuditRecord) -> Json {
    // +∞ (truth 0, estimate not) has no JSON number; travel it as null.
    let signed_error = if r.signed_error.is_finite() {
        Json::Num(r.signed_error)
    } else {
        Json::Null
    };
    Json::obj([
        ("tau", Json::Num(r.tau)),
        ("epoch", Json::u64(r.epoch)),
        ("n", Json::usize(r.n)),
        ("audited_n", Json::usize(r.audited_n)),
        ("estimate", Json::Num(r.estimate)),
        ("std_err", Json::Num(r.std_err)),
        ("ci_low", Json::Num(r.ci_low)),
        ("ci_high", Json::Num(r.ci_high)),
        ("truth", Json::Num(r.truth)),
        ("signed_error", signed_error),
        ("within_ci", Json::Bool(r.within_ci)),
        ("cached", Json::Bool(r.cached)),
        ("serve_us", Json::u64(r.serve_us)),
        ("exact_us", Json::u64(r.exact_us)),
    ])
}

/// `GET /trace/slow`: the slow-request ring as JSON, newest first, each
/// trace with its stage-by-stage breakdown.
fn handle_trace_slow(inner: &Arc<Inner>) -> Reply {
    let traces = inner
        .traces
        .recent()
        .iter()
        .map(|t| {
            Json::obj([
                ("seq", Json::u64(t.seq)),
                ("route", Json::str(t.label)),
                ("op", Json::str(op_str(t.label))),
                ("total_us", Json::u64(t.total_us)),
                (
                    "stages",
                    Json::Arr(
                        t.stages()
                            .iter()
                            .map(|s| {
                                Json::obj([
                                    ("stage", Json::str(s.name)),
                                    ("us", Json::u64(s.micros)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Reply::ok(Json::obj([
        ("threshold_us", Json::u64(inner.traces.threshold_us())),
        ("captured", Json::u64(inner.traces.captured())),
        ("traces", Json::Arr(traces)),
    ]))
}

/// Classifies a trace label for the `op` field of `GET /trace/slow`:
/// background maintenance cycles (checkpoint/compaction/audit) keep
/// their cycle name, everything else is a served request.
fn op_str(label: &str) -> &'static str {
    match label {
        "checkpoint" => "checkpoint",
        "compaction" => "compaction",
        "audit" => "audit",
        _ => "request",
    }
}

fn parse_body(request: &Request) -> Result<Json, Reply> {
    if request.body.is_empty() {
        return Ok(Json::obj([]));
    }
    let text =
        std::str::from_utf8(&request.body).map_err(|_| Reply::error(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| Reply::error(400, format!("bad JSON: {e}")))
}

/// Decodes the vector encodings the protocol accepts: binary
/// `{"members": [u32…]}` or weighted `{"indices": […], "weights": […]}`.
fn parse_vector(body: &Json) -> Result<SparseVector, String> {
    if let Some(members) = body.get("members") {
        let members = members
            .as_arr()
            .ok_or("members must be an array")?
            .iter()
            .map(|m| {
                m.as_u64()
                    .filter(|&v| v <= u32::MAX as u64)
                    .map(|v| v as u32)
                    .ok_or("members must be u32 dimensions")
            })
            .collect::<Result<Vec<u32>, _>>()?;
        return Ok(SparseVector::binary_from_members(members));
    }
    let (Some(indices), Some(weights)) = (body.get("indices"), body.get("weights")) else {
        return Err("vector needs either members or indices+weights".into());
    };
    let indices = indices
        .as_arr()
        .ok_or("indices must be an array")?
        .iter()
        .map(|m| {
            m.as_u64()
                .filter(|&v| v <= u32::MAX as u64)
                .map(|v| v as u32)
                .ok_or("indices must be u32 dimensions")
        })
        .collect::<Result<Vec<u32>, _>>()?;
    let weights = weights
        .as_arr()
        .ok_or("weights must be an array")?
        .iter()
        .map(|w| {
            w.as_f64()
                .map(|v| v as f32)
                .ok_or("weights must be numbers")
        })
        .collect::<Result<Vec<f32>, _>>()?;
    if indices.len() != weights.len() {
        return Err(format!(
            "{} indices but {} weights",
            indices.len(),
            weights.len()
        ));
    }
    SparseVector::from_entries(indices.into_iter().zip(weights).collect())
        .map_err(|e| format!("invalid vector: {e:?}"))
}

/// Ingest backpressure: `Some(reply)` when the publish lag or the
/// per-shard durable-write backlog says shed.
fn ingest_pressure(inner: &Arc<Inner>) -> Option<Reply> {
    if let Some(limit) = inner.config.max_publish_lag {
        let lag = inner.engine.publish_lag();
        if lag >= limit {
            inner.metrics.shed_ingests.inc();
            return Some(Reply::shed(format!(
                "publish lag {lag} at or past the shed threshold {limit}; publish (or wait for auto-publish) and retry"
            )));
        }
    }
    if let Some(limit) = inner.config.max_wal_depth {
        let depth = inner.engine.max_wal_shard_pending();
        if depth >= limit {
            inner.metrics.shed_wal.inc();
            // Retry-After keys off how deep past the limit the worst
            // shard is: a checkpoint drains the whole backlog, so a 2×
            // overshoot roughly doubles the useful wait.
            let factor = (depth / limit.max(1)).clamp(1, 8);
            return Some(Reply::shed_after(
                Duration::from_secs(factor),
                format!(
                    "WAL depth {depth} on the deepest shard at or past the shed threshold {limit}; checkpoint and retry"
                ),
            ));
        }
    }
    None
}

fn handle_estimate(inner: &Arc<Inner>, request: &Request) -> Reply {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(reply) => return reply,
    };
    let Some(tau) = body.get("tau").and_then(Json::as_f64) else {
        return Reply::error(400, "estimate needs a numeric tau");
    };
    if !(0.0..=1.0).contains(&tau) {
        return Reply::error(400, format!("tau {tau} outside [0, 1]"));
    }
    // Opt-in interval fields: responses without `"ci": true` stay
    // byte-identical to the pre-interval protocol, so old clients (and
    // byte-level response pins) are unaffected.
    let with_ci = match body.get("ci") {
        None => false,
        Some(flag) => match flag.as_bool() {
            Some(flag) => flag,
            None => return Reply::error(400, "ci must be a boolean"),
        },
    };
    // The pass runs here, on the worker, inside `route`'s panic guard:
    // a panicking pass costs this request a 500 and nothing else.
    let sampling_started = Instant::now();
    let e = inner.engine.estimate(tau);
    let mut trace = Trace::new("/estimate");
    trace.stage("sampling", micros(sampling_started.elapsed()));
    let mut fields = vec![
        ("value", Json::Num(e.estimate.value)),
        ("kind", Json::str(kind_str(e.estimate.kind))),
        ("epoch", Json::u64(e.epoch)),
        ("n", Json::usize(e.n)),
        ("tau", Json::Num(e.tau)),
        ("cached", Json::Bool(e.cached)),
    ];
    if with_ci {
        fields.push(("std_err", Json::Num(e.std_err)));
        fields.push(("ci_low", Json::Num(e.ci_low())));
        fields.push(("ci_high", Json::Num(e.ci_high())));
    }
    Reply::ok(Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    ))
    .with_trace(trace)
}

fn handle_insert(inner: &Arc<Inner>, request: &Request) -> Reply {
    if let Some(shed) = ingest_pressure(inner) {
        return shed;
    }
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(reply) => return reply,
    };
    match parse_vector(&body) {
        Ok(vector) => {
            // On a durable engine the apply stage includes the WAL
            // append and commit wait (fsync, under Always).
            let mut trace = Trace::new("/insert");
            let apply_started = Instant::now();
            let id = inner.engine.insert(vector);
            trace.stage("apply", micros(apply_started.elapsed()));
            Reply::ok(Json::obj([("id", Json::u64(id))])).with_trace(trace)
        }
        Err(reason) => Reply::error(400, reason),
    }
}

fn handle_remove(inner: &Arc<Inner>, request: &Request) -> Reply {
    if let Some(shed) = ingest_pressure(inner) {
        return shed;
    }
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(reply) => return reply,
    };
    let Some(id) = body.get("id").and_then(Json::as_u64) else {
        return Reply::error(400, "remove needs a numeric id");
    };
    let mut trace = Trace::new("/remove");
    let apply_started = Instant::now();
    let removed = inner.engine.remove(id);
    trace.stage("apply", micros(apply_started.elapsed()));
    Reply::ok(Json::obj([("removed", Json::Bool(removed))])).with_trace(trace)
}

fn handle_upsert(inner: &Arc<Inner>, request: &Request) -> Reply {
    if let Some(shed) = ingest_pressure(inner) {
        return shed;
    }
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(reply) => return reply,
    };
    let Some(id) = body.get("id").and_then(Json::as_u64) else {
        return Reply::error(400, "upsert needs a numeric id");
    };
    match parse_vector(&body) {
        Ok(vector) => {
            let mut trace = Trace::new("/upsert");
            let apply_started = Instant::now();
            let replaced = inner.engine.upsert(id, vector);
            trace.stage("apply", micros(apply_started.elapsed()));
            Reply::ok(Json::obj([("replaced", Json::Bool(replaced))])).with_trace(trace)
        }
        Err(reason) => Reply::error(400, reason),
    }
}

fn handle_stats(inner: &Arc<Inner>) -> Reply {
    let engine = inner.engine.stats();
    let server = stats_of(inner);
    Reply::ok(Json::obj([
        (
            "engine",
            Json::obj([
                ("epoch", Json::u64(engine.epoch)),
                ("live", Json::usize(engine.live)),
                ("ingests", Json::u64(engine.ingests)),
                ("publish_lag", Json::u64(engine.publish_lag)),
                ("publishes", Json::u64(engine.publishes)),
                ("delta_publishes", Json::u64(engine.delta_publishes)),
                ("full_publishes", Json::u64(engine.full_publishes)),
                ("shards", Json::usize(engine.shards.len())),
                ("cache_hits", Json::u64(engine.cache_hits)),
                ("cache_misses", Json::u64(engine.cache_misses)),
                ("cache_entries", Json::usize(engine.cache_entries)),
                ("sampling_passes", Json::u64(engine.sampling_passes)),
                ("sampled_pairs", Json::u64(engine.sampled_pairs)),
                ("wal_pending", Json::u64(engine.wal_pending)),
                (
                    "wal_max_shard_pending",
                    Json::u64(engine.wal_shard_pending.iter().copied().max().unwrap_or(0)),
                ),
                ("wal_segments", Json::u64(engine.wal_segments)),
                ("wal_fsyncs", Json::u64(engine.wal_fsyncs)),
                ("wal_rotations", Json::u64(engine.wal_rotations)),
                ("compactions", Json::u64(engine.compactions)),
                ("overlay_bytes", Json::u64(engine.overlay_bytes)),
                ("tombstones", Json::usize(engine.tombstones)),
            ]),
        ),
        (
            "server",
            Json::obj([
                ("uptime_secs", Json::u64(inner.started.elapsed().as_secs())),
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                ("fsync", Json::str(fsync_str(inner.engine.fsync_policy()))),
                (
                    "storage_tier",
                    Json::str(tier_str(inner.engine.storage_tier())),
                ),
                ("requests", Json::u64(server.requests)),
                ("connections", Json::u64(server.connections)),
                (
                    "rejected_connections",
                    Json::u64(server.rejected_connections),
                ),
                ("shed_ingests", Json::u64(server.shed_ingests)),
                ("shed_wal", Json::u64(server.shed_wal)),
            ]),
        ),
    ]))
}

fn stats_of(inner: &Inner) -> ServerStats {
    let m = &inner.metrics;
    ServerStats {
        requests: m.requests.get(),
        connections: m.connections.get(),
        rejected_connections: m.rejected_connections.get(),
        batched_estimates: m.route("/estimate").requests.get(),
        merged_estimates: 0,
        shed_estimates: 0,
        shed_ingests: m.shed_ingests.get(),
        shed_wal: m.shed_wal.get(),
    }
}

fn kind_str(kind: EstimateKind) -> &'static str {
    match kind {
        EstimateKind::Scaled => "scaled",
        EstimateKind::SafeLowerBound => "safe_lower_bound",
        EstimateKind::Dampened => "dampened",
        EstimateKind::Analytic => "analytic",
    }
}
