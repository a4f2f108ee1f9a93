//! A blocking client for the `vsj-server` wire protocol — what the
//! examples, tests, and CI smoke job speak. One client holds one
//! keep-alive connection; it is `Send` but not `Sync` (clone the
//! address and connect per thread for concurrent load).

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use vsj_vector::SparseVector;

use crate::http::{self, ReadError, Response};
use crate::json::Json;

/// Largest response body the client accepts.
const MAX_RESPONSE: usize = 4 << 20;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server shed the request (`429`); retry after the hint.
    Overloaded {
        /// Server-provided retry hint.
        retry_after: Duration,
        /// The server's explanation.
        message: String,
    },
    /// Any other non-`200` answer.
    Status {
        /// HTTP status code.
        status: u16,
        /// The server's `error` message (or raw body).
        message: String,
    },
    /// The response was not parseable protocol JSON.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Overloaded {
                retry_after,
                message,
            } => write!(f, "shed by server (retry after {retry_after:?}): {message}"),
            Self::Status { status, message } => write!(f, "server answered {status}: {message}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// One served estimate, as decoded from the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimated {
    /// The join-size estimate Ĵ(τ).
    pub value: f64,
    /// Epoch of the snapshot it was computed on.
    pub epoch: u64,
    /// Live vectors in that snapshot.
    pub n: usize,
    /// The threshold asked for.
    pub tau: f64,
    /// Served from the answering snapshot's memo (same bits, no new
    /// sampling pass).
    pub cached: bool,
    /// Standard error of the estimate — present only when the request
    /// asked for intervals ([`Client::estimate_with_ci`]).
    pub std_err: Option<f64>,
    /// ~95% confidence interval, low edge (requires `estimate_with_ci`).
    pub ci_low: Option<f64>,
    /// ~95% confidence interval, high edge (requires
    /// `estimate_with_ci`).
    pub ci_high: Option<f64>,
}

/// Blocking protocol client over one keep-alive connection.
///
/// Reconnects transparently if the server closed the connection between
/// requests (e.g. after an error response).
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    /// Connects to a server (see [`Server::addr`](crate::Server::addr)).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let mut client = Self { addr, stream: None };
        client.reconnect()?;
        Ok(client)
    }

    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        self.stream = Some(BufReader::new(stream));
        Ok(())
    }

    /// One request/response exchange, reconnecting once if the
    /// keep-alive connection had gone away. **Only `idempotent`
    /// requests are resent** after a failure past the initial write:
    /// once the bytes may have reached the server, replaying an
    /// `insert`/`publish`/… would silently apply it twice (duplicate
    /// vector, extra epoch). Estimates are deterministic per
    /// `(epoch, τ)` and reads have no side effects, so those retry
    /// freely; for the rest the error is surfaced and the *next* call
    /// reconnects.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
        idempotent: bool,
    ) -> Result<Response, ClientError> {
        let encoded = body.map(Json::encode).unwrap_or_default();
        for attempt in 0..2 {
            if self.stream.is_none() {
                self.reconnect()?;
            }
            let reader = self.stream.as_mut().expect("just connected");
            let request = format!(
                "{method} {path} HTTP/1.1\r\nhost: vsj\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{encoded}",
                encoded.len()
            );
            use std::io::Write;
            // Through the reader's own socket: no `dup` per request.
            let sent = reader.get_mut().write_all(request.as_bytes());
            let response = match sent {
                Ok(()) => http::read_response(reader, MAX_RESPONSE),
                Err(e) => Err(ReadError::Io(e)),
            };
            match response {
                Ok(response) => {
                    if response.wants_close() {
                        self.stream = None;
                    }
                    return Ok(response);
                }
                // A dead keep-alive connection surfaces as Closed/Io on
                // the first attempt; retry once on a fresh socket —
                // idempotent requests only (see above).
                Err(ReadError::Closed | ReadError::Io(_)) if attempt == 0 && idempotent => {
                    self.stream = None;
                }
                Err(ReadError::Closed) => {
                    self.stream = None;
                    return Err(ClientError::Protocol("server closed the connection".into()));
                }
                Err(ReadError::Io(e)) => {
                    self.stream = None;
                    return Err(ClientError::Io(e));
                }
                Err(e) => return Err(ClientError::Protocol(format!("{e:?}"))),
            }
        }
        unreachable!("second attempt returns")
    }

    /// A side-effect-free (or deterministically replayable) call:
    /// retried once on a dead keep-alive connection.
    fn call_idempotent(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<Json, ClientError> {
        self.call_inner(method, path, body, true)
    }

    /// A state-changing call: never auto-resent.
    fn call(&mut self, method: &str, path: &str, body: Option<&Json>) -> Result<Json, ClientError> {
        self.call_inner(method, path, body, false)
    }

    fn call_inner(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
        idempotent: bool,
    ) -> Result<Json, ClientError> {
        let response = self.exchange(method, path, body, idempotent)?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| ClientError::Protocol("non-UTF-8 response body".into()))?;
        let json = Json::parse(text)
            .map_err(|e| ClientError::Protocol(format!("bad response JSON: {e}")))?;
        if response.status == 200 {
            return Ok(json);
        }
        let message = json
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or(text)
            .to_string();
        Err(match response.status {
            429 => ClientError::Overloaded {
                retry_after: response
                    .headers
                    .get("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map_or(Duration::from_secs(1), Duration::from_secs),
                message,
            },
            status => ClientError::Status { status, message },
        })
    }

    fn field_u64(json: &Json, field: &str) -> Result<u64, ClientError> {
        json.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("response lacks {field}")))
    }

    fn field_bool(json: &Json, field: &str) -> Result<bool, ClientError> {
        json.get(field)
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol(format!("response lacks {field}")))
    }

    // --- endpoints -------------------------------------------------------

    /// `POST /estimate`.
    pub fn estimate(&mut self, tau: f64) -> Result<Estimated, ClientError> {
        self.estimate_request(tau, false)
    }

    /// `POST /estimate` asking for the interval fields: the returned
    /// [`Estimated`] carries `std_err`/`ci_low`/`ci_high` (a ~95%
    /// normal-approximation interval around the point estimate).
    pub fn estimate_with_ci(&mut self, tau: f64) -> Result<Estimated, ClientError> {
        self.estimate_request(tau, true)
    }

    fn estimate_request(&mut self, tau: f64, with_ci: bool) -> Result<Estimated, ClientError> {
        let mut body = vec![("tau", Json::Num(tau))];
        if with_ci {
            body.push(("ci", Json::Bool(true)));
        }
        let body = Json::Obj(body.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
        // Deterministic per (epoch, τ): safe to replay on a dead
        // keep-alive connection.
        let json = self.call_idempotent("POST", "/estimate", Some(&body))?;
        Ok(Estimated {
            value: json
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| ClientError::Protocol("response lacks value".into()))?,
            epoch: Self::field_u64(&json, "epoch")?,
            n: Self::field_u64(&json, "n")? as usize,
            tau: json.get("tau").and_then(Json::as_f64).unwrap_or(tau),
            cached: Self::field_bool(&json, "cached")?,
            std_err: json.get("std_err").and_then(Json::as_f64),
            ci_low: json.get("ci_low").and_then(Json::as_f64),
            ci_high: json.get("ci_high").and_then(Json::as_f64),
        })
    }

    /// `POST /insert` of a binary vector; returns the assigned id.
    pub fn insert_members(&mut self, members: &[u32]) -> Result<u64, ClientError> {
        let body = Json::obj([(
            "members",
            Json::Arr(members.iter().map(|&m| Json::u64(m as u64)).collect()),
        )]);
        let json = self.call("POST", "/insert", Some(&body))?;
        Self::field_u64(&json, "id")
    }

    /// `POST /insert` of an arbitrary sparse vector.
    pub fn insert(&mut self, vector: &SparseVector) -> Result<u64, ClientError> {
        let body = vector_json(vector);
        let json = self.call("POST", "/insert", Some(&body))?;
        Self::field_u64(&json, "id")
    }

    /// `POST /remove`; `true` when the id was live.
    pub fn remove(&mut self, id: u64) -> Result<bool, ClientError> {
        let body = Json::obj([("id", Json::u64(id))]);
        let json = self.call("POST", "/remove", Some(&body))?;
        Self::field_bool(&json, "removed")
    }

    /// `POST /upsert`; `true` when an existing vector was replaced.
    pub fn upsert(&mut self, id: u64, vector: &SparseVector) -> Result<bool, ClientError> {
        let mut body = vector_json(vector);
        if let Json::Obj(map) = &mut body {
            map.insert("id".into(), Json::u64(id));
        }
        let json = self.call("POST", "/upsert", Some(&body))?;
        Self::field_bool(&json, "replaced")
    }

    /// `POST /publish`; returns the new epoch.
    pub fn publish(&mut self) -> Result<u64, ClientError> {
        let json = self.call("POST", "/publish", None)?;
        Self::field_u64(&json, "epoch")
    }

    /// `POST /checkpoint`; returns the checkpointed epoch (`409` →
    /// [`ClientError::Status`] when the engine is not durable).
    pub fn checkpoint(&mut self) -> Result<u64, ClientError> {
        let json = self.call("POST", "/checkpoint", None)?;
        Self::field_u64(&json, "epoch")
    }

    /// `POST /compact`; returns the cut epoch (`409` →
    /// [`ClientError::Status`] when the engine is not durable). On a
    /// mapped-tier engine this folds the overlay and tombstones into a
    /// fresh container; on the heap tier it degenerates to a
    /// checkpoint.
    pub fn compact(&mut self) -> Result<u64, ClientError> {
        let json = self.call("POST", "/compact", None)?;
        Self::field_u64(&json, "epoch")
    }

    /// `GET /stats`: the raw stats document (`engine` and `server`
    /// objects, see `docs/PROTOCOL.md`).
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call_idempotent("GET", "/stats", None)
    }

    /// `GET /healthz`; returns the current epoch.
    pub fn health(&mut self) -> Result<u64, ClientError> {
        let json = self.call_idempotent("GET", "/healthz", None)?;
        Self::field_u64(&json, "epoch")
    }

    /// `GET /metrics`: the raw Prometheus text exposition (engine and
    /// server registries concatenated). Returned untouched so callers
    /// can feed it to a scraper or to
    /// [`vsj_obs::validate_exposition`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let response = self.exchange("GET", "/metrics", None, true)?;
        let text = String::from_utf8(response.body)
            .map_err(|_| ClientError::Protocol("non-UTF-8 metrics body".into()))?;
        if response.status != 200 {
            return Err(ClientError::Status {
                status: response.status,
                message: text,
            });
        }
        Ok(text)
    }

    /// `GET /trace/slow`: the slow-request trace ring (`threshold_us`,
    /// `captured`, and `traces` newest-first, each with a stage
    /// breakdown — see `docs/OBSERVABILITY.md`).
    pub fn slow_traces(&mut self) -> Result<Json, ClientError> {
        self.call_idempotent("GET", "/trace/slow", None)
    }

    /// `GET /quality`: the estimator-quality audit summary (CI-coverage
    /// counters, signed-relative-error summary, worst-calibrated ring —
    /// see `docs/OBSERVABILITY.md`).
    pub fn quality(&mut self) -> Result<Json, ClientError> {
        self.call_idempotent("GET", "/quality", None)
    }
}

/// The wire encoding of a vector: binary vectors travel as `members`
/// (compact), weighted ones as `indices` + `weights`.
fn vector_json(vector: &SparseVector) -> Json {
    if vector.is_binary() {
        Json::obj([(
            "members",
            Json::Arr(
                vector
                    .indices()
                    .iter()
                    .map(|&m| Json::u64(m as u64))
                    .collect(),
            ),
        )])
    } else {
        Json::obj([
            (
                "indices",
                Json::Arr(
                    vector
                        .indices()
                        .iter()
                        .map(|&m| Json::u64(m as u64))
                        .collect(),
                ),
            ),
            (
                "weights",
                Json::Arr(
                    vector
                        .values()
                        .iter()
                        .map(|&w| Json::Num(w as f64))
                        .collect(),
                ),
            ),
        ])
    }
}
