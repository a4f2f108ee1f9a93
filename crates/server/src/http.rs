//! A deliberately small HTTP/1.1 subset over blocking `std::net`
//! streams — just enough protocol for the JSON endpoints in
//! `docs/PROTOCOL.md`, shared by the server and the blocking client.
//!
//! Supported: request line + headers, `Content-Length` bodies,
//! keep-alive (default in 1.1) and `Connection: close`. Not supported
//! (requests using them are answered `400`/`413` and the connection is
//! closed): chunked transfer encoding, multi-line headers, upgrades,
//! pipelining beyond one in-flight request per connection.

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};

/// Hard cap on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component (query strings are not used by the protocol and
    /// are kept attached).
    pub path: String,
    /// Headers, keys lowercased.
    pub headers: BTreeMap<String, String>,
    /// Raw body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// Whether the client asked to drop the connection after this
    /// exchange (`Connection: close`; HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before a request line —
    /// the normal end of a keep-alive session, not an error to report.
    Closed,
    /// Transport failure mid-request.
    Io(std::io::Error),
    /// The bytes were not parseable HTTP, with a human-readable reason.
    Malformed(String),
    /// The declared body exceeds the server's limit.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request from a buffered stream. `max_body` caps the
/// accepted `Content-Length`.
pub fn read_request<S: BufRead>(stream: &mut S, max_body: usize) -> Result<Request, ReadError> {
    let mut line = String::new();
    // Request line. EOF here = peer hung up between requests.
    if read_line_limited(stream, &mut line)? == 0 {
        return Err(ReadError::Closed);
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(ReadError::Malformed(format!("bad request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("unsupported {version}")));
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();
    let (headers, body) = read_headers_and_body(stream, &mut line, max_body)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Reads the header block that follows a start line, then the body its
/// `Content-Length` declares: the part a request and a response share.
/// `Content-Length` must appear at most once and be `1*DIGIT`
/// (RFC 9112 §6.3). A map keeps only the last of two values and
/// `usize::from_str` also takes `+11`; either would read a body of the
/// wrong length and desynchronise a keep-alive stream.
fn read_headers_and_body<S: BufRead>(
    stream: &mut S,
    line: &mut String,
    max_body: usize,
) -> Result<(BTreeMap<String, String>, Vec<u8>), ReadError> {
    let mut headers = BTreeMap::new();
    let mut head_bytes = line.len();
    loop {
        line.clear();
        if read_line_limited(stream, line)? == 0 {
            return Err(ReadError::Malformed("EOF inside headers".into()));
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD {
            return Err(ReadError::Malformed("head too large".into()));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header {trimmed:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        if name == "content-length" && headers.contains_key(&name) {
            return Err(ReadError::Malformed("repeated content-length".into()));
        }
        headers.insert(name, value.trim().to_string());
    }

    if headers.contains_key("transfer-encoding") {
        return Err(ReadError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    let declared = match headers.get("content-length") {
        None => 0,
        Some(v) if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed(format!("content-length {v} out of range")))?,
        Some(v) => return Err(ReadError::Malformed(format!("bad content-length {v:?}"))),
    };
    if declared > max_body {
        return Err(ReadError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; declared];
    stream.read_exact(&mut body)?;
    Ok((headers, body))
}

/// `read_line` with the head cap enforced per line as well, so one
/// endless unterminated line cannot balloon memory.
fn read_line_limited<S: BufRead>(stream: &mut S, line: &mut String) -> Result<usize, ReadError> {
    let read = stream
        .by_ref()
        .take(MAX_HEAD as u64 + 1)
        .read_line(line)
        .map_err(ReadError::Io)?;
    if read > MAX_HEAD {
        return Err(ReadError::Malformed("header line too large".into()));
    }
    Ok(read)
}

/// Reason phrases for the statuses the protocol uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one response. `content_type` names the body encoding
/// (`application/json` for every protocol endpoint; the Prometheus
/// text exposition on `/metrics` uses `text/plain; version=0.0.4`).
/// `retry_after` adds a `Retry-After` header (whole seconds, rounded
/// up) on shed responses.
pub fn write_response<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
    retry_after: Option<std::time::Duration>,
) -> std::io::Result<()> {
    let mut reply = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    if let Some(after) = retry_after {
        // Ceiling, not floor: `as_secs()` truncates, so a sub-second
        // backoff (or 1.5 s) would round *down* and tell clients to
        // retry sooner than the precise Duration in the Reply — 0 even,
        // which some clients treat as "immediately". Never advertise
        // less wait than was asked for.
        let secs = after.as_secs() + u64::from(after.subsec_nanos() != 0);
        reply.push_str(&format!("retry-after: {}\r\n", secs.max(1)));
    }
    if close {
        reply.push_str("connection: close\r\n");
    }
    reply.push_str("\r\n");
    // Head and body in one buffer, one write: on an unbuffered
    // `TCP_NODELAY` socket two writes leave as two segments.
    reply.push_str(body);
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

/// One parsed HTTP response (client side).
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, keys lowercased.
    pub headers: BTreeMap<String, String>,
    /// Raw body.
    pub body: Vec<u8>,
}

impl Response {
    /// Whether the server will drop the connection after this exchange.
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Reads one response from a buffered stream (client side).
pub fn read_response<S: BufRead>(stream: &mut S, max_body: usize) -> Result<Response, ReadError> {
    let mut line = String::new();
    if read_line_limited(stream, &mut line)? == 0 {
        return Err(ReadError::Closed);
    }
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| ReadError::Malformed(format!("bad status {code:?}")))?,
        _ => return Err(ReadError::Malformed(format!("bad status line {line:?}"))),
    };
    let (headers, body) = read_headers_and_body(stream, &mut line, max_body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    fn parse_response(raw: &str) -> Result<Response, ReadError> {
        read_response(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn request_roundtrip() {
        let req =
            parse("POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"tau\":0.8}")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/estimate");
        assert_eq!(req.body, b"{\"tau\":0.8}");
        assert!(!req.wants_close());
        let req = parse("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
        assert!(matches!(
            parse("GARBAGE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(ReadError::BodyTooLarge { declared: 9999, .. })
        ));
    }

    #[test]
    fn repeated_content_length_is_refused() {
        assert!(matches!(
            parse(
                "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 11\r\n\r\n{\"tau\":0.8}"
            ),
            Err(ReadError::Malformed(_))
        ));
        // Equal values are refused too: the rule is "at most once".
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ncontent-length: 2\r\nCONTENT-LENGTH: 2\r\n\r\n{}"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse_response("HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 0\r\n\r\n{}"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn content_length_must_be_digits() {
        for value in [
            "+11",
            "-0",
            " ",
            "1_0",
            "0x0b",
            "11 11",
            "99999999999999999999999",
        ] {
            let request =
                format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{\"tau\":0.8}}");
            assert!(
                matches!(parse(&request), Err(ReadError::Malformed(_))),
                "request content-length {value:?}"
            );
            let response =
                format!("HTTP/1.1 200 OK\r\ncontent-length: {value}\r\n\r\n{{\"tau\":0.8}}");
            assert!(
                matches!(parse_response(&response), Err(ReadError::Malformed(_))),
                "response content-length {value:?}"
            );
        }
        assert_eq!(
            parse_response("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}")
                .unwrap()
                .body,
            b"{}"
        );
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            429,
            "application/json",
            "{\"error\":\"shed\"}",
            false,
            Some(std::time::Duration::from_millis(1500)),
        )
        .unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 2\r\n"), "1.5 s rounds up to 2");
        let resp = read_response(&mut BufReader::new(wire.as_slice()), 1024).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body, b"{\"error\":\"shed\"}");
        assert_eq!(resp.headers.get("retry-after").unwrap(), "2");
    }

    /// A reply is one write of head and body: on the server's unbuffered
    /// `TCP_NODELAY` socket each write would leave as its own segment.
    #[test]
    fn a_response_is_one_write() {
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut wire = Writes(Vec::new());
        write_response(&mut wire, 200, "application/json", "{\"ok\":1}", true, None).unwrap();
        assert_eq!(wire.0.len(), 1, "head and body in one write");
        let resp = read_response(&mut BufReader::new(wire.0[0].as_slice()), 1024).unwrap();
        assert_eq!(resp.body, b"{\"ok\":1}");
        assert!(resp.wants_close());
    }

    #[test]
    fn retry_after_rounds_up_and_clamps_to_one() {
        use std::time::Duration;
        let rendered = |after: Duration| -> String {
            let mut wire = Vec::new();
            write_response(&mut wire, 429, "application/json", "{}", false, Some(after)).unwrap();
            let resp = read_response(&mut BufReader::new(wire.as_slice()), 1024).unwrap();
            resp.headers.get("retry-after").unwrap().clone()
        };
        // Sub-second backoffs must never collapse to 0 on the wire.
        assert_eq!(rendered(Duration::from_millis(100)), "1");
        assert_eq!(rendered(Duration::ZERO), "1");
        // Fractional seconds round up, exact seconds stay exact.
        assert_eq!(rendered(Duration::from_millis(1500)), "2");
        assert_eq!(rendered(Duration::from_secs(2)), "2");
        assert_eq!(rendered(Duration::from_millis(2500)), "3");
    }

    mod hostile_input {
        use super::*;
        use crate::json::Json;
        use proptest::prelude::*;

        /// Well-formed exchanges of every protocol shape, the seeds the
        /// mutation test damages.
        const VALID: &[&str] = &[
            "POST /estimate HTTP/1.1\r\nhost: vsj\r\ncontent-length: 21\r\n\r\n{\"tau\":0.8,\"ci\":true}",
            "POST /insert HTTP/1.1\r\ncontent-length: 23\r\n\r\n{\"members\":[1,2,30000]}",
            "POST /upsert HTTP/1.1\r\ncontent-length: 44\r\n\r\n{\"id\":7,\"indices\":[4,9],\"weights\":[0.5,1e3]}",
            "GET /stats HTTP/1.1\r\nconnection: close\r\n\r\n",
            "HTTP/1.1 429 Too Many Requests\r\nretry-after: 2\r\ncontent-length: 16\r\n\r\n{\"error\":\"shed\"}",
        ];

        /// Feeds `bytes` to every reader the server and client expose
        /// to the wire; none may panic, whatever the bytes are.
        fn read_everything(bytes: &[u8]) {
            if let Ok(request) = read_request(&mut BufReader::new(bytes), 1 << 12) {
                let _ = Json::parse(&String::from_utf8_lossy(&request.body));
            }
            if let Ok(response) = read_response(&mut BufReader::new(bytes), 1 << 12) {
                let _ = Json::parse(&String::from_utf8_lossy(&response.body));
            }
            let _ = Json::parse(&String::from_utf8_lossy(bytes));
        }

        fn any_byte() -> impl Strategy<Value = u8> {
            (0u32..256).prop_map(|b| b as u8)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any_byte(), 0..4097)) {
                read_everything(&bytes);
            }

            #[test]
            fn mutated_valid_exchanges_never_panic(
                seed in 0usize..VALID.len(),
                edits in proptest::collection::vec((0usize..256, any_byte(), 0u32..3), 1..8),
            ) {
                let mut bytes = VALID[seed].as_bytes().to_vec();
                for (at, byte, op) in edits {
                    let at = at % (bytes.len() + 1);
                    match op {
                        0 if at < bytes.len() => bytes[at] = byte,
                        1 => bytes.insert(at, byte),
                        _ if at < bytes.len() => {
                            bytes.remove(at);
                        }
                        _ => bytes.push(byte),
                    }
                }
                read_everything(&bytes);
            }
        }

        #[test]
        fn seeds_are_valid() {
            for raw in &VALID[..4] {
                let request = read_request(&mut BufReader::new(raw.as_bytes()), 1 << 12).unwrap();
                if !request.body.is_empty() {
                    Json::parse(std::str::from_utf8(&request.body).unwrap()).unwrap();
                }
            }
            let response =
                read_response(&mut BufReader::new(VALID[4].as_bytes()), 1 << 12).unwrap();
            assert_eq!(response.status, 429);
        }
    }
}
