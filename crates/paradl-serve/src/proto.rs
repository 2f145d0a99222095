//! The wire protocol: length-prefixed, checksummed JSON frames carrying
//! unified queries.
//!
//! A frame is a 12-byte header — a 4-byte big-endian `u32` payload length
//! followed by an 8-byte big-endian FNV-1a checksum of the payload — then
//! that many bytes of UTF-8 JSON (rendered compactly by
//! `paradl_core::jsonio`). The checksum is what turns in-flight byte
//! corruption into a *detected* transport error (connection dropped, client
//! retries) instead of a silently different answer; the chaos suite's
//! zero-corruption floor rests on it. The request schema is a thin envelope
//! around [`Query::to_json`]; the response envelope carries the
//! [`paradl_core::query::QueryAnswer`] JSON verbatim, which is what makes
//! served answers byte-comparable to local ones.
//!
//! Everything on the daemon's input path returns `Result` rather than
//! panicking: a malformed frame costs the sender an error response (or, for
//! framing-level damage, the connection), never the daemon. Error responses
//! carry an [`ErrorKind`] so clients can tell retryable transport damage
//! from fatal request problems.

use paradl_core::jsonio::Json;
use paradl_core::model::Model;
use paradl_core::query::Query;
use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload, in bytes (16 MiB). A full-rank
/// answer over a large budget can be big, but nothing legitimate approaches
/// this; length prefixes above it are treated as protocol damage.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Size of the frame header: 4-byte length + 8-byte payload checksum.
pub const HEADER_LEN: usize = 12;

/// FNV-1a 64-bit hash of `bytes` — the frame payload checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The outcome of one [`read_frame`] attempt on a polled stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The read timed out before the first byte of a frame — nothing was
    /// consumed, the stream is still synchronized. Poll again.
    Idle,
    /// The peer closed the connection cleanly between frames.
    Eof,
}

enum ReadFull {
    Done,
    IdleAtStart,
    EofAtStart,
}

fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    idle_ok: bool,
    keep_going: &mut impl FnMut() -> bool,
) -> io::Result<ReadFull> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && idle_ok {
                    return Ok(ReadFull::EofAtStart);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if filled == 0 && idle_ok {
                    return Ok(ReadFull::IdleAtStart);
                }
                // Mid-frame: keep polling while the caller wants to live.
                if !keep_going() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "shutdown while reading a frame",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadFull::Done)
}

/// Reads one frame from `r`, tolerating read timeouts.
///
/// A timeout before the first header byte returns [`FrameRead::Idle`] (the
/// stream is untouched); a timeout *mid-frame* retries as long as
/// `keep_going()` holds, then errors. A length prefix above `max`, or a
/// payload whose checksum does not match the header, is an `InvalidData`
/// error — the stream cannot be resynchronized after either.
pub fn read_frame(
    r: &mut impl Read,
    max: usize,
    mut keep_going: impl FnMut() -> bool,
) -> io::Result<FrameRead> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header, true, &mut keep_going)? {
        ReadFull::Done => {}
        ReadFull::IdleAtStart => return Ok(FrameRead::Idle),
        ReadFull::EofAtStart => return Ok(FrameRead::Eof),
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
    let expected = u64::from_be_bytes(header[4..].try_into().expect("8-byte slice"));
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, false, &mut keep_going)?;
    let actual = checksum(&payload);
    if actual != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch (header {expected:#018x}, payload {actual:#018x})"),
        ));
    }
    Ok(FrameRead::Frame(payload))
}

/// Writes one frame (header + payload) and flushes. Refuses payloads above
/// `max` so an oversized response surfaces as an error on the producing
/// side instead of protocol damage on the consuming one.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> io::Result<()> {
    if payload.len() > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the {max}-byte cap", payload.len()),
        ));
    }
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&checksum(payload).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Request / response envelopes.
// ---------------------------------------------------------------------------

/// A client request: one oracle query, or a control operation.
// A Request exists only for the instant between frame decode and dispatch,
// so the query variant's size is not worth a Box indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer a unified query, optionally abandoning it after `deadline_ms`
    /// milliseconds of queueing (measured from receipt).
    Query {
        /// The query (model by name, config and cluster inline).
        query: Query,
        /// Relative deadline in milliseconds; `None` waits indefinitely.
        deadline_ms: Option<u64>,
    },
    /// Liveness probe.
    Ping,
    /// Fetch server-side counters and cache statistics.
    Stats,
    /// Begin a graceful shutdown: queued queries drain, new ones are
    /// refused.
    Shutdown,
}

impl Request {
    /// Serializes the request envelope. Errors when a query is missing its
    /// workload (model/config/cluster), mirroring [`Query::to_json`].
    pub fn to_json(&self) -> Result<Json, String> {
        Ok(match self {
            Request::Query { query, deadline_ms } => {
                let mut fields = vec![("op", Json::str("query")), ("query", query.to_json()?)];
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms", Json::count(*ms as usize)));
                }
                Json::obj(fields)
            }
            Request::Ping => Json::obj([("op", Json::str("ping"))]),
            Request::Stats => Json::obj([("op", Json::str("stats"))]),
            Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
        })
    }

    /// Parses a request envelope; `resolve` maps model names to models
    /// (the daemon passes [`crate::resolve::resolve_model`]). Never panics.
    pub fn from_json(
        json: &Json,
        resolve: &dyn Fn(&str) -> Option<Model>,
    ) -> Result<Request, String> {
        match json.get("op").and_then(Json::string) {
            Some("query") => {
                let body = json.get("query").ok_or("query op missing query body")?;
                let query = Query::from_json(body, resolve)?;
                let deadline_ms = match json.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        Some(v.usize().ok_or("deadline_ms must be a non-negative integer")? as u64)
                    }
                };
                Ok(Request::Query { query, deadline_ms })
            }
            Some("ping") => Ok(Request::Ping),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown op {other:?}")),
            None => Err("request missing op".to_string()),
        }
    }
}

/// Per-answer serving statistics, reported alongside every `ok` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnswerStats {
    /// Whether the engine core for this query's validity class was already
    /// cached when the batch was dispatched.
    pub cache_hit: bool,
    /// How many in-flight requests shared the batch this answer came from
    /// (1 = no coalescing happened).
    pub coalesced: usize,
    /// How many distinct grid cells the shared sweep evaluated.
    pub batch_cells: usize,
    /// Time the request spent queued before evaluation began, in µs.
    pub queue_us: u64,
    /// Time the (possibly shared) evaluation took, in µs.
    pub eval_us: u64,
    /// How many rungs of the degradation ladder the server stepped this
    /// query down under overload (0 = answered at the requested depth,
    /// 1 = ranked depth capped at top-10, 2 = downgraded to a suggestion).
    pub degraded: usize,
    /// How many candidates the evaluation kernel actually costed for this
    /// answer's cell (enumerated minus every pruning class). Zero for
    /// answer kinds that carry no search report.
    pub candidates_evaluated: usize,
    /// How many enumerated candidates were pruned before costing (memory +
    /// static dominance + dynamic bound). Zero for answer kinds that carry
    /// no search report.
    pub candidates_pruned: usize,
}

impl AnswerStats {
    fn to_json(self) -> Json {
        Json::obj([
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("coalesced", Json::count(self.coalesced)),
            ("batch_cells", Json::count(self.batch_cells)),
            ("queue_us", Json::count(self.queue_us as usize)),
            ("eval_us", Json::count(self.eval_us as usize)),
            ("degraded", Json::count(self.degraded)),
            ("candidates_evaluated", Json::count(self.candidates_evaluated)),
            ("candidates_pruned", Json::count(self.candidates_pruned)),
        ])
    }

    fn from_json(json: &Json) -> Result<AnswerStats, String> {
        let field =
            |k: &str| json.get(k).and_then(Json::usize).ok_or_else(|| format!("stats missing {k}"));
        Ok(AnswerStats {
            cache_hit: json
                .get("cache_hit")
                .and_then(Json::boolean)
                .ok_or("stats missing cache_hit")?,
            coalesced: field("coalesced")?,
            batch_cells: field("batch_cells")?,
            queue_us: field("queue_us")? as u64,
            eval_us: field("eval_us")? as u64,
            degraded: field("degraded")?,
            candidates_evaluated: field("candidates_evaluated")?,
            candidates_pruned: field("candidates_pruned")?,
        })
    }
}

/// What class of failure an error response describes. The split that
/// matters operationally is [`ErrorKind::retryable`]: `Protocol` means the
/// *bytes* were damaged (the transport likely mangled an otherwise-fine
/// request, and nothing was evaluated), so resending is safe and likely to
/// succeed; everything else means the request itself is the problem and a
/// retry would only repeat the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame payload didn't decode (non-UTF-8, malformed JSON, bad
    /// envelope). Nothing was evaluated; a resend is idempotent.
    Protocol,
    /// The request decoded but is unanswerable (unknown op or model,
    /// invalid config or cluster). Retrying the same request cannot help.
    BadRequest,
    /// The answer exceeded the frame cap. Deterministic; not retryable.
    TooLarge,
    /// Evaluation failed inside the server (a contained panic, a dropped
    /// reply channel). The request is quarantined; not retryable, because
    /// the same input would panic again.
    Internal,
}

impl ErrorKind {
    /// Whether a client may safely resend the identical request.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorKind::Protocol)
    }

    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Result<ErrorKind, String> {
        match s {
            "protocol" => Ok(ErrorKind::Protocol),
            "bad_request" => Ok(ErrorKind::BadRequest),
            "too_large" => Ok(ErrorKind::TooLarge),
            "internal" => Ok(ErrorKind::Internal),
            other => Err(format!("unknown error kind {other:?}")),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query's answer (`QueryAnswer::to_json` verbatim) plus serving
    /// statistics.
    Answer {
        /// The answer document, byte-identical to a local
        /// `QueryAnswer::to_json()` for the same query.
        answer: Json,
        /// How the answer was produced.
        stats: AnswerStats,
    },
    /// The request could not be answered; `kind` says whether the fault was
    /// in the bytes (retryable) or the request (fatal).
    Error {
        /// Failure class — drives the client's retry decision.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The bounded queue was full; the request was not evaluated. Back off
    /// and retry.
    Shed,
    /// The request's deadline expired while it was queued; it was not
    /// evaluated.
    DeadlineExpired,
    /// The daemon is shutting down and no longer accepts queries.
    ShuttingDown,
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Stats`]: the server's counter document.
    ServerStats(Json),
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error { kind, message: message.into() }
    }

    /// Whether a client may safely resend the identical request after this
    /// response: queue shed and deadline expiry never evaluated anything,
    /// and protocol errors mean the bytes (not the request) were bad.
    pub fn retryable(&self) -> bool {
        match self {
            Response::Shed | Response::DeadlineExpired => true,
            Response::Error { kind, .. } => kind.retryable(),
            _ => false,
        }
    }

    /// Serializes the response envelope.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Answer { answer, stats } => Json::obj([
                ("status", Json::str("ok")),
                ("answer", answer.clone()),
                ("stats", stats.to_json()),
            ]),
            Response::Error { kind, message } => Json::obj([
                ("status", Json::str("error")),
                ("kind", Json::str(kind.as_str())),
                ("message", Json::str(message)),
            ]),
            Response::Shed => Json::obj([("status", Json::str("shed"))]),
            Response::DeadlineExpired => Json::obj([("status", Json::str("deadline"))]),
            Response::ShuttingDown => Json::obj([("status", Json::str("shutting_down"))]),
            Response::Pong => Json::obj([("status", Json::str("pong"))]),
            Response::ServerStats(stats) => {
                Json::obj([("status", Json::str("stats")), ("stats", stats.clone())])
            }
        }
    }

    /// Parses a response envelope. Never panics.
    pub fn from_json(json: &Json) -> Result<Response, String> {
        match json.get("status").and_then(Json::string) {
            Some("ok") => Ok(Response::Answer {
                answer: json.get("answer").ok_or("ok response missing answer")?.clone(),
                stats: AnswerStats::from_json(
                    json.get("stats").ok_or("ok response missing stats")?,
                )?,
            }),
            Some("error") => Ok(Response::Error {
                kind: ErrorKind::parse(
                    json.get("kind").and_then(Json::string).ok_or("error response missing kind")?,
                )?,
                message: json
                    .get("message")
                    .and_then(Json::string)
                    .ok_or("error response missing message")?
                    .to_string(),
            }),
            Some("shed") => Ok(Response::Shed),
            Some("deadline") => Ok(Response::DeadlineExpired),
            Some("shutting_down") => Ok(Response::ShuttingDown),
            Some("pong") => Ok(Response::Pong),
            Some("stats") => Ok(Response::ServerStats(
                json.get("stats").ok_or("stats response missing stats")?.clone(),
            )),
            Some(other) => Err(format!("unknown status {other:?}")),
            None => Err("response missing status".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradl_core::cluster::ClusterSpec;
    use paradl_core::config::TrainingConfig;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", MAX_FRAME).unwrap();
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, MAX_FRAME, || true).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"hello"),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut r, MAX_FRAME, || true).unwrap() {
            FrameRead::Frame(p) => assert!(p.is_empty()),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut r, MAX_FRAME, || true).unwrap() {
            FrameRead::Eof => {}
            other => panic!("expected eof, got {other:?}"),
        }
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        // Oversized length prefix (full 12-byte header).
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1024u32).to_be_bytes());
        buf.extend_from_slice(&0u64.to_be_bytes());
        buf.extend_from_slice(b"short");
        let mut r = Cursor::new(buf.clone());
        let err = read_frame(&mut r, 16, || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncated payload.
        let mut r = Cursor::new(buf);
        let err = read_frame(&mut r, MAX_FRAME, || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Oversized write is refused on the sending side too.
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &[0u8; 32], 16).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn corrupted_frames_fail_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"an important payload", MAX_FRAME).unwrap();
        // Flip one payload byte: the checksum in the header no longer
        // matches, so the read must fail with InvalidData — this is the
        // property that turns in-flight corruption into a retryable
        // transport error instead of a silently different answer.
        for at in HEADER_LEN..buf.len() {
            let mut damaged = buf.clone();
            damaged[at] ^= 0x01;
            let err = read_frame(&mut Cursor::new(damaged), MAX_FRAME, || true).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {at}");
        }
        // A flipped checksum byte is equally fatal.
        let mut damaged = buf.clone();
        damaged[7] ^= 0x80;
        let err = read_frame(&mut Cursor::new(damaged), MAX_FRAME, || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The pristine frame still reads fine.
        match read_frame(&mut Cursor::new(buf), MAX_FRAME, || true).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"an important payload"),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    fn sample_query() -> Query {
        Query::top_k(5)
            .with_model(paradl_models::alexnet())
            .with_config(TrainingConfig::imagenet(256))
            .with_cluster(ClusterSpec::workstation(8))
    }

    #[test]
    fn request_envelopes_round_trip() {
        let resolve = |name: &str| crate::resolve::resolve_model(name);
        for request in [
            Request::Query { query: sample_query(), deadline_ms: Some(250) },
            Request::Query { query: sample_query(), deadline_ms: None },
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
        ] {
            let rendered = request.to_json().unwrap().render();
            let back = Request::from_json(&Json::parse(&rendered).unwrap(), &resolve).unwrap();
            assert_eq!(back, request);
        }
        assert!(Request::from_json(&Json::parse("{}").unwrap(), &resolve).is_err());
        assert!(Request::from_json(&Json::parse(r#"{"op":"explode"}"#).unwrap(), &resolve).is_err());
    }

    #[test]
    fn response_envelopes_round_trip() {
        let stats = AnswerStats {
            cache_hit: true,
            coalesced: 4,
            batch_cells: 2,
            queue_us: 120,
            eval_us: 4500,
            degraded: 1,
            candidates_evaluated: 1234,
            candidates_pruned: 567,
        };
        for response in [
            Response::Answer { answer: Json::obj([("kind", Json::str("ranked"))]), stats },
            Response::error(ErrorKind::Protocol, "mangled"),
            Response::error(ErrorKind::BadRequest, "nope"),
            Response::error(ErrorKind::TooLarge, "answer over the frame cap"),
            Response::error(ErrorKind::Internal, "evaluation panicked"),
            Response::Shed,
            Response::DeadlineExpired,
            Response::ShuttingDown,
            Response::Pong,
            Response::ServerStats(Json::obj([("served", Json::count(7))])),
        ] {
            let rendered = response.to_json().render();
            let back = Response::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(back, response);
        }
        assert!(Response::from_json(&Json::parse(r#"{"status":"??"}"#).unwrap()).is_err());
    }

    #[test]
    fn only_transport_level_outcomes_are_retryable() {
        assert!(Response::Shed.retryable());
        assert!(Response::DeadlineExpired.retryable());
        assert!(Response::error(ErrorKind::Protocol, "x").retryable());
        assert!(!Response::error(ErrorKind::BadRequest, "x").retryable());
        assert!(!Response::error(ErrorKind::TooLarge, "x").retryable());
        assert!(!Response::error(ErrorKind::Internal, "x").retryable());
        assert!(!Response::ShuttingDown.retryable());
        assert!(!Response::Pong.retryable());
    }
}
