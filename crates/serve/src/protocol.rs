//! The wire protocol: newline-delimited JSON framing over a byte
//! stream, a typed [`JsonError`] for malformed input, and the
//! [`Response`] envelope every request is answered with.
//!
//! One request per line, one response per line. Responses carry the
//! request's `id`, so a client may pipeline requests and match replies
//! out of order. A line that fails to decode is answered with a
//! [`RejectKind::Protocol`] rejection (never a dropped connection, a
//! panic or a hang), echoing the `id` when one can be salvaged from the
//! malformed line.
//!
//! Protocol **v2** adds one streaming request shape: a `sweep` command
//! (sent with `"proto": 2`) is answered not with a single response line
//! but with a framed stream of [`StreamEvent`] lines — `progress`, one
//! `point`/`error` per grid point, and a terminal `done` — each carrying
//! the request's `id` (and, for per-point events, the point `index` in
//! the sweep's deterministic scenario-major order). Event lines are
//! distinguished from v1 responses by `"status": "event"`, so a v1
//! client that never sends a sweep never sees one; [`decode_message`]
//! decodes either shape.

use m3d_flow::{FlowReport, FlowRequest};
pub use m3d_json::JsonError;

use m3d_json::{decode, parse_borrowed, Cur, DecodeError, FromJson, Obj, ToJson, Value};
use std::fmt;

/// Why the service rejected a request (the `kind` of a rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// The line was not a well-formed request: bad JSON, or JSON of the
    /// wrong shape.
    Protocol,
    /// The flow itself failed (invalid netlist, bad frequency, stage
    /// error).
    Flow,
    /// The queue was at capacity; the request was never accepted.
    /// Back off and retry.
    Overloaded,
    /// The request sat in the queue past its deadline and was dropped
    /// without running.
    Deadline,
    /// The server is draining and accepts no new work.
    Shutdown,
}

impl RejectKind {
    fn wire_name(self) -> &'static str {
        match self {
            RejectKind::Protocol => "protocol",
            RejectKind::Flow => "flow",
            RejectKind::Overloaded => "overloaded",
            RejectKind::Deadline => "deadline",
            RejectKind::Shutdown => "shutdown",
        }
    }

    fn from_wire(cur: &Cur<'_, '_>) -> Result<RejectKind, DecodeError> {
        match cur.str()? {
            "protocol" => Ok(RejectKind::Protocol),
            "flow" => Ok(RejectKind::Flow),
            "overloaded" => Ok(RejectKind::Overloaded),
            "deadline" => Ok(RejectKind::Deadline),
            "shutdown" => Ok(RejectKind::Shutdown),
            _ => Err(cur.err("a reject kind (protocol|flow|overloaded|deadline|shutdown)")),
        }
    }
}

impl fmt::Display for RejectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// One response line: either the command's report, or a typed
/// rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request ran to completion.
    Ok {
        /// Echo of the request's correlation id.
        id: u64,
        /// Whether the checkpoint cache already held a session for the
        /// request's `(netlist fingerprint, pseudo read-set)` — built
        /// by this request's options or by any that agree on that set.
        cache_hit: bool,
        /// The command's result (boxed: a report dwarfs a rejection).
        report: Box<FlowReport>,
    },
    /// The request was rejected (or failed).
    Rejected {
        /// Echo of the request's id, when one was decodable.
        id: Option<u64>,
        /// Why.
        kind: RejectKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Builds a rejection.
    #[must_use]
    pub fn reject(id: Option<u64>, kind: RejectKind, message: impl Into<String>) -> Response {
        Response::Rejected {
            id,
            kind,
            message: message.into(),
        }
    }

    /// The correlation id, when known.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        match self {
            Response::Ok { id, .. } => Some(*id),
            Response::Rejected { id, .. } => *id,
        }
    }

    /// Whether this is a successful response.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok { .. })
    }

    /// The rejection kind, when rejected.
    #[must_use]
    pub fn reject_kind(&self) -> Option<RejectKind> {
        match self {
            Response::Ok { .. } => None,
            Response::Rejected { kind, .. } => Some(*kind),
        }
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Value<'_> {
        match self {
            Response::Ok {
                id,
                cache_hit,
                report,
            } => Obj::new()
                .put("id", *id)
                .put("status", "ok")
                .put("cache_hit", *cache_hit)
                .put("report", report.to_json())
                .build(),
            Response::Rejected { id, kind, message } => {
                let mut o = Obj::new();
                if let Some(id) = id {
                    o = o.put("id", *id);
                }
                o.put("status", "rejected")
                    .put("kind", kind.wire_name())
                    .put("message", message.as_str())
                    .build()
            }
        }
    }
}

impl FromJson for Response {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        let status = cur.get("status")?;
        match status.str()? {
            "ok" => Ok(Response::Ok {
                id: cur.get("id")?.u64()?,
                cache_hit: cur.get("cache_hit")?.bool()?,
                report: Box::new(FlowReport::from_json(&cur.get("report")?)?),
            }),
            "rejected" => Ok(Response::Rejected {
                id: cur.opt("id").map(|c| c.u64()).transpose()?,
                kind: RejectKind::from_wire(&cur.get("kind")?)?,
                message: cur.get("message")?.str()?.to_string(),
            }),
            _ => Err(status.err("a status (ok|rejected)")),
        }
    }
}

/// One event line in a protocol-v2 sweep stream. Every event carries
/// the originating request's `id`; per-point events add the point's
/// `index` in the sweep's deterministic scenario-major order.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// Emitted once, before any point: the sweep was admitted and will
    /// produce `total` per-point events followed by `done`.
    Progress {
        /// Echo of the sweep request's id.
        id: u64,
        /// Number of grid points the sweep decomposes into.
        total: u64,
    },
    /// One grid point completed.
    Point {
        /// Echo of the sweep request's id.
        id: u64,
        /// The point's index in scenario-major order.
        index: u64,
        /// Whether the point's scenario session was already cached.
        cache_hit: bool,
        /// The point's flow report (a `run` report).
        report: Box<FlowReport>,
    },
    /// One grid point failed; the rest of the sweep continues.
    Error {
        /// Echo of the sweep request's id.
        id: u64,
        /// The point's index in scenario-major order.
        index: u64,
        /// Why, using the same taxonomy as v1 rejections.
        kind: RejectKind,
        /// Human-readable detail.
        message: String,
    },
    /// Terminal event: every point is accounted for. After `done`,
    /// no further event with this `id` will arrive.
    Done {
        /// Echo of the sweep request's id.
        id: u64,
        /// Points that completed and streamed a `point` event.
        points: u64,
        /// Points that failed and streamed an `error` event.
        errors: u64,
    },
}

impl StreamEvent {
    /// The originating request's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            StreamEvent::Progress { id, .. }
            | StreamEvent::Point { id, .. }
            | StreamEvent::Error { id, .. }
            | StreamEvent::Done { id, .. } => *id,
        }
    }

    /// Whether this is the stream's terminal event.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, StreamEvent::Done { .. })
    }
}

impl ToJson for StreamEvent {
    fn to_json(&self) -> Value<'_> {
        let o = Obj::new();
        match self {
            StreamEvent::Progress { id, total } => o
                .put("id", *id)
                .put("status", "event")
                .put("event", "progress")
                .put("total", *total)
                .build(),
            StreamEvent::Point {
                id,
                index,
                cache_hit,
                report,
            } => o
                .put("id", *id)
                .put("status", "event")
                .put("event", "point")
                .put("index", *index)
                .put("cache_hit", *cache_hit)
                .put("report", report.to_json())
                .build(),
            StreamEvent::Error {
                id,
                index,
                kind,
                message,
            } => o
                .put("id", *id)
                .put("status", "event")
                .put("event", "error")
                .put("index", *index)
                .put("kind", kind.wire_name())
                .put("message", message.as_str())
                .build(),
            StreamEvent::Done { id, points, errors } => o
                .put("id", *id)
                .put("status", "event")
                .put("event", "done")
                .put("points", *points)
                .put("errors", *errors)
                .build(),
        }
    }
}

impl FromJson for StreamEvent {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        let id = cur.get("id")?.u64()?;
        let event = cur.get("event")?;
        match event.str()? {
            "progress" => Ok(StreamEvent::Progress {
                id,
                total: cur.get("total")?.u64()?,
            }),
            "point" => Ok(StreamEvent::Point {
                id,
                index: cur.get("index")?.u64()?,
                cache_hit: cur.get("cache_hit")?.bool()?,
                report: Box::new(FlowReport::from_json(&cur.get("report")?)?),
            }),
            "error" => Ok(StreamEvent::Error {
                id,
                index: cur.get("index")?.u64()?,
                kind: RejectKind::from_wire(&cur.get("kind")?)?,
                message: cur.get("message")?.str()?.to_string(),
            }),
            "done" => Ok(StreamEvent::Done {
                id,
                points: cur.get("points")?.u64()?,
                errors: cur.get("errors")?.u64()?,
            }),
            _ => Err(event.err("an event (progress|point|error|done)")),
        }
    }
}

/// Anything the server can put on the wire: a v1 [`Response`], or a v2
/// sweep [`StreamEvent`]. The `status` field discriminates.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// A single-shot response (or rejection).
    Response(Response),
    /// One event of a sweep stream.
    Event(StreamEvent),
}

impl ServerMessage {
    /// The correlation id, when known.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        match self {
            ServerMessage::Response(r) => r.id(),
            ServerMessage::Event(e) => Some(e.id()),
        }
    }
}

impl ToJson for ServerMessage {
    fn to_json(&self) -> Value<'_> {
        match self {
            ServerMessage::Response(r) => r.to_json(),
            ServerMessage::Event(e) => e.to_json(),
        }
    }
}

impl FromJson for ServerMessage {
    fn from_json(cur: &Cur<'_, '_>) -> Result<Self, DecodeError> {
        let status = cur.get("status")?;
        match status.str()? {
            "event" => Ok(ServerMessage::Event(StreamEvent::from_json(cur)?)),
            _ => Ok(ServerMessage::Response(Response::from_json(cur)?)),
        }
    }
}

/// Decodes one request line on the zero-copy path: the JSON tree
/// borrows its strings from `line`, and a well-formed request decodes
/// without a single per-field allocation.
///
/// # Errors
///
/// Returns a [`JsonError`] for anything that is not a well-formed
/// [`FlowRequest`]: [`JsonError::Parse`] for a line that is not JSON,
/// [`JsonError::Decode`] for JSON of the wrong shape. Decoding never
/// panics. Errors (and only errors) allocate their path/message strings.
pub fn decode_request(line: &str) -> Result<FlowRequest, JsonError> {
    decode(line)
}

/// Best-effort extraction of the `id` field from a line that failed to
/// decode, so its rejection can still be correlated.
#[must_use]
pub fn salvage_id(line: &str) -> Option<u64> {
    parse_borrowed(line)
        .ok()
        .and_then(|v| v.get("id")?.as_u64())
}

/// What a front does with one framed line: the decoded request, or the
/// `protocol` rejection (carrying whatever `id` could be salvaged) a
/// malformed line is answered with.
pub(crate) fn decode_or_reject(line: &str) -> Result<FlowRequest, Response> {
    decode_request(line).map_err(|e| {
        let message = match e {
            JsonError::Parse(msg) => format!("request is not JSON: {msg}"),
            JsonError::Decode(err) => format!("request is not a FlowRequest: {err}"),
        };
        Response::reject(salvage_id(line), RejectKind::Protocol, message)
    })
}

/// Decodes one response line — the client side of the wire, on the same
/// cursor as [`decode_request`].
///
/// # Errors
///
/// Returns the parse or shape error as text.
pub fn decode_response(line: &str) -> Result<Response, String> {
    decode_line(line)
}

/// Decodes one server line of either protocol shape: a v1 response or a
/// v2 sweep event. Clients that mix single-shot and sweep requests on
/// one connection read everything through this.
///
/// # Errors
///
/// Returns the parse or shape error as text.
pub fn decode_message(line: &str) -> Result<ServerMessage, String> {
    decode_line(line)
}

/// Client-side line decode: errors flatten to the text a client prints
/// (the parser's message, or `path: expected ...`).
fn decode_line<T: FromJson>(line: &str) -> Result<T, String> {
    decode(line.trim()).map_err(|e| match e {
        JsonError::Parse(msg) => msg,
        JsonError::Decode(err) => err.to_string(),
    })
}

/// Renders one value as a protocol line (JSON + trailing newline).
#[must_use]
pub fn encode_line<T: ToJson>(value: &T) -> String {
    let mut line = value.to_json().render();
    line.push('\n');
    line
}
