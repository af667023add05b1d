//! The Web-Service layer shared by every proxy and the master node.
//!
//! Requests are REST-shaped — a method, a path, query parameters and a
//! common-data-format body — serialized in the client's chosen open
//! format (JSON or XML, one marker byte ahead of the text) and carried by
//! the [`simnet::rpc`] request/response framing. Servers route paths
//! against [`PathPattern`]s with `{param}` captures.
//!
//! The envelopes are typed drivers of the common-format codec (see
//! [`dimmer_core::codec`]): they are written around the body and read by
//! handing the body's events to a body reader, so a body is never copied
//! into or out of an envelope tree. [`WsResponse`] carries a [`Value`]
//! body; [`encode_response`] and [`decode_response`] take any other
//! typed body (a measurement batch straight from stored points, say).

use std::cell::Cell;
use std::ops::Index;

use dimmer_core::codec::{DataFormat, Reader, Scalar, Shaped, Writer};
use dimmer_core::value::Text;
use dimmer_core::{CoreError, Value};
use simnet::rpc::{self, RequestTracker, RpcFrame, Settled};
use simnet::{Context, NodeId, Packet, SimDuration, TimerTag};

use crate::WS_PORT;

/// Default request timeout.
pub(crate) const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Default retry count.
pub(crate) const REQUEST_RETRIES: u32 = 2;

/// Common status codes.
pub mod status {
    /// Success.
    pub const OK: u16 = 200;
    /// Malformed request.
    pub const BAD_REQUEST: u16 = 400;
    /// Unknown path or resource.
    pub const NOT_FOUND: u16 = 404;
    /// The server failed internally.
    pub const INTERNAL_ERROR: u16 = 500;
    /// The server is shedding load; retry after the advertised delay.
    pub(crate) const SERVICE_UNAVAILABLE: u16 = 503;

    /// True for 2xx statuses.
    pub fn is_success(status: u16) -> bool {
        (200..300).contains(&status)
    }
}

/// The request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Method {
    /// Retrieve data.
    #[default]
    Get,
    /// Mutate state (registration, actuation).
    Post,
}

impl Method {
    /// The canonical name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }

    /// Parses a canonical name.
    fn parse(s: &str) -> Option<Self> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

/// A Web-Service request.
#[derive(Debug, Clone, PartialEq)]
pub struct WsRequest {
    /// The method.
    pub method: Method,
    /// The path, starting with `/`; inline when short.
    pub path: Text,
    /// Query parameters, sorted by name, no name twice. Names and values
    /// of up to 22 bytes are stored inline, so a decoded `/data` request
    /// allocates once for all of its parameters.
    pub(crate) query: Vec<(Text, Text)>,
    /// The body in the common data format (often `Null` for GET).
    pub body: Value,
    /// The open format this request (and its response) is encoded in.
    pub format: DataFormat,
}

impl WsRequest {
    /// A GET request for `path`.
    pub fn get(path: impl AsRef<str>) -> Self {
        WsRequest {
            method: Method::Get,
            path: path.as_ref().into(),
            query: Vec::new(),
            body: Value::Null,
            format: DataFormat::Json,
        }
    }

    /// A POST request for `path` carrying `body`.
    pub fn post(path: impl AsRef<str>, body: Value) -> Self {
        WsRequest {
            method: Method::Post,
            path: path.as_ref().into(),
            query: Vec::new(),
            body,
            format: DataFormat::Json,
        }
    }

    /// Adds a query parameter, replacing an earlier value of `key`.
    pub fn with_query(mut self, key: impl Into<Text>, value: impl Into<Text>) -> Self {
        set_param(&mut self.query, key.into(), value.into());
        self
    }

    /// Selects the open format (JSON default).
    pub fn with_format(mut self, format: DataFormat) -> Self {
        self.format = format;
        self
    }

    /// A query parameter.
    pub fn query(&self, key: &str) -> Option<&str> {
        let i = find_param(&self.query, key).ok()?;
        Some(&self.query[i].1)
    }

    /// Serializes into `out`: one format byte, then the envelope in that
    /// format.
    pub(crate) fn write(&self, out: &mut String) {
        write_envelope(self.format, out, |w| {
            w.begin_object();
            w.key("body");
            w.value(&self.body);
            w.key("method");
            w.str(self.method.as_str());
            w.key("path");
            w.str(&self.path);
            w.key("query");
            w.begin_object();
            for (k, v) in &self.query {
                w.key(k);
                w.str(v);
            }
            w.end_object();
            w.end_object();
        })
    }

    /// Deserializes bytes produced by [`WsRequest::write`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an unknown marker or malformed envelope.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        const T: &str = "ws request";
        let (format, text) = split_marker(bytes)?;
        let mut r = Reader::new(format, text);
        let (mut method, mut path) = (Scalar::Missing, Scalar::Missing);
        let mut query = None;
        let mut body = Value::Null;
        if r.begin_object()? {
            while let Some(key) = r.next_key()? {
                match &*key {
                    "method" => method = Scalar::read(&mut r)?,
                    "path" => path = Scalar::read(&mut r)?,
                    "query" => query = Some(read_query(&mut r)?),
                    "body" => body = r.value()?,
                    _ => r.skip_value()?,
                }
            }
        }
        r.finish()?;
        let method =
            Method::parse(method.require_str(T, "method")?).ok_or_else(|| CoreError::Shape {
                target: T,
                reason: "unknown method".into(),
            })?;
        let query = query.ok_or_else(|| CoreError::Shape {
            target: T,
            reason: "missing member \"query\"".into(),
        })??;
        Ok(WsRequest {
            method,
            path: path.require_str(T, "path")?.into(),
            query,
            body,
            format,
        })
    }
}

/// Where parameter `key` is in a sorted parameter list, or where it
/// would go.
fn find_param(query: &[(Text, Text)], key: &str) -> Result<usize, usize> {
    query.binary_search_by(|(k, _)| k.as_str().cmp(key))
}

/// Sets parameter `key` of a sorted parameter list; the last value wins.
fn set_param(query: &mut Vec<(Text, Text)>, key: Text, value: Text) {
    match find_param(query, &key) {
        Ok(i) => query[i].1 = value,
        Err(i) => query.insert(i, (key, value)),
    }
}

/// Reads the `query` member of a request envelope: an object of strings
/// (anything but an object reads as no parameters).
fn read_query(r: &mut Reader<'_>) -> Result<Shaped<Vec<(Text, Text)>>, CoreError> {
    let mut query = Vec::new();
    // Keys whose last occurrence so far was not a string.
    let mut ill_typed: Vec<Text> = Vec::new();
    if r.begin_object()? {
        while let Some(key) = r.next_key()? {
            ill_typed.retain(|k| **k != *key);
            match Scalar::read(r)? {
                Scalar::Str(value) => set_param(&mut query, key.into(), value.into()),
                // The query is ill-shaped unless a later string replaces
                // this value, so the stale one it leaves never shows.
                _ => ill_typed.push(key.into()),
            }
        }
    }
    Ok(if ill_typed.is_empty() {
        Ok(query)
    } else {
        Err(CoreError::Shape {
            target: "ws request",
            reason: "query values must be strings".into(),
        })
    })
}

/// A Web-Service response.
#[derive(Debug, Clone, PartialEq)]
pub struct WsResponse {
    /// The status code.
    pub status: u16,
    /// The body in the common data format.
    pub body: Value,
}

impl WsResponse {
    /// A 200 response with `body`.
    pub fn ok(body: Value) -> Self {
        WsResponse {
            status: status::OK,
            body,
        }
    }

    /// An error response carrying a `{error: reason}` body.
    pub fn error(status: u16, reason: impl Into<String>) -> Self {
        WsResponse {
            status,
            body: Value::object([("error", Value::from(reason.into()))]),
        }
    }

    /// A cheap 503 shed response advertising when to retry. The body
    /// carries only the reason and the `retry_after_ms` hint, so an
    /// overloaded server answers in a handful of bytes.
    pub fn unavailable(retry_after: SimDuration) -> Self {
        WsResponse {
            status: status::SERVICE_UNAVAILABLE,
            body: Value::object([
                ("error", Value::from("overloaded")),
                (
                    "retry_after_ms",
                    Value::from(retry_after.as_millis_f64().ceil() as i64),
                ),
            ]),
        }
    }

    /// True when the server shed this request at admission.
    pub fn is_shed(&self) -> bool {
        self.status == status::SERVICE_UNAVAILABLE
    }

    /// True for 2xx statuses.
    pub fn is_ok(&self) -> bool {
        status::is_success(self.status)
    }

    /// Serializes in `format` (the request's format).
    pub fn to_bytes(&self, format: DataFormat) -> Vec<u8> {
        encode_response(self.status, format, |w| w.value(&self.body))
    }

    /// Deserializes bytes produced by [`WsResponse::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an unknown marker or malformed envelope.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let (status, body) = decode_response(bytes, |r| r.value().map(Ok))?;
        Ok(WsResponse {
            status,
            body: body.unwrap_or(Value::Null),
        })
    }
}

/// Serializes a response in `format` around the body that `write_body`
/// emits — the bytes [`WsResponse::to_bytes`] gives for that body as a
/// [`Value`], without the tree.
pub fn encode_response(
    status: u16,
    format: DataFormat,
    write_body: impl FnOnce(&mut Writer<'_>),
) -> Vec<u8> {
    encode_envelope(format, |w| {
        w.begin_object();
        w.key("body");
        write_body(w);
        w.key("status");
        w.int(i64::from(status));
        w.end_object();
    })
}

/// Deserializes a response, leaving the body to `read_body` (a typed
/// reader such as `MeasurementBatch::read`). Returns the status
/// and the body, `None` when the envelope carries none.
///
/// # Errors
///
/// Returns [`CoreError`] on an unknown marker or malformed envelope, or
/// when `read_body` finds the body ill-shaped.
pub fn decode_response<B>(
    bytes: &[u8],
    mut read_body: impl FnMut(&mut Reader<'_>) -> Result<Shaped<B>, CoreError>,
) -> Result<(u16, Option<B>), CoreError> {
    const T: &str = "ws response";
    let (format, text) = split_marker(bytes)?;
    let mut r = Reader::new(format, text);
    let mut status = Scalar::Missing;
    let mut body = Ok(None);
    if r.begin_object()? {
        while let Some(key) = r.next_key()? {
            match &*key {
                "status" => status = Scalar::read(&mut r)?,
                "body" => body = read_body(&mut r)?.map(Some),
                _ => r.skip_value()?,
            }
        }
    }
    r.finish()?;
    let status = status.require_i64(T, "status")?;
    if !(100..600).contains(&status) {
        return Err(CoreError::Shape {
            target: T,
            reason: "status out of range".into(),
        });
    }
    Ok((status as u16, body?))
}

/// One format byte, then the envelope `write` emits, in one buffer.
fn encode_envelope(format: DataFormat, write: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut out = String::with_capacity(256);
    write_envelope(format, &mut out, write);
    out.into_bytes()
}

/// Appends one format byte, then the envelope `write` emits, to `out`.
fn write_envelope(format: DataFormat, out: &mut String, write: impl FnOnce(&mut Writer<'_>)) {
    // Both markers are ASCII, so the buffer stays a valid string.
    out.push(match format {
        DataFormat::Json => '\0',
        DataFormat::Xml => '\u{1}',
    });
    write(&mut Writer::new(format, out));
}

fn split_marker(bytes: &[u8]) -> Result<(DataFormat, &str), CoreError> {
    let (&marker, text) = bytes.split_first().ok_or_else(|| CoreError::Shape {
        target: "ws envelope",
        reason: "empty payload".into(),
    })?;
    let format = match marker {
        0 => DataFormat::Json,
        1 => DataFormat::Xml,
        other => {
            return Err(CoreError::Shape {
                target: "ws envelope",
                reason: format!("unknown format marker {other}"),
            })
        }
    };
    let text = std::str::from_utf8(text).map_err(|_| CoreError::Shape {
        target: "ws envelope",
        reason: "payload is not utf-8".into(),
    })?;
    Ok((format, text))
}

/// A path pattern with `{param}` captures, e.g.
/// `/district/{id}/area`. Build it once; matching allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPattern {
    segments: Vec<PatternSeg>,
}

/// Most `{param}` captures one pattern may hold.
const MAX_PARAMS: usize = 4;

#[derive(Debug, Clone, PartialEq, Eq)]
enum PatternSeg {
    Literal(String),
    Param(String),
}

impl PathPattern {
    /// Parses a pattern.
    ///
    /// # Panics
    ///
    /// Panics on an empty pattern, empty segments or more than four
    /// captures — patterns are compile-time constants in practice.
    pub fn new(pattern: &str) -> Self {
        assert!(pattern.starts_with('/'), "pattern must start with '/'");
        let segments = pattern[1..]
            .split('/')
            .map(|seg| {
                assert!(!seg.is_empty(), "empty segment in pattern {pattern:?}");
                if let Some(name) = seg.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                    PatternSeg::Param(name.to_owned())
                } else {
                    PatternSeg::Literal(seg.to_owned())
                }
            })
            .collect();
        let pattern = PathPattern { segments };
        assert!(
            pattern.params().count() <= MAX_PARAMS,
            "more than {MAX_PARAMS} captures in pattern {pattern:?}"
        );
        pattern
    }

    /// The capture names, in path order.
    fn params(&self) -> impl Iterator<Item = &str> {
        self.segments.iter().filter_map(|seg| match seg {
            PatternSeg::Param(name) => Some(name.as_str()),
            PatternSeg::Literal(_) => None,
        })
    }

    /// Matches `path`, returning its captured segments on success.
    pub fn matches<'a>(&self, path: &'a str) -> Option<Captures<'_, 'a>> {
        // Every pattern has a segment, so `/` alone matches none.
        let path = path.strip_prefix('/').filter(|p| !p.is_empty())?;
        let mut parts = path.split('/');
        let mut values = [""; MAX_PARAMS];
        let mut captured = 0;
        for seg in &self.segments {
            let part = parts.next()?;
            match seg {
                PatternSeg::Literal(lit) if lit == part => {}
                PatternSeg::Literal(_) => return None,
                PatternSeg::Param(_) => {
                    values[captured] = part;
                    captured += 1;
                }
            }
        }
        parts.next().is_none().then_some(Captures {
            pattern: self,
            values,
        })
    }
}

/// The segments a [`PathPattern`] captured from a path: `captures["id"]`
/// is the segment `{id}` matched. They borrow from the path, so a match
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Captures<'p, 'a> {
    pattern: &'p PathPattern,
    values: [&'a str; MAX_PARAMS],
}

impl<'a> Index<&str> for Captures<'_, 'a> {
    type Output = &'a str;

    /// The segment `{name}` captured.
    ///
    /// # Panics
    ///
    /// Panics if the pattern has no capture `name`.
    fn index(&self, name: &str) -> &&'a str {
        let i = self
            .pattern
            .params()
            .position(|param| param == name)
            .unwrap_or_else(|| panic!("no capture {name:?} in {:?}", self.pattern));
        &self.values[i]
    }
}

/// An incoming call a server must answer.
#[derive(Debug, Clone, PartialEq)]
pub struct WsCall {
    /// Correlation id (pass back to [`WsServer::respond`]).
    pub id: u64,
    /// The requesting node.
    pub(crate) from: NodeId,
    /// The decoded request.
    pub request: WsRequest,
}

/// Server half of the Web-Service layer; embed in a [`simnet::Node`].
/// A server never originates requests, so it keeps no state.
#[derive(Debug, Default)]
pub struct WsServer;

impl WsServer {
    /// Creates a server.
    pub fn new() -> Self {
        WsServer
    }

    /// Feeds an incoming packet; returns a call when it was a valid
    /// request. Malformed requests are answered with 400 automatically.
    pub fn accept(&mut self, ctx: &mut Context<'_>, pkt: &Packet) -> Option<WsCall> {
        let RpcFrame::Request { id, body } = rpc::decode(&pkt.payload).ok()? else {
            return None;
        };
        let from = pkt.src;
        match WsRequest::from_bytes(body) {
            Ok(request) => Some(WsCall { id, from, request }),
            Err(e) => {
                let resp = WsResponse::error(status::BAD_REQUEST, e.to_string());
                let bytes = resp.to_bytes(DataFormat::Json);
                ctx.send(from, WS_PORT, rpc::encode_response(id, &bytes));
                None
            }
        }
    }

    /// Sends the response for a previously accepted call.
    pub fn respond(&self, ctx: &mut Context<'_>, call: &WsCall, response: WsResponse) {
        self.respond_encoded(ctx, call, &response.to_bytes(call.request.format));
    }

    /// Sends a response that is already serialized — by
    /// [`encode_response`] or [`WsResponse::to_bytes`] — in the format
    /// of the call's request.
    pub fn respond_encoded(&self, ctx: &mut Context<'_>, call: &WsCall, response: &[u8]) {
        ctx.send(call.from, WS_PORT, rpc::encode_response(call.id, response));
    }
}

/// Client-side events: each settles a request once, handing back its
/// id, when it was issued (for its latency, the breaker's gray-failure
/// signal) and what the caller kept beside it (`M`).
#[derive(Debug, Clone, PartialEq)]
pub enum WsClientEvent<M = ()> {
    /// The response to a request arrived.
    Response {
        /// The request it answers.
        settled: Settled<M>,
        /// The decoded response (500 synthesized on decode failure).
        response: WsResponse,
    },
    /// A request timed out after retries.
    TimedOut(Settled<M>),
}

/// Client half of the Web-Service layer; embed in a [`simnet::Node`].
/// Its one table of requests in flight is its tracker's ledger, which
/// keeps each request's issue instant and the caller's `M`.
#[derive(Debug)]
pub struct WsClient<M = ()> {
    tracker: RequestTracker<M>,
}

/// Past this many bytes the request buffer is shrunk after use, so one
/// large request does not pin its size for the life of the thread.
const REQUEST_BUFFER_RETAINED: usize = 4096;

thread_local! {
    /// The buffer [`WsClient::request`] encodes each envelope into, kept
    /// per thread between requests; the envelope leaves it as one copy,
    /// into the request's frame.
    static REQUEST_BUFFER: Cell<String> = const { Cell::new(String::new()) };
}

impl<M> WsClient<M> {
    /// Creates a client whose timers use tags from `tag_base`.
    pub fn new(tag_base: u64) -> Self {
        WsClient {
            tracker: RequestTracker::new(tag_base, REQUEST_TIMEOUT, REQUEST_RETRIES),
        }
    }

    /// The requests in flight, in ascending id order.
    pub fn awaited(&self) -> Vec<&Settled<M>> {
        self.tracker.awaited()
    }

    /// Forgets every in-flight request, handing each back in ascending
    /// id order; call from a node's `on_restart` (the crash already
    /// cancelled the retry timers).
    pub fn reset(&mut self) -> Vec<Settled<M>> {
        self.tracker.reset()
    }

    /// Sends `request` to the Web Service on `server`, keeping `meta`
    /// until the request settles; returns the correlation id. The
    /// request costs one allocation, its frame (see
    /// [`RequestTracker::send_request`]); a resend costs none.
    pub fn request(
        &mut self,
        ctx: &mut Context<'_>,
        server: NodeId,
        request: &WsRequest,
        meta: M,
    ) -> u64 {
        let mut buffer = REQUEST_BUFFER.take();
        request.write(&mut buffer);
        let id = self
            .tracker
            .send_request(ctx, server, WS_PORT, buffer.as_bytes(), meta);
        buffer.clear();
        buffer.shrink_to(REQUEST_BUFFER_RETAINED);
        REQUEST_BUFFER.set(buffer);
        id
    }

    /// Feeds an incoming packet through the client.
    pub fn accept(&mut self, pkt: &Packet) -> Option<WsClientEvent<M>> {
        let (settled, bytes) = self.accept_encoded(pkt)?;
        let response = WsResponse::from_bytes(bytes)
            .unwrap_or_else(|e| WsResponse::error(status::INTERNAL_ERROR, e.to_string()));
        Some(WsClientEvent::Response { settled, response })
    }

    /// Like [`WsClient::accept`], but leaves the response serialized:
    /// returns the settled request and the bytes for
    /// [`WsResponse::from_bytes`] or a typed [`decode_response`], so a
    /// caller that knows what the request asked for can decode the body
    /// straight into it.
    pub fn accept_encoded<'a>(&mut self, pkt: &'a Packet) -> Option<(Settled<M>, &'a [u8])> {
        self.tracker.accept(pkt)
    }

    /// Feeds a fired timer through the client.
    pub fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) -> Option<WsClientEvent<M>> {
        self.tracker.on_timer(ctx, tag).map(WsClientEvent::TimedOut)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    impl WsRequest {
        /// The request as [`WsClient::request`] sends it, in a buffer of
        /// its own.
        fn to_bytes(&self) -> Vec<u8> {
            let mut out = String::new();
            self.write(&mut out);
            out.into_bytes()
        }
    }

    #[test]
    fn request_round_trip_both_formats() {
        for format in DataFormat::all() {
            let req = WsRequest::get("/data")
                .with_query("from", "0")
                .with_query("to", "100")
                .with_format(format);
            let back = WsRequest::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(back, req, "{format}");
            let body = Value::object([
                ("proxy", Value::from("p \"1\" <&>")),
                (
                    "role",
                    Value::object([("kinds", Value::array([Value::Null]))]),
                ),
            ]);
            let req = WsRequest::post("/register", body).with_format(format);
            let back = WsRequest::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(back, req, "{format}");
        }
    }

    #[test]
    fn post_body_round_trip() {
        let req = WsRequest::post("/register", Value::object([("proxy", Value::from("p1"))]));
        let back = WsRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.body.get("proxy").and_then(Value::as_str), Some("p1"));
    }

    #[test]
    fn response_round_trip() {
        for format in DataFormat::all() {
            let resp = WsResponse::ok(Value::object([("x", Value::from(1))]));
            let back = WsResponse::from_bytes(&resp.to_bytes(format)).unwrap();
            assert_eq!(back, resp);
        }
        let err = WsResponse::error(status::NOT_FOUND, "no such device");
        assert!(!err.is_ok());
        let back = WsResponse::from_bytes(&err.to_bytes(DataFormat::Json)).unwrap();
        assert_eq!(back.status, 404);
    }

    #[test]
    fn unavailable_round_trip_carries_retry_after() {
        let shed = WsResponse::unavailable(SimDuration::from_millis(750));
        assert!(shed.is_shed());
        assert!(!shed.is_ok());
        let back = WsResponse::from_bytes(&shed.to_bytes(DataFormat::Json)).unwrap();
        assert_eq!(back.status, status::SERVICE_UNAVAILABLE);
        assert_eq!(
            back.body.get("retry_after_ms").and_then(Value::as_i64),
            Some(750)
        );
    }

    #[test]
    fn typed_response_matches_the_tree_response() {
        use dimmer_core::{DeviceId, MeasurementBatch, QuantityKind, Unit};
        let device = DeviceId::new("dev-1").unwrap();
        let points = [(1_425_900_000_000, 21.5), (1_425_900_060_000, -0.0)];
        let batch: MeasurementBatch = points
            .iter()
            .map(|&(t, v)| {
                dimmer_core::Measurement::new(
                    device.clone(),
                    QuantityKind::Temperature,
                    v,
                    Unit::Celsius,
                    dimmer_core::Timestamp::from_unix_millis(t),
                )
            })
            .collect();
        for format in DataFormat::all() {
            // A body written by a typed driver …
            let typed = encode_response(status::OK, format, |w| {
                MeasurementBatch::write_series(
                    w,
                    &device,
                    QuantityKind::Temperature,
                    Unit::Celsius,
                    &points,
                );
            });
            // … is byte for byte the tree's encoding, …
            let tree = WsResponse::ok(batch.to_value());
            assert_eq!(typed, tree.to_bytes(format), "{format}");
            // … reads back as the tree through the general reader and as
            // the batch through the typed one.
            assert_eq!(WsResponse::from_bytes(&typed).unwrap(), tree);
            assert_eq!(
                decode_response(&typed, MeasurementBatch::read).unwrap(),
                (status::OK, Some(batch.clone()))
            );
        }
    }

    /// The envelope decoders as they were before they read events: the
    /// whole envelope decoded to a tree, members picked out of it. Kept
    /// as the oracle the typed decoders are compared against.
    fn tree_envelope(bytes: &[u8]) -> Result<(Value, DataFormat), CoreError> {
        let (format, text) = split_marker(bytes)?;
        Ok((dimmer_core::codec::decode_value(text, format)?, format))
    }

    fn tree_request(bytes: &[u8]) -> Result<WsRequest, CoreError> {
        const T: &str = "ws request";
        let (envelope, format) = tree_envelope(bytes)?;
        let shape = |reason: &str| CoreError::Shape {
            target: T,
            reason: reason.into(),
        };
        let method = Method::parse(envelope.require_str(T, "method")?)
            .ok_or_else(|| shape("unknown method"))?;
        let mut query = BTreeMap::new();
        if let Some(map) = envelope.require(T, "query")?.as_object() {
            for (k, v) in map {
                let v = v
                    .as_str()
                    .ok_or_else(|| shape("query values must be strings"))?;
                query.insert(k.as_str().to_owned(), v.to_owned());
            }
        }
        Ok(WsRequest {
            method,
            path: envelope.require_str(T, "path")?.into(),
            query: query
                .into_iter()
                .map(|(k, v): (String, String)| (k.into(), v.into()))
                .collect(),
            body: envelope.get("body").cloned().unwrap_or(Value::Null),
            format,
        })
    }

    fn tree_response(bytes: &[u8]) -> Result<WsResponse, CoreError> {
        let (envelope, _) = tree_envelope(bytes)?;
        let status = envelope.require_i64("ws response", "status")?;
        if !(100..600).contains(&status) {
            return Err(CoreError::Shape {
                target: "ws response",
                reason: "status out of range".into(),
            });
        }
        Ok(WsResponse {
            status: status as u16,
            body: envelope.get("body").cloned().unwrap_or(Value::Null),
        })
    }

    /// Typed and tree envelope decoders must agree on any bytes: both
    /// reject them, or both accept them with equal results.
    fn assert_envelope_decoders_agree(bytes: &[u8]) {
        use dimmer_core::MeasurementBatch;
        assert_eq!(
            WsRequest::from_bytes(bytes).ok(),
            tree_request(bytes).ok(),
            "request from {bytes:?}"
        );
        let response = tree_response(bytes).ok();
        assert_eq!(
            WsResponse::from_bytes(bytes).ok(),
            response,
            "response from {bytes:?}"
        );
        // A typed body reader sees what decoding the tree body would; an
        // absent body is no batch either way.
        let batch = response.and_then(|r| {
            let batch = MeasurementBatch::from_value(&r.body).ok()?;
            Some((r.status, batch))
        });
        assert_eq!(
            decode_response(bytes, MeasurementBatch::read)
                .ok()
                .and_then(|(status, batch)| Some((status, batch?))),
            batch,
            "batch response from {bytes:?}"
        );
    }

    #[test]
    fn every_truncation_and_bit_flip_is_judged_alike_by_typed_and_tree_envelopes() {
        use dimmer_core::{DeviceId, MeasurementBatch, QuantityKind, Unit};
        let device = DeviceId::new("dev-1").unwrap();
        for format in DataFormat::all() {
            let request = WsRequest::post("/actuate", Value::object([("value", Value::from(1.5))]))
                .with_query("quantity", "temperature")
                .with_format(format);
            let response = encode_response(status::OK, format, |w| {
                MeasurementBatch::write_series(
                    w,
                    &device,
                    QuantityKind::Temperature,
                    Unit::Celsius,
                    &[(1_425_900_000_000, 21.5), (1_425_900_060_000, 22.0)],
                );
            });
            let refusal = WsResponse::unavailable(SimDuration::from_millis(20)).to_bytes(format);
            for mut bytes in [request.to_bytes(), response, refusal] {
                assert_envelope_decoders_agree(&bytes);
                for cut in 0..bytes.len() {
                    assert_envelope_decoders_agree(&bytes[..cut]);
                }
                for at in 0..bytes.len() {
                    for bit in 0..8 {
                        bytes[at] ^= 1 << bit;
                        assert_envelope_decoders_agree(&bytes);
                        bytes[at] ^= 1 << bit;
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_and_unknown_envelope_members_are_judged_alike() {
        for text in [
            r#"{"status":"x","extra":[1,{"a":null}],"body":1,"status":201,"body":{"k":2}}"#,
            r#"{"status":200,"body":{"measurements":[{"device":1}],"measurements":[]}}"#,
            r#"{"status":200,"body":{"measurements":[]},"body":{"measurements":7}}"#,
            r#"{"status":200.0,"body":null}"#,
            r#"{"status":200.5}"#,
            r#"{"status":99}"#,
            r#"{"status":204}"#,
            r#"{"status":404,"body":{"error":"no samples yet"}}"#,
            r#"[200]"#,
            r#"{"query":{"a":1,"b":"x","a":"y"},"path":"/p","method":"GET","else":{}}"#,
            r#"{"query":{"a":"y","a":1},"path":"/p","method":"GET"}"#,
            r#"{"query":{"a":1},"query":{},"path":"/p","method":"GET"}"#,
            r#"{"query":null,"path":"/p","method":"POST","body":[1,2]}"#,
            r#"{"query":{},"path":5,"path":"/p","method":"GET"}"#,
            r#"{"query":{},"path":"/p","method":"PUT"}"#,
            r#"{"path":"/p","method":"GET"}"#,
        ] {
            let mut bytes = vec![0];
            bytes.extend_from_slice(text.as_bytes());
            assert_envelope_decoders_agree(&bytes);
        }
        let xml = r#"<value type="object"><member name="status" type="int">200</member><member name="body" type="object"><member name="measurements" type="int">1</member><member name="measurements" type="array"></member></member></value>"#;
        let mut bytes = vec![1];
        bytes.extend_from_slice(xml.as_bytes());
        assert_envelope_decoders_agree(&bytes);
        assert!(decode_response(&bytes, dimmer_core::MeasurementBatch::read).is_ok());
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(WsRequest::from_bytes(&[]).is_err());
        assert!(WsRequest::from_bytes(&[9, b'{', b'}']).is_err());
        assert!(
            WsRequest::from_bytes(&[0, b'{', b'}']).is_err(),
            "missing members"
        );
        assert!(
            WsRequest::from_bytes(&[0, 0xFF, 0xFE]).is_err(),
            "not utf-8"
        );
        assert!(WsResponse::from_bytes(&[0]).is_err());
    }

    #[test]
    fn path_patterns() {
        let p = PathPattern::new("/district/{id}/area");
        let params = p.matches("/district/d1/area").unwrap();
        assert_eq!(params["id"], "d1");
        assert!(p.matches("/district/d1").is_none());
        assert!(p.matches("/district/d1/area/extra").is_none());
        assert!(p.matches("/other/d1/area").is_none());
        assert!(
            p.matches("district/d1/area").is_none(),
            "missing leading slash"
        );

        let root = PathPattern::new("/info");
        assert!(root.matches("/info").is_some());
        assert!(root.matches("/").is_none());
    }

    #[test]
    #[should_panic(expected = "start with")]
    fn pattern_requires_leading_slash() {
        PathPattern::new("no-slash");
    }

    // End-to-end over the simulator.
    use simnet::{Node, SimConfig, Simulator};

    struct EchoServer {
        server: WsServer,
    }

    impl Node for EchoServer {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            if let Some(call) = self.server.accept(ctx, &pkt) {
                let response = match call.request.path.as_str() {
                    "/info" => WsResponse::ok(Value::object([(
                        "echo",
                        Value::from(call.request.query("q").unwrap_or("")),
                    )])),
                    _ => WsResponse::error(status::NOT_FOUND, "unknown path"),
                };
                self.server.respond(ctx, &call, response);
            }
        }
    }

    struct TestClient {
        client: WsClient,
        server: NodeId,
        request: WsRequest,
        responses: Vec<WsResponse>,
        timeouts: usize,
    }

    impl Node for TestClient {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let request = self.request.clone();
            self.client.request(ctx, self.server, &request, ());
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            if let Some(WsClientEvent::Response { response, .. }) = self.client.accept(&pkt) {
                self.responses.push(response);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            if let Some(WsClientEvent::TimedOut { .. }) = self.client.on_timer(ctx, tag) {
                self.timeouts += 1;
            }
        }
    }

    #[test]
    fn request_response_over_network() {
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node(
            "server",
            EchoServer {
                server: WsServer::new(),
            },
        );
        let client = sim.add_node(
            "client",
            TestClient {
                client: WsClient::new(1000),
                server,
                request: WsRequest::get("/info").with_query("q", "hello"),
                responses: vec![],
                timeouts: 0,
            },
        );
        sim.run_for(SimDuration::from_secs(5));
        let c = sim.node_ref::<TestClient>(client).unwrap();
        assert_eq!(c.responses.len(), 1);
        assert!(c.responses[0].is_ok());
        assert_eq!(
            c.responses[0].body.get("echo").and_then(Value::as_str),
            Some("hello")
        );
    }

    /// Issues `FAN_OUT` requests per round, each keeping its sequence
    /// number, and the next round once all are settled; records every
    /// sequence number handed back and how.
    struct FanOutClient {
        client: WsClient<u64>,
        server: NodeId,
        issued: u64,
        rounds_left: usize,
        answered: Vec<u64>,
        timed_out: Vec<u64>,
    }

    const FAN_OUT: u64 = 16;

    impl FanOutClient {
        fn issue_round(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..FAN_OUT {
                let request = WsRequest::get("/info");
                self.client.request(ctx, self.server, &request, self.issued);
                self.issued += 1;
            }
            assert_eq!(self.client.awaited().len() as u64, FAN_OUT);
        }

        fn settled(&mut self, ctx: &mut Context<'_>) {
            if self.client.awaited().is_empty() && self.rounds_left > 0 {
                self.rounds_left -= 1;
                self.issue_round(ctx);
            }
        }
    }

    impl Node for FanOutClient {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.issue_round(ctx);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            // A duplicate of every answer arrives too: it settles nothing.
            let Some(event) = self.client.accept(&pkt) else {
                return;
            };
            assert!(self.client.accept(&pkt).is_none(), "settled once");
            let WsClientEvent::Response { settled, .. } = event else {
                unreachable!("a packet settles by response");
            };
            assert_eq!(settled.id, settled.meta, "both count from 0");
            assert!(settled.issued_at <= ctx.now());
            self.answered.push(settled.meta);
            self.settled(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            if let Some(WsClientEvent::TimedOut(settled)) = self.client.on_timer(ctx, tag) {
                self.timed_out.push(settled.meta);
                self.settled(ctx);
            }
        }
    }

    /// Every request's `M` comes back exactly once, by its response or
    /// its expiry, over ten thousand requests on a lossy link; the
    /// ledger is then empty.
    #[test]
    fn each_requests_meta_comes_back_once_over_ten_thousand_requests() {
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node(
            "server",
            EchoServer {
                server: WsServer::new(),
            },
        );
        let rounds = 10_000 / FAN_OUT as usize;
        let client = sim.add_node(
            "client",
            FanOutClient {
                client: WsClient::new(1000),
                server,
                issued: 0,
                rounds_left: rounds - 1,
                answered: Vec::new(),
                timed_out: Vec::new(),
            },
        );
        let lossy = simnet::LinkModel::builder().loss(0.4).build();
        sim.set_link(client, server, lossy);
        sim.run_for(SimDuration::from_secs(100_000));
        let c = sim.node_ref::<FanOutClient>(client).unwrap();
        assert_eq!(c.rounds_left, 0, "every round completed");
        assert!(c.client.awaited().is_empty());
        assert!(!c.timed_out.is_empty(), "the loss expires some requests");
        let mut back: Vec<u64> = c.answered.iter().chain(&c.timed_out).copied().collect();
        back.sort_unstable();
        assert_eq!(back, (0..c.issued).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_path_is_404_and_xml_works() {
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node(
            "server",
            EchoServer {
                server: WsServer::new(),
            },
        );
        let client = sim.add_node(
            "client",
            TestClient {
                client: WsClient::new(1000),
                server,
                request: WsRequest::get("/ghost").with_format(DataFormat::Xml),
                responses: vec![],
                timeouts: 0,
            },
        );
        sim.run_for(SimDuration::from_secs(5));
        let c = sim.node_ref::<TestClient>(client).unwrap();
        assert_eq!(c.responses[0].status, status::NOT_FOUND);
    }
}
