//! Sim-time tracing: structured events stamped with a nanosecond
//! timestamp and node identity, recorded into a bounded ring buffer.
//!
//! Events carry a [`TraceId`]: a non-zero `u64` minted by
//! [`Tracer::next_trace_id`] and threaded through packet metadata so a
//! single measurement can be followed across nodes (the flight
//! recorder, [`crate::flight`], reconstructs the path). `trace_id == 0`
//! ([`NO_TRACE`]) marks an event that belongs to no particular flight.
//!
//! When the ring buffer is full the *oldest* event is overwritten and a
//! drop counter incremented, so a long simulation keeps the most recent
//! window of activity in constant memory.
//!
//! The ring holds fixed-size records, not [`TraceEvent`]s: the kind
//! is a `&'static str`, the node is its id alone (the display name is
//! looked up at export) and the detail is formatted from
//! [`fmt::Arguments`] into [`INLINE_DETAIL_BYTES`] of inline storage,
//! spilling to the heap only when it does not fit. Recording therefore
//! allocates nothing in the steady state, and a caller whose message is
//! untraced never runs its formatter at all.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifier threaded through packets to correlate events; 0 = none.
pub type TraceId = u64;

/// The null trace id: the event/packet is not part of any flight.
pub const NO_TRACE: TraceId = 0;

/// Identifier of one causal span within a trace; 0 = none.
///
/// A span marks one unit of work (a broker publish, a bridge forward,
/// a subscriber receive). Spans form a tree per trace: each span
/// carries the id of the span that caused it, so
/// `crate::flight::reconstruct_trees` can rebuild the true causal
/// structure even when hops of independent branches interleave in time.
pub type SpanId = u64;

/// The null span id: the event has no causal position.
pub const NO_SPAN: SpanId = 0;

/// Default ring capacity; overridable via [`Tracer::set_capacity`].
const DEFAULT_CAPACITY: usize = 65_536;

/// Detail bytes a ring record stores inline. The longest detail the
/// workspace's own hops write (`topic=…` of a device or rollup topic
/// plus a peer id) is under 100 bytes; with this capacity a record is
/// 160 bytes.
pub const INLINE_DETAIL_BYTES: usize = 102;

/// One structured trace event, as exported by [`Tracer::events`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time in nanoseconds.
    pub time_ns: u64,
    /// Raw node index (`simnet::NodeId::index()`), `u32::MAX` if none.
    pub node: u32,
    /// Human-readable node name, resolved at export time.
    pub node_name: String,
    /// Event kind, dotted (`"broker.deliver"`, `"proxy.ingest"`).
    pub kind: String,
    /// Correlation id; [`NO_TRACE`] if the event is stand-alone.
    pub trace_id: TraceId,
    /// This event's span within the trace; [`NO_SPAN`] if unstructured.
    pub span: SpanId,
    /// The span that caused this one; [`NO_SPAN`] for a root span.
    pub parent_span: SpanId,
    /// Free-form detail (topic, byte counts, …).
    pub detail: String,
}

/// A record's detail text: inline while it fits, on the heap after.
#[derive(Debug)]
enum Detail {
    Inline {
        len: u8,
        bytes: [u8; INLINE_DETAIL_BYTES],
    },
    Spilled(String),
}

impl Detail {
    fn format(args: fmt::Arguments<'_>) -> Detail {
        let mut detail = Detail::Inline {
            len: 0,
            bytes: [0; INLINE_DETAIL_BYTES],
        };
        // `write_str` below never fails; a failing `Display` impl just
        // leaves the detail cut short.
        let _ = detail.write_fmt(args);
        detail
    }

    fn as_str(&self) -> &str {
        match self {
            Detail::Inline { len, bytes } => inline_str(&bytes[..usize::from(*len)]),
            Detail::Spilled(heap) => heap,
        }
    }
}

/// The inline bytes are a concatenation of whole `&str`s.
fn inline_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("inline detail is only ever extended by whole strs")
}

impl fmt::Write for Detail {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Detail::Inline { len, bytes } = self {
            let start = usize::from(*len);
            let end = start + s.len();
            if end <= INLINE_DETAIL_BYTES {
                bytes[start..end].copy_from_slice(s.as_bytes());
                *len = end as u8;
                return Ok(());
            }
            let mut heap = String::with_capacity(end);
            heap.push_str(inline_str(&bytes[..start]));
            *self = Detail::Spilled(heap);
        }
        if let Detail::Spilled(heap) = self {
            heap.push_str(s);
        }
        Ok(())
    }
}

/// What the ring stores per event; see the [module docs](self).
#[derive(Debug)]
struct Record {
    time_ns: u64,
    trace_id: TraceId,
    span: SpanId,
    parent_span: SpanId,
    kind: &'static str,
    node: u32,
    detail: Detail,
}

#[derive(Debug)]
struct TracerInner {
    ring: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
    names: BTreeMap<u32, String>,
    next_trace: TraceId,
    next_span: SpanId,
}

impl Default for TracerInner {
    fn default() -> Self {
        TracerInner {
            ring: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
            names: BTreeMap::new(),
            next_trace: 1,
            next_span: 1,
        }
    }
}

impl TracerInner {
    fn mint_span(&mut self) -> SpanId {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    fn export(&self, r: &Record) -> TraceEvent {
        TraceEvent {
            time_ns: r.time_ns,
            node: r.node,
            node_name: self.names.get(&r.node).cloned().unwrap_or_default(),
            kind: r.kind.to_string(),
            trace_id: r.trace_id,
            span: r.span,
            parent_span: r.parent_span,
            detail: r.detail.as_str().to_string(),
        }
    }
}

/// Shared, clonable handle to the bounded trace ring buffer.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn inner(&self) -> MutexGuard<'_, TracerInner> {
        self.inner
            .lock()
            .expect("no tracer method panics while holding the ring")
    }

    /// Resizes the ring. Shrinking drops the oldest events (counted).
    pub fn set_capacity(&self, capacity: usize) {
        let mut g = self.inner();
        g.capacity = capacity.max(1);
        while g.ring.len() > g.capacity {
            g.ring.pop_front();
            g.dropped += 1;
        }
    }

    /// Associates a node index with a display name used in exports.
    pub fn register_node(&self, node: u32, name: &str) {
        self.inner().names.insert(node, name.to_string());
    }

    /// Mints a fresh non-zero trace id (sequential, deterministic).
    pub fn next_trace_id(&self) -> TraceId {
        let mut g = self.inner();
        let id = g.next_trace;
        g.next_trace += 1;
        id
    }

    /// Records one unstructured event (no causal span); O(1),
    /// overwrites the oldest when full.
    pub fn record(
        &self,
        time_ns: u64,
        node: u32,
        kind: &'static str,
        trace_id: TraceId,
        detail: fmt::Arguments<'_>,
    ) {
        self.record_span(time_ns, node, kind, trace_id, NO_SPAN, NO_SPAN, detail);
    }

    /// Records one event with its causal position: `span` is this
    /// event's own span id, `parent_span` the span that caused it
    /// ([`NO_SPAN`] for a root). O(1), overwrites the oldest when full.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        time_ns: u64,
        node: u32,
        kind: &'static str,
        trace_id: TraceId,
        span: SpanId,
        parent_span: SpanId,
        detail: fmt::Arguments<'_>,
    ) {
        self.store(
            time_ns,
            node,
            kind,
            trace_id,
            Some(span),
            parent_span,
            detail,
        );
    }

    /// [`record_span`](Tracer::record_span) under a span id minted by
    /// the same lock acquisition that stores the record; returns it.
    pub fn record_hop(
        &self,
        time_ns: u64,
        node: u32,
        kind: &'static str,
        trace_id: TraceId,
        parent_span: SpanId,
        detail: fmt::Arguments<'_>,
    ) -> SpanId {
        self.store(time_ns, node, kind, trace_id, None, parent_span, detail)
    }

    /// Formats the detail, then takes the lock once to mint the span
    /// (when `span` is `None`) and store the record. Returns the span
    /// the record was stored under.
    #[allow(clippy::too_many_arguments)]
    fn store(
        &self,
        time_ns: u64,
        node: u32,
        kind: &'static str,
        trace_id: TraceId,
        span: Option<SpanId>,
        parent_span: SpanId,
        detail: fmt::Arguments<'_>,
    ) -> SpanId {
        let detail = Detail::format(detail);
        let mut g = self.inner();
        let span = span.unwrap_or_else(|| g.mint_span());
        if g.ring.len() >= g.capacity {
            g.ring.pop_front();
            g.dropped += 1;
        }
        g.ring.push_back(Record {
            time_ns,
            trace_id,
            span,
            parent_span,
            kind,
            node,
            detail,
        });
        span
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner().dropped
    }

    /// Number of events currently held.
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> usize {
        self.inner().ring.len()
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let g = self.inner();
        g.ring.iter().map(|r| g.export(r)).collect()
    }

    /// Retained events belonging to one trace, oldest first.
    pub fn events_for(&self, trace_id: TraceId) -> Vec<TraceEvent> {
        let g = self.inner();
        g.ring
            .iter()
            .filter(|r| r.trace_id == trace_id)
            .map(|r| g.export(r))
            .collect()
    }

    /// Exports the retained events as JSON lines (one object per line).
    pub fn to_json_lines(&self) -> String {
        let g = self.inner();
        let mut out = String::new();
        for r in &g.ring {
            let name = g.names.get(&r.node).map_or("", String::as_str);
            let _ = writeln!(
                out,
                "{{\"t_ns\":{},\"node\":{},\"name\":\"{}\",\"kind\":\"{}\",\"trace\":{},\"span\":{},\"parent\":{},\"detail\":\"{}\"}}",
                r.time_ns,
                r.node,
                escape(name),
                escape(r.kind),
                r.trace_id,
                r.span,
                r.parent_span,
                escape(r.detail.as_str()),
            );
        }
        out
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_back() {
        let t = Tracer::new();
        t.register_node(3, "broker");
        t.record(10, 3, "broker.publish", 7, format_args!("topic=a/b"));
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].node_name, "broker");
        assert_eq!(evs[0].trace_id, 7);
        assert_eq!(t.events_for(7).len(), 1);
        assert!(t.events_for(8).is_empty());
    }

    #[test]
    fn overflow_keeps_newest_and_counts_drops() {
        let t = Tracer::new();
        t.set_capacity(4);
        for i in 0..10u64 {
            t.record(i, 0, "e", NO_TRACE, format_args!(""));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let times: Vec<u64> = t.events().iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn record_is_fixed_size_and_smaller_than_an_event() {
        // 4 × u64, a `&'static str`, the node id and the detail
        // (tag + length byte + inline bytes), padded to 8.
        assert_eq!(std::mem::size_of::<Record>(), 160);
        // A `TraceEvent` is 112 bytes *plus* three heap strings.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 112);
    }

    #[test]
    fn trace_ids_are_sequential() {
        let t = Tracer::new();
        assert_eq!(t.next_trace_id(), 1);
        assert_eq!(t.next_trace_id(), 2);
    }

    #[test]
    fn span_ids_are_sequential_and_independent_of_traces() {
        let t = Tracer::new();
        assert_eq!(t.record_hop(0, 0, "a", 7, NO_SPAN, format_args!("")), 1);
        assert_eq!(t.next_trace_id(), 1);
        assert_eq!(t.record_hop(0, 0, "b", 8, NO_SPAN, format_args!("")), 2);
    }

    #[test]
    fn record_span_carries_causality() {
        let t = Tracer::new();
        t.record_span(5, 1, "broker.publish", 9, 3, 0, format_args!(""));
        t.record_span(6, 1, "broker.deliver", 9, 4, 3, format_args!(""));
        t.record(7, 1, "flat", 9, format_args!(""));
        let evs = t.events();
        assert_eq!((evs[0].span, evs[0].parent_span), (3, NO_SPAN));
        assert_eq!((evs[1].span, evs[1].parent_span), (4, 3));
        assert_eq!((evs[2].span, evs[2].parent_span), (NO_SPAN, NO_SPAN));
        let json = t.to_json_lines();
        assert!(json.contains("\"span\":4,\"parent\":3"));
    }

    #[test]
    fn json_lines_escapes() {
        let t = Tracer::new();
        t.record(1, 0, "k\"ind", 2, format_args!("a\\b\nc"));
        let json = t.to_json_lines();
        assert!(json.contains("\\\"ind"));
        assert!(json.contains("a\\\\b\\nc"));
        assert_eq!(json.lines().count(), 1);
    }
}
