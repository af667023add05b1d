//! Sim-time tracing: structured events stamped with a nanosecond
//! timestamp and node identity, recorded into a bounded ring buffer.
//!
//! Events carry a [`TraceId`]: a non-zero `u64` minted by
//! [`Tracer::next_trace_id`] and threaded through packet metadata so a
//! single measurement can be followed across nodes (the flight
//! recorder, [`crate::flight`], reconstructs the path). `trace_id == 0`
//! ([`NO_TRACE`]) marks an event that belongs to no particular flight.
//!
//! Trace and span ids are unique across the shards of a simulation:
//! each shard's tracer counts from 1 below its shard index, which sits
//! in the top byte of the id ([`Tracer::set_shard`]). A flight bridged
//! into another shard's ring therefore never shares its ids with one of
//! that shard's own flights, and shard 0 mints exactly `1, 2, 3, …`.
//!
//! When the ring buffer is full the *oldest* event is overwritten and a
//! drop counter incremented, so a long simulation keeps the most recent
//! window of activity in constant memory.
//!
//! A flight's head asks [`Tracer::start_flight`] for its id, and that
//! is where sampling happens: while the ring has never dropped an event
//! every flight is traced; from the first drop on, the ring holds the
//! same number of events whatever the rate, so a new flight is traced
//! only when a hash of (the tracer's seed, its flight counter) lands in
//! 1 of `TRACE_ONE_IN` (16). The ring then spans a window that many times
//! longer at a fraction of the cost. An unsampled flight carries
//! [`NO_TRACE`], and every hop returns before formatting anything for
//! it, so a flight is recorded whole or not at all. The declined
//! flights are counted and exported as the `trace.unsampled` gauge.
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

/// Bit position of the shard index in every minted trace and span id.
const SHARD_SHIFT: u32 = 56;

/// Once a ring has dropped an event, one new flight in this many is
/// traced. At 1 in 16 a `district_ingest` message costs ≈ 1.1 trace
/// records instead of ≈ 13.9, about 1–2 % of its host time, so a larger
/// divisor could buy at most that much.
const TRACE_ONE_IN: u64 = 16;

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
    /// The shard index, shifted into place: or-ed into every id.
    shard_bits: u64,
    next_trace: TraceId,
    next_span: SpanId,
    /// Keys the sampling hash, so two seeds pick different flights.
    seed: u64,
    /// Flights started so far, sampled or not.
    flights: u64,
    /// Flights [`Tracer::start_flight`] declined.
    unsampled: u64,
    /// Set by [`crate::Telemetry::off`]: no flight is traced.
    off: bool,
}

impl Default for TracerInner {
    fn default() -> Self {
        TracerInner {
            ring: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
            names: BTreeMap::new(),
            shard_bits: 0,
            next_trace: 1,
            next_span: 1,
            seed: 0,
            flights: 0,
            unsampled: 0,
            off: false,
        }
    }
}

impl TracerInner {
    fn mint_span(&mut self) -> SpanId {
        let id = self.shard_bits | self.next_span;
        self.next_span += 1;
        id
    }

    fn mint_trace(&mut self) -> TraceId {
        let id = self.shard_bits | self.next_trace;
        self.next_trace += 1;
        id
    }

    /// Whether flight number `flight` is traced: always before the ring
    /// first drops, 1 in [`TRACE_ONE_IN`] after, never once switched off.
    fn samples(&self, flight: u64) -> bool {
        !self.off && (self.dropped == 0 || mix(self.seed, flight).is_multiple_of(TRACE_ONE_IN))
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

/// The `flight`-th output of a SplitMix64 stream seeded with `seed`.
fn mix(seed: u64, flight: u64) -> u64 {
    let mut z = seed.wrapping_add(flight.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

    /// A tracer whose flight sampling is keyed on `seed` (a shard's
    /// seed), so a run repeats its sample and two seeds differ in it.
    pub fn seeded(seed: u64) -> Self {
        let tracer = Self::default();
        tracer.inner().seed = seed;
        tracer
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

    /// Tags every trace and span id this tracer mints from now on with
    /// `shard` (see the [module docs](self)).
    pub fn set_shard(&self, shard: u8) {
        self.inner().shard_bits = u64::from(shard) << SHARD_SHIFT;
    }

    /// Associates a node index with a display name used in exports.
    pub fn register_node(&self, node: u32, name: &str) {
        self.inner().names.insert(node, name.to_string());
    }

    /// Mints a fresh non-zero trace id (sequential, deterministic),
    /// whatever the ring's state: for records that must always be
    /// traced (faults) and for callers that sample on their own.
    pub fn next_trace_id(&self) -> TraceId {
        self.inner().mint_trace()
    }

    /// Starts a flight: a fresh trace id when the flight is sampled,
    /// [`NO_TRACE`] when it is not (see the [module docs](self)).
    pub fn start_flight(&self) -> TraceId {
        let mut g = self.inner();
        let flight = g.flights;
        g.flights += 1;
        if g.samples(flight) {
            g.mint_trace()
        } else {
            g.unsampled += 1;
            NO_TRACE
        }
    }

    /// Stops tracing flights: [`Tracer::start_flight`] declines every
    /// one from now on.
    pub(crate) fn stop_flights(&self) {
        self.inner().off = true;
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

    /// Number of flights [`Tracer::start_flight`] declined.
    pub(crate) fn unsampled(&self) -> u64 {
        self.inner().unsampled
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
    fn ids_carry_the_shard_index_in_the_top_byte() {
        let t = Tracer::new();
        t.set_shard(3);
        assert_eq!(t.next_trace_id(), 3 << 56 | 1);
        assert_eq!(
            t.record_hop(0, 0, "a", 7, NO_SPAN, format_args!("")),
            3 << 56 | 1
        );
        t.set_shard(255);
        assert_eq!(t.next_trace_id(), 255 << 56 | 2);
    }

    /// Wraps `t`'s ring: capacity 4, ten records.
    fn wrap(t: &Tracer) {
        t.set_capacity(4);
        for i in 0..10 {
            t.record(i, 0, "e", NO_TRACE, format_args!(""));
        }
        assert!(t.dropped() > 0);
    }

    /// Which of `n` flights `t` traces.
    fn sampled(t: &Tracer, n: u64) -> Vec<u64> {
        (0..n).filter(|_| t.start_flight() != NO_TRACE).collect()
    }

    #[test]
    fn every_flight_is_traced_until_the_ring_drops() {
        let t = Tracer::seeded(7);
        let ids: Vec<TraceId> = (0..100).map(|_| t.start_flight()).collect();
        assert_eq!(ids, (1..=100).collect::<Vec<_>>());
        assert_eq!(t.unsampled(), 0);
    }

    #[test]
    fn after_the_first_drop_the_seed_picks_one_flight_in_sixteen() {
        let n = 16_000;
        let (a, b) = (Tracer::seeded(1), Tracer::seeded(2));
        wrap(&a);
        wrap(&b);
        let (picked_a, picked_b) = (sampled(&a, n), sampled(&b, n));
        // Exactly the flights whose hash lands in 1 of 16 ...
        let keyed = |seed| -> Vec<u64> {
            (0..n)
                .filter(|&f| mix(seed, f).is_multiple_of(TRACE_ONE_IN))
                .collect()
        };
        assert_eq!(picked_a, keyed(1));
        assert_eq!(picked_b, keyed(2));
        // ... which is about one in sixteen, and another seed's pick.
        let share = picked_a.len() as f64 / n as f64;
        assert!((share - 1.0 / 16.0).abs() < 0.01, "{share}");
        assert_ne!(picked_a, picked_b);
        assert_eq!(a.unsampled(), n - picked_a.len() as u64);
        // A seed repeats its pick.
        let again = Tracer::seeded(1);
        wrap(&again);
        assert_eq!(sampled(&again, n), picked_a);
    }

    #[test]
    fn sampled_flights_keep_sequential_ids() {
        let t = Tracer::seeded(3);
        wrap(&t);
        let ids: Vec<TraceId> = (0..1_000)
            .map(|_| t.start_flight())
            .filter(|&id| id != NO_TRACE)
            .collect();
        assert_eq!(ids, (1..=ids.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn next_trace_id_never_returns_no_trace() {
        let t = Tracer::seeded(5);
        wrap(&t);
        t.stop_flights();
        for _ in 0..1_000 {
            assert_ne!(t.next_trace_id(), NO_TRACE);
        }
    }

    #[test]
    fn off_mints_nothing() {
        let t = crate::Telemetry::new();
        t.off();
        assert!(sampled(&t.tracer, 1_000).is_empty());
        assert_eq!(t.tracer.unsampled(), 1_000);
        // Faults keep their ids, and every metric still records.
        assert_ne!(t.tracer.next_trace_id(), NO_TRACE);
        t.metrics.counter_handle("c").incr();
        assert_eq!(t.metrics.counter("c"), 1);
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
