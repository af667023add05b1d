//! Request/response framing, tracking and retransmission.
//!
//! The Web-Service layer of the framework (see the `proxy` crate) is a
//! request/response protocol. This module provides what its nodes need:
//!
//! * a tiny wire frame ([`encode_request`] / [`encode_response`] /
//!   [`decode`]) carrying a direction flag and a 64-bit correlation id;
//! * [`Retransmit`], the ledger of every at-least-once sender: RPC
//!   requests, and pub/sub publishes, deliveries and bridge batches;
//! * a [`RequestTracker`] that a node embeds to correlate responses with
//!   outstanding requests, with a timeout and bounded retry.
//!
//! Both are deliberately callback-free: the owning node feeds them
//! incoming packets and timer ticks and reacts to what they return,
//! which keeps all state in the node where the simulator can see it.

use std::cell::OnceCell;
use std::collections::HashMap;

use crate::context::Context;
use crate::frame::Frame;
use crate::node::{NodeId, Packet, Port, TimerTag};
use crate::time::{SimDuration, SimTime};
use telemetry::{CounterHandle, TraceId, NO_SPAN, NO_TRACE};

/// Direction flag + correlation id header, little-endian id.
const HEADER_LEN: usize = 9;

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeRpcError {
    /// The packet is shorter than the frame header.
    Truncated,
    /// The direction byte is neither request nor response.
    BadDirection(u8),
}

impl std::fmt::Display for DecodeRpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeRpcError::Truncated => write!(f, "rpc frame truncated"),
            DecodeRpcError::BadDirection(b) => {
                write!(f, "invalid rpc direction byte {b}")
            }
        }
    }
}

impl std::error::Error for DecodeRpcError {}

/// A decoded RPC frame; the payload borrows from the decoded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcFrame<'a> {
    /// A request carrying the caller-chosen correlation id.
    Request {
        /// Correlation id to echo in the response.
        id: u64,
        /// Application payload.
        body: &'a [u8],
    },
    /// A response to a previously sent request.
    Response {
        /// Correlation id of the matching request.
        id: u64,
        /// Application payload.
        body: &'a [u8],
    },
}

/// The frame header: the direction flag (0 request, 1 response), then
/// the correlation id.
fn header(direction: u8, id: u64) -> [u8; HEADER_LEN] {
    let mut header = [direction; HEADER_LEN];
    header[1..].copy_from_slice(&id.to_le_bytes());
    header
}

/// Encodes a request frame.
pub fn encode_request(id: u64, body: &[u8]) -> Vec<u8> {
    [&header(0, id)[..], body].concat()
}

/// Encodes a response frame.
pub fn encode_response(id: u64, body: &[u8]) -> Vec<u8> {
    [&header(1, id)[..], body].concat()
}

/// Decodes a frame previously produced by [`encode_request`] or
/// [`encode_response`].
///
/// # Errors
///
/// Returns [`DecodeRpcError`] if the bytes are shorter than the header or
/// the direction byte is invalid.
pub fn decode(bytes: &[u8]) -> Result<RpcFrame<'_>, DecodeRpcError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeRpcError::Truncated);
    }
    let id = u64::from_le_bytes(bytes[1..9].try_into().expect("slice is 8 bytes"));
    let body = &bytes[HEADER_LEN..];
    match bytes[0] {
        0 => Ok(RpcFrame::Request { id, body }),
        1 => Ok(RpcFrame::Response { id, body }),
        b => Err(DecodeRpcError::BadDirection(b)),
    }
}

/// What [`Retransmit::on_timer`] did with a fired retry timer.
#[derive(Debug)]
pub enum Fired<'a, M> {
    /// The frame went out again and its timer is re-armed.
    Resent(&'a mut M),
    /// The retry budget was spent: the entry of this id is gone.
    Expired(u64, M),
}

/// A kept frame with its resends' address and trace (under no span).
#[derive(Debug)]
struct Unacked<M> {
    dst: NodeId,
    port: Port,
    frame: Frame,
    trace: TraceId,
    retries_left: u32,
    meta: M,
}

/// The retransmission ledger of an at-least-once sender. The sender puts
/// a frame on the wire and [keeps](Retransmit::keep) it under its own id
/// with what it needs to settle the id (`M`); the ledger arms timer
/// `tag_base + id`. Until the [`ack`](Retransmit::ack), each firing
/// resends the same frame (so a resend allocates nothing) and re-arms
/// the timer, `retries` times; the next firing expires the entry.
#[derive(Debug)]
pub struct Retransmit<M> {
    tag_base: u64,
    timeout: SimDuration,
    retries: u32,
    unacked: HashMap<u64, Unacked<M>>,
}

impl<M> Retransmit<M> {
    /// An empty ledger: timer tags from `tag_base`, each timer `timeout`
    /// after a send, at most `retries` resends per frame.
    pub fn new(tag_base: u64, timeout: SimDuration, retries: u32) -> Self {
        Retransmit {
            tag_base,
            timeout,
            retries,
            unacked: HashMap::new(),
        }
    }

    /// The first tag of the ledger's namespace.
    pub fn tag_base(&self) -> u64 {
        self.tag_base
    }

    /// Number of frames awaiting their acknowledgement.
    pub fn outstanding(&self) -> usize {
        self.unacked.len()
    }

    /// Whether frame `id` awaits its acknowledgement.
    pub fn contains(&self, id: u64) -> bool {
        self.unacked.contains_key(&id)
    }

    /// What the sender keeps beside each awaited frame, in ascending id
    /// order.
    pub fn awaited(&self) -> Vec<&M> {
        in_id_order(self.unacked.iter().map(|(&id, u)| (id, &u.meta)))
    }

    /// Forgets every entry, handing back what the sender kept beside
    /// each, in ascending id order: call from `on_restart`, the crash
    /// having cancelled the timers.
    pub fn drain(&mut self) -> Vec<M> {
        in_id_order(self.unacked.drain().map(|(id, u)| (id, u.meta)))
    }

    /// Keeps `frame`, just sent to `dst`:`port`, under `id` and arms its
    /// timer. Its resends carry `trace`.
    #[allow(clippy::too_many_arguments)] // a resend's packet, and the sender's `M`
    pub fn keep(
        &mut self,
        ctx: &mut Context<'_>,
        id: u64,
        dst: NodeId,
        port: Port,
        frame: Frame,
        trace: TraceId,
        meta: M,
    ) {
        ctx.set_timer(self.timeout, TimerTag(self.tag_base + id));
        let retries_left = self.retries;
        let unacked = Unacked {
            dst,
            port,
            frame,
            trace,
            retries_left,
            meta,
        };
        self.unacked.insert(id, unacked);
    }

    /// Settles frame `id`; `None` when it is not awaited.
    pub fn ack(&mut self, id: u64) -> Option<M> {
        self.unacked.remove(&id).map(|u| u.meta)
    }

    /// Feeds a fired timer through the ledger; `None` when the tag is
    /// foreign or its frame no longer awaited.
    pub fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) -> Option<Fired<'_, M>> {
        let id = tag.0.checked_sub(self.tag_base)?;
        // A timer that fires after its ack (the common case) costs one
        // lookup; `entry` would also reserve room for an insert.
        if self.unacked.get(&id)?.retries_left == 0 {
            return Some(Fired::Expired(id, self.unacked.remove(&id)?.meta));
        }
        let u = self.unacked.get_mut(&id)?;
        u.retries_left -= 1;
        ctx.send_spanned(u.dst, u.port, u.frame.clone(), u.trace, NO_SPAN);
        ctx.set_timer(self.timeout, tag);
        Some(Fired::Resent(&mut u.meta))
    }
}

/// Map entries, ordered by their ids, without the ids.
fn in_id_order<T>(entries: impl Iterator<Item = (u64, T)>) -> Vec<T> {
    let mut entries: Vec<(u64, T)> = entries.collect();
    entries.sort_unstable_by_key(|&(id, _)| id);
    entries.into_iter().map(|(_, entry)| entry).collect()
}

/// A request as its response or its expiry settles it: its correlation
/// id, the instant it was first sent, and what the sender kept beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settled<M> {
    /// The correlation id [`RequestTracker::send_request`] returned.
    pub id: u64,
    /// When the request was first sent (resends do not move it).
    pub issued_at: SimTime,
    /// What the sender kept beside the request.
    pub meta: M,
}

/// Correlates responses with the requests a node sends; embeds in a
/// [`Node`](crate::Node). A node answering requests needs no state: it
/// [`decode`]s each and replies with [`encode_response`].
/// Each request waits in its [`Retransmit`] ledger as a [`Settled`].
///
/// The tracker owns a contiguous range of timer tags starting at the
/// `tag_base` given to [`RequestTracker::new`]; the owning node must route
/// any timer whose tag falls in that namespace to
/// [`RequestTracker::on_timer`]. See `crates/proxy` for a complete usage.
#[derive(Debug)]
pub struct RequestTracker<M = ()> {
    next_id: u64,
    pending: Retransmit<Settled<M>>,
    /// `rpc.retry_exhausted`, resolved by the first request to exhaust
    /// its retries.
    retry_exhausted: OnceCell<CounterHandle>,
}

impl<M> RequestTracker<M> {
    /// Creates a tracker whose timers use tags `tag_base + request-id`. A
    /// request is resent each `timeout` without a response, up to
    /// `retries` times, before [`RequestTracker::on_timer`] gives it up.
    pub fn new(tag_base: u64, timeout: SimDuration, retries: u32) -> Self {
        RequestTracker {
            next_id: 0,
            pending: Retransmit::new(tag_base, timeout, retries),
            retry_exhausted: OnceCell::new(),
        }
    }

    /// The outstanding requests, in ascending id order.
    pub fn awaited(&self) -> Vec<&Settled<M>> {
        self.pending.awaited()
    }

    /// Forgets every outstanding request without firing events, handing
    /// each back, in ascending id order.
    ///
    /// Call from a node's `on_restart`: the crash already cancelled the
    /// retry timers, so pending entries could otherwise never resolve.
    /// Correlation ids keep increasing across the reset, which makes any
    /// late response to a pre-crash request fall on the floor.
    pub fn reset(&mut self) -> Vec<Settled<M>> {
        self.pending.drain()
    }

    /// Sends `body` as a request to `dst`:`port` under the tracker's
    /// timeout and retry budget, keeping `meta` until it settles. Returns
    /// the correlation id.
    ///
    /// The header and the body are copied once, into one shared
    /// [`Frame`]: the packet in flight and the copy kept for resends are
    /// the same bytes, so a resend allocates nothing.
    pub fn send_request(
        &mut self,
        ctx: &mut Context<'_>,
        dst: NodeId,
        port: Port,
        body: &[u8],
        meta: M,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let frame = Frame::concat(&header(0, id), body);
        ctx.send(dst, port, frame.clone());
        let issued_at = ctx.now();
        let kept = Settled {
            id,
            issued_at,
            meta,
        };
        self.pending.keep(ctx, id, dst, port, frame, NO_TRACE, kept);
        id
    }

    /// Feeds an incoming packet through the tracker: returns the settled
    /// request a response answers, with its body borrowed from `pkt`;
    /// `None` for anything else (not an RPC frame, a request, a late or
    /// duplicate response).
    pub fn accept<'a>(&mut self, pkt: &'a Packet) -> Option<(Settled<M>, &'a [u8])> {
        let RpcFrame::Response { id, body } = decode(&pkt.payload).ok()? else {
            return None;
        };
        Some((self.pending.ack(id)?, body))
    }

    /// Feeds a fired timer through the tracker: returns a request that
    /// ran out of retries; `None` when the tag is foreign, the request
    /// already completed, or a retry was resent.
    pub fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) -> Option<Settled<M>> {
        let Fired::Expired(_, settled) = self.pending.on_timer(ctx, tag)? else {
            return None;
        };
        self.retry_exhausted
            .get_or_init(|| {
                ctx.telemetry()
                    .metrics
                    .counter_handle("rpc.retry_exhausted")
            })
            .incr();
        Some(settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let req = encode_request(42, b"hello");
        assert_eq!(
            decode(&req).unwrap(),
            RpcFrame::Request {
                id: 42,
                body: b"hello"
            }
        );
        let resp = encode_response(42, b"world");
        assert_eq!(
            decode(&resp).unwrap(),
            RpcFrame::Response {
                id: 42,
                body: b"world"
            }
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(&[0, 1]), Err(DecodeRpcError::Truncated));
        let mut bad = encode_request(1, b"x");
        bad[0] = 9;
        assert_eq!(decode(&bad), Err(DecodeRpcError::BadDirection(9)));
    }

    #[test]
    fn empty_body_allowed() {
        let req = encode_request(0, b"");
        match decode(&req).unwrap() {
            RpcFrame::Request { id, body } => {
                assert_eq!(id, 0);
                assert!(body.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // The ledger is driven callback by callback: each call runs on a
    // context of its own and is judged by the effects it queued.
    use crate::context::Effect;
    use crate::rng::DeterministicRng;
    use crate::SimTime;
    use telemetry::{SpanId, Telemetry};

    /// An effect, comparable: a send's bytes, trace and span, or a timer.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Send(NodeId, Port, Vec<u8>, TraceId, SpanId),
        Timer(SimTime, TimerTag),
    }

    /// Runs `f` on a context at `now`; returns its result and the
    /// effects it queued, with each send's payload address.
    fn run<R>(
        now: SimTime,
        f: impl FnOnce(&mut Context<'_>) -> R,
    ) -> (R, Vec<Seen>, Vec<*const u8>) {
        let mut rng = DeterministicRng::seed_from(1);
        let mut effects = Vec::new();
        let telemetry = Telemetry::new();
        let mut ctx = Context {
            now,
            node: NodeId::from_index(0),
            rng: &mut rng,
            effects: &mut effects,
            telemetry: &telemetry,
        };
        let out = f(&mut ctx);
        let mut addresses = Vec::new();
        let seen = effects
            .into_iter()
            .map(|effect| match effect {
                Effect::Send {
                    dst,
                    port,
                    payload,
                    trace,
                    span,
                } => {
                    addresses.push(payload.as_ptr());
                    Seen::Send(dst, port, payload.to_vec(), trace, span)
                }
                Effect::SetTimer { at, tag } => Seen::Timer(at, tag),
            })
            .collect();
        (out, seen, addresses)
    }

    const PEER: NodeId = NodeId(1);
    const PORT: Port = Port::new(7);
    /// Longer than a frame keeps inline, so a resend's bytes have an
    /// address of their own to compare.
    const BODY: &[u8] = b"a frame too long to be kept inline";

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// Tags from 100, a 1 s timeout and two resends.
    fn ledger() -> Retransmit<&'static str> {
        Retransmit::new(100, SimDuration::from_secs(1), 2)
    }

    fn keep(ledger: &mut Retransmit<&'static str>, id: u64, meta: &'static str) -> Frame {
        let frame = Frame::copy_from_slice(BODY);
        let kept = frame.clone();
        let ((), seen, _) = run(at(0), |ctx| ledger.keep(ctx, id, PEER, PORT, kept, 9, meta));
        assert_eq!(seen, [Seen::Timer(at(1), TimerTag(100 + id))]);
        frame
    }

    #[test]
    fn ledger_ack_stops_resends() {
        let mut ledger = ledger();
        keep(&mut ledger, 3, "three");
        let (resent, _, _) = run(at(1), |ctx| {
            matches!(ledger.on_timer(ctx, TimerTag(103)), Some(Fired::Resent(_)))
        });
        assert!(resent && ledger.contains(3));
        assert_eq!(ledger.ack(3), Some("three"));
        assert!(ledger.outstanding() == 0);
        let (fired, seen, _) = run(at(2), |ctx| ledger.on_timer(ctx, TimerTag(103)).is_some());
        assert!(!fired, "an acked frame's timer does nothing");
        assert!(seen.is_empty());
        assert_eq!(ledger.ack(3), None, "a duplicate ack settles nothing");
    }

    #[test]
    fn ledger_resends_exactly_retries_times_then_expires_once() {
        let mut ledger = ledger();
        let frame = keep(&mut ledger, 3, "three");
        for round in 1..=2 {
            let ((), seen, addresses) =
                run(at(round), |ctx| match ledger.on_timer(ctx, TimerTag(103)) {
                    Some(Fired::Resent(meta)) => *meta = "resent",
                    other => panic!("round {round}: {other:?}"),
                });
            // The same bytes under the resend trace and no span, sharing
            // the kept frame's allocation; then the timer again.
            assert_eq!(
                seen,
                [
                    Seen::Send(PEER, PORT, BODY.to_vec(), 9, NO_SPAN),
                    Seen::Timer(at(round + 1), TimerTag(103)),
                ]
            );
            assert_eq!(addresses, [frame.as_ptr()]);
        }
        let (expired, seen, _) = run(at(3), |ctx| {
            matches!(
                ledger.on_timer(ctx, TimerTag(103)),
                Some(Fired::Expired(3, "resent"))
            )
        });
        assert!(expired, "the budget spent, the entry expires");
        assert!(seen.is_empty(), "an expiry sends nothing");
        assert!(ledger.outstanding() == 0);
    }

    #[test]
    fn ledger_ignores_foreign_and_finished_tags() {
        let mut ledger = ledger();
        keep(&mut ledger, 0, "zero");
        keep(&mut ledger, 1, "one");
        assert_eq!(ledger.ack(1), Some("one"));
        for _ in 0..3 {
            run(at(1), |ctx| ledger.on_timer(ctx, TimerTag(100)).is_some());
        }
        assert!(ledger.outstanding() == 0, "id 0 expired");
        // Below the namespace, finished (acked, expired) and never kept.
        for tag in [99, 100, 101, 102] {
            let (fired, seen, _) = run(at(4), |ctx| ledger.on_timer(ctx, TimerTag(tag)).is_some());
            assert!(!fired && seen.is_empty(), "tag {tag}");
        }
    }

    #[test]
    fn ledger_drain_forgets_every_entry() {
        let mut ledger = ledger();
        for id in 0..3 {
            keep(&mut ledger, id, "kept");
        }
        assert_eq!(ledger.outstanding(), 3);
        assert_eq!(ledger.awaited().len(), 3);
        assert_eq!(ledger.drain(), ["kept"; 3]);
        assert!(ledger.outstanding() == 0);
        for id in 0..3 {
            let (fired, seen, _) = run(at(1), |ctx| {
                ledger.on_timer(ctx, TimerTag(100 + id)).is_some()
            });
            assert!(!fired && seen.is_empty(), "id {id}");
            assert_eq!(ledger.ack(id), None);
        }
    }

    #[test]
    fn each_kept_meta_comes_back_once_by_ack_expiry_or_drain_in_id_order() {
        let mut ledger: Retransmit<u64> = Retransmit::new(100, SimDuration::from_secs(1), 2);
        // Kept out of id order, so a hash map's order cannot pass for
        // the drain's.
        let ids = [7, 3, 11, 0, 5, 9, 2];
        for id in ids {
            let frame = Frame::copy_from_slice(BODY);
            run(at(0), |ctx| ledger.keep(ctx, id, PEER, PORT, frame, 0, id));
        }
        let mut back = Vec::new();
        back.extend(ledger.ack(3));
        back.extend(ledger.ack(9));
        assert_eq!(ledger.ack(3), None, "a duplicate ack settles nothing");
        for round in 1..=3 {
            run(at(round), |ctx| {
                if let Some(Fired::Expired(id, meta)) = ledger.on_timer(ctx, TimerTag(111)) {
                    assert_eq!((round, id), (3, 11), "expired after its two resends");
                    back.push(meta);
                }
            });
        }
        assert_eq!(ledger.ack(11), None, "a late ack settles nothing");
        assert_eq!(ledger.awaited(), [&0, &2, &5, &7]);
        let drained = ledger.drain();
        assert_eq!(drained, [0, 2, 5, 7], "drained in ascending id order");
        back.extend(drained);
        assert!(ledger.drain().is_empty() && ledger.ack(0).is_none());
        back.sort_unstable();
        let mut kept = ids.to_vec();
        kept.sort_unstable();
        assert_eq!(back, kept, "every kept meta comes back exactly once");
    }

    // Tracker behaviour is exercised end-to-end in the integration test
    // below using a real simulator.
    use crate::link::LinkModel;
    use crate::{Node, SimConfig, Simulator};

    struct Server;

    impl Node for Server {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            if let Ok(RpcFrame::Request { id, body }) = decode(&pkt.payload) {
                let mut reply = body.to_vec();
                reply.reverse();
                ctx.send(pkt.src, pkt.port, encode_response(id, &reply));
            }
        }
    }

    struct ClientNode {
        tracker: RequestTracker<&'static str>,
        server: NodeId,
        responses: Vec<(Settled<&'static str>, Vec<u8>)>,
        timeouts: Vec<u64>,
    }

    impl ClientNode {
        fn new(server: NodeId) -> Self {
            ClientNode {
                tracker: RequestTracker::new(1000, SimDuration::from_secs(1), 2),
                server,
                responses: vec![],
                timeouts: vec![],
            }
        }
    }

    impl Node for ClientNode {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.tracker
                .send_request(ctx, self.server, Port::new(80), b"abc", "abc");
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            if let Some((settled, body)) = self.tracker.accept(&pkt) {
                self.responses.push((settled, body.to_vec()));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            if let Some(settled) = self.tracker.on_timer(ctx, tag) {
                assert_eq!(settled.meta, "abc");
                self.timeouts.push(settled.id);
            }
        }
    }

    #[test]
    fn request_response_over_network() {
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("server", Server);
        let client = sim.add_node("client", ClientNode::new(server));
        sim.run_for(SimDuration::from_secs(10));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        let settled = Settled {
            id: 0,
            issued_at: SimTime::ZERO,
            meta: "abc",
        };
        assert_eq!(c.responses, vec![(settled, b"cba".to_vec())]);
        assert!(c.timeouts.is_empty());
        assert_eq!(c.tracker.awaited().len(), 0);
    }

    #[test]
    fn retries_survive_a_lossy_link() {
        // 60% loss: the request resolves one way or the other.
        let mut sim = Simulator::new(SimConfig { seed: 77 });
        let server = sim.add_node("server", Server);
        let client = sim.add_node("client", ClientNode::new(server));
        sim.set_link(client, server, LinkModel::builder().loss(0.6).build());
        sim.run_for(SimDuration::from_secs(60));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert!(
            !c.responses.is_empty() || !c.timeouts.is_empty(),
            "request must resolve one way or the other"
        );
    }

    #[test]
    fn timeout_fires_when_peer_is_silent() {
        struct Mute;
        impl Node for Mute {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("mute", Mute);
        let client = sim.add_node("client", ClientNode::new(server));
        sim.run_for(SimDuration::from_secs(30));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert_eq!(c.timeouts, vec![0]);
        assert!(c.responses.is_empty());
    }

    #[test]
    fn exhausted_retries_emit_a_metric_and_respect_the_policy_cap() {
        struct Recorder {
            arrivals: Vec<crate::SimTime>,
        }
        impl Node for Recorder {
            fn on_packet(&mut self, ctx: &mut Context<'_>, _pkt: Packet) {
                self.arrivals.push(ctx.now());
            }
        }
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("recorder", Recorder { arrivals: vec![] });
        let client = sim.add_node("client", ClientNode::new(server));
        // An ideal link: arrival gaps are the send gaps.
        sim.set_link(client, server, LinkModel::ideal());
        sim.run_for(SimDuration::from_secs(30));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert_eq!(c.timeouts, vec![0], "abandoned after its 2 retries");
        assert_eq!(sim.telemetry().metrics.counter("rpc.retry_exhausted"), 1);
        // The original send plus two resends, each after the request's
        // own 1 s timeout.
        assert_eq!(sim.node_metrics(client).packets_sent, 3);
        let arrivals = &sim.node_ref::<Recorder>(server).unwrap().arrivals;
        let gaps: Vec<SimDuration> = arrivals.windows(2).map(|w| w[1].since(w[0])).collect();
        assert_eq!(gaps, [SimDuration::from_secs(1); 2]);
    }

    #[test]
    fn a_response_carries_the_first_sends_instant_not_the_last_resends() {
        /// Answers only the third copy of a request it receives.
        struct Third(u32);
        impl Node for Third {
            fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
                self.0 += 1;
                if let (3, Ok(RpcFrame::Request { id, body })) = (self.0, decode(&pkt.payload)) {
                    ctx.send(pkt.src, pkt.port, encode_response(id, body));
                }
            }
        }
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("third", Third(0));
        let client = sim.add_node("client", ClientNode::new(server));
        sim.set_link(client, server, LinkModel::ideal());
        sim.run_for(SimDuration::from_secs(10));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert_eq!(sim.node_metrics(client).packets_sent, 3, "two resends");
        let [(settled, body)] = c.responses.as_slice() else {
            panic!("{:?}", c.responses);
        };
        assert_eq!(body, b"abc");
        assert_eq!((settled.issued_at, settled.meta), (SimTime::ZERO, "abc"));
        assert!(c.timeouts.is_empty());
    }

    #[test]
    fn reset_forgets_outstanding_requests() {
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("mute", {
            struct Mute;
            impl Node for Mute {
                fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
            }
            Mute
        });
        let client = sim.add_node("client", ClientNode::new(server));
        sim.run_for(SimDuration::from_millis(10));
        let c = sim.node_mut::<ClientNode>(client).unwrap();
        assert_eq!(c.tracker.awaited().len(), 1);
        assert_eq!(c.tracker.awaited()[0].meta, "abc");
        assert_eq!(c.tracker.reset()[0].meta, "abc");
        assert_eq!(c.tracker.awaited().len(), 0);
    }

    #[test]
    fn late_duplicate_response_is_ignored() {
        let mut tracker: RequestTracker = RequestTracker::new(0, SimDuration::from_secs(1), 2);
        // Simulate a response for an id that was never pending.
        let pkt = Packet {
            src: NodeId::from_index(1),
            dst: NodeId::from_index(0),
            port: Port::new(1),
            payload: encode_response(99, b"late").into(),
            trace: 0,
            span: 0,
        };
        assert!(tracker.accept(&pkt).is_none());
    }
}
