//! Request/response framing and tracking over raw packets.
//!
//! The Web-Service layer of the framework (see the `proxy` crate) is a
//! request/response protocol. This module provides the two halves every
//! node needs:
//!
//! * a tiny wire frame ([`encode_request`] / [`encode_response`] /
//!   [`decode`]) carrying a direction flag and a 64-bit correlation id;
//! * a [`RequestTracker`] that a node embeds to correlate responses with
//!   outstanding requests, with per-request timeout and bounded retry.
//!
//! The tracker is deliberately callback-free: the owning node feeds it
//! incoming packets and timer ticks and reacts to the returned
//! [`RpcEvent`]s, which keeps all state in the node where the simulator
//! can see it.

use std::cell::OnceCell;
use std::collections::HashMap;

use crate::context::Context;
use crate::node::{NodeId, Packet, Port, TimerTag};
use crate::time::SimDuration;
use telemetry::CounterHandle;

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

/// Encodes a request frame.
pub fn encode_request(id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.push(0);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Encodes a response frame.
pub fn encode_response(id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.push(1);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(body);
    out
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

/// Events surfaced by [`RequestTracker::accept`] and
/// [`RequestTracker::on_timer`]; payloads borrow from the accepted
/// packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcEvent<'a> {
    /// A peer sent us a request; reply with
    /// [`RequestTracker::respond`] using the same id.
    IncomingRequest {
        /// Correlation id chosen by the requester.
        id: u64,
        /// The requesting node.
        from: NodeId,
        /// The port the request arrived on (responses go back to it).
        port: Port,
        /// Application payload.
        body: &'a [u8],
    },
    /// A response matched one of our outstanding requests.
    ResponseReceived {
        /// Correlation id of our request.
        id: u64,
        /// Application payload.
        body: &'a [u8],
    },
    /// An outstanding request exhausted its retries without a response.
    RequestTimedOut {
        /// Correlation id of the abandoned request.
        id: u64,
    },
}

#[derive(Debug, Clone)]
struct Pending {
    dst: NodeId,
    port: Port,
    body: Vec<u8>,
    timeout: SimDuration,
    retries_left: u32,
}

/// Correlates responses with requests; embeds in a [`Node`](crate::Node).
///
/// The tracker owns a contiguous range of timer tags starting at the
/// `tag_base` given to [`RequestTracker::new`]; the owning node must route
/// any timer whose tag falls in that namespace to
/// [`RequestTracker::on_timer`]. See `crates/proxy` for a complete usage.
#[derive(Debug)]
pub struct RequestTracker {
    tag_base: u64,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    /// `rpc.retry_exhausted`, resolved by the first request to exhaust
    /// its retries.
    retry_exhausted: OnceCell<CounterHandle>,
}

impl RequestTracker {
    /// Creates a tracker whose timers use tags `tag_base + request-id`.
    pub fn new(tag_base: u64) -> Self {
        RequestTracker {
            tag_base,
            next_id: 0,
            pending: HashMap::new(),
            retry_exhausted: OnceCell::new(),
        }
    }

    /// Number of requests still awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Whether request `id` is still awaiting a response.
    pub fn is_pending(&self, id: u64) -> bool {
        self.pending.contains_key(&id)
    }

    /// Forgets every outstanding request without firing events.
    ///
    /// Call from a node's `on_restart`: the crash already cancelled the
    /// retry timers, so pending entries could otherwise never resolve.
    /// Correlation ids keep increasing across the reset, which makes any
    /// late response to a pre-crash request fall on the floor.
    pub fn reset(&mut self) {
        self.pending.clear();
    }

    /// Sends `body` as a request to `dst`:`port`, arming a timeout that
    /// resends it, each time after `timeout` again, up to `retries` times
    /// before reporting [`RpcEvent::RequestTimedOut`]. Returns the
    /// correlation id.
    pub fn send_request(
        &mut self,
        ctx: &mut Context<'_>,
        dst: NodeId,
        port: Port,
        body: Vec<u8>,
        timeout: SimDuration,
        retries: u32,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        ctx.send(dst, port, encode_request(id, &body));
        ctx.set_timer(timeout, TimerTag(self.tag_base + id));
        self.pending.insert(
            id,
            Pending {
                dst,
                port,
                body,
                timeout,
                retries_left: retries,
            },
        );
        id
    }

    /// Sends a response for a previously received request id.
    pub fn respond(&self, ctx: &mut Context<'_>, to: NodeId, port: Port, id: u64, body: &[u8]) {
        ctx.send(to, port, encode_response(id, body));
    }

    /// Feeds an incoming packet through the tracker.
    ///
    /// Returns `None` for packets that are not valid RPC frames or that
    /// answer an already-completed (or unknown) request.
    pub fn accept<'a>(&mut self, pkt: &'a Packet) -> Option<RpcEvent<'a>> {
        match decode(&pkt.payload).ok()? {
            RpcFrame::Request { id, body } => Some(RpcEvent::IncomingRequest {
                id,
                from: pkt.src,
                port: pkt.port,
                body,
            }),
            RpcFrame::Response { id, body } => {
                self.pending.remove(&id)?;
                Some(RpcEvent::ResponseReceived { id, body })
            }
        }
    }

    /// Feeds a fired timer through the tracker.
    ///
    /// Returns `Some(RequestTimedOut)` when a request ran out of retries,
    /// `None` when the tag is foreign, the request already completed, or a
    /// retry was transparently resent.
    pub fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) -> Option<RpcEvent<'static>> {
        let id = tag.0.checked_sub(self.tag_base)?;
        let pending = self.pending.get_mut(&id)?;
        if pending.retries_left == 0 {
            self.pending.remove(&id);
            self.retry_exhausted
                .get_or_init(|| {
                    ctx.telemetry()
                        .metrics
                        .counter_handle("rpc.retry_exhausted")
                })
                .incr();
            return Some(RpcEvent::RequestTimedOut { id });
        }
        pending.retries_left -= 1;
        ctx.send(pending.dst, pending.port, encode_request(id, &pending.body));
        ctx.set_timer(pending.timeout, TimerTag(self.tag_base + id));
        None
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

    // Tracker behaviour is exercised end-to-end in the integration test
    // below using a real simulator.
    use crate::link::LinkModel;
    use crate::{Node, SimConfig, Simulator};

    struct Server {
        tracker: RequestTracker,
    }

    impl Node for Server {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            if let Some(RpcEvent::IncomingRequest {
                id,
                from,
                port,
                body,
            }) = self.tracker.accept(&pkt)
            {
                let mut reply = body.to_vec();
                reply.reverse();
                self.tracker.respond(ctx, from, port, id, &reply);
            }
        }
    }

    struct ClientNode {
        tracker: RequestTracker,
        server: NodeId,
        responses: Vec<(u64, Vec<u8>)>,
        timeouts: Vec<u64>,
    }

    impl Node for ClientNode {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.tracker.send_request(
                ctx,
                self.server,
                Port::new(80),
                b"abc".to_vec(),
                SimDuration::from_secs(1),
                2,
            );
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            if let Some(RpcEvent::ResponseReceived { id, body }) = self.tracker.accept(&pkt) {
                self.responses.push((id, body.to_vec()));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            if let Some(RpcEvent::RequestTimedOut { id }) = self.tracker.on_timer(ctx, tag) {
                self.timeouts.push(id);
            }
        }
    }

    #[test]
    fn request_response_over_network() {
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node(
            "server",
            Server {
                tracker: RequestTracker::new(1000),
            },
        );
        let client = sim.add_node(
            "client",
            ClientNode {
                tracker: RequestTracker::new(1000),
                server,
                responses: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(10));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert_eq!(c.responses, vec![(0, b"cba".to_vec())]);
        assert!(c.timeouts.is_empty());
        assert_eq!(c.tracker.outstanding(), 0);
    }

    #[test]
    fn retries_survive_a_lossy_link() {
        // 60% loss: the request resolves one way or the other.
        let mut sim = Simulator::new(SimConfig { seed: 77 });
        let server = sim.add_node(
            "server",
            Server {
                tracker: RequestTracker::new(1000),
            },
        );
        let client = sim.add_node(
            "client",
            ClientNode {
                tracker: RequestTracker::new(1000),
                server,
                responses: vec![],
                timeouts: vec![],
            },
        );
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
        let client = sim.add_node(
            "client",
            ClientNode {
                tracker: RequestTracker::new(1000),
                server,
                responses: vec![],
                timeouts: vec![],
            },
        );
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
        let client = sim.add_node(
            "client",
            ClientNode {
                tracker: RequestTracker::new(1000),
                server,
                responses: vec![],
                timeouts: vec![],
            },
        );
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
    fn reset_forgets_outstanding_requests() {
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("mute", {
            struct Mute;
            impl Node for Mute {
                fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
            }
            Mute
        });
        let client = sim.add_node(
            "client",
            ClientNode {
                tracker: RequestTracker::new(1000),
                server,
                responses: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_millis(10));
        let c = sim.node_mut::<ClientNode>(client).unwrap();
        assert_eq!(c.tracker.outstanding(), 1);
        c.tracker.reset();
        assert_eq!(c.tracker.outstanding(), 0);
    }

    #[test]
    fn late_duplicate_response_is_ignored() {
        let mut tracker = RequestTracker::new(0);
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
