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
use crate::overload::RetryBudget;
use crate::time::SimDuration;
use telemetry::{CounterHandle, GaugeHandle};

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

/// Retry shaping applied by a [`RequestTracker`] to every request it
/// sends.
///
/// The default policy reproduces the original fixed-interval behaviour:
/// per-request retry budgets, a constant resend interval equal to the
/// request timeout, and no jitter.
#[derive(Debug, Clone)]
pub(crate) struct RetryPolicy {
    /// When `Some`, caps (and overrides) the per-request `retries`
    /// argument of [`RequestTracker::send_request`] for every request.
    pub(crate) max_retries: Option<u32>,
    /// Multiplier applied to the resend interval per attempt
    /// (`timeout * backoff^attempt`). `1.0` keeps the interval constant;
    /// `2.0` doubles it on every retry.
    pub(crate) backoff: f64,
    /// Fractional jitter on each retry delay: a delay `d` becomes a
    /// uniform draw from `d * [1 - jitter, 1 + jitter]`. Jitter decorrelates
    /// retry storms after a partition heals or a peer restarts.
    pub(crate) jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: None,
            backoff: 1.0,
            jitter: 0.0,
        }
    }
}

impl RetryPolicy {
    /// The delay armed after resend number `attempt` (1-based), jittered
    /// with the caller's RNG: `base * backoff^attempt`, so the wait
    /// between the original send and the first resend is `base` and each
    /// subsequent gap grows by the backoff factor.
    fn delay(
        &self,
        base: SimDuration,
        attempt: u32,
        rng: &mut crate::rng::DeterministicRng,
    ) -> SimDuration {
        let mut d = base.as_secs_f64() * self.backoff.powi(attempt as i32);
        if self.jitter > 0.0 {
            d *= rng.next_f64_range(1.0 - self.jitter, 1.0 + self.jitter);
        }
        SimDuration::from_secs_f64(d.max(0.0))
    }
}

#[derive(Debug, Clone)]
struct Pending {
    dst: NodeId,
    port: Port,
    body: Vec<u8>,
    timeout: SimDuration,
    retries_left: u32,
    /// Retry attempts already made (0 = only the original send).
    attempt: u32,
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
    policy: RetryPolicy,
    /// Optional shared retry budget: when set, every resend must claim
    /// a token, so a fleet sharing one budget cannot retry-storm even
    /// with `max_retries: None` against a partitioned target.
    budget: Option<RetryBudget>,
    /// The retry-timer series, resolved when the first timer fires.
    series: OnceCell<RetrySeries>,
}

#[derive(Debug)]
struct RetrySeries {
    retry_exhausted: CounterHandle,
    budget_exhausted: CounterHandle,
    budget_tokens: GaugeHandle,
}

impl RequestTracker {
    /// Creates a tracker whose timers use tags `tag_base + request-id`,
    /// with the default (fixed-interval, unjittered) retry policy.
    pub fn new(tag_base: u64) -> Self {
        RequestTracker::with_policy(tag_base, RetryPolicy::default())
    }

    /// Creates a tracker with an explicit [`RetryPolicy`].
    pub(crate) fn with_policy(tag_base: u64, policy: RetryPolicy) -> Self {
        RequestTracker {
            tag_base,
            next_id: 0,
            pending: HashMap::new(),
            policy,
            budget: None,
            series: OnceCell::new(),
        }
    }

    /// Attaches a shared [`RetryBudget`]: every retry (not the original
    /// send) claims one token first. A denied claim abandons the request
    /// with [`RpcEvent::RequestTimedOut`] and counts
    /// `rpc.budget_exhausted` — the global cap the per-request retry
    /// counter cannot provide.
    pub fn set_retry_budget(&mut self, budget: RetryBudget) {
        self.budget = Some(budget);
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
    /// will retry up to `retries` times before reporting
    /// [`RpcEvent::RequestTimedOut`]. Returns the correlation id.
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
        let retries = match self.policy.max_retries {
            Some(cap) => retries.min(cap),
            None => retries,
        };
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
                attempt: 0,
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
        let series = self.series.get_or_init(|| {
            let m = &ctx.telemetry().metrics;
            RetrySeries {
                retry_exhausted: m.counter_handle("rpc.retry_exhausted"),
                budget_exhausted: m.counter_handle("rpc.budget_exhausted"),
                budget_tokens: m.gauge_handle("rpc.budget_tokens"),
            }
        });
        if pending.retries_left == 0 {
            self.pending.remove(&id);
            series.retry_exhausted.incr();
            return Some(RpcEvent::RequestTimedOut { id });
        }
        if let Some(budget) = &self.budget {
            let now = ctx.now();
            if !budget.try_claim(now) {
                self.pending.remove(&id);
                series.budget_exhausted.incr();
                return Some(RpcEvent::RequestTimedOut { id });
            }
            series.budget_tokens.set(budget.tokens(now));
        }
        pending.retries_left -= 1;
        pending.attempt += 1;
        let delay = self
            .policy
            .delay(pending.timeout, pending.attempt, ctx.rng());
        ctx.send(pending.dst, pending.port, encode_request(id, &pending.body));
        ctx.set_timer(delay, TimerTag(self.tag_base + id));
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
        // 60% loss: with 5 retries the request virtually always succeeds.
        let mut sim = Simulator::new(SimConfig {
            seed: 77,
            default_link: LinkModel::builder().loss(0.6).build(),
        });
        let server = sim.add_node(
            "server",
            Server {
                tracker: RequestTracker::new(1000),
            },
        );
        let mut client_node = ClientNode {
            tracker: RequestTracker::new(1000),
            server,
            responses: vec![],
            timeouts: vec![],
        };
        // More retries than the default used in on_start.
        client_node.tracker = RequestTracker::new(1000);
        let client = sim.add_node("client", client_node);
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
        struct Mute;
        impl Node for Mute {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("mute", Mute);
        let client = sim.add_node(
            "client",
            ClientNode {
                // The cap overrides the per-request budget of 2 retries.
                tracker: RequestTracker::with_policy(
                    1000,
                    RetryPolicy {
                        max_retries: Some(0),
                        ..RetryPolicy::default()
                    },
                ),
                server,
                responses: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(30));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert_eq!(c.timeouts, vec![0], "abandoned after the capped attempt");
        assert_eq!(sim.telemetry().metrics.counter("rpc.retry_exhausted"), 1);
        // With max_retries = 0 the request is sent exactly once.
        assert_eq!(sim.node_metrics(client).packets_sent, 1);
    }

    #[test]
    fn shared_retry_budget_caps_fleet_wide_retries() {
        struct Mute;
        impl Node for Mute {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        // Two clients hammer a silent server with an uncapped policy;
        // a shared 3-token budget (negligible refill) bounds the total
        // resend volume across both to 3, then both abandon.
        let budget = RetryBudget::new(3.0, 1e-9);
        let mut sim = Simulator::new(SimConfig::default());
        let server = sim.add_node("mute", Mute);
        let mut clients = Vec::new();
        for i in 0..2 {
            let mut node = ClientNode {
                tracker: RequestTracker::new(1000),
                server,
                responses: vec![],
                timeouts: vec![],
            };
            node.tracker.set_retry_budget(budget.clone());
            clients.push(sim.add_node(format!("client{i}"), node));
        }
        sim.run_for(SimDuration::from_secs(120));
        let total_sent: u64 = clients
            .iter()
            .map(|&c| sim.node_metrics(c).packets_sent)
            .sum();
        // 2 original sends + at most 3 budgeted resends.
        assert!(total_sent <= 5, "retry storm: {total_sent} packets");
        assert!(budget.exhausted() > 0);
        assert_eq!(sim.telemetry().metrics.counter("rpc.budget_exhausted"), 1);
        for &c in &clients {
            let node = sim.node_ref::<ClientNode>(c).unwrap();
            assert_eq!(node.timeouts, vec![0], "abandoned, not retried forever");
            assert_eq!(node.tracker.outstanding(), 0);
        }
    }

    #[test]
    fn backoff_and_jitter_stretch_the_retry_schedule() {
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
                tracker: RequestTracker::with_policy(
                    1000,
                    RetryPolicy {
                        max_retries: None,
                        backoff: 2.0,
                        jitter: 0.2,
                    },
                ),
                server,
                responses: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(60));
        let arrivals = &sim.node_ref::<Recorder>(server).unwrap().arrivals;
        // on_start sends with timeout 1s and 2 retries: original send plus
        // two resends, then abandonment.
        assert_eq!(arrivals.len(), 3, "{arrivals:?}");
        let gap1 = arrivals[1].since(arrivals[0]).as_secs_f64();
        let gap2 = arrivals[2].since(arrivals[1]).as_secs_f64();
        // First resend after ~1s (±20%), second after ~2s (±20%).
        assert!((0.8..=1.2).contains(&gap1), "gap1={gap1}");
        assert!((1.6..=2.4).contains(&gap2), "gap2={gap2}");
        assert!(
            (gap1 - 1.0).abs() > 1e-9 || (gap2 - 2.0).abs() > 1e-9,
            "jitter should perturb at least one delay"
        );
        assert_eq!(
            sim.node_ref::<ClientNode>(client).unwrap().timeouts,
            vec![0]
        );
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
            payload: encode_response(99, b"late"),
            trace: 0,
            span: 0,
        };
        assert!(tracker.accept(&pkt).is_none());
    }
}
