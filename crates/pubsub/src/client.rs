//! The client half of the middleware, embedded in nodes.

use std::cell::OnceCell;
use std::ops::Deref;

use simnet::rpc::{Fired, Retransmit};
use simnet::{Context, NodeId, Packet as NetPacket, SimDuration, TimerTag};

use crate::wire::{Packet, PacketRef, QoS};
use crate::{Topic, TopicFilter, TopicRef, PUBSUB_PORT};
use simnet::telemetry::{CounterHandle, SpanId, TraceId, NO_SPAN, NO_TRACE};

/// Publisher-side retry interval for unacked QoS 1 publishes.
const PUBLISH_RETRY: SimDuration = SimDuration::from_secs(2);
const MAX_PUBLISH_RETRIES: u32 = 3;

/// Events surfaced by [`PubSubClient::accept`] and
/// [`PubSubClient::on_timer`]. A message borrows its topic and payload
/// from the packet that carried it (`'p`); a subscriber that keeps
/// either copies it out. A settled QoS 1 publish hands back what the
/// publisher kept beside it (`M`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PubSubEvent<'p, M = ()> {
    /// A message arrived on a subscribed topic.
    Message {
        /// The topic it was published under.
        topic: TopicRef<'p>,
        /// The payload.
        payload: Payload<'p>,
        /// Flight-recorder trace id of the originating publish
        /// (`telemetry::NO_TRACE` = 0 when untraced).
        trace: TraceId,
        /// Span id of this client's `sub.receive` hop (`NO_SPAN` when
        /// untraced); the owning node uses it as the parent of any
        /// further hops it records for the same trace.
        span: SpanId,
    },
    /// A QoS 1 publish was acknowledged by the broker.
    Published {
        /// The id returned by [`PubSubClient::publish`].
        id: u64,
        /// What the publisher kept beside it.
        meta: M,
    },
    /// A QoS 1 publish exhausted its retries without acknowledgement.
    PublishTimedOut {
        /// The id returned by [`PubSubClient::publish`].
        id: u64,
        /// What the publisher kept beside it.
        meta: M,
    },
    /// A keepalive probe revealed that the broker restarted since we last
    /// heard from it. The client has already re-sent its subscriptions
    /// (session resumption); the owning node may want to re-publish
    /// retained state.
    BrokerRestarted {
        /// The broker's new incarnation number.
        incarnation: u64,
    },
}

/// The payload of a [`PubSubEvent::Message`]: bytes borrowed from the
/// delivering packet, read through `Deref<Target = [u8]>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payload<'p>(&'p [u8]);

impl Deref for Payload<'_> {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.0
    }
}

/// Middleware client state a [`simnet::Node`] embeds.
///
/// The owning node must:
/// * route packets arriving on [`PUBSUB_PORT`] to
///   [`PubSubClient::accept`] (it auto-acknowledges QoS 1 deliveries);
/// * route timers whose tag the client [`owns`](PubSubClient::owns_tag)
///   to [`PubSubClient::on_timer`].
#[derive(Debug)]
pub struct PubSubClient<M = ()> {
    broker: NodeId,
    /// Publish ids start at 1; `tag_base + 0` is the keepalive timer.
    next_publish_id: u64,
    /// Unacked QoS 1 publishes and their `M`s, each retried under timer
    /// `tag_base + id`; the one record of the client's `tag_base`.
    pending: Retransmit<M>,
    /// Subscriptions this client holds, remembered so they can be
    /// re-sent when the broker restarts (session resumption).
    subs: Vec<(TopicFilter, QoS)>,
    /// Broker incarnation seen in the last Pong, if any.
    last_incarnation: Option<u64>,
    /// Keepalive probe interval; `None` until
    /// [`PubSubClient::start_keepalive`].
    keepalive: Option<SimDuration>,
    /// `pubsub.decode_error` is written per malformed packet, so it
    /// goes through a handle, resolved by the first one.
    decode_error: OnceCell<CounterHandle>,
}

impl<M> PubSubClient<M> {
    /// Creates a client talking to `broker`, using timer tags starting at
    /// `tag_base`.
    pub fn new(broker: NodeId, tag_base: u64) -> Self {
        PubSubClient {
            broker,
            next_publish_id: 1,
            pending: Retransmit::new(tag_base, PUBLISH_RETRY, MAX_PUBLISH_RETRIES),
            subs: Vec::new(),
            last_incarnation: None,
            keepalive: None,
            decode_error: OnceCell::new(),
        }
    }

    /// Number of QoS 1 publishes awaiting acknowledgement.
    pub fn pending_publishes(&self) -> usize {
        self.pending.outstanding()
    }

    /// Forgets all in-flight publishes and session state, handing back
    /// what the publisher kept beside each unacked publish, oldest first.
    ///
    /// Call from the owning node's `on_restart`: pre-crash retry timers
    /// are gone, so pending entries could never resolve. Remembered
    /// subscriptions are also cleared — a rebooted node re-subscribes
    /// itself, and re-arms the keepalive, as part of its boot path.
    pub fn reset(&mut self) -> Vec<M> {
        self.subs.clear();
        self.last_incarnation = None;
        self.keepalive = None;
        self.pending.drain()
    }

    /// Starts periodic broker keepalive probes (Ping/Pong).
    ///
    /// Each Pong carries the broker's incarnation number; when it changes
    /// the client re-sends every remembered subscription and surfaces
    /// [`PubSubEvent::BrokerRestarted`]. Without keepalive a subscriber
    /// that survives a broker restart silently stops receiving messages.
    pub fn start_keepalive(&mut self, ctx: &mut Context<'_>, interval: SimDuration) {
        self.keepalive = Some(interval);
        ctx.send(self.broker, PUBSUB_PORT, PacketRef::Ping.frame());
        ctx.set_timer(interval, TimerTag(self.pending.tag_base()));
    }

    /// Subscribes to `filter` with the given delivery guarantee and
    /// remembers the subscription for resumption after a broker restart.
    pub fn subscribe(&mut self, ctx: &mut Context<'_>, filter: TopicFilter, qos: QoS) {
        ctx.send(
            self.broker,
            PUBSUB_PORT,
            Packet::Subscribe {
                filter: filter.clone(),
                qos,
            }
            .encode(),
        );
        if !self.subs.iter().any(|(f, q)| *f == filter && *q == qos) {
            self.subs.push((filter, qos));
        }
    }

    /// Drops all of the node's subscriptions on `filter`.
    pub fn unsubscribe(&mut self, ctx: &mut Context<'_>, filter: TopicFilter) {
        ctx.send(
            self.broker,
            PUBSUB_PORT,
            Packet::Unsubscribe {
                filter: filter.clone(),
            }
            .encode(),
        );
        self.subs.retain(|(f, _)| *f != filter);
    }

    /// [`PubSubClient::publish`] on a borrowed topic and payload, for
    /// publishers that keep both (a Device-proxy's topic per quantity,
    /// its reused payload buffer): the frame is encoded straight from
    /// the borrows. A QoS 1 publish keeps `meta` until it settles; others
    /// drop it. The publish is stamped with a flight-recorder trace id
    /// that the broker propagates to every matching delivery (see
    /// [`PubSubEvent::Message::trace`]) and threads a causal parent
    /// span: the broker's `broker.publish` hop becomes a child of
    /// `parent`, so cross-node span trees stay connected (device sample
    /// → proxy ingest → publish → deliveries).
    #[allow(clippy::too_many_arguments)]
    pub fn publish_ref(
        &mut self,
        ctx: &mut Context<'_>,
        topic: &Topic,
        payload: &[u8],
        retain: bool,
        qos: QoS,
        trace: TraceId,
        parent: SpanId,
        meta: M,
    ) -> u64 {
        let id = self.next_publish_id;
        self.next_publish_id += 1;
        let packet = PacketRef::Publish {
            id,
            topic: TopicRef::from(topic),
            payload,
            retain,
            qos,
            trace,
            span: parent,
        };
        if qos != QoS::AtLeastOnce {
            ctx.send_spanned(self.broker, PUBSUB_PORT, packet.encode(), trace, parent);
            return id;
        }
        // QoS 1 keeps the frame for retransmission: the packet in flight
        // and every resend share its one allocation. A resend goes
        // untraced.
        let frame = packet.frame();
        ctx.send_spanned(self.broker, PUBSUB_PORT, frame.clone(), trace, parent);
        self.pending
            .keep(ctx, id, self.broker, PUBSUB_PORT, frame, NO_TRACE, meta);
        id
    }

    /// Feeds an incoming packet through the client. QoS 1 deliveries are
    /// acknowledged automatically. A message borrows its topic and
    /// payload from `pkt`, so accepting one allocates nothing.
    pub fn accept<'p>(
        &mut self,
        ctx: &mut Context<'_>,
        pkt: &'p NetPacket,
    ) -> Option<PubSubEvent<'p, M>> {
        let Ok(decoded) = PacketRef::decode(&pkt.payload) else {
            self.decode_error
                .get_or_init(|| {
                    ctx.telemetry()
                        .metrics
                        .counter_handle("pubsub.decode_error")
                })
                .incr();
            return None;
        };
        match decoded {
            PacketRef::Deliver {
                id,
                topic,
                payload,
                qos,
                trace,
                span: deliver_span,
            } => {
                if qos == QoS::AtLeastOnce {
                    ctx.send(pkt.src, PUBSUB_PORT, PacketRef::DeliverAck { id }.frame());
                }
                let span = if trace != NO_TRACE {
                    ctx.span_hop(
                        "sub.receive",
                        trace,
                        deliver_span,
                        format_args!("topic={topic}"),
                    )
                } else {
                    NO_SPAN
                };
                Some(PubSubEvent::Message {
                    topic,
                    payload: Payload(payload),
                    trace,
                    span,
                })
            }
            PacketRef::PubAck { id } => {
                let meta = self.pending.ack(id)?;
                Some(PubSubEvent::Published { id, meta })
            }
            PacketRef::Pong { incarnation } => {
                let restarted = self
                    .last_incarnation
                    .is_some_and(|prev| prev != incarnation);
                self.last_incarnation = Some(incarnation);
                if !restarted {
                    return None;
                }
                // The broker lost its subscription table; resume the
                // session by re-sending everything we remember.
                ctx.telemetry()
                    .metrics
                    .counter_handle("pubsub.resubscribe")
                    .incr();
                for (filter, qos) in self.subs.clone() {
                    ctx.send(
                        self.broker,
                        PUBSUB_PORT,
                        Packet::Subscribe { filter, qos }.encode(),
                    );
                }
                Some(PubSubEvent::BrokerRestarted { incarnation })
            }
            _ => None,
        }
    }

    /// Whether a timer tag belongs to this client.
    pub fn owns_tag(&self, tag: TimerTag) -> bool {
        tag.0
            .checked_sub(self.pending.tag_base())
            .is_some_and(|id| (id == 0 && self.keepalive.is_some()) || self.pending.contains(id))
    }

    /// Feeds a fired timer through the client.
    pub fn on_timer(
        &mut self,
        ctx: &mut Context<'_>,
        tag: TimerTag,
    ) -> Option<PubSubEvent<'static, M>> {
        let id = tag.0.checked_sub(self.pending.tag_base())?;
        if id == 0 {
            if let Some(interval) = self.keepalive {
                ctx.send(self.broker, PUBSUB_PORT, PacketRef::Ping.frame());
                ctx.set_timer(interval, tag);
            }
            return None;
        }
        let Fired::Expired(id, meta) = self.pending.on_timer(ctx, tag)? else {
            return None;
        };
        Some(PubSubEvent::PublishTimedOut { id, meta })
    }
}

impl PubSubClient {
    /// Publishes `payload` under `topic`. Returns the publish id; for
    /// QoS 1 the id later appears in [`PubSubEvent::Published`] or
    /// [`PubSubEvent::PublishTimedOut`].
    pub fn publish(
        &mut self,
        ctx: &mut Context<'_>,
        topic: Topic,
        payload: Vec<u8>,
        retain: bool,
        qos: QoS,
    ) -> u64 {
        self.publish_ref(ctx, &topic, &payload, retain, qos, NO_TRACE, NO_SPAN, ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BrokerNode;
    use simnet::{LinkModel, Node, SimConfig, Simulator};

    /// A test node that subscribes on start and records everything.
    struct Subscriber {
        client: PubSubClient,
        filter: TopicFilter,
        qos: QoS,
        messages: Vec<(Topic, Vec<u8>)>,
    }

    impl Node for Subscriber {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.client.subscribe(ctx, self.filter.clone(), self.qos);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: NetPacket) {
            if let Some(PubSubEvent::Message { topic, payload, .. }) = self.client.accept(ctx, &pkt)
            {
                self.messages.push((topic.to_topic(), payload.to_vec()));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            self.client.on_timer(ctx, tag);
        }
    }

    /// A test node that publishes a fixed message on start.
    struct Publisher {
        client: PubSubClient,
        topic: Topic,
        payload: Vec<u8>,
        retain: bool,
        qos: QoS,
        acks: Vec<u64>,
        timeouts: Vec<u64>,
    }

    impl Node for Publisher {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.client.publish(
                ctx,
                self.topic.clone(),
                self.payload.clone(),
                self.retain,
                self.qos,
            );
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: NetPacket) {
            match self.client.accept(ctx, &pkt) {
                Some(PubSubEvent::Published { id, .. }) => self.acks.push(id),
                Some(PubSubEvent::PublishTimedOut { id, .. }) => self.timeouts.push(id),
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            if let Some(PubSubEvent::PublishTimedOut { id, .. }) = self.client.on_timer(ctx, tag) {
                self.timeouts.push(id);
            }
        }
    }

    fn topic(s: &str) -> Topic {
        Topic::new(s).unwrap()
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).unwrap()
    }

    fn build() -> (Simulator, simnet::NodeId) {
        let mut sim = Simulator::new(SimConfig { seed: 42 });
        let broker = sim.add_node("broker", BrokerNode::new());
        (sim, broker)
    }

    #[test]
    fn publish_reaches_matching_subscribers() {
        let (mut sim, broker) = build();
        let sub_a = sim.add_node(
            "sub_a",
            Subscriber {
                client: PubSubClient::new(broker, 100),
                filter: filter("d1/#"),
                qos: QoS::AtMostOnce,
                messages: vec![],
            },
        );
        let sub_b = sim.add_node(
            "sub_b",
            Subscriber {
                client: PubSubClient::new(broker, 100),
                filter: filter("d2/#"),
                qos: QoS::AtMostOnce,
                messages: vec![],
            },
        );
        sim.run_for(SimDuration::from_millis(100));
        let _pub = sim.add_node(
            "pub",
            Publisher {
                client: PubSubClient::new(broker, 100),
                topic: topic("d1/b1/temp"),
                payload: b"21.5".to_vec(),
                retain: false,
                qos: QoS::AtMostOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            sim.node_ref::<Subscriber>(sub_a).unwrap().messages,
            vec![(topic("d1/b1/temp"), b"21.5".to_vec())]
        );
        assert!(sim
            .node_ref::<Subscriber>(sub_b)
            .unwrap()
            .messages
            .is_empty());
        let stats = sim.node_ref::<BrokerNode>(broker).unwrap().stats();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn qos1_publish_is_acked() {
        let (mut sim, broker) = build();
        let p = sim.add_node(
            "pub",
            Publisher {
                client: PubSubClient::new(broker, 100),
                topic: topic("d1/x"),
                payload: b"1".to_vec(),
                retain: false,
                qos: QoS::AtLeastOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        let p = sim.node_ref::<Publisher>(p).unwrap();
        assert_eq!(p.acks, vec![1], "publish ids start at 1");
        assert_eq!(p.client.pending_publishes(), 0);
    }

    #[test]
    fn qos1_delivery_retries_on_loss() {
        // 70% loss: retries push through eventually (or drop after 3).
        let (mut sim, broker) = build();
        let lossy = LinkModel::builder().loss(0.5).build();
        let s = sim.add_node(
            "sub",
            Subscriber {
                client: PubSubClient::new(broker, 100),
                filter: filter("#"),
                qos: QoS::AtLeastOnce,
                messages: vec![],
            },
        );
        sim.set_link(broker, s, lossy.clone());
        sim.run_for(SimDuration::from_millis(100));
        for i in 0..20 {
            let p = sim.add_node(
                format!("pub{i}"),
                Publisher {
                    client: PubSubClient::new(broker, 100),
                    topic: topic("d1/x"),
                    payload: vec![i],
                    retain: false,
                    qos: QoS::AtLeastOnce,
                    acks: vec![],
                    timeouts: vec![],
                },
            );
            sim.set_link(broker, p, lossy.clone());
        }
        sim.run_for(SimDuration::from_secs(60));
        let stats = sim.node_ref::<BrokerNode>(broker).unwrap().stats();
        let sub = sim.node_ref::<Subscriber>(s).unwrap();
        // With 50% loss and publisher retries, most publishes arrive; all
        // that the broker accepted are either delivered+acked or dropped.
        assert!(stats.published > 0);
        assert!(stats.retries > 0, "loss must trigger retries: {stats:?}");
        assert!(!sub.messages.is_empty());
        assert_eq!(
            sim.node_ref::<BrokerNode>(broker)
                .unwrap()
                .pending_deliveries(),
            0,
            "all deliveries settle within the horizon"
        );
    }

    #[test]
    fn retained_message_reaches_late_subscriber() {
        let (mut sim, broker) = build();
        let _pub = sim.add_node(
            "pub",
            Publisher {
                client: PubSubClient::new(broker, 100),
                topic: topic("d1/b1/temp"),
                payload: b"latest".to_vec(),
                retain: true,
                qos: QoS::AtMostOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        let late = sim.add_node(
            "late",
            Subscriber {
                client: PubSubClient::new(broker, 100),
                filter: filter("d1/+/temp"),
                qos: QoS::AtMostOnce,
                messages: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            sim.node_ref::<Subscriber>(late).unwrap().messages,
            vec![(topic("d1/b1/temp"), b"latest".to_vec())]
        );
        assert_eq!(
            sim.node_ref::<BrokerNode>(broker).unwrap().stats().retained,
            1
        );
    }

    #[test]
    fn empty_retained_payload_clears() {
        let (mut sim, broker) = build();
        sim.add_node(
            "pub1",
            Publisher {
                client: PubSubClient::new(broker, 100),
                topic: topic("d1/t"),
                payload: b"x".to_vec(),
                retain: true,
                qos: QoS::AtMostOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        sim.add_node(
            "pub2",
            Publisher {
                client: PubSubClient::new(broker, 100),
                topic: topic("d1/t"),
                payload: vec![],
                retain: true,
                qos: QoS::AtMostOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        let late = sim.add_node(
            "late",
            Subscriber {
                client: PubSubClient::new(broker, 100),
                filter: filter("#"),
                qos: QoS::AtMostOnce,
                messages: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim
            .node_ref::<Subscriber>(late)
            .unwrap()
            .messages
            .is_empty());
        assert_eq!(
            sim.node_ref::<BrokerNode>(broker).unwrap().stats().retained,
            0
        );
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        struct FickleSubscriber {
            client: PubSubClient,
            messages: usize,
        }
        impl Node for FickleSubscriber {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.client.subscribe(ctx, filter("d1/#"), QoS::AtMostOnce);
                // Unsubscribe shortly after.
                ctx.set_timer(SimDuration::from_millis(500), TimerTag(1));
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: NetPacket) {
                if let Some(PubSubEvent::Message { .. }) = self.client.accept(ctx, &pkt) {
                    self.messages += 1;
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
                if tag == TimerTag(1) {
                    self.client.unsubscribe(ctx, filter("d1/#"));
                }
            }
        }
        let (mut sim, broker) = build();
        let s = sim.add_node(
            "fickle",
            FickleSubscriber {
                client: PubSubClient::new(broker, 100),
                messages: 0,
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        sim.add_node(
            "pub",
            Publisher {
                client: PubSubClient::new(broker, 100),
                topic: topic("d1/x"),
                payload: b"1".to_vec(),
                retain: false,
                qos: QoS::AtMostOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node_ref::<FickleSubscriber>(s).unwrap().messages, 0);
    }

    /// A subscriber with keepalive enabled; records broker restarts.
    struct ResumingSubscriber {
        client: PubSubClient,
        filter: TopicFilter,
        messages: Vec<Vec<u8>>,
        restarts_seen: u32,
    }

    impl Node for ResumingSubscriber {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.client
                .subscribe(ctx, self.filter.clone(), QoS::AtLeastOnce);
            self.client.start_keepalive(ctx, SimDuration::from_secs(5));
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: NetPacket) {
            match self.client.accept(ctx, &pkt) {
                Some(PubSubEvent::Message { payload, .. }) => self.messages.push(payload.to_vec()),
                Some(PubSubEvent::BrokerRestarted { .. }) => self.restarts_seen += 1,
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            self.client.on_timer(ctx, tag);
        }
    }

    #[test]
    fn keepalive_detects_broker_restart_and_resubscribes() {
        let (mut sim, broker) = build();
        let s = sim.add_node(
            "sub",
            ResumingSubscriber {
                client: PubSubClient::new(broker, 100),
                filter: filter("d1/#"),
                messages: vec![],
                restarts_seen: 0,
            },
        );
        sim.run_for(SimDuration::from_secs(10));
        // Crash and reboot the broker: the subscription table is wiped,
        // so a publish before the next keepalive reaches nobody.
        sim.crash(broker);
        sim.restart(broker, SimDuration::from_secs(1));
        sim.run_for(SimDuration::from_secs(2));
        sim.add_node(
            "pub-early",
            Publisher {
                client: PubSubClient::new(broker, 100),
                topic: topic("d1/lost"),
                payload: b"lost".to_vec(),
                retain: false,
                qos: QoS::AtMostOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        let sub = sim.node_ref::<ResumingSubscriber>(s).unwrap();
        assert!(sub.messages.is_empty(), "restart wipes subscriptions");
        // Within one keepalive interval the client notices the new
        // incarnation and re-subscribes.
        sim.run_for(SimDuration::from_secs(10));
        let broker_node = sim.node_ref::<BrokerNode>(broker).unwrap();
        assert_eq!(broker_node.incarnation(), 1);
        let sub = sim.node_ref::<ResumingSubscriber>(s).unwrap();
        assert_eq!(sub.restarts_seen, 1);
        // Messages flow again end to end.
        sim.add_node(
            "pub",
            Publisher {
                client: PubSubClient::new(broker, 100),
                topic: topic("d1/after"),
                payload: b"back".to_vec(),
                retain: false,
                qos: QoS::AtLeastOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(5));
        let sub = sim.node_ref::<ResumingSubscriber>(s).unwrap();
        assert_eq!(sub.messages, vec![b"back".to_vec()]);
        assert!(sim.telemetry().metrics.counter("pubsub.resubscribe") >= 1);
    }

    #[test]
    fn qos1_accounting_is_conserved_across_a_broker_restart() {
        // Lossy link + broker restart mid-stream: every QoS 1 delivery the
        // broker enqueued must end up acked, dropped, or still pending.
        let (mut sim, broker) = build();
        let lossy = LinkModel::builder().loss(0.3).build();
        let s = sim.add_node(
            "sub",
            ResumingSubscriber {
                client: PubSubClient::new(broker, 100),
                filter: filter("#"),
                messages: vec![],
                restarts_seen: 0,
            },
        );
        sim.set_link(broker, s, lossy.clone());
        sim.run_for(SimDuration::from_secs(2));
        for i in 0..10 {
            let p = sim.add_node(
                format!("pub{i}"),
                Publisher {
                    client: PubSubClient::new(broker, 100),
                    topic: topic("d1/x"),
                    payload: vec![i],
                    retain: false,
                    qos: QoS::AtLeastOnce,
                    acks: vec![],
                    timeouts: vec![],
                },
            );
            sim.set_link(broker, p, lossy.clone());
        }
        sim.run_for(SimDuration::from_secs(3));
        sim.crash(broker);
        sim.restart(broker, SimDuration::from_secs(2));
        sim.run_for(SimDuration::from_secs(60));
        let b = sim.node_ref::<BrokerNode>(broker).unwrap();
        let stats = b.stats();
        assert!(stats.qos1_enqueued > 0);
        assert_eq!(
            stats.qos1_enqueued,
            stats.acked + stats.dropped + b.pending_deliveries() as u64,
            "conservation violated: {stats:?}"
        );
    }

    #[test]
    fn qos1_delivery_degrades_to_at_most_once_at_pending_capacity() {
        use crate::broker::DEFAULT_PENDING_CAPACITY;

        /// Subscribes at QoS 1 and never acknowledges a delivery.
        struct MuteSubscriber {
            broker: NodeId,
        }
        impl Node for MuteSubscriber {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let subscribe = Packet::Subscribe {
                    filter: filter("#"),
                    qos: QoS::AtLeastOnce,
                };
                ctx.send(self.broker, PUBSUB_PORT, subscribe.encode());
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: NetPacket) {}
        }
        /// Sends `count` QoS 1 publishes at once.
        struct Burst {
            broker: NodeId,
            count: u64,
        }
        impl Node for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for id in 0..self.count {
                    let publish = Packet::Publish {
                        id,
                        topic: topic("d1/x"),
                        payload: vec![],
                        retain: false,
                        qos: QoS::AtLeastOnce,
                        trace: NO_TRACE,
                        span: NO_SPAN,
                    };
                    ctx.send(self.broker, PUBSUB_PORT, publish.encode());
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: NetPacket) {}
        }
        let capacity = DEFAULT_PENDING_CAPACITY as u64;
        let (mut sim, broker) = build();
        sim.add_node("mute", MuteSubscriber { broker });
        sim.run_for(SimDuration::from_millis(100));
        // Both bursts land before the first redelivery timeout (2 s).
        // At the bound the table is full and nothing has been shed.
        let count = capacity;
        sim.add_node("fill", Burst { broker, count });
        sim.run_for(SimDuration::from_millis(500));
        let b = sim.node_ref::<BrokerNode>(broker).unwrap();
        let stats = b.stats();
        assert_eq!(b.pending_deliveries() as u64, capacity);
        assert_eq!((stats.qos1_enqueued, stats.queue_shed), (capacity, 0));
        assert_eq!((stats.acked, stats.dropped), (0, 0));

        // One past it: sent once, written off, the table no larger.
        sim.add_node("overflow", Burst { broker, count: 1 });
        sim.run_for(SimDuration::from_millis(500));
        let b = sim.node_ref::<BrokerNode>(broker).unwrap();
        let stats = b.stats();
        assert_eq!(b.pending_deliveries() as u64, capacity);
        assert_eq!((stats.qos1_enqueued, stats.queue_shed), (capacity + 1, 1));
        assert_eq!(stats.delivered, capacity + 1, "the shed delivery was sent");
        assert_eq!(
            stats.qos1_enqueued,
            stats.acked + stats.dropped + b.pending_deliveries() as u64
        );
    }

    #[test]
    fn malformed_packets_are_counted_not_ignored() {
        struct Garbler {
            broker: NodeId,
        }
        impl Node for Garbler {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(self.broker, PUBSUB_PORT, vec![0xFF, 0x00, 0x01]);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: NetPacket) {}
        }
        let (mut sim, broker) = build();
        sim.add_node("garbler", Garbler { broker });
        sim.run_for(SimDuration::from_secs(1));
        let stats = sim.node_ref::<BrokerNode>(broker).unwrap().stats();
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(sim.telemetry().metrics.counter("pubsub.decode_error"), 1);
    }

    #[test]
    fn publish_times_out_without_broker() {
        // Broker that never answers: black-hole node.
        struct BlackHole;
        impl Node for BlackHole {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: NetPacket) {}
        }
        let mut sim = Simulator::new(SimConfig::default());
        let hole = sim.add_node("hole", BlackHole);
        let p = sim.add_node(
            "pub",
            Publisher {
                client: PubSubClient::new(hole, 100),
                topic: topic("d1/x"),
                payload: b"1".to_vec(),
                retain: false,
                qos: QoS::AtLeastOnce,
                acks: vec![],
                timeouts: vec![],
            },
        );
        sim.run_for(SimDuration::from_secs(30));
        let p = sim.node_ref::<Publisher>(p).unwrap();
        assert!(p.acks.is_empty());
        assert_eq!(p.timeouts, vec![1]);
    }
}
