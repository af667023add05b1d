//! What the middleware's frames cost, counted in allocations: a
//! subscriber borrows what it accepts, acknowledgements go inline, a
//! QoS 1 delivery is one shared frame that its redeliveries reuse, and
//! a bridge batch is encoded once, however often it is resent, and
//! decoding one reserves no more than its bytes can hold.
//!
//! This file is its own test binary, so it can install the counting
//! `#[global_allocator]` without touching any other suite.

use pubsub::federation::{FederationConfig, ShardMap};
use pubsub::{BrokerNode, PubSubClient, PubSubEvent, QoS, Topic, TopicFilter, WirePacket};
use pubsub::{WirePacketRef, PUBSUB_PORT};
use simnet::batch::BatchPolicy;
use simnet::telemetry::{NO_SPAN, NO_TRACE};
use simnet::{
    Context, LinkModel, Node, NodeId, Packet, SimConfig, SimDuration, Simulator, TimerTag,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations_and_bytes_in, allocations_in};

/// Runs the wrapped node, recording what each callback allocates: per
/// packet with the kind of wire packet it carried, and per timer.
struct Counted<N> {
    inner: N,
    packets: Vec<(&'static str, u64)>,
    timers: Vec<(TimerTag, u64)>,
}

impl<N> Counted<N> {
    fn new(inner: N) -> Self {
        Counted {
            inner,
            packets: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Forgets what was recorded so far (the warm-up).
    fn reset(&mut self) {
        self.packets.clear();
        self.timers.clear();
    }

    /// The costs of the packets of one kind.
    fn costs(&self, kind: &str) -> Vec<u64> {
        self.packets
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, cost)| cost)
            .collect()
    }
}

fn kind(pkt: &Packet) -> &'static str {
    match WirePacketRef::decode(&pkt.payload).expect("well-formed traffic") {
        WirePacketRef::Publish { .. } => "publish",
        WirePacketRef::PubAck { .. } => "puback",
        WirePacketRef::Deliver { .. } => "deliver",
        WirePacketRef::DeliverAck { .. } => "deliver_ack",
        _ => "other",
    }
}

impl<N: Node> Node for Counted<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let kind = kind(&pkt);
        let ((), cost) = allocations_in(|| self.inner.on_packet(ctx, pkt));
        self.packets.push((kind, cost));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        let ((), cost) = allocations_in(|| self.inner.on_timer(ctx, tag));
        self.timers.push((tag, cost));
    }
}

const PUBLISH: TimerTag = TimerTag(1);

/// Publishes a 64-byte payload at QoS 1 every second.
struct Publisher {
    client: PubSubClient,
    topic: Topic,
    payload: Vec<u8>,
}

impl Node for Publisher {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), PUBLISH);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag != PUBLISH {
            self.client.on_timer(ctx, tag);
            return;
        }
        let (topic, payload) = (&self.topic, &self.payload);
        self.client.publish_ref(
            ctx,
            topic,
            payload,
            false,
            QoS::AtLeastOnce,
            NO_TRACE,
            NO_SPAN,
        );
        ctx.set_timer(SimDuration::from_secs(1), PUBLISH);
    }
}

/// Subscribes through a client, which acknowledges every delivery.
struct Subscriber {
    client: PubSubClient,
}

impl Node for Subscriber {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let filter = TopicFilter::new("d1/#").expect("grammatical");
        self.client.subscribe(ctx, filter, QoS::AtLeastOnce);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(PubSubEvent::Message { payload, .. }) = self.client.accept(ctx, &pkt) {
            assert_eq!(payload.len(), 64);
        }
    }
}

/// Subscribes at QoS 1 and never acknowledges, so every delivery to it
/// is redelivered until the broker gives up.
struct Mute {
    broker: NodeId,
}

impl Node for Mute {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let subscribe = WirePacket::Subscribe {
            filter: TopicFilter::new("d1/#").expect("grammatical"),
            qos: QoS::AtLeastOnce,
        };
        ctx.send(self.broker, PUBSUB_PORT, subscribe.encode());
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}

#[test]
fn qos1_frames_are_shared_acks_inline_and_deliveries_borrowed() {
    let mut sim = Simulator::new(SimConfig { seed: 29 });
    let broker = sim.add_node("broker", Counted::new(BrokerNode::new()));
    let subscriber = sim.add_node(
        "sub",
        Counted::new(Subscriber {
            client: PubSubClient::new(broker, 100),
        }),
    );
    sim.add_node("mute", Mute { broker });
    sim.run_for(SimDuration::from_millis(100));
    let publisher = sim.add_node(
        "pub",
        Counted::new(Publisher {
            client: PubSubClient::new(broker, 100),
            topic: Topic::new("d1/b1/temp").expect("grammatical"),
            payload: vec![0x5A; 64],
        }),
    );

    // Warm-up: series resolve, tables and buffers reach their size and
    // the first unacked deliveries exhaust their retries.
    sim.run_for(SimDuration::from_secs(30));
    sim.node_mut::<Counted<BrokerNode>>(broker)
        .expect("placed above")
        .reset();
    sim.node_mut::<Counted<Subscriber>>(subscriber)
        .expect("placed above")
        .reset();
    sim.node_mut::<Counted<Publisher>>(publisher)
        .expect("placed above")
        .reset();
    let retries_before = sim
        .node_ref::<Counted<BrokerNode>>(broker)
        .expect("placed above")
        .inner
        .stats()
        .retries;

    sim.run_for(SimDuration::from_secs(60));
    let at_broker = sim
        .node_ref::<Counted<BrokerNode>>(broker)
        .expect("placed above");
    let at_subscriber = sim
        .node_ref::<Counted<Subscriber>>(subscriber)
        .expect("placed above");
    let at_publisher = sim
        .node_ref::<Counted<Publisher>>(publisher)
        .expect("placed above");

    // The broker: a publish costs one shared frame per QoS 1 delivery
    // (here two) and nothing for its inline PubAck; an ack costs nothing;
    // a redelivery reuses the frame it kept, and a write-off frees it.
    let publishes = at_broker.costs("publish");
    assert_eq!(publishes.len(), 60);
    assert!(publishes.iter().all(|&cost| cost == 2), "{publishes:?}");
    let acks = at_broker.costs("deliver_ack");
    assert_eq!(acks.len(), 60);
    assert!(acks.iter().all(|&cost| cost == 0), "{acks:?}");
    let retries = at_broker.inner.stats().retries - retries_before;
    assert!(retries >= 150, "the mute subscriber is redelivered to");
    assert!(at_broker.timers.iter().all(|&(_, cost)| cost == 0));

    // The subscriber: accepting a delivery, and acknowledging it inline,
    // costs nothing.
    let delivers = at_subscriber.costs("deliver");
    assert_eq!(delivers.len(), 60);
    assert!(delivers.iter().all(|&cost| cost == 0), "{delivers:?}");

    // The publisher: each publish costs one shared frame, which a resend
    // would reuse; the retry timer after its ack and the PubAck's accept
    // cost nothing.
    for &(tag, cost) in &at_publisher.timers {
        assert_eq!(cost, u64::from(tag == PUBLISH), "timer {tag:?}");
    }
    let pub_acks = at_publisher.costs("puback");
    assert_eq!(pub_acks.len(), 60);
    assert!(pub_acks.iter().all(|&cost| cost == 0), "{pub_acks:?}");
}

/// Timer tags of the bridge's batch retries carry this bit.
const BATCH_RETRY_BIT: u64 = 1 << 63;

#[test]
fn a_bridge_batch_retry_resends_its_kept_frame() {
    let mut sim = Simulator::new(SimConfig { seed: 31 });
    let brokers = [
        sim.add_node("b0", Counted::new(BrokerNode::with_label("b0"))),
        sim.add_node("b1", BrokerNode::with_label("b1")),
    ];
    sim.set_link(brokers[0], brokers[1], LinkModel::ideal());
    let config = |index| FederationConfig {
        index,
        brokers: brokers.to_vec(),
        shard: ShardMap::new(2),
        batch: BatchPolicy {
            max_items: 8,
            max_bytes: 4 * 1024,
            max_age: SimDuration::from_millis(10),
        },
    };
    sim.node_mut::<Counted<BrokerNode>>(brokers[0])
        .expect("placed above")
        .inner
        .federate(config(0));
    sim.node_mut::<BrokerNode>(brokers[1])
        .expect("placed above")
        .federate(config(1));
    // A subscriber on b1 makes b0 forward its publishes over the bridge.
    sim.add_node(
        "sub",
        Subscriber {
            client: PubSubClient::new(brokers[1], 100),
        },
    );
    sim.run_for(SimDuration::from_millis(100));
    sim.add_node(
        "pub",
        Publisher {
            client: PubSubClient::new(brokers[0], 100),
            topic: Topic::new("d1/b1/temp").expect("grammatical"),
            payload: vec![0x5A; 64],
        },
    );
    sim.run_for(SimDuration::from_secs(5));
    // The bridge goes dark: every batch from here is resent until it is
    // written off, and the peer breaker trips, probes and trips again.
    sim.set_link(
        brokers[0],
        brokers[1],
        LinkModel::builder().loss(1.0).build(),
    );
    sim.run_for(SimDuration::from_secs(60));
    let at_b0 = sim
        .node_mut::<Counted<BrokerNode>>(brokers[0])
        .expect("placed above");
    at_b0.reset();
    let retries_before = at_b0.inner.bridge_stats().retries;

    sim.run_for(SimDuration::from_secs(120));
    let at_b0 = sim
        .node_ref::<Counted<BrokerNode>>(brokers[0])
        .expect("placed above");
    let retry_timers: Vec<u64> = at_b0
        .timers
        .iter()
        .filter(|(tag, _)| tag.0 & BATCH_RETRY_BIT != 0)
        .map(|&(_, cost)| cost)
        .collect();
    // Both outcomes ran in the window: resends, and firings past the
    // budget that write a batch off.
    let resends = at_b0.inner.bridge_stats().retries - retries_before;
    assert!(resends >= 8, "{resends} resends");
    assert!(retry_timers.len() as u64 > resends, "no batch expired");
    assert!(
        retry_timers.iter().all(|&cost| cost == 0),
        "{retry_timers:?}"
    );
}

#[test]
fn a_bridge_batch_reserves_no_more_frames_than_its_bytes_hold() {
    // Tag 11, incarnation, batch id and a claim of 4 096 frames: a
    // 19-byte header, then `pad` zero bytes, whose empty topic is no
    // frame at all.
    for pad in [0, 24, 240] {
        let mut packet = vec![11];
        packet.extend_from_slice(&7u64.to_le_bytes());
        packet.extend_from_slice(&1u64.to_le_bytes());
        packet.extend_from_slice(&4096u16.to_le_bytes());
        packet.resize(19 + pad, 0);
        let (rejected, allocations, bytes) =
            allocations_and_bytes_in(|| WirePacketRef::decode(&packet).is_err());
        assert!(rejected, "pad {pad}");
        assert!(
            bytes <= 4 * packet.len() as u64,
            "pad {pad}: {bytes} bytes in {allocations} allocations for a {}-byte packet",
            packet.len()
        );
    }
}
