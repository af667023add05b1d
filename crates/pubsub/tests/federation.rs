//! End-to-end tests of the federated broker tier: cross-broker routing,
//! bridge batching, batch dedup over the retry horizon, retained
//! mirroring, advertisement withdrawal and incarnation recovery — all
//! over the simulated network.

use pubsub::federation::{self, FederationConfig, ShardMap};
use pubsub::{BrokerNode, PubSubClient, PubSubEvent, QoS, Topic, TopicFilter, WirePacketRef};
use simnet::batch::BatchPolicy;
use simnet::{
    Context, LinkModel, Node, NodeId, Packet, SimConfig, SimDuration, SimTime, Simulator, TimerTag,
};

/// Client timer tags start here; script tags stay tiny.
const CLIENT_TAGS: u64 = 1 << 40;
const TAG_PUBLISH: u64 = 1;
const TAG_SUBSCRIBE: u64 = 2;
const TAG_UNSUBSCRIBE: u64 = 3;

/// The simulation seed of a test: `base` shifted by `DIMMER_SEED`, so
/// the seed sweep in `scripts/ci.sh` runs every scenario under other
/// timings.
fn seed(base: u64) -> u64 {
    base + std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
}

/// Adds a client node on an ideal link to its `broker`.
fn add_client<N: Node>(sim: &mut Simulator, broker: NodeId, name: &str, node: N) -> NodeId {
    let id = sim.add_node(name, node);
    sim.set_link(broker, id, LinkModel::ideal());
    id
}

fn small_batches() -> BatchPolicy {
    BatchPolicy {
        max_items: 8,
        max_bytes: 4 * 1024,
        max_age: SimDuration::from_millis(10),
    }
}

/// Puts federated `brokers` on ideal links to each other.
fn link_ideally(sim: &mut Simulator, brokers: &[NodeId]) {
    for (i, &a) in brokers.iter().enumerate() {
        for &b in &brokers[i + 1..] {
            sim.set_link(a, b, LinkModel::ideal());
        }
    }
}

/// The broker at `id`, bare or wrapped in [`DropAcks`].
fn broker(sim: &Simulator, id: NodeId) -> &BrokerNode {
    sim.node_ref::<BrokerNode>(id)
        .or_else(|| sim.node_ref::<DropAcks>(id).map(|d| &d.inner))
        .expect("broker")
}

/// Every bridge frame a broker ever enqueued is accounted for.
fn assert_bridge_conservation(sim: &Simulator, brokers: &[NodeId]) {
    for &id in brokers {
        let b = broker(sim, id);
        let s = b.bridge_stats();
        assert_eq!(
            s.frames_enqueued,
            s.frames_acked
                + s.frames_dropped
                + b.bridge_in_flight() as u64
                + b.bridge_buffered() as u64,
            "bridge conservation on {id}: {s:?}"
        );
    }
}

/// A subscriber that can subscribe at a delay, unsubscribe on schedule,
/// and records every message (topic text, payload).
struct Sub {
    client: PubSubClient,
    filter: &'static str,
    qos: QoS,
    subscribe_at: SimDuration,
    unsubscribe_at: Option<SimDuration>,
    keepalive: Option<SimDuration>,
    got: Vec<(String, Vec<u8>)>,
}

impl Sub {
    fn new(broker: NodeId, filter: &'static str, qos: QoS) -> Self {
        Sub {
            client: PubSubClient::new(broker, CLIENT_TAGS),
            filter,
            qos,
            subscribe_at: SimDuration::ZERO,
            unsubscribe_at: None,
            keepalive: None,
            got: Vec::new(),
        }
    }
}

impl Node for Sub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.subscribe_at, TimerTag(TAG_SUBSCRIBE));
        if let Some(at) = self.unsubscribe_at {
            ctx.set_timer(at, TimerTag(TAG_UNSUBSCRIBE));
        }
        if let Some(interval) = self.keepalive {
            self.client.start_keepalive(ctx, interval);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(PubSubEvent::Message { topic, payload, .. }) = self.client.accept(ctx, &pkt) {
            self.got.push((topic.as_str().to_owned(), payload.to_vec()));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        match tag.0 {
            TAG_SUBSCRIBE => {
                let filter = TopicFilter::new(self.filter).expect("filter");
                self.client.subscribe(ctx, filter, self.qos);
            }
            TAG_UNSUBSCRIBE => {
                let filter = TopicFilter::new(self.filter).expect("filter");
                self.client.unsubscribe(ctx, filter);
            }
            _ => {
                if self.client.owns_tag(tag) {
                    self.client.on_timer(ctx, tag);
                }
            }
        }
    }
}

/// Publishes `count` sequenced messages on an interval, payload = seq.
struct Pub {
    client: PubSubClient,
    topic: &'static str,
    count: u64,
    interval: SimDuration,
    qos: QoS,
    retain: bool,
    sent: u64,
}

impl Pub {
    fn new(broker: NodeId, topic: &'static str, count: u64, interval: SimDuration) -> Self {
        Pub {
            client: PubSubClient::new(broker, CLIENT_TAGS),
            topic,
            count,
            interval,
            qos: QoS::AtMostOnce,
            retain: false,
            sent: 0,
        }
    }
}

impl Node for Pub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.interval, TimerTag(TAG_PUBLISH));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag.0 == TAG_PUBLISH {
            if self.sent < self.count {
                let topic = Topic::new(self.topic).expect("topic");
                let payload = self.sent.to_string().into_bytes();
                self.client
                    .publish(ctx, topic, payload, self.retain, self.qos);
                self.sent += 1;
                ctx.set_timer(self.interval, TimerTag(TAG_PUBLISH));
            }
        } else if self.client.owns_tag(tag) {
            self.client.on_timer(ctx, tag);
        }
    }
}

/// Payload sequence numbers a subscriber saw, in arrival order.
fn seqs(got: &[(String, Vec<u8>)]) -> Vec<u64> {
    got.iter()
        .map(|(_, p)| String::from_utf8_lossy(p).parse().expect("seq payload"))
        .collect()
}

fn assert_exactly_once(got: &[(String, Vec<u8>)], count: u64, who: &str) {
    let mut s = seqs(got);
    s.sort_unstable();
    let expect: Vec<u64> = (0..count).collect();
    assert_eq!(s, expect, "{who}: every publish exactly once");
}

#[test]
fn cross_shard_publishes_delivered_exactly_once() {
    let mut sim = Simulator::new(SimConfig { seed: seed(11) });
    let brokers = federation::add_brokers(&mut sim, 3, small_batches());
    link_ideally(&mut sim, &brokers);
    // d0 is owned by broker 0; subscribers hang off all three brokers.
    let local = add_client(
        &mut sim,
        brokers[0],
        "sub-local",
        Sub::new(brokers[0], "district/d0/#", QoS::AtMostOnce),
    );
    let far_hash = add_client(
        &mut sim,
        brokers[1],
        "sub-far-hash",
        Sub::new(
            brokers[1],
            "district/d0/entity/+/device/+/+",
            QoS::AtMostOnce,
        ),
    );
    let far_tree = add_client(
        &mut sim,
        brokers[2],
        "sub-far-tree",
        Sub::new(brokers[2], "district/d0/#", QoS::AtMostOnce),
    );
    const N: u64 = 40;
    // Publish fast relative to the 10ms batch age so batching has
    // something to amortize.
    let publisher = Pub::new(
        brokers[0],
        "district/d0/entity/e1/device/m3/power",
        N,
        SimDuration::from_millis(1),
    );
    add_client(&mut sim, brokers[0], "pub", publisher);
    sim.run_until(SimTime::from_secs(5));

    for (id, who) in [
        (local, "local"),
        (far_hash, "far-hash"),
        (far_tree, "far-tree"),
    ] {
        assert_exactly_once(&sim.node_ref::<Sub>(id).expect("sub").got, N, who);
    }
    // The owner forwarded one copy per interested peer, batched: far
    // fewer wire frames than publishes crossed each bridge.
    let owner = sim.node_ref::<BrokerNode>(brokers[0]).expect("broker");
    let stats = owner.bridge_stats();
    assert_eq!(stats.frames_enqueued, 2 * N, "one copy per remote peer");
    assert_eq!(stats.frames_acked, 2 * N);
    assert_eq!(stats.frames_dropped, 0);
    assert!(
        stats.batches_sent <= N / 2,
        "batching must amortize: {} batches for {} publishes",
        stats.batches_sent,
        N
    );
    assert_bridge_conservation(&sim, &brokers);
}

#[test]
fn retained_messages_cross_the_bridge_to_late_subscribers() {
    let mut sim = Simulator::new(SimConfig { seed: seed(12) });
    let brokers = federation::add_brokers(&mut sim, 2, small_batches());
    link_ideally(&mut sim, &brokers);
    // One retained publish to the owner (broker 0) at t=50ms.
    let mut publisher = Pub::new(
        brokers[0],
        "district/d0/entity/e1/device/m1/setpoint",
        1,
        SimDuration::from_millis(50),
    );
    publisher.retain = true;
    add_client(&mut sim, brokers[0], "pub", publisher);
    // A subscriber appears on the *other* broker a full second later.
    let mut late = Sub::new(brokers[1], "district/d0/#", QoS::AtMostOnce);
    late.subscribe_at = SimDuration::from_secs(1);
    let late = add_client(&mut sim, brokers[1], "late-sub", late);
    sim.run_until(SimTime::from_secs(3));

    let got = &sim.node_ref::<Sub>(late).expect("sub").got;
    assert_eq!(got.len(), 1, "late subscriber got the retained message");
    assert_eq!(got[0].1, b"0".to_vec());
    // The mirror now lives on broker 1 too.
    let far = sim.node_ref::<BrokerNode>(brokers[1]).expect("broker");
    assert_eq!(far.stats().retained, 1);
    assert_bridge_conservation(&sim, &brokers);
}

#[test]
fn unsubscribe_withdraws_the_advertisement() {
    let mut sim = Simulator::new(SimConfig { seed: seed(13) });
    let brokers = federation::add_brokers(&mut sim, 2, small_batches());
    link_ideally(&mut sim, &brokers);
    // Subscriber on broker 1 walks away at t=1s; publisher keeps going
    // until t≈4s.
    let mut sub = Sub::new(brokers[1], "district/d0/#", QoS::AtMostOnce);
    // Between the seq-9 publish (t=1s) and the seq-10 one (t=1.1s), off
    // the knife edge: in-flight batches have drained when it lands.
    sub.unsubscribe_at = Some(SimDuration::from_millis(1050));
    let sub = add_client(&mut sim, brokers[1], "sub", sub);
    const N: u64 = 40;
    add_client(
        &mut sim,
        brokers[0],
        "pub",
        Pub::new(
            brokers[0],
            "district/d0/entity/e1/device/m1/power",
            N,
            SimDuration::from_millis(100),
        ),
    );
    sim.run_until(SimTime::from_secs(6));

    let got = seqs(&sim.node_ref::<Sub>(sub).expect("sub").got);
    // Publishes at 100ms..1000ms (seqs 0..=9) arrive; later ones must
    // not cross the bridge at all.
    assert!(
        !got.is_empty() && got.len() < N as usize,
        "stopped mid-run: {got:?}"
    );
    let owner = sim.node_ref::<BrokerNode>(brokers[0]).expect("broker");
    assert_eq!(
        owner.bridge_stats().frames_enqueued,
        got.len() as u64,
        "no frames forwarded after the unadvertise"
    );
    assert_bridge_conservation(&sim, &brokers);
}

#[test]
fn owner_restart_recovers_cross_shard_routing() {
    let mut sim = Simulator::new(SimConfig { seed: seed(14) });
    let brokers = federation::add_brokers(&mut sim, 2, small_batches());
    link_ideally(&mut sim, &brokers);
    // QoS 1 publisher: its client retries unacked publishes, so the
    // owner's 1-second outage must not lose anything.
    let mut publisher = Pub::new(
        brokers[0],
        "district/d0/entity/e1/device/m1/power",
        30,
        SimDuration::from_millis(250),
    );
    publisher.qos = QoS::AtLeastOnce;
    add_client(&mut sim, brokers[0], "pub", publisher);
    let mut sub = Sub::new(brokers[1], "district/d0/#", QoS::AtLeastOnce);
    sub.keepalive = Some(SimDuration::from_millis(500));
    let sub = add_client(&mut sim, brokers[1], "sub", sub);

    sim.run_until(SimTime::from_secs(2));
    sim.crash(brokers[0]);
    sim.restart(brokers[0], SimDuration::from_secs(1));
    sim.run_until(SimTime::from_secs(20));

    // After the restart the subscriber's broker re-advertised (prompted
    // by the owner's BridgeHello), so post-recovery publishes flow again.
    let got = seqs(&sim.node_ref::<Sub>(sub).expect("sub").got);
    let mut unique = got.clone();
    unique.sort_unstable();
    unique.dedup();
    // A *broker* crash can lose the handful of publishes it acked but
    // still held buffered for the bridge, plus those accepted before the
    // peer's re-advertisement landed — the same window a single-broker
    // restart has. The tail must flow again, and the gap stays small.
    // (Zero-loss holds for bridge *link* faults: see tests/chaos.rs.)
    assert_eq!(
        *unique.last().expect("got messages"),
        29,
        "routing recovered"
    );
    assert!(unique.len() >= 24, "bounded crash-window gap: {unique:?}");
    let owner = sim.node_ref::<BrokerNode>(brokers[0]).expect("broker");
    assert!(owner.incarnation() >= 1);
    assert_bridge_conservation(&sim, &brokers);
}

#[test]
fn remote_restart_wipes_and_relearns_advertisements() {
    let mut sim = Simulator::new(SimConfig { seed: seed(15) });
    let brokers = federation::add_brokers(&mut sim, 2, small_batches());
    link_ideally(&mut sim, &brokers);
    let mut sub = Sub::new(brokers[1], "district/d0/#", QoS::AtLeastOnce);
    // Keepalive lets the subscriber re-subscribe to its restarted broker,
    // which in turn re-advertises across the bridge.
    sub.keepalive = Some(SimDuration::from_millis(500));
    let sub = add_client(&mut sim, brokers[1], "sub", sub);
    let mut publisher = Pub::new(
        brokers[0],
        "district/d0/entity/e1/device/m1/power",
        30,
        SimDuration::from_millis(250),
    );
    publisher.qos = QoS::AtLeastOnce;
    add_client(&mut sim, brokers[0], "pub", publisher);

    sim.run_until(SimTime::from_secs(2));
    sim.crash(brokers[1]);
    sim.restart(brokers[1], SimDuration::from_secs(1));
    sim.run_until(SimTime::from_secs(20));

    let got = seqs(&sim.node_ref::<Sub>(sub).expect("sub").got);
    let mut unique = got.clone();
    unique.sort_unstable();
    unique.dedup();
    // Messages published while broker 1 was down (and before the
    // subscriber's session resumed) can be lost — that matches the
    // single-broker restart semantics — but the tail must flow again.
    assert_eq!(
        *unique.last().expect("got messages"),
        29,
        "routing recovered"
    );
    assert!(unique.len() >= 20, "short outage, small gap: {unique:?}");
    assert_bridge_conservation(&sim, &brokers);
}

/// Publishes one message with a minted trace id and a root span, so the
/// flight recorder can rebuild the full causal tree.
struct TracedPub {
    client: PubSubClient,
    topic: &'static str,
    trace: u64,
}

impl Node for TracedPub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(50), TimerTag(TAG_PUBLISH));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag.0 == TAG_PUBLISH {
            self.trace = ctx.telemetry().tracer.next_trace_id();
            let span = ctx.trace_hop("pub.send", self.trace, format_args!("{}", self.topic));
            let topic = Topic::new(self.topic).expect("topic");
            self.client.publish_ref(
                ctx,
                &topic,
                b"42",
                false,
                QoS::AtMostOnce,
                self.trace,
                span,
                (),
            );
        } else if self.client.owns_tag(tag) {
            self.client.on_timer(ctx, tag);
        }
    }
}

#[test]
fn span_tree_reconstructs_cross_shard_flight_with_bridge_hop() {
    use simnet::telemetry::SpanNode;

    let mut sim = Simulator::new(SimConfig { seed: seed(21) });
    let brokers = federation::add_brokers(&mut sim, 2, small_batches());
    link_ideally(&mut sim, &brokers);
    // Subscriber on shard 1 for a topic owned by shard 1; the publisher
    // hangs off shard 0, so delivery must cross the bridge.
    let sub = add_client(
        &mut sim,
        brokers[1],
        "sub",
        Sub::new(brokers[1], "district/d1/#", QoS::AtMostOnce),
    );
    let publisher = add_client(
        &mut sim,
        brokers[0],
        "pub",
        TracedPub {
            client: PubSubClient::new(brokers[0], CLIENT_TAGS),
            topic: "district/d1/entity/e1/device/m1/power",
            trace: 0,
        },
    );
    sim.run_for(SimDuration::from_secs(5));

    assert_eq!(
        sim.node_ref::<Sub>(sub).expect("sub").got.len(),
        1,
        "the traced publish was delivered"
    );
    let trace = sim.node_ref::<TracedPub>(publisher).expect("pub").trace;
    assert_ne!(trace, 0, "publisher minted a trace");

    let trees = sim.telemetry().span_trees();
    let tree = trees
        .iter()
        .find(|t| t.trace_id == trace)
        .expect("flight recorder kept the trace");
    assert_eq!(tree.roots.len(), 1, "one causal root");

    // Walk root-to-leaf: the device→shard0→bridge→shard1→subscriber
    // chain must appear as parent→child links, not just as a flat bag
    // of hops.
    fn leaf_path<'a>(node: &'a SpanNode, path: &mut Vec<&'a SpanNode>, out: &mut Vec<Vec<String>>) {
        path.push(node);
        if node.children.is_empty() {
            out.push(path.iter().map(|n| n.hop.kind.clone()).collect());
        }
        for c in &node.children {
            leaf_path(c, path, out);
        }
        path.pop();
    }
    let mut paths = Vec::new();
    leaf_path(&tree.roots[0], &mut Vec::new(), &mut paths);
    let expect = [
        "pub.send",
        "broker.publish",
        "bridge.forward",
        "bridge.deliver",
        "broker.deliver",
        "sub.receive",
    ];
    assert!(
        paths.iter().any(|p| p == &expect),
        "no root-to-leaf path matches {expect:?}; got {paths:?}"
    );

    // The bridge hop really crossed shards: forward on broker-0,
    // deliver on broker-1.
    let nodes = tree.nodes();
    let fwd = nodes
        .iter()
        .find(|n| n.hop.kind == "bridge.forward")
        .expect("bridge.forward span");
    let del = nodes
        .iter()
        .find(|n| n.hop.kind == "bridge.deliver")
        .expect("bridge.deliver span");
    assert_eq!(fwd.hop.node_name, "broker-0");
    assert_eq!(del.hop.node_name, "broker-1");
    assert_ne!(fwd.hop.node, del.hop.node);
    assert_bridge_conservation(&sim, &brokers);
}

/// A broker that never sees the bridge acks arriving in `[from, until)`.
struct DropAcks {
    inner: BrokerNode,
    from: SimTime,
    until: SimTime,
}

impl Node for DropAcks {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let now = ctx.now();
        let ack = matches!(
            WirePacketRef::decode(&pkt.payload),
            Ok(WirePacketRef::BridgeBatchAck { .. })
        );
        if !(ack && self.from <= now && now < self.until) {
            self.inner.on_packet(ctx, pkt);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.inner.on_timer(ctx, tag);
    }
}

/// A sender resends a batch for 16 s after its first send; a receiver
/// must recognise the last resend although its dedup generations
/// rotated in between. Broker 1's first generation ends at the first
/// batch arrival at least 36 s into the run, which is the third resend
/// of a batch first sent at 30 s; the later resends are found in the
/// generation before.
#[test]
fn every_resend_of_a_batch_is_recognised_across_a_rotation() {
    let publish_at = SimDuration::from_secs(30);
    let mut sim = Simulator::new(SimConfig { seed: seed(16) });
    let brokers = [
        sim.add_node(
            "broker-0",
            DropAcks {
                inner: BrokerNode::with_label("b0"),
                from: SimTime::ZERO + publish_at,
                until: SimTime::ZERO + publish_at + SimDuration::from_secs(17),
            },
        ),
        sim.add_node("broker-1", BrokerNode::with_label("b1")),
    ];
    link_ideally(&mut sim, &brokers);
    let config = |index| FederationConfig {
        index,
        brokers: brokers.to_vec(),
        shard: ShardMap::new(2),
        batch: small_batches(),
    };
    let sender = sim.node_mut::<DropAcks>(brokers[0]).expect("placed above");
    sender.inner.federate(config(0));
    let receiver = sim
        .node_mut::<BrokerNode>(brokers[1])
        .expect("placed above");
    receiver.federate(config(1));
    let sub = add_client(
        &mut sim,
        brokers[1],
        "sub",
        Sub::new(brokers[1], "district/d0/#", QoS::AtMostOnce),
    );
    let publisher = Pub::new(
        brokers[0],
        "district/d0/entity/e1/device/m1/power",
        1,
        publish_at,
    );
    add_client(&mut sim, brokers[0], "pub", publisher);
    sim.run_until(SimTime::from_secs(60));

    assert_exactly_once(&sim.node_ref::<Sub>(sub).expect("sub").got, 1, "sub");
    let sent = broker(&sim, brokers[0]).bridge_stats();
    assert_eq!((sent.batches_sent, sent.retries), (1, 8), "{sent:?}");
    assert_eq!(sent.frames_dropped, 1, "no ack came back: written off");
    assert_eq!(broker(&sim, brokers[1]).bridge_stats().frames_received, 1);
    let metrics = &sim.telemetry().metrics;
    assert_eq!(metrics.counter("pubsub.bridge.duplicate"), 8);
    assert_bridge_conservation(&sim, &brokers);
}
