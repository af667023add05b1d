//! The middleware broker node.

use std::cell::OnceCell;
use std::collections::BTreeMap;

use simnet::batch::PushOutcome;
use simnet::rpc::{Fired, Retransmit};
use simnet::telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Registry, NO_TRACE};
use simnet::{Context, Node, Packet as NetPacket, SimDuration, TimerTag};

use crate::federation::{FederationConfig, FederationState, BATCH_RETRY_BIT, FLUSH_TIMER_BIT};
use crate::topic::SubscriptionTrie;
use crate::wire::{BridgeFrame, BridgeFrameRef, Packet, PacketRef, QoS};
use crate::{BridgeStats, Topic, TopicFilter, TopicRef, PUBSUB_PORT};

/// How long the broker waits before redelivering an unacked QoS 1
/// message.
const RETRY_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// How many redeliveries before a QoS 1 message is dropped.
const MAX_RETRIES: u32 = 3;
/// Bound on the unacked QoS 1 delivery table. At capacity a new QoS 1
/// delivery degrades to at-most-once (sent once, never retried) instead
/// of growing the table without limit.
pub(crate) const DEFAULT_PENDING_CAPACITY: usize = 65_536;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Subscription {
    node: simnet::NodeId,
    qos: QoS,
}

/// Per-QoS local subscriber counts for one filter: drives bridge
/// advertisement (advertise while any local subscriber remains, withdraw
/// on the last unsubscribe, re-advertise after a peer restart).
#[derive(Debug)]
struct AdvertRefs {
    filter: TopicFilter,
    at_most: usize,
    at_least: usize,
}

impl AdvertRefs {
    fn total(&self) -> usize {
        self.at_most + self.at_least
    }

    fn strongest(&self) -> QoS {
        if self.at_least > 0 {
            QoS::AtLeastOnce
        } else {
            QoS::AtMostOnce
        }
    }
}

/// A global series and, on a labeled broker, its `<name>.<label>`
/// twin. A federation runs many brokers in one simulation; unlabeled
/// counters would silently aggregate across all of them, so a labeled
/// broker writes `<name>.<label>` next to every global `<name>` (the
/// globals stay, for single-broker deployments and existing
/// dashboards/tests).
#[derive(Debug)]
struct Twin<H> {
    global: H,
    labeled: Option<H>,
}

impl Twin<CounterHandle> {
    fn incr(&self) {
        self.global.incr();
        if let Some(l) = &self.labeled {
            l.incr();
        }
    }
}

impl Twin<GaugeHandle> {
    fn set(&self, v: f64) {
        self.global.set(v);
        if let Some(l) = &self.labeled {
            l.set(v);
        }
    }
}

impl Twin<HistogramHandle> {
    fn observe(&self, v: f64) {
        self.global.observe(v);
        if let Some(l) = &self.labeled {
            l.observe(v);
        }
    }
}

/// Every series the broker writes per packet, timer or scrape, resolved
/// on the first callback that writes one.
#[derive(Debug)]
struct BrokerSeries {
    publish: Twin<CounterHandle>,
    deliver: Twin<CounterHandle>,
    ack: Twin<CounterHandle>,
    subscribe: Twin<CounterHandle>,
    retry: Twin<CounterHandle>,
    drop: Twin<CounterHandle>,
    decode_error: Twin<CounterHandle>,
    restart: Twin<CounterHandle>,
    queue_shed: Twin<CounterHandle>,
    bridge_batch_sent: Twin<CounterHandle>,
    bridge_frame_forward: Twin<CounterHandle>,
    bridge_frame_recv: Twin<CounterHandle>,
    bridge_duplicate: Twin<CounterHandle>,
    bridge_retry: Twin<CounterHandle>,
    bridge_drop: Twin<CounterHandle>,
    pending: Twin<GaugeHandle>,
    retained: Twin<GaugeHandle>,
    bridge_buffered: Twin<GaugeHandle>,
    bridge_inflight: Twin<GaugeHandle>,
    fanout: Twin<HistogramHandle>,
    bridge_batch_frames: HistogramHandle,
}

/// Resolves [`Twin`]s with the same call shape as [`Registry`]'s own
/// resolution methods (the metric-name lint greps for that shape).
struct TwinResolver<'a> {
    registry: &'a Registry,
    label: Option<&'a str>,
}

impl TwinResolver<'_> {
    fn twin<H>(&self, name: &str, resolve: fn(&Registry, &str) -> H) -> Twin<H> {
        Twin {
            global: resolve(self.registry, name),
            labeled: self
                .label
                .map(|l| resolve(self.registry, &format!("{name}.{l}"))),
        }
    }

    fn counter_handle(&self, name: &str) -> Twin<CounterHandle> {
        self.twin(name, Registry::counter_handle)
    }

    fn gauge_handle(&self, name: &str) -> Twin<GaugeHandle> {
        self.twin(name, Registry::gauge_handle)
    }

    fn histogram_handle(&self, name: &str) -> Twin<HistogramHandle> {
        self.twin(name, Registry::histogram_handle)
    }
}

impl BrokerSeries {
    fn resolve(registry: &Registry, label: Option<&str>) -> Self {
        let m = TwinResolver { registry, label };
        BrokerSeries {
            publish: m.counter_handle("pubsub.publish"),
            deliver: m.counter_handle("pubsub.deliver"),
            ack: m.counter_handle("pubsub.ack"),
            subscribe: m.counter_handle("pubsub.subscribe"),
            retry: m.counter_handle("pubsub.retry"),
            drop: m.counter_handle("pubsub.drop"),
            decode_error: m.counter_handle("pubsub.decode_error"),
            restart: m.counter_handle("pubsub.broker_restart"),
            queue_shed: m.counter_handle("pubsub.queue_shed"),
            bridge_batch_sent: m.counter_handle("pubsub.bridge.batch_sent"),
            bridge_frame_forward: m.counter_handle("pubsub.bridge.frame_forward"),
            bridge_frame_recv: m.counter_handle("pubsub.bridge.frame_recv"),
            bridge_duplicate: m.counter_handle("pubsub.bridge.duplicate"),
            bridge_retry: m.counter_handle("pubsub.bridge.retry"),
            bridge_drop: m.counter_handle("pubsub.bridge.drop"),
            pending: m.gauge_handle("pubsub.pending_deliveries"),
            retained: m.gauge_handle("pubsub.retained"),
            bridge_buffered: m.gauge_handle("pubsub.bridge.buffered"),
            bridge_inflight: m.gauge_handle("pubsub.bridge.inflight"),
            fanout: m.histogram_handle("pubsub.fanout"),
            bridge_batch_frames: registry.histogram_handle("pubsub.bridge.batch_frames"),
        }
    }
}

/// Counters the broker exposes for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Publish packets received.
    pub published: u64,
    /// Deliver packets sent (including retries).
    pub delivered: u64,
    /// QoS 1 deliveries acknowledged.
    pub acked: u64,
    /// QoS 1 redelivery attempts.
    pub retries: u64,
    /// QoS 1 deliveries abandoned after retry exhaustion (or wiped by a
    /// broker restart).
    pub dropped: u64,
    /// QoS 1 deliveries degraded to at-most-once because the unacked
    /// table was at capacity (a subset of `dropped`).
    pub(crate) queue_shed: u64,
    /// Topics currently retained.
    pub retained: u64,
    /// QoS 1 deliveries enqueued for acknowledgement. At any instant the
    /// conservation invariant `qos1_enqueued == acked + dropped +
    /// pending_deliveries()` holds.
    pub qos1_enqueued: u64,
    /// Malformed wire packets received and discarded.
    pub decode_errors: u64,
}

/// A SEEMPubS-style broker running as a [`simnet::Node`].
///
/// Clients talk to it on [`PUBSUB_PORT`] with
/// [`Packet`](crate::WirePacket)s; the [`PubSubClient`](crate::PubSubClient)
/// helper wraps that protocol.
///
/// A broker can run standalone (the default, exactly the paper's single
/// entry point) or as one shard of a federation — see
/// [`BrokerNode::federate`] and the [`federation`](crate::federation)
/// module.
#[derive(Debug)]
pub struct BrokerNode {
    subscriptions: SubscriptionTrie<Subscription>,
    /// topic text → (topic, last retained payload, trace id, span).
    ///
    /// Keeping the trace id means a late subscriber's retained delivery
    /// still shows up in the flight recorder as part of the original
    /// publication's journey — without it, samples replayed across a
    /// broker restart would look lost even though they arrived. The span
    /// likewise parents the late delivery under the original publish in
    /// the causal span tree. Ordered, because a new subscriber and a
    /// peer's advertisement are each answered one packet per entry.
    retained: BTreeMap<String, (Topic, Vec<u8>, u64, u64)>,
    /// Unacked QoS 1 deliveries, each retried under timer tag = its id.
    pending: Retransmit<()>,
    next_delivery_id: u64,
    /// Bumped on every restart; clients learn it via Ping/Pong and use a
    /// change to detect that their subscriptions were wiped.
    incarnation: u64,
    stats: BrokerStats,
    /// Filter text → live local subscriber refcounts (advertisement
    /// bookkeeping; empty while not federated). Ordered, because a
    /// re-advertisement sends one packet per entry.
    advert_refs: BTreeMap<String, AdvertRefs>,
    /// Suffix of this broker's labeled twin series, if any.
    pub(crate) label: Option<String>,
    series: OnceCell<BrokerSeries>,
    pub(crate) federation: Option<FederationState>,
    /// Scratch for [`BrokerNode::fan_out`]: the subscribers matching the
    /// publish in hand. Empty between publishes; kept for its buffer.
    targets: Vec<Subscription>,
    /// Scratch for [`BrokerNode::forward_to_peers`], likewise.
    peers: Vec<usize>,
}

impl Default for BrokerNode {
    fn default() -> Self {
        BrokerNode {
            subscriptions: SubscriptionTrie::default(),
            retained: BTreeMap::new(),
            pending: Retransmit::new(0, RETRY_TIMEOUT, MAX_RETRIES),
            next_delivery_id: 0,
            incarnation: 0,
            stats: BrokerStats::default(),
            advert_refs: BTreeMap::new(),
            label: None,
            series: OnceCell::new(),
            federation: None,
            targets: Vec::new(),
            peers: Vec::new(),
        }
    }
}

impl BrokerNode {
    /// Creates an empty broker.
    pub fn new() -> Self {
        BrokerNode::default()
    }

    /// Creates an empty broker whose telemetry counters additionally
    /// carry `label` (e.g. `pubsub.publish.b2`), so per-broker rates
    /// stay distinguishable inside a federation.
    pub fn with_label(label: impl AsRef<str>) -> Self {
        BrokerNode {
            label: Some(label.as_ref().to_owned()),
            ..BrokerNode::default()
        }
    }

    /// Makes this broker one shard of a federation. Call before the
    /// simulation starts (the deployment wires every member with the
    /// same broker list).
    pub fn federate(&mut self, config: FederationConfig) {
        self.federation = Some(FederationState::new(config));
    }

    /// Current counters.
    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            retained: self.retained.len() as u64,
            ..self.stats
        }
    }

    /// Bridge-side counters (all zero while not federated).
    pub fn bridge_stats(&self) -> BridgeStats {
        self.federation
            .as_ref()
            .map(|f| f.stats)
            .unwrap_or_default()
    }

    /// Bridge frames buffered in per-peer batchers, not yet sent.
    pub fn bridge_buffered(&self) -> usize {
        self.federation
            .as_ref()
            .map_or(0, FederationState::buffered_frames)
    }

    /// Bridge frames sent and awaiting a batch acknowledgement.
    pub fn bridge_in_flight(&self) -> usize {
        self.federation
            .as_ref()
            .map_or(0, FederationState::in_flight_frames)
    }

    /// The broker's incarnation number (restarts survived).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Number of QoS 1 deliveries awaiting acknowledgement.
    pub fn pending_deliveries(&self) -> usize {
        self.pending.outstanding()
    }

    fn series(&self, ctx: &Context<'_>) -> &BrokerSeries {
        self.series
            .get_or_init(|| BrokerSeries::resolve(&ctx.telemetry().metrics, self.label.as_deref()))
    }

    fn gauge_pending(&self, ctx: &Context<'_>) {
        self.series(ctx)
            .pending
            .set(self.pending.outstanding() as f64);
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Deliver wire frame field for field
    fn deliver(
        &mut self,
        ctx: &mut Context<'_>,
        to: simnet::NodeId,
        topic: TopicRef<'_>,
        payload: &[u8],
        qos: QoS,
        trace: u64,
        parent_span: u64,
    ) {
        let id = self.next_delivery_id;
        self.next_delivery_id += 1;
        let span = if trace != 0 {
            ctx.span_hop(
                "broker.deliver",
                trace,
                parent_span,
                format_args!("to={to} topic={topic}"),
            )
        } else {
            0
        };
        // Encode straight from the borrowed view: the topic and payload
        // are never materialized, only serialized.
        let packet = PacketRef::Deliver {
            id,
            topic,
            payload,
            qos,
            trace,
            span,
        };
        self.series(ctx).deliver.incr();
        self.stats.delivered += 1;
        if qos != QoS::AtLeastOnce {
            ctx.send_spanned(to, PUBSUB_PORT, packet.encode(), trace, span);
            return;
        }
        // QoS 1 keeps the frame for redelivery: the packet in flight and
        // every redelivery share its one allocation.
        let frame = packet.frame();
        ctx.send_spanned(to, PUBSUB_PORT, frame.clone(), trace, span);
        self.stats.qos1_enqueued += 1;
        if self.pending.outstanding() >= DEFAULT_PENDING_CAPACITY {
            // The unacked table is the broker's memory bound: past it
            // the delivery degrades to at-most-once — sent once above,
            // never retried — and is counted dropped right away, so
            // `qos1_enqueued == acked + dropped + pending` survives
            // overload.
            self.stats.dropped += 1;
            self.stats.queue_shed += 1;
            self.series(ctx).queue_shed.incr();
            return;
        }
        // A redelivery carries the trace, under no span.
        self.pending
            .keep(ctx, id, to, PUBSUB_PORT, frame, trace, ());
        self.gauge_pending(ctx);
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Publish wire frame field for field
    fn on_publish(
        &mut self,
        ctx: &mut Context<'_>,
        from: simnet::NodeId,
        id: u64,
        topic: TopicRef<'_>,
        payload: &[u8],
        retain: bool,
        qos: QoS,
        trace: u64,
        span: u64,
    ) {
        self.stats.published += 1;
        self.series(ctx).publish.incr();
        let pub_span = if trace != 0 {
            ctx.span_hop(
                "broker.publish",
                trace,
                span,
                format_args!("from={from} topic={topic}"),
            )
        } else {
            0
        };
        if qos == QoS::AtLeastOnce {
            ctx.send(from, PUBSUB_PORT, PacketRef::PubAck { id }.frame());
        }
        if retain {
            if payload.is_empty() {
                self.retained.remove(topic.as_str());
            } else {
                self.retain(topic, payload, trace, pub_span);
            }
        }
        self.fan_out(ctx, topic, payload, qos, trace, pub_span);
        self.forward_to_peers(ctx, topic, payload, retain, qos, trace, pub_span);
    }

    /// Retention outlives the packet: the one place a publish
    /// materializes its topic and payload — once per topic, since an
    /// overwrite refills the slot's buffers.
    fn retain(&mut self, topic: TopicRef<'_>, payload: &[u8], trace: u64, span: u64) {
        if let Some((_, held, held_trace, held_span)) = self.retained.get_mut(topic.as_str()) {
            held.clear();
            held.extend_from_slice(payload);
            (*held_trace, *held_span) = (trace, span);
        } else {
            self.retained.insert(
                topic.as_str().to_owned(),
                (topic.to_topic(), payload.to_vec(), trace, span),
            );
        }
    }

    /// Delivers a publish to every matching local subscriber. Delivery
    /// spans parent under `span` (the local publish or bridge-deliver
    /// hop).
    fn fan_out(
        &mut self,
        ctx: &mut Context<'_>,
        topic: TopicRef<'_>,
        payload: &[u8],
        qos: QoS,
        trace: u64,
        span: u64,
    ) {
        let mut targets = std::mem::take(&mut self.targets);
        self.subscriptions
            .for_each_match(topic.as_str(), |sub| targets.push(*sub));
        self.series(ctx).fanout.observe(targets.len() as f64);
        for sub in targets.drain(..) {
            // Effective delivery guarantee: the weaker of the two ends.
            let effective = if qos == QoS::AtLeastOnce && sub.qos == QoS::AtLeastOnce {
                QoS::AtLeastOnce
            } else {
                QoS::AtMostOnce
            };
            self.deliver(ctx, sub.node, topic, payload, effective, trace, span);
        }
        self.targets = targets;
    }

    /// Queues a locally received publish for every peer broker with a
    /// matching advertised filter. Frames ride per-peer batchers; a full
    /// batcher flushes inline, otherwise the age timer does.
    #[allow(clippy::too_many_arguments)] // mirrors the bridge frame field for field
    fn forward_to_peers(
        &mut self,
        ctx: &mut Context<'_>,
        topic: TopicRef<'_>,
        payload: &[u8],
        retain: bool,
        qos: QoS,
        trace: u64,
        span: u64,
    ) {
        let Some(fed) = &self.federation else {
            return;
        };
        let mut peers = std::mem::take(&mut self.peers);
        fed.remote_subs
            .for_each_match(topic.as_str(), |rs| peers.push(rs.peer));
        peers.sort_unstable();
        peers.dedup();
        for peer in peers.drain(..) {
            let fwd_span = if trace != 0 {
                ctx.span_hop(
                    "bridge.forward",
                    trace,
                    span,
                    format_args!("peer={peer} topic={topic}"),
                )
            } else {
                0
            };
            self.series(ctx).bridge_frame_forward.incr();
            // The batcher retains the frame until the peer acks its
            // batch: the designed ownership boundary of the borrowed
            // publish path.
            let frame = BridgeFrame {
                topic: topic.to_topic(),
                payload: payload.to_vec(),
                retain,
                qos,
                trace,
                span: fwd_span,
            };
            self.enqueue_frame(ctx, peer, frame);
        }
        self.peers = peers;
    }

    /// Pushes one frame onto a peer's batcher and acts on the outcome.
    fn enqueue_frame(&mut self, ctx: &mut Context<'_>, peer: usize, frame: BridgeFrame) {
        let Some(fed) = &mut self.federation else {
            return;
        };
        fed.stats.frames_enqueued += 1;
        let cost = frame.topic.as_str().len() + frame.payload.len() + 18;
        let max_age = fed.batch.max_age;
        match fed.batchers[peer].push(frame, cost) {
            PushOutcome::Flush => self.flush_peer(ctx, peer),
            PushOutcome::ArmTimer => {
                ctx.set_timer(max_age, TimerTag(FLUSH_TIMER_BIT | peer as u64));
            }
            PushOutcome::Buffered => {}
        }
    }

    /// Cuts the accumulated batch for `peer` and puts it on the wire,
    /// tracked for retransmission until acknowledged.
    fn flush_peer(&mut self, ctx: &mut Context<'_>, peer: usize) {
        let incarnation = self.incarnation;
        let Some(fed) = &mut self.federation else {
            return;
        };
        // An open peer breaker holds the batch back: frames stay
        // buffered (conservation intact) and the age timer keeps
        // re-attempting, so the half-open probe happens naturally.
        if !fed.breakers[peer].allow(ctx.now(), &ctx.telemetry().metrics) {
            if !fed.batchers[peer].is_empty() {
                let max_age = fed.batch.max_age;
                ctx.set_timer(max_age, TimerTag(FLUSH_TIMER_BIT | peer as u64));
            }
            return;
        }
        let frames = fed.batchers[peer].take();
        if frames.is_empty() {
            return; // age timer raced a size flush
        }
        let batch_id = fed.next_batch_id;
        fed.next_batch_id += 1;
        // Serialized once from borrowed views: a retry resends these
        // bytes (the incarnation in them only changes on a restart,
        // which empties the ledger).
        let frame = PacketRef::BridgeBatch {
            incarnation,
            batch_id,
            frames: frames.iter().map(BridgeFrame::view).collect(),
        }
        .frame();
        let dst = fed.brokers[peer];
        fed.stats.batches_sent += 1;
        ctx.send(dst, PUBSUB_PORT, frame.clone());
        let sent = (peer, frames.len(), ctx.now());
        fed.pending
            .keep(ctx, batch_id, dst, PUBSUB_PORT, frame, NO_TRACE, sent);
        let series = self.series(ctx);
        series.bridge_batch_frames.observe(frames.len() as f64);
        series.bridge_batch_sent.incr();
    }

    /// Sends `BridgeHello` to every peer (start and restart), so peers
    /// learn this broker's incarnation without waiting for traffic.
    fn send_hello(&mut self, ctx: &mut Context<'_>) {
        let incarnation = self.incarnation;
        let Some(fed) = &self.federation else {
            return;
        };
        let frame = PacketRef::BridgeHello { incarnation }.frame();
        for peer in fed.peer_shards() {
            ctx.send(fed.brokers[peer], PUBSUB_PORT, frame.clone());
        }
    }

    /// Observes `incarnation` from `peer`. Returns `false` for frames
    /// from a dead incarnation (the caller drops them). A *newer*
    /// incarnation means the peer restarted: everything it advertised
    /// and every batch id it ever sent died with it, and it needs our
    /// advertisements again.
    fn note_peer_incarnation(
        &mut self,
        ctx: &mut Context<'_>,
        peer: usize,
        incarnation: u64,
    ) -> bool {
        let Some(fed) = &mut self.federation else {
            return false;
        };
        let known = fed.peer_incarnation[peer];
        if incarnation < known {
            return false;
        }
        if incarnation > known {
            fed.peer_incarnation[peer] = incarnation;
            fed.seen_batches[peer].clear();
            for f in std::mem::take(&mut fed.peer_filters[peer]) {
                fed.remote_subs.remove_where(&f, |rs| rs.peer == peer);
            }
            ctx.telemetry()
                .metrics
                .counter_handle("pubsub.bridge.peer_restart")
                .incr();
            self.readvertise_to(ctx, peer);
        }
        true
    }

    /// Re-sends every live local filter advertisement to one peer.
    fn readvertise_to(&mut self, ctx: &mut Context<'_>, peer: usize) {
        let incarnation = self.incarnation;
        let adverts: Vec<(TopicFilter, QoS)> = self
            .advert_refs
            .values()
            .map(|r| (r.filter.clone(), r.strongest()))
            .collect();
        let Some(fed) = &self.federation else {
            return;
        };
        let dst = fed.brokers[peer];
        for (filter, qos) in adverts {
            let bytes = Packet::BridgeAdvertise {
                incarnation,
                filter,
                qos,
            }
            .encode();
            ctx.send(dst, PUBSUB_PORT, bytes);
        }
    }

    /// Applies one bridged publish locally: mirror retained state, fan
    /// out to local subscribers. Never re-forwarded — the federation is
    /// a full mesh and every publish crosses at most one bridge hop,
    /// which is what makes duplicate delivery impossible.
    fn apply_bridge_frame(&mut self, ctx: &mut Context<'_>, frame: BridgeFrameRef<'_>) {
        let BridgeFrameRef {
            topic,
            payload,
            retain,
            qos,
            trace,
            span,
        } = frame;
        let bd_span = if trace != 0 {
            ctx.span_hop("bridge.deliver", trace, span, format_args!("topic={topic}"))
        } else {
            0
        };
        self.series(ctx).bridge_frame_recv.incr();
        if retain {
            if payload.is_empty() {
                self.retained.remove(topic.as_str());
            } else {
                if let Some((_, existing, ..)) = self.retained.get(topic.as_str()) {
                    if existing.as_slice() == payload {
                        // A mirror of a retained message we already hold
                        // (e.g. two peers answered the same advertise):
                        // local subscribers have seen it, don't re-fan.
                        return;
                    }
                }
                self.retain(topic, payload, trace, bd_span);
            }
        }
        self.fan_out(ctx, topic, payload, qos, trace, bd_span);
    }

    fn on_subscribe(
        &mut self,
        ctx: &mut Context<'_>,
        from: simnet::NodeId,
        filter: TopicFilter,
        qos: QoS,
    ) {
        self.series(ctx).subscribe.incr();
        self.subscriptions
            .insert(&filter, Subscription { node: from, qos });
        let refs = self
            .advert_refs
            .entry(filter.as_str().to_owned())
            .or_insert_with(|| AdvertRefs {
                filter: filter.clone(),
                at_most: 0,
                at_least: 0,
            });
        match qos {
            QoS::AtMostOnce => refs.at_most += 1,
            QoS::AtLeastOnce => refs.at_least += 1,
        }
        let strongest = refs.strongest();
        self.advertise(ctx, &filter, strongest);
        // Hand the new subscriber any retained messages it now matches,
        // under the original publication's trace id and span, in topic
        // order.
        let matching: Vec<(Topic, Vec<u8>, u64, u64)> = self
            .retained
            .values()
            .filter(|(topic, ..)| filter.matches(topic))
            .cloned()
            .collect();
        for (topic, payload, trace, span) in matching {
            self.deliver(
                ctx,
                from,
                TopicRef::from(&topic),
                &payload,
                qos,
                trace,
                span,
            );
        }
    }

    /// Tells every peer this broker wants publishes matching `filter`.
    /// Idempotent at the receiver (it replaces any previous entry for
    /// this broker and filter), so it doubles as a QoS upgrade path.
    fn advertise(&mut self, ctx: &mut Context<'_>, filter: &TopicFilter, qos: QoS) {
        let incarnation = self.incarnation;
        let Some(fed) = &self.federation else {
            return;
        };
        let bytes = Packet::BridgeAdvertise {
            incarnation,
            filter: filter.clone(),
            qos,
        }
        .encode();
        for peer in fed.peer_shards() {
            ctx.send(fed.brokers[peer], PUBSUB_PORT, bytes.clone());
        }
    }

    fn on_unsubscribe(&mut self, ctx: &mut Context<'_>, from: simnet::NodeId, filter: TopicFilter) {
        // Remove every subscription this node holds on the filter,
        // counting per QoS so the advertisement refcounts stay exact.
        let (mut gone_most, mut gone_least) = (0usize, 0usize);
        self.subscriptions.remove_where(&filter, |sub| {
            if sub.node == from {
                match sub.qos {
                    QoS::AtMostOnce => gone_most += 1,
                    QoS::AtLeastOnce => gone_least += 1,
                }
                true
            } else {
                false
            }
        });
        if gone_most + gone_least == 0 {
            return;
        }
        let Some(refs) = self.advert_refs.get_mut(filter.as_str()) else {
            return;
        };
        refs.at_most = refs.at_most.saturating_sub(gone_most);
        refs.at_least = refs.at_least.saturating_sub(gone_least);
        if refs.total() == 0 {
            self.advert_refs.remove(filter.as_str());
            let incarnation = self.incarnation;
            if let Some(fed) = &self.federation {
                let bytes = Packet::BridgeUnadvertise {
                    incarnation,
                    filter: filter.clone(),
                }
                .encode();
                for peer in fed.peer_shards() {
                    ctx.send(fed.brokers[peer], PUBSUB_PORT, bytes.clone());
                }
            }
        } else {
            // Possibly downgraded (last QoS 1 subscriber left): refresh.
            let strongest = refs.strongest();
            self.advertise(ctx, &filter, strongest);
        }
    }

    fn on_bridge_advertise(
        &mut self,
        ctx: &mut Context<'_>,
        peer: usize,
        incarnation: u64,
        filter: TopicFilter,
        qos: QoS,
    ) {
        if !self.note_peer_incarnation(ctx, peer, incarnation) {
            return;
        }
        let retained_reply: Vec<BridgeFrame>;
        {
            let Some(fed) = &mut self.federation else {
                return;
            };
            fed.remote_subs.remove_where(&filter, |rs| rs.peer == peer);
            fed.remote_subs
                .insert(&filter, crate::federation::RemoteSub { peer, qos });
            fed.peer_filters[peer].insert(filter.clone());
            // Answer with any retained messages the peer's new filter
            // matches, so its late subscribers see retained state that
            // lives on this side of the bridge.
            retained_reply = self
                .retained
                .values()
                .filter(|(topic, ..)| filter.matches(topic))
                .map(|(topic, payload, trace, span)| BridgeFrame {
                    topic: topic.clone(),
                    payload: payload.clone(),
                    retain: true,
                    qos,
                    trace: *trace,
                    span: *span,
                })
                .collect();
        }
        for frame in retained_reply {
            self.enqueue_frame(ctx, peer, frame);
        }
    }

    fn on_bridge_batch(
        &mut self,
        ctx: &mut Context<'_>,
        src: simnet::NodeId,
        peer: usize,
        incarnation: u64,
        batch_id: u64,
        frames: &[BridgeFrameRef<'_>],
    ) {
        if !self.note_peer_incarnation(ctx, peer, incarnation) {
            return; // dead incarnation; its sender no longer waits
        }
        // Always acknowledge — also for duplicates, whose original ack
        // was evidently lost or outrun by the retry timer.
        ctx.send(
            src,
            PUBSUB_PORT,
            PacketRef::BridgeBatchAck { batch_id }.frame(),
        );
        {
            let Some(fed) = &mut self.federation else {
                return;
            };
            if !fed.seen_batches[peer].insert(batch_id, ctx.now()) {
                self.series(ctx).bridge_duplicate.incr();
                return;
            }
            fed.stats.frames_received += frames.len() as u64;
        }
        for frame in frames {
            self.apply_bridge_frame(ctx, *frame);
        }
    }

    /// A batch's retry timer fired before its ack: each firing is one
    /// failed transmission in the peer breaker's window.
    fn on_batch_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        let Some(fed) = &mut self.federation else {
            return;
        };
        let now = ctx.now();
        let (peer, resent) = match fed.pending.on_timer(ctx, tag) {
            None => return, // acked in time
            Some(Fired::Resent((peer, _, sent_at))) => {
                *sent_at = now;
                fed.stats.retries += 1;
                (*peer, true)
            }
            Some(Fired::Expired(_, (peer, frames, _))) => {
                fed.stats.frames_dropped += frames as u64;
                (peer, false)
            }
        };
        fed.breakers[peer].record_failure(now, &ctx.telemetry().metrics);
        let series = self.series(ctx);
        if resent {
            series.bridge_retry.incr();
        } else {
            series.bridge_drop.incr();
        }
    }

    /// Refreshes this broker's occupancy gauges (retained topics, QoS 1
    /// in-flight, bridge batcher/ledger depths) so a scrape sees current
    /// backpressure, not the state at the last mutation.
    fn refresh_scrape_gauges(&self, ctx: &Context<'_>) {
        let series = self.series(ctx);
        series.retained.set(self.retained.len() as f64);
        series.pending.set(self.pending.outstanding() as f64);
        if let Some(fed) = &self.federation {
            series.bridge_buffered.set(fed.buffered_frames() as f64);
            series.bridge_inflight.set(fed.in_flight_frames() as f64);
        }
    }

    /// Serves one ops-plane document over the pub/sub port. Returns an
    /// HTTP-style status and a body.
    fn serve_ops(&mut self, ctx: &mut Context<'_>, path: &str) -> (u16, Vec<u8>) {
        self.refresh_scrape_gauges(ctx);
        match path {
            "/metrics" => (200, ctx.telemetry().exposition().into_bytes()),
            "/health" => {
                let body = format!(
                    "{{\"status\":\"up\",\"incarnation\":{},\"subscriptions\":{},\
                     \"pending_deliveries\":{},\"retained\":{},\
                     \"bridge_buffered\":{},\"bridge_in_flight\":{}}}",
                    self.incarnation,
                    self.subscriptions.len(),
                    self.pending.outstanding(),
                    self.retained.len(),
                    self.bridge_buffered(),
                    self.bridge_in_flight(),
                );
                (200, body.into_bytes())
            }
            _ => (404, Vec::new()),
        }
    }

    /// Resolves the shard index of a packet's source, when the source is
    /// a federation peer. Bridge frames from anyone else are ignored.
    fn peer_of(&self, src: simnet::NodeId) -> Option<usize> {
        self.federation.as_ref()?.peer_of(src)
    }
}

impl Node for BrokerNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.send_hello(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: NetPacket) {
        // Borrowed decode: the hot variants (Publish, BridgeBatch) are
        // handled without copying topics or payloads out of the receive
        // buffer; cold control packets materialize at their `to_*` call.
        let Ok(packet) = PacketRef::decode(&pkt.payload) else {
            // Malformed traffic is dropped, as a real broker would — but
            // counted, so a misbehaving client is visible in the stats.
            self.stats.decode_errors += 1;
            self.series(ctx).decode_error.incr();
            return;
        };
        match packet {
            PacketRef::Subscribe { filter, qos } => {
                self.on_subscribe(ctx, pkt.src, filter.to_filter(), qos)
            }
            PacketRef::Unsubscribe { filter } => {
                self.on_unsubscribe(ctx, pkt.src, filter.to_filter())
            }
            PacketRef::Publish {
                id,
                topic,
                payload,
                retain,
                qos,
                trace,
                span,
            } => self.on_publish(ctx, pkt.src, id, topic, payload, retain, qos, trace, span),
            PacketRef::DeliverAck { id } => {
                if self.pending.ack(id).is_some() {
                    self.stats.acked += 1;
                    self.series(ctx).ack.incr();
                    self.gauge_pending(ctx);
                }
            }
            PacketRef::Ping => {
                ctx.send(
                    pkt.src,
                    PUBSUB_PORT,
                    PacketRef::Pong {
                        incarnation: self.incarnation,
                    }
                    .frame(),
                );
            }
            PacketRef::BridgeAdvertise {
                incarnation,
                filter,
                qos,
            } => {
                if let Some(peer) = self.peer_of(pkt.src) {
                    self.on_bridge_advertise(ctx, peer, incarnation, filter.to_filter(), qos);
                }
            }
            PacketRef::BridgeUnadvertise {
                incarnation,
                filter,
            } => {
                if let Some(peer) = self.peer_of(pkt.src) {
                    if self.note_peer_incarnation(ctx, peer, incarnation) {
                        if let Some(fed) = &mut self.federation {
                            let filter = filter.to_filter();
                            fed.remote_subs.remove_where(&filter, |rs| rs.peer == peer);
                            fed.peer_filters[peer].remove(&filter);
                        }
                    }
                }
            }
            PacketRef::BridgeBatch {
                incarnation,
                batch_id,
                frames,
            } => {
                if let Some(peer) = self.peer_of(pkt.src) {
                    self.on_bridge_batch(ctx, pkt.src, peer, incarnation, batch_id, &frames);
                }
            }
            PacketRef::BridgeBatchAck { batch_id } => {
                if let Some(fed) = &mut self.federation {
                    if let Some((peer, frames, sent_at)) = fed.pending.ack(batch_id) {
                        fed.stats.frames_acked += frames as u64;
                        fed.breakers[peer].record_success(
                            ctx.now(),
                            ctx.now().saturating_since(sent_at),
                            &ctx.telemetry().metrics,
                        );
                    }
                }
            }
            PacketRef::BridgeHello { incarnation } => {
                if let Some(peer) = self.peer_of(pkt.src) {
                    self.note_peer_incarnation(ctx, peer, incarnation);
                }
            }
            PacketRef::OpsGet { id, path } => {
                let (status, body) = self.serve_ops(ctx, path);
                ctx.send(
                    pkt.src,
                    PUBSUB_PORT,
                    Packet::OpsReply { id, status, body }.encode(),
                );
            }
            PacketRef::PubAck { .. }
            | PacketRef::Deliver { .. }
            | PacketRef::Pong { .. }
            | PacketRef::OpsReply { .. } => {
                // Not broker-bound; ignore.
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // The broker's session state is volatile: subscriptions, retained
        // messages and unacked deliveries die with the process. Wiped
        // QoS 1 deliveries count as dropped so the conservation invariant
        // (`qos1_enqueued == acked + dropped + pending`) survives the
        // restart. Lifetime counters and the delivery-id sequence are kept
        // so post-restart ids never collide with pre-crash ones.
        self.subscriptions = SubscriptionTrie::default();
        self.retained.clear();
        self.stats.dropped += self.pending.drain().len() as u64;
        self.advert_refs.clear();
        self.incarnation += 1;
        if let Some(fed) = &mut self.federation {
            // Bridge state is volatile too: buffered and unacked frames
            // died with the process (counted dropped, keeping the bridge
            // conservation invariant), and everything learned about
            // peers is forgotten — their next frame re-teaches it.
            let lost = fed.buffered_frames() + fed.in_flight_frames();
            fed.stats.frames_dropped += lost as u64;
            for b in &mut fed.batchers {
                b.take();
            }
            fed.pending.drain();
            fed.remote_subs = SubscriptionTrie::new();
            for m in &mut fed.peer_filters {
                m.clear();
            }
            for s in &mut fed.seen_batches {
                s.clear();
            }
            for inc in &mut fed.peer_incarnation {
                *inc = 0;
            }
        }
        self.series(ctx).restart.incr();
        self.gauge_pending(ctx);
        // Tell peers about the new incarnation so they wipe our dead
        // advertisements and re-send theirs.
        self.send_hello(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag.0 & BATCH_RETRY_BIT != 0 {
            return self.on_batch_timer(ctx, tag);
        }
        if tag.0 & FLUSH_TIMER_BIT != 0 {
            return self.flush_peer(ctx, (tag.0 & !FLUSH_TIMER_BIT) as usize);
        }
        match self.pending.on_timer(ctx, tag) {
            None => {} // already acked
            Some(Fired::Resent(())) => {
                self.stats.retries += 1;
                self.stats.delivered += 1;
                self.series(ctx).retry.incr();
            }
            Some(Fired::Expired(..)) => {
                self.stats.dropped += 1;
                self.series(ctx).drop.incr();
                self.gauge_pending(ctx);
            }
        }
    }
}
