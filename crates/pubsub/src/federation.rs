//! Broker federation: brokers bridged per-link into one middleware.
//!
//! The paper's middleware exposes one publish/subscribe entry point per
//! district; at production scale that single broker saturates (E8). The
//! federation tier bridges several brokers pairwise. The deployment
//! decides which broker serves a district; a broker routes on what its
//! peers advertise:
//!
//! * **Routing advertisements.** When a broker gains a local subscriber
//!   it advertises the filter to its peers
//!   ([`BridgeAdvertise`](crate::WirePacket::BridgeAdvertise)); peers
//!   forward matching publishes back. Withdrawn on the last local
//!   unsubscribe.
//! * **Batched bridge frames.** Cross-broker publishes ride a per-peer
//!   [`Batcher`] under a size/age [`BatchPolicy`]: N publishes crossing
//!   a bridge cost O(1) wire frames
//!   ([`BridgeBatch`](crate::WirePacket::BridgeBatch)).
//! * **Reliability.** Every batch is acknowledged; unacked batches are
//!   retried with the batch id held stable, and receivers deduplicate on
//!   batch id over the retry horizon (`SEEN_SPAN`), so QoS 1
//!   conservation holds across a lossy or flapping bridge link.
//!   Incarnation numbers ride on every bridge frame; a restart on either
//!   end wipes the routing state learned from the dead incarnation and
//!   triggers re-advertisement.
//!
//! The logic lives on [`BrokerNode`] (see `broker.rs`); this module
//! holds the federation configuration and the bridge bookkeeping.

use std::collections::BTreeSet;

use simnet::batch::{BatchPolicy, Batcher};
use simnet::rpc::Retransmit;
use simnet::{NodeId, SimDuration, SimTime, Simulator};

use crate::topic::SubscriptionTrie;
use crate::wire::{BridgeFrame, QoS};
use crate::{BrokerNode, TopicFilter};

/// Timer-tag namespace bit for per-peer batch flush timers (the low bits
/// carry the peer's shard index). Delivery-retry timers use the plain
/// delivery id, far below either bit.
pub(crate) const FLUSH_TIMER_BIT: u64 = 1 << 62;
/// Timer-tag namespace bit for batch retransmission timers (the low bits
/// carry the batch id).
pub(crate) const BATCH_RETRY_BIT: u64 = 1 << 63;

/// How long a broker waits for a [`BridgeBatchAck`] before resending a
/// batch. Combined with [`BATCH_MAX_RETRIES`] the bridge rides out link
/// outages of tens of seconds without losing QoS 1 frames.
const BATCH_RETRY_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Retransmissions before a batch's frames are counted dropped.
const BATCH_MAX_RETRIES: u32 = 8;

/// The age of a receiver's batch-id generation at which it rotates, so
/// each applied id is remembered for one to two spans.
///
/// A sender resends a batch for at most `BATCH_MAX_RETRIES` ×
/// `BATCH_RETRY_TIMEOUT` (16 s) after its first send and writes it off
/// at 18 s. The span is twice that, 36 s: a resend is recognised if it
/// arrives at most 20 s later than the link's minimum delay would bring
/// it. A bridge slower than that can apply a batch twice.
pub(crate) const SEEN_SPAN: SimDuration =
    SimDuration::from_nanos(2 * (BATCH_MAX_RETRIES as u64 + 1) * BATCH_RETRY_TIMEOUT.as_nanos());

/// The number of brokers in a federation: [`BrokerNode::federate`]
/// checks it against the broker list. Which broker serves a district is
/// the deployment's decision.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A map over `shards` brokers. `shards` must be at least 1.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a federation needs at least one shard");
        ShardMap { shards }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Checks that `shard` is one of this map's shards. The district is
    /// not kept: no broker routes on it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn assign(&mut self, _district: impl Into<String>, shard: usize) {
        assert!(shard < self.shards, "shard {shard} out of range");
    }
}

/// How a broker participates in a federation.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// This broker's shard index into `brokers`.
    pub index: usize,
    /// Every broker in the federation, shard index order (including this
    /// one at `index`).
    pub brokers: Vec<NodeId>,
    /// Its shard count must equal `brokers.len()`; the broker keeps
    /// nothing else of it.
    pub shard: ShardMap,
    /// Flush policy for the per-peer bridge batchers.
    pub batch: BatchPolicy,
}

/// Adds a federation of `shards` brokers to `sim` and returns their ids
/// in shard index order. Broker `i` is named `broker-{i}`, labelled
/// `b{i}` and placed on simulation shard `i % sim.shard_count()`; every
/// broker bridges to every other under `batch`.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn add_brokers(sim: &mut Simulator, shards: usize, batch: BatchPolicy) -> Vec<NodeId> {
    let sim_shards = sim.shard_count();
    let brokers: Vec<NodeId> = (0..shards)
        .map(|i| {
            sim.add_node_on(
                i % sim_shards,
                format!("broker-{i}"),
                BrokerNode::with_label(format!("b{i}")),
            )
        })
        .collect();
    for (index, &id) in brokers.iter().enumerate() {
        sim.node_mut::<BrokerNode>(id)
            .expect("just added")
            .federate(FederationConfig {
                index,
                brokers: brokers.clone(),
                shard: ShardMap::new(shards),
                batch,
            });
    }
    brokers
}

/// A peer broker's advertised interest in a filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RemoteSub {
    pub(crate) peer: usize,
    pub(crate) qos: QoS,
}

/// Breaker settings for the per-peer bridge links: sized to the 2 s
/// batch-retry cadence so a dead or gray peer trips after roughly six
/// consecutive failed transmissions, while an 8 s link flap (about four
/// retries, then successes) never does.
pub(crate) fn bridge_breaker_config() -> simnet::overload::BreakerConfig {
    simnet::overload::BreakerConfig {
        window: 12,
        min_samples: 6,
        trip_threshold: 0.9,
        latency_threshold: simnet::SimDuration::from_millis(1500),
        open_for: simnet::SimDuration::from_secs(20),
    }
}

/// Bridge-side counters, reported per broker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Frames queued for a peer (each is one cross-broker publish).
    pub frames_enqueued: u64,
    /// Batches put on the wire (first transmissions, not retries).
    pub batches_sent: u64,
    /// Frames acknowledged by the peer.
    pub frames_acked: u64,
    /// Frames abandoned: batch retries exhausted or wiped by a restart.
    pub frames_dropped: u64,
    /// Frames applied locally from received batches.
    pub frames_received: u64,
    /// Batch retransmissions sent.
    pub retries: u64,
}

/// The batch ids one peer sent recently, in two generations.
///
/// An arrival at least [`SEEN_SPAN`] after the last rotation moves
/// `current` to `previous` and empties `current`, so the ids held are
/// bounded by the peer's batch rate, not by the length of the run.
/// Rotation happens on arrival, never on a timer. Ids arrive almost in
/// order, so a sorted insert is nearly always an append.
#[derive(Debug, Default)]
pub(crate) struct SeenBatches {
    /// Ids that arrived since `rotated_at`, ascending.
    current: Vec<u64>,
    /// Ids of the generation before, ascending.
    previous: Vec<u64>,
    /// The arrival that last rotated the generations.
    rotated_at: SimTime,
}

impl SeenBatches {
    /// Records `id`, arriving at `now`. Returns `false` if it was seen
    /// within the horizon: a retransmission of an applied batch.
    pub(crate) fn insert(&mut self, id: u64, now: SimTime) -> bool {
        if now.saturating_since(self.rotated_at) >= SEEN_SPAN {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
            self.rotated_at = now;
        }
        if self.previous.binary_search(&id).is_ok() {
            return false;
        }
        let Err(at) = self.current.binary_search(&id) else {
            return false;
        };
        self.current.insert(at, id);
        true
    }

    /// Forgets every id (the peer or this broker restarted).
    pub(crate) fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
    }
}

/// Per-broker federation bookkeeping (lives on `BrokerNode`).
#[derive(Debug)]
pub(crate) struct FederationState {
    /// This broker's shard index into `brokers`.
    pub(crate) index: usize,
    /// Every broker in the federation, shard index order.
    pub(crate) brokers: Vec<NodeId>,
    /// Flush policy for the per-peer batchers.
    pub(crate) batch: BatchPolicy,
    /// Filters peers advertised, matched against local publishes.
    pub(crate) remote_subs: SubscriptionTrie<RemoteSub>,
    /// The same filters per peer, so a peer restart can purge exactly
    /// what that peer advertised.
    pub(crate) peer_filters: Vec<BTreeSet<TopicFilter>>,
    /// One batcher per shard index (this broker's own slot stays empty).
    pub(crate) batchers: Vec<Batcher<BridgeFrame>>,
    /// Unacked batches under timers `BATCH_RETRY_BIT | id`: (peer, frame
    /// count, last transmission, timing the ack for the peer breaker).
    pub(crate) pending: Retransmit<(usize, usize, SimTime)>,
    /// Monotonic over the broker's whole lifetime (restarts included),
    /// so a retransmitted id never collides with a fresh one.
    pub(crate) next_batch_id: u64,
    /// Last incarnation observed per peer; a change wipes that peer's
    /// remote subscriptions and dedup history.
    pub(crate) peer_incarnation: Vec<u64>,
    /// Batch ids recently applied, per peer (reset on peer restart).
    pub(crate) seen_batches: Vec<SeenBatches>,
    /// One circuit breaker per peer link (this broker's own slot idles
    /// closed); while a peer's breaker is open, its frames accumulate
    /// in the batcher instead of going on the wire.
    pub(crate) breakers: Vec<simnet::overload::CircuitBreaker>,
    pub(crate) stats: BridgeStats,
}

impl FederationState {
    /// The state of a broker federated under `config`; of its shard map
    /// only the shard count is checked, and nothing is kept.
    pub(crate) fn new(config: FederationConfig) -> Self {
        let n = config.brokers.len();
        assert!(config.index < n, "federation index out of range");
        assert_eq!(n, config.shard.shards(), "one broker per shard");
        FederationState {
            remote_subs: SubscriptionTrie::new(),
            peer_filters: vec![BTreeSet::new(); n],
            batchers: (0..n).map(|_| Batcher::new(config.batch)).collect(),
            pending: Retransmit::new(BATCH_RETRY_BIT, BATCH_RETRY_TIMEOUT, BATCH_MAX_RETRIES),
            next_batch_id: 1,
            peer_incarnation: vec![0; n],
            seen_batches: (0..n).map(|_| SeenBatches::default()).collect(),
            breakers: (0..n)
                .map(|_| simnet::overload::CircuitBreaker::new(bridge_breaker_config()))
                .collect(),
            stats: BridgeStats::default(),
            index: config.index,
            brokers: config.brokers,
            batch: config.batch,
        }
    }

    /// The shard index of `node`, if it is a peer (not this broker).
    pub(crate) fn peer_of(&self, node: NodeId) -> Option<usize> {
        let idx = self.brokers.iter().position(|&b| b == node)?;
        (idx != self.index).then_some(idx)
    }

    /// Shard indices of every peer (everyone but this broker).
    pub(crate) fn peer_shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.brokers.len()).filter(move |&i| i != self.index)
    }

    /// Frames buffered in batchers, not yet on the wire.
    pub(crate) fn buffered_frames(&self) -> usize {
        self.batchers.iter().map(Batcher::len).sum()
    }

    /// Frames on the wire awaiting acknowledgement.
    pub(crate) fn in_flight_frames(&self) -> usize {
        let awaited = self.pending.awaited().into_iter();
        awaited.map(|&(_, frames, _)| frames).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PubSubClient, PubSubEvent, Topic};
    use simnet::telemetry::{NO_SPAN, NO_TRACE};
    use simnet::{Context, Node, Packet, SimConfig, TimerTag};

    #[test]
    #[should_panic(expected = "out of range")]
    fn assignment_out_of_range_panics() {
        ShardMap::new(2).assign("d", 5);
    }

    #[test]
    fn add_brokers_places_round_robin() {
        let mut sim = Simulator::new(simnet::ParallelConfig {
            shards: 2,
            threads: 1,
            ..simnet::ParallelConfig::default()
        });
        let brokers = add_brokers(&mut sim, 4, BatchPolicy::default());
        assert_eq!(brokers.len(), 4);
        for (i, &id) in brokers.iter().enumerate() {
            assert_eq!(id.shard(), i % 2, "broker {i}'s sim shard");
            assert_eq!(sim.node_name(id), format!("broker-{i}"));
            let broker = sim.node_ref::<BrokerNode>(id).unwrap();
            assert_eq!(broker.label.as_deref(), Some(format!("b{i}").as_str()));
            let fed = broker.federation.as_ref().expect("federated");
            assert_eq!((fed.index, &fed.brokers), (i, &brokers));
        }
    }

    #[test]
    fn timer_namespaces_are_disjoint() {
        // A flush tag can never alias a retry tag or a delivery id.
        let flush = FLUSH_TIMER_BIT | 7;
        let retry = BATCH_RETRY_BIT | 7;
        assert_ne!(flush, retry);
        assert_eq!(flush & BATCH_RETRY_BIT, 0);
        assert_ne!(retry & BATCH_RETRY_BIT, 0);
    }

    #[test]
    fn a_seen_id_lives_between_one_and_two_spans() {
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        let mut seen = SeenBatches::default();
        assert!(seen.insert(7, at(1_000)));
        assert!(seen.insert(5, at(1_001)), "out of order");
        assert!(!seen.insert(5, at(1_002)));
        // 36.5 s: the first rotation; 5 and 7 move to `previous`.
        assert!(!seen.insert(7, at(36_500)));
        assert!(seen.insert(8, at(40_000)));
        assert!(!seen.insert(5, at(72_000)), "one span after the rotation");
        // 72.5 s: the second rotation forgets 5 and 7, keeps 8.
        assert!(seen.insert(9, at(72_500)));
        assert!(seen.insert(7, at(72_600)));
        assert!(!seen.insert(8, at(72_700)));
        seen.clear();
        assert!(seen.insert(8, at(72_800)));
    }

    /// The simulation seed of a test: `base` shifted by `DIMMER_SEED`,
    /// as in `tests/federation.rs`.
    fn seed(base: u64) -> u64 {
        base + std::env::var("DIMMER_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    }

    const TICK: TimerTag = TimerTag(1);
    const CLIENT_TAGS: u64 = 1 << 40;

    /// Publishes `count` QoS 0 messages, one every `period`, each
    /// carrying its sequence number.
    struct Ticker {
        client: PubSubClient,
        topic: Topic,
        period: SimDuration,
        count: u32,
        sent: u32,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.period, TICK);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            self.client.accept(ctx, &pkt);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            if tag != TICK || self.sent == self.count {
                return;
            }
            let payload = self.sent.to_le_bytes();
            let qos = QoS::AtMostOnce;
            let topic = &self.topic;
            let client = &mut self.client;
            client.publish_ref(ctx, topic, &payload, false, qos, NO_TRACE, NO_SPAN, ());
            self.sent += 1;
            ctx.set_timer(self.period, TICK);
        }
    }

    /// Subscribes at start and counts each sequence number it receives.
    struct Tally {
        client: PubSubClient,
        filter: TopicFilter,
        got: Vec<u32>,
    }

    impl Node for Tally {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let filter = self.filter.clone();
            self.client.subscribe(ctx, filter, QoS::AtMostOnce);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            if let Some(PubSubEvent::Message { payload, .. }) = self.client.accept(ctx, &pkt) {
                let seq = u32::from_le_bytes((*payload).try_into().expect("a sequence number"));
                self.got[seq as usize] += 1;
            }
        }
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerTag) {}
    }

    /// The most batch ids any broker remembers for one peer.
    fn remembered(sim: &Simulator, brokers: &[NodeId]) -> usize {
        let seen = |id| {
            let broker = sim.node_ref::<BrokerNode>(id).expect("broker");
            let fed = broker.federation.as_ref().expect("federated");
            let sizes = fed.seen_batches.iter();
            sizes.map(|s| s.current.len() + s.previous.len()).max()
        };
        brokers.iter().filter_map(|&id| seen(id)).max().unwrap_or(0)
    }

    /// The dedup memory follows the batch rate, not the run length:
    /// over 100 000 one-frame batches a receiver never remembers more
    /// ids than arrive in two spans, and every publish still reaches the
    /// subscriber exactly once.
    #[test]
    fn remembered_batch_ids_stay_within_two_spans_of_arrivals() {
        const BATCHES: u32 = 100_000;
        let period = SimDuration::from_millis(20);
        let mut sim = Simulator::new(SimConfig { seed: seed(41) });
        let one_frame = BatchPolicy {
            max_items: 1,
            ..BatchPolicy::default()
        };
        let brokers = add_brokers(&mut sim, 2, one_frame);
        let tally = sim.add_node(
            "tally",
            Tally {
                client: PubSubClient::new(brokers[1], CLIENT_TAGS),
                filter: TopicFilter::new("district/d0/#").expect("filter"),
                got: vec![0; BATCHES as usize],
            },
        );
        sim.run_for(SimDuration::from_millis(100));
        sim.add_node(
            "ticker",
            Ticker {
                client: PubSubClient::new(brokers[0], CLIENT_TAGS),
                topic: Topic::new("district/d0/entity/e/device/m/power").expect("topic"),
                period,
                count: BATCHES,
                sent: 0,
            },
        );
        // A generation ends at the first arrival one span after it
        // began, so jitter can stretch it by one id past rate × span.
        let bound = 2 * (SEEN_SPAN.as_nanos() / period.as_nanos() + 1) as usize;
        let mut most = 0;
        for _ in 0..(u64::from(BATCHES) * 20 / 1000 + 20) {
            sim.run_for(SimDuration::from_secs(1));
            most = most.max(remembered(&sim, &brokers));
        }
        assert!(
            most <= bound,
            "{most} ids remembered for one peer, bound {bound}"
        );
        let got = &sim.node_ref::<Tally>(tally).expect("tally").got;
        let wrong: Vec<_> = (0..).zip(got).filter(|&(_, &n)| n != 1).collect();
        assert!(
            wrong.is_empty(),
            "(seq, times) not delivered once: {wrong:?}"
        );
        let receiver = sim.node_ref::<BrokerNode>(brokers[1]).expect("broker");
        assert_eq!(receiver.bridge_stats().frames_received, u64::from(BATCHES));
    }
}
