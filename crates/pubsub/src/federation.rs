//! Broker federation: topic-sharded brokers bridged per-link.
//!
//! The paper's middleware exposes one publish/subscribe entry point per
//! district; at production scale that single broker saturates (E8). The
//! federation tier shards the topic space by district — each shard is
//! owned by exactly one broker — and bridges the brokers pairwise:
//!
//! * **Shard ownership.** A [`ShardMap`] assigns every district (the
//!   second segment of `district/<d>/...` topics) to one broker index;
//!   topics outside the district namespace hash onto a shard. Ownership
//!   is a partition: every topic has exactly one owner.
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
//!   batch id, so QoS 1 conservation holds across a lossy or flapping
//!   bridge link. Incarnation numbers ride on every bridge frame; a
//!   restart on either end wipes the routing state learned from the dead
//!   incarnation and triggers re-advertisement.
//!
//! The logic lives on [`BrokerNode`] (see
//! `broker.rs`); this module holds the shard map, the federation
//! configuration and the bridge bookkeeping.

use std::collections::{HashMap, HashSet};

use simnet::batch::{BatchPolicy, Batcher};
use simnet::rpc::Retransmit;
use simnet::{NodeId, SimTime, Simulator};

use crate::topic::SubscriptionTrie;
use crate::wire::{BridgeFrame, QoS};
use crate::{BrokerNode, Topic, TopicFilter};

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
const BATCH_RETRY_TIMEOUT: simnet::SimDuration = simnet::SimDuration::from_secs(2);
/// Retransmissions before a batch's frames are counted dropped.
const BATCH_MAX_RETRIES: u32 = 8;

/// Assigns every topic to exactly one broker shard.
///
/// District topics (`district/<d>/...`) are owned by the broker the
/// district was assigned to — or, for districts never assigned, by a
/// deterministic hash of the district name. Topics outside the district
/// namespace hash on their full text. Either way the owner is a pure
/// function of the topic, so ownership partitions the topic space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    districts: HashMap<String, usize>,
}

impl ShardMap {
    /// A map over `shards` brokers with no district assignments yet
    /// (everything hash-routed). `shards` must be at least 1.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a federation needs at least one shard");
        ShardMap {
            shards,
            districts: HashMap::new(),
        }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Pins `district` to the broker at `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn assign(&mut self, district: impl Into<String>, shard: usize) {
        assert!(shard < self.shards, "shard {shard} out of range");
        self.districts.insert(district.into(), shard);
    }

    /// The district segment of a topic, when it has one.
    pub fn district_of(topic: &Topic) -> Option<&str> {
        let mut segs = topic.segments();
        match (segs.next(), segs.next()) {
            (Some("district"), Some(d)) => Some(d),
            _ => None,
        }
    }

    /// The owning shard of `topic`. Total and deterministic: every topic
    /// has exactly one owner in `0..shards()`.
    pub fn owner(&self, topic: &Topic) -> usize {
        match Self::district_of(topic) {
            Some(d) => match self.districts.get(d) {
                Some(&shard) => shard,
                None => fnv1a(d.as_bytes()) as usize % self.shards,
            },
            None => fnv1a(topic.as_str().as_bytes()) as usize % self.shards,
        }
    }
}

/// FNV-1a: a deterministic hash independent of the process's random
/// hasher state, so shard routing replays identically across runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How a broker participates in a federation.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// This broker's shard index into `brokers`.
    pub index: usize,
    /// Every broker in the federation, shard index order (including this
    /// one at `index`).
    pub brokers: Vec<NodeId>,
    /// The shard ownership map (shared verbatim by all members).
    pub shard: ShardMap,
    /// Flush policy for the per-peer bridge batchers.
    pub batch: BatchPolicy,
}

/// Adds a federation of `shards` brokers to `sim` and returns their ids
/// in shard index order. Broker `i` is named `broker-{i}`, labelled
/// `b{i}` and placed on simulation shard `i % sim.shard_count()`; the
/// `j`-th of `districts` is owned by broker `j % shards`; every broker
/// bridges to every other under `batch`.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn add_brokers<D: Into<String>>(
    sim: &mut Simulator,
    shards: usize,
    districts: impl IntoIterator<Item = D>,
    batch: BatchPolicy,
) -> Vec<NodeId> {
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
    let mut shard = ShardMap::new(shards);
    for (j, district) in districts.into_iter().enumerate() {
        shard.assign(district, j % shards);
    }
    for (index, &id) in brokers.iter().enumerate() {
        sim.node_mut::<BrokerNode>(id)
            .expect("just added")
            .federate(FederationConfig {
                index,
                brokers: brokers.clone(),
                shard: shard.clone(),
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
    /// Batches received from peers, duplicates included.
    pub(crate) batches_received: u64,
    /// Frames applied locally from received batches.
    pub frames_received: u64,
    /// Received batches discarded as retransmissions of an applied batch.
    pub(crate) duplicate_batches: u64,
    /// Batch retransmissions sent.
    pub retries: u64,
}

/// Per-broker federation bookkeeping (lives on `BrokerNode`).
#[derive(Debug)]
pub(crate) struct FederationState {
    pub(crate) config: FederationConfig,
    /// Peer node id → shard index, for classifying inbound bridge frames.
    pub(crate) peer_index: HashMap<NodeId, usize>,
    /// Filters peers advertised, matched against local publishes.
    pub(crate) remote_subs: SubscriptionTrie<RemoteSub>,
    /// The same filters indexed per peer (filter text → filter), so a
    /// peer restart can purge exactly what that peer advertised.
    pub(crate) peer_filters: Vec<HashMap<String, TopicFilter>>,
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
    /// Batch ids already applied, per peer (reset on peer restart).
    pub(crate) seen_batches: Vec<HashSet<u64>>,
    /// One circuit breaker per peer link (this broker's own slot idles
    /// closed); while a peer's breaker is open, its frames accumulate
    /// in the batcher instead of going on the wire.
    pub(crate) breakers: Vec<simnet::overload::CircuitBreaker>,
    pub(crate) stats: BridgeStats,
}

impl FederationState {
    pub(crate) fn new(config: FederationConfig) -> Self {
        assert!(
            config.index < config.brokers.len(),
            "federation index out of range"
        );
        assert_eq!(
            config.brokers.len(),
            config.shard.shards(),
            "one broker per shard"
        );
        let n = config.brokers.len();
        let peer_index = config
            .brokers
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        FederationState {
            peer_index,
            remote_subs: SubscriptionTrie::new(),
            peer_filters: (0..n).map(|_| HashMap::new()).collect(),
            batchers: (0..n).map(|_| Batcher::new(config.batch)).collect(),
            pending: Retransmit::new(BATCH_RETRY_BIT, BATCH_RETRY_TIMEOUT, BATCH_MAX_RETRIES),
            next_batch_id: 1,
            peer_incarnation: vec![0; n],
            seen_batches: (0..n).map(|_| HashSet::new()).collect(),
            breakers: (0..n)
                .map(|_| simnet::overload::CircuitBreaker::new(bridge_breaker_config()))
                .collect(),
            stats: BridgeStats::default(),
            config,
        }
    }

    /// Shard indices of every peer (everyone but this broker).
    pub(crate) fn peer_shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.config.brokers.len()).filter(move |&i| i != self.config.index)
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

    fn topic(s: &str) -> Topic {
        Topic::new(s).unwrap()
    }

    #[test]
    fn district_topics_follow_assignments() {
        let mut map = ShardMap::new(4);
        map.assign("d0", 0);
        map.assign("d1", 1);
        map.assign("d2", 2);
        assert_eq!(map.owner(&topic("district/d1/entity/e/device/x/power")), 1);
        assert_eq!(map.owner(&topic("district/d2/agg/mean")), 2);
        assert_eq!(map.owner(&topic("district/d0/anything")), 0);
    }

    #[test]
    fn unassigned_districts_hash_deterministically() {
        let map = ShardMap::new(4);
        let a = map.owner(&topic("district/mystery/x"));
        let b = map.owner(&topic("district/mystery/y/z"));
        assert_eq!(a, b, "same district, same owner regardless of suffix");
        assert!(a < 4);
    }

    #[test]
    fn non_district_topics_hash_on_full_text() {
        let map = ShardMap::new(3);
        let a = map.owner(&topic("ops/heartbeat"));
        assert_eq!(a, map.owner(&topic("ops/heartbeat")));
        assert!(a < 3);
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(1);
        assert_eq!(map.owner(&topic("district/d9/x")), 0);
        assert_eq!(map.owner(&topic("a/b/c")), 0);
    }

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
        let districts: Vec<String> = (0..8).map(|j| format!("d{j}")).collect();
        let brokers = add_brokers(&mut sim, 4, &districts, BatchPolicy::default());
        assert_eq!(brokers.len(), 4);
        for (i, &id) in brokers.iter().enumerate() {
            assert_eq!(id.shard(), i % 2, "broker {i}'s sim shard");
            assert_eq!(sim.node_name(id), format!("broker-{i}"));
            let broker = sim.node_ref::<BrokerNode>(id).unwrap();
            let config = &broker.federation.as_ref().expect("federated").config;
            assert_eq!((config.index, &config.brokers), (i, &brokers));
            for (j, d) in districts.iter().enumerate() {
                let t = topic(&format!("district/{d}/entity/e/device/x/power"));
                assert_eq!(config.shard.owner(&t), j % 4, "owner of {d}");
            }
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
}
