//! E12 — federated broker tier: throughput scaling and bridge fault
//! tolerance.
//!
//! Claims tested:
//!
//! 1. **Sharding scales aggregate throughput.** A fixed publisher
//!    population (8 districts × 3 publishers at 40 msg/s each) is served
//!    by 1, 2, 4 and 8 topic-sharded brokers whose NICs are capped at
//!    500 kbit/s — enough that the single broker saturates. District
//!    traffic stays on the district's local shard (the deployment wiring
//!    of `district::deploy`), so adding shards multiplies usable NIC
//!    capacity: 4 shards must deliver ≥ 2× the single-broker rate.
//! 2. **QoS 1 survives bridge link faults.** With 2 shards and a
//!    cross-shard subscriber, the bridge link is flapped repeatedly
//!    mid-batch; batched-frame retransmission and batch-id dedup must
//!    hand every QoS 1 publish across exactly once.

use std::collections::HashSet;

use bench_support::stats::Summary;
use district::report::{fmt_f64, Table};
use pubsub::{
    BrokerNode, FederationConfig, PubSubClient, PubSubEvent, QoS, ShardMap, Topic, TopicFilter,
    PUBSUB_PORT,
};
use simnet::batch::BatchPolicy;
use simnet::chaos::{ChaosRunner, Fault, FaultPlan};
use simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, SimTime, Simulator, TimerTag};

const DISTRICTS: usize = 8;
const PUBS_PER_DISTRICT: usize = 3;
const PUBLISH_INTERVAL: SimDuration = SimDuration::from_millis(25);
/// Per-direction broker NIC cap; the aggregate offered load needs ~2.4×
/// this, so one broker saturates and four do not.
const BROKER_NIC_BPS: u64 = 500_000;
const WARMUP: SimDuration = SimDuration::from_secs(5);
const MEASURE: SimDuration = SimDuration::from_secs(60);

/// Federates `shards` labeled brokers over `districts` round-robin
/// district assignments (district i → shard i % shards), mirroring
/// `district::deploy`.
fn build_brokers(
    sim: &mut Simulator,
    shards: usize,
    districts: usize,
    nic_bps: Option<u64>,
) -> Vec<NodeId> {
    let ids: Vec<NodeId> = (0..shards)
        .map(|i| {
            sim.add_node(
                format!("broker-{i}"),
                BrokerNode::with_label(format!("b{i}")),
            )
        })
        .collect();
    let mut shard = ShardMap::new(shards);
    for d in 0..districts {
        shard.assign(format!("d{d}"), d % shards);
    }
    for (i, &id) in ids.iter().enumerate() {
        sim.node_mut::<BrokerNode>(id)
            .expect("just added")
            .federate(FederationConfig {
                index: i,
                brokers: ids.clone(),
                shard: shard.clone(),
                batch: BatchPolicy::default(),
            });
        sim.set_node_bandwidth(id, nic_bps);
    }
    ids
}

/// A constant-rate publisher stamping each payload with its send time.
struct LoadPub {
    client: PubSubClient,
    topic: Topic,
    interval: SimDuration,
    start_offset: SimDuration,
    stop_at: SimTime,
    qos: QoS,
    sent: u64,
}

impl Node for LoadPub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.start_offset, TimerTag(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag != TimerTag(1) {
            self.client.on_timer(ctx, tag);
            return;
        }
        if ctx.now() >= self.stop_at {
            return;
        }
        let mut payload = format!("{} {}", self.sent, ctx.now().as_nanos());
        while payload.len() < 64 {
            payload.push(' ');
        }
        self.client.publish(
            ctx,
            self.topic.clone(),
            payload.into_bytes(),
            false,
            self.qos,
        );
        self.sent += 1;
        ctx.set_timer(self.interval, TimerTag(1));
    }
}

/// A subscriber recording per-message latency inside a measure window.
struct LoadSub {
    client: PubSubClient,
    filter: String,
    window: (SimTime, SimTime),
    received: u64,
    latencies_ns: Vec<u64>,
    seqs: HashSet<u64>,
}

impl LoadSub {
    fn new(broker: NodeId, filter: impl Into<String>, window: (SimTime, SimTime)) -> Self {
        LoadSub {
            client: PubSubClient::new(broker, 100),
            filter: filter.into(),
            window,
            received: 0,
            latencies_ns: Vec::new(),
            seqs: HashSet::new(),
        }
    }
}

impl Node for LoadSub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            TopicFilter::new(&self.filter).expect("valid filter"),
            QoS::AtLeastOnce,
        );
        self.client.start_keepalive(ctx, SimDuration::from_secs(2));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != PUBSUB_PORT {
            return;
        }
        if let Some(PubSubEvent::Message { payload, .. }) = self.client.accept(ctx, &pkt) {
            let text = String::from_utf8_lossy(&payload);
            let mut parts = text.split_whitespace();
            let seq: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            let sent_ns: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            self.seqs.insert(seq);
            let now = ctx.now();
            if now >= self.window.0 && now < self.window.1 {
                self.received += 1;
                self.latencies_ns
                    .push(now.as_nanos().saturating_sub(sent_ns));
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

struct RunResult {
    delivered_per_sec: f64,
    p99_ms: f64,
    bridge_frames: u64,
}

/// One throughput run: district traffic on district-local shards, QoS 0,
/// NIC-capped brokers.
fn run_throughput(shards: usize) -> RunResult {
    let mut sim = Simulator::new(SimConfig::default());
    let brokers = build_brokers(&mut sim, shards, DISTRICTS, Some(BROKER_NIC_BPS));

    let t0 = SimTime::ZERO + WARMUP;
    let t1 = t0 + MEASURE;
    let subs: Vec<NodeId> = (0..DISTRICTS)
        .map(|d| {
            sim.add_node(
                format!("sub-d{d}"),
                LoadSub::new(brokers[d % shards], format!("district/d{d}/#"), (t0, t1)),
            )
        })
        .collect();
    for d in 0..DISTRICTS {
        for p in 0..PUBS_PER_DISTRICT {
            let idx = d * PUBS_PER_DISTRICT + p;
            sim.add_node(
                format!("pub-d{d}-{p}"),
                LoadPub {
                    client: PubSubClient::new(brokers[d % shards], 100),
                    topic: Topic::new(format!(
                        "district/d{d}/entity/b{p}/device/dev{p}/active_power"
                    ))
                    .expect("valid topic"),
                    interval: PUBLISH_INTERVAL,
                    start_offset: SimDuration::from_millis(50 + (idx as u64 * 7) % 25),
                    stop_at: t1,
                    qos: QoS::AtMostOnce,
                    sent: 0,
                },
            );
        }
    }
    sim.run_for(WARMUP + MEASURE);

    let mut delivered = 0u64;
    let mut latencies = Summary::new("latency_ns");
    for &s in &subs {
        let sub = sim.node_ref::<LoadSub>(s).expect("sub");
        delivered += sub.received;
        for &ns in &sub.latencies_ns {
            latencies.record(ns as f64);
        }
    }
    let bridge_frames = brokers
        .iter()
        .map(|&b| {
            sim.node_ref::<BrokerNode>(b)
                .expect("broker")
                .bridge_stats()
                .frames_enqueued
        })
        .sum();
    RunResult {
        delivered_per_sec: delivered as f64 / MEASURE.as_nanos() as f64 * 1e9,
        p99_ms: latencies.percentile(99.0) / 1e6,
        bridge_frames,
    }
}

/// The bridge fault run: 2 shards, a cross-shard QoS 1 subscriber, and a
/// fault plan that flaps the bridge link mid-batch.
fn run_bridge_faults() {
    const PUBLISHES: u64 = 200;
    let mut sim = Simulator::new(SimConfig::default());
    let brokers = build_brokers(&mut sim, 2, 2, None);

    // District d1 lives on shard 1; the monitor listens on shard 0, so
    // every publish crosses the bridge.
    let monitor = sim.add_node(
        "monitor",
        LoadSub::new(
            brokers[0],
            "district/#",
            (SimTime::ZERO, SimTime::from_secs(1 << 30)),
        ),
    );
    sim.add_node(
        "pub-d1",
        LoadPub {
            client: PubSubClient::new(brokers[1], 100),
            topic: Topic::new("district/d1/entity/b0/device/dev0/active_power").expect("valid"),
            interval: SimDuration::from_millis(100),
            start_offset: SimDuration::from_secs(1),
            stop_at: SimTime::from_secs(1) + SimDuration::from_millis(100 * PUBLISHES),
            qos: QoS::AtLeastOnce,
            sent: 0,
        },
    );

    let mut plan = FaultPlan::new();
    for i in 0..3u64 {
        plan = plan.at(
            SimTime::from_secs(3 + i * 7),
            Fault::LinkFlap {
                a: brokers[0],
                b: brokers[1],
                down: SimDuration::from_secs(4),
            },
        );
    }
    let mut runner = ChaosRunner::new(plan);
    runner.run_until(&mut sim, SimTime::from_secs(30));
    // Drain: retries settle (8 tries × 2 s budget).
    sim.run_for(SimDuration::from_secs(60));

    let m = sim.node_ref::<LoadSub>(monitor).expect("monitor");
    let sent = PUBLISHES.min(m.seqs.iter().max().map_or(0, |&s| s + 1));
    let b1 = sim.node_ref::<BrokerNode>(brokers[1]).expect("broker");
    let s = b1.bridge_stats();
    println!("## E12 bridge fault run (2 shards, 3 × 4 s link flaps, QoS 1)");
    println!("publishes          {PUBLISHES}");
    println!("unique received    {}", m.seqs.len());
    println!("bridge batches     {}", s.batches_sent);
    println!("bridge retries     {}", s.retries);
    println!("bridge dropped     {}", s.frames_dropped);
    assert_eq!(
        m.seqs.len() as u64,
        PUBLISHES,
        "QoS 1 loss across the bridge (last seq seen {sent})"
    );
    assert_eq!(s.frames_dropped, 0, "bridge dropped frames: {s:?}");
    assert!(
        s.retries > 0,
        "no flap hit an in-flight batch — the plan is toothless"
    );
    assert_eq!(
        s.frames_enqueued,
        s.frames_acked + b1.bridge_in_flight() as u64 + b1.bridge_buffered() as u64,
        "bridge ledger out of balance: {s:?}"
    );
    println!("qos1 conservation  ok (every publish crossed exactly once)");
}

fn main() {
    let offered = DISTRICTS * PUBS_PER_DISTRICT * 1_000 / PUBLISH_INTERVAL.as_millis_f64() as usize;
    let mut table = Table::new(
        "E12: federated broker throughput (8 districts, 24 publishers, NIC-capped brokers)",
        [
            "shards",
            "offered_msg_s",
            "delivered_msg_s",
            "p99_ms",
            "bridge_frames",
            "speedup_vs_1",
        ],
    );
    let mut single = None;
    for &shards in &[1usize, 2, 4, 8] {
        let r = run_throughput(shards);
        let base = *single.get_or_insert(r.delivered_per_sec);
        table.row([
            shards.to_string(),
            offered.to_string(),
            fmt_f64(r.delivered_per_sec, 1),
            fmt_f64(r.p99_ms, 1),
            r.bridge_frames.to_string(),
            fmt_f64(r.delivered_per_sec / base, 2),
        ]);
    }
    println!("{table}");
    println!("# series (csv)\n{}", table.to_csv());
    run_bridge_faults();
}
