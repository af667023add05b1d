//! The cost contract of the Fig. 1(a) write path, counted in
//! allocations: every hop resolves a sample's identity once and then
//! writes through a handle, so what a sample still allocates is the
//! frames that carry it and the amortised growth of the tables that
//! keep it.
//!
//! This file is its own test binary, so it can install the counting
//! `#[global_allocator]` of `tests/support` without touching any other
//! suite.

use dimmer_core::{DistrictId, ProxyId, Uri};
use district::scenario::{AggregationSpec, ScenarioConfig};
use master::MasterNode;
use models::profiles::EnergyProfile;
use protocols::device::ZigbeeSensor;
use protocols::ProtocolKind;
use proxy::adapters::ZigbeeAdapter;
use proxy::device_proxy::{DeviceProxyConfig, DeviceProxyNode};
use proxy::devices::UplinkDeviceNode;
use proxy::registration::{MasterSession, ProxyRole, Registration};
use pubsub::{BrokerNode, MeasurementTopic, PubSubClient, QoS, SubscriptionTrie, TopicFilter};
use simnet::rng::DeterministicRng;
use simnet::rpc::Retransmit;
use simnet::telemetry::NO_TRACE;
use simnet::time::TimerWheel;
use simnet::{
    Context, Frame, Node, Packet, Port, SimConfig, SimDuration, SimTime, Simulator, TimerTag,
};
use storage::tskv::TimeSeriesStore;
use streams::{AggregatorConfig, AggregatorNode, WindowSpec};

#[path = "support/counted.rs"]
mod counted;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counted::Counted;
use counting_alloc::allocations_in;

const T0: i64 = 1_425_859_200_000;

#[test]
fn writes_through_a_series_id_allocate_only_tree_growth() {
    let mut store = TimeSeriesStore::new();
    let name = "raw/d0-b0/d0-b0-dev0/temperature";
    let id = store.series_id(name);
    for i in 0..100 {
        store.insert_at(id, T0 + i * 2_000, 21.5);
    }
    // Last-writer-wins overwrites grow nothing but the WAL, which
    // doubles at most once over this many records; by name it is the
    // same body after one lookup.
    let ((), by_id) = allocations_in(|| {
        for i in 0..100 {
            store.insert_at(id, T0 + i * 2_000, 22.0);
        }
    });
    let ((), by_name) = allocations_in(|| {
        for i in 0..100 {
            store.insert(name, T0 + i * 2_000, 22.5);
        }
    });
    assert!(
        by_id <= 1 && by_name <= 1,
        "{by_id} by id, {by_name} by name"
    );
    // New timestamps add `BTreeMap` nodes: a leaf per 6 to 11 points.
    let ((), fresh) = allocations_in(|| {
        for i in 100..300 {
            store.insert_at(id, T0 + i * 2_000, 21.5);
        }
    });
    assert!(
        fresh <= 200 / 5 + 1,
        "{fresh} allocations for 200 new points"
    );
    let (found, probing) = allocations_in(|| {
        (0..600)
            .filter(|i| store.contains_at(id, T0 + i * 1_000))
            .count()
    });
    assert_eq!((found, probing), (300, 0));
}

#[test]
fn matching_a_topic_allocates_nothing() {
    let mut trie = SubscriptionTrie::new();
    for (value, filter) in [
        "district/d0/entity/+/device/+/+",
        "district/d0/#",
        "district/+/entity/d0-b1/#",
        "district/d0/entity/d0-b1/device/d0-b1-dev2/temperature",
        "#",
    ]
    .into_iter()
    .enumerate()
    {
        trie.insert(&TopicFilter::new(filter).unwrap(), value);
    }
    let topic = "district/d0/entity/d0-b1/device/d0-b1-dev2/temperature";
    let (visited, allocations) = allocations_in(|| {
        let mut visited = 0;
        for _ in 0..100 {
            trie.for_each_match(topic, |_| visited += 1);
        }
        visited
    });
    assert_eq!((visited, allocations), (500, 0));
}

#[test]
fn a_warmed_timer_wheel_cycles_without_allocating() {
    // The simulator's steady state: every pop schedules a successor a
    // few hundred microseconds to a few milliseconds out, so level-0
    // buckets fill and drain in turn.
    let mut wheel = TimerWheel::new();
    let mut seq = 0u64;
    let mut cycle = |wheel: &mut TimerWheel, rounds: usize| {
        for _ in 0..rounds {
            let (now, s, handle) = wheel.pop().expect("never drains");
            seq += 1;
            let after = 200_000 + (s % 17) * 250_000;
            wheel.push(SimTime::from_nanos(now.as_nanos() + after), seq, handle);
        }
    };
    for handle in 0..512 {
        wheel.push(SimTime::from_nanos(u64::from(handle) * 7_000), 0, handle);
    }
    // Warm-up: several laps of the 64 level-0 buckets.
    cycle(&mut wheel, 200_000);
    let ((), allocations) = allocations_in(|| cycle(&mut wheel, 200_000));
    assert_eq!(allocations, 0);
}

/// Subscribes at QoS 0 and drops what arrives: the broker's second,
/// weaker subscriber.
struct Listener {
    client: PubSubClient,
    filter: TopicFilter,
}

impl Node for Listener {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client
            .subscribe(ctx, self.filter.clone(), QoS::AtMostOnce);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }
}

/// Swallows registrations and heartbeats.
struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}

/// What a hop's packets have cost it since the last reading.
fn packet_costs<N: Node>(sim: &mut Simulator, id: simnet::NodeId) -> Vec<u64> {
    let counted = sim.node_mut::<Counted<N>>(id).expect("placed by the test");
    std::mem::take(&mut counted.per_packet)
}

/// One ZigBee device of the `small()` scenario behind its Device-proxy,
/// the district's broker and its 10 s aggregator, each wrapped in
/// [`Counted`], publishing at QoS 1 every 2 s.
#[test]
fn one_sample_stays_within_its_budget_at_every_hop() {
    let scenario = ScenarioConfig::small()
        .with_aggregation(AggregationSpec::tumbling(10_000))
        .build();
    let config = &scenario.config;
    let spec = &scenario.districts[0];
    let (building, dev) = spec
        .buildings
        .iter()
        .flat_map(|b| b.devices.iter().map(move |d| (b, d)))
        .find(|(_, d)| d.protocol == ProtocolKind::Zigbee)
        .expect("the typical mix places a ZigBee device");
    let aggregation = config.aggregation.expect("configured above");
    let interval = SimDuration::from_secs(2);

    let mut sim = Simulator::new(SimConfig::default());
    // A ring the warm-up fills, so the trace ring, which every hop
    // records into, grows in no measured packet.
    const RING: usize = 512;
    sim.telemetry().tracer.set_capacity(RING);
    let master = sim.add_node("master", Sink);
    let broker = sim.add_node("broker", Counted::new(BrokerNode::new()));
    let mut agg_config = AggregatorConfig::new(
        ProxyId::new("agg").unwrap(),
        spec.district.clone(),
        master,
        broker,
        config.epoch_offset_millis,
    );
    agg_config.window = WindowSpec::tumbling(aggregation.window_millis);
    agg_config.lateness_millis = aggregation.lateness_millis;
    let aggregator = sim.add_node("agg", Counted::new(AggregatorNode::new(agg_config)));
    sim.add_node(
        "listener",
        Listener {
            client: PubSubClient::new(broker, 100),
            filter: MeasurementTopic::district_filter(spec.district.as_str()).unwrap(),
        },
    );
    let proxy = sim.add_node(
        "proxy",
        Counted::new(DeviceProxyNode::new(
            DeviceProxyConfig {
                proxy: ProxyId::new("proxy").unwrap(),
                district: DistrictId::new(spec.district.as_str()).unwrap(),
                entity_id: building.building.as_str().to_owned(),
                device: dev.device.clone(),
                primary_quantity: dev.quantity,
                master,
                broker,
                poll_interval: None,
                retention: None,
                location: None,
                epoch_offset_millis: config.epoch_offset_millis,
                publish_qos: QoS::AtLeastOnce,
            },
            Box::new(ZigbeeAdapter::new(dev.address as u16)),
        )),
    );
    sim.add_node(
        "device",
        UplinkDeviceNode::new(
            Box::new(ZigbeeSensor::new(dev.address as u16, dev.quantity)),
            EnergyProfile::for_quantity(dev.quantity, 7),
            proxy,
            interval,
            config.epoch_offset_millis,
        ),
    );

    // Warm-up: identities resolve, tables and buffers reach their size,
    // the first windows close.
    sim.run_for(SimDuration::from_secs(120));
    let tracer = &sim.telemetry().tracer;
    assert_eq!(tracer.len(), RING, "the ring is full");
    assert!(tracer.dropped() > 0, "and has wrapped");
    let aggregated = |sim: &Simulator| {
        let counted = sim.node_ref::<Counted<AggregatorNode>>(aggregator);
        counted.expect("placed above").inner.stats()
    };
    let samples_before = aggregated(&sim).samples_in;
    packet_costs::<DeviceProxyNode>(&mut sim, proxy);
    packet_costs::<BrokerNode>(&mut sim, broker);
    packet_costs::<AggregatorNode>(&mut sim, aggregator);

    sim.run_for(SimDuration::from_secs(200));
    let stats = aggregated(&sim);
    let samples = stats.samples_in - samples_before;
    assert_eq!((samples, stats.duplicates), (100, 0));
    assert!(stats.rollups_published >= 40, "two tiers, 10 s windows");
    let per_sample = |costs: &[u64]| costs.iter().sum::<u64>() as f64 / samples as f64;

    // The broker: a QoS 1 retained publish to one QoS 1 and one QoS 0
    // subscriber costs its two Delivers — the QoS 1 one a shared frame
    // that its redelivery copy reuses, the QoS 0 one an exact-size
    // buffer — and nothing for the inline PubAck, matching, the target
    // list or the retained slot. Acks, pings and redeliveries cost
    // nothing, and a rollup publish matches no subscriber.
    let at_broker = packet_costs::<BrokerNode>(&mut sim, broker);
    let publishes = at_broker.iter().filter(|&&cost| cost > 0).count();
    assert_eq!(publishes as u64, samples);
    assert_eq!(at_broker.iter().max(), Some(&2));

    // The Device-proxy: the sample list (the frame decodes as a view of
    // the packet) and the Publish frame, shared with the retransmission
    // it keeps; topic, series and payload buffer are resolved. The rest
    // is `BTreeMap` growth.
    let at_proxy = per_sample(&packet_costs::<DeviceProxyNode>(&mut sim, proxy));
    assert!(at_proxy <= 2.5, "proxy: {at_proxy} per sample");

    // The aggregator: its client borrows the topic and payload, the
    // DeliverAck goes inline and the reading is decoded without a
    // device id; route, series and pane key are resolved. What is left
    // is `BTreeMap` and trace-list growth. (Windows close on its flush
    // timer here.)
    let at_aggregator = per_sample(&packet_costs::<AggregatorNode>(&mut sim, aggregator));
    assert!(
        at_aggregator <= 1.0,
        "aggregator: {at_aggregator} per sample"
    );
}

/// Drives one retransmission ledger through a seeded keep/ack churn in
/// its start callback, recording what each keep and ack allocates.
struct Churn {
    ledger: Retransmit<()>,
    per_step: Vec<u64>,
}

impl Node for Churn {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut rng = DeterministicRng::seed_from(0x5EED_0055);
        let peer = ctx.node_id();
        let mut outstanding: Vec<u64> = Vec::with_capacity(256);
        self.per_step.reserve(40_000);
        for id in 0..20_000u64 {
            // Up to 120 frames in flight, acked out of order: the table
            // runs near full, so removals leave tombstones and growth
            // comes early or late depending on where the ids hash.
            if outstanding.len() < 120 && (outstanding.is_empty() || rng.chance(0.5)) {
                let frame = Frame::from(vec![0u8; 32]);
                let ((), n) = allocations_in(|| {
                    self.ledger
                        .keep(ctx, id, peer, Port(9), frame, NO_TRACE, ());
                });
                self.per_step.push(n);
                outstanding.push(id);
            } else {
                let i = rng.next_bounded(outstanding.len() as u64) as usize;
                let id = outstanding.swap_remove(i);
                let (acked, n) = allocations_in(|| self.ledger.ack(id));
                assert!(acked.is_some());
                self.per_step.push(n);
            }
        }
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}

/// The ledger's table hashes ids with fixed keys: ledgers put through
/// one churn — probes, tombstones, growth — allocate at the same steps,
/// so a run's allocation count does not depend on the process.
#[test]
fn two_ledgers_through_one_churn_allocate_alike() {
    let churned = || {
        let mut sim = Simulator::new(SimConfig::default());
        let node = sim.add_node(
            "sender",
            Churn {
                ledger: Retransmit::new(1_000, SimDuration::from_secs(3600), 3),
                per_step: Vec::new(),
            },
        );
        sim.run_for(SimDuration::from_millis(1));
        let churn = sim.node_mut::<Churn>(node).expect("placed above");
        std::mem::take(&mut churn.per_step)
    };
    let first = churned();
    for _ in 0..3 {
        let other = churned();
        let at =
            |steps: &[u64]| -> Vec<usize> { (0..steps.len()).filter(|&i| steps[i] > 0).collect() };
        assert_eq!(at(&other), at(&first), "steps that allocate");
        assert_eq!(other, first);
    }
}

const HEARTBEAT: TimerTag = TimerTag(1);

/// A proxy that only keeps its session with the master, recording what
/// each heartbeat tick allocates.
struct Heartbeating {
    session: MasterSession,
    registration: Registration,
    per_tick: Vec<u64>,
}

impl Node for Heartbeating {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.session.start(ctx, self.registration.clone());
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.session.on_packet(ctx, &pkt);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        let ((), cost) = allocations_in(|| self.session.on_timer(ctx, tag));
        if tag == HEARTBEAT {
            self.per_tick.push(cost);
        }
    }
}

/// A registered proxy's heartbeat resends the request it built at start:
/// each tick costs its frame and nothing else.
#[test]
fn a_heartbeat_tick_allocates_only_its_frame() {
    let district = DistrictId::new("d0").unwrap();
    let mut sim = Simulator::new(SimConfig::default());
    let master = sim.add_node(
        "master",
        MasterNode::new([(district.clone(), "Demo".into())]),
    );
    let proxy = sim.add_node(
        "agg",
        Heartbeating {
            session: MasterSession::new(master, HEARTBEAT, 1_000),
            registration: Registration {
                proxy: ProxyId::new("agg").unwrap(),
                district,
                uri: Uri::parse("sim://n1/").unwrap(),
                role: ProxyRole::Aggregator,
            },
            per_tick: Vec::new(),
        },
    );
    // Warm-up: the registration is acknowledged and the client's books
    // reach their size.
    sim.run_for(SimDuration::from_secs(100));
    let node = sim.node_mut::<Heartbeating>(proxy).expect("placed above");
    assert!(node.session.is_registered());
    node.per_tick.clear();
    sim.run_for(SimDuration::from_secs(600));
    let node = sim.node_ref::<Heartbeating>(proxy).expect("placed above");
    assert_eq!(node.per_tick, vec![1; 20]);
}
