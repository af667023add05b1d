//! The cost contract of the Fig. 1(a) write path, counted in
//! allocations: every hop resolves a sample's identity once and then
//! writes through a handle, so what a sample still allocates is the
//! frames that carry it and the amortised growth of the tables that
//! keep it.
//!
//! This file is its own test binary, so it can install the counting
//! `#[global_allocator]` of `tests/support` without touching any other
//! suite.

use dimmer_core::{DistrictId, ProxyId};
use district::scenario::{AggregationSpec, ScenarioConfig};
use models::profiles::EnergyProfile;
use protocols::device::ZigbeeSensor;
use protocols::ProtocolKind;
use proxy::adapters::ZigbeeAdapter;
use proxy::device_proxy::{DeviceProxyConfig, DeviceProxyNode};
use proxy::devices::UplinkDeviceNode;
use pubsub::{BrokerNode, MeasurementTopic, PubSubClient, QoS, SubscriptionTrie, TopicFilter};
use simnet::time::TimerWheel;
use simnet::{Context, Node, Packet, SimConfig, SimDuration, SimTime, Simulator};
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
                broker: Some(broker),
                device_node: None,
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
    // subscriber costs the frames it sends and keeps — the PubAck, a
    // Deliver per subscriber, and the copy of the QoS 1 Deliver held
    // for redelivery — and nothing for matching, the target list or
    // the retained slot. Acks and pings cost at most their reply, and
    // a rollup publish matches no subscriber.
    let at_broker = packet_costs::<BrokerNode>(&mut sim, broker);
    let publishes = at_broker.iter().filter(|&&cost| cost > 1).count();
    assert_eq!(publishes as u64, samples);
    assert_eq!(at_broker.iter().max(), Some(&4));

    // The Device-proxy: the decoded frame and its sample list, the
    // Publish frame and the copy held for retransmission; topic, series
    // and payload buffer are resolved. The rest is `BTreeMap` growth.
    let at_proxy = per_sample(&packet_costs::<DeviceProxyNode>(&mut sim, proxy));
    assert!(at_proxy <= 4.5, "proxy: {at_proxy} per sample");

    // The aggregator: the owned topic and payload its client hands
    // over, the DeliverAck, the decoded measurement's device id; route,
    // series and pane key are resolved. The rest is `BTreeMap` and
    // trace-list growth. (Windows close on its flush timer here.)
    let at_aggregator = per_sample(&packet_costs::<AggregatorNode>(&mut sim, aggregator));
    assert!(
        at_aggregator <= 5.0,
        "aggregator: {at_aggregator} per sample"
    );
}
