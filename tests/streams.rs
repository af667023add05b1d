//! End-to-end tests of the aggregation tier: device measurements roll
//! up into retained district windows, and an aggregator crash in the
//! middle of a window loses no samples — rollup counts stay exactly
//! conserved against the device proxies' durable stores.

use std::collections::BTreeMap;

use dimmer::core::QuantityKind;
use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::{AggregationSpec, Scenario, ScenarioConfig};
use dimmer::district::DEFAULT_EPOCH_MILLIS;
use dimmer::proxy::device_proxy::DeviceProxyNode;
use dimmer::pubsub::{PubSubClient, PubSubEvent, QoS, RollupTopic, PUBSUB_PORT};
use dimmer::simnet::telemetry::flight::reconstruct;
use dimmer::simnet::{Context, Node, Packet, SimConfig, SimDuration, Simulator, TimerTag};
use dimmer::streams::{AggregatorNode, Rollup};

/// A late subscriber to the district's rollup topics.
struct RollupMonitor {
    client: PubSubClient,
    rollups: Vec<Rollup>,
}

impl RollupMonitor {
    fn new(broker: dimmer::simnet::NodeId) -> Self {
        RollupMonitor {
            client: PubSubClient::new(broker, 100),
            rollups: Vec::new(),
        }
    }
}

impl Node for RollupMonitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            RollupTopic::district_filter("d0").expect("valid"),
            QoS::AtMostOnce,
        );
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != PUBSUB_PORT {
            return;
        }
        if let Some(PubSubEvent::Message { payload, .. }) = self.client.accept(ctx, &pkt) {
            if let Some(rollup) = std::str::from_utf8(&payload)
                .ok()
                .and_then(|text| dimmer::core::json::from_str(text).ok())
                .and_then(|v| Rollup::from_value(&v).ok())
            {
                self.rollups.push(rollup);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

fn aggregation_scenario(window_millis: i64, lateness_millis: i64, qos: QoS) -> Scenario {
    let mut config = ScenarioConfig::small()
        .with_aggregation(AggregationSpec::tumbling(window_millis).with_lateness(lateness_millis));
    config.publish_qos = qos;
    config.build()
}

/// A simulator seeded from `DIMMER_SEED` (default 0), so the CI seed
/// sweep exercises these scenarios under shifted network timing.
fn seeded_sim(base: u64) -> Simulator {
    let offset = std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    Simulator::new(SimConfig {
        seed: base + offset,
    })
}

/// Expected per-window `(count, sum)` per quantity, rebuilt directly
/// from the device proxies' durable stores — the ground truth the
/// district rollups must conserve exactly.
fn expected_windows(
    sim: &Simulator,
    deployment: &Deployment,
    window_millis: i64,
    from: i64,
    to: i64,
) -> BTreeMap<(String, i64), (u64, f64)> {
    let mut expected: BTreeMap<(String, i64), (u64, f64)> = BTreeMap::new();
    for p in deployment.device_proxies() {
        let proxy = sim.node_ref::<DeviceProxyNode>(p).unwrap();
        let series: Vec<String> = proxy.store().series_names().map(str::to_owned).collect();
        for quantity in series {
            for (t, value) in proxy.store().range(&quantity, from, to) {
                let start = t.div_euclid(window_millis) * window_millis;
                let e = expected
                    .entry((quantity.clone(), start))
                    .or_insert((0, 0.0));
                e.0 += 1;
                e.1 += value;
            }
        }
    }
    expected
}

#[test]
fn rollups_flow_from_devices_to_retained_topics_and_store() {
    let scenario = aggregation_scenario(300_000, 10_000, QoS::AtMostOnce);
    let mut sim = seeded_sim(0x57A0);
    sim.telemetry().tracer.set_capacity(1 << 17);
    let deployment = Deployment::build(&mut sim, &scenario);
    let agg_node = deployment.districts[0].aggregator.expect("tier enabled");

    // Two full five-minute windows plus lateness and flush slack.
    sim.run_for(SimDuration::from_secs(700));

    let agg = sim.node_ref::<AggregatorNode>(agg_node).unwrap();
    assert!(agg.is_registered());
    let stats = agg.stats();
    assert!(stats.samples_in > 100, "stats: {stats:?}");
    assert_eq!(stats.decode_errors, 0);
    assert!(stats.rollups_published > 0);
    let ws = agg.window_stats();
    assert_eq!(ws.samples_in, ws.accepted + ws.late_dropped + ws.shed);
    assert_eq!(ws.late_dropped, 0, "in-order pipeline must not drop");
    assert_eq!(ws.shed, 0);

    // The store serves both closed windows, count-weighted.
    let rollups = agg.district_rollups(
        QuantityKind::Temperature,
        DEFAULT_EPOCH_MILLIS,
        DEFAULT_EPOCH_MILLIS + 600_000,
    );
    assert_eq!(rollups.len(), 2, "rollups: {rollups:?}");
    for r in &rollups {
        assert!(r.count > 0);
        assert!(r.min <= r.mean() && r.mean() <= r.max);
    }

    // Exactness: the district mean is the count-weighted mean of the
    // raw samples, not a mean of building means.
    let expected = expected_windows(
        &sim,
        &deployment,
        300_000,
        DEFAULT_EPOCH_MILLIS,
        DEFAULT_EPOCH_MILLIS + 600_000,
    );
    for r in &rollups {
        let (count, sum) = expected[&("temperature".to_owned(), r.window_start)];
        assert_eq!(r.count, count);
        assert!((r.sum - sum).abs() < 1e-9);
    }

    // A late subscriber sees the latest windows immediately: the
    // rollups are retained publications.
    let monitor = sim.add_node("rollup-monitor", RollupMonitor::new(deployment.broker));
    sim.run_for(SimDuration::from_secs(5));
    let m = sim.node_ref::<RollupMonitor>(monitor).unwrap();
    assert!(!m.rollups.is_empty(), "no retained rollups delivered");
    assert!(m.rollups.iter().all(|r| r.district == "d0" && r.count > 0));
    assert!(
        m.rollups.iter().any(|r| r.entity.is_none()),
        "district tier"
    );
    assert!(
        m.rollups.iter().any(|r| r.entity.is_some()),
        "building tier"
    );

    // Telemetry: counters incremented and the flight recorder ties
    // window closes back to the samples that fed them.
    let metrics = &sim.telemetry().metrics;
    assert!(metrics.counter("streams.samples_in") > 100);
    assert!(metrics.counter("streams.rollups_published") > 0);
    assert!(metrics.histogram("streams.window_samples").is_some());
    let paths = reconstruct(&sim.telemetry().tracer.events());
    assert!(
        paths
            .iter()
            .any(|p| p.visits(&["streams.ingest", "streams.window_close"])),
        "no sample trace reaches a window close"
    );
}

#[test]
fn aggregator_crash_mid_window_conserves_rollup_counts() {
    let window = 120_000i64;
    let scenario = aggregation_scenario(window, 90_000, QoS::AtLeastOnce);
    let mut sim = seeded_sim(0x57A1);
    sim.telemetry().tracer.set_capacity(1 << 17);
    let deployment = Deployment::build(&mut sim, &scenario);
    let agg_node = deployment.districts[0].aggregator.expect("tier enabled");

    sim.run_for(SimDuration::from_secs(240));

    // Fault 1: the aggregator dies mid-window and reboots 3 s later.
    // Its open panes are volatile; the raw tail in its store plus the
    // broker's QoS 1 redelivery (retries at +2/+4/+6 s) rebuild them.
    sim.crash(agg_node);
    sim.restart(agg_node, SimDuration::from_secs(3));
    sim.run_for(SimDuration::from_secs(120));

    // Fault 2: broker and aggregator both go down, overlapping. The
    // broker falls first so no QoS 1 delivery can die with retries
    // exhausted against a crashed subscriber; publishes during the
    // outage park in the device proxies' store-and-forward buffers.
    sim.crash(deployment.broker);
    sim.run_for(SimDuration::from_secs(8));
    sim.crash(agg_node);
    sim.restart(deployment.broker, SimDuration::from_secs(12));
    sim.restart(agg_node, SimDuration::from_secs(12));
    // Quiet period: replays drain, the watermark passes the outage.
    sim.run_for(SimDuration::from_secs(400));

    let agg = sim.node_ref::<AggregatorNode>(agg_node).unwrap();
    assert!(agg.is_registered(), "aggregator re-registered");
    let stats = agg.stats();
    assert!(stats.recovered > 0, "recovery replayed the raw tail");
    assert!(stats.duplicates > 0, "redelivery deduplicated: {stats:?}");
    let ws = agg.window_stats();
    assert_eq!(ws.late_dropped, 0, "lateness horizon covered the outage");
    assert_eq!(ws.shed, 0);

    // No device proxy shed store-and-forward samples.
    for p in deployment.device_proxies() {
        let proxy = sim.node_ref::<DeviceProxyNode>(p).unwrap();
        assert_eq!(proxy.stats().shed_capacity, 0, "{}", sim.node_name(p));
        assert_eq!(proxy.backlog_len(), 0, "{}", sim.node_name(p));
    }

    // Conservation: over every closed window, the district rollup
    // carries exactly the samples the device proxies durably ingested —
    // zero rollup loss across both crashes.
    let closed_to = agg.watermark().div_euclid(window) * window;
    assert!(
        closed_to >= DEFAULT_EPOCH_MILLIS + 5 * window,
        "run too short to close the crash windows"
    );
    let expected = expected_windows(&sim, &deployment, window, DEFAULT_EPOCH_MILLIS, closed_to);
    assert!(!expected.is_empty());
    let mut checked = 0u64;
    for quantity in ["temperature", "active_power", "illuminance", "humidity"] {
        let rollups = agg.district_rollups(
            QuantityKind::parse(quantity).unwrap(),
            DEFAULT_EPOCH_MILLIS,
            closed_to,
        );
        let windows: Vec<i64> = expected
            .keys()
            .filter(|(q, _)| q == quantity)
            .map(|&(_, start)| start)
            .collect();
        assert_eq!(
            rollups.iter().map(|r| r.window_start).collect::<Vec<_>>(),
            windows,
            "{quantity}: rollup windows missing or spurious"
        );
        for r in &rollups {
            let (count, sum) = expected[&(quantity.to_owned(), r.window_start)];
            assert_eq!(
                r.count, count,
                "{quantity} window {}: rollup lost samples",
                r.window_start
            );
            assert!((r.sum - sum).abs() < 1e-9, "{quantity} {}", r.window_start);
            checked += r.count;
        }
    }
    assert!(checked > 0, "conservation check covered no samples");

    // The flight recorder still ties post-crash closes to samples.
    let paths = reconstruct(&sim.telemetry().tracer.events());
    assert!(paths
        .iter()
        .any(|p| p.visits(&["streams.ingest", "streams.window_close"])));
}
