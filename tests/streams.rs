//! End-to-end tests of the aggregation tier: device measurements roll
//! up into retained district windows, and an aggregator crash in the
//! middle of a window loses no samples — rollup counts stay exactly
//! conserved against the device proxies' durable stores, and a crash
//! just after a flush, mid-window, just before a flush or beside a
//! broker crash leaves every closed window of both tiers as a
//! crash-free run closes it.

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

/// One window's raw fold: `(count, sum, min, max, Σ|x|)`.
type RawFold = (u64, f64, f64, f64, f64);

/// Expected per-window [`RawFold`] per quantity, rebuilt directly from the device proxies' durable stores with a
/// plain fold — the ground truth the district rollups must conserve.
fn expected_windows(
    sim: &Simulator,
    deployment: &Deployment,
    window_millis: i64,
    from: i64,
    to: i64,
) -> BTreeMap<(String, i64), RawFold> {
    let mut expected = BTreeMap::new();
    for p in deployment.device_proxies() {
        let proxy = sim.node_ref::<DeviceProxyNode>(p).unwrap();
        let series: Vec<String> = proxy.store().series_names().map(str::to_owned).collect();
        for quantity in series {
            for (t, value) in proxy.store().range(&quantity, from, to) {
                let start = t.div_euclid(window_millis) * window_millis;
                let e = expected.entry((quantity.clone(), start)).or_insert((
                    0,
                    0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    0.0,
                ));
                e.0 += 1;
                e.1 += value;
                e.2 = e.2.min(value);
                e.3 = e.3.max(value);
                e.4 += value.abs();
            }
        }
    }
    expected
}

/// A district rollup against the raw fold of its window: count, min
/// and max bit for bit, and the sum within the stated bound for two
/// groupings of the same `n` samples, `(n − 1) · ε · Σ|x|`.
fn assert_matches_raw_fold(r: &Rollup, expected: RawFold, what: &str) {
    let (count, sum, min, max, abs_sum) = expected;
    let s = &r.summary;
    assert_eq!(s.count, count, "{what}: rollup lost samples");
    assert_eq!(
        s.min.to_bits(),
        min.to_bits(),
        "{what}: min {} vs {min}",
        s.min
    );
    assert_eq!(
        s.max.to_bits(),
        max.to_bits(),
        "{what}: max {} vs {max}",
        s.max
    );
    let bound = (count - 1) as f64 * f64::EPSILON * abs_sum;
    assert!(
        (s.sum - sum).abs() <= bound,
        "{what}: sum {} vs {sum}, bound {bound}",
        s.sum
    );
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
        let s = &r.summary;
        assert!(s.count > 0);
        assert!(s.min <= s.mean() && s.mean() <= s.max);
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
        let e = expected[&("temperature".to_owned(), r.window_start)];
        assert_matches_raw_fold(r, e, &format!("temperature {}", r.window_start));
        assert!((r.summary.sum - e.1).abs() < 1e-9);
    }

    // A late subscriber sees the latest windows immediately: the
    // rollups are retained publications.
    let monitor = sim.add_node("rollup-monitor", RollupMonitor::new(deployment.broker));
    sim.run_for(SimDuration::from_secs(5));
    let m = sim.node_ref::<RollupMonitor>(monitor).unwrap();
    assert!(!m.rollups.is_empty(), "no retained rollups delivered");
    assert!(m
        .rollups
        .iter()
        .all(|r| r.district == "d0" && r.summary.count > 0));
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
            let e = expected[&(quantity.to_owned(), r.window_start)];
            let what = format!("{quantity} window {}", r.window_start);
            assert_matches_raw_fold(r, e, &what);
            assert!((r.summary.sum - e.1).abs() < 1e-9, "{what}");
            checked += r.summary.count;
        }
    }
    assert!(checked > 0, "conservation check covered no samples");

    // The flight recorder still ties post-crash closes to samples.
    let paths = reconstruct(&sim.telemetry().tracer.events());
    assert!(paths
        .iter()
        .any(|p| p.visits(&["streams.ingest", "streams.window_close"])));
}

/// When the aggregator goes down in [`crash_run`], against its 5 s flush
/// timer (armed at start, so flushes fall on whole multiples of 5 s until
/// the first restart) and its 120 s windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Crash {
    /// 1 ms after the flush at 240 s persisted the watermark.
    AfterFlush,
    /// Halfway through the window `[180 s, 300 s)` and between flushes.
    MidWindow,
    /// 1 ms before the flush at 240 s.
    BeforeFlush,
    /// 8 s into a 20 s broker outage that starts at 240 s.
    WithBroker,
}

/// A closed window of either tier: `(entity, quantity, start)`, where
/// entity `None` is the district tier.
type WindowKey = (Option<String>, String, i64);

/// Closed windows of both tiers.
type Closed = BTreeMap<WindowKey, dimmer::core::Summary>;

const SWEEP_WINDOW: i64 = 120_000;

/// Runs the crash-test scenario for 900 s with the aggregator crashing
/// as `crash` says (or never) and reboots 3 s later (12 s in the broker
/// case, as the broker does). Returns the simulator, the deployment and
/// the scenario.
fn crash_run(crash: Option<Crash>) -> (Simulator, Deployment, Scenario) {
    let scenario = aggregation_scenario(SWEEP_WINDOW, 90_000, QoS::AtLeastOnce);
    let mut sim = seeded_sim(0x57A2);
    let deployment = Deployment::build(&mut sim, &scenario);
    let agg = deployment.districts[0].aggregator.expect("tier enabled");
    let at = |millis: u64| SimDuration::from_millis(millis);
    let rest = match crash {
        None => at(900_000),
        Some(Crash::WithBroker) => {
            sim.run_for(at(240_000));
            sim.crash(deployment.broker);
            sim.run_for(at(8_000));
            sim.crash(agg);
            sim.restart(deployment.broker, at(12_000));
            sim.restart(agg, at(12_000));
            at(900_000 - 248_000)
        }
        Some(crash) => {
            let down = match crash {
                Crash::AfterFlush => 240_001,
                Crash::MidWindow => 242_500,
                _ => 239_999,
            };
            sim.run_for(at(down));
            sim.crash(agg);
            sim.restart(agg, at(3_000));
            at(900_000 - down)
        }
    };
    sim.run_for(rest);
    (sim, deployment, scenario)
}

/// Every rollup of both tiers the aggregator persisted for windows that
/// end by `to`, with the `Σ|x|` of each window's raw points from the
/// device proxies' stores.
fn closed_windows(
    sim: &Simulator,
    deployment: &Deployment,
    scenario: &Scenario,
    to: i64,
) -> (Closed, BTreeMap<WindowKey, f64>) {
    let from = DEFAULT_EPOCH_MILLIS;
    let entities = scenario.districts[0]
        .buildings
        .iter()
        .flat_map(|b| b.devices.iter().map(move |_| b.building.as_str()));
    let mut abs_sums = BTreeMap::new();
    for (p, entity) in deployment.device_proxies().zip(entities) {
        let store = sim.node_ref::<DeviceProxyNode>(p).unwrap().store();
        for quantity in store.series_names() {
            for (t, value) in store.range(quantity, from, to) {
                let start = t.div_euclid(SWEEP_WINDOW) * SWEEP_WINDOW;
                for tier in [Some(entity.to_owned()), None] {
                    *abs_sums
                        .entry((tier, quantity.to_owned(), start))
                        .or_insert(0.0) += value.abs();
                }
            }
        }
    }
    let agg_node = deployment.districts[0].aggregator.expect("tier enabled");
    let agg = sim.node_ref::<AggregatorNode>(agg_node).unwrap();
    let mut closed = Closed::new();
    for (entity, quantity, _) in abs_sums.keys() {
        let quantity = QuantityKind::parse(quantity).unwrap();
        let rollups = match entity {
            Some(entity) => agg.entity_rollups(entity, quantity, from, to),
            None => agg.district_rollups(quantity, from, to),
        };
        for r in rollups {
            let key = (
                r.entity.clone(),
                quantity.as_str().to_owned(),
                r.window_start,
            );
            closed.insert(key, r.summary);
        }
    }
    (closed, abs_sums)
}

/// The aggregator's own books after a run: every sample it took in
/// since its last restart is accepted, late or shed, and every one it
/// ever took in was observed once by the publish-to-deliver SLO.
fn assert_books_balance(sim: &Simulator, deployment: &Deployment, what: &str) {
    let agg_node = deployment.districts[0].aggregator.expect("tier enabled");
    let agg = sim.node_ref::<AggregatorNode>(agg_node).unwrap();
    let ws = agg.window_stats();
    assert_eq!(
        ws.samples_in,
        ws.accepted + ws.late_dropped + ws.shed,
        "{what}: {ws:?}"
    );
    let slo = sim
        .telemetry()
        .metrics
        .histogram(dimmer::simnet::telemetry::PUBLISH_TO_DELIVER_NS)
        .expect("samples were delivered");
    assert_eq!(slo.count, agg.stats().samples_in, "{what}");
    assert_eq!(
        sim.telemetry().metrics.counter("streams.samples_in"),
        agg.stats().samples_in,
        "{what}"
    );
}

#[test]
fn an_aggregator_crash_anywhere_around_a_flush_leaves_every_closed_window_as_without_it() {
    let (sim, deployment, scenario) = crash_run(None);
    assert_books_balance(&sim, &deployment, "crash-free");
    let agg = deployment.districts[0].aggregator.expect("tier enabled");
    let watermark = sim.node_ref::<AggregatorNode>(agg).unwrap().watermark();
    let (reference, _) = closed_windows(
        &sim,
        &deployment,
        &scenario,
        watermark.div_euclid(SWEEP_WINDOW) * SWEEP_WINDOW,
    );
    for crash in [
        Crash::AfterFlush,
        Crash::MidWindow,
        Crash::BeforeFlush,
        Crash::WithBroker,
    ] {
        let what = format!("{crash:?}");
        let (sim, deployment, scenario) = crash_run(Some(crash));
        assert_books_balance(&sim, &deployment, &what);
        let node = sim.node_ref::<AggregatorNode>(agg).unwrap();
        assert!(node.stats().recovered > 0, "{what}: nothing replayed");
        // Both runs have closed every window they compare.
        let to = node.watermark().min(watermark).div_euclid(SWEEP_WINDOW) * SWEEP_WINDOW;
        assert!(
            to >= DEFAULT_EPOCH_MILLIS + 5 * SWEEP_WINDOW,
            "{what}: run too short to close the crash windows"
        );
        let (closed, abs_sums) = closed_windows(&sim, &deployment, &scenario, to);
        let expected: Closed = reference
            .iter()
            .filter(|((_, _, start), _)| start + SWEEP_WINDOW <= to)
            .map(|(k, s)| (k.clone(), *s))
            .collect();
        assert_eq!(
            closed.keys().collect::<Vec<_>>(),
            expected.keys().collect::<Vec<_>>(),
            "{what}: windows missing or spurious"
        );
        assert!(
            closed.keys().any(|(e, ..)| e.is_some()),
            "{what}: no building tier"
        );
        for (key, s) in &closed {
            let e = &expected[key];
            let at = format!("{what} {key:?}");
            assert_eq!(s.count, e.count, "{at}: count");
            assert_eq!(s.min.to_bits(), e.min.to_bits(), "{at}: min");
            assert_eq!(s.max.to_bits(), e.max.to_bits(), "{at}: max");
            let bound = (s.count - 1) as f64 * f64::EPSILON * abs_sums[key];
            assert!(
                (s.sum - e.sum).abs() <= bound,
                "{at}: sum {} vs {}, bound {bound}",
                s.sum,
                e.sum
            );
        }
    }
}
