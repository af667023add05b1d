//! Ops-plane integration: scraping `/metrics` and `/health` over the
//! Web-Service wire, and the master's merged `/fleet/health` view —
//! including a crashed proxy showing up as down.

use dimmer_core::Value;
use district::deploy::Deployment;
use district::scenario::{AggregationSpec, FederationSpec, ScenarioConfig};
use master::MasterNode;
use proxy::webservice::{WsClient, WsClientEvent, WsRequest};
use pubsub::{PubSubClient, QoS, TopicFilter, PUBSUB_PORT};
use simnet::chaos::{ChaosRunner, Fault, FaultPlan};
use simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, SimTime, Simulator, TimerTag};

const SCRAPE_EVERY: SimDuration = SimDuration::from_secs(5);

/// Periodically GETs one path from one server, keeping every successful
/// response body in arrival order.
struct Scraper {
    client: WsClient,
    server: NodeId,
    path: &'static str,
    interval: SimDuration,
    bodies: Vec<Value>,
}

impl Scraper {
    fn new(server: NodeId, path: &'static str, interval: SimDuration) -> Self {
        Scraper {
            client: WsClient::new(1_000_000),
            server,
            path,
            interval,
            bodies: Vec::new(),
        }
    }
}

impl Node for Scraper {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.interval, TimerTag(1));
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(WsClientEvent::Response { response, .. }) = self.client.accept(&pkt) {
            if response.is_ok() {
                self.bodies.push(response.body);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TimerTag(1) {
            self.client
                .request(ctx, self.server, &WsRequest::get(self.path));
            ctx.set_timer(self.interval, TimerTag(1));
        } else {
            self.client.on_timer(ctx, tag);
        }
    }
}

fn fleet_node<'a>(body: &'a Value, name: &str) -> Option<&'a Value> {
    body.get("nodes")?
        .as_array()?
        .iter()
        .find(|n| n.get("name").and_then(Value::as_str) == Some(name))
}

#[test]
fn metrics_and_health_scrape_round_trip() {
    let mut sim = Simulator::new(SimConfig::default());
    let scenario = ScenarioConfig::small().build();
    let deployment = Deployment::build(&mut sim, &scenario);
    let device_proxy = deployment.districts[0].device_proxies[0];

    let proxy_metrics = sim.add_node(
        "scrape-proxy-metrics",
        Scraper::new(device_proxy, "/metrics", SCRAPE_EVERY),
    );
    let proxy_health = sim.add_node(
        "scrape-proxy-health",
        Scraper::new(device_proxy, "/health", SCRAPE_EVERY),
    );
    let master_metrics = sim.add_node(
        "scrape-master-metrics",
        Scraper::new(deployment.master, "/metrics", SCRAPE_EVERY),
    );
    sim.run_for(SimDuration::from_secs(60));

    // The proxy's exposition is Prometheus text carrying middleware
    // counters that only exist because traffic actually flowed.
    let bodies = &sim.node_ref::<Scraper>(proxy_metrics).expect("node").bodies;
    assert!(!bodies.is_empty(), "no /metrics scrape succeeded");
    let text = bodies.last().unwrap().as_str().expect("text exposition");
    assert!(
        text.contains("# TYPE"),
        "not exposition format: {text:.100}"
    );
    assert!(
        text.contains("pubsub_publish"),
        "missing middleware counter"
    );

    // Exposition is deterministic: rendering twice with the sim paused
    // is byte-stable, and each section (counters, gauges) within it is
    // name-sorted.
    assert_eq!(
        sim.telemetry().exposition(),
        sim.telemetry().exposition(),
        "exposition not byte-stable"
    );
    let counter_names: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# TYPE") && l.ends_with("counter"))
        .filter_map(|l| l.split_whitespace().nth(2))
        .collect();
    let mut sorted = counter_names.clone();
    sorted.sort_unstable();
    assert_eq!(counter_names, sorted, "counter families not name-sorted");

    // The proxy self-reports healthy.
    let health = sim.node_ref::<Scraper>(proxy_health).expect("node");
    let body = health.bodies.last().expect("no /health scrape succeeded");
    assert_eq!(body.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(body.get("kind").and_then(Value::as_str), Some("device"));
    assert_eq!(body.get("registered").and_then(Value::as_bool), Some(true));

    // The master serves its own exposition from the same telemetry.
    let m = sim.node_ref::<Scraper>(master_metrics).expect("node");
    let mtext = m.bodies.last().expect("master scrape").as_str().unwrap();
    assert!(mtext.contains("pubsub_publish"));
}

#[test]
fn fleet_health_marks_crashed_proxy_down() {
    let mut sim = Simulator::new(SimConfig::default());
    let scenario = ScenarioConfig::small().build();
    let deployment = Deployment::build(&mut sim, &scenario);
    {
        let master = sim
            .node_mut::<MasterNode>(deployment.master)
            .expect("master");
        master.enable_fleet_scrape(SCRAPE_EVERY);
        master.track_broker("b0", deployment.broker);
    }
    let fleet = sim.add_node(
        "scrape-fleet",
        Scraper::new(
            deployment.master,
            "/fleet/health",
            SimDuration::from_secs(7),
        ),
    );
    let victim = deployment.districts[0].device_proxies[0];
    let victim_health = sim.add_node(
        "scrape-victim-health",
        Scraper::new(victim, "/health", SCRAPE_EVERY),
    );
    sim.run_for(SimDuration::from_secs(60));

    // Everything that registered is up, broker included.
    let body = sim
        .node_ref::<Scraper>(fleet)
        .expect("node")
        .bodies
        .last()
        .expect("no fleet scrape succeeded")
        .clone();
    assert_eq!(body.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(body.get("down").and_then(Value::as_i64), Some(0));
    assert!(body.get("up").and_then(Value::as_i64).unwrap_or(0) > 1);
    let broker = fleet_node(&body, "b0").expect("broker record");
    assert_eq!(broker.get("up").and_then(Value::as_bool), Some(true));
    assert_eq!(broker.get("kind").and_then(Value::as_str), Some("broker"));

    // Crash one device proxy; within two scrape rounds the fleet view
    // must show it down and the overall status degrade. Its fleet
    // record is keyed by its proxy id, self-reported at /health.
    let victim_name = sim
        .node_ref::<Scraper>(victim_health)
        .expect("node")
        .bodies
        .last()
        .expect("victim /health scrape")
        .get("proxy")
        .and_then(Value::as_str)
        .expect("proxy id in health body")
        .to_string();
    let before = fleet_node(&body, &victim_name).expect("victim in fleet view");
    assert_eq!(before.get("up").and_then(Value::as_bool), Some(true));
    sim.crash(victim);
    sim.run_for(SimDuration::from_secs(30));

    let after = sim
        .node_ref::<Scraper>(fleet)
        .expect("node")
        .bodies
        .last()
        .expect("fleet scrape after crash")
        .clone();
    assert_eq!(
        after.get("status").and_then(Value::as_str),
        Some("degraded")
    );
    assert!(after.get("down").and_then(Value::as_i64).unwrap_or(0) >= 1);
    let dead = fleet_node(&after, &victim_name).expect("victim still listed");
    assert_eq!(dead.get("up").and_then(Value::as_bool), Some(false));
    let broker_after = fleet_node(&after, "b0").expect("broker record");
    assert_eq!(broker_after.get("up").and_then(Value::as_bool), Some(true));

    // The scrape sweep also feeds the ops gauges.
    let snapshot = sim.telemetry().metrics.snapshot();
    assert!(snapshot
        .gauges
        .iter()
        .any(|(n, v)| n == &format!("ops.up.{victim_name}") && *v == 0.0));
    assert!(snapshot
        .gauges
        .iter()
        .any(|(n, _)| n.starts_with("ops.scrape_age_ns.")));
    assert!(snapshot.counters.iter().any(|(n, _)| n == "ops.scrapes"));
}

/// Subscribes `district/#` at QoS 1 on one broker shard, so the other
/// shards' publishes reach it over the federation bridge.
struct Monitor {
    client: PubSubClient,
}

impl Node for Monitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            TopicFilter::new("district/#").expect("valid filter"),
            QoS::AtLeastOnce,
        );
        self.client.start_keepalive(ctx, SimDuration::from_secs(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port == PUBSUB_PORT {
            self.client.accept(ctx, &pkt);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden digests of everything telemetry exports, recorded on the
/// by-name `BTreeMap<String, _>` registry and the `String`-per-field
/// trace ring. The scenario crosses every instrumented layer (device →
/// proxy → labeled broker shards → bridge → aggregator → master),
/// crashes a broker and a proxy, partitions the network, and runs long
/// enough for the 4096-event ring to wrap. The master's fleet scrape
/// is off, as it was when the digests were recorded (it then probed in
/// `HashMap` order; `tests/parallel.rs` now pins its reproducibility).
#[test]
fn exported_telemetry_matches_golden_digests() {
    const METRICS_TEXT_FNV: u64 = 0xcdb5_55e0_78c5_c9de;
    const TRACE_JSON_LINES_FNV: u64 = 0x11ed_f45b_3d42_154c;
    const TRACE_DROPPED: u64 = 11_901;

    let mut sim = Simulator::new(SimConfig {
        seed: 0x601D,
        ..SimConfig::default()
    });
    let mut config = ScenarioConfig::small()
        .with_districts(3)
        .with_federation(FederationSpec::sharded(3))
        .with_aggregation(AggregationSpec::tumbling(10_000));
    config.sample_interval = SimDuration::from_secs(5);
    config.publish_qos = QoS::AtLeastOnce;
    let scenario = config.build();
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.telemetry().tracer.set_capacity(4096);
    let proxy = deployment.districts[1].device_proxies[0];
    sim.add_node(
        "scrape-proxy-metrics",
        Scraper::new(proxy, "/metrics", SCRAPE_EVERY),
    );
    sim.add_node(
        "scrape-rollups",
        Scraper::new(
            deployment.districts[0].aggregator.expect("aggregator"),
            "/rollups",
            SCRAPE_EVERY,
        ),
    );
    sim.add_node(
        "scrape-master-metrics",
        Scraper::new(deployment.master, "/metrics", SCRAPE_EVERY),
    );
    sim.add_node(
        "monitor",
        Monitor {
            client: PubSubClient::new(deployment.brokers[0], 100),
        },
    );

    let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
    let down = SimDuration::from_secs(10);
    let plan = FaultPlan::new()
        .at(
            at(40),
            Fault::CrashFor {
                node: deployment.brokers[1],
                down,
            },
        )
        .at(at(60), Fault::CrashFor { node: proxy, down })
        .at(
            at(80),
            Fault::Partition {
                groups: vec![vec![deployment.brokers[2]], vec![deployment.brokers[0]]],
            },
        )
        .at(at(90), Fault::Heal);
    ChaosRunner::new(plan).run_for(&mut sim, SimDuration::from_secs(120));

    let telemetry = sim.telemetry();
    let metrics_text = telemetry.exposition();
    let json_lines = telemetry.tracer.to_json_lines();
    assert_eq!(json_lines.lines().count(), 4096, "ring should be full");
    assert_eq!(
        (
            fnv1a(metrics_text.as_bytes()),
            fnv1a(json_lines.as_bytes()),
            telemetry.tracer.dropped(),
        ),
        (METRICS_TEXT_FNV, TRACE_JSON_LINES_FNV, TRACE_DROPPED),
        "telemetry output drifted from the golden run"
    );
}
