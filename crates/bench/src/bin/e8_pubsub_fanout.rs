//! E8 — publish/subscribe fan-out.
//!
//! Claim tested: the event-driven middleware delivers to many
//! subscribers without the publisher knowing them. Measures delivery
//! latency and broker load as the subscriber population grows, with
//! exact and wildcard filters.
//!
//! The binary also demonstrates the telemetry stack: each run ends with
//! a metrics snapshot (counters + bounded-histogram percentiles), and a
//! flight-recorder demo deploys a small district and reconstructs one
//! measurement's device → proxy → broker → subscriber journey from its
//! trace id. Set `DIMMER_TRACE=<file|->` to dump the raw trace as JSON
//! lines.
//!
//! It closes with the broker's design ablation (DESIGN §6): the
//! subscription trie against a linear scan of the same filters, in
//! wall-clock ns per match.

use bench_support::report::{dump_trace_if_requested, fmt_f64, metrics_report, Table};
use bench_support::stats::Summary;
use bench_support::{deploy, time_it, Subscriber};
use district::scenario::ScenarioConfig;
use pubsub::{BrokerNode, PubSubClient, QoS, SubscriptionTrie, Topic, TopicFilter};
use simnet::telemetry::flight::reconstruct;
use simnet::telemetry::{MetricsSnapshot, NO_SPAN};
use simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, SimTime, Simulator, TimerTag};
use std::hint::black_box;

struct Pub {
    client: PubSubClient,
    publish_at: SimTime,
    published_at: Option<SimTime>,
}

impl Node for Pub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer_at(self.publish_at, TimerTag(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TimerTag(1) {
            self.published_at = Some(ctx.now());
            let trace = ctx.telemetry().tracer.next_trace_id();
            self.client.publish_ref(
                ctx,
                &Topic::new("district/d0/entity/b0/device/dev0/temperature").expect("valid"),
                b"{\"value\":21.5}",
                false,
                QoS::AtMostOnce,
                trace,
                NO_SPAN,
                (),
            );
        } else {
            self.client.on_timer(ctx, tag);
        }
    }
}

fn run(subscribers: usize, wildcard_fraction: usize) -> (f64, f64, u64, MetricsSnapshot) {
    let mut sim = Simulator::new(SimConfig::default());
    let broker = sim.add_node("broker", BrokerNode::new());
    let subs: Vec<NodeId> = (0..subscribers)
        .map(|i| {
            let filter = if wildcard_fraction > 0 && i % wildcard_fraction == 0 {
                "district/+/entity/+/device/+/temperature"
            } else {
                "district/d0/entity/b0/device/dev0/temperature"
            };
            sim.add_node(
                format!("sub{i}"),
                Subscriber::new(broker, filter, QoS::AtMostOnce, None),
            )
        })
        .collect();
    let publisher = sim.add_node(
        "pub",
        Pub {
            client: PubSubClient::new(broker, 100),
            publish_at: SimTime::from_secs(1),
            published_at: None,
        },
    );
    sim.run_for(SimDuration::from_secs(10));
    let t0 = sim
        .node_ref::<Pub>(publisher)
        .expect("publisher")
        .published_at
        .expect("published");
    let mut latency = Summary::new("deliver");
    let mut delivered = 0usize;
    for &s in &subs {
        for &t in &sim.node_ref::<Subscriber>(s).expect("sub").received {
            latency.record_duration(t.saturating_since(t0));
            delivered += 1;
        }
    }
    let broker_stats = sim.node_ref::<BrokerNode>(broker).expect("broker").stats();
    (
        latency.mean(),
        delivered as f64 / subscribers as f64,
        broker_stats.delivered,
        sim.telemetry().metrics.snapshot(),
    )
}

/// Deploys a small district and follows one measurement end to end:
/// device → device-proxy → broker → subscriber, by trace id.
fn flight_recorder_demo() {
    let (mut sim, deployment, _) = deploy(ScenarioConfig::small());
    let sub = sim.add_node(
        "monitor",
        Subscriber::new(deployment.broker, "district/#", QoS::AtMostOnce, None),
    );
    sim.run_for(SimDuration::from_secs(180));

    let received = sim
        .node_ref::<Subscriber>(sub)
        .expect("monitor")
        .received
        .len();
    println!("## E8 flight recorder: small district, 180 s, monitor received {received} messages");
    let telemetry = sim.telemetry();
    print!(
        "{}",
        metrics_report("E8 flight recorder", &telemetry.metrics.snapshot())
    );

    let events = telemetry.tracer.events();
    let full_path = [
        "device.sample",
        "proxy.ingest",
        "broker.publish",
        "broker.deliver",
        "sub.receive",
    ];
    match reconstruct(&events)
        .into_iter()
        .find(|p| p.visits(&full_path))
    {
        Some(path) => {
            println!(
                "one measurement end to end (trace {} of {} recorded, {} dropped):",
                path.trace_id,
                events.len(),
                telemetry.tracer.dropped()
            );
            println!("{path}");
        }
        None => println!("no complete device→proxy→broker→subscriber path recorded"),
    }
    if let Some(dest) = dump_trace_if_requested(telemetry) {
        println!("trace dumped to {dest}");
    }
}

/// Trie vs linear scan over `n` subscriptions (exact, district-wide,
/// per-building and per-quantity filters mixed), one topic.
fn matcher_table() -> Table {
    let topic = Topic::new("district/d1/entity/b17/device/dev17/temperature").expect("valid");
    let mut table = Table::new(
        "E8: topic matching, subscription trie vs linear scan (wall clock)",
        ["subscriptions", "trie_ns", "linear_ns", "linear_x"],
    );
    for n in [10usize, 100, 1000] {
        let filter = |i: usize| match i % 4 {
            0 => format!(
                "district/d{}/entity/b{}/device/dev{i}/temperature",
                i % 3,
                i % 50
            ),
            1 => format!("district/d{}/#", i % 3),
            2 => format!("district/+/entity/b{}/#", i % 50),
            _ => "district/+/entity/+/device/+/active_power".to_owned(),
        };
        let filters: Vec<TopicFilter> = (0..n)
            .map(|i| TopicFilter::new(filter(i)).expect("valid filter"))
            .collect();
        let mut trie = SubscriptionTrie::new();
        for (i, f) in filters.iter().enumerate() {
            trie.insert(f, i);
        }
        // Iteration counts keep every timed loop above ~0.1 s.
        let (_, trie_ns) = time_it(200_000, || trie.matches(black_box(&topic)).len());
        let linear = || {
            filters
                .iter()
                .filter(|f| f.matches(black_box(&topic)))
                .count()
        };
        let (_, linear_ns) = time_it(2_000_000 / n as u32, linear);
        table.row([
            n.to_string(),
            fmt_f64(trie_ns, 0),
            fmt_f64(linear_ns, 0),
            fmt_f64(linear_ns / trie_ns, 1),
        ]);
    }
    table
}

fn main() {
    let mut table = Table::new(
        "E8: pub/sub fan-out (single publication)",
        [
            "subscribers",
            "wildcards",
            "deliveries",
            "coverage",
            "mean_latency_ms",
        ],
    );
    let mut last_snapshot = None;
    for &subscribers in &[1usize, 10, 100, 500, 1000] {
        for &(label, wf) in &[("none", 0usize), ("1_in_4", 4)] {
            let (mean_ms, coverage, deliveries, snapshot) = run(subscribers, wf);
            table.row([
                subscribers.to_string(),
                label.to_owned(),
                deliveries.to_string(),
                fmt_f64(coverage, 2),
                fmt_f64(mean_ms, 3),
            ]);
            last_snapshot = Some(snapshot);
        }
    }
    table.print_with_series();
    if let Some(snapshot) = last_snapshot {
        print!(
            "{}",
            metrics_report("E8 largest run (1000 subs)", &snapshot)
        );
    }
    flight_recorder_demo();
    println!("{}", matcher_table());
}
