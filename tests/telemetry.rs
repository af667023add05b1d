//! End-to-end telemetry: flight-recorder traces across the full stack,
//! bounded-histogram accuracy against exact sorted quantiles, and the
//! cost contract of the write path — by-handle metric writes, trace
//! records and untraced hops allocate nothing.
//!
//! This file is its own test binary, so it can install a counting
//! `#[global_allocator]` without touching any other suite.

use std::fmt;

use district::deploy::Deployment;
use district::scenario::ScenarioConfig;
use pubsub::{PubSubClient, PubSubEvent, QoS, TopicFilter, PUBSUB_PORT};
use simnet::rng::DeterministicRng;
use simnet::telemetry::flight::reconstruct;
use simnet::telemetry::metrics::Histogram;
use simnet::telemetry::trace::INLINE_DETAIL_BYTES;
use simnet::telemetry::{
    exposition, CounterHandle, GaugeHandle, HistogramHandle, Registry, Tracer, NO_SPAN, NO_TRACE,
};
use simnet::{Context, Node, Packet, SimConfig, SimDuration, Simulator, TimerTag};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations_in;

/// A monitor node that subscribes to everything and keeps the trace ids
/// of messages it receives.
struct Monitor {
    client: PubSubClient,
    traces: Vec<u64>,
}

impl Node for Monitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            TopicFilter::new("district/#").expect("valid filter"),
            QoS::AtMostOnce,
        );
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port == PUBSUB_PORT {
            if let Some(PubSubEvent::Message { trace, .. }) = self.client.accept(ctx, &pkt) {
                self.traces.push(trace);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

#[test]
fn trace_follows_measurement_device_to_subscriber() {
    let mut sim = Simulator::new(SimConfig::default());
    let scenario = ScenarioConfig::small().build();
    let deployment = Deployment::build(&mut sim, &scenario);
    let monitor = sim.add_node(
        "monitor",
        Monitor {
            client: PubSubClient::new(deployment.broker, 100),
            traces: vec![],
        },
    );
    sim.run_for(SimDuration::from_secs(180));

    // The monitor saw traced messages, stamped at the device.
    let traces = &sim.node_ref::<Monitor>(monitor).expect("monitor").traces;
    assert!(!traces.is_empty(), "monitor received no messages");
    assert!(
        traces.iter().any(|&t| t != 0),
        "deliveries lost their trace ids"
    );

    // At least one measurement's full journey is reconstructable.
    let telemetry = sim.telemetry();
    let events = telemetry.tracer.events();
    let full_path = [
        "device.sample",
        "proxy.ingest",
        "broker.publish",
        "broker.deliver",
        "sub.receive",
    ];
    let paths = reconstruct(&events);
    let path = paths
        .iter()
        .find(|p| p.visits(&full_path))
        .expect("no complete device→proxy→broker→subscriber path");

    // Hops are stamped with node identity and non-negative per-hop
    // latency, in chronological order.
    assert!(path.hops.len() >= full_path.len());
    assert!(path.total_ns > 0, "a network journey takes sim time");
    assert_eq!(path.hops[0].latency_ns, 0, "first hop has no predecessor");
    for pair in path.hops.windows(2) {
        assert!(pair[1].time_ns >= pair[0].time_ns);
        assert_eq!(pair[1].latency_ns, pair[1].time_ns - pair[0].time_ns);
    }
    for hop in &path.hops {
        assert!(!hop.node_name.is_empty(), "hops carry node names");
    }

    // The layers all reported into the metrics registry.
    let metrics = &telemetry.metrics;
    assert!(metrics.counter("device.samples") > 0);
    assert!(metrics.counter("proxy.samples_ingested") > 0);
    assert!(metrics.counter("tskv.append") > 0);
    assert!(metrics.counter("pubsub.publish") > 0);
    assert!(metrics.counter("pubsub.deliver") > 0);
    assert!(metrics.counter("master.registrations") > 0);
    assert!(metrics.counter("net.packets_sent") > 0);
    let delay = metrics.histogram("net.link_delay_ns").expect("recorded");
    assert!(delay.count > 0 && delay.p50 > 0.0);
}

#[test]
fn histogram_quantiles_track_exact_summary() {
    let mut rng = DeterministicRng::seed_from(0x7E1E_0001);
    let hist = Histogram::new();
    let mut sorted = Vec::new();
    for _ in 0..20_000 {
        // Log-uniform over ~5 decades: stresses every octave.
        let v = 10f64.powf(rng.next_f64() * 5.0);
        hist.record(v);
        sorted.push(v);
    }
    sorted.sort_by(f64::total_cmp);
    // The exact oracle: nearest rank over every observation.
    let exact = |q: f64| sorted[(q * (sorted.len() as f64 - 1.0)).round() as usize];
    for q in [0.5, 0.9, 0.99] {
        let approx = hist.quantile(q);
        let truth = exact(q);
        let rel = (approx - truth).abs() / truth;
        assert!(
            rel <= 0.07,
            "q{q}: histogram {approx} vs exact {truth} (rel err {rel:.4})"
        );
    }
    // Endpoints are exact, not bucket representatives.
    assert_eq!(hist.quantile(0.0), exact(0.0));
    assert_eq!(hist.quantile(1.0), exact(1.0));
    assert_eq!(hist.count(), sorted.len() as u64);
}

const WRITES: u64 = 10_000;

#[test]
fn by_handle_and_existing_by_name_metric_writes_allocate_nothing() {
    let registry = Registry::new();
    let counter = registry.counter_handle("t.counter");
    let gauge = registry.gauge_handle("t.gauge");
    let histogram = registry.histogram_handle("t.histogram");
    // Warm-up: the first write of each kind, and the by-name series.
    counter.incr();
    gauge.set(1.0);
    histogram.observe(1.0);
    registry.incr("t.by_name");
    registry.set_gauge("t.by_name", 1.0);
    registry.observe("t.by_name", 1.0);

    let ((), by_handle) = allocations_in(|| {
        for i in 0..WRITES {
            counter.add(i);
            gauge.set(i as f64);
            histogram.observe_ns(i * 997);
        }
    });
    assert_eq!(by_handle, 0, "by-handle writes allocated");

    let ((), by_name) = allocations_in(|| {
        for i in 0..WRITES {
            registry.add("t.by_name", i);
            registry.set_gauge("t.by_name", i as f64);
            registry.observe_ns("t.by_name", i * 997);
        }
    });
    assert_eq!(by_name, 0, "by-name writes to existing series allocated");

    let sum: u64 = (0..WRITES).sum();
    assert_eq!(registry.counter("t.counter"), 1 + sum);
    assert_eq!(registry.counter("t.by_name"), 1 + sum);
    assert_eq!(registry.gauge("t.gauge"), (WRITES - 1) as f64);
    let h = registry.histogram("t.histogram").expect("written");
    assert_eq!(h.count, 1 + WRITES);
    assert_eq!(registry.histogram("t.by_name"), Some(h));
}

#[test]
fn trace_records_on_a_wrapped_ring_allocate_nothing() {
    let tracer = Tracer::new();
    tracer.set_capacity(256);
    tracer.register_node(7, "broker-0");
    let topic = "district/d12/building/b40/device/dev2/temperature";
    let record = |i: u64| {
        tracer.record_span(
            i,
            7,
            "broker.deliver",
            1 + i % 5,
            i + 1,
            i,
            format_args!("to=n{i} topic={topic}"),
        );
    };
    (0..1_000).for_each(record); // warm-up: fill the ring and wrap it
    assert_eq!(tracer.len(), 256);
    assert!(tracer.dropped() > 0, "ring has not wrapped");

    assert_eq!(
        allocations_in(|| (1_000..1_000 + WRITES).for_each(record)).1,
        0
    );
    assert_eq!(tracer.len(), 256);
    let last = tracer.events().pop().expect("ring is full");
    assert_eq!(last.detail, format!("to=n{} topic={topic}", 999 + WRITES));
    assert_eq!(last.node_name, "broker-0");
}

/// Panics when formatted: proves an untraced hop never runs the
/// caller's formatter.
struct MustNotFormat;

impl fmt::Display for MustNotFormat {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        panic!("an untraced hop formatted its detail");
    }
}

/// Measures hops from inside a callback, the only place a [`Context`]
/// exists.
#[derive(Default)]
struct HopProbe {
    untraced_allocations: Option<u64>,
    traced_allocations: Option<u64>,
}

impl Node for HopProbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let trace = ctx.telemetry().tracer.next_trace_id();
        for _ in 0..100 {
            ctx.trace_hop("probe.warmup", trace, format_args!("fill the ring"));
        }
        let ((), untraced) = allocations_in(|| {
            for _ in 0..WRITES {
                let span = ctx.span_hop(
                    "probe.untraced",
                    NO_TRACE,
                    NO_SPAN,
                    format_args!("topic={MustNotFormat}"),
                );
                assert_eq!(span, NO_SPAN);
            }
        });
        self.untraced_allocations = Some(untraced);
        let ((), traced) = allocations_in(|| {
            for i in 0..WRITES {
                ctx.span_hop("probe.traced", trace, i, format_args!("seq={i}"));
            }
        });
        self.traced_allocations = Some(traced);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}

#[test]
fn hops_allocate_nothing_and_untraced_hops_format_nothing() {
    let mut sim = Simulator::new(SimConfig::default());
    sim.telemetry().tracer.set_capacity(64);
    let probe = sim.add_node("probe", HopProbe::default());
    sim.run_for(SimDuration::from_secs(1));
    let probe = sim.node_ref::<HopProbe>(probe).expect("probe");
    assert_eq!(probe.untraced_allocations, Some(0));
    assert_eq!(probe.traced_allocations, Some(0));
    // The untraced hops left no record behind either.
    let events = sim.telemetry().tracer.events();
    assert_eq!(events.len(), 64);
    assert!(events.iter().all(|e| e.kind == "probe.traced"));
}

/// One registry write; `name` indexes [`NAMES`].
#[derive(Clone, Copy)]
enum Write {
    Add(usize, u64),
    Set(usize, f64),
    Observe(usize, f64),
}

type Handles = (
    [CounterHandle; NAMES.len()],
    [GaugeHandle; NAMES.len()],
    [HistogramHandle; NAMES.len()],
);

/// Global names next to their broker-label twins, plus one that sorts
/// between them, so the name-ordered output interleaves the families.
const NAMES: [&str; 6] = [
    "pubsub.publish",
    "pubsub.publish.b0",
    "pubsub.publish.b1",
    "pubsub.fanout",
    "pubsub.fanout.b0",
    "net.wire_bytes",
];

#[test]
fn by_name_and_by_handle_writes_are_indistinguishable() {
    for seed in 0..8u64 {
        let mut rng = DeterministicRng::seed_from(0x5A3E_0000 + seed);
        let writes: Vec<Write> = (0..2_000)
            .map(|_| {
                // The last name is left out on odd seeds: resolved (on
                // the handle side) but never written.
                let name = rng.next_bounded(NAMES.len() as u64 - seed % 2) as usize;
                match rng.next_bounded(3) {
                    0 => Write::Add(name, rng.next_bounded(4)), // add(0) included
                    1 => Write::Set(name, rng.next_f64_range(-10.0, 1e6)),
                    _ => Write::Observe(name, rng.next_f64() * 1e9),
                }
            })
            .collect();

        let by_name = Registry::new();
        let by_handle = Registry::new();
        let mixed = Registry::new();
        let resolve = |r: &Registry| -> Handles {
            (
                NAMES.map(|n| r.counter_handle(n)),
                NAMES.map(|n| r.gauge_handle(n)),
                NAMES.map(|n| r.histogram_handle(n)),
            )
        };
        let handles = resolve(&by_handle);
        let mixed_handles = resolve(&mixed);
        for &w in &writes {
            let write_by_name = |r: &Registry| match w {
                Write::Add(n, v) => r.add(NAMES[n], v),
                Write::Set(n, v) => r.set_gauge(NAMES[n], v),
                Write::Observe(n, v) => r.observe(NAMES[n], v),
            };
            let write_by_handle = |(c, g, h): &Handles| match w {
                Write::Add(n, v) => c[n].add(v),
                Write::Set(n, v) => g[n].set(v),
                Write::Observe(n, v) => h[n].observe(v),
            };
            write_by_name(&by_name);
            write_by_handle(&handles);
            if rng.chance(0.5) {
                write_by_name(&mixed);
            } else {
                write_by_handle(&mixed_handles);
            }
        }

        let expected = by_name.snapshot();
        for (label, other) in [("by-handle", &by_handle), ("mixed", &mixed)] {
            let got = other.snapshot();
            assert_eq!(got.counters, expected.counters, "{label}, seed {seed}");
            assert_eq!(got.gauges, expected.gauges, "{label}, seed {seed}");
            assert_eq!(got.histograms, expected.histograms, "{label}, seed {seed}");
            assert_eq!(
                exposition(&got),
                exposition(&expected),
                "{label}, seed {seed}"
            );
        }
        if seed % 2 == 1 {
            let text = exposition(&by_handle.snapshot());
            assert!(
                !text.contains("net_wire_bytes"),
                "a resolved but unwritten series was exposed"
            );
            assert_eq!(by_handle.histogram("net.wire_bytes"), None);
            assert_eq!(by_handle.counter("net.wire_bytes"), 0);
        }
    }
}

#[test]
fn details_past_the_inline_capacity_round_trip() {
    let tracer = Tracer::new();
    let n = INLINE_DETAIL_BYTES;
    // Lengths straddling the capacity; 'é' is two bytes, so some
    // pieces cannot be split at the boundary.
    let details: Vec<String> = [0, 1, n - 1, n, n + 1, 2 * n, 1_000]
        .into_iter()
        .flat_map(|len| ["x".repeat(len), "é".repeat(len / 2)])
        .collect();
    for (i, d) in details.iter().enumerate() {
        // One piece, and three pieces so the spill happens mid-format.
        tracer.record(i as u64, 0, "whole", 1, format_args!("{d}"));
        let (head, tail) = d.split_at(d.len() / 2 - (d.len() / 2) % 2);
        tracer.record(i as u64, 0, "pieces", 1, format_args!("{head}|{tail}"));
    }
    let events = tracer.events();
    let json = tracer.to_json_lines();
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(events.len(), 2 * details.len());
    assert_eq!(lines.len(), events.len());
    for (i, d) in details.iter().enumerate() {
        let (head, tail) = d.split_at(d.len() / 2 - (d.len() / 2) % 2);
        assert_eq!(events[2 * i].detail, *d);
        assert_eq!(events[2 * i + 1].detail, format!("{head}|{tail}"));
        assert!(lines[2 * i].ends_with(&format!("\"detail\":\"{d}\"}}")));
        assert!(lines[2 * i + 1].ends_with(&format!("\"detail\":\"{head}|{tail}\"}}")));
    }
    assert_eq!(tracer.events_for(1), events);
}
