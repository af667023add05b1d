//! End-to-end telemetry: flight-recorder traces across the full stack,
//! bounded-histogram accuracy against exact sorted quantiles, the trace
//! ring's exports against a model of the events it holds, and the
//! cost contract of the write path — metric writes, trace records,
//! untraced hops and an SLO refresh over a full ring allocate nothing.
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
use simnet::telemetry::trace::TraceEvent;
use simnet::telemetry::{exposition, Registry, Telemetry, Tracer, NO_SPAN, NO_TRACE};
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
fn by_handle_metric_writes_allocate_nothing() {
    let registry = Registry::new();
    let counter = registry.counter_handle("t.counter");
    let gauge = registry.gauge_handle("t.gauge");
    let histogram = registry.histogram_handle("t.histogram");
    // Warm-up: the first write of each kind.
    counter.incr();
    gauge.set(1.0);
    histogram.observe(1.0);

    let ((), by_handle) = allocations_in(|| {
        for i in 0..WRITES {
            counter.add(i);
            gauge.set(i as f64);
            histogram.observe_ns(i * 997);
        }
    });
    assert_eq!(by_handle, 0, "by-handle writes allocated");

    let sum: u64 = (0..WRITES).sum();
    assert_eq!(registry.counter("t.counter"), 1 + sum);
    assert_eq!(registry.gauge("t.gauge"), (WRITES - 1) as f64);
    let h = registry.histogram("t.histogram").expect("written");
    assert_eq!(h.count, 1 + WRITES);
}

#[test]
fn slo_refresh_never_reads_the_trace_ring() {
    let telemetry = Telemetry::new();
    let trace = telemetry.tracer.next_trace_id();
    for i in 0..2 * 65_536 {
        telemetry
            .tracer
            .record(i, 1, "broker.publish", trace, format_args!("n{i}"));
    }
    assert!(telemetry.tracer.dropped() > 0, "ring has not wrapped");
    let (reports, allocations) = allocations_in(|| telemetry.slo_refresh());
    assert!(reports.is_empty());
    assert_eq!(allocations, 0, "slo_refresh exported the ring");
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
fn resolved_but_unwritten_series_stay_out_of_snapshots() {
    for seed in 0..8u64 {
        let mut rng = DeterministicRng::seed_from(0x5A3E_0000 + seed);
        let registry = Registry::new();
        let counters = NAMES.map(|n| registry.counter_handle(n));
        let gauges = NAMES.map(|n| registry.gauge_handle(n));
        let histograms = NAMES.map(|n| registry.histogram_handle(n));
        // Every name is resolved; the last is never written.
        for _ in 0..2_000 {
            let n = rng.next_bounded(NAMES.len() as u64 - 1) as usize;
            match rng.next_bounded(3) {
                0 => counters[n].add(rng.next_bounded(4)), // add(0) included
                1 => gauges[n].set(rng.next_f64_range(-10.0, 1e6)),
                _ => histograms[n].observe(rng.next_f64() * 1e9),
            }
        }
        let snapshot = registry.snapshot();
        let names = snapshot
            .counters
            .iter()
            .map(|(n, _)| n)
            .chain(snapshot.gauges.iter().map(|(n, _)| n))
            .chain(snapshot.histograms.iter().map(|(n, _)| n));
        for name in names {
            assert_ne!(name, "net.wire_bytes", "seed {seed}");
        }
        let text = exposition(&snapshot);
        assert!(text.contains("pubsub_publish"), "seed {seed}");
        assert!(
            !text.contains("net_wire_bytes"),
            "a resolved but unwritten series was exposed, seed {seed}"
        );
        assert_eq!(registry.histogram("net.wire_bytes"), None);
        assert_eq!(registry.counter("net.wire_bytes"), 0);
    }
}

/// Writes its text, then fails: a detail holding it is cut short
/// right after it.
struct FailsAfter<'a>(&'a str);

impl fmt::Display for FailsAfter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)?;
        Err(fmt::Error)
    }
}

/// A detail of about `len` bytes drawn from one- to four-byte
/// characters, quotes and control characters, so JSON escaping and
/// character boundaries both show.
fn random_detail(rng: &mut DeterministicRng, len: usize) -> String {
    const CHARS: [char; 9] = ['x', '7', 'é', '€', '𝄞', '"', '\\', '\n', '\u{1}'];
    let mut s = String::new();
    while s.len() < len {
        s.push(CHARS[rng.next_bounded(CHARS.len() as u64) as usize]);
    }
    s
}

/// The JSON line `Tracer::to_json_lines` writes for `e`, escaped here
/// independently of the tracer.
fn json_line(e: &TraceEvent) -> String {
    let escape = |s: &str| {
        s.chars()
            .map(|c| match c {
                '"' => "\\\"".to_string(),
                '\\' => "\\\\".to_string(),
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
                c => c.to_string(),
            })
            .collect::<String>()
    };
    format!(
        "{{\"t_ns\":{},\"node\":{},\"name\":\"{}\",\"kind\":\"{}\",\"trace\":{},\"span\":{},\"parent\":{},\"detail\":\"{}\"}}\n",
        e.time_ns,
        e.node,
        escape(&e.node_name),
        escape(&e.kind),
        e.trace_id,
        e.span,
        e.parent_span,
        escape(&e.detail)
    )
}

#[test]
fn ring_exports_match_a_model_of_the_events_held() {
    const KINDS: [&str; 3] = ["broker.deliver", "proxy.ingest", "k\"ind"];
    // Lengths around 102 and 255, past them, and empty.
    const LENGTHS: [usize; 9] = [0, 1, 101, 102, 103, 255, 256, 257, 1_000];
    for seed in 0..4u64 {
        let mut rng = DeterministicRng::seed_from(0x7E1E_0054 + seed);
        let tracer = Tracer::new();
        tracer.register_node(1, "broker-0");
        tracer.register_node(2, "proxy \"b1\"");
        let mut capacity = 16;
        tracer.set_capacity(capacity);
        let mut model: std::collections::VecDeque<TraceEvent> = Default::default();
        let mut dropped = 0u64;
        for step in 0..600u64 {
            if rng.next_bounded(40) == 0 {
                // Shrink (dropping the oldest) or grow the ring.
                capacity = rng.next_range(1, 33) as usize;
                tracer.set_capacity(capacity);
                while model.len() > capacity {
                    model.pop_front();
                    dropped += 1;
                }
            }
            let len = LENGTHS[rng.next_bounded(LENGTHS.len() as u64) as usize];
            let whole = random_detail(&mut rng, len);
            let cut = whole
                .char_indices()
                .map(|(i, _)| i)
                .nth(rng.next_bounded(whole.chars().count() as u64 + 1) as usize)
                .unwrap_or(whole.len());
            let (head, tail) = whole.split_at(cut);
            let node = rng.next_bounded(4) as u32;
            let kind = KINDS[rng.next_bounded(KINDS.len() as u64) as usize];
            let trace = rng.next_bounded(3);
            let parent = rng.next_bounded(5);
            // One piece, two pieces, or two pieces and a `Display` that
            // fails after writing part of the text.
            let (span, detail) = match rng.next_bounded(3) {
                0 => {
                    let span =
                        tracer.record_hop(step, node, kind, trace, parent, format_args!("{whole}"));
                    (span, whole.clone())
                }
                1 => {
                    tracer.record_span(
                        step,
                        node,
                        kind,
                        trace,
                        step + 100,
                        parent,
                        format_args!("{head}{tail}"),
                    );
                    (step + 100, whole.clone())
                }
                _ => {
                    tracer.record_span(
                        step,
                        node,
                        kind,
                        trace,
                        step + 100,
                        parent,
                        format_args!("{head}{}{tail}", FailsAfter("!")),
                    );
                    (step + 100, format!("{head}!"))
                }
            };
            if model.len() == capacity {
                model.pop_front();
                dropped += 1;
            }
            let node_name = ["", "broker-0", "proxy \"b1\"", ""][node as usize];
            model.push_back(TraceEvent {
                time_ns: step,
                node,
                node_name: node_name.to_string(),
                kind: kind.to_string(),
                trace_id: trace,
                span,
                parent_span: parent,
                detail,
            });
            if step % 7 == 0 {
                let expected: Vec<TraceEvent> = model.iter().cloned().collect();
                assert_eq!(tracer.events(), expected, "seed {seed} step {step}");
                for trace in 0..3 {
                    let of_trace: Vec<TraceEvent> = expected
                        .iter()
                        .filter(|e| e.trace_id == trace)
                        .cloned()
                        .collect();
                    assert_eq!(tracer.events_for(trace), of_trace);
                }
                let json: String = expected.iter().map(json_line).collect();
                assert_eq!(tracer.to_json_lines(), json, "seed {seed} step {step}");
                assert_eq!(tracer.len(), model.len());
                assert_eq!(tracer.dropped(), dropped);
            }
        }
        assert!(dropped > 0, "the ring never wrapped");
    }
}
