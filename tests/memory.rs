//! Memory pins: the bytes the write path's two append-only logs hold
//! per entry (a device proxy's store, head and WAL, and the flight
//! recorder's ring), the one allocation a head-only range read makes,
//! the aggregator's bytes under steady load (its open windows' samples,
//! not the district's history), and the reads and trims that copy
//! nothing (the flight digest, a head-only retention pass).
//!
//! This file is its own test binary, so it can install a counting
//! `#[global_allocator]` without touching any other suite.

use dimmer_core::codec::{self, DataFormat};
use dimmer_core::{DeviceId, DistrictId, Measurement, ProxyId, QuantityKind, Timestamp};
use pubsub::{BrokerNode, MeasurementTopic, PubSubClient, QoS, Topic};
use simnet::rng::DeterministicRng;
use simnet::telemetry::{Tracer, NO_SPAN, NO_TRACE};
use simnet::{Context, Node, Packet, SimConfig, SimDuration, Simulator, TimerTag};
use storage::tskv::{TimeSeriesStore, TskvConfig};
use streams::{AggregatorConfig, AggregatorNode, WindowSpec};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations_in, live_bytes_in};

/// A store that keeps every point of these tests in its head: no seal
/// below 1 024 points, and the default checkpoint threshold (8 192 WAL
/// records), which 1 000 inserts never reach.
fn head_only_store() -> TimeSeriesStore {
    TimeSeriesStore::with_config(TskvConfig {
        seal_threshold: 1_024,
        ..TskvConfig::default()
    })
}

#[test]
fn a_head_only_store_holds_at_most_forty_bytes_per_point() {
    const POINTS: i64 = 1_000;
    let (store, live) = live_bytes_in(|| {
        let mut store = head_only_store();
        for i in 0..POINTS {
            store.insert(
                "temperature",
                1_700_000_000_000 + i * 60_000,
                20.0 + i as f64,
            );
        }
        store
    });
    assert_eq!(store.stats().head_points, POINTS as usize);
    assert_eq!(store.stats().wal_records, POINTS as usize);
    // A head point is 16 bytes and a WAL record 20, each in a `Vec`
    // grown by doubling to 1 024 slots: 36.9 bytes per point, plus the
    // name table and the series slot.
    let per_point = live as f64 / POINTS as f64;
    assert!(per_point <= 40.0, "{per_point:.1} bytes per point");
}

#[test]
fn a_full_default_ring_of_49_byte_details_holds_at_most_8_mib() {
    let detail = "topic=district/d3/building/b12/device/dev4/energy";
    assert_eq!(detail.len(), 49);
    let (tracer, live) = live_bytes_in(|| {
        let tracer = Tracer::new();
        // Twice the default capacity (65 536 events): the ring is full
        // and has wrapped.
        for i in 0..2 * 65_536u64 {
            tracer.record(i, 1, "broker.deliver", 1 + i % 7, format_args!("{detail}"));
        }
        tracer
    });
    assert_eq!(tracer.len(), 65_536);
    assert_eq!(tracer.dropped(), 65_536);
    // 65 536 headers of 56 bytes and as many 49-byte details: 6.6 MiB.
    let mib = live as f64 / (1024.0 * 1024.0);
    assert!(mib <= 8.0, "{mib:.2} MiB");
}

#[test]
fn a_head_only_range_allocates_exactly_once() {
    let mut rng = DeterministicRng::seed_from(0x3E30_0054);
    let mut store = head_only_store();
    let mut t = 0;
    for _ in 0..1_000 {
        t += rng.next_range(1, 120) as i64 * 1_000;
        store.insert("power", t, rng.next_f64());
    }
    for _ in 0..200 {
        let from = rng.next_bounded(t as u64 + 2) as i64 - 1;
        let to = from + rng.next_bounded(t as u64 / 4) as i64;
        let (range, allocations) = allocations_in(|| store.range("power", from, to));
        let mut streamed = Vec::new();
        store.for_each_in("power", from, to, |t, v| streamed.push((t, v)));
        assert_eq!(range, streamed, "[{from}, {to})");
        // One exact-size vector, none for an empty answer.
        assert_eq!(allocations, u64::from(!range.is_empty()), "[{from}, {to})");
        assert_eq!(range.capacity(), range.len());
    }
}

#[test]
fn a_flight_digest_of_a_full_default_ring_allocates_nothing() {
    let sim = Simulator::new(SimConfig::default());
    let tracer = &sim.telemetry().tracer;
    tracer.register_node(1, "broker");
    for i in 0..2 * 65_536u64 {
        let detail = format_args!("topic=district/d0/entity/b{}/device/dev{i}/energy", i % 9);
        tracer.record_span(i, 1, "broker.deliver", 1 + i % 7, i, i / 2, detail);
    }
    assert_eq!(tracer.len(), 65_536);
    let (digest, allocations) = allocations_in(|| sim.flight_digest());
    assert_eq!(allocations, 0);
    // The same FNV-1a stream as hashing the exported copies.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in tracer.events() {
        eat(&e.time_ns.to_le_bytes());
        eat(&e.node.to_le_bytes());
        eat(e.kind.as_bytes());
        eat(&e.trace_id.to_le_bytes());
        eat(&e.span.to_le_bytes());
        eat(&e.parent_span.to_le_bytes());
        eat(e.detail.as_bytes());
        eat(&[0xFF]);
    }
    assert_eq!(digest, hash);
}

#[test]
fn a_retention_pass_over_head_only_series_allocates_nothing() {
    let mut store = head_only_store();
    let names = ["a", "b", "c", "d", "e"];
    // 1 500 WAL records: the log's `Vec` holds 2 048, so the retention
    // records below fit without growing it.
    for i in 0..300 {
        for name in names {
            store.insert(name, i * 1_000, i as f64);
        }
    }
    for horizon in [0, 10_000, 10_000, 150_500, 299_000, 400_000] {
        let before = store.len();
        let (removed, allocations) = allocations_in(|| store.apply_retention(horizon));
        assert_eq!(allocations, 0, "horizon {horizon}");
        assert_eq!(removed, before - store.len(), "horizon {horizon}");
        let kept = names.len() * (300 - ((horizon + 999) / 1_000).clamp(0, 300)) as usize;
        assert_eq!(store.len(), kept, "horizon {horizon}");
    }
}

/// Publishes one untraced QoS 0 temperature sample per device per
/// second, stamped with the simulated instant: steady load on an
/// aggregator, with nothing kept on this side. Values carry a full
/// mantissa, so a stored copy of them does not compress away.
struct SteadyPublisher {
    client: PubSubClient,
    /// `(topic, device)` per device, resolved at start.
    devices: Vec<(Topic, DeviceId)>,
    rng: DeterministicRng,
}

const EPOCH: i64 = 1_425_859_200_000;
const ENTITIES: usize = 4;
const DEVICES: usize = 200;

impl Node for SteadyPublisher {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.devices = (0..DEVICES)
            .map(|i| {
                let (entity, device) = (format!("b{}", i % ENTITIES), format!("dev{i}"));
                let quantity = QuantityKind::Temperature.as_str();
                let topic = MeasurementTopic::new("d1", entity, device.as_str(), quantity);
                (topic.topic().unwrap(), DeviceId::new(device).unwrap())
            })
            .collect();
        ctx.set_timer(SimDuration::from_secs(1), TimerTag(1));
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        let t = EPOCH + (ctx.now().as_nanos() / 1_000_000) as i64;
        let quantity = QuantityKind::Temperature;
        for (topic, device) in &self.devices {
            let value = 20.0 + 5.0 * self.rng.next_f64();
            let measurement = Measurement::new(
                device.clone(),
                quantity,
                value,
                quantity.canonical_unit(),
                Timestamp::from_unix_millis(t),
            );
            let payload = codec::encode_measurement(&measurement, DataFormat::Json);
            let (retain, qos) = (false, QoS::AtMostOnce);
            self.client.publish_ref(
                ctx,
                topic,
                payload.as_bytes(),
                retain,
                qos,
                NO_TRACE,
                NO_SPAN,
                (),
            );
        }
        ctx.set_timer(SimDuration::from_secs(1), tag);
    }
}

/// A master that never answers.
struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}

#[test]
fn an_aggregator_under_steady_load_keeps_its_open_windows_not_its_history() {
    // 200 devices in 4 buildings, a sample each per second, 10 s windows.
    let mut sim = Simulator::new(SimConfig::default());
    let master = sim.add_node("master", Sink);
    let broker = sim.add_node("broker", BrokerNode::new());
    let mut config = AggregatorConfig::new(
        ProxyId::new("agg").unwrap(),
        DistrictId::new("d1").unwrap(),
        master,
        broker,
        EPOCH,
    );
    config.window = WindowSpec::tumbling(10_000);
    config.lateness_millis = 2_000;
    let agg = sim.add_node("agg", AggregatorNode::new(config));
    sim.add_node(
        "publisher",
        SteadyPublisher {
            client: PubSubClient::new(broker, 100),
            devices: Vec::new(),
            rng: DeterministicRng::seed_from(0x5EED_0055),
        },
    );
    // Warm-up: routes resolve, the tail fills to its window and
    // checkpoints, every buffer reaches its size.
    sim.run_for(SimDuration::from_secs(600));
    let published = |sim: &Simulator| {
        let stats = sim.node_ref::<AggregatorNode>(agg).unwrap().stats();
        assert_eq!(stats.duplicates, 0);
        stats.rollups_published
    };
    // What the rollup history holds: four points per rollup, each a
    // 16-byte head point and a 20-byte WAL record, and a 20-byte
    // watermark record per 5 s flush. Its vectors hold at most twice
    // their length.
    let history = |rollups: u64, secs: u64| 4 * 36 * rollups + 20 * secs / 5;
    let stretch = SimDuration::from_secs(600);
    let (r0, samples0) = (
        published(&sim),
        sim.node_ref::<AggregatorNode>(agg)
            .unwrap()
            .stats()
            .samples_in,
    );
    let ((), first) = live_bytes_in(|| sim.run_for(stretch));
    let r1 = published(&sim);
    let ((), second) = live_bytes_in(|| sim.run_for(stretch));
    let r2 = published(&sim);
    let samples = sim
        .node_ref::<AggregatorNode>(agg)
        .unwrap()
        .stats()
        .samples_in
        - samples0;
    assert_eq!(samples, 2 * 600 * DEVICES as u64, "every sample taken in");
    assert!(r2 - r1 >= 60 * (ENTITIES as u64 + 1), "{r0} {r1} {r2}");
    let bound = 2 * history(r2, 1_800) as i64 - history(r1, 1_200) as i64;
    assert!(
        second <= bound,
        "second stretch retained {second} B (first {first} B); the rollup history allows {bound} B"
    );
}
