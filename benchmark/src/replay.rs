//! Replays (source **R**): a workload's own generated inputs pushed
//! through one layer's public function alone, clocked in batches.
//!
//! A replay gives the unit cost of a layer crossing; the ledger
//! multiplies it by crossings per op. Inputs are built outside the
//! clock and every result passes through `black_box`.

use std::hint::black_box;

use dimmer::core::codec::{self, DataFormat};
use dimmer::core::{Measurement, MeasurementBatch, Timestamp, Value};
use dimmer::district::scenario::{DeviceSpec, Scenario};
use dimmer::models::profiles::EnergyProfile;
use dimmer::protocols::device::{
    CoapFieldServer, EnoceanSensor, Ieee802154Sensor, OpcUaFieldServer, UplinkDevice, ZigbeeSensor,
};
use dimmer::protocols::enocean::Eep;
use dimmer::protocols::ieee802154::PanId;
use dimmer::protocols::ProtocolKind;
use dimmer::proxy::adapters::{
    CoapAdapter, DeviceAdapter, EnoceanAdapter, Ieee802154Adapter, OpcUaAdapter, ZigbeeAdapter,
};
use dimmer::pubsub::{
    BridgeFrame, QoS, SubscriptionTrie, Topic, TopicFilter, WirePacket, WirePacketRef,
};
use dimmer::streams::{WindowSpec, WindowedAggregator};

use crate::loadgen::{LeanPub, LeanSub, Window};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::ns_per_call;

const PASSES: usize = 9;
/// Devices per protocol family whose frames are replayed.
const DEVICES_PER_FAMILY: usize = 32;
const FRAMES_PER_DEVICE: usize = 32;

/// `pubsub.wire_*`, `pubsub.bridge_batch64_decode_ns`, `pubsub.match_ns`
/// over the workload's topic and filter population and payload size.
pub fn pubsub_wire(
    out: &mut Outcome,
    spans: &mut Spans,
    topics: &[String],
    filters: &[String],
    payload_len: usize,
) {
    let open = spans.begin("replay.pubsub");
    let packets: Vec<WirePacket> = topics
        .iter()
        .enumerate()
        .map(|(i, t)| WirePacket::Publish {
            id: i as u64 + 1,
            topic: Topic::new(t.as_str()).expect("workload topics are grammatical"),
            payload: vec![0x5A; payload_len],
            retain: false,
            qos: QoS::AtMostOnce,
            trace: 0,
            span: 0,
        })
        .collect();
    let n = packets.len();
    let encode = ns_per_call(PASSES, n, |i| drop(black_box(packets[i].encode())));
    let frames: Vec<Vec<u8>> = packets.iter().map(WirePacket::encode).collect();
    let decode = ns_per_call(PASSES, n, |i| {
        black_box(WirePacketRef::decode(&frames[i]).expect("own encoding decodes"));
    });
    out.push("pubsub.wire_encode_ns", encode, (PASSES * n) as u64);
    out.push("pubsub.wire_decode_ns", decode, (PASSES * n) as u64);

    let batch = WirePacket::BridgeBatch {
        incarnation: 1,
        batch_id: 1,
        frames: packets
            .iter()
            .cycle()
            .take(64)
            .map(|p| match p {
                WirePacket::Publish { topic, payload, .. } => BridgeFrame {
                    topic: topic.clone(),
                    payload: payload.clone(),
                    retain: false,
                    qos: QoS::AtMostOnce,
                    trace: 0,
                    span: 0,
                },
                _ => unreachable!("built as publishes above"),
            })
            .collect(),
    }
    .encode();
    let batch_decode = ns_per_call(PASSES, 256, |_| {
        black_box(WirePacketRef::decode(&batch).expect("own encoding decodes"));
    });
    out.push(
        "pubsub.bridge_batch64_decode_ns",
        batch_decode,
        (PASSES * 256) as u64,
    );

    let mut trie = SubscriptionTrie::new();
    for (i, f) in filters.iter().enumerate() {
        let filter = TopicFilter::new(f.as_str()).expect("workload filters are grammatical");
        trie.insert(&filter, i);
    }
    let matching = ns_per_call(PASSES, n, |i| {
        black_box(trie.matches_str(&topics[i]));
    });
    out.push("pubsub.match_ns", matching, (PASSES * n) as u64);
    spans.end(open);
}

/// Host nanoseconds of the lean generator's own work per publish
/// (copy + stamp) and per delivery (read stamp, checksum, keep latency).
pub fn loadgen_units(spans: &mut Spans, window: Window) -> (f64, f64) {
    const BATCH: usize = 100_000;
    let open = spans.begin("replay.loadgen");
    let broker = dimmer::simnet::NodeId::from_index(0);
    let topic = Topic::new("district/d0/building/b0/active_power").expect("grammatical");
    let period = dimmer::simnet::SimDuration::from_secs(2);
    let mut publisher = LeanPub::new(broker, topic, period, period, window);
    let stamp_ns = ns_per_call(PASSES, BATCH, |_| {
        drop(black_box(publisher.stamped(window.start)));
    });
    let payload = publisher.stamped(window.start);
    let mut subscriber = LeanSub::new(broker, String::new(), window);
    let record_ns = ns_per_call(PASSES, BATCH, |_| {
        subscriber.record(black_box(&payload), window.end);
    });
    spans.end(open);
    (stamp_ns, record_ns)
}

/// The five protocol families and the metric each one's decode cost
/// is reported under.
pub const FAMILIES: [(ProtocolKind, &str); 5] = [
    (ProtocolKind::Ieee802154, "protocols.decode_ns.ieee802154"),
    (ProtocolKind::Zigbee, "protocols.decode_ns.zigbee"),
    (ProtocolKind::EnOcean, "protocols.decode_ns.enocean"),
    (ProtocolKind::OpcUa, "protocols.decode_ns.opcua"),
    (ProtocolKind::Coap, "protocols.decode_ns.coap"),
];

/// Produces the frame a device puts on the wire for a value at a time:
/// a push device's uplink, or a field server's answer to its adapter's
/// poll.
type FrameSource = Box<dyn FnMut(f64, i64) -> Vec<u8>>;

/// An adapter and the frames replayed through it.
struct Decoder {
    adapter: Box<dyn DeviceAdapter>,
    polled: bool,
    frames: Vec<Vec<u8>>,
}

/// A device's frame source and the adapter that decodes it, paired the
/// way the deployment pairs them.
fn pair_for(dev: &DeviceSpec) -> (FrameSource, Box<dyn DeviceAdapter>, bool) {
    fn push(mut device: impl UplinkDevice + 'static) -> FrameSource {
        Box::new(move |value, _| device.emit(value))
    }
    let short = dev.address as u16;
    let pan = PanId(0x2300);
    match dev.protocol {
        ProtocolKind::Ieee802154 => (
            push(Ieee802154Sensor::new(pan, short, dev.quantity)),
            Box::new(Ieee802154Adapter::new(pan, short)),
            false,
        ),
        ProtocolKind::Zigbee => (
            push(ZigbeeSensor::new(short, dev.quantity)),
            Box::new(ZigbeeAdapter::new(short)),
            false,
        ),
        ProtocolKind::EnOcean => {
            let eep = dev.eep.unwrap_or(Eep::A50205);
            (
                push(EnoceanSensor::new(dev.address, eep)),
                Box::new(EnoceanAdapter::new(dev.address, eep)),
                false,
            )
        }
        ProtocolKind::OpcUa => {
            let mut server = OpcUaFieldServer::new(dev.quantity);
            let mut poller = OpcUaAdapter::new(server.value_node().clone(), dev.quantity);
            let adapter = OpcUaAdapter::new(server.value_node().clone(), dev.quantity);
            let source: FrameSource = Box::new(move |value, t| {
                server.update(value, t);
                let request = poller.poll_request().expect("polled family");
                server.handle_bytes(&request).expect("own request")
            });
            (source, Box::new(adapter), true)
        }
        ProtocolKind::Coap => {
            let mut server = CoapFieldServer::new(dev.quantity);
            let mut poller = CoapAdapter::new(dev.quantity);
            let source: FrameSource = Box::new(move |value, t| {
                server.update(value, t);
                let request = poller.poll_request().expect("polled family");
                server.handle_bytes(&request).expect("own request")
            });
            (source, Box::new(CoapAdapter::new(dev.quantity)), true)
        }
    }
}

/// `protocols.decode_ns.<family>`: frames the scenario's own devices
/// emit (or their field servers answer polls with), through the
/// family's adapter.
pub fn protocol_decode(out: &mut Outcome, spans: &mut Spans, scenario: &Scenario) {
    let open = spans.begin("replay.protocols");
    let epoch = scenario.config.epoch_offset_millis;
    let step = scenario.config.sample_interval.as_nanos() as i64 / 1_000_000;
    for (family, metric) in FAMILIES {
        let devices = scenario
            .districts
            .iter()
            .flat_map(|d| d.buildings.iter().flat_map(|b| b.devices.iter()))
            .filter(|dev| dev.protocol == family)
            .take(DEVICES_PER_FAMILY);
        let mut decoders: Vec<Decoder> = Vec::new();
        for dev in devices {
            let mut profile = EnergyProfile::for_quantity(
                dev.quantity,
                scenario.config.seed ^ u64::from(dev.address),
            );
            let (mut source, adapter, polled) = pair_for(dev);
            let frames = (0..FRAMES_PER_DEVICE as i64)
                .map(|k| {
                    let t = epoch + k * step;
                    source(profile.sample(t), t)
                })
                .collect();
            decoders.push(Decoder {
                adapter,
                polled,
                frames,
            });
        }
        let total = decoders.len() * FRAMES_PER_DEVICE;
        if total == 0 {
            out.push(metric, 0.0, 0);
            continue;
        }
        let ns = ns_per_call(PASSES, total, |i| {
            let Decoder {
                adapter,
                polled,
                frames,
            } = &mut decoders[i / FRAMES_PER_DEVICE];
            let frame = &frames[i % FRAMES_PER_DEVICE];
            let samples = if *polled {
                adapter.decode_poll(frame)
            } else {
                adapter.decode_uplink(frame)
            };
            black_box(samples.expect("own frame decodes"));
        });
        out.push(metric, ns, (PASSES * total) as u64);
    }
    spans.end(open);
}

/// Measurements shaped like the ingest path's, for the two replays
/// below: the scenario's devices, their profile values, run timestamps.
fn ingest_measurements(scenario: &Scenario, per_device: usize) -> Vec<Measurement> {
    let epoch = scenario.config.epoch_offset_millis;
    let step = scenario.config.sample_interval.as_nanos() as i64 / 1_000_000;
    let mut out = Vec::new();
    for dev in scenario
        .districts
        .iter()
        .flat_map(|d| d.buildings.iter().flat_map(|b| b.devices.iter()))
        .take(256)
    {
        let mut profile = EnergyProfile::for_quantity(
            dev.quantity,
            scenario.config.seed ^ u64::from(dev.address),
        );
        for k in 0..per_device as i64 {
            let t = epoch + k * step;
            out.push(Measurement::new(
                dev.device.clone(),
                dev.quantity,
                profile.sample(t),
                dev.quantity.canonical_unit(),
                Timestamp::from_unix_millis(t),
            ));
        }
    }
    out
}

/// `core.measurement_json_encode_ns` (the Device-proxy's publish
/// payload) and `streams.observe_ns_per_sample` (the window operator
/// alone, keyed like the aggregator keys it).
pub fn ingest_units(out: &mut Outcome, spans: &mut Spans, scenario: &Scenario, window_millis: i64) {
    let open = spans.begin("replay.ingest_units");
    let measurements = ingest_measurements(scenario, 8);
    let n = measurements.len();
    let encode = ns_per_call(PASSES, n, |i| {
        black_box(codec::encode_measurement(
            &measurements[i],
            DataFormat::Json,
        ));
    });
    out.push(
        "core.measurement_json_encode_ns",
        encode,
        (PASSES * n) as u64,
    );

    // Time-major, as samples reach an aggregator; a fresh operator per
    // pass so every pass opens and closes the same windows.
    let mut ordered: Vec<&Measurement> = measurements.iter().collect();
    ordered.sort_by_key(|m| m.timestamp().as_unix_millis());
    let keys: Vec<(String, String)> = ordered
        .iter()
        .map(|m| {
            (
                m.device().as_str().to_owned(),
                m.quantity().as_str().to_owned(),
            )
        })
        .collect();
    let times = crate::stats::time_batched(
        PASSES,
        || WindowedAggregator::new(WindowSpec::tumbling(window_millis), 30_000),
        |mut op| {
            for (m, key) in ordered.iter().zip(&keys) {
                let t = m.timestamp().as_unix_millis();
                black_box(op.observe(key.clone(), t, m.value(), 0));
                black_box(op.close_ready());
            }
            op
        },
    );
    let observe = crate::stats::quartiles(&times)[0] * 1e9 / n as f64;
    out.push(
        "streams.observe_ns_per_sample",
        observe,
        (PASSES * n) as u64,
    );
    spans.end(open);
}

/// `core.{json,xml}_{encode,decode}_ns`: entity models and measurement
/// batches captured from `area_query` snapshots, per value.
pub fn core_codecs(
    out: &mut Outcome,
    spans: &mut Spans,
    models: &[Value],
    batches: &[MeasurementBatch],
) {
    let open = spans.begin("replay.core");
    let values: Vec<Value> = models
        .iter()
        .cloned()
        .chain(batches.iter().map(MeasurementBatch::to_value))
        .collect();
    let n = values.len().max(1);
    for (format, enc_name, dec_name) in [
        (
            DataFormat::Json,
            "core.json_encode_ns",
            "core.json_decode_ns",
        ),
        (DataFormat::Xml, "core.xml_encode_ns", "core.xml_decode_ns"),
    ] {
        if values.is_empty() {
            out.push(enc_name, 0.0, 0);
            out.push(dec_name, 0.0, 0);
            continue;
        }
        let encode = ns_per_call(PASSES, n, |i| {
            black_box(codec::encode_value(&values[i], format));
        });
        let texts: Vec<String> = values
            .iter()
            .map(|v| codec::encode_value(v, format))
            .collect();
        let decode = ns_per_call(PASSES, n, |i| {
            black_box(codec::decode_value(&texts[i], format).expect("own encoding decodes"));
        });
        out.push(enc_name, encode, (PASSES * n) as u64);
        out.push(dec_name, decode, (PASSES * n) as u64);
    }
    spans.end(open);
}

/// A node whose callbacks do nothing but keep the kernel busy: a timer
/// re-armed each period and one small packet to its neighbour.
struct Idle {
    peer: dimmer::simnet::NodeId,
}

impl dimmer::simnet::Node for Idle {
    fn on_start(&mut self, ctx: &mut dimmer::simnet::Context<'_>) {
        ctx.set_timer(IDLE_PERIOD, dimmer::simnet::TimerTag(1));
    }
    fn on_packet(&mut self, _ctx: &mut dimmer::simnet::Context<'_>, pkt: dimmer::simnet::Packet) {
        black_box(pkt);
    }
    fn on_timer(&mut self, ctx: &mut dimmer::simnet::Context<'_>, tag: dimmer::simnet::TimerTag) {
        ctx.send(self.peer, dimmer::simnet::Port::new(9), vec![0; 64]);
        ctx.set_timer(IDLE_PERIOD, tag);
    }
}

const IDLE_PERIOD: dimmer::simnet::SimDuration = dimmer::simnet::SimDuration::from_millis(2);

/// The simulation kernel's cost per event with node work near zero:
/// 1 000 [`Idle`] nodes on one shard, half timers and half packets.
pub fn kernel_ns_per_event(spans: &mut Spans) -> f64 {
    use dimmer::simnet::{NodeId, ParallelConfig, ParallelSimulator, SimDuration};
    const NODES: usize = 1_000;
    let open = spans.begin("replay.kernel");
    let mut sim = ParallelSimulator::new(ParallelConfig::default());
    for i in 0..NODES {
        // Ids are dense in placement order, so the neighbour's is known.
        let peer = NodeId::from_index((i + 1) % NODES);
        sim.add_node_on(0, format!("idle-{i}"), Idle { peer });
    }
    sim.run_for(SimDuration::from_millis(200));
    let mut per_event = Vec::new();
    for _ in 0..5 {
        let before = sim.metrics().events_processed;
        let start = std::time::Instant::now();
        sim.run_for(SimDuration::from_millis(400));
        let ns = start.elapsed().as_nanos() as f64;
        per_event.push(ns / (sim.metrics().events_processed - before) as f64);
    }
    spans.end(open);
    crate::stats::quartiles(&per_event)[0]
}

/// One insert into a store's mutable head (the only part of tskv the
/// ingest path reaches within a run): series named and spaced like a
/// Device-proxy's.
pub fn tskv_head_append_ns(spans: &mut Spans) -> f64 {
    use dimmer::storage::tskv::TimeSeriesStore;
    const POINTS: usize = 50_000;
    let open = spans.begin("replay.tskv_append");
    let times = crate::stats::time_batched(PASSES, TimeSeriesStore::new, |mut store| {
        for i in 0..POINTS {
            store.insert("temperature", 1_425_859_200_000 + i as i64 * 2_000, 20.5);
        }
        store
    });
    spans.end(open);
    crate::stats::quartiles(&times)[0] * 1e9 / POINTS as f64
}
