//! The cost contract of the common-format read path, counted in
//! allocations: a Device-proxy's `/data` response is written into one
//! growing buffer, a client decodes a batch with one allocation per
//! measurement, a Database-proxy answers `/model` from memoised bytes,
//! and a client decodes that model with one allocation per container,
//! string and long key.
//!
//! This file is its own test binary, so it can install the counting
//! `#[global_allocator]` of `tests/support` without touching any other
//! suite.

use std::collections::BTreeMap;

use dimmer_core::codec::{self, DataFormat};
use dimmer_core::{
    BuildingId, DeviceId, DistrictId, MeasurementBatch, ProxyId, QuantityKind, Unit, Value,
};
use models::bim::BuildingModel;
use proxy::database_proxy::{BimSource, DatabaseProxyNode, SourceTranslator};
use proxy::webservice::{
    decode_response, encode_response, status, WsClient, WsRequest, WsResponse,
};
use simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, Simulator, TimerTag};

#[path = "support/counted.rs"]
mod counted;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counted::Counted;
use counting_alloc::allocations_in;

fn points(n: usize) -> Vec<(i64, f64)> {
    (0..n)
        .map(|i| (1_425_859_200_000 + i as i64 * 60_000, 412.5 + i as f64))
        .collect()
}

/// What a Device-proxy does for an admitted `GET /data`.
fn data_response(device: &DeviceId, points: &[(i64, f64)], format: DataFormat) -> Vec<u8> {
    encode_response(status::OK, format, |w| {
        MeasurementBatch::write_series(w, device, QuantityKind::ActivePower, Unit::Watt, points);
    })
}

#[test]
fn data_response_encode_allocates_only_its_growing_buffer() {
    let device = DeviceId::new("d0-b0-dev0").unwrap();
    for format in DataFormat::all() {
        for n in [10, 100] {
            let points = points(n);
            let (bytes, allocations) = allocations_in(|| data_response(&device, &points, format));
            // One buffer, doubling from its initial capacity until the
            // response fits: no allocation per point, none per number or
            // timestamp.
            let initial = data_response(&device, &[], format).capacity();
            let doublings = (bytes.len() as f64 / initial as f64).log2().ceil().max(0.0) as u64;
            assert!(
                allocations <= 1 + doublings,
                "{format} n={n}: {allocations} allocations for {} bytes (initial buffer {initial})",
                bytes.len()
            );
        }
    }
}

#[test]
fn batch_response_decode_allocates_once_per_measurement() {
    let device = DeviceId::new("d0-b0-dev0").unwrap();
    for format in DataFormat::all() {
        for n in [10usize, 100] {
            let bytes = data_response(&device, &points(n), format);
            let (decoded, allocations) =
                allocations_in(|| decode_response(&bytes, MeasurementBatch::read));
            let (status, batch) = decoded.unwrap();
            assert_eq!(status, status::OK);
            assert_eq!(batch.unwrap().len(), n);
            // The device id of each measurement, plus the growth of the
            // vector that holds them; names, numbers, units and
            // timestamps are read in place.
            assert!(
                allocations <= n as u64 + 8,
                "{format} n={n}: {allocations} allocations"
            );
        }
    }
}

/// Asks `server` for `/model` once a second, alternating formats, and
/// keeps the responses as they came off the wire.
struct ModelClient {
    client: WsClient,
    server: NodeId,
    asked: usize,
    responses: Vec<Vec<u8>>,
}

const TAG_ASK: TimerTag = TimerTag(1);
const ASKS: usize = 12;

fn format_of_ask(ask: usize) -> DataFormat {
    DataFormat::all()[ask % 2]
}

impl Node for ModelClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TAG_ASK);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        if let Some((_, bytes)) = self.client.accept_encoded(&pkt) {
            self.responses.push(bytes.to_vec());
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_ASK && self.asked < ASKS {
            let request = WsRequest::get("/model").with_format(format_of_ask(self.asked));
            self.client.request(ctx, self.server, &request);
            self.asked += 1;
            ctx.set_timer(SimDuration::from_secs(1), TAG_ASK);
        } else {
            self.client.on_timer(ctx, tag);
        }
    }
}

/// Swallows the proxy's registration attempts.
struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
}

fn bim_source() -> BimSource {
    let model = BuildingModel::sample(&BuildingId::new("b1").unwrap(), 3, 4);
    BimSource::new(model.to_tables()).unwrap()
}

#[test]
fn model_responses_after_the_first_are_served_from_memoised_bytes() {
    let mut sim = Simulator::new(SimConfig::default());
    let master = sim.add_node("sink", Sink);
    let proxy = sim.add_node(
        "db-proxy",
        Counted::new(DatabaseProxyNode::new(
            ProxyId::new("p1").unwrap(),
            DistrictId::new("d1").unwrap(),
            master,
            Box::new(bim_source()),
        )),
    );
    let client = sim.add_node(
        "client",
        ModelClient {
            client: WsClient::new(1000),
            server: proxy,
            asked: 0,
            responses: Vec::new(),
        },
    );
    sim.run_for(SimDuration::from_secs(20));

    // Every response, first or memoised, is the encoding of a freshly
    // translated model.
    let responses = &sim.node_ref::<ModelClient>(client).unwrap().responses;
    assert_eq!(responses.len(), ASKS);
    for (ask, bytes) in responses.iter().enumerate() {
        let fresh = WsResponse::ok(bim_source().model()).to_bytes(format_of_ask(ask));
        assert_eq!(*bytes, fresh, "response {ask}");
    }

    // The proxy received nothing but the model requests (its master
    // never answers). The first request in each format translates and
    // encodes the source; from then on a request costs three
    // allocations whatever the size of the model: the path string of the
    // decoded request, the outgoing packet buffer, and the list the
    // simulator collects the callback's one send in.
    let costs = &sim
        .node_ref::<Counted<DatabaseProxyNode>>(proxy)
        .unwrap()
        .per_packet;
    assert_eq!(costs.len(), ASKS);
    let (first, later) = costs.split_at(2);
    assert!(
        first.iter().all(|&c| c > 50),
        "the first request per format builds the model: {first:?}"
    );
    assert!(
        later.iter().all(|&c| c <= 3),
        "memoised responses must not rebuild or re-encode: {later:?}"
    );
}

/// Keys up to this many bytes are stored inside the object (see
/// `dimmer_core::value::Key`).
const INLINE_KEY: usize = 22;

/// What building `v` may allocate: one block per object, array and
/// string, and one per key too long to be stored inline.
fn tree_budget(v: &Value) -> u64 {
    match v {
        Value::Str(_) => 1,
        Value::Array(items) => 1 + items.iter().map(tree_budget).sum::<u64>(),
        Value::Object(map) => {
            1 + map
                .iter()
                .map(|(k, v)| u64::from(k.len() > INLINE_KEY) + tree_budget(v))
                .sum::<u64>()
        }
        _ => 0,
    }
}

#[test]
fn model_decode_allocates_once_per_container_string_and_long_key() {
    let model = bim_source().model();
    for format in DataFormat::all() {
        let bytes = WsResponse::ok(model.clone()).to_bytes(format);
        // The first decode on a thread grows its scratch stacks to the
        // width of the document; later ones reuse them.
        WsResponse::from_bytes(&bytes).unwrap();
        let (decoded, allocations) = allocations_in(|| WsResponse::from_bytes(&bytes));
        let body = decoded.unwrap().body;
        assert_eq!(body, model, "{format}");
        let budget = tree_budget(&body);
        assert!(
            allocations <= budget,
            "{format}: {allocations} allocations for a tree that may make {budget}"
        );
    }
}

#[test]
fn a_wide_object_with_descending_keys_decodes_in_n_log_n() {
    const N: i64 = 100_000;
    let key = |i: i64| format!("member-{i:06}");
    let oracle: BTreeMap<String, Value> = (0..N).map(|i| (key(i), Value::from(i))).collect();
    let members: Vec<String> = (0..N)
        .rev()
        .map(|i| format!("\"{}\":{i}", key(i)))
        .collect();
    let text = format!("{{{}}}", members.join(","));
    let decoded = codec::decode_value(&text, DataFormat::Json).unwrap();
    let map = decoded.as_object().unwrap();
    assert_eq!(map.len(), oracle.len());
    assert!(map
        .iter()
        .zip(&oracle)
        .all(|((k, v), (ok, ov))| k.as_str() == ok && v == ov));
}
