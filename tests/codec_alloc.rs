//! The cost contract of the common-format read path, counted in
//! allocations: the master writes an `/area` resolution into one growing
//! buffer and a client decodes it with one allocation per owned field; a
//! client sends a request as one frame and resends it for nothing; a
//! server decodes a `/data` request with one allocation for its path and
//! one for its parameters; a Device-proxy's `/data` response is written
//! into one growing buffer, a client decodes a batch with one allocation
//! per measurement, a Database-proxy answers `/model` from memoised
//! bytes, and a client decodes that model with one allocation per
//! container, string and long key. A malformed document fails without
//! allocating.
//!
//! This file is its own test binary, so it can install the counting
//! `#[global_allocator]` of `tests/support` without touching any other
//! suite.

use std::collections::BTreeMap;

use dimmer_core::codec::{self, DataFormat};
use dimmer_core::{
    BuildingId, CoreError, DeviceId, DistrictId, MeasurementBatch, ProxyId, QuantityKind, Unit,
    Uri, Value,
};
use gis::geo::{BoundingBox, GeoPoint};
use models::bim::BuildingModel;
use ontology::{AreaResolution, DeviceLeaf, EntityNode, Ontology};
use proxy::database_proxy::{BimSource, DatabaseProxyNode, SourceTranslator};
use proxy::webservice::{
    decode_response, encode_response, status, WsClient, WsClientEvent, WsRequest, WsResponse,
    WsServer,
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
            self.client.request(ctx, self.server, &request, ());
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

/// A district of `buildings` buildings inside the query box, two devices
/// each, the odd ones with a GIS feature and properties.
fn district(buildings: usize) -> (Ontology, DistrictId, BoundingBox) {
    let d = DistrictId::new("d1").unwrap();
    let mut onto = Ontology::new();
    onto.add_district(d.clone(), "District").unwrap();
    let tree = onto.district_mut(&d).unwrap();
    tree.add_gis_proxy(Uri::parse("sim://n2/gis").unwrap());
    tree.add_measurement_proxy(Uri::parse("sim://n3/measurements").unwrap());
    for b in 0..buildings {
        let id = format!("d1-b{b}");
        let mut entity = EntityNode::building(
            BuildingId::new(id.as_str()).unwrap(),
            Uri::parse(&format!("sim://n{}/model", 10 + b)).unwrap(),
        )
        .with_location(GeoPoint::new(45.0 + 0.001 * b as f64, 7.6));
        if b % 2 == 1 {
            entity = entity
                .with_gis_feature(format!("feature-{b}"))
                .with_properties(Value::object([
                    ("floors", Value::from(4)),
                    ("use", Value::from("residential")),
                ]));
        }
        onto.add_entity(&d, entity).unwrap();
        for (k, quantity) in [QuantityKind::Temperature, QuantityKind::ActivePower]
            .into_iter()
            .enumerate()
        {
            let leaf = DeviceLeaf::new(
                DeviceId::new(format!("{id}-dev{k}")).unwrap(),
                "zigbee",
                quantity,
                Uri::parse(&format!("sim://n{}/data", 1000 + 2 * b + k)).unwrap(),
            );
            onto.add_device(&d, &id, leaf).unwrap();
        }
    }
    let bbox = BoundingBox::new(GeoPoint::new(44.9, 7.5), GeoPoint::new(45.5, 7.7));
    (onto, d, bbox)
}

/// What the master does for an admitted `GET /district/{id}/area`.
fn area_response(
    onto: &Ontology,
    d: &DistrictId,
    bbox: &BoundingBox,
    format: DataFormat,
) -> Vec<u8> {
    let hit = onto.match_area(d, bbox).unwrap();
    encode_response(status::OK, format, |w| hit.write(w))
}

#[test]
fn area_response_encode_allocates_only_its_growing_buffer() {
    for format in DataFormat::all() {
        for buildings in [1, 10, 50] {
            let (onto, d, bbox) = district(buildings);
            let (bytes, allocations) = allocations_in(|| area_response(&onto, &d, &bbox, format));
            // One buffer, doubling from its initial capacity until the
            // response fits: no clone of a node, no tree, nothing per URI,
            // number or name.
            let initial = encode_response(status::OK, format, |_| {}).capacity();
            let doublings = (bytes.len() as f64 / initial as f64).log2().ceil().max(0.0) as u64;
            assert_eq!(
                allocations,
                1 + doublings,
                "{format} {buildings} buildings: {} bytes",
                bytes.len()
            );
        }
    }
}

/// Allocations a vector of `n` items makes as it grows item by item.
fn growth(n: usize) -> u64 {
    match n {
        0 => 0,
        // The first allocation holds four items, each later one twice as
        // many.
        _ => 1 + u64::from(n.div_ceil(4).next_power_of_two().ilog2()),
    }
}

/// What decoding `uri` may allocate: its scheme, host and path.
fn uri_budget(uri: &Uri) -> u64 {
    assert!(!uri.to_string().contains('?'), "a query would cost more");
    3
}

#[test]
fn area_resolution_decode_allocates_once_per_owned_field() {
    for format in DataFormat::all() {
        for buildings in [1, 10, 50] {
            let (onto, d, bbox) = district(buildings);
            let bytes = area_response(&onto, &d, &bbox, format);
            // The first decode on a thread grows the tree reader's scratch
            // stacks (used for `properties`); later ones reuse them.
            decode_response(&bytes, AreaResolution::read).unwrap();
            let (decoded, allocations) =
                allocations_in(|| decode_response(&bytes, AreaResolution::read));
            let resolution = decoded.unwrap().1.unwrap();
            assert_eq!(resolution, onto.resolve_area(&d, &bbox).unwrap());
            // Each id, protocol and GIS feature is one string, each URI
            // three, properties a tree; each list allocates as it grows.
            // Nothing else: no envelope tree, no error built and dropped.
            let leaf = |l: &DeviceLeaf| 2 + uri_budget(l.proxy());
            let entity = |e: &EntityNode| {
                1 + uri_budget(e.db_proxy())
                    + u64::from(e.gis_feature().is_some())
                    + tree_budget(e.properties())
                    + growth(e.devices().len())
                    + e.devices().iter().map(leaf).sum::<u64>()
            };
            // The district's one GIS and one measurement proxy.
            let proxy_lists = 2 * (growth(1) + 3);
            let budget = growth(resolution.entities.len())
                + resolution.entities.iter().map(entity).sum::<u64>()
                + growth(resolution.devices.len())
                + resolution.devices.iter().map(leaf).sum::<u64>()
                + proxy_lists;
            assert_eq!(allocations, budget, "{format} {buildings} buildings");
        }
    }
}

/// Sends one request every ten seconds to a server that never answers,
/// so each is resent twice and then times out, and records what each
/// request and each resend costs.
struct Asker {
    client: WsClient,
    server: NodeId,
    request: WsRequest,
    asked: usize,
    request_costs: Vec<u64>,
    resend_costs: Vec<u64>,
}

impl Node for Asker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TAG_ASK);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_ASK {
            if self.asked < ASKS {
                let request = self.request.clone().with_format(format_of_ask(self.asked));
                let (_, cost) =
                    allocations_in(|| self.client.request(ctx, self.server, &request, ()));
                self.request_costs.push(cost);
                self.asked += 1;
                ctx.set_timer(SimDuration::from_secs(10), TAG_ASK);
            }
            return;
        }
        let (event, cost) = allocations_in(|| self.client.on_timer(ctx, tag));
        match event {
            None => self.resend_costs.push(cost),
            Some(event) => assert!(matches!(event, WsClientEvent::TimedOut { .. })),
        }
    }
}

#[test]
fn a_request_costs_one_frame_and_its_resends_cost_nothing() {
    let mut sim = Simulator::new(SimConfig::default());
    let server = sim.add_node("sink", Sink);
    let client = sim.add_node(
        "client",
        Asker {
            client: WsClient::new(1000),
            server,
            request: WsRequest::get("/data")
                .with_query("quantity", "temperature")
                .with_query("from", "1425859200000")
                .with_query("to", "1425859800000"),
            asked: 0,
            request_costs: Vec::new(),
            resend_costs: Vec::new(),
        },
    );
    sim.run_for(SimDuration::from_secs(10 * ASKS as u64 + 20));
    let asker = sim.node_ref::<Asker>(client).unwrap();
    assert_eq!(asker.request_costs.len(), ASKS);
    assert_eq!(
        asker.resend_costs.len(),
        2 * ASKS,
        "two resends per request"
    );
    // The first requests size the client's books and the thread's
    // envelope buffer; from then on a request is its frame.
    let (first, later) = asker.request_costs.split_at(2);
    assert!(first.iter().all(|&c| c >= 1), "{first:?}");
    assert!(later.iter().all(|&c| c == 1), "{later:?}");
    assert!(
        asker.resend_costs.iter().all(|&c| c == 0),
        "a resend shares the frame: {:?}",
        asker.resend_costs
    );
}

/// Accepts requests and answers none.
struct Quiet {
    server: WsServer,
}

impl Node for Quiet {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        assert!(self.server.accept(ctx, &pkt).is_some(), "a valid request");
    }
}

/// Fires its requests at the server a second apart.
struct Fire {
    client: WsClient,
    server: NodeId,
    requests: Vec<WsRequest>,
}

impl Node for Fire {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TAG_ASK);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_ASK && !self.requests.is_empty() {
            let request = self.requests.remove(0);
            self.client.request(ctx, self.server, &request, ());
            ctx.set_timer(SimDuration::from_secs(1), TAG_ASK);
        }
    }
}

#[test]
fn a_data_request_decodes_with_one_allocation_for_its_parameters() {
    let data = WsRequest::get("/data")
        .with_query("quantity", "active_power")
        .with_query("from", "1425859200000")
        .with_query("to", "1425859800000");
    let requests = vec![
        data.clone(),
        data.with_format(DataFormat::Xml),
        WsRequest::get("/model"),
    ];
    let mut sim = Simulator::new(SimConfig::default());
    let server = sim.add_node(
        "server",
        Counted::new(Quiet {
            server: WsServer::new(),
        }),
    );
    sim.add_node(
        "client",
        Fire {
            client: WsClient::new(1000),
            server,
            requests,
        },
    );
    // Requests leave at 1, 2 and 3 s; the first resend, 3 s after the
    // first request, falls after the run.
    sim.run_for(SimDuration::from_millis(3_500));
    // The path, then the parameters in one list of inline names and
    // values; a request without parameters allocates only its path.
    let costs = &sim.node_ref::<Counted<Quiet>>(server).unwrap().per_packet;
    assert_eq!(costs, &[2, 2, 1]);
}

/// One malformed document per place a reader can fail before it
/// meets a JSON escape or an XML entity (whose decoded text it owns) or
/// nests 64 containers deep (where its kind stack spills to the heap).
const MALFORMED: [(DataFormat, &str, &str); 37] = [
    (DataFormat::Json, r#"{"a":1 "b":2}"#, "expected ',' or '}'"),
    (DataFormat::Json, "[1 2]", "expected ',' or ']'"),
    (DataFormat::Json, "1 2", "trailing characters after value"),
    (DataFormat::Json, r#"{"a" 1}"#, "unexpected character"),
    (DataFormat::Json, "[x]", "unexpected character"),
    (DataFormat::Json, "[", "unexpected end of input"),
    (DataFormat::Json, "tru", "invalid keyword"),
    (
        DataFormat::Json,
        "\"a\u{1}b\"",
        "raw control character in string",
    ),
    (DataFormat::Json, r#""abc"#, "unterminated string"),
    (DataFormat::Json, "-", "invalid number"),
    (DataFormat::Json, "1.", "digit required after decimal point"),
    (DataFormat::Json, "1e+", "digit required in exponent"),
    (DataFormat::Json, "1e999", "number out of range"),
    (
        DataFormat::Xml,
        r#"<value type="int">1</value><x/>"#,
        "trailing characters after document",
    ),
    (
        DataFormat::Xml,
        r#"<value type="array">x</value>"#,
        "unexpected text inside container",
    ),
    (
        DataFormat::Xml,
        r#"<value type="object"><member type="int">1</member></value>"#,
        "member missing name attribute",
    ),
    (DataFormat::Xml, "<>", "expected a name"),
    (DataFormat::Xml, "value", "expected '<'"),
    (
        DataFormat::Xml,
        r#"<root type="int">1</root>"#,
        "root element must be <value>",
    ),
    (
        DataFormat::Xml,
        r#"<value type="array"><member type="int">1</member></value>"#,
        "array children must be <item>",
    ),
    (
        DataFormat::Xml,
        r#"<value type="object"><item type="int">1</item></value>"#,
        "object children must be <member>",
    ),
    (DataFormat::Xml, "<value/x", "expected '>' after '/'"),
    (DataFormat::Xml, "<value type>", "expected '=' in attribute"),
    (
        DataFormat::Xml,
        "<value type=int>",
        "attribute value must be quoted",
    ),
    (
        DataFormat::Xml,
        r#"<value type="int"#,
        "unterminated attribute value",
    ),
    (
        DataFormat::Xml,
        r#"<value type="int""#,
        "unexpected end inside tag",
    ),
    (
        DataFormat::Xml,
        "<value>1</value>",
        "missing type attribute",
    ),
    (
        DataFormat::Xml,
        r#"<value type="date">1</value>"#,
        "unknown type",
    ),
    (
        DataFormat::Xml,
        r#"<value type="int"/>"#,
        r#"self-closing element must be type="null""#,
    ),
    (
        DataFormat::Xml,
        r#"<value type="int">1<value>"#,
        "expected closing tag",
    ),
    (
        DataFormat::Xml,
        r#"<value type="int">1</item>"#,
        "mismatched closing tag",
    ),
    (
        DataFormat::Xml,
        r#"<value type="int">1</value"#,
        "expected '>' to end closing tag",
    ),
    (
        DataFormat::Xml,
        r#"<value type="null">x</value>"#,
        "null element must be empty",
    ),
    (
        DataFormat::Xml,
        r#"<value type="bool">yes</value>"#,
        "bool must be 'true' or 'false'",
    ),
    (
        DataFormat::Xml,
        r#"<value type="int">x</value>"#,
        "invalid int",
    ),
    (
        DataFormat::Xml,
        r#"<value type="float">x</value>"#,
        "invalid float",
    ),
    (
        DataFormat::Xml,
        r#"<value type="float">NaN</value>"#,
        "invalid float",
    ),
];

#[test]
fn malformed_documents_fail_without_allocating() {
    for (format, text, want) in MALFORMED {
        let (verdict, allocations) = allocations_in(|| {
            let mut r = codec::Reader::new(format, text);
            r.skip_value().and_then(|()| r.finish())
        });
        let reason = match verdict {
            Err(CoreError::ParseJson { reason, .. } | CoreError::ParseXml { reason, .. }) => reason,
            other => panic!("{format} {text:?}: {other:?}"),
        };
        assert_eq!(reason, want, "{format} {text:?}");
        assert_eq!(allocations, 0, "{format} {text:?}: {reason}");
    }
}
