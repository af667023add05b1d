//! Answer-level oracles: the paper's alternative paths to one area's
//! data must agree on the answer.
//!
//! * redirect JSON == relay, and redirect JSON == redirect XML: entity
//!   maps, and measurements as multisets sorted by (device, quantity,
//!   timestamp), since answers arrive in different orders from different
//!   network positions or body sizes;
//! * redirect == centralized: entity ids, and models byte for byte.
//!
//! Every scenario is queried at one instant after the same warm-up. The
//! simulations seed from `DIMMER_SEED` (default 0), so `scripts/ci.sh`
//! can sweep the oracles across seeds.

use std::collections::BTreeMap;

use dimmer::core::codec::DataFormat;
use dimmer::core::{json, Measurement, MeasurementBatch, Value};
use dimmer::district::baseline::CentralDeployment;
use dimmer::district::client::{AreaSnapshot, ClientConfig, ClientNode};
use dimmer::district::deploy::Deployment;
use dimmer::district::relay::RelayNode;
use dimmer::district::scenario::ScenarioConfig;
use dimmer::proxy::webservice::{WsClient, WsClientEvent, WsRequest};
use dimmer::simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, Simulator, TimerTag};

const WARM_UP: SimDuration = SimDuration::from_secs(600);
const ANSWER_WITHIN: SimDuration = SimDuration::from_secs(60);

/// A simulator seeded from `DIMMER_SEED` (default 0).
fn seeded_sim() -> Simulator {
    let seed = std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Simulator::new(SimConfig { seed })
}

/// Sends one request to a server at start and keeps the body of its
/// successful response.
struct OneShot(WsClient, NodeId, WsRequest, Option<Value>);

impl Node for OneShot {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.0.request(ctx, self.1, &self.2);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(WsClientEvent::Response { response, .. }) = self.0.accept(&pkt) {
            assert!(response.is_ok(), "{response:?}");
            self.3 = Some(response.body);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.0.on_timer(ctx, tag);
    }
}

/// District 0's whole area, answered four ways.
struct Answers {
    json: AreaSnapshot,
    xml: AreaSnapshot,
    relay: Value,
    central: Value,
}

/// The answers on `small()` and on 10 buildings × 2 devices.
fn answers() -> [Answers; 2] {
    let ten_by_two = ScenarioConfig::small().with_buildings(10);
    [
        ScenarioConfig::small(),
        ten_by_two.with_devices_per_building(2),
    ]
    .map(answer)
}

/// Deploys `config` twice, distributed and centralized, and after the
/// same warm-up queries both at one instant: a JSON client, an XML
/// client and a relay probe, and a probe of the central server.
fn answer(config: ScenarioConfig) -> Answers {
    let scenario = config.build();
    let district = &scenario.districts[0];
    let area = WsRequest::get("/area").with_query("bbox", district.bbox().to_query());

    let mut sim = seeded_sim();
    let master = Deployment::build(&mut sim, &scenario).master;
    let relay = sim.add_node("relay", RelayNode::new(master));
    sim.run_for(WARM_UP);
    let client = |format| {
        ClientNode::new(ClientConfig {
            master,
            district: district.district.clone(),
            bbox: district.bbox(),
            data_window_millis: None,
            period: None,
            format,
        })
    };
    let json = sim.add_node("json-client", client(DataFormat::Json));
    let xml = sim.add_node("xml-client", client(DataFormat::Xml));
    let via_relay = area
        .clone()
        .with_query("district", district.district.as_str());
    let relay = OneShot(WsClient::new(1000), relay, via_relay, None);
    let relay = sim.add_node("relay-probe", relay);
    sim.run_for(ANSWER_WITHIN);

    let mut central_sim = seeded_sim();
    let server = CentralDeployment::build(&mut central_sim, &scenario).server;
    central_sim.run_for(WARM_UP);
    let central = OneShot(WsClient::new(1000), server, area, None);
    let central = central_sim.add_node("central-probe", central);
    central_sim.run_for(ANSWER_WITHIN);

    let snapshot = |node| {
        let s = sim
            .node_ref::<ClientNode>(node)
            .and_then(ClientNode::latest_snapshot);
        let s = s.cloned().expect("client finished its query");
        assert!(
            s.errors == 0 && !s.entities.is_empty() && !s.measurements.is_empty(),
            "{s:?}"
        );
        s
    };
    let body = |sim: &Simulator, node| sim.node_ref::<OneShot>(node).and_then(|p| p.3.clone());
    Answers {
        json: snapshot(json),
        xml: snapshot(xml),
        relay: body(&sim, relay).expect("relay answered"),
        central: body(&central_sim, central).expect("central server answered"),
    }
}

/// The measurements as a multiset: sorted by (device, quantity,
/// timestamp).
fn multiset<'a>(measurements: impl IntoIterator<Item = &'a Measurement>) -> Vec<&'a Measurement> {
    let mut sorted: Vec<&Measurement> = measurements.into_iter().collect();
    sorted.sort_by_key(|&m| (m.device().as_str(), m.quantity().as_str(), m.timestamp()));
    sorted
}

#[test]
fn relay_answers_what_the_redirect_json_client_integrates() {
    for Answers { json, relay, .. } in answers() {
        assert_eq!(relay.get("errors").and_then(Value::as_i64), Some(0));
        let entities: BTreeMap<String, Value> = relay
            .get("entities")
            .and_then(Value::as_object)
            .expect("entities object")
            .iter()
            .map(|(id, model)| (id.as_str().to_owned(), model.clone()))
            .collect();
        assert_eq!(entities, json.entities);
        let measurements = MeasurementBatch::from_value(&relay).expect("measurements");
        assert_eq!(multiset(&measurements), multiset(&json.measurements));
    }
}

#[test]
fn xml_client_integrates_what_the_json_client_does() {
    for Answers { json, xml, .. } in answers() {
        assert_eq!(xml.entities, json.entities);
        assert_eq!(multiset(&xml.measurements), multiset(&json.measurements));
    }
}

#[test]
fn centralized_server_holds_the_models_the_redirect_fetches() {
    for Answers { json, central, .. } in answers() {
        let mut central: Vec<(String, String)> = central
            .require_array("central answer", "entities")
            .expect("entities array")
            .iter()
            .map(|entity| {
                let id = entity.get("id").and_then(Value::as_str).expect("entity id");
                (
                    id.to_owned(),
                    json::to_string(entity.get("model").expect("model")),
                )
            })
            .collect();
        central.sort();
        let redirect: Vec<(String, String)> = json
            .entities
            .iter()
            .map(|(id, model)| (id.clone(), json::to_string(model)))
            .collect();
        assert_eq!(central, redirect);
    }
}
