//! Master-node tests driven through the simulated network.

use dimmer_core::{BuildingId, DeviceId, DistrictId, ProxyId, QuantityKind, Uri, Value};
use ontology::{AreaResolution, DeviceLeaf, EntityNode};
use proxy::registration::{ProxyRef, ProxyRole, Registration};
use proxy::webservice::{WsClient, WsClientEvent, WsRequest, WsResponse};
use simnet::{Context, Node, Packet, SimConfig, SimDuration, Simulator, TimerTag};

use crate::{DistrictRoutes, MasterNode, Route};
use gis::geo::GeoPoint;

/// A scripted test client: fires a queue of requests sequentially and
/// records responses.
struct Script {
    client: WsClient,
    master: simnet::NodeId,
    queue: Vec<WsRequest>,
    responses: Vec<WsResponse>,
    timeouts: usize,
}

impl Script {
    fn new(master: simnet::NodeId, queue: Vec<WsRequest>) -> Self {
        Script {
            client: WsClient::new(1000),
            master,
            queue,
            responses: vec![],
            timeouts: 0,
        }
    }

    fn fire_next(&mut self, ctx: &mut Context<'_>) {
        if let Some(request) = self.queue.first().cloned() {
            self.queue.remove(0);
            self.client.request(ctx, self.master, &request);
        }
    }
}

impl Node for Script {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.fire_next(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(WsClientEvent::Response { response, .. }) = self.client.accept(&pkt) {
            self.responses.push(response);
            self.fire_next(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if let Some(WsClientEvent::TimedOut { .. }) = self.client.on_timer(ctx, tag) {
            self.timeouts += 1;
            self.fire_next(ctx);
        }
    }
}

fn did(s: &str) -> DistrictId {
    DistrictId::new(s).unwrap()
}

fn uri(s: &str) -> Uri {
    Uri::parse(s).unwrap()
}

fn building_registration(proxy: &str, building: &str, lat: f64) -> Registration {
    Registration {
        proxy: ProxyId::new(proxy).unwrap(),
        district: did("d1"),
        uri: uri(&format!("sim://{proxy}/")),
        role: ProxyRole::EntityDatabase {
            entity: EntityNode::building(
                BuildingId::new(building).unwrap(),
                uri(&format!("sim://{proxy}/model")),
            )
            .with_location(GeoPoint::new(lat, 7.68)),
        },
    }
}

fn device_registration(proxy: &str, building: &str, device: &str) -> Registration {
    Registration {
        proxy: ProxyId::new(proxy).unwrap(),
        district: did("d1"),
        uri: uri(&format!("sim://{proxy}/")),
        role: ProxyRole::Device {
            entity_id: building.into(),
            leaf: DeviceLeaf::new(
                DeviceId::new(device).unwrap(),
                "zigbee",
                QuantityKind::Temperature,
                uri(&format!("sim://{proxy}/data")),
            ),
        },
    }
}

fn run_script(requests: Vec<WsRequest>) -> (Simulator, simnet::NodeId, simnet::NodeId) {
    let mut sim = Simulator::new(SimConfig::default());
    let master = sim.add_node(
        "master",
        MasterNode::new([(did("d1"), "District One".to_owned())]),
    );
    let script = sim.add_node("script", Script::new(master, requests));
    sim.run_for(SimDuration::from_secs(60));
    (sim, master, script)
}

#[test]
fn register_then_resolve_area() {
    let (sim, master, script) = run_script(vec![
        WsRequest::post(
            "/register",
            building_registration("p-b1", "b1", 45.05).to_value(),
        ),
        WsRequest::post(
            "/register",
            building_registration("p-b2", "b2", 45.55).to_value(),
        ),
        WsRequest::post(
            "/register",
            device_registration("p-dev1", "b1", "dev1").to_value(),
        ),
        WsRequest::get("/district/d1/area").with_query("bbox", "45.0,7.6,45.1,7.7"),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert_eq!(s.responses.len(), 4);
    assert!(
        s.responses.iter().all(WsResponse::is_ok),
        "{:?}",
        s.responses
    );
    let resolution = AreaResolution::from_value(&s.responses[3].body).unwrap();
    assert_eq!(resolution.entities.len(), 1, "only b1 is inside the bbox");
    assert_eq!(resolution.entities[0].id(), "b1");
    assert_eq!(resolution.devices.len(), 1);
    assert_eq!(resolution.devices[0].device().as_str(), "dev1");
    let m = sim.node_ref::<MasterNode>(master).unwrap();
    assert_eq!(m.stats().registrations, 3);
    assert_eq!(m.proxy_count(), 3);
}

#[test]
fn device_before_entity_is_parked_then_applied() {
    let (sim, master, script) = run_script(vec![
        // Device first: its building is unknown, so it parks.
        WsRequest::post(
            "/register",
            device_registration("p-dev1", "b1", "dev1").to_value(),
        ),
        WsRequest::post(
            "/register",
            building_registration("p-b1", "b1", 45.05).to_value(),
        ),
        WsRequest::get("/district/d1/devices").with_query("quantity", "temperature"),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert!(s.responses.iter().all(WsResponse::is_ok));
    let devices = s.responses[2].body.require_array("t", "devices").unwrap();
    assert_eq!(
        devices.len(),
        1,
        "parked device applied once entity arrived"
    );
    let m = sim.node_ref::<MasterNode>(master).unwrap();
    assert_eq!(m.stats().parked_devices, 1);
    assert_eq!(m.ontology().device_count(), 1);
}

#[test]
fn deregister_removes_contribution() {
    let (sim, master, script) = run_script(vec![
        WsRequest::post(
            "/register",
            building_registration("p-b1", "b1", 45.05).to_value(),
        ),
        WsRequest::post(
            "/register",
            device_registration("p-dev1", "b1", "dev1").to_value(),
        ),
        WsRequest::post(
            "/deregister",
            ProxyRef {
                proxy: ProxyId::new("p-dev1").unwrap(),
                district: did("d1"),
            }
            .to_value(),
        ),
        WsRequest::get("/district/d1/devices").with_query("quantity", "temperature"),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert!(s.responses.iter().all(WsResponse::is_ok));
    let devices = s.responses[3].body.require_array("t", "devices").unwrap();
    assert!(devices.is_empty());
    assert_eq!(sim.node_ref::<MasterNode>(master).unwrap().proxy_count(), 1);
}

#[test]
fn queries_cover_all_read_endpoints() {
    let (sim, _master, script) = run_script(vec![
        WsRequest::post(
            "/register",
            building_registration("p-b1", "b1", 45.05).to_value(),
        ),
        WsRequest::get("/districts"),
        WsRequest::get("/district/d1"),
        WsRequest::get("/district/d1/entities").with_query("kind", "building"),
        WsRequest::get("/ontology"),
        WsRequest::get("/proxies"),
        WsRequest::get("/stats"),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert_eq!(s.responses.len(), 7);
    assert!(s.responses.iter().all(WsResponse::is_ok));
    let districts = s.responses[1].body.require_array("t", "districts").unwrap();
    assert_eq!(districts.len(), 1);
    assert_eq!(
        districts[0].get("name").and_then(Value::as_str),
        Some("District One")
    );
    let entities = s.responses[3].body.require_array("t", "entities").unwrap();
    assert_eq!(entities.len(), 1);
    let proxies = s.responses[5].body.require_array("t", "proxies").unwrap();
    assert_eq!(proxies.len(), 1);
}

#[test]
fn proxies_are_listed_in_ascending_id_order() {
    // Thirteen registrations in a scrambled order: a registry that
    // iterated in hash order would list them in a different order per
    // process.
    let ids: Vec<String> = (0..13).map(|i| format!("p-{:02}", (i * 5) % 13)).collect();
    let mut requests: Vec<WsRequest> = ids
        .iter()
        .map(|id| WsRequest::post("/register", building_registration(id, id, 45.05).to_value()))
        .collect();
    requests.push(WsRequest::get("/proxies"));
    let (sim, _master, script) = run_script(requests);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert!(s.responses.iter().all(WsResponse::is_ok));
    let listed: Vec<&str> = s.responses[13]
        .body
        .require_array("t", "proxies")
        .unwrap()
        .iter()
        .map(|p| p.get("proxy").and_then(Value::as_str).unwrap())
        .collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(listed, sorted);
}

#[test]
fn devices_filtered_by_protocol() {
    let (sim, _master, script) = run_script(vec![
        WsRequest::post(
            "/register",
            building_registration("p-b1", "b1", 45.05).to_value(),
        ),
        WsRequest::post(
            "/register",
            device_registration("p-dev1", "b1", "dev1").to_value(),
        ),
        WsRequest::get("/district/d1/devices").with_query("protocol", "zigbee"),
        WsRequest::get("/district/d1/devices").with_query("protocol", "enocean"),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert!(s.responses.iter().all(WsResponse::is_ok));
    assert_eq!(
        s.responses[2]
            .body
            .require_array("t", "devices")
            .unwrap()
            .len(),
        1
    );
    assert!(s.responses[3]
        .body
        .require_array("t", "devices")
        .unwrap()
        .is_empty());
}

#[test]
fn bad_requests_rejected() {
    let (sim, _master, script) = run_script(vec![
        WsRequest::post("/register", Value::object([("junk", Value::from(1))])),
        WsRequest::get("/district/d1/area"), // missing bbox
        WsRequest::get("/district/d1/area").with_query("bbox", "nope"),
        WsRequest::get("/district/ghost/area").with_query("bbox", "45.0,7.6,45.1,7.7"),
        WsRequest::get("/district/d1/devices"), // missing quantity
        WsRequest::get("/nonsense"),
        WsRequest::post(
            "/heartbeat",
            ProxyRef {
                proxy: ProxyId::new("never-registered").unwrap(),
                district: did("d1"),
            }
            .to_value(),
        ),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert_eq!(s.responses.len(), 7);
    assert!(s.responses.iter().all(|r| !r.is_ok()), "{:?}", s.responses);
}

#[test]
fn unknown_tree_and_kind_rejected() {
    let (sim, _master, script) = run_script(vec![
        WsRequest::get("/district/ghost"),
        WsRequest::get("/district/d1/entities").with_query("kind", "spaceship"),
        WsRequest::get("/district/bad id/area").with_query("bbox", "1,2,3,4"),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert_eq!(s.responses.len(), 3);
    assert!(s.responses.iter().all(|r| !r.is_ok()), "{:?}", s.responses);
}

#[test]
fn re_registration_replaces_device_leaf() {
    let mut reg2 = device_registration("p-dev1", "b1", "dev1");
    if let ProxyRole::Device { leaf, .. } = &mut reg2.role {
        *leaf = DeviceLeaf::new(
            DeviceId::new("dev1").unwrap(),
            "enocean",
            QuantityKind::Temperature,
            uri("sim://p-dev1/data"),
        );
    }
    let (sim, master, script) = run_script(vec![
        WsRequest::post(
            "/register",
            building_registration("p-b1", "b1", 45.05).to_value(),
        ),
        WsRequest::post(
            "/register",
            device_registration("p-dev1", "b1", "dev1").to_value(),
        ),
        WsRequest::post("/register", reg2.to_value()),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert!(s.responses.iter().all(WsResponse::is_ok));
    let m = sim.node_ref::<MasterNode>(master).unwrap();
    assert_eq!(m.ontology().device_count(), 1, "replaced, not duplicated");
    let (_, _, leaf) = m.ontology().find_device("dev1").unwrap();
    assert_eq!(leaf.protocol(), "enocean");
}

#[test]
fn silent_proxy_is_evicted() {
    // Register one device proxy and never heartbeat: after the liveness
    // horizon the master evicts it and its leaf disappears.
    let mut sim = Simulator::new(SimConfig::default());
    let master = sim.add_node("master", MasterNode::new([(did("d1"), "D1".to_owned())]));
    let script = sim.add_node(
        "script",
        Script::new(
            master,
            vec![
                WsRequest::post(
                    "/register",
                    building_registration("p-b1", "b1", 45.05).to_value(),
                ),
                WsRequest::post(
                    "/register",
                    device_registration("p-dev1", "b1", "dev1").to_value(),
                ),
            ],
        ),
    );
    sim.run_for(SimDuration::from_secs(300));
    let _ = script;
    let m = sim.node_ref::<MasterNode>(master).unwrap();
    assert!(
        m.stats().evictions >= 2,
        "evictions: {}",
        m.stats().evictions
    );
    assert_eq!(m.proxy_count(), 0);
    assert_eq!(m.ontology().device_count(), 0);
}

#[test]
fn stray_district_created_on_demand() {
    let mut reg = building_registration("p-x", "bx", 45.0);
    reg.district = did("unseeded");
    let (sim, master, script) = run_script(vec![WsRequest::post("/register", reg.to_value())]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert!(s.responses[0].is_ok());
    let m = sim.node_ref::<MasterNode>(master).unwrap();
    assert_eq!(m.ontology().district_count(), 2);
    assert_eq!(
        m.ontology().district(&did("unseeded")).unwrap().name(),
        "unseeded"
    );
}

#[test]
fn aggregator_registration_serves_profile_redirects() {
    let (sim, master, script) = run_script(vec![
        WsRequest::get("/district/d1/profile"), // before any aggregator
        WsRequest::post(
            "/register",
            Registration {
                proxy: ProxyId::new("agg-d1").unwrap(),
                district: did("d1"),
                uri: uri("sim://n7/"),
                role: ProxyRole::Aggregator,
            }
            .to_value(),
        ),
        WsRequest::get("/district/d1/profile"),
        WsRequest::get("/district/ghost/profile"),
    ]);
    let s = sim.node_ref::<Script>(script).unwrap();
    assert_eq!(s.responses.len(), 4);
    let aggregators = |r: &WsResponse| {
        r.body
            .get("aggregators")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .unwrap()
    };
    assert!(s.responses[0].is_ok());
    assert!(aggregators(&s.responses[0]).is_empty());
    assert!(s.responses[1].is_ok(), "registration accepted");
    let after = aggregators(&s.responses[2]);
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].as_str(), Some("sim://n7/"));
    assert_eq!(
        s.responses[3].status,
        proxy::webservice::status::NOT_FOUND,
        "unknown district has no profile"
    );
    let m = sim.node_ref::<MasterNode>(master).unwrap();
    assert_eq!(m.proxy_count(), 1);
}

#[test]
fn every_district_route_matches_and_an_unknown_path_is_404() {
    let routes = DistrictRoutes::new();
    for (path, route) in [
        ("/district/d1", Route::Tree),
        ("/district/d1/area", Route::Area),
        ("/district/d1/entities", Route::Entities),
        ("/district/d1/devices", Route::Devices),
        ("/district/d1/profile", Route::Profile),
    ] {
        assert_eq!(routes.find(path), Some((route, "d1")), "{path}");
    }
    let unknown = [
        "/district",
        "/district/d1/ghost",
        "/district/d1/area/extra",
        "/districts/d1/area",
        "district/d1/area",
        "/",
        "",
    ];
    for path in unknown {
        assert_eq!(routes.find(path), None, "{path:?}");
    }
    let (sim, _master, script) = run_script(
        unknown[..4]
            .iter()
            .map(|path| WsRequest::get(*path))
            .collect(),
    );
    let s = sim.node_ref::<Script>(script).unwrap();
    assert_eq!(s.responses.len(), 4);
    assert!(
        s.responses
            .iter()
            .all(|r| r.status == proxy::webservice::status::NOT_FOUND),
        "{:?}",
        s.responses
    );
}
