//! Master-node tests driven through the simulated network.

use dimmer_core::{json, BuildingId, DeviceId, DistrictId, ProxyId, QuantityKind, Uri, Value};
use ontology::{AreaResolution, DeviceLeaf, EntityNode};
use proxy::registration::{MasterReply, MasterSession, ProxyRef, ProxyRole, Registration};
use proxy::webservice::{WsClient, WsClientEvent, WsRequest, WsResponse, WsServer};
use simnet::rng::DeterministicRng;
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
            self.client.request(ctx, self.master, &request, ());
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

/// A device proxy whose building never registers, driving the same
/// session with the master as a real one.
struct Orphan {
    session: MasterSession,
    reregistered: usize,
}

impl Node for Orphan {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let registration = device_registration("p-orphan", "ghost", "orphan");
        self.session.start(ctx, registration);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(MasterReply::Reregistered) = self.session.on_packet(ctx, &pkt) {
            self.reregistered += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.session.on_timer(ctx, tag);
    }
}

#[test]
fn an_orphan_device_stays_parked_once_across_heartbeats() {
    let mut sim = Simulator::new(SimConfig::default());
    let master = sim.add_node("master", MasterNode::new([(did("d1"), "D1".to_owned())]));
    let orphan = sim.add_node(
        "orphan",
        Orphan {
            session: MasterSession::new(master, TimerTag(1), 1000),
            reregistered: 0,
        },
    );
    // 100 heartbeat intervals of 30 s, plus time for the last answer.
    sim.run_for(SimDuration::from_secs(100 * 30 + 5));
    let o = sim.node_ref::<Orphan>(orphan).unwrap();
    assert_eq!(o.reregistered, 100, "every heartbeat was answered 404");
    let m = sim.node_ref::<MasterNode>(master).unwrap();
    assert_eq!(m.stats().parked_devices, 101, "each registration parked");
    let health = m.get_health().body;
    assert_eq!(
        health.get("parked_devices").and_then(Value::as_i64),
        Some(1)
    );
}

/// FNV-1a continued from `hash` over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Seed `seed`'s registration storm over districts d1, d2 and d3 (d3
/// unseeded): per district a GIS and an aggregator root, three
/// buildings of three devices each, and a device whose building never
/// registers, all in a random arrival order. Then one device registers
/// twice, one building registers again after all its devices did, and
/// one building or device proxy deregisters after it registered.
fn storm(seed: u64) -> Vec<WsRequest> {
    let mut rng = DeterministicRng::seed_from(seed);
    let mut arrivals = Vec::new();
    let mut buildings = Vec::new();
    for d in ["d1", "d2", "d3"] {
        for (name, role) in [("gis", ProxyRole::Gis), ("agg", ProxyRole::Aggregator)] {
            arrivals.push(Registration {
                proxy: ProxyId::new(format!("{name}-{d}")).unwrap(),
                district: did(d),
                uri: uri(&format!("sim://{name}-{d}/")),
                role,
            });
        }
        for b in 0..3 {
            let building = format!("{d}-b{b}");
            let mut entity =
                building_registration(&format!("p-{building}"), &building, 45.0 + 0.1 * b as f64);
            entity.district = did(d);
            buildings.push(entity.clone());
            arrivals.push(entity);
            for k in 0..3 {
                let device = format!("{building}-dev{k}");
                let mut reg = device_registration(&format!("p-{device}"), &building, &device);
                reg.district = did(d);
                arrivals.push(reg);
            }
        }
        let mut orphan = device_registration(
            &format!("p-{d}-orphan"),
            &format!("{d}-ghost"),
            &format!("{d}-orphan"),
        );
        orphan.district = did(d);
        arrivals.push(orphan);
    }
    rng.shuffle(&mut arrivals);
    let devices: Vec<Registration> = arrivals
        .iter()
        .filter(|r| matches!(r.role, ProxyRole::Device { .. }))
        .cloned()
        .collect();
    let register = |r: &Registration| (r.proxy.clone(), WsRequest::post("/register", r.to_value()));
    let mut storm: Vec<(ProxyId, WsRequest)> = arrivals.iter().map(register).collect();
    // Inserts `arrival` at a random position after the last arrival of
    // any proxy in `after`.
    let insert_after = |rng: &mut DeterministicRng,
                        storm: &mut Vec<(ProxyId, WsRequest)>,
                        after: &[ProxyId],
                        arrival: (ProxyId, WsRequest)| {
        let last = storm.iter().rposition(|(p, _)| after.contains(p)).unwrap();
        let at = last + 1 + rng.next_bounded((storm.len() - last) as u64) as usize;
        storm.insert(at, arrival);
    };
    // A device registering twice, on another protocol the second time.
    let mut twice = rng.choose(&devices).unwrap().clone();
    if let ProxyRole::Device { leaf, .. } = &mut twice.role {
        *leaf = DeviceLeaf::new(
            leaf.device().clone(),
            "enocean",
            QuantityKind::Temperature,
            leaf.proxy().clone(),
        );
    }
    insert_after(
        &mut rng,
        &mut storm,
        &[twice.proxy.clone()],
        register(&twice),
    );
    // A building registering again, at a new location, once it and all
    // of its devices have registered.
    let mut again = rng.choose(&buildings).unwrap().clone();
    let ProxyRole::EntityDatabase { entity } = &again.role else {
        unreachable!()
    };
    let prefix = format!("p-{}-dev", entity.id());
    let mut waited_for = vec![again.proxy.clone()];
    waited_for.extend(
        devices
            .iter()
            .filter(|r| r.proxy.as_str().starts_with(&prefix))
            .map(|r| r.proxy.clone()),
    );
    again.role = ProxyRole::EntityDatabase {
        entity: entity.clone().with_location(GeoPoint::new(44.9, 7.7)),
    };
    insert_after(&mut rng, &mut storm, &waited_for, register(&again));
    // One building or device proxy deregistering after it registered.
    let leavers: Vec<&Registration> = buildings.iter().chain(&devices).collect();
    let leaver = *rng.choose(&leavers).unwrap();
    let deregister = ProxyRef {
        proxy: leaver.proxy.clone(),
        district: leaver.district.clone(),
    };
    insert_after(
        &mut rng,
        &mut storm,
        std::slice::from_ref(&leaver.proxy),
        (
            leaver.proxy.clone(),
            WsRequest::post("/deregister", deregister.to_value()),
        ),
    );
    storm.into_iter().map(|(_, request)| request).collect()
}

/// Posts seed `seed`'s storm to a master seeded with d1 and d2, then
/// folds the `/ontology` JSON and the `/proxies` body into one FNV-1a.
fn storm_digest(seed: u64) -> u64 {
    let mut requests = storm(seed);
    requests.push(WsRequest::get("/ontology"));
    requests.push(WsRequest::get("/proxies"));
    let sent = requests.len();
    let mut sim = Simulator::new(SimConfig::default());
    let master = sim.add_node(
        "master",
        MasterNode::new([
            (did("d1"), "District One".to_owned()),
            (did("d2"), "District Two".to_owned()),
        ]),
    );
    let script = sim.add_node("script", Script::new(master, requests));
    sim.run_for(SimDuration::from_secs(60));
    let s = sim.node_ref::<Script>(script).unwrap();
    assert_eq!((s.responses.len(), s.timeouts), (sent, 0), "seed {seed}");
    let [.., ontology, proxies] = s.responses.as_slice() else {
        unreachable!()
    };
    assert!(ontology.is_ok() && proxies.is_ok(), "seed {seed}");
    [ontology, proxies]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, r| {
            fnv1a(h, json::to_string(&r.body).as_bytes())
        })
}

/// `storm_digest(seed)` for seeds 0..64.
const STORM_PINS: [u64; 64] = [
    0xfb9a_101b_eae3_43a0,
    0x0260_982f_3842_c28a,
    0x0507_0998_a721_6a4a,
    0x0aa7_e096_9cba_e5d2,
    0x000e_e000_91d7_7542,
    0xc848_b390_91ee_18e2,
    0x9f9e_5295_bf87_b930,
    0x8882_9783_b696_7a4f,
    0x8128_2b5a_e4b0_0515,
    0x2da7_3487_ce4f_680d,
    0xc7e9_da79_665b_c54d,
    0x7a51_78fc_97e2_6aad,
    0x7fee_75fb_378e_1fc3,
    0x8a71_256b_a1e9_a33f,
    0xe006_7b62_5f03_96be,
    0x7877_4b5e_2866_6427,
    0xbeb4_ff73_e8ca_57ea,
    0xe558_250b_9521_edbe,
    0xa609_611a_3805_7e25,
    0xaaea_d996_16eb_91ae,
    0x6cf8_ccc3_e5d7_b04a,
    0x6533_ed15_6ed2_d5fe,
    0x9442_6c3a_76b9_eacb,
    0x5d2d_0a55_e7de_e2e6,
    0x6d66_fea6_6a69_d6fe,
    0xa591_d75d_e027_2260,
    0xf12d_826d_7d00_80a5,
    0xf304_3e86_09e9_e0fa,
    0xfa39_3030_0a92_94ef,
    0xc570_5022_c85c_f1f9,
    0xc00e_d6a6_ee46_db8d,
    0x33d8_fcd4_2453_5661,
    0xd688_d848_0b44_524e,
    0x3c7b_03bb_e44e_c98c,
    0x810f_34fd_02f8_fa5f,
    0x3248_3b07_f0f9_116f,
    0xa692_4888_afdb_b1db,
    0xb6f9_aa9a_1128_78f9,
    0x0ab8_e4e5_394c_461e,
    0xefd0_522b_667e_b870,
    0xb286_afca_46a5_7c8a,
    0x7063_b211_6e1c_c3dc,
    0x3431_9408_98d7_367b,
    0x4822_64fc_8ca6_3a17,
    0xb05e_6364_3230_a642,
    0x44c2_1429_4f39_d90a,
    0x7242_6a8c_2ad8_765f,
    0xf67a_b348_3132_5be2,
    0x77e3_0e64_f5fe_faba,
    0x0968_d357_9e66_f712,
    0x8ebf_e538_8e51_5f47,
    0xbdb1_fe19_b9ae_416e,
    0xeb12_3848_7ec8_818f,
    0x7bb5_c4f7_4fde_b895,
    0x141f_1020_b387_335f,
    0x3bcc_abcc_1240_6cf9,
    0x4085_c683_8489_18f4,
    0x10ef_d8a1_9bc4_68ec,
    0x79c6_d586_b2f5_db7e,
    0x9737_7ba4_6da8_5599,
    0x6e14_3f36_1bab_2081,
    0xaa32_2a46_0967_0ef9,
    0x3d1b_3234_ef80_8981,
    0x70e7_a760_6543_de99,
];

#[test]
fn registration_storms_reach_their_pinned_ontology_and_registry() {
    let digests: Vec<u64> = (0..64).map(storm_digest).collect();
    let moved: Vec<u64> = (0..64)
        .filter(|&seed| digests[seed as usize] != STORM_PINS[seed as usize])
        .collect();
    assert!(
        moved.is_empty(),
        "seeds {moved:?} moved; all digests: {:#018x?}",
        digests
    );
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

/// Answers every `/health` request with a healthy body.
struct Healthy(WsServer);

impl Node for Healthy {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(call) = self.0.accept(ctx, &pkt) {
            let body = Value::object([("status", Value::from("ok"))]);
            self.0.respond(ctx, &call, WsResponse::ok(body));
        }
    }
}

#[test]
fn a_probe_outliving_its_round_marks_its_target_down_and_its_late_answer_is_ignored() {
    let mut sim = Simulator::new(SimConfig::default());
    let mut master = MasterNode::new([(did("d1"), "D1".to_owned())]);
    master.enable_fleet_scrape(SimDuration::from_secs(2));
    let master = sim.add_node("master", master);
    let target = sim.add_node("slow", Healthy(WsServer::new()));
    let mut registration = building_registration("p-slow", "b1", 45.05);
    registration.uri = uri(&format!("sim://n{}/", target.index()));
    sim.add_node(
        "script",
        Script::new(
            master,
            vec![WsRequest::post("/register", registration.to_value())],
        ),
    );
    let record = |sim: &Simulator| {
        let m = sim.node_ref::<MasterNode>(master).unwrap();
        let rec = &m.scrape.as_ref().unwrap().records["p-slow"];
        (rec.up, rec.last_ok)
    };
    // The round at 2 s probes over a LAN: answered within it.
    sim.run_for(SimDuration::from_secs(3));
    let (up, answered) = record(&sim);
    assert!(up && answered.is_some());
    // From now on a round trip (2.4 s) outlasts the 2 s round but not
    // the 3 s request timeout: the probe sent at 4 s is still out when
    // the round at 6 s begins, and its answer lands at 6.4 s.
    let slow = simnet::LinkModel::builder()
        .latency(SimDuration::from_millis(1200))
        .build();
    sim.set_link(master, target, slow);
    sim.run_for(SimDuration::from_millis(3200));
    assert_eq!(record(&sim), (false, answered), "down at the next round");
    sim.run_for(SimDuration::from_millis(800));
    assert_eq!(
        record(&sim),
        (false, answered),
        "the late answer is ignored"
    );
}
