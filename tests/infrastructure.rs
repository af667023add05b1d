//! Fig. 1(a) end-to-end: the whole infrastructure assembled and queried.

use dimmer::core::codec::DataFormat;
use dimmer::core::Value;
use dimmer::district::client::{ClientConfig, ClientNode};
use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::ScenarioConfig;
use dimmer::master::MasterNode;
use dimmer::pubsub::BrokerNode;
use dimmer::simnet::{SimConfig, SimDuration, Simulator};

fn multi_district() -> (Simulator, Deployment, dimmer::district::scenario::Scenario) {
    let mut config = ScenarioConfig::small();
    config.districts = 2;
    config.buildings_per_district = 3;
    config.devices_per_building = 2;
    let scenario = config.build();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(600));
    (sim, deployment, scenario)
}

#[test]
fn two_districts_register_and_resolve_independently() {
    let (mut sim, deployment, scenario) = multi_district();
    let master = sim.node_ref::<MasterNode>(deployment.master).unwrap();
    assert_eq!(master.ontology().district_count(), 2);
    assert_eq!(master.ontology().device_count(), 12);
    // (gis + archive + 3 bim + 1 sim + 6 device proxies) * 2 districts
    assert_eq!(master.proxy_count(), 24);

    // Query each district; each sees only its own entities.
    let mut client_ids = Vec::new();
    for d in &scenario.districts {
        client_ids.push(ClientNode::spawn(
            &mut sim,
            &deployment,
            d.district.clone(),
            d.bbox(),
        ));
    }
    sim.run_for(SimDuration::from_secs(30));
    for (client, district) in client_ids.iter().zip(&scenario.districts) {
        let snapshot = sim
            .node_ref::<ClientNode>(*client)
            .unwrap()
            .latest_snapshot()
            .unwrap()
            .clone();
        assert_eq!(snapshot.errors, 0);
        assert_eq!(
            snapshot.resolution.entities.len(),
            4,
            "3 buildings + 1 network"
        );
        for entity in &snapshot.resolution.entities {
            assert!(
                entity.id().starts_with(district.district.as_str()),
                "{} leaked into {}",
                entity.id(),
                district.district
            );
        }
    }
}

#[test]
fn redirect_keeps_bulk_data_off_the_master() {
    let (mut sim, deployment, scenario) = multi_district();
    sim.reset_metrics();
    let client = ClientNode::spawn(
        &mut sim,
        &deployment,
        scenario.districts[0].district.clone(),
        scenario.districts[0].bbox(),
    );
    sim.run_for(SimDuration::from_secs(30));
    let snapshot = sim
        .node_ref::<ClientNode>(client)
        .unwrap()
        .latest_snapshot()
        .unwrap()
        .clone();
    assert!(snapshot.measurements.len() > 20);

    // The defining property of the redirect design: the client receives
    // far more bytes than the master ever sent it — the bulk flows
    // directly from the proxies. Heartbeat noise is excluded by
    // comparing only what each party exchanged with the client.
    let client_metrics = sim.node_metrics(client);
    let master_metrics = sim.node_metrics(deployment.master);
    assert!(
        client_metrics.bytes_received > 4 * master_metrics.bytes_sent / 2,
        "client got {} bytes, master only sent {} total",
        client_metrics.bytes_received,
        master_metrics.bytes_sent
    );
}

#[test]
fn middleware_carries_live_publications() {
    let (sim, deployment, _scenario) = multi_district();
    let broker = sim.node_ref::<BrokerNode>(deployment.broker).unwrap();
    let stats = broker.stats();
    // 12 devices at 1/min for 10 min ≈ 120 publications.
    assert!(stats.published > 80, "{stats:?}");
    assert!(stats.retained > 10, "{stats:?}");
}

#[test]
fn both_open_formats_integrate_identically() {
    let (mut sim, deployment, scenario) = multi_district();
    let district = scenario.districts[0].district.clone();
    let bbox = scenario.districts[0].bbox();
    let epoch = scenario.config.epoch_offset_millis;
    // Fixed window so both clients fetch identical data.
    let window = Some((epoch, epoch + 300_000));
    let mut clients = Vec::new();
    for format in DataFormat::all() {
        clients.push(sim.add_node(
            format!("client-{format}"),
            ClientNode::new(ClientConfig {
                master: deployment.master,
                district: district.clone(),
                bbox,
                data_window_millis: window,
                period: None,
                format,
            }),
        ));
    }
    sim.run_for(SimDuration::from_secs(30));
    let snapshots: Vec<_> = clients
        .iter()
        .map(|&c| {
            sim.node_ref::<ClientNode>(c)
                .unwrap()
                .latest_snapshot()
                .unwrap()
                .clone()
        })
        .collect();
    assert_eq!(snapshots[0].errors, 0);
    assert_eq!(snapshots[1].errors, 0);
    // The translated content is format-independent (fetch completion
    // order differs, so compare as sorted sets).
    let sorted = |s: &dimmer::district::client::AreaSnapshot| {
        let mut items: Vec<String> = s.measurements.iter().map(|m| m.to_string()).collect();
        items.sort();
        items
    };
    assert_eq!(sorted(&snapshots[0]), sorted(&snapshots[1]));
    assert_eq!(snapshots[0].entities, snapshots[1].entities);
    // But XML costs more bytes on the wire (experiment E4's claim).
    let json_bytes = sim.node_metrics(clients[0]).bytes_received;
    let xml_bytes = sim.node_metrics(clients[1]).bytes_received;
    assert!(
        xml_bytes > json_bytes,
        "xml {xml_bytes} must exceed json {json_bytes}"
    );
}

#[test]
fn ontology_snapshot_survives_wire_round_trip() {
    let (mut sim, deployment, _scenario) = multi_district();
    // Fetch /ontology through the WS layer and rebuild the forest.
    use dimmer::proxy::webservice::{WsClient, WsClientEvent, WsRequest, WsResponse};
    use dimmer::simnet::{Context, Node, Packet, TimerTag};
    struct Probe {
        client: WsClient,
        master: dimmer::simnet::NodeId,
        response: Option<WsResponse>,
    }
    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let request = WsRequest::get("/ontology");
            self.client.request(ctx, self.master, &request);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            if let Some(WsClientEvent::Response { response, .. }) = self.client.accept(&pkt) {
                self.response = Some(response);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            self.client.on_timer(ctx, tag);
        }
    }
    let probe = sim.add_node(
        "ontology-probe",
        Probe {
            client: WsClient::new(1000),
            master: deployment.master,
            response: None,
        },
    );
    sim.run_for(SimDuration::from_secs(10));
    let response = sim
        .node_ref::<Probe>(probe)
        .unwrap()
        .response
        .clone()
        .expect("ontology fetched");
    let rebuilt = dimmer::ontology::Ontology::from_value(&response.body).unwrap();
    let live = sim.node_ref::<MasterNode>(deployment.master).unwrap();
    assert_eq!(rebuilt.district_count(), live.ontology().district_count());
    assert_eq!(rebuilt.device_count(), live.ontology().device_count());
    assert_eq!(rebuilt.entity_count(), live.ontology().entity_count());
}

#[test]
fn deterministic_replay_of_the_full_stack() {
    let run = || {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        sim.run_for(SimDuration::from_secs(300));
        let client = ClientNode::spawn(
            &mut sim,
            &deployment,
            scenario.districts[0].district.clone(),
            scenario.districts[0].bbox(),
        );
        sim.run_for(SimDuration::from_secs(30));
        let snapshot = sim
            .node_ref::<ClientNode>(client)
            .unwrap()
            .latest_snapshot()
            .unwrap()
            .clone();
        (
            snapshot.measurements.len(),
            snapshot.latency().as_nanos(),
            sim.metrics().packets_delivered,
            dimmer::core::json::to_string(&Value::object([(
                "m",
                snapshot.measurements.to_value(),
            )])),
        )
    };
    assert_eq!(run(), run(), "same seed, same everything");
}
