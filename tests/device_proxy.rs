//! Fig. 1(b) per protocol: every device family flows through its
//! Device-proxy's three layers into the integrated view.

use dimmer::district::client::ClientNode;
use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::{ProtocolMix, ScenarioConfig};
use dimmer::protocols::ProtocolKind;
use dimmer::proxy::device_proxy::DeviceProxyNode;
use dimmer::simnet::{SimConfig, SimDuration, Simulator};

/// Runs a two-building district of `protocol` devices for ten minutes,
/// then checks that an end user's query sees data and that every
/// Device-proxy ingested without a decode error.
fn end_to_end(protocol: ProtocolKind) {
    let mut config = ScenarioConfig::small();
    config.protocol_mix = ProtocolMix::only(protocol);
    config.buildings_per_district = 2;
    config.devices_per_building = 2;
    let scenario = config.build();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(600));

    // End-user query on top.
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
    assert_eq!(snapshot.errors, 0, "{protocol}: {snapshot:?}");
    assert!(
        !snapshot.measurements.is_empty(),
        "{protocol}: no data reached the client"
    );

    let mut proxies_with_data = 0;
    for p in deployment.device_proxies() {
        let proxy = sim.node_ref::<DeviceProxyNode>(p).unwrap();
        assert_eq!(
            proxy.stats().decode_errors,
            0,
            "{protocol}: decode errors at {}",
            sim.node_name(p)
        );
        if proxy.stats().samples_ingested > 0 {
            proxies_with_data += 1;
        }
    }
    assert_eq!(
        proxies_with_data,
        scenario.device_count(),
        "{protocol}: every proxy must ingest"
    );
}

#[test]
fn ieee802154_end_to_end() {
    end_to_end(ProtocolKind::Ieee802154);
}

#[test]
fn zigbee_end_to_end() {
    end_to_end(ProtocolKind::Zigbee);
}

#[test]
fn enocean_end_to_end() {
    end_to_end(ProtocolKind::EnOcean);
}

#[test]
fn opcua_end_to_end() {
    // OPC UA is the polled (wired legacy) path: the proxy pulls.
    end_to_end(ProtocolKind::OpcUa);
}

#[test]
fn coap_end_to_end() {
    // CoAP is the second polled path (the IoT direction of §III).
    end_to_end(ProtocolKind::Coap);
}

#[test]
fn local_store_supports_downsampled_retrieval() {
    use dimmer::core::{MeasurementBatch, Value};
    use dimmer::proxy::webservice::{WsClient, WsClientEvent, WsRequest, WsResponse};
    use dimmer::simnet::{Context, Node, Packet, TimerTag};

    let mut config = ScenarioConfig::small();
    config.protocol_mix = ProtocolMix::only(ProtocolKind::Zigbee);
    config.buildings_per_district = 1;
    config.devices_per_building = 1;
    config.sample_interval = SimDuration::from_secs(10);
    let scenario = config.build();
    let epoch = scenario.config.epoch_offset_millis;
    let quantity = scenario.districts[0].buildings[0].devices[0].quantity;
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(3600));

    struct Probe {
        client: WsClient,
        target: dimmer::simnet::NodeId,
        request: WsRequest,
        response: Option<WsResponse>,
    }
    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let request = self.request.clone();
            self.client.request(ctx, self.target, &request);
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

    let proxy = deployment.districts[0].device_proxies[0];
    // 1 hour of 10 s samples, downsampled to 10-minute means: 6 buckets.
    let probe = sim.add_node(
        "probe",
        Probe {
            client: WsClient::new(1000),
            target: proxy,
            request: WsRequest::get("/data")
                .with_query("quantity", quantity.as_str())
                .with_query("from", epoch.to_string())
                .with_query("to", (epoch + 3_600_000).to_string())
                .with_query("bucket", "600000")
                .with_query("agg", "mean"),
            response: None,
        },
    );
    sim.run_for(SimDuration::from_secs(10));
    let response = sim
        .node_ref::<Probe>(probe)
        .unwrap()
        .response
        .clone()
        .expect("proxy answered");
    assert!(response.is_ok(), "{response:?}");
    let batch = MeasurementBatch::from_value(&response.body).unwrap();
    assert_eq!(batch.len(), 6, "six 10-minute buckets in one hour");

    // Raw retrieval of the same window yields ~360 points.
    let raw_probe = sim.add_node(
        "raw-probe",
        Probe {
            client: WsClient::new(1000),
            target: proxy,
            request: WsRequest::get("/data")
                .with_query("quantity", quantity.as_str())
                .with_query("from", epoch.to_string())
                .with_query("to", (epoch + 3_600_000).to_string()),
            response: None,
        },
    );
    sim.run_for(SimDuration::from_secs(10));
    let raw = sim
        .node_ref::<Probe>(raw_probe)
        .unwrap()
        .response
        .clone()
        .expect("proxy answered");
    let raw_batch = MeasurementBatch::from_value(&raw.body).unwrap();
    assert!(
        (350..=361).contains(&raw_batch.len()),
        "raw points: {}",
        raw_batch.len()
    );

    // Invalid parameters surface as 400s.
    let bad = sim.add_node(
        "bad-probe",
        Probe {
            client: WsClient::new(1000),
            target: proxy,
            request: WsRequest::get("/data")
                .with_query("quantity", quantity.as_str())
                .with_query("bucket", "-5"),
            response: None,
        },
    );
    sim.run_for(SimDuration::from_secs(10));
    let bad_response = sim
        .node_ref::<Probe>(bad)
        .unwrap()
        .response
        .clone()
        .unwrap();
    assert_eq!(bad_response.status, 400);
    assert!(bad_response
        .body
        .get("error")
        .and_then(Value::as_str)
        .is_some());
}
