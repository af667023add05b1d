//! Remote actuation end-to-end: "allow the remote control of actuator
//! devices" — discovered through the ontology, commanded through the
//! Device-proxy's Web Service, delivered as a native protocol frame.

use dimmer::core::Value;
use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::{ProtocolMix, ScenarioConfig};
use dimmer::ontology::AreaResolution;
use dimmer::protocols::ProtocolKind;
use dimmer::proxy::devices::UplinkDeviceNode;
use dimmer::proxy::uri_node;
use dimmer::proxy::webservice::{WsClient, WsClientEvent, WsRequest, WsResponse};
use dimmer::simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, Simulator, TimerTag};

/// An operator application: resolves the area, then actuates every
/// switchable device it finds.
struct Operator {
    client: WsClient,
    master: NodeId,
    district: String,
    bbox: String,
    resolution: Option<AreaResolution>,
    actuation_results: Vec<WsResponse>,
    phase_resolve: Option<u64>,
}

impl Node for Operator {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let request = WsRequest::get(format!("/district/{}/area", self.district))
            .with_query("bbox", self.bbox.clone());
        self.phase_resolve = Some(self.client.request(ctx, self.master, &request, ()));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(WsClientEvent::Response { settled, response }) = self.client.accept(&pkt) {
            if Some(settled.id) == self.phase_resolve {
                let resolution =
                    AreaResolution::from_value(&response.body).expect("valid resolution");
                for device in &resolution.devices {
                    // Switch-state devices are the actuatable ones here.
                    if device.quantity() == dimmer::core::QuantityKind::SwitchState {
                        if let Some(node) = uri_node(device.proxy()) {
                            let request = WsRequest::post(
                                "/actuate",
                                Value::object([("value", Value::from(1.0))]),
                            );
                            self.client.request(ctx, node, &request, ());
                        }
                    }
                }
                self.resolution = Some(resolution);
            } else {
                self.actuation_results.push(response);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

#[test]
fn operator_actuates_discovered_switches() {
    // ZigBee-only district: every switch-state device accepts On/Off.
    let mut config = ScenarioConfig::small()
        .with_buildings(4)
        .with_devices_per_building(4)
        .with_seed(0xACDC);
    config.protocol_mix = ProtocolMix::only(ProtocolKind::Zigbee);
    let scenario = config.build();
    let switch_devices: usize = scenario.districts[0]
        .buildings
        .iter()
        .flat_map(|b| &b.devices)
        .filter(|d| d.quantity == dimmer::core::QuantityKind::SwitchState)
        .count();
    assert!(switch_devices > 0, "seed must generate some switches");

    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(120));

    let operator = sim.add_node(
        "operator",
        Operator {
            client: WsClient::new(1000),
            master: deployment.master,
            district: scenario.districts[0].district.to_string(),
            bbox: scenario.districts[0].bbox().to_query(),
            resolution: None,
            actuation_results: vec![],
            phase_resolve: None,
        },
    );
    sim.run_for(SimDuration::from_secs(30));

    let op = sim.node_ref::<Operator>(operator).unwrap();
    assert!(op.resolution.is_some());
    assert_eq!(op.actuation_results.len(), switch_devices);
    assert!(
        op.actuation_results.iter().all(WsResponse::is_ok),
        "{:?}",
        op.actuation_results
    );

    // Every targeted device physically received a downlink frame that
    // decodes as a ZigBee On/Off command.
    let mut actuated = 0;
    for &device_node in &deployment.districts[0].devices {
        let device = sim.node_ref::<UplinkDeviceNode>(device_node).unwrap();
        for frame in &device.actuations {
            let decoded =
                dimmer::protocols::zigbee::ZigbeeFrame::decode(frame).expect("valid downlink");
            assert_eq!(
                decoded.cluster,
                dimmer::protocols::zigbee::ClusterId::ON_OFF
            );
            assert_eq!(
                decoded.attributes().next().map(|a| a.value),
                Some(dimmer::protocols::zigbee::ZclValue::Bool(true))
            );
            actuated += 1;
        }
    }
    assert_eq!(actuated, switch_devices);
}
