//! Device onboarding: the paper's Fig. 1(b) walked layer by layer.
//!
//! One EnOcean temperature+humidity sensor is attached to a fresh
//! Device-proxy. The example traces a frame through the three proxy
//! layers — dedicated (ESP3/ERP1 decode), local database, Web Service +
//! publish/subscribe — and finishes with a remote actuation of a second,
//! switchable device.
//!
//! Run with `cargo run --example device_onboarding`.

use dimmer::core::{DeviceId, DistrictId, ProxyId, QuantityKind, Value};
use dimmer::master::MasterNode;
use dimmer::models::profiles::EnergyProfile;
use dimmer::protocols::device::EnoceanSensor;
use dimmer::protocols::enocean::Eep;
use dimmer::proxy::adapters::EnoceanAdapter;
use dimmer::proxy::device_proxy::{DeviceProxyConfig, DeviceProxyNode};
use dimmer::proxy::devices::UplinkDeviceNode;
use dimmer::proxy::webservice::{WsClient, WsClientEvent, WsRequest, WsResponse};
use dimmer::pubsub::{BrokerNode, PubSubClient, PubSubEvent, QoS, TopicFilter, PUBSUB_PORT};
use dimmer::simnet::{Context, Node, Packet, SimConfig, SimDuration, Simulator, TimerTag};

/// A monitoring application subscribed to every temperature in the
/// district through the middleware.
struct Monitor {
    client: PubSubClient,
    received: Vec<(String, String)>,
}

impl Node for Monitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            TopicFilter::new("district/+/entity/+/device/+/temperature").expect("valid"),
            QoS::AtLeastOnce,
        );
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port == PUBSUB_PORT {
            if let Some(PubSubEvent::Message { topic, payload, .. }) = self.client.accept(ctx, &pkt)
            {
                self.received.push((
                    topic.to_string(),
                    String::from_utf8_lossy(&payload).into_owned(),
                ));
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

/// Fires one WS request and remembers the answer.
struct Probe {
    client: WsClient,
    target: dimmer::simnet::NodeId,
    request: WsRequest,
    response: Option<WsResponse>,
}

impl Node for Probe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let request = self.request.clone();
        self.client.request(ctx, self.target, &request, ());
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

fn main() {
    let mut sim = Simulator::new(SimConfig::default());
    let district = DistrictId::new("d0").expect("valid id");
    let master = sim.add_node(
        "master",
        MasterNode::new([(district.clone(), "Demo".into())]),
    );
    let broker = sim.add_node("broker", BrokerNode::new());
    let monitor = sim.add_node(
        "monitor",
        Monitor {
            client: PubSubClient::new(broker, 100),
            received: vec![],
        },
    );

    // Layer 1 wiring: an EnOcean A5-04-01 sensor and its adapter.
    let sensor_id = 0x0180_92AB;
    let proxy = sim.add_node(
        "proxy-th",
        DeviceProxyNode::new(
            DeviceProxyConfig {
                proxy: ProxyId::new("proxy-th").expect("valid id"),
                district: district.clone(),
                entity_id: "b0".into(),
                device: DeviceId::new("th-sensor").expect("valid id"),
                primary_quantity: QuantityKind::Temperature,
                master,
                broker,
                poll_interval: None,
                retention: None,
                location: None,
                epoch_offset_millis: dimmer::district::DEFAULT_EPOCH_MILLIS,
                publish_qos: QoS::AtLeastOnce,
            },
            Box::new(EnoceanAdapter::new(sensor_id, Eep::A50401)),
        ),
    );
    let device = sim.add_node(
        "th-sensor",
        UplinkDeviceNode::new(
            Box::new(EnoceanSensor::new(sensor_id, Eep::A50401)),
            EnergyProfile::for_quantity(QuantityKind::Temperature, 7),
            proxy,
            SimDuration::from_secs(30),
            dimmer::district::DEFAULT_EPOCH_MILLIS,
        ),
    );
    sim.node_mut::<DeviceProxyNode>(proxy)
        .expect("proxy node")
        .set_device_node(device);

    // Let the sensor report for five minutes.
    sim.run_for(SimDuration::from_secs(300));

    // Layer 2: the local database filled up.
    {
        let p = sim.node_ref::<DeviceProxyNode>(proxy).expect("proxy node");
        println!(
            "dedicated layer decoded {} samples ({} decode errors)",
            p.stats().samples_ingested,
            p.stats().decode_errors
        );
        println!(
            "local database series: {:?} ({} points total)",
            p.store().series_names().collect::<Vec<_>>(),
            p.store().len()
        );
        assert!(p.is_registered(), "proxy registered on the master");
    }

    // Layer 3a: the Web Service serves translated data.
    let probe = sim.add_node(
        "probe",
        Probe {
            client: WsClient::new(1000),
            target: proxy,
            request: WsRequest::get("/latest").with_query("quantity", "temperature"),
            response: None,
        },
    );
    sim.run_for(SimDuration::from_secs(5));
    let latest = sim
        .node_ref::<Probe>(probe)
        .expect("probe node")
        .response
        .clone()
        .expect("latest answered");
    println!(
        "GET /latest -> {} {}",
        latest.status,
        dimmer::core::json::to_string(&latest.body)
    );

    // Layer 3b: the middleware delivered to the monitoring application.
    let received = &sim
        .node_ref::<Monitor>(monitor)
        .expect("monitor node")
        .received;
    println!(
        "monitor received {} temperature publications",
        received.len()
    );
    println!("  first: {} {}", received[0].0, received[0].1);
    assert!(!received.is_empty());

    // Remote actuation: a rocker switch behind a second proxy.
    let switch_id = 0x0180_92AC;
    let switch_proxy = sim.add_node(
        "proxy-switch",
        DeviceProxyNode::new(
            DeviceProxyConfig {
                proxy: ProxyId::new("proxy-switch").expect("valid id"),
                district,
                entity_id: "b0".into(),
                device: DeviceId::new("rocker").expect("valid id"),
                primary_quantity: QuantityKind::SwitchState,
                master,
                broker,
                poll_interval: None,
                retention: None,
                location: None,
                epoch_offset_millis: dimmer::district::DEFAULT_EPOCH_MILLIS,
                publish_qos: QoS::AtMostOnce,
            },
            Box::new(EnoceanAdapter::new(switch_id, Eep::F60201)),
        ),
    );
    let switch = sim.add_node(
        "rocker",
        UplinkDeviceNode::new(
            Box::new(EnoceanSensor::new(switch_id, Eep::F60201)),
            EnergyProfile::for_quantity(QuantityKind::SwitchState, 8),
            switch_proxy,
            SimDuration::from_secs(3600), // quiet device
            dimmer::district::DEFAULT_EPOCH_MILLIS,
        ),
    );
    sim.node_mut::<DeviceProxyNode>(switch_proxy)
        .expect("proxy node")
        .set_device_node(switch);
    let actuator = sim.add_node(
        "actuator",
        Probe {
            client: WsClient::new(1000),
            target: switch_proxy,
            request: WsRequest::post("/actuate", Value::object([("value", Value::from(1.0))])),
            response: None,
        },
    );
    sim.run_for(SimDuration::from_secs(5));
    let actuated = sim
        .node_ref::<Probe>(actuator)
        .expect("actuator node")
        .response
        .clone()
        .expect("actuation answered");
    let frames = &sim
        .node_ref::<UplinkDeviceNode>(switch)
        .expect("switch")
        .actuations;
    println!(
        "POST /actuate -> {} ; device received {} downlink frame(s)",
        actuated.status,
        frames.len()
    );
    assert!(actuated.is_ok());
    assert_eq!(frames.len(), 1);
    println!("ok");
}
