//! The centralized baseline architecture.
//!
//! The paper argues that "the union of different databases into a single
//! one is usually not feasible" and that a central point would have to
//! understand every format itself. This module builds exactly that
//! strawman so experiments can quantify it: one [`CentralServerNode`]
//! that (i) receives **raw protocol frames** from every device and must
//! keep a per-device protocol adapter, (ii) stores everything in one
//! database, (iii) holds every BIM/SIM/GIS model, and (iv) answers area
//! queries by returning **all the data inline** — concentrating both the
//! interoperability burden and the traffic in one node.

use std::collections::HashMap;

use dimmer_core::{DeviceId, Measurement, MeasurementBatch, QuantityKind, Timestamp, Value};
use gis::geo::{BoundingBox, GeoPoint};
use models::profiles::EnergyProfile;
use protocols::device::{
    CoapFieldServer, EnoceanSensor, Ieee802154Sensor, OpcUaFieldServer, ZigbeeSensor,
};
use protocols::enocean::Eep;
use protocols::ieee802154::PanId;
use protocols::ProtocolKind;
use proxy::adapters::{
    CoapAdapter, DeviceAdapter, EnoceanAdapter, Ieee802154Adapter, OpcUaAdapter, ZigbeeAdapter,
};
use proxy::devices::{unix_millis_at, CoapFieldNode, OpcUaFieldNode, UplinkDeviceNode};
use proxy::webservice::{status, WsResponse, WsServer};
use proxy::{DEVICE_UPLINK_PORT, OPCUA_PORT, WS_PORT};
use simnet::rpc::{RequestTracker, RpcEvent};
use simnet::{Context, Node, NodeId, Packet, SimDuration, Simulator, TimerTag};
use storage::tskv::TimeSeriesStore;

use crate::scenario::Scenario;

const TAG_POLL: TimerTag = TimerTag(1);
const POLL_TAGS: u64 = 3_000_000_000;

/// Counters of the central server.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralStats {
    /// Raw frames decoded.
    pub(crate) frames_decoded: u64,
    /// Frames that failed decoding.
    pub decode_errors: u64,
    /// Samples stored.
    pub(crate) samples: u64,
    /// Area queries answered.
    pub(crate) queries: u64,
}

struct DeviceEntry {
    adapter: Box<dyn DeviceAdapter>,
    device: DeviceId,
    location: GeoPoint,
}

/// The monolithic central server.
pub struct CentralServerNode {
    /// device node → its protocol adapter (the interoperability burden
    /// the distributed design pushes to the edges).
    devices: HashMap<NodeId, DeviceEntry>,
    /// Polled (OPC UA) device nodes.
    polled: Vec<NodeId>,
    poll_tracker: RequestTracker,
    poll_interval: SimDuration,
    store: TimeSeriesStore,
    /// entity id → (location, translated model) — preloaded, the "union
    /// database".
    entities: Vec<(String, GeoPoint, Value)>,
    ws: WsServer,
    epoch_offset_millis: i64,
    stats: CentralStats,
}

impl std::fmt::Debug for CentralServerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CentralServerNode")
            .field("devices", &self.devices.len())
            .field("entities", &self.entities.len())
            .field("samples", &self.stats.samples)
            .finish()
    }
}

impl CentralServerNode {
    /// Creates an empty central server.
    pub(crate) fn new(poll_interval: SimDuration, epoch_offset_millis: i64) -> Self {
        CentralServerNode {
            devices: HashMap::new(),
            polled: Vec::new(),
            poll_tracker: RequestTracker::new(POLL_TAGS),
            poll_interval,
            store: TimeSeriesStore::new(),
            entities: Vec::new(),
            ws: WsServer::new(),
            epoch_offset_millis,
            stats: CentralStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> CentralStats {
        self.stats
    }

    fn register_device(
        &mut self,
        node: NodeId,
        device: DeviceId,
        location: GeoPoint,
        adapter: Box<dyn DeviceAdapter>,
        polled: bool,
    ) {
        if polled {
            self.polled.push(node);
        }
        self.devices.insert(
            node,
            DeviceEntry {
                adapter,
                device,
                location,
            },
        );
    }

    fn add_entity(&mut self, id: String, location: GeoPoint, model: Value) {
        self.entities.push((id, location, model));
    }

    fn ingest(&mut self, from: NodeId, samples: Vec<(QuantityKind, f64)>, unix: i64) {
        let Some(entry) = self.devices.get(&from) else {
            return;
        };
        for (quantity, value) in samples {
            self.store.insert(
                &format!("{}:{}", entry.device, quantity.as_str()),
                unix,
                value,
            );
            self.stats.samples += 1;
        }
    }

    fn area(&self, bbox: &BoundingBox) -> Value {
        let entities: Vec<Value> = self
            .entities
            .iter()
            .filter(|(_, loc, _)| bbox.contains(loc))
            .map(|(id, _, model)| {
                Value::object([("id", Value::from(id.as_str())), ("model", model.clone())])
            })
            .collect();
        let mut batch = MeasurementBatch::new();
        for entry in self.devices.values() {
            if !bbox.contains(&entry.location) {
                continue;
            }
            for &q in QuantityKind::all() {
                let series = format!("{}:{}", entry.device, q.as_str());
                for (t, v) in self.store.range(&series, i64::MIN, i64::MAX) {
                    batch.push(Measurement::new(
                        entry.device.clone(),
                        q,
                        v,
                        q.canonical_unit(),
                        Timestamp::from_unix_millis(t),
                    ));
                }
            }
        }
        Value::object([
            ("entities", Value::Array(entities)),
            (
                "measurements",
                batch
                    .to_value()
                    .get("measurements")
                    .cloned()
                    .unwrap_or(Value::Array(vec![])),
            ),
        ])
    }
}

impl Node for CentralServerNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if !self.polled.is_empty() {
            ctx.set_timer(self.poll_interval, TAG_POLL);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match pkt.port {
            DEVICE_UPLINK_PORT => {
                let unix = unix_millis_at(self.epoch_offset_millis, ctx.now());
                let decoded = self
                    .devices
                    .get_mut(&pkt.src)
                    .map(|entry| entry.adapter.decode_uplink(&pkt.payload));
                match decoded {
                    Some(Ok(samples)) => {
                        self.stats.frames_decoded += 1;
                        self.ingest(pkt.src, samples, unix);
                    }
                    Some(Err(_)) => self.stats.decode_errors += 1,
                    None => {}
                }
            }
            OPCUA_PORT | proxy::COAP_PORT => {
                if let Some(RpcEvent::ResponseReceived { body, .. }) =
                    self.poll_tracker.accept(&pkt)
                {
                    let unix = unix_millis_at(self.epoch_offset_millis, ctx.now());
                    let decoded = self
                        .devices
                        .get_mut(&pkt.src)
                        .map(|entry| entry.adapter.decode_poll(body));
                    match decoded {
                        Some(Ok(samples)) => {
                            self.stats.frames_decoded += 1;
                            self.ingest(pkt.src, samples, unix);
                        }
                        Some(Err(_)) => self.stats.decode_errors += 1,
                        None => {}
                    }
                }
            }
            WS_PORT => {
                if let Some(call) = self.ws.accept(ctx, &pkt) {
                    let response = match call.request.path.as_str() {
                        "/area" => match call.request.query("bbox").map(BoundingBox::parse_query) {
                            Some(Ok(bbox)) => {
                                self.stats.queries += 1;
                                WsResponse::ok(self.area(&bbox))
                            }
                            Some(Err(e)) => WsResponse::error(status::BAD_REQUEST, e.to_string()),
                            None => {
                                WsResponse::error(status::BAD_REQUEST, "bbox parameter required")
                            }
                        },
                        _ => WsResponse::error(status::NOT_FOUND, "unknown path"),
                    };
                    self.ws.respond(ctx, &call, response);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        match tag {
            TAG_POLL => {
                let polled = self.polled.clone();
                for node in polled {
                    if let Some((request, port)) = self.devices.get_mut(&node).and_then(|e| {
                        e.adapter
                            .poll_request()
                            .map(|request| (request, e.adapter.poll_port()))
                    }) {
                        self.poll_tracker.send_request(
                            ctx,
                            node,
                            port,
                            request,
                            SimDuration::from_secs(2),
                            1,
                        );
                    }
                }
                ctx.set_timer(self.poll_interval, TAG_POLL);
            }
            tag if tag.0 >= POLL_TAGS => {
                self.poll_tracker.on_timer(ctx, tag);
            }
            _ => {}
        }
    }
}

/// A deployed centralized scenario.
#[derive(Debug, Clone)]
pub struct CentralDeployment {
    /// The central server.
    pub server: NodeId,
    /// The device nodes.
    pub devices: Vec<NodeId>,
}

impl CentralDeployment {
    /// Instantiates the centralized counterpart of `scenario` on `sim`:
    /// the same devices and models, but one server instead of the proxy
    /// mesh.
    pub fn build(sim: &mut Simulator, scenario: &Scenario) -> CentralDeployment {
        let config = &scenario.config;
        let server = sim.add_node(
            "central",
            CentralServerNode::new(config.sample_interval, config.epoch_offset_millis),
        );
        let mut devices = Vec::new();
        for district in &scenario.districts {
            // Preload every model into the union database.
            for b in &district.buildings {
                let model = b.bim.to_value();
                sim.node_mut::<CentralServerNode>(server)
                    .expect("just added")
                    .add_entity(b.building.as_str().to_owned(), b.location, model);
            }
            for n in &district.networks {
                let model = n.model.to_value();
                sim.node_mut::<CentralServerNode>(server)
                    .expect("just added")
                    .add_entity(n.network.as_str().to_owned(), n.location, model);
            }
            let pan = PanId(0x2400);
            for b in &district.buildings {
                for dev in &b.devices {
                    let profile = EnergyProfile::for_quantity(
                        dev.quantity,
                        config.seed ^ u64::from(dev.address),
                    );
                    let (adapter, device_node, polled): (Box<dyn DeviceAdapter>, NodeId, bool) =
                        match dev.protocol {
                            ProtocolKind::Ieee802154 => (
                                Box::new(Ieee802154Adapter::new(pan, dev.address as u16)),
                                sim.add_node(
                                    format!("cdev-{}", dev.device),
                                    UplinkDeviceNode::new(
                                        Box::new(Ieee802154Sensor::new(
                                            pan,
                                            dev.address as u16,
                                            dev.quantity,
                                        )),
                                        profile,
                                        server,
                                        config.sample_interval,
                                        config.epoch_offset_millis,
                                    ),
                                ),
                                false,
                            ),
                            ProtocolKind::Zigbee => (
                                Box::new(ZigbeeAdapter::new(dev.address as u16)),
                                sim.add_node(
                                    format!("cdev-{}", dev.device),
                                    UplinkDeviceNode::new(
                                        Box::new(ZigbeeSensor::new(
                                            dev.address as u16,
                                            dev.quantity,
                                        )),
                                        profile,
                                        server,
                                        config.sample_interval,
                                        config.epoch_offset_millis,
                                    ),
                                ),
                                false,
                            ),
                            ProtocolKind::EnOcean => {
                                let eep = dev.eep.unwrap_or(Eep::A50205);
                                (
                                    Box::new(EnoceanAdapter::new(dev.address, eep)),
                                    sim.add_node(
                                        format!("cdev-{}", dev.device),
                                        UplinkDeviceNode::new(
                                            Box::new(EnoceanSensor::new(dev.address, eep)),
                                            profile,
                                            server,
                                            config.sample_interval,
                                            config.epoch_offset_millis,
                                        ),
                                    ),
                                    false,
                                )
                            }
                            ProtocolKind::OpcUa => {
                                let field = OpcUaFieldServer::new(dev.quantity);
                                let adapter =
                                    OpcUaAdapter::new(field.value_node().clone(), dev.quantity);
                                (
                                    Box::new(adapter),
                                    sim.add_node(
                                        format!("cdev-{}", dev.device),
                                        OpcUaFieldNode::new(
                                            field,
                                            profile,
                                            config.sample_interval,
                                            config.epoch_offset_millis,
                                        ),
                                    ),
                                    true,
                                )
                            }
                            ProtocolKind::Coap => (
                                Box::new(CoapAdapter::new(dev.quantity)),
                                sim.add_node(
                                    format!("cdev-{}", dev.device),
                                    CoapFieldNode::new(
                                        CoapFieldServer::new(dev.quantity),
                                        profile,
                                        config.sample_interval,
                                        config.epoch_offset_millis,
                                    ),
                                ),
                                true,
                            ),
                        };
                    sim.node_mut::<CentralServerNode>(server)
                        .expect("just added")
                        .register_device(
                            device_node,
                            dev.device.clone(),
                            dev.location,
                            adapter,
                            polled,
                        );
                    devices.push(device_node);
                }
            }
        }
        CentralDeployment { server, devices }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use proxy::webservice::{WsClient, WsClientEvent, WsRequest};
    use simnet::SimConfig;

    struct OneShot {
        client: WsClient,
        server: NodeId,
        request: WsRequest,
        response: Option<WsResponse>,
    }

    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let request = self.request.clone();
            self.client.request(ctx, self.server, &request);
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

    #[test]
    fn central_server_ingests_and_serves() {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = CentralDeployment::build(&mut sim, &scenario);
        sim.run_for(SimDuration::from_secs(600));

        let server = sim
            .node_ref::<CentralServerNode>(deployment.server)
            .unwrap();
        assert!(server.stats().samples > 50, "{:?}", server.stats());
        assert_eq!(server.stats().decode_errors, 0);

        let bbox = scenario.districts[0].bbox();
        let probe = sim.add_node(
            "probe",
            OneShot {
                client: WsClient::new(1000),
                server: deployment.server,
                request: WsRequest::get("/area").with_query("bbox", bbox.to_query()),
                response: None,
            },
        );
        sim.run_for(SimDuration::from_secs(30));
        let response = sim
            .node_ref::<OneShot>(probe)
            .unwrap()
            .response
            .clone()
            .expect("central answered");
        assert!(response.is_ok());
        let entities = response.body.require_array("t", "entities").unwrap();
        assert_eq!(entities.len(), 5, "4 buildings + 1 network in the box");
        let measurements = response.body.require_array("t", "measurements").unwrap();
        assert!(measurements.len() > 50);
    }
}
