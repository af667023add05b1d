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

use std::collections::BTreeMap;

use dimmer_core::{DeviceId, Measurement, QuantityKind, Timestamp, Value};
use gis::geo::{BoundingBox, GeoPoint};
use protocols::ieee802154::PanId;
use proxy::adapters::DeviceAdapter;
use proxy::device_proxy::{POLL_RETRIES, POLL_TIMEOUT};
use proxy::devices::unix_millis_at;
use proxy::registry::{self, Family, Install};
use proxy::webservice::{status, WsResponse, WsServer};
use proxy::{DEVICE_UPLINK_PORT, WS_PORT};
use simnet::rpc::RequestTracker;
use simnet::{Context, Node, NodeId, Packet, Port, SimDuration, Simulator, TimerTag};
use storage::tskv::TimeSeriesStore;

use crate::deploy::placement;
use crate::scenario::{DeviceSpec, Scenario};

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
    /// The port a polled device answers on; `None` for push.
    poll_port: Option<Port>,
    device: DeviceId,
    location: GeoPoint,
}

/// The monolithic central server.
pub struct CentralServerNode {
    /// device node → its protocol adapter (the interoperability burden
    /// the distributed design pushes to the edges), in registration
    /// order.
    devices: BTreeMap<NodeId, DeviceEntry>,
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
            devices: BTreeMap::new(),
            poll_tracker: RequestTracker::new(POLL_TAGS, POLL_TIMEOUT, POLL_RETRIES),
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

    /// Takes `dev`'s adapter and poll port from its `family` row.
    fn register_device(
        &mut self,
        node: NodeId,
        dev: &DeviceSpec,
        family: &Family,
        install: &Install,
    ) {
        let entry = DeviceEntry {
            adapter: (family.adapter)(install),
            poll_port: family.poll_port(),
            device: dev.device.clone(),
            location: dev.location,
        };
        self.devices.insert(node, entry);
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
        let mut measurements = Vec::new();
        for entry in self.devices.values() {
            if !bbox.contains(&entry.location) {
                continue;
            }
            for &q in QuantityKind::all() {
                let series = format!("{}:{}", entry.device, q.as_str());
                for (t, v) in self.store.range(&series, i64::MIN, i64::MAX) {
                    let m = Measurement::new(
                        entry.device.clone(),
                        q,
                        v,
                        q.canonical_unit(),
                        Timestamp::from_unix_millis(t),
                    );
                    measurements.push(m.to_value());
                }
            }
        }
        Value::object([
            ("entities", Value::Array(entities)),
            ("measurements", Value::Array(measurements)),
        ])
    }
}

impl Node for CentralServerNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.devices.values().any(|e| e.poll_port.is_some()) {
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
            port if self
                .devices
                .get(&pkt.src)
                .is_some_and(|e| e.poll_port == Some(port)) =>
            {
                if let Some((_, body)) = self.poll_tracker.accept(&pkt) {
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
                for (&node, e) in &mut self.devices {
                    let Some(port) = e.poll_port else { continue };
                    if let Some(request) = e.adapter.poll_request() {
                        self.poll_tracker
                            .send_request(ctx, node, port, &request, ());
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
                    let family = registry::family(dev.protocol);
                    let install = dev.install(pan);
                    let name = format!("cdev-{}", dev.device);
                    let device_node =
                        family.add_device(sim, &install, placement(config, dev, name, 0, server));
                    sim.node_mut::<CentralServerNode>(server)
                        .expect("just added")
                        .register_device(device_node, dev, family, &install);
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
            self.client.request(ctx, self.server, &request, ());
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
