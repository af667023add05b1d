//! Registration on the master node: the bodies exchanged and the
//! session every proxy keeps.
//!
//! On startup every proxy POSTs `/register` on the master with a
//! [`Registration`] body; on shutdown it POSTs `/deregister`. Liveness
//! is maintained by periodic `/heartbeat` POSTs. [`MasterSession`] is
//! that state machine, embedded by the Device-proxy, the Database-proxy
//! and the streaming aggregator alike.

use dimmer_core::{CoreError, DistrictId, ProxyId, Uri, Value};
use ontology::{DeviceLeaf, EntityNode};
use simnet::{Context, NodeId, Packet, SimDuration, TimerTag};

use crate::webservice::{status, WsClient, WsClientEvent, WsRequest};

/// How often proxies heartbeat the master.
pub(crate) const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// What kind of data source a registering proxy fronts.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyRole {
    /// A Device-proxy fronting one device; the leaf goes under
    /// `entity_id` in the district tree.
    Device {
        /// The entity (building/network) the device belongs to.
        entity_id: String,
        /// The device leaf to add to the ontology.
        leaf: DeviceLeaf,
    },
    /// A Database-proxy fronting a BIM or SIM database; the entity node
    /// goes directly under the district root.
    EntityDatabase {
        /// The entity node to add to the ontology.
        entity: EntityNode,
    },
    /// A Database-proxy fronting a GIS database (registered on the
    /// district root).
    Gis,
    /// A Database-proxy fronting a measurement archive (registered on
    /// the district root).
    MeasurementArchive,
    /// A streaming aggregator serving windowed rollups (registered on
    /// the district root).
    Aggregator,
}

impl ProxyRole {
    fn kind_str(&self) -> &'static str {
        match self {
            ProxyRole::Device { .. } => "device",
            ProxyRole::EntityDatabase { .. } => "entity_database",
            ProxyRole::Gis => "gis",
            ProxyRole::MeasurementArchive => "measurement_archive",
            ProxyRole::Aggregator => "aggregator",
        }
    }
}

/// The `/register` body.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// The registering proxy.
    pub proxy: ProxyId,
    /// The district the data source belongs to.
    pub district: DistrictId,
    /// The proxy's Web-Service URI (what the master hands to clients).
    pub uri: Uri,
    /// What the proxy fronts.
    pub role: ProxyRole,
}

impl Registration {
    /// Translates to the common data format.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object([
            ("proxy", Value::from(self.proxy.as_str())),
            ("district", Value::from(self.district.as_str())),
            ("uri", Value::from(self.uri.to_string())),
            ("kind", Value::from(self.role.kind_str())),
        ]);
        match &self.role {
            ProxyRole::Device { entity_id, leaf } => {
                v.insert("entity_id", Value::from(entity_id.as_str()));
                v.insert("leaf", leaf.to_value());
            }
            ProxyRole::EntityDatabase { entity } => {
                v.insert("entity", entity.to_value());
            }
            ProxyRole::Gis | ProxyRole::MeasurementArchive | ProxyRole::Aggregator => {}
        }
        v
    }

    /// Decodes a value produced by [`Registration::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        const T: &str = "registration";
        let role = match v.require_str(T, "kind")? {
            "device" => ProxyRole::Device {
                entity_id: v.require_str(T, "entity_id")?.to_owned(),
                leaf: DeviceLeaf::from_value(v.require(T, "leaf")?)?,
            },
            "entity_database" => ProxyRole::EntityDatabase {
                entity: EntityNode::from_value(v.require(T, "entity")?)?,
            },
            "gis" => ProxyRole::Gis,
            "measurement_archive" => ProxyRole::MeasurementArchive,
            "aggregator" => ProxyRole::Aggregator,
            other => {
                return Err(CoreError::Shape {
                    target: T,
                    reason: format!("unknown proxy kind {other:?}"),
                })
            }
        };
        Ok(Registration {
            proxy: ProxyId::new(v.require_str(T, "proxy")?)?,
            district: DistrictId::new(v.require_str(T, "district")?)?,
            uri: Uri::parse(v.require_str(T, "uri")?)?,
            role,
        })
    }
}

/// The `/deregister` and `/heartbeat` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyRef {
    /// The proxy.
    pub proxy: ProxyId,
    /// Its district.
    pub district: DistrictId,
}

impl ProxyRef {
    /// Translates to the common data format.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("proxy", Value::from(self.proxy.as_str())),
            ("district", Value::from(self.district.as_str())),
        ])
    }

    /// Decodes a value produced by [`ProxyRef::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        const T: &str = "proxy ref";
        Ok(ProxyRef {
            proxy: ProxyId::new(v.require_str(T, "proxy")?)?,
            district: DistrictId::new(v.require_str(T, "district")?)?,
        })
    }
}

/// What [`MasterSession::on_packet`] made of a packet it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterReply {
    /// The master answered a registration or a heartbeat; nothing for
    /// the node to do.
    Handled,
    /// The master answered a heartbeat 404 — it evicted this proxy, or
    /// restarted and lost its registry — and `/register` went out
    /// again. The node counts it under its own metric name.
    Reregistered,
}

/// A proxy's session with the master: register on start, heartbeat
/// every `HEARTBEAT_INTERVAL`, register again when a heartbeat is
/// answered 404 or the registration was never acknowledged.
///
/// The embedding node calls [`start`](Self::start) from `on_start`,
/// [`reset`](Self::reset) from `on_restart` (before `on_start`), offers
/// every Web-Service packet to [`on_packet`](Self::on_packet) first and
/// routes the timers it does not own to [`on_timer`](Self::on_timer).
#[derive(Debug)]
pub struct MasterSession {
    master: NodeId,
    heartbeat_tag: TimerTag,
    ws_client: WsClient,
    /// What this proxy registers as; known once the node has an id.
    registration: Option<Registration>,
    /// The `/heartbeat` request, built once by [`start`](Self::start)
    /// and resent on every tick.
    heartbeat: Option<WsRequest>,
    registered: bool,
    /// Correlation id of the in-flight heartbeat, so a 404 answer can
    /// trigger re-registration.
    heartbeat_req: Option<u64>,
}

impl MasterSession {
    /// A session with `master` whose heartbeat timer is `heartbeat_tag`
    /// and whose request timers use tags from `ws_client_tags` up.
    pub fn new(master: NodeId, heartbeat_tag: TimerTag, ws_client_tags: u64) -> Self {
        MasterSession {
            master,
            heartbeat_tag,
            ws_client: WsClient::new(ws_client_tags),
            registration: None,
            heartbeat: None,
            registered: false,
            heartbeat_req: None,
        }
    }

    /// Whether the master has acknowledged registration.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Registers as `registration` and arms the heartbeat.
    pub fn start(&mut self, ctx: &mut Context<'_>, registration: Registration) {
        let body = ProxyRef {
            proxy: registration.proxy.clone(),
            district: registration.district.clone(),
        }
        .to_value();
        self.heartbeat = Some(WsRequest::post("/heartbeat", body));
        self.registration = Some(registration);
        self.register(ctx);
        ctx.set_timer(HEARTBEAT_INTERVAL, self.heartbeat_tag);
    }

    /// Forgets the registration and every in-flight request (the crash
    /// already cancelled the timers).
    pub fn reset(&mut self) {
        self.ws_client.reset();
        self.registered = false;
        self.heartbeat_req = None;
    }

    fn registration(&self) -> &Registration {
        self.registration
            .as_ref()
            .expect("start() runs before any timer or response")
    }

    fn register(&mut self, ctx: &mut Context<'_>) {
        let request = WsRequest::post("/register", self.registration().to_value());
        self.ws_client.request(ctx, self.master, &request, ());
    }

    /// Feeds a packet from the Web-Service port; `None` means it is not
    /// an answer from the master (so it may be a client request).
    pub fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: &Packet) -> Option<MasterReply> {
        let WsClientEvent::Response { settled, response } = self.ws_client.accept(pkt)? else {
            return Some(MasterReply::Handled);
        };
        if self.heartbeat_req == Some(settled.id) {
            self.heartbeat_req = None;
            if response.status == status::NOT_FOUND {
                self.registered = false;
                self.register(ctx);
                return Some(MasterReply::Reregistered);
            }
        } else if response.is_ok() {
            self.registered = true;
        }
        Some(MasterReply::Handled)
    }

    /// Feeds a fired timer: the heartbeat, or a request timeout. Tags
    /// the session does not own are ignored.
    pub fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == self.heartbeat_tag {
            if self.registered {
                let request = self
                    .heartbeat
                    .as_ref()
                    .expect("start() runs before any timer");
                let id = self.ws_client.request(ctx, self.master, request, ());
                self.heartbeat_req = Some(id);
            } else {
                // The registration response never came: retry now.
                self.register(ctx);
            }
            ctx.set_timer(HEARTBEAT_INTERVAL, self.heartbeat_tag);
        } else if let Some(WsClientEvent::TimedOut(settled)) = self.ws_client.on_timer(ctx, tag) {
            if self.heartbeat_req == Some(settled.id) {
                self.heartbeat_req = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::webservice::{WsCall, WsResponse, WsServer};
    use dimmer_core::{BuildingId, DeviceId, QuantityKind};
    use simnet::{Node, SimConfig, Simulator};
    use std::collections::VecDeque;

    fn uri(s: &str) -> Uri {
        Uri::parse(s).unwrap()
    }

    #[test]
    fn device_registration_round_trip() {
        let reg = Registration {
            proxy: ProxyId::new("p1").unwrap(),
            district: DistrictId::new("d1").unwrap(),
            uri: uri("sim://n9/"),
            role: ProxyRole::Device {
                entity_id: "b1".into(),
                leaf: DeviceLeaf::new(
                    DeviceId::new("dev1").unwrap(),
                    "zigbee",
                    QuantityKind::Temperature,
                    uri("sim://n9/data"),
                ),
            },
        };
        assert_eq!(Registration::from_value(&reg.to_value()).unwrap(), reg);
    }

    #[test]
    fn database_registrations_round_trip() {
        for role in [
            ProxyRole::EntityDatabase {
                entity: EntityNode::building(BuildingId::new("b1").unwrap(), uri("sim://n3/model")),
            },
            ProxyRole::Gis,
            ProxyRole::MeasurementArchive,
            ProxyRole::Aggregator,
        ] {
            let reg = Registration {
                proxy: ProxyId::new("p2").unwrap(),
                district: DistrictId::new("d1").unwrap(),
                uri: uri("sim://n3/"),
                role,
            };
            assert_eq!(Registration::from_value(&reg.to_value()).unwrap(), reg);
        }
    }

    #[test]
    fn proxy_ref_round_trip() {
        let r = ProxyRef {
            proxy: ProxyId::new("p1").unwrap(),
            district: DistrictId::new("d1").unwrap(),
        };
        assert_eq!(ProxyRef::from_value(&r.to_value()).unwrap(), r);
    }

    #[test]
    fn malformed_rejected() {
        assert!(Registration::from_value(&Value::Null).is_err());
        let mut v = ProxyRef {
            proxy: ProxyId::new("p").unwrap(),
            district: DistrictId::new("d").unwrap(),
        }
        .to_value();
        v.insert("proxy", Value::from("bad id!"));
        assert!(ProxyRef::from_value(&v).is_err());
    }

    /// A stand-in master: acknowledges `/register` at once and answers
    /// each `/heartbeat` with `heartbeat_status` after `heartbeat_delay`.
    struct ScriptedMaster {
        ws: WsServer,
        heartbeat_status: u16,
        heartbeat_delay: SimDuration,
        held: VecDeque<WsCall>,
        registers: u32,
    }

    impl Node for ScriptedMaster {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            let Some(call) = self.ws.accept(ctx, &pkt) else {
                return;
            };
            if call.request.path.as_str() == "/register" {
                self.registers += 1;
                self.ws.respond(ctx, &call, WsResponse::ok(Value::Null));
            } else {
                self.held.push_back(call);
                ctx.set_timer(self.heartbeat_delay, TimerTag(0));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: TimerTag) {
            let call = self.held.pop_front().expect("one timer per held call");
            let response = if self.heartbeat_status == status::OK {
                WsResponse::ok(Value::Null)
            } else {
                WsResponse::error(self.heartbeat_status, "unknown proxy")
            };
            self.ws.respond(ctx, &call, response);
        }
    }

    struct Proxy {
        session: MasterSession,
        reregistered: u32,
    }

    impl Node for Proxy {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let registration = Registration {
                proxy: ProxyId::new("p1").unwrap(),
                district: DistrictId::new("d1").unwrap(),
                uri: crate::node_uri(ctx.node_id(), "/"),
                role: ProxyRole::Gis,
            };
            self.session.start(ctx, registration);
        }

        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            if self.session.on_packet(ctx, &pkt) == Some(MasterReply::Reregistered) {
                self.reregistered += 1;
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            self.session.on_timer(ctx, tag);
        }
    }

    /// A proxy registered on a master that answers heartbeats with
    /// `heartbeat_status` after `heartbeat_delay`; returns (sim, master,
    /// proxy) one second in, registration acknowledged.
    fn registered_pair(
        heartbeat_status: u16,
        heartbeat_delay: SimDuration,
    ) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let master = sim.add_node(
            "master",
            ScriptedMaster {
                ws: WsServer::new(),
                heartbeat_status,
                heartbeat_delay,
                held: VecDeque::new(),
                registers: 0,
            },
        );
        let proxy = sim.add_node(
            "proxy",
            Proxy {
                session: MasterSession::new(master, TimerTag(1), 1_000),
                reregistered: 0,
            },
        );
        sim.run_for(SimDuration::from_secs(1));
        assert!(session(&sim, proxy).is_registered());
        (sim, master, proxy)
    }

    fn session(sim: &Simulator, proxy: NodeId) -> &MasterSession {
        &sim.node_ref::<Proxy>(proxy).unwrap().session
    }

    #[test]
    fn heartbeat_404_reregisters_once() {
        let (mut sim, master, proxy) =
            registered_pair(status::NOT_FOUND, SimDuration::from_millis(1));
        sim.run_for(HEARTBEAT_INTERVAL);
        assert_eq!(sim.node_ref::<Proxy>(proxy).unwrap().reregistered, 1);
        assert_eq!(sim.node_ref::<ScriptedMaster>(master).unwrap().registers, 2);
        assert!(session(&sim, proxy).is_registered());
        assert_eq!(session(&sim, proxy).heartbeat_req, None);
    }

    #[test]
    fn timeout_clears_the_heartbeat_id() {
        let (mut sim, _, proxy) = registered_pair(status::OK, SimDuration::from_hours(1));
        sim.run_for(HEARTBEAT_INTERVAL);
        assert!(session(&sim, proxy).heartbeat_req.is_some());
        // Three attempts, REQUEST_TIMEOUT apart, none answered.
        sim.run_for(SimDuration::from_secs(9));
        assert_eq!(session(&sim, proxy).heartbeat_req, None);
        assert!(session(&sim, proxy).is_registered());
    }

    #[test]
    fn a_404_to_a_stale_heartbeat_id_is_ignored() {
        // The 404s arrive a second after the heartbeat gave up.
        let (mut sim, master, proxy) =
            registered_pair(status::NOT_FOUND, SimDuration::from_secs(10));
        sim.run_for(HEARTBEAT_INTERVAL + SimDuration::from_secs(20));
        assert_eq!(sim.node_ref::<Proxy>(proxy).unwrap().reregistered, 0);
        assert_eq!(sim.node_ref::<ScriptedMaster>(master).unwrap().registers, 1);
        assert!(session(&sim, proxy).is_registered());
    }

    #[test]
    fn reset_forgets_registration() {
        let (mut sim, master, proxy) = registered_pair(status::OK, SimDuration::from_millis(1));
        sim.node_mut::<Proxy>(proxy).unwrap().session.reset();
        assert!(!session(&sim, proxy).is_registered());
        // Unregistered at the next heartbeat tick, it registers again.
        sim.run_for(HEARTBEAT_INTERVAL);
        assert_eq!(sim.node_ref::<ScriptedMaster>(master).unwrap().registers, 2);
        assert!(session(&sim, proxy).is_registered());
    }
}
