//! The Database-proxy: translation of one legacy database to the common
//! data format.
//!
//! "Database-proxies are necessary to translate different databases,
//! each one encoded differently from the others, to a common data
//! format." Each proxy wraps one [`SourceTranslator`] — BIM tables, a
//! SIM fixed-width dump, a GIS feature database or a CSV measurement
//! archive — and serves:
//!
//! * `GET /model` — the full source translated to the common format;
//! * `GET /query?...` — source-specific filtered retrieval.

use std::cell::OnceCell;

use dimmer_core::codec::DataFormat;
use dimmer_core::{DistrictId, Measurement, MeasurementBatch, ProxyId, Value};
use gis::feature::GisDatabase;
use gis::geo::{BoundingBox, GeoPoint};
use models::bim::{BimTables, BuildingModel};
use models::simmodel::NetworkModel;
use ontology::EntityNode;
use simnet::overload::{Admission, AdmissionGate};
use simnet::{Context, Node, Packet, TimerTag};
use storage::legacy::csv::CsvDocument;

use crate::registration::{MasterReply, MasterSession, ProxyRole, Registration};
use crate::webservice::{status, WsRequest, WsResponse, WsServer};
use crate::{node_uri, WS_PORT};

const TAG_HEARTBEAT: TimerTag = TimerTag(3);
const WS_CLIENT_TAGS: u64 = 1_000_000_000;

/// Translates one legacy source into the common data format.
pub trait SourceTranslator: std::fmt::Debug + Send + 'static {
    /// The registration role this source plays (and the ontology payload
    /// it contributes). `proxy_uri` is the proxy's own Web-Service URI.
    fn role(&self, proxy_uri: &dimmer_core::Uri) -> ProxyRole;

    /// Translates the whole source.
    fn model(&self) -> Value;

    /// Answers a filtered query.
    fn query(&self, request: &WsRequest) -> WsResponse;
}

/// BIM source: the three relational tables of one building's export.
#[derive(Debug)]
pub struct BimSource {
    model: BuildingModel,
    tables: BimTables,
    location: Option<GeoPoint>,
    gis_feature: Option<String>,
}

impl BimSource {
    /// Wraps a BIM database dump.
    ///
    /// # Errors
    ///
    /// Returns an error when the tables cannot be reassembled into a
    /// building model (the translation the proxy exists to perform).
    pub fn new(tables: BimTables) -> Result<Self, Box<dyn std::error::Error>> {
        let model = BuildingModel::from_tables(&tables)?;
        Ok(BimSource {
            model,
            tables,
            location: None,
            gis_feature: None,
        })
    }

    /// Sets the building location for ontology registration.
    pub fn with_location(mut self, location: GeoPoint) -> Self {
        self.location = Some(location);
        self
    }

    /// Sets the GIS feature mapping for ontology registration.
    pub fn with_gis_feature(mut self, feature: impl Into<String>) -> Self {
        self.gis_feature = Some(feature.into());
        self
    }
}

impl SourceTranslator for BimSource {
    fn role(&self, proxy_uri: &dimmer_core::Uri) -> ProxyRole {
        let mut entity = EntityNode::building(self.model.building().clone(), proxy_uri.clone());
        if let Some(loc) = self.location {
            entity = entity.with_location(loc);
        }
        if let Some(feat) = &self.gis_feature {
            entity = entity.with_gis_feature(feat.clone());
        }
        entity = entity.with_properties(Value::object([
            (
                "floor_area_m2",
                Value::from(self.model.total_floor_area_m2()),
            ),
            (
                "heat_loss_w_per_k",
                Value::from(self.model.heat_loss_w_per_k()),
            ),
        ]));
        ProxyRole::EntityDatabase { entity }
    }

    fn model(&self) -> Value {
        self.model.to_value()
    }

    fn query(&self, request: &WsRequest) -> WsResponse {
        match request.query("table") {
            Some("spaces") => WsResponse::ok(self.tables.spaces.to_value()),
            Some("envelope") => WsResponse::ok(self.tables.envelope.to_value()),
            Some("equipment") => WsResponse::ok(self.tables.equipment.to_value()),
            Some(other) => WsResponse::error(status::NOT_FOUND, format!("unknown table {other:?}")),
            None => WsResponse::error(status::BAD_REQUEST, "table parameter required"),
        }
    }
}

/// SIM source: a fixed-width legacy dump of one distribution network.
#[derive(Debug)]
pub struct SimSource {
    model: NetworkModel,
    location: Option<GeoPoint>,
}

impl SimSource {
    /// Parses a legacy SIM dump.
    ///
    /// # Errors
    ///
    /// Returns an error when the dump does not parse.
    pub fn new(legacy_text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(SimSource {
            model: NetworkModel::from_legacy(legacy_text)?,
            location: None,
        })
    }

    /// Sets the network's reference location for ontology registration.
    pub fn with_location(mut self, location: GeoPoint) -> Self {
        self.location = Some(location);
        self
    }
}

impl SourceTranslator for SimSource {
    fn role(&self, proxy_uri: &dimmer_core::Uri) -> ProxyRole {
        let mut entity = EntityNode::network(self.model.network().clone(), proxy_uri.clone());
        if let Some(loc) = self.location {
            entity = entity.with_location(loc);
        }
        entity = entity.with_properties(Value::object([
            ("kind", Value::from(self.model.kind().as_str())),
            ("total_demand_kw", Value::from(self.model.total_demand_kw())),
        ]));
        ProxyRole::EntityDatabase { entity }
    }

    fn model(&self) -> Value {
        self.model.to_value()
    }

    fn query(&self, request: &WsRequest) -> WsResponse {
        match request.query("view") {
            Some("efficiency") => {
                let eff = self.model.delivery_efficiency();
                WsResponse::ok(Value::object(
                    eff.into_iter().map(|(k, v)| (k, Value::from(v))),
                ))
            }
            Some("unreachable") => WsResponse::ok(Value::Array(
                self.model
                    .unreachable_from_supply()
                    .into_iter()
                    .map(Value::from)
                    .collect(),
            )),
            Some(other) => WsResponse::error(status::NOT_FOUND, format!("unknown view {other:?}")),
            None => WsResponse::error(status::BAD_REQUEST, "view parameter required"),
        }
    }
}

/// GIS source: a georeferenced feature database.
#[derive(Debug)]
pub struct GisSource {
    db: GisDatabase,
}

impl GisSource {
    /// Wraps a GIS database.
    pub fn new(db: GisDatabase) -> Self {
        GisSource { db }
    }
}

impl SourceTranslator for GisSource {
    fn role(&self, _proxy_uri: &dimmer_core::Uri) -> ProxyRole {
        ProxyRole::Gis
    }

    fn model(&self) -> Value {
        self.db.to_value()
    }

    fn query(&self, request: &WsRequest) -> WsResponse {
        match request.query("bbox") {
            Some(raw) => match BoundingBox::parse_query(raw) {
                Ok(bbox) => WsResponse::ok(Value::object([(
                    "features",
                    Value::Array(
                        self.db
                            .query_bbox(&bbox)
                            .into_iter()
                            .map(gis::feature::Feature::to_value)
                            .collect(),
                    ),
                )])),
                Err(e) => WsResponse::error(status::BAD_REQUEST, e.to_string()),
            },
            None => match request.query("id") {
                Some(id) => match self.db.get(id) {
                    Some(f) => WsResponse::ok(f.to_value()),
                    None => WsResponse::error(status::NOT_FOUND, "unknown feature"),
                },
                None => WsResponse::error(status::BAD_REQUEST, "bbox or id parameter required"),
            },
        }
    }
}

/// Measurement-archive source: a CSV export of historical samples with
/// columns `timestamp,device,quantity,value,unit`.
#[derive(Debug)]
pub struct MeasurementArchiveSource {
    batch: MeasurementBatch,
}

impl MeasurementArchiveSource {
    /// Parses a CSV archive.
    ///
    /// # Errors
    ///
    /// Returns an error when the CSV or any record is malformed.
    pub fn new(csv_text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let doc = CsvDocument::parse(csv_text)?;
        let need = |name: &str| -> Result<usize, Box<dyn std::error::Error>> {
            doc.column(name)
                .ok_or_else(|| format!("archive is missing column {name:?}").into())
        };
        let (t, d, q, v, u) = (
            need("timestamp")?,
            need("device")?,
            need("quantity")?,
            need("value")?,
            need("unit")?,
        );
        let mut batch = MeasurementBatch::new();
        for rec in &doc.records {
            batch.push(Measurement::new(
                dimmer_core::DeviceId::new(rec[d].as_str())?,
                dimmer_core::QuantityKind::parse(&rec[q])?,
                rec[v].parse()?,
                dimmer_core::Unit::parse(&rec[u])?,
                dimmer_core::Timestamp::parse(&rec[t])?,
            ));
        }
        Ok(MeasurementArchiveSource { batch })
    }
}

impl SourceTranslator for MeasurementArchiveSource {
    fn role(&self, _proxy_uri: &dimmer_core::Uri) -> ProxyRole {
        ProxyRole::MeasurementArchive
    }

    fn model(&self) -> Value {
        self.batch.to_value()
    }

    fn query(&self, request: &WsRequest) -> WsResponse {
        let device = request.query("device");
        let quantity = request
            .query("quantity")
            .and_then(|q| dimmer_core::QuantityKind::parse(q).ok());
        let filtered: MeasurementBatch = self
            .batch
            .iter()
            .filter(|m| device.is_none_or(|d| m.device().as_str() == d))
            .filter(|m| quantity.is_none_or(|q| m.quantity() == q))
            .cloned()
            .collect();
        WsResponse::ok(filtered.to_value())
    }
}

/// Ingestion/serving counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct DatabaseProxyStats {
    /// Web-Service requests served.
    pub ws_requests: u64,
    /// Queries (`/model`, `/query`) shed by the admission gate.
    pub(crate) ws_shed: u64,
}

/// Default admission bound on queued queries (`/model`, `/query`).
pub(crate) const DEFAULT_ADMISSION_CAPACITY: u64 = 32;
/// Default sustained query service rate (queries per second).
pub(crate) const DEFAULT_ADMISSION_RATE: f64 = 200.0;

/// The Database-proxy node.
pub struct DatabaseProxyNode {
    proxy: ProxyId,
    district: DistrictId,
    master: MasterSession,
    source: Box<dyn SourceTranslator>,
    ws: WsServer,
    /// Admission gate over the query paths; the ops plane is never shed.
    gate: AdmissionGate,
    stats: DatabaseProxyStats,
    /// The serialized `/model` response, JSON then XML, each translated
    /// and encoded on the first request for its format. Nothing
    /// invalidates them because nothing can change the source: it sits
    /// behind `&self` methods for the node's whole life (a `&mut self`
    /// method on [`SourceTranslator`] is what would need to clear them).
    model_responses: [OnceCell<Vec<u8>>; 2],
}

impl std::fmt::Debug for DatabaseProxyNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatabaseProxyNode")
            .field("proxy", &self.proxy)
            .field("district", &self.district)
            .field("registered", &self.master.is_registered())
            .finish()
    }
}

impl DatabaseProxyNode {
    /// Creates a Database-proxy over `source`, registering on `master`.
    pub fn new(
        proxy: ProxyId,
        district: DistrictId,
        master: simnet::NodeId,
        source: Box<dyn SourceTranslator>,
    ) -> Self {
        DatabaseProxyNode {
            proxy,
            district,
            master: MasterSession::new(master, TAG_HEARTBEAT, WS_CLIENT_TAGS),
            source,
            ws: WsServer::new(),
            gate: AdmissionGate::new(DEFAULT_ADMISSION_CAPACITY, DEFAULT_ADMISSION_RATE),
            stats: DatabaseProxyStats::default(),
            model_responses: Default::default(),
        }
    }

    /// Whether the master acknowledged registration.
    pub fn is_registered(&self) -> bool {
        self.master.is_registered()
    }

    /// The serialized `GET /model` response in `format`.
    fn model_response(&self, format: DataFormat) -> &[u8] {
        let slot = match format {
            DataFormat::Json => &self.model_responses[0],
            DataFormat::Xml => &self.model_responses[1],
        };
        slot.get_or_init(|| WsResponse::ok(self.source.model()).to_bytes(format))
    }
}

impl Node for DatabaseProxyNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let registration = Registration {
            proxy: self.proxy.clone(),
            district: self.district.clone(),
            uri: node_uri(ctx.node_id(), "/"),
            role: self.source.role(&node_uri(ctx.node_id(), "/model")),
        };
        self.master.start(ctx, registration);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // The source model is durable; the WS session and registration
        // are not. Re-register from scratch.
        self.master.reset();
        ctx.telemetry().metrics.incr("proxy.restart");
        self.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != WS_PORT {
            return;
        }
        if let Some(reply) = self.master.on_packet(ctx, &pkt) {
            if reply == MasterReply::Reregistered {
                ctx.telemetry().metrics.incr("proxy.reregister");
            }
            return;
        }
        if let Some(call) = self.ws.accept(ctx, &pkt) {
            self.stats.ws_requests += 1;
            let response = match call.request.path.as_str() {
                "/model" | "/query" => {
                    match self.gate.try_admit(ctx.now(), &ctx.telemetry().metrics) {
                        Admission::Admitted if call.request.path == "/model" => {
                            let response = self.model_response(call.request.format);
                            return self.ws.respond_encoded(ctx, &call, response);
                        }
                        Admission::Admitted => self.source.query(&call.request),
                        Admission::Shed { retry_after } => {
                            self.stats.ws_shed += 1;
                            WsResponse::unavailable(retry_after)
                        }
                    }
                }
                "/metrics" => WsResponse::ok(Value::from(ctx.telemetry().exposition())),
                "/health" => WsResponse::ok(Value::object([
                    ("status", Value::from("ok")),
                    ("proxy", Value::from(self.proxy.as_str())),
                    ("district", Value::from(self.district.as_str())),
                    ("kind", Value::from("database")),
                    ("registered", Value::from(self.master.is_registered())),
                    ("ws_requests", Value::from(self.stats.ws_requests as i64)),
                ])),
                _ => WsResponse::error(status::NOT_FOUND, "unknown path"),
            };
            self.ws.respond(ctx, &call, response);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.master.on_timer(ctx, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_core::BuildingId;

    #[test]
    fn bim_source_translates() {
        let bim = BuildingModel::sample(&BuildingId::new("b1").unwrap(), 2, 3);
        let source = BimSource::new(bim.to_tables())
            .unwrap()
            .with_location(GeoPoint::new(45.0, 7.6))
            .with_gis_feature("feat-1");
        let model = source.model();
        assert_eq!(model.get("building").and_then(Value::as_str), Some("b1"));
        let uri = dimmer_core::Uri::parse("sim://n1/model").unwrap();
        match source.role(&uri) {
            ProxyRole::EntityDatabase { entity } => {
                assert_eq!(entity.id(), "b1");
                assert!(entity.location().is_some());
                assert_eq!(entity.gis_feature(), Some("feat-1"));
                assert!(
                    entity
                        .properties()
                        .get("heat_loss_w_per_k")
                        .and_then(Value::as_f64)
                        .unwrap()
                        > 0.0
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Table queries.
        let resp = source.query(&WsRequest::get("/query").with_query("table", "spaces"));
        assert!(resp.is_ok());
        assert_eq!(resp.body.require_array("t", "rows").unwrap().len(), 6);
        assert!(!source
            .query(&WsRequest::get("/query").with_query("table", "ghost"))
            .is_ok());
        assert!(!source.query(&WsRequest::get("/query")).is_ok());
    }

    #[test]
    fn sim_source_translates() {
        let net = NetworkModel::sample(
            &dimmer_core::NetworkId::new("dh1").unwrap(),
            models::simmodel::NetworkKind::DistrictHeating,
            2,
            2,
        );
        let source = SimSource::new(&net.to_legacy().unwrap()).unwrap();
        let model = source.model();
        assert_eq!(model.get("network").and_then(Value::as_str), Some("dh1"));
        let resp = source.query(&WsRequest::get("/query").with_query("view", "efficiency"));
        assert!(resp.is_ok());
        assert_eq!(resp.body.as_object().unwrap().len(), 4, "four consumers");
        let resp = source.query(&WsRequest::get("/query").with_query("view", "unreachable"));
        assert_eq!(resp.body.as_array().unwrap().len(), 0);
    }

    #[test]
    fn gis_source_queries_bbox() {
        use gis::feature::{Feature, Geometry};
        let mut db = GisDatabase::new();
        db.insert(Feature::new(
            "f1",
            Geometry::Point(GeoPoint::new(45.05, 7.65)),
            Value::Null,
        ))
        .unwrap();
        db.insert(Feature::new(
            "f2",
            Geometry::Point(GeoPoint::new(52.0, 13.0)),
            Value::Null,
        ))
        .unwrap();
        let source = GisSource::new(db);
        let resp = source.query(&WsRequest::get("/query").with_query("bbox", "45.0,7.6,45.1,7.7"));
        assert!(resp.is_ok());
        assert_eq!(resp.body.require_array("t", "features").unwrap().len(), 1);
        let resp = source.query(&WsRequest::get("/query").with_query("id", "f2"));
        assert_eq!(resp.body.get("id").and_then(Value::as_str), Some("f2"));
        assert!(!source
            .query(&WsRequest::get("/query").with_query("bbox", "garbage"))
            .is_ok());
        assert!(!source.query(&WsRequest::get("/query")).is_ok());
    }

    #[test]
    fn measurement_archive_parses_and_filters() {
        let csv = "timestamp,device,quantity,value,unit\n\
                   2015-03-09T00:00:00Z,dev1,temperature,21.5,degC\n\
                   2015-03-09T00:01:00Z,dev2,active_power,1200,W\n\
                   2015-03-09T00:02:00Z,dev1,temperature,21.6,degC\n";
        let source = MeasurementArchiveSource::new(csv).unwrap();
        assert_eq!(
            MeasurementBatch::from_value(&source.model()).unwrap().len(),
            3
        );
        let resp = source.query(&WsRequest::get("/query").with_query("device", "dev1"));
        let batch = MeasurementBatch::from_value(&resp.body).unwrap();
        assert_eq!(batch.len(), 2);
        let resp = source.query(&WsRequest::get("/query").with_query("quantity", "active_power"));
        let batch = MeasurementBatch::from_value(&resp.body).unwrap();
        assert_eq!(batch.len(), 1);

        // Malformed archives are rejected at construction (translation
        // failures surface at the proxy boundary, not at query time).
        assert!(MeasurementArchiveSource::new("nope\n1\n").is_err());
        assert!(MeasurementArchiveSource::new(
            "timestamp,device,quantity,value,unit\nbad,dev1,temperature,1,degC\n"
        )
        .is_err());
    }
}
