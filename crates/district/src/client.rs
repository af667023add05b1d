//! The end-user application.
//!
//! "When the end-user application queries the master node for a
//! particular area of the district, the master node refers to the
//! ontology and returns the URIs of the proxies' Web Services for the
//! interested entities in the area … Afterwards, the end-user
//! application queries directly each returned proxy and retrieves the
//! model and the data for each entity."
//!
//! [`ClientNode`] is that application: a three-phase state machine
//! (resolve → fetch → integrate) producing [`AreaSnapshot`]s, with
//! latency and traffic accounting for the experiments.

use std::collections::{BTreeMap, HashMap};

use dimmer_core::codec::DataFormat;
use dimmer_core::{DistrictId, MeasurementBatch, Value};
use gis::geo::BoundingBox;
use ontology::AreaResolution;
use proxy::webservice::{decode_response, status, WsClient, WsClientEvent, WsRequest, WsResponse};
use proxy::{uri_node, WS_PORT};
use simnet::{Context, Node, NodeId, Packet, SimDuration, SimTime, TimerTag};

use crate::deploy::Deployment;

const WS_TAGS: u64 = 1_000_000_000;
const TAG_PERIODIC: TimerTag = TimerTag(1);

/// The integrated result of one area query — the "comprehensive model of
/// the interested area" the paper describes.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaSnapshot {
    /// When the query was issued.
    pub started_at: SimTime,
    /// When the last fetch completed.
    pub(crate) completed_at: SimTime,
    /// The master's redirect response.
    pub resolution: AreaResolution,
    /// Per-entity translated models, in entity-id order.
    pub entities: BTreeMap<String, Value>,
    /// All device data fetched, already in the common format.
    pub measurements: MeasurementBatch,
    /// Requests issued (1 resolve + N fetches).
    pub requests: u64,
    /// Fetches that failed or timed out.
    pub errors: u64,
}

impl AreaSnapshot {
    /// End-to-end latency of the query.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.started_at)
    }
}

#[derive(Debug)]
enum FetchKind {
    Resolution,
    EntityModel(String),
    DeviceData,
}

#[derive(Debug)]
struct QueryState {
    started_at: SimTime,
    resolution: Option<AreaResolution>,
    entities: BTreeMap<String, Value>,
    measurements: MeasurementBatch,
    outstanding: usize,
    requests: u64,
    errors: u64,
}

/// Configuration of a [`ClientNode`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The master node to query.
    pub master: NodeId,
    /// The district to query.
    pub district: DistrictId,
    /// The area of interest.
    pub bbox: BoundingBox,
    /// Unix-millis window of device data to fetch (`None` = everything).
    pub data_window_millis: Option<(i64, i64)>,
    /// Re-issue the query with this period (`None` = once at start).
    pub period: Option<SimDuration>,
    /// The open format to request (JSON or XML).
    pub format: DataFormat,
}

/// The end-user application node.
#[derive(Debug)]
pub struct ClientNode {
    config: ClientConfig,
    ws: WsClient,
    /// request id → (query index, what it fetches). Lookup-only: never
    /// iterated, so its hash order cannot reach a snapshot.
    in_flight: HashMap<u64, (usize, FetchKind)>,
    queries: Vec<QueryState>,
    snapshots: Vec<AreaSnapshot>,
}

impl ClientNode {
    /// Creates a client.
    pub fn new(config: ClientConfig) -> Self {
        ClientNode {
            config,
            ws: WsClient::new(WS_TAGS),
            in_flight: HashMap::new(),
            queries: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Convenience: adds a one-shot client node querying `district` over
    /// `bbox` on `deployment`'s master.
    pub fn spawn(
        sim: &mut simnet::Simulator,
        deployment: &Deployment,
        district: DistrictId,
        bbox: BoundingBox,
    ) -> NodeId {
        let name = format!("client-{}", sim.node_count());
        sim.add_node(
            name,
            ClientNode::new(ClientConfig {
                master: deployment.master,
                district,
                bbox,
                data_window_millis: None,
                period: None,
                format: DataFormat::Json,
            }),
        )
    }

    /// Completed snapshots, oldest first.
    pub fn snapshots(&self) -> &[AreaSnapshot] {
        &self.snapshots
    }

    /// The most recent completed snapshot.
    pub fn latest_snapshot(&self) -> Option<&AreaSnapshot> {
        self.snapshots.last()
    }

    fn issue_query(&mut self, ctx: &mut Context<'_>) {
        let query_index = self.queries.len();
        self.queries.push(QueryState {
            started_at: ctx.now(),
            resolution: None,
            entities: BTreeMap::new(),
            measurements: MeasurementBatch::new(),
            outstanding: 1,
            requests: 1,
            errors: 0,
        });
        let request = WsRequest::get(format!("/district/{}/area", self.config.district))
            .with_query("bbox", self.config.bbox.to_query())
            .with_format(self.config.format);
        let id = self.ws.request(ctx, self.config.master, &request);
        self.in_flight
            .insert(id, (query_index, FetchKind::Resolution));
    }

    fn on_resolution(&mut self, ctx: &mut Context<'_>, query_index: usize, response: WsResponse) {
        let Ok(resolution) = AreaResolution::from_value(&response.body) else {
            self.queries[query_index].errors += 1;
            self.finish_if_done(ctx, query_index);
            return;
        };
        // Fan out: one /model fetch per entity, one /data fetch per device.
        let mut fetches: Vec<(NodeId, WsRequest, FetchKind)> = Vec::new();
        for entity in &resolution.entities {
            if let Some(node) = uri_node(entity.db_proxy()) {
                let request = WsRequest::get("/model").with_format(self.config.format);
                fetches.push((
                    node,
                    request,
                    FetchKind::EntityModel(entity.id().to_owned()),
                ));
            }
        }
        for device in &resolution.devices {
            if let Some(node) = uri_node(device.proxy()) {
                let mut request = WsRequest::get("/data")
                    .with_query("quantity", device.quantity().as_str())
                    .with_format(self.config.format);
                if let Some((from, to)) = self.config.data_window_millis {
                    request = request
                        .with_query("from", from.to_string())
                        .with_query("to", to.to_string());
                }
                fetches.push((node, request, FetchKind::DeviceData));
            }
        }
        {
            let query = &mut self.queries[query_index];
            query.resolution = Some(resolution);
            query.outstanding += fetches.len();
            query.requests += fetches.len() as u64;
        }
        for (node, request, kind) in fetches {
            let id = self.ws.request(ctx, node, &request);
            self.in_flight.insert(id, (query_index, kind));
        }
        self.finish_if_done(ctx, query_index);
    }

    /// Integrates one fetch; `response` is the still-encoded answer, or
    /// `None` after a timeout. Device data is decoded straight into
    /// measurements; an entity model is the tree the snapshot keeps.
    fn on_fetch(
        &mut self,
        ctx: &mut Context<'_>,
        query_index: usize,
        kind: FetchKind,
        response: Option<&[u8]>,
    ) {
        let query = &mut self.queries[query_index];
        let integrated = response.is_some_and(|bytes| match kind {
            FetchKind::EntityModel(entity_id) => match WsResponse::from_bytes(bytes) {
                Ok(response) if response.is_ok() => {
                    query.entities.insert(entity_id, response.body);
                    true
                }
                _ => false,
            },
            FetchKind::DeviceData => match decode_response(bytes, MeasurementBatch::read) {
                Ok((status, Some(batch))) if status::is_success(status) => {
                    query.measurements.extend(batch);
                    true
                }
                _ => false,
            },
            FetchKind::Resolution => unreachable!("handled in on_resolution"),
        });
        if !integrated {
            query.errors += 1;
        }
        self.finish_if_done(ctx, query_index);
    }

    fn finish_if_done(&mut self, ctx: &mut Context<'_>, query_index: usize) {
        let query = &mut self.queries[query_index];
        query.outstanding = query.outstanding.saturating_sub(1);
        if query.outstanding > 0 {
            return;
        }
        let resolution = query.resolution.take().unwrap_or_default();
        self.snapshots.push(AreaSnapshot {
            started_at: query.started_at,
            completed_at: ctx.now(),
            resolution,
            entities: std::mem::take(&mut query.entities),
            measurements: std::mem::take(&mut query.measurements),
            requests: query.requests,
            errors: query.errors,
        });
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.issue_query(ctx);
        if let Some(period) = self.config.period {
            ctx.set_timer(period, TAG_PERIODIC);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != WS_PORT {
            return;
        }
        if let Some((id, bytes)) = self.ws.accept_encoded(&pkt) {
            if let Some((query_index, kind)) = self.in_flight.remove(&id) {
                match kind {
                    FetchKind::Resolution => match WsResponse::from_bytes(bytes) {
                        Ok(response) if response.is_ok() => {
                            self.on_resolution(ctx, query_index, response);
                        }
                        _ => {
                            self.queries[query_index].errors += 1;
                            self.finish_if_done(ctx, query_index);
                        }
                    },
                    other => self.on_fetch(ctx, query_index, other, Some(bytes)),
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_PERIODIC {
            self.issue_query(ctx);
            if let Some(period) = self.config.period {
                ctx.set_timer(period, TAG_PERIODIC);
            }
            return;
        }
        if let Some(WsClientEvent::TimedOut { id }) = self.ws.on_timer(ctx, tag) {
            if let Some((query_index, kind)) = self.in_flight.remove(&id) {
                match kind {
                    FetchKind::Resolution => {
                        self.queries[query_index].errors += 1;
                        self.finish_if_done(ctx, query_index);
                    }
                    other => self.on_fetch(ctx, query_index, other, None),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use simnet::{SimConfig, Simulator};

    fn deployed() -> (Simulator, Deployment, crate::scenario::Scenario) {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        sim.run_for(SimDuration::from_secs(600));
        (sim, deployment, scenario)
    }

    #[test]
    fn end_to_end_area_query_integrates_models_and_data() {
        let (mut sim, deployment, scenario) = deployed();
        let district = scenario.districts[0].district.clone();
        let bbox = scenario.districts[0].bbox();
        let client = ClientNode::spawn(&mut sim, &deployment, district, bbox);
        sim.run_for(SimDuration::from_secs(60));

        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert_eq!(c.snapshots().len(), 1);
        let snapshot = c.latest_snapshot().unwrap();
        assert_eq!(snapshot.errors, 0, "snapshot: {snapshot:?}");
        // All 4 buildings + the network registered with a location at the
        // district centre are resolved; every entity model fetched.
        assert_eq!(snapshot.resolution.entities.len(), 5);
        assert_eq!(snapshot.entities.len(), 5);
        // BIM models carry their derived quantities.
        let bim = snapshot
            .entities
            .get("d0-b0")
            .expect("building model fetched");
        assert!(
            bim.get("heat_loss_w_per_k")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        // Devices reported for 10 minutes: data flowed through proxies.
        assert_eq!(snapshot.resolution.devices.len(), 12);
        assert!(
            snapshot.measurements.len() > 50,
            "measurements: {}",
            snapshot.measurements.len()
        );
        assert!(snapshot.latency() > SimDuration::ZERO);
        assert!(snapshot.latency() < SimDuration::from_secs(5));
    }

    #[test]
    fn narrow_bbox_selects_subset() {
        let (mut sim, deployment, scenario) = deployed();
        let district = scenario.districts[0].district.clone();
        // A box only around the first building.
        let loc = scenario.districts[0].buildings[0].location;
        let bbox = BoundingBox::new(loc, loc).expanded(1e-4);
        let client = ClientNode::spawn(&mut sim, &deployment, district, bbox);
        sim.run_for(SimDuration::from_secs(60));
        let snapshot = sim
            .node_ref::<ClientNode>(client)
            .unwrap()
            .latest_snapshot()
            .unwrap()
            .clone();
        assert!(
            snapshot.resolution.entities.len() < 5,
            "narrow bbox must exclude distant buildings"
        );
        assert!(snapshot
            .resolution
            .entities
            .iter()
            .any(|e| e.id() == "d0-b0"));
    }

    #[test]
    fn periodic_client_produces_multiple_snapshots() {
        let (mut sim, deployment, scenario) = deployed();
        let district = scenario.districts[0].district.clone();
        let bbox = scenario.districts[0].bbox();
        let client = sim.add_node(
            "periodic-client",
            ClientNode::new(ClientConfig {
                master: deployment.master,
                district,
                bbox,
                data_window_millis: None,
                period: Some(SimDuration::from_secs(30)),
                format: DataFormat::Json,
            }),
        );
        sim.run_for(SimDuration::from_secs(125));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert!(c.snapshots().len() >= 4, "{}", c.snapshots().len());
    }

    #[test]
    fn xml_format_works_end_to_end() {
        let (mut sim, deployment, scenario) = deployed();
        let district = scenario.districts[0].district.clone();
        let bbox = scenario.districts[0].bbox();
        let client = sim.add_node(
            "xml-client",
            ClientNode::new(ClientConfig {
                master: deployment.master,
                district,
                bbox,
                data_window_millis: None,
                period: None,
                format: DataFormat::Xml,
            }),
        );
        sim.run_for(SimDuration::from_secs(60));
        let snapshot = sim
            .node_ref::<ClientNode>(client)
            .unwrap()
            .latest_snapshot()
            .unwrap()
            .clone();
        assert_eq!(snapshot.errors, 0);
        assert!(!snapshot.measurements.is_empty());
    }

    #[test]
    fn data_window_filters_measurements() {
        let (mut sim, deployment, scenario) = deployed();
        let district = scenario.districts[0].district.clone();
        let bbox = scenario.districts[0].bbox();
        let epoch = scenario.config.epoch_offset_millis;
        // Only the first five minutes of the run.
        let client = sim.add_node(
            "windowed-client",
            ClientNode::new(ClientConfig {
                master: deployment.master,
                district,
                bbox,
                data_window_millis: Some((epoch, epoch + 300_000)),
                period: None,
                format: DataFormat::Json,
            }),
        );
        sim.run_for(SimDuration::from_secs(60));
        let snapshot = sim
            .node_ref::<ClientNode>(client)
            .unwrap()
            .latest_snapshot()
            .unwrap()
            .clone();
        for m in snapshot.measurements.iter() {
            let t = m.timestamp().as_unix_millis();
            assert!((epoch..epoch + 300_000).contains(&t));
        }
        assert!(!snapshot.measurements.is_empty());
    }

    #[test]
    fn unknown_district_fails_gracefully() {
        let (mut sim, deployment, scenario) = deployed();
        let bbox = scenario.districts[0].bbox();
        let client = ClientNode::spawn(
            &mut sim,
            &deployment,
            DistrictId::new("ghost").unwrap(),
            bbox,
        );
        sim.run_for(SimDuration::from_secs(60));
        let snapshot = sim
            .node_ref::<ClientNode>(client)
            .unwrap()
            .latest_snapshot()
            .unwrap()
            .clone();
        assert_eq!(snapshot.errors, 1);
        assert!(snapshot.resolution.entities.is_empty());
        assert!(snapshot.measurements.is_empty());
    }
}
