//! The end-user application.
//!
//! "When the end-user application queries the master node for a
//! particular area of the district, the master node refers to the
//! ontology and returns the URIs of the proxies' Web Services for the
//! interested entities in the area … Afterwards, the end-user
//! application queries directly each returned proxy and retrieves the
//! model and the data for each entity."
//!
//! [`ClientNode`] is that application: `AreaFanIn`, a three-phase
//! state machine (resolve → fetch → integrate) producing
//! [`AreaSnapshot`]s, run once or periodically, with latency and traffic
//! accounting for the experiments. E5's relay runs the same engine.

use std::collections::{BTreeMap, HashMap};

use dimmer_core::codec::DataFormat;
use dimmer_core::{DistrictId, MeasurementBatch, QuantityKind, Value};
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
struct QueryState<T> {
    /// Handed back with the finished snapshot.
    caller: T,
    outstanding: usize,
    /// What is integrated so far.
    snapshot: AreaSnapshot,
}

/// A finished query: its caller value and its snapshot.
type Done<T> = (T, AreaSnapshot);

/// The resolve → fetch → integrate engine: asks the master for an area,
/// fetches every returned proxy and integrates the answers into one
/// [`AreaSnapshot`]. Each query carries a caller value, handed back with
/// its snapshot: nothing for a [`ClientNode`], the call to answer for a
/// [`RelayNode`](crate::relay::RelayNode).
#[derive(Debug)]
pub(crate) struct AreaFanIn<T> {
    master: NodeId,
    format: DataFormat,
    data_window_millis: Option<(i64, i64)>,
    ws: WsClient,
    /// request id → (query index, what it fetches). Lookup-only: never
    /// iterated, so its hash order cannot reach a snapshot.
    in_flight: HashMap<u64, (usize, FetchKind)>,
    /// Every query issued, `None` once finished.
    queries: Vec<Option<QueryState<T>>>,
}

impl<T> AreaFanIn<T> {
    /// An engine resolving areas through `master` in `format`, fetching
    /// the device data in `window` (`None` = everything).
    pub(crate) fn new(master: NodeId, format: DataFormat, window: Option<(i64, i64)>) -> Self {
        AreaFanIn {
            master,
            format,
            data_window_millis: window,
            ws: WsClient::new(WS_TAGS),
            in_flight: HashMap::new(),
            queries: Vec::new(),
        }
    }

    /// Issues one query for `district`'s `bbox`.
    pub(crate) fn issue(
        &mut self,
        ctx: &mut Context<'_>,
        district: &DistrictId,
        bbox: &BoundingBox,
        caller: T,
    ) {
        let index = self.queries.len();
        let snapshot = AreaSnapshot {
            started_at: ctx.now(),
            completed_at: ctx.now(),
            resolution: AreaResolution::default(),
            entities: BTreeMap::new(),
            measurements: MeasurementBatch::new(),
            requests: 1,
            errors: 0,
        };
        self.queries.push(Some(QueryState {
            caller,
            outstanding: 1,
            snapshot,
        }));
        let request = WsRequest::get(format!("/district/{district}/area"))
            .with_query("bbox", bbox.to_query())
            .with_format(self.format);
        let id = self.ws.request(ctx, self.master, &request);
        self.in_flight.insert(id, (index, FetchKind::Resolution));
    }

    /// Feeds a packet from the Web-Service port; returns the query it
    /// finished, if any.
    pub(crate) fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: &Packet) -> Option<Done<T>> {
        let (id, bytes) = self.ws.accept_encoded(pkt)?;
        let (index, kind) = self.in_flight.remove(&id)?;
        self.on_response(ctx, index, kind, Some(bytes))
    }

    /// Feeds a fired timer: a request out of retries is an error of its
    /// query, which may finish it.
    pub(crate) fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) -> Option<Done<T>> {
        let Some(WsClientEvent::TimedOut { id }) = self.ws.on_timer(ctx, tag) else {
            return None;
        };
        let (index, kind) = self.in_flight.remove(&id)?;
        self.on_response(ctx, index, kind, None)
    }

    /// Integrates one response; `response` is the still-encoded answer,
    /// or `None` after a timeout. The resolution fans the query out;
    /// device data is decoded straight into measurements; an entity
    /// model is the tree the snapshot keeps.
    fn on_response(
        &mut self,
        ctx: &mut Context<'_>,
        index: usize,
        kind: FetchKind,
        response: Option<&[u8]>,
    ) -> Option<Done<T>> {
        let mut query = self.queries[index].take()?;
        let snapshot = &mut query.snapshot;
        let integrated = response.is_some_and(|bytes| match kind {
            FetchKind::Resolution => match decode_response(bytes, AreaResolution::read) {
                Ok((status, Some(resolution))) if status::is_success(status) => {
                    let fetches = self.fan_out(ctx, index, &resolution);
                    snapshot.resolution = resolution;
                    snapshot.requests += fetches as u64;
                    query.outstanding += fetches;
                    true
                }
                _ => false,
            },
            FetchKind::EntityModel(entity_id) => match WsResponse::from_bytes(bytes) {
                Ok(response) if response.is_ok() => {
                    snapshot.entities.insert(entity_id, response.body);
                    true
                }
                _ => false,
            },
            FetchKind::DeviceData => match decode_response(bytes, MeasurementBatch::read) {
                Ok((status, Some(batch))) if status::is_success(status) => {
                    snapshot.measurements.extend(batch);
                    true
                }
                _ => false,
            },
        });
        if !integrated {
            snapshot.errors += 1;
        }
        query.outstanding -= 1;
        if query.outstanding > 0 {
            self.queries[index] = Some(query);
            return None;
        }
        query.snapshot.completed_at = ctx.now();
        Some((query.caller, query.snapshot))
    }

    /// Fans a query out: one `/model` fetch per entity, one `/data`
    /// fetch per device, in resolution order; returns the fetch count.
    /// Each distinct request — the one `/model` request, one `/data`
    /// request per quantity — is built once.
    fn fan_out(&mut self, ctx: &mut Context<'_>, index: usize, area: &AreaResolution) -> usize {
        let model = WsRequest::get("/model").with_format(self.format);
        let mut data: Vec<(QuantityKind, WsRequest)> = Vec::new();
        let mut fetches = 0;
        for entity in &area.entities {
            if let Some(node) = uri_node(entity.db_proxy()) {
                let id = self.ws.request(ctx, node, &model);
                let kind = FetchKind::EntityModel(entity.id().to_owned());
                self.in_flight.insert(id, (index, kind));
                fetches += 1;
            }
        }
        for device in &area.devices {
            if let Some(node) = uri_node(device.proxy()) {
                let quantity = device.quantity();
                let request = match data.iter().position(|(q, _)| *q == quantity) {
                    Some(i) => &data[i].1,
                    None => {
                        let mut request = WsRequest::get("/data")
                            .with_query("quantity", quantity.as_str())
                            .with_format(self.format);
                        if let Some((from, to)) = self.data_window_millis {
                            request = request
                                .with_query("from", from.to_string())
                                .with_query("to", to.to_string());
                        }
                        data.push((quantity, request));
                        &data[data.len() - 1].1
                    }
                };
                let id = self.ws.request(ctx, node, request);
                self.in_flight.insert(id, (index, FetchKind::DeviceData));
                fetches += 1;
            }
        }
        fetches
    }
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
    fan_in: AreaFanIn<()>,
    snapshots: Vec<AreaSnapshot>,
}

impl ClientNode {
    /// Creates a client.
    pub fn new(config: ClientConfig) -> Self {
        ClientNode {
            fan_in: AreaFanIn::new(config.master, config.format, config.data_window_millis),
            config,
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
}

impl Node for ClientNode {
    /// The first query is the first tick of the period.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.on_timer(ctx, TAG_PERIODIC);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != WS_PORT {
            return;
        }
        if let Some(((), snapshot)) = self.fan_in.on_packet(ctx, &pkt) {
            self.snapshots.push(snapshot);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_PERIODIC {
            let config = &self.config;
            self.fan_in.issue(ctx, &config.district, &config.bbox, ());
            if let Some(period) = config.period {
                ctx.set_timer(period, TAG_PERIODIC);
            }
            return;
        }
        if let Some(((), snapshot)) = self.fan_in.on_timer(ctx, tag) {
            self.snapshots.push(snapshot);
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
