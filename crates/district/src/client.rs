//! The end-user application.
//!
//! "When the end-user application queries the master node for a
//! particular area of the district, the master node refers to the
//! ontology and returns the URIs of the proxies' Web Services for the
//! interested entities in the area … Afterwards, the end-user
//! application queries directly each returned proxy and retrieves the
//! model and the data for each entity."
//!
//! [`ClientNode`] is that application: `AreaFanIn`, the resolve → fetch
//! → integrate engine every reader runs on, with the area `Plan`,
//! producing [`AreaSnapshot`]s once or periodically, with latency and
//! traffic accounting for the experiments.

use std::collections::BTreeMap;

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
    fn new(query: Done<AreaPlan, ()>) -> Self {
        let (resolution, entities, measurements) = query.answer;
        AreaSnapshot {
            started_at: query.started_at,
            completed_at: query.completed_at,
            resolution,
            entities,
            measurements,
            requests: query.requests,
            errors: query.errors,
        }
    }

    /// End-to-end latency of the query.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.started_at)
    }
}

/// What one reader makes of the master's redirect: the fetches it calls
/// for, each tagged with a `Fetch`, and how their answers build an `Answer`.
pub(crate) trait Plan {
    type Answer: Default;
    type Fetch;
    /// Integrates an encoded answer (the redirect's when `fetch` is
    /// `None`), sending through `get` the fetches it calls for; returns
    /// the errors in it.
    fn integrate(
        &self,
        fetch: Option<Self::Fetch>,
        bytes: &[u8],
        answer: &mut Self::Answer,
        get: &mut impl FnMut(NodeId, &WsRequest, Self::Fetch),
    ) -> u64;
}

/// One query: the caller value handed back when it finishes, what its
/// plan integrated, and the bookkeeping the engine keeps alike for every
/// reader: its requests (the resolve and each fetch), how many of them
/// are answered or timed out, and how many of those are errors.
#[derive(Debug)]
pub(crate) struct Query<A, T> {
    pub(crate) caller: T,
    answered: u64,
    pub(crate) started_at: SimTime,
    pub(crate) completed_at: SimTime,
    pub(crate) requests: u64,
    pub(crate) errors: u64,
    pub(crate) answer: A,
}

/// A finished query of a `P` plan.
pub(crate) type Done<P, T> = Query<<P as Plan>::Answer, T>;

/// The resolve → fetch → integrate engine every reader runs on. Each
/// query carries a caller value, handed back when it finishes: nothing
/// for a [`ClientNode`], the call to answer for a
/// [`RelayNode`](crate::relay::RelayNode).
#[derive(Debug)]
pub(crate) struct AreaFanIn<P: Plan, T> {
    master: NodeId,
    pub(crate) plan: P,
    /// Each request in flight keeps its query's index and its fetch
    /// (`None`: the resolve) until it settles.
    ws: WsClient<(usize, Option<P::Fetch>)>,
    /// The queries by index, `None` once finished; a finished tail is
    /// dropped, so the table holds no more than the queries overlapping.
    queries: Vec<Option<Query<P::Answer, T>>>,
}

impl<P: Plan, T> AreaFanIn<P, T> {
    /// An engine resolving through `master` and following `plan`.
    pub(crate) fn new(master: NodeId, plan: P) -> Self {
        AreaFanIn {
            master,
            plan,
            ws: WsClient::new(WS_TAGS),
            queries: Vec::new(),
        }
    }

    /// Issues one query: `resolve` to the master.
    pub(crate) fn issue(&mut self, ctx: &mut Context<'_>, resolve: &WsRequest, caller: T) {
        let index = self.queries.len();
        self.ws.request(ctx, self.master, resolve, (index, None));
        self.queries.push(Some(Query {
            caller,
            answered: 0,
            started_at: ctx.now(),
            completed_at: ctx.now(),
            requests: 1,
            errors: 0,
            answer: P::Answer::default(),
        }));
    }

    /// Feeds a packet; returns the query it finished, if any.
    pub(crate) fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: &Packet) -> Option<Done<P, T>> {
        if pkt.port != WS_PORT {
            return None;
        }
        let (settled, bytes) = self.ws.accept_encoded(pkt)?;
        self.on_response(ctx, settled.meta, Some(bytes))
    }

    /// Feeds a fired timer: a request out of retries is an error.
    pub(crate) fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) -> Option<Done<P, T>> {
        let Some(WsClientEvent::TimedOut(settled)) = self.ws.on_timer(ctx, tag) else {
            return None;
        };
        self.on_response(ctx, settled.meta, None)
    }

    /// Integrates the encoded answer to a request of query `index`
    /// fetching `fetch`; `None`: timed out.
    fn on_response(
        &mut self,
        ctx: &mut Context<'_>,
        (index, fetch): (usize, Option<P::Fetch>),
        response: Option<&[u8]>,
    ) -> Option<Done<P, T>> {
        let query = self.queries[index].as_mut()?;
        let mut get = |server, request: &WsRequest, fetch| {
            self.ws.request(ctx, server, request, (index, Some(fetch)));
            query.requests += 1;
        };
        let answer = &mut query.answer;
        query.errors += match response {
            Some(bytes) => self.plan.integrate(fetch, bytes, answer, &mut get),
            None => 1,
        };
        query.answered += 1;
        if query.answered < query.requests {
            return None;
        }
        query.completed_at = ctx.now();
        let done = self.queries[index].take();
        let last = self.queries.iter().rposition(Option::is_some);
        self.queries.truncate(last.map_or(0, |i| i + 1));
        done
    }
}

/// The area plan: a `/model` fetch per entity and a `/data` fetch per
/// device in `format`, the data in `data_window_millis` (`None` = all);
/// none if `resolve_only` (the live monitor subscribes instead).
#[derive(Debug, Default)]
pub(crate) struct AreaPlan {
    pub(crate) format: DataFormat,
    pub(crate) data_window_millis: Option<(i64, i64)>,
    pub(crate) resolve_only: bool,
}

/// An area fetch: an entity's model, or a device's data.
#[derive(Debug)]
pub(crate) enum AreaFetch {
    EntityModel(String),
    DeviceData,
}

impl Plan for AreaPlan {
    /// The resolution, the entity models and the device data.
    type Answer = (AreaResolution, BTreeMap<String, Value>, MeasurementBatch);
    type Fetch = AreaFetch;

    /// The resolution fans the query out; device data is decoded
    /// straight into measurements; an entity model is the tree the
    /// snapshot keeps.
    fn integrate(
        &self,
        fetch: Option<AreaFetch>,
        bytes: &[u8],
        (resolution, entities, measurements): &mut Self::Answer,
        get: &mut impl FnMut(NodeId, &WsRequest, AreaFetch),
    ) -> u64 {
        match fetch {
            None => match decode_response(bytes, AreaResolution::read) {
                Ok((status, Some(area))) if status::is_success(status) => {
                    if !self.resolve_only {
                        self.fan_out(&area, get);
                    }
                    *resolution = area;
                    0
                }
                _ => 1,
            },
            Some(AreaFetch::EntityModel(entity_id)) => match WsResponse::from_bytes(bytes) {
                Ok(response) if response.is_ok() => {
                    entities.insert(entity_id, response.body);
                    0
                }
                _ => 1,
            },
            Some(AreaFetch::DeviceData) => match decode_response(bytes, MeasurementBatch::read) {
                Ok((status, Some(batch))) if status::is_success(status) => {
                    measurements.extend(batch);
                    0
                }
                _ => 1,
            },
        }
    }
}

impl AreaPlan {
    /// The master's `/area` request for `district`'s `bbox`.
    pub(crate) fn request(&self, district: &DistrictId, bbox: &BoundingBox) -> WsRequest {
        WsRequest::get(format!("/district/{district}/area"))
            .with_query("bbox", bbox.to_query())
            .with_format(self.format)
    }

    /// A `/model` fetch per entity, then a `/data` fetch per device, in
    /// resolution order; each distinct request is built once.
    fn fan_out(&self, area: &AreaResolution, get: &mut impl FnMut(NodeId, &WsRequest, AreaFetch)) {
        let model = WsRequest::get("/model").with_format(self.format);
        let mut data: Vec<(QuantityKind, WsRequest)> = Vec::new();
        for entity in &area.entities {
            if let Some(node) = uri_node(entity.db_proxy()) {
                get(node, &model, AreaFetch::EntityModel(entity.id().to_owned()));
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
                get(node, request, AreaFetch::DeviceData);
            }
        }
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
    fan_in: AreaFanIn<AreaPlan, ()>,
    snapshots: Vec<AreaSnapshot>,
}

impl ClientNode {
    /// Creates a client.
    pub fn new(config: ClientConfig) -> Self {
        let plan = AreaPlan {
            format: config.format,
            data_window_millis: config.data_window_millis,
            resolve_only: false,
        };
        ClientNode {
            fan_in: AreaFanIn::new(config.master, plan),
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
        let done = self.fan_in.on_packet(ctx, &pkt);
        self.snapshots.extend(done.map(AreaSnapshot::new));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_PERIODIC {
            let request = self
                .fan_in
                .plan
                .request(&self.config.district, &self.config.bbox);
            self.fan_in.issue(ctx, &request, ());
            if let Some(period) = self.config.period {
                ctx.set_timer(period, TAG_PERIODIC);
            }
            return;
        }
        let done = self.fan_in.on_timer(ctx, tag);
        self.snapshots.extend(done.map(AreaSnapshot::new));
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
    fn finished_queries_leave_no_slot_in_the_engine() {
        let (mut sim, deployment, scenario) = deployed();
        let client = sim.add_node(
            "periodic-client",
            ClientNode::new(ClientConfig {
                master: deployment.master,
                district: scenario.districts[0].district.clone(),
                bbox: scenario.districts[0].bbox(),
                data_window_millis: None,
                period: Some(SimDuration::from_secs(30)),
                format: DataFormat::Json,
            }),
        );
        sim.run_for(SimDuration::from_secs(125));
        let c = sim.node_ref::<ClientNode>(client).unwrap();
        assert_eq!(c.snapshots().len(), 5);
        // Each query finished before the next began, so the engine's
        // per-query table is empty instead of one slot per query issued.
        assert!(c.fan_in.queries.is_empty(), "{}", c.fan_in.queries.len());
        assert!(c.fan_in.ws.awaited().is_empty());
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
