//! The relaying aggregator — ablation of the redirect design.
//!
//! The paper's master *redirects*: it returns proxy URIs and the client
//! fetches the data itself. The obvious alternative routes all data
//! through the central point. [`RelayNode`] implements that alternative:
//! it serves `GET /area?district=&bbox=` by resolving through the real
//! master, fetching every proxy itself, and returning the aggregated
//! data inline. Experiment E5 measures what this does to the relay's
//! traffic and the end-to-end latency.

use std::collections::{BTreeMap, HashMap};

use dimmer_core::{MeasurementBatch, Value};
use gis::geo::BoundingBox;
use ontology::AreaResolution;
use proxy::webservice::{
    decode_response, status, WsCall, WsClient, WsClientEvent, WsRequest, WsResponse, WsServer,
};
use proxy::{uri_node, WS_PORT};
use simnet::{Context, Node, NodeId, Packet, TimerTag};

const WS_TAGS: u64 = 1_000_000_000;

#[derive(Debug)]
enum FetchKind {
    Resolution,
    EntityModel(String),
    DeviceData,
}

#[derive(Debug)]
struct RelayQuery {
    call: WsCall,
    entities: BTreeMap<String, Value>,
    measurements: MeasurementBatch,
    outstanding: usize,
    errors: u64,
}

/// Counters of the relay.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RelayStats {
    /// Client queries served.
    pub(crate) queries: u64,
    /// Upstream fetches issued.
    pub(crate) fetches: u64,
}

/// The relaying aggregator node.
#[derive(Debug)]
pub struct RelayNode {
    master: NodeId,
    ws: WsServer,
    client: WsClient,
    /// request id → (query index, what it fetches); lookup-only.
    in_flight: HashMap<u64, (usize, FetchKind)>,
    queries: Vec<Option<RelayQuery>>,
    stats: RelayStats,
}

impl RelayNode {
    /// Creates a relay resolving through `master`.
    pub fn new(master: NodeId) -> Self {
        RelayNode {
            master,
            ws: WsServer::new(),
            client: WsClient::new(WS_TAGS),
            in_flight: HashMap::new(),
            queries: Vec::new(),
            stats: RelayStats::default(),
        }
    }

    fn start_query(&mut self, ctx: &mut Context<'_>, call: WsCall) {
        let (district, bbox) = match (
            call.request.query("district"),
            call.request.query("bbox").map(BoundingBox::parse_query),
        ) {
            (Some(d), Some(Ok(b))) => (d.to_owned(), b),
            _ => {
                self.ws.respond(
                    ctx,
                    &call,
                    WsResponse::error(status::BAD_REQUEST, "district and bbox required"),
                );
                return;
            }
        };
        self.stats.queries += 1;
        let index = self.queries.len();
        self.queries.push(Some(RelayQuery {
            call,
            entities: BTreeMap::new(),
            measurements: MeasurementBatch::new(),
            outstanding: 1,
            errors: 0,
        }));
        let request = WsRequest::get(format!("/district/{district}/area"))
            .with_query("bbox", bbox.to_query());
        let id = self.client.request(ctx, self.master, &request);
        self.in_flight.insert(id, (index, FetchKind::Resolution));
        self.stats.fetches += 1;
    }

    fn on_resolution(&mut self, ctx: &mut Context<'_>, index: usize, response: &[u8]) {
        let resolution = WsResponse::from_bytes(response)
            .ok()
            .filter(WsResponse::is_ok)
            .and_then(|response| AreaResolution::from_value(&response.body).ok());
        let Some(resolution) = resolution else {
            if let Some(query) = &mut self.queries[index] {
                query.errors += 1;
            }
            self.step(ctx, index);
            return;
        };
        let mut fetches = Vec::new();
        for entity in &resolution.entities {
            if let Some(node) = uri_node(entity.db_proxy()) {
                fetches.push((
                    node,
                    WsRequest::get("/model"),
                    FetchKind::EntityModel(entity.id().to_owned()),
                ));
            }
        }
        for device in &resolution.devices {
            if let Some(node) = uri_node(device.proxy()) {
                fetches.push((
                    node,
                    WsRequest::get("/data").with_query("quantity", device.quantity().as_str()),
                    FetchKind::DeviceData,
                ));
            }
        }
        if let Some(query) = &mut self.queries[index] {
            query.outstanding += fetches.len();
        }
        self.stats.fetches += fetches.len() as u64;
        for (node, request, kind) in fetches {
            let id = self.client.request(ctx, node, &request);
            self.in_flight.insert(id, (index, kind));
        }
        self.step(ctx, index);
    }

    /// Integrates one upstream fetch; `response` is the still-encoded
    /// answer, or `None` after a timeout.
    fn on_fetch(
        &mut self,
        ctx: &mut Context<'_>,
        index: usize,
        kind: FetchKind,
        response: Option<&[u8]>,
    ) {
        if let Some(query) = &mut self.queries[index] {
            let integrated = response.is_some_and(|bytes| match kind {
                FetchKind::EntityModel(id) => match WsResponse::from_bytes(bytes) {
                    Ok(response) if response.is_ok() => {
                        query.entities.insert(id, response.body);
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
                FetchKind::Resolution => unreachable!("handled separately"),
            });
            if !integrated {
                query.errors += 1;
            }
        }
        self.step(ctx, index);
    }

    /// Decrements the outstanding count; responds when the fan-in is
    /// complete.
    fn step(&mut self, ctx: &mut Context<'_>, index: usize) {
        let done = match &mut self.queries[index] {
            Some(query) => {
                query.outstanding = query.outstanding.saturating_sub(1);
                query.outstanding == 0
            }
            None => false,
        };
        if !done {
            return;
        }
        let query = self.queries[index].take().expect("checked above");
        let body = Value::object([
            ("entities", Value::object(query.entities)),
            (
                "measurements",
                query
                    .measurements
                    .to_value()
                    .get("measurements")
                    .cloned()
                    .unwrap_or(Value::Array(vec![])),
            ),
            ("errors", Value::from(query.errors as i64)),
        ]);
        self.ws.respond(ctx, &query.call, WsResponse::ok(body));
    }
}

impl Node for RelayNode {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != WS_PORT {
            return;
        }
        if let Some((id, response)) = self.client.accept_encoded(&pkt) {
            if let Some((index, kind)) = self.in_flight.remove(&id) {
                match kind {
                    FetchKind::Resolution => self.on_resolution(ctx, index, response),
                    other => self.on_fetch(ctx, index, other, Some(response)),
                }
            }
            return;
        }
        if let Some(call) = self.ws.accept(ctx, &pkt) {
            if call.request.path == "/area" {
                self.start_query(ctx, call);
            } else {
                self.ws.respond(
                    ctx,
                    &call,
                    WsResponse::error(status::NOT_FOUND, "unknown path"),
                );
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if let Some(WsClientEvent::TimedOut { id }) = self.client.on_timer(ctx, tag) {
            if let Some((index, kind)) = self.in_flight.remove(&id) {
                match kind {
                    FetchKind::Resolution => {
                        if let Some(query) = &mut self.queries[index] {
                            query.errors += 1;
                        }
                        self.step(ctx, index);
                    }
                    other => self.on_fetch(ctx, index, other, None),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::scenario::ScenarioConfig;
    use simnet::{SimConfig, SimDuration, Simulator};

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
    fn relay_aggregates_full_area() {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        let relay = sim.add_node("relay", RelayNode::new(deployment.master));
        sim.run_for(SimDuration::from_secs(600));

        let bbox = scenario.districts[0].bbox();
        let probe = sim.add_node(
            "probe",
            OneShot {
                client: WsClient::new(1000),
                server: relay,
                request: WsRequest::get("/area")
                    .with_query("district", "d0")
                    .with_query("bbox", bbox.to_query()),
                response: None,
            },
        );
        sim.run_for(SimDuration::from_secs(30));
        let response = sim
            .node_ref::<OneShot>(probe)
            .unwrap()
            .response
            .clone()
            .expect("relay answered");
        assert!(response.is_ok());
        assert_eq!(response.body.get("errors").and_then(Value::as_i64), Some(0));
        assert_eq!(
            response
                .body
                .get("entities")
                .and_then(Value::as_object)
                .unwrap()
                .len(),
            5
        );
        assert!(
            response
                .body
                .require_array("t", "measurements")
                .unwrap()
                .len()
                > 50
        );
        let stats = sim.node_ref::<RelayNode>(relay).unwrap().stats;
        assert_eq!(stats.queries, 1);
        assert!(stats.fetches > 10, "{stats:?}");
    }

    #[test]
    fn relay_rejects_malformed_queries() {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        let relay = sim.add_node("relay", RelayNode::new(deployment.master));
        let probe = sim.add_node(
            "probe",
            OneShot {
                client: WsClient::new(1000),
                server: relay,
                request: WsRequest::get("/area"), // no district/bbox
                response: None,
            },
        );
        sim.run_for(SimDuration::from_secs(30));
        let response = sim
            .node_ref::<OneShot>(probe)
            .unwrap()
            .response
            .clone()
            .unwrap();
        assert_eq!(response.status, status::BAD_REQUEST);
    }
}
