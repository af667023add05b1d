//! The relaying aggregator — ablation of the redirect design.
//!
//! The paper's master *redirects*: it returns proxy URIs and the client
//! fetches the data itself. The obvious alternative routes all data
//! through the central point. [`RelayNode`] implements that alternative:
//! it serves `GET /area?district=&bbox=` by running the end-user
//! application's own resolve → fetch → integrate engine and area plan
//! (`client::AreaFanIn`) against the real master, and returning the
//! integrated snapshot inline. Experiment E5 measures what this does to
//! the relay's traffic and the end-to-end latency.

use dimmer_core::{DistrictId, Measurement, Value};
use gis::geo::BoundingBox;
use proxy::webservice::{status, WsCall, WsResponse, WsServer};
use proxy::WS_PORT;
use simnet::{Context, Node, NodeId, Packet, TimerTag};

use crate::client::{AreaFanIn, AreaPlan, Done};

/// The relaying aggregator node: a Web-Service front on the client's
/// fan-in engine.
#[derive(Debug)]
pub struct RelayNode {
    ws: WsServer,
    fan_in: AreaFanIn<AreaPlan, WsCall>,
}

impl RelayNode {
    /// Creates a relay resolving through `master`.
    pub fn new(master: NodeId) -> Self {
        RelayNode {
            ws: WsServer::new(),
            // JSON and no data window: the requests a one-shot JSON
            // client sends.
            fan_in: AreaFanIn::new(master, AreaPlan::default()),
        }
    }

    /// Answers `call` with the finished query's entities, measurements
    /// and error count.
    fn answer(&self, ctx: &mut Context<'_>, query: Done<AreaPlan, WsCall>) {
        let (_, entities, measurements) = query.answer;
        let measurements = measurements.iter().map(Measurement::to_value);
        let body = Value::object([
            ("entities", Value::object(entities)),
            ("measurements", Value::Array(measurements.collect())),
            ("errors", Value::from(query.errors as i64)),
        ]);
        self.ws.respond(ctx, &query.caller, WsResponse::ok(body));
    }
}

impl Node for RelayNode {
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != WS_PORT {
            return;
        }
        if let Some(query) = self.fan_in.on_packet(ctx, &pkt) {
            self.answer(ctx, query);
        } else if let Some(call) = self.ws.accept(ctx, &pkt) {
            let is_area = call.request.path.as_str() == "/area";
            let district = call.request.query("district").map(DistrictId::new);
            let bbox = call.request.query("bbox").map(BoundingBox::parse_query);
            let error = match (is_area, district, bbox) {
                (true, Some(Ok(district)), Some(Ok(bbox))) => {
                    let request = self.fan_in.plan.request(&district, &bbox);
                    self.fan_in.issue(ctx, &request, call);
                    return;
                }
                (true, ..) => {
                    WsResponse::error(status::BAD_REQUEST, "valid district and bbox required")
                }
                (false, ..) => WsResponse::error(status::NOT_FOUND, "unknown path"),
            };
            self.ws.respond(ctx, &call, error);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if let Some(query) = self.fan_in.on_timer(ctx, tag) {
            self.answer(ctx, query);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::scenario::ScenarioConfig;
    use proxy::webservice::{WsClient, WsClientEvent, WsRequest};
    use simnet::{SimConfig, SimDuration, Simulator};

    /// Sends one request to a server at start and keeps the response.
    struct OneShot(WsClient, NodeId, WsRequest, Option<WsResponse>);

    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.0.request(ctx, self.1, &self.2, ());
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            if let Some(WsClientEvent::Response { response, .. }) = self.0.accept(&pkt) {
                self.3 = Some(response);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            self.0.on_timer(ctx, tag);
        }
    }

    /// Deploys `small()` with a relay and runs it for `warm_up`, then
    /// sends each of `requests` to the relay from a probe of its own and
    /// runs 30 s more; returns the simulation, the relay and the answers.
    fn ask_relay(
        warm_up: SimDuration,
        requests: Vec<WsRequest>,
    ) -> (Simulator, NodeId, Vec<WsResponse>) {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        let relay = sim.add_node("relay", RelayNode::new(deployment.master));
        sim.run_for(warm_up);
        let probes: Vec<NodeId> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| {
                let probe = OneShot(WsClient::new(1000), relay, request, None);
                sim.add_node(format!("probe-{i}"), probe)
            })
            .collect();
        sim.run_for(SimDuration::from_secs(30));
        let answers = probes
            .into_iter()
            .map(|p| sim.node_ref::<OneShot>(p).unwrap().3.clone())
            .map(|response| response.expect("relay answered"))
            .collect();
        (sim, relay, answers)
    }

    /// `/area` of district 0's box, in `district`.
    fn area(district: &str) -> WsRequest {
        let bbox = ScenarioConfig::small().build().districts[0].bbox();
        WsRequest::get("/area")
            .with_query("district", district)
            .with_query("bbox", bbox.to_query())
    }

    #[test]
    fn relay_aggregates_full_area() {
        let (sim, relay, answers) = ask_relay(SimDuration::from_secs(600), vec![area("d0")]);
        assert!(answers[0].is_ok());
        let body = &answers[0].body;
        assert_eq!(body.get("errors").and_then(Value::as_i64), Some(0));
        let entities = body.get("entities").and_then(Value::as_object);
        assert_eq!(entities.map(|e| e.len()), Some(5));
        assert!(body.require_array("t", "measurements").unwrap().len() > 50);
        // One query served: one resolve, a fetch per entity (5) and per
        // device (12), and one answer.
        assert_eq!(sim.node_metrics(relay).packets_sent, 1 + 5 + 12 + 1);
    }

    #[test]
    fn relay_rejects_malformed_queries() {
        // No district and bbox; then districts that are no `DistrictId`.
        let requests = vec![
            WsRequest::get("/area"),
            area("a/b"),
            area("d0?x=1"),
            area(""),
        ];
        for answer in ask_relay(SimDuration::ZERO, requests).2 {
            assert_eq!(answer.status, status::BAD_REQUEST, "{answer:?}");
        }
    }
}
