//! Profile queries: rollup-served district consumption profiles.
//!
//! The redirect principle of the area query applies to profiling too:
//! the master never serves rollups itself, it returns the URIs of the
//! aggregators registered for the district. [`ProfileClientNode`]
//! dereferences the first URI and fetches pre-computed windows from the
//! aggregator's `/rollups` Web Service — two requests total, however
//! many devices the district holds. Compare [`crate::client::ClientNode`],
//! which fetches every device series and integrates client-side.

use dimmer_core::{DistrictId, QuantityKind, Uri, Value};
use proxy::webservice::{WsClient, WsClientEvent, WsRequest, WsResponse};
use proxy::{uri_node, WS_PORT};
use simnet::{Context, Node, NodeId, Packet, SimTime, TimerTag};
use streams::Rollup;

const WS_TAGS: u64 = 1_000_000_000;

/// Configuration of a [`ProfileClientNode`].
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// The master node to query.
    pub master: NodeId,
    /// The district to profile.
    pub district: DistrictId,
    /// The quantity to profile.
    pub quantity: QuantityKind,
    /// Window size to request (`None` = the aggregator's default).
    pub window_millis: Option<i64>,
    /// Unix-millis range of windows to fetch, `[from, to)`.
    pub range: (i64, i64),
}

/// The result of one profile query.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// When the query was issued.
    pub started_at: SimTime,
    /// When the last fetch completed.
    pub(crate) completed_at: SimTime,
    /// The aggregator URI the master redirected to (`None` when the
    /// district has no aggregation tier).
    pub aggregator: Option<Uri>,
    /// The district-tier windows, ascending by start.
    pub windows: Vec<Rollup>,
    /// Requests issued (1 resolve + 1 fetch).
    pub requests: u64,
    /// Requests that failed or timed out.
    pub errors: u64,
}

impl ProfileSnapshot {
    /// End-to-end latency of the query.
    pub fn latency(&self) -> simnet::SimDuration {
        self.completed_at.saturating_since(self.started_at)
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Resolve,
    Fetch,
}

/// A client that profiles a district through its aggregator.
#[derive(Debug)]
pub struct ProfileClientNode {
    config: ProfileConfig,
    ws: WsClient,
    in_flight: Option<(u64, Phase)>,
    started_at: Option<SimTime>,
    aggregator: Option<Uri>,
    requests: u64,
    errors: u64,
    snapshots: Vec<ProfileSnapshot>,
}

impl ProfileClientNode {
    /// Creates a profile client.
    pub fn new(config: ProfileConfig) -> Self {
        ProfileClientNode {
            config,
            ws: WsClient::new(WS_TAGS),
            in_flight: None,
            started_at: None,
            aggregator: None,
            requests: 0,
            errors: 0,
            snapshots: Vec::new(),
        }
    }

    /// Completed snapshots, oldest first.
    pub fn snapshots(&self) -> &[ProfileSnapshot] {
        &self.snapshots
    }

    /// The most recent completed snapshot.
    pub fn latest_snapshot(&self) -> Option<&ProfileSnapshot> {
        self.snapshots.last()
    }

    fn finish(&mut self, ctx: &Context<'_>, windows: Vec<Rollup>) {
        self.snapshots.push(ProfileSnapshot {
            started_at: self.started_at.take().unwrap_or_else(|| ctx.now()),
            completed_at: ctx.now(),
            aggregator: self.aggregator.take(),
            windows,
            requests: self.requests,
            errors: self.errors,
        });
    }

    fn on_resolution(&mut self, ctx: &mut Context<'_>, response: WsResponse) {
        let uri = response
            .is_ok()
            .then(|| response.body.get("aggregators"))
            .flatten()
            .and_then(Value::as_array)
            .and_then(|uris| uris.first())
            .and_then(Value::as_str)
            .and_then(|raw| Uri::parse(raw).ok());
        let Some(uri) = uri else {
            self.errors += 1;
            self.finish(ctx, Vec::new());
            return;
        };
        let Some(node) = uri_node(&uri) else {
            self.errors += 1;
            self.finish(ctx, Vec::new());
            return;
        };
        self.aggregator = Some(uri);
        let (from, to) = self.config.range;
        let mut request = WsRequest::get("/rollups")
            .with_query("level", "district")
            .with_query("quantity", self.config.quantity.as_str())
            .with_query("from", from.to_string())
            .with_query("to", to.to_string());
        if let Some(window) = self.config.window_millis {
            request = request.with_query("window", window.to_string());
        }
        self.requests += 1;
        let id = self.ws.request(ctx, node, &request);
        self.in_flight = Some((id, Phase::Fetch));
    }

    fn on_fetch(&mut self, ctx: &mut Context<'_>, response: WsResponse) {
        let mut windows = Vec::new();
        match response
            .is_ok()
            .then(|| response.body.get("rollups"))
            .flatten()
        {
            Some(Value::Array(items)) => {
                for item in items {
                    match Rollup::from_value(item) {
                        Ok(rollup) => windows.push(rollup),
                        Err(_) => self.errors += 1,
                    }
                }
            }
            _ => self.errors += 1,
        }
        self.finish(ctx, windows);
    }
}

impl Node for ProfileClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.started_at = Some(ctx.now());
        let request = WsRequest::get(format!("/district/{}/profile", self.config.district));
        self.requests += 1;
        let id = self.ws.request(ctx, self.config.master, &request);
        self.in_flight = Some((id, Phase::Resolve));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != WS_PORT {
            return;
        }
        if let Some(WsClientEvent::Response { id, response }) = self.ws.accept(&pkt) {
            match self.in_flight.take_if(|(waiting, _)| *waiting == id) {
                Some((_, Phase::Resolve)) => self.on_resolution(ctx, response),
                Some((_, Phase::Fetch)) => self.on_fetch(ctx, response),
                None => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if let Some(WsClientEvent::TimedOut { id }) = self.ws.on_timer(ctx, tag) {
            if self
                .in_flight
                .take_if(|(waiting, _)| *waiting == id)
                .is_some()
            {
                self.errors += 1;
                self.finish(ctx, Vec::new());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AggregationSpec, ScenarioConfig};
    use crate::DEFAULT_EPOCH_MILLIS;
    use simnet::{SimConfig, SimDuration, Simulator};

    /// Adds a one-shot temperature profile client for `district`.
    fn spawn(
        sim: &mut Simulator,
        master: NodeId,
        district: DistrictId,
        range: (i64, i64),
    ) -> NodeId {
        sim.add_node(
            "profile-client".to_owned(),
            ProfileClientNode::new(ProfileConfig {
                master,
                district,
                quantity: QuantityKind::Temperature,
                window_millis: None,
                range,
            }),
        )
    }

    #[test]
    fn profile_query_fetches_rollups_via_redirect() {
        let scenario = ScenarioConfig::small()
            .with_aggregation(AggregationSpec::tumbling(300_000).with_lateness(10_000))
            .build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = crate::deploy::Deployment::build(&mut sim, &scenario);
        assert_eq!(deployment.node_count(), sim.node_count());
        assert_eq!(deployment.aggregators().count(), 1);
        // Two full windows plus slack for the lateness horizon.
        sim.run_for(SimDuration::from_secs(700));

        let district = scenario.districts[0].district.clone();
        let range = (DEFAULT_EPOCH_MILLIS, DEFAULT_EPOCH_MILLIS + 600_000);
        let client = spawn(&mut sim, deployment.master, district, range);
        sim.run_for(SimDuration::from_secs(30));

        let c = sim.node_ref::<ProfileClientNode>(client).unwrap();
        let snapshot = c.latest_snapshot().expect("query completed");
        assert_eq!(snapshot.errors, 0, "snapshot: {snapshot:?}");
        assert_eq!(snapshot.requests, 2);
        assert!(snapshot.aggregator.is_some());
        assert_eq!(snapshot.windows.len(), 2, "windows: {:?}", snapshot.windows);
        for w in &snapshot.windows {
            assert!(w.count > 0);
            assert!(w.min <= w.mean() && w.mean() <= w.max);
        }
        assert!(snapshot.latency() > SimDuration::ZERO);
    }

    #[test]
    fn profile_without_aggregation_tier_reports_error() {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = crate::deploy::Deployment::build(&mut sim, &scenario);
        sim.run_for(SimDuration::from_secs(60));
        let district = scenario.districts[0].district.clone();
        let client = spawn(&mut sim, deployment.master, district, (0, 1));
        sim.run_for(SimDuration::from_secs(30));
        let snapshot = sim
            .node_ref::<ProfileClientNode>(client)
            .unwrap()
            .latest_snapshot()
            .unwrap()
            .clone();
        assert_eq!(snapshot.errors, 1);
        assert!(snapshot.aggregator.is_none());
        assert!(snapshot.windows.is_empty());
    }
}
