//! Profile queries: rollup-served district consumption profiles.
//!
//! The redirect principle of the area query applies to profiling too:
//! the master never serves rollups itself, it returns the URIs of the
//! aggregators registered for the district. [`ProfileClientNode`] runs
//! the client's redirect engine with a plan that follows the first URI
//! and fetches pre-computed windows from the aggregator's `/rollups`
//! Web Service — two requests total, however many devices the district
//! holds. Compare [`crate::client::ClientNode`], which fetches every
//! device series and integrates client-side.

use dimmer_core::{DistrictId, QuantityKind, Uri};
use proxy::uri_node;
use proxy::webservice::{WsRequest, WsResponse};
use simnet::{Context, Node, NodeId, Packet, SimTime, TimerTag};
use streams::Rollup;

use crate::client::{AreaFanIn, Done, Plan};

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
    fn new(query: Done<ProfileConfig, ()>) -> Self {
        let (aggregator, windows) = query.answer;
        ProfileSnapshot {
            started_at: query.started_at,
            completed_at: query.completed_at,
            aggregator,
            windows,
            requests: query.requests,
            errors: query.errors,
        }
    }

    /// End-to-end latency of the query.
    pub fn latency(&self) -> simnet::SimDuration {
        self.completed_at.saturating_since(self.started_at)
    }
}

/// The profile plan: one `/rollups` fetch from the first aggregator the
/// master names; each malformed window is one error.
impl Plan for ProfileConfig {
    /// The aggregator followed and the windows fetched.
    type Answer = (Option<Uri>, Vec<Rollup>);
    type Fetch = ();

    fn integrate(
        &self,
        rollups: Option<()>,
        bytes: &[u8],
        (aggregator, windows): &mut Self::Answer,
        get: &mut impl FnMut(NodeId, &WsRequest, ()),
    ) -> u64 {
        let response = WsResponse::from_bytes(bytes).ok().filter(WsResponse::is_ok);
        let array = |key| response.as_ref()?.body.get(key)?.as_array();
        if rollups.is_some() {
            let Some(items) = array("rollups") else {
                return 1;
            };
            let before = windows.len();
            windows.extend(items.iter().flat_map(Rollup::from_value));
            return (before + items.len() - windows.len()) as u64;
        }
        let uri = array("aggregators").and_then(|uris| Uri::parse(uris.first()?.as_str()?).ok());
        let Some((node, uri)) = uri.and_then(|uri| Some((uri_node(&uri)?, uri))) else {
            return 1;
        };
        let (from, to) = self.range;
        let mut request = WsRequest::get("/rollups")
            .with_query("level", "district")
            .with_query("quantity", self.quantity.as_str())
            .with_query("from", from.to_string())
            .with_query("to", to.to_string());
        if let Some(window) = self.window_millis {
            request = request.with_query("window", window.to_string());
        }
        get(node, &request, ());
        *aggregator = Some(uri);
        0
    }
}

/// A client that profiles a district through its aggregator.
#[derive(Debug)]
pub struct ProfileClientNode {
    fan_in: AreaFanIn<ProfileConfig, ()>,
    snapshots: Vec<ProfileSnapshot>,
}

impl ProfileClientNode {
    /// Creates a profile client.
    pub fn new(config: ProfileConfig) -> Self {
        ProfileClientNode {
            fan_in: AreaFanIn::new(config.master, config),
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
}

impl Node for ProfileClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let request = WsRequest::get(format!("/district/{}/profile", self.fan_in.plan.district));
        self.fan_in.issue(ctx, &request, ());
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let done = self.fan_in.on_packet(ctx, &pkt);
        self.snapshots.extend(done.map(ProfileSnapshot::new));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        let done = self.fan_in.on_timer(ctx, tag);
        self.snapshots.extend(done.map(ProfileSnapshot::new));
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
            let s = &w.summary;
            assert!(s.count > 0);
            assert!(s.min <= s.mean() && s.mean() <= s.max);
        }
        assert!(snapshot.latency() > SimDuration::ZERO);
    }

    #[test]
    fn profile_with_the_master_down_times_out_once() {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = crate::deploy::Deployment::build(&mut sim, &scenario);
        sim.run_for(SimDuration::from_secs(60));
        sim.crash(deployment.master);
        let district = scenario.districts[0].district.clone();
        let client = spawn(&mut sim, deployment.master, district, (0, 1));
        sim.run_for(SimDuration::from_secs(60));
        let snapshots = sim
            .node_ref::<ProfileClientNode>(client)
            .unwrap()
            .snapshots();
        assert_eq!(snapshots.len(), 1, "{snapshots:?}");
        let snapshot = &snapshots[0];
        assert_eq!((snapshot.requests, snapshot.errors), (1, 1));
        assert!(snapshot.aggregator.is_none());
        assert!(snapshot.windows.is_empty());
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
