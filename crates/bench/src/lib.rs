//! Shared helpers for the experiment binaries.
//!
//! Every experiment binary (`e1_…` … `e9_…`, `f1a_…`, `f1b_…`) prints the
//! table or series recorded in `EXPERIMENTS.md`. This support library
//! centralizes the common moves: deploying a scenario, spawning probe
//! clients, and collecting per-query statistics.

pub mod stats;

use district::client::{AreaSnapshot, ClientConfig, ClientNode};
use district::deploy::Deployment;
use district::scenario::{Scenario, ScenarioConfig};
use proxy::webservice::{WsClient, WsRequest};
use simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, Simulator, TimerTag};

/// Builds and warms a deployment: proxies registered, `warmup` of device
/// reporting done.
pub fn deploy_warm(
    config: ScenarioConfig,
    warmup: SimDuration,
) -> (Simulator, Deployment, Scenario) {
    let scenario = config.build();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(warmup);
    (sim, deployment, scenario)
}

/// Spawns `n` one-shot clients querying district 0's full area and runs
/// until they finish; returns their snapshots.
pub fn run_queries(
    sim: &mut Simulator,
    deployment: &Deployment,
    scenario: &Scenario,
    n: usize,
) -> Vec<AreaSnapshot> {
    let district = scenario.districts[0].district.clone();
    let bbox = scenario.districts[0].bbox();
    let clients: Vec<NodeId> = (0..n)
        .map(|i| {
            sim.add_node(
                format!("probe-client-{i}"),
                ClientNode::new(ClientConfig {
                    master: deployment.master,
                    district: district.clone(),
                    bbox,
                    data_window_millis: None,
                    period: None,
                    format: dimmer_core::codec::DataFormat::Json,
                }),
            )
        })
        .collect();
    sim.run_for(SimDuration::from_secs(120));
    clients
        .iter()
        .filter_map(|&c| {
            sim.node_ref::<ClientNode>(c)
                .and_then(ClientNode::latest_snapshot)
                .cloned()
        })
        .collect()
}

/// A client whose area query one server answers whole — the relay (E5)
/// or the centralized union server (E9): it sends one request at start
/// and records how long the answer took.
pub struct AreaProbe {
    client: WsClient,
    server: NodeId,
    request: WsRequest,
    /// Issue-to-answer time of the query, once answered.
    pub latency: Option<SimDuration>,
}

impl AreaProbe {
    /// A probe sending `request` to `server`.
    pub fn new(server: NodeId, request: WsRequest) -> Self {
        let client = WsClient::new(1000);
        AreaProbe {
            client,
            server,
            request,
            latency: None,
        }
    }
}

impl Node for AreaProbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.request(ctx, self.server, &self.request);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some((id, _)) = self.client.accept_encoded(&pkt) {
            let sent_at = self.client.take_sent_at(id);
            self.latency = sent_at.map(|t| ctx.now().saturating_since(t));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

/// Wall-clock timing of `f` over `iterations` runs; returns (total
/// seconds, per-iteration nanoseconds).
pub fn time_it<R>(iterations: u32, mut f: impl FnMut() -> R) -> (f64, f64) {
    let start = std::time::Instant::now();
    for _ in 0..iterations {
        std::hint::black_box(f());
    }
    let total = start.elapsed().as_secs_f64();
    (total, total * 1e9 / f64::from(iterations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_warm_and_query_work() {
        let (mut sim, deployment, scenario) =
            deploy_warm(ScenarioConfig::small(), SimDuration::from_secs(300));
        let snapshots = run_queries(&mut sim, &deployment, &scenario, 2);
        assert_eq!(snapshots.len(), 2);
        assert!(snapshots.iter().all(|s| s.errors == 0));
    }

    #[test]
    fn time_it_measures() {
        let (total, per_iter) = time_it(100, || 1 + 1);
        assert!(total >= 0.0);
        assert!(per_iter >= 0.0);
    }
}
