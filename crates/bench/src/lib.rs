//! Shared helpers for the experiment binaries.
//!
//! Every experiment binary (`e1_…` … `e15_…`, `f1a_…`, `f1b_…`) prints
//! the table or series recorded in `EXPERIMENTS.md`. This support
//! library centralizes the common moves: deploying a scenario, spawning
//! probe clients and subscribers, collecting per-query statistics and
//! printing the tables ([`report`]).

pub mod report;
pub mod stats;

use district::client::{AreaSnapshot, ClientConfig, ClientNode};
use district::deploy::Deployment;
use district::scenario::{Scenario, ScenarioConfig};
use proxy::webservice::{WsClient, WsRequest};
use pubsub::{PubSubClient, PubSubEvent, QoS, TopicFilter, PUBSUB_PORT};
use simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, SimTime, Simulator, TimerTag};

/// Builds `config`'s scenario and deploys it on a fresh single-shard
/// simulator, not yet run.
pub fn deploy(config: ScenarioConfig) -> (Simulator, Deployment, Scenario) {
    let scenario = config.build();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    (sim, deployment, scenario)
}

/// [`deploy`], then `warmup` of proxy registration and device
/// reporting.
pub fn deploy_warm(
    config: ScenarioConfig,
    warmup: SimDuration,
) -> (Simulator, Deployment, Scenario) {
    let (mut sim, deployment, scenario) = deploy(config);
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
        self.client.request(ctx, self.server, &self.request, ());
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some((settled, _)) = self.client.accept_encoded(&pkt) {
            self.latency = Some(ctx.now().saturating_since(settled.issued_at));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

/// A subscriber to one filter that records when each message arrived
/// and counts the broker restarts its client noticed.
pub struct Subscriber {
    client: PubSubClient,
    filter: TopicFilter,
    qos: QoS,
    keepalive: Option<SimDuration>,
    /// Arrival instant of every delivered message.
    pub received: Vec<SimTime>,
    /// Broker restarts the client noticed.
    pub broker_restarts: u64,
}

impl Subscriber {
    /// A subscriber of `broker` to `filter` at `qos`, pinging the broker
    /// every `keepalive` when set.
    ///
    /// # Panics
    ///
    /// Panics if `filter` is not a valid topic filter.
    pub fn new(broker: NodeId, filter: &str, qos: QoS, keepalive: Option<SimDuration>) -> Self {
        Subscriber {
            client: PubSubClient::new(broker, 100),
            filter: TopicFilter::new(filter).expect("valid filter"),
            qos,
            keepalive,
            received: Vec::new(),
            broker_restarts: 0,
        }
    }
}

impl Node for Subscriber {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(ctx, self.filter.clone(), self.qos);
        if let Some(interval) = self.keepalive {
            self.client.start_keepalive(ctx, interval);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != PUBSUB_PORT {
            return;
        }
        match self.client.accept(ctx, &pkt) {
            Some(PubSubEvent::Message { .. }) => self.received.push(ctx.now()),
            Some(PubSubEvent::BrokerRestarted { .. }) => self.broker_restarts += 1,
            _ => {}
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
