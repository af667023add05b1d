//! Live area monitoring — the event-driven extension.
//!
//! The paper's middleware heritage (SEEMPubS) is *event-driven and
//! user-centric*: applications should not poll. [`LiveMonitorNode`]
//! combines both halves of the infrastructure: it resolves an area
//! through the master **once** (redirect, on the client's engine with a
//! plan that fetches nothing), then **subscribes** to the matched
//! devices' middleware topics and maintains an always-fresh cache of
//! latest values — zero polling after the initial resolution.

use std::collections::BTreeMap;

use dimmer_core::codec::{self, DataFormat};
use dimmer_core::{DistrictId, Measurement};
use gis::geo::BoundingBox;
use ontology::AreaResolution;
use pubsub::{MeasurementTopic, PubSubClient, PubSubEvent, QoS, PUBSUB_PORT};
use simnet::{Context, Node, NodeId, Packet, SimDuration, SimTime, TimerTag};

use crate::client::{AreaFanIn, AreaPlan, Done};

const PUBSUB_TAGS: u64 = 2_000_000_000;
/// How often the monitor pings the broker, to re-subscribe after a restart.
const KEEPALIVE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// One live cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveValue {
    /// The latest measurement received for the series.
    pub measurement: Measurement,
    /// When (virtual time) it arrived at the monitor.
    pub arrived_at: SimTime,
}

/// Counters of a live monitor.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveMonitorStats {
    /// Middleware messages received.
    pub updates: u64,
    /// Messages that failed to decode as measurements.
    pub decode_errors: u64,
    /// Devices subscribed to.
    pub(crate) subscriptions: u64,
}

/// A client that keeps an area's latest values fresh through the
/// middleware instead of polling proxies.
#[derive(Debug)]
pub struct LiveMonitorNode {
    district: DistrictId,
    bbox: BoundingBox,
    fan_in: AreaFanIn<AreaPlan, ()>,
    pubsub: PubSubClient,
    resolution: Option<AreaResolution>,
    /// `(device, quantity)` → latest value.
    latest: BTreeMap<(String, String), LiveValue>,
    stats: LiveMonitorStats,
}

impl LiveMonitorNode {
    /// Creates a monitor for `bbox` in `district`.
    pub fn new(master: NodeId, broker: NodeId, district: DistrictId, bbox: BoundingBox) -> Self {
        let plan = AreaPlan {
            resolve_only: true,
            ..AreaPlan::default()
        };
        LiveMonitorNode {
            district,
            bbox,
            fan_in: AreaFanIn::new(master, plan),
            pubsub: PubSubClient::new(broker, PUBSUB_TAGS),
            resolution: None,
            latest: BTreeMap::new(),
            stats: LiveMonitorStats::default(),
        }
    }

    /// All live series, sorted by key.
    pub fn series(&self) -> Vec<(&(String, String), &LiveValue)> {
        self.latest.iter().collect()
    }

    /// Counters.
    pub fn stats(&self) -> LiveMonitorStats {
        self.stats
    }

    /// Subscribes to each device of the resolved area (none if it failed).
    fn subscribe(&mut self, ctx: &mut Context<'_>, query: Done<AreaPlan, ()>) {
        if query.errors > 0 {
            return;
        }
        let (resolution, ..) = query.answer;
        for device in &resolution.devices {
            // One wildcard per device: all its quantities. QoS 1 +
            // retained messages give the monitor an immediate first value.
            let filter =
                MeasurementTopic::device_filter(self.district.as_str(), device.device().as_str())
                    .expect("ids satisfy the filter grammar");
            self.pubsub.subscribe(ctx, filter, QoS::AtLeastOnce);
            self.stats.subscriptions += 1;
        }
        self.pubsub.start_keepalive(ctx, KEEPALIVE_INTERVAL);
        self.resolution = Some(resolution);
    }
}

impl Node for LiveMonitorNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let request = self.fan_in.plan.request(&self.district, &self.bbox);
        self.fan_in.issue(ctx, &request, ());
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(query) = self.fan_in.on_packet(ctx, &pkt) {
            return self.subscribe(ctx, query);
        }
        if pkt.port != PUBSUB_PORT {
            return;
        }
        let Some(PubSubEvent::Message { payload, .. }) = self.pubsub.accept(ctx, &pkt) else {
            return;
        };
        self.stats.updates += 1;
        let text = std::str::from_utf8(&payload).ok();
        let decoded = text.and_then(|text| codec::decode_measurement(text, DataFormat::Json).ok());
        let Some(measurement) = decoded else {
            self.stats.decode_errors += 1;
            return;
        };
        let key = (
            measurement.device().as_str().to_owned(),
            measurement.quantity().as_str().to_owned(),
        );
        // Middleware redeliveries can arrive out of order; keep the
        // chronologically newest.
        let latest = self.latest.get(&key);
        if latest.is_none_or(|old| measurement.timestamp() >= old.measurement.timestamp()) {
            let arrived_at = ctx.now();
            self.latest.insert(
                key,
                LiveValue {
                    measurement,
                    arrived_at,
                },
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag.0 >= PUBSUB_TAGS {
            self.pubsub.on_timer(ctx, tag);
        } else if let Some(query) = self.fan_in.on_timer(ctx, tag) {
            self.subscribe(ctx, query);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use crate::scenario::ScenarioConfig;
    use simnet::{SimConfig, Simulator};

    fn deployed() -> (Simulator, Deployment, crate::scenario::Scenario) {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        sim.run_for(SimDuration::from_secs(300));
        (sim, deployment, scenario)
    }

    #[test]
    fn monitor_resolves_then_tracks_live_values() {
        let (mut sim, deployment, scenario) = deployed();
        let monitor = sim.add_node(
            "monitor",
            LiveMonitorNode::new(
                deployment.master,
                deployment.broker,
                scenario.districts[0].district.clone(),
                scenario.districts[0].bbox(),
            ),
        );
        // Retained messages deliver a first value almost immediately.
        sim.run_for(SimDuration::from_secs(5));
        {
            let m = sim.node_ref::<LiveMonitorNode>(monitor).unwrap();
            assert!(m.resolution.is_some(), "area resolved");
            assert_eq!(m.stats().subscriptions, 12);
            assert!(!m.series().is_empty(), "retained messages prime the cache");
        }
        // Values keep refreshing without any further WS traffic.
        sim.run_for(SimDuration::from_secs(300));
        let m = sim.node_ref::<LiveMonitorNode>(monitor).unwrap();
        assert!(m.stats().updates > 12, "{:?}", m.stats());
        assert_eq!(m.stats().decode_errors, 0);
        // After setup the monitor only acknowledges QoS 1 deliveries: its
        // outbound traffic is bounded by what it received (1 resolve + 12
        // subscribes + one ack per update), i.e. no polling.
        let metrics = sim.node_metrics(monitor);
        assert!(
            metrics.packets_sent <= m.stats().updates + 20,
            "sent {} for {} updates — the monitor must not poll",
            metrics.packets_sent,
            m.stats().updates
        );

        // Latest values are the chronologically newest.
        for (key, value) in m.series() {
            assert_eq!(value.measurement.device().as_str(), key.0);
            assert_eq!(value.measurement.quantity().as_str(), key.1);
        }
    }

    #[test]
    fn monitor_sees_fresher_values_over_time() {
        let (mut sim, deployment, scenario) = deployed();
        let monitor = sim.add_node(
            "monitor",
            LiveMonitorNode::new(
                deployment.master,
                deployment.broker,
                scenario.districts[0].district.clone(),
                scenario.districts[0].bbox(),
            ),
        );
        sim.run_for(SimDuration::from_secs(30));
        let first: Vec<i64> = sim
            .node_ref::<LiveMonitorNode>(monitor)
            .unwrap()
            .series()
            .iter()
            .map(|(_, v)| v.measurement.timestamp().as_unix_millis())
            .collect();
        sim.run_for(SimDuration::from_secs(180));
        let later: Vec<i64> = sim
            .node_ref::<LiveMonitorNode>(monitor)
            .unwrap()
            .series()
            .iter()
            .map(|(_, v)| v.measurement.timestamp().as_unix_millis())
            .collect();
        assert!(later.len() >= first.len());
        let sum_first: i64 = first.iter().sum();
        let sum_later: i64 = later.iter().take(first.len()).sum();
        assert!(sum_later > sum_first, "timestamps advanced");
    }

    #[test]
    fn monitor_with_the_master_down_subscribes_to_nothing() {
        let (mut sim, deployment, scenario) = deployed();
        sim.crash(deployment.master);
        let monitor = sim.add_node(
            "monitor",
            LiveMonitorNode::new(
                deployment.master,
                deployment.broker,
                scenario.districts[0].district.clone(),
                scenario.districts[0].bbox(),
            ),
        );
        sim.run_for(SimDuration::from_secs(60));
        let m = sim.node_ref::<LiveMonitorNode>(monitor).unwrap();
        assert!(m.resolution.is_none());
        assert_eq!(m.stats().subscriptions, 0);
        assert!(m.series().is_empty());
        // The resolve request and its two retries, nothing after.
        assert_eq!(sim.node_metrics(monitor).packets_sent, 3);
    }

    #[test]
    fn monitor_with_unknown_district_stays_empty() {
        let (mut sim, deployment, scenario) = deployed();
        let monitor = sim.add_node(
            "monitor",
            LiveMonitorNode::new(
                deployment.master,
                deployment.broker,
                DistrictId::new("ghost").unwrap(),
                scenario.districts[0].bbox(),
            ),
        );
        sim.run_for(SimDuration::from_secs(60));
        let m = sim.node_ref::<LiveMonitorNode>(monitor).unwrap();
        assert!(m.resolution.is_none());
        assert!(m.series().is_empty());
    }
}
