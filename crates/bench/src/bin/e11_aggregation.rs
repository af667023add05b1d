//! E11 — rollup-served profiles vs client-side integration.
//!
//! Claim tested: pre-aggregating device → building → district in the
//! streaming tier makes profile queries O(windows) instead of
//! O(devices). The rollup-served client issues two requests (master
//! redirect + aggregator fetch) regardless of district size, while the
//! client-side baseline refetches every entity model and device series
//! and integrates locally, so its latency and traffic grow linearly
//! with the number of buildings.

use bench_support::deploy_warm;
use bench_support::report::{fmt_bytes, fmt_f64, Table};
use dimmer_core::QuantityKind;
use district::client::{ClientConfig, ClientNode};
use district::profile::{ProfileClientNode, ProfileConfig};
use district::scenario::{AggregationSpec, ScenarioConfig};
use district::DEFAULT_EPOCH_MILLIS;
use simnet::SimDuration;

const WINDOW_MILLIS: i64 = 300_000;
/// Profile the first two closed five-minute windows of the warmup.
const RANGE: (i64, i64) = (DEFAULT_EPOCH_MILLIS, DEFAULT_EPOCH_MILLIS + 600_000);

fn main() {
    let mut table = Table::new(
        "E11: district profile query — rollup-served vs client-side integration",
        [
            "buildings",
            "devices",
            "roll_lat_ms",
            "roll_reqs",
            "roll_client_rx",
            "roll_master_tx",
            "base_lat_ms",
            "base_reqs",
            "base_client_rx",
            "base_master_tx",
        ],
    );
    for &buildings in &[10usize, 50, 200, 500] {
        let config = ScenarioConfig::small()
            .with_buildings(buildings)
            .with_devices_per_building(1)
            .with_aggregation(AggregationSpec::tumbling(WINDOW_MILLIS).with_lateness(10_000));
        // Warm past two closed windows plus the lateness horizon.
        let (mut sim, deployment, scenario) = deploy_warm(config, SimDuration::from_secs(700));
        let district = scenario.districts[0].district.clone();
        let bbox = scenario.districts[0].bbox();

        // Rollup-served: master redirect + one aggregator fetch.
        sim.reset_metrics();
        let profile_client = sim.add_node(
            "e11-profile-client",
            ProfileClientNode::new(ProfileConfig {
                master: deployment.master,
                district: district.clone(),
                quantity: QuantityKind::Temperature,
                window_millis: None,
                range: RANGE,
            }),
        );
        sim.run_for(SimDuration::from_secs(60));
        let snapshot = sim
            .node_ref::<ProfileClientNode>(profile_client)
            .unwrap()
            .latest_snapshot()
            .expect("profile query completed")
            .clone();
        assert_eq!(snapshot.errors, 0, "profile query failed: {snapshot:?}");
        assert!(!snapshot.windows.is_empty(), "no rollups served");
        let roll_lat = snapshot.latency();
        let roll_reqs = snapshot.requests;
        let roll_client_rx = sim.node_metrics(profile_client).bytes_received;
        let roll_master_tx = sim.node_metrics(deployment.master).bytes_sent;

        // Baseline: the paper's integration flow over the same range —
        // resolve the area, fetch every entity model and device series,
        // integrate client-side.
        sim.reset_metrics();
        let base_client = sim.add_node(
            "e11-baseline-client",
            ClientNode::new(ClientConfig {
                master: deployment.master,
                district,
                bbox,
                data_window_millis: Some(RANGE),
                period: None,
                format: dimmer_core::codec::DataFormat::Json,
            }),
        );
        sim.run_for(SimDuration::from_secs(120));
        let base = sim
            .node_ref::<ClientNode>(base_client)
            .unwrap()
            .latest_snapshot()
            .expect("baseline query completed")
            .clone();
        let base_lat = base.latency();
        let base_reqs = base.requests;
        let base_client_rx = sim.node_metrics(base_client).bytes_received;
        let base_master_tx = sim.node_metrics(deployment.master).bytes_sent;

        table.row([
            buildings.to_string(),
            scenario.device_count().to_string(),
            fmt_f64(roll_lat.as_secs_f64() * 1e3, 2),
            roll_reqs.to_string(),
            fmt_bytes(roll_client_rx),
            fmt_bytes(roll_master_tx),
            fmt_f64(base_lat.as_secs_f64() * 1e3, 2),
            base_reqs.to_string(),
            fmt_bytes(base_client_rx),
            fmt_bytes(base_master_tx),
        ]);
    }
    table.print_with_series();
}
