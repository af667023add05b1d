//! Live monitoring: the event-driven alternative to polling.
//!
//! The paper's middleware heritage is event-driven: once an application
//! knows which devices cover its area (one redirect query), it can
//! *subscribe* and let the data come to it. This example runs a polling
//! dashboard and a live monitor side by side over the same area and
//! compares their traffic and freshness.
//!
//! Run with `cargo run --example live_monitor`.

use bench_support::report::Table;
use dimmer::core::codec::DataFormat;
use dimmer::district::client::{ClientConfig, ClientNode};
use dimmer::district::deploy::Deployment;
use dimmer::district::live::LiveMonitorNode;
use dimmer::district::scenario::ScenarioConfig;
use dimmer::simnet::{SimConfig, SimDuration, Simulator};

fn main() {
    let scenario = ScenarioConfig::small().build();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(300));

    let district = scenario.districts[0].district.clone();
    let bbox = scenario.districts[0].bbox();

    // Contestant 1: a polling client, refreshing every minute.
    let poller = sim.add_node(
        "poller",
        ClientNode::new(ClientConfig {
            master: deployment.master,
            district: district.clone(),
            bbox,
            data_window_millis: None,
            period: Some(SimDuration::from_secs(60)),
            format: DataFormat::Json,
        }),
    );
    // Contestant 2: the live monitor — one resolution, then events only.
    let live = sim.add_node(
        "live",
        LiveMonitorNode::new(deployment.master, deployment.broker, district, bbox),
    );
    sim.reset_metrics();
    sim.run_for(SimDuration::from_secs(1800));

    let poll_metrics = sim.node_metrics(poller);
    let live_metrics = sim.node_metrics(live);
    let poll_snapshots = sim
        .node_ref::<ClientNode>(poller)
        .expect("poller")
        .snapshots()
        .len();
    let live_node = sim.node_ref::<LiveMonitorNode>(live).expect("live");

    let mut table = Table::new(
        "Polling dashboard vs event-driven live monitor (30 min)",
        [
            "client",
            "refreshes/updates",
            "packets_sent",
            "bytes_received",
        ],
    );
    table.row([
        "polling (60 s)".to_owned(),
        poll_snapshots.to_string(),
        poll_metrics.packets_sent.to_string(),
        poll_metrics.bytes_received.to_string(),
    ]);
    table.row([
        "live monitor".to_owned(),
        live_node.stats().updates.to_string(),
        live_metrics.packets_sent.to_string(),
        live_metrics.bytes_received.to_string(),
    ]);
    println!("{table}");

    println!("live series (latest values):");
    for (key, value) in live_node.series().iter().take(6) {
        println!(
            "  {:<24} {:<18} {:>9.2} {}  (arrived {})",
            key.0,
            key.1,
            value.measurement.value(),
            value.measurement.unit(),
            value.arrived_at
        );
    }
    assert!(live_node.stats().updates as usize > poll_snapshots);
    assert!(live_metrics.packets_sent < poll_metrics.packets_sent);
    println!("ok");
}
