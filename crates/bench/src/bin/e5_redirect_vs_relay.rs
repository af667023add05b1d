//! E5 — the redirect design vs a relaying aggregation point.
//!
//! Claim tested: the paper's master "redirects the users to the
//! interested data sources" instead of relaying the data. This ablation
//! serves the same queries both ways and reports what relaying does to
//! the aggregation point's traffic and the end-to-end latency.

use bench_support::stats::Summary;
use bench_support::{deploy_warm, AreaProbe};
use district::client::ClientNode;
use district::relay::RelayNode;
use district::report::{fmt_bytes, fmt_f64, Table};
use district::scenario::ScenarioConfig;
use proxy::webservice::WsRequest;
use simnet::SimDuration;

fn main() {
    let mut table = Table::new(
        "E5: redirect vs relay (5 sequential queries each)",
        [
            "design",
            "buildings",
            "lat_mean_ms",
            "hot_node_rx",
            "hot_node_tx",
            "client_rx",
        ],
    );
    for &buildings in &[10usize, 40] {
        let config = ScenarioConfig::small()
            .with_buildings(buildings)
            .with_devices_per_building(2);

        // --- Redirect: the paper's design.
        let (mut sim, deployment, scenario) =
            deploy_warm(config.clone(), SimDuration::from_secs(300));
        sim.reset_metrics();
        let mut latency = Summary::new("redirect");
        let mut client_rx = 0u64;
        for _ in 0..5 {
            let client = ClientNode::spawn(
                &mut sim,
                &deployment,
                scenario.districts[0].district.clone(),
                scenario.districts[0].bbox(),
            );
            sim.run_for(SimDuration::from_secs(30));
            if let Some(s) = sim
                .node_ref::<ClientNode>(client)
                .and_then(ClientNode::latest_snapshot)
            {
                latency.record_duration(s.latency());
            }
            client_rx += sim.node_metrics(client).bytes_received;
        }
        let hot = sim.node_metrics(deployment.master);
        table.row([
            "redirect".to_owned(),
            buildings.to_string(),
            fmt_f64(latency.mean(), 2),
            fmt_bytes(hot.bytes_received),
            fmt_bytes(hot.bytes_sent),
            fmt_bytes(client_rx),
        ]);

        // --- Relay: everything through one aggregation point.
        let (mut sim, deployment, scenario) = deploy_warm(config, SimDuration::from_secs(300));
        let relay = sim.add_node("relay", RelayNode::new(deployment.master));
        sim.run_for(SimDuration::from_secs(5));
        sim.reset_metrics();
        let mut latency = Summary::new("relay");
        let mut client_rx = 0u64;
        for i in 0..5 {
            let request = WsRequest::get("/area")
                .with_query("district", scenario.districts[0].district.to_string())
                .with_query("bbox", scenario.districts[0].bbox().to_query());
            let client = sim.add_node(format!("relay-client-{i}"), AreaProbe::new(relay, request));
            sim.run_for(SimDuration::from_secs(30));
            if let Some(d) = sim.node_ref::<AreaProbe>(client).and_then(|p| p.latency) {
                latency.record_duration(d);
            }
            client_rx += sim.node_metrics(client).bytes_received;
        }
        let hot = sim.node_metrics(relay);
        table.row([
            "relay".to_owned(),
            buildings.to_string(),
            fmt_f64(latency.mean(), 2),
            fmt_bytes(hot.bytes_received),
            fmt_bytes(hot.bytes_sent),
            fmt_bytes(client_rx),
        ]);
    }
    println!("{table}");
    println!("# series (csv)\n{}", table.to_csv());
    println!(
        "note: 'hot node' is the master (redirect) or the relay (relay); \
         the relay both receives and re-sends the full data volume."
    );
}
