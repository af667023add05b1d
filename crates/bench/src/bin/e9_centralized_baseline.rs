//! E9 — distributed proxies vs the centralized union database.
//!
//! Claim tested: "the union of different databases into a single one is
//! usually not feasible"; the distributed design spreads the ingestion
//! and translation load across proxies. Runs the same scenario both ways
//! and compares the traffic concentration at the hottest node and the
//! full-area query cost.

use bench_support::{deploy_warm, AreaProbe};
use district::baseline::{CentralDeployment, CentralServerNode};
use district::client::ClientNode;
use district::report::{fmt_bytes, fmt_f64, Table};
use district::scenario::ScenarioConfig;
use proxy::device_proxy::DeviceProxyNode;
use proxy::webservice::WsRequest;
use simnet::{SimConfig, SimDuration, Simulator};

fn main() {
    let mut table = Table::new(
        "E9: distributed proxy mesh vs centralized union server",
        [
            "design",
            "devices",
            "ingest_rx_hottest",
            "ingest_rx_total",
            "query_latency_ms",
            "adapters_at_center",
        ],
    );
    let config = ScenarioConfig::small()
        .with_buildings(10)
        .with_devices_per_building(5);
    let horizon = SimDuration::from_secs(600);

    // --- Distributed.
    let (mut sim, deployment, scenario) = deploy_warm(config.clone(), horizon);
    let hottest = deployment
        .device_proxies()
        .map(|p| sim.node_metrics(p).bytes_received)
        .max()
        .unwrap_or(0);
    let total: u64 = deployment
        .device_proxies()
        .map(|p| sim.node_metrics(p).bytes_received)
        .sum();
    let client = ClientNode::spawn(
        &mut sim,
        &deployment,
        scenario.districts[0].district.clone(),
        scenario.districts[0].bbox(),
    );
    sim.run_for(SimDuration::from_secs(60));
    let latency = sim
        .node_ref::<ClientNode>(client)
        .and_then(ClientNode::latest_snapshot)
        .map(|s| s.latency().as_millis_f64())
        .unwrap_or(f64::NAN);
    // Sanity: every proxy decoded cleanly.
    for p in deployment.device_proxies() {
        assert_eq!(
            sim.node_ref::<DeviceProxyNode>(p)
                .expect("proxy")
                .stats()
                .decode_errors,
            0
        );
    }
    table.row([
        "distributed".to_owned(),
        scenario.device_count().to_string(),
        fmt_bytes(hottest),
        fmt_bytes(total),
        fmt_f64(latency, 2),
        "0 (adapters live at the edges)".to_owned(),
    ]);

    // --- Centralized.
    let scenario = config.build();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = CentralDeployment::build(&mut sim, &scenario);
    sim.run_for(horizon);
    let central_rx = sim.node_metrics(deployment.server).bytes_received;
    let request =
        WsRequest::get("/area").with_query("bbox", scenario.districts[0].bbox().to_query());
    let probe = sim.add_node("probe", AreaProbe::new(deployment.server, request));
    sim.run_for(SimDuration::from_secs(60));
    let latency = sim
        .node_ref::<AreaProbe>(probe)
        .and_then(|p| p.latency)
        .map(|d| d.as_millis_f64())
        .unwrap_or(f64::NAN);
    let server = sim
        .node_ref::<CentralServerNode>(deployment.server)
        .expect("server");
    table.row([
        "centralized".to_owned(),
        scenario.device_count().to_string(),
        fmt_bytes(central_rx),
        fmt_bytes(central_rx),
        fmt_f64(latency, 2),
        format!("{} (one per device)", deployment.devices.len()),
    ]);
    println!("central server stats: {:?}", server.stats());
    println!("{table}");
    println!("# series (csv)\n{}", table.to_csv());
    println!(
        "note: 'ingest_rx_hottest' is the busiest single node's ingest \
         traffic — the centralization hot-spot the paper avoids."
    );
}
