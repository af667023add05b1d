//! E1 — end-to-end area query latency vs district size.
//!
//! Claim tested: the redirect architecture scales with the number of
//! buildings because the master only resolves, never relays. The table
//! reports, per district size, the query latency percentiles and how
//! many bytes the master versus the proxies contributed to the answer.

use bench_support::stats::Summary;
use bench_support::{deploy_warm, run_queries};
use district::report::{fmt_bytes, fmt_f64, Table};
use district::scenario::ScenarioConfig;
use simnet::SimDuration;

fn main() {
    let mut table = Table::new(
        "E1: area query latency vs district size (distributed redirect)",
        [
            "buildings",
            "devices",
            "queries",
            "lat_mean_ms",
            "lat_p95_ms",
            "master_tx",
            "client_rx",
            "requests_per_query",
        ],
    );
    for &buildings in &[5usize, 10, 20, 40, 80] {
        let config = ScenarioConfig::small()
            .with_buildings(buildings)
            .with_devices_per_building(2);
        let (mut sim, deployment, scenario) = deploy_warm(config, SimDuration::from_secs(300));
        sim.reset_metrics();
        let snapshots = run_queries(&mut sim, &deployment, &scenario, 5);
        let mut latency = Summary::new("latency");
        let mut requests = 0u64;
        for s in &snapshots {
            latency.record_duration(s.latency());
            requests += s.requests;
        }
        let master_tx = sim.node_metrics(deployment.master).bytes_sent;
        let client_rx: u64 = (0..5)
            .filter_map(|i| sim.find_node(&format!("probe-client-{i}")))
            .map(|c| sim.node_metrics(c).bytes_received)
            .sum();
        table.row([
            buildings.to_string(),
            scenario.device_count().to_string(),
            snapshots.len().to_string(),
            fmt_f64(latency.mean(), 2),
            fmt_f64(latency.percentile(95.0), 2),
            fmt_bytes(master_tx),
            fmt_bytes(client_rx),
            fmt_f64(requests as f64 / snapshots.len().max(1) as f64, 1),
        ]);
    }
    println!("{table}");
    println!("# series (csv)\n{}", table.to_csv());
}
