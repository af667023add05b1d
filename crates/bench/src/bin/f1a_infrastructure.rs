//! F1a — the paper's Fig. 1(a), reproduced as executable structure.
//!
//! Prints the assembled infrastructure (what the figure draws) and a
//! full trace of one area query through it (what the figure implies).

use bench_support::deploy_warm;
use bench_support::report::Table;
use district::client::ClientNode;
use district::scenario::ScenarioConfig;
use master::MasterNode;
use proxy::device_proxy::DeviceProxyNode;
use simnet::SimDuration;

fn main() {
    let mut config = ScenarioConfig::small();
    config.districts = 2;
    config.buildings_per_district = 3;
    config.devices_per_building = 2;
    let (mut sim, deployment, scenario) = deploy_warm(config, SimDuration::from_secs(600));

    println!("Fig. 1(a) — infrastructure schema, instantiated\n");
    let mut topology = Table::new(
        "Deployed data sources and proxies",
        ["district", "source kind", "count", "example node"],
    );
    for (d, spec) in deployment.districts.iter().zip(&scenario.districts) {
        topology.row([
            spec.district.to_string(),
            "GIS database".to_owned(),
            "1".to_owned(),
            sim.node_name(d.gis_proxy).to_owned(),
        ]);
        topology.row([
            spec.district.to_string(),
            "measurement archive".to_owned(),
            "1".to_owned(),
            sim.node_name(d.archive_proxy).to_owned(),
        ]);
        topology.row([
            spec.district.to_string(),
            "BIM database (per building)".to_owned(),
            d.bim_proxies.len().to_string(),
            sim.node_name(d.bim_proxies[0]).to_owned(),
        ]);
        topology.row([
            spec.district.to_string(),
            "SIM database (per network)".to_owned(),
            d.sim_proxies.len().to_string(),
            sim.node_name(d.sim_proxies[0]).to_owned(),
        ]);
        topology.row([
            spec.district.to_string(),
            "device + Device-proxy".to_owned(),
            d.device_proxies.len().to_string(),
            sim.node_name(d.device_proxies[0]).to_owned(),
        ]);
    }
    println!("{topology}");

    let master = sim
        .node_ref::<MasterNode>(deployment.master)
        .expect("master");
    println!(
        "master node: {} proxies registered, ontology = {} districts / {} entities / {} devices\n",
        master.proxy_count(),
        master.ontology().district_count(),
        master.ontology().entity_count(),
        master.ontology().device_count()
    );

    // Trace one query.
    println!("--- query trace: end-user asks for district d0's full area ---");
    let client = ClientNode::spawn(
        &mut sim,
        &deployment,
        scenario.districts[0].district.clone(),
        scenario.districts[0].bbox(),
    );
    sim.run_for(SimDuration::from_secs(30));
    let snapshot = sim
        .node_ref::<ClientNode>(client)
        .expect("client")
        .latest_snapshot()
        .expect("completed")
        .clone();
    println!("1. client -> master: GET /district/d0/area?bbox=…");
    println!(
        "2. master -> client: redirect with {} entity URIs + {} device URIs",
        snapshot.resolution.entities.len(),
        snapshot.resolution.devices.len()
    );
    for entity in &snapshot.resolution.entities {
        println!(
            "3. client -> {}: GET /model  ({})",
            entity.db_proxy(),
            entity.kind()
        );
    }
    for device in snapshot.resolution.devices.iter().take(3) {
        println!(
            "4. client -> {}: GET /data?quantity={}  ({})",
            device.proxy(),
            device.quantity(),
            device.protocol()
        );
    }
    if snapshot.resolution.devices.len() > 3 {
        println!(
            "   … {} more device fetches",
            snapshot.resolution.devices.len() - 3
        );
    }
    println!(
        "5. client integrates: {} entity models + {} measurements in {} requests, {:?} end-to-end, {} errors",
        snapshot.entities.len(),
        snapshot.measurements.len(),
        snapshot.requests,
        snapshot.latency(),
        snapshot.errors
    );

    // Per-proxy ingestion proves the left side of the figure is alive.
    let ingested: u64 = deployment
        .device_proxies()
        .map(|p| {
            sim.node_ref::<DeviceProxyNode>(p)
                .expect("proxy")
                .stats()
                .samples_ingested
        })
        .sum();
    println!("\ndevice side: {ingested} samples ingested across all Device-proxies");
    assert_eq!(snapshot.errors, 0);
}
