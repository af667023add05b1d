//! Area monitoring: a dashboard application polling a district area.
//!
//! Motivating workload from the paper's introduction: "visualization and
//! simulation of energy consumption trends … to increase the energy
//! distribution network efficiency and promote user awareness". A
//! periodic client queries one area every five minutes, and the example
//! renders a tiny consumption dashboard from the integrated snapshots:
//! per-building power, district totals and the trend over time.
//!
//! Run with `cargo run --example area_monitor`.

use bench_support::report::{fmt_f64, Table};
use dimmer::core::codec::DataFormat;
use dimmer::core::QuantityKind;
use dimmer::district::client::{ClientConfig, ClientNode};
use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::ScenarioConfig;
use dimmer::simnet::{SimConfig, SimDuration, Simulator};
use std::collections::BTreeMap;

fn main() {
    // A slightly larger district so the dashboard has content.
    let scenario = ScenarioConfig::small()
        .with_buildings(6)
        .with_devices_per_building(4)
        .build();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);

    // Warm-up: 20 minutes of reporting.
    sim.run_for(SimDuration::from_secs(1200));

    // The dashboard queries every 5 minutes for half an hour.
    let district = scenario.districts[0].district.clone();
    let client = sim.add_node(
        "dashboard",
        ClientNode::new(ClientConfig {
            master: deployment.master,
            district,
            bbox: scenario.districts[0].bbox(),
            data_window_millis: None,
            period: Some(SimDuration::from_secs(300)),
            format: DataFormat::Json,
        }),
    );
    sim.run_for(SimDuration::from_secs(1801));

    let snapshots = sim
        .node_ref::<ClientNode>(client)
        .expect("dashboard node")
        .snapshots()
        .to_vec();
    println!("collected {} snapshots\n", snapshots.len());

    // Trend table: measurements per snapshot (the "consumption trend"
    // view the paper motivates).
    let mut trend = Table::new(
        "Dashboard refreshes",
        [
            "t_sim_s",
            "entities",
            "measurements",
            "latency_ms",
            "errors",
        ],
    );
    for s in &snapshots {
        trend.row([
            fmt_f64(s.started_at.as_secs_f64(), 0),
            s.resolution.entities.len().to_string(),
            s.measurements.len().to_string(),
            fmt_f64(s.latency().as_millis_f64(), 2),
            s.errors.to_string(),
        ]);
    }
    println!("{trend}");

    // Per-building mean power from the last snapshot.
    let last = snapshots.last().expect("at least one snapshot");
    let mut by_device: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for m in last.measurements.iter() {
        if m.quantity() == QuantityKind::ActivePower {
            let e = by_device.entry(m.device().as_str()).or_insert((0.0, 0));
            e.0 += m.value();
            e.1 += 1;
        }
    }
    let mut power = Table::new(
        "Mean active power by metering device (last snapshot)",
        ["device", "samples", "mean_w"],
    );
    for (device, (sum, n)) in &by_device {
        power.row([
            (*device).to_owned(),
            n.to_string(),
            fmt_f64(sum / *n as f64, 1),
        ]);
    }
    println!("{power}");

    // District totals across quantities.
    let mut totals = Table::new(
        "Samples per quantity (last snapshot)",
        ["quantity", "samples"],
    );
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for m in last.measurements.iter() {
        *counts.entry(m.quantity().as_str()).or_default() += 1;
    }
    for (q, n) in counts {
        totals.row([q.to_owned(), n.to_string()]);
    }
    println!("{totals}");

    assert!(snapshots.len() >= 6);
    assert!(snapshots.iter().all(|s| s.errors == 0));
    println!("ok");
}
