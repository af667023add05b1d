//! E2 — measurement ingestion throughput vs device count.
//!
//! Claim tested: ingestion scales because every device has its own
//! Device-proxy; the middleware broker is the only shared component.
//! Reports samples ingested per simulated second and broker load for
//! growing device populations, at both QoS levels.

use bench_support::report::{fmt_f64, Table};
use bench_support::{deploy, deploy_warm};
use district::scenario::ScenarioConfig;
use proxy::device_proxy::DeviceProxyNode;
use pubsub::{BrokerNode, QoS};
use simnet::{LinkModel, SimDuration};

/// QoS ablation under loss: the same publication load over a degraded
/// proxy↔broker path, at both delivery guarantees.
fn qos_under_loss(table: &mut Table, horizon: SimDuration) {
    for qos in [QoS::AtMostOnce, QoS::AtLeastOnce] {
        let mut config = ScenarioConfig::small()
            .with_buildings(10)
            .with_devices_per_building(5);
        config.sample_interval = SimDuration::from_secs(10);
        config.publish_qos = qos;
        let (mut sim, deployment, scenario) = deploy(config);
        let lossy = LinkModel::builder()
            .latency(SimDuration::from_millis(5))
            .bandwidth_bps(10_000_000)
            .loss(0.10)
            .build();
        for p in deployment.device_proxies() {
            sim.set_link(p, deployment.broker, lossy.clone());
        }
        sim.run_for(horizon);
        let mut samples = 0u64;
        for p in deployment.device_proxies() {
            samples += sim
                .node_ref::<DeviceProxyNode>(p)
                .expect("proxy")
                .stats()
                .samples_ingested;
        }
        let broker = sim
            .node_ref::<BrokerNode>(deployment.broker)
            .expect("broker");
        table.row([
            format!("{} (10% loss)", scenario.device_count()),
            match qos {
                QoS::AtMostOnce => "0".to_owned(),
                QoS::AtLeastOnce => "1".to_owned(),
            },
            samples.to_string(),
            fmt_f64(samples as f64 / horizon.as_secs_f64(), 1),
            broker.stats().published.to_string(),
            broker.stats().retries.to_string(),
            "0".to_owned(),
        ]);
    }
}

fn main() {
    let mut table = Table::new(
        "E2: ingestion throughput vs device count",
        [
            "devices",
            "qos",
            "samples",
            "samples_per_sim_s",
            "broker_published",
            "broker_retries",
            "decode_errors",
        ],
    );
    let horizon = SimDuration::from_secs(600);
    for &devices_per_building in &[2usize, 5, 10, 25, 50] {
        for qos in [QoS::AtMostOnce, QoS::AtLeastOnce] {
            let mut config = ScenarioConfig::small()
                .with_buildings(10)
                .with_devices_per_building(devices_per_building);
            config.sample_interval = SimDuration::from_secs(10);
            config.publish_qos = qos;
            let (sim, deployment, scenario) = deploy_warm(config, horizon);
            let mut samples = 0u64;
            let mut errors = 0u64;
            for p in deployment.device_proxies() {
                let proxy = sim.node_ref::<DeviceProxyNode>(p).expect("proxy");
                samples += proxy.stats().samples_ingested;
                errors += proxy.stats().decode_errors;
            }
            let broker = sim
                .node_ref::<BrokerNode>(deployment.broker)
                .expect("broker");
            table.row([
                scenario.device_count().to_string(),
                match qos {
                    QoS::AtMostOnce => "0".to_owned(),
                    QoS::AtLeastOnce => "1".to_owned(),
                },
                samples.to_string(),
                fmt_f64(samples as f64 / horizon.as_secs_f64(), 1),
                broker.stats().published.to_string(),
                broker.stats().retries.to_string(),
                errors.to_string(),
            ]);
        }
    }
    qos_under_loss(&mut table, horizon);
    table.print_with_series();
    println!(
        "note: the '10% loss' rows ablate the QoS choice — QoS 1's \
         publisher retries recover publications QoS 0 silently drops."
    );
}
