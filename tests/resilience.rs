//! Failure-injection tests: lossy links, silent proxies, late arrivals.
//!
//! All simulations here derive their seed from `DIMMER_SEED` (default
//! 0), so `scripts/ci.sh` can sweep the suite across seeds and shake
//! out timing-dependent assertions.

use dimmer::district::client::ClientNode;
use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::{AggregationSpec, ScenarioConfig};
use dimmer::master::MasterNode;
use dimmer::proxy::device_proxy::DeviceProxyNode;
use dimmer::simnet::{LinkModel, NodeId, SimConfig, SimDuration, Simulator};

/// The test's base seed offset by the `DIMMER_SEED` environment
/// variable, for CI seed sweeps.
fn seed(base: u64) -> u64 {
    base + std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
}

fn sim_with_seed(base: u64) -> Simulator {
    Simulator::new(SimConfig { seed: seed(base) })
}

/// Puts `model` on every link between two of the simulator's nodes
/// that involves a node added at index `first` or later.
fn set_links_from(sim: &mut Simulator, first: usize, model: &LinkModel) {
    for b in first..sim.node_count() {
        for a in 0..b {
            sim.set_link(NodeId::from_index(a), NodeId::from_index(b), model.clone());
        }
    }
}

#[test]
fn lossy_network_still_converges() {
    // 5% packet loss everywhere: registrations and WS requests retry,
    // the system still assembles and answers.
    let scenario = ScenarioConfig::small().build();
    let mut sim = sim_with_seed(99);
    let deployment = Deployment::build(&mut sim, &scenario);
    let lossy = LinkModel::builder()
        .latency(SimDuration::from_millis(5))
        .bandwidth_bps(10_000_000)
        .loss(0.05)
        .build();
    set_links_from(&mut sim, 0, &lossy);
    sim.run_for(SimDuration::from_secs(900));

    let master = sim.node_ref::<MasterNode>(deployment.master).unwrap();
    assert_eq!(
        master.ontology().device_count(),
        12,
        "all devices eventually registered despite loss"
    );

    let first = sim.node_count();
    let client = ClientNode::spawn(
        &mut sim,
        &deployment,
        scenario.districts[0].district.clone(),
        scenario.districts[0].bbox(),
    );
    set_links_from(&mut sim, first, &lossy);
    sim.run_for(SimDuration::from_secs(120));
    let snapshot = sim
        .node_ref::<ClientNode>(client)
        .unwrap()
        .latest_snapshot()
        .unwrap()
        .clone();
    // Individual fetches may fail even after retries; the snapshot is
    // still produced and mostly complete.
    assert!(
        !snapshot.measurements.is_empty(),
        "snapshot carried no data at all"
    );
    assert!(
        snapshot.resolution.entities.len() >= 4,
        "resolution too incomplete: {}",
        snapshot.resolution.entities.len()
    );
}

#[test]
fn wireless_sensor_links_degrade_gracefully() {
    // Device → proxy links with degraded 802.15.4-class quality (5%
    // loss, 250 kbit/s): some frames are lost, the rest still flow.
    let scenario = ScenarioConfig::small().build();
    let mut sim = sim_with_seed(1);
    let deployment = Deployment::build(&mut sim, &scenario);
    let lossy = LinkModel::builder()
        .latency(SimDuration::from_millis(5))
        .bandwidth_bps(250_000)
        .jitter(SimDuration::from_millis(2))
        .loss(0.05)
        .build();
    for (proxy, device) in deployment.districts[0]
        .device_proxies
        .iter()
        .zip(&deployment.districts[0].devices)
    {
        sim.set_link(*device, *proxy, lossy.clone());
    }
    sim.run_for(SimDuration::from_secs(1200));

    let mut ingested = 0u64;
    for p in deployment.device_proxies() {
        ingested += sim
            .node_ref::<DeviceProxyNode>(p)
            .unwrap()
            .stats()
            .samples_ingested;
    }
    // 12 devices * 20 minutes * 1/min = 240 expected pushes; with 1%
    // loss plus OPC UA polling most arrive.
    assert!(ingested > 180, "only {ingested} samples made it");
    assert!(sim.metrics().packets_lost > 0, "loss model was exercised");
}

#[test]
fn late_proxy_joins_running_system() {
    use dimmer::core::{DeviceId, ProxyId, QuantityKind};
    use dimmer::models::profiles::EnergyProfile;
    use dimmer::protocols::device::ZigbeeSensor;
    use dimmer::proxy::adapters::ZigbeeAdapter;
    use dimmer::proxy::device_proxy::DeviceProxyConfig;
    use dimmer::proxy::devices::UplinkDeviceNode;
    use dimmer::pubsub::QoS;

    let scenario = ScenarioConfig::small().build();
    let mut sim = sim_with_seed(2);
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(300));

    let before = sim
        .node_ref::<MasterNode>(deployment.master)
        .unwrap()
        .ontology()
        .device_count();

    // A new sensor is installed mid-run.
    let proxy = sim.add_node(
        "late-proxy",
        DeviceProxyNode::new(
            DeviceProxyConfig {
                proxy: ProxyId::new("late-proxy").unwrap(),
                district: scenario.districts[0].district.clone(),
                entity_id: scenario.districts[0].buildings[0]
                    .building
                    .as_str()
                    .to_owned(),
                device: DeviceId::new("late-device").unwrap(),
                primary_quantity: QuantityKind::Co2,
                master: deployment.master,
                broker: deployment.broker,
                poll_interval: None,
                retention: None,
                location: Some(scenario.districts[0].buildings[0].location),
                epoch_offset_millis: scenario.config.epoch_offset_millis,
                publish_qos: QoS::AtMostOnce,
            },
            Box::new(ZigbeeAdapter::new(0x9999)),
        ),
    );
    let device = sim.add_node(
        "late-device",
        UplinkDeviceNode::new(
            Box::new(ZigbeeSensor::new(0x9999, QuantityKind::Temperature)),
            EnergyProfile::for_quantity(QuantityKind::Temperature, 77),
            proxy,
            SimDuration::from_secs(30),
            scenario.config.epoch_offset_millis,
        ),
    );
    sim.node_mut::<DeviceProxyNode>(proxy)
        .unwrap()
        .set_device_node(device);
    sim.run_for(SimDuration::from_secs(120));

    let master = sim.node_ref::<MasterNode>(deployment.master).unwrap();
    assert_eq!(master.ontology().device_count(), before + 1);
    assert!(sim
        .node_ref::<DeviceProxyNode>(proxy)
        .unwrap()
        .is_registered());
    assert!(
        sim.node_ref::<DeviceProxyNode>(proxy)
            .unwrap()
            .stats()
            .samples_ingested
            > 0
    );

    // A fresh area query sees the newcomer.
    let client = ClientNode::spawn(
        &mut sim,
        &deployment,
        scenario.districts[0].district.clone(),
        scenario.districts[0].bbox(),
    );
    sim.run_for(SimDuration::from_secs(30));
    let snapshot = sim
        .node_ref::<ClientNode>(client)
        .unwrap()
        .latest_snapshot()
        .unwrap()
        .clone();
    assert!(snapshot
        .resolution
        .devices
        .iter()
        .any(|d| d.device().as_str() == "late-device"));
}

#[test]
fn dead_device_proxy_disappears_from_the_ontology() {
    // Deploy, then surgically cut one proxy's heartbeats by replacing
    // its link to the master with a total-loss link.
    let scenario = ScenarioConfig::small().build();
    let mut sim = sim_with_seed(3);
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(60));

    let victim = deployment.districts[0].device_proxies[0];
    sim.set_link(
        victim,
        deployment.master,
        LinkModel::builder().loss(1.0).build(),
    );
    // Liveness horizon is 100 s; run well past it.
    sim.run_for(SimDuration::from_secs(400));

    let master = sim.node_ref::<MasterNode>(deployment.master).unwrap();
    assert!(master.stats().evictions >= 1, "{:?}", master.stats());
    assert_eq!(
        master.ontology().device_count(),
        11,
        "the victim's leaf is gone"
    );
}

/// Everything the master knows, duplicates included: the registry size
/// and, per district, each aggregator URI, entity id and device id.
fn master_view(sim: &Simulator, deployment: &Deployment) -> (usize, Vec<String>) {
    let master = sim.node_ref::<MasterNode>(deployment.master).unwrap();
    let mut entries = Vec::new();
    for d in &deployment.districts {
        let tree = master.ontology().district(&d.district).unwrap();
        entries.extend(tree.aggregator_proxies().iter().map(|u| format!("agg {u}")));
        for entity in tree.entities() {
            entries.push(format!("entity {}", entity.id()));
            entries.extend(
                entity
                    .devices()
                    .iter()
                    .map(|leaf| format!("device {}", leaf.device())),
            );
        }
    }
    entries.sort();
    (master.proxy_count(), entries)
}

#[test]
fn evicted_proxy_reregisters_and_reappears_exactly_once() {
    // An eviction is not a death sentence: when the proxy's link comes
    // back, its next heartbeat is answered 404 and it re-registers. What
    // it contributed to the ontology — a device leaf, a building entity
    // (with the leaves under it), an aggregator URI — must reappear
    // exactly once, not duplicated by the re-registration. The three
    // node types share one `MasterSession`; each is a victim in turn.
    // (what is evicted, its node, the counter its re-registration is
    // reported under)
    type Victim = (&'static str, fn(&Deployment) -> NodeId, &'static str);
    let victims: [Victim; 3] = [
        (
            "device proxy",
            |d| d.districts[0].device_proxies[0],
            "proxy.reregister",
        ),
        (
            "BIM database proxy",
            |d| d.districts[0].bim_proxies[0],
            "proxy.reregister",
        ),
        (
            "district aggregator",
            |d| d.districts[0].aggregator.unwrap(),
            "streams.reregister",
        ),
    ];
    let scenario = ScenarioConfig::small()
        .with_aggregation(AggregationSpec::tumbling(60_000))
        .build();
    for (name, pick, counter) in victims {
        let mut sim = sim_with_seed(4);
        let deployment = Deployment::build(&mut sim, &scenario);
        sim.run_for(SimDuration::from_secs(60));
        let victim = pick(&deployment);
        let before = master_view(&sim, &deployment);

        sim.set_link(
            victim,
            deployment.master,
            LinkModel::builder().loss(1.0).build(),
        );
        sim.run_for(SimDuration::from_secs(400));
        let master = sim.node_ref::<MasterNode>(deployment.master).unwrap();
        assert!(
            master.stats().evictions >= 1,
            "{name}: {:?}",
            master.stats()
        );
        assert!(
            master.proxy_count() < before.0,
            "{name}: the victim was evicted"
        );

        // The link heals; the next heartbeat discovers the eviction.
        sim.set_link(victim, deployment.master, LinkModel::lan());
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(master_view(&sim, &deployment), before, "{name}");
        assert!(sim.telemetry().metrics.counter(counter) >= 1, "{name}");
        assert!(
            sim.is_up(victim),
            "{name}: the victim never crashed, only its link did"
        );
    }
}
