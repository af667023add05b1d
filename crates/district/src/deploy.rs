//! Deployment: a scenario turned into live simulation nodes.
//!
//! This reproduces the paper's Fig. 1(a) literally: for every data
//! source in the scenario a node plus its proxy is instantiated — GIS
//! databases, per-building BIM databases, per-network SIM databases,
//! measurement archives, and every device with its Device-proxy — all
//! registered on one master node, publishing into one middleware broker.

use dimmer_core::ProxyId;
use master::MasterNode;
use models::profiles::EnergyProfile;
use protocols::ieee802154::PanId;
use proxy::database_proxy::{
    BimSource, DatabaseProxyNode, GisSource, MeasurementArchiveSource, SimSource,
};
use proxy::device_proxy::{DeviceProxyConfig, DeviceProxyNode};
use proxy::registry::{self, Placement};
use pubsub::{BrokerNode, FederationConfig, ShardMap};
use simnet::{NodeId, SimDuration, Simulator};
use streams::{AggregatorConfig, AggregatorNode, WindowSpec};

use crate::scenario::{DeviceSpec, DistrictSpec, Scenario, ScenarioConfig};

/// The node ids of one deployed district.
#[derive(Debug, Clone)]
pub struct DistrictDeployment {
    /// The district id.
    pub district: dimmer_core::DistrictId,
    /// The broker shard serving this district (equals the deployment's
    /// single broker when federation is off).
    pub broker: NodeId,
    /// The GIS Database-proxy.
    pub gis_proxy: NodeId,
    /// The measurement-archive Database-proxy.
    pub archive_proxy: NodeId,
    /// One BIM Database-proxy per building.
    pub bim_proxies: Vec<NodeId>,
    /// One SIM Database-proxy per network.
    pub sim_proxies: Vec<NodeId>,
    /// One Device-proxy per device.
    pub device_proxies: Vec<NodeId>,
    /// The device nodes themselves.
    pub devices: Vec<NodeId>,
    /// The district aggregator, when the scenario enables aggregation.
    pub aggregator: Option<NodeId>,
}

/// A deployed scenario.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The master node.
    pub master: NodeId,
    /// The middleware broker — shard 0 when the scenario federates, so
    /// single-broker call sites keep working unchanged.
    pub broker: NodeId,
    /// Every broker shard, index order (`[broker]` when federation is
    /// off).
    pub brokers: Vec<NodeId>,
    /// Per-district node ids.
    pub districts: Vec<DistrictDeployment>,
}

impl Deployment {
    /// Instantiates `scenario` on `sim`: broker shard `i` and everything
    /// publishing into it (the district's proxies, devices and
    /// aggregator) land on simulation shard `i % sim.shard_count()`, so
    /// the only cross-shard traffic is what really crosses broker
    /// boundaries — bridge batches and master RPCs. With one shard that
    /// is everything on shard 0.
    pub fn build(sim: &mut Simulator, scenario: &Scenario) -> Deployment {
        let sim_shards = sim.shard_count();
        let master = sim.add_node_on(
            0,
            "master".to_owned(),
            MasterNode::new(
                scenario
                    .districts
                    .iter()
                    .map(|d| (d.district.clone(), d.name.clone())),
            ),
        );
        if let Some(ov) = scenario.config.overload {
            let (capacity, rate) = ov.admission_limits();
            sim.node_mut::<MasterNode>(master)
                .expect("just added")
                .set_admission_limits(capacity, rate);
        }

        // Broker tier: the classic single broker, or one labeled broker
        // per shard bridged into a federation (district i → shard
        // i % shards, mirroring the scenario's round-robin promise).
        // Broker i lives on simulation shard i % sim_shards.
        let brokers: Vec<NodeId> =
            match scenario.config.federation {
                None => vec![sim.add_node_on(0, "broker".to_owned(), BrokerNode::new())],
                Some(spec) => {
                    let ids: Vec<NodeId> = (0..spec.shards)
                        .map(|i| {
                            sim.add_node_on(
                                i % sim_shards,
                                format!("broker-{i}"),
                                BrokerNode::with_label(format!("b{i}")),
                            )
                        })
                        .collect();
                    let mut shard = ShardMap::new(spec.shards);
                    for (i, d) in scenario.districts.iter().enumerate() {
                        shard.assign(d.district.as_str(), i % spec.shards);
                    }
                    for (i, &id) in ids.iter().enumerate() {
                        sim.node_mut::<BrokerNode>(id)
                            .expect("just added")
                            .federate(FederationConfig {
                                index: i,
                                brokers: ids.clone(),
                                shard: shard.clone(),
                                batch: spec.batch_policy(),
                            });
                    }
                    sim.node_mut::<MasterNode>(master)
                        .expect("just added")
                        .set_shard_owners(
                            scenario.districts.iter().enumerate().map(|(i, d)| {
                                (d.district.clone(), format!("b{}", i % spec.shards))
                            }),
                        );
                    ids
                }
            };

        let districts = scenario
            .districts
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let broker_idx = i % brokers.len();
                let shard = broker_idx % sim_shards;
                deploy_district(sim, scenario, d, master, brokers[broker_idx], shard)
            })
            .collect();
        Deployment {
            master,
            broker: brokers[0],
            brokers,
            districts,
        }
    }

    /// [`Deployment::build`] under its former name. `benchmark/` is the
    /// only caller.
    #[doc(hidden)]
    pub fn build_parallel(sim: &mut Simulator, scenario: &Scenario) -> Deployment {
        Self::build(sim, scenario)
    }

    /// Every Device-proxy across districts.
    pub fn device_proxies(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.districts
            .iter()
            .flat_map(|d| d.device_proxies.iter().copied())
    }

    /// Every aggregator across districts (empty without aggregation).
    pub fn aggregators(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.districts.iter().filter_map(|d| d.aggregator)
    }

    /// Total node count of the deployment (excluding clients).
    pub fn node_count(&self) -> usize {
        1 + self.brokers.len()
            + self
                .districts
                .iter()
                .map(|d| {
                    2 + d.bim_proxies.len()
                        + d.sim_proxies.len()
                        + d.device_proxies.len()
                        + d.devices.len()
                        + usize::from(d.aggregator.is_some())
                })
                .sum::<usize>()
    }
}

fn deploy_district(
    sim: &mut Simulator,
    scenario: &Scenario,
    spec: &DistrictSpec,
    master: NodeId,
    broker: NodeId,
    shard: usize,
) -> DistrictDeployment {
    let did = &spec.district;
    let config = &scenario.config;

    // GIS database + proxy.
    let mut gis_db = gis::feature::GisDatabase::new();
    for b in &spec.buildings {
        gis_db
            .insert(gis::feature::Feature::new(
                format!("feat-{}", b.building),
                gis::feature::Geometry::Polygon(b.footprint.clone()),
                dimmer_core::Value::object([
                    ("kind", dimmer_core::Value::from("building")),
                    ("building", dimmer_core::Value::from(b.building.as_str())),
                ]),
            ))
            .expect("feature ids are unique");
    }
    let gis_proxy = sim.add_node_on(
        shard,
        format!("gis-{did}"),
        DatabaseProxyNode::new(
            ProxyId::new(format!("gis-{did}")).expect("grammatical"),
            did.clone(),
            master,
            Box::new(GisSource::new(gis_db)),
        ),
    );

    // Measurement archive (historical CSV) + proxy.
    let archive_csv = synthesize_archive(spec, config.epoch_offset_millis);
    let archive_source =
        MeasurementArchiveSource::new(&archive_csv).expect("synthesized archive is valid");
    let archive_proxy = sim.add_node_on(
        shard,
        format!("archive-{did}"),
        DatabaseProxyNode::new(
            ProxyId::new(format!("archive-{did}")).expect("grammatical"),
            did.clone(),
            master,
            Box::new(archive_source),
        ),
    );

    // BIM databases + proxies.
    let mut bim_proxies = Vec::with_capacity(spec.buildings.len());
    for b in &spec.buildings {
        let source = BimSource::new(b.bim.to_tables())
            .expect("sample BIM tables reassemble")
            .with_location(b.location)
            .with_gis_feature(format!("feat-{}", b.building));
        bim_proxies.push(sim.add_node_on(
            shard,
            format!("bim-{}", b.building),
            DatabaseProxyNode::new(
                ProxyId::new(format!("bim-{}", b.building)).expect("grammatical"),
                did.clone(),
                master,
                Box::new(source),
            ),
        ));
    }

    // SIM databases + proxies.
    let mut sim_proxies = Vec::with_capacity(spec.networks.len());
    for n in &spec.networks {
        let legacy = n.model.to_legacy().expect("sample networks export");
        let source = SimSource::new(&legacy)
            .expect("legacy dump parses back")
            .with_location(n.location);
        sim_proxies.push(sim.add_node_on(
            shard,
            format!("sim-{}", n.network),
            DatabaseProxyNode::new(
                ProxyId::new(format!("sim-{}", n.network)).expect("grammatical"),
                did.clone(),
                master,
                Box::new(source),
            ),
        ));
    }

    // Devices + Device-proxies.
    let mut device_proxies = Vec::with_capacity(spec.device_count());
    let mut devices = Vec::with_capacity(spec.device_count());
    for b in &spec.buildings {
        for dev in &b.devices {
            let (proxy_node, device_node) = deploy_device(
                sim,
                scenario,
                spec,
                b.building.as_str(),
                dev,
                master,
                broker,
                shard,
            );
            device_proxies.push(proxy_node);
            devices.push(device_node);
        }
    }

    // Aggregation tier (opt-in): one windowed aggregator per district.
    let aggregator = config.aggregation.map(|agg| {
        let mut agg_config = AggregatorConfig::new(
            ProxyId::new(format!("agg-{did}")).expect("grammatical"),
            did.clone(),
            master,
            broker,
            config.epoch_offset_millis,
        );
        agg_config.window = WindowSpec::tumbling(agg.window_millis);
        agg_config.lateness_millis = agg.lateness_millis;
        if let Some(ov) = config.overload {
            let (capacity, rate) = ov.admission_limits();
            agg_config = agg_config.with_admission(capacity, rate);
        }
        sim.add_node_on(shard, format!("agg-{did}"), AggregatorNode::new(agg_config))
    });

    DistrictDeployment {
        district: did.clone(),
        broker,
        gis_proxy,
        archive_proxy,
        bim_proxies,
        sim_proxies,
        device_proxies,
        devices,
        aggregator,
    }
}

#[allow(clippy::too_many_arguments)]
fn deploy_device(
    sim: &mut Simulator,
    scenario: &Scenario,
    district: &DistrictSpec,
    entity_id: &str,
    dev: &DeviceSpec,
    master: NodeId,
    broker: NodeId,
    shard: usize,
) -> (NodeId, NodeId) {
    let config = &scenario.config;
    let family = registry::family(dev.protocol);
    let install = dev.install(PanId(0x2300 + district_pan_offset(district)));
    let proxy_config = DeviceProxyConfig {
        proxy: ProxyId::new(format!("proxy-{}", dev.device)).expect("grammatical"),
        district: district.district.clone(),
        entity_id: entity_id.to_owned(),
        device: dev.device.clone(),
        primary_quantity: dev.quantity,
        master,
        broker: Some(broker),
        device_node: None, // attached below
        poll_interval: family.poll_port().map(|_| config.sample_interval),
        retention: Some(SimDuration::from_hours(24 * 7)),
        location: Some(dev.location),
        epoch_offset_millis: config.epoch_offset_millis,
        publish_qos: config.publish_qos,
    };
    let proxy_node = sim.add_node_on(
        shard,
        format!("devproxy-{}", dev.device),
        DeviceProxyNode::new(proxy_config, (family.adapter)(&install)),
    );
    let device_node = family.add_device(
        sim,
        &install,
        placement(
            config,
            dev,
            format!("device-{}", dev.device),
            shard,
            proxy_node,
        ),
    );
    sim.node_mut::<DeviceProxyNode>(proxy_node)
        .expect("just added")
        .set_device_node(device_node);
    (proxy_node, device_node)
}

/// Where `dev`'s simulated device runs: named `name` on `shard`,
/// reporting to `sink` at the scenario's sample interval.
pub(crate) fn placement(
    config: &ScenarioConfig,
    dev: &DeviceSpec,
    name: String,
    shard: usize,
    sink: NodeId,
) -> Placement {
    Placement {
        name,
        shard,
        sink,
        profile: EnergyProfile::for_quantity(dev.quantity, config.seed ^ u64::from(dev.address)),
        interval: config.sample_interval,
        epoch_offset_millis: config.epoch_offset_millis,
    }
}

fn district_pan_offset(district: &DistrictSpec) -> u16 {
    // Stable per-district PAN: hash the id into a small offset.
    district.district.as_str().bytes().fold(0u16, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u16::from(b))
    }) % 0x100
}

/// Rows of synthetic history in a district's measurement archive.
const ARCHIVE_ROWS: usize = 32;

/// Synthesizes the historical CSV archive of a district.
fn synthesize_archive(spec: &DistrictSpec, epoch_millis: i64) -> String {
    use storage::legacy::csv::CsvDocument;
    let mut doc = CsvDocument::new(
        ["timestamp", "device", "quantity", "value", "unit"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
    );
    let devices: Vec<&DeviceSpec> = spec
        .buildings
        .iter()
        .flat_map(|b| b.devices.iter())
        .collect();
    if devices.is_empty() {
        return doc.encode();
    }
    let mut profiles: Vec<EnergyProfile> = devices
        .iter()
        .map(|d| EnergyProfile::for_quantity(d.quantity, 0xA5C1 ^ u64::from(d.address)))
        .collect();
    // History: the week before the simulation epoch, hourly.
    let start = epoch_millis - 7 * 24 * 3_600_000;
    for row in 0..ARCHIVE_ROWS {
        let idx = row % devices.len();
        let t = start + (row / devices.len()) as i64 * 3_600_000;
        let dev = devices[idx];
        let value = profiles[idx].sample(t);
        doc.push(vec![
            dimmer_core::Timestamp::from_unix_millis(t).to_string(),
            dev.device.as_str().to_owned(),
            dev.quantity.as_str().to_owned(),
            format!("{value:.3}"),
            dev.quantity.canonical_unit().symbol().to_owned(),
        ])
        .expect("archive schema is static");
    }
    doc.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use proxy::database_proxy::SourceTranslator;
    use simnet::{SimConfig, Simulator};

    #[test]
    fn deployment_registers_everything() {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        // 1 master + 1 broker + (gis + archive + 4 bim + 1 sim) + 12*2 nodes
        assert_eq!(deployment.node_count(), sim.node_count());
        sim.run_for(simnet::SimDuration::from_secs(120));

        let m = sim.node_ref::<MasterNode>(deployment.master).unwrap();
        // gis + archive + 4 bim + 1 sim + 12 device proxies = 19
        assert_eq!(m.proxy_count(), 19, "stats: {:?}", m.stats());
        assert_eq!(m.ontology().device_count(), 12);
        assert_eq!(m.ontology().entity_count(), 5);

        // Every proxy saw its registration acknowledged.
        for p in deployment.device_proxies() {
            assert!(
                sim.node_ref::<DeviceProxyNode>(p).unwrap().is_registered(),
                "{}",
                sim.node_name(p)
            );
        }
        let database_proxies = deployment.districts.iter().flat_map(|d| {
            [d.gis_proxy, d.archive_proxy]
                .into_iter()
                .chain(d.bim_proxies.iter().copied())
                .chain(d.sim_proxies.iter().copied())
        });
        for p in database_proxies {
            assert!(
                sim.node_ref::<DatabaseProxyNode>(p)
                    .unwrap()
                    .is_registered(),
                "{}",
                sim.node_name(p)
            );
        }
    }

    #[test]
    fn devices_feed_their_proxies() {
        let scenario = ScenarioConfig::small().build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        sim.run_for(simnet::SimDuration::from_secs(600));
        let mut total = 0;
        for p in deployment.device_proxies() {
            let proxy = sim.node_ref::<DeviceProxyNode>(p).unwrap();
            assert!(
                proxy.stats().samples_ingested > 0,
                "{} ingested nothing",
                sim.node_name(p)
            );
            assert_eq!(proxy.stats().decode_errors, 0);
            total += proxy.stats().samples_ingested;
        }
        // 12 devices at 1/min for 10 min ≈ 120 samples (plus dual-quantity
        // EnOcean profiles).
        assert!(total >= 100, "total {total}");

        // The broker saw retained publications.
        let broker = sim.node_ref::<BrokerNode>(deployment.broker).unwrap();
        assert!(broker.stats().published > 0);
        assert!(broker.stats().retained > 0);
    }

    #[test]
    fn federated_deployment_bridges_districts() {
        use crate::live::LiveMonitorNode;
        use crate::scenario::FederationSpec;

        let scenario = ScenarioConfig::small()
            .with_districts(2)
            .with_federation(FederationSpec::sharded(2))
            .build();
        let mut sim = Simulator::new(SimConfig::default());
        let deployment = Deployment::build(&mut sim, &scenario);
        assert_eq!(deployment.brokers.len(), 2);
        assert_eq!(deployment.broker, deployment.brokers[0], "back-compat");
        assert_eq!(deployment.node_count(), sim.node_count());
        // Round-robin shard ownership: district 1 lives on broker 1.
        assert_eq!(deployment.districts[1].broker, deployment.brokers[1]);

        sim.run_for(simnet::SimDuration::from_secs(120));

        // The master's ontology records each district's owning shard.
        let shards: Vec<Option<String>> = {
            let m = sim.node_ref::<MasterNode>(deployment.master).unwrap();
            scenario
                .districts
                .iter()
                .map(|d| {
                    m.ontology()
                        .district(&d.district)
                        .unwrap()
                        .broker()
                        .map(str::to_owned)
                })
                .collect()
        };
        assert_eq!(shards, vec![Some("b0".into()), Some("b1".into())]);

        // Each district's devices publish into their local shard only.
        for (i, broker) in deployment.brokers.iter().enumerate() {
            let b = sim.node_ref::<BrokerNode>(*broker).unwrap();
            assert!(b.stats().published > 0, "shard {i} saw no publishes");
        }

        // A monitor of district 1 listening on broker 0 receives every
        // value across the bridge.
        let monitor = sim.add_node(
            "monitor",
            LiveMonitorNode::new(
                deployment.master,
                deployment.brokers[0],
                scenario.districts[1].district.clone(),
                scenario.districts[1].bbox(),
            ),
        );
        sim.run_for(simnet::SimDuration::from_secs(180));
        let m = sim.node_ref::<LiveMonitorNode>(monitor).unwrap();
        assert!(m.stats().subscriptions > 0, "area resolved");
        assert!(
            !m.series().is_empty(),
            "retained messages crossed the bridge: {:?}",
            m.stats()
        );
        assert!(m.stats().updates > 0, "{:?}", m.stats());
        // The frames actually rode the bridge, batched.
        let b0 = sim.node_ref::<BrokerNode>(deployment.brokers[0]).unwrap();
        let b1 = sim.node_ref::<BrokerNode>(deployment.brokers[1]).unwrap();
        assert!(b0.bridge_stats().frames_received > 0);
        assert!(b1.bridge_stats().frames_acked > 0);
        assert_eq!(b1.bridge_stats().frames_dropped, 0);
    }

    #[test]
    fn parallel_deployment_places_districts_on_broker_shards() {
        use crate::scenario::FederationSpec;
        use simnet::ParallelConfig;

        let scenario = ScenarioConfig::small()
            .with_districts(4)
            .with_federation(FederationSpec::sharded(2))
            .build();
        let mut sim = Simulator::new(ParallelConfig {
            shards: 2,
            threads: 2,
            ..ParallelConfig::default()
        });
        let deployment = Deployment::build(&mut sim, &scenario);
        assert_eq!(deployment.master.shard(), 0);
        for (i, b) in deployment.brokers.iter().enumerate() {
            assert_eq!(b.shard(), i % 2, "broker {i} on its own shard");
        }
        // Every district node lives on its broker's shard.
        for d in &deployment.districts {
            let home = d.broker.shard();
            for id in d
                .device_proxies
                .iter()
                .chain(d.devices.iter())
                .chain([d.gis_proxy, d.archive_proxy].iter())
            {
                assert_eq!(id.shard(), home, "{}", sim.node_name(*id));
            }
        }

        sim.run_for(simnet::SimDuration::from_secs(120));
        // Cross-shard master RPCs all completed: every proxy registered.
        for p in deployment.device_proxies() {
            assert!(
                sim.node_ref::<DeviceProxyNode>(p).unwrap().is_registered(),
                "{}",
                sim.node_name(p)
            );
        }
        let m = sim.node_ref::<MasterNode>(deployment.master).unwrap();
        assert_eq!(m.ontology().device_count(), 4 * 12);
        assert!(sim.stats().cross_packets > 0, "RPCs crossed shards");
    }

    #[test]
    fn archive_synthesis_is_valid_csv() {
        let scenario = ScenarioConfig::small().build();
        let csv = synthesize_archive(&scenario.districts[0], 1_000_000);
        let source = MeasurementArchiveSource::new(&csv).unwrap();
        let batch = dimmer_core::MeasurementBatch::from_value(&source.model()).unwrap();
        assert_eq!(batch.len(), ARCHIVE_ROWS);
    }
}
