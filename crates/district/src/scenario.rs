//! Deterministic synthetic district scenarios.
//!
//! A scenario is the *data* of a district deployment: which districts
//! exist, their buildings (with BIM dumps and GIS footprints), their
//! distribution networks (with SIM dumps), and the devices installed in
//! each building (with protocols and quantities). The [`deploy`]
//! module turns a scenario into live nodes.
//!
//! [`deploy`]: crate::deploy

use dimmer_core::{BuildingId, DeviceId, DistrictId, NetworkId, QuantityKind};
use gis::geo::{BoundingBox, GeoPoint, Polygon};
use models::bim::BuildingModel;
use models::simmodel::{NetworkKind, NetworkModel};
use protocols::enocean::Eep;
use protocols::ProtocolKind;
use pubsub::QoS;
use simnet::rng::DeterministicRng;
use simnet::SimDuration;

use crate::DEFAULT_EPOCH_MILLIS;

/// One device installation in the scenario.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// The device id.
    pub device: DeviceId,
    /// Its protocol family.
    pub protocol: ProtocolKind,
    /// The quantity it reports.
    pub quantity: QuantityKind,
    /// EnOcean equipment profile (EnOcean devices only).
    pub eep: Option<Eep>,
    /// Radio/NWK address material, unique per district.
    pub address: u32,
    /// Where it is installed.
    pub location: GeoPoint,
}

/// One building with its exported BIM and GIS footprint.
#[derive(Debug, Clone)]
pub struct BuildingSpec {
    /// The building id.
    pub building: BuildingId,
    /// The information model (exported to tables by the deployment).
    pub(crate) bim: BuildingModel,
    /// Footprint polygon for the GIS database.
    pub(crate) footprint: Polygon,
    /// Reference location (footprint centroid).
    pub location: GeoPoint,
    /// Devices installed in this building.
    pub devices: Vec<DeviceSpec>,
}

/// One distribution network with its legacy SIM dump.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// The network id.
    pub network: NetworkId,
    /// The network model (exported to fixed-width records on deploy).
    pub(crate) model: NetworkModel,
    /// Reference location.
    pub location: GeoPoint,
}

/// One district of the scenario.
#[derive(Debug, Clone)]
pub struct DistrictSpec {
    /// The district id.
    pub district: DistrictId,
    /// Human-readable name.
    pub name: String,
    /// Geographic centre.
    pub center: GeoPoint,
    /// The buildings.
    pub buildings: Vec<BuildingSpec>,
    /// The distribution networks.
    pub networks: Vec<NetworkSpec>,
}

impl DistrictSpec {
    /// A bounding box covering all buildings with a margin.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::around(self.buildings.iter().map(|b| &b.location))
            .unwrap_or_else(|| BoundingBox::new(self.center, self.center))
            .expanded(0.002)
    }

    /// Total number of devices.
    pub fn device_count(&self) -> usize {
        self.buildings.iter().map(|b| b.devices.len()).sum()
    }
}

/// A complete scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The configuration it was generated from.
    pub config: ScenarioConfig,
    /// The districts.
    pub districts: Vec<DistrictSpec>,
}

impl Scenario {
    /// Total number of devices across districts.
    pub fn device_count(&self) -> usize {
        self.districts.iter().map(DistrictSpec::device_count).sum()
    }

    /// Total number of buildings across districts.
    pub fn building_count(&self) -> usize {
        self.districts.iter().map(|d| d.buildings.len()).sum()
    }
}

/// Relative weights of the four protocol families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolMix {
    /// Raw IEEE 802.15.4 devices.
    pub(crate) ieee802154: f64,
    /// ZigBee devices.
    pub(crate) zigbee: f64,
    /// EnOcean devices.
    pub(crate) enocean: f64,
    /// OPC UA gateways.
    pub(crate) opcua: f64,
    /// CoAP motes (6LoWPAN IoT devices).
    pub(crate) coap: f64,
}

impl ProtocolMix {
    /// The default mix of a mostly-wireless district with a few legacy
    /// gateways.
    pub fn typical() -> Self {
        ProtocolMix {
            ieee802154: 0.2,
            zigbee: 0.35,
            enocean: 0.25,
            opcua: 0.1,
            coap: 0.1,
        }
    }

    /// A single-protocol mix (used by the per-protocol experiments).
    pub fn only(protocol: ProtocolKind) -> Self {
        let mut mix = ProtocolMix {
            ieee802154: 0.0,
            zigbee: 0.0,
            enocean: 0.0,
            opcua: 0.0,
            coap: 0.0,
        };
        match protocol {
            ProtocolKind::Ieee802154 => mix.ieee802154 = 1.0,
            ProtocolKind::Zigbee => mix.zigbee = 1.0,
            ProtocolKind::EnOcean => mix.enocean = 1.0,
            ProtocolKind::OpcUa => mix.opcua = 1.0,
            ProtocolKind::Coap => mix.coap = 1.0,
        }
        mix
    }

    fn pick(&self, rng: &mut DeterministicRng) -> ProtocolKind {
        let total = self.ieee802154 + self.zigbee + self.enocean + self.opcua + self.coap;
        assert!(total > 0.0, "protocol mix must have positive weight");
        let x = rng.next_f64() * total;
        if x < self.ieee802154 {
            ProtocolKind::Ieee802154
        } else if x < self.ieee802154 + self.zigbee {
            ProtocolKind::Zigbee
        } else if x < self.ieee802154 + self.zigbee + self.enocean {
            ProtocolKind::EnOcean
        } else if x < self.ieee802154 + self.zigbee + self.enocean + self.opcua {
            ProtocolKind::OpcUa
        } else {
            ProtocolKind::Coap
        }
    }
}

/// Aggregation-tier parameters: when set on a scenario, the
/// deployment adds one [`streams::AggregatorNode`] per district.
///
/// [`streams::AggregatorNode`]: https://docs.rs/dimmer-streams
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationSpec {
    /// Tumbling window size in milliseconds.
    pub window_millis: i64,
    /// Lateness horizon in milliseconds (how far out of order samples
    /// may arrive and still be accepted).
    pub lateness_millis: i64,
}

impl AggregationSpec {
    /// Tumbling windows of `window_millis` with a default 30 s
    /// lateness horizon.
    pub fn tumbling(window_millis: i64) -> Self {
        AggregationSpec {
            window_millis,
            lateness_millis: 30_000,
        }
    }

    /// Overrides the lateness horizon (fluent).
    pub fn with_lateness(mut self, lateness_millis: i64) -> Self {
        self.lateness_millis = lateness_millis;
        self
    }
}

/// Broker-federation parameters: when set on a scenario, the deployment
/// runs `shards` brokers instead of one, assigns district `i` to broker
/// `i % shards` in the shard map, and bridges the brokers with batched
/// wire frames (see [`pubsub::federation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FederationSpec {
    /// Number of broker shards (1 = the classic single broker, but
    /// deployed through the federation path).
    pub shards: usize,
}

impl FederationSpec {
    /// `shards` brokers under the default bridge batch policy.
    pub fn sharded(shards: usize) -> Self {
        FederationSpec { shards }
    }

    /// The bridge batch policy of a federated deployment.
    pub fn batch_policy(&self) -> simnet::batch::BatchPolicy {
        simnet::batch::BatchPolicy::default()
    }
}

/// Overload-protection parameters: admission limits applied to the
/// deployment's query endpoints (master redirect, aggregator
/// `/rollups`). `None` on a scenario keeps each node's generous
/// defaults; setting it sizes the system for a capacity experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadSpec {
    queries_per_sec: f64,
}

impl OverloadSpec {
    /// Sizes both admission gates from a single target service rate:
    /// capacity covers one second of burst at that rate.
    pub fn rate_limited(queries_per_sec: f64) -> Self {
        OverloadSpec { queries_per_sec }
    }

    /// The `(capacity, drain_per_sec)` every gated endpoint gets.
    pub(crate) fn admission_limits(&self) -> (u64, f64) {
        let capacity = (self.queries_per_sec.ceil() as u64).max(1);
        (capacity, self.queries_per_sec)
    }
}

/// Scenario generation parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Seed for all generation randomness.
    pub seed: u64,
    /// Number of districts.
    pub districts: usize,
    /// Buildings per district.
    pub buildings_per_district: usize,
    /// Devices per building.
    pub devices_per_building: usize,
    /// Distribution networks per district.
    pub(crate) networks_per_district: usize,
    /// Protocol weights.
    pub protocol_mix: ProtocolMix,
    /// How often devices report.
    pub sample_interval: SimDuration,
    /// Unix time at simulation start.
    pub epoch_offset_millis: i64,
    /// Centre of the first district (neighbouring districts shift east).
    pub center: GeoPoint,
    /// QoS of middleware publication.
    pub publish_qos: QoS,
    /// Optional aggregation tier; `None` (the default) deploys no
    /// aggregators, preserving the seed topology.
    pub aggregation: Option<AggregationSpec>,
    /// Optional broker federation; `None` (the default) deploys the
    /// classic single broker, preserving the seed topology.
    pub federation: Option<FederationSpec>,
    /// Optional overload sizing; `None` (the default) keeps each
    /// node's generous admission defaults.
    pub(crate) overload: Option<OverloadSpec>,
}

impl ScenarioConfig {
    /// A laptop-friendly scenario: 1 district, 4 buildings, 3 devices
    /// each, 1 heating network.
    pub fn small() -> Self {
        ScenarioConfig {
            seed: 0xD1CE,
            districts: 1,
            buildings_per_district: 4,
            devices_per_building: 3,
            networks_per_district: 1,
            protocol_mix: ProtocolMix::typical(),
            sample_interval: SimDuration::from_secs(60),
            epoch_offset_millis: DEFAULT_EPOCH_MILLIS,
            center: GeoPoint::new(45.0703, 7.6869), // Turin
            publish_qos: QoS::AtMostOnce,
            aggregation: None,
            federation: None,
            overload: None,
        }
    }

    /// Scales the scenario's building count (fluent, for sweeps).
    pub fn with_buildings(mut self, n: usize) -> Self {
        self.buildings_per_district = n;
        self
    }

    /// Scales the per-building device count (fluent, for sweeps).
    pub fn with_devices_per_building(mut self, n: usize) -> Self {
        self.devices_per_building = n;
        self
    }

    /// Sets the seed (fluent).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the aggregation tier (fluent).
    pub fn with_aggregation(mut self, aggregation: AggregationSpec) -> Self {
        self.aggregation = Some(aggregation);
        self
    }

    /// Enables the federated broker tier (fluent).
    pub fn with_federation(mut self, federation: FederationSpec) -> Self {
        self.federation = Some(federation);
        self
    }

    /// Sets the district count (fluent, for federation sweeps).
    pub fn with_districts(mut self, n: usize) -> Self {
        self.districts = n;
        self
    }

    /// Sizes the deployment's admission gates (fluent).
    pub fn with_overload(mut self, overload: OverloadSpec) -> Self {
        self.overload = Some(overload);
        self
    }

    /// Generates the scenario.
    pub fn build(self) -> Scenario {
        let mut rng = DeterministicRng::seed_from(self.seed);
        let quantities = [
            QuantityKind::Temperature,
            QuantityKind::ActivePower,
            QuantityKind::ElectricalEnergy,
            QuantityKind::Humidity,
            QuantityKind::SwitchState,
        ];
        let mut districts = Vec::with_capacity(self.districts);
        let mut next_address: u32 = 0x100;
        for d in 0..self.districts {
            let district = DistrictId::new(format!("d{d}")).expect("grammatical");
            let center = GeoPoint::new(self.center.lat, self.center.lon + 0.03 * d as f64);
            let mut buildings = Vec::with_capacity(self.buildings_per_district);
            for b in 0..self.buildings_per_district {
                let building = BuildingId::new(format!("d{d}-b{b}")).expect("grammatical");
                // Buildings on a jittered grid around the centre.
                let grid = (self.buildings_per_district as f64).sqrt().ceil() as usize;
                let row = b / grid;
                let col = b % grid;
                let lat = center.lat + 0.001 * row as f64 + rng.next_f64_range(-2e-4, 2e-4);
                let lon = center.lon + 0.0012 * col as f64 + rng.next_f64_range(-2e-4, 2e-4);
                let location = GeoPoint::new(lat, lon);
                let storeys = 2 + (rng.next_bounded(4) as usize);
                let spaces = 2 + (rng.next_bounded(5) as usize);
                let bim = BuildingModel::sample(&building, storeys, spaces);
                let footprint = Polygon::new(vec![
                    GeoPoint::new(lat - 4e-5, lon - 5e-5),
                    GeoPoint::new(lat - 4e-5, lon + 5e-5),
                    GeoPoint::new(lat + 4e-5, lon + 5e-5),
                    GeoPoint::new(lat + 4e-5, lon - 5e-5),
                ]);
                let mut devices = Vec::with_capacity(self.devices_per_building);
                for v in 0..self.devices_per_building {
                    let protocol = self.protocol_mix.pick(&mut rng);
                    let (quantity, eep) = match protocol {
                        ProtocolKind::Zigbee => {
                            // Only quantities with a ZCL cluster mapping.
                            let supported = [
                                QuantityKind::Temperature,
                                QuantityKind::Humidity,
                                QuantityKind::ActivePower,
                                QuantityKind::ElectricalEnergy,
                                QuantityKind::SwitchState,
                            ];
                            (*rng.choose(&supported).expect("non-empty"), None)
                        }
                        ProtocolKind::EnOcean => {
                            let eep = *rng
                                .choose(&[Eep::A50205, Eep::A50401, Eep::A51201, Eep::D50001])
                                .expect("non-empty");
                            let quantity = match eep {
                                Eep::A50205 | Eep::A50401 => QuantityKind::Temperature,
                                Eep::A51201 => QuantityKind::ElectricalEnergy,
                                _ => QuantityKind::SwitchState,
                            };
                            (quantity, Some(eep))
                        }
                        ProtocolKind::OpcUa => (QuantityKind::ThermalEnergy, None),
                        ProtocolKind::Coap => (QuantityKind::Co2, None),
                        ProtocolKind::Ieee802154 => {
                            (*rng.choose(&quantities).expect("non-empty"), None)
                        }
                    };
                    let address = next_address;
                    next_address += 1;
                    devices.push(DeviceSpec {
                        device: DeviceId::new(format!("d{d}-b{b}-dev{v}")).expect("grammatical"),
                        protocol,
                        quantity,
                        eep,
                        address,
                        location: GeoPoint::new(
                            lat + rng.next_f64_range(-3e-5, 3e-5),
                            lon + rng.next_f64_range(-3e-5, 3e-5),
                        ),
                    });
                }
                buildings.push(BuildingSpec {
                    building,
                    bim,
                    footprint,
                    location,
                    devices,
                });
            }
            let mut networks = Vec::with_capacity(self.networks_per_district);
            for n in 0..self.networks_per_district {
                let network = NetworkId::new(format!("d{d}-net{n}")).expect("grammatical");
                let kind = if n % 2 == 0 {
                    NetworkKind::DistrictHeating
                } else {
                    NetworkKind::Electrical
                };
                let substations = 1 + self.buildings_per_district / 4;
                let consumers = (self.buildings_per_district / substations).max(1);
                networks.push(NetworkSpec {
                    model: NetworkModel::sample(&network, kind, substations, consumers),
                    network,
                    location: center,
                });
            }
            districts.push(DistrictSpec {
                district,
                name: format!("District {d}"),
                center,
                buildings,
                networks,
            });
        }
        Scenario {
            config: self,
            districts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_shape() {
        let s = ScenarioConfig::small().build();
        assert_eq!(s.districts.len(), 1);
        assert_eq!(s.building_count(), 4);
        assert_eq!(s.device_count(), 12);
        assert_eq!(s.districts[0].networks.len(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ScenarioConfig::small().build();
        let b = ScenarioConfig::small().build();
        for (da, db) in a.districts.iter().zip(&b.districts) {
            assert_eq!(da.district, db.district);
            for (ba, bb) in da.buildings.iter().zip(&db.buildings) {
                assert_eq!(ba.building, bb.building);
                assert_eq!(ba.location, bb.location);
                for (va, vb) in ba.devices.iter().zip(&bb.devices) {
                    assert_eq!(va.device, vb.device);
                    assert_eq!(va.protocol, vb.protocol);
                    assert_eq!(va.quantity, vb.quantity);
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioConfig::small().with_seed(1).build();
        let b = ScenarioConfig::small().with_seed(2).build();
        let protos = |s: &Scenario| {
            s.districts[0]
                .buildings
                .iter()
                .flat_map(|b| b.devices.iter().map(|d| d.protocol))
                .collect::<Vec<_>>()
        };
        assert_ne!(protos(&a), protos(&b));
    }

    #[test]
    fn bbox_covers_all_buildings() {
        let s = ScenarioConfig::small().with_buildings(9).build();
        let d = &s.districts[0];
        let bbox = d.bbox();
        for b in &d.buildings {
            assert!(bbox.contains(&b.location), "{}", b.building);
        }
    }

    #[test]
    fn addresses_are_unique() {
        let s = ScenarioConfig::small().with_buildings(6).build();
        let mut seen = std::collections::HashSet::new();
        for b in &s.districts[0].buildings {
            for dev in &b.devices {
                assert!(seen.insert(dev.address));
            }
        }
    }

    #[test]
    fn single_protocol_mix_respected() {
        let mut config = ScenarioConfig::small();
        config.protocol_mix = ProtocolMix::only(ProtocolKind::Zigbee);
        let s = config.build();
        for b in &s.districts[0].buildings {
            for dev in &b.devices {
                assert_eq!(dev.protocol, ProtocolKind::Zigbee);
            }
        }
    }

    #[test]
    fn multi_district_ids_distinct() {
        let mut config = ScenarioConfig::small();
        config.districts = 3;
        let s = config.build();
        assert_eq!(s.districts.len(), 3);
        let ids: std::collections::HashSet<_> =
            s.districts.iter().map(|d| d.district.clone()).collect();
        assert_eq!(ids.len(), 3);
    }
}
