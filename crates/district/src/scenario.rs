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
use protocols::ieee802154::PanId;
use protocols::ProtocolKind;
use proxy::registry::{Family, Install, FAMILIES};
use pubsub::QoS;
use simnet::rng::DeterministicRng;
use simnet::SimDuration;

use crate::DEFAULT_EPOCH_MILLIS;

/// Centre of the first district.
const TURIN: GeoPoint = GeoPoint {
    lat: 45.0703,
    lon: 7.6869,
};

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

impl DeviceSpec {
    /// The record the device-family registry builds the device and its
    /// adapter from; `pan` is the deployment's.
    pub(crate) fn install(&self, pan: PanId) -> Install {
        Install {
            protocol: self.protocol,
            quantity: self.quantity,
            eep: self.eep,
            address: self.address,
            pan,
        }
    }
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

/// Relative weights of the protocol families, one per row of
/// [`FAMILIES`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolMix {
    weights: [f64; FAMILIES.len()],
}

impl ProtocolMix {
    /// The default mix of a mostly-wireless district with a few legacy
    /// gateways: each family's `share`.
    pub fn typical() -> Self {
        ProtocolMix {
            weights: FAMILIES.each_ref().map(|f| f.share),
        }
    }

    /// A single-protocol mix (used by the per-protocol experiments).
    pub fn only(protocol: ProtocolKind) -> Self {
        ProtocolMix {
            weights: FAMILIES.each_ref().map(|f| f64::from(f.kind == protocol)),
        }
    }

    /// Draws a family with probability proportional to its weight.
    fn pick(&self, rng: &mut DeterministicRng) -> &'static Family {
        let total: f64 = self.weights.iter().sum();
        assert!(total > 0.0, "protocol mix must have positive weight");
        let x = rng.next_f64() * total;
        let mut upto = 0.0;
        for (family, weight) in FAMILIES.iter().zip(self.weights) {
            upto += weight;
            if x < upto {
                return family;
            }
        }
        &FAMILIES[FAMILIES.len() - 1]
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
/// runs `shards` brokers instead of one, serves district `i` from broker
/// `i % shards`, and bridges the brokers with batched wire frames (see
/// [`pubsub::federation`]).
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
    /// Protocol weights.
    pub protocol_mix: ProtocolMix,
    /// How often devices report.
    pub sample_interval: SimDuration,
    /// Unix time at simulation start.
    pub epoch_offset_millis: i64,
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
    /// each.
    pub fn small() -> Self {
        ScenarioConfig {
            seed: 0xD1CE,
            districts: 1,
            buildings_per_district: 4,
            devices_per_building: 3,
            protocol_mix: ProtocolMix::typical(),
            sample_interval: SimDuration::from_secs(60),
            epoch_offset_millis: DEFAULT_EPOCH_MILLIS,
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

    /// Generates the scenario: districts side by side eastwards from
    /// Turin, each with one heating network.
    pub fn build(self) -> Scenario {
        let mut rng = DeterministicRng::seed_from(self.seed);
        let mut districts = Vec::with_capacity(self.districts);
        let mut next_address: u32 = 0x100;
        for d in 0..self.districts {
            let district = DistrictId::new(format!("d{d}")).expect("grammatical");
            let center = GeoPoint::new(TURIN.lat, TURIN.lon + 0.03 * d as f64);
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
                    let family = self.protocol_mix.pick(&mut rng);
                    let (quantity, eep) = (family.draw)(&mut rng);
                    let address = next_address;
                    next_address += 1;
                    devices.push(DeviceSpec {
                        device: DeviceId::new(format!("d{d}-b{b}-dev{v}")).expect("grammatical"),
                        protocol: family.kind,
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
            let network = NetworkId::new(format!("d{d}-net0")).expect("grammatical");
            let substations = 1 + self.buildings_per_district / 4;
            let consumers = (self.buildings_per_district / substations).max(1);
            let networks = vec![NetworkSpec {
                model: NetworkModel::sample(
                    &network,
                    NetworkKind::DistrictHeating,
                    substations,
                    consumers,
                ),
                network,
                location: center,
            }];
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

    /// FNV-1a over `(device, protocol, quantity, eep, address)` of every
    /// generated device, in generation order.
    fn device_digest(s: &Scenario) -> u64 {
        let devices = s.districts.iter().flat_map(|d| &d.buildings);
        devices
            .flat_map(|b| &b.devices)
            .fold(0xcbf2_9ce4_8422_2325, |h, dev| {
                let (id, kind, eep) = (&dev.device, dev.protocol, dev.eep);
                let line = format!("{id}|{kind}|{}|{eep:?}|{}\n", dev.quantity, dev.address);
                line.bytes()
                    .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
            })
    }

    /// Pins every draw of the generator: the protocol pick, each family's
    /// quantity draw and the order the mix's weights are summed in.
    #[test]
    fn generated_devices_are_pinned() {
        let city = |seed| {
            ScenarioConfig::small()
                .with_districts(3)
                .with_buildings(40)
                .with_seed(seed)
        };
        let only = |kind| {
            let mut config = ScenarioConfig::small();
            config.protocol_mix = ProtocolMix::only(kind);
            config
        };
        let digests: Vec<u64> = [
            ScenarioConfig::small(),
            city(1),
            city(2),
            only(ProtocolKind::Ieee802154),
            only(ProtocolKind::Zigbee),
            only(ProtocolKind::EnOcean),
            only(ProtocolKind::OpcUa),
            only(ProtocolKind::Coap),
        ]
        .into_iter()
        .map(|config| device_digest(&config.build()))
        .collect();
        assert_eq!(
            digests,
            [
                0x8a31_5315_dc72_192d,
                0xcb3d_62fd_f671_8226,
                0xacdd_86ed_3bf4_b7d9,
                0x3375_356b_b20a_acd7,
                0xc1bb_aec4_8332_ab89,
                0x2e63_2d16_28c9_07cd,
                0x482d_f881_7d08_be61,
                0xcc89_3361_95f6_4a69,
            ]
        );
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
