//! The device-family registry: one row per protocol family.
//!
//! A protocol is its codec (`protocols::<p>`), its [`DeviceAdapter`]
//! and one [`Family`] row in [`FAMILIES`]. The row is everything else a
//! deployment needs to know: how a device pairs with its adapter,
//! whether the Device-proxy polls it and on which port, what the
//! scenario generator installs, and the family's share of a typical
//! district. The proxy, the scenario generator, the deployment, the
//! centralized baseline and e3 index or iterate the rows; none of them
//! matches on [`ProtocolKind`].

use dimmer_core::QuantityKind;
use models::profiles::EnergyProfile;
use protocols::device::{
    CoapFieldServer, EnoceanSensor, FieldServer, Ieee802154Sensor, OpcUaFieldServer, UplinkDevice,
    ZigbeeSensor,
};
use protocols::enocean::Eep;
use protocols::ieee802154::PanId;
use protocols::ProtocolKind;
use simnet::rng::DeterministicRng;
use simnet::{NodeId, Port, SimDuration, Simulator};

use crate::adapters::{
    CoapAdapter, DeviceAdapter, EnoceanAdapter, Ieee802154Adapter, OpcUaAdapter, ZigbeeAdapter,
};
use crate::devices::{PolledDeviceNode, UplinkDeviceNode};

/// One device installation: what a deployment knows about a device
/// before it exists.
#[derive(Debug, Clone, Copy)]
pub struct Install {
    /// Its protocol family.
    pub protocol: ProtocolKind,
    /// The quantity it reports.
    pub quantity: QuantityKind,
    /// EnOcean equipment profile (EnOcean devices only).
    pub eep: Option<Eep>,
    /// Radio / NWK address.
    pub address: u32,
    /// The PAN raw 802.15.4 devices join.
    pub pan: PanId,
}

/// Where a device node runs and what it reports.
#[derive(Debug)]
pub struct Placement {
    /// The node's unique name.
    pub name: String,
    /// The simulation shard it lives on.
    pub shard: usize,
    /// The node a push device sends its frames to.
    pub sink: NodeId,
    /// The reading it samples.
    pub profile: EnergyProfile,
    /// How often it samples.
    pub interval: SimDuration,
    /// Unix time at simulation start.
    pub epoch_offset_millis: i64,
}

/// How a family's simulated device talks to its proxy.
#[derive(Debug, Clone, Copy)]
pub enum Device {
    /// Pushes frames to its sink unasked.
    Push(fn(&Install) -> Box<dyn UplinkDevice>),
    /// Answers rpc-framed polls on `port`.
    Polled {
        /// The port it answers on.
        port: Port,
        /// Its field server.
        server: fn(&Install) -> Box<dyn FieldServer>,
    },
}

/// One protocol family.
#[derive(Debug)]
pub struct Family {
    /// The protocol.
    pub kind: ProtocolKind,
    /// Its weight in `ProtocolMix::typical()`.
    pub share: f64,
    /// The scenario generator's draw of what an install reports.
    pub draw: fn(&mut DeterministicRng) -> (QuantityKind, Option<Eep>),
    /// The Device-proxy's dedicated layer for an install.
    pub adapter: fn(&Install) -> Box<dyn DeviceAdapter>,
    /// The simulated device.
    pub device: Device,
}

impl Family {
    /// The port the device answers polls on; `None` for a push device.
    pub fn poll_port(&self) -> Option<Port> {
        match self.device {
            Device::Push(_) => None,
            Device::Polled { port, .. } => Some(port),
        }
    }

    /// Adds the simulated device of `install` to `sim`.
    pub fn add_device(&self, sim: &mut Simulator, install: &Install, at: Placement) -> NodeId {
        match self.device {
            Device::Push(device) => sim.add_node_on(
                at.shard,
                at.name,
                UplinkDeviceNode::new(
                    device(install),
                    at.profile,
                    at.sink,
                    at.interval,
                    at.epoch_offset_millis,
                ),
            ),
            Device::Polled { port, server } => sim.add_node_on(
                at.shard,
                at.name,
                PolledDeviceNode::new(
                    server(install),
                    port,
                    at.profile,
                    at.interval,
                    at.epoch_offset_millis,
                ),
            ),
        }
    }
}

/// The row of `kind`.
pub fn family(kind: ProtocolKind) -> &'static Family {
    FAMILIES
        .iter()
        .find(|f| f.kind == kind)
        .expect("every protocol kind has a row")
}

/// One row per protocol family, in the order `ProtocolMix` sums its
/// weights.
pub static FAMILIES: [Family; 5] = [
    Family {
        kind: ProtocolKind::Ieee802154,
        share: 0.2,
        draw: |rng| {
            let quantities = [
                QuantityKind::Temperature,
                QuantityKind::ActivePower,
                QuantityKind::ElectricalEnergy,
                QuantityKind::Humidity,
                QuantityKind::SwitchState,
            ];
            (*rng.choose(&quantities).expect("non-empty"), None)
        },
        adapter: |i| Box::new(Ieee802154Adapter::new(i.pan, i.address as u16)),
        device: Device::Push(|i| {
            Box::new(Ieee802154Sensor::new(i.pan, i.address as u16, i.quantity))
        }),
    },
    Family {
        kind: ProtocolKind::Zigbee,
        share: 0.35,
        draw: |rng| {
            // Only quantities with a ZCL cluster mapping.
            let quantities = [
                QuantityKind::Temperature,
                QuantityKind::Humidity,
                QuantityKind::ActivePower,
                QuantityKind::ElectricalEnergy,
                QuantityKind::SwitchState,
            ];
            (*rng.choose(&quantities).expect("non-empty"), None)
        },
        adapter: |i| Box::new(ZigbeeAdapter::new(i.address as u16)),
        device: Device::Push(|i| Box::new(ZigbeeSensor::new(i.address as u16, i.quantity))),
    },
    Family {
        kind: ProtocolKind::EnOcean,
        share: 0.25,
        draw: |rng| {
            let eep = *rng
                .choose(&[Eep::A50205, Eep::A50401, Eep::A51201, Eep::D50001])
                .expect("non-empty");
            (eep.quantity(), Some(eep))
        },
        adapter: |i| Box::new(EnoceanAdapter::new(i.address, i.eep.unwrap_or(Eep::A50205))),
        device: Device::Push(|i| {
            Box::new(EnoceanSensor::new(i.address, i.eep.unwrap_or(Eep::A50205)))
        }),
    },
    Family {
        kind: ProtocolKind::OpcUa,
        share: 0.1,
        draw: |_| (QuantityKind::ThermalEnergy, None),
        adapter: |i| {
            Box::new(OpcUaAdapter::new(
                OpcUaFieldServer::value_node_for(i.quantity),
                i.quantity,
            ))
        },
        device: Device::Polled {
            port: Port(4840),
            server: |i| Box::new(OpcUaFieldServer::new(i.quantity)),
        },
    },
    Family {
        kind: ProtocolKind::Coap,
        share: 0.1,
        draw: |_| (QuantityKind::Co2, None),
        adapter: |i| Box::new(CoapAdapter::new(i.quantity)),
        device: Device::Polled {
            port: Port(5683),
            server: |i| Box::new(CoapFieldServer::new(i.quantity)),
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_round_trips() {
        let mut rng = DeterministicRng::seed_from(7);
        for family in &FAMILIES {
            for address in 0x0142..0x0146 {
                let (quantity, eep) = (family.draw)(&mut rng);
                crate::testkit::round_trip(&Install {
                    protocol: family.kind,
                    quantity,
                    eep,
                    address,
                    pan: PanId(0x2301),
                });
            }
        }
    }

    #[test]
    fn each_protocol_kind_has_one_row() {
        use ProtocolKind::{Coap, EnOcean, Ieee802154, OpcUa, Zigbee};
        // No wildcard: a new variant stops this compiling until it is
        // listed, and then fails until it has its row.
        let listed = |kind| match kind {
            Ieee802154 | Zigbee | EnOcean | OpcUa | Coap => kind,
        };
        let kinds = [Ieee802154, Zigbee, EnOcean, OpcUa, Coap].map(listed);
        // One row per kind, in the order `ProtocolMix` sums their weights.
        assert_eq!(FAMILIES.each_ref().map(|f| f.kind), kinds);
    }
}
