//! # dimmer-protocols — wire-level device protocols
//!
//! The paper's Device-proxies speak four field protocols: **IEEE
//! 802.15.4**, **ZigBee**, **EnOcean**, and **OPC UA** (the bridge to
//! legacy wired standards). This crate implements bit-accurate codecs for
//! the subset of each protocol that district energy devices actually use,
//! plus builders for the frames simulated sensors emit.
//!
//! The proxies' *dedicated layer* (see `dimmer-proxy`) decodes these
//! frames and translates them into the common data format; the
//! translation cost is measured by experiment E3.
//!
//! | Module | Standard | Subset |
//! |---|---|---|
//! | [`ieee802154`] | IEEE 802.15.4-2006 MAC | data/ack/beacon frames, short + extended addressing, FCS (CRC-16/CCITT) |
//! | [`zigbee`] | ZigBee PRO / ZCL | NWK + APS headers, ZCL attribute reports for the on/off, temperature, humidity, electrical-measurement and metering clusters |
//! | [`enocean`] | EnOcean ESP3 / ERP1 | RPS, 1BS and 4BS telegrams with common EEPs (A5-02-05, A5-04-01, A5-12-01, D5-00-01, F6-02-01), CRC-8 |
//! | [`opcua`] | OPC UA binary | NodeId, Variant, DataValue, Read/Write/Browse services over a tiny address space |
//!
//! ## Example
//!
//! ```
//! use protocols::zigbee::{self, ClusterId, ZclAttribute, ZclValue};
//!
//! # fn main() -> Result<(), protocols::ProtocolError> {
//! // A ZigBee temperature report: 21.57 degC as centidegrees.
//! let reading = [ZclAttribute::new(0x0000, ZclValue::I16(2157))];
//! let frame = zigbee::report_builder(0x1234, ClusterId::TEMPERATURE_MEASUREMENT)
//!     .attributes(&reading)
//!     .build();
//! let bytes = frame.encode();
//! let back = zigbee::ZigbeeFrame::decode(&bytes)?;
//! assert_eq!(back, frame);
//! # Ok(())
//! # }
//! ```

pub mod coap;
pub mod device;
pub mod enocean;
pub mod ieee802154;
pub mod opcua;
pub mod zigbee;

mod error;

pub use error::ProtocolError;

use std::fmt;

/// The device protocol families supported by the infrastructure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolKind {
    /// Raw IEEE 802.15.4 MAC devices.
    Ieee802154,
    /// ZigBee (NWK/APS/ZCL on top of 802.15.4).
    Zigbee,
    /// EnOcean energy-harvesting radio.
    EnOcean,
    /// OPC UA, bridging legacy wired automation.
    OpcUa,
    /// CoAP over 6LoWPAN — the IoT direction the paper's §III names.
    Coap,
}

impl ProtocolKind {
    /// The lowercase name used in ontology device properties.
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolKind::Ieee802154 => "ieee802154",
            ProtocolKind::Zigbee => "zigbee",
            ProtocolKind::EnOcean => "enocean",
            ProtocolKind::OpcUa => "opcua",
            ProtocolKind::Coap => "coap",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}
