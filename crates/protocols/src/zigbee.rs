//! ZigBee frames: NWK + APS headers and ZCL attribute reports.
//!
//! The subset implemented is what battery-powered district sensors send:
//! an NWK data header, an APS data header addressing a cluster, and a ZCL
//! *Report Attributes* (0x0A) or *Read Attributes Response* (0x01)
//! command carrying typed attribute records. Clusters covered: On/Off,
//! Temperature Measurement, Relative Humidity, Electrical Measurement and
//! Simple Metering.

use dimmer_core::bytes::Cursor;

use crate::ProtocolError;

/// A ZigBee cluster identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u16);

impl ClusterId {
    /// On/Off cluster (0x0006).
    pub const ON_OFF: ClusterId = ClusterId(0x0006);
    /// Temperature Measurement cluster (0x0402); attribute 0x0000 is the
    /// measured value in centidegrees Celsius.
    pub const TEMPERATURE_MEASUREMENT: ClusterId = ClusterId(0x0402);
    /// Relative Humidity Measurement cluster (0x0405); attribute 0x0000
    /// in centipercent.
    pub const RELATIVE_HUMIDITY: ClusterId = ClusterId(0x0405);
    /// Electrical Measurement cluster (0x0B04); attribute 0x050B is
    /// active power in watts.
    pub const ELECTRICAL_MEASUREMENT: ClusterId = ClusterId(0x0B04);
    /// Simple Metering cluster (0x0702); attribute 0x0000 is the current
    /// summation delivered.
    pub const SIMPLE_METERING: ClusterId = ClusterId(0x0702);
}

/// A typed ZCL attribute value (ZCL data types subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZclValue {
    /// Boolean (type 0x10).
    Bool(bool),
    /// Unsigned 8-bit (type 0x20).
    U8(u8),
    /// Unsigned 16-bit (type 0x21).
    U16(u16),
    /// Unsigned 32-bit (type 0x23).
    U32(u32),
    /// Unsigned 48-bit (type 0x25), used by metering summations.
    U48(u64),
    /// Signed 16-bit (type 0x29), used by temperature and power.
    I16(i16),
    /// Signed 32-bit (type 0x2B).
    I32(i32),
}

impl ZclValue {
    /// The ZCL data type discriminator byte.
    pub(crate) fn type_id(self) -> u8 {
        match self {
            ZclValue::Bool(_) => 0x10,
            ZclValue::U8(_) => 0x20,
            ZclValue::U16(_) => 0x21,
            ZclValue::U32(_) => 0x23,
            ZclValue::U48(_) => 0x25,
            ZclValue::I16(_) => 0x29,
            ZclValue::I32(_) => 0x2B,
        }
    }

    /// The value widened to `f64` (how adapters consume it).
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            ZclValue::Bool(b) => f64::from(u8::from(b)),
            ZclValue::U8(v) => f64::from(v),
            ZclValue::U16(v) => f64::from(v),
            ZclValue::U32(v) => f64::from(v),
            ZclValue::U48(v) => v as f64,
            ZclValue::I16(v) => f64::from(v),
            ZclValue::I32(v) => f64::from(v),
        }
    }

    /// The encoded length of the value, without its type byte.
    fn encoded_len(self) -> usize {
        match self {
            ZclValue::Bool(_) | ZclValue::U8(_) => 1,
            ZclValue::U16(_) | ZclValue::I16(_) => 2,
            ZclValue::U32(_) | ZclValue::I32(_) => 4,
            ZclValue::U48(_) => 6,
        }
    }

    fn encode_into(self, out: &mut Vec<u8>) {
        match self {
            ZclValue::Bool(b) => out.push(u8::from(b)),
            ZclValue::U8(v) => out.push(v),
            ZclValue::U16(v) => out.extend_from_slice(&v.to_le_bytes()),
            ZclValue::U32(v) => out.extend_from_slice(&v.to_le_bytes()),
            ZclValue::U48(v) => out.extend_from_slice(&v.to_le_bytes()[..6]),
            ZclValue::I16(v) => out.extend_from_slice(&v.to_le_bytes()),
            ZclValue::I32(v) => out.extend_from_slice(&v.to_le_bytes()),
        }
    }

    fn decode(type_id: u8, r: &mut Cursor<'_>) -> Result<Self, ProtocolError> {
        Ok(match type_id {
            0x10 => ZclValue::Bool(r.u8()? != 0),
            0x20 => ZclValue::U8(r.u8()?),
            0x21 => ZclValue::U16(r.u16_le()?),
            0x23 => ZclValue::U32(r.u32_le()?),
            0x25 => {
                let lo = r.u32_le()?;
                let hi = r.u16_le()?;
                ZclValue::U48(u64::from(lo) | (u64::from(hi) << 32))
            }
            0x29 => ZclValue::I16(r.u16_le()? as i16),
            0x2B => ZclValue::I32(r.u32_le()? as i32),
            other => {
                return Err(ProtocolError::Unsupported {
                    context: "zcl data type",
                    value: u64::from(other),
                })
            }
        })
    }
}

/// One attribute record in a ZCL report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZclAttribute {
    /// The attribute identifier within its cluster.
    pub id: u16,
    /// The typed value.
    pub value: ZclValue,
}

impl ZclAttribute {
    /// Creates an attribute record.
    pub fn new(id: u16, value: ZclValue) -> Self {
        ZclAttribute { id, value }
    }
}

/// The ZCL command carried in the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZclCommand {
    /// Report Attributes (0x0A) — unsolicited sensor reports.
    ReportAttributes,
    /// Read Attributes Response (0x01) — reply to a poll.
    ReadAttributesResponse,
}

impl ZclCommand {
    fn id(self) -> u8 {
        match self {
            ZclCommand::ReportAttributes => 0x0A,
            ZclCommand::ReadAttributesResponse => 0x01,
        }
    }

    fn from_id(id: u8) -> Result<Self, ProtocolError> {
        match id {
            0x0A => Ok(ZclCommand::ReportAttributes),
            0x01 => Ok(ZclCommand::ReadAttributesResponse),
            other => Err(ProtocolError::Unsupported {
                context: "zcl command",
                value: u64::from(other),
            }),
        }
    }
}

/// The attribute records of a [`ZigbeeFrame`]: the sender's list, or
/// the records of a decoded frame, checked and left in their wire bytes.
#[derive(Debug, Clone, Copy)]
enum Records<'a> {
    /// Listed by the sender.
    Listed(&'a [ZclAttribute]),
    /// Decoded; each record carries a status byte when `with_status`.
    Wire { bytes: &'a [u8], with_status: bool },
}

impl<'a> Records<'a> {
    fn iter(self) -> Attributes<'a> {
        Attributes { records: self }
    }

    fn wire_len(self, with_status: bool) -> usize {
        match self {
            Records::Listed(list) => list
                .iter()
                .map(|a| 2 + usize::from(with_status) + 1 + a.value.encoded_len())
                .sum(),
            Records::Wire { bytes, .. } => bytes.len(),
        }
    }
}

impl PartialEq for Records<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Records<'_> {}

/// The attribute records of a frame, in wire order (see
/// [`ZigbeeFrame::attributes`]).
#[derive(Debug, Clone)]
pub struct Attributes<'a> {
    records: Records<'a>,
}

impl Iterator for Attributes<'_> {
    type Item = ZclAttribute;

    fn next(&mut self) -> Option<ZclAttribute> {
        match &mut self.records {
            Records::Listed(list) => {
                let (first, rest) = list.split_first()?;
                *list = rest;
                Some(*first)
            }
            Records::Wire { bytes, with_status } => {
                if bytes.is_empty() {
                    return None;
                }
                // Every record was read once by `decode`, so this read
                // succeeds.
                let mut r = Cursor::new(bytes, "zigbee frame");
                let attribute = read_record(&mut r, *with_status).ok()?;
                *bytes = r.rest();
                Some(attribute)
            }
        }
    }
}

/// Reads one attribute record: id, status (when `with_status`), type
/// and value.
fn read_record(r: &mut Cursor<'_>, with_status: bool) -> Result<ZclAttribute, ProtocolError> {
    let id = r.u16_le()?;
    if with_status {
        let status = r.u8()?;
        if status != 0 {
            return Err(ProtocolError::Malformed {
                reason: "attribute status is not SUCCESS",
            });
        }
    }
    let type_id = r.u8()?;
    let value = ZclValue::decode(type_id, r)?;
    Ok(ZclAttribute { id, value })
}

/// A ZigBee frame: NWK header, APS header and ZCL payload. Its attribute
/// records are borrowed: from the sender's list when it is built, from
/// the received bytes when it is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZigbeeFrame<'a> {
    /// NWK destination short address.
    pub(crate) nwk_dest: u16,
    /// NWK source short address (the reporting device).
    pub nwk_src: u16,
    /// Remaining hop radius.
    pub(crate) radius: u8,
    /// NWK sequence number.
    pub(crate) nwk_sequence: u8,
    /// Destination endpoint.
    pub(crate) dest_endpoint: u8,
    /// The addressed cluster.
    pub cluster: ClusterId,
    /// The application profile (0x0104 = Home Automation).
    pub(crate) profile: u16,
    /// Source endpoint.
    pub(crate) src_endpoint: u8,
    /// APS counter.
    pub(crate) aps_counter: u8,
    /// ZCL transaction sequence number.
    pub(crate) zcl_sequence: u8,
    /// The ZCL command.
    pub(crate) command: ZclCommand,
    /// The attribute records.
    records: Records<'a>,
}

/// NWK (8) + APS (8) + ZCL (3) header bytes.
const HEADER_LEN: usize = 19;

impl<'a> ZigbeeFrame<'a> {
    /// The attribute records, in wire order.
    pub fn attributes(&self) -> Attributes<'a> {
        self.records.iter()
    }

    fn with_status(&self) -> bool {
        self.command == ZclCommand::ReadAttributesResponse
    }

    /// Encodes NWK + APS + ZCL into an exact-size buffer (the payload of
    /// an 802.15.4 data frame in a real stack).
    pub fn encode(&self) -> Vec<u8> {
        let with_status = self.with_status();
        let mut out = Vec::with_capacity(HEADER_LEN + self.records.wire_len(with_status));
        // NWK header: frame control (data, protocol version 2), dest, src,
        // radius, sequence.
        let nwk_fc: u16 = 0b0000_0000_0000_1000; // version 2 in bits 2..5
        out.extend_from_slice(&nwk_fc.to_le_bytes());
        out.extend_from_slice(&self.nwk_dest.to_le_bytes());
        out.extend_from_slice(&self.nwk_src.to_le_bytes());
        out.push(self.radius);
        out.push(self.nwk_sequence);
        // APS header: frame control (data, unicast), dest endpoint,
        // cluster, profile, src endpoint, counter.
        out.push(0x00);
        out.push(self.dest_endpoint);
        out.extend_from_slice(&self.cluster.0.to_le_bytes());
        out.extend_from_slice(&self.profile.to_le_bytes());
        out.push(self.src_endpoint);
        out.push(self.aps_counter);
        // ZCL header: frame control (global, server-to-client, disable
        // default response), sequence, command.
        out.push(0x18);
        out.push(self.zcl_sequence);
        out.push(self.command.id());
        match self.records {
            Records::Listed(list) => {
                for attr in list {
                    out.extend_from_slice(&attr.id.to_le_bytes());
                    if with_status {
                        out.push(0x00); // status SUCCESS
                    }
                    out.push(attr.value.type_id());
                    attr.value.encode_into(&mut out);
                }
            }
            Records::Wire { bytes, .. } => out.extend_from_slice(bytes),
        }
        out
    }

    /// Decodes a frame produced by [`ZigbeeFrame::encode`], checking
    /// every attribute record; the records borrow `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncation or unsupported fields.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, ProtocolError> {
        const CTX: &str = "zigbee frame";
        let mut r = Cursor::new(bytes, CTX);
        let nwk_fc = r.u16_le()?;
        if nwk_fc & 0b11 != 0 {
            return Err(ProtocolError::Unsupported {
                context: "nwk frame type",
                value: u64::from(nwk_fc & 0b11),
            });
        }
        let nwk_dest = r.u16_le()?;
        let nwk_src = r.u16_le()?;
        let radius = r.u8()?;
        let nwk_sequence = r.u8()?;
        let aps_fc = r.u8()?;
        if aps_fc & 0b11 != 0 {
            return Err(ProtocolError::Unsupported {
                context: "aps frame type",
                value: u64::from(aps_fc & 0b11),
            });
        }
        let dest_endpoint = r.u8()?;
        let cluster = ClusterId(r.u16_le()?);
        let profile = r.u16_le()?;
        let src_endpoint = r.u8()?;
        let aps_counter = r.u8()?;
        let zcl_fc = r.u8()?;
        if zcl_fc & 0b11 != 0 {
            return Err(ProtocolError::Unsupported {
                context: "zcl frame type (cluster-specific commands)",
                value: u64::from(zcl_fc & 0b11),
            });
        }
        let zcl_sequence = r.u8()?;
        let command = ZclCommand::from_id(r.u8()?)?;
        let with_status = command == ZclCommand::ReadAttributesResponse;
        let records = r.clone().rest();
        while r.remaining() > 0 {
            read_record(&mut r, with_status)?;
        }
        Ok(ZigbeeFrame {
            nwk_dest,
            nwk_src,
            radius,
            nwk_sequence,
            dest_endpoint,
            cluster,
            profile,
            src_endpoint,
            aps_counter,
            zcl_sequence,
            command,
            records: Records::Wire {
                bytes: records,
                with_status,
            },
        })
    }
}

/// Builder for the common case: an unsolicited attribute report.
///
/// ```
/// use protocols::zigbee::{report_builder, ClusterId, ZclAttribute, ZclValue};
/// let on = [ZclAttribute::new(0x0000, ZclValue::Bool(true))];
/// let frame = report_builder(0x77AA, ClusterId::ON_OFF)
///     .attributes(&on)
///     .build();
/// assert_eq!(frame.cluster, ClusterId::ON_OFF);
/// ```
pub fn report_builder<'a>(nwk_src: u16, cluster: ClusterId) -> ReportBuilder<'a> {
    ReportBuilder {
        frame: ZigbeeFrame {
            nwk_dest: 0x0000, // coordinator
            nwk_src,
            radius: 30,
            nwk_sequence: 0,
            dest_endpoint: 1,
            cluster,
            profile: 0x0104, // Home Automation
            src_endpoint: 1,
            aps_counter: 0,
            zcl_sequence: 0,
            command: ZclCommand::ReportAttributes,
            records: Records::Listed(&[]),
        },
    }
}

/// Builder returned by [`report_builder`].
#[derive(Debug, Clone)]
pub struct ReportBuilder<'a> {
    frame: ZigbeeFrame<'a>,
}

impl<'a> ReportBuilder<'a> {
    /// Sets the attribute records, borrowed until the frame is encoded.
    pub fn attributes(mut self, attributes: &'a [ZclAttribute]) -> Self {
        self.frame.records = Records::Listed(attributes);
        self
    }

    /// Sets the three sequence/counter fields at once (stacks keep them
    /// loosely coupled; simulated devices just tick one counter).
    pub fn sequence(mut self, seq: u8) -> Self {
        self.frame.nwk_sequence = seq;
        self.frame.aps_counter = seq;
        self.frame.zcl_sequence = seq;
        self
    }

    /// Finalizes the frame.
    pub fn build(self) -> ZigbeeFrame<'a> {
        self.frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEMPERATURE: [ZclAttribute; 1] = [ZclAttribute {
        id: 0x0000,
        value: ZclValue::I16(2157),
    }];

    fn sample() -> ZigbeeFrame<'static> {
        report_builder(0x4F21, ClusterId::TEMPERATURE_MEASUREMENT)
            .sequence(9)
            .attributes(&TEMPERATURE)
            .build()
    }

    #[test]
    fn report_round_trip() {
        let f = sample();
        assert_eq!(ZigbeeFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn every_value_type_round_trips() {
        let values = [
            ZclValue::Bool(true),
            ZclValue::Bool(false),
            ZclValue::U8(200),
            ZclValue::U16(65500),
            ZclValue::U32(4_000_000_000),
            ZclValue::U48(0x0000_FFFF_FFFF_FFFF),
            ZclValue::I16(-2157),
            ZclValue::I32(-2_000_000_000),
        ];
        let attributes: Vec<ZclAttribute> = (0..)
            .zip(values)
            .map(|(i, v)| ZclAttribute::new(i, v))
            .collect();
        let f = report_builder(1, ClusterId::SIMPLE_METERING)
            .attributes(&attributes)
            .build();
        let bytes = f.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "sized up front");
        let back = ZigbeeFrame::decode(&bytes).unwrap();
        assert_eq!(back.attributes().count(), values.len());
        for (attr, v) in back.attributes().zip(values) {
            assert_eq!(attr.value, v);
        }
        assert_eq!(back, f);
    }

    #[test]
    fn read_attributes_response_round_trip() {
        let mut f = sample();
        f.command = ZclCommand::ReadAttributesResponse;
        assert_eq!(ZigbeeFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample().encode();
        for cut in [0, 1, 5, 8, 10, 15, bytes.len() - 1] {
            assert!(ZigbeeFrame::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_zcl_type_rejected() {
        let mut bytes = sample().encode();
        // The type byte of the first attribute is third from last + value:
        // locate it by structure: header 8 + aps 8 + zcl 3 + attr id 2 = 21.
        bytes[21] = 0xEE;
        assert!(matches!(
            ZigbeeFrame::decode(&bytes),
            Err(ProtocolError::Unsupported { .. })
        ));
    }

    #[test]
    fn u48_boundary_values() {
        for v in [0u64, 1, 0xFFFF_FFFF, 0x0000_FFFF_FFFF_FFFF] {
            let attribute = [ZclAttribute::new(0, ZclValue::U48(v))];
            let f = report_builder(1, ClusterId::SIMPLE_METERING)
                .attributes(&attribute)
                .build();
            let bytes = f.encode();
            let back = ZigbeeFrame::decode(&bytes).unwrap();
            assert_eq!(back.attributes().next().unwrap().value, ZclValue::U48(v));
        }
    }

    #[test]
    fn as_f64_widens() {
        assert_eq!(ZclValue::Bool(true).as_f64(), 1.0);
        assert_eq!(ZclValue::I16(-100).as_f64(), -100.0);
        assert_eq!(ZclValue::U48(1 << 40).as_f64(), (1u64 << 40) as f64);
    }

    #[test]
    fn builder_defaults_are_home_automation() {
        let f = sample();
        assert_eq!(f.profile, 0x0104);
        assert_eq!(f.nwk_dest, 0x0000);
        assert_eq!(f.command, ZclCommand::ReportAttributes);
    }

    #[test]
    fn empty_attribute_list_round_trips() {
        let f = report_builder(7, ClusterId::ON_OFF).build();
        let bytes = f.encode();
        let back = ZigbeeFrame::decode(&bytes).unwrap();
        assert_eq!(back.attributes().next(), None);
    }
}
