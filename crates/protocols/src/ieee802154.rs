//! IEEE 802.15.4 MAC frames.
//!
//! Implements the 2006 MAC frame format: a 16-bit frame control field,
//! sequence number, PAN/device addressing (none, 16-bit short, 64-bit
//! extended), payload, and the 16-bit FCS (CRC-16/CCITT, polynomial
//! 0x1021, as specified in §7.2.1.9 of the standard). Multi-byte fields
//! are little-endian per the standard.

use dimmer_core::bytes::Cursor;

use crate::ProtocolError;

/// A 16-bit PAN identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PanId(pub u16);

/// A device address: none, 16-bit short, or 64-bit extended (EUI-64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Address {
    /// Address field absent.
    None,
    /// 16-bit short address assigned at association.
    Short(u16),
    /// 64-bit extended address (EUI-64).
    Extended(u64),
}

impl Address {
    fn mode_bits(self) -> u16 {
        match self {
            Address::None => 0b00,
            Address::Short(_) => 0b10,
            Address::Extended(_) => 0b11,
        }
    }

    fn encoded_len(self) -> usize {
        match self {
            Address::None => 0,
            Address::Short(_) => 2,
            Address::Extended(_) => 8,
        }
    }
}

/// The MAC frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FrameType {
    /// A beacon frame.
    Beacon,
    /// A data frame.
    Data,
    /// An acknowledgement frame.
    Ack,
    /// A MAC command frame.
    MacCommand,
}

impl FrameType {
    fn bits(self) -> u16 {
        match self {
            FrameType::Beacon => 0b000,
            FrameType::Data => 0b001,
            FrameType::Ack => 0b010,
            FrameType::MacCommand => 0b011,
        }
    }

    fn from_bits(bits: u16) -> Result<Self, ProtocolError> {
        match bits {
            0b000 => Ok(FrameType::Beacon),
            0b001 => Ok(FrameType::Data),
            0b010 => Ok(FrameType::Ack),
            0b011 => Ok(FrameType::MacCommand),
            other => Err(ProtocolError::Unsupported {
                context: "802.15.4 frame type",
                value: u64::from(other),
            }),
        }
    }
}

/// An IEEE 802.15.4 MAC frame. Its payload is borrowed: from the
/// sender's bytes when it is built, from the received bytes when it is
/// decoded.
///
/// ```
/// use protocols::ieee802154::{MacFrame, FrameType, Address, PanId};
/// # fn main() -> Result<(), protocols::ProtocolError> {
/// let frame = MacFrame::data(
///     PanId(0x23AD),
///     Address::Short(0x0001),   // coordinator
///     Address::Short(0x004F),   // sensor
///     17,
///     &[0xA0, 0x42],
/// );
/// let bytes = frame.encode();
/// assert_eq!(MacFrame::decode(&bytes)?, frame);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacFrame<'a> {
    /// The frame type.
    pub frame_type: FrameType,
    /// Whether the sender requests an acknowledgement.
    pub ack_request: bool,
    /// Whether more frames are pending for the recipient.
    pub frame_pending: bool,
    /// The sequence number.
    pub sequence: u8,
    /// Destination PAN (present whenever the destination address is).
    pub dest_pan: Option<PanId>,
    /// Destination address.
    pub dest: Address,
    /// Source PAN (elided when equal to `dest_pan`, per PAN-id compression).
    pub src_pan: Option<PanId>,
    /// Source address.
    pub src: Address,
    /// MAC payload.
    pub payload: &'a [u8],
}

impl<'a> MacFrame<'a> {
    /// Builds an intra-PAN data frame with ack-request set, the common
    /// shape for sensor uplinks.
    pub fn data(pan: PanId, dest: Address, src: Address, sequence: u8, payload: &'a [u8]) -> Self {
        MacFrame {
            frame_type: FrameType::Data,
            ack_request: true,
            frame_pending: false,
            sequence,
            dest_pan: Some(pan),
            dest,
            src_pan: None, // compressed: same as dest_pan
            src,
            payload,
        }
    }

    /// Whether PAN-id compression (src PAN elided) applies.
    fn pan_compression(&self) -> bool {
        self.dest_pan.is_some() && self.src_pan.is_none() && !matches!(self.src, Address::None)
    }

    /// The encoded length, FCS included.
    fn wire_len(&self) -> usize {
        let pans = usize::from(self.dest_pan.is_some()) + usize::from(self.src_pan.is_some());
        2 + 1 + 2 * pans + self.dest.encoded_len() + self.src.encoded_len() + self.payload.len() + 2
    }

    /// Encodes the frame including the trailing FCS into an exact-size
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not wire-consistent: a present destination
    /// address requires `dest_pan`, and a present source address requires
    /// either `src_pan` or PAN-id compression (which needs `dest_pan`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame and its FCS to `out`; the FCS is computed over
    /// the bytes just written.
    fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(
            matches!(self.dest, Address::None) || self.dest_pan.is_some(),
            "destination address requires a destination PAN"
        );
        assert!(
            matches!(self.src, Address::None) || self.src_pan.is_some() || self.pan_compression(),
            "source address requires a source PAN or PAN-id compression"
        );
        let start = out.len();
        let mut fc: u16 = self.frame_type.bits();
        if self.frame_pending {
            fc |= 1 << 4;
        }
        if self.ack_request {
            fc |= 1 << 5;
        }
        if self.pan_compression() {
            fc |= 1 << 6;
        }
        fc |= self.dest.mode_bits() << 10;
        fc |= 0b01 << 12; // frame version: IEEE 802.15.4-2006
        fc |= self.src.mode_bits() << 14;
        out.extend_from_slice(&fc.to_le_bytes());
        out.push(self.sequence);
        if let Some(PanId(pan)) = self.dest_pan {
            out.extend_from_slice(&pan.to_le_bytes());
        }
        push_address(out, self.dest);
        if let Some(PanId(pan)) = self.src_pan {
            out.extend_from_slice(&pan.to_le_bytes());
        }
        push_address(out, self.src);
        out.extend_from_slice(self.payload);
        let fcs = crc16_ccitt(&out[start..]);
        out.extend_from_slice(&fcs.to_le_bytes());
    }

    /// Decodes a frame, verifying the FCS; the payload borrows `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncation, FCS mismatch, or
    /// unsupported field values.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, ProtocolError> {
        const CTX: &str = "802.15.4 frame";
        if bytes.len() < 5 {
            return Err(ProtocolError::Truncated { context: CTX });
        }
        let mut frame = Cursor::new(bytes, CTX);
        let body = frame.take(bytes.len() - 2)?;
        let found = frame.u16_le()?;
        let expected = crc16_ccitt(body);
        if found != expected {
            return Err(ProtocolError::BadChecksum {
                context: "802.15.4 fcs",
                expected: u32::from(expected),
                found: u32::from(found),
            });
        }
        let mut r = Cursor::new(body, CTX);
        let fc = r.u16_le()?;
        let frame_type = FrameType::from_bits(fc & 0b111)?;
        if fc & (1 << 3) != 0 {
            return Err(ProtocolError::Unsupported {
                context: "802.15.4 security",
                value: 1,
            });
        }
        let frame_pending = fc & (1 << 4) != 0;
        let ack_request = fc & (1 << 5) != 0;
        let pan_compressed = fc & (1 << 6) != 0;
        let dest_mode = (fc >> 10) & 0b11;
        let src_mode = (fc >> 14) & 0b11;
        let sequence = r.u8()?;
        let (dest_pan, dest) = read_pan_address(&mut r, dest_mode)?;
        let src_pan = if src_mode != 0b00 && !pan_compressed {
            Some(PanId(r.u16_le()?))
        } else {
            None
        };
        let src = read_address(&mut r, src_mode)?;
        Ok(MacFrame {
            frame_type,
            ack_request,
            frame_pending,
            sequence,
            dest_pan,
            dest,
            src_pan,
            src,
            payload: r.rest(),
        })
    }
}

fn push_address(out: &mut Vec<u8>, addr: Address) {
    match addr {
        Address::None => {}
        Address::Short(a) => out.extend_from_slice(&a.to_le_bytes()),
        Address::Extended(a) => out.extend_from_slice(&a.to_le_bytes()),
    }
}

fn read_pan_address(
    r: &mut Cursor<'_>,
    mode: u16,
) -> Result<(Option<PanId>, Address), ProtocolError> {
    if mode == 0b00 {
        return Ok((None, Address::None));
    }
    let pan = PanId(r.u16_le()?);
    Ok((Some(pan), read_address(r, mode)?))
}

fn read_address(r: &mut Cursor<'_>, mode: u16) -> Result<Address, ProtocolError> {
    match mode {
        0b00 => Ok(Address::None),
        0b10 => Ok(Address::Short(r.u16_le()?)),
        0b11 => Ok(Address::Extended(r.u64_le()?)),
        other => Err(ProtocolError::Unsupported {
            context: "802.15.4 addressing mode",
            value: u64::from(other),
        }),
    }
}

/// CRC-16/CCITT as used by the 802.15.4 FCS (poly 0x1021, init 0x0000,
/// reflected input/output).
pub(crate) fn crc16_ccitt(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0x0000;
    for &b in bytes {
        crc ^= u16::from(b);
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0x8408; // 0x1021 reflected
            } else {
                crc >>= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MacFrame<'static> {
        MacFrame::data(
            PanId(0x23AD),
            Address::Short(0x0001),
            Address::Short(0x004F),
            17,
            &[0xDE, 0xAD, 0xBE, 0xEF],
        )
    }

    #[test]
    fn data_frame_round_trip() {
        let f = sample();
        assert_eq!(MacFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn ack_frame_round_trip() {
        let f = MacFrame {
            frame_type: FrameType::Ack,
            ack_request: false,
            frame_pending: false,
            sequence: 200,
            dest_pan: None,
            dest: Address::None,
            src_pan: None,
            src: Address::None,
            payload: &[],
        };
        let bytes = f.encode();
        // fc(2) + seq(1) + fcs(2)
        assert_eq!(bytes.len(), 5);
        assert_eq!(MacFrame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn beacon_frame_round_trip() {
        let f = MacFrame {
            frame_type: FrameType::Beacon,
            ack_request: false,
            frame_pending: false,
            sequence: 3,
            dest_pan: None,
            dest: Address::None,
            src_pan: Some(PanId(0x0001)),
            src: Address::Extended(0x00_12_4B_00_01_02_03_04),
            payload: &[0xFF, 0xCF, 0x00, 0x00],
        };
        assert_eq!(MacFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn extended_addresses_round_trip() {
        let mut f = sample();
        f.dest = Address::Extended(0xAABB_CCDD_EEFF_0011);
        f.src = Address::Extended(0x1122_3344_5566_7788);
        assert_eq!(MacFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn uncompressed_src_pan_round_trip() {
        let mut f = sample();
        f.src_pan = Some(PanId(0x1111)); // inter-PAN frame
        assert_eq!(MacFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn corrupted_fcs_detected() {
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            MacFrame::decode(&bytes),
            Err(ProtocolError::BadChecksum { .. })
        ));
    }

    #[test]
    fn corrupted_payload_detected() {
        let mut bytes = sample().encode();
        bytes[7] ^= 0x01;
        assert!(matches!(
            MacFrame::decode(&bytes),
            Err(ProtocolError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample().encode();
        for cut in 0..5 {
            assert!(MacFrame::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/KERMIT ("123456789") = 0x2189
        assert_eq!(crc16_ccitt(b"123456789"), 0x2189);
        assert_eq!(crc16_ccitt(b""), 0x0000);
    }

    #[test]
    fn empty_payload_allowed() {
        let f = MacFrame::data(PanId(1), Address::Short(1), Address::Short(2), 0, &[]);
        let bytes = f.encode();
        let back = MacFrame::decode(&bytes).unwrap();
        assert!(back.payload.is_empty());
    }

    #[test]
    fn large_payload_round_trip() {
        let payload: Vec<u8> = (0..=255).collect();
        let f = MacFrame::data(
            PanId(9),
            Address::Short(1),
            Address::Extended(42),
            9,
            &payload,
        );
        assert_eq!(MacFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn security_bit_unsupported() {
        let mut bytes = sample().encode();
        // Set the security-enabled bit in the frame control field…
        bytes[0] |= 1 << 3;
        // …and fix up the FCS so only that feature triggers the error.
        let body_len = bytes.len() - 2;
        let fcs = crc16_ccitt(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&fcs.to_le_bytes());
        assert!(matches!(
            MacFrame::decode(&bytes),
            Err(ProtocolError::Unsupported { .. })
        ));
    }
}
