//! CoAP (RFC 7252) — the paper's §III names CoAP (with 6LoWPAN and RPL)
//! as the direction for "development and optimized management of
//! wireless sensors within the Internet of Things paradigm". This module
//! implements the message layer and a constrained sensor server so the
//! infrastructure can onboard CoAP devices alongside the four original
//! families.
//!
//! Subset: CON/NON/ACK/RST types, GET/POST requests, piggy-backed
//! responses, tokens, Uri-Path and Content-Format options (delta
//! encoding with the extended 13 form), payload marker `0xFF`.

use dimmer_core::bytes::Cursor;

use crate::ProtocolError;

/// The message type (RFC 7252 §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoapType {
    /// Confirmable — requires an ACK.
    Confirmable,
    /// Non-confirmable.
    NonConfirmable,
    /// Acknowledgement (possibly piggy-backing a response).
    Acknowledgement,
    /// Reset.
    Reset,
}

impl CoapType {
    fn bits(self) -> u8 {
        match self {
            CoapType::Confirmable => 0,
            CoapType::NonConfirmable => 1,
            CoapType::Acknowledgement => 2,
            CoapType::Reset => 3,
        }
    }

    fn from_bits(b: u8) -> Self {
        match b & 0b11 {
            0 => CoapType::Confirmable,
            1 => CoapType::NonConfirmable,
            2 => CoapType::Acknowledgement,
            _ => CoapType::Reset,
        }
    }
}

/// A CoAP code: class.detail (e.g. `0.01` GET, `2.05` Content).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoapCode(pub u8);

impl CoapCode {
    /// 0.01 — GET.
    pub const GET: CoapCode = CoapCode(0x01);
    /// 0.02 — POST.
    pub const POST: CoapCode = CoapCode(0x02);
    /// 2.04 — Changed.
    pub(crate) const CHANGED: CoapCode = CoapCode(0x44);
    /// 2.05 — Content.
    pub const CONTENT: CoapCode = CoapCode(0x45);
    /// 4.04 — Not Found.
    pub(crate) const NOT_FOUND: CoapCode = CoapCode(0x84);
    /// 4.05 — Method Not Allowed.
    pub(crate) const METHOD_NOT_ALLOWED: CoapCode = CoapCode(0x85);

    /// The class digit (0 request, 2 success, 4 client error, 5 server
    /// error).
    pub(crate) fn class(self) -> u8 {
        self.0 >> 5
    }

    /// The detail digits.
    pub(crate) fn detail(self) -> u8 {
        self.0 & 0x1F
    }

    /// Whether this code marks a success response.
    pub fn is_success(self) -> bool {
        self.class() == 2
    }
}

impl std::fmt::Display for CoapCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:02}", self.class(), self.detail())
    }
}

/// Content-Format option values used by the framework.
pub mod content_format {
    /// application/json
    pub(crate) const JSON: u16 = 50;
}

/// A CoAP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoapMessage {
    /// Message type.
    pub mtype: CoapType,
    /// Code (request method or response code).
    pub code: CoapCode,
    /// Message id for deduplication/ACK matching.
    pub message_id: u16,
    /// Token correlating responses to requests (0–8 bytes).
    pub token: Vec<u8>,
    /// Uri-Path segments (option 11).
    pub uri_path: Vec<String>,
    /// Content-Format (option 12).
    pub content_format: Option<u16>,
    /// Payload (after the `0xFF` marker).
    pub payload: Vec<u8>,
}

impl CoapMessage {
    /// A confirmable GET for `path` (segments joined by `/`).
    pub fn get(message_id: u16, token: Vec<u8>, path: &str) -> Self {
        CoapMessage {
            mtype: CoapType::Confirmable,
            code: CoapCode::GET,
            message_id,
            token,
            uri_path: path
                .split('/')
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect(),
            content_format: None,
            payload: Vec::new(),
        }
    }

    /// A confirmable POST for `path` carrying a JSON payload.
    pub fn post_json(message_id: u16, token: Vec<u8>, path: &str, payload: Vec<u8>) -> Self {
        CoapMessage {
            mtype: CoapType::Confirmable,
            code: CoapCode::POST,
            message_id,
            token,
            uri_path: path
                .split('/')
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect(),
            content_format: Some(content_format::JSON),
            payload,
        }
    }

    /// The piggy-backed response to this request.
    pub(crate) fn respond(
        &self,
        code: CoapCode,
        content_format: Option<u16>,
        payload: Vec<u8>,
    ) -> Self {
        CoapMessage {
            mtype: CoapType::Acknowledgement,
            code,
            message_id: self.message_id,
            token: self.token.clone(),
            uri_path: Vec::new(),
            content_format,
            payload,
        }
    }

    /// The Uri-Path joined with `/`.
    pub(crate) fn path(&self) -> String {
        self.uri_path.join("/")
    }

    /// Encodes the message (RFC 7252 §3 framing).
    ///
    /// # Panics
    ///
    /// Panics if the token exceeds 8 bytes.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.token.len() <= 8, "token too long");
        let mut out = Vec::with_capacity(8 + self.payload.len());
        out.push(0x40 | (self.mtype.bits() << 4) | self.token.len() as u8);
        out.push(self.code.0);
        out.extend_from_slice(&self.message_id.to_be_bytes());
        out.extend_from_slice(&self.token);
        // Options must be encoded in ascending option-number order:
        // Uri-Path (11) repeats, then Content-Format (12).
        let mut last_option = 0u16;
        for seg in &self.uri_path {
            encode_option(11, seg.as_bytes(), &mut last_option, &mut out);
        }
        if let Some(cf) = self.content_format {
            let value = if cf == 0 {
                Vec::new()
            } else if cf < 256 {
                vec![cf as u8]
            } else {
                cf.to_be_bytes().to_vec()
            };
            encode_option(12, &value, &mut last_option, &mut out);
        }
        if !self.payload.is_empty() {
            out.push(0xFF);
            out.extend_from_slice(&self.payload);
        }
        out
    }

    /// Decodes a message produced by [`CoapMessage::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncation, a bad version, or an
    /// unsupported option.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        const CTX: &str = "coap message";
        let mut r = Cursor::new(bytes, CTX);
        let first = r.u8()?;
        if first >> 6 != 1 {
            return Err(ProtocolError::Unsupported {
                context: "coap version",
                value: u64::from(first >> 6),
            });
        }
        let mtype = CoapType::from_bits(first >> 4);
        let token_len = (first & 0x0F) as usize;
        if token_len > 8 {
            return Err(ProtocolError::Malformed {
                reason: "token length above 8",
            });
        }
        let code = CoapCode(r.u8()?);
        let message_id = r.u16_be()?;
        let token = r.take(token_len)?.to_vec();
        let mut uri_path = Vec::new();
        let mut content_format = None;
        let mut payload = Vec::new();
        let mut option_number = 0u16;
        while r.remaining() > 0 {
            let byte = r.u8()?;
            if byte == 0xFF {
                payload = r.rest().to_vec();
                if payload.is_empty() {
                    return Err(ProtocolError::Malformed {
                        reason: "payload marker with empty payload",
                    });
                }
                break;
            }
            let delta = decode_option_part(byte >> 4, &mut r)?;
            let length = decode_option_part(byte & 0x0F, &mut r)? as usize;
            option_number = option_number
                .checked_add(delta)
                .ok_or(ProtocolError::Malformed {
                    reason: "option delta overflow",
                })?;
            let value = r.take(length)?;
            match option_number {
                11 => uri_path.push(String::from_utf8(value.to_vec()).map_err(|_| {
                    ProtocolError::Malformed {
                        reason: "uri-path is not utf-8",
                    }
                })?),
                12 if value.len() > 2 => {
                    return Err(ProtocolError::Malformed {
                        reason: "content-format too long",
                    })
                }
                // A 0- to 2-byte big-endian unsigned integer.
                12 => content_format = Some(value.iter().fold(0, |cf, &b| cf << 8 | u16::from(b))),
                other => {
                    // Critical options (odd) must be understood; elective
                    // (even) may be skipped.
                    if other % 2 == 1 {
                        return Err(ProtocolError::Unsupported {
                            context: "critical coap option",
                            value: u64::from(other),
                        });
                    }
                }
            }
        }
        Ok(CoapMessage {
            mtype,
            code,
            message_id,
            token,
            uri_path,
            content_format,
            payload,
        })
    }
}

fn encode_option(number: u16, value: &[u8], last: &mut u16, out: &mut Vec<u8>) {
    let delta = number - *last;
    *last = number;
    let (delta_nibble, delta_ext) = nibble(delta);
    let (len_nibble, len_ext) = nibble(value.len() as u16);
    out.push((delta_nibble << 4) | len_nibble);
    out.extend_from_slice(&delta_ext);
    out.extend_from_slice(&len_ext);
    out.extend_from_slice(value);
}

/// Splits a value into the 4-bit nibble and its extension bytes
/// (13 → one extension byte, 14 → two; values above 12+255 use 14).
fn nibble(value: u16) -> (u8, Vec<u8>) {
    if value < 13 {
        (value as u8, Vec::new())
    } else if value < 13 + 256 {
        (13, vec![(value - 13) as u8])
    } else {
        (14, (value - 269).to_be_bytes().to_vec())
    }
}

fn decode_option_part(nibble: u8, r: &mut Cursor<'_>) -> Result<u16, ProtocolError> {
    match nibble {
        0..=12 => Ok(u16::from(nibble)),
        13 => Ok(13 + u16::from(r.u8()?)),
        14 => r
            .u16_be()?
            .checked_add(269)
            .ok_or(ProtocolError::Malformed {
                reason: "option extension above 65535",
            }),
        _ => Err(ProtocolError::Malformed {
            reason: "reserved option nibble 15",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: &CoapMessage) {
        assert_eq!(&CoapMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn get_round_trips() {
        round_trip(&CoapMessage::get(
            0x1234,
            vec![0xAA, 0xBB],
            "sensors/temperature",
        ));
        round_trip(&CoapMessage::get(0, vec![], "v"));
    }

    #[test]
    fn post_and_response_round_trip() {
        let post = CoapMessage::post_json(7, vec![1], "actuate", b"{\"v\":1.0}".to_vec());
        round_trip(&post);
        let resp = post.respond(
            CoapCode::CHANGED,
            Some(content_format::JSON),
            b"{\"ok\":true}".to_vec(),
        );
        round_trip(&resp);
        assert_eq!(resp.message_id, post.message_id);
        assert_eq!(resp.token, post.token);
        assert!(resp.code.is_success());
    }

    #[test]
    fn empty_ack_round_trips() {
        let ack = CoapMessage {
            mtype: CoapType::Acknowledgement,
            code: CoapCode(0x00), // empty message (pure ACK/RST)
            message_id: 9,
            token: vec![],
            uri_path: vec![],
            content_format: None,
            payload: vec![],
        };
        round_trip(&ack);
        assert_eq!(ack.encode().len(), 4, "empty message is 4 bytes");
    }

    #[test]
    fn long_path_segments_use_extended_deltas() {
        let long = "x".repeat(300);
        let m = CoapMessage::get(1, vec![], &format!("{long}/segment"));
        round_trip(&m);
    }

    #[test]
    fn content_format_encodings() {
        for cf in [0u16, 50, 65000] {
            let m = CoapMessage {
                mtype: CoapType::NonConfirmable,
                code: CoapCode::CONTENT,
                message_id: 1,
                token: vec![],
                uri_path: vec![],
                content_format: Some(cf),
                payload: b"x".to_vec(),
            };
            round_trip(&m);
        }
    }

    #[test]
    fn codes_display_dotted() {
        assert_eq!(CoapCode::GET.to_string(), "0.01");
        assert_eq!(CoapCode::CONTENT.to_string(), "2.05");
        assert_eq!(CoapCode::NOT_FOUND.to_string(), "4.04");
    }

    #[test]
    fn rejects_malformed() {
        // Wrong version.
        assert!(CoapMessage::decode(&[0x00, 0x01, 0, 0]).is_err());
        // Token length 15.
        assert!(CoapMessage::decode(&[0x4F, 0x01, 0, 0]).is_err());
        // Truncated.
        assert!(CoapMessage::decode(&[0x40, 0x01, 0]).is_err());
        // Payload marker with nothing after it.
        let mut bytes = CoapMessage::get(1, vec![], "a").encode();
        bytes.push(0xFF);
        assert!(CoapMessage::decode(&bytes).is_err());
        // Unknown critical option (13).
        let mut m = CoapMessage::get(1, vec![], "a").encode();
        // Append option with delta 2 from 11 → 13 (critical), length 0.
        m.push(0x20);
        assert!(CoapMessage::decode(&m).is_err());
    }

    #[test]
    fn option_extension_above_u16_is_malformed() {
        // Nibble 14 adds 269 to a two-byte extension: 0xFFFF + 269 fits
        // no u16, for the option delta and for the option length alike.
        for option in [0xE0, 0x0E] {
            assert_eq!(
                CoapMessage::decode(&[0x40, 0x01, 0, 0, option, 0xFF, 0xFF]),
                Err(ProtocolError::Malformed {
                    reason: "option extension above 65535"
                }),
                "{option:#04x}"
            );
        }
    }

    #[test]
    fn unknown_elective_option_skipped() {
        // After Uri-Path(11), delta 3 → option 14 (Max-Age, elective).
        let mut bytes = CoapMessage::get(1, vec![], "a").encode();
        bytes.push(0x31);
        bytes.push(42);
        let m = CoapMessage::decode(&bytes).unwrap();
        assert_eq!(m.path(), "a");
    }

    #[test]
    fn decoder_never_panics_on_fuzz_corpus() {
        // A tiny deterministic corpus of mutations.
        let base = CoapMessage::get(0xBEEF, vec![1, 2, 3], "sensors/t").encode();
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.clone();
                mutated[i] ^= 1 << bit;
                let _ = CoapMessage::decode(&mutated);
            }
        }
    }
}
