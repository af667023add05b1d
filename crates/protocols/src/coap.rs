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

use std::{fmt, io};

use dimmer_core::bytes::Cursor;
use dimmer_core::codec::{DataFormat, Reader, Scalar};

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

/// The Uri-Path option number.
const URI_PATH: u16 = 11;
/// The Content-Format option number.
const CONTENT_FORMAT: u16 = 12;

/// The Uri-Path of a [`CoapMessage`]: a sender's path text, or the
/// options of a decoded message, checked and left in their wire bytes.
#[derive(Debug, Clone, Copy)]
enum UriPath<'a> {
    /// Segments joined by `/`; empty segments are dropped.
    Text(&'a str),
    /// Every option of a decoded message, in wire order; its Uri-Path
    /// options are the segments.
    Options(&'a [u8]),
}

impl<'a> UriPath<'a> {
    /// The path segments, in order.
    fn segments(self) -> Segments<'a> {
        match self {
            UriPath::Text(text) => Segments::Text(text.split('/')),
            UriPath::Options(bytes) => Segments::Options {
                r: Cursor::new(bytes, CTX),
                number: 0,
            },
        }
    }
}

impl PartialEq for UriPath<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.segments().eq(other.segments())
    }
}

impl Eq for UriPath<'_> {}

#[derive(Debug, Clone)]
enum Segments<'a> {
    Text(std::str::Split<'a, char>),
    Options { r: Cursor<'a>, number: u16 },
}

impl<'a> Iterator for Segments<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            Segments::Text(split) => split.find(|segment| !segment.is_empty()),
            // `CoapMessage::decode` read every option and checked every
            // segment once already, so these reads succeed.
            Segments::Options { r, number } => loop {
                let first = r.u8().ok()?;
                let value = read_option(r, first, number).ok()?;
                if *number == URI_PATH {
                    return std::str::from_utf8(value).ok();
                }
            },
        }
    }
}

const CTX: &str = "coap message";

/// A CoAP message. Token, path and payload are borrowed: from the
/// sender when it builds the message, from the received bytes when it
/// is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoapMessage<'a> {
    /// Message type.
    pub mtype: CoapType,
    /// Code (request method or response code).
    pub code: CoapCode,
    /// Message id for deduplication/ACK matching.
    pub message_id: u16,
    /// Token correlating responses to requests (0–8 bytes).
    pub token: &'a [u8],
    /// Uri-Path segments (option 11).
    uri_path: UriPath<'a>,
    /// Content-Format (option 12).
    pub content_format: Option<u16>,
    /// Payload (after the `0xFF` marker).
    pub payload: &'a [u8],
}

impl<'a> CoapMessage<'a> {
    /// A confirmable GET for `path` (segments joined by `/`).
    pub fn get(message_id: u16, token: &'a [u8], path: &'a str) -> Self {
        CoapMessage {
            mtype: CoapType::Confirmable,
            code: CoapCode::GET,
            message_id,
            token,
            uri_path: UriPath::Text(path),
            content_format: None,
            payload: &[],
        }
    }

    /// A confirmable POST for `path` carrying a JSON payload.
    pub fn post_json(message_id: u16, token: &'a [u8], path: &'a str, payload: &'a [u8]) -> Self {
        CoapMessage {
            mtype: CoapType::Confirmable,
            code: CoapCode::POST,
            message_id,
            token,
            uri_path: UriPath::Text(path),
            content_format: Some(content_format::JSON),
            payload,
        }
    }

    /// The piggy-backed response to this request.
    pub(crate) fn respond(
        &self,
        code: CoapCode,
        content_format: Option<u16>,
        payload: &'a [u8],
    ) -> Self {
        CoapMessage {
            mtype: CoapType::Acknowledgement,
            code,
            message_id: self.message_id,
            token: self.token,
            uri_path: UriPath::Text(""),
            content_format,
            payload,
        }
    }

    /// Whether the Uri-Path, its segments joined with `/`, reads `path`.
    pub(crate) fn path_is(&self, path: &str) -> bool {
        let mut rest = path;
        for (i, segment) in self.uri_path.segments().enumerate() {
            let after_slash = if i == 0 {
                Some(rest)
            } else {
                rest.strip_prefix('/')
            };
            match after_slash.and_then(|r| r.strip_prefix(segment)) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        rest.is_empty()
    }

    /// The content-format option's value bytes: 0 to 2, big-endian.
    fn content_format_bytes(cf: u16) -> ([u8; 2], usize) {
        let skip = match cf {
            0 => 2,
            1..=255 => 1,
            _ => 0,
        };
        (cf.to_be_bytes(), skip)
    }

    /// The length of header, token and options.
    fn head_len(&self) -> usize {
        let mut last = 0;
        let mut len = 4 + self.token.len();
        for segment in self.uri_path.segments() {
            len += option_len(URI_PATH - last, segment.len());
            last = URI_PATH;
        }
        if let Some(cf) = self.content_format {
            let (_, skip) = CoapMessage::content_format_bytes(cf);
            len += option_len(CONTENT_FORMAT - last, 2 - skip);
        }
        len
    }

    /// Appends header, token and options (RFC 7252 §3 framing) to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the token exceeds 8 bytes.
    fn encode_head(&self, out: &mut Vec<u8>) {
        assert!(self.token.len() <= 8, "token too long");
        out.push(0x40 | (self.mtype.bits() << 4) | self.token.len() as u8);
        out.push(self.code.0);
        out.extend_from_slice(&self.message_id.to_be_bytes());
        out.extend_from_slice(self.token);
        // Options must be encoded in ascending option-number order:
        // Uri-Path (11) repeats, then Content-Format (12).
        let mut last_option = 0u16;
        for segment in self.uri_path.segments() {
            encode_option(URI_PATH, segment.as_bytes(), &mut last_option, out);
        }
        if let Some(cf) = self.content_format {
            let (bytes, skip) = CoapMessage::content_format_bytes(cf);
            encode_option(CONTENT_FORMAT, &bytes[skip..], &mut last_option, out);
        }
    }

    /// Encodes the message into an exact-size buffer.
    ///
    /// # Panics
    ///
    /// Panics if the token exceeds 8 bytes.
    pub fn encode(&self) -> Vec<u8> {
        let marked = if self.payload.is_empty() {
            0
        } else {
            1 + self.payload.len()
        };
        let mut out = Vec::with_capacity(self.head_len() + marked);
        self.encode_head(&mut out);
        if !self.payload.is_empty() {
            out.push(0xFF);
            out.extend_from_slice(self.payload);
        }
        out
    }

    /// Encodes the message with `body`, formatted straight into the
    /// exact-size buffer, as its payload in place of `self.payload`.
    pub fn encode_formatted(&self, body: fmt::Arguments<'_>) -> Vec<u8> {
        let len = formatted_len(body);
        let marked = if len == 0 { 0 } else { 1 + len };
        let mut out = Vec::with_capacity(self.head_len() + marked);
        self.encode_head(&mut out);
        if len > 0 {
            out.push(0xFF);
            io::Write::write_fmt(&mut out, body).expect("a Vec takes every byte");
        }
        out
    }

    /// Decodes a message produced by [`CoapMessage::encode`], checking
    /// every option; token, path and payload borrow `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncation, a bad version, or an
    /// unsupported option.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, ProtocolError> {
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
        let token = r.take(token_len)?;
        let options = r.clone();
        let mut options_len = 0;
        let mut content_format = None;
        let mut payload: &[u8] = &[];
        let mut option_number = 0u16;
        while r.remaining() > 0 {
            let byte = r.u8()?;
            if byte == 0xFF {
                payload = r.rest();
                if payload.is_empty() {
                    return Err(ProtocolError::Malformed {
                        reason: "payload marker with empty payload",
                    });
                }
                break;
            }
            let value = read_option(&mut r, byte, &mut option_number)?;
            match option_number {
                URI_PATH => {
                    std::str::from_utf8(value).map_err(|_| ProtocolError::Malformed {
                        reason: "uri-path is not utf-8",
                    })?;
                }
                CONTENT_FORMAT if value.len() > 2 => {
                    return Err(ProtocolError::Malformed {
                        reason: "content-format too long",
                    })
                }
                // A 0- to 2-byte big-endian unsigned integer.
                CONTENT_FORMAT => {
                    content_format = Some(value.iter().fold(0, |cf, &b| cf << 8 | u16::from(b)));
                }
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
            options_len = options.remaining() - r.remaining();
        }
        Ok(CoapMessage {
            mtype,
            code,
            message_id,
            token,
            uri_path: UriPath::Options(options.clone().take(options_len)?),
            content_format,
            payload,
        })
    }
}

/// The `value` member of a JSON payload, read with the typed reader: a
/// number when the payload is one well-formed JSON document whose root
/// object holds a numeric `value` (the last one, if repeated).
pub fn json_value(payload: &[u8]) -> Option<f64> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut r = Reader::new(DataFormat::Json, text);
    let mut value = Scalar::Missing;
    if r.begin_object().ok()? {
        while let Some(key) = r.next_key().ok()? {
            if key == "value" {
                value = Scalar::read(&mut r).ok()?;
            } else {
                r.skip_value().ok()?;
            }
        }
    }
    r.finish().ok()?;
    match value {
        Scalar::Int(i) => Some(i as f64),
        Scalar::Float(f) => Some(f),
        _ => None,
    }
}

/// The length `args` formats to.
fn formatted_len(args: fmt::Arguments<'_>) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    // Counting never fails, and neither do the numbers formatted here.
    let _ = fmt::write(&mut count, args);
    count.0
}

/// Reads the option that header byte `first` opens, advancing `number`
/// by its delta; returns its value.
fn read_option<'a>(
    r: &mut Cursor<'a>,
    first: u8,
    number: &mut u16,
) -> Result<&'a [u8], ProtocolError> {
    let delta = decode_option_part(first >> 4, r)?;
    let length = decode_option_part(first & 0x0F, r)? as usize;
    *number = number.checked_add(delta).ok_or(ProtocolError::Malformed {
        reason: "option delta overflow",
    })?;
    Ok(r.take(length)?)
}

/// The encoded length of an option with `delta` and a `len`-byte value.
fn option_len(delta: u16, len: usize) -> usize {
    1 + extension_len(delta) + extension_len(len as u16) + len
}

fn encode_option(number: u16, value: &[u8], last: &mut u16, out: &mut Vec<u8>) {
    let delta = number - *last;
    *last = number;
    let len = value.len() as u16;
    out.push((nibble(delta) << 4) | nibble(len));
    push_extension(delta, out);
    push_extension(len, out);
    out.extend_from_slice(value);
}

/// The 4-bit nibble of an option delta or length: the value itself below
/// 13; 13 with one extension byte; 14 with two (values above 12+255).
fn nibble(value: u16) -> u8 {
    match value {
        0..=12 => value as u8,
        13..=268 => 13,
        _ => 14,
    }
}

fn extension_len(value: u16) -> usize {
    match nibble(value) {
        13 => 1,
        14 => 2,
        _ => 0,
    }
}

fn push_extension(value: u16, out: &mut Vec<u8>) {
    match nibble(value) {
        13 => out.push((value - 13) as u8),
        14 => out.extend_from_slice(&(value - 269).to_be_bytes()),
        _ => {}
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
            &[0xAA, 0xBB],
            "sensors/temperature",
        ));
        round_trip(&CoapMessage::get(0, &[], "v"));
    }

    #[test]
    fn post_and_response_round_trip() {
        let post = CoapMessage::post_json(7, &[1], "actuate", b"{\"v\":1.0}");
        round_trip(&post);
        let resp = post.respond(
            CoapCode::CHANGED,
            Some(content_format::JSON),
            b"{\"ok\":true}",
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
            token: &[],
            uri_path: UriPath::Text(""),
            content_format: None,
            payload: &[],
        };
        round_trip(&ack);
        assert_eq!(ack.encode().len(), 4, "empty message is 4 bytes");
    }

    #[test]
    fn long_path_segments_use_extended_deltas() {
        let long = "x".repeat(300);
        let path = format!("{long}/segment");
        let m = CoapMessage::get(1, &[], &path);
        round_trip(&m);
    }

    #[test]
    fn content_format_encodings() {
        for cf in [0u16, 50, 65000] {
            let m = CoapMessage {
                mtype: CoapType::NonConfirmable,
                code: CoapCode::CONTENT,
                message_id: 1,
                token: &[],
                uri_path: UriPath::Text(""),
                content_format: Some(cf),
                payload: b"x",
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
        let mut bytes = CoapMessage::get(1, &[], "a").encode();
        bytes.push(0xFF);
        assert!(CoapMessage::decode(&bytes).is_err());
        // Unknown critical option (13).
        let mut m = CoapMessage::get(1, &[], "a").encode();
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
        let mut bytes = CoapMessage::get(1, &[], "a").encode();
        bytes.push(0x31);
        bytes.push(42);
        let m = CoapMessage::decode(&bytes).unwrap();
        assert!(m.path_is("a"));
        assert!(!m.path_is("a/"));
    }

    #[test]
    fn decoder_never_panics_on_fuzz_corpus() {
        // A tiny deterministic corpus of mutations.
        let base = CoapMessage::get(0xBEEF, &[1, 2, 3], "sensors/t").encode();
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.clone();
                mutated[i] ^= 1 << bit;
                let _ = CoapMessage::decode(&mutated);
            }
        }
    }
}
