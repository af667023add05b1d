//! Randomized tests on the protocol codecs: encode/decode round trips
//! with arbitrary field values, and decoder robustness against
//! arbitrary byte soup. Driven by `simnet::rng::DeterministicRng`
//! (reproducible, no external property-testing dependency).

use protocols::coap::{CoapCode, CoapMessage, CoapType};
use protocols::enocean::{Eep, EepReading, Erp1Telegram, Rorg};
use protocols::ieee802154::{Address, FrameType, MacFrame, PanId};
use protocols::opcua::{
    AttributeId, DataValue, Message, NodeId, ReadValueId, StatusCode, Variant, WriteValue,
};
use protocols::zigbee::{report_builder, ClusterId, ZclAttribute, ZclValue, ZigbeeFrame};
use simnet::rng::DeterministicRng;

const CASES: usize = 256;

fn rand_bytes(rng: &mut DeterministicRng, max_len: usize) -> Vec<u8> {
    let len = rng.next_bounded(max_len as u64 + 1) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn string_from(rng: &mut DeterministicRng, charset: &str, lo: usize, hi: usize) -> String {
    let chars: Vec<char> = charset.chars().collect();
    let len = rng.next_range(lo as u64, hi as u64) as usize;
    (0..len)
        .map(|_| chars[rng.next_bounded(chars.len() as u64) as usize])
        .collect()
}

fn rand_address(rng: &mut DeterministicRng) -> Address {
    match rng.next_bounded(3) {
        0 => Address::None,
        1 => Address::Short(rng.next_u64() as u16),
        _ => Address::Extended(rng.next_u64()),
    }
}

fn rand_zcl_value(rng: &mut DeterministicRng) -> ZclValue {
    match rng.next_bounded(7) {
        0 => ZclValue::Bool(rng.chance(0.5)),
        1 => ZclValue::U8(rng.next_u64() as u8),
        2 => ZclValue::U16(rng.next_u64() as u16),
        3 => ZclValue::U32(rng.next_u64() as u32),
        4 => ZclValue::U48(rng.next_bounded(1 << 48)),
        5 => ZclValue::I16(rng.next_u64() as i16),
        _ => ZclValue::I32(rng.next_u64() as i32),
    }
}

fn rand_variant(rng: &mut DeterministicRng) -> Variant<'static> {
    match rng.next_bounded(6) {
        0 => Variant::Boolean(rng.chance(0.5)),
        1 => Variant::Int32(rng.next_u64() as i32),
        2 => Variant::Int64(rng.next_u64() as i64),
        3 => {
            // No NaN (PartialEq).
            let f = f64::from_bits(rng.next_u64());
            Variant::Double(if f.is_nan() { 0.5 } else { f })
        }
        4 => Variant::Str(string_from(rng, "abcXYZ019 ._é✓", 0, 16).into()),
        _ => Variant::DateTime(rng.next_u64() as i64),
    }
}

fn rand_node_id(rng: &mut DeterministicRng) -> NodeId<'static> {
    if rng.chance(0.5) {
        NodeId::numeric(rng.next_u64() as u16, rng.next_u64() as u32)
    } else {
        NodeId::string(rng.next_u64() as u16, string_from(rng, "abcdefgh.", 0, 12))
    }
}

#[test]
fn mac_frame_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x0154_0001);
    for _ in 0..CASES {
        let pan = rng.next_u64() as u16;
        let dest = rand_address(&mut rng);
        let src = rand_address(&mut rng);
        let dest_pan = if dest == Address::None {
            None
        } else {
            Some(PanId(pan))
        };
        // Wire consistency: a present source needs a PAN, either its own
        // or via PAN-id compression (which requires a destination PAN).
        let src_pan = if src != Address::None && dest_pan.is_none() {
            Some(PanId(pan.wrapping_add(1)))
        } else {
            None
        };
        let payload = rand_bytes(&mut rng, 99);
        let frame = MacFrame {
            frame_type: FrameType::Data,
            ack_request: rng.chance(0.5),
            frame_pending: rng.chance(0.5),
            sequence: rng.next_u64() as u8,
            dest_pan,
            dest,
            src_pan,
            src,
            payload: &payload,
        };
        let bytes = frame.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "sized up front");
        let back = MacFrame::decode(&bytes).unwrap();
        assert_eq!(back, frame);
    }
}

#[test]
fn mac_decoder_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x0154_0002);
    for _ in 0..CASES {
        let _ = MacFrame::decode(&rand_bytes(&mut rng, 63));
    }
}

#[test]
fn mac_bit_flips_never_yield_wrong_frames() {
    let mut rng = DeterministicRng::seed_from(0x0154_0003);
    for _ in 0..CASES {
        let mut payload = rand_bytes(&mut rng, 39);
        if payload.is_empty() {
            payload.push(0);
        }
        let frame = MacFrame::data(PanId(7), Address::Short(1), Address::Short(2), 1, &payload);
        let mut bytes = frame.encode();
        let bit = rng.next_bounded((bytes.len() * 8) as u64) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        // A flipped bit must either fail the FCS or (never) decode to the
        // original; silently yielding a *different* valid frame is the
        // 1-in-65536 CRC collision, impossible for single-bit flips.
        if let Ok(decoded) = MacFrame::decode(&bytes) {
            assert_ne!(decoded, frame);
        }
    }
}

#[test]
fn zigbee_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x0154_0004);
    for _ in 0..CASES {
        let nwk = rng.next_u64() as u16;
        let seq = rng.next_u64() as u8;
        let values: Vec<ZclValue> = (0..rng.next_bounded(6))
            .map(|_| rand_zcl_value(&mut rng))
            .collect();
        let attributes: Vec<ZclAttribute> = (0..)
            .zip(values)
            .map(|(i, v)| ZclAttribute::new(i, v))
            .collect();
        let frame = report_builder(nwk, ClusterId::SIMPLE_METERING)
            .sequence(seq)
            .attributes(&attributes)
            .build();
        let bytes = frame.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "sized up front");
        let back = ZigbeeFrame::decode(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.encode(), bytes);
    }
}

#[test]
fn zigbee_decoder_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x0154_0005);
    for _ in 0..CASES {
        let _ = ZigbeeFrame::decode(&rand_bytes(&mut rng, 63));
    }
}

#[test]
fn erp1_esp3_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x0154_0006);
    for _ in 0..CASES {
        let data4: Vec<u8> = (0..4).map(|_| rng.next_u64() as u8).collect();
        let t = Erp1Telegram::new(
            Rorg::FourBs,
            &data4,
            rng.next_u64() as u32,
            rng.next_u64() as u8,
        );
        let packet = t.to_esp3();
        assert_eq!(packet.capacity(), packet.len(), "sized up front");
        assert_eq!(Erp1Telegram::from_esp3(&packet).unwrap(), t);
    }
}

#[test]
fn esp3_decoder_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x0154_0007);
    for _ in 0..CASES {
        let _ = Erp1Telegram::from_esp3(&rand_bytes(&mut rng, 63));
    }
}

#[test]
fn enocean_temperature_quantization_bounded() {
    let mut rng = DeterministicRng::seed_from(0x0154_0008);
    for _ in 0..CASES {
        let t = rng.next_f64_range(0.0, 40.0);
        let mut data = [0; 4];
        let tel = Eep::A50205.encode_reading(&EepReading::Temperature { celsius: t }, 1, &mut data);
        match Eep::A50205.decode_reading(&tel).unwrap() {
            EepReading::Temperature { celsius } => {
                assert!((celsius - t).abs() <= 40.0 / 255.0 / 2.0 + 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn opcua_messages_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x0154_0009);
    for _ in 0..CASES {
        let reads: Vec<NodeId> = (0..rng.next_bounded(5))
            .map(|_| rand_node_id(&mut rng))
            .collect();
        let variants: Vec<Variant> = (0..rng.next_bounded(5))
            .map(|_| rand_variant(&mut rng))
            .collect();
        let statuses: Vec<u32> = (0..rng.next_bounded(5))
            .map(|_| rng.next_u64() as u32)
            .collect();
        let read_ids: Vec<ReadValueId> = reads
            .iter()
            .cloned()
            .map(|node_id| ReadValueId {
                node_id,
                attribute: AttributeId::Value,
            })
            .collect();
        let results: Vec<DataValue> = variants
            .iter()
            .cloned()
            .map(|v| DataValue::good(v, 7))
            .collect();
        let writes: Vec<WriteValue> = reads
            .iter()
            .cloned()
            .zip(variants.iter().cloned())
            .map(|(node_id, value)| WriteValue {
                node_id,
                attribute: AttributeId::Value,
                value,
            })
            .collect();
        let statuses: Vec<StatusCode> = statuses.iter().map(|&s| StatusCode(s)).collect();
        let messages = [
            Message::ReadRequest {
                nodes: read_ids.as_slice().into(),
            },
            Message::ReadResponse {
                results: results.as_slice().into(),
            },
            Message::WriteRequest {
                nodes: writes.as_slice().into(),
            },
            Message::WriteResponse {
                results: statuses.as_slice().into(),
            },
        ];
        for m in &messages {
            let bytes = m.encode();
            assert_eq!(bytes.capacity(), bytes.len(), "sized up front");
            let back = Message::decode(&bytes).unwrap();
            assert_eq!(&back, m);
            assert_eq!(back.encode(), bytes);
        }
    }
}

#[test]
fn opcua_decoder_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x0154_000A);
    for _ in 0..CASES {
        let _ = Message::decode(&rand_bytes(&mut rng, 95));
    }
}

#[test]
fn coap_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x0154_000B);
    for _ in 0..CASES {
        let path: Vec<String> = (0..rng.next_bounded(5))
            .map(|_| string_from(&mut rng, "abcXYZ019._-", 1, 24))
            .collect();
        let mtype = match rng.next_bounded(4) {
            0 => CoapType::Confirmable,
            1 => CoapType::NonConfirmable,
            2 => CoapType::Acknowledgement,
            _ => CoapType::Reset,
        };
        let code = *[CoapCode::GET, CoapCode::POST, CoapCode::CONTENT]
            .get(rng.next_bounded(3) as usize)
            .unwrap();
        let message_id = rng.next_u64() as u16;
        let token = rand_bytes(&mut rng, 8);
        let path = path.join("/");
        let content_format = if rng.chance(0.5) {
            Some(rng.next_u64() as u16)
        } else {
            None
        };
        let payload = rand_bytes(&mut rng, 63);
        let mut msg = CoapMessage::get(message_id, &token, &path);
        msg.mtype = mtype;
        msg.code = code;
        msg.content_format = content_format;
        msg.payload = &payload;
        let bytes = msg.encode();
        assert_eq!(bytes.capacity(), bytes.len(), "sized up front");
        let back = CoapMessage::decode(&bytes).expect("round trip");
        assert_eq!(back, msg);
        assert_eq!(back.encode(), bytes);
    }
}

#[test]
fn coap_decoder_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x0154_000C);
    for _ in 0..CASES {
        let _ = CoapMessage::decode(&rand_bytes(&mut rng, 95));
    }
}
