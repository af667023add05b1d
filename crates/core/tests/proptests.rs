//! Randomized tests on the common data format codecs.
//!
//! Driven by `simnet::rng::DeterministicRng` instead of an external
//! property-testing crate so the workspace builds with no network
//! access; the fixed seeds make every run reproducible.

use std::collections::BTreeMap;

use dimmer_core::codec::{self, DataFormat, Writer};
use dimmer_core::{
    json, xml, CoreError, DeviceId, Measurement, MeasurementBatch, QuantityKind, Timestamp, Unit,
    Uri, Value,
};
use simnet::rng::DeterministicRng;

const CASES: usize = 256;

fn string_from(rng: &mut DeterministicRng, charset: &str, lo: usize, hi: usize) -> String {
    let chars: Vec<char> = charset.chars().collect();
    let len = rng.next_range(lo as u64, hi as u64) as usize;
    (0..len)
        .map(|_| chars[rng.next_bounded(chars.len() as u64) as usize])
        .collect()
}

/// Printable text including escapes, quotes and non-ASCII.
fn printable_string(rng: &mut DeterministicRng, max_len: usize) -> String {
    let len = rng.next_bounded(max_len as u64 + 1) as usize;
    (0..len)
        .map(|_| match rng.next_bounded(8) {
            0 => '"',
            1 => '\\',
            2..=5 => char::from_u32(0x20 + rng.next_bounded(0x5f) as u32).unwrap(),
            6 => char::from_u32(0x00A1 + rng.next_bounded(0x500) as u32).unwrap(),
            _ => ['é', '✓', '中', 'Ω', 'ß', '€', 'λ', '→'][rng.next_bounded(8) as usize],
        })
        .collect()
}

/// Arbitrary text, including control characters, for parser-robustness.
fn any_text(rng: &mut DeterministicRng, max_len: usize) -> String {
    let len = rng.next_bounded(max_len as u64 + 1) as usize;
    (0..len)
        .filter_map(|_| char::from_u32(rng.next_bounded(0x3000) as u32))
        .collect()
}

/// An arbitrary common-data-format value with nesting up to `depth`.
fn rand_value(rng: &mut DeterministicRng, depth: u32) -> Value {
    let pick = rng.next_bounded(if depth == 0 { 5 } else { 7 });
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 0),
        2 => Value::Int(rng.next_u64() as i64),
        3 => {
            // Finite, non-NaN floats only: the format forbids NaN.
            let f = f64::from_bits(rng.next_u64());
            Value::Float(if f.is_finite() {
                f
            } else {
                rng.next_f64_range(-1e9, 1e9)
            })
        }
        4 => Value::from(printable_string(rng, 20)),
        5 => Value::Array(
            (0..rng.next_bounded(5))
                .map(|_| rand_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.next_bounded(5))
                .map(|_| {
                    (
                        string_from(rng, "abcXYZ019 _<>&\"'", 0, 12),
                        rand_value(rng, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// `v` as JSON with a newline and `indent` per level between tokens:
/// the whitespace a hand-written or pretty-printed document carries.
fn spaced_json(v: &Value, indent: &str, depth: usize) -> String {
    let pad = |d: usize| format!("\n{}", indent.repeat(d));
    let (open, close, items): (_, _, Vec<String>) = match v {
        Value::Array(items) if !items.is_empty() => (
            '[',
            ']',
            items
                .iter()
                .map(|i| spaced_json(i, indent, depth + 1))
                .collect(),
        ),
        Value::Object(map) if !map.is_empty() => (
            '{',
            '}',
            map.iter()
                .map(|(k, v)| {
                    let key = json::to_string(&Value::from(k.as_str()));
                    format!("{key} : {}", spaced_json(v, indent, depth + 1))
                })
                .collect(),
        ),
        scalar => return json::to_string(scalar),
    };
    let body: Vec<String> = items.iter().map(|i| pad(depth + 1) + i).collect();
    format!("{open}{} {}{close}", body.join(" ,"), pad(depth))
}

/// `v` as XML with `sep` between adjacent tags. In the compact form `><`
/// only ever joins two tags, since text and names escape `<` and `>`; the
/// one place left alone is an empty string, where whitespace would be
/// its text.
fn spaced_xml(v: &Value, sep: &str) -> String {
    let text = xml::to_string(v);
    let mut pieces = text.split("><");
    let mut out = pieces.next().unwrap_or_default().to_owned();
    for piece in pieces {
        if !out.ends_with(r#"type="string""#) {
            out.push('>');
            out.push_str(sep);
            out.push('<');
        } else {
            out.push_str("><");
        }
        out.push_str(piece);
    }
    out
}

#[test]
fn json_round_trip() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0001);
    for _ in 0..CASES {
        let v = rand_value(&mut rng, 3);
        let back = json::from_str(&json::to_string(&v)).unwrap();
        assert_eq!(back, v);
    }
}

#[test]
fn json_pretty_round_trip() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0002);
    for _ in 0..CASES {
        let v = rand_value(&mut rng, 3);
        for text in [spaced_json(&v, "", 0), spaced_json(&v, "  ", 0)] {
            assert_eq!(json::from_str(&text).unwrap(), v, "{text}");
        }
    }
}

#[test]
fn xml_round_trip() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0003);
    for _ in 0..CASES {
        let v = rand_value(&mut rng, 3);
        let back = xml::from_str(&xml::to_string(&v)).unwrap();
        assert_eq!(back, v);
    }
}

#[test]
fn xml_pretty_round_trip() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0004);
    for _ in 0..CASES {
        let v = rand_value(&mut rng, 3);
        for text in [spaced_xml(&v, "\n"), spaced_xml(&v, "\n  ")] {
            assert_eq!(xml::from_str(&text).unwrap(), v, "{text}");
        }
    }
}

#[test]
fn both_formats_agree() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0005);
    for _ in 0..CASES {
        let v = rand_value(&mut rng, 3);
        // Encoding through either format must preserve the same value.
        let via_json =
            codec::decode_value(&codec::encode_value(&v, DataFormat::Json), DataFormat::Json)
                .unwrap();
        let via_xml =
            codec::decode_value(&codec::encode_value(&v, DataFormat::Xml), DataFormat::Xml)
                .unwrap();
        assert_eq!(via_json, via_xml);
    }
}

#[test]
fn json_parser_never_panics() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0006);
    for _ in 0..CASES {
        let _ = json::from_str(&any_text(&mut rng, 64));
    }
}

#[test]
fn xml_parser_never_panics() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0007);
    for _ in 0..CASES {
        let _ = xml::from_str(&any_text(&mut rng, 64));
    }
}

#[test]
fn timestamp_civil_round_trip() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0008);
    for _ in 0..CASES {
        // 1840..2100 roughly.
        let span = 2 * 4_102_444_800_000u64;
        let millis = rng.next_bounded(span) as i64 - 4_102_444_800_000;
        let t = Timestamp::from_unix_millis(millis);
        let back = Timestamp::parse(&t.to_string()).unwrap();
        assert_eq!(back, t);
    }
}

#[test]
fn uri_display_parse_round_trip() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_0009);
    for _ in 0..CASES {
        let host = format!(
            "{}{}",
            string_from(&mut rng, "abcdefghij", 1, 1),
            string_from(&mut rng, "abcxyz019.-", 0, 12)
        );
        let port = if rng.chance(0.5) {
            Some(rng.next_u64() as u16)
        } else {
            None
        };
        let segments = rng.next_bounded(4);
        let path: String = (0..segments)
            .map(|_| format!("/{}", string_from(&mut rng, "abcXYZ019._-", 1, 8)))
            .collect();
        let mut uri = Uri::new("sim", host, port, path).unwrap();
        for _ in 0..rng.next_bounded(4) {
            uri = uri.with_query(
                string_from(&mut rng, "abcdef", 1, 6),
                string_from(&mut rng, "abcXYZ019,._-", 0, 8),
            );
        }
        let back = Uri::parse(&uri.to_string()).unwrap();
        assert_eq!(back, uri);
    }
}

/// Floats a measurement may carry, with the writer's special cases
/// over-represented: signed zeros, integral values either side of the
/// `1e15` switch to exponent-free text, infinities (clamped by JSON).
fn rand_reading(rng: &mut DeterministicRng) -> f64 {
    const SPECIAL: [f64; 12] = [
        0.0,
        -0.0,
        21.5,
        -4.0,
        999_999_999_999_999.0,
        1e15,
        -1e15,
        1.234_567_890_123_456_7e18,
        1e300,
        5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match rng.next_bounded(3) {
        0 => SPECIAL[rng.next_bounded(SPECIAL.len() as u64) as usize],
        1 => (rng.next_bounded(2_000_000) as f64 - 1_000_000.0) / 8.0,
        _ => {
            let f = f64::from_bits(rng.next_u64());
            if f.is_nan() {
                0.5
            } else {
                f
            }
        }
    }
}

fn rand_measurement(rng: &mut DeterministicRng) -> Measurement {
    let quantity = QuantityKind::all()[rng.next_bounded(QuantityKind::all().len() as u64) as usize];
    let units: Vec<Unit> = Unit::all()
        .iter()
        .copied()
        .filter(|u| quantity.accepts(*u))
        .collect();
    // Whole seconds and odd milliseconds, before and after the epoch.
    let millis = rng.next_bounded(4_000_000_000_000) as i64 - 1_000_000_000_000;
    let millis = if rng.chance(0.5) {
        millis - millis.rem_euclid(1000)
    } else {
        millis
    };
    Measurement::new(
        DeviceId::new(string_from(rng, "abcXYZ019._:-", 1, 24)).unwrap(),
        quantity,
        rand_reading(rng),
        units[rng.next_bounded(units.len() as u64) as usize],
        Timestamp::from_unix_millis(millis),
    )
}

#[test]
fn typed_writers_match_the_tree_writer_byte_for_byte() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_000A);
    for case in 0..CASES {
        // Case 0 is the empty batch.
        let batch: MeasurementBatch = (0..case % 7).map(|_| rand_measurement(&mut rng)).collect();
        for format in DataFormat::all() {
            assert_eq!(
                codec::encode_batch(&batch, format),
                codec::encode_value(&batch.to_value(), format),
                "{format} batch"
            );
            for m in &batch {
                assert_eq!(
                    codec::encode_measurement(m, format),
                    codec::encode_value(&m.to_value(), format),
                    "{format} {m}"
                );
            }
        }
    }
}

#[test]
fn series_writer_matches_the_batch_it_stands_for() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_000B);
    for case in 0..CASES {
        let template = rand_measurement(&mut rng);
        let points: Vec<(i64, f64)> = (0..case % 7)
            .map(|i| {
                (
                    1_425_859_200_123 + i as i64 * 60_000,
                    rand_reading(&mut rng),
                )
            })
            .collect();
        let batch: MeasurementBatch = points
            .iter()
            .map(|&(t, v)| {
                Measurement::new(
                    template.device().clone(),
                    template.quantity(),
                    v,
                    template.unit(),
                    Timestamp::from_unix_millis(t),
                )
            })
            .collect();
        for format in DataFormat::all() {
            let mut out = String::new();
            MeasurementBatch::write_series(
                &mut Writer::new(format, &mut out),
                template.device(),
                template.quantity(),
                template.unit(),
                &points,
            );
            assert_eq!(
                out,
                codec::encode_value(&batch.to_value(), format),
                "{format}"
            );
        }
    }
}

#[test]
fn string_events_escape_like_tree_strings() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_000C);
    for _ in 0..CASES {
        // Control characters, quotes, markup and non-ASCII.
        let text = any_text(&mut rng, 24) + &printable_string(&mut rng, 8);
        let tree = Value::object([(text.clone(), Value::from(text.clone()))]);
        for format in DataFormat::all() {
            let expected = codec::encode_value(&tree, format);
            for displayed in [false, true] {
                let mut out = String::new();
                let mut w = Writer::new(format, &mut out);
                w.begin_object();
                w.key(&text);
                if displayed {
                    w.display(&text);
                } else {
                    w.str(&text);
                }
                w.end_object();
                assert_eq!(out, expected, "{format} displayed={displayed}");
            }
        }
    }
}

/// Serializes an object from a member list, which — unlike a [`Value`]
/// object — keeps the given order and may repeat a key.
fn object_text(members: &[(String, Value)], format: DataFormat) -> String {
    match format {
        DataFormat::Json => {
            let members: Vec<String> = members
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{}:{}",
                        json::to_string(&Value::from(k.as_str())),
                        json::to_string(v)
                    )
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }
        DataFormat::Xml => {
            let mut out = String::from("<value type=\"object\">");
            for (k, v) in members {
                // `<value type=…>…</value>` or `<value type="null"/>`,
                // re-tagged as a named member.
                let doc = xml::to_string(v);
                let name = xml::to_string(&Value::object([(k.as_str(), Value::Null)]));
                let name = &name["<value type=\"object\"><member".len()..];
                let name = &name[..name.len() - " type=\"null\"/></value>".len()];
                out.push_str("<member");
                out.push_str(name);
                match doc.strip_suffix("</value>") {
                    Some(open) => {
                        out.push_str(&open["<value".len()..]);
                        out.push_str("</member>");
                    }
                    None => out.push_str(&doc["<value".len()..]),
                }
            }
            out + "</value>"
        }
    }
}

/// Typed and tree decoders must agree on any text: both reject it, or
/// both accept it with equal results.
fn assert_decoders_agree(text: &str, format: DataFormat) {
    let tree = codec::decode_value(text, format);
    let as_measurement = tree.clone().and_then(|v| Measurement::from_value(&v));
    let as_batch = tree.and_then(|v| MeasurementBatch::from_value(&v));
    assert_eq!(
        codec::decode_measurement(text, format).ok(),
        as_measurement.ok(),
        "{format} measurement from {text:?}"
    );
    assert_eq!(
        codec::decode_batch(text, format).ok(),
        as_batch.ok(),
        "{format} batch from {text:?}"
    );
}

/// A member list that is often, but not always, a measurement: members
/// in random order, sometimes repeated, sometimes of the wrong type,
/// sometimes unknown.
fn rand_measurement_members(rng: &mut DeterministicRng) -> Vec<(String, Value)> {
    let m = rand_measurement(rng);
    let mut members: Vec<(String, Value)> = match m.to_value() {
        Value::Object(map) => map.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        other => panic!("measurement encodes as {other:?}"),
    };
    let junk = |rng: &mut DeterministicRng| rand_value(rng, 2);
    for _ in 0..rng.next_bounded(4) {
        let at = rng.next_bounded(members.len() as u64 + 1) as usize;
        let member = match rng.next_bounded(4) {
            // Unknown member, any value.
            0 => (string_from(rng, "abcdevqut", 1, 9), junk(rng)),
            // A known key with any value, before or after the good one.
            1 => {
                let key = ["device", "quantity", "value", "unit", "timestamp"]
                    [rng.next_bounded(5) as usize];
                (key.to_owned(), junk(rng))
            }
            // A repeat of some member already present.
            2 => members[rng.next_bounded(members.len() as u64) as usize].clone(),
            // An integral value where a float is usual.
            _ => ("value".to_owned(), Value::Int(rng.next_bounded(100) as i64)),
        };
        members.insert(at, member);
    }
    // Shuffle.
    for i in (1..members.len()).rev() {
        members.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
    if rng.chance(0.1) {
        members.remove(rng.next_bounded(members.len() as u64) as usize);
    }
    members
}

#[test]
fn typed_readers_match_the_tree_reader_on_reordered_repeated_and_unknown_members() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_000D);
    let mut accepted = 0;
    for _ in 0..4 * CASES {
        let items: Vec<Vec<(String, Value)>> = (0..rng.next_bounded(4))
            .map(|_| rand_measurement_members(&mut rng))
            .collect();
        for format in DataFormat::all() {
            let item_texts: Vec<String> = items.iter().map(|m| object_text(m, format)).collect();
            for text in &item_texts {
                assert_decoders_agree(text, format);
                accepted += usize::from(codec::decode_measurement(text, format).is_ok());
            }
            // The batch around them, itself with a repeated or unknown
            // member now and then. Items are spliced in as text to keep
            // their member lists.
            let array = Value::Array(
                (0..items.len())
                    .map(|i| Value::from(format!("@{i}@")))
                    .collect(),
            );
            let mut members = vec![("measurements".to_owned(), array.clone())];
            match rng.next_bounded(4) {
                0 => members.insert(0, ("measurements".to_owned(), rand_value(&mut rng, 2))),
                1 => members.push(("measurements".to_owned(), Value::array([]))),
                2 => members.push(("more".to_owned(), array)),
                _ => {}
            }
            let mut text = object_text(&members, format);
            for (i, item) in item_texts.iter().enumerate() {
                let (placeholder, tagged) = match format {
                    DataFormat::Json => (format!("\"@{i}@\""), item.clone()),
                    DataFormat::Xml => (
                        format!("<item type=\"string\">@{i}@</item>"),
                        format!(
                            "<item{}</item>",
                            &item["<value".len()..item.len() - "</value>".len()]
                        ),
                    ),
                };
                text = text.replace(&placeholder, &tagged);
            }
            assert_decoders_agree(&text, format);
        }
    }
    assert!(
        accepted > CASES,
        "generator makes too few valid measurements"
    );
}

#[test]
fn every_truncation_and_bit_flip_is_judged_alike_by_typed_and_tree_decoders() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_000E);
    let batch: MeasurementBatch = (0..3).map(|_| rand_measurement(&mut rng)).collect();
    let single = batch.iter().next().unwrap();
    for format in DataFormat::all() {
        for doc in [
            codec::encode_measurement(single, format),
            codec::encode_batch(&batch, format),
        ] {
            assert!(
                doc.is_ascii(),
                "cuts and flips below assume one byte per char"
            );
            assert_decoders_agree(&doc, format);
            for cut in 0..doc.len() {
                assert_decoders_agree(&doc[..cut], format);
            }
            let mut bytes = doc.clone().into_bytes();
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    // A flip into non-UTF-8 never reaches a text decoder.
                    if let Ok(text) = std::str::from_utf8(&bytes) {
                        assert_decoders_agree(text, format);
                    }
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }
}

#[test]
fn shape_errors_are_reported_only_for_well_formed_text() {
    // A typed reader must not report a shape error for text whose
    // syntax is broken after the ill-shaped part.
    for (text, format) in [
        (r#"{"device":5} trailing"#, DataFormat::Json),
        (
            r#"{"measurements":[{"device":5}],"x":tru}"#,
            DataFormat::Json,
        ),
        (
            r#"<value type="object"><member name="device" type="int">5</member></value><x/>"#,
            DataFormat::Xml,
        ),
    ] {
        assert!(matches!(
            codec::decode_measurement(text, format),
            Err(CoreError::ParseJson { .. } | CoreError::ParseXml { .. })
        ));
        assert!(matches!(
            codec::decode_batch(text, format),
            Err(CoreError::ParseJson { .. } | CoreError::ParseXml { .. })
        ));
    }
}

/// A key of exactly `len` bytes, mixing ASCII (markup included) with two-
/// and three-byte characters.
fn key_of_len(rng: &mut DeterministicRng, len: usize) -> String {
    let mut key = String::new();
    while key.len() < len {
        let room = len - key.len();
        key.push(match rng.next_bounded(4) {
            0 if room >= 3 => '中',
            1 if room >= 2 => 'é',
            _ => ['a', 'b', 'Z', '0', '_', '<', '&', '"'][rng.next_bounded(8) as usize],
        });
    }
    key
}

/// Members in arbitrary order over a few keys, so keys repeat: lengths
/// either side of the 22 bytes an object key holds inline, and keys that
/// extend another by one character.
fn rand_members(rng: &mut DeterministicRng) -> Vec<(String, Value)> {
    let mut pool: Vec<String> = Vec::new();
    for _ in 0..rng.next_range(1, 6) {
        let key = match pool.last() {
            Some(last) if rng.chance(0.25) => format!("{last}{}", key_of_len(rng, 1)),
            _ => {
                let len = [0, 1, 21, 22, 23, 64][rng.next_bounded(6) as usize];
                key_of_len(rng, len)
            }
        };
        pool.push(key);
    }
    (0..rng.next_bounded(12))
        .map(|i| {
            let key = pool[rng.next_bounded(pool.len() as u64) as usize].clone();
            let value = if rng.chance(0.5) {
                Value::from(i as i64)
            } else {
                rand_value(rng, 1)
            };
            (key, value)
        })
        .collect()
}

#[test]
fn objects_behave_like_a_btree_map_however_they_are_built() {
    let mut rng = DeterministicRng::seed_from(0xC0DE_000F);
    for _ in 0..4 * CASES {
        let members = rand_members(&mut rng);
        let mut oracle: BTreeMap<String, Value> = BTreeMap::new();
        for (k, v) in &members {
            oracle.insert(k.clone(), v.clone());
        }
        let mut inserted = Value::object(Vec::<(String, Value)>::new());
        for (k, v) in &members {
            inserted.insert(k.as_str(), v.clone());
        }
        let built = [
            ("object", Value::object(members.clone())),
            ("insert", inserted),
            (
                "json",
                codec::decode_value(&object_text(&members, DataFormat::Json), DataFormat::Json)
                    .unwrap(),
            ),
            (
                "xml",
                codec::decode_value(&object_text(&members, DataFormat::Xml), DataFormat::Xml)
                    .unwrap(),
            ),
        ];
        for (how, value) in &built {
            let map = value.as_object().unwrap();
            assert_eq!(map.len(), oracle.len(), "{how}: {members:?}");
            assert!(
                map.iter()
                    .map(|(k, v)| (k.as_str(), v))
                    .eq(oracle.iter().map(|(k, v)| (k.as_str(), v))),
                "{how}: {members:?}"
            );
            for (k, _) in &members {
                assert_eq!(map.get(k), oracle.get(k), "{how}: {k:?}");
            }
            assert_eq!(map.get("absent key"), None);
            assert_eq!(format!("{map:?}"), format!("{oracle:?}"), "{how}");
            assert_eq!(value, &built[0].1, "{how} vs object");
            for format in DataFormat::all() {
                let mut expected = String::new();
                let mut w = Writer::new(format, &mut expected);
                w.begin_object();
                for (k, v) in &oracle {
                    w.key(k);
                    w.value(v);
                }
                w.end_object();
                assert_eq!(
                    codec::encode_value(value, format),
                    expected,
                    "{how} {format}"
                );
            }
        }
    }
}
