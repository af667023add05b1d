//! Randomized tests of the typed `/area` drivers against the tree
//! drivers they replace on the read path: `AreaMatch::write` must emit
//! exactly the bytes of `encode_value(&resolution.to_value(), format)`,
//! and `AreaResolution::read` must judge any text exactly as
//! `from_value(decode_value(..))` does.
//!
//! Driven by `simnet::rng::DeterministicRng` with fixed seeds, like the
//! codec proptests in `dimmer-core`.

use dimmer_core::codec::{self, DataFormat, Reader, Writer};
use dimmer_core::{
    BuildingId, CoreError, DeviceId, DistrictId, NetworkId, QuantityKind, Uri, Value,
};
use gis::geo::{BoundingBox, GeoPoint};
use ontology::{AreaResolution, DeviceLeaf, EntityNode, Ontology};
use simnet::rng::DeterministicRng;

const CASES: usize = 256;

/// Text that needs escaping in both formats: quotes, backslashes,
/// markup, control characters and non-ASCII.
fn escaped_text(rng: &mut DeterministicRng, max_len: u64) -> String {
    (0..rng.next_bounded(max_len + 1))
        .map(|_| match rng.next_bounded(6) {
            0 => ['"', '\\', '<', '>', '&', '\''][rng.next_bounded(6) as usize],
            1 => char::from_u32(rng.next_bounded(0x20) as u32).unwrap(),
            2 => ['é', '中', 'Ω', '→'][rng.next_bounded(4) as usize],
            _ => char::from_u32(0x20 + rng.next_bounded(0x5f) as u32).unwrap(),
        })
        .collect()
}

/// A value of any kind, nested up to `depth`.
fn rand_value(rng: &mut DeterministicRng, depth: u32) -> Value {
    match rng.next_bounded(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.next_u64() as i64),
        3 => {
            let f = f64::from_bits(rng.next_u64());
            Value::Float(if f.is_finite() { f } else { -4.0 })
        }
        4 => Value::from(escaped_text(rng, 8)),
        5 => Value::array((0..rng.next_bounded(3)).map(|_| rand_value(rng, depth - 1))),
        _ => Value::object(
            (0..rng.next_bounded(3))
                .map(|_| (escaped_text(rng, 6), rand_value(rng, depth - 1)))
                .collect::<Vec<_>>(),
        ),
    }
}

/// A proxy URI whose query values carry the characters markup escapes.
fn rand_uri(rng: &mut DeterministicRng, node: u64, path: &str) -> Uri {
    let uri = Uri::parse(&format!("sim://n{node}/{path}")).unwrap();
    if rng.chance(0.3) {
        uri.with_query("q", ["<a>", "\"b\"", "c,d"][rng.next_bounded(3) as usize])
    } else {
        uri
    }
}

/// A point inside the test box or, one time in three, outside it.
fn rand_point(rng: &mut DeterministicRng) -> GeoPoint {
    GeoPoint::new(
        rng.next_f64_range(44.95, 45.15),
        rng.next_f64_range(7.55, 7.75),
    )
}

fn test_box() -> BoundingBox {
    BoundingBox::new(GeoPoint::new(45.0, 7.6), GeoPoint::new(45.1, 7.7))
}

fn district() -> DistrictId {
    DistrictId::new("d1").unwrap()
}

/// A district with a random set of proxies, entities and devices: lists
/// that may be empty, entities with and without a location and a GIS
/// feature, properties of every kind, text that needs escaping.
fn rand_ontology(rng: &mut DeterministicRng) -> Ontology {
    let d = district();
    let mut onto = Ontology::new();
    onto.add_district(d.clone(), "District").unwrap();
    let tree = onto.district_mut(&d).unwrap();
    for i in 0..rng.next_bounded(3) {
        tree.add_gis_proxy(rand_uri(rng, 100 + i, "gis"));
    }
    for i in 0..rng.next_bounded(3) {
        tree.add_measurement_proxy(rand_uri(rng, 200 + i, "measurements"));
    }
    for e in 0..rng.next_bounded(6) {
        let db_proxy = rand_uri(rng, 300 + e, "model");
        let mut entity = if rng.chance(0.8) {
            EntityNode::building(BuildingId::new(format!("b{e}")).unwrap(), db_proxy)
        } else {
            EntityNode::network(NetworkId::new(format!("n{e}")).unwrap(), db_proxy)
        };
        if rng.chance(0.5) {
            entity = entity.with_gis_feature(escaped_text(rng, 6));
        }
        if rng.chance(0.9) {
            entity = entity.with_location(rand_point(rng));
        }
        if rng.chance(0.6) {
            entity = entity.with_properties(rand_value(rng, 2));
        }
        let id = entity.id().to_owned();
        onto.add_entity(&d, entity).unwrap();
        for k in 0..rng.next_bounded(4) {
            let quantities = QuantityKind::all();
            let mut leaf = DeviceLeaf::new(
                DeviceId::new(format!("dev-{e}.{k}")).unwrap(),
                escaped_text(rng, 6),
                quantities[rng.next_bounded(quantities.len() as u64) as usize],
                rand_uri(rng, 400 + e * 10 + k, "data"),
            );
            if rng.chance(0.5) {
                leaf = leaf.with_location(rand_point(rng));
            }
            onto.add_device(&d, &id, leaf).unwrap();
        }
    }
    onto
}

/// What the master sends for `onto`'s area query, written by the typed
/// writer.
fn typed_text(onto: &Ontology, format: DataFormat) -> String {
    let hit = onto.match_area(&district(), &test_box()).unwrap();
    let mut out = String::new();
    hit.write(&mut Writer::new(format, &mut out));
    out
}

/// The typed reader over the one document in `text`, parse errors
/// before shape errors, as `webservice::decode_response` runs it.
fn typed_read(text: &str, format: DataFormat) -> Result<AreaResolution, CoreError> {
    let mut r = Reader::new(format, text);
    let shaped = AreaResolution::read(&mut r)?;
    r.finish()?;
    shaped
}

/// The tree path the typed reader replaces.
fn tree_read(text: &str, format: DataFormat) -> Result<AreaResolution, CoreError> {
    AreaResolution::from_value(&codec::decode_value(text, format)?)
}

fn assert_readers_agree(text: &str, format: DataFormat) {
    assert_eq!(
        typed_read(text, format).ok(),
        tree_read(text, format).ok(),
        "{format}: {text:?}"
    );
}

#[test]
fn the_area_writer_matches_the_tree_writer_byte_for_byte() {
    let mut rng = DeterministicRng::seed_from(0xA4EA_0001);
    let (mut empty, mut bare, mut featured, mut unlocated) = (0, 0, 0, 0);
    for _ in 0..CASES {
        let onto = rand_ontology(&mut rng);
        let resolution = onto.resolve_area(&district(), &test_box()).unwrap();
        empty += usize::from(resolution.entities.is_empty());
        for e in &resolution.entities {
            bare += usize::from(e.gis_feature().is_none());
            featured += usize::from(e.gis_feature().is_some());
        }
        unlocated += onto
            .district(&district())
            .unwrap()
            .entities()
            .iter()
            .filter(|e| e.location().is_none())
            .count();
        for format in DataFormat::all() {
            let typed = typed_text(&onto, format);
            assert_eq!(
                typed,
                codec::encode_value(&resolution.to_value(), format),
                "{format}"
            );
            assert_eq!(
                typed_read(&typed, format),
                Ok(resolution.clone()),
                "{format}"
            );
        }
    }
    assert!(
        empty > 0 && bare > 0 && featured > 0 && unlocated > 0,
        "the generator must reach every shape: {empty} {bare} {featured} {unlocated}"
    );
}

/// Writes `v` with each object's members perturbed now and then:
/// shuffled, repeated, joined by unknown members or by known names with
/// values of any kind, or one dropped; and now and then an array item
/// replaced by a value of any kind.
fn write_mangled(w: &mut Writer<'_>, v: &Value, rng: &mut DeterministicRng) {
    match v {
        Value::Object(map) => {
            let mut members: Vec<(String, Value)> = map
                .iter()
                .map(|(k, v)| (k.as_str().to_owned(), v.clone()))
                .collect();
            if !members.is_empty() && rng.chance(0.3) {
                for _ in 0..rng.next_bounded(3) {
                    let at = rng.next_bounded(members.len() as u64 + 1) as usize;
                    let known = members[rng.next_bounded(members.len() as u64) as usize].clone();
                    let member = match rng.next_bounded(3) {
                        0 => (escaped_text(rng, 6), rand_value(rng, 2)),
                        1 => (known.0, rand_value(rng, 2)),
                        _ => known,
                    };
                    members.insert(at, member);
                }
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.next_bounded(i as u64 + 1) as usize);
                }
                if rng.chance(0.1) {
                    members.remove(rng.next_bounded(members.len() as u64) as usize);
                }
            }
            w.begin_object();
            for (k, v) in &members {
                w.key(k);
                write_mangled(w, v, rng);
            }
            w.end_object();
        }
        Value::Array(items) => {
            // Now and then one item of any kind: an ill-typed entry.
            let odd = (!items.is_empty() && rng.chance(0.1))
                .then(|| rng.next_bounded(items.len() as u64) as usize);
            w.begin_array();
            for (i, item) in items.iter().enumerate() {
                if odd == Some(i) {
                    w.value(&rand_value(rng, 1));
                } else {
                    write_mangled(w, item, rng);
                }
            }
            w.end_array();
        }
        scalar => w.value(scalar),
    }
}

#[test]
fn typed_reader_matches_the_tree_reader_on_reordered_repeated_unknown_and_ill_typed_members() {
    let mut rng = DeterministicRng::seed_from(0xA4EA_0002);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..4 * CASES {
        let onto = rand_ontology(&mut rng);
        let tree = onto
            .resolve_area(&district(), &test_box())
            .unwrap()
            .to_value();
        for format in DataFormat::all() {
            let mut text = String::new();
            write_mangled(&mut Writer::new(format, &mut text), &tree, &mut rng);
            assert_readers_agree(&text, format);
            match typed_read(&text, format) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(
        accepted > CASES && rejected > CASES / 4,
        "the generator must make both outcomes: {accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn every_truncation_and_bit_flip_is_judged_alike_by_typed_and_tree_readers() {
    let mut rng = DeterministicRng::seed_from(0xA4EA_0003);
    let d = district();
    let mut onto = Ontology::new();
    onto.add_district(d.clone(), "District").unwrap();
    let tree = onto.district_mut(&d).unwrap();
    tree.add_gis_proxy(Uri::parse("sim://n2/gis").unwrap());
    tree.add_measurement_proxy(Uri::parse("sim://n3/measurements").unwrap());
    for (e, feature) in [(0u64, None), (1, Some("f<1>"))] {
        let mut entity = EntityNode::building(
            BuildingId::new(format!("b{e}")).unwrap(),
            rand_uri(&mut rng, 10 + e, "model"),
        )
        .with_location(GeoPoint::new(45.05, 7.65))
        .with_properties(Value::object([("floors", Value::from(3))]));
        if let Some(feature) = feature {
            entity = entity.with_gis_feature(feature);
        }
        onto.add_entity(&d, entity).unwrap();
        let leaf = DeviceLeaf::new(
            DeviceId::new(format!("dev{e}")).unwrap(),
            "zigbee",
            QuantityKind::Temperature,
            Uri::parse(&format!("sim://n{}/data", 20 + e)).unwrap(),
        );
        onto.add_device(&d, &format!("b{e}"), leaf).unwrap();
    }
    for format in DataFormat::all() {
        let doc = typed_text(&onto, format);
        assert!(
            doc.is_ascii(),
            "cuts and flips below assume one byte per char"
        );
        assert!(typed_read(&doc, format).is_ok());
        for cut in 0..doc.len() {
            assert_readers_agree(&doc[..cut], format);
        }
        let mut bytes = doc.into_bytes();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                // A flip into non-UTF-8 never reaches a text decoder.
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    assert_readers_agree(text, format);
                }
                bytes[at] ^= 1 << bit;
            }
        }
    }
}
