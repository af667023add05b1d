//! E4 — open-format cost: JSON vs XML.
//!
//! Claim tested: "the use of open standard data formats allows an easier
//! integration" — at a quantifiable serialization cost. Measures size
//! and encode/decode time of both formats over the payloads the
//! infrastructure actually moves: single measurements, measurement
//! batches, BIM models and area resolutions.

use bench_support::time_it;
use dimmer_core::codec::{self, DataFormat};
use dimmer_core::{DeviceId, Measurement, MeasurementBatch, QuantityKind, Timestamp, Value};
use district::report::{fmt_f64, Table};
use models::bim::BuildingModel;

const ITERATIONS: u32 = 5_000;

fn batch(n: usize) -> MeasurementBatch {
    (0..n)
        .map(|i| {
            Measurement::new(
                DeviceId::new(format!("dev-{i}")).expect("valid"),
                QuantityKind::ActivePower,
                412.5 + i as f64,
                QuantityKind::ActivePower.canonical_unit(),
                Timestamp::from_unix_millis(1_425_859_200_000 + i as i64 * 60_000),
            )
        })
        .collect()
}

/// One row per format for a payload whose product is the tree itself
/// (entity models): the tree codec over a built [`Value`].
fn tree_rows(table: &mut Table, payload: &str, value: &Value) {
    for format in DataFormat::all() {
        let text = codec::encode_value(value, format);
        let (_, enc_ns) = time_it(ITERATIONS, || codec::encode_value(value, format).len());
        let (_, dec_ns) = time_it(ITERATIONS, || {
            codec::decode_value(&text, format).expect("round trip")
        });
        table.row([
            payload.to_owned(),
            format.to_string(),
            "tree".to_owned(),
            text.len().to_string(),
            fmt_f64(enc_ns / 1e3, 1),
            fmt_f64(dec_ns / 1e3, 1),
        ]);
    }
}

/// Two rows per format for a measurement payload, measurements to text
/// and back: through a [`Value`] tree (`to_value` + tree codec,
/// tree codec + `from_value`) and through the typed drivers.
fn measurement_rows(table: &mut Table, payload: &str, batch: &MeasurementBatch) {
    for format in DataFormat::all() {
        let text = codec::encode_batch(batch, format);
        assert_eq!(text, codec::encode_value(&batch.to_value(), format));
        let (_, tree_enc) = time_it(ITERATIONS, || {
            codec::encode_value(&batch.to_value(), format).len()
        });
        let (_, tree_dec) = time_it(ITERATIONS, || {
            let tree = codec::decode_value(&text, format).expect("round trip");
            MeasurementBatch::from_value(&tree).expect("a batch")
        });
        let (_, typed_enc) = time_it(ITERATIONS, || codec::encode_batch(batch, format).len());
        let (_, typed_dec) = time_it(ITERATIONS, || {
            codec::decode_batch(&text, format).expect("round trip")
        });
        for (path, enc_ns, dec_ns) in [
            ("tree", tree_enc, tree_dec),
            ("typed", typed_enc, typed_dec),
        ] {
            table.row([
                payload.to_owned(),
                format.to_string(),
                path.to_owned(),
                text.len().to_string(),
                fmt_f64(enc_ns / 1e3, 1),
                fmt_f64(dec_ns / 1e3, 1),
            ]);
        }
    }
}

fn main() {
    let mut table = Table::new(
        "E4: JSON vs XML over real payloads",
        [
            "payload",
            "format",
            "path",
            "bytes",
            "encode_us",
            "decode_us",
        ],
    );

    measurement_rows(&mut table, "batch_1", &batch(1));
    measurement_rows(&mut table, "batch_10", &batch(10));
    measurement_rows(&mut table, "batch_100", &batch(100));
    measurement_rows(&mut table, "batch_1000", &batch(1000));

    let bim = BuildingModel::sample(
        &dimmer_core::BuildingId::new("bench-b").expect("valid"),
        4,
        6,
    );
    tree_rows(&mut table, "bim_model", &bim.to_value());

    println!("{table}");
    println!("# series (csv)\n{}", table.to_csv());

    // Size ratio summary (the paper-level takeaway).
    let json = codec::encode_batch(&batch(100), DataFormat::Json).len() as f64;
    let xml = codec::encode_batch(&batch(100), DataFormat::Xml).len() as f64;
    println!("xml/json size ratio on batch_100: {:.2}", xml / json);
}
