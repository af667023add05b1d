//! The rollup record — one closed window at one aggregation tier.
//!
//! The same shape travels three ways: retained middleware publications
//! on [`pubsub::RollupTopic`] topics, the aggregator's `/rollups` Web
//! Service responses, and the profile client's parsed results.

use dimmer_core::codec::Writer;
use dimmer_core::{CoreError, QuantityKind, Summary, Value};

/// One closed window at district or entity scope.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    /// The district the rollup belongs to.
    pub district: String,
    /// `None` for the district tier, `Some(entity)` for one building /
    /// network.
    pub entity: Option<String>,
    /// The measured quantity.
    pub quantity: QuantityKind,
    /// Window start (unix millis, inclusive).
    pub window_start: i64,
    /// Window length in milliseconds.
    pub window_millis: i64,
    /// The raw samples folded into the window; its mean is the
    /// count-weighted mean.
    pub summary: Summary,
}

impl Rollup {
    /// Writes the object [`Rollup::to_value`] builds — members in the
    /// order `Value::object` sorts them, so the bytes are the tree
    /// driver's — from the borrowed parts of a window the aggregator has
    /// just closed, without building a `Rollup` or a tree.
    pub(crate) fn write_fields(
        w: &mut Writer<'_>,
        district: &str,
        entity: Option<&str>,
        quantity: QuantityKind,
        window_start: i64,
        window_millis: i64,
        summary: &Summary,
    ) {
        w.begin_object();
        w.key("count");
        w.int(summary.count as i64);
        w.key("district");
        w.str(district);
        w.key("entity");
        match entity {
            Some(entity) => w.str(entity),
            None => w.null(),
        }
        w.key("max");
        w.float(summary.max);
        w.key("mean");
        w.float(summary.mean());
        w.key("min");
        w.float(summary.min);
        w.key("quantity");
        w.str(quantity.as_str());
        w.key("sum");
        w.float(summary.sum);
        w.key("window_millis");
        w.int(window_millis);
        w.key("window_start");
        w.int(window_start);
        w.end_object();
    }

    /// Translates to the common data format.
    pub(crate) fn to_value(&self) -> Value {
        Value::object([
            ("district", Value::from(self.district.as_str())),
            (
                "entity",
                match &self.entity {
                    Some(e) => Value::from(e.as_str()),
                    None => Value::Null,
                },
            ),
            ("quantity", Value::from(self.quantity.as_str())),
            ("window_start", Value::from(self.window_start)),
            ("window_millis", Value::from(self.window_millis)),
            ("count", Value::from(self.summary.count as i64)),
            ("sum", Value::from(self.summary.sum)),
            ("min", Value::from(self.summary.min)),
            ("max", Value::from(self.summary.max)),
            ("mean", Value::from(self.summary.mean())),
        ])
    }

    /// Decodes a value produced by `Rollup::to_value`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        const T: &str = "rollup";
        Ok(Rollup {
            district: v.require_str(T, "district")?.to_owned(),
            entity: match v.get("entity") {
                Some(Value::Null) | None => None,
                Some(e) => Some(
                    e.as_str()
                        .ok_or_else(|| CoreError::Shape {
                            target: T,
                            reason: "entity must be a string or null".to_owned(),
                        })?
                        .to_owned(),
                ),
            },
            quantity: QuantityKind::parse(v.require_str(T, "quantity")?)?,
            window_start: v.require_i64(T, "window_start")?,
            window_millis: v.require_i64(T, "window_millis")?,
            summary: Summary {
                count: v.require_i64(T, "count")?.max(0) as u64,
                sum: v.require_f64(T, "sum")?,
                min: v.require_f64(T, "min")?,
                max: v.require_f64(T, "max")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(entity: Option<&str>) -> Rollup {
        Rollup {
            district: "d1".to_owned(),
            entity: entity.map(str::to_owned),
            quantity: QuantityKind::Temperature,
            window_start: 1_425_859_200_000,
            window_millis: 300_000,
            summary: Summary {
                count: 12,
                sum: 252.0,
                min: 18.5,
                max: 23.5,
            },
        }
    }

    #[test]
    fn value_round_trip_both_scopes() {
        for rollup in [sample(None), sample(Some("b3"))] {
            assert_eq!(Rollup::from_value(&rollup.to_value()).unwrap(), rollup);
        }
    }

    #[test]
    fn typed_writer_matches_the_tree_driver() {
        for r in [sample(None), sample(Some("b \"3\""))] {
            for format in dimmer_core::codec::DataFormat::all() {
                let mut typed = String::new();
                Rollup::write_fields(
                    &mut Writer::new(format, &mut typed),
                    &r.district,
                    r.entity.as_deref(),
                    r.quantity,
                    r.window_start,
                    r.window_millis,
                    &r.summary,
                );
                assert_eq!(
                    typed,
                    dimmer_core::codec::encode_value(&r.to_value(), format)
                );
            }
        }
    }

    #[test]
    fn derived_fields() {
        let r = sample(None);
        assert_eq!(r.summary.mean(), 21.0);
    }

    #[test]
    fn malformed_rejected() {
        assert!(Rollup::from_value(&Value::Null).is_err());
        let mut v = sample(None).to_value();
        v.insert("quantity", Value::from("vibes"));
        assert!(Rollup::from_value(&v).is_err());
    }
}
