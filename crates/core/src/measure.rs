//! Measurements — the payload the whole infrastructure moves.

use std::fmt;

use crate::codec::{Reader, Scalar, Shaped, Writer};
use crate::{CoreError, DeviceId, QuantityKind, Timestamp, Unit, Value};

/// One sample reported by a device, in the common data format.
///
/// ```
/// use dimmer_core::{Measurement, DeviceId, QuantityKind, Unit, Timestamp};
/// # fn main() -> Result<(), dimmer_core::CoreError> {
/// let m = Measurement::new(
///     DeviceId::new("dev-1")?,
///     QuantityKind::ActivePower,
///     1.2,
///     Unit::Kilowatt,
///     Timestamp::from_unix_millis(1_000_000_000),
/// );
/// // The value stays in the unit the device reported it in.
/// assert_eq!((m.value(), m.unit()), (1.2, Unit::Kilowatt));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    device: DeviceId,
    quantity: QuantityKind,
    value: f64,
    unit: Unit,
    timestamp: Timestamp,
}

impl Measurement {
    /// Creates a measurement.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or if `unit`'s dimension does not match
    /// `quantity` — both indicate a bug in the calling translation layer,
    /// not bad external data (translators validate before constructing).
    pub fn new(
        device: DeviceId,
        quantity: QuantityKind,
        value: f64,
        unit: Unit,
        timestamp: Timestamp,
    ) -> Self {
        assert!(!value.is_nan(), "measurement value must not be NaN");
        assert!(
            quantity.accepts(unit),
            "unit {unit} has the wrong dimension for {quantity}"
        );
        Measurement {
            device,
            quantity,
            value,
            unit,
            timestamp,
        }
    }

    /// The reporting device.
    pub fn device(&self) -> &DeviceId {
        &self.device
    }

    /// The observed phenomenon.
    pub fn quantity(&self) -> QuantityKind {
        self.quantity
    }

    /// The numeric value, in [`Measurement::unit`].
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The unit of [`Measurement::value`].
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// When the sample was taken.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// Translates to the common data format [`Value`].
    pub fn to_value(&self) -> Value {
        Value::object([
            ("device", Value::from(self.device.as_str())),
            ("quantity", Value::from(self.quantity.as_str())),
            ("value", Value::from(self.value)),
            ("unit", Value::from(self.unit.symbol())),
            ("timestamp", Value::from(self.timestamp.to_string())),
        ])
    }

    /// Decodes a [`Value`] produced by [`Measurement::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] (or a more specific error) when the
    /// value does not describe a measurement.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        Measurement::from_fields(
            v.require_str(MEASUREMENT, "device"),
            v.require_str(MEASUREMENT, "quantity"),
            v.require_f64(MEASUREMENT, "value"),
            v.require_str(MEASUREMENT, "unit"),
            v.require_str(MEASUREMENT, "timestamp"),
        )
    }

    /// Validates the five members, reporting the first that is wrong.
    fn from_fields(
        device: Shaped<&str>,
        quantity: Shaped<&str>,
        value: Shaped<f64>,
        unit: Shaped<&str>,
        timestamp: Shaped<&str>,
    ) -> Result<Self, CoreError> {
        let device = DeviceId::new(device?)?;
        let quantity = QuantityKind::parse(quantity?)?;
        let value = value?;
        let unit = Unit::parse(unit?)?;
        let timestamp = Timestamp::parse(timestamp?)?;
        if value.is_nan() {
            return Err(CoreError::Shape {
                target: MEASUREMENT,
                reason: "value is NaN".into(),
            });
        }
        if !quantity.accepts(unit) {
            return Err(CoreError::Shape {
                target: MEASUREMENT,
                reason: format!("unit {unit} does not fit quantity {quantity}"),
            });
        }
        Ok(Measurement {
            device,
            quantity,
            value,
            unit,
            timestamp,
        })
    }

    /// Typed writer: emits the encoding of [`Measurement::to_value`]
    /// without building it.
    pub(crate) fn write(&self, w: &mut Writer<'_>) {
        Measurement::write_fields(
            w,
            &self.device,
            self.quantity,
            self.value,
            self.unit,
            self.timestamp,
        );
    }

    /// Typed writer for a caller that holds the fields apart (a proxy
    /// with a stored point and its own device id): emits what
    /// `Measurement::new(device, …).write(w)` would, without the
    /// measurement. Object keys go out in sorted order, as a [`Value`]
    /// object encodes them.
    ///
    /// # Panics
    ///
    /// Panics where [`Measurement::new`] does.
    pub fn write_fields(
        w: &mut Writer<'_>,
        device: &DeviceId,
        quantity: QuantityKind,
        value: f64,
        unit: Unit,
        timestamp: Timestamp,
    ) {
        assert!(!value.is_nan(), "measurement value must not be NaN");
        assert!(
            quantity.accepts(unit),
            "unit {unit} has the wrong dimension for {quantity}"
        );
        w.begin_object();
        w.key("device");
        w.str(device.as_str());
        w.key("quantity");
        w.str(quantity.as_str());
        w.key("timestamp");
        w.display(&timestamp);
        w.key("unit");
        w.str(unit.symbol());
        w.key("value");
        w.float(value);
        w.end_object();
    }

    /// Typed reader: decodes the next value as a measurement, as
    /// [`Measurement::from_value`] would from the decoded tree.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error; the inner result says whether
    /// the well-formed value describes a measurement.
    pub(crate) fn read(r: &mut Reader<'_>) -> Result<Shaped<Self>, CoreError> {
        let [mut device, mut quantity, mut value, mut unit, mut timestamp] =
            [const { Scalar::Missing }; 5];
        if r.begin_object()? {
            while let Some(key) = r.next_key()? {
                let member = Scalar::read(r)?;
                match &*key {
                    "device" => device = member,
                    "quantity" => quantity = member,
                    "value" => value = member,
                    "unit" => unit = member,
                    "timestamp" => timestamp = member,
                    _ => {}
                }
            }
        }
        Ok(Measurement::from_fields(
            device.require_str(MEASUREMENT, "device"),
            quantity.require_str(MEASUREMENT, "quantity"),
            value.require_f64(MEASUREMENT, "value"),
            unit.require_str(MEASUREMENT, "unit"),
            timestamp.require_str(MEASUREMENT, "timestamp"),
        ))
    }
}

/// What decoding errors name as their target.
const MEASUREMENT: &str = "measurement";

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}={} {} @ {}",
            self.device, self.quantity, self.value, self.unit, self.timestamp
        )
    }
}

/// An ordered batch of measurements, as served by proxy data endpoints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasurementBatch {
    items: Vec<Measurement>,
}

impl MeasurementBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        MeasurementBatch::default()
    }

    /// Appends a measurement.
    pub fn push(&mut self, m: Measurement) {
        self.items.push(m);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the batch holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the measurements.
    pub fn iter(&self) -> std::slice::Iter<'_, Measurement> {
        self.items.iter()
    }

    /// Translates to the common data format.
    pub fn to_value(&self) -> Value {
        Value::object([(
            "measurements",
            Value::Array(self.items.iter().map(Measurement::to_value).collect()),
        )])
    }

    /// Decodes a [`Value`] produced by [`MeasurementBatch::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] when the value has the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        let items = v
            .require_array(BATCH, "measurements")?
            .iter()
            .map(Measurement::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MeasurementBatch { items })
    }

    /// Typed writer: emits the encoding of [`MeasurementBatch::to_value`]
    /// without building it.
    pub(crate) fn write(&self, w: &mut Writer<'_>) {
        write_batch(w, |w| self.items.iter().for_each(|m| m.write(w)));
    }

    /// Typed writer for one device series: emits the batch that `points`
    /// — `(unix millis, value)` pairs as the time-series store returns
    /// them — would make as measurements of `quantity` in `unit`, without
    /// building either.
    ///
    /// # Panics
    ///
    /// Panics where [`Measurement::new`] does.
    pub fn write_series(
        w: &mut Writer<'_>,
        device: &DeviceId,
        quantity: QuantityKind,
        unit: Unit,
        points: &[(i64, f64)],
    ) {
        write_batch(w, |w| {
            for &(t, value) in points {
                let timestamp = Timestamp::from_unix_millis(t);
                Measurement::write_fields(w, device, quantity, value, unit, timestamp);
            }
        });
    }

    /// Typed reader: decodes the next value as a batch, as
    /// [`MeasurementBatch::from_value`] would from the decoded tree.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error; the inner result says whether
    /// the well-formed value describes a batch.
    pub fn read(r: &mut Reader<'_>) -> Result<Shaped<Self>, CoreError> {
        let mut items = Err(CoreError::Shape {
            target: BATCH,
            reason: "missing member \"measurements\"".into(),
        });
        if r.begin_object()? {
            while let Some(key) = r.next_key()? {
                if key == "measurements" {
                    items = read_items(r)?;
                } else {
                    r.skip_value()?;
                }
            }
        }
        Ok(items.map(|items| MeasurementBatch { items }))
    }
}

/// What decoding errors name as their target.
const BATCH: &str = "measurement batch";

/// Writes the batch object around the items `write_items` emits.
fn write_batch(w: &mut Writer<'_>, write_items: impl FnOnce(&mut Writer<'_>)) {
    w.begin_object();
    w.key("measurements");
    w.begin_array();
    write_items(w);
    w.end_array();
    w.end_object();
}

/// Reads the `measurements` member; the first ill-shaped item decides
/// the outcome, but every item's syntax is still checked.
fn read_items(r: &mut Reader<'_>) -> Result<Shaped<Vec<Measurement>>, CoreError> {
    if !r.begin_array()? {
        return Ok(Err(CoreError::Shape {
            target: BATCH,
            reason: "member \"measurements\" is not an array".into(),
        }));
    }
    let mut items = Ok(Vec::new());
    while r.more_items()? {
        match (Measurement::read(r)?, &mut items) {
            (Ok(m), Ok(items)) => items.push(m),
            (Err(e), Ok(_)) => items = Err(e),
            (_, Err(_)) => {}
        }
    }
    Ok(items)
}

impl FromIterator<Measurement> for MeasurementBatch {
    fn from_iter<I: IntoIterator<Item = Measurement>>(iter: I) -> Self {
        MeasurementBatch {
            items: iter.into_iter().collect(),
        }
    }
}

impl Extend<Measurement> for MeasurementBatch {
    fn extend<I: IntoIterator<Item = Measurement>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl IntoIterator for MeasurementBatch {
    type Item = Measurement;
    type IntoIter = std::vec::IntoIter<Measurement>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a MeasurementBatch {
    type Item = &'a Measurement;
    type IntoIter = std::slice::Iter<'a, Measurement>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measurement {
        Measurement::new(
            DeviceId::new("dev-1").unwrap(),
            QuantityKind::Temperature,
            21.5,
            Unit::Celsius,
            Timestamp::from_unix_millis(1_425_900_000_000),
        )
    }

    #[test]
    fn value_round_trip() {
        let m = sample();
        assert_eq!(Measurement::from_value(&m.to_value()).unwrap(), m);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn unit_quantity_mismatch_panics() {
        Measurement::new(
            DeviceId::new("d").unwrap(),
            QuantityKind::Temperature,
            1.0,
            Unit::Watt,
            Timestamp::EPOCH,
        );
    }

    #[test]
    fn from_value_validates() {
        let mut v = sample().to_value();
        v.insert("unit", Value::from("W"));
        let err = Measurement::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("does not fit"));

        let mut v = sample().to_value();
        v.insert("timestamp", Value::from("yesterday"));
        assert!(Measurement::from_value(&v).is_err());

        let v = Value::object([("device", Value::from("d"))]);
        assert!(Measurement::from_value(&v).is_err());
    }

    #[test]
    fn batch_round_trip() {
        let batch: MeasurementBatch = (0..5)
            .map(|i| {
                Measurement::new(
                    DeviceId::new(format!("dev-{i}")).unwrap(),
                    QuantityKind::ActivePower,
                    100.0 * i as f64,
                    Unit::Watt,
                    Timestamp::from_unix_millis(i * 1000),
                )
            })
            .collect();
        assert_eq!(batch.len(), 5);
        let back = MeasurementBatch::from_value(&batch.to_value()).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn batch_extend_and_iterate() {
        let mut batch = MeasurementBatch::new();
        assert!(batch.is_empty());
        batch.extend([sample()]);
        batch.push(sample());
        assert_eq!(batch.iter().count(), 2);
        assert_eq!((&batch).into_iter().count(), 2);
        assert_eq!(batch.into_iter().count(), 2);
    }

    #[test]
    fn display_is_informative() {
        let text = sample().to_string();
        assert!(text.contains("dev-1"));
        assert!(text.contains("temperature"));
        assert!(text.contains("degC"));
    }
}
