//! Physical units used in district energy monitoring.
//!
//! The unit set covers what the four device families report: temperatures,
//! electrical quantities, thermal energy, flow, illuminance, humidity and
//! air quality. Conversions are provided inside each dimension; a
//! conversion across dimensions is an error, which is how the integration
//! layer detects mislabelled source data.

use std::fmt;

use crate::CoreError;

/// A physical unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Unit {
    // Temperature
    /// Degree Celsius.
    Celsius,
    /// Kelvin.
    Kelvin,
    // Power
    /// Watt.
    Watt,
    /// Kilowatt.
    Kilowatt,
    // Energy
    /// Watt-hour.
    WattHour,
    /// Kilowatt-hour.
    KilowattHour,
    /// Megajoule.
    Megajoule,
    // Electrical
    /// Volt.
    Volt,
    /// Ampere.
    Ampere,
    // Flow
    /// Cubic metre per hour.
    CubicMetrePerHour,
    /// Litre per second.
    LitrePerSecond,
    // Environment
    /// Lux.
    Lux,
    /// Relative humidity in percent.
    PercentRelativeHumidity,
    /// CO₂ concentration, parts per million.
    PartsPerMillion,
    // Dimensionless
    /// A bare count (pulses, occupancy, on/off).
    Count,
}

/// The physical dimension a unit measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub(crate) enum Dimension {
    /// Thermodynamic temperature.
    Temperature,
    /// Power.
    Power,
    /// Energy.
    Energy,
    /// Electric potential.
    Voltage,
    /// Electric current.
    Current,
    /// Volumetric flow.
    Flow,
    /// Illuminance.
    Illuminance,
    /// Relative humidity.
    Humidity,
    /// Gas concentration.
    Concentration,
    /// Dimensionless count.
    Dimensionless,
}

impl Unit {
    /// The dimension this unit measures.
    pub(crate) fn dimension(self) -> Dimension {
        match self {
            Unit::Celsius | Unit::Kelvin => Dimension::Temperature,
            Unit::Watt | Unit::Kilowatt => Dimension::Power,
            Unit::WattHour | Unit::KilowattHour | Unit::Megajoule => Dimension::Energy,
            Unit::Volt => Dimension::Voltage,
            Unit::Ampere => Dimension::Current,
            Unit::CubicMetrePerHour | Unit::LitrePerSecond => Dimension::Flow,
            Unit::Lux => Dimension::Illuminance,
            Unit::PercentRelativeHumidity => Dimension::Humidity,
            Unit::PartsPerMillion => Dimension::Concentration,
            Unit::Count => Dimension::Dimensionless,
        }
    }

    /// The unit symbol used in the common data format.
    pub fn symbol(self) -> &'static str {
        match self {
            Unit::Celsius => "degC",
            Unit::Kelvin => "K",
            Unit::Watt => "W",
            Unit::Kilowatt => "kW",
            Unit::WattHour => "Wh",
            Unit::KilowattHour => "kWh",
            Unit::Megajoule => "MJ",
            Unit::Volt => "V",
            Unit::Ampere => "A",
            Unit::CubicMetrePerHour => "m3/h",
            Unit::LitrePerSecond => "L/s",
            Unit::Lux => "lx",
            Unit::PercentRelativeHumidity => "%RH",
            Unit::PartsPerMillion => "ppm",
            Unit::Count => "count",
        }
    }

    /// Parses a symbol produced by [`Unit::symbol`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSymbol`] for anything else.
    pub fn parse(symbol: &str) -> Result<Self, CoreError> {
        Unit::all()
            .iter()
            .copied()
            .find(|u| u.symbol() == symbol)
            .ok_or_else(|| CoreError::UnknownSymbol {
                vocabulary: "unit",
                symbol: symbol.to_owned(),
            })
    }

    /// All units.
    pub fn all() -> &'static [Unit] {
        &[
            Unit::Celsius,
            Unit::Kelvin,
            Unit::Watt,
            Unit::Kilowatt,
            Unit::WattHour,
            Unit::KilowattHour,
            Unit::Megajoule,
            Unit::Volt,
            Unit::Ampere,
            Unit::CubicMetrePerHour,
            Unit::LitrePerSecond,
            Unit::Lux,
            Unit::PercentRelativeHumidity,
            Unit::PartsPerMillion,
            Unit::Count,
        ]
    }

    /// Converts `value` from `self` to `to`.
    ///
    /// ```
    /// use dimmer_core::Unit;
    /// # fn main() -> Result<(), dimmer_core::CoreError> {
    /// assert_eq!(Unit::Kilowatt.convert(1.5, Unit::Watt)?, 1500.0);
    /// assert_eq!(Unit::Celsius.convert(0.0, Unit::Kelvin)?, 273.15);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompatibleUnits`] when the dimensions differ.
    pub fn convert(self, value: f64, to: Unit) -> Result<f64, CoreError> {
        if self.dimension() != to.dimension() {
            return Err(CoreError::IncompatibleUnits {
                from: self.symbol(),
                to: to.symbol(),
            });
        }
        if self == to {
            return Ok(value);
        }
        // Convert through the dimension's base unit.
        let base = self.to_base(value);
        Ok(to.convert_from_base(base))
    }

    /// Converts a value in `self` to the dimension's base unit
    /// (K, W, Wh, m³/h; identity for single-unit dimensions).
    fn to_base(self, v: f64) -> f64 {
        match self {
            Unit::Celsius => v + 273.15,
            Unit::Kelvin => v,
            Unit::Watt => v,
            Unit::Kilowatt => v * 1_000.0,
            Unit::WattHour => v,
            Unit::KilowattHour => v * 1_000.0,
            Unit::Megajoule => v * (1_000_000.0 / 3_600.0),
            Unit::CubicMetrePerHour => v,
            Unit::LitrePerSecond => v * 3.6,
            _ => v,
        }
    }

    /// Converts a value in the dimension's base unit to `self`.
    fn convert_from_base(self, v: f64) -> f64 {
        match self {
            Unit::Celsius => v - 273.15,
            Unit::Kelvin => v,
            Unit::Watt => v,
            Unit::Kilowatt => v / 1_000.0,
            Unit::WattHour => v,
            Unit::KilowattHour => v / 1_000.0,
            Unit::Megajoule => v * (3_600.0 / 1_000_000.0),
            Unit::CubicMetrePerHour => v,
            Unit::LitrePerSecond => v / 3.6,
            _ => v,
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_round_trip() {
        for &u in Unit::all() {
            assert_eq!(Unit::parse(u.symbol()).unwrap(), u);
        }
        assert!(Unit::parse("furlongs").is_err());
    }

    #[test]
    fn symbols_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &u in Unit::all() {
            assert!(seen.insert(u.symbol()), "duplicate symbol {}", u.symbol());
        }
    }

    #[test]
    fn temperature_conversions() {
        assert_eq!(Unit::Celsius.convert(25.0, Unit::Kelvin).unwrap(), 298.15);
        assert!((Unit::Kelvin.convert(300.0, Unit::Celsius).unwrap() - 26.85).abs() < 1e-9);
    }

    #[test]
    fn energy_conversions() {
        assert_eq!(
            Unit::KilowattHour.convert(2.0, Unit::WattHour).unwrap(),
            2000.0
        );
        // 1 kWh = 3.6 MJ
        assert!((Unit::KilowattHour.convert(1.0, Unit::Megajoule).unwrap() - 3.6).abs() < 1e-9);
        assert!((Unit::Megajoule.convert(3.6, Unit::KilowattHour).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flow_conversions() {
        // 1 L/s = 3.6 m3/h
        assert!(
            (Unit::LitrePerSecond
                .convert(1.0, Unit::CubicMetrePerHour)
                .unwrap()
                - 3.6)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn identity_conversion() {
        assert_eq!(Unit::Lux.convert(410.0, Unit::Lux).unwrap(), 410.0);
    }

    #[test]
    fn cross_dimension_rejected() {
        let err = Unit::Celsius.convert(20.0, Unit::Watt).unwrap_err();
        assert!(matches!(err, CoreError::IncompatibleUnits { .. }));
    }

    #[test]
    fn conversion_round_trip_is_stable() {
        for &(a, b) in &[
            (Unit::Celsius, Unit::Kelvin),
            (Unit::Kilowatt, Unit::Watt),
            (Unit::KilowattHour, Unit::Megajoule),
            (Unit::LitrePerSecond, Unit::CubicMetrePerHour),
        ] {
            let x = 123.456;
            let there = a.convert(x, b).unwrap();
            let back = b.convert(there, a).unwrap();
            assert!((back - x).abs() < 1e-9, "{a} <-> {b}");
        }
    }
}
