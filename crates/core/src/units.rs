//! Physical units used in district energy monitoring.
//!
//! The unit set covers what the four device families report: temperatures,
//! electrical quantities, thermal energy, flow, illuminance, humidity and
//! air quality. Each unit has a dimension, and a quantity accepts only
//! units of its own dimension, which is how the integration layer detects
//! mislabelled source data.

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
}
