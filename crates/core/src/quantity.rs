//! Quantity kinds — *what* a measurement describes.
//!
//! A [`QuantityKind`] names the observed phenomenon
//! (indoor temperature, active power, …) independently of the unit it was
//! reported in; the ontology indexes device leaves by it so a user can ask
//! for "all power measurements in this area".

use std::fmt;

use crate::units::{Dimension, Unit};
use crate::CoreError;

/// The observed phenomenon of a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum QuantityKind {
    /// Air temperature.
    Temperature,
    /// Instantaneous active electrical power.
    ActivePower,
    /// Accumulated electrical energy.
    ElectricalEnergy,
    /// Accumulated thermal energy (district heating).
    ThermalEnergy,
    /// RMS voltage.
    Voltage,
    /// RMS current.
    Current,
    /// Water/heat-carrier flow rate.
    FlowRate,
    /// Illuminance.
    Illuminance,
    /// Relative humidity.
    Humidity,
    /// CO₂ concentration.
    Co2,
    /// Occupancy / presence count.
    Occupancy,
    /// Binary actuator or contact state (0/1).
    SwitchState,
}

impl QuantityKind {
    /// The canonical name used in the common data format.
    pub fn as_str(self) -> &'static str {
        match self {
            QuantityKind::Temperature => "temperature",
            QuantityKind::ActivePower => "active_power",
            QuantityKind::ElectricalEnergy => "electrical_energy",
            QuantityKind::ThermalEnergy => "thermal_energy",
            QuantityKind::Voltage => "voltage",
            QuantityKind::Current => "current",
            QuantityKind::FlowRate => "flow_rate",
            QuantityKind::Illuminance => "illuminance",
            QuantityKind::Humidity => "humidity",
            QuantityKind::Co2 => "co2",
            QuantityKind::Occupancy => "occupancy",
            QuantityKind::SwitchState => "switch_state",
        }
    }

    /// Parses a canonical name produced by [`QuantityKind::as_str`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSymbol`] for anything else.
    pub fn parse(s: &str) -> Result<Self, CoreError> {
        QuantityKind::all()
            .iter()
            .copied()
            .find(|q| q.as_str() == s)
            .ok_or_else(|| CoreError::UnknownSymbol {
                vocabulary: "quantity kind",
                symbol: s.to_owned(),
            })
    }

    /// All quantity kinds.
    pub fn all() -> &'static [QuantityKind] {
        &[
            QuantityKind::Temperature,
            QuantityKind::ActivePower,
            QuantityKind::ElectricalEnergy,
            QuantityKind::ThermalEnergy,
            QuantityKind::Voltage,
            QuantityKind::Current,
            QuantityKind::FlowRate,
            QuantityKind::Illuminance,
            QuantityKind::Humidity,
            QuantityKind::Co2,
            QuantityKind::Occupancy,
            QuantityKind::SwitchState,
        ]
    }

    /// The physical dimension measurements of this kind must have.
    pub(crate) fn dimension(self) -> Dimension {
        match self {
            QuantityKind::Temperature => Dimension::Temperature,
            QuantityKind::ActivePower => Dimension::Power,
            QuantityKind::ElectricalEnergy | QuantityKind::ThermalEnergy => Dimension::Energy,
            QuantityKind::Voltage => Dimension::Voltage,
            QuantityKind::Current => Dimension::Current,
            QuantityKind::FlowRate => Dimension::Flow,
            QuantityKind::Illuminance => Dimension::Illuminance,
            QuantityKind::Humidity => Dimension::Humidity,
            QuantityKind::Co2 => Dimension::Concentration,
            QuantityKind::Occupancy | QuantityKind::SwitchState => Dimension::Dimensionless,
        }
    }

    /// The unit this kind is canonically reported in inside the common
    /// data format.
    pub fn canonical_unit(self) -> Unit {
        match self {
            QuantityKind::Temperature => Unit::Celsius,
            QuantityKind::ActivePower => Unit::Watt,
            QuantityKind::ElectricalEnergy => Unit::KilowattHour,
            QuantityKind::ThermalEnergy => Unit::KilowattHour,
            QuantityKind::Voltage => Unit::Volt,
            QuantityKind::Current => Unit::Ampere,
            QuantityKind::FlowRate => Unit::CubicMetrePerHour,
            QuantityKind::Illuminance => Unit::Lux,
            QuantityKind::Humidity => Unit::PercentRelativeHumidity,
            QuantityKind::Co2 => Unit::PartsPerMillion,
            QuantityKind::Occupancy | QuantityKind::SwitchState => Unit::Count,
        }
    }

    /// Whether `unit` is acceptable for this quantity kind.
    pub fn accepts(self, unit: Unit) -> bool {
        unit.dimension() == self.dimension()
    }
}

impl fmt::Display for QuantityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for &q in QuantityKind::all() {
            assert_eq!(QuantityKind::parse(q.as_str()).unwrap(), q);
        }
        assert!(QuantityKind::parse("vibes").is_err());
    }

    #[test]
    fn canonical_unit_matches_dimension() {
        for &q in QuantityKind::all() {
            assert!(
                q.accepts(q.canonical_unit()),
                "{q}: canonical unit has wrong dimension"
            );
        }
    }

    #[test]
    fn accepts_checks_dimension() {
        assert!(QuantityKind::Temperature.accepts(Unit::Kelvin));
        assert!(!QuantityKind::Temperature.accepts(Unit::Watt));
        assert!(QuantityKind::ElectricalEnergy.accepts(Unit::Megajoule));
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &q in QuantityKind::all() {
            assert!(seen.insert(q.as_str()));
        }
    }
}
