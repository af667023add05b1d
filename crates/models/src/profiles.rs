//! Synthetic energy-consumption profiles.
//!
//! The paper's devices report real district data; the reproduction
//! substitutes deterministic synthetic profiles with the structure real
//! district traces have — daily occupancy cycles, weekday/weekend
//! contrast, seasonal temperature drift and noise. A profile is a pure
//! function of time (plus a seeded noise stream), so simulations replay
//! identically.

use dimmer_core::QuantityKind;
use simnet_free_rng::NoiseRng;

/// A tiny deterministic noise stream (SplitMix64), independent from the
/// `simnet` kernel so `models` stays substrate-free.
mod simnet_free_rng {
    /// Deterministic noise generator for profile jitter.
    #[derive(Debug, Clone)]
    pub(crate) struct NoiseRng(u64);

    impl NoiseRng {
        /// Creates a stream from a seed.
        pub(crate) fn new(seed: u64) -> Self {
            NoiseRng(seed)
        }

        /// The next sample in `[-1, 1]`.
        pub(crate) fn next_unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }
}

const MILLIS_PER_DAY: i64 = 86_400_000;
const MILLIS_PER_YEAR: i64 = MILLIS_PER_DAY * 365;

/// The day-of-week of a unix-millis timestamp (0 = Monday).
fn weekday(unix_millis: i64) -> u8 {
    // 1970-01-01 was a Thursday (weekday 3).
    ((unix_millis.div_euclid(MILLIS_PER_DAY) + 3).rem_euclid(7)) as u8
}

/// Fraction of the day in `[0, 1)`.
fn day_fraction(unix_millis: i64) -> f64 {
    unix_millis.rem_euclid(MILLIS_PER_DAY) as f64 / MILLIS_PER_DAY as f64
}

/// Fraction of the year in `[0, 1)` (0 = Jan 1).
fn year_fraction(unix_millis: i64) -> f64 {
    unix_millis.rem_euclid(MILLIS_PER_YEAR) as f64 / MILLIS_PER_YEAR as f64
}

/// A deterministic generator of realistic sensor readings.
///
/// ```
/// use models::profiles::EnergyProfile;
/// use dimmer_core::QuantityKind;
///
/// let mut profile = EnergyProfile::for_quantity(QuantityKind::Temperature, 42);
/// let noon = 12 * 3_600_000;
/// let t = profile.sample(noon);
/// assert!((0.0..40.0).contains(&t), "indoor temperature {t} plausible");
/// ```
#[derive(Debug, Clone)]
pub struct EnergyProfile {
    quantity: QuantityKind,
    /// Scale of the profile (peak watts, floor area proxy, …).
    scale: f64,
    noise: NoiseRng,
    noise_amplitude: f64,
    /// Running integral for cumulative (energy) quantities, in kWh.
    cumulative_kwh: f64,
    last_millis: Option<i64>,
}

impl EnergyProfile {
    /// A profile with default scale for `quantity`, seeded with `seed`.
    pub fn for_quantity(quantity: QuantityKind, seed: u64) -> Self {
        let scale = match quantity {
            QuantityKind::ActivePower => 2_000.0, // W peak per dwelling
            QuantityKind::ElectricalEnergy | QuantityKind::ThermalEnergy => 2_000.0,
            QuantityKind::FlowRate => 1.5, // m3/h
            _ => 1.0,
        };
        EnergyProfile::with_scale(quantity, scale, seed)
    }

    /// A profile with an explicit scale.
    pub(crate) fn with_scale(quantity: QuantityKind, scale: f64, seed: u64) -> Self {
        EnergyProfile {
            quantity,
            scale,
            noise: NoiseRng::new(seed),
            noise_amplitude: 0.03,
            cumulative_kwh: 0.0,
            last_millis: None,
        }
    }

    /// The occupancy factor in `[0, 1]` at a time: the daily double hump
    /// damped on weekends.
    pub(crate) fn occupancy(unix_millis: i64) -> f64 {
        let h = day_fraction(unix_millis) * 24.0;
        let morning = (-((h - 9.0) / 2.5).powi(2)).exp();
        let evening = (-((h - 19.0) / 3.0).powi(2)).exp();
        let base = 0.15 + 0.85 * morning.max(evening);
        if weekday(unix_millis) >= 5 {
            0.3 + 0.4 * base
        } else {
            base
        }
    }

    /// Outdoor temperature in °C at a time (seasonal + daily swing).
    pub(crate) fn outdoor_temperature(unix_millis: i64) -> f64 {
        let season = -(2.0 * std::f64::consts::PI * year_fraction(unix_millis)).cos();
        let daily = -(2.0 * std::f64::consts::PI * (day_fraction(unix_millis) - 0.17)).cos();
        12.0 + 10.0 * season + 4.0 * daily
    }

    /// Samples the profile at `unix_millis`, in the quantity's canonical
    /// unit. For cumulative quantities the sample integrates power since
    /// the previous call, so **call with non-decreasing timestamps**.
    pub fn sample(&mut self, unix_millis: i64) -> f64 {
        let noise = self.noise.next_unit() * self.noise_amplitude;
        let occ = EnergyProfile::occupancy(unix_millis);
        match self.quantity {
            QuantityKind::Temperature => {
                // Indoor: setpoint 20.5 pulled toward outdoor, occupancy gains.
                let outdoor = EnergyProfile::outdoor_temperature(unix_millis);
                let drift = (outdoor - 20.5) * 0.08;
                (20.5 + drift + 1.2 * occ + noise * 15.0).clamp(0.0, 40.0)
            }
            QuantityKind::ActivePower => {
                (self.scale * (0.12 + 0.88 * occ) * (1.0 + noise * 4.0)).max(0.0)
            }
            QuantityKind::ElectricalEnergy | QuantityKind::ThermalEnergy => {
                let power_w = self.scale * (0.12 + 0.88 * occ);
                if let Some(last) = self.last_millis {
                    let hours = (unix_millis - last).max(0) as f64 / 3_600_000.0;
                    self.cumulative_kwh += power_w / 1000.0 * hours;
                }
                self.last_millis = Some(unix_millis);
                self.cumulative_kwh
            }
            QuantityKind::Voltage => 230.0 * (1.0 + noise),
            QuantityKind::Current => (self.scale * occ / 230.0).max(0.0),
            QuantityKind::FlowRate => (self.scale * occ * (1.0 + noise * 3.0)).max(0.0),
            QuantityKind::Illuminance => {
                let h = day_fraction(unix_millis) * 24.0;
                let sun = (-((h - 13.0) / 4.0).powi(2)).exp();
                (800.0 * sun + 300.0 * occ * (1.0 + noise)).max(0.0)
            }
            QuantityKind::Humidity => (45.0 + 10.0 * occ + noise * 120.0).clamp(10.0, 95.0),
            QuantityKind::Co2 => (420.0 + 700.0 * occ * (1.0 + noise * 4.0)).max(380.0),
            QuantityKind::Occupancy => (occ * 12.0).round().max(0.0),
            QuantityKind::SwitchState => f64::from(u8::from(occ > 0.45)),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2015-01-05 was a Monday.
    const MONDAY: i64 = 1_420_416_000_000;
    /// 2015-01-10 was a Saturday.
    const SATURDAY: i64 = 1_420_848_000_000;
    const HOUR: i64 = 3_600_000;

    #[test]
    fn weekday_known_dates() {
        assert_eq!(weekday(0), 3, "1970-01-01 was a Thursday");
        assert_eq!(weekday(MONDAY), 0);
        assert_eq!(weekday(SATURDAY), 5);
        assert_eq!(weekday(-MILLIS_PER_DAY), 2, "1969-12-31 was a Wednesday");
    }

    #[test]
    fn occupancy_peaks_in_business_hours() {
        let morning = EnergyProfile::occupancy(MONDAY + 9 * HOUR);
        let night = EnergyProfile::occupancy(MONDAY + 3 * HOUR);
        assert!(morning > 0.8, "morning {morning}");
        assert!(night < 0.3, "night {night}");
    }

    #[test]
    fn weekend_occupancy_damped() {
        let weekday_peak = EnergyProfile::occupancy(MONDAY + 9 * HOUR);
        let weekend_peak = EnergyProfile::occupancy(SATURDAY + 9 * HOUR);
        assert!(weekend_peak < weekday_peak);
    }

    #[test]
    fn outdoor_temperature_seasonal() {
        // January vs July, same hour.
        let jan = EnergyProfile::outdoor_temperature(MONDAY + 12 * HOUR);
        let jul = EnergyProfile::outdoor_temperature(MONDAY + 181 * MILLIS_PER_DAY + 12 * HOUR);
        assert!(jul > jan + 10.0, "january {jan}, july {jul}");
    }

    #[test]
    fn samples_are_deterministic() {
        let run = || {
            let mut p = EnergyProfile::for_quantity(QuantityKind::ActivePower, 7);
            (0..48)
                .map(|h| p.sample(MONDAY + h * HOUR))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn power_follows_occupancy() {
        let mut p = EnergyProfile::with_scale(QuantityKind::ActivePower, 1000.0, 1);
        let mut peak = 0.0f64;
        let mut trough = f64::INFINITY;
        for h in 0..24 {
            let v = p.sample(MONDAY + h * HOUR);
            peak = peak.max(v);
            trough = trough.min(v);
        }
        assert!(peak > 3.0 * trough, "peak {peak}, trough {trough}");
        assert!(trough >= 0.0);
    }

    #[test]
    fn energy_is_monotone_cumulative() {
        let mut p = EnergyProfile::for_quantity(QuantityKind::ElectricalEnergy, 3);
        let mut last = 0.0;
        for h in 0..72 {
            let v = p.sample(MONDAY + h * HOUR);
            assert!(v >= last, "cumulative energy decreased: {v} < {last}");
            last = v;
        }
        // ~2 kW scale over 72 h: tens of kWh.
        assert!(last > 10.0 && last < 200.0, "total {last}");
    }

    #[test]
    fn ranges_are_physical() {
        for &q in QuantityKind::all() {
            let mut p = EnergyProfile::for_quantity(q, 11);
            for h in 0..48 {
                let v = p.sample(MONDAY + h * HOUR);
                assert!(v.is_finite(), "{q} produced {v}");
                match q {
                    QuantityKind::Temperature => assert!((0.0..=40.0).contains(&v)),
                    QuantityKind::Humidity => assert!((10.0..=95.0).contains(&v)),
                    QuantityKind::Co2 => assert!(v >= 380.0),
                    QuantityKind::SwitchState => assert!(v == 0.0 || v == 1.0),
                    _ => assert!(v >= 0.0, "{q} produced {v}"),
                }
            }
        }
    }

    #[test]
    fn different_seeds_decorrelate_noise() {
        let mut a = EnergyProfile::for_quantity(QuantityKind::ActivePower, 1);
        let mut b = EnergyProfile::for_quantity(QuantityKind::ActivePower, 2);
        let same = (0..24)
            .filter(|h| (a.sample(MONDAY + h * HOUR) - b.sample(MONDAY + h * HOUR)).abs() < 1e-12)
            .count();
        assert!(same < 4);
    }
}
