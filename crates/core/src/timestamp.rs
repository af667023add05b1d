//! Civil timestamps for measurement data.
//!
//! A [`Timestamp`] is a count of milliseconds since the Unix epoch (UTC).
//! It formats to and parses from the ISO 8601 profile used in the common
//! data format: `YYYY-MM-DDThh:mm:ss[.mmm]Z`. The civil-date conversion
//! uses Howard Hinnant's `days_from_civil` algorithm, exact over the whole
//! supported range.

use std::fmt;
use std::ops::{Add, Sub};

use crate::CoreError;

/// Milliseconds since `1970-01-01T00:00:00Z`.
///
/// ```
/// use dimmer_core::Timestamp;
/// let t = Timestamp::from_unix_millis(1_425_859_200_000); // 2015-03-09
/// assert_eq!(t.to_string(), "2015-03-09T00:00:00Z");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

/// Broken-down UTC civil time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CivilTime {
    /// Full year, e.g. 2015.
    pub(crate) year: i32,
    /// Month 1–12.
    pub(crate) month: u8,
    /// Day of month 1–31.
    pub(crate) day: u8,
    /// Hour 0–23.
    pub(crate) hour: u8,
    /// Minute 0–59.
    pub(crate) minute: u8,
    /// Second 0–59.
    pub(crate) second: u8,
    /// Millisecond 0–999.
    pub(crate) millisecond: u16,
}

/// Days since epoch of civil date (Hinnant's `days_from_civil`).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m as i32 + 9) % 12); // [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since epoch (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

impl Timestamp {
    /// The Unix epoch.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from milliseconds since the Unix epoch.
    pub const fn from_unix_millis(millis: i64) -> Self {
        Timestamp(millis)
    }

    /// Creates a timestamp from a civil UTC date and time.
    ///
    /// # Panics
    ///
    /// Panics if a field is out of range (month 1–12, day 1–31, hour < 24,
    /// minute/second < 60, millisecond < 1000). Day overflow within a
    /// month (e.g. Feb 30) is *not* detected; use [`Timestamp::civil`] to
    /// normalize if needed.
    pub(crate) fn from_civil(civil: CivilTime) -> Self {
        let CivilTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
            millisecond,
        } = civil;
        assert!((1..=12).contains(&month), "month out of range");
        assert!((1..=31).contains(&day), "day out of range");
        assert!(hour < 24 && minute < 60 && second < 60, "time out of range");
        assert!(millisecond < 1000, "millisecond out of range");
        let days = days_from_civil(year, month, day);
        let secs =
            days * 86_400 + i64::from(hour) * 3_600 + i64::from(minute) * 60 + i64::from(second);
        Timestamp(secs * 1000 + i64::from(millisecond))
    }

    /// Milliseconds since the Unix epoch.
    pub const fn as_unix_millis(self) -> i64 {
        self.0
    }

    /// The broken-down UTC representation.
    pub(crate) fn civil(self) -> CivilTime {
        let millis = self.0.rem_euclid(1000) as u16;
        let secs = self.0.div_euclid(1000);
        let days = secs.div_euclid(86_400);
        let sod = secs.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        CivilTime {
            year,
            month,
            day,
            hour: (sod / 3600) as u8,
            minute: (sod % 3600 / 60) as u8,
            second: (sod % 60) as u8,
            millisecond: millis,
        }
    }

    /// Parses the ISO 8601 profile `YYYY-MM-DDThh:mm:ss[.mmm]Z`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParseTimestamp`] on any deviation.
    pub fn parse(s: &str) -> Result<Self, CoreError> {
        let err = || CoreError::ParseTimestamp {
            input: s.to_owned(),
        };
        let bytes = s.as_bytes();
        if bytes.len() < 20 || bytes[bytes.len() - 1] != b'Z' {
            return Err(err());
        }
        let body = &s[..s.len() - 1];
        let (date, time) = body.split_once('T').ok_or_else(err)?;
        let mut dp = date.split('-');
        let year: i32 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u8 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u8 = dp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if dp.next().is_some() {
            return Err(err());
        }
        let (hms, millis) = match time.split_once('.') {
            Some((hms, frac)) => {
                if frac.len() != 3 {
                    return Err(err());
                }
                (hms, frac.parse::<u16>().map_err(|_| err())?)
            }
            None => (time, 0),
        };
        let mut tp = hms.split(':');
        let hour: u8 = tp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let minute: u8 = tp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let second: u8 = tp.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if tp.next().is_some() {
            return Err(err());
        }
        if !(1..=12).contains(&month)
            || !(1..=31).contains(&day)
            || hour >= 24
            || minute >= 60
            || second >= 60
        {
            return Err(err());
        }
        Ok(Timestamp::from_civil(CivilTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
            millisecond: millis,
        }))
    }
}

impl Add<i64> for Timestamp {
    type Output = Timestamp;
    /// Adds `millis` milliseconds.
    fn add(self, millis: i64) -> Timestamp {
        Timestamp(self.0 + millis)
    }
}

impl Sub for Timestamp {
    type Output = i64;
    /// The difference in milliseconds.
    fn sub(self, rhs: Timestamp) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.civil();
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
            c.year, c.month, c.day, c.hour, c.minute, c.second
        )?;
        if c.millisecond != 0 {
            write!(f, ".{:03}", c.millisecond)?;
        }
        f.write_str("Z")
    }
}

impl std::str::FromStr for Timestamp {
    type Err = CoreError;
    fn from_str(s: &str) -> Result<Self, CoreError> {
        Timestamp::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        let c = Timestamp::EPOCH.civil();
        assert_eq!((c.year, c.month, c.day), (1970, 1, 1));
        assert_eq!((c.hour, c.minute, c.second, c.millisecond), (0, 0, 0, 0));
    }

    #[test]
    fn known_dates() {
        // DATE 2015 opened 2015-03-09 in Grenoble.
        let t = Timestamp::from_civil(CivilTime {
            year: 2015,
            month: 3,
            day: 9,
            hour: 9,
            minute: 30,
            second: 0,
            millisecond: 0,
        });
        assert_eq!(t.as_unix_millis(), 1_425_893_400_000);
        assert_eq!(t.to_string(), "2015-03-09T09:30:00Z");
    }

    #[test]
    fn display_parse_round_trip() {
        for s in [
            "1970-01-01T00:00:00Z",
            "2015-03-09T09:30:00Z",
            "1999-12-31T23:59:59.999Z",
            "2038-01-19T03:14:08Z",
            "1969-07-20T20:17:40Z",
        ] {
            let t = Timestamp::parse(s).unwrap();
            assert_eq!(t.to_string(), s, "{s}");
        }
    }

    #[test]
    fn civil_round_trip_across_years() {
        // Every 1000th second over ~4 months, plus leap-year boundaries.
        for secs in (0..10_000_000i64).step_by(997_003) {
            let t = Timestamp::from_unix_millis(secs * 1000);
            let c = t.civil();
            assert_eq!(Timestamp::from_civil(c), t);
        }
        // 2000 was a leap year (divisible by 400), 1900 was not.
        let feb29 = Timestamp::parse("2000-02-29T12:00:00Z").unwrap();
        assert_eq!(feb29.civil().day, 29);
    }

    #[test]
    fn negative_times_before_epoch() {
        let t = Timestamp::from_unix_millis(-1_000);
        let c = t.civil();
        assert_eq!((c.year, c.month, c.day), (1969, 12, 31));
        assert_eq!((c.hour, c.minute, c.second), (23, 59, 59));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "2015-03-09",
            "2015-03-09T09:30:00",
            "2015-13-09T09:30:00Z",
            "2015-03-32T09:30:00Z",
            "2015-03-09T24:30:00Z",
            "2015-03-09T09:61:00Z",
            "2015-03-09T09:30:00.12Z",
            "2015-03-09 09:30:00Z",
            "garbage",
        ] {
            assert!(Timestamp::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_unix_millis(100_000);
        assert_eq!(t + 500, Timestamp::from_unix_millis(100_500));
        assert_eq!((t + 500) - t, 500);
    }

    #[test]
    #[should_panic(expected = "month")]
    fn from_civil_validates() {
        Timestamp::from_civil(CivilTime {
            year: 2015,
            month: 0,
            day: 1,
            hour: 0,
            minute: 0,
            second: 0,
            millisecond: 0,
        });
    }
}
