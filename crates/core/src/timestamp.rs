//! Civil timestamps for measurement data.
//!
//! A [`Timestamp`] is a count of milliseconds since the Unix epoch (UTC).
//! It formats to and parses from the ISO 8601 profile used in the common
//! data format: `YYYY-MM-DDThh:mm:ss[.mmm]Z`. The civil-date conversion
//! uses Howard Hinnant's `days_from_civil` algorithm, exact over the whole
//! `i64` range, so every timestamp displays as text that parses back to
//! it; a year before 0 carries its sign (`-001-12-31T23:59:59.999Z`).
//!
//! Years 0–9999 — every timestamp a device reports — take a fixed-width
//! path both ways: [`Timestamp::canonical`] fills a 24-byte buffer by digit
//! arithmetic, and [`Timestamp::parse`] reads the 20- and 24-byte shapes
//! at fixed positions. Other years go through `fmt`, and other text through
//! the general parser, which accepts what it always accepted.

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

impl CivilTime {
    /// Whether every field is in range. The day is not checked against
    /// its month: Feb 30 normalizes to Mar 1 or 2.
    fn in_range(&self) -> bool {
        (1..=12).contains(&self.month)
            && (1..=31).contains(&self.day)
            && self.hour < 24
            && self.minute < 60
            && self.second < 60
            && self.millisecond < 1000
    }

    /// The instant these fields name, or `None` outside the millisecond
    /// range of an `i64`. Fields must be in range.
    fn to_millis(self) -> Option<i64> {
        // |days| < 2^31 * 366, so the seconds fit an i64; the
        // milliseconds may not.
        let days = days_from_civil(self.year, self.month, self.day);
        let secs = days * 86_400
            + i64::from(self.hour) * 3_600
            + i64::from(self.minute) * 60
            + i64::from(self.second);
        i64::try_from(i128::from(secs) * 1000 + i128::from(self.millisecond)).ok()
    }
}

/// The canonical text of a timestamp in years 0–9999, built by digit
/// arithmetic: exactly what `Display` writes for it.
#[derive(Debug)]
pub(crate) struct Canonical {
    bytes: [u8; 24],
    len: u8,
}

impl Canonical {
    fn of(c: &CivilTime) -> Option<Canonical> {
        let year = u16::try_from(c.year).ok().filter(|&y| y <= 9999)?;
        let mut bytes = *b"0000-00-00T00:00:00.000Z";
        put_digits(&mut bytes[0..4], year.into());
        put_digits(&mut bytes[5..7], c.month.into());
        put_digits(&mut bytes[8..10], c.day.into());
        put_digits(&mut bytes[11..13], c.hour.into());
        put_digits(&mut bytes[14..16], c.minute.into());
        put_digits(&mut bytes[17..19], c.second.into());
        let len = if c.millisecond == 0 {
            bytes[19] = b'Z';
            20
        } else {
            put_digits(&mut bytes[20..23], c.millisecond.into());
            24
        };
        Some(Canonical { bytes, len })
    }

    /// The text.
    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)])
            .expect("digits and separators are ASCII")
    }
}

/// Writes `n` into `out` as zero-padded decimal digits; `n` must fit.
fn put_digits(out: &mut [u8], mut n: u32) {
    for b in out.iter_mut().rev() {
        *b = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

/// Reads `bytes` as unsigned decimal digits; `None` if one is not a digit.
fn read_digits(bytes: &[u8]) -> Option<u32> {
    bytes.iter().try_fold(0, |n, &b| {
        b.is_ascii_digit().then(|| n * 10 + u32::from(b - b'0'))
    })
}

/// The fields of text in one of the canonical shapes,
/// `YYYY-MM-DDThh:mm:ssZ` and `YYYY-MM-DDThh:mm:ss.mmmZ`, read at fixed
/// positions; `None` for any other text.
fn canonical_fields(b: &[u8]) -> Option<CivilTime> {
    let millisecond = match b.len() {
        20 => 0,
        24 if b[19] == b'.' => read_digits(&b[20..23])?,
        _ => return None,
    };
    let separators = [(4, b'-'), (7, b'-'), (10, b'T'), (13, b':'), (16, b':')];
    if b[b.len() - 1] != b'Z' || separators.iter().any(|&(at, sep)| b[at] != sep) {
        return None;
    }
    let two = |at: usize| read_digits(&b[at..at + 2]).map(|n| n as u8);
    Some(CivilTime {
        year: read_digits(&b[0..4])? as i32,
        month: two(5)?,
        day: two(8)?,
        hour: two(11)?,
        minute: two(14)?,
        second: two(17)?,
        millisecond: millisecond as u16,
    })
}

/// The fields of any text of the profile: each field a decimal number
/// (`str::parse` rules), the year optionally signed, the milliseconds
/// exactly three characters; `None` for text that is not of the profile.
fn general_fields(s: &str) -> Option<CivilTime> {
    if s.len() < 20 {
        return None;
    }
    let (date, time) = s.strip_suffix('Z')?.split_once('T')?;
    // A year before 0 carries its sign, which is not a field separator.
    let unsigned = date.strip_prefix('-').unwrap_or(date);
    let sign = date.len() - unsigned.len();
    let mut dp = unsigned.split('-');
    let year_digits = dp.next()?;
    let year = date[..sign + year_digits.len()].parse().ok()?;
    let month = dp.next()?.parse().ok()?;
    let day = dp.next()?.parse().ok()?;
    if dp.next().is_some() {
        return None;
    }
    let (hms, millisecond) = match time.split_once('.') {
        Some((hms, frac)) if frac.len() == 3 => (hms, frac.parse().ok()?),
        Some(_) => return None,
        None => (time, 0),
    };
    let mut tp = hms.split(':');
    let hour = tp.next()?.parse().ok()?;
    let minute = tp.next()?.parse().ok()?;
    let second = tp.next()?.parse().ok()?;
    if tp.next().is_some() {
        return None;
    }
    Some(CivilTime {
        year,
        month,
        day,
        hour,
        minute,
        second,
        millisecond,
    })
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

    /// The canonical text of this timestamp when its year is in 0–9999,
    /// formatted without `fmt`; what `Display` writes.
    pub(crate) fn canonical(self) -> Option<Canonical> {
        Canonical::of(&self.civil())
    }

    /// Parses the ISO 8601 profile `[-]YYYY-MM-DDThh:mm:ss[.mmm]Z`. The
    /// canonical 20- and 24-byte shapes are read at fixed positions; any
    /// other text by the general parser, with the same result.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParseTimestamp`] on any deviation, and for an
    /// instant outside the `i64` millisecond range.
    pub fn parse(s: &str) -> Result<Self, CoreError> {
        canonical_fields(s.as_bytes())
            .or_else(|| general_fields(s))
            .filter(CivilTime::in_range)
            .and_then(CivilTime::to_millis)
            .map(Timestamp)
            .ok_or_else(|| CoreError::ParseTimestamp {
                input: s.to_owned(),
            })
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
        match Canonical::of(&c) {
            Some(text) => f.write_str(text.as_str()),
            None => write_civil(f, &c),
        }
    }
}

/// The `fmt` path of `Display`, taken for years outside 0–9999.
fn write_civil(f: &mut impl fmt::Write, c: &CivilTime) -> fmt::Result {
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

impl std::str::FromStr for Timestamp {
    type Err = CoreError;
    fn from_str(s: &str) -> Result<Self, CoreError> {
        Timestamp::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Timestamp {
        /// The instant `civil` names.
        ///
        /// # Panics
        ///
        /// Panics if a field is out of range; day overflow within a month
        /// (Feb 30) normalizes.
        fn from_civil(civil: CivilTime) -> Self {
            assert!((1..=12).contains(&civil.month), "month out of range");
            assert!(civil.in_range(), "field out of range");
            Timestamp(civil.to_millis().expect("inside the i64 range"))
        }
    }

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

    /// The first millisecond of year 0 and of year 10000.
    const YEAR_0: i64 = -62_167_219_200_000;
    const YEAR_10000: i64 = 253_402_300_800_000;

    #[test]
    fn years_outside_the_fast_range_round_trip_with_their_sign() {
        let t = Timestamp::from_unix_millis(YEAR_0 - 1);
        assert_eq!(t.to_string(), "-001-12-31T23:59:59.999Z");
        assert_eq!(Timestamp::parse("-001-12-31T23:59:59.999Z"), Ok(t));
        assert_eq!(Timestamp::parse("-0001-12-31T23:59:59.999Z"), Ok(t));
        assert_eq!(
            Timestamp::from_unix_millis(YEAR_10000).to_string(),
            "10000-01-01T00:00:00Z"
        );
        for millis in [i64::MIN, i64::MIN + 1, -1_000_000_000_000_000, i64::MAX] {
            let t = Timestamp::from_unix_millis(millis);
            assert_eq!(Timestamp::parse(&t.to_string()), Ok(t), "{t}");
        }
        for bad in ["--001-12-31T23:59:59Z", "-+001-12-31T23:59:59Z", "-"] {
            assert!(Timestamp::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn instants_past_the_i64_range_are_rejected_not_wrapped() {
        let max = Timestamp::from_unix_millis(i64::MAX).to_string();
        assert_eq!(max, "292278994-08-17T07:12:55.807Z");
        for bad in [
            "292278994-08-17T07:12:55.808Z",
            "-292275055-05-16T16:47:04.191Z",
            "2147483647-12-31T23:59:59Z",
            "-2147483648-01-01T00:00:00Z",
        ] {
            assert!(Timestamp::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_fixed_width_writer_equals_the_fmt_path() {
        let mut rng = simnet::rng::DeterministicRng::seed_from(30);
        let edges = [YEAR_0, YEAR_10000 - 1, 0, -1, 999, 1000, 1_425_859_200_123];
        let random = (0..100_000).map(|_| {
            let span = (YEAR_10000 - YEAR_0) as u64;
            let millis = YEAR_0 + rng.next_bounded(span) as i64;
            // Whole seconds half the time, so both lengths occur.
            if rng.chance(0.5) {
                millis - millis.rem_euclid(1000)
            } else {
                millis
            }
        });
        for millis in edges.into_iter().chain(random) {
            let c = Timestamp::from_unix_millis(millis).civil();
            let mut slow = String::new();
            write_civil(&mut slow, &c).unwrap();
            let fast = Canonical::of(&c).expect("a year in 0-9999");
            assert_eq!(fast.as_str(), slow, "{millis}");
        }
        for millis in [YEAR_0 - 1, YEAR_10000, i64::MIN, i64::MAX] {
            assert!(Timestamp::from_unix_millis(millis).canonical().is_none());
        }
    }

    #[test]
    fn the_fixed_position_parser_equals_the_general_parser() {
        let mut rng = simnet::rng::DeterministicRng::seed_from(31);
        let noise = b"0123456789-:T.Z+ tz/";
        for case in 0..100_000 {
            let millis = YEAR_0 + rng.next_bounded((YEAR_10000 - YEAR_0) as u64) as i64;
            let millis = if case % 2 == 0 {
                millis - millis.rem_euclid(1000)
            } else {
                millis
            };
            let text = Timestamp::from_unix_millis(millis).to_string();
            let canonical = canonical_fields(text.as_bytes());
            assert!(canonical.is_some(), "{text}");
            assert_eq!(canonical, general_fields(&text), "{text}");
            // One byte replaced, inserted or removed: the fixed-position
            // reader either declines or agrees with the general one.
            let mut bytes = text.into_bytes();
            let at = rng.next_bounded(bytes.len() as u64) as usize;
            let b = noise[rng.next_bounded(noise.len() as u64) as usize];
            match rng.next_bounded(3) {
                0 => bytes[at] = b,
                1 => bytes.insert(at, b),
                _ => {
                    bytes.remove(at);
                }
            }
            let text = String::from_utf8(bytes).unwrap();
            if let Some(fields) = canonical_fields(text.as_bytes()) {
                assert_eq!(Some(fields), general_fields(&text), "{text}");
            }
        }
        // Non-canonical shapes: read by the general parser alone.
        for (text, fast, millis) in [
            ("2015-3-9T1:2:3Z", false, None),
            ("2015-03-09T9:30:00.5Z", false, None),
            ("+2015-03-09T09:30:00Z", false, Some(1_425_893_400_000)),
            ("2015-03-09T09:30:00.+12Z", false, Some(1_425_893_400_012)),
            ("2015-03-09T09:30:00.000Z", true, Some(1_425_893_400_000)),
            ("2015-03-09t09:30:00Z", false, None),
            ("2015-03-09T09-30:00Z", false, None),
            ("2015-03-09T09:30:00.1234Z", false, None),
            ("2015-02-30T00:00:00Z", true, Some(1_425_254_400_000)),
        ] {
            assert_eq!(canonical_fields(text.as_bytes()).is_some(), fast, "{text}");
            assert_eq!(
                Timestamp::parse(text).ok().map(Timestamp::as_unix_millis),
                millis,
                "{text}"
            );
        }
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
