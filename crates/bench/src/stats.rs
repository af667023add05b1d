//! Exact statistics for experiment reporting.
//!
//! Experiments accumulate observations (latencies, sizes, counts) into a
//! [`Summary`] and read back mean/min/max/percentiles. It lives with the
//! experiment binaries because only they need exact quantiles; the
//! production crates record into the fixed-memory `telemetry::Histogram`.

use std::cell::RefCell;
use std::fmt;

use simnet::SimDuration;

/// An online collection of `f64` observations with exact quantiles.
///
/// Observations are stored; `percentile` sorts lazily on the first query
/// and caches the sorted order until the next `record`, so repeated
/// percentile reads (e.g. a p50/p95/p99 report line) sort only once.
///
/// **Memory caveat:** every observation is kept, so memory grows without
/// bound with the number of points. This is intended for experiment
/// harnesses reporting *exact* quantiles over thousands to a few million
/// points. Hot paths that record unboundedly should use the fixed-memory
/// log-bucketed [`Histogram`](simnet::telemetry::metrics::Histogram)
/// (±6% quantile error) instead.
///
/// ```
/// use bench_support::stats::Summary;
/// let mut s = Summary::new("latency_ms");
/// for x in [1.0, 2.0, 3.0, 4.0, 5.0] { s.record(x); }
/// assert_eq!(s.mean(), 3.0);
/// assert_eq!(s.percentile(50.0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    name: String,
    values: Vec<f64>,
    /// Sorted copy of `values`, built lazily by `percentile` and
    /// invalidated by `record`. Interior mutability keeps `percentile`
    /// callable through `&self` (as the `Display` impl requires).
    sorted: RefCell<Option<Vec<f64>>>,
}

impl PartialEq for Summary {
    fn eq(&self, other: &Self) -> bool {
        // The cache is derived state; equality is name + observations.
        self.name == other.name && self.values == other.values
    }
}

impl Summary {
    /// Creates an empty summary labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Summary {
            name: name.into(),
            values: Vec::new(),
            sorted: RefCell::new(None),
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        self.values.push(value);
        *self.sorted.get_mut() = None;
    }

    /// Records a duration in milliseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Arithmetic mean, or 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Smallest observation, or 0 for an empty summary.
    pub fn min(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min_or_zero()
    }

    /// Largest observation, or 0 for an empty summary.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max_or_zero()
    }

    /// The `p`-th percentile (nearest-rank), `p` in `[0, 100]`.
    ///
    /// Returns 0 for an empty summary.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.values.is_empty() {
            return 0.0;
        }
        let mut cache = self.sorted.borrow_mut();
        let sorted = cache.get_or_insert_with(|| {
            let mut sorted = self.values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            sorted
        });
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank]
    }
}

trait OrZero {
    fn min_or_zero(self) -> f64;
    fn max_or_zero(self) -> f64;
}

impl OrZero for f64 {
    fn min_or_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
    fn max_or_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.3} min={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.name,
            self.count(),
            self.mean(),
            self.min(),
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new("x");
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
    }

    #[test]
    fn moments() {
        let mut s = Summary::new("x");
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Summary::new("x");
        for v in 1..=100 {
            s.record(v as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert!((s.percentile(50.0) - 50.0).abs() <= 1.0);
    }

    #[test]
    fn percentile_cache_invalidates_on_record() {
        let mut s = Summary::new("x");
        s.record(1.0);
        assert_eq!(s.percentile(100.0), 1.0);
        // A record after a percentile query must invalidate the cached
        // sorted order.
        s.record(5.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
        // Cache state does not affect equality.
        let mut other = Summary::new("x");
        other.record(1.0);
        other.record(5.0);
        assert_eq!(s, other);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::new("x").record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_range_checked() {
        Summary::new("x").percentile(150.0);
    }

    #[test]
    fn display_formats() {
        let mut s = Summary::new("lat");
        s.record(1.0);
        let text = s.to_string();
        assert!(text.starts_with("lat: n=1"));
    }

    #[test]
    fn record_duration_uses_millis() {
        let mut s = Summary::new("lat");
        s.record_duration(SimDuration::from_millis(250));
        assert_eq!(s.mean(), 250.0);
    }
}
