//! Metrics registry: counters, gauges, and log-bucketed bounded
//! histograms, written through resolved handles.
//!
//! The histogram is the one statistics type of the production crates
//! (the experiment binaries keep an exact, store-everything `Summary`
//! in `bench_support`): it keeps a fixed array of geometric buckets (16
//! sub-buckets per power of two), so memory is constant regardless of
//! how many values are recorded, and quantiles are answered with a
//! bounded relative error of at most `1/16 ≈ 6.25%` of the value.
//!
//! Every series lives in one shared slot of atomics, and every write
//! goes through a [`CounterHandle`] / [`GaugeHandle`] /
//! [`HistogramHandle`] resolved by name ([`Registry::counter_handle`]
//! and friends): no lock, no allocation, no string comparison. Hot
//! paths resolve once and keep the handle; cold paths resolve at the
//! write. A series appears in [`Registry::snapshot`] at its first
//! *write*, not when a handle to it is resolved.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Sub-buckets per power of two; relative quantile error is `1/SUB`.
const SUB_BUCKETS: usize = 16;
/// Powers of two covered: values in `[1, 2^48)` land in a geometric
/// bucket. At nanosecond resolution 2^48 ns ≈ 3.3 days, far beyond any
/// simulated latency; larger values clamp into the last bucket.
const OCTAVES: usize = 48;
/// One underflow bucket for `v < 1` plus the geometric range.
const BUCKETS: usize = 1 + OCTAVES * SUB_BUCKETS;

/// An `f64` in an atomic cell (bit pattern in an `AtomicU64`); the
/// default is `0.0`.
#[derive(Debug, Default)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }

    fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Replaces the value with `f(current)` unless `f` declines.
    fn update(&self, mut f: impl FnMut(f64) -> Option<f64>) {
        let _ = self.0.fetch_update(Relaxed, Relaxed, |bits| {
            f(f64::from_bits(bits)).map(f64::to_bits)
        });
    }
}

/// A bounded, log-bucketed histogram of non-negative `f64` samples.
///
/// Memory is fixed (`BUCKETS` u64 slots plus exact sum/min/max);
/// recording is O(1), lock-free and takes `&self`; quantile queries are
/// a linear scan over the bucket array. Negative samples are clamped
/// into the underflow bucket (min still records the exact value).
///
/// All cells are relaxed atomics: concurrent `record`s lose nothing,
/// and a reader that is ordered after the writers (the simulator reads
/// between events, the parallel coordinator between windows) sees a
/// consistent histogram.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            buckets: self
                .buckets
                .iter()
                .map(|b| AtomicU64::new(b.load(Relaxed)))
                .collect(),
            sum: AtomicF64::new(self.sum.load()),
            min: AtomicF64::new(self.min.load()),
            max: AtomicF64::new(self.max.load()),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

/// Bucket index for a sample. `[0,1)` (and negatives, NaN) → bucket 0;
/// `[2^k · (1 + s/SUB), …)` → `1 + k·SUB + s`, clamped to the top.
///
/// For `v >= 1` the IEEE-754 exponent field *is* `k` and the top four
/// mantissa bits *are* `s`, so no `log2`/`exp2` is needed.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < 1.0 {
        return 0;
    }
    let bits = v.to_bits();
    let octave = (bits >> 52) as usize - 1023;
    if octave >= OCTAVES {
        return BUCKETS - 1; // includes +inf
    }
    1 + octave * SUB_BUCKETS + ((bits >> 48) & 0xF) as usize
}

/// Representative value for a bucket: the geometric midpoint of its
/// bounds, which halves the worst-case relative error.
fn bucket_value(idx: usize) -> f64 {
    if idx == 0 {
        return 0.5;
    }
    let idx = idx - 1;
    let octave = (idx / SUB_BUCKETS) as f64;
    let sub = (idx % SUB_BUCKETS) as f64;
    let lo = octave.exp2() * (1.0 + sub / SUB_BUCKETS as f64);
    let hi = octave.exp2() * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64);
    (lo * hi).sqrt()
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample in O(1).
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.sum.update(|s| Some(s + v));
        self.min.update(|m| (v < m).then_some(v));
        self.max.update(|m| (v > m).then_some(v));
    }

    /// Samples recorded: every one sits in exactly one bucket.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    pub(crate) fn sum(&self) -> f64 {
        self.sum.load()
    }

    pub(crate) fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.min.load()
        }
    }

    pub(crate) fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.max.load()
        }
    }

    /// The value at quantile `q` in `[0, 1]`, with relative error
    /// bounded by the bucket width (≈6.25%). Exact `min`/`max` clamp
    /// the estimate so q=0 / q=1 are exact.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantile_of(self.count(), q)
    }

    /// [`quantile`](Histogram::quantile) with the count already summed,
    /// so a snapshot's four quantiles cost one count.
    fn quantile_of(&self, count: u64, q: f64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let (min, max) = (self.min.load(), self.max.load());
        if q <= 0.0 {
            return min;
        }
        if q >= 1.0 {
            return max;
        }
        // Rank of the target sample, 1-based.
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n.load(Relaxed);
            if seen >= rank {
                return bucket_value(idx).clamp(min, max);
            }
        }
        max
    }

    /// Fraction of recorded samples `<= v`, in `[0, 1]`; the CDF at
    /// `v`, with the same bucket-width error bound as [`quantile`].
    /// Exact `min`/`max` pin the endpoints: anything below `min` is
    /// 0.0, anything at or above `max` is 1.0. Empty histograms report
    /// 1.0 (no sample violates any bound).
    ///
    /// [`quantile`]: Histogram::quantile
    pub(crate) fn fraction_le(&self, v: f64) -> f64 {
        let count = self.count();
        if count == 0 || v >= self.max.load() {
            return 1.0;
        }
        if v < self.min.load() {
            return 0.0;
        }
        let cut = bucket_index(v);
        let below: u64 = self.buckets[..=cut].iter().map(|b| b.load(Relaxed)).sum();
        (below as f64 / count as f64).clamp(0.0, 1.0)
    }

    /// Fixed quantile snapshot used by reports.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum();
        let empty = count == 0;
        HistogramSnapshot {
            count,
            sum,
            mean: if empty { 0.0 } else { sum / count as f64 },
            min: if empty { 0.0 } else { self.min.load() },
            max: if empty { 0.0 } else { self.max.load() },
            p50: self.quantile_of(count, 0.50),
            p90: self.quantile_of(count, 0.90),
            p99: self.quantile_of(count, 0.99),
            p999: self.quantile_of(count, 0.999),
        }
    }
}

/// A point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
}

/// One series' storage: the value cell plus whether anything was ever
/// written, which is what makes the series visible to readers.
#[derive(Debug, Default)]
struct Series<T> {
    written: AtomicBool,
    cell: T,
}

impl<T> Series<T> {
    /// Marks the series visible. A load first: after the first write
    /// the line stays shared instead of being dirtied per write.
    fn touch(&self) {
        if !self.written.load(Relaxed) {
            self.written.store(true, Relaxed);
        }
    }

    /// The cell, once something was written to it.
    fn read(&self) -> Option<&T> {
        self.written.load(Relaxed).then_some(&self.cell)
    }
}

/// A resolved counter: [`add`](CounterHandle::add) is one relaxed
/// atomic add. Clones share the series; a `default()` handle is a
/// detached series no registry exposes.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Arc<Series<AtomicU64>>);

impl CounterHandle {
    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`; `add(0)` still makes the series visible.
    pub fn add(&self, n: u64) {
        self.0.cell.fetch_add(n, Relaxed);
        self.0.touch();
    }

    fn read(&self) -> Option<u64> {
        Some(self.0.read()?.load(Relaxed))
    }
}

/// A resolved gauge: [`set`](GaugeHandle::set) is one relaxed atomic
/// store. Clones share the series.
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Arc<Series<AtomicF64>>);

impl GaugeHandle {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, v: f64) {
        self.0.cell.store(v);
        self.0.touch();
    }

    fn read(&self) -> Option<f64> {
        Some(self.0.read()?.load())
    }
}

/// A resolved histogram: [`observe`](HistogramHandle::observe) is
/// [`Histogram::record`] on the shared series.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<Series<Histogram>>);

impl HistogramHandle {
    /// Records a sample (NaN is dropped but still creates the series).
    pub fn observe(&self, v: f64) {
        self.0.cell.record(v);
        self.0.touch();
    }

    /// Convenience for duration observations in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        self.observe(ns as f64);
    }

    fn read(&self) -> Option<&Histogram> {
        self.0.read()
    }
}

/// Name → handle tables; `BTreeMap`s so snapshots iterate in a stable,
/// deterministic order.
#[derive(Debug, Default)]
struct Names {
    counters: BTreeMap<String, CounterHandle>,
    gauges: BTreeMap<String, GaugeHandle>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// Looks `name` up, creating an unwritten series if absent. Allocates
/// only when it creates.
fn resolve<H: Clone + Default>(map: &mut BTreeMap<String, H>, name: &str) -> H {
    if let Some(h) = map.get(name) {
        return h.clone();
    }
    let h = H::default();
    map.insert(name.to_string(), h.clone());
    h
}

/// A shared, clonable registry of named metrics.
///
/// All methods take `&self`. Names are free-form dotted strings
/// (`"pubsub.fanout"`). The name tables sit behind a mutex that only
/// resolution and reads take; writes through a resolved handle never
/// touch it (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    names: Arc<Mutex<Names>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn names(&self) -> std::sync::MutexGuard<'_, Names> {
        self.names
            .lock()
            .expect("no registry method panics while holding the name tables")
    }

    /// Resolves the counter `name` for lock-free writes.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        resolve(&mut self.names().counters, name)
    }

    /// Resolves the gauge `name` for lock-free writes.
    pub fn gauge_handle(&self, name: &str) -> GaugeHandle {
        resolve(&mut self.names().gauges, name)
    }

    /// Resolves the histogram `name` for lock-free writes.
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        resolve(&mut self.names().histograms, name)
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.names()
            .counters
            .get(name)
            .and_then(CounterHandle::read)
            .unwrap_or(0)
    }

    /// Current gauge value (0.0 if never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.names()
            .gauges
            .get(name)
            .and_then(GaugeHandle::read)
            .unwrap_or(0.0)
    }

    /// Snapshot of one histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let names = self.names();
        Some(names.histograms.get(name)?.read()?.snapshot())
    }

    /// Fraction of one histogram's samples `<= v` (the CDF at `v`), if
    /// the histogram exists. See [`Histogram::fraction_le`].
    pub(crate) fn fraction_le(&self, name: &str, v: f64) -> Option<f64> {
        let names = self.names();
        Some(names.histograms.get(name)?.read()?.fraction_le(v))
    }

    /// A stable-ordered snapshot of every series written so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let names = self.names();
        MetricsSnapshot {
            counters: names
                .counters
                .iter()
                .filter_map(|(k, h)| Some((k.clone(), h.read()?)))
                .collect(),
            gauges: names
                .gauges
                .iter()
                .filter_map(|(k, h)| Some((k.clone(), h.read()?)))
                .collect(),
            histograms: names
                .histograms
                .iter()
                .filter_map(|(k, h)| Some((k.clone(), h.read()?.snapshot())))
                .collect(),
        }
    }
}

/// Everything in a [`Registry`] at one instant, in name order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn single_value_quantiles() {
        let h = Histogram::new();
        h.record(100.0);
        // min/max clamp makes every quantile exact for a single value.
        assert_eq!(h.quantile(0.0), 100.0);
        assert_eq!(h.quantile(0.5), 100.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i as f64);
        }
        for (q, exact) in [(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.07, "q={q}: est {est} vs {exact} (rel {rel})");
        }
    }

    #[test]
    fn underflow_and_clamp() {
        let h = Histogram::new();
        h.record(-5.0);
        h.record(0.25);
        h.record(1e30); // beyond the geometric range
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 1e30);
        // The huge value clamps into the top bucket but max is exact.
        assert_eq!(h.quantile(1.0), 1e30);
    }

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0;
        let mut v = 0.5;
        while v < 1e12 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
            v *= 1.03;
        }
    }

    /// The `log2`/`exp2` bucket function this module used before the
    /// bit-sliced one, kept as the reference it must agree with.
    fn bucket_index_float(v: f64) -> usize {
        if v.is_nan() || v < 1.0 {
            return 0;
        }
        let octave = v.log2().floor() as i64;
        if octave >= OCTAVES as i64 {
            return BUCKETS - 1;
        }
        let base = (octave as f64).exp2();
        let sub = ((v / base - 1.0) * SUB_BUCKETS as f64) as usize;
        let sub = sub.min(SUB_BUCKETS - 1);
        1 + octave as usize * SUB_BUCKETS + sub
    }

    /// Whether the reference mis-rounded: for the few doubles just
    /// below `2^k` (k >= 3), `log2` rounds up to exactly `k`, and the
    /// reference then files `v < 2^k` under octave `k` — one bucket
    /// above the `[2^k·(1+s/SUB), …)` bounds it documents. No integer
    /// below 2^48 is such a value, and every sample the workspace
    /// records is an integer count, byte size or nanosecond duration.
    fn reference_overshoots(v: f64) -> bool {
        v >= 1.0 && v.is_finite() && v.log2().floor().exp2() > v
    }

    fn assert_matches_reference(v: f64) {
        let expected = if reference_overshoots(v) {
            // Truly the last sub-bucket of the octave below `log2`'s.
            (v.log2().floor() as usize * SUB_BUCKETS).min(BUCKETS - 1)
        } else {
            bucket_index_float(v)
        };
        assert_eq!(bucket_index(v), expected, "v = {v:e} ({:#x})", v.to_bits());
    }

    #[test]
    fn bit_sliced_bucket_index_matches_the_float_reference() {
        let ulp = |v: f64, d: i64| f64::from_bits((v.to_bits() as i64 + d) as u64);
        // Every octave and sub-bucket boundary, one ulp either side,
        // through and past the clamp at 2^48.
        for k in 0..64 {
            for s in 0..SUB_BUCKETS {
                let edge = (k as f64).exp2() * (1.0 + s as f64 / SUB_BUCKETS as f64);
                for d in [-1, 0, 1] {
                    assert_matches_reference(ulp(edge, d));
                }
            }
        }
        // Only the octave's lower edge trips the reference, and only
        // from below.
        assert!(reference_overshoots(ulp(8.0, -1)));
        assert!(!reference_overshoots(8.0) && !reference_overshoots(ulp(8.0, 1)));
        assert_eq!(bucket_index(ulp(8.0, -1)), bucket_index(7.99));

        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.5,
            ulp(1.0, -1),
            -1.0,
            -1e300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            (1u64 << 48) as f64,
            1e300,
            f64::MAX,
        ] {
            assert_matches_reference(v);
        }
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        assert_eq!(bucket_index(f64::NAN), 0);

        // 10^6 seeded values (splitmix64): raw bit patterns reach every
        // exponent, sign, subnormal and NaN payload; the integers are
        // what the workspace actually records; the rest fill `[0, 1)`.
        let mut state = 0x0D15_7A1C_E5EE_D001_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut overshoots = 0;
        for i in 0..1_000_000 {
            let r = next();
            let v = match i % 3 {
                0 => f64::from_bits(r),
                1 => (r >> (r % 60)) as f64,
                _ => (r >> 11) as f64 / (1u64 << 53) as f64,
            };
            overshoots += usize::from(reference_overshoots(v));
            assert_matches_reference(v);
        }
        assert_eq!(
            overshoots, 0,
            "no sampled value sits on the mis-rounded edge"
        );
    }

    #[test]
    fn handles_cross_threads_and_share_their_series() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CounterHandle>();
        assert_send_sync::<GaugeHandle>();
        assert_send_sync::<HistogramHandle>();
        assert_send_sync::<Registry>();

        // A shard's thread writes through its handles; the coordinator
        // reads the same registry once the thread is joined.
        let r = Registry::new();
        let (c, h) = (r.counter_handle("c"), r.histogram_handle("h"));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        c.incr();
                        h.observe_ns(i);
                    }
                });
            }
        });
        assert_eq!(r.counter("c"), 4_000);
        let snap = r.histogram("h").expect("written");
        assert_eq!((snap.count, snap.min, snap.max), (4_000, 0.0, 999.0));
        assert_eq!(snap.sum, 4.0 * 499_500.0);
    }

    #[test]
    fn registry_counters_and_gauges() {
        let r = Registry::new();
        r.counter_handle("a").incr();
        r.counter_handle("a").add(4);
        r.gauge_handle("g").set(2.5);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 5)]);
    }

    #[test]
    fn fraction_le_tracks_the_cdf() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i as f64);
        }
        assert_eq!(h.fraction_le(0.5), 0.0, "below exact min");
        assert_eq!(h.fraction_le(1000.0), 1.0, "at exact max");
        assert_eq!(h.fraction_le(5000.0), 1.0, "beyond max");
        let mid = h.fraction_le(500.0);
        assert!((mid - 0.5).abs() < 0.07, "cdf(500) ≈ 0.5, got {mid}");
        let p99 = h.fraction_le(990.0);
        assert!((p99 - 0.99).abs() < 0.07, "cdf(990) ≈ 0.99, got {p99}");
        // Empty histogram: vacuously attained.
        assert_eq!(Histogram::new().fraction_le(1.0), 1.0);
    }

    #[test]
    fn registry_histograms() {
        let r = Registry::new();
        for i in 0..100 {
            r.histogram_handle("h").observe(i as f64);
        }
        let s = r.histogram("h").unwrap();
        assert_eq!(s.count, 100);
        assert!(s.p50 > 30.0 && s.p50 < 70.0);
        assert!(r.histogram("missing").is_none());
    }
}
