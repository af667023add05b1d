//! Sim-time windowed aggregation operators.
//!
//! The operators work on **event time** (the unix-millis timestamp a
//! sample carries), not arrival time, so out-of-order delivery — store
//! and forward replays, QoS 1 redeliveries, reordered packets — does
//! not change what a window contains. Progress is tracked by a
//! monotonic **watermark**: once it passes a window's end, the window
//! closes and later stragglers for it are counted as late drops. The
//! watermark trails the newest event time by a configurable *lateness
//! horizon*, bounding both how long results are delayed and how much
//! state stays open.

use std::collections::BTreeMap;

use telemetry::{SpanId, TraceId, NO_SPAN, NO_TRACE};

/// Most contributing flight-recorder traces kept per accumulator; the
/// bound keeps per-window state O(1) under heavy traffic.
pub(crate) const TRACE_CAP: usize = 32;

/// Default cap on concurrently open `(window, key)` panes.
pub(crate) const DEFAULT_MAX_OPEN: usize = 4096;

/// A mergeable aggregate over one window's samples. Carrying the raw
/// `count` and `sum` (not the mean) is what makes hierarchical rollups
/// exact: merging building accumulators into a district one weights
/// every sample equally, so mean-of-means equals the raw mean.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    /// Samples folded in.
    pub count: u64,
    /// Sum of sample values.
    pub sum: f64,
    /// Minimum sample value (`∞` when empty).
    pub min: f64,
    /// Maximum sample value (`-∞` when empty).
    pub max: f64,
    /// Flight-recorder `(trace, span)` pairs of contributing samples
    /// (bounded). The span is the hop under which the sample entered
    /// the operator, so window-close hops can parent onto it.
    traces: Vec<(TraceId, SpanId)>,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator::new()
    }
}

impl Accumulator {
    /// An empty accumulator.
    pub(crate) fn new() -> Self {
        Accumulator {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            traces: Vec::new(),
        }
    }

    /// Folds one sample in, remembering the span it arrived under.
    pub(crate) fn add_spanned(&mut self, value: f64, trace: TraceId, span: SpanId) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if trace != NO_TRACE && self.traces.len() < TRACE_CAP {
            self.traces.push((trace, span));
        }
    }

    /// Merges another accumulator in (used to roll buildings up into
    /// the district tier).
    pub(crate) fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &t in &other.traces {
            if self.traces.len() >= TRACE_CAP {
                break;
            }
            self.traces.push(t);
        }
    }

    /// The arithmetic mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// `(trace, span)` pairs of contributing samples (bounded to
    /// [`TRACE_CAP`]). The span is [`NO_SPAN`] for samples folded in
    /// through [`Accumulator::add`].
    pub(crate) fn traces(&self) -> &[(TraceId, SpanId)] {
        &self.traces
    }
}

/// Shape of the windows an operator assigns samples to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    size_millis: i64,
    slide_millis: i64,
}

impl WindowSpec {
    /// Tumbling (non-overlapping) windows of `size_millis`.
    ///
    /// # Panics
    ///
    /// Panics unless `size_millis > 0`.
    pub fn tumbling(size_millis: i64) -> Self {
        WindowSpec::sliding(size_millis, size_millis)
    }

    /// Sliding windows of `size_millis` advancing by `slide_millis`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < slide_millis <= size_millis`.
    pub fn sliding(size_millis: i64, slide_millis: i64) -> Self {
        assert!(slide_millis > 0, "slide must be positive");
        assert!(slide_millis <= size_millis, "slide must not exceed size");
        WindowSpec {
            size_millis,
            slide_millis,
        }
    }

    /// Window length in milliseconds.
    pub(crate) fn size_millis(&self) -> i64 {
        self.size_millis
    }

    /// End (exclusive) of the window starting at `start`.
    pub(crate) fn window_end(&self, start: i64) -> i64 {
        start + self.size_millis
    }

    /// Starts of every window containing event time `t`, ascending.
    /// Starts are aligned to multiples of the slide (epoch origin), so
    /// independent operators agree on window boundaries.
    pub(crate) fn window_starts(&self, t: i64) -> impl Iterator<Item = i64> {
        let slide = self.slide_millis;
        let newest = t.div_euclid(slide) * slide;
        // A start `newest - k * slide` still covers `t` while its end,
        // `size` later, lies beyond `t`.
        let older = (self.size_millis - 1 - (t - newest)).div_euclid(slide);
        (0..=older).rev().map(move |k| newest - k * slide)
    }
}

/// Lifetime counters of a [`WindowedAggregator`]. Every observed
/// sample lands in exactly one of `accepted`, `late_dropped` or
/// `shed`, so `samples_in = accepted + late_dropped + shed` always
/// holds (the conservation the chaos tests check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Samples fed through [`WindowedAggregator::observe`].
    pub samples_in: u64,
    /// Samples folded into at least one open pane.
    pub accepted: u64,
    /// Samples behind the watermark whose windows had all closed.
    pub late_dropped: u64,
    /// Samples refused because the open-pane cap was reached.
    pub shed: u64,
    /// Panes emitted by [`WindowedAggregator::close_ready`].
    pub(crate) windows_closed: u64,
}

/// One closed `(key, window)` pane.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedWindow<K> {
    /// The grouping key.
    pub key: K,
    /// Window start (unix millis, inclusive).
    pub start: i64,
    /// Window end (unix millis, exclusive).
    pub end: i64,
    /// The folded samples.
    pub acc: Accumulator,
}

/// What happened to one observed sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// Folded into at least one open pane.
    Accepted,
    /// All its windows were already closed by the watermark.
    Late,
    /// Refused: opening a new pane would exceed the state bound.
    Shed,
}

/// A keyed, watermark-driven window operator with bounded state.
///
/// Panes are keyed `(window start, K)` in a `BTreeMap`, so ready panes
/// form a prefix and close in deterministic `(start, key)` order
/// regardless of arrival order — the property the reordering tests pin
/// down.
#[derive(Debug, Clone)]
pub struct WindowedAggregator<K> {
    spec: WindowSpec,
    lateness_millis: i64,
    watermark: i64,
    open: BTreeMap<(i64, K), Accumulator>,
    max_open: usize,
    stats: WindowStats,
}

impl<K: Ord + Clone> WindowedAggregator<K> {
    /// Creates an operator closing windows once the watermark — the
    /// newest event time seen minus `lateness_millis` — passes them.
    ///
    /// # Panics
    ///
    /// Panics if `lateness_millis` is negative.
    pub fn new(spec: WindowSpec, lateness_millis: i64) -> Self {
        assert!(lateness_millis >= 0, "lateness must be non-negative");
        WindowedAggregator {
            spec,
            lateness_millis,
            watermark: i64::MIN,
            open: BTreeMap::new(),
            max_open: DEFAULT_MAX_OPEN,
            stats: WindowStats::default(),
        }
    }

    /// Overrides the bound on concurrently open panes (default
    /// `DEFAULT_MAX_OPEN`).
    ///
    /// # Panics
    ///
    /// Panics if `max_open` is zero.
    pub fn with_max_open(mut self, max_open: usize) -> Self {
        assert!(max_open > 0, "at least one pane must stay open");
        self.max_open = max_open;
        self
    }

    /// The current watermark (`i64::MIN` before any sample).
    pub fn watermark(&self) -> i64 {
        self.watermark
    }

    /// Currently open panes.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// Forces the watermark to at least `watermark` (it never goes
    /// backwards). Used on recovery to re-seed progress from a
    /// persisted watermark, and by wall-clock flushes so windows close
    /// even when traffic stops.
    pub fn advance_watermark_to(&mut self, watermark: i64) {
        self.watermark = self.watermark.max(watermark);
    }

    /// Advances the watermark from an event time: the watermark trails
    /// the newest event by the lateness horizon.
    pub(crate) fn advance_watermark(&mut self, event_time: i64) {
        self.advance_watermark_to(event_time.saturating_sub(self.lateness_millis));
    }

    /// Feeds one sample, advancing the watermark first; returns what
    /// happened to it. A maximally-recent sample is always accepted:
    /// its newest window ends after the watermark by construction.
    pub fn observe(&mut self, key: K, t: i64, value: f64, trace: TraceId) -> Observed {
        self.observe_spanned(key, t, value, trace, NO_SPAN)
    }

    /// Like [`WindowedAggregator::observe`], but remembers the span the
    /// sample arrived under so window-close hops can parent onto it.
    pub(crate) fn observe_spanned(
        &mut self,
        key: K,
        t: i64,
        value: f64,
        trace: TraceId,
        span: SpanId,
    ) -> Observed {
        self.stats.samples_in += 1;
        self.advance_watermark(t);
        let outcome = self.feed(key, t, value, trace, span);
        match outcome {
            Observed::Accepted => self.stats.accepted += 1,
            Observed::Late => self.stats.late_dropped += 1,
            Observed::Shed => self.stats.shed += 1,
        }
        outcome
    }

    /// Recovery path: re-feeds a persisted sample into still-open
    /// panes without re-counting it in the stats (it was counted when
    /// first observed; the raw store, like the counters, survived the
    /// crash).
    pub(crate) fn restore(&mut self, key: K, t: i64, value: f64) {
        self.advance_watermark(t);
        let _ = self.feed(key, t, value, NO_TRACE, NO_SPAN);
    }

    fn feed(&mut self, key: K, t: i64, value: f64, trace: TraceId, span: SpanId) -> Observed {
        let mut accepted = false;
        let mut shed = false;
        for start in self.spec.window_starts(t) {
            if self.spec.window_end(start) <= self.watermark {
                continue; // this pane already closed
            }
            let slot = (start, key.clone());
            if let Some(acc) = self.open.get_mut(&slot) {
                acc.add_spanned(value, trace, span);
                accepted = true;
            } else if self.open.len() < self.max_open {
                let mut acc = Accumulator::new();
                acc.add_spanned(value, trace, span);
                self.open.insert(slot, acc);
                accepted = true;
            } else {
                shed = true;
            }
        }
        if accepted {
            Observed::Accepted
        } else if shed {
            Observed::Shed
        } else {
            Observed::Late
        }
    }

    /// Drains every pane whose window end the watermark has passed, in
    /// `(start, key)` order.
    pub fn close_ready(&mut self) -> Vec<ClosedWindow<K>> {
        let mut out = Vec::new();
        while let Some(((start, _), _)) = self.open.first_key_value() {
            if self.spec.window_end(*start) > self.watermark {
                break;
            }
            let ((start, key), acc) = self.open.pop_first().expect("checked non-empty");
            out.push(ClosedWindow {
                key,
                start,
                end: self.spec.window_end(start),
                acc,
            });
        }
        self.stats.windows_closed += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collected form of [`WindowSpec::window_starts`].
    fn windows_for(spec: &WindowSpec, t: i64) -> Vec<i64> {
        spec.window_starts(t).collect()
    }

    #[test]
    fn tumbling_window_assignment() {
        let spec = WindowSpec::tumbling(10);
        assert_eq!(windows_for(&spec, 0), vec![0]);
        assert_eq!(windows_for(&spec, 9), vec![0]);
        assert_eq!(windows_for(&spec, 10), vec![10]);
        assert_eq!(windows_for(&spec, -1), vec![-10], "euclidean alignment");
        assert_eq!(spec.size_millis, spec.slide_millis);
    }

    #[test]
    fn sliding_window_assignment() {
        let spec = WindowSpec::sliding(30, 10);
        assert_eq!(windows_for(&spec, 5), vec![-20, -10, 0]);
        assert_eq!(windows_for(&spec, 29), vec![0, 10, 20]);
        assert_ne!(spec.size_millis, spec.slide_millis);
    }

    #[test]
    #[should_panic(expected = "slide must not exceed size")]
    fn oversized_slide_rejected() {
        WindowSpec::sliding(10, 20);
    }

    #[test]
    fn windows_close_in_deterministic_order_after_watermark() {
        let mut op = WindowedAggregator::new(WindowSpec::tumbling(10), 5);
        op.observe("b", 3, 1.0, NO_TRACE);
        op.observe("a", 4, 2.0, NO_TRACE);
        assert!(op.close_ready().is_empty(), "watermark still inside [0,10)");
        op.observe("a", 21, 3.0, NO_TRACE); // watermark -> 16
        let closed = op.close_ready();
        let keys: Vec<_> = closed.iter().map(|w| (w.start, w.key)).collect();
        assert_eq!(keys, vec![(0, "a"), (0, "b")]);
        assert_eq!(closed[1].acc.count, 1);
        assert_eq!(op.open_windows(), 1, "[20,30) still open");
    }

    #[test]
    fn late_samples_dropped_after_close() {
        let mut op = WindowedAggregator::new(WindowSpec::tumbling(10), 0);
        op.observe((), 5, 1.0, NO_TRACE);
        op.observe((), 12, 1.0, NO_TRACE); // watermark -> 12, closes [0,10)
        assert_eq!(op.close_ready().len(), 1);
        assert_eq!(op.observe((), 7, 9.0, NO_TRACE), Observed::Late);
        let stats = op.stats();
        assert_eq!(stats.late_dropped, 1);
        assert_eq!(
            stats.samples_in,
            stats.accepted + stats.late_dropped + stats.shed
        );
    }

    #[test]
    fn state_bound_sheds_new_panes() {
        let mut op = WindowedAggregator::new(WindowSpec::tumbling(10), 1_000).with_max_open(2);
        assert_eq!(op.observe("a", 0, 1.0, NO_TRACE), Observed::Accepted);
        assert_eq!(op.observe("b", 0, 1.0, NO_TRACE), Observed::Accepted);
        assert_eq!(op.observe("c", 0, 1.0, NO_TRACE), Observed::Shed);
        // Existing panes still accept.
        assert_eq!(op.observe("a", 5, 1.0, NO_TRACE), Observed::Accepted);
        assert_eq!(op.stats().shed, 1);
        assert_eq!(op.open_windows(), 2);
    }

    #[test]
    fn merged_accumulators_keep_mean_exact() {
        let mut building_a = Accumulator::new();
        let mut building_b = Accumulator::new();
        for v in [1.0, 2.0, 3.0] {
            building_a.add_spanned(v, NO_TRACE, NO_SPAN);
        }
        building_b.add_spanned(10.0, NO_TRACE, NO_SPAN);
        let mut district = Accumulator::new();
        district.merge(&building_a);
        district.merge(&building_b);
        assert_eq!(district.count, 4);
        assert_eq!(district.mean(), 4.0, "count-weighted, not mean of means");
        assert_eq!(district.min, 1.0);
        assert_eq!(district.max, 10.0);
    }

    #[test]
    fn trace_capture_is_bounded() {
        let mut acc = Accumulator::new();
        for i in 0..(2 * TRACE_CAP as u64) {
            acc.add_spanned(1.0, i + 1, NO_SPAN);
        }
        assert_eq!(acc.traces().len(), TRACE_CAP);
        assert_eq!(acc.count, 2 * TRACE_CAP as u64);
    }

    #[test]
    fn wall_clock_flush_closes_idle_windows() {
        let mut op = WindowedAggregator::new(WindowSpec::tumbling(10), 5);
        op.observe((), 3, 1.0, NO_TRACE);
        // Traffic stops; a flush advances the watermark from the clock.
        op.advance_watermark(100);
        let closed = op.close_ready();
        assert_eq!(closed.len(), 1);
        assert_eq!((closed[0].start, closed[0].end), (0, 10));
    }
}
