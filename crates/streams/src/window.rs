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

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use dimmer_core::Summary;
use telemetry::{SpanId, TraceId, NO_SPAN, NO_TRACE};

/// Most contributing flight-recorder traces kept per pane; the bound
/// keeps per-window state O(1) under heavy traffic.
pub(crate) const TRACE_CAP: usize = 32;

/// Cap on concurrently open `(window, key)` panes.
pub(crate) const MAX_OPEN: usize = 4096;

/// Flight-recorder `(trace, span)` pairs of a pane's contributing
/// samples, at most [`TRACE_CAP`]. The span is the hop under which the
/// sample entered the operator, so window-close hops can parent onto
/// it. The list sits beside the pane's [`Summary`], not in it.
pub(crate) type Traces = Vec<(TraceId, SpanId)>;

/// Appends `from` to `into` in order, one pair at a time, until `into`
/// holds [`TRACE_CAP`] (used to roll buildings up into the district
/// tier).
pub(crate) fn merge_traces(into: &mut Traces, from: &[(TraceId, SpanId)]) {
    for &t in from {
        if into.len() >= TRACE_CAP {
            break;
        }
        into.push(t);
    }
}

/// Shape of the windows an operator assigns samples to: tumbling,
/// non-overlapping windows of one size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    size_millis: i64,
}

impl WindowSpec {
    /// Tumbling (non-overlapping) windows of `size_millis`.
    ///
    /// # Panics
    ///
    /// Panics unless `size_millis > 0`.
    pub fn tumbling(size_millis: i64) -> Self {
        assert!(size_millis > 0, "window size must be positive");
        WindowSpec { size_millis }
    }

    /// Window length in milliseconds.
    pub(crate) fn size_millis(&self) -> i64 {
        self.size_millis
    }

    /// End (exclusive) of the window starting at `start`.
    pub(crate) fn window_end(&self, start: i64) -> i64 {
        start + self.size_millis
    }

    /// Start of the window containing event time `t`. Starts are
    /// aligned to multiples of the size (epoch origin), so independent
    /// operators agree on window boundaries.
    pub(crate) fn window_start(&self, t: i64) -> i64 {
        t.div_euclid(self.size_millis) * self.size_millis
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
    /// Samples folded into an open pane.
    pub accepted: u64,
    /// Samples behind the watermark whose window had closed.
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
    pub summary: Summary,
    /// The contributing samples' traces (see [`Traces`]).
    pub(crate) traces: Traces,
}

/// What happened to one observed sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// Folded into an open pane.
    Accepted,
    /// Its window was already closed by the watermark.
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
    open: BTreeMap<(i64, K), (Summary, Traces)>,
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
            stats: WindowStats::default(),
        }
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
    /// happened to it. A maximally-recent sample is accepted unless the
    /// pane cap is reached: its window ends after the watermark by
    /// construction.
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
        let start = self.spec.window_start(t);
        if self.spec.window_end(start) <= self.watermark {
            return Observed::Late;
        }
        let full = self.open.len() >= MAX_OPEN;
        let (summary, traces) = match self.open.entry((start, key)) {
            Entry::Occupied(pane) => pane.into_mut(),
            Entry::Vacant(_) if full => return Observed::Shed,
            Entry::Vacant(slot) => slot.insert((Summary::EMPTY, Traces::new())),
        };
        summary.push(value);
        if trace != NO_TRACE && traces.len() < TRACE_CAP {
            traces.push((trace, span));
        }
        Observed::Accepted
    }

    /// Drains every pane whose window end the watermark has passed, in
    /// `(start, key)` order.
    pub fn close_ready(&mut self) -> Vec<ClosedWindow<K>> {
        let mut out = Vec::new();
        while let Some(((start, _), _)) = self.open.first_key_value() {
            if self.spec.window_end(*start) > self.watermark {
                break;
            }
            let ((start, key), (summary, traces)) =
                self.open.pop_first().expect("checked non-empty");
            out.push(ClosedWindow {
                key,
                start,
                end: self.spec.window_end(start),
                summary,
                traces,
            });
        }
        self.stats.windows_closed += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_window_assignment() {
        let spec = WindowSpec::tumbling(10);
        assert_eq!(spec.window_start(0), 0);
        assert_eq!(spec.window_start(9), 0);
        assert_eq!(spec.window_start(10), 10);
        assert_eq!(spec.window_start(-1), -10, "euclidean alignment");
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
        assert_eq!(closed[1].summary.count, 1);
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
        let mut op = WindowedAggregator::new(WindowSpec::tumbling(10), 1_000);
        for key in 0..MAX_OPEN {
            assert_eq!(op.observe(key, 0, 1.0, NO_TRACE), Observed::Accepted);
        }
        assert_eq!(op.observe(MAX_OPEN, 0, 1.0, NO_TRACE), Observed::Shed);
        // Existing panes still accept.
        assert_eq!(op.observe(0, 5, 1.0, NO_TRACE), Observed::Accepted);
        assert_eq!(op.stats().shed, 1);
        assert_eq!(op.open_windows(), MAX_OPEN);
    }

    #[test]
    fn floods_shed_at_the_cap_and_reopen_after_closes() {
        use simnet::rng::DeterministicRng;

        // Three windows in time order, each with a quarter more keys than
        // the cap, behind a lateness shorter than a window: the cap fills
        // while the previous window's panes are still open, so new panes
        // are shed until the watermark closes those, then accepted again.
        // One sample in a hundred is a straggler two windows back.
        for case in 0..8 {
            let mut rng = DeterministicRng::seed_from(case);
            let size = rng.next_range(10, 500) as i64;
            let lateness = rng.next_range(0, size as u64 - 1) as i64;
            let mut op = WindowedAggregator::new(WindowSpec::tumbling(size), lateness);
            let mut accepted_closed = 0;
            let (mut full, mut freed, mut reopened) = (false, false, false);
            for window in 0..3 {
                let mut times: Vec<i64> = (0..MAX_OPEN + MAX_OPEN / 4)
                    .map(|_| window * size + rng.next_bounded(size as u64) as i64)
                    .collect();
                times.sort_unstable();
                for (key, t) in times.into_iter().enumerate() {
                    let t = if rng.chance(0.01) { t - 2 * size } else { t };
                    let open = op.open_windows();
                    match op.observe(key, t, 1.0, NO_TRACE) {
                        Observed::Shed => full = true,
                        Observed::Accepted if freed && op.open_windows() > open => reopened = true,
                        _ => {}
                    }
                    let closed = op.close_ready();
                    freed |= full && !closed.is_empty();
                    accepted_closed += closed.iter().map(|w| w.summary.count).sum::<u64>();
                    assert!(op.open_windows() <= MAX_OPEN, "case {case}");
                }
            }
            op.advance_watermark_to(i64::MAX);
            accepted_closed += op
                .close_ready()
                .iter()
                .map(|w| w.summary.count)
                .sum::<u64>();

            let stats = op.stats();
            assert!(
                stats.shed > 0 && stats.late_dropped > 0 && stats.windows_closed > 0 && reopened,
                "case {case}: reopened {reopened}, {stats:?}"
            );
            assert_eq!(
                stats.samples_in,
                stats.accepted + stats.late_dropped + stats.shed,
                "case {case}: {stats:?}"
            );
            assert_eq!(accepted_closed, stats.accepted, "case {case}: {stats:?}");
        }
    }

    #[test]
    fn merged_accumulators_keep_mean_exact() {
        // Two buildings' panes of one window roll up into the district
        // tier the way the aggregator does it.
        let mut op = WindowedAggregator::new(WindowSpec::tumbling(10), 0);
        for (building, v, trace) in [("a", 1.0, 1), ("a", 2.0, 2), ("a", 3.0, 3), ("b", 10.0, 4)] {
            op.observe(building, 5, v, trace);
        }
        op.advance_watermark_to(10);
        let mut district = (Summary::EMPTY, Traces::new());
        for w in op.close_ready() {
            district.0.merge(&w.summary);
            merge_traces(&mut district.1, &w.traces);
        }
        let (summary, traces) = district;
        assert_eq!(summary.count, 4);
        assert_eq!(summary.mean(), 4.0, "count-weighted, not mean of means");
        assert_eq!((summary.min, summary.max), (1.0, 10.0));
        let ids: Vec<TraceId> = traces.iter().map(|t| t.0).collect();
        assert_eq!(ids, [1, 2, 3, 4], "building order, then arrival order");
    }

    #[test]
    fn trace_capture_is_bounded() {
        let mut op = WindowedAggregator::new(WindowSpec::tumbling(10), 0);
        for i in 0..(2 * TRACE_CAP as u64) {
            op.observe((), 5, 1.0, i + 1);
        }
        op.advance_watermark_to(10);
        let closed = op.close_ready();
        assert_eq!(closed[0].traces.len(), TRACE_CAP);
        assert_eq!(closed[0].summary.count, 2 * TRACE_CAP as u64);
        let mut district = closed[0].traces.clone();
        merge_traces(&mut district, &closed[0].traces);
        assert_eq!(district, closed[0].traces, "the merge keeps the bound");
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
