//! Dependency-free telemetry for the dimmer workspace.
//!
//! Three pieces, all deterministic and all bounded in memory:
//!
//! * [`metrics`] — a [`Registry`] of named counters, gauges and
//!   log-bucketed [`Histogram`]s. Histograms hold a fixed number of
//!   geometric buckets (plus exact sum/min/max), so hot paths can
//!   record millions of observations in constant memory and still answer
//!   p50/p90/p99/p999 queries with bounded relative error. Per-message
//!   code writes through handles resolved once ([`CounterHandle`],
//!   [`GaugeHandle`], [`HistogramHandle`]): no lock, no allocation. The
//!   by-name calls are for cold paths and tests.
//! * [`trace`] — a sim-time tracing layer. Events are stamped with a
//!   nanosecond timestamp and node identity and recorded into a bounded
//!   ring buffer ([`Tracer`]) of fixed-size records; when full, the
//!   oldest events are dropped (and counted), and from the first drop
//!   on only one new flight in 16 is traced. The buffer exports as JSON
//!   lines.
//! * [`flight`] — the flight recorder: given the trace events, it
//!   reconstructs the path of each traced measurement (device →
//!   device-proxy → broker → subscriber/master) with a per-hop latency
//!   breakdown, and — for span-carrying events — the causal tree
//!   (`flight::reconstruct_trees`) showing who caused what across
//!   fan-outs and federation bridges.
//! * [`expo`] — Prometheus-style text exposition of a
//!   [`MetricsSnapshot`], served by each node's `/metrics` endpoint.
//! * `slo` — named latency objectives evaluated against registry
//!   histograms, with attainment and error-budget burn.
//!
//! The crate deliberately has no dependencies — not even on `simnet` —
//! so every layer of the workspace can use it without cycles. Time is
//! passed in as raw `u64` nanoseconds; `simnet::SimTime::as_nanos()`
//! provides exactly that.
//!
//! All handles are cheap to clone (`Arc`s internally): the simulator
//! owns one [`Telemetry`] and shares it with every node via the
//! callback context.

pub mod expo;
pub mod flight;
pub mod metrics;
pub(crate) mod slo;
pub mod trace;

pub use expo::exposition;
pub use flight::{FlightPath, Hop, SpanNode, SpanTree};
pub use metrics::{
    CounterHandle, GaugeHandle, Histogram, HistogramHandle, HistogramSnapshot, MetricsSnapshot,
    Registry,
};
pub use slo::{SloReport, SloSpec, SloTracker};
pub use trace::{SpanId, TraceEvent, TraceId, Tracer, NO_SPAN, NO_TRACE};

/// The bundle every instrumented component sees: a metrics registry, a
/// trace recorder, and the SLO tracker. Cloning shares the underlying
/// state.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    pub metrics: Registry,
    pub tracer: Tracer,
    pub slos: SloTracker,
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches flight tracing off: from now on no flight is minted
    /// ([`Tracer::start_flight`] declines every one), while fault
    /// records and every metric stay. What is left of telemetry's cost
    /// is then measured by comparing a run against one with it on.
    pub fn off(&self) {
        self.tracer.stop_flights();
    }

    /// Reconstructs per-trace causal span trees from the current
    /// ring-buffer contents. See `flight::reconstruct_trees`.
    pub fn span_trees(&self) -> Vec<SpanTree> {
        flight::reconstruct_trees(&self.tracer.events())
    }

    /// Refreshes the ops-plane self-observation gauges (`trace.dropped`,
    /// `trace.ring_len`, and `trace.unsampled` once a flight has been
    /// declined) so scrapes expose trace-ring health instead of
    /// silently losing events.
    pub(crate) fn refresh_ops_gauges(&self) {
        self.metrics
            .gauge_handle("trace.dropped")
            .set(self.tracer.dropped() as f64);
        self.metrics
            .gauge_handle("trace.ring_len")
            .set(self.tracer.len() as f64);
        let unsampled = self.tracer.unsampled();
        if unsampled > 0 {
            self.metrics
                .gauge_handle("trace.unsampled")
                .set(unsampled as f64);
        }
    }

    /// Harvests trace-derived latencies, evaluates every registered SLO
    /// spec, publishes `slo.<name>.attainment` / `slo.<name>.burn`
    /// gauges, and returns the reports (name order).
    pub fn slo_refresh(&self) -> Vec<SloReport> {
        self.slos.harvest(&self.tracer, &self.metrics);
        let reports = self.slos.evaluate(&self.metrics);
        for r in &reports {
            self.metrics
                .gauge_handle(&format!("slo.{}.attainment", r.name))
                .set(r.attainment);
            self.metrics
                .gauge_handle(&format!("slo.{}.burn", r.name))
                .set(r.burn);
        }
        reports
    }

    /// Renders the current metrics as Prometheus exposition text,
    /// refreshing the ops gauges first so every scrape carries them.
    pub fn exposition(&self) -> String {
        self.refresh_ops_gauges();
        expo::exposition(&self.metrics.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_clones_share_state() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.metrics.counter_handle("a").incr();
        t2.metrics.counter_handle("a").incr();
        assert_eq!(t.metrics.counter("a"), 2);

        let id = t.tracer.next_trace_id();
        t2.tracer.record(5, 0, "x", id, format_args!(""));
        assert_eq!(t.tracer.events().len(), 1);
    }

    #[test]
    fn ops_gauges_and_slo_refresh_flow_into_scrape() {
        let t = Telemetry::new();
        let id = t.tracer.next_trace_id();
        t.tracer
            .record(1_000, 1, "broker.publish", id, format_args!(""));
        t.tracer
            .record(2_000, 2, "sub.receive", id, format_args!(""));
        t.slos
            .add_harvest("lat.e2e_ns", "broker.publish", "sub.receive");
        t.slos.add_spec(SloSpec {
            name: "publish_to_deliver".to_string(),
            histogram: "lat.e2e_ns".to_string(),
            target_ns: 1_000_000.0,
            objective: 0.99,
        });
        let reports = t.slo_refresh();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].met);
        assert_eq!(reports[0].count, 1);
        assert_eq!(t.metrics.gauge("slo.publish_to_deliver.attainment"), 1.0);
        let text = t.exposition();
        assert!(text.contains("slo_publish_to_deliver_attainment 1"));
        assert!(text.contains("# TYPE trace_dropped gauge"));
    }

    #[test]
    fn declined_flights_are_exported_once_there_are_any() {
        let t = Telemetry::new();
        t.tracer.start_flight();
        assert!(!t.exposition().contains("trace_unsampled"));
        t.off();
        t.tracer.start_flight();
        t.tracer.start_flight();
        assert!(t.exposition().contains("trace_unsampled 2"));
    }
}
