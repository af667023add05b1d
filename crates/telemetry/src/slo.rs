//! Named latency objectives (SLOs) with attainment and error-budget
//! burn, computed from registry histograms.
//!
//! An [`SloSpec`] names a latency histogram and a bound on it:
//! "`publish_to_deliver`: 99% of samples ≤ 250 ms". Evaluation reads
//! the histogram's CDF ([`Histogram::fraction_le`]) at the target, so
//! attainment carries the same bounded relative error as every other
//! quantile in the registry and costs O(buckets) — no samples are
//! retained.
//!
//! Histograms can be fed directly by instrumented code, or distilled
//! from the trace ring by a harvest ([`SloTracker::add_harvest`]): a
//! harvest names a
//! `(from_kind, to_kind)` pair of hop kinds and, for every traced
//! flight that visits both, records the first-to-last latency between
//! them. Each trace is harvested once (the ring retains events across
//! refreshes; the harvest deduplicates by trace id).
//!
//! Error-budget **burn** is the fraction of the allowed failure budget
//! already spent: with objective 0.99, 1% of samples may miss the
//! target; if 2% actually miss it, burn is 2.0 — the budget is
//! exhausted twice over. Burn ≤ 1.0 means the objective is met.
//!
//! [`Histogram::fraction_le`]: crate::metrics::Histogram::fraction_le

use crate::flight::reconstruct;
use crate::metrics::Registry;
use crate::trace::{TraceEvent, TraceId};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// One named latency objective over a registry histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (`"publish_to_deliver"`), used in reports and as
    /// the `slo.<name>.*` gauge prefix.
    pub name: String,
    /// Registry histogram the objective is evaluated against.
    pub histogram: String,
    /// Latency bound in nanoseconds.
    pub target_ns: f64,
    /// Required fraction of samples within the bound, in `(0, 1]`
    /// (0.99 = "p99 must be ≤ target").
    pub objective: f64,
}

/// The evaluated state of one [`SloSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    pub name: String,
    pub histogram: String,
    pub target_ns: f64,
    pub objective: f64,
    /// Samples the evaluation was based on (0 = vacuously met).
    pub count: u64,
    /// Observed fraction of samples ≤ target, in `[0, 1]`.
    pub attainment: f64,
    /// `attainment >= objective`.
    pub met: bool,
    /// Error-budget burn: `(1 - attainment) / (1 - objective)`.
    /// 1.0 = budget exactly spent; > 1.0 = objective missed.
    pub burn: f64,
}

/// A rule distilling trace flights into a latency histogram: for every
/// trace that records a `from_kind` hop followed by a `to_kind` hop,
/// observe the elapsed time between them.
#[derive(Debug, Clone)]
struct Harvest {
    histogram: String,
    from_kind: String,
    to_kind: String,
    /// Traces already harvested (the ring re-yields old events).
    seen: BTreeSet<TraceId>,
}

#[derive(Debug, Default)]
struct TrackerInner {
    specs: Vec<SloSpec>,
    harvests: Vec<Harvest>,
}

/// Shared, clonable registry of SLO specs and trace harvests.
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    inner: Arc<Mutex<TrackerInner>>,
}

impl SloTracker {
    /// Registers an objective. Replaces an existing spec of the same
    /// name, so installers can run idempotently.
    pub fn add_spec(&self, spec: SloSpec) {
        let mut g = self.inner.lock().unwrap();
        g.specs.retain(|s| s.name != spec.name);
        g.specs.push(spec);
        g.specs.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Registers a trace harvest feeding `histogram` with the
    /// `from_kind → to_kind` latency of every traced flight. Idempotent
    /// on the (histogram, from, to) triple.
    pub fn add_harvest(&self, histogram: &str, from_kind: &str, to_kind: &str) {
        let mut g = self.inner.lock().unwrap();
        if g.harvests
            .iter()
            .any(|h| h.histogram == histogram && h.from_kind == from_kind && h.to_kind == to_kind)
        {
            return;
        }
        g.harvests.push(Harvest {
            histogram: histogram.to_string(),
            from_kind: from_kind.to_string(),
            to_kind: to_kind.to_string(),
            seen: BTreeSet::new(),
        });
    }

    /// Registered specs, in name order.
    pub(crate) fn specs(&self) -> Vec<SloSpec> {
        self.inner.lock().unwrap().specs.clone()
    }

    /// Runs every harvest over the given trace events, observing
    /// newly-completed flights into their registry histograms. Returns
    /// the number of new samples recorded.
    pub(crate) fn harvest(&self, events: &[TraceEvent], registry: &Registry) -> usize {
        let mut g = self.inner.lock().unwrap();
        if g.harvests.is_empty() {
            return 0;
        }
        let paths = reconstruct(events);
        let mut recorded = 0;
        for h in &mut g.harvests {
            for p in &paths {
                if h.seen.contains(&p.trace_id) {
                    continue;
                }
                let from = p.hops.iter().find(|hop| hop.kind == h.from_kind);
                let Some(from) = from else { continue };
                let to = p
                    .hops
                    .iter()
                    .rev()
                    .find(|hop| hop.kind == h.to_kind && hop.time_ns >= from.time_ns);
                let Some(to) = to else { continue };
                registry.observe_ns(&h.histogram, to.time_ns - from.time_ns);
                h.seen.insert(p.trace_id);
                recorded += 1;
            }
        }
        recorded
    }

    /// Evaluates every spec against the registry's current histograms.
    /// Reports come back in name order. A spec whose histogram has no
    /// samples yet is vacuously met with zero burn.
    pub(crate) fn evaluate(&self, registry: &Registry) -> Vec<SloReport> {
        let specs = self.specs();
        specs
            .into_iter()
            .map(|s| {
                let count = registry
                    .histogram(&s.histogram)
                    .map(|h| h.count)
                    .unwrap_or(0);
                let attainment = if count == 0 {
                    1.0
                } else {
                    registry
                        .fraction_le(&s.histogram, s.target_ns)
                        .unwrap_or(1.0)
                };
                let met = attainment >= s.objective;
                let budget = 1.0 - s.objective;
                let burn = if budget <= 0.0 {
                    if attainment >= 1.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (1.0 - attainment) / budget
                };
                SloReport {
                    name: s.name,
                    histogram: s.histogram,
                    target_ns: s.target_ns,
                    objective: s.objective,
                    count,
                    attainment,
                    met,
                    burn,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn spec(name: &str, histogram: &str, target_ns: f64, objective: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            histogram: histogram.to_string(),
            target_ns,
            objective,
        }
    }

    #[test]
    fn attainment_and_burn_follow_the_histogram() {
        let r = Registry::new();
        // 98 fast samples, 2 slow: attainment at 1 ms is 0.98.
        for _ in 0..98 {
            r.observe_ns("lat", 100_000);
        }
        for _ in 0..2 {
            r.observe_ns("lat", 50_000_000);
        }
        let t = SloTracker::default();
        t.add_spec(spec("fast_enough", "lat", 1_000_000.0, 0.99));
        let reports = t.evaluate(&r);
        assert_eq!(reports.len(), 1);
        let rep = &reports[0];
        assert_eq!(rep.count, 100);
        assert!((rep.attainment - 0.98).abs() < 0.01, "{}", rep.attainment);
        assert!(!rep.met);
        // 2% missed with a 1% budget → burn ≈ 2.
        assert!((rep.burn - 2.0).abs() < 1.0, "burn {}", rep.burn);
    }

    #[test]
    fn met_objective_has_sub_unit_burn() {
        let r = Registry::new();
        for _ in 0..1000 {
            r.observe_ns("lat", 100);
        }
        let t = SloTracker::default();
        t.add_spec(spec("ok", "lat", 1_000_000.0, 0.99));
        let rep = &t.evaluate(&r)[0];
        assert!(rep.met);
        assert_eq!(rep.attainment, 1.0);
        assert_eq!(rep.burn, 0.0);
    }

    #[test]
    fn empty_histogram_is_vacuously_met() {
        let t = SloTracker::default();
        t.add_spec(spec("quiet", "nothing_here", 1.0, 0.999));
        let rep = &t.evaluate(&Registry::new())[0];
        assert_eq!(rep.count, 0);
        assert!(rep.met);
        assert_eq!(rep.burn, 0.0);
    }

    #[test]
    fn add_spec_replaces_by_name_and_sorts() {
        let t = SloTracker::default();
        t.add_spec(spec("b", "h1", 1.0, 0.9));
        t.add_spec(spec("a", "h2", 2.0, 0.9));
        t.add_spec(spec("b", "h3", 3.0, 0.9));
        let specs = t.specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "a");
        assert_eq!(specs[1].name, "b");
        assert_eq!(specs[1].histogram, "h3");
    }

    #[test]
    fn harvest_measures_from_to_and_dedups() {
        let tracer = Tracer::new();
        let id = tracer.next_trace_id();
        tracer.record(1_000, 1, "broker.publish", id, format_args!(""));
        tracer.record(4_000, 2, "sub.receive", id, format_args!(""));
        tracer.record(9_000, 3, "sub.receive", id, format_args!("")); // second subscriber
        let r = Registry::new();
        let t = SloTracker::default();
        t.add_harvest("e2e", "broker.publish", "sub.receive");
        assert_eq!(t.harvest(&tracer.events(), &r), 1);
        // Last matching to-hop wins: 9_000 - 1_000.
        let h = r.histogram("e2e").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 8_000.0);
        // Re-harvesting the same ring records nothing new.
        assert_eq!(t.harvest(&tracer.events(), &r), 0);
        assert_eq!(r.histogram("e2e").unwrap().count, 1);
    }

    #[test]
    fn harvest_ignores_incomplete_flights() {
        let tracer = Tracer::new();
        let id = tracer.next_trace_id();
        tracer.record(1_000, 1, "broker.publish", id, format_args!(""));
        let r = Registry::new();
        let t = SloTracker::default();
        t.add_harvest("e2e", "broker.publish", "sub.receive");
        assert_eq!(t.harvest(&tracer.events(), &r), 0);
        assert!(r.histogram("e2e").is_none());
    }
}
