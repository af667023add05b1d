//! Prometheus-style text exposition of a [`MetricsSnapshot`].
//!
//! [`exposition`] renders the snapshot in the Prometheus text format
//! (version 0.0.4): counters and gauges as single samples, histograms
//! as summaries (quantile-labelled samples plus `_count` and `_sum`).
//! Metric names are sanitised — every character outside
//! `[a-zA-Z0-9_:]` becomes `_`, so the workspace's dotted names
//! (`pubsub.publish`) expose as `pubsub_publish`.
//!
//! Output order is the snapshot order, which [`Registry::snapshot`]
//! guarantees is metric-name order — scrapes are byte-stable across
//! runs of a deterministic simulation, so tests can assert on them and
//! scrape diffs stay readable.
//!
//! [`Registry::snapshot`]: crate::metrics::Registry::snapshot

use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Sanitises a dotted metric name into the Prometheus grammar.
pub(crate) fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Formats a sample value the way Prometheus expects (no exponent for
/// integral values, full precision otherwise).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the snapshot as Prometheus exposition text.
pub fn exposition(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", fmt_value(*value));
    }
    for (name, h) in &snapshot.histograms {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {n} summary");
        for (q, v) in [
            ("0.5", h.p50),
            ("0.9", h.p90),
            ("0.99", h.p99),
            ("0.999", h.p999),
        ] {
            let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", fmt_value(v));
        }
        let _ = writeln!(out, "{n}_count {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", fmt_value(h.sum));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("pubsub.publish.b0"), "pubsub_publish_b0");
        assert_eq!(sanitize("net/wire-bytes"), "net_wire_bytes");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("already_fine:ok"), "already_fine:ok");
    }

    #[test]
    fn exposition_renders_all_three_kinds() {
        let r = Registry::new();
        r.counter_handle("pubsub.publish").add(7);
        r.gauge_handle("streams.open_windows").set(3.0);
        for v in 1..=100 {
            r.histogram_handle("net.link_delay_ns").observe_ns(v * 1000);
        }
        let text = exposition(&r.snapshot());
        assert!(text.contains("# TYPE pubsub_publish counter\npubsub_publish 7\n"));
        assert!(text.contains("# TYPE streams_open_windows gauge\nstreams_open_windows 3\n"));
        assert!(text.contains("# TYPE net_link_delay_ns summary"));
        assert!(text.contains("net_link_delay_ns{quantile=\"0.99\"}"));
        assert!(text.contains("net_link_delay_ns_count 100"));
        assert!(text.contains("net_link_delay_ns_sum"));
    }

    #[test]
    fn exposition_is_name_sorted_and_deterministic() {
        let r = Registry::new();
        // Inserted out of order on purpose.
        r.counter_handle("zebra.count").incr();
        r.counter_handle("alpha.count").incr();
        r.counter_handle("middle.count").incr();
        let text = exposition(&r.snapshot());
        let alpha = text.find("alpha_count").unwrap();
        let middle = text.find("middle_count").unwrap();
        let zebra = text.find("zebra_count").unwrap();
        assert!(alpha < middle && middle < zebra, "sorted by name");
        assert_eq!(text, exposition(&r.snapshot()), "byte-stable");
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(2.5), "2.5");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
    }
}
