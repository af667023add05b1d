//! Plain-text tables for the experiment binaries.

use std::fmt;

use simnet::telemetry::{MetricsSnapshot, SloReport, SloSpec, Telemetry, PUBLISH_TO_DELIVER_NS};

/// A column-aligned table that prints like the tables in a paper.
///
/// ```
/// use district::report::Table;
/// let mut t = Table::new("E0: demo", ["n", "latency_ms"]);
/// t.row(["10", "4.2"]);
/// t.row(["100", "5.9"]);
/// let text = t.to_string();
/// assert!(text.contains("latency_ms"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<H: Into<String>, I: IntoIterator<Item = H>>(
        title: impl Into<String>,
        headers: I,
    ) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<C: Into<String>, I: IntoIterator<Item = C>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Emits the table as CSV (for the figure series).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} |", w = w)?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Renders a metrics snapshot as two tables: counters + gauges, then
/// histogram percentiles. Empty sections are omitted.
pub fn metrics_report(title: &str, snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snapshot.counters.is_empty() || !snapshot.gauges.is_empty() {
        let mut t = Table::new(format!("{title}: counters"), ["metric", "value"]);
        for (name, value) in &snapshot.counters {
            t.row([name.clone(), value.to_string()]);
        }
        for (name, value) in &snapshot.gauges {
            t.row([name.clone(), fmt_f64(*value, 3)]);
        }
        out.push_str(&t.to_string());
    }
    if !snapshot.histograms.is_empty() {
        let mut t = Table::new(
            format!("{title}: histograms"),
            [
                "metric", "count", "mean", "min", "p50", "p90", "p99", "p999", "max",
            ],
        );
        for (name, h) in &snapshot.histograms {
            t.row([
                name.clone(),
                h.count.to_string(),
                fmt_f64(h.mean, 3),
                fmt_f64(h.min, 3),
                fmt_f64(h.p50, 3),
                fmt_f64(h.p90, 3),
                fmt_f64(h.p99, 3),
                fmt_f64(h.p999, 3),
                fmt_f64(h.max, 3),
            ]);
        }
        out.push_str(&t.to_string());
    }
    out
}

/// Installs the framework's default latency objective: 99% of
/// deliveries must reach their subscriber within 250 ms of publish.
/// The histogram ([`telemetry::publish_to_deliver`]) is fed by the
/// subscribers that read a publish stamp, one sample per accepted
/// delivery (DESIGN §8). Idempotent.
///
/// [`telemetry::publish_to_deliver`]: simnet::telemetry::publish_to_deliver
pub fn install_default_slos(telemetry: &Telemetry) {
    telemetry.slos.add_spec(SloSpec {
        name: "publish_to_deliver".to_string(),
        histogram: PUBLISH_TO_DELIVER_NS.to_string(),
        target_ns: 250_000_000.0,
        objective: 0.99,
    });
}

/// Renders SLO reports as a table: target, objective, observed
/// attainment, and error-budget burn. Empty input renders nothing.
pub fn slo_report(title: &str, reports: &[SloReport]) -> String {
    if reports.is_empty() {
        return String::new();
    }
    let mut t = Table::new(
        format!("{title}: SLOs"),
        [
            "slo",
            "target_ms",
            "objective",
            "count",
            "attainment",
            "met",
            "burn",
        ],
    );
    for r in reports {
        t.row([
            r.name.clone(),
            fmt_f64(r.target_ns / 1e6, 1),
            fmt_f64(r.objective, 3),
            r.count.to_string(),
            fmt_f64(r.attainment, 4),
            if r.met { "yes" } else { "NO" }.to_string(),
            fmt_f64(r.burn, 2),
        ]);
    }
    t.to_string()
}

/// Dumps the flight-recorder trace as JSON lines when the `DIMMER_TRACE`
/// environment variable is set: to stdout for `-` or `1`, else to the
/// file it names. Returns a description of where the trace went, or
/// `None` when no dump was requested (or the write failed; the error
/// goes to stderr).
pub fn dump_trace_if_requested(telemetry: &Telemetry) -> Option<String> {
    let target = std::env::var("DIMMER_TRACE").ok()?;
    if target.is_empty() {
        return None;
    }
    let lines = telemetry.tracer.to_json_lines();
    if target == "-" || target == "1" {
        print!("{lines}");
        Some(format!("stdout ({} events)", telemetry.tracer.len()))
    } else {
        match std::fs::write(&target, &lines) {
            Ok(()) => Some(format!("{target} ({} events)", telemetry.tracer.len())),
            Err(e) => {
                eprintln!("DIMMER_TRACE: cannot write {target}: {e}");
                None
            }
        }
    }
}

/// Formats a float with `decimals` places (tables want strings).
pub fn fmt_f64(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Formats bytes with a binary-prefix unit.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.2}MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.2}KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", ["col", "value_with_long_header"]);
        t.row(["a", "1"]);
        t.row(["bbbb", "2"]);
        let text = t.to_string();
        assert!(text.starts_with("## T\n"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        // All body lines have the same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("T", ["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("T", ["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn metrics_report_renders_counters_and_histograms() {
        let telemetry = Telemetry::new();
        telemetry.metrics.counter_handle("pubsub.publish").incr();
        telemetry
            .metrics
            .gauge_handle("pubsub.pending_deliveries")
            .set(2.0);
        for v in 1..=100 {
            telemetry
                .metrics
                .histogram_handle("net.link_delay_ns")
                .observe(f64::from(v));
        }
        let text = metrics_report("E8", &telemetry.metrics.snapshot());
        assert!(text.contains("E8: counters"));
        assert!(text.contains("pubsub.publish"));
        assert!(text.contains("pubsub.pending_deliveries"));
        assert!(text.contains("E8: histograms"));
        assert!(text.contains("net.link_delay_ns"));
        // An empty snapshot renders nothing.
        assert_eq!(
            metrics_report("x", &Telemetry::new().metrics.snapshot()),
            ""
        );
    }

    #[test]
    fn default_slos_harvest_publish_to_deliver() {
        let telemetry = Telemetry::new();
        install_default_slos(&telemetry);
        install_default_slos(&telemetry); // idempotent
        simnet::telemetry::publish_to_deliver(&telemetry.metrics).observe_ns(1_999_000);
        let reports = telemetry.slo_refresh();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.name, "publish_to_deliver");
        assert_eq!(r.count, 1);
        assert!(r.met, "a 2 ms delivery is inside the 250 ms target");
        let text = slo_report("E13", &reports);
        assert!(text.contains("E13: SLOs"));
        assert!(text.contains("publish_to_deliver"));
        assert!(text.contains("yes"));
        // Gauges landed in the registry.
        let snap = telemetry.metrics.snapshot();
        assert!(snap
            .gauges
            .iter()
            .any(|(n, _)| n == "slo.publish_to_deliver.attainment"));
        // Empty input renders nothing.
        assert_eq!(slo_report("x", &[]), "");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00MiB");
    }
}
