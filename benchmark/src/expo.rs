//! Reading the program's own `/metrics` exposition from outside.
//!
//! The benchmark never touches the registry's write side or its typed
//! accessors: it renders each shard's snapshot to the Prometheus text
//! the nodes serve (byte-stable by contract) and parses that, so a
//! reshaped registry cannot break it as long as the scrape format holds.

use std::collections::BTreeMap;
use std::time::Instant;

use dimmer::simnet::telemetry::expo::exposition;
use dimmer::simnet::ParallelSimulator;

/// Samples of one or more scrapes, keyed by sanitised series name
/// (labels included, e.g. `net_nic_wait_ns{quantile="0.99"}`). Merging
/// scrapes sums every sample but quantiles, which keep the maximum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

impl Scrape {
    #[cfg(test)]
    fn parse(text: &str) -> Scrape {
        let mut scrape = Scrape::default();
        scrape.merge_text(text);
        scrape
    }

    /// Adds the samples of one exposition text; comment and malformed
    /// lines are skipped.
    fn merge_text(&mut self, text: &str) {
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let slot = self.samples.entry(name.to_owned()).or_insert(0.0);
            if name.contains("{quantile=") {
                *slot = slot.max(value);
            } else {
                *slot += value;
            }
        }
    }

    /// The sample called `name`, 0 when absent. Dotted registry names
    /// are accepted (`net.wire_bytes` reads `net_wire_bytes`).
    pub fn get(&self, name: &str) -> f64 {
        // Dots inside a label value (`quantile="0.99"`) stay.
        let (base, labels) = name.split_at(name.find('{').unwrap_or(name.len()));
        self.get_raw(&(base.replace('.', "_") + labels))
    }

    /// Number of distinct series.
    pub fn series(&self) -> usize {
        self.samples.len()
    }

    /// `self − earlier`, sample by sample: what happened between two
    /// scrapes. Only meaningful for counters and `_count`/`_sum` lines.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        let samples = self
            .samples
            .iter()
            .map(|(name, v)| (name.clone(), v - earlier.get_raw(name)))
            .collect();
        Scrape { samples }
    }

    fn get_raw(&self, key: &str) -> f64 {
        self.samples.get(key).copied().unwrap_or(0.0)
    }
}

/// One scrape of every shard, merged, with what rendering cost.
pub struct FleetScrape {
    pub scrape: Scrape,
    pub render_s: f64,
    pub bytes: usize,
}

/// Renders and parses the exposition of every shard of `sim`.
pub fn scrape_all(sim: &ParallelSimulator) -> FleetScrape {
    let mut scrape = Scrape::default();
    let mut bytes = 0;
    let start = Instant::now();
    let texts: Vec<String> = (0..sim.shard_count())
        .map(|s| exposition(&sim.shard_telemetry(s).metrics.snapshot()))
        .collect();
    let render_s = start.elapsed().as_secs_f64();
    for text in &texts {
        bytes += text.len();
        scrape.merge_text(text);
    }
    FleetScrape {
        scrape,
        render_s,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "# TYPE net_wire_bytes counter\nnet_wire_bytes 1000\n\
        # TYPE pubsub_drop_b0 counter\npubsub_drop_b0 2\n\
        # TYPE master_proxies gauge\nmaster_proxies 12.5\n\
        # TYPE net_nic_wait_ns summary\nnet_nic_wait_ns{quantile=\"0.99\"} 4000\n\
        net_nic_wait_ns_count 10\nnet_nic_wait_ns_sum 20000\n";
    const B: &str = "net_wire_bytes 1500\npubsub_drop_b1 3\n\
        net_nic_wait_ns{quantile=\"0.99\"} 9000\nnet_nic_wait_ns_count 5\ngarbage\nbad x\n";

    #[test]
    fn parses_counters_gauges_and_summaries() {
        let s = Scrape::parse(A);
        assert_eq!(s.get("net.wire_bytes"), 1000.0);
        assert_eq!(s.get("master.proxies"), 12.5);
        assert_eq!(s.get("net_nic_wait_ns{quantile=\"0.99\"}"), 4000.0);
        assert_eq!(s.get("net.nic_wait_ns_count"), 10.0);
        assert_eq!(s.get("absent"), 0.0);
        assert_eq!(s.series(), 6);
    }

    #[test]
    fn merging_shards_sums_counters_and_keeps_worst_quantile() {
        let mut s = Scrape::parse(A);
        s.merge_text(B);
        assert_eq!(s.get("net.wire_bytes"), 2500.0);
        assert_eq!(s.get("net_nic_wait_ns{quantile=\"0.99\"}"), 9000.0);
        assert_eq!(s.get("net.nic_wait_ns_count"), 15.0);
    }

    #[test]
    fn since_is_the_delta_between_scrapes() {
        let before = Scrape::parse(A);
        let mut after = Scrape::parse(A);
        after.merge_text(B);
        let d = after.since(&before);
        assert_eq!(d.get("net.wire_bytes"), 1500.0);
        assert_eq!(d.get("pubsub.drop.b0"), 0.0);
        assert_eq!(d.get("pubsub.drop.b1"), 3.0);
    }
}
