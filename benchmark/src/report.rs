//! What one run produces and how it is printed and stored.

use std::collections::BTreeMap;

use crate::catalogue::{self, CONTRACT, PER_LAYER};
use crate::json::Json;
use crate::stats::Slices;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (slices, deliveries, reads, ...).
    pub n: u64,
    /// For a rate taken from equal-work slices: the value the median
    /// and the slow-quartile slice would have given.
    pub median_slow: Option<[f64; 2]>,
}

/// The outcome of one correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// Nominal length of the timed region on the reference box; the
    /// slice count is derived from it, so work per run is fixed.
    pub seconds: u64,
    pub traced: bool,
    /// Shrunk scales for `check.sh`; results are not comparable.
    pub quick: bool,
}

impl RunOpts {
    /// Timed slices of a simulator workload whose slice is sized to
    /// about a second of host time: one per nominal second, at least
    /// ten (three in quick mode).
    pub fn slices(&self) -> usize {
        if self.quick {
            3
        } else {
            (self.seconds as usize).max(10)
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub opts: RunOpts,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the run's simulated behaviour (flight-recorder digest,
    /// delivery checksum, event count): equal for equal seeds whatever
    /// the host speed, so a host-only optimisation must leave it alone.
    pub sim_digest: u64,
    /// Wall seconds of each timed slice, in order, for diagnosing noise
    /// (a trend means the work per slice drifts; spikes are the box).
    pub slice_times_s: Vec<f64>,
}

impl Outcome {
    pub fn new(opts: &RunOpts) -> Outcome {
        Outcome {
            opts: opts.clone(),
            metrics: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            sim_digest: 0,
            slice_times_s: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, n: u64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit: unit_of(name),
            value,
            n,
            median_slow: None,
        });
    }

    /// A rate over equal-work slices: `work[i]` ops took `times_s[i]`.
    /// The value is the fast-quartile slice's rate; the median and
    /// slow-quartile rates ride along.
    pub fn push_rate(&mut self, name: &str, work: &[f64], times_s: &[f64]) {
        let rates: Vec<f64> = work.iter().zip(times_s).map(|(w, t)| w / t).collect();
        let [slow, median, fast] = crate::stats::quartiles(&rates);
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit: unit_of(name),
            value: fast,
            n: rates.len() as u64,
            median_slow: Some([median, slow]),
        });
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The cross-layer `run.*` metrics every traced run reports.
    pub fn push_run_slices(&mut self, slices: &Slices) {
        self.push("run.wall_s", slices.total_s, slices.n as u64);
        self.push("run.slice_median_s", slices.median_s, slices.n as u64);
        self.push(
            "run.slice_slow_quartile_s",
            slices.slow_quartile_s,
            slices.n as u64,
        );
    }

    /// The human-readable report: every metric by name with unit and
    /// sample count, then the checks.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let o = &self.opts;
        let mut out = format!(
            "# {} seed={} seconds={} traced={} quick={} sim_digest={:#018x}\n",
            o.workload, o.seed, o.seconds, o.traced, o.quick, self.sim_digest
        );
        for m in &self.metrics {
            let _ = write!(
                out,
                "{:<38} {:>18} {:<7} n={}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.n
            );
            if let Some([median, slow]) = m.median_slow {
                let _ = write!(
                    out,
                    "  (fast quartile; median {}, slow quartile {})",
                    fmt_value(median),
                    fmt_value(slow)
                );
            }
            out.push('\n');
        }
        let times: Vec<String> = self
            .slice_times_s
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect();
        let _ = writeln!(out, "slice_times_s {}", times.join(" "));
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check {:<40} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
        let _ = writeln!(
            out,
            "attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    /// The one-line result the driver of `BENCHMARK.json` reads: the
    /// contract's end-to-end metrics untraced, every per-layer metric
    /// traced (0 where the workload does not cross the layer).
    pub fn contract_line(&self) -> String {
        let widx = catalogue::workload_index(&self.opts.workload).unwrap_or(0);
        let mut metrics = BTreeMap::new();
        let mut put = |name: &str, unit: &str, value: f64| {
            let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]);
            metrics.insert(name.to_owned(), entry);
        };
        if self.opts.traced {
            for m in PER_LAYER {
                put(m.name, m.unit, self.get(m.name).unwrap_or(0.0));
            }
        } else {
            for m in CONTRACT {
                put(m.name, m.unit, self.get(m.source[widx]).unwrap_or(0.0));
            }
        }
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The full record `run.sh` stores and `compare` reads.
    pub fn to_json(&self, fingerprint: &Json) -> Json {
        let o = &self.opts;
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::from(m.unit)),
                ("n", Json::from(m.n)),
            ];
            if let Some([median, slow]) = m.median_slow {
                fields.push(("median", Json::Num(median)));
                fields.push(("slow_quartile", Json::Num(slow)));
            }
            (m.name.clone(), Json::obj(fields))
        });
        let checks = self.checks.iter().map(|c| {
            Json::obj([
                ("name", Json::from(c.name)),
                ("ok", Json::from(c.ok)),
                ("detail", Json::from(c.detail.as_str())),
            ])
        });
        Json::obj([
            ("workload", Json::from(o.workload.as_str())),
            ("seed", Json::from(o.seed)),
            ("seconds", Json::from(o.seconds)),
            ("traced", Json::from(o.traced)),
            ("quick", Json::from(o.quick)),
            (
                "sim_digest",
                Json::from(format!("{:#018x}", self.sim_digest)),
            ),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
            (
                "slice_times_s",
                Json::Arr(self.slice_times_s.iter().map(|&t| Json::Num(t)).collect()),
            ),
            ("checks", Json::Arr(checks.collect())),
            ("machine", fingerprint.clone()),
        ])
    }
}

fn unit_of(name: &str) -> &'static str {
    catalogue::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Six significant digits for the table; files keep every digit.
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// FNV-1a over 64-bit words, for combining digests.
pub fn fold_digest(words: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// `VmHWM` of this process in MiB (0 where /proc is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(traced: bool) -> RunOpts {
        RunOpts {
            workload: catalogue::AREA_QUERY.to_owned(),
            seed: 1,
            seconds: 10,
            traced,
            quick: false,
        }
    }

    #[test]
    fn untraced_contract_line_projects_own_names_onto_role_names() {
        let mut o = Outcome::new(&opts(false));
        o.push("setup_s", 1.5, 3);
        o.push_rate("queries_per_wall_s", &[10.0, 10.0, 10.0], &[1.0, 2.0, 4.0]);
        o.push("query_p50_ms", 12.25, 700);
        o.attempted = 700;
        o.check("snapshots_clean", true, String::new());
        let line = Json::parse(&o.contract_line()).unwrap();
        let metrics = line.get("metrics").unwrap();
        let value = |name: &str| metrics.get(name).and_then(|m| m.get("value")?.as_f64());
        assert_eq!(value("setup_s"), Some(1.5));
        assert_eq!(
            value("ops_per_wall_s"),
            Some(10.0),
            "fast quartile of rates"
        );
        assert_eq!(value("op_p50_ms"), Some(12.25));
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(700.0));
        let Json::Obj(map) = metrics else { panic!() };
        assert_eq!(map.len(), CONTRACT.len(), "exactly the contract's names");
    }

    #[test]
    fn traced_contract_line_lists_every_per_layer_metric() {
        let mut o = Outcome::new(&opts(true));
        o.push("master.requests", 42.0, 1);
        o.check("broken", false, "fed a bad result".to_owned());
        let line = Json::parse(&o.contract_line()).unwrap();
        let Some(Json::Obj(map)) = line.get("metrics") else {
            panic!()
        };
        assert_eq!(map.len(), PER_LAYER.len());
        assert_eq!(
            map["master.requests"].get("value").unwrap().as_f64(),
            Some(42.0)
        );
        assert_eq!(
            map["storage.recover_ms"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(
            line.get("attempted").unwrap().as_f64(),
            Some(1.0),
            "at least 1"
        );
    }

    #[test]
    fn record_round_trips_and_table_names_every_metric() {
        let mut o = Outcome::new(&opts(false));
        o.push_rate("queries_per_wall_s", &[8.0, 8.0], &[1.0, 2.0]);
        o.sim_digest = 0xABCD;
        let rec = o.to_json(&Json::obj([("nproc", Json::from(2u64))]));
        let back = Json::parse(&rec.render()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(
            back.get("sim_digest").unwrap().as_str(),
            Some("0x000000000000abcd")
        );
        let table = o.table();
        assert!(table.contains("queries_per_wall_s") && table.contains("query/s"));
        assert!(table.contains("n=2") && table.contains("slow quartile"));
    }

    #[test]
    fn value_formatting_keeps_six_digits() {
        assert_eq!(fmt_value(1.203456789), "1.20346");
        assert_eq!(fmt_value(50123.456), "50123.5");
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(66_530_326.0), "6.65303e7");
        assert!(peak_rss_mib() > 0.0);
        assert_ne!(fold_digest(&[1, 2]), fold_digest(&[2, 1]));
    }
}
