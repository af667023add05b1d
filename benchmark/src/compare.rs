//! `dimmer-benchmark compare <a> <b>`: two sets of result records,
//! metric by metric and workload by workload.
//!
//! A set is a directory of records written by `run --out` (what
//! `run.sh` produces). For each end-to-end metric and workload the
//! report prints both medians with quartiles and n, the change with
//! its base, the bound and a verdict; it never folds metrics into a
//! combined score.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::catalogue::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::json::Json;
use crate::report::fmt_value;
use crate::stats::quartiles;

/// The runs of one workload in one set.
#[derive(Debug, Default, Clone)]
pub struct Runs {
    /// Metric name to one value per run.
    pub values: BTreeMap<String, Vec<f64>>,
    /// `(seed, sim_digest)` of each run.
    pub digests: Vec<(u64, String)>,
}

/// Workload name to its runs.
pub type Set = BTreeMap<String, Runs>;

pub fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
    {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        absorb(&mut set, &record);
    }
    if set.is_empty() {
        return Err(format!("{}: no result records", dir.display()));
    }
    Ok(set)
}

/// Adds one record; traced and quick runs are not comparable and are
/// skipped.
pub fn absorb(set: &mut Set, record: &Json) {
    let flag = |key: &str| record.get(key).and_then(Json::as_bool).unwrap_or(false);
    let Some(workload) = record.get("workload").and_then(Json::as_str) else {
        return;
    };
    if flag("traced") || flag("quick") {
        return;
    }
    let runs = set.entry(workload.to_owned()).or_default();
    let seed = record.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let digest = record
        .get("sim_digest")
        .and_then(Json::as_str)
        .unwrap_or("");
    runs.digests.push((seed, digest.to_owned()));
    if let Some(Json::Obj(metrics)) = record.get("metrics") {
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Better,
    Worse,
    Unresolved,
    BehaviourChanged,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::BehaviourChanged => "behaviour-changed",
        }
    }
}

/// Judges `b` against the baseline `a` for one metric.
///
/// * an exact metric whose runs' digests differ: `behaviour-changed`
///   (if it also moved past its bound the verdict is `worse`);
/// * run-to-run spread (quartile distance) of either side wider than
///   the bound (slack included): `unresolved`, unless every run of `b` reads
///   better than every run of `a` (`better`) or worse than every run
///   of `a` by more than the bound (`worse`);
/// * median worse by more than `bound x |a| + slack`: `worse`;
/// * median better by more than both sides' quartile distances:
///   `better`; otherwise `ok`.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64], digests_equal: bool) -> Verdict {
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
    // Positive `worse_by` means b is worse, whatever the direction.
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (b2 - a2);
    let allowed = m.bound * a2.abs() + m.slack;
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    let all_b_worse = b
        .iter()
        .all(|&y| a.iter().all(|&x| sign * (y - x) > allowed));
    // Too noisy to call: either side's quartile distance exceeds what
    // the metric may worsen by.
    let noisy = m.bound > 0.0 && (a3 - a1).max(b3 - b1) > allowed;
    if noisy {
        return if all_b_better {
            Verdict::Better
        } else if all_b_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Worse
    } else if m.exact && !digests_equal && a2 != b2 {
        Verdict::BehaviourChanged
    } else if -worse_by > (a3 - a1).max(b3 - b1) && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// Whether the two sets ran the same seeds with the same digests.
fn digests_equal(a: &Runs, b: &Runs) -> bool {
    let per_seed = |r: &Runs| -> BTreeMap<u64, Vec<String>> {
        let mut map: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for (seed, digest) in &r.digests {
            let digests = map.entry(*seed).or_default();
            if !digests.contains(digest) {
                digests.push(digest.clone());
            }
        }
        map
    };
    let (a, b) = (per_seed(a), per_seed(b));
    a.iter()
        .all(|(seed, digests)| b.get(seed).is_none_or(|other| other == digests))
}

fn fmt_runs(values: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(values);
    format!(
        "{} [{} .. {}] n={}",
        fmt_value(q2),
        fmt_value(q1),
        fmt_value(q3),
        values.len()
    )
}

/// The report and whether any row is `worse`.
pub fn compare(a: &Set, b: &Set) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        let same = digests_equal(ra, rb);
        let _ = writeln!(
            out,
            "## {}  sim_digest {}",
            w.name,
            if same {
                "equal"
            } else {
                "DIFFERS: behaviour-changed"
            }
        );
        for m in END_TO_END.iter().filter(|m| m.workloads.contains(&w.name)) {
            let (Some(va), Some(vb)) = (ra.values.get(m.name), rb.values.get(m.name)) else {
                continue;
            };
            let verdict = judge(m, va, vb, same);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (quartiles(va)[1], quartiles(vb)[1]);
            let change = if ma == 0.0 {
                format!("{:+}", mb - ma)
            } else {
                format!("{:+.2}% of {}", (mb - ma) / ma.abs() * 100.0, fmt_value(ma))
            };
            let _ = writeln!(
                out,
                "{:<20} {:<7} a {:<42} b {:<42} change {:<24} bound {:>5.1}%{} {}",
                m.name,
                m.unit,
                fmt_runs(va),
                fmt_runs(vb),
                change,
                m.bound * 100.0,
                if m.slack > 0.0 {
                    format!("+{}", m.slack)
                } else {
                    String::new()
                },
                verdict.as_str()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::end_to_end;

    fn rate() -> &'static EndToEnd {
        end_to_end("msgs_per_wall_s").unwrap()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(rate(), &base, &[100.5, 99.5, 100.0], true),
            Verdict::Ok
        );
        assert_eq!(
            judge(rate(), &base, &[88.0, 89.0, 87.0], true),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate(), &base, &[120.0, 121.0, 119.0], true),
            Verdict::Better
        );
        // A higher-is-better metric going up is never worse.
        assert_ne!(
            judge(rate(), &base, &[150.0, 150.0, 150.0], true),
            Verdict::Worse
        );
        // Spread wider than the 10 % bound: unresolved ...
        let noisy = [100.0, 130.0, 80.0];
        assert_eq!(
            judge(rate(), &noisy, &[95.0, 125.0, 85.0], true),
            Verdict::Unresolved
        );
        // ... unless every run of b beats every run of a.
        assert_eq!(
            judge(rate(), &noisy, &[140.0, 170.0, 135.0], true),
            Verdict::Better
        );
        assert_eq!(
            judge(rate(), &noisy, &[60.0, 50.0, 65.0], true),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_and_zero_bounds() {
        let p99 = end_to_end("deliver_p99_ms").unwrap();
        assert_eq!(judge(p99, &[2.0; 3], &[2.0; 3], true), Verdict::Ok);
        assert_eq!(
            judge(p99, &[2.0; 3], &[2.01; 3], false),
            Verdict::BehaviourChanged
        );
        assert_eq!(judge(p99, &[2.0; 3], &[2.5; 3], false), Verdict::Worse);
        let failed = end_to_end("failed_frac").unwrap();
        assert_eq!(judge(failed, &[0.0; 3], &[0.0; 3], true), Verdict::Ok);
        assert_eq!(
            judge(failed, &[0.0; 3], &[1e-6; 3], true),
            Verdict::Worse,
            "any increase"
        );
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!(
            judge(setup, &[0.5; 3], &[0.7; 3], true),
            Verdict::Ok,
            "inside the 0.25 s slack"
        );
        assert_eq!(judge(setup, &[0.5; 3], &[0.9; 3], true), Verdict::Worse);
    }

    fn record(workload: &str, seed: u64, digest: &str, msgs: f64) -> Json {
        Json::obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            ("sim_digest", Json::from(digest)),
            ("traced", Json::from(false)),
            ("quick", Json::from(false)),
            (
                "metrics",
                Json::obj([("msgs_per_wall_s", Json::obj([("value", Json::Num(msgs))]))]),
            ),
        ])
    }

    #[test]
    fn sets_compare_per_workload_and_flag_digest_changes() {
        let (mut a, mut b) = (Set::new(), Set::new());
        for (i, v) in [100.0, 101.0, 99.0].iter().enumerate() {
            absorb(&mut a, &record("city_fanout", 1, "0x1", *v));
            absorb(
                &mut b,
                &record("city_fanout", 1, "0x2", *v - 20.0 + i as f64),
            );
        }
        let mut quick = record("city_fanout", 1, "0x9", 1.0);
        if let Json::Obj(map) = &mut quick {
            map.insert("quick".to_owned(), Json::from(true));
        }
        absorb(&mut a, &quick);
        assert_eq!(
            a["city_fanout"].values["msgs_per_wall_s"].len(),
            3,
            "quick run skipped"
        );
        let (report, worse) = compare(&a, &b);
        assert!(worse);
        assert!(
            report.contains("DIFFERS") && report.contains("worse"),
            "{report}"
        );
        assert!(
            report.contains("n=3") && report.contains("bound  10.0%"),
            "{report}"
        );
        let (report, worse) = compare(&a, &a);
        assert!(!worse && report.contains("sim_digest equal"), "{report}");
    }
}
