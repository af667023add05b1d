//! `dimmer-benchmark`: the repository's benchmark. See README.md.
//!
//! ```text
//! dimmer-benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//!                      [--quick] [--out <record.json>] [--out-dir <dir>]
//! dimmer-benchmark list [--long | --check <BENCHMARK.json>]
//! dimmer-benchmark compare <set-a-dir> <set-b-dir>
//! dimmer-benchmark record <set-dir> <history.jsonl>
//! ```

mod alloc;
mod catalogue;
mod checks;
mod compare;
mod expo;
mod json;
mod loadgen;
mod machine;
mod replay;
mod report;
mod rng;
mod spans;
mod stats;
mod timed;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalogue::{CONTRACT, PER_LAYER, WORKLOADS};
use json::Json;
use report::RunOpts;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("list") => list(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        Some("record") => record(&args[1..]),
        _ => Err("usage: dimmer-benchmark run|list|compare|record ... (see README.md)".to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dimmer-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    opts: RunOpts,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        opts: RunOpts {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            traced: false,
            quick: false,
        },
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.opts.workload = value("--workload")?,
            "--seed" => {
                parsed.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: not a number")?;
            }
            "--seconds" => {
                let seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be 1..=60".to_owned());
                }
                parsed.opts.seconds = seconds;
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                parsed.opts.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => parsed.opts.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("run: unknown argument {other:?}")),
        }
    }
    if catalogue::workload_index(&parsed.opts.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs { opts, out, out_dir } = parse_run(args)?;
    let mut spans = spans::Spans::new();
    let outcome = workloads::run(&opts, &mut spans)?;
    if opts.traced {
        let path = out_dir.join(format!("{}.trace.jsonl", opts.workload));
        write_file(&path, &spans.to_json_lines())?;
    }
    if let Some(path) = out {
        let record = outcome.to_json(&machine::fingerprint());
        write_file(&path, &(record.render() + "\n"))?;
    }
    print!("{}", outcome.table());
    println!("{}", outcome.contract_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Names as `BENCHMARK.json` must list them, one per line.
fn listing() -> Vec<String> {
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        lines.push(format!("workload {}", w.name));
    }
    for m in CONTRACT {
        let better = m.better.as_str();
        lines.push(format!(
            "end_to_end {} {} {} {}",
            m.name, m.unit, better, m.bound
        ));
    }
    for m in PER_LAYER {
        lines.push(format!(
            "per_layer {} {} {}",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    lines
}

/// The same lines, read back from a `BENCHMARK.json`.
fn listing_of(file: &Json) -> Vec<String> {
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap_or("?").to_owned();
    let section = |key: &str| file.get(key).map_or(&[][..], Json::as_array);
    let mut lines = Vec::new();
    for w in section("workloads") {
        lines.push(format!("workload {}", field(w, "name")));
    }
    for m in section("end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN);
        lines.push(format!(
            "end_to_end {} {} {} {bound}",
            field(m, "name"),
            field(m, "unit"),
            field(m, "better")
        ));
    }
    for m in section("per_layer") {
        lines.push(format!(
            "per_layer {} {} {}",
            field(m, "name"),
            field(m, "unit"),
            field(m, "better")
        ));
    }
    lines
}

/// The catalogue in full, as the Markdown tables README.md carries.
fn long_listing() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    out.push_str("\n| end-to-end metric | unit | better | workloads | definition | bound |\n|---|---|---|---|---|---|\n");
    for m in catalogue::END_TO_END {
        let bound = if m.bound == 0.0 {
            "any increase".to_owned()
        } else if m.slack > 0.0 {
            format!("{} % and {} s", m.bound * 100.0, m.slack)
        } else if m.exact {
            format!("{} % (exact per seed)", m.bound * 100.0)
        } else {
            format!("{} %", m.bound * 100.0)
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {bound} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.workloads.join(", "),
            m.definition
        );
    }
    out.push_str("\n| `BENCHMARK.json` metric | unit | better | bound | filled by (in workload order) |\n|---|---|---|---|---|\n");
    for m in CONTRACT {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} % | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.source.join(", ")
        );
    }
    out.push_str("\n| per-layer metric | unit | better | source |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source.letter()
        );
    }
    out
}

fn list(args: &[String]) -> Result<ExitCode, String> {
    let ours = listing();
    match args {
        [] => {
            println!("{}", ours.join("\n"));
            Ok(ExitCode::SUCCESS)
        }
        [flag] if flag == "--long" => {
            print!("{}", long_listing());
            Ok(ExitCode::SUCCESS)
        }
        [flag, path] if flag == "--check" => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let theirs = listing_of(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?);
            let mut differs = false;
            for line in ours.iter().filter(|l| !theirs.contains(l)) {
                differs = true;
                println!("only in the benchmark: {line}");
            }
            for line in theirs.iter().filter(|l| !ours.contains(l)) {
                differs = true;
                println!("only in {path}: {line}");
            }
            Ok(if differs {
                ExitCode::from(1)
            } else {
                println!("{path} lists the benchmark's {} names", ours.len());
                ExitCode::SUCCESS
            })
        }
        _ => Err("usage: dimmer-benchmark list [--long | --check <BENCHMARK.json>]".to_owned()),
    }
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: dimmer-benchmark compare <set-a-dir> <set-b-dir>".to_owned());
    };
    let (a, b) = (
        compare::load_set(Path::new(a))?,
        compare::load_set(Path::new(b))?,
    );
    let (report, any_worse) = compare::compare(&a, &b);
    print!("{report}");
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Appends one line per workload of a set to the history file: the
/// machine, the medians, and the calibration-normalised score (primary
/// rate x calibration seconds: ops per unit of this machine's speed).
fn record(args: &[String]) -> Result<ExitCode, String> {
    let [set_dir, history] = args else {
        return Err("usage: dimmer-benchmark record <set-dir> <history.jsonl>".to_owned());
    };
    let set = compare::load_set(Path::new(set_dir))?;
    let machine = machine::fingerprint();
    let calibration = machine
        .get("calibration_s")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .map_err(|e| format!("{history}: {e}"))?;
    for w in &WORKLOADS {
        let Some(runs) = set.get(w.name) else {
            continue;
        };
        let medians = runs
            .values
            .iter()
            .filter(|(name, _)| catalogue::end_to_end(name).is_some())
            .map(|(name, values)| (name.clone(), Json::Num(stats::quartiles(values)[1])));
        let rate = catalogue::primary_rate(w.name).and_then(|name| runs.values.get(name));
        let score = rate.map_or(0.0, |v| stats::quartiles(v)[1] * calibration);
        let line = Json::obj([
            ("workload", Json::from(w.name)),
            ("runs", Json::from(runs.digests.len() as u64)),
            ("machine", machine.clone()),
            ("medians", Json::obj(medians)),
            ("score", Json::Num(score)),
        ]);
        writeln!(file, "{}", line.render()).map_err(|e| format!("{history}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn run_arguments_take_the_driver_and_the_short_forms() {
        let driver = strings(&[
            "--workload",
            "area_query",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ]);
        let parsed = parse_run(&driver).unwrap();
        assert_eq!(
            (
                parsed.opts.workload.as_str(),
                parsed.opts.seed,
                parsed.opts.seconds
            ),
            ("area_query", 7, 12)
        );
        assert!(!parsed.opts.traced && !parsed.opts.quick);
        assert!(
            parse_run(&strings(&["--workload", "city_fanout", "--trace", "1"]))
                .unwrap()
                .opts
                .traced
        );
        let short = parse_run(&strings(&[
            "--workload",
            "city_fanout",
            "--trace",
            "--quick",
        ]))
        .unwrap();
        assert!(short.opts.traced && short.opts.quick);
        assert!(parse_run(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run(&strings(&["--workload", "city_fanout", "--seconds", "0"])).is_err());
        assert!(parse_run(&strings(&["--workload", "city_fanout", "--bogus"])).is_err());
        assert!(parse_run(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn listing_round_trips_through_a_benchmark_file_and_shows_drift() {
        let entry = |line: &str| {
            let f: Vec<&str> = line.split(' ').collect();
            match f[0] {
                "workload" => ("workloads", Json::obj([("name", Json::from(f[1]))])),
                kind => {
                    let mut fields = vec![
                        ("name", Json::from(f[1])),
                        ("unit", Json::from(f[2])),
                        ("better", Json::from(f[3])),
                    ];
                    if kind == "end_to_end" {
                        fields.push(("bound", Json::Num(f[4].parse().unwrap())));
                    }
                    (
                        if kind == "end_to_end" {
                            "end_to_end"
                        } else {
                            "per_layer"
                        },
                        Json::obj(fields),
                    )
                }
            }
        };
        let mut sections: std::collections::BTreeMap<&str, Vec<Json>> = Default::default();
        for line in listing() {
            let (section, item) = entry(&line);
            sections.entry(section).or_default().push(item);
        }
        let file = Json::obj(sections.into_iter().map(|(k, v)| (k, Json::Arr(v))));
        assert_eq!(listing_of(&file), listing());
        let mut drifted = listing_of(&file);
        drifted.retain(|l| !l.contains("ledger.attributed_frac"));
        assert_ne!(drifted, listing());
    }
}
