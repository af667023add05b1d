//! The machine fingerprint stored with every result record.

use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Seconds a fixed integer spin loop takes on this machine right now
/// (fastest of five). Results are only comparable across machines
/// after scaling by it; `history.jsonl` stores the scaled score.
pub fn calibration_s() -> f64 {
    let spin = || {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..50_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        start.elapsed().as_secs_f64()
    };
    (0..5).map(|_| spin()).fold(f64::INFINITY, f64::min)
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::from(nproc as u64)),
        ("cpu", Json::from(cpu)),
        ("rustc", Json::from(first_line("rustc", &["-V"]))),
        (
            "git_rev",
            Json::from(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("calibration_s", Json::Num(calibration_s())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_has_every_field_and_a_positive_calibration() {
        let f = fingerprint();
        for key in ["nproc", "cpu", "rustc", "git_rev", "calibration_s"] {
            assert!(f.get(key).is_some(), "{key} missing");
        }
        assert!(f.get("calibration_s").unwrap().as_f64().unwrap() > 0.0);
        assert!(f.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(first_line("definitely-not-a-program", &[]), "unknown");
    }
}
