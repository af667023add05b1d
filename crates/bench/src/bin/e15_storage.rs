//! E15 — columnar compressed tskv: compression, scans, crash recovery.
//!
//! Claim tested: the Device-proxy local store can hold weeks of
//! telemetry in memory because sealed segments compress device-
//! quantized series by an order of magnitude (Gorilla delta-of-delta
//! timestamps plus a decimal-integer value mode), scans over sealed
//! data decode without leaving the borrowed path, and a crash never
//! loses an acknowledged point — recovery restores the last snapshot
//! and replays the WAL tail.
//!
//! Phase 1 — compression. A corpus of [`EnergyProfile`] series sampled
//! on the scenario cadence, centi-quantized exactly like the ZigBee /
//! EnOcean adapters deliver them, is sealed and compacted; the run
//! reports raw vs compressed bytes per corpus. An unquantized
//! full-precision float corpus rides along to show the XOR-fallback
//! floor.
//!
//! Phase 2 — scan throughput. Borrowed scans ([`TimeSeriesStore::
//! for_each_in`]) over the fully sealed corpus race the same points in
//! a head-only store and a raw `BTreeMap<i64, f64>`; every side folds
//! the identical checksum.
//! The ratio is printed, not asserted: it divides a compute-bound
//! decode by a memory-bound scan and moves with the host, so the speed
//! is tracked by `storage.scan_sealed_mpts` in `BENCHMARK.json`.
//!
//! Phase 3 — recovery time vs WAL length. Stores whose WAL holds 1k /
//! 10k / 100k un-checkpointed records are crash-recovered and timed;
//! replay must account for every record.
//!
//! Phase 4 — seeded crash sweep. A small district runs with rotating
//! Device-proxy crashes; odd rounds crash mid-flight (pure WAL
//! replay), even rounds freeze the torn seal-then-truncate window
//! first. Every point acknowledged at the crash instant must read back
//! bit-identically after recovery, and the flight recorder must show
//! measurement ingest on both sides of every crash window.

use district::deploy::Deployment;
use district::report::{fmt_bytes, fmt_f64, Table};
use district::scenario::ScenarioConfig;
use models::profiles::EnergyProfile;
use proxy::device_proxy::DeviceProxyNode;
use simnet::telemetry::flight::reconstruct;
use simnet::{NodeId, SimConfig, SimDuration, Simulator};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use storage::tskv::{TimeSeriesStore, TskvConfig};

use dimmer_core::QuantityKind;

/// Sampling cadence of the synthetic corpus (the scenario default).
const CADENCE_MILLIS: i64 = 60_000;
/// Unix epoch of the corpus (matches the scenario default, 2024-01-01).
const EPOCH_MILLIS: i64 = 1_704_067_200_000;
/// Quantities mixed into the corpus, one series each per building.
const QUANTITIES: [QuantityKind; 6] = [
    QuantityKind::Temperature,
    QuantityKind::ActivePower,
    QuantityKind::Voltage,
    QuantityKind::Humidity,
    QuantityKind::ElectricalEnergy,
    QuantityKind::Co2,
];
/// Timed passes per scan measurement; the minimum is reported.
const SCAN_PASSES: usize = 5;
/// Compression floor asserted for the device-quantized corpus.
const MIN_RATIO: f64 = 8.0;

/// Wire quantization per quantity, mirroring the protocol adapters:
/// ZigBee reports temperature and humidity in centi-units, energy in
/// 0.01 kWh metering ticks and power in integer watts; voltage
/// registers carry decivolts and CO2 integer ppm.
fn wire_scale(q: QuantityKind) -> f64 {
    match q {
        QuantityKind::Temperature | QuantityKind::Humidity | QuantityKind::ElectricalEnergy => {
            100.0
        }
        QuantityKind::Voltage => 10.0,
        _ => 1.0,
    }
}

fn quantize(q: QuantityKind, v: f64) -> f64 {
    let s = wire_scale(q);
    (v * s).round() / s
}

fn corpus(points_per_series: usize, quantized: bool) -> Vec<(String, Vec<(i64, f64)>)> {
    QUANTITIES
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let mut profile = EnergyProfile::for_quantity(q, 0xE15 + i as u64);
            let series: Vec<(i64, f64)> = (0..points_per_series)
                .map(|p| {
                    let t = EPOCH_MILLIS + p as i64 * CADENCE_MILLIS;
                    let v = profile.sample(t);
                    (t, if quantized { quantize(q, v) } else { v })
                })
                .collect();
            (format!("bld:{q:?}"), series)
        })
        .collect()
}

struct CompressResult {
    corpus: &'static str,
    points: u64,
    bytes_raw: u64,
    bytes_compressed: u64,
    ratio: f64,
    store: TimeSeriesStore,
}

fn run_compress(points_per_series: usize, quantize: bool) -> CompressResult {
    let mut store = TimeSeriesStore::new();
    let data = corpus(points_per_series, quantize);
    for (name, series) in &data {
        for &(t, v) in series {
            store.insert(name, t, v);
        }
    }
    store.seal_all();
    store.maintain();
    let stats = store.stats();
    assert_eq!(stats.head_points, 0, "seal_all left points in the head");
    CompressResult {
        corpus: if quantize { "quantized" } else { "float" },
        points: stats.sealed_points,
        bytes_raw: stats.bytes_raw,
        bytes_compressed: stats.bytes_compressed,
        ratio: stats.bytes_raw as f64 / stats.bytes_compressed.max(1) as f64,
        store,
    }
}

struct ScanResult {
    points: u64,
    flat_mpts: f64,
    sealed_mpts: f64,
    map_mpts: f64,
    rel: f64,
}

/// Minimum wall-clock over `SCAN_PASSES` runs of `f`, in seconds.
fn timed(mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for _ in 0..SCAN_PASSES {
        let t0 = Instant::now();
        let sum = f();
        best = best.min(t0.elapsed().as_secs_f64());
        if checksum == 0 {
            checksum = sum;
        } else {
            assert_eq!(checksum, sum, "scan checksum unstable across passes");
        }
    }
    black_box(checksum);
    best
}

/// Races the sealed store against the *flat* store — the same facade
/// with every point left in the mutable head, i.e. the engine this PR
/// replaced. A raw `BTreeMap` loop (no facade at all) rides along for
/// reference.
fn run_scan(sealed: &TimeSeriesStore, points_per_series: usize) -> ScanResult {
    let data = corpus(points_per_series, true);
    let mut flat = TimeSeriesStore::with_config(TskvConfig {
        seal_threshold: usize::MAX,
        wal_checkpoint_records: usize::MAX,
    });
    let maps: Vec<(String, BTreeMap<i64, f64>)> = data
        .iter()
        .map(|(n, s)| (n.clone(), s.iter().copied().collect()))
        .collect();
    for (name, series) in &data {
        for &(t, v) in series {
            flat.insert(name, t, v);
        }
    }
    let total: u64 = maps.iter().map(|(_, m)| m.len() as u64).sum();

    let flat_s = timed(|| {
        let mut sum = 0u64;
        for (name, _) in &maps {
            flat.for_each_in(name, i64::MIN, i64::MAX, |t, v| {
                sum = sum.wrapping_add(t as u64 ^ v.to_bits());
            });
        }
        sum
    });
    let sealed_s = timed(|| {
        let mut sum = 0u64;
        for (name, _) in &maps {
            sealed.for_each_in(name, i64::MIN, i64::MAX, |t, v| {
                sum = sum.wrapping_add(t as u64 ^ v.to_bits());
            });
        }
        sum
    });
    let map_s = timed(|| {
        let mut sum = 0u64;
        for (_, m) in &maps {
            for (&t, &v) in m.range(i64::MIN..i64::MAX) {
                sum = sum.wrapping_add(t as u64 ^ v.to_bits());
            }
        }
        sum
    });
    ScanResult {
        points: total,
        flat_mpts: total as f64 / flat_s / 1e6,
        sealed_mpts: total as f64 / sealed_s / 1e6,
        map_mpts: total as f64 / map_s / 1e6,
        rel: sealed_s / flat_s,
    }
}

struct RecoveryResult {
    wal_records: u64,
    millis: f64,
    krec_per_s: f64,
}

fn run_recovery(wal_records: usize) -> RecoveryResult {
    // A checkpoint threshold above the record count keeps every insert
    // in the WAL tail: recovery cost is pure replay, scaling with it.
    let config = TskvConfig {
        wal_checkpoint_records: usize::MAX,
        ..TskvConfig::default()
    };
    let mut store = TimeSeriesStore::with_config(config);
    let names: Vec<String> = (0..4).map(|s| format!("dev{s}:power")).collect();
    let mut profile = EnergyProfile::for_quantity(QuantityKind::ActivePower, 0xE15);
    for r in 0..wal_records {
        let t = EPOCH_MILLIS + r as i64 * 1_000;
        let v = quantize(QuantityKind::ActivePower, profile.sample(t));
        store.insert(&names[r % names.len()], t, v);
    }
    let mut crashed = store.clone();
    let t0 = Instant::now();
    let replayed = crashed.crash_recover();
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        replayed, wal_records as u64,
        "replay did not account for every WAL record"
    );
    assert_eq!(crashed.len(), store.len(), "recovery lost points");
    RecoveryResult {
        wal_records: wal_records as u64,
        millis: secs * 1e3,
        krec_per_s: wal_records as f64 / secs / 1e3,
    }
}

struct SweepResult {
    rounds: u64,
    acked_points: u64,
    lost: u64,
    wal_replayed: u64,
    segments: u64,
    ingest_before: usize,
    ingest_after: usize,
}

fn run_crash_sweep(rounds: usize) -> SweepResult {
    let scenario = ScenarioConfig::small().build();
    let mut sim = Simulator::new(SimConfig::default());
    sim.telemetry().tracer.set_capacity(1 << 18);
    let deployment = Deployment::build(&mut sim, &scenario);
    let proxies: Vec<NodeId> = deployment.device_proxies().collect();

    let round_gap = SimDuration::from_secs(180);
    let downtime = SimDuration::from_secs(10);
    /// Per series name, the acknowledged `(t, value bits)` points.
    type SeriesContents = Vec<(String, Vec<(i64, u64)>)>;
    let mut acked: Vec<(NodeId, SeriesContents)> = Vec::new();
    let mut last_crash_ns = 0u64;
    for round in 0..rounds {
        sim.run_for(round_gap);
        let victim = proxies[round % proxies.len()];
        {
            let proxy = sim.node_mut::<DeviceProxyNode>(victim).expect("victim");
            let store = proxy.store_mut();
            if round % 2 == 0 {
                // The torn window: segments sealed, snapshot written,
                // WAL not yet truncated.
                store.seal_all();
                store.debug_snapshot_without_truncate();
            }
            let names: Vec<String> = store.series_names().map(str::to_owned).collect();
            let contents = names
                .iter()
                .map(|n| {
                    let pts = store
                        .range(n, i64::MIN, i64::MAX)
                        .into_iter()
                        .map(|(t, v)| (t, v.to_bits()))
                        .collect();
                    (n.clone(), pts)
                })
                .collect();
            acked.push((victim, contents));
        }
        last_crash_ns = sim.now().as_nanos();
        sim.crash(victim);
        sim.restart(victim, downtime);
    }
    sim.run_for(round_gap);

    // Zero acknowledged-point loss: every point the victim's WAL had
    // acknowledged at the crash instant must read back bit-identically
    // from the recovered store (which has since kept ingesting).
    let (mut acked_points, mut lost) = (0u64, 0u64);
    let (mut wal_replayed, mut segments) = (0u64, 0u64);
    let mut checked: Vec<NodeId> = Vec::new();
    for &(victim, ref contents) in &acked {
        let proxy = sim.node_ref::<DeviceProxyNode>(victim).expect("victim");
        let store = proxy.store();
        for (name, pts) in contents {
            let now: BTreeMap<i64, u64> = store
                .range(name, i64::MIN, i64::MAX)
                .into_iter()
                .map(|(t, v)| (t, v.to_bits()))
                .collect();
            acked_points += pts.len() as u64;
            lost += pts
                .iter()
                .filter(|&&(t, bits)| now.get(&t) != Some(&bits))
                .count() as u64;
        }
        if !checked.contains(&victim) {
            checked.push(victim);
            let stats = store.stats();
            wal_replayed += stats.wal_replayed;
            segments += stats.segments as u64;
        }
    }

    // Flight-recorder continuity: measurement ingest on both sides of
    // the final crash window.
    let events = sim.telemetry().tracer.events();
    let paths = reconstruct(&events);
    let (mut ingest_before, mut ingest_after) = (0usize, 0usize);
    for p in &paths {
        for h in &p.hops {
            if h.kind == "proxy.ingest" {
                if h.time_ns < last_crash_ns {
                    ingest_before += 1;
                } else {
                    ingest_after += 1;
                }
                break;
            }
        }
    }
    SweepResult {
        rounds: rounds as u64,
        acked_points,
        lost,
        wal_replayed,
        segments,
        ingest_before,
        ingest_after,
    }
}

fn main() {
    let points_per_series = 129_600; // 90 days at 60 s

    let mut table = Table::new(
        "E15: segment compression (6 series, 90 days at 60 s)",
        ["corpus", "points", "raw", "compressed", "ratio", "b_per_pt"],
    );
    let quantized = run_compress(points_per_series, true);
    let float = run_compress(points_per_series, false);
    for r in [&quantized, &float] {
        table.row([
            r.corpus.to_owned(),
            r.points.to_string(),
            fmt_bytes(r.bytes_raw),
            fmt_bytes(r.bytes_compressed),
            fmt_f64(r.ratio, 2),
            fmt_f64(r.bytes_compressed as f64 / r.points as f64, 2),
        ]);
    }
    println!("{table}");
    println!("# series (csv)\n{}", table.to_csv());
    assert!(
        quantized.ratio >= MIN_RATIO,
        "quantized corpus compressed only {:.2}x (< {MIN_RATIO}x floor)",
        quantized.ratio
    );
    assert!(
        float.ratio > 1.0,
        "float corpus expanded: {:.2}x",
        float.ratio
    );

    let scan = run_scan(&quantized.store, points_per_series);
    println!(
        "scan: {} points, flat store {} Mpts/s, sealed {} Mpts/s (rel {}x), raw map {} Mpts/s",
        scan.points,
        fmt_f64(scan.flat_mpts, 1),
        fmt_f64(scan.sealed_mpts, 1),
        fmt_f64(scan.rel, 2),
        fmt_f64(scan.map_mpts, 1),
    );

    let mut rec_table = Table::new(
        "E15: crash recovery vs WAL length",
        ["wal_records", "recover_ms", "krec_per_s"],
    );
    for len in [1_000, 10_000, 100_000] {
        let r = run_recovery(len);
        rec_table.row([
            r.wal_records.to_string(),
            fmt_f64(r.millis, 2),
            fmt_f64(r.krec_per_s, 0),
        ]);
    }
    println!("{rec_table}");
    println!("# series (csv)\n{}", rec_table.to_csv());

    let sweep = run_crash_sweep(3);
    println!(
        "crash sweep: {} rounds, {} acknowledged points checked, {} lost, \
         {} WAL records replayed, {} segments survived",
        sweep.rounds, sweep.acked_points, sweep.lost, sweep.wal_replayed, sweep.segments
    );
    println!(
        "flight recorder: {} ingest flights before the last crash, {} after",
        sweep.ingest_before, sweep.ingest_after
    );
    assert!(sweep.acked_points > 0, "sweep acknowledged no points");
    assert_eq!(sweep.lost, 0, "acknowledged points lost across crashes");
    assert!(sweep.wal_replayed > 0, "recovery never replayed the WAL");
    assert!(sweep.segments > 0, "no sealed segment survived a crash");
    assert!(
        sweep.ingest_before > 0 && sweep.ingest_after > 0,
        "measurement ingest did not straddle the crash windows"
    );
}
