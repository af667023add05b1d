//! `history_store`: `storage::tskv` alone, no simulator.
//!
//! 64 wire-quantised series x 90 days x 60 s cadence (8.29 M points)
//! are appended time-major, `maintain()` running once per simulated
//! day: 90 day-slices, taken twice over (two stores). Two more days are appended under the counting
//! allocator and half an hour more is left in the WAL. Then, closed
//! loop with one client: 200 000 random 1 h `range` reads in 20
//! batches (about 99 % land in sealed segments), 20 000 aligned day
//! `downsample`s, `latest` on every series, 8 full `for_each_in` scans
//! and `crash_recover()` on clones that hold the WAL tail. The work is
//! fixed: `--seconds` does not change it.

use std::hint::black_box;
use std::time::Instant;

use dimmer::core::QuantityKind;
use dimmer::models::profiles::EnergyProfile;
use dimmer::storage::tskv::{Aggregate, TimeSeriesStore};

use crate::alloc;
use crate::checks;
use crate::report::{fold_digest, peak_rss_mib, Outcome, RunOpts};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{ns_per_call, percentile_sorted, quartiles, time_batched};
use crate::workloads::{push_allocs, set_up, COUNTED_SLICES};

/// 2015-03-09T00:00:00Z, a day boundary, so day-slices are partitions.
const EPOCH: i64 = 1_425_859_200_000;
const MINUTE: i64 = 60_000;
const HOUR: i64 = 60 * MINUTE;
const DAY: i64 = 24 * HOUR;
const MINUTES_PER_DAY: usize = 1_440;
/// Minutes appended after the last `maintain()`: the WAL tail.
const TAIL_MINUTES: usize = 30;
const APPEND_PASSES: usize = 2;
const SCAN_PASSES: usize = 8;
const RECOVER_PASSES: usize = 5;
/// One read in this many is compared with the corpus.
const VERIFY_STRIDE: usize = 64;
const QUANTITIES: [QuantityKind; 6] = [
    QuantityKind::Temperature,
    QuantityKind::ActivePower,
    QuantityKind::Voltage,
    QuantityKind::Humidity,
    QuantityKind::ElectricalEnergy,
    QuantityKind::Co2,
];

struct Scale {
    series: usize,
    days: usize,
    read_batches: usize,
    reads_per_batch: usize,
    downsamples: usize,
}

impl Scale {
    fn of(opts: &RunOpts) -> Scale {
        if opts.quick {
            Scale {
                series: 8,
                days: 6,
                read_batches: 4,
                reads_per_batch: 500,
                downsamples: 500,
            }
        } else {
            Scale {
                series: 64,
                days: 90,
                read_batches: 20,
                reads_per_batch: 10_000,
                downsamples: 20_000,
            }
        }
    }

    fn minutes(&self) -> usize {
        (self.days + COUNTED_SLICES) * MINUTES_PER_DAY + TAIL_MINUTES
    }
}

/// What the adapters put on the wire: centi-units for temperature,
/// humidity and energy, decivolts, integer watts and ppm.
fn quantize(q: QuantityKind, v: f64) -> f64 {
    let scale = match q {
        QuantityKind::Temperature | QuantityKind::Humidity | QuantityKind::ElectricalEnergy => {
            100.0
        }
        QuantityKind::Voltage => 10.0,
        _ => 1.0,
    };
    (v * scale).round() / scale
}

/// The generated input: `values[s][m]` is series `s` at minute `m`.
struct Corpus {
    names: Vec<String>,
    values: Vec<Vec<f64>>,
}

impl Corpus {
    fn generate(scale: &Scale, seed: u64) -> Corpus {
        let minutes = scale.minutes();
        let mut names = Vec::with_capacity(scale.series);
        let mut values = Vec::with_capacity(scale.series);
        for s in 0..scale.series {
            let q = QUANTITIES[s % QUANTITIES.len()];
            let mut profile = EnergyProfile::for_quantity(q, seed.wrapping_mul(0x9E37) ^ s as u64);
            names.push(format!("b{s}:{}", q.as_str()));
            values.push(
                (0..minutes)
                    .map(|m| quantize(q, profile.sample(EPOCH + m as i64 * MINUTE)))
                    .collect(),
            );
        }
        Corpus { names, values }
    }

    /// Appends minutes `[from, to)` of every series, time-major.
    fn append(&self, store: &mut TimeSeriesStore, from: usize, to: usize) {
        for m in from..to {
            let t = EPOCH + m as i64 * MINUTE;
            for (name, values) in self.names.iter().zip(&self.values) {
                store.insert(name, t, values[m]);
            }
        }
    }

    fn points(&self, series: usize, from_minute: usize, to_minute: usize) -> Vec<(i64, f64)> {
        (from_minute..to_minute)
            .map(|m| (EPOCH + m as i64 * MINUTE, self.values[series][m]))
            .collect()
    }
}

pub fn run(opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let scale = Scale::of(opts);
    let mut out = Outcome::new(opts);

    let (corpus, setup) = set_up(opts, spans, &mut out, |_| {
        Corpus::generate(&scale, opts.seed)
    });

    // Append: one slice per simulated day, maintain() at its end. The
    // corpus is appended twice, into a fresh store each time, and the
    // slices pooled: a slow spell of the box that lasts seconds then
    // covers at most half of them. The second store is the one read.
    let points_per_day = (scale.series * MINUTES_PER_DAY) as f64;
    let mut store = TimeSeriesStore::new();
    let mut day_times = Vec::with_capacity(APPEND_PASSES * scale.days);
    let mut maintain_s = Vec::with_capacity(APPEND_PASSES * scale.days);
    for pass in 0..APPEND_PASSES {
        store = TimeSeriesStore::new();
        for day in 0..scale.days {
            let open = spans.begin(format!("slice.{pass}.{day}"));
            corpus.append(
                &mut store,
                day * MINUTES_PER_DAY,
                (day + 1) * MINUTES_PER_DAY,
            );
            let clock = Instant::now();
            store.maintain();
            maintain_s.push(clock.elapsed().as_secs_f64());
            day_times.push(spans.end(open));
        }
    }
    let ((), allocs) = alloc::counted(|| {
        spans.scope("counted", || {
            for day in scale.days..scale.days + COUNTED_SLICES {
                corpus.append(
                    &mut store,
                    day * MINUTES_PER_DAY,
                    (day + 1) * MINUTES_PER_DAY,
                );
                store.maintain();
            }
        });
    });
    let counted_points = (COUNTED_SLICES * scale.series * MINUTES_PER_DAY) as u64;
    let sealed = store.stats();
    let total_days = scale.days + COUNTED_SLICES;
    corpus.append(&mut store, total_days * MINUTES_PER_DAY, scale.minutes());
    let inserted = (scale.series * scale.minutes()) as u64;

    // 1 h range reads at random minute offsets over every day.
    let mut rng = Rng::new(opts.seed, 2);
    let hot_from = (total_days - 1) * MINUTES_PER_DAY;
    // Per-batch latency percentiles, host milliseconds.
    let (mut batch_p50_ms, mut batch_p99_ms) = (Vec::new(), Vec::new());
    let mut batch_times = Vec::with_capacity(scale.read_batches);
    let (mut sealed_ns, mut sealed_n, mut head_ns, mut head_n) = (0u64, 0u64, 0u64, 0u64);
    let mut mismatched_reads = 0u64;
    let mut verified_reads = 0u64;
    for batch in 0..scale.read_batches {
        let open = spans.begin(format!("reads.{batch}"));
        let mut read_ns: Vec<u32> = Vec::with_capacity(scale.reads_per_batch);
        for i in 0..scale.reads_per_batch {
            let s = rng.below(scale.series as u64) as usize;
            let m = rng.below((scale.minutes() - 60) as u64) as usize;
            let from = EPOCH + m as i64 * MINUTE;
            let clock = Instant::now();
            let points = black_box(store.range(&corpus.names[s], from, from + HOUR));
            let ns = clock.elapsed().as_nanos() as u64;
            read_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            if m + 60 > hot_from {
                head_ns += ns;
                head_n += 1;
            } else {
                sealed_ns += ns;
                sealed_n += 1;
            }
            if i % VERIFY_STRIDE == 0 {
                verified_reads += 1;
                if !checks::points_equal(&points, &corpus.points(s, m, m + 60)) {
                    mismatched_reads += 1;
                }
            }
        }
        batch_times.push(spans.end(open));
        read_ns.sort_unstable();
        batch_p50_ms.push(f64::from(percentile_sorted(&read_ns, 0.50)) / 1e6);
        batch_p99_ms.push(f64::from(percentile_sorted(&read_ns, 0.99)) / 1e6);
    }

    // Aligned day downsamples to the hour (a materialised level).
    let open = spans.begin("downsamples");
    let clock = Instant::now();
    for _ in 0..scale.downsamples {
        let s = rng.below(scale.series as u64) as usize;
        let from = EPOCH + rng.below((total_days - 1) as u64) as i64 * DAY;
        let buckets = store.downsample(&corpus.names[s], from, from + DAY, HOUR, Aggregate::Mean);
        assert_eq!(
            black_box(buckets).len(),
            24,
            "a sealed day has 24 hourly buckets"
        );
    }
    let downsample_ns = clock.elapsed().as_nanos() as f64 / scale.downsamples as f64;
    spans.end(open);
    let latest_ns = ns_per_call(9, scale.series, |s| {
        black_box(store.latest(&corpus.names[s]));
    });

    // Full scans: every point of every series, streamed.
    let scan = |store: &TimeSeriesStore, from: i64, to: i64| {
        let (mut n, mut sum) = (0u64, 0.0f64);
        for name in &corpus.names {
            store.for_each_in(name, from, to, |_, v| {
                n += 1;
                sum += v;
            });
        }
        (n, sum)
    };
    let open = spans.begin("scans");
    let scan_times = time_batched(SCAN_PASSES, || (), |()| scan(&store, i64::MIN, i64::MAX));
    spans.end(open);
    let open = spans.begin("verify.scan");
    let mut mismatched_series = 0u64;
    let mut scan_sum = 0.0f64;
    for (s, name) in corpus.names.iter().enumerate() {
        let mut m = 0;
        let mut equal = true;
        store.for_each_in(name, i64::MIN, i64::MAX, |t, v| {
            let expected = corpus.values[s].get(m);
            equal &= t == EPOCH + m as i64 * MINUTE
                && expected.is_some_and(|e| e.to_bits() == v.to_bits());
            scan_sum += v;
            m += 1;
        });
        if !equal || m != scale.minutes() {
            mismatched_series += 1;
        }
    }
    spans.end(open);

    // Crash recovery on clones that hold the WAL tail.
    let open = spans.begin("recover");
    let wal_tail = store.stats().wal_records as u64;
    let mut replayed = 0;
    let mut len_after = 0;
    let recover_times = time_batched(
        RECOVER_PASSES,
        || store.clone(),
        |mut clone| {
            replayed = clone.crash_recover();
            len_after = clone.len() as u64;
            clone
        },
    );
    spans.end(open);
    let recover_s = quartiles(&recover_times)[0];

    let sealed_points_ratio = sealed.bytes_compressed as f64 / sealed.sealed_points.max(1) as f64;
    out.attempted = inserted;
    out.failed = inserted.saturating_sub(len_after) + mismatched_reads + mismatched_series;
    out.sim_digest = fold_digest(&[
        sealed.bytes_compressed,
        sealed.sealed_points,
        sealed.segments as u64,
        scan_sum.to_bits(),
        len_after,
    ]);
    out.push_rate(
        "append_points_per_s",
        &vec![points_per_day; day_times.len()],
        &day_times,
    );
    out.push_rate(
        "range_reads_per_s",
        &vec![scale.reads_per_batch as f64; scale.read_batches],
        &batch_times,
    );
    let scanned = inserted as f64 / 1e6;
    out.push_rate("scan_mpts_per_s", &[scanned; SCAN_PASSES], &scan_times);
    out.push("bytes_per_point", sealed_points_ratio, sealed.sealed_points);
    // Like the rates, latencies come from the fast-quartile batch.
    let batches = scale.read_batches as u64;
    out.push("range_p50_ms", quartiles(&batch_p50_ms)[0], batches);
    out.push("range_p99_ms", quartiles(&batch_p99_ms)[0], batches);
    push_allocs(&mut out, allocs, counted_points);
    out.push("failed_frac", out.failed as f64 / inserted as f64, inserted);

    out.check(
        "sampled_reads_equal_corpus",
        verified_reads > 0 && mismatched_reads == 0,
        format!("{verified_reads} reads compared, {mismatched_reads} differ"),
    );
    out.check(
        "full_scan_equals_corpus",
        mismatched_series == 0,
        format!(
            "{} series scanned bit for bit, {mismatched_series} differ",
            scale.series
        ),
    );
    out.check(
        "recovery_keeps_every_point",
        checks::recovered_everything(inserted, len_after) && replayed == wal_tail && wal_tail > 0,
        format!("inserted {inserted}, len after recovery {len_after}, replayed {replayed} of {wal_tail} WAL records"),
    );

    if opts.traced {
        let append_s: f64 = day_times.iter().sum();
        out.push("run.wall_s", append_s + batch_times.iter().sum::<f64>(), 1);
        out.push(
            "run.slice_median_s",
            quartiles(&day_times)[1],
            day_times.len() as u64,
        );
        out.push(
            "run.slice_slow_quartile_s",
            quartiles(&day_times)[2],
            day_times.len() as u64,
        );
        out.push(
            "storage.compress_ratio",
            sealed.bytes_raw as f64 / sealed.bytes_compressed.max(1) as f64,
            sealed.sealed_points,
        );
        out.push("storage.segments", sealed.segments as f64, 1);
        out.push("storage.wal_records", wal_tail as f64, 1);
        out.push("storage.tskv_appends_per_op", 1.0, inserted);
        out.push(
            "storage.append_ns_per_point",
            quartiles(&day_times)[0] * 1e9 / points_per_day,
            day_times.len() as u64,
        );
        out.push(
            "storage.maintain_ms_total",
            maintain_s.iter().sum::<f64>() * 1e3 / APPEND_PASSES as f64,
            day_times.len() as u64,
        );
        out.push(
            "storage.maintain_ms_max",
            maintain_s.iter().copied().fold(0.0, f64::max) * 1e3,
            day_times.len() as u64,
        );
        out.push(
            "storage.range_1h_sealed_ns",
            sealed_ns as f64 / sealed_n.max(1) as f64,
            sealed_n,
        );
        out.push(
            "storage.range_1h_head_ns",
            head_ns as f64 / head_n.max(1) as f64,
            head_n,
        );
        out.push(
            "storage.downsample_day_ns",
            downsample_ns,
            scale.downsamples as u64,
        );
        out.push("storage.latest_ns", latest_ns, (9 * scale.series) as u64);
        let hot = EPOCH + hot_from as i64 * MINUTE;
        let sealed_times = time_batched(SCAN_PASSES, || (), |()| scan(&store, i64::MIN, hot));
        let head_times = time_batched(SCAN_PASSES, || (), |()| scan(&store, hot, i64::MAX));
        let (sealed_pts, _) = scan(&store, i64::MIN, hot);
        let (head_pts, _) = scan(&store, hot, i64::MAX);
        out.push(
            "storage.scan_sealed_mpts",
            sealed_pts as f64 / 1e6 / quartiles(&sealed_times)[0],
            SCAN_PASSES as u64,
        );
        out.push(
            "storage.scan_head_mpts",
            head_pts as f64 / 1e6 / quartiles(&head_times)[0],
            SCAN_PASSES as u64,
        );
        out.push("storage.recover_ms", recover_s * 1e3, RECOVER_PASSES as u64);
        out.push(
            "storage.recover_krec_per_s",
            replayed as f64 / 1e3 / recover_s,
            RECOVER_PASSES as u64,
        );
        setup.push_layers(&mut out);
        // The per-read clock is part of both runs; nothing else is added.
        out.push("loadgen.busy_frac", 0.0, 0);
        out.push("trace.overhead_frac", 0.0, 0);
    }
    out.slice_times_s = day_times;
    out.push("peak_rss_mb", peak_rss_mib(), 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_quantised_seeded_and_appends_time_major() {
        let scale = Scale {
            series: 7,
            days: 1,
            read_batches: 1,
            reads_per_batch: 1,
            downsamples: 1,
        };
        let a = Corpus::generate(&scale, 1);
        let b = Corpus::generate(&scale, 1);
        let c = Corpus::generate(&scale, 2);
        assert_eq!(a.values, b.values, "same seed, same inputs");
        assert_ne!(a.values, c.values);
        assert_eq!(a.values[0].len(), scale.minutes());
        // Temperature is series 0 and 6: centi-degrees on the wire.
        for v in a.values[0].iter().chain(&a.values[6]) {
            assert_eq!((v * 100.0).round() / 100.0, *v);
        }
        let mut store = TimeSeriesStore::new();
        a.append(&mut store, 0, 90);
        assert_eq!(store.len(), 7 * 90);
        let read = store.range(&a.names[3], EPOCH + 30 * MINUTE, EPOCH + 90 * MINUTE);
        assert!(checks::points_equal(&read, &a.points(3, 30, 90)));
    }
}
