//! Randomized tests on the storage substrates, driven by
//! `simnet::rng::DeterministicRng` (reproducible, no external
//! property-testing dependency).

use simnet::rng::DeterministicRng;
use storage::legacy::csv::CsvDocument;
use storage::legacy::fixedwidth::{FieldSpec, RecordLayout};
use storage::legacy::ini::IniDocument;
use storage::tskv::{Aggregate, TimeSeriesStore, TskvConfig, PARTITION_MILLIS, ROLLUP_LEVELS};

const CASES: usize = 256;

fn string_from(rng: &mut DeterministicRng, charset: &str, lo: usize, hi: usize) -> String {
    let chars: Vec<char> = charset.chars().collect();
    let len = rng.next_range(lo as u64, hi as u64) as usize;
    (0..len)
        .map(|_| chars[rng.next_bounded(chars.len() as u64) as usize])
        .collect()
}

/// Printable text including quotes, commas, newlines and non-ASCII.
fn printable_string(rng: &mut DeterministicRng, max_len: usize) -> String {
    let len = rng.next_bounded(max_len as u64 + 1) as usize;
    (0..len)
        .map(|_| match rng.next_bounded(8) {
            0 => '"',
            1 => ',',
            2..=5 => char::from_u32(0x20 + rng.next_bounded(0x5f) as u32).unwrap(),
            6 => char::from_u32(0x00A1 + rng.next_bounded(0x500) as u32).unwrap(),
            _ => ['é', '✓', '中', 'Ω'][rng.next_bounded(4) as usize],
        })
        .collect()
}

#[test]
fn tskv_range_equals_filter() {
    let mut rng = DeterministicRng::seed_from(0x5709_0001);
    for _ in 0..CASES / 4 {
        let points: Vec<(i64, f64)> = (0..rng.next_bounded(200))
            .map(|_| (rng.next_u64() as i32 as i64, rng.next_f64_range(-1e6, 1e6)))
            .collect();
        let mut store = TimeSeriesStore::new();
        let mut reference = std::collections::BTreeMap::new();
        for &(t, v) in &points {
            store.insert("s", t, v);
            reference.insert(t, v);
        }
        let from = rng.next_u64() as i32 as i64;
        let to = from + rng.next_bounded(1_000_000) as i64;
        let got = store.range("s", from, to);
        let expected: Vec<(i64, f64)> = reference.range(from..to).map(|(&t, &v)| (t, v)).collect();
        assert_eq!(got, expected);
        assert_eq!(store.series_len("s"), reference.len());
    }
}

#[test]
fn tskv_downsample_conserves_count() {
    let mut rng = DeterministicRng::seed_from(0x5709_0002);
    for _ in 0..CASES / 4 {
        let points: Vec<(i64, f64)> = (0..rng.next_range(1, 199))
            .map(|_| {
                (
                    rng.next_bounded(100_000) as i64,
                    rng.next_f64_range(-1e3, 1e3),
                )
            })
            .collect();
        let bucket = rng.next_range(1, 9_999) as i64;
        let mut store = TimeSeriesStore::new();
        for &(t, v) in &points {
            store.insert("s", t, v);
        }
        let total = store.series_len("s");
        let counted: f64 = store
            .downsample("s", 0, 100_000, bucket, Aggregate::Count)
            .iter()
            .map(|(_, c)| c)
            .sum();
        assert_eq!(counted as usize, total);
        // Mean of each bucket lies within [min, max] of that bucket.
        let means = store.downsample("s", 0, 100_000, bucket, Aggregate::Mean);
        let mins = store.downsample("s", 0, 100_000, bucket, Aggregate::Min);
        let maxs = store.downsample("s", 0, 100_000, bucket, Aggregate::Max);
        for ((tm, mean), ((_, lo), (_, hi))) in means.iter().zip(mins.iter().zip(maxs.iter())) {
            assert!(lo - 1e-9 <= *mean && *mean <= hi + 1e-9, "bucket {tm}");
        }
    }
}

#[test]
fn tskv_retention_keeps_only_newer() {
    let mut rng = DeterministicRng::seed_from(0x5709_0003);
    for _ in 0..CASES / 4 {
        let points: Vec<(i64, f64)> = (0..rng.next_bounded(100))
            .map(|_| (rng.next_u64() as i16 as i64, rng.next_f64()))
            .collect();
        let horizon = rng.next_u64() as i16 as i64;
        let mut store = TimeSeriesStore::new();
        for &(t, v) in &points {
            store.insert("s", t, v);
        }
        let before = store.series_len("s");
        let removed = store.apply_retention(horizon);
        assert_eq!(store.len() + removed, before);
        for (t, _) in store.range("s", i64::MIN, i64::MAX) {
            assert!(t >= horizon);
        }
    }
}

/// A value generator that stresses both segment encodings: NaNs with
/// random payloads, signed zeros, infinities, decimal-quantized
/// telemetry, integers, and full-precision noise.
fn adversarial_value(rng: &mut DeterministicRng) -> f64 {
    match rng.next_bounded(6) {
        0 => f64::from_bits(0x7ff8_0000_0000_0000 | (rng.next_u64() & 0x0007_ffff_ffff_ffff)),
        1 => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][rng.next_bounded(4) as usize],
        2 => (rng.next_range(0, 10_000) as i64 - 5_000) as f64 / 100.0,
        3 => (rng.next_u64() as i32) as f64,
        _ => rng.next_f64_range(-1e9, 1e9),
    }
}

/// A config that forces lots of tiny segments so every structural edge
/// (single-point segments, multi-segment partitions, compaction merges)
/// shows up with few points.
fn tiny_config() -> TskvConfig {
    TskvConfig {
        seal_threshold: 8,
        wal_checkpoint_records: 32,
    }
}

/// A thousandth of a partition: times drawn in these units over a few
/// thousand of them cross a handful of partition boundaries.
const TICK: i64 = PARTITION_MILLIS / 1_000;

#[test]
fn tskv_segment_scans_match_flat_reference() {
    let mut rng = DeterministicRng::seed_from(0x5709_0009);
    for _ in 0..CASES / 4 {
        let mut store = TimeSeriesStore::with_config(tiny_config());
        let mut reference = std::collections::BTreeMap::new();
        // The last `seal_threshold` timestamps inserted: those a head
        // may still hold.
        let mut recent = std::collections::VecDeque::new();
        let n = rng.next_range(1, 121);
        for _ in 0..n {
            // Negative timestamps and frequent duplicates (overwrites);
            // one draw in four revisits a recent insert, so overwrites
            // land in the head as well as in sealed segments.
            let t = if !recent.is_empty() && rng.next_bounded(4) == 0 {
                recent[rng.next_bounded(recent.len() as u64) as usize]
            } else {
                (rng.next_bounded(8_000) as i64 - 4_000) * TICK
            };
            if recent.len() == tiny_config().seal_threshold {
                recent.pop_front();
            }
            recent.push_back(t);
            let v = adversarial_value(&mut rng);
            store.insert("s", t, v);
            reference.insert(t, v);
            // Random engine churn between inserts: seals (down to
            // single-point segments), compaction, checkpoints, and
            // crashes. None of it may change what a scan returns.
            match rng.next_bounded(12) {
                0 => store.seal_all(),
                1 => {
                    store.maintain();
                }
                2 => store.checkpoint(),
                3 => {
                    store.debug_snapshot_without_truncate();
                    store.crash_recover();
                }
                4 => {
                    store.crash_recover();
                }
                _ => {}
            }
        }
        let bits = |pts: Vec<(i64, f64)>| -> Vec<(i64, u64)> {
            pts.into_iter().map(|(t, v)| (t, v.to_bits())).collect()
        };
        let expect_bits = |from: i64, to: i64| -> Vec<(i64, u64)> {
            reference
                .range(from..to)
                .map(|(&t, &v)| (t, v.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(store.range("s", i64::MIN, i64::MAX)),
            expect_bits(i64::MIN, i64::MAX)
        );
        for _ in 0..4 {
            let from = (rng.next_bounded(10_000) as i64 - 5_000) * TICK;
            let to = from + rng.next_bounded(3_000) as i64 * TICK;
            assert_eq!(bits(store.range("s", from, to)), expect_bits(from, to));
            let mut streamed = Vec::new();
            store.for_each_in("s", from, to, |t, v| streamed.push((t, v)));
            assert_eq!(bits(streamed), expect_bits(from, to));
        }
        assert_eq!(store.series_len("s"), reference.len());
        let (lt, lv) = store.latest("s").expect("non-empty");
        let (&rt, &rv) = reference.iter().next_back().expect("non-empty");
        assert_eq!((lt, lv.to_bits()), (rt, rv.to_bits()));
    }
}

/// `downsample_counted` folded straight over the `BTreeMap` model: one
/// chronological pass, the same arithmetic as the store's raw fold.
fn reference_downsample(
    reference: &std::collections::BTreeMap<i64, f64>,
    from: i64,
    to: i64,
    bucket: i64,
    agg: Aggregate,
) -> Vec<(i64, u64, u64)> {
    // (start, count, sum, min, max, last)
    let mut buckets: Vec<(i64, u64, f64, f64, f64, f64)> = Vec::new();
    for (&t, &v) in reference.range(from..to) {
        let start = from + (t - from).div_euclid(bucket) * bucket;
        match buckets.last_mut() {
            Some(b) if b.0 == start => {
                b.1 += 1;
                b.2 += v;
                b.3 = b.3.min(v);
                b.4 = b.4.max(v);
                b.5 = v;
            }
            _ => buckets.push((
                start,
                1,
                v,
                f64::INFINITY.min(v),
                f64::NEG_INFINITY.max(v),
                v,
            )),
        }
    }
    buckets
        .into_iter()
        .map(|(start, count, sum, min, max, last)| {
            let value = match agg {
                Aggregate::Mean => sum / count as f64,
                Aggregate::Min => min,
                Aggregate::Max => max,
                Aggregate::Sum => sum,
                Aggregate::Count => count as f64,
                Aggregate::Last => last,
            };
            (start, value.to_bits(), count)
        })
        .collect()
}

#[test]
fn tskv_interleaved_appends_match_flat_reference() {
    let mut rng = DeterministicRng::seed_from(0x5709_0014);
    let [five, hour] = ROLLUP_LEVELS;
    for _ in 0..CASES / 8 {
        let mut store = TimeSeriesStore::with_config(tiny_config());
        let names = ["a", "b", "raw/b1/dev/temperature", "agg/b1/power"];
        let ids: Vec<_> = names.iter().map(|n| store.series_id(n)).collect();
        let mut reference = vec![std::collections::BTreeMap::new(); names.len()];
        // Each series appends at its own cursor, mostly in order.
        let mut cursors: Vec<i64> = (0..names.len())
            .map(|_| (rng.next_bounded(400) as i64 - 2_000) * TICK)
            .collect();
        for _ in 0..rng.next_range(50, 400) {
            let s = rng.next_bounded(names.len() as u64) as usize;
            let t = match rng.next_bounded(20) {
                // Out of order: up to two partitions behind the cursor.
                0 | 1 => cursors[s] - rng.next_bounded(2_000) as i64 * TICK,
                // Overwrite a point the series already holds.
                2 if !reference[s].is_empty() => {
                    let k = rng.next_bounded(reference[s].len() as u64) as usize;
                    *reference[s].keys().nth(k).expect("k < len")
                }
                _ => {
                    cursors[s] += rng.next_range(1, 40) as i64 * TICK;
                    cursors[s]
                }
            };
            let v = adversarial_value(&mut rng);
            store.insert_at(ids[s], t, v);
            reference[s].insert(t, v);
            match rng.next_bounded(24) {
                0 => store.seal_all(),
                1 | 2 => {
                    store.maintain();
                }
                3 => store.checkpoint(),
                4 => {
                    store.debug_snapshot_without_truncate();
                    store.crash_recover();
                }
                5 => {
                    store.crash_recover();
                }
                6 => {
                    // Drop what lies a partition or so behind the
                    // slowest cursor.
                    let oldest = cursors.iter().min().expect("series");
                    let horizon = oldest - rng.next_bounded(1_500) as i64 * TICK;
                    let removed: usize = reference
                        .iter_mut()
                        .map(|r| {
                            let keep = r.split_off(&horizon);
                            std::mem::replace(r, keep).len()
                        })
                        .sum();
                    assert_eq!(store.apply_retention(horizon), removed);
                }
                _ => {}
            }
        }
        let bits = |pts: Vec<(i64, f64)>| -> Vec<(i64, u64)> {
            pts.into_iter().map(|(t, v)| (t, v.to_bits())).collect()
        };
        // Once as the churn left it, once fully sealed and compacted so
        // aligned queries are served from materialized rollups.
        for settle in [false, true] {
            if settle {
                store.seal_all();
                store.maintain();
            }
            assert_eq!(
                store.len(),
                reference.iter().map(|r| r.len()).sum::<usize>()
            );
            for (s, name) in names.iter().enumerate() {
                let r = &reference[s];
                let want: Vec<(i64, u64)> = r.iter().map(|(&t, &v)| (t, v.to_bits())).collect();
                assert_eq!(bits(store.range(name, i64::MIN, i64::MAX)), want, "{name}");
                assert_eq!(store.series_len(name), r.len());
                assert_eq!(
                    store.latest(name).map(|(t, v)| (t, v.to_bits())),
                    r.iter().next_back().map(|(&t, &v)| (t, v.to_bits())),
                    "{name}"
                );
                let held = r.keys().copied();
                let probes: Vec<i64> = held
                    .flat_map(|t| [t - TICK, t, t + 1])
                    .chain((0..8).map(|_| (rng.next_bounded(6_000) as i64 - 3_000) * TICK))
                    .collect();
                for t in probes {
                    assert_eq!(
                        store.contains_at(ids[s], t),
                        r.contains_key(&t),
                        "{name} at {t}"
                    );
                }
                for _ in 0..6 {
                    let bucket = [five, hour, rng.next_range(1, 2 * hour as u64) as i64]
                        [rng.next_bounded(3) as usize];
                    let from = if rng.next_bounded(2) == 0 {
                        (rng.next_bounded(6) as i64 - 4) * PARTITION_MILLIS
                    } else {
                        (rng.next_bounded(5_000) as i64 - 4_000) * TICK
                    };
                    let to = from + rng.next_bounded(4 * PARTITION_MILLIS as u64) as i64;
                    let agg = [
                        Aggregate::Mean,
                        Aggregate::Min,
                        Aggregate::Max,
                        Aggregate::Sum,
                        Aggregate::Count,
                        Aggregate::Last,
                    ][rng.next_bounded(6) as usize];
                    let got: Vec<(i64, u64, u64)> = store
                        .downsample_counted(name, from, to, bucket, agg)
                        .into_iter()
                        .map(|b| (b.start, b.value.to_bits(), b.count))
                        .collect();
                    assert_eq!(
                        got,
                        reference_downsample(r, from, to, bucket, agg),
                        "{name}: downsample({from},{to},{bucket},{agg:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn tskv_series_ids_are_the_string_paths() {
    let mut rng = DeterministicRng::seed_from(0x5709_0013);
    let names = ["a", "b", "raw/b1/dev/temperature", "meta/watermark"];
    for _ in 0..CASES / 4 {
        // `mixed` is written through ids and names in turn, `named`
        // through names only; no operation may tell them apart.
        let mut mixed = TimeSeriesStore::with_config(tiny_config());
        let mut named = TimeSeriesStore::with_config(tiny_config());
        let mut ids = std::collections::HashMap::new();
        for _ in 0..rng.next_range(1, 200) {
            let name = names[rng.next_bounded(names.len() as u64) as usize];
            let t = rng.next_bounded(6_000) as i64 - 1_000;
            match rng.next_bounded(16) {
                0 | 1 => {
                    let horizon = rng.next_bounded(6_000) as i64 - 1_000;
                    assert_eq!(
                        mixed.apply_retention(horizon),
                        named.apply_retention(horizon)
                    );
                }
                2 => {
                    mixed.checkpoint();
                    named.checkpoint();
                }
                3 => assert_eq!(mixed.crash_recover(), named.crash_recover()),
                4 => {
                    mixed.seal_all();
                    named.seal_all();
                }
                5 => assert_eq!(mixed.maintain(), named.maintain()),
                // Resolving writes nothing, and an id outlives every
                // operation above and a clone.
                6 => {
                    ids.entry(name).or_insert_with(|| mixed.series_id(name));
                }
                7 => mixed = mixed.clone(),
                op => {
                    let v = (rng.next_range(0, 10_000) as i64 - 5_000) as f64 / 100.0;
                    if op % 2 == 0 {
                        let id = *ids.entry(name).or_insert_with(|| mixed.series_id(name));
                        assert_eq!(id, mixed.series_id(name), "ids are stable");
                        mixed.insert_at(id, t, v);
                    } else {
                        mixed.insert(name, t, v);
                    }
                    named.insert(name, t, v);
                }
            }
            assert!(mixed == named);
            assert!(mixed.series_names().eq(named.series_names()));
            assert_eq!(mixed.stats(), named.stats());
            assert_eq!(mixed.is_empty(), named.is_empty());
            if let Some(&id) = ids.get(name) {
                assert_eq!(
                    mixed.contains_at(id, t),
                    !named.range(name, t, t + 1).is_empty(),
                    "{name} at {t}"
                );
            }
        }
    }
}

#[test]
fn tskv_downsample_agrees_between_sealed_and_head_only_stores() {
    let [five, hour] = ROLLUP_LEVELS;
    // Two NaNs with different payloads in one bucket: a Sum or a Mean
    // keeps whichever payload the fold's `+` keeps, and the
    // materialized rollup (served for a query over the whole
    // partition) must keep the one the raw fold keeps.
    let nans = [0x7ff8_0000_0000_0001, 0xfff8_0000_0000_0002].map(f64::from_bits);
    let mut sealed = TimeSeriesStore::with_config(tiny_config());
    let mut flat = TimeSeriesStore::new();
    for (t, v) in [(0, nans[0]), (five / 2, nans[1])] {
        sealed.insert("s", t, v);
        flat.insert("s", t, v);
    }
    sealed.seal_all();
    sealed.maintain();
    for agg in [Aggregate::Sum, Aggregate::Mean] {
        let project = |s: &TimeSeriesStore| -> Vec<(i64, u64, u64)> {
            s.downsample_counted("s", 0, PARTITION_MILLIS, five, agg)
                .into_iter()
                .map(|b| (b.start, b.value.to_bits(), b.count))
                .collect()
        };
        let answer = project(&flat);
        assert_eq!(answer.len(), 1, "{agg:?}: one bucket of two points");
        assert!(f64::from_bits(answer[0].1).is_nan(), "{agg:?}");
        assert_eq!(project(&sealed), answer, "{agg:?} over two NaNs");
    }

    let mut rng = DeterministicRng::seed_from(0x5709_000a);
    for _ in 0..CASES / 4 {
        // `sealed` runs the full engine (segments, compaction,
        // materialized rollups); `flat` never leaves its mutable head
        // (default config, tiny data), i.e. the reference fold.
        let mut sealed = TimeSeriesStore::with_config(tiny_config());
        let mut flat = TimeSeriesStore::new();
        for _ in 0..rng.next_range(1, 150) {
            // Clustered into three 5-minute buckets of two hours on six
            // days, so rollup buckets hold several points each.
            let day = rng.next_bounded(6) as i64 - 3;
            let t = day * PARTITION_MILLIS
                + rng.next_bounded(2) as i64 * hour
                + rng.next_bounded(3) as i64 * five
                + rng.next_bounded(five as u64) as i64;
            let v = adversarial_value(&mut rng);
            sealed.insert("s", t, v);
            flat.insert("s", t, v);
        }
        sealed.seal_all();
        sealed.maintain();
        for _ in 0..6 {
            // Half the queries are bucket-aligned so the materialized
            // fast path actually fires; the rest take the raw fold.
            let bucket = [five, hour, rng.next_range(1, 2 * hour as u64) as i64]
                [rng.next_bounded(3) as usize];
            let from = if rng.next_bounded(2) == 0 {
                (rng.next_bounded(80) as i64 - 40) * bucket
            } else {
                (rng.next_bounded(8_000) as i64 - 4_000) * TICK
            };
            let to = from + rng.next_bounded(5 * PARTITION_MILLIS as u64) as i64;
            let agg = [
                Aggregate::Mean,
                Aggregate::Min,
                Aggregate::Max,
                Aggregate::Sum,
                Aggregate::Count,
                Aggregate::Last,
            ][rng.next_bounded(6) as usize];
            let project = |s: &TimeSeriesStore| -> Vec<(i64, u64, u64)> {
                s.downsample_counted("s", from, to, bucket, agg)
                    .into_iter()
                    .map(|b| (b.start, b.value.to_bits(), b.count))
                    .collect()
            };
            assert_eq!(
                project(&sealed),
                project(&flat),
                "downsample({from},{to},{bucket},{agg:?})"
            );
        }
    }
}

#[test]
fn csv_round_trips_arbitrary_fields() {
    let mut rng = DeterministicRng::seed_from(0x5709_0004);
    for _ in 0..CASES / 4 {
        let header: Vec<String> = (0..rng.next_range(1, 4))
            .map(|_| string_from(&mut rng, "abcdefgh", 1, 8))
            .collect();
        let width = header.len();
        let mut doc = CsvDocument::new(header);
        for _ in 0..rng.next_bounded(20) {
            let mut row: Vec<String> = (0..rng.next_range(1, 4))
                .map(|_| printable_string(&mut rng, 16))
                .collect();
            row.resize(width, String::new());
            row.truncate(width);
            doc.push(row).expect("width fixed");
        }
        assert_eq!(CsvDocument::parse(&doc.encode()).expect("round trip"), doc);
    }
}

#[test]
fn csv_parser_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x5709_0005);
    for _ in 0..CASES {
        let len = rng.next_bounded(129) as usize;
        let text: String = (0..len)
            .filter_map(|_| char::from_u32(rng.next_bounded(0x500) as u32))
            .collect();
        let _ = CsvDocument::parse(&text);
    }
}

#[test]
fn fixedwidth_round_trips() {
    let mut rng = DeterministicRng::seed_from(0x5709_0006);
    for _ in 0..CASES / 4 {
        let widths: Vec<usize> = (0..rng.next_range(1, 4))
            .map(|_| rng.next_range(1, 11) as usize)
            .collect();
        let layout = RecordLayout::new(
            widths
                .iter()
                .enumerate()
                .map(|(i, &w)| FieldSpec::new(format!("f{i}"), w))
                .collect(),
        );
        let rows: Vec<Vec<String>> = (0..rng.next_bounded(10))
            .map(|_| {
                widths
                    .iter()
                    .map(|&w| {
                        // Fit the width and drop trailing spaces (they
                        // cannot survive the padding round trip).
                        string_from(&mut rng, "abcXYZ019._-", 0, 11)
                            .chars()
                            .take(w)
                            .collect::<String>()
                            .trim_end()
                            .to_owned()
                    })
                    .collect()
            })
            .collect();
        let text = layout.encode_document(&rows).expect("values fit");
        assert_eq!(layout.parse_document(&text).expect("round trip"), rows);
    }
}

#[test]
fn ini_round_trips() {
    let mut rng = DeterministicRng::seed_from(0x5709_0007);
    for _ in 0..CASES / 4 {
        let mut doc = IniDocument::new();
        for _ in 0..rng.next_bounded(5) {
            let section = string_from(&mut rng, "abcdefgh", 1, 8);
            for _ in 0..rng.next_range(1, 4) {
                let k = string_from(&mut rng, "abcdefgh", 1, 8);
                let v = string_from(&mut rng, "abcXYZ019 ._/:-", 0, 16);
                doc.set(section.clone(), k, v.trim().to_owned());
            }
        }
        assert_eq!(IniDocument::parse(&doc.encode()).expect("round trip"), doc);
    }
}
