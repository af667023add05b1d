//! Memory pins: the bytes the write path's two append-only logs hold
//! per entry (a device proxy's store, head and WAL, and the flight
//! recorder's ring), and the one allocation a head-only range read
//! makes.
//!
//! This file is its own test binary, so it can install a counting
//! `#[global_allocator]` without touching any other suite.

use simnet::rng::DeterministicRng;
use simnet::telemetry::Tracer;
use storage::tskv::{TimeSeriesStore, TskvConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations_in, live_bytes_in};

/// A store that keeps every point of these tests in its head: no seal
/// below 1 024 points, and the default checkpoint threshold (8 192 WAL
/// records), which 1 000 inserts never reach.
fn head_only_store() -> TimeSeriesStore {
    TimeSeriesStore::with_config(TskvConfig {
        seal_threshold: 1_024,
        ..TskvConfig::default()
    })
}

#[test]
fn a_head_only_store_holds_at_most_forty_bytes_per_point() {
    const POINTS: i64 = 1_000;
    let (store, live) = live_bytes_in(|| {
        let mut store = head_only_store();
        for i in 0..POINTS {
            store.insert(
                "temperature",
                1_700_000_000_000 + i * 60_000,
                20.0 + i as f64,
            );
        }
        store
    });
    assert_eq!(store.stats().head_points, POINTS as usize);
    assert_eq!(store.stats().wal_records, POINTS as usize);
    // A head point is 16 bytes and a WAL record 20, each in a `Vec`
    // grown by doubling to 1 024 slots: 36.9 bytes per point, plus the
    // name table and the series slot.
    let per_point = live as f64 / POINTS as f64;
    assert!(per_point <= 40.0, "{per_point:.1} bytes per point");
}

#[test]
fn a_full_default_ring_of_49_byte_details_holds_at_most_8_mib() {
    let detail = "topic=district/d3/building/b12/device/dev4/energy";
    assert_eq!(detail.len(), 49);
    let (tracer, live) = live_bytes_in(|| {
        let tracer = Tracer::new();
        // Twice the default capacity (65 536 events): the ring is full
        // and has wrapped.
        for i in 0..2 * 65_536u64 {
            tracer.record(i, 1, "broker.deliver", 1 + i % 7, format_args!("{detail}"));
        }
        tracer
    });
    assert_eq!(tracer.len(), 65_536);
    assert_eq!(tracer.dropped(), 65_536);
    // 65 536 headers of 56 bytes and as many 49-byte details: 6.6 MiB.
    let mib = live as f64 / (1024.0 * 1024.0);
    assert!(mib <= 8.0, "{mib:.2} MiB");
}

#[test]
fn a_head_only_range_allocates_exactly_once() {
    let mut rng = DeterministicRng::seed_from(0x3E30_0054);
    let mut store = head_only_store();
    let mut t = 0;
    for _ in 0..1_000 {
        t += rng.next_range(1, 120) as i64 * 1_000;
        store.insert("power", t, rng.next_f64());
    }
    for _ in 0..200 {
        let from = rng.next_bounded(t as u64 + 2) as i64 - 1;
        let to = from + rng.next_bounded(t as u64 / 4) as i64;
        let (range, allocations) = allocations_in(|| store.range("power", from, to));
        let mut streamed = Vec::new();
        store.for_each_in("power", from, to, |t, v| streamed.push((t, v)));
        assert_eq!(range, streamed, "[{from}, {to})");
        // One exact-size vector, none for an empty answer.
        assert_eq!(allocations, u64::from(!range.is_empty()), "[{from}, {to})");
        assert_eq!(range.capacity(), range.len());
    }
}
