//! E7 — the Device-proxy's local database (layer 2).
//!
//! Claim tested: the middle layer decouples device sampling from query
//! load. Measures ingest rate, range/downsample query cost and the
//! retention sweep over realistic store sizes.

use bench_support::report::{fmt_f64, Table};
use bench_support::time_it;
use storage::tskv::{Aggregate, TimeSeriesStore};

fn filled(series: usize, points_per_series: usize) -> TimeSeriesStore {
    let mut store = TimeSeriesStore::new();
    for s in 0..series {
        let name = format!("dev{s}:temperature");
        for p in 0..points_per_series {
            store.insert(&name, p as i64 * 60_000, 20.0 + (p % 50) as f64 * 0.1);
        }
    }
    store
}

fn main() {
    let mut table = Table::new(
        "E7: local time-series store",
        [
            "series",
            "points_total",
            "insert_ns",
            "range_1h_us",
            "downsample_24h_us",
            "latest_ns",
            "retention_ms",
        ],
    );
    for &(series, points) in &[(1usize, 10_000usize), (4, 10_000), (4, 100_000)] {
        let store = filled(series, points);
        let total = store.len();
        let horizon_end = points as i64 * 60_000;

        // Insert cost: appended to a fresh copy each time would measure
        // clone; instead measure insert into a pre-filled clone once.
        let mut insert_target = store.clone();
        let (_, insert_ns) = time_it(20_000, || {
            insert_target.insert("dev0:temperature", horizon_end + 1, 21.0);
        });

        let (_, range_ns) = time_it(2_000, || {
            store
                .range("dev0:temperature", horizon_end - 3_600_000, horizon_end)
                .len()
        });
        let (_, down_ns) = time_it(500, || {
            store
                .downsample(
                    "dev0:temperature",
                    horizon_end - 24 * 3_600_000,
                    horizon_end,
                    3_600_000,
                    Aggregate::Mean,
                )
                .len()
        });
        let (_, latest_ns) = time_it(20_000, || store.latest("dev0:temperature"));
        let (retention_total, _) = time_it(10, || {
            let mut s = store.clone();
            s.apply_retention(horizon_end / 2)
        });
        table.row([
            series.to_string(),
            total.to_string(),
            fmt_f64(insert_ns, 0),
            fmt_f64(range_ns / 1e3, 1),
            fmt_f64(down_ns / 1e3, 1),
            fmt_f64(latest_ns, 0),
            fmt_f64(retention_total * 1000.0 / 10.0, 2),
        ]);
    }
    table.print_with_series();
    println!("note: retention_ms includes cloning the store (worst case upper bound).");
}
