//! The time-series store backing every Device-proxy's local database.
//!
//! Series are keyed by free-form strings — a Device-proxy uses the
//! quantity name (`temperature`), an aggregator
//! `raw/<entity>/<device>/<quantity>` and `agg/...` — and points are
//! `(unix-millis, f64)` pairs. A writer that appends to the same series
//! many times resolves the name once ([`TimeSeriesStore::series_id`])
//! and writes through the [`SeriesId`]; the `&str` calls are that
//! resolution plus the same body. The store is an LSM-lite engine
//! behind the same facade the flat `BTreeMap` version exposed:
//!
//! * a **mutable head** per series: its points sorted by timestamp in a
//!   `Vec`, where an in-order insert is a push and an insert at a held
//!   timestamp overwrites it (last-writer-wins),
//! * **immutable sealed segments** — time-partitioned runs compressed
//!   with Gorilla-style delta-of-delta timestamps plus either
//!   decimal-integer deltas (the common case for quantized device
//!   telemetry) or XOR float encoding (see [`gorilla`](self)),
//! * **compaction** that merges a partition's segments into a single
//!   owner and materializes rollup levels serving `downsample_counted`
//!   without decoding,
//! * a **write-ahead log + snapshot** providing crash recovery: every
//!   insert is logged before it is acknowledged, and
//!   [`TimeSeriesStore::crash_recover`] (called from a node's
//!   `on_restart`) restores the snapshot and replays the WAL tail, so a
//!   crash loses no acknowledged point.
//!
//! Queries ([`TimeSeriesStore::range`], `latest`, `downsample*`) merge
//! the head with any overlapping segments; duplicate timestamps resolve
//! head-first, then newest seal. Maintenance (sealing cold partitions,
//! compaction, checkpointing) runs from
//! [`TimeSeriesStore::maintain`] — typically on a node timer — and
//! bounded amounts happen inline on insert so an unmaintained store
//! still keeps its head and WAL small.

mod gorilla;
mod scan;
mod segment;
mod wal;

use std::collections::BTreeMap;

use telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Registry};

use self::gorilla::{encode_into, BlockIter};
use self::scan::{head_from, MergeScan};
use self::segment::{materialize, Segment, SummaryBucket};
use self::wal::{Snapshot, Wal, WalOp};

/// How a downsampling bucket combines its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Aggregate {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Number of points.
    Count,
    /// The chronologically last point.
    Last,
}

impl Aggregate {
    /// Parses the lowercase name used in query strings. Matching is
    /// exact (lowercase only), and a direct string match so the query
    /// path does no scanning.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "mean" => Aggregate::Mean,
            "min" => Aggregate::Min,
            "max" => Aggregate::Max,
            "sum" => Aggregate::Sum,
            "count" => Aggregate::Count,
            "last" => Aggregate::Last,
            _ => return None,
        })
    }

    /// Finishes a bucket accumulation.
    #[inline]
    fn finish(self, b: &SummaryBucket) -> Bucket {
        let value = match self {
            Aggregate::Mean => b.sum / b.count as f64,
            Aggregate::Min => b.min,
            Aggregate::Max => b.max,
            Aggregate::Sum => b.sum,
            Aggregate::Count => b.count as f64,
            Aggregate::Last => b.last,
        };
        Bucket {
            start: b.start,
            value,
            count: b.count,
        }
    }
}

/// One downsampling bucket: the aggregate value plus how many raw
/// points produced it (see [`TimeSeriesStore::downsample_counted`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Bucket start (unix millis, aligned to the query's `from`).
    pub start: i64,
    /// The aggregated value.
    pub value: f64,
    /// How many raw points fell into this bucket.
    pub count: u64,
}

/// Segment time-partition width: a day, ~1.4k points at the scenario's
/// 60 s cadence, enough to amortize the block header and keep scans
/// streaming instead of hopping tiny segments. Sealed segments never
/// cross a partition boundary; compaction owns whole partitions.
pub const PARTITION_MILLIS: i64 = 86_400_000;
/// Rollup bucket widths materialized at compaction: 5 minutes and an
/// hour, each dividing [`PARTITION_MILLIS`].
pub const ROLLUP_LEVELS: [i64; 2] = [300_000, 3_600_000];

/// Engine tuning knobs; the defaults suit district telemetry (points
/// every few seconds to minutes per series).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TskvConfig {
    /// Head size (points per series) that triggers an inline seal of
    /// complete partitions on insert.
    pub seal_threshold: usize,
    /// WAL length that triggers an inline checkpoint (snapshot + WAL
    /// truncation) on insert.
    pub wal_checkpoint_records: usize,
}

impl Default for TskvConfig {
    fn default() -> Self {
        TskvConfig {
            seal_threshold: 512,
            wal_checkpoint_records: 8192,
        }
    }
}

impl TskvConfig {
    fn validate(&self) {
        assert!(self.seal_threshold >= 2, "seal threshold must be >= 2");
        assert!(
            self.wal_checkpoint_records >= 1,
            "checkpoint threshold must be >= 1"
        );
    }
}

/// A point-in-time view of the engine's physical state (see
/// [`TimeSeriesStore::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TskvStats {
    /// Points currently in mutable heads.
    pub head_points: usize,
    /// Points held in sealed segments (pre-merge, per segment).
    pub sealed_points: u64,
    /// Number of sealed segments.
    pub segments: usize,
    /// Flat-representation size of the sealed points (16 bytes each).
    pub bytes_raw: u64,
    /// Encoded size of all sealed segments.
    pub bytes_compressed: u64,
    /// Live (untruncated) WAL records.
    pub wal_records: usize,
    /// Lifetime seal operations.
    pub(crate) seals: u64,
    /// Lifetime partition compactions.
    pub(crate) compactions: u64,
    /// Lifetime WAL records replayed by crash recovery.
    pub wal_replayed: u64,
}

/// What one [`TimeSeriesStore::maintain`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// Segments sealed from cold head partitions.
    pub(crate) sealed: usize,
    /// Partitions compacted (merged and/or rollups materialized).
    pub(crate) compacted: usize,
    /// Whether a checkpoint (snapshot + WAL truncate) ran.
    pub(crate) checkpointed: bool,
}

/// A series name resolved by [`TimeSeriesStore::series_id`]: an index
/// into the store that issued it, and meaningless to any other store
/// but a `Clone` of it. An id stays valid for the life of the store —
/// across retention that empties the series, `checkpoint` and
/// `crash_recover` — because the WAL and the snapshot name series by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

impl SeriesId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One series' storage: the mutable head, sorted by timestamp, plus
/// sealed segments sorted by `(min_t, seq)`.
#[derive(Debug, Clone, Default)]
struct Series {
    head: Vec<(i64, f64)>,
    segments: Vec<Segment>,
}

impl Series {
    /// Writes a point into the head: a push past its newest point, else
    /// an overwrite or an insert at the timestamp's place.
    fn put(&mut self, t: i64, v: f64) {
        if self.head.last().is_none_or(|&(newest, _)| newest < t) {
            return self.head.push((t, v));
        }
        match self.head.binary_search_by_key(&t, |&(t, _)| t) {
            Ok(i) => self.head[i].1 = v,
            Err(i) => self.head.insert(i, (t, v)),
        }
    }

    /// Drops the head's points older than `horizon`.
    fn expire_head(&mut self, horizon: i64) {
        let expired = self.head.len() - head_from(&self.head, horizon).len();
        self.head.drain(..expired);
    }

    fn is_empty(&self) -> bool {
        self.head.is_empty() && self.segments.is_empty()
    }

    /// Distinct points held.
    fn len(&self) -> usize {
        if self.segments.is_empty() {
            self.head.len()
        } else {
            scan_all(self).count()
        }
    }
}

/// When an inline/maintenance seal takes a head partition.
#[derive(Clone, Copy)]
enum SealMode {
    /// Complete (non-hot) partitions only.
    Cold,
    /// Everything, including the hot partition.
    All,
    /// Complete partitions, plus the hot one if it alone reached the
    /// threshold.
    Auto { threshold: usize },
}

/// A per-series, in-memory time-series database with compressed sealed
/// segments and WAL-based crash recovery.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesStore {
    config: TskvConfig,
    /// The one name table, shared by the head map, the WAL and the
    /// snapshot: name → id, sorted, never shrinking.
    names: BTreeMap<Box<str>, SeriesId>,
    /// Series storage, indexed by [`SeriesId`]. A slot outlives its
    /// points (resolved but never written, dropped, expired); an empty
    /// slot is invisible to every query and to `series_names`.
    series: Vec<Series>,
    wal: Wal,
    snapshot: Snapshot,
    next_seq: u64,
    seals: u64,
    compactions: u64,
    wal_replayed: u64,
    /// Optional metrics sink (see [`TimeSeriesStore::attach_metrics`]).
    metrics: Option<TskvSeries>,
}

/// The store's series, resolved once by
/// [`TimeSeriesStore::attach_metrics`].
#[derive(Debug, Clone)]
struct TskvSeries {
    append: CounterHandle,
    scan: CounterHandle,
    scan_points: HistogramHandle,
    seals: CounterHandle,
    compactions: CounterHandle,
    wal_truncated: CounterHandle,
    wal_replayed: CounterHandle,
    segments: GaugeHandle,
    bytes_raw: GaugeHandle,
    bytes_compressed: GaugeHandle,
    wal_records: GaugeHandle,
}

impl TskvSeries {
    fn scanned(&self, points: f64) {
        self.scan.incr();
        self.scan_points.observe(points);
    }
}

impl PartialEq for TimeSeriesStore {
    fn eq(&self, other: &Self) -> bool {
        // Logical contents only: physical layout (sealed vs head), the
        // ids names resolved to and the metrics sink are invisible to
        // equality.
        self.live().count() == other.live().count()
            && self
                .live()
                .zip(other.live())
                .all(|((an, a), (bn, b))| an == bn && scan_all(a).eq(scan_all(b)))
    }
}

fn scan_all(s: &Series) -> MergeScan<'_> {
    MergeScan::new(&s.head, &s.segments, i64::MIN, None)
}

impl TimeSeriesStore {
    /// Creates an empty store with default tuning.
    pub fn new() -> Self {
        TimeSeriesStore::default()
    }

    /// Creates an empty store with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics if the seal threshold is below 2 or the checkpoint
    /// threshold is zero.
    pub fn with_config(config: TskvConfig) -> Self {
        config.validate();
        TimeSeriesStore {
            config,
            ..TimeSeriesStore::default()
        }
    }

    /// Attaches a metrics registry; the store then counts appends and
    /// scans (`tskv.append`, `tskv.scan`), sizes result sets
    /// (`tskv.scan_points`), counts engine events (`tskv.seals`,
    /// `tskv.compactions`, `tskv.wal_truncated`, `tskv.wal_replayed`)
    /// and gauges physical state (`tskv.segments`, `tskv.bytes_raw`,
    /// `tskv.bytes_compressed`, `tskv.wal_records`).
    pub fn attach_metrics(&mut self, metrics: &Registry) {
        self.metrics = Some(TskvSeries {
            append: metrics.counter_handle("tskv.append"),
            scan: metrics.counter_handle("tskv.scan"),
            scan_points: metrics.histogram_handle("tskv.scan_points"),
            seals: metrics.counter_handle("tskv.seals"),
            compactions: metrics.counter_handle("tskv.compactions"),
            wal_truncated: metrics.counter_handle("tskv.wal_truncated"),
            wal_replayed: metrics.counter_handle("tskv.wal_replayed"),
            segments: metrics.gauge_handle("tskv.segments"),
            bytes_raw: metrics.gauge_handle("tskv.bytes_raw"),
            bytes_compressed: metrics.gauge_handle("tskv.bytes_compressed"),
            wal_records: metrics.gauge_handle("tskv.wal_records"),
        });
    }

    /// Resolves `name` to the handle [`TimeSeriesStore::insert_at`] and
    /// [`TimeSeriesStore::contains_at`] take, creating an empty series
    /// on first sight. Resolving writes nothing: a series enters
    /// `series_names`, the WAL and the stats with its first point.
    pub fn series_id(&mut self, name: &str) -> SeriesId {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = SeriesId(u32::try_from(self.series.len()).expect("fewer than 2^32 series"));
        self.names.insert(name.into(), id);
        self.series.push(Series::default());
        id
    }

    /// Inserts a point; a point at the same timestamp is overwritten
    /// (last-writer-wins, matching sensor re-transmissions). The point
    /// is WAL-logged before it reaches the head, so once `insert`
    /// returns it survives [`TimeSeriesStore::crash_recover`].
    pub fn insert(&mut self, series: &str, timestamp_millis: i64, value: f64) {
        let id = self.series_id(series);
        self.insert_at(id, timestamp_millis, value);
    }

    /// [`TimeSeriesStore::insert`] through a resolved handle.
    ///
    /// # Panics
    ///
    /// Panics if `series` was issued by another store.
    pub fn insert_at(&mut self, series: SeriesId, timestamp_millis: i64, value: f64) {
        self.wal.append(WalOp::Insert {
            series,
            t: timestamp_millis,
            v: value,
        });
        let threshold = self.config.seal_threshold;
        let entry = &mut self.series[series.index()];
        entry.put(timestamp_millis, value);
        if entry.head.len() >= threshold {
            let sealed = seal_head(entry, &mut self.next_seq, SealMode::Auto { threshold });
            self.note_seals(sealed);
        }
        if let Some(metrics) = &self.metrics {
            metrics.append.incr();
        }
        if self.wal.len() >= self.config.wal_checkpoint_records {
            self.checkpoint();
        }
    }

    /// Whether `series` holds a point at exactly `timestamp_millis` —
    /// `!range(name, t, t + 1).is_empty()` without the `Vec`, and
    /// counted as that one-point scan.
    ///
    /// # Panics
    ///
    /// Panics if `series` was issued by another store.
    pub fn contains_at(&self, series: SeriesId, timestamp_millis: i64) -> bool {
        let t = timestamp_millis;
        let s = &self.series[series.index()];
        let found = s.head.binary_search_by_key(&t, |&(t, _)| t).is_ok()
            || s.segments.iter().any(|seg| {
                seg.min_t <= t
                    && t <= seg.max_t
                    && seg
                        .iter_from(t)
                        .find(|&(pt, _)| pt >= t)
                        .is_some_and(|(pt, _)| pt == t)
            });
        if let Some(metrics) = &self.metrics {
            metrics.scanned(f64::from(u8::from(found)));
        }
        found
    }

    /// The series `name` resolves to, if it was ever resolved. An empty
    /// slot answers every query like an unknown name.
    fn get(&self, name: &str) -> Option<&Series> {
        self.names.get(name).map(|id| &self.series[id.index()])
    }

    /// Every series holding at least one point, sorted by name.
    fn live(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.names
            .iter()
            .map(|(name, id)| (&**name, &self.series[id.index()]))
            .filter(|(_, s)| !s.is_empty())
    }

    /// Number of distinct points in `series` (0 for unknown series).
    pub fn series_len(&self, series: &str) -> usize {
        self.get(series).map_or(0, Series::len)
    }

    /// Total number of distinct points across all series.
    pub fn len(&self) -> usize {
        self.series.iter().map(Series::len).sum()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.series.iter().all(Series::is_empty)
    }

    /// The names of all series holding at least one point, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.live().map(|(name, _)| name)
    }

    /// The chronologically last point of a series.
    pub fn latest(&self, series: &str) -> Option<(i64, f64)> {
        let s = self.get(series)?;
        let mut best: Option<(i64, f64, u64)> = s.head.last().map(|&(t, v)| (t, v, u64::MAX));
        for seg in &s.segments {
            let newer = match best {
                None => true,
                Some((bt, _, bp)) => seg.max_t > bt || (seg.max_t == bt && seg.seq > bp),
            };
            if newer {
                best = Some((seg.max_t, seg.last_v, seg.seq));
            }
        }
        best.map(|(t, v, _)| (t, v))
    }

    /// All points with `from <= t < to`, in chronological order.
    pub fn range(&self, series: &str, from: i64, to: i64) -> Vec<(i64, f64)> {
        let mut out = Vec::new();
        if from < to {
            if let Some(s) = self.get(series) {
                MergeScan::new(&s.head, &s.segments, from, Some(to))
                    .for_each(|t, v| out.push((t, v)));
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.scanned(out.len() as f64);
        }
        out
    }

    /// Streams every point with `from <= t < to` through `f` in
    /// chronological order, without materializing a `Vec` — the
    /// allocation-free sibling of [`TimeSeriesStore::range`].
    pub fn for_each_in(&self, series: &str, from: i64, to: i64, mut f: impl FnMut(i64, f64)) {
        let mut n = 0u64;
        if from < to {
            if let Some(s) = self.get(series) {
                MergeScan::new(&s.head, &s.segments, from, Some(to)).for_each(|t, v| {
                    n += 1;
                    f(t, v);
                });
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.scanned(n as f64);
        }
    }

    /// Bucketed aggregates over `[from, to)` with buckets of
    /// `bucket_millis`, labelled by bucket start. Empty buckets are
    /// omitted.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_millis` is not positive.
    pub fn downsample(
        &self,
        series: &str,
        from: i64,
        to: i64,
        bucket_millis: i64,
        aggregate: Aggregate,
    ) -> Vec<(i64, f64)> {
        self.downsample_counted(series, from, to, bucket_millis, aggregate)
            .into_iter()
            .map(|b| (b.start, b.value))
            .collect()
    }

    /// Like [`TimeSeriesStore::downsample`], but each bucket also
    /// carries its raw sample count, so higher aggregation tiers can
    /// re-combine buckets with correct weights (a count-weighted mean
    /// of bucket means equals the mean over the raw points, instead of
    /// an average of averages).
    ///
    /// Buckets are folded in one streaming pass (no per-bucket
    /// allocation). When `from` is bucket-aligned and a compacted
    /// segment owns an uncontested stretch of the query with a
    /// materialized level of this width, its precomputed buckets are
    /// served directly without decoding the segment.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_millis` is not positive.
    pub fn downsample_counted(
        &self,
        series: &str,
        from: i64,
        to: i64,
        bucket_millis: i64,
        aggregate: Aggregate,
    ) -> Vec<Bucket> {
        assert!(bucket_millis > 0, "bucket size must be positive");
        let mut out = Vec::new();
        let mut scanned = 0u64;
        if from < to {
            if let Some(s) = self.get(series) {
                let spans = if from.rem_euclid(bucket_millis) == 0 {
                    eligible_spans(s, from, to, bucket_millis)
                } else {
                    Vec::new()
                };
                let mut cursor = from;
                for (ps, pe, seg_idx, level_idx) in spans {
                    fold_buckets(
                        s,
                        cursor,
                        ps,
                        from,
                        bucket_millis,
                        aggregate,
                        &mut out,
                        &mut scanned,
                    );
                    for b in &s.segments[seg_idx].levels[level_idx].buckets {
                        out.push(aggregate.finish(b));
                        scanned += b.count;
                    }
                    cursor = pe;
                }
                fold_buckets(
                    s,
                    cursor,
                    to,
                    from,
                    bucket_millis,
                    aggregate,
                    &mut out,
                    &mut scanned,
                );
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.scanned(scanned as f64);
        }
        out
    }

    /// Drops every point strictly older than `horizon_millis` across all
    /// series; returns how many points were removed. Partially-expired
    /// segments are rewritten (they lose their compacted status until
    /// the next maintenance pass).
    pub fn apply_retention(&mut self, horizon_millis: i64) -> usize {
        let mut removed = 0usize;
        for s in &self.series {
            removed += MergeScan::new(&s.head, &s.segments, i64::MIN, Some(horizon_millis)).count();
        }
        if removed == 0 {
            return 0;
        }
        self.wal.append(WalOp::Retention {
            horizon: horizon_millis,
        });
        for s in &mut self.series {
            s.expire_head(horizon_millis);
            let old = std::mem::take(&mut s.segments);
            for seg in old {
                if seg.min_t >= horizon_millis {
                    s.segments.push(seg);
                } else if seg.max_t >= horizon_millis {
                    let pts: Vec<(i64, f64)> = seg
                        .iter_from(horizon_millis)
                        .filter(|&(t, _)| t >= horizon_millis)
                        .collect();
                    s.segments.push(Segment::seal(&pts, seg.seq));
                }
            }
            // Rewritten segments start later: restore `(min_t, seq)` order.
            s.segments.sort_unstable_by_key(|seg| (seg.min_t, seg.seq));
        }
        self.update_gauges();
        removed
    }

    /// Seals every head partition — including hot ones — into segments.
    /// Queries are unaffected; used before measuring compression and by
    /// tests.
    pub fn seal_all(&mut self) {
        let mut sealed = 0;
        for s in &mut self.series {
            sealed += seal_head(s, &mut self.next_seq, SealMode::All);
        }
        self.note_seals(sealed);
        self.update_gauges();
    }

    /// One maintenance pass: seals complete (cold) head partitions,
    /// compacts partitions with multiple or un-materialized segments,
    /// and checkpoints when the WAL is long enough. Intended to run
    /// from a periodic node timer.
    pub fn maintain(&mut self) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        for s in &mut self.series {
            report.sealed += seal_head(s, &mut self.next_seq, SealMode::Cold);
            report.compacted += compact_series(s);
        }
        self.note_seals(report.sealed);
        if report.compacted > 0 {
            self.compactions += report.compacted as u64;
            if let Some(metrics) = &self.metrics {
                metrics.compactions.add(report.compacted as u64);
            }
        }
        if self.wal.len() >= self.config.wal_checkpoint_records {
            self.checkpoint();
            report.checkpointed = true;
        }
        self.update_gauges();
        report
    }

    /// Takes a snapshot of the mutable heads and truncates the WAL
    /// through it. After a checkpoint, recovery replays only the
    /// records since.
    pub fn checkpoint(&mut self) {
        self.write_snapshot();
        self.wal.truncate_through(self.snapshot.upto_seq);
        if let Some(metrics) = &self.metrics {
            metrics.wal_truncated.incr();
        }
        self.update_gauges();
    }

    /// Test hook: a *torn* checkpoint — snapshot written, crash before
    /// the WAL truncate. Recovery must be byte-identical anyway,
    /// because replaying already-snapshotted records is idempotent.
    #[doc(hidden)]
    pub fn debug_snapshot_without_truncate(&mut self) {
        self.write_snapshot();
    }

    /// Simulates the volatile-state loss of a node crash and recovers:
    /// drops every mutable head, restores the last snapshot, and
    /// replays the WAL tail in order. Returns the number of WAL
    /// records replayed. Call from a node's `on_restart` hook.
    pub fn crash_recover(&mut self) -> u64 {
        let TimeSeriesStore {
            wal,
            snapshot,
            series,
            ..
        } = self;
        for s in series.iter_mut() {
            s.head.clear();
        }
        for (id, count, range) in &snapshot.blocks {
            let block = &snapshot.bytes[range.clone()];
            series[id.index()]
                .head
                .extend(BlockIter::new(block, *count));
        }
        let mut replayed = 0u64;
        for rec in wal.records_after(snapshot.upto_seq) {
            replayed += 1;
            match rec.op {
                WalOp::Insert { series: id, t, v } => series[id.index()].put(t, v),
                WalOp::Retention { horizon } => {
                    for s in series.iter_mut() {
                        s.expire_head(horizon);
                    }
                }
            }
        }
        self.wal_replayed += replayed;
        if let Some(metrics) = &self.metrics {
            metrics.wal_replayed.add(replayed);
        }
        self.update_gauges();
        replayed
    }

    /// The engine's current physical state.
    pub fn stats(&self) -> TskvStats {
        let mut st = TskvStats {
            wal_records: self.wal.len(),
            seals: self.seals,
            compactions: self.compactions,
            wal_replayed: self.wal_replayed,
            ..TskvStats::default()
        };
        for s in &self.series {
            st.head_points += s.head.len();
            st.segments += s.segments.len();
            for seg in &s.segments {
                st.sealed_points += u64::from(seg.count);
                st.bytes_compressed += seg.bytes.len() as u64;
            }
        }
        st.bytes_raw = 16 * st.sealed_points;
        st
    }

    fn note_seals(&mut self, sealed: usize) {
        if sealed > 0 {
            self.seals += sealed as u64;
            if let Some(metrics) = &self.metrics {
                metrics.seals.add(sealed as u64);
            }
        }
    }

    /// Encodes every head into the snapshot's own buffers, in place.
    fn write_snapshot(&mut self) {
        let snapshot = &mut self.snapshot;
        snapshot.upto_seq = self.wal.last_seq();
        snapshot.bytes.clear();
        snapshot.blocks.clear();
        for (id, s) in (0..).map(SeriesId).zip(&self.series) {
            if s.head.is_empty() {
                continue;
            }
            let start = snapshot.bytes.len();
            encode_into(&s.head, &mut snapshot.bytes);
            let block = (id, s.head.len() as u32, start..snapshot.bytes.len());
            snapshot.blocks.push(block);
        }
    }

    fn update_gauges(&self) {
        let Some(metrics) = &self.metrics else {
            return;
        };
        let st = self.stats();
        metrics.segments.set(st.segments as f64);
        metrics.bytes_raw.set(st.bytes_raw as f64);
        metrics.bytes_compressed.set(st.bytes_compressed as f64);
        metrics.wal_records.set(st.wal_records as f64);
    }
}

/// Seals head partitions of one series per `mode`, each straight from
/// its slice of the head; returns how many segments were created. Every
/// mode takes the complete partitions, so only the hot one may stay.
fn seal_head(s: &mut Series, next_seq: &mut u64, mode: SealMode) -> usize {
    let Some(&(newest, _)) = s.head.last() else {
        return 0;
    };
    let hot = newest.div_euclid(PARTITION_MILLIS);
    let mut sealed = 0;
    let mut start = 0;
    while let Some(&(t, _)) = s.head.get(start) {
        let pid = t.div_euclid(PARTITION_MILLIS);
        let rest = &s.head[start..];
        let len = rest.partition_point(|&(t, _)| t.div_euclid(PARTITION_MILLIS) == pid);
        let take = match mode {
            SealMode::Cold => pid < hot,
            SealMode::All => true,
            SealMode::Auto { threshold } => pid < hot || len >= threshold,
        };
        if !take {
            break;
        }
        *next_seq += 1;
        let seg = Segment::seal(&rest[..len], *next_seq);
        // The newest seal sorts last among segments with its `min_t`.
        let at = s.segments.partition_point(|o| o.min_t <= seg.min_t);
        s.segments.insert(at, seg);
        sealed += 1;
        start += len;
    }
    s.head.drain(..start);
    sealed
}

/// Compacts one series: every partition holding several segments (or a
/// lone segment that never got its rollups) is merged into a single
/// compacted owner with materialized levels. The merged owner replaces
/// its group in place, and a partition that needs nothing is not
/// touched, so a pass costs what changed, not the series' history.
/// Returns the number of partitions compacted.
fn compact_series(s: &mut Series) -> usize {
    let mut compacted = 0;
    let mut i = 0;
    while i < s.segments.len() {
        let pid = s.segments[i].min_t.div_euclid(PARTITION_MILLIS);
        let mut j = i + 1;
        // Segments never cross partitions and are sorted by partition, so
        // a partition's segments are contiguous.
        while j < s.segments.len() && s.segments[j].min_t.div_euclid(PARTITION_MILLIS) == pid {
            j += 1;
        }
        let group = &s.segments[i..j];
        let span = pid
            .checked_mul(PARTITION_MILLIS)
            .and_then(|lo| lo.checked_add(PARTITION_MILLIS).map(|hi| (lo, hi)));
        let needs = match span {
            Some(_) => group.len() >= 2 || group[0].span.is_none(),
            // Partition bounds overflow i64 (extreme timestamps): only
            // merge multi-segment groups, without claiming a span.
            None => group.len() >= 2,
        };
        // The group is one segment from here on.
        i += 1;
        if !needs {
            continue;
        }
        let seq = group
            .iter()
            .map(|seg| seg.seq)
            .max()
            .expect("non-empty group");
        let mut points = Vec::with_capacity(group.iter().map(|seg| seg.count as usize).sum());
        MergeScan::new(&[], group, i64::MIN, None).for_each(|t, v| points.push((t, v)));
        match span {
            Some(span) if group.len() == 1 => {
                // Same point set: keep the encoded bytes, add rollups.
                let seg = &mut s.segments[i - 1];
                seg.span = Some(span);
                seg.levels = materialize(&points, &ROLLUP_LEVELS);
            }
            _ => {
                let merged = match span {
                    Some(span) => Segment::seal_compacted(&points, seq, span, &ROLLUP_LEVELS),
                    None => Segment::seal(&points, seq),
                };
                s.segments.splice(i - 1..j, [merged]);
            }
        }
        compacted += 1;
    }
    compacted
}

/// Stretches of `[from, to)` that a compacted segment can answer from
/// its materialized `bucket` level: the segment's span lies inside the
/// query, nothing else (head or other segments) holds points there.
/// Returns disjoint `(start, end, segment index, level index)` tuples
/// sorted by start. Caller guarantees `from` is bucket-aligned.
fn eligible_spans(s: &Series, from: i64, to: i64, bucket: i64) -> Vec<(i64, i64, usize, usize)> {
    let mut spans = Vec::new();
    for (i, seg) in s.segments.iter().enumerate() {
        let Some((ps, pe)) = seg.span else { continue };
        if ps < from || pe > to {
            continue;
        }
        let Some(li) = seg.levels.iter().position(|l| l.bucket_millis == bucket) else {
            continue;
        };
        if head_from(&s.head, ps).first().is_some_and(|&(t, _)| t < pe) {
            continue;
        }
        if s.segments
            .iter()
            .enumerate()
            .any(|(j, o)| j != i && o.overlaps(ps, pe))
        {
            continue;
        }
        spans.push((ps, pe, i, li));
    }
    spans.sort_by_key(|&(ps, ..)| ps);
    spans
}

/// Folds the raw points of `[a, b)` into buckets aligned to the query's
/// `from`, streaming through one [`SummaryBucket`], the accumulator the
/// materialized rollups are folded with (no per-bucket allocation).
#[allow(clippy::too_many_arguments)]
fn fold_buckets(
    s: &Series,
    a: i64,
    b: i64,
    from: i64,
    bucket: i64,
    aggregate: Aggregate,
    out: &mut Vec<Bucket>,
    scanned: &mut u64,
) {
    if a >= b {
        return;
    }
    let mut acc: Option<SummaryBucket> = None;
    for (t, v) in MergeScan::new(&s.head, &s.segments, a, Some(b)) {
        *scanned += 1;
        let start = from + (t - from).div_euclid(bucket) * bucket;
        match &mut acc {
            Some(acc) if acc.start == start => acc.push(v),
            _ => {
                if let Some(acc) = acc.take() {
                    out.push(aggregate.finish(&acc));
                }
                acc = Some(SummaryBucket::first(start, v));
            }
        }
    }
    if let Some(acc) = acc {
        out.push(aggregate.finish(&acc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(points: &[(i64, f64)]) -> TimeSeriesStore {
        let mut s = TimeSeriesStore::new();
        for &(t, v) in points {
            s.insert("s", t, v);
        }
        s
    }

    #[test]
    fn insert_and_range() {
        let s = store_with(&[(10, 1.0), (20, 2.0), (30, 3.0)]);
        assert_eq!(s.range("s", 10, 30), vec![(10, 1.0), (20, 2.0)]);
        assert_eq!(s.range("s", 0, 100).len(), 3);
        assert!(s.range("s", 30, 10).is_empty(), "inverted range is empty");
        assert!(s.range("missing", 0, 100).is_empty());
    }

    #[test]
    fn range_bounds_are_half_open() {
        let s = store_with(&[(10, 1.0), (20, 2.0)]);
        assert_eq!(s.range("s", 10, 20), vec![(10, 1.0)]);
    }

    #[test]
    fn same_timestamp_overwrites() {
        let s = store_with(&[(10, 1.0), (10, 9.0)]);
        assert_eq!(s.series_len("s"), 1);
        assert_eq!(s.latest("s"), Some((10, 9.0)));
    }

    #[test]
    fn latest_is_chronological_max() {
        let s = store_with(&[(30, 3.0), (10, 1.0), (20, 2.0)]);
        assert_eq!(s.latest("s"), Some((30, 3.0)));
        assert_eq!(s.latest("missing"), None);
    }

    #[test]
    fn counts_and_names() {
        let mut s = store_with(&[(1, 1.0)]);
        s.insert("other", 5, 5.0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.series_names().collect::<Vec<_>>(), vec!["other", "s"]);
    }

    #[test]
    fn downsample_mean() {
        // Two 10 ms buckets: [0,10) -> 1,3 mean 2; [10,20) -> 5 mean 5.
        let s = store_with(&[(0, 1.0), (5, 3.0), (12, 5.0)]);
        assert_eq!(
            s.downsample("s", 0, 20, 10, Aggregate::Mean),
            vec![(0, 2.0), (10, 5.0)]
        );
    }

    #[test]
    fn downsample_all_aggregates() {
        let s = store_with(&[(0, 1.0), (1, 4.0), (2, 2.0)]);
        let one = |a| s.downsample("s", 0, 10, 10, a);
        assert_eq!(one(Aggregate::Mean), vec![(0, 7.0 / 3.0)]);
        assert_eq!(one(Aggregate::Min), vec![(0, 1.0)]);
        assert_eq!(one(Aggregate::Max), vec![(0, 4.0)]);
        assert_eq!(one(Aggregate::Sum), vec![(0, 7.0)]);
        assert_eq!(one(Aggregate::Count), vec![(0, 3.0)]);
        assert_eq!(one(Aggregate::Last), vec![(0, 2.0)]);
    }

    #[test]
    fn downsample_skips_empty_buckets() {
        let s = store_with(&[(0, 1.0), (35, 2.0)]);
        assert_eq!(
            s.downsample("s", 0, 40, 10, Aggregate::Mean),
            vec![(0, 1.0), (30, 2.0)]
        );
    }

    #[test]
    fn downsample_buckets_align_to_from() {
        let s = store_with(&[(7, 1.0), (13, 3.0)]);
        // from=5, bucket 10: buckets [5,15) containing both.
        assert_eq!(
            s.downsample("s", 5, 25, 10, Aggregate::Count),
            vec![(5, 2.0)]
        );
    }

    #[test]
    #[should_panic(expected = "bucket size")]
    fn downsample_rejects_zero_bucket() {
        TimeSeriesStore::new().downsample("s", 0, 10, 0, Aggregate::Mean);
    }

    #[test]
    fn downsample_counted_carries_sample_counts() {
        let s = store_with(&[(0, 1.0), (5, 3.0), (12, 5.0)]);
        assert_eq!(
            s.downsample_counted("s", 0, 20, 10, Aggregate::Mean),
            vec![
                Bucket {
                    start: 0,
                    value: 2.0,
                    count: 2
                },
                Bucket {
                    start: 10,
                    value: 5.0,
                    count: 1
                },
            ]
        );
        // The plain API is exactly the counted one minus the counts.
        for a in [Aggregate::Mean, Aggregate::Sum, Aggregate::Last] {
            let plain = s.downsample("s", 0, 20, 10, a);
            let counted: Vec<(i64, f64)> = s
                .downsample_counted("s", 0, 20, 10, a)
                .into_iter()
                .map(|b| (b.start, b.value))
                .collect();
            assert_eq!(plain, counted);
        }
    }

    #[test]
    fn counted_buckets_make_mean_of_means_exact() {
        // Buckets with unequal populations: the naive average of bucket
        // means is wrong, the count-weighted one matches the raw mean.
        let s = store_with(&[(0, 1.0), (2, 2.0), (4, 3.0), (12, 10.0)]);
        let buckets = s.downsample_counted("s", 0, 20, 10, Aggregate::Mean);
        let naive = buckets.iter().map(|b| b.value).sum::<f64>() / buckets.len() as f64;
        let weighted_sum: f64 = buckets.iter().map(|b| b.value * b.count as f64).sum();
        let total: u64 = buckets.iter().map(|b| b.count).sum();
        let weighted = weighted_sum / total as f64;
        assert_eq!(weighted, 4.0, "raw mean of 1,2,3,10");
        assert!((naive - 6.0).abs() < 1e-12, "mean of means is biased");
    }

    #[test]
    fn retention_drops_old_points() {
        let mut s = store_with(&[(0, 1.0), (10, 2.0), (20, 3.0)]);
        s.insert("fresh", 100, 1.0);
        let removed = s.apply_retention(10);
        assert_eq!(removed, 1);
        assert_eq!(s.range("s", 0, 100), vec![(10, 2.0), (20, 3.0)]);
        // Retention that empties a series prunes it entirely.
        let removed = s.apply_retention(1_000);
        assert_eq!(removed, 3);
        assert_eq!(s.series_names().count(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn aggregate_names_round_trip() {
        for (name, a) in [
            ("mean", Aggregate::Mean),
            ("min", Aggregate::Min),
            ("max", Aggregate::Max),
            ("sum", Aggregate::Sum),
            ("count", Aggregate::Count),
            ("last", Aggregate::Last),
        ] {
            assert_eq!(Aggregate::parse(name), Some(a));
        }
        assert_eq!(Aggregate::parse("median"), None);
        // Parsing is exact: mixed or upper case is rejected.
        for bad in [
            "Mean", "MEAN", "mEaN", "MIN", "Max", "SUM", "Count", "LAST", "", " mean",
        ] {
            assert_eq!(Aggregate::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn attached_metrics_count_appends_and_scans() {
        let mut s = TimeSeriesStore::new();
        let registry = Registry::new();
        s.attach_metrics(&registry);
        s.insert("s", 1, 1.0);
        s.insert("s", 2, 2.0);
        assert_eq!(s.range("s", 0, 10).len(), 2);
        assert_eq!(registry.counter("tskv.append"), 2);
        assert_eq!(registry.counter("tskv.scan"), 1);
        assert_eq!(registry.histogram("tskv.scan_points").unwrap().count, 1);
        // Metrics plumbing is invisible to equality.
        let mut bare = TimeSeriesStore::new();
        bare.insert("s", 1, 1.0);
        bare.insert("s", 2, 2.0);
        assert_eq!(s, bare);
    }

    #[test]
    fn negative_timestamps_supported() {
        let s = store_with(&[(-20, 1.0), (-10, 2.0), (0, 3.0)]);
        assert_eq!(s.range("s", -20, 0), vec![(-20, 1.0), (-10, 2.0)]);
        assert_eq!(
            s.downsample("s", -20, 0, 10, Aggregate::Count),
            vec![(-20, 1.0), (-10, 1.0)]
        );
    }

    // ---- engine behavior (sealing, compaction, WAL recovery) ----

    fn small_config() -> TskvConfig {
        TskvConfig {
            seal_threshold: 8,
            wal_checkpoint_records: 1_000_000,
        }
    }

    const HOUR: i64 = 3_600_000;

    #[test]
    fn sealing_is_invisible_to_queries() {
        // Seven hours apart: the points span some 87 partitions.
        let points: Vec<(i64, f64)> = (0..300)
            .map(|i| ((i * 7 - 500) * HOUR, (i % 23) as f64))
            .collect();
        let mut sealed = TimeSeriesStore::with_config(small_config());
        let mut flat = TimeSeriesStore::new();
        for &(t, v) in &points {
            sealed.insert("s", t, v);
            flat.insert("s", t, v);
        }
        sealed.seal_all();
        assert_eq!(sealed.stats().head_points, 0);
        assert!(sealed.stats().segments > 0);
        assert_eq!(sealed, flat, "sealed store equals flat store logically");
        let (from, to) = (-500 * HOUR, 2000 * HOUR);
        assert_eq!(sealed.range("s", from, to), flat.range("s", from, to));
        assert_eq!(sealed.latest("s"), flat.latest("s"));
        assert_eq!(sealed.series_len("s"), 300);
    }

    #[test]
    fn maintain_compacts_and_answers_from_rollups() {
        let mut s = TimeSeriesStore::with_config(small_config());
        let mut flat = TimeSeriesStore::new();
        // One point a minute for 100 hours.
        let minute = 60_000;
        for i in 0..6_000 {
            let (t, v) = (i * minute, (i % 17) as f64);
            s.insert("s", t, v);
            flat.insert("s", t, v);
        }
        s.seal_all();
        let report = s.maintain();
        assert!(report.compacted > 0);
        let st = s.stats();
        // One compacted owner per partition: 100 hours over 1-day partitions.
        assert_eq!(st.segments, 5);
        assert!(st.compactions > 0);
        // Aligned queries hit materialized levels and match the flat fold.
        let [five, hour] = ROLLUP_LEVELS;
        for (from, to, bucket) in [
            (0, 100 * hour, five),
            (0, 100 * hour, hour),
            (PARTITION_MILLIS, 3 * PARTITION_MILLIS, five),
            (7 * minute, 77 * hour, five),
        ] {
            for agg in [
                Aggregate::Mean,
                Aggregate::Min,
                Aggregate::Max,
                Aggregate::Sum,
                Aggregate::Count,
                Aggregate::Last,
            ] {
                assert_eq!(
                    s.downsample_counted("s", from, to, bucket, agg),
                    flat.downsample_counted("s", from, to, bucket, agg),
                    "downsample({from},{to},{bucket},{agg:?})"
                );
            }
        }
    }

    #[test]
    fn overwrites_across_seal_boundaries_resolve_fresh() {
        let mut s = TimeSeriesStore::with_config(small_config());
        for i in 0..20 {
            s.insert("s", i * 10, 1.0);
        }
        s.seal_all();
        // Overwrite a sealed timestamp from the head...
        s.insert("s", 50, 2.0);
        assert_eq!(s.range("s", 50, 51), vec![(50, 2.0)]);
        // ...then seal the overwrite too: the newer segment wins.
        s.seal_all();
        assert_eq!(s.range("s", 50, 51), vec![(50, 2.0)]);
        s.maintain();
        assert_eq!(s.range("s", 50, 51), vec![(50, 2.0)]);
        assert_eq!(s.series_len("s"), 20);
    }

    #[test]
    fn crash_recovery_replays_wal_tail() {
        let mut s = TimeSeriesStore::with_config(small_config());
        for i in 0..50 {
            s.insert("s", i, i as f64);
        }
        s.checkpoint();
        for i in 50..80 {
            s.insert("s", i, i as f64);
        }
        let before = s.clone();
        let replayed = s.crash_recover();
        assert_eq!(replayed, 30, "only the WAL tail replays");
        assert_eq!(s, before);
        assert_eq!(s.stats().wal_replayed, 30);
    }

    #[test]
    fn torn_checkpoint_recovers_identically() {
        let mut s = TimeSeriesStore::with_config(small_config());
        for i in 0..200 {
            s.insert("s", i * 5, (i % 11) as f64);
        }
        s.seal_all();
        // No checkpoint yet: recovery replays the whole WAL, and the
        // replayed head shadows the sealed segments with equal values.
        let before = s.clone();
        assert_eq!(s.crash_recover(), 200, "full WAL replays");
        assert_eq!(s, before);
        // Torn: snapshot written but the crash lands before truncation.
        s.debug_snapshot_without_truncate();
        for i in 200..220 {
            s.insert("s", i * 5, (i % 11) as f64);
        }
        let before = s.clone();
        let replayed = s.crash_recover();
        assert_eq!(replayed, 20, "only the tail past the snapshot replays");
        assert_eq!(s, before);
        // And a second crash right after is a no-op too.
        let replayed = s.crash_recover();
        assert_eq!(replayed, 20);
        assert_eq!(s, before);
    }

    #[test]
    fn recovery_replays_drops_and_retention_in_order() {
        let mut s = TimeSeriesStore::with_config(small_config());
        s.insert("a", 1, 1.0);
        s.insert("a", 2, 2.0);
        s.insert("b", 1, 1.0);
        assert_eq!(s.apply_retention(3), 3, "drops all of a and b");
        s.insert("a", 3, 3.0);
        s.insert("b", 1, 1.0);
        assert_eq!(s.apply_retention(1), 0, "nothing strictly older than 1");
        s.insert("b", -5, 5.0);
        s.apply_retention(0);
        let before = s.clone();
        s.crash_recover();
        assert_eq!(s, before);
        assert_eq!(s.range("a", 0, 10), vec![(3, 3.0)]);
        assert_eq!(s.range("b", -10, 10), vec![(1, 1.0)]);
    }

    #[test]
    fn retention_rewrites_partial_segments() {
        let mut s = TimeSeriesStore::with_config(small_config());
        let mut flat = TimeSeriesStore::new();
        for i in 0..100 {
            s.insert("s", i * 4, i as f64);
            flat.insert("s", i * 4, i as f64);
        }
        s.seal_all();
        s.maintain();
        let removed = s.apply_retention(130);
        assert_eq!(removed, flat.apply_retention(130));
        assert_eq!(s, flat);
        // The rewritten partition recompacts on the next pass.
        let report = s.maintain();
        assert!(report.compacted > 0);
        assert_eq!(s, flat);
    }

    #[test]
    fn auto_seal_and_auto_checkpoint_bound_memory() {
        let config = TskvConfig {
            seal_threshold: 16,
            wal_checkpoint_records: 64,
        };
        let mut s = TimeSeriesStore::with_config(config);
        for i in 0..1000 {
            s.insert("s", i * 3, 1.5);
        }
        let st = s.stats();
        assert!(
            st.head_points < 32,
            "head stays bounded: {}",
            st.head_points
        );
        assert!(
            st.wal_records < 128,
            "wal stays bounded: {}",
            st.wal_records
        );
        assert!(st.segments > 0);
        assert_eq!(s.series_len("s"), 1000);
        // And the whole thing still crash-recovers to the same state.
        let before = s.clone();
        s.crash_recover();
        assert_eq!(s, before);
    }

    #[test]
    fn decimal_telemetry_compresses_past_8x() {
        // Centi-quantized temperatures, the shape device adapters emit.
        let mut s = TimeSeriesStore::new();
        for i in 0..10_000i64 {
            let centi = 2000 + (i % 211) - 100;
            s.insert("t", i * 5_000, centi as f64 / 100.0);
        }
        s.seal_all();
        let st = s.stats();
        assert_eq!(st.sealed_points, 10_000);
        let ratio = st.bytes_raw as f64 / st.bytes_compressed as f64;
        assert!(ratio >= 8.0, "compression ratio only {ratio:.2}x");
    }

    #[test]
    fn nan_payloads_survive_seal_and_recovery() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut s = TimeSeriesStore::with_config(small_config());
        s.insert("s", -10, nan);
        s.insert("s", 0, -0.0);
        s.insert("s", 10, 3.25);
        s.seal_all();
        s.maintain();
        let got = s.range("s", -100, 100);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].1.to_bits(), nan.to_bits());
        assert_eq!(got[1].1.to_bits(), (-0.0f64).to_bits());
        assert_eq!(got[2].1, 3.25);
        assert_eq!(s.crash_recover(), 3);
        let again = s.range("s", -100, 100);
        assert_eq!(again[0].1.to_bits(), nan.to_bits());
        assert_eq!(again[1].1.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn for_each_in_matches_range() {
        let mut s = TimeSeriesStore::with_config(small_config());
        for i in 0..200 {
            s.insert("s", i * 9, (i * i % 101) as f64);
        }
        s.seal_all();
        let mut streamed = Vec::new();
        s.for_each_in("s", 100, 1500, |t, v| streamed.push((t, v)));
        assert_eq!(streamed, s.range("s", 100, 1500));
    }

    /// `(min_t, block address, first level's bucket address)` of every
    /// compacted segment of `name`.
    fn compacted_addresses(s: &TimeSeriesStore, name: &str) -> Vec<(i64, usize, usize)> {
        s.get(name)
            .expect("series")
            .segments
            .iter()
            .filter(|seg| seg.span.is_some())
            .map(|seg| {
                let buckets = seg.levels[0].buckets.as_ptr() as usize;
                (seg.min_t, seg.bytes.as_ptr() as usize, buckets)
            })
            .collect()
    }

    #[test]
    fn maintain_leaves_compacted_partitions_where_they_are() {
        let minute = 60_000;
        let mut s = TimeSeriesStore::new();
        for i in 0..3 * 1_440 {
            s.insert("s", i * minute, (i % 17) as f64);
        }
        s.maintain();
        let before = compacted_addresses(&s, "s");
        assert_eq!(before.len(), 3);
        // Day 3's inserts seal day 2's tail, so day 2 is merged again.
        for i in 3 * 1_440..4 * 1_440 {
            s.insert("s", i * minute, (i % 17) as f64);
        }
        assert_eq!(s.maintain().compacted, 2, "days 2 and 3");
        let after = compacted_addresses(&s, "s");
        assert_eq!(after.len(), 4);
        assert_eq!(after[..2], before[..2], "days 0 and 1 were not rewritten");
        assert_ne!(after[2], before[2], "day 2 was");
    }

    #[test]
    fn materialized_levels_hold_no_spare_capacity() {
        let minute = 60_000;
        let mut s = TimeSeriesStore::with_config(TskvConfig {
            seal_threshold: usize::MAX,
            wal_checkpoint_records: usize::MAX,
        });
        // Day 0 seals whole, so its rollups are added in place; days 1
        // and 2 seal in two halves, which are merged.
        for i in 0..1_440 {
            s.insert("one", i * minute, (i % 17) as f64);
        }
        s.seal_all();
        for half in [0, 1] {
            for i in (1_440 + half..3 * 1_440).step_by(2) {
                s.insert("one", i * minute, (i % 13) as f64);
            }
            s.seal_all();
        }
        assert_eq!(s.stats().segments, 5);
        assert_eq!(s.maintain().compacted, 3);
        let segments = &s.get("one").expect("series").segments;
        assert_eq!(segments.len(), 3);
        for seg in segments {
            assert_eq!(seg.levels.len(), ROLLUP_LEVELS.len());
            for level in &seg.levels {
                assert!(!level.buckets.is_empty());
                assert_eq!(level.buckets.len(), level.buckets.capacity());
            }
        }
    }

    #[test]
    fn seals_insert_segments_in_min_t_seq_order() {
        let mut s = TimeSeriesStore::with_config(small_config());
        let mut flat = TimeSeriesStore::new();
        // 40 seals over 23 days in scrambled order; later seals of a
        // day share or precede earlier ones' first timestamps.
        for k in 0..40 {
            let day = (k * 17) % 23;
            for i in 0..3 {
                let t = day * PARTITION_MILLIS + (k % 3) * 1_000 + i * 7;
                s.insert("s", t, (k * 3 + i) as f64);
                flat.insert("s", t, (k * 3 + i) as f64);
            }
            s.seal_all();
        }
        let segments = &s.get("s").expect("series").segments;
        assert_eq!(segments.len(), 40);
        assert!(segments
            .windows(2)
            .all(|w| (w[0].min_t, w[0].seq) < (w[1].min_t, w[1].seq)));
        assert_eq!(s, flat);
        s.maintain();
        assert_eq!(s.stats().segments, 23);
        assert_eq!(s, flat);
    }

    #[test]
    fn latest_prefers_newest_seal_on_tie() {
        let mut s = TimeSeriesStore::with_config(small_config());
        s.insert("s", 10, 1.0);
        s.seal_all();
        s.insert("s", 10, 2.0);
        s.seal_all();
        assert_eq!(s.latest("s"), Some((10, 2.0)));
        s.maintain();
        assert_eq!(s.latest("s"), Some((10, 2.0)));
    }
}
