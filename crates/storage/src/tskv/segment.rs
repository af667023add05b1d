//! Immutable sealed segments.
//!
//! A segment is a compressed, read-only run of one series' points, all
//! inside a single time partition (an L0 segment covers part of it, a
//! compacted segment owns the whole partition). Segments carry a
//! monotonically increasing **seal sequence**: when two segments of the
//! same series both contain a timestamp, the higher sequence was sealed
//! later and its value wins (the mutable head, fresher still, beats
//! both).
//!
//! Compacted segments additionally record their partition `span` and
//! materialized rollup levels — per-bucket `(count, sum, min, max,
//! last)` summaries that can answer `downsample_counted` for any
//! [`Aggregate`](crate::tskv::Aggregate) without touching the
//! compressed points.
//!
//! Every segment keeps its block's restart table, so a read that starts
//! mid-day decodes from the last restart point before its `from`, not
//! from the partition's first point. Like the rollup levels, the table
//! sits beside the block and is not counted in `bytes_compressed`.

use crate::tskv::gorilla::{encode_indexed, BlockIter, Restart};

/// One materialized rollup bucket: everything needed to serve any of
/// the six aggregates for the bucket starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SummaryBucket {
    pub start: i64,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub(crate) last: f64,
}

impl SummaryBucket {
    /// A bucket holding its first point.
    #[inline]
    pub(crate) fn first(start: i64, v: f64) -> Self {
        SummaryBucket {
            start,
            count: 1,
            sum: v,
            min: f64::INFINITY.min(v),
            max: f64::NEG_INFINITY.max(v),
            last: v,
        }
    }

    /// Folds in the bucket's next point, in time order. The raw query
    /// fold and the materialized rollups both accumulate here, so a
    /// rollup is bit-identical to the raw fold over the same points.
    /// Inlined in debug builds too: which NaN payload `sum += v` keeps
    /// depends on the code around it, and the tests compare the store's
    /// sums bit for bit with folds written inline.
    #[inline(always)]
    pub(crate) fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }
}

/// All buckets of one rollup granularity inside a segment's span.
/// Buckets are aligned to `t.div_euclid(bucket_millis) * bucket_millis`
/// and empty buckets are omitted, matching the query-path convention
/// when the query's `from` is itself bucket-aligned.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MaterializedLevel {
    pub(crate) bucket_millis: i64,
    pub(crate) buckets: Vec<SummaryBucket>,
}

/// A sealed, compressed, immutable run of points.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// Global seal sequence; higher wins on duplicate timestamps.
    pub(crate) seq: u64,
    /// First timestamp in the segment.
    pub(crate) min_t: i64,
    /// Last timestamp in the segment.
    pub(crate) max_t: i64,
    /// The value at `max_t`, so `latest()` never decodes.
    pub(crate) last_v: f64,
    /// Number of encoded points.
    pub count: u32,
    /// The Gorilla-encoded block.
    pub(crate) bytes: Box<[u8]>,
    /// The block's restart points (see [`BlockIter::seek`]).
    restarts: Box<[Restart]>,
    /// `Some((start, end))` when this segment is the compacted owner of
    /// the whole partition `[start, end)`.
    pub span: Option<(i64, i64)>,
    /// Materialized rollups (compacted segments only).
    pub(crate) levels: Vec<MaterializedLevel>,
}

impl Segment {
    /// Seals `points` (sorted, strictly increasing timestamps,
    /// non-empty) into an L0 segment.
    pub(crate) fn seal(points: &[(i64, f64)], seq: u64) -> Segment {
        debug_assert!(!points.is_empty());
        let (bytes, restarts) = encode_indexed(points);
        Segment {
            seq,
            min_t: points[0].0,
            max_t: points[points.len() - 1].0,
            last_v: points[points.len() - 1].1,
            count: points.len() as u32,
            bytes,
            restarts,
            span: None,
            levels: Vec::new(),
        }
    }

    /// Seals `points` as the compacted owner of `[span.0, span.1)`,
    /// materializing one rollup level per entry in `level_millis`.
    pub(crate) fn seal_compacted(
        points: &[(i64, f64)],
        seq: u64,
        span: (i64, i64),
        level_millis: &[i64],
    ) -> Segment {
        let mut seg = Segment::seal(points, seq);
        seg.span = Some(span);
        seg.levels = materialize(points, level_millis);
        seg
    }

    /// A lazy decoder that starts at the last restart point before
    /// `from`: it skips only points older than `from`, and yields fewer
    /// than [`RESTART_INTERVAL`](crate::tskv::gorilla::RESTART_INTERVAL)
    /// of them before reaching it.
    pub(crate) fn iter_from(&self, from: i64) -> BlockIter<'_> {
        BlockIter::seek(&self.bytes, self.count, &self.restarts, from)
    }

    /// True when the segment may hold points in `[from, to)`.
    pub(crate) fn overlaps(&self, from: i64, to: i64) -> bool {
        self.min_t < to && self.max_t >= from
    }
}

/// Builds rollup levels over `points` (sorted by timestamp) with a
/// single streaming pass per level and one `div_euclid` per bucket. The
/// fold order (chronological) and the min/max/sum arithmetic mirror the
/// raw query fold exactly, so a materialized answer is bit-identical to
/// a raw scan. Each level's buckets are counted first, so a level holds
/// no spare capacity for as long as its segment lives.
pub(crate) fn materialize(points: &[(i64, f64)], level_millis: &[i64]) -> Vec<MaterializedLevel> {
    level_millis
        .iter()
        .map(|&bucket| {
            let mut n = 0;
            fold_level(points, bucket, |_| n += 1);
            let mut buckets = Vec::with_capacity(n);
            fold_level(points, bucket, |b| buckets.push(b));
            MaterializedLevel {
                bucket_millis: bucket,
                buckets,
            }
        })
        .collect()
}

/// Folds sorted `points` into `bucket`-aligned summaries, handing each
/// to `emit` in order.
fn fold_level(points: &[(i64, f64)], bucket: i64, mut emit: impl FnMut(SummaryBucket)) {
    let mut acc: Option<SummaryBucket> = None;
    // The open bucket holds `t < end`; `None` past `i64::MAX`.
    let mut end = None;
    for &(t, v) in points {
        match &mut acc {
            Some(b) if end.is_none_or(|end| t < end) => b.push(v),
            _ => {
                if let Some(b) = acc.take() {
                    emit(b);
                }
                let start = t.div_euclid(bucket) * bucket;
                end = start.checked_add(bucket);
                acc = Some(SummaryBucket::first(start, v));
            }
        }
    }
    if let Some(b) = acc {
        emit(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_round_trips_and_tracks_bounds() {
        let pts = vec![(-50, 1.5), (0, 2.5), (75, -3.5)];
        let seg = Segment::seal(&pts, 7);
        assert_eq!((seg.seq, seg.min_t, seg.max_t, seg.count), (7, -50, 75, 3));
        assert_eq!(seg.last_v, -3.5);
        assert_eq!(seg.iter_from(i64::MIN).collect::<Vec<_>>(), pts);
        assert!(seg.overlaps(-50, -49));
        assert!(seg.overlaps(75, 76));
        assert!(!seg.overlaps(76, 100));
        assert!(!seg.overlaps(-100, -50));
    }

    #[test]
    fn materialized_levels_summarize_buckets() {
        let pts = vec![(0, 1.0), (5, 3.0), (12, 5.0), (-3, 2.0)];
        let mut sorted = pts.clone();
        sorted.sort_by_key(|p| p.0);
        let levels = materialize(&sorted, &[10]);
        assert_eq!(levels.len(), 1);
        let b = &levels[0].buckets;
        assert_eq!(b.len(), 3);
        assert_eq!((b[0].start, b[0].count, b[0].last), (-10, 1, 2.0));
        assert_eq!((b[1].start, b[1].count, b[1].sum), (0, 2, 4.0));
        assert_eq!((b[1].min, b[1].max), (1.0, 3.0));
        assert_eq!((b[2].start, b[2].count, b[2].last), (10, 1, 5.0));
    }
}
