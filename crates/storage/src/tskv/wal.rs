//! Write-ahead log and head snapshot.
//!
//! Durability in the simulated district is modeled, not physical: a
//! node crash (`simnet` `crash`/`restart`) wipes whatever the store
//! treats as volatile — the mutable head — while the WAL, snapshot, and
//! sealed segments survive, exactly as an fsync'd log and on-disk
//! segment files would. Every mutation appends a WAL record *before*
//! touching the head, so a point is "acknowledged" only once it is
//! replayable.
//!
//! A **checkpoint** encodes the current heads into a compressed
//! [`Snapshot`] and truncates the WAL through the snapshot's sequence.
//! Recovery restores the snapshot and replays the WAL tail in order;
//! because inserts are last-writer-wins overwrites, replay is
//! idempotent and a *torn* checkpoint (snapshot written, crash before
//! the truncate) recovers byte-identically.

use super::SeriesId;

/// The series id a retention record carries: no series is issued it
/// (see [`TimeSeriesStore::series_id`](super::TimeSeriesStore::series_id)).
pub(crate) const RETENTION_SERIES: u32 = u32::MAX;

/// One logged mutation. Series are named by the store's [`SeriesId`],
/// which keeps the log compact; the store's name table survives
/// truncation and crashes with the log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WalOp {
    /// `insert(series, t, v)` — last-writer-wins on `t`.
    Insert { series: SeriesId, t: i64, v: f64 },
    /// `apply_retention(horizon)` — drop `t < horizon` everywhere.
    Retention { horizon: i64 },
}

/// A [`WalOp`] as the log stores it, in 20 bytes: the series id, the
/// timestamp and the value's bits. A retention is stored under
/// [`RETENTION_SERIES`] with its horizon as the timestamp. The two
/// 8-byte fields are byte arrays so the record aligns to 4, not 8.
#[derive(Debug, Clone, Copy)]
struct Record {
    series: u32,
    t: [u8; 8],
    bits: [u8; 8],
}

impl Record {
    fn new(op: WalOp) -> Record {
        let (series, t, v) = match op {
            WalOp::Insert { series, t, v } => (series.0, t, v),
            WalOp::Retention { horizon } => (RETENTION_SERIES, horizon, 0.0),
        };
        Record {
            series,
            t: t.to_ne_bytes(),
            bits: v.to_bits().to_ne_bytes(),
        }
    }

    fn op(&self) -> WalOp {
        let t = i64::from_ne_bytes(self.t);
        match self.series {
            RETENTION_SERIES => WalOp::Retention { horizon: t },
            series => WalOp::Insert {
                series: SeriesId(series),
                t,
                v: f64::from_bits(u64::from_ne_bytes(self.bits)),
            },
        }
    }
}

/// The in-simulation write-ahead log. Sequences are implicit: the
/// record at index `i` has sequence `base + 1 + i`, where `base` counts
/// the records truncated so far.
#[derive(Debug, Clone, Default)]
pub(crate) struct Wal {
    records: Vec<Record>,
    base: u64,
}

impl Wal {
    /// Logs one mutation; returns its sequence.
    pub(crate) fn append(&mut self, op: WalOp) -> u64 {
        self.records.push(Record::new(op));
        self.last_seq()
    }

    /// Sequence of the most recent record (0 before any append).
    pub(crate) fn last_seq(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// Index of the first record with sequence above `seq`.
    fn index_after(&self, seq: u64) -> usize {
        let held = seq.saturating_sub(self.base).min(self.records.len() as u64);
        usize::try_from(held).expect("at most `len` records")
    }

    /// The mutations with sequence above `after`, oldest first.
    pub(crate) fn records_after(&self, after: u64) -> impl Iterator<Item = WalOp> + '_ {
        self.records[self.index_after(after)..]
            .iter()
            .map(Record::op)
    }

    /// Number of live (untruncated) records.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Drops every record with sequence at most `through` (checkpoint
    /// truncate).
    pub(crate) fn truncate_through(&mut self, through: u64) {
        let start = self.index_after(through);
        self.records.drain(..start);
        self.base += start as u64;
    }
}

/// A compressed image of every mutable head, taken at `upto_seq`: the
/// heads' blocks back to back in one buffer, listed as `(series,
/// point-count, byte range)`. A checkpoint rewrites both in place, so
/// once they have grown to the heads' size it allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct Snapshot {
    pub(crate) upto_seq: u64,
    pub(crate) bytes: Vec<u8>,
    pub(crate) blocks: Vec<(SeriesId, u32, std::ops::Range<usize>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert(series: u32, t: i64, v: f64) -> WalOp {
        WalOp::Insert {
            series: SeriesId(series),
            t,
            v,
        }
    }

    #[test]
    fn a_record_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 20);
    }

    #[test]
    fn records_decode_to_the_ops_logged() {
        let ops = [
            insert(0, i64::MIN, -0.0),
            WalOp::Retention { horizon: i64::MAX },
            insert(
                RETENTION_SERIES - 1,
                -1,
                f64::from_bits(0x7ff8_0000_dead_beef),
            ),
            WalOp::Retention { horizon: -7 },
            insert(3, 0, f64::NEG_INFINITY),
        ];
        let mut wal = Wal::default();
        for op in ops {
            wal.append(op);
        }
        let back: Vec<WalOp> = wal.records_after(0).collect();
        // Bit for bit, so a NaN's payload and a zero's sign count.
        let bits = |op: &WalOp| match *op {
            WalOp::Insert { series, t, v } => (series.0, t, v.to_bits()),
            WalOp::Retention { horizon } => (RETENTION_SERIES, horizon, 0),
        };
        assert_eq!(
            back.iter().map(bits).collect::<Vec<_>>(),
            ops.iter().map(bits).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sequences_and_truncate() {
        let mut wal = Wal::default();
        assert_eq!(wal.last_seq(), 0);
        let s1 = wal.append(insert(0, 1, 1.0));
        let s2 = wal.append(insert(1, 2, 2.0));
        let s3 = wal.append(insert(0, 3, 3.0));
        assert_eq!((s1, s2, s3), (1, 2, 3));

        wal.truncate_through(2);
        assert_eq!(wal.len(), 1);
        assert_eq!(wal.records_after(0).next(), Some(insert(0, 3, 3.0)));
        assert_eq!(wal.records_after(2).count(), 1);
        assert_eq!(wal.records_after(3).count(), 0);
        // Sequencing survives truncation.
        assert_eq!(wal.append(WalOp::Retention { horizon: 10 }), 4);
        assert_eq!(wal.records_after(3).count(), 1);
        // Truncating through an old sequence drops nothing; past the
        // newest, everything, and the next append continues the count.
        wal.truncate_through(1);
        assert_eq!(wal.len(), 2);
        wal.truncate_through(9);
        assert_eq!((wal.len(), wal.last_seq()), (0, 4));
        assert_eq!(wal.append(insert(2, 5, 5.0)), 5);
        assert_eq!(wal.records_after(4).count(), 1);
    }
}
