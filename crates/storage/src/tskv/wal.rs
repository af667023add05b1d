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
//! A **checkpoint** encodes the current head into a compressed
//! [`Snapshot`] and truncates the WAL through the snapshot's sequence.
//! Recovery restores the snapshot and replays the WAL tail in order;
//! because inserts are last-writer-wins overwrites, replay is
//! idempotent and a *torn* checkpoint (snapshot written, crash before
//! the truncate) recovers byte-identically.

use super::SeriesId;

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

/// A sequenced WAL record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WalRecord {
    pub(crate) seq: u64,
    pub(crate) op: WalOp,
}

/// The in-simulation write-ahead log.
#[derive(Debug, Clone, Default)]
pub(crate) struct Wal {
    records: Vec<WalRecord>,
    next_seq: u64,
}

impl Wal {
    /// Logs one mutation; returns its sequence.
    pub(crate) fn append(&mut self, op: WalOp) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.records.push(WalRecord { seq, op });
        seq
    }

    /// Sequence of the most recent record (0 before any append).
    pub(crate) fn last_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records with `seq > after`, oldest first.
    pub(crate) fn records_after(&self, after: u64) -> &[WalRecord] {
        let start = self.records.partition_point(|r| r.seq <= after);
        &self.records[start..]
    }

    /// Number of live (untruncated) records.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Drops every record with `seq <= through` (checkpoint truncate).
    pub(crate) fn truncate_through(&mut self, through: u64) {
        let start = self.records.partition_point(|r| r.seq <= through);
        self.records.drain(..start);
    }
}

/// A compressed image of the mutable head, taken at `upto_seq`. Blocks
/// are `(series, point-count, encoded bytes)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Snapshot {
    pub(crate) upto_seq: u64,
    pub(crate) blocks: Vec<(SeriesId, u32, Box<[u8]>)>,
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
    fn sequences_and_truncate() {
        let mut wal = Wal::default();
        assert_eq!(wal.last_seq(), 0);
        let s1 = wal.append(insert(0, 1, 1.0));
        let s2 = wal.append(insert(1, 2, 2.0));
        let s3 = wal.append(insert(0, 3, 3.0));
        assert_eq!((s1, s2, s3), (1, 2, 3));

        wal.truncate_through(2);
        assert_eq!(wal.len(), 1);
        assert_eq!(wal.records_after(0)[0].seq, 3);
        // Sequencing survives truncation.
        assert_eq!(wal.append(WalOp::Retention { horizon: 10 }), 4);
        assert_eq!(wal.records_after(3).len(), 1);
    }
}
