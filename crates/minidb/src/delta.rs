//! Bounded per-table DML delta logs.
//!
//! Every committed INSERT or DELETE is appended to its table's
//! [`DeltaLog`] as a tombstone record stamped with the write-version the
//! statement produced (see [`crate::catalog::Table::version`]). The log
//! covers a *monotone version range* `(floor, head]`: a middleware copy
//! of a fragment taken at version `v ≥ floor` can be brought forward to
//! the current state by replaying exactly the records with
//! `version > v` — the foundation of the middleware cache's
//! refresh-by-delta maintenance path.
//!
//! Two events shrink the covered range:
//!
//! * **compaction** — the log is byte-capped; when appending pushes it
//!   past the cap, whole version groups are dropped from the front and
//!   `floor` rises, so copies older than the new floor degrade to the
//!   pre-delta behavior (full refetch or drop);
//! * **poisoning** — in-place `UPDATE` mutates heap rows without a
//!   delete/insert pair, which tombstone replay cannot reproduce, so an
//!   update clears the log and raises `floor` to the update's version.
//!   An INSERT whose rows alone exceed the cap (a bulk load) poisons the
//!   log too: compaction would drop all of it anyway.

use std::collections::VecDeque;
use tango_algebra::Tuple;

/// Default per-table byte cap for a [`DeltaLog`]. Large enough to hold
/// write bursts against the paper-scale UIS tables, small enough that an
/// idle log never rivals the relation cache's budget.
pub const DEFAULT_DELTA_LOG_CAP: usize = 1 << 20;

/// Fixed per-record bookkeeping charged against the byte cap and the
/// wire when deltas are fetched: version stamp + operation tag.
pub const DELTA_RECORD_OVERHEAD: usize = 16;

/// The logged DML effect: a row appended to, or removed from, the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// The row was appended by an INSERT (or bulk load into an existing
    /// table).
    Insert,
    /// The row was removed by a DELETE.
    Delete,
}

/// One tombstone record: the full row an INSERT added or a DELETE
/// removed, stamped with the statement's write-version.
#[derive(Debug, Clone)]
pub struct DeltaRecord {
    /// The write-version the producing statement stamped on the table.
    pub version: u64,
    /// Insert or delete.
    pub op: DeltaOp,
    /// The affected row, in the table's schema.
    pub row: Tuple,
}

impl DeltaRecord {
    /// Bytes this record occupies in the log (and on the wire).
    pub fn byte_size(&self) -> usize {
        self.row.byte_size() + DELTA_RECORD_OVERHEAD
    }
}

/// A bounded, version-ordered log of insert/delete tombstones for one
/// table. See the module docs for the covered-range invariant.
#[derive(Debug)]
pub struct DeltaLog {
    /// Records in nondecreasing version order (front is oldest).
    records: VecDeque<DeltaRecord>,
    /// The log replays any suffix starting strictly after `floor`; a
    /// snapshot at version `< floor` can no longer be brought forward.
    floor: u64,
    /// Current size of `records` in bytes (per [`DeltaRecord::byte_size`]).
    bytes: usize,
    /// Byte cap; exceeded ⇒ compaction from the front.
    cap: usize,
}

impl DeltaLog {
    /// An empty log covering `(floor, floor]`.
    pub fn new(floor: u64, cap: usize) -> Self {
        DeltaLog { records: VecDeque::new(), floor, bytes: 0, cap }
    }

    /// Oldest version a snapshot may have and still be refreshable.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Bytes currently held by the log.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Can a snapshot taken at version `since` be brought forward?
    pub fn covers(&self, since: u64) -> bool {
        since >= self.floor
    }

    /// Append tombstones for one statement at write-version `version`.
    /// Versions must be fed in nondecreasing order (they are: records are
    /// appended under the same write lock that allocates versions).
    pub fn record(&mut self, version: u64, op: DeltaOp, rows: impl IntoIterator<Item = Tuple>) {
        for row in rows {
            let rec = DeltaRecord { version, op, row };
            self.bytes += rec.byte_size();
            self.records.push_back(rec);
        }
        self.compact();
    }

    /// Do one statement's `rows` alone exceed the cap? Then `record`
    /// would log them only for `compact` to drop every record, old and
    /// new — the state `poison` at the statement's version leaves
    /// directly, without cloning the rows into the log.
    pub(crate) fn overflows(&self, rows: &[Tuple]) -> bool {
        let mut bytes = 0;
        rows.iter().any(|r| {
            bytes += r.byte_size() + DELTA_RECORD_OVERHEAD;
            bytes > self.cap
        })
    }

    /// Record an effect tombstones cannot replay (in-place UPDATE, or a
    /// write larger than the cap): drop everything and raise the floor
    /// to `version`.
    pub fn poison(&mut self, version: u64) {
        self.records.clear();
        self.bytes = 0;
        self.floor = version;
    }

    /// Bytes of records a snapshot at `since` must replay, or `None` if
    /// the log no longer covers it.
    pub fn bytes_since(&self, since: u64) -> Option<u64> {
        if !self.covers(since) {
            return None;
        }
        Some(self.records.iter().filter(|r| r.version > since).map(|r| r.byte_size() as u64).sum())
    }

    /// The records a snapshot at `since` must replay (version order), or
    /// `None` if the log no longer covers it.
    pub fn records_since(&self, since: u64) -> Option<Vec<DeltaRecord>> {
        if !self.covers(since) {
            return None;
        }
        Some(self.records.iter().filter(|r| r.version > since).cloned().collect())
    }

    /// Drop whole version groups from the front until under the cap.
    /// Version groups are never split: replaying half a statement's
    /// effect would corrupt the refreshed copy.
    fn compact(&mut self) {
        while self.bytes > self.cap {
            let Some(front) = self.records.front() else { break };
            let v = front.version;
            while self.records.front().is_some_and(|r| r.version == v) {
                // invariant: the loop condition just saw a front record
                let rec = self.records.pop_front().expect("front checked");
                self.bytes -= rec.byte_size();
            }
            self.floor = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tango_algebra::tup;

    #[test]
    fn covers_and_replays_suffixes() {
        let mut log = DeltaLog::new(5, 1 << 20);
        log.record(6, DeltaOp::Insert, vec![tup![1], tup![2]]);
        log.record(7, DeltaOp::Delete, vec![tup![1]]);
        assert!(log.covers(5));
        assert!(!log.covers(4));
        assert_eq!(log.records_since(5).unwrap().len(), 3);
        assert_eq!(log.records_since(6).unwrap().len(), 1);
        assert_eq!(log.records_since(7).unwrap().len(), 0);
        assert!(log.records_since(4).is_none());
        assert!(log.bytes_since(6).unwrap() > 0);
        assert_eq!(log.bytes_since(7).unwrap(), 0);
    }

    #[test]
    fn compaction_raises_floor_by_whole_versions() {
        // cap fits roughly two single-int records
        let rec_bytes = DeltaRecord { version: 0, op: DeltaOp::Insert, row: tup![1] }.byte_size();
        let mut log = DeltaLog::new(0, 2 * rec_bytes);
        log.record(1, DeltaOp::Insert, vec![tup![1], tup![2]]); // fills the cap
        assert_eq!(log.floor(), 0);
        log.record(2, DeltaOp::Insert, vec![tup![3]]);
        // version 1's pair is dropped together; floor rises to 1
        assert_eq!(log.floor(), 1);
        assert!(log.covers(1));
        assert!(!log.covers(0));
        assert_eq!(log.records_since(1).unwrap().len(), 1);
    }

    /// A write that alone exceeds the cap is poisoned instead of logged;
    /// logging it and compacting leaves the very same log.
    #[test]
    fn an_oversize_write_poisons_exactly_as_logging_it_would() {
        let rec_bytes = DeltaRecord { version: 0, op: DeltaOp::Insert, row: tup![1] }.byte_size();
        let (mut logged, mut poisoned) =
            (DeltaLog::new(0, 3 * rec_bytes), DeltaLog::new(0, 3 * rec_bytes));
        for log in [&mut logged, &mut poisoned] {
            log.record(1, DeltaOp::Insert, vec![tup![1]]);
        }
        let big = vec![tup![2], tup![3], tup![4], tup![5]];
        assert!(!logged.overflows(&big[..3]), "a write at the cap is logged");
        assert!(poisoned.overflows(&big));
        logged.record(2, DeltaOp::Insert, big);
        poisoned.poison(2);
        assert_eq!((logged.floor(), logged.bytes()), (poisoned.floor(), poisoned.bytes()));
        for since in 0..4 {
            assert_eq!(logged.covers(since), poisoned.covers(since));
            let recs = |log: &DeltaLog| {
                log.records_since(since)
                    .map(|rs| rs.into_iter().map(|r| (r.version, r.op, r.row)).collect::<Vec<_>>())
            };
            assert_eq!(recs(&logged), recs(&poisoned));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Random sequences of every operation, caps down to 0: nothing
        /// panics, the log stays within its cap, a suffix can be read
        /// exactly when the log covers it, the head is always covered, and
        /// a covered suffix is every record logged after it.
        #[test]
        fn random_operation_sequences_never_panic(
            cap in 0usize..160,
            ops in prop::collection::vec((0usize..5, 0u64..3, 0usize..4, 0u64..8), 0..40),
        ) {
            let mut log = DeltaLog::new(2, cap);
            let (mut clock, mut logged) = (2, Vec::new());
            for (kind, step, n, back) in ops {
                let rows: Vec<Tuple> = (0..n as i64).map(|i| tup![i, "x".repeat(n)]).collect();
                let size: usize = rows.iter().map(|r| r.byte_size() + DELTA_RECORD_OVERHEAD).sum();
                match kind {
                    0 | 1 => {
                        clock += step;
                        let op = [DeltaOp::Insert, DeltaOp::Delete][kind];
                        logged.extend(rows.iter().map(|r| (clock, op, r.clone())));
                        log.record(clock, op, rows);
                    }
                    2 => {
                        clock += step;
                        log.poison(clock);
                    }
                    _ => prop_assert_eq!(log.overflows(&rows), size > cap),
                }
                prop_assert!(log.bytes() <= cap, "{} bytes over a cap of {cap}", log.bytes());
                prop_assert!(log.covers(clock), "the head {clock} is not covered");
                // from past the head down to below the floor
                let since = (clock + 1).saturating_sub(back);
                let records = log.records_since(since);
                prop_assert_eq!(records.is_some(), log.covers(since), "since {since}");
                prop_assert_eq!(log.bytes_since(since).is_some(), log.covers(since));
                if let Some(records) = records {
                    let bytes: usize = records.iter().map(DeltaRecord::byte_size).sum();
                    prop_assert_eq!(log.bytes_since(since), Some(bytes as u64));
                    let got: Vec<_> = records.into_iter().map(|r| (r.version, r.op, r.row)).collect();
                    let want: Vec<_> = logged.iter().filter(|r| r.0 > since).cloned().collect();
                    prop_assert_eq!(got, want, "since {since}");
                }
            }
        }
    }

    #[test]
    fn poison_clears_and_raises_floor() {
        let mut log = DeltaLog::new(0, 1 << 20);
        log.record(1, DeltaOp::Insert, vec![tup![1]]);
        log.poison(2);
        assert!(!log.covers(1));
        assert!(log.covers(2));
        assert_eq!(log.bytes(), 0);
        assert_eq!(log.records_since(2).unwrap().len(), 0);
    }
}
