//! Scans over materialized relations: owned rows, stored batches, one
//! shared columnar batch.

use crate::cursor::{Cursor, Result};
use std::collections::VecDeque;
use std::sync::Arc;
use tango_algebra::{Batch, Relation, Schema, Tuple};

/// Streams the tuples of an in-memory relation in list order.
pub struct VecScan {
    schema: Arc<Schema>,
    tuples: std::vec::IntoIter<Tuple>,
    opened: bool,
}

impl VecScan {
    /// Scan a materialized relation.
    pub fn new(rel: Relation) -> Self {
        let schema = rel.schema().clone();
        VecScan { schema, tuples: rel.into_tuples().into_iter(), opened: false }
    }

    /// Scan over explicit parts (schema + tuples).
    pub fn from_parts(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Self {
        VecScan { schema, tuples: tuples.into_iter(), opened: false }
    }
}

impl Cursor for VecScan {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        debug_assert!(self.opened, "scan consumed before open()");
        let rows: Vec<Tuple> = self.tuples.by_ref().take(max_rows.max(1)).collect();
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Batch::new(self.schema.clone(), rows)))
        }
    }
}

/// Streams stored batches in order, each in the layout it was stored in —
/// how a drained pipeline breaker is served, so columnar output stays
/// columnar for the operators downstream. A batch no larger than the
/// pull is handed on whole; a larger one is cut from a position kept
/// into it (re-slicing the remainder would copy a row-layout batch once
/// per pull).
pub struct BatchScan {
    schema: Arc<Schema>,
    batches: VecDeque<Batch>,
    /// Rows of the front batch already handed on.
    pos: usize,
}

impl BatchScan {
    /// Scan `batches`, all of `schema`.
    pub fn new(schema: Arc<Schema>, batches: Vec<Batch>) -> Self {
        let batches = batches.into_iter().filter(|b| !b.is_empty()).collect();
        BatchScan { schema, batches, pos: 0 }
    }
}

impl Cursor for BatchScan {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        let Some(front) = self.batches.front() else { return Ok(None) };
        let n = (front.len() - self.pos).min(max_rows.max(1));
        if n == front.len() {
            return Ok(self.batches.pop_front());
        }
        let cut = front.slice(self.pos, n);
        self.pos += n;
        if self.pos == front.len() {
            self.batches.pop_front();
            self.pos = 0;
        }
        Ok(Some(cut))
    }
}

/// Streams one *shared* columnar batch through a [`BatchScan`]: a
/// zero-copy [`Batch::slice`] per pull.
///
/// This is the serving cursor of the middleware relation cache: a cache
/// hit replaces a `TRANSFER^M`'s wire traffic with a `CachedScan` over
/// the resident copy, whose columns stay shared with the store (and every
/// other hit) rather than being cloned or consumed. Reports one counter,
/// `cache_bytes` — the stored byte size of the entry being served.
pub struct CachedScan {
    scan: BatchScan,
    entry_bytes: u64,
}

impl CachedScan {
    /// Serve `batch`, the cached entry.
    pub fn new(batch: Batch) -> Self {
        let entry_bytes = batch.byte_size() as u64;
        CachedScan { scan: BatchScan::new(batch.schema().clone(), vec![batch]), entry_bytes }
    }
}

impl Cursor for CachedScan {
    fn schema(&self) -> &Arc<Schema> {
        self.scan.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.scan.open()
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        self.scan.next_batch(max_rows)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("cache_bytes", self.entry_bytes)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::testutil::figure3_position;

    #[test]
    fn scan_preserves_list_order() {
        let rel = figure3_position();
        let expected = rel.clone();
        let got = collect(Box::new(VecScan::new(rel))).unwrap();
        assert!(got.list_eq(&expected));
    }

    /// Columnar batches come back columnar, a pull smaller than a stored
    /// batch splits it without losing or reordering rows, and the end of
    /// the stream is stable.
    #[test]
    fn batch_scan_hands_on_stored_batches() {
        let rel = figure3_position();
        let schema = rel.schema().clone();
        let stored = || {
            let columnar = Batch::new(schema.clone(), rel.tuples().to_vec()).columnarize();
            vec![columnar.slice(0, 2), Batch::new(schema.clone(), vec![]), columnar.slice(2, 1)]
        };
        let mut whole = BatchScan::new(schema.clone(), stored());
        whole.open().unwrap();
        let first = whole.next_batch(1024).unwrap().unwrap();
        assert!(first.is_columnar() && first.len() == 2);
        assert_eq!(whole.next_batch(1024).unwrap().unwrap().len(), 1);
        assert!(whole.next_batch(1024).unwrap().is_none());
        assert!(whole.next_batch(1024).unwrap().is_none());

        let mut by_row = BatchScan::new(schema.clone(), stored());
        by_row.open().unwrap();
        let mut rows = Vec::new();
        while let Some(b) = by_row.next_batch(1).unwrap() {
            assert!(b.is_columnar() && b.len() == 1);
            rows.extend(b.into_rows());
        }
        assert_eq!(rows, rel.tuples());

        // a row-layout batch is cut the same way
        let mut rows_in = BatchScan::new(schema.clone(), vec![Batch::new(schema, rows.clone())]);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| rows_in.next_batch(2).unwrap().map(|b| b.len())).collect();
        assert_eq!(sizes, [2, 1]);
    }

    #[test]
    fn cached_scan_is_repeatable_and_counts_bytes() {
        let rel = figure3_position();
        let rows = rel.tuples().to_vec();
        let entry = Batch::new(rel.schema().clone(), rows.clone()).columnarize();
        let bytes: u64 = rows.iter().map(|t| t.byte_size() as u64).sum();
        for _ in 0..2 {
            let c = CachedScan::new(entry.clone());
            assert_eq!(c.counters(), vec![("cache_bytes", bytes)]);
            let got = collect(Box::new(c)).unwrap();
            assert!(got.list_eq(&figure3_position()));
        }
        // small pulls cover the entry exactly, as slices of the shared
        // columns that concatenate back without a copy
        let mut c = CachedScan::new(entry.clone());
        c.open().unwrap();
        let pulls: Vec<Batch> = std::iter::from_fn(|| c.next_batch(2).unwrap()).collect();
        assert!(pulls.iter().all(Batch::is_columnar));
        assert_eq!(pulls.iter().map(Batch::len).collect::<Vec<_>>(), [2, 1]);
        let whole = Batch::concat(rel.schema().clone(), pulls);
        let shared = |b: &Batch| b.columns().unwrap().0.as_ptr();
        assert_eq!(shared(&whole), shared(&entry));
        assert_eq!(whole.into_rows(), rows);
    }
}
