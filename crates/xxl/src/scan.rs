//! Scan over a materialized relation.

use crate::cursor::{Cursor, Result};
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

/// Streams a *shared* materialized relation (`Arc<Vec<Tuple>>`) in list
/// order, cloning tuples as they are emitted.
///
/// This is the serving cursor of the middleware relation cache: a cache
/// hit replaces a `TRANSFER^M`'s wire traffic with a `CachedScan` over
/// the resident copy, which stays shared (and reusable by later hits)
/// rather than being consumed. Reports one counter, `cache_bytes` — the
/// stored byte size of the entry being served.
pub struct CachedScan {
    schema: Arc<Schema>,
    rows: Arc<Vec<Tuple>>,
    pos: usize,
    entry_bytes: u64,
    opened: bool,
}

impl CachedScan {
    /// Serve `rows` (the cached entry, `entry_bytes` encoded bytes).
    pub fn new(schema: Arc<Schema>, rows: Arc<Vec<Tuple>>, entry_bytes: u64) -> Self {
        CachedScan { schema, rows, pos: 0, entry_bytes, opened: false }
    }
}

impl Cursor for CachedScan {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        debug_assert!(self.opened, "scan consumed before open()");
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + max_rows.max(1)).min(self.rows.len());
        let batch = Batch::new(self.schema.clone(), self.rows[self.pos..end].to_vec());
        self.pos = end;
        Ok(Some(batch))
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

    #[test]
    fn cached_scan_is_repeatable_and_counts_bytes() {
        let rel = figure3_position();
        let schema = rel.schema().clone();
        let rows = Arc::new(rel.tuples().to_vec());
        let bytes: u64 = rows.iter().map(|t| t.byte_size() as u64).sum();
        for _ in 0..2 {
            let c = CachedScan::new(schema.clone(), rows.clone(), bytes);
            assert_eq!(c.counters(), vec![("cache_bytes", bytes)]);
            let got = collect(Box::new(c)).unwrap();
            assert!(got.list_eq(&figure3_position()));
        }
        // small pulls cover the entry exactly
        let mut c = CachedScan::new(schema, rows.clone(), bytes);
        c.open().unwrap();
        let mut n = 0;
        while let Some(b) = c.next_batch(2).unwrap() {
            assert!(!b.is_empty());
            n += b.len();
        }
        assert_eq!(n, rows.len());
    }
}
