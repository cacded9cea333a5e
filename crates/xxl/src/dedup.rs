//! Duplicate elimination — one of the operators the paper lists as a
//! natural later addition to TANGO ("Additional algorithms may later be
//! added ... including duplicate elimination, difference, and
//! coalescing", Section 3.1).
//!
//! Hash-based; keeps the *first* occurrence, so the algorithm is
//! order-preserving in the list-semantics sense: the output is the input
//! list with later duplicates removed.

use crate::cursor::{BoxCursor, Cursor, Result};
use std::collections::HashSet;
use std::sync::Arc;
use tango_algebra::value::Key;
use tango_algebra::{Batch, Schema};

/// Order-preserving hash duplicate elimination (keeps first occurrences).
pub struct DupElim {
    input: BoxCursor,
    seen: HashSet<Vec<Key>>,
    dropped: u64,
}

impl DupElim {
    /// Deduplicate `input` on all attributes.
    pub fn new(input: BoxCursor) -> Self {
        DupElim { input, seen: HashSet::new(), dropped: 0 }
    }
}

impl Cursor for DupElim {
    fn schema(&self) -> &Arc<Schema> {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.seen.clear();
        self.input.open()
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        loop {
            let Some(b) = self.input.next_batch(max_rows)? else {
                return Ok(None);
            };
            let mut rows = b.into_rows();
            let mut kept = 0usize;
            for i in 0..rows.len() {
                let key: Vec<Key> = rows[i].values().iter().map(|v| v.key()).collect();
                if self.seen.insert(key) {
                    rows.swap(kept, i);
                    kept += 1;
                } else {
                    self.dropped += 1;
                }
            }
            rows.truncate(kept);
            if !rows.is_empty() {
                return Ok(Some(Batch::new(self.input.schema().clone(), rows)));
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.seen.clear();
        self.input.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("duplicates_dropped", self.dropped)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use tango_algebra::{tup, Attr, Relation, Type};

    #[test]
    fn keeps_first_occurrence() {
        let s = Arc::new(Schema::new(vec![Attr::new("A", Type::Int), Attr::new("B", Type::Str)]));
        let r = Relation::new(s, vec![tup![1, "x"], tup![2, "y"], tup![1, "x"], tup![1, "z"]]);
        let got = collect(Box::new(DupElim::new(Box::new(VecScan::new(r))))).unwrap();
        assert_eq!(got.tuples(), &[tup![1, "x"], tup![2, "y"], tup![1, "z"]]);
    }
}
