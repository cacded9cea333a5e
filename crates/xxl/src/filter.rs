//! `FILTER^M` — middleware selection.
//!
//! The paper motivates a middleware selection algorithm even though DBMSs
//! filter efficiently: "if there is a selection between two temporal
//! algorithms to be performed in the middleware, it would be inefficient
//! to transfer the intermediate result to the DBMS solely for the purpose
//! of selection" (Section 3.3). The algorithm is order-preserving.

use crate::cursor::{BoxCursor, Cursor, Result};
use std::sync::Arc;
use tango_algebra::{Batch, Expr, Schema};

/// The `FILTER^M` cursor: pipelined, order-preserving selection.
pub struct Filter {
    input: BoxCursor,
    pred: Expr,
    bound: Option<Expr>,
    dropped: u64,
}

impl Filter {
    /// Keep the tuples of `input` for which `pred` holds.
    pub fn new(input: BoxCursor, pred: Expr) -> Self {
        Filter { input, pred, bound: None, dropped: 0 }
    }
}

impl Cursor for Filter {
    fn schema(&self) -> &Arc<Schema> {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        self.bound = Some(self.pred.bound(self.input.schema())?);
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        let Some(pred) = self.bound.as_ref() else {
            return Err(crate::cursor::ExecError::State("filter not opened".into()));
        };
        // Keep pulling input batches until one survives the predicate;
        // an all-dropped batch must not end the stream early.
        loop {
            let Some(b) = self.input.next_batch(max_rows)? else {
                return Ok(None);
            };
            if b.is_columnar() {
                // Vectorized path: a tri-state kernel over the flat columns
                // where the predicate shape supports one, per-row
                // materialization where it doesn't; survivors are gathered
                // into a fresh columnar batch (or the input batch is passed
                // through untouched when nothing drops).
                let n = b.len();
                let sel: Vec<u32> = match pred.eval_batch_tri(&b) {
                    Some(tri) => tri
                        .iter()
                        .enumerate()
                        .filter(|&(_, &t)| t == 1)
                        .map(|(i, _)| i as u32)
                        .collect(),
                    None => {
                        let mut sel = Vec::new();
                        for i in 0..n {
                            if pred.matches(&b.tuple_at(i))? {
                                sel.push(i as u32);
                            }
                        }
                        sel
                    }
                };
                self.dropped += (n - sel.len()) as u64;
                if sel.len() == n {
                    return Ok(Some(b));
                }
                if !sel.is_empty() {
                    return Ok(Some(b.gather(&sel)));
                }
                continue;
            }
            let mut rows = b.into_rows();
            let mut kept = 0usize;
            for i in 0..rows.len() {
                if pred.matches(&rows[i])? {
                    rows.swap(kept, i);
                    kept += 1;
                } else {
                    self.dropped += 1;
                }
            }
            rows.truncate(kept);
            if !rows.is_empty() {
                return Ok(Some(Batch::new(self.schema().clone(), rows)));
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("rows_dropped", self.dropped)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use crate::testutil::figure3_position;
    use tango_algebra::{tup, CmpOp};

    #[test]
    fn filters_and_preserves_order() {
        let pred = Expr::cmp(CmpOp::Eq, Expr::col("PosID"), Expr::lit(1));
        let got = collect(Box::new(Filter::new(Box::new(VecScan::new(figure3_position())), pred)))
            .unwrap();
        assert_eq!(got.tuples(), &[tup![1, "Tom", 2, 20], tup![1, "Jane", 5, 25]]);
    }

    #[test]
    fn temporal_predicate() {
        // Overlaps([4, 6)): T1 < 6 AND T2 > 4
        let pred = Expr::overlaps("T1", "T2", Expr::lit(4), Expr::lit(6));
        let got = collect(Box::new(Filter::new(Box::new(VecScan::new(figure3_position())), pred)))
            .unwrap();
        assert_eq!(got.len(), 3); // all three periods overlap [4, 6)
    }
}
