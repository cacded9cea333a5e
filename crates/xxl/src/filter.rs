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
            // Vectorized path, where the batch is columnar and the predicate
            // shape has a tri-state kernel: survivors are gathered into a
            // fresh columnar batch (or the batch is passed through untouched
            // when nothing drops). Everything else takes the row path below.
            if let Some(tri) = pred.eval_batch_tri(&b) {
                let n = b.len();
                let sel: Vec<u32> = (0..n as u32).filter(|&i| tri[i as usize] == 1).collect();
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
    use crate::scan::{BatchScan, VecScan};
    use crate::testutil::figure3_position;
    use tango_algebra::{tup, Attr, CmpOp, Type, Value};

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

    /// Columnar input, stored as two batches cut at row 2, is filtered to
    /// the same rows as row input — with and without a columnar kernel.
    #[test]
    fn columnar_input_agrees_with_rows() {
        let schema =
            Arc::new(Schema::new(vec![Attr::new("A", Type::Int), Attr::new("B", Type::Int)]));
        let null = || Value::Null;
        let rows = vec![tup![1, null()], tup![2, 5], tup![3, 1], tup![null(), 3], tup![5, 5]];
        let whole = Batch::new(schema.clone(), rows.clone()).columnarize();
        let (a, b) = (|| Expr::col("A"), || Expr::col("B"));
        for (pred, kept) in [
            // a kernel over a nullable column: NULL compares UNKNOWN, dropped
            (
                Expr::cmp(CmpOp::Gt, b(), Expr::lit(2)),
                vec![tup![2, 5], tup![null(), 3], tup![5, 5]],
            ),
            // column against column has no kernel: the row path decides
            (Expr::cmp(CmpOp::Lt, a(), b()), vec![tup![2, 5]]),
            // the first batch is dropped whole, the stream goes on (either path)
            (Expr::cmp(CmpOp::Ge, a(), Expr::lit(3)), vec![tup![3, 1], tup![5, 5]]),
            (Expr::cmp(CmpOp::Ge, a(), b()), vec![tup![3, 1], tup![5, 5]]),
        ] {
            let stored = vec![whole.slice(0, 2), whole.slice(2, 3)];
            let columnar = Box::new(BatchScan::new(schema.clone(), stored));
            let by_row = Box::new(VecScan::from_parts(schema.clone(), rows.clone()));
            for input in [columnar as BoxCursor, by_row] {
                let got = collect(Box::new(Filter::new(input, pred.clone()))).unwrap();
                assert_eq!(got.tuples(), kept, "{pred}");
            }
        }
    }
}
