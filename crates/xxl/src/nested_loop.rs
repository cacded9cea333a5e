//! Nested-loop theta join — the fallback for non-equi predicates in the
//! middleware. Materializes the right input at open; order-preserving on
//! the left input (outer-major output order).

use crate::cursor::{drain_of, fill_batch, BatchBuffered, BoxCursor, Cursor, Result};
use std::sync::Arc;
use tango_algebra::logical::concat_schemas;
use tango_algebra::{Batch, Expr, Schema, Tuple, DEFAULT_BATCH_ROWS};

/// The nested-loop theta-join cursor (right input materialized at open).
pub struct NestedLoopJoin {
    left: BatchBuffered,
    right: BoxCursor,
    batch_rows: usize,
    pred: Option<Expr>,
    bound: Option<Expr>,
    schema: Arc<Schema>,
    right_buf: Vec<Tuple>,
    left_cur: Option<Tuple>,
    j: usize,
}

impl NestedLoopJoin {
    /// `pred` is evaluated over the concatenated tuple; `None` yields the
    /// Cartesian product.
    pub fn new(left: BoxCursor, right: BoxCursor, pred: Option<Expr>) -> Self {
        Self::with_batch_rows(left, right, pred, DEFAULT_BATCH_ROWS)
    }

    /// Like [`NestedLoopJoin::new`], pulling its inputs `batch_rows` at a
    /// time.
    pub fn with_batch_rows(
        left: BoxCursor,
        right: BoxCursor,
        pred: Option<Expr>,
        batch_rows: usize,
    ) -> Self {
        let schema = Arc::new(concat_schemas(left.schema(), right.schema()));
        NestedLoopJoin {
            left: BatchBuffered::with_rows(left, batch_rows),
            right,
            batch_rows,
            pred,
            bound: None,
            schema,
            right_buf: Vec::new(),
            left_cur: None,
            j: 0,
        }
    }

    /// The loop itself, one qualifying pair per call.
    fn step(&mut self) -> Result<Option<Tuple>> {
        loop {
            let Some(l) = &self.left_cur else {
                return Ok(None);
            };
            if self.j >= self.right_buf.len() {
                self.left_cur = self.left.next()?;
                self.j = 0;
                if self.left_cur.is_none() {
                    return Ok(None);
                }
                continue;
            }
            let out = l.concat(&self.right_buf[self.j]);
            self.j += 1;
            match &self.bound {
                None => return Ok(Some(out)),
                Some(p) => {
                    if p.matches(&out)? {
                        return Ok(Some(out));
                    }
                }
            }
        }
    }
}

impl Cursor for NestedLoopJoin {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.right_buf = drain_of(self.right.as_mut(), self.batch_rows)?;
        self.bound = match &self.pred {
            Some(p) => Some(p.bound(&self.schema)?),
            None => None,
        };
        self.left_cur = self.left.next()?;
        self.j = 0;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        fill_batch(self.schema.clone(), max_rows, || self.step())
    }

    fn close(&mut self) -> Result<()> {
        self.right_buf.clear();
        self.left.close()?;
        self.right.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("rows_buffered", self.right_buf.len() as u64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use tango_algebra::{tup, Attr, CmpOp, Relation, Type};

    fn rel(name: &str, vals: &[i64]) -> Relation {
        let s = Arc::new(Schema::new(vec![Attr::new(name, Type::Int)]));
        Relation::new(s, vals.iter().map(|&v| tup![v]).collect())
    }

    #[test]
    fn cartesian_product() {
        let got = collect(Box::new(NestedLoopJoin::new(
            Box::new(VecScan::new(rel("A", &[1, 2]))),
            Box::new(VecScan::new(rel("B", &[10, 20, 30]))),
            None,
        )))
        .unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(got.tuples()[0], tup![1, 10]); // outer-major order
        assert_eq!(got.tuples()[5], tup![2, 30]);
    }

    #[test]
    fn theta_join() {
        let pred = Expr::cmp(CmpOp::Lt, Expr::col("A"), Expr::col("B"));
        let got = collect(Box::new(NestedLoopJoin::new(
            Box::new(VecScan::new(rel("A", &[5, 15]))),
            Box::new(VecScan::new(rel("B", &[10, 20]))),
            Some(pred),
        )))
        .unwrap();
        assert_eq!(got.tuples(), &[tup![5, 10], tup![5, 20], tup![15, 20]]);
    }
}
