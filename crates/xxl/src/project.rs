//! `PROJECT^M` — middleware projection (generalized: computes scalar
//! expressions, e.g. the `GREATEST`/`LEAST` period construction of a
//! temporal join rendered as a projection). Order-preserving.

use crate::cursor::{BoxCursor, Cursor, ExecError, Result};
use std::sync::Arc;
use tango_algebra::logical::{infer_type, ProjItem};
use tango_algebra::{Attr, Batch, Expr, Schema, Tuple};

/// The `PROJECT^M` cursor: evaluates one scalar expression per output
/// attribute.
pub struct Project {
    input: BoxCursor,
    items: Vec<ProjItem>,
    schema: Arc<Schema>,
    bound: Vec<Expr>,
    /// When every projection item is a bare column reference, the resolved
    /// indices: columnar input batches are answered by a zero-copy column
    /// pick instead of per-row expression evaluation.
    col_pick: Option<Vec<usize>>,
}

impl Project {
    /// Construction derives the output schema from the input cursor's
    /// schema, so it can fail on unknown columns.
    pub fn new(input: BoxCursor, items: Vec<ProjItem>) -> Result<Self> {
        let in_schema = input.schema();
        let mut attrs = Vec::with_capacity(items.len());
        for it in &items {
            attrs.push(Attr::new(it.alias.clone(), infer_type(&it.expr, in_schema)?));
        }
        let schema = Arc::new(Schema::with_inferred_period(attrs));
        Ok(Project { input, items, schema, bound: Vec::new(), col_pick: None })
    }

    /// Projection onto plain columns.
    pub fn cols(input: BoxCursor, cols: &[&str]) -> Result<Self> {
        Project::new(input, cols.iter().map(|c| ProjItem::col(*c)).collect())
    }
}

impl Cursor for Project {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        self.bound = self
            .items
            .iter()
            .map(|it| it.expr.bound(self.input.schema()))
            .collect::<tango_algebra::Result<_>>()?;
        self.col_pick = self
            .bound
            .iter()
            .map(|e| match e {
                Expr::Col { index: Some(i), .. } => Some(*i),
                _ => None,
            })
            .collect();
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        if self.bound.is_empty() && !self.items.is_empty() {
            return Err(ExecError::State("project not opened".into()));
        }
        let Some(b) = self.input.next_batch(max_rows)? else {
            return Ok(None);
        };
        if let Some(pick) = &self.col_pick {
            if let Some(out) = b.select_columns(pick, self.schema.clone()) {
                return Ok(Some(out));
            }
        }
        let in_rows = b.into_rows();
        let mut rows = Vec::with_capacity(in_rows.len());
        for t in &in_rows {
            let mut out = Vec::with_capacity(self.bound.len());
            for e in &self.bound {
                out.push(e.eval(t)?);
            }
            rows.push(Tuple::new(out));
        }
        Ok(Some(Batch::new(self.schema.clone(), rows)))
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use crate::testutil::figure3_position;
    use tango_algebra::{tup, ArithOp};

    #[test]
    fn plain_projection() {
        let got = collect(Box::new(
            Project::cols(Box::new(VecScan::new(figure3_position())), &["EmpName", "PosID"])
                .unwrap(),
        ))
        .unwrap();
        assert_eq!(got.tuples()[0], tup!["Tom", 1]);
        assert_eq!(got.schema().names().collect::<Vec<_>>(), vec!["EmpName", "PosID"]);
        assert!(!got.schema().is_temporal());
    }

    #[test]
    fn computed_projection_keeps_period() {
        let items = vec![
            ProjItem::col("PosID"),
            ProjItem::named(
                Expr::Arith(ArithOp::Sub, Box::new(Expr::col("T2")), Box::new(Expr::col("T1"))),
                "Dur",
            ),
            ProjItem::col("T1"),
            ProjItem::col("T2"),
        ];
        let got = collect(Box::new(
            Project::new(Box::new(VecScan::new(figure3_position())), items).unwrap(),
        ))
        .unwrap();
        assert!(got.schema().is_temporal());
        assert_eq!(got.tuples()[0], tup![1, 18, 2, 20]);
    }

    #[test]
    fn unknown_column_rejected_at_construction() {
        assert!(Project::cols(Box::new(VecScan::new(figure3_position())), &["Nope"]).is_err());
    }
}
