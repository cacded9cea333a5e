//! Temporal difference — another operator from the paper's extension list
//! (Section 3.1). For each left tuple, removes the time during which a
//! value-equivalent right tuple holds, possibly splitting the left period
//! into fragments.
//!
//! Both inputs must be sorted on all non-temporal attributes (then `T1`).
//! The left input is read a columnar batch at a time, its right partners
//! through the sort-merge sweep's [`KeyGroups`]; the surviving left rows
//! are gathered by column with their fragment periods.

use crate::cursor::{period_values, BoxCursor, Cursor, ExecError, Result};
use crate::merge_join::{pull, Held, KeyGroups};
use std::sync::Arc;
use tango_algebra::date::Day;
use tango_algebra::{Batch, ColumnBuilder, Period, Schema, Type, DEFAULT_BATCH_ROWS};

/// The temporal-difference cursor: subtracts the right input's periods
/// from value-equivalent left tuples, splitting them into the remaining
/// fragments. Inputs sorted on (value attributes, `T1`).
pub struct TemporalDiff {
    left: BoxCursor,
    /// Rows per pull.
    rows: usize,
    /// The left batch being read, and its next row; `None` once the left
    /// input is exhausted.
    buf: Option<Arc<Held>>,
    pos: usize,
    /// The right input, one value combination's rows at a time.
    right: KeyGroups,
    value_idx: Vec<usize>,
    lperiod: (usize, usize),
    date_typed: bool,
    /// Surviving rows of `buf` not yet emitted: the row's column index
    /// and the fragment it keeps (`None`: its period, untouched).
    out: Vec<(u32, Option<Period>)>,
    opened: bool,
    splits: u64,
}

impl TemporalDiff {
    /// Subtract `right` from `left`; both must be temporal with matching
    /// value attributes.
    pub fn new(left: BoxCursor, right: BoxCursor) -> Result<Self> {
        Self::with_batch_rows(left, right, DEFAULT_BATCH_ROWS)
    }

    /// Like [`TemporalDiff::new`], pulling its inputs `batch_rows` at a time.
    pub fn with_batch_rows(left: BoxCursor, right: BoxCursor, batch_rows: usize) -> Result<Self> {
        let ls = left.schema();
        let rs = right.schema();
        let lperiod = ls
            .period()
            .ok_or_else(|| ExecError::State("temporal diff: left not temporal".into()))?;
        let rperiod = rs
            .period()
            .ok_or_else(|| ExecError::State("temporal diff: right not temporal".into()))?;
        if ls.len() != rs.len() {
            return Err(ExecError::State("temporal diff: schema arity mismatch".into()));
        }
        let value_idx: Vec<usize> =
            (0..ls.len()).filter(|&i| i != lperiod.0 && i != lperiod.1).collect();
        let date_typed = matches!(ls.attr(lperiod.0).ty, Type::Date);
        let rows = batch_rows.max(1);
        Ok(TemporalDiff {
            left,
            rows,
            buf: None,
            pos: 0,
            right: KeyGroups::new(right, value_idx.clone(), Some(rperiod), rows),
            value_idx,
            lperiod,
            date_typed,
            out: Vec::new(),
            opened: false,
            splits: 0,
        })
    }

    /// Subtract the right partners of left row `i` from its period,
    /// recording what survives.
    fn subtract(&mut self, l: &Held, i: usize) -> Result<()> {
        let Some((s, e)) = l.period(i) else {
            return Ok(());
        };
        if !self.right.seek(l, i, &self.value_idx)? {
            self.out.push((l.abs(i), None));
            return Ok(());
        }
        self.splits += 1;
        let mut fragments = vec![Period::new(s as Day, e as Day)];
        if let Some(g) = self.right.group() {
            for j in g.rows.clone() {
                let Some((rs, re)) = g.held.period(j) else {
                    continue;
                };
                let rp = Period::new(rs as Day, re as Day);
                fragments = fragments.iter().flat_map(|f| f.subtract(&rp)).collect();
                if fragments.is_empty() {
                    break;
                }
            }
        }
        self.out.extend(fragments.into_iter().map(|f| (l.abs(i), Some(f))));
        Ok(())
    }

    /// The first `max` surviving rows, gathered from `buf`'s columns.
    fn flush(&mut self, max: usize) -> Option<Batch> {
        let l = self.buf.as_ref().filter(|_| !self.out.is_empty())?;
        let n = self.out.len().min(max);
        let taken: Vec<(u32, Option<Period>)> = self.out.drain(..n).collect();
        let at: Vec<u32> = taken.iter().map(|&(r, _)| r).collect();
        let cols = l.cols();
        let out = (0..cols.len()).map(|c| {
            if c != self.lperiod.0 && c != self.lperiod.1 {
                return cols[c].gather(&at);
            }
            let mut b = ColumnBuilder::default();
            for &(r, fragment) in &taken {
                b.push(match fragment {
                    Some(f) => {
                        let (t1, t2) = period_values(self.date_typed, f);
                        if c == self.lperiod.0 {
                            t1
                        } else {
                            t2
                        }
                    }
                    None => cols[c].value_at(r as usize),
                });
            }
            b.finish()
        });
        Some(Batch::from_columns(self.left.schema().clone(), out.collect()))
    }
}

impl Cursor for TemporalDiff {
    fn schema(&self) -> &Arc<Schema> {
        self.left.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.out.clear();
        self.left.open()?;
        (self.buf, self.pos) = (pull(&mut self.left, self.rows, Some(self.lperiod))?, 0);
        self.right.open()?;
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        if !self.opened {
            return Err(ExecError::State("temporal diff not opened".into()));
        }
        let max = max_rows.max(1);
        while self.out.len() < max {
            let Some(l) = self.buf.clone() else { break };
            if self.pos == l.len() {
                // the rows held refer to this batch: hand them on first
                if !self.out.is_empty() {
                    break;
                }
                (self.buf, self.pos) = (pull(&mut self.left, self.rows, Some(self.lperiod))?, 0);
                continue;
            }
            self.pos += 1;
            self.subtract(&l, self.pos - 1)?;
        }
        Ok(self.flush(max))
    }

    fn close(&mut self) -> Result<()> {
        self.out.clear();
        self.buf = None;
        self.left.close()?;
        self.right.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("periods_split", self.splits)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use proptest::prelude::*;
    use tango_algebra::{tup, Attr, Relation, SortSpec};

    fn rel(vals: &[(i64, i32, i32)]) -> Relation {
        let s = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("G", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        Relation::new(s, vals.iter().map(|&(g, a, b)| tup![g, a, b]).collect())
    }

    fn run(l: &[(i64, i32, i32)], r: &[(i64, i32, i32)]) -> Vec<(i64, i64, i64)> {
        let mut lr = rel(l);
        let mut rr = rel(r);
        lr.sort_by(&SortSpec::by(["G", "T1"]));
        rr.sort_by(&SortSpec::by(["G", "T1"]));
        let d = TemporalDiff::new(Box::new(VecScan::new(lr)), Box::new(VecScan::new(rr))).unwrap();
        collect(Box::new(d))
            .unwrap()
            .tuples()
            .iter()
            .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap(), t[2].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn splits_and_removes() {
        assert_eq!(
            run(&[(1, 0, 10), (2, 0, 5)], &[(1, 3, 6)]),
            vec![(1, 0, 3), (1, 6, 10), (2, 0, 5)]
        );
        assert_eq!(run(&[(1, 0, 10)], &[(1, 0, 10)]), vec![]);
        assert_eq!(run(&[(1, 0, 10)], &[(2, 0, 10)]), vec![(1, 0, 10)]);
    }

    proptest! {
        /// Snapshot semantics: a (value, time point) pair survives iff it
        /// holds on the left and not on the right.
        #[test]
        fn snapshot_semantics(
            l in proptest::collection::vec((0i64..3, 0i32..20, 1i32..8), 0..25),
            r in proptest::collection::vec((0i64..3, 0i32..20, 1i32..8), 0..25),
        ) {
            let fix = |v: Vec<(i64, i32, i32)>| -> Vec<(i64, i32, i32)> {
                v.into_iter().map(|(g, a, d)| (g, a, a + d)).collect()
            };
            let (l, r) = (fix(l), fix(r));
            let out = run(&l, &r);
            for t in 0..30i64 {
                for g in 0..3i64 {
                    let on_l = l.iter().filter(|&&(gg, a, b)| gg == g && (a as i64) <= t && t < b as i64).count();
                    let on_r = r.iter().any(|&(gg, a, b)| gg == g && (a as i64) <= t && t < b as i64);
                    let got = out.iter().filter(|&&(gg, a, b)| gg == g && a <= t && t < b).count();
                    let want = if on_r { 0 } else { on_l };
                    prop_assert_eq!(got, want, "g={} t={}", g, t);
                }
            }
        }
    }
}
