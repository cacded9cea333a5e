//! Temporal difference — another operator from the paper's extension list
//! (Section 3.1). For each left tuple, removes the time during which a
//! value-equivalent right tuple holds, possibly splitting the left period
//! into fragments.
//!
//! Both inputs must be sorted on all non-temporal attributes (then `T1`).

use crate::cursor::{
    fill_batch, period_values, read_period, BatchBuffered, BoxCursor, Cursor, ExecError, Result,
};
use crate::merge_join::KeyGroups;
use std::collections::VecDeque;
use std::sync::Arc;
use tango_algebra::{Batch, Schema, Tuple, Type, DEFAULT_BATCH_ROWS};

/// The temporal-difference cursor: subtracts the right input's periods
/// from value-equivalent left tuples, splitting them into the remaining
/// fragments. Inputs sorted on (value attributes, `T1`).
pub struct TemporalDiff {
    left: BatchBuffered,
    /// The right input, one value combination's rows at a time.
    right: KeyGroups,
    value_idx: Vec<usize>,
    lperiod: (usize, usize),
    rperiod: (usize, usize),
    date_typed: bool,
    out: VecDeque<Tuple>,
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
        Ok(TemporalDiff {
            left: BatchBuffered::with_rows(left, batch_rows),
            right: KeyGroups::new(right, value_idx.clone(), batch_rows),
            value_idx,
            lperiod,
            rperiod,
            date_typed,
            out: VecDeque::new(),
            opened: false,
            splits: 0,
        })
    }

    /// The difference scan, one surviving fragment per call.
    fn step(&mut self) -> Result<Option<Tuple>> {
        if !self.opened {
            return Err(ExecError::State("temporal diff not opened".into()));
        }
        loop {
            if let Some(t) = self.out.pop_front() {
                return Ok(Some(t));
            }
            let Some(l) = self.left.next()? else {
                return Ok(None);
            };
            let Some(p) = read_period(&l, self.lperiod) else {
                continue;
            };
            if !self.right.seek(&l, &self.value_idx)? {
                return Ok(Some(l));
            }
            self.splits += 1;
            let mut fragments = vec![p];
            for r in self.right.group() {
                let Some(rp) = read_period(r, self.rperiod) else {
                    continue;
                };
                fragments = fragments.iter().flat_map(|f| f.subtract(&rp)).collect();
                if fragments.is_empty() {
                    break;
                }
            }
            for f in fragments {
                let mut t = l.clone();
                let (t1, t2) = period_values(self.date_typed, f);
                t.set(self.lperiod.0, t1);
                t.set(self.lperiod.1, t2);
                self.out.push_back(t);
            }
        }
    }
}

impl Cursor for TemporalDiff {
    fn schema(&self) -> &Arc<Schema> {
        self.left.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        fill_batch(self.schema().clone(), max_rows, || self.step())
    }

    fn close(&mut self) -> Result<()> {
        self.out.clear();
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
