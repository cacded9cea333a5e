//! Temporal difference — another operator from the paper's extension list
//! (Section 3.1). For each left tuple, removes the time during which a
//! value-equivalent right tuple holds, possibly splitting the left period
//! into fragments.
//!
//! Both inputs must be sorted on all non-temporal attributes (then `T1`).

use crate::cursor::{fill_batch, BatchBuffered, BoxCursor, Cursor, ExecError, ExecOpts, Result};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;
use tango_algebra::{Batch, Period, Schema, Tuple, Type, Value};

/// The temporal-difference cursor: subtracts the right input's periods
/// from value-equivalent left tuples, splitting them into the remaining
/// fragments. Inputs sorted on (value attributes, `T1`).
pub struct TemporalDiff {
    left: BatchBuffered,
    right: BatchBuffered,
    value_idx: Vec<usize>,
    lperiod: (usize, usize),
    rperiod: (usize, usize),
    date_typed: bool,
    rnext: Option<Tuple>,
    /// Buffered right group (periods of the current value combination).
    rgroup: Vec<Period>,
    rgroup_key: Option<Tuple>,
    out: VecDeque<Tuple>,
    opened: bool,
    splits: u64,
}

impl TemporalDiff {
    /// Subtract `right` from `left`; both must be temporal with matching
    /// value attributes.
    pub fn new(left: BoxCursor, right: BoxCursor) -> Result<Self> {
        Self::with_opts(left, right, ExecOpts::default())
    }

    /// Like [`TemporalDiff::new`] with explicit execution knobs (the
    /// merge scan is inherently sequential, so only `batch_rows` applies).
    pub fn with_opts(left: BoxCursor, right: BoxCursor, opts: ExecOpts) -> Result<Self> {
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
            left: BatchBuffered::with_rows(left, opts.batch_rows),
            right: BatchBuffered::with_rows(right, opts.batch_rows),
            value_idx,
            lperiod,
            rperiod,
            date_typed,
            rnext: None,
            rgroup: Vec::new(),
            rgroup_key: None,
            out: VecDeque::new(),
            opened: false,
            splits: 0,
        })
    }

    fn value_cmp(&self, a: &Tuple, b: &Tuple) -> Ordering {
        for &i in &self.value_idx {
            let o = a[i].total_cmp(&b[i]);
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    /// Advance the right side until its group key >= the left tuple's key,
    /// buffering the matching group's periods.
    fn align_right(&mut self, l: &Tuple) -> Result<()> {
        if let Some(k) = &self.rgroup_key {
            if self.value_cmp(k, l) == Ordering::Equal {
                return Ok(()); // group already buffered
            }
        }
        loop {
            if self.rnext.is_none() {
                self.rnext = self.right.next()?;
                if self.rnext.is_none() {
                    self.rgroup.clear();
                    self.rgroup_key = None;
                    return Ok(());
                }
            }
            let r = self.rnext.as_ref().unwrap();
            match self.value_cmp(r, l) {
                Ordering::Less => {
                    self.rnext = None; // discard, fetch next
                }
                Ordering::Greater => {
                    self.rgroup.clear();
                    self.rgroup_key = None;
                    return Ok(());
                }
                Ordering::Equal => {
                    // buffer the whole group
                    let key = r.clone();
                    let mut periods = Vec::new();
                    loop {
                        let r = match self.rnext.take() {
                            Some(r) => r,
                            None => match self.right.next()? {
                                Some(r) => r,
                                None => break,
                            },
                        };
                        if self.value_cmp(&r, &key) != Ordering::Equal {
                            self.rnext = Some(r);
                            break;
                        }
                        if let (Some(a), Some(b)) =
                            (r[self.rperiod.0].as_day(), r[self.rperiod.1].as_day())
                        {
                            let p = Period::new(a, b);
                            if p.is_valid() {
                                periods.push(p);
                            }
                        }
                    }
                    self.rgroup = periods;
                    self.rgroup_key = Some(key);
                    return Ok(());
                }
            }
        }
    }

    fn push_fragments(&mut self, l: &Tuple, mut fragments: Vec<Period>) {
        for p in &self.rgroup {
            let mut next = Vec::new();
            for f in fragments {
                next.extend(f.subtract(p));
            }
            fragments = next;
            if fragments.is_empty() {
                break;
            }
        }
        for f in fragments {
            let mut t = l.clone();
            let (v1, v2) = if self.date_typed {
                (Value::Date(f.start), Value::Date(f.end))
            } else {
                (Value::Int(f.start as i64), Value::Int(f.end as i64))
            };
            t.set(self.lperiod.0, v1);
            t.set(self.lperiod.1, v2);
            self.out.push_back(t);
        }
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
            let Some(p) = l[self.lperiod.0]
                .as_day()
                .zip(l[self.lperiod.1].as_day())
                .map(|(a, b)| Period::new(a, b))
                .filter(Period::is_valid)
            else {
                continue;
            };
            self.align_right(&l)?;
            let matches = self
                .rgroup_key
                .as_ref()
                .map(|k| self.value_cmp(k, &l) == Ordering::Equal)
                .unwrap_or(false);
            if matches {
                self.splits += 1;
                self.push_fragments(&l, vec![p]);
            } else {
                self.out.push_back(l);
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
        self.rgroup.clear();
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
