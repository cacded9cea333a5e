//! Temporal coalescing — merges value-equivalent tuples whose periods
//! overlap or are adjacent into maximal periods. Listed by the paper as a
//! future TANGO operator; Vassilakis (2000) gives optimization rules for
//! sequences of coalescing and temporal selection, which `tango-core`
//! adopts as a transformation rule.
//!
//! The input must be sorted on (all non-temporal attributes, `T1`); the
//! output is sorted the same way.

use crate::cursor::{
    fill_batch, period_values, read_period, BatchBuffered, BoxCursor, Cursor, ExecError, Result,
};
use std::sync::Arc;
use tango_algebra::{Batch, Period, Schema, Tuple, Type, DEFAULT_BATCH_ROWS};

/// The coalescing cursor: merges value-equivalent tuples with
/// overlapping or adjacent periods into maximal periods.
pub struct Coalesce {
    input: BatchBuffered,
    value_idx: Vec<usize>,
    period: (usize, usize),
    date_typed: bool,
    /// Tuple (value part) and running merged period.
    current: Option<(Tuple, Period)>,
    opened: bool,
    done: bool,
    merged: u64,
}

impl Coalesce {
    /// Build over `input`, which must be temporal and sorted on (value
    /// attributes, `T1`).
    pub fn new(input: BoxCursor) -> Result<Self> {
        Self::with_batch_rows(input, DEFAULT_BATCH_ROWS)
    }

    /// Like [`Coalesce::new`], pulling its input `batch_rows` at a time.
    pub fn with_batch_rows(input: BoxCursor, batch_rows: usize) -> Result<Self> {
        let input = BatchBuffered::with_rows(input, batch_rows);
        let schema = input.schema();
        let period = schema
            .period()
            .ok_or_else(|| ExecError::State("coalesce: input not temporal".into()))?;
        let value_idx: Vec<usize> =
            (0..schema.len()).filter(|&i| i != period.0 && i != period.1).collect();
        let date_typed = matches!(schema.attr(period.0).ty, Type::Date);
        Ok(Coalesce {
            input,
            value_idx,
            period,
            date_typed,
            current: None,
            opened: false,
            done: false,
            merged: 0,
        })
    }

    fn value_eq(&self, a: &Tuple, b: &Tuple) -> bool {
        self.value_idx.iter().all(|&i| a[i].total_cmp(&b[i]) == std::cmp::Ordering::Equal)
    }

    fn finish(&self, mut base: Tuple, p: Period) -> Tuple {
        let (t1, t2) = period_values(self.date_typed, p);
        base.set(self.period.0, t1);
        base.set(self.period.1, t2);
        base
    }

    /// The merge scan, one maximal period per call.
    fn step(&mut self) -> Result<Option<Tuple>> {
        if !self.opened {
            return Err(ExecError::State("coalesce not opened".into()));
        }
        loop {
            if self.done {
                return Ok(self.current.take().map(|(t, p)| self.finish(t, p)));
            }
            let nxt = self.input.next()?;
            match nxt {
                None => {
                    self.done = true;
                    continue;
                }
                Some(t) => {
                    let Some(p) = read_period(&t, self.period) else {
                        continue; // skip empty/null periods
                    };
                    match self.current.take() {
                        None => {
                            self.current = Some((t, p));
                        }
                        Some((cur, cp)) => {
                            if self.value_eq(&cur, &t) && cp.meets_or_overlaps(&p) {
                                self.merged += 1;
                                self.current = Some((cur, cp.merge(&p)));
                            } else {
                                let out = self.finish(cur, cp);
                                self.current = Some((t, p));
                                return Ok(Some(out));
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Cursor for Coalesce {
    fn schema(&self) -> &Arc<Schema> {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        fill_batch(self.schema().clone(), max_rows, || self.step())
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("periods_merged", self.merged)]
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

    fn run(vals: &[(i64, i32, i32)]) -> Vec<(i64, i64, i64)> {
        let mut r = rel(vals);
        r.sort_by(&SortSpec::by(["G", "T1"]));
        collect(Box::new(Coalesce::new(Box::new(VecScan::new(r))).unwrap()))
            .unwrap()
            .tuples()
            .iter()
            .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap(), t[2].as_int().unwrap()))
            .collect()
    }

    #[test]
    fn merges_adjacent_and_overlapping() {
        assert_eq!(
            run(&[(1, 0, 5), (1, 5, 10), (1, 12, 15), (2, 3, 8), (2, 6, 9)]),
            vec![(1, 0, 10), (1, 12, 15), (2, 3, 9)]
        );
    }

    #[test]
    fn idempotent() {
        let once = run(&[(1, 0, 5), (1, 4, 9), (1, 9, 12)]);
        assert_eq!(once, vec![(1, 0, 12)]);
    }

    proptest! {
        /// Coalescing preserves the set of (value, time-point) facts.
        #[test]
        fn preserves_snapshots(vals in proptest::collection::vec((0i64..3, 0i32..25, 1i32..8), 1..40)) {
            let fixed: Vec<(i64, i32, i32)> = vals.into_iter().map(|(g, a, d)| (g, a, a + d)).collect();
            let out = run(&fixed);
            for t in 0..35i64 {
                for g in 0..3i64 {
                    let before = fixed.iter().any(|&(gg, a, b)| gg == g && (a as i64) <= t && t < b as i64);
                    let after_cnt = out.iter().filter(|&&(gg, a, b)| gg == g && a <= t && t < b).count();
                    prop_assert_eq!(before, after_cnt == 1);
                    prop_assert!(after_cnt <= 1, "coalesced output overlaps itself");
                }
            }
        }
    }
}
