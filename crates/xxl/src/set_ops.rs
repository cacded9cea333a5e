//! Multiset set operations over union-compatible inputs: `UNION ALL`,
//! `INTERSECT ALL` and `EXCEPT ALL` (bag semantics, as in the paper's
//! multiset foundation [19]). The temporal (snapshot-semantics)
//! difference lives in [`crate::tdiff`].
//!
//! No physical plan reaches these operators, so they take no execution
//! knobs: inputs are read [`DEFAULT_BATCH_ROWS`] at a time.

use crate::cursor::{drain_of, fill_batch, BatchBuffered, BoxCursor, Cursor, ExecError, Result};
use std::collections::HashMap;
use std::sync::Arc;
use tango_algebra::value::Key;
use tango_algebra::{Batch, Schema, Tuple, DEFAULT_BATCH_ROWS};

fn check_compatible(l: &Schema, r: &Schema) -> Result<()> {
    if l.len() != r.len() {
        return Err(ExecError::State(format!(
            "set operation over incompatible arities: {} vs {}",
            l.len(),
            r.len()
        )));
    }
    Ok(())
}

fn key_of(t: &Tuple) -> Vec<Key> {
    t.values().iter().map(|v| v.key()).collect()
}

/// Concatenation of both inputs (left first) — order-preserving.
pub struct UnionAll {
    left: BoxCursor,
    right: BoxCursor,
    on_right: bool,
}

impl UnionAll {
    /// Concatenate two schema-compatible inputs.
    pub fn new(left: BoxCursor, right: BoxCursor) -> Result<Self> {
        check_compatible(left.schema(), right.schema())?;
        Ok(UnionAll { left, right, on_right: false })
    }
}

impl Cursor for UnionAll {
    fn schema(&self) -> &Arc<Schema> {
        self.left.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.on_right = false;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        if !self.on_right {
            if let Some(b) = self.left.next_batch(max_rows)? {
                return Ok(Some(b));
            }
            self.on_right = true;
        }
        self.right.next_batch(max_rows)
    }

    fn close(&mut self) -> Result<()> {
        self.left.close()?;
        self.right.close()
    }
}

/// Count `right`'s tuples into a per-tuple budget (the build side of
/// both bag filters).
fn budget_of(right: &mut dyn Cursor) -> Result<HashMap<Vec<Key>, usize>> {
    let mut budget = HashMap::new();
    for t in drain_of(right, DEFAULT_BATCH_ROWS)? {
        *budget.entry(key_of(&t)).or_insert(0) += 1;
    }
    Ok(budget)
}

/// Bag intersection: a tuple appears `min(m, n)` times when it occurs `m`
/// times on the left and `n` on the right. Preserves left order.
pub struct IntersectAll {
    left: BatchBuffered,
    right: BoxCursor,
    budget: HashMap<Vec<Key>, usize>,
}

impl IntersectAll {
    /// Multiset intersection of two schema-compatible inputs.
    pub fn new(left: BoxCursor, right: BoxCursor) -> Result<Self> {
        check_compatible(left.schema(), right.schema())?;
        let left = BatchBuffered::with_rows(left, DEFAULT_BATCH_ROWS);
        Ok(IntersectAll { left, right, budget: HashMap::new() })
    }

    fn step(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.left.next()? {
            if let Some(n) = self.budget.get_mut(&key_of(&t)) {
                if *n > 0 {
                    *n -= 1;
                    return Ok(Some(t));
                }
            }
        }
        Ok(None)
    }
}

impl Cursor for IntersectAll {
    fn schema(&self) -> &Arc<Schema> {
        self.left.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.budget = budget_of(self.right.as_mut())?;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        fill_batch(self.schema().clone(), max_rows, || self.step())
    }

    fn close(&mut self) -> Result<()> {
        self.budget.clear();
        self.left.close()?;
        self.right.close()
    }
}

/// Bag difference: a tuple appears `max(m - n, 0)` times. Preserves left
/// order (the *last* `m - n` occurrences survive would be equally valid;
/// we keep occurrences once the right-side budget is exhausted).
pub struct ExceptAll {
    left: BatchBuffered,
    right: BoxCursor,
    budget: HashMap<Vec<Key>, usize>,
}

impl ExceptAll {
    /// Multiset difference of two schema-compatible inputs.
    pub fn new(left: BoxCursor, right: BoxCursor) -> Result<Self> {
        check_compatible(left.schema(), right.schema())?;
        let left = BatchBuffered::with_rows(left, DEFAULT_BATCH_ROWS);
        Ok(ExceptAll { left, right, budget: HashMap::new() })
    }

    fn step(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.left.next()? {
            match self.budget.get_mut(&key_of(&t)) {
                Some(n) if *n > 0 => *n -= 1, // cancelled by a right tuple
                _ => return Ok(Some(t)),
            }
        }
        Ok(None)
    }
}

impl Cursor for ExceptAll {
    fn schema(&self) -> &Arc<Schema> {
        self.left.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.budget = budget_of(self.right.as_mut())?;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        fill_batch(self.schema().clone(), max_rows, || self.step())
    }

    fn close(&mut self) -> Result<()> {
        self.budget.clear();
        self.left.close()?;
        self.right.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use proptest::prelude::*;
    use tango_algebra::{tup, Attr, Relation, Type};

    fn rel(vals: &[i64]) -> Relation {
        let s = Arc::new(Schema::new(vec![Attr::new("A", Type::Int)]));
        Relation::new(s, vals.iter().map(|&v| tup![v]).collect())
    }

    fn run2(
        f: impl Fn(BoxCursor, BoxCursor) -> Result<BoxCursor>,
        l: &[i64],
        r: &[i64],
    ) -> Vec<i64> {
        let c = f(Box::new(VecScan::new(rel(l))), Box::new(VecScan::new(rel(r)))).unwrap();
        collect(c).unwrap().tuples().iter().map(|t| t[0].as_int().unwrap()).collect()
    }

    #[test]
    fn union_all_concatenates() {
        let got = run2(|l, r| Ok(Box::new(UnionAll::new(l, r)?) as BoxCursor), &[1, 2], &[2, 3]);
        assert_eq!(got, vec![1, 2, 2, 3]);
    }

    #[test]
    fn intersect_all_bag_semantics() {
        let got = run2(
            |l, r| Ok(Box::new(IntersectAll::new(l, r)?) as BoxCursor),
            &[1, 1, 2, 3, 1],
            &[1, 1, 3, 4],
        );
        assert_eq!(got, vec![1, 1, 3]);
    }

    #[test]
    fn except_all_bag_semantics() {
        let got = run2(
            |l, r| Ok(Box::new(ExceptAll::new(l, r)?) as BoxCursor),
            &[1, 1, 2, 3, 1],
            &[1, 3, 3],
        );
        assert_eq!(got, vec![1, 2, 1]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let wide = Relation::new(
            Arc::new(Schema::new(vec![Attr::new("A", Type::Int), Attr::new("B", Type::Int)])),
            vec![],
        );
        assert!(
            UnionAll::new(Box::new(VecScan::new(rel(&[1]))), Box::new(VecScan::new(wide))).is_err()
        );
    }

    proptest! {
        /// Multiset identity: |L ∩ R| + |L \ R| = |L|.
        #[test]
        fn intersect_plus_except_partitions_left(
            l in proptest::collection::vec(0i64..5, 0..30),
            r in proptest::collection::vec(0i64..5, 0..30),
        ) {
            let inter = run2(|a, b| Ok(Box::new(IntersectAll::new(a, b)?) as BoxCursor), &l, &r);
            let exc = run2(|a, b| Ok(Box::new(ExceptAll::new(a, b)?) as BoxCursor), &l, &r);
            prop_assert_eq!(inter.len() + exc.len(), l.len());
            // and together they are a permutation of L
            let mut all: Vec<i64> = inter.into_iter().chain(exc).collect();
            let mut lhs = l.clone();
            all.sort();
            lhs.sort();
            prop_assert_eq!(all, lhs);
        }
    }
}
