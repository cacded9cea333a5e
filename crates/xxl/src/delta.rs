//! Delta rules and the [`DeltaApply`] merge — incremental maintenance of
//! cached fragment results.
//!
//! A fragment delta is a **signed multiset** ([`ZSet`]): each tuple
//! carries a net weight (insertions minus deletions). The cacheable
//! operator shapes propagate deltas with the classic rules:
//!
//! * `FILTER` / `PROJECT` are *linear*: `ΔF(R) = F(ΔR)` — run the
//!   existing cursor over the delta's positive and negative parts
//!   separately ([`delta_filter`], [`delta_project`]);
//! * the merge joins are *bilinear*: when only one input changed,
//!   `Δ(A ⋈ B) = ΔA ⋈ B` — join the delta parts against the full
//!   resident other side with the ordinary (temporal) merge-join cursor
//!   ([`delta_join`]).
//!
//! [`DeltaApply`] then merges a cached base at version `v` with the net
//! delta for `(v, v']`, re-establishes the fragment's delivered sort
//! order, and — crucially — verifies the result is **order-determined**:
//! every run of tuples equal under the sort keys must be fully
//! identical, so the merged sequence is the *only* sequence a cold
//! refetch could deliver. Ambiguity (or a negative net count, which a
//! correct log can never produce) makes the merge bail, and the caller
//! falls back to a refetch — incremental maintenance is an optimization
//! that must be byte-identical or absent.

use crate::cursor::{collect, BoxCursor, Cursor, Result};
use crate::filter::Filter;
use crate::merge_join::MergeJoin;
use crate::project::Project;
use crate::scan::VecScan;
use crate::sort::Sort;
use crate::temporal_join::TemporalMergeJoin;
use std::collections::HashMap;
use std::sync::Arc;
use tango_algebra::logical::ProjItem;
use tango_algebra::{Expr, Relation, Schema, SortSpec, Tuple};

/// A signed multiset of tuples: net insert (+) / delete (−) weights.
#[derive(Debug, Clone)]
pub struct ZSet {
    schema: Arc<Schema>,
    weights: HashMap<Tuple, i64>,
}

impl ZSet {
    /// The empty delta over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        ZSet { schema, weights: HashMap::new() }
    }

    /// The schema the carried tuples conform to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Add `weight` copies of `row` (negative = deletions); zero-net
    /// rows are dropped eagerly.
    pub fn add(&mut self, row: Tuple, weight: i64) {
        if weight == 0 {
            return;
        }
        match self.weights.entry(row) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() += weight;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(weight);
            }
        }
    }

    /// Fold another delta (same schema) into this one.
    pub fn merge(&mut self, other: ZSet) {
        for (t, w) in other.weights {
            self.add(t, w);
        }
    }

    /// No net effect?
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Distinct carried tuples.
    pub fn distinct(&self) -> usize {
        self.weights.len()
    }

    /// Iterate `(row, net weight)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.weights.iter().map(|(t, w)| (t, *w))
    }

    /// Expand into (insertions, deletions), each row repeated by its
    /// weight's magnitude.
    pub fn parts(&self) -> (Vec<Tuple>, Vec<Tuple>) {
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for (t, w) in &self.weights {
            let (dst, n) = if *w > 0 { (&mut pos, *w) } else { (&mut neg, -*w) };
            for _ in 0..n {
                dst.push(t.clone());
            }
        }
        (pos, neg)
    }

    /// A delta that is all-positive: the relation itself viewed as a
    /// ZSet (used as the unchanged side of a delta join).
    pub fn from_rows(schema: Arc<Schema>, rows: impl IntoIterator<Item = Tuple>) -> Self {
        let mut z = ZSet::new(schema);
        for r in rows {
            z.add(r, 1);
        }
        z
    }
}

/// Drain a cursor built over one signed part, tagging every output row
/// with `sign`.
fn run_part(cur: BoxCursor, sign: i64, out: &mut ZSet) -> Result<()> {
    for t in collect(cur)?.into_tuples() {
        out.add(t, sign);
    }
    Ok(())
}

fn scan_of(schema: &Arc<Schema>, rows: Vec<Tuple>) -> BoxCursor {
    Box::new(VecScan::new(Relation::new(schema.clone(), rows)))
}

/// `Δσ_pred(R) = σ_pred(ΔR)` — filter both parts with the ordinary
/// [`Filter`] cursor.
pub fn delta_filter(delta: &ZSet, pred: &Expr) -> Result<ZSet> {
    let mut out = ZSet::new(delta.schema.clone());
    let (pos, neg) = delta.parts();
    for (rows, sign) in [(pos, 1), (neg, -1)] {
        if !rows.is_empty() {
            run_part(
                Box::new(Filter::new(scan_of(&delta.schema, rows), pred.clone())),
                sign,
                &mut out,
            )?;
        }
    }
    Ok(out)
}

/// `Δπ_items(R) = π_items(ΔR)` — project both parts with the ordinary
/// [`Project`] cursor.
pub fn delta_project(delta: &ZSet, items: &[ProjItem]) -> Result<ZSet> {
    let (pos, neg) = delta.parts();
    let probe = Project::new(scan_of(&delta.schema, Vec::new()), items.to_vec())?;
    let mut out = ZSet::new(probe.schema().clone());
    for (rows, sign) in [(pos, 1), (neg, -1)] {
        if !rows.is_empty() {
            run_part(
                Box::new(Project::new(scan_of(&delta.schema, rows), items.to_vec())?),
                sign,
                &mut out,
            )?;
        }
    }
    Ok(out)
}

/// Bilinear delta join: `left ⋈ right` over signed inputs, where output
/// weight is the product of the input weights. With `left = ΔA` and
/// `right = B` (all-positive) this computes `Δ(A ⋈ B)` when only `A`
/// changed — the *delta-join against the resident other side*. Inputs
/// need not be pre-sorted; each signed part is sorted on the join
/// attributes before the (temporal) merge join runs.
pub fn delta_join(
    temporal: bool,
    left: &ZSet,
    right: &ZSet,
    eq: &[(String, String)],
) -> Result<ZSet> {
    let lcols: Vec<&str> = eq.iter().map(|(l, _)| l.as_str()).collect();
    let rcols: Vec<&str> = eq.iter().map(|(_, r)| r.as_str()).collect();
    let sorted = |schema: &Arc<Schema>, rows: Vec<Tuple>, cols: &[&str]| -> BoxCursor {
        Box::new(Sort::new(scan_of(schema, rows), SortSpec::by(cols.iter().copied())))
    };
    let (lpos, lneg) = left.parts();
    let (rpos, rneg) = right.parts();
    let mut out: Option<ZSet> = None;
    for (lrows, lsign) in [(lpos, 1i64), (lneg, -1i64)] {
        if lrows.is_empty() {
            continue;
        }
        for (rrows, rsign) in [(&rpos, 1i64), (&rneg, -1i64)] {
            if rrows.is_empty() {
                continue;
            }
            let l = sorted(&left.schema, lrows.clone(), &lcols);
            let r = sorted(&right.schema, rrows.clone(), &rcols);
            let join: BoxCursor = if temporal {
                Box::new(TemporalMergeJoin::new(l, r, eq)?)
            } else {
                Box::new(MergeJoin::new(l, r, eq)?)
            };
            let target = out.get_or_insert_with(|| ZSet::new(join.schema().clone()));
            run_part(join, lsign * rsign, target)?;
        }
    }
    match out {
        Some(z) => Ok(z),
        None => {
            // both parts empty on one side: probe for the output schema
            let l = sorted(&left.schema, Vec::new(), &lcols);
            let r = sorted(&right.schema, Vec::new(), &rcols);
            let join: BoxCursor = if temporal {
                Box::new(TemporalMergeJoin::new(l, r, eq)?)
            } else {
                Box::new(MergeJoin::new(l, r, eq)?)
            };
            Ok(ZSet::new(join.schema().clone()))
        }
    }
}

/// Merges a cached fragment snapshot with a net delta into the refreshed
/// rows — the execution side of refresh-by-delta.
///
/// Construction performs the whole merge eagerly (`try_new`); it yields
/// `None` when the merged multiset cannot be proven byte-identical to a
/// cold refetch: a tuple's net count went negative (log/base mismatch)
/// or the delivered order leaves equal-key runs with non-identical
/// tuples (order-ambiguous). Callers treat `None` as "bail to refetch".
pub struct DeltaApply {
    rows: Vec<Tuple>,
}

impl DeltaApply {
    /// Merge `base + delta`, sort by `order`, and verify the result is
    /// order-determined. `order` must be the fragment's delivered sort
    /// order and non-trivial — an unordered fragment can never be proven
    /// byte-identical, so it is rejected outright.
    pub fn try_new(
        schema: Arc<Schema>,
        base: &[Tuple],
        delta: &ZSet,
        order: &SortSpec,
    ) -> Result<Option<DeltaApply>> {
        if order.is_none() {
            return Ok(None);
        }
        let mut counts: HashMap<&Tuple, i64> = HashMap::with_capacity(base.len());
        for t in base {
            *counts.entry(t).or_insert(0) += 1;
        }
        for (t, w) in delta.iter() {
            *counts.entry(t).or_insert(0) += w;
        }
        let mut rows = Vec::with_capacity(base.len());
        for (t, n) in counts {
            if n < 0 {
                return Ok(None); // deleting rows the base never had
            }
            for _ in 0..n {
                rows.push(t.clone());
            }
        }
        let cmp = order.comparator(&schema);
        rows.sort_by(&cmp);
        // order-determined check: within every equal-sort-key run, all
        // tuples must be fully identical, otherwise a cold refetch could
        // legally deliver a different interleaving
        for w in rows.windows(2) {
            if cmp(&w[0], &w[1]) == std::cmp::Ordering::Equal && w[0] != w[1] {
                return Ok(None);
            }
        }
        Ok(Some(DeltaApply { rows }))
    }

    /// The refreshed fragment rows, in the delivered order.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::{tup, Attr, CmpOp, Type};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpName", Type::Str),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]))
    }

    #[test]
    fn filter_rule_is_linear() {
        let mut d = ZSet::new(schema());
        d.add(tup![1, "Tom", 2, 20], 1);
        d.add(tup![2, "Tom", 5, 10], -1);
        d.add(tup![3, "Jane", 5, 25], 1);
        let pred = Expr::cmp(CmpOp::Eq, Expr::col("EmpName"), Expr::lit("Tom"));
        let out = delta_filter(&d, &pred).unwrap();
        assert_eq!(out.distinct(), 2);
        let w: i64 = out.iter().map(|(_, w)| w).sum();
        assert_eq!(w, 0, "one Tom in, one Tom out");
    }

    #[test]
    fn join_rule_weights_multiply() {
        let mut da = ZSet::new(schema());
        da.add(tup![1, "New", 3, 9], 1);
        da.add(tup![1, "Old", 2, 20], -1);
        let b = ZSet::from_rows(
            schema(),
            vec![tup![1, "Tom", 2, 20], tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10]],
        );
        let eq = vec![("PosID".to_string(), "PosID".to_string())];
        let out = delta_join(true, &da, &b, &eq).unwrap();
        // inserted row overlaps both PosID=1 rows; deleted row too
        let (pos, neg) = out.parts();
        assert_eq!(pos.len(), 2);
        assert_eq!(neg.len(), 2);
    }

    #[test]
    fn apply_merges_and_preserves_order() {
        let s = schema();
        let base = vec![tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10]];
        let mut d = ZSet::new(s.clone());
        d.add(tup![1, "Amy", 1, 2], 1);
        d.add(tup![2, "Tom", 5, 10], -1);
        let order = SortSpec::by(["PosID", "T1"]);
        let a = DeltaApply::try_new(s, &base, &d, &order).unwrap().expect("determined");
        assert_eq!(a.into_rows()[..], [tup![1, "Amy", 1, 2], tup![1, "Jane", 5, 25]]);
    }

    #[test]
    fn ambiguous_order_bails() {
        let s = schema();
        // two rows equal on the sort key but different elsewhere
        let base = vec![tup![1, "Jane", 5, 25]];
        let mut d = ZSet::new(s.clone());
        d.add(tup![1, "Tom", 7, 9], 1);
        let order = SortSpec::by(["PosID"]);
        assert!(DeltaApply::try_new(s.clone(), &base, &d, &order).unwrap().is_none());
        // deleting a row the base lacks bails too
        let mut d2 = ZSet::new(s.clone());
        d2.add(tup![9, "Nope", 1, 2], -1);
        let order2 = SortSpec::by(["PosID", "EmpName", "T1", "T2"]);
        assert!(DeltaApply::try_new(s.clone(), &base, &d2, &order2).unwrap().is_none());
        // and an unordered fragment is rejected outright
        assert!(DeltaApply::try_new(s, &base, &d, &SortSpec::none()).unwrap().is_none());
    }
}
