//! Delta rules and the [`DeltaApply`] splice — incremental maintenance of
//! cached fragment results.
//!
//! A fragment delta is a **signed multiset** ([`ZSet`]): each tuple
//! carries how often the window inserted and how often it deleted it.
//! The cacheable operator shapes propagate deltas with the classic rules:
//!
//! * `FILTER` / `PROJECT` are *linear*: `ΔF(R) = F(ΔR)` — run the
//!   existing cursor over the delta's positive and negative parts
//!   separately ([`delta_filter`], [`delta_project`]);
//! * the merge joins are *bilinear*: when only one input changed,
//!   `Δ(A ⋈ B) = ΔA ⋈ B` — join the delta parts against the full
//!   resident other side with the ordinary (temporal) merge-join cursor
//!   ([`delta_join`]).
//!
//! [`DeltaApply`] then splices the delta for `(v, v']` into a cached base
//! at version `v`, which is already in the fragment's delivered sort
//! order: it rebuilds only the equal-sort-key **runs** the delta touches
//! and — crucially — verifies each of them is **order-determined**: a
//! touched run must end up fully identical, so the spliced sequence is
//! the *only* sequence a cold refetch could deliver. Ambiguity (or a
//! deletion the run does not hold, which a correct log can never
//! produce) makes the splice bail, and the caller falls back to a
//! refetch — incremental maintenance is an optimization that must be
//! byte-identical or absent.

use crate::cursor::{collect, BoxCursor, Cursor, ExecError, Result};
use crate::filter::Filter;
use crate::merge_join::MergeJoin;
use crate::project::Project;
use crate::scan::VecScan;
use crate::sort::Sort;
use crate::temporal_join::TemporalMergeJoin;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use tango_algebra::logical::ProjItem;
use tango_algebra::{Batch, Expr, Relation, Schema, SortSpec, Tuple};

/// A signed multiset of tuples, **un-netted**: per tuple, how many
/// copies the window inserted (+) and how many it deleted (−). A tuple
/// deleted and re-inserted stays in the set with net weight zero — the
/// write moved it to the end of its table, so the rows it ties with are
/// *touched* even though the multiset is not (see [`DeltaApply`]).
#[derive(Debug, Clone)]
pub struct ZSet {
    schema: Arc<Schema>,
    /// `(insertions, deletions)` per carried tuple.
    weights: HashMap<Tuple, (u64, u64)>,
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

    /// Add `weight` copies of `row` (negative = deletions).
    pub fn add(&mut self, row: Tuple, weight: i64) {
        if weight == 0 {
            return;
        }
        let (ins, del) = self.weights.entry(row).or_default();
        *(if weight > 0 { ins } else { del }) += weight.unsigned_abs();
    }

    /// Fold another delta (same schema) into this one.
    pub fn merge(&mut self, other: ZSet) {
        for (t, (i, d)) in other.weights {
            let (ins, del) = self.weights.entry(t).or_default();
            *ins += i;
            *del += d;
        }
    }

    /// No tuple touched at all?
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Distinct carried tuples.
    pub fn distinct(&self) -> usize {
        self.weights.len()
    }

    /// Iterate `(row, net weight)` pairs (arbitrary order); the net weight
    /// of a deleted-and-re-inserted row is zero.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.weights.iter().map(|(t, (i, d))| (t, *i as i64 - *d as i64))
    }

    /// Expand into (insertions, deletions), each row repeated by its
    /// count on that side.
    pub fn parts(&self) -> (Vec<Tuple>, Vec<Tuple>) {
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for (t, (i, d)) in &self.weights {
            pos.extend(std::iter::repeat_n(t, *i as usize).cloned());
            neg.extend(std::iter::repeat_n(t, *d as usize).cloned());
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
    let sorted = |schema: &Arc<Schema>, rows: Vec<Tuple>, cols: Vec<&str>| -> BoxCursor {
        Box::new(Sort::new(scan_of(schema, rows), SortSpec::by(cols)))
    };
    let join = |lrows: Vec<Tuple>, rrows: Vec<Tuple>| -> Result<BoxCursor> {
        let l = sorted(&left.schema, lrows, eq.iter().map(|(l, _)| l.as_str()).collect());
        let r = sorted(&right.schema, rrows, eq.iter().map(|(_, r)| r.as_str()).collect());
        Ok(if temporal {
            Box::new(TemporalMergeJoin::new(l, r, eq)?)
        } else {
            Box::new(MergeJoin::new(l, r, eq)?)
        })
    };
    // the join of nothing names the output schema
    let mut out = ZSet::new(join(Vec::new(), Vec::new())?.schema().clone());
    let (lpos, lneg) = left.parts();
    let (rpos, rneg) = right.parts();
    for (lrows, lsign) in [(lpos, 1), (lneg, -1)] {
        for (rrows, rsign) in [(&rpos, 1), (&rneg, -1)] {
            if !lrows.is_empty() && !rrows.is_empty() {
                run_part(join(lrows.clone(), rrows.clone())?, lsign * rsign, &mut out)?;
            }
        }
    }
    Ok(out)
}

/// First index in `[lo, hi)` at which the monotone `pred` turns false.
fn partition(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A cached fragment brought forward by a delta — the execution side of
/// refresh-by-delta.
///
/// Construction performs the whole splice eagerly; it yields `None` when
/// the result cannot be proven byte-identical to a cold refetch: a run
/// lacks a tuple the delta deletes (log/base mismatch), or a run the
/// delta touches is left with non-identical tuples (order-ambiguous).
/// Callers treat `None` as "bail to refetch".
///
/// Runs the delta does not touch are handed on in the order the base
/// holds them. That is the order a cold refetch delivers because the DBMS
/// moves no surviving row past another: minidb's `DELETE` is a `retain`,
/// its `INSERT` appends, and `Relation::sort_by` is stable — so rows that
/// tie under the sort keys keep their relative table order, and only a
/// run that gained, lost or re-appended a row can change.
pub struct DeltaApply {
    /// The refreshed fragment, columnar, in the delivered order. An empty
    /// delta hands back the base's own columns.
    pub batch: Batch,
    /// Delta rows the splice carried (insertions plus deletions).
    pub delta_rows: u64,
    /// Equal-sort-key runs it rebuilt.
    pub runs: u64,
}

impl DeltaApply {
    /// Splice `delta` into `base`, which must be sorted by `order` — the
    /// fragment's delivered sort order, non-trivial: an unordered
    /// fragment can never be proven byte-identical, so it is rejected
    /// outright. Each delta row's run is located by binary search and
    /// only those runs are rebuilt (base run − deletions + insertions);
    /// the result is the untouched stretches of `base`, as zero-copy
    /// slices, concatenated with the rebuilt runs.
    pub fn splice(base: &Batch, delta: &ZSet, order: &SortSpec) -> Result<Option<DeltaApply>> {
        if order.is_none() {
            return Ok(None);
        }
        let schema = base.schema();
        if delta.schema.len() != schema.len() {
            return Err(ExecError::State("delta and fragment differ in width".into()));
        }
        if delta.is_empty() {
            return Ok(Some(DeltaApply { batch: base.clone(), delta_rows: 0, runs: 0 }));
        }
        let keys = order.resolve(schema);
        if keys.len() != order.keys().len() {
            return Ok(None); // sorted on a column the fragment does not deliver
        }
        let cmp = order.comparator(schema);
        // base row `r` against a delta row, on the sort keys
        let cmp_base = |r: usize, t: &Tuple| {
            keys.iter().fold(Ordering::Equal, |acc, &(i, desc)| {
                let o = base.value_at(r, i).total_cmp(&t[i]);
                acc.then(if desc { o.reverse() } else { o })
            })
        };
        let mut rows: Vec<(&Tuple, &(u64, u64))> = delta.weights.iter().collect();
        rows.sort_by(|a, b| cmp(a.0, b.0));
        let mut pieces = Vec::new();
        let (mut done, mut runs) = (0, 0);
        for group in rows.chunk_by(|a, b| cmp(a.0, b.0).is_eq()) {
            let probe = group[0].0;
            let lo = partition(done, base.len(), |r| cmp_base(r, probe).is_lt());
            let hi = partition(lo, base.len(), |r| cmp_base(r, probe).is_le());
            #[cfg(test)]
            tests::BASE_ROWS_PULLED.with(|n| n.set(n.get() + hi - lo));
            let mut run: Vec<Tuple> = (lo..hi).map(|r| base.tuple_at(r)).collect();
            for &(t, &(ins, del)) in group {
                run.extend(std::iter::repeat_n(t, ins as usize).cloned());
                for _ in 0..del {
                    match run.iter().position(|held| held == t) {
                        Some(at) => run.remove(at),
                        None => return Ok(None), // deleting a row the run never had
                    };
                }
            }
            // order-determined check: a cold refetch may deliver the
            // run's tuples in another interleaving unless all are identical
            if run.windows(2).any(|w| w[0] != w[1]) {
                return Ok(None);
            }
            pieces.push(base.slice(done, lo - done));
            pieces.push(Batch::new(schema.clone(), run));
            (done, runs) = (hi, runs + 1);
        }
        pieces.push(base.slice(done, base.len() - done));
        pieces.retain(|p| !p.is_empty());
        let delta_rows = delta.weights.values().map(|(i, d)| i + d).sum();
        Ok(Some(DeltaApply { batch: Batch::concat(schema.clone(), pieces), delta_rows, runs }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::{tup, Attr, CmpOp, Type};

    thread_local! {
        /// Base rows the splices of this thread pulled out of their
        /// columns (the touched runs).
        pub(super) static BASE_ROWS_PULLED: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

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
        let base = Batch::new(s.clone(), vec![tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10]]);
        let mut d = ZSet::new(s);
        d.add(tup![1, "Amy", 1, 2], 1);
        d.add(tup![2, "Tom", 5, 10], -1);
        let order = SortSpec::by(["PosID", "T1"]);
        let a = DeltaApply::splice(&base, &d, &order).unwrap().expect("determined");
        assert_eq!(a.batch.into_rows()[..], [tup![1, "Amy", 1, 2], tup![1, "Jane", 5, 25]]);
    }

    #[test]
    fn ambiguous_order_bails() {
        let s = schema();
        // two rows equal on the sort key but different elsewhere
        let base = Batch::new(s.clone(), vec![tup![1, "Jane", 5, 25]]);
        let mut d = ZSet::new(s.clone());
        d.add(tup![1, "Tom", 7, 9], 1);
        let order = SortSpec::by(["PosID"]);
        assert!(DeltaApply::splice(&base, &d, &order).unwrap().is_none());
        // deleting a row the base lacks bails too
        let mut d2 = ZSet::new(s);
        d2.add(tup![9, "Nope", 1, 2], -1);
        let order2 = SortSpec::by(["PosID", "EmpName", "T1", "T2"]);
        assert!(DeltaApply::splice(&base, &d2, &order2).unwrap().is_none());
        // and an unordered fragment is rejected outright
        assert!(DeltaApply::splice(&base, &d, &SortSpec::none()).unwrap().is_none());
    }

    /// Three runs under `(PosID, T1)`: a tie of different `T2`s, a pair of
    /// identical rows, a single row.
    fn runs_base() -> Batch {
        let rows = vec![
            tup![1, "A", 5, 10],
            tup![1, "B", 5, 20],
            tup![2, "C", 5, 10],
            tup![2, "C", 5, 10],
            tup![3, "D", 7, 9],
        ];
        Batch::new(schema(), rows).columnarize()
    }

    fn spliced(base: &Batch, writes: &[(Tuple, i64)]) -> Option<DeltaApply> {
        let mut d = ZSet::new(schema());
        writes.iter().for_each(|(t, w)| d.add(t.clone(), *w));
        DeltaApply::splice(base, &d, &SortSpec::by(["PosID", "T1"])).unwrap()
    }

    #[test]
    fn splice_rebuilds_only_the_touched_runs() {
        let base = runs_base();
        let rows = base.clone().into_rows();
        // before the first run, between runs, after the last run
        for (new, at) in [(tup![0, "N", 1, 2], 0), (tup![2, "N", 6, 8], 4), (tup![9, "N", 1, 2], 5)]
        {
            let a = spliced(&base, &[(new.clone(), 1)]).expect("a fresh key is its own run");
            assert_eq!((a.delta_rows, a.runs), (1, 1));
            assert!(a.batch.is_columnar());
            let mut expect = rows.clone();
            expect.insert(at, new);
            assert_eq!(a.batch.into_rows(), expect);
        }
        // the first, last and only run: one more copy of an identical row,
        // and a deletion that empties the run
        let grown = spliced(&base, &[(tup![2, "C", 5, 10], 1)]).expect("stays identical");
        assert_eq!(grown.batch.len(), 6);
        let emptied = spliced(&base, &[(tup![3, "D", 7, 9], -1)]).expect("nothing left to order");
        assert_eq!(emptied.batch.into_rows()[..], rows[..4]);
        let only = Batch::new(schema(), vec![tup![3, "D", 7, 9]]).columnarize();
        assert!(spliced(&only, &[(tup![3, "D", 7, 9], -1)]).unwrap().batch.is_empty());
        assert_eq!(spliced(&only, &[(tup![3, "D", 7, 9], 1)]).unwrap().batch.len(), 2);
        // a write into the tied run is ambiguous, whichever way it goes;
        // a deletion that leaves the run identical is not
        assert!(spliced(&base, &[(tup![1, "Z", 5, 30], 1)]).is_none());
        let a = spliced(&base, &[(tup![1, "B", 5, 20], -1)]).expect("one row left");
        assert_eq!(a.batch.into_rows()[0], tup![1, "A", 5, 10]);
        assert!(spliced(&base, &[(tup![1, "Z", 5, 30], -1)]).is_none(), "not in the run");
        // a descending key is searched in its own direction
        let falling = Batch::new(schema(), vec![tup![3, "D", 7, 9], tup![1, "A", 5, 10]]);
        let mut d = ZSet::new(schema());
        d.add(tup![2, "N", 1, 2], 1);
        let order = SortSpec(vec![tango_algebra::SortKey::desc("PosID")]);
        let a = DeltaApply::splice(&falling, &d, &order).unwrap().expect("a fresh key");
        assert_eq!(a.batch.into_rows()[1], tup![2, "N", 1, 2]);
    }

    #[test]
    fn a_reinserted_row_touches_its_run() {
        let base = runs_base();
        // delete + re-insert nets to zero but moves the row behind the
        // rows it ties with: only an all-identical run is still determined
        let moved = |t: Tuple| spliced(&base, &[(t.clone(), -1), (t, 1)]);
        assert!(moved(tup![1, "A", 5, 10]).is_none());
        let a = moved(tup![2, "C", 5, 10]).expect("identical rows have one order");
        assert_eq!((a.delta_rows, a.runs), (2, 1));
        assert_eq!(a.batch.into_rows(), base.clone().into_rows());
    }

    #[test]
    fn splice_cost_follows_the_delta() {
        let rows: Vec<Tuple> = (0..10_000).map(|i| tup![i / 4, "E", i % 4, 99]).collect();
        let base = Batch::new(schema(), rows).columnarize();
        let shared = |b: &Batch| b.columns().unwrap().0.as_ptr();
        // an empty delta hands back the base's own columns
        let same = spliced(&base, &[]).expect("nothing to order");
        assert_eq!((same.delta_rows, same.runs), (0, 0));
        assert_eq!(shared(&same.batch), shared(&base));
        // a row with a fresh key is placed without reading a base tuple
        BASE_ROWS_PULLED.with(|n| n.set(0));
        let a = spliced(&base, &[(tup![1234, "E", 7, 99], 1)]).expect("a fresh key");
        assert_eq!(BASE_ROWS_PULLED.with(|n| n.get()), 0);
        assert_eq!(a.batch.len(), 10_001);
        assert_eq!(a.batch.tuple_at(4 * 1234 + 4), tup![1234, "E", 7, 99]);
        // and a row joining a run reads that run only
        spliced(&base, &[(tup![1234, "E", 2, 99], 1)]).expect("identical to the row it joins");
        assert_eq!(BASE_ROWS_PULLED.with(|n| n.get()), 1);
    }
}
