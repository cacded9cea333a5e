//! `TMERGEJOIN^M` — temporal sort-merge join (⋈ᵀ).
//!
//! Matches tuples with equal join-attribute values whose valid-time
//! periods overlap, producing the intersected period
//! `[GREATEST(T1, T1'), LEAST(T2, T2'))` — the algebraic counterpart of
//! the SQL emitted for DBMS-side temporal joins (Figure 5).
//!
//! Inputs must be sorted on the join attributes; the output is ordered by
//! them, so a query that sorts its result on the join key needs no extra
//! sort after this algorithm (exploited by Queries 2 and 3 in the paper).
//! The sweep is [`crate::merge_join`]'s; only the pairing is temporal.

use crate::cursor::{period_values, read_period, BoxCursor, Cursor, ExecError, Result};
use crate::merge_join::{resolve_keys, sort_merge_cursor, Pairing, SortMerge};
use std::sync::Arc;
use tango_algebra::logical::tjoin_schema;
use tango_algebra::{Batch, Period, Schema, Tuple, Type, DEFAULT_BATCH_ROWS};

/// `TMERGEJOIN^M`'s pairing: the non-period attributes of both rows (the
/// right side's join attributes dropped) over the intersection of their
/// periods; a pair whose periods do not overlap — or one of which is
/// NULL or empty — contributes nothing.
struct Intersect {
    /// Left attribute indices copied to the output (non-period).
    lkeep: Vec<usize>,
    /// Right attribute indices copied to the output (non-period, non-key).
    rkeep: Vec<usize>,
    lperiod: (usize, usize),
    rperiod: (usize, usize),
    date_typed: bool,
    /// Periods of the matched groups, parsed once per group instead of
    /// once per (left, right) pair.
    lper: Vec<Option<Period>>,
    rper: Vec<Option<Period>>,
}

impl Pairing for Intersect {
    const NAME: &'static str = "temporal join";
    const GROUPS: &'static str = "key_groups";

    fn begin(&mut self, left: &[Tuple], right: &[Tuple]) {
        self.lper.clear();
        self.lper.extend(left.iter().map(|t| read_period(t, self.lperiod)));
        self.rper.clear();
        self.rper.extend(right.iter().map(|t| read_period(t, self.rperiod)));
    }

    fn pair(&self, i: usize, j: usize, l: &Tuple, r: &Tuple) -> Option<Tuple> {
        let p = self.lper[i]?.intersect(&self.rper[j]?)?;
        let mut out = Vec::with_capacity(self.lkeep.len() + self.rkeep.len() + 2);
        out.extend(self.lkeep.iter().map(|&c| l[c].clone()));
        out.extend(self.rkeep.iter().map(|&c| r[c].clone()));
        let (t1, t2) = period_values(self.date_typed, p);
        out.push(t1);
        out.push(t2);
        Some(Tuple::new(out))
    }
}

/// The `TMERGEJOIN^M` cursor: sort-merge temporal equi join — matches on
/// the join attributes *and* overlapping periods, emitting the
/// intersected period. Inputs sorted on the join attributes.
pub struct TemporalMergeJoin(SortMerge<Intersect>);

impl TemporalMergeJoin {
    /// Temporal join of `left` and `right` on the `eq` attribute pairs.
    pub fn new(left: BoxCursor, right: BoxCursor, eq: &[(String, String)]) -> Result<Self> {
        Self::with_batch_rows(left, right, eq, DEFAULT_BATCH_ROWS)
    }

    /// Like [`TemporalMergeJoin::new`], pulling its inputs `batch_rows` at
    /// a time.
    pub fn with_batch_rows(
        left: BoxCursor,
        right: BoxCursor,
        eq: &[(String, String)],
        batch_rows: usize,
    ) -> Result<Self> {
        let (ls, rs) = (left.schema(), right.schema());
        let lperiod = ls
            .period()
            .ok_or_else(|| ExecError::State("temporal join: left input not temporal".into()))?;
        let rperiod = rs
            .period()
            .ok_or_else(|| ExecError::State("temporal join: right input not temporal".into()))?;
        let keys = resolve_keys(Intersect::NAME, ls, rs, eq)?;
        let schema = Arc::new(tjoin_schema(eq, ls, rs)?);
        let pairing = Intersect {
            lkeep: (0..ls.len()).filter(|&i| i != lperiod.0 && i != lperiod.1).collect(),
            rkeep: (0..rs.len())
                .filter(|&i| i != rperiod.0 && i != rperiod.1 && !keys.1.contains(&i))
                .collect(),
            lperiod,
            rperiod,
            // `tjoin_schema` types the output period like the left input's
            date_typed: matches!(ls.attr(lperiod.0).ty, Type::Date),
            lper: Vec::new(),
            rper: Vec::new(),
        };
        Ok(TemporalMergeJoin(SortMerge::new(left, right, keys, pairing, schema, batch_rows)))
    }
}

sort_merge_cursor!(TemporalMergeJoin);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use crate::taggr::TemporalAggregate;
    use crate::testutil::figure3_position;
    use proptest::prelude::*;
    use tango_algebra::{tup, AggFunc, AggSpec, Attr, Relation, SortSpec, Type};

    /// The Section 2.2 example: temporally join the aggregation result of
    /// Figure 3(c) with POSITION on PosID, producing Figure 3(b).
    #[test]
    fn figure3_query_result() {
        let pos = figure3_position();
        let mut sorted = pos.clone();
        sorted.sort_by(&SortSpec::by(["PosID", "T1"]));
        let agg = TemporalAggregate::new(
            Box::new(VecScan::new(sorted.clone())),
            vec!["PosID".into()],
            vec![AggSpec::new(AggFunc::Count, Some("PosID"), "COUNTofPosID")],
        )
        .unwrap();
        let tj = TemporalMergeJoin::new(
            Box::new(VecScan::new(sorted)),
            Box::new(agg),
            &[("PosID".to_string(), "PosID".to_string())],
        )
        .unwrap();
        let got = collect(Box::new(tj)).unwrap();
        // Figure 3(b), modulo column order: our layout is
        // (PosID, EmpName, COUNTofPosID, T1, T2).
        let expected = vec![
            tup![1, "Tom", 1, 2, 5],
            tup![1, "Tom", 2, 5, 20],
            tup![1, "Jane", 2, 5, 20],
            tup![1, "Jane", 1, 20, 25],
            tup![2, "Tom", 1, 5, 10],
        ];
        assert_eq!(got.tuples(), expected.as_slice());
        assert_eq!(
            got.schema().names().collect::<Vec<_>>(),
            vec!["PosID", "EmpName", "COUNTofPosID", "T1", "T2"]
        );
    }

    fn temporal_rel(vals: &[(i64, i64, i32, i32)]) -> Relation {
        let s = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("K", Type::Int),
            Attr::new("V", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        Relation::new(s, vals.iter().map(|&(k, v, t1, t2)| tup![k, v, t1, t2]).collect())
    }

    /// Once the right input has ended no further left group is read:
    /// the first left batch is pulled at `open`, the second closes the
    /// key-1 group, the other two stay unread.
    #[test]
    fn right_input_ending_first_pulls_no_further_left_batch() {
        let rows: Vec<_> = (2..10).map(|i| (i / 2, i, 0, 9)).collect();
        let (left, pulls) = crate::testutil::counting_scan(temporal_rel(&rows));
        let right = Box::new(VecScan::new(temporal_rel(&[(1, 0, 3, 5)])));
        let tj = TemporalMergeJoin::with_batch_rows(left, right, &[("K".into(), "K".into())], 2);
        assert_eq!(collect(Box::new(tj.unwrap())).unwrap().len(), 2);
        assert_eq!(pulls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    proptest! {
        #[test]
        fn agrees_with_nested_loop_reference(
            l in proptest::collection::vec((0i64..5, 0i64..100, 0i32..20, 1i32..10), 0..30),
            r in proptest::collection::vec((0i64..5, 0i64..100, 0i32..20, 1i32..10), 0..30),
        ) {
            let fix = |v: Vec<(i64, i64, i32, i32)>| -> Vec<(i64, i64, i32, i32)> {
                v.into_iter().map(|(k, x, t1, d)| (k, x, t1, t1 + d)).collect()
            };
            let (l, r) = (fix(l), fix(r));
            let mut lr = temporal_rel(&l);
            let mut rr = temporal_rel(&r);
            lr.sort_by(&SortSpec::by(["K"]));
            rr.sort_by(&SortSpec::by(["K"]));
            let tj = TemporalMergeJoin::new(
                Box::new(VecScan::new(lr)),
                Box::new(VecScan::new(rr)),
                &[("K".to_string(), "K".to_string())],
            ).unwrap();
            let got = collect(Box::new(tj)).unwrap();

            let mut expect = Vec::new();
            let mut ls = l; ls.sort();
            let mut rs = r; rs.sort();
            for &(lk, lv, lt1, lt2) in &ls {
                for &(rk, rv, rt1, rt2) in &rs {
                    if lk == rk {
                        if let Some(p) = Period::new(lt1, lt2).intersect(&Period::new(rt1, rt2)) {
                            expect.push(tup![lk, lv, rv, p.start, p.end]);
                        }
                    }
                }
            }
            let schema = got.schema().clone();
            let expected_rel = Relation::new(schema, expect);
            prop_assert!(got.multiset_eq(&expected_rel));
        }

        #[test]
        fn output_ordered_by_join_key(
            l in proptest::collection::vec((0i64..5, 0i64..10, 0i32..20, 1i32..10), 0..30),
        ) {
            let fixed: Vec<_> = l.into_iter().map(|(k, x, t1, d)| (k, x, t1, t1 + d)).collect();
            let mut rel1 = temporal_rel(&fixed);
            let mut rel2 = temporal_rel(&fixed);
            rel1.sort_by(&SortSpec::by(["K"]));
            rel2.sort_by(&SortSpec::by(["K"]));
            let tj = TemporalMergeJoin::new(
                Box::new(VecScan::new(rel1)),
                Box::new(VecScan::new(rel2)),
                &[("K".to_string(), "K".to_string())],
            ).unwrap();
            let got = collect(Box::new(tj)).unwrap();
            prop_assert!(got.is_sorted_by(&SortSpec::by(["K"])));
        }
    }
}
