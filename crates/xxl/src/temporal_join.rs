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
//! The sweep is [`crate::merge_join`]'s; only what it emits is temporal:
//! the non-period attributes of both rows (the right side's join
//! attributes dropped), gathered by column, over the intersection of their
//! periods, computed over the endpoints flattened to days. A pair whose
//! periods do not overlap — or one of which is NULL or empty — joins
//! nothing.

use crate::cursor::{BoxCursor, Cursor, ExecError, Result};
use crate::merge_join::{resolve_keys, sort_merge_cursor, Emit, Periods, SortMerge};
use std::sync::Arc;
use tango_algebra::logical::tjoin_schema;
use tango_algebra::{Batch, Schema, Type, DEFAULT_BATCH_ROWS};

/// The `TMERGEJOIN^M` cursor: sort-merge temporal equi join — matches on
/// the join attributes *and* overlapping periods, emitting the
/// intersected period. Inputs sorted on the join attributes.
pub struct TemporalMergeJoin(SortMerge);

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
        let name = "temporal join";
        let (ls, rs) = (left.schema(), right.schema());
        let lperiod = ls
            .period()
            .ok_or_else(|| ExecError::State("temporal join: left input not temporal".into()))?;
        let rperiod = rs
            .period()
            .ok_or_else(|| ExecError::State("temporal join: right input not temporal".into()))?;
        let keys = resolve_keys(name, ls, rs, eq)?;
        let schema = Arc::new(tjoin_schema(eq, ls, rs)?);
        let emit = Emit {
            name,
            groups: "key_groups",
            lkeep: (0..ls.len()).filter(|&i| i != lperiod.0 && i != lperiod.1).collect(),
            rkeep: (0..rs.len())
                .filter(|&i| i != rperiod.0 && i != rperiod.1 && !keys.1.contains(&i))
                .collect(),
            periods: Some(Periods {
                left: lperiod,
                right: rperiod,
                // `tjoin_schema` types the output period like the left input's
                dates: matches!(ls.attr(lperiod.0).ty, Type::Date),
            }),
        };
        Ok(TemporalMergeJoin(SortMerge::new(left, right, keys, emit, schema, batch_rows)))
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
