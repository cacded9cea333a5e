//! Translator cross-validation: the same physical fragment evaluated
//! (a) by the middleware's XXL cursors and (b) by the Translator-To-SQL +
//! mini-DBMS must produce the same multiset. This pins the two
//! independent implementations of every temporal operator against each
//! other on randomized data.

use proptest::prelude::*;
use std::sync::Arc;
use tango::algebra::{tup, AggFunc, AggSpec, Attr, Relation, Schema, SortSpec, Type, Value};
use tango::core::phys::{Algo, PhysNode};
use tango::core::to_sql::render_select;
use tango::minidb::{Connection, Database, Link, LinkProfile};
use tango::xxl::{collect, TemporalAggregate, TemporalMergeJoin, VecScan};

type Row = (i64, i64, i32, i32);

fn schema() -> Schema {
    Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("EmpID", Type::Int),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ])
}

fn relation(rows: &[Row]) -> Relation {
    Relation::new(Arc::new(schema()), rows.iter().map(|&(p, e, a, b)| tup![p, e, a, b]).collect())
}

fn db_with(rows: &[Row]) -> Connection {
    let db = Database::new(Link::new(LinkProfile::instant()));
    db.create_table("R", schema()).unwrap();
    db.insert_rows("R", relation(rows).into_tuples()).unwrap();
    Connection::new(db)
}

/// (PosID, Pay or NULL, T1, T2): an input with a DOUBLE argument.
type PayRow = (i64, Option<f64>, i32, i32);

fn pay_schema() -> Schema {
    Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("Pay", Type::Double),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ])
}

/// `TAGGR^M` and `TAGGR^D` (the SQL the translator renders, run by the
/// DBMS) over the same `PayRow`s, grouped on PosID.
fn taggr_both_ways(rows: &[PayRow], aggs: Vec<AggSpec>) -> (Relation, Relation, String) {
    let pay = |p: Option<f64>| p.map_or(Value::Null, Value::Double);
    let tuples = rows.iter().map(|&(g, p, a, b)| tup![g, pay(p), a, b]).collect();
    let rel = Relation::new(Arc::new(pay_schema()), tuples);
    let db = Database::new(Link::new(LinkProfile::instant()));
    db.create_table("R", pay_schema()).unwrap();
    db.insert_rows("R", rel.clone().into_tuples()).unwrap();
    let mut sorted = rel;
    sorted.sort_by(&SortSpec::by(["PosID", "T1"]));
    let group_by = vec!["PosID".to_string()];
    let agg =
        TemporalAggregate::new(Box::new(VecScan::new(sorted)), group_by.clone(), aggs.clone());
    let mid = collect(Box::new(agg.unwrap())).unwrap();
    let scan = PhysNode::scan("R", pay_schema());
    let sql_node = PhysNode::over(Algo::TAggrD { group_by, aggs }, vec![scan]).unwrap();
    let sql = render_select(&sql_node).unwrap();
    let dbms = Connection::new(db).query_all(&sql).unwrap();
    (mid, dbms, sql)
}

fn every_pay_aggregate() -> Vec<AggSpec> {
    [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max]
        .into_iter()
        .map(|f| AggSpec::new(f, Some("Pay"), f.sql()))
        .collect()
}

/// A running `f64` sum drifts as the sweep adds and removes values: on
/// [5, 10) only the 0.1 row holds, but 0.1 + 0.2 + 0.3 − 0.2 − 0.3 is
/// 0.10000000000000009. Both placements must read exactly 0.1.
#[test]
fn taggr_sum_over_double_has_no_drift() {
    let rows = [(1, Some(0.1), 0, 10), (1, Some(0.2), 1, 3), (1, Some(0.3), 2, 5)];
    let aggs = vec![
        AggSpec::new(AggFunc::Sum, Some("Pay"), "S"),
        AggSpec::new(AggFunc::Avg, Some("Pay"), "A"),
    ];
    let (mid, dbms, sql) = taggr_both_ways(&rows, aggs);
    assert!(mid.multiset_eq(&dbms), "sql: {sql}\nmid:\n{mid}\ndbms:\n{dbms}");
    let last = mid.tuples().last().unwrap();
    assert_eq!((last[1].as_int(), last[2].as_int()), (Some(5), Some(10)));
    assert_eq!(last[3].as_f64(), Some(0.1));
    assert_eq!(last[4].as_f64(), Some(0.1));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// TAGGR^M vs TAGGR^D for every aggregate over a DOUBLE column with
    /// NULLs: the two placements agree to the bit.
    #[test]
    fn taggr_every_aggregate_over_double(
        raw in proptest::collection::vec((0i64..4, -5i64..20, 0i32..25, 1i32..10), 1..30),
    ) {
        let pay = |k: i64| (k != -5).then_some(k as f64 * 0.1);
        let rows: Vec<PayRow> = raw.into_iter().map(|(p, k, a, d)| (p, pay(k), a, a + d)).collect();
        let (mid, dbms, sql) = taggr_both_ways(&rows, every_pay_aggregate());
        prop_assert!(
            mid.multiset_eq(&dbms),
            "taggr diverged\nsql: {sql}\nmid:\n{mid}\ndbms:\n{dbms}"
        );
    }

    /// TAGGR^M vs the constant-period SQL of TAGGR^D; a row with an
    /// empty period bounds no constant period on either side.
    #[test]
    fn taggr_cursor_vs_sql(
        raw in proptest::collection::vec((0i64..4, 0i64..5, 0i32..25, 0i32..10), 1..30),
    ) {
        let rows: Vec<Row> = raw.into_iter().map(|(p, e, a, d)| (p, e, a, a + d)).collect();
        let aggs = vec![
            AggSpec::new(AggFunc::Count, Some("PosID"), "C"),
            AggSpec::new(AggFunc::Min, Some("EmpID"), "MN"),
            AggSpec::new(AggFunc::Max, Some("EmpID"), "MX"),
        ];
        // middleware side
        let mut sorted = relation(&rows);
        sorted.sort_by(&SortSpec::by(["PosID", "T1"]));
        let agg = TemporalAggregate::new(
            Box::new(VecScan::new(sorted)),
            vec!["PosID".into()],
            aggs.clone(),
        ).unwrap();
        let mid = collect(Box::new(agg)).unwrap();
        // DBMS side via the translator
        let sql_node = PhysNode::over(Algo::TAggrD { group_by: vec!["PosID".into()], aggs }, vec![PhysNode::scan("R", schema())]).unwrap();
        let sql = render_select(&sql_node).unwrap();
        let dbms = db_with(&rows).query_all(&sql).unwrap();
        prop_assert!(
            mid.multiset_eq(&dbms),
            "taggr diverged\nsql: {sql}\nmid:\n{mid}\ndbms:\n{dbms}"
        );
    }

    /// TMERGEJOIN^M vs the Figure 5 SQL of TJOIN^D (self join); a row
    /// with an empty period joins nothing on either side.
    #[test]
    fn tjoin_cursor_vs_sql(
        raw in proptest::collection::vec((0i64..4, 0i64..5, 0i32..25, 0i32..10), 1..25),
    ) {
        let rows: Vec<Row> = raw.into_iter().map(|(p, e, a, d)| (p, e, a, a + d)).collect();
        let eq = vec![("PosID".to_string(), "PosID".to_string())];
        // middleware side
        let mut sorted = relation(&rows);
        sorted.sort_by(&SortSpec::by(["PosID"]));
        let tj = TemporalMergeJoin::new(
            Box::new(VecScan::new(sorted.clone())),
            Box::new(VecScan::new(sorted)),
            &eq,
        ).unwrap();
        let mid = collect(Box::new(tj)).unwrap();
        // DBMS side
        let sql_node = PhysNode::over(Algo::TJoinD(eq), vec![PhysNode::scan("R", schema()), PhysNode::scan("R", schema())]).unwrap();
        let sql = render_select(&sql_node).unwrap();
        let dbms = db_with(&rows).query_all(&sql).unwrap();
        prop_assert!(
            mid.multiset_eq(&dbms),
            "tjoin diverged\nsql: {sql}\nmid:\n{mid}\ndbms:\n{dbms}"
        );
    }

    /// Stacked fragments: filter + project + sort render into one SELECT
    /// pyramid whose result matches direct evaluation.
    #[test]
    fn stacked_fragment_round_trips(
        raw in proptest::collection::vec((0i64..6, 0i64..9, 0i32..25, 1i32..10), 0..25),
        cut in 0i64..6,
    ) {
        use tango::algebra::{CmpOp, Expr, ProjItem};
        let rows: Vec<Row> = raw.into_iter().map(|(p, e, a, d)| (p, e, a, a + d)).collect();
        let pred = Expr::cmp(CmpOp::Ge, Expr::col("PosID"), Expr::lit(cut));
        let frag = PhysNode::over(Algo::SortD(SortSpec::by(["EmpID", "T1"])), vec![PhysNode::over(Algo::ProjectD(vec![ProjItem::col("EmpID"), ProjItem::col("T1")]), vec![PhysNode::over(Algo::FilterD(pred.clone()), vec![PhysNode::scan("R", schema())]).unwrap()]).unwrap()]).unwrap();
        let sql = render_select(&frag).unwrap();
        let dbms = db_with(&rows).query_all(&sql).unwrap();
        // reference: direct computation
        let mut want: Vec<(i64, i64)> = rows
            .iter()
            .filter(|&&(p, _, _, _)| p >= cut)
            .map(|&(_, e, a, _)| (e, a as i64))
            .collect();
        want.sort();
        let got: Vec<(i64, i64)> = dbms
            .tuples()
            .iter()
            .map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap()))
            .collect();
        prop_assert_eq!(got, want, "sql: {}", sql);
    }
}
