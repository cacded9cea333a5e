//! Translator cross-validation: the same physical fragment evaluated
//! (a) by the middleware's XXL cursors and (b) by the Translator-To-SQL +
//! mini-DBMS must produce the same multiset. This pins the two
//! independent implementations of every temporal operator against each
//! other on randomized data.

use proptest::prelude::*;
use std::sync::Arc;
use tango::algebra::{tup, AggFunc, AggSpec, Attr, Relation, Schema, SortSpec, Type};
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// TAGGR^M vs the constant-period SQL of TAGGR^D.
    #[test]
    fn taggr_cursor_vs_sql(
        raw in proptest::collection::vec((0i64..4, 0i64..5, 0i32..25, 1i32..10), 1..30),
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

    /// TMERGEJOIN^M vs the Figure 5 SQL of TJOIN^D (self join).
    #[test]
    fn tjoin_cursor_vs_sql(
        raw in proptest::collection::vec((0i64..4, 0i64..5, 0i32..25, 1i32..10), 1..25),
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
