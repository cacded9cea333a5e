//! Plan-placement equivalence on fixed inputs: the paper's hand-built
//! Figure 7 / 9 / 11a placements agree, ORDER BY holds on either side of
//! the wire, a NULL period endpoint joins nothing in either placement,
//! and the snapshot-approximate `G4-taggr-window-push(approx)` rule keeps
//! snapshots. Generated statements under every placement are
//! `tests/oracle.rs`'s.

mod support;

use support::{dbms_heavy, mid_heavy, position_db, Row};
use tango::algebra::{tup, Attr, Relation, Schema, SortSpec, Type, Value};
use tango::core::cost::CostFactors;
use tango::minidb::{Connection, Database, Link, LinkProfile};
use tango::Tango;

fn run_with_factors(db: &Database, sql: &str, factors: CostFactors) -> (Relation, String) {
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().opt.approx_rules = false;
    tango.set_factors(factors);
    let (rel, report) = tango.query(sql).unwrap_or_else(|e| panic!("{e}\nsql: {sql}"));
    (rel, report.optimized.explain())
}

/// The approximate window-push rule must preserve *snapshot* semantics:
/// within the window, the aggregate at every time point is unchanged.
#[test]
fn approx_window_push_preserves_snapshots() {
    let rows: Vec<Row> = vec![
        (1, 1, 9.0, 0, 100),
        (1, 2, 9.0, 10, 30),
        (1, 3, 9.0, 25, 60),
        (2, 4, 9.0, 5, 95),
        (2, 5, 9.0, 40, 45),
    ];
    let db = position_db(LinkProfile::instant(), &rows);
    let sql = "VALIDTIME SELECT P.PosID, C, P.EmpID FROM \
               (VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION GROUP BY PosID) A, \
               POSITION P WHERE A.PosID = P.PosID AND T1 < 50 AND T2 > 20 ORDER BY P.PosID";

    let run = |approx: bool| -> Relation {
        let mut tango = Tango::connect(db.clone());
        tango.options_mut().opt.approx_rules = approx;
        // force the middleware so the pushed/unpushed variants actually differ
        tango.set_factors(mid_heavy());
        tango.query(sql).unwrap().0
    };
    let with_push = run(true);
    let without_push = run(false);

    // compare snapshots at every point inside the window (20..50)
    let snap = |rel: &Relation, t: i64| -> Vec<(i64, i64, i64)> {
        let s = rel.schema().clone();
        let (i1, i2) = s.period().unwrap();
        let mut v: Vec<(i64, i64, i64)> = rel
            .tuples()
            .iter()
            .filter(|r| r[i1].as_int().unwrap() <= t && t < r[i2].as_int().unwrap())
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap(), r[2].as_int().unwrap()))
            .collect();
        v.sort();
        v
    };
    for t in 20..50 {
        assert_eq!(snap(&with_push, t), snap(&without_push, t), "snapshot diverges at t={t}");
    }
}

// ---------------------------------------------------------------------
// Differential placement harness: hand-built physical plans pinning the
// paper's Figure 7 / 9 / 11a placements — all-DBMS, all-middleware, and
// mixed (including a TRANSFER^D round trip) — executed directly against
// the same database. Whatever side of the wire each operator lands on,
// the sorted results must be identical.
// ---------------------------------------------------------------------

mod placements {
    use super::{position_db, LinkProfile, Row};
    use tango::algebra::{AggFunc, AggSpec, Expr, ProjItem, Relation, SortSpec};
    use tango::core::engine::Executor;
    use tango::core::phys::{Algo, PhysNode};
    use tango::minidb::{Connection, Database};

    struct PlanBuilder {
        conn: Connection,
    }

    impl PlanBuilder {
        fn scan(&self, table: &str) -> PhysNode {
            PhysNode::scan(table, self.conn.table_schema(table).unwrap())
        }
    }

    fn count_agg() -> (Vec<String>, Vec<AggSpec>) {
        (vec!["PosID".into()], vec![AggSpec::new(AggFunc::Count, Some("PosID"), "Cnt")])
    }

    fn proj(cols: &[&str]) -> Vec<ProjItem> {
        cols.iter().map(|c| ProjItem::col(*c)).collect()
    }

    fn eq_posid() -> Vec<(String, String)> {
        vec![("PosID".into(), "PosID".into())]
    }

    /// Figure 7's three Query 1 placements.
    fn q1_plans(b: &PlanBuilder) -> Vec<(&'static str, PhysNode)> {
        let (group_by, aggs) = count_agg();
        let dbms_proj = |b: &PlanBuilder| {
            PhysNode::over(Algo::ProjectD(proj(&["PosID", "T1", "T2"])), vec![b.scan("POSITION")])
                .unwrap()
        };
        let keys = SortSpec::by(["PosID", "T1"]);
        let p1 = PhysNode::over(
            Algo::TAggrM { group_by: group_by.clone(), aggs: aggs.clone() },
            vec![PhysNode::over(
                Algo::TransferM,
                vec![PhysNode::over(Algo::SortD(keys.clone()), vec![dbms_proj(b)]).unwrap()],
            )
            .unwrap()],
        )
        .unwrap();
        let p2 = PhysNode::over(
            Algo::TAggrM { group_by: group_by.clone(), aggs: aggs.clone() },
            vec![PhysNode::over(
                Algo::SortM(keys.clone()),
                vec![PhysNode::over(Algo::TransferM, vec![dbms_proj(b)]).unwrap()],
            )
            .unwrap()],
        )
        .unwrap();
        let p3 = PhysNode::over(
            Algo::TransferM,
            vec![PhysNode::over(
                Algo::SortD(keys),
                vec![PhysNode::over(Algo::TAggrD { group_by, aggs }, vec![dbms_proj(b)]).unwrap()],
            )
            .unwrap()],
        )
        .unwrap();
        vec![("mixed: sortD+taggrM", p1), ("middleware: sortM+taggrM", p2), ("all DBMS", p3)]
    }

    /// Figure 9-style Query 2 placements, including the round trip that
    /// loads the middleware aggregate back with `TRANSFER^D`.
    fn q2_plans(b: &PlanBuilder) -> Vec<(&'static str, PhysNode)> {
        let (group_by, aggs) = count_agg();
        let keys = SortSpec::by(["PosID", "T1"]);
        let arg = |b: &PlanBuilder| {
            PhysNode::over(Algo::ProjectD(proj(&["PosID", "T1", "T2"])), vec![b.scan("POSITION")])
                .unwrap()
        };
        let agg_m = |b: &PlanBuilder| {
            PhysNode::over(
                Algo::TAggrM { group_by: group_by.clone(), aggs: aggs.clone() },
                vec![PhysNode::over(
                    Algo::TransferM,
                    vec![PhysNode::over(Algo::SortD(keys.clone()), vec![arg(b)]).unwrap()],
                )
                .unwrap()],
            )
            .unwrap()
        };
        let payrate = || Expr::cmp(tango::algebra::CmpOp::Gt, Expr::col("PayRate"), Expr::lit(5.0));
        let p_side = |b: &PlanBuilder| {
            PhysNode::over(Algo::FilterD(payrate()), vec![b.scan("POSITION")]).unwrap()
        };

        // mixed with T^D: aggregate in the middleware, join + sort in the DBMS
        let p1 = PhysNode::over(
            Algo::TransferM,
            vec![PhysNode::over(
                Algo::SortD(SortSpec::by(["PosID"])),
                vec![PhysNode::over(
                    Algo::TJoinD(eq_posid()),
                    vec![PhysNode::over(Algo::TransferD, vec![agg_m(b)]).unwrap(), p_side(b)],
                )
                .unwrap()],
            )
            .unwrap()],
        )
        .unwrap();
        // middleware join over a DBMS-sorted probe side
        let p2 = PhysNode::over(
            Algo::TMergeJoinM(eq_posid()),
            vec![
                agg_m(b),
                PhysNode::over(
                    Algo::TransferM,
                    vec![PhysNode::over(Algo::SortD(SortSpec::by(["PosID"])), vec![p_side(b)])
                        .unwrap()],
                )
                .unwrap(),
            ],
        )
        .unwrap();
        // everything in the DBMS
        let p3 = PhysNode::over(
            Algo::TransferM,
            vec![PhysNode::over(
                Algo::SortD(SortSpec::by(["PosID"])),
                vec![PhysNode::over(
                    Algo::TJoinD(eq_posid()),
                    vec![
                        PhysNode::over(Algo::TAggrD { group_by, aggs }, vec![arg(b)]).unwrap(),
                        p_side(b),
                    ],
                )
                .unwrap()],
            )
            .unwrap()],
        )
        .unwrap();
        vec![("mixed: taggrM+T^D+joinD", p1), ("middleware: tjoinM", p2), ("all DBMS", p3)]
    }

    /// Figure 11a's Query 3 placements: temporal self-join in the DBMS
    /// vs. in the middleware.
    fn q3_plans(b: &PlanBuilder) -> Vec<(&'static str, PhysNode)> {
        let sel = Expr::cmp(tango::algebra::CmpOp::Lt, Expr::col("T1"), Expr::lit(40));
        let side = |b: &PlanBuilder| {
            PhysNode::over(
                Algo::ProjectD(proj(&["PosID", "EmpID", "T1", "T2"])),
                vec![PhysNode::over(Algo::FilterD(sel.clone()), vec![b.scan("POSITION")]).unwrap()],
            )
            .unwrap()
        };
        let p1 = PhysNode::over(
            Algo::TransferM,
            vec![PhysNode::over(
                Algo::SortD(SortSpec::by(["PosID"])),
                vec![PhysNode::over(Algo::TJoinD(eq_posid()), vec![side(b), side(b)]).unwrap()],
            )
            .unwrap()],
        )
        .unwrap();
        let sorted_side = |b: &PlanBuilder| {
            PhysNode::over(
                Algo::TransferM,
                vec![PhysNode::over(Algo::SortD(SortSpec::by(["PosID"])), vec![side(b)]).unwrap()],
            )
            .unwrap()
        };
        let p2 =
            PhysNode::over(Algo::TMergeJoinM(eq_posid()), vec![sorted_side(b), sorted_side(b)])
                .unwrap();
        vec![("all DBMS", p1), ("middleware: tjoinM", p2)]
    }

    fn run(conn: &Connection, plan: &PhysNode) -> Relation {
        Executor::new(conn).run(plan).unwrap_or_else(|e| panic!("{e}\nplan:\n{plan:?}")).rel
    }

    fn assert_placements_agree(db: &Database, plans: Vec<(&'static str, PhysNode)>, query: &str) {
        let conn = Connection::new(db.clone());
        let (ref_name, ref_plan) = &plans[0];
        let reference = run(&conn, ref_plan);
        for (name, plan) in &plans[1..] {
            let got = run(&conn, plan);
            assert!(
                got.multiset_eq(&reference),
                "{query}: placement `{name}` disagrees with `{ref_name}`\n\
                 {ref_name}:\n{reference}\n{name}:\n{got}"
            );
        }
    }

    fn dataset() -> Database {
        let rows: Vec<Row> = (0..48)
            .map(|i| {
                let t1 = ((i * 13) % 55) as i32;
                (1 + i % 5, 1 + (i * 7) % 11, ((i * 3) % 17) as f64, t1, t1 + 2 + (i % 9) as i32)
            })
            .collect();
        position_db(LinkProfile::instant(), &rows)
    }

    #[test]
    fn q1_placements_agree() {
        let db = dataset();
        let b = PlanBuilder { conn: Connection::new(db.clone()) };
        assert_placements_agree(&db, q1_plans(&b), "Q1");
    }

    #[test]
    fn q2_placements_agree() {
        let db = dataset();
        let b = PlanBuilder { conn: Connection::new(db.clone()) };
        assert_placements_agree(&db, q2_plans(&b), "Q2");
    }

    #[test]
    fn q3_placements_agree() {
        let db = dataset();
        let b = PlanBuilder { conn: Connection::new(db.clone()) };
        assert_placements_agree(&db, q3_plans(&b), "Q3");
    }
}

/// Sorted delivery: whatever the placement, ORDER BY must hold.
#[test]
fn order_by_is_respected_everywhere() {
    let rows: Vec<Row> =
        (0..30).map(|i| ((i * 7) % 5, i, 8.0, (i % 10) as i32, (i % 10 + 3) as i32)).collect();
    let db = position_db(LinkProfile::instant(), &rows);
    let sql = "VALIDTIME SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
               WHERE A.PosID = B.PosID ORDER BY A.PosID";
    for f in [mid_heavy(), dbms_heavy(), CostFactors::default()] {
        let (rel, plan) = run_with_factors(&db, sql, f);
        assert!(rel.is_sorted_by(&SortSpec::by(["PosID"])), "unsorted output from plan:\n{plan}");
    }
}

/// A row whose period has a NULL endpoint holds at no time point, so it
/// joins nothing — wherever the temporal join runs. `TJOIN^D` gets that
/// from SQL's three-valued `A.T1 < B.T2 AND B.T1 < A.T2`; `TMERGEJOIN^M`
/// must read the period the same way.
#[test]
fn null_period_endpoints_join_nothing_in_either_placement() {
    let db = Database::new(Link::new(LinkProfile::instant()));
    let schema = || {
        Schema::with_inferred_period(vec![
            Attr::new("K", Type::Int),
            Attr::new("V", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ])
    };
    db.create_table("A", schema()).unwrap();
    db.create_table("B", schema()).unwrap();
    db.insert_rows("A", vec![tup![1, 10, 2, 9], tup![1, 11, Value::Null, 10]]).unwrap();
    db.insert_rows("B", vec![tup![1, 20, 5, 8]]).unwrap();
    for t in ["A", "B"] {
        Connection::new(db.clone())
            .execute(&format!("ANALYZE TABLE {t} COMPUTE STATISTICS"))
            .unwrap();
    }
    let sql = "VALIDTIME SELECT A.K, A.V, B.V FROM A, B WHERE A.K = B.K";
    let (mid, mid_plan) = run_with_factors(&db, sql, mid_heavy());
    assert!(mid_plan.contains("TMERGEJOIN^M"), "{mid_plan}");
    let in_dbms = CostFactors { p_mjm: 1e6, p_mjout: 1e6, p_sm: 1e6, ..Default::default() };
    let (dbms, dbms_plan) = run_with_factors(&db, sql, in_dbms);
    assert!(dbms_plan.contains("TJOIN^D"), "{dbms_plan}");
    assert!(mid.multiset_eq(&dbms), "placements disagree\nmid:\n{mid}\ndbms:\n{dbms}");
    assert_eq!(mid.tuples(), &[tup![1, 10, 20, 5, 8]]);
}
