//! Hand-built physical plans replicating the exact plan shapes of
//! Figures 7, 9 and the Query 3/4 plan pairs of the paper. The
//! temporal-SQL texts of the "optimizer's choice" series are
//! `tango_uis::queries`.

use tango_algebra::{AggFunc, AggSpec, CmpOp, Day, Expr, ProjItem, SortSpec, Value};
use tango_core::phys::{Algo, PhysNode};
use tango_minidb::Connection;

/// Scans for hand-built plans: a table's schema comes from the catalog;
/// every other node's from [`PhysNode::over`].
pub struct PlanBuilder {
    conn: Connection,
}

impl PlanBuilder {
    pub fn new(conn: &Connection) -> Self {
        PlanBuilder { conn: conn.clone() }
    }

    pub fn scan(&self, table: &str) -> PhysNode {
        let schema =
            self.conn.table_schema(table).unwrap_or_else(|| panic!("unknown table {table}"));
        PhysNode::scan(table, schema)
    }
}

fn eqp(l: &str, r: &str) -> Vec<(String, String)> {
    vec![(l.to_string(), r.to_string())]
}

fn count_agg() -> (Vec<String>, Vec<AggSpec>) {
    (vec!["PosID".to_string()], vec![AggSpec::new(AggFunc::Count, Some("PosID"), "Cnt")])
}

/// The overlap window predicate `T1 < end AND T2 > start`.
pub fn window_pred(start: Day, end: Day) -> Expr {
    Expr::overlaps("T1", "T2", Expr::Lit(Value::Date(start)), Expr::Lit(Value::Date(end)))
}

pub fn payrate_pred() -> Expr {
    Expr::cmp(CmpOp::Gt, Expr::col("PayRate"), Expr::lit(Value::Double(10.0)))
}

fn proj_cols(cols: &[&str]) -> Vec<ProjItem> {
    cols.iter().map(|c| ProjItem::col(*c)).collect()
}

// ====================================================================
// Query 1 (Figure 7): temporal aggregation over POSITION, sorted output
// ====================================================================

/// The three plans of Figure 7.
pub fn q1_plans(b: &PlanBuilder, table: &str) -> Vec<(&'static str, PhysNode)> {
    let (group_by, aggs) = count_agg();
    let dbms_proj = |b: &PlanBuilder| {
        PhysNode::over(Algo::ProjectD(proj_cols(&["PosID", "T1", "T2"])), vec![b.scan(table)])
            .unwrap()
    };
    let sort_keys = SortSpec::by(["PosID", "T1"]);

    // Plan 1: sort in the DBMS, aggregate in the middleware
    let p1 = PhysNode::over(
        Algo::TAggrM { group_by: group_by.clone(), aggs: aggs.clone() },
        vec![PhysNode::over(
            Algo::TransferM,
            vec![PhysNode::over(Algo::SortD(sort_keys.clone()), vec![dbms_proj(b)]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap();

    // Plan 2: sort and aggregate in the middleware
    let p2 = PhysNode::over(
        Algo::TAggrM { group_by: group_by.clone(), aggs: aggs.clone() },
        vec![PhysNode::over(
            Algo::SortM(sort_keys.clone()),
            vec![PhysNode::over(Algo::TransferM, vec![dbms_proj(b)]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap();

    // Plan 3: everything in the DBMS (constant-period SQL)
    let p3 = PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(SortSpec::by(["PosID", "T1"])),
            vec![PhysNode::over(Algo::TAggrD { group_by, aggs }, vec![dbms_proj(b)]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap();
    vec![("plan1 (sortD+taggrM)", p1), ("plan2 (sortM+taggrM)", p2), ("plan3 (all DBMS)", p3)]
}

// ====================================================================
// Query 2 (Figure 9): window + payrate selection, taggr ⋈ᵀ POSITION
// ====================================================================

/// The six plans discussed for Query 2 (four shown in Figure 9 plus the
/// unpushed-selection and all-DBMS variants).
pub fn q2_plans(b: &PlanBuilder, start: Day, end: Day) -> Vec<(&'static str, PhysNode)> {
    let (group_by, aggs) = count_agg();
    let win = window_pred(start, end);
    let sortspec = SortSpec::by(["PosID", "T1"]);

    // aggregation-side argument: σ_w then project to (PosID, T1, T2)
    let a_side = |filtered: bool| {
        let scan = b.scan("POSITION");
        let input = if filtered {
            PhysNode::over(Algo::FilterD(win.clone()), vec![scan]).unwrap()
        } else {
            scan
        };
        PhysNode::over(Algo::ProjectD(proj_cols(&["PosID", "T1", "T2"])), vec![input]).unwrap()
    };
    // middleware temporal aggregation over a DBMS-sorted argument
    let agg_m =
        |filtered: bool| {
            PhysNode::over(
                Algo::TAggrM { group_by: group_by.clone(), aggs: aggs.clone() },
                vec![PhysNode::over(
                    Algo::TransferM,
                    vec![PhysNode::over(Algo::SortD(sortspec.clone()), vec![a_side(filtered)])
                        .unwrap()],
                )
                .unwrap()],
            )
            .unwrap()
        };
    // join-side POSITION: σ_w ∧ payrate in the DBMS
    let p_side = || {
        PhysNode::over(
            Algo::FilterD(Expr::and(win.clone(), payrate_pred())),
            vec![b.scan("POSITION")],
        )
        .unwrap()
    };
    let eq = eqp("PosID", "PosID");

    // Plan 1: taggr in the middleware; join, sort in the DBMS
    let p1 = PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(SortSpec::by(["PosID"])),
            vec![PhysNode::over(
                Algo::TJoinD(eq.clone()),
                vec![PhysNode::over(Algo::TransferD, vec![agg_m(true)]).unwrap(), p_side()],
            )
            .unwrap()],
        )
        .unwrap()],
    )
    .unwrap();

    // Plan 2: + temporal join in the middleware (right side sorted in DBMS)
    let p2 = PhysNode::over(
        Algo::TMergeJoinM(eq.clone()),
        vec![
            agg_m(true),
            PhysNode::over(
                Algo::TransferM,
                vec![PhysNode::over(Algo::SortD(SortSpec::by(["PosID"])), vec![p_side()]).unwrap()],
            )
            .unwrap(),
        ],
    )
    .unwrap();

    // Plan 3: + sorting in the middleware
    let p3 = PhysNode::over(
        Algo::TMergeJoinM(eq.clone()),
        vec![
            agg_m(true),
            PhysNode::over(
                Algo::SortM(SortSpec::by(["PosID"])),
                vec![PhysNode::over(Algo::TransferM, vec![p_side()]).unwrap()],
            )
            .unwrap(),
        ],
    )
    .unwrap();

    // Plan 4: + selection in the middleware (whole base relation crosses
    // the wire)
    let p4 = PhysNode::over(
        Algo::TMergeJoinM(eq.clone()),
        vec![
            agg_m(true),
            PhysNode::over(
                Algo::SortM(SortSpec::by(["PosID"])),
                vec![PhysNode::over(
                    Algo::FilterM(Expr::and(win.clone(), payrate_pred())),
                    vec![PhysNode::over(Algo::TransferM, vec![b.scan("POSITION")]).unwrap()],
                )
                .unwrap()],
            )
            .unwrap(),
        ],
    )
    .unwrap();

    // Plan 5: like Plan 1, but no selection on the aggregation argument
    let p5 = PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(SortSpec::by(["PosID"])),
            vec![PhysNode::over(
                Algo::TJoinD(eq.clone()),
                vec![PhysNode::over(Algo::TransferD, vec![agg_m(false)]).unwrap(), p_side()],
            )
            .unwrap()],
        )
        .unwrap()],
    )
    .unwrap();

    // Plan 6: everything in the DBMS
    let p6 = PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(SortSpec::by(["PosID"])),
            vec![PhysNode::over(
                Algo::TJoinD(eq),
                vec![
                    PhysNode::over(Algo::TAggrD { group_by, aggs }, vec![a_side(true)]).unwrap(),
                    p_side(),
                ],
            )
            .unwrap()],
        )
        .unwrap()],
    )
    .unwrap();

    vec![
        ("plan1 (taggrM)", p1),
        ("plan2 (taggrM+tjoinM)", p2),
        ("plan3 (+sortM)", p3),
        ("plan4 (+filterM)", p4),
        ("plan5 (no arg filter)", p5),
        ("plan6 (all DBMS)", p6),
    ]
}

// ====================================================================
// Query 3 (Figure 11a): temporal self-join
// ====================================================================

pub fn q3_plans(b: &PlanBuilder, bound: Day) -> Vec<(&'static str, PhysNode)> {
    let sel = Expr::cmp(CmpOp::Lt, Expr::col("T1"), Expr::Lit(Value::Date(bound)));
    let side = || {
        PhysNode::over(
            Algo::ProjectD(proj_cols(&["PosID", "EmpID", "T1", "T2"])),
            vec![PhysNode::over(Algo::FilterD(sel.clone()), vec![b.scan("POSITION")]).unwrap()],
        )
        .unwrap()
    };
    let eq = eqp("PosID", "PosID");

    // Plan 1: all in the DBMS
    let p1 = PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(SortSpec::by(["PosID"])),
            vec![PhysNode::over(Algo::TJoinD(eq.clone()), vec![side(), side()]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap();

    // Plan 2: temporal join in the middleware (both sides sorted in the
    // DBMS; the merge output needs no final sort)
    let sorted_side = || {
        PhysNode::over(
            Algo::TransferM,
            vec![PhysNode::over(Algo::SortD(SortSpec::by(["PosID"])), vec![side()]).unwrap()],
        )
        .unwrap()
    };
    let p2 = PhysNode::over(Algo::TMergeJoinM(eq), vec![sorted_side(), sorted_side()]).unwrap();

    vec![("plan1 (all DBMS)", p1), ("plan2 (tjoinM)", p2)]
}

// ====================================================================
// Query 4 (Figure 11b): regular join POSITION ⋈ EMPLOYEE
// ====================================================================

/// Plan 1 of Figure 11(b): sort + merge join + projection in the
/// middleware. Plans 2/3 are forced DBMS join methods — issued as hinted
/// SQL (`/*+ USE_NL */`, `/*+ USE_MERGE */`) exactly like the paper used
/// Oracle hints; see the `fig11b_query4` binary.
pub fn q4_plan1(b: &PlanBuilder, pos_table: &str) -> PhysNode {
    let pos =
        PhysNode::over(Algo::ProjectD(proj_cols(&["PosID", "EmpID"])), vec![b.scan(pos_table)])
            .unwrap();
    let emp = PhysNode::over(
        Algo::ProjectD(proj_cols(&["EmpID", "EmpName", "Address"])),
        vec![b.scan("EMPLOYEE")],
    )
    .unwrap();
    let join = PhysNode::over(
        Algo::MergeJoinM(eqp("EmpID", "EmpID")),
        vec![
            PhysNode::over(
                Algo::SortM(SortSpec::by(["EmpID"])),
                vec![PhysNode::over(Algo::TransferM, vec![pos]).unwrap()],
            )
            .unwrap(),
            PhysNode::over(
                Algo::SortM(SortSpec::by(["EmpID"])),
                vec![PhysNode::over(Algo::TransferM, vec![emp]).unwrap()],
            )
            .unwrap(),
        ],
    )
    .unwrap();
    PhysNode::over(
        Algo::SortM(SortSpec::by(["PosID"])),
        vec![PhysNode::over(
            Algo::ProjectM(proj_cols(&["PosID", "EmpName", "Address"])),
            vec![join],
        )
        .unwrap()],
    )
    .unwrap()
}

/// Hinted SQL for the DBMS-side plans of Query 4.
pub fn q4_dbms_sql(pos_table: &str, hint: &str) -> String {
    format!(
        "SELECT {hint} P.PosID AS PosID, E.EmpName AS EmpName, E.Address AS Address \
         FROM {pos_table} P, EMPLOYEE E WHERE P.EmpID = E.EmpID ORDER BY PosID"
    )
}

/// Which site each interesting operator landed on — used to classify the
/// optimizer's chosen plan against the fixed plan shapes.
pub fn placement_summary(plan: &PhysNode) -> String {
    let has = |f: &dyn Fn(&Algo) -> bool| plan.any(f);
    let mut parts = Vec::new();
    if has(&|a| matches!(a, Algo::TAggrM { .. })) {
        parts.push("taggr=M");
    }
    if has(&|a| matches!(a, Algo::TAggrD { .. })) {
        parts.push("taggr=D");
    }
    if has(&|a| matches!(a, Algo::TMergeJoinM(_))) {
        parts.push("tjoin=M");
    }
    if has(&|a| matches!(a, Algo::TJoinD(_))) {
        parts.push("tjoin=D");
    }
    if has(&|a| matches!(a, Algo::MergeJoinM(_))) {
        parts.push("join=M");
    }
    if has(&|a| matches!(a, Algo::JoinD(_))) {
        parts.push("join=D");
    }
    if has(&|a| matches!(a, Algo::SortM(_))) {
        parts.push("sort=M");
    }
    if has(&|a| matches!(a, Algo::SortD(_))) {
        parts.push("sort=D");
    }
    if has(&|a| matches!(a, Algo::FilterM(_))) {
        parts.push("filter=M");
    }
    if has(&|a| matches!(a, Algo::TransferD)) {
        parts.push("T^D");
    }
    parts.join(" ")
}
