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

/// A plan node over `children`; the figures' shapes are well-formed.
fn node(algo: Algo, children: Vec<PhysNode>) -> PhysNode {
    PhysNode::over(algo, children).expect("a figure's plan shape is well-formed")
}

/// A plan node over one child.
fn on(algo: Algo, child: PhysNode) -> PhysNode {
    node(algo, vec![child])
}

fn eqp(l: &str, r: &str) -> Vec<(String, String)> {
    vec![(l.to_string(), r.to_string())]
}

/// `COUNT(PosID)` per `PosID`, temporally: in the DBMS or the middleware.
fn count_agg(dbms: bool) -> Algo {
    let group_by = vec!["PosID".to_string()];
    let aggs = vec![AggSpec::new(AggFunc::Count, Some("PosID"), "Cnt")];
    if dbms {
        Algo::TAggrD { group_by, aggs }
    } else {
        Algo::TAggrM { group_by, aggs }
    }
}

/// The overlap window predicate `T1 < end AND T2 > start`.
pub fn window_pred(start: Day, end: Day) -> Expr {
    Expr::overlaps("T1", "T2", Expr::Lit(Value::Date(start)), Expr::Lit(Value::Date(end)))
}

pub fn payrate_pred() -> Expr {
    Expr::cmp(CmpOp::Gt, Expr::col("PayRate"), Expr::lit(Value::Double(10.0)))
}

fn project(cols: &[&str]) -> Algo {
    Algo::ProjectD(cols.iter().map(|c| ProjItem::col(*c)).collect())
}

fn sort_d(keys: &[&str]) -> Algo {
    Algo::SortD(SortSpec::by(keys.iter().copied()))
}

fn sort_m(keys: &[&str]) -> Algo {
    Algo::SortM(SortSpec::by(keys.iter().copied()))
}

// ====================================================================
// Query 1 (Figure 7): temporal aggregation over POSITION, sorted output
// ====================================================================

/// The three plans of Figure 7.
pub fn q1_plans(b: &PlanBuilder, table: &str) -> Vec<(&'static str, PhysNode)> {
    let arg = || on(project(&["PosID", "T1", "T2"]), b.scan(table));
    let by = ["PosID", "T1"];
    // Plan 1: sort in the DBMS, aggregate in the middleware
    let p1 = on(count_agg(false), on(Algo::TransferM, on(sort_d(&by), arg())));
    // Plan 2: sort and aggregate in the middleware
    let p2 = on(count_agg(false), on(sort_m(&by), on(Algo::TransferM, arg())));
    // Plan 3: everything in the DBMS (constant-period SQL)
    let p3 = on(Algo::TransferM, on(sort_d(&by), on(count_agg(true), arg())));
    vec![("plan1 (sortD+taggrM)", p1), ("plan2 (sortM+taggrM)", p2), ("plan3 (all DBMS)", p3)]
}

// ====================================================================
// Query 2 (Figure 9): window + payrate selection, taggr ⋈ᵀ POSITION
// ====================================================================

/// The six plans discussed for Query 2 (four shown in Figure 9 plus the
/// unpushed-selection and all-DBMS variants).
pub fn q2_plans(b: &PlanBuilder, start: Day, end: Day) -> Vec<(&'static str, PhysNode)> {
    let win = window_pred(start, end);
    // aggregation-side argument: σ_w then project to (PosID, T1, T2)
    let a_side = |filtered: bool| {
        let scan = b.scan("POSITION");
        let input = if filtered { on(Algo::FilterD(win.clone()), scan) } else { scan };
        on(project(&["PosID", "T1", "T2"]), input)
    };
    // middleware temporal aggregation over a DBMS-sorted argument
    let agg_m = |filtered: bool| {
        on(count_agg(false), on(Algo::TransferM, on(sort_d(&["PosID", "T1"]), a_side(filtered))))
    };
    // join-side POSITION: σ_w ∧ payrate in the DBMS
    let sel = || Expr::and(win.clone(), payrate_pred());
    let p_side = || on(Algo::FilterD(sel()), b.scan("POSITION"));
    let tjoin_d = || Algo::TJoinD(eqp("PosID", "PosID"));
    let tjoin_m =
        |r: PhysNode| node(Algo::TMergeJoinM(eqp("PosID", "PosID")), vec![agg_m(true), r]);
    let by = ["PosID"];
    // the DBMS joins, sorts and ships the result; `left` comes from below
    let in_dbms = |left: PhysNode| {
        on(Algo::TransferM, on(sort_d(&by), node(tjoin_d(), vec![left, p_side()])))
    };

    // Plan 1: taggr in the middleware; join, sort in the DBMS
    let p1 = in_dbms(on(Algo::TransferD, agg_m(true)));
    // Plan 2: + temporal join in the middleware (right side sorted in DBMS)
    let p2 = tjoin_m(on(Algo::TransferM, on(sort_d(&by), p_side())));
    // Plan 3: + sorting in the middleware
    let p3 = tjoin_m(on(sort_m(&by), on(Algo::TransferM, p_side())));
    // Plan 4: + selection in the middleware (whole base relation crosses
    // the wire)
    let whole = on(Algo::FilterM(sel()), on(Algo::TransferM, b.scan("POSITION")));
    let p4 = tjoin_m(on(sort_m(&by), whole));
    // Plan 5: like Plan 1, but no selection on the aggregation argument
    let p5 = in_dbms(on(Algo::TransferD, agg_m(false)));
    // Plan 6: everything in the DBMS
    let p6 = in_dbms(on(count_agg(true), a_side(true)));

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
        on(
            project(&["PosID", "EmpID", "T1", "T2"]),
            on(Algo::FilterD(sel.clone()), b.scan("POSITION")),
        )
    };
    let eq = || eqp("PosID", "PosID");
    // Plan 1: all in the DBMS
    let p1 =
        on(Algo::TransferM, on(sort_d(&["PosID"]), node(Algo::TJoinD(eq()), vec![side(), side()])));
    // Plan 2: temporal join in the middleware (both sides sorted in the
    // DBMS; the merge output needs no final sort)
    let sorted_side = || on(Algo::TransferM, on(sort_d(&["PosID"]), side()));
    let p2 = node(Algo::TMergeJoinM(eq()), vec![sorted_side(), sorted_side()]);
    vec![("plan1 (all DBMS)", p1), ("plan2 (tjoinM)", p2)]
}

// ====================================================================
// Query 4 (Figure 11b): regular join POSITION ⋈ EMPLOYEE
// ====================================================================

/// Plan 1 of Figure 11(b): sort + merge join + projection in the
/// middleware. Plans 2/3 are forced DBMS join methods — issued as hinted
/// SQL (`/*+ USE_NL */`, `/*+ USE_MERGE */`) exactly like the paper used
/// Oracle hints; see [`crate::sweep`].
pub fn q4_plan1(b: &PlanBuilder, pos_table: &str) -> PhysNode {
    let side = |table: &str, cols: &[&str]| {
        on(sort_m(&["EmpID"]), on(Algo::TransferM, on(project(cols), b.scan(table))))
    };
    let join = node(
        Algo::MergeJoinM(eqp("EmpID", "EmpID")),
        vec![
            side(pos_table, &["PosID", "EmpID"]),
            side("EMPLOYEE", &["EmpID", "EmpName", "Address"]),
        ],
    );
    let cols = ["PosID", "EmpName", "Address"].map(ProjItem::col).to_vec();
    on(sort_m(&["PosID"]), on(Algo::ProjectM(cols), join))
}

/// Plans 2 and 3 of Figure 11(b) as the middleware prices them: its cost
/// model has one formula for a DBMS join, whatever the join method.
pub fn q4_dbms_plan(b: &PlanBuilder, pos_table: &str) -> PhysNode {
    let side = |table: &str, cols: &[&str]| on(project(cols), b.scan(table));
    let join = node(
        Algo::JoinD(eqp("EmpID", "EmpID")),
        vec![
            side(pos_table, &["PosID", "EmpID"]),
            side("EMPLOYEE", &["EmpID", "EmpName", "Address"]),
        ],
    );
    on(Algo::TransferM, on(sort_d(&["PosID"]), on(project(&["PosID", "EmpName", "Address"]), join)))
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
    let label = |a: &Algo| match a {
        Algo::TAggrM { .. } => "taggr=M",
        Algo::TAggrD { .. } => "taggr=D",
        Algo::TMergeJoinM(_) => "tjoin=M",
        Algo::TJoinD(_) => "tjoin=D",
        Algo::MergeJoinM(_) => "join=M",
        Algo::JoinD(_) => "join=D",
        Algo::SortM(_) => "sort=M",
        Algo::SortD(_) => "sort=D",
        Algo::FilterM(_) => "filter=M",
        Algo::TransferD => "T^D",
        _ => "",
    };
    let order = [
        "taggr=M", "taggr=D", "tjoin=M", "tjoin=D", "join=M", "join=D", "sort=M", "sort=D",
        "filter=M", "T^D",
    ];
    order.into_iter().filter(|l| plan.any(&|a| label(a) == *l)).collect::<Vec<_>>().join(" ")
}
