//! Heuristic query planner for the mini-DBMS.
//!
//! Classic System-R-lite pipeline: plan `FROM` items, push single-table
//! predicates down (converting to index scans where an index applies),
//! detect equi-join conditions, fold joins left-to-right choosing a join
//! method (hash by default, overridable with Oracle-style hints), then
//! aggregate / filter / project / dedup / sort.

use crate::ast::{FromItem, JoinHint, SelectItem, SelectStmt, SetOp};
use crate::catalog::{dictionary_view_schema, DbInner};
use crate::error::{DbError, Result};
use crate::exec::{AggItem, Plan, PlanOp};
use std::sync::Arc;
use tango_algebra::logical::{concat_schemas, infer_type};
use tango_algebra::{AggFunc, Attr, CmpOp, Expr, Schema, SortKey, SortSpec, Type, Value};

/// Plan a (possibly set-op-chained) SELECT.
pub fn plan_select(stmt: &SelectStmt, db: &DbInner) -> Result<Plan> {
    // Collect the UNION chain; the last block's ORDER BY applies globally.
    let mut blocks: Vec<&SelectStmt> = vec![stmt];
    let mut distinct_union = false;
    let mut cur = stmt;
    while let Some((op, next)) = &cur.set_op {
        if *op == SetOp::Union {
            distinct_union = true;
        }
        blocks.push(next);
        cur = next;
    }
    if blocks.len() == 1 {
        return plan_block(stmt, db, true);
    }
    let global_order = cur.order_by.clone(); // `cur` ended on the last block
    let mut plans = Vec::with_capacity(blocks.len());
    for b in &blocks {
        plans.push(plan_block(b, db, false)?);
    }
    let schema = plans[0].schema.clone();
    for p in &plans {
        if p.schema.len() != schema.len() {
            return Err(DbError::Semantic("UNION blocks must have equal arity".into()));
        }
    }
    let mut plan = Plan { op: PlanOp::UnionAll { inputs: plans }, schema: schema.clone() };
    if distinct_union {
        plan = Plan { op: PlanOp::Distinct { input: Box::new(plan) }, schema: schema.clone() };
    }
    if !global_order.is_empty() {
        plan = sort_plan(plan, &global_order)?;
    }
    Ok(plan)
}

fn sort_plan(input: Plan, order: &[(String, bool)]) -> Result<Plan> {
    let keys =
        SortSpec(order.iter().map(|(c, desc)| SortKey { col: c.clone(), desc: *desc }).collect());
    for k in &keys.0 {
        input
            .schema
            .index_of(&k.col)
            .map_err(|_| DbError::Semantic(format!("ORDER BY column not found: {}", k.col)))?;
    }
    let schema = input.schema.clone();
    Ok(Plan { op: PlanOp::Sort { keys, input: Box::new(input) }, schema })
}

fn plan_block(stmt: &SelectStmt, db: &DbInner, with_order: bool) -> Result<Plan> {
    if stmt.validtime {
        return Err(DbError::Semantic(
            "VALIDTIME is not supported by this DBMS (temporal SQL requires the middleware)".into(),
        ));
    }
    if stmt.from.is_empty() {
        return Err(DbError::Semantic("FROM clause required".into()));
    }
    // -- 1. plan FROM items, with schemas qualified by binding name
    let mut items: Vec<Plan> = Vec::with_capacity(stmt.from.len());
    for fi in &stmt.from {
        items.push(plan_from_item(fi, db)?);
    }

    // -- 2. classify WHERE conjuncts
    let conjuncts: Vec<Expr> = stmt
        .where_
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();
    let mut single: Vec<Vec<Expr>> = vec![Vec::new(); items.len()];
    let mut join_conds: Vec<(usize, String, usize, String)> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    'conj: for c in conjuncts {
        let cols = c.columns();
        let covering: Vec<usize> = (0..items.len())
            .filter(|&i| cols.iter().all(|col| covers(&items[i].schema, col)))
            .collect();
        if covering.len() == 1 {
            single[covering[0]].push(c);
            continue;
        }
        // equi-join condition between two different items?
        if let Expr::Cmp(CmpOp::Eq, l, r) = &c {
            if let (Expr::Col { name: ln, .. }, Expr::Col { name: rn, .. }) =
                (l.as_ref(), r.as_ref())
            {
                let owner = |col: &str| -> Vec<usize> {
                    (0..items.len()).filter(|&i| covers(&items[i].schema, col)).collect()
                };
                let (lo, ro) = (owner(ln), owner(rn));
                for &a in &lo {
                    for &b in &ro {
                        if a != b {
                            join_conds.push((a, ln.clone(), b, rn.clone()));
                            continue 'conj;
                        }
                    }
                }
            }
        }
        residual.push(c);
    }

    // -- 3. push single-table predicates (index scan conversion inside)
    for (i, preds) in single.into_iter().enumerate() {
        if !preds.is_empty() {
            let item = items[i].clone();
            items[i] = push_predicates(item, preds, db)?;
        }
    }

    // -- 4. fold joins left to right
    let mut joined: Vec<usize> = vec![0];
    let mut cur = items[0].clone();
    #[allow(clippy::needless_range_loop)] // k also tags join_conds entries
    for k in 1..items.len() {
        let mut lkeys = Vec::new();
        let mut rkeys = Vec::new();
        for (a, lc, b, rc) in &join_conds {
            if joined.contains(a) && *b == k {
                lkeys.push(lc.clone());
                rkeys.push(rc.clone());
            } else if joined.contains(b) && *a == k {
                lkeys.push(rc.clone());
                rkeys.push(lc.clone());
            }
        }
        let right = items[k].clone();
        let schema = Arc::new(concat_schemas(&cur.schema, &right.schema));
        // USE_NL with an index on the inner join column becomes an index
        // nested-loop join (Oracle semantics); otherwise plain nested loops.
        if stmt.hint == Some(JoinHint::UseNl) && !lkeys.is_empty() {
            if let PlanOp::Scan { table } = &right.op {
                let bare_r = bare(&rkeys[0]).to_string();
                if db.index_on(table, &bare_r).is_some() {
                    let extra_keys = Expr::and_all(
                        lkeys
                            .iter()
                            .zip(&rkeys)
                            .skip(1)
                            .map(|(l, r)| Expr::eq(Expr::col(l.clone()), Expr::col(r.clone())))
                            .collect(),
                    );
                    let table = table.clone();
                    let mut p = Plan {
                        op: PlanOp::IndexNlJoin {
                            lkey: lkeys[0].clone(),
                            table,
                            col: bare_r,
                            left: Box::new(cur),
                        },
                        schema: schema.clone(),
                    };
                    if let Some(pred) = extra_keys {
                        p = Plan {
                            op: PlanOp::Filter { pred, input: Box::new(p) },
                            schema: schema.clone(),
                        };
                    }
                    cur = p;
                    joined.push(k);
                    // apply now-covered residual predicates
                    let mut remaining = Vec::new();
                    for c in residual {
                        if c.columns().iter().all(|col| covers(&cur.schema, col)) {
                            let schema = cur.schema.clone();
                            cur = Plan {
                                op: PlanOp::Filter { pred: c, input: Box::new(cur) },
                                schema,
                            };
                        } else {
                            remaining.push(c);
                        }
                    }
                    residual = remaining;
                    continue;
                }
            }
        }
        let op = match (stmt.hint, lkeys.is_empty()) {
            (Some(JoinHint::UseNl), _) | (None, true) => {
                // keys (if any) become a predicate for the nested loop
                let pred = Expr::and_all(
                    lkeys
                        .iter()
                        .zip(&rkeys)
                        .map(|(l, r)| Expr::eq(Expr::col(l.clone()), Expr::col(r.clone())))
                        .collect(),
                );
                PlanOp::NlJoin { pred, left: Box::new(cur), right: Box::new(right) }
            }
            (Some(JoinHint::UseMerge), false) => {
                PlanOp::MergeJoin { lkeys, rkeys, left: Box::new(cur), right: Box::new(right) }
            }
            _ => PlanOp::HashJoin { lkeys, rkeys, left: Box::new(cur), right: Box::new(right) },
        };
        cur = Plan { op, schema };
        joined.push(k);
        // apply residual predicates that are now fully covered
        let mut remaining = Vec::new();
        for c in residual {
            if c.columns().iter().all(|col| covers(&cur.schema, col)) {
                let schema = cur.schema.clone();
                cur = Plan { op: PlanOp::Filter { pred: c, input: Box::new(cur) }, schema };
            } else {
                remaining.push(c);
            }
        }
        residual = remaining;
    }
    if let Some(pred) = Expr::and_all(residual) {
        return Err(DbError::Semantic(format!("predicate references unknown columns: {pred}")));
    }

    // -- 5. aggregation or plain projection
    let has_agg = stmt.items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
    let mut plan = if has_agg || !stmt.group_by.is_empty() {
        plan_aggregate(stmt, cur)?
    } else {
        plan_projection(stmt, cur)?
    };

    // -- 6. DISTINCT
    if stmt.distinct {
        let schema = plan.schema.clone();
        plan = Plan { op: PlanOp::Distinct { input: Box::new(plan) }, schema };
    }

    // -- 7. ORDER BY: resolved against the output columns; SQL also
    // allows ordering by input columns that were projected away or
    // renamed, in which case the sort slides below the projection.
    if with_order && !stmt.order_by.is_empty() {
        match sort_plan(plan.clone(), &stmt.order_by) {
            Ok(p) => plan = p,
            Err(e) => {
                let op = match plan.op {
                    PlanOp::Project { items, input } => PlanOp::Project {
                        items,
                        input: Box::new(sort_plan(*input, &stmt.order_by)?),
                    },
                    PlanOp::Rename { input } => {
                        PlanOp::Rename { input: Box::new(sort_plan(*input, &stmt.order_by)?) }
                    }
                    _ => return Err(e),
                };
                plan = Plan { op, schema: plan.schema };
            }
        }
    }
    Ok(plan)
}

fn plan_from_item(fi: &FromItem, db: &DbInner) -> Result<Plan> {
    match fi {
        FromItem::Table { name, alias } => {
            let base = if let Some(v) = dictionary_view_schema(name) {
                v
            } else {
                db.table(name)?.schema.as_ref().clone()
            };
            let binding = alias.as_deref().unwrap_or(name);
            Ok(Plan {
                op: PlanOp::Scan { table: name.clone() },
                schema: Arc::new(base.qualified(binding)),
            })
        }
        FromItem::Subquery { query, alias } => {
            let sub = plan_select(query, db)?;
            let schema = Arc::new(sub.schema.qualified(alias));
            Ok(Plan { op: PlanOp::Rename { input: Box::new(sub) }, schema })
        }
    }
}

/// Push predicates onto a scan, converting eligible bounds into an index
/// range scan when the scanned table has a matching index.
fn push_predicates(item: Plan, preds: Vec<Expr>, db: &DbInner) -> Result<Plan> {
    let mut preds = preds;
    let mut item = item;
    if let PlanOp::Scan { table } = &item.op {
        let table = table.clone();
        // find an indexed column constrained by some predicate:
        // (column, lower bound, upper bound), bounds carrying inclusivity
        type Bound = Option<(Value, bool)>;
        let mut chosen: Option<(String, Bound, Bound)> = None;
        let mut used = vec![false; preds.len()];
        for (pi, p) in preds.iter().enumerate() {
            if let Some((col, op, val)) = as_col_lit(p) {
                if db.index_on(&table, bare(&col)).is_some() {
                    let entry = chosen.get_or_insert((bare(&col).to_string(), None, None));
                    if entry.0.eq_ignore_ascii_case(bare(&col)) {
                        // a bound fills an empty side only; a second bound
                        // on a side stays behind as a residual filter
                        let (lo, hi) = (&mut entry.1, &mut entry.2);
                        used[pi] = match op {
                            CmpOp::Eq if lo.is_none() && hi.is_none() => {
                                *lo = Some((val.clone(), true));
                                *hi = Some((val, true));
                                true
                            }
                            CmpOp::Gt | CmpOp::Ge if lo.is_none() => {
                                *lo = Some((val, op == CmpOp::Ge));
                                true
                            }
                            CmpOp::Lt | CmpOp::Le if hi.is_none() => {
                                *hi = Some((val, op == CmpOp::Le));
                                true
                            }
                            _ => false,
                        };
                    }
                }
            }
        }
        if let Some((col, lo, hi)) = chosen {
            if lo.is_some() || hi.is_some() {
                let schema = item.schema.clone();
                item = Plan { op: PlanOp::IndexScan { table, col, lo, hi }, schema };
                preds = preds.into_iter().zip(used).filter(|(_, u)| !u).map(|(p, _)| p).collect();
            }
        }
    }
    if let Some(pred) = Expr::and_all(preds) {
        let schema = item.schema.clone();
        item = Plan { op: PlanOp::Filter { pred, input: Box::new(item) }, schema };
    }
    Ok(item)
}

/// Whether `schema` — a FROM item's, qualified by its binding, or a join
/// of such — has `col`. A qualified name counts only under its own
/// qualifier: `Schema::has` falls back to the bare name, so `A.T1` would
/// also be found in `B`, and `A.Foo` in `B` when only `B` has `Foo`.
fn covers(schema: &Schema, col: &str) -> bool {
    match col.contains('.') {
        true => schema.names().any(|n| n.eq_ignore_ascii_case(col)),
        false => schema.has(col),
    }
}

fn bare(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

fn as_col_lit(e: &Expr) -> Option<(String, CmpOp, Value)> {
    if let Expr::Cmp(op, l, r) = e {
        match (l.as_ref(), r.as_ref()) {
            (Expr::Col { name, .. }, Expr::Lit(v)) => Some((name.clone(), *op, v.clone())),
            (Expr::Lit(v), Expr::Col { name, .. }) => Some((name.clone(), op.flip(), v.clone())),
            _ => None,
        }
    } else {
        None
    }
}

fn item_alias(item: &SelectItem, i: usize) -> String {
    match item {
        SelectItem::Star => "*".to_string(),
        SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| match expr {
            Expr::Col { name, .. } => bare(name).to_string(),
            _ => format!("EXPR_{}", i + 1),
        }),
        SelectItem::Agg { func, alias, .. } => {
            alias.clone().unwrap_or_else(|| format!("{}_{}", func.sql(), i + 1))
        }
    }
}

fn plan_projection(stmt: &SelectStmt, input: Plan) -> Result<Plan> {
    if stmt.items.len() == 1 && matches!(stmt.items[0], SelectItem::Star) {
        return Ok(input); // SELECT * — identity
    }
    let mut items: Vec<(Expr, String)> = Vec::new();
    for (i, it) in stmt.items.iter().enumerate() {
        match it {
            SelectItem::Star => {
                for a in input.schema.attrs() {
                    items.push((Expr::col(a.name.clone()), bare(&a.name).to_string()));
                }
            }
            SelectItem::Expr { expr, .. } => items.push((expr.clone(), item_alias(it, i))),
            SelectItem::Agg { .. } => {
                return Err(DbError::Semantic("aggregate without GROUP BY context".into()))
            }
        }
    }
    project_plan(input, items)
}

/// A projection whose every item is a plain column resolving — by the
/// `Schema::index_of` that `Expr::bound` evaluates with — to the input
/// column at the item's own position keeps each row as it is, so it is
/// planned as a `Rename` that copies nothing.
fn project_plan(input: Plan, items: Vec<(Expr, String)>) -> Result<Plan> {
    let mut attrs = Vec::with_capacity(items.len());
    for (e, alias) in &items {
        let ty = infer_type(e, &input.schema)?;
        attrs.push(Attr::new(alias.clone(), ty));
    }
    let schema = Arc::new(Schema::with_inferred_period(attrs));
    let in_place = items.len() == input.schema.len()
        && items.iter().enumerate().all(|(i, (e, _))| {
            matches!(e, Expr::Col { name, .. } if input.schema.index_of(name).ok() == Some(i))
        });
    let op = if in_place {
        PlanOp::Rename { input: Box::new(input) }
    } else {
        PlanOp::Project { items, input: Box::new(input) }
    };
    Ok(Plan { op, schema })
}

fn plan_aggregate(stmt: &SelectStmt, input: Plan) -> Result<Plan> {
    // aggregate items, with aliases
    let mut aggs: Vec<AggItem> = Vec::new();
    for (i, it) in stmt.items.iter().enumerate() {
        if let SelectItem::Agg { func, arg, .. } = it {
            aggs.push(AggItem { func: *func, arg: arg.clone(), alias: item_alias(it, i) });
        }
    }
    // HashAgg output: group columns (as written) then aggregates
    let mut attrs = Vec::new();
    for g in &stmt.group_by {
        let i = input
            .schema
            .index_of(g)
            .map_err(|_| DbError::Semantic(format!("GROUP BY column not found: {g}")))?;
        attrs.push(input.schema.attr(i).clone());
    }
    for a in &aggs {
        let ty = match (a.func, &a.arg) {
            (AggFunc::Count, _) => Type::Int,
            (AggFunc::Avg, _) => Type::Double,
            (_, Some(e)) => infer_type(e, &input.schema)?,
            (_, None) => Type::Int,
        };
        attrs.push(Attr::new(a.alias.clone(), ty));
    }
    let agg_schema = Arc::new(Schema::new(attrs));
    let mut plan = Plan {
        op: PlanOp::HashAgg { group_by: stmt.group_by.clone(), aggs, input: Box::new(input) },
        schema: agg_schema,
    };
    if let Some(h) = &stmt.having {
        let schema = plan.schema.clone();
        plan = Plan { op: PlanOp::Filter { pred: h.clone(), input: Box::new(plan) }, schema };
    }
    // final projection in SELECT-list order
    let mut items = Vec::new();
    for (i, it) in stmt.items.iter().enumerate() {
        let alias = item_alias(it, i);
        match it {
            SelectItem::Star => {
                return Err(DbError::Semantic("SELECT * cannot be combined with GROUP BY".into()))
            }
            SelectItem::Expr { expr, .. } => items.push((expr.clone(), alias)),
            SelectItem::Agg { .. } => items.push((Expr::col(alias.clone()), alias)),
        }
    }
    project_plan(plan, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::exec::run;
    use crate::parser::parse;
    use tango_algebra::{tup, Tuple};

    fn setup() -> Database {
        let db = Database::in_memory();
        let schema = Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpName", Type::Str),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]);
        db.create_table("POSITION", schema).unwrap();
        db.insert_rows(
            "POSITION",
            vec![tup![1, "Tom", 2, 20], tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10]],
        )
        .unwrap();
        db
    }

    fn q(db: &Database, sql: &str) -> Vec<Tuple> {
        let crate::ast::Stmt::Select(s) = parse(sql).unwrap() else { panic!() };
        let inner = db.inner.read();
        let plan = plan_select(&s, &inner).unwrap();
        run(&plan, &inner).unwrap().into_rows()
    }

    #[test]
    fn simple_select_where_order() {
        let db = setup();
        let rows = q(&db, "SELECT EmpName, T1 FROM POSITION WHERE PosID = 1 ORDER BY T1 DESC");
        assert_eq!(rows, vec![tup!["Jane", 5], tup!["Tom", 2]]);
    }

    #[test]
    fn self_join_with_alias() {
        let db = setup();
        let rows = q(
            &db,
            "SELECT A.EmpName, B.EmpName FROM POSITION A, POSITION B \
             WHERE A.PosID = B.PosID AND A.T1 < B.T1 ORDER BY A.EmpName",
        );
        assert_eq!(rows, vec![tup!["Tom", "Jane"]]);
    }

    #[test]
    fn group_by_count() {
        let db = setup();
        let rows = q(
            &db,
            "SELECT PosID, COUNT(*) AS C, MIN(T1) AS M FROM POSITION GROUP BY PosID ORDER BY PosID",
        );
        assert_eq!(rows, vec![tup![1, 2, 2], tup![2, 1, 5]]);
    }

    #[test]
    fn union_and_distinct() {
        let db = setup();
        let rows = q(&db, "SELECT T1 AS T FROM POSITION UNION SELECT T2 FROM POSITION ORDER BY T");
        // T1s: 2,5,5; T2s: 20,25,10 -> distinct sorted: 2,5,10,20,25
        assert_eq!(rows, vec![tup![2], tup![5], tup![10], tup![20], tup![25]]);
    }

    #[test]
    fn subquery_in_from() {
        let db = setup();
        let rows =
            q(&db, "SELECT X.E FROM (SELECT EmpName AS E, T1 FROM POSITION WHERE PosID = 2) X");
        assert_eq!(rows, vec![tup!["Tom"]]);
    }

    #[test]
    fn hint_forces_join_method() {
        let db = setup();
        let crate::ast::Stmt::Select(s) = parse(
            "SELECT /*+ USE_NL */ A.EmpName FROM POSITION A, POSITION B WHERE A.PosID = B.PosID",
        )
        .unwrap() else {
            panic!()
        };
        let inner = db.inner.read();
        let plan = plan_select(&s, &inner).unwrap();
        let mut found_nl = false;
        fn walk(p: &Plan, found: &mut bool) {
            if matches!(p.op, PlanOp::NlJoin { .. }) {
                *found = true;
            }
            match &p.op {
                PlanOp::Rename { input }
                | PlanOp::Filter { input, .. }
                | PlanOp::Project { input, .. }
                | PlanOp::Sort { input, .. }
                | PlanOp::HashAgg { input, .. }
                | PlanOp::Distinct { input } => walk(input, found),
                PlanOp::HashJoin { left, right, .. }
                | PlanOp::MergeJoin { left, right, .. }
                | PlanOp::NlJoin { left, right, .. } => {
                    walk(left, found);
                    walk(right, found);
                }
                PlanOp::UnionAll { inputs } => inputs.iter().for_each(|p| walk(p, found)),
                _ => {}
            }
        }
        walk(&plan, &mut found_nl);
        assert!(found_nl, "USE_NL hint must force a nested-loop join");
    }

    #[test]
    fn index_scan_used() {
        let db = setup();
        db.create_index("IX", "POSITION", "PosID").unwrap();
        let crate::ast::Stmt::Select(s) =
            parse("SELECT EmpName FROM POSITION WHERE PosID = 2").unwrap()
        else {
            panic!()
        };
        let inner = db.inner.read();
        let plan = plan_select(&s, &inner).unwrap();
        let uses_index = format!("{:?}", plan).contains("IndexScan");
        assert!(uses_index);
        let rows = run(&plan, &inner).unwrap();
        assert_eq!(rows.into_rows(), [tup!["Tom"]]);
    }

    #[test]
    fn use_nl_hint_with_index_probes_index() {
        let db = setup();
        db.create_index("IX", "POSITION", "PosID").unwrap();
        let crate::ast::Stmt::Select(s) = parse(
            "SELECT /*+ USE_NL */ A.EmpName, B.EmpName FROM POSITION A, POSITION B \
             WHERE A.PosID = B.PosID AND A.T1 < B.T1 ORDER BY A.EmpName",
        )
        .unwrap() else {
            panic!()
        };
        let inner = db.inner.read();
        let plan = plan_select(&s, &inner).unwrap();
        assert!(format!("{plan:?}").contains("IndexNlJoin"), "{plan:?}");
        let rows = run(&plan, &inner).unwrap();
        assert_eq!(rows.into_rows(), [tup!["Tom", "Jane"]]);
    }

    #[test]
    fn greatest_least_expression() {
        let db = setup();
        let rows = q(
            &db,
            "SELECT GREATEST(T1, 4) AS G, LEAST(T2, 21) AS L FROM POSITION WHERE EmpName = 'Jane'",
        );
        assert_eq!(rows, vec![tup![5, 21]]);
    }

    #[test]
    fn union_order_by_is_hoisted_globally() {
        let db = setup();
        let rows = q(
            &db,
            "SELECT T1 AS T FROM POSITION WHERE PosID = 1              UNION ALL SELECT T2 FROM POSITION WHERE PosID = 2 ORDER BY T DESC",
        );
        assert_eq!(rows, vec![tup![10], tup![5], tup![2]]);
    }

    #[test]
    fn index_range_scan_handles_between() {
        let db = setup();
        db.create_index("IT1", "POSITION", "T1").unwrap();
        let crate::ast::Stmt::Select(s) =
            parse("SELECT EmpName FROM POSITION WHERE T1 BETWEEN 3 AND 6 ORDER BY EmpName")
                .unwrap()
        else {
            panic!()
        };
        let inner = db.inner.read();
        let plan = plan_select(&s, &inner).unwrap();
        assert!(format!("{plan:?}").contains("IndexScan"), "{plan:?}");
        let rows = run(&plan, &inner).unwrap();
        assert_eq!(rows.into_rows(), [tup!["Jane"], tup!["Tom"]]);
    }

    /// Found by `exec`'s generated-statement property: an index range
    /// scan must select what the predicates it absorbed select.
    #[test]
    fn index_range_scans_select_what_their_predicates_select() {
        let db = setup();
        db.insert_rows("POSITION", vec![tup![Value::Null, "Ann", 7, 9]]).unwrap();
        db.create_index("IX", "POSITION", "PosID").unwrap();
        let names = |pred: &str| {
            let sql = format!("SELECT EmpName FROM POSITION WHERE {pred}");
            assert!(plan(&db, &sql).render().contains("INDEX RANGE SCAN"), "{sql}");
            q(&db, &sql)
        };
        // a NULL key sorts first in the index, below every open lower bound
        assert_eq!(names("PosID < 2"), vec![tup!["Tom"], tup!["Jane"]]);
        assert_eq!(names("PosID = NULL"), Vec::<Tuple>::new());
        // a second bound on one side is a filter, whichever comes first
        assert_eq!(names("PosID > 1 AND PosID > 0"), vec![tup!["Tom"]]);
        assert_eq!(names("PosID > 0 AND PosID > 1"), vec![tup!["Tom"]]);
        // bounds that cross select nothing rather than panic
        assert_eq!(names("PosID > 2 AND PosID < 1"), Vec::<Tuple>::new());
        assert_eq!(names("PosID > 1 AND PosID < 1"), Vec::<Tuple>::new());
    }

    #[test]
    fn cross_join_falls_back_to_nested_loops() {
        let db = setup();
        let rows = q(&db, "SELECT A.PosID, B.PosID FROM POSITION A, POSITION B");
        assert_eq!(rows.len(), 9);
    }

    #[test]
    fn residual_theta_predicates_apply_after_join() {
        let db = setup();
        let rows = q(
            &db,
            "SELECT A.EmpName, B.EmpName FROM POSITION A, POSITION B              WHERE A.PosID = B.PosID AND A.T2 < B.T2 ORDER BY A.EmpName",
        );
        assert_eq!(rows, vec![tup!["Tom", "Jane"]]);
    }

    fn plan(db: &Database, sql: &str) -> Plan {
        let crate::ast::Stmt::Select(s) = parse(sql).unwrap() else { panic!() };
        plan_select(&s, &db.inner.read()).unwrap()
    }

    /// TANGO's all-columns wrapper around a base access keeps every
    /// column in place, so it is a `Rename` over the filtered scan.
    #[test]
    fn tangos_base_access_projection_is_a_rename() {
        let db = setup();
        let sql = "SELECT X.PosID AS PosID, X.EmpName AS EmpName, X.T1 AS T1, X.T2 AS T2 \
                   FROM POSITION X WHERE X.T1 > 3";
        let p = plan(&db, sql);
        let PlanOp::Rename { input } = &p.op else { panic!("{}", p.render()) };
        assert!(matches!(input.op, PlanOp::Filter { .. }), "{}", p.render());
        assert_eq!(p.render(), "VIEW\n  FILTER [(X.T1 > 3)]\n    TABLE SCAN POSITION\n");
        assert_eq!(p.schema.names().collect::<Vec<_>>(), ["PosID", "EmpName", "T1", "T2"]);
        assert_eq!(q(&db, sql), vec![tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10]]);
    }

    /// Every projection that moves, drops, repeats or computes a value
    /// stays a `Project` — including a swap of two same-typed columns,
    /// and a swap whose items share a bare name that is ambiguous over
    /// the join schema (`index_of` resolves the qualified name exactly).
    #[test]
    fn projections_that_change_rows_stay_projects() {
        let db = setup();
        let cases: [(&str, Vec<Tuple>); 6] = [
            (
                "SELECT PosID, EmpName, T2 AS T1, T1 AS T2 FROM POSITION WHERE PosID = 2",
                vec![tup![2, "Tom", 10, 5]],
            ),
            ("SELECT PosID, EmpName, T1 FROM POSITION WHERE PosID = 2", vec![tup![2, "Tom", 5]]),
            (
                "SELECT PosID, EmpName, T1, T1 FROM POSITION WHERE PosID = 2",
                vec![tup![2, "Tom", 5, 5]],
            ),
            (
                "SELECT PosID, EmpName, GREATEST(T1, 4) AS T1, T2 FROM POSITION WHERE T1 = 2",
                vec![tup![1, "Tom", 4, 20]],
            ),
            (
                "SELECT PosID, EmpName, T1, 7 AS T2 FROM POSITION WHERE PosID = 2",
                vec![tup![2, "Tom", 5, 7]],
            ),
            (
                "SELECT B.PosID, A.EmpName, A.T1, A.T2, A.PosID, B.EmpName, B.T1, B.T2 \
                 FROM POSITION A, POSITION B WHERE A.PosID = B.PosID AND A.T1 < B.T1",
                vec![tup![1, "Tom", 2, 20, 1, "Jane", 5, 25]],
            ),
        ];
        for (sql, want) in cases {
            let p = plan(&db, sql);
            assert!(matches!(p.op, PlanOp::Project { .. }), "{sql}\n{}", p.render());
            assert_eq!(q(&db, sql), want, "{sql}");
        }
    }

    /// ORDER BY an input column the renaming projection hides slides the
    /// sort below the `Rename`, as it does below a `Project`.
    #[test]
    fn order_by_an_input_name_under_a_renaming_projection() {
        let db = setup();
        let rows =
            q(&db, "SELECT PosID AS P, EmpName AS E, T1 AS A, T2 AS B FROM POSITION ORDER BY T1");
        assert_eq!(
            rows,
            vec![tup![1, "Tom", 2, 20], tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10]]
        );
    }

    #[test]
    fn dictionary_views_are_queryable() {
        let db = setup();
        db.analyze("POSITION").unwrap();
        let rows =
            q(&db, "SELECT TABLE_NAME, NUM_ROWS FROM USER_TABLES WHERE TABLE_NAME = 'POSITION'");
        assert_eq!(rows, vec![tup!["POSITION", 3]]);
        let rows = q(
            &db,
            "SELECT COLUMN_NAME, NUM_DISTINCT FROM USER_TAB_COLUMNS \
             WHERE TABLE_NAME = 'POSITION' AND COLUMN_NAME = 'POSID'",
        );
        assert_eq!(rows, vec![tup!["POSID", 2]]);
    }

    /// A qualified column belongs to the FROM item its qualifier names:
    /// `A.Foo` is not `B.Foo` because only `B` has a `Foo`.
    #[test]
    fn a_qualified_column_is_not_found_under_another_binding() {
        let db = Database::in_memory();
        let cols = |second: &str| {
            Schema::new(vec![Attr::new("PosID", Type::Int), Attr::new(second, Type::Int)])
        };
        db.create_table("P", cols("Bar")).unwrap();
        db.create_table("Q", cols("Foo")).unwrap();
        db.insert_rows("P", vec![tup![1, 10]]).unwrap();
        db.insert_rows("Q", vec![tup![1, 3]]).unwrap();
        let sql = |pred: &str| {
            format!("SELECT A.PosID FROM P A, Q B WHERE A.PosID = B.PosID AND {pred} < 5")
        };
        let crate::ast::Stmt::Select(s) = parse(&sql("A.Foo")).unwrap() else { panic!() };
        let err = plan_select(&s, &db.inner.read()).unwrap_err();
        assert!(err.to_string().contains("unknown columns: (A.Foo < 5)"), "{err}");
        assert_eq!(q(&db, &sql("B.Foo")), vec![tup![1]]);
    }

    /// Query 3's DBMS fragment, as the middleware renders `TJOIN^D` over
    /// two filtered POSITION accesses: each side's `T1 < T2` conjunct is
    /// applied below the join, over that side's rows, and only the two
    /// conjuncts that read both sides sit above it.
    #[test]
    fn query_3s_one_sided_conjuncts_run_below_the_join() {
        let db = Database::in_memory();
        let schema = Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpID", Type::Int),
            Attr::new("PayRate", Type::Double),
            Attr::new("T1", Type::Date),
            Attr::new("T2", Type::Date),
        ]);
        db.create_table("POSITION", schema).unwrap();
        let side = "(SELECT PosID AS PosID, EmpID AS EmpID, T1 AS T1, T2 AS T2 FROM \
                    (SELECT X.PosID AS PosID, X.EmpID AS EmpID, X.PayRate AS PayRate, \
                    X.T1 AS T1, X.T2 AS T2 FROM POSITION X \
                    WHERE (T1 < DATE '1996-01-01')) X)";
        let sql = format!(
            "SELECT A.PosID AS PosID, A.EmpID AS EmpID, B.EmpID AS EmpID_1, \
             GREATEST(A.T1, B.T1) AS T1, LEAST(A.T2, B.T2) AS T2 FROM {side} A, {side} B \
             WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1 \
             AND A.T1 < A.T2 AND B.T1 < B.T2"
        );
        let side = |b: &str| {
            format!(
                "FILTER [({b}.T1 < {b}.T2)]\n  VIEW\n    PROJECT [4 columns]\n      VIEW\n        \
                 VIEW\n          FILTER [(T1 < DATE '1996-01-01')]\n            TABLE SCAN POSITION"
            )
        };
        let mut want =
            "PROJECT [5 columns]\n  FILTER [(A.T2 > B.T1)]\n    FILTER [(A.T1 < B.T2)]\n      \
                        HASH JOIN [A.PosID=B.PosID]\n"
                .to_string();
        for b in ["A", "B"] {
            side(b).lines().for_each(|l| want += &format!("        {l}\n"));
        }
        assert_eq!(plan(&db, &sql).render(), want);
    }
}
