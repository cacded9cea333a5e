//! The middleware Parser (Figure 1): temporal SQL → initial algebraic
//! query plan.
//!
//! The dialect is the mini-DBMS SQL grammar extended with a `VALIDTIME`
//! prefix (the paper leaves the concrete temporal-SQL syntax to [6, 12];
//! we follow the ATSQL/SQL/TP convention of a statement modifier):
//!
//! * `VALIDTIME SELECT g, COUNT(x) AS c FROM r GROUP BY g` — *temporal
//!   aggregation* (ξᵀ): aggregates per group over every constant period.
//! * `VALIDTIME SELECT ... FROM r1, r2 WHERE r1.k = r2.k` — *temporal
//!   join* (⋈ᵀ): equi-join plus period overlap, output period intersected.
//! * Subqueries in `FROM` may themselves be `VALIDTIME` blocks (used by
//!   Query 2 of the paper).
//! * Without `VALIDTIME`, plain selections/projections/joins are built.
//!
//! The initial plan assigns all processing to the DBMS and places a
//! single `T^M` on top (Figure 4a); the optimizer then repartitions it.

use crate::error::{Result, TangoError};
use std::collections::HashMap;
use tango_algebra::{AggSpec, Expr, Logical, ProjItem, Schema, SortKey, SortSpec, TOp};
use tango_minidb::ast::{FromItem, SelectItem, SelectStmt, Stmt};

/// Parse a temporal-SQL statement into the initial logical plan
/// (`T^M` on top). `table_schema` resolves base relations.
pub fn parse_tsql(sql: &str, table_schema: &dyn Fn(&str) -> Option<Schema>) -> Result<Logical> {
    let stmt = tango_minidb::parser::parse(sql).map_err(|e| TangoError::Parse(e.to_string()))?;
    let Stmt::Select(sel) = stmt else {
        return Err(TangoError::Parse(
            "only SELECT statements can be optimized by the middleware".into(),
        ));
    };
    let plan = block_to_logical(&sel, table_schema)?;
    Ok(plan.transfer_m())
}

/// What an `EXPLAIN` prefix asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Explain {
    /// `EXPLAIN <query>`: show the optimized plan, don't run it.
    Plan,
    /// `EXPLAIN ANALYZE <query>`: run it and show estimated vs. actuals.
    Analyze,
}

/// Strip a leading `EXPLAIN [ANALYZE]` from a statement. Returns the
/// request (if any) and the remaining statement text; the keywords are
/// case-insensitive, matching the rest of the dialect.
pub fn strip_explain(sql: &str) -> (Option<Explain>, &str) {
    fn eat_kw<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
        let t = s.trim_start();
        let head = t.get(..kw.len())?;
        if head.eq_ignore_ascii_case(kw) && t[kw.len()..].starts_with(|c: char| c.is_whitespace()) {
            Some(&t[kw.len()..])
        } else {
            None
        }
    }
    let Some(rest) = eat_kw(sql, "EXPLAIN") else {
        return (None, sql);
    };
    match eat_kw(rest, "ANALYZE") {
        Some(rest) => (Some(Explain::Analyze), rest.trim_start()),
        None => (Some(Explain::Plan), rest.trim_start()),
    }
}

/// One planned FROM item with its binding name and current schema.
struct Item {
    binding: String,
    schema: Schema,
    plan: Logical,
}

fn block_to_logical(
    stmt: &SelectStmt,
    table_schema: &dyn Fn(&str) -> Option<Schema>,
) -> Result<Logical> {
    if stmt.set_op.is_some() {
        return Err(TangoError::Parse("UNION is not supported in temporal SQL".into()));
    }
    if stmt.having.is_some() {
        return Err(TangoError::Parse("HAVING is not supported in temporal SQL".into()));
    }
    if stmt.from.is_empty() {
        return Err(TangoError::Parse("FROM clause required".into()));
    }
    if !stmt.validtime && !stmt.group_by.is_empty() {
        return Err(TangoError::Parse(
            "non-temporal GROUP BY belongs in the DBMS, not the middleware; use VALIDTIME for temporal aggregation"
                .into(),
        ));
    }

    // ---- FROM items -------------------------------------------------
    let mut items: Vec<Item> = Vec::with_capacity(stmt.from.len());
    for fi in &stmt.from {
        match fi {
            FromItem::Table { name, alias } => {
                let schema = table_schema(name)
                    .ok_or_else(|| TangoError::Parse(format!("unknown table {name}")))?;
                items.push(Item {
                    binding: alias.clone().unwrap_or_else(|| name.clone()),
                    schema,
                    plan: Logical::get(name.clone()),
                });
            }
            FromItem::Subquery { query, alias } => {
                let plan = block_to_logical(query, table_schema)?;
                let schema = plan.output_schema(table_schema)?;
                items.push(Item { binding: alias.clone(), schema, plan });
            }
        }
    }

    // ---- resolve a (possibly qualified) column to an item -----------
    let resolve = |col: &str, items: &[Item]| -> Result<(usize, String)> {
        if let Some((q, bare)) = col.split_once('.') {
            for (i, it) in items.iter().enumerate() {
                if it.binding.eq_ignore_ascii_case(q) {
                    let idx = it.schema.index_of(bare).map_err(TangoError::from)?;
                    return Ok((i, it.schema.attr(idx).name.clone()));
                }
            }
            return Err(TangoError::Parse(format!("unknown binding in {col}")));
        }
        let mut hit = None;
        for (i, it) in items.iter().enumerate() {
            if let Ok(idx) = it.schema.index_of(col) {
                if hit.is_some() {
                    return Err(TangoError::Parse(format!("ambiguous column {col}")));
                }
                hit = Some((i, it.schema.attr(idx).name.clone()));
            }
        }
        hit.ok_or_else(|| TangoError::Parse(format!("unknown column {col}")))
    };

    // ---- classify WHERE conjuncts -----------------------------------
    let conjuncts: Vec<Expr> = stmt
        .where_
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();
    let mut single: Vec<Vec<Expr>> = (0..items.len()).map(|_| Vec::new()).collect();
    let mut join_conds: Vec<(usize, String, usize, String)> = Vec::new();
    let mut post: Vec<Expr> = Vec::new();
    'conj: for c in &conjuncts {
        // equi-join between two items?
        if let Expr::Cmp(tango_algebra::CmpOp::Eq, l, r) = c {
            if let (Expr::Col { name: ln, .. }, Expr::Col { name: rn, .. }) =
                (l.as_ref(), r.as_ref())
            {
                if let (Ok((li, la)), Ok((ri, ra))) = (resolve(ln, &items), resolve(rn, &items)) {
                    if li != ri {
                        join_conds.push((li, la, ri, ra));
                        continue 'conj;
                    }
                }
            }
        }
        // single-item conjunct?
        let cols = c.columns();
        let owners: Vec<Option<usize>> =
            cols.iter().map(|cn| resolve(cn, &items).ok().map(|(i, _)| i)).collect();
        let owner = match owners.split_first() {
            Some((&Some(i), rest)) if rest.iter().all(|o| *o == Some(i)) => Some(i),
            _ => None,
        };
        if let Some(i) = owner {
            // rewrite to the item's local attribute names
            let mut local = c.clone();
            rewrite_cols(&mut local, &|n| resolve(n, &items).map(|(_, a)| a))?;
            single[i].push(local);
            continue;
        }
        post.push(c.clone());
    }

    // apply single-item selections
    for (i, preds) in single.into_iter().enumerate() {
        if let Some(p) = Expr::and_all(preds) {
            let item = &mut items[i];
            item.plan = std::mem::replace(&mut item.plan, Logical::get("_")).select(p);
        }
    }

    // ---- fold joins, maintaining the (item, attr) -> output-name map --
    let mut name_map: HashMap<(usize, String), String> = HashMap::new();
    for a in items[0].schema.attrs() {
        name_map.insert((0, a.name.to_uppercase()), a.name.clone());
    }
    let mut plan = std::mem::replace(&mut items[0].plan, Logical::get("_"));
    let mut cur_schema = items[0].schema.clone();

    #[allow(clippy::needless_range_loop)] // k indexes items *and* tags the name map
    for k in 1..items.len() {
        let mut eq: Vec<(String, String)> = Vec::new();
        for (a, la, b, ra) in &join_conds {
            let (left_item, left_attr, right_attr) = if *b == k && *a < k {
                (*a, la, ra)
            } else if *a == k && *b < k {
                (*b, ra, la)
            } else {
                continue;
            };
            let lname = name_map
                .get(&(left_item, left_attr.to_uppercase()))
                .cloned()
                .ok_or_else(|| TangoError::Parse(format!("join column {left_attr} lost")))?;
            eq.push((lname, right_attr.clone()));
        }
        let right_plan = std::mem::replace(&mut items[k].plan, Logical::get("_"));
        let right_schema = items[k].schema.clone();
        if stmt.validtime {
            if eq.is_empty() {
                return Err(TangoError::Parse(
                    "temporal join requires an equi-join condition".into(),
                ));
            }
            plan = plan.tjoin(right_plan, eq.clone());
        } else if eq.is_empty() {
            plan = Logical::Apply { op: TOp::Product, inputs: vec![plan, right_plan] };
        } else {
            plan = plan.join(right_plan, eq.clone());
        }
        let new_schema = plan.output_schema(table_schema)?;
        // rebuild the name map against the new schema
        let mut new_map: HashMap<(usize, String), String> = HashMap::new();
        if stmt.validtime {
            // TJoin layout: left non-period, right non-period minus keys, T1, T2
            let (lt1, lt2) = cur_schema
                .period()
                .ok_or_else(|| TangoError::Parse("temporal join over non-temporal input".into()))?;
            let mut pos = 0usize;
            for (i, a) in cur_schema.attrs().iter().enumerate() {
                if i == lt1 || i == lt2 {
                    continue;
                }
                // find which (item, attr) mapped to this left output name
                for (key, v) in &name_map {
                    if v == &a.name {
                        new_map.insert(key.clone(), new_schema.attr(pos).name.clone());
                    }
                }
                pos += 1;
            }
            let (rt1, rt2) = right_schema
                .period()
                .ok_or_else(|| TangoError::Parse("temporal join over non-temporal input".into()))?;
            for (j, a) in right_schema.attrs().iter().enumerate() {
                if j == rt1 || j == rt2 {
                    continue;
                }
                let is_key = eq.iter().any(|(_, rc)| rc.eq_ignore_ascii_case(&a.name));
                if is_key {
                    // right key values equal the left key's: map to it
                    if let Some((lname, _)) =
                        eq.iter().find(|(_, rc)| rc.eq_ignore_ascii_case(&a.name))
                    {
                        for (key, v) in &name_map {
                            if v == lname {
                                let mapped = new_map.get(key).cloned();
                                if let Some(m) = mapped {
                                    new_map.insert((k, a.name.to_uppercase()), m);
                                }
                            }
                        }
                    }
                    continue;
                }
                new_map.insert((k, a.name.to_uppercase()), new_schema.attr(pos).name.clone());
                pos += 1;
            }
        } else {
            // concat layout: left attrs then right attrs (clash-renamed)
            for (key, v) in &name_map {
                // left names unchanged by concat
                new_map.insert(key.clone(), v.clone());
            }
            let n_l = cur_schema.len();
            for (j, a) in right_schema.attrs().iter().enumerate() {
                new_map.insert((k, a.name.to_uppercase()), new_schema.attr(n_l + j).name.clone());
            }
        }
        name_map = new_map;
        cur_schema = new_schema;
    }

    // rewrites a column reference to the current combined output name;
    // bare T1/T2 in a validtime query address the (intersected) period
    let out_name = |col: &str| -> Result<String> {
        if stmt.validtime
            && items.len() > 1
            && (col.eq_ignore_ascii_case("T1") || col.eq_ignore_ascii_case("T2"))
        {
            return Ok(col.to_uppercase());
        }
        let (i, a) = resolve(col, &items)?;
        name_map
            .get(&(i, a.to_uppercase()))
            .cloned()
            .ok_or_else(|| TangoError::Parse(format!("column {col} not available here")))
    };

    // ---- post-join selection -----------------------------------------
    let post_rewritten: Vec<Expr> = post
        .into_iter()
        .map(|mut p| {
            rewrite_cols(&mut p, &out_name)?;
            Ok(p)
        })
        .collect::<Result<_>>()?;
    if let Some(p) = Expr::and_all(post_rewritten) {
        plan = plan.select(p);
    }

    // ---- aggregation ---------------------------------------------------
    let has_agg = stmt.items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
    let mut agg_aliases: Vec<String> = Vec::new();
    if stmt.validtime && (has_agg || !stmt.group_by.is_empty()) {
        let group_by: Vec<String> =
            stmt.group_by.iter().map(|g| out_name(g)).collect::<Result<_>>()?;
        let mut aggs = Vec::new();
        for (i, it) in stmt.items.iter().enumerate() {
            if let SelectItem::Agg { func, arg, alias } = it {
                let arg_col = match arg {
                    None => None,
                    Some(Expr::Col { name, .. }) => Some(out_name(name)?),
                    Some(_) => {
                        return Err(TangoError::Parse(
                            "temporal aggregates take a plain column argument".into(),
                        ))
                    }
                };
                let alias = alias.clone().unwrap_or_else(|| format!("{}_{}", func.sql(), i + 1));
                agg_aliases.push(alias.clone());
                aggs.push(AggSpec { func: *func, arg: arg_col, alias });
            }
        }
        plan = plan.taggr(group_by, aggs);
        cur_schema = plan.output_schema(table_schema)?;
    }

    // ---- projection -----------------------------------------------------
    // Output names must be unique: the Translator-To-SQL addresses inline
    // view columns by name, so `SELECT A.EmpID, B.EmpID` becomes
    // (EmpID, EmpID_2) like the join-schema convention.
    let mut used: Vec<String> = Vec::new();
    let mut uniquify = move |alias: String| -> String {
        let mut candidate = alias.clone();
        let mut i = 1;
        while used.iter().any(|u| u.eq_ignore_ascii_case(&candidate)) {
            i += 1;
            candidate = format!("{alias}_{i}");
        }
        used.push(candidate.clone());
        candidate
    };
    let mut proj: Vec<ProjItem> = Vec::new();
    let mut agg_i = 0usize;
    for it in &stmt.items {
        match it {
            SelectItem::Star => {
                for a in cur_schema.attrs() {
                    let alias = uniquify(a.name.clone());
                    proj.push(ProjItem::named(Expr::col(a.name.clone()), alias));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let mut e = expr.clone();
                if stmt.validtime && (has_agg || !stmt.group_by.is_empty()) {
                    // post-aggregation: references address the ξᵀ output
                    rewrite_cols(&mut e, &|n| {
                        cur_schema
                            .index_of(n)
                            .map(|i| cur_schema.attr(i).name.clone())
                            .map_err(TangoError::from)
                    })?;
                } else {
                    rewrite_cols(&mut e, &out_name)?;
                }
                let alias = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Col { name, .. } => name.rsplit('.').next().unwrap_or(name).to_string(),
                    _ => format!("EXPR_{}", proj.len() + 1),
                });
                proj.push(ProjItem::named(e, uniquify(alias)));
            }
            SelectItem::Agg { .. } => {
                let alias = agg_aliases
                    .get(agg_i)
                    .cloned()
                    .ok_or_else(|| TangoError::Parse("aggregate outside VALIDTIME".into()))?;
                agg_i += 1;
                let out_alias = uniquify(alias.clone());
                proj.push(ProjItem::named(Expr::col(alias), out_alias));
            }
        }
    }
    // temporal queries always carry their period
    if stmt.validtime && cur_schema.is_temporal() {
        for t in ["T1", "T2"] {
            if !proj.iter().any(|p| p.alias.eq_ignore_ascii_case(t)) {
                proj.push(ProjItem::named(Expr::col(t), uniquify(t.to_string())));
            }
        }
    }
    // skip identity projections (rule T9 at construction time)
    let identity = proj.len() == cur_schema.len()
        && proj.iter().zip(cur_schema.attrs()).all(|(p, a)| {
            p.alias.eq_ignore_ascii_case(&a.name)
                && matches!(&p.expr, Expr::Col { name, .. } if name.eq_ignore_ascii_case(&a.name))
        });
    if !identity {
        plan = plan.project(proj);
        cur_schema = plan.output_schema(table_schema)?;
    }

    // ---- DISTINCT / COALESCE ---------------------------------------------
    if stmt.distinct {
        plan = Logical::Apply { op: TOp::DupElim, inputs: vec![plan] };
    }
    if stmt.coalesce {
        if !cur_schema.is_temporal() {
            return Err(TangoError::Parse("VALIDTIME COALESCE requires a temporal result".into()));
        }
        plan = Logical::Apply { op: TOp::Coalesce, inputs: vec![plan] };
    }

    // ---- ORDER BY --------------------------------------------------------
    if !stmt.order_by.is_empty() {
        let mut keys = Vec::new();
        for (col, desc) in &stmt.order_by {
            // resolve against the projected output first, then inputs
            let name = if cur_schema.has(col) {
                cur_schema
                    .index_of(col)
                    .map(|i| cur_schema.attr(i).name.clone())
                    .map_err(TangoError::from)?
            } else {
                out_name(col)?
            };
            keys.push(SortKey { col: name, desc: *desc });
        }
        plan = plan.sort(SortSpec(keys));
    }
    Ok(plan)
}

/// Rewrite every column reference via `f` (its first error wins); a
/// renamed column loses the index it was bound to.
fn rewrite_cols(e: &mut Expr, f: &dyn Fn(&str) -> Result<String>) -> Result<()> {
    let mut result = Ok(());
    e.visit_mut(&mut |n| {
        if let (Expr::Col { name, index }, true) = (n, result.is_ok()) {
            result = f(name).map(|renamed| (*name, *index) = (renamed, None));
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::{Attr, Type};

    fn schemas(name: &str) -> Option<Schema> {
        match name.to_uppercase().as_str() {
            "POSITION" => Some(Schema::with_inferred_period(vec![
                Attr::new("PosID", Type::Int),
                Attr::new("EmpID", Type::Int),
                Attr::new("PayRate", Type::Double),
                Attr::new("T1", Type::Date),
                Attr::new("T2", Type::Date),
            ])),
            "EMPLOYEE" => Some(Schema::new(vec![
                Attr::new("EmpID", Type::Int),
                Attr::new("EmpName", Type::Str),
                Attr::new("Address", Type::Str),
            ])),
            _ => None,
        }
    }

    #[test]
    fn query1_temporal_aggregation() {
        let plan = parse_tsql(
            "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID ORDER BY PosID",
            &schemas,
        )
        .unwrap();
        let s = plan.to_string();
        assert!(s.starts_with("T^M"), "{s}");
        assert!(s.contains("TAGGR"), "{s}");
        assert!(s.contains("SORT"), "{s}");
        assert!(s.contains("GET POSITION"), "{s}");
        // initial plan has no transfers besides the top T^M
        assert_eq!(s.matches("T^M").count(), 1);
    }

    #[test]
    fn temporal_join_query() {
        let plan = parse_tsql(
            "VALIDTIME SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
             WHERE A.PosID = B.PosID AND A.T1 < DATE '1990-01-01' ORDER BY A.PosID",
            &schemas,
        )
        .unwrap();
        let s = plan.to_string();
        assert!(s.contains("TJOIN"), "{s}");
        // the single-table temporal restriction was pushed to input A
        assert!(s.contains("SELECT [(T1 < DATE '1990-01-01')]"), "{s}");
        // output carries the intersected period
        let schema = plan.output_schema(&schemas).unwrap();
        assert!(schema.is_temporal());
        assert!(schema.has("EmpID") || schema.has("EmpID_2"));
    }

    #[test]
    fn query2_nested_validtime() {
        let plan = parse_tsql(
            "VALIDTIME SELECT P.PosID, Cnt, P.EmpID FROM \
               (VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID) A, \
               POSITION P \
             WHERE A.PosID = P.PosID AND P.PayRate > 10 \
               AND T1 < DATE '1984-01-01' AND T2 > DATE '1983-01-01' \
             ORDER BY P.PosID",
            &schemas,
        )
        .unwrap();
        let s = plan.to_string();
        assert!(s.contains("TAGGR"), "{s}");
        assert!(s.contains("TJOIN"), "{s}");
        // PayRate pushed to POSITION side; window stays above the join
        assert!(s.contains("PayRate > 10"), "{s}");
        assert!(s.contains("T2 > DATE '1983-01-01'"), "{s}");
    }

    #[test]
    fn regular_join_query4() {
        let plan = parse_tsql(
            "SELECT P.PosID, E.EmpName, E.Address FROM POSITION P, EMPLOYEE E \
             WHERE P.EmpID = E.EmpID ORDER BY P.PosID",
            &schemas,
        )
        .unwrap();
        let s = plan.to_string();
        assert!(s.contains("JOIN"), "{s}");
        assert!(!s.contains("TJOIN"), "{s}");
        let schema = plan.output_schema(&schemas).unwrap();
        assert_eq!(schema.names().collect::<Vec<_>>(), vec!["PosID", "EmpName", "Address"]);
    }

    #[test]
    fn distinct_and_coalesce() {
        let plan = parse_tsql("VALIDTIME SELECT DISTINCT PosID FROM POSITION", &schemas).unwrap();
        assert!(plan.to_string().contains("DUPELIM"));
        let plan = parse_tsql("VALIDTIME COALESCE SELECT PosID FROM POSITION", &schemas).unwrap();
        assert!(plan.to_string().contains("COALESCE"), "{plan}");
    }

    #[test]
    fn errors() {
        assert!(parse_tsql("SELECT * FROM NOPE", &schemas).is_err());
        assert!(parse_tsql("SELECT PosID, COUNT(PosID) C FROM POSITION GROUP BY PosID", &schemas)
            .is_err()); // non-temporal aggregation is the DBMS's job
        assert!(parse_tsql(
            "VALIDTIME SELECT PosID FROM POSITION UNION VALIDTIME SELECT PosID FROM POSITION",
            &schemas
        )
        .is_err());
    }
}
