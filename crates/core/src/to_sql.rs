//! The Translator-To-SQL component (Figure 1): turns the DBMS-resident
//! parts of a chosen plan — everything below a `T^M` down to base
//! relations or `T^D` boundaries — into SQL text for the underlying DBMS.
//!
//! Rendering is compositional: every operator becomes a `SELECT` over its
//! children as inline views, so arbitrarily shaped fragments translate.
//! Temporal operators are expanded into conventional SQL:
//!
//! * a temporal join becomes the join + `GREATEST`/`LEAST` projection +
//!   overlap predicate of Figure 5;
//! * temporal aggregation becomes the *constant-period* query (the
//!   paper's "50-line SQL" for `TAGGR^D`): derive each group's candidate
//!   constant periods from the union of its `T1`/`T2` points, then count
//!   or aggregate the tuples covering each period.

use crate::error::{Result, TangoError};
use crate::phys::{Algo, PhysNode};
use tango_algebra::{AggSpec, Schema, SortSpec};

/// Render a pure-DBMS plan fragment as a SELECT statement. `T^D`
/// boundaries must already have been replaced by temp-table scans by the
/// engine.
pub fn render_select(node: &PhysNode) -> Result<String> {
    match render(node)? {
        Rendered::Table(t) => {
            // a bare table scan: expand to an explicit SELECT
            let cols = column_list(&node.schema, None);
            Ok(format!("SELECT {cols} FROM {t}"))
        }
        Rendered::Query(q) => Ok(q),
    }
}

enum Rendered {
    /// A base (or temp) table usable directly in FROM.
    Table(String),
    /// A full SELECT, usable as an inline view.
    Query(String),
}

impl Rendered {
    // renders this fragment as a FROM-clause item (not a conversion)
    #[allow(clippy::wrong_self_convention)]
    fn from_clause(&self, alias: &str) -> String {
        match self {
            Rendered::Table(t) => format!("{t} {alias}"),
            Rendered::Query(q) => format!("({q}) {alias}"),
        }
    }
}

fn column_list(schema: &Schema, qualifier: Option<&str>) -> String {
    schema
        .names()
        .map(|n| match qualifier {
            Some(q) => format!("{q}.{n} AS {n}"),
            None => n.to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn order_clause(spec: &SortSpec) -> String {
    spec.keys()
        .iter()
        .map(|k| if k.desc { format!("{} DESC", k.col) } else { k.col.clone() })
        .collect::<Vec<_>>()
        .join(", ")
}

fn render(node: &PhysNode) -> Result<Rendered> {
    Ok(match &node.algo {
        Algo::ScanD(table) => Rendered::Table(table.clone()),
        Algo::FilterD(pred) => {
            let child = render(&node.children[0])?;
            Rendered::Query(format!(
                "SELECT {} FROM {} WHERE {pred}",
                column_list(&node.schema, Some("X")),
                child.from_clause("X"),
            ))
        }
        Algo::ProjectD(items) => {
            let child = render(&node.children[0])?;
            let sel = items
                .iter()
                .map(|it| format!("{} AS {}", it.expr, it.alias))
                .collect::<Vec<_>>()
                .join(", ");
            Rendered::Query(format!("SELECT {sel} FROM {}", child.from_clause("X")))
        }
        Algo::SortD(spec) => {
            let child = render(&node.children[0])?;
            Rendered::Query(format!(
                "SELECT {} FROM {} ORDER BY {}",
                column_list(&node.schema, Some("X")),
                child.from_clause("X"),
                order_clause(spec),
            ))
        }
        Algo::DupElimD => {
            let child = render(&node.children[0])?;
            Rendered::Query(format!(
                "SELECT DISTINCT {} FROM {}",
                column_list(&node.schema, Some("X")),
                child.from_clause("X"),
            ))
        }
        Algo::JoinD(_) | Algo::ProductD => {
            let eq = if let Algo::JoinD(eq) = &node.algo { eq.clone() } else { vec![] };
            let l = render(&node.children[0])?;
            let r = render(&node.children[1])?;
            let ls = &node.children[0].schema;
            let rs = &node.children[1].schema;
            // output layout: left attrs then right attrs (clash-renamed)
            let mut sel = Vec::new();
            for (i, a) in ls.attrs().iter().enumerate() {
                sel.push(format!("A.{} AS {}", a.name, node.schema.attr(i).name));
            }
            for (j, a) in rs.attrs().iter().enumerate() {
                sel.push(format!("B.{} AS {}", a.name, node.schema.attr(ls.len() + j).name));
            }
            let mut sql = format!(
                "SELECT {} FROM {}, {}",
                sel.join(", "),
                l.from_clause("A"),
                r.from_clause("B"),
            );
            if !eq.is_empty() {
                let conds: Vec<String> = eq.iter().map(|(a, b)| format!("A.{a} = B.{b}")).collect();
                sql += &format!(" WHERE {}", conds.join(" AND "));
            }
            Rendered::Query(sql)
        }
        Algo::TJoinD(eq) => {
            let l = render(&node.children[0])?;
            let r = render(&node.children[1])?;
            let ls = &node.children[0].schema;
            let rs = &node.children[1].schema;
            let (lt1, lt2) = ls.period().ok_or_else(|| {
                TangoError::Exec("temporal join over non-temporal SQL fragment".into())
            })?;
            let (rt1, rt2) = rs.period().ok_or_else(|| {
                TangoError::Exec("temporal join over non-temporal SQL fragment".into())
            })?;
            let (lt1, lt2) = (&ls.attr(lt1).name, &ls.attr(lt2).name);
            let (rt1, rt2) = (&rs.attr(rt1).name, &rs.attr(rt2).name);
            // select list follows tjoin_schema: left non-period, right
            // non-period minus keys, then the intersected T1/T2
            let mut sel = Vec::new();
            let mut out_i = 0usize;
            for a in ls.attrs() {
                if a.name != *lt1 && a.name != *lt2 {
                    sel.push(format!("A.{} AS {}", a.name, node.schema.attr(out_i).name));
                    out_i += 1;
                }
            }
            for a in rs.attrs() {
                let is_key = eq.iter().any(|(_, rc)| rc.eq_ignore_ascii_case(&a.name));
                if a.name != *rt1 && a.name != *rt2 && !is_key {
                    sel.push(format!("B.{} AS {}", a.name, node.schema.attr(out_i).name));
                    out_i += 1;
                }
            }
            sel.push(format!("GREATEST(A.{lt1}, B.{rt1}) AS T1"));
            sel.push(format!("LEAST(A.{lt2}, B.{rt2}) AS T2"));
            let mut conds: Vec<String> = eq.iter().map(|(a, b)| format!("A.{a} = B.{b}")).collect();
            conds.push(format!("A.{lt1} < B.{rt2}"));
            conds.push(format!("A.{lt2} > B.{rt1}"));
            // a row whose period is empty holds at no time point, so it
            // joins nothing (as in `TMERGEJOIN^M`)
            conds.push(format!("A.{lt1} < A.{lt2}"));
            conds.push(format!("B.{rt1} < B.{rt2}"));
            Rendered::Query(format!(
                "SELECT {} FROM {}, {} WHERE {}",
                sel.join(", "),
                l.from_clause("A"),
                r.from_clause("B"),
                conds.join(" AND "),
            ))
        }
        Algo::TAggrD { group_by, aggs } => {
            let child = render(&node.children[0])?;
            let cs = &node.children[0].schema;
            let (t1, t2) = cs.period().ok_or_else(|| {
                TangoError::Exec("temporal aggregation over non-temporal SQL fragment".into())
            })?;
            let (t1, t2) = (cs.attr(t1).name.clone(), cs.attr(t2).name.clone());
            Rendered::Query(taggr_sql(&child, group_by, aggs, &t1, &t2, &node.schema))
        }
        other => {
            return Err(TangoError::Exec(format!(
                "cannot translate middleware algorithm {} to SQL",
                other.label()
            )))
        }
    })
}

/// The constant-period SQL for DBMS-side temporal aggregation.
///
/// Structure (for grouping attributes `g…` over argument `R`):
///
/// 1. `points` — the distinct period endpoints per group
///    (`T1 ∪ T2`) of the rows whose period holds at some time point;
/// 2. `cp` — candidate constant periods: each point paired with the next
///    point of the same group (`MIN` over later points);
/// 3. outer query — joins candidate periods back to `R`, keeping periods
///    covered by at least one tuple, and aggregates the covering tuples.
fn taggr_sql(
    child: &Rendered,
    group_by: &[String],
    aggs: &[AggSpec],
    t1: &str,
    t2: &str,
    out_schema: &Schema,
) -> String {
    let g_sel = |src: &str| -> String {
        group_by
            .iter()
            .enumerate()
            .map(|(i, g)| format!("{src}{g} AS g{i}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    // a row whose period is empty or has a NULL endpoint holds at no
    // time point, so its endpoints bound no constant period
    let points = format!(
        "SELECT DISTINCT {}{}{t1} AS t FROM {} WHERE {t1} < {t2} \
         UNION SELECT DISTINCT {}{}{t2} FROM {} WHERE {t1} < {t2}",
        g_sel(""),
        if group_by.is_empty() { "" } else { ", " },
        child.from_clause("XP1"),
        group_by.iter().map(|g| g.to_string()).collect::<Vec<_>>().join(", "),
        if group_by.is_empty() { "" } else { ", " },
        child.from_clause("XP2"),
    );
    let mut cp_conds: Vec<String> =
        group_by.iter().enumerate().map(|(i, _)| format!("p1.g{i} = p2.g{i}")).collect();
    cp_conds.push("p2.t > p1.t".to_string());
    let cp_group: Vec<String> = group_by
        .iter()
        .enumerate()
        .map(|(i, _)| format!("p1.g{i}"))
        .chain(std::iter::once("p1.t".to_string()))
        .collect();
    let cp_sel: Vec<String> = group_by
        .iter()
        .enumerate()
        .map(|(i, _)| format!("p1.g{i} AS g{i}"))
        .chain(["p1.t AS ts".to_string(), "MIN(p2.t) AS te".to_string()])
        .collect();
    let cp = format!(
        "SELECT {} FROM ({points}) p1, ({points}) p2 WHERE {} GROUP BY {}",
        cp_sel.join(", "),
        cp_conds.join(" AND "),
        cp_group.join(", "),
    );
    // outer: join candidate periods with covering tuples
    let mut outer_sel: Vec<String> = group_by
        .iter()
        .enumerate()
        .map(|(i, _)| format!("cp.g{i} AS {}", out_schema.attr(i).name))
        .collect();
    outer_sel.push("cp.ts AS T1".to_string());
    outer_sel.push("cp.te AS T2".to_string());
    for a in aggs {
        let call = match &a.arg {
            Some(c) => format!("{}(r.{c})", a.func.sql()),
            None => format!("{}(*)", a.func.sql()),
        };
        outer_sel.push(format!("{call} AS {}", a.alias));
    }
    let mut outer_conds: Vec<String> =
        group_by.iter().enumerate().map(|(i, g)| format!("r.{g} = cp.g{i}")).collect();
    outer_conds.push(format!("r.{t1} <= cp.ts"));
    outer_conds.push(format!("r.{t2} >= cp.te"));
    let outer_group: Vec<String> = group_by
        .iter()
        .enumerate()
        .map(|(i, _)| format!("cp.g{i}"))
        .chain(["cp.ts".to_string(), "cp.te".to_string()])
        .collect();
    format!(
        "SELECT {} FROM ({cp}) cp, {} WHERE {} GROUP BY {}",
        outer_sel.join(", "),
        child.from_clause("r"),
        outer_conds.join(" AND "),
        outer_group.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tango_algebra::{AggFunc, Attr, CmpOp, Expr, Type};
    use tango_minidb::{Connection, Database};

    fn position_schema() -> Arc<Schema> {
        Arc::new(Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpName", Type::Str),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]))
    }

    fn scan() -> PhysNode {
        PhysNode {
            algo: Algo::ScanD("POSITION".into()),
            schema: position_schema(),
            children: vec![],
        }
    }

    fn conn() -> Connection {
        let c = Connection::new(Database::in_memory());
        c.execute("CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(20), T1 INT, T2 INT)")
            .unwrap();
        c.execute("INSERT INTO POSITION VALUES (1,'Tom',2,20),(1,'Jane',5,25),(2,'Tom',5,10)")
            .unwrap();
        c
    }

    #[test]
    fn scan_filter_sort_roundtrip() {
        let filter = PhysNode {
            algo: Algo::FilterD(Expr::cmp(CmpOp::Eq, Expr::col("PosID"), Expr::lit(1))),
            schema: position_schema(),
            children: vec![scan()],
        };
        let sorted = PhysNode {
            algo: Algo::SortD(SortSpec::by(["T1"])),
            schema: position_schema(),
            children: vec![filter],
        };
        let sql = render_select(&sorted).unwrap();
        let r = conn().query_all(&sql).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[0][1], tango_algebra::Value::Str("Tom".into()));
    }

    #[test]
    fn taggr_sql_matches_figure3c() {
        let aggs = vec![AggSpec::new(AggFunc::Count, Some("PosID"), "CNT")];
        let out =
            tango_algebra::logical::taggr_schema(&["PosID".to_string()], &aggs, &position_schema())
                .unwrap();
        let node = PhysNode {
            algo: Algo::TAggrD { group_by: vec!["PosID".into()], aggs },
            schema: Arc::new(out),
            children: vec![scan()],
        };
        let sql = render_select(&node).unwrap();
        let mut r = conn().query_all(&sql).unwrap();
        r.sort_by(&SortSpec::by(["PosID", "T1"]));
        assert_eq!(
            r.tuples(),
            &[
                tango_algebra::tup![1, 2, 5, 1],
                tango_algebra::tup![1, 5, 20, 2],
                tango_algebra::tup![1, 20, 25, 1],
                tango_algebra::tup![2, 5, 10, 1],
            ]
        );
    }

    #[test]
    fn tjoin_sql_matches_figure3b() {
        // temporal self-join of POSITION with its aggregation, DBMS-side
        let aggs = vec![AggSpec::new(AggFunc::Count, Some("PosID"), "COUNTofPosID")];
        let agg_schema = Arc::new(
            tango_algebra::logical::taggr_schema(&["PosID".to_string()], &aggs, &position_schema())
                .unwrap(),
        );
        let agg = PhysNode {
            algo: Algo::TAggrD { group_by: vec!["PosID".into()], aggs },
            schema: agg_schema.clone(),
            children: vec![scan()],
        };
        let eq = vec![("PosID".to_string(), "PosID".to_string())];
        let out =
            tango_algebra::logical::tjoin_schema(&eq, &position_schema(), &agg_schema).unwrap();
        let node =
            PhysNode { algo: Algo::TJoinD(eq), schema: Arc::new(out), children: vec![scan(), agg] };
        let sql = render_select(&node).unwrap();
        let mut r = conn().query_all(&sql).unwrap();
        r.sort_by(&SortSpec::by(["PosID", "EmpName", "T1"]));
        // Figure 3(b) as (PosID, EmpName, COUNTofPosID, T1, T2)
        assert_eq!(
            r.tuples(),
            &[
                tango_algebra::tup![1, "Jane", 2, 5, 20],
                tango_algebra::tup![1, "Jane", 1, 20, 25],
                tango_algebra::tup![1, "Tom", 1, 2, 5],
                tango_algebra::tup![1, "Tom", 2, 5, 20],
                tango_algebra::tup![2, "Tom", 1, 5, 10],
            ]
        );
    }

    #[test]
    fn middleware_algorithms_are_untranslatable() {
        let node =
            PhysNode { algo: Algo::TransferM, schema: position_schema(), children: vec![scan()] };
        assert!(render_select(&node).is_err());
    }
}
