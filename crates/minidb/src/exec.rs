//! Physical plans and the materializing executor.
//!
//! Deliberately a different execution style from the middleware: the
//! mini-DBMS evaluates operator-at-a-time with hash-based joins and
//! aggregation — the "conventional DBMS" the middleware treats as a very
//! capable file system. It materializes each operator's output; base
//! tables are read in place. A full scan lends the heap under the read
//! lock `run`'s caller holds, a filter over it copies only the rows it
//! keeps, and an operator that must own its input (a sort, a merge join,
//! a union, the final result) copies the heap only if no operator below
//! it already did. A projection that keeps every input column in place
//! is planned as a `Rename` (`EXPLAIN` shows `VIEW` where it used to
//! show `PROJECT`), so TANGO's all-columns wrapper around a base access
//! copies nothing.

use crate::catalog::{dictionary_view, DbInner};
use crate::error::{DbError, Result};
use std::collections::HashMap;
use std::sync::Arc;
use tango_algebra::value::Key;
use tango_algebra::{
    sort_tuples, AggFunc, ExactSum, Expr, Relation, Schema, SortSpec, Tuple, Value,
};

/// One aggregate computed by `HashAgg`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    pub func: AggFunc,
    /// `None` = `COUNT(*)`.
    pub arg: Option<Expr>,
    pub alias: String,
}

/// A physical plan node with its output schema (computed by the planner).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub op: PlanOp,
    pub schema: Arc<Schema>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Full table scan (base table or dictionary view).
    Scan {
        table: String,
    },
    /// B-tree index range scan: `lo < col` and/or `col < hi` bounds
    /// (inclusive flags per bound); residual predicates live in a parent
    /// `Filter`.
    IndexScan {
        table: String,
        col: String,
        lo: Option<(Value, bool)>,
        hi: Option<(Value, bool)>,
    },
    /// Re-expose a child under different attribute names (inline-view
    /// aliasing).
    Rename {
        input: Box<Plan>,
    },
    Filter {
        pred: Expr,
        input: Box<Plan>,
    },
    Project {
        items: Vec<(Expr, String)>,
        input: Box<Plan>,
    },
    Sort {
        keys: SortSpec,
        input: Box<Plan>,
    },
    HashJoin {
        lkeys: Vec<String>,
        rkeys: Vec<String>,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    MergeJoin {
        lkeys: Vec<String>,
        rkeys: Vec<String>,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    /// Nested loops with optional predicate (over the concatenated row).
    NlJoin {
        pred: Option<Expr>,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    /// Index nested-loop join: probe the B-tree index on `table.col`
    /// with the left key — what Oracle's `USE_NL` hint does when the
    /// inner table is indexed on the join column.
    IndexNlJoin {
        lkey: String,
        table: String,
        col: String,
        left: Box<Plan>,
    },
    HashAgg {
        group_by: Vec<String>,
        aggs: Vec<AggItem>,
        input: Box<Plan>,
    },
    Distinct {
        input: Box<Plan>,
    },
    UnionAll {
        inputs: Vec<Plan>,
    },
}

impl Plan {
    /// Render the plan as indented text (the EXPLAIN output).
    pub fn render(&self) -> String {
        fn go(p: &Plan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let line = match &p.op {
                PlanOp::Scan { table } => format!("TABLE SCAN {table}"),
                PlanOp::IndexScan { table, col, .. } => {
                    format!("INDEX RANGE SCAN {table}.{col}")
                }
                PlanOp::Rename { .. } => "VIEW".to_string(),
                PlanOp::Filter { pred, .. } => format!("FILTER [{pred}]"),
                PlanOp::Project { items, .. } => {
                    format!("PROJECT [{} columns]", items.len())
                }
                PlanOp::Sort { keys, .. } => format!("SORT [{keys}]"),
                PlanOp::HashJoin { lkeys, rkeys, .. } => format!(
                    "HASH JOIN [{}]",
                    lkeys
                        .iter()
                        .zip(rkeys)
                        .map(|(l, r)| format!("{l}={r}"))
                        .collect::<Vec<_>>()
                        .join(" AND ")
                ),
                PlanOp::MergeJoin { lkeys, rkeys, .. } => format!(
                    "MERGE JOIN [{}]",
                    lkeys
                        .iter()
                        .zip(rkeys)
                        .map(|(l, r)| format!("{l}={r}"))
                        .collect::<Vec<_>>()
                        .join(" AND ")
                ),
                PlanOp::NlJoin { .. } => "NESTED LOOPS".to_string(),
                PlanOp::IndexNlJoin { table, col, .. } => {
                    format!("INDEX NESTED LOOPS {table}.{col}")
                }
                PlanOp::HashAgg { group_by, aggs, .. } => {
                    format!("HASH GROUP BY [{}] aggs={}", group_by.join(", "), aggs.len())
                }
                PlanOp::Distinct { .. } => "HASH UNIQUE".to_string(),
                PlanOp::UnionAll { .. } => "UNION ALL".to_string(),
            };
            out.push_str(&pad);
            out.push_str(&line);
            out.push('\n');
            match &p.op {
                PlanOp::Rename { input }
                | PlanOp::Filter { input, .. }
                | PlanOp::Project { input, .. }
                | PlanOp::Sort { input, .. }
                | PlanOp::HashAgg { input, .. }
                | PlanOp::Distinct { input } => go(input, depth + 1, out),
                PlanOp::IndexNlJoin { left, .. } => go(left, depth + 1, out),
                PlanOp::HashJoin { left, right, .. }
                | PlanOp::MergeJoin { left, right, .. }
                | PlanOp::NlJoin { left, right, .. } => {
                    go(left, depth + 1, out);
                    go(right, depth + 1, out);
                }
                PlanOp::UnionAll { inputs } => {
                    for i in inputs {
                        go(i, depth + 1, out);
                    }
                }
                _ => {}
            }
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out
    }

    /// Operator count (for EXPLAIN-ish reporting).
    pub fn node_count(&self) -> usize {
        1 + match &self.op {
            PlanOp::Scan { .. } | PlanOp::IndexScan { .. } => 0,
            PlanOp::Rename { input }
            | PlanOp::Filter { input, .. }
            | PlanOp::Project { input, .. }
            | PlanOp::Sort { input, .. }
            | PlanOp::HashAgg { input, .. }
            | PlanOp::Distinct { input } => input.node_count(),
            PlanOp::IndexNlJoin { left, .. } => left.node_count(),
            PlanOp::HashJoin { left, right, .. }
            | PlanOp::MergeJoin { left, right, .. }
            | PlanOp::NlJoin { left, right, .. } => left.node_count() + right.node_count(),
            PlanOp::UnionAll { inputs } => inputs.iter().map(Plan::node_count).sum(),
        }
    }
}

/// Execute a plan against the database (storage lock held by the caller).
pub fn run(plan: &Plan, db: &DbInner) -> Result<Relation> {
    Ok(Relation::new(plan.schema.clone(), eval(plan, db)?.into_owned()))
}

/// One operator's output: the heap itself, lent by a base-table scan
/// for as long as the caller's read lock lives, or rows an operator
/// materialized.
enum Rows<'a> {
    Borrowed(&'a [Tuple]),
    Owned(Vec<Tuple>),
}

impl<'a> Rows<'a> {
    fn as_slice(&self) -> &[Tuple] {
        match self {
            Rows::Borrowed(s) => s,
            Rows::Owned(v) => v,
        }
    }

    /// The rows as a vector of their own — a copy only while they are
    /// still the heap.
    fn into_owned(self) -> Vec<Tuple> {
        match self {
            Rows::Borrowed(s) => s.to_vec(),
            Rows::Owned(v) => v,
        }
    }

    /// The rows `keep` accepts, in order: copied out of the heap, or
    /// kept in place in an owned vector.
    fn retain(self, mut keep: impl FnMut(&Tuple) -> Result<bool>) -> Result<Rows<'a>> {
        let mut rows = Vec::new();
        match self {
            Rows::Borrowed(s) => {
                for t in s {
                    if keep(t)? {
                        rows.push(t.clone());
                    }
                }
            }
            Rows::Owned(v) => {
                for t in v {
                    if keep(&t)? {
                        rows.push(t);
                    }
                }
            }
        }
        Ok(Rows::Owned(rows))
    }
}

fn eval<'a>(plan: &Plan, db: &'a DbInner) -> Result<Rows<'a>> {
    match &plan.op {
        PlanOp::Scan { table } => {
            if let Some(v) = dictionary_view(table, db) {
                return Ok(Rows::Owned(v.into_tuples()));
            }
            Ok(Rows::Borrowed(&db.table(table)?.rows))
        }
        PlanOp::IndexScan { table, col, lo, hi } => {
            let t = db.table(table)?;
            let ix = db
                .index_on(table, col)
                .ok_or_else(|| DbError::Semantic(format!("no index on {table}.{col}")))?;
            use std::ops::Bound;
            // no comparison selects a NULL: not against a NULL bound, and
            // not a NULL key, which sorts first
            if [lo, hi].into_iter().flatten().any(|(v, _)| v.is_null()) {
                return Ok(Rows::Owned(Vec::new()));
            }
            let lo_b = match lo {
                Some((v, true)) => Bound::Included(v.key()),
                Some((v, false)) => Bound::Excluded(v.key()),
                None => Bound::Excluded(Key::Null),
            };
            let hi_k = hi.as_ref().map(|(v, inclusive)| (v.key(), *inclusive));
            let below_hi = |k: &Key| hi_k.as_ref().is_none_or(|(h, i)| k < h || (*i && k == h));
            // bounds that cross select nothing (`range` over both would panic)
            let hits = ix.map.range((lo_b, Bound::Unbounded)).take_while(|(k, _)| below_hi(k));
            let mut rows = Vec::new();
            for (_, rids) in hits {
                for &rid in rids {
                    rows.push(t.rows[rid].clone());
                }
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::Rename { input } => eval(input, db),
        PlanOp::Filter { pred, input } => {
            let r = eval(input, db)?;
            let bound = pred.bound(&input.schema)?;
            r.retain(|t| Ok(bound.matches(t)?))
        }
        PlanOp::Project { items, input } => {
            let r = eval(input, db)?;
            let bound: Vec<Expr> = items
                .iter()
                .map(|(e, _)| e.bound(&input.schema))
                .collect::<tango_algebra::Result<_>>()?;
            let mut rows = Vec::with_capacity(r.as_slice().len());
            for t in r.as_slice() {
                let mut vals = Vec::with_capacity(bound.len());
                for e in &bound {
                    vals.push(e.eval(t)?);
                }
                rows.push(Tuple::new(vals));
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::Sort { keys, input } => {
            let mut rows = eval(input, db)?.into_owned();
            sort_tuples(&mut rows, keys, &input.schema);
            Ok(Rows::Owned(rows))
        }
        PlanOp::HashJoin { lkeys, rkeys, left, right } => {
            let (l, r) = (eval(left, db)?, eval(right, db)?);
            let li = resolve_keys(lkeys, &left.schema)?;
            let ri = resolve_keys(rkeys, &right.schema)?;
            // build on the right input
            let mut table: HashMap<Vec<Key>, Vec<&Tuple>> = HashMap::new();
            for t in r.as_slice() {
                if ri.iter().any(|&i| t[i].is_null()) {
                    continue; // NULL keys never join
                }
                table.entry(ri.iter().map(|&i| t[i].key()).collect()).or_default().push(t);
            }
            let mut rows = Vec::new();
            for lt in l.as_slice() {
                if li.iter().any(|&i| lt[i].is_null()) {
                    continue;
                }
                let k: Vec<Key> = li.iter().map(|&i| lt[i].key()).collect();
                if let Some(matches) = table.get(&k) {
                    for rt in matches {
                        rows.push(lt.concat(rt));
                    }
                }
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::MergeJoin { lkeys, rkeys, left, right } => {
            let mut lt = eval(left, db)?.into_owned();
            let mut rt = eval(right, db)?.into_owned();
            sort_tuples(&mut lt, &SortSpec::by(lkeys.iter().map(String::as_str)), &left.schema);
            sort_tuples(&mut rt, &SortSpec::by(rkeys.iter().map(String::as_str)), &right.schema);
            let li = resolve_keys(lkeys, &left.schema)?;
            let ri = resolve_keys(rkeys, &right.schema)?;
            let mut rows = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < lt.len() && j < rt.len() {
                let cmp = key_cmp(&lt[i], &li, &rt[j], &ri);
                match cmp {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        if li.iter().any(|&k| lt[i][k].is_null()) {
                            i += 1;
                            continue;
                        }
                        // group bounds
                        let mut i2 = i;
                        while i2 < lt.len() && key_cmp(&lt[i2], &li, &rt[j], &ri).is_eq() {
                            i2 += 1;
                        }
                        let mut j2 = j;
                        while j2 < rt.len() && key_cmp(&lt[i], &li, &rt[j2], &ri).is_eq() {
                            j2 += 1;
                        }
                        for l_row in &lt[i..i2] {
                            for r_row in &rt[j..j2] {
                                rows.push(l_row.concat(r_row));
                            }
                        }
                        i = i2;
                        j = j2;
                    }
                }
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::NlJoin { pred, left, right } => {
            let (l, r) = (eval(left, db)?, eval(right, db)?);
            let bound = match pred {
                Some(p) => Some(p.bound(&plan.schema)?),
                None => None,
            };
            let mut rows = Vec::new();
            for lt in l.as_slice() {
                for rt in r.as_slice() {
                    let out = lt.concat(rt);
                    match &bound {
                        None => rows.push(out),
                        Some(p) => {
                            if p.matches(&out)? {
                                rows.push(out);
                            }
                        }
                    }
                }
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::IndexNlJoin { lkey, table, col, left } => {
            let l = eval(left, db)?;
            let t = db.table(table)?;
            let ix = db
                .index_on(table, col)
                .ok_or_else(|| DbError::Semantic(format!("no index on {table}.{col}")))?;
            let ki = left.schema.index_of(lkey)?;
            let mut rows = Vec::new();
            for lt in l.as_slice() {
                if lt[ki].is_null() {
                    continue;
                }
                if let Some(rids) = ix.map.get(&lt[ki].key()) {
                    for &rid in rids {
                        rows.push(lt.concat(&t.rows[rid]));
                    }
                }
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::HashAgg { group_by, aggs, input } => {
            let r = eval(input, db)?;
            let gi = resolve_keys(group_by, &input.schema)?;
            let bound_args: Vec<Option<Expr>> = aggs
                .iter()
                .map(|a| a.arg.as_ref().map(|e| e.bound(&input.schema)).transpose())
                .collect::<tango_algebra::Result<_>>()?;
            struct Group {
                reprs: Vec<Value>,
                accs: Vec<Acc>,
            }
            let mut order: Vec<Vec<Key>> = Vec::new();
            let mut groups: HashMap<Vec<Key>, Group> = HashMap::new();
            for t in r.as_slice() {
                let k: Vec<Key> = gi.iter().map(|&i| t[i].key()).collect();
                let g = groups.entry(k.clone()).or_insert_with(|| {
                    order.push(k);
                    Group {
                        reprs: gi.iter().map(|&i| t[i].clone()).collect(),
                        accs: aggs.iter().map(|a| Acc::new(a.func)).collect(),
                    }
                });
                for (acc, arg) in g.accs.iter_mut().zip(&bound_args) {
                    let v = match arg {
                        Some(e) => Some(e.eval(t)?),
                        None => None,
                    };
                    acc.add(v.as_ref());
                }
            }
            // A global aggregate over an empty input still yields one row.
            if gi.is_empty() && groups.is_empty() {
                order.push(Vec::new());
                groups.insert(
                    Vec::new(),
                    Group {
                        reprs: Vec::new(),
                        accs: aggs.iter().map(|a| Acc::new(a.func)).collect(),
                    },
                );
            }
            let mut rows = Vec::with_capacity(order.len());
            for k in order {
                let g = &groups[&k];
                let mut vals = g.reprs.clone();
                vals.extend(g.accs.iter().map(Acc::finish));
                rows.push(Tuple::new(vals));
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::Distinct { input } => {
            let mut seen = std::collections::HashSet::new();
            eval(input, db)?.retain(|t| {
                Ok(seen.insert(t.values().iter().map(Value::key).collect::<Vec<Key>>()))
            })
        }
        PlanOp::UnionAll { inputs } => {
            let mut rows = Vec::new();
            for p in inputs {
                let r = eval(p, db)?;
                if p.schema.len() != plan.schema.len() {
                    return Err(DbError::Semantic("UNION arity mismatch".into()));
                }
                rows.extend(r.into_owned());
            }
            Ok(Rows::Owned(rows))
        }
    }
}

fn resolve_keys(names: &[String], schema: &Schema) -> Result<Vec<usize>> {
    names.iter().map(|n| schema.index_of(n).map_err(DbError::from)).collect()
}

fn key_cmp(l: &Tuple, li: &[usize], r: &Tuple, ri: &[usize]) -> std::cmp::Ordering {
    for (&a, &b) in li.iter().zip(ri) {
        let o = l[a].total_cmp(&r[b]);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    std::cmp::Ordering::Equal
}

/// Aggregate accumulator (no removal; the DBMS aggregates whole groups).
/// SUM and AVG over doubles add exactly and round once ([`ExactSum`]), so
/// the heap order of a group never changes the answer, and the answer is
/// the middleware's `TAGGR^M` to the bit.
enum Acc {
    Count(i64),
    Sum { int: i64, float: ExactSum, n: i64, saw_float: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: ExactSum, n: i64 },
}

impl Acc {
    fn new(f: AggFunc) -> Acc {
        match f {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum { int: 0, float: ExactSum::default(), n: 0, saw_float: false },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: ExactSum::default(), n: 0 },
        }
    }

    fn add(&mut self, v: Option<&Value>) {
        match self {
            Acc::Count(n) => {
                if v.is_none_or(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            Acc::Sum { int, float, n, saw_float } => match v {
                Some(Value::Int(i)) => {
                    *int += i;
                    *n += 1;
                }
                Some(Value::Date(d)) => {
                    *int += *d as i64;
                    *n += 1;
                }
                Some(Value::Double(d)) => {
                    float.add(*d);
                    *n += 1;
                    *saw_float = true;
                }
                _ => {}
            },
            Acc::Min(cur) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Less))
                    {
                        *cur = Some(v.clone());
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(v) = v {
                    if !v.is_null()
                        && cur
                            .as_ref()
                            .is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Greater))
                    {
                        *cur = Some(v.clone());
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    sum.add(x);
                    *n += 1;
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::Sum { int, float, n, saw_float } => {
                if *n == 0 {
                    Value::Null
                } else if *saw_float {
                    let mut float = float.clone();
                    float.add(*int as f64);
                    Value::Double(float.value())
                } else {
                    Value::Int(*int)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Double(sum.value() / *n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::parser::parse;
    use crate::planner::plan_select;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use tango_algebra::{tup, Attr, Type};

    fn plan(db: &DbInner, sql: &str) -> Plan {
        let crate::ast::Stmt::Select(s) = parse(sql).unwrap() else { panic!("{sql}") };
        plan_select(&s, db).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    #[test]
    fn a_filtered_scan_reads_the_heap_in_place() {
        let db = Database::in_memory();
        let schema = Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpName", Type::Str),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]);
        db.create_table("POSITION", schema).unwrap();
        let rows = vec![tup![1, "Tom", 2, 20], tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10]];
        db.insert_rows("POSITION", rows.clone()).unwrap();
        let inner = db.inner.read();
        let heap = &inner.table("POSITION").unwrap().rows;

        let scan = plan(&inner, "SELECT * FROM POSITION");
        assert!(matches!(scan.op, PlanOp::Scan { .. }));
        let Rows::Borrowed(lent) = eval(&scan, &inner).unwrap() else { panic!("a scan copied") };
        assert_eq!(lent.as_ptr(), heap.as_ptr());

        let filter = plan(&inner, "SELECT * FROM POSITION WHERE T1 > 3");
        let Rows::Owned(kept) = eval(&filter, &inner).unwrap() else { panic!("nothing kept") };
        assert_eq!(kept, rows[1..]);
        assert_eq!(run(&filter, &inner).unwrap().into_tuples(), kept);
        assert_eq!(run(&scan, &inner).unwrap().into_tuples(), rows);
        assert_eq!(*heap, rows, "a statement must leave the heap as it was");
    }

    /// An index range scan walks its B-tree in key order, which must be
    /// the numeric order the unindexed scan compares in: a fractional
    /// bound against an INT index, and negative and integral values in a
    /// DOUBLE index.
    #[test]
    fn index_range_scans_order_ints_and_doubles_numerically() {
        let db = Database::in_memory();
        let schema = Schema::new(vec![Attr::new("K", Type::Int), Attr::new("D", Type::Double)]);
        db.create_table("R", schema).unwrap();
        let rows = [(1, 0.5), (2, -0.5), (3, 1.0), (4, 2.5)];
        db.insert_rows("R", rows.iter().map(|&(k, d)| tup![k, Value::Double(d)]).collect())
            .unwrap();
        let ks = |sql: &str| -> Vec<Value> {
            let inner = db.inner.read();
            let mut got: Vec<Value> = run(&plan(&inner, sql), &inner)
                .unwrap()
                .into_tuples()
                .into_iter()
                .map(|t| t[0].clone())
                .collect();
            got.sort();
            got
        };
        let cases = [("D < 0.7", vec![1, 2]), ("K < 2.5", vec![1, 2]), ("D >= 1", vec![3, 4])];
        let scanned: Vec<_> =
            cases.iter().map(|(pred, _)| ks(&format!("SELECT * FROM R WHERE {pred}"))).collect();
        db.create_index("IK", "R", "K").unwrap();
        db.create_index("ID", "R", "D").unwrap();
        for ((pred, want), scanned) in cases.iter().zip(scanned) {
            let sql = format!("SELECT * FROM R WHERE {pred}");
            let inner = db.inner.read();
            assert!(matches!(plan(&inner, &sql).op, PlanOp::IndexScan { .. }), "{sql}");
            drop(inner);
            let want: Vec<Value> = want.iter().map(|&k| Value::Int(k)).collect();
            assert_eq!(scanned, want, "unindexed {sql}");
            assert_eq!(ks(&sql), want, "indexed {sql}");
        }
    }

    /// One generated statement over `R(K, S, T1, T2)`, or over the
    /// self-join `R A, R B` on `K`, with the reference answer the test
    /// computes itself from the rows.
    struct Case {
        sql: String,
        want: Vec<Tuple>,
        /// With ORDER BY: each wanted row's sort key. Rows of equal key
        /// may come in any order.
        keys: Option<Vec<Value>>,
    }

    const COLS: [&str; 4] = ["K", "S", "T1", "T2"];
    const OPS: [&str; 5] = ["=", "<", "<=", ">", ">="];

    fn lit(col: usize, n: i64) -> Value {
        if col % 4 == 1 {
            Value::Str(["a", "b", "c", "d"][n as usize % 4].into())
        } else {
            Value::Int(n)
        }
    }

    fn holds(v: &Value, op: usize, l: &Value) -> bool {
        let o = v.total_cmp(l);
        !v.is_null()
            && match OPS[op] {
                "=" => o == Ordering::Equal,
                "<" => o == Ordering::Less,
                "<=" => o != Ordering::Greater,
                ">" => o == Ordering::Greater,
                _ => o != Ordering::Less,
            }
    }

    fn sort_on(rows: &mut [Tuple], col: usize, desc: bool) {
        rows.sort_by(|a, b| {
            let o = a[col].total_cmp(&b[col]);
            if desc {
                o.reverse()
            } else {
                o
            }
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn case(
        rows: &[Tuple],
        join: bool,
        qualify: bool,
        preds: &[(usize, usize, i64)],
        list_mode: usize,
        cols: &[usize],
        extra: usize,
        (order, by, desc): (usize, usize, bool),
    ) -> Case {
        let width = if join { 8 } else { 4 };
        let name = |c: usize| match (join, qualify) {
            (true, _) => format!("{}.{}", ["A", "B"][c / 4], COLS[c % 4]),
            (false, true) => format!("X.{}", COLS[c]),
            (false, false) => COLS[c].to_string(),
        };
        let mut input: Vec<Tuple> = if join {
            let rows = rows.to_vec();
            rows.iter()
                .flat_map(|a| {
                    rows.iter().filter(|b| !a[0].is_null() && a[0] == b[0]).map(|b| a.concat(b))
                })
                .collect()
        } else {
            rows.to_vec()
        };
        let preds: Vec<(usize, usize, Value)> =
            preds.iter().map(|&(c, op, n)| (c % width, op, lit(c % width, n))).collect();
        input.retain(|t| preds.iter().all(|(c, op, l)| holds(&t[*c], *op, l)));
        let mut conj: Vec<String> = preds
            .iter()
            .map(|(c, op, l)| match l {
                Value::Str(s) => format!("{} {} '{s}'", name(*c), OPS[*op]),
                _ => format!("{} {} {l}", name(*c), OPS[*op]),
            })
            .collect();
        if join {
            conj.insert(0, "A.K = B.K".into());
        }
        let from = match (join, qualify) {
            (true, _) => "R A, R B",
            (false, true) => "R X",
            (false, false) => "R",
        };
        let where_ =
            if conj.is_empty() { String::new() } else { format!(" WHERE {}", conj.join(" AND ")) };

        if extra == 2 {
            // GROUP BY one column, with COUNT(*) and MIN of another
            let (g, m) = (cols[0] % width, cols[cols.len() - 1] % width);
            let mut groups: Vec<(Value, i64, Value)> = Vec::new();
            for t in &input {
                let i = match groups.iter().position(|(k, ..)| *k == t[g]) {
                    Some(i) => i,
                    None => {
                        groups.push((t[g].clone(), 0, Value::Null));
                        groups.len() - 1
                    }
                };
                let (_, n, min) = &mut groups[i];
                *n += 1;
                if !t[m].is_null() && (min.is_null() || t[m].total_cmp(min) == Ordering::Less) {
                    *min = t[m].clone();
                }
            }
            let mut want: Vec<Tuple> =
                groups.into_iter().map(|(k, n, m)| Tuple::new(vec![k, Value::Int(n), m])).collect();
            let mut sql = format!(
                "SELECT {g} AS G, COUNT(*) AS N, MIN({m}) AS M FROM {from}{where_} GROUP BY {g}",
                g = name(g),
                m = name(m)
            );
            let mut keys = None;
            if order > 0 {
                sort_on(&mut want, 0, desc);
                sql += &format!(" ORDER BY G{}", if desc { " DESC" } else { "" });
                keys = Some(want.iter().map(|t| t[0].clone()).collect());
            }
            return Case { sql, want, keys };
        }

        let list: Vec<usize> = match list_mode {
            0 => (0..width).collect(),
            1 => {
                let mut l: Vec<usize> = (0..width).collect();
                l.swap(cols[0] % width, cols[cols.len() - 1] % width);
                l
            }
            _ => cols.iter().map(|c| c % width).collect(),
        };
        // the identity list in TANGO's own spelling: `X.K AS K, …`
        let alias = |i: usize| {
            if list_mode == 0 && !join {
                COLS[i].to_string()
            } else {
                format!("C{i}")
            }
        };
        let items: Vec<String> =
            list.iter().enumerate().map(|(i, &c)| format!("{} AS {}", name(c), alias(i))).collect();
        let distinct = extra == 1;
        let mut sql = format!(
            "SELECT {}{} FROM {from}{where_}",
            if distinct { "DISTINCT " } else { "" },
            items.join(", ")
        );
        let dir = if desc { " DESC" } else { "" };
        // ORDER BY an input column the list may hide — the sort then
        // slides below the projection — or by an output column
        let mut keys = None;
        if order == 2 && !distinct {
            let c = by % width;
            sort_on(&mut input, c, desc);
            sql += &format!(" ORDER BY {}{dir}", name(c));
            keys = Some(input.iter().map(|t| t[c].clone()).collect());
        }
        let mut want: Vec<Tuple> = input.iter().map(|t| t.project(&list)).collect();
        if distinct {
            let mut seen: Vec<Tuple> = Vec::new();
            want.retain(|t| {
                let fresh = !seen.contains(t);
                if fresh {
                    seen.push(t.clone());
                }
                fresh
            });
        }
        if order == 1 || (order == 2 && distinct) {
            let j = by % list.len();
            sort_on(&mut want, j, desc);
            sql += &format!(" ORDER BY {}{dir}", alias(j));
            keys = Some(want.iter().map(|t| t[j].clone()).collect());
        }
        Case { sql, want, keys }
    }

    fn canonical(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort_by(|a, b| {
            a.values()
                .iter()
                .zip(b.values())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

        /// Every answer — through lent scans, filters that copy their
        /// survivors, projections planned as renames, and every operator
        /// above them — equals a reference computed from the rows
        /// directly: as a list when ordered, as a multiset otherwise.
        #[test]
        fn generated_statements_match_a_reference(
            raw in prop::collection::vec((-1i64..4, 0usize..4, -1i64..8, -1i64..8), 0..20),
            (dups, index, join, qualify) in (0usize..6, 0usize..3, 0usize..4, 0usize..2),
            preds in prop::collection::vec((0usize..8, 0usize..5, 0i64..8), 0..3),
            (list_mode, cols) in (0usize..4, prop::collection::vec(0usize..8, 1..7)),
            (extra, order, by, desc) in (0usize..4, 0usize..3, 0usize..8, 0usize..2),
        ) {
            let int = |n: i64| if n < 0 { Value::Null } else { Value::Int(n) };
            let mut rows: Vec<Tuple> = raw
                .iter()
                .map(|&(k, s, t1, t2)| {
                    let s = if s == 3 { Value::Null } else { lit(1, s as i64) };
                    Tuple::new(vec![int(k), s, int(t1), int(t2)])
                })
                .collect();
            let n = dups.min(rows.len());
            rows.extend_from_within(..n);

            let db = Database::in_memory();
            let schema = Schema::new(COLS.iter().enumerate().map(|(i, c)| {
                Attr::new(*c, if i == 1 { Type::Str } else { Type::Int })
            }).collect());
            db.create_table("R", schema).unwrap();
            db.insert_rows("R", rows.clone()).unwrap();
            if index > 0 {
                db.create_index("IX", "R", ["K", "T1"][index - 1]).unwrap();
            }
            let c = case(&rows, join == 0, qualify == 1, &preds, list_mode, &cols, extra,
                (order, by, desc == 1));
            let inner = db.inner.read();
            let got = run(&plan(&inner, &c.sql), &inner)
                .unwrap_or_else(|e| panic!("{}: {e}", c.sql))
                .into_tuples();
            prop_assert_eq!(got.len(), c.want.len(), "{}", c.sql);
            // a list up to ties: each run of equal sort keys, as a multiset
            let keys = c.keys.unwrap_or_else(|| vec![Value::Null; got.len()]);
            let mut start = 0;
            for end in 1..=keys.len() {
                if end == keys.len() || keys[end] != keys[start] {
                    let (g, w) = (&got[start..end], &c.want[start..end]);
                    prop_assert_eq!(canonical(g.to_vec()), canonical(w.to_vec()), "{}", c.sql);
                    start = end;
                }
            }
            prop_assert_eq!(&inner.table("R").unwrap().rows, &rows, "{}", c.sql);
        }
    }
}
