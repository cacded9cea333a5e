//! Physical plans and the materializing executor.
//!
//! Deliberately a different execution style from the middleware: the
//! mini-DBMS evaluates operator-at-a-time with hash-based joins and
//! aggregation — the "conventional DBMS" the middleware treats as a very
//! capable file system. It materializes each operator's output; base
//! tables are read in place. The heap is typed columns
//! ([`crate::catalog::Table`]), and a base-table access stays columnar
//! until an operator needs rows:
//!
//! * a scan lends the heap's columns under the read lock `run`'s caller
//!   holds, with a selection vector of heap row ids (none: every row);
//!   an index range scan hands on the row ids it finds as that selection;
//! * a `Filter` over them narrows the selection with the batch kernels
//!   ([`Expr::eval_tri`]: column-vs-literal and column-vs-column
//!   comparisons, `AND` / `OR` / `NOT`, `IS NULL`), falling back to
//!   row-at-a-time `eval_bool` over just the predicate's columns where no
//!   kernel covers the predicate;
//! * a projection of plain columns, and a `Rename` (a projection that
//!   keeps every column in place, which `EXPLAIN` shows as `VIEW`), pick
//!   columns and copy nothing;
//! * the first row operator — a join, sort, aggregate, distinct, union or
//!   the final result — boxes only the selected rows, at only the columns
//!   that it or an operator above it reads; the others read NULL. A
//!   join of two wide tables under a narrow projection copies the few
//!   columns the statement uses.
//!
//! Joins, sorts and aggregation run row-at-a-time over boxed rows.

use crate::catalog::{box_rows, dictionary_view, DbInner};
use crate::error::{DbError, Result};
use std::collections::HashMap;
use std::sync::Arc;
use tango_algebra::value::Key;
use tango_algebra::{
    sort_tuples, AggFunc, Column, ExactSum, Expr, Relation, Schema, SortSpec, Tuple, Value,
    DEFAULT_BATCH_ROWS,
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
    let all = vec![true; plan.schema.len()];
    Ok(Relation::new(plan.schema.clone(), eval(plan, db, &all)?.into_owned(&all)))
}

/// One operator's output: heap columns lent for as long as the caller's
/// read lock lives, or rows an operator materialized.
enum Rows<'a> {
    /// Output column `i` is heap column `pick[i]`; the rows are `sel`,
    /// heap row ids in output order (every row in heap order when
    /// `None`).
    Lent {
        cols: &'a [Column],
        pick: Vec<usize>,
        sel: Option<Vec<u32>>,
        len: usize,
    },
    Owned(Vec<Tuple>),
}

impl Rows<'_> {
    /// The rows as tuples of their own: boxed at this point when they
    /// are still the heap's, and then only at the columns `need` marks;
    /// the others read NULL.
    fn into_owned(self, need: &[bool]) -> Vec<Tuple> {
        match self {
            Rows::Owned(rows) => rows,
            Rows::Lent { cols, pick, sel, len } => {
                let kept: Vec<Option<&Column>> =
                    pick.iter().zip(need).map(|(&c, &n)| n.then(|| &cols[c])).collect();
                box_rows(&kept, sel.as_deref(), len)
            }
        }
    }
}

/// `need` with the columns `e` reads marked too.
fn needing(need: &[bool], e: &Expr) -> Vec<bool> {
    let mut need = need.to_vec();
    mark_columns(e, &mut need);
    need
}

/// `need` split at a join's left width `lw`, with each side's key
/// columns marked.
fn split_need(need: &[bool], lw: usize, li: &[usize], ri: &[usize]) -> (Vec<bool>, Vec<bool>) {
    let (mut l, mut r) = (need[..lw].to_vec(), need[lw..].to_vec());
    li.iter().for_each(|&i| l[i] = true);
    ri.iter().for_each(|&i| r[i] = true);
    (l, r)
}

/// Mark the columns `e` reads (its bound column indices) in `used`.
fn mark_columns(e: &Expr, used: &mut [bool]) {
    e.visit(&mut |e| {
        if let Expr::Col { index: Some(i), .. } = e {
            used[*i] = true;
        }
    });
}

/// The heap rows among `sel` (every row of the `len` when `None`) that
/// `pred`, bound over `cols`, accepts, in order: decided by the batch
/// kernels where they cover the predicate, row by row otherwise, one
/// batch of rows at a time. Shared by a base-table `Filter` and by
/// DELETE / UPDATE.
pub(crate) fn select(
    pred: &Expr,
    cols: &[Column],
    sel: Option<Vec<u32>>,
    len: usize,
) -> Result<Vec<u32>> {
    let mut used = vec![false; cols.len()];
    mark_columns(pred, &mut used);
    let n = sel.as_ref().map_or(len, Vec::len);
    let mut kept = Vec::new();
    for from in (0..n).step_by(DEFAULT_BATCH_ROWS) {
        let m = DEFAULT_BATCH_ROWS.min(n - from);
        let at = |k: usize| sel.as_ref().map_or((from + k) as u32, |s| s[from + k]);
        // a selection gathers the predicate's columns first, so the
        // kernels read only the rows still in play
        let gathered: Vec<Column>;
        let (view, offset) = match &sel {
            None => (cols, from),
            Some(s) => {
                let rids = &s[from..from + m];
                gathered = cols
                    .iter()
                    .zip(&used)
                    .map(|(c, &u)| if u { c.gather(rids) } else { c.clone() })
                    .collect();
                (gathered.as_slice(), 0)
            }
        };
        if let Some(tri) = pred.eval_tri(view, offset, m) {
            kept.extend((0..m).filter(|&k| tri[k] == 1).map(at));
            continue;
        }
        for k in 0..m {
            let row = Tuple::new(
                view.iter()
                    .zip(&used)
                    .map(|(c, &u)| if u { c.value_at(offset + k) } else { Value::Null })
                    .collect(),
            );
            if pred.matches(&row)? {
                kept.push(at(k));
            }
        }
    }
    Ok(kept)
}

/// Evaluate `plan`. `need` marks the output columns some operator above
/// reads: a row operator boxes only the input columns that it or an
/// operator above it reads, so a wide heap is copied at the width the
/// statement uses. Every expression still reads all of its columns.
fn eval<'a>(plan: &Plan, db: &'a DbInner, need: &[bool]) -> Result<Rows<'a>> {
    match &plan.op {
        PlanOp::Scan { table } => {
            if let Some(v) = dictionary_view(table, db) {
                return Ok(Rows::Owned(v.into_tuples()));
            }
            let t = db.table(table)?;
            Ok(Rows::Lent {
                cols: &t.cols,
                pick: (0..t.cols.len()).collect(),
                sel: None,
                len: t.len,
            })
        }
        PlanOp::IndexScan { table, col, lo, hi } => {
            let t = db.table(table)?;
            let ix = db
                .index_on(table, col)
                .ok_or_else(|| DbError::Semantic(format!("no index on {table}.{col}")))?;
            use std::ops::Bound;
            let mut sel = Vec::new();
            // no comparison selects a NULL: not against a NULL bound, and
            // not a NULL key, which sorts first
            if ![lo, hi].into_iter().flatten().any(|(v, _)| v.is_null()) {
                let lo_b = match lo {
                    Some((v, true)) => Bound::Included(v.key()),
                    Some((v, false)) => Bound::Excluded(v.key()),
                    None => Bound::Excluded(Key::Null),
                };
                let hi_k = hi.as_ref().map(|(v, inclusive)| (v.key(), *inclusive));
                let below_hi = |k: &Key| hi_k.as_ref().is_none_or(|(h, i)| k < h || (*i && k == h));
                // bounds that cross select nothing (`range` over both would panic)
                let hits = ix.map.range((lo_b, Bound::Unbounded)).take_while(|(k, _)| below_hi(k));
                for (_, rids) in hits {
                    sel.extend(rids.iter().map(|&r| r as u32));
                }
            }
            let pick = (0..t.cols.len()).collect();
            Ok(Rows::Lent { cols: &t.cols, pick, sel: Some(sel), len: t.len })
        }
        PlanOp::Rename { input } => eval(input, db, need),
        PlanOp::Filter { pred, input } => {
            let bound = pred.bound(&input.schema)?;
            match eval(input, db, &needing(need, &bound))? {
                Rows::Lent { cols, pick, sel, len } => {
                    let view: Vec<Column> = pick.iter().map(|&c| cols[c].clone()).collect();
                    let sel = Some(select(&bound, &view, sel, len)?);
                    Ok(Rows::Lent { cols, pick, sel, len })
                }
                Rows::Owned(mut rows) => {
                    let mut keep = Vec::with_capacity(rows.len());
                    for t in &rows {
                        keep.push(bound.matches(t)?);
                    }
                    let mut keep = keep.into_iter();
                    rows.retain(|_| keep.next() == Some(true));
                    Ok(Rows::Owned(rows))
                }
            }
        }
        PlanOp::Project { items, input } => {
            let bound: Vec<Expr> = items
                .iter()
                .map(|(e, _)| e.bound(&input.schema))
                .collect::<tango_algebra::Result<_>>()?;
            let plain: Option<Vec<usize>> = bound
                .iter()
                .map(|e| match e {
                    Expr::Col { index: Some(i), .. } => Some(*i),
                    _ => None,
                })
                .collect();
            let mut used = vec![false; input.schema.len()];
            bound.iter().for_each(|e| mark_columns(e, &mut used));
            let input_rows = match (eval(input, db, &used)?, plain) {
                // plain columns over the heap pick columns, copying nothing
                (Rows::Lent { cols, pick, sel, len }, Some(plain)) => {
                    let pick = plain.iter().map(|&i| pick[i]).collect();
                    return Ok(Rows::Lent { cols, pick, sel, len });
                }
                (r, _) => r.into_owned(&used),
            };
            let mut rows = Vec::with_capacity(input_rows.len());
            for t in &input_rows {
                let mut vals = Vec::with_capacity(bound.len());
                for e in &bound {
                    vals.push(e.eval(t)?);
                }
                rows.push(Tuple::new(vals));
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::Sort { keys, input } => {
            let mut in_need = need.to_vec();
            let cols: Vec<String> = keys.keys().iter().map(|k| k.col.clone()).collect();
            resolve_keys(&cols, &input.schema)?.into_iter().for_each(|i| in_need[i] = true);
            let mut rows = eval(input, db, &in_need)?.into_owned(&in_need);
            sort_tuples(&mut rows, keys, &input.schema);
            Ok(Rows::Owned(rows))
        }
        PlanOp::HashJoin { lkeys, rkeys, left, right } => {
            let li = resolve_keys(lkeys, &left.schema)?;
            let ri = resolve_keys(rkeys, &right.schema)?;
            let (ln, rn) = split_need(need, left.schema.len(), &li, &ri);
            let l = eval(left, db, &ln)?.into_owned(&ln);
            let r = eval(right, db, &rn)?.into_owned(&rn);
            // build on the right input
            let mut table: HashMap<Vec<Key>, Vec<&Tuple>> = HashMap::new();
            for t in &r {
                if ri.iter().any(|&i| t[i].is_null()) {
                    continue; // NULL keys never join
                }
                table.entry(ri.iter().map(|&i| t[i].key()).collect()).or_default().push(t);
            }
            let mut rows = Vec::new();
            for lt in &l {
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
            let li = resolve_keys(lkeys, &left.schema)?;
            let ri = resolve_keys(rkeys, &right.schema)?;
            let (ln, rn) = split_need(need, left.schema.len(), &li, &ri);
            let mut lt = eval(left, db, &ln)?.into_owned(&ln);
            let mut rt = eval(right, db, &rn)?.into_owned(&rn);
            sort_tuples(&mut lt, &SortSpec::by(lkeys.iter().map(String::as_str)), &left.schema);
            sort_tuples(&mut rt, &SortSpec::by(rkeys.iter().map(String::as_str)), &right.schema);
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
            let bound = match pred {
                Some(p) => Some(p.bound(&plan.schema)?),
                None => None,
            };
            let all = bound.as_ref().map_or_else(|| need.to_vec(), |p| needing(need, p));
            let (ln, rn) = split_need(&all, left.schema.len(), &[], &[]);
            let l = eval(left, db, &ln)?.into_owned(&ln);
            let r = eval(right, db, &rn)?.into_owned(&rn);
            let mut rows = Vec::new();
            for lt in &l {
                for rt in &r {
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
            let ki = left.schema.index_of(lkey)?;
            let (ln, rn) = split_need(need, left.schema.len(), &[ki], &[]);
            let l = eval(left, db, &ln)?.into_owned(&ln);
            let t = db.table(table)?;
            let ix = db
                .index_on(table, col)
                .ok_or_else(|| DbError::Semantic(format!("no index on {table}.{col}")))?;
            let mut rows = Vec::new();
            for lt in &l {
                if lt[ki].is_null() {
                    continue;
                }
                for &rid in ix.map.get(&lt[ki].key()).into_iter().flatten() {
                    let mut out = Vec::with_capacity(lt.len() + t.cols.len());
                    out.extend_from_slice(lt.values());
                    out.extend(t.cols.iter().zip(&rn).map(|(c, &n)| match n {
                        true => c.value_at(rid),
                        false => Value::Null,
                    }));
                    rows.push(Tuple::new(out));
                }
            }
            Ok(Rows::Owned(rows))
        }
        PlanOp::HashAgg { group_by, aggs, input } => {
            let gi = resolve_keys(group_by, &input.schema)?;
            let bound_args: Vec<Option<Expr>> = aggs
                .iter()
                .map(|a| a.arg.as_ref().map(|e| e.bound(&input.schema)).transpose())
                .collect::<tango_algebra::Result<_>>()?;
            let mut used = vec![false; input.schema.len()];
            gi.iter().for_each(|&i| used[i] = true);
            bound_args.iter().flatten().for_each(|e| mark_columns(e, &mut used));
            let r = eval(input, db, &used)?.into_owned(&used);
            struct Group {
                reprs: Vec<Value>,
                accs: Vec<Acc>,
            }
            let mut order: Vec<Vec<Key>> = Vec::new();
            let mut groups: HashMap<Vec<Key>, Group> = HashMap::new();
            for t in &r {
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
            let all = vec![true; input.schema.len()];
            let mut rows = eval(input, db, &all)?.into_owned(&all);
            rows.retain(|t| seen.insert(t.values().iter().map(Value::key).collect::<Vec<Key>>()));
            Ok(Rows::Owned(rows))
        }
        PlanOp::UnionAll { inputs } => {
            let mut rows = Vec::new();
            for p in inputs {
                if p.schema.len() != plan.schema.len() {
                    return Err(DbError::Semantic("UNION arity mismatch".into()));
                }
                rows.extend(eval(p, db, need)?.into_owned(need));
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
        let table = inner.table("POSITION").unwrap();
        let lent = |sql: &str| {
            let p = plan(&inner, sql);
            match eval(&p, &inner, &vec![true; p.schema.len()]).unwrap() {
                Rows::Lent { cols, pick, sel, .. } => {
                    assert!(std::ptr::eq(cols, table.cols.as_slice()), "{sql}: a copied heap");
                    (pick, sel)
                }
                Rows::Owned(_) => panic!("{sql}: boxed below the final result"),
            }
        };

        assert_eq!(lent("SELECT * FROM POSITION"), (vec![0, 1, 2, 3], None));
        let filter = "SELECT * FROM POSITION WHERE T1 > 3";
        assert_eq!(lent(filter), (vec![0, 1, 2, 3], Some(vec![1, 2])));
        // plain columns pick heap columns; a filter over them narrows the rows
        let picked = "SELECT X.T2 AS A, X.PosID AS B FROM POSITION X WHERE X.T1 < X.T2";
        assert_eq!(lent(picked), (vec![3, 0], Some(vec![0, 1, 2])));
        assert_eq!(run(&plan(&inner, filter), &inner).unwrap().into_tuples(), rows[1..]);
        assert_eq!(
            run(&plan(&inner, picked), &inner).unwrap().into_tuples(),
            vec![tup![20, 1], tup![25, 1], tup![10, 2]]
        );
        assert_eq!(table.boxed_rows(None), rows, "a statement must leave the heap");
    }

    /// An unsorted full scan returns the heap in insertion order, and a
    /// DELETE keeps the order of the rows it leaves.
    #[test]
    fn a_full_scan_keeps_insertion_order_across_deletes() {
        let db = Database::in_memory();
        db.create_table("R", Schema::new(vec![Attr::new("K", Type::Int)])).unwrap();
        let scan = || {
            let inner = db.inner.read();
            let got = run(&plan(&inner, "SELECT * FROM R"), &inner).unwrap().into_tuples();
            got.iter().map(|t| t[0].clone()).collect::<Vec<_>>()
        };
        let ints = |ks: &[i64]| ks.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        db.insert_rows("R", [5, 3, 9, 1, 7].map(|k| tup![k]).to_vec()).unwrap();
        db.delete_rows("R", Some(&Expr::eq(Expr::col("K"), Expr::lit(9)))).unwrap();
        assert_eq!(scan(), ints(&[5, 3, 1, 7]));
        db.insert_rows("R", vec![tup![0], tup![9]]).unwrap();
        let odd = Expr::cmp(tango_algebra::CmpOp::Lt, Expr::col("K"), Expr::lit(4));
        db.delete_rows("R", Some(&odd)).unwrap();
        assert_eq!(scan(), ints(&[5, 7, 9]));
    }

    /// Predicates are decided a batch of rows at a time: over the whole
    /// heap, over an index scan's selection, by kernel or row by row,
    /// the rows kept are those of a reference, in order, across batch
    /// boundaries.
    #[test]
    fn filters_decide_across_batch_boundaries() {
        let db = Database::in_memory();
        let schema = Schema::new(vec![Attr::new("K", Type::Int), Attr::new("D", Type::Double)]);
        db.create_table("R", schema).unwrap();
        let n = 3 * DEFAULT_BATCH_ROWS as i64 + 17;
        fn d(k: i64) -> f64 {
            (k * 7919 % 13) as f64 / 2.0
        }
        db.insert_rows("R", (0..n).map(|k| tup![k, Value::Double(d(k))]).collect()).unwrap();
        db.create_index("IK", "R", "K").unwrap();
        type Keeps = fn(i64) -> bool;
        let cases: [(&str, Keeps); 3] = [
            ("D < 3", |k| d(k) < 3.0),
            ("K >= 1000 AND D < 3", |k| k >= 1000 && d(k) < 3.0),
            ("K >= 1000 AND D + 1 < 4", |k| k >= 1000 && d(k) + 1.0 < 4.0),
        ];
        for (pred, want) in cases {
            let inner = db.inner.read();
            let got = run(&plan(&inner, &format!("SELECT K FROM R WHERE {pred}")), &inner).unwrap();
            let want: Vec<Tuple> = (0..n).filter(|&k| want(k)).map(|k| tup![k]).collect();
            assert_eq!(got.into_tuples(), want, "{pred}");
        }
        let low = Expr::cmp(tango_algebra::CmpOp::Lt, Expr::col("D"), Expr::lit(3));
        let gone = db.delete_rows("R", Some(&low)).unwrap();
        let inner = db.inner.read();
        let left: Vec<Tuple> = (0..n).filter(|&k| d(k) >= 3.0).map(|k| tup![k]).collect();
        assert_eq!(gone as usize + left.len(), n as usize);
        assert_eq!(run(&plan(&inner, "SELECT K FROM R"), &inner).unwrap().into_tuples(), left);
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

    const STRS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

    fn lit(col: usize, n: i64) -> Value {
        if col % 4 == 1 {
            Value::Str(STRS[n as usize % 6].into())
        } else {
            Value::Int(n)
        }
    }

    /// A row of `R`: a negative number is NULL, as is string 3; `T2` is
    /// a DOUBLE, with negative, fractional and integral values.
    fn r_row(k: i64, s: usize, t1: i64, t2: i64) -> Tuple {
        let int = |n: i64| if n < 0 { Value::Null } else { Value::Int(n) };
        let s = if s == 3 { Value::Null } else { Value::Str(STRS[s % 6].into()) };
        let t2 = if t2 < 0 { Value::Null } else { Value::Double(t2 as f64 / 2.0 - 1.0) };
        Tuple::new(vec![int(k), s, int(t1), t2])
    }

    /// One generated write: its kind, a row, and a predicate or a target.
    type Write = (usize, (i64, usize, i64, i64), (usize, usize, i64));

    /// Apply `writes` to the table `R` and to `rows`, its row-vector
    /// reference: INSERTs of new strings, of NULLs and of values that
    /// demote an INT column to mixed variants, DELETEs and UPDATEs.
    fn apply_writes(db: &Database, rows: &mut Vec<Tuple>, writes: &[Write]) {
        use tango_algebra::CmpOp;
        for &(kind, (k, s, t1, t2), (c, op, n)) in writes {
            let pred = Expr::cmp(
                [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op],
                Expr::col(COLS[c]),
                Expr::Lit(lit(c, n)),
            );
            let l = lit(c, n);
            match kind {
                0 | 1 => {
                    let mut row = r_row(k, s, t1, t2);
                    if kind == 1 {
                        // a DATE among INTs, or a fraction among them
                        match n % 2 {
                            0 => row.set(0, Value::Date(k.max(0) as i32)),
                            _ => row.set(2, Value::Double(t1 as f64 + 0.5)),
                        }
                    }
                    db.insert_rows("R", vec![row.clone()]).unwrap();
                    rows.push(row);
                }
                2 => {
                    let gone = db.delete_rows("R", Some(&pred)).unwrap();
                    let before = rows.len();
                    rows.retain(|t| !holds(&t[c], op, &l));
                    assert_eq!(gone as usize, before - rows.len(), "DELETE WHERE {pred}");
                }
                3 => {
                    let target = (k.unsigned_abs() % 4) as usize;
                    let v = r_row(t1, s, t1, t2)[target].clone();
                    let set = [(COLS[target].to_string(), Expr::Lit(v.clone()))];
                    let hit = db.update_rows("R", &set, Some(&pred)).unwrap();
                    let mut want = 0;
                    for t in rows.iter_mut().filter(|t| holds(&t[c], op, &l)) {
                        t.set(target, v.clone());
                        want += 1;
                    }
                    assert_eq!(hit, want, "UPDATE WHERE {pred}");
                }
                _ => {
                    let row = Tuple::new(vec![Value::Null; 4]);
                    db.insert_rows("R", vec![row.clone()]).unwrap();
                    rows.push(row);
                }
            }
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

        /// Every answer — through lent scans, kernel filters, projections
        /// that pick columns, and every operator above them — equals a
        /// reference computed from the rows directly: as a list when
        /// ordered, as a multiset otherwise. The statement runs after a
        /// generated write sequence, with or without an index on an INT or
        /// a DOUBLE column, and the heap must equal the written row vector.
        #[test]
        fn generated_statements_match_a_reference(
            raw in prop::collection::vec((-1i64..4, 0usize..4, -1i64..8, -1i64..8), 0..20),
            (dups, index, join, qualify) in (0usize..6, 0usize..3, 0usize..4, 0usize..2),
            writes in prop::collection::vec(
                (0usize..5, (-1i64..5, 0usize..6, -1i64..8, -1i64..8), (0usize..4, 0usize..5, 0i64..8)),
                0..6,
            ),
            preds in prop::collection::vec((0usize..8, 0usize..5, 0i64..8), 0..3),
            (list_mode, cols) in (0usize..4, prop::collection::vec(0usize..8, 1..7)),
            (extra, order, by, desc) in (0usize..4, 0usize..3, 0usize..8, 0usize..2),
        ) {
            let mut rows: Vec<Tuple> =
                raw.iter().map(|&(k, s, t1, t2)| r_row(k, s, t1, t2)).collect();
            let n = dups.min(rows.len());
            rows.extend_from_within(..n);

            let db = Database::in_memory();
            let types = [Type::Int, Type::Str, Type::Int, Type::Double];
            let schema = Schema::new(COLS.iter().zip(types).map(|(c, t)| Attr::new(*c, t)).collect());
            db.create_table("R", schema).unwrap();
            db.insert_rows("R", rows.clone()).unwrap();
            if index > 0 {
                db.create_index("IX", "R", ["K", "T2"][index - 1]).unwrap();
            }
            apply_writes(&db, &mut rows, &writes);
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
            let table = inner.table("R").unwrap();
            let heap = format!("{:?}", table.boxed_rows(None));
            prop_assert_eq!(heap, format!("{rows:?}"), "{}", c.sql);
        }
    }
}
