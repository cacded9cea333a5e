//! Physical plans and the materializing executor.
//!
//! Deliberately a different execution style from the middleware: the
//! mini-DBMS evaluates operator-at-a-time with hash-based joins and
//! aggregation — the "conventional DBMS" the middleware treats as a very
//! capable file system. It materializes each operator's output, in one
//! columnar form from the scans to the statement's root: typed columns
//! ([`Column`]) and a selection of row ids into them. `run` hands the
//! cursor the root's rows as dense columns of its own — a typed copy of
//! the selection, taken under the read lock, that shares no buffer with
//! the heap — and boxes none. Per operator:
//!
//! * a scan shares the heap's columns ([`crate::catalog::Table`]) under
//!   the read lock `run`'s caller holds, with no selection (every row);
//!   an index range scan hands on the row ids it finds as the selection;
//! * a `Filter` narrows the selection with the batch kernels
//!   ([`Expr::eval_tri`]: column-vs-literal and column-vs-column
//!   comparisons, `AND` / `OR` / `NOT`, `IS NULL`), falling back to
//!   row-at-a-time `eval_bool` over just the predicate's columns where no
//!   kernel covers the predicate — over a base table or a join alike;
//! * a projection of plain columns, and a `Rename` (a projection that
//!   keeps every column in place, which `EXPLAIN` shows as `VIEW`), pick
//!   columns and copy nothing; a computed item is a column: `GREATEST` /
//!   `LEAST` over `Int` or `Date` columns by a kernel, anything else row
//!   by row over only the columns it reads;
//! * a join finds (left id, right id) pairs — a hash join on `i64`s for
//!   `Int` / `Date` keys, on [`Value::key`]s otherwise; merge, nested
//!   loops and index nested loops alike — and gathers each column some
//!   operator above reads at them, left order first, then build order
//!   within a key;
//! * a sort is a stable argsort of its key columns, a new selection;
//! * `HASH GROUP BY`, `HASH UNIQUE` and `UNION ALL` read their key and
//!   argument columns and emit columns; `Int` / `Date` keys hash as
//!   `i64`s there too.
//!
//! `need` marks the columns an operator above reads; the others are
//! neither gathered nor kept, and box as NULL.

use crate::catalog::{dictionary_view, DbInner};
use crate::error::{DbError, Result};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use tango_algebra::batch::FxHasher;
use tango_algebra::value::Key;
use tango_algebra::{
    AggFunc, Batch, BatchKeys, Bitmap, Column, ColumnBuilder, ExactSum, Expr, Schema, SortSpec,
    Tuple, Value, DEFAULT_BATCH_ROWS,
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
/// The statement's rows come back as dense columns the result owns
/// ([`Column::copied`]): a cursor over them pins no heap buffer, so a
/// later write never copies a heap column to get its own.
pub fn run(plan: &Plan, db: &DbInner) -> Result<Batch> {
    let all = vec![true; plan.schema.len()];
    let out = eval(plan, db, &all)?;
    let sel = out.sel.as_deref();
    let n = out.rows();
    let cols = out
        .cols
        .iter()
        .map(|c| match c {
            Some(c) => c.copied(sel),
            None => Column::Mixed { vals: Arc::new(vec![Value::Null; n]) },
        })
        .collect();
    Ok(Batch::from_columns(plan.schema.clone(), cols))
}

/// One operator's output: columns, and the rows of them it holds.
struct Rows {
    /// One per output column: a heap column, shared under the read lock
    /// `run`'s caller holds, or one an operator built. `None` where no
    /// operator above reads the column; boxed, it reads NULL.
    cols: Vec<Option<Column>>,
    /// The rows, as indices into the columns, in output order; every row
    /// of the `len` in order when `None`.
    sel: Option<Vec<u32>>,
    /// The columns' length.
    len: usize,
}

impl Rows {
    /// Whole columns `len` rows long, each kept where `need` marks it.
    fn whole(cols: impl IntoIterator<Item = Column>, need: &[bool], len: usize) -> Rows {
        let cols = cols.into_iter().zip(need).map(|(c, &n)| n.then_some(c)).collect();
        Rows { cols, sel: None, len }
    }

    /// The number of rows.
    fn rows(&self) -> usize {
        self.sel.as_ref().map_or(self.len, Vec::len)
    }

    /// The column index of row `k`.
    fn id(&self, k: usize) -> usize {
        self.sel.as_ref().map_or(k, |s| s[k] as usize)
    }

    /// Column `i`, which an operator reads.
    fn col(&self, i: usize) -> Result<&Column> {
        self.cols[i]
            .as_ref()
            .ok_or_else(|| DbError::Semantic(format!("column {i} was not kept for its reader")))
    }

    /// Column `i` at the rows, in order.
    fn dense(&self, i: usize) -> Result<Column> {
        let c = self.col(i)?;
        Ok(self.sel.as_ref().map_or_else(|| c.clone(), |s| c.gather(s)))
    }

    /// Every column, one not kept as an empty stand-in: the form the
    /// kernels bind against. No kernel reads a stand-in, as `need` keeps
    /// what a predicate reads.
    fn view(&self) -> Vec<Column> {
        let absent = ColumnBuilder::default().finish();
        self.cols.iter().map(|c| c.clone().unwrap_or_else(|| absent.clone())).collect()
    }

    /// The columns `need` marks, at column indices `ids`.
    fn gather(&self, ids: &[u32], need: &[bool]) -> Vec<Option<Column>> {
        self.cols
            .iter()
            .zip(need)
            .map(|(c, &n)| c.as_ref().filter(|_| n).map(|c| c.gather(ids)))
            .collect()
    }
}

/// A join's output: the left columns `need` marks at `lids`, then the
/// right ones at `rids`, pair by pair.
fn joined(l: &Rows, lids: &[u32], r: &Rows, rids: &[u32], need: &[bool]) -> Rows {
    let (ln, rn) = need.split_at(l.cols.len());
    let mut cols = l.gather(lids, ln);
    cols.extend(r.gather(rids, rn));
    Rows { cols, sel: None, len: lids.len() }
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

/// Count `n` rows boxed (tests read the count).
pub(crate) fn count_boxed(_n: usize) {
    #[cfg(test)]
    tests::BOXED.with(|b| b.set(b.get() + _n));
}

/// The heap rows among `sel` (every row of the `len` when `None`) that
/// `pred`, bound over `cols`, accepts, in order: decided by the batch
/// kernels where they cover the predicate, row by row otherwise, one
/// batch of rows at a time. Shared by every `Filter`, a nested-loop
/// join's predicate, and DELETE / UPDATE.
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
    let mut row = Tuple::new(vec![Value::Null; cols.len()]);
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
        count_boxed(m);
        for k in 0..m {
            for (i, c) in view.iter().enumerate().filter(|(i, _)| used[*i]) {
                row.set(i, c.value_at(offset + k));
            }
            if pred.matches(&row)? {
                kept.push(at(k));
            }
        }
    }
    Ok(kept)
}

/// `e`, bound over `rows`, at every row in order, as a column: a plain
/// column gathered, `GREATEST` / `LEAST` over int-like columns by its
/// kernel, anything else row by row over only the columns `e` reads.
fn computed(e: &Expr, rows: &Rows) -> Result<Column> {
    match e {
        Expr::Col { index: Some(i), .. } => rows.dense(*i),
        Expr::Greatest(es) => {
            extreme(es, rows, Ordering::Greater).map_or_else(|| row_by_row(e, rows), Ok)
        }
        Expr::Least(es) => {
            extreme(es, rows, Ordering::Less).map_or_else(|| row_by_row(e, rows), Ok)
        }
        _ => row_by_row(e, rows),
    }
}

/// `e` evaluated row by row into a column, through one scratch row that
/// holds only the columns `e` reads.
fn row_by_row(e: &Expr, rows: &Rows) -> Result<Column> {
    let mut used = vec![false; rows.cols.len()];
    mark_columns(e, &mut used);
    let read: Vec<(usize, &Column)> = (0..used.len())
        .filter(|&i| used[i])
        .map(|i| Ok((i, rows.col(i)?)))
        .collect::<Result<_>>()?;
    let mut row = Tuple::new(vec![Value::Null; rows.cols.len()]);
    let mut out = ColumnBuilder::default();
    count_boxed(rows.rows());
    for k in 0..rows.rows() {
        let id = rows.id(k);
        for &(i, c) in &read {
            row.set(i, c.value_at(id));
        }
        out.push(e.eval(&row)?);
    }
    Ok(out.finish())
}

/// `GREATEST` (`want` = `Greater`) or `LEAST` of plain columns that are
/// all `Int` or all `Date`, at every row of `rows`: what `Expr::eval`
/// gives row by row — NULL where any operand is NULL, and the operands'
/// variant kept. `None` for any other operand list.
fn extreme(es: &[Expr], rows: &Rows, want: Ordering) -> Option<Column> {
    let mut date = None;
    let mut ops = Vec::with_capacity(es.len());
    for e in es {
        let Expr::Col { index: Some(i), .. } = e else { return None };
        let (vals, valid, is_date) = match rows.cols[*i].as_ref()? {
            Column::Int { vals, valid } => (vals, valid, false),
            Column::Date { vals, valid } => (vals, valid, true),
            _ => return None,
        };
        if *date.get_or_insert(is_date) != is_date {
            return None; // `Int` against `Date`: the winner's variant, row by row
        }
        ops.push((vals.as_slice(), valid.as_deref()));
    }
    let ((first, first_valid), rest) = ops.split_first()?;
    let n = rows.rows();
    let mut vals: Vec<i64> = (0..n).map(|k| first[rows.id(k)]).collect();
    for (xs, _) in rest {
        let pick = |v: &mut i64, x: i64| {
            *v = if want == Ordering::Greater { x.max(*v) } else { x.min(*v) }
        };
        vals.iter_mut().enumerate().for_each(|(k, v)| pick(v, xs[rows.id(k)]));
    }
    let mut valid = None;
    for bm in std::iter::once(first_valid).chain(rest.iter().map(|(_, v)| v)).flatten() {
        for k in (0..n).filter(|&k| !bm.get(rows.id(k))) {
            valid.get_or_insert_with(|| vec![true; n])[k] = false;
            vals[k] = 0;
        }
    }
    let valid = valid.map(|v: Vec<bool>| {
        let mut bm = Bitmap::default();
        v.into_iter().for_each(|b| bm.push(b));
        Arc::new(bm)
    });
    let vals = Arc::new(vals);
    Some(match date {
        Some(true) => Column::Date { vals, valid },
        _ => Column::Int { vals, valid },
    })
}

/// The stable order of `rows` by key columns `keys` (index, descending),
/// as positions among the rows.
fn argsort(rows: &Rows, keys: &[(usize, bool)]) -> Result<Vec<u32>> {
    let cols: Vec<(Column, bool)> =
        keys.iter().map(|&(i, desc)| Ok((rows.dense(i)?, desc))).collect::<Result<_>>()?;
    Ok(BatchKeys::from_columns(cols).sort_range(0, rows.rows()))
}

/// The most key columns read as `i64`s in place.
const INT_KEYS: usize = 4;

/// A row's key: up to [`INT_KEYS`] int-like columns' `i64`s with a bit
/// per NULL column, or the [`Value::key`] of each key column.
#[derive(PartialEq, Eq, Hash)]
enum RowKey {
    Ints([i64; INT_KEYS], u8),
    Keys(Vec<Key>),
}

/// Hashed with [`FxHasher`]: keys are data values, not adversarial
/// input, as for [`tango_algebra::StrCodes`].
type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// How an operator reads its key columns.
enum KeyCols<'a> {
    /// Up to [`INT_KEYS`] `Int` or `Date` columns, read as `i64`s.
    Ints(Vec<(&'a [i64], Option<&'a Bitmap>)>),
    /// Anything else, read as [`Value::key`]s.
    Any(Vec<&'a Column>),
}

impl<'a> KeyCols<'a> {
    /// Key columns `cols`: int-like ones are read as `i64`s where `ints`
    /// allows it — a join's two sides must agree.
    fn new(cols: Vec<&'a Column>, ints: bool) -> KeyCols<'a> {
        if !(ints && Self::int_like(&cols)) {
            return KeyCols::Any(cols);
        }
        let ints = cols.into_iter().filter_map(|c| match c {
            Column::Int { vals, valid } | Column::Date { vals, valid } => {
                Some((vals.as_slice(), valid.as_deref()))
            }
            _ => None,
        });
        KeyCols::Ints(ints.collect())
    }

    /// Whether `cols` are at most [`INT_KEYS`] int-like columns.
    fn int_like(cols: &[&Column]) -> bool {
        cols.len() <= INT_KEYS
            && cols.iter().all(|c| matches!(c, Column::Int { .. } | Column::Date { .. }))
    }

    /// The key of column index `id`, NULLs and all: `GROUP BY` and
    /// `DISTINCT` put NULLs together.
    fn at(&self, id: usize) -> RowKey {
        match self {
            KeyCols::Ints(cols) => {
                let (mut key, mut nulls) = ([0; INT_KEYS], 0u8);
                for (j, (vals, valid)) in cols.iter().enumerate() {
                    match valid.is_some_and(|b| !b.get(id)) {
                        true => nulls |= 1 << j,
                        false => key[j] = vals[id],
                    }
                }
                RowKey::Ints(key, nulls)
            }
            KeyCols::Any(cols) => RowKey::Keys(cols.iter().map(|c| c.value_at(id).key()).collect()),
        }
    }

    /// The key of column index `id`, `None` where a key column is NULL:
    /// `=` holds for no such row.
    fn joinable(&self, id: usize) -> Option<RowKey> {
        match self {
            KeyCols::Ints(_) => Some(self.at(id)).filter(|k| matches!(k, RowKey::Ints(_, 0))),
            KeyCols::Any(cols) => cols.iter().all(|c| c.is_valid(id)).then(|| self.at(id)),
        }
    }
}

/// Each side's key columns, read alike.
fn join_keys<'a>(
    (l, li): (&'a Rows, &[usize]),
    (r, ri): (&'a Rows, &[usize]),
) -> Result<(KeyCols<'a>, KeyCols<'a>)> {
    let lc: Vec<&Column> = li.iter().map(|&i| l.col(i)).collect::<Result<_>>()?;
    let rc: Vec<&Column> = ri.iter().map(|&i| r.col(i)).collect::<Result<_>>()?;
    let ints = KeyCols::int_like(&lc) && KeyCols::int_like(&rc);
    Ok((KeyCols::new(lc, ints), KeyCols::new(rc, ints)))
}

/// Evaluate `plan`. `need` marks the output columns some operator above
/// reads: an operator gathers and keeps only those and the ones it
/// reads itself, so a wide heap is copied at the width the statement
/// uses. Every expression still reads all of its columns.
fn eval(plan: &Plan, db: &DbInner, need: &[bool]) -> Result<Rows> {
    match &plan.op {
        PlanOp::Scan { table } => {
            if let Some(v) = dictionary_view(table, db) {
                let cols = (0..v.schema().len()).map(|i| {
                    Column::from_values(v.tuples().iter().map(|t| t[i].clone()).collect())
                });
                return Ok(Rows::whole(cols, need, v.len()));
            }
            let t = db.table(table)?;
            Ok(Rows::whole(t.cols.iter().cloned(), need, t.len))
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
            Ok(Rows { sel: Some(sel), ..Rows::whole(t.cols.iter().cloned(), need, t.len) })
        }
        PlanOp::Rename { input } => eval(input, db, need),
        PlanOp::Filter { pred, input } => {
            let bound = pred.bound(&input.schema)?;
            let mut rows = eval(input, db, &needing(need, &bound))?;
            let sel = select(&bound, &rows.view(), rows.sel.take(), rows.len)?;
            Ok(Rows { sel: Some(sel), ..rows })
        }
        PlanOp::Project { items, input } => {
            let bound: Vec<Expr> = items
                .iter()
                .map(|(e, _)| e.bound(&input.schema))
                .collect::<tango_algebra::Result<_>>()?;
            let mut used = vec![false; input.schema.len()];
            bound.iter().for_each(|e| mark_columns(e, &mut used));
            let rows = eval(input, db, &used)?;
            let plain: Option<Vec<usize>> = bound
                .iter()
                .map(|e| match e {
                    Expr::Col { index: Some(i), .. } => Some(*i),
                    _ => None,
                })
                .collect();
            // plain columns pick columns, copying nothing
            if let Some(plain) = plain {
                let cols = plain.iter().map(|&i| rows.cols[i].clone()).collect();
                return Ok(Rows { cols, ..rows });
            }
            let cols = bound.iter().map(|e| computed(e, &rows).map(Some)).collect::<Result<_>>()?;
            Ok(Rows { cols, sel: None, len: rows.rows() })
        }
        PlanOp::Sort { keys, input } => {
            let names: Vec<String> = keys.keys().iter().map(|k| k.col.clone()).collect();
            let ki = resolve_keys(&names, &input.schema)?;
            let mut in_need = need.to_vec();
            ki.iter().for_each(|&i| in_need[i] = true);
            let mut rows = eval(input, db, &in_need)?;
            let keys: Vec<(usize, bool)> =
                ki.into_iter().zip(keys.keys()).map(|(i, k)| (i, k.desc)).collect();
            let sel =
                argsort(&rows, &keys)?.into_iter().map(|k| rows.id(k as usize) as u32).collect();
            rows.sel = Some(sel);
            Ok(rows)
        }
        PlanOp::HashJoin { lkeys, rkeys, left, right } => {
            let li = resolve_keys(lkeys, &left.schema)?;
            let ri = resolve_keys(rkeys, &right.schema)?;
            let (ln, rn) = split_need(need, left.schema.len(), &li, &ri);
            let (l, r) = (eval(left, db, &ln)?, eval(right, db, &rn)?);
            let (lk, rk) = join_keys((&l, &li), (&r, &ri))?;
            // build on the right input: number each key, then lay each
            // key's rows out contiguously, in build order
            let mut keys: FxMap<RowKey, u32> = FxMap::default();
            let mut built: Vec<(u32, u32)> = Vec::with_capacity(r.rows());
            for k in 0..r.rows() {
                let id = r.id(k);
                if let Some(key) = rk.joinable(id) {
                    let next = keys.len() as u32;
                    built.push((*keys.entry(key).or_insert(next), id as u32));
                }
            }
            let mut start = vec![0u32; keys.len() + 1];
            built.iter().for_each(|&(g, _)| start[g as usize + 1] += 1);
            (1..start.len()).for_each(|g| start[g] += start[g - 1]);
            let mut members = vec![0u32; built.len()];
            let mut next = start.clone();
            for (g, id) in built {
                members[next[g as usize] as usize] = id;
                next[g as usize] += 1;
            }
            // probe in left order
            let (mut lids, mut rids) = (Vec::new(), Vec::new());
            for k in 0..l.rows() {
                let id = l.id(k);
                if let Some(&g) = lk.joinable(id).as_ref().and_then(|key| keys.get(key)) {
                    let hits = &members[start[g as usize] as usize..start[g as usize + 1] as usize];
                    lids.extend(std::iter::repeat_n(id as u32, hits.len()));
                    rids.extend_from_slice(hits);
                }
            }
            Ok(joined(&l, &lids, &r, &rids, need))
        }
        PlanOp::MergeJoin { lkeys, rkeys, left, right } => {
            let li = resolve_keys(lkeys, &left.schema)?;
            let ri = resolve_keys(rkeys, &right.schema)?;
            let (ln, rn) = split_need(need, left.schema.len(), &li, &ri);
            let (l, r) = (eval(left, db, &ln)?, eval(right, db, &rn)?);
            // each side's column indices in key order, and its keys in
            // that order
            let sorted = |rows: &Rows, ki: &[usize]| -> Result<(Vec<u32>, Vec<Vec<Value>>)> {
                let asc: Vec<(usize, bool)> = ki.iter().map(|&i| (i, false)).collect();
                let ids: Vec<u32> =
                    argsort(rows, &asc)?.into_iter().map(|k| rows.id(k as usize) as u32).collect();
                let keys = ki
                    .iter()
                    .map(|&i| {
                        let c = rows.col(i)?;
                        Ok(ids.iter().map(|&id| c.value_at(id as usize)).collect())
                    })
                    .collect::<Result<_>>()?;
                Ok((ids, keys))
            };
            let ((lo, lv), (ro, rv)) = (sorted(&l, &li)?, sorted(&r, &ri)?);
            let cmp = |i: usize, j: usize| {
                lv.iter()
                    .zip(&rv)
                    .map(|(a, b)| a[i].total_cmp(&b[j]))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            };
            let (mut lids, mut rids) = (Vec::new(), Vec::new());
            let (mut i, mut j) = (0usize, 0usize);
            while i < lo.len() && j < ro.len() {
                match cmp(i, j) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        if lv.iter().any(|c| c[i].is_null()) {
                            i += 1;
                            continue;
                        }
                        // group bounds
                        let i2 = (i..lo.len()).find(|&x| cmp(x, j).is_ne()).unwrap_or(lo.len());
                        let j2 = (j..ro.len()).find(|&y| cmp(i, y).is_ne()).unwrap_or(ro.len());
                        for &lid in &lo[i..i2] {
                            lids.extend(std::iter::repeat_n(lid, j2 - j));
                            rids.extend_from_slice(&ro[j..j2]);
                        }
                        i = i2;
                        j = j2;
                    }
                }
            }
            Ok(joined(&l, &lids, &r, &rids, need))
        }
        PlanOp::NlJoin { pred, left, right } => {
            let bound = match pred {
                Some(p) => Some(p.bound(&plan.schema)?),
                None => None,
            };
            let reads = bound.as_ref().map(|p| needing(&vec![false; need.len()], p));
            let all = bound.as_ref().map_or_else(|| need.to_vec(), |p| needing(need, p));
            let (ln, rn) = split_need(&all, left.schema.len(), &[], &[]);
            let (l, r) = (eval(left, db, &ln)?, eval(right, db, &rn)?);
            // every pair in left order, decided a batch of pairs at a time
            let (mut lids, mut rids) = (Vec::new(), Vec::new());
            let (mut bl, mut br) = (Vec::new(), Vec::new());
            let mut decide = |bl: &mut Vec<u32>, br: &mut Vec<u32>| -> Result<()> {
                match (&bound, &reads) {
                    (Some(p), Some(reads)) => {
                        let pairs = joined(&l, bl, &r, br, reads);
                        for k in select(p, &pairs.view(), None, pairs.len)? {
                            lids.push(bl[k as usize]);
                            rids.push(br[k as usize]);
                        }
                        bl.clear();
                        br.clear();
                    }
                    _ => {
                        lids.append(bl);
                        rids.append(br);
                    }
                }
                Ok(())
            };
            for a in 0..l.rows() {
                for b in 0..r.rows() {
                    bl.push(l.id(a) as u32);
                    br.push(r.id(b) as u32);
                    if bl.len() == DEFAULT_BATCH_ROWS {
                        decide(&mut bl, &mut br)?;
                    }
                }
            }
            decide(&mut bl, &mut br)?;
            Ok(joined(&l, &lids, &r, &rids, need))
        }
        PlanOp::IndexNlJoin { lkey, table, col, left } => {
            let ki = left.schema.index_of(lkey)?;
            let (ln, rn) = split_need(need, left.schema.len(), &[ki], &[]);
            let l = eval(left, db, &ln)?;
            let t = db.table(table)?;
            let ix = db
                .index_on(table, col)
                .ok_or_else(|| DbError::Semantic(format!("no index on {table}.{col}")))?;
            let key = l.col(ki)?;
            let (mut lids, mut rids) = (Vec::new(), Vec::new());
            for k in 0..l.rows() {
                let id = l.id(k);
                if !key.is_valid(id) {
                    continue;
                }
                for &rid in ix.map.get(&key.value_at(id).key()).into_iter().flatten() {
                    lids.push(id as u32);
                    rids.push(rid as u32);
                }
            }
            let r = Rows::whole(t.cols.iter().cloned(), &rn, t.len);
            Ok(joined(&l, &lids, &r, &rids, need))
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
            let rows = eval(input, db, &used)?;
            let gc: Vec<&Column> = gi.iter().map(|&i| rows.col(i)).collect::<Result<_>>()?;
            let keys = KeyCols::new(gc.clone(), true);
            let args: Vec<Option<Column>> = bound_args
                .iter()
                .map(|a| a.as_ref().map(|e| computed(e, &rows)).transpose())
                .collect::<Result<_>>()?;
            // groups in first-seen order: each one's first row and its
            // accumulators, `aggs.len()` apiece
            let mut groups: FxMap<RowKey, u32> = FxMap::default();
            let mut first: Vec<u32> = Vec::new();
            let mut accs: Vec<Acc> = Vec::new();
            for k in 0..rows.rows() {
                let id = rows.id(k);
                let next = first.len() as u32;
                let g = *groups.entry(keys.at(id)).or_insert(next);
                if g == next {
                    first.push(id as u32);
                    accs.extend(aggs.iter().map(|a| Acc::new(a.func)));
                }
                let group = &mut accs[g as usize * aggs.len()..][..aggs.len()];
                for (acc, arg) in group.iter_mut().zip(&args) {
                    acc.add(arg.as_ref().map(|c| c.value_at(k)).as_ref());
                }
            }
            // A global aggregate over an empty input still yields one row.
            let n = if gi.is_empty() && first.is_empty() {
                accs.extend(aggs.iter().map(|a| Acc::new(a.func)));
                1
            } else {
                first.len()
            };
            let mut cols: Vec<Option<Column>> = gc.iter().map(|c| Some(c.gather(&first))).collect();
            for a in 0..aggs.len() {
                let mut out = ColumnBuilder::default();
                (0..n).for_each(|g| out.push(accs[g * aggs.len() + a].finish()));
                cols.push(Some(out.finish()));
            }
            Ok(Rows { cols, sel: None, len: n })
        }
        PlanOp::Distinct { input } => {
            let all = vec![true; input.schema.len()];
            let mut rows = eval(input, db, &all)?;
            let cols: Vec<&Column> = (0..all.len()).map(|i| rows.col(i)).collect::<Result<_>>()?;
            let keys = KeyCols::new(cols, true);
            let mut seen = FxMap::default();
            let sel = (0..rows.rows())
                .map(|k| rows.id(k))
                .filter(|&id| seen.insert(keys.at(id), ()).is_none())
                .map(|id| id as u32)
                .collect();
            rows.sel = Some(sel);
            Ok(rows)
        }
        PlanOp::UnionAll { inputs } => {
            let mut out = vec![ColumnBuilder::default(); plan.schema.len()];
            let mut len = 0;
            for p in inputs {
                if p.schema.len() != plan.schema.len() {
                    return Err(DbError::Semantic("UNION arity mismatch".into()));
                }
                let rows = eval(p, db, need)?;
                for (i, b) in out.iter_mut().enumerate().filter(|(i, _)| need[*i]) {
                    let c = rows.col(i)?;
                    (0..rows.rows()).for_each(|k| b.push(c.value_at(rows.id(k))));
                }
                len += rows.rows();
            }
            let cols = out.into_iter().zip(need).map(|(b, &n)| n.then(|| b.finish())).collect();
            Ok(Rows { cols, sel: None, len })
        }
    }
}

fn resolve_keys(names: &[String], schema: &Schema) -> Result<Vec<usize>> {
    names.iter().map(|n| schema.index_of(n).map_err(DbError::from)).collect()
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

    thread_local! {
        /// Rows put into a `Tuple` on this thread: by `box_rows`, by a
        /// cursor's row fetch, or to evaluate an expression row by row.
        pub(super) static BOXED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn plan(db: &DbInner, sql: &str) -> Plan {
        let crate::ast::Stmt::Select(s) = parse(sql).unwrap() else { panic!("{sql}") };
        plan_select(&s, db).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    /// The address of a column's value buffer: two columns that share it
    /// are one column.
    fn buffer(c: &Column) -> *const () {
        match c {
            Column::Int { vals, .. } | Column::Date { vals, .. } => Arc::as_ptr(vals).cast(),
            Column::Double { vals, .. } => Arc::as_ptr(vals).cast(),
            Column::Str { codes, .. } => Arc::as_ptr(codes).cast(),
            Column::Mixed { vals } => Arc::as_ptr(vals).cast(),
        }
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
        // each output column is the heap column it shares its buffer with
        let lent = |sql: &str| {
            let p = plan(&inner, sql);
            let rows = eval(&p, &inner, &vec![true; p.schema.len()]).unwrap();
            let pick = rows.cols.iter().map(|c| {
                let c = c.as_ref().unwrap();
                let heap = table.cols.iter().position(|h| buffer(h) == buffer(c));
                heap.unwrap_or_else(|| panic!("{sql}: a copied heap column"))
            });
            (pick.collect::<Vec<_>>(), rows.sel)
        };

        assert_eq!(lent("SELECT * FROM POSITION"), (vec![0, 1, 2, 3], None));
        let filter = "SELECT * FROM POSITION WHERE T1 > 3";
        assert_eq!(lent(filter), (vec![0, 1, 2, 3], Some(vec![1, 2])));
        // plain columns pick heap columns; a filter over them narrows the rows
        let picked = "SELECT X.T2 AS A, X.PosID AS B FROM POSITION X WHERE X.T1 < X.T2";
        assert_eq!(lent(picked), (vec![3, 0], Some(vec![0, 1, 2])));
        assert_eq!(run(&plan(&inner, filter), &inner).unwrap().into_rows(), rows[1..]);
        assert_eq!(
            run(&plan(&inner, picked), &inner).unwrap().into_rows(),
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
            let got = run(&plan(&inner, "SELECT * FROM R"), &inner).unwrap().into_rows();
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
            assert_eq!(got.into_rows(), want, "{pred}");
        }
        let low = Expr::cmp(tango_algebra::CmpOp::Lt, Expr::col("D"), Expr::lit(3));
        let gone = db.delete_rows("R", Some(&low)).unwrap();
        let inner = db.inner.read();
        let left: Vec<Tuple> = (0..n).filter(|&k| d(k) >= 3.0).map(|k| tup![k]).collect();
        assert_eq!(gone as usize + left.len(), n as usize);
        assert_eq!(run(&plan(&inner, "SELECT K FROM R"), &inner).unwrap().into_rows(), left);
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
                .into_rows()
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
    /// self-join `R A, R B`, with the reference answer the test computes
    /// itself from the rows.
    struct Case {
        sql: String,
        want: Vec<Tuple>,
        /// With ORDER BY: each wanted row's sort key.
        keys: Option<Vec<Value>>,
        /// Whether the answer's order is the reference's, row for row.
        /// Every operator keeps its input's order or sorts stably, and a
        /// join emits left order, then build order within a key — except
        /// a merge join, which emits key order, and an index range scan:
        /// then only each run of equal sort keys (the whole answer when
        /// unordered) is a multiset.
        listed: bool,
    }

    const COLS: [&str; 4] = ["K", "S", "T1", "T2"];
    const OPS: [&str; 5] = ["=", "<", "<=", ">", ">="];

    const STRS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

    /// The join conditions, as (A column, B column) pairs: INT, VARCHAR
    /// and DOUBLE keys (`-0.0` among them), two keys, INT against DATE,
    /// DATE against DOUBLE, and two int-like keys.
    const ONS: [&[(usize, usize)]; 7] = [
        &[(0, 0)],
        &[(1, 1)],
        &[(3, 3)],
        &[(0, 0), (1, 1)],
        &[(0, 2)],
        &[(2, 3)],
        &[(0, 0), (2, 2)],
    ];

    fn lit(col: usize, n: i64) -> Value {
        if col % 4 == 1 {
            Value::Str(STRS[n as usize % 6].into())
        } else {
            Value::Int(n)
        }
    }

    /// A row of `R`: a negative number is NULL, as is string 3; `T1` is a
    /// DATE; `T2` is a DOUBLE, with negative, fractional and integral
    /// values, `0` and `-0.0`.
    fn r_row(k: i64, s: usize, t1: i64, t2: i64) -> Tuple {
        let int = |n: i64| if n < 0 { Value::Null } else { Value::Int(n) };
        let s = if s == 3 { Value::Null } else { Value::Str(STRS[s % 6].into()) };
        let t1 = if t1 < 0 { Value::Null } else { Value::Date(t1 as i32) };
        let t2 = match t2 {
            ..0 => Value::Null,
            7 => Value::Double(-0.0),
            _ => Value::Double(t2 as f64 / 2.0 - 1.0),
        };
        Tuple::new(vec![int(k), s, t1, t2])
    }

    /// One generated write: its kind, a row, and a predicate or a target.
    type Write = (usize, (i64, usize, i64, i64), (usize, usize, i64));

    /// Apply `writes` to the table `R` and to `rows`, its row-vector
    /// reference: INSERTs of new strings, of NULLs and of values that
    /// demote a typed column to mixed variants, DELETEs and UPDATEs.
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
                        // a DATE among INTs, a fraction or an INT among DATEs
                        match n % 3 {
                            0 => row.set(0, Value::Date(k.max(0) as i32)),
                            1 => row.set(2, Value::Double(t1 as f64 + 0.5)),
                            _ => row.set(2, Value::Int(t1.max(0))),
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

    /// `a op b` as SQL decides it: never over a NULL, nor between a
    /// string and a number.
    fn holds(a: &Value, op: usize, b: &Value) -> bool {
        a.sql_cmp(b).is_some_and(|o| match OPS[op] {
            "=" => o == Ordering::Equal,
            "<" => o == Ordering::Less,
            "<=" => o != Ordering::Greater,
            ">" => o == Ordering::Greater,
            _ => o != Ordering::Less,
        })
    }

    /// `GREATEST` (`want` = `Greater`) or `LEAST` as SQL has it: NULL if
    /// any operand is, else the first operand no later one beats.
    fn extreme_of(vals: &[&Value], want: Ordering) -> Value {
        let mut best: Option<&Value> = None;
        for v in vals {
            if v.is_null() {
                return Value::Null;
            }
            if best.is_none_or(|b| v.sql_cmp(b) == Some(want)) {
                best = Some(v);
            }
        }
        best.cloned().unwrap_or(Value::Null)
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

    /// What a generated statement draws: over one table or the self-join,
    /// which join condition, method and cross-side predicates, the
    /// single-side predicates, the select list, and what is above it.
    struct Shape {
        join: bool,
        qualify: bool,
        /// Index into [`ONS`], and 0 hash, 1 merge, 2 nested loops (index
        /// nested loops when `R` has an index on the right key).
        on: usize,
        method: usize,
        /// `A.<c> op B.<c>`: column, operator, column.
        cross: Vec<(usize, usize, usize)>,
        preds: Vec<(usize, usize, i64)>,
        /// 0 every column, 1 every column with two swapped, 2 the columns
        /// `cols` names, 3 `GREATEST` / `LEAST` of two numeric columns
        /// and one plain column.
        list_mode: usize,
        cols: Vec<usize>,
        /// 0 none, 1 DISTINCT, 2 GROUP BY, 3 UNION ALL of the block with
        /// itself.
        extra: usize,
        /// ORDER BY: 0 none, 1 an output column, 2 an input column.
        order: usize,
        by: usize,
        desc: bool,
    }

    fn case(rows: &[Tuple], sh: &Shape) -> Case {
        let (join, width) = (sh.join, if sh.join { 8 } else { 4 });
        let name = |c: usize| match (join, sh.qualify) {
            (true, _) => format!("{}.{}", ["A", "B"][c / 4], COLS[c % 4]),
            (false, true) => format!("X.{}", COLS[c]),
            (false, false) => COLS[c].to_string(),
        };
        let on = ONS[sh.on];
        let cross: Vec<(usize, usize, usize)> = if join { sh.cross.clone() } else { Vec::new() };
        let mut input: Vec<Tuple> = if join {
            let pairs = rows.iter().flat_map(|a| rows.iter().map(move |b| (a, b)));
            pairs
                .filter(|(a, b)| on.iter().all(|&(x, y)| holds(&a[x], 0, &b[y])))
                .filter(|(a, b)| cross.iter().all(|&(x, op, y)| holds(&a[x], op, &b[y])))
                .map(|(a, b)| a.concat(b))
                .collect()
        } else {
            rows.to_vec()
        };
        let preds: Vec<(usize, usize, Value)> =
            sh.preds.iter().map(|&(c, op, n)| (c % width, op, lit(c % width, n))).collect();
        input.retain(|t| preds.iter().all(|(c, op, l)| holds(&t[*c], *op, l)));
        let mut conj: Vec<String> = preds
            .iter()
            .map(|(c, op, l)| match l {
                Value::Str(s) => format!("{} {} '{s}'", name(*c), OPS[*op]),
                _ => format!("{} {} {l}", name(*c), OPS[*op]),
            })
            .collect();
        if join {
            for &(x, y) in on.iter().rev() {
                conj.insert(0, format!("A.{} = B.{}", COLS[x], COLS[y]));
            }
            conj.extend(
                cross.iter().map(|&(x, op, y)| format!("A.{} {} B.{}", COLS[x], OPS[op], COLS[y])),
            );
        }
        let from = match (join, sh.qualify) {
            (true, _) => "R A, R B",
            (false, true) => "R X",
            (false, false) => "R",
        };
        let where_ =
            if conj.is_empty() { String::new() } else { format!(" WHERE {}", conj.join(" AND ")) };
        let hint = match (join, sh.method) {
            (true, 1) => "/*+ USE_MERGE */ ",
            (true, 2) => "/*+ USE_NL */ ",
            _ => "",
        };
        let listed = !(join && sh.method == 1);
        let (cols, dir) = (&sh.cols, if sh.desc { " DESC" } else { "" });

        if sh.extra == 2 {
            // GROUP BY one column or two, with COUNT(*) and MIN of another
            let mut g: Vec<usize> =
                cols.iter().take(1 + (cols.len() > 2) as usize).map(|c| c % width).collect();
            g.dedup();
            let m = cols[cols.len() - 1] % width;
            let mut groups: Vec<(Vec<Value>, i64, Value)> = Vec::new();
            for t in &input {
                let key: Vec<Value> = g.iter().map(|&c| t[c].clone()).collect();
                let i = match groups.iter().position(|(k, ..)| *k == key) {
                    Some(i) => i,
                    None => {
                        groups.push((key, 0, Value::Null));
                        groups.len() - 1
                    }
                };
                let (_, n, min) = &mut groups[i];
                *n += 1;
                if !t[m].is_null() && (min.is_null() || t[m].total_cmp(min) == Ordering::Less) {
                    *min = t[m].clone();
                }
            }
            let mut want: Vec<Tuple> = groups
                .into_iter()
                .map(|(mut k, n, m)| {
                    k.extend([Value::Int(n), m]);
                    Tuple::new(k)
                })
                .collect();
            let keys: Vec<String> = g.iter().map(|&c| name(c)).collect();
            let items: Vec<String> =
                keys.iter().zip(["G", "H"]).map(|(k, a)| format!("{k} AS {a}")).collect();
            let mut sql = format!(
                "SELECT {hint}{}, COUNT(*) AS N, MIN({m}) AS M FROM {from}{where_} GROUP BY {}",
                items.join(", "),
                keys.join(", "),
                m = name(m)
            );
            let mut keys = None;
            if sh.order > 0 {
                sort_on(&mut want, 0, sh.desc);
                sql += &format!(" ORDER BY G{dir}");
                keys = Some(want.iter().map(|t| t[0].clone()).collect());
            }
            return Case { sql, want, keys, listed };
        }

        // each output column: an input column, or GREATEST / LEAST of two
        let numeric: Vec<usize> = (0..width).filter(|c| c % 4 != 1).collect();
        let (x, y) =
            (numeric[cols[0] % numeric.len()], numeric[cols[cols.len() - 1] % numeric.len()]);
        let list: Vec<(usize, Option<Ordering>)> = match sh.list_mode {
            0 => (0..width).map(|c| (c, None)).collect(),
            1 => {
                let mut l: Vec<usize> = (0..width).collect();
                l.swap(cols[0] % width, cols[cols.len() - 1] % width);
                l.into_iter().map(|c| (c, None)).collect()
            }
            2 => cols.iter().map(|c| (c % width, None)).collect(),
            _ => vec![
                (x, Some(Ordering::Greater)),
                (x, Some(Ordering::Less)),
                (cols[0] % width, None),
            ],
        };
        let item = |&(c, f): &(usize, Option<Ordering>)| match f {
            None => name(c),
            Some(Ordering::Greater) => format!("GREATEST({}, {})", name(c), name(y)),
            Some(_) => format!("LEAST({}, {})", name(c), name(y)),
        };
        // the identity list in TANGO's own spelling: `X.K AS K, …`
        let alias = |i: usize| {
            if sh.list_mode == 0 && !join {
                COLS[i].to_string()
            } else {
                format!("C{i}")
            }
        };
        let items: Vec<String> = list
            .iter()
            .enumerate()
            .map(|(i, it)| format!("{} AS {}", item(it), alias(i)))
            .collect();
        let (distinct, union) = (sh.extra == 1, sh.extra == 3);
        let block = format!(
            "SELECT {hint}{}{} FROM {from}{where_}",
            if distinct { "DISTINCT " } else { "" },
            items.join(", ")
        );
        let mut sql = if union { format!("{block} UNION ALL {block}") } else { block };
        // ORDER BY an input column the list may hide — the sort then
        // slides below the projection — or by an output column
        let mut keys = None;
        let by_input = sh.order == 2 && !distinct && !union;
        if by_input {
            let c = sh.by % width;
            sort_on(&mut input, c, sh.desc);
            sql += &format!(" ORDER BY {}{dir}", name(c));
            keys = Some(input.iter().map(|t| t[c].clone()).collect());
        }
        let out = |t: &Tuple| {
            let vals = list.iter().map(|&(c, f)| match f {
                None => t[c].clone(),
                Some(want) => extreme_of(&[&t[c], &t[y]], want),
            });
            Tuple::new(vals.collect())
        };
        let mut want: Vec<Tuple> = input.iter().map(out).collect();
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
        if union {
            want.extend_from_within(..);
        }
        if sh.order > 0 && !by_input {
            let j = sh.by % list.len();
            sort_on(&mut want, j, sh.desc);
            sql += &format!(" ORDER BY {}{dir}", alias(j));
            keys = Some(want.iter().map(|t| t[j].clone()).collect());
        }
        Case { sql, want, keys, listed }
    }

    /// Rows as a multiset, variant for variant: sorted by their `{:?}`.
    fn canonical(rows: &[Tuple]) -> Vec<String> {
        let mut shown: Vec<String> = rows.iter().map(|t| format!("{t:?}")).collect();
        shown.sort();
        shown
    }

    /// A small query-3 shaped fixture: `POSITION(PosID, EmpID, PayRate,
    /// T1 DATE, T2 DATE)`, `n` rows, some with NULL or empty periods.
    fn query_3_db(n: i64) -> Database {
        let db = Database::in_memory();
        let schema = Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpID", Type::Int),
            Attr::new("PayRate", Type::Double),
            Attr::new("T1", Type::Date),
            Attr::new("T2", Type::Date),
        ]);
        db.create_table("POSITION", schema).unwrap();
        let date = |d: i64| if d % 17 == 0 { Value::Null } else { Value::Date(d as i32) };
        let rows = (0..n)
            .map(|i| {
                let t1 = (i * 7919) % 40;
                tup![i % 13, i, Value::Double(i as f64 / 4.0), date(t1), date(t1 + (i % 9) - 2)]
            })
            .collect();
        db.insert_rows("POSITION", rows).unwrap();
        db
    }

    /// Query 3's fragment, as the middleware renders `TJOIN^D` over two
    /// filtered POSITION accesses, ordered: it runs columnar from the
    /// scans to its root — the hash join, the column-vs-column filters,
    /// the `GREATEST` / `LEAST` projection and the sort — and hands the
    /// cursor dense columns of its own: it boxes no row, and no result
    /// buffer is a heap buffer.
    #[test]
    fn query_3s_fragment_boxes_no_row() {
        let db = query_3_db(400);
        let side = "(SELECT PosID AS PosID, EmpID AS EmpID, T1 AS T1, T2 AS T2 FROM \
                    (SELECT X.PosID AS PosID, X.EmpID AS EmpID, X.PayRate AS PayRate, \
                    X.T1 AS T1, X.T2 AS T2 FROM POSITION X \
                    WHERE (T1 < DATE '1970-01-31')) X)";
        let sql = format!(
            "SELECT A.PosID AS PosID, A.EmpID AS EmpID, B.EmpID AS EmpID_1, \
             GREATEST(A.T1, B.T1) AS T1, LEAST(A.T2, B.T2) AS T2 FROM {side} A, {side} B \
             WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1 \
             AND A.T1 < A.T2 AND B.T1 < B.T2 ORDER BY PosID"
        );
        let inner = db.inner.read();
        let p = plan(&inner, &sql);
        for node in ["SORT [PosID]", "PROJECT [5 columns]", "HASH JOIN", "FILTER [(A.T1 < B.T2)]"] {
            assert!(p.render().contains(node), "{node} in\n{}", p.render());
        }
        BOXED.with(|b| b.set(0));
        let result = run(&p, &inner).unwrap();
        assert_eq!(BOXED.with(|b| b.get()), 0, "rows boxed for {} result rows", result.len());
        let heap = &inner.table("POSITION").unwrap().cols;
        let (cols, offset, _) = result.columns().unwrap();
        assert_eq!(offset, 0);
        for c in cols {
            assert!(heap.iter().all(|h| buffer(h) != buffer(c)), "{c:?} is a heap buffer");
        }
        let got = result.into_rows();

        // the answer, from the boxed heap
        let heap = inner.table("POSITION").unwrap().boxed_rows(None);
        let side: Vec<&Tuple> = heap
            .iter()
            .filter(|t| holds(&t[3], 1, &Value::Date(30)) && holds(&t[3], 1, &t[4]))
            .collect();
        let mut want = Vec::new();
        for a in &side {
            for b in side.iter().filter(|b| holds(&a[0], 0, &b[0])) {
                if holds(&a[3], 1, &b[4]) && holds(&a[4], 3, &b[3]) {
                    let (t1, t2) = (
                        extreme_of(&[&a[3], &b[3]], Ordering::Greater),
                        extreme_of(&[&a[4], &b[4]], Ordering::Less),
                    );
                    want.push(Tuple::new(vec![a[0].clone(), a[1].clone(), b[1].clone(), t1, t2]));
                }
            }
        }
        sort_on(&mut want, 0, false);
        assert!(want.len() > 100, "{} rows", want.len());
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    /// Query 2's traffic crosses the wire both ways without boxing a row:
    /// the cold `TRANSFER^M` of POSITION's periods, decoded one trip at a
    /// time into columns; the `TRANSFER^D` load of their aggregation into
    /// a temp table, encoded from those columns and decoded into its
    /// heap; and the final `TJOIN^D` over the temp table and POSITION,
    /// fetched as columns. The loaded heap holds the rows it was sent.
    #[test]
    fn query_2s_transfers_box_no_row() {
        let conn = crate::Connection::new(query_3_db(400));
        let fetch = |sql: &str| {
            let mut cur = conn.query(sql).unwrap();
            cur.set_fetch_size(64);
            std::iter::from_fn(|| cur.fetch_columns().unwrap()).collect::<Vec<Batch>>()
        };
        BOXED.with(|b| b.set(0));
        let periods = fetch("SELECT PosID, T1, T2 FROM POSITION ORDER BY PosID, T1");
        assert!(periods.len() > 1, "{} trips", periods.len());
        let schema = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("Cnt", Type::Int),
            Attr::new("T1", Type::Date),
            Attr::new("T2", Type::Date),
        ]));
        let counted: Vec<Batch> = periods
            .iter()
            .map(|b| {
                let (cols, _, len) = b.columns().unwrap();
                let cnt = Column::Int { vals: Arc::new(vec![1; len]), valid: None };
                let cols = vec![cols[0].clone(), cnt, cols[1].clone(), cols[2].clone()];
                Batch::from_columns(schema.clone(), cols)
            })
            .collect();
        conn.load_direct_batches("TANGO_TMP_1", schema.as_ref().clone(), counted.clone()).unwrap();
        let joined = fetch(
            "SELECT P.PosID AS PosID, A.Cnt AS Cnt, P.EmpID AS EmpID, \
             GREATEST(A.T1, P.T1) AS T1, LEAST(A.T2, P.T2) AS T2 \
             FROM TANGO_TMP_1 A, POSITION P \
             WHERE A.PosID = P.PosID AND P.PayRate > 10 AND A.T1 < P.T2 AND P.T1 < A.T2 \
             ORDER BY PosID",
        );
        assert_eq!(BOXED.with(|b| b.get()), 0);
        assert!(joined.iter().map(Batch::len).sum::<usize>() > 100);

        let inner = conn.database().inner.read();
        let loaded = inner.table("TANGO_TMP_1").unwrap().boxed_rows(None);
        let sent: Vec<Tuple> = counted.into_iter().flat_map(Batch::into_rows).collect();
        assert_eq!(format!("{loaded:?}"), format!("{sent:?}"));
    }

    /// Each index after the generated writes is the index built from
    /// scratch over the heap.
    fn assert_indexes_rebuilt(inner: &DbInner, sql: &str) {
        let table = inner.table("R").unwrap();
        for ix in &inner.indexes {
            let ci = table.schema.index_of(&ix.col).unwrap();
            assert_eq!(ix.map, table.keyed(ci), "index {} after the writes, then {sql}", ix.col);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Every answer — through lent scans, kernel filters, projections
        /// that pick or compute columns, and every operator above them —
        /// equals a reference computed from the rows directly, value for
        /// value and variant for variant: as a list, or where a merge
        /// join reorders, each run of equal sort keys as a multiset. The
        /// statement runs after a generated write sequence, with or
        /// without an index on an INT, a DATE, a DOUBLE or (probed by
        /// index nested loops) a VARCHAR column; the heap must equal the
        /// written row vector, and each index the one rebuilt from it. Joins draw their keys (INT, VARCHAR, DOUBLE
        /// with `-0.0`, two keys, INT against DATE, DATE against DOUBLE;
        /// NULLs in each), their method (hash, merge, nested loops, index
        /// nested loops) and cross-side predicates.
        #[test]
        fn generated_statements_match_a_reference(
            raw in prop::collection::vec((-1i64..4, 0usize..4, -1i64..8, -1i64..8), 0..20),
            (dups, index, join, qualify) in (0usize..6, 0usize..4, 0usize..3, 0usize..2),
            writes in prop::collection::vec(
                (0usize..5, (-1i64..5, 0usize..6, -1i64..8, -1i64..8), (0usize..4, 0usize..5, 0i64..8)),
                0..6,
            ),
            preds in prop::collection::vec((0usize..8, 0usize..5, 0i64..8), 0..3),
            (on, method, cross) in (0usize..7, 0usize..3, prop::collection::vec((0usize..4, 0usize..5, 0usize..4), 0..2)),
            (list_mode, cols) in (0usize..4, prop::collection::vec(0usize..8, 1..7)),
            (extra, order, by, desc) in (0usize..4, 0usize..3, 0usize..8, 0usize..2),
        ) {
            let mut rows: Vec<Tuple> =
                raw.iter().map(|&(k, s, t1, t2)| r_row(k, s, t1, t2)).collect();
            let n = dups.min(rows.len());
            rows.extend_from_within(..n);

            let db = Database::in_memory();
            let types = [Type::Int, Type::Str, Type::Date, Type::Double];
            let schema = Schema::new(COLS.iter().zip(types).map(|(c, t)| Attr::new(*c, t)).collect());
            db.create_table("R", schema).unwrap();
            db.insert_rows("R", rows.clone()).unwrap();
            // nested loops probe an index on the right key when there is one
            let nl = join == 0 && method == 2;
            if index > 0 {
                let col = if nl { COLS[ONS[on][0].1] } else { ["K", "T1", "T2"][index - 1] };
                db.create_index("IX", "R", col).unwrap();
            }
            apply_writes(&db, &mut rows, &writes);
            let shape = Shape {
                join: join == 0, qualify: qualify == 1, on, method, cross, preds, list_mode, cols,
                extra, order, by, desc: desc == 1,
            };
            let c = case(&rows, &shape);
            let inner = db.inner.read();
            let p = plan(&inner, &c.sql);
            let got = run(&p, &inner).unwrap_or_else(|e| panic!("{}: {e}", c.sql)).into_rows();
            prop_assert_eq!(got.len(), c.want.len(), "{}", c.sql);
            // an index range scan hands its rows on in key order
            if c.listed && !p.render().contains("INDEX RANGE SCAN") {
                prop_assert_eq!(format!("{got:?}"), format!("{:?}", c.want), "{}", c.sql);
            }
            // each run of equal sort keys, as a multiset
            let keys = c.keys.unwrap_or_else(|| vec![Value::Null; got.len()]);
            let mut start = 0;
            for end in 1..=keys.len() {
                if end == keys.len() || keys[end] != keys[start] {
                    let (g, w) = (&got[start..end], &c.want[start..end]);
                    prop_assert_eq!(canonical(g), canonical(w), "{}", c.sql);
                    start = end;
                }
            }
            let table = inner.table("R").unwrap();
            let heap = format!("{:?}", table.boxed_rows(None));
            prop_assert_eq!(heap, format!("{rows:?}"), "{}", c.sql);
            assert_indexes_rebuilt(&inner, &c.sql);
        }
    }
}
