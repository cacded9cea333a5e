//! Scalar expressions.
//!
//! One expression type serves three masters: predicate/projection
//! evaluation in the middleware algorithms, selectivity analysis in the
//! optimizer, and SQL rendering in the Translator-To-SQL (the `Display`
//! impl emits valid SQL for the mini-DBMS dialect).
//!
//! Evaluation lends its operands: a comparison, an arithmetic step or a
//! `GREATEST` / `LEAST` reads a bound column or a literal in place and
//! clones nothing it does not return, and a predicate's `AND` / `OR` /
//! `NOT` combine three-valued booleans without building a `Value`.

use crate::batch::{Batch, Bitmap, Column};
use crate::date::format_date;
use crate::error::{AlgebraError, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, o: Ordering) -> bool {
        match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        }
    }

    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    pub fn sql(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A scalar expression over one tuple. Column references carry both the
/// source name (for SQL rendering and optimizer analysis) and, once
/// [`Expr::bind`] has run, the resolved index (for evaluation).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    Col {
        name: String,
        index: Option<usize>,
    },
    Lit(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Greatest(Vec<Expr>),
    Least(Vec<Expr>),
    /// `IS NULL` (`negated = true` for `IS NOT NULL`).
    IsNull(Box<Expr>, bool),
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col { name: name.into(), index: None }
    }

    pub fn lit(v: impl crate::tuple::IntoValue) -> Expr {
        Expr::Lit(v.into_value())
    }

    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp(op, Box::new(l), Box::new(r))
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, l, r)
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::And(Box::new(l), Box::new(r))
    }

    pub fn or(l: Expr, r: Expr) -> Expr {
        Expr::Or(Box::new(l), Box::new(r))
    }

    /// Named to match [`Expr::and`]/[`Expr::or`]; this is a constructor,
    /// not the `std::ops::Not` trait.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// Conjoin a list of predicates; `None` for an empty list.
    pub fn and_all(mut preds: Vec<Expr>) -> Option<Expr> {
        let mut acc = preds.pop()?;
        while let Some(p) = preds.pop() {
            acc = Expr::and(p, acc);
        }
        Some(acc)
    }

    /// Split a predicate into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(l, r) => {
                let mut v = l.conjuncts();
                v.extend(r.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// The `Overlaps(a, b)` predicate of Section 3.3 over period columns:
    /// `t1 < b AND t2 > a`.
    pub fn overlaps(t1: &str, t2: &str, a: Expr, b: Expr) -> Expr {
        Expr::and(Expr::cmp(CmpOp::Lt, Expr::col(t1), b), Expr::cmp(CmpOp::Gt, Expr::col(t2), a))
    }

    /// Resolve every column reference against `schema`; the first column
    /// it does not have is the error.
    pub fn bind(&mut self, schema: &Schema) -> Result<()> {
        let mut unknown = None;
        self.visit_mut(&mut |e| {
            if let Expr::Col { name, index } = e {
                match schema.index_of(name) {
                    Ok(i) => *index = Some(i),
                    Err(e) => _ = unknown.get_or_insert(e),
                }
            }
        });
        unknown.map_or(Ok(()), Err)
    }

    /// A bound copy of this expression.
    pub fn bound(&self, schema: &Schema) -> Result<Expr> {
        let mut e = self.clone();
        e.bind(schema)?;
        Ok(e)
    }

    /// Visit every node in place, parents before children.
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Col { .. } | Expr::Lit(_) => {}
            Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(_, l, r) => {
                l.visit_mut(f);
                r.visit_mut(f);
            }
            Expr::Not(e) | Expr::IsNull(e, _) => e.visit_mut(f),
            Expr::Greatest(es) | Expr::Least(es) => es.iter_mut().for_each(|e| e.visit_mut(f)),
        }
    }

    /// Visit every node (read-only).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Col { .. } | Expr::Lit(_) => {}
            Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(_, l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Not(e) | Expr::IsNull(e, _) => e.visit(f),
            Expr::Greatest(es) | Expr::Least(es) => es.iter().for_each(|e| e.visit(f)),
        }
    }

    /// The set of column names referenced — the paper's `attr(P)` function
    /// (preconditions of rules E1/E5).
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Col { name, .. } = e {
                if !out.iter().any(|n: &String| n.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Number of atomic comparisons — the `f(P)` coefficient of the
    /// `FILTER^M` cost formula (Figure 6).
    pub fn complexity(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if matches!(e, Expr::Cmp(..) | Expr::IsNull(..)) {
                n += 1;
            }
        });
        n.max(1)
    }

    /// Evaluate against a tuple. Column references must be bound.
    pub fn eval(&self, t: &Tuple) -> Result<Value> {
        match self {
            Expr::Col { name, index } => match index {
                Some(i) => Ok(t[*i].clone()),
                None => Err(AlgebraError::Unbound(name.clone())),
            },
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(_) => {
                Ok(tvl(self.eval_bool(t)?))
            }
            Expr::Arith(op, l, r) => {
                let (mut x, mut y) = (None, None);
                let (a, b) = (l.operand(t, &mut x)?, r.operand(t, &mut y)?);
                match op {
                    ArithOp::Add => a.add(b),
                    ArithOp::Sub => a.sub(b),
                    ArithOp::Mul => a.mul(b),
                    ArithOp::Div => a.div(b),
                }
            }
            Expr::Greatest(es) => fold_extreme(es, t, Ordering::Greater),
            Expr::Least(es) => fold_extreme(es, t, Ordering::Less),
            Expr::IsNull(e, negated) => {
                let v = e.eval(t)?;
                Ok(Value::Int((v.is_null() != *negated) as i64))
            }
        }
    }

    /// Evaluate as a three-valued boolean (`None` = SQL UNKNOWN). Both
    /// sides of a comparison, `AND` or `OR` are always evaluated, left
    /// first: a FALSE left side of an `AND` still reports an error on its
    /// right.
    pub fn eval_bool(&self, t: &Tuple) -> Result<Option<bool>> {
        Ok(match self {
            Expr::Cmp(op, l, r) => {
                let (mut x, mut y) = (None, None);
                l.operand(t, &mut x)?.sql_cmp(r.operand(t, &mut y)?).map(|o| op.eval(o))
            }
            Expr::And(l, r) => match (l.eval_bool(t)?, r.eval_bool(t)?) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Expr::Or(l, r) => match (l.eval_bool(t)?, r.eval_bool(t)?) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Expr::Not(e) => e.eval_bool(t)?.map(|b| !b),
            _ => match self.eval(t)? {
                Value::Int(i) => Some(i != 0),
                Value::Double(d) => Some(d != 0.0),
                _ => None,
            },
        })
    }

    /// This expression's value: a bound column or a literal lent in
    /// place, anything else evaluated into `slot`.
    fn operand<'a>(&'a self, t: &'a Tuple, slot: &'a mut Option<Value>) -> Result<&'a Value> {
        Ok(match self {
            Expr::Col { index: Some(i), .. } => &t[*i],
            Expr::Lit(v) => v,
            _ => slot.insert(self.eval(t)?),
        })
    }

    /// Predicate check: UNKNOWN filters the tuple out, as in SQL WHERE.
    pub fn matches(&self, t: &Tuple) -> Result<bool> {
        Ok(self.eval_bool(t)?.unwrap_or(false))
    }

    /// Vectorized three-valued predicate evaluation over a columnar batch:
    /// one tri-state per row (0 = FALSE, 1 = TRUE, 2 = UNKNOWN), agreeing
    /// with [`Expr::eval_bool`] row by row. Returns `None` when the batch
    /// is row-layout or the expression shape has no columnar kernel
    /// (callers fall back to row-at-a-time evaluation). Kernels cover the
    /// filter shapes the optimizer pushes into the middleware and the
    /// DBMS: column-vs-literal and column-vs-column comparisons, AND/OR/NOT
    /// over them, and `IS [NOT] NULL`.
    pub fn eval_batch_tri(&self, b: &Batch) -> Option<Vec<u8>> {
        let (cols, offset, len) = b.columns()?;
        self.eval_tri(cols, offset, len)
    }

    /// [`Expr::eval_batch_tri`] over rows `offset..offset + len` of bare
    /// columns, as a stored table holds them; column indices are bound
    /// against `cols`.
    pub fn eval_tri(&self, cols: &[Column], offset: usize, len: usize) -> Option<Vec<u8>> {
        match self {
            Expr::Lit(v) => {
                let t = match v {
                    Value::Null => 2,
                    Value::Int(i) => (*i != 0) as u8,
                    Value::Double(d) => (*d != 0.0) as u8,
                    _ => 2,
                };
                Some(vec![t; len])
            }
            Expr::Cmp(op, l, r) => {
                let (i, lit, op) = match (&**l, &**r) {
                    (Expr::Col { index: Some(i), .. }, Expr::Lit(v)) => (*i, v, *op),
                    (Expr::Lit(v), Expr::Col { index: Some(i), .. }) => (*i, v, op.flip()),
                    (Expr::Col { index: Some(i), .. }, Expr::Col { index: Some(j), .. }) => {
                        return cmp_col_col(&cols[*i], &cols[*j], offset, len, *op)
                    }
                    _ => return None,
                };
                Some(cmp_col_lit(&cols[i], offset, len, op, lit))
            }
            Expr::And(l, r) => {
                let a = l.eval_tri(cols, offset, len)?;
                let b = r.eval_tri(cols, offset, len)?;
                Some(
                    a.iter()
                        .zip(&b)
                        .map(|(&x, &y)| {
                            if x == 0 || y == 0 {
                                0
                            } else if x == 2 || y == 2 {
                                2
                            } else {
                                1
                            }
                        })
                        .collect(),
                )
            }
            Expr::Or(l, r) => {
                let a = l.eval_tri(cols, offset, len)?;
                let b = r.eval_tri(cols, offset, len)?;
                Some(
                    a.iter()
                        .zip(&b)
                        .map(|(&x, &y)| {
                            if x == 1 || y == 1 {
                                1
                            } else if x == 2 || y == 2 {
                                2
                            } else {
                                0
                            }
                        })
                        .collect(),
                )
            }
            Expr::Not(e) => {
                let mut a = e.eval_tri(cols, offset, len)?;
                for t in &mut a {
                    *t = match *t {
                        0 => 1,
                        1 => 0,
                        other => other,
                    };
                }
                Some(a)
            }
            Expr::IsNull(e, negated) => match &**e {
                Expr::Col { index: Some(i), .. } => {
                    let col = &cols[*i];
                    Some((0..len).map(|r| (col.is_valid(offset + r) == *negated) as u8).collect())
                }
                _ => None,
            },
            _ => None,
        }
    }
}

/// Compare every row of `col` in `[offset, offset + len)` against a
/// literal, reproducing [`Value::sql_cmp`] + [`CmpOp::eval`] per row.
fn cmp_col_lit(col: &Column, offset: usize, len: usize, op: CmpOp, lit: &Value) -> Vec<u8> {
    if lit.is_null() {
        return vec![2; len];
    }
    let tri = |o: Ordering| op.eval(o) as u8;
    fn mask_nulls(mut out: Vec<u8>, valid: &Option<Arc<Bitmap>>, offset: usize) -> Vec<u8> {
        if let Some(bm) = valid {
            for (r, slot) in out.iter_mut().enumerate() {
                if !bm.get(offset + r) {
                    *slot = 2;
                }
            }
        }
        out
    }
    match col {
        Column::Int { vals, valid } | Column::Date { vals, valid } => {
            let range = &vals[offset..offset + len];
            let out = match lit.as_int() {
                // Both sides integer-like: exact i64 comparison.
                Some(k) => range.iter().map(|v| tri(v.cmp(&k))).collect(),
                None => match lit {
                    Value::Double(d) => {
                        range.iter().map(|v| tri((*v as f64).total_cmp(d))).collect()
                    }
                    _ => vec![2; len], // strings never compare with numbers
                },
            };
            mask_nulls(out, valid, offset)
        }
        Column::Double { vals, valid } => {
            let out = match lit.as_f64() {
                Some(y) => {
                    vals[offset..offset + len].iter().map(|x| tri(x.total_cmp(&y))).collect()
                }
                None => vec![2; len],
            };
            mask_nulls(out, valid, offset)
        }
        Column::Str { codes, dict, valid } => {
            let out = match lit {
                // Compare each distinct dictionary entry once, then fan the
                // verdicts out over the codes.
                Value::Str(s) => {
                    let per: Vec<u8> =
                        dict.iter().map(|e| tri(e.as_str().cmp(s.as_str()))).collect();
                    codes[offset..offset + len].iter().map(|&c| per[c as usize]).collect()
                }
                _ => vec![2; len],
            };
            mask_nulls(out, valid, offset)
        }
        Column::Mixed { vals } => vals[offset..offset + len]
            .iter()
            .map(|v| match v.sql_cmp(lit) {
                Some(o) => tri(o),
                None => 2,
            })
            .collect(),
    }
}

/// Compare two columns row by row over `[offset, offset + len)`,
/// reproducing [`Value::sql_cmp`] + [`CmpOp::eval`]: integer-like pairs
/// (`Int`, `Date`) exactly, any pair with a `Double` by `f64::total_cmp`.
/// `None` for a string or mixed column: the row path decides those.
fn cmp_col_col(l: &Column, r: &Column, offset: usize, len: usize, op: CmpOp) -> Option<Vec<u8>> {
    type Side<'a, T> = (&'a [T], &'a Option<Arc<Bitmap>>);
    fn sweep<A: Copy, B: Copy>(
        (xs, xv): Side<A>,
        (ys, yv): Side<B>,
        (offset, len, op): (usize, usize, CmpOp),
        cmp: impl Fn(A, B) -> Ordering,
    ) -> Vec<u8> {
        let (xs, ys) = (&xs[offset..offset + len], &ys[offset..offset + len]);
        let mut out: Vec<u8> = xs.iter().zip(ys).map(|(&x, &y)| op.eval(cmp(x, y)) as u8).collect();
        for bm in [xv, yv].into_iter().flatten() {
            for (r, slot) in out.iter_mut().enumerate() {
                if !bm.get(offset + r) {
                    *slot = 2;
                }
            }
        }
        out
    }
    fn int(c: &Column) -> Option<Side<'_, i64>> {
        match c {
            Column::Int { vals, valid } | Column::Date { vals, valid } => Some((vals, valid)),
            _ => None,
        }
    }
    let at = (offset, len, op);
    Some(match (l, r) {
        (Column::Double { vals: x, valid: xv }, Column::Double { vals: y, valid: yv }) => {
            sweep((x, xv), (y, yv), at, |a: f64, b: f64| a.total_cmp(&b))
        }
        (Column::Double { vals: x, valid: xv }, c) => {
            sweep((x, xv), int(c)?, at, |a: f64, b: i64| a.total_cmp(&(b as f64)))
        }
        (c, Column::Double { vals: y, valid: yv }) => {
            sweep(int(c)?, (y, yv), at, |a: i64, b: f64| (a as f64).total_cmp(&b))
        }
        (a, b) => sweep(int(a)?, int(b)?, at, |a: i64, b: i64| a.cmp(&b)),
    })
}

fn tvl(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Int(b as i64),
        None => Value::Null,
    }
}

/// `GREATEST` / `LEAST`: a value is cloned only when it takes the lead.
fn fold_extreme(es: &[Expr], t: &Tuple, want: Ordering) -> Result<Value> {
    let mut best: Option<Value> = None;
    for e in es {
        let mut slot = None;
        let v = e.operand(t, &mut slot)?;
        if v.is_null() {
            return Ok(Value::Null); // SQL GREATEST/LEAST: any NULL => NULL
        }
        if best.as_ref().is_none_or(|b| v.sql_cmp(b) == Some(want)) {
            best = Some(v.clone());
        }
    }
    Ok(best.unwrap_or(Value::Null))
}

impl fmt::Display for Expr {
    /// Renders the expression as SQL in the mini-DBMS dialect.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col { name, .. } => write!(f, "{name}"),
            Expr::Lit(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Lit(Value::Date(d)) => write!(f, "DATE '{}'", format_date(*d)),
            Expr::Lit(v) => write!(f, "{v}"),
            // parenthesized so nested comparisons (booleans compared as
            // integers) re-parse unambiguously
            Expr::Cmp(op, l, r) => write!(f, "({l} {} {r})", op.sql()),
            Expr::And(l, r) => write!(f, "({l} AND {r})"),
            Expr::Or(l, r) => write!(f, "({l} OR {r})"),
            // wrapped so the NOT's scope survives re-parsing even in
            // operand position (SQL's NOT binds looser than arithmetic)
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Arith(op, l, r) => write!(f, "({l} {} {r})", op.sql()),
            Expr::Greatest(es) => write_fn(f, "GREATEST", es),
            Expr::Least(es) => write_fn(f, "LEAST", es),
            Expr::IsNull(e, false) => write!(f, "({e} IS NULL)"),
            Expr::IsNull(e, true) => write!(f, "({e} IS NOT NULL)"),
        }
    }
}

fn write_fn(f: &mut fmt::Formatter<'_>, name: &str, es: &[Expr]) -> fmt::Result {
    write!(f, "{name}(")?;
    for (i, e) in es.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{e}")?;
    }
    write!(f, ")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attr, Schema};
    use crate::tup;
    use crate::value::Type;

    fn schema() -> Schema {
        Schema::new(vec![
            Attr::new("A", Type::Int),
            Attr::new("B", Type::Int),
            Attr::new("S", Type::Str),
        ])
    }

    #[test]
    fn bind_and_eval() {
        let e = Expr::and(
            Expr::cmp(CmpOp::Lt, Expr::col("A"), Expr::col("B")),
            Expr::cmp(CmpOp::Eq, Expr::col("S"), Expr::lit("x")),
        )
        .bound(&schema())
        .unwrap();
        assert!(e.matches(&tup![1, 2, "x"]).unwrap());
        assert!(!e.matches(&tup![3, 2, "x"]).unwrap());
        assert!(!e.matches(&tup![1, 2, "y"]).unwrap());
    }

    /// `visit_mut` reaches a column wherever one can sit, including
    /// inside `GREATEST` / `LEAST` / `IS NULL`.
    #[test]
    fn visit_mut_reaches_every_variant() {
        let col = |n: &str| Box::new(Expr::col(n));
        let mut e = Expr::and(
            Expr::or(
                Expr::Cmp(CmpOp::Lt, col("a"), Box::new(Expr::lit(1))),
                Expr::not(Expr::IsNull(col("b"), true)),
            ),
            Expr::eq(
                Expr::Arith(ArithOp::Add, col("c"), col("d")),
                Expr::Greatest(vec![Expr::col("e"), Expr::Least(vec![Expr::col("f")])]),
            ),
        );
        let mut kinds = std::collections::HashSet::new();
        e.visit_mut(&mut |n| {
            kinds.insert(std::mem::discriminant(n));
            if let Expr::Col { name, .. } = n {
                name.make_ascii_uppercase();
            }
        });
        assert_eq!(kinds.len(), 10, "all ten variants visited");
        assert_eq!(e.columns(), ["A", "B", "C", "D", "E", "F"]);
    }

    #[test]
    fn three_valued_logic() {
        let e = Expr::cmp(CmpOp::Eq, Expr::col("A"), Expr::lit(1)).bound(&schema()).unwrap();
        let t = Tuple::new(vec![Value::Null, Value::Int(0), Value::Str("".into())]);
        assert_eq!(e.eval_bool(&t).unwrap(), None);
        assert!(!e.matches(&t).unwrap());
        // NULL OR TRUE = TRUE
        let e2 = Expr::or(e.clone(), Expr::lit(1)).bound(&schema()).unwrap();
        assert_eq!(e2.eval_bool(&t).unwrap(), Some(true));
    }

    #[test]
    fn greatest_least() {
        let e = Expr::Greatest(vec![Expr::col("A"), Expr::col("B")]).bound(&schema()).unwrap();
        assert_eq!(e.eval(&tup![3, 7, ""]).unwrap(), Value::Int(7));
        let e = Expr::Least(vec![Expr::col("A"), Expr::col("B")]).bound(&schema()).unwrap();
        assert_eq!(e.eval(&tup![3, 7, ""]).unwrap(), Value::Int(3));
    }

    #[test]
    fn sql_rendering() {
        let e = Expr::and(
            Expr::cmp(CmpOp::Lt, Expr::col("T1"), Expr::lit(Value::Date(0))),
            Expr::cmp(CmpOp::Eq, Expr::col("S"), Expr::lit("o'brien")),
        );
        assert_eq!(e.to_string(), "((T1 < DATE '1970-01-01') AND (S = 'o''brien'))");
    }

    #[test]
    fn columns_and_complexity() {
        let e = Expr::overlaps("T1", "T2", Expr::lit(5), Expr::lit(10));
        assert_eq!(e.columns(), vec!["T1".to_string(), "T2".to_string()]);
        assert_eq!(e.complexity(), 2);
    }

    #[test]
    fn conjunct_split_and_join() {
        let e = Expr::and_all(vec![Expr::lit(1), Expr::lit(2), Expr::lit(3)]).unwrap();
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn unbound_eval_errors() {
        let e = Expr::col("A");
        assert!(e.eval(&tup![1]).is_err());
    }

    /// Values of one column kind (0 Int, 1 Date, 2 Double, 3 Str, 4 mixed
    /// variants), NULL now and then, over few distinct values so that
    /// comparisons tie; doubles include `-0.0` and NaN.
    fn kernel_value(g: &mut Gen, kind: u64) -> Value {
        let k = g.below(5) as i64 - 2;
        let kind = if kind == 4 { g.below(4) } else { kind };
        match (g.below(6), kind) {
            (0, _) => Value::Null,
            (_, 0) => Value::Int(k),
            (_, 1) => Value::Date(k as i32),
            (_, 2) => [Value::Double(k as f64 / 2.0), Value::Double(-0.0), Value::Double(f64::NAN)]
                [g.below(3) as usize % 3]
                .clone(),
            _ => Value::Str(["", "a", "b", "ab", "b"][(k + 2) as usize].into()),
        }
    }

    /// A predicate over the five kernel columns `K0..K4` (kinds as in
    /// [`kernel_value`]), and whether a kernel must cover it: every shape
    /// does except a comparison of two columns that are not both laid out
    /// as numbers (`numeric`).
    fn kernel_pred(g: &mut Gen, depth: u32, numeric: &[bool]) -> (Expr, bool) {
        let col = |i: u64| Expr::Col { name: format!("K{i}"), index: Some(i as usize) };
        let op =
            [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][g.below(6) as usize];
        let pick = if depth == 0 { g.below(4) } else { g.below(8) };
        match pick {
            0 | 1 => {
                let (i, kind) = (g.below(5), g.below(5));
                let lit = Expr::Lit(kernel_value(g, kind));
                let e =
                    if pick == 0 { Expr::cmp(op, col(i), lit) } else { Expr::cmp(op, lit, col(i)) };
                (e, true)
            }
            2 => {
                let (i, j) = (g.below(5), g.below(5));
                (Expr::cmp(op, col(i), col(j)), numeric[i as usize] && numeric[j as usize])
            }
            3 => (Expr::IsNull(Box::new(col(g.below(5))), g.below(2) == 0), true),
            4 => {
                let kind = g.below(5);
                (Expr::Lit(kernel_value(g, kind)), true)
            }
            5 | 6 => {
                let (l, a) = kernel_pred(g, depth - 1, numeric);
                let (r, b) = kernel_pred(g, depth - 1, numeric);
                (if pick == 5 { Expr::and(l, r) } else { Expr::or(l, r) }, a && b)
            }
            _ => {
                let (e, a) = kernel_pred(g, depth - 1, numeric);
                (Expr::not(e), a)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 512, ..Default::default() })]

        /// The batch kernels agree with `eval_bool` row by row — every DBMS
        /// base-table predicate and every `FILTER^M` batch goes through
        /// them — over Int, Date, Double, Str and mixed-variant columns with
        /// NULLs, `-0.0` and NaN, fractional literals against Int columns,
        /// and Str literals against numeric ones; and a kernel exists for
        /// every shape it must cover. The batch is a slice, so the kernels
        /// read at an offset.
        #[test]
        fn batch_tri_matches_eval_bool(seed in 0u64..u64::MAX) {
            use crate::batch::Batch;
            let mut g = Gen(seed);
            let n = 1 + g.below(80) as usize;
            let cols: Vec<Column> = (0..5)
                .map(|kind| Column::from_values((0..n).map(|_| kernel_value(&mut g, kind)).collect()))
                .collect();
            let attrs = (0..5).map(|i| crate::schema::Attr::new(format!("K{i}"), Type::Int)).collect();
            let numeric: Vec<bool> = cols
                .iter()
                .map(|c| matches!(c, Column::Int { .. } | Column::Date { .. } | Column::Double { .. }))
                .collect();
            let from = g.below(n as u64) as usize;
            let batch = Batch::from_columns(Arc::new(Schema::new(attrs)), cols)
                .slice(from, n - from);
            let depth = 1 + g.below(3) as u32;
            let (p, covered) = kernel_pred(&mut g, depth, &numeric);
            let tri = p.eval_batch_tri(&batch);
            proptest::prop_assert_eq!(tri.is_some(), covered, "{} (case seed {:#x})", p, seed);
            for (r, t) in tri.iter().flatten().enumerate() {
                let row = batch.tuple_at(r);
                let want = match p.eval_bool(&row).unwrap() {
                    Some(true) => 1,
                    Some(false) => 0,
                    None => 2,
                };
                proptest::prop_assert_eq!(*t, want, "{} over {:?} (case seed {:#x})", p, row, seed);
            }
        }
    }

    /// The evaluator before operands were lent: every operand is cloned
    /// into a `Value` and every predicate round-trips through one.
    fn reference_eval(e: &Expr, t: &Tuple) -> Result<Value> {
        match e {
            Expr::Col { name, index } => match index {
                Some(i) => Ok(t[*i].clone()),
                None => Err(AlgebraError::Unbound(name.clone())),
            },
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, l, r) => {
                let lv = reference_eval(l, t)?;
                let rv = reference_eval(r, t)?;
                Ok(match lv.sql_cmp(&rv) {
                    Some(o) => Value::Int(op.eval(o) as i64),
                    None => Value::Null,
                })
            }
            Expr::And(l, r) => {
                let a = reference_eval_bool(l, t)?;
                let b = reference_eval_bool(r, t)?;
                Ok(tvl(match (a, b) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }))
            }
            Expr::Or(l, r) => {
                let a = reference_eval_bool(l, t)?;
                let b = reference_eval_bool(r, t)?;
                Ok(tvl(match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }))
            }
            Expr::Not(e) => Ok(tvl(reference_eval_bool(e, t)?.map(|b| !b))),
            Expr::Arith(op, l, r) => {
                let lv = reference_eval(l, t)?;
                let rv = reference_eval(r, t)?;
                match op {
                    ArithOp::Add => lv.add(&rv),
                    ArithOp::Sub => lv.sub(&rv),
                    ArithOp::Mul => lv.mul(&rv),
                    ArithOp::Div => lv.div(&rv),
                }
            }
            Expr::Greatest(es) | Expr::Least(es) => {
                let want =
                    if matches!(e, Expr::Greatest(_)) { Ordering::Greater } else { Ordering::Less };
                let mut best: Option<Value> = None;
                for e in es {
                    let v = reference_eval(e, t)?;
                    if v.is_null() {
                        return Ok(Value::Null);
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            if v.sql_cmp(&b) == Some(want) {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                Ok(best.unwrap_or(Value::Null))
            }
            Expr::IsNull(e, negated) => {
                let v = reference_eval(e, t)?;
                Ok(Value::Int((v.is_null() != *negated) as i64))
            }
        }
    }

    fn reference_eval_bool(e: &Expr, t: &Tuple) -> Result<Option<bool>> {
        Ok(match reference_eval(e, t)? {
            Value::Null => None,
            Value::Int(i) => Some(i != 0),
            Value::Double(d) => Some(d != 0.0),
            _ => None,
        })
    }

    /// A splitmix64 stream: one generated case per seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// `Null`, `Int`, `Double`, `Date` or `Str`, over few distinct
        /// values so that comparisons often tie.
        fn value(&mut self) -> Value {
            let k = self.below(5) as i64 - 2;
            match self.below(5) {
                0 => Value::Null,
                1 => Value::Int(k),
                2 => Value::Double(k as f64 / 2.0),
                3 => Value::Date(k as i32),
                _ => Value::Str(["", "a", "b", "ab", "b"][(k + 2) as usize].into()),
            }
        }

        /// A column of the five-column tuple (now and then left unbound),
        /// or a literal.
        fn leaf(&mut self) -> Expr {
            match self.below(12) {
                0 => Expr::col(format!("U{}", self.below(3))),
                1..=6 => {
                    let i = self.below(5) as usize;
                    Expr::Col { name: format!("C{i}"), index: Some(i) }
                }
                _ => Expr::Lit(self.value()),
            }
        }

        /// Comparisons of every operand shape, nested `AND` / `OR` /
        /// `NOT`, `IS [NOT] NULL`, arithmetic and `GREATEST` / `LEAST`.
        fn expr(&mut self, depth: u32) -> Expr {
            if depth == 0 {
                return self.leaf();
            }
            let sub = |g: &mut Gen| {
                if g.below(3) == 0 {
                    g.expr(depth - 1)
                } else {
                    g.leaf()
                }
            };
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                [self.below(6) as usize];
            match self.below(9) {
                0 | 1 => Expr::cmp(op, sub(self), sub(self)),
                2 => Expr::and(self.expr(depth - 1), self.expr(depth - 1)),
                3 => Expr::or(self.expr(depth - 1), self.expr(depth - 1)),
                4 => Expr::not(self.expr(depth - 1)),
                5 => Expr::IsNull(Box::new(sub(self)), self.below(2) == 0),
                6 => {
                    let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]
                        [self.below(4) as usize];
                    Expr::Arith(op, Box::new(sub(self)), Box::new(sub(self)))
                }
                k => {
                    let es = (0..1 + self.below(3)).map(|_| sub(self)).collect();
                    if k == 7 {
                        Expr::Greatest(es)
                    } else {
                        Expr::Least(es)
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 512, ..Default::default() })]

        /// The lending evaluator returns exactly what the cloning one
        /// returned — the same value, or the same error — for every
        /// expression shape over tuples that mix all five value kinds.
        #[test]
        fn lent_operands_evaluate_like_cloned_ones(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let depth = 1 + g.below(3) as u32;
            let e = g.expr(depth);
            for _ in 0..4 {
                let t = Tuple::new((0..5).map(|_| g.value()).collect());
                let shown = |r: &dyn fmt::Debug| format!("{r:?}");
                assert_eq!(
                    shown(&e.eval(&t)),
                    shown(&reference_eval(&e, &t)),
                    "eval of {e} over {t:?} (case seed {seed:#x})"
                );
                assert_eq!(
                    shown(&e.eval_bool(&t)),
                    shown(&reference_eval_bool(&e, &t)),
                    "eval_bool of {e} over {t:?} (case seed {seed:#x})"
                );
            }
        }
    }

    /// The generator reaches what the property must cover: every error
    /// kind an evaluation can raise, and every three-valued outcome.
    #[test]
    fn the_evaluator_generator_reaches_errors_and_all_three_truth_values() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..2_000u64 {
            let mut g = Gen(seed);
            let e = g.expr(2);
            let t = Tuple::new((0..5).map(|_| g.value()).collect());
            seen.insert(match e.eval_bool(&t) {
                Ok(b) => format!("{b:?}"),
                Err(err) => format!("{:?}", std::mem::discriminant(&err)),
            });
        }
        assert_eq!(seen.len(), 5, "{seen:?}"); // TRUE, FALSE, UNKNOWN, TypeMismatch, Unbound
    }
}
