//! The logical algebra: its operators ([`TOp`]) and trees of them
//! ([`Logical`]).
//!
//! This is the one algebra the temporal-SQL parser produces, the rewrite
//! packs and the statistics derivation read, and the optimizer's memo
//! stores. Operators carry *names*, not resolved indices; binding to
//! physical schemas happens when plans are lowered to algorithms or
//! translated to SQL.
//!
//! Operator inventory (paper Sections 2–4), all variants of [`TOp`]:
//! `Get` (base relation), `Select` (σ), `Project` (π), `Join` (⋈), `TJoin`
//! (⋈ᵀ, temporal join intersecting periods), `Product` (×), `TAggr` (ξᵀ,
//! temporal aggregation), plus the extension operators the paper lists as
//! candidates (`DupElim`, `Coalesce`, `Diff`). A [`Logical`] tree
//! additionally has `Sort` and the two transfer operators `TransferM`
//! (T^M) and `TransferD` (T^D).

use crate::error::{AlgebraError, Result};
use crate::expr::Expr;
use crate::order::SortSpec;
use crate::schema::{Attr, Schema};
use crate::value::Type;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A projection item: an expression plus its output name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProjItem {
    pub expr: Expr,
    pub alias: String,
}

impl ProjItem {
    pub fn col(name: impl Into<String>) -> Self {
        let name = name.into();
        let alias = name.rsplit('.').next().unwrap_or(&name).to_string();
        ProjItem { expr: Expr::col(name), alias }
    }

    pub fn named(expr: Expr, alias: impl Into<String>) -> Self {
        ProjItem { expr, alias: alias.into() }
    }
}

/// Aggregate functions supported by temporal aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn sql(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// One aggregate specification: function, argument column (`None` means
/// `COUNT(*)`), output alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AggSpec {
    pub func: AggFunc,
    pub arg: Option<String>,
    pub alias: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, arg: Option<&str>, alias: &str) -> Self {
        AggSpec { func, arg: arg.map(str::to_string), alias: alias.to_string() }
    }

    pub fn count_star(alias: &str) -> Self {
        AggSpec::new(AggFunc::Count, None, alias)
    }
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "{}({a}) AS {}", self.func.sql(), self.alias),
            None => write!(f, "{}(*) AS {}", self.func.sql(), self.alias),
        }
    }
}

/// One operator of the algebra, without its inputs: what a [`Logical`]
/// tree applies at each node and what the optimizer's memo stores per
/// class element (there the inputs are classes). `Sort` and the transfers
/// are absent — order and evaluation site are physical properties, so a
/// value of this type cannot be either.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TOp {
    /// Base relation stored in the DBMS.
    Get { table: String },
    /// σ_pred
    Select { pred: Expr },
    /// π_items
    Project { items: Vec<ProjItem> },
    /// Equi-join ⋈ on `eq` column pairs (left, right).
    Join { eq: Vec<(String, String)> },
    /// Temporal join ⋈ᵀ: equi-join plus period overlap; the output period
    /// is the intersection.
    TJoin { eq: Vec<(String, String)> },
    /// Cartesian product ×.
    Product,
    /// Temporal aggregation ξᵀ.
    TAggr { group_by: Vec<String>, aggs: Vec<AggSpec> },
    /// Duplicate elimination (extension operator).
    DupElim,
    /// Temporal coalescing (extension operator).
    Coalesce,
    /// Multiset difference (extension operator).
    Diff,
}

impl TOp {
    /// Hand `f` every expression the operator carries (a selection's
    /// predicate, a projection's items), for rewriting in place.
    pub fn visit_exprs_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            TOp::Select { pred } => f(pred),
            TOp::Project { items } => items.iter_mut().for_each(|it| f(&mut it.expr)),
            _ => {}
        }
    }

    /// Output schema given child schemas; `table_schema` resolves `Get`.
    pub fn output_schema(
        &self,
        children: &[&Schema],
        table_schema: &dyn Fn(&str) -> Option<Schema>,
    ) -> Result<Schema> {
        let child = |i: usize| {
            children
                .get(i)
                .copied()
                .ok_or_else(|| AlgebraError::Schema(format!("{self:?} lacks input {i}")))
        };
        Ok(match self {
            TOp::Get { table } => table_schema(table)
                .ok_or_else(|| AlgebraError::Schema(format!("unknown table {table}")))?,
            TOp::Select { .. } | TOp::DupElim | TOp::Coalesce | TOp::Diff => child(0)?.clone(),
            TOp::Project { items } => {
                let mut attrs = Vec::with_capacity(items.len());
                for it in items {
                    let ty = infer_type(&it.expr, child(0)?)?;
                    attrs.push(Attr::new(it.alias.clone(), ty));
                }
                Schema::with_inferred_period(attrs)
            }
            TOp::Join { .. } | TOp::Product => concat_schemas(child(0)?, child(1)?),
            TOp::TJoin { eq } => tjoin_schema(eq, child(0)?, child(1)?)?,
            TOp::TAggr { group_by, aggs } => taggr_schema(group_by, aggs, child(0)?)?,
        })
    }
}

/// The logical operator tree: operators applied to input trees, plus the
/// three nodes that state a physical property (an explicit sort, the two
/// transfers) and that the optimizer turns into requirements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Logical {
    /// `op` applied to `inputs`, in argument order.
    Apply { op: TOp, inputs: Vec<Logical> },
    /// Explicit sort (list-producing).
    Sort { keys: SortSpec, input: Box<Logical> },
    /// T^M: move the relation from the DBMS to the middleware.
    TransferM { input: Box<Logical> },
    /// T^D: move the relation from the middleware into the DBMS.
    TransferD { input: Box<Logical> },
}

impl Logical {
    pub fn get(table: impl Into<String>) -> Logical {
        Logical::Apply { op: TOp::Get { table: table.into() }, inputs: vec![] }
    }

    pub fn select(self, pred: Expr) -> Logical {
        Logical::Apply { op: TOp::Select { pred }, inputs: vec![self] }
    }

    pub fn project(self, items: Vec<ProjItem>) -> Logical {
        Logical::Apply { op: TOp::Project { items }, inputs: vec![self] }
    }

    pub fn sort(self, keys: SortSpec) -> Logical {
        Logical::Sort { keys, input: Box::new(self) }
    }

    pub fn join(self, other: Logical, eq: Vec<(String, String)>) -> Logical {
        Logical::Apply { op: TOp::Join { eq }, inputs: vec![self, other] }
    }

    pub fn tjoin(self, other: Logical, eq: Vec<(String, String)>) -> Logical {
        Logical::Apply { op: TOp::TJoin { eq }, inputs: vec![self, other] }
    }

    pub fn taggr(self, group_by: Vec<String>, aggs: Vec<AggSpec>) -> Logical {
        Logical::Apply { op: TOp::TAggr { group_by, aggs }, inputs: vec![self] }
    }

    pub fn transfer_m(self) -> Logical {
        Logical::TransferM { input: Box::new(self) }
    }

    pub fn transfer_d(self) -> Logical {
        Logical::TransferD { input: Box::new(self) }
    }

    pub fn children(&self) -> &[Logical] {
        match self {
            Logical::Apply { inputs, .. } => inputs,
            Logical::Sort { input, .. }
            | Logical::TransferM { input }
            | Logical::TransferD { input } => std::slice::from_ref(input),
        }
    }

    /// Derive the output schema ([`TOp::output_schema`] folded over the
    /// tree); `table_schema` resolves base relations.
    pub fn output_schema(&self, table_schema: &dyn Fn(&str) -> Option<Schema>) -> Result<Schema> {
        match self {
            Logical::Apply { op, inputs } => {
                let inputs: Vec<Schema> =
                    inputs.iter().map(|i| i.output_schema(table_schema)).collect::<Result<_>>()?;
                op.output_schema(&inputs.iter().collect::<Vec<_>>(), table_schema)
            }
            Logical::Sort { input, .. }
            | Logical::TransferM { input }
            | Logical::TransferD { input } => input.output_schema(table_schema),
        }
    }
}

/// Infer the result type of an expression over a schema.
pub fn infer_type(e: &Expr, schema: &Schema) -> Result<Type> {
    Ok(match e {
        Expr::Col { name, .. } => schema.attr(schema.index_of(name)?).ty,
        Expr::Lit(v) => v.ty().unwrap_or(Type::Int),
        Expr::Cmp(..) | Expr::IsNull(..) => Type::Int,
        Expr::And(..) | Expr::Or(..) | Expr::Not(..) => Type::Int,
        Expr::Arith(_, l, r) => {
            let lt = infer_type(l, schema)?;
            let rt = infer_type(r, schema)?;
            match (lt, rt) {
                (Type::Date, _) | (_, Type::Date) => Type::Date,
                (Type::Double, _) | (_, Type::Double) => Type::Double,
                (Type::Int, Type::Int) => Type::Int,
                _ => {
                    return Err(AlgebraError::TypeMismatch(format!(
                        "arithmetic over {lt} and {rt}"
                    )))
                }
            }
        }
        Expr::Greatest(es) | Expr::Least(es) => {
            let first = es
                .first()
                .ok_or_else(|| AlgebraError::TypeMismatch("empty GREATEST/LEAST".into()))?;
            infer_type(first, schema)?
        }
    })
}

/// Concatenate two schemas (join/product output), renaming clashing names
/// with a `_2` suffix so the result stays unambiguous.
pub fn concat_schemas(l: &Schema, r: &Schema) -> Schema {
    let mut attrs: Vec<Attr> = l.attrs().to_vec();
    for a in r.attrs() {
        let clash = attrs.iter().any(|b| b.name.eq_ignore_ascii_case(&a.name));
        let name = if clash { format!("{}_2", a.name) } else { a.name.clone() };
        attrs.push(Attr::new(name, a.ty));
    }
    Schema::with_inferred_period(attrs)
}

/// Temporal join output schema: left non-period attributes, right
/// non-period attributes minus its equi-join columns, then `T1`/`T2`
/// (the intersected period). Matches the SQL of Figure 5.
pub fn tjoin_schema(eq: &[(String, String)], l: &Schema, r: &Schema) -> Result<Schema> {
    let (lt1, lt2) = l
        .period()
        .ok_or_else(|| AlgebraError::Schema("temporal join over non-temporal left input".into()))?;
    let (rt1, rt2) = r.period().ok_or_else(|| {
        AlgebraError::Schema("temporal join over non-temporal right input".into())
    })?;
    let mut attrs = Vec::new();
    for (i, a) in l.attrs().iter().enumerate() {
        if i != lt1 && i != lt2 {
            attrs.push(a.clone());
        }
    }
    for (i, a) in r.attrs().iter().enumerate() {
        if i == rt1 || i == rt2 {
            continue;
        }
        let is_join_col = eq.iter().any(|(_, rc)| r.index_of(rc).map(|j| j == i).unwrap_or(false));
        if is_join_col {
            continue;
        }
        let clash = attrs.iter().any(|b| b.name.eq_ignore_ascii_case(&a.name));
        let name = if clash { format!("{}_2", a.name) } else { a.name.clone() };
        attrs.push(Attr::new(name, a.ty));
    }
    let t_ty = l.attr(lt1).ty;
    attrs.push(Attr::new("T1", t_ty));
    attrs.push(Attr::new("T2", t_ty));
    Schema::temporal(attrs, "T1", "T2")
}

/// Temporal aggregation output schema: grouping attributes, `T1`, `T2`,
/// then the aggregate aliases (the shape of Figure 3(c)).
pub fn taggr_schema(group_by: &[String], aggs: &[AggSpec], input: &Schema) -> Result<Schema> {
    let (t1, _) = input.period().ok_or_else(|| {
        AlgebraError::Schema("temporal aggregation over non-temporal input".into())
    })?;
    let mut attrs = Vec::new();
    for g in group_by {
        let i = input.index_of(g)?;
        attrs.push(Attr::new(input.attr(i).bare_name().to_string(), input.attr(i).ty));
    }
    let t_ty = input.attr(t1).ty;
    attrs.push(Attr::new("T1", t_ty));
    attrs.push(Attr::new("T2", t_ty));
    for a in aggs {
        let ty = match a.func {
            AggFunc::Count => Type::Int,
            AggFunc::Avg => Type::Double,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => match &a.arg {
                Some(c) => input.attr(input.index_of(c)?).ty,
                None => Type::Int,
            },
        };
        attrs.push(Attr::new(a.alias.clone(), ty));
    }
    Schema::temporal(attrs, "T1", "T2")
}

/// The operator's name and bracketed parameters: its line of a plan
/// display.
impl fmt::Display for TOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TOp::Get { table } => write!(f, "GET {table}"),
            TOp::Select { pred } => write!(f, "SELECT [{pred}]"),
            TOp::Project { items } => {
                let cols: Vec<String> = items
                    .iter()
                    .map(|i| {
                        if matches!(&i.expr, Expr::Col { name, .. } if name.rsplit('.').next() == Some(i.alias.as_str()) || name == &i.alias)
                        {
                            i.alias.clone()
                        } else {
                            format!("{} AS {}", i.expr, i.alias)
                        }
                    })
                    .collect();
                write!(f, "PROJECT [{}]", cols.join(", "))
            }
            TOp::Join { eq } | TOp::TJoin { eq } => {
                let name = if matches!(self, TOp::Join { .. }) { "JOIN" } else { "TJOIN" };
                let conds: Vec<String> = eq.iter().map(|(l, r)| format!("{l}={r}")).collect();
                write!(f, "{name} [{}]", conds.join(" AND "))
            }
            TOp::Product => f.write_str("PRODUCT"),
            TOp::TAggr { group_by, aggs } => {
                let a: Vec<String> = aggs.iter().map(ToString::to_string).collect();
                write!(f, "TAGGR [group by {}; {}]", group_by.join(", "), a.join(", "))
            }
            TOp::DupElim => f.write_str("DUPELIM"),
            TOp::Coalesce => f.write_str("COALESCE"),
            TOp::Diff => f.write_str("DIFF"),
        }
    }
}

impl fmt::Display for Logical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(node: &Logical, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            let pad = "  ".repeat(depth);
            match node {
                Logical::Apply { op, .. } => writeln!(f, "{pad}{op}")?,
                Logical::Sort { keys, .. } => writeln!(f, "{pad}SORT [{keys}]")?,
                Logical::TransferM { .. } => writeln!(f, "{pad}T^M")?,
                Logical::TransferD { .. } => writeln!(f, "{pad}T^D")?,
            }
            node.children().iter().try_for_each(|c| go(c, f, depth + 1))
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> impl Fn(&str) -> Option<Schema> {
        let pos = Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpName", Type::Str),
            Attr::new("T1", Type::Date),
            Attr::new("T2", Type::Date),
        ]);
        move |name| name.eq_ignore_ascii_case("POSITION").then(|| pos.clone())
    }

    #[test]
    fn figure4_initial_plan_schema() {
        // taggr(POSITION) tjoin POSITION, as in the Section 2.2 example
        let agg = Logical::get("POSITION").taggr(
            vec!["PosID".into()],
            vec![AggSpec::new(AggFunc::Count, Some("PosID"), "COUNTofPosID")],
        );
        let s = agg.output_schema(&src()).unwrap();
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["PosID", "T1", "T2", "COUNTofPosID"]);
        assert!(s.is_temporal());

        let joined =
            agg.tjoin(Logical::get("POSITION"), vec![("PosID".to_string(), "PosID".to_string())]);
        let s = joined.output_schema(&src()).unwrap();
        // left (agg) non-period attrs, right non-period attrs minus join col, T1, T2
        assert_eq!(
            s.names().collect::<Vec<_>>(),
            vec!["PosID", "COUNTofPosID", "EmpName", "T1", "T2"]
        );
        assert!(s.is_temporal());
    }

    #[test]
    fn join_schema_renames_clashes() {
        let j = Logical::get("POSITION")
            .join(Logical::get("POSITION"), vec![("PosID".to_string(), "PosID".to_string())]);
        let s = j.output_schema(&src()).unwrap();
        assert_eq!(
            s.names().collect::<Vec<_>>(),
            vec!["PosID", "EmpName", "T1", "T2", "PosID_2", "EmpName_2", "T1_2", "T2_2"]
        );
    }

    #[test]
    fn project_schema_infers_types() {
        let p = Logical::get("POSITION").project(vec![
            ProjItem::col("PosID"),
            ProjItem::named(
                Expr::Arith(
                    crate::expr::ArithOp::Sub,
                    Box::new(Expr::col("T2")),
                    Box::new(Expr::col("T1")),
                ),
                "Dur",
            ),
        ]);
        let s = p.output_schema(&src()).unwrap();
        assert_eq!(s.attr(0).ty, Type::Int);
        assert_eq!(s.attr(1).ty, Type::Date); // date arithmetic stays date-typed
        assert!(!s.is_temporal());
    }

    #[test]
    fn display_renders_tree() {
        let plan = Logical::get("POSITION")
            .taggr(vec!["PosID".into()], vec![AggSpec::count_star("C")])
            .transfer_m();
        let out = plan.to_string();
        assert!(out.contains("T^M"));
        assert!(out.contains("TAGGR"));
        assert!(out.contains("GET POSITION"));
    }
}
