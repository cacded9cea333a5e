//! The logical operator tree.
//!
//! This is the algebra the temporal-SQL parser produces and the TANGO
//! optimizer transforms. Operators carry *names*, not resolved indices;
//! binding to physical schemas happens when plans are lowered to
//! algorithms or translated to SQL.
//!
//! Operator inventory (paper Sections 2–4): `Get` (base relation),
//! `Select` (σ), `Project` (π), `Sort`, `Join` (⋈), `TJoin` (⋈ᵀ, temporal
//! join intersecting periods), `Product` (×), `TAggr` (ξᵀ, temporal
//! aggregation), plus the extension operators the paper lists as
//! candidates (`DupElim`, `Coalesce`, `Diff`) and the two transfer
//! operators `TransferM` (T^M) and `TransferD` (T^D).

use crate::error::{AlgebraError, Result};
use crate::expr::Expr;
use crate::order::SortSpec;
use crate::schema::{Attr, Schema};
use crate::value::Type;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Source of base-relation schemas (implemented by catalogs).
pub trait SchemaSource {
    fn table_schema(&self, name: &str) -> Result<Schema>;
}

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

/// The logical operator tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Logical {
    /// Base relation stored in the DBMS.
    Get { table: String },
    /// σ_pred
    Select { pred: Expr, input: Box<Logical> },
    /// π_items
    Project { items: Vec<ProjItem>, input: Box<Logical> },
    /// Explicit sort (list-producing).
    Sort { keys: SortSpec, input: Box<Logical> },
    /// Equi-join ⋈ on `eq` column pairs (left, right).
    Join { eq: Vec<(String, String)>, left: Box<Logical>, right: Box<Logical> },
    /// Temporal join ⋈ᵀ: equi-join plus period overlap; the output period
    /// is the intersection.
    TJoin { eq: Vec<(String, String)>, left: Box<Logical>, right: Box<Logical> },
    /// Cartesian product ×.
    Product { left: Box<Logical>, right: Box<Logical> },
    /// Temporal aggregation ξᵀ.
    TAggr { group_by: Vec<String>, aggs: Vec<AggSpec>, input: Box<Logical> },
    /// Duplicate elimination (extension operator).
    DupElim { input: Box<Logical> },
    /// Temporal coalescing (extension operator).
    Coalesce { input: Box<Logical> },
    /// Multiset difference (extension operator).
    Diff { left: Box<Logical>, right: Box<Logical> },
    /// T^M: move the relation from the DBMS to the middleware.
    TransferM { input: Box<Logical> },
    /// T^D: move the relation from the middleware into the DBMS.
    TransferD { input: Box<Logical> },
}

impl Logical {
    pub fn get(table: impl Into<String>) -> Logical {
        Logical::Get { table: table.into() }
    }

    pub fn select(self, pred: Expr) -> Logical {
        Logical::Select { pred, input: Box::new(self) }
    }

    pub fn project(self, items: Vec<ProjItem>) -> Logical {
        Logical::Project { items, input: Box::new(self) }
    }

    pub fn sort(self, keys: SortSpec) -> Logical {
        Logical::Sort { keys, input: Box::new(self) }
    }

    pub fn join(self, other: Logical, eq: Vec<(String, String)>) -> Logical {
        Logical::Join { eq, left: Box::new(self), right: Box::new(other) }
    }

    pub fn tjoin(self, other: Logical, eq: Vec<(String, String)>) -> Logical {
        Logical::TJoin { eq, left: Box::new(self), right: Box::new(other) }
    }

    pub fn taggr(self, group_by: Vec<String>, aggs: Vec<AggSpec>) -> Logical {
        Logical::TAggr { group_by, aggs, input: Box::new(self) }
    }

    pub fn transfer_m(self) -> Logical {
        Logical::TransferM { input: Box::new(self) }
    }

    pub fn transfer_d(self) -> Logical {
        Logical::TransferD { input: Box::new(self) }
    }

    /// A short operator name for plan displays.
    pub fn name(&self) -> &'static str {
        match self {
            Logical::Get { .. } => "GET",
            Logical::Select { .. } => "SELECT",
            Logical::Project { .. } => "PROJECT",
            Logical::Sort { .. } => "SORT",
            Logical::Join { .. } => "JOIN",
            Logical::TJoin { .. } => "TJOIN",
            Logical::Product { .. } => "PRODUCT",
            Logical::TAggr { .. } => "TAGGR",
            Logical::DupElim { .. } => "DUPELIM",
            Logical::Coalesce { .. } => "COALESCE",
            Logical::Diff { .. } => "DIFF",
            Logical::TransferM { .. } => "T^M",
            Logical::TransferD { .. } => "T^D",
        }
    }

    pub fn children(&self) -> Vec<&Logical> {
        match self {
            Logical::Get { .. } => vec![],
            Logical::Select { input, .. }
            | Logical::Project { input, .. }
            | Logical::Sort { input, .. }
            | Logical::TAggr { input, .. }
            | Logical::DupElim { input }
            | Logical::Coalesce { input }
            | Logical::TransferM { input }
            | Logical::TransferD { input } => vec![input],
            Logical::Join { left, right, .. }
            | Logical::TJoin { left, right, .. }
            | Logical::Product { left, right }
            | Logical::Diff { left, right } => vec![left, right],
        }
    }

    /// Derive the output schema, resolving base relations through `src`.
    pub fn output_schema(&self, src: &dyn SchemaSource) -> Result<Schema> {
        match self {
            Logical::Get { table } => src.table_schema(table),
            Logical::Select { input, .. }
            | Logical::Sort { input, .. }
            | Logical::DupElim { input }
            | Logical::Coalesce { input }
            | Logical::TransferM { input }
            | Logical::TransferD { input } => input.output_schema(src),
            Logical::Diff { left, .. } => left.output_schema(src),
            Logical::Project { items, input } => {
                let in_schema = input.output_schema(src)?;
                let mut attrs = Vec::with_capacity(items.len());
                for it in items {
                    let ty = infer_type(&it.expr, &in_schema)?;
                    attrs.push(Attr::new(it.alias.clone(), ty));
                }
                Ok(Schema::with_inferred_period(attrs))
            }
            Logical::Join { left, right, .. } | Logical::Product { left, right } => {
                let l = left.output_schema(src)?;
                let r = right.output_schema(src)?;
                Ok(concat_schemas(&l, &r))
            }
            Logical::TJoin { eq, left, right } => {
                let l = left.output_schema(src)?;
                let r = right.output_schema(src)?;
                tjoin_schema(eq, &l, &r)
            }
            Logical::TAggr { group_by, aggs, input } => {
                let in_schema = input.output_schema(src)?;
                taggr_schema(group_by, aggs, &in_schema)
            }
        }
    }

    /// Count operators in the tree (used in optimizer reporting).
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
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

impl fmt::Display for Logical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(op: &Logical, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            write!(f, "{}{}", "  ".repeat(depth), op.name())?;
            match op {
                Logical::Get { table } => write!(f, " {table}")?,
                Logical::Select { pred, .. } => write!(f, " [{pred}]")?,
                Logical::Project { items, .. } => {
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
                    write!(f, " [{}]", cols.join(", "))?
                }
                Logical::Sort { keys, .. } => write!(f, " [{keys}]")?,
                Logical::Join { eq, .. } | Logical::TJoin { eq, .. } => {
                    let conds: Vec<String> = eq.iter().map(|(l, r)| format!("{l}={r}")).collect();
                    write!(f, " [{}]", conds.join(" AND "))?
                }
                Logical::TAggr { group_by, aggs, .. } => {
                    let a: Vec<String> = aggs.iter().map(ToString::to_string).collect();
                    write!(f, " [group by {}; {}]", group_by.join(", "), a.join(", "))?
                }
                _ => {}
            }
            writeln!(f)?;
            for c in op.children() {
                go(c, f, depth + 1)?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct Src(HashMap<String, Schema>);

    impl SchemaSource for Src {
        fn table_schema(&self, name: &str) -> Result<Schema> {
            self.0
                .get(&name.to_uppercase())
                .cloned()
                .ok_or_else(|| AlgebraError::UnknownColumn(name.to_string()))
        }
    }

    fn src() -> Src {
        let pos = Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpName", Type::Str),
            Attr::new("T1", Type::Date),
            Attr::new("T2", Type::Date),
        ]);
        let mut m = HashMap::new();
        m.insert("POSITION".to_string(), pos);
        Src(m)
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
