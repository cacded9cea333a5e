//! Physical machinery: evaluation sites, physical properties, the logical
//! operator payload for the memo, and the physical algorithm inventory.
//!
//! The key design move (mirroring the paper): **where an operation runs
//! is a physical property**. Required properties are pairs *(site,
//! ordering)*; the transfer algorithms `TRANSFER^M` / `TRANSFER^D` are
//! the *enforcers* of the site property exactly as `SORT^M` / `SORT^D`
//! enforce orderings. This is how the optimizer "divides the processing
//! between the middleware and the DBMS ... by appropriately inserting
//! transfer operations into query plans" (Section 2.1), and it subsumes
//! rules T1–T3 and T7–T8 structurally: a `T^M(T^D(r))` pair can never
//! appear in a winning plan because enforcers are only inserted when the
//! site actually changes.

use std::sync::Arc;
use tango_algebra::logical::{concat_schemas, taggr_schema, tjoin_schema};
use tango_algebra::{AggSpec, Expr, Logical, ProjItem, Schema, SortSpec};

/// Where a plan fragment is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Inside the DBMS (fragment becomes generated SQL).
    Dbms,
    /// Inside the middleware (fragment becomes XXL cursors).
    Middleware,
}

/// Required physical properties: evaluation site plus ordering. The
/// empty ordering means "any order".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Req {
    /// Required evaluation site.
    pub site: Site,
    /// Required ordering (empty = any).
    pub order: SortSpec,
}

impl Req {
    /// Middleware site with the given ordering.
    pub fn mid(order: SortSpec) -> Req {
        Req { site: Site::Middleware, order }
    }

    /// DBMS site with the given ordering.
    pub fn dbms(order: SortSpec) -> Req {
        Req { site: Site::Dbms, order }
    }

    /// The given site, any ordering.
    pub fn any(site: Site) -> Req {
        Req { site, order: SortSpec::none() }
    }
}

/// The logical operator payload stored in memo expressions. Children
/// live in the memo; note the absence of `Sort` and the transfers — both
/// are physical-property concerns (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TOp {
    /// Base-relation access.
    Get {
        /// The table name.
        table: String,
    },
    /// Selection.
    Select {
        /// The predicate.
        pred: Expr,
    },
    /// Generalized projection.
    Project {
        /// Output expressions with aliases.
        items: Vec<ProjItem>,
    },
    /// Regular equi join.
    Join {
        /// Join-attribute pairs (left, right).
        eq: Vec<(String, String)>,
    },
    /// Temporal equi join (plus period overlap).
    TJoin {
        /// Join-attribute pairs (left, right).
        eq: Vec<(String, String)>,
    },
    /// Cartesian product.
    Product,
    /// Temporal aggregation.
    TAggr {
        /// Grouping attributes.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Duplicate elimination.
    DupElim,
    /// Temporal coalescing.
    Coalesce,
    /// Temporal difference.
    Diff,
}

impl TOp {
    /// The [`Logical`] node applying this operator to `inputs`, in
    /// argument order. A missing input becomes a placeholder `Get` — the
    /// statistics derivation dispatches on the operator's shape alone and
    /// passes none.
    pub fn logical(self, inputs: Vec<Logical>) -> Logical {
        let mut inputs = inputs.into_iter();
        let mut next = || Box::new(inputs.next().unwrap_or(Logical::Get { table: String::new() }));
        match self {
            TOp::Get { table } => Logical::Get { table },
            TOp::Select { pred } => Logical::Select { pred, input: next() },
            TOp::Project { items } => Logical::Project { items, input: next() },
            TOp::Join { eq } => Logical::Join { eq, left: next(), right: next() },
            TOp::TJoin { eq } => Logical::TJoin { eq, left: next(), right: next() },
            TOp::Product => Logical::Product { left: next(), right: next() },
            TOp::TAggr { group_by, aggs } => Logical::TAggr { group_by, aggs, input: next() },
            TOp::DupElim => Logical::DupElim { input: next() },
            TOp::Coalesce => Logical::Coalesce { input: next() },
            TOp::Diff => Logical::Diff { left: next(), right: next() },
        }
    }

    /// The generic DBMS algorithm evaluating this operator — the inverse
    /// of [`Algo::op`] on the DBMS side. Coalescing and temporal
    /// difference have no SQL implementation in the generic dialect.
    pub fn dbms_algo(&self) -> Option<Algo> {
        Some(match self {
            TOp::Get { table } => Algo::ScanD(table.clone()),
            TOp::Select { pred } => Algo::FilterD(pred.clone()),
            TOp::Project { items } => Algo::ProjectD(items.clone()),
            TOp::Join { eq } => Algo::JoinD(eq.clone()),
            TOp::TJoin { eq } => Algo::TJoinD(eq.clone()),
            TOp::Product => Algo::ProductD,
            TOp::TAggr { group_by, aggs } => {
                Algo::TAggrD { group_by: group_by.clone(), aggs: aggs.clone() }
            }
            TOp::DupElim => Algo::DupElimD,
            TOp::Coalesce | TOp::Diff => return None,
        })
    }

    /// Output schema given child schemas; `table_schema` resolves `Get`.
    pub fn output_schema(
        &self,
        children: &[&Schema],
        table_schema: &dyn Fn(&str) -> Option<Schema>,
    ) -> tango_algebra::Result<Schema> {
        use tango_algebra::AlgebraError;
        Ok(match self {
            TOp::Get { table } => table_schema(table)
                .ok_or_else(|| AlgebraError::Schema(format!("unknown table {table}")))?,
            TOp::Select { .. } | TOp::DupElim | TOp::Coalesce => children[0].clone(),
            TOp::Diff => children[0].clone(),
            TOp::Project { items } => {
                let mut attrs = Vec::with_capacity(items.len());
                for it in items {
                    let ty = tango_algebra::logical::infer_type(&it.expr, children[0])?;
                    attrs.push(tango_algebra::Attr::new(it.alias.clone(), ty));
                }
                Schema::with_inferred_period(attrs)
            }
            TOp::Join { .. } | TOp::Product => concat_schemas(children[0], children[1]),
            TOp::TJoin { eq } => tjoin_schema(eq, children[0], children[1])?,
            TOp::TAggr { group_by, aggs } => taggr_schema(group_by, aggs, children[0])?,
        })
    }
}

/// Physical algorithms. Superscript convention from the paper:
/// `...M` runs in the middleware, `...D` in the DBMS.
#[derive(Debug, Clone, PartialEq)]
pub enum Algo {
    // -- middleware algorithms (tango-xxl cursors) --
    /// Middleware selection.
    FilterM(Expr),
    /// Middleware generalized projection.
    ProjectM(Vec<ProjItem>),
    /// Middleware in-memory sort.
    SortM(SortSpec),
    /// Middleware external merge sort; the second field is the run size
    /// in rows, derived from the middleware sort-memory budget.
    SortXM(SortSpec, usize),
    /// Middleware sort-merge equi join.
    MergeJoinM(Vec<(String, String)>),
    /// Middleware sort-merge temporal join.
    TMergeJoinM(Vec<(String, String)>),
    /// Middleware temporal aggregation.
    TAggrM {
        /// Grouping attributes.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Middleware duplicate elimination.
    DupElimM,
    /// Middleware temporal coalescing.
    CoalesceM,
    /// Middleware temporal difference.
    TDiffM,
    /// DBMS → middleware: issues a SELECT (Figure 5's `TRANSFER^M`).
    TransferM,
    /// Middleware scan over a mid-query materialized intermediate (the
    /// already-drained output of a pipeline breaker, by name). In a final
    /// executed plan the consumed breaker subtree is kept as this node's
    /// child for EXPLAIN ANALYZE; during re-optimization the node is a
    /// leaf.
    MatScanM(String),
    /// middleware → DBMS: CREATE TABLE + direct-path load (`TRANSFER^D`).
    TransferD,
    // -- generic DBMS algorithms (become SQL via the Translator) --
    /// DBMS base-table scan.
    ScanD(String),
    /// DBMS selection (a `WHERE` clause).
    FilterD(Expr),
    /// DBMS projection (a `SELECT` list).
    ProjectD(Vec<ProjItem>),
    /// DBMS sort (an `ORDER BY`).
    SortD(SortSpec),
    /// DBMS equi join.
    JoinD(Vec<(String, String)>),
    /// DBMS temporal join (equi join plus period predicates).
    TJoinD(Vec<(String, String)>),
    /// DBMS Cartesian product.
    ProductD,
    /// DBMS temporal aggregation (the paper's generated-SQL variant).
    TAggrD {
        /// Grouping attributes.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// DBMS duplicate elimination (`SELECT DISTINCT`).
    DupElimD,
}

impl Algo {
    /// Where this algorithm runs.
    pub fn site(&self) -> Site {
        match self {
            Algo::FilterM(_)
            | Algo::ProjectM(_)
            | Algo::SortM(_)
            | Algo::SortXM(..)
            | Algo::MergeJoinM(_)
            | Algo::TMergeJoinM(_)
            | Algo::TAggrM { .. }
            | Algo::DupElimM
            | Algo::CoalesceM
            | Algo::TDiffM
            | Algo::TransferM
            | Algo::MatScanM(_) => Site::Middleware,
            Algo::TransferD
            | Algo::ScanD(_)
            | Algo::FilterD(_)
            | Algo::ProjectD(_)
            | Algo::SortD(_)
            | Algo::JoinD(_)
            | Algo::TJoinD(_)
            | Algo::ProductD
            | Algo::TAggrD { .. }
            | Algo::DupElimD => Site::Dbms,
        }
    }

    /// The logical operator this algorithm evaluates — the one table
    /// tying the physical inventory back to the memo's operators. Sorts
    /// and transfers are property enforcers and evaluate none; both scans
    /// are a `Get`.
    pub fn op(&self) -> Option<TOp> {
        Some(match self {
            Algo::SortM(_) | Algo::SortXM(..) | Algo::SortD(_) => return None,
            Algo::TransferM | Algo::TransferD => return None,
            Algo::ScanD(table) | Algo::MatScanM(table) => TOp::Get { table: table.clone() },
            Algo::FilterM(pred) | Algo::FilterD(pred) => TOp::Select { pred: pred.clone() },
            Algo::ProjectM(items) | Algo::ProjectD(items) => TOp::Project { items: items.clone() },
            Algo::MergeJoinM(eq) | Algo::JoinD(eq) => TOp::Join { eq: eq.clone() },
            Algo::TMergeJoinM(eq) | Algo::TJoinD(eq) => TOp::TJoin { eq: eq.clone() },
            Algo::ProductD => TOp::Product,
            Algo::TAggrM { group_by, aggs } | Algo::TAggrD { group_by, aggs } => {
                TOp::TAggr { group_by: group_by.clone(), aggs: aggs.clone() }
            }
            Algo::DupElimM | Algo::DupElimD => TOp::DupElim,
            Algo::CoalesceM => TOp::Coalesce,
            Algo::TDiffM => TOp::Diff,
        })
    }

    /// Display name matching the paper's superscript notation.
    pub fn label(&self) -> String {
        match self {
            Algo::FilterM(_) => "FILTER^M".into(),
            Algo::ProjectM(_) => "PROJECT^M".into(),
            Algo::SortM(s) => format!("SORT^M [{s}]"),
            Algo::SortXM(s, _) => format!("XSORT^M [{s}]"),
            Algo::MergeJoinM(_) => "MERGEJOIN^M".into(),
            Algo::TMergeJoinM(_) => "TMERGEJOIN^M".into(),
            Algo::TAggrM { .. } => "TAGGR^M".into(),
            Algo::DupElimM => "DUPELIM^M".into(),
            Algo::CoalesceM => "COALESCE^M".into(),
            Algo::TDiffM => "TDIFF^M".into(),
            Algo::TransferM => "TRANSFER^M".into(),
            Algo::MatScanM(name) => format!("MATSCAN^M {name}"),
            Algo::TransferD => "TRANSFER^D".into(),
            Algo::ScanD(t) => format!("SCAN^D {t}"),
            Algo::FilterD(_) => "FILTER^D".into(),
            Algo::ProjectD(_) => "PROJECT^D".into(),
            Algo::SortD(s) => format!("SORT^D [{s}]"),
            Algo::JoinD(_) => "JOIN^D".into(),
            Algo::TJoinD(_) => "TJOIN^D".into(),
            Algo::ProductD => "PRODUCT^D".into(),
            Algo::TAggrD { .. } => "TAGGR^D".into(),
            Algo::DupElimD => "DUPELIM^D".into(),
        }
    }

    /// Output schema given child schemas.
    pub fn output_schema(&self, children: &[&Schema]) -> tango_algebra::Result<Schema> {
        Ok(match self {
            Algo::FilterM(_)
            | Algo::FilterD(_)
            | Algo::SortM(_)
            | Algo::SortXM(..)
            | Algo::SortD(_)
            | Algo::DupElimM
            | Algo::DupElimD
            | Algo::CoalesceM
            | Algo::TransferM
            | Algo::TransferD => children[0].clone(),
            Algo::TDiffM => children[0].clone(),
            Algo::ProjectM(items) | Algo::ProjectD(items) => {
                TOp::Project { items: items.clone() }.output_schema(children, &|_| None)?
            }
            Algo::MergeJoinM(_) | Algo::JoinD(_) | Algo::ProductD => {
                concat_schemas(children[0], children[1])
            }
            Algo::TMergeJoinM(eq) | Algo::TJoinD(eq) => tjoin_schema(eq, children[0], children[1])?,
            Algo::TAggrM { group_by, aggs } | Algo::TAggrD { group_by, aggs } => {
                taggr_schema(group_by, aggs, children[0])?
            }
            Algo::ScanD(_) => {
                return Err(tango_algebra::AlgebraError::Schema(
                    "ScanD schema must come from the catalog".into(),
                ))
            }
            Algo::MatScanM(name) => match children.first() {
                Some(c) => (*c).clone(),
                None => {
                    return Err(tango_algebra::AlgebraError::Schema(format!(
                        "MatScanM {name} schema must come from the materialized relation"
                    )))
                }
            },
        })
    }
}

/// A physical plan annotated with per-node output schemas — the form the
/// engine lowers into executable steps.
#[derive(Debug, Clone)]
pub struct PhysNode {
    /// The algorithm at this node.
    pub algo: Algo,
    /// The node's output schema.
    pub schema: Arc<Schema>,
    /// Input plans, in argument order.
    pub children: Vec<PhysNode>,
}

impl PhysNode {
    /// Render the plan like Figure 7/9 of the paper.
    pub fn render(&self) -> String {
        fn go(n: &PhysNode, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&n.algo.label());
            match &n.algo {
                Algo::FilterM(p) | Algo::FilterD(p) => {
                    out.push_str(&format!(" [{p}]"));
                }
                Algo::TAggrM { group_by, aggs } | Algo::TAggrD { group_by, aggs } => {
                    let a: Vec<String> = aggs.iter().map(ToString::to_string).collect();
                    out.push_str(&format!(" [group by {}; {}]", group_by.join(", "), a.join(", ")));
                }
                Algo::MergeJoinM(eq)
                | Algo::TMergeJoinM(eq)
                | Algo::JoinD(eq)
                | Algo::TJoinD(eq) => {
                    let c: Vec<String> = eq.iter().map(|(l, r)| format!("{l}={r}")).collect();
                    out.push_str(&format!(" [{}]", c.join(" AND ")));
                }
                _ => {}
            }
            out.push('\n');
            for c in &n.children {
                go(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }

    /// The logical tree this plan evaluates: enforcers (sorts, transfers)
    /// vanish, and a `MATSCAN^M` is a `Get` of its materialization
    /// whatever consumed subtree it keeps for rendering.
    pub fn logical(&self) -> Logical {
        match self.algo.op() {
            None => self.children[0].logical(),
            Some(op @ TOp::Get { .. }) => op.logical(vec![]),
            Some(op) => op.logical(self.children.iter().map(PhysNode::logical).collect()),
        }
    }

    /// Number of nodes in this plan (pre-order size).
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(PhysNode::node_count).sum::<usize>()
    }

    /// Does any node in this plan satisfy the predicate?
    pub fn any(&self, f: &dyn Fn(&Algo) -> bool) -> bool {
        f(&self.algo) || self.children.iter().any(|c| c.any(f))
    }
}
