//! Physical machinery: evaluation sites, physical properties and the
//! physical algorithm inventory, tied to the algebra's operators
//! ([`TOp`], which the memo stores as is).
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
use tango_algebra::{
    AggSpec, AlgebraError, Expr, Logical, ProjItem, Schema, SortKey, SortSpec, TOp,
};

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

    /// The generic DBMS algorithm evaluating `op` — the inverse of
    /// [`Algo::op`] on the DBMS side. Coalescing and temporal difference
    /// have no SQL implementation in the generic dialect.
    pub fn dbms(op: &TOp) -> Option<Algo> {
        Some(match op {
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

    /// The middleware algorithm evaluating `op` — the inverse of
    /// [`Algo::op`] on the middleware side, and heuristic group 1 as a
    /// table: exactly the operations with an efficient special-purpose
    /// middleware algorithm have one (there is no middleware Cartesian
    /// product: the DBMS handles products). A `Get` is a `MATSCAN^M`,
    /// which only a mid-query materialization can serve — base relations
    /// live in the DBMS and arrive through `TRANSFER^M`.
    pub fn mid(op: &TOp) -> Option<Algo> {
        Some(match op {
            TOp::Get { table } => Algo::MatScanM(table.clone()),
            TOp::Select { pred } => Algo::FilterM(pred.clone()),
            TOp::Project { items } => Algo::ProjectM(items.clone()),
            TOp::Join { eq } => Algo::MergeJoinM(eq.clone()),
            TOp::TJoin { eq } => Algo::TMergeJoinM(eq.clone()),
            TOp::Product => return None,
            TOp::TAggr { group_by, aggs } => {
                Algo::TAggrM { group_by: group_by.clone(), aggs: aggs.clone() }
            }
            TOp::DupElim => Algo::DupElimM,
            TOp::Coalesce => Algo::CoalesceM,
            TOp::Diff => Algo::TDiffM,
        })
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

    /// The parameters [`Algo::label`] leaves out, bracketed as the plans
    /// of Figure 7/9 print them (empty when the label says everything).
    pub fn params(&self) -> String {
        match self {
            Algo::FilterM(p) | Algo::FilterD(p) => format!(" [{p}]"),
            Algo::TAggrM { group_by, aggs } | Algo::TAggrD { group_by, aggs } => {
                let a: Vec<String> = aggs.iter().map(ToString::to_string).collect();
                format!(" [group by {}; {}]", group_by.join(", "), a.join(", "))
            }
            Algo::MergeJoinM(eq) | Algo::TMergeJoinM(eq) | Algo::JoinD(eq) | Algo::TJoinD(eq) => {
                let c: Vec<String> = eq.iter().map(|(l, r)| format!("{l}={r}")).collect();
                format!(" [{}]", c.join(" AND "))
            }
            _ => String::new(),
        }
    }

    /// Output schema given child schemas: the evaluated operator's
    /// ([`TOp::output_schema`]); an enforcer delivers its input's. A
    /// scan's comes from the catalog — only a `MATSCAN^M` that keeps its
    /// consumed subtree as a child can answer.
    pub fn output_schema(&self, children: &[&Schema]) -> tango_algebra::Result<Schema> {
        match self.op() {
            Some(TOp::Get { .. }) | None => match children.first() {
                Some(c) => Ok((*c).clone()),
                None => Err(AlgebraError::Schema(format!("{} has no input schema", self.label()))),
            },
            Some(op) => op.output_schema(children, &|_| None),
        }
    }

    /// The order contract of this algorithm over its output `schema` —
    /// the one table Section 3.4's "argument sorted on …" sentences live
    /// in. DBMS algorithms promise nothing ("the middleware cannot know
    /// which algorithms the DBMS will pick"): `SORT^D` is the only way to
    /// an order there, `TRANSFER^D` loads into an unordered table. In an
    /// optimizer-produced plan that loses nothing — a `SORT^D` is only
    /// ever the enforcer directly under a `TRANSFER^M`.
    fn order_contract(&self, schema: &Schema) -> OrderContract<'_> {
        // all value attributes, then `T1`: what coalescing and temporal
        // difference merge on
        let value_order = || {
            let period = schema.period();
            let values = schema.attrs().iter().enumerate();
            let values = values.filter(|(i, _)| period.is_none_or(|(a, b)| *i != a && *i != b));
            SortSpec::by(values.map(|(_, a)| a.name.clone()).chain(["T1".to_string()]))
        };
        match self {
            // hash-based DUPELIM^M keeps first occurrences; TRANSFER^M
            // ships rows as the DBMS delivers them (rule T6)
            Algo::FilterM(_) | Algo::DupElimM | Algo::TransferM => OrderContract::Preserves,
            Algo::ProjectM(items) => OrderContract::Renames(items),
            Algo::MergeJoinM(eq) | Algo::TMergeJoinM(eq) => OrderContract::Merges(vec![
                SortSpec::by(eq.iter().map(|(l, _)| l.clone())),
                SortSpec::by(eq.iter().map(|(_, r)| r.clone())),
            ]),
            Algo::TAggrM { group_by, .. } => OrderContract::Merges(vec![SortSpec::by(
                group_by.iter().cloned().chain(["T1".to_string()]),
            )]),
            Algo::CoalesceM => OrderContract::Merges(vec![value_order()]),
            Algo::TDiffM => OrderContract::Merges(vec![value_order(); 2]),
            Algo::SortM(s) | Algo::SortXM(s, _) | Algo::SortD(s) => {
                OrderContract::Delivers(s.clone())
            }
            _ => OrderContract::Delivers(SortSpec::none()),
        }
    }

    /// The order each input must arrive in for this algorithm to deliver
    /// `required` over its output `schema` (inputs beyond the answer's
    /// length are asked nothing); `None` when it cannot deliver it.
    pub fn input_orders(&self, schema: &Schema, required: &SortSpec) -> Option<Vec<SortSpec>> {
        match self.order_contract(schema) {
            OrderContract::Preserves => Some(vec![required.clone()]),
            // the requirement names *output* columns: it goes below the
            // projection only if every key is a plain column passed
            // through (precondition of rule E5) — a key fed by a computed
            // item cannot be sorted early
            OrderContract::Renames(items) => {
                let below = passed_through(required, items, true);
                (below.keys().len() == required.keys().len()).then(|| vec![below])
            }
            OrderContract::Merges(inputs) => inputs[0].satisfies(required).then_some(inputs),
            OrderContract::Delivers(order) => order.satisfies(required).then(Vec::new),
        }
    }

    /// The order this algorithm's output arrives in, given the orders its
    /// inputs arrive in (`none` when unknown) — [`Algo::input_orders`]
    /// read the other way. A `MATSCAN^M` holds whatever order its
    /// materialization was drained in, which only its registrar knows.
    pub fn delivered_order(&self, schema: &Schema, inputs: &[SortSpec]) -> SortSpec {
        let input = || inputs.first().cloned().unwrap_or_default();
        match self.order_contract(schema) {
            OrderContract::Preserves => input(),
            OrderContract::Renames(items) => passed_through(&input(), items, false),
            OrderContract::Merges(mut needs) => needs.swap_remove(0),
            OrderContract::Delivers(order) => order,
        }
    }
}

/// How an algorithm relates the order of its output to its inputs'.
enum OrderContract<'a> {
    /// One input, delivered in whatever order it arrives in.
    Preserves,
    /// `PROJECT^M`: preserves the order of the keys these items pass
    /// through as plain columns, under their aliases.
    Renames(&'a [ProjItem]),
    /// A sort-merge sweep: needs each input in the order listed for it
    /// and delivers the first input's.
    Merges(Vec<SortSpec>),
    /// Asks nothing of its inputs and delivers this order (`none`: makes
    /// no promise).
    Delivers(SortSpec),
}

/// The longest prefix of `order` whose keys `items` pass through as plain
/// columns, renamed from output alias to input column (`down`) or back.
fn passed_through(order: &SortSpec, items: &[ProjItem], down: bool) -> SortSpec {
    let rename = |k: &SortKey| {
        items.iter().find_map(|it| match &it.expr {
            Expr::Col { name, .. } => {
                let (from, to) = if down { (&it.alias, name) } else { (name, &it.alias) };
                from.eq_ignore_ascii_case(&k.col).then(|| SortKey { col: to.clone(), desc: k.desc })
            }
            _ => None,
        })
    };
    SortSpec(order.keys().iter().map_while(rename).collect())
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
    /// `algo` applied to `children`, its schema derived by the table
    /// ([`Algo::output_schema`]).
    pub fn over(algo: Algo, children: Vec<PhysNode>) -> tango_algebra::Result<PhysNode> {
        let inputs: Vec<&Schema> = children.iter().map(|c| c.schema.as_ref()).collect();
        let schema = Arc::new(algo.output_schema(&inputs)?);
        Ok(PhysNode { algo, schema, children })
    }

    /// A `SCAN^D` of `table`, whose schema the catalog knows.
    pub fn scan(table: impl Into<String>, schema: Schema) -> PhysNode {
        PhysNode { algo: Algo::ScanD(table.into()), schema: Arc::new(schema), children: vec![] }
    }

    /// Render the plan like Figure 7/9 of the paper.
    pub fn render(&self) -> String {
        fn go(n: &PhysNode, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&n.algo.label());
            out.push_str(&n.algo.params());
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
            Some(op @ TOp::Get { .. }) => Logical::Apply { op, inputs: vec![] },
            Some(op) => {
                Logical::Apply { op, inputs: self.children.iter().map(PhysNode::logical).collect() }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::{Attr, Type};

    fn eq() -> Vec<(String, String)> {
        vec![("K".into(), "K2".into())]
    }

    /// Both inverses of [`Algo::op`] lead back to the operator, and a plan
    /// node built over either algorithm reads back as the `Apply` of that
    /// operator to its inputs.
    #[test]
    fn every_operator_maps_back_through_its_algorithms() {
        let ops = [
            (TOp::Get { table: "T".into() }, 0),
            (TOp::Select { pred: Expr::lit(1) }, 1),
            (TOp::Project { items: vec![ProjItem::col("K")] }, 1),
            (TOp::Join { eq: eq() }, 2),
            (TOp::TJoin { eq: eq() }, 2),
            (TOp::Product, 2),
            (TOp::TAggr { group_by: vec!["K".into()], aggs: vec![] }, 1),
            (TOp::DupElim, 1),
            (TOp::Coalesce, 1),
            (TOp::Diff, 2),
        ];
        let attrs = ["K", "K2", "T1", "T2"].map(|name| Attr::new(name, Type::Int));
        let scan = PhysNode::scan("T", Schema::with_inferred_period(attrs.to_vec()));
        for (op, arity) in ops {
            for algo in [Algo::dbms(&op), Algo::mid(&op)].into_iter().flatten() {
                assert_eq!(algo.op().as_ref(), Some(&op), "{}", algo.label());
                let node = match arity {
                    0 => PhysNode { algo, ..scan.clone() },
                    _ => PhysNode::over(algo, vec![scan.clone(); arity]).unwrap(),
                };
                let inputs = vec![Logical::get("T"); arity];
                assert_eq!(node.logical(), Logical::Apply { op: op.clone(), inputs });
            }
        }
        // heuristic group 1: products stay in the DBMS; generic SQL can
        // neither coalesce nor subtract periods
        assert!(Algo::mid(&TOp::Product).is_none());
        assert!(Algo::dbms(&TOp::Coalesce).is_none() && Algo::dbms(&TOp::Diff).is_none());
    }

    /// An algorithm with an order contract answers for the order it
    /// delivers and for no order it cannot deliver.
    #[test]
    fn contracts_answer_exactly_for_what_they_deliver() {
        let attrs = ["K", "V", "T1", "T2"].map(|name| Attr::new(name, Type::Int));
        let schema = Schema::with_inferred_period(attrs.to_vec());
        let by = |cols: &[&str]| SortSpec::by(cols.iter().copied());
        let contracts = [
            (Algo::MergeJoinM(eq()), by(&["K"]), vec![by(&["K"]), by(&["K2"])]),
            (Algo::TMergeJoinM(eq()), by(&["K"]), vec![by(&["K"]), by(&["K2"])]),
            (
                Algo::TAggrM { group_by: vec!["K".into()], aggs: vec![] },
                by(&["K", "T1"]),
                vec![by(&["K", "T1"])],
            ),
            (Algo::CoalesceM, by(&["K", "V", "T1"]), vec![by(&["K", "V", "T1"])]),
            (Algo::TDiffM, by(&["K", "V", "T1"]), vec![by(&["K", "V", "T1"]); 2]),
        ];
        for (algo, delivered, needs) in contracts {
            let inputs = vec![SortSpec::none(); needs.len()];
            assert_eq!(algo.delivered_order(&schema, &inputs), delivered, "{}", algo.label());
            assert_eq!(algo.input_orders(&schema, &delivered), Some(needs.clone()));
            assert_eq!(algo.input_orders(&schema, &SortSpec::none()), Some(needs));
            assert_eq!(algo.input_orders(&schema, &by(&["T2"])), None, "{}", algo.label());
        }
        // the order-preserving ones hand any requirement down
        for algo in [Algo::FilterM(Expr::lit(1)), Algo::DupElimM] {
            assert_eq!(algo.input_orders(&schema, &by(&["V"])), Some(vec![by(&["V"])]));
            assert_eq!(algo.delivered_order(&schema, &[by(&["V"])]), by(&["V"]));
        }
    }

    #[test]
    fn project_remaps_an_aliased_key_and_refuses_a_computed_one() {
        let schema = Schema::new(vec![Attr::new("Id", Type::Int), Attr::new("Twice", Type::Int)]);
        let twice = Expr::Arith(
            tango_algebra::ArithOp::Add,
            Box::new(Expr::col("K")),
            Box::new(Expr::col("K")),
        );
        let project = Algo::ProjectM(vec![
            ProjItem::named(Expr::col("P.K"), "Id"),
            ProjItem::named(twice, "Twice"),
        ]);
        let by = |col: &str| SortSpec::by([col]);
        assert_eq!(project.input_orders(&schema, &by("id")), Some(vec![by("P.K")]));
        assert_eq!(project.input_orders(&schema, &by("Twice")), None);
        assert_eq!(project.input_orders(&schema, &SortSpec::by(["Id", "Twice"])), None);
        assert_eq!(project.delivered_order(&schema, &[SortSpec::by(["P.K", "V"])]), by("Id"));
    }
}
