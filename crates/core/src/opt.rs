//! The middleware optimizer: TANGO's instantiation of the generic
//! [`volcano`] optimizer generator.
//!
//! * Logical properties of an equivalence class: output schema +
//!   derived statistics ([`GroupProps`]).
//! * Physical properties: `(site, ordering)` ([`crate::phys::Req`]).
//! * Heuristic Group 1 of the paper — "move to the middleware only those
//!   operations that may be processed more efficiently there" — is
//!   embodied in the algorithm inventory ([`Algo::mid`]): exactly
//!   the operations with efficient special-purpose middleware algorithms
//!   (temporal aggregation, joins, temporal joins, plus the
//!   order-preserving selection/projection that avoid needless transfers)
//!   have middleware implementations; everything else can only run in
//!   the DBMS.
//! * Heuristic Group 2 — "eliminate redundant operations" — is
//!   structural: transfers and sorts exist only as property *enforcers*,
//!   so `T^M(T^D(r))` pairs (rules T7/T8) and redundant sorts (rules
//!   T10–T12) cannot appear in winning plans.

use crate::cache::{self, Residency};
use crate::cost::CostFactors;
use crate::error::{Result, TangoError};
use crate::explain::NodeEstimate;
use crate::phys::{Algo, PhysNode, Req, Site};
use crate::rules;
use std::collections::HashMap;
use std::sync::Arc;
use tango_algebra::{Logical, Schema, SortSpec, TOp};
use tango_stats::RelationStats;
use volcano::{Enforcer, GroupId, Implementation, Memo, NewExpr, PhysPlan, SearchStats, Semantics};

/// Logical properties of an equivalence class.
#[derive(Debug, Clone)]
pub struct GroupProps {
    /// The class's output schema.
    pub schema: Arc<Schema>,
    /// Derived statistics for the class's output — for a `Get`, the
    /// catalog's own, shared.
    pub stats: Arc<RelationStats>,
    /// Canonical fragment signature of the class (see
    /// [`cache::top_signature`]); lets enforcers ask the middleware
    /// cache whether this fragment is already resident.
    pub signature: String,
}

/// Base-relation catalog snapshot fed by the Statistics Collector. Both
/// halves of an entry are shared: planning reads them by pointer, and
/// copying the map copies no statistics.
pub type Catalog = HashMap<String, (Arc<Schema>, Arc<RelationStats>)>;

/// Optimizer feature switches (for the paper's comparisons and the
/// ablation studies).
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Enable the snapshot-preserving (but not list-exact) rule pushing a
    /// time-window selection below temporal aggregation — needed to reach
    /// the paper's Query 2 Plan 1 shape.
    pub approx_rules: bool,
    /// Enable the selection/projection pushdown rule groups 3/4.
    pub pushdown_rules: bool,
    /// Middleware sort-memory budget in bytes. When the estimated sort
    /// input exceeds it, the order enforcer becomes the external merge
    /// sort `XSORT^M` instead of the in-memory `SORT^M`. `None` (the
    /// default) means unbounded memory, i.e. always sort in memory.
    pub mid_sort_budget: Option<u64>,
    /// Mid-query re-optimization trigger: when the actual row count at a
    /// pipeline breaker diverges from the estimate by at least this
    /// ratio (in either direction), the engine re-optimizes the
    /// unexecuted remainder of the plan over the materialized actuals.
    /// `None` disables adaptivity entirely.
    pub replan_ratio: Option<f64>,
    /// Use the naive independent-conjunct estimate for `Overlaps`-style
    /// temporal predicates instead of the joint Section 3.3 estimator —
    /// deliberately reproducing the ~40× misestimate, to seed the
    /// adaptivity tests and benchmarks with a plausibly-bad plan.
    pub naive_overlaps: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            approx_rules: true,
            pushdown_rules: true,
            mid_sort_budget: None,
            replan_ratio: Some(8.0),
            naive_overlaps: false,
        }
    }
}

/// The Volcano semantics for TANGO — and the one pricing context: what
/// one statement is planned, priced and re-planned against. The search
/// ([`optimize`]) and [`TangoSem::price`] derive properties and costs
/// through the same two functions, so a plan's per-node estimates sum to
/// the cost the search found for it — up to the memo pricing a class by
/// its first expression where the fold prices what runs (see "One
/// estimator" in `docs/ARCHITECTURE.md`).
#[derive(Clone, Default)]
pub struct TangoSem {
    /// Base-relation statistics snapshot, shared with whoever took it;
    /// mid-query materializations are registered next to the base tables.
    pub(crate) catalog: Arc<Catalog>,
    /// Cost factors used by the implementations' formulas.
    pub(crate) factors: CostFactors,
    /// Optimizer knobs: rule groups, sort-memory budget, estimation mode.
    options: OptOptions,
    /// Snapshot of the middleware relation cache taken when optimization
    /// started: which fragment signatures are resident, in which orders.
    /// A `TRANSFER^M` over a resident fragment is priced at
    /// [`CostFactors::p_cached`] per byte instead of the wire rate
    /// [`CostFactors::p_tm`] — cheap enough to flip join-side placement
    /// (the Figure 10 "one argument already resides" scenario), while
    /// staying strictly positive so transfers are never free.
    residency: Arc<Residency>,
    /// Mid-query materialized intermediates available to this run, by
    /// upper-cased name (normally `#MATn`), with the order each was
    /// materialized in. A `Get` over one of these becomes `MATSCAN^M` at
    /// the middleware (delivering the stored order for free) and is
    /// *excluded* from `SCAN^D` — the DBMS has no such table. Empty
    /// outside mid-query re-optimization.
    pub(crate) materialized: HashMap<String, SortSpec>,
}

impl TangoSem {
    /// The pricing context of one statement. Both snapshots are shared,
    /// never copied; residency only changes `TRANSFER^M` pricing — plan
    /// correctness never depends on the snapshot being current (a stale
    /// hit simply re-fetches at runtime). `catalog` must hold the schema
    /// and *observed* statistics of every name in `materialized`.
    pub fn new(
        catalog: Arc<Catalog>,
        factors: CostFactors,
        options: OptOptions,
        residency: Arc<Residency>,
        materialized: HashMap<String, SortSpec>,
    ) -> TangoSem {
        let materialized = materialized.into_iter().map(|(k, v)| (k.to_uppercase(), v)).collect();
        TangoSem { catalog, factors, options, residency, materialized }
    }

    fn table(&self, name: &str) -> Option<&(Arc<Schema>, Arc<RelationStats>)> {
        self.catalog.get(&name.to_uppercase())
    }

    fn mat_order(&self, name: &str) -> Option<&SortSpec> {
        self.materialized.get(&name.to_uppercase())
    }

    /// The logical properties of `op` over `children`: the statistics
    /// derivation every estimate goes through. The memo derives `schema`
    /// and `signature` from the class ([`Semantics::derive_props`]); a
    /// physical plan already carries both.
    fn props(
        &self,
        op: &TOp,
        children: &[&GroupProps],
        schema: Arc<Schema>,
        signature: String,
    ) -> GroupProps {
        let collected = match op {
            TOp::Get { table } => self.table(table).map(|(_, s)| s.clone()),
            _ => None,
        };
        let stats = collected.unwrap_or_else(|| {
            let child_stats: Vec<&RelationStats> = children.iter().map(|p| &*p.stats).collect();
            let child_schemas: Vec<&Schema> = children.iter().map(|p| p.schema.as_ref()).collect();
            let naive = self.options.naive_overlaps;
            Arc::new(tango_stats::derive_stats(op, &child_stats, &child_schemas, &schema, naive))
        });
        GroupProps { schema, stats, signature }
    }

    /// What the algorithm costs producing `props` from `inputs`, in µs —
    /// the only place a cost formula is applied. A leaf or an enforcer
    /// reads the class it delivers; a `TRANSFER^M` (the one algorithm
    /// priced by more than its formula) additionally knows the `order` it
    /// must deliver in.
    fn cost(
        &self,
        algo: &Algo,
        inputs: &[&GroupProps],
        props: &GroupProps,
        order: &SortSpec,
    ) -> f64 {
        let full = match inputs {
            [] => self.factors.cost(algo, &[&*props.stats], &props.stats),
            _ => {
                let inputs: Vec<&RelationStats> = inputs.iter().map(|p| &*p.stats).collect();
                self.factors.cost(algo, &inputs, &props.stats)
            }
        };
        match algo {
            // When the fragment is already resident in the middleware
            // cache (in a satisfying order), the transfer ships no bytes —
            // price it as a memory scan of the cached copy instead of a
            // wire transfer; a stale-but-delta-covered copy additionally
            // pays its refresh (delta wire + merge CPU, see
            // `cache::refresh_cost_us`). The estimate is conservative: the
            // fragment below is still costed as if it ran, so residency
            // can only *shrink* a plan's cost.
            Algo::TransferM => self
                .residency
                .transfer_cost(&props.signature, order, &self.factors)
                .map_or(full, |c| c.min(full)),
            _ => full,
        }
    }

    /// Price a physical plan as the search prices it: one bottom-up fold
    /// deriving each node's statistics with the derivation behind
    /// [`Semantics::derive_props`] and its cost with the closure
    /// `implementations` / `enforcers` use. Returns the per-node
    /// predictions in pre-order (the numbering `EXPLAIN` renders
    /// against); their costs sum to the plan's.
    pub fn price(&self, plan: &PhysNode) -> Result<Vec<NodeEstimate>> {
        #[cfg(test)]
        PRICINGS.with(|n| n.set(n.get() + 1));
        let mut out = Vec::with_capacity(plan.node_count());
        self.price_node(plan, &mut out)?;
        Ok(out)
    }

    /// The statistics that fold derives for `plan`'s output.
    pub(crate) fn stats(&self, plan: &PhysNode) -> Result<Arc<RelationStats>> {
        Ok(self.price_node(plan, &mut Vec::new())?.stats)
    }

    /// A cache entry's fill price: [`TangoSem::price`] of
    /// `TRANSFER^M(fragment)` under an empty residency.
    pub(crate) fn fill_cost_us(&self, fragment: &PhysNode) -> Result<f64> {
        let mut out = vec![NodeEstimate::default()];
        let props = self.price_node(fragment, &mut out)?;
        out[0].est_cost_us = self.factors.cost(&Algo::TransferM, &[&*props.stats], &props.stats);
        Ok(out.iter().map(|e| e.est_cost_us).sum())
    }

    fn price_node(&self, n: &PhysNode, out: &mut Vec<NodeEstimate>) -> Result<GroupProps> {
        let at = out.len();
        out.push(NodeEstimate::default());
        let mut kids: Vec<GroupProps> =
            n.children.iter().map(|c| self.price_node(c, out)).collect::<Result<_>>()?;
        let (props, cost) = match n.algo.op() {
            Some(op) => {
                let inputs: Vec<&GroupProps> = match &op {
                    // a MATSCAN^M's child is the consumed subtree, kept (and
                    // priced) for rendering only: the scan reads the
                    // *observed* statistics registered under its name (a
                    // table without statistics reads the derivation's prior)
                    TOp::Get { .. } => vec![],
                    _ => kids.iter().collect(),
                };
                // only a TRANSFER^M reads a signature, and it reads its own
                let props = self.props(&op, &inputs, n.schema.clone(), String::new());
                let cost = self.cost(&n.algo, &inputs, &props, &SortSpec::none());
                (props, cost)
            }
            // sorts and transfers deliver the class they are applied to
            None => {
                let mut props = kids.pop().ok_or_else(|| {
                    TangoError::Optimizer(format!("{} without input", n.algo.label()))
                })?;
                // what the engine will look the fragment up under: its own
                // signature and the order its SORT^D delivers
                let mut order = SortSpec::none();
                if matches!(n.algo, Algo::TransferM) && !self.residency.is_empty() {
                    let key = cache::fragment_key(&n.children[0], "", &|_| false);
                    (props.signature, order) =
                        key.map(|k| (k.signature, k.order)).unwrap_or_default();
                }
                let cost = self.cost(&n.algo, &[], &props, &order);
                (props, cost)
            }
        };
        out[at] = NodeEstimate { est_rows: props.stats.rows, est_cost_us: cost };
        Ok(props)
    }

    /// Pick the middleware sort enforcer for the given input: in-memory
    /// `SORT^M` normally, the external merge sort `XSORT^M` when the
    /// estimated input exceeds the configured sort-memory budget. The
    /// run size is however many rows fit in the budget.
    fn mid_sort(&self, props: &GroupProps, order: SortSpec) -> Algo {
        match self.options.mid_sort_budget {
            Some(b) if props.stats.size_bytes() > b as f64 => {
                let width = props.stats.avg_tuple_bytes.max(1.0);
                let run_rows = ((b as f64 / width) as usize).max(2);
                Algo::SortXM(order, run_rows)
            }
            _ => Algo::SortM(order),
        }
    }
}

impl Semantics for TangoSem {
    type Op = TOp;
    type Props = GroupProps;
    type PhysProps = Req;
    type Algo = Algo;

    fn derive_props(&self, op: &TOp, children: &[&GroupProps]) -> GroupProps {
        let collected = match op {
            TOp::Get { table } => self.table(table).map(|(s, _)| s.clone()),
            _ => None,
        };
        let schema = collected.unwrap_or_else(|| {
            let child_schemas: Vec<&Schema> = children.iter().map(|p| p.schema.as_ref()).collect();
            let schema = op.output_schema(&child_schemas, &|_| None);
            Arc::new(schema.unwrap_or_else(|_| Schema::new(vec![])))
        });
        let child_sigs: Vec<String> = children.iter().map(|p| p.signature.clone()).collect();
        self.props(op, children, schema, cache::top_signature(op, &child_sigs))
    }

    fn implementations(
        &self,
        op: &TOp,
        child_props: &[&GroupProps],
        props: &GroupProps,
        required: &Req,
    ) -> Vec<Implementation<Self>> {
        // the algorithm evaluating `op` at the required site (`phys.rs` is
        // the inventory) and what it then requires of each input
        let candidate = match required.site {
            // No generic DBMS algorithm guarantees an output order —
            // `SORT^D` is the only way to deliver one there (as enforcer)
            // — and mid-query materializations live only in the
            // middleware: the DBMS has no table to scan.
            Site::Dbms => {
                let scannable = match op {
                    TOp::Get { table } => {
                        self.table(table).is_some() && self.mat_order(table).is_none()
                    }
                    _ => true,
                };
                Algo::dbms(op)
                    .filter(|_| required.order.is_none() && scannable)
                    .map(|algo| (algo, vec![Req::any(Site::Dbms); child_props.len()]))
            }
            // Applicable iff the algorithm's order contract can deliver
            // the required order; a `MATSCAN^M` delivers the order its
            // materialization was drained in, the one fact the table
            // cannot know.
            Site::Middleware => Algo::mid(op).and_then(|algo| {
                let orders = match &algo {
                    Algo::MatScanM(name) => self
                        .mat_order(name)
                        .filter(|o| o.satisfies(&required.order))
                        .map(|_| vec![]),
                    _ => algo.input_orders(&props.schema, &required.order),
                };
                Some((algo, orders?.into_iter().map(Req::mid).collect()))
            }),
        };
        let priced = candidate.map(|(algo, child_required)| Implementation {
            cost: self.cost(&algo, child_props, props, &required.order),
            algo,
            child_required,
        });
        priced.into_iter().collect()
    }

    fn enforcers(&self, props: &GroupProps, required: &Req) -> Vec<Enforcer<Self>> {
        let mut out = Vec::new();
        let cost = |algo: &Algo| self.cost(algo, &[], props, &required.order);
        // sorting enforces order at either site
        if !required.order.is_none() {
            let algo = match required.site {
                Site::Middleware => self.mid_sort(props, required.order.clone()),
                Site::Dbms => Algo::SortD(required.order.clone()),
            };
            out.push(Enforcer { cost: cost(&algo), algo, inner_required: Req::any(required.site) });
        }
        match required.site {
            // T^M preserves order (rule T6, type →_L): ask the DBMS side
            // for the same order (SORT^D below, as in Query 1's Plan 1).
            Site::Middleware => out.push(Enforcer {
                cost: cost(&Algo::TransferM),
                algo: Algo::TransferM,
                inner_required: Req::dbms(required.order.clone()),
            }),
            // T^D loads into an (unordered) table: only useful when no
            // order is required.
            Site::Dbms if required.order.is_none() => out.push(Enforcer {
                cost: cost(&Algo::TransferD),
                algo: Algo::TransferD,
                inner_required: Req::any(Site::Middleware),
            }),
            Site::Dbms => {}
        }
        out
    }
}

/// Convert a parser-produced [`Logical`] tree into the memo form,
/// stripping the top `T^M` and top-level sorts into required properties
/// (site = middleware, the recorded ordering).
fn to_initial(logical: &Logical) -> (NewExpr<TOp>, SortSpec) {
    let mut node = logical;
    let mut order = SortSpec::none();
    loop {
        match node {
            Logical::TransferM { input } | Logical::TransferD { input } => node = input,
            Logical::Sort { keys, input } => {
                if order.is_none() {
                    order = keys.clone();
                }
                node = input;
            }
            Logical::Apply { .. } => return (convert(node), order),
        }
    }
}

fn convert(l: &Logical) -> NewExpr<TOp> {
    match l {
        Logical::Apply { op, inputs } => {
            NewExpr::Op(op.clone(), inputs.iter().map(convert).collect())
        }
        // transfers and inner sorts are physical concerns: drop them
        Logical::TransferM { input }
        | Logical::TransferD { input }
        | Logical::Sort { input, .. } => convert(input),
    }
}

/// The result of one optimization run.
pub struct Optimized {
    /// The winning physical plan.
    pub plan: PhysNode,
    /// Its estimated cost in µs.
    pub cost: f64,
    /// Equivalence classes generated (the paper's per-query metric).
    pub classes: usize,
    /// Class elements generated.
    pub elements: usize,
    /// Search-effort accounting from the Volcano phase.
    pub search: SearchStats,
    /// Per-rule firing counts from the transformation phase.
    pub rule_fires: Vec<(&'static str, usize)>,
}

/// Optimize a logical plan under `sem`. `pinned_order` is the mid-query
/// re-optimization case: `logical` is the unexecuted *remainder* of a
/// running plan (some inputs already [materialized](TangoSem::new) in the
/// middleware) and must deliver the order the original plan guaranteed,
/// so the spliced plan returns byte-identical results. `None` takes the
/// order from the statement's own top-level sort.
pub fn optimize(
    logical: &Logical,
    sem: TangoSem,
    pinned_order: Option<SortSpec>,
) -> Result<Optimized> {
    let (memo, root, required) = explore(logical, sem, pinned_order)?;
    let mut search = SearchStats::default();
    let best = volcano::optimize(&memo, root, required, &mut search)
        .ok_or_else(|| TangoError::Optimizer("no feasible plan".into()))?;
    let plan = annotate(&best.plan, &memo)?;
    Ok(Optimized {
        plan,
        cost: best.cost,
        classes: memo.group_count(),
        elements: memo.expr_count(),
        search,
        rule_fires: memo.rule_fires().collect(),
    })
}

/// Phase one: the memo of everything the transformation rules generate
/// from `logical`, its root class and the properties the plan must
/// deliver there.
fn explore(
    logical: &Logical,
    sem: TangoSem,
    pinned_order: Option<SortSpec>,
) -> Result<(Memo<TangoSem>, GroupId, Req)> {
    if let Some(t) = unanalyzed(logical, &sem) {
        return Err(TangoError::Optimizer(format!("no statistics for table {t}: run ANALYZE {t}")));
    }
    let (tree, order) = to_initial(logical);
    let rules = rules::rule_set(sem.options);
    let mut memo = Memo::new(sem);
    let root = memo.insert_root(tree);
    memo.explore(&rules);
    Ok((memo, root, Req::mid(pinned_order.unwrap_or(order))))
}

/// A table `logical` reads that the catalog holds no statistics for: the
/// search would find no plan over it.
fn unanalyzed<'a>(logical: &'a Logical, sem: &TangoSem) -> Option<&'a str> {
    match logical {
        Logical::Apply { op: TOp::Get { table }, .. } if sem.table(table).is_none() => Some(table),
        Logical::Apply { inputs, .. } => inputs.iter().find_map(|i| unanalyzed(i, sem)),
        Logical::TransferM { input }
        | Logical::TransferD { input }
        | Logical::Sort { input, .. } => unanalyzed(input, sem),
    }
}

/// Attach output schemas to a physical plan by bottom-up derivation.
fn annotate(plan: &PhysPlan<Algo>, memo: &Memo<TangoSem>) -> Result<PhysNode> {
    fn go(p: &PhysPlan<Algo>, sem: &TangoSem) -> Result<PhysNode> {
        let children: Vec<PhysNode> =
            p.children.iter().map(|c| go(c, sem)).collect::<Result<_>>()?;
        match &p.algo {
            Algo::ScanD(t) | Algo::MatScanM(t) => {
                let (schema, _) = sem
                    .table(t)
                    .ok_or_else(|| TangoError::Optimizer(format!("unknown table {t}")))?;
                Ok(PhysNode { algo: p.algo.clone(), schema: schema.clone(), children })
            }
            other => Ok(PhysNode::over(other.clone(), children)?),
        }
    }
    go(plan, memo.semantics())
}

#[cfg(test)]
thread_local! {
    /// Pricing folds ([`TangoSem::price`]) run on this thread.
    pub(crate) static PRICINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The table-free search `volcano`'s own tests compare against.
#[cfg(test)]
#[path = "../../volcano/tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    //! The four queries of the performance study, searched with and
    //! without memoization.

    use super::*;
    use crate::{collector, tsql};
    use tango_algebra::date::day;
    use tango_minidb::{Connection, Database, Link, LinkProfile};
    use tango_uis::queries::{q1_sql, q2_sql, q3_sql, q4_sql};
    use tango_uis::{generate_employee, generate_position, UisConfig};

    fn figure_queries() -> [String; 4] {
        let date = |y| day(y, 1, 1);
        [q1_sql("POSITION"), q2_sql(date(1983), date(1996)), q3_sql(date(1996)), q4_sql("POSITION")]
    }

    /// The UIS tables at `UisConfig::small`, analyzed, and their catalog.
    fn uis() -> (Connection, Arc<Catalog>) {
        let cfg = UisConfig::small(0xEC1);
        let db = Database::new(Link::new(LinkProfile::instant()));
        for (name, rel) in
            [("POSITION", generate_position(&cfg)), ("EMPLOYEE", generate_employee(&cfg))]
        {
            db.create_table(name, rel.schema().as_ref().clone()).unwrap();
            db.insert_rows(name, rel.into_tuples()).unwrap();
            db.analyze(name).unwrap();
        }
        let conn = Connection::new(db);
        let catalog = Arc::new(collector::collect(&conn, true).unwrap());
        (conn, catalog)
    }

    fn sem(catalog: &Arc<Catalog>) -> TangoSem {
        let (factors, options) = (CostFactors::default(), OptOptions::default());
        TangoSem::new(catalog.clone(), factors, options, Arc::default(), HashMap::new())
    }

    /// Query 1–4 under default factors: [`optimize`] returns the
    /// plan and the cost a search with the cycle guard and *no* table
    /// finds over the same memo (Query 2: half a million optimize calls).
    /// Query 2's winning tree has alternatives of equal cost; both
    /// searches keep the first of the cheapest, so the plans still agree.
    #[test]
    fn figure_queries_match_the_exhaustive_search() {
        let (conn, catalog) = uis();
        for sql in figure_queries() {
            let logical = tsql::parse_tsql(&sql, &|t: &str| conn.table_schema(t)).unwrap();
            let found = optimize(&logical, sem(&catalog), None).unwrap();

            let (memo, root, required) = explore(&logical, sem(&catalog), None).unwrap();
            let exact = reference::exhaustive(&memo, root, required).expect("feasible");
            assert_eq!(found.cost, exact.cost, "{sql}");
            assert_eq!(
                found.plan.render(),
                annotate(&exact.plan, &memo).unwrap().render(),
                "{sql}"
            );
            assert!(found.search.cycles_pruned > 0 && found.search.cache_hits > 0, "{sql}");
        }
    }

    /// Planning reads the catalog by pointer: the class of every `Get` in
    /// the figure queries' memos holds its table's schema and statistics,
    /// and so do the `SORT^D` and `TRANSFER^M` enforcers the fold prices
    /// over a scan.
    #[test]
    fn a_get_and_its_enforcers_share_the_catalogs_statistics() {
        let (conn, catalog) = uis();
        for sql in figure_queries() {
            let logical = tsql::parse_tsql(&sql, &|t: &str| conn.table_schema(t)).unwrap();
            let (memo, ..) = explore(&logical, sem(&catalog), None).unwrap();
            let mut gets = 0;
            for g in (0..memo.group_count()).map(GroupId) {
                for &e in memo.exprs_in(g) {
                    if let TOp::Get { table } = &memo.expr(e).op {
                        let (schema, stats) = &catalog[table];
                        assert!(Arc::ptr_eq(&memo.props(g).schema, schema), "{sql}: {table}");
                        assert!(Arc::ptr_eq(&memo.props(g).stats, stats), "{sql}: {table}");
                        gets += 1;
                    }
                }
            }
            assert!(gets > 0, "{sql}");
        }

        let (schema, stats) = &catalog["POSITION"];
        let scan = PhysNode::scan("POSITION", Schema::clone(schema));
        let sorted = PhysNode::over(Algo::SortD(SortSpec::by(["PosID"])), vec![scan]).unwrap();
        let shipped = PhysNode::over(Algo::TransferM, vec![sorted.clone()]).unwrap();
        for plan in [sorted, shipped] {
            assert!(Arc::ptr_eq(&sem(&catalog).stats(&plan).unwrap(), stats), "{}", plan.render());
        }
    }

    /// A cache entry's fill is priced as its transfer: under an empty
    /// residency, [`TangoSem::fill_cost_us`] of every fragment the figure
    /// queries ship is the fold of `TRANSFER^M` over it, to the bit. A
    /// table the catalog holds no statistics for reads the derivation's
    /// prior, so a fragment over one is priced too.
    #[test]
    fn a_fill_is_priced_as_the_transfer_that_refetches_it() {
        fn transfers<'p>(n: &'p PhysNode, out: &mut Vec<&'p PhysNode>) {
            if n.algo == Algo::TransferM {
                out.push(n);
            }
            n.children.iter().for_each(|c| transfers(c, out));
        }
        let (conn, catalog) = uis();
        let mut shipped = Vec::new();
        for sql in figure_queries() {
            let logical = tsql::parse_tsql(&sql, &|t: &str| conn.table_schema(t)).unwrap();
            shipped.push(optimize(&logical, sem(&catalog), None).unwrap().plan);
        }
        let unanalyzed = PhysNode::scan("UNANALYZED", Schema::clone(&catalog["POSITION"].0));
        shipped.push(PhysNode::over(Algo::TransferM, vec![unanalyzed]).unwrap());
        let mut fragments = Vec::new();
        shipped.iter().for_each(|plan| transfers(plan, &mut fragments));
        assert!(fragments.len() > shipped.len(), "{} transfers", fragments.len());
        for t in fragments {
            let sum: f64 = sem(&catalog).price(t).unwrap().iter().map(|e| e.est_cost_us).sum();
            let fill = sem(&catalog).fill_cost_us(&t.children[0]).unwrap();
            assert_eq!(fill.to_bits(), sum.to_bits(), "{fill} vs {sum}\n{}", t.render());
        }
    }

    /// The outermost sort becomes the required order; inner sorts and
    /// both transfers are physical concerns and leave no operator behind.
    #[test]
    fn to_initial_keeps_the_outer_order_and_drops_sorts_and_transfers() {
        let pred = tango_algebra::Expr::lit(1);
        let plan = Logical::get("T")
            .sort(SortSpec::by(["B"]))
            .select(pred.clone())
            .transfer_m()
            .sort(SortSpec::by(["A"]));
        let (tree, order) = to_initial(&plan.transfer_d());
        assert_eq!(order, SortSpec::by(["A"]));
        let get = NewExpr::Op(TOp::Get { table: "T".into() }, vec![]);
        let expected = NewExpr::Op(TOp::Select { pred }, vec![get]);
        assert_eq!(format!("{tree:?}"), format!("{expected:?}"));
    }

    /// The optimizer and the engine read one order table: the order the
    /// engine derives for the chosen plan (what it pins a re-plan to)
    /// satisfies the order the statement asked the optimizer for.
    #[test]
    fn the_engine_derives_the_order_the_optimizer_planned_for() {
        let (conn, catalog) = uis();
        let more = [
            "VALIDTIME SELECT DISTINCT PosID, EmpID FROM POSITION ORDER BY PosID",
            "VALIDTIME COALESCE SELECT PosID FROM POSITION ORDER BY PosID",
        ];
        for sql in figure_queries().into_iter().chain(more.map(String::from)) {
            let logical = tsql::parse_tsql(&sql, &|t: &str| conn.table_schema(t)).unwrap();
            let (_, asked) = to_initial(&logical);
            assert!(!asked.is_none(), "{sql}");
            let plan = optimize(&logical, sem(&catalog), None).unwrap().plan;
            let derived = crate::engine::delivered_order(&plan, &HashMap::new());
            assert!(
                derived.satisfies(&asked),
                "{sql}: [{derived}] for [{asked}]\n{}",
                plan.render()
            );
        }
    }
}
