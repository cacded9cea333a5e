//! The Execution Engine (Figure 2 of the paper).
//!
//! An execution-ready plan is a sequence of algorithms with parameters
//! and arguments. Middleware algorithms become pipelined `tango-xxl`
//! cursors; each `TRANSFER^M` issues a SELECT produced by the
//! Translator-To-SQL; each `TRANSFER^D` creates a uniquely named temp
//! table and bulk-loads its argument during `open()` (the paper:
//! "[init] fetches all tuples of the argument result set and copies
//! them into the DBMS"). Temp tables are dropped at the end of the query.
//!
//! Every cursor is instrumented: per-algorithm inclusive time and output
//! volume feed the adaptive cost-factor loop (`crate::feedback`).

use crate::cache::{self, MidCache};
use crate::error::{Result, TangoError};
use crate::opt::{self, TangoSem};
use crate::phys::{Algo, PhysNode, Site};
use crate::{refresh, to_sql};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tango_algebra::{Batch, Relation, Schema, SortSpec, DEFAULT_BATCH_ROWS};
use tango_minidb::{Connection, DbCursor, ErrorClass};
use tango_stats::RelationStats;
use tango_trace::{Collector, SpanEvent, SpanSite, SpanSlot, Stopwatch};
use tango_xxl::{
    drain_batches, BatchScan, BoxCursor, CachedScan, Coalesce, Cursor, DeltaApply, DupElim,
    ExternalSort, Filter, MergeJoin, NestedLoopJoin, Project, Sort, TemporalAggregate,
    TemporalDiff, TemporalMergeJoin,
};

/// Observed execution of one algorithm instance.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// The algorithm this step ran (with parameters).
    pub algo: Algo,
    /// Rendered label, e.g. `TAGGR^M`.
    pub label: String,
    /// Inclusive wall + wire time (children included), µs.
    pub inclusive_us: f64,
    /// Exclusive wall + wire time, µs.
    pub exclusive_us: f64,
    /// Tuples this step produced.
    pub out_rows: u64,
    /// Bytes this step produced.
    pub out_bytes: u64,
    /// DBMS server compute time included in this step (µs) — nonzero only
    /// for `TRANSFER^M`, whose query execution happens inside the DBMS.
    pub server_us: f64,
    /// Algorithm-specific counters (spilled runs, buffered groups, SQL
    /// round-trips, …) sampled from the cursor at close.
    pub counters: Vec<(&'static str, u64)>,
    /// Discrete events recorded while the step ran (wire `fault`s,
    /// `retry` rounds, mid-execution `replan`s, cache `evict`s and
    /// `invalidate`s), in order.
    pub events: Vec<SpanEvent>,
    /// Qualitative key/value annotations (`cache: hit|miss|bypass`), in
    /// order.
    pub annotations: Vec<(&'static str, String)>,
    /// Indices of child steps within the report.
    pub children: Vec<usize>,
    /// The node of the executed plan this step ran, by its pre-order
    /// number (what `EXPLAIN ANALYZE` annotates): recorded as the step is
    /// built, and carried along as staging moves the nodes already run
    /// under `MATSCAN^M`s and a re-plan splices new ones above them.
    pub node: Option<usize>,
}

impl StepReport {
    /// The site this step's algorithm evaluated on.
    pub fn site(&self) -> Site {
        self.algo.site()
    }

    /// The value of annotation `key`, if the step carries it.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }

    /// Serialize as a JSON object (schema documented in
    /// `docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> String {
        use tango_trace::json::Object;
        let mut o = Object::new();
        o.string("op", &self.label);
        o.string(
            "site",
            match self.site() {
                Site::Middleware => "middleware",
                Site::Dbms => "dbms",
            },
        );
        o.number("inclusive_us", self.inclusive_us);
        o.number("exclusive_us", self.exclusive_us);
        o.number("rows", self.out_rows as f64);
        o.number("bytes", self.out_bytes as f64);
        o.number("server_us", self.server_us);
        if !self.annotations.is_empty() {
            let mut a = Object::new();
            for (k, v) in &self.annotations {
                a.string(k, v);
            }
            o.raw("annotations", &a.build());
        }
        if !self.counters.is_empty() {
            let mut c = Object::new();
            for (k, v) in &self.counters {
                c.number(k, *v as f64);
            }
            o.raw("counters", &c.build());
        }
        if !self.events.is_empty() {
            o.raw("events", &tango_trace::events_to_json(&self.events));
        }
        o.raw(
            "children",
            &format!(
                "[{}]",
                self.children.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
            ),
        );
        o.build()
    }
}

/// Whole-query execution report.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Result cardinality.
    pub rows: usize,
    /// Wall time of the whole execution (compute; excludes virtual wire).
    pub wall: Duration,
    /// Virtual wire time charged during this execution.
    pub wire: Duration,
    /// Per-algorithm observations (post-order).
    pub steps: Vec<StepReport>,
}

impl ExecReport {
    /// Total cost as the experiments report it: wall + simulated wire.
    pub fn total(&self) -> Duration {
        self.wall + self.wire
    }

    /// Serialize the whole report — totals plus the per-operator step
    /// array — as a JSON object.
    pub fn to_json(&self) -> String {
        use tango_trace::json::Object;
        let mut o = Object::new();
        o.number("rows", self.rows as f64);
        o.number("wall_us", self.wall.as_secs_f64() * 1e6);
        o.number("wire_us", self.wire.as_secs_f64() * 1e6);
        o.number("total_us", self.total().as_secs_f64() * 1e6);
        let steps = self.steps.iter().map(StepReport::to_json).collect::<Vec<_>>().join(",");
        o.raw("steps", &format!("[{steps}]"));
        o.build()
    }
}

/// The one execution driver: everything a plan needs to run, with the
/// modes — caching, mid-query re-planning — as fields. Every cursor is
/// wrapped in a measuring span.
pub struct Executor<'a> {
    /// The DBMS connection `TRANSFER^M` / `TRANSFER^D` go through.
    pub conn: &'a Connection,
    /// The middleware relation cache every `TRANSFER^M` consults: a
    /// **hit** serves the resident copy through a [`CachedScan`] without
    /// issuing any SQL; a **miss** streams normally and, if the transfer
    /// drains to completion without faulting or re-planning, populates
    /// the cache; a **bypass** (uncacheable fragment, see
    /// [`cache::fragment_key`]) streams normally and is annotated as
    /// such. `None` runs as if the cache did not exist.
    pub cache: Option<&'a Arc<MidCache>>,
    /// Rows per batch pulled between operators, threaded into every
    /// operator the plan builds.
    pub batch_rows: usize,
    /// The pricing context the plan was optimized under, the currency of
    /// every cache decision: a miss prices the entry's fill, a stale entry
    /// weighs its refresh against that price. Re-planning estimates and
    /// re-optimizes under it, registering each staged materialization.
    pub pricing: TangoSem,
    /// `None` runs the plan as given. `Some` stages it at pipeline
    /// breakers and re-optimizes the remainder on a misestimate (see
    /// [`Replan`]).
    pub replan: Option<Replan>,
}

/// Everything mid-query re-planning needs in order to re-run the Volcano
/// optimizer over the unexecuted remainder of a plan (see
/// `docs/ADAPTIVITY.md`).
///
/// The driver repeatedly finds the first unexecuted pipeline breaker
/// (`TRANSFER^M`, `SORT^M`, `XSORT^M`, `TAGGR^M`) whose ancestors are
/// all middleware-resident, runs it to completion, and materializes its
/// output in the middleware. When the materialized row count diverges
/// from the optimizer's estimate by at least `ratio` (in either
/// direction), the actuals are fed back as injected cardinalities and
/// the optimizer re-runs over the remainder of the plan — which may flip
/// operators between middleware and DBMS — pinned to the delivery order
/// the original plan promised, so results stay byte-identical. If the
/// new remainder prices cheaper than the running one (both through
/// [`TangoSem::price`], under [`Executor::pricing`]) it is spliced over
/// the already materialized outputs; otherwise the re-plan is declined
/// and leaves only a `replan-declined` event. A breaker that already
/// degraded due to a wire fault mid-drain is never re-planned a second
/// time over the same observation. A staged breaker's observed size is
/// registered in the pricing context's catalog; its attribute statistics
/// are taken if and when the monitor triggers while it is held.
pub struct Replan {
    /// Trigger threshold: re-plan when actual and estimated rows at a
    /// pipeline breaker diverge by at least this factor, in either
    /// direction.
    pub ratio: f64,
    /// Histogram buckets for the statistics a triggered re-plan takes of
    /// the materializations it plans over (0 disables histograms).
    pub histogram_buckets: usize,
}

/// What one [`Executor::run`] produced.
pub struct Run {
    /// The query result.
    pub rel: Relation,
    /// The execution report (per-operator spans).
    pub report: ExecReport,
    /// With re-planning on: the plan as actually executed — every staged
    /// breaker appears as a `MATSCAN^M` node whose child is the subtree
    /// that produced the materialization, and a triggered re-plan
    /// replaces everything above the materializations; the report's
    /// steps are in its post-order — and the executor's pricing context,
    /// extended with the observed size of every materialization, plus the
    /// full statistics of those a re-plan was planned over (what
    /// re-estimating that plan needs). `None` when the plan ran as given.
    pub staged: Option<(PhysNode, TangoSem)>,
}

/// Safety net against pathological re-plan loops: at most this many
/// breakers are staged per query.
const MAX_STAGES: usize = 32;

#[cfg(test)]
thread_local! {
    /// Deep copies of shared [`RelationStats`] made staging breakers on
    /// this thread.
    pub(crate) static STATS_COPIES: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
    /// ANALYZEs of mid-query materializations made by runs on this thread.
    pub(crate) static MAT_ANALYZES: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
    /// Rows steps run on this thread handed up boxed, in row batches.
    pub(crate) static ROWS_HANDED_UP_BOXED: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
    /// Rows boxed delivering results on this thread.
    pub(crate) static ROWS_DELIVERED_BOXED: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

impl<'a> Executor<'a> {
    /// The plain configuration: no cache, default knobs and factors, no
    /// re-planning. Override fields with struct update
    /// syntax.
    pub fn new(conn: &'a Connection) -> Self {
        Executor {
            conn,
            cache: None,
            batch_rows: DEFAULT_BATCH_ROWS,
            pricing: TangoSem::default(),
            replan: None,
        }
    }

    /// Execute a physical plan against the DBMS connection, returning the
    /// materialized result and the execution report (the adaptive
    /// feedback loop consumes its spans).
    pub fn run(self, plan: &PhysNode) -> Result<Run> {
        if plan.algo.site() != Site::Middleware {
            return Err(TangoError::Exec(
                "plan root must be middleware-resident (delivery to the client)".into(),
            ));
        }
        let conn = self.conn;
        // meter this session's wire alone — the link clock is shared with
        // every other session on the database and would cross-charge
        let wire_before = conn.wire_time();
        let mut ctx = Ctx::new(conn, self.cache, self.batch_rows, self.pricing);
        let mut staging = self.replan.map(|cfg| (plan.clone(), cfg));
        let started = Instant::now();
        let result = (|| -> Result<Relation> {
            let plan = match &mut staging {
                Some((work, cfg)) => {
                    ctx.stage_breakers(cfg, work)?;
                    &*work
                }
                None => plan,
            };
            let (schema, batches, _) = ctx.materialize(plan, &[])?;
            let mut rows = Vec::with_capacity(batches.iter().map(Batch::len).sum());
            for b in batches {
                rows.extend(b.into_rows());
            }
            #[cfg(test)]
            ROWS_DELIVERED_BOXED.with(|n| n.set(n.get() + rows.len()));
            Ok(Relation::new(schema, rows))
        })();
        let wall = started.elapsed();
        // drop temp tables whatever happened ("the table must be dropped
        // at the end of the query")
        for t in &ctx.temp_tables {
            let _ = conn.execute(&format!("DROP TABLE IF EXISTS {t}"));
        }
        let rel = result?;
        let wire = conn.wire_time().saturating_sub(wire_before);
        let executed = staging.as_ref().map_or(plan, |(work, _)| work);
        let nodes = ctx.paths.iter().map(|p| preorder(executed, p)).collect();
        let steps = resolve_steps(ctx.collector, ctx.algos, nodes);
        let report = ExecReport { rows: rel.len(), wall, wire, steps };
        Ok(Run { rel, report, staged: staging.map(|(work, _)| (work, ctx.pricing)) })
    }
}

/// The statistics of a materialization held as `batches`: ANALYZE over
/// their columns, concatenated, as [`RelationStats::from_relation`] of
/// their rows would read them.
fn analyze(schema: &Arc<Schema>, batches: &[Batch], buckets: usize) -> RelationStats {
    let all = Batch::concat(schema.clone(), batches.to_vec());
    let (cols, offset, len) = all.columns().unwrap_or((&[], 0, 0));
    RelationStats::from_columns(schema, cols, offset..offset + len, buckets)
}

/// Resolve collected spans into step reports.
fn resolve_steps(
    collector: Collector,
    algos: Vec<Algo>,
    nodes: Vec<Option<usize>>,
) -> Vec<StepReport> {
    collector
        .finish()
        .into_iter()
        .zip(algos.into_iter().zip(nodes))
        .map(|(span, (algo, node))| StepReport {
            algo,
            label: span.name,
            inclusive_us: span.inclusive_us,
            exclusive_us: span.exclusive_us,
            out_rows: span.rows,
            out_bytes: span.bytes,
            server_us: span.server_us,
            counters: span.counters,
            events: span.events,
            annotations: span.annotations,
            children: span.children,
            node,
        })
        .collect()
}

/// The pre-order number of the node at `path` (child indices from the
/// root) of `plan`; `None` if there is no such node.
fn preorder(plan: &PhysNode, path: &[usize]) -> Option<usize> {
    let (mut n, mut pre) = (plan, 0);
    for &i in path {
        pre += 1 + n.children.get(..i)?.iter().map(PhysNode::node_count).sum::<usize>();
        n = n.children.get(i)?;
    }
    Some(pre)
}

/// Where each outermost `MATSCAN^M` of `n` sits, by name (`at` is `n`'s
/// own path).
fn mat_paths(n: &PhysNode, at: &mut Vec<usize>, out: &mut HashMap<String, Vec<usize>>) {
    if let Algo::MatScanM(name) = &n.algo {
        out.insert(name.clone(), at.clone());
        return;
    }
    for (i, c) in n.children.iter().enumerate() {
        at.push(i);
        mat_paths(c, at, out);
        at.pop();
    }
}

/// Pipeline breakers: operators that buffer (or can cheaply stage) their
/// entire output before the consumer reads a row.
fn is_breaker(a: &Algo) -> bool {
    matches!(a, Algo::TransferM | Algo::SortM(_) | Algo::SortXM(..) | Algo::TAggrM { .. })
}

/// Path of child indices to the first post-order pipeline breaker that
/// (a) is not the plan root, (b) has only middleware-resident ancestors
/// (the materialization must feed middleware operators for a splice to
/// be well-defined), and (c) has not already been consumed.
fn find_breaker(n: &PhysNode, is_root: bool) -> Option<Vec<usize>> {
    if matches!(n.algo, Algo::MatScanM(_)) || n.algo.site() != Site::Middleware {
        return None;
    }
    for (i, c) in n.children.iter().enumerate() {
        if let Some(mut p) = find_breaker(c, false) {
            p.insert(0, i);
            return Some(p);
        }
    }
    (!is_root && is_breaker(&n.algo)).then(Vec::new)
}

fn node_at<'p>(mut n: &'p PhysNode, path: &[usize]) -> &'p PhysNode {
    for &i in path {
        n = &n.children[i];
    }
    n
}

fn replace_at(n: &mut PhysNode, path: &[usize], new: PhysNode) {
    match path.split_first() {
        None => *n = new,
        Some((&i, rest)) => replace_at(&mut n.children[i], rest, new),
    }
}

/// The sort order a plan node's output is known to arrive in (`none`
/// when unknown): the algorithms' order contracts ([`Algo::delivered_order`])
/// folded over the plan. Pins the delivery order across a re-plan and
/// records what order each materialization holds.
pub(crate) fn delivered_order(n: &PhysNode, mats: &HashMap<String, SortSpec>) -> SortSpec {
    if let Algo::MatScanM(name) = &n.algo {
        return mats.get(name).cloned().unwrap_or_default();
    }
    let inputs: Vec<SortSpec> = n.children.iter().map(|c| delivered_order(c, mats)).collect();
    n.algo.delivered_order(&n.schema, &inputs)
}

/// Copy of the working plan with each `MATSCAN^M`'s rendered subtree
/// stripped, leaving only operators that still have work to do — the
/// basis for estimating the cost of the unexecuted remainder.
fn remainder_only(n: &PhysNode) -> PhysNode {
    let children = if matches!(n.algo, Algo::MatScanM(_)) {
        vec![]
    } else {
        n.children.iter().map(remainder_only).collect()
    };
    PhysNode { algo: n.algo.clone(), schema: n.schema.clone(), children }
}

/// Record each `MATSCAN^M` node (with its rendered subtree) by name.
fn collect_mat_subtrees(n: &PhysNode, out: &mut HashMap<String, PhysNode>) {
    if let Algo::MatScanM(name) = &n.algo {
        out.insert(name.clone(), n.clone());
        return;
    }
    for c in &n.children {
        collect_mat_subtrees(c, out);
    }
}

/// Replace each bare `MATSCAN^M` leaf in a freshly optimized remainder
/// with the recorded node that keeps the consumed subtree as its child.
fn attach_mat_subtrees(n: PhysNode, subtrees: &HashMap<String, PhysNode>) -> PhysNode {
    if let Algo::MatScanM(name) = &n.algo {
        if let Some(full) = subtrees.get(name) {
            return full.clone();
        }
        return n;
    }
    let PhysNode { algo, schema, children } = n;
    PhysNode {
        algo,
        schema,
        children: children.into_iter().map(|c| attach_mat_subtrees(c, subtrees)).collect(),
    }
}

struct Ctx<'a> {
    conn: &'a Connection,
    temp_tables: Vec<String>,
    collector: Collector,
    /// Algorithm of each collected span, index-aligned with the collector.
    algos: Vec<Algo>,
    /// Where in the plan being run each collected span's node sits (child
    /// indices from the root), index-aligned with the collector.
    paths: Vec<Vec<usize>>,
    /// The path of the node being built.
    at: Vec<usize>,
    temp_seq: usize,
    /// The middleware relation cache, when this execution runs with one.
    cache: Option<Arc<MidCache>>,
    /// Mid-query materializations staged by the re-planning policy, by
    /// name — what a `MATSCAN^M` leaf serves (once: serving moves the
    /// rows out).
    mats: HashMap<String, MatEntry>,
    /// Set once a cardinality-triggered re-plan has spliced the running
    /// plan: spans created after that point are annotated so the
    /// cost-factor feedback loop skips their (mixed-plan) observations.
    spliced: bool,
    /// Rows per batch, threaded into every operator constructor.
    batch_rows: usize,
    /// [`Executor::pricing`].
    pricing: TangoSem,
}

/// One mid-query materialization held by the engine.
struct MatEntry {
    schema: Arc<Schema>,
    /// The drained breaker output, as the batches it arrived in.
    batches: Vec<Batch>,
    /// The `MATSCAN^M` span that will serve it, created eagerly at
    /// materialization time so span order stays the post-order of the
    /// final plan.
    span: (usize, Arc<SpanSlot>),
}

/// What the cache decided for one `TRANSFER^M`, resolved at plan-build
/// time (before any SQL is issued).
enum CacheDecision {
    /// No cache configured — behave exactly as before the cache existed.
    Off,
    /// Fragment is uncacheable (temp scans / interior sort).
    Bypass,
    /// Resident and fresh: serve this relation, issue no SQL.
    Hit(cache::CachedRelation),
    /// Resident but stale, and refresh-by-delta succeeded at plan-build
    /// time: serve the spliced fragment — the batch the cache committed —
    /// and issue no fragment SQL (the delta fetch was the only wire
    /// traffic, none at all when the delta mirror served the records).
    Refresh { spliced: DeltaApply, delta_bytes: u64, mirrored: bool },
    /// Resident but stale, and the maintenance decision says the entry
    /// does not earn its keep: it was dropped, and the query streams
    /// normally *without* re-populating.
    Drop,
    /// Not resident (or stale and due a refetch): stream normally and
    /// populate on clean completion. `label` says why we are streaming
    /// (`miss` or `refetch`); `bail` carries the reason when a refresh
    /// attempt degraded here. `invalidated` lists uncoverable
    /// same-signature entries dropped during lookup; `deps` the
    /// `(table, version)` pairs read *before* the fragment's SQL runs,
    /// so a concurrent write always invalidates; `fill_cost_us` its price.
    Miss {
        cache: Arc<MidCache>,
        key: cache::FragmentKey,
        deps: Vec<(String, u64)>,
        fill_cost_us: f64,
        invalidated: Vec<String>,
        label: &'static str,
        bail: Option<refresh::RefreshBail>,
    },
}

impl<'a> Ctx<'a> {
    fn new(
        conn: &'a Connection,
        cache: Option<&Arc<MidCache>>,
        batch_rows: usize,
        pricing: TangoSem,
    ) -> Ctx<'a> {
        Ctx {
            conn,
            temp_tables: Vec::new(),
            collector: Collector::new(),
            algos: Vec::new(),
            paths: Vec::new(),
            at: Vec::new(),
            temp_seq: 0,
            cache: cache.cloned(),
            mats: HashMap::new(),
            spliced: false,
            batch_rows,
            pricing,
        }
    }

    fn new_slot(&mut self, algo: Algo, children: Vec<usize>) -> (usize, Arc<SpanSlot>) {
        let site = match algo.site() {
            Site::Middleware => SpanSite::Middleware,
            Site::Dbms => SpanSite::Dbms,
        };
        let label = algo.label();
        self.algos.push(algo);
        self.paths.push(self.at.clone());
        let (idx, slot) = self.collector.span(label, site, children);
        if self.spliced {
            slot.add_annotation("replan", "spliced");
        }
        (idx, slot)
    }

    /// Run the middleware-resident subtree at `path` from `open` to
    /// `close`. Returns its output, as the batches it arrived in, and its
    /// span index.
    fn materialize(
        &mut self,
        node: &PhysNode,
        path: &[usize],
    ) -> Result<(Arc<Schema>, Vec<Batch>, usize)> {
        self.at = path.to_vec();
        let (mut cur, idx) = self.build_mid(node)?;
        cur.open()?;
        let schema = cur.schema().clone();
        let batches = drain_batches(cur.as_mut(), self.batch_rows)?;
        cur.close()?;
        Ok((schema, batches, idx))
    }

    /// The re-planning policy (see [`Replan`]): stage `work`'s pipeline
    /// breakers one at a time, leaving each as a `MATSCAN^M` over its
    /// materialized output, and re-optimize what remains above them
    /// whenever a breaker's actual cardinality diverges from its estimate.
    fn stage_breakers(&mut self, cfg: &Replan, work: &mut PhysNode) -> Result<()> {
        // what a plan costs as the optimizer prices it, given everything
        // observed so far — both sides of every re-plan decision
        let priced = |sem: &TangoSem, plan: &PhysNode| -> Option<f64> {
            Some(sem.price(plan).ok()?.iter().map(|e| e.est_cost_us).sum())
        };
        // the delivery order the chosen plan promised — every re-optimized
        // remainder is pinned to it so the splice cannot change the result
        let pinned = delivered_order(work, &self.pricing.materialized).project_onto(&work.schema);
        let mut analyzed = HashSet::new();
        for mat_seq in 0..MAX_STAGES {
            let Some(path) = find_breaker(work, true) else { break };
            let breaker = node_at(work, &path).clone();
            // what the optimizer believes this breaker will produce: the
            // fold of what still runs (a subtree an earlier MATSCAN^M
            // consumed is not derived again)
            let believed = self.pricing.stats(&remainder_only(&breaker)).ok();
            let est_rows = believed.as_ref().map(|s| s.rows);
            let (schema, batches, breaker_idx) = self.materialize(&breaker, &path)?;
            let slot = self.collector.slot(breaker_idx).clone();
            let actual: usize = batches.iter().map(Batch::len).sum();

            // register the materialization: its observed size (the span
            // counted it while the breaker drained) over the attribute
            // statistics the optimizer believed — measuring those is an
            // ANALYZE, left to a re-plan that needs them — the order it
            // holds, and the span that will serve it (created now so span
            // order stays the post-order of the final plan)
            let name = format!("#MAT{mat_seq}");
            let order = delivered_order(&breaker, &self.pricing.materialized);
            let mut stats = RelationStats::of_size(actual, slot.bytes(), &schema);
            // the believed attributes move over: the fold derived them
            // for this breaker alone, unless it passes a table's shared
            // statistics on unchanged (those are copied)
            #[cfg(test)]
            if believed.as_ref().is_some_and(|b| Arc::strong_count(b) > 1) {
                STATS_COPIES.with(|n| n.set(n.get() + 1));
            }
            stats.attrs = believed.map(|b| Arc::unwrap_or_clone(b).attrs).unwrap_or_default();
            let entry = (schema.clone(), Arc::new(stats));
            Arc::make_mut(&mut self.pricing.catalog).insert(name.clone(), entry);
            self.pricing.materialized.insert(name.clone(), order);
            // the breaker moves under its MATSCAN^M, and every node run
            // so far below it with it
            for p in self.paths.iter_mut().filter(|p| p.starts_with(&path)) {
                p.insert(path.len(), 0);
            }
            let span = self.new_slot(Algo::MatScanM(name.clone()), vec![breaker_idx]);
            self.mats.insert(name.clone(), MatEntry { schema, batches, span });
            replace_at(
                work,
                &path,
                PhysNode {
                    algo: Algo::MatScanM(name),
                    schema: breaker.schema.clone(),
                    children: vec![breaker],
                },
            );

            // the misestimate monitor — unless a wire fault already
            // re-planned this breaker mid-drain (never re-plan twice
            // over one observation)
            let divergence = est_rows.map(|est| {
                let e = est.max(1.0);
                let a = (actual as f64).max(1.0);
                (a / e).max(e / a)
            });
            let triggered =
                !slot.has_event("replan") && divergence.map(|d| d >= cfg.ratio).unwrap_or(false);
            if !triggered {
                continue;
            }
            // a re-plan is wanted: only now ANALYZE what it will be
            // planned over — every materialization still held
            let catalog = Arc::make_mut(&mut self.pricing.catalog);
            for (name, mat) in &self.mats {
                if analyzed.insert(name.clone()) {
                    #[cfg(test)]
                    MAT_ANALYZES.with(|n| n.set(n.get() + 1));
                    let stats = analyze(&mat.schema, &mat.batches, cfg.histogram_buckets);
                    catalog.insert(name.clone(), (mat.schema.clone(), Arc::new(stats)));
                }
            }
            // no feasible alternative: keep the running plan
            let Ok(new) =
                opt::optimize(&work.logical(), self.pricing.clone(), Some(pinned.clone()))
            else {
                continue;
            };
            let observed = format!(
                "est {est:.1} rows, actual {actual} ({div:.1}x off)",
                est = est_rows.unwrap_or(0.0),
                div = divergence.unwrap_or(0.0),
            );
            // the priced gain: the running remainder against the
            // re-optimized one, both through the one fold. An alternative
            // that prices no cheaper (the running plan itself, usually)
            // is declined — nothing is spliced, later spans stay clean
            let old_cost = priced(&self.pricing, &remainder_only(work));
            let new_cost = priced(&self.pricing, &new.plan);
            let gain = old_cost.zip(new_cost).map_or(0.0, |(old, new)| old - new);
            if gain <= 0.0 {
                slot.add_event(
                    "replan-declined",
                    format!(
                        "{observed}: remainder priced {old:.0}us as running, \
                         {new:.0}us re-optimized",
                        old = old_cost.unwrap_or(0.0),
                        new = new_cost.unwrap_or(0.0),
                    ),
                );
                continue;
            }
            slot.add_event(
                "cardinality-replan",
                format!("{observed}: remainder re-optimized, est gain {gain:.0}us"),
            );
            slot.add_counter("replans", 1);
            slot.add_counter("replan_gain_est", gain as u64);
            self.spliced = true;
            // splice: the optimizer returns bare MATSCAN^M leaves;
            // re-attach each one's consumed subtree for rendering, and
            // move the nodes run so far with their MATSCAN^M
            let mut subtrees = HashMap::new();
            collect_mat_subtrees(work, &mut subtrees);
            let (mut was, mut now) = (HashMap::new(), HashMap::new());
            mat_paths(work, &mut Vec::new(), &mut was);
            *work = attach_mat_subtrees(new.plan, &subtrees);
            mat_paths(work, &mut Vec::new(), &mut now);
            for p in &mut self.paths {
                let moved = was.iter().find(|(_, old)| p.starts_with(old));
                if let Some((to, old)) = moved.and_then(|(m, old)| Some((now.get(m)?, old))) {
                    p.splice(..old.len(), to.iter().copied());
                }
            }
        }
        Ok(())
    }

    /// Build the instrumented cursor for a middleware-resident node;
    /// returns it with its span index. Inputs are built first and the
    /// node's span is created before its cursor, so span order is the
    /// plan's post-order and a cursor can report into its own span.
    fn build_mid(&mut self, node: &PhysNode) -> Result<(BoxCursor, usize)> {
        match &node.algo {
            Algo::TransferM => return self.build_transfer_m(node),
            // serve a mid-query materialization by moving its batches out (each
            // is consumed once: staging never descends into a MATSCAN^M);
            // its span was created eagerly when the breaker drained, so
            // reuse it rather than appending a new one (children are kept
            // for rendering only)
            Algo::MatScanM(name) => {
                let MatEntry { schema, batches, span: (idx, slot) } =
                    self.mats.remove(name).ok_or_else(|| {
                        TangoError::Exec(format!(
                            "mid-query materialization {name} is unknown or was already served"
                        ))
                    })?;
                return Ok((self.instrument(Box::new(BatchScan::new(schema, batches)), slot), idx));
            }
            other if other.site() != Site::Middleware => {
                return Err(TangoError::Exec(format!(
                    "{} is not a middleware algorithm",
                    other.label()
                )))
            }
            _ => {}
        }
        let mut inputs = Vec::with_capacity(node.children.len());
        let mut child_ids = Vec::with_capacity(node.children.len());
        for (i, c) in node.children.iter().enumerate() {
            self.at.push(i);
            let (cursor, id) = self.build_mid(c)?;
            self.at.pop();
            inputs.push(cursor);
            child_ids.push(id);
        }
        let (idx, slot) = self.new_slot(node.algo.clone(), child_ids);
        let cursor = cursor_for(&node.algo, inputs, self.batch_rows)?;
        Ok((self.instrument(cursor, slot), idx))
    }

    /// `TRANSFER^M`: lower the DBMS fragment below it, settle the cache
    /// decision (before any SQL is issued), and build the cursor that
    /// serves the resident copy or streams the fragment's SELECT.
    fn build_transfer_m(&mut self, node: &PhysNode) -> Result<(BoxCursor, usize)> {
        // replace T^D descendants with temp scans, building their loader
        // cursors as prerequisites
        self.at.push(0);
        let (clean, prereqs, prereq_ids) = self.lower_dbms(&node.children[0])?;
        self.at.pop();
        let sql = to_sql::render_select(&clean)?;
        let (idx, slot) = self.new_slot(Algo::TransferM, prereq_ids);
        // a refresh is a delta round trip and a merge: this span's time
        let sw = Stopwatch::start(self.conn.wire_time());
        let (decision, prices) = self.consult_cache(&clean, &sql);
        slot.add_time(sw.elapsed(self.conn.wire_time()));
        // a stale entry's decision shows both of its prices
        let annotate = |verdict: &str| {
            slot.add_annotation("cache", verdict);
            if let Some(prices) = &prices {
                slot.add_annotation("maintenance", prices.as_str());
            }
        };
        let schema = node.schema.clone();
        let mut populate = None;
        match decision {
            CacheDecision::Hit(rel) => {
                // serve the resident copy: no SQL, no wire
                annotate("hit");
                let scan = Box::new(CachedScan::new(rel.batch.with_schema(schema)));
                return Ok((self.instrument(scan, slot), idx));
            }
            CacheDecision::Refresh { spliced, delta_bytes, mirrored } => {
                // serve the spliced copy: no fragment SQL
                let DeltaApply { batch, delta_rows, runs } = spliced;
                annotate("refresh");
                let what = match runs {
                    0 => "no change".to_string(),
                    _ => format!("spliced {delta_rows} delta rows into {runs} runs"),
                };
                let source = if mirrored { ", served by the delta mirror" } else { "" };
                slot.add_event("refresh", format!("{what} ({delta_bytes} delta bytes{source})"));
                let scan = Box::new(CachedScan::new(batch.with_schema(schema)));
                let did = vec![("delta_rows", delta_rows), ("refresh_runs", runs)];
                return Ok((self.instrument_with(scan, slot, did), idx));
            }
            CacheDecision::Off => {}
            CacheDecision::Bypass => annotate("bypass"),
            CacheDecision::Drop => {
                // the maintenance decision evicted the stale entry and
                // declined to refill it
                annotate("drop");
                slot.add_event(
                    "invalidate",
                    "stale entry dropped: refill would outcost its future hits".to_string(),
                );
            }
            CacheDecision::Miss { cache, key, deps, fill_cost_us, invalidated, label, bail } => {
                annotate(label);
                if let Some(reason) = &bail {
                    slot.add_event("refresh", format!("refresh bailed: {reason}"));
                }
                for stale in &invalidated {
                    slot.add_event("invalidate", format!("stale entry dropped: {stale}"));
                }
                populate =
                    Some(CachePopulate { cache, key, deps, fill_cost_us, batches: Vec::new() });
            }
        }
        let cursor = Box::new(TransferMCursor {
            conn: self.conn.clone(),
            sql,
            schema,
            // keep the cleaned fragment: if the DBMS side exhausts its
            // retries, the fragment is re-planned with middleware
            // operators (see `degrade`)
            fragment: clean,
            batch_rows: self.batch_rows,
            prereqs,
            cur: None,
            fallback: None,
            server_sink: slot.clone(),
            populate,
            populated_bytes: None,
            round_trips: 0,
            rows_emitted: 0,
            wire: WireMeter::new(self.conn, &slot),
            replans: 0,
        });
        Ok((self.instrument(cursor, slot), idx))
    }

    fn instrument(&self, inner: BoxCursor, slot: Arc<SpanSlot>) -> BoxCursor {
        self.instrument_with(inner, slot, Vec::new())
    }

    /// [`Ctx::instrument`] a cursor whose step also reports `driver`
    /// counters — what the engine did on its behalf before it opened.
    fn instrument_with(
        &self,
        inner: BoxCursor,
        slot: Arc<SpanSlot>,
        driver: Vec<(&'static str, u64)>,
    ) -> BoxCursor {
        Box::new(Instrumented { inner, slot, conn: self.conn.clone(), batches: 0, driver })
    }

    /// Decide hit/refresh/refetch/drop/miss/bypass for one `TRANSFER^M`
    /// fragment. Dependency versions are read here — *before* the
    /// fragment's SQL is issued — so a write racing the query always
    /// invalidates the entry we would populate. A miss prices the fill
    /// (a fragment the model cannot price is a bypass); a stale entry is
    /// settled by [`cache::maintenance_choice`] and returned with both of
    /// its prices, rendered.
    fn consult_cache(&self, clean: &PhysNode, sql: &str) -> (CacheDecision, Option<String>) {
        let Some(cache) = &self.cache else { return (CacheDecision::Off, None) };
        let is_temp = |t: &str| t.to_uppercase().starts_with("TANGO_TMP_");
        let Some(key) = cache::fragment_key(clean, sql, &is_temp) else {
            cache.note_bypass();
            return (CacheDecision::Bypass, None);
        };
        let version_of = |t: &str| self.conn.table_version(t);
        let delta_bytes_of = |t: &str, since: u64| self.conn.delta_bytes_since(t, since);
        // the `(table, version)` snapshot a populate would record, read
        // before any SQL; `None` = a referenced table has no version
        // (dictionary view, dropped mid-build): don't populate
        let read_deps = |key: &cache::FragmentKey| -> Option<Vec<(String, u64)>> {
            key.tables.iter().map(|t| self.conn.table_version(t).map(|v| (t.clone(), v))).collect()
        };
        let miss = |cache: &Arc<MidCache>,
                    key: cache::FragmentKey,
                    invalidated: Vec<String>,
                    label: &'static str,
                    bail: Option<refresh::RefreshBail>| {
            match read_deps(&key).zip(self.pricing.fill_cost_us(clean).ok()) {
                None => {
                    cache.note_bypass();
                    CacheDecision::Bypass
                }
                Some((deps, fill_cost_us)) => CacheDecision::Miss {
                    cache: cache.clone(),
                    key,
                    deps,
                    fill_cost_us,
                    invalidated,
                    label,
                    bail,
                },
            }
        };
        let (entry, invalidated) = match cache.lookup(&key, &version_of, &delta_bytes_of) {
            cache::Lookup::Hit(rel) => return (CacheDecision::Hit(rel), None),
            cache::Lookup::Miss { invalidated } => {
                return (miss(cache, key, invalidated, "miss", None), None)
            }
            cache::Lookup::Stale { entry, invalidated } => (entry, invalidated),
        };
        // address the entry by its *stored* order for the commit
        let mut addr = key.clone();
        addr.order = entry.order.clone();
        let supported = refresh::supported(clean, &entry.order);
        let (factors, fill, delta) = (&self.pricing.factors, entry.fill_cost_us, entry.delta_bytes);
        let bytes = entry.batch.byte_size() as u64;
        let refresh_us = cache::refresh_cost_us(factors, bytes, delta);
        let op = if refresh_us <= fill { "≤" } else { ">" };
        let prices = format!("refresh {refresh_us:.1} µs {op} refetch {fill:.1} µs");
        let choice = cache::maintenance_choice(factors, bytes, delta, fill, entry.hits, supported);
        let decision = match choice {
            cache::Maintenance::Refresh => {
                match refresh::try_refresh(self.conn, cache, clean, &entry, self.batch_rows) {
                    Ok(refresh::Refreshed { spliced, new_deps, delta_bytes, mirrored }) => {
                        // a losing race (entry evicted or already
                        // refreshed by a peer) only means our batch
                        // doesn't enter the cache; it is still
                        // the correct current result to serve
                        cache.refresh(&addr, spliced.batch.clone(), new_deps, delta_bytes);
                        CacheDecision::Refresh { spliced, delta_bytes, mirrored }
                    }
                    Err(reason) => {
                        cache.note_refresh_bail(&reason);
                        miss(cache, key, invalidated, "miss", Some(reason))
                    }
                }
            }
            cache::Maintenance::Refetch => {
                cache.remove(&addr);
                miss(cache, key, invalidated, "refetch", None)
            }
            cache::Maintenance::Drop => {
                cache.remove(&addr);
                CacheDecision::Drop
            }
        };
        (decision, Some(prices))
    }

    /// Replace `T^D` nodes inside a DBMS fragment with temp-table scans;
    /// returns the cleaned fragment plus the loader cursors that must be
    /// opened before the fragment's SQL runs.
    fn lower_dbms(&mut self, node: &PhysNode) -> Result<(PhysNode, Vec<BoxCursor>, Vec<usize>)> {
        if node.algo == Algo::TransferD {
            self.at.push(0);
            let (input, input_id) = self.build_mid(&node.children[0])?;
            self.at.pop();
            self.temp_seq += 1;
            let table = format!("TANGO_TMP_{}", self.temp_seq);
            self.temp_tables.push(table.clone());
            let scan = PhysNode {
                algo: Algo::ScanD(table.clone()),
                schema: node.schema.clone(),
                children: vec![],
            };
            let (idx, slot) = self.new_slot(Algo::TransferD, vec![input_id]);
            let loader = TransferDCursor {
                table,
                schema: node.schema.clone(),
                input: Some(input),
                batch_rows: self.batch_rows,
                rows_loaded: 0,
                wire: WireMeter::new(self.conn, &slot),
            };
            return Ok((scan, vec![self.instrument(Box::new(loader), slot)], vec![idx]));
        }
        if node.algo.site() == Site::Middleware {
            return Err(TangoError::Exec(format!(
                "middleware algorithm {} below a DBMS fragment without a transfer",
                node.algo.label()
            )));
        }
        let mut children = Vec::with_capacity(node.children.len());
        let mut prereqs = Vec::new();
        let mut ids = Vec::new();
        for (k, c) in node.children.iter().enumerate() {
            self.at.push(k);
            let (cc, mut p, mut i) = self.lower_dbms(c)?;
            self.at.pop();
            children.push(cc);
            prereqs.append(&mut p);
            ids.append(&mut i);
        }
        Ok((
            PhysNode { algo: node.algo.clone(), schema: node.schema.clone(), children },
            prereqs,
            ids,
        ))
    }
}

/// Cursor wrapper measuring time spent in `open`/`next_batch` — wall clock
/// *plus* any simulated wire time charged while the call ran (so the
/// feedback loop sees transfer costs the way the experiments report
/// them) — and the output volume.
struct Instrumented {
    inner: BoxCursor,
    slot: Arc<SpanSlot>,
    conn: Connection,
    /// Batches this operator produced (reported as a `batches` counter
    /// at close unless it produced none, like a `TRANSFER^D` loader).
    batches: u64,
    /// Counters of the engine's own work for this step (a refresh's
    /// `delta_rows` / `refresh_runs`), reported after the cursor's.
    driver: Vec<(&'static str, u64)>,
}

impl Instrumented {
    fn measure<T>(&mut self, f: impl FnOnce(&mut BoxCursor) -> T) -> T {
        // the per-connection meter, not the shared link clock: other
        // sessions on the same link must not inflate this span
        let sw = Stopwatch::start(self.conn.wire_time());
        let r = f(&mut self.inner);
        self.slot.add_time(sw.elapsed(self.conn.wire_time()));
        r
    }
}

impl Cursor for Instrumented {
    fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    fn open(&mut self) -> tango_xxl::Result<()> {
        self.measure(|c| c.open())
    }

    fn next_batch(&mut self, max_rows: usize) -> tango_xxl::Result<Option<Batch>> {
        // one stopwatch sample and one row/byte accumulation per batch
        let r = self.measure(|c| c.next_batch(max_rows));
        if let Ok(Some(b)) = &r {
            self.batches += 1;
            self.slot.add_batch(b.len() as u64, b.byte_size() as u64);
            #[cfg(test)]
            if !b.is_columnar() {
                ROWS_HANDED_UP_BOXED.with(|n| n.set(n.get() + b.len()));
            }
        }
        r
    }

    fn close(&mut self) -> tango_xxl::Result<()> {
        // sample the operator's counters before it releases its state
        let mut counters = self.inner.counters();
        counters.extend(self.driver.iter().copied());
        if self.batches > 0 {
            counters.push(("batches", self.batches));
        }
        self.slot.set_counters(counters);
        self.measure(|c| c.close())
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }
}

/// Map a classified DBMS error into the matching cursor error, keeping
/// the wire taxonomy intact for logic above.
fn wire_exec_err(e: &tango_minidb::DbError) -> tango_xxl::ExecError {
    match e.class() {
        ErrorClass::Transient => {
            tango_xxl::ExecError::Wire { fatal: false, timeout: false, msg: e.to_string() }
        }
        ErrorClass::Timeout => {
            tango_xxl::ExecError::Wire { fatal: false, timeout: true, msg: e.to_string() }
        }
        ErrorClass::Fatal => {
            tango_xxl::ExecError::Wire { fatal: true, timeout: false, msg: e.to_string() }
        }
        ErrorClass::Logic => tango_xxl::ExecError::Dbms(e.to_string()),
    }
}

/// The cursor evaluating middleware algorithm `algo` over `inputs` (in
/// argument order) — the one algorithm → cursor table. The transfers and
/// `MATSCAN^M` are the engine's own cursors, built where their state is.
fn cursor_for(
    algo: &Algo,
    inputs: Vec<BoxCursor>,
    batch_rows: usize,
) -> tango_xxl::Result<BoxCursor> {
    let state = |what: &str| tango_xxl::ExecError::State(format!("{} {what}", algo.label()));
    let mut inputs = inputs.into_iter();
    let mut input = || inputs.next().ok_or_else(|| state("lacks an input"));
    Ok(match algo {
        Algo::FilterM(pred) => Box::new(Filter::new(input()?, pred.clone())),
        Algo::ProjectM(items) => Box::new(Project::new(input()?, items.clone())?),
        Algo::SortM(spec) => Box::new(Sort::with_batch_rows(input()?, spec.clone(), batch_rows)),
        Algo::SortXM(spec, run_rows) => {
            Box::new(ExternalSort::with_batch_rows(input()?, spec.clone(), *run_rows, batch_rows))
        }
        Algo::MergeJoinM(eq) => {
            Box::new(MergeJoin::with_batch_rows(input()?, input()?, eq, batch_rows)?)
        }
        Algo::TMergeJoinM(eq) => {
            Box::new(TemporalMergeJoin::with_batch_rows(input()?, input()?, eq, batch_rows)?)
        }
        Algo::TAggrM { group_by, aggs } => Box::new(TemporalAggregate::with_batch_rows(
            input()?,
            group_by.clone(),
            aggs.clone(),
            batch_rows,
        )?),
        Algo::DupElimM => Box::new(DupElim::new(input()?)),
        Algo::CoalesceM => Box::new(Coalesce::with_batch_rows(input()?, batch_rows)?),
        Algo::TDiffM => Box::new(TemporalDiff::with_batch_rows(input()?, input()?, batch_rows)?),
        _ => return Err(state("has no middleware cursor")),
    })
}

/// Build a middleware evaluation of a DBMS plan fragment — the re-plan
/// fallback: every base relation (including already-loaded temp tables)
/// is fetched with a plain `SELECT *`-shaped `T^M`, and the fragment's
/// relational work runs on each operator's middleware algorithm
/// ([`Algo::mid`]), with a `SORT^M`
/// wherever its order contract asks for an order. This is the transfer
/// operator "flipped": `T^M ∘ fragment^D` becomes `fragment^M ∘ T^M`.
fn middleware_fallback(
    conn: &Connection,
    node: &PhysNode,
    batch_rows: usize,
) -> tango_xxl::Result<BoxCursor> {
    if let Algo::ScanD(table) = &node.algo {
        let cols: Vec<&str> = node.schema.attrs().iter().map(|a| a.name.as_str()).collect();
        let sql = format!("SELECT {} FROM {}", cols.join(", "), table);
        return Ok(Box::new(FetchCursor {
            conn: conn.clone(),
            sql,
            schema: node.schema.clone(),
            batch_rows,
            cur: None,
        }));
    }
    let mut inputs: Vec<BoxCursor> = node
        .children
        .iter()
        .map(|c| middleware_fallback(conn, c, batch_rows))
        .collect::<tango_xxl::Result<_>>()?;
    let algo = match &node.algo {
        Algo::SortD(spec) => Algo::SortM(spec.clone()),
        // the one operator without a middleware algorithm of its own
        Algo::ProductD => {
            let (Some(r), Some(l)) = (inputs.pop(), inputs.pop()) else {
                return Err(tango_xxl::ExecError::State("PRODUCT^D lacks an input".into()));
            };
            return Ok(Box::new(NestedLoopJoin::with_batch_rows(l, r, None, batch_rows)));
        }
        other => other.op().and_then(|op| Algo::mid(&op)).ok_or_else(|| {
            tango_xxl::ExecError::State(format!(
                "cannot re-plan {} in the middleware",
                other.label()
            ))
        })?,
    };
    let mut orders =
        algo.input_orders(&node.schema, &SortSpec::none()).unwrap_or_default().into_iter();
    let inputs = inputs
        .into_iter()
        .map(|c| match orders.next() {
            Some(order) if !order.is_none() => {
                Box::new(Sort::with_batch_rows(c, order, batch_rows))
            }
            _ => c,
        })
        .collect();
    cursor_for(&algo, inputs, batch_rows)
}

/// The one fault/retry meter of the wire cursors: samples the
/// connection's meters around a wire operation and records what the
/// operation added on the step's span — `fault` / `retry` events and the
/// `wire_faults` / `wire_retries` counters.
struct WireMeter {
    conn: Connection,
    sink: Arc<SpanSlot>,
    faults: u64,
    retries: u64,
}

impl WireMeter {
    fn new(conn: &Connection, sink: &Arc<SpanSlot>) -> Self {
        WireMeter { conn: conn.clone(), sink: sink.clone(), faults: 0, retries: 0 }
    }

    /// Run `op` against the connection and record the faults and retries
    /// the connection saw meanwhile.
    fn around<T>(&mut self, op: impl FnOnce(&Connection) -> T) -> T {
        let before = (self.conn.wire_faults(), self.conn.wire_retries());
        let out = op(&self.conn);
        let faults = self.conn.wire_faults() - before.0;
        let retries = self.conn.wire_retries() - before.1;
        self.faults += faults;
        self.retries += retries;
        if faults > 0 {
            self.sink.add_event("fault", format!("{faults} wire fault(s) injected"));
        }
        if retries > 0 {
            self.sink.add_event("retry", format!("{retries} retr(y/ies) with backoff"));
        }
        out
    }

    /// The step counters, present only once non-zero.
    fn counters(&self, c: &mut Vec<(&'static str, u64)>) {
        if self.retries > 0 {
            c.push(("wire_retries", self.retries));
        }
        if self.faults > 0 {
            c.push(("wire_faults", self.faults));
        }
    }
}

/// A submitted statement must deliver the arity its plan node promises.
fn check_arity(what: &str, cur: &DbCursor, schema: &Schema) -> tango_xxl::Result<()> {
    if cur.schema().len() == schema.len() {
        return Ok(());
    }
    Err(tango_xxl::ExecError::Dbms(format!(
        "{what} arity mismatch: expected {}, got {}",
        schema.len(),
        cur.schema().len()
    )))
}

/// The one fetch rule of the middleware's wire readers: open `sql` with
/// a fetch size of one executor batch, the link's default prefetch as the
/// floor — a transfer makes one round trip per batch, and a batch-1 run
/// still pays exactly the link's prefetch windows.
pub(crate) fn query_batched(
    conn: &Connection,
    sql: &str,
    batch_rows: usize,
) -> tango_minidb::Result<DbCursor> {
    let mut cur = conn.query(sql)?;
    cur.set_fetch_size(batch_rows.max(cur.fetch_size()));
    Ok(cur)
}

/// Read the whole result of `sql` under the [`query_batched`] rule: the
/// columnar batches its trips decode into.
pub(crate) fn fetch_all(
    conn: &Connection,
    sql: &str,
    batch_rows: usize,
) -> tango_minidb::Result<Vec<Batch>> {
    let mut cur = query_batched(conn, sql, batch_rows)?;
    std::iter::from_fn(|| cur.fetch_columns().transpose()).collect()
}

/// A [`query_batched`] cursor served `max` rows per pull, at most one
/// wire trip each, as the columnar batches its trips decode into. A
/// trip's rows beyond the request (when the batch is below the link's
/// prefetch floor) wait in `buf` and are handed on as zero-copy slices;
/// a pull that spans two trips concatenates its two pieces.
struct BatchReader {
    cur: DbCursor,
    /// Trips fetched and not yet handed on, front first.
    buf: VecDeque<Batch>,
    /// Rows of the front trip already handed on.
    at: usize,
    /// The server has no rows left: a trip came back short or empty.
    done: bool,
}

impl BatchReader {
    fn new(cur: DbCursor) -> Self {
        BatchReader { cur, buf: VecDeque::new(), at: 0, done: false }
    }

    fn next(&mut self, max: usize) -> tango_minidb::Result<Option<Batch>> {
        let buffered = self.buf.iter().map(Batch::len).sum::<usize>() - self.at;
        if buffered < max && !self.done {
            match self.cur.fetch_columns()? {
                Some(trip) => {
                    self.done = trip.len() < self.cur.fetch_size();
                    if self.buf.is_empty() && trip.len() <= max {
                        return Ok(Some(trip));
                    }
                    self.buf.push_back(trip);
                }
                None => self.done = true,
            }
        }
        let mut pieces = Vec::new();
        let mut want = max;
        while let Some(front) = self.buf.front().filter(|_| want > 0) {
            let n = (front.len() - self.at).min(want);
            pieces.push(if n == front.len() { front.clone() } else { front.slice(self.at, n) });
            (self.at, want) = (self.at + n, want - n);
            if self.at == front.len() {
                self.buf.pop_front();
                self.at = 0;
            }
        }
        Ok(match pieces.len() {
            0 | 1 => pieces.pop(),
            _ => Some(Batch::concat(pieces[0].schema().clone(), pieces)),
        })
    }

    /// Every row of the result has been handed out.
    fn drained(&self) -> bool {
        self.done && self.buf.is_empty()
    }
}

/// Fetches one base relation for the re-plan fallback: a plain SELECT
/// over the same faulty link (its transfers still go through the
/// connection's retry loop, metered by the degraded `TRANSFER^M`).
struct FetchCursor {
    conn: Connection,
    sql: String,
    schema: Arc<Schema>,
    batch_rows: usize,
    cur: Option<BatchReader>,
}

impl Cursor for FetchCursor {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> tango_xxl::Result<()> {
        let cur =
            query_batched(&self.conn, &self.sql, self.batch_rows).map_err(|e| wire_exec_err(&e))?;
        check_arity("fallback fetch", &cur, &self.schema)?;
        self.cur = Some(BatchReader::new(cur));
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> tango_xxl::Result<Option<Batch>> {
        let cur = self
            .cur
            .as_mut()
            .ok_or_else(|| tango_xxl::ExecError::State("fallback fetch not opened".into()))?;
        let batch = cur.next(max_rows.max(1)).map_err(|e| wire_exec_err(&e))?;
        Ok(batch.map(|b| b.with_schema(self.schema.clone())))
    }

    fn close(&mut self) -> tango_xxl::Result<()> {
        self.cur = None;
        Ok(())
    }
}

/// `TRANSFER^M`: issues the translated SELECT and streams the rows out
/// of the (wire-charged) DBMS cursor. Any `T^D` loaders feeding temp
/// tables referenced by the SQL are opened first.
///
/// Degradation: if the DBMS statement exhausts the connection's retry
/// budget (or times out) before any row was delivered, the cursor
/// **re-plans** — it evaluates its DBMS fragment with middleware
/// operators over plain base-relation fetches (`middleware_fallback`)
/// instead of failing the query, and records a `replan` event on its
/// span. Once rows have been emitted the failure propagates: a partial
/// result must never be silently restarted.
struct TransferMCursor {
    conn: Connection,
    sql: String,
    schema: Arc<Schema>,
    /// The cleaned DBMS fragment (temp scans in place of `T^D`), kept
    /// for re-planning.
    fragment: PhysNode,
    /// The executor's batch: the fetch size of the SQL's cursor (see
    /// [`query_batched`]) and of the operators a re-plan builds.
    batch_rows: usize,
    prereqs: Vec<BoxCursor>,
    cur: Option<BatchReader>,
    /// The middleware re-plan of `fragment`, once degraded.
    fallback: Option<BoxCursor>,
    /// Sink for the producing statement's server-side execution time
    /// and for replan and cache events.
    server_sink: Arc<SpanSlot>,
    /// Pending cache population (a cache miss): the batches emitted are
    /// kept, and concatenated into the entry only if the stream drains
    /// cleanly.
    /// Dropped on degrade — a re-planned or partial result must never
    /// populate the cache.
    populate: Option<CachePopulate>,
    /// Byte size of the entry this cursor populated, once it has.
    populated_bytes: Option<u64>,
    round_trips: u64,
    rows_emitted: u64,
    /// Faults and retries of the SQL's own transfers and, once
    /// degraded, of the fallback's base fetches.
    wire: WireMeter,
    replans: u64,
}

/// State carried by a `TRANSFER^M` that missed the cache and intends to
/// populate it on clean completion.
struct CachePopulate {
    cache: Arc<MidCache>,
    key: cache::FragmentKey,
    /// `(table, write-version)` pairs read before the SQL was issued.
    deps: Vec<(String, u64)>,
    /// The entry's price, fixed at the miss.
    fill_cost_us: f64,
    /// Every batch fetched off the wire so far, in stream order.
    batches: Vec<Batch>,
}

impl TransferMCursor {
    /// The graceful-degradation path: flip the transfer operator and
    /// evaluate the fragment in the middleware. Only transient/timeout
    /// failures degrade; everything else propagates.
    fn degrade(&mut self, when: &str, e: &tango_minidb::DbError) -> tango_xxl::Result<()> {
        match e.class() {
            ErrorClass::Transient | ErrorClass::Timeout => {}
            _ => return Err(wire_exec_err(e)),
        }
        // a fallback's rows were not produced by the keyed fragment's SQL
        // over a consistent base-table snapshot: never populate from it
        self.populate = None;
        self.replans += 1;
        self.server_sink.add_event(
            "replan",
            format!(
                "DBMS fragment failed at {when} ({e}); \
                 re-planned with middleware operators over base fetches"
            ),
        );
        let mut fb = middleware_fallback(&self.conn, &self.fragment, self.batch_rows)?;
        self.wire.around(|_| fb.open())?;
        self.cur = None;
        self.fallback = Some(fb);
        Ok(())
    }

    /// The stream drained cleanly (no fault, no fallback, no error up to
    /// end-of-stream): admit the kept batches into the cache as one, at
    /// the price the miss fixed.
    fn finish_populate(&mut self) {
        let Some(p) = self.populate.take() else { return };
        let batch = Batch::concat(self.schema.clone(), p.batches);
        let admission = p.cache.insert(&p.key, batch, p.deps, p.fill_cost_us);
        let bytes = admission.bytes;
        if admission.admitted {
            self.populated_bytes = Some(bytes);
        }
        let s = &self.server_sink;
        match admission.outcome {
            cache::AdmitOutcome::Admitted | cache::AdmitOutcome::Oversized => {}
            // a racing session populated the same entry first; this
            // drain admits nothing (exactly-one-populate)
            cache::AdmitOutcome::Duplicate => {
                s.add_event("populate-duplicate", "already populated by a concurrent session");
            }
            cache::AdmitOutcome::Rejected => {
                s.add_event(
                    "admission-reject",
                    format!("{bytes}-byte entry lost the admission contest"),
                );
            }
        }
        for (sql, b) in &admission.evicted {
            s.add_event("evict", format!("evicted {b}-byte entry: {sql}"));
        }
    }
}

impl Cursor for TransferMCursor {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> tango_xxl::Result<()> {
        for p in &mut self.prereqs {
            p.open()?;
        }
        match self.wire.around(|conn| query_batched(conn, &self.sql, self.batch_rows)) {
            Ok(cur) => {
                check_arity("translated SQL", &cur, &self.schema)?;
                self.server_sink.add_server_time(cur.server_time());
                self.round_trips += 1;
                self.cur = Some(BatchReader::new(cur));
                Ok(())
            }
            Err(e) => self.degrade("submit", &e),
        }
    }

    fn next_batch(&mut self, max_rows: usize) -> tango_xxl::Result<Option<Batch>> {
        let max = max_rows.max(1);
        if let Some(fb) = &mut self.fallback {
            let r = self.wire.around(|_| fb.next_batch(max));
            if let Ok(Some(b)) = &r {
                self.rows_emitted += b.len() as u64;
            }
            return r;
        }
        let Some(cur) = self.cur.as_mut() else {
            return Err(tango_xxl::ExecError::State("TRANSFER^M not opened".into()));
        };
        match self.wire.around(|_| cur.next(max)) {
            Ok(Some(batch)) => {
                let drained = cur.drained();
                let batch = batch.with_schema(self.schema.clone());
                self.rows_emitted += batch.len() as u64;
                if let Some(p) = &mut self.populate {
                    p.batches.push(batch.clone());
                }
                if drained {
                    self.finish_populate();
                }
                Ok(Some(batch))
            }
            Ok(None) => {
                self.finish_populate();
                Ok(None)
            }
            // nothing delivered yet: safe to re-plan, at batch granularity
            Err(e) if self.rows_emitted == 0 => {
                self.degrade("fetch", &e)?;
                self.next_batch(max)
            }
            Err(e) => Err(wire_exec_err(&e)),
        }
    }

    fn close(&mut self) -> tango_xxl::Result<()> {
        self.cur = None;
        if let Some(mut fb) = self.fallback.take() {
            fb.close()?;
        }
        for p in &mut self.prereqs {
            p.close()?;
        }
        Ok(())
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut c = vec![("sql_round_trips", self.round_trips)];
        self.wire.counters(&mut c);
        if self.replans > 0 {
            c.push(("replans", self.replans));
        }
        if let Some(b) = self.populated_bytes {
            c.push(("cache_bytes", b));
        }
        c
    }
}

/// `TRANSFER^D`: during `open`, drains its argument and direct-path
/// loads it into a fresh DBMS table. Produces no tuples itself — it is a
/// prerequisite step, as in Figure 5 where the top `TRANSFER^M` "does
/// not take any arguments, but must be preceded by the `TRANSFER^D`".
struct TransferDCursor {
    table: String,
    schema: Arc<Schema>,
    input: Option<BoxCursor>,
    /// Rows per pull while draining `input` (the executor's batch size).
    batch_rows: usize,
    rows_loaded: u64,
    /// Faults and retries of the bulk load.
    wire: WireMeter,
}

impl Cursor for TransferDCursor {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> tango_xxl::Result<()> {
        let mut input = self
            .input
            .take()
            .ok_or_else(|| tango_xxl::ExecError::State("TRANSFER^D reopened".into()))?;
        input.open()?;
        let batches = drain_batches(input.as_mut(), self.batch_rows)?;
        input.close()?;
        self.rows_loaded = batches.iter().map(|b| b.len() as u64).sum();
        // Metered around the load alone, so nested `T^M` activity never
        // shows up on this span.
        let schema = self.schema.as_ref().clone();
        self.wire
            .around(|conn| conn.load_direct_batches(&self.table, schema, batches))
            .map_err(|e| wire_exec_err(&e))?;
        Ok(())
    }

    fn next_batch(&mut self, _max_rows: usize) -> tango_xxl::Result<Option<Batch>> {
        Ok(None)
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut c = vec![("rows_loaded", self.rows_loaded), ("sql_round_trips", 1)];
        self.wire.counters(&mut c);
        c
    }
}

#[cfg(test)]
impl ExecReport {
    /// Find the first step running the same algorithm *kind* (parameters
    /// ignored for parameterized variants).
    fn exec_step(&self, algo: &Algo) -> Option<&StepReport> {
        self.steps.iter().find(|s| std::mem::discriminant(&s.algo) == std::mem::discriminant(algo))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::CostFactors;
    use crate::phys::PhysNode;
    use std::sync::Arc;
    use tango_algebra::{tup, AggFunc, AggSpec, Attr, Expr, Schema, SortSpec, Type, Value};
    use tango_minidb::{Connection, Database};

    fn setup() -> Connection {
        let c = Connection::new(Database::in_memory());
        c.execute("CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(20), T1 INT, T2 INT)")
            .unwrap();
        c.execute("INSERT INTO POSITION VALUES (1,'Tom',2,20),(1,'Jane',5,25),(2,'Tom',5,10)")
            .unwrap();
        c
    }

    fn scan(c: &Connection, table: &str) -> PhysNode {
        PhysNode::scan(table, c.table_schema(table).unwrap())
    }

    fn execute(conn: &Connection, plan: &PhysNode) -> Result<(Relation, ExecReport)> {
        Executor::new(conn).run(plan).map(|run| (run.rel, run.report))
    }

    /// `leaf` under a chain of one-input algorithms, innermost first.
    fn chain(leaf: PhysNode, algos: impl IntoIterator<Item = Algo>) -> PhysNode {
        algos.into_iter().fold(leaf, |input, algo| PhysNode::over(algo, vec![input]).unwrap())
    }

    /// The Figure 5 shape below the final fetch: aggregate in the
    /// middleware, load the result back via TRANSFER^D, temporal-join
    /// against POSITION in the DBMS.
    fn figure5_join(conn: &Connection) -> PhysNode {
        let aggs = vec![AggSpec::new(AggFunc::Count, Some("PosID"), "COUNTofPosID")];
        let loaded = chain(
            scan(conn, "POSITION"),
            [
                Algo::SortD(SortSpec::by(["PosID", "T1"])),
                Algo::TransferM,
                Algo::TAggrM { group_by: vec!["PosID".into()], aggs },
                Algo::TransferD,
            ],
        );
        let eq = vec![("PosID".to_string(), "PosID".to_string())];
        PhysNode::over(Algo::TJoinD(eq), vec![loaded, scan(conn, "POSITION")]).unwrap()
    }

    fn figure5_plan(conn: &Connection) -> PhysNode {
        chain(figure5_join(conn), [Algo::SortD(SortSpec::by(["PosID"])), Algo::TransferM])
    }

    #[test]
    fn transfer_d_round_trip_executes_figure5() {
        let conn = setup();
        let (rel, report) = execute(&conn, &figure5_plan(&conn)).unwrap();
        assert_eq!(rel.len(), 5); // Figure 3(b)
                                  // temp table dropped afterwards
        assert!(!conn.database().table_names().iter().any(|t| t.starts_with("TANGO_TMP")));
        // report contains the T^D step with its input accounted
        let td = report.exec_step(&Algo::TransferD).expect("TRANSFER^D step missing");
        assert_eq!(td.out_rows, 0); // loader produces no stream
        assert!(report.steps.iter().any(|s| matches!(s.algo, Algo::TAggrM { .. })));
    }

    /// `TRANSFER^D` drains its argument at the session's batch size. One
    /// position with 30 disjoint versions: TAGGR^M stages whole groups,
    /// so a single group slices into exactly `ceil(rows / 7)` batches.
    #[test]
    fn transfer_d_drains_at_the_session_batch_size() {
        let conn = Connection::new(Database::in_memory());
        conn.execute("CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(20), T1 INT, T2 INT)")
            .unwrap();
        let versions: Vec<String> =
            (0..30).map(|v| format!("(1,'Tom',{},{})", 10 * v, 10 * v + 5)).collect();
        conn.execute(&format!("INSERT INTO POSITION VALUES {}", versions.join(","))).unwrap();
        let mut tango = crate::Tango::connect(conn.database().clone());
        tango.options_mut().batch_rows = Some(7);
        let (rel, report) = tango.execute_physical(&figure5_plan(&conn)).unwrap();
        assert_eq!(rel.len(), 30);
        let td = report.exec_step(&Algo::TransferD).expect("TRANSFER^D step missing");
        let arg = &report.steps[td.children[0]];
        assert!(matches!(arg.algo, Algo::TAggrM { .. }));
        assert_eq!(arg.out_rows, 30);
        let batches = arg.counters.iter().find(|(k, _)| *k == "batches").map(|(_, v)| *v);
        assert_eq!(batches, Some(30u64.div_ceil(7)), "T^D ignored batch_rows: {:?}", arg.counters);
    }

    /// An executor over `conn`'s statistics under default factors, staging
    /// breakers and re-planning at `ratio`.
    fn staged(conn: &Connection, ratio: f64) -> Executor<'_> {
        let catalog = Arc::new(crate::collector::collect(conn, true).unwrap());
        let (factors, options) = (CostFactors::default(), crate::opt::OptOptions::default());
        let pricing = TangoSem::new(catalog, factors, options, Arc::default(), HashMap::new());
        let replan = Some(Replan { ratio, histogram_buckets: 4 });
        Executor { pricing, replan, ..Executor::new(conn) }
    }

    /// A staged breaker is registered with its observed size over the
    /// attribute statistics the optimizer believed; it is ANALYZEd if and
    /// when the monitor triggers, to exactly the statistics an eager
    /// ANALYZE would have registered.
    #[test]
    fn materializations_are_analyzed_only_for_a_triggered_replan() {
        let conn = setup();
        conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
        let all = Expr::eq(Expr::col("PosID"), Expr::col("PosID"));
        let plan = chain(scan(&conn, "POSITION"), [Algo::TransferM, Algo::FilterM(all)]);
        let run_at = |ratio: f64| {
            let before = MAT_ANALYZES.with(|n| n.get());
            let run = staged(&conn, ratio).run(&plan).unwrap();
            let catalog = run.staged.unwrap().1.catalog;
            let stats = |t: &str| RelationStats::clone(&catalog[t].1);
            (MAT_ANALYZES.with(|n| n.get()) - before, stats("#MAT0"), stats("POSITION"), run.rel)
        };
        // a threshold nothing reaches, then one everything reaches
        let (analyzes, mat, base, rel) = run_at(f64::INFINITY);
        let observed = RelationStats::from_relation(&rel, 4);
        assert_eq!(analyzes, 0);
        assert_eq!(mat, RelationStats { attrs: base.attrs, ..observed.clone() });
        let (analyzes, mat, ..) = run_at(1.0);
        assert_eq!((analyzes, mat), (1, observed));
    }

    /// The re-plan's ANALYZE reads a materialization's columns: over the
    /// batches a multi-trip drain leaves — slices of one trip, so the
    /// concatenation keeps their offset, and then pieces of two trips
    /// with their own dictionaries — it is `from_relation` of the rows.
    #[test]
    fn the_replan_analyze_of_columns_is_that_of_their_rows() {
        let schema = Arc::new(Schema::new(vec![
            Attr::new("K", Type::Int),
            Attr::new("S", Type::Str),
            Attr::new("X", Type::Double),
            Attr::new("D", Type::Date),
        ]));
        let trip = |seed: i64| {
            let rows = (0..90)
                .map(|i| {
                    let k = (i * 7 + seed) % 23;
                    let s =
                        if k % 5 == 0 { Value::Null } else { Value::Str(format!("s{}", k % 6)) };
                    let x = if k % 7 == 0 {
                        Value::Double(-0.0)
                    } else {
                        Value::Double(k as f64 / 3.0)
                    };
                    tup![k, s, x, Value::Date((k * 40 + seed) as i32)]
                })
                .collect();
            Batch::new(schema.clone(), rows).columnarize()
        };
        let (a, b) = (trip(1), trip(5));
        for batches in [
            vec![a.slice(3, 40), a.slice(43, 30)],
            vec![a.slice(3, 40), b.slice(10, 25), a.slice(80, 10)],
        ] {
            let rows = batches.iter().cloned().flat_map(Batch::into_rows).collect();
            let want = RelationStats::from_relation(&Relation::new(schema.clone(), rows), 4);
            assert_eq!(analyze(&schema, &batches, 4), want);
        }
    }

    /// A failing plan must still clean up its temp tables, with and
    /// without re-planning: the left input's `T^D` loads its temp table
    /// (as the first staged breaker, or at the join's `open`), then the
    /// right input's SQL hits a missing table.
    #[test]
    fn temp_tables_cleaned_on_failure() {
        let conn = setup();
        let ghost = PhysNode::scan(
            "GHOST",
            Schema::with_inferred_period(vec![
                Attr::new("PosID", Type::Int),
                Attr::new("T1", Type::Int),
                Attr::new("T2", Type::Int),
            ]),
        );
        let eq = vec![("PosID".to_string(), "PosID".to_string())];
        let sides = [figure5_join(&conn), ghost].map(|side| chain(side, [Algo::TransferM]));
        let plan = PhysNode::over(Algo::TMergeJoinM(eq), sides.to_vec()).unwrap();
        for executor in [Executor::new(&conn), staged(&conn, 8.0)] {
            let staged = executor.replan.is_some();
            let err = executor.run(&plan).err();
            assert!(err.is_some(), "staged={staged}: the ghost scan must fail the query");
            assert!(
                !conn.database().table_names().iter().any(|t| t.starts_with("TANGO_TMP")),
                "staged={staged}: temp table survived the failure"
            );
        }
    }

    /// The algorithms of `n`'s nodes, in pre-order.
    fn preorder_algos(n: &PhysNode, out: &mut Vec<Algo>) {
        out.push(n.algo.clone());
        n.children.iter().for_each(|c| preorder_algos(c, out));
    }

    /// Every step names the node of `plan` it ran, and that node runs the
    /// step's algorithm.
    fn assert_steps_on_their_nodes(plan: &PhysNode, report: &ExecReport) {
        let mut algos = Vec::new();
        preorder_algos(plan, &mut algos);
        for s in &report.steps {
            let node = s.node.unwrap_or_else(|| panic!("{} names no node", s.label));
            assert_eq!(
                algos.get(node),
                Some(&s.algo),
                "{} at node {node}\n{}",
                s.label,
                plan.render()
            );
        }
    }

    /// Figure 5's plan: the inner T^M, TAGGR^M and T^D steps are built
    /// before the outer T^M, and each names its own node; the DBMS
    /// interior nodes run inside the SQL and have no step.
    #[test]
    fn steps_name_their_nodes() {
        let conn = setup();
        let plan = figure5_plan(&conn);
        let (_, report) = execute(&conn, &plan).unwrap();
        // pre-order: 0=T^M 1=SORT^D 2=TJOIN^D 3=T^D 4=TAGGR^M 5=T^M 6=SORT^D 7=SCAN 8=SCAN
        let nodes: Vec<Option<usize>> = report.steps.iter().map(|s| s.node).collect();
        assert_eq!(nodes, [Some(5), Some(4), Some(3), Some(0)]);
        assert_steps_on_their_nodes(&plan, &report);
    }

    /// Staging moves each breaker under a MATSCAN^M after its steps ran:
    /// every step still names its node of the plan as executed (a
    /// re-plan's splice is `tests/observability.rs`'s golden
    /// `explain_analyze_golden_cardinality_replan`).
    #[test]
    fn staged_steps_name_their_nodes_in_the_executed_plan() {
        let conn = setup();
        let eq = vec![("PosID".to_string(), "PosID".to_string())];
        let sorted = |c: &Connection| {
            chain(scan(c, "POSITION"), [Algo::SortD(SortSpec::by(["PosID"])), Algo::TransferM])
        };
        let join =
            PhysNode::over(Algo::TMergeJoinM(eq), vec![sorted(&conn), sorted(&conn)]).unwrap();
        let all = Expr::eq(Expr::col("PosID"), Expr::col("PosID"));
        let plan = chain(join, [Algo::FilterM(all)]);
        let run = staged(&conn, f64::INFINITY).run(&plan).unwrap();
        let (executed, _) = run.staged.unwrap();
        assert!(executed.any(&|a| matches!(a, Algo::MatScanM(_))), "{}", executed.render());
        assert_steps_on_their_nodes(&executed, &run.report);
    }

    /// Query 2 at smoke-test scale, staged as a session runs it: in
    /// EXPLAIN ANALYZE only a `TRANSFER^M` reports SQL round trips and
    /// server time, only a `FILTER^M` dropped rows and only the temporal
    /// join counts key groups. Its sort-merge join and everything above it
    /// hand up columns: no step hands up a row batch, and the result is
    /// boxed once, as it is delivered.
    #[test]
    fn query_2s_staged_plan_boxes_only_its_result() {
        let mut tango = crate::Tango::connect(uis_db());
        tango.options_mut().cache_budget = None;
        let date = |y| tango_algebra::date::day(y, 1, 1);
        let sql = tango_uis::queries::q2_sql(date(1983), date(1986));
        let boxed = |c: &'static std::thread::LocalKey<std::cell::Cell<usize>>| c.with(|n| n.get());
        let before = (boxed(&ROWS_HANDED_UP_BOXED), boxed(&ROWS_DELIVERED_BOXED));
        let (text, report) = tango.explain_analyze(&sql).unwrap();
        let plan = &report.optimized.plan;
        for staged in [Algo::MatScanM(String::new()), Algo::TMergeJoinM(vec![])] {
            let kind = std::mem::discriminant(&staged);
            assert!(plan.any(&|a| std::mem::discriminant(a) == kind), "{text}");
        }
        assert!(!plan.any(&|a| *a == Algo::TransferD), "{text}");
        assert_steps_on_their_nodes(plan, &report.exec);
        let lines: Vec<&str> = text.lines().take(plan.node_count()).collect();
        for (counter, on) in [
            ("sql_round_trips", "TRANSFER^M"),
            ("server ", "TRANSFER^M"),
            ("rows_dropped", "FILTER^M"),
            ("key_groups", "TMERGEJOIN^M"),
        ] {
            let shown: Vec<&&str> = lines.iter().filter(|l| l.contains(counter)).collect();
            assert!(!shown.is_empty(), "no {counter} in\n{text}");
            for line in shown {
                assert!(line.trim_start().starts_with(on), "{counter} off {on}: {line}\n{text}");
            }
        }
        assert_eq!(boxed(&ROWS_HANDED_UP_BOXED) - before.0, 0, "{text}");
        assert_eq!(boxed(&ROWS_DELIVERED_BOXED) - before.1, report.exec.rows, "{text}");
    }

    /// The UIS tables at `UisConfig::small`, analyzed.
    pub(crate) fn uis_db() -> Database {
        use tango_uis::{generate_employee, generate_position, UisConfig};
        let cfg = UisConfig::small(0xEC1);
        let db = Database::in_memory();
        for (name, rel) in
            [("POSITION", generate_position(&cfg)), ("EMPLOYEE", generate_employee(&cfg))]
        {
            db.create_table(name, rel.schema().as_ref().clone()).unwrap();
            db.insert_rows(name, rel.into_tuples()).unwrap();
            db.analyze(name).unwrap();
        }
        db
    }

    /// Queries 1–4 and the serving pool's statement 0 over [`uis_db`].
    pub(crate) fn uis_statements() -> [(&'static str, String); 5] {
        use tango_uis::queries::{q1_sql, q2_sql, q3_sql, q4_sql};
        let date = |y| tango_algebra::date::day(y, 1, 1);
        [
            ("Query 1", q1_sql("POSITION")),
            ("Query 2", q2_sql(date(1983), date(1996))),
            ("Query 3", q3_sql(date(1996))),
            ("Query 4", q4_sql("POSITION")),
            (
                "pool statement 0",
                "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
                 WHERE PosID < 8 GROUP BY PosID ORDER BY PosID"
                    .into(),
            ),
        ]
    }

    /// Every breaker `plan` staged: the child of each `MATSCAN^M`.
    fn staged_breakers<'p>(plan: &'p PhysNode, out: &mut Vec<&'p PhysNode>) {
        if matches!(plan.algo, Algo::MatScanM(_)) {
            out.extend(&plan.children);
        }
        plan.children.iter().for_each(|c| staged_breakers(c, out));
    }

    /// Staging copies no statistics for Query 2 or for the serving pool's
    /// statement 0, cold or served from the cache: each breaker staged
    /// derives statistics of its own, and registering its
    /// materialization copies the catalog's pointers.
    #[test]
    fn staging_query_2_or_a_pool_statement_copies_no_statistics() {
        let mut tango = crate::Tango::connect(uis_db());
        let [_, q2, _, _, pool_0] = uis_statements();
        for (name, sql) in [q2, pool_0.clone(), pool_0] {
            let before = STATS_COPIES.with(|n| n.get());
            let (_, report) = tango.query(&sql).unwrap();
            let plan = report.optimized.explain();
            assert!(plan.contains("MATSCAN^M"), "{name} stages nothing\n{plan}");
            assert_eq!(STATS_COPIES.with(|n| n.get()) - before, 0, "{name}\n{plan}");
        }
    }

    /// The misestimate monitor folds only what still runs: for every
    /// breaker staged in Queries 1–4 and the serving pool's statement 0,
    /// the fold of its remainder is the fold of its whole subtree, so no
    /// trigger can move. (Query 4 runs wholly in the DBMS: nothing to
    /// stage.)
    #[test]
    fn the_monitor_folds_a_breakers_remainder_as_its_whole_subtree() {
        let mut tango = crate::Tango::connect(uis_db());
        let (mut staged, mut consumed) = (0, 0);
        for (name, sql) in uis_statements() {
            let (_, report) = tango.query(&sql).unwrap();
            let (plan, sem) = (&report.optimized.plan, &report.optimized.pricing);
            let mut breakers = Vec::new();
            staged_breakers(plan, &mut breakers);
            staged += breakers.len();
            for b in breakers {
                let remainder = remainder_only(b);
                consumed += usize::from(remainder.node_count() < b.node_count());
                let (folded, full) = (sem.stats(&remainder).unwrap(), sem.stats(b).unwrap());
                assert_eq!(folded, full, "{name}: {}", b.render());
            }
        }
        assert!(staged > 0 && consumed > 0, "{staged} breakers, none over an earlier one");
    }

    #[test]
    fn dbms_rooted_plans_are_rejected() {
        let conn = setup();
        let plan = scan(&conn, "POSITION");
        assert!(execute(&conn, &plan).is_err());
    }

    #[test]
    fn empty_results_flow_through() {
        let conn = setup();
        let none = Expr::eq(Expr::col("PosID"), Expr::lit(999));
        let plan = chain(scan(&conn, "POSITION"), [Algo::TransferM, Algo::FilterM(none)]);
        let (rel, report) = execute(&conn, &plan).unwrap();
        assert!(rel.is_empty());
        assert_eq!(report.rows, 0);
        let _ = tup![1]; // keep the tup! import exercised
    }
}
