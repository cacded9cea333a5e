//! The public face of the middleware: a [`Tango`] session bound to one
//! underlying DBMS.
//!
//! ```
//! use tango_minidb::{Connection, Database, Link, LinkProfile};
//! use tango_core::Tango;
//!
//! // the "conventional DBMS" with a simulated JDBC wire
//! let db = Database::new(Link::new(LinkProfile::default()));
//! let conn = Connection::new(db.clone());
//! conn.execute("CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(20), T1 INT, T2 INT)")?;
//! conn.execute("INSERT INTO POSITION VALUES (1,'Tom',2,20), (1,'Jane',5,25), (2,'Tom',5,10)")?;
//! conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS")?;
//!
//! // the middleware on top: temporal SQL in, optimized mixed plan out
//! let mut tango = Tango::connect(db);
//! let (result, report) = tango.query(
//!     "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
//!      GROUP BY PosID ORDER BY PosID",
//! )?;
//! assert_eq!(result.len(), 4); // Figure 3(c) of the paper
//! assert!(report.optimized.explain().contains("TAGGR"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cache::{MidCache, Residency, DEFAULT_CACHE_BUDGET};
use crate::calibrate::{self, Calibration};
use crate::collector;
use crate::cost::CostFactors;
use crate::engine::{ExecReport, Executor, Replan, Run};
use crate::error::Result;
use crate::explain::{self, NodeEstimate};
use crate::feedback;
use crate::opt::{self, Catalog, OptOptions, TangoSem};
use crate::phys::PhysNode;
use crate::rewrite::{RewriteOutcome, Rewriter};
use crate::tsql;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tango_algebra::{Logical, Relation, Schema, DEFAULT_BATCH_ROWS};
use tango_minidb::{Connection, Database};
use volcano::SearchStats;

/// Session-level configuration.
#[derive(Debug, Clone)]
pub struct TangoOptions {
    /// Optimizer knobs (rule groups, search limits).
    pub opt: OptOptions,
    /// Give the optimizer histograms on (time) attributes — the paper's
    /// Query 2 compares plan choice with and without them.
    pub use_histograms: bool,
    /// Adapt cost factors from observed runtimes after every query
    /// (`feedback::apply_feedback`).
    pub feedback: bool,
    /// Byte budget of the middleware relation cache; `None` disables
    /// caching entirely (every `TRANSFER^M` streams from the DBMS and the
    /// optimizer sees an empty [`Residency`]). How cached entries are
    /// admitted, evicted and kept fresh across writes is
    /// `docs/CACHING.md`'s.
    pub cache_budget: Option<u64>,
    /// Rows per batch pulled between operators, per session. `None` (the
    /// default) means [`tango_algebra::DEFAULT_BATCH_ROWS`]; `Some(1)`
    /// degenerates to row-at-a-time execution.
    pub batch_rows: Option<usize>,
    /// Inert: nothing reads it. It sized a morsel worker pool that lost
    /// to the one-thread engine at every setting measured and that the
    /// cost model could not price (`docs/PERFORMANCE.md`, "Mechanisms
    /// kept and cut"); a query runs on the one thread that pulls its
    /// root cursor. The field stays only because the frozen `benchmark/`
    /// harness names it in a struct literal (ROADMAP item 1(b)).
    pub workers: usize,
    /// Rewrite rule packs applied between the parser and the optimizer,
    /// in order — names of the shipped packs (see [`crate::rewrite`] and
    /// `docs/REWRITES.md`). Empty (the default) skips the rewrite stage
    /// entirely.
    pub rewrite_packs: Vec<String>,
}

impl Default for TangoOptions {
    fn default() -> Self {
        TangoOptions {
            opt: OptOptions::default(),
            use_histograms: true,
            feedback: false,
            cache_budget: Some(DEFAULT_CACHE_BUDGET),
            batch_rows: None,
            workers: 1,
            rewrite_packs: Vec::new(),
        }
    }
}

/// Bound on implementations + enforcers costed per class element (see
/// [`OptimizedQuery::search_effort_bounded`]), with room for a costlier
/// memo shape but none for a search that stops memoizing. Measured at
/// `UisConfig::small` under default factors — Query 1: 18 + 24 over 5
/// elements (8.4), Query 2: 170 + 171 over 43 (7.9), Query 3: 26 + 36
/// over 7 (8.9), Query 4: 118 + 72 over 20 (9.5); the serving pool's
/// short statements: 22 + 30 over 6 (8.7) and 10 + 18 over 3 (9.3).
/// Before winners under a cycle prune were memoized, Query 2 read
/// 371,999 + 545,083 over the same 43 (21,327).
const MAX_ALGOS_PER_ELEMENT: usize = 12;

/// Bound on optimize calls per equivalence class. Measured as above —
/// Query 1: 20 over 4 classes (5.0), Query 2: 142 over 28 (5.1), Query 3:
/// 30 over 6 (5.0), Query 4: 61 over 9 (6.8); short statements: 25 over 5
/// and 15 over 3 (5.0). Query 2 used to read 523,294 over 28 (18,689).
const MAX_CALLS_PER_CLASS: usize = 8;

/// The outcome of optimizing one temporal-SQL statement.
pub struct OptimizedQuery {
    /// The initial (all-DBMS) logical plan.
    pub logical: Logical,
    /// The chosen physical plan.
    pub plan: PhysNode,
    /// Estimated cost in µs.
    pub est_cost_us: f64,
    /// Equivalence classes generated (Section 5.2 reports these).
    pub classes: usize,
    /// Class elements generated.
    pub elements: usize,
    /// Time spent optimizing.
    pub optimize_time: Duration,
    /// Per-rule firing counts from the transformation phase.
    pub rule_fires: Vec<(&'static str, usize)>,
    /// Search-effort accounting from the Volcano phase (optimize calls,
    /// implementations/enforcers considered, memo-table cache hits).
    pub search: SearchStats,
    /// What the config-driven rewrite stage did before optimization
    /// (empty when no [`TangoOptions::rewrite_packs`] are active).
    pub rewrites: RewriteOutcome,
    /// What `plan` is priced under: the statement's snapshot, extended
    /// with the observed materializations when the plan was staged.
    pub(crate) pricing: TangoSem,
    /// [`OptimizedQuery::node_estimates`], once read.
    estimates: OnceLock<Vec<NodeEstimate>>,
}

impl OptimizedQuery {
    /// Per-node cardinality/cost predictions for the chosen plan, in
    /// pre-order (used by `EXPLAIN [ANALYZE]`): the plan priced as it was
    /// searched (for a plan that ran, before feedback adapted the factors,
    /// plus what its breakers were observed to produce). Priced on first
    /// read; empty if a table the plan reads has no statistics.
    pub fn node_estimates(&self) -> &[NodeEstimate] {
        self.estimates.get_or_init(|| self.pricing.price(&self.plan).unwrap_or_default())
    }

    /// Render the chosen plan like Figure 7/9 of the paper.
    pub fn explain(&self) -> String {
        self.plan.render()
    }

    /// Render `EXPLAIN`: the plan with site placement and estimated rows.
    pub fn explain_plan(&self) -> String {
        explain::render_explain(&self.plan, self.node_estimates())
    }

    /// Render `EXPLAIN ANALYZE`: the plan annotated with the execution
    /// report's actual rows and exclusive times. `redact_timings`
    /// replaces time values with `?` for reproducible output.
    pub fn explain_analyze(&self, exec: &ExecReport, redact_timings: bool) -> String {
        let estimates = self.node_estimates();
        explain::render_explain_analyze(&self.plan, estimates, exec, redact_timings)
    }

    /// One line on what the Volcano search did: its counters and the
    /// share of `(class, required)` lookups the memoization table answered.
    pub fn search_summary(&self) -> String {
        let s = &self.search;
        format!(
            "{} optimize calls, {} implementations, {} enforcers, \
             {} cache hits ({:.0}% of lookups), {} cycles pruned",
            s.optimize_calls,
            s.implementations_considered,
            s.enforcers_considered,
            s.cache_hits,
            s.hit_ratio() * 100.0,
            s.cycles_pruned,
        )
    }

    /// Whether the search cost stayed proportional to the memo: at most
    /// 12 implementations + enforcers costed per class element and 8
    /// optimize calls per class. Counts repeat exactly from run to run,
    /// so this — not optimization time — is what
    /// `tests/optimizer_effort.rs` and `optimizer_stats --check` gate on.
    pub fn search_effort_bounded(&self) -> bool {
        let s = &self.search;
        s.implementations_considered + s.enforcers_considered
            <= MAX_ALGOS_PER_ELEMENT * self.elements
            && s.optimize_calls <= MAX_CALLS_PER_CLASS * self.classes
    }

    /// Render the optimizer-side trace: memo size, search effort and rule
    /// firings (the numbers Section 5.2 of the paper reports).
    pub fn optimizer_trace(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "optimizer: {} classes, {} class elements, {:.1}ms\n",
            self.classes,
            self.elements,
            self.optimize_time.as_secs_f64() * 1e3,
        ));
        s.push_str(&format!("search: {}\n", self.search_summary()));
        let fires: Vec<String> = self
            .rule_fires
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("{r}×{n}"))
            .collect();
        if !fires.is_empty() {
            s.push_str(&format!("rules fired: {}\n", fires.join(", ")));
        }
        if !self.rewrites.is_empty() {
            let fired: Vec<String> = self
                .rewrites
                .fires
                .iter()
                .map(|f| format!("{}/{}×{}", f.pack, f.rule, f.fires))
                .collect();
            s.push_str(&format!(
                "rewrite: {} ({} pass{}{})\n",
                if fired.is_empty() { "-".to_string() } else { fired.join(", ") },
                self.rewrites.passes,
                if self.rewrites.passes == 1 { "" } else { "es" },
                if self.rewrites.budget_hit { ", budget hit" } else { "" },
            ));
        }
        s
    }
}

#[cfg(test)]
thread_local! {
    /// Snapshots taken by sessions on this thread.
    static SNAPSHOTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Per-query report: optimization + execution.
pub struct QueryReport {
    /// The optimization outcome.
    pub optimized: OptimizedQuery,
    /// The execution report (per-operator spans).
    pub exec: ExecReport,
    /// Where the [`Tango::query`] call's wall time went.
    pub phases: QueryPhases,
}

impl QueryReport {
    /// The time the experiments plot: optimization + compute + wire
    /// ("for query plans involving middleware algorithms, the middleware
    /// optimization time is included").
    pub fn total(&self) -> Duration {
        self.optimized.optimize_time + self.exec.total()
    }

    /// Serialize as a JSON object: `{"phases_us": {...}, "exec": {...}}`,
    /// the phases in microseconds next to [`ExecReport::to_json`].
    pub fn to_json(&self) -> String {
        use tango_trace::json::Object;
        let mut phases = Object::new();
        for (name, d) in self.phases.named() {
            phases.number(name, d.as_secs_f64() * 1e6);
        }
        let mut o = Object::new();
        o.raw("phases_us", &phases.build());
        o.raw("exec", &self.exec.to_json());
        o.build()
    }
}

/// Where one [`Tango::query`] call's wall time went, phase by phase.
/// The phases are consecutive laps of one clock started as the call
/// begins, so they sum to the call's wall time but for its entry and
/// return. Execution's virtual wire time is not wall time and is not in
/// here ([`ExecReport::wire`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryPhases {
    /// Temporal SQL to the initial logical plan.
    pub parse: Duration,
    /// The rewrite stage (packs off: resolving that there are none).
    pub rewrite: Duration,
    /// The statistics and cache-residency snapshot planning reads.
    pub snapshot: Duration,
    /// The Volcano search.
    pub search: Duration,
    /// Running the plan, cost-factor feedback included.
    pub execute: Duration,
    /// Surfacing the rewrites on the root of the plan that ran (its node
    /// estimates are priced when first read).
    pub pricing: Duration,
}

impl QueryPhases {
    /// The phases with their names, in the order they run.
    pub fn named(&self) -> [(&'static str, Duration); 6] {
        [
            ("parse", self.parse),
            ("rewrite", self.rewrite),
            ("snapshot", self.snapshot),
            ("search", self.search),
            ("execute", self.execute),
            ("pricing", self.pricing),
        ]
    }

    /// The sum of the phases.
    pub fn total(&self) -> Duration {
        self.named().iter().map(|(_, d)| *d).sum()
    }

    /// One `phases: parse 12µs, rewrite 0µs, …` line.
    pub fn render(&self) -> String {
        let each: Vec<String> = self
            .named()
            .iter()
            .map(|(name, d)| format!("{name} {}", explain::fmt_us(d.as_secs_f64() * 1e6)))
            .collect();
        format!("phases: {}\n", each.join(", "))
    }
}

/// A clock that hands out consecutive laps.
struct Laps(Instant);

impl Laps {
    fn start() -> Laps {
        Laps(Instant::now())
    }

    /// The time since the previous lap (or the start), starting the next.
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.0;
        self.0 = now;
        lap
    }
}

/// A TANGO middleware session.
///
/// Sessions are cheap to construct and `Send`: the serving tier spawns
/// one per client thread against a shared [`Database`], and by default
/// they all attach to one shared relation cache held at
/// database scope (see `docs/CONCURRENCY.md`) — a fragment one session
/// paid to transfer is a warm hit for every other session.
pub struct Tango {
    conn: Connection,
    factors: CostFactors,
    options: TangoOptions,
    /// The Statistics Collector's snapshot and the
    /// [`TangoOptions::use_histograms`] value it was collected under.
    catalog: Option<(bool, Arc<Catalog>)>,
    cache: Arc<MidCache>,
}

impl Tango {
    /// Attach the middleware to a database, sharing the database-scoped
    /// relation cache with every other session connected this way.
    pub fn connect(db: Database) -> Tango {
        Tango::connect_with(db, TangoOptions::default())
    }

    /// [`Tango::connect`] with explicit options. The shared cache is
    /// created lazily by the first connecting session; later sessions
    /// attach to it, and [`TangoOptions::cache_budget`] is applied per
    /// query by whichever session runs.
    pub fn connect_with(db: Database, options: TangoOptions) -> Tango {
        let budget = options.cache_budget.unwrap_or(DEFAULT_CACHE_BUDGET);
        let cache = db.middleware_state(|| MidCache::new(budget));
        Tango::assemble(db, options, cache)
    }

    /// Attach with a **private** relation cache (the pre-serving-tier
    /// behavior): this session populates and serves alone, invisible to
    /// and unaffected by other sessions' residency. Used by the
    /// shared-vs-private comparison in `concurrency_bench` and anywhere
    /// isolation matters more than compounding warm hits.
    pub fn connect_private(db: Database) -> Tango {
        let cache = Arc::new(MidCache::new(DEFAULT_CACHE_BUDGET));
        Tango::assemble(db, TangoOptions::default(), cache)
    }

    fn assemble(db: Database, options: TangoOptions, cache: Arc<MidCache>) -> Tango {
        Tango {
            conn: Connection::new(db),
            factors: CostFactors::default(),
            options,
            catalog: None,
            cache,
        }
    }

    /// The session's DBMS connection.
    pub fn conn(&self) -> &Connection {
        &self.conn
    }

    /// Mutable access to the session's DBMS connection — e.g. to change
    /// its [`tango_minidb::RetryPolicy`] before running chaos schedules.
    pub fn conn_mut(&mut self) -> &mut Connection {
        &mut self.conn
    }

    /// Current session options.
    pub fn options(&self) -> &TangoOptions {
        &self.options
    }

    /// Mutate session options. The statistics snapshot survives unless
    /// [`TangoOptions::use_histograms`] ends up different from what it
    /// was collected under (checked when the next statement needs it).
    pub fn options_mut(&mut self) -> &mut TangoOptions {
        &mut self.options
    }

    /// The cost factors currently steering the optimizer.
    pub fn factors(&self) -> &CostFactors {
        &self.factors
    }

    /// Replace the cost factors wholesale.
    pub fn set_factors(&mut self, f: CostFactors) {
        self.factors = f;
    }

    /// The middleware relation cache this session serves from
    /// (counters, residency, budget) — shared with every other
    /// [`Tango::connect`] session on the same database, private after
    /// [`Tango::connect_private`]. The cache object always exists;
    /// whether queries consult it is governed by
    /// [`TangoOptions::cache_budget`].
    pub fn cache(&self) -> &Arc<MidCache> {
        &self.cache
    }

    /// Drop every cached relation (statistics counters survive). On a
    /// shared cache this clears residency for *all* sessions.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// The serving report of this session's cache: contents and the
    /// activity counters (hits, misses, evictions, admission rejects,
    /// invalidations, refreshes), followed by the database's pending
    /// delta-log footprint. The same text [`Tango::explain_analyze`]
    /// appends to its rendering; the REPL prints it as `\cache`.
    pub fn cache_report(&self) -> String {
        let mut s = self.cache.render_report();
        s.push_str(&format!(
            "delta logs: {} bytes pending\n",
            self.conn.database().delta_log_bytes()
        ));
        s
    }

    /// The cache to hand to the engine this query, with the configured
    /// budget applied — or `None` when caching is disabled.
    fn active_cache(&self) -> Option<&Arc<MidCache>> {
        self.cache.set_budget(self.options.cache_budget?);
        Some(&self.cache)
    }

    /// Snapshot of which fragment signatures the cache can serve right
    /// now — fresh entries at served size, stale-but-covered ones with
    /// their pending delta bytes — after dropping uncoverable entries.
    /// The optimizer's view of middleware residency.
    fn residency(&self) -> Residency {
        match self.active_cache() {
            Some(cache) => {
                let conn = &self.conn;
                cache.residency(&|t| conn.table_version(t), &|t, since| {
                    conn.delta_bytes_since(t, since)
                })
            }
            None => Residency::default(),
        }
    }

    /// Run the calibration experiment (Cost Estimator) and adopt the
    /// fitted factors. Its probes fetch at this session's batch size, as
    /// the session's transfers will.
    pub fn calibrate(&mut self) -> Result<Calibration> {
        let cal = calibrate::calibrate(&self.conn, 0xCAFE, self.batch_rows())?;
        self.factors = cal.factors;
        Ok(cal)
    }

    /// Refresh the Statistics Collector's catalog snapshot.
    pub fn refresh_statistics(&mut self) -> Result<()> {
        self.catalog = None;
        self.catalog().map(drop)
    }

    fn catalog(&mut self) -> Result<Arc<Catalog>> {
        // statistics with/without histograms differ: re-collect on a flip
        let histograms = self.options.use_histograms;
        match &self.catalog {
            Some((h, catalog)) if *h == histograms => Ok(catalog.clone()),
            _ => {
                let catalog = Arc::new(collector::collect(&self.conn, histograms)?);
                self.catalog = Some((histograms, catalog.clone()));
                Ok(catalog)
            }
        }
    }

    /// What one statement is planned against — statistics and cache
    /// residency as of now, under the session's factors and optimizer
    /// knobs. Taken once per statement and shared between the search,
    /// the node estimates and mid-query re-planning.
    fn snapshot(&mut self) -> Result<TangoSem> {
        #[cfg(test)]
        SNAPSHOTS.with(|n| n.set(n.get() + 1));
        Ok(TangoSem::new(
            self.catalog()?,
            self.factors,
            self.options.opt,
            Arc::new(self.residency()),
            Default::default(),
        ))
    }

    /// Parse temporal SQL into the initial (all-DBMS) logical plan.
    pub fn parse(&self, sql: &str) -> Result<Logical> {
        let conn = self.conn.clone();
        tsql::parse_tsql(sql, &move |t: &str| -> Option<Schema> { conn.table_schema(t) })
    }

    /// Parse, rewrite (when [`TangoOptions::rewrite_packs`] are active)
    /// and optimize a temporal-SQL statement.
    pub fn optimize(&mut self, sql: &str) -> Result<OptimizedQuery> {
        self.optimize_sql(sql, &mut Laps::start(), &mut QueryPhases::default())
    }

    /// [`Tango::optimize`], each step's time a lap of `laps`, recorded in
    /// `phases`.
    fn optimize_sql(
        &mut self,
        sql: &str,
        laps: &mut Laps,
        phases: &mut QueryPhases,
    ) -> Result<OptimizedQuery> {
        let logical = self.parse(sql)?;
        phases.parse = laps.lap();
        let (logical, rewrites) = self.apply_rewrites(logical)?;
        phases.rewrite = laps.lap();
        let snapshot = self.snapshot()?;
        phases.snapshot = laps.lap();
        let mut optimized = Tango::optimize_under(logical, snapshot)?;
        optimized.rewrites = rewrites;
        phases.search = laps.lap();
        Ok(optimized)
    }

    /// Run the rewrite stage over a logical plan (a no-op with an empty
    /// outcome when no packs are configured). Pack names resolve per
    /// statement: an unknown one fails the statement.
    pub fn apply_rewrites(&mut self, logical: Logical) -> Result<(Logical, RewriteOutcome)> {
        if self.options.rewrite_packs.is_empty() {
            return Ok((logical, RewriteOutcome::default()));
        }
        let rewriter = Rewriter::load(&self.options.rewrite_packs)?;
        let conn = &self.conn;
        Ok(rewriter.apply(logical, &|t: &str| conn.table_schema(t)))
    }

    /// Optimize an already-built logical plan.
    pub fn optimize_logical(&mut self, logical: Logical) -> Result<OptimizedQuery> {
        Tango::optimize_under(logical, self.snapshot()?)
    }

    /// The search under `snapshot`, which the result keeps to price its
    /// node estimates when they are read.
    fn optimize_under(logical: Logical, snapshot: TangoSem) -> Result<OptimizedQuery> {
        let t0 = Instant::now();
        let optimized = opt::optimize(&logical, snapshot.clone(), None)?;
        let optimize_time = t0.elapsed();
        Ok(OptimizedQuery {
            logical,
            plan: optimized.plan,
            est_cost_us: optimized.cost,
            classes: optimized.classes,
            elements: optimized.elements,
            optimize_time,
            rule_fires: optimized.rule_fires,
            search: optimized.search,
            rewrites: RewriteOutcome::default(),
            pricing: snapshot,
            estimates: OnceLock::new(),
        })
    }

    /// `EXPLAIN`: optimize `sql` and render the chosen plan with site
    /// placement and estimated rows, without executing it.
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        Ok(self.optimize(sql)?.explain_plan())
    }

    /// `EXPLAIN ANALYZE`: optimize and execute `sql`, then render the
    /// plan annotated with estimated vs. actual rows, site placement and
    /// per-operator exclusive times, followed by the call's phase times
    /// ([`QueryPhases::render`]) and the cache serving report
    /// (hit/miss/evict/admission-reject counters) when caching is
    /// enabled. Returns the rendering plus the full report
    /// (the result relation is discarded, as in PostgreSQL).
    pub fn explain_analyze(&mut self, sql: &str) -> Result<(String, QueryReport)> {
        let (_, report) = self.query(sql)?;
        let mut text = report.optimized.explain_analyze(&report.exec, false);
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&report.phases.render());
        if self.options.cache_budget.is_some() {
            text.push_str(&self.cache.render_report());
        }
        Ok((text, report))
    }

    /// Parse, optimize, execute. Returns the result relation and a full
    /// report; applies cost-factor feedback if enabled.
    ///
    /// When `OptOptions::replan_ratio` is set (the default), execution is
    /// *adaptive*: pipeline breakers are staged one at a time, actual
    /// cardinalities are checked against the optimizer's estimates, and a
    /// misestimate past the threshold re-optimizes the unexecuted
    /// remainder mid-query (see `docs/ADAPTIVITY.md`). The reported plan
    /// is then the plan as actually executed, with each staged breaker
    /// under a `MATSCAN^M` node.
    pub fn query(&mut self, sql: &str) -> Result<(Relation, QueryReport)> {
        let (mut laps, mut phases) = (Laps::start(), QueryPhases::default());
        let mut optimized = self.optimize_sql(sql, &mut laps, &mut phases)?;
        let replan = self.options.opt.replan_ratio.map(|ratio| Replan {
            ratio,
            histogram_buckets: if self.options.use_histograms {
                tango_minidb::catalog::HISTOGRAM_BUCKETS
            } else {
                0
            },
        });
        let pricing = optimized.pricing.clone();
        let Run { rel, report: mut exec, staged } = self.run(&optimized.plan, pricing, replan)?;
        phases.execute = laps.lap();
        // the executed plan differs from the optimized one (staged
        // breakers became MATSCAN^M nodes; a re-plan may have spliced):
        // adopt it, and what it is priced under, so EXPLAIN ANALYZE shows
        // what ran
        if let Some((plan, sem)) = staged {
            (optimized.plan, optimized.pricing) = (plan, sem);
        }
        // surface pre-optimization rewrites on the plan root, so EXPLAIN
        // ANALYZE and the JSON trace carry them next to the execution
        // counters (packs off ⇒ nothing changes, golden outputs intact)
        if !optimized.rewrites.is_empty() {
            if let Some(root) = exec.steps.last_mut() {
                for f in &optimized.rewrites.fires {
                    root.events.push(tango_trace::SpanEvent {
                        kind: "rewrite".into(),
                        detail: format!("{}/{}×{}", f.pack, f.rule, f.fires),
                    });
                }
                root.counters.push(("rewrite_fires", optimized.rewrites.total_fires()));
                if optimized.rewrites.budget_hit {
                    root.counters.push(("rewrite_budget_hit", 1));
                }
            }
        }
        phases.pricing = laps.lap();
        Ok((rel, QueryReport { optimized, exec, phases }))
    }

    /// Execute a hand-built physical plan (the performance study runs
    /// the paper's fixed Plans 1..n this way). Its cache decisions are
    /// priced under the statistics the session has collected, if any.
    pub fn execute_physical(&mut self, plan: &PhysNode) -> Result<(Relation, ExecReport)> {
        let catalog = self.catalog.as_ref().map(|(_, c)| c.clone()).unwrap_or_default();
        let (factors, opt) = (self.factors, self.options.opt);
        let pricing = TangoSem::new(catalog, factors, opt, Arc::default(), Default::default());
        let run = self.run(plan, pricing, None)?;
        Ok((run.rel, run.report))
    }

    /// Rows per executor batch: [`TangoOptions::batch_rows`] resolved.
    fn batch_rows(&self) -> usize {
        self.options.batch_rows.unwrap_or(DEFAULT_BATCH_ROWS).max(1)
    }

    /// The one way this session executes a plan: traced, against the
    /// active cache, under the session's knobs and `pricing` — re-planning
    /// mid-query when `replan` says so — followed by cost-factor feedback
    /// if enabled.
    fn run(&mut self, plan: &PhysNode, pricing: TangoSem, replan: Option<Replan>) -> Result<Run> {
        let run = Executor {
            conn: &self.conn,
            cache: self.active_cache(),
            batch_rows: self.batch_rows(),
            pricing,
            replan,
        }
        .run(plan)?;
        if self.options.feedback {
            feedback::apply_feedback(&mut self.factors, &run.report);
        }
        Ok(run)
    }

    /// The estimated cost of a physical plan under the current factors,
    /// statistics and cache residency — for a plan [`Tango::optimize`]
    /// just returned, its `est_cost_us` (used by plan-choice experiments
    /// on hand-built plans).
    pub fn estimate_physical(&mut self, plan: &PhysNode) -> Result<f64> {
        Ok(self.snapshot()?.price(plan)?.iter().map(|e| e.est_cost_us).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::{tup, Value};
    use tango_minidb::{Link, LinkProfile};

    fn setup() -> Tango {
        let db = Database::new(Link::new(LinkProfile::instant()));
        let conn = Connection::new(db.clone());
        conn.execute("CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(20), T1 INT, T2 INT)")
            .unwrap();
        conn.execute("INSERT INTO POSITION VALUES (1,'Tom',2,20),(1,'Jane',5,25),(2,'Tom',5,10)")
            .unwrap();
        conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
        Tango::connect(db)
    }

    /// Query 1 of the paper on the Figure 3 data: the full middleware
    /// stack must reproduce Figure 3(c).
    #[test]
    fn query1_end_to_end_matches_figure3c() {
        let mut tango = setup();
        let (rel, report) = tango
            .query(
                "VALIDTIME SELECT PosID, COUNT(PosID) AS CNT FROM POSITION \
                 GROUP BY PosID ORDER BY PosID",
            )
            .unwrap();
        // layout (PosID, CNT, T1, T2); content is Figure 3(c)
        assert_eq!(
            rel.tuples(),
            &[tup![1, 1, 2, 5], tup![1, 2, 5, 20], tup![1, 1, 20, 25], tup![2, 1, 5, 10],]
        );
        assert_eq!(rel.schema().names().collect::<Vec<_>>(), vec!["PosID", "CNT", "T1", "T2"]);
        assert!(report.optimized.classes > 0);
        assert!(report.optimized.elements >= report.optimized.classes);
    }

    /// The Section 2.2 example: temporal aggregation joined back to
    /// POSITION must reproduce Figure 3(b).
    #[test]
    fn section22_example_matches_figure3b() {
        let mut tango = setup();
        let (rel, _) = tango
            .query(
                "VALIDTIME SELECT P.PosID, P.EmpName, A.CNT FROM \
                   (VALIDTIME SELECT PosID, COUNT(PosID) AS CNT FROM POSITION GROUP BY PosID) A, \
                   POSITION P \
                 WHERE A.PosID = P.PosID ORDER BY P.PosID",
            )
            .unwrap();
        // (PosID, EmpName, CNT, T1, T2), sorted by PosID
        assert_eq!(rel.len(), 5);
        let mut got = rel.clone();
        got.sort_by(&tango_algebra::SortSpec::by(["PosID", "EmpName", "T1"]));
        assert_eq!(
            got.tuples(),
            &[
                tup![1, "Jane", 2, 5, 20],
                tup![1, "Jane", 1, 20, 25],
                tup![1, "Tom", 1, 2, 5],
                tup![1, "Tom", 2, 5, 20],
                tup![2, "Tom", 1, 5, 10],
            ]
        );
        // delivered in PosID order as requested
        assert!(rel.is_sorted_by(&tango_algebra::SortSpec::by(["PosID"])));
    }

    #[test]
    fn chosen_plan_runs_taggr_in_middleware() {
        let mut tango = setup();
        // make the DBMS option expensive and the data big enough to matter:
        // defaults already price TAGGR^D far above TAGGR^M
        let q = tango
            .optimize(
                "VALIDTIME SELECT PosID, COUNT(PosID) AS CNT FROM POSITION \
                 GROUP BY PosID ORDER BY PosID",
            )
            .unwrap();
        let plan = q.explain();
        assert!(plan.contains("TAGGR^M"), "expected middleware aggregation:\n{plan}");
        assert!(plan.contains("TRANSFER^M"), "{plan}");
    }

    #[test]
    fn feedback_updates_factors() {
        let mut tango = setup();
        tango.options_mut().feedback = true;
        let before = tango.factors().p_tm;
        for _ in 0..3 {
            tango
                .query("VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION GROUP BY PosID")
                .unwrap();
        }
        // tiny data: factors may or may not move, but the session must
        // stay consistent and positive
        assert!(tango.factors().p_tm > 0.0);
        let _ = before;
    }

    /// `VALIDTIME COALESCE`: the coalescing operator only exists in the
    /// middleware, so the optimizer must route the data there via
    /// enforcers regardless of cost factors.
    #[test]
    fn validtime_coalesce_end_to_end() {
        let mut tango = setup();
        let (rel, report) =
            tango.query("VALIDTIME COALESCE SELECT PosID FROM POSITION ORDER BY PosID").unwrap();
        assert!(report.optimized.explain().contains("COALESCE^M"));
        // position 1 is continuously staffed over [2, 25), position 2 over [5, 10)
        assert_eq!(rel.tuples(), &[tup![1, 2, 25], tup![2, 5, 10]]);
    }

    /// `VALIDTIME SELECT DISTINCT` eliminates duplicates in the
    /// middleware (order-preserving hash dedup).
    #[test]
    fn validtime_distinct_end_to_end() {
        let mut tango = setup();
        let (rel, _) = tango
            .query("VALIDTIME SELECT DISTINCT PosID, T1, T2 FROM POSITION ORDER BY PosID")
            .unwrap();
        assert_eq!(rel.len(), 3); // no duplicates in the sample; shape check
        let (all, _) =
            tango.query("VALIDTIME SELECT PosID, T1, T2 FROM POSITION ORDER BY PosID").unwrap();
        assert_eq!(all.len(), 3);
    }

    /// With a middleware sort-memory budget smaller than the estimated
    /// sort input, the order enforcer becomes the external merge sort —
    /// and the answer stays identical to the in-memory plan's.
    #[test]
    fn sort_budget_picks_external_sort() {
        let q1 = "VALIDTIME SELECT PosID, COUNT(PosID) AS CNT FROM POSITION \
                  GROUP BY PosID ORDER BY PosID";
        let mut tango = setup();
        let (baseline, _) = tango.query(q1).unwrap();

        let mut tango = setup();
        // price SORT^D out of the market so the ordering is enforced in
        // the middleware, then cap middleware sort memory below the
        // estimated input size
        tango.set_factors(CostFactors { p_sd: 1e6, ..Default::default() });
        tango.options_mut().opt.mid_sort_budget = Some(16);
        let q = tango.optimize(q1).unwrap();
        let plan = q.explain();
        assert!(plan.contains("XSORT^M"), "expected external sort enforcer:\n{plan}");
        assert!(!plan.contains("SORT^D"), "{plan}");
        let (rel, _) = tango.execute_physical(&q.plan).unwrap();
        assert_eq!(rel.tuples(), baseline.tuples());

        // an ample budget keeps the in-memory sort
        tango.options_mut().opt.mid_sort_budget = Some(1 << 20);
        let plan = tango.optimize(q1).unwrap().explain();
        assert!(plan.contains("SORT^M") && !plan.contains("XSORT^M"), "{plan}");
    }

    /// Sessions are `Send` (the serving tier spawns one per client
    /// thread), `connect` attaches every session on one database to one
    /// shared cache, and `connect_private` / a different database stay
    /// isolated.
    #[test]
    fn sessions_share_the_database_cache() {
        fn assert_send<T: Send>() {}
        assert_send::<Tango>();
        let db = Database::new(Link::new(LinkProfile::instant()));
        let a = Tango::connect(db.clone());
        let b = Tango::connect(db.clone());
        assert!(Arc::ptr_eq(a.cache(), b.cache()), "connect() must share one cache per database");
        let p = Tango::connect_private(db.clone());
        assert!(!Arc::ptr_eq(a.cache(), p.cache()), "connect_private() must be isolated");
        let c = Tango::connect(Database::new(Link::new(LinkProfile::instant())));
        assert!(!Arc::ptr_eq(a.cache(), c.cache()), "distinct databases must not share");
    }

    /// One statement = one catalog + residency snapshot, shared by the
    /// search, the estimates and the re-planner. Staging copies a table's
    /// statistics only for a breaker that reads them unchanged (here the
    /// transfer of all of POSITION) — and with no estimate far enough off
    /// to re-plan, no materialization is ANALYZEd.
    #[test]
    fn a_query_takes_one_snapshot_and_copies_the_catalog_at_most_once() {
        use crate::engine::{MAT_ANALYZES, STATS_COPIES};
        let counts = || (SNAPSHOTS.with(|n| n.get()), STATS_COPIES.with(|n| n.get()));
        let mut tango = setup();
        tango.refresh_statistics().unwrap();
        let shared = tango.catalog.clone().unwrap().1;

        // the only breaker is the root transfer: nothing staged, no copy
        let (s0, c0) = counts();
        let (_, first) = tango
            .query("SELECT EmpName, PosID FROM POSITION WHERE PosID = 1 ORDER BY EmpName")
            .unwrap();
        let plan = first.optimized.explain();
        assert!(!plan.contains("MATSCAN^M"), "{plan}");
        let (s1, c1) = counts();
        assert_eq!((s1 - s0, c1 - c0), (1, 0));

        // two transfers and a middleware aggregation are staged
        let (_, report) = tango
            .query(
                "VALIDTIME SELECT P.PosID, P.EmpName, A.CNT FROM \
                   (VALIDTIME SELECT PosID, COUNT(PosID) AS CNT FROM POSITION GROUP BY PosID) A, \
                   POSITION P \
                 WHERE A.PosID = P.PosID ORDER BY P.PosID",
            )
            .unwrap();
        let staged = report.optimized.explain().matches("MATSCAN^M").count();
        assert!(
            staged >= 2,
            "fixture must stage several breakers:\n{}",
            report.optimized.explain()
        );
        let (s2, c2) = counts();
        assert_eq!((s2 - s1, c2 - c1), (1, 1));
        assert_eq!(MAT_ANALYZES.with(|n| n.get()), 0);

        // the session's own snapshot was never written to or replaced
        assert!(Arc::ptr_eq(&shared, &tango.catalog.as_ref().unwrap().1));
        assert!(!shared.keys().any(|t| t.starts_with("#MAT")));
        // a report holds what its plan is priced under
        drop((first, report));
        assert_eq!(Arc::strong_count(&shared), 2);
    }

    /// The misestimate-rescue shape at golden scale (`tests/observability.rs`,
    /// `explain_analyze_golden_cardinality_replan`): a session whose
    /// naive `Overlaps` estimate of a 20-day window over POSITION is 51×
    /// off, so the monitor fires at the first breaker and the re-planned
    /// join runs in the DBMS, spliced above it.
    fn replanning_session() -> Tango {
        let db = Database::new(Link::new(LinkProfile::instant()));
        let conn = Connection::new(db.clone());
        conn.execute("CREATE TABLE POSITION (PosID INT, EmpID INT, T1 INT, T2 INT)").unwrap();
        conn.execute("CREATE TABLE POSINFO (PosID INT, Info VARCHAR(200))").unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut rows = Vec::new();
        for p in 0..40 {
            for v in 0..10 {
                let t1 = v * 500 + (step() % 460) as i64;
                let t2 = t1 + 1 + (step() % 39) as i64;
                rows.push(tup![p, (step() % 80) as i64, t1, t2]);
            }
        }
        db.insert_rows("POSITION", rows).unwrap();
        let info = (0..40).map(|p| tup![p, format!("dossier-{p:06}-{}", "x".repeat(140))]);
        db.insert_rows("POSINFO", info.collect()).unwrap();
        conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
        conn.execute("ANALYZE TABLE POSINFO COMPUTE STATISTICS").unwrap();
        let mut tango = Tango::connect(db);
        tango.options_mut().cache_budget = None;
        tango.options_mut().opt.naive_overlaps = true;
        tango.set_factors(CostFactors {
            p_tm: 5.0,
            p_td: 4.5,
            p_td_fixed: 200.0,
            p_jd: 0.06,
            p_mjm: 0.02,
            ..Default::default()
        });
        tango
    }

    /// EXPLAIN's estimates are priced when read, as they would have been
    /// priced as the query returned: for Queries 1–4 at
    /// `UisConfig::small` (staged) and for a spliced re-plan,
    /// `node_estimates()` read after later statements warmed the cache and
    /// feedback moved the factors is, bit for bit, [`TangoSem::price`] of
    /// the executed plan taken as the query returned. `Tango::query` runs
    /// no pricing fold, `Tango::explain_analyze` exactly one.
    #[test]
    fn estimates_priced_on_read_are_those_of_the_plan_that_ran() {
        use crate::engine::tests::{uis_db, uis_statements};
        let bits = |e: &[NodeEstimate]| -> Vec<(u64, u64)> {
            e.iter().map(|e| (e.est_rows.to_bits(), e.est_cost_us.to_bits())).collect()
        };
        let pricings = || crate::opt::PRICINGS.with(|n| n.get());
        let spliced = "SELECT P.PosID, P.T1, I.Info FROM POSITION P, POSINFO I \
             WHERE P.PosID = I.PosID AND P.T1 <= 2520 AND P.T2 >= 2500 ORDER BY P.PosID, P.T1";
        let (mut uis, mut replanning) = (Tango::connect(uis_db()), replanning_session());
        let statements = uis_statements();
        let mut ran = Vec::new();
        for (name, sql) in &statements[..4] {
            ran.push((*name, uis.query(sql).unwrap().1));
        }
        ran.push(("spliced re-plan", replanning.query(spliced).unwrap().1));
        let steps = &ran[4].1.exec.steps;
        assert!(steps.iter().any(|s| s.annotation("replan") == Some("spliced")), "{steps:?}");
        let before = pricings();
        let eager: Vec<Vec<NodeEstimate>> = ran
            .iter()
            .map(|(_, r)| r.optimized.pricing.price(&r.optimized.plan).unwrap())
            .collect();
        assert_eq!(pricings() - before, ran.len());

        uis.options_mut().feedback = true;
        for (_, sql) in &statements {
            uis.query(sql).unwrap();
        }
        for ((name, report), eager) in ran.iter().zip(&eager) {
            assert_eq!(bits(report.optimized.node_estimates()), bits(eager), "{name}");
        }

        let before = pricings();
        uis.query(&statements[1].1).unwrap();
        assert_eq!(pricings(), before, "Tango::query priced its plan");
        let (_, report) = uis.explain_analyze(&statements[1].1).unwrap();
        report.optimized.node_estimates();
        assert_eq!(pricings() - before, 1, "EXPLAIN ANALYZE prices once");
    }

    /// Options that do not change what the Statistics Collector fetches
    /// leave the catalog snapshot alone; flipping `use_histograms`
    /// re-collects it, once.
    #[test]
    fn options_mut_recollects_statistics_only_on_a_histogram_flip() {
        let q1 = "VALIDTIME SELECT PosID, COUNT(PosID) AS CNT FROM POSITION GROUP BY PosID";
        let mut tango = setup();
        let link = tango.conn().database().link().clone();
        tango.optimize(q1).unwrap();
        let collected = tango.catalog.clone().unwrap().1;

        let before = link.roundtrips();
        tango.options_mut().batch_rows = Some(64);
        tango.options_mut().cache_budget = Some(1 << 20);
        tango.options_mut().rewrite_packs = vec!["compat".into()];
        tango.optimize(q1).unwrap();
        assert_eq!(link.roundtrips(), before, "statistics re-collected over the wire");
        assert!(Arc::ptr_eq(&collected, &tango.catalog.as_ref().unwrap().1));

        tango.options_mut().use_histograms = false;
        tango.optimize(q1).unwrap();
        let recollected = tango.catalog.clone().unwrap().1;
        assert!(!Arc::ptr_eq(&collected, &recollected), "histogram flip must re-collect");
        assert!(link.roundtrips() > before);
        let after = link.roundtrips();
        tango.optimize(q1).unwrap();
        assert_eq!(link.roundtrips(), after, "one re-collection per flip");
    }

    #[test]
    fn non_temporal_queries_work_too() {
        let mut tango = setup();
        let (rel, _) = tango
            .query("SELECT EmpName, PosID FROM POSITION WHERE PosID = 1 ORDER BY EmpName")
            .unwrap();
        assert_eq!(rel.tuples(), &[tup!["Jane", 1], tup!["Tom", 1]]);
        let _ = rel.schema().index_of("EmpName").unwrap();
        assert_eq!(rel.tuples()[0][1], Value::Int(1));
    }
}
