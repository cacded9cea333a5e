//! The differential oracle: moving an operator between the middleware
//! and the DBMS — or serving it from the cache, refreshing it after a
//! write, re-planning it mid-query, rewriting it, batching it, or running
//! it over a faulty wire — never changes the answer.
//!
//! Each case draws a small POSITION / EMPLOYEE database (NULL period
//! endpoints, empty periods, duplicate rows, negative and fractional
//! `PayRate`s, indexes on an INT and a DOUBLE column) and a handful of
//! temporal SQL statements over it. Every statement runs first in a
//! *control* session — cache off, no rewrite packs, no re-planning,
//! batch 1, clean wire, the optimizer's own placement — and then in
//! sessions that mix the modes of [`AXES`]. Every run must return the
//! control's multiset, sorted on the statement's ORDER BY; runs of one
//! plan over one database state must agree row for row; a forced
//! placement must show in the plan. The modes come from a pairwise
//! covering array, and the run asserts at its end that every pair of
//! axis values met at least once.
//!
//! A failure prints one line that reproduces it: the case, the seed to
//! export, the modes and the SQL. `TANGO_PROPTEST_SEED` varies the
//! stream; `TANGO_CHAOS_SEED` pins the fault schedule of the chaos wire.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use support::{
    chaos_profile, chaos_seeds, dbms_heavy, env_u64, mid_heavy, position_db, wire_fitted, Row,
    ALL_PACKS,
};
use tango::algebra::{tup, Attr, Relation, Schema, SortSpec, Type, Value};
use tango::core::engine::ExecReport;
use tango::minidb::{Connection, Database, Fault, FaultPlan, RetryPolicy};
use tango::{Tango, TangoOptions};

/// Databases drawn per run.
const CASES: u64 = 24;
/// Statements drawn per database.
const STATEMENTS: usize = 4;
/// Mode combinations each statement runs under.
const MODES: usize = 3;

// ------------------------------------------------------------------ modes

const PLACEMENT: usize = 0;
const CACHE: usize = 1;
const REPLAN: usize = 2;
const SORT: usize = 3;
const PACKS: usize = 4;
const BATCH: usize = 5;
const WIRE: usize = 6;

/// Every axis a statement is checked under, and its values.
/// * placement: the optimizer's choice, or every operator the DBMS (the
///   middleware) can run, forced by extreme cost factors — on a single
///   pass the middleware also takes the selections, through the
///   re-plan fallback;
/// * cache: off; the shared cache emptied, then one run; a populating
///   run, then the run served from the resident copy; or populated and
///   hit, then a write, then the run that refreshes the stale entry by
///   delta — by its own delta fetch, or from the delta mirror another
///   session's refresh filled;
/// * replan: off, the default misestimate monitor, or the naive
///   `Overlaps` estimator under a hair trigger so the monitor fires —
///   where the optimizer chooses the placement, under factors fitted to
///   a slow wire, so a misestimated window below a join flips the join
///   and the monitor splices a new remainder;
/// * sort: `mid_sort_budget` unbounded, or 16 bytes (every middleware
///   sort external);
/// * packs, batch rows, and a clean or a faulty wire.
const AXES: [(&str, &[&str]); 7] = [
    ("placement", &["chosen", "dbms", "middleware"]),
    ("cache", &["off", "cold", "warm", "refreshed"]),
    ("replan", &["off", "on", "forced"]),
    ("sort", &["unbounded", "16B"]),
    ("packs", &["none", "all"]),
    ("batch", &["1", "3", "8", "1024"]),
    ("wire", &["clean", "chaos"]),
];

/// One row of the covering array, and the fault schedule a chaos wire
/// draws from.
struct Mode {
    row: [usize; 7],
    chaos_seed: u64,
}

impl Mode {
    fn value(&self, axis: usize) -> &'static str {
        AXES[axis].1[self.row[axis]]
    }

    fn session(&self, db: &Database) -> Tango {
        let mut options =
            TangoOptions { batch_rows: self.value(BATCH).parse().ok(), ..Default::default() };
        // the snapshot-approximate window push keeps snapshots, not
        // multisets, so no list or multiset oracle can check it
        options.opt.approx_rules = false;
        match self.value(REPLAN) {
            "off" => options.opt.replan_ratio = None,
            "forced" => (options.opt.replan_ratio, options.opt.naive_overlaps) = (Some(1.2), true),
            _ => {}
        }
        options.opt.mid_sort_budget = (self.value(SORT) == "16B").then_some(16);
        if self.value(CACHE) == "off" {
            options.cache_budget = None;
        }
        if self.value(PACKS) == "all" {
            options.rewrite_packs = ALL_PACKS.map(String::from).to_vec();
        }
        let mut tango = Tango::connect_with(db.clone(), options);
        match self.value(PLACEMENT) {
            "dbms" => tango.set_factors(dbms_heavy()),
            "middleware" => tango.set_factors(mid_heavy()),
            _ if self.value(REPLAN) == "forced" => tango.set_factors(wire_fitted()),
            _ => {}
        }
        // collect statistics now, so no fault schedule lands on them
        tango.refresh_statistics().unwrap();
        tango
    }

    fn describe(&self) -> String {
        let axes = (0..7).map(|a| format!("{}={}", AXES[a].0, self.value(a)));
        let wire = if self.value(WIRE) == "chaos" {
            format!(":{:#x}", self.chaos_seed)
        } else {
            String::new()
        };
        axes.collect::<Vec<_>>().join(" ") + &wire
    }
}

/// A pairwise covering array over [`AXES`]: every value of every axis
/// meets every value of every other axis in at least one row. Greedy:
/// each row starts from the first pair still uncovered and fills the
/// other axes with whichever value covers the most new pairs.
fn covering_array() -> Vec<[usize; 7]> {
    let n = |axis: usize| AXES[axis].1.len();
    let mut open: Vec<_> = (0..7)
        .flat_map(|i| {
            (i + 1..7).flat_map(move |j| {
                (0..n(i)).flat_map(move |a| (0..n(j)).map(move |b| (i, a, j, b)))
            })
        })
        .collect();
    let mut rows = Vec::new();
    while let Some(&(i, a, j, b)) = open.first() {
        let mut row = [usize::MAX; 7];
        (row[i], row[j]) = (a, b);
        for k in (0..7).filter(|&k| k != i && k != j) {
            let gain = |v: usize| {
                let new = |&&(x, va, y, vb): &&(usize, usize, usize, usize)| {
                    (x == k && va == v && row[y] == vb) || (y == k && vb == v && row[x] == va)
                };
                open.iter().filter(new).count()
            };
            row[k] = (0..n(k)).max_by_key(|&v| (gain(v), std::cmp::Reverse(v))).unwrap();
        }
        open.retain(|&(x, va, y, vb)| !(row[x] == va && row[y] == vb));
        rows.push(row);
    }
    rows
}

// -------------------------------------------------------------- database

/// A drawn POSITION / EMPLOYEE database over the chaos wire profile, with
/// B-tree indexes on `POSITION.PosID` (INT) and `POSITION.PayRate`
/// (DOUBLE). Periods include NULL endpoints and empty periods; rows
/// repeat; `PayRate`s are negative and fractional.
fn draw_db(rng: &mut StdRng) -> Database {
    let mut rows: Vec<Row> = Vec::new();
    // most cases hold short periods in two clusters around an empty gap,
    // [20, 28): the naive `Overlaps` estimator prices a window in the gap
    // at a quarter of the table, so the misestimate monitor has something
    // to catch
    let gap = rng.gen_bool(0.75);
    for _ in 0..rng.gen_range(8..40) {
        if !rows.is_empty() && rng.gen_bool(0.15) {
            rows.push(rows[rng.gen_range(0..rows.len())]);
            continue;
        }
        let (t1, len) = match gap {
            false => (rng.gen_range(0..40), rng.gen_range(0..15)),
            true => {
                let cluster = if rng.gen_bool(0.5) { 28 } else { 0 };
                (cluster + rng.gen_range(0..12), rng.gen_range(0..8))
            }
        };
        let pay = rng.gen_range(-30..60) as f64 / 4.0;
        rows.push((rng.gen_range(1..7), rng.gen_range(1..10), pay, t1, t1 + len));
    }
    let db = position_db(chaos_profile(), &rows);
    // a row cannot carry a NULL endpoint, so a few rows lose one here
    let conn = Connection::new(db.clone());
    for col in ["T1", "T2"] {
        let emp = rng.gen_range(1..20);
        conn.execute(&format!("UPDATE POSITION SET {col} = NULL WHERE EmpID = {emp}")).unwrap();
    }
    let employee = ["EmpID", "EmpName", "T1", "T2"]
        .map(|c| Attr::new(c, if c == "EmpName" { Type::Str } else { Type::Int }));
    db.create_table("EMPLOYEE", Schema::with_inferred_period(employee.to_vec())).unwrap();
    let employees = (1..10)
        .flat_map(|e: i64| {
            let t1 = rng.gen_range(0..30);
            let t2 = t1 + rng.gen_range(0..20);
            let name = Value::Str(format!("emp{}", e % 7));
            [tup![e, name.clone(), t1, t2], tup![e, name, t2, t2 + rng.gen_range(1..20)]]
        })
        .collect();
    db.insert_rows("EMPLOYEE", employees).unwrap();
    conn.execute("CREATE INDEX POS_ID ON POSITION (PosID)").unwrap();
    conn.execute("CREATE INDEX POS_PAY ON POSITION (PayRate)").unwrap();
    db.analyze("POSITION").unwrap();
    db.analyze("EMPLOYEE").unwrap();
    db.link().reset();
    db
}

/// A write between a warm run and its refresh: an insert, a delete, both,
/// or a delete that re-inserts the rows it took (the multiset stands, the
/// rows move behind the ones they tie with).
fn write(db: &Database, rng: &mut StdRng) -> &'static str {
    let conn = Connection::new(db.clone());
    let (emp, t1, pay) = (rng.gen_range(1..10), rng.gen_range(0..40), rng.gen_range(-8..24));
    let row = tup![rng.gen_range(1..7), emp, Value::Double(pay as f64 / 4.0), t1, t1 + 5];
    let delete = |emp: i64| conn.execute(&format!("DELETE FROM POSITION WHERE EmpID = {emp}"));
    let kind: &str =
        ["insert", "delete", "insert+delete", "delete+reinsert"][rng.gen_range(0..4usize)];
    let held = conn.query_all(&format!("SELECT * FROM POSITION WHERE EmpID = {emp}")).unwrap();
    if kind.starts_with("insert") {
        db.insert_rows("POSITION", vec![row]).unwrap();
    }
    if kind.contains("delete") {
        delete(if kind == "insert+delete" { rng.gen_range(1..10) } else { emp }).unwrap();
    }
    if kind == "delete+reinsert" {
        db.insert_rows("POSITION", held.into_tuples()).unwrap();
    }
    kind
}

// ------------------------------------------------------------ statements

struct Statement {
    sql: String,
    order: SortSpec,
    /// The operator a forced placement moves, as the DBMS and as the
    /// middleware label it in EXPLAIN.
    sites: [&'static str; 2],
}

/// One of the statement shapes, its literals drawn: `Overlaps` windows,
/// range predicates with fractional literals against both indexes,
/// equi- and temporal joins (self-joins and POSITION ⋈ EMPLOYEE),
/// temporal aggregation grouped and global, Query 2's nested shape,
/// DISTINCT and COALESCE. A selection costs the same on either side of
/// the wire, so for the selections the ORDER BY's sort is what moves.
fn draw_statement(rng: &mut StdRng) -> Statement {
    let (a, b, k) = (rng.gen_range(0..30), rng.gen_range(5..45), rng.gen_range(2..8));
    let [x, y] = [(); 2].map(|_| rng.gen_range(-12..24) as f64 / 4.0 + 0.1);
    let mut pick = |xs: &[&'static str]| xs[rng.gen_range(0..xs.len())];
    let (op1, op2) = (pick(&["<", "<=", ">", ">="]), pick(&["<", "<=", ">", ">="]));
    let (func, arg) = (pick(&["COUNT", "SUM", "AVG", "MIN", "MAX"]), pick(&["PayRate", "EmpID"]));
    let (vt, filter) = (pick(&["", "VALIDTIME "]), pick(&["", "WHERE PayRate > "]));
    let filter = if filter.is_empty() { String::new() } else { format!("{filter}{y} ") };
    let n = (rng.gen_range(0..7) as f64) + 0.5;
    // the DBMS scans the index of whichever range comes first
    let mut ranges = [format!("PayRate {op1} {x}"), format!("PosID {op2} {n}")];
    ranges.rotate_left(rng.gen_range(0..2usize));
    let ranges = ranges.join(" AND ");
    let sort = ["SORT^D", "SORT^M"];
    let (join, tjoin, taggr) =
        (["JOIN^D", "MERGEJOIN^M"], ["TJOIN^D", "TMERGEJOIN^M"], ["TAGGR^D", "TAGGR^M"]);
    let shapes: [([&str; 2], String, &str); 12] = [
        (
            sort,
            format!("{vt}SELECT PosID, EmpID, PayRate FROM POSITION WHERE T1 <= {b} AND T2 >= {a}"),
            "PosID, EmpID",
        ),
        (sort, format!("SELECT PosID, EmpID, PayRate, T1 FROM POSITION WHERE {ranges}"), "PayRate"),
        (
            join,
            format!(
                "SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
                 WHERE A.PosID = B.PosID AND A.PayRate > {x}"
            ),
            "A.PosID",
        ),
        (
            join,
            format!(
                "SELECT P.PosID, E.EmpName FROM POSITION P, EMPLOYEE E \
                 WHERE P.EmpID = E.EmpID AND P.PosID < {k}"
            ),
            "P.PosID",
        ),
        (
            tjoin,
            format!(
                "VALIDTIME SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
                 WHERE A.PosID = B.PosID AND A.T1 < {b} AND B.T1 < {b}"
            ),
            "A.PosID",
        ),
        (
            tjoin,
            "VALIDTIME SELECT P.PosID, E.EmpName FROM POSITION P, EMPLOYEE E \
             WHERE P.EmpID = E.EmpID"
                .into(),
            "P.PosID",
        ),
        (
            taggr,
            format!(
                "VALIDTIME SELECT PosID, {func}({arg}) AS A FROM POSITION {filter}GROUP BY PosID"
            ),
            "PosID",
        ),
        (
            taggr,
            format!(
                "VALIDTIME SELECT {func}({arg}) AS A, COUNT(PosID) AS C FROM POSITION {filter}"
            ),
            "T1",
        ),
        (
            taggr,
            format!(
                "VALIDTIME SELECT P.PosID, C, P.EmpID FROM \
                   (VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION GROUP BY PosID) A, \
                   POSITION P WHERE A.PosID = P.PosID AND P.PayRate > {x}"
            ),
            "P.PosID",
        ),
        (
            ["DUPELIM^D", "DUPELIM^M"],
            format!("{vt}SELECT DISTINCT PosID, EmpID FROM POSITION WHERE T1 < {b}"),
            "PosID, EmpID",
        ),
        (sort, format!("VALIDTIME COALESCE SELECT PosID FROM POSITION WHERE T1 >= {a}"), "PosID"),
        (
            join,
            format!(
                "SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
                 WHERE A.PosID = B.PosID AND A.T1 <= {} AND A.T2 >= 20",
                20 + k
            ),
            "A.PosID",
        ),
    ];
    let (sites, select, order) = shapes.into_iter().nth(rng.gen_range(0..12)).unwrap();
    let sql = format!("{} ORDER BY {order}", select.trim_end());
    let columns = order.split(", ").map(|c| c.rsplit('.').next().unwrap_or(c).to_string());
    Statement { sql, order: SortSpec::by(columns), sites }
}

// ----------------------------------------------------------------- runs

/// What the run as a whole must have seen, so no mode goes vacuous.
#[derive(Default)]
struct Tally {
    met: Vec<[usize; 7]>,
    warm_hits: u64,
    refreshes: u64,
    mirror_refreshes: u64,
    chaos_faults: u64,
    fallbacks: u64,
    splices: u64,
}

/// One case: a database, its statements and the modes they run under.
struct Case<'a> {
    label: String,
    db: Database,
    rng: StdRng,
    /// Bumped by every write: control answers and plan results are per
    /// database state.
    state: u64,
    controls: HashMap<(u64, String), Relation>,
    /// The first answer of each plan per state, to check that runs of
    /// one plan agree row for row.
    by_plan: HashMap<(u64, String), Relation>,
    tally: &'a mut Tally,
}

impl Case<'_> {
    fn control(&mut self, stmt: &Statement) -> Relation {
        let key = (self.state, stmt.sql.clone());
        if let Some(rel) = self.controls.get(&key) {
            return rel.clone();
        }
        let mut options =
            TangoOptions { cache_budget: None, batch_rows: Some(1), ..Default::default() };
        (options.opt.replan_ratio, options.opt.approx_rules) = (None, false);
        let mut control = Tango::connect_with(self.db.clone(), options);
        let (rel, _) = control
            .query(&stmt.sql)
            .unwrap_or_else(|e| panic!("{}: control failed: {e} | {}", self.label, stmt.sql));
        self.controls.insert(key, rel.clone());
        rel
    }

    /// Run `stmt` once in `tango` (over `mode`'s wire) and check it
    /// against the control.
    fn check(
        &mut self,
        tango: &mut Tango,
        stmt: &Statement,
        mode: &Mode,
        pass: &str,
    ) -> ExecReport {
        let expect = self.control(stmt);
        let repro = format!("{} [{} pass={pass}] | {}", self.label, mode.describe(), stmt.sql);
        // the optimizer leaves a selection where it costs least, in the
        // DBMS, whatever the factors; a forced middleware placement takes
        // it anyway on a single pass: the first submission exhausts its
        // retries, so the fragment re-runs on middleware operators over
        // plain base-table fetches
        let fallback = mode.value(PLACEMENT) == "middleware" && pass == "only";
        let attempts = if fallback { RetryPolicy::default().max_attempts as u64 } else { 0 };
        let chaos = mode.value(WIRE) == "chaos";
        let (rt, mut faults) = (self.db.link().roundtrips(), FaultPlan::scripted([]));
        if chaos {
            faults = FaultPlan::random(mode.chaos_seed ^ self.state, 0.2)
                .with_budget(3 + attempts)
                .with_spikes(0.1, Duration::from_millis(2))
                .with_throttle(0.1, 4.0);
        }
        for i in 1..=attempts {
            faults = faults.with_fault_at(rt + i, Fault::Transient("forced fallback".into()));
        }
        let faults = Arc::new(faults);
        self.db.link().set_injector(faults.clone());
        let run = tango.query(&stmt.sql);
        self.db.link().clear_injector();
        let (got, report) = run.unwrap_or_else(|e| panic!("{repro}\nfailed: {e}"));
        let events = || report.exec.steps.iter().flat_map(|s| &s.events);
        let fell_back = events().any(|e| e.kind == "replan");
        self.tally.fallbacks += u64::from(fell_back);
        if mode.value(REPLAN) != "off" {
            self.tally.splices +=
                events().filter(|e| e.kind == "cardinality-replan").count() as u64;
        }
        if chaos && !fallback {
            self.tally.chaos_faults += faults.faults_injected();
        }
        let plan = report.optimized.explain();
        assert!(
            got.multiset_eq(&expect),
            "{repro}\nanswer differs from the control\nexpected:\n{expect}\ngot:\n{got}\nplan:\n{plan}"
        );
        assert!(got.is_sorted_by(&stmt.order), "{repro}\nnot sorted on its ORDER BY:\n{got}");
        assert_eq!(report.exec.rows, got.len(), "{repro}\nrow accounting");
        let [dbms, mid] = stmt.sites.map(|site| plan.contains(site));
        let moved = match mode.value(PLACEMENT) {
            "dbms" => dbms && !mid,
            "middleware" => mid && !dbms,
            _ => true,
        };
        assert!(moved, "{repro}\nthe forced placement did not move {:?}:\n{plan}", stmt.sites);
        let plan = format!("{plan}{}", if fell_back { "(fell back)" } else { "" });
        match self.by_plan.get(&(self.state, plan.clone())) {
            Some(first) => {
                assert!(
                    got.list_eq(first),
                    "{repro}\none plan, two row orders\nfirst:\n{first}\nnow:\n{got}"
                )
            }
            None => drop(self.by_plan.insert((self.state, plan), got)),
        }
        report.exec
    }

    fn run(&mut self, stmt: &Statement, mode: &Mode) {
        let mut tango = mode.session(&self.db);
        tango.clear_cache();
        match mode.value(CACHE) {
            "off" | "cold" => drop(self.check(&mut tango, stmt, mode, "only")),
            "warm" => {
                self.check(&mut tango, stmt, mode, "cold");
                let hits = tango.cache().stats().hits;
                self.check(&mut tango, stmt, mode, "warm");
                self.tally.warm_hits += tango.cache().stats().hits - hits;
            }
            _ => {
                // a second session's fragment over POSITION, stale after
                // the same write: refreshing it first fills the mirror
                let mirror = self.rng.gen_bool(0.5);
                let primer = "SELECT PosID, EmpID, T1 FROM POSITION ORDER BY PosID, EmpID, T1";
                let mut other = Tango::connect(self.db.clone());
                for pass in ["cold", "warm"] {
                    if mirror {
                        other.query(primer).unwrap();
                    }
                    // populate, then earn a hit so the entry is worth a refresh
                    self.check(&mut tango, stmt, mode, pass);
                }
                let wrote = write(&self.db, &mut self.rng);
                self.state += 1;
                // a write leaves the table's statistics stale: sessions
                // connected later plan over fresh ones; the sessions open
                // here keep the snapshot they planned on
                self.db.analyze("POSITION").unwrap();
                if mirror {
                    other.query(primer).unwrap();
                }
                let refreshes = tango.cache().stats().refreshes;
                let exec = self.check(&mut tango, stmt, mode, &format!("after {wrote}"));
                self.tally.refreshes += tango.cache().stats().refreshes - refreshes;
                let events = exec.steps.iter().flat_map(|s| &s.events);
                let served = events.filter(|e| e.detail.contains("served by the delta mirror"));
                self.tally.mirror_refreshes += served.count() as u64;
            }
        }
    }
}

#[test]
fn every_mode_returns_the_control_answer() {
    let base = env_u64("TANGO_PROPTEST_SEED").unwrap_or(0);
    let (chaos, rows) = (chaos_seeds(), covering_array());
    let mut tally = Tally::default();
    let mut next = base as usize % rows.len();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let db = draw_db(&mut rng);
        let statements: Vec<Statement> =
            (0..STATEMENTS).map(|_| draw_statement(&mut rng)).collect();
        let label = format!("oracle case {case} (TANGO_PROPTEST_SEED={base:#x})");
        let (controls, by_plan) = (HashMap::new(), HashMap::new());
        let mut c = Case { label, db, rng, state: 0, controls, by_plan, tally: &mut tally };
        for stmt in &statements {
            for _ in 0..MODES {
                next += 1;
                let mode =
                    Mode { row: rows[next % rows.len()], chaos_seed: chaos[next % chaos.len()] };
                c.run(stmt, &mode);
                c.tally.met.push(mode.row);
            }
        }
    }

    for (i, j) in (0..7).flat_map(|i| (i + 1..7).map(move |j| (i, j))) {
        for (a, b) in (0..AXES[i].1.len()).flat_map(|a| (0..AXES[j].1.len()).map(move |b| (a, b))) {
            let met = tally.met.iter().any(|row| row[i] == a && row[j] == b);
            assert!(
                met,
                "{}={} never met {}={}: raise CASES",
                AXES[i].0, AXES[i].1[a], AXES[j].0, AXES[j].1[b]
            );
        }
    }
    assert!(tally.warm_hits > 0, "the warm passes never hit");
    assert!(tally.refreshes > 0, "no write was ever refreshed by delta");
    assert!(tally.mirror_refreshes > 0, "no refresh was ever served by the delta mirror");
    assert!(tally.chaos_faults > 0, "no fault schedule ever fired");
    assert!(tally.fallbacks > 0, "no fragment ever fell back to the middleware");
    assert!(tally.splices > 0, "the misestimate monitor never re-planned a remainder");
}
