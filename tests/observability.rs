//! The execution-trace layer end to end: per-operator accounting in
//! [`ExecReport`], the machine-readable JSON form, `EXPLAIN` /
//! `EXPLAIN ANALYZE` rendering.

use tango::algebra::{tup, Attr, Expr, Schema, Type, Value};
use tango::core::cost::CostFactors;
use tango::core::engine::{ExecReport, Executor};
use tango::core::phys::{Algo, PhysNode, Site};
use tango::core::tsql::{strip_explain, Explain};
use tango::minidb::{Connection, Database, Link, LinkProfile};
use tango::Tango;
use tango_trace::json::{parse, Json};
use tango_trace::{events_to_json, Collector, SpanSite};

fn setup() -> (Database, Connection) {
    let db = Database::new(Link::new(LinkProfile::instant()));
    let conn = Connection::new(db.clone());
    conn.execute("CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(20), T1 INT, T2 INT)").unwrap();
    conn.execute("INSERT INTO POSITION VALUES (1,'Tom',2,20),(1,'Jane',5,25),(2,'Tom',5,10)")
        .unwrap();
    conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
    (db, conn)
}

fn scan(c: &Connection, table: &str) -> PhysNode {
    PhysNode::scan(table, c.table_schema(table).unwrap())
}

/// SORT^M ← FILTER^M ← TRANSFER^M ← SCAN^D: a three-step middleware
/// pipeline whose per-operator rows, bytes and time accounting must add
/// up.
fn three_op_plan(conn: &Connection) -> PhysNode {
    PhysNode::over(
        Algo::SortM(tango::algebra::SortSpec::by(["EmpName"])),
        vec![PhysNode::over(
            Algo::FilterM(Expr::eq(Expr::col("PosID"), Expr::lit(1))),
            vec![PhysNode::over(Algo::TransferM, vec![scan(conn, "POSITION")]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap()
}

fn run_traced(conn: &Connection) -> ExecReport {
    let plan = three_op_plan(conn);
    let run = Executor::new(conn).run(&plan).unwrap();
    assert_eq!(run.rel.len(), 2); // PosID = 1 matches Tom and Jane
    run.report
}

#[test]
fn exec_report_row_accounting() {
    let (_db, conn) = setup();
    let report = run_traced(&conn);

    // bottom-up step order: TRANSFER^M, FILTER^M, SORT^M
    assert_eq!(report.steps.len(), 3);
    let (t, f, s) = (&report.steps[0], &report.steps[1], &report.steps[2]);
    assert!(matches!(t.algo, Algo::TransferM));
    assert!(matches!(f.algo, Algo::FilterM(_)));
    assert!(matches!(s.algo, Algo::SortM(_)));

    // rows: the transfer fetches all 3, the filter keeps 2, the sort
    // preserves them
    assert_eq!(t.out_rows, 3);
    assert_eq!(f.out_rows, 2);
    assert_eq!(s.out_rows, 2);
    assert_eq!(report.rows, 2);

    // the step tree mirrors the plan
    assert_eq!(t.children, Vec::<usize>::new());
    assert_eq!(f.children, vec![0]);
    assert_eq!(s.children, vec![1]);
}

#[test]
fn exec_report_byte_accounting() {
    let (_db, conn) = setup();
    let report = run_traced(&conn);
    let (t, f, s) = (&report.steps[0], &report.steps[1], &report.steps[2]);

    // every tuple has a positive wire size; dropping a row must shrink
    // the filter's byte count below the transfer's
    assert!(t.out_bytes > 0);
    assert!(f.out_bytes > 0 && f.out_bytes < t.out_bytes);
    // the sort re-emits exactly what the filter produced
    assert_eq!(s.out_bytes, f.out_bytes);
}

#[test]
fn exec_report_exclusive_time_accounting() {
    let (_db, conn) = setup();
    let report = run_traced(&conn);
    let (t, f, s) = (&report.steps[0], &report.steps[1], &report.steps[2]);

    for step in [t, f, s] {
        assert!(step.inclusive_us >= 0.0);
        assert!(step.exclusive_us >= 0.0);
        assert!(
            step.exclusive_us <= step.inclusive_us + 1e-6,
            "exclusive {} > inclusive {} for {}",
            step.exclusive_us,
            step.inclusive_us,
            step.label
        );
    }
    // inclusive times nest: each parent contains its child's time
    assert!(f.inclusive_us >= t.inclusive_us);
    assert!(s.inclusive_us >= f.inclusive_us);
    // exclusive = inclusive − Σ children inclusive
    assert!((f.exclusive_us - (f.inclusive_us - t.inclusive_us)).abs() < 1e-3);
    assert!((s.exclusive_us - (s.inclusive_us - f.inclusive_us)).abs() < 1e-3);
}

#[test]
fn exec_report_counters_and_sites() {
    let (_db, conn) = setup();
    let report = run_traced(&conn);
    let (t, f, s) = (&report.steps[0], &report.steps[1], &report.steps[2]);

    assert_eq!(t.site(), Site::Middleware);
    assert!(t.counters.iter().any(|&(k, v)| k == "sql_round_trips" && v == 1));
    assert!(f.counters.iter().any(|&(k, v)| k == "rows_dropped" && v == 1));
    assert!(s.counters.iter().any(|&(k, v)| k == "rows_buffered" && v == 2));
}

#[test]
fn exec_report_json_is_well_formed() {
    let (_db, conn) = setup();
    let report = run_traced(&conn);
    let json = report.to_json();
    for key in
        ["\"rows\":", "\"steps\":", "\"op\":", "\"site\":", "\"exclusive_us\":", "\"counters\":"]
    {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(json.contains("\"op\":\"TRANSFER^M\""), "{json}");
    assert!(json.contains("\"rows_dropped\":1"), "{json}");
    parse(&json).expect("ExecReport::to_json must be valid JSON");
}

fn keys(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

fn get<'a>(doc: &'a Json, key: &str) -> &'a Json {
    match doc {
        Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .unwrap_or_else(|| panic!("no key {key:?} in {doc:?}"))
}

fn items(doc: &Json) -> &[Json] {
    match doc {
        Json::Arr(items) => items,
        other => panic!("expected a JSON array, got {other:?}"),
    }
}

/// Every JSON document the system emits is accepted by the one parser
/// (`tango_trace::json::parse`) and carries its expected top-level keys.
#[test]
fn every_emitted_json_document_parses_back() {
    const REPORT_KEYS: [&str; 5] = ["rows", "wall_us", "wire_us", "total_us", "steps"];
    const SPAN_KEYS: [&str; 8] =
        ["op", "site", "inclusive_us", "exclusive_us", "rows", "bytes", "server_us", "children"];

    // `ExecReport::to_json` for Query 1
    let (db, _conn) = setup();
    let mut tango = Tango::connect(db);
    let (_, report) = tango.query(QUERY1).unwrap();
    let exec = parse(&report.exec.to_json()).expect("ExecReport::to_json");
    assert_eq!(keys(&exec), REPORT_KEYS);
    assert_eq!(get(&exec, "rows"), &Json::Num(4.0));
    let steps = items(get(&exec, "steps"));
    assert_eq!(steps.len(), report.exec.steps.len());
    for step in steps {
        for k in SPAN_KEYS {
            assert!(keys(step).contains(&k), "step without {k}: {step:?}");
        }
    }

    // a step's `events` array, with text that needs escaping
    let detail = "ORA-03113 \"end-of-file\"\non\tround trip 4 \\ attempt 2";
    let mut c = Collector::new();
    let (_, transfer) = c.span("TRANSFER^M", SpanSite::Middleware, vec![]);
    transfer.add_event("fault", detail);
    let events = parse(&events_to_json(&c.finish()[0].events)).expect("events_to_json");
    let [event] = items(&events) else { panic!("expected one event: {events:?}") };
    assert_eq!(get(event, "detail"), &Json::Str(detail.into()), "escaping must round-trip");

    // `MidCache::stats_json`
    let cache = parse(&tango.cache().stats_json()).expect("MidCache::stats_json");
    assert_eq!(keys(&cache), ["entries", "bytes", "budget", "totals"]);
    assert_eq!(
        keys(get(&cache, "totals")),
        [
            "hits",
            "misses",
            "bypasses",
            "insertions",
            "evictions",
            "invalidations",
            "rejections",
            "admission_rejects",
            "duplicate_populates",
            "refreshes",
            "refresh_bytes",
            "refresh_bails"
        ]
    );
    assert_eq!(get(get(&cache, "totals"), "insertions"), &Json::Num(1.0));
}

#[test]
fn strip_explain_prefixes() {
    assert_eq!(strip_explain("SELECT 1"), (None, "SELECT 1"));
    assert_eq!(strip_explain("EXPLAIN SELECT 1"), (Some(Explain::Plan), "SELECT 1"));
    assert_eq!(
        strip_explain("  explain analyze VALIDTIME SELECT 1"),
        (Some(Explain::Analyze), "VALIDTIME SELECT 1")
    );
    // EXPLAIN must be a standalone word
    assert_eq!(strip_explain("EXPLAINX"), (None, "EXPLAINX"));
}

const QUERY1: &str = "VALIDTIME SELECT PosID, COUNT(PosID) AS CNT FROM POSITION \
                      GROUP BY PosID ORDER BY PosID";

#[test]
fn explain_shows_sites_and_estimates() {
    let (db, _conn) = setup();
    let mut tango = Tango::connect(db);
    let text = tango.explain(QUERY1).unwrap();
    assert!(text.contains("TAGGR^M"), "{text}");
    assert!(text.contains("(middleware, est rows"), "{text}");
    assert!(text.contains("(dbms, est rows"), "{text}");
    // EXPLAIN alone never executes: no actuals, no totals
    assert!(!text.contains("actual rows"), "{text}");
    assert!(!text.contains("total:"), "{text}");
}

/// Golden output: `EXPLAIN ANALYZE` for Query 1 on the Figure 3 data,
/// with timings redacted so the rendering is reproducible.
#[test]
fn explain_analyze_golden_query1() {
    let (db, _conn) = setup();
    let mut tango = Tango::connect(db);
    let optimized = tango.optimize(QUERY1).unwrap();
    let (rel, exec) = tango.execute_physical(&optimized.plan).unwrap();
    assert_eq!(rel.len(), 4); // Figure 3(c)
    let text = optimized.explain_analyze(&exec, true);
    let expected = "\
PROJECT^M  (middleware, est rows 2.4, actual rows 4, exclusive ?, batches 1)
  TAGGR^M [group by PosID; COUNT(PosID) AS CNT]  (middleware, est rows 2.4, actual rows 4, exclusive ?, groups 2, constant_periods 4, batches 1)
    TRANSFER^M  (middleware, est rows 3.0, actual rows 3, exclusive ?, server ?, cache miss, sql_round_trips 1, cache_bytes 72, batches 1)
      SORT^D [PosID, T1]  (dbms, est rows 3.0, in SQL)
        PROJECT^D  (dbms, est rows 3.0, in SQL)
          SCAN^D POSITION  (dbms, est rows 3.0, in SQL)
total: 4 rows, wall ?, wire ?, wall+wire ?
";
    assert_eq!(text, expected, "got:\n{text}");
}

/// Versioned `POSITION` joined against the wide per-position `POSINFO`
/// dossier table — the misestimate-rescue shape of
/// `tests/adaptive_replan.rs` at golden scale. The naive `Overlaps`
/// estimator believes the 20-day window keeps ~25% of `POSITION`; the
/// truth is a handful of rows, so the misestimate monitor fires at the
/// first pipeline breaker and flips the join into the DBMS.
fn replan_setup() -> Database {
    let db = Database::new(Link::new(LinkProfile::instant()));
    let position = Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("EmpID", Type::Int),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ]);
    db.create_table("POSITION", position).unwrap();
    let posinfo = Schema::new(vec![Attr::new("PosID", Type::Int), Attr::new("Info", Type::Str)]);
    db.create_table("POSINFO", posinfo).unwrap();

    // deterministic xorshift: the fixture (and hence the golden) can
    // never drift
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    const POSITIONS: i64 = 40;
    const VERSIONS: i64 = 10;
    const DOMAIN: i64 = 5_000;
    let stride = DOMAIN / VERSIONS;
    let mut rows = Vec::new();
    for p in 0..POSITIONS {
        for v in 0..VERSIONS {
            // one version per stratum of the domain, so (PosID, T1) is
            // unique and the ORDER BY below is a total order
            let t1 = v * stride + (step() % (stride as u64 - 40)) as i64;
            let t2 = t1 + 1 + (step() % 39) as i64;
            rows.push(tup![p, (step() % 80) as i64, t1, t2]);
        }
    }
    db.insert_rows("POSITION", rows).unwrap();
    let dossier: Vec<_> = (0..POSITIONS)
        .map(|p| tup![p, Value::Str(format!("dossier-{p:06}-{}", "x".repeat(140)))])
        .collect();
    db.insert_rows("POSINFO", dossier).unwrap();
    let conn = Connection::new(db.clone());
    conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
    conn.execute("ANALYZE TABLE POSINFO COMPUTE STATISTICS").unwrap();
    db
}

const REPLAN_QUERY: &str = "SELECT P.PosID, P.T1, I.Info FROM POSITION P, POSINFO I \
     WHERE P.PosID = I.PosID AND P.T1 <= 2520 AND P.T2 >= 2500 \
     ORDER BY P.PosID, P.T1";

/// Golden output: `EXPLAIN ANALYZE` after a mid-query cardinality
/// re-plan. Pins the `cardinality-replan` event line, the `replans`
/// counter, the est-vs-actual rows at the triggering breaker, and the
/// `replan spliced` annotations on the re-optimized remainder. Cost
/// factors are pinned (not calibrated) so the placement decisions — and
/// hence the rendered plan — are reproducible.
#[test]
fn explain_analyze_golden_cardinality_replan() {
    let db = replan_setup();
    let mut tango = Tango::connect(db);
    tango.options_mut().cache_budget = None;
    tango.options_mut().opt.naive_overlaps = true; // seed the misestimate
    tango.set_factors(CostFactors {
        p_tm: 5.0,
        p_td: 4.5,
        p_td_fixed: 200.0,
        p_jd: 0.06,
        p_mjm: 0.02,
        ..Default::default()
    });
    let (rel, report) = tango.query(REPLAN_QUERY).unwrap();
    let text = report.optimized.explain_analyze(&report.exec, true);
    // The triggering breaker is the TRANSFER^M over the naive window
    // selection: est rows 102 vs actual rows 2 (51× off, past the
    // default 8× threshold). The remainder above it was re-optimized —
    // the join flipped into the DBMS behind a TRANSFER^D of the
    // materialized breaker output — and every spliced step is annotated.
    let expected = "\
TRANSFER^M  (middleware, est rows 2.0, actual rows 2, exclusive ?, server ?, replan spliced, sql_round_trips 1, batches 1)
  SORT^D [PosID, T1]  (dbms, est rows 2.0, in SQL)
    PROJECT^D  (dbms, est rows 2.0, in SQL)
      PROJECT^D  (dbms, est rows 2.0, in SQL)
        JOIN^D [PosID=PosID]  (dbms, est rows 2.0, in SQL)
          SCAN^D POSINFO  (dbms, est rows 40.0, in SQL)
          TRANSFER^D  (dbms, est rows 2.0, actual rows 0, exclusive ?, replan spliced, rows_loaded 2, sql_round_trips 1)
            MATSCAN^M #MAT0  (middleware, est rows 2.0, actual rows 2, exclusive ?, batches 1)
              TRANSFER^M  (middleware, est rows 102, actual rows 2, exclusive ?, server ?, sql_round_trips 1, batches 1, replans 1, replan_gain_est ?, events: cardinality-replan)
                SORT^D [PosID]  (dbms, est rows 102, in SQL)
                  PROJECT^D  (dbms, est rows 102, in SQL)
                    FILTER^D [((T1 <= 2520) AND (T2 >= 2500))]  (dbms, est rows 102, in SQL)
                      SCAN^D POSITION  (dbms, est rows 400, in SQL)
total: 2 rows, wall ?, wire ?, wall+wire ?
";
    assert_eq!(rel.len(), 2);
    assert_eq!(text, expected, "got:\n{text}");
}

#[test]
fn explain_analyze_entry_point_runs_the_query() {
    let (db, _conn) = setup();
    let mut tango = Tango::connect(db);
    let (text, report) = tango.explain_analyze(QUERY1).unwrap();
    assert!(text.contains("actual rows 4"), "{text}");
    assert!(text.contains("total: 4 rows"), "{text}");
    assert_eq!(report.exec.rows, 4);
    // the optimizer-side trace is available alongside
    let trace = report.optimized.optimizer_trace();
    assert!(trace.contains("classes"), "{trace}");
    assert!(trace.contains("optimize calls"), "{trace}");
}

/// `Tango::query` times its own phases — parse, rewrite, snapshot,
/// search, execute, pricing — as consecutive laps of one clock, so they
/// sum to the call's wall time; what is left is the call's entry and
/// return. The quietest of five calls bounds that rest by ε (a loaded
/// host can preempt any single call between its last lap and its return).
/// The phases appear in the report's JSON and in `EXPLAIN ANALYZE`.
#[test]
fn query_phases_sum_to_the_calls_wall_time() {
    const EPSILON: std::time::Duration = std::time::Duration::from_micros(200);
    let (db, _conn) = setup();
    let mut tango = Tango::connect(db);
    tango.options_mut().rewrite_packs = vec!["temporal-normalize".into()];
    let mut rests = Vec::new();
    for _ in 0..5 {
        let start = std::time::Instant::now();
        let (_, report) = tango.query(QUERY1).unwrap();
        let wall = start.elapsed();
        let phases = report.phases;
        assert!(phases.total() <= wall, "{phases:?} sum past the call's {wall:?}");
        for (name, d) in phases.named() {
            assert!(d > std::time::Duration::ZERO, "{name} took no time: {phases:?}");
        }
        rests.push(wall - phases.total());
    }
    let rest = rests.iter().min().unwrap();
    assert!(*rest < EPSILON, "the phases miss {rest:?} of the call: {rests:?}");

    let (_, report) = tango.query(QUERY1).unwrap();
    let json = parse(&report.to_json()).expect("QueryReport::to_json");
    assert_eq!(keys(&json), ["phases_us", "exec"]);
    let phases = get(&json, "phases_us");
    assert_eq!(keys(phases), ["parse", "rewrite", "snapshot", "search", "execute", "pricing"]);
    let sum: f64 = report.phases.named().iter().map(|(_, d)| d.as_secs_f64() * 1e6).sum();
    let Json::Num(execute) = get(phases, "execute") else { panic!("{phases:?}") };
    assert!(*execute > 0.0 && *execute <= sum, "{phases:?}");
    assert_eq!(get(&json, "exec"), &parse(&report.exec.to_json()).unwrap());

    let (text, _) = tango.explain_analyze(QUERY1).unwrap();
    let line = text.lines().find(|l| l.starts_with("phases: ")).expect(&text);
    assert!(line.starts_with("phases: parse ") && line.contains(", pricing "), "{line}");
    let redacted = report.optimized.explain_analyze(&report.exec, true);
    assert!(!redacted.contains("phases"), "the redacted rendering stays as it was:\n{redacted}");
}
