//! The middleware relation cache, end to end: repeat queries are served
//! from middleware-resident copies without touching the wire, writes
//! invalidate exactly the dependent entries, the byte budget is a hard
//! bound, faulted transfers never populate partial results, and the
//! optimizer's placement decision flips when (and only when) the
//! fragment it needs already resides in the middleware — the paper's
//! Figure 10 scenario as a first-class state.

mod support;

use std::sync::Arc;
use support::{chaos_profile, lcg_rows, position_db, Row};
use tango::algebra::{
    tup, AggFunc, AggSpec, Attr, CmpOp, Expr, ProjItem, Schema, SortSpec, Type, Value,
};
use tango::core::cost::CostFactors;
use tango::core::phys::{Algo, PhysNode};
use tango::minidb::delta::DELTA_RECORD_OVERHEAD;
use tango::minidb::{
    Database, Fault, FaultPlan, Link, LinkProfile, RetryPolicy, WireMode, DEFAULT_DELTA_LOG_CAP,
};
use tango::uis::queries::q1_sql;
use tango::Tango;

/// A repeated query is answered from the resident copy: byte-identical
/// result, a `cache hit` annotation instead of SQL round trips, and not
/// one additional wire round trip.
#[test]
fn warm_run_is_byte_identical_and_wire_free() {
    let db = position_db(LinkProfile::default(), &lcg_rows(150));
    let mut tango = Tango::connect(db.clone());

    let (cold, cold_report) = tango.query(&q1_sql("POSITION")).unwrap();
    let cold_text = cold_report.optimized.explain_analyze(&cold_report.exec, true);
    assert!(cold_text.contains("cache miss"), "{cold_text}");
    assert!(cold_text.contains("cache_bytes"), "{cold_text}");
    assert_eq!(tango.cache().stats().insertions, 1);

    let wire_before = db.link().roundtrips();
    let (warm, warm_report) = tango.query(&q1_sql("POSITION")).unwrap();
    assert_eq!(db.link().roundtrips(), wire_before, "a hit must not touch the wire");
    assert!(warm.list_eq(&cold), "cached result differs\ncold:\n{cold}\nwarm:\n{warm}");

    let warm_text = warm_report.optimized.explain_analyze(&warm_report.exec, true);
    assert!(warm_text.contains("cache hit"), "{warm_text}");
    assert!(!warm_text.contains("sql_round_trips"), "{warm_text}");
    let s = tango.cache().stats();
    assert_eq!(s.hits, 1, "{s:?}");
}

/// `cache_budget: None` disables the machinery entirely — no lookups, no
/// insertions, no annotations.
#[test]
fn disabled_cache_changes_nothing() {
    let db = position_db(LinkProfile::default(), &lcg_rows(50));
    let mut tango = Tango::connect(db);
    tango.options_mut().cache_budget = None;
    let (a, report) = tango.query(&q1_sql("POSITION")).unwrap();
    let (b, _) = tango.query(&q1_sql("POSITION")).unwrap();
    assert!(a.list_eq(&b));
    let text = report.optimized.explain_analyze(&report.exec, true);
    assert!(!text.contains("cache"), "{text}");
    assert_eq!(tango.cache().stats(), Default::default());
}

fn scan(conn: &tango::minidb::Connection, table: &str) -> PhysNode {
    PhysNode::scan(table, conn.table_schema(table).unwrap())
}

/// Figure 9's mixed Query 2 placement: the Figure 5 round trip where the
/// middleware aggregate is bulk-loaded back with `TRANSFER^D` and joined
/// in the DBMS.
fn figure9_mixed_plan(conn: &tango::minidb::Connection) -> PhysNode {
    let group_by = vec!["PosID".to_string()];
    let aggs = vec![AggSpec::new(AggFunc::Count, Some("PosID"), "Cnt")];
    let keys = SortSpec::by(["PosID", "T1"]);
    let arg = PhysNode::over(
        Algo::ProjectD(["PosID", "T1", "T2"].iter().map(|c| ProjItem::col(*c)).collect()),
        vec![scan(conn, "POSITION")],
    )
    .unwrap();
    let agg_m = PhysNode::over(
        Algo::TAggrM { group_by, aggs },
        vec![PhysNode::over(
            Algo::TransferM,
            vec![PhysNode::over(Algo::SortD(keys), vec![arg]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap();
    let payrate = Expr::cmp(CmpOp::Gt, Expr::col("PayRate"), Expr::lit(5.0));
    let p_side = PhysNode::over(Algo::FilterD(payrate), vec![scan(conn, "POSITION")]).unwrap();
    let eq = vec![("PosID".to_string(), "PosID".to_string())];
    PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(SortSpec::by(["PosID"])),
            vec![PhysNode::over(
                Algo::TJoinD(eq),
                vec![PhysNode::over(Algo::TransferD, vec![agg_m]).unwrap(), p_side],
            )
            .unwrap()],
        )
        .unwrap()],
    )
    .unwrap()
}

/// A fragment that scans a `TRANSFER^D` temp table is uncacheable: its
/// contents are middleware state, not a function of base-table versions.
/// That transfer streams normally, annotated `cache bypass` — while the
/// cacheable inner transfer (the aggregation argument) populates.
#[test]
fn temp_table_fragments_bypass() {
    let db = position_db(LinkProfile::instant(), &lcg_rows(80));
    let mut tango = Tango::connect(db);
    let plan = figure9_mixed_plan(tango.conn());
    let (rel, exec) = tango.execute_physical(&plan).unwrap();
    assert!(!rel.is_empty());

    let s = tango.cache().stats();
    assert_eq!(s.bypasses, 1, "the temp-scanning fragment must bypass: {s:?}");
    assert_eq!(s.insertions, 1, "the base-table fragment must populate: {s:?}");
    let annots: Vec<Option<&str>> = exec
        .steps
        .iter()
        .filter(|st| matches!(st.algo, Algo::TransferM))
        .map(|st| st.annotation("cache"))
        .collect();
    assert!(annots.contains(&Some("bypass")), "{annots:?}");
    assert!(annots.contains(&Some("miss")), "{annots:?}");

    // a second run: the inner fragment now hits, the outer still bypasses
    tango.execute_physical(&plan).unwrap();
    let s = tango.cache().stats();
    assert_eq!((s.hits, s.bypasses), (1, 2), "{s:?}");
}

/// A write the delta log cannot cover invalidates dependent entries: the
/// next run misses, refetches, and sees the new data. The write is an
/// INSERT larger than the table's delta-log cap, which poisons the log
/// instead of entering it, so no refresh can replay it. (A write the log
/// does cover is refreshed in place instead; see `tests/maintenance.rs`.)
#[test]
fn writes_invalidate_and_results_stay_fresh() {
    let db = position_db(LinkProfile::default(), &lcg_rows(100));
    let mut tango = Tango::connect(db.clone());
    tango.query(&q1_sql("POSITION")).unwrap();
    tango.query(&q1_sql("POSITION")).unwrap();
    assert_eq!(tango.cache().stats().hits, 1);

    let row = tup![9, 9, Value::Double(1.0), 0, 99];
    let over_cap = DEFAULT_DELTA_LOG_CAP / (row.byte_size() + DELTA_RECORD_OVERHEAD) + 1;
    db.insert_rows("POSITION", vec![row; over_cap]).unwrap();
    assert_eq!(db.delta_log_bytes(), 0, "an over-cap insert must poison the log");
    db.analyze("POSITION").unwrap();
    // plan over the grown table as the control below will
    tango.refresh_statistics().unwrap();

    let (stale_free, report) = tango.query(&q1_sql("POSITION")).unwrap();
    let s = tango.cache().stats();
    assert!(s.invalidations >= 1, "{s:?}");
    assert_eq!(s.refreshes, 0, "an uncovered write cannot be refreshed: {s:?}");
    assert_eq!(s.hits, 1, "a post-write run must not be served stale: {s:?}");

    // control: a cache-off session on the modified database
    let mut control = Tango::connect(db);
    control.options_mut().cache_budget = None;
    let (expect, _) = control.query(&q1_sql("POSITION")).unwrap();
    assert!(
        stale_free.list_eq(&expect),
        "post-write result is stale\nexpected:\n{expect}\ngot:\n{stale_free}"
    );
    // the new group (PosID 9) really is visible
    assert!(stale_free.tuples().iter().any(|t| t[0] == Value::Int(9)), "{stale_free}");
    let _ = report;
}

/// The byte budget is a hard bound, enforced by eviction/rejection.
#[test]
fn budget_is_a_hard_bound() {
    let db = position_db(LinkProfile::default(), &lcg_rows(200));
    let mut tango = Tango::connect(db);
    tango.options_mut().cache_budget = Some(512);
    for sql in [
        &q1_sql("POSITION"),
        "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION WHERE PayRate > 5 GROUP BY PosID",
        "SELECT EmpID, PosID FROM POSITION WHERE PosID < 3 ORDER BY EmpID, PosID",
    ] {
        tango.query(sql).unwrap();
        assert!(tango.cache().bytes() <= 512, "budget exceeded: {} bytes", tango.cache().bytes());
    }
    let s = tango.cache().stats();
    assert!(s.evictions + s.rejections > 0, "nothing was ever squeezed out: {s:?}");
}

/// Chaos safety: a transfer that re-planned mid-flight, or died after
/// emitting rows, must never populate the cache — only a clean full
/// drain does.
#[test]
fn faulted_transfers_never_populate() {
    let db = position_db(chaos_profile(), &lcg_rows(120));
    let mut tango = Tango::connect(db.clone());
    // a batch of the link's prefetch: a transfer makes one round trip per
    // batch, so this keeps several trips for (b)'s fault to land on
    tango.options_mut().batch_rows = Some(8);
    let optimized = tango.optimize(&q1_sql("POSITION")).unwrap();

    // (a) the submission exhausts its retries and the fragment re-plans:
    // the fallback's rows come from base-table fetches, not the keyed
    // fragment, so nothing may be admitted
    tango.conn_mut().set_retry_policy(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() });
    let rt = db.link().roundtrips();
    db.link().set_injector(Arc::new(FaultPlan::scripted([
        (rt + 1, Fault::Transient("chaos".into())),
        (rt + 2, Fault::Disconnect),
    ])));
    let (rel, exec) = tango.execute_physical(&optimized.plan).unwrap();
    db.link().clear_injector();
    assert!(!rel.is_empty());
    let text = optimized.explain_analyze(&exec, true);
    assert!(text.contains("replans 1"), "{text}");
    assert!(tango.cache().is_empty(), "a re-planned transfer populated the cache");
    assert_eq!(tango.cache().stats().insertions, 0);

    // (b) a mid-stream failure after rows were emitted propagates and
    // leaves no partial entry behind
    tango.conn_mut().set_retry_policy(RetryPolicy::none());
    let rt = db.link().roundtrips();
    db.link()
        .set_injector(Arc::new(FaultPlan::scripted([(rt + 3, Fault::Transient("drop".into()))])));
    tango.execute_physical(&optimized.plan).map(|_| ()).unwrap_err();
    db.link().clear_injector();
    assert!(tango.cache().is_empty(), "a failed transfer populated the cache");

    // (c) with the chaos gone the same plan populates and then hits
    tango.conn_mut().set_retry_policy(RetryPolicy::default());
    tango.execute_physical(&optimized.plan).unwrap();
    assert_eq!(tango.cache().stats().insertions, 1);
    let wire_before = db.link().roundtrips();
    tango.execute_physical(&optimized.plan).unwrap();
    assert_eq!(db.link().roundtrips(), wire_before);
    assert_eq!(tango.cache().stats().hits, 1);
}

/// Figure 10, cost-driven: on a glacial wire the optimizer keeps the
/// temporal aggregation in the DBMS — until its argument fragment
/// resides in the middleware, at which point the transfer is priced at
/// memory speed and the plan flips to the middleware algorithm. Clearing
/// the cache flips it straight back: the *only* input that changed is
/// residency.
#[test]
fn optimizer_flips_placement_for_resident_fragments() {
    // 2 groups, 10 distinct starts: the aggregate collapses to a handful
    // of rows, so "evaluate in place, ship the tiny result" wins cold
    let rows: Vec<Row> = (0..4_000)
        .map(|i: i64| (i % 2, i, 9.0, ((i % 10) * 5) as i32, ((i % 10) * 5 + 12) as i32))
        .collect();
    let glacial = LinkProfile {
        roundtrip_latency_us: 50_000.0,
        bytes_per_sec: 16.0 * 1024.0,
        row_prefetch: 10,
        mode: WireMode::Virtual,
    };
    let db = position_db(glacial, &rows);
    let mut tango = Tango::connect(db);
    tango.calibrate().unwrap();
    let sql = "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
               GROUP BY PosID ORDER BY PosID";

    let cold = tango.optimize(sql).unwrap();
    assert!(
        cold.plan.any(&|a| matches!(a, Algo::TAggrD { .. })),
        "glacial wire should keep aggregation in the DBMS while cold:\n{}",
        cold.explain()
    );

    // stage the residency Figure 10 hand-builds: run the middleware
    // variant once (forced by factors) so its argument fragment is cached
    let calibrated = *tango.factors();
    tango.set_factors(CostFactors { p_tm: 1e-9, p_taggd1: 1e9, ..Default::default() });
    let forced = tango.optimize(sql).unwrap();
    assert!(forced.plan.any(&|a| matches!(a, Algo::TAggrM { .. })), "{}", forced.explain());
    tango.execute_physical(&forced.plan).unwrap();
    assert_eq!(tango.cache().stats().insertions, 1, "warming run must populate");
    tango.set_factors(calibrated);

    let warm = tango.optimize(sql).unwrap();
    assert!(
        warm.plan.any(&|a| matches!(a, Algo::TAggrM { .. })),
        "resident argument should flip aggregation into the middleware:\n{}",
        warm.explain()
    );
    assert!(
        warm.est_cost_us < cold.est_cost_us,
        "the flip must be cost-driven: warm {} < cold {}",
        warm.est_cost_us,
        cold.est_cost_us
    );

    // and the flip reverses when residency goes away
    tango.clear_cache();
    let cleared = tango.optimize(sql).unwrap();
    assert!(
        cleared.plan.any(&|a| matches!(a, Algo::TAggrD { .. })),
        "clearing the cache must restore the cold plan:\n{}",
        cleared.explain()
    );
}

/// The cached scan repeats the delivered order: a warm ORDER BY run is
/// list-equal, not just multiset-equal, to the cold one.
#[test]
fn warm_runs_preserve_order() {
    let db = position_db(LinkProfile::default(), &lcg_rows(80));
    let mut tango = Tango::connect(db);
    let (cold, _) = tango.query(&q1_sql("POSITION")).unwrap();
    for _ in 0..3 {
        let (warm, _) = tango.query(&q1_sql("POSITION")).unwrap();
        assert!(warm.list_eq(&cold));
    }
}

/// Every column layout survives the cache. A table with NULLs in an
/// `Int`, a `Str`, a `Double` and a `Date` column, an empty string, `-0.0`
/// and mostly distinct strings is read through a bare transfer, a
/// `FILTER^M` with a columnar kernel and one without: cache off, cold,
/// warm, and warm after an `INSERT` refreshed by delta give the same
/// answers *as wire-codec bytes* (an `Int` back as a `Date`, or a NULL as
/// 0, would not), at either batch size, and warm runs stay off the wire.
#[test]
fn typed_fragments_round_trip_through_the_cache() {
    use tango::algebra::codec::encode_tuple;
    use Value::{Date, Double, Null};
    let wire_bytes = |rel: &tango::algebra::Relation| {
        let mut buf = Vec::new();
        rel.tuples().iter().for_each(|t| encode_tuple(t, &mut buf));
        buf
    };
    let row = |i: i64| {
        let pick = |k: i64, v: Value| if (i + k) % 4 == 0 { Null } else { v };
        let s = if i == 5 { String::new() } else { format!("s{}", i % 17) };
        let x = if i == 6 { -0.0 } else { i as f64 / 3.0 };
        tup![
            i,
            pick(0, Value::Int(i % 7)),
            pick(1, Value::Str(s)),
            pick(2, Double(x)),
            pick(3, Date(i as i32))
        ]
    };
    for batch_rows in [1, 1024] {
        let db = Database::new(Link::new(LinkProfile::default()));
        let attrs = [("ID", Type::Int), ("I", Type::Int), ("S", Type::Str), ("X", Type::Double)];
        let attrs = attrs.into_iter().chain([("D", Type::Date)]).map(|(n, t)| Attr::new(n, t));
        db.create_table("T", Schema::new(attrs.collect())).unwrap();
        db.insert_rows("T", (0..24).map(row).collect()).unwrap();
        db.analyze("T").unwrap();

        let mut tango = Tango::connect(db.clone());
        tango.options_mut().batch_rows = Some(batch_rows);
        // one cacheable fragment, delivered on its key (so a refresh is
        // order-determined), under three middleware readers
        let all = Expr::cmp(CmpOp::Ge, Expr::col("ID"), Expr::lit(0));
        let fragment = PhysNode::over(Algo::FilterD(all), vec![scan(tango.conn(), "T")]).unwrap();
        let sorted = PhysNode::over(Algo::SortD(SortSpec::by(["ID"])), vec![fragment]).unwrap();
        let transfer = PhysNode::over(Algo::TransferM, vec![sorted]).unwrap();
        let filtered = |op, rhs| {
            let pred = Expr::cmp(op, Expr::col("I"), rhs);
            PhysNode::over(Algo::FilterM(pred), vec![transfer.clone()]).unwrap()
        };
        let plans = [
            transfer.clone(),
            filtered(CmpOp::Gt, Expr::lit(2)),
            filtered(CmpOp::Lt, Expr::col("ID")),
        ];
        let uncached = || -> Vec<Vec<u8>> {
            let mut off = Tango::connect_private(db.clone());
            off.options_mut().cache_budget = None;
            plans.iter().map(|p| wire_bytes(&off.execute_physical(p).unwrap().0)).collect()
        };
        let mut check = |expect: &[Vec<u8>], first: &str, wire_free: bool| {
            let before = db.link().roundtrips();
            for (i, (plan, want)) in plans.iter().zip(expect).enumerate() {
                let (got, exec) = tango.execute_physical(plan).unwrap();
                assert!(wire_bytes(&got) == *want, "batch_rows {batch_rows}, plan {i}:\n{got}");
                let cache = exec.steps.iter().find_map(|s| s.annotation("cache"));
                assert_eq!(cache, Some(if i == 0 { first } else { "hit" }), "plan {i}");
            }
            assert_eq!(db.link().roundtrips() == before, wire_free, "{first}");
        };
        let expect = uncached();
        assert!(expect[1].len() < expect[0].len() && expect[2].len() < expect[0].len());
        check(&expect, "miss", false);
        check(&expect, "hit", true);
        db.insert_rows("T", vec![row(24), tup![25, Null, Null, Null, Null]]).unwrap();
        let expect = uncached();
        check(&expect, "refresh", false);
        check(&expect, "hit", true);
        assert_eq!(tango.cache().stats().refreshes, 1);
    }
}
