//! Incremental cache maintenance, end to end: writes no longer simply
//! evict — the engine prices refreshing a stale fragment by delta-log
//! replay against refetching or dropping it, picks the cheapest, and a
//! refreshed fragment is **byte-identical** to a cold refetch. The
//! suites here pin each shape's refresh (filter/project chains, the
//! merge joins, `TAGGR`), its events, round trips and bails, and that a
//! faulted refresh never corrupts or populates the cache; refreshed ≡
//! uncached across generated statements, write mixes and every other
//! mode is `tests/oracle.rs`'s.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use std::thread;
use support::{keyed_rows, position_db, serving_pool, uis_db, Row, ALL_PACKS};
use tango::algebra::date::{day, format_date};
use tango::algebra::{
    tup, AggFunc, AggSpec, Attr, CmpOp, Expr, ProjItem, Schema, SortSpec, Type, Value,
};
use tango::core::cache::{fragment_key, refresh_cost_us, Lookup};
use tango::core::cost::CostFactors;
use tango::core::phys::{Algo, PhysNode};
use tango::minidb::{Connection, Database, Fault, FaultPlan, Link, LinkProfile};
use tango::uis::queries::q1_sql;
use tango::{Tango, TangoOptions};

/// POSITION plus a SALARY side table (for the two-table join shapes).
fn make_db(profile: LinkProfile, rows: &[Row]) -> Database {
    let db = position_db(profile, rows);
    let salary = Schema::with_inferred_period(vec![
        Attr::new("EmpID", Type::Int),
        Attr::new("Amount", Type::Int),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ]);
    db.create_table("SALARY", salary).unwrap();
    db.insert_rows("SALARY", (1..=20).map(|e| tup![e, 100 + 7 * e, 0, 60]).collect()).unwrap();
    db.analyze("SALARY").unwrap();
    db.link().reset();
    db
}

fn scan(conn: &Connection, table: &str) -> PhysNode {
    PhysNode::scan(table, conn.table_schema(table).unwrap())
}

/// `SEL`-chain fragment: σ(PayRate ≥ 0) over POSITION, delivered sorted
/// on every column (a key, so refresh is always order-determined).
fn chain_plan(conn: &Connection) -> PhysNode {
    let pred = Expr::cmp(CmpOp::Ge, Expr::col("PayRate"), Expr::lit(0.0));
    let order = SortSpec::by(["PosID", "EmpID", "PayRate", "T1", "T2"]);
    PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(order),
            vec![PhysNode::over(Algo::FilterD(pred), vec![scan(conn, "POSITION")]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap()
}

/// The SALARY side as its own cacheable fragment — querying this first
/// makes it the *resident other side* a join delta can replay against.
fn salary_plan(conn: &Connection) -> PhysNode {
    PhysNode::over(Algo::TransferM, vec![scan(conn, "SALARY")]).unwrap()
}

/// Temporal merge join POSITION ⋈ᵀ SALARY on EmpID, both sides linear
/// chains over distinct tables.
fn join_plan(conn: &Connection) -> PhysNode {
    let eq = vec![("EmpID".to_string(), "EmpID".to_string())];
    let order = SortSpec::by(["EmpID", "PosID", "PayRate", "Amount", "T1", "T2"]);
    PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(order),
            vec![PhysNode::over(
                Algo::TJoinD(eq),
                vec![scan(conn, "POSITION"), scan(conn, "SALARY")],
            )
            .unwrap()],
        )
        .unwrap()],
    )
    .unwrap()
}

/// `TAGGR^D` fragment: COUNT of POSITION rows per PosID, delivered on
/// (PosID, T1) — unique over the aggregate's constant intervals.
fn taggr_plan(conn: &Connection) -> PhysNode {
    let group_by = vec!["PosID".to_string()];
    let aggs = vec![AggSpec::new(AggFunc::Count, Some("PosID"), "Cnt")];
    let arg = PhysNode::over(
        Algo::ProjectD(["PosID", "T1", "T2"].iter().map(|c| ProjItem::col(*c)).collect()),
        vec![scan(conn, "POSITION")],
    )
    .unwrap();
    PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(SortSpec::by(["PosID", "T1"])),
            vec![PhysNode::over(Algo::TAggrD { group_by, aggs }, vec![arg]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap()
}

/// `serve-churn`'s chain shape: `PROJ[PosID,T1,T2]` over POSITION,
/// delivered on `(PosID, T1)` — a partial key, so rows may tie with
/// different `T2`.
fn tied_chain_plan(conn: &Connection) -> PhysNode {
    let items = ["PosID", "T1", "T2"].iter().map(|c| ProjItem::col(*c)).collect();
    let project = PhysNode::over(Algo::ProjectD(items), vec![scan(conn, "POSITION")]).unwrap();
    let sorted = PhysNode::over(Algo::SortD(SortSpec::by(["PosID", "T1"])), vec![project]);
    PhysNode::over(Algo::TransferM, vec![sorted.unwrap()]).unwrap()
}

/// Query 3's shape: a temporal self-join of POSITION below start bounds,
/// a projection above the join, delivered on `PosID` alone.
fn self_join_plan(conn: &Connection, left_before: i64, right_before: i64) -> PhysNode {
    let side = |before: i64| {
        let pred = Expr::cmp(CmpOp::Lt, Expr::col("T1"), Expr::lit(before));
        PhysNode::over(Algo::FilterD(pred), vec![scan(conn, "POSITION")]).unwrap()
    };
    let eq = vec![("PosID".to_string(), "PosID".to_string())];
    let join = PhysNode::over(Algo::TJoinD(eq), vec![side(left_before), side(right_before)]);
    let items = ["PosID", "EmpID", "EmpID_2", "T1", "T2"].iter().map(|c| ProjItem::col(*c));
    let project = PhysNode::over(Algo::ProjectD(items.collect()), vec![join.unwrap()]).unwrap();
    let sorted = PhysNode::over(Algo::SortD(SortSpec::by(["PosID"])), vec![project]).unwrap();
    PhysNode::over(Algo::TransferM, vec![sorted]).unwrap()
}

fn events(exec: &tango::core::engine::ExecReport) -> Vec<&str> {
    exec.steps.iter().flat_map(|st| &st.events).map(|e| e.detail.as_str()).collect()
}

fn cache_annotations(exec: &tango::core::engine::ExecReport) -> Vec<Option<&str>> {
    exec.steps
        .iter()
        .filter(|st| matches!(st.algo, Algo::TransferM))
        .map(|st| st.annotation("cache"))
        .collect()
}

fn control_run(db: &Database, plan: &PhysNode) -> tango::algebra::Relation {
    let mut off = Tango::connect_private(db.clone());
    off.options_mut().cache_budget = None;
    off.execute_physical(plan).unwrap().0
}

/// A write no longer costs the warm speedup: the stale chain fragment is
/// refreshed in place by replaying the table's tombstones — cheaper on
/// the wire than the cold run — and the merged result is byte-identical
/// to a cold refetch.
#[test]
fn chain_refresh_survives_writes_byte_identically() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let plan = chain_plan(tango.conn());

    let rt0 = db.link().roundtrips();
    tango.execute_physical(&plan).unwrap();
    let cold_rts = db.link().roundtrips() - rt0;
    tango.execute_physical(&plan).unwrap(); // hit: the entry earns its keep

    db.insert_rows("POSITION", vec![tup![999, 9, Value::Double(3.5), 0, 40]]).unwrap();
    let rt1 = db.link().roundtrips();
    let (got, exec) = tango.execute_physical(&plan).unwrap();
    let refresh_rts = db.link().roundtrips() - rt1;

    let annots = cache_annotations(&exec);
    assert_eq!(annots, vec![Some("refresh")], "{annots:?}");
    let s = tango.cache().stats();
    assert_eq!(s.refreshes, 1, "{s:?}");
    assert!(s.refresh_bytes > 0, "{s:?}");
    assert_eq!(s.invalidations, 0, "a refreshed entry must not be dropped: {s:?}");
    assert!(
        refresh_rts < cold_rts,
        "refresh must beat a refetch on the wire: {refresh_rts} vs {cold_rts} round trips"
    );
    assert!(got.tuples().iter().any(|t| t[0] == Value::Int(999)), "{got}");
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "refresh diverged from cold\nexpected:\n{expect}\ngot:\n{got}");

    // the refreshed entry keeps serving hits without the wire
    let rt2 = db.link().roundtrips();
    let (warm, _) = tango.execute_physical(&plan).unwrap();
    assert_eq!(db.link().roundtrips(), rt2, "a post-refresh hit must not touch the wire");
    assert!(warm.list_eq(&expect));
}

/// The cache consult — here a delta round trip and a merge — runs inside
/// the `TRANSFER^M` span, so the steps account for every microsecond of
/// wire time the run was charged.
#[test]
fn refresh_time_is_charged_to_the_transfer_step() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let plan = chain_plan(tango.conn());
    tango.execute_physical(&plan).unwrap();
    tango.execute_physical(&plan).unwrap(); // hit: the entry earns its keep

    db.insert_rows("POSITION", vec![tup![999, 9, Value::Double(3.5), 0, 40]]).unwrap();
    tango.options_mut().feedback = true;
    let p_tm = tango.factors().p_tm;
    let (_, exec) = tango.execute_physical(&plan).unwrap();
    assert_eq!(cache_annotations(&exec), vec![Some("refresh")]);
    let wire_us = exec.wire.as_secs_f64() * 1e6;
    assert!(wire_us > 0.0, "the delta fetch crosses the wire");
    let stepped_us: f64 = exec.steps.iter().map(|st| st.exclusive_us).sum();
    assert!(stepped_us >= wire_us, "steps sum to {stepped_us} µs of {wire_us} µs on the wire");
    // a delta fetch timed against the whole fragment's bytes is no
    // observation of the transfer factor
    assert_eq!(tango.factors().p_tm, p_tm);
}

/// A bailed refresh leaves its delta round trip and failed splice in the
/// `cache miss` step's time; feedback must not read that as transfer time.
#[test]
fn a_bailed_refresh_is_no_observation_of_the_transfer_factor() {
    let rows: Vec<_> = (0..150).map(|i| (i % 10, 1 + i % 20, 1.0, 0, 30 + i as i32)).collect();
    let db = make_db(LinkProfile::default(), &rows);
    let mut tango = Tango::connect(db.clone());
    let plan = tied_chain_plan(tango.conn());
    tango.execute_physical(&plan).unwrap();
    tango.execute_physical(&plan).unwrap(); // hit: the entry earns its keep

    // lands in the run (3, 0), whose rows differ in T2
    db.insert_rows("POSITION", vec![tup![3, 9, Value::Double(3.5), 0, 999]]).unwrap();
    tango.options_mut().feedback = true;
    let p_tm = tango.factors().p_tm;
    let (got, exec) = tango.execute_physical(&plan).unwrap();
    assert_eq!(cache_annotations(&exec), vec![Some("miss")]);
    assert_eq!(events(&exec), ["refresh bailed: merge is not order-determined"]);
    assert!(got.list_eq(&control_run(&db, &plan)));
    assert_eq!(tango.factors().p_tm, p_tm);
}

/// The order check covers the runs a write touches, not the fragment: a
/// base full of ties refreshes as long as the write misses them, bails
/// when it lands in one — and a row deleted and re-inserted lands in its
/// own run although the multiset did not change.
#[test]
fn tied_fragment_refreshes_when_the_write_misses_its_ties() {
    // per PosID two rows at T1 = 0 that differ in T2, and one at T1 = 5
    let rows: Vec<_> = (0..30)
        .map(|i| (i / 3, 1 + i % 20, 1.0, if i % 3 == 2 { 5 } else { 0 }, 30 + i as i32))
        .collect();
    let db = make_db(LinkProfile::default(), &rows);
    let mut tango = Tango::connect(db.clone());
    let plan = tied_chain_plan(tango.conn());
    tango.execute_physical(&plan).unwrap();
    tango.execute_physical(&plan).unwrap(); // hit: the entry earns its keep

    // a fresh (PosID, T1): no tie is touched
    db.insert_rows("POSITION", vec![tup![4, 9, Value::Double(3.5), 2, 40]]).unwrap();
    let (got, exec) = tango.execute_physical(&plan).unwrap();
    assert_eq!(cache_annotations(&exec), vec![Some("refresh")]);
    assert_eq!(events(&exec), ["spliced 1 delta rows into 1 runs (56 delta bytes)"]);
    assert_eq!(tango.cache().stats().refresh_bails, 0);
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");

    // a third T2 in the tied run (4, 0): a cold refetch could interleave
    db.insert_rows("POSITION", vec![tup![4, 9, Value::Double(3.5), 0, 77]]).unwrap();
    let (got, exec) = tango.execute_physical(&plan).unwrap();
    assert_eq!(cache_annotations(&exec), vec![Some("miss")]);
    assert_eq!(events(&exec), ["refresh bailed: merge is not order-determined"]);
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");
    tango.execute_physical(&plan).unwrap(); // the refilled entry earns a hit

    // delete + re-insert of the first row of the tied run (7, 0) inside one
    // window: the netted delta is empty, the cold order is not the old one
    let conn = Connection::new(db.clone());
    conn.execute("DELETE FROM POSITION WHERE PosID = 7 AND T2 = 51").unwrap();
    db.insert_rows("POSITION", vec![tup![7, 2, Value::Double(1.0), 0, 51]]).unwrap();
    let expect = control_run(&db, &plan);
    assert!(expect.multiset_eq(&got) && !expect.list_eq(&got), "the write must reorder the run");
    let (got, exec) = tango.execute_physical(&plan).unwrap();
    assert_eq!(cache_annotations(&exec), vec![Some("miss")]);
    assert_eq!(events(&exec), ["refresh bailed: merge is not order-determined"]);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");
    assert_eq!(tango.cache().stats().refresh_bails, 2);
}

/// A join is unchanged by a write that survives neither side's chain —
/// a self-join included, whatever its delivered order ties: the refresh
/// is one delta round trip that hands back the entry's own columns. A
/// write one side keeps is the quadratic case and refetches.
#[test]
fn self_join_is_unchanged_by_a_write_neither_side_keeps() {
    let rows: Vec<_> =
        (0..60).map(|i| (i % 6, 1 + i % 20, 1.0, (i % 9) as i32, 40 + i as i32)).collect();
    let db = make_db(LinkProfile::default(), &rows);
    let mut tango = Tango::connect(db.clone());
    let plan = self_join_plan(tango.conn(), 20, 30);
    tango.execute_physical(&plan).unwrap();
    tango.execute_physical(&plan).unwrap(); // hit: the entry earns its keep
    let key = fragment_key(&plan.children[0], "", &|_: &str| false).unwrap();
    let columns = |t: &Tango| {
        let (batch, _) = t.cache().peek_by_signature(&key.signature).unwrap();
        batch.columns().unwrap().0.as_ptr()
    };
    let entry = columns(&tango);

    // starts after both bounds: neither filter keeps it
    db.insert_rows("POSITION", vec![tup![3, 9, Value::Double(3.5), 35, 90]]).unwrap();
    let rt = db.link().roundtrips();
    let (got, exec) = tango.execute_physical(&plan).unwrap();
    assert_eq!(db.link().roundtrips() - rt, 1, "the delta fetch and nothing else");
    assert_eq!(cache_annotations(&exec), vec![Some("refresh")]);
    assert_eq!(events(&exec), ["no change (56 delta bytes)"]);
    assert_eq!(columns(&tango), entry, "an unchanged fragment keeps its column allocation");
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");
    let rt = db.link().roundtrips();
    let (warm, exec) = tango.execute_physical(&plan).unwrap();
    assert_eq!(db.link().roundtrips(), rt, "a post-refresh hit must not touch the wire");
    assert_eq!(cache_annotations(&exec), vec![Some("hit")]);
    assert!(warm.list_eq(&expect));

    // starts between the bounds: the right side keeps it
    db.insert_rows("POSITION", vec![tup![3, 9, Value::Double(3.5), 25, 90]]).unwrap();
    let (got, exec) = tango.execute_physical(&plan).unwrap();
    assert_eq!(cache_annotations(&exec), vec![Some("miss")]);
    assert_eq!(events(&exec), ["refresh bailed: both join sides changed"]);
    let s = tango.cache().stats();
    assert_eq!((s.refreshes, s.refresh_bails, s.invalidations), (1, 1, 0), "{s:?}");
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");
}

/// The maintenance decision is priced, not hard-coded: the *same* stale
/// entry is refreshed under the default factors but refetched when
/// `p_delta` makes replay merging prohibitive — flipped by cost alone.
#[test]
fn maintenance_picks_refetch_when_replay_outcosts_it() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let plan = chain_plan(tango.conn());
    tango.execute_physical(&plan).unwrap();
    tango.execute_physical(&plan).unwrap();

    db.insert_rows("POSITION", vec![tup![999, 9, Value::Double(3.5), 0, 40]]).unwrap();
    // replay CPU priced astronomically: refetching is now the cheapest
    // way to keep the entry
    tango.set_factors(CostFactors { p_delta: 1e9, ..Default::default() });
    let (got, exec) = tango.execute_physical(&plan).unwrap();

    let annots = cache_annotations(&exec);
    assert_eq!(annots, vec![Some("refetch")], "{annots:?}");
    let s = tango.cache().stats();
    assert_eq!(s.refreshes, 0, "{s:?}");
    assert!(s.invalidations >= 1, "{s:?}");
    assert_eq!(s.insertions, 2, "the refetch must repopulate: {s:?}");
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");
}

/// A never-hit entry has no future benefit to amortize either a refresh
/// or a refetch against: the write drops it and the query streams
/// without repopulating.
#[test]
fn maintenance_drops_never_hit_entries() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let plan = chain_plan(tango.conn());
    tango.execute_physical(&plan).unwrap(); // populate; zero hits so far

    db.insert_rows("POSITION", vec![tup![999, 9, Value::Double(3.5), 0, 40]]).unwrap();
    let (got, exec) = tango.execute_physical(&plan).unwrap();

    let annots = cache_annotations(&exec);
    assert_eq!(annots, vec![Some("drop")], "{annots:?}");
    let s = tango.cache().stats();
    assert_eq!((s.refreshes, s.insertions), (0, 1), "{s:?}");
    assert!(s.invalidations >= 1, "{s:?}");
    assert_eq!(tango.cache().len(), 0, "a dropped entry must not be refilled: {s:?}");
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");
}

/// The bilinear join rule: with the SALARY side resident fresh, a write
/// to POSITION refreshes the join fragment by delta-joining the
/// tombstones against the resident other side — no join SQL re-runs.
#[test]
fn join_refresh_replays_against_resident_other_side() {
    let db = make_db(LinkProfile::default(), &keyed_rows(60));
    let mut tango = Tango::connect(db.clone());
    let jplan = join_plan(tango.conn());
    let splan = salary_plan(tango.conn());

    tango.execute_physical(&splan).unwrap(); // make the other side resident
    tango.execute_physical(&jplan).unwrap();
    tango.execute_physical(&jplan).unwrap(); // the join entry earns a hit

    db.insert_rows("POSITION", vec![tup![999, 3, Value::Double(9.9), 5, 25]]).unwrap();
    let (got, exec) = tango.execute_physical(&jplan).unwrap();

    let annots = cache_annotations(&exec);
    assert_eq!(annots, vec![Some("refresh")], "{annots:?}");
    assert_eq!(tango.cache().stats().refreshes, 1, "{:?}", tango.cache().stats());
    assert!(got.tuples().iter().any(|t| t[0] == Value::Int(999)), "{got}");
    let expect = control_run(&db, &jplan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");

    // without the resident other side the same write must *bail* to a
    // refetch — and still produce identical bytes
    let db2 = make_db(LinkProfile::default(), &keyed_rows(60));
    let mut solo = Tango::connect(db2.clone());
    let jplan2 = join_plan(solo.conn());
    solo.execute_physical(&jplan2).unwrap();
    solo.execute_physical(&jplan2).unwrap();
    db2.insert_rows("POSITION", vec![tup![999, 3, Value::Double(9.9), 5, 25]]).unwrap();
    let (got2, exec2) = solo.execute_physical(&jplan2).unwrap();
    let annots2 = cache_annotations(&exec2);
    assert_eq!(annots2, vec![Some("miss")], "{annots2:?}");
    let s = solo.cache().stats();
    assert!(s.refresh_bails >= 1, "{s:?}");
    assert_eq!(s.refreshes, 0, "{s:?}");
    let expect2 = control_run(&db2, &jplan2);
    assert!(got2.list_eq(&expect2), "expected:\n{expect2}\ngot:\n{got2}");
}

/// Touched-group re-aggregation: a write to one group refreshes the
/// `TAGGR` fragment by refetching only that group's rows and splicing
/// them over the cached base.
#[test]
fn taggr_refresh_refetches_only_touched_groups() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let plan = taggr_plan(tango.conn());
    tango.execute_physical(&plan).unwrap();
    tango.execute_physical(&plan).unwrap();

    // touch exactly one group (PosID 7)
    db.insert_rows("POSITION", vec![tup![7, 9, Value::Double(3.5), 2, 50]]).unwrap();
    let (got, exec) = tango.execute_physical(&plan).unwrap();

    let annots = cache_annotations(&exec);
    assert_eq!(annots, vec![Some("refresh")], "{annots:?}");
    let s = tango.cache().stats();
    assert_eq!(s.refreshes, 1, "{s:?}");
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");
    // the touched-group refetch must move far less than the full result
    let full_bytes: u64 = expect.tuples().iter().map(|t| t.byte_size() as u64).sum();
    assert!(
        s.refresh_bytes < full_bytes,
        "refetched too much: {} vs {full_bytes}",
        s.refresh_bytes
    );
}

/// Chaos: a wire fault during the delta fetch makes the refresh bail —
/// the query degrades to an ordinary streamed refetch, results stay
/// byte-identical, and the faulted attempt neither corrupts nor
/// populates the cache.
#[test]
fn faulted_refresh_never_corrupts_or_populates() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let plan = chain_plan(tango.conn());
    tango.execute_physical(&plan).unwrap();
    tango.execute_physical(&plan).unwrap();

    db.insert_rows("POSITION", vec![tup![999, 9, Value::Double(3.5), 0, 40]]).unwrap();
    let rt = db.link().roundtrips();
    db.link().set_injector(Arc::new(FaultPlan::scripted([(
        rt + 1,
        Fault::Fatal("ORA-03113: end-of-file on delta channel".into()),
    )])));
    let (got, exec) = tango.execute_physical(&plan).unwrap();
    db.link().clear_injector();

    let annots = cache_annotations(&exec);
    assert_eq!(annots, vec![Some("miss")], "the bail must degrade to a miss: {annots:?}");
    let s = tango.cache().stats();
    assert!(s.refresh_bails >= 1, "{s:?}");
    assert_eq!(s.refreshes, 0, "a faulted refresh must not commit: {s:?}");
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");

    // the fallback populate installed a fresh entry: warm again, and
    // still identical
    let rt2 = db.link().roundtrips();
    let (warm, _) = tango.execute_physical(&plan).unwrap();
    assert_eq!(db.link().roundtrips(), rt2, "the repopulated entry must serve hits");
    assert!(warm.list_eq(&expect));
}

/// A DELETE or UPDATE that fails on some row writes nothing: no row, no
/// version, no delta record. A warm entry over the table therefore stays
/// fresh, and still equals a cold run. Each statement below matches
/// `(1, NULL)` before it fails on `(2, 'a')`.
#[test]
fn a_failing_write_leaves_the_table_and_its_warm_entries_unchanged() {
    let db = Database::new(Link::new(LinkProfile::default()));
    let conn = Connection::new(db.clone());
    conn.execute("CREATE TABLE T (X INT, S VARCHAR(5))").unwrap();
    conn.execute("INSERT INTO T VALUES (1, NULL), (2, 'a')").unwrap();
    let mut tango = Tango::connect(db.clone());
    let plan = PhysNode::over(Algo::TransferM, vec![scan(tango.conn(), "T")]).unwrap();
    let (before, _) = tango.execute_physical(&plan).unwrap();
    tango.execute_physical(&plan).unwrap(); // hit: the entry earns its keep
    let version = db.table_version("T").unwrap();
    let delta = db.delta_bytes_since("T", version - 1);
    assert!(delta.is_some_and(|b| b > 0), "the insert is logged: {delta:?}");

    for sql in [
        "DELETE FROM T WHERE X = 1 OR S + 1 > 0",
        "UPDATE T SET X = 10 WHERE X = 1 OR S + 1 > 0",
        "UPDATE T SET S = S + 1",
    ] {
        let err = conn.execute(sql).unwrap_err();
        assert!(err.to_string().contains("a + 1"), "{sql}: {err}");
        assert_eq!(db.table_version("T"), Some(version), "{sql}");
        assert_eq!(db.delta_bytes_since("T", version - 1), delta, "{sql}");
        let (got, exec) = tango.execute_physical(&plan).unwrap();
        assert_eq!(cache_annotations(&exec), vec![Some("hit")], "{sql}");
        assert!(got.list_eq(&before), "{sql}: {got}");
        assert!(control_run(&db, &plan).list_eq(&before), "{sql} changed the table");
    }
}

/// Bails are counted by reason: a fragment whose delivered order has ties
/// (`serve-churn`'s `PROJ[PosID,T1,T2](SEL[PosID < k](…))` shape) cannot
/// be merged order-determined, a faulted delta fetch never gets that far,
/// and the report splits [`CacheStats::refresh_bails`] between the two.
/// The fetch faults after a second write, one the delta mirror has not
/// seen: without it the mirror would answer that fetch.
///
/// [`CacheStats::refresh_bails`]: tango::core::cache::CacheStats::refresh_bails
#[test]
fn refresh_bails_are_reported_by_reason() {
    let rows: Vec<_> =
        (0..150).map(|i| (i % 10, 1 + i % 20, 1.0, i as i32, 200 + i as i32)).collect();
    let db = make_db(LinkProfile::default(), &rows);
    let mut tango = Tango::connect(db.clone());
    let items = ["PosID", "T1", "T2"].iter().map(|c| ProjItem::col(*c)).collect();
    let pred = Expr::cmp(CmpOp::Lt, Expr::col("PosID"), Expr::lit(5));
    let filter = PhysNode::over(Algo::FilterD(pred), vec![scan(tango.conn(), "POSITION")]);
    let project = PhysNode::over(Algo::ProjectD(items), vec![filter.unwrap()]).unwrap();
    let sorted = PhysNode::over(Algo::SortD(SortSpec::by(["PosID"])), vec![project]).unwrap();
    let tied = PhysNode::over(Algo::TransferM, vec![sorted]).unwrap();
    let keyed = chain_plan(tango.conn());
    for plan in [&tied, &keyed] {
        tango.execute_physical(plan).unwrap();
        tango.execute_physical(plan).unwrap(); // hit: worth refreshing
    }

    db.insert_rows("POSITION", vec![tup![3, 9, Value::Double(3.5), 0, 40]]).unwrap();
    let (got, exec) = tango.execute_physical(&tied).unwrap();
    assert!(got.list_eq(&control_run(&db, &tied)));
    let events: Vec<&str> =
        exec.steps.iter().flat_map(|st| &st.events).map(|e| e.detail.as_str()).collect();
    assert_eq!(events, ["refresh bailed: merge is not order-determined"]);

    // a second write moves POSITION past the records the first refresh
    // fetched, so the delta mirror cannot answer the next fetch
    db.insert_rows("POSITION", vec![tup![4, 9, Value::Double(3.5), 1, 41]]).unwrap();
    let rt = db.link().roundtrips();
    let fault = Fault::Fatal("ORA-03113: end-of-file on delta channel".into());
    db.link().set_injector(Arc::new(FaultPlan::scripted([(rt + 1, fault)])));
    tango.execute_physical(&keyed).unwrap();
    db.link().clear_injector();

    assert_eq!(tango.cache().stats().refresh_bails, 2);
    let report = tango.cache().render_report();
    assert!(report.contains("2 bails)\n  bailed 1: delta fetch failed\n"), "{report}");
    assert!(report.ends_with("  bailed 1: merge is not order-determined\n"), "{report}");
    let json = tango.cache().stats_json();
    let reasons =
        r#""refresh_bail_reasons":{"delta fetch failed":1,"merge is not order-determined":1}"#;
    assert!(json.contains(reasons), "{json}");
}

/// A second chain over POSITION: σ(PayRate ≥ 1) delivered on every column.
fn paid_chain_plan(conn: &Connection) -> PhysNode {
    let pred = Expr::cmp(CmpOp::Ge, Expr::col("PayRate"), Expr::lit(1.0));
    let order = SortSpec::by(["PosID", "EmpID", "PayRate", "T1", "T2"]);
    let filter = PhysNode::over(Algo::FilterD(pred), vec![scan(conn, "POSITION")]).unwrap();
    let sorted = PhysNode::over(Algo::SortD(order), vec![filter]).unwrap();
    PhysNode::over(Algo::TransferM, vec![sorted]).unwrap()
}

/// Three fragments over POSITION that every write below refreshes: two
/// chains that keep the written row and a self-join that keeps neither
/// copy of it (the rows start at `T1 = 0`, the writes at `T1 ≥ 35`).
fn position_fragments(conn: &Connection) -> [PhysNode; 3] {
    [chain_plan(conn), paid_chain_plan(conn), self_join_plan(conn, 20, 30)]
}

/// Populate each plan and earn it a hit, so a write makes it worth
/// refreshing.
fn warm(tango: &mut Tango, plans: &[PhysNode]) {
    for plan in plans {
        tango.execute_physical(plan).unwrap();
        tango.execute_physical(plan).unwrap();
    }
}

/// Read `plan`, which must refresh, and check its result against a
/// cache-off run: the refresh event and the round trips the read cost.
fn read(db: &Database, tango: &mut Tango, plan: &PhysNode) -> (String, u64) {
    let rt = db.link().roundtrips();
    let (got, exec) = tango.execute_physical(plan).unwrap();
    let trips = db.link().roundtrips() - rt;
    assert_eq!(cache_annotations(&exec), vec![Some("refresh")], "{:?}", events(&exec));
    let expect = control_run(db, plan);
    assert!(got.list_eq(&expect), "expected:\n{expect}\ngot:\n{got}");
    let [event] = events(&exec)[..] else { panic!("one refresh event: {:?}", events(&exec)) };
    (event.to_string(), trips)
}

fn write(db: &Database, t1: i32) {
    db.insert_rows("POSITION", vec![tup![900 + t1 as i64, 9, Value::Double(3.5), t1, 90]]).unwrap();
}

/// One write stales three resident fragments, and refreshing all three
/// costs the one delta round trip the first refresh pays: the others read
/// the records from the cache's delta mirror, and count no delta bytes.
/// The mirror belongs to the database's shared cache, so a second
/// session reading after the first pays no round trip either.
#[test]
fn one_write_costs_one_delta_round_trip_however_many_fragments_it_stales() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let plans = position_fragments(tango.conn());
    warm(&mut tango, &plans);

    write(&db, 35);
    let reads: Vec<_> = plans.iter().map(|p| read(&db, &mut tango, p)).collect();
    let trips: Vec<u64> = reads.iter().map(|(_, trips)| *trips).collect();
    assert_eq!(trips, [1, 0, 0], "{reads:?}");
    assert_eq!(
        reads.iter().map(|(event, _)| event.as_str()).collect::<Vec<_>>(),
        [
            "spliced 1 delta rows into 1 runs (56 delta bytes)",
            "spliced 1 delta rows into 1 runs (0 delta bytes, served by the delta mirror)",
            "no change (0 delta bytes, served by the delta mirror)",
        ]
    );
    let s = tango.cache().stats();
    assert_eq!((s.refreshes, s.refresh_bytes, s.refresh_bails), (3, 56, 0), "{s:?}");

    write(&db, 36);
    let mut other = Tango::connect(db.clone());
    assert_eq!(read(&db, &mut tango, &plans[0]).1, 1);
    for plan in &plans[1..] {
        let (event, trips) = read(&db, &mut other, plan);
        assert_eq!(trips, 0, "{event}");
    }
}

/// A fragment that skipped a write holds a snapshot older than the
/// mirror's first record: it fetches its own delta, and the mirror then
/// reaches back far enough for a third fragment as old.
#[test]
fn a_fragment_that_skipped_a_write_fetches_its_own_delta() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let [chain, paid, self_join] = position_fragments(tango.conn());
    warm(&mut tango, &[chain.clone(), self_join.clone()]);
    write(&db, 35);
    warm(&mut tango, std::slice::from_ref(&paid)); // populated after the write

    write(&db, 36);
    assert_eq!(read(&db, &mut tango, &paid).1, 1);
    let (event, trips) = read(&db, &mut tango, &chain);
    assert_eq!((event.as_str(), trips), ("spliced 2 delta rows into 2 runs (112 delta bytes)", 1));
    let (event, trips) = read(&db, &mut tango, &self_join);
    assert_eq!(
        (event.as_str(), trips),
        ("no change (0 delta bytes, served by the delta mirror)", 0)
    );
}

/// A faulted delta fetch leaves the mirror as it was: after the next
/// write the mirror still stops at the version before it, so the next
/// fragment fetches for itself — and from then on the mirror serves.
#[test]
fn a_faulted_delta_fetch_leaves_the_mirror_unchanged() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    let [chain, paid, self_join] = position_fragments(tango.conn());
    warm(&mut tango, &[chain.clone(), paid.clone(), self_join.clone()]);
    write(&db, 35);
    assert_eq!(read(&db, &mut tango, &chain).1, 1);

    write(&db, 36);
    let rt = db.link().roundtrips();
    let fault = Fault::Fatal("ORA-03113: end-of-file on delta channel".into());
    db.link().set_injector(Arc::new(FaultPlan::scripted([(rt + 1, fault)])));
    let (got, exec) = tango.execute_physical(&paid).unwrap();
    db.link().clear_injector();
    assert_eq!(cache_annotations(&exec), vec![Some("miss")]);
    assert!(events(&exec)[0].starts_with("refresh bailed: delta fetch failed"), "{exec:?}");
    assert!(got.list_eq(&control_run(&db, &paid)));

    let (event, trips) = read(&db, &mut tango, &self_join);
    assert_eq!((event.as_str(), trips), ("no change (112 delta bytes)", 1));
    let (event, trips) = read(&db, &mut tango, &chain);
    assert_eq!(
        (event.as_str(), trips),
        ("spliced 1 delta rows into 1 runs (0 delta bytes, served by the delta mirror)", 0)
    );
}

/// `serve-churn` at small scale: the benchmark's eight pool statements
/// (texts as `benchmark/src/workload.rs` generates them, jitter 0) under
/// its write stream — every 20th op an `INSERT` starting in 1995–1997 or
/// a `DELETE` of the oldest inserted row. Each read runs the plan the
/// cache-on session chose against a cache-off session too, and no write
/// may cost an entry: what the pool used to refetch it now refreshes.
#[test]
fn churn_pool_refreshes_what_it_used_to_refetch() {
    let db = uis_db();
    let conn = Connection::new(db.clone());
    let pool = serving_pool();

    let mut options =
        TangoOptions { rewrite_packs: ALL_PACKS.map(String::from).to_vec(), ..Default::default() };
    // the reported plan is then the plan that ran, which the control re-runs
    options.opt.replan_ratio = None;
    let mut tango = Tango::connect_with(db.clone(), options);
    tango.refresh_statistics().unwrap();
    for _ in 0..2 {
        // populate, then one earned hit per fragment
        pool.iter().for_each(|sql| drop(tango.query(sql).unwrap()));
    }

    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut below = |n: u64| rng.gen_range(0..n);
    let mut live = std::collections::VecDeque::new();
    let mut inserted = 0i64;
    for op in 1..=400usize {
        if op % 20 == 0 {
            if live.len() > 4 && below(2) == 0 {
                let marker: i64 = live.pop_front().unwrap();
                conn.execute(&format!("DELETE FROM POSITION WHERE EmpID = {marker}")).unwrap();
                continue;
            }
            inserted += 1;
            let marker = 9_000_000 + inserted;
            live.push_back(marker);
            let pos_id = 1 + below(35) as i64;
            let t1 = day(1995, 1, 1) + below(1000) as i32;
            let t2 = t1 + 30 + below(700) as i32;
            conn.execute(&format!(
                "INSERT INTO POSITION VALUES ({pos_id}, {marker}, {}, 'Bench', 19.5, 40, \
                 DATE '{}', DATE '{}')",
                1 + pos_id % 40,
                format_date(t1),
                format_date(t2),
            ))
            .unwrap();
            continue;
        }
        let sql = &pool[below(pool.len() as u64) as usize];
        let (got, report) = tango.query(sql).unwrap();
        let expect = control_run(&db, &report.optimized.plan);
        assert!(got.list_eq(&expect), "op {op}: {sql}\nexpected:\n{expect}\ngot:\n{got}");
    }
    let s = tango.cache().stats();
    assert!(s.refreshes > 0, "{s:?}");
    assert_eq!(s.invalidations, 0, "{s:?}");
    assert!(s.refresh_bails * 20 <= s.refreshes, "{s:?}");
}

/// A cache decision is a function of factors, statistics and bytes: one
/// write/read sequence leaves the same counters over a free link and
/// over a slow one. The factors price a refresh (1 µs per merged byte)
/// above what a fill spends on the CPU and below its transfer (2 µs per
/// byte), so a fill timed rather than priced would be refetched over the
/// free link and refreshed over the slow one.
#[test]
fn a_cache_decision_does_not_depend_on_the_link() {
    let slow = LinkProfile { bytes_per_sec: 256.0 * 1024.0, ..LinkProfile::default() };
    let stats = [LinkProfile::instant(), slow].map(|profile| {
        let db = make_db(profile, &keyed_rows(1000));
        let mut tango = Tango::connect(db.clone());
        tango.refresh_statistics().unwrap();
        tango.set_factors(CostFactors { p_tm: 2.0, p_delta: 1.0, ..Default::default() });
        let plan = chain_plan(tango.conn());
        warm(&mut tango, std::slice::from_ref(&plan));
        write(&db, 35);
        let (got, _) = tango.execute_physical(&plan).unwrap();
        assert!(got.list_eq(&control_run(&db, &plan)));
        tango.cache().stats()
    });
    assert_eq!(stats[0], stats[1], "instant link vs slow link");
    assert_eq!(stats[0].refreshes, 1, "{:?}", stats[0]);
}

/// A stale entry's decision shows both prices it weighed beside the
/// verdict: the refresh as [`refresh_cost_us`] prices it, the refetch at
/// the price the entry's fill fixed.
#[test]
fn a_maintenance_decision_shows_both_prices() {
    let db = make_db(LinkProfile::default(), &keyed_rows(150));
    let mut tango = Tango::connect(db.clone());
    tango.refresh_statistics().unwrap();
    let plan = chain_plan(tango.conn());
    warm(&mut tango, std::slice::from_ref(&plan));
    write(&db, 35);
    let key = fragment_key(&plan.children[0], "", &|_: &str| false).unwrap();
    let version_of = |t: &str| db.table_version(t);
    let delta_bytes_of = |t: &str, since: u64| db.delta_bytes_since(t, since);
    let Lookup::Stale { entry, .. } = tango.cache().lookup(&key, &version_of, &delta_bytes_of)
    else {
        panic!("the write stales the entry")
    };
    let base = entry.batch.byte_size() as u64;
    let refresh = refresh_cost_us(tango.factors(), base, entry.delta_bytes);
    let (_, exec) = tango.execute_physical(&plan).unwrap();
    let [step] = &exec.steps[..] else { panic!("one step: {exec:?}") };
    assert_eq!(step.annotation("cache"), Some("refresh"));
    let prices = format!("refresh {refresh:.1} µs ≤ refetch {:.1} µs", entry.fill_cost_us);
    assert_eq!(step.annotation("maintenance"), Some(prices.as_str()));
}

/// Write-heavy racing: concurrent writers against warm refresher
/// sessions. No interleaving may serve stale or corrupt bytes, and once
/// the dust settles a deterministic write must still be settled — as an
/// in-place refresh or an invalidation, never ignored.
#[test]
fn racing_writers_vs_refreshers_stay_consistent() {
    let db = make_db(LinkProfile::instant(), &keyed_rows(80));
    let start = Arc::new(Barrier::new(4)); // 2 writers + 2 refreshers
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let db = db.clone();
            let start = start.clone();
            thread::spawn(move || {
                let conn = Connection::new(db);
                start.wait();
                for i in 0..15 {
                    let id = 2000 + w * 100 + i;
                    conn.execute(&format!("INSERT INTO POSITION VALUES ({id}, 5, 1.5, 0, 30)"))
                        .unwrap();
                    if i % 3 == 0 {
                        conn.execute(&format!("DELETE FROM POSITION WHERE PosID = {id}")).unwrap();
                    }
                }
            })
        })
        .collect();
    let refreshers: Vec<_> = (0..2)
        .map(|_| {
            let db = db.clone();
            let start = start.clone();
            thread::spawn(move || {
                let mut tango = Tango::connect(db);
                tango.refresh_statistics().unwrap();
                let plan = chain_plan(tango.conn());
                start.wait();
                for _ in 0..15 {
                    let (rel, _) = tango.execute_physical(&plan).unwrap();
                    assert!(!rel.is_empty());
                    let (rel2, _) = tango.query(&q1_sql("POSITION")).unwrap();
                    assert!(!rel2.is_empty());
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    for r in refreshers {
        r.join().unwrap();
    }

    // quiesced: the warm answer must equal a cache-off session's over
    // the final state
    db.analyze("POSITION").unwrap();
    let mut warm = Tango::connect(db.clone());
    let plan = chain_plan(warm.conn());
    let (got, _) = warm.execute_physical(&plan).unwrap();
    let expect = control_run(&db, &plan);
    assert!(got.list_eq(&expect), "a stale relation survived the race");

    // deterministic post-race freshness: one more write must be settled
    warm.execute_physical(&plan).unwrap(); // earn a hit so refresh can win
    let before = warm.cache().stats();
    db.insert_rows("POSITION", vec![tup![7777, 1, Value::Double(2.0), 0, 9]]).unwrap();
    let (after, _) = warm.execute_physical(&plan).unwrap();
    let s = warm.cache().stats();
    assert!(
        s.refreshes > before.refreshes || s.invalidations > before.invalidations,
        "the post-race write was neither refreshed nor invalidated: {s:?}"
    );
    assert!(after.tuples().iter().any(|t| t[0] == Value::Int(7777)), "{after}");
}

/// A write keeps the table's last statistics: a session that connects
/// after it plans over them, where it used to fail every statement with
/// `no feasible plan` until the next ANALYZE. A table that was never
/// analyzed gets an error that names its missing statistics.
#[test]
fn a_session_connected_after_a_write_plans_over_the_last_statistics() {
    let db = position_db(LinkProfile::default(), &keyed_rows(8));
    Connection::new(db.clone()).execute("INSERT INTO POSITION VALUES (1, 2, 3.0, 4, 9)").unwrap();
    let (got, _) = Tango::connect(db.clone()).query(&q1_sql("POSITION")).unwrap();
    assert!(!got.is_empty(), "{got}");

    db.create_table("FRESH", db.table_schema("POSITION").unwrap()).unwrap();
    let Err(err) = Tango::connect(db).query(&q1_sql("FRESH")) else {
        panic!("a statement over an unanalyzed table planned")
    };
    let err = err.to_string();
    assert!(err.contains("no statistics for table FRESH"), "{err}");
}
