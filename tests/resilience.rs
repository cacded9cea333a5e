//! Chaos & resilience: the simulated JDBC wire fails on purpose — seeded
//! fault schedules ([`FaultPlan`]) inject latency spikes, throttles,
//! transient errors, disconnects and fatal failures — and the middleware
//! must absorb every survivable schedule without changing a single
//! result byte:
//!
//! * transient faults are retried with capped, jittered backoff charged
//!   to the virtual wire clock;
//! * a DBMS fragment that exhausts its retry budget is **re-planned** —
//!   the transfer operator flips and the fragment runs on middleware
//!   operators over plain base-table fetches;
//! * fatal faults surface as one clean classified error, never a panic
//!   and never a partial result;
//! * all of it is visible as `retry` / `fault` / `replan` span events in
//!   `EXPLAIN ANALYZE`.
//!
//! Seeds come from `TANGO_CHAOS_SEED` (the CI chaos job sweeps several)
//! with a fixed default set, so every failure here is reproducible by
//! exporting the seed the log names.

mod support;

use std::sync::Arc;
use std::time::Duration;
use support::{chaos_seeds, seed_db};
use tango::algebra::{Relation, SortSpec};
use tango::minidb::{Database, ErrorClass, Fault, FaultPlan, RetryPolicy};
use tango::uis::queries::q1_sql;
use tango::Tango;

/// A session with the relation cache off: every run in this file must
/// exercise the wire — which is the thing under test — rather than be
/// served from a middleware-resident copy. (Cache population safety
/// under chaos is covered by `tests/caching.rs`.)
fn wire_session(db: &Database) -> Tango {
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().cache_budget = None;
    tango
}

/// The benchmark's four query shapes (Section 5 flavours): temporal
/// aggregation, nested aggregation + temporal join, temporal self-join,
/// and a conventional join.
fn queries() -> Vec<String> {
    vec![
        q1_sql("POSITION"),
        "VALIDTIME SELECT P.PosID, Cnt, P.EmpID FROM \
           (VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID) A, \
           POSITION P WHERE A.PosID = P.PosID AND P.PayRate > 10 \
           AND T1 < 40 AND T2 > 5 ORDER BY P.PosID"
            .to_string(),
        "VALIDTIME SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
         WHERE A.PosID = B.PosID AND A.T1 < 30 AND B.T1 < 30 ORDER BY A.PosID"
            .to_string(),
        "SELECT P.PosID, E.EmpName FROM POSITION P, EMPLOYEE E \
         WHERE P.EmpID = E.EmpID ORDER BY P.PosID"
            .to_string(),
    ]
}

/// Transient-only chaos under a fault budget smaller than the retry
/// budget: every query must come back **byte-identical** to the
/// fault-free run, for every seed.
#[test]
fn seeded_chaos_schedules_leave_results_identical() {
    let db = seed_db();
    let mut tango = wire_session(&db);
    let baselines: Vec<Relation> = queries().iter().map(|q| tango.query(q).unwrap().0).collect();

    let mut total_faults = 0u64;
    for seed in chaos_seeds() {
        // budget 3 < default max_attempts 4: a retry loop always wins
        let plan = Arc::new(
            FaultPlan::random(seed, 0.2)
                .with_budget(3)
                .with_spikes(0.1, Duration::from_millis(2))
                .with_throttle(0.1, 4.0),
        );
        db.link().set_injector(plan.clone());
        for (q, base) in queries().iter().zip(&baselines) {
            let (rel, _) = tango
                .query(q)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: chaos run failed: {e}\nquery: {q}"));
            assert!(
                rel.list_eq(base),
                "seed {seed:#x}: chaos result differs from baseline\nquery: {q}\n\
                 baseline:\n{base}\nchaos:\n{rel}"
            );
        }
        db.link().clear_injector();
        total_faults += plan.faults_injected();
    }
    assert!(total_faults > 0, "no chaos schedule ever fired — raise the probabilities");
}

/// A transient blip on the statement submission is retried transparently
/// and shows up as `fault`/`retry` span events and `wire_*` counters in
/// `EXPLAIN ANALYZE`.
#[test]
fn retry_events_are_visible_in_explain_analyze() {
    let db = seed_db();
    let mut tango = wire_session(&db);
    let optimized = tango.optimize(&q1_sql("POSITION")).unwrap();
    let (baseline, _) = tango.execute_physical(&optimized.plan).unwrap();

    let rt = db.link().roundtrips();
    db.link()
        .set_injector(Arc::new(FaultPlan::scripted([(rt + 1, Fault::Transient("blip".into()))])));
    let (rel, exec) = tango.execute_physical(&optimized.plan).unwrap();
    db.link().clear_injector();

    assert!(rel.list_eq(&baseline), "a retried run must not change bytes");
    let text = optimized.explain_analyze(&exec, true);
    assert!(text.contains("wire_faults 1"), "{text}");
    assert!(text.contains("wire_retries 1"), "{text}");
    assert!(text.contains("events: fault retry"), "{text}");
    assert_eq!(tango.conn().wire_faults(), 1);
    assert_eq!(tango.conn().wire_retries(), 1);
}

/// Exhausting the retry budget on the `TRANSFER^M` submission re-plans
/// the DBMS fragment onto middleware operators: the query still
/// succeeds, the result multiset and ordering are preserved, and the
/// `replan` is recorded on the span.
#[test]
fn exhausted_retries_replan_and_match_baseline() {
    let db = seed_db();
    let mut tango = wire_session(&db);
    let optimized = tango.optimize(&q1_sql("POSITION")).unwrap();
    let (baseline, _) = tango.execute_physical(&optimized.plan).unwrap();

    tango.conn_mut().set_retry_policy(RetryPolicy { max_attempts: 3, ..RetryPolicy::default() });
    let rt = db.link().roundtrips();
    // all three attempts of the submission fail; the fallback's own
    // fetch (round trip rt+4 onwards) is clean
    db.link().set_injector(Arc::new(FaultPlan::scripted([
        (rt + 1, Fault::Transient("chaos".into())),
        (rt + 2, Fault::Disconnect),
        (rt + 3, Fault::Transient("chaos".into())),
    ])));
    let (rel, exec) = tango.execute_physical(&optimized.plan).unwrap();
    db.link().clear_injector();

    assert!(
        rel.multiset_eq(&baseline),
        "re-planned result differs\nbaseline:\n{baseline}\nreplanned:\n{rel}"
    );
    assert!(rel.is_sorted_by(&SortSpec::by(["PosID"])), "ORDER BY lost in re-plan:\n{rel}");

    let text = optimized.explain_analyze(&exec, true);
    assert!(text.contains("replans 1"), "{text}");
    assert!(text.contains("wire_faults 3"), "{text}");
    assert!(text.contains("replan"), "{text}");
    assert_eq!(tango.conn().wire_faults(), 3);
    assert_eq!(tango.conn().wire_retries(), 2); // two backoffs before giving up
}

/// A fault that lands after the degrade — on a base fetch of the
/// re-plan fallback — is metered on the degraded `TRANSFER^M` step like
/// the faults that degraded it.
#[test]
fn fallback_fetch_faults_land_on_the_transfer_step() {
    let db = seed_db();
    let mut tango = wire_session(&db);
    let optimized = tango.optimize(&q1_sql("POSITION")).unwrap();
    let (baseline, _) = tango.execute_physical(&optimized.plan).unwrap();

    tango.conn_mut().set_retry_policy(RetryPolicy { max_attempts: 3, ..RetryPolicy::default() });
    let rt = db.link().roundtrips();
    // rt+1..rt+3 exhaust the submission's attempts; rt+4 is the
    // fallback's own fetch, retried once at rt+5
    db.link().set_injector(Arc::new(FaultPlan::scripted([
        (rt + 1, Fault::Transient("chaos".into())),
        (rt + 2, Fault::Transient("chaos".into())),
        (rt + 3, Fault::Transient("chaos".into())),
        (rt + 4, Fault::Transient("late".into())),
    ])));
    let (rel, exec) = tango.execute_physical(&optimized.plan).unwrap();
    db.link().clear_injector();

    assert!(rel.multiset_eq(&baseline), "baseline:\n{baseline}\nreplanned:\n{rel}");
    assert_eq!((tango.conn().wire_faults(), tango.conn().wire_retries()), (4, 3));
    let text = optimized.explain_analyze(&exec, true);
    assert!(text.contains("replans 1"), "{text}");
    assert!(text.contains("wire_faults 4"), "a fault after the degrade went unmetered:\n{text}");
    assert!(text.contains("wire_retries 3"), "{text}");
}

/// A fatal fault surfaces as one clean, classified error — no panic, no
/// partial result, no leaked temp tables — and the session keeps working
/// once the fault clears.
#[test]
fn fatal_faults_surface_cleanly_and_the_session_survives() {
    let db = seed_db();
    let mut tango = wire_session(&db);
    let (baseline, _) = tango.query(&q1_sql("POSITION")).unwrap();
    let tables_before = db.table_names().len();

    let rt = db.link().roundtrips();
    db.link().set_injector(Arc::new(FaultPlan::scripted([(
        rt + 1,
        Fault::Fatal("ORA-00600: internal error".into()),
    )])));
    let err = tango.query(&q1_sql("POSITION")).map(|_| ()).unwrap_err();
    assert_eq!(err.wire_class(), Some(ErrorClass::Fatal), "{err}");
    assert!(err.to_string().contains("fatal"), "{err}");
    assert_eq!(tango.conn().wire_retries(), 0, "fatal failures must never be retried");
    db.link().clear_injector();

    assert_eq!(db.table_names().len(), tables_before, "temp tables leaked by the failed run");
    let (again, _) = tango.query(&q1_sql("POSITION")).unwrap();
    assert!(again.list_eq(&baseline), "session unusable after a cleared fault");
}

/// Once rows have been emitted, a failed fetch must **propagate** — a
/// mid-stream re-plan would silently restart the result.
#[test]
fn no_replan_after_rows_were_emitted() {
    let db = seed_db();
    let mut tango = wire_session(&db);
    // a batch of the link's prefetch: a transfer makes one round trip per
    // batch, so this keeps several trips for the fault to land on
    tango.options_mut().batch_rows = Some(8);
    tango.query(&q1_sql("POSITION")).unwrap(); // warm catalog + plan caches
    tango.conn_mut().set_retry_policy(RetryPolicy::none());

    // rt+1 is the submission; rt+3 lands inside the row-fetch batches
    let rt = db.link().roundtrips();
    db.link()
        .set_injector(Arc::new(FaultPlan::scripted([(rt + 3, Fault::Transient("drop".into()))])));
    let err = tango.query(&q1_sql("POSITION")).map(|_| ()).unwrap_err();
    db.link().clear_injector();
    assert_eq!(err.wire_class(), Some(ErrorClass::Transient), "{err}");
}

/// Fault injection disabled (never installed, or installed-then-cleared,
/// or installed but empty) adds **zero** wire time: the virtual clock
/// charges the exact same duration for the same query.
#[test]
fn disabled_injection_is_free_on_the_wire_clock() {
    let db = seed_db();
    let mut tango = wire_session(&db);
    tango.query(&q1_sql("POSITION")).unwrap(); // warm catalog so runs are comparable

    let cost_of_run = |tango: &mut Tango, db: &Database| -> Duration {
        let before = db.link().total();
        tango.query(&q1_sql("POSITION")).unwrap();
        db.link().total() - before
    };

    let never_installed = cost_of_run(&mut tango, &db);

    db.link().set_injector(Arc::new(FaultPlan::scripted([])));
    let empty_injector = cost_of_run(&mut tango, &db);

    db.link().clear_injector();
    let after_clear = cost_of_run(&mut tango, &db);

    assert!(!db.link().faults_enabled());
    assert_eq!(never_installed, empty_injector, "consulting an empty plan charged wire time");
    assert_eq!(never_installed, after_clear, "clearing the injector left residual cost");
}
