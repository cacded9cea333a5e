//! Mid-query adaptive re-optimization at pipeline breakers, pinned by a
//! misestimate-rescue suite.
//!
//! The headline scenario is the paper's Section 3.3 `Overlaps`
//! misestimate: treating the two temporal conjuncts of an overlap
//! predicate as independent over-estimates the selection by well over an
//! order of magnitude (`OptOptions::naive_overlaps` re-creates the naive
//! estimator). Under that belief the optimizer ships *both* join inputs
//! to a middleware merge join; the truth (a tiny selection) wants the
//! join in the DBMS with only the small result on the wire. The
//! misestimate monitor at the first pipeline breaker must notice the
//! divergence, re-optimize the unexecuted remainder over the observed
//! cardinalities, and splice the flipped plan in — without changing a
//! single result byte.

mod support;

use std::sync::Arc;
use support::{position_db, wire_fitted, Row};
use tango::algebra::{tup, Attr, Schema, SortSpec, Type, Value};
use tango::minidb::{Database, Fault, FaultPlan, LinkProfile, RetryPolicy, WireMode};
use tango::Tango;

/// Valid-time domain of the fixture (days).
const DOMAIN: i64 = 5_000;

/// The rescue query: a conventional join of the versioned `POSITION`
/// table against the wide one-row-per-position `POSINFO`, filtered to
/// the versions whose period overlaps `[2500, 2520]` — a window narrow
/// enough (20 days out of 5000) that the joint estimate is tiny while
/// the naive product of the two conjuncts stays near 25%. The two
/// temporal conjuncts are exactly the pattern the joint `Overlaps`
/// estimator recognizes (`T1 <= B AND T2 >= A`). `(PosID, T1)` is unique
/// in `POSITION` and `POSINFO` is keyed by `PosID`, so the ORDER BY is a
/// total order and byte-for-byte comparison is meaningful.
const RESCUE_SQL: &str = "SELECT P.PosID, P.T1, I.Info FROM POSITION P, POSINFO I \
     WHERE P.PosID = I.PosID AND P.T1 <= 2520 AND P.T2 >= 2500 \
     ORDER BY P.PosID, P.T1";

/// A wire slow enough that shipping the un-filtered `POSINFO` dossiers
/// to the middleware is the dominant cost of the pinned bad plan.
fn slow_wire() -> LinkProfile {
    LinkProfile {
        roundtrip_latency_us: 200.0,
        bytes_per_sec: 256.0 * 1024.0,
        row_prefetch: 16,
        mode: WireMode::Virtual,
    }
}

/// `POSITION(PosID, EmpID, PayRate, T1, T2)`: `versions` short-lived
/// versions per position, strided over the domain so `(PosID, T1)` is
/// unique. `POSINFO(PosID, Info)`: one wide dossier row per position.
/// Deterministic xorshift so the fixture can never drift.
fn rescue_db(profile: LinkProfile, positions: usize, versions: usize) -> Database {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let stride = DOMAIN / versions as i64;
    let mut rows: Vec<Row> = Vec::with_capacity(positions * versions);
    for p in 0..positions as i64 {
        for v in 0..versions as i64 {
            // each version lives in its own stratum of the domain, so T1
            // is unique per position; durations are 1..40 days
            let t1 = v * stride + (step() % (stride as u64 - 40).max(1)) as i64;
            let t2 = t1 + 1 + (step() % 39) as i64;
            let emp = (step() % (positions as u64 * 2)) as i64;
            rows.push((p, emp, (step() % 100) as f64 / 2.0, t1 as i32, t2 as i32));
        }
    }
    let db = position_db(profile, &rows);
    let posinfo = Schema::new(vec![Attr::new("PosID", Type::Int), Attr::new("Info", Type::Str)]);
    db.create_table("POSINFO", posinfo).unwrap();
    let dossier: Vec<_> = (0..positions as i64)
        .map(|p| tup![p, Value::Str(format!("dossier-{p:06}-{}", "x".repeat(140)))])
        .collect();
    db.insert_rows("POSINFO", dossier).unwrap();
    db.analyze("POSINFO").unwrap();
    db.link().reset();
    db
}

/// A session with the cache disabled (every run pays the true wire
/// cost, so wire-time comparisons are meaningful) and the estimator and
/// re-plan threshold set as requested.
fn session(db: &Database, naive: bool, ratio: Option<f64>) -> Tango {
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().cache_budget = None;
    tango.options_mut().opt.naive_overlaps = naive;
    tango.options_mut().opt.replan_ratio = ratio;
    tango
}

/// [`session`] with the pinned wire-fitted cost factors.
fn session_with(
    db: &Database,
    factors: tango::core::cost::CostFactors,
    naive: bool,
    ratio: Option<f64>,
) -> Tango {
    let mut tango = session(db, naive, ratio);
    tango.set_factors(factors);
    tango
}

/// Whether a span event records the misestimate monitor firing: the
/// remainder was re-optimized and either spliced (`cardinality-replan`)
/// or, pricing no gain, left as it ran (`replan-declined`).
fn monitor_fired(kind: &str) -> bool {
    kind == "cardinality-replan" || kind == "replan-declined"
}

/// The detail of every monitor firing in an execution report.
fn replan_events(report: &tango::core::engine::ExecReport) -> Vec<String> {
    report
        .steps
        .iter()
        .flat_map(|s| s.events.iter())
        .filter(|e| monitor_fired(&e.kind))
        .map(|e| e.detail.clone())
        .collect()
}

/// The value of counter `key` on whichever step carries it.
fn counter(report: &tango::core::engine::ExecReport, key: &str) -> Option<u64> {
    report.steps.iter().flat_map(|s| s.counters.iter()).find(|c| c.0 == key).map(|c| c.1)
}

/// The observed est-vs-actual divergence, parsed from a monitor event
/// detail of the form `"... (20.3x off) ..."`.
fn parse_divergence(detail: &str) -> f64 {
    let start = detail.find('(').expect("detail has divergence") + 1;
    let end = detail[start..].find("x off").expect("detail has divergence") + start;
    detail[start..end].parse().expect("divergence is a number")
}

// ---------------------------------------------------------------------
// The headline rescue
// ---------------------------------------------------------------------

/// Seeded misestimate → bad plan → mid-query flip → identical bytes,
/// and the adaptive run beats the pinned bad plan on the (virtual,
/// deterministic) wire.
#[test]
fn misestimate_rescue_flips_placement_mid_query() {
    let db = rescue_db(slow_wire(), 200, 30);
    // pinned factors approximating a calibration against `slow_wire`
    let factors = wire_fitted();

    // ground truth: accurate joint estimator, no adaptivity
    let (truth, truth_report) = session_with(&db, factors, false, None).query(RESCUE_SQL).unwrap();
    assert!(!truth.is_empty(), "fixture selects nothing");
    // 200 positions x 30 versions; the narrow window should keep well
    // under a tenth of them
    assert!(truth.len() < 600, "window selection should be small, got {} rows", truth.len());

    // the naive estimator must actually change the chosen plan: the bad
    // plan ships both inputs to a middleware merge join
    let (pinned, pinned_report) = session_with(&db, factors, true, None).query(RESCUE_SQL).unwrap();
    let pinned_plan = pinned_report.optimized.explain();
    assert!(
        pinned_plan.contains("MERGEJOIN^M"),
        "naive estimate should pick the middleware join, got:\n{pinned_plan}"
    );
    assert!(
        pinned.list_eq(&truth),
        "pinned bad plan answer differs\ntruth:\n{truth}\npinned:\n{pinned}"
    );

    // the adaptive run starts from the same bad plan, notices the
    // misestimate at the first breaker, and flips the join to the DBMS
    let mut adaptive = session_with(&db, factors, true, Some(8.0));
    let (rescued, report) = adaptive.query(RESCUE_SQL).unwrap();
    assert!(
        rescued.list_eq(&truth),
        "adaptive answer differs\ntruth:\n{truth}\nadaptive:\n{rescued}"
    );

    let events = replan_events(&report.exec);
    assert_eq!(events.len(), 1, "expected exactly one cardinality re-plan, got {events:?}");
    assert!(parse_divergence(&events[0]) >= 8.0, "divergence below threshold: {}", events[0]);

    let final_plan = report.optimized.explain();
    assert!(
        final_plan.contains("MATSCAN^M"),
        "executed plan should show the staged breaker:\n{final_plan}"
    );
    assert!(
        final_plan.contains("JOIN^D") && final_plan.contains("TRANSFER^D"),
        "re-plan should flip the join into the DBMS:\n{final_plan}"
    );
    assert!(
        !final_plan.contains("MERGEJOIN^M"),
        "middleware join should be gone after the flip:\n{final_plan}"
    );

    let analyze = report.optimized.explain_analyze(&report.exec, true);
    assert!(analyze.contains("cardinality-replan"), "{analyze}");
    assert!(analyze.contains("replans 1"), "{analyze}");
    // spliced because it priced a gain, both sides through the one fold
    assert!(counter(&report.exec, "replan_gain_est") > Some(0), "{analyze}");

    // the rescue must actually pay off: strictly less virtual wire time
    // than the pinned bad plan (both sessions ran cache-disabled on the
    // same deterministic link model)
    assert!(
        report.exec.wire < pinned_report.exec.wire,
        "adaptive wire {:?} should beat pinned bad plan wire {:?}",
        report.exec.wire,
        pinned_report.exec.wire
    );
    // and it should land in the neighbourhood of the plan the optimizer
    // would have chosen with accurate estimates
    assert!(
        report.exec.wire < 2 * truth_report.exec.wire.max(std::time::Duration::from_micros(1)),
        "rescued wire {:?} far from the good plan's {:?}",
        report.exec.wire,
        truth_report.exec.wire
    );
}

/// With accurate estimates nothing diverges, so the monitor must stay
/// quiet: zero `cardinality-replan` events, same answer.
#[test]
fn accurate_estimates_never_replan() {
    let db = rescue_db(slow_wire(), 60, 12);
    let (truth, _) = session(&db, false, None).query(RESCUE_SQL).unwrap();

    let mut tango = session(&db, false, Some(8.0));
    let (rel, report) = tango.query(RESCUE_SQL).unwrap();
    assert!(rel.list_eq(&truth), "adaptive run changed the answer");
    assert!(
        replan_events(&report.exec).is_empty(),
        "accurate estimates must not trigger a re-plan:\n{}",
        report.optimized.explain_analyze(&report.exec, true)
    );
    assert!(!report.exec.steps.iter().any(|s| s.counters.iter().any(|c| c.0 == "replans")));
}

/// A re-plan that prices no gain is not taken. On the small fixture
/// under default factors the monitor fires (the naive estimate is ~45x
/// off) but re-optimizing over the observed cardinalities returns the
/// plan that is already running, at the same price: the event says so
/// with both prices, `replans` stays absent, and no later span is marked
/// `replan=spliced` — so cost-factor feedback keeps every observation.
#[test]
fn zero_gain_replan_is_declined() {
    let db = rescue_db(slow_wire(), 60, 12);
    let (truth, pinned) = session(&db, true, None).query(RESCUE_SQL).unwrap();

    let mut tango = session(&db, true, Some(8.0));
    tango.options_mut().feedback = true;
    let p_tm = tango.factors().p_tm;
    let (rel, report) = tango.query(RESCUE_SQL).unwrap();
    assert!(rel.list_eq(&truth), "declined re-plan changed the answer");

    let analyze = report.optimized.explain_analyze(&report.exec, true);
    let declined: Vec<_> = report
        .exec
        .steps
        .iter()
        .flat_map(|s| s.events.iter())
        .filter(|e| e.kind == "replan-declined")
        .collect();
    assert_eq!(declined.len(), 1, "{analyze}");
    assert!(declined[0].detail.contains("us as running"), "{}", declined[0].detail);
    assert!(!analyze.contains("cardinality-replan"), "{analyze}");
    assert_eq!(counter(&report.exec, "replans"), None, "{analyze}");
    assert_eq!(counter(&report.exec, "replan_gain_est"), None, "{analyze}");
    assert!(report.exec.steps.iter().all(|s| s.annotation("replan").is_none()), "{analyze}");

    // the plan that ran is the plan the optimizer chose, breakers staged
    let strip = |plan: String| -> String {
        plan.lines().filter(|l| !l.contains("MATSCAN^M")).map(str::trim).collect()
    };
    assert_eq!(strip(report.optimized.explain()), strip(pinned.optimized.explain()));
    // and its spans refit the factors (the wire here is far slower than
    // the default `p_tm` believes)
    assert_ne!(tango.factors().p_tm, p_tm, "feedback threw the observations away");
}

// ---------------------------------------------------------------------
// Threshold knob
// ---------------------------------------------------------------------

/// `replan_ratio: None` disables adaptivity entirely: no staging, no
/// `MATSCAN^M`, the classic pipelined executor runs.
#[test]
fn threshold_none_disables_adaptivity() {
    let db = rescue_db(slow_wire(), 60, 12);
    let (truth, _) = session(&db, false, None).query(RESCUE_SQL).unwrap();

    let mut tango = session(&db, true, None);
    let (rel, report) = tango.query(RESCUE_SQL).unwrap();
    assert!(rel.list_eq(&truth));
    let analyze = report.optimized.explain_analyze(&report.exec, true);
    assert!(!analyze.contains("MATSCAN^M"), "no staging when disabled:\n{analyze}");
    assert!(!analyze.contains("cardinality-replan"), "{analyze}");
}

/// The threshold is a strict boundary: a ratio just above the observed
/// divergence must not trigger, one just below must. The observed
/// divergence is read back from a triggering run's event detail, so the
/// test tracks the fixture instead of hard-coding an estimate.
#[test]
fn threshold_boundary_is_sharp() {
    let db = rescue_db(slow_wire(), 60, 12);
    let (truth, _) = session(&db, false, None).query(RESCUE_SQL).unwrap();

    // learn the divergence from an always-triggering run
    let (_, probe) = session(&db, true, Some(1.01)).query(RESCUE_SQL).unwrap();
    let events = replan_events(&probe.exec);
    assert!(!events.is_empty(), "probe run should trigger");
    let divergence = parse_divergence(&events[0]);
    assert!(divergence > 2.0, "fixture divergence suspiciously small: {divergence}");

    // just over the observed divergence: monitored, but never fires
    let (rel, report) = session(&db, true, Some(divergence + 0.2)).query(RESCUE_SQL).unwrap();
    assert!(rel.list_eq(&truth));
    assert!(
        replan_events(&report.exec).is_empty(),
        "ratio {} must not fire on divergence {divergence}",
        divergence + 0.2
    );

    // just under: fires exactly once
    let (rel, report) =
        session(&db, true, Some((divergence - 0.2).max(1.0))).query(RESCUE_SQL).unwrap();
    assert!(rel.list_eq(&truth));
    assert_eq!(
        replan_events(&report.exec).len(),
        1,
        "ratio {} must fire on divergence {divergence}",
        divergence - 0.2
    );
}

// ---------------------------------------------------------------------
// Interaction with wire faults
// ---------------------------------------------------------------------

/// A breaker that already fault-degraded mid-drain must not also
/// cardinality-replan over the same observation: no span ever carries
/// both a `replan` and a `cardinality-replan` event, the answer is
/// byte-identical, and no rows are lost.
#[test]
fn fault_degrade_suppresses_cardinality_replan() {
    let db = rescue_db(slow_wire(), 60, 12);
    let (truth, _) = session(&db, true, Some(8.0)).query(RESCUE_SQL).unwrap();

    let mut tango = session(&db, true, Some(8.0));
    tango.conn_mut().set_retry_policy(RetryPolicy { max_attempts: 3, ..RetryPolicy::default() });
    // warm the catalog so the scripted faults land on the staged
    // breaker's fragment submission, not on metadata fetches
    tango.optimize(RESCUE_SQL).unwrap();
    let rt = db.link().roundtrips();
    // exhaust the retry budget of the first submission: the staged
    // breaker fault-degrades (its span gets a `replan` event) before the
    // misestimate monitor looks at it
    db.link().set_injector(Arc::new(FaultPlan::scripted([
        (rt + 1, Fault::Transient("chaos".into())),
        (rt + 2, Fault::Disconnect),
        (rt + 3, Fault::Transient("chaos".into())),
    ])));
    let (rel, report) = tango.query(RESCUE_SQL).unwrap();
    db.link().clear_injector();

    assert!(
        rel.multiset_eq(&truth),
        "rows lost or invented under faults\ntruth:\n{truth}\ngot:\n{rel}"
    );
    assert!(rel.is_sorted_by(&SortSpec::by(["PosID", "T1"])), "ORDER BY lost:\n{rel}");
    for step in &report.exec.steps {
        let degraded = step.events.iter().any(|e| e.kind == "replan");
        let cardinality = step.events.iter().any(|e| monitor_fired(&e.kind));
        assert!(
            !(degraded && cardinality),
            "step {} double-replanned over one observation:\n{}",
            step.label,
            report.optimized.explain_analyze(&report.exec, true)
        );
    }
}

/// Transient faults that are absorbed by retries must not disturb the
/// adaptive path: the re-plan still happens and the answer still
/// matches, for several chaos schedules.
#[test]
fn retried_faults_leave_the_rescue_intact() {
    let db = rescue_db(slow_wire(), 60, 12);
    let (truth, _) = session(&db, false, None).query(RESCUE_SQL).unwrap();

    for lag in [1u64, 3, 7] {
        let mut tango = session(&db, true, Some(8.0));
        let rt = db.link().roundtrips();
        db.link().set_injector(Arc::new(FaultPlan::scripted([(
            rt + lag,
            Fault::Transient("chaos".into()),
        )])));
        let (rel, report) = tango.query(RESCUE_SQL).unwrap();
        db.link().clear_injector();
        assert!(rel.list_eq(&truth), "answer drifted under a transient fault at roundtrip +{lag}");
        assert!(
            replan_events(&report.exec).len() <= 1,
            "more than one cardinality re-plan under fault at +{lag}:\n{}",
            report.optimized.explain_analyze(&report.exec, true)
        );
    }
}
