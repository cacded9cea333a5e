//! Rewrite layer, end to end: the shipped rule packs must resolve by
//! name, fire on the spellings they exist to fix, surface
//! their firings in EXPLAIN ANALYZE / the optimizer trace, and — the
//! soundness contract — never change a query's result. The differential
//! sweep runs every query with and without every pack combination at
//! batch sizes 1 and 1024 and demands identical rows.

mod support;

use proptest::prelude::*;
use support::{
    create_posinfo, pack_sets, position_db, Row, ALL_PACKS, REWRITE_FIGURES, REWRITE_TARGETS,
};
use tango::algebra::{tup, Relation, Value};
use tango::minidb::{Database, LinkProfile};
use tango::Tango;

/// POSITION plus one `POSINFO` dossier row per distinct PosID, so the
/// join spellings have a second table.
fn make_db(rows: &[Row]) -> Database {
    let db = position_db(LinkProfile::instant(), rows);
    create_posinfo(&db);
    let mut ids: Vec<i64> = rows.iter().map(|r| r.0).collect();
    ids.sort_unstable();
    ids.dedup();
    db.insert_rows(
        "POSINFO",
        ids.into_iter().map(|p| tup![p, Value::Str(format!("info-{p}"))]).collect(),
    )
    .unwrap();
    db.analyze("POSINFO").unwrap();
    db
}

fn run(db: &Database, packs: &[&str], batch: usize, sql: &str) -> Relation {
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().rewrite_packs = packs.iter().map(|p| p.to_string()).collect();
    tango.options_mut().batch_rows = Some(batch);
    tango.query(sql).unwrap_or_else(|e| panic!("{e}\npacks: {packs:?}\nsql: {sql}")).0
}

fn dataset() -> Database {
    let rows: Vec<Row> = (0..48)
        .map(|i| {
            let t1 = ((i * 13) % 55) as i32;
            (1 + i % 5, 1 + (i * 7) % 11, ((i * 3) % 17) as f64, t1, t1 + 2 + (i % 9) as i32)
        })
        .collect();
    make_db(&rows)
}

// ---------------------------------------------------------------------
// Firing + observability
// ---------------------------------------------------------------------

/// Each checked-in pack fires on its target spelling, and the firing is
/// visible everywhere the issue promises: the report's rewrite outcome,
/// the optimizer trace, the EXPLAIN ANALYZE annotations, and the JSON
/// trace.
#[test]
fn packs_fire_and_surface_in_traces() {
    let db = dataset();
    for (pack, sql) in ALL_PACKS.iter().zip(REWRITE_TARGETS) {
        let mut tango = Tango::connect(db.clone());
        tango.options_mut().rewrite_packs = vec![pack.to_string()];
        let (text, report) = tango.explain_analyze(sql).unwrap();
        let fires = report.optimized.rewrites.total_fires();
        assert!(fires >= 1, "pack {pack} never fired on its target query");
        assert!(
            report.optimized.rewrites.fires.iter().all(|f| f.pack == *pack),
            "foreign pack name in fires for {pack}"
        );
        let trace = report.optimized.optimizer_trace();
        assert!(
            trace.contains(&format!("rewrite: {pack}/")),
            "optimizer trace misses {pack}:\n{trace}"
        );
        assert!(
            text.contains("rewrite_fires") && text.contains("events:") && text.contains("rewrite"),
            "EXPLAIN ANALYZE misses the rewrite annotations for {pack}:\n{text}"
        );
        let json = report.exec.to_json();
        assert!(json.contains("\"rewrite\""), "JSON trace misses rewrite events for {pack}");
    }
}

/// Without packs the stage is off: no fires, no annotations.
#[test]
fn no_packs_means_no_rewrite_annotations() {
    let db = dataset();
    let mut tango = Tango::connect(db.clone());
    let (text, report) = tango.explain_analyze(REWRITE_TARGETS[0]).unwrap();
    assert!(report.optimized.rewrites.is_empty());
    assert!(!text.contains("rewrite_fires"), "phantom rewrite annotation:\n{text}");
    assert!(!report.optimized.optimizer_trace().contains("rewrite:"));
}

/// An unknown pack name fails the query with an error that names the
/// paths tried, not a panic or a silent no-op.
#[test]
fn unknown_pack_is_a_useful_error() {
    let db = dataset();
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().rewrite_packs = vec!["no-such-pack".to_string()];
    let err = match tango.query(REWRITE_TARGETS[0]) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("query with unknown pack unexpectedly succeeded"),
    };
    assert!(
        err.contains("no-such-pack") && err.contains("tried"),
        "unhelpful unknown-pack error: {err}"
    );
}

// ---------------------------------------------------------------------
// Differential: rewritten ≡ unrewritten
// ---------------------------------------------------------------------

/// Fixed dataset: every query × every pack set × batch 1 and 1024 must
/// return exactly the rows of the pack-less run (byte-identical for the
/// fully-ordered target spellings, multiset-identical for the figure
/// family, whose ORDER BY keys do not pin a total order).
#[test]
fn differential_fixed_dataset() {
    let db = dataset();
    for batch in [1usize, 1024] {
        for sql in REWRITE_TARGETS {
            let baseline = run(&db, &[], batch, sql);
            for packs in pack_sets() {
                let got = run(&db, &packs, batch, sql);
                assert_eq!(
                    baseline.tuples(),
                    got.tuples(),
                    "rows differ: packs {packs:?}, batch {batch}\nsql: {sql}"
                );
            }
        }
        for sql in REWRITE_FIGURES {
            let baseline = run(&db, &[], batch, sql);
            for packs in pack_sets() {
                let got = run(&db, &packs, batch, sql);
                assert!(
                    baseline.multiset_eq(&got),
                    "rows differ: packs {packs:?}, batch {batch}\nsql: {sql}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
    /// Randomized differential: for arbitrary temporal data, rewriting
    /// with all three packs at once never changes any query's result,
    /// at batch 1 and at batch 1024.
    #[test]
    fn differential_random_data(
        rows in proptest::collection::vec(
            (1i64..6, 1i64..8, 0.0f64..20.0, 0i32..50, 1i32..30),
            1..32,
        ),
    ) {
        let fixed: Vec<Row> =
            rows.into_iter().map(|(p, e, pay, t1, d)| (p, e, pay, t1, t1 + d)).collect();
        let db = make_db(&fixed);
        let all: Vec<&str> = ALL_PACKS.to_vec();
        for batch in [1usize, 1024] {
            for sql in REWRITE_TARGETS {
                let baseline = run(&db, &[], batch, sql);
                let got = run(&db, &all, batch, sql);
                prop_assert_eq!(
                    baseline.tuples(),
                    got.tuples(),
                    "rows differ at batch {}\nsql: {}", batch, sql
                );
            }
            for sql in REWRITE_FIGURES {
                let baseline = run(&db, &[], batch, sql);
                let got = run(&db, &all, batch, sql);
                prop_assert!(
                    baseline.multiset_eq(&got),
                    "rows differ at batch {}\nsql: {}", batch, sql
                );
            }
        }
    }
}
