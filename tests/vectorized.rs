//! Differential suite for batch-at-a-time execution: every batch size
//! must agree **byte for byte** with the row-at-a-time degenerate case
//! (`batch_rows = 1`, one-row pulls) — for every XXL operator on
//! randomized inputs, and for the external-sort plan end to end. Whole
//! statements at every batch size, on a clean or a faulty wire, are
//! `tests/oracle.rs`'s; a `TRANSFER^M`'s round trips per batch are
//! pinned here.
//!
//! The batch size is per operator (`with_batch_rows`) and per session
//! (`TangoOptions::batch_rows`), so the tests here share no state.

mod support;

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use support::{chaos_profile, seed_db};
use tango::algebra::{
    tup, AggFunc, AggSpec, Attr, Expr, ProjItem, Relation, Schema, SortSpec, Type,
    DEFAULT_BATCH_ROWS,
};
use tango::core::cost::CostFactors;
use tango::core::phys::{Algo, PhysNode};
use tango::core::to_sql;
use tango::uis::queries::q1_sql;
use tango::xxl::{
    drain_of, BoxCursor, Coalesce, DupElim, ExternalSort, Filter, MergeJoin, Project, Sort,
    TemporalAggregate, TemporalDiff, TemporalMergeJoin, VecScan,
};
use tango::Tango;

/// Batch sizes every differential sweeps: the row-at-a-time degenerate
/// case, sizes that straddle group/prefetch boundaries, and the default.
const SIZES: [usize; 5] = [1, 2, 3, 7, DEFAULT_BATCH_ROWS];

/// Run a cursor to completion, pulling `rows` tuples at a time.
fn collect_of(mut c: BoxCursor, rows: usize) -> Relation {
    c.open().unwrap();
    let schema = c.schema().clone();
    let tuples = drain_of(c.as_mut(), rows).unwrap();
    c.close().unwrap();
    Relation::new(schema, tuples)
}

/// The same cursor constructor at every size of [`SIZES`] — built with
/// that `batch_rows` (its internal pulls) and drained with pulls of the
/// same size — against the batch-1 baseline.
fn assert_differential(label: &str, make: &dyn Fn(usize) -> BoxCursor) {
    let at = |batch_rows: usize| collect_of(make(batch_rows), batch_rows);
    let row = at(1);
    for bs in SIZES {
        let batched = at(bs);
        assert!(
            batched.list_eq(&row),
            "{label}: batch size {bs} differs from row-at-a-time\nrow:\n{row}\nbatch:\n{batched}"
        );
        assert_eq!(
            batched.schema().names().collect::<Vec<_>>(),
            row.schema().names().collect::<Vec<_>>(),
            "{label}: schema drifted at batch size {bs}"
        );
    }
}

type Row = (i64, i64, i32, i32); // (PosID, EmpID, T1, duration)

/// Temporal POSITION-shaped relation from raw proptest rows.
fn temporal_rel(raw: &[Row]) -> Relation {
    let schema = Arc::new(Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("EmpID", Type::Int),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ]));
    let rows = raw.iter().map(|&(p, e, a, d)| tup![p, e, a, a + d]).collect();
    Relation::new(schema, rows)
}

fn scan(rel: &Relation) -> BoxCursor {
    Box::new(VecScan::new(rel.clone()))
}

fn sorted_by(rel: &Relation, cols: &[&str]) -> Relation {
    let mut r = rel.clone();
    r.sort_by(&SortSpec::by(cols.iter().map(|c| c.to_string())));
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every bulk operator: filter, project, sorts, dedup.
    #[test]
    fn bulk_operators_agree(
        raw in proptest::collection::vec((0i64..5, 0i64..4, 0i32..30, 1i32..10), 0..40),
    ) {
        let rel = temporal_rel(&raw);
        assert_differential("FILTER^M", &|_| {
            Box::new(Filter::new(scan(&rel), Expr::eq(Expr::col("PosID"), Expr::lit(1))))
        });
        assert_differential("PROJECT^M", &|_| {
            Box::new(
                Project::new(
                    scan(&rel),
                    vec![ProjItem::col("EmpID"), ProjItem::named(Expr::col("PosID"), "P")],
                )
                .unwrap(),
            )
        });
        assert_differential("SORT^M", &|o| {
            Box::new(Sort::with_batch_rows(scan(&rel), SortSpec::by(["PosID", "T1"]), o))
        });
        for run in [2usize, 7] {
            assert_differential("XSORT^M", &|o| {
                Box::new(ExternalSort::with_batch_rows(scan(&rel), SortSpec::by(["PosID", "T1"]), run, o))
            });
        }
        assert_differential("DUPELIM^M", &|_| Box::new(DupElim::new(scan(&rel))));
    }

    /// The row-logic operators, which read their inputs through the
    /// `BatchBuffered` adapter (joins, coalescing, temporal difference),
    /// and the aggregation sweep.
    #[test]
    fn merging_operators_agree(
        left in proptest::collection::vec((0i64..4, 0i64..4, 0i32..25, 1i32..10), 0..30),
        right in proptest::collection::vec((0i64..4, 0i64..4, 0i32..25, 1i32..10), 0..30),
    ) {
        let l = sorted_by(&temporal_rel(&left), &["PosID", "T1"]);
        let r = sorted_by(&temporal_rel(&right), &["PosID", "T1"]);
        let eq = [("PosID".to_string(), "PosID".to_string())];
        assert_differential("MERGEJOIN^M", &|o| {
            Box::new(MergeJoin::with_batch_rows(scan(&l), scan(&r), &eq, o).unwrap())
        });
        assert_differential("TMERGEJOIN^M", &|o| {
            Box::new(TemporalMergeJoin::with_batch_rows(scan(&l), scan(&r), &eq, o).unwrap())
        });
        assert_differential("TAGGR^M", &|o| {
            Box::new(
                TemporalAggregate::with_batch_rows(
                    scan(&l),
                    vec!["PosID".into()],
                    vec![AggSpec::new(AggFunc::Count, Some("PosID"), "Cnt")],
                    o,
                )
                .unwrap(),
            )
        });
        // coalescing and difference need value order: all value
        // attributes then T1
        let lv = sorted_by(&l, &["PosID", "EmpID", "T1"]);
        let rv = sorted_by(&r, &["PosID", "EmpID", "T1"]);
        assert_differential("COALESCE^M", &|o| {
            Box::new(Coalesce::with_batch_rows(scan(&lv), o).unwrap())
        });
        assert_differential("TDIFF^M", &|o| {
            Box::new(TemporalDiff::with_batch_rows(scan(&lv), scan(&rv), o).unwrap())
        });
    }
}

// ---------------------------------------------------------------- engine

/// A `TRANSFER^M` makes one round trip per batch, the link's prefetch
/// as the floor. Over a cold, uncached Query-1 transfer at every batch
/// size: 1 + ⌈rows / max(bs, prefetch)⌉ round trips, wire that never
/// grows with the batch, batch 1 charged exactly what fetching in
/// prefetch windows charges, ⌈rows / bs⌉ batches handed on (no
/// half-batches), and the same answer.
#[test]
fn transfer_makes_one_round_trip_per_batch() {
    fn transfer_arg(n: &PhysNode) -> Option<&PhysNode> {
        match n.algo {
            Algo::TransferM => Some(&n.children[0]),
            _ => n.children.iter().find_map(transfer_arg),
        }
    }
    let db = seed_db();
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().cache_budget = None;
    // aggregate in the middleware, so the transfer ships all of POSITION
    tango.set_factors(CostFactors { p_taggd1: 1e9, ..*tango.factors() });
    let optimized = tango.optimize(&q1_sql("POSITION")).unwrap();
    assert!(optimized.plan.any(&|a| matches!(a, Algo::TAggrM { .. })), "{}", optimized.explain());
    let prefetch = chaos_profile().row_prefetch;

    // the parent's charge: the same SQL drained in prefetch windows
    let sql = to_sql::render_select(transfer_arg(&optimized.plan).unwrap()).unwrap();
    let before = tango.conn().wire_time();
    let mut cur = tango.conn().query(&sql).unwrap();
    while cur.fetch().unwrap().is_some() {}
    let windowed = tango.conn().wire_time() - before;

    let (mut row, mut prev) = (None::<Relation>, Duration::MAX);
    for bs in [1usize, 3, 8, 50, DEFAULT_BATCH_ROWS] {
        tango.options_mut().batch_rows = Some(bs);
        let (rt, before) = (db.link().roundtrips(), tango.conn().wire_time());
        let (rel, exec) = tango.execute_physical(&optimized.plan).unwrap();
        let trips = db.link().roundtrips() - rt;
        let wire = tango.conn().wire_time() - before;
        let step = exec.steps.iter().find(|s| s.algo == Algo::TransferM).unwrap();
        let rows = step.out_rows as usize;
        assert_eq!(rows, 120, "the transfer ships all of POSITION");
        assert_eq!(trips, 1 + rows.div_ceil(bs.max(prefetch)) as u64, "batch {bs}");
        let batches = step.counters.iter().find(|(k, _)| *k == "batches").map(|c| c.1);
        assert_eq!(batches, Some(rows.div_ceil(bs) as u64), "batch {bs}");
        if bs == 1 {
            assert_eq!(wire, windowed, "batch 1 must charge the prefetch windows");
        }
        assert!(wire <= prev, "batch {bs}: wire {wire:?} grew from {prev:?}");
        prev = wire;
        match &row {
            Some(row) => assert!(rel.list_eq(row), "batch {bs} changed the answer"),
            None => row = Some(rel),
        }
    }
}

/// The external-sort plan (middleware sort-memory budget) under the
/// batch pull path: byte-identical at every batch size.
#[test]
fn external_sort_plan_agrees_row_vs_batch() {
    let db = seed_db();
    let mut tango = Tango::connect(db);
    let mut f = *tango.factors();
    f.p_sd = 1e6; // force the ordering into the middleware
    tango.set_factors(f);
    tango.options_mut().opt.mid_sort_budget = Some(64);
    let optimized = tango.optimize(&q1_sql("POSITION")).unwrap();
    assert!(optimized.explain().contains("XSORT^M"), "{}", optimized.explain());
    tango.options_mut().batch_rows = Some(1);
    let (row, _) = tango.execute_physical(&optimized.plan).unwrap();
    for bs in [3usize, 8, DEFAULT_BATCH_ROWS] {
        tango.options_mut().batch_rows = Some(bs);
        let (batch, _) = tango.execute_physical(&optimized.plan).unwrap();
        assert!(batch.list_eq(&row), "batch size {bs}\nrow:\n{row}\nbatch:\n{batch}");
    }
}
