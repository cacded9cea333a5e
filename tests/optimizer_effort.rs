//! The Volcano search costs what the memo holds, not what the paths
//! through it number.
//!
//! `T^M`/`T^D` make the `(class, required)` graph cyclic; a search that
//! refuses to memoize anything computed under a cycle prune re-derives
//! every pair once per path and is exponential in the memo (Query 2 used
//! to take 523,294 optimize calls for 28 classes). The counters below
//! repeat exactly from run to run, so they gate; optimization *time* is
//! deliberately not asserted anywhere.

mod support;

use support::{serving_pool, uis_db, ALL_PACKS};
use tango::algebra::date::day;
use tango::core::OptimizedQuery;
use tango::uis::queries::{q1_sql, q2_sql, q3_sql, q4_sql};
use tango::Tango;

/// The UIS tables at smoke-test scale; a session with default cost
/// factors (a fresh calibration moves plans — and counts — from run to
/// run) and all three rewrite packs, as the serving workloads run.
fn uis_session() -> Tango {
    let mut tango = Tango::connect(uis_db());
    tango.options_mut().rewrite_packs = ALL_PACKS.map(String::from).to_vec();
    tango
}

fn q2() -> String {
    q2_sql(day(1983, 1, 1), day(1996, 1, 1))
}

/// The four figure statements, Query 3 at its 1996 bound.
fn figure_queries() -> [(&'static str, String); 4] {
    [
        ("Query 1", q1_sql("POSITION")),
        ("Query 2", q2()),
        ("Query 3", q3_sql(day(1996, 1, 1))),
        ("Query 4", q4_sql("POSITION")),
    ]
}

fn assert_linear(name: &str, q: &OptimizedQuery) {
    let at =
        format!("{name}: {} classes, {} elements; {}", q.classes, q.elements, q.search_summary());
    assert!(q.search.cache_hits > 0, "nothing was memoized — {at}");
    assert!(q.search_effort_bounded(), "search effort is not proportional to the memo — {at}");
}

#[test]
fn figure_queries_search_in_proportion_to_the_memo() {
    let mut tango = uis_session();
    for (name, sql) in figure_queries() {
        assert_linear(name, &tango.optimize(&sql).unwrap());
    }
}

#[test]
fn serving_statements_search_in_proportion_to_the_memo() {
    let mut tango = uis_session();
    for (i, sql) in serving_pool().iter().enumerate() {
        assert_linear(&format!("pool statement {i}"), &tango.optimize(sql).unwrap());
    }
}

/// The counts are a property of the memo and the cost model, not of the
/// run: optimizing the same statement twice — the second time with its
/// fragments resident in the cache — searches exactly as much.
#[test]
fn search_counts_repeat_exactly() {
    let mut tango = uis_session();
    let counts = |q: &OptimizedQuery| {
        let s = &q.search;
        (
            q.classes,
            q.elements,
            s.optimize_calls,
            s.implementations_considered,
            s.enforcers_considered,
            s.cache_hits,
            s.cycles_pruned,
        )
    };
    let cold = counts(&tango.optimize(&q2()).unwrap());
    tango.query(&q2()).unwrap();
    assert_eq!(cold, counts(&tango.optimize(&q2()).unwrap()));
    assert_eq!(cold, counts(&uis_session().optimize(&q2()).unwrap()));
}

/// Every plan has one price. The per-node `est cost` figures EXPLAIN
/// renders come from the fold that calls the search's own property
/// derivation and cost closure (`TangoSem::price`), so they sum to the
/// cost the search found, and `Tango::estimate_physical` of the returned
/// plan is that figure again — cold and with the statement's fragments
/// resident, under the joint and the naive `Overlaps` estimator, with
/// and without the approximate rules.
///
/// The residuals are documented, not hidden: the memo prices a class by
/// the *first* expression inserted into it, the fold prices the operators
/// the winning plan actually runs. The two agree unless a rule put an
/// equivalent expression into the class that derives differently:
///
/// * its **statistics** — Query 2 runs window copies the pushdown rules
///   made. A selection bounds its output by its conjuncts, so a copy
///   keeps every row of its input, but a window below an operator does
///   not derive what the same window above it does. Two classes differ:
///   the root (the window over the temporal join) is priced from the
///   window over the unwindowed join, while `TJoinWindowPush`'s element
///   that runs joins windowed inputs (1,264 rows without the approximate
///   rules); with `approx_rules`, the windowed aggregate is priced from
///   the window over the whole aggregate (1,379 rows), while
///   `TAggrWindowPush`'s element that runs aggregates windowed input (573
///   rows). Query 2 folds to 1.01–1.03× its price without the
///   approximate rules and 0.80–0.93× with them, so it is asserted
///   within `QUERY_2_RESIDUAL` of its price in every mode, and without
///   the approximate rules never below it (the element that runs derives
///   more rows than the one the class was priced by).
/// * its **signature** — the pushdown / pruning rules rewrite the DBMS
///   fragment of Query 3, Query 4 and pool statement 6; the engine caches
///   the fragment under the signature of what ran, the class still
///   carries the signature of what was parsed, so once the fragment is
///   resident the fold prices its `TRANSFER^M` at the cached rate and
///   the search (blind to that entry) at the wire rate. Cold they agree;
///   warm the fold is asserted strictly cheaper, so the list below stays
///   exact.
#[test]
fn node_estimates_sum_to_the_plan_cost() {
    /// How far Query 2's fold may stray from its price, as a share of it.
    const QUERY_2_RESIDUAL: f64 = 0.25;
    const SEARCH_BLIND_WHEN_WARM: [&str; 3] = ["Query 3", "Query 4", "pool statement 6"];
    let figures = figure_queries();
    let pool = serving_pool();
    let pool = pool.iter().enumerate().map(|(i, sql)| (format!("pool statement {i}"), sql.clone()));
    let statements: Vec<(String, String)> =
        figures.iter().map(|(n, s)| (n.to_string(), s.clone())).chain(pool).collect();

    for (naive, approx) in [(false, true), (true, true), (false, false), (true, false)] {
        let mut tango = uis_session();
        tango.options_mut().opt.naive_overlaps = naive;
        tango.options_mut().opt.approx_rules = approx;
        for (name, sql) in &statements {
            for warm in [false, true] {
                let q = tango.optimize(sql).unwrap();
                let at = format!("{name} (warm {warm}, naive_overlaps {naive}, approx {approx})");
                let folded: f64 = q.node_estimates().iter().map(|e| e.est_cost_us).sum();
                let priced = q.est_cost_us;
                if name == "Query 2" {
                    assert!(
                        (folded / priced - 1.0).abs() <= QUERY_2_RESIDUAL,
                        "{at}: node estimates sum to {folded}, the search priced {priced}\n{}",
                        q.explain_plan()
                    );
                    assert!(
                        approx || folded >= priced,
                        "{at}: node estimates sum to {folded}, below the search's {priced}\n{}",
                        q.explain_plan()
                    );
                } else if warm && SEARCH_BLIND_WHEN_WARM.contains(&name.as_str()) {
                    assert!(folded < priced, "{at}: {folded} vs {priced}\n{}", q.explain_plan());
                } else {
                    assert!(
                        (folded - priced).abs() <= 1e-9 * priced,
                        "{at}: node estimates sum to {folded}, the search priced {priced}\n{}",
                        q.explain_plan()
                    );
                }
                let again = tango.estimate_physical(&q.plan).unwrap();
                assert_eq!(again, folded, "{at}: estimate_physical is the same fold");
                // leave the statement's fragments resident for the warm pass
                tango.query(sql).unwrap();
            }
        }
    }
}
