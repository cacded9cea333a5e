//! # tango-bench
//!
//! The experiment harness for the performance study of Section 5 of the
//! paper, and the ablations beyond it:
//!
//! | binary | what it measures |
//! |---|---|
//! | `figures` | Figures 8, 10, 11a and 11b: every placement and the optimizer's choice per query × x-axis × link × batch, the optimizer's regret, the paper's fixed-plan shapes gated by `--check` (`docs/figures.json`, see [`sweep`]) |
//! | `sec33_selectivity` | Section 3.3 worked example — naive vs proposed estimator |
//! | `optimizer_stats` | Section 5.2 — classes/elements, search effort and chosen plan per query |
//! | `wire_faults` | Chaos overhead — fault-probability sweep, retries/re-plans vs. cost |
//! | `batch_ablation` | Batch-at-a-time vs row-at-a-time wall time (`BENCH_batch.json`) |
//! | `cache_ablation` | Query 2 cold vs warm through the relation cache (`BENCH_cache.json`) |
//! | `concurrency_bench` | Shared vs per-session cache under N threads × M clients (`BENCH_concurrency.json`) |
//! | `adaptive_bench` | Pinned vs re-planned execution of a misestimated window (`BENCH_adaptive.json`) |
//! | `rewrite_bench` | Each rewrite pack on and off over the query it exists to fix (`BENCH_rewrite.json`) |
//!
//! Reported times are wall-clock plus the simulated wire time (the
//! virtual JDBC link), matching how the paper's numbers include both
//! computation and transfer.

pub mod plans;
pub mod report;
pub mod setup;
pub mod sweep;

pub use report::Table;
pub use setup::{load_uis, uis_link_profile, Setup};

use std::time::Duration;
use tango_core::engine::ExecReport;
use tango_core::phys::PhysNode;
use tango_core::Tango;

/// Execute a fixed physical plan, returning (total time, result rows,
/// per-operator report). Total time = compute wall time + virtual wire
/// time, like the paper's measurements.
pub fn time_plan_report(tango: &mut Tango, plan: &PhysNode) -> (Duration, usize, ExecReport) {
    match tango.execute_physical(plan) {
        Ok((rel, report)) => (report.total(), rel.len(), report),
        Err(e) => panic!("plan failed: {e}\n{}", plan.render()),
    }
}

/// Optimize + execute a temporal-SQL query, returning (total time, result
/// rows, EXPLAIN text, execution report); the total includes
/// optimization time, as in the paper.
pub fn time_query_report(tango: &mut Tango, sql: &str) -> (Duration, usize, String, ExecReport) {
    match tango.query(sql) {
        Ok((rel, report)) => {
            let t = report.total();
            (t, rel.len(), report.optimized.explain(), report.exec)
        }
        Err(e) => panic!("query failed: {e}\nsql: {sql}"),
    }
}
