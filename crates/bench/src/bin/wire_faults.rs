//! Chaos overhead study — how much does a faulty wire cost?
//!
//! Sweeps the per-round-trip transient-fault probability over the four
//! benchmark queries, with the connection's default retry policy
//! absorbing the faults. For every probability the result multiset is
//! checked against the fault-free baseline (the resilience contract:
//! survivable chaos never changes bytes), and the report shows the price
//! paid for it — injected faults, retries, re-plans, and the total
//! query time inflated by backoff and repeated transfers.
//!
//! Usage: `cargo run --release -p tango-bench --bin wire_faults [seed]`

use std::sync::Arc;
use std::time::Duration;
use tango_algebra::date::day;
use tango_algebra::Relation;
use tango_bench::setup::{load_uis, uis_link_profile};
use tango_minidb::FaultPlan;
use tango_uis::queries::{q1_sql, q2_sql, q3_sql, q4_sql};
use tango_uis::UisConfig;

fn main() {
    let seed: u64 =
        std::env::args().nth(1).map(|s| s.parse().expect("seed must be a u64")).unwrap_or(0xC0FFEE);
    let cfg = UisConfig::small(0xEC1);

    eprintln!("loading UIS ({} POSITION rows) + calibrating ...", cfg.position_rows);
    let mut setup = load_uis(&cfg, uis_link_profile(), true);

    let queries: Vec<(&str, String)> = vec![
        ("Q1 (taggr)", q1_sql("POSITION")),
        ("Q2 (taggr+tjoin)", q2_sql(day(1983, 1, 1), day(1994, 1, 1))),
        ("Q3 (self tjoin)", q3_sql(day(1990, 1, 1))),
        ("Q4 (regular join)", q4_sql("POSITION")),
    ];

    // fault-free baselines
    let mut baselines: Vec<Relation> = Vec::new();
    for (_, sql) in &queries {
        baselines.push(setup.tango.query(sql).unwrap().0);
    }

    println!("chaos sweep (seed {seed:#x}, error budget 3 per run)");
    println!(
        "{:>18} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "query", "p", "faults", "retries", "replans", "time", "overhead"
    );
    for &p in &[0.0f64, 0.02, 0.05, 0.1, 0.2] {
        for ((name, sql), baseline) in queries.iter().zip(&baselines) {
            let plan = Arc::new(
                FaultPlan::random(seed, p)
                    .with_budget(3)
                    .with_spikes(p / 2.0, Duration::from_millis(2)),
            );
            setup.db.link().set_injector(plan.clone());
            let before_retries = setup.tango.conn().wire_retries();
            let (rel, report) =
                setup.tango.query(sql).unwrap_or_else(|e| panic!("{name} failed under p={p}: {e}"));
            setup.db.link().clear_injector();
            assert!(
                rel.multiset_eq(baseline),
                "{name}: chaos at p={p} changed the result — resilience contract broken"
            );

            let replans: u64 = report
                .exec
                .steps
                .iter()
                .flat_map(|s| s.counters.iter())
                .filter(|(k, _)| *k == "replans")
                .map(|(_, v)| *v)
                .sum();
            let faultfree = {
                // re-run clean for the overhead column (virtual clock ⇒
                // deterministic)
                let (_, clean) = setup.tango.query(sql).unwrap();
                clean.total()
            };
            let t = report.total();
            let overhead = t.saturating_sub(faultfree);
            println!(
                "{name:>18} {p:>8.2} {:>8} {:>8} {replans:>8} {:>9.1}ms {:>9.1}ms",
                plan.faults_injected(),
                setup.tango.conn().wire_retries() - before_retries,
                t.as_secs_f64() * 1e3,
                overhead.as_secs_f64() * 1e3,
            );
        }
    }
    println!(
        "\nEvery row above returned the exact baseline multiset: the retry loop \
         (and, past the budget, the middleware re-plan) absorbs survivable chaos; \
         the overhead column is what that insurance costs."
    );
}
