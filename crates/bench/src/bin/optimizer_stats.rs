//! Section 5.2 optimizer metrics: for each of the four queries, the
//! number of equivalence classes and class elements generated, the rules
//! fired, the search effort, the optimization time, and the chosen plan.
//!
//! The paper reports (on its rule formulation): Q1 12 classes / 29
//! elements, Q2 142/452, Q3 104/301, Q4 13/30. Our memo is smaller by
//! construction — transfers and sorts are physical-property enforcers
//! rather than memoized operators — so the comparable signal is the
//! *relative* growth from Q1/Q4 (trivial) to Q2/Q3 (pushdown-heavy), and
//! the per-query plan choice.
//!
//! `--no-pushdown` ablates rule groups 3/4 (the paper's "reducing
//! arguments to expensive operations"), showing their effect on the
//! search space and the plan.
//!
//! `--check` gates the search *effort* (never its time): exit 1 if a
//! query's search answered nothing from the memoization table or costed
//! more algorithms per class element / made more optimize calls per
//! class than `OptimizedQuery::search_effort_bounded` allows. It plans
//! under the default cost factors instead of calibrating, because a
//! fresh calibration flips Query 4 between `join=M` and `join=D` from
//! run to run and the counts with it.
//!
//! Usage: `cargo run --release -p tango-bench --bin optimizer_stats [--no-pushdown] [--small] [--check]`

use tango_algebra::date::day;
use tango_bench::plans::placement_summary;
use tango_bench::{load_uis, uis_link_profile};
use tango_uis::queries::{q1_sql, q2_sql, q3_sql, q4_sql};
use tango_uis::UisConfig;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let no_pushdown = std::env::args().any(|a| a == "--no-pushdown");
    let check = std::env::args().any(|a| a == "--check");
    let cfg = if small { UisConfig::small(0xEC1) } else { UisConfig::default() };
    eprintln!("loading UIS ({} POSITION rows) ...", cfg.position_rows);
    let mut setup = load_uis(&cfg, uis_link_profile(), !check);
    setup.tango.options_mut().opt.pushdown_rules = !no_pushdown;

    let queries: Vec<(&str, String)> = vec![
        ("Query 1 (taggr)", q1_sql("POSITION")),
        ("Query 2 (taggr+tjoin)", q2_sql(day(1983, 1, 1), day(1996, 1, 1))),
        ("Query 3 (self tjoin)", q3_sql(day(1996, 1, 1))),
        ("Query 4 (regular join)", q4_sql("POSITION")),
    ];

    println!(
        "== Optimizer metrics (Section 5.2){} ==",
        if no_pushdown { " — pushdown rules DISABLED" } else { "" }
    );
    println!(
        "{:24} {:>8} {:>9} {:>10} {:>10}  placement",
        "query", "classes", "elements", "opt. time", "est. cost"
    );
    let mut unbounded = Vec::new();
    for (name, sql) in queries {
        let q = setup.tango.optimize(&sql).expect("optimize failed");
        if q.search.cache_hits == 0 || !q.search_effort_bounded() {
            unbounded.push(name);
        }
        println!(
            "{:24} {:>8} {:>9} {:>8.1}ms {:>8.0}ms  {}",
            name,
            q.classes,
            q.elements,
            q.optimize_time.as_secs_f64() * 1e3,
            q.est_cost_us / 1e3,
            placement_summary(&q.plan),
        );
        let mut fires = q.rule_fires.clone();
        fires.sort();
        let fired: Vec<String> = fires.iter().map(|(n, c)| format!("{n}×{c}")).collect();
        if !fired.is_empty() {
            println!("{:24}   rules: {}", "", fired.join(", "));
        }
        println!("{:24}   search: {}", "", q.search_summary());
        println!("{:24}   plan:\n{}", "", indent(&q.explain(), 8));
    }
    println!(
        "paper (its rule formulation): Q1 12/29, Q2 142/452, Q3 104/301, Q4 13/30 classes/elements"
    );
    if check {
        if !unbounded.is_empty() {
            eprintln!("CHECK FAILED: search effort out of proportion to the memo: {unbounded:?}");
            std::process::exit(1);
        }
        println!("check passed: every search hit its table and stayed within the effort bound");
    }
}

fn indent(s: &str, n: usize) -> String {
    s.lines().map(|l| format!("{}{l}", " ".repeat(n))).collect::<Vec<_>>().join("\n")
}
