//! Figure 10 — Query 2: "Produce a time-varying relation that provides,
//! for each POSITION tuple with pay rate greater than $10, the count of
//! employees that were assigned to the position. Consider the time
//! period between January 1, 1983 and <end>, and sort by position."
//!
//! Six plans; the selection window end is relaxed year by year. Expected
//! shape (paper): all plans similar while the window catches little data
//! (until ~1990, Fig 10a); afterwards plans 4/5 deteriorate (whole-
//! relation transfers), plan 6 deteriorates (DBMS temporal aggregation),
//! plan 1 falls behind plans 2/3 (its `TRANSFER^D` grows), and plan 2
//! wins. Also reproduces the plan-choice comparison with and without
//! histograms on the time attributes.
//!
//! Usage: `cargo run --release -p tango-bench --bin fig10_query2 [--small]`

use tango_algebra::date::day;
use tango_bench::plans::{placement_summary, q2_plans, PlanBuilder};
use tango_bench::{
    load_uis, time_plan_report, time_query_report, uis_link_profile, JsonLog, Table,
};
use tango_uis::queries::q2_sql;
use tango_uis::UisConfig;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cfg = if small { UisConfig::small(0xEC1) } else { UisConfig::default() };
    let years: Vec<i32> =
        if small { vec![1986, 1994, 2000] } else { (0..9).map(|i| 1984 + 2 * i).collect() };
    let start = day(1983, 1, 1);

    eprintln!("loading UIS ({} POSITION rows) + calibrating ...", cfg.position_rows);
    let mut setup = load_uis(&cfg, uis_link_profile(), true);
    // the paper's system had no middleware cache: every plan pays its own
    // transfers, and no placement reads what an earlier one left resident
    setup.tango.options_mut().cache_budget = None;

    let names = [
        "plan1 (taggrM)",
        "plan2 (taggrM+tjoinM)",
        "plan3 (+sortM)",
        "plan4 (+filterM)",
        "plan5 (no arg filter)",
        "plan6 (all DBMS)",
        "optimizer",
    ];
    let mut table =
        Table::new("Figure 10 — Query 2, time by selection window end", "window end", &names);

    let mut choice_rows: Vec<(i32, String, String)> = Vec::new();
    let mut ops = JsonLog::new();
    for &y in &years {
        let end = day(y, 1, 1);
        let b = PlanBuilder::new(&setup.conn);
        let mut cells = Vec::new();
        for (name, plan) in q2_plans(&b, start, end) {
            setup.db.link().reset();
            let (t, _rows, report) = time_plan_report(&mut setup.tango, &plan);
            ops.push(name, y, &report);
            cells.push(Some(t));
        }
        setup.db.link().reset();
        let (t, _, _, report) = time_query_report(&mut setup.tango, &q2_sql(start, end));
        ops.push("optimizer", y, &report);
        cells.push(Some(t));
        table.row(y, cells);

        // plan choice with and without histograms (Section 5.2: without
        // histograms the optimizer mis-chose plan 1 for mid-size windows)
        setup.tango.options_mut().use_histograms = true;
        let with_h = setup.tango.optimize(&q2_sql(start, end)).unwrap();
        setup.tango.options_mut().use_histograms = false;
        let without_h = setup.tango.optimize(&q2_sql(start, end)).unwrap();
        setup.tango.options_mut().use_histograms = true;
        choice_rows.push((y, placement_summary(&with_h.plan), placement_summary(&without_h.plan)));
    }
    table.note("paper: flat until ~1990; then plans 4/5 and 6 blow up, plan 2 wins (Fig. 10b)");
    table.emit("fig10_query2");
    ops.emit("fig10_query2");

    println!("\n== Query 2 plan choice: with vs without histograms ==");
    println!("{:>6}  {:40}  {:40}", "end", "with histograms", "without histograms");
    for (y, w, wo) in &choice_rows {
        println!("{y:>6}  {w:40}  {wo:40}");
    }
}
