//! Figure 11(a) — Query 3: "For each position in POSITION starting
//! before <bound>, show all pairs of employees that occupied that
//! position during the same time. Sort by position."
//!
//! A temporal self-join. Expected shape (paper): plan 1 (all DBMS) wins
//! while the selection is tight; as the bound moves late enough that the
//! join result outgrows its arguments, plan 2 (middleware temporal join)
//! wins — the DBMS plan pays to sort and transfer the large result.
//! The optimizer's choice flips from plan 1 to plan 2 along the way; the
//! paper reports mis-choices in the middle range caused by the uniform
//! join-attribute assumption over the skewed PosID distribution.
//!
//! Usage: `cargo run --release -p tango-bench --bin fig11a_query3 [--small]`

use tango_algebra::date::day;
use tango_bench::plans::{placement_summary, q3_plans, PlanBuilder};
use tango_bench::{
    load_uis, time_plan_report, time_query_report, uis_link_profile, JsonLog, Table,
};
use tango_uis::queries::q3_sql;
use tango_uis::UisConfig;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cfg = if small { UisConfig::small(0xEC1) } else { UisConfig::default() };
    let years: Vec<i32> =
        if small { vec![1990, 2000] } else { (0..9).map(|i| 1984 + 2 * i).collect() };

    eprintln!("loading UIS ({} POSITION rows) + calibrating ...", cfg.position_rows);
    let mut setup = load_uis(&cfg, uis_link_profile(), true);
    // the paper's system had no middleware cache: every plan pays its own
    // transfers, and no placement reads what an earlier one left resident
    setup.tango.options_mut().cache_budget = None;

    let mut table = Table::new(
        "Figure 11(a) — Query 3 (temporal self-join), time by start bound",
        "T1 <",
        &["plan1 (all DBMS)", "plan2 (tjoinM)", "optimizer"],
    );

    let mut ops = JsonLog::new();
    for &y in &years {
        let bound = day(y, 1, 1);
        let b = PlanBuilder::new(&setup.conn);
        let mut cells = Vec::new();
        let mut result_rows = 0;
        for (name, plan) in q3_plans(&b, bound) {
            setup.db.link().reset();
            let (t, rows, report) = time_plan_report(&mut setup.tango, &plan);
            ops.push(name, y, &report);
            result_rows = rows;
            cells.push(Some(t));
        }
        setup.db.link().reset();
        let (t, _, _, report) = time_query_report(&mut setup.tango, &q3_sql(bound));
        ops.push("optimizer", y, &report);
        cells.push(Some(t));
        let chosen = setup.tango.optimize(&q3_sql(bound)).unwrap();
        let ests: Vec<String> = q3_plans(&b, bound)
            .iter()
            .map(|(n, p)| format!("{n}={:.2}s", setup.tango.estimate_physical(p).unwrap() / 1e6))
            .collect();
        eprintln!(
            "  bound={y}: result rows={result_rows} chosen [{}] est[{}] classes={} elements={}",
            placement_summary(&chosen.plan),
            ests.join(" "),
            chosen.classes,
            chosen.elements
        );
        table.row(y, cells);
    }
    table.note("paper: plan 2 overtakes plan 1 once the result outgrows the arguments");
    table.emit("fig11a_query3");
    ops.emit("fig11a_query3");
}
