//! Figure 11(b) — Query 4: "For each position, list the employee name
//! and address." A regular join of POSITION and EMPLOYEE.
//!
//! Three plans: middleware sort-merge join vs DBMS joins with forced
//! methods (the paper set Oracle hints; we pass the same hints to the
//! mini-DBMS). Expected shape (paper): the DBMS plans win — regular
//! operations belong in the DBMS — but the middleware plan stays
//! competitive, showing TANGO's low run-time overhead.
//!
//! Usage: `cargo run --release -p tango-bench --bin fig11b_query4 [--small]`

use std::time::Instant;
use tango_bench::plans::{placement_summary, q4_dbms_sql, q4_plan1, PlanBuilder};
use tango_bench::setup::load_position_variant;
use tango_bench::{
    load_uis, time_plan_report, time_query_report, uis_link_profile, JsonLog, Table,
};
use tango_uis::queries::q4_sql;
use tango_uis::{UisConfig, POSITION_VARIANTS};

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cfg = if small { UisConfig::small(0xEC1) } else { UisConfig::default() };
    let sizes: Vec<usize> = if small {
        vec![500, 2000]
    } else {
        let mut v = POSITION_VARIANTS.to_vec();
        v.push(cfg.position_rows);
        v
    };

    eprintln!(
        "loading UIS ({} POSITION rows, {} EMPLOYEE rows) + calibrating ...",
        cfg.position_rows, cfg.employee_rows
    );
    let mut setup = load_uis(&cfg, uis_link_profile(), true);
    // the paper's system had no middleware cache: every plan pays its own
    // transfers, and no placement reads what an earlier one left resident
    setup.tango.options_mut().cache_budget = None;

    let mut table = Table::new(
        "Figure 11(b) — Query 4 (regular join), time by POSITION size",
        "rows",
        &["plan1 (join in mid)", "plan2 (DBMS NL)", "plan3 (DBMS merge)", "optimizer"],
    );

    let mut ops = JsonLog::new();
    for &n in &sizes {
        let tname = format!("POS_{n}");
        load_position_variant(&mut setup, &tname, n);
        let b = PlanBuilder::new(&setup.conn);
        let mut cells = Vec::new();

        // Plan 1: middleware sort-merge join
        setup.db.link().reset();
        let (t, _, report) = time_plan_report(&mut setup.tango, &q4_plan1(&b, &tname));
        ops.push("plan1 (join in mid)", n, &report);
        cells.push(Some(t));

        // Plans 2/3: hinted DBMS SQL (wall + wire)
        for hint in ["/*+ USE_NL */", "/*+ USE_MERGE */"] {
            setup.db.link().reset();
            let w0 = setup.conn.link().total();
            let t0 = Instant::now();
            let r = setup.conn.query_all(&q4_dbms_sql(&tname, hint)).expect("hinted query failed");
            let wall = t0.elapsed();
            let wire = setup.conn.link().total().saturating_sub(w0);
            assert!(!r.is_empty());
            cells.push(Some(wall + wire));
        }

        // optimizer's choice via temporal SQL (no hints)
        setup.db.link().reset();
        let (t, _, _, report) = time_query_report(&mut setup.tango, &q4_sql(&tname));
        ops.push("optimizer", n, &report);
        cells.push(Some(t));
        let chosen = setup.tango.optimize(&q4_sql(&tname)).unwrap();
        eprintln!(
            "  n={n}: chosen [{}] classes={} elements={}",
            placement_summary(&chosen.plan),
            chosen.classes,
            chosen.elements
        );
        table.row(n, cells);
        let _ = setup.db.drop_table(&tname, true);
    }
    table.note("paper: DBMS plans best; middleware plan competitive (low TANGO overhead)");
    table.emit("fig11b_query4");
    ops.emit("fig11b_query4");
}
