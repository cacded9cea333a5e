//! Figure 8 — Query 1: "For each position in POSITION, get the number of
//! employees occupying that position at each point of time. Sort the
//! result by the position number."
//!
//! Three plans (Figure 7) over POSITION variants of increasing size.
//! Expected shape (paper): plans 1 and 2 are close and scale gently;
//! plan 3 (temporal aggregation *in the DBMS*) is up to ~10× slower.
//!
//! Usage: `cargo run --release -p tango-bench --bin fig8_query1 [--small]`

use tango_bench::plans::{placement_summary, q1_plans, PlanBuilder};
use tango_bench::setup::load_position_variant;
use tango_bench::{
    load_uis, time_plan_report, time_query_report, uis_link_profile, JsonLog, Table,
};
use tango_uis::queries::q1_sql;
use tango_uis::{UisConfig, POSITION_VARIANTS};

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cfg = if small { UisConfig::small(0xEC1) } else { UisConfig::default() };
    let sizes: Vec<usize> = if small {
        vec![500, 1000, 2000]
    } else {
        let mut v = POSITION_VARIANTS.to_vec();
        v.push(cfg.position_rows);
        v
    };

    eprintln!("loading UIS ({} POSITION rows) + calibrating ...", cfg.position_rows);
    let mut setup = load_uis(&cfg, uis_link_profile(), true);
    // the paper's system had no middleware cache: every plan pays its own
    // transfers, and no placement reads what an earlier one left resident
    setup.tango.options_mut().cache_budget = None;

    let mut table = Table::new(
        "Figure 8 — Query 1 (temporal aggregation), time by POSITION size",
        "rows",
        &["plan1 (sortD+taggrM)", "plan2 (sortM+taggrM)", "plan3 (all DBMS)", "optimizer"],
    );

    let mut ops = JsonLog::new();
    for &n in &sizes {
        let tname = format!("POS_{n}");
        load_position_variant(&mut setup, &tname, n);
        let b = PlanBuilder::new(&setup.conn);
        let mut cells = Vec::new();
        let mut rows_seen = None;
        for (name, plan) in q1_plans(&b, &tname) {
            setup.db.link().reset();
            let (t, rows, report) = time_plan_report(&mut setup.tango, &plan);
            ops.push(name, n, &report);
            if let Some(r) = rows_seen {
                assert_eq!(r, rows, "plans disagree on the result size");
            }
            rows_seen = Some(rows);
            cells.push(Some(t));
        }
        // the optimizer's own choice, end to end
        setup.db.link().reset();
        let (t, _, explain, report) = time_query_report(&mut setup.tango, &q1_sql(&tname));
        ops.push("optimizer", n, &report);
        cells.push(Some(t));
        let chosen = setup.tango.optimize(&q1_sql(&tname)).unwrap();
        table.row(n, cells);
        eprintln!(
            "  n={n}: chosen [{}] est {:.0}ms classes={} elements={}",
            placement_summary(&chosen.plan),
            chosen.est_cost_us / 1000.0,
            chosen.classes,
            chosen.elements
        );
        let _ = explain;
        let _ = setup.db.drop_table(&tname, true);
    }
    table.note("paper: plans 1-2 close; plan 3 up to ~10x slower (Fig. 8)");
    table.emit("fig8_query1");
    ops.emit("fig8_query1");
}
