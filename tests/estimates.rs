//! The optimizer's cardinality estimates against what ran: the figure
//! queries' transfers are estimated within a small factor of the rows
//! they ship.

mod support;

use support::uis_db;
use tango::algebra::date::day;
use tango::uis::queries::{q2_sql, q3_sql};
use tango::Tango;

/// Query 2 applies its window more than once (the pushdown rules copy it
/// below the temporal join and the aggregation), and a copy must not
/// charge the window's selectivity again: every `TRANSFER^M` of Query 2
/// and of Query 3 is estimated within 2x of the rows it ships, at default
/// factors with re-planning off (so the plan that runs is the one
/// estimated).
#[test]
fn transfers_are_estimated_within_twice_their_rows() {
    let statements = [
        ("Query 2", q2_sql(day(1983, 1, 1), day(1986, 1, 1))),
        ("Query 3", q3_sql(day(1993, 1, 1))),
    ];
    for (name, sql) in statements {
        let mut tango = Tango::connect(uis_db());
        tango.options_mut().opt.replan_ratio = None;
        let (_, report) = tango.query(&sql).unwrap();
        // EXPLAIN ANALYZE renders one line per plan node, in the pre-order
        // of the node estimates
        let plan = report.optimized.explain_analyze(&report.exec, true);
        let mut transfers = 0;
        for (est, line) in report.optimized.node_estimates().iter().zip(plan.lines()) {
            if !line.trim_start().starts_with("TRANSFER^M") {
                continue;
            }
            transfers += 1;
            let actual: f64 = line
                .split("actual rows ")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{name}: no actual rows in {line}"));
            let (e, a) = (est.est_rows.max(1.0), actual.max(1.0));
            assert!(
                (e / a).max(a / e) <= 2.0,
                "{name}: a TRANSFER^M estimated at {:.1} rows shipped {actual}\n{plan}",
                est.est_rows
            );
        }
        assert!(transfers > 0, "{name} ships nothing\n{plan}");
    }
}
