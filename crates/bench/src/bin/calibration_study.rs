//! Ablation A3 — how much do calibration and runtime feedback matter?
//!
//! Three optimizer configurations are compared on Query 2 and Query 3
//! plan choice:
//!
//! 1. **default factors** (uncalibrated ballparks),
//! 2. **calibrated** (the Du-et-al-style probing of `crate::calibrate`),
//! 3. **calibrated + feedback** (factors re-fitted from observed
//!    per-algorithm runtimes after each query — the "adaptable" loop).
//!
//! For each configuration the chosen plan is executed and compared with
//! the best fixed plan, giving a "regret" figure.
//!
//! Usage: `cargo run --release -p tango-bench --bin calibration_study [--small]`

use std::time::Duration;
use tango_algebra::date::day;
use tango_bench::plans::{placement_summary, q2_plans, q3_plans, PlanBuilder};
use tango_bench::{load_uis, time_plan, uis_link_profile};
use tango_core::cost::CostFactors;
use tango_uis::queries::{q2_sql, q3_sql};
use tango_uis::UisConfig;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cfg = if small { UisConfig::small(0xEC1) } else { UisConfig::default() };
    eprintln!("loading UIS ({} POSITION rows) ...", cfg.position_rows);
    let mut setup = load_uis(&cfg, uis_link_profile(), false);

    let q2_end = day(1996, 1, 1);
    let q3_bound = day(1996, 1, 1);
    let b = PlanBuilder::new(&setup.conn);

    // best fixed plans as the yardstick
    let mut best_q2: Option<(&str, Duration)> = None;
    for (name, plan) in q2_plans(&b, day(1983, 1, 1), q2_end) {
        setup.db.link().reset();
        let (t, _) = time_plan(&mut setup.tango, &plan);
        if best_q2.is_none_or(|(_, bt)| t < bt) {
            best_q2 = Some((name, t));
        }
    }
    let mut best_q3: Option<(&str, Duration)> = None;
    for (name, plan) in q3_plans(&b, q3_bound) {
        setup.db.link().reset();
        let (t, _) = time_plan(&mut setup.tango, &plan);
        if best_q3.is_none_or(|(_, bt)| t < bt) {
            best_q3 = Some((name, t));
        }
    }
    let (bq2_name, bq2_t) = best_q2.unwrap();
    let (bq3_name, bq3_t) = best_q3.unwrap();
    println!("best fixed plans: Q2 {bq2_name} ({bq2_t:.2?}); Q3 {bq3_name} ({bq3_t:.2?})\n");

    let run = |setup: &mut tango_bench::Setup, label: &str| {
        for (qname, sql, best) in
            [("Q2", q2_sql(day(1983, 1, 1), q2_end), bq2_t), ("Q3", q3_sql(q3_bound), bq3_t)]
        {
            setup.db.link().reset();
            let (rel, report) = setup.tango.query(&sql).expect("query failed");
            let t = report.total();
            println!(
                "{label:24} {qname}: {:.2}s (best fixed {:.2}s, regret {:+.0}%) rows={} [{}]",
                t.as_secs_f64(),
                best.as_secs_f64(),
                (t.as_secs_f64() / best.as_secs_f64() - 1.0) * 100.0,
                rel.len(),
                placement_summary(&report.optimized.plan),
            );
        }
    };

    // 1. defaults
    setup.tango.set_factors(CostFactors::default());
    run(&mut setup, "default factors");

    // 2. calibrated
    setup.tango.calibrate().expect("calibration failed");
    run(&mut setup, "calibrated");

    // 3. calibrated + feedback (run the queries a few times, adapting)
    setup.tango.options_mut().feedback = true;
    for _ in 0..2 {
        let _ = setup.tango.query(&q2_sql(day(1983, 1, 1), q2_end));
        let _ = setup.tango.query(&q3_sql(q3_bound));
    }
    run(&mut setup, "calibrated + feedback");
    let f = setup.tango.factors();
    println!(
        "\nfinal factors: p_tm={:.3} p_td={:.3} p_sm={:.4} p_sd={:.4} p_taggm1={:.4} p_taggd1={:.3} p_mjm={:.4} p_jd={:.4}",
        f.p_tm, f.p_td, f.p_sm, f.p_sd, f.p_taggm1, f.p_taggd1, f.p_mjm, f.p_jd
    );
}
