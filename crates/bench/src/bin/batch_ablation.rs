//! Batch-size ablation — how much of the per-row overhead (virtual
//! dispatch, trace sampling) batch-at-a-time execution amortizes away,
//! and how many wire round trips it saves.
//!
//! Sweeps the session's batch size (1 = the row-at-a-time baseline)
//! over the two middleware-heavy fixed plans of the paper's study:
//! Query 1 plan 2 (`SORT^M` + `TAGGR^M`, Figure 7) and Query 3 plan 2
//! (`TMERGEJOIN^M`, Figure 11a). **Wall** time (best of three, the
//! inputs resident in the relation cache after the first run) shows the
//! operators' per-batch overhead; **wire** time and round trips, from
//! the first, cold run, show the fetch size — a `TRANSFER^M` makes one
//! round trip per batch, the link's prefetch as the floor, and ships the
//! same bytes at every size.
//!
//! The host core count is recorded in the JSON (`host_cpus`) so the
//! wall times are read in context.
//!
//! Usage: `cargo run --release -p tango-bench --bin batch_ablation \
//!         [--small] [--check]`
//!
//! Writes `BENCH_batch.json` in the working directory; `--check` exits
//! non-zero if the default batch size is slower than row-at-a-time, or
//! charges more wire than it.

use std::time::Duration;
use tango_algebra::date::day;
use tango_algebra::DEFAULT_BATCH_ROWS;
use tango_bench::plans::{q1_plans, q3_plans, PlanBuilder};
use tango_bench::{load_uis, time_plan_report, uis_link_profile, Table};
use tango_core::phys::PhysNode;
use tango_core::Tango;
use tango_trace::json::Object;
use tango_uis::UisConfig;

const SIZES: [usize; 5] = [1, 64, 256, 1024, 4096];
const RUNS: usize = 3;

struct Sample {
    batch_rows: usize,
    wall: Duration,
    wire: Duration,
    round_trips: u64,
    rows: usize,
}

/// One plan at one batch size: wire time and round trips of a cold run
/// (the relation cache cleared first), best-of-[`RUNS`] wall time.
fn measure(
    tango: &mut Tango,
    link: &tango_minidb::Link,
    plan: &PhysNode,
    batch_rows: usize,
) -> Sample {
    tango.options_mut().batch_rows = Some(batch_rows);
    tango.clear_cache();
    let mut best: Option<Sample> = None;
    for _ in 0..RUNS {
        let trips = link.roundtrips();
        let (_, rows, report) = time_plan_report(tango, plan);
        let round_trips = link.roundtrips() - trips;
        if std::env::var_os("TANGO_ABLATION_STEPS").is_some() {
            for s in &report.steps {
                eprintln!(
                    "      [{batch_rows}] {:<24} excl {:>9.3}ms rows {}",
                    s.label,
                    s.exclusive_us / 1e3,
                    s.out_rows
                );
            }
        }
        let cold = best.get_or_insert(Sample {
            batch_rows,
            wall: report.wall,
            wire: report.wire,
            round_trips,
            rows,
        });
        cold.wall = cold.wall.min(report.wall);
    }
    best.unwrap()
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let check = std::env::args().any(|a| a == "--check");
    let cfg = if small { UisConfig::small(0xBA7C) } else { UisConfig::default() };
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    eprintln!("loading UIS ({} POSITION rows) ...", cfg.position_rows);
    let mut setup = load_uis(&cfg, uis_link_profile(), false);
    let b = PlanBuilder::new(&setup.conn);

    let plans: Vec<(&'static str, PhysNode)> = vec![
        ("q1 plan2 (sortM+taggrM)", q1_plans(&b, "POSITION").remove(1).1),
        ("q3 plan2 (tjoinM)", q3_plans(&b, day(1990, 1, 1)).remove(1).1),
    ];

    let columns: Vec<String> =
        plans.iter().flat_map(|(n, _)| [format!("{n} wall"), format!("{n} wire")]).collect();
    let mut table = Table::new(
        "Batch-size ablation — wall and wire time of the middleware plans",
        "batch",
        &columns.iter().map(String::as_str).collect::<Vec<_>>(),
    );

    let mut failed = false;
    let mut query_objs = Vec::new();
    let mut per_size: Vec<Vec<Sample>> = Vec::new();
    for (name, plan) in &plans {
        eprintln!("  {name}:");
        let mut samples = Vec::new();
        for bs in SIZES {
            let s = measure(&mut setup.tango, setup.db.link(), plan, bs);
            eprintln!(
                "    batch {:>4}: wall {:>9.3}ms wire {:>9.3}ms round trips {:>5} rows {}",
                bs,
                s.wall.as_secs_f64() * 1e3,
                s.wire.as_secs_f64() * 1e3,
                s.round_trips,
                s.rows
            );
            samples.push(s);
        }
        assert!(
            samples.iter().all(|s| s.rows == samples[0].rows),
            "{name}: result size varies with batch size"
        );
        let row = &samples[0];
        let batch = samples.iter().find(|s| s.batch_rows == DEFAULT_BATCH_ROWS).unwrap();
        let speedup = row.wall.as_secs_f64() / batch.wall.as_secs_f64().max(1e-9);
        eprintln!("    wall speedup at batch {DEFAULT_BATCH_ROWS}: {speedup:.2}x");
        if speedup < 1.0 {
            eprintln!("    FAIL: batch path slower than row path");
            failed = true;
        }
        if batch.wire > row.wire {
            eprintln!("    FAIL: batch path charges more wire than row path");
            failed = true;
        }

        let sizes_json: Vec<String> = samples
            .iter()
            .map(|s| {
                Object::new()
                    .number("batch_rows", s.batch_rows as f64)
                    .number("wall_us", s.wall.as_secs_f64() * 1e6)
                    .number("wire_us", s.wire.as_secs_f64() * 1e6)
                    .number("round_trips", s.round_trips as f64)
                    .number("rows", s.rows as f64)
                    .build()
            })
            .collect();
        query_objs.push(
            Object::new()
                .string("plan", name)
                .raw("sizes", &format!("[{}]", sizes_json.join(",")))
                .number("wall_speedup_at_default", speedup)
                .build(),
        );
        per_size.push(samples);
    }

    for (i, bs) in SIZES.iter().enumerate() {
        table.row(*bs, per_size.iter().flat_map(|s| [Some(s[i].wall), Some(s[i].wire)]).collect());
    }
    table.note(
        "wall best of 3 (warm after the first run), wire of the cold first run: one round \
         trip per batch, the link prefetch as the floor — round trips per size in \
         BENCH_batch.json",
    );
    table.emit("batch_ablation");

    let json = Object::new()
        .string("bench", "batch_ablation")
        .number("position_rows", cfg.position_rows as f64)
        .number("row_prefetch", uis_link_profile().row_prefetch as f64)
        .number("default_batch_rows", DEFAULT_BATCH_ROWS as f64)
        .number("host_cpus", host_cpus as f64)
        .raw("queries", &format!("[{}]", query_objs.join(",")))
        .build();
    std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");
    eprintln!("wrote BENCH_batch.json");

    if check && failed {
        std::process::exit(1);
    }
}
