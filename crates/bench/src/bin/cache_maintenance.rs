//! Cache maintenance — steady-state throughput under write mixes,
//! drop-on-write vs refresh-by-delta.
//!
//! A serving loop re-runs two warm cacheable fragments (a selection
//! chain and a `TAGGR^D` aggregate over POSITION) while a writer dirties
//! the base table on 1 % / 10 % / 30 % of the iterations. With
//! drop-on-write every write evicts the fragments and the next read
//! pays a full refill over the wire; with refresh-by-delta the engine
//! replays the table's delta log over the resident relation (or
//! refetches only the touched aggregate groups), so the warm speedup
//! survives the write.
//!
//! Usage: `cargo run --release -p tango-bench --bin cache_maintenance \
//!         [--small] [--check]`
//!
//! Writes `BENCH_maintenance.json`; `--check` exits non-zero unless
//! refresh-by-delta beats drop-on-write on read throughput at the 10 %
//! write mix (and never serves a different result).

use std::time::Duration;
use tango_algebra::date::day;
use tango_algebra::{tup, CmpOp, Expr, ProjItem, SortSpec, Value};
use tango_bench::plans::PlanBuilder;
use tango_bench::{load_uis, time_plan, uis_link_profile, Table};
use tango_core::phys::{Algo, PhysNode};
use tango_trace::json::Object;
use tango_uis::UisConfig;

const WRITE_MIXES: &[u32] = &[1, 10, 30]; // percent of iterations that write

struct Side {
    reads: u64,
    read_time: Duration,
    stale_serves: u64,
    round_trips: u64,
    refreshes: u64,
    refresh_bails: u64,
    invalidations: u64,
    insertions: u64,
}

impl Side {
    fn qps(&self) -> f64 {
        self.reads as f64 / self.read_time.as_secs_f64().max(1e-9)
    }
}

/// Selection chain, delivered sorted on *every* column so a delta merge
/// is always order-determined.
fn chain_plan(b: &PlanBuilder) -> PhysNode {
    let pred = Expr::cmp(CmpOp::Gt, Expr::col("PayRate"), Expr::lit(Value::Double(10.0)));
    let order = SortSpec::by(["PosID", "EmpID", "Dept", "PosCode", "PayRate", "Hours", "T1", "T2"]);
    PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(order),
            vec![PhysNode::over(Algo::FilterD(pred), vec![b.scan("POSITION")]).unwrap()],
        )
        .unwrap()],
    )
    .unwrap()
}

/// Query 1's all-DBMS plan: `TAGGR^D` over POSITION, sorted on
/// (PosID, T1) — unique over the aggregate's constant intervals, so a
/// touched-group refresh is order-determined too.
fn taggr_plan(b: &PlanBuilder) -> PhysNode {
    let group_by = vec!["PosID".to_string()];
    let aggs =
        vec![tango_algebra::AggSpec::new(tango_algebra::AggFunc::Count, Some("PosID"), "Cnt")];
    let proj = ["PosID", "T1", "T2"].iter().map(|c| ProjItem::col(*c)).collect();
    PhysNode::over(
        Algo::TransferM,
        vec![PhysNode::over(
            Algo::SortD(SortSpec::by(["PosID", "T1"])),
            vec![PhysNode::over(
                Algo::TAggrD { group_by, aggs },
                vec![PhysNode::over(Algo::ProjectD(proj), vec![b.scan("POSITION")]).unwrap()],
            )
            .unwrap()],
        )
        .unwrap()],
    )
    .unwrap()
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let check = std::env::args().any(|a| a == "--check");
    let cfg = if small { UisConfig::small(0xDE17A) } else { UisConfig::default() };
    let iters: u64 = if small { 120 } else { 400 };

    eprintln!("loading UIS ({} POSITION rows) + calibrating ...", cfg.position_rows);
    let mut setup = load_uis(&cfg, uis_link_profile(), true);
    let b = PlanBuilder::new(&setup.conn);
    let plans = [chain_plan(&b), taggr_plan(&b)];

    let mut table = Table::new(
        "Cache maintenance — steady-state read latency under writes",
        "write %",
        &["drop-on-write", "refresh-by-delta"],
    );
    let mut failed = false;
    let mut mix_objs = Vec::new();
    let mut next_id = 900_000i64;

    for &pct in WRITE_MIXES {
        let period = (100 / pct).max(1) as u64; // write every `period` iterations
        let mut sides = Vec::new();
        for refresh_on in [false, true] {
            setup.tango.options_mut().cache_refresh = refresh_on;
            setup.tango.clear_cache();
            setup.db.link().reset();
            // warm both fragments (populate + one earned hit each)
            for plan in &plans {
                time_plan(&mut setup.tango, plan);
                time_plan(&mut setup.tango, plan);
            }
            let rt0 = setup.db.link().roundtrips();
            let stats0 = setup.tango.cache().stats();

            let mut reads = 0u64;
            let mut read_time = Duration::ZERO;
            let mut last_rows = vec![0usize; plans.len()];
            for i in 0..iters {
                if i % period == 0 {
                    next_id += 1;
                    setup
                        .db
                        .insert_rows(
                            "POSITION",
                            vec![tup![
                                next_id,
                                next_id % 977,
                                7,
                                Value::Str("Maint".into()),
                                Value::Double(19.5),
                                40,
                                Value::Date(day(1995, 1, 1)),
                                Value::Date(day(1999, 1, 1))
                            ]],
                        )
                        .unwrap();
                }
                for (p, plan) in plans.iter().enumerate() {
                    let (t, n) = time_plan(&mut setup.tango, plan);
                    read_time += t;
                    reads += 1;
                    last_rows[p] = n;
                }
            }
            let s = setup.tango.cache().stats();
            let round_trips = setup.db.link().roundtrips() - rt0;
            // correctness gate: the last warm answer must match a cold
            // run over this side's final table state
            setup.tango.clear_cache();
            let stale_serves = plans
                .iter()
                .zip(&last_rows)
                .filter(|(plan, &warm)| time_plan(&mut setup.tango, plan).1 != warm)
                .count() as u64;
            sides.push(Side {
                reads,
                read_time,
                stale_serves,
                round_trips,
                refreshes: s.refreshes - stats0.refreshes,
                refresh_bails: s.refresh_bails - stats0.refresh_bails,
                invalidations: s.invalidations - stats0.invalidations,
                insertions: s.insertions - stats0.insertions,
            });
        }
        let (drop, refresh) = (&sides[0], &sides[1]);
        let speedup = refresh.qps() / drop.qps().max(1e-9);
        eprintln!(
            "  {pct:>2}% writes: drop {:>8.1} qps ({} round trips, {} invalidations)  \
             refresh {:>8.1} qps ({} round trips, {} refreshes, {} bails)  {speedup:.2}x",
            drop.qps(),
            drop.round_trips,
            drop.invalidations,
            refresh.qps(),
            refresh.round_trips,
            refresh.refreshes,
            refresh.refresh_bails,
        );
        if refresh.stale_serves + drop.stale_serves > 0 {
            eprintln!(
                "    FAIL: warm results diverged from a cold control \
                 (drop: {}, refresh: {} plans)",
                drop.stale_serves, refresh.stale_serves
            );
            failed = true;
        }
        if pct == 10 && refresh.qps() <= drop.qps() {
            eprintln!(
                "    FAIL: refresh-by-delta must beat drop-on-write at the 10% mix \
                 ({:.1} vs {:.1} qps)",
                refresh.qps(),
                drop.qps()
            );
            failed = true;
        }
        table.row(
            pct as i32,
            vec![
                Some(drop.read_time / drop.reads as u32),
                Some(refresh.read_time / refresh.reads as u32),
            ],
        );
        let side_obj = |s: &Side| {
            Object::new()
                .number("qps", s.qps())
                .number("reads", s.reads as f64)
                .number("read_time_us", s.read_time.as_secs_f64() * 1e6)
                .number("stale_serves", s.stale_serves as f64)
                .number("round_trips", s.round_trips as f64)
                .number("refreshes", s.refreshes as f64)
                .number("refresh_bails", s.refresh_bails as f64)
                .number("invalidations", s.invalidations as f64)
                .number("insertions", s.insertions as f64)
                .build()
        };
        mix_objs.push(
            Object::new()
                .number("write_pct", pct as f64)
                .number("speedup", speedup)
                .raw("drop_on_write", &side_obj(drop))
                .raw("refresh_by_delta", &side_obj(refresh))
                .build(),
        );
    }
    table.note("reads are the mean per-query wall+wire time over the steady-state loop");
    table.emit("cache_maintenance");

    let json = Object::new()
        .string("bench", "cache_maintenance")
        .number("position_rows", cfg.position_rows as f64)
        .number("iterations", iters as f64)
        .raw("mixes", &format!("[{}]", mix_objs.join(",")))
        .build();
    std::fs::write("BENCH_maintenance.json", &json).expect("write BENCH_maintenance.json");
    eprintln!("wrote BENCH_maintenance.json");

    if check && failed {
        std::process::exit(1);
    }
}
