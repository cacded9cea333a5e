//! Rewrite-pack ablation — each shipped rule pack run against a query
//! spelled the way the pack exists to fix, with and without the pack.
//!
//! Three scenarios, one per pack:
//!
//! * **temporal-normalize** — the Section 3.3 `Overlaps` window spelled
//!   through `NOT (...)` conjuncts. Unrewritten, the joint estimator
//!   cannot see the window, the selectivity product over-estimates, and
//!   the optimizer ships the wide `POSINFO` dossiers to a middleware
//!   merge join. Rewritten to the `T1 <= hi AND T2 >= lo` canonical
//!   form, the joint estimator recognizes the window and the join stays
//!   in the DBMS. Gated (`--check`): identical rows, >= 1 firing, and a
//!   wall-clock win.
//! * **subquery-to-join** — a FROM-subquery correlated through
//!   `NOT (a <> b)`, which the parser cannot classify as a join key, so
//!   the plan is a cartesian product with a post-selection. The pack
//!   normalizes the negation and extracts the equi-join. Gated:
//!   identical rows, >= 1 firing, and a wall-clock win.
//! * **compat** — the exact Figure 5 plain-SQL rendering of `TJOIN^D`
//!   (GREATEST/LEAST intersection items over a strict-overlap
//!   predicate) folded back into the temporal algebra. Gated: identical
//!   rows and >= 1 firing (the win here is plan quality/compatibility,
//!   not wall time, so no timing gate).
//!
//! Usage: `cargo run --release -p tango-bench --bin rewrite_bench \
//!         [--small] [--check]`
//!
//! Writes `BENCH_rewrite.json` (with `host_cpus` stamped, per the
//! `docs/PERFORMANCE.md` convention).

use std::time::Duration;
use tango_algebra::{tup, Attr, Relation, Schema, Type, Value};
use tango_bench::Table;
use tango_core::cost::CostFactors;
use tango_core::Tango;
use tango_minidb::{Connection, Database, Link, LinkProfile, WireMode};
use tango_trace::json::Object;

/// Valid-time domain of the fixtures (days).
const DOMAIN: i64 = 5_000;

/// Same deterministic virtual wire as `adaptive_bench`: slow enough
/// that shipping un-filtered inputs dominates a bad plan, simulated so
/// the comparison is stable on noisy CI runners.
fn slow_wire() -> LinkProfile {
    LinkProfile {
        roundtrip_latency_us: 200.0,
        bytes_per_sec: 256.0 * 1024.0,
        row_prefetch: 16,
        mode: WireMode::Virtual,
    }
}

/// The rescue fixture of `adaptive_bench`: `versions` strided
/// short-lived versions per position, one wide dossier row per position.
fn fixture(positions: usize, versions: usize) -> Database {
    let db = Database::new(Link::new(slow_wire()));
    let position = Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("EmpID", Type::Int),
        Attr::new("PayRate", Type::Double),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ]);
    db.create_table("POSITION", position).unwrap();
    let posinfo = Schema::new(vec![Attr::new("PosID", Type::Int), Attr::new("Info", Type::Str)]);
    db.create_table("POSINFO", posinfo).unwrap();

    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let stride = DOMAIN / versions as i64;
    let mut rows = Vec::with_capacity(positions * versions);
    for p in 0..positions as i64 {
        for v in 0..versions as i64 {
            let t1 = v * stride + (step() % (stride as u64 - 40).max(1)) as i64;
            let t2 = t1 + 1 + (step() % 39) as i64;
            let emp = (step() % (positions as u64 * 2)) as i64;
            rows.push(tup![p, emp, Value::Double((step() % 100) as f64 / 2.0), t1, t2]);
        }
    }
    db.insert_rows("POSITION", rows).unwrap();
    let dossier: Vec<_> = (0..positions as i64)
        .map(|p| tup![p, Value::Str(format!("dossier-{p:06}-{}", "x".repeat(140)))])
        .collect();
    db.insert_rows("POSINFO", dossier).unwrap();
    let conn = Connection::new(db.clone());
    conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
    conn.execute("ANALYZE TABLE POSINFO COMPUTE STATISTICS").unwrap();
    db
}

struct Scenario {
    pack: &'static str,
    sql: String,
    db: Database,
    /// Whether `--check` additionally demands a wall-clock win.
    gate_wall: bool,
}

fn scenarios(small: bool) -> Vec<Scenario> {
    // 1. temporal-normalize: the adaptive_bench narrow window, spelled
    //    through NOT so only the rewritten form is estimable jointly.
    let (pos, ver) = if small { (100, 12) } else { (800, 25) };
    let normalize = Scenario {
        pack: "temporal-normalize",
        sql: "SELECT P.PosID, P.T1, I.Info FROM POSITION P, POSINFO I \
              WHERE P.PosID = I.PosID AND NOT (P.T1 > 2520) AND NOT (P.T2 < 2500) \
              ORDER BY P.PosID, P.T1"
            .into(),
        db: fixture(pos, ver),
        gate_wall: true,
    };

    // 2. subquery-to-join: NOT (a <> b) hides the join key from the
    //    parser, leaving a cartesian product for the pack to collapse.
    let (pos, ver) = if small { (120, 3) } else { (400, 4) };
    let subquery = Scenario {
        pack: "subquery-to-join",
        sql: "SELECT P.PosID, P.T1, I.Info \
              FROM (SELECT PosID, Info FROM POSINFO) I, POSITION P \
              WHERE NOT (I.PosID <> P.PosID) ORDER BY P.PosID, P.T1, I.Info"
            .into(),
        db: fixture(pos, ver),
        gate_wall: true,
    };

    // 3. compat: the Figure 5 TJOIN^D rendering, typed by hand.
    let (pos, ver) = if small { (60, 6) } else { (120, 8) };
    let compat = Scenario {
        pack: "compat",
        sql: "SELECT A.PosID, A.EmpID, B.EmpID AS EmpID2, \
              GREATEST(A.T1, B.T1) AS S1, LEAST(A.T2, B.T2) AS S2 \
              FROM POSITION A, POSITION B \
              WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND B.T1 < A.T2 \
              ORDER BY A.PosID, A.EmpID, EmpID2, S1, S2"
            .into(),
        db: fixture(pos, ver),
        gate_wall: false,
    };

    vec![normalize, subquery, compat]
}

/// A fresh session per run: cache disabled so every variant pays the
/// true wire bill, re-planning off so the rewrite (not adaptivity) is
/// the only difference, pinned wire-fitted cost factors.
fn session(db: &Database, packs: &[&str]) -> Tango {
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().cache_budget = None;
    tango.options_mut().opt.replan_ratio = None;
    tango.options_mut().rewrite_packs = packs.iter().map(|p| p.to_string()).collect();
    tango.set_factors(CostFactors {
        p_tm: 5.0,
        p_td: 4.5,
        p_td_fixed: 200.0,
        p_jd: 0.06,
        p_mjm: 0.02,
        ..Default::default()
    });
    tango
}

struct Sample {
    pack: &'static str,
    rows: usize,
    plain: Duration,
    rewritten: Duration,
    plain_cost_us: f64,
    rewritten_cost_us: f64,
    fires: u64,
    plain_plan: String,
    rewritten_plan: String,
}

impl Sample {
    fn speedup(&self) -> f64 {
        self.plain.as_secs_f64() / self.rewritten.as_secs_f64().max(1e-9)
    }
}

fn run(tango: &mut Tango, sql: &str) -> (Duration, Relation, f64, u64, String) {
    let (rel, report) =
        tango.query(sql).unwrap_or_else(|e| panic!("query failed: {e}\nsql: {sql}"));
    let plan = tango_bench::plans::placement_summary(&report.optimized.plan);
    (
        report.total(),
        rel,
        report.optimized.est_cost_us,
        report.optimized.rewrites.total_fires(),
        plan,
    )
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let check = std::env::args().any(|a| a == "--check");
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut table = Table::new(
        "Rewrite-pack ablation — each pack vs the plain spelling it fixes",
        "pack",
        &["unrewritten", "rewritten"],
    );

    let mut failed = false;
    let mut samples = Vec::new();
    for sc in scenarios(small) {
        let mut plain_t = session(&sc.db, &[]);
        let (plain, plain_rel, plain_cost, plain_fires, plain_plan) = run(&mut plain_t, &sc.sql);
        assert_eq!(plain_fires, 0, "no packs loaded, yet rules fired");

        let mut rw_t = session(&sc.db, &[sc.pack]);
        let (rewritten, rw_rel, rw_cost, fires, rw_plan) = run(&mut rw_t, &sc.sql);

        let s = Sample {
            pack: sc.pack,
            rows: plain_rel.len(),
            plain,
            rewritten,
            plain_cost_us: plain_cost,
            rewritten_cost_us: rw_cost,
            fires,
            plain_plan,
            rewritten_plan: rw_plan,
        };
        eprintln!(
            "  {}: unrewritten {:>9.3}ms ({})  rewritten {:>9.3}ms ({})  {} firing{}  {:.2}x",
            s.pack,
            s.plain.as_secs_f64() * 1e3,
            s.plain_plan,
            s.rewritten.as_secs_f64() * 1e3,
            s.rewritten_plan,
            s.fires,
            if s.fires == 1 { "" } else { "s" },
            s.speedup(),
        );

        if plain_rel.tuples() != rw_rel.tuples() {
            eprintln!("    FAIL: rewritten result differs from unrewritten");
            failed = true;
        }
        if s.fires == 0 {
            eprintln!("    FAIL: pack {} never fired", s.pack);
            failed = true;
        }
        if sc.gate_wall && s.rewritten >= s.plain {
            eprintln!(
                "    FAIL: rewritten {:.3}ms did not beat unrewritten {:.3}ms",
                s.rewritten.as_secs_f64() * 1e3,
                s.plain.as_secs_f64() * 1e3
            );
            failed = true;
        }
        table.row(s.pack, vec![Some(s.plain), Some(s.rewritten)]);
        samples.push(s);
    }

    table.note(format!(
        "virtual {:.0}KiB/s wire; fresh session per run; re-planning off; host_cpus={host_cpus}",
        slow_wire().bytes_per_sec / 1024.0
    ));
    table.emit("rewrite_bench");

    let scenario_objs: Vec<String> = samples
        .iter()
        .map(|s| {
            Object::new()
                .string("pack", s.pack)
                .number("rows", s.rows as f64)
                .number("unrewritten_us", s.plain.as_secs_f64() * 1e6)
                .number("rewritten_us", s.rewritten.as_secs_f64() * 1e6)
                .number("unrewritten_est_cost_us", s.plain_cost_us)
                .number("rewritten_est_cost_us", s.rewritten_cost_us)
                .number("speedup", s.speedup())
                .number("fires", s.fires as f64)
                .string("unrewritten_plan", &s.plain_plan)
                .string("rewritten_plan", &s.rewritten_plan)
                .build()
        })
        .collect();
    let json = Object::new()
        .string("bench", "rewrite_bench")
        .number("host_cpus", host_cpus as f64)
        .raw("scenarios", &format!("[{}]", scenario_objs.join(",")))
        .build();
    std::fs::write("BENCH_rewrite.json", &json).expect("write BENCH_rewrite.json");
    eprintln!("wrote BENCH_rewrite.json");

    if check && failed {
        std::process::exit(1);
    }
}
