//! Cache ablation — Figure 10's Query 2, cold vs warm through the
//! middleware-resident relation cache.
//!
//! The cold run pays the full wire bill of the chosen plan; the warm
//! runs find every DBMS fragment already resident in the middleware, so
//! each `TRANSFER^M` is served from the cache (`cache hit`) and the
//! query never touches the wire. The optimizer sees residency too
//! (`p_cached` pricing), so
//! the warm plan may differ from the cold one — both placements are
//! recorded.
//!
//! Usage: `cargo run --release -p tango-bench --bin cache_ablation \
//!         [--small] [--check]`
//!
//! Writes `BENCH_cache.json` in the working directory; `--check` exits
//! non-zero unless every warm run is at least [`REQUIRED_SPEEDUP`]×
//! faster than its cold run **and** issues zero wire round trips.

use std::time::Duration;
use tango_algebra::date::day;
use tango_bench::plans::placement_summary;
use tango_bench::{load_uis, time_query_report, uis_link_profile, Table};
use tango_trace::json::Object;
use tango_uis::queries::q2_sql;
use tango_uis::UisConfig;

const WARM_RUNS: usize = 3;
const REQUIRED_SPEEDUP: f64 = 1.5;

struct Sample {
    end_year: i32,
    rows: usize,
    cold: Duration,
    warm: Duration,
    cold_round_trips: u64,
    warm_round_trips: u64,
    cold_plan: String,
    warm_plan: String,
}

impl Sample {
    fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(1e-9)
    }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let check = std::env::args().any(|a| a == "--check");
    let cfg = if small { UisConfig::small(0xCAC4E) } else { UisConfig::default() };
    let years: Vec<i32> =
        if small { vec![1986, 1994, 2000] } else { vec![1986, 1990, 1994, 1998, 2000] };
    let start = day(1983, 1, 1);

    // the gate runs under the fixed default factors: a verdict that
    // follows whatever each run's calibration fitted is not a gate
    eprintln!("loading UIS ({} POSITION rows), calibrate: {} ...", cfg.position_rows, !check);
    let mut setup = load_uis(&cfg, uis_link_profile(), !check);

    let mut table =
        Table::new("Cache ablation — Query 2, cold vs warm", "window end", &["cold", "warm"]);

    let mut failed = false;
    let mut samples = Vec::new();
    for &y in &years {
        let sql = q2_sql(start, day(y, 1, 1));

        // Cold: empty cache, every transfer crosses the wire.
        setup.tango.clear_cache();
        setup.db.link().reset();
        let cold_plan = placement_summary(&setup.tango.optimize(&sql).unwrap().plan);
        let (cold, cold_rows, _, _) = time_query_report(&mut setup.tango, &sql);
        let cold_round_trips = setup.db.link().roundtrips();

        // Warm: the fragments now reside in the middleware. Best of
        // WARM_RUNS, but *every* run must stay off the wire.
        let warm_plan = placement_summary(&setup.tango.optimize(&sql).unwrap().plan);
        let mut warm = Duration::MAX;
        let mut warm_round_trips = 0;
        for _ in 0..WARM_RUNS {
            let before = setup.db.link().roundtrips();
            let (t, rows, _, _) = time_query_report(&mut setup.tango, &sql);
            assert_eq!(rows, cold_rows, "warm result size differs from cold at {y}");
            warm = warm.min(t);
            warm_round_trips = warm_round_trips.max(setup.db.link().roundtrips() - before);
        }

        let s = Sample {
            end_year: y,
            rows: cold_rows,
            cold,
            warm,
            cold_round_trips,
            warm_round_trips,
            cold_plan,
            warm_plan,
        };
        eprintln!(
            "  end {y}: cold {:>9.3}ms ({} round trips)  warm {:>9.3}ms ({} round trips)  {:.2}x",
            s.cold.as_secs_f64() * 1e3,
            s.cold_round_trips,
            s.warm.as_secs_f64() * 1e3,
            s.warm_round_trips,
            s.speedup(),
        );
        if s.cold_plan != s.warm_plan {
            eprintln!("    plan flip: cold [{}] -> warm [{}]", s.cold_plan, s.warm_plan);
        }
        if s.speedup() < REQUIRED_SPEEDUP {
            eprintln!("    FAIL: warm speedup {:.2}x < {REQUIRED_SPEEDUP}x", s.speedup());
            failed = true;
        }
        if s.warm_round_trips > 0 {
            eprintln!("    FAIL: warm run touched the wire ({} round trips)", s.warm_round_trips);
            failed = true;
        }
        table.row(y, vec![Some(s.cold), Some(s.warm)]);
        samples.push(s);
    }

    let stats = setup.tango.cache().stats();
    table.note(format!(
        "cache after the sweep: {} hits, {} misses, {} bytes resident",
        stats.hits,
        stats.misses,
        setup.tango.cache().bytes()
    ));
    table.emit("cache_ablation");

    let window_objs: Vec<String> = samples
        .iter()
        .map(|s| {
            Object::new()
                .number("end_year", s.end_year as f64)
                .number("rows", s.rows as f64)
                .number("cold_us", s.cold.as_secs_f64() * 1e6)
                .number("warm_us", s.warm.as_secs_f64() * 1e6)
                .number("speedup", s.speedup())
                .number("cold_round_trips", s.cold_round_trips as f64)
                .number("warm_round_trips", s.warm_round_trips as f64)
                .string("cold_plan", &s.cold_plan)
                .string("warm_plan", &s.warm_plan)
                .build()
        })
        .collect();
    let json = Object::new()
        .string("bench", "cache_ablation")
        .number("position_rows", cfg.position_rows as f64)
        .number("required_speedup", REQUIRED_SPEEDUP)
        .raw("windows", &format!("[{}]", window_objs.join(",")))
        .raw(
            "cache",
            &Object::new()
                .number("hits", stats.hits as f64)
                .number("misses", stats.misses as f64)
                .number("insertions", stats.insertions as f64)
                .number("evictions", stats.evictions as f64)
                .number("bytes", setup.tango.cache().bytes() as f64)
                .build(),
        )
        .build();
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    eprintln!("wrote BENCH_cache.json");

    if check && failed {
        std::process::exit(1);
    }
}
