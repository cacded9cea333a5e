//! Concurrency bench — the serving tier under hundreds of simulated
//! clients.
//!
//! Sweeps worker threads {1, 2, 4, 8} × cache mode {shared, private} ×
//! workload mix {read-heavy 95/5, mixed 80/20}. Every cell spins up
//! `CLIENTS_PER_THREAD` short-lived sessions per thread (each client
//! connects, runs `OPS_PER_CLIENT` operations, disconnects), measuring
//! queries/sec over the wall clock plus p50/p99 per-query latency
//! (compute + simulated wire, like every other bench). `shared` clients
//! use [`Tango::connect`] — one shared `MidCache` per database —
//! while `private` clients use [`Tango::connect_private`], the old
//! session-local cache, so the delta is exactly the serving tier.
//!
//! Writes are version-bumping no-op `DELETE`s on POSITION: they leave
//! the data (and therefore every read answer) untouched, but each one
//! advances POSITION's write-version and invalidates every cached
//! POSITION fragment, exercising cross-session invalidation at the
//! configured rate.
//!
//! Usage: `cargo run --release -p tango-bench --bin concurrency_bench \
//!         [--small] [--check]`
//!
//! Writes `BENCH_concurrency.json`; `--check` exits non-zero unless the
//! shared cache beats the private caches on wire round trips at every
//! thread count on the read-heavy mix (and on queries/sec from 4
//! threads up, full scale only — wall-clock at `--small` scale is too
//! noisy to gate CI on).

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use tango_bench::{load_uis, uis_link_profile};
use tango_core::cache::CacheStats;
use tango_core::Tango;
use tango_minidb::Connection;
use tango_trace::json::Object;
use tango_uis::UisConfig;

/// Simulated clients handed to each worker thread in a cell.
const CLIENTS_PER_THREAD: usize = 12;
const CLIENTS_PER_THREAD_SMALL: usize = 6;
/// Queries/writes each client issues before disconnecting.
const OPS_PER_CLIENT: usize = 10;
const OPS_PER_CLIENT_SMALL: usize = 8;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// (mix name, write percentage of the op stream).
const MIXES: [(&str, u64); 2] = [("read-heavy", 5), ("mixed", 20)];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The read pool: narrow temporal aggregations over POSITION (hit by
/// the write churn) and conventional EMPLOYEE lookups (never
/// invalidated), so a mixed cell still has fragments that stay warm.
fn read_pool() -> Vec<String> {
    let mut pool: Vec<String> = [8, 16, 24, 32]
        .iter()
        .map(|k| {
            format!(
                "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
                 WHERE PosID < {k} GROUP BY PosID ORDER BY PosID"
            )
        })
        .collect();
    for k in [400, 800] {
        pool.push(format!(
            "SELECT EmpID, Dept, Salary FROM EMPLOYEE WHERE EmpID < {k} ORDER BY EmpID"
        ));
    }
    pool
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

fn sum_stats(acc: &mut CacheStats, s: &CacheStats) {
    acc.hits += s.hits;
    acc.misses += s.misses;
    acc.bypasses += s.bypasses;
    acc.insertions += s.insertions;
    acc.evictions += s.evictions;
    acc.invalidations += s.invalidations;
    acc.rejections += s.rejections;
    acc.admission_rejects += s.admission_rejects;
    acc.duplicate_populates += s.duplicate_populates;
    acc.refreshes += s.refreshes;
    acc.refresh_bytes += s.refresh_bytes;
    acc.refresh_bails += s.refresh_bails;
}

fn delta_stats(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        bypasses: after.bypasses - before.bypasses,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        rejections: after.rejections - before.rejections,
        admission_rejects: after.admission_rejects - before.admission_rejects,
        duplicate_populates: after.duplicate_populates - before.duplicate_populates,
        refreshes: after.refreshes - before.refreshes,
        refresh_bytes: after.refresh_bytes - before.refresh_bytes,
        refresh_bails: after.refresh_bails - before.refresh_bails,
    }
}

struct Cell {
    mix: &'static str,
    mode: &'static str,
    threads: usize,
    clients: usize,
    ops: u64,
    wall: Duration,
    p50_us: u64,
    p99_us: u64,
    round_trips: u64,
    wire: Duration,
    cache: CacheStats,
}

impl Cell {
    fn qps(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    setup: &tango_bench::Setup,
    mix: &'static str,
    write_pct: u64,
    mode: &'static str,
    threads: usize,
    clients_per_thread: usize,
    ops_per_client: usize,
    pool: &Arc<Vec<String>>,
    expected: &Arc<Vec<usize>>,
    factors: tango_core::cost::CostFactors,
) -> Cell {
    let db = &setup.db;
    // writes staled POSITION's statistics in the previous cell; restore
    // them so every fresh session can collect a usable catalog
    db.analyze("POSITION").unwrap();
    {
        let mut t = Tango::connect(db.clone());
        t.clear_cache();
    }
    let shared_before = Tango::connect(db.clone()).cache().stats();

    // two barriers: every worker finishes its (wire-crossing) session
    // setup before the link meter resets, and no client op runs before
    // the wall clock starts
    let ready = Arc::new(Barrier::new(threads + 1));
    let go = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = db.clone();
        let pool = pool.clone();
        let expected = expected.clone();
        let ready = ready.clone();
        let go = go.clone();
        handles.push(thread::spawn(move || {
            // sessions are pre-created (and their catalogs collected)
            // before any writer in the cell can stale the statistics
            let mut sessions: Vec<(usize, Tango)> = (0..clients_per_thread)
                .map(|k| {
                    let client = t * clients_per_thread + k;
                    let mut tango = if mode == "shared" {
                        Tango::connect(db.clone())
                    } else {
                        Tango::connect_private(db.clone())
                    };
                    tango.set_factors(factors);
                    tango.refresh_statistics().unwrap();
                    (client, tango)
                })
                .collect();
            let conn = Connection::new(db.clone());
            ready.wait();
            go.wait();

            let mut latencies_us = Vec::new();
            let mut ops = 0u64;
            let mut private_stats = CacheStats::default();
            for (client, mut tango) in sessions.drain(..) {
                let mut state = splitmix(0xC0_CC0 ^ (write_pct << 48) ^ ((client as u64) << 8));
                for _ in 0..ops_per_client {
                    state = splitmix(state);
                    if state % 100 < write_pct {
                        // no-op delete: bumps POSITION's write-version
                        // (invalidating every cached POSITION fragment)
                        // without changing any answer
                        let ghost = 900_000_000 + state % 1_000;
                        conn.execute(&format!("DELETE FROM POSITION WHERE PosID = {ghost}"))
                            .unwrap();
                    } else {
                        let qi = ((state / 100) as usize) % pool.len();
                        let (rel, report) = tango.query(&pool[qi]).unwrap();
                        assert_eq!(
                            rel.len(),
                            expected[qi],
                            "client {client} got a wrong-sized answer for pool query {qi}"
                        );
                        latencies_us.push(report.total().as_micros() as u64);
                    }
                    ops += 1;
                }
                if mode == "private" {
                    sum_stats(&mut private_stats, &tango.cache().stats());
                }
                // the client disconnects here; a private session's cache
                // dies with it, the shared cache stays warm
            }
            (latencies_us, ops, private_stats)
        }));
    }

    ready.wait();
    db.link().reset();
    let rt_before = db.link().roundtrips(); // the counter is lifetime-cumulative
    go.wait();
    let started = Instant::now();
    let mut latencies_us = Vec::new();
    let mut ops = 0u64;
    let mut private_stats = CacheStats::default();
    for h in handles {
        let (lat, n, stats) = h.join().unwrap();
        latencies_us.extend(lat);
        ops += n;
        sum_stats(&mut private_stats, &stats);
    }
    let wall = started.elapsed();
    latencies_us.sort_unstable();

    let cache = if mode == "shared" {
        delta_stats(&Tango::connect(db.clone()).cache().stats(), &shared_before)
    } else {
        private_stats
    };
    Cell {
        mix,
        mode,
        threads,
        clients: threads * clients_per_thread,
        ops,
        wall,
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        round_trips: db.link().roundtrips() - rt_before,
        wire: db.link().total(),
        cache,
    }
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let check = std::env::args().any(|a| a == "--check");
    let cfg = if small { UisConfig::small(0x5E41) } else { UisConfig::default() };
    let clients_per_thread = if small { CLIENTS_PER_THREAD_SMALL } else { CLIENTS_PER_THREAD };
    let ops_per_client = if small { OPS_PER_CLIENT_SMALL } else { OPS_PER_CLIENT };

    eprintln!("loading UIS ({} POSITION rows) + calibrating ...", cfg.position_rows);
    let setup = load_uis(&cfg, uis_link_profile(), true);
    let factors = *setup.tango.factors();

    // control answers from a cache-off session: the writes are no-ops,
    // so these row counts hold for the whole bench
    let pool = Arc::new(read_pool());
    let expected: Arc<Vec<usize>> = {
        let mut ctl = Tango::connect_private(setup.db.clone());
        ctl.options_mut().cache_budget = None;
        ctl.set_factors(factors);
        Arc::new(pool.iter().map(|q| ctl.query(q).unwrap().0.len()).collect())
    };

    let mut cells: Vec<Cell> = Vec::new();
    let mut failed = false;
    for (mix, write_pct) in MIXES {
        eprintln!("--- mix {mix} ({write_pct}% writes) ---");
        for threads in THREAD_COUNTS {
            for mode in ["shared", "private"] {
                let cell = run_cell(
                    &setup,
                    mix,
                    write_pct,
                    mode,
                    threads,
                    clients_per_thread,
                    ops_per_client,
                    &pool,
                    &expected,
                    factors,
                );
                eprintln!(
                    "  {threads} threads {mode:>7}: {:>8.1} q/s  p50 {:>8.1}ms  p99 {:>8.1}ms  \
                     {:>5} round trips  ({} clients, {} ops)",
                    cell.qps(),
                    cell.p50_us as f64 / 1e3,
                    cell.p99_us as f64 / 1e3,
                    cell.round_trips,
                    cell.clients,
                    cell.ops,
                );
                cells.push(cell);
            }
        }
    }

    // shared vs private on the read-heavy mix: the serving tier must
    // win on the wire at every thread count, and on throughput once
    // enough sessions contend (>= 4 threads)
    for threads in THREAD_COUNTS {
        let find = |mode: &str| {
            cells
                .iter()
                .find(|c| c.mix == "read-heavy" && c.mode == mode && c.threads == threads)
                .unwrap()
        };
        let (shared, private) = (find("shared"), find("private"));
        let qps_ratio = shared.qps() / private.qps().max(1e-9);
        eprintln!(
            "read-heavy @ {threads} threads: shared/private = {:.2}x qps, {} vs {} round trips",
            qps_ratio, shared.round_trips, private.round_trips
        );
        if shared.round_trips >= private.round_trips {
            eprintln!(
                "    FAIL: shared cache did not reduce wire round trips \
                 ({} >= {})",
                shared.round_trips, private.round_trips
            );
            failed = true;
        }
        if !small && threads >= 4 && qps_ratio <= 1.0 {
            eprintln!("    FAIL: shared qps not above private at {threads} threads");
            failed = true;
        }
    }

    let cell_objs: Vec<String> = cells
        .iter()
        .map(|c| {
            Object::new()
                .string("mix", c.mix)
                .string("mode", c.mode)
                .number("threads", c.threads as f64)
                .number("clients", c.clients as f64)
                .number("ops", c.ops as f64)
                .number("wall_ms", c.wall.as_secs_f64() * 1e3)
                .number("qps", c.qps())
                .number("p50_us", c.p50_us as f64)
                .number("p99_us", c.p99_us as f64)
                .number("round_trips", c.round_trips as f64)
                .number("wire_ms", c.wire.as_secs_f64() * 1e3)
                .raw(
                    "cache",
                    &Object::new()
                        .number("hits", c.cache.hits as f64)
                        .number("misses", c.cache.misses as f64)
                        .number("insertions", c.cache.insertions as f64)
                        .number("evictions", c.cache.evictions as f64)
                        .number("invalidations", c.cache.invalidations as f64)
                        .number("admission_rejects", c.cache.admission_rejects as f64)
                        .number("duplicate_populates", c.cache.duplicate_populates as f64)
                        .build(),
                )
                .build()
        })
        .collect();
    let json = Object::new()
        .string("bench", "concurrency")
        .number("position_rows", cfg.position_rows as f64)
        .number("clients_per_thread", clients_per_thread as f64)
        .number("ops_per_client", ops_per_client as f64)
        .number("pool_queries", pool.len() as f64)
        .raw("cells", &format!("[{}]", cell_objs.join(",")))
        .build();
    std::fs::write("BENCH_concurrency.json", &json).expect("write BENCH_concurrency.json");
    eprintln!("wrote BENCH_concurrency.json");

    if check && failed {
        std::process::exit(1);
    }
}
