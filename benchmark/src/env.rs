//! Set-up: UIS data, the mini-DBMS behind the simulated JDBC link, one
//! session per client, the oracle's control session and its answers, and
//! the warm-up that precedes the first timed op.

use crate::factors;
use crate::oracle::{answer, Answer};
use crate::workload::{CacheMode, Op, Workload};
use std::time::Instant;
use tango_core::{Tango, TangoOptions};
use tango_minidb::{Connection, Database, Link, LinkProfile, WireMode};
use tango_uis::{generate_employee, generate_position, UisConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's cardinalities (83 857 POSITION, 49 972 EMPLOYEE rows).
    Paper,
    /// `UisConfig::small`: smoke tests only, no number means anything.
    Small,
}

/// The link every figure of the paper is modelled on: 500 µs per round
/// trip, 4 MiB/s, JDBC row prefetch 50, charged to a virtual clock.
pub fn uis_link_profile() -> LinkProfile {
    LinkProfile {
        roundtrip_latency_us: 500.0,
        bytes_per_sec: 4.0 * 1024.0 * 1024.0,
        row_prefetch: 50,
        mode: WireMode::Virtual,
    }
}

pub const PACKS: [&str; 3] = ["temporal-normalize", "subquery-to-join", "compat"];

/// Set-up phases that are per-layer metrics of their own.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub load_s: f64,
    pub collector_refresh_us: f64,
}

pub struct Env {
    pub db: Database,
    /// One session per client thread, factors pinned, statistics fresh.
    pub sessions: Vec<Tango>,
    /// The oracle: no cache, no packs, no re-planning, row-at-a-time.
    pub control: Tango,
    pub pool: Vec<String>,
    /// Control answers to `pool`, computed at set-up.
    pub expected: Vec<Answer>,
    pub times: SetupTimes,
    /// Warm-up queries (lazy state such as the loaded rewriter fills here,
    /// not in a timed op) that failed or answered wrongly.
    pub warmup_failed: u64,
    pub warmup_attempted: u64,
}

fn session(db: &Database, options: TangoOptions) -> Tango {
    let mut t = Tango::connect_with(db.clone(), options);
    t.set_factors(factors::pinned());
    t.refresh_statistics().expect("statistics collection over a fresh ANALYZE");
    t
}

fn client_options(w: &Workload) -> TangoOptions {
    let mut o = TangoOptions::default();
    if w.cache == CacheMode::Off {
        o.cache_budget = None;
    }
    if w.packs {
        o.rewrite_packs = PACKS.iter().map(|p| p.to_string()).collect();
    }
    o
}

fn control_options() -> TangoOptions {
    let mut o =
        TangoOptions { cache_budget: None, batch_rows: Some(1), workers: 1, ..Default::default() };
    o.opt.replan_ratio = None;
    o
}

pub fn setup(w: &Workload, seed: u64, scale: Scale) -> Env {
    // the data is the same for every seed: `--seed` drives the statement
    // texts and the op sequence, not the amount of work behind them
    let cfg = match scale {
        Scale::Paper => UisConfig::default(),
        Scale::Small => UisConfig::small(UisConfig::default().seed),
    };
    let t = Instant::now();
    let position = generate_position(&cfg);
    let employee = generate_employee(&cfg);
    let generate_s = t.elapsed().as_secs_f64();

    // base relations pre-exist in the DBMS: loading them is server-side
    // and does not cross the middleware wire
    let t = Instant::now();
    let db = Database::new(Link::new(uis_link_profile()));
    let conn = Connection::new(db.clone());
    db.create_table("POSITION", position.schema().as_ref().clone()).expect("create POSITION");
    db.insert_rows("POSITION", position.into_tuples()).expect("load POSITION");
    db.create_table("EMPLOYEE", employee.schema().as_ref().clone()).expect("create EMPLOYEE");
    db.insert_rows("EMPLOYEE", employee.into_tuples()).expect("load EMPLOYEE");
    conn.execute("CREATE INDEX EMP_PK ON EMPLOYEE (EmpID)").expect("index EMPLOYEE");
    db.analyze("POSITION").expect("ANALYZE POSITION");
    db.analyze("EMPLOYEE").expect("ANALYZE EMPLOYEE");
    let load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut control = session(&db, control_options());
    let collector_refresh_us = t.elapsed().as_secs_f64() * 1e6;
    let mut sessions: Vec<Tango> =
        (0..w.clients).map(|_| session(&db, client_options(w))).collect();

    let pool = w.pool(seed);
    let expected: Vec<Answer> = pool
        .iter()
        .map(|sql| {
            let (rel, _) = control.query(sql).unwrap_or_else(|e| panic!("control: {e}\n{sql}"));
            answer(&rel)
        })
        .collect();
    let mut env = Env {
        db,
        sessions: Vec::new(),
        control,
        pool,
        expected,
        times: SetupTimes { generate_s, load_s, collector_refresh_us },
        warmup_failed: 0,
        warmup_attempted: 0,
    };
    if w.cache == CacheMode::HalfOfPool {
        // one pass at the default budget leaves the whole pool resident;
        // half of that is the budget every session then runs under
        env.warm_pass(&mut sessions[..1]);
        let budget = (sessions[0].cache().bytes() / 2).max(1);
        for s in &mut sessions {
            s.options_mut().cache_budget = Some(budget);
            s.refresh_statistics().expect("statistics collection");
        }
        // which half stays resident is sticky (admission turns newcomers
        // away), so let the workload's own skew decide it before timing
        for (client, s) in sessions.iter_mut().enumerate() {
            let ops = w.ops(seed ^ WARMUP_STREAM, client, env.pool.len());
            for op in ops.take(PRESSURE_WARMUP_OPS) {
                if let Op::Read(i) = op {
                    env.warm_query(s, i);
                }
            }
        }
    } else {
        // populate, then one earned hit per fragment and per session
        env.warm_pass(&mut sessions);
        env.warm_pass(&mut sessions);
    }
    env.sessions = sessions;
    env
}

/// Seed offset of the untimed warm-up op stream, so it is not a prefix of
/// the timed one.
const WARMUP_STREAM: u64 = 0x57A2_4D00;
/// Untimed reads per client that settle the undersized cache.
const PRESSURE_WARMUP_OPS: usize = 64;

impl Env {
    fn warm_query(&mut self, session: &mut Tango, i: usize) {
        self.warmup_attempted += 1;
        match session.query(&self.pool[i]) {
            Ok((rel, _)) if answer(&rel) == self.expected[i] => {}
            _ => self.warmup_failed += 1,
        }
    }

    fn warm_pass(&mut self, sessions: &mut [Tango]) {
        for s in sessions {
            for i in 0..self.pool.len() {
                self.warm_query(s, i);
            }
        }
    }
}
