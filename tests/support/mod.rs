//! Fixtures shared by the integration suites: the five-column POSITION
//! table with its keyed and its tied row sets, the 120-row chaos
//! fixture, the UIS tables at smoke-test scale, and the cost factors
//! that force every operator to one side of the wire. Each suite includes this module with `mod support;` and uses
//! the part it needs.
#![allow(dead_code)] // each suite compiles its own copy and uses a subset

use tango::algebra::date::day;
use tango::algebra::{tup, Attr, Schema, Type, Value};
use tango::core::cost::CostFactors;
use tango::minidb::{Connection, Database, Link, LinkProfile, WireMode};
use tango::uis::queries::q3_sql;
use tango::uis::{generate_employee, generate_position, UisConfig};

/// `(PosID, EmpID, PayRate, T1, T2)`: one row of [`position_db`].
pub type Row = (i64, i64, f64, i32, i32);

/// The rewrite packs the serving workloads run with, in order.
pub const ALL_PACKS: [&str; 3] = ["temporal-normalize", "subquery-to-join", "compat"];

/// Each rewrite pack alone, in [`ALL_PACKS`] order, then all three.
pub fn pack_sets() -> Vec<Vec<&'static str>> {
    let mut sets: Vec<Vec<&'static str>> = ALL_PACKS.iter().map(|p| vec![*p]).collect();
    sets.push(ALL_PACKS.to_vec());
    sets
}

/// The spelling each rewrite pack exists to fix, in [`ALL_PACKS`] order,
/// over POSITION and [`create_posinfo`]'s POSINFO. Every one orders on
/// all it projects, so results compare byte for byte.
pub const REWRITE_TARGETS: [&str; 3] = [
    // temporal-normalize: an Overlaps window hidden behind NOT
    "SELECT P.PosID, P.T1, I.Info FROM POSITION P, POSINFO I \
     WHERE P.PosID = I.PosID AND NOT (P.T1 > 40) AND NOT (P.T2 < 10) \
     ORDER BY P.PosID, P.T1, I.Info",
    // subquery-to-join: the join key hidden behind NOT (a <> b)
    "SELECT P.PosID, P.T1, I.Info \
     FROM (SELECT PosID, Info FROM POSINFO) I, POSITION P \
     WHERE NOT (I.PosID <> P.PosID) ORDER BY P.PosID, P.T1, I.Info",
    // compat: the Figure 5 plain-SQL rendering of TJOIN^D
    "SELECT A.PosID, A.EmpID, B.EmpID AS EmpID2, \
     GREATEST(A.T1, B.T1) AS S1, LEAST(A.T2, B.T2) AS S2 \
     FROM POSITION A, POSITION B \
     WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND B.T1 < A.T2 \
     ORDER BY A.PosID, A.EmpID, EmpID2, S1, S2",
];

/// The figure-query family the rewrite packs mostly do *not* fire on.
/// Their ORDER BY keys do not pin a total order.
pub const REWRITE_FIGURES: [&str; 5] = [
    "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION GROUP BY PosID ORDER BY PosID",
    "VALIDTIME SELECT COUNT(EmpID) AS C, MIN(PayRate) AS MN, MAX(PayRate) AS MX \
     FROM POSITION WHERE PosID < 3 GROUP BY PosID",
    "VALIDTIME SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
     WHERE A.PosID = B.PosID AND A.T1 < 40 AND B.T1 < 40 ORDER BY A.PosID",
    "VALIDTIME SELECT P.PosID, C, P.EmpID FROM \
       (VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION GROUP BY PosID) A, \
       POSITION P WHERE A.PosID = P.PosID AND P.PayRate > 5 ORDER BY P.PosID",
    "SELECT EmpID, PosID FROM POSITION WHERE PayRate > 5 AND PosID < 4 ORDER BY EmpID, PosID",
];

/// Creates the empty `POSINFO(PosID, Info)` table the rewrite targets
/// join POSITION with.
pub fn create_posinfo(db: &Database) {
    let posinfo = Schema::new(vec![Attr::new("PosID", Type::Int), Attr::new("Info", Type::Str)]);
    db.create_table("POSINFO", posinfo).unwrap();
}

/// A database over `profile` holding `POSITION(PosID, EmpID, PayRate, T1,
/// T2)` — `[T1, T2)` its period — with `rows`, analyzed, its wire
/// counters reset.
pub fn position_db(profile: LinkProfile, rows: &[Row]) -> Database {
    let db = Database::new(Link::new(profile));
    let schema = Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("EmpID", Type::Int),
        Attr::new("PayRate", Type::Double),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ]);
    db.create_table("POSITION", schema).unwrap();
    db.insert_rows(
        "POSITION",
        rows.iter().map(|&(p, e, pay, t1, t2)| tup![p, e, Value::Double(pay), t1, t2]).collect(),
    )
    .unwrap();
    db.analyze("POSITION").unwrap();
    db.link().reset();
    db
}

/// `n` rows with distinct `PosID`s, so a fragment delivered on `PosID`
/// is delivered on a key and every refresh merge is order-determined.
pub fn keyed_rows(n: usize) -> Vec<Row> {
    (0..n as i64).map(|i| (i, 1 + i % 20, (i % 37) as f64 / 3.0, 0, 30 + (i % 11) as i32)).collect()
}

/// A wire slow enough that batching matters: a prefetch of 8 rows makes
/// a Query-1 run a dozen-plus round trips for a fault schedule to hit.
pub fn chaos_profile() -> LinkProfile {
    LinkProfile {
        roundtrip_latency_us: 100.0,
        bytes_per_sec: 4.0 * 1024.0 * 1024.0,
        row_prefetch: 8,
        mode: WireMode::Virtual,
    }
}

/// A `u64` from the environment variable `name`, decimal or `0x…` hex;
/// `None` when it is unset.
pub fn env_u64(name: &str) -> Option<u64> {
    let s = std::env::var(name).ok()?;
    let s = s.trim();
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("bad {name}: {s}")))
}

/// The chaos seeds a run sweeps: `TANGO_CHAOS_SEED` (one seed) overrides
/// the fixed default set, so CI can shard and a failure can be replayed.
pub fn chaos_seeds() -> Vec<u64> {
    match env_u64("TANGO_CHAOS_SEED") {
        Some(seed) => vec![seed],
        None => vec![0xA11CE, 0x5EED5, 0xC0FFEE],
    }
}

/// `n` deterministic rows over 7 `PosID`s with periods of 1 to 25 ticks
/// starting in `0..60`: many rows, and many constant periods, per
/// group, so an ORDER BY on `PosID` leaves ties whose order a run must
/// keep. An LCG, not `rand`, so the rows can never drift under a shim
/// change.
pub fn lcg_rows(n: usize) -> Vec<Row> {
    let mut state = 0x1234_5678_9ABC_DEF0u64;
    let mut next = move |m: u64| -> i64 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % m) as i64
    };
    (0..n)
        .map(|_| {
            let t1 = next(60);
            let (p, e, pay) = (1 + next(7), 1 + next(40), next(200) as f64 / 10.0);
            (p, e, pay, t1 as i32, (t1 + 1 + next(25)) as i32)
        })
        .collect()
}

/// POSITION ([`lcg_rows`], 120 rows) + EMPLOYEE (40 rows) over
/// [`chaos_profile`].
pub fn seed_db() -> Database {
    let db = position_db(chaos_profile(), &lcg_rows(120));
    let employee =
        Schema::new(vec![Attr::new("EmpID", Type::Int), Attr::new("EmpName", Type::Str)]);
    db.create_table("EMPLOYEE", employee).unwrap();
    db.insert_rows("EMPLOYEE", (1..=40).map(|i: i64| tup![i, format!("emp{i}")]).collect())
        .unwrap();
    db.analyze("EMPLOYEE").unwrap();
    db.link().reset();
    db
}

/// The UIS POSITION and EMPLOYEE tables at `UisConfig::small`, analyzed,
/// with the `EMP_PK` index the serving workloads create.
pub fn uis_db() -> Database {
    let cfg = UisConfig::small(0xEC1);
    let db = Database::new(Link::new(LinkProfile::instant()));
    for (name, rel) in
        [("POSITION", generate_position(&cfg)), ("EMPLOYEE", generate_employee(&cfg))]
    {
        db.create_table(name, rel.schema().as_ref().clone()).unwrap();
        db.insert_rows(name, rel.into_tuples()).unwrap();
        db.analyze(name).unwrap();
    }
    Connection::new(db.clone()).execute("CREATE INDEX EMP_PK ON EMPLOYEE (EmpID)").unwrap();
    db
}

/// The eight statements of the benchmark's serving pool (`serve-warm`,
/// `serve-churn`) over [`uis_db`], without the per-seed jitter.
pub fn serving_pool() -> Vec<String> {
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
    pool.push(q3_sql(day(1988, 1, 1)));
    pool.push(
        "SELECT PosID, EmpID, T1, T2 FROM POSITION WHERE PosID < 36 \
         AND NOT (T1 > DATE '1996-01-01') AND NOT (T2 < DATE '1995-01-01') \
         ORDER BY PosID, EmpID, T1, T2"
            .to_string(),
    );
    pool
}

/// Factors fitted to a slow wire, pinned rather than measured so no plan
/// depends on the load of the machine: transfers are dear per byte, DBMS
/// work is cheap. Under them a misestimated selection below a join
/// changes the join's best placement, which is what the misestimate
/// monitor exists to catch.
pub fn wire_fitted() -> CostFactors {
    CostFactors {
        p_tm: 5.0,
        p_td: 4.5,
        p_td_fixed: 200.0,
        p_jd: 0.06,
        p_mjm: 0.02,
        ..Default::default()
    }
}

/// Factors that price every middleware algorithm at nothing and every
/// DBMS one beyond reach: the optimizer places all it can in the
/// middleware.
pub fn mid_heavy() -> CostFactors {
    CostFactors {
        p_tm: 1e-9,
        p_td: 1e9,
        p_sem: 1e-9,
        p_pm: 1e-9,
        p_sm: 1e-9,
        p_sd: 1e9,
        p_taggm1: 1e-9,
        p_mjm: 1e-9,
        p_dupm: 1e-9,
        p_dupd: 1e9,
        p_taggd1: 1e9,
        p_jd: 1e9,
        ..Default::default()
    }
}

/// The mirror of [`mid_heavy`]: the optimizer places all it can in the
/// DBMS. The transfer keeps its default price — one priced beyond reach
/// would favour shipping two join inputs over one larger join result.
pub fn dbms_heavy() -> CostFactors {
    CostFactors {
        p_sem: 1e9,
        p_pm: 1e9,
        p_sm: 1e9,
        p_taggm1: 1e9,
        p_mjm: 1e9,
        p_mjout: 1e9,
        p_dupm: 1e9,
        p_taggd1: 1e-9,
        p_jd: 1e-9,
        p_dupd: 1e-9,
        ..Default::default()
    }
}
