//! The "adaptable" part of the paper's title: calibration fits the cost
//! factors to the environment, runtime feedback refines them, and the
//! resulting factors steer the middleware/DBMS split.

use tango::algebra::{tup, Attr, Schema, Type, Value};
use tango::core::phys::Algo;
use tango::minidb::{Connection, Database, Link, LinkProfile, WireMode};
use tango::Tango;

fn populated_db(profile: LinkProfile, rows: usize) -> Database {
    let db = Database::new(Link::new(profile));
    let schema = Schema::with_inferred_period(vec![
        Attr::new("PosID", Type::Int),
        Attr::new("Pad", Type::Str),
        Attr::new("T1", Type::Int),
        Attr::new("T2", Type::Int),
    ]);
    db.create_table("POSITION", schema).unwrap();
    let mut x = 7u64;
    let data: Vec<_> = (0..rows)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t1 = (x % 5000) as i64;
            tup![
                (x % (rows as u64 / 6 + 1)) as i64,
                Value::Str(format!("padding-{:016}", x)),
                t1,
                t1 + 1 + (x % 400) as i64
            ]
        })
        .collect();
    db.insert_rows("POSITION", data).unwrap();
    Connection::new(db.clone()).execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
    db
}

/// Calibration must discover the environment: on a slow wire the fitted
/// transfer factor is much larger than on a near-instant one.
#[test]
fn calibration_senses_the_wire() {
    let slow = LinkProfile {
        roundtrip_latency_us: 2_000.0,
        bytes_per_sec: 512.0 * 1024.0,
        row_prefetch: 20,
        mode: WireMode::Virtual,
    };
    let mut tango_slow = Tango::connect(populated_db(slow, 500));
    let f_slow = tango_slow.calibrate().unwrap().factors;

    let mut tango_fast = Tango::connect(populated_db(LinkProfile::instant(), 500));
    let f_fast = tango_fast.calibrate().unwrap().factors;

    assert!(
        f_slow.p_tm > 5.0 * f_fast.p_tm,
        "slow wire p_tm {} should dwarf fast wire p_tm {}",
        f_slow.p_tm,
        f_fast.p_tm
    );
    assert!(f_slow.p_td > f_fast.p_td);
}

/// The placement decision follows the wire. With a *collapsing*
/// aggregate (few groups, few distinct time points, so the result is a
/// handful of rows) the trade is: middleware = ship the whole argument
/// out; DBMS = evaluate in place, ship a tiny result. A free wire favours
/// the middleware's far better algorithm; a glacial wire favours the
/// DBMS.
#[test]
fn placement_follows_transfer_costs() {
    let sql = "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
               GROUP BY PosID ORDER BY PosID";
    let collapsing_db = |profile: LinkProfile| -> Database {
        let db = Database::new(Link::new(profile));
        let schema = Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("Pad", Type::Str),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]);
        db.create_table("POSITION", schema).unwrap();
        let data: Vec<_> = (0..4_000)
            .map(|i: i64| {
                // 2 groups, 10 distinct starts, one duration: the
                // temporal aggregate has at most ~40 rows
                tup![i % 2, Value::Str(format!("padding-{i:032}")), (i % 10) * 5, (i % 10) * 5 + 12]
            })
            .collect();
        db.insert_rows("POSITION", data).unwrap();
        Connection::new(db.clone()).execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
        db
    };

    // near-free wire: middleware aggregation wins (it's algorithmically
    // far better than the constant-period SQL)
    let mut fast = Tango::connect(collapsing_db(LinkProfile::instant()));
    fast.calibrate().unwrap();
    let q = fast.optimize(sql).unwrap();
    assert!(
        q.plan.any(&|a| matches!(a, Algo::TAggrM { .. })),
        "fast wire should aggregate in the middleware:\n{}",
        q.explain()
    );

    // absurdly slow wire: shipping the 4000-row argument out costs far
    // more than evaluating in place and shipping ~40 result rows
    let glacial = LinkProfile {
        roundtrip_latency_us: 50_000.0,
        bytes_per_sec: 16.0 * 1024.0,
        row_prefetch: 10,
        mode: WireMode::Virtual,
    };
    let mut slow = Tango::connect(collapsing_db(glacial));
    slow.calibrate().unwrap();
    let q = slow.optimize(sql).unwrap();
    assert!(
        q.plan.any(&|a| matches!(a, Algo::TAggrD { .. })),
        "glacial wire should keep aggregation in the DBMS:\n{}",
        q.explain()
    );
}

/// Feedback moves a wrong factor towards observed reality.
#[test]
fn feedback_corrects_bad_factors() {
    let mut tango = Tango::connect(populated_db(LinkProfile::default(), 3_000));
    tango.calibrate().unwrap();
    let calibrated_tm = tango.factors().p_tm;

    // sabotage the transfer factor, then let feedback repair it
    let mut bad = *tango.factors();
    bad.p_tm = calibrated_tm * 100.0;
    tango.set_factors(bad);
    tango.options_mut().feedback = true;
    // feedback learns from the wire; with the relation cache on, the
    // repeats would be hits that (deliberately) teach it nothing
    tango.options_mut().cache_budget = None;
    // each observation keeps 70% of the old factor: 100 · 0.7^k falls
    // under 9 from k = 7, and the rest is margin for the observed rate
    for _ in 0..10 {
        tango
            .query("VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION GROUP BY PosID")
            .unwrap();
    }
    let repaired = tango.factors().p_tm;
    assert!(
        repaired < calibrated_tm * 10.0,
        "feedback should pull p_tm back towards reality: sabotaged {} -> {} (calibrated {})",
        calibrated_tm * 100.0,
        repaired,
        calibrated_tm
    );
}

/// Per-step instrumentation: the report's steps account for the work and
/// expose transfers' server time separately.
#[test]
fn execution_report_accounts_steps() {
    let mut tango = Tango::connect(populated_db(LinkProfile::default(), 1_000));
    let (rel, report) = tango
        .query(
            "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION GROUP BY PosID ORDER BY PosID",
        )
        .unwrap();
    assert!(!rel.is_empty());
    assert!(!report.exec.steps.is_empty());
    let transfer = report
        .exec
        .steps
        .iter()
        .find(|s| matches!(s.algo, Algo::TransferM))
        .expect("plan must contain a TRANSFER^M");
    assert!(transfer.out_rows >= 1_000, "transfer should have moved the argument");
    assert!(transfer.out_bytes > 0);
    // exclusive times are non-negative and bounded by inclusive
    for s in &report.exec.steps {
        assert!(s.exclusive_us >= 0.0);
        assert!(s.exclusive_us <= s.inclusive_us + 1.0);
    }
}
