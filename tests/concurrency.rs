//! Concurrency: the mini-DBMS is shared state behind a `parking_lot`
//! RwLock and the wire is a shared atomic clock; many middleware sessions
//! and raw connections must be able to hammer one database concurrently.
//!
//! Since the serving tier, sessions also share one relation
//! cache per database (`docs/CONCURRENCY.md`), so this file additionally
//! pins the cross-session cache semantics: warm hits compound across
//! sessions, racing writers always invalidate, concurrent drains of the
//! same miss populate exactly once, the TinyLFU admission gate holds
//! under pressure, and the chaos seeds survive a 4-thread stampede.

mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;
use support::{chaos_profile, chaos_seeds};
use tango::algebra::{tup, Relation};
use tango::minidb::{Connection, Database, FaultPlan, Link, LinkProfile};
use tango::Tango;

/// `POSITION(PosID, EmpName, T1, T2)` over `profile`: `n` rows over
/// `groups` positions, starts cycling through `0..span`, each `len` long.
fn named_db(profile: LinkProfile, n: i64, groups: i64, span: i64, len: i64) -> Database {
    let db = Database::new(Link::new(profile));
    let conn = Connection::new(db.clone());
    conn.execute("CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(20), T1 INT, T2 INT)").unwrap();
    let rows = (0..n).map(|i| tup![i % groups, format!("emp{i}"), i % span, i % span + len]);
    db.insert_rows("POSITION", rows.collect()).unwrap();
    conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
    db
}

fn seed_db() -> Database {
    named_db(LinkProfile::instant(), 2_000, 50, 100, 10)
}

#[test]
fn concurrent_readers_agree() {
    let db = seed_db();
    let expected = Connection::new(db.clone())
        .query_all("SELECT PosID, COUNT(*) AS C FROM POSITION GROUP BY PosID ORDER BY PosID")
        .unwrap();
    let expected = Arc::new(expected);
    let mut handles = Vec::new();
    for _ in 0..8 {
        let db = db.clone();
        let expected = expected.clone();
        handles.push(thread::spawn(move || {
            let conn = Connection::new(db);
            for _ in 0..20 {
                let got = conn
                    .query_all(
                        "SELECT PosID, COUNT(*) AS C FROM POSITION GROUP BY PosID ORDER BY PosID",
                    )
                    .unwrap();
                assert!(got.list_eq(&expected));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_middleware_sessions() {
    let db = seed_db();
    let mut handles = Vec::new();
    for t in 0..4 {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            let mut tango = Tango::connect(db);
            for i in 0..5 {
                let (rel, _) = tango
                    .query(&format!(
                        "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
                         WHERE PosID < {} GROUP BY PosID ORDER BY PosID",
                        10 + (t * 5 + i) % 30
                    ))
                    .unwrap();
                assert!(!rel.is_empty());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Per-session wire metering: the link's virtual clock is shared by
/// every connection of a database, but each `Connection` meters only its
/// *own* transfers. Concurrent sessions must not cross-charge — every
/// thread's session meter equals the serial baseline exactly (the
/// virtual clock is deterministic), while clones of one connection (and
/// the cursors it hands out) share a single meter.
#[test]
fn sessions_meter_their_own_wire_time() {
    let db = named_db(LinkProfile::default(), 500, 50, 100, 10);
    const SQL: &str = "SELECT PosID, COUNT(*) AS C FROM POSITION GROUP BY PosID ORDER BY PosID";

    // serial baseline: what one session's meter reads after one query
    let baseline = {
        let conn = Connection::new(db.clone());
        conn.query_all(SQL).unwrap();
        conn.wire_time()
    };
    assert!(baseline > std::time::Duration::ZERO);

    // eight concurrent sessions: each must read exactly the baseline,
    // even though all of them advance the same link clock
    let mut handles = Vec::new();
    for _ in 0..8 {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            let conn = Connection::new(db);
            conn.query_all(SQL).unwrap();
            conn.wire_time()
        }));
    }
    for h in handles {
        let session_time = h.join().unwrap();
        assert_eq!(
            session_time, baseline,
            "a concurrent session was charged for another session's transfers"
        );
    }

    // clones share the meter: two queries through clone + original
    // accumulate on one counter...
    let conn = Connection::new(db.clone());
    let clone = conn.clone();
    conn.query_all(SQL).unwrap();
    clone.query_all(SQL).unwrap();
    assert_eq!(conn.wire_time(), clone.wire_time());
    assert_eq!(conn.wire_time(), baseline * 2);

    // ...while the link's global clock keeps the grand total
    assert!(db.link().total() >= baseline * 11);
}

/// A second session over the same database is warm from birth: the
/// fragment session A paid to transfer is a hit for session B, with not
/// one additional wire round trip — while a `connect_private` session
/// stays cold and pays the full transfer again.
#[test]
fn cross_session_warm_hits_compound() {
    let db = seed_db();
    const Q: &str = "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
                     WHERE PosID < 20 GROUP BY PosID ORDER BY PosID";

    let mut a = Tango::connect(db.clone());
    let (cold, _) = a.query(Q).unwrap();
    assert!(a.cache().stats().insertions >= 1, "session A must populate");

    let mut b = Tango::connect(db.clone());
    assert!(Arc::ptr_eq(a.cache(), b.cache()));
    b.refresh_statistics().unwrap(); // catalog reads aside, measure the query alone
    let hits_before = b.cache().stats().hits;
    let rt_before = db.link().roundtrips();
    let (warm, _) = b.query(Q).unwrap();
    assert_eq!(db.link().roundtrips(), rt_before, "a cross-session warm hit touched the wire");
    assert!(b.cache().stats().hits > hits_before);
    assert!(warm.list_eq(&cold), "warm cross-session result differs\n{cold}\n{warm}");

    // a private session shares nothing: same query, cold transfer
    let mut p = Tango::connect_private(db.clone());
    p.refresh_statistics().unwrap();
    let rt_before = db.link().roundtrips();
    let (private, _) = p.query(Q).unwrap();
    assert!(db.link().roundtrips() > rt_before, "a private session cannot be warm");
    assert!(private.list_eq(&cold));
    assert_eq!(p.cache().stats().hits, 0);
}

/// N reader threads × a mixed query set, racing writer threads that
/// churn rows *outside* every read predicate: each read must come back
/// byte-identical to the single-threaded baseline, while the writers'
/// version bumps exercise cross-session invalidation the whole time.
#[test]
fn mixed_read_write_stress_matches_single_thread_baseline() {
    let db = seed_db();
    let queries: Vec<String> = (0..6)
        .map(|i| {
            format!(
                "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
                 WHERE PosID < {} GROUP BY PosID ORDER BY PosID",
                10 + i * 5
            )
        })
        .collect();
    // single-threaded baseline, computed before any writer starts
    let baselines: Vec<Relation> = {
        let mut t = Tango::connect(db.clone());
        queries.iter().map(|q| t.query(q).unwrap().0).collect()
    };

    // writers insert/delete PosID ≥ 9000 — invisible to every read
    // predicate (PosID < 35), but each statement bumps POSITION's
    // write-version and invalidates the shared entries under the readers.
    // (DML also marks ANALYZE statistics stale, so every session collects
    // its catalog *before* the barrier releases the writers.)
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(6)); // 4 readers + 2 writers
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let db = db.clone();
            let stop = stop.clone();
            let start = start.clone();
            thread::spawn(move || {
                let conn = Connection::new(db);
                start.wait();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = 9_000 + w * 100 + (i % 50);
                    conn.execute(&format!("INSERT INTO POSITION VALUES ({id}, 'ghost', 1, 2)"))
                        .unwrap();
                    conn.execute(&format!("DELETE FROM POSITION WHERE PosID = {id}")).unwrap();
                    i += 1;
                }
            })
        })
        .collect();

    let mut readers = Vec::new();
    for t in 0..4 {
        let db = db.clone();
        let queries = queries.clone();
        let baselines = baselines.clone();
        let start = start.clone();
        readers.push(thread::spawn(move || {
            let mut tango = Tango::connect(db);
            tango.refresh_statistics().unwrap();
            start.wait();
            for round in 0..6 {
                for (q, base) in queries.iter().zip(&baselines) {
                    let (rel, _) = tango.query(q).unwrap();
                    assert!(
                        rel.list_eq(base),
                        "thread {t} round {round} diverged from baseline\nquery: {q}\n\
                         expected:\n{base}\ngot:\n{rel}"
                    );
                }
            }
        }));
    }
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    let s = Tango::connect(db).cache().stats();
    assert!(s.invalidations >= 1, "racing writers never invalidated anything: {s:?}");
    assert!(s.misses >= 1, "{s:?}");
}

/// A writer racing readers on the rows they *do* read: lazy write-version
/// validation means no interleaving can leave a stale relation being
/// served — once the dust settles, the shared-cache answer equals a
/// cache-off session's answer over the final database state.
#[test]
fn racing_writes_always_invalidate() {
    let db = seed_db();
    const Q: &str = "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
                     WHERE PosID = 0 GROUP BY PosID ORDER BY PosID";

    // readers collect their catalogs before the barrier frees the
    // writer: DML marks ANALYZE statistics stale
    let start = Arc::new(Barrier::new(4)); // 3 readers + 1 writer
    let writer = {
        let db = db.clone();
        let start = start.clone();
        thread::spawn(move || {
            let conn = Connection::new(db);
            start.wait();
            for _ in 0..20 {
                // rows inside the read predicate: every statement changes
                // the answer readers would get
                conn.execute("INSERT INTO POSITION VALUES (0, 'racer', 500, 510)").unwrap();
                conn.execute("DELETE FROM POSITION WHERE T1 = 500").unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = db.clone();
            let start = start.clone();
            thread::spawn(move || {
                let mut tango = Tango::connect(db);
                tango.refresh_statistics().unwrap();
                start.wait();
                for _ in 0..20 {
                    let (rel, _) = tango.query(Q).unwrap();
                    assert!(!rel.is_empty());
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    // quiesced: re-ANALYZE (statistics went stale under the DML; the
    // paper's middleware would do the same before re-planning), then the
    // warm answer must reflect the final table state
    db.analyze("POSITION").unwrap();
    let mut warm = Tango::connect(db.clone());
    let (got, _) = warm.query(Q).unwrap();
    let mut cold = Tango::connect_private(db.clone());
    cold.options_mut().cache_budget = None;
    let (fresh, _) = cold.query(Q).unwrap();
    assert!(got.list_eq(&fresh), "a stale cached relation survived racing writes");

    // and deterministically: a write between two warm runs must be
    // settled — refreshed in place by delta replay or dropped as stale
    // (versions were read before the populating SQL ran, so even a write
    // racing the populate could not be served unsettled)
    let before = warm.cache().stats();
    db.insert_rows("POSITION", vec![tup![0i64, "late", 700, 710]]).unwrap();
    db.analyze("POSITION").unwrap();
    let (after_write, _) = warm.query(Q).unwrap();
    let s = warm.cache().stats();
    assert!(
        s.invalidations > before.invalidations || s.refreshes > before.refreshes,
        "the write was neither refreshed nor invalidated: {s:?}"
    );
    assert!(
        after_write.tuples().iter().any(|t| t[2].as_int() == Some(700)),
        "the post-write run served a stale relation:\n{after_write}"
    );
}

/// Exactly-one populate under sharing: four sessions released by a
/// barrier onto the same cold fragment may all drain the miss, but the
/// store must end up with a single entry, counted once — byte-for-byte
/// what one session alone produces.
#[test]
fn concurrent_same_miss_populates_once() {
    const Q: &str = "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
                     WHERE PosID < 25 GROUP BY PosID ORDER BY PosID";
    // control: one session, one populate
    let control_db = seed_db();
    let mut control = Tango::connect(control_db);
    control.query(Q).unwrap();
    let (control_len, control_bytes) = (control.cache().len(), control.cache().bytes());
    assert!(control_len >= 1);

    let db = seed_db();
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                let mut tango = Tango::connect(db);
                tango.refresh_statistics().unwrap();
                barrier.wait();
                tango.query(Q).unwrap().0
            })
        })
        .collect();
    let results: Vec<Relation> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &results[1..] {
        assert!(r.list_eq(&results[0]));
    }

    let cache = Tango::connect(db).cache().clone();
    assert_eq!(cache.len(), control_len, "racing drains left extra entries");
    assert_eq!(cache.bytes(), control_bytes, "racing populates double-counted bytes");
    let s = cache.stats();
    assert_eq!(
        s.insertions as usize, control_len,
        "each fragment must be populated exactly once: {s:?}"
    );
    // every racing drain either hit, or was deduplicated on insert
    assert_eq!(s.hits + s.duplicate_populates + s.insertions, s.hits + s.misses, "{s:?}");
}

/// The TinyLFU gate on a pressured shared cache: once the budget is
/// pinned to the working set, colder newcomers are rejected (not
/// admitted by churn) and the byte bound holds.
#[test]
fn admission_gate_protects_a_pressured_cache() {
    let db = seed_db();
    let mut tango = Tango::connect(db.clone());
    let hot = "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
               WHERE PosID = 1 GROUP BY PosID ORDER BY PosID";
    tango.query(hot).unwrap();
    let resident = tango.cache().bytes();
    assert!(resident > 0);

    // pin the budget to exactly the resident working set: every further
    // distinct fragment must now win a contest to enter
    tango.options_mut().cache_budget = Some(resident);
    for id in [2, 3, 4] {
        tango
            .query(&format!(
                "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION \
                 WHERE PosID = {id} GROUP BY PosID ORDER BY PosID"
            ))
            .unwrap();
        assert!(tango.cache().bytes() <= resident, "budget breached under admission");
    }
    let s = tango.cache().stats();
    assert!(s.admission_rejects >= 1, "no newcomer was ever gated: {s:?}");
    // the hot entry survived the stampede of one-off fragments
    let rt_before = db.link().roundtrips();
    tango.query(hot).unwrap();
    assert_eq!(db.link().roundtrips(), rt_before, "the hot fragment was churned out");
}

/// The chaos seeds, under four concurrent shared-cache sessions: seeded
/// transient fault schedules on the shared wire must leave every
/// thread's results byte-identical to the fault-free baseline (faulted
/// transfers never populate, so no thread can be served a partial
/// relation another thread abandoned).
#[test]
fn chaos_seeds_survive_four_threads() {
    let seeds = chaos_seeds();
    let db = named_db(chaos_profile(), 400, 20, 60, 8);
    let queries: Vec<String> = vec![
        "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION GROUP BY PosID ORDER BY PosID"
            .to_string(),
        "VALIDTIME SELECT PosID, COUNT(PosID) AS C FROM POSITION WHERE PosID < 10 \
         GROUP BY PosID ORDER BY PosID"
            .to_string(),
    ];
    let baselines: Vec<Relation> = {
        let mut t = Tango::connect_private(db.clone());
        t.options_mut().cache_budget = None;
        queries.iter().map(|q| t.query(q).unwrap().0).collect()
    };

    let mut total_faults = 0u64;
    for seed in seeds {
        let plan = Arc::new(
            FaultPlan::random(seed, 0.15)
                .with_budget(3)
                .with_spikes(0.05, Duration::from_millis(1)),
        );
        db.link().set_injector(plan.clone());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                let queries = queries.clone();
                let baselines = baselines.clone();
                thread::spawn(move || {
                    let mut tango = Tango::connect(db);
                    for round in 0..2 {
                        for (q, base) in queries.iter().zip(&baselines) {
                            let (rel, _) = tango.query(q).unwrap_or_else(|e| {
                                panic!("seed {seed:#x} thread {t}: chaos run failed: {e}")
                            });
                            assert!(
                                rel.list_eq(base),
                                "seed {seed:#x} thread {t} round {round}: \
                                 chaos result differs from baseline\nquery: {q}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        db.link().clear_injector();
        total_faults += plan.faults_injected();
    }
    assert!(total_faults > 0, "no chaos schedule ever fired under the thread stampede");
}

/// Writers (temp-table churn from `TRANSFER^D`-style loads) interleaved
/// with readers must neither deadlock nor corrupt the catalog.
#[test]
fn readers_with_temp_table_churn() {
    let db = seed_db();
    let writer = {
        let db = db.clone();
        thread::spawn(move || {
            let conn = Connection::new(db);
            for i in 0..30 {
                let name = format!("TMP_CHURN_{i}");
                conn.load_direct(
                    &name,
                    tango::algebra::Schema::new(vec![tango::algebra::Attr::new(
                        "X",
                        tango::algebra::Type::Int,
                    )]),
                    (0..100).map(|j| tup![j as i64]).collect(),
                )
                .unwrap();
                conn.execute(&format!("DROP TABLE {name}")).unwrap();
            }
        })
    };
    let reader = {
        let db = db.clone();
        thread::spawn(move || {
            let conn = Connection::new(db);
            for _ in 0..50 {
                let r = conn.query_all("SELECT COUNT(*) AS C FROM POSITION").unwrap();
                assert_eq!(r.tuples()[0][0].as_int(), Some(2_000));
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    // all temp tables gone
    assert!(db.table_names().iter().all(|t| !t.starts_with("TMP_CHURN")));
}
