//! End-to-end reproduction of the paper's worked example (Figure 3)
//! through the public API, exercising parser → optimizer → translator →
//! engine → DBMS.

use tango::algebra::{tup, SortSpec};
use tango::minidb::{Connection, Database, Link, LinkProfile};
use tango::uis::figure3;
use tango::Tango;

fn setup() -> (Database, Tango) {
    let db = Database::new(Link::new(LinkProfile::default()));
    let conn = Connection::new(db.clone());
    let pos = figure3::position();
    db.create_table("POSITION", pos.schema().as_ref().clone()).unwrap();
    db.insert_rows("POSITION", pos.into_tuples()).unwrap();
    conn.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
    let tango = Tango::connect(db.clone());
    (db, tango)
}

#[test]
fn figure3c_temporal_aggregation() {
    let (_db, mut tango) = setup();
    let (rel, report) = tango
        .query(
            "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
             GROUP BY PosID ORDER BY PosID",
        )
        .unwrap();
    // layout (PosID, Cnt, T1, T2); content of Figure 3(c)
    assert_eq!(
        rel.tuples(),
        &[tup![1, 1, 2, 5], tup![1, 2, 5, 20], tup![1, 1, 20, 25], tup![2, 1, 5, 10]]
    );
    // initial plan assigns everything to the DBMS with one T^M on top
    let initial = report.optimized.logical.to_string();
    assert!(initial.starts_with("T^M"), "{initial}");
}

#[test]
fn figure3b_example_query() {
    let (_db, mut tango) = setup();
    let (rel, _) = tango
        .query(
            "VALIDTIME SELECT P.PosID, P.EmpName, A.Cnt FROM \
               (VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID) A, \
               POSITION P \
             WHERE A.PosID = P.PosID ORDER BY P.PosID",
        )
        .unwrap();
    let expected = figure3::query_result();
    // our layout (PosID, EmpName, Cnt, T1, T2) matches figure3::query_result
    assert_eq!(rel.len(), expected.len());
    let mut got = rel.clone();
    got.sort_by(&SortSpec::by(["PosID", "EmpName", "T1"]));
    let mut want = expected.clone();
    want.sort_by(&SortSpec::by(["PosID", "EmpName", "T1"]));
    assert_eq!(got.tuples(), want.tuples());
    // and the result arrives ordered by PosID as requested
    assert!(rel.is_sorted_by(&SortSpec::by(["PosID"])));
}
