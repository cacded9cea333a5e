//! SQL conformance suite for the mini-DBMS substrate: each case runs one
//! statement battery against a fresh database and checks exact results.
//! The dialect must stay solid — the Translator-To-SQL leans on every
//! corner exercised here.

use tango::algebra::{tup, Tuple, Value};
use tango::minidb::{Connection, Database};

fn fresh() -> Connection {
    let c = Connection::new(Database::in_memory());
    c.execute("CREATE TABLE T (K INT, V INT, S VARCHAR(16), D DATE)").unwrap();
    c.execute(
        "INSERT INTO T VALUES \
         (1, 10, 'alpha', DATE '1995-01-01'), \
         (1, 20, 'beta',  DATE '1996-06-15'), \
         (2, 30, 'gamma', DATE '1997-12-31'), \
         (2, NULL, 'delta', NULL), \
         (3, 50, 'alpha', DATE '1995-01-01')",
    )
    .unwrap();
    c
}

fn q(c: &Connection, sql: &str) -> Vec<Tuple> {
    c.query_all(sql).unwrap_or_else(|e| panic!("{e}\nsql: {sql}")).into_tuples()
}

#[test]
fn arithmetic_and_aliases() {
    let c = fresh();
    assert_eq!(
        q(&c, "SELECT K + 1 AS KP, V * 2 AS VV FROM T WHERE K = 1 ORDER BY VV"),
        vec![tup![2, 20], tup![2, 40]]
    );
    assert_eq!(
        q(&c, "SELECT V / 4 AS Q FROM T WHERE S = 'alpha' ORDER BY Q"),
        vec![tup![2], tup![12]]
    );
}

/// `i64::MIN / -1` overflows; over stored data it wraps, as `+`, `-`
/// and `*` do, in the DBMS and in the middleware alike.
#[test]
fn integer_division_overflow_wraps() {
    let db = Database::in_memory();
    let c = Connection::new(db.clone());
    c.execute("CREATE TABLE W (A INT, B INT)").unwrap();
    db.insert_rows("W", vec![tup![i64::MIN, -1]]).unwrap();
    c.execute("ANALYZE TABLE W COMPUTE STATISTICS").unwrap();
    let sql = "SELECT A / B AS Q FROM W";
    assert_eq!(q(&c, sql), vec![tup![i64::MIN]]);
    let (rel, _) = tango::Tango::connect(db).query(sql).unwrap();
    assert_eq!(rel.into_tuples(), vec![tup![i64::MIN]]);
}

#[test]
fn null_semantics() {
    let c = fresh();
    // NULL never satisfies comparisons
    assert_eq!(q(&c, "SELECT K FROM T WHERE V > 0 ORDER BY K, V").len(), 4);
    // IS NULL / IS NOT NULL
    assert_eq!(q(&c, "SELECT S FROM T WHERE V IS NULL"), vec![tup!["delta"]]);
    // COUNT(col) skips nulls, COUNT(*) does not (global aggregate)
    let counts = q(&c, "SELECT COUNT(V) AS CV, COUNT(*) AS CS FROM T");
    assert_eq!(counts, vec![tup![4, 5]]);
    // aggregates over all-null groups produce NULL
    let r = q(&c, "SELECT K, SUM(V) AS SV FROM T WHERE K = 2 GROUP BY K");
    assert_eq!(r[0][1], Value::Int(30));
}

#[test]
fn date_comparisons() {
    let c = fresh();
    assert_eq!(
        q(&c, "SELECT S FROM T WHERE D >= DATE '1996-01-01' ORDER BY S"),
        vec![tup!["beta"], tup!["gamma"]]
    );
    assert_eq!(
        q(&c, "SELECT S FROM T WHERE D BETWEEN DATE '1994-01-01' AND DATE '1995-12-31' ORDER BY S"),
        vec![tup!["alpha"], tup!["alpha"]]
    );
}

#[test]
fn string_handling() {
    let c = fresh();
    c.execute("INSERT INTO T VALUES (9, 1, 'o''brien', NULL)").unwrap();
    assert_eq!(q(&c, "SELECT K FROM T WHERE S = 'o''brien'"), vec![tup![9]]);
    assert_eq!(q(&c, "SELECT DISTINCT S FROM T WHERE S = 'alpha'"), vec![tup!["alpha"]]);
}

#[test]
fn grouping_and_having() {
    let c = fresh();
    assert_eq!(
        q(&c, "SELECT K, COUNT(*) AS C, MAX(V) AS M FROM T GROUP BY K ORDER BY K"),
        vec![tup![1, 2, 20], tup![2, 2, 30], tup![3, 1, 50]]
    );
    assert_eq!(
        q(&c, "SELECT K, COUNT(*) AS C FROM T GROUP BY K HAVING C > 1 ORDER BY K"),
        vec![tup![1, 2], tup![2, 2]]
    );
    // AVG yields doubles
    let avg = q(&c, "SELECT K, AVG(V) AS A FROM T WHERE K = 1 GROUP BY K");
    assert_eq!(avg[0][1], Value::Double(15.0));
}

#[test]
fn order_by_directions_and_hidden_columns() {
    let c = fresh();
    assert_eq!(
        q(&c, "SELECT S FROM T WHERE V IS NOT NULL ORDER BY V DESC"),
        vec![tup!["alpha"], tup!["gamma"], tup!["beta"], tup!["alpha"]]
    );
    // ordering by a column not in the projection
    assert_eq!(
        q(&c, "SELECT S FROM T WHERE K < 3 AND V IS NOT NULL ORDER BY V"),
        vec![tup!["alpha"], tup!["beta"], tup!["gamma"]]
    );
}

#[test]
fn joins_products_and_hints() {
    let c = fresh();
    c.execute("CREATE TABLE U (K INT, W VARCHAR(8))").unwrap();
    c.execute("INSERT INTO U VALUES (1, 'one'), (2, 'two'), (4, 'four')").unwrap();
    let expect = vec![tup![1, "one"], tup![1, "one"], tup![2, "two"], tup![2, "two"]];
    for hint in ["", "/*+ USE_HASH */", "/*+ USE_MERGE */", "/*+ USE_NL */"] {
        assert_eq!(
            q(&c, &format!("SELECT {hint} T.K, W FROM T, U WHERE T.K = U.K ORDER BY T.K, W")),
            expect,
            "hint {hint}"
        );
    }
    // cartesian product
    assert_eq!(q(&c, "SELECT T.K, U.K FROM T, U").len(), 15);
    // index nested loops under USE_NL with an index present
    c.execute("CREATE INDEX UK ON U (K)").unwrap();
    assert_eq!(
        q(&c, "SELECT /*+ USE_NL */ T.K, W FROM T, U WHERE T.K = U.K ORDER BY T.K, W"),
        expect
    );
}

#[test]
fn subqueries_and_unions() {
    let c = fresh();
    assert_eq!(
        q(
            &c,
            "SELECT X.M FROM (SELECT K, MAX(V) AS M FROM T GROUP BY K) X WHERE X.M > 20 ORDER BY X.M"
        ),
        vec![tup![30], tup![50]]
    );
    assert_eq!(
        q(&c, "SELECT K FROM T WHERE K = 1 UNION SELECT K FROM T WHERE K > 1 ORDER BY K"),
        vec![tup![1], tup![2], tup![3]]
    );
    assert_eq!(
        q(&c, "SELECT K AS A FROM T WHERE K = 1 UNION ALL SELECT K FROM T WHERE K = 1").len(),
        4
    );
}

#[test]
fn greatest_least_and_nested_expressions() {
    let c = fresh();
    assert_eq!(
        q(&c, "SELECT GREATEST(V, 25) AS G, LEAST(V, 25) AS L FROM T WHERE K = 1 ORDER BY V"),
        vec![tup![25, 10], tup![25, 20]]
    );
    // NULL in GREATEST poisons the result (Oracle semantics)
    let r = q(&c, "SELECT GREATEST(V, 1) AS G FROM T WHERE V IS NULL");
    assert_eq!(r[0][0], Value::Null);
}

#[test]
fn ddl_lifecycle_and_errors() {
    let c = fresh();
    assert!(c.execute("CREATE TABLE T (A INT)").is_err(), "duplicate table");
    assert!(c.query("SELECT nope FROM T").is_err(), "unknown column");
    assert!(c.query("SELECT K FROM NOPE").is_err(), "unknown table");
    assert!(c.execute("INSERT INTO T VALUES (1)").is_err(), "arity mismatch");
    assert!(c.query("SELECT K FROM T WHERE").is_err(), "syntax error");
    c.execute("DROP TABLE T").unwrap();
    assert!(c.query("SELECT K FROM T").is_err());
}

#[test]
fn explain_describes_plan() {
    let c = fresh();
    let lines = q(&c, "EXPLAIN SELECT K, COUNT(*) AS C FROM T WHERE V > 5 GROUP BY K ORDER BY K");
    let text: Vec<String> = lines.iter().map(|t| t[0].as_str().unwrap().to_string()).collect();
    let joined = text.join("\n");
    assert!(joined.contains("SORT"), "{joined}");
    assert!(joined.contains("HASH GROUP BY"), "{joined}");
    assert!(joined.contains("TABLE SCAN T"), "{joined}");
    assert!(joined.contains("FILTER"), "{joined}");
}

#[test]
fn analyze_then_dictionary_views() {
    let c = fresh();
    c.execute("ANALYZE TABLE T COMPUTE STATISTICS").unwrap();
    let r = q(&c, "SELECT NUM_ROWS FROM USER_TABLES WHERE TABLE_NAME = 'T'");
    assert_eq!(r, vec![tup![5]]);
    let r = q(
        &c,
        "SELECT NUM_DISTINCT, NUM_NULLS FROM USER_TAB_COLUMNS \
         WHERE TABLE_NAME = 'T' AND COLUMN_NAME = 'V'",
    );
    assert_eq!(r, vec![tup![4, 1]]);
}

#[test]
fn update_and_delete() {
    let c = fresh();
    // UPDATE with expression over the old row
    let o = c.execute("UPDATE T SET V = V + 100 WHERE K = 1").unwrap();
    assert_eq!(o.rows_affected, 2);
    assert_eq!(q(&c, "SELECT V FROM T WHERE K = 1 ORDER BY V"), vec![tup![110], tup![120]]);
    // swap-style multi-assignment uses pre-update values
    c.execute("CREATE TABLE P (A INT, B INT)").unwrap();
    c.execute("INSERT INTO P VALUES (1, 2)").unwrap();
    c.execute("UPDATE P SET A = B, B = A").unwrap();
    assert_eq!(q(&c, "SELECT A, B FROM P"), vec![tup![2, 1]]);
    // DELETE with predicate, then unconditional
    let o = c.execute("DELETE FROM T WHERE V IS NULL").unwrap();
    assert_eq!(o.rows_affected, 1);
    let o = c.execute("DELETE FROM T").unwrap();
    assert_eq!(o.rows_affected, 4);
    assert!(q(&c, "SELECT K FROM T").is_empty());
    // indexes stay consistent after DML
    c.execute("CREATE INDEX TK ON T (K)").unwrap();
    c.execute("INSERT INTO T VALUES (7, 1, 'x', NULL), (8, 2, 'y', NULL)").unwrap();
    c.execute("DELETE FROM T WHERE K = 7").unwrap();
    assert_eq!(q(&c, "SELECT /*+ USE_NL */ S FROM T WHERE K = 8"), vec![tup!["y"]]);
}

#[test]
fn validtime_is_rejected_by_the_dbms() {
    let c = fresh();
    let err = c
        .query("VALIDTIME SELECT K, COUNT(K) AS C FROM T GROUP BY K")
        .err()
        .expect("VALIDTIME must be rejected")
        .to_string();
    assert!(err.contains("VALIDTIME"), "{err}");
}
