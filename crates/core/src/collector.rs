//! The Statistics Collector (Figure 1): obtains statistics on base
//! relations and attributes from the DBMS catalog and provides them to
//! the optimizer.
//!
//! Faithful to the paper ("either by querying base relations or by
//! querying the statistics relations that exist in different formats in
//! the various DBMSs"), the collector issues plain SQL against the
//! mini-DBMS's Oracle-style dictionary views `USER_TABLES`,
//! `USER_TAB_COLUMNS` and `USER_HISTOGRAMS` — it uses no privileged API.

use crate::error::{Result, TangoError};
use crate::opt::Catalog;
use std::collections::HashMap;
use std::sync::Arc;
use tango_algebra::Schema;
use tango_minidb::Connection;
use tango_stats::{AttrStats, Histogram, RelationStats};

/// Collect statistics for every ANALYZEd table. `use_histograms = false`
/// reproduces the paper's "optimizer without histograms on the time
/// attributes" configuration (Query 2's comparison).
pub fn collect(conn: &Connection, use_histograms: bool) -> Result<Catalog> {
    let mut catalog: HashMap<String, (Arc<Schema>, RelationStats)> = HashMap::new();

    let tables = conn
        .query_all("SELECT TABLE_NAME, NUM_ROWS, BLOCKS, AVG_ROW_LEN FROM USER_TABLES")
        .map_err(|e| TangoError::Dbms(e.to_string()))?;
    for row in tables.tuples() {
        let name = row[0].as_str().unwrap_or_default().to_uppercase();
        let stats = RelationStats {
            rows: row[1].as_f64().unwrap_or(0.0),
            blocks: row[2].as_int().unwrap_or(1) as u64,
            avg_tuple_bytes: row[3].as_f64().unwrap_or(8.0),
            ..Default::default()
        };
        let Some(schema) = conn.table_schema(&name) else {
            continue;
        };
        catalog.insert(name, (Arc::new(schema), stats));
    }

    let cols = conn
        .query_all(
            "SELECT TABLE_NAME, COLUMN_NAME, NUM_DISTINCT, LOW_VALUE, HIGH_VALUE, \
             NUM_NULLS, AVG_COL_LEN, INDEXED FROM USER_TAB_COLUMNS",
        )
        .map_err(|e| TangoError::Dbms(e.to_string()))?;
    for row in cols.tuples() {
        let t = row[0].as_str().unwrap_or_default().to_uppercase();
        if let Some((_, stats)) = catalog.get_mut(&t) {
            let col = row[1].as_str().unwrap_or_default().to_string();
            stats.set_attr(
                &col,
                AttrStats {
                    distinct: row[2].as_int().unwrap_or(0) as u64,
                    min: row[3].as_f64(),
                    max: row[4].as_f64(),
                    nulls: row[5].as_int().unwrap_or(0) as u64,
                    avg_width: row[6].as_f64().unwrap_or(8.0),
                    indexed: row[7].as_int().unwrap_or(0) != 0,
                    ..Default::default()
                },
            );
        }
    }

    if use_histograms {
        let hist = conn
            .query_all(
                "SELECT TABLE_NAME, COLUMN_NAME, ENDPOINT_NUMBER, ENDPOINT_VALUE \
                 FROM USER_HISTOGRAMS ORDER BY TABLE_NAME, COLUMN_NAME, ENDPOINT_NUMBER",
            )
            .map_err(|e| TangoError::Dbms(e.to_string()))?;
        let mut grouped: HashMap<(String, String), Vec<f64>> = HashMap::new();
        for row in hist.tuples() {
            let t = row[0].as_str().unwrap_or_default().to_uppercase();
            let c = row[1].as_str().unwrap_or_default().to_uppercase();
            if let Some(v) = row[3].as_f64() {
                grouped.entry((t, c)).or_default().push(v);
            }
        }
        for ((t, c), endpoints) in grouped {
            if endpoints.len() < 2 {
                continue;
            }
            if let Some((_, stats)) = catalog.get_mut(&t) {
                let values =
                    (stats.rows as u64).saturating_sub(stats.attr(&c).map_or(0, |a| a.nulls));
                if let Some(a) = stats.attrs.get_mut(&c) {
                    a.histogram = Some(Histogram { endpoints, values });
                }
            }
        }
    }

    Ok(catalog.into_iter().map(|(t, (schema, stats))| (t, (schema, Arc::new(stats)))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_minidb::Database;

    fn setup() -> Connection {
        let c = Connection::new(Database::in_memory());
        c.execute("CREATE TABLE POSITION (PosID INT, PayRate DOUBLE, T1 INT, T2 INT)").unwrap();
        c.execute(
            "INSERT INTO POSITION VALUES (1, 12.5, 2, 20), (1, 9.0, 5, 25), (2, 30.0, 5, 10), (3, 7.5, 1, 4)",
        )
        .unwrap();
        c.execute("CREATE INDEX IX ON POSITION (PosID)").unwrap();
        c.execute("ANALYZE TABLE POSITION COMPUTE STATISTICS").unwrap();
        c
    }

    #[test]
    fn collects_through_dictionary_views() {
        let conn = setup();
        let catalog = collect(&conn, true).unwrap();
        let (schema, stats) = &catalog["POSITION"];
        assert!(schema.is_temporal());
        assert_eq!(stats.rows, 4.0);
        assert_eq!(stats.attr("PosID").unwrap().distinct, 3);
        assert!(stats.attr("PosID").unwrap().indexed);
        assert_eq!(stats.attr("T1").unwrap().min, Some(1.0));
        assert_eq!(stats.attr("T2").unwrap().max, Some(25.0));
        assert!(stats.attr("T1").unwrap().has_histogram());
    }

    #[test]
    fn histograms_can_be_disabled() {
        let conn = setup();
        let catalog = collect(&conn, false).unwrap();
        let (_, stats) = &catalog["POSITION"];
        assert!(!stats.attr("T1").unwrap().has_histogram());
        assert_eq!(stats.attr("T1").unwrap().min, Some(1.0)); // min/max still there
    }

    #[test]
    fn unanalyzed_tables_are_absent() {
        let conn = setup();
        conn.execute("CREATE TABLE FRESH (A INT)").unwrap();
        let catalog = collect(&conn, true).unwrap();
        assert!(!catalog.contains_key("FRESH"));
    }
}
