//! The client-facing connection — the mini-DBMS's "JDBC".
//!
//! Everything the middleware does against the DBMS flows through here:
//! `query` (SELECT → server-side execution → wire-charged cursor),
//! `execute` (DDL/DML), and `load_direct_batches` (the direct-path bulk
//! load used by the `TRANSFER^D` algorithm, where the paper calls
//! INSERT-based loading "inefficient for large amounts of data").
//!
//! Both directions of the wire carry rows in the codec's row format and
//! hold them as columns at either end: a result is encoded from the
//! columns `exec::run` returns and decoded into columns on the client; a
//! load is encoded from the client's columns and decoded into the
//! columns of the fresh table's heap. No row is boxed on the way.
//!
//! A [`DbCursor`] ships its result one *fetch size* of rows per round
//! trip. The fetch size is per cursor (JDBC `setFetchSize`) and starts at
//! the link's default, `LinkProfile::row_prefetch`; the middleware's
//! readers raise it to their executor batch, so a transfer makes one
//! round trip per batch.
//!
//! Two resilience mechanisms live here:
//!
//! * every wire transfer goes through a retry loop driven by the
//!   connection's [`RetryPolicy`] — transient faults are retried with
//!   capped exponential backoff (charged to the virtual wire, not
//!   slept), fatal faults surface immediately, and an optional
//!   per-statement timeout bounds the total time a statement may spend;
//! * wire time, retries and faults are metered **per connection** (a
//!   [`Connection`] and its clones share one meter; independent
//!   `Connection::new` sessions get independent meters), so concurrent
//!   sessions sharing one [`Link`] no longer read each other's charges.

use crate::catalog::Database;
use crate::error::{DbError, Result};
use crate::exec::run;
use crate::parser::parse;
use crate::planner::plan_select;
use crate::retry::RetryPolicy;
use crate::wire::Link;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tango_algebra::codec::{encode_row, Decoder};
use tango_algebra::{Batch, ColumnBuilder, Relation, Schema, Tuple};

/// Per-connection wire accounting. Cheap atomics; shared by a
/// connection and every cursor (and clone) it spawns.
#[derive(Debug, Default)]
pub(crate) struct ConnStats {
    wire_ns: AtomicU64,
    retries: AtomicU64,
    faults: AtomicU64,
    timeouts: AtomicU64,
}

impl ConnStats {
    fn add_wire(&self, d: Duration) {
        self.wire_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Run one wire transfer under a retry policy: transient failures are
/// retried with deterministic backoff (charged to both the link clock
/// and the per-connection meter), fatal failures and exhausted budgets
/// surface as classified [`DbError`]s. `elapsed_before` is statement
/// time already consumed, counted against any statement timeout.
/// Returns the total time this transfer consumed (charges + failed
/// attempts + backoffs).
fn retrying_transfer(
    link: &Link,
    policy: &RetryPolicy,
    stats: &ConnStats,
    elapsed_before: Duration,
    roundtrips: u64,
    bytes: u64,
) -> Result<Duration> {
    let over_budget = |spent: Duration| match policy.statement_timeout {
        Some(t) => elapsed_before + spent > t,
        None => false,
    };
    let mut attempts = 0u32;
    let mut spent = Duration::ZERO;
    loop {
        attempts += 1;
        match link.transfer(roundtrips, bytes) {
            Ok(d) => {
                spent += d;
                stats.add_wire(d);
                if over_budget(spent) {
                    stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(DbError::Timeout(format!(
                        "statement exceeded {:?}",
                        policy.statement_timeout.unwrap_or_default()
                    )));
                }
                return Ok(spent);
            }
            Err(w) => {
                spent += w.charged;
                stats.add_wire(w.charged);
                stats.faults.fetch_add(1, Ordering::Relaxed);
                let e = DbError::from(w);
                if !policy.should_retry(&e, attempts) {
                    if e.is_retryable() {
                        // transient, but the attempt budget is spent
                        return Err(DbError::Transient(format!(
                            "{e} (gave up after {attempts} attempts)"
                        )));
                    }
                    return Err(e);
                }
                if over_budget(spent) {
                    stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(DbError::Timeout(format!(
                        "statement exceeded {:?} while retrying ({e})",
                        policy.statement_timeout.unwrap_or_default()
                    )));
                }
                let backoff = policy.backoff_for(attempts);
                link.stall(backoff);
                stats.add_wire(backoff);
                spent += backoff;
                stats.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A connection to the database. Clones share storage, the wire, the
/// retry policy, and the per-connection wire meter; independent
/// sessions should call [`Connection::new`] separately.
#[derive(Clone)]
pub struct Connection {
    db: Database,
    retry: RetryPolicy,
    stats: Arc<ConnStats>,
}

/// Outcome of a statement execution.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    pub rows_affected: u64,
    /// Server-side execution time of this statement.
    pub server_time: Duration,
}

impl Connection {
    pub fn new(db: Database) -> Self {
        Connection { db, retry: RetryPolicy::default(), stats: Arc::new(ConnStats::default()) }
    }

    /// Replace the retry policy (applies to this handle and future
    /// cursors; clones made earlier keep the policy they copied).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn link(&self) -> &Arc<Link> {
        self.db.link()
    }

    /// Wire time charged by this connection (and its clones/cursors)
    /// alone — unlike [`Link::total`], unaffected by other sessions on
    /// the same link.
    pub fn wire_time(&self) -> Duration {
        Duration::from_nanos(self.stats.wire_ns.load(Ordering::Relaxed))
    }

    /// Retries performed by this connection so far.
    pub fn wire_retries(&self) -> u64 {
        self.stats.retries.load(Ordering::Relaxed)
    }

    /// Wire faults observed by this connection so far.
    pub fn wire_faults(&self) -> u64 {
        self.stats.faults.load(Ordering::Relaxed)
    }

    /// Statement timeouts raised by this connection so far.
    pub fn wire_timeouts(&self) -> u64 {
        self.stats.timeouts.load(Ordering::Relaxed)
    }

    /// One retried-and-metered wire transfer (see [`retrying_transfer`]).
    fn wire_transfer(&self, elapsed: Duration, roundtrips: u64, bytes: u64) -> Result<Duration> {
        retrying_transfer(self.db.link(), &self.retry, &self.stats, elapsed, roundtrips, bytes)
    }

    /// Execute a non-query statement.
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        let start = Instant::now();
        let stmt = parse(sql)?;
        let rows = match stmt {
            crate::ast::Stmt::Select(_) | crate::ast::Stmt::Explain(_) => {
                return Err(DbError::Semantic("use query() for SELECT statements".into()))
            }
            crate::ast::Stmt::CreateTable { name, cols } => {
                let attrs = cols.into_iter().map(|(n, t)| tango_algebra::Attr::new(n, t)).collect();
                self.db.create_table(&name, Schema::with_inferred_period(attrs))?;
                0
            }
            crate::ast::Stmt::DropTable { name, if_exists } => {
                self.db.drop_table(&name, if_exists)?;
                0
            }
            crate::ast::Stmt::Insert { table, rows } => {
                // conventional path: each row crosses the wire as its own
                // statement round trip
                let bytes: u64 =
                    rows.iter().map(|r| r.iter().map(|v| v.byte_size() as u64).sum::<u64>()).sum();
                self.wire_transfer(Duration::ZERO, rows.len() as u64, bytes)?;
                self.db.insert_rows(&table, rows.into_iter().map(Tuple::new).collect())?
            }
            crate::ast::Stmt::Delete { table, pred } => {
                self.wire_transfer(Duration::ZERO, 1, sql.len() as u64)?;
                self.db.delete_rows(&table, pred.as_ref())?
            }
            crate::ast::Stmt::Update { table, sets, pred } => {
                self.wire_transfer(Duration::ZERO, 1, sql.len() as u64)?;
                self.db.update_rows(&table, &sets, pred.as_ref())?
            }
            crate::ast::Stmt::Analyze { table } => {
                self.db.analyze(&table)?;
                0
            }
            crate::ast::Stmt::CreateIndex { name, table, col } => {
                self.db.create_index(&name, &table, &col)?;
                0
            }
        };
        let server_time = start.elapsed();
        self.db.add_server_ns(server_time.as_nanos() as u64);
        Ok(ExecOutcome { rows_affected: rows, server_time })
    }

    /// Execute a SELECT; the result stays "server-side" inside the cursor
    /// and crosses the simulated wire as the client fetches.
    pub fn query(&self, sql: &str) -> Result<DbCursor> {
        let stmt = parse(sql)?;
        let s = match stmt {
            crate::ast::Stmt::Select(s) => s,
            crate::ast::Stmt::Explain(s) => {
                let inner = self.db.inner.read();
                let plan = plan_select(&s, &inner)?;
                let schema = std::sync::Arc::new(Schema::new(vec![tango_algebra::Attr::new(
                    "PLAN",
                    tango_algebra::Type::Str,
                )]));
                let rows: Vec<Tuple> = plan
                    .render()
                    .lines()
                    .map(|l| Tuple::new(vec![tango_algebra::Value::Str(l.to_string())]))
                    .collect();
                return Ok(self.cursor(Batch::new(schema, rows), Duration::ZERO, Duration::ZERO));
            }
            _ => return Err(DbError::Semantic("query() requires a SELECT".into())),
        };
        // statement-submission round trip (executeQuery), retried like
        // any transfer
        let submit = self.wire_transfer(Duration::ZERO, 1, sql.len() as u64)?;
        let start = Instant::now();
        let result = {
            let inner = self.db.inner.read();
            let plan = plan_select(&s, &inner)?;
            run(&plan, &inner)?
        };
        let server_time = start.elapsed();
        self.db.add_server_ns(server_time.as_nanos() as u64);
        Ok(self.cursor(result, server_time, submit + server_time))
    }

    fn cursor(&self, result: Batch, server_time: Duration, elapsed: Duration) -> DbCursor {
        DbCursor::new(
            result,
            self.db.link().clone(),
            server_time,
            self.retry,
            self.stats.clone(),
            elapsed,
        )
    }

    /// Convenience: run a SELECT and materialize everything client-side
    /// (wire charges still apply).
    pub fn query_all(&self, sql: &str) -> Result<Relation> {
        let mut c = self.query(sql)?;
        let schema = c.schema().clone();
        let mut rows = Vec::new();
        while let Some(batch) = c.fetch_batch()? {
            rows.extend(batch);
        }
        Ok(Relation::new(schema, rows))
    }

    /// Direct-path bulk load of `rows`: [`Connection::load_direct_batches`]
    /// of them as one batch.
    pub fn load_direct(&self, table: &str, schema: Schema, rows: Vec<Tuple>) -> Result<Duration> {
        let batch = Batch::new(Arc::new(schema.clone()), rows);
        self.load_direct_batches(table, schema, vec![batch])
    }

    /// Direct-path bulk load (Oracle SQL*Loader style): creates the table
    /// sized to the data, ships every row of `batches` across the wire in
    /// bulk (no per-row statement round trips; each row encoded from its
    /// columns), and the server decodes them into the columns that become
    /// the table's heap. The table's delta log does not hold the rows: it
    /// is poisoned at the load's version, so a snapshot taken before the
    /// load refetches. A load whose transfer fails drops the half-created
    /// table before surfacing the error — no partial state survives.
    pub fn load_direct_batches(
        &self,
        table: &str,
        schema: Schema,
        batches: Vec<Batch>,
    ) -> Result<Duration> {
        let start = Instant::now();
        let width = schema.len();
        self.db.create_table(table, schema)?;
        // one round trip to set up the load plus bulk payload
        let mut buf = Vec::new();
        for b in batches {
            let b = b.columnarize();
            if let Some((cols, offset, len)) = b.columns() {
                (offset..offset + len).for_each(|i| encode_row(cols, i, &mut buf));
            }
        }
        let wire = match self.wire_transfer(Duration::ZERO, 1, buf.len() as u64) {
            Ok(w) => w,
            Err(e) => {
                let _ = self.db.drop_table(table, true);
                return Err(e);
            }
        };
        // the server decodes the stream into the fresh heap
        let mut decoder = Decoder::new(&buf);
        let mut cols = vec![ColumnBuilder::default(); width];
        let mut rows = 0;
        while !decoder.is_done() {
            decoder.decode_row_into(&mut cols)?;
            rows += 1;
        }
        self.db.load_heap(table, cols, rows)?;
        let server_time = start.elapsed();
        self.db.add_server_ns(server_time.as_nanos() as u64);
        Ok(wire + server_time)
    }

    pub fn table_schema(&self, name: &str) -> Option<Schema> {
        self.db.table_schema(name)
    }

    pub fn table_stats(&self, name: &str) -> Option<tango_stats::RelationStats> {
        self.db.table_stats(name)
    }

    /// Current write-version of a base table (`None` if it does not
    /// exist); see [`Database::table_version`]. Version checks are a
    /// client-side catalog peek, not a wire round trip — the middleware
    /// uses them to validate cached fragments before planning.
    pub fn table_version(&self, name: &str) -> Option<u64> {
        self.db.table_version(name)
    }

    /// Bytes of delta-log records a fragment snapshot over `name` at
    /// version `since` would have to replay; see
    /// [`Database::delta_bytes_since`]. A client-side catalog peek (no
    /// wire) — the middleware uses it to *price* refresh-by-delta before
    /// deciding to fetch anything.
    pub fn delta_bytes_since(&self, name: &str, since: u64) -> Option<u64> {
        self.db.delta_bytes_since(name, since)
    }

    /// Fetch the delta records each `(table, since)` request must replay
    /// plus a consistent all-table version vector, in one wire round
    /// trip charged with the records' encoded bytes (retried under the
    /// connection's [`RetryPolicy`] like any transfer). `Ok(None)` means
    /// the logs no longer cover a requested snapshot — the caller should
    /// fall back to a full refetch; `Err` is a wire failure and nothing
    /// was charged beyond the failed attempts.
    pub fn fetch_deltas_multi(
        &self,
        reqs: &[(String, u64)],
    ) -> Result<Option<crate::catalog::DeltaSnapshot>> {
        let start = Instant::now();
        let snap = self.db.deltas_since_multi(reqs);
        let bytes = snap.as_ref().map_or(0, |s| s.byte_size());
        // one request/response round trip carrying the tombstones (an
        // uncovered request still costs the empty round trip)
        self.wire_transfer(Duration::ZERO, 1, bytes)?;
        self.db.add_server_ns(start.elapsed().as_nanos() as u64);
        Ok(snap)
    }
}

/// A client-side cursor over a server-side result. Rows are encoded on
/// the "server" from the result's columns, charged to the link one
/// fetch-size batch per round trip, and decoded on the "client" straight
/// into columns ([`DbCursor::fetch_columns`], the one decoder) — like a
/// JDBC result set, whose fetch size ([`DbCursor::set_fetch_size`], JDBC
/// `setFetchSize`) starts at the connection's default,
/// [`LinkProfile::row_prefetch`]. The bytes on the wire are those of
/// [`encode_tuple`](tango_algebra::codec::encode_tuple) over the boxed
/// rows. Fetch trips are retried under the connection's [`RetryPolicy`]
/// (rows are buffered server-side, so re-requesting a batch is safe)
/// and count against its per-statement timeout.
///
/// [`LinkProfile::row_prefetch`]: crate::wire::LinkProfile::row_prefetch
pub struct DbCursor {
    schema: Arc<Schema>,
    /// The server-side result: dense columns of its own.
    result: Batch,
    /// Rows of `result` already shipped.
    sent: usize,
    /// Client-side buffer of decoded rows, for [`DbCursor::fetch`].
    client_buf: std::collections::VecDeque<Tuple>,
    link: Arc<Link>,
    /// Rows encoded and charged per round trip.
    fetch_size: usize,
    /// Wire time charged by this cursor so far.
    wire_time: Duration,
    /// Server execution time for the producing statement.
    server_time: Duration,
    retry: RetryPolicy,
    stats: Arc<ConnStats>,
    /// Statement clock: submission + server + wire + backoff time
    /// consumed so far, checked against the policy's timeout.
    elapsed: Duration,
    /// Reusable wire-encoding buffer: one fetch batch is encoded here
    /// per round trip, so its capacity is retained across trips.
    wire_buf: Vec<u8>,
}

impl DbCursor {
    fn new(
        result: Batch,
        link: Arc<Link>,
        server_time: Duration,
        retry: RetryPolicy,
        stats: Arc<ConnStats>,
        elapsed: Duration,
    ) -> Self {
        let schema = result.schema().clone();
        let fetch_size = link.profile().row_prefetch.max(1);
        DbCursor {
            schema,
            result: result.columnarize(),
            sent: 0,
            client_buf: std::collections::VecDeque::new(),
            link,
            fetch_size,
            wire_time: Duration::ZERO,
            server_time,
            retry,
            stats,
            elapsed,
            wire_buf: Vec::new(),
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn server_time(&self) -> Duration {
        self.server_time
    }

    pub fn wire_time(&self) -> Duration {
        self.wire_time
    }

    /// Total statement time consumed (submission + server + wire +
    /// backoffs) — what the per-statement timeout is measured against.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Rows each round trip fetches (JDBC `getFetchSize`).
    pub fn fetch_size(&self) -> usize {
        self.fetch_size
    }

    /// Set the rows each following round trip fetches (JDBC
    /// `setFetchSize`; 0 is read as 1). Bytes on the wire do not depend
    /// on it, round trips do: `n` rows take ⌈n / rows⌉ fetch trips.
    pub fn set_fetch_size(&mut self, rows: usize) {
        self.fetch_size = rows.max(1);
    }

    /// Encode the next fetch batch into `wire_buf` and charge its one
    /// round trip. Returns the rows encoded, 0 at end of stream; on
    /// success they sit in `self.wire_buf`, ready to decode.
    fn pull_trip(&mut self) -> Result<usize> {
        self.wire_buf.clear();
        let n = self.fetch_size.min(self.result.len() - self.sent);
        if n == 0 {
            return Ok(0);
        }
        if let Some((cols, offset, _)) = self.result.columns() {
            let from = offset + self.sent;
            (from..from + n).for_each(|i| encode_row(cols, i, &mut self.wire_buf));
        }
        let spent = retrying_transfer(
            &self.link,
            &self.retry,
            &self.stats,
            self.elapsed,
            1,
            self.wire_buf.len() as u64,
        )?;
        self.sent += n;
        self.wire_time += spent;
        self.elapsed += spent;
        Ok(n)
    }

    /// Fetch the next fetch batch across the wire, decoded straight into
    /// columns: one round trip, `None` at end of stream. The one decoder
    /// of the wire; [`DbCursor::fetch_batch`] and [`DbCursor::fetch`]
    /// box what it returns.
    pub fn fetch_columns(&mut self) -> Result<Option<Batch>> {
        if self.pull_trip()? == 0 {
            return Ok(None);
        }
        let mut cols = vec![ColumnBuilder::default(); self.schema.len()];
        let mut d = Decoder::new(&self.wire_buf);
        while !d.is_done() {
            d.decode_row_into(&mut cols)?;
        }
        Ok(Some(Batch::from_builders(self.schema.clone(), cols)))
    }

    /// Fetch the next row, pulling a fetch batch across the wire when
    /// the client buffer is empty.
    pub fn fetch(&mut self) -> Result<Option<Tuple>> {
        if self.client_buf.is_empty() {
            match self.fetch_batch()? {
                Some(rows) => self.client_buf.extend(rows),
                None => return Ok(None),
            }
        }
        Ok(self.client_buf.pop_front())
    }

    /// Fetch the next batch as rows: everything currently buffered
    /// client-side, or [`DbCursor::fetch_columns`]' next batch, boxed.
    /// Wire charges and round-trip numbering are identical to calling
    /// [`DbCursor::fetch`] row by row at the same fetch size, so
    /// fault-injection scripts keyed on round-trip ordinals behave the
    /// same either way.
    pub fn fetch_batch(&mut self) -> Result<Option<Vec<Tuple>>> {
        if !self.client_buf.is_empty() {
            return Ok(Some(self.client_buf.drain(..).collect()));
        }
        let Some(batch) = self.fetch_columns()? else { return Ok(None) };
        crate::exec::count_boxed(batch.len());
        Ok(Some(batch.into_rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan};
    use crate::wire::{LinkProfile, WireMode};
    use tango_algebra::{tup, Attr, Type, Value};

    fn conn() -> Connection {
        let c = Connection::new(Database::in_memory());
        c.execute("CREATE TABLE POSITION (PosID INT, EmpName VARCHAR(20), T1 INT, T2 INT)")
            .unwrap();
        c.execute(
            "INSERT INTO POSITION VALUES \
             (1, 'Tom', 2, 20), (1, 'Jane', 5, 25), (2, 'Tom', 5, 10)",
        )
        .unwrap();
        c
    }

    #[test]
    fn end_to_end_query() {
        let c = conn();
        let r = c.query_all("SELECT EmpName FROM POSITION WHERE PosID = 1 ORDER BY T1").unwrap();
        assert_eq!(r.tuples(), &[tup!["Tom"], tup!["Jane"]]);
    }

    #[test]
    fn create_table_infers_period() {
        let c = conn();
        let schema = c.table_schema("POSITION").unwrap();
        assert!(schema.is_temporal());
    }

    /// The DBMS-side temporal aggregation: the constant-period SQL the
    /// Translator-To-SQL emits for `TAGGR^D` must produce Figure 3(c).
    #[test]
    fn taggr_via_sql_matches_figure3c() {
        let c = conn();
        let sql = "SELECT cp.g AS PosID, cp.ts AS T1, cp.te AS T2, COUNT(*) AS CNT \
            FROM (SELECT p1.g g, p1.t ts, MIN(p2.t) te \
                  FROM (SELECT DISTINCT PosID g, T1 t FROM POSITION \
                        UNION SELECT DISTINCT PosID, T2 FROM POSITION) p1, \
                       (SELECT DISTINCT PosID g, T1 t FROM POSITION \
                        UNION SELECT DISTINCT PosID, T2 FROM POSITION) p2 \
                  WHERE p1.g = p2.g AND p2.t > p1.t \
                  GROUP BY p1.g, p1.t) cp, \
                 POSITION r \
            WHERE r.PosID = cp.g AND r.T1 <= cp.ts AND r.T2 >= cp.te \
            GROUP BY cp.g, cp.ts, cp.te \
            ORDER BY PosID, T1";
        let r = c.query_all(sql).unwrap();
        assert_eq!(
            r.tuples(),
            &[tup![1, 2, 5, 1], tup![1, 5, 20, 2], tup![1, 20, 25, 1], tup![2, 5, 10, 1],]
        );
    }

    #[test]
    fn wire_is_charged_per_prefetch_batch() {
        let db = Database::new(Link::new(LinkProfile {
            roundtrip_latency_us: 1000.0,
            bytes_per_sec: f64::INFINITY,
            row_prefetch: 2,
            mode: WireMode::Virtual,
        }));
        let c = Connection::new(db);
        c.execute("CREATE TABLE T (A INT)").unwrap();
        c.execute("INSERT INTO T VALUES (1), (2), (3), (4), (5)").unwrap();
        c.link().reset();
        let mut cur = c.query("SELECT A FROM T").unwrap();
        let mut n = 0;
        while cur.fetch().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        // 5 rows at prefetch 2 -> 3 round trips of 1ms
        assert_eq!(cur.wire_time(), Duration::from_millis(3));
    }

    #[test]
    fn batch_fetch_charges_like_row_fetch() {
        let db = Database::new(Link::new(LinkProfile {
            roundtrip_latency_us: 1000.0,
            bytes_per_sec: f64::INFINITY,
            row_prefetch: 2,
            mode: WireMode::Virtual,
        }));
        let c = Connection::new(db);
        c.execute("CREATE TABLE T (A INT)").unwrap();
        c.execute("INSERT INTO T VALUES (1), (2), (3), (4), (5)").unwrap();
        c.link().reset();
        let mut cur = c.query("SELECT A FROM T").unwrap();
        let mut sizes = Vec::new();
        while let Some(batch) = cur.fetch_batch().unwrap() {
            sizes.push(batch.len());
        }
        // batches are prefetch-aligned and the wire charge is identical
        // to the row-at-a-time fetch of the test above
        assert_eq!(sizes, vec![2, 2, 1]);
        assert_eq!(cur.wire_time(), Duration::from_millis(3));
    }

    /// The fetch size moves round trips, never bytes: 23 rows at fetch
    /// size f make ⌈23/f⌉ trips of f rows, carrying the bytes the default
    /// prefetch carries, and a scripted fault still hits exactly one trip.
    #[test]
    fn fetch_size_sets_the_trips_not_the_bytes() {
        let c = Connection::new(Database::new(Link::new(LinkProfile {
            roundtrip_latency_us: 1000.0,
            bytes_per_sec: 1e6,
            row_prefetch: 2,
            mode: WireMode::Virtual,
        })));
        let schema = Schema::new(vec![Attr::new("A", Type::Int), Attr::new("S", Type::Str)]);
        c.load_direct("T", schema, (0..23).map(|i| tup![i, format!("s{i}")]).collect()).unwrap();
        // (fetch trips, wire time net of their latency, batch sizes)
        let drain = |fetch: Option<usize>| {
            let mut cur = c.query("SELECT A, S FROM T").unwrap();
            if let Some(f) = fetch {
                cur.set_fetch_size(f);
            }
            let rt = c.link().roundtrips();
            let mut sizes = Vec::new();
            while let Some(b) = cur.fetch_batch().unwrap() {
                sizes.push(b.len());
            }
            let trips = c.link().roundtrips() - rt;
            (trips, cur.wire_time() - Duration::from_millis(trips), sizes)
        };
        let (default_trips, default_bytes, _) = drain(None);
        assert_eq!(default_trips, 12);
        for f in [1, 2, 5, 8, 23, 100] {
            let (trips, bytes, sizes) = drain(Some(f));
            assert_eq!(trips, 23u64.div_ceil(f as u64), "fetch size {f}");
            assert!(sizes.iter().rev().skip(1).all(|&n| n == f), "fetch size {f}: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), 23);
            let drift = bytes.as_nanos().abs_diff(default_bytes.as_nanos());
            assert!(drift < 1_000, "fetch size {f}: bytes moved by {drift}ns");
        }

        // one fault ordinal per trip: fail the third fetch trip at size 5
        let mut cur = c.query("SELECT A, S FROM T").unwrap();
        cur.set_fetch_size(5);
        let rt = c.link().roundtrips();
        c.link().set_injector(Arc::new(FaultPlan::scripted([(rt + 3, Fault::Disconnect)])));
        let mut rows = Vec::new();
        while let Some(b) = cur.fetch_batch().unwrap() {
            rows.extend(b);
        }
        c.link().clear_injector();
        assert_eq!(rows.len(), 23);
        assert_eq!(rows[10], tup![10, "s10"], "the retried trip re-sent its own rows");
        assert_eq!((c.wire_faults(), c.wire_retries()), (1, 1));
        assert_eq!(c.link().roundtrips() - rt, 5 + 1, "five trips plus the one retry");
    }

    /// 1,000 rows at 500µs a round trip: an INSERT per row would charge
    /// half a second of latency alone.
    #[test]
    fn direct_load_avoids_per_row_round_trips() {
        let c = Connection::new(Database::new(Link::new(LinkProfile {
            roundtrip_latency_us: 500.0,
            bytes_per_sec: 1e6,
            row_prefetch: 10,
            mode: WireMode::Virtual,
        })));
        let schema = Schema::new(vec![Attr::new("A", Type::Int)]);
        c.load_direct("T", schema, (0..1000).map(|i| tup![i]).collect()).unwrap();
        assert!(c.link().total() < Duration::from_millis(50), "{:?}", c.link().total());
    }

    #[test]
    fn loaded_table_is_queryable_and_dropped() {
        let c = conn();
        let schema = Schema::new(vec![Attr::new("X", Type::Int)]);
        c.load_direct("TMP1", schema, vec![tup![7]]).unwrap();
        let r = c.query_all("SELECT X FROM TMP1").unwrap();
        assert_eq!(r.tuples()[0][0], Value::Int(7));
        c.execute("DROP TABLE TMP1").unwrap();
        assert!(c.query("SELECT X FROM TMP1").is_err());
    }

    #[test]
    fn transient_faults_are_retried_transparently() {
        let c = conn();
        // fail the next two round trips; the default policy retries
        let rt = c.link().roundtrips();
        c.link().set_injector(Arc::new(FaultPlan::scripted([
            (rt + 1, Fault::Transient("blip".into())),
            (rt + 2, Fault::Disconnect),
        ])));
        let r = c.query_all("SELECT EmpName FROM POSITION WHERE PosID = 1 ORDER BY T1").unwrap();
        c.link().clear_injector();
        assert_eq!(r.tuples(), &[tup!["Tom"], tup!["Jane"]]);
        assert_eq!(c.wire_faults(), 2);
        assert_eq!(c.wire_retries(), 2);
    }

    #[test]
    fn fatal_faults_surface_without_retry() {
        let c = conn();
        let rt = c.link().roundtrips();
        c.link().set_injector(Arc::new(FaultPlan::scripted([(
            rt + 1,
            Fault::Fatal("ORA-00600: internal error".into()),
        )])));
        let err = c.query("SELECT EmpName FROM POSITION").map(|_| ()).unwrap_err();
        c.link().clear_injector();
        assert_eq!(err.class(), crate::error::ErrorClass::Fatal);
        assert_eq!(c.wire_retries(), 0, "fatal errors must not be retried");
    }

    #[test]
    fn exhausted_retries_surface_as_transient() {
        let mut c = conn();
        c.set_retry_policy(RetryPolicy { max_attempts: 2, ..RetryPolicy::default() });
        // every round trip fails: 2 attempts, then give up
        c.link().set_injector(Arc::new(FaultPlan::random(1, 1.0)));
        let err = c.query("SELECT EmpName FROM POSITION").map(|_| ()).unwrap_err();
        c.link().clear_injector();
        assert_eq!(err.class(), crate::error::ErrorClass::Transient);
        assert!(err.to_string().contains("gave up after 2 attempts"), "{err}");
        assert_eq!(c.wire_retries(), 1);
    }

    #[test]
    fn statement_timeout_fires_on_throttled_link() {
        let db = Database::new(Link::new(LinkProfile {
            roundtrip_latency_us: 10_000.0, // 10ms per round trip
            bytes_per_sec: f64::INFINITY,
            row_prefetch: 1,
            mode: WireMode::Virtual,
        }));
        let mut c = Connection::new(db);
        c.execute("CREATE TABLE T (A INT)").unwrap();
        c.execute("INSERT INTO T VALUES (1), (2), (3), (4), (5)").unwrap();
        c.set_retry_policy(RetryPolicy::default().with_timeout(Duration::from_millis(25)));
        let mut cur = c.query("SELECT A FROM T").unwrap();
        let mut err = None;
        loop {
            match cur.fetch() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("5 fetch round trips at 10ms must exceed a 25ms budget");
        assert_eq!(err.class(), crate::error::ErrorClass::Timeout);
        assert_eq!(c.wire_timeouts(), 1);
    }

    #[test]
    fn clones_share_the_meter_but_fresh_connections_do_not() {
        let db = Database::new(Link::new(LinkProfile {
            roundtrip_latency_us: 1000.0,
            bytes_per_sec: f64::INFINITY,
            row_prefetch: 10,
            mode: WireMode::Virtual,
        }));
        let a = Connection::new(db.clone());
        a.execute("CREATE TABLE T (A INT)").unwrap();
        a.execute("INSERT INTO T VALUES (1)").unwrap();
        let a2 = a.clone();
        let before = a.wire_time();
        a2.query_all("SELECT A FROM T").unwrap();
        assert!(a.wire_time() > before, "clone charges the shared meter");

        let b = Connection::new(db);
        assert_eq!(b.wire_time(), Duration::ZERO, "fresh session starts a fresh meter");
        assert!(b.link().total() > Duration::ZERO, "the link clock is still shared");
    }
}
