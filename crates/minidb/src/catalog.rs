//! Catalog and storage: heap tables, B-tree indexes, ANALYZE statistics,
//! and Oracle-style dictionary views.

use crate::delta::{DeltaLog, DeltaOp, DeltaRecord, DEFAULT_DELTA_LOG_CAP};
use crate::error::{DbError, Result};
use crate::exec::select;
use crate::wire::Link;
use parking_lot::RwLock;
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tango_algebra::value::Key;
use tango_algebra::{
    Attr, Column, ColumnBuilder, Relation, Schema, StrCodes, Tuple, Type, Value, DEFAULT_BATCH_ROWS,
};
use tango_stats::RelationStats;

/// Number of histogram buckets ANALYZE collects per numeric column
/// (Oracle's default height-balanced histogram size ballpark).
pub const HISTOGRAM_BUCKETS: usize = 20;

/// A stored table: schema, heap, optional ANALYZE statistics.
///
/// The heap is one typed [`Column`] per attribute — the layout the
/// middleware's batches use — held once: no row-form copy beside it. A
/// statement lends the columns ([`crate::exec`]); a write appends,
/// overwrites or compacts them in place.
pub struct Table {
    pub schema: Arc<Schema>,
    /// One column per attribute, each `len` rows long, in heap order.
    pub cols: Vec<Column>,
    /// Per column, its dictionary inverted (string to code) for a string
    /// column, else empty: an INSERT finds a string's code by hash.
    codes: Vec<StrCodes>,
    /// Rows in the heap (a table may have no columns).
    pub len: usize,
    /// The last ANALYZE's statistics, kept across writes until the next
    /// one: a plan over slightly stale statistics beats no plan.
    pub stats: Option<RelationStats>,
    /// Monotonic write-version stamp, drawn from the database-wide
    /// [`DbInner::version_clock`]. Bumped by every DML statement that
    /// touches this table; middleware caches compare it to decide whether
    /// a materialized copy of a fragment over this table is still fresh.
    pub version: u64,
}

impl Table {
    fn new(schema: Schema, version: u64) -> Table {
        let n = schema.len();
        Table {
            schema: Arc::new(schema),
            cols: vec![ColumnBuilder::default().finish(); n],
            codes: vec![StrCodes::default(); n],
            len: 0,
            stats: None,
            version,
        }
    }

    /// Heap rows `rids` (every row when `None`), boxed at full width.
    pub fn boxed_rows(&self, rids: Option<&[u32]>) -> Vec<Tuple> {
        let cols: Vec<Option<&Column>> = self.cols.iter().map(Some).collect();
        box_rows(&cols, rids, self.len)
    }

    /// Column `ci` keyed from scratch: the index a `CREATE INDEX` builds.
    pub(crate) fn keyed(&self, ci: usize) -> IndexMap {
        let mut map = IndexMap::new();
        for rid in 0..self.len {
            map.entry(self.cols[ci].value_at(rid).key()).or_default().push(rid);
        }
        map
    }

    /// Append `rows`, moving each value into its column, one column at
    /// a time.
    fn append(&mut self, mut rows: Vec<Tuple>) {
        for (c, (col, codes)) in self.cols.iter_mut().zip(&mut self.codes).enumerate() {
            col.extend(rows.iter_mut().map(|t| std::mem::replace(&mut t.0[c], Value::Null)), codes);
        }
        self.len += rows.len();
    }

    /// Remove rows `rids`, compacting every column in place.
    fn remove(&mut self, rids: &[u32]) {
        let mut keep = vec![true; self.len];
        rids.iter().for_each(|&r| keep[r as usize] = false);
        self.cols.iter_mut().for_each(|c| c.retain(&keep));
        self.len -= rids.len();
    }
}

/// Rows `rids` (every row of the `len` when `None`) of heap columns
/// `cols`, boxed as tuples; a `None` column reads NULL. One batch of rows
/// at a time, column by column within it, so even a wide heap is walked
/// once.
pub(crate) fn box_rows(cols: &[Option<&Column>], rids: Option<&[u32]>, len: usize) -> Vec<Tuple> {
    let n = rids.map_or(len, <[u32]>::len);
    crate::exec::count_boxed(n);
    let mut rows: Vec<Tuple> = Vec::with_capacity(n);
    for from in (0..n).step_by(DEFAULT_BATCH_ROWS) {
        let to = n.min(from + DEFAULT_BATCH_ROWS);
        rows.extend((from..to).map(|_| Tuple::new(Vec::with_capacity(cols.len()))));
        let batch = &mut rows[from..];
        for col in cols {
            match (col, rids) {
                (None, _) => batch.iter_mut().for_each(|t| t.0.push(Value::Null)),
                (Some(c), Some(rids)) => {
                    c.push_rows(rids[from..to].iter().map(|&r| r as usize), batch)
                }
                (Some(c), None) => c.push_rows(from..to, batch),
            }
        }
    }
    rows
}

/// A secondary B-tree index on one column.
pub struct IndexDef {
    pub name: String,
    pub table: String,
    pub col: String,
    /// Value key to heap row ids, ascending. A write moves only what it
    /// changed: an INSERT adds its rows, a DELETE drops its rows and
    /// shifts each survivor down past them, an UPDATE moves the rows
    /// whose key it changed.
    pub map: IndexMap,
}

#[derive(Default)]
pub struct DbInner {
    pub tables: HashMap<String, Table>,
    pub indexes: Vec<IndexDef>,
    /// Database-wide monotonic version counter; see [`Table::version`].
    pub version_clock: u64,
    /// Per-table DML delta logs (insert/delete tombstones) backing the
    /// middleware cache's refresh-by-delta maintenance; see
    /// [`crate::delta::DeltaLog`].
    pub delta_logs: HashMap<String, DeltaLog>,
}

impl DbInner {
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(&name.to_uppercase()).ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    pub fn index_on(&self, table: &str, col: &str) -> Option<&IndexDef> {
        self.indexes
            .iter()
            .find(|ix| ix.table.eq_ignore_ascii_case(table) && ix.col.eq_ignore_ascii_case(col))
    }

    /// Each index on table `name`, with its column's position, beside
    /// the table: what a write brings forward.
    fn indexes_of(&mut self, name: &str) -> Result<(&Table, Vec<(&mut IndexMap, usize)>)> {
        let DbInner { tables, indexes, .. } = self;
        let t =
            tables.get(&name.to_uppercase()).ok_or_else(|| DbError::NoSuchTable(name.into()))?;
        let ixs = indexes
            .iter_mut()
            .filter(|ix| ix.table.eq_ignore_ascii_case(name))
            .map(|ix| Ok((&mut ix.map, t.schema.index_of(&ix.col)?)))
            .collect::<Result<_>>()?;
        Ok((t, ixs))
    }

    /// Advance the version clock and stamp `table` with the new value.
    /// Called under the write lock by every mutating statement.
    pub fn bump_version(&mut self, table: &str) {
        self.version_clock += 1;
        let v = self.version_clock;
        if let Some(t) = self.tables.get_mut(&table.to_uppercase()) {
            t.version = v;
        }
    }
}

/// An index's entries: each key to the heap rows holding it, ascending.
pub type IndexMap = BTreeMap<Key, Vec<usize>>;

/// Move heap row `rid` from key `old` to key `new`, keeping each row
/// list ascending and no list empty.
fn rekey(map: &mut IndexMap, rid: usize, old: &Key, new: Key) {
    if let Some(rids) = map.get_mut(old) {
        if let Ok(at) = rids.binary_search(&rid) {
            rids.remove(at);
        }
        if rids.is_empty() {
            map.remove(old);
        }
    }
    let rids = map.entry(new).or_default();
    if let Err(at) = rids.binary_search(&rid) {
        rids.insert(at, rid);
    }
}

/// The shared database instance. Cheap to clone; all clones see the same
/// storage and the same simulated wire.
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<RwLock<DbInner>>,
    pub(crate) link: Arc<Link>,
    /// Accumulated server-side execution time (ns).
    pub(crate) server_ns: Arc<AtomicU64>,
    /// Database-scoped state installed by the middleware layer; see
    /// [`Database::middleware_state`].
    pub(crate) middleware: Arc<OnceLock<Arc<dyn Any + Send + Sync>>>,
}

impl Database {
    pub fn new(link: Link) -> Self {
        Database {
            inner: Arc::new(RwLock::new(DbInner::default())),
            link: Arc::new(link),
            server_ns: Arc::new(AtomicU64::new(0)),
            middleware: Arc::new(OnceLock::new()),
        }
    }

    /// Fetch — initializing on first call — the single middleware-state
    /// value shared by every clone of this database handle.
    ///
    /// The middleware (`tango-core`) keeps per-*database* serving state
    /// — notably the shared relation cache every session attaches to —
    /// but this crate cannot depend on `tango-core`, so the database
    /// exposes one type-erased, write-once slot instead. The first
    /// caller's `init` value wins (subsequent racers' values are
    /// dropped), and every later call of the same `T` gets the same
    /// `Arc`. A call with a *different* `T` than the one installed
    /// returns a fresh unshared value — callers are expected to agree on
    /// one state type, which `tango-core` does.
    pub fn middleware_state<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Arc<T> {
        let mut init = Some(init);
        let slot = self.middleware.get_or_init(|| {
            // invariant: `get_or_init` runs its closure at most once
            Arc::new(init.take().expect("first initialization")()) as Arc<dyn Any + Send + Sync>
        });
        match slot.clone().downcast::<T>() {
            Ok(state) => state,
            // invariant: a different T is installed, so the closure above
            // (which would have installed a T) never ran and `init` is unconsumed
            Err(_) => Arc::new(init.take().expect("type mismatch implies foreign init")()),
        }
    }

    pub fn in_memory() -> Self {
        Database::new(Link::default())
    }

    pub fn link(&self) -> &Arc<Link> {
        &self.link
    }

    pub fn add_server_ns(&self, ns: u64) {
        self.server_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total server-side compute time so far.
    pub fn server_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.server_ns.load(Ordering::Relaxed))
    }

    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        let mut inner = self.inner.write();
        let key = name.to_uppercase();
        if inner.tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_string()));
        }
        inner.version_clock += 1;
        let version = inner.version_clock;
        inner.tables.insert(key.clone(), Table::new(schema, version));
        inner.delta_logs.insert(key, DeltaLog::new(version, DEFAULT_DELTA_LOG_CAP));
        Ok(())
    }

    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<()> {
        let mut inner = self.inner.write();
        let key = name.to_uppercase();
        if inner.tables.remove(&key).is_none() && !if_exists {
            return Err(DbError::NoSuchTable(name.to_string()));
        }
        inner.delta_logs.remove(&key);
        inner.indexes.retain(|ix| !ix.table.eq_ignore_ascii_case(name));
        Ok(())
    }

    pub fn insert_rows(&self, name: &str, rows: Vec<Tuple>) -> Result<u64> {
        let mut inner = self.inner.write();
        let key = name.to_uppercase();
        let oversize = inner.delta_logs.get(&key).is_some_and(|l| l.overflows(&rows));
        let table =
            inner.tables.get_mut(&key).ok_or_else(|| DbError::NoSuchTable(name.to_string()))?;
        let arity = table.schema.len();
        let n = rows.len() as u64;
        for r in &rows {
            if r.len() != arity {
                return Err(DbError::Semantic(format!(
                    "insert arity mismatch: expected {arity}, got {}",
                    r.len()
                )));
            }
        }
        // an oversize write's log entry is a poison
        let logged = (!oversize).then(|| rows.clone());
        let old_len = table.len;
        table.append(rows);
        inner.bump_version(name);
        let v = inner.version_clock;
        if let Some(log) = inner.delta_logs.get_mut(&key) {
            match logged {
                Some(rows) => log.record(v, DeltaOp::Insert, rows),
                None => log.poison(v),
            }
        }
        let (t, ixs) = inner.indexes_of(name)?;
        for (map, ci) in ixs {
            for rid in old_len..t.len {
                map.entry(t.cols[ci].value_at(rid).key()).or_default().push(rid);
            }
        }
        Ok(n)
    }

    /// A direct-path load's server half: the finished `cols` (`len` rows)
    /// become the heap of table `name`, which the load created and which
    /// is still empty. The rows are not copied into the delta log: it is
    /// poisoned at the load's version, so a snapshot taken between the
    /// `CREATE` and the load refetches rather than replays.
    pub(crate) fn load_heap(&self, name: &str, cols: Vec<ColumnBuilder>, len: usize) -> Result<()> {
        let mut inner = self.inner.write();
        let key = name.to_uppercase();
        let table =
            inner.tables.get_mut(&key).ok_or_else(|| DbError::NoSuchTable(name.to_string()))?;
        if table.len != 0 || cols.len() != table.schema.len() {
            return Err(DbError::Semantic(format!("direct load into {name}: not a fresh table")));
        }
        (table.cols, table.codes) = cols.into_iter().map(ColumnBuilder::finish_with_codes).unzip();
        table.len = len;
        inner.bump_version(name);
        let v = inner.version_clock;
        if let Some(log) = inner.delta_logs.get_mut(&key) {
            log.poison(v);
        }
        let (t, ixs) = inner.indexes_of(name)?;
        for (map, ci) in ixs {
            *map = t.keyed(ci);
        }
        Ok(())
    }

    /// Delete rows satisfying `pred` (all rows when `None`). Every row is
    /// decided before any is removed, so a predicate that fails on some
    /// row deletes nothing.
    pub fn delete_rows(&self, name: &str, pred: Option<&tango_algebra::Expr>) -> Result<u64> {
        let mut inner = self.inner.write();
        let key = name.to_uppercase();
        let table =
            inner.tables.get_mut(&key).ok_or_else(|| DbError::NoSuchTable(name.to_string()))?;
        let rids = match pred {
            None => (0..table.len as u32).collect(),
            Some(p) => select(&p.bound(&table.schema)?, &table.cols, None, table.len)?,
        };
        let tombstones = table.boxed_rows(Some(&rids));
        table.remove(&rids);
        let removed = tombstones.len() as u64;
        inner.bump_version(name);
        let v = inner.version_clock;
        if let Some(log) = inner.delta_logs.get_mut(&key) {
            log.record(v, DeltaOp::Delete, tombstones);
        }
        // `rids` ascends: a survivor's new id is its old one less the
        // deleted rows below it
        for (map, _) in inner.indexes_of(name)?.1 {
            map.retain(|_, ids| {
                ids.retain_mut(|id| match rids.binary_search(&(*id as u32)) {
                    Ok(_) => false,
                    Err(below) => {
                        *id -= below;
                        true
                    }
                });
                !ids.is_empty()
            });
        }
        Ok(removed)
    }

    /// Update columns of rows satisfying `pred`. The predicate and every
    /// right-hand side are evaluated over all rows before any is written,
    /// so an expression that fails on some row updates nothing.
    pub fn update_rows(
        &self,
        name: &str,
        sets: &[(String, tango_algebra::Expr)],
        pred: Option<&tango_algebra::Expr>,
    ) -> Result<u64> {
        let mut inner = self.inner.write();
        let key = name.to_uppercase();
        let DbInner { tables, indexes, .. } = &mut *inner;
        let table = tables.get_mut(&key).ok_or_else(|| DbError::NoSuchTable(name.to_string()))?;
        let bound_pred = pred.map(|p| p.bound(&table.schema)).transpose()?;
        let mut bound_sets = Vec::with_capacity(sets.len());
        for (col, e) in sets {
            let i = table.schema.index_of(col)?;
            bound_sets.push((i, e.bound(&table.schema)?));
        }
        let rids = match &bound_pred {
            None => (0..table.len as u32).collect(),
            Some(p) => select(p, &table.cols, None, table.len)?,
        };
        // every right-hand side reads the *old* row
        let mut writes: Vec<(usize, Vec<Value>)> = Vec::with_capacity(rids.len());
        if !bound_sets.is_empty() {
            let rows = table.boxed_rows(Some(&rids));
            for (&rid, row) in rids.iter().zip(&rows) {
                let vals = bound_sets
                    .iter()
                    .map(|(_, e)| e.eval(row))
                    .collect::<tango_algebra::Result<_>>()?;
                writes.push((rid as usize, vals));
            }
        }
        // the keys of the indexed columns this writes, before it does
        let indexed: Vec<usize> = indexes
            .iter()
            .filter(|ix| ix.table.eq_ignore_ascii_case(name))
            .filter_map(|ix| table.schema.index_of(&ix.col).ok())
            .filter(|ci| bound_sets.iter().any(|(i, _)| i == ci))
            .collect();
        let old_keys: Vec<(usize, Vec<Key>)> = indexed
            .into_iter()
            .map(|ci| {
                (ci, rids.iter().map(|&r| table.cols[ci].value_at(r as usize).key()).collect())
            })
            .collect();
        let n = rids.len() as u64;
        for (rid, vals) in writes {
            for ((i, _), v) in bound_sets.iter().zip(vals) {
                table.cols[*i].set(rid, &v, &mut table.codes[*i]);
            }
        }
        inner.bump_version(name);
        let v = inner.version_clock;
        if n > 0 {
            // in-place mutation has no delete/insert tombstone form —
            // poison the log so stale copies degrade to refetch/drop
            if let Some(log) = inner.delta_logs.get_mut(&key) {
                log.poison(v);
            }
        }
        let (t, ixs) = inner.indexes_of(name)?;
        for (map, ci) in ixs {
            for (_, old) in old_keys.iter().filter(|(c, _)| *c == ci) {
                for (&rid, old) in rids.iter().zip(old) {
                    let new = t.cols[ci].value_at(rid as usize).key();
                    if new != *old {
                        rekey(map, rid as usize, old, new);
                    }
                }
            }
        }
        Ok(n)
    }

    /// ANALYZE TABLE: collect full statistics including height-balanced
    /// histograms on numeric/date columns.
    pub fn analyze(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.write();
        let key = name.to_uppercase();
        let indexed: Vec<(String, bool)> = inner
            .indexes
            .iter()
            .filter(|ix| ix.table.eq_ignore_ascii_case(name))
            .map(|ix| (ix.col.to_uppercase(), false))
            .collect();
        let table =
            inner.tables.get_mut(&key).ok_or_else(|| DbError::NoSuchTable(name.to_string()))?;
        let mut stats = RelationStats::from_columns(
            &table.schema,
            &table.cols,
            0..table.len,
            HISTOGRAM_BUCKETS,
        );
        for (col, clustered) in indexed {
            if let Some(a) = stats.attrs.get_mut(&col) {
                a.indexed = true;
                a.clustered = clustered;
            }
        }
        table.stats = Some(stats);
        Ok(())
    }

    pub fn create_index(&self, name: &str, table: &str, col: &str) -> Result<()> {
        let mut inner = self.inner.write();
        let t = inner.table(table)?;
        let map = t.keyed(t.schema.index_of(col)?);
        inner.indexes.push(IndexDef {
            name: name.to_string(),
            table: table.to_string(),
            col: col.to_string(),
            map,
        });
        Ok(())
    }

    pub fn table_schema(&self, name: &str) -> Option<Schema> {
        if let Some(v) = dictionary_view_schema(name) {
            return Some(v);
        }
        self.inner.read().tables.get(&name.to_uppercase()).map(|t| t.schema.as_ref().clone())
    }

    pub fn table_stats(&self, name: &str) -> Option<RelationStats> {
        self.inner.read().tables.get(&name.to_uppercase()).and_then(|t| t.stats.clone())
    }

    /// Current write-version of a base table (`None` if it does not
    /// exist). Strictly increases with every INSERT/DELETE/UPDATE against
    /// the table, so `version unchanged` ⇒ `contents unchanged`.
    pub fn table_version(&self, name: &str) -> Option<u64> {
        self.inner.read().tables.get(&name.to_uppercase()).map(|t| t.version)
    }

    /// Bytes of delta-log records a snapshot of `name` taken at version
    /// `since` must replay to reach the current state, or `None` when no
    /// such replay is possible (unknown table, or the log's floor has
    /// risen past `since` through compaction or an in-place UPDATE).
    /// Like [`Database::table_version`], a catalog peek — no wire.
    pub fn delta_bytes_since(&self, name: &str, since: u64) -> Option<u64> {
        self.inner.read().delta_logs.get(&name.to_uppercase()).and_then(|l| l.bytes_since(since))
    }

    /// Total bytes currently held across all per-table delta logs.
    pub fn delta_log_bytes(&self) -> u64 {
        self.inner.read().delta_logs.values().map(|l| l.bytes() as u64).sum()
    }

    /// Atomically read the delta records each `(table, since)` request
    /// must replay **and** a consistent version vector of every base
    /// table, all under one read lock — the snapshot a refresher needs
    /// to bring cached fragments forward without racing concurrent
    /// writers. Returns `None` if any requested table is unknown or its
    /// log no longer covers `since`.
    pub fn deltas_since_multi(&self, reqs: &[(String, u64)]) -> Option<DeltaSnapshot> {
        let inner = self.inner.read();
        let mut tables = Vec::with_capacity(reqs.len());
        for (name, since) in reqs {
            let log = inner.delta_logs.get(&name.to_uppercase())?;
            tables.push((name.to_uppercase(), log.records_since(*since)?));
        }
        let mut versions: Vec<(String, u64)> =
            inner.tables.iter().map(|(n, t)| (n.clone(), t.version)).collect();
        versions.sort();
        Some(DeltaSnapshot { tables, versions })
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().tables.keys().cloned().collect();
        v.sort();
        v
    }
}

/// A consistent point-in-time read of delta logs plus the version
/// vector they are consistent with; see [`Database::deltas_since_multi`].
#[derive(Debug)]
pub struct DeltaSnapshot {
    /// Per requested table (uppercased): the records to replay, in
    /// version order.
    pub tables: Vec<(String, Vec<DeltaRecord>)>,
    /// `(table, version)` for every base table, sorted by name, read
    /// under the same lock as the records.
    pub versions: Vec<(String, u64)>,
}

impl DeltaSnapshot {
    /// The snapshot version of `table`, if it exists.
    pub fn version_of(&self, table: &str) -> Option<u64> {
        let key = table.to_uppercase();
        self.versions.iter().find(|(n, _)| *n == key).map(|(_, v)| *v)
    }

    /// Total wire bytes of the carried records.
    pub fn byte_size(&self) -> u64 {
        self.tables.iter().flat_map(|(_, recs)| recs.iter()).map(|r| r.byte_size() as u64).sum()
    }
}

/// Schemas of the Oracle-style dictionary views.
pub fn dictionary_view_schema(name: &str) -> Option<Schema> {
    match name.to_uppercase().as_str() {
        "USER_TABLES" => Some(Schema::new(vec![
            Attr::new("TABLE_NAME", Type::Str),
            Attr::new("NUM_ROWS", Type::Int),
            Attr::new("BLOCKS", Type::Int),
            Attr::new("AVG_ROW_LEN", Type::Double),
        ])),
        "USER_TAB_COLUMNS" => Some(Schema::new(vec![
            Attr::new("TABLE_NAME", Type::Str),
            Attr::new("COLUMN_NAME", Type::Str),
            Attr::new("NUM_DISTINCT", Type::Int),
            Attr::new("LOW_VALUE", Type::Double),
            Attr::new("HIGH_VALUE", Type::Double),
            Attr::new("NUM_NULLS", Type::Int),
            Attr::new("AVG_COL_LEN", Type::Double),
            Attr::new("INDEXED", Type::Int),
        ])),
        "USER_HISTOGRAMS" => Some(Schema::new(vec![
            Attr::new("TABLE_NAME", Type::Str),
            Attr::new("COLUMN_NAME", Type::Str),
            Attr::new("ENDPOINT_NUMBER", Type::Int),
            Attr::new("ENDPOINT_VALUE", Type::Double),
        ])),
        _ => None,
    }
}

/// Materialize a dictionary view from current catalog state. Only tables
/// that have been ANALYZEd appear (as in Oracle, where NUM_ROWS is null
/// until statistics are gathered — we simply omit such tables).
pub fn dictionary_view(name: &str, inner: &DbInner) -> Option<Relation> {
    let schema = Arc::new(dictionary_view_schema(name)?);
    let mut names: Vec<&String> = inner.tables.keys().collect();
    names.sort();
    let mut rows = Vec::new();
    match name.to_uppercase().as_str() {
        "USER_TABLES" => {
            for t in names {
                let table = &inner.tables[t];
                if let Some(s) = &table.stats {
                    rows.push(Tuple::new(vec![
                        Value::Str(t.clone()),
                        Value::Int(s.rows as i64),
                        Value::Int(s.blocks as i64),
                        Value::Double(s.avg_tuple_bytes),
                    ]));
                }
            }
        }
        "USER_TAB_COLUMNS" => {
            for t in names {
                let table = &inner.tables[t];
                if let Some(s) = &table.stats {
                    for attr in table.schema.attrs() {
                        let a = s.attr(&attr.name).cloned().unwrap_or_default();
                        rows.push(Tuple::new(vec![
                            Value::Str(t.clone()),
                            Value::Str(attr.name.to_uppercase()),
                            Value::Int(a.distinct as i64),
                            a.min.map(Value::Double).unwrap_or(Value::Null),
                            a.max.map(Value::Double).unwrap_or(Value::Null),
                            Value::Int(a.nulls as i64),
                            Value::Double(a.avg_width),
                            Value::Int(a.indexed as i64),
                        ]));
                    }
                }
            }
        }
        "USER_HISTOGRAMS" => {
            for t in names {
                let table = &inner.tables[t];
                if let Some(s) = &table.stats {
                    for attr in table.schema.attrs() {
                        if let Some(h) = s.attr(&attr.name).and_then(|a| a.histogram.as_ref()) {
                            for (i, ep) in h.endpoints.iter().enumerate() {
                                rows.push(Tuple::new(vec![
                                    Value::Str(t.clone()),
                                    Value::Str(attr.name.to_uppercase()),
                                    Value::Int(i as i64),
                                    Value::Double(*ep),
                                ]));
                            }
                        }
                    }
                }
            }
        }
        _ => return None,
    }
    Some(Relation::new(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::tup;

    fn db_with_table() -> Database {
        let db = Database::in_memory();
        let schema = Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]);
        db.create_table("POSITION", schema).unwrap();
        db.insert_rows("POSITION", vec![tup![1, 2, 20], tup![1, 5, 25], tup![2, 5, 10]]).unwrap();
        db
    }

    #[test]
    fn create_insert_analyze() {
        let db = db_with_table();
        assert!(db.table_stats("POSITION").is_none());
        db.analyze("POSITION").unwrap();
        let s = db.table_stats("POSITION").unwrap();
        assert_eq!(s.rows, 3.0);
        assert_eq!(s.attr("PosID").unwrap().distinct, 2);
    }

    /// Every write — INSERT, DELETE, UPDATE — moves the table's
    /// write-version; reads never do. `version unchanged ⇒ contents
    /// unchanged` is what the middleware cache's invalidation rests on.
    #[test]
    fn write_version_moves_on_every_dml() {
        let db = db_with_table();
        let v0 = db.table_version("position").unwrap();
        db.analyze("POSITION").unwrap();
        assert_eq!(db.table_version("POSITION").unwrap(), v0, "reads must not bump");

        db.insert_rows("POSITION", vec![tup![9, 1, 2]]).unwrap();
        let v1 = db.table_version("POSITION").unwrap();
        assert!(v1 > v0);

        db.delete_rows("POSITION", None).unwrap();
        let v2 = db.table_version("POSITION").unwrap();
        assert!(v2 > v1);

        db.update_rows("POSITION", &[], None).unwrap();
        assert!(db.table_version("POSITION").unwrap() > v2);

        assert!(db.table_version("NOPE").is_none());
    }

    /// A bulk load past the delta log's cap lands whole in the heap and
    /// leaves the log empty with its floor at the load's version.
    #[test]
    fn an_oversize_insert_poisons_the_delta_log() {
        let db = Database::in_memory();
        db.create_table("DOCS", Schema::new(vec![Attr::new("Body", Type::Str)])).unwrap();
        db.insert_rows("DOCS", vec![tup!["small"]]).unwrap();
        let v0 = db.table_version("DOCS").unwrap();
        assert!(db.delta_bytes_since("DOCS", v0 - 1).unwrap() > 0);
        let page = "x".repeat(1 << 14);
        let rows: Vec<Tuple> =
            (0..(DEFAULT_DELTA_LOG_CAP >> 14) + 1).map(|_| tup![page.as_str()]).collect();
        db.insert_rows("DOCS", rows.clone()).unwrap();
        let v1 = db.table_version("DOCS").unwrap();
        assert_eq!(db.inner.read().table("DOCS").unwrap().len, rows.len() + 1);
        assert_eq!(db.delta_log_bytes(), 0);
        assert_eq!(db.delta_bytes_since("DOCS", v0), None);
        assert_eq!(db.delta_bytes_since("DOCS", v1), Some(0));
    }

    /// A direct load does not log its rows: a snapshot taken between its
    /// `CREATE` and its load (an empty table) has nothing to replay that
    /// could bring it forward, so it refetches. A snapshot taken after
    /// the load replays the writes that follow.
    #[test]
    fn a_snapshot_between_a_loads_create_and_its_rows_refetches() {
        let db = Database::in_memory();
        db.create_table("T", Schema::new(vec![Attr::new("A", Type::Int)])).unwrap();
        let created = db.table_version("T").unwrap();
        assert_eq!(db.delta_bytes_since("T", created), Some(0));
        let mut cols = vec![ColumnBuilder::default()];
        (0..3).for_each(|i| cols[0].push(Value::Int(i)));
        db.load_heap("T", cols, 3).unwrap();
        let loaded = db.table_version("T").unwrap();
        assert!(loaded > created);
        assert_eq!(db.delta_bytes_since("T", created), None);
        assert!(db.deltas_since_multi(&[("T".to_string(), created)]).is_none());
        assert_eq!(db.delta_bytes_since("T", loaded), Some(0));
        db.insert_rows("T", vec![tup![9]]).unwrap();
        assert!(db.delta_bytes_since("T", loaded).unwrap() > 0);
        assert_eq!(db.inner.read().table("T").unwrap().boxed_rows(None).len(), 4);
        // only a fresh table takes a load
        assert!(db.load_heap("T", vec![ColumnBuilder::default()], 0).is_err());
    }

    /// ANALYZE over the columnar heap gathers exactly the statistics of
    /// the rows it holds, boxed, for the UIS tables — loaded, then
    /// written to — and the heap gives those rows back as loaded.
    #[test]
    fn analyze_equals_statistics_over_the_boxed_heap() {
        use tango_uis::{generate_employee, generate_position, UisConfig};
        let cfg = UisConfig::small(7);
        let db = Database::in_memory();
        for (name, rel) in
            [("POSITION", generate_position(&cfg)), ("EMPLOYEE", generate_employee(&cfg))]
        {
            db.create_table(name, rel.schema().as_ref().clone()).unwrap();
            db.insert_rows(name, rel.tuples().to_vec()).unwrap();
            {
                let inner = db.inner.read();
                let t = inner.table(name).unwrap();
                let heap = format!("{:?}", t.boxed_rows(None));
                assert_eq!(heap, format!("{:?}", rel.tuples()), "{name} as loaded");
            }
            for written in [false, true] {
                db.analyze(name).unwrap();
                let inner = db.inner.read();
                let t = inner.table(name).unwrap();
                let rel = Relation::new(t.schema.clone(), t.boxed_rows(None));
                let want = RelationStats::from_relation(&rel, HISTOGRAM_BUCKETS);
                assert_eq!(t.stats.as_ref(), Some(&want), "{name}, written: {written}");
                drop(inner);
                let first = tango_algebra::Expr::col(rel.schema().attr(0).name.clone());
                let low = tango_algebra::Expr::cmp(
                    tango_algebra::CmpOp::Lt,
                    first,
                    tango_algebra::Expr::lit(50),
                );
                db.delete_rows(name, Some(&low)).unwrap();
                db.insert_rows(name, rel.tuples()[..10].to_vec()).unwrap();
            }
        }
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = db_with_table();
        assert!(matches!(
            db.create_table("position", Schema::new(vec![])),
            Err(DbError::TableExists(_))
        ));
        db.drop_table("POSITION", false).unwrap();
        assert!(db.drop_table("POSITION", true).is_ok());
        assert!(db.drop_table("POSITION", false).is_err());
    }

    #[test]
    fn index_maintenance() {
        let db = db_with_table();
        db.create_index("IX1", "POSITION", "PosID").unwrap();
        {
            let inner = db.inner.read();
            let ix = inner.index_on("POSITION", "posid").unwrap();
            assert_eq!(ix.map.len(), 2);
        }
        db.insert_rows("POSITION", vec![tup![3, 1, 2]]).unwrap();
        let inner = db.inner.read();
        let ix = inner.index_on("POSITION", "PosID").unwrap();
        assert_eq!(ix.map.len(), 3);
    }

    #[test]
    fn dictionary_views() {
        let db = db_with_table();
        db.analyze("POSITION").unwrap();
        let inner = db.inner.read();
        let ut = dictionary_view("USER_TABLES", &inner).unwrap();
        assert_eq!(ut.len(), 1);
        assert_eq!(ut.tuples()[0][1], Value::Int(3));
        let utc = dictionary_view("USER_TAB_COLUMNS", &inner).unwrap();
        assert_eq!(utc.len(), 3);
        let uh = dictionary_view("USER_HISTOGRAMS", &inner).unwrap();
        assert!(!uh.is_empty());
    }
}
