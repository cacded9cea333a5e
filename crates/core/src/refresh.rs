//! Refresh-by-delta: bring a stale cached fragment forward by replaying
//! the DBMS's delta logs through the fragment's operators instead of
//! refetching the whole result.
//!
//! The supported shapes mirror the delta rules of `tango_xxl::delta`:
//!
//! * a **linear chain** (`SEL` / `PROJ` over one base `GET`) replays the
//!   table's tombstones through the same filter/project cursors;
//! * an **equi or temporal merge join** of two such chains, possibly
//!   below further linear steps: a side has changed iff a record of the
//!   window survives its chain. No survivor on either side leaves the
//!   fragment unchanged (a self-join included); one changed side of two
//!   different tables, with the *other side's* subfragment resident fresh
//!   in the cache, delta-joins the survivors against the resident copy
//!   (`Δ(A ⋈ B) = ΔA ⋈ B`) and replays the steps above the join;
//! * a **temporal aggregate** over a chain re-fetches only the *touched
//!   groups* (the group keys appearing in the input delta) with a
//!   generated `WHERE` clause, and splices them over the cached base.
//!
//! Every path ends in [`DeltaApply::splice`], which rebuilds only the
//! equal-sort-key runs the delta touches and verifies each of them is
//! order-determined — the refreshed fragment is byte-identical to a cold
//! refetch or the attempt bails. The records are replayed **un-netted**:
//! a row deleted and re-inserted moved to the end of its table, so its
//! run counts as touched although the multiset did not change.
//! Bails are cheap and safe: the engine falls back to the ordinary
//! streamed transfer (with populate), and a faulted refresh never
//! commits anything to the cache.
//!
//! One write stales every resident fragment over the written table, and
//! each of them needs the same records. The cache keeps the records a
//! refresh fetched in its [`DeltaMirror`], so the first refresh after a
//! write pays the delta round trip and the others read the mirror.

use crate::cache::{self, MidCache, StaleEntry};
use crate::phys::{Algo, PhysNode};
use crate::{engine, to_sql};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tango_algebra::logical::ProjItem;
use tango_algebra::{Batch, CmpOp, Expr, Schema, SortSpec, Value};
use tango_minidb::delta::DeltaLog;
use tango_minidb::{Connection, DeltaOp, DeltaRecord, DeltaSnapshot, DEFAULT_DELTA_LOG_CAP};
use tango_xxl::{delta_filter, delta_join, delta_project, DeltaApply, ZSet};

/// Touched-group refetch gives up past this many distinct group keys —
/// the generated `OR` chain would rival a full refetch.
const MAX_TOUCHED_GROUPS: usize = 64;

/// A spliced fragment, proven byte-identical to a cold refetch.
pub(crate) struct Refreshed {
    /// The refreshed fragment and what the splice did to produce it.
    pub(crate) spliced: DeltaApply,
    /// Post-replay `(table, version)` dependency snapshot.
    pub(crate) new_deps: Vec<(String, u64)>,
    /// Replay traffic: tombstone wire bytes plus any touched-group
    /// refetch bytes — only what crossed the wire, so 0 for the
    /// tombstones of a `mirrored` refresh.
    pub(crate) delta_bytes: u64,
    /// Whether the tombstones came from the cache's [`DeltaMirror`]
    /// rather than a delta round trip.
    pub(crate) mirrored: bool,
}

/// Why a refresh attempt could not be proven identical to a refetch (the
/// caller falls back to one). The cache counts bails per variant
/// ([`MidCache::note_refresh_bail`]); `Display` is the text of the
/// `refresh bailed: …` span event.
#[derive(Debug)]
pub(crate) enum RefreshBail {
    NoDeltaRule,
    LogTruncated,
    DeltaFetch(String),
    TableVanished,
    Replay(String),
    BothSidesChanged,
    OtherSideUncacheable,
    OtherSideNotResident,
    OtherSideStale,
    OtherSideSchema,
    DeltaJoin(String),
    NotOrderDetermined,
    Merge(String),
    GroupColumnMissing(String),
    GroupKeyNotLiteral,
    TooManyGroups,
    RefetchRender(String),
    Refetch(String),
    RefetchRaced,
}

impl RefreshBail {
    /// The variant's text without its detail: the key of the per-reason
    /// counts.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            RefreshBail::NoDeltaRule => "fragment shape has no delta rule",
            RefreshBail::LogTruncated => "delta log no longer covers the snapshot",
            RefreshBail::DeltaFetch(_) => "delta fetch failed",
            RefreshBail::TableVanished => "dependency table vanished",
            RefreshBail::Replay(_) => "delta replay failed",
            RefreshBail::BothSidesChanged => "both join sides changed",
            RefreshBail::OtherSideUncacheable => "unchanged join side is uncacheable",
            RefreshBail::OtherSideNotResident => "unchanged join side not resident",
            RefreshBail::OtherSideStale => "resident join side is itself stale",
            RefreshBail::OtherSideSchema => "resident join side schema mismatch",
            RefreshBail::DeltaJoin(_) => "delta join failed",
            RefreshBail::NotOrderDetermined => "merge is not order-determined",
            RefreshBail::Merge(_) => "delta merge failed",
            RefreshBail::GroupColumnMissing(_) => "group column missing",
            RefreshBail::GroupKeyNotLiteral => "group key not renderable as a literal predicate",
            RefreshBail::TooManyGroups => "too many touched groups",
            RefreshBail::RefetchRender(_) => "refetch render",
            RefreshBail::Refetch(_) => "touched-group refetch failed",
            RefreshBail::RefetchRaced => "write raced the touched-group refetch",
        }
    }
}

/// `kind` carrying the text of the error that stopped the attempt.
fn detail<E: std::fmt::Display>(kind: fn(String) -> RefreshBail) -> impl Fn(E) -> RefreshBail {
    move |e| kind(e.to_string())
}

impl std::fmt::Display for RefreshBail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshBail::GroupColumnMissing(c) => write!(f, "group column {c} missing"),
            RefreshBail::DeltaFetch(e)
            | RefreshBail::Replay(e)
            | RefreshBail::DeltaJoin(e)
            | RefreshBail::Merge(e)
            | RefreshBail::RefetchRender(e)
            | RefreshBail::Refetch(e) => write!(f, "{}: {e}", self.kind()),
            _ => f.write_str(self.kind()),
        }
    }
}

/// One operator of a linear chain, applied bottom-up to a delta.
enum Step {
    Filter(Expr),
    Project(Vec<ProjItem>),
}

/// A linear `SEL`/`PROJ` chain over one base `GET`.
struct Chain<'a> {
    /// Operators in bottom-up application order.
    steps: Vec<Step>,
    /// The base table (uppercased, as `ScanD` carries it).
    table: String,
    /// The scan node: its schema is the layout delta tombstones arrive in.
    scan: &'a PhysNode,
}

/// A cacheable fragment shape with a known delta rule.
enum Shape<'a> {
    Chain(Chain<'a>),
    Join {
        temporal: bool,
        eq: &'a [(String, String)],
        left: Chain<'a>,
        right: Chain<'a>,
        /// The join children, for resident-other-side signature lookups.
        children: &'a [PhysNode],
        /// Linear steps above the join, applied to the joined delta.
        above: Vec<Step>,
    },
    Aggr {
        input: Chain<'a>,
        group_by: &'a [String],
        /// The `TAggrD` node itself (the touched-group refetch wraps it
        /// in a generated `WHERE`).
        node: &'a PhysNode,
    },
}

fn strip_sorts(mut node: &PhysNode) -> &PhysNode {
    while matches!(node.algo, Algo::SortD(_)) {
        node = &node.children[0];
    }
    node
}

/// Peel the linear `SEL`/`PROJ` steps off `node`: the steps in bottom-up
/// order, and the node below them.
fn peel(mut node: &PhysNode) -> (Vec<Step>, &PhysNode) {
    let mut steps = Vec::new();
    loop {
        steps.push(match &node.algo {
            Algo::FilterD(p) => Step::Filter(p.clone()),
            Algo::ProjectD(items) => Step::Project(items.clone()),
            _ => break,
        });
        node = &node.children[0];
    }
    steps.reverse();
    (steps, node)
}

fn linear_chain(node: &PhysNode) -> Option<Chain<'_>> {
    let (steps, scan) = peel(node);
    match &scan.algo {
        Algo::ScanD(t) => Some(Chain { steps, table: t.to_uppercase(), scan }),
        _ => None,
    }
}

fn shape(inner: &PhysNode) -> Option<Shape<'_>> {
    let (above, core) = peel(inner);
    match &core.algo {
        Algo::ScanD(t) => {
            Some(Shape::Chain(Chain { steps: above, table: t.to_uppercase(), scan: core }))
        }
        Algo::JoinD(eq) | Algo::TJoinD(eq) => Some(Shape::Join {
            temporal: matches!(core.algo, Algo::TJoinD(_)),
            eq,
            left: linear_chain(&core.children[0])?,
            right: linear_chain(&core.children[1])?,
            children: &core.children,
            above,
        }),
        // no group key: any write touches "the" group — that is a full
        // refetch by definition
        Algo::TAggrD { group_by, .. } if above.is_empty() && !group_by.is_empty() => {
            let input = linear_chain(&core.children[0])?;
            Some(Shape::Aggr { input, group_by, node: core })
        }
        _ => None,
    }
}

/// Whether `fragment` (a cleaned DBMS fragment, top sort included) has a
/// delta rule at all — the *support* input of
/// [`cache::maintenance_choice`]. Cheap and purely structural; the
/// dynamic preconditions (resident other side, touched-group cap,
/// order-determined merge) are checked by [`try_refresh`], which bails
/// to refetch when they fail.
pub(crate) fn supported(fragment: &PhysNode, order: &SortSpec) -> bool {
    !order.is_none() && shape(strip_sorts(fragment)).is_some()
}

fn zset_of_records(schema: Arc<Schema>, recs: &[DeltaRecord]) -> ZSet {
    let mut z = ZSet::new(schema);
    for r in recs {
        let w = match r.op {
            DeltaOp::Insert => 1,
            DeltaOp::Delete => -1,
        };
        z.add(r.row.clone(), w);
    }
    z
}

fn apply_chain(mut z: ZSet, steps: &[Step]) -> tango_xxl::Result<ZSet> {
    for s in steps {
        z = match s {
            Step::Filter(p) => delta_filter(&z, p)?,
            Step::Project(items) => delta_project(&z, items)?,
        };
    }
    Ok(z)
}

/// The window's records of `chain`'s table replayed through its steps,
/// un-netted: empty iff no written row survives the chain.
fn replay(snap: &DeltaSnapshot, chain: &Chain<'_>) -> Result<ZSet, RefreshBail> {
    let recs = snap.tables.iter().find(|(t, _)| *t == chain.table).map(|(_, r)| r.as_slice());
    let z = zset_of_records(chain.scan.schema.clone(), recs.unwrap_or(&[]));
    apply_chain(z, &chain.steps).map_err(detail(RefreshBail::Replay))
}

/// The delta records refreshes already fetched, per base table: a copy
/// of the server's delta log over the version range `(from, to]` a fetch
/// covered, held by the Database-scoped [`MidCache`] so that every
/// fragment one write stales shares the round trip the first refresh
/// paid.
///
/// **Validity rule.** The mirror serves a `(table, since)` request set
/// only if, for every table, the current write-version equals the
/// mirror's `to` and `from ≤ since`. Versions come from one database-wide
/// monotonic clock, so an unchanged version means unchanged contents
/// (across DROP/CREATE too), and the records the mirror hands out are
/// exactly the ones the server's log would. Checking the tables one by
/// one is enough: each `to` was read before the check and versions only
/// grow, so every table held its `to` at the moment of the first check.
///
/// Each table's copy is a [`DeltaLog`] under the server's per-table cap,
/// compacted the same way (its floor is `from`). Only fetches that
/// returned records reach the mirror: a faulted fetch or one the log no
/// longer covers (compaction, an `UPDATE`'s poisoning) leaves it as it
/// was, and the moved version keeps it from serving anyway.
#[derive(Debug, Default)]
pub(crate) struct DeltaMirror {
    /// Upper-cased table → its copied log and the version it reaches.
    tables: HashMap<String, (DeltaLog, u64)>,
}

impl DeltaMirror {
    /// The snapshot the server would return for `reqs` now, if the
    /// mirror covers every request under the validity rule. `version_of`
    /// reads a table's current write-version.
    pub(crate) fn serve(
        &self,
        reqs: &[(String, u64)],
        version_of: &dyn Fn(&str) -> Option<u64>,
    ) -> Option<DeltaSnapshot> {
        let mut tables = Vec::with_capacity(reqs.len());
        let mut versions = Vec::with_capacity(reqs.len());
        for (name, since) in reqs {
            let key = name.to_uppercase();
            let (log, to) = self.tables.get(&key)?;
            if version_of(&key) != Some(*to) {
                return None;
            }
            tables.push((key.clone(), log.records_since(*since)?));
            versions.push((key, *to));
        }
        versions.sort();
        versions.dedup();
        Some(DeltaSnapshot { tables, versions })
    }

    /// Keep what a fetch for `reqs` returned. A table's copy grows when
    /// the fetch starts inside it, is replaced when the fetch reaches
    /// further back or starts past it, and is kept when it is already as
    /// new and reaches as far back.
    pub(crate) fn absorb(&mut self, reqs: &[(String, u64)], snap: &DeltaSnapshot) {
        for ((_, since), (key, recs)) in reqs.iter().zip(&snap.tables) {
            let Some(v) = snap.version_of(key) else { continue };
            match self.tables.get_mut(key) {
                // newer, or as new and reaching as far back
                Some((log, to)) if v < *to || (v == *to && log.covers(*since)) => {}
                // the fetch starts inside the copy: both are exact copies
                // of the server's log, so only the records past `to` are new
                Some((log, to)) if log.covers(*since) && *since <= *to => {
                    let newer = recs.iter().filter(|r| r.version > *to);
                    append(log, newer);
                    *to = v;
                }
                _ => {
                    let mut log = DeltaLog::new(*since, DEFAULT_DELTA_LOG_CAP);
                    append(&mut log, recs.iter());
                    self.tables.insert(key.clone(), (log, v));
                }
            }
        }
    }

    /// Forget every copied record.
    pub(crate) fn clear(&mut self) {
        self.tables.clear();
    }
}

/// Log `recs` (version order) statement by statement, so compaction drops
/// whole statements as the server's does.
fn append<'a>(log: &mut DeltaLog, recs: impl Iterator<Item = &'a DeltaRecord>) {
    let mut recs = recs.peekable();
    while let Some(first) = recs.next() {
        let (version, op) = (first.version, first.op);
        let mut rows = vec![first.row.clone()];
        while let Some(r) = recs.next_if(|r| r.version == version && r.op == op) {
            rows.push(r.row.clone());
        }
        log.record(version, op, rows);
    }
}

/// Attempt to refresh one stale cached fragment in place. `fragment` is
/// the cleaned DBMS subtree of the `TRANSFER^M` (as keyed by
/// [`cache::fragment_key`]); `stale` the resident entry surfaced by
/// lookup. The caller commits a [`Refreshed`] batch via
/// [`MidCache::refresh`] and serves it; on a bail it falls back to the
/// ordinary streamed transfer. Nothing here writes to the cache.
/// `batch_rows` is the executor's batch, the fetch size of any refetch
/// (see [`engine::query_batched`]).
pub(crate) fn try_refresh(
    conn: &Connection,
    cache: &MidCache,
    fragment: &PhysNode,
    stale: &StaleEntry,
    batch_rows: usize,
) -> Result<Refreshed, RefreshBail> {
    let schema = stale.batch.schema();
    let shape = shape(strip_sorts(fragment)).ok_or(RefreshBail::NoDeltaRule)?;
    // every dep table's pending tombstones plus the versions they bring
    // the fragment to: from the mirror when it covers them, else from
    // one locked read on the server, which the mirror then keeps
    let (snap, mirrored) =
        match cache.mirrored_deltas(&stale.deps, &|t: &str| conn.table_version(t)) {
            Some(snap) => (snap, true),
            None => {
                let snap = conn
                    .fetch_deltas_multi(&stale.deps)
                    .map_err(detail(RefreshBail::DeltaFetch))?
                    .ok_or(RefreshBail::LogTruncated)?;
                cache.mirror_deltas(&stale.deps, &snap);
                (snap, false)
            }
        };
    let mut delta_bytes = if mirrored { 0 } else { snap.byte_size() };
    let new_deps: Option<Vec<(String, u64)>> =
        stale.deps.iter().map(|(t, _)| snap.version_of(t).map(|v| (t.clone(), v))).collect();
    let new_deps = new_deps.ok_or(RefreshBail::TableVanished)?;

    let delta = match &shape {
        Shape::Chain(chain) => replay(&snap, chain)?,
        Shape::Join { temporal, eq, left, right, children, above } => {
            let (dl, dr) = (replay(&snap, left)?, replay(&snap, right)?);
            if dl.is_empty() && dr.is_empty() {
                // no written row reaches the join: the fragment stands
                ZSet::new(schema.clone())
            } else if left.table == right.table || !(dl.is_empty() || dr.is_empty()) {
                // survivors on both sides make the delta quadratic in the
                // change; in a self-join one is enough — the write moved
                // the other side's table too, so no resident copy of that
                // side is fresh to join against
                return Err(RefreshBail::BothSidesChanged);
            } else {
                let changed_left = dr.is_empty();
                let (dz, other_node) =
                    if changed_left { (dl, &children[1]) } else { (dr, &children[0]) };
                // the unchanged side must be resident as its own fresh
                // fragment — that is what the delta joins against
                let is_temp = |t: &str| t.to_uppercase().starts_with("TANGO_TMP_");
                let other_key = cache::fragment_key(other_node, "", &is_temp)
                    .ok_or(RefreshBail::OtherSideUncacheable)?;
                let (resident, odeps) = cache
                    .peek_by_signature(&other_key.signature)
                    .ok_or(RefreshBail::OtherSideNotResident)?;
                if odeps.iter().any(|(t, v)| snap.version_of(t) != Some(*v)) {
                    return Err(RefreshBail::OtherSideStale);
                }
                if resident.schema() != &other_node.schema {
                    return Err(RefreshBail::OtherSideSchema);
                }
                let full = ZSet::from_rows(resident.schema().clone(), resident.into_rows());
                let joined = if changed_left {
                    delta_join(*temporal, &dz, &full, eq)
                } else {
                    delta_join(*temporal, &full, &dz, eq)
                };
                let joined = joined.map_err(detail(RefreshBail::DeltaJoin))?;
                apply_chain(joined, above).map_err(detail(RefreshBail::Replay))?
            }
        }
        Shape::Aggr { input, group_by, node } => {
            let din = replay(&snap, input)?;
            let (z, refetched) =
                aggr_delta(conn, &stale.batch, &din, group_by, node, &new_deps, batch_rows)?;
            delta_bytes += refetched;
            z
        }
    };

    let spliced = DeltaApply::splice(&stale.batch, &delta, &stale.order)
        .map_err(detail(RefreshBail::Merge))?
        .ok_or(RefreshBail::NotOrderDetermined)?;
    Ok(Refreshed { spliced, new_deps, delta_bytes, mirrored })
}

/// Touched-group re-aggregation: refetch only the groups the input delta
/// `din` names, and splice them over the cached `base` (removed groups
/// simply yield no refetched rows). Returns the output-schema delta plus
/// the refetch wire bytes.
fn aggr_delta(
    conn: &Connection,
    base: &Batch,
    din: &ZSet,
    group_by: &[String],
    node: &PhysNode,
    new_deps: &[(String, u64)],
    batch_rows: usize,
) -> Result<(ZSet, u64), RefreshBail> {
    let schema = base.schema();
    let mut delta = ZSet::new(schema.clone());
    // group keys touched by the input delta, read off the aggregate's
    // input schema (the chain's output)
    let in_schema = &node.children[0].schema;
    let in_idx: Vec<usize> = group_by
        .iter()
        .map(|c| in_schema.index_of(c).map_err(|_| RefreshBail::GroupColumnMissing(c.clone())))
        .collect::<Result<_, _>>()?;
    let mut touched: HashSet<Vec<Value>> = HashSet::new();
    for (row, _) in din.iter() {
        let key: Vec<Value> = in_idx.iter().map(|i| row.values()[*i].clone()).collect();
        if !key.iter().all(|v| matches!(v, Value::Int(_) | Value::Str(_))) {
            return Err(RefreshBail::GroupKeyNotLiteral);
        }
        touched.insert(key);
        if touched.len() > MAX_TOUCHED_GROUPS {
            return Err(RefreshBail::TooManyGroups);
        }
    }
    // refetch exactly those groups: WHERE (k = v AND ...) OR ...
    let groups: Vec<Expr> = touched
        .iter()
        .map(|key| {
            group_by
                .iter()
                .zip(key)
                .map(|(c, v)| Expr::cmp(CmpOp::Eq, Expr::col(c.clone()), Expr::Lit(v.clone())))
                .reduce(Expr::and)
                .ok_or(RefreshBail::NoDeltaRule) // an aggregate without a group key
        })
        .collect::<Result<_, _>>()?;
    let Some(pred) = groups.into_iter().reduce(Expr::or) else {
        return Ok((delta, 0)); // no written row reaches the aggregate
    };
    let refetch = PhysNode {
        algo: Algo::FilterD(pred),
        schema: node.schema.clone(),
        children: vec![node.clone()],
    };
    let sql = to_sql::render_select(&refetch).map_err(detail(RefreshBail::RefetchRender))?;
    let fetched =
        engine::fetch_all(conn, &sql, batch_rows).map_err(detail(RefreshBail::Refetch))?;
    let fetched_bytes = fetched.iter().map(|b| b.byte_size() as u64).sum();
    // the refetch ran after the snapshot: if any dependency moved in
    // between, the spliced result would mix versions
    if new_deps.iter().any(|(t, v)| conn.table_version(t) != Some(*v)) {
        return Err(RefreshBail::RefetchRaced);
    }
    let out_idx: Vec<usize> = group_by
        .iter()
        .map(|c| schema.index_of(c).map_err(|_| RefreshBail::GroupColumnMissing(c.clone())))
        .collect::<Result<_, _>>()?;
    for r in 0..base.len() {
        let key: Vec<Value> = out_idx.iter().map(|i| base.value_at(r, *i)).collect();
        if touched.contains(&key) {
            delta.add(base.tuple_at(r), -1);
        }
    }
    for row in fetched.into_iter().flat_map(Batch::into_rows) {
        delta.add(row, 1);
    }
    Ok((delta, fetched_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tango_algebra::{tup, Attr, Type};
    use tango_minidb::{Database, Link, LinkProfile};

    fn db_with(tables: &[&str]) -> (Database, Connection) {
        let db = Database::new(Link::new(LinkProfile::instant()));
        for t in tables {
            let schema = Schema::new(vec![Attr::new("X", Type::Int), Attr::new("Y", Type::Int)]);
            db.create_table(t, schema).unwrap();
        }
        let conn = Connection::new(db.clone());
        (db, conn)
    }

    fn version_of(db: &Database) -> impl Fn(&str) -> Option<u64> + '_ {
        move |t: &str| db.table_version(t)
    }

    type Flat = Vec<(String, Vec<(u64, DeltaOp, Vec<Value>)>)>;

    fn flat(snap: &DeltaSnapshot) -> Flat {
        let recs = |rs: &[DeltaRecord]| {
            rs.iter().map(|r| (r.version, r.op, r.row.values().to_vec())).collect::<Vec<_>>()
        };
        snap.tables.iter().map(|(t, rs)| (t.clone(), recs(rs))).collect()
    }

    /// The cache's mirror serves only at the version it reaches and only
    /// from its floor on; a fetch that starts inside it extends it, and
    /// clearing the cache empties it.
    #[test]
    fn mirror_serves_only_what_it_covers() {
        let (db, _conn) = db_with(&["T"]);
        let v0 = db.table_version("T").unwrap();
        db.insert_rows("T", vec![tup![1, 1]]).unwrap();
        let v1 = db.table_version("T").unwrap();
        let cache = MidCache::new(1 << 20);
        let at = |since: u64| vec![("T".to_string(), since)];
        let serve = |since: u64| cache.mirrored_deltas(&at(since), &version_of(&db));
        assert!(serve(v0).is_none(), "an empty mirror serves nothing");

        cache.mirror_deltas(&at(v0), &db.deltas_since_multi(&at(v0)).unwrap());
        for since in [v0, v1] {
            let served = serve(since).unwrap();
            assert_eq!(flat(&served), flat(&db.deltas_since_multi(&at(since)).unwrap()));
            assert_eq!(served.version_of("t"), Some(v1));
        }
        assert!(serve(v0 - 1).is_none(), "below its floor");

        db.insert_rows("T", vec![tup![2, 2]]).unwrap();
        assert!(serve(v1).is_none(), "the version moved");
        cache.mirror_deltas(&at(v1), &db.deltas_since_multi(&at(v1)).unwrap());
        assert_eq!(serve(v0).unwrap().tables[0].1.len(), 2, "the fetch from v1 extended v0's copy");

        cache.clear();
        assert!(serve(v1).is_none(), "clearing the cache empties its mirror");
    }

    /// A table's copy stays under the server's cap: growing it past the
    /// cap drops whole statements from the front, and the copy then no
    /// longer serves the snapshots they covered.
    #[test]
    fn mirror_copy_is_capped_like_the_servers_log() {
        let big = |v: u64| DeltaRecord {
            version: v,
            op: DeltaOp::Insert,
            row: tup!["x".repeat(DEFAULT_DELTA_LOG_CAP * 3 / 5)],
        };
        let snap = |since: u64, v: u64| DeltaSnapshot {
            tables: vec![("T".to_string(), (since + 1..=v).map(big).collect())],
            versions: vec![("T".to_string(), v)],
        };
        let at = |since: u64| vec![("T".to_string(), since)];
        let mut mirror = DeltaMirror::default();
        mirror.absorb(&at(0), &snap(0, 1));
        mirror.absorb(&at(1), &snap(1, 2));
        let (log, to) = &mirror.tables["T"];
        assert!(log.bytes() <= DEFAULT_DELTA_LOG_CAP, "{} bytes", log.bytes());
        assert_eq!((log.floor(), *to), (1, 2));
        let at_two = |_: &str| Some(2);
        assert!(mirror.serve(&at(0), &at_two).is_none(), "version 1 was compacted away");
        assert_eq!(mirror.serve(&at(1), &at_two).unwrap().tables[0].1.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Random writes (inserts, deletes, log-poisoning updates) to two
        /// tables, interleaved with refresh fetches from random earlier
        /// versions: whatever the mirror serves equals what the server
        /// would return at that moment, and each copy stays under the
        /// server's cap.
        #[test]
        fn mirror_answers_as_the_server_would(
            ops in prop::collection::vec((0u8..6, 0usize..2, 0i64..4, 0usize..8), 1..40),
        ) {
            let names = ["T", "U"];
            let (db, conn) = db_with(&names);
            let mut seen: Vec<Vec<u64>> =
                names.iter().map(|t| vec![db.table_version(t).unwrap()]).collect();
            let mut mirror = DeltaMirror::default();
            for (kind, t, x, back) in ops {
                let name = names[t];
                match kind {
                    0 | 1 => {
                        db.insert_rows(name, vec![tup![x, kind as i64]]).unwrap();
                    }
                    2 => {
                        conn.execute(&format!("DELETE FROM {name} WHERE X = {x}")).unwrap();
                    }
                    3 => {
                        conn.execute(&format!("UPDATE {name} SET Y = 7 WHERE X = {x}")).unwrap();
                    }
                    _ => {
                        // a refresh of a fragment over one table or both
                        let pick = |i: usize| {
                            let vs = &seen[i];
                            (names[i].to_string(), vs[vs.len() - 1 - back.min(vs.len() - 1)])
                        };
                        let reqs = if kind == 4 { vec![pick(t)] } else { vec![pick(0), pick(1)] };
                        let server = db.deltas_since_multi(&reqs);
                        match mirror.serve(&reqs, &version_of(&db)) {
                            Some(served) => {
                                let server = server.expect("the mirror served what the log lost");
                                prop_assert_eq!(flat(&served), flat(&server));
                                for (t, _) in &reqs {
                                    prop_assert_eq!(served.version_of(t), server.version_of(t));
                                }
                            }
                            None => {
                                if let Some(snap) = server {
                                    mirror.absorb(&reqs, &snap);
                                }
                            }
                        }
                    }
                }
                for (i, t) in names.iter().enumerate() {
                    let v = db.table_version(t).unwrap();
                    if seen[i].last() != Some(&v) {
                        seen[i].push(v);
                    }
                }
                for (log, _) in mirror.tables.values() {
                    prop_assert!(log.bytes() <= DEFAULT_DELTA_LOG_CAP);
                }
            }
        }
    }
}
