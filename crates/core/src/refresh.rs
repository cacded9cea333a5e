//! Refresh-by-delta: bring a stale cached fragment forward by replaying
//! the DBMS's delta logs through the fragment's operators instead of
//! refetching the whole result.
//!
//! The supported shapes mirror the delta rules of `tango_xxl::delta`:
//!
//! * a **linear chain** (`SEL` / `PROJ` over one base `GET`) replays the
//!   table's tombstones through the same filter/project cursors;
//! * an **equi or temporal merge join** of two such chains, when exactly
//!   one side's table moved and the *other side's* subfragment is
//!   resident fresh in the cache, delta-joins the changed side's replay
//!   against the resident copy (`Δ(A ⋈ B) = ΔA ⋈ B`);
//! * a **temporal aggregate** over a chain re-fetches only the *touched
//!   groups* (the group keys appearing in the input delta) with a
//!   generated `WHERE` clause, and splices them over the cached base.
//!
//! Every path ends in [`DeltaApply`], which re-establishes the delivered
//! sort order and verifies the merge is order-determined — the refreshed
//! fragment is byte-identical to a cold refetch or the attempt bails.
//! Bails are cheap and safe: the engine falls back to the ordinary
//! streamed transfer (with populate), and a faulted refresh never
//! commits anything to the cache.

use crate::cache::{self, MidCache, StaleEntry};
use crate::phys::{Algo, PhysNode};
use crate::to_sql;
use std::collections::HashSet;
use std::sync::Arc;
use tango_algebra::logical::ProjItem;
use tango_algebra::{Batch, CmpOp, Expr, Relation, Schema, SortSpec, Tuple, Value};
use tango_minidb::{Connection, DeltaOp, DeltaRecord};
use tango_xxl::{delta_filter, delta_join, delta_project, DeltaApply, ZSet};

/// Touched-group refetch gives up past this many distinct group keys —
/// the generated `OR` chain would rival a full refetch.
const MAX_TOUCHED_GROUPS: usize = 64;

/// A merged fragment, proven byte-identical to a cold refetch.
pub(crate) struct Refreshed {
    /// The refreshed fragment, columnar, in the delivered order.
    pub(crate) batch: Batch,
    /// Post-replay `(table, version)` dependency snapshot.
    pub(crate) new_deps: Vec<(String, u64)>,
    /// Replay traffic: tombstone wire bytes plus any touched-group
    /// refetch bytes.
    pub(crate) delta_bytes: u64,
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
    NoDependencyMoved,
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
            RefreshBail::NoDependencyMoved => "no dependency moved",
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

fn linear_chain(node: &PhysNode) -> Option<Chain<'_>> {
    match &node.algo {
        Algo::ScanD(t) => Some(Chain { steps: Vec::new(), table: t.to_uppercase(), scan: node }),
        Algo::FilterD(p) => {
            let mut c = linear_chain(&node.children[0])?;
            c.steps.push(Step::Filter(p.clone()));
            Some(c)
        }
        Algo::ProjectD(items) => {
            let mut c = linear_chain(&node.children[0])?;
            c.steps.push(Step::Project(items.clone()));
            Some(c)
        }
        _ => None,
    }
}

fn shape(inner: &PhysNode) -> Option<Shape<'_>> {
    if let Some(c) = linear_chain(inner) {
        return Some(Shape::Chain(c));
    }
    match &inner.algo {
        Algo::JoinD(eq) | Algo::TJoinD(eq) => {
            let left = linear_chain(&inner.children[0])?;
            let right = linear_chain(&inner.children[1])?;
            // a self-join's delta is quadratic in the change — out of scope
            if left.table == right.table {
                return None;
            }
            Some(Shape::Join {
                temporal: matches!(inner.algo, Algo::TJoinD(_)),
                eq,
                left,
                right,
                children: &inner.children,
            })
        }
        Algo::TAggrD { group_by, .. } => {
            if group_by.is_empty() {
                // no group key: any write touches "the" group — that is
                // a full refetch by definition
                return None;
            }
            let input = linear_chain(&inner.children[0])?;
            Some(Shape::Aggr { input, group_by, node: inner })
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

fn records_of<'a>(snap: &'a tango_minidb::DeltaSnapshot, table: &str) -> &'a [DeltaRecord] {
    snap.tables.iter().find(|(t, _)| t == table).map(|(_, r)| r.as_slice()).unwrap_or(&[])
}

/// Attempt to refresh one stale cached fragment in place. `fragment` is
/// the cleaned DBMS subtree of the `TRANSFER^M` (as keyed by
/// [`cache::fragment_key`]); `stale` the resident entry surfaced by
/// lookup. The caller commits a [`Refreshed`] batch via
/// [`MidCache::refresh`] and serves it; on a bail it falls back to the
/// ordinary streamed transfer. Nothing here writes to the cache.
pub(crate) fn try_refresh(
    conn: &Connection,
    cache: &MidCache,
    fragment: &PhysNode,
    stale: &StaleEntry,
) -> Result<Refreshed, RefreshBail> {
    let schema = stale.batch.schema();
    let shape = shape(strip_sorts(fragment)).ok_or(RefreshBail::NoDeltaRule)?;
    // one locked read: every dep table's pending tombstones plus a
    // consistent all-table version vector
    let snap = conn
        .fetch_deltas_multi(&stale.deps)
        .map_err(detail(RefreshBail::DeltaFetch))?
        .ok_or(RefreshBail::LogTruncated)?;
    let mut delta_bytes = snap.byte_size();
    let new_deps: Option<Vec<(String, u64)>> =
        stale.deps.iter().map(|(t, _)| snap.version_of(t).map(|v| (t.clone(), v))).collect();
    let new_deps = new_deps.ok_or(RefreshBail::TableVanished)?;

    // the stale base as rows, read once per attempt: every consumer walks
    // and hashes each base tuple
    let base = Relation::new(schema.clone(), stale.batch.clone().into_rows());
    let delta = match &shape {
        Shape::Chain(chain) => {
            let z = zset_of_records(chain.scan.schema.clone(), records_of(&snap, &chain.table));
            apply_chain(z, &chain.steps).map_err(detail(RefreshBail::Replay))?
        }
        Shape::Join { temporal, eq, left, right, children } => {
            let moved = |c: &Chain| {
                stale.deps.iter().any(|(t, v)| *t == c.table && snap.version_of(t) != Some(*v))
            };
            let (changed, other_node, changed_left) = match (moved(left), moved(right)) {
                (true, false) => (left, &children[1], true),
                (false, true) => (right, &children[0], false),
                (true, true) => return Err(RefreshBail::BothSidesChanged),
                (false, false) => return Err(RefreshBail::NoDependencyMoved),
            };
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
            let z = zset_of_records(changed.scan.schema.clone(), records_of(&snap, &changed.table));
            let dz = apply_chain(z, &changed.steps).map_err(detail(RefreshBail::Replay))?;
            let full = ZSet::from_rows(resident.schema().clone(), resident.into_rows());
            let joined = if changed_left {
                delta_join(*temporal, &dz, &full, eq)
            } else {
                delta_join(*temporal, &full, &dz, eq)
            };
            joined.map_err(detail(RefreshBail::DeltaJoin))?
        }
        Shape::Aggr { input, group_by, node } => {
            let (z, refetched) = aggr_delta(conn, &snap, &base, input, group_by, node, &new_deps)?;
            delta_bytes += refetched;
            z
        }
    };

    let merged = DeltaApply::try_new(schema.clone(), base.tuples(), &delta, &stale.order)
        .map_err(detail(RefreshBail::Merge))?
        .ok_or(RefreshBail::NotOrderDetermined)?;
    let batch = Batch::new(schema.clone(), merged.into_rows()).columnarize();
    Ok(Refreshed { batch, new_deps, delta_bytes })
}

/// Touched-group re-aggregation: refetch only the groups whose input
/// changed, and splice them over the cached base (removed groups simply
/// yield no refetched rows). Returns the output-schema delta plus the
/// refetch wire bytes.
fn aggr_delta(
    conn: &Connection,
    snap: &tango_minidb::DeltaSnapshot,
    base: &Relation,
    input: &Chain<'_>,
    group_by: &[String],
    node: &PhysNode,
    new_deps: &[(String, u64)],
) -> Result<(ZSet, u64), RefreshBail> {
    let z = zset_of_records(input.scan.schema.clone(), records_of(snap, &input.table));
    let din = apply_chain(z, &input.steps).map_err(detail(RefreshBail::Replay))?;
    let schema = base.schema();
    let mut delta = ZSet::new(schema.clone());
    if din.is_empty() {
        return Ok((delta, 0));
    }
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
    let pred = touched
        .iter()
        .map(|key| {
            group_by
                .iter()
                .zip(key)
                .map(|(c, v)| Expr::cmp(CmpOp::Eq, Expr::col(c.clone()), Expr::Lit(v.clone())))
                .reduce(Expr::and)
                .expect("group_by is non-empty")
        })
        .reduce(Expr::or)
        .expect("touched is non-empty");
    let refetch = PhysNode {
        algo: Algo::FilterD(pred),
        schema: node.schema.clone(),
        children: vec![node.clone()],
    };
    let sql = to_sql::render_select(&refetch).map_err(detail(RefreshBail::RefetchRender))?;
    let mut cur = conn.query(&sql).map_err(detail(RefreshBail::Refetch))?;
    let mut fetched: Vec<Tuple> = Vec::new();
    let mut fetched_bytes = 0u64;
    loop {
        match cur.fetch_batch() {
            Ok(Some(batch)) => {
                fetched_bytes += batch.iter().map(|t| t.byte_size() as u64).sum::<u64>();
                fetched.extend(batch);
            }
            Ok(None) => break,
            Err(e) => return Err(RefreshBail::Refetch(e.to_string())),
        }
    }
    // the refetch ran after the snapshot: if any dependency moved in
    // between, the spliced result would mix versions
    if new_deps.iter().any(|(t, v)| conn.table_version(t) != Some(*v)) {
        return Err(RefreshBail::RefetchRaced);
    }
    let out_idx: Vec<usize> = group_by
        .iter()
        .map(|c| schema.index_of(c).map_err(|_| RefreshBail::GroupColumnMissing(c.clone())))
        .collect::<Result<_, _>>()?;
    for row in base.tuples() {
        let key: Vec<Value> = out_idx.iter().map(|i| row.values()[*i].clone()).collect();
        if touched.contains(&key) {
            delta.add(row.clone(), -1);
        }
    }
    for row in fetched {
        delta.add(row, 1);
    }
    Ok((delta, fetched_bytes))
}
