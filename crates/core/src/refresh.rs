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

use crate::cache::{self, MidCache, StaleEntry};
use crate::phys::{Algo, PhysNode};
use crate::{engine, to_sql};
use std::collections::HashSet;
use std::sync::Arc;
use tango_algebra::logical::ProjItem;
use tango_algebra::{Batch, CmpOp, Expr, Schema, SortSpec, Value};
use tango_minidb::{Connection, DeltaOp, DeltaRecord, DeltaSnapshot};
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
    Ok(Refreshed { spliced, new_deps, delta_bytes })
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
    let fetched_bytes = fetched.byte_size() as u64;
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
    for row in fetched.into_tuples() {
        delta.add(row, 1);
    }
    Ok((delta, fetched_bytes))
}
