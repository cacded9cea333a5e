//! The middleware relation cache (`MidCache`).
//!
//! The paper's Figure 10 shows the temporal join running ~2× faster when
//! one argument *already resides in the middleware*. This module makes
//! residency a first-class state instead of a hand-staged benchmark
//! setup: materialized results of DBMS fragments shipped over
//! `TRANSFER^M` are retained in a byte-budgeted store, the optimizer
//! prices transfers over resident fragments at near-zero wire cost (and
//! may flip join-side placement because of it), and the engine serves
//! hits from memory without issuing any SQL.
//!
//! Since the serving-tier refactor the cache is **shared and
//! concurrent**: one `MidCache` lives at `Database` scope (every
//! [`crate::Tango`] session attached to the same database sees the same
//! residency — a fragment one session paid to fetch is a warm hit for
//! all of them). `docs/CACHING.md` owns the cache policy as a whole —
//! admission, eviction, refresh-by-delta — and `docs/CONCURRENCY.md` the
//! serving model; the sections below say how this module implements them.
//!
//! # Locking
//!
//! The whole store — entries, counters, byte total, byte budget, the
//! GreedyDual-Size clock, the admission frequency sketch and the delta
//! mirror refreshes share ([`crate::refresh`]) — is plain data behind
//! **one mutex**. Every public method takes it once, does
//! in-memory work only (an entry is one columnar batch of `Arc`-shared
//! columns, so a hit copies pointers) and releases it before returning;
//! none calls another locking method and none runs while the engine talks
//! to the DBMS (the `version_of` / `delta_bytes_of` callbacks of
//! [`MidCache::lookup`] and [`MidCache::residency`] are client-side
//! catalog peeks, not round trips), so the lock is never held across wire
//! I/O and cannot deadlock. One lock also means one view: the admission
//! contest, eviction and the budget all judge the same global
//! minimum-priority victim.
//!
//! # Keying — canonical fragment signatures
//!
//! An entry is keyed by the **canonical signature** of the DBMS fragment
//! that produced it plus the **delivered sort order**. The signature is
//! a syntactic normal form over the temporal-algebra shape of the
//! fragment — `SEL[PayRate > 10](GET[POSITION]())` — computed two ways
//! that agree by construction:
//!
//! * the optimizer derives it compositionally for every memo group
//!   ([`top_signature`], stored in `GroupProps`), and
//! * the engine erases a physical fragment back to the same form
//!   ([`fragment_key`]), peeling a topmost `SORT^D` into the entry's
//!   delivered order.
//!
//! A `TRANSFER^M` whose child group's signature is resident with a
//! [satisfying](tango_algebra::SortSpec::satisfies) order is a **hit**.
//! Matching is deliberately conservative: it is syntactic, so two
//! semantically equal but differently-shaped fragments miss — a miss
//! only costs the normal transfer, never correctness.
//!
//! Fragments containing temp-table scans (`TRANSFER^D` results), or
//! interior sorts below other operators, are **uncacheable**: their
//! contents are not a pure function of base-table state (or their order
//! cannot be represented in the key). The engine annotates such
//! transfers `cache bypass`.
//!
//! # Staleness — no longer binary
//!
//! Every entry records the [write-version](tango_minidb::Database::table_version)
//! of each base table it was computed from. `tango-minidb` bumps a
//! table's version on every INSERT/DELETE/UPDATE, so `versions
//! unchanged ⇒ contents unchanged`. Entries are validated lazily — at
//! lookup and when the optimizer snapshots residency — but a moved
//! dependency no longer always drops the entry. Lookup is tri-state:
//!
//! * **Fresh** — every dependency version unchanged: a [`Lookup::Hit`].
//! * **Stale** — versions moved but every moved table's
//!   [delta log](tango_minidb::delta::DeltaLog) still covers the entry's
//!   snapshot: the entry is *kept* and returned as [`Lookup::Stale`]
//!   with the replay byte count, so the engine can price
//!   **refresh-by-delta** against **refetch** against **drop**
//!   ([`maintenance_choice`]) instead of always paying a cold refill.
//! * **Gone** — some moved table's log no longer covers the snapshot
//!   (compaction, in-place UPDATE, dropped table): the entry is dropped
//!   exactly as before (an `invalidate` span event).
//!
//! Because versions are read *before* a fragment's SQL is issued, a
//! write racing a populating query always invalidates the entry that
//! query admits — cross-session invalidation needs no extra machinery.
//! A successful refresh replaces the entry's batch and dependency
//! versions in place ([`MidCache::refresh`], counted in
//! [`CacheStats::refreshes`]/[`CacheStats::refresh_bytes`]); a bailed
//! refresh ([`CacheStats::refresh_bails`]) takes the miss path: the
//! fragment streams from the DBMS like any miss.
//!
//! # Admission — TinyLFU frequency gating
//!
//! Under byte pressure, inserting means evicting, and evicting the
//! wrong entry under contention is how shared caches churn. When an
//! insert would force eviction (and only then — an unpressured cache
//! admits everything), the candidate must *win* its space: its access
//! frequency — estimated by a small count-min sketch touched on every
//! lookup and insert, TinyLFU style — must strictly exceed the would-be
//! victim's; ties keep the incumbent. A fragment that keeps missing
//! accumulates frequency and wins admission on a later attempt, so hot
//! fragments displace cold ones but a one-off scan cannot flush the
//! working set.
//!
//! The would-be victim is the entry eviction would remove first — the
//! global minimum GreedyDual-Size priority. Rejections are counted in
//! [`CacheStats::admission_rejects`].
//!
//! # Eviction — GreedyDual-Size
//!
//! The store keeps an inflation clock `L`; an entry's priority is
//! `L + fill_cost/size` where `fill_cost` is the model's price of
//! refetching the entry, fixed at its miss: the fragment's fold plus a
//! `TRANSFER^M` over its derived output (`TangoSem::fill_cost_us`) —
//! factors, statistics and bytes, never a clock, so every decision below
//! repeats across build profiles and host load. Eviction removes the
//! minimum-priority entry and advances `L` to its priority; a hit
//! refreshes the entry's priority against the current clock. This is the
//! classic GreedyDual-Size policy: recency, byte footprint and the cost
//! of refetching all trade off in one number, and plain LRU falls out
//! when fetch costs are uniform per byte. Entries larger than the whole
//! budget are never admitted.
//!
//! # Exactly-one populate
//!
//! Two sessions can miss on the same cold fragment concurrently and
//! both drain it cleanly. The second [`MidCache::insert`] of an entry
//! whose signature, order and dependency versions match one already
//! resident is a **duplicate**: it is dropped without touching the
//! store ([`AdmitOutcome::Duplicate`]), so `cache_bytes` is counted
//! once no matter how many sessions raced the populate. An insert
//! carrying *older* dependency versions than the resident entry is
//! likewise dropped (it lost a race against a fresher populate), while
//! newer versions replace the incumbent.

use crate::cost::CostFactors;
use crate::phys::{Algo, PhysNode, Site};
use crate::refresh::{DeltaMirror, RefreshBail};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use tango_algebra::{Batch, ProjItem, SortSpec, TOp};
use tango_minidb::DeltaSnapshot;

/// Default cache budget used by a new session: 64 MiB.
pub const DEFAULT_CACHE_BUDGET: u64 = 64 * 1024 * 1024;

fn canon(name: &str, params: &str, children: &[String]) -> String {
    format!("{name}[{params}]({})", children.join(","))
}

fn eq_params(eq: &[(String, String)]) -> String {
    eq.iter().map(|(l, r)| format!("{l}={r}")).collect::<Vec<_>>().join(",")
}

fn proj_params(items: &[ProjItem]) -> String {
    items.iter().map(|it| format!("{}={}", it.alias, it.expr)).collect::<Vec<_>>().join(",")
}

fn taggr_params(group_by: &[String], aggs: &[tango_algebra::AggSpec]) -> String {
    format!(
        "{};{}",
        group_by.join(","),
        aggs.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
    )
}

/// Canonical signature of a logical operator over its children's
/// signatures. The optimizer calls this in `derive_props`, so every memo
/// group knows the signature of the fragment it denotes; the engine-side
/// [`fragment_key`] erases physical fragments to the identical form.
pub fn top_signature(op: &TOp, children: &[String]) -> String {
    match op {
        TOp::Get { table } => canon("GET", &table.to_uppercase(), &[]),
        TOp::Select { pred } => canon("SEL", &pred.to_string(), children),
        TOp::Project { items } => canon("PROJ", &proj_params(items), children),
        TOp::Join { eq } => canon("JOIN", &eq_params(eq), children),
        TOp::TJoin { eq } => canon("TJOIN", &eq_params(eq), children),
        TOp::Product => canon("PROD", "", children),
        TOp::TAggr { group_by, aggs } => canon("TAGGR", &taggr_params(group_by, aggs), children),
        TOp::DupElim => canon("DUP", "", children),
        TOp::Coalesce => canon("COAL", "", children),
        TOp::Diff => canon("DIFF", "", children),
    }
}

/// The identity of a cacheable DBMS fragment: canonical signature,
/// delivered sort order, the rendered SQL (kept for observability — the
/// signature, not the SQL text, is the match key) and the base tables
/// the fragment reads.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentKey {
    /// Canonical fragment signature; see [`top_signature`].
    pub signature: String,
    /// Sort order the fragment delivers (a topmost `SORT^D`'s spec,
    /// [`SortSpec::none`] otherwise).
    pub order: SortSpec,
    /// The SQL the fragment renders to — display/debugging only.
    pub sql: String,
    /// Upper-cased base tables read by the fragment, deduplicated.
    pub tables: Vec<String>,
}

/// Compute the cache key of a physical DBMS fragment (the subtree below
/// a `TRANSFER^M`, after temp-table lowering). Returns `None` — meaning
/// *uncacheable*, rendered as `cache bypass` — when the fragment scans a
/// temp table (its contents depend on middleware state, not base-table
/// versions), contains an interior sort, or contains any non-DBMS
/// operator. `is_temp` decides which scanned names are temp tables.
pub fn fragment_key(
    fragment: &PhysNode,
    sql: &str,
    is_temp: &dyn Fn(&str) -> bool,
) -> Option<FragmentKey> {
    let (inner, order) = match &fragment.algo {
        Algo::SortD(spec) => (&fragment.children[0], spec.clone()),
        _ => (fragment, SortSpec::none()),
    };
    let mut tables = Vec::new();
    let signature = erase(inner, is_temp, &mut tables)?;
    tables.sort();
    tables.dedup();
    Some(FragmentKey { signature, order, sql: sql.to_string(), tables })
}

/// Erase a physical DBMS operator tree to its canonical signature,
/// collecting base-table names. `None` ⇒ uncacheable.
fn erase(
    node: &PhysNode,
    is_temp: &dyn Fn(&str) -> bool,
    tables: &mut Vec<String>,
) -> Option<String> {
    let kids: Option<Vec<String>> =
        node.children.iter().map(|c| erase(c, is_temp, tables)).collect();
    let kids = kids?;
    if let Algo::ScanD(t) = &node.algo {
        if is_temp(t) {
            return None;
        }
        tables.push(t.to_uppercase());
    }
    // an interior sort's order is not representable in the key, and any
    // middleware algorithm or TRANSFER^D means this is not a pure DBMS
    // fragment
    let op = node.algo.op().filter(|_| node.algo.site() == Site::Dbms)?;
    Some(top_signature(&op, &kids))
}

/// A materialized relation served from the cache: shared, immutable.
#[derive(Debug, Clone)]
pub struct CachedRelation {
    /// The materialized fragment: one columnar batch whose columns are
    /// shared with the store and every other hit. Its
    /// [`Batch::byte_size`] is the entry's size.
    pub batch: Batch,
    /// Sort order the rows are stored in.
    pub order: SortSpec,
}

/// Outcome of a [`MidCache::lookup`].
#[derive(Debug)]
pub enum Lookup {
    /// A fresh entry with a satisfying order was found.
    Hit(CachedRelation),
    /// A stale-but-refreshable entry was found: its base tables moved,
    /// but every moved table's delta log still covers the entry's
    /// snapshot. The entry stays resident; the engine prices
    /// refresh-by-delta against refetch against drop
    /// ([`maintenance_choice`]) using the carried [`StaleEntry`].
    Stale {
        /// The stale entry's contents and maintenance inputs.
        entry: StaleEntry,
        /// SQL texts of *other* entries invalidated during this lookup.
        invalidated: Vec<String>,
    },
    /// No usable entry. `invalidated` lists the SQL of same-signature
    /// entries dropped because a base table's version moved — the engine
    /// turns each into an `invalidate` span event.
    Miss {
        /// SQL texts of entries invalidated during this lookup.
        invalidated: Vec<String>,
    },
}

/// A stale cache entry surfaced by [`Lookup::Stale`]: everything the
/// engine needs to price and execute refresh-by-delta without holding
/// the cache lock.
#[derive(Debug, Clone)]
pub struct StaleEntry {
    /// The stale base, its columns shared with the store.
    pub batch: Batch,
    /// Sort order the rows are stored in (the order a refresh must
    /// restore, and the `order` to address the entry by on
    /// [`MidCache::refresh`]/[`MidCache::remove`]).
    pub order: SortSpec,
    /// `(table, write-version)` dependencies recorded at fill time —
    /// the versions a delta replay must start from.
    pub deps: Vec<(String, u64)>,
    /// Total replay bytes pending across all moved dependencies.
    pub delta_bytes: u64,
    /// The model's price of refetching the entry, fixed at its fill.
    pub fill_cost_us: f64,
    /// Hits the entry has served: a never-hit entry is dropped.
    pub hits: u64,
    /// The SQL the entry was filled from (for span events).
    pub sql: String,
}

/// Why an [`MidCache::insert`] did or did not store its relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The relation was stored (possibly replacing a staler entry).
    Admitted,
    /// Rejected: larger than the entire byte budget.
    Oversized,
    /// Dropped: an entry with the same signature, order and equal-or-
    /// newer dependency versions is already resident — a concurrent
    /// session populated first (the exactly-one-populate guarantee).
    Duplicate,
    /// Rejected by the TinyLFU admission gate: under byte pressure the
    /// candidate was not accessed more often than the eviction victim.
    Rejected,
}

/// Outcome of a [`MidCache::insert`].
#[derive(Debug)]
pub struct Admission {
    /// Whether the relation was stored.
    pub admitted: bool,
    /// Why (not).
    pub outcome: AdmitOutcome,
    /// The relation's size as the store accounts it ([`Batch::byte_size`]).
    pub bytes: u64,
    /// `(sql, bytes)` of entries evicted to make room — the engine turns
    /// each into an `evict` span event.
    pub evicted: Vec<(String, u64)>,
}

impl Admission {
    fn skipped(outcome: AdmitOutcome, bytes: u64) -> Admission {
        Admission { admitted: false, outcome, bytes, evicted: Vec::new() }
    }
}

/// Monotonic activity counters of a [`MidCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a fresh entry.
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Transfers whose fragment was uncacheable (see [`fragment_key`]).
    pub bypasses: u64,
    /// Relations admitted (including replacements).
    pub insertions: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Entries dropped because a dependency's write-version moved.
    pub invalidations: u64,
    /// Insertions rejected because the relation exceeds the budget.
    pub rejections: u64,
    /// Insertions rejected by the TinyLFU admission gate (under byte
    /// pressure, the candidate's frequency was not above the victim's).
    pub admission_rejects: u64,
    /// Insertions dropped because a concurrent session already
    /// populated the same (or a fresher) entry.
    pub duplicate_populates: u64,
    /// Stale entries brought current by delta replay
    /// ([`MidCache::refresh`]).
    pub refreshes: u64,
    /// Total delta bytes replayed by successful refreshes — the wire
    /// traffic that replaced full refills.
    pub refresh_bytes: u64,
    /// Refresh attempts that bailed (unsupported shape, ambiguous
    /// merge, racing write, wire fault) and took the miss path.
    pub refresh_bails: u64,
}

#[derive(Debug)]
struct Entry {
    signature: String,
    /// [`sig_hash`] of `signature` — the sketch key, precomputed.
    hash: u64,
    order: SortSpec,
    sql: String,
    /// The fragment, columnar; hits and refreshes share its columns.
    batch: Batch,
    /// `batch.byte_size()`: the wire-size estimate every policy weighs.
    bytes: u64,
    /// `(table, write-version)` dependencies recorded at fill time.
    deps: Vec<(String, u64)>,
    /// The model's price of refetching the entry.
    fill_cost_us: f64,
    /// GreedyDual-Size priority: clock-at-touch + fill_cost/size.
    priority: f64,
    hits: u64,
}

/// Freshness of an entry against current table versions and delta-log
/// coverage. `Stale` carries the total replay bytes pending.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Freshness {
    Fresh,
    Stale(u64),
    Gone,
}

impl Entry {
    /// Classify this entry: `Fresh` if no dependency version moved,
    /// `Stale(delta_bytes)` if every moved table's delta log still
    /// covers the recorded snapshot version, `Gone` otherwise (dropped
    /// table, compacted log, poisoned log, or no delta source at all).
    fn freshness(
        &self,
        version_of: &dyn Fn(&str) -> Option<u64>,
        delta_bytes_of: &dyn Fn(&str, u64) -> Option<u64>,
    ) -> Freshness {
        let mut delta = 0u64;
        let mut stale = false;
        for (t, v) in &self.deps {
            match version_of(t) {
                Some(cur) if cur == *v => {}
                Some(_) => match delta_bytes_of(t, *v) {
                    Some(b) => {
                        stale = true;
                        delta += b;
                    }
                    None => return Freshness::Gone,
                },
                None => return Freshness::Gone,
            }
        }
        if stale {
            Freshness::Stale(delta)
        } else {
            Freshness::Fresh
        }
    }
}

/// FNV-1a hash of a fragment signature — the key the admission sketch
/// is driven by.
fn sig_hash(signature: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in signature.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

const SKETCH_ROWS: usize = 4;
const SKETCH_WIDTH: usize = 1024; // power of two
const SKETCH_CAP: u8 = 15;

/// A count-min sketch with saturating 4-bit-style counters and periodic
/// halving — the frequency memory of the TinyLFU admission gate. Tiny
/// (4 KiB), touched once per transfer.
#[derive(Debug)]
struct FreqSketch {
    rows: Vec<[u8; SKETCH_WIDTH]>,
    /// Touches since the last aging pass.
    ops: u32,
}

impl FreqSketch {
    fn new() -> FreqSketch {
        FreqSketch { rows: vec![[0; SKETCH_WIDTH]; SKETCH_ROWS], ops: 0 }
    }

    fn slot(h: u64, row: usize) -> usize {
        (splitmix(h ^ (row as u64).wrapping_mul(0xA076_1D64_78BD_642F)) as usize)
            & (SKETCH_WIDTH - 1)
    }

    /// Record one access and return the new estimate.
    fn touch(&mut self, h: u64) -> u8 {
        let mut est = u8::MAX;
        for r in 0..SKETCH_ROWS {
            let c = &mut self.rows[r][Self::slot(h, r)];
            if *c < SKETCH_CAP {
                *c += 1;
            }
            est = est.min(*c);
        }
        self.ops += 1;
        if self.ops as usize >= SKETCH_WIDTH * 8 {
            // age: halve every counter so frequency means *recent* use
            for row in &mut self.rows {
                for c in row.iter_mut() {
                    *c /= 2;
                }
            }
            self.ops = 0;
        }
        est
    }

    fn estimate(&self, h: u64) -> u8 {
        (0..SKETCH_ROWS).map(|r| self.rows[r][Self::slot(h, r)]).min().unwrap_or(0)
    }
}

/// Everything the cache knows, as plain fields behind [`MidCache`]'s one
/// mutex.
#[derive(Debug)]
struct Store {
    entries: Vec<Entry>,
    stats: CacheStats,
    /// Total bytes of `entries`.
    bytes: u64,
    /// The byte budget `bytes` is held under.
    budget: u64,
    /// GreedyDual-Size inflation clock `L`.
    clock: f64,
    /// TinyLFU frequency memory, touched on every lookup and insert.
    sketch: FreqSketch,
    /// [`CacheStats::refresh_bails`] split by reason
    /// ([`RefreshBail::kind`]).
    bails: BTreeMap<&'static str, u64>,
    /// The delta records refreshes already fetched.
    mirror: DeltaMirror,
}

impl Store {
    fn position(&self, key: &FragmentKey) -> Option<usize> {
        self.entries.iter().position(|e| e.signature == key.signature && e.order == key.order)
    }

    fn take(&mut self, i: usize) -> Entry {
        let e = self.entries.remove(i);
        self.bytes -= e.bytes;
        e
    }

    fn gds_priority(&self, fill_cost_us: f64, bytes: u64) -> f64 {
        self.clock + fill_cost_us / bytes.max(1) as f64
    }

    /// Drop entries that are [`Freshness::Gone`] — stale with no delta
    /// coverage — returning their SQL. Stale-but-covered entries are
    /// kept (the engine decides their fate via [`maintenance_choice`]).
    /// `filter` restricts which entries are checked.
    fn validate(
        &mut self,
        version_of: &dyn Fn(&str) -> Option<u64>,
        delta_bytes_of: &dyn Fn(&str, u64) -> Option<u64>,
        filter: impl Fn(&Entry) -> bool,
    ) -> Vec<String> {
        let mut invalidated = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            let e = &self.entries[i];
            if filter(e) && e.freshness(version_of, delta_bytes_of) == Freshness::Gone {
                invalidated.push(self.take(i).sql);
                self.stats.invalidations += 1;
            } else {
                i += 1;
            }
        }
        invalidated
    }

    /// The entry eviction removes next: the minimum GreedyDual-Size
    /// priority. The admission contest judges a newcomer against this
    /// same entry.
    fn victim(&self) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.priority.total_cmp(&b.priority))
            .map(|(i, _)| i)
    }

    /// Evict victims until the bytes fit the budget again, returning
    /// each one's `(sql, bytes)`.
    fn enforce_budget(&mut self) -> Vec<(String, u64)> {
        let mut evicted = Vec::new();
        while self.bytes > self.budget {
            let Some(i) = self.victim() else { break };
            let e = self.take(i);
            self.clock = self.clock.max(e.priority);
            self.stats.evictions += 1;
            evicted.push((e.sql, e.bytes));
        }
        evicted
    }
}

/// The middleware-resident relation cache — shared and concurrent.
///
/// One instance is held at `Database` scope and consulted by every
/// session ([`crate::Tango::connect`] attaches to the shared instance;
/// [`crate::Tango::connect_private`] opts out). All operations are safe
/// to call from any number of threads; see the module docs for the
/// locking discipline.
#[derive(Debug)]
pub struct MidCache {
    store: Mutex<Store>,
}

impl MidCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget: u64) -> MidCache {
        MidCache {
            store: Mutex::new(Store {
                entries: Vec::new(),
                stats: CacheStats::default(),
                bytes: 0,
                budget,
                clock: 0.0,
                sketch: FreqSketch::new(),
                bails: BTreeMap::new(),
                mirror: DeltaMirror::default(),
            }),
        }
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.store.lock().budget
    }

    /// Change the byte budget, evicting (by priority) down to the new
    /// limit if it shrank.
    pub fn set_budget(&self, budget: u64) {
        let mut s = self.store.lock();
        s.budget = budget;
        s.enforce_budget();
    }

    /// Total bytes currently stored.
    pub fn bytes(&self) -> u64 {
        self.store.lock().bytes
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.store.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Activity counters since creation (or the last [`MidCache::clear`];
    /// clearing resets contents, not counters).
    pub fn stats(&self) -> CacheStats {
        self.store.lock().stats
    }

    /// Drop every entry and every mirrored delta record. Counters are
    /// preserved.
    pub fn clear(&self) {
        let mut s = self.store.lock();
        s.entries.clear();
        s.bytes = 0;
        s.mirror.clear();
    }

    /// Record that a transfer's fragment was uncacheable.
    pub fn note_bypass(&self) {
        self.store.lock().stats.bypasses += 1;
    }

    /// Look up a fragment. A hit requires a fresh entry (every recorded
    /// table version unchanged per `version_of`) with the same signature
    /// and a stored order that [satisfies](SortSpec::satisfies) the
    /// requested one. A stale entry whose moved tables are all covered
    /// by `delta_bytes_of` (delta-log replay bytes since the recorded
    /// version, `None` = uncovered) is returned as [`Lookup::Stale`]
    /// instead of being dropped (a source that covers nothing drops every
    /// version-moved entry). Hits refresh the entry's
    /// GreedyDual-Size priority; every lookup feeds the admission
    /// frequency sketch. Stale lookups count as neither hit nor miss —
    /// the engine's maintenance decision settles them
    /// ([`CacheStats::refreshes`] or [`CacheStats::invalidations`]).
    pub fn lookup(
        &self,
        key: &FragmentKey,
        version_of: &dyn Fn(&str) -> Option<u64>,
        delta_bytes_of: &dyn Fn(&str, u64) -> Option<u64>,
    ) -> Lookup {
        let mut s = self.store.lock();
        s.sketch.touch(sig_hash(&key.signature));
        let invalidated = s.validate(version_of, delta_bytes_of, |e| e.signature == key.signature);
        // prefer a fresh entry; fall back to the cheapest stale one
        let mut fresh: Option<usize> = None;
        let mut stale: Option<(usize, u64)> = None;
        for (i, e) in s.entries.iter().enumerate() {
            if e.signature != key.signature || !e.order.satisfies(&key.order) {
                continue;
            }
            match e.freshness(version_of, delta_bytes_of) {
                Freshness::Fresh => {
                    fresh = Some(i);
                    break;
                }
                Freshness::Stale(d) => {
                    if stale.map(|(j, dj)| d + e.bytes < dj + s.entries[j].bytes).unwrap_or(true) {
                        stale = Some((i, d));
                    }
                }
                Freshness::Gone => {} // validate already removed these
            }
        }
        if let Some(i) = fresh {
            s.stats.hits += 1;
            let p = s.gds_priority(s.entries[i].fill_cost_us, s.entries[i].bytes);
            let e = &mut s.entries[i];
            e.priority = p;
            e.hits += 1;
            return Lookup::Hit(CachedRelation { batch: e.batch.clone(), order: e.order.clone() });
        }
        if let Some((i, delta_bytes)) = stale {
            let e = &s.entries[i];
            return Lookup::Stale {
                entry: StaleEntry {
                    batch: e.batch.clone(),
                    order: e.order.clone(),
                    deps: e.deps.clone(),
                    delta_bytes,
                    fill_cost_us: e.fill_cost_us,
                    hits: e.hits,
                    sql: e.sql.clone(),
                },
                invalidated,
            };
        }
        s.stats.misses += 1;
        Lookup::Miss { invalidated }
    }

    /// Admit a fully-materialized fragment result, held columnar. Its size
    /// is [`Batch::byte_size`] — the wire-size estimate, Σ
    /// `Tuple::byte_size` of its rows, whatever the layout. `deps` are the
    /// `(table, write-version)` pairs read *before* the fragment's SQL
    /// was issued; `fill_cost_us` is the model's price of refetching it
    /// (what GreedyDual-Size weighs against size, and a refresh against).
    ///
    /// Concurrency semantics (see module docs): an already-resident
    /// entry with the same signature, order and equal-or-newer deps
    /// makes this insert a no-op [`AdmitOutcome::Duplicate`]; a staler
    /// incumbent is replaced. Under byte pressure the TinyLFU gate may
    /// return [`AdmitOutcome::Rejected`] instead of evicting.
    pub fn insert(
        &self,
        key: &FragmentKey,
        batch: Batch,
        deps: Vec<(String, u64)>,
        fill_cost_us: f64,
    ) -> Admission {
        let batch = batch.columnarize();
        let bytes = batch.byte_size() as u64;
        let hash = sig_hash(&key.signature);
        let mut s = self.store.lock();
        let freq = s.sketch.touch(hash);
        if bytes > s.budget {
            s.stats.rejections += 1;
            return Admission::skipped(AdmitOutcome::Oversized, bytes);
        }
        if let Some(i) = s.position(key) {
            if !newer_deps(&deps, &s.entries[i].deps) {
                // a concurrent session populated the same (or a
                // fresher) entry first: exactly-one-populate
                s.stats.duplicate_populates += 1;
                return Admission::skipped(AdmitOutcome::Duplicate, bytes);
            }
            s.take(i);
        }
        if s.bytes + bytes > s.budget {
            // under pressure the candidate must win its space: asked for
            // more often than the entry eviction would remove for it
            // (ties keep the incumbent)
            let cold = s.victim().is_some_and(|v| freq <= s.sketch.estimate(s.entries[v].hash));
            if cold {
                s.stats.admission_rejects += 1;
                return Admission::skipped(AdmitOutcome::Rejected, bytes);
            }
        }
        let priority = s.gds_priority(fill_cost_us, bytes);
        s.entries.push(Entry {
            signature: key.signature.clone(),
            hash,
            order: key.order.clone(),
            sql: key.sql.clone(),
            batch,
            bytes,
            deps,
            fill_cost_us,
            priority,
            hits: 0,
        });
        s.bytes += bytes;
        s.stats.insertions += 1;
        let evicted = s.enforce_budget();
        Admission { admitted: true, outcome: AdmitOutcome::Admitted, bytes, evicted }
    }

    /// Commit a refresh-by-delta: replace the entry addressed by
    /// `key.signature` + `key.order` (the *stored* order from
    /// [`StaleEntry::order`], not the requested one) with the merged
    /// batch and the post-replay dependency versions. `delta_bytes` is
    /// the replay traffic, counted in [`CacheStats::refresh_bytes`].
    ///
    /// Returns `false` without touching the store when the entry
    /// vanished (evicted concurrently) or already carries newer deps (a
    /// racing session refreshed or repopulated first) — the caller's
    /// merged batch is still correct to serve, they just do not enter
    /// the cache. Counted as a hit too: the query was served from
    /// resident bytes plus a delta, not a refill.
    pub fn refresh(
        &self,
        key: &FragmentKey,
        batch: Batch,
        deps: Vec<(String, u64)>,
        delta_bytes: u64,
    ) -> bool {
        let batch = batch.columnarize();
        let bytes = batch.byte_size() as u64;
        let mut s = self.store.lock();
        let Some(i) = s.position(key) else { return false };
        if !newer_deps(&deps, &s.entries[i].deps) {
            return false;
        }
        let p = s.gds_priority(s.entries[i].fill_cost_us, bytes);
        let e = &mut s.entries[i];
        let old_bytes = e.bytes;
        e.batch = batch;
        e.bytes = bytes;
        e.deps = deps;
        e.priority = p;
        e.hits += 1;
        s.bytes = s.bytes - old_bytes + bytes;
        s.stats.refreshes += 1;
        s.stats.refresh_bytes += delta_bytes;
        s.stats.hits += 1;
        s.enforce_budget();
        true
    }

    /// Drop the entry addressed by `key.signature` + `key.order`
    /// exactly (counted as an invalidation). The engine calls this when
    /// the maintenance decision for a stale entry is refetch or drop.
    pub fn remove(&self, key: &FragmentKey) -> bool {
        let mut s = self.store.lock();
        let Some(i) = s.position(key) else { return false };
        s.take(i);
        s.stats.invalidations += 1;
        true
    }

    /// Peek at a resident entry by bare signature (any stored order),
    /// returning its batch and recorded deps. No validation, no
    /// counter updates, no priority touch — the refresh path uses this
    /// to find the *resident other side* of a delta join and checks the
    /// returned deps against its own version snapshot itself.
    pub fn peek_by_signature(&self, signature: &str) -> Option<(Batch, Vec<(String, u64)>)> {
        let s = self.store.lock();
        s.entries
            .iter()
            .find(|e| e.signature == signature)
            .map(|e| (e.batch.clone(), e.deps.clone()))
    }

    /// The delta records `(table, since)` requests must replay, read from
    /// the delta mirror when it covers them ([`DeltaMirror::serve`];
    /// `version_of` is a client-side catalog peek, as at lookup).
    pub(crate) fn mirrored_deltas(
        &self,
        reqs: &[(String, u64)],
        version_of: &dyn Fn(&str) -> Option<u64>,
    ) -> Option<DeltaSnapshot> {
        self.store.lock().mirror.serve(reqs, version_of)
    }

    /// Keep the records a delta fetch for `reqs` returned in the delta
    /// mirror ([`DeltaMirror::absorb`]).
    pub(crate) fn mirror_deltas(&self, reqs: &[(String, u64)], snap: &DeltaSnapshot) {
        self.store.lock().mirror.absorb(reqs, snap);
    }

    /// Record that a refresh attempt bailed (unsupported shape,
    /// ambiguous merge, racing write, wire fault) and degraded to the
    /// refetch path.
    pub(crate) fn note_refresh_bail(&self, reason: &RefreshBail) {
        let mut s = self.store.lock();
        s.stats.refresh_bails += 1;
        *s.bails.entry(reason.kind()).or_default() += 1;
    }

    /// Snapshot which fragments are resident, for the optimizer.
    /// Uncoverable (`Gone`) entries are dropped (as at lookup); fresh
    /// entries are advertised at served size, stale-but-covered ones
    /// with their pending replay bytes so the enforcer can price
    /// refresh-by-delta ([`Residency::transfer_cost`]).
    pub fn residency(
        &self,
        version_of: &dyn Fn(&str) -> Option<u64>,
        delta_bytes_of: &dyn Fn(&str, u64) -> Option<u64>,
    ) -> Residency {
        let mut s = self.store.lock();
        s.validate(version_of, delta_bytes_of, |_| true);
        let mut by_signature: HashMap<String, Vec<ResidentFragment>> = HashMap::new();
        for e in &s.entries {
            let delta_bytes = match e.freshness(version_of, delta_bytes_of) {
                Freshness::Fresh => None,
                Freshness::Stale(d) => Some(d),
                Freshness::Gone => continue, // removed above; unreachable
            };
            by_signature.entry(e.signature.clone()).or_default().push(ResidentFragment {
                order: e.order.clone(),
                bytes: e.bytes,
                delta_bytes,
            });
        }
        Residency { by_signature }
    }

    /// Human-readable serving report: contents, then the activity
    /// counters. Appended to `EXPLAIN ANALYZE` output by
    /// [`crate::Tango::explain_analyze`].
    pub fn render_report(&self) -> String {
        let s = self.store.lock();
        let st = &s.stats;
        format!(
            "cache: {} entries, {}/{} bytes\n  hits {}, misses {}, evictions {}, \
             admission rejects {}, invalidations {}, duplicates {}, \
             refreshes {} ({} delta bytes, {} bails)\n{}",
            s.entries.len(),
            s.bytes,
            s.budget,
            st.hits,
            st.misses,
            st.evictions,
            st.admission_rejects,
            st.invalidations,
            st.duplicate_populates,
            st.refreshes,
            st.refresh_bytes,
            st.refresh_bails,
            s.bails.iter().map(|(why, n)| format!("  bailed {n}: {why}\n")).collect::<String>(),
        )
    }

    /// The serving report as JSON (via the `tango-trace` writer):
    /// `{"entries": n, "bytes": .., "budget": .., "totals": {...}}` with
    /// every [`CacheStats`] counter under `totals`, plus — once a refresh
    /// has bailed — `"refresh_bail_reasons": {reason: count}`.
    pub fn stats_json(&self) -> String {
        use tango_trace::json::Object;
        let s = self.store.lock();
        let st = &s.stats;
        let mut totals = Object::new();
        totals.number("hits", st.hits as f64);
        totals.number("misses", st.misses as f64);
        totals.number("bypasses", st.bypasses as f64);
        totals.number("insertions", st.insertions as f64);
        totals.number("evictions", st.evictions as f64);
        totals.number("invalidations", st.invalidations as f64);
        totals.number("rejections", st.rejections as f64);
        totals.number("admission_rejects", st.admission_rejects as f64);
        totals.number("duplicate_populates", st.duplicate_populates as f64);
        totals.number("refreshes", st.refreshes as f64);
        totals.number("refresh_bytes", st.refresh_bytes as f64);
        totals.number("refresh_bails", st.refresh_bails as f64);
        let mut o = Object::new();
        o.number("entries", s.entries.len() as f64);
        o.number("bytes", s.bytes as f64);
        o.number("budget", s.budget as f64);
        o.raw("totals", &totals.build());
        if !s.bails.is_empty() {
            let mut reasons = Object::new();
            for (why, n) in &s.bails {
                reasons.number(why, *n as f64);
            }
            o.raw("refresh_bail_reasons", &reasons.build());
        }
        o.build()
    }
}

/// Whether `new` dependency versions strictly supersede `old`: every
/// table's version is ≥ the incumbent's and at least one moved (a
/// different table set also replaces — it cannot happen for equal
/// signatures, but must not wedge the store if it somehow does).
fn newer_deps(new: &[(String, u64)], old: &[(String, u64)]) -> bool {
    if new.len() != old.len() {
        return true;
    }
    let mut any_newer = false;
    for (t, v) in new {
        match old.iter().find(|(ot, _)| ot == t) {
            Some((_, ov)) => {
                if v < ov {
                    return false;
                }
                if v > ov {
                    any_newer = true;
                }
            }
            None => return true,
        }
    }
    any_newer
}

/// One resident fragment in a [`Residency`] snapshot: delivered order,
/// stored size, and — when stale — the pending delta-replay bytes.
#[derive(Debug, Clone)]
struct ResidentFragment {
    order: SortSpec,
    bytes: u64,
    /// `None` = fresh; `Some(d)` = stale with `d` replay bytes pending.
    delta_bytes: Option<u64>,
}

/// An optimizer-facing snapshot of cache contents: which canonical
/// fragment signatures are resident, in which orders, at what size, and
/// how stale. Taken once per optimization ([`MidCache::residency`]) so
/// planning sees a consistent view.
#[derive(Debug, Clone, Default)]
pub struct Residency {
    by_signature: HashMap<String, Vec<ResidentFragment>>,
}

impl Residency {
    /// Whether no fragment is resident.
    pub fn is_empty(&self) -> bool {
        self.by_signature.is_empty()
    }

    /// The cheapest cost (µs) of a `TRANSFER^M` served from residency:
    /// `p_cached × bytes` for a fresh entry, delta replay + merge + the
    /// cached serve for a stale one. `None` when nothing satisfying is
    /// resident — the enforcer then pays the full transfer. Callers
    /// still `min` the result with the full-transfer cost: a stale
    /// entry's refresh may be priced worse than refetching, and the
    /// engine will indeed refetch in that case.
    pub fn transfer_cost(
        &self,
        signature: &str,
        required: &SortSpec,
        factors: &CostFactors,
    ) -> Option<f64> {
        self.by_signature
            .get(signature)?
            .iter()
            .filter(|r| r.order.satisfies(required))
            .map(|r| {
                let serve = factors.p_cached * r.bytes.max(1) as f64;
                match r.delta_bytes {
                    None => serve,
                    Some(d) => refresh_cost_us(factors, r.bytes, d) + serve,
                }
            })
            .min_by(f64::total_cmp)
    }
}

/// What to do with a stale-but-covered cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintenance {
    /// Replay the delta log over the resident base and keep serving.
    Refresh,
    /// Drop the entry and refill it with a full transfer (the normal
    /// miss + populate path).
    Refetch,
    /// Drop the entry and do *not* repopulate: the entry has not earned
    /// its keep, so the transfer runs uncached without a populate.
    Drop,
}

/// Estimated cost (µs) of refreshing a stale entry by delta: shipping
/// `delta_bytes` over the wire ([`CostFactors::p_tm`]) plus merging the
/// replay into the resident base ([`CostFactors::p_delta`] per byte of
/// base + delta).
pub fn refresh_cost_us(factors: &CostFactors, base_bytes: u64, delta_bytes: u64) -> f64 {
    factors.p_tm * delta_bytes as f64 + factors.p_delta * (base_bytes + delta_bytes) as f64
}

/// Decide the fate of a stale entry from its prices: a never-hit entry
/// has earned nothing and is **Drop**ped; a supported refresh priced at
/// or below the entry's refetch price (`fill_cost_us`) is a **Refresh**;
/// anything else is a **Refetch**.
pub fn maintenance_choice(
    factors: &CostFactors,
    base_bytes: u64,
    delta_bytes: u64,
    fill_cost_us: f64,
    hits: u64,
    refresh_supported: bool,
) -> Maintenance {
    if hits == 0 {
        Maintenance::Drop
    } else if refresh_supported && refresh_cost_us(factors, base_bytes, delta_bytes) <= fill_cost_us
    {
        Maintenance::Refresh
    } else {
        Maintenance::Refetch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tango_algebra::{tup, Attr, Expr, Schema, Tuple, Type};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Attr::new("A", Type::Int)]))
    }

    fn key(signature: &str) -> FragmentKey {
        FragmentKey {
            signature: signature.to_string(),
            order: SortSpec::none(),
            sql: format!("SELECT {signature}"),
            tables: vec!["T".into()],
        }
    }

    fn rows(n: usize) -> Vec<Tuple> {
        (0..n as i64).map(|i| tup![i]).collect()
    }

    /// The entry the engine would admit for `rows(n)`.
    fn batch(n: usize) -> Batch {
        Batch::new(schema(), rows(n)).columnarize()
    }

    /// A delta source that covers nothing: every stale entry is `Gone`
    /// and dropped at lookup, the behavior the older tests pin.
    fn no_delta(_: &str, _: u64) -> Option<u64> {
        None
    }

    /// The two signature computations — compositional over `TOp` and
    /// erased from a physical fragment — agree on the same shape.
    #[test]
    fn signature_parity_logical_vs_physical() {
        let pred = Expr::eq(Expr::col("PosID"), Expr::lit(7));
        let sig_get = top_signature(&TOp::Get { table: "position".into() }, &[]);
        let sig_sel = top_signature(&TOp::Select { pred: pred.clone() }, &[sig_get]);

        let scan =
            PhysNode { algo: Algo::ScanD("position".into()), schema: schema(), children: vec![] };
        let filter = PhysNode { algo: Algo::FilterD(pred), schema: schema(), children: vec![scan] };
        let k = fragment_key(&filter, "SELECT ...", &|_| false).expect("cacheable");
        assert_eq!(k.signature, sig_sel);
        assert_eq!(k.tables, vec!["POSITION".to_string()]);
        assert_eq!(k.order, SortSpec::none());
    }

    /// A topmost `SORT^D` becomes the key's delivered order; an interior
    /// sort or a temp-table scan makes the fragment uncacheable.
    #[test]
    fn sort_peeling_and_uncacheable_shapes() {
        let scan =
            PhysNode { algo: Algo::ScanD("POSITION".into()), schema: schema(), children: vec![] };
        let sorted = PhysNode {
            algo: Algo::SortD(SortSpec::by(["A"])),
            schema: schema(),
            children: vec![scan.clone()],
        };
        let k = fragment_key(&sorted, "sql", &|_| false).unwrap();
        assert_eq!(k.order, SortSpec::by(["A"]));
        assert_eq!(k.signature, "GET[POSITION]()");

        // interior sort: SEL over SORT^D cannot be keyed
        let sel_over_sort = PhysNode {
            algo: Algo::FilterD(Expr::lit(1)),
            schema: schema(),
            children: vec![sorted],
        };
        assert!(fragment_key(&sel_over_sort, "sql", &|_| false).is_none());

        // temp-table scan: contents are middleware state, not versioned
        assert!(fragment_key(&scan, "sql", &|t| t == "POSITION").is_none());
    }

    #[test]
    fn lookup_miss_then_hit_and_order_satisfaction() {
        let cache = MidCache::new(1 << 20);
        let versions = |_: &str| Some(1);
        let mut k = key("GET[T]()");
        k.order = SortSpec::by(["A"]);
        assert!(matches!(cache.lookup(&k, &versions, &no_delta), Lookup::Miss { .. }));
        cache.insert(&k, batch(10), vec![("T".into(), 1)], 500.0);
        // stored order (A) satisfies both (A) and the unsorted request
        assert!(matches!(cache.lookup(&k, &versions, &no_delta), Lookup::Hit(_)));
        let unordered = key("GET[T]()");
        match cache.lookup(&unordered, &versions, &no_delta) {
            Lookup::Hit(rel) => assert_eq!(rel.batch.len(), 10),
            other => panic!("expected hit, got {other:?}"),
        }
        // but a different requested order misses
        let mut by_b = key("GET[T]()");
        by_b.order = SortSpec::by(["B"]);
        assert!(matches!(cache.lookup(&by_b, &versions, &no_delta), Lookup::Miss { .. }));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    /// A moved write-version drops the entry at the next lookup and
    /// reports its SQL for the `invalidate` span event.
    #[test]
    fn version_bump_invalidates() {
        let cache = MidCache::new(1 << 20);
        let k = key("GET[T]()");
        cache.insert(&k, batch(4), vec![("T".into(), 1)], 100.0);
        assert!(matches!(cache.lookup(&k, &|_| Some(1), &no_delta), Lookup::Hit(_)));
        match cache.lookup(&k, &|_| Some(2), &no_delta) {
            Lookup::Miss { invalidated } => assert_eq!(invalidated, vec![k.sql.clone()]),
            other => panic!("expected invalidating miss, got {other:?}"),
        }
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0, "invalidation must release the global byte count");
        assert_eq!(cache.stats().invalidations, 1);
        // residency snapshots validate too
        cache.insert(&k, batch(4), vec![("T".into(), 2)], 100.0);
        assert!(cache.residency(&|_| Some(3), &no_delta).is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    /// What admission, eviction, the budget and the optimizer's residency
    /// prices weigh is the rows' wire-size estimate — Σ `Tuple::byte_size`
    /// — whichever layout came in; what is stored is columnar.
    #[test]
    fn stored_bytes_are_the_rows_wire_size() {
        use tango_algebra::Value::{Date, Null};
        let attrs = [("A", Type::Int), ("S", Type::Str), ("D", Type::Date), ("X", Type::Double)];
        let schema = Arc::new(Schema::new(attrs.map(|(n, t)| Attr::new(n, t)).to_vec()));
        let rows = vec![
            tup![1, "ab", Date(3), 1.5],
            tup![Null, "", Null, Null],
            tup![7, Null, Date(9), -0.0],
        ];
        let wire: u64 = rows.iter().map(|t| t.byte_size() as u64).sum();
        let cache = MidCache::new(1 << 20);
        let adm = cache.insert(&key("K"), Batch::new(schema, rows), vec![], 1.0);
        assert_eq!((adm.bytes, cache.bytes()), (wire, wire));
        match cache.lookup(&key("K"), &|_| Some(1), &no_delta) {
            Lookup::Hit(rel) => {
                assert!(rel.batch.is_columnar() && rel.batch.byte_size() as u64 == wire)
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    /// Ask for the absent `k` `n` times: every miss feeds the sketch, so
    /// its next insert outweighs a victim touched `n` times or fewer at
    /// the admission gate.
    fn ask(cache: &MidCache, k: &FragmentKey, n: usize) {
        for _ in 0..n {
            assert!(matches!(cache.lookup(k, &|_| Some(1), &no_delta), Lookup::Miss { .. }));
        }
    }

    /// GreedyDual-Size: under pressure the entry with the lowest
    /// cost-per-byte goes first, and the byte budget is never exceeded.
    /// (The newcomer is asked for first, so admission lets it in and the
    /// eviction order is what is observed.)
    #[test]
    fn gds_eviction_prefers_cheap_large_entries() {
        let row_bytes = rows(1).iter().map(|t| t.byte_size() as u64).sum::<u64>();
        // room for exactly two 8-row entries
        let cache = MidCache::new(row_bytes * 17);
        let cheap = key("CHEAP");
        let dear = key("DEAR");
        let third = key("THIRD");
        cache.insert(&cheap, batch(8), vec![], 10.0);
        cache.insert(&dear, batch(8), vec![], 10_000.0);
        ask(&cache, &third, 1);
        let adm = cache.insert(&third, batch(8), vec![], 1_000.0);
        assert_eq!(adm.evicted.len(), 1);
        assert_eq!(adm.evicted[0].0, cheap.sql, "cheapest-to-refill entry should go first");
        assert!(cache.bytes() <= cache.budget());
        assert_eq!(cache.len(), 2);
        let v = |_: &str| Some(1);
        assert!(matches!(cache.lookup(&dear, &v, &no_delta), Lookup::Hit(_)));
        assert!(matches!(cache.lookup(&cheap, &v, &no_delta), Lookup::Miss { .. }));
    }

    /// An entry larger than the whole budget is rejected outright rather
    /// than flushing everything else.
    #[test]
    fn oversized_entries_are_rejected() {
        let cache = MidCache::new(16);
        let adm = cache.insert(&key("BIG"), batch(1000), vec![], 1.0);
        assert!(!adm.admitted);
        assert_eq!(adm.outcome, AdmitOutcome::Oversized);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejections, 1);
    }

    /// Exactly-one-populate: a same-deps re-insert (a racing session
    /// that drained the same miss) is a duplicate and changes nothing;
    /// fresher deps replace; staler deps lose.
    #[test]
    fn duplicate_and_stale_populates_are_dropped() {
        let cache = MidCache::new(1 << 20);
        let k = key("GET[T]()");
        assert!(cache.insert(&k, batch(8), vec![("T".into(), 1)], 1.0).admitted);
        let bytes_once = cache.bytes();

        // identical deps: the racing second populate is a no-op
        let adm = cache.insert(&k, batch(8), vec![("T".into(), 1)], 1.0);
        assert!(!adm.admitted);
        assert_eq!(adm.outcome, AdmitOutcome::Duplicate);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), bytes_once, "a duplicate populate double-counted bytes");

        // staler deps lose against the fresher incumbent
        cache.insert(&k, batch(4), vec![("T".into(), 3)], 1.0);
        let adm = cache.insert(&k, batch(8), vec![("T".into(), 2)], 1.0);
        assert_eq!(adm.outcome, AdmitOutcome::Duplicate);
        match cache.lookup(&k, &|_| Some(3), &no_delta) {
            Lookup::Hit(rel) => assert_eq!(rel.batch.len(), 4, "stale populate replaced fresh"),
            other => panic!("expected hit, got {other:?}"),
        }

        // fresher deps replace in place (no duplicate entries)
        let adm = cache.insert(&k, batch(2), vec![("T".into(), 5)], 1.0);
        assert!(adm.admitted);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 3);
        assert_eq!(cache.stats().duplicate_populates, 2);
    }

    /// TinyLFU admission: under byte pressure a cold candidate cannot
    /// displace the incumbent, but a fragment that keeps being asked for
    /// accumulates frequency and wins on a later attempt.
    #[test]
    fn admission_gate_prefers_hot_fragments() {
        let row_bytes = rows(1).iter().map(|t| t.byte_size() as u64).sum::<u64>();
        // room for one entry
        let cache = MidCache::new(row_bytes * 10);
        let v = |_: &str| Some(1);
        let incumbent = key("INCUMBENT");
        let challenger = key("CHALLENGER");
        assert!(cache.insert(&incumbent, batch(8), vec![], 1_000.0).admitted);

        // a cold challenger is rejected, the incumbent stays
        let adm = cache.insert(&challenger, batch(8), vec![], 1_000.0);
        assert!(!adm.admitted);
        assert_eq!(adm.outcome, AdmitOutcome::Rejected);
        assert!(matches!(cache.lookup(&incumbent, &v, &no_delta), Lookup::Hit(_)));
        assert!(cache.stats().admission_rejects >= 1);

        // demand for the challenger keeps arriving (missed lookups feed
        // the sketch) — eventually it outweighs the incumbent and enters
        ask(&cache, &challenger, 4);
        let adm = cache.insert(&challenger, batch(8), vec![], 1_000.0);
        assert!(adm.admitted, "a repeatedly-requested fragment must win admission");
        assert!(matches!(cache.lookup(&challenger, &v, &no_delta), Lookup::Hit(_)));
    }

    /// Admission and eviction judge the same victim. A hot incumbent
    /// fills the budget; a cold newcomer with a higher fill cost per
    /// byte must lose to it. (In the sharded store these two signatures
    /// hashed to shards 4 and 7 of 8: the newcomer met no victim in its
    /// own shard, was admitted unconditionally, and the global eviction
    /// then removed the hot incumbent.)
    #[test]
    fn admission_and_eviction_judge_the_same_victim() {
        assert_ne!(sig_hash("HOT") % 8, sig_hash("COLD") % 8);
        let row_bytes = rows(1).iter().map(|t| t.byte_size() as u64).sum::<u64>();
        let cache = MidCache::new(row_bytes * 10); // room for one entry
        let v = |_: &str| Some(1);
        let hot = key("HOT");
        let cold = key("COLD");
        assert!(cache.insert(&hot, batch(8), vec![], 1_000.0).admitted);
        for _ in 0..4 {
            assert!(matches!(cache.lookup(&hot, &v, &no_delta), Lookup::Hit(_)));
        }
        let adm = cache.insert(&cold, batch(8), vec![], 5_000.0);
        assert_eq!(adm.outcome, AdmitOutcome::Rejected);
        assert!(adm.evicted.is_empty());
        assert!(matches!(cache.lookup(&hot, &v, &no_delta), Lookup::Hit(_)));
        assert_eq!(cache.stats().evictions, 0);
    }

    /// With no pressure there is no admission contest: everything
    /// cleanly drained is admitted, exactly as before the serving tier.
    #[test]
    fn unpressured_cache_admits_everything() {
        let cache = MidCache::new(1 << 20);
        for i in 0..10 {
            let adm = cache.insert(&key(&format!("K{i}")), batch(4), vec![], 0.0001);
            assert!(adm.admitted);
        }
        assert_eq!(cache.stats().admission_rejects, 0);
        assert_eq!(cache.len(), 10);
    }

    /// Same signature + order with fresher deps replaces in place (no
    /// duplicate entries); shrinking the budget evicts down to it.
    #[test]
    fn replacement_and_budget_shrink() {
        let cache = MidCache::new(1 << 20);
        let k = key("GET[T]()");
        cache.insert(&k, batch(8), vec![("T".into(), 1)], 1.0);
        cache.insert(&k, batch(4), vec![("T".into(), 2)], 1.0);
        assert_eq!(cache.len(), 1);
        match cache.lookup(&k, &|_| Some(2), &no_delta) {
            Lookup::Hit(rel) => assert_eq!(rel.batch.len(), 4),
            other => panic!("expected hit, got {other:?}"),
        }
        cache.set_budget(1);
        assert_eq!(cache.len(), 0);
        assert!(cache.bytes() <= 1);
    }

    /// The byte budget holds after every insert: many admitted entries
    /// must still sum below it, each one past the third evicting another
    /// (each newcomer is asked for once more than the one before, so it
    /// is hotter than whichever older entry is the victim).
    #[test]
    fn byte_budget_holds_across_many_inserts() {
        let entry_bytes = rows(8).iter().map(|t| t.byte_size() as u64).sum::<u64>();
        let cache = MidCache::new(entry_bytes * 3 + entry_bytes / 2);
        for i in 0..12 {
            let k = key(&format!("SIG{i}"));
            ask(&cache, &k, i);
            assert!(cache.insert(&k, batch(8), vec![], 100.0).admitted);
            assert!(
                cache.bytes() <= cache.budget(),
                "global budget exceeded: {} > {}",
                cache.bytes(),
                cache.budget()
            );
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 9);
    }

    /// A transfer is priced from the smallest resident entry whose
    /// order satisfies the request.
    #[test]
    fn residency_prices_smallest_satisfying_entry() {
        let f = CostFactors::default();
        let cache = MidCache::new(1 << 20);
        let mut sorted = key("GET[T]()");
        sorted.order = SortSpec::by(["A"]);
        cache.insert(&sorted, batch(20), vec![("T".into(), 1)], 1.0);
        cache.insert(&key("GET[T]()"), batch(5), vec![("T".into(), 1)], 1.0);
        let r = cache.residency(&|_| Some(1), &no_delta);
        let cost = |order: SortSpec| r.transfer_cost("GET[T]()", &order, &f);
        let small = cost(SortSpec::none()).unwrap();
        let ordered = cost(SortSpec::by(["A"])).unwrap();
        assert!(small < ordered, "unordered request should pick the smaller entry");
        assert!(cost(SortSpec::by(["B"])).is_none());
        assert!(r.transfer_cost("OTHER", &SortSpec::none(), &f).is_none());
    }

    /// The serving report lists contents and counters (the JSON form
    /// is parsed back by `tests/observability.rs`).
    #[test]
    fn report_renders_text_and_json() {
        let cache = MidCache::new(1 << 20);
        cache.insert(&key("A"), batch(2), vec![("T".into(), 1)], 1.0);
        let _ = cache.lookup(&key("A"), &|_| Some(1), &no_delta);
        cache.note_bypass();
        let text = cache.render_report();
        assert!(text.starts_with("cache: 1 entries"), "{text}");
        assert!(text.contains("hits 1"), "{text}");
        assert!(cache.stats_json().contains("\"bypasses\":1"));
    }

    /// Hammer one cache from many threads: mixed lookups, inserts and
    /// clears must keep the global byte count exact and never
    /// deadlock or double-free.
    #[test]
    fn concurrent_hammer_keeps_accounting_exact() {
        use std::thread;
        let entry_bytes = rows(8).iter().map(|t| t.byte_size() as u64).sum::<u64>();
        let cache = Arc::new(MidCache::new(entry_bytes * 6));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = cache.clone();
            handles.push(thread::spawn(move || {
                for i in 0..200u64 {
                    let k = key(&format!("SIG{}", (t * 7 + i) % 10));
                    match cache.lookup(&k, &|_| Some(1), &no_delta) {
                        Lookup::Hit(rel) => assert_eq!(rel.batch.len(), 8),
                        Lookup::Stale { .. } => unreachable!("no delta source"),
                        Lookup::Miss { .. } => {
                            cache.insert(&k, batch(8), vec![("T".into(), 1)], 500.0);
                        }
                    }
                    if i % 50 == 49 {
                        cache.clear();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.bytes() <= cache.budget());
        // recount from scratch: the running total must match the entries
        let recount = cache.len() as u64 * entry_bytes;
        assert_eq!(cache.bytes(), recount, "byte accounting drifted under concurrency");
    }

    /// With a covering delta source, a moved version surfaces the entry
    /// as `Stale` (carrying replay bytes) instead of dropping it; an
    /// uncovered table still degrades to the invalidating miss.
    #[test]
    fn covered_staleness_is_surfaced_not_dropped() {
        let cache = MidCache::new(1 << 20);
        let k = key("GET[T]()");
        cache.insert(&k, batch(4), vec![("T".into(), 1)], 100.0);
        let covered = |_: &str, since: u64| Some(since * 7);
        match cache.lookup(&k, &|_| Some(3), &covered) {
            Lookup::Stale { entry, invalidated } => {
                assert_eq!(entry.batch.len(), 4);
                assert_eq!(entry.delta_bytes, 7, "replay bytes since the recorded version");
                assert_eq!(entry.deps, vec![("T".to_string(), 1)]);
                assert!(invalidated.is_empty());
            }
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(cache.len(), 1, "a covered stale entry must stay resident");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (0, 0, 0));
        // the same moved version without delta coverage: dropped as before
        match cache.lookup(&k, &|_| Some(3), &no_delta) {
            Lookup::Miss { invalidated } => assert_eq!(invalidated, vec![k.sql.clone()]),
            other => panic!("expected invalidating miss, got {other:?}"),
        }
        assert!(cache.is_empty());
    }

    /// `refresh` replaces rows and deps in place, counts a refresh and
    /// a hit, and keeps byte accounting exact; stale-deps refreshes and
    /// refreshes of vanished entries are rejected.
    #[test]
    fn refresh_commits_in_place() {
        let cache = MidCache::new(1 << 20);
        let k = key("GET[T]()");
        cache.insert(&k, batch(4), vec![("T".into(), 1)], 100.0);
        assert!(cache.refresh(&k, batch(6), vec![("T".into(), 3)], 42));
        assert_eq!(cache.len(), 1);
        let expected: u64 = rows(6).iter().map(|t| t.byte_size() as u64).sum();
        assert_eq!(cache.bytes(), expected, "refresh must swap the byte accounting");
        match cache.lookup(&k, &|_| Some(3), &no_delta) {
            Lookup::Hit(rel) => assert_eq!(rel.batch.len(), 6),
            other => panic!("expected hit on refreshed entry, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.refreshes, s.refresh_bytes), (1, 42));
        assert_eq!(s.hits, 2, "the refresh itself serves the querying session");
        // a racing refresh carrying older deps loses
        assert!(!cache.refresh(&k, batch(1), vec![("T".into(), 2)], 1));
        // refreshing an entry that is no longer resident is a no-op
        assert!(cache.remove(&k));
        assert!(!cache.refresh(&k, batch(1), vec![("T".into(), 9)], 1));
        assert_eq!(cache.stats().invalidations, 1, "remove counts as an invalidation");
        assert_eq!(cache.bytes(), 0);
    }

    /// All three maintenance outcomes are reachable by cost alone.
    #[test]
    fn maintenance_choice_reaches_all_three() {
        let f = CostFactors::default();
        // hot entry, small delta: refresh is cheapest
        assert_eq!(maintenance_choice(&f, 10_000, 100, 5_000.0, 3, true), Maintenance::Refresh);
        // hot entry, but the shape has no delta rule: refetch
        assert_eq!(maintenance_choice(&f, 10_000, 100, 5_000.0, 3, false), Maintenance::Refetch);
        // hot entry, delta dwarfs the base refill: refetch wins on cost
        assert_eq!(maintenance_choice(&f, 10_000, 40_000, 5_000.0, 3, true), Maintenance::Refetch);
        // never-hit entry: zero benefit, drop
        assert_eq!(maintenance_choice(&f, 10_000, 100, 5_000.0, 0, true), Maintenance::Drop);
    }

    /// Residency prices stale entries at replay + merge + serve, fresh
    /// ones at the cached serve.
    #[test]
    fn residency_prices_stale_entries() {
        let f = CostFactors::default();
        let cache = MidCache::new(1 << 20);
        let k = key("GET[T]()");
        cache.insert(&k, batch(10), vec![("T".into(), 1)], 100.0);
        let base: u64 = rows(10).iter().map(|t| t.byte_size() as u64).sum();

        let fresh = cache.residency(&|_| Some(1), &no_delta);
        let fresh_cost = fresh.transfer_cost("GET[T]()", &SortSpec::none(), &f).unwrap();
        assert!((fresh_cost - f.p_cached * base as f64).abs() < 1e-9);

        let covered = |_: &str, _: u64| Some(64);
        let stale = cache.residency(&|_| Some(2), &covered);
        let stale_cost = stale.transfer_cost("GET[T]()", &SortSpec::none(), &f).unwrap();
        let expected = refresh_cost_us(&f, base, 64) + f.p_cached * base as f64;
        assert!((stale_cost - expected).abs() < 1e-9);
        assert!(stale_cost > fresh_cost);
    }
}
