//! One measured pass: every client thread drives its session in a closed
//! loop (the next op is issued when the previous one returns), times each
//! call, and checks each answer outside the timed interval.

use crate::env::Env;
use crate::oracle::answer;
use crate::probe;
use crate::trace::{Tracer, Values};
use crate::workload::{Op, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tango_core::cache::CacheStats;
use tango_core::phys::{Algo, PhysNode};
use tango_core::Tango;
use tango_minidb::Connection;

/// When a pass stops issuing ops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this long (the driver's `--seconds`).
    Time(Duration),
    /// After this many ops per client (fixed counts, so counts repeat).
    Ops(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The pool statement a read ran; `None` for a write.
    pub statement: Option<usize>,
    /// `Instant` wall time around the call only.
    pub cpu_ns: u64,
    /// Virtual-link time charged to the session during the call.
    pub wire_ns: u64,
    /// Link round trips during the call (exact with one client).
    pub roundtrips: u64,
}

impl Sample {
    pub fn is_read(&self) -> bool {
        self.statement.is_some()
    }

    pub fn total_ms(&self) -> f64 {
        (self.cpu_ns + self.wire_ns) as f64 / 1e6
    }
}

#[derive(Default)]
pub struct ClientResult {
    pub samples: Vec<Sample>,
    /// Ops that returned `Err` plus reads whose answer the oracle rejects.
    pub failed: u64,
    /// Extra checked answers that are not timed ops (end-of-pass sweep).
    pub extra_checks: u64,
    /// First plan placement seen per pool statement.
    pub placements: BTreeMap<usize, String>,
    /// Reads whose placement differed from the first one seen.
    pub placement_changes: u64,
    /// Order-sensitive fingerprint of the op sequence issued.
    pub op_fingerprint: u64,
    /// Per-op layer values of the traced pass, by metric name.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    pub tracer: Option<Tracer>,
}

pub struct PassResult {
    pub clients: Vec<ClientResult>,
    pub cache: CacheStats,
    pub resident_bytes: u64,
    /// Round trips on the shared link over the whole pass.
    pub link_roundtrips: u64,
}

/// `taggr=M sort=D …`: where each placeable operator of the plan ran, in
/// plan order, plus `T^D` for every middleware-to-DBMS transfer.
pub fn placement(plan: &PhysNode) -> String {
    fn go(n: &PhysNode, out: &mut Vec<&'static str>) {
        out.extend(match n.algo {
            Algo::TAggrM { .. } => Some("taggr=M"),
            Algo::TAggrD { .. } => Some("taggr=D"),
            Algo::TMergeJoinM(_) => Some("tjoin=M"),
            Algo::TJoinD(_) => Some("tjoin=D"),
            Algo::MergeJoinM(_) => Some("join=M"),
            Algo::JoinD(_) => Some("join=D"),
            Algo::SortM(_) | Algo::SortXM(..) => Some("sort=M"),
            Algo::SortD(_) => Some("sort=D"),
            Algo::FilterM(_) => Some("filter=M"),
            Algo::TransferD => Some("T^D"),
            _ => None,
        });
        for c in &n.children {
            go(c, out);
        }
    }
    let mut parts = Vec::new();
    go(plan, &mut parts);
    if parts.is_empty() {
        "scan=D".to_string()
    } else {
        parts.join(" ")
    }
}

/// `f` applied to every counter pair of two cache-statistics snapshots
/// (a difference over a pass, a sum over rounds).
pub fn combine_stats(a: &CacheStats, b: &CacheStats, f: fn(u64, u64) -> u64) -> CacheStats {
    CacheStats {
        hits: f(a.hits, b.hits),
        misses: f(a.misses, b.misses),
        bypasses: f(a.bypasses, b.bypasses),
        insertions: f(a.insertions, b.insertions),
        evictions: f(a.evictions, b.evictions),
        invalidations: f(a.invalidations, b.invalidations),
        rejections: f(a.rejections, b.rejections),
        admission_rejects: f(a.admission_rejects, b.admission_rejects),
        duplicate_populates: f(a.duplicate_populates, b.duplicate_populates),
        refreshes: f(a.refreshes, b.refreshes),
        refresh_bytes: f(a.refresh_bytes, b.refresh_bytes),
        refresh_bails: f(a.refresh_bails, b.refresh_bails),
    }
}

/// Reads between two control checks on a workload with writes, where
/// set-up-time answers go stale.
const CONTROL_EVERY: usize = 20;

struct Client<'a> {
    w: &'a Workload,
    index: usize,
    session: &'a mut Tango,
    /// The oracle's session, handed to the single client of a workload
    /// with writes.
    control: Option<&'a mut Tango>,
    pool: &'a [String],
    expected: &'a [crate::oracle::Answer],
    probe_conn: Connection,
    epoch: Instant,
    traced: bool,
}

impl Client<'_> {
    fn run(mut self, ops: impl Iterator<Item = Op>, limit: Limit) -> ClientResult {
        let mut r = ClientResult::default();
        let mut tracer = self.traced.then(|| Tracer::new(self.epoch));
        let link = self.session.conn().link().clone();
        let profile = *link.profile();
        let started = Instant::now();
        let mut reads = 0usize;
        for (n, op) in ops.enumerate() {
            match limit {
                Limit::Time(d) if started.elapsed() >= d => break,
                Limit::Ops(max) if n >= max => break,
                _ => {}
            }
            let op_id = ((self.index as u64) << 48) | n as u64;
            let sql = match &op {
                Op::Read(i) => self.pool[*i].as_str(),
                Op::Write(sql) => sql.as_str(),
            };
            r.op_fingerprint =
                sql.bytes().fold(r.op_fingerprint.rotate_left(5) ^ 0x9E37_79B9, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });

            let start_ns = tracer.as_ref().map_or(0, Tracer::now_ns);
            let trips_before = link.roundtrips();
            let wire_before = self.session.conn().wire_time();
            let t = Instant::now();
            match op {
                Op::Write(ref sql) => {
                    let outcome = self.session.conn().execute(sql);
                    let cpu_ns = t.elapsed().as_nanos() as u64;
                    let wire_ns = (self.session.conn().wire_time() - wire_before).as_nanos() as u64;
                    let roundtrips = link.roundtrips() - trips_before;
                    r.samples.push(Sample { statement: None, cpu_ns, wire_ns, roundtrips });
                    r.failed += u64::from(outcome.is_err());
                    if let Some(tr) = tracer.as_mut() {
                        tr.write_op(op_id, start_ns, cpu_ns, wire_ns);
                    }
                }
                Op::Read(i) => {
                    let outcome = self.session.query(sql);
                    let cpu_ns = t.elapsed().as_nanos() as u64;
                    let wire_ns = (self.session.conn().wire_time() - wire_before).as_nanos() as u64;
                    let roundtrips = link.roundtrips() - trips_before;
                    r.samples.push(Sample { statement: Some(i), cpu_ns, wire_ns, roundtrips });
                    reads += 1;
                    let Ok((rel, report)) = outcome else {
                        r.failed += 1;
                        continue;
                    };
                    let got = answer(&rel);
                    drop(rel);
                    let right = match self.control.as_mut() {
                        None => got == self.expected[i],
                        Some(control) if reads.is_multiple_of(CONTROL_EVERY) => {
                            control.query(sql).is_ok_and(|(rel, _)| answer(&rel) == got)
                        }
                        Some(_) => true,
                    };
                    r.failed += u64::from(!right);
                    let placed = placement(&report.optimized.plan);
                    if *r.placements.entry(i).or_insert_with(|| placed.clone()) != placed {
                        r.placement_changes += 1;
                    }
                    if let Some(tr) = tracer.as_mut() {
                        let mut values: Values =
                            tr.read_op(op_id, start_ns, cpu_ns, wire_ns, &report, &profile);
                        if n % self.w.probe_every == 0 {
                            values.extend(probe::probe_op(
                                tr,
                                op_id,
                                self.session,
                                &self.probe_conn,
                                sql,
                                &report,
                            ));
                        }
                        for (k, x) in values {
                            r.layers.entry(k).or_default().push(x);
                        }
                    }
                }
            }
        }
        // after writes, set-up-time answers are stale: sweep the whole
        // pool against the control at the final table state
        if let Some(control) = self.control.as_mut() {
            for sql in self.pool {
                r.extra_checks += 1;
                let got = self.session.query(sql).map(|(rel, _)| answer(&rel));
                let want = control.query(sql).map(|(rel, _)| answer(&rel));
                r.failed += u64::from(!matches!((got, want), (Ok(g), Ok(w)) if g == w));
            }
        }
        r.tracer = tracer;
        r
    }
}

pub fn pass(
    env: &mut Env,
    w: &Workload,
    seed: u64,
    limit: Limit,
    traced: bool,
    epoch: Instant,
) -> PassResult {
    let cache = env.sessions[0].cache().clone();
    let link = env.db.link().clone();
    let before = cache.stats();
    let trips_before = link.roundtrips();
    let (pool, expected, db) = (&env.pool, &env.expected, &env.db);
    let mut control = (w.write_pct > 0).then_some(&mut env.control);
    assert!(w.write_pct == 0 || w.clients == 1, "control checks need a single writer");

    let clients: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .sessions
            .iter_mut()
            .enumerate()
            .map(|(index, session)| {
                let client = Client {
                    w,
                    index,
                    session,
                    control: control.take(),
                    pool,
                    expected,
                    probe_conn: Connection::new(db.clone()),
                    epoch,
                    traced,
                };
                let ops = w.ops(seed, index, pool.len());
                scope.spawn(move || client.run(ops, limit))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    PassResult {
        clients,
        cache: combine_stats(&cache.stats(), &before, |after, before| after - before),
        resident_bytes: cache.bytes(),
        link_roundtrips: link.roundtrips() - trips_before,
    }
}
