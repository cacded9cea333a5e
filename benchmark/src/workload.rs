//! The six workloads: what each one runs, and the seeded generators that
//! turn `--seed` into SQL text. The program under test sees only the
//! generated SQL.

use tango_algebra::date::{day, format_date};
use tango_algebra::Day;

/// Relation-cache mode of a workload's sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// `cache_budget = None`: every `TRANSFER^M` crosses the wire.
    Off,
    /// Shared cache, default budget, warmed before the first timed op.
    Warm,
    /// Shared cache whose budget is half of what the pool needs resident.
    HalfOfPool,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one sentence; mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// Closed-loop client threads (one session each).
    pub clients: usize,
    pub cache: CacheMode,
    /// Whether the three shipped rewrite packs are enabled.
    pub packs: bool,
    /// Timed ops per client of a fixed-count run (no `--seconds`), summed
    /// over the run's rounds.
    pub ops: usize,
    /// Percentage of ops that are writes.
    pub write_pct: u64,
    /// Run the per-op probes on every n-th op of the traced pass.
    pub probe_every: usize,
    /// Whether the plan placement of each query must stay the same over
    /// the whole run (false where writes or evictions legitimately move
    /// residency, and with it the cheapest plan).
    pub fixed_placement: bool,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Q1,
    Q2,
    Q3,
    ServePool,
    PressurePool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "q1-warm",
        why: "Query 1 over a resident input: zero wire, so all time is middleware operators and result materialization",
        clients: 1,
        cache: CacheMode::Warm,
        packs: false,
        ops: 100,
        write_pct: 0,
        probe_every: 1,
        fixed_placement: true,
        kind: Kind::Q1,
    },
    Workload {
        name: "q2-cold",
        why: "Query 2 uncached: the Volcano search is the largest single cost and the plan ships data both ways",
        clients: 1,
        cache: CacheMode::Off,
        packs: false,
        ops: 100,
        write_pct: 0,
        probe_every: 1,
        fixed_placement: true,
        kind: Kind::Q2,
    },
    Workload {
        name: "q3-dbms",
        why: "Query 3 runs wholly in the DBMS and crosses the wire once: bypasses optimizer and xxl, shows minidb, to_sql and codec",
        clients: 1,
        cache: CacheMode::Off,
        packs: false,
        ops: 100,
        write_pct: 0,
        probe_every: 1,
        fixed_placement: true,
        kind: Kind::Q3,
    },
    Workload {
        name: "serve-warm",
        why: "Two sessions draw short queries that all hit one shared cache: front-end, rewrite, search and cache-lookup cost",
        clients: 2,
        cache: CacheMode::Warm,
        packs: true,
        ops: 15_000,
        write_pct: 0,
        probe_every: 16,
        fixed_placement: true,
        kind: Kind::ServePool,
    },
    Workload {
        name: "serve-churn",
        why: "The same pool with 5% real INSERT/DELETE writes: delta capture, stale lookups, refresh-by-delta vs refetch vs drop",
        clients: 1,
        cache: CacheMode::Warm,
        packs: true,
        ops: 3_000,
        write_pct: 5,
        probe_every: 16,
        fixed_placement: false,
        kind: Kind::ServePool,
    },
    Workload {
        name: "serve-pressure",
        why: "32 skewed range aggregates against a cache half their size: evictions, admission and duplicate populates",
        clients: 2,
        cache: CacheMode::HalfOfPool,
        packs: false,
        ops: 1_500,
        write_pct: 0,
        probe_every: 16,
        fixed_placement: false,
        kind: Kind::PressurePool,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's only random source, so a seed fixes every
/// input on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Paper Query 1: temporal aggregation over POSITION, sorted output.
fn q1_sql() -> String {
    "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID ORDER BY PosID"
        .to_string()
}

/// Paper Query 2: window + pay-rate selection, aggregate joined back.
fn q2_sql(start: Day, end: Day) -> String {
    format!(
        "VALIDTIME SELECT P.PosID, Cnt, P.EmpID FROM \
           (VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION GROUP BY PosID) A, \
           POSITION P \
         WHERE A.PosID = P.PosID AND P.PayRate > 10 \
           AND T1 < DATE '{}' AND T2 > DATE '{}' \
         ORDER BY P.PosID",
        format_date(end),
        format_date(start),
    )
}

/// Paper Query 3: temporal self-join of POSITION below a start bound.
fn q3_sql(bound: Day) -> String {
    format!(
        "VALIDTIME SELECT A.PosID, A.EmpID, B.EmpID FROM POSITION A, POSITION B \
         WHERE A.PosID = B.PosID AND A.T1 < DATE '{0}' AND B.T1 < DATE '{0}' \
         ORDER BY A.PosID",
        format_date(bound),
    )
}

fn range_count_sql(lo: i64, hi: i64) -> String {
    format!(
        "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
         WHERE PosID >= {lo} AND PosID < {hi} GROUP BY PosID ORDER BY PosID"
    )
}

/// Date jitter of a run, in days. Small on purpose: a seed changes every
/// statement text, but the rows a statement touches by a few percent at
/// most, so runs with different seeds measure the same amount of work.
const JITTER_DAYS: u64 = 14;

/// PosIDs below this bound are the ones the serving pool reads; writes
/// land inside it so every write stales pool fragments.
pub const POOL_POSID_BOUND: i64 = 36;

impl Workload {
    /// The distinct read statements of this workload for `seed`. Jitter
    /// is drawn once per run, so a run has a small fixed set of texts
    /// whose answers the oracle computes at set-up.
    pub fn pool(&self, seed: u64) -> Vec<String> {
        let mut rng = Rng::new(seed ^ 0x5EED_0F50);
        match self.kind {
            Kind::Q1 => vec![q1_sql()],
            Kind::Q2 => {
                let end = day(1986, 1, 1) + rng.below(JITTER_DAYS) as Day;
                vec![q2_sql(day(1983, 1, 1), end)]
            }
            Kind::Q3 => vec![q3_sql(day(1993, 1, 1) + rng.below(JITTER_DAYS) as Day)],
            Kind::ServePool => {
                let j = rng.below(2) as i64;
                let mut pool: Vec<String> = [8, 16, 24, 32]
                    .iter()
                    .map(|k| {
                        format!(
                            "VALIDTIME SELECT PosID, COUNT(PosID) AS Cnt FROM POSITION \
                             WHERE PosID < {} GROUP BY PosID ORDER BY PosID",
                            k + j
                        )
                    })
                    .collect();
                for k in [400, 800] {
                    pool.push(format!(
                        "SELECT EmpID, Dept, Salary FROM EMPLOYEE WHERE EmpID < {} ORDER BY EmpID",
                        k + rng.below(8)
                    ));
                }
                pool.push(q3_sql(day(1988, 1, 1)));
                // an Overlaps window hidden behind NOT, which only the
                // temporal-normalize pack turns into the form the window
                // rules and the joint selectivity estimator recognize
                let lo = day(1995, 1, 1) + rng.below(JITTER_DAYS) as Day;
                pool.push(format!(
                    "SELECT PosID, EmpID, T1, T2 FROM POSITION WHERE PosID < {} \
                     AND NOT (T1 > DATE '{}') AND NOT (T2 < DATE '{}') \
                     ORDER BY PosID, EmpID, T1, T2",
                    POOL_POSID_BOUND,
                    format_date(lo + 365),
                    format_date(lo),
                ));
                pool
            }
            Kind::PressurePool => {
                // POSITION rows thin out with PosID as p^(-1/3); widening
                // the ranges as i^(3/2) gives fragments of about equal
                // size, so eviction by size has nothing to prefer
                let base = 1 + rng.below(2) as i64;
                let mut bounds: Vec<i64> = vec![base];
                for i in 1..=32 {
                    let at = base + (160.0 * (i as f64 / 32.0).powf(1.5)).round() as i64;
                    bounds.push(at.max(bounds[i - 1] + 1));
                }
                bounds.windows(2).map(|b| range_count_sql(b[0], b[1])).collect()
            }
        }
    }

    /// The op stream of one client: deterministic in `(seed, client)`.
    pub fn ops(&self, seed: u64, client: usize, pool_len: usize) -> OpGen {
        OpGen {
            rng: Rng::new(seed ^ 0x0B5_0000 ^ ((client as u64 + 1) << 32)),
            pool_len,
            write_pct: self.write_pct,
            cubic: self.kind == Kind::PressurePool,
            client,
            issued: 0,
            deck: Vec::new(),
            inserted: 0,
            live: std::collections::VecDeque::new(),
        }
    }
}

/// One operation of the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `Tango::query` of pool statement `i`.
    Read(usize),
    /// `Connection::execute` of an `INSERT` or `DELETE`.
    Write(String),
}

/// Endless, seeded op stream.
pub struct OpGen {
    rng: Rng,
    pool_len: usize,
    write_pct: u64,
    cubic: bool,
    client: usize,
    issued: u64,
    /// Strata not yet read in the current block.
    deck: Vec<usize>,
    inserted: u64,
    /// Marker `EmpID`s of rows inserted and not yet deleted, oldest first.
    live: std::collections::VecDeque<i64>,
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.issued += 1;
        // writes come at a fixed period, not at random: the cost of a run
        // is dominated by what each write stales, so a random count of
        // writes would be the run's main source of spread
        if self.write_pct > 0 && self.issued.is_multiple_of(100 / self.write_pct) {
            // delete the oldest inserted row half of the time, so the
            // table neither grows without bound nor ever loses UIS data
            if self.live.len() > 4 && self.rng.below(2) == 0 {
                let marker = self.live.pop_front().expect("non-empty");
                return Some(Op::Write(format!("DELETE FROM POSITION WHERE EmpID = {marker}")));
            }
            self.inserted += 1;
            let marker = 9_000_000 + 100_000 * self.client as i64 + self.inserted as i64;
            self.live.push_back(marker);
            let pos_id = 1 + self.rng.below(POOL_POSID_BOUND as u64 - 1) as i64;
            let t1 = day(1995, 1, 1) + self.rng.below(1000) as Day;
            let t2 = t1 + 30 + self.rng.below(700) as Day;
            return Some(Op::Write(format!(
                "INSERT INTO POSITION VALUES ({pos_id}, {marker}, {}, 'Bench', 19.5, 40, \
                 DATE '{}', DATE '{}')",
                1 + pos_id % 40,
                format_date(t1),
                format_date(t2),
            )));
        }
        // reads are stratified: each block of `pool_len` reads takes every
        // stratum once, in a freshly shuffled order, so the mix of cheap
        // and dear statements is the same in every round and only their
        // order is random
        if self.deck.is_empty() {
            self.deck = (0..self.pool_len).collect();
            for k in (1..self.pool_len).rev() {
                self.deck.swap(k, self.rng.below(k as u64 + 1) as usize);
            }
        }
        let stratum = self.deck.pop().expect("refilled above");
        let i = if self.cubic {
            // cubic skew: the first eighth of the pool draws half the reads
            let u = (stratum as f64 + self.rng.unit()) / self.pool_len as f64;
            ((u * u * u) * self.pool_len as f64) as usize
        } else {
            stratum
        };
        Some(Op::Read(i.min(self.pool_len - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_sql() {
        for w in &WORKLOADS {
            let pool = w.pool(7);
            assert_eq!(pool, w.pool(7), "{}", w.name);
            let a: Vec<Op> = w.ops(7, 0, pool.len()).take(500).collect();
            let b: Vec<Op> = w.ops(7, 0, pool.len()).take(500).collect();
            assert_eq!(a, b, "{}", w.name);
            if pool.len() > 1 {
                let c: Vec<Op> = w.ops(8, 0, pool.len()).take(500).collect();
                assert_ne!(a, c, "{}: a second seed must change the op sequence", w.name);
            }
        }
        // every workload but the parameter-free Query 1 changes its SQL
        // text under some other seed
        for w in WORKLOADS.iter().filter(|w| w.name != "q1-warm") {
            let base = w.pool(7);
            assert!((8..40).any(|s| w.pool(s) != base), "{}", w.name);
        }
    }

    #[test]
    fn writes_delete_only_what_they_inserted() {
        let w = find("serve-churn").unwrap();
        let mut live = std::collections::HashSet::new();
        let mut writes = 0;
        for op in w.ops(3, 0, 8).take(20_000) {
            if let Op::Write(sql) = op {
                writes += 1;
                let marker: i64 = sql
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|t| t.parse().ok())
                    .find(|n| *n >= 9_000_000)
                    .unwrap();
                if sql.starts_with("INSERT") {
                    assert!(live.insert(marker));
                } else {
                    assert!(live.remove(&marker), "deleted a row never inserted: {sql}");
                }
            }
        }
        assert_eq!(writes, 1000, "every 20th of 20000 ops");
    }
}
