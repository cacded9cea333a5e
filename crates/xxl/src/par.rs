//! Morsel-driven parallel execution for pipeline breakers.
//!
//! The heavy middleware operators (sort-run formation, sort-merge and
//! temporal join partitions, TAGGR group sweeps) split their materialized
//! input into ~[`MORSEL_ROWS`]-row morsels and run them on a small fixed
//! pool of scoped worker threads. Workers *claim* morsels dynamically
//! (an atomic cursor over the job list) but results are collected *by
//! slot*, so the merged output is byte-identical to the sequential run no
//! matter how the morsels were scheduled. With `workers <= 1` (the
//! default) everything runs inline on the calling thread — no pool, no
//! behavior change.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Target rows per morsel: large enough to amortize claim overhead, small
/// enough to load-balance skewed inputs across the pool.
pub const MORSEL_ROWS: usize = 64 * 1024;

/// Scheduling statistics from one parallel region, surfaced as
/// per-operator counters in EXPLAIN ANALYZE (only when `workers > 1`, so
/// sequential golden traces are unchanged).
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Pool width actually used.
    pub workers: usize,
    /// Total morsels (jobs) executed.
    pub morsels: u64,
    /// Morsels executed by each worker. Dynamic claiming makes this
    /// scheduling-dependent; results are order-preserving regardless.
    pub per_worker: Vec<u64>,
}

impl ParStats {
    /// Fold another region's stats into this one (per-worker counts align
    /// by slot).
    pub fn absorb(&mut self, other: &ParStats) {
        self.workers = self.workers.max(other.workers);
        self.morsels += other.morsels;
        if self.per_worker.len() < other.per_worker.len() {
            self.per_worker.resize(other.per_worker.len(), 0);
        }
        for (a, b) in self.per_worker.iter_mut().zip(&other.per_worker) {
            *a += b;
        }
    }

    /// Counter rows for `Cursor::counters` (names are 'static, capped at
    /// eight per-worker slots).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        const W: [&str; 8] = [
            "morsels_w0",
            "morsels_w1",
            "morsels_w2",
            "morsels_w3",
            "morsels_w4",
            "morsels_w5",
            "morsels_w6",
            "morsels_w7",
        ];
        let mut out = vec![("par_workers", self.workers as u64), ("morsels", self.morsels)];
        for (i, &n) in self.per_worker.iter().take(W.len()).enumerate() {
            out.push((W[i], n));
        }
        out
    }
}

/// Split `rows` into at most `jobs` contiguous ranges of whole rows,
/// targeting [`MORSEL_ROWS`] per range (fewer when the input is small).
pub fn morsel_ranges(rows: usize, workers: usize) -> Vec<(usize, usize)> {
    if rows == 0 {
        return Vec::new();
    }
    if workers <= 1 {
        return vec![(0, rows)];
    }
    let target = MORSEL_ROWS.min(rows.div_ceil(workers)).max(1);
    let mut out = Vec::with_capacity(rows.div_ceil(target));
    let mut at = 0;
    while at < rows {
        let hi = (at + target).min(rows);
        out.push((at, hi));
        at = hi;
    }
    out
}

/// Partition two key-sorted inputs for a parallel merge join: split the
/// left side into ~morsel-sized ranges that never cut a key group (`same`
/// tests two *left* rows for key equality), then align each range with
/// the right rows whose keys fall inside its key span (`cmp` compares a
/// left row's key to a right row's key). Returns
/// `(left_lo, left_hi, right_lo, right_hi)` ranges in key order; right
/// rows between partitions match nothing and belong to none.
pub fn partition_pairs<L, R>(
    left: &[L],
    right: &[R],
    workers: usize,
    same: impl Fn(&L, &L) -> bool,
    cmp: impl Fn(&L, &R) -> std::cmp::Ordering,
) -> Vec<(usize, usize, usize, usize)> {
    use std::cmp::Ordering as O;
    let n = left.len();
    if n == 0 {
        return Vec::new();
    }
    let target = MORSEL_ROWS.min(n.div_ceil(workers.max(1))).max(1);
    let mut parts = Vec::new();
    let mut lo = 0usize;
    for r in 1..=n {
        let boundary = r == n || !same(&left[r - 1], &left[r]);
        if boundary && r - lo >= target {
            parts.push((lo, r));
            lo = r;
        }
    }
    if lo < n {
        parts.push((lo, n));
    }
    let mut out = Vec::with_capacity(parts.len());
    let mut rpos = 0usize;
    for (llo, lhi) in parts {
        // skip right keys below this partition's first key
        while rpos < right.len() && cmp(&left[llo], &right[rpos]) == O::Greater {
            rpos += 1;
        }
        let rlo = rpos;
        // include right keys up to and including the partition's last key
        while rpos < right.len() && cmp(&left[lhi - 1], &right[rpos]) != O::Less {
            rpos += 1;
        }
        out.push((llo, lhi, rlo, rpos));
    }
    out
}

/// Run `jobs` on a pool of `workers` scoped threads, collecting results in
/// job order. Workers claim jobs via an atomic cursor; a job's result goes
/// into its own slot, so the output `Vec` is deterministic. Runs inline
/// when `workers <= 1` or there is at most one job.
pub fn run_ordered<T, F>(workers: usize, jobs: Vec<F>) -> (Vec<T>, ParStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        let results: Vec<T> = jobs.into_iter().map(|j| j()).collect();
        let stats = ParStats { workers: 1, morsels: n as u64, per_worker: vec![n as u64] };
        return (results, stats);
    }
    let w = workers.min(n);
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let mut per_worker = vec![0u64; w];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..w)
            .map(|_| {
                s.spawn(|| {
                    let mut claimed = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = jobs[i].lock().unwrap().take().unwrap();
                        let result = job();
                        *slots[i].lock().unwrap() = Some(result);
                        claimed += 1;
                    }
                    claimed
                })
            })
            .collect();
        for (wi, h) in handles.into_iter().enumerate() {
            per_worker[wi] = h.join().expect("worker panicked");
        }
    });
    let results =
        slots.into_iter().map(|m| m.into_inner().unwrap().expect("job not run")).collect();
    (results, ParStats { workers: w, morsels: n as u64, per_worker })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_when_sequential() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..5usize).map(|i| Box::new(move || i * i) as _).collect();
        let (r, stats) = run_ordered(1, jobs);
        assert_eq!(r, vec![0, 1, 4, 9, 16]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.morsels, 5);
    }

    #[test]
    fn parallel_preserves_job_order() {
        for workers in [2, 3, 8] {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
                (0..37usize).map(|i| Box::new(move || i * 3) as _).collect();
            let (r, stats) = run_ordered(workers, jobs);
            assert_eq!(r, (0..37).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(stats.morsels, 37);
            assert_eq!(stats.per_worker.iter().sum::<u64>(), 37);
        }
    }

    #[test]
    fn morsel_ranges_cover_exactly() {
        for (rows, workers) in [(0, 4), (1, 4), (100, 1), (100, 4), (1_000_000, 8)] {
            let ranges = morsel_ranges(rows, workers);
            let mut at = 0;
            for (lo, hi) in &ranges {
                assert_eq!(*lo, at);
                assert!(hi > lo);
                at = *hi;
            }
            assert_eq!(at, rows);
            if workers > 1 && rows > 0 {
                assert!(ranges.len() >= workers.min(rows));
            }
        }
    }
}
