//! `SORT^M` — middleware sorting.
//!
//! Two implementations share the operator interface:
//!
//! * [`Sort`] materializes its input, columnarizes it, and sorts by
//!   permutation over flat key arrays (the default; the paper's prototype
//!   worked in memory and listed very-large-relation support as future
//!   work). With `workers > 1` the permutation is computed over
//!   morsel-sized chunks in parallel and stable-merged — byte-identical
//!   to the sequential sort.
//! * [`ExternalSort`] is that future work: it spills sorted runs to
//!   temporary files using the binary tuple codec and k-way merges them,
//!   bounding memory by the run size. With `workers > 1`, up to `workers`
//!   run chunks are sorted concurrently before being spilled in input
//!   order, so the run files are identical to a sequential spill.
//!
//! Both sorts are stable, so they refine any pre-existing order — a
//! property rule T12 (`sort_A(sort_B(r)) → sort_A(r)` when
//! `IsPrefixOf(B, A)`) depends on.

use crate::cursor::{drain_batches, BoxCursor, Cursor, ExecError, ExecOpts, Result};
use crate::par::{morsel_ranges, run_ordered, ParStats};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tango_algebra::codec::{encode_tuple, Decoder};
use tango_algebra::{sort_tuples, Batch, BatchKeys, Schema, SortSpec, Tuple};

/// In-memory sort: columnar permutation sort with an optional parallel
/// chunk phase.
pub struct Sort {
    input: BoxCursor,
    spec: SortSpec,
    opts: ExecOpts,
    sorted: Option<Batch>,
    pos: usize,
    buffered: u64,
    par: Option<ParStats>,
}

impl Sort {
    /// Sort `input` by `spec` (stable; materializes at open).
    pub fn new(input: BoxCursor, spec: SortSpec) -> Self {
        Self::with_opts(input, spec, ExecOpts::default())
    }

    /// Like [`Sort::new`] with explicit execution knobs (batch size and
    /// worker-pool width).
    pub fn with_opts(input: BoxCursor, spec: SortSpec, opts: ExecOpts) -> Self {
        Sort { input, spec, opts, sorted: None, pos: 0, buffered: 0, par: None }
    }
}

impl Cursor for Sort {
    fn schema(&self) -> &Arc<Schema> {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let schema = self.input.schema().clone();
        let batches = drain_batches(self.input.as_mut(), self.opts.batch_rows)?;
        let data = Batch::concat(schema.clone(), batches);
        self.buffered = data.len() as u64;
        self.pos = 0;
        let keys = BatchKeys::extract(&data, &self.spec, &schema);
        if data.is_empty() || keys.is_empty() {
            self.sorted = Some(data);
            return Ok(());
        }
        let n = data.len();
        let ranges = morsel_ranges(n, self.opts.workers);
        let perm = if ranges.len() > 1 {
            let keys_ref = &keys;
            let jobs: Vec<_> =
                ranges.into_iter().map(|(lo, hi)| move || keys_ref.sort_range(lo, hi)).collect();
            let (chunks, stats) = run_ordered(self.opts.workers, jobs);
            self.par = Some(stats);
            keys.merge(chunks)
        } else {
            keys.sort_range(0, n)
        };
        self.sorted = Some(data.gather(&perm));
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        let Some(s) = self.sorted.as_ref() else {
            return Err(ExecError::State("sort not opened".into()));
        };
        let n = (s.len() - self.pos).min(max_rows.max(1));
        if n == 0 {
            return Ok(None);
        }
        let b = s.slice(self.pos, n);
        self.pos += n;
        Ok(Some(b))
    }

    fn close(&mut self) -> Result<()> {
        self.sorted = None;
        self.input.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![("rows_buffered", self.buffered)];
        if let Some(par) = &self.par {
            out.extend(par.counters());
        }
        out
    }
}

/// External merge sort: sorted runs of at most `run_size` tuples are
/// spilled to temporary files and merged with a loser-tree (binary heap).
pub struct ExternalSort {
    input: BoxCursor,
    spec: SortSpec,
    run_size: usize,
    opts: ExecOpts,
    merge: Option<MergeState>,
    runs_spilled: u64,
    rows_spilled: u64,
    par: Option<ParStats>,
}

struct Run {
    reader: BufReader<File>,
    path: PathBuf,
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Run {
    fn next_tuple(&mut self) -> Result<Option<Tuple>> {
        let mut len_buf = [0u8; 4];
        match self.reader.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(ExecError::State(format!("spill read: {e}"))),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut buf = vec![0u8; len];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| ExecError::State(format!("spill read: {e}")))?;
        Ok(Some(Decoder::new(&buf).decode_tuple()?))
    }
}

/// Write one already-sorted run to a fresh spill file.
fn spill_run(chunk: Vec<Tuple>, dir: &Path) -> Result<Run> {
    static RUN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = RUN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(format!("tango-sort-{}-{id}.run", std::process::id()));
    let file = File::create(&path).map_err(|e| ExecError::State(format!("spill create: {e}")))?;
    let mut w = BufWriter::new(file);
    let mut buf = Vec::new();
    for t in chunk {
        buf.clear();
        encode_tuple(&t, &mut buf);
        w.write_all(&(buf.len() as u32).to_le_bytes())
            .and_then(|_| w.write_all(&buf))
            .map_err(|e| ExecError::State(format!("spill write: {e}")))?;
    }
    w.flush().map_err(|e| ExecError::State(format!("spill flush: {e}")))?;
    drop(w);
    let file = File::open(&path).map_err(|e| ExecError::State(format!("spill open: {e}")))?;
    Ok(Run { reader: BufReader::new(file), path })
}

struct HeapEntry {
    tuple: Tuple,
    run: usize,
    seq: usize,
    keys: Vec<(usize, bool)>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for ascending output. Ties
        // break on (run, seq) to keep the merge stable.
        let mut o = Ordering::Equal;
        for &(i, desc) in &self.keys {
            o = self.tuple[i].total_cmp(&other.tuple[i]);
            if desc {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                break;
            }
        }
        o.then(self.run.cmp(&other.run)).then(self.seq.cmp(&other.seq)).reverse()
    }
}

struct MergeState {
    runs: Vec<Run>,
    heap: BinaryHeap<HeapEntry>,
    keys: Vec<(usize, bool)>,
    seq: usize,
}

impl ExternalSort {
    /// Sort `input` by `spec`, spilling sorted runs of `run_size` tuples
    /// to temporary files and merging them on demand.
    pub fn new(input: BoxCursor, spec: SortSpec, run_size: usize) -> Self {
        Self::with_opts(input, spec, run_size, ExecOpts::default())
    }

    /// Like [`ExternalSort::new`] with explicit execution knobs. With
    /// `workers > 1`, run chunks accumulate until the pool is full and are
    /// then sorted concurrently; spilling stays in input order so the run
    /// files (and all downstream results) are byte-identical to a
    /// sequential spill.
    pub fn with_opts(input: BoxCursor, spec: SortSpec, run_size: usize, opts: ExecOpts) -> Self {
        ExternalSort {
            input,
            spec,
            run_size: run_size.max(2),
            opts,
            merge: None,
            runs_spilled: 0,
            rows_spilled: 0,
            par: None,
        }
    }
}

impl Cursor for ExternalSort {
    fn schema(&self) -> &Arc<Schema> {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let spec = self.spec.clone();
        let schema = self.input.schema().clone();
        let keys = self.spec.resolve(self.input.schema());
        let dir = std::env::temp_dir();
        let workers = self.opts.workers.max(1);
        let mut runs: Vec<Run> = Vec::new();
        let mut par = ParStats::default();
        let mut pending: Vec<Vec<Tuple>> = Vec::new();
        let mut chunk: Vec<Tuple> = Vec::with_capacity(self.run_size);
        let flush = |pending: &mut Vec<Vec<Tuple>>,
                     runs: &mut Vec<Run>,
                     par: &mut ParStats|
         -> Result<()> {
            if pending.is_empty() {
                return Ok(());
            }
            let (spec, schema) = (&spec, &schema);
            let jobs: Vec<_> = std::mem::take(pending)
                .into_iter()
                .map(|mut c| {
                    move || {
                        sort_tuples(&mut c, spec, schema);
                        c
                    }
                })
                .collect();
            let (sorted, stats) = run_ordered(workers, jobs);
            par.absorb(&stats);
            for c in sorted {
                runs.push(spill_run(c, &dir)?);
            }
            Ok(())
        };
        while let Some(b) = self.input.next_batch(self.opts.batch_rows)? {
            for t in b.into_rows() {
                self.rows_spilled += 1;
                chunk.push(t);
                if chunk.len() >= self.run_size {
                    pending.push(std::mem::take(&mut chunk));
                    if pending.len() >= workers {
                        flush(&mut pending, &mut runs, &mut par)?;
                    }
                }
            }
        }
        if !chunk.is_empty() {
            pending.push(chunk);
        }
        flush(&mut pending, &mut runs, &mut par)?;
        if workers > 1 {
            self.par = Some(par);
        }
        self.runs_spilled = runs.len() as u64;
        let mut heap = BinaryHeap::with_capacity(runs.len());
        let mut seq = 0usize;
        for (i, run) in runs.iter_mut().enumerate() {
            if let Some(t) = run.next_tuple()? {
                heap.push(HeapEntry { tuple: t, run: i, seq, keys: keys.clone() });
                seq += 1;
            }
        }
        self.merge = Some(MergeState { runs, heap, keys, seq });
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        let m = self
            .merge
            .as_mut()
            .ok_or_else(|| ExecError::State("external sort not opened".into()))?;
        let max = max_rows.max(1);
        let mut rows = Vec::with_capacity(max.min(m.runs.len().max(1) * 16));
        while rows.len() < max {
            let Some(top) = m.heap.pop() else {
                break;
            };
            if let Some(t) = m.runs[top.run].next_tuple()? {
                m.heap.push(HeapEntry { tuple: t, run: top.run, seq: m.seq, keys: m.keys.clone() });
                m.seq += 1;
            }
            rows.push(top.tuple);
        }
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Batch::new(self.input.schema().clone(), rows)))
        }
    }

    fn close(&mut self) -> Result<()> {
        // Dropping the merge state deletes the spill files.
        self.merge = None;
        self.input.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out =
            vec![("runs_spilled", self.runs_spilled), ("rows_spilled", self.rows_spilled)];
        if let Some(par) = &self.par {
            out.extend(par.counters());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use proptest::prelude::*;
    use std::sync::Arc;
    use tango_algebra::{tup, Attr, Relation, Type, Value};

    fn rel(vals: Vec<(i64, i64)>) -> Relation {
        let s = Arc::new(Schema::new(vec![Attr::new("A", Type::Int), Attr::new("B", Type::Int)]));
        Relation::new(s, vals.into_iter().map(|(a, b)| tup![a, b]).collect())
    }

    #[test]
    fn in_memory_sort() {
        let r = rel(vec![(3, 1), (1, 2), (2, 0), (1, 1)]);
        let got = collect(Box::new(Sort::new(Box::new(VecScan::new(r)), SortSpec::by(["A", "B"]))))
            .unwrap();
        let keys: Vec<(i64, i64)> =
            got.tuples().iter().map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap())).collect();
        assert_eq!(keys, vec![(1, 1), (1, 2), (2, 0), (3, 1)]);
    }

    #[test]
    fn sort_is_stable() {
        // equal keys keep input order
        let s = Arc::new(Schema::new(vec![Attr::new("K", Type::Int), Attr::new("Tag", Type::Str)]));
        let r = Relation::new(s, vec![tup![1, "first"], tup![0, "x"], tup![1, "second"]]);
        let got =
            collect(Box::new(Sort::new(Box::new(VecScan::new(r)), SortSpec::by(["K"])))).unwrap();
        assert_eq!(got.tuples()[1][1], Value::Str("first".into()));
        assert_eq!(got.tuples()[2][1], Value::Str("second".into()));
    }

    #[test]
    fn parallel_sort_matches_sequential() {
        let mut x = 9u64;
        let vals: Vec<(i64, i64)> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((x >> 33) % 100) as i64, ((x >> 11) % 100) as i64)
            })
            .collect();
        let spec = SortSpec::by(["A", "B"]);
        let seq =
            collect(Box::new(Sort::new(Box::new(VecScan::new(rel(vals.clone()))), spec.clone())))
                .unwrap();
        for workers in [2, 8] {
            let opts = ExecOpts { workers, ..ExecOpts::default() };
            let par = collect(Box::new(Sort::with_opts(
                Box::new(VecScan::new(rel(vals.clone()))),
                spec.clone(),
                opts,
            )))
            .unwrap();
            assert!(seq.list_eq(&par), "parallel sort diverged at workers={workers}");
        }
    }

    proptest! {
        #[test]
        fn external_sort_matches_in_memory(vals in proptest::collection::vec((0i64..50, 0i64..50), 0..200), run in 2usize..40) {
            let spec = SortSpec::by(["A", "B"]);
            let mem = collect(Box::new(Sort::new(Box::new(VecScan::new(rel(vals.clone()))), spec.clone()))).unwrap();
            let ext = collect(Box::new(ExternalSort::new(Box::new(VecScan::new(rel(vals))), spec, run))).unwrap();
            prop_assert!(mem.list_eq(&ext), "external sort diverged from in-memory sort");
        }

        #[test]
        fn parallel_external_sort_matches(vals in proptest::collection::vec((0i64..50, 0i64..50), 0..300), run in 2usize..40) {
            let spec = SortSpec::by(["A", "B"]);
            let seq = collect(Box::new(ExternalSort::new(Box::new(VecScan::new(rel(vals.clone()))), spec.clone(), run))).unwrap();
            let opts = ExecOpts { workers: 4, ..ExecOpts::default() };
            let par = collect(Box::new(ExternalSort::with_opts(Box::new(VecScan::new(rel(vals))), spec, run, opts))).unwrap();
            prop_assert!(seq.list_eq(&par), "parallel external sort diverged");
        }
    }
}
