//! `SORT^M` — middleware sorting.
//!
//! Two implementations share the operator interface:
//!
//! * [`Sort`] materializes its input, columnarizes it, and sorts by
//!   permutation over flat key arrays (the default; the paper's prototype
//!   worked in memory and listed very-large-relation support as future
//!   work).
//! * [`ExternalSort`] is that future work: it spills sorted runs to
//!   temporary files using the binary tuple codec and k-way merges them,
//!   bounding memory by the run size.
//!
//! Both sorts are stable, so they refine any pre-existing order — a
//! property rule T12 (`sort_A(sort_B(r)) → sort_A(r)` when
//! `IsPrefixOf(B, A)`) depends on.

use crate::cursor::{drain_batches, BoxCursor, Cursor, ExecError, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tango_algebra::codec::{encode_tuple, Decoder};
use tango_algebra::{sort_tuples, Batch, BatchKeys, Schema, SortSpec, Tuple, DEFAULT_BATCH_ROWS};

/// In-memory sort: columnar permutation sort.
pub struct Sort {
    input: BoxCursor,
    spec: SortSpec,
    batch_rows: usize,
    sorted: Option<Batch>,
    pos: usize,
    buffered: u64,
}

impl Sort {
    /// Sort `input` by `spec` (stable; materializes at open).
    pub fn new(input: BoxCursor, spec: SortSpec) -> Self {
        Self::with_batch_rows(input, spec, DEFAULT_BATCH_ROWS)
    }

    /// Like [`Sort::new`], pulling its input `batch_rows` at a time.
    pub fn with_batch_rows(input: BoxCursor, spec: SortSpec, batch_rows: usize) -> Self {
        Sort { input, spec, batch_rows, sorted: None, pos: 0, buffered: 0 }
    }
}

impl Cursor for Sort {
    fn schema(&self) -> &Arc<Schema> {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let schema = self.input.schema().clone();
        let batches = drain_batches(self.input.as_mut(), self.batch_rows)?;
        let data = Batch::concat(schema.clone(), batches);
        self.buffered = data.len() as u64;
        self.pos = 0;
        let keys = BatchKeys::extract(&data, &self.spec, &schema);
        self.sorted = Some(if data.is_empty() || keys.is_empty() {
            data
        } else {
            data.gather(&keys.sort_range(0, data.len()))
        });
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
        vec![("rows_buffered", self.buffered)]
    }
}

/// External merge sort: sorted runs of at most `run_size` tuples are
/// spilled to temporary files and merged with a loser-tree (binary heap).
pub struct ExternalSort {
    input: BoxCursor,
    spec: SortSpec,
    run_size: usize,
    batch_rows: usize,
    merge: Option<MergeState>,
    runs_spilled: u64,
    rows_spilled: u64,
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

/// Sort one run and write it to a fresh spill file, leaving `chunk` empty.
fn spill_run(chunk: &mut Vec<Tuple>, spec: &SortSpec, schema: &Schema, dir: &Path) -> Result<Run> {
    sort_tuples(chunk, spec, schema);
    static RUN_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = RUN_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(format!("tango-sort-{}-{id}.run", std::process::id()));
    let file = File::create(&path).map_err(|e| ExecError::State(format!("spill create: {e}")))?;
    let mut w = BufWriter::new(file);
    let mut buf = Vec::new();
    for t in chunk.drain(..) {
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
        Self::with_batch_rows(input, spec, run_size, DEFAULT_BATCH_ROWS)
    }

    /// Like [`ExternalSort::new`], pulling its input `batch_rows` at a time.
    pub fn with_batch_rows(
        input: BoxCursor,
        spec: SortSpec,
        run_size: usize,
        batch_rows: usize,
    ) -> Self {
        ExternalSort {
            input,
            spec,
            run_size: run_size.max(2),
            batch_rows,
            merge: None,
            runs_spilled: 0,
            rows_spilled: 0,
        }
    }
}

impl Cursor for ExternalSort {
    fn schema(&self) -> &Arc<Schema> {
        self.input.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let schema = self.input.schema().clone();
        let keys = self.spec.resolve(&schema);
        let dir = std::env::temp_dir();
        let mut runs: Vec<Run> = Vec::new();
        let mut chunk: Vec<Tuple> = Vec::with_capacity(self.run_size);
        while let Some(b) = self.input.next_batch(self.batch_rows)? {
            for t in b.into_rows() {
                self.rows_spilled += 1;
                chunk.push(t);
                if chunk.len() >= self.run_size {
                    runs.push(spill_run(&mut chunk, &self.spec, &schema, &dir)?);
                }
            }
        }
        if !chunk.is_empty() {
            runs.push(spill_run(&mut chunk, &self.spec, &schema, &dir)?);
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
        vec![("runs_spilled", self.runs_spilled), ("rows_spilled", self.rows_spilled)]
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

    proptest! {
        #[test]
        fn external_sort_matches_in_memory(vals in proptest::collection::vec((0i64..50, 0i64..50), 0..200), run in 2usize..40) {
            let spec = SortSpec::by(["A", "B"]);
            let mem = collect(Box::new(Sort::new(Box::new(VecScan::new(rel(vals.clone()))), spec.clone()))).unwrap();
            let ext = collect(Box::new(ExternalSort::new(Box::new(VecScan::new(rel(vals))), spec, run))).unwrap();
            prop_assert!(mem.list_eq(&ext), "external sort diverged from in-memory sort");
        }
    }
}
