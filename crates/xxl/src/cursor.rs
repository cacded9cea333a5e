//! The cursor (iterator) abstraction.
//!
//! Mirrors the `ResultSet` interface of the paper's Execution Engine
//! (Figure 2): `init()` / `getNext()` become [`Cursor::open`] /
//! [`Cursor::next_batch`] — one pull method, whose row target makes
//! row-at-a-time execution the `max_rows = 1` case rather than a second
//! protocol. Opening may do real work — e.g. a sort materializes its
//! input, and the `TRANSFER^D` algorithm in `tango-core` copies its
//! whole argument into the DBMS during `open`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use tango_algebra::{
    AlgebraError, Batch, Column, Period, Relation, Schema, Tuple, Value, DEFAULT_BATCH_ROWS,
};

/// Errors raised during pipelined execution.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// Schema or expression-evaluation failures from `tango-algebra`.
    Algebra(AlgebraError),
    /// Failures from the underlying DBMS (bubbled up by transfer cursors).
    Dbms(String),
    /// A classified wire failure from the DBMS link (bubbled up by
    /// transfer cursors after the connection's retry budget is spent).
    /// `fatal`/`timeout` preserve the `tango-minidb` error taxonomy so
    /// the engine's degradation logic can branch without string
    /// matching.
    Wire {
        /// Retrying or re-planning cannot help.
        fatal: bool,
        /// The statement's time budget was exceeded.
        timeout: bool,
        /// Driver-style error text.
        msg: String,
    },
    /// Protocol violations (e.g. `next_batch` before `open`) or bad input
    /// order/shape detected at runtime.
    State(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Algebra(e) => write!(f, "{e}"),
            ExecError::Dbms(m) => write!(f, "dbms error: {m}"),
            ExecError::Wire { fatal, timeout, msg } => {
                let class = if *fatal {
                    "fatal"
                } else if *timeout {
                    "timeout"
                } else {
                    "transient"
                };
                write!(f, "wire error ({class}): {msg}")
            }
            ExecError::State(m) => write!(f, "cursor state error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<AlgebraError> for ExecError {
    fn from(e: AlgebraError) -> Self {
        ExecError::Algebra(e)
    }
}

/// Result alias for cursor operations.
pub type Result<T> = std::result::Result<T, ExecError>;

/// A pipelined tuple stream.
pub trait Cursor: Send {
    /// The schema of the tuples this cursor produces. Must be available
    /// before `open`.
    fn schema(&self) -> &Arc<Schema>;

    /// Prepare the cursor (bind expressions, materialize inputs where the
    /// algorithm requires it). Must be called exactly once before
    /// `next_batch`.
    fn open(&mut self) -> Result<()>;

    /// Produce the next batch of up to `max_rows` tuples (at least one is
    /// always allowed), or `None` at end of stream — never an empty
    /// batch. Batches may come back smaller than `max_rows` (a filter
    /// passes on what survived, wire cursors return prefetch-aligned
    /// batches).
    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>>;

    /// Release resources held by the cursor (spill files, buffered
    /// state) and propagate to the inputs. Called once after the stream
    /// is drained; the default does nothing.
    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    /// Algorithm-specific counters (spilled runs, buffered groups, rows
    /// dropped, …), sampled by the tracing layer just before [`close`]
    /// (`Cursor::close`). The default reports none.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// An owned, dynamically-typed cursor — how operators hold their inputs.
pub type BoxCursor = Box<dyn Cursor>;

/// Run a cursor from `open` to `close` into a materialized [`Relation`],
/// pulling [`DEFAULT_BATCH_ROWS`] at a time.
pub fn collect(mut c: BoxCursor) -> Result<Relation> {
    c.open()?;
    let schema = c.schema().clone();
    let tuples = drain_of(c.as_mut(), DEFAULT_BATCH_ROWS)?;
    c.close()?;
    Ok(Relation::new(schema, tuples))
}

/// Drain an already-open cursor, pulling `rows` tuples at a time.
pub fn drain_of(c: &mut dyn Cursor, rows: usize) -> Result<Vec<Tuple>> {
    let mut tuples = Vec::new();
    while let Some(b) = c.next_batch(rows)? {
        tuples.extend(b.into_rows());
    }
    Ok(tuples)
}

/// Drain an already-open cursor into whole batches, each in the layout
/// it arrived in (no materialization) — for pipeline breakers that
/// columnarize their input, and for the engine staging one.
pub fn drain_batches(c: &mut dyn Cursor, rows: usize) -> Result<Vec<Batch>> {
    let mut out = Vec::new();
    while let Some(b) = c.next_batch(rows)? {
        out.push(b);
    }
    Ok(out)
}

/// The batch pull of every cursor whose logic is row-at-a-time
/// (coalescing, nested loop, wire fetches): call its row `step` until
/// `max_rows` tuples are gathered or the stream ends.
pub fn fill_batch(
    schema: Arc<Schema>,
    max_rows: usize,
    mut step: impl FnMut() -> Result<Option<Tuple>>,
) -> Result<Option<Batch>> {
    let max = max_rows.max(1);
    let mut rows = Vec::with_capacity(max.min(DEFAULT_BATCH_ROWS));
    while rows.len() < max {
        match step()? {
            Some(t) => rows.push(t),
            None => break,
        }
    }
    Ok((!rows.is_empty()).then(|| Batch::new(schema, rows)))
}

/// The valid-time period `t` carries in columns `(t1, t2)`; `None` when
/// an endpoint is NULL or the period is empty. Such a row holds at no
/// time point, so coalescing reads its input through this and lets the
/// row merge nothing (the sort-merge family and `TAGGR^M` apply the same
/// rule to endpoint columns flattened by [`day_col`]).
pub(crate) fn read_period(t: &Tuple, (t1, t2): (usize, usize)) -> Option<Period> {
    let p = Period::new(t[t1].as_day()?, t[t2].as_day()?);
    p.is_valid().then_some(p)
}

/// Sentinel for "no valid day" in flattened period-endpoint arrays (no
/// valid day is ever `i64::MIN`; days fit in `i32`).
pub(crate) const NO_DAY: i64 = i64::MIN;

/// Flatten a period-endpoint column to `i64` days, batch-relative
/// ([`NO_DAY`] for rows with no valid day: nulls, non-numeric values,
/// ints outside `i32`) — [`read_period`]'s reading, once per batch.
pub(crate) fn day_col(data: &Batch, col: usize) -> Vec<i64> {
    if let Some((cols, offset, len)) = data.columns() {
        if let Column::Int { vals, valid } | Column::Date { vals, valid } = &cols[col] {
            let day = |r: usize| valid.as_ref().is_none_or(|b| b.get(r)).then_some(vals[r]);
            let day = |r| day(r).filter(|&v| i32::try_from(v).is_ok()).unwrap_or(NO_DAY);
            return (offset..offset + len).map(day).collect();
        }
    }
    (0..data.len()).map(|r| data.value_at(r, col).as_day().map_or(NO_DAY, i64::from)).collect()
}

/// The `(T1, T2)` values that spell `p` in an output row: dates when the
/// period attributes are `date_typed`, integers otherwise.
pub(crate) fn period_values(date_typed: bool, p: Period) -> (Value, Value) {
    if date_typed {
        (Value::Date(p.start), Value::Date(p.end))
    } else {
        (Value::Int(p.start as i64), Value::Int(p.end as i64))
    }
}

/// Buffers an input cursor batch-at-a-time while exposing a cheap
/// per-row [`BatchBuffered::next`]. The row-logic operators (coalescing,
/// the nested loop) hold their inputs in this adapter: their logic stays
/// row-oriented, but each underlying (possibly traced, possibly remote)
/// cursor is only dispatched once per batch.
pub(crate) struct BatchBuffered {
    inner: BoxCursor,
    buf: VecDeque<Tuple>,
    done: bool,
    rows: usize,
}

impl BatchBuffered {
    /// Wrap `inner`, refilling `rows` tuples at a time; rows are pulled
    /// through the wrapper from `open` on.
    pub(crate) fn with_rows(inner: BoxCursor, rows: usize) -> Self {
        BatchBuffered { inner, buf: VecDeque::new(), done: false, rows: rows.max(1) }
    }

    /// The wrapped cursor's schema.
    pub(crate) fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    /// Open the wrapped cursor.
    pub(crate) fn open(&mut self) -> Result<()> {
        self.buf.clear();
        self.done = false;
        self.inner.open()
    }

    /// Next row: pops the buffer, refilling it one batch at a time
    /// (fallible and lifecycle-bound, which `Iterator` cannot express).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub(crate) fn next(&mut self) -> Result<Option<Tuple>> {
        if let Some(t) = self.buf.pop_front() {
            return Ok(Some(t));
        }
        self.refill()
    }

    fn refill(&mut self) -> Result<Option<Tuple>> {
        if self.done {
            return Ok(None);
        }
        match self.inner.next_batch(self.rows)? {
            Some(b) => {
                self.buf.extend(b.into_rows());
                Ok(self.buf.pop_front())
            }
            None => {
                self.done = true;
                Ok(None)
            }
        }
    }

    /// Close the wrapped cursor.
    pub(crate) fn close(&mut self) -> Result<()> {
        self.buf.clear();
        self.inner.close()
    }
}
