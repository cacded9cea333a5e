//! `MERGEJOIN^M` — sort-merge equi join — and the one sort-merge sweep of
//! this crate.
//!
//! The paper implements both regular and temporal joins in the middleware
//! as sort-merge joins (Section 4.1, rules T2/T3); inputs must be sorted
//! on their join attributes. The output is ordered by the left input's
//! join attributes, which is why the optimizer can sometimes skip a final
//! sort.
//!
//! The sweep is written once, over columns: [`KeyGroups`] reads a
//! key-sorted input as runs of consecutive equal-key rows of its columnar
//! batches, comparing keys on the typed key columns; [`SortMerge`] aligns
//! two of them, records left-row major the (left row, right row)
//! references of each matched pair of groups — every pair here, the pairs
//! whose periods overlap in [`crate::temporal_join`] — and gathers each
//! output column from those references a batch at a time. `TDIFF^M`
//! probes its right side through the same [`KeyGroups::seek`].

use crate::cursor::{day_col, BoxCursor, Cursor, ExecError, Result, NO_DAY};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use tango_algebra::logical::concat_schemas;
use tango_algebra::{Batch, Bitmap, Column, Schema, DEFAULT_BATCH_ROWS};

/// One input batch as the sweeps read it: columnar (a row batch is
/// columnarized once, on arrival), with a temporal input's period
/// endpoints flattened to days once.
pub(crate) struct Held {
    batch: Batch,
    /// `(T1, T2)` of each row as days, batch-relative ([`NO_DAY`] where an
    /// endpoint is none); `None` for an input read without its period.
    days: Option<(Vec<i64>, Vec<i64>)>,
}

impl Held {
    /// Hold `batch`, flattening the endpoints of `period` if given.
    pub(crate) fn new(batch: Batch, period: Option<(usize, usize)>) -> Arc<Held> {
        let batch = batch.columnarize();
        let days = period.map(|(t1, t2)| (day_col(&batch, t1), day_col(&batch, t2)));
        Arc::new(Held { batch, days })
    }

    pub(crate) fn len(&self) -> usize {
        self.batch.len()
    }

    /// The batch's columns; row `i` is at index [`Held::abs`]`(i)`.
    pub(crate) fn cols(&self) -> &[Column] {
        self.batch.columns().map_or(&[], |(cols, _, _)| cols)
    }

    /// The column index of batch row `i`.
    pub(crate) fn abs(&self, i: usize) -> u32 {
        (self.batch.columns().map_or(0, |(_, offset, _)| offset) + i) as u32
    }

    /// Row `i`'s period as `(start, end)` days: `None` when an endpoint is
    /// NULL or no day, or the period is empty — such a row holds at no
    /// time point.
    pub(crate) fn period(&self, i: usize) -> Option<(i64, i64)> {
        let (t1, t2) = self.days.as_ref()?;
        let (s, e) = (t1[i], t2[i]);
        (s != NO_DAY && e != NO_DAY && s < e).then_some((s, e))
    }
}

/// Compare row `i` of `a` with row `j` of `b` (column indices) as
/// `Value::total_cmp` orders their values — NULL first and equal to
/// NULL, doubles by their bits' total order, an `Int` and a `Double` as
/// numbers — reading `Int` / `Date`, `Double` and string columns in place.
fn cell_cmp(a: &Column, i: usize, b: &Column, j: usize) -> Ordering {
    fn valid(v: &Option<Arc<Bitmap>>, i: usize) -> bool {
        v.as_ref().is_none_or(|b| b.get(i))
    }
    match (a, b) {
        (
            Column::Int { vals: x, valid: vx } | Column::Date { vals: x, valid: vx },
            Column::Int { vals: y, valid: vy } | Column::Date { vals: y, valid: vy },
        ) => match (valid(vx, i), valid(vy, j)) {
            (true, true) => x[i].cmp(&y[j]),
            (p, q) => p.cmp(&q),
        },
        (Column::Double { vals: x, valid: vx }, Column::Double { vals: y, valid: vy }) => {
            match (valid(vx, i), valid(vy, j)) {
                (true, true) => x[i].total_cmp(&y[j]),
                (p, q) => p.cmp(&q),
            }
        }
        (
            Column::Str { codes: x, dict: dx, valid: vx },
            Column::Str { codes: y, dict: dy, valid: vy },
        ) => match (valid(vx, i), valid(vy, j)) {
            (true, true) if Arc::ptr_eq(dx, dy) && x[i] == y[j] => Ordering::Equal,
            (true, true) => dx[x[i] as usize].cmp(&dy[y[j] as usize]),
            (p, q) => p.cmp(&q),
        },
        _ => a.value_at(i).total_cmp(&b.value_at(j)),
    }
}

/// Compare batch row `i` of `a` on `akeys` with batch row `j` of `b` on
/// `bkeys`, attribute by attribute.
fn key_cmp(a: &Held, i: usize, akeys: &[usize], b: &Held, j: usize, bkeys: &[usize]) -> Ordering {
    let (ac, bc, ai, bj) = (a.cols(), b.cols(), a.abs(i) as usize, b.abs(j) as usize);
    for (&ka, &kb) in akeys.iter().zip(bkeys) {
        let o = cell_cmp(&ac[ka], ai, &bc[kb], bj);
        if o.is_ne() {
            return o;
        }
    }
    Ordering::Equal
}

/// The next non-empty batch of `input`, pulled `rows` at a time and held
/// with the endpoints of `period` flattened; `None` at end of input.
pub(crate) fn pull(
    input: &mut BoxCursor,
    rows: usize,
    period: Option<(usize, usize)>,
) -> Result<Option<Arc<Held>>> {
    while let Some(b) = input.next_batch(rows)? {
        if !b.is_empty() {
            return Ok(Some(Held::new(b, period)));
        }
    }
    Ok(None)
}

/// A run of consecutive equal-key rows: batch rows `rows` of `held`.
pub(crate) struct Group {
    pub(crate) held: Arc<Held>,
    pub(crate) rows: Range<usize>,
}

/// A key-sorted input read as runs of consecutive equal-key rows: at most
/// one run is buffered, and the batch holding the first row behind it
/// (none exactly at end of input). A run that spans batches is copied
/// into a batch of its own; any other is referenced where it arrived.
pub(crate) struct KeyGroups {
    input: BoxCursor,
    /// Rows per pull.
    rows: usize,
    keys: Vec<usize>,
    period: Option<(usize, usize)>,
    /// The batch being read, and its first unread row; `None` once the
    /// input is exhausted.
    buf: Option<Arc<Held>>,
    pos: usize,
    group: Option<Group>,
}

impl KeyGroups {
    /// Read `input`, `batch_rows` at a time, in runs of equal `keys`,
    /// flattening the endpoints of `period` if given.
    pub(crate) fn new(
        input: BoxCursor,
        keys: Vec<usize>,
        period: Option<(usize, usize)>,
        batch_rows: usize,
    ) -> Self {
        let rows = batch_rows.max(1);
        KeyGroups { input, rows, keys, period, buf: None, pos: 0, group: None }
    }

    /// Open the input and read its first batch.
    pub(crate) fn open(&mut self) -> Result<()> {
        self.group = None;
        self.input.open()?;
        self.pull()
    }

    /// Read the next non-empty batch into `buf` (`None` at end of input).
    fn pull(&mut self) -> Result<()> {
        (self.buf, self.pos) = (pull(&mut self.input, self.rows, self.period)?, 0);
        Ok(())
    }

    /// The buffered group; `None` before the first match, once spent and
    /// at end of input.
    pub(crate) fn group(&self) -> Option<&Group> {
        self.group.as_ref()
    }

    /// Buffer the next group, whatever its key; `false` at end of input.
    pub(crate) fn advance(&mut self) -> Result<bool> {
        self.group = None;
        let Some(buf) = self.buf.clone() else {
            return Ok(false);
        };
        let (keys, start) = (&self.keys, self.pos);
        let same = |b: &Held, j: usize| key_cmp(&buf, start, keys, b, j, keys).is_eq();
        let mut end = start + 1;
        while end < buf.len() && same(&buf, end) {
            end += 1;
        }
        self.pos = end;
        if end == buf.len() {
            // the run may go on in the batches behind this one
            let mut pieces = vec![buf.batch.slice(start, end - start)];
            self.buf = pull(&mut self.input, self.rows, self.period)?;
            self.pos = 0;
            while let Some(next) = &self.buf {
                let k = (0..next.len()).find(|&j| !same(next, j)).unwrap_or(next.len());
                if k > 0 {
                    pieces.push(next.batch.slice(0, k));
                }
                if k < next.len() {
                    self.pos = k;
                    break;
                }
                self.buf = pull(&mut self.input, self.rows, self.period)?;
            }
            if pieces.len() > 1 {
                let run = Batch::concat(buf.batch.schema().clone(), pieces);
                let rows = 0..run.len();
                self.group = Some(Group { held: Held::new(run, self.period), rows });
                return Ok(true);
            }
        }
        self.group = Some(Group { held: buf, rows: start..end });
        Ok(true)
    }

    /// Position on the group whose key equals that of batch row `i` of
    /// `probe` (read through `probe_keys`) and say whether there is one.
    /// Probes must arrive in key order: groups ordering before the probe
    /// are dropped unread, an equal one is buffered once and replayed for
    /// equal probes, and one ordering after it stays unread for later
    /// probes.
    pub(crate) fn seek(&mut self, probe: &Held, i: usize, probe_keys: &[usize]) -> Result<bool> {
        if let Some(g) = &self.group {
            if key_cmp(probe, i, probe_keys, &g.held, g.rows.start, &self.keys).is_eq() {
                return Ok(true);
            }
            self.group = None;
        }
        while let Some(buf) = &self.buf {
            let last = self.pos + 1 == buf.len();
            match key_cmp(probe, i, probe_keys, buf, self.pos, &self.keys) {
                Ordering::Less => break,
                Ordering::Equal => return self.advance(),
                Ordering::Greater if last => self.pull()?,
                Ordering::Greater => self.pos += 1,
            }
        }
        Ok(false)
    }

    /// Drop the buffered group: no later probe can equal its key.
    pub(crate) fn spend(&mut self) {
        self.group = None;
    }

    /// Nothing buffered and nothing left to read.
    pub(crate) fn at_end(&self) -> bool {
        self.group.is_none() && self.buf.is_none()
    }

    pub(crate) fn close(&mut self) -> Result<()> {
        (self.group, self.buf) = (None, None);
        self.input.close()
    }
}

/// Resolve the `eq` attribute pairs of a join named `what` to (left,
/// right) key indices.
pub(crate) fn resolve_keys(
    what: &str,
    left: &Schema,
    right: &Schema,
    eq: &[(String, String)],
) -> Result<(Vec<usize>, Vec<usize>)> {
    if eq.is_empty() {
        return Err(ExecError::State(format!("{what} requires at least one key")));
    }
    let mut keys = (Vec::with_capacity(eq.len()), Vec::with_capacity(eq.len()));
    for (l, r) in eq {
        keys.0.push(left.index_of(l)?);
        keys.1.push(right.index_of(r)?);
    }
    Ok(keys)
}

/// What a sort-merge join makes of its key-matched pairs.
pub(crate) struct Emit {
    /// Name of the operator, for error messages.
    pub(crate) name: &'static str,
    /// Name of the matched-key-groups counter.
    pub(crate) groups: &'static str,
    /// Left and right columns copied to the output, in order.
    pub(crate) lkeep: Vec<usize>,
    pub(crate) rkeep: Vec<usize>,
    /// A temporal join's periods: a pair joins only if its periods
    /// overlap, and the output ends with their intersection. `None`: every
    /// key-matched pair joins.
    pub(crate) periods: Option<Periods>,
}

/// A temporal join's period attributes, and whether the intersection it
/// writes is typed as dates.
#[derive(Clone, Copy)]
pub(crate) struct Periods {
    pub(crate) left: (usize, usize),
    pub(crate) right: (usize, usize),
    pub(crate) dates: bool,
}

/// Matched pairs not yet emitted: rows (column indices) of one left and
/// one right batch and, for a temporal join, each pair's intersected
/// period.
#[derive(Default)]
struct Pairs {
    src: Option<(Arc<Held>, Arc<Held>)>,
    left: Vec<u32>,
    right: Vec<u32>,
    t1: Vec<i64>,
    t2: Vec<i64>,
}

impl Pairs {
    /// Whether the pairs so far reference `l` and `r`.
    fn of(&self, l: &Arc<Held>, r: &Arc<Held>) -> bool {
        self.src.as_ref().is_some_and(|(sl, sr)| Arc::ptr_eq(sl, l) && Arc::ptr_eq(sr, r))
    }

    /// The output batch of the pairs so far, each column gathered once;
    /// `None` if there are none.
    fn flush(&mut self, emit: &Emit, schema: &Arc<Schema>) -> Option<Batch> {
        let (l, r) = self.src.as_ref().filter(|_| !self.left.is_empty())?;
        let (lc, rc) = (l.cols(), r.cols());
        let mut cols: Vec<Column> = emit.lkeep.iter().map(|&c| lc[c].gather(&self.left)).collect();
        cols.extend(emit.rkeep.iter().map(|&c| rc[c].gather(&self.right)));
        if let Some(periods) = emit.periods {
            for vals in [std::mem::take(&mut self.t1), std::mem::take(&mut self.t2)] {
                let (vals, valid) = (Arc::new(vals), None);
                cols.push(match periods.dates {
                    true => Column::Date { vals, valid },
                    false => Column::Int { vals, valid },
                });
            }
        }
        self.left.clear();
        self.right.clear();
        Some(Batch::from_columns(schema.clone(), cols))
    }
}

/// The sort-merge join: aligns the key groups of two key-sorted inputs
/// and emits the joining (left row, right row) pairs of each matched pair
/// of groups, left-row major — so the output is ordered like the left
/// input. An output batch holds pairs of one left and one right input
/// batch, so it may end short of the rows asked for where a group of
/// another batch begins.
pub(crate) struct SortMerge {
    left: KeyGroups,
    right: KeyGroups,
    emit: Emit,
    schema: Arc<Schema>,
    /// Next pair to consider within (left group × right group).
    at: (usize, usize),
    out: Pairs,
    opened: bool,
    groups: u64,
}

impl SortMerge {
    pub(crate) fn new(
        left: BoxCursor,
        right: BoxCursor,
        (lkeys, rkeys): (Vec<usize>, Vec<usize>),
        emit: Emit,
        schema: Arc<Schema>,
        batch_rows: usize,
    ) -> Self {
        let (lp, rp) = emit.periods.map_or((None, None), |p| (Some(p.left), Some(p.right)));
        SortMerge {
            left: KeyGroups::new(left, lkeys, lp, batch_rows),
            right: KeyGroups::new(right, rkeys, rp, batch_rows),
            emit,
            schema,
            at: (0, 0),
            out: Pairs::default(),
            opened: false,
            groups: 0,
        }
    }
}

impl Cursor for SortMerge {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        (self.at, self.out) = ((0, 0), Pairs::default());
        self.left.open()?;
        self.right.open()?;
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        if !self.opened {
            return Err(ExecError::State(format!("{} not opened", self.emit.name)));
        }
        let max = max_rows.max(1);
        loop {
            // Record the remaining pairs of the matched groups.
            if let (Some(lg), Some(rg)) = (self.left.group(), self.right.group()) {
                if !self.out.of(&lg.held, &rg.held) {
                    if !self.out.left.is_empty() {
                        return Ok(self.out.flush(&self.emit, &self.schema));
                    }
                    self.out.src = Some((lg.held.clone(), rg.held.clone()));
                }
                while self.at.0 < lg.rows.len() {
                    let i = lg.rows.start + self.at.0;
                    let lp = match self.emit.periods {
                        Some(_) => match lg.held.period(i) {
                            Some(p) => Some(p),
                            None => {
                                self.at = (self.at.0 + 1, 0);
                                continue;
                            }
                        },
                        None => None,
                    };
                    while self.at.1 < rg.rows.len() {
                        if self.out.left.len() == max {
                            return Ok(self.out.flush(&self.emit, &self.schema));
                        }
                        let j = rg.rows.start + self.at.1;
                        self.at.1 += 1;
                        if let Some((ls, le)) = lp {
                            let Some((rs, re)) = rg.held.period(j) else { continue };
                            let (s, e) = (ls.max(rs), le.min(re));
                            if s >= e {
                                continue;
                            }
                            self.out.t1.push(s);
                            self.out.t2.push(e);
                        }
                        self.out.left.push(lg.held.abs(i));
                        self.out.right.push(rg.held.abs(j));
                    }
                    self.at = (self.at.0 + 1, 0);
                }
            }
            // Left keys are distinct from group to group, so a right
            // group matches once.
            self.right.spend();
            self.at = (0, 0);
            // Align on the next common key. The right side's end is
            // checked first: once it is reached no left group is read.
            loop {
                if self.right.at_end() || !self.left.advance()? {
                    return Ok(self.out.flush(&self.emit, &self.schema));
                }
                let Some(lg) = self.left.group() else { continue };
                if self.right.seek(&lg.held, lg.rows.start, &self.left.keys)? {
                    break;
                }
            }
            self.groups += 1;
        }
    }

    fn close(&mut self) -> Result<()> {
        self.opened = false;
        self.out = Pairs::default();
        self.left.close()?;
        self.right.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![(self.emit.groups, self.groups)]
    }
}

/// Forward [`Cursor`] from a public join to the [`SortMerge`] it wraps.
macro_rules! sort_merge_cursor {
    ($join:ty) => {
        impl Cursor for $join {
            fn schema(&self) -> &Arc<Schema> {
                self.0.schema()
            }
            fn open(&mut self) -> Result<()> {
                self.0.open()
            }
            fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
                self.0.next_batch(max_rows)
            }
            fn close(&mut self) -> Result<()> {
                self.0.close()
            }
            fn counters(&self) -> Vec<(&'static str, u64)> {
                self.0.counters()
            }
        }
    };
}
pub(crate) use sort_merge_cursor;

/// The `MERGEJOIN^M` cursor: sort-merge equi join over inputs sorted on
/// the join attributes; output ordered by the left input, each row the
/// left row's attributes followed by the right row's.
pub struct MergeJoin(SortMerge);

impl MergeJoin {
    /// Join `left` and `right` on the `eq` attribute pairs; both inputs
    /// must be sorted on those attributes.
    pub fn new(left: BoxCursor, right: BoxCursor, eq: &[(String, String)]) -> Result<Self> {
        Self::with_batch_rows(left, right, eq, DEFAULT_BATCH_ROWS)
    }

    /// Like [`MergeJoin::new`], pulling its inputs `batch_rows` at a time.
    pub fn with_batch_rows(
        left: BoxCursor,
        right: BoxCursor,
        eq: &[(String, String)],
        batch_rows: usize,
    ) -> Result<Self> {
        let name = "merge join";
        let keys = resolve_keys(name, left.schema(), right.schema(), eq)?;
        let schema = Arc::new(concat_schemas(left.schema(), right.schema()));
        let emit = Emit {
            name,
            groups: "right_groups",
            lkeep: (0..left.schema().len()).collect(),
            rkeep: (0..right.schema().len()).collect(),
            periods: None,
        };
        Ok(MergeJoin(SortMerge::new(left, right, keys, emit, schema, batch_rows)))
    }
}

sort_merge_cursor!(MergeJoin);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use crate::testutil::counting_scan;
    use proptest::prelude::*;
    use tango_algebra::date::Day;
    use tango_algebra::{tup, Attr, Period, Relation, SortSpec, Tuple, Type, Value};

    fn rel(name_a: &str, name_b: &str, vals: Vec<(i64, i64)>) -> Relation {
        let s =
            Arc::new(Schema::new(vec![Attr::new(name_a, Type::Int), Attr::new(name_b, Type::Int)]));
        Relation::new(s, vals.into_iter().map(|(a, b)| tup![a, b]).collect())
    }

    fn join_pairs(l: Vec<(i64, i64)>, r: Vec<(i64, i64)>) -> Vec<Vec<i64>> {
        let mut lr = rel("K", "X", l);
        let mut rr = rel("K2", "Y", r);
        lr.sort_by(&SortSpec::by(["K"]));
        rr.sort_by(&SortSpec::by(["K2"]));
        let mj = MergeJoin::new(
            Box::new(VecScan::new(lr)),
            Box::new(VecScan::new(rr)),
            &[("K".to_string(), "K2".to_string())],
        )
        .unwrap();
        collect(Box::new(mj))
            .unwrap()
            .tuples()
            .iter()
            .map(|t| t.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect()
    }

    #[test]
    fn basic_join() {
        let got = join_pairs(vec![(1, 10), (2, 20), (4, 40)], vec![(2, 200), (2, 201), (3, 300)]);
        assert_eq!(got, vec![vec![2, 20, 2, 200], vec![2, 20, 2, 201]]);
    }

    #[test]
    fn duplicate_left_keys_replay_group() {
        let got = join_pairs(vec![(1, 10), (1, 11)], vec![(1, 100), (1, 101)]);
        assert_eq!(got.len(), 4);
    }

    fn key_groups(keys: &[i64]) -> KeyGroups {
        let r = rel("K", "X", keys.iter().map(|&k| (k, 0)).collect());
        let mut g = KeyGroups::new(Box::new(VecScan::new(r)), vec![0], None, 2);
        g.open().unwrap();
        g
    }

    /// A one-row batch holding key `k`, to probe with.
    fn probe(k: i64) -> Arc<Held> {
        let s = Arc::new(Schema::new(vec![Attr::new("P", Type::Int)]));
        Held::new(Batch::new(s, vec![tup![k]]), None)
    }

    fn seek(g: &mut KeyGroups, k: i64) -> bool {
        g.seek(&probe(k), 0, &[0]).unwrap()
    }

    /// The buffered group's rows.
    fn rows(g: &KeyGroups) -> Vec<Tuple> {
        g.group().map_or(Vec::new(), |g| g.rows.clone().map(|i| g.held.batch.tuple_at(i)).collect())
    }

    #[test]
    fn seek_keeps_a_group_that_orders_after_the_probe() {
        let mut g = key_groups(&[1, 3, 3]);
        assert!(!seek(&mut g, 2), "1 is dropped, 3 is not a match");
        assert!(g.group().is_none() && !g.at_end());
        assert!(seek(&mut g, 3), "3 was kept for the later probe");
        assert_eq!(rows(&g).len(), 2);
    }

    #[test]
    fn seek_replays_one_group_for_equal_consecutive_probes() {
        let mut g = key_groups(&[1, 1, 2]);
        assert!(seek(&mut g, 1));
        assert!(seek(&mut g, 1), "the buffered group serves the equal probe");
        assert_eq!(rows(&g), [tup![1, 0], tup![1, 0]]);
        assert!(seek(&mut g, 2));
        assert_eq!(rows(&g), [tup![2, 0]]);
    }

    #[test]
    fn seek_is_stable_at_end_of_input() {
        let mut g = key_groups(&[1]);
        for _ in 0..2 {
            assert!(!seek(&mut g, 9));
            assert!(g.at_end() && g.group().is_none());
        }
        assert!(!g.advance().unwrap());
        g.spend();
        assert!(g.at_end());
    }

    /// A group that spans batches (pulled two rows at a time) is read
    /// whole, and the rows behind it stay readable.
    #[test]
    fn a_group_spanning_batches_is_kept_whole() {
        let mut g = key_groups(&[1, 2, 2, 2, 2, 2, 3]);
        assert!(g.advance().unwrap());
        assert_eq!(rows(&g), [tup![1, 0]]);
        assert!(g.advance().unwrap());
        assert_eq!(rows(&g), vec![tup![2, 0]; 5]);
        assert!(g.advance().unwrap());
        assert_eq!(rows(&g), [tup![3, 0]]);
        assert!(!g.advance().unwrap() && g.at_end());
    }

    /// Once the right input has ended no further left group is read:
    /// the first left batch is pulled at `open`, the second closes the
    /// key-1 group, the other two stay unread.
    #[test]
    fn right_input_ending_first_pulls_no_further_left_batch() {
        let (left, pulls) = counting_scan(rel("K", "X", (2..10).map(|i| (i / 2, i)).collect()));
        let right = Box::new(VecScan::new(rel("K2", "Y", vec![(1, 0)])));
        let mj = MergeJoin::with_batch_rows(left, right, &[("K".into(), "K2".into())], 2).unwrap();
        assert_eq!(collect(Box::new(mj)).unwrap().len(), 2);
        assert_eq!(pulls.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    /// The key layouts the family property draws, each side's value of
    /// draw `k` (`None` = NULL) and attribute type.
    #[derive(Debug, Clone, Copy)]
    enum KeyKind {
        Int,
        Date,
        /// `-0.0` and `0.0` are distinct keys
        Double,
        Str,
        /// ints and doubles in one column on both sides (`Column::Mixed`)
        Mixed,
        /// ints on the left, equal doubles (and `-0.0`) on the right
        IntVsDouble,
        /// ints on the left, dates on the right
        IntVsDate,
    }

    impl KeyKind {
        fn value(self, right: bool, k: Option<i64>, bit: bool) -> Value {
            let Some(k) = k else { return Value::Null };
            match self {
                KeyKind::Int => Value::Int(k),
                KeyKind::Date => Value::Date(k as Day),
                KeyKind::Double => Value::Double([-0.0, 0.0, 1.5, 2.0][k as usize]),
                KeyKind::Str => Value::Str(["", "a", "ab", "b"][k as usize].into()),
                KeyKind::Mixed if bit => Value::Int(k),
                KeyKind::Mixed => Value::Double(k as f64),
                KeyKind::IntVsDouble if !right => Value::Int(k),
                KeyKind::IntVsDouble => Value::Double(if k == 0 && bit { -0.0 } else { k as f64 }),
                KeyKind::IntVsDate if !right => Value::Int(k),
                KeyKind::IntVsDate => Value::Date(k as Day),
            }
        }

        fn ty(self, right: bool) -> Type {
            match (self, right) {
                (KeyKind::Int, _) | (KeyKind::IntVsDouble | KeyKind::IntVsDate, false) => Type::Int,
                (KeyKind::Date, _) | (KeyKind::IntVsDate, true) => Type::Date,
                (KeyKind::Double | KeyKind::Mixed, _) | (KeyKind::IntVsDouble, true) => {
                    Type::Double
                }
                (KeyKind::Str, _) => Type::Str,
            }
        }
    }

    /// One drawn row: two key draws (-1 = NULL), a bit, a payload, and
    /// `T1` (-1 = NULL) with a length (0 empty, negative inverted, 5 a
    /// NULL `T2`).
    type Draw = (i64, i64, u8, i64, i64, i64);

    fn drawn_rows(draws: &[Draw], kinds: [KeyKind; 2], right: bool, dates: bool) -> Vec<Tuple> {
        let day = |d: i64| if dates { Value::Date(d as Day) } else { Value::Int(d) };
        let key = |kind: KeyKind, k: i64, bit| kind.value(right, (k >= 0).then_some(k), bit);
        draws
            .iter()
            .map(|&(k1, k2, bit, v, t1, len)| {
                let (t1, t2) = match (t1, len) {
                    (-1, _) => (Value::Null, day(4)),
                    (_, 5) => (day(t1), Value::Null),
                    _ => (day(t1), day(t1 + len)),
                };
                tup![key(kinds[0], k1, bit == 1), key(kinds[1], k2, bit == 0), v, t1, t2]
            })
            .collect()
    }

    /// `rows`, sorted on `order`, as one of three inputs: a row scan, one
    /// columnar batch whose rows start one row into its columns, or
    /// columnar batches of three rows, each with dictionaries of its own.
    fn sorted_input(
        schema: Arc<Schema>,
        rows: Vec<Tuple>,
        order: &[&str],
        layout: u8,
    ) -> BoxCursor {
        let mut rel = Relation::new(schema.clone(), rows);
        rel.sort_by(&SortSpec::by(order.iter().copied()));
        let rows = rel.into_tuples();
        match layout {
            0 => Box::new(VecScan::from_parts(schema, rows)),
            1 => {
                let n = rows.len();
                let mut padded = vec![Tuple::new(vec![Value::Null; schema.len()])];
                padded.extend(rows);
                let whole = Batch::new(schema, padded).columnarize();
                Box::new(crate::scan::CachedScan::new(whole.slice(1, n)))
            }
            _ => {
                let pieces = rows.chunks(3).map(|c| Batch::new(schema.clone(), c.to_vec()));
                let batches = pieces.map(Batch::columnarize).collect();
                Box::new(crate::scan::BatchScan::new(schema, batches))
            }
        }
    }

    /// The valid-time period of `t`'s last two values, as the operators
    /// read it.
    fn period_of(t: &Tuple) -> Option<Period> {
        let n = t.len();
        crate::cursor::read_period(t, (n - 2, n - 1))
    }

    fn keys_eq(l: &Tuple, r: &Tuple, keys: &[usize]) -> bool {
        keys.iter().all(|&k| l[k].total_cmp(&r[k]).is_eq())
    }

    fn drain(mut c: BoxCursor, out_rows: usize) -> Vec<Tuple> {
        c.open().unwrap();
        let got = crate::cursor::drain_of(c.as_mut(), out_rows).unwrap();
        c.close().unwrap();
        got
    }

    proptest! {
        /// `MERGEJOIN^M`, `TMERGEJOIN^M` and `TDIFF^M` list-equal a nested
        /// loop over their sorted inputs — left-row major, right rows in
        /// input order, every value's variant included — over one- and
        /// two-attribute keys of every layout with NULL keys, NULL, empty
        /// and inverted Int or Date periods, input batches of 1, 2, 7 and
        /// 1,024 rows (key groups spanning them), output pulls of 1, 3 and
        /// 1,024 rows, and row or columnar inputs.
        #[test]
        fn sort_merge_family_matches_a_nested_loop_reference(
            l in proptest::collection::vec((-1i64..4, -1i64..3, 0u8..2, 0i64..3, -1i64..12, -2i64..6), 0..30),
            r in proptest::collection::vec((-1i64..4, -1i64..3, 0u8..2, 0i64..3, -1i64..12, -2i64..6), 0..30),
            kinds in prop::sample::select(vec![
                [KeyKind::Int, KeyKind::Str],
                [KeyKind::Date, KeyKind::Double],
                [KeyKind::Double, KeyKind::Int],
                [KeyKind::Str, KeyKind::Date],
                [KeyKind::Mixed, KeyKind::Str],
                [KeyKind::IntVsDouble, KeyKind::Mixed],
                [KeyKind::IntVsDate, KeyKind::IntVsDouble],
            ]),
            width in 1usize..3,
            dates in prop::sample::select(vec![false, true]),
            batch_rows in prop::sample::select(vec![1usize, 2, 7, 1024]),
            out_rows in prop::sample::select(vec![1usize, 3, 1024]),
            layouts in (0u8..3, 0u8..3),
        ) {
            let t_ty = if dates { Type::Date } else { Type::Int };
            let schema = |right: bool, names: [&str; 3]| {
                Arc::new(Schema::with_inferred_period(vec![
                    Attr::new(names[0], kinds[0].ty(right)),
                    Attr::new(names[1], kinds[1].ty(right)),
                    Attr::new(names[2], Type::Int),
                    Attr::new("T1", t_ty),
                    Attr::new("T2", t_ty),
                ]))
            };
            let (ls, rs) = (schema(false, ["K1", "K2", "V"]), schema(true, ["R1", "R2", "W"]));
            let (lrows, rrows) = (drawn_rows(&l, kinds, false, dates), drawn_rows(&r, kinds, true, dates));
            let keys: Vec<usize> = (0..width).collect();
            let eq: Vec<(String, String)> =
                [("K1", "R1"), ("K2", "R2")][..width].iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
            let (lorder, rorder) = (["K1", "K2"][..width].to_vec(), ["R1", "R2"][..width].to_vec());
            let inputs = || {
                (
                    sorted_input(ls.clone(), lrows.clone(), &lorder, layouts.0),
                    sorted_input(rs.clone(), rrows.clone(), &rorder, layouts.1),
                )
            };
            // the reference reads the inputs in the order the operators do
            let sorted = |schema: &Arc<Schema>, rows: &[Tuple], order: &[&str]| {
                let mut rel = Relation::new(schema.clone(), rows.to_vec());
                rel.sort_by(&SortSpec::by(order.iter().copied()));
                rel.into_tuples()
            };
            let (lsorted, rsorted) = (sorted(&ls, &lrows, &lorder), sorted(&rs, &rrows, &rorder));

            let (li, ri) = inputs();
            let got = drain(Box::new(MergeJoin::with_batch_rows(li, ri, &eq, batch_rows).unwrap()), out_rows);
            let mut want = Vec::new();
            for a in &lsorted {
                for b in rsorted.iter().filter(|b| keys_eq(a, b, &keys)) {
                    want.push(a.concat(b));
                }
            }
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "MERGEJOIN^M");

            let (li, ri) = inputs();
            let tj = crate::TemporalMergeJoin::with_batch_rows(li, ri, &eq, batch_rows).unwrap();
            let got = drain(Box::new(tj), out_rows);
            let mut want = Vec::new();
            for a in &lsorted {
                for b in rsorted.iter().filter(|b| keys_eq(a, b, &keys)) {
                    let Some(p) = period_of(a).zip(period_of(b)).and_then(|(p, q)| p.intersect(&q)) else {
                        continue;
                    };
                    let mut out = a.values()[..3].to_vec();
                    out.extend(b.values()[width..3].iter().cloned());
                    let (t1, t2) = crate::cursor::period_values(dates, p);
                    out.extend([t1, t2]);
                    want.push(Tuple::new(out));
                }
            }
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "TMERGEJOIN^M");

            // the difference: both sides in the left's schema, sorted on
            // every value attribute, then T1
            let order = ["K1", "K2", "V", "T1"];
            let right = sorted_input(ls.clone(), rrows.clone(), &order, layouts.1);
            let left = sorted_input(ls.clone(), lrows.clone(), &order, layouts.0);
            let td = crate::TemporalDiff::with_batch_rows(left, right, batch_rows).unwrap();
            let got = drain(Box::new(td), out_rows);
            let mut want = Vec::new();
            let rsorted = sorted(&ls, &rrows, &order);
            for a in sorted(&ls, &lrows, &order) {
                let Some(p) = period_of(&a) else { continue };
                let partners: Vec<&Tuple> = rsorted.iter().filter(|b| keys_eq(&a, b, &[0, 1, 2])).collect();
                if partners.is_empty() {
                    want.push(a);
                    continue;
                }
                let mut fragments = vec![p];
                for q in partners.iter().filter_map(|b| period_of(b)) {
                    fragments = fragments.iter().flat_map(|f| f.subtract(&q)).collect();
                }
                for f in fragments {
                    let (t1, t2) = crate::cursor::period_values(dates, f);
                    let mut t = a.clone();
                    t.set(3, t1);
                    t.set(4, t2);
                    want.push(t);
                }
            }
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "TDIFF^M");
        }
    }
}
