//! `TAGGR^M` — middleware temporal aggregation (ξᵀ), Section 3.4.
//!
//! The argument must be sorted on the grouping attributes and `T1`; the
//! algorithm internally sorts a second copy of each group on `T2` and
//! traverses both "similarly to sort-merge join", computing aggregate
//! values group by group over the *constant periods* induced by the
//! period endpoints.
//!
//! TAGGR is a pipeline breaker, so the cursor materializes its input as
//! one columnar batch at `open` (columnarizing a row-layout input there,
//! once) and runs one sweep over typed columns. Group boundaries come
//! from extracted key columns and period endpoints from flat `i64`
//! vectors; the sweep records `(first row of group, T1, T2)` per constant
//! period and the rows holding it, which is `COUNT(*)` (and a COUNT over
//! an int column with no NULLs). Each other aggregate is a typed
//! accumulator ([`Acc`]) that reads its argument column in place — COUNT
//! its validity bitmap, SUM and AVG its `i64` / `f64` values, MIN and MAX
//! a multiset of its keys. SUM and AVG over doubles keep an [`ExactSum`],
//! so removing values as periods end leaves no rounding error behind and
//! the answer is `TAGGR^D`'s to the bit. The output's grouping columns
//! are one `Column::gather` per refill, and MIN / MAX a gather of a row
//! holding the extreme.
//!
//! The output is ordered on (grouping attributes, `T1`), which is why
//! Query 1's best plan needs no final sort (Figure 7, Plan 1).

use crate::cursor::{day_col, drain_batches, BoxCursor, Cursor, ExecError, Result, NO_DAY};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use tango_algebra::logical::taggr_schema;
use tango_algebra::{
    AggFunc, AggSpec, Batch, BatchKeys, Bitmap, Column, ExactSum, Schema, SortSpec, Type, Value,
    DEFAULT_BATCH_ROWS,
};

/// The `TAGGR^M` cursor: temporal aggregation by a sweep over each
/// group's constant periods (Section 3.4 of the paper). Input must be
/// sorted on (group attributes, `T1`).
pub struct TemporalAggregate {
    input: BoxCursor,
    batch_rows: usize,
    group_by: Vec<String>,
    group_idx: Vec<usize>,
    agg_arg_idx: Vec<Option<usize>>,
    aggs: Vec<AggSpec>,
    period: (usize, usize),
    date_typed: bool,
    schema: Arc<Schema>,
    /// The whole input, columnar, resident from `open` on.
    data: Option<Batch>,
    /// Row ranges of the input's groups, in input order.
    bounds: Vec<(u32, u32)>,
    /// Next `bounds` entry to sweep.
    next_group: usize,
    /// Flat period endpoints per input row ([`NO_DAY`] = empty/null).
    starts_all: Vec<i64>,
    ends_all: Vec<i64>,
    /// Computed output not yet handed out (`out_pos` = next row).
    out: Option<Batch>,
    out_pos: usize,
    opened: bool,
    groups: u64,
    constant_periods: u64,
}

impl TemporalAggregate {
    /// Aggregate `input` per `group_by` combination over every constant
    /// period; `aggs` define the computed columns.
    pub fn new(input: BoxCursor, group_by: Vec<String>, aggs: Vec<AggSpec>) -> Result<Self> {
        Self::with_batch_rows(input, group_by, aggs, DEFAULT_BATCH_ROWS)
    }

    /// Like [`TemporalAggregate::new`], pulling its input `batch_rows` at
    /// a time.
    pub fn with_batch_rows(
        input: BoxCursor,
        group_by: Vec<String>,
        aggs: Vec<AggSpec>,
        batch_rows: usize,
    ) -> Result<Self> {
        let in_schema = input.schema();
        let period = in_schema
            .period()
            .ok_or_else(|| ExecError::State("temporal aggregation: input not temporal".into()))?;
        let mut group_idx = Vec::with_capacity(group_by.len());
        for g in &group_by {
            group_idx.push(in_schema.index_of(g)?);
        }
        let mut agg_arg_idx = Vec::with_capacity(aggs.len());
        for a in &aggs {
            agg_arg_idx.push(match &a.arg {
                Some(c) => Some(in_schema.index_of(c)?),
                None => None,
            });
        }
        let date_typed = matches!(in_schema.attr(period.0).ty, Type::Date);
        let schema = Arc::new(taggr_schema(&group_by, &aggs, in_schema)?);
        Ok(TemporalAggregate {
            input,
            batch_rows,
            group_by,
            group_idx,
            agg_arg_idx,
            aggs,
            period,
            date_typed,
            schema,
            data: None,
            bounds: Vec::new(),
            next_group: 0,
            starts_all: Vec::new(),
            ends_all: Vec::new(),
            out: None,
            out_pos: 0,
            opened: false,
            groups: 0,
            constant_periods: 0,
        })
    }

    /// Sweep groups until at least `min_rows` output rows are staged (or
    /// the input is exhausted).
    fn refill(&mut self, min_rows: usize) -> Result<()> {
        let data = self.data.as_ref();
        let (cols, offset, _) = data
            .and_then(Batch::columns)
            .ok_or_else(|| ExecError::State("temporal aggregation not opened".into()))?;
        // room for `min_rows` periods and the group that crosses it, and
        // no more: a refill's output lives on in its batch
        let room = (min_rows + min_rows / 16).min(2 * self.starts_all.len());
        let accs = self.aggs.iter().zip(&self.agg_arg_idx).map(|(a, &arg)| {
            // COUNT over an int column with no NULLs counts the rows
            // held, which the sweep knows without reading the column
            let counts_rows = |&c: &usize| data.and_then(|d| d.int_col(c)).is_some();
            let arg = arg.filter(|c| a.func != AggFunc::Count || !counts_rows(c));
            Acc::new(a.func, arg.map(|c| &cols[c]), room)
        });
        let mut accs: Vec<Acc> = accs.collect();
        let v = || Vec::with_capacity(room);
        let mut periods = Periods { firsts: Vec::with_capacity(room), t1: v(), t2: v(), held: v() };
        let (processed, groups) = sweep_groups(
            (&self.starts_all, &self.ends_all),
            offset,
            &self.bounds[self.next_group..],
            &mut accs,
            &mut periods,
            min_rows.max(1),
        );
        self.next_group += processed;
        self.groups += groups;
        self.constant_periods += periods.t1.len() as u64;
        self.out_pos = 0;
        self.out = None;
        if !periods.t1.is_empty() {
            let mut out: Vec<Column> =
                self.group_idx.iter().map(|&c| cols[c].gather(&periods.firsts)).collect();
            for vals in [periods.t1, periods.t2] {
                let (vals, valid) = (Arc::new(vals), None);
                out.push(match self.date_typed {
                    true => Column::Date { vals, valid },
                    false => Column::Int { vals, valid },
                });
            }
            let held = Arc::new(periods.held);
            out.extend(accs.into_iter().map(|a| a.finish(&held)));
            self.out = Some(Batch::from_columns(self.schema.clone(), out));
        }
        Ok(())
    }
}

impl Cursor for TemporalAggregate {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()?;
        let in_schema = self.input.schema().clone();
        let batches = drain_batches(self.input.as_mut(), self.batch_rows)?;
        let data = Batch::concat(in_schema.clone(), batches);
        let spec = SortSpec::by(self.group_by.iter().map(String::as_str));
        self.bounds = BatchKeys::extract(&data, &spec, &in_schema).runs(data.len());
        self.starts_all = day_col(&data, self.period.0);
        self.ends_all = day_col(&data, self.period.1);
        self.next_group = 0;
        self.out = None;
        self.out_pos = 0;
        self.data = Some(data);
        self.opened = true;
        Ok(())
    }

    fn next_batch(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        if !self.opened {
            return Err(ExecError::State("temporal aggregation not opened".into()));
        }
        let max = max_rows.max(1);
        loop {
            if let Some(out) = &self.out {
                let rem = out.len() - self.out_pos;
                if rem > 0 {
                    let n = rem.min(max);
                    let b = out.slice(self.out_pos, n);
                    self.out_pos += n;
                    return Ok(Some(b));
                }
            }
            if self.next_group >= self.bounds.len() {
                return Ok(None);
            }
            self.refill(max)?;
            if self.out.is_none() {
                return Ok(None);
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.data = None;
        self.out = None;
        self.out_pos = 0;
        self.starts_all = Vec::new();
        self.ends_all = Vec::new();
        self.input.close()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("groups", self.groups), ("constant_periods", self.constant_periods)]
    }
}

/// The constant periods one refill emits: the input row (absolute) whose
/// grouping values each carries, its endpoints, and the rows holding it.
struct Periods {
    firsts: Vec<u32>,
    t1: Vec<i64>,
    t2: Vec<i64>,
    held: Vec<i64>,
}

/// Sweep whole groups from `bounds` (rows relative to the input batch,
/// whose columns start at `offset`) until at least `min_rows` constant
/// periods are recorded in `out` (or `bounds` is exhausted). Returns
/// (groups processed, non-empty groups). The per-group algorithm — retain
/// non-empty periods, sort a second index copy by `T2`, advance start/end
/// events emitting one row per constant period — is the exact sweep of
/// Section 3.4.
fn sweep_groups(
    (starts, ends): (&[i64], &[i64]),
    offset: usize,
    bounds: &[(u32, u32)],
    accs: &mut [Acc<'_>],
    out: &mut Periods,
    min_rows: usize,
) -> (usize, u64) {
    // per group: its (`T1`, row)s, and its (`T2`, index in `kept`)s
    let (mut kept, mut by_end) = (Vec::new(), Vec::new());
    let (mut processed, mut groups) = (0usize, 0u64);
    let reads_rows = accs.iter().any(|a| a.arg.is_some());
    for &(lo, hi) in bounds {
        if out.t1.len() >= min_rows {
            break;
        }
        processed += 1;
        // Drop tuples with empty or null periods: they hold at no time
        // point and contribute nothing.
        kept.clear();
        by_end.clear();
        for r in lo as usize..hi as usize {
            if starts[r] != NO_DAY && ends[r] != NO_DAY && starts[r] < ends[r] {
                by_end.push((ends[r], kept.len()));
                kept.push((starts[r], offset + r));
            }
        }
        let Some(&(_, first)) = kept.first() else { continue };
        groups += 1;
        // The second copy, sorted on T2 (the algorithm's internal sort).
        by_end.sort_unstable();
        // Every row the group adds it also removes, so each accumulator is
        // empty again — exactly — when the group ends: no reset.
        let (k, mut i, mut j, mut prev) = (kept.len(), 0, 0, NO_DAY);
        while j < k {
            let end_t = by_end[j].0;
            let t = if i < k { end_t.min(kept[i].0) } else { end_t };
            if i > j && prev < t {
                out.firsts.push(first as u32);
                out.t1.push(prev);
                out.t2.push(t);
                out.held.push((i - j) as i64);
                if reads_rows {
                    accs.iter_mut().filter(|a| a.arg.is_some()).for_each(Acc::emit);
                }
            }
            while i < k && kept[i].0 == t {
                if reads_rows {
                    accs.iter_mut().for_each(|a| a.step(kept[i].1, true));
                }
                i += 1;
            }
            while j < k && by_end[j].0 == t {
                if reads_rows {
                    let row = kept[by_end[j].1].1;
                    accs.iter_mut().for_each(|a| a.step(row, false));
                }
                j += 1;
            }
            prev = t;
        }
    }
    (processed, groups)
}

/// One aggregate over the rows the sweep holds. It reads its argument
/// column in place at absolute row indices (`None`: nothing to read, as
/// for `COUNT(*)`) and appends a value per constant period to its output.
struct Acc<'a> {
    func: AggFunc,
    arg: Option<&'a Column>,
    held: Held<'a>,
    out: Out<'a>,
}

/// What an [`Acc`] holds of the rows the sweep holds.
#[derive(Default)]
struct Held<'a> {
    /// Rows whose argument counts: non-null for COUNT, numeric for SUM
    /// and AVG. (`COUNT(*)` reads the rows held off the sweep.)
    n: i64,
    /// SUM of the integer arguments (wrapping, so a removal undoes an
    /// addition even past an overflow).
    int: i64,
    /// SUM of the double arguments; for AVG, of every argument.
    sum: ExactSum,
    /// Double arguments: a `Mixed` column's SUM is a double while one is
    /// held.
    doubles: i64,
    /// MIN / MAX: the keys → (rows holding the key, one such row).
    ext: BTreeMap<ExtKey<'a>, (u32, u32)>,
    /// MIN / MAX: a row whose argument is NULL, the answer when every
    /// held row has one.
    null_row: u32,
}

/// An [`Acc`]'s output column so far.
enum Out<'a> {
    Counts(Vec<i64>),
    Ints(Vec<i64>, Bitmap),
    Doubles(Vec<f64>, Bitmap),
    /// MIN / MAX: the rows to gather from the argument column.
    Rows(Vec<u32>, &'a Column),
    /// SUM over a `Mixed` column: an int or a double per period.
    Values(Vec<Value>),
}

/// A MIN / MAX argument's sort key: ints and dates as themselves, doubles
/// as their total-order bits (with −0 read as +0), strings borrowed from
/// the column's dictionary, a `Mixed` column's values as values.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ExtKey<'a> {
    Num(i64),
    Str(&'a str),
    Val(&'a Value),
}

/// A numeric argument (`Int` for ints and dates).
enum Num {
    Int(i64),
    Double(f64),
}

impl<'a> Acc<'a> {
    /// An empty accumulator with room for `cap` output values.
    fn new(func: AggFunc, arg: Option<&'a Column>, cap: usize) -> Acc<'a> {
        let cap = if arg.is_some() { cap } else { 0 };
        let out = match (func, arg) {
            (AggFunc::Count, _) => Out::Counts(Vec::with_capacity(cap)),
            (AggFunc::Min | AggFunc::Max, Some(col)) => Out::Rows(Vec::with_capacity(cap), col),
            (AggFunc::Avg, _) | (AggFunc::Sum, Some(Column::Double { .. })) => {
                Out::Doubles(Vec::with_capacity(cap), Bitmap::default())
            }
            (AggFunc::Sum, Some(Column::Mixed { .. })) => Out::Values(Vec::with_capacity(cap)),
            _ => Out::Ints(Vec::with_capacity(cap), Bitmap::default()),
        };
        Acc { func, arg, held: Held::default(), out }
    }

    /// Enter (`add`) or leave the row at absolute index `row`.
    fn step(&mut self, row: usize, add: bool) {
        let (h, d) = (&mut self.held, if add { 1 } else { -1 });
        let Some(col) = self.arg else { return };
        match self.func {
            AggFunc::Count => h.n += d * col.is_valid(row) as i64,
            AggFunc::Sum | AggFunc::Avg => {
                let x = match (num(col, row), self.func) {
                    (None, _) => return,
                    (Some(Num::Int(i)), AggFunc::Sum) => {
                        h.int = if add { h.int.wrapping_add(i) } else { h.int.wrapping_sub(i) };
                        h.n += d;
                        return;
                    }
                    (Some(Num::Int(i)), _) => i as f64,
                    (Some(Num::Double(x)), _) => {
                        h.doubles += d;
                        x
                    }
                };
                if add {
                    h.sum.add(x)
                } else {
                    h.sum.sub(x)
                }
                h.n += d;
            }
            AggFunc::Min | AggFunc::Max => match ext_key(col, row) {
                None => h.null_row = row as u32,
                Some(k) => match h.ext.entry(k) {
                    Entry::Occupied(mut e) if !add => {
                        e.get_mut().0 -= 1;
                        if e.get().0 == 0 {
                            e.remove();
                        }
                    }
                    e => e.or_insert((0, row as u32)).0 += 1,
                },
            },
        }
    }

    /// Append the value over the constant period that just ended.
    fn emit(&mut self) {
        let (h, held) = (&self.held, self.held.n > 0);
        match &mut self.out {
            Out::Counts(vals) => vals.push(h.n),
            Out::Ints(vals, ok) => {
                vals.push(if held { h.int } else { 0 });
                ok.push(held);
            }
            Out::Doubles(vals, ok) => {
                let avg = self.func == AggFunc::Avg;
                vals.push(match held {
                    true if avg => h.sum.value() / h.n as f64,
                    true => h.sum.value(),
                    false => 0.0,
                });
                ok.push(held);
            }
            Out::Rows(rows, _) => {
                let mut held = h.ext.values();
                let ext = if self.func == AggFunc::Min { held.next() } else { held.next_back() };
                rows.push(ext.map_or(h.null_row, |&(_, row)| row));
            }
            Out::Values(vals) => vals.push(match (held, h.doubles > 0) {
                (false, _) => Value::Null,
                (true, false) => Value::Int(h.int),
                (true, true) => {
                    let mut sum = h.sum.clone();
                    sum.add(h.int as f64);
                    Value::Double(sum.value())
                }
            }),
        }
    }

    /// The output column; `held` has the rows holding each period, which
    /// is `COUNT(*)`, and the length of an aggregate with nothing to read.
    fn finish(self, held: &Arc<Vec<i64>>) -> Column {
        let valid = |ok: Bitmap| (ok.count_valid(0, ok.len()) < ok.len()).then(|| Arc::new(ok));
        match (self.arg, self.out) {
            (None, Out::Counts(_)) => Column::Int { vals: held.clone(), valid: None },
            (None, _) => Column::from_values(vec![Value::Null; held.len()]),
            (_, Out::Counts(vals)) => Column::Int { vals: Arc::new(vals), valid: None },
            (_, Out::Ints(vals, ok)) => Column::Int { vals: Arc::new(vals), valid: valid(ok) },
            (_, Out::Doubles(vals, ok)) => {
                Column::Double { vals: Arc::new(vals), valid: valid(ok) }
            }
            (_, Out::Rows(rows, col)) => col.gather(&rows),
            (_, Out::Values(vals)) => Column::from_values(vals),
        }
    }
}

/// The numeric value of `col` at absolute row `row`; `None` for NULLs and
/// strings.
fn num(col: &Column, row: usize) -> Option<Num> {
    if !col.is_valid(row) {
        return None;
    }
    match col {
        Column::Int { vals, .. } | Column::Date { vals, .. } => Some(Num::Int(vals[row])),
        Column::Double { vals, .. } => Some(Num::Double(vals[row])),
        Column::Str { .. } => None,
        Column::Mixed { vals } => match vals[row] {
            Value::Int(i) => Some(Num::Int(i)),
            Value::Date(d) => Some(Num::Int(d as i64)),
            Value::Double(x) => Some(Num::Double(x)),
            _ => None,
        },
    }
}

/// The MIN / MAX key of `col` at absolute row `row`; `None` for NULLs.
fn ext_key(col: &Column, row: usize) -> Option<ExtKey<'_>> {
    if !col.is_valid(row) {
        return None;
    }
    Some(match col {
        Column::Int { vals, .. } | Column::Date { vals, .. } => ExtKey::Num(vals[row]),
        Column::Double { vals, .. } => {
            let bits = (vals[row] + 0.0).to_bits() as i64;
            ExtKey::Num(bits ^ (((bits >> 63) as u64) >> 1) as i64)
        }
        Column::Str { codes, dict, .. } => ExtKey::Str(&dict[codes[row] as usize]),
        Column::Mixed { vals } => ExtKey::Val(&vals[row]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use crate::testutil::figure3_position;
    use proptest::prelude::*;
    use tango_algebra::{tup, Attr, Day, Relation, SortSpec, Tuple};

    /// Figure 3(c): the aggregation result of the paper's example.
    #[test]
    fn figure3_aggregation_result() {
        let mut pos = figure3_position();
        pos.sort_by(&SortSpec::by(["PosID", "T1"]));
        let agg = TemporalAggregate::new(
            Box::new(VecScan::new(pos)),
            vec!["PosID".into()],
            vec![AggSpec::new(AggFunc::Count, Some("PosID"), "COUNT")],
        )
        .unwrap();
        let got = collect(Box::new(agg)).unwrap();
        let expected =
            vec![tup![1, 2, 5, 1], tup![1, 5, 20, 2], tup![1, 20, 25, 1], tup![2, 5, 10, 1]];
        assert_eq!(got.tuples(), expected.as_slice());
        assert_eq!(got.schema().names().collect::<Vec<_>>(), vec!["PosID", "T1", "T2", "COUNT"]);
    }

    #[test]
    fn no_grouping_attributes() {
        let mut pos = figure3_position();
        pos.sort_by(&SortSpec::by(["T1"]));
        let agg = TemporalAggregate::new(
            Box::new(VecScan::new(pos)),
            vec![],
            vec![AggSpec::count_star("C")],
        )
        .unwrap();
        let got = collect(Box::new(agg)).unwrap();
        // periods: [2,20) [5,25) [5,10); endpoints 2,5,10,20,25
        let expected = vec![tup![2, 5, 1], tup![5, 10, 3], tup![10, 20, 2], tup![20, 25, 1]];
        assert_eq!(got.tuples(), expected.as_slice());
    }

    #[test]
    fn min_max_sum_avg() {
        let s = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("G", Type::Int),
            Attr::new("V", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        let rel = Relation::new(s, vec![tup![1, 10, 0, 10], tup![1, 4, 5, 15], tup![1, 7, 5, 8]]);
        let agg = TemporalAggregate::new(
            Box::new(VecScan::new(rel)),
            vec!["G".into()],
            vec![
                AggSpec::new(AggFunc::Min, Some("V"), "MinV"),
                AggSpec::new(AggFunc::Max, Some("V"), "MaxV"),
                AggSpec::new(AggFunc::Sum, Some("V"), "SumV"),
                AggSpec::new(AggFunc::Avg, Some("V"), "AvgV"),
            ],
        )
        .unwrap();
        let got = collect(Box::new(agg)).unwrap();
        let expected = vec![
            tup![1, 0, 5, 10, 10, 10, Value::Double(10.0)],
            tup![1, 5, 8, 4, 10, 21, Value::Double(7.0)],
            tup![1, 8, 10, 4, 10, 14, Value::Double(7.0)],
            tup![1, 10, 15, 4, 4, 4, Value::Double(4.0)],
        ];
        assert_eq!(got.tuples(), expected.as_slice());
    }

    fn input_rel(vals: &[(i64, i32, i32)]) -> Relation {
        let s = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("G", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        Relation::new(s, vals.iter().map(|&(g, a, b)| tup![g, a, b]).collect())
    }

    /// A `SUM` that turns NULL in mid-stream (a constant period whose
    /// only holders have a NULL argument) and a `MIN` over strings agree,
    /// as wire bytes, with a row-at-a-time reference that recomputes every
    /// constant period from the rows holding over it.
    #[test]
    fn null_and_string_aggregates_match_the_reference() {
        use tango_algebra::codec::encode_tuple;
        let mut x = 7u64;
        let mut next = |m: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % m) as i64
        };
        // (G, V or NULL, N, T1, T2), sorted on (G, T1)
        let mut rows: Vec<(i64, Value, &str, i64, i64)> = (0..60)
            .map(|_| {
                let (t1, v) = (next(30), (next(3) != 0).then(|| next(9) - 4));
                let name = ["Tom", "Jane", "", "Ann"][next(4) as usize];
                (next(6), v.map_or(Value::Null, Value::Int), name, t1, t1 + next(8))
            })
            .collect();
        rows.sort_by_key(|r| (r.0, r.3));
        let mut expected = Vec::new();
        for g in 0..6 {
            let held: Vec<_> = rows.iter().filter(|r| r.0 == g && r.3 < r.4).collect();
            let mut ends: Vec<i64> = held.iter().flat_map(|r| [r.3, r.4]).collect();
            ends.sort_unstable();
            ends.dedup();
            for w in ends.windows(2) {
                let active = || held.iter().filter(|r| r.3 <= w[0] && w[1] <= r.4);
                let Some(min) = active().map(|r| r.2).min() else { continue };
                let sum = active().filter_map(|r| r.1.as_int()).reduce(|a, b| a + b);
                expected.push(tup![g, w[0], w[1], sum.map_or(Value::Null, Value::Int), min]);
            }
        }
        assert!(expected.windows(2).any(|w| !w[0][3].is_null() && w[1][3].is_null()));
        let bytes = |tuples: &[tango_algebra::Tuple]| {
            let mut buf = Vec::new();
            tuples.iter().for_each(|t| encode_tuple(t, &mut buf));
            buf
        };
        let ty = |n| if n == "N" { Type::Str } else { Type::Int };
        let attrs = ["G", "V", "N", "T1", "T2"].map(|n| Attr::new(n, ty(n))).to_vec();
        let input = rows.iter().map(|r| tup![r.0, r.1.clone(), r.2, r.3, r.4]).collect();
        let input = Relation::new(Arc::new(Schema::with_inferred_period(attrs)), input);
        let agg = TemporalAggregate::new(
            Box::new(VecScan::new(input)),
            vec!["G".into()],
            vec![
                AggSpec::new(AggFunc::Sum, Some("V"), "S"),
                AggSpec::new(AggFunc::Min, Some("N"), "M"),
            ],
        )
        .unwrap();
        let got = collect(Box::new(agg)).unwrap();
        assert_eq!(bytes(got.tuples()), bytes(&expected));
    }

    /// The argument column of [`every_aggregate_matches_pointwise`]: one
    /// of the four types, or ints and doubles in one column (`Mixed`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum ArgKind {
        Int,
        Date,
        Double,
        Str,
        Mixed,
    }

    /// The draw that reads NULL (an argument or a `T1`).
    const NULL_DRAW: i64 = -5;

    fn draw_arg(kind: ArgKind, k: i64) -> Value {
        match kind {
            _ if k == NULL_DRAW => Value::Null,
            ArgKind::Int => Value::Int(k),
            ArgKind::Date => Value::Date(k as Day),
            ArgKind::Double => Value::Double(k as f64 * 0.1),
            ArgKind::Str => Value::Str(["b", "a", "", "ab", "c"][k.rem_euclid(5) as usize].into()),
            ArgKind::Mixed if k % 2 == 0 => Value::Int(k),
            ArgKind::Mixed => Value::Double(k as f64 * 0.3),
        }
    }

    /// The aggregate `f` by its definition, over the argument values of
    /// the rows that hold one time point.
    fn by_definition(f: AggFunc, held: &[Value]) -> Value {
        let vals: Vec<&Value> = held.iter().filter(|v| !v.is_null()).collect();
        let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_f64()).collect();
        let mut exact = ExactSum::default();
        nums.iter().for_each(|&x| exact.add(x));
        let ints = vals.iter().all(|v| v.as_int().is_some());
        match f {
            AggFunc::Count => Value::Int(vals.len() as i64),
            AggFunc::Sum | AggFunc::Avg if nums.is_empty() => Value::Null,
            AggFunc::Sum if ints => Value::Int(vals.iter().filter_map(|v| v.as_int()).sum()),
            AggFunc::Sum => Value::Double(exact.value()),
            AggFunc::Avg => Value::Double(exact.value() / nums.len() as f64),
            AggFunc::Min => vals.iter().min().map_or(Value::Null, |v| (*v).clone()),
            AggFunc::Max => vals.iter().max().map_or(Value::Null, |v| (*v).clone()),
        }
    }

    proptest! {
        /// Every aggregate, over every argument type with NULLs, over Int
        /// and Date periods with NULL and empty ones, under 0–2 grouping
        /// columns, at three input batch sizes, from a row-layout input
        /// and from a columnar one that starts mid-column: at every time
        /// point, exactly one output row of a group covers the point iff
        /// a row of the group holds it, and its values — type included —
        /// are the aggregates of the rows holding it.
        #[test]
        fn every_aggregate_matches_pointwise(
            raw in proptest::collection::vec((-1i64..3, 0usize..2, -5i64..6, -5i64..20, -2i64..8), 0..40),
            kind in prop::sample::select(vec![ArgKind::Int, ArgKind::Date, ArgKind::Double, ArgKind::Str, ArgKind::Mixed]),
            date_periods in prop::sample::select(vec![false, true]),
            width in 0usize..3,
            batch_rows in prop::sample::select(vec![1usize, 7, 1024]),
            columnar in prop::sample::select(vec![false, true]),
        ) {
            let day = |d: i64| if date_periods { Value::Date(d as Day) } else { Value::Int(d) };
            let rows: Vec<Tuple> = raw
                .iter()
                .map(|&(g1, g2, a, t1, len)| {
                    let (t1, t2) = match (t1, len) {
                        (NULL_DRAW, _) => (Value::Null, day(3)),
                        (_, 7) => (day(t1), Value::Null),
                        _ => (day(t1), day(t1 + len)),
                    };
                    let g1 = if g1 < 0 { Value::Null } else { Value::Int(g1) };
                    tup![g1, ["x", "y"][g2], draw_arg(kind, a), t1, t2]
                })
                .collect();
            let (t_ty, a_ty) = (if date_periods { Type::Date } else { Type::Int }, match kind {
                ArgKind::Int => Type::Int,
                ArgKind::Date => Type::Date,
                ArgKind::Str => Type::Str,
                ArgKind::Double | ArgKind::Mixed => Type::Double,
            });
            let attrs = vec![
                Attr::new("G1", Type::Int),
                Attr::new("G2", Type::Str),
                Attr::new("A", a_ty),
                Attr::new("T1", t_ty),
                Attr::new("T2", t_ty),
            ];
            let group_by: Vec<String> = ["G1", "G2"][..width].iter().map(|g| g.to_string()).collect();
            let order: Vec<&str> = group_by.iter().map(String::as_str).chain(["T1"]).collect();
            let mut rel = Relation::new(Arc::new(Schema::with_inferred_period(attrs)), rows.clone());
            rel.sort_by(&SortSpec::by(order.iter().copied()));
            let input: BoxCursor = if columnar {
                // a columnar entry whose rows start one row into its columns
                let schema = rel.schema().clone();
                let mut padded = vec![tup![0, "x", Value::Null, day(0), day(1)]];
                padded.extend(rel.into_tuples());
                let n = padded.len() - 1;
                Box::new(crate::scan::CachedScan::new(Batch::new(schema, padded).columnarize().slice(1, n)))
            } else {
                Box::new(VecScan::new(rel))
            };
            let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
            let mut aggs = vec![AggSpec::count_star("N")];
            aggs.extend(funcs.iter().map(|&f| AggSpec::new(f, Some("A"), f.sql())));
            let agg = TemporalAggregate::with_batch_rows(input, group_by.clone(), aggs, batch_rows).unwrap();
            let got = collect(Box::new(agg)).unwrap();
            let out = got.tuples();
            prop_assert!(got.is_sorted_by(&SortSpec::by(order.iter().copied())));
            for o in out {
                prop_assert_eq!(o[width].ty(), Some(t_ty));
                prop_assert!(o[width].as_int() < o[width + 1].as_int(), "empty output period {o:?}");
            }
            let key = |t: &Tuple| t.values()[..width].to_vec();
            let covers = |t: &Tuple, lo: usize, at: i64| {
                matches!((t[lo].as_int(), t[lo + 1].as_int()), (Some(a), Some(b)) if a <= at && at < b)
            };
            for row in &rows {
                for at in -6..30 {
                    let held: Vec<Value> = rows
                        .iter()
                        .filter(|r| key(r) == key(row) && covers(r, 3, at))
                        .map(|r| r[2].clone())
                        .collect();
                    let covering: Vec<&Tuple> =
                        out.iter().filter(|o| key(o) == key(row) && covers(o, width, at)).collect();
                    if held.is_empty() {
                        prop_assert!(covering.is_empty(), "t={at}: no row holds, yet {covering:?}");
                        continue;
                    }
                    prop_assert_eq!(covering.len(), 1, "t={}: {:?}", at, covering);
                    let o = covering[0];
                    prop_assert_eq!(&o[width + 2], &Value::Int(held.len() as i64));
                    for (i, &f) in funcs.iter().enumerate() {
                        let (want, got) = (by_definition(f, &held), &o[width + 3 + i]);
                        prop_assert!(
                            got == &want && got.ty() == want.ty(),
                            "{} at t={at} over {held:?}: got {got:?}, want {want:?}", f.sql()
                        );
                    }
                }
            }
        }

        /// Invariant: at every time point, the COUNT reported by the
        /// constant-period output equals the number of input tuples of
        /// that group whose period contains the point.
        #[test]
        fn count_matches_pointwise(vals in proptest::collection::vec((0i64..4, 0i32..30, 1i32..12), 1..60)) {
            let fixed: Vec<(i64, i32, i32)> = vals.into_iter().map(|(g, t1, d)| (g, t1, t1 + d)).collect();
            let mut rel = input_rel(&fixed);
            rel.sort_by(&SortSpec::by(["G", "T1"]));
            let agg = TemporalAggregate::new(
                Box::new(VecScan::new(rel)),
                vec!["G".into()],
                vec![AggSpec::count_star("C")],
            ).unwrap();
            let got = collect(Box::new(agg)).unwrap();
            // constant periods per group must not overlap and be maximal
            for t in 0..45i32 {
                for g in 0..4i64 {
                    let truth = fixed.iter().filter(|&&(gg, a, b)| gg == g && a <= t && t < b).count() as i64;
                    let reported: Vec<i64> = got.tuples().iter()
                        .filter(|r| r[0].as_int() == Some(g)
                            && r[1].as_int().unwrap() <= t as i64
                            && (t as i64) < r[2].as_int().unwrap())
                        .map(|r| r[3].as_int().unwrap())
                        .collect();
                    if truth == 0 {
                        prop_assert!(reported.is_empty(), "g={g} t={t}: expected gap, got {reported:?}");
                    } else {
                        prop_assert_eq!(&reported, &vec![truth], "g={} t={}", g, t);
                    }
                }
            }
        }

        /// The output is ordered by (G, T1): the order-preservation claim
        /// the optimizer exploits.
        #[test]
        fn output_order(vals in proptest::collection::vec((0i64..4, 0i32..30, 1i32..12), 1..60)) {
            let fixed: Vec<(i64, i32, i32)> = vals.into_iter().map(|(g, t1, d)| (g, t1, t1 + d)).collect();
            let mut rel = input_rel(&fixed);
            rel.sort_by(&SortSpec::by(["G", "T1"]));
            let agg = TemporalAggregate::new(
                Box::new(VecScan::new(rel)),
                vec!["G".into()],
                vec![AggSpec::count_star("C")],
            ).unwrap();
            let got = collect(Box::new(agg)).unwrap();
            prop_assert!(got.is_sorted_by(&SortSpec::by(["G", "T1"])));
            // cardinality bounds from Section 3.4
            let n = fixed.len();
            prop_assert!(got.len() < 2 * n);
        }
    }
}
