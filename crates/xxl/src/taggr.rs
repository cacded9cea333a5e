//! `TAGGR^M` — middleware temporal aggregation (ξᵀ), Section 3.4.
//!
//! The argument must be sorted on the grouping attributes and `T1`; the
//! algorithm internally sorts a second copy of each group on `T2` and
//! traverses both "similarly to sort-merge join", computing aggregate
//! values group by group over the *constant periods* induced by the
//! period endpoints.
//!
//! TAGGR is a pipeline breaker, so the cursor materializes its input as
//! one columnar batch at `open` and runs the sweep over flat arrays:
//! group boundaries come from extracted key columns, period endpoints
//! from a flat `(start, end)` pair of `i64` vectors, and output rows go
//! straight into typed column builders.
//!
//! The output is ordered on (grouping attributes, `T1`), which is why
//! Query 1's best plan needs no final sort (Figure 7, Plan 1).

use crate::cursor::{drain_batches, period_values, BoxCursor, Cursor, ExecError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;
use tango_algebra::logical::taggr_schema;
use tango_algebra::value::Key;
use tango_algebra::{
    AggFunc, AggSpec, Batch, BatchKeys, Column, ColumnBuilder, Day, Period, Schema, SortSpec, Type,
    Value, DEFAULT_BATCH_ROWS,
};

/// Sentinel for "no valid day" in the flattened period-endpoint arrays
/// (no valid day is ever `i64::MIN`; days fit in `i32`).
const NO_DAY: i64 = i64::MIN;

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
        let mut cols = vec![ColumnBuilder::default(); self.schema.len()];
        let data = self
            .data
            .as_ref()
            .ok_or_else(|| ExecError::State("temporal aggregation not opened".into()))?;
        let ctx = SweepCtx {
            data,
            group_idx: &self.group_idx,
            agg_arg_idx: &self.agg_arg_idx,
            aggs: &self.aggs,
            date_typed: self.date_typed,
            starts_all: &self.starts_all,
            ends_all: &self.ends_all,
        };
        let (processed, g, cp) =
            sweep_groups(&ctx, &self.bounds[self.next_group..], &mut cols, min_rows.max(1));
        self.next_group += processed;
        self.groups += g;
        self.constant_periods += cp;
        self.out = (!cols[0].is_empty()).then(|| Batch::from_builders(self.schema.clone(), cols));
        self.out_pos = 0;
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
        let n = data.len();
        self.bounds.clear();
        if n > 0 {
            let spec = SortSpec::by(self.group_by.iter().map(String::as_str));
            let keys = BatchKeys::extract(&data, &spec, &in_schema);
            if keys.is_empty() {
                self.bounds.push((0, n as u32));
            } else {
                let mut lo = 0usize;
                for r in 1..n {
                    if keys.cmp(r - 1, r) != std::cmp::Ordering::Equal {
                        self.bounds.push((lo as u32, r as u32));
                        lo = r;
                    }
                }
                self.bounds.push((lo as u32, n as u32));
            }
        }
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

/// Flatten a period-endpoint column to `i64` days ([`NO_DAY`] for rows
/// with no valid day: nulls, non-numeric values, ints outside `i32`).
fn day_col(data: &Batch, col: usize) -> Vec<i64> {
    if let Some((cols, offset, len)) = data.columns() {
        match &cols[col] {
            Column::Date { vals, valid } => {
                return (0..len)
                    .map(|r| {
                        if valid.as_ref().map(|b| b.get(offset + r)).unwrap_or(true) {
                            vals[offset + r]
                        } else {
                            NO_DAY
                        }
                    })
                    .collect();
            }
            Column::Int { vals, valid } => {
                return (0..len)
                    .map(|r| {
                        let ok = valid.as_ref().map(|b| b.get(offset + r)).unwrap_or(true);
                        let v = vals[offset + r];
                        if ok && i32::try_from(v).is_ok() {
                            v
                        } else {
                            NO_DAY
                        }
                    })
                    .collect();
            }
            _ => {}
        }
    }
    (0..data.len())
        .map(|r| data.value_at(r, col).as_day().map(|d| d as i64).unwrap_or(NO_DAY))
        .collect()
}

/// The read-only view of the operator a sweep needs.
struct SweepCtx<'a> {
    data: &'a Batch,
    group_idx: &'a [usize],
    agg_arg_idx: &'a [Option<usize>],
    aggs: &'a [AggSpec],
    date_typed: bool,
    starts_all: &'a [i64],
    ends_all: &'a [i64],
}

/// Sweep whole groups from `bounds` into the per-column output builders
/// until at least `min_rows` rows are produced (or `bounds` is
/// exhausted). Returns (groups processed, non-empty groups, constant
/// periods). The per-group algorithm — retain non-empty periods, sort a
/// second index copy by `T2`, advance start/end events emitting one row
/// per constant period — is the exact sweep of Section 3.4.
fn sweep_groups(
    ctx: &SweepCtx<'_>,
    bounds: &[(u32, u32)],
    out: &mut [ColumnBuilder],
    min_rows: usize,
) -> (usize, u64, u64) {
    let mut states: Vec<Box<dyn AggState>> = ctx.aggs.iter().map(|a| new_state(a.func)).collect();
    let width_g = ctx.group_idx.len();
    let mut kept: Vec<u32> = Vec::new();
    let mut starts: Vec<i64> = Vec::new();
    let mut ends: Vec<i64> = Vec::new();
    let mut by_end: Vec<u32> = Vec::new();
    let (mut groups, mut cps) = (0u64, 0u64);
    let mut processed = 0usize;
    for &(lo, hi) in bounds {
        if out[0].len() >= min_rows {
            break;
        }
        processed += 1;
        // Drop tuples with empty or null periods: they hold at no time
        // point and contribute nothing.
        kept.clear();
        for r in lo..hi {
            let (s, e) = (ctx.starts_all[r as usize], ctx.ends_all[r as usize]);
            if s != NO_DAY && e != NO_DAY && s < e {
                kept.push(r);
            }
        }
        if kept.is_empty() {
            continue; // an empty group produces no constant periods
        }
        groups += 1;
        let k = kept.len();
        starts.clear();
        starts.extend(kept.iter().map(|&r| ctx.starts_all[r as usize]));
        ends.clear();
        ends.extend(kept.iter().map(|&r| ctx.ends_all[r as usize]));
        // Second copy, sorted on T2 (the algorithm's internal sort).
        by_end.clear();
        by_end.extend(0..k as u32);
        by_end.sort_unstable_by_key(|&i| ends[i as usize]);
        for s in states.iter_mut() {
            s.reset();
        }
        let group_vals: Vec<Value> =
            ctx.group_idx.iter().map(|&c| ctx.data.value_at(kept[0] as usize, c)).collect();
        let mut i = 0usize; // next start event (group is sorted by T1)
        let mut j = 0usize; // next end event (via by_end)
        let mut active = 0usize;
        let mut prev: Option<i64> = None;
        while j < k {
            let end_t = ends[by_end[j] as usize];
            let t = if i < k { end_t.min(starts[i]) } else { end_t };
            if let Some(p) = prev {
                if p < t && active > 0 {
                    for (c, v) in group_vals.iter().enumerate() {
                        out[c].push(v.clone());
                    }
                    let (t1, t2) = period_values(ctx.date_typed, Period::new(p as Day, t as Day));
                    out[width_g].push(t1);
                    out[width_g + 1].push(t2);
                    for (c, s) in states.iter().enumerate() {
                        out[width_g + 2 + c].push(s.current());
                    }
                    cps += 1;
                }
            }
            while i < k && starts[i] == t {
                let row = kept[i] as usize;
                for (s, arg) in states.iter_mut().zip(ctx.agg_arg_idx) {
                    match arg {
                        Some(a) => {
                            let v = ctx.data.value_at(row, *a);
                            s.add(Some(&v));
                        }
                        None => s.add(None),
                    }
                }
                active += 1;
                i += 1;
            }
            while j < k && ends[by_end[j] as usize] == t {
                let row = kept[by_end[j] as usize] as usize;
                for (s, arg) in states.iter_mut().zip(ctx.agg_arg_idx) {
                    match arg {
                        Some(a) => {
                            let v = ctx.data.value_at(row, *a);
                            s.remove(Some(&v));
                        }
                        None => s.remove(None),
                    }
                }
                active -= 1;
                j += 1;
            }
            prev = Some(t);
        }
    }
    (processed, groups, cps)
}

/// Incremental aggregate state with add/remove (the sweep enters and
/// leaves tuples as their periods start and end).
trait AggState: Send {
    fn add(&mut self, v: Option<&Value>);
    fn remove(&mut self, v: Option<&Value>);
    fn current(&self) -> Value;
    /// Return to the empty state (one state box is reused across all the
    /// groups a sweep covers).
    fn reset(&mut self);
}

fn new_state(f: AggFunc) -> Box<dyn AggState> {
    match f {
        AggFunc::Count => Box::new(CountState { n: 0 }),
        AggFunc::Sum => Box::new(SumState { int: 0, float: 0.0, n: 0, saw_float: false }),
        AggFunc::Avg => Box::new(AvgState { sum: 0.0, n: 0 }),
        AggFunc::Min => Box::new(ExtState { vals: BTreeMap::new(), min: true }),
        AggFunc::Max => Box::new(ExtState { vals: BTreeMap::new(), min: false }),
    }
}

struct CountState {
    n: i64,
}

impl AggState for CountState {
    fn add(&mut self, v: Option<&Value>) {
        // COUNT(*) counts rows; COUNT(col) counts non-null values.
        if v.is_none_or(|v| !v.is_null()) {
            self.n += 1;
        }
    }
    fn remove(&mut self, v: Option<&Value>) {
        if v.is_none_or(|v| !v.is_null()) {
            self.n -= 1;
        }
    }
    fn current(&self) -> Value {
        Value::Int(self.n)
    }
    fn reset(&mut self) {
        self.n = 0;
    }
}

struct SumState {
    int: i64,
    float: f64,
    n: i64,
    saw_float: bool,
}

impl SumState {
    fn apply(&mut self, v: Option<&Value>, sign: i64) {
        match v {
            Some(Value::Int(i)) => {
                self.int += sign * i;
                self.n += sign;
            }
            Some(Value::Double(d)) => {
                self.float += sign as f64 * d;
                self.n += sign;
                self.saw_float = true;
            }
            Some(Value::Date(d)) => {
                self.int += sign * *d as i64;
                self.n += sign;
            }
            _ => {}
        }
    }
}

impl AggState for SumState {
    fn add(&mut self, v: Option<&Value>) {
        self.apply(v, 1);
    }
    fn remove(&mut self, v: Option<&Value>) {
        self.apply(v, -1);
    }
    fn current(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else if self.saw_float {
            Value::Double(self.float + self.int as f64)
        } else {
            Value::Int(self.int)
        }
    }
    fn reset(&mut self) {
        *self = SumState { int: 0, float: 0.0, n: 0, saw_float: false };
    }
}

struct AvgState {
    sum: f64,
    n: i64,
}

impl AggState for AvgState {
    fn add(&mut self, v: Option<&Value>) {
        if let Some(x) = v.and_then(Value::as_f64) {
            self.sum += x;
            self.n += 1;
        }
    }
    fn remove(&mut self, v: Option<&Value>) {
        if let Some(x) = v.and_then(Value::as_f64) {
            self.sum -= x;
            self.n -= 1;
        }
    }
    fn current(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Double(self.sum / self.n as f64)
        }
    }
    fn reset(&mut self) {
        self.sum = 0.0;
        self.n = 0;
    }
}

/// MIN/MAX need a multiset because a value leaving the sweep may not be
/// the extreme one.
struct ExtState {
    vals: BTreeMap<Key, (Value, usize)>,
    min: bool,
}

impl AggState for ExtState {
    fn add(&mut self, v: Option<&Value>) {
        if let Some(v) = v {
            if !v.is_null() {
                self.vals.entry(v.key()).or_insert_with(|| (v.clone(), 0)).1 += 1;
            }
        }
    }
    fn remove(&mut self, v: Option<&Value>) {
        if let Some(v) = v {
            if !v.is_null() {
                if let Some(e) = self.vals.get_mut(&v.key()) {
                    e.1 -= 1;
                    if e.1 == 0 {
                        self.vals.remove(&v.key());
                    }
                }
            }
        }
    }
    fn current(&self) -> Value {
        let entry =
            if self.min { self.vals.values().next() } else { self.vals.values().next_back() };
        entry.map(|(v, _)| v.clone()).unwrap_or(Value::Null)
    }
    fn reset(&mut self) {
        self.vals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::scan::VecScan;
    use crate::testutil::figure3_position;
    use proptest::prelude::*;
    use tango_algebra::{tup, Attr, Relation, SortSpec};

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

    proptest! {
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
