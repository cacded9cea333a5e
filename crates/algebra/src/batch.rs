//! Batches: the unit of vectorized (batch-at-a-time) execution.
//!
//! A [`Batch`] is a run of consecutive tuples from one stream, sharing a
//! single [`Schema`] handle. Batches have two physical representations:
//!
//! * **Rows** — a plain `Vec<Tuple>`: the layout produced by scans and the
//!   (simulated) wire, and consumed by the row-at-a-time fallback and the
//!   codec. Cheap to build, no conversion cost.
//! * **Columnar** — typed column vectors ([`Column`]: `i64` ints/dates,
//!   `f64` doubles, dictionary-encoded strings) with a packed validity
//!   [`Bitmap`], shared via `Arc` so slicing is zero-copy. Pipeline
//!   breakers (sort, TAGGR, parallel joins) columnarize once and run their
//!   hot loops — key extraction, group-boundary detection, interval sweeps
//!   — over the flat arrays.
//!
//! Interval (period) attributes are ordinary `Int`/`Date` columns, so a
//! columnar batch naturally exposes a period as a flat `(start: i64,
//! end: i64)` pair of vectors which the temporal sweep loops index
//! directly ([`Batch::int_col`]).
//!
//! Materialization round-trips exactly: `Int` and `Date` columns stay
//! distinct (the wire codec tags them differently even though they compare
//! equal), doubles keep their bit patterns, and nulls are tracked per
//! column in the validity bitmap.

use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// The default number of rows per batch. Large enough to amortize
/// per-batch overhead, small enough to keep a batch cache-resident.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Packed validity bitmap: bit `i` set means row `i` holds a value,
/// cleared means NULL.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn push(&mut self, valid: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if b == 0 {
            self.words.push(0);
        }
        if valid {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of valid (non-null) rows in `from..to`.
    pub fn count_valid(&self, from: usize, to: usize) -> usize {
        (from..to).filter(|&i| self.get(i)).count()
    }
}

/// One typed column of a columnar batch. Buffers are `Arc`-shared so
/// slicing and column projection are zero-copy. `valid: None` means every
/// row is non-null.
#[derive(Debug, Clone)]
pub enum Column {
    /// `Value::Int` rows as flat `i64`s (null slots hold 0).
    Int { vals: Arc<Vec<i64>>, valid: Option<Arc<Bitmap>> },
    /// `Value::Date` rows widened to `i64` day numbers; materialization
    /// narrows back to `Day` (`i32`).
    Date { vals: Arc<Vec<i64>>, valid: Option<Arc<Bitmap>> },
    /// `Value::Double` rows, bit-exact.
    Double { vals: Arc<Vec<f64>>, valid: Option<Arc<Bitmap>> },
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Str { codes: Arc<Vec<u32>>, dict: Arc<Vec<String>>, valid: Option<Arc<Bitmap>> },
    /// Fallback for mixed-variant columns (e.g. `Int` and `Date` rows in
    /// one attribute): exact `Value`s, no flat fast path.
    Mixed { vals: Arc<Vec<Value>> },
}

impl Column {
    /// Build a column from exact values, picking the tightest layout that
    /// round-trips every variant.
    pub fn from_values(vals: Vec<Value>) -> Column {
        use crate::value::Type;
        let mut kind: Option<Type> = None;
        let mut uniform = true;
        let mut any_null = false;
        let mut any_val = false;
        for v in &vals {
            match v.ty() {
                None => any_null = true,
                Some(t) => {
                    any_val = true;
                    match kind {
                        None => kind = Some(t),
                        Some(k) if k == t => {}
                        Some(_) => {
                            uniform = false;
                            break;
                        }
                    }
                }
            }
        }
        if !uniform || !any_val {
            return Column::Mixed { vals: Arc::new(vals) };
        }
        let valid = |any_null: bool, vals: &[Value]| {
            if !any_null {
                return None;
            }
            let mut bm = Bitmap::default();
            for v in vals {
                bm.push(!v.is_null());
            }
            Some(Arc::new(bm))
        };
        match kind.unwrap() {
            Type::Int => {
                let valid = valid(any_null, &vals);
                let out = vals.iter().map(|v| v.as_int().unwrap_or(0)).collect();
                Column::Int { vals: Arc::new(out), valid }
            }
            Type::Date => {
                let valid = valid(any_null, &vals);
                let out = vals.iter().map(|v| v.as_int().unwrap_or(0)).collect();
                Column::Date { vals: Arc::new(out), valid }
            }
            Type::Double => {
                let valid = valid(any_null, &vals);
                let out = vals
                    .iter()
                    .map(|v| match v {
                        Value::Double(d) => *d,
                        _ => 0.0,
                    })
                    .collect();
                Column::Double { vals: Arc::new(out), valid }
            }
            Type::Str => {
                let valid = valid(any_null, &vals);
                let mut dict: Vec<String> = Vec::new();
                let mut by_str: HashMap<String, u32> = HashMap::new();
                let mut codes = Vec::with_capacity(vals.len());
                for v in vals {
                    match v {
                        Value::Str(s) => {
                            let code = match by_str.get(&s) {
                                Some(&c) => c,
                                None => {
                                    let c = dict.len() as u32;
                                    by_str.insert(s.clone(), c);
                                    dict.push(s);
                                    c
                                }
                            };
                            codes.push(code);
                        }
                        _ => codes.push(0),
                    }
                }
                // An all-null Str column can have an empty dict; make code 0
                // resolvable anyway.
                if dict.is_empty() {
                    dict.push(String::new());
                }
                Column::Str { codes: Arc::new(codes), dict: Arc::new(dict), valid }
            }
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int { vals, .. } | Column::Date { vals, .. } => vals.len(),
            Column::Double { vals, .. } => vals.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Mixed { vals } => vals.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether row `i` (absolute index) is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Column::Int { valid, .. }
            | Column::Date { valid, .. }
            | Column::Double { valid, .. }
            | Column::Str { valid, .. } => valid.as_ref().map(|b| b.get(i)).unwrap_or(true),
            Column::Mixed { vals } => !vals[i].is_null(),
        }
    }

    /// Materialize row `i` (absolute index) as an exact `Value`.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int { vals, valid } => match valid.as_ref().map(|b| b.get(i)).unwrap_or(true) {
                true => Value::Int(vals[i]),
                false => Value::Null,
            },
            Column::Date { vals, valid } => {
                match valid.as_ref().map(|b| b.get(i)).unwrap_or(true) {
                    true => Value::Date(vals[i] as crate::date::Day),
                    false => Value::Null,
                }
            }
            Column::Double { vals, valid } => {
                match valid.as_ref().map(|b| b.get(i)).unwrap_or(true) {
                    true => Value::Double(vals[i]),
                    false => Value::Null,
                }
            }
            Column::Str { codes, dict, valid } => {
                match valid.as_ref().map(|b| b.get(i)).unwrap_or(true) {
                    true => Value::Str(dict[codes[i] as usize].clone()),
                    false => Value::Null,
                }
            }
            Column::Mixed { vals } => vals[i].clone(),
        }
    }

    /// Wire-size estimate of row `i` (absolute index).
    fn byte_at(&self, i: usize) -> usize {
        match self {
            Column::Int { valid, .. } => {
                if valid.as_ref().map(|b| b.get(i)).unwrap_or(true) {
                    8
                } else {
                    1
                }
            }
            Column::Date { valid, .. } => {
                if valid.as_ref().map(|b| b.get(i)).unwrap_or(true) {
                    4
                } else {
                    1
                }
            }
            Column::Double { valid, .. } => {
                if valid.as_ref().map(|b| b.get(i)).unwrap_or(true) {
                    8
                } else {
                    1
                }
            }
            Column::Str { codes, dict, valid } => {
                if valid.as_ref().map(|b| b.get(i)).unwrap_or(true) {
                    2 + dict[codes[i] as usize].len()
                } else {
                    1
                }
            }
            Column::Mixed { vals } => vals[i].byte_size(),
        }
    }

    fn range_bytes(&self, from: usize, to: usize) -> usize {
        match self {
            Column::Int { valid, .. } | Column::Double { valid, .. } => match valid {
                None => (to - from) * 8,
                Some(b) => {
                    let v = b.count_valid(from, to);
                    v * 8 + (to - from - v)
                }
            },
            Column::Date { valid, .. } => match valid {
                None => (to - from) * 4,
                Some(b) => {
                    let v = b.count_valid(from, to);
                    v * 4 + (to - from - v)
                }
            },
            Column::Str { .. } | Column::Mixed { .. } => (from..to).map(|i| self.byte_at(i)).sum(),
        }
    }

    /// Gather rows at absolute indices `idx` into a fresh column. Str
    /// dictionaries are shared, not rebuilt.
    pub fn gather(&self, idx: &[u32]) -> Column {
        fn regather(valid: &Option<Arc<Bitmap>>, idx: &[u32]) -> Option<Arc<Bitmap>> {
            let bm = valid.as_ref()?;
            let mut out = Bitmap::default();
            let mut any_null = false;
            for &i in idx {
                let v = bm.get(i as usize);
                any_null |= !v;
                out.push(v);
            }
            if any_null {
                Some(Arc::new(out))
            } else {
                None
            }
        }
        match self {
            Column::Int { vals, valid } => Column::Int {
                vals: Arc::new(idx.iter().map(|&i| vals[i as usize]).collect()),
                valid: regather(valid, idx),
            },
            Column::Date { vals, valid } => Column::Date {
                vals: Arc::new(idx.iter().map(|&i| vals[i as usize]).collect()),
                valid: regather(valid, idx),
            },
            Column::Double { vals, valid } => Column::Double {
                vals: Arc::new(idx.iter().map(|&i| vals[i as usize]).collect()),
                valid: regather(valid, idx),
            },
            Column::Str { codes, dict, valid } => Column::Str {
                codes: Arc::new(idx.iter().map(|&i| codes[i as usize]).collect()),
                dict: dict.clone(),
                valid: regather(valid, idx),
            },
            Column::Mixed { vals } => Column::Mixed {
                vals: Arc::new(idx.iter().map(|&i| vals[i as usize].clone()).collect()),
            },
        }
    }
}

#[derive(Debug, Clone)]
enum Repr {
    Rows(Vec<Tuple>),
    Cols { cols: Arc<Vec<Column>>, offset: usize, len: usize },
}

/// A batch of tuples sharing one schema, in row or columnar layout.
#[derive(Debug, Clone)]
pub struct Batch {
    schema: Arc<Schema>,
    repr: Repr,
    /// Wire/memory size estimate, computed once at construction.
    bytes: usize,
}

impl Batch {
    /// Wrap `rows` (all conforming to `schema`) as a row-layout batch.
    pub fn new(schema: Arc<Schema>, rows: Vec<Tuple>) -> Self {
        let bytes = rows.iter().map(Tuple::byte_size).sum();
        Batch { schema, repr: Repr::Rows(rows), bytes }
    }

    /// Wrap typed columns (all the same length) as a columnar batch.
    pub fn from_columns(schema: Arc<Schema>, cols: Vec<Column>) -> Self {
        let len = cols.first().map(Column::len).unwrap_or(0);
        debug_assert!(cols.iter().all(|c| c.len() == len));
        let bytes = cols.iter().map(|c| c.range_bytes(0, len)).sum();
        Batch { schema, repr: Repr::Cols { cols: Arc::new(cols), offset: 0, len }, bytes }
    }

    /// The schema shared by every row of the batch.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn is_columnar(&self) -> bool {
        matches!(self.repr, Repr::Cols { .. })
    }

    /// The columns, base offset and length when in columnar layout.
    /// Row indices passed to [`Column`] accessors are absolute, i.e.
    /// `offset..offset + len`.
    pub fn columns(&self) -> Option<(&[Column], usize, usize)> {
        match &self.repr {
            Repr::Cols { cols, offset, len } => Some((cols, *offset, *len)),
            Repr::Rows(_) => None,
        }
    }

    /// Convert to columnar layout (no-op if already columnar). Values are
    /// moved out of the owned tuples, so strings are not copied (beyond
    /// one dictionary entry per distinct string).
    pub fn columnarize(self) -> Self {
        match self.repr {
            Repr::Cols { .. } => self,
            Repr::Rows(rows) => {
                let width = self.schema.len();
                let mut per_col: Vec<Vec<Value>> =
                    (0..width).map(|_| Vec::with_capacity(rows.len())).collect();
                for t in rows {
                    for (c, v) in t.0.into_iter().enumerate().take(width) {
                        per_col[c].push(v);
                    }
                }
                let cols = per_col.into_iter().map(Column::from_values).collect();
                Batch::from_columns(self.schema, cols)
            }
        }
    }

    /// Concatenate batches into one columnar batch. Contiguous slices of a
    /// shared column set (as produced by [`Batch::slice`]) are reassembled
    /// zero-copy.
    pub fn concat(schema: Arc<Schema>, batches: Vec<Batch>) -> Batch {
        if batches.is_empty() {
            return Batch::new(schema, Vec::new()).columnarize();
        }
        if batches.len() == 1 {
            return batches.into_iter().next().unwrap().columnarize();
        }
        // Zero-copy path: contiguous slices over one shared column set.
        let contiguous = {
            let mut ok = true;
            let mut expect: Option<(&Arc<Vec<Column>>, usize)> = None;
            for b in &batches {
                match (&b.repr, expect) {
                    (Repr::Cols { cols, offset, len }, None) => expect = Some((cols, offset + len)),
                    (Repr::Cols { cols, offset, len }, Some((base, at)))
                        if Arc::ptr_eq(cols, base) && *offset == at =>
                    {
                        expect = Some((base, offset + len));
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            ok
        };
        if contiguous {
            let (first_off, mut total) = match &batches[0].repr {
                Repr::Cols { offset, len, .. } => (*offset, *len),
                _ => unreachable!(),
            };
            for b in &batches[1..] {
                if let Repr::Cols { len, .. } = &b.repr {
                    total += len;
                }
            }
            let bytes = batches.iter().map(|b| b.bytes).sum();
            let cols = match batches.into_iter().next().unwrap().repr {
                Repr::Cols { cols, .. } => cols,
                _ => unreachable!(),
            };
            return Batch {
                schema,
                repr: Repr::Cols { cols, offset: first_off, len: total },
                bytes,
            };
        }
        // General path: rebuild per-column value vectors (moving values out
        // of row batches, materializing columnar ones).
        let width = schema.len();
        let rows_total: usize = batches.iter().map(Batch::len).sum();
        let mut per_col: Vec<Vec<Value>> =
            (0..width).map(|_| Vec::with_capacity(rows_total)).collect();
        for b in batches {
            match b.repr {
                Repr::Rows(rows) => {
                    for t in rows {
                        for (c, v) in t.0.into_iter().enumerate().take(width) {
                            per_col[c].push(v);
                        }
                    }
                }
                Repr::Cols { cols, offset, len } => {
                    for (c, col) in cols.iter().enumerate().take(width) {
                        for i in offset..offset + len {
                            per_col[c].push(col.value_at(i));
                        }
                    }
                }
            }
        }
        let cols = per_col.into_iter().map(Column::from_values).collect();
        Batch::from_columns(schema, cols)
    }

    /// Materialize row `i` (batch-relative) as a `Tuple`.
    pub fn tuple_at(&self, i: usize) -> Tuple {
        match &self.repr {
            Repr::Rows(rows) => rows[i].clone(),
            Repr::Cols { cols, offset, .. } => {
                Tuple(cols.iter().map(|c| c.value_at(offset + i)).collect())
            }
        }
    }

    /// Materialize the value at (`row`, `col`), batch-relative.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        match &self.repr {
            Repr::Rows(rows) => rows[row].0[col].clone(),
            Repr::Cols { cols, offset, .. } => cols[col].value_at(offset + row),
        }
    }

    /// Flat `i64` view of an `Int`/`Date` column with no nulls in scope —
    /// the hot-path accessor for sort keys, group boundaries and interval
    /// endpoints. `None` when the batch is row-layout, the column is not
    /// integer-typed, or it contains nulls.
    pub fn int_col(&self, col: usize) -> Option<&[i64]> {
        match &self.repr {
            Repr::Rows(_) => None,
            Repr::Cols { cols, offset, len } => match &cols[col] {
                Column::Int { vals, valid: None } | Column::Date { vals, valid: None } => {
                    Some(&vals[*offset..offset + len])
                }
                _ => None,
            },
        }
    }

    /// Zero-copy sub-range `[from, from + n)` of a columnar batch (row
    /// batches copy).
    pub fn slice(&self, from: usize, n: usize) -> Batch {
        match &self.repr {
            Repr::Rows(rows) => Batch::new(self.schema.clone(), rows[from..from + n].to_vec()),
            Repr::Cols { cols, offset, len } => {
                debug_assert!(from + n <= *len);
                let bytes =
                    cols.iter().map(|c| c.range_bytes(offset + from, offset + from + n)).sum();
                Batch {
                    schema: self.schema.clone(),
                    repr: Repr::Cols { cols: cols.clone(), offset: offset + from, len: n },
                    bytes,
                }
            }
        }
    }

    /// Gather rows at batch-relative indices `idx` into a fresh batch.
    pub fn gather(&self, idx: &[u32]) -> Batch {
        match &self.repr {
            Repr::Rows(rows) => Batch::new(
                self.schema.clone(),
                idx.iter().map(|&i| rows[i as usize].clone()).collect(),
            ),
            Repr::Cols { cols, offset, .. } => {
                let abs: Vec<u32> = idx.iter().map(|&i| i + *offset as u32).collect();
                let cols = cols.iter().map(|c| c.gather(&abs)).collect();
                Batch::from_columns(self.schema.clone(), cols)
            }
        }
    }

    /// Keep only the named column indices (zero-copy for columnar batches).
    pub fn select_columns(&self, idx: &[usize], schema: Arc<Schema>) -> Option<Batch> {
        match &self.repr {
            Repr::Rows(_) => None,
            Repr::Cols { cols, offset, len } => {
                let picked: Vec<Column> = idx.iter().map(|&i| cols[i].clone()).collect();
                let bytes = picked.iter().map(|c| c.range_bytes(*offset, offset + len)).sum();
                Some(Batch {
                    schema,
                    repr: Repr::Cols { cols: Arc::new(picked), offset: *offset, len: *len },
                    bytes,
                })
            }
        }
    }

    /// Consume the batch, yielding its rows (materializing if columnar).
    pub fn into_rows(self) -> Vec<Tuple> {
        match self.repr {
            Repr::Rows(rows) => rows,
            Repr::Cols { cols, offset, len } => (0..len)
                .map(|i| Tuple(cols.iter().map(|c| c.value_at(offset + i)).collect()))
                .collect(),
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Rows(rows) => rows.len(),
            Repr::Cols { len, .. } => *len,
        }
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total wire/memory size estimate of all rows, in bytes. Cached at
    /// construction — O(1) per call.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attr;
    use crate::tup;
    use crate::value::Type;

    fn abc_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Attr::new("A", Type::Int),
            Attr::new("B", Type::Str),
            Attr::new("C", Type::Double),
        ]))
    }

    #[test]
    fn batch_accessors() {
        let schema = Arc::new(Schema::new(vec![Attr::new("A", Type::Int)]));
        let b = Batch::new(schema.clone(), vec![tup![1], tup![2]]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.schema().len(), 1);
        assert_eq!(b.byte_size(), tup![1].byte_size() + tup![2].byte_size());
        assert_eq!(b.into_rows(), vec![tup![1], tup![2]]);
    }

    #[test]
    fn columnar_round_trip_is_exact() {
        let schema = abc_schema();
        let rows = vec![
            Tuple(vec![Value::Int(1), Value::Str("x".into()), Value::Double(1.5)]),
            Tuple(vec![Value::Null, Value::Str("x".into()), Value::Double(-0.0)]),
            Tuple(vec![Value::Int(3), Value::Null, Value::Double(f64::NAN)]),
        ];
        let b = Batch::new(schema, rows.clone()).columnarize();
        assert!(b.is_columnar());
        let back = b.clone().into_rows();
        assert_eq!(back.len(), rows.len());
        for (got, want) in back.iter().zip(&rows) {
            for (g, w) in got.0.iter().zip(&want.0) {
                // Bit-exact, variant-exact comparison (Value::eq is looser).
                assert_eq!(format!("{g:?}"), format!("{w:?}"));
            }
        }
        assert_eq!(b.byte_size(), rows.iter().map(Tuple::byte_size).sum::<usize>());
    }

    #[test]
    fn int_and_date_stay_distinct() {
        let schema = Arc::new(Schema::new(vec![Attr::new("D", Type::Date)]));
        let b = Batch::new(schema, vec![Tuple(vec![Value::Date(5)])]).columnarize();
        assert!(matches!(b.tuple_at(0).0[0], Value::Date(5)));
        // Mixed Int/Date column falls back to exact values.
        let schema = Arc::new(Schema::new(vec![Attr::new("D", Type::Int)]));
        let b = Batch::new(schema, vec![Tuple(vec![Value::Int(5)]), Tuple(vec![Value::Date(5)])])
            .columnarize();
        assert!(matches!(b.tuple_at(0).0[0], Value::Int(5)));
        assert!(matches!(b.tuple_at(1).0[0], Value::Date(5)));
        assert!(b.int_col(0).is_none());
    }

    #[test]
    fn slice_and_concat_zero_copy() {
        let schema = abc_schema();
        let rows: Vec<Tuple> = (0..100)
            .map(|i| {
                Tuple(vec![
                    Value::Int(i),
                    Value::Str(format!("s{}", i % 3)),
                    Value::Double(i as f64),
                ])
            })
            .collect();
        let b = Batch::new(schema.clone(), rows.clone()).columnarize();
        let s1 = b.slice(0, 40);
        let s2 = b.slice(40, 60);
        assert_eq!(s1.len(), 40);
        assert_eq!(s1.byte_size() + s2.byte_size(), b.byte_size());
        let whole = Batch::concat(schema, vec![s1, s2]);
        assert_eq!(whole.len(), 100);
        assert_eq!(whole.into_rows(), rows);
    }

    #[test]
    fn concat_mixed_reprs() {
        let schema = abc_schema();
        let mk = |lo: i64, hi: i64| -> Vec<Tuple> {
            (lo..hi)
                .map(|i| Tuple(vec![Value::Int(i), Value::Str("k".into()), Value::Double(0.5)]))
                .collect()
        };
        let b1 = Batch::new(schema.clone(), mk(0, 10));
        let b2 = Batch::new(schema.clone(), mk(10, 20)).columnarize();
        let out = Batch::concat(schema.clone(), vec![b1, b2]);
        assert_eq!(out.len(), 20);
        assert_eq!(out.into_rows(), mk(0, 20));
    }

    #[test]
    fn gather_and_int_col() {
        let schema =
            Arc::new(Schema::new(vec![Attr::new("T1", Type::Int), Attr::new("T2", Type::Int)]));
        let rows: Vec<Tuple> =
            (0..10).map(|i| Tuple(vec![Value::Int(i), Value::Int(i + 10)])).collect();
        let b = Batch::new(schema, rows).columnarize();
        assert_eq!(b.int_col(0).unwrap(), (0..10).collect::<Vec<i64>>().as_slice());
        let g = b.gather(&[3, 1, 4]);
        assert_eq!(g.int_col(0).unwrap(), &[3, 1, 4]);
        assert_eq!(g.int_col(1).unwrap(), &[13, 11, 14]);
        assert_eq!(g.byte_size(), 3 * 16);
    }

    #[test]
    fn nulls_round_trip_through_gather_and_slice() {
        let schema = Arc::new(Schema::new(vec![Attr::new("A", Type::Int)]));
        let rows =
            vec![Tuple(vec![Value::Int(1)]), Tuple(vec![Value::Null]), Tuple(vec![Value::Int(3)])];
        let b = Batch::new(schema, rows.clone()).columnarize();
        assert!(b.int_col(0).is_none()); // nulls present
        assert_eq!(b.slice(1, 2).into_rows(), rows[1..3].to_vec());
        assert_eq!(
            b.gather(&[2, 1, 0]).into_rows(),
            vec![rows[2].clone(), rows[1].clone(), rows[0].clone()]
        );
    }
}
