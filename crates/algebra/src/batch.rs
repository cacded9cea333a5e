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
//!   breakers (sort, TAGGR) columnarize once and run their
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
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// The default number of rows per batch. Large enough to amortize
/// per-batch overhead, small enough to keep a batch cache-resident.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// A string dictionary inverted: each string to its code. Hashed with
/// [`FxHasher`], as dictionaries are built one value at a time.
pub type StrCodes = HashMap<String, u32, BuildHasherDefault<FxHasher>>;

/// The multiply-rotate hash of the Rust compiler's own tables: several
/// times cheaper than the default SipHash on short strings. Dictionary
/// keys are data values, not adversarial input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail));
    }

    fn write_u8(&mut self, b: u8) {
        self.add(b as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

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

    /// Number of valid (non-null) rows in `from..to`, counted a word at
    /// a time (every slice of a nullable column asks).
    pub fn count_valid(&self, from: usize, to: usize) -> usize {
        if from >= to {
            return 0;
        }
        let (first, last) = (from / 64, (to - 1) / 64);
        let lo = u64::MAX << (from % 64);
        let hi = u64::MAX >> (63 - (to - 1) % 64);
        if first == last {
            return (self.words[first] & lo & hi).count_ones() as usize;
        }
        let inner: u32 = self.words[first + 1..last].iter().map(|w| w.count_ones()).sum();
        ((self.words[first] & lo).count_ones() + inner + (self.words[last] & hi).count_ones())
            as usize
    }

    /// Set or clear bit `i`.
    fn set(&mut self, i: usize, valid: bool) {
        let (w, b) = (i / 64, i % 64);
        self.words[w] = (self.words[w] & !(1 << b)) | ((valid as u64) << b);
    }

    /// Keep the bits `keep` marks, in order, moving each down in place.
    fn retain(&mut self, keep: &[bool]) {
        let mut j = 0;
        for (i, _) in keep.iter().enumerate().filter(|(_, k)| **k) {
            // j <= i: bit i is read before any write reaches it
            self.set(j, self.get(i));
            j += 1;
        }
        self.len = j;
        self.words.truncate(j.div_ceil(64));
        if let Some(last) = self.words.last_mut() {
            *last &= u64::MAX >> ((64 - j % 64) % 64);
        }
    }

    /// `len` rows, all valid.
    fn all_valid(len: usize) -> Bitmap {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            // bits past `len` stay clear: `push` only ever sets
            *last >>= (64 - len % 64) % 64;
        }
        Bitmap { words, len }
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
    /// round-trips every variant (see [`ColumnBuilder`]).
    pub fn from_values(vals: Vec<Value>) -> Column {
        let mut b = ColumnBuilder::default();
        for v in vals {
            b.push(v);
        }
        b.finish()
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

    /// Push row `at[k]` (absolute index) onto `rows[k]`, one value per
    /// tuple — the layout is matched here, once, not once per cell.
    pub fn push_rows(&self, at: impl IntoIterator<Item = usize>, rows: &mut [Tuple]) {
        fn fill<T: Copy>(
            vals: &[T],
            valid: &Option<Arc<Bitmap>>,
            at: impl IntoIterator<Item = usize>,
            rows: &mut [Tuple],
            value: impl Fn(T) -> Value,
        ) {
            let cells = rows.iter_mut().zip(at);
            match valid {
                None => cells.for_each(|(t, i)| t.0.push(value(vals[i]))),
                Some(bm) => cells.for_each(|(t, i)| {
                    t.0.push(if bm.get(i) { value(vals[i]) } else { Value::Null })
                }),
            }
        }
        match self {
            Column::Int { vals, valid } => fill(vals, valid, at, rows, Value::Int),
            Column::Date { vals, valid } => {
                fill(vals, valid, at, rows, |d| Value::Date(d as crate::date::Day))
            }
            Column::Double { vals, valid } => fill(vals, valid, at, rows, Value::Double),
            Column::Str { codes, dict, valid } => {
                fill(codes, valid, at, rows, |c| Value::Str(dict[c as usize].clone()))
            }
            Column::Mixed { vals } => {
                rows.iter_mut().zip(at).for_each(|(t, i)| t.0.push(vals[i].clone()))
            }
        }
    }

    /// Append `vals` in place: a stored table's INSERT. A string finds
    /// its dictionary code in `codes`, the column's dictionary inverted,
    /// which this keeps in step. A value the layout cannot hold (the
    /// first non-NULL of an untyped column, or a second variant) rebuilds
    /// the column once through a [`ColumnBuilder`], with the rest.
    pub fn extend(&mut self, vals: impl IntoIterator<Item = Value>, codes: &mut StrCodes) {
        let mut vals = vals.into_iter();
        while let Some(v) = vals.next() {
            if let Err(v) = self.push_in_place(v, codes) {
                let mut b = self.reopen(|_| None);
                b.push(v);
                vals.for_each(|v| b.push(v));
                (*self, *codes) = b.finish_with_codes();
                return;
            }
        }
    }

    /// Overwrite row `i` with `v` in place: a stored table's UPDATE. A
    /// value the layout cannot hold rebuilds the column, as in
    /// [`Column::extend`].
    pub fn set(&mut self, i: usize, v: &Value, codes: &mut StrCodes) {
        fn put<T>(xs: &mut Arc<Vec<T>>, valid: &mut Option<Arc<Bitmap>>, i: usize, x: T)
        where
            T: Clone,
        {
            Arc::make_mut(xs)[i] = x;
            if let Some(bm) = valid {
                Arc::make_mut(bm).set(i, true);
            }
        }
        let n = self.len();
        match (&mut *self, v) {
            (Column::Int { vals, valid }, Value::Int(x)) => put(vals, valid, i, *x),
            (Column::Date { vals, valid }, Value::Date(d)) => put(vals, valid, i, *d as i64),
            (Column::Double { vals, valid }, Value::Double(x)) => put(vals, valid, i, *x),
            (Column::Str { codes: cs, dict, valid }, Value::Str(s)) => {
                let code = dict_code(dict, codes, s);
                put(cs, valid, i, code)
            }
            (
                Column::Int { valid, .. }
                | Column::Date { valid, .. }
                | Column::Double { valid, .. }
                | Column::Str { valid, .. },
                Value::Null,
            ) => Arc::make_mut(valid.get_or_insert_with(|| Arc::new(Bitmap::all_valid(n))))
                .set(i, false),
            (Column::Mixed { vals }, v) if v.is_null() || vals.iter().any(|x| !x.is_null()) => {
                Arc::make_mut(vals)[i] = v.clone()
            }
            _ => {
                (*self, *codes) = self.reopen(|j| (j == i).then(|| v.clone())).finish_with_codes();
            }
        }
    }

    /// Keep the rows `keep` marks, in order, compacting in place: a
    /// stored table's DELETE.
    pub fn retain(&mut self, keep: &[bool]) {
        fn compact<T: Clone>(xs: &mut Arc<Vec<T>>, keep: &[bool]) {
            let mut k = keep.iter();
            Arc::make_mut(xs).retain(|_| k.next() == Some(&true));
        }
        fn compact_valid(valid: &mut Option<Arc<Bitmap>>, keep: &[bool]) {
            if let Some(bm) = valid {
                Arc::make_mut(bm).retain(keep);
            }
        }
        match self {
            Column::Int { vals, valid } | Column::Date { vals, valid } => {
                compact(vals, keep);
                compact_valid(valid, keep);
            }
            Column::Double { vals, valid } => {
                compact(vals, keep);
                compact_valid(valid, keep);
            }
            Column::Str { codes, valid, .. } => {
                compact(codes, keep);
                compact_valid(valid, keep);
            }
            Column::Mixed { vals } => compact(vals, keep),
        }
    }

    /// Append `v` if the layout holds it as it is; else give it back.
    fn push_in_place(&mut self, v: Value, codes: &mut StrCodes) -> Result<(), Value> {
        fn push<T: Clone>(xs: &mut Arc<Vec<T>>, valid: &mut Option<Arc<Bitmap>>, x: T, ok: bool) {
            let n = xs.len();
            Arc::make_mut(xs).push(x);
            match valid {
                Some(bm) => Arc::make_mut(bm).push(ok),
                None if ok => {}
                None => {
                    let mut bm = Bitmap::all_valid(n);
                    bm.push(false);
                    *valid = Some(Arc::new(bm));
                }
            }
        }
        match (self, v) {
            (Column::Int { vals, valid }, Value::Int(x)) => push(vals, valid, x, true),
            (Column::Date { vals, valid }, Value::Date(d)) => push(vals, valid, d as i64, true),
            (Column::Double { vals, valid }, Value::Double(x)) => push(vals, valid, x, true),
            (Column::Str { codes: cs, dict, valid }, Value::Str(s)) => {
                let code = dict_code(dict, codes, &s);
                push(cs, valid, code, true)
            }
            (Column::Int { vals, valid } | Column::Date { vals, valid }, Value::Null) => {
                push(vals, valid, 0, false)
            }
            (Column::Double { vals, valid }, Value::Null) => push(vals, valid, 0.0, false),
            (Column::Str { codes: cs, valid, .. }, Value::Null) => push(cs, valid, 0, false),
            // a column that holds only NULLs has no type yet
            (Column::Mixed { vals }, v) if v.is_null() || vals.iter().any(|x| !x.is_null()) => {
                Arc::make_mut(vals).push(v)
            }
            (_, v) => return Err(v),
        }
        Ok(())
    }

    /// A builder holding this column's values, with `replace(i)`'s value
    /// in place of row `i` where it gives one.
    fn reopen(&self, replace: impl Fn(usize) -> Option<Value>) -> ColumnBuilder {
        let mut b = ColumnBuilder::default();
        (0..self.len()).for_each(|i| b.push(replace(i).unwrap_or_else(|| self.value_at(i))));
        b
    }

    /// Rows `rows` (every row when `None`), in order, as a column that
    /// shares no buffer with this one: a string column's dictionary keeps
    /// only the strings those rows hold. The result is the column
    /// [`Column::from_values`] builds from the rows' values, copied from
    /// the typed vectors without boxing one.
    pub fn copied(&self, rows: Option<&[u32]>) -> Column {
        match rows {
            Some(ids) => Column::concat(&[(&self.gather(ids), 0, ids.len())]),
            None => Column::concat(&[(self, 0, self.len())]),
        }
    }

    /// The rows `from..to` of each piece, one piece after another, as one
    /// column: the column a [`ColumnBuilder`] fed their values builds.
    /// Where every piece with rows shares a typed layout, the typed
    /// vectors are copied and string dictionaries merged; otherwise the
    /// values go through a builder.
    fn concat(pieces: &[(&Column, usize, usize)]) -> Column {
        let pieces: Vec<_> = pieces.iter().filter(|(_, from, to)| from < to).copied().collect();
        let n: usize = pieces.iter().map(|(_, from, to)| to - from).sum();
        let layout = |c: &Column| std::mem::discriminant(c);
        let uniform = pieces.windows(2).all(|w| layout(w[0].0) == layout(w[1].0));
        let nullable = pieces.iter().any(|(c, from, to)| c.nulls_in(*from, *to));
        let valid = nullable.then(|| {
            let mut bm = Bitmap::default();
            pieces
                .iter()
                .for_each(|(c, from, to)| (*from..*to).for_each(|i| bm.push(c.is_valid(i))));
            Arc::new(bm)
        });
        /// The pieces' typed vectors end to end, a NULL slot zeroed;
        /// `None` if a piece has another layout.
        fn join<T: Copy + Default>(
            pieces: &[(&Column, usize, usize)],
            n: usize,
            vals: impl Fn(&Column) -> Option<&[T]>,
        ) -> Option<Vec<T>> {
            let mut out = Vec::with_capacity(n);
            for (c, from, to) in pieces {
                let at = out.len();
                out.extend_from_slice(&vals(c)?[*from..*to]);
                if c.nulls_in(*from, *to) {
                    (*from..*to)
                        .filter(|&i| !c.is_valid(i))
                        .for_each(|i| out[at + i - from] = T::default());
                }
            }
            Some(out)
        }
        fn ints(c: &Column) -> Option<&[i64]> {
            match c {
                Column::Int { vals, .. } | Column::Date { vals, .. } => Some(vals),
                _ => None,
            }
        }
        fn doubles(c: &Column) -> Option<&[f64]> {
            match c {
                Column::Double { vals, .. } => Some(vals),
                _ => None,
            }
        }
        /// The pieces' codes re-coded into one merged dictionary; `None`
        /// if a piece is not a string column.
        fn strs(pieces: &[(&Column, usize, usize)], n: usize) -> Option<(Vec<u32>, Vec<String>)> {
            let mut merged = StrMerge::default();
            let mut codes = Vec::with_capacity(n);
            for (c, from, to) in pieces {
                let Column::Str { codes: cs, dict, .. } = c else { return None };
                merged.switch_to(dict);
                codes.extend((*from..*to).map(|i| {
                    if c.is_valid(i) {
                        merged.code(dict, cs[i])
                    } else {
                        0
                    }
                }));
            }
            Some((codes, merged.dict))
        }
        let typed = match pieces.first().map(|p| p.0) {
            _ if !uniform => None,
            Some(Column::Int { .. }) => {
                join(&pieces, n, ints).map(|v| Column::Int { vals: Arc::new(v), valid })
            }
            Some(Column::Date { .. }) => {
                join(&pieces, n, ints).map(|v| Column::Date { vals: Arc::new(v), valid })
            }
            Some(Column::Double { .. }) => {
                join(&pieces, n, doubles).map(|v| Column::Double { vals: Arc::new(v), valid })
            }
            Some(Column::Str { .. }) => strs(&pieces, n).map(|(codes, dict)| Column::Str {
                codes: Arc::new(codes),
                dict: Arc::new(dict),
                valid,
            }),
            _ => None,
        };
        let Some(col) = typed else {
            let mut b = ColumnBuilder::default();
            pieces
                .iter()
                .for_each(|(c, from, to)| (*from..*to).for_each(|i| b.push(c.value_at(i))));
            return b.finish();
        };
        col.typed_or_nulls()
    }

    /// Whether a row in `from..to` is NULL.
    fn nulls_in(&self, from: usize, to: usize) -> bool {
        match self {
            Column::Int { valid, .. }
            | Column::Date { valid, .. }
            | Column::Double { valid, .. }
            | Column::Str { valid, .. } => {
                valid.as_ref().is_some_and(|bm| bm.count_valid(from, to) < to - from)
            }
            Column::Mixed { vals } => vals[from..to].iter().any(Value::is_null),
        }
    }

    /// A typed column that holds no value has no type yet: the builder
    /// finishes it as [`Column::Mixed`] NULLs.
    fn typed_or_nulls(self) -> Column {
        let n = self.len();
        let holds_value = match &self {
            Column::Mixed { .. } => true,
            Column::Int { valid, .. }
            | Column::Date { valid, .. }
            | Column::Double { valid, .. }
            | Column::Str { valid, .. } => {
                n > 0 && valid.as_ref().is_none_or(|bm| bm.count_valid(0, n) > 0)
            }
        };
        match holds_value {
            true => self,
            false => Column::Mixed { vals: Arc::new(vec![Value::Null; n]) },
        }
    }
}

/// A string dictionary's codes found by hash, holding no second copy of
/// its strings: an open-addressing table of codes into the dictionary it
/// indexes, and each code's hash, so growing the table reads no string.
#[derive(Debug, Clone, Default)]
struct DictIndex {
    /// A code per slot, [`DictIndex::FREE`] where none; the length is a
    /// power of two, at least twice the codes held.
    slots: Vec<u32>,
    /// The hash of each code's string.
    hashes: Vec<u64>,
}

impl DictIndex {
    const FREE: u32 = u32::MAX;

    /// An index of every string of `dict` (which holds each once).
    fn of(dict: &[String]) -> DictIndex {
        let mut index =
            DictIndex { slots: Vec::new(), hashes: dict.iter().map(|s| str_hash(s)).collect() };
        index.resize();
        index
    }

    /// The code of `s` in `dict`; a string `dict` does not hold is
    /// appended (moved if owned) and given the next code.
    fn code(&mut self, dict: &mut Vec<String>, s: Cow<'_, str>) -> u32 {
        if 2 * (dict.len() + 1) > self.slots.len() {
            self.resize();
        }
        let h = str_hash(&s);
        let i = self.find(h, |c| dict[c as usize] == *s);
        if self.slots[i] == Self::FREE {
            self.slots[i] = dict.len() as u32;
            self.hashes.push(h);
            dict.push(s.into_owned());
        }
        self.slots[i]
    }

    /// The slot of hash `h` holding a code `is` accepts, or the free one
    /// a new code would take.
    fn find(&self, h: u64, is: impl Fn(u32) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        // the hash's last step is a multiply: its high bits mix best
        let mut i = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let c = self.slots[i];
            if c == Self::FREE || (self.hashes[c as usize] == h && is(c)) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Re-slot every code into a table with room for one more.
    fn resize(&mut self) {
        self.slots = vec![Self::FREE; (4 * (self.hashes.len() + 1)).next_power_of_two()];
        for c in 0..self.hashes.len() {
            // codes are distinct: each takes the first free slot it meets
            let i = self.find(self.hashes[c], |_| false);
            self.slots[i] = c as u32;
        }
    }
}

/// [`FxHasher`] over a string's bytes.
fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// String dictionaries merged into one, codes in first-use order: each
/// source dictionary's codes map through a table built as they are met.
/// A dictionary holds each string once, so while one source has been
/// read nothing is hashed; the merged strings are indexed by hash only
/// once a second source arrives.
#[derive(Default)]
struct StrMerge {
    dict: Vec<String>,
    /// `dict`'s index, once a second source made it needed.
    by_str: Option<DictIndex>,
    /// The source dictionary `remap` is for, by address, and each of its
    /// codes' merged code (`u32::MAX` until met).
    source: Option<*const Vec<String>>,
    remap: Vec<u32>,
}

impl StrMerge {
    /// Read codes of `dict` from here on.
    fn switch_to(&mut self, dict: &Arc<Vec<String>>) {
        let ptr = Arc::as_ptr(dict);
        if self.source.is_some_and(|s| s != ptr) && self.by_str.is_none() {
            self.by_str = Some(DictIndex::of(&self.dict));
        }
        if self.source != Some(ptr) {
            self.source = Some(ptr);
            self.remap.clear();
        }
    }

    /// The merged code of source code `c` of `dict`.
    fn code(&mut self, dict: &[String], c: u32) -> u32 {
        if self.remap.len() < dict.len() {
            self.remap.resize(dict.len(), u32::MAX);
        }
        let slot = &mut self.remap[c as usize];
        if *slot == u32::MAX {
            let s = &dict[c as usize];
            *slot = match &mut self.by_str {
                Some(index) => index.code(&mut self.dict, Cow::Borrowed(s)),
                None => {
                    self.dict.push(s.clone());
                    self.dict.len() as u32 - 1
                }
            };
        }
        *slot
    }
}

/// The code of `s` in `dict`, found through `codes` by hash; a new string
/// is appended to both.
fn dict_code(dict: &mut Arc<Vec<String>>, codes: &mut StrCodes, s: &str) -> u32 {
    if let Some(&c) = codes.get(s) {
        return c;
    }
    let c = dict.len() as u32;
    Arc::make_mut(dict).push(s.to_string());
    codes.insert(s.to_string(), c);
    c
}

/// Builds a [`Column`] one value at a time — the one place a column's
/// layout is decided ([`Column::from_values`] is a loop over `push`).
/// From the first non-null value on, values land in a typed vector
/// (`i64`s, `f64`s, dictionary codes in first-occurrence order) and a NULL
/// is a zero slot under a cleared validity bit; the bitmap exists only
/// once a NULL was pushed. A second variant in one column (`Int` rows
/// among `Date` rows) demotes it to exact values, and a column that never
/// saw a non-null value has no type and finishes as [`Column::Mixed`] too.
#[derive(Debug, Clone, Default)]
pub struct ColumnBuilder {
    vals: Building,
    /// Validity of the rows so far; `None` until the first NULL.
    valid: Option<Bitmap>,
}

#[derive(Debug, Clone)]
enum Building {
    /// This many NULLs and nothing else yet: the type is still open.
    Nulls(usize),
    Int(Vec<i64>),
    Date(Vec<i64>),
    Double(Vec<f64>),
    Str {
        codes: Vec<u32>,
        dict: Vec<String>,
        index: DictIndex,
    },
    Mixed(Vec<Value>),
}

impl Default for Building {
    fn default() -> Self {
        Building::Nulls(0)
    }
}

impl ColumnBuilder {
    /// Append one value.
    pub fn push(&mut self, v: Value) {
        use Building::*;
        /// `n` null slots, then the value that types the column.
        fn typed<T: Clone + Default>(n: usize, v: T) -> Vec<T> {
            let mut xs = vec![T::default(); n];
            xs.push(v);
            xs
        }
        let (n, is_valid) = (self.len(), !v.is_null());
        match (&mut self.vals, v) {
            (Mixed(vs), v) => return vs.push(v),
            (Nulls(k), Value::Null) => *k += 1,
            (Int(xs) | Date(xs), Value::Null) => xs.push(0),
            (Double(xs), Value::Null) => xs.push(0.0),
            (Str { codes, .. }, Value::Null) => codes.push(0),
            (Int(xs), Value::Int(x)) => xs.push(x),
            (Date(xs), Value::Date(d)) => xs.push(d as i64),
            (Double(xs), Value::Double(x)) => xs.push(x),
            (Str { codes, dict, index }, Value::Str(s)) => {
                codes.push(index.code(dict, Cow::Owned(s)));
            }
            (Nulls(_), Value::Int(x)) => self.vals = Int(typed(n, x)),
            (Nulls(_), Value::Date(d)) => self.vals = Date(typed(n, d as i64)),
            (Nulls(_), Value::Double(x)) => self.vals = Double(typed(n, x)),
            (Nulls(_), Value::Str(s)) => {
                let (mut dict, mut index) = (Vec::new(), DictIndex::default());
                index.code(&mut dict, Cow::Owned(s));
                self.vals = Str { codes: typed(n, 0), dict, index };
            }
            (_, v) => {
                // a second variant: exact values from here on
                let col = std::mem::take(self).finish();
                let mut vs: Vec<Value> = (0..n).map(|i| col.value_at(i)).collect();
                vs.push(v);
                return self.vals = Mixed(vs);
            }
        }
        match &mut self.valid {
            Some(bm) => bm.push(is_valid),
            None if is_valid => {}
            None => {
                let mut bm = Bitmap::all_valid(n);
                bm.push(false);
                self.valid = Some(bm);
            }
        }
    }

    /// Append `Value::Int(x)`; into an `Int` column without building the
    /// `Value`.
    pub(crate) fn push_int(&mut self, x: i64) {
        let Building::Int(xs) = &mut self.vals else { return self.push(Value::Int(x)) };
        xs.push(x);
        self.push_valid();
    }

    /// Append `Value::Date(d)`; into a `Date` column without building the
    /// `Value`.
    pub(crate) fn push_date(&mut self, d: crate::date::Day) {
        let Building::Date(xs) = &mut self.vals else { return self.push(Value::Date(d)) };
        xs.push(d as i64);
        self.push_valid();
    }

    /// Append `Value::Double(x)`; into a `Double` column without building
    /// the `Value`.
    pub(crate) fn push_double(&mut self, x: f64) {
        let Building::Double(xs) = &mut self.vals else { return self.push(Value::Double(x)) };
        xs.push(x);
        self.push_valid();
    }

    /// Append `Value::Str(s)`; into a `Str` column the dictionary is
    /// searched by `&str`, so a string it holds allocates nothing and a
    /// new one is copied once, into the dictionary.
    pub(crate) fn push_str(&mut self, s: &str) {
        let Building::Str { codes, dict, index } = &mut self.vals else {
            return self.push(Value::Str(s.to_string()));
        };
        codes.push(index.code(dict, Cow::Borrowed(s)));
        self.push_valid();
    }

    /// The validity of a value just pushed into a typed vector.
    fn push_valid(&mut self) {
        if let Some(bm) = &mut self.valid {
            bm.push(true);
        }
    }

    /// Values pushed so far.
    pub fn len(&self) -> usize {
        match &self.vals {
            Building::Nulls(n) => *n,
            Building::Int(xs) | Building::Date(xs) => xs.len(),
            Building::Double(xs) => xs.len(),
            Building::Str { codes, .. } => codes.len(),
            Building::Mixed(vs) => vs.len(),
        }
    }

    /// Whether nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The finished column.
    pub fn finish(self) -> Column {
        let valid = self.valid.map(Arc::new);
        match self.vals {
            Building::Nulls(n) => Column::Mixed { vals: Arc::new(vec![Value::Null; n]) },
            Building::Int(vals) => Column::Int { vals: Arc::new(vals), valid },
            Building::Date(vals) => Column::Date { vals: Arc::new(vals), valid },
            Building::Double(vals) => Column::Double { vals: Arc::new(vals), valid },
            Building::Str { codes, dict, .. } => {
                Column::Str { codes: Arc::new(codes), dict: Arc::new(dict), valid }
            }
            Building::Mixed(vals) => Column::Mixed { vals: Arc::new(vals) },
        }
    }

    /// The finished column, and a string column's dictionary inverted
    /// (empty for any other layout): what a stored table keeps beside its
    /// column so an INSERT finds a string's code by hash.
    pub fn finish_with_codes(self) -> (Column, StrCodes) {
        let col = self.finish();
        let codes = match &col {
            Column::Str { dict, .. } => {
                dict.iter().enumerate().map(|(c, s)| (s.clone(), c as u32)).collect()
            }
            _ => StrCodes::default(),
        };
        (col, codes)
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

    /// Finish one builder per attribute of `schema` into a columnar batch.
    pub fn from_builders(schema: Arc<Schema>, cols: Vec<ColumnBuilder>) -> Self {
        Batch::from_columns(schema, cols.into_iter().map(ColumnBuilder::finish).collect())
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
                let mut cols = vec![ColumnBuilder::default(); self.schema.len()];
                for t in rows {
                    cols.iter_mut().zip(t.0).for_each(|(col, v)| col.push(v));
                }
                Batch::from_builders(self.schema, cols)
            }
        }
    }

    /// Concatenate batches into one columnar batch. Contiguous slices of a
    /// shared column set (as produced by [`Batch::slice`]) are reassembled
    /// zero-copy.
    pub fn concat(schema: Arc<Schema>, mut batches: Vec<Batch>) -> Batch {
        if batches.len() <= 1 {
            return match batches.pop() {
                Some(b) => b.columnarize(),
                None => Batch::new(schema, Vec::new()).columnarize(),
            };
        }
        // Zero-copy path: contiguous slices over one shared column set,
        // as (columns, first offset, total length).
        let shared = batches.iter().try_fold(None, |run, b| match (&b.repr, run) {
            (Repr::Cols { cols, offset, len }, None) => Some(Some((cols, *offset, *len))),
            (Repr::Cols { cols, offset, len }, Some((base, first, total)))
                if Arc::ptr_eq(cols, base) && *offset == first + total =>
            {
                Some(Some((base, first, total + len)))
            }
            _ => None,
        });
        if let Some(Some((cols, offset, len))) = shared {
            let cols = cols.clone();
            let bytes = batches.iter().map(|b| b.bytes).sum();
            return Batch { schema, repr: Repr::Cols { cols, offset, len }, bytes };
        }
        // General path: each column concatenated from the batches' typed
        // vectors (a row batch columnarized first).
        let batches: Vec<Batch> = batches.into_iter().map(Batch::columnarize).collect();
        let cols = (0..schema.len())
            .map(|c| {
                let pieces: Vec<(&Column, usize, usize)> = batches
                    .iter()
                    .filter_map(|b| b.columns())
                    .map(|(cols, offset, len)| (&cols[c], offset, offset + len))
                    .collect();
                Column::concat(&pieces)
            })
            .collect();
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

    /// The same rows under another handle of their schema (a cache hit is
    /// served under the asking plan node's attribute names).
    pub fn with_schema(mut self, schema: Arc<Schema>) -> Batch {
        debug_assert_eq!(schema.len(), self.schema.len());
        self.schema = schema;
        self
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
            Repr::Cols { cols, offset, len } => {
                // each tuple allocated once at its exact width, then
                // filled column by column
                let mut rows: Vec<Tuple> =
                    (0..len).map(|_| Tuple(Vec::with_capacity(cols.len()))).collect();
                cols.iter().for_each(|c| c.push_rows(offset..offset + len, &mut rows));
                rows
            }
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

    /// A string column's dictionary inverted: each string to its code.
    fn dict_codes(col: &Column) -> StrCodes {
        match col {
            Column::Str { dict, .. } => {
                dict.iter().enumerate().map(|(c, s)| (s.clone(), c as u32)).collect()
            }
            _ => StrCodes::default(),
        }
    }

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

    /// The word-wise count agrees with the bit loop on unaligned ranges.
    #[test]
    fn count_valid_by_words_matches_the_bit_loop() {
        let mut bm = Bitmap::default();
        (0..200).for_each(|i| bm.push(i % 3 != 0 && i % 7 != 1));
        for (from, to) in [(0, 0), (3, 61), (63, 65), (1, 200), (64, 128), (0, 200), (199, 200)] {
            let by_bit = (from..to).filter(|&i| bm.get(i)).count();
            assert_eq!(bm.count_valid(from, to), by_bit, "{from}..{to}");
        }
        let ones = Bitmap::all_valid(70);
        assert_eq!((ones.len(), ones.count_valid(0, 70), ones.words[1]), (70, 70, 0b11_1111));
    }

    /// Value vectors covering every layout decision, with the layout each
    /// must get.
    fn layout_cases() -> Vec<(Vec<Value>, &'static str)> {
        use Value::*;
        let s = |x: &str| Str(x.to_string());
        vec![
            (vec![], "Mixed"),
            (vec![Null, Null], "Mixed"),
            (vec![Int(1), Int(-2), Int(3)], "Int"),
            (vec![Null, Int(1), Null, Int(0)], "Int"),
            (vec![Date(5), Null, Date(7)], "Date"),
            (vec![Double(-0.0), Double(f64::NAN), Null, Double(1.5)], "Double"),
            (vec![Null, s("b"), s(""), s("b"), Null, s("a")], "Str"),
            (vec![Int(5), Date(5), Null], "Mixed"),
            (vec![Null, s("x"), Null, Int(1)], "Mixed"),
        ]
    }

    /// Pushed value by value, or resumed at any point with the values a
    /// finished first half gives back, a column gets the expected layout
    /// and gives back `{:?}`-exact values.
    #[test]
    fn column_builder_decides_layout_once() {
        for (vals, layout) in layout_cases() {
            let whole = Column::from_values(vals.clone());
            let shown = format!("{whole:?}");
            assert!(shown.starts_with(layout), "{vals:?} -> {shown}");
            let no_nulls = !vals.iter().any(Value::is_null);
            assert_eq!(shown.contains("valid: None"), layout != "Mixed" && no_nulls, "{shown}");
            assert_eq!(whole.len(), vals.len());
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(format!("{:?}", whole.value_at(i)), format!("{v:?}"));
            }
            for cut in 0..=vals.len() {
                let head = Column::from_values(vals[..cut].to_vec());
                let mut joined = ColumnBuilder::default();
                (0..cut).for_each(|i| joined.push(head.value_at(i)));
                vals[cut..].iter().for_each(|v| joined.push(v.clone()));
                assert_eq!(joined.len(), vals.len());
                assert_eq!(format!("{:?}", joined.finish()), shown, "{vals:?} cut at {cut}");
            }
        }
    }

    /// A string column's dictionary holds each distinct string once, in
    /// first-use order, whether a value arrives owned or borrowed and
    /// however often the index grows; merging two such dictionaries keeps
    /// first-use order too.
    #[test]
    fn dictionaries_hold_each_string_once_in_first_use_order() {
        let strs: Vec<String> = (0..3000).map(|i| format!("s{}", (i * 7919) % 1000)).collect();
        let mut b = ColumnBuilder::default();
        for (i, s) in strs.iter().enumerate() {
            match i % 2 {
                0 => b.push_str(s),
                _ => b.push(Value::Str(s.clone())),
            }
        }
        let col = b.finish();
        let Column::Str { codes, dict, .. } = &col else { panic!("{col:?}") };
        let mut first_use: Vec<&String> = Vec::new();
        for s in &strs {
            if !first_use.contains(&s) {
                first_use.push(s);
            }
        }
        assert_eq!(dict.iter().collect::<Vec<_>>(), first_use);
        assert!(codes.iter().zip(&strs).all(|(&c, s)| dict[c as usize] == *s));
        let other =
            Column::from_values(strs[500..].iter().rev().cloned().map(Value::Str).collect());
        let merged = Column::concat(&[(&col, 2000, 3000), (&other, 0, 2500)]);
        let mut want = ColumnBuilder::default();
        (2000..3000).for_each(|i| want.push(col.value_at(i)));
        (0..2500).for_each(|i| want.push(other.value_at(i)));
        assert_eq!(format!("{merged:?}"), format!("{:?}", want.finish()));
    }

    /// Appending, overwriting and compacting in place give back exactly
    /// the values a column built afresh holds, through every layout
    /// decision: appended in two parts it is that column, layout and all,
    /// and the string codes stay the dictionary inverted.
    #[test]
    fn in_place_writes_match_a_rebuilt_column() {
        let shown =
            |c: &Column| format!("{:?}", (0..c.len()).map(|i| c.value_at(i)).collect::<Vec<_>>());
        let cases = layout_cases();
        for (vals, _) in &cases {
            for cut in 0..=vals.len() {
                let (mut col, mut codes) = (Column::from_values(vec![]), StrCodes::default());
                col.extend(vals[..cut].to_vec(), &mut codes);
                col.extend(vals[cut..].to_vec(), &mut codes);
                assert_eq!(format!("{col:?}"), format!("{:?}", Column::from_values(vals.clone())));
                assert_eq!(codes, dict_codes(&col), "{vals:?} cut at {cut}");

                let keep: Vec<bool> = (0..vals.len()).map(|i| (i + cut) % 3 != 0).collect();
                let kept: Vec<Value> =
                    vals.iter().zip(&keep).filter(|(_, k)| **k).map(|(v, _)| v.clone()).collect();
                let mut compacted = col.clone();
                compacted.retain(&keep);
                assert_eq!(shown(&compacted), shown(&Column::from_values(kept)));

                // every other case's values written over this one's rows
                for (others, _) in &cases {
                    let (mut col, mut codes, mut want) = (col.clone(), codes.clone(), vals.clone());
                    for (i, v) in others.iter().enumerate().take(vals.len()) {
                        col.set(i, v, &mut codes);
                        want[i] = v.clone();
                    }
                    assert_eq!(shown(&col), shown(&Column::from_values(want)), "{others:?}");
                    assert_eq!(codes, dict_codes(&col));
                }
            }
        }
    }

    /// Concatenated ranges of columns — one layout or several, each with
    /// its own dictionary or one met twice — are the column a builder fed
    /// their values builds.
    #[test]
    fn concat_matches_a_builder() {
        let cases = layout_cases();
        for (a, _) in &cases {
            for (b, _) in &cases {
                // reversed, a string column's dictionary is in another order
                let b: Vec<Value> = b.iter().rev().cloned().collect();
                let (ca, cb) = (Column::from_values(a.clone()), Column::from_values(b.clone()));
                for cut in 0..=a.len() {
                    let pieces = [(&ca, cut, a.len()), (&cb, 0, b.len()), (&ca, 0, cut)];
                    let values = a[cut..].iter().chain(&b).chain(&a[..cut]).cloned().collect();
                    let want = format!("{:?}", Column::from_values(values));
                    assert_eq!(format!("{:?}", Column::concat(&pieces)), want, "{a:?} | {b:?}");
                }
            }
        }
    }

    /// The column-major `into_rows` of a slice is `tuple_at` row by row.
    #[test]
    fn into_rows_of_a_slice_matches_tuple_at() {
        // every case as one column, cycled to a common length
        let cols: Vec<Column> = layout_cases()
            .into_iter()
            .filter(|(vals, _)| !vals.is_empty())
            .map(|(vals, _)| Column::from_values(vals.iter().cycle().take(12).cloned().collect()))
            .collect();
        let attrs = (0..cols.len()).map(|i| Attr::new(format!("C{i}"), Type::Int)).collect();
        let schema = Arc::new(Schema::new(attrs));
        let b = Batch::from_columns(schema, cols).slice(3, 8);
        let by_row: Vec<Tuple> = (0..b.len()).map(|i| b.tuple_at(i)).collect();
        let rows = b.into_rows();
        assert!(rows.iter().all(|t| t.0.capacity() == t.0.len()));
        assert_eq!(format!("{rows:?}"), format!("{by_row:?}"));
    }
}
