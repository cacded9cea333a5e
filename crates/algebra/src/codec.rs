//! Compact binary tuple codec.
//!
//! Used by the mini-DBMS "wire" (the simulated JDBC link encodes every
//! row it ships) and by the external-sort spill files in `tango-xxl`.
//! The format is self-describing per value: a one-byte tag followed by a
//! fixed- or length-prefixed payload.
//!
//! The wire reads and writes it column-wise: [`encode_row`] writes a row
//! of typed columns with the bytes [`encode_tuple`] writes for the boxed
//! row, and [`Decoder::decode_row_into`] appends a row to one
//! [`ColumnBuilder`] per column, the columns [`Decoder::decode_tuple`]
//! and [`crate::Batch::columnarize`] give.

use crate::batch::{Column, ColumnBuilder};
use crate::error::{AlgebraError, Result};
use crate::tuple::Tuple;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;

/// Append the encoding of `v` to `buf`.
pub fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            buf.push(TAG_DOUBLE);
            buf.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            buf.push(TAG_DATE);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// Append the encoding of a whole tuple (arity-prefixed).
pub fn encode_tuple(t: &Tuple, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(t.len() as u16).to_le_bytes());
    for v in t.values() {
        encode_value(v, buf);
    }
}

/// Append row `i` (absolute index) of `cols`, byte for byte what
/// [`encode_tuple`] writes for the row boxed, read from the typed vectors.
pub fn encode_row(cols: &[Column], i: usize, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    for col in cols {
        encode_cell(col, i, buf);
    }
}

/// [`encode_value`] of `col.value_at(i)`, without building the value.
fn encode_cell(col: &Column, i: usize, buf: &mut Vec<u8>) {
    if !col.is_valid(i) {
        return buf.push(TAG_NULL);
    }
    match col {
        Column::Int { vals, .. } => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&vals[i].to_le_bytes());
        }
        Column::Date { vals, .. } => {
            buf.push(TAG_DATE);
            buf.extend_from_slice(&(vals[i] as crate::date::Day).to_le_bytes());
        }
        Column::Double { vals, .. } => {
            buf.push(TAG_DOUBLE);
            buf.extend_from_slice(&vals[i].to_le_bytes());
        }
        Column::Str { codes, dict, .. } => {
            let s = &dict[codes[i] as usize];
            buf.push(TAG_STR);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Column::Mixed { vals } => encode_value(&vals[i], buf),
    }
}

/// Decoding cursor over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed (`pos` never passes the end).
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(AlgebraError::Schema("codec: truncated buffer".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes, for the fixed-width `from_le_bytes` readers.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn decode_value(&mut self) -> Result<Value> {
        let tag = self.take(1)?[0];
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(self.take_array()?)),
            TAG_DOUBLE => Value::Double(f64::from_le_bytes(self.take_array()?)),
            TAG_STR => {
                let len = u32::from_le_bytes(self.take_array()?) as usize;
                let bytes = self.take(len)?;
                Value::Str(String::from_utf8_lossy(bytes).into_owned())
            }
            TAG_DATE => Value::Date(i32::from_le_bytes(self.take_array()?)),
            other => return Err(AlgebraError::Schema(format!("codec: bad tag {other}"))),
        })
    }

    pub fn decode_tuple(&mut self) -> Result<Tuple> {
        let arity = u16::from_le_bytes(self.take_array()?) as usize;
        // a value takes at least its tag byte: a corrupt arity cannot
        // reserve more than the buffer could hold
        let mut vs = Vec::with_capacity(arity.min(self.remaining()));
        for _ in 0..arity {
            vs.push(self.decode_value()?);
        }
        Ok(Tuple::new(vs))
    }

    /// Decode one row onto the end of `cols`, one builder per column:
    /// the columns [`Decoder::decode_tuple`] then
    /// [`crate::Batch::columnarize`] build, with a fixed-width value
    /// pushed as itself and a string looked up by `&str`.
    pub fn decode_row_into(&mut self, cols: &mut [ColumnBuilder]) -> Result<()> {
        let arity = u16::from_le_bytes(self.take_array()?) as usize;
        if arity != cols.len() {
            return Err(AlgebraError::Schema(format!(
                "codec: a row of {arity} values for {} columns",
                cols.len()
            )));
        }
        for col in cols {
            match self.take(1)?[0] {
                TAG_NULL => col.push(Value::Null),
                TAG_INT => col.push_int(i64::from_le_bytes(self.take_array()?)),
                TAG_DOUBLE => col.push_double(f64::from_le_bytes(self.take_array()?)),
                TAG_STR => {
                    let len = u32::from_le_bytes(self.take_array()?) as usize;
                    col.push_str(&String::from_utf8_lossy(self.take(len)?));
                }
                TAG_DATE => col.push_date(i32::from_le_bytes(self.take_array()?)),
                other => return Err(AlgebraError::Schema(format!("codec: bad tag {other}"))),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Batch, StrCodes};
    use crate::schema::{Attr, Schema};
    use crate::tup;
    use crate::value::Type;
    use std::sync::Arc;

    /// A splitmix64 stream.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n.max(1)
        }
    }

    /// A value of column kind `kind` — `Int`, `Date`, `Double` (`-0.0`,
    /// NaN and infinity among them), `Str`, or `Int` and `Date` mixed —
    /// NULL one time in `nulls` (never when 0, always when 1).
    fn cell(g: &mut Gen, kind: u64, nulls: u64) -> Value {
        if nulls > 0 && g.below(nulls) == 0 {
            return Value::Null;
        }
        let k = g.below(7) as i64 - 3;
        match kind {
            0 => Value::Int(k * 1_000_000_007),
            1 => Value::Date(k as i32 * 400),
            2 => {
                Value::Double([k as f64 / 3.0, -0.0, f64::NAN, f64::INFINITY][g.below(4) as usize])
            }
            3 => Value::Str(["", "a", "héllo", "b", "a longer string"][g.below(5) as usize].into()),
            _ if g.below(2) == 0 => Value::Int(k),
            _ => Value::Date(k as i32),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 400, ..Default::default() })]

        /// Generated columns of every layout: their rows, and a selection
        /// of them in any order (some twice), encode from the columns —
        /// and from the cursor's copy of the selection — byte for byte as
        /// the boxed rows do; decoding into builders, whole or one trip at
        /// a time and concatenated, gives what decoding rows and
        /// columnarizing gives.
        fn columns_encode_and_decode_as_their_boxed_rows(case in 0u64..u64::MAX) {
            let mut g = Gen(case);
            let (n, width) = (g.below(40) as usize, 1 + g.below(6) as usize);
            let mut cols: Vec<Column> = (0..width)
                .map(|_| {
                    let (kind, nulls) = (g.below(5), [0, 2, 5, 1][g.below(4) as usize]);
                    Column::from_values((0..n).map(|_| cell(&mut g, kind, nulls)).collect())
                })
                .collect();
            // a stored table's UPDATE to NULL leaves the old value in its
            // slot, under a cleared validity bit
            for col in &mut cols {
                let mut codes = match &*col {
                    Column::Str { dict, .. } => {
                        dict.iter().enumerate().map(|(c, s)| (s.clone(), c as u32)).collect()
                    }
                    _ => StrCodes::default(),
                };
                (0..n).filter(|_| g.below(6) == 0).for_each(|i| col.set(i, &Value::Null, &mut codes));
            }
            let sel: Vec<u32> = (0..g.below(2 * n as u64 + 1)).map(|_| g.below(n as u64) as u32).collect();
            let boxed = |i: u32| Tuple::new(cols.iter().map(|c| c.value_at(i as usize)).collect());
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for &i in &sel {
                encode_tuple(&boxed(i), &mut want);
                encode_row(&cols, i as usize, &mut got);
            }
            assert_eq!(got, want, "case {case}: {cols:?} at {sel:?}");

            let copied: Vec<Column> = cols.iter().map(|c| c.copied(Some(&sel))).collect();
            for (c, copy) in cols.iter().zip(&copied) {
                let values = sel.iter().map(|&i| c.value_at(i as usize)).collect();
                assert_eq!(format!("{copy:?}"), format!("{:?}", Column::from_values(values)));
            }
            let mut from_copy = Vec::new();
            (0..sel.len()).for_each(|i| encode_row(&copied, i, &mut from_copy));
            assert_eq!(from_copy, want, "case {case}: the copy of {sel:?}");

            let attrs = (0..width).map(|i| Attr::new(format!("C{i}"), Type::Int)).collect();
            let schema = Arc::new(Schema::new(attrs));
            let mut d = Decoder::new(&want);
            let mut rows = Vec::new();
            while !d.is_done() {
                rows.push(d.decode_tuple().unwrap());
            }
            let via_rows = format!("{:?}", Batch::new(schema.clone(), rows).columnarize());
            // the wire's trips: each decoded into builders of its own
            let (mut d, mut trips) = (Decoder::new(&want), Vec::new());
            let trip = 1 + g.below(sel.len() as u64 + 1) as usize;
            while !d.is_done() {
                let mut b = vec![ColumnBuilder::default(); width];
                for _ in 0..trip {
                    if !d.is_done() {
                        d.decode_row_into(&mut b).unwrap();
                    }
                }
                trips.push(Batch::from_builders(schema.clone(), b));
            }
            let whole = match trips.len() {
                1 => trips[0].clone(),
                _ => Batch::concat(schema.clone(), trips.clone()),
            };
            assert_eq!(format!("{whole:?}"), via_rows, "case {case}: {} trips", trips.len());
        }
    }

    #[test]
    fn round_trip() {
        let t = tup![1, 2.5, "héllo", Value::Null, Value::Date(9131)];
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        encode_tuple(&t, &mut buf);
        let mut d = Decoder::new(&buf);
        assert_eq!(d.decode_tuple().unwrap(), t);
        assert_eq!(d.decode_tuple().unwrap(), t);
        assert!(d.is_done());
    }

    #[test]
    fn truncation_detected() {
        let t = tup![42];
        let mut buf = Vec::new();
        encode_tuple(&t, &mut buf);
        buf.truncate(buf.len() - 1);
        let mut d = Decoder::new(&buf);
        assert!(d.decode_tuple().is_err());
    }
}
