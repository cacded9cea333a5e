//! Compact binary tuple codec.
//!
//! Used by the mini-DBMS "wire" (the simulated JDBC link encodes every
//! row it ships) and by the external-sort spill files in `tango-xxl`.
//! The format is self-describing per value: a one-byte tag followed by a
//! fixed- or length-prefixed payload.

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

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
