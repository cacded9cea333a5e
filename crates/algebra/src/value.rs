//! Scalar values and their types.

use crate::date::{format_date, Day};
use crate::error::{AlgebraError, Result};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Attribute types understood by TANGO and the mini-DBMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Type {
    Int,
    Double,
    Str,
    Date,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "INT"),
            Type::Double => write!(f, "DOUBLE"),
            Type::Str => write!(f, "VARCHAR"),
            Type::Date => write!(f, "DATE"),
        }
    }
}

/// A scalar value. `Null` follows SQL three-valued-logic conventions in
/// comparisons (see [`Value::sql_cmp`]); for sorting and grouping a total
/// order is provided ([`Value::total_cmp`]) in which `Null` sorts first.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Double(f64),
    Str(String),
    Date(Day),
}

impl Value {
    /// The type of this value, if not null.
    pub fn ty(&self) -> Option<Type> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(Type::Int),
            Value::Double(_) => Some(Type::Double),
            Value::Str(_) => Some(Type::Str),
            Value::Date(_) => Some(Type::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used for mixed comparisons and arithmetic. Dates are
    /// numeric at day granularity, which lets temporal predicates compare
    /// date columns against integer day literals (the paper's examples use
    /// both representations interchangeably).
    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Integer view (exact) when the value is integer-like.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        self.as_num()
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_day(&self) -> Option<Day> {
        match self {
            Value::Date(d) => Some(*d),
            Value::Int(i) => i32::try_from(*i).ok(),
            _ => None,
        }
    }

    /// SQL comparison: returns `None` if either side is `NULL` or the types
    /// are incomparable (strings never compare with numbers).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                // Prefer exact integer comparison when both sides are
                // integer-like; fall back to f64.
                if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
                    Some(x.cmp(&y))
                } else {
                    let x = a.as_num()?;
                    let y = b.as_num()?;
                    Some(x.total_cmp(&y))
                }
            }
        }
    }

    /// Total order used for sorting, grouping and multiset comparison:
    /// `NULL` first, then numerics/dates by numeric value, then strings.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Double(_) | Value::Date(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match rank(self).cmp(&rank(other)) {
            Ordering::Equal => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (a, b) => {
                    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
                        x.cmp(&y)
                    } else {
                        a.as_num().unwrap_or(f64::NAN).total_cmp(&b.as_num().unwrap_or(f64::NAN))
                    }
                }
            },
            o => o,
        }
    }

    /// Addition with numeric coercion; date + int = date.
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.arith(other, "+", |a, b| a + b, i64::wrapping_add)
    }

    pub fn sub(&self, other: &Value) -> Result<Value> {
        self.arith(other, "-", |a, b| a - b, i64::wrapping_sub)
    }

    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.arith(other, "*", |a, b| a * b, i64::wrapping_mul)
    }

    pub fn div(&self, other: &Value) -> Result<Value> {
        if matches!(other.as_num(), Some(x) if x == 0.0) {
            return Ok(Value::Null); // SQL-style: division by zero yields NULL here
        }
        self.arith(other, "/", |a, b| a / b, i64::wrapping_div)
    }

    /// `f` over numbers; `int` over two INTs, wrapping on overflow.
    fn arith(
        &self,
        other: &Value,
        op: &str,
        f: impl Fn(f64, f64) -> f64,
        int: fn(i64, i64) -> i64,
    ) -> Result<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Date(d), b) if op == "+" || op == "-" => {
                let delta = b
                    .as_int()
                    .ok_or_else(|| AlgebraError::TypeMismatch(format!("DATE {op} {other}")))?;
                let delta = if op == "-" { -delta } else { delta };
                Ok(Value::Date(*d + delta as Day))
            }
            (a, b) => {
                if let (Value::Int(x), Value::Int(y)) = (a, b) {
                    return Ok(Value::Int(int(*x, *y)));
                }
                let x = a
                    .as_num()
                    .ok_or_else(|| AlgebraError::TypeMismatch(format!("{a} {op} {b}")))?;
                let y = b
                    .as_num()
                    .ok_or_else(|| AlgebraError::TypeMismatch(format!("{a} {op} {b}")))?;
                Ok(Value::Double(f(x, y)))
            }
        }
    }

    /// Approximate in-memory/wire width in bytes; used by `size(r)` in the
    /// cost formulas (cardinality × average tuple size).
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::Date(_) => 4,
            Value::Str(s) => 2 + s.len(),
        }
    }

    /// A hashable, totally ordered key view of this value (floats keyed by
    /// their `total_cmp` bit pattern). Used for hash joins and grouping:
    /// two values share a key exactly when `=` holds between them.
    pub fn key(&self) -> Key {
        match self {
            Value::Null => Key::Null,
            Value::Int(i) => Key::Num(*i),
            Value::Double(d) => {
                let in_range = *d >= i64::MIN as f64 && *d <= i64::MAX as f64;
                if d.fract() == 0.0 && in_range && !(*d == 0.0 && d.is_sign_negative()) {
                    // Integral doubles key like ints so mixed-type equi
                    // joins agree with sql_cmp; `-0.0` does not, as
                    // `sql_cmp` orders it below `0`.
                    Key::Num(*d as i64)
                } else {
                    // Map to a sortable integer key (total_cmp bit trick).
                    let bits = d.to_bits() as i64;
                    let norm = if bits < 0 { !bits } else { bits | i64::MIN };
                    Key::Float(norm)
                }
            }
            Value::Date(d) => Key::Num(*d as i64),
            Value::Str(s) => Key::Str(s.clone()),
        }
    }
}

/// Hashable key form of [`Value`]. Integer-like values (ints, dates and
/// integral doubles) share the `Num` variant so `Int(5)` and `Date(5)`
/// join/group together, mirroring the numeric comparison semantics.
/// Ordered as [`Value::total_cmp`] orders the values: `NULL` first, then
/// every numeric key by its value, then strings — so a B-tree over keys
/// answers a numeric range.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    Null,
    Num(i64),
    /// A non-integral (or out-of-range) double, or `-0.0`, as the
    /// `total_cmp` bit pattern of [`Value::key`].
    Float(i64),
    Str(String),
}

impl Key {
    /// The double a `Float` key was made from.
    #[inline]
    fn float(norm: i64) -> f64 {
        f64::from_bits(if norm < 0 { norm & i64::MAX } else { !norm } as u64)
    }
}

impl Ord for Key {
    // inlined across crates: ANALYZE and index builds sort millions of
    // keys
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(k: &Key) -> u8 {
            match k {
                Key::Null => 0,
                Key::Num(_) | Key::Float(_) => 1,
                Key::Str(_) => 2,
            }
        }
        match (self, other) {
            (Key::Num(a), Key::Num(b)) => a.cmp(b),
            (Key::Str(a), Key::Str(b)) => a.cmp(b),
            // the bit pattern orders as `f64::total_cmp` when unsigned
            (Key::Float(a), Key::Float(b)) => (*a as u64).cmp(&(*b as u64)),
            (Key::Num(a), Key::Float(b)) => (*a as f64).total_cmp(&Key::float(*b)),
            (Key::Float(a), Key::Num(b)) => Key::float(*a).total_cmp(&(*b as f64)),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// The total order of [`Value::total_cmp`], the one `ORDER BY` sorts in.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", format_date(*d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(3).sql_cmp(&Value::Double(3.5)), Some(Ordering::Less));
        assert_eq!(Value::Date(10).sql_cmp(&Value::Int(10)), Some(Ordering::Equal));
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_groups_types() {
        let mut vs = vec![
            Value::Str("b".into()),
            Value::Int(2),
            Value::Null,
            Value::Double(1.5),
            Value::Str("a".into()),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Double(1.5),
                Value::Int(2),
                Value::Str("a".into()),
                Value::Str("b".into()),
            ]
        );
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(Value::Date(100).add(&Value::Int(1)).unwrap(), Value::Date(101));
        assert_eq!(Value::Date(100).sub(&Value::Int(7)).unwrap(), Value::Date(93));
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(Value::Int(1).div(&Value::Int(0)).unwrap(), Value::Null);
    }

    #[test]
    fn integer_division_overflow_wraps() {
        assert_eq!(Value::Int(i64::MIN).div(&Value::Int(-1)).unwrap(), Value::Int(i64::MIN));
    }

    proptest::proptest! {
        /// Keys order as their values do, whatever mix of INT, DATE and
        /// DOUBLE (negative, fractional, integral, huge, infinite, NaN,
        /// `-0.0`) meets.
        #[test]
        fn keys_order_as_total_cmp(a in 0usize..64, b in 0usize..64, x in -400i64..400, y in -400i64..400) {
            let value = |pick: usize, n: i64| match pick % 8 {
                0 => Value::Int(n),
                1 => Value::Date(n as Day),
                2 => Value::Double(n as f64),
                3 | 4 => Value::Double(n as f64 / 8.0 + 0.01),
                5 => Value::Double(n as f64 * 1e17),
                6 => Value::Double([f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX, -0.0, 0.0][n.rem_euclid(6) as usize]),
                _ => Value::Int(n * (1 << 50)),
            };
            let (a, b) = (value(a, x), value(b, y));
            proptest::prop_assert_eq!(a.key().cmp(&b.key()), a.total_cmp(&b), "{:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn keys_agree_with_equality() {
        assert_eq!(Value::Int(5).key(), Value::Date(5).key());
        assert_ne!(Value::Int(5).key(), Value::Int(6).key());
        assert_eq!(Value::Str("x".into()).key(), Value::Str("x".into()).key());
        // `=` keeps `-0.0` apart from `0`, and so do the keys
        for zero in [Value::Int(0), Value::Double(0.0)] {
            assert_ne!(Value::Double(-0.0).sql_cmp(&zero), Some(Ordering::Equal));
            assert_ne!(Value::Double(-0.0).key(), zero.key());
        }
        assert_eq!(Value::Double(0.0).key(), Value::Int(0).key());
    }
}
