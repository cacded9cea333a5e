//! Sort orders and the `IsPrefixOf` predicate used by rules T10–T12.

use crate::batch::{Batch, Column};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// One sort key: column name plus direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SortKey {
    pub col: String,
    pub desc: bool,
}

impl SortKey {
    pub fn asc(col: impl Into<String>) -> Self {
        SortKey { col: col.into(), desc: false }
    }

    pub fn desc(col: impl Into<String>) -> Self {
        SortKey { col: col.into(), desc: true }
    }
}

impl fmt::Display for SortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.col, if self.desc { " DESC" } else { "" })
    }
}

/// A lexicographic sort specification. The empty spec means "no required
/// order" / "order unknown".
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SortSpec(pub Vec<SortKey>);

impl SortSpec {
    pub fn none() -> Self {
        SortSpec(Vec::new())
    }

    pub fn by<I, S>(cols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SortSpec(cols.into_iter().map(SortKey::asc).collect())
    }

    pub fn keys(&self) -> &[SortKey] {
        &self.0
    }

    pub fn is_none(&self) -> bool {
        self.0.is_empty()
    }

    /// The paper's `IsPrefixOf(A, B)` predicate: `self` is a prefix of
    /// `other` (column names compared case-insensitively, directions must
    /// match).
    pub fn is_prefix_of(&self, other: &SortSpec) -> bool {
        self.0.len() <= other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| a.col.eq_ignore_ascii_case(&b.col) && a.desc == b.desc)
    }

    /// Does a relation known to be ordered by `self` satisfy a requirement
    /// of order `required`? (Rule T10: `sort_A(r) -> r` when
    /// `IsPrefixOf(A, Order(r))`.)
    pub fn satisfies(&self, required: &SortSpec) -> bool {
        required.is_prefix_of(self)
    }

    /// Resolve column names to indices against a schema; keys that fail to
    /// resolve are dropped (the order they promised cannot be expressed over
    /// this schema).
    pub fn resolve(&self, schema: &Schema) -> Vec<(usize, bool)> {
        self.0.iter().filter_map(|k| schema.index_of(&k.col).ok().map(|i| (i, k.desc))).collect()
    }

    /// Comparator over tuples for this spec (resolved against `schema`).
    pub fn comparator(&self, schema: &Schema) -> impl Fn(&Tuple, &Tuple) -> Ordering {
        let keys = self.resolve(schema);
        move |a: &Tuple, b: &Tuple| {
            for &(i, desc) in &keys {
                let o = a[i].total_cmp(&b[i]);
                let o = if desc { o.reverse() } else { o };
                if o != Ordering::Equal {
                    return o;
                }
            }
            Ordering::Equal
        }
    }

    /// Restrict this order to the columns present in `schema` — the order
    /// that survives a projection. Stops at the first missing column since
    /// lexicographic order beyond a dropped key is meaningless.
    pub fn project_onto(&self, schema: &Schema) -> SortSpec {
        let mut keys = Vec::new();
        for k in &self.0 {
            if schema.has(&k.col) {
                keys.push(k.clone());
            } else {
                break;
            }
        }
        SortSpec(keys)
    }
}

impl fmt::Display for SortSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, k) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}")?;
        }
        Ok(())
    }
}

/// Stable sort of `tuples` by `spec`, equivalent to sorting with
/// [`SortSpec::comparator`] but with the sort keys extracted once per row
/// instead of coerced on every comparison.
///
/// A key column whose values are all integer-like (`Int`/`Date`) orders
/// as plain `i64` under `total_cmp`, so those columns are pulled into a
/// contiguous `i64` array up front; any other column falls back to
/// per-comparison `total_cmp` on the tuples themselves.
pub fn sort_tuples(tuples: &mut Vec<Tuple>, spec: &SortSpec, schema: &Schema) {
    let keys = spec.resolve(schema);
    if keys.is_empty() || tuples.len() < 2 {
        return;
    }
    enum Col {
        Ints(Vec<i64>),
        Generic(usize),
    }
    let cols: Vec<(Col, bool)> = keys
        .iter()
        .map(|&(i, desc)| {
            let mut ints = Vec::with_capacity(tuples.len());
            for t in tuples.iter() {
                match t[i].as_int() {
                    Some(v) => ints.push(v),
                    None => return (Col::Generic(i), desc),
                }
            }
            (Col::Ints(ints), desc)
        })
        .collect();
    // An ascending integer-like key negated sorts like the descending
    // key, so any all-integer prefix packs into plain `i64` fields. The
    // one unrepresentable negation, i64::MIN, forces the generic path.
    let packed = |col: &(Col, bool)| match col {
        (Col::Ints(v), false) => Some(v.clone()),
        (Col::Ints(v), true) if v.iter().all(|&x| x != i64::MIN) => {
            Some(v.iter().map(|&x| -x).collect())
        }
        _ => None,
    };
    let order: Vec<u32> = match &cols[..] {
        // Fully packed one- and two-key sorts: the hot shapes (sorting
        // on (group, T1) dominates the middleware operators). Sorting
        // Copy key tuples beats an index sort through the comparator.
        [a] => match packed(a) {
            Some(k) => {
                let mut keyed: Vec<(i64, u32)> = k.into_iter().zip(0u32..).collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|(_, i)| i).collect()
            }
            None => sort_indices(tuples, &cols),
        },
        [a, b] => match (packed(a), packed(b)) {
            (Some(ka), Some(kb)) => {
                let mut keyed: Vec<(i64, i64, u32)> =
                    ka.into_iter().zip(kb).zip(0u32..).map(|((a, b), i)| (a, b, i)).collect();
                keyed.sort_unstable();
                keyed.into_iter().map(|(_, _, i)| i).collect()
            }
            _ => sort_indices(tuples, &cols),
        },
        _ => sort_indices(tuples, &cols),
    };
    fn sort_indices(tuples: &[Tuple], cols: &[(Col, bool)]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..tuples.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            for (col, desc) in cols {
                let o = match col {
                    Col::Ints(v) => v[a].cmp(&v[b]),
                    Col::Generic(i) => tuples[a][*i].total_cmp(&tuples[b][*i]),
                };
                let o = if *desc { o.reverse() } else { o };
                if o != Ordering::Equal {
                    return o;
                }
            }
            a.cmp(&b) // equal keys keep input order, making the sort stable
        });
        order
    }
    let mut src: Vec<Option<Tuple>> = std::mem::take(tuples).into_iter().map(Some).collect();
    // invariant: `order` is a permutation, so each slot is taken once
    // and no row is skipped
    tuples.extend(order.into_iter().filter_map(|i| src[i as usize].take()));
}

/// Sort keys extracted once from a (usually columnar) batch: the flat-array
/// equivalent of [`sort_tuples`]'s per-row key extraction. Comparisons
/// and permutation sorts run over these arrays without touching tuples.
///
/// Ordering semantics are identical to [`SortSpec::comparator`]
/// (`total_cmp`, stable on ties), so a permutation produced here applied
/// via [`Batch::gather`] yields exactly the rows `sort_tuples` would.
pub struct BatchKeys {
    cols: Vec<(KeyVals, bool)>,
}

enum KeyVals {
    /// All rows integer-like (`Int`/`Date`): exact `i64` ordering.
    Ints(Vec<i64>),
    /// Anything else: materialized values compared with `total_cmp`.
    Vals(Vec<Value>),
}

impl BatchKeys {
    /// Extract the key columns of `spec` from `batch` (resolved against
    /// `schema`, which may differ from `batch.schema()` for qualified
    /// names). Unresolvable keys are dropped, mirroring
    /// [`SortSpec::resolve`].
    pub fn extract(batch: &Batch, spec: &SortSpec, schema: &Schema) -> BatchKeys {
        let n = batch.len();
        let cols = spec
            .resolve(schema)
            .into_iter()
            .map(|(i, desc)| {
                if let Some(flat) = batch.int_col(i) {
                    return (KeyVals::Ints(flat.to_vec()), desc);
                }
                let mut ints = Vec::with_capacity(n);
                for r in 0..n {
                    match batch.value_at(r, i).as_int() {
                        Some(v) => ints.push(v),
                        None => {
                            let vals = (0..n).map(|r| batch.value_at(r, i)).collect();
                            return (KeyVals::Vals(vals), desc);
                        }
                    }
                }
                (KeyVals::Ints(ints), desc)
            })
            .collect();
        BatchKeys { cols }
    }

    /// The keys of whole columns, each with its direction (`true` =
    /// descending): an `Int` or `Date` column with no NULL is taken as its
    /// `i64`s, any other column is read as values and packs as `i64`s
    /// only when every one is integer-like, as [`BatchKeys::extract`]
    /// decides.
    pub fn from_columns(keys: impl IntoIterator<Item = (Column, bool)>) -> BatchKeys {
        let cols = keys
            .into_iter()
            .map(|(col, desc)| {
                let vals = match col {
                    Column::Int { vals, valid: None } | Column::Date { vals, valid: None } => {
                        KeyVals::Ints(Arc::unwrap_or_clone(vals))
                    }
                    col => {
                        let vals: Vec<Value> = (0..col.len()).map(|i| col.value_at(i)).collect();
                        match vals.iter().map(Value::as_int).collect() {
                            Some(ints) => KeyVals::Ints(ints),
                            None => KeyVals::Vals(vals),
                        }
                    }
                };
                (vals, desc)
            })
            .collect();
        BatchKeys { cols }
    }

    /// No usable sort keys: the permutation is the identity.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Compare rows `a` and `b` under the extracted keys.
    pub fn cmp(&self, a: usize, b: usize) -> Ordering {
        for (col, desc) in &self.cols {
            let o = match col {
                KeyVals::Ints(v) => v[a].cmp(&v[b]),
                KeyVals::Vals(v) => v[a].total_cmp(&v[b]),
            };
            let o = if *desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    /// The runs of equal keys among rows `0..n` (rows already grouped on
    /// the keys), as `[start, end)` ranges in row order; one run when
    /// there are no keys. Each key column is compared in one pass.
    pub fn runs(&self, n: usize) -> Vec<(u32, u32)> {
        let mut starts = vec![false; n]; // row r opens a run
        for (col, _) in &self.cols {
            let new = |r: usize| match col {
                KeyVals::Ints(v) => v[r] != v[r - 1],
                KeyVals::Vals(v) => v[r].total_cmp(&v[r - 1]) != Ordering::Equal,
            };
            (1..n).for_each(|r| starts[r] |= new(r));
        }
        let mut runs = Vec::new();
        let mut lo = 0;
        for r in (1..n).filter(|&r| starts[r]) {
            runs.push((lo as u32, r as u32));
            lo = r;
        }
        if n > 0 {
            runs.push((lo as u32, n as u32));
        }
        runs
    }

    /// Stable sort permutation of rows `[lo, hi)`: returned indices applied
    /// in order visit the range's rows in key order, ties in input order.
    pub fn sort_range(&self, lo: usize, hi: usize) -> Vec<u32> {
        // Packed one- and two-key all-integer sorts mirror the hot shapes
        // of `sort_tuples` (descending keys negate; i64::MIN can't negate,
        // so it falls back to the index sort).
        let packed = |col: &(KeyVals, bool)| match col {
            (KeyVals::Ints(v), false) => Some(v[lo..hi].to_vec()),
            (KeyVals::Ints(v), true) if v[lo..hi].iter().all(|&x| x != i64::MIN) => {
                Some(v[lo..hi].iter().map(|&x| -x).collect())
            }
            _ => None,
        };
        match &self.cols[..] {
            [a] => {
                if let Some(k) = packed(a) {
                    let mut keyed: Vec<(i64, u32)> = k.into_iter().zip(lo as u32..).collect();
                    keyed.sort_unstable();
                    return keyed.into_iter().map(|(_, i)| i).collect();
                }
            }
            [a, b] => {
                if let (Some(ka), Some(kb)) = (packed(a), packed(b)) {
                    let mut keyed: Vec<(i64, i64, u32)> = ka
                        .into_iter()
                        .zip(kb)
                        .zip(lo as u32..)
                        .map(|((a, b), i)| (a, b, i))
                        .collect();
                    keyed.sort_unstable();
                    return keyed.into_iter().map(|(_, _, i)| i).collect();
                }
            }
            _ => {}
        }
        let mut order: Vec<u32> = (lo as u32..hi as u32).collect();
        order.sort_unstable_by(|&a, &b| self.cmp(a as usize, b as usize).then_with(|| a.cmp(&b)));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_semantics() {
        let ab = SortSpec::by(["A", "B"]);
        let a = SortSpec::by(["A"]);
        let abc = SortSpec::by(["a", "b", "c"]);
        assert!(a.is_prefix_of(&ab));
        assert!(ab.is_prefix_of(&abc)); // case-insensitive
        assert!(!ab.is_prefix_of(&a));
        assert!(abc.satisfies(&ab));
        assert!(!a.satisfies(&ab));
        assert!(SortSpec::none().is_prefix_of(&a));
        assert!(a.satisfies(&SortSpec::none()));
    }

    #[test]
    fn direction_matters() {
        let asc = SortSpec::by(["A"]);
        let desc = SortSpec(vec![SortKey::desc("A")]);
        assert!(!asc.is_prefix_of(&desc));
    }

    #[test]
    fn batch_keys_match_sort_tuples() {
        use crate::schema::Attr;
        use crate::value::Type;
        let schema =
            Arc::new(Schema::new(vec![Attr::new("A", Type::Int), Attr::new("B", Type::Str)]));
        let mut x: u64 = 7;
        let mut rows = Vec::new();
        for _ in 0..257 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = ((x >> 33) % 17) as i64;
            let b = format!("s{}", (x >> 13) % 5);
            rows.push(Tuple(vec![Value::Int(a), Value::Str(b)]));
        }
        for spec in [
            SortSpec(vec![SortKey::asc("A"), SortKey::desc("B")]),
            SortSpec(vec![SortKey::desc("A")]),
            SortSpec::by(["B", "A"]),
        ] {
            let mut expect = rows.clone();
            sort_tuples(&mut expect, &spec, &schema);
            let b = Batch::new(schema.clone(), rows.clone()).columnarize();
            let keys = BatchKeys::extract(&b, &spec, &schema);
            let perm = keys.sort_range(0, b.len());
            assert_eq!(b.gather(&perm).into_rows(), expect);
            let (cols, _, _) = b.columns().unwrap();
            let whole = spec.resolve(&schema).into_iter().map(|(i, desc)| (cols[i].clone(), desc));
            assert_eq!(BatchKeys::from_columns(whole).sort_range(0, b.len()), perm);
        }
    }
}
