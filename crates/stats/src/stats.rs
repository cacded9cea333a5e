//! Relation- and attribute-level statistics.
//!
//! Exactly the "standard statistics" of Section 3: block counts, tuple
//! counts, average tuple sizes for relations; minimum/maximum values,
//! distinct counts, histograms, and index availability for attributes;
//! clustering for indexes.

use crate::histogram::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use tango_algebra::value::Key;
use tango_algebra::{Column, Schema, Value};

/// Statistics for one attribute.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AttrStats {
    /// Minimum value (numeric view; `None` if all-null or non-numeric).
    pub min: Option<f64>,
    /// Maximum value (numeric view).
    pub max: Option<f64>,
    /// Number of distinct (non-null) values.
    pub distinct: u64,
    /// Number of nulls.
    pub nulls: u64,
    /// Height-balanced histogram, when collected.
    pub histogram: Option<Histogram>,
    /// Average stored width of this attribute in bytes.
    pub avg_width: f64,
    /// Is there an index on this attribute?
    pub indexed: bool,
    /// Is that index clustering (rows stored in index order)?
    pub clustered: bool,
}

impl AttrStats {
    /// `minVal(A, r)` of the paper.
    pub fn min_val(&self) -> f64 {
        self.min.unwrap_or(0.0)
    }

    /// `maxVal(A, r)` of the paper.
    pub fn max_val(&self) -> f64 {
        self.max.unwrap_or(0.0)
    }

    /// `hasHistogram(A, r)` of the paper.
    pub fn has_histogram(&self) -> bool {
        self.histogram.is_some()
    }
}

/// Statistics for one relation (base or derived).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RelationStats {
    /// `cardinality(r)`.
    pub rows: f64,
    /// Disk blocks occupied (base relations).
    pub blocks: u64,
    /// Average tuple size in bytes.
    pub avg_tuple_bytes: f64,
    /// Per-attribute statistics keyed by (case-normalized bare) name.
    pub attrs: BTreeMap<String, AttrStats>,
}

impl RelationStats {
    /// `size(r)` of the cost formulas: cardinality × average tuple size.
    pub fn size_bytes(&self) -> f64 {
        self.rows * self.avg_tuple_bytes
    }

    /// Look up attribute statistics by (possibly qualified) name.
    pub fn attr(&self, name: &str) -> Option<&AttrStats> {
        self.attrs.get(&attr_key(name))
    }

    /// [`RelationStats::attr`], to narrow in place.
    pub(crate) fn attr_mut(&mut self, name: &str) -> Option<&mut AttrStats> {
        self.attrs.get_mut(&attr_key(name))
    }

    pub fn set_attr(&mut self, name: &str, stats: AttrStats) {
        self.attrs.insert(attr_key(name), stats);
    }

    /// `distinct(A, r)`, defaulting to a tenth of the rows when unknown
    /// (the usual textbook default).
    pub fn distinct(&self, name: &str) -> f64 {
        match self.attr(name) {
            Some(a) if a.distinct > 0 => a.distinct as f64,
            _ => (self.rows / 10.0).max(1.0),
        }
    }

    /// The size-only statistics of a relation of `rows` tuples totalling
    /// `bytes`: cardinality, blocks and average tuple size, no attribute
    /// statistics (estimates over it fall back to the textbook defaults).
    pub fn of_size(rows: usize, bytes: u64, schema: &Schema) -> Self {
        RelationStats {
            rows: rows as f64,
            blocks: bytes.div_ceil(8192).max(1),
            avg_tuple_bytes: match rows {
                0 => schema.est_tuple_bytes() as f64,
                n => bytes as f64 / n as f64,
            },
            attrs: BTreeMap::new(),
        }
    }

    /// Compute full statistics from a materialized column sample. The
    /// mini-DBMS's ANALYZE ([`RelationStats::from_columns`]) must equal
    /// it over the rows of its heap.
    pub fn from_relation(rel: &tango_algebra::Relation, histogram_buckets: usize) -> Self {
        let schema: &Schema = rel.schema();
        let mut s = RelationStats::of_size(rel.len(), rel.byte_size() as u64, schema);
        for (i, attr) in schema.attrs().iter().enumerate() {
            let col: Vec<&Value> = rel.tuples().iter().map(|t| &t[i]).collect();
            s.set_attr(&attr.name, values_stats(&col, histogram_buckets).0);
        }
        s
    }

    /// [`RelationStats::from_relation`] of rows `rows` of relation held as
    /// typed columns (the mini-DBMS's heap, a middleware batch), read in
    /// place: numbers from their flat vectors, a string column's distinct
    /// count from its dictionary codes. No row is boxed and no string
    /// copied.
    pub fn from_columns(
        schema: &Schema,
        cols: &[Column],
        rows: Range<usize>,
        buckets: usize,
    ) -> Self {
        let attrs: Vec<(AttrStats, usize)> =
            cols.iter().map(|c| column_stats(c, rows.clone(), buckets)).collect();
        let bytes = attrs.iter().map(|(_, width)| *width as u64).sum();
        let mut s = RelationStats::of_size(rows.len(), bytes, schema);
        for (attr, (stats, _)) in schema.attrs().iter().zip(attrs) {
            s.set_attr(&attr.name, stats);
        }
        s
    }
}

/// The key of `name`'s statistics in [`RelationStats::attrs`]: the bare
/// name, upper-cased.
fn attr_key(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_uppercase()
}

/// One attribute's statistics from its values, in row order, and the
/// values' total width.
fn values_stats(col: &[&Value], buckets: usize) -> (AttrStats, usize) {
    let nums: Vec<f64> = col.iter().filter_map(|v| v.as_f64()).collect();
    let nulls = col.iter().filter(|v| v.is_null()).count();
    let mut keys: Vec<_> = col.iter().filter(|v| !v.is_null()).map(|v| v.key()).collect();
    keys.sort();
    keys.dedup();
    let width_sum: usize = col.iter().map(|v| v.byte_size()).sum();
    (attr_stats(nums, nulls, keys.len(), width_sum, col.len(), buckets), width_sum)
}

/// [`values_stats`] of rows `rows` of one column.
fn column_stats(col: &Column, rows: Range<usize>, buckets: usize) -> (AttrStats, usize) {
    let valid = |i: &usize| col.is_valid(*i);
    let len = rows.len();
    let nulls = len - rows.clone().filter(valid).count();
    let (nums, distinct, width_sum) = match col {
        Column::Int { vals, .. } | Column::Date { vals, .. } => {
            let mut ints: Vec<i64> = rows.filter(valid).map(|i| vals[i]).collect();
            let nums = ints.iter().map(|&x| x as f64).collect();
            let width = if matches!(col, Column::Int { .. }) { 8 } else { 4 };
            ints.sort_unstable();
            ints.dedup();
            (nums, ints.len(), width * (len - nulls) + nulls)
        }
        Column::Double { vals, .. } => {
            let nums: Vec<f64> = rows.filter(valid).map(|i| vals[i]).collect();
            let mut keys: Vec<Key> = nums.iter().map(|&x| Value::Double(x).key()).collect();
            keys.sort();
            keys.dedup();
            (nums, keys.len(), 8 * (len - nulls) + nulls)
        }
        Column::Str { codes, dict, .. } => {
            let mut seen = vec![false; dict.len()];
            let mut width = nulls;
            for i in rows.filter(valid) {
                seen[codes[i] as usize] = true;
                width += 2 + dict[codes[i] as usize].len();
            }
            (Vec::new(), seen.iter().filter(|s| **s).count(), width)
        }
        Column::Mixed { .. } => {
            let vals: Vec<Value> = rows.map(|i| col.value_at(i)).collect();
            return values_stats(&vals.iter().collect::<Vec<_>>(), buckets);
        }
    };
    (attr_stats(nums, nulls, distinct, width_sum, len, buckets), width_sum)
}

fn attr_stats(
    nums: Vec<f64>,
    nulls: usize,
    distinct: usize,
    width_sum: usize,
    rows: usize,
    buckets: usize,
) -> AttrStats {
    AttrStats {
        min: nums.iter().copied().reduce(f64::min),
        max: nums.iter().copied().reduce(f64::max),
        distinct: distinct as u64,
        nulls: nulls as u64,
        histogram: if buckets > 0 && !nums.is_empty() {
            Histogram::build(nums, buckets)
        } else {
            None
        },
        avg_width: if rows == 0 { 8.0 } else { width_sum as f64 / rows as f64 },
        indexed: false,
        clustered: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tango_algebra::{tup, Attr, Relation, Schema, Type};

    #[test]
    fn from_relation_basics() {
        let schema =
            Arc::new(Schema::new(vec![Attr::new("A", Type::Int), Attr::new("S", Type::Str)]));
        let rel =
            Relation::new(schema, vec![tup![1, "x"], tup![2, "y"], tup![2, "y"], tup![5, "z"]]);
        let s = RelationStats::from_relation(&rel, 4);
        assert_eq!(s.rows, 4.0);
        let a = s.attr("A").unwrap();
        assert_eq!(a.min, Some(1.0));
        assert_eq!(a.max, Some(5.0));
        assert_eq!(a.distinct, 3);
        assert!(a.has_histogram());
        let str_attr = s.attr("S").unwrap();
        assert_eq!(str_attr.distinct, 3);
        assert!(!str_attr.has_histogram()); // strings are not histogrammed
        assert!(s.size_bytes() > 0.0);
    }

    #[test]
    fn qualified_lookup() {
        let mut s = RelationStats::default();
        s.set_attr("P.PosID", AttrStats { distinct: 7, ..Default::default() });
        assert_eq!(s.attr("posid").unwrap().distinct, 7);
        assert_eq!(s.attr("X.POSID").unwrap().distinct, 7);
    }
}
