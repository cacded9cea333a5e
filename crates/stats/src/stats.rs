//! Relation- and attribute-level statistics.
//!
//! Exactly the "standard statistics" of Section 3: block counts, tuple
//! counts, average tuple sizes for relations; minimum/maximum values,
//! distinct counts, histograms, and index availability for attributes;
//! clustering for indexes.

use crate::histogram::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tango_algebra::{Schema, Value};

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
        let bare = name.rsplit('.').next().unwrap_or(name).to_uppercase();
        self.attrs.get(&bare)
    }

    pub fn set_attr(&mut self, name: &str, stats: AttrStats) {
        let bare = name.rsplit('.').next().unwrap_or(name).to_uppercase();
        self.attrs.insert(bare, stats);
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

    /// Compute full statistics from a materialized column sample. Used by
    /// the mini-DBMS's ANALYZE and by tests.
    pub fn from_relation(rel: &tango_algebra::Relation, histogram_buckets: usize) -> Self {
        let schema: &Schema = rel.schema();
        let mut s = RelationStats::of_size(rel.len(), rel.byte_size() as u64, schema);
        for (i, attr) in schema.attrs().iter().enumerate() {
            let col: Vec<&Value> = rel.tuples().iter().map(|t| &t[i]).collect();
            let nums: Vec<f64> = col.iter().filter_map(|v| v.as_f64()).collect();
            let nulls = col.iter().filter(|v| v.is_null()).count() as u64;
            let mut keys: Vec<_> = col.iter().filter(|v| !v.is_null()).map(|v| v.key()).collect();
            keys.sort();
            keys.dedup();
            let histogram = if histogram_buckets > 0 && !nums.is_empty() {
                Histogram::build(nums.clone(), histogram_buckets)
            } else {
                None
            };
            let width_sum: usize = col.iter().map(|v| v.byte_size()).sum();
            s.set_attr(
                &attr.name,
                AttrStats {
                    min: nums.iter().copied().reduce(f64::min),
                    max: nums.iter().copied().reduce(f64::max),
                    distinct: keys.len() as u64,
                    nulls,
                    histogram,
                    avg_width: if col.is_empty() {
                        8.0
                    } else {
                        width_sum as f64 / col.len() as f64
                    },
                    indexed: false,
                    clustered: false,
                },
            );
        }
        s
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
