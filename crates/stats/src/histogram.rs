//! Height-balanced histograms (the kind Oracle maintains and the paper's
//! formulas consume).
//!
//! A histogram over `n` buckets stores `n + 1` endpoint values: bucket
//! `i` (1-based, as in the paper) covers `(b1(i), b2(i)] =
//! (endpoints[i-1], endpoints[i]]`, and — being height-balanced — every
//! bucket holds the same number of attribute values,
//! `cardinality / buckets`.

use serde::{Deserialize, Serialize};

/// A height-balanced (equi-depth) histogram over numeric/date values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// `buckets + 1` endpoints, non-decreasing, numeric view of values.
    pub endpoints: Vec<f64>,
    /// Number of (non-null) values the histogram summarizes.
    pub values: u64,
}

impl Histogram {
    /// Build from a column of values (nulls ignored). `buckets` is capped
    /// by the number of values.
    pub fn build(mut vals: Vec<f64>, buckets: usize) -> Option<Histogram> {
        if vals.is_empty() || buckets == 0 {
            return None;
        }
        vals.sort_by(f64::total_cmp);
        let n = vals.len();
        let b = buckets.min(n);
        let mut endpoints = Vec::with_capacity(b + 1);
        endpoints.push(vals[0]);
        for i in 1..=b {
            // Oracle-style: endpoint i is the value at quantile i/b.
            let idx = ((i * n) / b).saturating_sub(1);
            endpoints.push(vals[idx]);
        }
        Some(Histogram { endpoints, values: n as u64 })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.endpoints.len().saturating_sub(1)
    }

    /// `b1(i, H)`: start value of (1-based) bucket `i`.
    pub fn b1(&self, i: usize) -> f64 {
        self.endpoints[i - 1]
    }

    /// `b2(i, H)`: end value of (1-based) bucket `i`.
    pub fn b2(&self, i: usize) -> f64 {
        self.endpoints[i]
    }

    /// `bVal(i, H)`: number of attribute values in bucket `i`. Height
    /// balanced, so every bucket holds the same share.
    pub fn b_val(&self, _i: usize) -> f64 {
        self.values as f64 / self.buckets() as f64
    }

    /// `bNo(A, H)`: the (1-based) bucket containing attribute value `a`
    /// (clamped to the first/last bucket outside the histogram range).
    pub fn b_no(&self, a: f64) -> usize {
        let b = self.buckets();
        if b == 0 {
            return 1;
        }
        if a <= self.endpoints[0] {
            return 1;
        }
        for i in 1..=b {
            if a <= self.endpoints[i] {
                return i;
            }
        }
        b
    }

    /// The value at quantile `f` (0..=1), read off the height-balanced
    /// endpoints.
    pub fn quantile(&self, f: f64) -> f64 {
        let b = self.buckets();
        if b == 0 {
            return self.endpoints.first().copied().unwrap_or(0.0);
        }
        let idx = ((f.clamp(0.0, 1.0) * b as f64).round() as usize).min(b);
        self.endpoints[idx]
    }

    /// Estimated number of values strictly less than `a` — the histogram
    /// branch of the paper's `StartBefore`/`EndBefore` definitions: sum the
    /// full preceding buckets, then a linear fraction of the bucket
    /// containing `a`.
    pub fn values_below(&self, a: f64) -> f64 {
        let b = self.buckets();
        if b == 0 {
            return 0.0;
        }
        if a <= self.endpoints[0] {
            return 0.0;
        }
        if a >= self.endpoints[b] {
            return self.values as f64;
        }
        let i = self.b_no(a);
        let preceding: f64 = (1..i).map(|k| self.b_val(k)).sum();
        let (lo, hi) = (self.b1(i), self.b2(i));
        let frac = if hi > lo { (a - lo) / (hi - lo) } else { 0.5 };
        preceding + frac * self.b_val(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_data_uniform_buckets() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(vals, 10).unwrap();
        assert_eq!(h.buckets(), 10);
        assert!((h.b_val(1) - 100.0).abs() < 1e-9);
        // ~half the values lie below 500
        let est = h.values_below(500.0);
        assert!((est - 500.0).abs() < 15.0, "est = {est}");
    }

    #[test]
    fn skewed_data_adapts() {
        // 90% of values are 0..100, 10% are 900..1000
        let mut vals: Vec<f64> = (0..900).map(|i| (i % 100) as f64).collect();
        vals.extend((0..100).map(|i| 900.0 + i as f64));
        let h = Histogram::build(vals, 10).unwrap();
        // values below 100 should be ~900, not ~100 (what a uniform
        // assumption over [0, 1000] would give)
        let est = h.values_below(100.0);
        assert!(est > 700.0, "height-balanced histogram should see the skew, est = {est}");
    }

    #[test]
    fn bucket_lookup() {
        let h = Histogram::build((0..100).map(|i| i as f64).collect(), 4).unwrap();
        assert_eq!(h.b_no(-5.0), 1);
        assert_eq!(h.b_no(1e9), 4);
        assert_eq!(h.values_below(-5.0), 0.0);
        assert_eq!(h.values_below(1e9), 100.0);
    }

    proptest! {
        #[test]
        fn values_below_is_monotone(vals in proptest::collection::vec(-1e3f64..1e3, 1..200), b in 1usize..20) {
            if let Some(h) = Histogram::build(vals, b) {
                let mut prev = -1.0;
                for q in -110..110 {
                    let est = h.values_below(q as f64 * 10.0);
                    prop_assert!(est + 1e-9 >= prev);
                    prop_assert!(est <= h.values as f64 + 1e-9);
                    prev = est;
                }
            }
        }

        #[test]
        fn estimate_close_to_truth(vals in proptest::collection::vec(0f64..1000.0, 50..300)) {
            let h = Histogram::build(vals.clone(), 20).unwrap();
            for q in [100.0, 400.0, 800.0] {
                let truth = vals.iter().filter(|&&v| v < q).count() as f64;
                let est = h.values_below(q);
                // within one bucket's worth of error
                prop_assert!((est - truth).abs() <= 2.0 * h.b_val(1) + 1.0,
                    "q={q} truth={truth} est={est}");
            }
        }
    }
}
