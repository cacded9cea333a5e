//! Conventional (non-temporal) selectivity estimation, plus the combined
//! predicate analyzer that recognizes temporal predicate patterns and
//! routes them to the Section 3.3 estimators.

use crate::stats::RelationStats;
use crate::temporal_sel;
use tango_algebra::{CmpOp, Expr, Value};

/// Default selectivity for predicates we cannot analyze (System R's
/// classic 1/3).
const DEFAULT_SEL: f64 = 1.0 / 3.0;

/// A comparison of a column against a constant, normalized to
/// `col OP value`.
pub(crate) struct ColCmp<'a> {
    pub(crate) col: &'a str,
    pub(crate) op: CmpOp,
    pub(crate) val: f64,
}

pub(crate) fn as_col_cmp(e: &Expr) -> Option<ColCmp<'_>> {
    let Expr::Cmp(op, l, r) = e else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (Expr::Col { name, .. }, Expr::Lit(v)) => {
            Some(ColCmp { col: name, op: *op, val: v.as_f64()? })
        }
        (Expr::Lit(v), Expr::Col { name, .. }) => {
            Some(ColCmp { col: name, op: op.flip(), val: v.as_f64()? })
        }
        _ => None,
    }
}

/// Selectivity of a single comparison against a constant, using min/max
/// (uniform assumption) or the histogram when present — the standard
/// method of Section 3.3's opening paragraph.
fn cmp_selectivity(c: &ColCmp<'_>, stats: &RelationStats) -> f64 {
    let rows = stats.rows.max(1.0);
    let Some(a) = stats.attr(c.col) else {
        return DEFAULT_SEL;
    };
    // every value between the attribute's bounds passes — as after the
    // same conjunct, once a selection has bounded its output by it (see
    // `derive_select`)
    if let (Some(min), Some(max)) = (a.min, a.max) {
        let all = match c.op {
            CmpOp::Lt => max < c.val,
            CmpOp::Le => max <= c.val,
            CmpOp::Gt => min > c.val,
            CmpOp::Ge => min >= c.val,
            CmpOp::Eq => min == c.val && max == c.val,
            CmpOp::Ne => false,
        };
        if all {
            return 1.0;
        }
    }
    let below = |x: f64| -> f64 {
        if let Some(h) = &a.histogram {
            if h.values > 0 {
                return h.values_below(x) / h.values as f64;
            }
        }
        let (min, max) = (a.min_val(), a.max_val());
        if max <= min {
            return if x > min { 1.0 } else { 0.0 };
        }
        ((x - min) / (max - min)).clamp(0.0, 1.0)
    };
    match c.op {
        CmpOp::Eq => 1.0 / stats.distinct(c.col).max(1.0),
        CmpOp::Ne => 1.0 - 1.0 / stats.distinct(c.col).max(1.0),
        CmpOp::Lt => below(c.val),
        CmpOp::Le => below(c.val) + 1.0 / rows,
        CmpOp::Gt => 1.0 - below(c.val) - 1.0 / rows,
        CmpOp::Ge => 1.0 - below(c.val),
    }
    .clamp(0.0, 1.0)
}

/// Selectivity of an arbitrary predicate (without temporal-pattern
/// recognition; see [`select_cardinality`] for the full analyzer).
pub fn selectivity(pred: &Expr, stats: &RelationStats) -> f64 {
    match pred {
        Expr::And(l, r) => selectivity(l, stats) * selectivity(r, stats),
        Expr::Or(l, r) => {
            let (a, b) = (selectivity(l, stats), selectivity(r, stats));
            (a + b - a * b).clamp(0.0, 1.0)
        }
        Expr::Not(e) => 1.0 - selectivity(e, stats),
        Expr::Lit(Value::Int(i)) => {
            if *i != 0 {
                1.0
            } else {
                0.0
            }
        }
        Expr::Cmp(op, l, r) => {
            if let Some(c) = as_col_cmp(pred) {
                return cmp_selectivity(&c, stats);
            }
            // column-to-column comparison
            if let (Expr::Col { name: ln, .. }, Expr::Col { name: rn, .. }) =
                (l.as_ref(), r.as_ref())
            {
                return match op {
                    CmpOp::Eq => 1.0 / stats.distinct(ln).max(stats.distinct(rn)).max(1.0),
                    _ => DEFAULT_SEL,
                };
            }
            DEFAULT_SEL
        }
        Expr::IsNull(e, negated) => {
            if let Expr::Col { name, .. } = e.as_ref() {
                if let Some(a) = stats.attr(name) {
                    let f = (a.nulls as f64 / stats.rows.max(1.0)).clamp(0.0, 1.0);
                    return if *negated { 1.0 - f } else { f };
                }
            }
            DEFAULT_SEL
        }
        _ => DEFAULT_SEL,
    }
}

/// Estimate the output cardinality of `σ_pred(r)`.
///
/// When the relation is temporal (`period` gives the `T1`/`T2` attribute
/// names) the analyzer first looks for the `Overlaps` pattern — a
/// conjunct pair `T1 < B` (or `<=`) and `T2 > A` (or `>=`) — and
/// estimates it *jointly* with [`temporal_sel::overlaps_cardinality`];
/// remaining conjuncts are estimated conventionally and multiplied in.
///
/// With `naive_overlaps` set, the joint analyzer is bypassed and every
/// temporal conjunct is estimated independently — the naive approach
/// Section 3.3 shows to be ~40× wrong. This mode exists to seed
/// misestimates on purpose (adaptivity tests and benchmarks); normal
/// optimization always uses the joint estimator.
pub fn select_cardinality(
    pred: &Expr,
    stats: &RelationStats,
    period: Option<(&str, &str)>,
    naive_overlaps: bool,
) -> f64 {
    let conjuncts = pred.conjuncts();
    let mut consumed = vec![false; conjuncts.len()];
    let mut card = stats.rows;

    let period = if naive_overlaps { None } else { period };
    if let Some((t1, t2)) = period {
        let is_attr = |name: &str, attr: &str| {
            name.rsplit('.').next().unwrap_or(name).eq_ignore_ascii_case(attr)
        };
        // find T1 < B (upper bound on start)
        let mut upper: Option<(usize, f64)> = None;
        let mut lower: Option<(usize, f64)> = None;
        for (i, c) in conjuncts.iter().enumerate() {
            if let Some(cc) = as_col_cmp(c) {
                if is_attr(cc.col, t1) && matches!(cc.op, CmpOp::Lt | CmpOp::Le) && upper.is_none()
                {
                    let b = if cc.op == CmpOp::Le { cc.val + 1.0 } else { cc.val };
                    upper = Some((i, b));
                }
                if is_attr(cc.col, t2) && matches!(cc.op, CmpOp::Gt | CmpOp::Ge) && lower.is_none()
                {
                    let a = if cc.op == CmpOp::Ge { cc.val - 1.0 } else { cc.val };
                    lower = Some((i, a));
                }
            }
        }
        if let (Some((i, b)), Some((j, a))) = (upper, lower) {
            card = temporal_sel::overlaps_cardinality(a, b, stats, t1, t2);
            consumed[i] = true;
            consumed[j] = true;
        }
    }

    // a lower and an upper bound on one attribute bound one interval, not
    // two independent halves: P(lo ≤ x < hi) = P(x ≥ lo) + P(x < hi) − 1
    let bounds: Vec<Option<(ColCmp, bool)>> = conjuncts
        .iter()
        .map(|c| {
            let c = as_col_cmp(c)?;
            let upper = match c.op {
                CmpOp::Lt | CmpOp::Le => true,
                CmpOp::Gt | CmpOp::Ge => false,
                CmpOp::Eq | CmpOp::Ne => return None,
            };
            Some((c, upper))
        })
        .collect();
    for i in 0..bounds.len() {
        let Some((lo, false)) = &bounds[i] else { continue };
        let upper = (0..bounds.len()).find_map(|j| match &bounds[j] {
            Some((hi, true)) if !consumed[j] && hi.col.eq_ignore_ascii_case(lo.col) => {
                Some((j, hi))
            }
            _ => None,
        });
        if let Some((j, hi)) = upper.filter(|_| !consumed[i]) {
            card *= (cmp_selectivity(lo, stats) + cmp_selectivity(hi, stats) - 1.0).max(0.0);
            consumed[i] = true;
            consumed[j] = true;
        }
    }
    for (i, c) in conjuncts.iter().enumerate() {
        if !consumed[i] {
            card *= selectivity(c, stats);
        }
    }
    card.clamp(0.0, stats.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::stats::AttrStats;
    use tango_algebra::date::day;

    fn stats() -> RelationStats {
        let mut s = RelationStats { rows: 1000.0, ..Default::default() };
        s.set_attr(
            "PayRate",
            AttrStats { min: Some(0.0), max: Some(100.0), distinct: 100, ..Default::default() },
        );
        s.set_attr(
            "PosID",
            AttrStats { min: Some(1.0), max: Some(200.0), distinct: 200, ..Default::default() },
        );
        s.set_attr(
            "T1",
            AttrStats {
                min: Some(day(1995, 1, 1) as f64),
                max: Some(day(1999, 12, 25) as f64),
                distinct: 1819,
                ..Default::default()
            },
        );
        s.set_attr(
            "T2",
            AttrStats {
                min: Some(day(1995, 1, 8) as f64),
                max: Some(day(2000, 1, 1) as f64),
                distinct: 1819,
                ..Default::default()
            },
        );
        s
    }

    #[test]
    fn equality_uses_distinct() {
        let s = stats();
        let e = Expr::eq(Expr::col("PosID"), Expr::lit(7));
        assert!((selectivity(&e, &s) - 1.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn range_uses_uniform() {
        let s = stats();
        let e = Expr::cmp(CmpOp::Gt, Expr::col("PayRate"), Expr::lit(Value::Double(10.0)));
        let sel = selectivity(&e, &s);
        assert!((sel - 0.9).abs() < 0.01, "got {sel}");
        // flipped literal-first form
        let e = Expr::cmp(CmpOp::Lt, Expr::lit(Value::Double(10.0)), Expr::col("PayRate"));
        assert!((selectivity(&e, &s) - sel).abs() < 1e-12);
    }

    /// A lower and an upper bound on one attribute estimate the interval
    /// between them: over a skewed histogram, the rows whose values fall
    /// in it, where the product of the two halves counted the whole tail.
    #[test]
    fn a_two_sided_range_is_one_interval() {
        let mut s = stats();
        // PosID thins out: value v holds 200 / v rows
        let vals = (1..=200).flat_map(|v| std::iter::repeat_n(v as f64, 200 / v)).collect();
        let a = s.attr_mut("PosID").expect("PosID");
        a.histogram = Histogram::build(vals, 64);
        let h = a.histogram.clone().expect("a histogram");
        let range = |lo: i64, hi: i64| {
            let ge = Expr::cmp(CmpOp::Ge, Expr::col("PosID"), Expr::lit(lo));
            let lt = Expr::cmp(CmpOp::Lt, Expr::col("PosID"), Expr::lit(hi));
            select_cardinality(&Expr::and(lt, ge), &s, None, false) / s.rows
        };
        for (lo, hi) in [(2, 3), (40, 60), (155, 162)] {
            let within = (h.values_below(hi as f64) - h.values_below(lo as f64)) / h.values as f64;
            assert!((range(lo, hi) - within).abs() < 1e-12, "[{lo}, {hi})");
        }
        assert_eq!(range(60, 40), 0.0);
    }

    #[test]
    fn overlaps_pattern_recognized() {
        let s = stats();
        let a = day(1997, 2, 1);
        let b = day(1997, 2, 8);
        let pred = Expr::overlaps("T1", "T2", Expr::lit(Value::Date(a)), Expr::lit(Value::Date(b)));
        let joint = select_cardinality(&pred, &s, Some(("T1", "T2")), false);
        let naive = select_cardinality(&pred, &s, None, false);
        assert!(joint < naive / 10.0, "joint={joint} naive={naive}");
        // joint should be ~0.7% of rows
        assert!((joint / s.rows) < 0.02);
    }

    #[test]
    fn boolean_combinators() {
        let s = stats();
        let eq = Expr::eq(Expr::col("PosID"), Expr::lit(7)); // 1/200
        let not_eq = Expr::not(eq.clone());
        assert!((selectivity(&not_eq, &s) - (1.0 - 1.0 / 200.0)).abs() < 1e-9);
        let or = Expr::or(eq.clone(), Expr::eq(Expr::col("PosID"), Expr::lit(8)));
        let (a, b) = (1.0 / 200.0, 1.0 / 200.0);
        assert!((selectivity(&or, &s) - (a + b - a * b)).abs() < 1e-9);
        // col-to-col equality uses 1/max(distinct)
        let cc = Expr::eq(Expr::col("PosID"), Expr::col("PayRate"));
        assert!((selectivity(&cc, &s) - 1.0 / 200.0).abs() < 1e-9);
        // unanalyzable predicates fall back to 1/3
        let unk = Expr::cmp(
            CmpOp::Lt,
            Expr::Arith(
                tango_algebra::ArithOp::Add,
                Box::new(Expr::col("PosID")),
                Box::new(Expr::col("PayRate")),
            ),
            Expr::lit(10),
        );
        assert!((selectivity(&unk, &s) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn timeslice_pattern_via_le_and_gt() {
        // T1 <= A AND T2 > A, written with inclusive start
        let s = stats();
        let a = day(1997, 6, 1);
        let pred = Expr::and(
            Expr::cmp(CmpOp::Le, Expr::col("T1"), Expr::lit(Value::Date(a))),
            Expr::cmp(CmpOp::Gt, Expr::col("T2"), Expr::lit(Value::Date(a))),
        );
        let card = select_cardinality(&pred, &s, Some(("T1", "T2")), false);
        // ~7-day periods: a timeslice catches a thin sliver of 1000 rows
        assert!(card < 0.05 * s.rows, "got {card}");
        assert!(card > 0.0);
    }

    #[test]
    fn mixed_predicate_combines() {
        let s = stats();
        let pred = Expr::and(
            Expr::overlaps(
                "T1",
                "T2",
                Expr::lit(Value::Date(day(1997, 2, 1))),
                Expr::lit(Value::Date(day(1997, 2, 8))),
            ),
            Expr::cmp(CmpOp::Gt, Expr::col("PayRate"), Expr::lit(Value::Double(10.0))),
        );
        let card = select_cardinality(&pred, &s, Some(("T1", "T2")), false);
        let temporal_only = select_cardinality(
            &Expr::overlaps(
                "T1",
                "T2",
                Expr::lit(Value::Date(day(1997, 2, 1))),
                Expr::lit(Value::Date(day(1997, 2, 8))),
            ),
            &s,
            Some(("T1", "T2")),
            false,
        );
        assert!((card / temporal_only - 0.9).abs() < 0.02);
    }
}
