//! The cost model — Figure 6 of the paper plus the additional formulas
//! its technical report sketches for the remaining algorithms.
//!
//! Conventions from Section 3.1: formulas return **microseconds**;
//! conceptually each consists of an initialization cost (zero for all
//! algorithms), a per-argument term, and an output-formation term (zero
//! for sorting, selection and projection); DBMS-side selection and
//! projection are free (they fold into the generated SQL); the middleware
//! cannot know which algorithms the DBMS will pick, so DBMS formulas are
//! "generic". Every formula weighs `size(r)` (cardinality × average
//! tuple size) with a cost factor `p` determined by calibration
//! ([`crate::calibrate`]) and refined by runtime feedback
//! ([`crate::feedback`]).

use crate::phys::Algo;
use serde::{Deserialize, Serialize};
use tango_stats::RelationStats;

/// The calibratable cost factors (µs per byte unless noted). Each field
/// is named by a [`FactorId`]; [`FactorId::ALL`] lists them in
/// declaration order, the order of [`CostFactors::values`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostFactors {
    /// `TRANSFER^M`: per byte shipped DBMS → middleware.
    pub p_tm: f64,
    /// `TRANSFER^M` over a middleware-cached fragment: per byte served
    /// from the resident copy (no wire, no server — essentially a memory
    /// scan; see [`crate::cache`]). Kept strictly positive so a cached
    /// transfer still costs more than no transfer at all.
    pub p_cached: f64,
    /// `TRANSFER^D`: per byte shipped middleware → DBMS.
    pub p_td: f64,
    /// `TRANSFER^D`: fixed cost (CREATE TABLE + loader startup), µs.
    pub p_td_fixed: f64,
    /// `FILTER^M`: per byte per predicate term.
    pub p_sem: f64,
    /// `PROJECT^M`: per byte.
    pub p_pm: f64,
    /// `SORT^M`: per byte per log₂(cardinality).
    pub p_sm: f64,
    /// `SORT^D` (generic): per byte per log₂(cardinality).
    pub p_sd: f64,
    /// `TAGGR^M`: per argument byte.
    pub p_taggm1: f64,
    /// `TAGGR^M`: per result byte.
    pub p_taggm2: f64,
    /// `TAGGR^D`: per argument byte.
    pub p_taggd1: f64,
    /// `TAGGR^D`: per result byte.
    pub p_taggd2: f64,
    /// `MERGEJOIN^M`/`TMERGEJOIN^M`: per input byte.
    pub p_mjm: f64,
    /// `MERGEJOIN^M`/`TMERGEJOIN^M`: per output byte.
    pub p_mjout: f64,
    /// Generic DBMS join: per byte of input + output.
    pub p_jd: f64,
    /// Generic DBMS full table scan: per byte.
    pub p_scan: f64,
    /// Generic DBMS Cartesian product: per output byte.
    pub p_cart: f64,
    /// `DUPELIM^M`: per byte.
    pub p_dupm: f64,
    /// DBMS `SELECT DISTINCT`: per byte.
    pub p_dupd: f64,
    /// `COALESCE^M`: per byte.
    pub p_coal: f64,
    /// `TDIFF^M`: per byte.
    pub p_diff: f64,
    /// Cache refresh-by-delta: per byte of base + delta merged (the CPU
    /// side of [`crate::cache::refresh_cost_us`]; the delta's wire cost
    /// is charged at `p_tm`).
    pub p_delta: f64,
}

impl Default for CostFactors {
    /// Uncalibrated ballpark defaults (order-of-magnitude sane for an
    /// in-process engine talking over a LAN-profile wire). Calibration
    /// replaces the load-bearing ones — and because the calibration
    /// probes drain the real `tango-xxl` cursors, the fitted middleware
    /// factors automatically reflect the columnar batch loops of the
    /// session being calibrated; the defaults here stay fixed so
    /// uncalibrated plans are reproducible.
    fn default() -> Self {
        CostFactors {
            p_tm: 0.30,
            p_cached: 0.004,
            p_td: 0.35,
            p_td_fixed: 30_000.0,
            p_sem: 0.004,
            p_pm: 0.004,
            p_sm: 0.002,
            p_sd: 0.0015,
            p_taggm1: 0.01,
            p_taggm2: 0.005,
            p_taggd1: 0.15,
            p_taggd2: 0.15,
            p_mjm: 0.008,
            p_mjout: 0.004,
            p_jd: 0.012,
            p_scan: 0.002,
            p_cart: 0.012,
            p_dupm: 0.008,
            p_dupd: 0.010,
            p_coal: 0.008,
            p_diff: 0.010,
            p_delta: 0.008,
        }
    }
}

impl CostFactors {
    /// The factors from their values in [`FactorId::ALL`] order, as
    /// given (unlike [`CostFactors::set`], nothing is clamped).
    pub fn from_values(values: [f64; FactorId::COUNT]) -> CostFactors {
        let mut f = CostFactors::default();
        for (id, v) in FactorId::ALL.into_iter().zip(values) {
            *f.factor_mut(id) = v;
        }
        f
    }

    /// Every factor's value, in [`FactorId::ALL`] order.
    pub fn values(&self) -> [f64; FactorId::COUNT] {
        FactorId::ALL.map(|id| self.get(id))
    }
}

/// `size(r)` of the formulas.
fn size(s: &RelationStats) -> f64 {
    s.size_bytes().max(1.0)
}

fn log2_card(s: &RelationStats) -> f64 {
    s.rows.max(2.0).log2()
}

impl CostFactors {
    /// Cost (µs) of one algorithm instance given its input and output
    /// statistics. `inputs` are the algorithm's argument statistics in
    /// order; `output` the result statistics.
    pub fn cost(&self, algo: &Algo, inputs: &[&RelationStats], output: &RelationStats) -> f64 {
        match algo {
            // Figure 6 -------------------------------------------------
            Algo::TransferM => self.p_tm * size(inputs[0]),
            Algo::TransferD => self.p_td_fixed + self.p_td * size(inputs[0]),
            Algo::FilterM(pred) => self.p_sem * pred.complexity() as f64 * size(inputs[0]),
            Algo::TAggrM { .. } => {
                // cost(SORT^M(r)) is charged separately by the sort
                // enforcer on the argument; the formula's remaining terms:
                self.p_taggm1 * size(inputs[0]) + self.p_taggm2 * size(output)
            }
            Algo::TAggrD { .. } => self.p_taggd1 * size(inputs[0]) + self.p_taggd2 * size(output),
            // technical-report formulas ---------------------------------
            Algo::ProjectM(_) => self.p_pm * size(inputs[0]),
            Algo::SortM(_) => self.p_sm * size(inputs[0]) * log2_card(inputs[0]),
            Algo::SortXM(..) => {
                // in-memory comparisons plus one spill pass and one merge
                // pass over the whole input (runs are written and re-read)
                self.p_sm * size(inputs[0]) * log2_card(inputs[0])
                    + 2.0 * self.p_sm * size(inputs[0])
            }
            Algo::SortD(_) => self.p_sd * size(inputs[0]) * log2_card(inputs[0]),
            Algo::MergeJoinM(_) | Algo::TMergeJoinM(_) => {
                self.p_mjm * (size(inputs[0]) + size(inputs[1])) + self.p_mjout * size(output)
            }
            Algo::JoinD(_) | Algo::TJoinD(_) => {
                self.p_jd * (size(inputs[0]) + size(inputs[1]) + size(output))
            }
            Algo::ProductD => self.p_cart * size(output),
            Algo::ScanD(_) => self.p_scan * size(output),
            // serving an already-materialized intermediate is a memory
            // scan, like a cached TRANSFER^M
            Algo::MatScanM(_) => self.p_cached * size(output),
            // zero-cost in the DBMS per Section 3.1
            Algo::FilterD(_) | Algo::ProjectD(_) => 0.0,
            Algo::DupElimM => self.p_dupm * size(inputs[0]),
            Algo::DupElimD => self.p_dupd * size(inputs[0]),
            Algo::CoalesceM => self.p_coal * size(inputs[0]),
            Algo::TDiffM => self.p_diff * (size(inputs[0]) + size(inputs[1])),
        }
    }

    /// The value of an algorithm's dominant cost factor under which its
    /// formula predicts `observed_us` (used by the feedback loop) — so an
    /// observation equal to the model's own prediction implies the
    /// factor it already has. Every formula is linear in each factor:
    /// price once with the factor at 0 and once at 1, and solve. `None`
    /// for an algorithm without an adaptable factor.
    pub fn implied_factor(
        &self,
        algo: &Algo,
        inputs: &[&RelationStats],
        output: &RelationStats,
        observed_us: f64,
    ) -> Option<(FactorId, f64)> {
        let id = FactorId::for_algo(algo)?;
        let cost_at = |v: f64| {
            let mut f = *self;
            *f.factor_mut(id) = v;
            f.cost(algo, inputs, output)
        };
        let rest = cost_at(0.0);
        let per_unit = cost_at(1.0) - rest;
        (per_unit > 0.0).then(|| (id, ((observed_us - rest) / per_unit).max(0.0)))
    }

    fn factor_mut(&mut self, id: FactorId) -> &mut f64 {
        match id {
            FactorId::Tm => &mut self.p_tm,
            FactorId::Cached => &mut self.p_cached,
            FactorId::Td => &mut self.p_td,
            FactorId::TdFixed => &mut self.p_td_fixed,
            FactorId::Sem => &mut self.p_sem,
            FactorId::Pm => &mut self.p_pm,
            FactorId::Sm => &mut self.p_sm,
            FactorId::Sd => &mut self.p_sd,
            FactorId::TaggM1 => &mut self.p_taggm1,
            FactorId::TaggM2 => &mut self.p_taggm2,
            FactorId::TaggD1 => &mut self.p_taggd1,
            FactorId::TaggD2 => &mut self.p_taggd2,
            FactorId::Mjm => &mut self.p_mjm,
            FactorId::Mjout => &mut self.p_mjout,
            FactorId::Jd => &mut self.p_jd,
            FactorId::Scan => &mut self.p_scan,
            FactorId::Cart => &mut self.p_cart,
            FactorId::Dupm => &mut self.p_dupm,
            FactorId::Dupd => &mut self.p_dupd,
            FactorId::Coal => &mut self.p_coal,
            FactorId::Diff => &mut self.p_diff,
            FactorId::Delta => &mut self.p_delta,
        }
    }

    /// Read the factor addressed by `id`.
    pub fn get(&self, id: FactorId) -> f64 {
        let mut f = *self;
        *f.factor_mut(id)
    }

    /// Overwrite the factor addressed by `id` (clamped positive).
    pub fn set(&mut self, id: FactorId, v: f64) {
        *self.factor_mut(id) = v.max(1e-9);
    }
}

/// Names every [`CostFactors`] field. The variant docs say which field;
/// [`FactorId::name`] spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactorId {
    /// `p_tm`: `TRANSFER^M` per-byte rate.
    Tm,
    /// `p_cached`: cached `TRANSFER^M` per-byte rate.
    Cached,
    /// `p_td`: `TRANSFER^D` per-byte rate.
    Td,
    /// `p_td_fixed`: `TRANSFER^D` fixed cost.
    TdFixed,
    /// `p_sem`: `FILTER^M` per-byte rate.
    Sem,
    /// `p_pm`: `PROJECT^M` rate.
    Pm,
    /// `p_sm`: `SORT^M` rate.
    Sm,
    /// `p_sd`: `SORT^D` rate.
    Sd,
    /// `p_taggm1`: `TAGGR^M` argument-side rate.
    TaggM1,
    /// `p_taggm2`: `TAGGR^M` result-side rate.
    TaggM2,
    /// `p_taggd1`: `TAGGR^D` argument-side rate.
    TaggD1,
    /// `p_taggd2`: `TAGGR^D` result-side rate.
    TaggD2,
    /// `p_mjm`: `MERGEJOIN^M`/`TMERGEJOIN^M` input-side rate.
    Mjm,
    /// `p_mjout`: `MERGEJOIN^M`/`TMERGEJOIN^M` output-side rate.
    Mjout,
    /// `p_jd`: generic DBMS join rate.
    Jd,
    /// `p_scan`: generic DBMS scan rate.
    Scan,
    /// `p_cart`: generic DBMS Cartesian product rate.
    Cart,
    /// `p_dupm`: `DUPELIM^M` rate.
    Dupm,
    /// `p_dupd`: DBMS `SELECT DISTINCT` rate.
    Dupd,
    /// `p_coal`: `COALESCE^M` rate.
    Coal,
    /// `p_diff`: `TDIFF^M` rate.
    Diff,
    /// `p_delta`: refresh-by-delta merge rate.
    Delta,
}

impl FactorId {
    /// How many factors there are.
    pub const COUNT: usize = 22;

    /// Every factor, in [`CostFactors`] declaration order.
    pub const ALL: [FactorId; FactorId::COUNT] = [
        FactorId::Tm,
        FactorId::Cached,
        FactorId::Td,
        FactorId::TdFixed,
        FactorId::Sem,
        FactorId::Pm,
        FactorId::Sm,
        FactorId::Sd,
        FactorId::TaggM1,
        FactorId::TaggM2,
        FactorId::TaggD1,
        FactorId::TaggD2,
        FactorId::Mjm,
        FactorId::Mjout,
        FactorId::Jd,
        FactorId::Scan,
        FactorId::Cart,
        FactorId::Dupm,
        FactorId::Dupd,
        FactorId::Coal,
        FactorId::Diff,
        FactorId::Delta,
    ];

    /// The [`CostFactors`] field this factor names.
    pub fn name(self) -> &'static str {
        match self {
            FactorId::Tm => "p_tm",
            FactorId::Cached => "p_cached",
            FactorId::Td => "p_td",
            FactorId::TdFixed => "p_td_fixed",
            FactorId::Sem => "p_sem",
            FactorId::Pm => "p_pm",
            FactorId::Sm => "p_sm",
            FactorId::Sd => "p_sd",
            FactorId::TaggM1 => "p_taggm1",
            FactorId::TaggM2 => "p_taggm2",
            FactorId::TaggD1 => "p_taggd1",
            FactorId::TaggD2 => "p_taggd2",
            FactorId::Mjm => "p_mjm",
            FactorId::Mjout => "p_mjout",
            FactorId::Jd => "p_jd",
            FactorId::Scan => "p_scan",
            FactorId::Cart => "p_cart",
            FactorId::Dupm => "p_dupm",
            FactorId::Dupd => "p_dupd",
            FactorId::Coal => "p_coal",
            FactorId::Diff => "p_diff",
            FactorId::Delta => "p_delta",
        }
    }

    /// The dominant factor of an algorithm, if it has one.
    fn for_algo(algo: &Algo) -> Option<FactorId> {
        Some(match algo {
            Algo::TransferM => FactorId::Tm,
            Algo::TransferD => FactorId::Td,
            Algo::FilterM(_) => FactorId::Sem,
            Algo::SortM(_) | Algo::SortXM(..) => FactorId::Sm,
            Algo::SortD(_) => FactorId::Sd,
            Algo::TAggrM { .. } => FactorId::TaggM1,
            Algo::TAggrD { .. } => FactorId::TaggD1,
            Algo::MergeJoinM(_) | Algo::TMergeJoinM(_) => FactorId::Mjm,
            Algo::JoinD(_) | Algo::TJoinD(_) => FactorId::Jd,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::Expr;

    fn stats(rows: f64, width: f64) -> RelationStats {
        RelationStats { rows, avg_tuple_bytes: width, ..Default::default() }
    }

    #[test]
    fn figure6_shapes() {
        let f = CostFactors::default();
        let small = stats(100.0, 40.0);
        let big = stats(100_000.0, 40.0);
        let out = stats(100.0, 24.0);
        // transfers scale linearly with size(r)
        let c1 = f.cost(&Algo::TransferM, &[&small], &small);
        let c2 = f.cost(&Algo::TransferM, &[&big], &big);
        assert!((c2 / c1 - 1000.0).abs() < 1.0);
        // DBMS selection/projection are free
        assert_eq!(f.cost(&Algo::FilterD(Expr::lit(1)), &[&big], &big), 0.0);
        assert_eq!(f.cost(&Algo::ProjectD(vec![]), &[&big], &big), 0.0);
        // FILTER^M scales with predicate complexity
        let p1 = Expr::eq(Expr::col("A"), Expr::lit(1));
        let p2 = Expr::and(p1.clone(), Expr::eq(Expr::col("B"), Expr::lit(2)));
        assert!(
            f.cost(&Algo::FilterM(p2), &[&big], &big) > f.cost(&Algo::FilterM(p1), &[&big], &big)
        );
        // TAGGR^D is far more expensive per byte than TAGGR^M
        let agg = |m: bool| {
            let a = if m {
                Algo::TAggrM { group_by: vec![], aggs: vec![] }
            } else {
                Algo::TAggrD { group_by: vec![], aggs: vec![] }
            };
            f.cost(&a, &[&big], &out)
        };
        assert!(agg(false) > 5.0 * agg(true));
    }

    #[test]
    fn implied_factor_round_trips() {
        let f = CostFactors::default();
        let input = stats(10_000.0, 50.0);
        let out = stats(10_000.0, 50.0);
        let cost = f.cost(&Algo::TransferM, &[&input], &out);
        let (id, p) = f.implied_factor(&Algo::TransferM, &[&input], &out, cost).unwrap();
        assert_eq!(id, FactorId::Tm);
        assert!((p - f.p_tm).abs() < 1e-12);
    }

    /// Feeding the model its own prediction back must hold every
    /// adaptable factor still, whatever other terms (output, spill,
    /// fixed) the algorithm's formula charges.
    #[test]
    fn the_models_own_prediction_moves_no_factor() {
        let f = CostFactors::default();
        let (l, r, out) = (stats(10_000.0, 50.0), stats(3_000.0, 40.0), stats(25_000.0, 70.0));
        let eq = || vec![("A".to_string(), "A".to_string())];
        let by_a = || tango_algebra::SortSpec::by(["A"]);
        let algos = [
            Algo::TransferM,
            Algo::TransferD,
            Algo::FilterM(Expr::and(
                Expr::eq(Expr::col("A"), Expr::lit(1)),
                Expr::eq(Expr::col("B"), Expr::lit(2)),
            )),
            Algo::SortM(by_a()),
            Algo::SortXM(by_a(), 100),
            Algo::SortD(by_a()),
            Algo::TAggrM { group_by: vec![], aggs: vec![] },
            Algo::TAggrD { group_by: vec![], aggs: vec![] },
            Algo::MergeJoinM(eq()),
            Algo::TMergeJoinM(eq()),
            Algo::JoinD(eq()),
            Algo::TJoinD(eq()),
        ];
        for algo in algos {
            let predicted = f.cost(&algo, &[&l, &r], &out);
            let (id, implied) = f.implied_factor(&algo, &[&l, &r], &out, predicted).unwrap();
            let rel_err = (implied / f.get(id) - 1.0).abs();
            assert!(rel_err < 1e-9, "{}: {id:?} {} -> {implied}", algo.label(), f.get(id));
        }
    }

    #[test]
    fn set_get() {
        let mut f = CostFactors::default();
        f.set(FactorId::Jd, 42.0);
        assert_eq!(f.get(FactorId::Jd), 42.0);
        f.set(FactorId::Jd, -1.0); // clamped to positive
        assert!(f.get(FactorId::Jd) > 0.0);
    }

    /// `values` and `from_values` round-trip every factor unclamped, in
    /// `FactorId::ALL` order, and the names are the fields' own, once
    /// each, in declaration order.
    #[test]
    fn factor_values_round_trip_in_field_order() {
        let defaults = CostFactors::default();
        let mut perturbed = defaults.values();
        for (i, v) in perturbed.iter_mut().enumerate() {
            *v = if i % 2 == 0 { -(i as f64) } else { *v * 1.5 + i as f64 };
        }
        for values in [defaults.values(), perturbed] {
            let f = CostFactors::from_values(values);
            assert_eq!(CostFactors::from_values(f.values()), f);
            assert_eq!(f.values(), values, "nothing is clamped");
            for (id, v) in FactorId::ALL.into_iter().zip(values) {
                assert_eq!(f.get(id), v, "{}", id.name());
            }
        }
        let names: Vec<&str> = FactorId::ALL.iter().map(|id| id.name()).collect();
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), FactorId::COUNT, "{names:?}");
        // the Debug rendering lists the fields in declaration order
        let debug = format!("{defaults:?}");
        let fields: Vec<&str> =
            debug.split(['{', ',']).skip(1).filter_map(|kv| kv.split(':').next()).collect();
        assert_eq!(fields.iter().map(|f| f.trim()).collect::<Vec<_>>(), names);
    }
}
