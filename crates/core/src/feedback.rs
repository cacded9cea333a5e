//! The adaptive loop: "The middleware uses performance feedback from the
//! DBMS to adapt its partitioning of subsequent queries" (abstract) —
//! implemented as the paper's future-work suggestion that "DBMS query
//! processing statistics, such as the running times of query parts, may
//! be used to update the cost factors used in the middleware's cost
//! formulas".
//!
//! After every execution, each instrumented algorithm's *observed*
//! exclusive runtime and *actual* input/output volumes imply a value for
//! its dominant cost factor; the session blends it into the current
//! factor with exponential smoothing.

use crate::cost::CostFactors;
use crate::engine::ExecReport;
use tango_stats::RelationStats;

/// Smoothing weight of each new observation (0 = ignore, 1 = replace).
const FEEDBACK_ALPHA: f64 = 0.3;

/// Update `factors` in place from one execution report, blending each
/// implied factor in at weight `FEEDBACK_ALPHA`. Returns the number of
/// factors updated.
pub fn apply_feedback(factors: &mut CostFactors, report: &ExecReport) -> usize {
    let mut updated = 0;
    let obs_stats = |rows: u64, bytes: u64| RelationStats {
        rows: rows as f64,
        avg_tuple_bytes: if rows > 0 { bytes as f64 / rows as f64 } else { 1.0 },
        ..Default::default()
    };
    for step in &report.steps {
        // very small observations are all noise
        if step.exclusive_us < 50.0 {
            continue;
        }
        // a cache hit never touched the wire, and a step with a `refresh`
        // event holds a delta round trip and a splice — it was served by
        // the refresh, or is the miss the attempt bailed to — so their
        // timing says nothing about the transfer factor they would
        // otherwise update
        if step.annotation("cache") == Some("hit")
            || step.events.iter().any(|e| e.kind == "refresh")
        {
            continue;
        }
        // steps downstream of a mid-query re-plan splice ran over a
        // mixed old/new plan; their actuals would poison the
        // per-operator refit
        if step.annotation("replan") == Some("spliced") {
            continue;
        }
        // TRANSFER^M's exclusive time contains the DBMS's own execution
        // of the translated SQL; the transfer factor models only the
        // shipping, so subtract the server part.
        let observed_us = (step.exclusive_us - step.server_us).max(0.0);
        if observed_us < 50.0 {
            continue;
        }
        let out = obs_stats(step.out_rows, step.out_bytes);
        let ins: Vec<RelationStats> = if step.children.is_empty() {
            // transfers observe their own throughput
            vec![out.clone()]
        } else {
            step.children
                .iter()
                .map(|&c| obs_stats(report.steps[c].out_rows, report.steps[c].out_bytes))
                .collect()
        };
        let in_refs: Vec<&RelationStats> = ins.iter().collect();
        if let Some((id, implied)) = factors.implied_factor(&step.algo, &in_refs, &out, observed_us)
        {
            let old = factors.get(id);
            factors.set(id, (1.0 - FEEDBACK_ALPHA) * old + FEEDBACK_ALPHA * implied);
            updated += 1;
        }
    }
    updated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StepReport;
    use crate::phys::Algo;
    use std::time::Duration;

    fn report(excl_us: f64, rows: u64, bytes: u64) -> ExecReport {
        ExecReport {
            rows: rows as usize,
            wall: Duration::from_micros(excl_us as u64),
            wire: Duration::ZERO,
            steps: vec![StepReport {
                algo: Algo::TransferM,
                label: "TRANSFER^M".into(),
                inclusive_us: excl_us,
                exclusive_us: excl_us,
                out_rows: rows,
                out_bytes: bytes,
                server_us: 0.0,
                annotations: vec![],
                counters: vec![],
                events: vec![],
                children: vec![],
                node: Some(0),
            }],
        }
    }

    #[test]
    fn converges_towards_observed_rate() {
        let mut f = CostFactors { p_tm: 1.0, ..Default::default() };
        // observed: 20_000 µs for 10_000 bytes => implied p_tm = 2.0
        for _ in 0..40 {
            apply_feedback(&mut f, &report(20_000.0, 100, 10_000));
        }
        assert!((f.p_tm - 2.0).abs() < 0.01, "p_tm = {}", f.p_tm);
    }

    #[test]
    fn tiny_observations_ignored() {
        let mut f = CostFactors { p_tm: 1.0, ..Default::default() };
        let n = apply_feedback(&mut f, &report(10.0, 1, 10));
        assert_eq!(n, 0);
        assert_eq!(f.p_tm, 1.0);
    }

    #[test]
    fn spliced_steps_are_skipped() {
        let mut f = CostFactors { p_tm: 1.0, ..Default::default() };
        let mut r = report(20_000.0, 100, 10_000);
        r.steps[0].annotations.push(("replan", "spliced".into()));
        let n = apply_feedback(&mut f, &r);
        assert_eq!(n, 0, "spliced step must not refit factors");
        assert_eq!(f.p_tm, 1.0);
    }
}
