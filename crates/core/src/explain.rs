//! `EXPLAIN [ANALYZE]` — rendering physical plans with estimates and,
//! after execution, the per-operator spans collected by `tango-trace`.
//!
//! The analyzed output pairs each plan node with the engine step that
//! executed it: the engine records, for every step, the pre-order number
//! of its node in the plan as executed ([`crate::engine::StepReport::node`]),
//! so the renderer never guesses at the mapping. Interior DBMS nodes are
//! folded into the generated SQL and have no step of their own.

use crate::engine::ExecReport;
use crate::phys::{Algo, PhysNode, Site};

/// The optimizer's per-node predictions, recorded while costing the
/// chosen plan. Indexed by the plan's pre-order node number.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeEstimate {
    /// Estimated output cardinality.
    pub est_rows: f64,
    /// Estimated cost of this node alone (excluding children), µs.
    pub est_cost_us: f64,
}

/// Format a microsecond quantity for humans.
pub(crate) fn fmt_us(us: f64) -> String {
    if us >= 1000.0 {
        format!("{:.1}ms", us / 1000.0)
    } else {
        format!("{us:.0}µs")
    }
}

/// Format an estimated cardinality (estimates are fractional).
fn fmt_rows(r: f64) -> String {
    if r >= 100.0 {
        format!("{r:.0}")
    } else {
        format!("{r:.1}")
    }
}

/// Render `EXPLAIN`: the plan tree with site placement and estimated
/// rows per node.
pub fn render_explain(plan: &PhysNode, estimates: &[NodeEstimate]) -> String {
    render(plan, estimates, None, false)
}

/// Render `EXPLAIN ANALYZE`: estimated vs. actual rows, site placement
/// and exclusive times from the execution report. With `redact_timings`
/// every time value prints as `?` so the output is reproducible (used by
/// golden tests).
pub fn render_explain_analyze(
    plan: &PhysNode,
    estimates: &[NodeEstimate],
    report: &ExecReport,
    redact_timings: bool,
) -> String {
    render(plan, estimates, Some(report), redact_timings)
}

fn render(
    plan: &PhysNode,
    estimates: &[NodeEstimate],
    report: Option<&ExecReport>,
    redact: bool,
) -> String {
    // each plan node's step, by pre-order number
    let steps = report.map(|r| {
        let mut by_node = vec![None; plan.node_count()];
        for (si, s) in r.steps.iter().enumerate() {
            if let Some(slot) = s.node.and_then(|n| by_node.get_mut(n)) {
                *slot = Some(si);
            }
        }
        by_node
    });
    let mut pass =
        Renderer { estimates, report, steps: steps.as_deref(), redact, pre: 0, out: String::new() };
    pass.node(plan, 0);
    let mut out = pass.out;
    if let Some(r) = report {
        let (wall, wire, total) = if redact {
            ("?".to_string(), "?".to_string(), "?".to_string())
        } else {
            (
                fmt_us(r.wall.as_secs_f64() * 1e6),
                fmt_us(r.wire.as_secs_f64() * 1e6),
                fmt_us(r.total().as_secs_f64() * 1e6),
            )
        };
        out.push_str(&format!(
            "total: {} rows, wall {wall}, wire {wire}, wall+wire {total}\n",
            r.rows
        ));
    }
    out
}

/// One rendering pass: what every line is annotated from, the pre-order
/// position reached and the text so far.
struct Renderer<'a> {
    estimates: &'a [NodeEstimate],
    report: Option<&'a ExecReport>,
    steps: Option<&'a [Option<usize>]>,
    redact: bool,
    pre: usize,
    out: String,
}

impl Renderer<'_> {
    fn node(&mut self, n: &PhysNode, depth: usize) {
        let (estimates, report, steps, redact) =
            (self.estimates, self.report, self.steps, self.redact);
        let my_pre = self.pre;
        self.pre += 1;
        let out = &mut self.out;
        out.push_str(&"  ".repeat(depth));
        out.push_str(&n.algo.label());
        out.push_str(&n.algo.params());

        let site = match n.algo.site() {
            Site::Middleware => "middleware",
            Site::Dbms => "dbms",
        };
        let mut annots: Vec<String> = vec![site.to_string()];
        if let Some(e) = estimates.get(my_pre) {
            annots.push(format!("est rows {}", fmt_rows(e.est_rows)));
        }
        if let (Some(r), Some(map)) = (report, steps) {
            match map.get(my_pre).copied().flatten() {
                Some(si) if si < r.steps.len() => {
                    let s = &r.steps[si];
                    annots.push(format!("actual rows {}", s.out_rows));
                    let excl = if redact { "?".into() } else { fmt_us(s.exclusive_us) };
                    annots.push(format!("exclusive {excl}"));
                    if s.server_us > 0.0 || matches!(s.algo, Algo::TransferM) {
                        let sv = if redact { "?".into() } else { fmt_us(s.server_us) };
                        annots.push(format!("server {sv}"));
                    }
                    for (k, v) in &s.annotations {
                        annots.push(format!("{k} {v}"));
                    }
                    for (k, v) in &s.counters {
                        // the estimated replan gain is a duration, so it is
                        // redacted along with the measured timings
                        if redact && *k == "replan_gain_est" {
                            annots.push(format!("{k} ?"));
                        } else {
                            annots.push(format!("{k} {v}"));
                        }
                    }
                    if !s.events.is_empty() {
                        // aggregate by kind, first-appearance order, so the
                        // annotation stays short under heavy fault schedules
                        let mut kinds: Vec<(&str, u64)> = Vec::new();
                        for e in &s.events {
                            match kinds.iter_mut().find(|(k, _)| *k == e.kind) {
                                Some((_, n)) => *n += 1,
                                None => kinds.push((&e.kind, 1)),
                            }
                        }
                        let shown: Vec<String> =
                            kinds
                                .iter()
                                .map(|(k, n)| {
                                    if *n > 1 {
                                        format!("{k}\u{00d7}{n}")
                                    } else {
                                        (*k).to_string()
                                    }
                                })
                                .collect();
                        annots.push(format!("events: {}", shown.join(" ")));
                    }
                }
                _ => annots.push("in SQL".to_string()),
            }
        }
        out.push_str(&format!("  ({})", annots.join(", ")));
        out.push('\n');
        for c in &n.children {
            self.node(c, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::{Attr, Schema, Type};

    fn scan() -> PhysNode {
        let attrs = ["K", "T1", "T2"].map(|name| Attr::new(name, Type::Int));
        PhysNode::scan("T", Schema::with_inferred_period(attrs.to_vec()))
    }

    #[test]
    fn explain_renders_site_and_estimates() {
        let plan = PhysNode::over(Algo::TransferM, vec![scan()]).unwrap();
        let est = vec![
            NodeEstimate { est_rows: 42.0, est_cost_us: 10.0 },
            NodeEstimate { est_rows: 42.0, est_cost_us: 5.0 },
        ];
        let s = render_explain(&plan, &est);
        assert!(s.contains("TRANSFER^M  (middleware, est rows 42.0)"), "{s}");
        assert!(s.contains("(dbms, est rows 42.0)"), "{s}");
    }
}
