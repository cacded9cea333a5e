//! `EXPLAIN [ANALYZE]` — rendering physical plans with estimates and,
//! after execution, the per-operator spans collected by `tango-trace`.
//!
//! The analyzed output pairs each plan node with the engine step that
//! executed it. The engine creates spans in a well-defined order
//! (post-order over the middleware-visible tree: a `TRANSFER^M`'s span
//! follows the `TRANSFER^D` loader spans inside its fragment; interior
//! DBMS nodes are folded into the generated SQL and get no span of their
//! own), and `step_indices` replays that order as a pure function of
//! the plan, so the renderer never guesses at the mapping.

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

/// For each plan node (pre-order), the index of the engine step that
/// executed it — `None` for DBMS-interior nodes, which are evaluated by
/// the generated SQL of the enclosing `TRANSFER^M`.
///
/// Mirrors the span-creation order of `engine::Executor::run` exactly.
fn step_indices(plan: &PhysNode) -> Vec<Option<usize>> {
    let mut out = vec![None; plan.node_count()];
    let mut next = 0usize;
    go_mid(plan, 0, &mut next, &mut out);
    out
}

fn go_mid(n: &PhysNode, pre: usize, next: &mut usize, out: &mut Vec<Option<usize>>) {
    if n.algo == Algo::TransferM {
        // the engine lowers the DBMS fragment (creating T^D loader
        // steps) before creating the TRANSFER^M step itself
        go_dbms(&n.children[0], pre + 1, next, out);
    } else {
        let mut cpre = pre + 1;
        for c in &n.children {
            go_mid(c, cpre, next, out);
            cpre += c.node_count();
        }
    }
    out[pre] = Some(*next);
    *next += 1;
}

fn go_dbms(n: &PhysNode, pre: usize, next: &mut usize, out: &mut Vec<Option<usize>>) {
    if n.algo == Algo::TransferD {
        go_mid(&n.children[0], pre + 1, next, out);
        out[pre] = Some(*next);
        *next += 1;
        return;
    }
    let mut cpre = pre + 1;
    for c in &n.children {
        go_dbms(c, cpre, next, out);
        cpre += c.node_count();
    }
    // interior DBMS node: evaluated inside the fragment's SQL, no step
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
    let steps = report.map(|_| step_indices(plan));
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
    use tango_algebra::{Attr, Schema, SortSpec, Type};

    fn scan() -> PhysNode {
        let attrs = ["K", "T1", "T2"].map(|name| Attr::new(name, Type::Int));
        PhysNode::scan("T", Schema::with_inferred_period(attrs.to_vec()))
    }

    /// Pipeline FILTER^M ← TRANSFER^M ← SORT^D ← SCAN: SORT^D and the
    /// scan are folded into the SQL; steps are created bottom-up.
    #[test]
    fn step_indices_fold_dbms_interior_nodes() {
        let sorted = PhysNode::over(Algo::SortD(SortSpec::by(["K"])), vec![scan()]).unwrap();
        let fetched = PhysNode::over(Algo::TransferM, vec![sorted]).unwrap();
        let plan =
            PhysNode::over(Algo::FilterM(tango_algebra::Expr::lit(1)), vec![fetched]).unwrap();
        // pre-order: 0=FILTER^M 1=TRANSFER^M 2=SORT^D 3=SCAN
        let map = step_indices(&plan);
        assert_eq!(map, vec![Some(1), Some(0), None, None]);
    }

    /// The Figure 5 shape: TRANSFER^D inside a fragment creates its step
    /// (after its middleware input) before the enclosing TRANSFER^M.
    #[test]
    fn step_indices_transfer_d_round_trip() {
        let inner = PhysNode::over(Algo::TransferM, vec![scan()]).unwrap();
        let agg =
            PhysNode::over(Algo::TAggrM { group_by: vec!["K".into()], aggs: vec![] }, vec![inner])
                .unwrap();
        let loaded = PhysNode::over(Algo::TransferD, vec![agg]).unwrap();
        let eq = vec![("K".into(), "K".into())];
        let join = PhysNode::over(Algo::TJoinD(eq), vec![loaded, scan()]).unwrap();
        let plan = PhysNode::over(Algo::TransferM, vec![join]).unwrap();
        // pre-order: 0=T^M 1=TJOIN^D 2=T^D 3=TAGGR^M 4=T^M(inner) 5=SCAN 6=SCAN
        // engine order: inner T^M=0, TAGGR^M=1, T^D=2, outer T^M=3
        let map = step_indices(&plan);
        assert_eq!(map, vec![Some(3), None, Some(2), Some(1), Some(0), None, None]);
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
