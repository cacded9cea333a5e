//! Test-only reference search: the cycle guard and nothing else.
//!
//! Every `(group, required)` pair is searched afresh each time it is
//! reached — no table, so nothing a memoization rule could get wrong.
//! A path that asks for a pair already on it is cut; with strictly
//! positive costs a cheapest plan never nests a pair under itself, so
//! the answer at an empty stack is exact. Exponential in the memo: for
//! small memos only.
//!
//! Uses nothing but `volcano`'s public API, so `tango-core`'s tests
//! include this file as well.

use volcano::{GroupId, Memo, PhysPlan, Semantics};

/// What the reference found for one pair.
pub struct Exact<A> {
    pub cost: f64,
    pub plan: PhysPlan<A>,
    /// Some alternative along the winning tree cost the same as the one
    /// chosen (to within rounding): another search may legitimately
    /// return a different plan of equal cost.
    pub tied: bool,
}

/// Cheapest plan for `group` delivering `required`, by exhaustive search.
pub fn exhaustive<S: Semantics>(
    memo: &Memo<S>,
    group: GroupId,
    required: S::PhysProps,
) -> Option<Exact<S::Algo>> {
    go(memo, group, required, &mut Vec::new())
}

/// Equal to within rounding (never so for an infinite `b`).
fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs()
}

fn go<S: Semantics>(
    memo: &Memo<S>,
    group: GroupId,
    required: S::PhysProps,
    stack: &mut Vec<(GroupId, S::PhysProps)>,
) -> Option<Exact<S::Algo>> {
    let key = (group, required.clone());
    if stack.contains(&key) {
        return None;
    }
    stack.push(key);
    let props = memo.props(group);
    let mut alternatives: Vec<Exact<S::Algo>> = Vec::new();
    for &eid in memo.exprs_in(group) {
        let e = memo.expr(eid);
        let child_props: Vec<&S::Props> = e.children.iter().map(|&c| memo.props(c)).collect();
        for imp in memo.semantics().implementations(&e.op, &child_props, props, &required) {
            let inputs: Option<Vec<Exact<S::Algo>>> = e
                .children
                .iter()
                .zip(imp.child_required)
                .map(|(&cg, creq)| go(memo, cg, creq, stack))
                .collect();
            if let Some(inputs) = inputs {
                alternatives.push(Exact {
                    cost: inputs.iter().fold(imp.cost, |sum, i| sum + i.cost),
                    tied: inputs.iter().any(|i| i.tied),
                    plan: PhysPlan {
                        algo: imp.algo,
                        children: inputs.into_iter().map(|i| i.plan).collect(),
                    },
                });
            }
        }
    }
    for enf in memo.semantics().enforcers(props, &required) {
        if enf.inner_required == required {
            continue;
        }
        if let Some(inner) = go(memo, group, enf.inner_required, stack) {
            alternatives.push(Exact {
                cost: enf.cost + inner.cost,
                tied: inner.tied,
                plan: PhysPlan { algo: enf.algo, children: vec![inner.plan] },
            });
        }
    }
    stack.pop();
    // first of the cheapest, as the search under test breaks ties
    let mut best: Option<Exact<S::Algo>> = None;
    let mut runner_up = f64::INFINITY;
    for alt in alternatives {
        match &best {
            Some(b) if alt.cost >= b.cost => runner_up = runner_up.min(alt.cost),
            _ => {
                if let Some(b) = best.replace(alt) {
                    runner_up = runner_up.min(b.cost);
                }
            }
        }
    }
    best.map(|b| Exact { tied: b.tied || same(b.cost, runner_up), ..b })
}
