//! Cost-based physical search over a memo.
//!
//! Top-down optimization with memoization on (group, required physical
//! properties) — the second phase of the paper's two-phase optimizer
//! ("for each algebraic operation in a plan, it assumes that each of the
//! algorithms available for computing that operation is being used, and
//! it estimates the consequent cost").
//!
//! # Enforcer cycles and what may be memoized
//!
//! Bidirectional enforcers (TANGO's `T^M`/`T^D`) make the `(group,
//! required)` graph cyclic, so the search keeps the stack of pairs in
//! progress and prunes a call that asks for a pair already on it. A
//! frame's answer is therefore computed *relative to the stack*: a branch
//! pruned because it ran into a pair **above** the frame may be feasible
//! (and cheaper) when the frame's pair is reached from elsewhere, and
//! such an answer must not be replayed. A prune that ran into the frame's
//! **own** pair, or into a pair pushed beneath it, is different: all
//! costs are strictly positive, so a cheapest plan never nests a pair
//! under itself — the pruned branch could not have won in any context,
//! and the frame explored everything else. Each frame therefore tracks
//! the lowest stack position a prune beneath it hit and is memoized
//! exactly when that position is not above its own; the frames *between*
//! a pruned pair and the prune site are the ones left out. Search effort
//! is then proportional to the number of distinct pairs, not to the
//! number of paths through them.
//!
//! Winners are kept behind [`Rc`] and shared between the table and the
//! frames that use them; the [`PhysPlan`] tree is assembled once, from
//! the root winner, when the search is over.

use crate::memo::{ExprId, GroupId, Memo, Semantics};
use std::collections::HashMap;
use std::rc::Rc;

/// A candidate physical implementation of one logical operator.
pub struct Implementation<S: Semantics> {
    pub algo: S::Algo,
    /// Physical properties required from each child, in order.
    pub child_required: Vec<S::PhysProps>,
    /// The algorithm's own cost (children costs are added by the search).
    /// Must be strictly positive.
    pub cost: f64,
}

/// A property enforcer: wraps a plan for the *same group* optimized under
/// the (weaker) `inner_required`.
pub struct Enforcer<S: Semantics> {
    pub algo: S::Algo,
    pub inner_required: S::PhysProps,
    /// Must be strictly positive (see the module documentation).
    pub cost: f64,
}

/// A complete physical plan.
#[derive(Debug, Clone)]
pub struct PhysPlan<A> {
    pub algo: A,
    pub children: Vec<PhysPlan<A>>,
}

impl<A> PhysPlan<A> {
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(PhysPlan::node_count).sum::<usize>()
    }
}

/// The winner for one (group, required) pair.
#[derive(Debug)]
pub struct Best<S: Semantics> {
    pub cost: f64,
    pub plan: PhysPlan<S::Algo>,
    /// Which class element the plan's root implements.
    pub expr: ExprId,
}

/// Search-effort accounting.
#[derive(Debug, Default, Clone)]
pub struct SearchStats {
    pub optimize_calls: usize,
    pub implementations_considered: usize,
    pub enforcers_considered: usize,
    /// `(group, required)` pairs answered from the memoization table
    /// without a fresh search.
    pub cache_hits: usize,
    /// Enforcer cycles pruned during the search.
    pub cycles_pruned: usize,
}

impl SearchStats {
    /// Share of `(group, required)` lookups answered from the table.
    pub fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.optimize_calls).max(1) as f64
    }
}

/// Find the cheapest physical plan for `group` delivering `required`.
pub fn optimize<S: Semantics>(
    memo: &Memo<S>,
    group: GroupId,
    required: S::PhysProps,
    stats: &mut SearchStats,
) -> Option<Best<S>> {
    let mut ctx =
        Ctx { memo, table: HashMap::new(), in_progress: Vec::new(), lowest_pruned: NONE, stats };
    let winner = ctx.optimize(group, required)?;
    Some(Best { cost: winner.cost, plan: winner.plan(), expr: winner.expr })
}

/// The decision a frame made: the root algorithm and the winners it
/// stands on, shared rather than copied.
struct Winner<S: Semantics> {
    cost: f64,
    expr: ExprId,
    algo: S::Algo,
    inputs: Vec<Rc<Winner<S>>>,
}

impl<S: Semantics> Winner<S> {
    fn plan(&self) -> PhysPlan<S::Algo> {
        PhysPlan {
            algo: self.algo.clone(),
            children: self.inputs.iter().map(|w| w.plan()).collect(),
        }
    }
}

/// A `(group, required)` pair: the unit of search and of memoization.
type Pair<S> = (GroupId, <S as Semantics>::PhysProps);

/// "No prune beneath this frame": above every stack position.
const NONE: usize = usize::MAX;

struct Ctx<'a, S: Semantics> {
    memo: &'a Memo<S>,
    table: HashMap<Pair<S>, Option<Rc<Winner<S>>>>,
    /// Guard against enforcer cycles.
    in_progress: Vec<Pair<S>>,
    /// The lowest `in_progress` position a cycle prune hit since the
    /// current frame began ([`NONE`] if there was none).
    lowest_pruned: usize,
    stats: &'a mut SearchStats,
}

impl<S: Semantics> Ctx<'_, S> {
    fn optimize(&mut self, group: GroupId, required: S::PhysProps) -> Option<Rc<Winner<S>>> {
        let key = (group, required);
        if let Some(hit) = self.table.get(&key) {
            self.stats.cache_hits += 1;
            return hit.clone();
        }
        if let Some(at) = self.in_progress.iter().position(|k| *k == key) {
            // cycle via enforcers: prune this path, and remember how far
            // up the stack the truncation reaches
            self.lowest_pruned = self.lowest_pruned.min(at);
            self.stats.cycles_pruned += 1;
            return None;
        }
        let depth = self.in_progress.len();
        let required = key.1.clone();
        self.in_progress.push(key);
        self.stats.optimize_calls += 1;
        let pruned_outside = std::mem::replace(&mut self.lowest_pruned, NONE);

        let mut best: Option<Winner<S>> = None;
        let props = self.memo.props(group);

        // 1. native implementations of every class element
        for &eid in self.memo.exprs_in(group) {
            let e = self.memo.expr(eid);
            let child_props: Vec<&S::Props> =
                e.children.iter().map(|&c| self.memo.props(c)).collect();
            let impls =
                self.memo.semantics().implementations(&e.op, &child_props, props, &required);
            for imp in impls {
                self.stats.implementations_considered += 1;
                debug_assert_eq!(imp.child_required.len(), e.children.len());
                let mut cost = imp.cost;
                let mut inputs = Vec::with_capacity(e.children.len());
                for (&cg, creq) in e.children.iter().zip(imp.child_required) {
                    match self.optimize(cg, creq) {
                        Some(w) => {
                            cost += w.cost;
                            inputs.push(w);
                        }
                        None => break,
                    }
                }
                let feasible = inputs.len() == e.children.len();
                if feasible && best.as_ref().is_none_or(|b| cost < b.cost) {
                    best = Some(Winner { cost, expr: eid, algo: imp.algo, inputs });
                }
            }
        }

        // 2. enforcers wrapping a weaker requirement on the same group
        for enf in self.memo.semantics().enforcers(props, &required) {
            self.stats.enforcers_considered += 1;
            if enf.inner_required == required {
                continue; // would recurse forever
            }
            if let Some(inner) = self.optimize(group, enf.inner_required) {
                let cost = enf.cost + inner.cost;
                if best.as_ref().is_none_or(|b| cost < b.cost) {
                    best = Some(Winner {
                        cost,
                        expr: inner.expr,
                        algo: enf.algo,
                        inputs: vec![inner],
                    });
                }
            }
        }

        let best = best.map(Rc::new);
        // invariant: this call pushed its frame on entry and every callee pops its own
        let key = self.in_progress.pop().expect("frame pushed above");
        // Memoize unless a prune beneath this frame ran into a pair
        // *above* it (see the module documentation): that answer holds
        // only under the current stack. The caller inherits the lowest
        // position either way.
        if self.lowest_pruned >= depth {
            self.table.insert(key, best.clone());
        }
        self.lowest_pruned = self.lowest_pruned.min(pruned_outside);
        best
    }
}
