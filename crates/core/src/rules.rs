//! The transformation rules of Section 4.
//!
//! How the paper's rules map to this implementation:
//!
//! * **T1–T3** (move taggr/join/tjoin to the middleware, with the sorts
//!   their algorithms need) and **T4–T6** (move σ/π/sort) are subsumed by
//!   the physical-property design: transfers and sorts are enforcers, so
//!   every placement the rules could generate is explored by the search
//!   (see `crate::opt`).
//! * **T7–T8** (cancel `T^M`/`T^D` pairs) and **T10–T12** (redundant
//!   sorts) hold structurally for the same reason.
//! * **T9** (identity projection removal) is avoided at plan-construction
//!   time: the parser never emits identity projections.
//! * **E1** (σ/π commute), **E2** (join/product commutativity), **E4/E5**
//!   (sort commutes with σ/π in the middleware — a consequence of the
//!   middleware algorithms being order-preserving, encoded in their
//!   implementations) appear below, together with the rule groups 3
//!   ("combining several operations into one") and 4 ("reducing
//!   arguments to expensive operations") the paper describes in its
//!   technical report.
//! * **E3** (join associativity) is omitted: the paper itself notes
//!   (Section 5.3) that multi-join queries would need join-order
//!   heuristics instead, and no evaluated query exercises it. TJoin
//!   commutativity is likewise omitted — under a name-based algebra the
//!   key-column rename mapping is ambiguous, and the sort-merge
//!   implementation is cost-symmetric anyway.

use crate::opt::{OptOptions, TangoSem};
use tango_algebra::logical::concat_schemas;
use tango_algebra::{CmpOp, Expr, ProjItem, Schema, TOp};
use volcano::{ExprId, Memo, NewExpr, Rule, RuleKind};

/// Build the active rule set.
pub fn rule_set(options: OptOptions) -> Vec<Box<dyn Rule<TangoSem>>> {
    let mut rules: Vec<Box<dyn Rule<TangoSem>>> = vec![
        Box::new(CommuteJoin),
        Box::new(CommuteProduct),
        Box::new(MergeSelects),
        Box::new(MergeProjects),
    ];
    if options.pushdown_rules {
        rules.push(Box::new(PushSelectThroughProject));
        rules.push(Box::new(PushSelectIntoJoin));
        rules.push(Box::new(PushSelectIntoTJoin));
        rules.push(Box::new(TJoinWindowPush));
        rules.push(Box::new(PushSelectBelowTAggr));
        rules.push(Box::new(PruneTAggrInput));
        rules.push(Box::new(PruneJoinInputs));
    }
    if options.approx_rules && options.pushdown_rules {
        rules.push(Box::new(TAggrWindowPush));
        rules.push(Box::new(CoalesceSelectSwap));
    }
    rules
}

type Tree = NewExpr<TOp>;

fn group(g: volcano::GroupId) -> Tree {
    NewExpr::Group(g)
}

fn op(o: TOp, kids: Vec<Tree>) -> Tree {
    NewExpr::Op(o, kids)
}

fn select(pred: Expr, input: Tree) -> Tree {
    op(TOp::Select { pred }, vec![input])
}

/// E2 for ⋈: `r1 ⋈ r2 ≡_M r2 ⋈ r1`, with a projection restoring the
/// original column layout (our relations are positional lists).
struct CommuteJoin;

impl Rule<TangoSem> for CommuteJoin {
    fn name(&self) -> &'static str {
        "E2-commute-join"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::Multiset
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Join { eq } = &e.op else {
            return vec![];
        };
        let flipped: Vec<(String, String)> =
            eq.iter().map(|(l, r)| (r.clone(), l.clone())).collect();
        let (lg, rg) = (e.children[0], e.children[1]);
        commute_with_restore(memo, lg, rg, TOp::Join { eq: flipped })
    }
}

/// E2 for ×.
struct CommuteProduct;

impl Rule<TangoSem> for CommuteProduct {
    fn name(&self) -> &'static str {
        "E2-commute-product"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::Multiset
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        if e.op != TOp::Product {
            return vec![];
        }
        let (lg, rg) = (e.children[0], e.children[1]);
        commute_with_restore(memo, lg, rg, TOp::Product)
    }
}

/// Build `π_restore(op(R, L))` whose output matches `op(L, R)`'s layout.
fn commute_with_restore(
    memo: &Memo<TangoSem>,
    lg: volcano::GroupId,
    rg: volcano::GroupId,
    flipped_op: TOp,
) -> Vec<Tree> {
    let ls = &memo.props(lg).schema;
    let rs = &memo.props(rg).schema;
    let orig = concat_schemas(ls, rs);
    let flip = concat_schemas(rs, ls);
    // positional mapping: original column i comes from flipped position j
    let n_l = ls.len();
    let n_r = rs.len();
    let mut items = Vec::with_capacity(orig.len());
    for (i, a) in orig.attrs().iter().enumerate() {
        let j = if i < n_l { n_r + i } else { i - n_l };
        items.push(ProjItem::named(Expr::col(flip.attr(j).name.clone()), a.name.clone()));
    }
    vec![op(TOp::Project { items }, vec![op(flipped_op, vec![group(rg), group(lg)])])]
}

/// Rule group 3: `σ_P1(σ_P2(r)) → σ_{P2 ∧ P1}(r)`.
struct MergeSelects;

impl Rule<TangoSem> for MergeSelects {
    fn name(&self) -> &'static str {
        "G3-merge-selects"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Select { pred: p1 } = &e.op else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            if let TOp::Select { pred: p2 } = &c.op {
                out.push(select(Expr::and(p2.clone(), p1.clone()), group(c.children[0])));
            }
        }
        out
    }
}

/// Rule group 3: `π_1(π_2(r)) → π'(r)` by substituting inner expressions
/// into outer column references.
struct MergeProjects;

impl Rule<TangoSem> for MergeProjects {
    fn name(&self) -> &'static str {
        "G3-merge-projects"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Project { items: outer } = &e.op else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            if let TOp::Project { items: inner } = &c.op {
                if let Some(merged) = substitute_items(outer, inner) {
                    out.push(op(TOp::Project { items: merged }, vec![group(c.children[0])]));
                }
            }
        }
        out
    }
}

/// Substitute `inner` item definitions into `outer` expressions; bails on
/// unresolvable references.
fn substitute_items(outer: &[ProjItem], inner: &[ProjItem]) -> Option<Vec<ProjItem>> {
    let mut merged = Vec::with_capacity(outer.len());
    for it in outer {
        merged.push(ProjItem::named(substitute(&it.expr, inner)?, it.alias.clone()));
    }
    Some(merged)
}

fn substitute(e: &Expr, inner: &[ProjItem]) -> Option<Expr> {
    Some(match e {
        Expr::Col { name, .. } => {
            let bare = name.rsplit('.').next().unwrap_or(name);
            let hit = inner.iter().find(|i| i.alias.eq_ignore_ascii_case(bare))?;
            hit.expr.clone()
        }
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Cmp(o, l, r) => {
            Expr::Cmp(*o, Box::new(substitute(l, inner)?), Box::new(substitute(r, inner)?))
        }
        Expr::And(l, r) => Expr::and(substitute(l, inner)?, substitute(r, inner)?),
        Expr::Or(l, r) => Expr::or(substitute(l, inner)?, substitute(r, inner)?),
        Expr::Not(x) => Expr::not(substitute(x, inner)?),
        Expr::Arith(o, l, r) => {
            Expr::Arith(*o, Box::new(substitute(l, inner)?), Box::new(substitute(r, inner)?))
        }
        Expr::Greatest(es) => {
            Expr::Greatest(es.iter().map(|x| substitute(x, inner)).collect::<Option<_>>()?)
        }
        Expr::Least(es) => {
            Expr::Least(es.iter().map(|x| substitute(x, inner)).collect::<Option<_>>()?)
        }
        Expr::IsNull(x, n) => Expr::IsNull(Box::new(substitute(x, inner)?), *n),
    })
}

/// E1 (left-to-right): `π(σ_P(r))`-ward move — we implement the useful
/// direction `σ_P(π(r)) → π(σ_{P'}(r))` with `P'` = `P` substituted
/// through the projection (precondition `attr(P) ⊆ attr(items)` holds by
/// construction of the substitution).
struct PushSelectThroughProject;

impl Rule<TangoSem> for PushSelectThroughProject {
    fn name(&self) -> &'static str {
        "E1-push-select-project"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Select { pred } = &e.op else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            if let TOp::Project { items } = &c.op {
                if let Some(pushed) = substitute(pred, items) {
                    out.push(op(
                        TOp::Project { items: items.clone() },
                        vec![select(pushed, group(c.children[0]))],
                    ));
                }
            }
        }
        out
    }
}

/// Which side of a binary operator covers a predicate's columns.
fn side_of(pred: &Expr, l: &Schema, r: &Schema) -> Option<bool> {
    let cols = pred.columns();
    if cols.is_empty() {
        return None;
    }
    if cols.iter().all(|c| l.has(c)) {
        return Some(true);
    }
    if cols.iter().all(|c| r.has(c)) {
        return Some(false);
    }
    None
}

/// Rule group 4: push single-side conjuncts of a selection below a
/// regular join (or product — handled by the same matcher).
struct PushSelectIntoJoin;

impl Rule<TangoSem> for PushSelectIntoJoin {
    fn name(&self) -> &'static str {
        "G4-push-select-join"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Select { pred } = &e.op else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            let join_op = match &c.op {
                TOp::Join { .. } | TOp::Product => c.op.clone(),
                _ => continue,
            };
            let ls = &memo.props(c.children[0]).schema;
            let rs = &memo.props(c.children[1]).schema;
            let mut lpush = Vec::new();
            let mut rpush = Vec::new();
            let mut keep = Vec::new();
            for conj in pred.conjuncts() {
                match side_of(conj, ls, rs) {
                    Some(true) => lpush.push(conj.clone()),
                    Some(false) => rpush.push(conj.clone()),
                    None => keep.push(conj.clone()),
                }
            }
            if lpush.is_empty() && rpush.is_empty() {
                continue;
            }
            let mut lt = group(c.children[0]);
            if let Some(p) = Expr::and_all(lpush) {
                lt = select(p, lt);
            }
            let mut rt = group(c.children[1]);
            if let Some(p) = Expr::and_all(rpush) {
                rt = select(p, rt);
            }
            let mut t = op(join_op, vec![lt, rt]);
            if let Some(p) = Expr::and_all(keep) {
                t = select(p, t);
            }
            out.push(t);
        }
        out
    }
}

/// Rule group 4 for temporal joins: only non-temporal single-side
/// conjuncts may move below a ⋈ᵀ (the output period is the intersection,
/// so predicates over the output `T1`/`T2` do not refer to either input's
/// attributes).
struct PushSelectIntoTJoin;

impl Rule<TangoSem> for PushSelectIntoTJoin {
    fn name(&self) -> &'static str {
        "G4-push-select-tjoin"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Select { pred } = &e.op else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            let TOp::TJoin { eq } = &c.op else {
                continue;
            };
            let ls = &memo.props(c.children[0]).schema;
            let rs = &memo.props(c.children[1]).schema;
            let temporal = |s: &Schema, col: &str| {
                s.period().is_some_and(|(a, b)| {
                    s.index_of(col).map(|i| i == a || i == b).unwrap_or(false)
                })
            };
            let mut lpush = Vec::new();
            let mut rpush = Vec::new();
            let mut keep = Vec::new();
            for conj in pred.conjuncts() {
                let cols = conj.columns();
                let l_ok =
                    !cols.is_empty() && cols.iter().all(|cn| ls.has(cn) && !temporal(ls, cn));
                let r_ok =
                    !cols.is_empty() && cols.iter().all(|cn| rs.has(cn) && !temporal(rs, cn));
                if l_ok {
                    lpush.push(conj.clone());
                } else if r_ok {
                    rpush.push(conj.clone());
                } else {
                    keep.push(conj.clone());
                }
            }
            if lpush.is_empty() && rpush.is_empty() {
                continue;
            }
            let mut lt = group(c.children[0]);
            if let Some(p) = Expr::and_all(lpush) {
                lt = select(p, lt);
            }
            let mut rt = group(c.children[1]);
            if let Some(p) = Expr::and_all(rpush) {
                rt = select(p, rt);
            }
            let mut t = op(TOp::TJoin { eq: eq.clone() }, vec![lt, rt]);
            if let Some(p) = Expr::and_all(keep) {
                t = select(p, t);
            }
            out.push(t);
        }
        out
    }
}

/// Extract an `Overlaps(A, B)` window over `T1`/`T2` from a predicate's
/// conjuncts: `T1 < B` (or `<=`) together with `T2 > A` (or `>=`).
fn window_of(pred: &Expr) -> Option<(Expr, Expr)> {
    let is_t =
        |name: &str, t: &str| name.rsplit('.').next().unwrap_or(name).eq_ignore_ascii_case(t);
    let mut upper: Option<Expr> = None; // the B bound expr (literal side)
    let mut lower: Option<Expr> = None; // the A bound expr
    for conj in pred.conjuncts() {
        if let Expr::Cmp(op, l, r) = conj {
            if let (Expr::Col { name, .. }, Expr::Lit(_)) = (l.as_ref(), r.as_ref()) {
                if is_t(name, "T1") && matches!(op, CmpOp::Lt | CmpOp::Le) {
                    upper = Some(r.as_ref().clone());
                }
                if is_t(name, "T2") && matches!(op, CmpOp::Gt | CmpOp::Ge) {
                    lower = Some(r.as_ref().clone());
                }
            }
        }
    }
    Some((lower?, upper?))
}

/// Does a group already contain a selection with exactly this predicate?
/// (Guard against rules re-firing forever on their own output.)
fn has_selection(memo: &Memo<TangoSem>, g: volcano::GroupId, pred: &Expr) -> bool {
    memo.exprs_in(g)
        .iter()
        .any(|&eid| matches!(&memo.expr(eid).op, TOp::Select { pred: p } if p == pred))
}

/// Rule group 4 ("reducing arguments to expensive operations"): a
/// time-window selection above a temporal join also restricts both
/// arguments — tuples not overlapping the window cannot contribute an
/// overlapping output period. The top selection is kept, making this an
/// exact (`→_L`) rule.
struct TJoinWindowPush;

impl Rule<TangoSem> for TJoinWindowPush {
    fn name(&self) -> &'static str {
        "G4-tjoin-window-push"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Select { pred } = &e.op else {
            return vec![];
        };
        let Some((a, b)) = window_of(pred) else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            let TOp::TJoin { eq } = &c.op else {
                continue;
            };
            let win = Expr::overlaps("T1", "T2", a.clone(), b.clone());
            if has_selection(memo, c.children[0], &win) || has_selection(memo, c.children[1], &win)
            {
                continue;
            }
            out.push(select(
                pred.clone(),
                op(
                    TOp::TJoin { eq: eq.clone() },
                    vec![
                        select(win.clone(), group(c.children[0])),
                        select(win, group(c.children[1])),
                    ],
                ),
            ));
        }
        out
    }
}

/// Rule group 4: push conjuncts over grouping attributes below a
/// temporal aggregation — groups are independent, so filtering groups
/// before aggregating is exact.
struct PushSelectBelowTAggr;

impl Rule<TangoSem> for PushSelectBelowTAggr {
    fn name(&self) -> &'static str {
        "G4-push-select-taggr"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Select { pred } = &e.op else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            let TOp::TAggr { group_by, aggs } = &c.op else {
                continue;
            };
            let bare = |n: &str| n.rsplit('.').next().unwrap_or(n).to_uppercase();
            let grouping: Vec<String> = group_by.iter().map(|g| bare(g)).collect();
            let mut push = Vec::new();
            let mut keep = Vec::new();
            for conj in pred.conjuncts() {
                let cols = conj.columns();
                if !cols.is_empty() && cols.iter().all(|cn| grouping.contains(&bare(cn))) {
                    push.push(conj.clone());
                } else {
                    keep.push(conj.clone());
                }
            }
            let Some(pushed) = Expr::and_all(push) else {
                continue;
            };
            if has_selection(memo, c.children[0], &pushed) {
                continue;
            }
            let mut t = op(
                TOp::TAggr { group_by: group_by.clone(), aggs: aggs.clone() },
                vec![select(pushed, group(c.children[0]))],
            );
            if let Some(k) = Expr::and_all(keep) {
                t = select(k, t);
            }
            out.push(t);
        }
        out
    }
}

/// Rule group 4, *approximate*: push a time-window selection below a
/// temporal aggregation. Snapshot-preserving within the window (counts at
/// every time point inside the window are unchanged) but not list-exact:
/// constant periods touching the window edge may split differently. The
/// paper's Query 2 plans apply exactly this reduction ("this selection is
/// not needed for correctness, but it reduces the argument size").
struct TAggrWindowPush;

impl Rule<TangoSem> for TAggrWindowPush {
    fn name(&self) -> &'static str {
        "G4-taggr-window-push(approx)"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::Multiset
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Select { pred } = &e.op else {
            return vec![];
        };
        let Some((a, b)) = window_of(pred) else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            let TOp::TAggr { group_by, aggs } = &c.op else {
                continue;
            };
            let win = Expr::overlaps("T1", "T2", a.clone(), b.clone());
            if has_selection(memo, c.children[0], &win) {
                continue;
            }
            out.push(select(
                pred.clone(),
                op(
                    TOp::TAggr { group_by: group_by.clone(), aggs: aggs.clone() },
                    vec![select(win, group(c.children[0]))],
                ),
            ));
        }
        out
    }
}

/// Rule group 4: temporal aggregation only reads its grouping attributes,
/// aggregate arguments, and the period — project everything else away
/// below it, shrinking what crosses the wire (the `PROJECT^D` under the
/// transfer in Figure 4(b)).
struct PruneTAggrInput;

impl Rule<TangoSem> for PruneTAggrInput {
    fn name(&self) -> &'static str {
        "G4-prune-taggr-input"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::TAggr { group_by, aggs } = &e.op else {
            return vec![];
        };
        let child = e.children[0];
        let schema = &memo.props(child).schema;
        let bare = |n: &str| n.rsplit('.').next().unwrap_or(n).to_uppercase();
        let mut needed: Vec<String> = group_by.iter().map(|g| bare(g)).collect();
        for a in aggs {
            if let Some(arg) = &a.arg {
                let b = bare(arg);
                if !needed.contains(&b) {
                    needed.push(b);
                }
            }
        }
        if let Some((t1, t2)) = schema.period() {
            needed.push(bare(&schema.attr(t1).name));
            needed.push(bare(&schema.attr(t2).name));
        }
        let items: Vec<ProjItem> = schema
            .attrs()
            .iter()
            .filter(|a| needed.contains(&bare(&a.name)))
            .map(|a| ProjItem::col(a.name.clone()))
            .collect();
        if items.len() >= schema.len() || items.is_empty() {
            return vec![]; // nothing to prune
        }
        // don't refire on an already-pruned child
        let already = memo.exprs_in(child).iter().any(|&cid| {
            matches!(&memo.expr(cid).op, TOp::Project { items: i } if i.len() == items.len())
        });
        if already {
            return vec![];
        }
        vec![op(
            TOp::TAggr { group_by: group_by.clone(), aggs: aggs.clone() },
            vec![op(TOp::Project { items }, vec![group(child)])],
        )]
    }
}

/// Rule group 4: a projection above a (temporal) join only needs each
/// side's referenced columns plus the join keys (and the period for ⋈ᵀ) —
/// project the rest away below the join. Also looks through one
/// intervening selection, whose columns are added to the needed set.
struct PruneJoinInputs;

impl Rule<TangoSem> for PruneJoinInputs {
    fn name(&self) -> &'static str {
        "G4-prune-join-inputs"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::List
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Project { items } = &e.op else {
            return vec![];
        };
        let bare = |n: &str| n.rsplit('.').next().unwrap_or(n).to_uppercase();
        let mut needed: Vec<String> = Vec::new();
        for it in items {
            for c in it.expr.columns() {
                let b = bare(&c);
                if !needed.contains(&b) {
                    needed.push(b);
                }
            }
        }
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            // optionally look through one selection
            let (select_pred, join_exprs): (Option<&Expr>, Vec<ExprId>) = match &c.op {
                TOp::Select { pred } => (Some(pred), memo.exprs_in(c.children[0]).to_vec()),
                TOp::Join { .. } | TOp::TJoin { .. } => (None, vec![cid]),
                _ => continue,
            };
            let mut needed_here = needed.clone();
            if let Some(p) = select_pred {
                for col in p.columns() {
                    let b = bare(&col);
                    if !needed_here.contains(&b) {
                        needed_here.push(b);
                    }
                }
            }
            for jid in join_exprs {
                let j = memo.expr(jid);
                let (eq, temporal) = match &j.op {
                    TOp::Join { eq } => (eq.clone(), false),
                    TOp::TJoin { eq } => (eq.clone(), true),
                    _ => continue,
                };
                let mut req = needed_here.clone();
                for (l, r) in &eq {
                    for k in [l, r] {
                        let b = bare(k);
                        if !req.contains(&b) {
                            req.push(b);
                        }
                    }
                }
                let prune_side = |g: volcano::GroupId| -> Option<Tree> {
                    let schema = &memo.props(g).schema;
                    let period = schema.period();
                    let keep: Vec<ProjItem> = schema
                        .attrs()
                        .iter()
                        .enumerate()
                        .filter(|(i, a)| {
                            let is_period = period.is_some_and(|(p1, p2)| *i == p1 || *i == p2);
                            (temporal && is_period) || req.contains(&bare(&a.name))
                        })
                        .map(|(_, a)| ProjItem::col(a.name.clone()))
                        .collect();
                    if keep.len() >= schema.len() || keep.is_empty() {
                        return None;
                    }
                    Some(op(TOp::Project { items: keep }, vec![group(g)]))
                };
                let lp = prune_side(j.children[0]);
                let rp = prune_side(j.children[1]);
                if lp.is_none() && rp.is_none() {
                    continue;
                }
                // verify the rewritten tree still resolves every outer
                // reference (clash-renaming may shift `_2` suffixes)
                let side_schema = |g: volcano::GroupId, pruned: &Option<Tree>| -> Schema {
                    match pruned {
                        None => memo.props(g).schema.as_ref().clone(),
                        Some(Tree::Op(TOp::Project { items }, _)) => {
                            let base = &memo.props(g).schema;
                            let mut attrs = Vec::new();
                            for it in items {
                                if let Ok(i) = base.index_of(&it.alias) {
                                    attrs.push(base.attr(i).clone());
                                }
                            }
                            Schema::with_inferred_period(attrs)
                        }
                        _ => memo.props(g).schema.as_ref().clone(),
                    }
                };
                let ls = side_schema(j.children[0], &lp);
                let rs = side_schema(j.children[1], &rp);
                let joined = match &j.op {
                    TOp::TJoin { eq } => match tango_algebra::logical::tjoin_schema(eq, &ls, &rs) {
                        Ok(s) => s,
                        Err(_) => continue,
                    },
                    _ => concat_schemas(&ls, &rs),
                };
                let resolves = |e: &Expr| e.columns().iter().all(|c| joined.has(c));
                if !items.iter().all(|it| resolves(&it.expr)) {
                    continue;
                }
                if let Some(p) = select_pred {
                    if !resolves(p) {
                        continue;
                    }
                }
                // guard against refiring
                if lp.is_some() {
                    let n_keep = ls.len();
                    let already = memo.exprs_in(j.children[0]).iter().any(|&x| {
                        matches!(&memo.expr(x).op, TOp::Project { items } if items.len() == n_keep)
                    });
                    if already {
                        continue;
                    }
                }
                let lt = lp.unwrap_or(group(j.children[0]));
                let rt = rp.unwrap_or(group(j.children[1]));
                let mut t = op(j.op.clone(), vec![lt, rt]);
                if let Some(p) = select_pred {
                    t = select(p.clone(), t);
                }
                out.push(op(TOp::Project { items: items.clone() }, vec![t]));
            }
        }
        out
    }
}

/// The Vassilakis (2000) coalesce/valid-time-selection optimization the
/// paper says "can be adopted in the form of transformation rules" when
/// coalescing is introduced: a time-window selection above a coalescing
/// also restricts its argument. Snapshot-preserving within the window
/// (like [`TAggrWindowPush`]): tuples merged across the window edge may
/// carry different (wider) periods, so the rule is flagged approximate
/// and the top selection is kept.
struct CoalesceSelectSwap;

impl Rule<TangoSem> for CoalesceSelectSwap {
    fn name(&self) -> &'static str {
        "V-coalesce-window-push(approx)"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::Multiset
    }

    fn apply(&self, memo: &Memo<TangoSem>, expr: ExprId) -> Vec<Tree> {
        let e = memo.expr(expr);
        let TOp::Select { pred } = &e.op else {
            return vec![];
        };
        let Some((a, b)) = window_of(pred) else {
            return vec![];
        };
        let mut out = Vec::new();
        for &cid in memo.exprs_in(e.children[0]) {
            let c = memo.expr(cid);
            if c.op != TOp::Coalesce {
                continue;
            }
            let win = Expr::overlaps("T1", "T2", a.clone(), b.clone());
            if has_selection(memo, c.children[0], &win) {
                continue;
            }
            out.push(select(
                pred.clone(),
                op(TOp::Coalesce, vec![select(win, group(c.children[0]))]),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostFactors;
    use crate::opt::{Catalog, GroupProps, TangoSem};
    use crate::phys::Site;
    use std::sync::Arc;
    use tango_algebra::{Attr, Type, Value};
    use tango_stats::RelationStats;
    use volcano::Memo;

    fn sem() -> TangoSem {
        let schema = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("PayRate", Type::Double),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        let stats = RelationStats { rows: 1000.0, avg_tuple_bytes: 28.0, ..Default::default() };
        let mut catalog: Catalog = Catalog::new();
        catalog.insert("POSITION".into(), (schema, Arc::new(stats)));
        TangoSem::new(
            Arc::new(catalog),
            CostFactors::default(),
            OptOptions::default(),
            Default::default(),
            Default::default(),
        )
    }

    fn get() -> NewExpr<TOp> {
        NewExpr::Op(TOp::Get { table: "POSITION".into() }, vec![])
    }

    fn memo_of(tree: NewExpr<TOp>, rules: &[Box<dyn volcano::Rule<TangoSem>>]) -> Memo<TangoSem> {
        let mut memo = Memo::new(sem());
        memo.insert_root(tree);
        memo.explore(rules);
        memo
    }

    fn payrate() -> Expr {
        Expr::cmp(CmpOp::Gt, Expr::col("PayRate"), Expr::lit(Value::Double(10.0)))
    }

    #[test]
    fn merge_selects_collapses_stacks() {
        let tree = NewExpr::Op(
            TOp::Select { pred: payrate() },
            vec![NewExpr::Op(
                TOp::Select { pred: Expr::cmp(CmpOp::Lt, Expr::col("PosID"), Expr::lit(5)) },
                vec![get()],
            )],
        );
        let memo = memo_of(tree, &[Box::new(MergeSelects)]);
        // the top group must gain a merged-predicate Select directly over GET
        let fires: std::collections::HashMap<_, _> = memo.rule_fires().collect();
        assert_eq!(fires["G3-merge-selects"], 1);
        assert_eq!(memo.expr_count(), 4); // 3 original + 1 merged
    }

    #[test]
    fn commute_join_restores_layout() {
        let tree = NewExpr::Op(
            TOp::Join { eq: vec![("PosID".into(), "PosID".into())] },
            vec![get(), get()],
        );
        let memo = memo_of(tree, &[Box::new(CommuteJoin)]);
        // commuted form = Project over flipped Join; the projection's
        // output schema must equal the original join schema
        let root_group = memo.expr(volcano::ExprId(1)).group; // join expr
        let orig_schema = memo.props(root_group).schema.clone();
        let mut found_projected_commute = false;
        for &eid in memo.exprs_in(root_group) {
            let e = memo.expr(eid);
            if let TOp::Project { items } = &e.op {
                found_projected_commute = true;
                assert_eq!(items.len(), orig_schema.len());
                for (it, attr) in items.iter().zip(orig_schema.attrs()) {
                    assert!(it.alias.eq_ignore_ascii_case(&attr.name));
                }
            }
        }
        assert!(found_projected_commute, "commute must add π(⋈ flipped)");
    }

    #[test]
    fn window_push_guard_prevents_refiring() {
        let win_sel = Expr::and(
            Expr::cmp(CmpOp::Lt, Expr::col("T1"), Expr::lit(100)),
            Expr::cmp(CmpOp::Gt, Expr::col("T2"), Expr::lit(50)),
        );
        let tree = NewExpr::Op(
            TOp::Select { pred: win_sel },
            vec![NewExpr::Op(
                TOp::TJoin { eq: vec![("PosID".into(), "PosID".into())] },
                vec![get(), get()],
            )],
        );
        let memo = memo_of(tree, &[Box::new(TJoinWindowPush)]);
        let fires: std::collections::HashMap<_, _> = memo.rule_fires().collect();
        // fires exactly once; the guard stops the fixpoint loop
        assert_eq!(fires["G4-tjoin-window-push"], 1);
        assert!(memo.expr_count() < 12, "guard failed: {} exprs", memo.expr_count());
    }

    #[test]
    fn prune_taggr_input_projects_needed_columns() {
        let tree = NewExpr::Op(
            TOp::TAggr {
                group_by: vec!["PosID".into()],
                aggs: vec![tango_algebra::AggSpec::new(
                    tango_algebra::AggFunc::Count,
                    Some("PosID"),
                    "C",
                )],
            },
            vec![get()],
        );
        let memo = memo_of(tree, &[Box::new(PruneTAggrInput)]);
        // a Project [PosID, T1, T2] must have appeared below some TAggr
        let mut pruned = None;
        for i in 0..memo.expr_count() {
            if let TOp::Project { items } = &memo.expr(volcano::ExprId(i)).op {
                pruned = Some(items.len());
            }
        }
        assert_eq!(pruned, Some(3), "PayRate should be projected away");
    }

    #[test]
    fn rules_carry_their_equivalence_kind() {
        assert_eq!(Rule::<TangoSem>::kind(&MergeSelects), RuleKind::List);
        assert_eq!(Rule::<TangoSem>::kind(&CommuteJoin), RuleKind::Multiset);
        assert_eq!(Rule::<TangoSem>::kind(&TAggrWindowPush), RuleKind::Multiset);
        assert_eq!(Rule::<TangoSem>::kind(&TJoinWindowPush), RuleKind::List);
    }

    /// Middleware implementations only exist for operations the paper's
    /// Heuristic Group 1 allows to move (Get/Product have none).
    #[test]
    fn heuristic_group1_is_structural() {
        let s = sem();
        let props = GroupProps {
            schema: s.catalog["POSITION"].0.clone(),
            stats: s.catalog["POSITION"].1.clone(),
            signature: "GET[POSITION]()".into(),
        };
        use volcano::Semantics;
        let impls = s.implementations(
            &TOp::Get { table: "POSITION".into() },
            &[],
            &props,
            &crate::phys::Req::any(Site::Middleware),
        );
        assert!(impls.is_empty(), "base relations live in the DBMS");
        let impls = s.implementations(
            &TOp::Product,
            &[&props, &props],
            &props,
            &crate::phys::Req::any(Site::Middleware),
        );
        assert!(impls.is_empty(), "no special-purpose middleware product");
        let impls = s.implementations(
            &TOp::Coalesce,
            &[&props],
            &props,
            &crate::phys::Req::any(Site::Dbms),
        );
        assert!(impls.is_empty(), "coalescing is middleware-only");
    }
}
