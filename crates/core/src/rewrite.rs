//! Query rewriting — the adaptable stage *before* the Volcano optimizer
//! ever runs.
//!
//! The paper's middleware adapts after optimization (cost-model
//! calibration, mid-query re-planning); this module adds the missing
//! front door: named rewrite rules, applied to the logical algebra tree
//! between the tsql parser and the optimizer. Rules fix queries the
//! optimizer cannot — predicate spellings its estimator does not
//! recognize, cartesian products hiding equi-joins, a second SQL surface
//! that never mentions `VALIDTIME`.
//!
//! Every rule is a Rust function, and every pack a `'static` table of
//! rules (osm2streets-style named transformation suites; `docs/REWRITES.md`
//! tabulates what each rule rewrites and why that is sound). A rule is
//! one of two kinds:
//!
//! * **expression rules** — `fn(&Expr) -> Option<Expr>`, tried bottom-up
//!   at every node of every predicate and projection expression;
//! * **plan passes** — `fn(&Logical, Tables) -> Option<Logical>`, tried
//!   bottom-up at every operator node.
//!
//! Packs are applied to **fixpoint with a pass budget**: whole-tree
//! sweeps repeat until nothing changes or the budget is hit (looping
//! rule sets terminate and surface a `rewrite_budget_hit` counter
//! instead of hanging). Every firing is recorded and reported as
//! `rewrite` span events/counters in `EXPLAIN ANALYZE`, the optimizer
//! trace, and JSON traces.
//!
//! Enable packs per session via
//! [`TangoOptions::rewrite_packs`](crate::TangoOptions::rewrite_packs)
//! or `\rewrites` in the REPL.

use crate::error::{Result, TangoError};
use tango_algebra::logical::{concat_schemas, tjoin_schema};
use tango_algebra::{CmpOp, Expr, Logical, ProjItem, Schema, TOp};

/// Resolves a base relation's schema (what [`Logical::output_schema`]
/// takes).
type Tables<'a> = &'a dyn Fn(&str) -> Option<Schema>;

/// Whole-tree sweep budget of [`Rewriter::apply`]. The shipped packs
/// settle within two sweeps; the bound stops a rule set that loops.
pub(crate) const DEFAULT_PASS_BUDGET: usize = 32;

/// A rule pack: a named, ordered suite of rules.
#[derive(Debug)]
pub struct RulePack {
    /// Pack name, as [`TangoOptions::rewrite_packs`](crate::TangoOptions::rewrite_packs)
    /// lists it.
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Rules, in application order.
    pub rules: &'static [Rule],
}

/// One named rule of a pack.
#[derive(Debug)]
pub struct Rule {
    /// Rule name (reported in traces as `pack/rule`).
    pub name: &'static str,
    kind: RuleKind,
}

/// The two rule kinds a pack may mix. Each returns `None` where it does
/// not apply.
#[derive(Debug, Clone, Copy)]
enum RuleKind {
    /// Rewrites one expression node.
    Expr(fn(&Expr) -> Option<Expr>),
    /// Rewrites one operator node.
    Plan(fn(&Logical, Tables<'_>) -> Option<Logical>),
}

const NOT_CMP: Rule = Rule { name: "not-cmp", kind: RuleKind::Expr(not_cmp) };

/// The shipped packs. Both `temporal-normalize` and `subquery-to-join`
/// list `not-cmp`: each needs it alone, and together the first one
/// listed fires.
const PACKS: &[RulePack] = &[
    RulePack {
        name: "temporal-normalize",
        description: "Normalize negated/flipped temporal predicates into the paper's \
                      StartBefore/EndBefore form (T1 <= hi AND T2 >= lo), the only spelling the \
                      Section 3.3 joint Overlaps estimator and the window-push optimizer rules \
                      recognize.",
        rules: &[
            NOT_CMP,
            Rule { name: "not-not", kind: RuleKind::Expr(not_not) },
            Rule { name: "demorgan-and", kind: RuleKind::Expr(demorgan_and) },
            Rule { name: "demorgan-or", kind: RuleKind::Expr(demorgan_or) },
            Rule { name: "flip-literal", kind: RuleKind::Expr(flip_literal) },
        ],
    },
    RulePack {
        name: "subquery-to-join",
        description: "Turn a FROM-subquery correlated through WHERE conjuncts over a cartesian \
                      product into a real equi-join: negated inequalities become equalities, \
                      cross-input Col = Col conjuncts become join keys, adjacent selections \
                      collapse.",
        rules: &[
            NOT_CMP,
            Rule { name: "merge-selects", kind: RuleKind::Plan(merge_selects) },
            Rule { name: "product-to-join", kind: RuleKind::Plan(product_to_join) },
        ],
    },
    RulePack {
        name: "compat",
        description: "Map the plain-SQL spelling of a temporal join (GREATEST/LEAST intersection \
                      items over a strict overlap predicate, the exact Figure 5 TJOIN^D \
                      rendering) onto tsql's TJoin, opening the temporal algebra to queries that \
                      never said VALIDTIME.",
        rules: &[Rule { name: "sql-overlap-to-tjoin", kind: RuleKind::Plan(sql_overlap_to_tjoin) }],
    },
];

/// One rule's aggregate firing count over a query.
#[derive(Debug, Clone)]
pub struct RuleFire {
    /// Pack name.
    pub pack: String,
    /// Rule name.
    pub rule: String,
    /// How many times it fired.
    pub fires: u64,
}

/// What [`Rewriter::apply`] did to one query.
#[derive(Debug, Clone, Default)]
pub struct RewriteOutcome {
    /// Per-rule firing counts (only rules that fired).
    pub fires: Vec<RuleFire>,
    /// Whole-tree sweeps taken.
    pub passes: usize,
    /// Whether the sweep budget stopped a still-changing rewrite (a
    /// looping rule set); surfaced as a `rewrite_budget_hit` counter.
    pub budget_hit: bool,
}

impl RewriteOutcome {
    /// Total rule firings.
    pub fn total_fires(&self) -> u64 {
        self.fires.iter().map(|f| f.fires).sum()
    }

    /// `true` when nothing fired and no budget was hit.
    pub fn is_empty(&self) -> bool {
        self.fires.is_empty() && !self.budget_hit
    }
}

/// An ordered set of rule packs, ready to rewrite plans.
#[derive(Debug, Clone)]
pub struct Rewriter {
    packs: Vec<&'static RulePack>,
}

impl Rewriter {
    /// The shipped packs of the given names, in the given order.
    pub fn load(names: &[String]) -> Result<Rewriter> {
        let packs = names
            .iter()
            .map(|name| {
                PACKS.iter().find(|p| p.name == name).ok_or_else(|| {
                    let shipped: Vec<&str> = PACKS.iter().map(|p| p.name).collect();
                    TangoError::Rewrite(format!(
                        "unknown rule pack '{name}' (tried the shipped packs: {})",
                        shipped.join(", ")
                    ))
                })
            })
            .collect::<Result<_>>()?;
        Ok(Rewriter { packs })
    }

    /// The packs, in application order.
    pub fn packs(&self) -> &[&'static RulePack] {
        &self.packs
    }

    /// Rewrite a logical plan to fixpoint (bounded by the pass budget).
    /// Returns the rewritten plan and the firing record; a plan no rule
    /// matches comes back unchanged with an empty outcome.
    pub fn apply(&self, mut plan: Logical, src: Tables<'_>) -> (Logical, RewriteOutcome) {
        let mut counts: Vec<Vec<u64>> =
            self.packs.iter().map(|p| vec![0u64; p.rules.len()]).collect();
        let mut passes = 0;
        let mut budget_hit = false;
        loop {
            let mut sweep = Sweep { packs: &self.packs, counts: &mut counts, changed: false, src };
            plan = sweep.plan(plan);
            let changed = sweep.changed;
            passes += 1;
            if !changed {
                break;
            }
            if passes >= DEFAULT_PASS_BUDGET {
                budget_hit = true;
                break;
            }
        }
        let mut fires = Vec::new();
        for (pack, counts) in self.packs.iter().zip(&counts) {
            for (rule, &n) in pack.rules.iter().zip(counts) {
                if n > 0 {
                    fires.push(RuleFire {
                        pack: pack.name.to_string(),
                        rule: rule.name.to_string(),
                        fires: n,
                    });
                }
            }
        }
        (plan, RewriteOutcome { fires, passes, budget_hit })
    }
}

/// One whole-tree sweep: expression rules bottom-up over every predicate
/// and projection item, then plan passes bottom-up over the operator
/// tree. At each node the first rule (in pack order) that fires wins,
/// and the sweep moves on; `changed` records whether anything fired.
struct Sweep<'a> {
    packs: &'a [&'static RulePack],
    counts: &'a mut [Vec<u64>],
    changed: bool,
    src: Tables<'a>,
}

impl Sweep<'_> {
    /// The first rule that `fire` fires at one node, counted.
    fn first<T>(&mut self, fire: impl Fn(RuleKind) -> Option<T>) -> Option<T> {
        for (pack, counts) in self.packs.iter().zip(self.counts.iter_mut()) {
            for (rule, count) in pack.rules.iter().zip(counts) {
                if let Some(new) = fire(rule.kind) {
                    *count += 1;
                    self.changed = true;
                    return Some(new);
                }
            }
        }
        None
    }

    fn expr(&mut self, e: &mut Expr) {
        // children first
        match e {
            Expr::Col { .. } | Expr::Lit(_) => {}
            Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(_, l, r) => {
                self.expr(l);
                self.expr(r);
            }
            Expr::Not(i) | Expr::IsNull(i, _) => self.expr(i),
            Expr::Greatest(es) | Expr::Least(es) => es.iter_mut().for_each(|x| self.expr(x)),
        }
        let fired = self.first(|kind| match kind {
            RuleKind::Expr(rule) => rule(e),
            RuleKind::Plan(_) => None,
        });
        if let Some(new) = fired {
            *e = new;
        }
    }

    fn plan(&mut self, node: Logical) -> Logical {
        // children (and their expressions) first
        let node = match node {
            Logical::Apply { mut op, inputs } => {
                op.visit_exprs_mut(|e| self.expr(e));
                Logical::Apply { op, inputs: inputs.into_iter().map(|i| self.plan(i)).collect() }
            }
            Logical::Sort { keys, input } => {
                Logical::Sort { keys, input: Box::new(self.plan(*input)) }
            }
            Logical::TransferM { input } => {
                Logical::TransferM { input: Box::new(self.plan(*input)) }
            }
            Logical::TransferD { input } => {
                Logical::TransferD { input: Box::new(self.plan(*input)) }
            }
        };
        let src = self.src;
        let fired = self.first(|kind| match kind {
            RuleKind::Plan(pass) => pass(&node, src),
            RuleKind::Expr(_) => None,
        });
        fired.unwrap_or(node)
    }
}

// ---------------------------------------------------------------------------
// Expression rules. Each is sound under SQL's three-valued logic: the
// replacement is TRUE, FALSE or UNKNOWN exactly where the original is.
// ---------------------------------------------------------------------------

/// The 3VL-sound negation of a comparison operator: `NOT (a op b)` ≡
/// `a negate(op) b` (both are `UNKNOWN` on `NULL` operands).
fn negate_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
    }
}

/// The operand of a `NOT`.
fn negated(e: &Expr) -> Option<&Expr> {
    match e {
        Expr::Not(inner) => Some(inner),
        _ => None,
    }
}

/// `NOT (a op b)` → `a negate(op) b`.
fn not_cmp(e: &Expr) -> Option<Expr> {
    match negated(e)? {
        Expr::Cmp(op, a, b) => Some(Expr::Cmp(negate_op(*op), a.clone(), b.clone())),
        _ => None,
    }
}

/// `NOT (NOT a)` → `a`: Kleene negation swaps TRUE and FALSE and keeps
/// UNKNOWN, so twice is the identity.
fn not_not(e: &Expr) -> Option<Expr> {
    match negated(e)? {
        Expr::Not(a) => Some((**a).clone()),
        _ => None,
    }
}

/// `NOT (a AND b)` → `NOT a OR NOT b` (De Morgan holds in Kleene logic).
fn demorgan_and(e: &Expr) -> Option<Expr> {
    match negated(e)? {
        Expr::And(a, b) => Some(Expr::or(Expr::not((**a).clone()), Expr::not((**b).clone()))),
        _ => None,
    }
}

/// `NOT (a OR b)` → `NOT a AND NOT b`.
fn demorgan_or(e: &Expr) -> Option<Expr> {
    match negated(e)? {
        Expr::Or(a, b) => Some(Expr::and(Expr::not((**a).clone()), Expr::not((**b).clone()))),
        _ => None,
    }
}

/// `lit op col` → `col flip(op) lit`: the same comparison read from the
/// other side, so the column comes first as the estimator expects.
fn flip_literal(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Cmp(op, l, c) if matches!(**l, Expr::Lit(_)) && matches!(**c, Expr::Col { .. }) => {
            Some(Expr::Cmp(op.flip(), c.clone(), l.clone()))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Plan passes.
// ---------------------------------------------------------------------------

/// `node` as an operator over exactly `N` inputs.
fn applied<const N: usize>(node: &Logical) -> Option<(&TOp, &[Logical; N])> {
    match node {
        Logical::Apply { op, inputs } => Some((op, inputs.as_slice().try_into().ok()?)),
        _ => None,
    }
}

/// `σ_{q ∧ p}` keeps exactly the rows where both `q` and `p` are TRUE
/// (Kleene AND), i.e. the rows `σ_p(σ_q(·))` keeps.
fn merge_selects(node: &Logical, _: Tables<'_>) -> Option<Logical> {
    let (TOp::Select { pred: p }, [input]) = applied(node)? else { return None };
    let (TOp::Select { pred: q }, [inner]) = applied(input)? else { return None };
    Some(inner.clone().select(Expr::and(q.clone(), p.clone())))
}

fn product_to_join(node: &Logical, src: Tables<'_>) -> Option<Logical> {
    let (TOp::Select { pred }, [input]) = applied(node)? else { return None };
    let (TOp::Product, [left, right]) = applied(input)? else { return None };
    let ls = left.output_schema(src).ok()?;
    let rs = right.output_schema(src).ok()?;
    let concat = concat_schemas(&ls, &rs);
    let nl = ls.len();
    let mut eq: Vec<(String, String)> = Vec::new();
    let mut rest: Vec<Expr> = Vec::new();
    for c in pred.conjuncts() {
        if let Expr::Cmp(CmpOp::Eq, a, b) = c {
            if let (Expr::Col { name: an, .. }, Expr::Col { name: bn, .. }) =
                (a.as_ref(), b.as_ref())
            {
                let ai = concat.index_of(an).ok();
                let bi = concat.index_of(bn).ok();
                if let (Some(ai), Some(bi)) = (ai, bi) {
                    // a cross-input equality becomes a join key: the left
                    // side by its (concatenated) output name, the right
                    // side by the right input's own attribute name —
                    // the convention `Logical::Join` uses everywhere
                    if ai < nl && bi >= nl {
                        eq.push((concat.attr(ai).name.clone(), rs.attr(bi - nl).name.clone()));
                        continue;
                    }
                    if bi < nl && ai >= nl {
                        eq.push((concat.attr(bi).name.clone(), rs.attr(ai - nl).name.clone()));
                        continue;
                    }
                }
            }
        }
        rest.push(c.clone());
    }
    if eq.is_empty() {
        return None;
    }
    let join = left.clone().join(right.clone(), eq);
    // Join and Product share the concatenated output schema, so dropping
    // the consumed conjuncts is layout-preserving by construction.
    Some(match Expr::and_all(rest) {
        Some(p) => join.select(p),
        None => join,
    })
}

/// The inverse of `Translator-To-SQL`'s `TJOIN^D` rendering (Figure 5):
/// `π_{…, GREATEST(A.T1,B.T1), LEAST(A.T2,B.T2)}(σ_{A.T1<B.T2 ∧ B.T1<A.T2}(A ⋈_eq B))`
/// → `π'(A ⋈ᵀ_eq B)`. Sound because `Period::intersect` is defined
/// exactly when `start < end` — the same strict overlap the selection
/// tests — and the intersection endpoints are exactly the
/// `GREATEST`/`LEAST` items. Bails (no fire) unless the shape matches
/// completely and the rewritten output schema is byte-identical.
fn sql_overlap_to_tjoin(node: &Logical, src: Tables<'_>) -> Option<Logical> {
    let (TOp::Project { items }, [input]) = applied(node)? else { return None };
    let (TOp::Select { pred }, [jin]) = applied(input)? else { return None };
    let (TOp::Join { eq }, [left, right]) = applied(jin)? else { return None };
    if eq.is_empty() {
        return None;
    }
    let ls = left.output_schema(src).ok()?;
    let rs = right.output_schema(src).ok()?;
    let (lp1, lp2) = ls.period()?;
    let (rp1, rp2) = rs.period()?;
    let concat = concat_schemas(&ls, &rs);
    let nl = ls.len();
    let cname = |i: usize| concat.attr(i).name.to_string();
    let (lt1, lt2) = (cname(lp1), cname(lp2));
    let (rt1, rt2) = (cname(nl + rp1), cname(nl + rp2));

    // the two strict-overlap conjuncts, in either `<` or flipped `>` form
    let mut start_before_rend = false; // A.T1 < B.T2
    let mut rstart_before_end = false; // B.T1 < A.T2
    let mut rest: Vec<Expr> = Vec::new();
    for c in pred.conjuncts() {
        let lt = match c {
            Expr::Cmp(CmpOp::Lt, x, y) => Some((x.as_ref(), y.as_ref())),
            Expr::Cmp(CmpOp::Gt, x, y) => Some((y.as_ref(), x.as_ref())),
            _ => None,
        };
        if let Some((Expr::Col { name: x, .. }, Expr::Col { name: y, .. })) = lt {
            if !start_before_rend && x.eq_ignore_ascii_case(&lt1) && y.eq_ignore_ascii_case(&rt2) {
                start_before_rend = true;
                continue;
            }
            if !rstart_before_end && x.eq_ignore_ascii_case(&rt1) && y.eq_ignore_ascii_case(&lt2) {
                rstart_before_end = true;
                continue;
            }
        }
        rest.push(c.clone());
    }
    if !(start_before_rend && rstart_before_end) {
        return None;
    }

    // join keys must not be period columns (TJoin drops the right keys
    // and replaces both periods with the intersection)
    for (ln, rn) in eq {
        let li = ls.index_of(ln).ok()?;
        let ri = rs.index_of(rn).ok()?;
        if li == lp1 || li == lp2 || ri == rp1 || ri == rp2 {
            return None;
        }
    }

    let tjs = tjoin_schema(eq, &ls, &rs).ok()?;
    let (tj1, tj2) = {
        let (a, b) = tjs.period()?;
        (tjs.attr(a).name.to_string(), tjs.attr(b).name.to_string())
    };
    // concatenated name → TJoin output name, for every non-period column
    let mut map: Vec<(String, String)> = Vec::new();
    for (i, a) in ls.attrs().iter().enumerate() {
        if i != lp1 && i != lp2 {
            map.push((a.name.clone(), a.name.clone()));
        }
    }
    let left_kept = ls.len() - 2;
    let mut k = 0usize;
    for j in 0..rs.len() {
        if j == rp1 || j == rp2 {
            continue;
        }
        let concat_name = cname(nl + j);
        let key = eq.iter().find(|(_, rc)| rs.index_of(rc).map(|x| x == j).unwrap_or(false));
        match key {
            // a dropped right key is still addressable through its left
            // partner (they are equal on every output row)
            Some((ln, _)) => map.push((concat_name, ln.clone())),
            None => {
                map.push((concat_name, tjs.attr(left_kept + k).name.clone()));
                k += 1;
            }
        }
    }
    let is_period = |n: &str| [&lt1, &lt2, &rt1, &rt2].iter().any(|p| n.eq_ignore_ascii_case(p));
    let remap = |e: &Expr| -> Option<Expr> {
        let mut out = e.clone();
        let mut ok = true;
        rename_cols(&mut out, &mut |name: &mut String| {
            if is_period(name) {
                ok = false;
                return;
            }
            match map.iter().find(|(from, _)| from.eq_ignore_ascii_case(name)) {
                Some((_, to)) => *name = to.clone(),
                None => ok = false,
            }
        });
        ok.then_some(out)
    };
    let is_pair = |es: &[Expr], a: &str, b: &str| -> bool {
        if es.len() != 2 {
            return false;
        }
        let name = |e: &Expr| match e {
            Expr::Col { name, .. } => Some(name.clone()),
            _ => None,
        };
        match (name(&es[0]), name(&es[1])) {
            (Some(x), Some(y)) => {
                (x.eq_ignore_ascii_case(a) && y.eq_ignore_ascii_case(b))
                    || (x.eq_ignore_ascii_case(b) && y.eq_ignore_ascii_case(a))
            }
            _ => false,
        }
    };

    let mut new_items = Vec::with_capacity(items.len());
    for it in items {
        let e = match &it.expr {
            Expr::Greatest(es) if is_pair(es, &lt1, &rt1) => Expr::col(tj1.clone()),
            Expr::Least(es) if is_pair(es, &lt2, &rt2) => Expr::col(tj2.clone()),
            other => remap(other)?,
        };
        new_items.push(ProjItem { expr: e, alias: it.alias.clone() });
    }
    let mut rest_mapped = Vec::with_capacity(rest.len());
    for c in &rest {
        rest_mapped.push(remap(c)?);
    }

    let tjoin = left.clone().tjoin(right.clone(), eq.clone());
    let inner = match Expr::and_all(rest_mapped) {
        Some(p) => tjoin.select(p),
        None => tjoin,
    };
    let new = inner.project(new_items);
    // safety net: the rewrite must preserve the node's output schema
    let before = node.output_schema(src).ok()?;
    let after = new.output_schema(src).ok()?;
    (before == after).then_some(new)
}

/// Apply `f` to every column name of `e`, in place; a renamed column
/// loses the index it was bound to.
fn rename_cols(e: &mut Expr, f: &mut dyn FnMut(&mut String)) {
    e.visit_mut(&mut |n| {
        if let Expr::Col { name, index } = n {
            f(name);
            *index = None;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_algebra::{Attr, SortSpec, Type};

    fn position() -> Schema {
        Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpID", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ])
    }

    fn src() -> impl Fn(&str) -> Option<Schema> {
        |t| t.eq_ignore_ascii_case("POSITION").then(position)
    }

    fn rewriter(pack: &'static RulePack) -> Rewriter {
        Rewriter { packs: vec![pack] }
    }

    static NOT_CMP_ONLY: RulePack = RulePack { name: "t", description: "d", rules: &[NOT_CMP] };

    #[test]
    fn not_cmp_fires_and_counts() {
        let plan = Logical::get("POSITION").select(Expr::not(Expr::cmp(
            CmpOp::Gt,
            Expr::col("T1"),
            Expr::lit(10i64),
        )));
        let (out, outcome) = rewriter(&NOT_CMP_ONLY).apply(plan, &src());
        let Logical::Apply { op: TOp::Select { pred }, .. } = &out else {
            panic!("expected select")
        };
        assert_eq!(*pred, Expr::cmp(CmpOp::Le, Expr::col("T1"), Expr::lit(10i64)));
        assert_eq!(outcome.total_fires(), 1);
        assert!(!outcome.budget_hit);
        assert_eq!(outcome.fires[0].pack, "t");
        assert_eq!(outcome.fires[0].rule, "not-cmp");
    }

    #[test]
    fn no_match_leaves_plan_unchanged() {
        let plan = Logical::get("POSITION")
            .select(Expr::cmp(CmpOp::Le, Expr::col("T1"), Expr::lit(10i64)))
            .sort(SortSpec::by(["PosID"]));
        let before = format!("{plan}");
        let (out, outcome) = rewriter(&NOT_CMP_ONLY).apply(plan, &src());
        assert_eq!(format!("{out}"), before);
        assert!(outcome.is_empty());
        assert_eq!(outcome.passes, 1);
    }

    /// `a op b` → `b flip(op) a`: always applies, so it alone loops.
    fn swap_operands(e: &Expr) -> Option<Expr> {
        match e {
            Expr::Cmp(op, a, b) => Some(Expr::Cmp(op.flip(), b.clone(), a.clone())),
            _ => None,
        }
    }

    #[test]
    fn looping_rules_hit_budget_not_hang() {
        static LOOP: RulePack = RulePack {
            name: "loop",
            description: "d",
            rules: &[Rule { name: "swap", kind: RuleKind::Expr(swap_operands) }],
        };
        let plan = Logical::get("POSITION").select(Expr::cmp(
            CmpOp::Lt,
            Expr::col("T1"),
            Expr::lit(10i64),
        ));
        let (_, outcome) = rewriter(&LOOP).apply(plan, &src());
        assert!(outcome.budget_hit);
        assert_eq!(outcome.passes, DEFAULT_PASS_BUDGET);
        assert_eq!(outcome.total_fires(), DEFAULT_PASS_BUDGET as u64);
    }

    #[test]
    fn product_to_join_extracts_cross_keys() {
        static P2J: RulePack = RulePack {
            name: "t",
            description: "d",
            rules: &[Rule { name: "p2j", kind: RuleKind::Plan(product_to_join) }],
        };
        let plan = Logical::Apply {
            op: TOp::Product,
            inputs: vec![Logical::get("POSITION"), Logical::get("POSITION")],
        }
        .select(Expr::and(
            Expr::eq(Expr::col("PosID"), Expr::col("PosID_2")),
            Expr::cmp(CmpOp::Lt, Expr::col("T1"), Expr::lit(10i64)),
        ));
        let before = plan.output_schema(&src()).unwrap();
        let (out, o) = rewriter(&P2J).apply(plan, &src());
        assert_eq!(o.total_fires(), 1);
        let after = out.output_schema(&src()).unwrap();
        assert_eq!(before, after, "rewrite must preserve the output schema");
        let rendered = format!("{out}");
        assert!(rendered.contains("JOIN"), "{rendered}");
        assert!(!rendered.contains("PRODUCT"), "{rendered}");
    }

    /// The fold moves columns to other positions (`EmpID_2` is column 5 of
    /// the join and column 2 of the temporal join), so an index bound
    /// against the join must not survive the rename.
    #[test]
    fn overlap_to_tjoin_unbinds_the_columns_it_renames() {
        let rw = Rewriter::load(&["compat".to_string()]).unwrap(); // that one pass
        let join = Logical::get("POSITION")
            .join(Logical::get("POSITION"), vec![("PosID".to_string(), "PosID".to_string())]);
        let concat = join.output_schema(&src()).unwrap();
        let bound = |e: Expr| e.bound(&concat).unwrap();
        let lt = |a: &str, b: &str| Expr::cmp(CmpOp::Lt, Expr::col(a), Expr::col(b));
        let pred = bound(Expr::and(
            Expr::and(lt("T1", "T2_2"), lt("T1_2", "T2")),
            Expr::cmp(CmpOp::Gt, Expr::col("EmpID_2"), Expr::lit(5i64)),
        ));
        let items = vec![
            ProjItem::named(bound(Expr::col("PosID_2")), "PosID"),
            ProjItem::named(bound(Expr::col("EmpID_2")), "Other"),
            ProjItem::named(bound(Expr::Greatest(vec![Expr::col("T1"), Expr::col("T1_2")])), "T1"),
            ProjItem::named(bound(Expr::Least(vec![Expr::col("T2"), Expr::col("T2_2")])), "T2"),
        ];
        let (out, o) = rw.apply(join.select(pred).project(items), &src());
        assert_eq!(o.total_fires(), 1);
        let Some((TOp::Project { items }, [input])) = applied(&out) else { panic!("{out}") };
        let Some((TOp::Select { pred }, [tjoin])) = applied(input) else { panic!("{out}") };
        assert!(matches!(applied(tjoin), Some((TOp::TJoin { .. }, [_, _]))), "{out}");
        let mut cols = 0;
        for e in items.iter().map(|it| &it.expr).chain([pred]) {
            e.visit(&mut |n| {
                if let Expr::Col { index, .. } = n {
                    cols += 1;
                    assert_eq!(*index, None, "{n} kept the index it had in the join");
                }
            });
        }
        assert_eq!(cols, 5);
    }
}
