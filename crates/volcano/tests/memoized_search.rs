//! The memoized search against the exhaustive reference, on generated
//! memos shaped like TANGO's: two sites with transfer enforcers in both
//! directions, an order property with a sort enforcer, operators that
//! exist at one site or both, and sub-classes shared between parents.

mod reference;

use proptest::prelude::*;
use std::cell::Cell;
use volcano::{
    optimize, Enforcer, ExprId, GroupId, Implementation, Memo, NewExpr, PhysPlan, Rule, RuleKind,
    SearchStats, Semantics,
};

thread_local! {
    static ALGO_CLONES: Cell<usize> = const { Cell::new(0) };
}

/// An algorithm name that counts how often it is cloned.
#[derive(Debug, PartialEq)]
struct Algo(String);

impl Clone for Algo {
    fn clone(&self) -> Self {
        ALGO_CLONES.with(|n| n.set(n.get() + 1));
        Algo(self.0.clone())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    Leaf(u8),
    Unary(u8),
    Binary(u8),
}

impl Op {
    /// Row of [`Sites::ops`] describing this operator.
    fn row(self) -> usize {
        match self {
            Op::Leaf(k) => k as usize,
            Op::Unary(k) => 3 + k as usize,
            Op::Binary(k) => 5 + k as usize,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Site {
    Home,
    Away,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Req {
    site: Site,
    sorted: bool,
}

const REQS: [Req; 4] = [
    Req { site: Site::Home, sorted: false },
    Req { site: Site::Home, sorted: true },
    Req { site: Site::Away, sorted: false },
    Req { site: Site::Away, sorted: true },
];

/// How a home-side algorithm treats order (away-side ones never deliver
/// one, like TANGO's DBMS algorithms).
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Unordered in, unordered out.
    Ignores,
    /// Passes its input's order through (`FILTER^M`).
    Preserves,
    /// Needs sorted input, delivers sorted output (`TAGGR^M`).
    Sorted,
}

#[derive(Debug, Clone, Copy)]
struct OpCosts {
    home: Option<(f64, Order)>,
    away: Option<f64>,
}

/// Generated semantics: per-operator costs and availability, per-byte
/// enforcer factors.
struct Sites {
    ops: Vec<OpCosts>,
    ship_home: f64,
    ship_away: f64,
    sort: [f64; 2],
    /// Whether shipping away keeps an order (TANGO's `T^D` does not).
    ship_away_keeps_order: bool,
}

impl Semantics for Sites {
    type Op = Op;
    /// Output size; enforcer costs scale with it.
    type Props = f64;
    type PhysProps = Req;
    type Algo = Algo;

    fn derive_props(&self, op: &Op, children: &[&f64]) -> f64 {
        match op {
            Op::Leaf(k) => 1.0 + *k as f64,
            Op::Unary(_) => *children[0] * 0.5,
            Op::Binary(_) => *children[0] + *children[1],
        }
    }

    fn implementations(
        &self,
        op: &Op,
        child_props: &[&f64],
        _props: &f64,
        required: &Req,
    ) -> Vec<Implementation<Self>> {
        let costs = self.ops[op.row()];
        // asymmetric in the inputs, so commuted elements rarely tie
        let weight = 1.0 + child_props.first().map_or(0.0, |s| **s) * 0.01;
        let (name, cost, child) = match required.site {
            Site::Away => match costs.away {
                Some(c) if !required.sorted => ("away", c, Req { site: Site::Away, sorted: false }),
                _ => return vec![],
            },
            Site::Home => {
                let Some((c, order)) = costs.home else { return vec![] };
                let child_sorted = match order {
                    Order::Ignores if required.sorted => return vec![],
                    Order::Ignores => false,
                    Order::Preserves => required.sorted,
                    Order::Sorted => true,
                };
                ("home", c, Req { site: Site::Home, sorted: child_sorted })
            }
        };
        vec![Implementation {
            algo: Algo(format!("{op:?}@{name}")),
            child_required: vec![child; child_props.len()],
            cost: cost * weight,
        }]
    }

    fn enforcers(&self, size: &f64, required: &Req) -> Vec<Enforcer<Self>> {
        let mut out = Vec::new();
        if required.sorted {
            out.push(Enforcer {
                algo: Algo(format!("sort@{:?}", required.site)),
                inner_required: Req { sorted: false, ..*required },
                cost: self.sort[required.site as usize] * size,
            });
        }
        match required.site {
            Site::Home => out.push(Enforcer {
                algo: Algo("ship_home".into()),
                inner_required: Req { site: Site::Away, ..*required },
                cost: self.ship_home * size,
            }),
            Site::Away if !required.sorted || self.ship_away_keeps_order => out.push(Enforcer {
                algo: Algo("ship_away".into()),
                inner_required: Req { site: Site::Home, ..*required },
                cost: self.ship_away * size,
            }),
            Site::Away => {}
        }
        out
    }
}

/// `Binary(a, b) → Binary(b, a)`: a second element in the class.
struct Commute;

impl Rule<Sites> for Commute {
    fn name(&self) -> &'static str {
        "commute"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::Multiset
    }

    fn apply(&self, memo: &Memo<Sites>, expr: ExprId) -> Vec<NewExpr<Op>> {
        let e = memo.expr(expr);
        match e.op {
            Op::Binary(_) => vec![NewExpr::Op(
                e.op,
                vec![NewExpr::Group(e.children[1]), NewExpr::Group(e.children[0])],
            )],
            _ => vec![],
        }
    }
}

/// `Unary(Binary(a, b)) → Binary(Unary(a), b)`: a pushdown that creates
/// new classes sharing `a` and `b` with the old ones.
struct PushDown;

impl Rule<Sites> for PushDown {
    fn name(&self) -> &'static str {
        "push-down"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::Multiset
    }

    fn apply(&self, memo: &Memo<Sites>, expr: ExprId) -> Vec<NewExpr<Op>> {
        let e = memo.expr(expr);
        let Op::Unary(_) = e.op else { return vec![] };
        memo.exprs_in(e.children[0])
            .iter()
            .map(|&c| memo.expr(c))
            .filter(|c| matches!(c.op, Op::Binary(_)))
            .map(|c| {
                NewExpr::Op(
                    c.op,
                    vec![
                        NewExpr::Op(e.op, vec![NewExpr::Group(c.children[0])]),
                        NewExpr::Group(c.children[1]),
                    ],
                )
            })
            .collect()
    }
}

/// Build an expression tree of depth ≤ 3 from a byte program; few
/// distinct leaves, so identical sub-trees share classes.
fn tree(program: &mut impl Iterator<Item = u8>, depth: usize) -> NewExpr<Op> {
    let b = program.next().unwrap_or(0);
    let sub = |program: &mut _| tree(program, depth + 1);
    match b {
        3..=5 if depth < 3 => NewExpr::Op(Op::Unary(b % 2), vec![sub(program)]),
        6..=9 if depth < 3 => NewExpr::Op(Op::Binary(b % 2), vec![sub(program), sub(program)]),
        _ => NewExpr::Op(Op::Leaf(b % 3), vec![]),
    }
}

/// The memo of a generated tree after both rules ran, and its root class.
fn explored(sem: Sites, program: Vec<u8>) -> (Memo<Sites>, GroupId) {
    let mut memo = Memo::new(sem);
    let root = memo.insert_root(tree(&mut program.into_iter(), 0));
    memo.explore(&[Box::new(Commute) as Box<dyn Rule<Sites>>, Box::new(PushDown)]);
    (memo, root)
}

fn op_costs() -> impl Strategy<Value = OpCosts> {
    (0.1f64..50.0, 0.1f64..50.0, 0u8..3, 0u8..3).prop_map(|(home, away, order, sites)| {
        let order = [Order::Ignores, Order::Preserves, Order::Sorted][order as usize];
        OpCosts { home: (sites != 1).then_some((home, order)), away: (sites != 2).then_some(away) }
    })
}

fn sites() -> impl Strategy<Value = Sites> {
    (
        proptest::collection::vec(op_costs(), 7..8),
        (0.1f64..20.0, 0.1f64..20.0, 0.1f64..20.0, 0.1f64..20.0),
        0u8..2,
    )
        .prop_map(|(ops, (ship_home, ship_away, sort_home, sort_away), keeps)| Sites {
            ops,
            ship_home,
            ship_away,
            sort: [sort_home, sort_away],
            ship_away_keeps_order: keeps == 1,
        })
}

fn render(p: &PhysPlan<Algo>) -> String {
    let kids: Vec<String> = p.children.iter().map(render).collect();
    format!("{}({})", p.algo.0, kids.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]
    /// For every class and every requirement: the memoized search finds
    /// what the table-free search finds — the same feasibility, the same
    /// cost to the bit and, unless the reference saw a tie, the same
    /// plan — and clones algorithms only to assemble that one plan.
    #[test]
    fn memoized_search_equals_exhaustive_search(
        sem in sites(),
        program in proptest::collection::vec(0u8..10, 4..12),
    ) {
        let (memo, _) = explored(sem, program);
        for g in (0..memo.group_count()).map(GroupId) {
            for required in REQS {
                let mut stats = SearchStats::default();
                let clones_before = ALGO_CLONES.with(|n| n.get());
                let found = optimize(&memo, g, required, &mut stats);
                let clones = ALGO_CLONES.with(|n| n.get()) - clones_before;
                let exact = reference::exhaustive(&memo, g, required);
                let at = format!("class {g:?} under {required:?}");
                match (found, exact) {
                    (None, None) => prop_assert_eq!(clones, 0, "{}", at),
                    (Some(found), Some(exact)) => {
                        prop_assert_eq!(clones, found.plan.node_count(), "{}", at);
                        if exact.tied {
                            let slack = 1e-9 * exact.cost;
                            prop_assert!((found.cost - exact.cost).abs() <= slack, "{}", at);
                        } else {
                            prop_assert_eq!(found.cost, exact.cost, "{}", at);
                            prop_assert_eq!(render(&found.plan), render(&exact.plan), "{}", at);
                        }
                    }
                    (found, exact) => prop_assert!(
                        false,
                        "{}: memoized found a plan: {}, exhaustive: {}",
                        at,
                        found.is_some(),
                        exact.is_some()
                    ),
                }
            }
        }
    }
}

/// The generator reaches what the property is about: enforcer cycles are
/// pruned, pairs are answered from the table, and classes are shared.
#[test]
fn generated_memos_exercise_cycles_hits_and_sharing() {
    let mut rng = proptest::test_runner::rng_for("generated_memos");
    let (mut pruned, mut hits, mut shared, mut multi) = (0, 0, 0, 0);
    for _ in 0..50 {
        let sem = sites().generate(&mut rng);
        let program = proptest::collection::vec(0u8..10, 4..12).generate(&mut rng);
        let (memo, root) = explored(sem, program);
        let mut parents = vec![0; memo.group_count()];
        for e in (0..memo.expr_count()).map(|i| memo.expr(ExprId(i))) {
            e.children.iter().for_each(|c| parents[c.0] += 1);
        }
        shared += parents.iter().filter(|&&n| n > 1).count();
        multi += (0..memo.group_count()).filter(|&g| memo.exprs_in(GroupId(g)).len() > 1).count();
        let mut stats = SearchStats::default();
        optimize(&memo, root, REQS[1], &mut stats);
        pruned += stats.cycles_pruned;
        hits += stats.cache_hits;
    }
    assert!(
        pruned > 100 && hits > 100 && shared > 20 && multi > 20,
        "{pruned} {hits} {shared} {multi}"
    );
}
