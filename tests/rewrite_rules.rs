//! The rewrite rules themselves: what they do to `tests/rewrite.rs`'
//! queries is pinned exactly, and what they do to any predicate is
//! sound under SQL's three-valued logic.
//!
//! `firing_record_is_pinned` fixes, for every target and figure query
//! under every pack set, the rules that fired (pack, rule, count), the
//! sweeps taken, whether the budget stopped them, and the rewritten
//! plan. A change to how rules are written, ordered or swept that moves
//! any of these fails here before it can move a benchmark counter.

mod support;

use proptest::prelude::*;
use support::{
    create_posinfo, pack_sets, position_db, ALL_PACKS, REWRITE_FIGURES, REWRITE_TARGETS,
};
use tango::algebra::{Attr, CmpOp, Expr, Logical, Schema, TOp, Tuple, Type, Value};
use tango::core::rewrite::Rewriter;
use tango::minidb::{Database, LinkProfile};
use tango::Tango;

/// The tables of `tests/rewrite.rs`, empty: parsing and rewriting read
/// only their schemas.
fn schemas() -> Database {
    let db = position_db(LinkProfile::instant(), &[]);
    create_posinfo(&db);
    db
}

/// The rewrite targets, then the figure queries.
fn queries() -> impl Iterator<Item = &'static str> {
    REWRITE_TARGETS.into_iter().chain(REWRITE_FIGURES)
}

/// One query's record: a header, then the rewritten plan.
fn record(db: &Database, packs: &[&str], q: usize, sql: &str) -> String {
    let mut tango = Tango::connect(db.clone());
    tango.options_mut().rewrite_packs = packs.iter().map(|p| p.to_string()).collect();
    let logical = tango.parse(sql).unwrap_or_else(|e| panic!("q{q}: {e}"));
    let (out, outcome) = tango.apply_rewrites(logical).unwrap();
    let fires: Vec<String> =
        outcome.fires.iter().map(|f| format!("{}/{}×{}", f.pack, f.rule, f.fires)).collect();
    format!(
        "{} q{q}: fires [{}] passes {} budget_hit {}\n{out}",
        packs.join(","),
        fires.join(" "),
        outcome.passes,
        outcome.budget_hit
    )
}

#[test]
fn firing_record_is_pinned() {
    let db = schemas();
    let mut expected = EXPECTED.split("\n\n");
    for packs in pack_sets() {
        for (q, sql) in queries().enumerate() {
            let got = record(&db, &packs, q, sql);
            let want = expected.next().unwrap_or("<missing>");
            assert_eq!(
                got.trim_end(),
                want.trim(),
                "\nrewrite record moved for {packs:?} on q{q}:\n--- got\n{got}--- want\n{want}"
            );
        }
    }
    assert_eq!(expected.next(), None, "more expected records than cases");
}

const EXPECTED: &str = r#"
temporal-normalize q0: fires [temporal-normalize/not-cmp×2] passes 2 budget_hit false
T^M
  SORT [PosID, T1, Info]
    PROJECT [PosID, T1, Info]
      JOIN [PosID=PosID]
        SELECT [((T1 <= 40) AND (T2 >= 10))]
          GET POSITION
        GET POSINFO

temporal-normalize q1: fires [temporal-normalize/not-cmp×1] passes 2 budget_hit false
T^M
  SORT [PosID, T1, Info]
    PROJECT [PosID_2 AS PosID, T1, Info]
      SELECT [(PosID = PosID_2)]
        PRODUCT
          GET POSINFO
          GET POSITION

temporal-normalize q2: fires [] passes 1 budget_hit false
T^M
  SORT [PosID, EmpID, EmpID2, S1, S2]
    PROJECT [PosID, EmpID, EmpID_2 AS EmpID2, GREATEST(T1, T1_2) AS S1, LEAST(T2, T2_2) AS S2]
      SELECT [((T1 < T2_2) AND (T1_2 < T2))]
        JOIN [PosID=PosID]
          GET POSITION
          GET POSITION

temporal-normalize q3: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, C, T1, T2]
      TAGGR [group by PosID; COUNT(PosID) AS C]
        GET POSITION

temporal-normalize q4: fires [] passes 1 budget_hit false
T^M
  PROJECT [C, MN, MX, T1, T2]
    TAGGR [group by PosID; COUNT(EmpID) AS C, MIN(PayRate) AS MN, MAX(PayRate) AS MX]
      SELECT [(PosID < 3)]
        GET POSITION

temporal-normalize q5: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, EmpID, EmpID_2, T1, T2]
      TJOIN [PosID=PosID]
        SELECT [(T1 < 40)]
          GET POSITION
        SELECT [(T1 < 40)]
          GET POSITION

temporal-normalize q6: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, C, EmpID, T1, T2]
      TJOIN [PosID=PosID]
        PROJECT [PosID, C, T1, T2]
          TAGGR [group by PosID; COUNT(PosID) AS C]
            GET POSITION
        SELECT [(PayRate > 5)]
          GET POSITION

temporal-normalize q7: fires [] passes 1 budget_hit false
T^M
  SORT [EmpID, PosID]
    PROJECT [EmpID, PosID]
      SELECT [((PayRate > 5) AND (PosID < 4))]
        GET POSITION

subquery-to-join q0: fires [subquery-to-join/not-cmp×2] passes 2 budget_hit false
T^M
  SORT [PosID, T1, Info]
    PROJECT [PosID, T1, Info]
      JOIN [PosID=PosID]
        SELECT [((T1 <= 40) AND (T2 >= 10))]
          GET POSITION
        GET POSINFO

subquery-to-join q1: fires [subquery-to-join/not-cmp×1 subquery-to-join/product-to-join×1] passes 2 budget_hit false
T^M
  SORT [PosID, T1, Info]
    PROJECT [PosID_2 AS PosID, T1, Info]
      JOIN [PosID=PosID]
        GET POSINFO
        GET POSITION

subquery-to-join q2: fires [] passes 1 budget_hit false
T^M
  SORT [PosID, EmpID, EmpID2, S1, S2]
    PROJECT [PosID, EmpID, EmpID_2 AS EmpID2, GREATEST(T1, T1_2) AS S1, LEAST(T2, T2_2) AS S2]
      SELECT [((T1 < T2_2) AND (T1_2 < T2))]
        JOIN [PosID=PosID]
          GET POSITION
          GET POSITION

subquery-to-join q3: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, C, T1, T2]
      TAGGR [group by PosID; COUNT(PosID) AS C]
        GET POSITION

subquery-to-join q4: fires [] passes 1 budget_hit false
T^M
  PROJECT [C, MN, MX, T1, T2]
    TAGGR [group by PosID; COUNT(EmpID) AS C, MIN(PayRate) AS MN, MAX(PayRate) AS MX]
      SELECT [(PosID < 3)]
        GET POSITION

subquery-to-join q5: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, EmpID, EmpID_2, T1, T2]
      TJOIN [PosID=PosID]
        SELECT [(T1 < 40)]
          GET POSITION
        SELECT [(T1 < 40)]
          GET POSITION

subquery-to-join q6: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, C, EmpID, T1, T2]
      TJOIN [PosID=PosID]
        PROJECT [PosID, C, T1, T2]
          TAGGR [group by PosID; COUNT(PosID) AS C]
            GET POSITION
        SELECT [(PayRate > 5)]
          GET POSITION

subquery-to-join q7: fires [] passes 1 budget_hit false
T^M
  SORT [EmpID, PosID]
    PROJECT [EmpID, PosID]
      SELECT [((PayRate > 5) AND (PosID < 4))]
        GET POSITION

compat q0: fires [] passes 1 budget_hit false
T^M
  SORT [PosID, T1, Info]
    PROJECT [PosID, T1, Info]
      JOIN [PosID=PosID]
        SELECT [((NOT (T1 > 40)) AND (NOT (T2 < 10)))]
          GET POSITION
        GET POSINFO

compat q1: fires [] passes 1 budget_hit false
T^M
  SORT [PosID, T1, Info]
    PROJECT [PosID_2 AS PosID, T1, Info]
      SELECT [(NOT (PosID <> PosID_2))]
        PRODUCT
          GET POSINFO
          GET POSITION

compat q2: fires [compat/sql-overlap-to-tjoin×1] passes 2 budget_hit false
T^M
  SORT [PosID, EmpID, EmpID2, S1, S2]
    PROJECT [PosID, EmpID, EmpID_2 AS EmpID2, T1 AS S1, T2 AS S2]
      TJOIN [PosID=PosID]
        GET POSITION
        GET POSITION

compat q3: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, C, T1, T2]
      TAGGR [group by PosID; COUNT(PosID) AS C]
        GET POSITION

compat q4: fires [] passes 1 budget_hit false
T^M
  PROJECT [C, MN, MX, T1, T2]
    TAGGR [group by PosID; COUNT(EmpID) AS C, MIN(PayRate) AS MN, MAX(PayRate) AS MX]
      SELECT [(PosID < 3)]
        GET POSITION

compat q5: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, EmpID, EmpID_2, T1, T2]
      TJOIN [PosID=PosID]
        SELECT [(T1 < 40)]
          GET POSITION
        SELECT [(T1 < 40)]
          GET POSITION

compat q6: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, C, EmpID, T1, T2]
      TJOIN [PosID=PosID]
        PROJECT [PosID, C, T1, T2]
          TAGGR [group by PosID; COUNT(PosID) AS C]
            GET POSITION
        SELECT [(PayRate > 5)]
          GET POSITION

compat q7: fires [] passes 1 budget_hit false
T^M
  SORT [EmpID, PosID]
    PROJECT [EmpID, PosID]
      SELECT [((PayRate > 5) AND (PosID < 4))]
        GET POSITION

temporal-normalize,subquery-to-join,compat q0: fires [temporal-normalize/not-cmp×2] passes 2 budget_hit false
T^M
  SORT [PosID, T1, Info]
    PROJECT [PosID, T1, Info]
      JOIN [PosID=PosID]
        SELECT [((T1 <= 40) AND (T2 >= 10))]
          GET POSITION
        GET POSINFO

temporal-normalize,subquery-to-join,compat q1: fires [temporal-normalize/not-cmp×1 subquery-to-join/product-to-join×1] passes 2 budget_hit false
T^M
  SORT [PosID, T1, Info]
    PROJECT [PosID_2 AS PosID, T1, Info]
      JOIN [PosID=PosID]
        GET POSINFO
        GET POSITION

temporal-normalize,subquery-to-join,compat q2: fires [compat/sql-overlap-to-tjoin×1] passes 2 budget_hit false
T^M
  SORT [PosID, EmpID, EmpID2, S1, S2]
    PROJECT [PosID, EmpID, EmpID_2 AS EmpID2, T1 AS S1, T2 AS S2]
      TJOIN [PosID=PosID]
        GET POSITION
        GET POSITION

temporal-normalize,subquery-to-join,compat q3: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, C, T1, T2]
      TAGGR [group by PosID; COUNT(PosID) AS C]
        GET POSITION

temporal-normalize,subquery-to-join,compat q4: fires [] passes 1 budget_hit false
T^M
  PROJECT [C, MN, MX, T1, T2]
    TAGGR [group by PosID; COUNT(EmpID) AS C, MIN(PayRate) AS MN, MAX(PayRate) AS MX]
      SELECT [(PosID < 3)]
        GET POSITION

temporal-normalize,subquery-to-join,compat q5: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, EmpID, EmpID_2, T1, T2]
      TJOIN [PosID=PosID]
        SELECT [(T1 < 40)]
          GET POSITION
        SELECT [(T1 < 40)]
          GET POSITION

temporal-normalize,subquery-to-join,compat q6: fires [] passes 1 budget_hit false
T^M
  SORT [PosID]
    PROJECT [PosID, C, EmpID, T1, T2]
      TJOIN [PosID=PosID]
        PROJECT [PosID, C, T1, T2]
          TAGGR [group by PosID; COUNT(PosID) AS C]
            GET POSITION
        SELECT [(PayRate > 5)]
          GET POSITION

temporal-normalize,subquery-to-join,compat q7: fires [] passes 1 budget_hit false
T^M
  SORT [EmpID, PosID]
    PROJECT [EmpID, PosID]
      SELECT [((PayRate > 5) AND (PosID < 4))]
        GET POSITION
"#;

// ---------------------------------------------------------------------
// 3VL soundness of the expression rules
// ---------------------------------------------------------------------

/// Columns `A`, `B`, `C`; rows carry NULLs, Ints and Doubles in any of
/// them.
fn schema() -> Schema {
    Schema::new(vec![
        Attr::new("A", Type::Double),
        Attr::new("B", Type::Double),
        Attr::new("C", Type::Double),
    ])
}

fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        (-6i64..7).prop_map(|x| Value::Double(x as f64 / 2.0)),
    ]
    .boxed()
}

fn arb_operand() -> BoxedStrategy<Expr> {
    prop_oneof![
        prop::sample::select(vec!["A", "B", "C"]).prop_map(Expr::col),
        arb_value().prop_map(Expr::Lit),
    ]
    .boxed()
}

fn arb_op() -> BoxedStrategy<CmpOp> {
    prop::sample::select(vec![CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge])
        .boxed()
}

/// NOT / AND / OR over comparisons of columns and literals (NULL ones
/// included), `depth` levels deep.
fn arb_pred(depth: u32) -> BoxedStrategy<Expr> {
    let leaf =
        (arb_op(), arb_operand(), arb_operand()).prop_map(|(op, l, r)| Expr::cmp(op, l, r)).boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = arb_pred(depth - 1);
    prop_oneof![
        leaf,
        inner.clone().prop_map(Expr::not),
        inner.clone().prop_map(Expr::not),
        (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
        (inner.clone(), inner).prop_map(|(l, r)| Expr::or(l, r)),
    ]
    .boxed()
}

/// Whether `e` still holds a spelling an expression rule rewrites: a
/// NOT over a comparison, NOT, AND or OR, or a literal compared with a
/// column.
fn rewritable(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |n| {
        found |= match n {
            Expr::Not(i) => {
                matches!(**i, Expr::Cmp(..) | Expr::Not(_) | Expr::And(..) | Expr::Or(..))
            }
            Expr::Cmp(_, l, r) => matches!((&**l, &**r), (Expr::Lit(_), Expr::Col { .. })),
            _ => false,
        }
    });
    found
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
    /// Every rewrite the three packs make to a predicate keeps its
    /// three-valued result — TRUE, FALSE or UNKNOWN — on every row, and
    /// the rewrite runs to its normal form within the sweep budget.
    #[test]
    fn expression_rules_are_3vl_sound(
        pred in arb_pred(4),
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 3..4), 1..8),
    ) {
        let schema = schema();
        let src = |t: &str| t.eq_ignore_ascii_case("T").then(|| schema.clone());
        let names: Vec<String> = ALL_PACKS.iter().map(|p| p.to_string()).collect();
        let rw = Rewriter::load(&names).unwrap();
        let (out, outcome) = rw.apply(Logical::get("T").select(pred.clone()), &src);
        let Logical::Apply { op: TOp::Select { pred: rewritten }, .. } = &out else {
            panic!("the select over T was rewritten to\n{out}")
        };
        let seed = std::env::var("TANGO_PROPTEST_SEED").unwrap_or_else(|_| "unset".into());
        prop_assert!(
            !outcome.budget_hit && !rewritable(rewritten),
            "{pred} stopped at {rewritten} (TANGO_PROPTEST_SEED {seed})"
        );
        let before = pred.bound(&schema).unwrap();
        let after = rewritten.bound(&schema).unwrap();
        for row in rows {
            let t = Tuple::new(row);
            prop_assert_eq!(
                before.eval_bool(&t).unwrap(),
                after.eval_bool(&t).unwrap(),
                "{} rewrote to {} and disagrees on {:?} (TANGO_PROPTEST_SEED {})",
                pred, rewritten, t, seed
            );
        }
    }
}
