//! Parser robustness: no input may panic the SQL or temporal-SQL
//! parsers or the wire-codec decoder, and expression rendering
//! round-trips through the parser.

use proptest::prelude::*;
use tango::algebra::codec::{encode_tuple, Decoder};
use tango::algebra::{Attr, CmpOp, Expr, Schema, Tuple, Type, Value};

/// One value of each wire type.
fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-1000i64..1000).prop_map(Value::Int),
        (-5.0f64..5.0).prop_map(Value::Double),
        "[ -~]{0,12}".prop_map(Value::Str),
        (0i32..20_000).prop_map(Value::Date),
    ]
    .boxed()
}

proptest! {
    /// Arbitrary garbage must produce `Err`, never a panic.
    #[test]
    fn sql_parser_never_panics(input in "[ -~]{0,120}") {
        let _ = tango::minidb::parser::parse(&input);
    }

    /// Garbage prefixed with plausible SQL heads, to get deeper into the
    /// grammar before the noise starts.
    #[test]
    fn sql_parser_never_panics_with_head(
        head in prop::sample::select(vec![
            "SELECT ", "VALIDTIME SELECT ", "SELECT * FROM t WHERE ",
            "INSERT INTO t VALUES ", "CREATE TABLE t (", "EXPLAIN SELECT ",
            "UPDATE t SET ", "DELETE FROM ",
        ]),
        tail in "[ -~]{0,80}",
    ) {
        let _ = tango::minidb::parser::parse(&format!("{head}{tail}"));
    }

    /// tsql conversion must not panic either (schema resolution included).
    #[test]
    fn tsql_parser_never_panics(input in "[ -~]{0,120}") {
        let schema = |name: &str| {
            name.eq_ignore_ascii_case("T").then(|| {
                Schema::with_inferred_period(vec![
                    Attr::new("K", Type::Int),
                    Attr::new("T1", Type::Int),
                    Attr::new("T2", Type::Int),
                ])
            })
        };
        let _ = tango::core::tsql::parse_tsql(&input, &schema);
    }

    /// A damaged encoding — cut short, then bits flipped — decodes to
    /// `Ok` or `Err`, never a panic, and no corrupt length outruns the
    /// input: every decoded value took at least a byte of it.
    #[test]
    fn codec_decoder_never_panics(
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 0..6), 1..4),
        keep_percent in 0usize..=100,
        flips in prop::collection::vec((0usize..10_000, 0u32..8), 0..4),
    ) {
        let mut buf = Vec::new();
        for r in &rows {
            encode_tuple(&Tuple::new(r.clone()), &mut buf);
        }
        buf.truncate(buf.len() * keep_percent / 100);
        for (at, bit) in flips {
            if let Some(n) = std::num::NonZeroUsize::new(buf.len()) {
                buf[at % n] ^= 1 << bit;
            }
        }
        let mut d = Decoder::new(&buf);
        while !d.is_done() {
            let before = d.position();
            match d.decode_tuple() {
                Ok(t) => prop_assert!(t.len() < d.position() - before),
                Err(_) => break,
            }
        }
    }

}

/// Expression SQL rendering is re-parseable and evaluates identically —
/// the property the Translator-To-SQL depends on.
fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(Expr::lit),
        prop::sample::select(vec!["A", "B"]).prop_map(Expr::col),
        Just(Expr::Lit(Value::Double(2.5))),
        Just(Expr::Lit(Value::Str("x'y".into()))),
        Just(Expr::Lit(Value::Null)),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = arb_expr(depth - 1);
    prop_oneof![
        leaf,
        (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::cmp(CmpOp::Lt, l, r)),
        (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::eq(l, r)),
        (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
        (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::or(l, r)),
        (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Arith(
            tango::algebra::ArithOp::Add,
            Box::new(l),
            Box::new(r)
        )),
        (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Greatest(vec![l, r])),
        inner.clone().prop_map(|e| Expr::IsNull(Box::new(e), false)),
        inner.prop_map(Expr::not),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn expression_rendering_round_trips(e in arb_expr(3), a in -5i64..5, b in -5i64..5) {
        use tango::minidb::ast::{SelectItem, Stmt};
        let sql = format!("SELECT {e} AS X FROM T");
        let parsed = tango::minidb::parser::parse(&sql)
            .unwrap_or_else(|err| panic!("rendered SQL failed to parse: {err}\n{sql}"));
        let Stmt::Select(sel) = parsed else { panic!() };
        let SelectItem::Expr { expr: reparsed, .. } = &sel.items[0] else {
            panic!("expected expression item")
        };
        // evaluate both against a sample row; ill-typed expressions must
        // fail identically on both sides
        let schema = Schema::new(vec![Attr::new("A", Type::Int), Attr::new("B", Type::Int)]);
        let t = tango::algebra::tup![a, b];
        let v1 = e.bound(&schema).unwrap().eval(&t);
        let v2 = reparsed.bound(&schema).unwrap().eval(&t);
        match (v1, v2) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "expr {} reparsed as {}", e, reparsed),
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "divergent outcomes {x:?} vs {y:?} for {e}"),
        }
    }
}
