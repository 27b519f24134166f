//! Property tests for the constant-expression evaluator: generated
//! expression trees must evaluate exactly as the equivalent Rust
//! computation, wrapping at 64 bits, and rendering must round-trip through
//! the parser.

use lis_asm::{eval, SymTab};
use proptest::prelude::*;

/// An expression tree paired with its expected value.
#[derive(Debug, Clone)]
enum Node {
    Num(u32),
    /// `0x8000000000000000`: the one dividend whose quotient by -1 overflows.
    Min,
    Sym(&'static str),
    Neg(Box<Node>),
    Not(Box<Node>),
    Bin(char, Box<Node>, Box<Node>),
    Shl(Box<Node>, u8),
    Shr(Box<Node>, u8),
    /// `/` or `%` by a nonzero constant.
    Div(char, Box<Node>, i64),
}

const SYMS: [(&str, u64); 3] = [("alpha", 0x1000), ("beta_2", 7), ("x.y", 0xffff_0001)];

const DIVISORS: [i64; 8] = [-1, 1, 2, 3, -5, 7, 1000, 0x1_0000];

fn node() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        (0u32..1_000_000).prop_map(Node::Num),
        Just(Node::Min),
        (0usize..3).prop_map(|i| Node::Sym(SYMS[i].0)),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|n| Node::Neg(Box::new(n))),
            inner.clone().prop_map(|n| Node::Not(Box::new(n))),
            (
                proptest::sample::select(vec!['+', '-', '*', '&', '|', '^']),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Node::Bin(op, Box::new(a), Box::new(b))),
            (inner.clone(), 0u8..16).prop_map(|(n, s)| Node::Shl(Box::new(n), s)),
            (inner.clone(), 0u8..16).prop_map(|(n, s)| Node::Shr(Box::new(n), s)),
            (
                proptest::sample::select(vec!['/', '%']),
                inner,
                proptest::sample::select(DIVISORS.to_vec())
            )
                .prop_map(|(op, n, d)| Node::Div(op, Box::new(n), d)),
        ]
    })
}

fn render(n: &Node) -> String {
    match n {
        Node::Num(v) => format!("{v}"),
        Node::Min => "0x8000000000000000".to_string(),
        Node::Sym(s) => (*s).to_string(),
        Node::Neg(a) => format!("(-{})", render(a)),
        Node::Not(a) => format!("(~{})", render(a)),
        Node::Bin(op, a, b) => format!("({} {op} {})", render(a), render(b)),
        Node::Shl(a, s) => format!("({} << {s})", render(a)),
        Node::Shr(a, s) => format!("({} >> {s})", render(a)),
        Node::Div(op, a, d) => format!("({} {op} {d})", render(a)),
    }
}

fn model(n: &Node) -> i64 {
    match n {
        Node::Num(v) => *v as i64,
        Node::Min => i64::MIN,
        Node::Sym(s) => SYMS.iter().find(|(name, _)| name == s).unwrap().1 as i64,
        Node::Neg(a) => model(a).wrapping_neg(),
        Node::Not(a) => !model(a),
        Node::Bin('+', a, b) => model(a).wrapping_add(model(b)),
        Node::Bin('-', a, b) => model(a).wrapping_sub(model(b)),
        Node::Bin('*', a, b) => model(a).wrapping_mul(model(b)),
        Node::Bin('&', a, b) => model(a) & model(b),
        Node::Bin('|', a, b) => model(a) | model(b),
        Node::Bin('^', a, b) => model(a) ^ model(b),
        Node::Bin(op, ..) => unreachable!("operator {op}"),
        Node::Shl(a, s) => model(a).wrapping_shl(*s as u32),
        Node::Shr(a, s) => ((model(a) as u64) >> s) as i64,
        Node::Div('/', a, d) => model(a).wrapping_div(*d),
        Node::Div(_, a, d) => model(a).wrapping_rem(*d),
    }
}

fn symtab() -> SymTab<'static> {
    SYMS.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn evaluator_matches_model(n in node()) {
        let text = render(&n);
        let got = eval(&text, &symtab(), true)
            .unwrap_or_else(|e| panic!("`{text}`: {e}"));
        prop_assert_eq!(got, model(&n), "`{}`", text);
    }

    /// Removing whitespace never changes meaning (tokens are
    /// self-delimiting in the rendered form).
    #[test]
    fn whitespace_insensitive(n in node()) {
        let text = render(&n);
        let squeezed: String = text.chars().filter(|c| *c != ' ').collect();
        let syms = symtab();
        prop_assert_eq!(eval(&text, &syms, true).unwrap(), eval(&squeezed, &syms, true).unwrap());
    }
}
