//! Property tests: printing a parsed AST re-parses to an equal AST, and
//! structural analyses are stable under the round trip.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use regex_syntax_es6::ast::Ast;
use regex_syntax_es6::parse;
use regex_syntax_es6::rewrite::{desugar, normalize_lazy, strip_captures};

/// Seeded cases per property.
const CASES: u64 = 64;

/// A syntactically valid ES6 pattern assembled from safe fragments:
/// one level of grouping and alternation over sequences of one to
/// three quantified atoms.
fn arb_pattern(rng: &mut StdRng) -> String {
    const ATOMS: [&str; 9] = ["a", "b", "[a-z]", "[^0-9]", r"\d", r"\w", ".", r"\.", r"\n"];
    const QUANTIFIERS: [&str; 6] = ["", "*", "+", "?", "*?", "{2,3}"];
    let mut seq = || -> String {
        (0..rng.random_range(1..4usize))
            .map(|_| {
                let atom = ATOMS.choose(rng).expect("atoms");
                let quantifier = QUANTIFIERS.choose(rng).expect("quantifiers");
                format!("{atom}{quantifier}")
            })
            .collect()
    };
    let (a, b, c) = (seq(), seq(), seq());
    format!("(?:{a}|{b})({c})")
}

/// The generated patterns, one per case.
fn patterns() -> impl Iterator<Item = String> {
    (0..CASES).map(|case| arb_pattern(&mut StdRng::seed_from_u64(0x0c7a_5e00 ^ case)))
}

#[test]
fn to_source_round_trips() {
    for pattern in patterns() {
        let ast = parse(&pattern).expect("generated pattern parses");
        let printed = ast.to_source();
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("printed {printed:?} must parse: {e}"));
        assert_eq!(ast, reparsed, "{pattern}");
    }
}

#[test]
fn rewrites_preserve_capture_free_invariants() {
    for pattern in patterns() {
        let ast = parse(&pattern).expect("parses");
        let stripped = strip_captures(&ast);
        assert_eq!(stripped.capture_count(), 0, "{pattern}");
        // normalize_lazy never changes capture structure.
        let normalized = normalize_lazy(&ast);
        assert_eq!(normalized.capture_count(), ast.capture_count(), "{pattern}");
        // desugar keeps nullability.
        let desugared = desugar(&ast);
        assert_eq!(desugared.is_nullable(), ast.is_nullable(), "{pattern}");
    }
}

#[test]
fn round_trip_is_idempotent() {
    for pattern in patterns() {
        let ast = parse(&pattern).expect("parses");
        let once = ast.to_source();
        let twice = parse(&once).expect("parses").to_source();
        assert_eq!(once, twice, "{pattern}");
    }
}

#[test]
fn round_trip_fixed_corpus() {
    // Hand-picked regressions and paper expressions.
    for pattern in [
        r"<(\w+)>([0-9]*)<\/\1>",
        "a|((b)*c)*d",
        r"((a|b)\2)+\1\2",
        "^a*(a)?$",
        r"(?=ok)ok[a-z]*",
        r"(?!no)[a-z]+",
        r"\bword\b",
        "x{2,}y{3}z{1,4}",
        "a+?b*?c??",
        "[-a-z]",
        r"[\]\\]",
        "(?:(a)|(b))+",
    ] {
        let ast = parse(pattern).expect("parses");
        let printed = ast.to_source();
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{printed:?} must reparse: {e}"));
        assert_eq!(ast, reparsed, "round trip of {pattern}");
    }
}

fn assert_is_empty_like(ast: &Ast) {
    // Smoke helper used to keep the Ast import exercised.
    let _ = ast.capture_count();
}

#[test]
fn helper_compiles() {
    assert_is_empty_like(&parse("a").expect("parses"));
}
