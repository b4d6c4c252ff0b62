//! Differential soundness tests for the CEGAR loop (Algorithm 1)
//! against the concrete ES6 matcher:
//!
//! * every `Sat` witness of a positive membership model must be
//!   accepted by the concrete `RegExp` oracle (model soundness);
//! * every `Unsat` on a literal-equality query (`input = s`) must be
//!   confirmed unmatched by the oracle on `s` (refutation soundness) —
//!   and symmetrically, a `Sat` answer must pin the input to a string
//!   the oracle accepts.

use expose::core::{api::build_match_model, cegar::CegarSolver, model::BuildConfig};
use expose::matcher::RegExp;
use expose::strsolve::{Formula, Outcome, VarPool};
use expose::syntax::Regex;

/// Regex corpus spanning the feature classes the CEGAR loop must get
/// right: captures, anchors, lazy quantifiers, and lookaheads.
fn corpus() -> Vec<&'static str> {
    vec![
        // Captures and alternation.
        "/^(a+)(b+)$/",
        "/^(a|ab)(c|bc)$/",
        "/(x+)(x*)y/",
        "/^(?:(a)|(b))+$/",
        // Anchors.
        "/^ab$/",
        "/^a*(a)?$/",
        "/end$/",
        "/^start/",
        // Lazy quantifiers.
        "/^(a+?)(a+)$/",
        "/^(.*?)=(.*)$/",
        "/<(.+?)>/",
        // Lookaheads.
        "/(?=ab)a(b)/",
        "/(?!aa)a(b|c)/",
        r"/^(?=[a-z]+$)(\w+)x$/",
        // Backreferences.
        r"/^(ab|c)\1$/",
    ]
}

/// Literal candidate inputs exercised against every corpus regex.
fn candidates() -> Vec<&'static str> {
    vec![
        "", "a", "b", "ab", "ba", "aa", "abc", "aab", "abab", "cc", "xy", "xxy", "a=b", "=", "<t>",
        "start", "end", "zx", "ax",
    ]
}

#[test]
fn sat_witnesses_accepted_by_oracle() {
    for literal in corpus() {
        let regex = Regex::parse_literal(literal).expect("corpus literal parses");
        let mut pool = VarPool::new();
        let constraint = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
        let result =
            CegarSolver::default().solve(&Formula::top(), std::slice::from_ref(&constraint));
        match result.outcome {
            Outcome::Sat(model) => {
                let input = model.get_str(constraint.input).expect("input assigned");
                let mut oracle = RegExp::from_regex(regex);
                assert!(
                    oracle.test(input),
                    "CEGAR witness {input:?} for {literal} rejected by the concrete matcher"
                );
            }
            Outcome::Unknown if !constraint.exact => {}
            other => panic!("{literal} should be satisfiable, got {other:?}"),
        }
    }
}

#[test]
fn literal_equality_queries_agree_with_oracle() {
    for literal in corpus() {
        let regex = Regex::parse_literal(literal).expect("corpus literal parses");
        for candidate in candidates() {
            let mut pool = VarPool::new();
            let constraint = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
            let problem = Formula::eq_lit(constraint.input, candidate);
            let result = CegarSolver::default().solve(&problem, std::slice::from_ref(&constraint));
            let mut oracle = RegExp::from_regex(regex.clone());
            let concrete = oracle.test(candidate);
            match result.outcome {
                Outcome::Sat(model) => {
                    assert_eq!(
                        model.get_str(constraint.input),
                        Some(candidate),
                        "Sat model must pin input to the literal for {literal}"
                    );
                    assert!(
                        concrete,
                        "CEGAR Sat on {literal} = {candidate:?} but the oracle rejects it"
                    );
                }
                Outcome::Unsat => {
                    assert!(
                        !concrete,
                        "CEGAR Unsat on {literal} = {candidate:?} but the oracle accepts it"
                    );
                }
                Outcome::Unknown => {
                    // Allowed only for inexact models (budget/approx);
                    // exact models must decide this small corpus.
                    assert!(
                        !constraint.exact,
                        "unexpected Unknown for exact model {literal} = {candidate:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn negative_literal_queries_agree_with_oracle() {
    // The §4.4 non-membership models, differentially on pinned inputs.
    for literal in corpus() {
        let regex = Regex::parse_literal(literal).expect("corpus literal parses");
        for candidate in candidates() {
            let mut pool = VarPool::new();
            let constraint = build_match_model(&regex, false, &mut pool, &BuildConfig::default());
            let problem = Formula::eq_lit(constraint.input, candidate);
            let result = CegarSolver::default().solve(&problem, std::slice::from_ref(&constraint));
            let mut oracle = RegExp::from_regex(regex.clone());
            let concrete = oracle.test(candidate);
            match result.outcome {
                Outcome::Sat(_) => assert!(
                    !concrete,
                    "non-membership Sat on {literal} ≠ {candidate:?} but the oracle matches"
                ),
                Outcome::Unsat => assert!(
                    concrete,
                    "non-membership Unsat on {literal} ≠ {candidate:?} but the oracle rejects"
                ),
                Outcome::Unknown => {
                    assert!(
                        !constraint.exact,
                        "unexpected Unknown for exact model {literal} nonmatch {candidate:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn multiline_anchored_negation_is_exact() {
    // Under `m`, `^` and `$` test one character of context, so the
    // negation keeps a classical word language: CEGAR decides it in one
    // solve instead of banning one word per round, and Unsat is a proof.
    let literal = "/^[éé][0-_]$/m";
    let regex = Regex::parse_literal(literal).expect("literal parses");
    let mut pool = VarPool::new();
    let constraint = build_match_model(&regex, false, &mut pool, &BuildConfig::default());
    assert!(constraint.exact, "{literal} negation must be exact");
    let mut oracle = RegExp::from_regex(regex);

    let result = CegarSolver::default().solve(&Formula::top(), std::slice::from_ref(&constraint));
    assert_eq!(result.stats.refinements, 0);
    assert!(!result.stats.limit_hit);
    match result.outcome {
        Outcome::Sat(model) => {
            let input = model.get_str(constraint.input).expect("input assigned");
            assert!(!oracle.test(input), "witness {input:?} matches {literal}");
        }
        other => panic!("{literal} negation should be satisfiable, got {other:?}"),
    }

    let matching = "x\né0";
    assert!(oracle.test(matching));
    let problem = Formula::eq_lit(constraint.input, matching);
    let result = CegarSolver::default().solve(&problem, std::slice::from_ref(&constraint));
    assert!(
        matches!(result.outcome, Outcome::Unsat),
        "{literal} ∌ {matching:?} must be refuted, got {:?}",
        result.outcome
    );
}
