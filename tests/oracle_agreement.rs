//! Property-based tests of the paper's central soundness invariants:
//!
//! * every CEGAR-accepted model re-validates under the concrete matcher
//!   with identical capture assignments (Algorithm 1 termination
//!   property, §5.4);
//! * the concrete matcher agrees with a classical DFA on regular
//!   patterns.

use expose::core::{api::build_match_model, cegar::CegarSolver, model::BuildConfig};
use expose::matcher::RegExp;
use expose::strsolve::{Formula, Outcome, VarPool};
use expose::syntax::Regex;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// A small pool of regexes covering the feature matrix.
fn regex_pool() -> Vec<&'static str> {
    vec![
        "/^a*(a)?$/",
        "/^(a*)(a*)$/",
        "/^(a|ab)(c|bc)$/",
        r"/^(\w+)=(\w*)$/",
        "/(x+)(x*)y/",
        r"/^(ab|c)\1$/",
        "/^-?([0-9]+)(\\.([0-9]+))?$/",
        "/(?:(a)|(b))+/",
    ]
}

/// Seeded cases per property.
const CASES: u64 = 12;

/// The generator of one case.
fn case_rng(case: u64) -> StdRng {
    StdRng::seed_from_u64(0x0ac1_e000 ^ case)
}

/// A word of 0 to `max` characters over `alphabet`: the strings of the
/// pattern `[alphabet]{0,max}`.
fn word(rng: &mut StdRng, alphabet: &[char], max: usize) -> String {
    let len = rng.random_range(0..=max);
    (0..len)
        .map(|_| *alphabet.choose(rng).expect("non-empty alphabet"))
        .collect()
}

/// CEGAR-accepted capture assignments equal the engine's.
#[test]
fn cegar_models_agree_with_oracle() {
    let pin_chars: Vec<char> = "ab=x0123456789".chars().collect();
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let literal = regex_pool()[rng.random_range(0..8usize)];
        let pin = word(&mut rng, &pin_chars, 4);
        let regex = Regex::parse_literal(literal).expect("literal");
        let mut pool = VarPool::new();
        let c = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
        // Runs with a non-empty pin fix the input to a random short
        // string, which stresses the refinement loop on ambiguous
        // splits.
        let problem = if pin.is_empty() {
            Formula::top()
        } else {
            Formula::eq_lit(c.input, pin.clone())
        };
        let result = CegarSolver::default().solve(&problem, std::slice::from_ref(&c));
        if let Outcome::Sat(model) = result.outcome {
            let input = model.get_str(c.input).expect("assigned");
            let mut oracle = RegExp::from_regex(regex);
            let concrete = oracle.exec(input).expect("must match concretely");
            for (i, cap) in c.captures.iter().enumerate() {
                let oracle_value = concrete.captures.get(i).cloned().flatten();
                let model_value = if model.get_bool(cap.defined) {
                    Some(model.get_str(cap.value).unwrap_or("").to_string())
                } else {
                    None
                };
                assert_eq!(
                    oracle_value, model_value,
                    "capture {i} of {literal} on {input:?}"
                );
            }
        }
    }
}

/// The backtracking matcher decides classical membership exactly as
/// the DFA does.
#[test]
fn matcher_agrees_with_dfa() {
    use expose::automata::{compile_classical, Alphabet, CompileOptions, Dfa};
    use std::sync::Arc;

    for case in 0..CASES {
        let input = word(&mut case_rng(case), &['a', 'b', 'c'], 8);
        for pattern in ["a(b|c)*", "(ab)+c?", "a{2,3}b", "(a|b)c"] {
            let ast = expose::syntax::parse(pattern).expect("parse");
            let re = compile_classical(&ast, &CompileOptions::default()).expect("classical");
            let mut sets = Vec::new();
            re.collect_sets(&mut sets);
            let alphabet = Arc::new(Alphabet::from_sets(&sets));
            let dfa = Dfa::from_cregex(&re, &alphabet);

            // Anchor the pattern for whole-word comparison.
            let mut anchored = RegExp::new(&format!("^(?:{pattern})$"), "").expect("regex");
            assert_eq!(
                anchored.test(&input),
                dfa.contains(&input),
                "pattern {pattern} on {input:?}"
            );
        }
    }
}

/// Negative models never produce matching witnesses.
#[test]
fn negative_witnesses_never_match() {
    for case in 0..CASES {
        let literal = regex_pool()[case_rng(case).random_range(0..8usize)];
        let regex = Regex::parse_literal(literal).expect("literal");
        let mut pool = VarPool::new();
        let c = build_match_model(&regex, false, &mut pool, &BuildConfig::default());
        let result = CegarSolver::default().solve(&Formula::top(), std::slice::from_ref(&c));
        if let Outcome::Sat(model) = result.outcome {
            let input = model.get_str(c.input).expect("assigned");
            let mut oracle = RegExp::from_regex(regex);
            assert!(!oracle.test(input), "{literal} matched {input:?}");
        }
    }
}
