//! Property tests for the string solver: model soundness (every SAT
//! model satisfies the formula under direct evaluation) and agreement
//! with brute-force enumeration on small finite instances.

use automata::{CRegex, CharSet};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use strsolve::{Formula, Outcome, Solver, Term, VarPool};

/// Evaluates a membership constraint directly via the DFA layer.
fn re_contains(re: &CRegex, word: &str) -> bool {
    use automata::{Alphabet, Dfa};
    use std::sync::Arc;
    let mut sets = Vec::new();
    re.collect_sets(&mut sets);
    for c in word.chars() {
        sets.push(CharSet::single(c));
    }
    let alphabet = Arc::new(Alphabet::from_sets(&sets));
    Dfa::from_cregex(re, &alphabet).contains(word)
}

fn small_re(i: usize) -> CRegex {
    match i % 5 {
        0 => CRegex::plus(CRegex::set(CharSet::single('a'))),
        1 => CRegex::star(CRegex::set(CharSet::range('a', 'b'))),
        2 => CRegex::alt(vec![CRegex::lit("ab"), CRegex::lit("ba")]),
        3 => CRegex::concat(vec![CRegex::lit("x"), CRegex::opt(CRegex::lit("y"))]),
        _ => CRegex::repeat(CRegex::set(CharSet::single('c')), 1, Some(3)),
    }
}

/// Seeded cases per property.
const CASES: u64 = 32;

/// The generator of one case.
fn case_rng(case: u64) -> StdRng {
    StdRng::seed_from_u64(0x5017_e500 ^ case)
}

/// A word of 0 to `max` characters over `alphabet`: the strings of the
/// pattern `[alphabet]{0,max}`.
fn word(rng: &mut StdRng, alphabet: &[char], max: usize) -> String {
    let len = rng.random_range(0..=max);
    (0..len)
        .map(|_| *alphabet.choose(rng).expect("non-empty alphabet"))
        .collect()
}

/// SAT models satisfy every constraint under direct evaluation.
#[test]
fn models_satisfy_constraints() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let re_idx = rng.random_range(0..5usize);
        let lit = word(&mut rng, &['a', 'b', 'c', 'x', 'y'], 4);
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let a = pool.fresh_str();
        let re = small_re(re_idx);
        let f = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(a), Term::lit(lit.clone())]),
            Formula::in_re(a, re.clone()),
        ]);
        let (outcome, _) = Solver::default().solve(&f);
        if let Outcome::Sat(model) = outcome {
            let wv = model.get_str(w).expect("assigned").to_string();
            let av = model.get_str(a).expect("assigned").to_string();
            assert_eq!(wv, format!("{av}{lit}"), "case {case}");
            assert!(re_contains(&re, &av), "case {case}");
        }
    }
}

/// Disequalities are honoured by SAT models.
#[test]
fn ne_lit_respected() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let re_idx = rng.random_range(0..5usize);
        let banned = word(&mut rng, &['a', 'b'], 3);
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::in_re(v, small_re(re_idx)),
            Formula::ne_lit(v, banned.clone()),
        ]);
        let (outcome, _) = Solver::default().solve(&f);
        if let Outcome::Sat(model) = outcome {
            let value = model.get_str(v).expect("assigned");
            assert_ne!(value, banned.as_str(), "case {case}");
        }
    }
}

/// UNSAT answers agree with brute-force over finite languages.
#[test]
fn unsat_agrees_with_bruteforce() {
    for case in 0..CASES {
        let target = word(&mut case_rng(case), &['a', 'b'], 3);
        // v ∈ {ab, ba} ∧ v = target: SAT iff target ∈ {ab, ba}.
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::in_re(v, small_re(2)),
            Formula::eq_lit(v, target.clone()),
        ]);
        let (outcome, _) = Solver::default().solve(&f);
        let expected = target == "ab" || target == "ba";
        match outcome {
            Outcome::Sat(_) => assert!(expected, "case {case}: {target:?}"),
            Outcome::Unsat => assert!(!expected, "case {case}: {target:?}"),
            Outcome::Unknown => {} // allowed, but should not occur here
        }
    }
}

#[test]
fn backref_shape_equation() {
    // w = v ++ "-" ++ v, v ∈ a+ : solver must duplicate correctly.
    let mut pool = VarPool::new();
    let w = pool.fresh_str();
    let v = pool.fresh_str();
    let f = Formula::and(vec![
        Formula::eq_concat(w, vec![Term::Var(v), Term::lit("-"), Term::Var(v)]),
        Formula::in_re(v, CRegex::plus(CRegex::set(CharSet::single('a')))),
        Formula::ne_lit(w, "a-a"),
    ]);
    let model = Solver::default().solve(&f).0.model().expect("sat");
    assert_eq!(model.get_str(w), Some("aa-aa"));
}

#[test]
fn deep_nesting_resolves() {
    // Four levels of nested equations.
    let mut pool = VarPool::new();
    let vars: Vec<_> = (0..5).map(|_| pool.fresh_str()).collect();
    let mut conjuncts = Vec::new();
    for i in 0..4 {
        conjuncts.push(Formula::eq_concat(
            vars[i],
            vec![Term::Var(vars[i + 1]), Term::lit("x")],
        ));
    }
    conjuncts.push(Formula::eq_lit(vars[4], "seed"));
    let model = Solver::default()
        .solve(&Formula::and(conjuncts))
        .0
        .model()
        .expect("sat");
    assert_eq!(model.get_str(vars[0]), Some("seedxxxx"));
}
