//! Seeded random-formula property tests: every `Sat` model the solver
//! produces must satisfy the formula it was produced from, under the
//! independent, direct evaluator ([`Model::satisfies`] — DFA membership
//! plus string concatenation, no solver machinery). Covers the three
//! constraint families the capturing-language models emit — word
//! equations (concat), regular membership, and negation (`∉`, `≠`).

use automata::{CRegex, CharSet};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use strsolve::model::re_contains;
use strsolve::{Formula, Model, Outcome, Solver, StrVar, Term, VarPool};

/// The independent evaluator: now a library hook ([`Model::satisfies`])
/// so the differential fuzzer shares one implementation with these
/// property tests.
fn eval(formula: &Formula, model: &Model) -> bool {
    model.satisfies(formula)
}

/// A small random classical regex over {a, b, c}.
fn random_regex(rng: &mut StdRng, depth: usize) -> CRegex {
    let leaf = |rng: &mut StdRng| {
        let options = [
            CRegex::set(CharSet::single('a')),
            CRegex::set(CharSet::single('b')),
            CRegex::set(CharSet::range('a', 'c')),
            CRegex::lit("ab"),
            CRegex::lit("c"),
        ];
        options.choose(rng).expect("nonempty").clone()
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.random_range(0usize..6) {
        0 => CRegex::star(random_regex(rng, depth - 1)),
        1 => CRegex::plus(random_regex(rng, depth - 1)),
        2 => CRegex::opt(random_regex(rng, depth - 1)),
        3 => CRegex::concat(vec![
            random_regex(rng, depth - 1),
            random_regex(rng, depth - 1),
        ]),
        4 => CRegex::alt(vec![
            random_regex(rng, depth - 1),
            random_regex(rng, depth - 1),
        ]),
        _ => leaf(rng),
    }
}

/// A random conjunction of concat equations, memberships and negations
/// over a small variable pool.
fn random_formula(rng: &mut StdRng, pool: &mut VarPool) -> Formula {
    let vars: Vec<StrVar> = (0..4).map(|_| pool.fresh_str()).collect();
    let literals = ["", "a", "b", "ab", "abc", "cc"];
    let n = 1 + rng.random_range(0usize..4);
    let mut conjuncts = Vec::new();
    for _ in 0..n {
        let v = *vars.choose(rng).expect("nonempty");
        let u = *vars.choose(rng).expect("nonempty");
        let lit = *literals.choose(rng).expect("nonempty");
        conjuncts.push(match rng.random_range(0usize..6) {
            // Word equations.
            0 => Formula::eq_concat(v, vec![Term::Var(u), Term::lit(lit)]),
            1 => Formula::eq_concat(v, vec![Term::lit(lit), Term::Var(u), Term::Var(u)]),
            // Membership.
            2 => Formula::in_re(v, random_regex(rng, 2)),
            // Negation family.
            3 => Formula::not_in_re(v, random_regex(rng, 2)),
            4 => Formula::ne_lit(v, lit),
            _ => Formula::eq_lit(v, lit),
        });
    }
    Formula::and(conjuncts)
}

#[test]
fn random_sat_models_satisfy_their_formula() {
    let mut sat = 0usize;
    let mut total = 0usize;
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = VarPool::new();
        let formula = random_formula(&mut rng, &mut pool);
        total += 1;
        let (outcome, _) = Solver::default().solve(&formula);
        if let Outcome::Sat(model) = outcome {
            sat += 1;
            assert!(
                eval(&formula, &model),
                "seed {seed}: model {model:?} does not satisfy {formula}"
            );
        }
    }
    // The generator must actually exercise the solver.
    assert!(sat >= total / 4, "only {sat}/{total} instances were Sat");
}

#[test]
fn membership_witnesses_are_members() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ seed);
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let re = random_regex(&mut rng, 3);
        let formula = Formula::in_re(v, re.clone());
        if let (Outcome::Sat(model), _) = Solver::default().solve(&formula) {
            let value = model.get_str(v).expect("assigned");
            assert!(
                re_contains(&re, value),
                "seed {seed}: witness {value:?} not in L({re})"
            );
        }
    }
}

#[test]
fn negation_witnesses_are_non_members() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xbad ^ seed);
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let re = random_regex(&mut rng, 3);
        let formula = Formula::not_in_re(v, re.clone());
        if let (Outcome::Sat(model), _) = Solver::default().solve(&formula) {
            let value = model.get_str(v).expect("assigned");
            assert!(
                !re_contains(&re, value),
                "seed {seed}: witness {value:?} unexpectedly in L({re})"
            );
        }
    }
}

#[test]
fn concat_with_duplicated_variable_is_consistent() {
    // The backreference shape: w = u ++ u ++ "x", u ∈ (ab)+.
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37));
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let u = pool.fresh_str();
        let re = CRegex::plus(random_regex(&mut rng, 1));
        let formula = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(u), Term::Var(u), Term::lit("x")]),
            Formula::in_re(u, re.clone()),
        ]);
        if let (Outcome::Sat(model), _) = Solver::default().solve(&formula) {
            let wv = model.get_str(w).expect("assigned");
            let uv = model.get_str(u).expect("assigned");
            assert_eq!(wv, format!("{uv}{uv}x"), "seed {seed}");
            assert!(re_contains(&re, uv), "seed {seed}");
        }
    }
}
