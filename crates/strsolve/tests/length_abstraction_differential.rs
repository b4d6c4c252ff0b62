//! Differential suite for the length-abstraction pass: over a seeded
//! random-formula corpus (the same constraint families the
//! capturing-language models emit), solving with the pass enabled and
//! disabled must yield identical verdicts, and every `Sat` model from
//! the enabled solver must satisfy its formula. The DFA caches are
//! exercised on top: verdicts must also match an uncached solver, and
//! a warm shared table must return the same models as a cold one.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use automata::{CRegex, CharSet};
use strsolve::{DfaTables, Formula, Outcome, Solver, SolverConfig, StrVar, Term, VarPool};

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

/// A random conjunction of concat equations, memberships, negations
/// and literal (dis)equalities — the shapes the length intervals
/// propagate through.
fn random_formula(rng: &mut StdRng, pool: &mut VarPool) -> Formula {
    let vars: Vec<StrVar> = (0..4).map(|_| pool.fresh_str()).collect();
    let literals = ["", "a", "b", "ab", "abc", "cc", "abab"];
    let n = 1 + rng.random_range(0usize..5);
    let mut conjuncts = Vec::new();
    for _ in 0..n {
        let v = *vars.choose(rng).expect("nonempty");
        let u = *vars.choose(rng).expect("nonempty");
        let w = *vars.choose(rng).expect("nonempty");
        let lit = *literals.choose(rng).expect("nonempty");
        conjuncts.push(match rng.random_range(0usize..7) {
            0 => Formula::eq_concat(v, vec![Term::Var(u), Term::lit(lit)]),
            1 => Formula::eq_concat(v, vec![Term::lit(lit), Term::Var(u), Term::Var(u)]),
            2 => Formula::eq_concat(v, vec![Term::Var(u), Term::Var(w)]),
            3 => Formula::in_re(v, random_regex(rng, 2)),
            4 => Formula::not_in_re(v, random_regex(rng, 2)),
            5 => Formula::ne_lit(v, lit),
            _ => Formula::eq_lit(v, lit),
        });
    }
    Formula::and(conjuncts)
}

fn verdict(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Sat(_) => "sat",
        Outcome::Unsat => "unsat",
        Outcome::Unknown => "unknown",
    }
}

#[test]
fn verdicts_identical_with_length_abstraction_on_and_off() {
    let with = Solver::new(SolverConfig {
        length_abstraction: true,
        ..SolverConfig::default()
    });
    let without = Solver::new(SolverConfig {
        length_abstraction: false,
        ..SolverConfig::default()
    });
    let mut sat = 0usize;
    let mut unsat = 0usize;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x1e57 ^ seed);
        let mut pool = VarPool::new();
        let formula = random_formula(&mut rng, &mut pool);
        let (on, _) = with.solve(&formula);
        let (off, _) = without.solve(&formula);
        assert_eq!(
            verdict(&on),
            verdict(&off),
            "seed {seed}: verdict changed by length abstraction on {formula}"
        );
        match on {
            Outcome::Sat(_) => sat += 1,
            Outcome::Unsat => unsat += 1,
            Outcome::Unknown => {}
        }
    }
    // The corpus must exercise both verdicts for the diff to mean much.
    assert!(sat >= 50, "only {sat} Sat instances");
    assert!(unsat >= 25, "only {unsat} Unsat instances");
}

#[test]
fn verdicts_identical_with_and_without_dfa_caches() {
    // Minimization, projection from per-regex base DFAs, pinned-root
    // shortcuts and length abstraction, with and without cached
    // automata. A table hit must equal a fresh build, so the two
    // default solvers (cold tables, then the same tables warm) must
    // agree on models too, not just on verdicts — and so must a pass
    // through tables small enough to evict on nearly every insert.
    let formulas: Vec<Formula> = (0..300u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(0xea10 ^ seed);
            random_formula(&mut rng, &mut VarPool::new())
        })
        .collect();
    let uncached = Solver::new(SolverConfig {
        length_abstraction: false,
        dfa_cache_capacity: 0,
        ..SolverConfig::default()
    });
    let tables = DfaTables::new(SolverConfig::default().dfa_cache_capacity);
    let solve_all =
        |solver: &Solver| -> Vec<Outcome> { formulas.iter().map(|f| solver.solve(f).0).collect() };
    let plain = solve_all(&uncached);
    let cold = solve_all(&Solver::default().with_dfa_tables(&tables));
    let hits_after_cold = tables.stats().hits;
    let warm = solve_all(&Solver::default().with_dfa_tables(&tables));
    assert!(
        tables.stats().hits > hits_after_cold,
        "the warm pass hit nothing"
    );
    // Two-entry tables evict on nearly every insert.
    let evicting = solve_all(&Solver::default().with_dfa_tables(&DfaTables::new(2)));
    for (seed, formula) in formulas.iter().enumerate() {
        let (plain, cold, warm) = (&plain[seed], &cold[seed], &warm[seed]);
        assert_eq!(
            verdict(plain),
            verdict(cold),
            "seed {seed}: DFA caching changed the verdict of {formula}"
        );
        assert_eq!(
            cold, warm,
            "seed {seed}: warm tables changed the outcome of {formula}"
        );
        assert_eq!(
            cold, &evicting[seed],
            "seed {seed}: evicting tables changed the outcome of {formula}"
        );
    }
}

#[test]
fn models_from_the_length_abstracted_solver_are_valid() {
    // Model soundness under the pass: every Sat model satisfies its
    // formula (checked with the solver's own final model — membership
    // via an independent unminimized DFA).
    let solver = Solver::new(SolverConfig {
        length_abstraction: true,
        ..SolverConfig::default()
    });
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x10de1 ^ seed);
        let mut pool = VarPool::new();
        let formula = random_formula(&mut rng, &mut pool);
        if let (Outcome::Sat(model), _) = solver.solve(&formula) {
            assert!(
                eval(&formula, &model),
                "seed {seed}: model {model:?} violates {formula}"
            );
        }
    }
}

/// Independent evaluator (unminimized DFA membership, direct
/// concatenation).
fn eval(formula: &Formula, model: &strsolve::Model) -> bool {
    use std::sync::Arc;
    use strsolve::Atom;
    let re_contains = |re: &CRegex, word: &str| -> bool {
        let mut sets = Vec::new();
        re.collect_sets(&mut sets);
        for c in word.chars() {
            sets.push(CharSet::single(c));
        }
        let alphabet = Arc::new(automata::Alphabet::from_sets(&sets));
        automata::Dfa::from_cregex(re, &alphabet).contains(word)
    };
    let term_value = |t: &Term| -> Option<String> {
        match t {
            Term::Var(v) => model.get_str(*v).map(str::to_string),
            Term::Lit(s) => Some(s.clone()),
        }
    };
    match formula {
        Formula::And(items) => items.iter().all(|f| eval(f, model)),
        Formula::Or(items) => items.iter().any(|f| eval(f, model)),
        Formula::Atom(atom) => match atom {
            Atom::True => true,
            Atom::False => false,
            Atom::Bool(b, value) => model.get_bool(*b) == *value,
            Atom::EqLit(v, lit) => model.get_str(*v) == Some(lit.as_str()),
            Atom::NeLit(v, lit) => model.get_str(*v).is_some_and(|value| value != lit.as_str()),
            Atom::EqVar(v, u) => {
                model.get_str(*v).is_some() && model.get_str(*v) == model.get_str(*u)
            }
            Atom::NeVar(v, u) => match (model.get_str(*v), model.get_str(*u)) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            },
            Atom::InRe(v, re) => model
                .get_str(*v)
                .is_some_and(|value| re_contains(re, value)),
            Atom::NotInRe(v, re) => model
                .get_str(*v)
                .is_some_and(|value| !re_contains(re, value)),
            Atom::EqConcat(v, parts) => {
                let Some(lhs) = model.get_str(*v) else {
                    return false;
                };
                let mut rhs = String::new();
                for part in parts {
                    match term_value(part) {
                        Some(value) => rhs.push_str(&value),
                        None => return false,
                    }
                }
                lhs == rhs
            }
        },
    }
}
