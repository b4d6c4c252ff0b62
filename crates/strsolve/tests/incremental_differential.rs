//! Differential suite for the assumption-stack session: over a seeded
//! random-formula corpus (the same constraint families the
//! capturing-language models emit), every split of a conjunction into
//! prefix frames plus an assumption must assemble to the byte-identical
//! formula and canonicalization a from-scratch solve would use, and
//! yield the identical verdict **and model**.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use automata::{CRegex, CharSet};
use strsolve::{
    canonical_query, Formula, SolveSession, Solver, SolverConfig, StrVar, Term, VarPool,
};

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

/// A random conjunct list shaped like a DSE flip family: concat
/// equations, memberships, negations, literal (dis)equalities, plus
/// the occasional `⊤`/nested-`And` to exercise the flattening rules.
fn random_conjuncts(rng: &mut StdRng, pool: &mut VarPool) -> Vec<Formula> {
    let vars: Vec<StrVar> = (0..4).map(|i| pool.fresh_str(format!("v{i}"))).collect();
    let literals = ["", "a", "b", "ab", "abc", "cc", "abab"];
    let n = 2 + rng.random_range(0usize..5);
    let mut conjuncts = Vec::new();
    for _ in 0..n {
        let v = *vars.choose(rng).expect("nonempty");
        let u = *vars.choose(rng).expect("nonempty");
        let w = *vars.choose(rng).expect("nonempty");
        let lit = *literals.choose(rng).expect("nonempty");
        conjuncts.push(match rng.random_range(0usize..9) {
            0 => Formula::eq_concat(v, vec![Term::Var(u), Term::lit(lit)]),
            1 => Formula::eq_concat(v, vec![Term::lit(lit), Term::Var(u), Term::Var(u)]),
            2 => Formula::eq_concat(v, vec![Term::Var(u), Term::Var(w)]),
            3 => Formula::in_re(v, random_regex(rng, 2)),
            4 => Formula::not_in_re(v, random_regex(rng, 2)),
            5 => Formula::ne_lit(v, lit),
            6 => Formula::top(),
            7 => Formula::and(vec![Formula::ne_lit(v, lit), Formula::ne_lit(u, "zz")]),
            _ => Formula::eq_lit(v, lit),
        });
    }
    conjuncts
}

/// Builds the session at a random frame split and returns
/// `(session, split, assumption)`.
fn split_into_session<'a>(
    rng: &mut StdRng,
    solver: &Solver,
    conjuncts: &'a [Formula],
) -> (SolveSession, usize, &'a [Formula]) {
    let split = rng.random_range(0usize..=conjuncts.len());
    let mut session = SolveSession::new(solver.clone());
    for c in &conjuncts[..split] {
        session.push(vec![c.clone()]);
    }
    (session, split, &conjuncts[split..])
}

#[test]
fn assembled_queries_match_scratch_over_random_corpus() {
    let solver = Solver::new(SolverConfig::default());
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x1c4e ^ seed);
        let mut pool = VarPool::new();
        let conjuncts = random_conjuncts(&mut rng, &mut pool);
        let (session, split, assumption) = split_into_session(&mut rng, &solver, &conjuncts);

        let scratch = Formula::and(conjuncts.clone());
        let scratch_canon = canonical_query(&scratch);
        let q = session.assemble(split, assumption);
        assert_eq!(q.original, scratch, "seed {seed}: original diverged");
        assert_eq!(
            q.canonical.formula, scratch_canon.formula,
            "seed {seed}: canonical formula diverged at split {split}"
        );
        assert_eq!(q.canonical.str_vars(), scratch_canon.str_vars());
        assert_eq!(q.canonical.bool_vars(), scratch_canon.bool_vars());
    }
}

#[test]
fn verdicts_and_models_match_scratch_over_random_corpus() {
    let solver = Solver::new(SolverConfig::default());
    let mut sat = 0usize;
    let mut unsat = 0usize;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x5e55 ^ seed);
        let mut pool = VarPool::new();
        let conjuncts = random_conjuncts(&mut rng, &mut pool);
        let (session, split, assumption) = split_into_session(&mut rng, &solver, &conjuncts);

        let (expected, _) = solver.solve(&Formula::and(conjuncts.clone()));
        let (got, stats) = session.solve_at(split, assumption);
        // Outcome equality covers the model byte-for-byte, not just the
        // sat/unsat verdict.
        assert_eq!(got, expected, "seed {seed}: split {split} diverged");
        assert_eq!(stats.prefix_reuse_hits, split as u64);
        match got {
            strsolve::Outcome::Sat(_) => sat += 1,
            strsolve::Outcome::Unsat => unsat += 1,
            strsolve::Outcome::Unknown => {}
        }
    }
    // The corpus must exercise both verdicts for the diff to mean much.
    assert!(sat >= 50, "only {sat} Sat instances");
    assert!(unsat >= 25, "only {unsat} Unsat instances");
}
