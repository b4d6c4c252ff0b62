//! The seeded random-formula corpus shared by the differential and
//! identity suites: the constraint families the capturing-language
//! models emit, over a four-variable pool and the alphabet {a, b, c}.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::RngExt;

use automata::{CRegex, CharSet};
use strsolve::{Formula, StrVar, Term, VarPool};

/// A small random classical regex over {a, b, c}.
pub fn random_regex(rng: &mut StdRng, depth: usize) -> CRegex {
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
pub fn random_conjuncts(rng: &mut StdRng, pool: &mut VarPool) -> Vec<Formula> {
    let vars: Vec<StrVar> = (0..4).map(|_| pool.fresh_str()).collect();
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
