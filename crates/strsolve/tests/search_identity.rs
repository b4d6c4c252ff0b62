//! Golden identity of the word search: over the seeded corpus of the
//! differential suite, every solve's outcome, model and search effort
//! is folded into one digest that must equal a recorded constant, so a
//! rework of the solver's bookkeeping cannot move a verdict, a model, a
//! candidate or a node unnoticed. A second pass re-solves each formula
//! with its variables renumbered monotonically to large, sparse ids:
//! the solver numbers variables by rank, so stats must be identical and
//! models equal up to the renaming.

mod corpus;

use std::hash::Hasher;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use automata::FxHasher;
use corpus::random_conjuncts;
use strsolve::{
    Atom, BoolVar, Formula, Outcome, SolveStats, Solver, SolverConfig, StrVar, Term, VarPool,
};

/// The digest of the whole corpus, recorded on the solver this suite
/// was written against.
const GOLDEN: u64 = 0xddf1_5baf_e8ba_ac82;

/// The corpus: per seed, the conjunction of a random conjunct list, and
/// a disjunctive variant of the same conjuncts with a boolean flag, so
/// the boolean layer's branch order is pinned too.
fn corpus() -> Vec<(VarPool, Formula)> {
    let mut out = Vec::new();
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x5e55 ^ seed);
        let mut pool = VarPool::new();
        let conjuncts = random_conjuncts(&mut rng, &mut pool);
        let flag = pool.fresh_bool();
        let cut = rng.random_range(1..conjuncts.len());
        let (head, tail) = conjuncts.split_at(cut);
        let disjunctive = Formula::and(vec![
            Formula::or(vec![
                Formula::and(head.to_vec()),
                Formula::and(vec![Formula::bool_is(flag, false), tail[0].clone()]),
            ]),
            Formula::or(vec![
                Formula::and(tail.to_vec()),
                Formula::and(vec![Formula::bool_is(flag, true), head[0].clone()]),
            ]),
        ]);
        out.push((pool.clone(), Formula::and(conjuncts)));
        out.push((pool, disjunctive));
    }
    out
}

fn solve(formula: &Formula) -> (Outcome, SolveStats) {
    Solver::new(SolverConfig::default()).solve(formula)
}

/// Every pool variable, in id order.
fn pool_vars(pool: &VarPool) -> (Vec<StrVar>, Vec<BoolVar>) {
    let mut scratch = VarPool::new();
    let strs = (0..pool.str_count()).map(|_| scratch.fresh_str()).collect();
    let bools = (0..pool.bool_count())
        .map(|_| scratch.fresh_bool())
        .collect();
    (strs, bools)
}

/// The stats the word search determines (everything but wall time).
fn effort(stats: &SolveStats) -> [u64; 9] {
    [
        stats.nodes,
        stats.candidates,
        stats.bool_branches,
        stats.dfas_built,
        stats.length_prunes,
        stats.dfa_cache_hits,
        stats.dfa_states_built,
        stats.states_after_minimize,
        u64::from(stats.truncated),
    ]
}

fn fold(hasher: &mut FxHasher, pool: &VarPool, outcome: &Outcome, stats: &SolveStats) {
    hasher.write(outcome.label().as_bytes());
    if let Outcome::Sat(model) = outcome {
        let (strs, bools) = pool_vars(pool);
        hasher.write_usize(model.len());
        for v in strs {
            match model.get_str(v) {
                Some(value) => {
                    hasher.write_u32(v.index());
                    hasher.write(value.as_bytes());
                    hasher.write_u8(0xff);
                }
                None => hasher.write_u8(0xfe),
            }
        }
        for b in bools {
            hasher.write_u8(match model.try_get_bool(b) {
                None => 2,
                Some(value) => u8::from(value),
            });
        }
    }
    for n in effort(stats) {
        hasher.write_u64(n);
    }
}

#[test]
fn search_over_the_corpus_matches_the_golden_digest() {
    let mut hasher = FxHasher::default();
    let mut verdicts = [0usize; 3];
    for (pool, formula) in corpus() {
        let (outcome, stats) = solve(&formula);
        fold(&mut hasher, &pool, &outcome, &stats);
        verdicts[match outcome {
            Outcome::Sat(_) => 0,
            Outcome::Unsat => 1,
            Outcome::Unknown => 2,
        }] += 1;
    }
    // The corpus must exercise both verdicts for the digest to pin much.
    assert!(verdicts[0] >= 100 && verdicts[1] >= 25, "{verdicts:?}");
    assert_eq!(
        hasher.finish(),
        GOLDEN,
        "the search moved (verdicts {verdicts:?}, digest {:#018x}): a model, a verdict or a count changed",
        hasher.finish()
    );
}

/// A monotone renaming onto large, sparse ids.
fn spread_str(v: StrVar) -> StrVar {
    v.offset_by(1_000_000 + 7_919 * v.index())
}

fn spread_bool(b: BoolVar) -> BoolVar {
    b.offset_by(2_000_000 + 104_729 * b.index())
}

fn spread(formula: &Formula) -> Formula {
    let term = |t: &Term| match t {
        Term::Var(v) => Term::Var(spread_str(*v)),
        Term::Lit(s) => Term::Lit(s.clone()),
    };
    match formula {
        Formula::And(items) => Formula::And(items.iter().map(spread).collect()),
        Formula::Or(items) => Formula::Or(items.iter().map(spread).collect()),
        Formula::Atom(atom) => Formula::Atom(match atom {
            Atom::InRe(v, re) => Atom::InRe(spread_str(*v), re.clone()),
            Atom::NotInRe(v, re) => Atom::NotInRe(spread_str(*v), re.clone()),
            Atom::EqLit(v, s) => Atom::EqLit(spread_str(*v), s.clone()),
            Atom::NeLit(v, s) => Atom::NeLit(spread_str(*v), s.clone()),
            Atom::EqVar(v, u) => Atom::EqVar(spread_str(*v), spread_str(*u)),
            Atom::NeVar(v, u) => Atom::NeVar(spread_str(*v), spread_str(*u)),
            Atom::EqConcat(v, parts) => {
                Atom::EqConcat(spread_str(*v), parts.iter().map(term).collect())
            }
            Atom::Bool(b, value) => Atom::Bool(spread_bool(*b), *value),
            Atom::True => Atom::True,
            Atom::False => Atom::False,
        }),
    }
}

#[test]
fn sparse_variable_ids_search_identically() {
    for (i, (pool, formula)) in corpus().into_iter().enumerate() {
        let (dense, dense_stats) = solve(&formula);
        let (sparse, sparse_stats) = solve(&spread(&formula));
        assert_eq!(dense.label(), sparse.label(), "formula {i}");
        assert_eq!(effort(&dense_stats), effort(&sparse_stats), "formula {i}");
        if let (Outcome::Sat(dense), Outcome::Sat(sparse)) = (&dense, &sparse) {
            assert_eq!(dense.len(), sparse.len(), "formula {i}");
            let (strs, bools) = pool_vars(&pool);
            for v in strs {
                assert_eq!(
                    dense.get_str(v),
                    sparse.get_str(spread_str(v)),
                    "formula {i}"
                );
            }
            for b in bools {
                assert_eq!(
                    dense.try_get_bool(b),
                    sparse.try_get_bool(spread_bool(b)),
                    "formula {i}"
                );
            }
        }
    }
}
