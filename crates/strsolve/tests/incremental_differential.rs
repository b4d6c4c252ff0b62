//! Differential suite for the assumption-stack session: over a seeded
//! random-formula corpus (the same constraint families the
//! capturing-language models emit), every split of a conjunction into
//! prefix frames plus an assumption must assemble to the byte-identical
//! formula, canonicalization and conjunct digest a from-scratch solve
//! would use, and yield the identical verdict **and model**.

mod corpus;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use corpus::random_conjuncts;
use strsolve::{
    canonical_query, conjunct_digest, Formula, Group, Shape, SolveSession, Solver, SolverConfig,
    VarPool,
};

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
        let q = session.view(split, assumption);
        assert_eq!(q.original(), scratch, "seed {seed}: original diverged");
        assert_eq!(
            q.canonical(),
            scratch_canon.formula,
            "seed {seed}: canonical formula diverged at split {split}"
        );
        assert_eq!(q.canonicalizer().str_vars(), scratch_canon.str_vars());
        assert_eq!(q.canonicalizer().bool_vars(), scratch_canon.bool_vars());
        // The digest depends on the canonical list alone, not the split.
        assert_eq!(q.digest(), conjunct_digest(&q.conjuncts()), "seed {seed}");
        let whole = SolveSession::new(solver.clone());
        assert_eq!(
            whole.view(0, &conjuncts).digest(),
            q.digest(),
            "seed {seed}: digest depends on split {split}"
        );
    }
}

#[test]
fn grouped_views_match_plain_views_over_random_corpus() {
    // Every conjunct is shifted by a padding, as if its pool had been
    // absorbed into a larger one; the tail's last items are posed as
    // groups whose shapes were taken before the shift.
    let solver = Solver::new(SolverConfig::default());
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x6a0f ^ seed);
        let mut pool = VarPool::new();
        let built = random_conjuncts(&mut rng, &mut pool);
        let shift = rng.random_range(0u32..6);
        let conjuncts: Vec<Formula> = built.iter().map(|f| f.offset_vars(shift, 0)).collect();
        let (session, split, assumption) = split_into_session(&mut rng, &solver, &conjuncts);
        let grouped = rng.random_range(0usize..=assumption.len());
        let first_group = assumption.len() - grouped;
        let shapes: Vec<Arc<Shape>> = built[split + first_group..]
            .iter()
            .map(|f| Arc::new(Shape::of(f)))
            .collect();
        let groups: Vec<Group<'_>> = assumption[first_group..]
            .iter()
            .zip(&shapes)
            .map(|(formula, shape)| Group {
                formula,
                shape,
                str_offset: shift,
                bool_offset: 0,
            })
            .collect();

        let q = session.view_with(split, &assumption[..first_group], &groups);
        let plain = session.view(split, assumption);
        let at = format!("seed {seed}: split {split}, {grouped} grouped, shift {shift}");
        assert_eq!(q.conjuncts(), plain.conjuncts(), "{at}");
        assert_eq!(
            q.canonicalizer().str_vars(),
            plain.canonicalizer().str_vars(),
            "{at}"
        );
        assert_eq!(
            q.canonicalizer().bool_vars(),
            plain.canonicalizer().bool_vars(),
            "{at}"
        );
        assert_eq!(q.original(), plain.original(), "{at}");
        assert_eq!(q.original(), Formula::and(conjuncts.clone()), "{at}");
        assert!(q.matches(&q.key()), "{at}");
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
