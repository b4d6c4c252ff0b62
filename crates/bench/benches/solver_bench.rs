//! Micro-benchmarks for the string constraint solver (the Z3 substitute).

use automata::{CRegex, CharSet};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use strsolve::{Formula, Solver, Term, VarPool};

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(20);

    group.bench_function("membership_witness", |b| {
        b.iter(|| {
            let mut pool = VarPool::new();
            let v = pool.fresh_str();
            let re = CRegex::concat(vec![
                CRegex::lit("go"),
                CRegex::plus(CRegex::set(CharSet::single('o'))),
                CRegex::lit("d"),
            ]);
            black_box(Solver::default().solve(&Formula::in_re(v, re)))
        });
    });

    group.bench_function("concat_equation", |b| {
        b.iter(|| {
            let mut pool = VarPool::new();
            let w = pool.fresh_str();
            let a = pool.fresh_str();
            let bb = pool.fresh_str();
            let f = Formula::and(vec![
                Formula::eq_concat(w, vec![Term::Var(a), Term::Var(bb)]),
                Formula::in_re(a, CRegex::plus(CRegex::set(CharSet::range('a', 'c')))),
                Formula::in_re(bb, CRegex::plus(CRegex::set(CharSet::range('x', 'z')))),
                Formula::eq_lit(w, "abcxyz"),
            ]);
            black_box(Solver::default().solve(&f))
        });
    });

    group.bench_function("unsat_intersection", |b| {
        b.iter(|| {
            let mut pool = VarPool::new();
            let v = pool.fresh_str();
            let f = Formula::and(vec![
                Formula::in_re(v, CRegex::plus(CRegex::set(CharSet::single('a')))),
                Formula::in_re(v, CRegex::plus(CRegex::set(CharSet::single('b')))),
            ]);
            black_box(Solver::default().solve(&f))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
