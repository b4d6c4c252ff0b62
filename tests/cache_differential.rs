//! Differential tests for the cross-query caches (regex models and
//! CEGAR verdicts) and the parallel flip solver: hits and misses must be
//! observationally identical — same `Sat`/`Unsat`/`Unknown` verdicts,
//! same models — and a DSE report must not depend on the flip worker
//! count.

use expose::core::{
    build_match_model, BuildConfig, CegarCache, CegarSolver, ModelCache, SupportLevel,
};
use expose::dse::{parser::parse_program, run_dse, DseCaches, EngineConfig, Harness, Report};
use expose::strsolve::{Formula, SolveSession, Solver, Term, VarPool};
use expose::syntax::Regex;

#[test]
fn verdict_cache_is_sound_across_pools_with_disjoint_numbering() {
    // The same structural flip posed from pools with different raw
    // indices: the first posing stores its CEGAR run, the other four
    // replay it, and every replayed model must be rehydrated into the
    // asking pool's variables — equal to a cache-less solve.
    let regex = Regex::parse_literal("/^<([a-z]+)>$/").expect("literal");
    let cegar = CegarSolver::default();
    let cache = CegarCache::new(64);
    for padding in 0..5usize {
        let mut pool = VarPool::new();
        for i in 0..padding {
            pool.fresh_str(format!("pad{i}"));
        }
        let tag = pool.fresh_str("tag");
        let c = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
        let mut session = SolveSession::new(Solver::default());
        session.push(vec![Formula::eq_concat(
            c.input,
            vec![Term::lit("<"), Term::Var(tag), Term::lit(">")],
        )]);
        let assumption = [Formula::ne_lit(tag, "a")];
        let constraints = std::slice::from_ref(&c);
        let cached = cegar.solve_incremental(&session, 1, &assumption, constraints, Some(&cache));
        let fresh = cegar.solve_incremental(&session, 1, &assumption, constraints, None);
        assert_eq!(cached.stats.replayed, padding > 0, "padding {padding}");
        assert_eq!(cached.outcome, fresh.outcome, "padding {padding}");
        let model = cached.outcome.model().expect("sat");
        let tag_value = model.get_str(tag).expect("tag assigned");
        assert_eq!(
            model.get_str(c.input),
            Some(format!("<{tag_value}>").as_str()),
            "padding {padding}"
        );
    }
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 4);
}

#[test]
fn model_cache_hit_equals_fresh_build_for_paper_patterns() {
    let patterns = [
        "/^a+$/",
        "/^v?(\\d+)\\.(\\d+)\\.(\\d+)(-([a-z0-9.]+))?$/",
        "/^<(\\w+)>([0-9]*)<\\/\\1>$/",
        "/(a|ab)/",
        "/^a*(a)?$/",
        "/^(?!foo)[a-z]+$/",
    ];
    let cache = ModelCache::new(64);
    let cfg = BuildConfig::default();
    for literal in patterns {
        let regex = Regex::parse_literal(literal).expect("literal");
        for positive in [true, false] {
            // Prime, then hit.
            let mut warm = VarPool::new();
            cache.get_or_build(&regex, positive, SupportLevel::Refinement, &mut warm, &cfg);
            let mut pool_hit = VarPool::new();
            let (cached, hit) = cache.get_or_build(
                &regex,
                positive,
                SupportLevel::Refinement,
                &mut pool_hit,
                &cfg,
            );
            assert!(hit, "{literal} ({positive}) must hit after priming");

            let mut pool_fresh = VarPool::new();
            let fresh = build_match_model(&regex, positive, &mut pool_fresh, &cfg);
            // The rebased cached model must be *identical* to a direct
            // build into an identically-sized pool.
            assert_eq!(cached.formula, fresh.formula, "{literal} ({positive})");
            assert_eq!(cached.input, fresh.input);
            assert_eq!(cached.captures, fresh.captures);
            assert_eq!(cached.exact, fresh.exact);

            // And solving both must agree.
            let solver = Solver::default();
            let (a, _) = solver.solve(&cached.formula);
            let (b, _) = solver.solve(&fresh.formula);
            assert_eq!(a, b, "{literal} ({positive})");
        }
    }
}

/// Everything except timing- and scheduling-dependent report fields.
fn comparable(r: &Report) -> impl PartialEq + std::fmt::Debug {
    (
        {
            let mut coverage: Vec<_> = r.coverage.iter().copied().collect();
            coverage.sort_unstable();
            coverage
        },
        r.stmt_count,
        r.executions,
        r.tests_generated,
        r.bugs.clone(),
        r.queries
            .iter()
            .map(|q| (q.sat, q.refinements, q.limit_hit, q.modeled_regex))
            .collect::<Vec<_>>(),
    )
}

#[test]
fn flip_workers_one_and_eight_produce_identical_reports() {
    for w in expose::corpus::library_workloads()
        .into_iter()
        .filter(|w| matches!(w.name, "semver" | "yn" | "query-string"))
    {
        let program = parse_program(w.source).expect("parse");
        let harness = Harness::strings(w.entry, w.arity);
        let base = EngineConfig {
            max_executions: 10,
            ..EngineConfig::default()
        };
        let serial = run_dse(
            &program,
            &harness,
            &EngineConfig {
                flip_workers: 1,
                ..base.clone()
            },
        );
        let parallel = run_dse(
            &program,
            &harness,
            &EngineConfig {
                flip_workers: 8,
                ..base
            },
        );
        assert_eq!(
            comparable(&serial),
            comparable(&parallel),
            "{}: worker count changed the report",
            w.name
        );
    }
}

#[test]
fn shared_caches_across_runs_preserve_reports() {
    // Two runs of the same program against one shared cache set: the
    // second run (all-hits) must reproduce the first run's report.
    let program = parse_program(
        r#"function f(x) {
            let m = /^([a-z]+)-(\d+)$/.exec(x);
            if (m) { if (m[1] === "build") { return 1; } return 2; }
            return 0;
        }"#,
    )
    .expect("parse");
    let harness = Harness::strings("f", 1);
    let config = EngineConfig {
        max_executions: 10,
        ..EngineConfig::default()
    };
    let caches = DseCaches::from_config(&config);
    let cold = expose::dse::run_dse_with_caches(&program, &harness, &config, &caches);
    let warm = expose::dse::run_dse_with_caches(&program, &harness, &config, &caches);
    assert_eq!(comparable(&cold), comparable(&warm));
    assert!(
        warm.model_cache_hits > 0 && warm.model_cache_misses == 0,
        "warm run must be all model-cache hits: {warm:?}"
    );
}
