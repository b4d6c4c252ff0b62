//! The engine's one flip-solve path against the from-scratch reference
//! oracle. Inside a `run_dse_observed` observer, every executed trace is
//! re-solved through a `TraceFlipSession` — shared prefix frames plus a
//! run-wide CEGAR verdict cache, exactly as the engine solves it — and
//! each flip is checked against `solve_flip`, which rebuilds the whole
//! query from scratch with every cache disabled. Sat verdicts, generated
//! inputs, refinement counts and limit hits must agree over every
//! library workload and a seeded generated corpus, at the full support
//! level and at the two non-refining levels that model regexes. The
//! session side must also actually reuse prefix frames and replay
//! verdicts, so the equality is not vacuous.

use expose::core::SupportLevel;
use expose::dse::{
    build_solver, parser::parse_program, run_dse_observed, solve_flip, DseCaches, EngineConfig,
    FlipResult, Harness, TraceFlipSession,
};
use expose::strsolve::Solver;

/// Session-side totals over the compared flips.
#[derive(Debug, Default)]
struct Compared {
    flips: usize,
    prefix_reuse_hits: u64,
    verdict_replays: u64,
}

/// What the session path and the scratch oracle must agree on.
fn verdict(result: &FlipResult) -> (bool, Option<Vec<String>>, usize, bool) {
    (
        result.record.sat,
        result.inputs.clone(),
        result.record.refinements,
        result.record.limit_hit,
    )
}

/// Runs DSE on one workload and compares every flip of every trace.
fn compare_flips(
    name: &str,
    source: &str,
    entry: &str,
    arity: usize,
    max_executions: usize,
    support: SupportLevel,
    totals: &mut Compared,
) {
    let program = parse_program(source).expect("workload parses");
    let harness = Harness::strings(entry, arity);
    let config = EngineConfig {
        max_executions,
        max_steps: 50_000,
        support,
        ..EngineConfig::default()
    };
    // The session side shares one cache set across the run's traces, as
    // the engine does; the oracle runs with every cache disabled.
    let caches = DseCaches::from_config(&config);
    let solver = build_solver(&config, &caches);
    let disabled = DseCaches::disabled();
    let oracle_solver = Solver::new(config.solver.clone());
    let engine_caches = DseCaches::from_config(&config);
    run_dse_observed(
        &program,
        &harness,
        &config,
        &engine_caches,
        &mut |trace, flips| {
            let session = TraceFlipSession::build(
                trace,
                flips,
                config.support,
                &solver,
                config.refinement_limit,
                &config.build,
                &caches,
            );
            for k in 0..flips {
                let got = session.solve(k);
                let expected = solve_flip(
                    trace,
                    k,
                    config.support,
                    &oracle_solver,
                    config.refinement_limit,
                    &config.build,
                    &disabled,
                );
                assert_eq!(
                    verdict(&got),
                    verdict(&expected),
                    "{name} ({support:?}): flip {k} diverged from the scratch oracle"
                );
                totals.flips += 1;
                totals.prefix_reuse_hits += got.record.prefix_reuse_hits;
                totals.verdict_replays += got.record.verdict_replays;
            }
        },
    );
}

#[test]
fn library_workloads_agree_between_incremental_and_scratch() {
    // Below `Refinement` each flip is a single unvalidated solve; it
    // still goes through the session and replays from the verdict cache.
    for support in [
        SupportLevel::Modeling,
        SupportLevel::Captures,
        SupportLevel::Refinement,
    ] {
        let mut totals = Compared::default();
        for w in expose::corpus::library_workloads() {
            compare_flips(w.name, w.source, w.entry, w.arity, 8, support, &mut totals);
        }
        assert!(
            totals.flips > 100,
            "{support:?}: only {} flips compared",
            totals.flips
        );
        assert!(
            totals.prefix_reuse_hits > 0 && totals.verdict_replays > 0,
            "{support:?}: the sessions never reused a prefix frame or replayed a verdict"
        );
    }
}

#[test]
fn generated_corpus_agrees_between_incremental_and_scratch() {
    let mut totals = Compared::default();
    for p in expose::corpus::generate_dse_programs(12, 0x1c4e5eed) {
        compare_flips(
            &p.name,
            &p.source,
            &p.entry,
            p.arity,
            6,
            SupportLevel::Refinement,
            &mut totals,
        );
    }
    assert!(
        totals.verdict_replays > 0,
        "the generated corpus never replayed a CEGAR run"
    );
}
