//! The DSE driver: generational search with CUPA-style scheduling.
//!
//! Mirrors ExpoSE's architecture (§6.2): each executed test case yields
//! a trace; all feasible clause flips are solved to generate new test
//! cases, which are sorted into buckets keyed by the program fork point
//! that created them; the next test case is drawn from the
//! least-accessed bucket, prioritizing unexplored code.
//!
//! The flip-solving loop — where DSE spends nearly all of its
//! wall-clock (§6.2 of the paper reports solver time dominating) — is
//! the unit of parallelism: the flips of one trace are independent
//! queries, fanned out over [`EngineConfig::flip_workers`] scoped
//! threads and re-ordered deterministically by clause index before any
//! engine state is touched, so a run's report is identical for any
//! worker count. Regex models and solver verdicts are shared across
//! queries (and across batch jobs) through [`DseCaches`].

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::thread;
use expose_core::model::BuildConfig;
use expose_core::SupportLevel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use strsolve::{Solver, SolverConfig};

use crate::ast::{Program, StmtId};
use crate::caching::DseCaches;
use crate::interp::{execute_with, Harness, InterpConfig, MatcherMemo};
use crate::solve::{FlipResult, QueryRecord, TraceFlipSession};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Regex support level (the Table 7 axis).
    pub support: SupportLevel,
    /// Maximum number of concrete executions.
    pub max_executions: usize,
    /// Maximum clause flips attempted per trace.
    pub max_flips_per_trace: usize,
    /// Interpreter step budget per execution.
    pub max_steps: u64,
    /// Solver limits.
    pub solver: SolverConfig,
    /// Model-construction limits.
    pub build: BuildConfig,
    /// CEGAR refinement limit (§7.2 uses 20).
    pub refinement_limit: usize,
    /// RNG seed for bucket sampling (deterministic runs).
    pub seed: u64,
    /// Worker threads for per-trace clause-flip solving. `1` (the
    /// default) solves serially on the calling thread; `0` means
    /// "auto": `max(1, available_parallelism)`. Reports are identical
    /// for every worker count.
    pub flip_workers: usize,
    /// Capacity of the shared regex-model cache (`0` disables it).
    pub model_cache_capacity: usize,
    /// Capacity of the shared CEGAR verdict cache
    /// ([`expose_core::cegar::CegarCache`]), which replays whole
    /// validated refinement runs for structurally identical flips. `0`
    /// turns verdict replay off. The name dates from the removed
    /// solver-level query cache.
    pub query_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            support: SupportLevel::Refinement,
            max_executions: 64,
            max_flips_per_trace: 24,
            max_steps: 100_000,
            solver: SolverConfig::default(),
            build: BuildConfig::default(),
            refinement_limit: 20,
            seed: 0x5eed,
            flip_workers: 1,
            model_cache_capacity: 512,
            query_cache_capacity: 2048,
        }
    }
}

/// Resolves a worker-count knob: `0` means `max(1,
/// available_parallelism)`.
pub(crate) fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(1)
    } else {
        requested
    }
}

/// The result of a DSE run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Covered statement ids.
    pub coverage: HashSet<StmtId>,
    /// Total statements in the program.
    pub stmt_count: u32,
    /// Number of concrete executions performed.
    pub executions: usize,
    /// Number of distinct inputs generated (tests).
    pub tests_generated: usize,
    /// Statement ids of failed assertions, with the triggering inputs.
    pub bugs: Vec<(StmtId, Vec<String>)>,
    /// Per-query statistics (Table 8 source data).
    pub queries: Vec<QueryRecord>,
    /// Regex models served from the shared model cache.
    pub model_cache_hits: u64,
    /// Regex models built fresh.
    pub model_cache_misses: u64,
    /// Always `0`: the solver-level query cache is gone, and replayed
    /// work is counted by [`Report::verdict_replays`]. Kept for readers
    /// of the `strsolve.query_cache_hits` benchmark metric until that
    /// metric is dropped.
    pub query_cache_hits: u64,
    /// Concrete regex executions routed to the Pike-VM fast path
    /// (patterns `es6_matcher::select` found expressible as an NFA).
    pub matcher_fast_path: u64,
    /// Concrete regex executions that ran on the backtracking engine
    /// (backreferences and the other fallback shapes).
    pub matcher_fallback: u64,
}

impl Report {
    /// Statement coverage as a fraction in `[0, 1]`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.stmt_count == 0 {
            return 0.0;
        }
        self.coverage.len() as f64 / f64::from(self.stmt_count)
    }

    /// Model-cache hit rate in `[0, 1]` (`0` with no lookups).
    pub fn model_cache_hit_rate(&self) -> f64 {
        strsolve::CacheStats {
            hits: self.model_cache_hits,
            misses: self.model_cache_misses,
            ..strsolve::CacheStats::default()
        }
        .hit_rate()
    }

    /// Total search-tree nodes visited by the solver.
    pub fn solver_nodes(&self) -> u64 {
        self.queries.iter().map(|q| q.solver.nodes).sum()
    }

    /// Total DFA states the solver built before minimization.
    pub fn dfa_states_built(&self) -> u64 {
        self.queries.iter().map(|q| q.solver.dfa_states_built).sum()
    }

    /// Total DFA states remaining after the thresholded Hopcroft pass.
    pub fn states_after_minimize(&self) -> u64 {
        self.queries
            .iter()
            .map(|q| q.solver.states_after_minimize)
            .sum()
    }

    /// Total conjunctions refuted by the length-abstraction pass
    /// before any word search.
    pub fn length_prunes(&self) -> u64 {
        self.queries.iter().map(|q| q.solver.length_prunes).sum()
    }

    /// Total solver DFA-cache lookups served from resident entries
    /// (session-table reuse under a [`crate::caching::CacheSet`]).
    pub fn dfa_cache_hits(&self) -> u64 {
        self.queries.iter().map(|q| q.solver.dfa_cache_hits).sum()
    }

    /// Total wall-clock spent in solver queries.
    pub fn solver_time(&self) -> std::time::Duration {
        self.queries.iter().map(|q| q.duration).sum()
    }

    /// Total canonical prefix frames reused by incremental flip
    /// sessions instead of being re-canonicalized.
    pub fn prefix_reuse_hits(&self) -> u64 {
        self.queries
            .iter()
            .map(|q| q.solver.prefix_reuse_hits)
            .sum()
    }

    /// Total whole CEGAR refinement runs replayed from the shared
    /// verdict cache.
    pub fn verdict_replays(&self) -> u64 {
        self.queries.iter().map(|q| q.verdict_replays).sum()
    }

    /// Absorbs one flip query's record into the report.
    fn record_query(&mut self, record: QueryRecord) {
        self.model_cache_hits += record.model_cache_hits;
        self.model_cache_misses += record.model_cache_misses;
        self.queries.push(record);
    }
}

/// A queued test case.
#[derive(Debug, Clone)]
struct TestCase {
    inputs: Vec<String>,
}

/// Runs dynamic symbolic execution on a program.
///
/// # Examples
///
/// Finding the Listing 1 bug (§3.2): the engine discovers the input
/// `"<timeout></timeout>"` that makes the assertion fail.
///
/// ```
/// use expose_dse::{run_dse, EngineConfig, Harness, parser::parse_program};
///
/// let program = parse_program(r#"
///     function f(x) {
///         if (/^a+$/.test(x)) { return 1; }
///         return 0;
///     }
/// "#)?;
/// let report = run_dse(&program, &Harness::strings("f", 1), &EngineConfig::default());
/// assert!(report.coverage_fraction() > 0.9);
/// # Ok::<(), expose_dse::parser::ParseError>(())
/// ```
pub fn run_dse(program: &Program, harness: &Harness, config: &EngineConfig) -> Report {
    run_dse_with_caches(program, harness, config, &DseCaches::from_config(config))
}

/// [`run_dse`] with caller-provided caches, so several runs (e.g. the
/// jobs of a batch) share models and verdicts.
pub fn run_dse_with_caches(
    program: &Program,
    harness: &Harness,
    config: &EngineConfig,
    caches: &DseCaches,
) -> Report {
    run_dse_observed(program, harness, config, caches, &mut |_, _| {})
}

/// [`run_dse_with_caches`] with a trace observer: `observer(trace,
/// flips)` fires for every executed trace, right before its first
/// `flips` clauses are solved. The streaming service's script recorder
/// uses this to re-express a run as wire `push`/`solve` sequences; the
/// observer cannot influence the run, so the returned report is
/// byte-identical to an unobserved one.
pub fn run_dse_observed(
    program: &Program,
    harness: &Harness,
    config: &EngineConfig,
    caches: &DseCaches,
    observer: &mut dyn FnMut(&crate::sym::Trace, usize),
) -> Report {
    let mut report = Report {
        stmt_count: program.stmt_count,
        ..Report::default()
    };
    let solver = build_solver(config, caches);
    let flip_workers = resolve_workers(config.flip_workers);
    let interp_config = InterpConfig {
        support: config.support,
        max_steps: config.max_steps,
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Each regex literal compiles once per run, not once per call.
    let mut matchers = MatcherMemo::default();

    // CUPA buckets: fork point → queued cases, with access counts.
    let mut buckets: HashMap<StmtId, Vec<TestCase>> = HashMap::new();
    let mut accesses: HashMap<StmtId, usize> = HashMap::new();
    let mut seen_inputs: HashSet<Vec<String>> = HashSet::new();

    let seed_case = TestCase {
        inputs: vec![String::new(); harness.input_count()],
    };
    seen_inputs.insert(seed_case.inputs.clone());
    buckets.entry(0).or_default().push(seed_case);

    while report.executions < config.max_executions {
        // Pick the least-accessed non-empty bucket; ties break on the
        // bucket key so the choice never depends on map iteration
        // order (run-to-run determinism).
        let Some(&bucket_key) = buckets
            .iter()
            .filter(|(_, cases)| !cases.is_empty())
            .map(|(k, _)| k)
            .min_by_key(|&&k| (accesses.get(&k).copied().unwrap_or(0), k))
        else {
            break;
        };
        *accesses.entry(bucket_key).or_insert(0) += 1;
        let cases = buckets.get_mut(&bucket_key).expect("bucket exists");
        let idx = rng.random_range(0..cases.len());
        let case = cases.swap_remove(idx);

        // Concrete + symbolic execution.
        let trace = execute_with(
            program,
            harness,
            &case.inputs,
            &interp_config,
            &mut matchers,
        );
        report.executions += 1;
        report.coverage.extend(trace.coverage.iter().copied());
        report.matcher_fast_path += trace.matcher_fast_path;
        report.matcher_fallback += trace.matcher_fallback;
        for &failure in &trace.assertion_failures {
            if !report.bugs.iter().any(|(id, _)| *id == failure) {
                report.bugs.push((failure, case.inputs.clone()));
            }
        }

        if !config.support.models_regex() && trace.path.is_empty() {
            continue;
        }

        // Generational search: flip every clause of the trace. The
        // queue-growth budget is fixed *before* solving (at most `room`
        // flips can enqueue anything), so the set of solved flips — and
        // with it the report — does not depend on solve results
        // arriving in any particular order.
        let queued: usize = buckets.values().map(Vec::len).sum();
        let room = (config.max_executions * 4).saturating_sub(report.executions + queued);
        let flips = trace.path.len().min(config.max_flips_per_trace).min(room);
        observer(&trace, flips);
        let results = solve_trace_flips(&trace, flips, config, &solver, caches, flip_workers);

        // Deterministic post-processing in clause order.
        for (k, result) in results.into_iter().enumerate() {
            report.record_query(result.record);
            if let Some(mut inputs) = result.inputs {
                // Pad to the harness arity.
                while inputs.len() < harness.input_count() {
                    inputs.push(String::new());
                }
                if seen_inputs.insert(inputs.clone()) {
                    report.tests_generated += 1;
                    buckets
                        .entry(trace.path[k].branch_id)
                        .or_default()
                        .push(TestCase { inputs });
                }
            }
        }
    }
    report
}

/// Builds the solver a run (engine, exploration loop or streaming
/// session) queries through: the configured limits, plus the resident
/// DFA tables when the cache set carries them.
pub fn build_solver(config: &EngineConfig, caches: &DseCaches) -> Solver {
    let solver = Solver::new(config.solver.clone());
    match &caches.dfa {
        Some(tables) => solver.with_dfa_tables(tables),
        None => solver,
    }
}

/// Solves the first `flips` clause flips of a trace, returning results
/// indexed by clause. The flips share one [`TraceFlipSession`]: the
/// shared prefix is canonicalized once (serially), then each flip
/// solves against it as a retractable assumption, fanned out over
/// `workers` threads via [`fan_out_flips`]. Verdicts equal the
/// from-scratch [`crate::solve::solve_flip`] oracle's (see
/// `tests/incremental_differential.rs`).
pub(crate) fn solve_trace_flips(
    trace: &crate::sym::Trace,
    flips: usize,
    config: &EngineConfig,
    solver: &Solver,
    caches: &DseCaches,
    workers: usize,
) -> Vec<FlipResult> {
    let session = TraceFlipSession::build(
        trace,
        flips,
        config.support,
        solver,
        config.refinement_limit,
        &config.build,
        caches,
    );
    fan_out_flips(flips, workers, |k| session.solve(k))
}

/// Runs `one_flip` for every clause index, returning results in clause
/// order — concurrently over `workers` scoped threads when more than
/// one is requested, serially otherwise. Work is handed out through an
/// atomic cursor; results land in their clause slot, so the returned
/// order (and everything derived from it) is worker-count-independent.
fn fan_out_flips(
    flips: usize,
    workers: usize,
    one_flip: impl Fn(usize) -> FlipResult + Sync,
) -> Vec<FlipResult> {
    if workers <= 1 || flips <= 1 {
        return (0..flips).map(&one_flip).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<FlipResult>>> = Mutex::new((0..flips).map(|_| None).collect());
    thread::scope(|scope| {
        for _ in 0..workers.min(flips) {
            scope.spawn(|_| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= flips {
                    break;
                }
                let result = one_flip(k);
                slots.lock()[k] = Some(result);
            });
        }
    })
    .expect("flip worker panicked");
    slots
        .into_inner()
        .into_iter()
        .map(|slot| slot.expect("all flips solved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, harness: Harness, config: EngineConfig) -> Report {
        let program = parse_program(src).expect("parse");
        run_dse(&program, &harness, &config)
    }

    #[test]
    fn covers_both_branches_of_string_equality() {
        let report = run(
            r#"function f(x) {
                if (x === "magic") { return 1; } else { return 0; }
            }"#,
            Harness::strings("f", 1),
            EngineConfig {
                max_executions: 8,
                ..EngineConfig::default()
            },
        );
        assert!(report.coverage_fraction() > 0.99, "{report:?}");
        assert!(report.tests_generated >= 1);
    }

    #[test]
    fn covers_regex_guarded_code() {
        let report = run(
            r#"function f(x) {
                if (/^[0-9]+$/.test(x)) { return "digits"; }
                return "other";
            }"#,
            Harness::strings("f", 1),
            EngineConfig {
                max_executions: 8,
                ..EngineConfig::default()
            },
        );
        assert!(report.coverage_fraction() > 0.99, "{report:?}");
    }

    #[test]
    fn concrete_level_cannot_flip_regex() {
        let report = run(
            r#"function f(x) {
                if (/^zz+q$/.test(x)) { return 1; }
                return 0;
            }"#,
            Harness::strings("f", 1),
            EngineConfig {
                support: SupportLevel::Concrete,
                max_executions: 8,
                ..EngineConfig::default()
            },
        );
        // The then-branch is unreachable without regex modeling.
        assert!(report.coverage_fraction() < 1.0);
    }

    #[test]
    fn finds_listing1_bug() {
        // Listing 1 of the paper (§3.2), adapted to the mini language:
        // the assertion fails for "<timeout></timeout>" because the
        // Kleene star admits an empty numeric part.
        let src = r#"function f(args) {
            let timeout = "500";
            for (let i = 0; i < args.length; i = i + 1) {
                let arg = args[i];
                let parts = /^<(\w+)>([0-9]*)<\/\1>$/.exec(arg);
                if (parts) {
                    if (parts[1] === "timeout") {
                        timeout = parts[2];
                    }
                }
            }
            assert(/^[0-9]+$/.test(timeout) === true);
        }"#;
        let report = run(
            src,
            Harness::string_array("f", 1),
            EngineConfig {
                max_executions: 48,
                ..EngineConfig::default()
            },
        );
        assert!(
            !report.bugs.is_empty(),
            "the Listing 1 bug must be found: {report:?}"
        );
        // The triggering input must really break the assertion: a
        // <timeout> tag with an empty number.
        let (_, inputs) = &report.bugs[0];
        let mut oracle = es6_matcher::RegExp::new(r"^<(\w+)>([0-9]*)<\/\1>$", "").expect("regex");
        let m = oracle
            .exec(&inputs[0])
            .expect("bug input matches the regex");
        assert_eq!(m.group(1), Some("timeout"));
        assert_eq!(m.group(2), Some(""));
    }

    /// Everything except timing- and scheduling-dependent fields
    /// (durations, cache hit/miss splits under concurrency).
    fn comparable(r: &Report) -> impl PartialEq + std::fmt::Debug {
        (
            r.coverage.clone(),
            r.stmt_count,
            r.executions,
            r.tests_generated,
            r.bugs.clone(),
            r.queries
                .iter()
                .map(|q| {
                    (
                        q.modeled_regex,
                        q.had_captures,
                        q.refinements,
                        q.limit_hit,
                        q.sat,
                    )
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn report_identical_across_flip_worker_counts() {
        let src = r#"function f(x) {
            let m = /^<([a-z]+)>$/.exec(x);
            if (m) { if (m[1] === "timeout") { return 1; } return 2; }
            if (x === "plain") { return 3; }
            return 0;
        }"#;
        let base = EngineConfig {
            max_executions: 12,
            ..EngineConfig::default()
        };
        let serial = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                flip_workers: 1,
                ..base.clone()
            },
        );
        let parallel = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                flip_workers: 8,
                ..base.clone()
            },
        );
        let auto = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                flip_workers: 0,
                ..base
            },
        );
        assert_eq!(comparable(&serial), comparable(&parallel));
        assert_eq!(comparable(&serial), comparable(&auto));
    }

    #[test]
    fn caches_do_not_change_the_report() {
        let src = r#"function f(x) {
            if (/^[0-9]+$/.test(x)) { return "digits"; }
            if (/^[a-z]+$/.test(x)) { return "alpha"; }
            return "other";
        }"#;
        let cached = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                max_executions: 12,
                ..EngineConfig::default()
            },
        );
        let uncached = run(
            src,
            Harness::strings("f", 1),
            EngineConfig {
                max_executions: 12,
                model_cache_capacity: 0,
                query_cache_capacity: 0,
                ..EngineConfig::default()
            },
        );
        assert_eq!(comparable(&cached), comparable(&uncached));
        // The cached run must actually have exercised the caches.
        assert!(cached.model_cache_hits > 0, "{cached:?}");
        assert!(cached.verdict_replays() > 0, "{cached:?}");
        assert_eq!(uncached.model_cache_hits, 0);
        assert_eq!(uncached.verdict_replays(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let src = r#"function f(x) {
            if (x === "a") { return 1; }
            if (x === "b") { return 2; }
            return 0;
        }"#;
        let config = EngineConfig {
            max_executions: 8,
            ..EngineConfig::default()
        };
        let r1 = run(src, Harness::strings("f", 1), config.clone());
        let r2 = run(src, Harness::strings("f", 1), config);
        assert_eq!(r1.coverage, r2.coverage);
        assert_eq!(r1.tests_generated, r2.tests_generated);
    }
}
