//! The layer replay of the traced run. Below a flip the engine hides how
//! time splits between layers, so the traced run replays `dse-novel`'s
//! regexes through each layer's public entry point in turn and times
//! every call:
//!
//! `Regex::new` → `build_match_model` → wrapped-word-language DFA build
//! → `Solver::solve` → `CegarSolver::solve` → `RegExp::exec` on the
//! witness.
//!
//! A SAT verdict whose witness the concrete matcher does not match is a
//! wrong output.

use std::sync::Arc;
use std::time::Instant;

use automata::{Alphabet, AutomataConfig, BuildMetrics, Dfa};
use es6_matcher::RegExp;
use expose_core::api::build_match_model;
use expose_core::cegar::CegarSolver;
use expose_core::classical::try_wrapped_word_language;
use expose_core::model::BuildConfig;
use regex_syntax_es6::{Flags, Regex};
use strsolve::{DfaTables, Formula, Solver, SolverConfig, VarPool};

use crate::gen::NovelRegex;
use crate::trace::Tracer;

/// Largest wrapped-word DFA the replay builds; bigger constructions are
/// abandoned (and counted) instead of stalling the run.
const MAX_DFA_STATES: usize = 50_000;

/// Totals of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Regexes replayed.
    pub regexes: u64,
    /// Regexes whose wrapped word language is classical (DFA built).
    pub dfas: u64,
    /// DFA constructions abandoned at [`MAX_DFA_STATES`].
    pub dfa_overflows: u64,
    /// SAT witnesses executed on the concrete matcher.
    pub execs: u64,
    /// Summed call times, ns.
    pub parse_ns: u64,
    /// `build_match_model`.
    pub model_ns: u64,
    /// DFA construction.
    pub dfa_ns: u64,
    /// `Solver::solve`.
    pub solve_ns: u64,
    /// `CegarSolver::solve`.
    pub cegar_ns: u64,
    /// `RegExp::exec`.
    pub exec_ns: u64,
    /// Wrong outputs: unparsable regexes or SAT witnesses the matcher
    /// rejects.
    pub failures: u64,
}

fn ns(start: Instant, end: Instant) -> u64 {
    (end - start).as_nanos() as u64
}

/// Replays `regexes` in order until `deadline`, recording one
/// `replay.regex` span per regex with a child span per layer call.
pub fn replay(regexes: &[NovelRegex], deadline: Instant, tracer: &mut Tracer) -> Replay {
    let mut totals = Replay::default();
    let tables = DfaTables::new(SolverConfig::default().dfa_cache_capacity);
    let solver = Solver::new(SolverConfig::fast()).with_dfa_tables(&tables);
    let cegar = CegarSolver::new(solver.clone(), 20);
    let automata_config = AutomataConfig::default();
    for (job, r) in regexes.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let job = job as u64;
        totals.regexes += 1;
        let mut calls: Vec<(&'static str, Instant, Instant)> = Vec::with_capacity(6);
        let began = Instant::now();

        let t = Instant::now();
        let parsed = r
            .flags
            .parse::<Flags>()
            .and_then(|flags| Regex::new(&r.pattern, flags));
        calls.push(("regex-syntax-es6.parse", t, Instant::now()));
        let Ok(regex) = parsed else {
            totals.failures += 1;
            eprintln!(
                "perfbench: replay: /{}/{} does not parse",
                r.pattern, r.flags
            );
            continue;
        };

        let t = Instant::now();
        let mut pool = VarPool::new();
        let constraint = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
        calls.push(("core.model.build", t, Instant::now()));

        let t = Instant::now();
        if let Some(language) = try_wrapped_word_language(&regex.ast, regex.flags) {
            let mut sets = Vec::new();
            language.collect_sets(&mut sets);
            let alphabet = Arc::new(Alphabet::from_sets(&sets));
            let mut metrics = BuildMetrics::default();
            let built = Dfa::try_from_cregex_with(
                &language,
                &alphabet,
                &automata_config,
                &mut metrics,
                MAX_DFA_STATES,
            );
            totals.dfas += 1;
            totals.dfa_overflows += u64::from(built.is_none());
            calls.push(("automata.dfa_build", t, Instant::now()));
        }

        let t = Instant::now();
        let (outcome, _) = solver.solve(&constraint.formula);
        calls.push(("strsolve.solve", t, Instant::now()));
        std::hint::black_box(outcome);

        let t = Instant::now();
        let result = cegar.solve(&Formula::top(), std::slice::from_ref(&constraint));
        calls.push(("core.cegar.solve", t, Instant::now()));

        if let Some(model) = result.outcome.model() {
            let witness = model.get_str(constraint.input).unwrap_or("").to_string();
            // The model decides `exec` from index 0, as the CEGAR oracle
            // does: `g` and `y` only move the start index.
            let mut oracle = regex.clone();
            oracle.flags.global = false;
            oracle.flags.sticky = false;
            let t = Instant::now();
            let matched = RegExp::from_regex(oracle).exec(&witness).is_some();
            calls.push(("matcher.exec", t, Instant::now()));
            totals.execs += 1;
            if !matched {
                totals.failures += 1;
                eprintln!(
                    "perfbench: replay: SAT witness {witness:?} does not match /{}/{}",
                    r.pattern, r.flags
                );
            }
        }

        let parent = tracer.span("replay.regex", None, job, began, Instant::now());
        for (name, start, end) in calls {
            tracer.span(name, Some(parent), job, start, end);
            let spent = ns(start, end);
            match name {
                "regex-syntax-es6.parse" => totals.parse_ns += spent,
                "core.model.build" => totals.model_ns += spent,
                "automata.dfa_build" => totals.dfa_ns += spent,
                "strsolve.solve" => totals.solve_ns += spent,
                "core.cegar.solve" => totals.cegar_ns += spent,
                _ => totals.exec_ns += spent,
            }
        }
        tracer.finish_job();
    }
    totals
}
