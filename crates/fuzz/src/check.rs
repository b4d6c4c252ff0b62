//! The cross-layer differential checks: one [`Case`] is pushed through
//! four independent implementations of ES6 regex semantics and every
//! pair that overlaps is compared.
//!
//! | layer | implementation | role |
//! |---|---|---|
//! | oracle | `es6-matcher` (budgeted) | ground truth |
//! | automata | wrapped-word-language DFA | classical fragment |
//! | construction | `automata::oracle` reference builders | the flat builders' outputs |
//! | solver | `strsolve` on the Algorithm 2 model | verdict + model |
//! | CEGAR | `expose-core` Algorithm 1 | precedence-correct captures |
//!
//! Disagreements are *one-sided sound*: every reported mismatch is a
//! genuine bug in some layer (the oracle step budget turns blowups into
//! skips, never into verdicts, and Unsat cross-checks only fire when a
//! concrete counterexample word was found).

use std::hash::Hasher;
use std::sync::Arc;

use automata::{oracle, Alphabet, AutomataConfig, BuildMetrics, CRegex, CharSet, Dfa, FxHasher};
use es6_matcher::{MatchResult, RegExp};
use expose_core::api::{build_match_model, CapturingConstraint};
use expose_core::cegar::{CegarCache, CegarResult};
use expose_core::classical::try_wrapped_word_language;
use expose_core::meta::{line_terminators, wrap_input, INPUT_END, INPUT_START};
use expose_core::model::BuildConfig;
use expose_core::{CegarSolver, SupportLevel};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use regex_syntax_es6::ast::Ast;
use regex_syntax_es6::features::FeatureSet;
use regex_syntax_es6::Regex;
use strsolve::{Formula, Outcome, SolveSession, Solver, SolverConfig, VarPool};

use crate::case::{Case, Query};

/// Resource budget for one case (and for the run as a whole).
#[derive(Debug, Clone)]
pub struct FuzzBudget {
    /// Backtracking-step budget per oracle call; exhaustion is a skip,
    /// never a verdict.
    pub step_limit: u64,
    /// Words sampled per case for the matcher-vs-DFA comparison.
    pub sample_words: usize,
    /// Maximum word length for bounded Unsat cross-check enumeration.
    pub enum_len: usize,
    /// Maximum alphabet size for that enumeration.
    pub enum_alphabet: usize,
    /// String-solver limits.
    pub solver: SolverConfig,
    /// CEGAR refinement limit.
    pub refinement_limit: usize,
    /// Maximum shrink iterations (delta-debugging rounds).
    pub shrink_steps: usize,
    /// Structural size cap on the overapproximation guide regex; above
    /// it the solver/CEGAR layers are skipped (determinization cost
    /// grows past interactive budgets).
    pub max_guide_size: usize,
    /// Subset-construction state cap for the matcher-vs-DFA layer;
    /// instances exceeding it skip that layer.
    pub max_dfa_states: usize,
    /// When set (`fuzz --incremental`), every case additionally
    /// cross-checks the assumption-stack session and the incremental
    /// CEGAR entry point against the from-scratch solves, including the
    /// verdict-cache replay path.
    pub incremental_check: bool,
}

impl FuzzBudget {
    /// The PR-CI budget: decides thousands of cases in seconds.
    pub fn quick() -> FuzzBudget {
        FuzzBudget {
            step_limit: 100_000,
            sample_words: 6,
            enum_len: 4,
            enum_alphabet: 3,
            solver: SolverConfig::fast(),
            refinement_limit: 5,
            shrink_steps: 300,
            max_guide_size: 160,
            max_dfa_states: 20_000,
            incremental_check: false,
        }
    }

    /// The nightly budget: deeper enumeration, full solver limits.
    pub fn full() -> FuzzBudget {
        FuzzBudget {
            step_limit: 1_000_000,
            sample_words: 12,
            enum_len: 5,
            enum_alphabet: 4,
            solver: SolverConfig::default(),
            refinement_limit: 10,
            shrink_steps: 600,
            max_guide_size: 400,
            max_dfa_states: 100_000,
            incremental_check: false,
        }
    }
}

/// Which cross-layer comparison failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The pattern failed to parse, or printing and re-parsing changed
    /// the AST.
    Parser,
    /// Pike-VM fast path vs. the backtracking oracle: match presence,
    /// leftmost extent, or capture slots diverged (or the VM blew its
    /// linear step bound).
    EngineVsEngine,
    /// The flat minterm and DFA builders vs. the reference builders of
    /// `automata::oracle`: an alphabet, automaton, distance table or
    /// build count differs.
    Construction,
    /// Concrete matcher vs. word-language DFA membership.
    MatcherVsDfa,
    /// A `Sat` model does not satisfy its own formula (model
    /// unsoundness in `strsolve`).
    SolverModel,
    /// A solver verdict contradicts the concrete oracle.
    SolverVsOracle,
    /// A CEGAR `Sat` disagrees with the oracle (word polarity, capture
    /// values, or the query itself).
    CegarModel,
    /// A CEGAR `Unsat` refuted by a concrete witness word.
    CegarUnsat,
    /// An incremental (assumption-stack / verdict-replay) solve
    /// diverged from its from-scratch counterpart (`--incremental`).
    Incremental,
}

impl Layer {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parser => "parser",
            Layer::EngineVsEngine => "engine-vs-engine",
            Layer::Construction => "construction",
            Layer::MatcherVsDfa => "matcher-vs-dfa",
            Layer::SolverModel => "solver-model",
            Layer::SolverVsOracle => "solver-vs-oracle",
            Layer::CegarModel => "cegar-model",
            Layer::CegarUnsat => "cegar-unsat",
            Layer::Incremental => "incremental",
        }
    }
}

/// A cross-layer disagreement: the failed comparison plus enough detail
/// to understand the repro without re-running it.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// The comparison that failed.
    pub layer: Layer,
    /// Human-readable specifics (witness word, verdicts, ...).
    pub detail: String,
}

/// Everything observed while checking one case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Feature classification of the regex (Table 5 buckets), when it
    /// parsed.
    pub features: Option<FeatureSet>,
    /// Support level required by the regex, when it parsed.
    pub support: Option<SupportLevel>,
    /// Plain-solver verdict on the model ∧ query formula.
    pub solver_verdict: &'static str,
    /// CEGAR verdict on the same problem.
    pub cegar_verdict: &'static str,
    /// Oracle calls abandoned on the step budget.
    pub oracle_skips: u64,
    /// Words compared in the matcher-vs-DFA layer.
    pub dfa_words_checked: u64,
    /// Matcher-vs-DFA layers abandoned on the subset-construction state
    /// cap (the engine-vs-engine layer still covers those cases).
    pub dfa_skips: u64,
    /// Engine routing for the case's pattern: `Some(true)` = Pike-VM
    /// fast path, `Some(false)` = backtracking fallback, `None` =
    /// unparsed.
    pub engine_fast: Option<bool>,
    /// Words compared in the engine-vs-engine layer.
    pub engine_words_checked: u64,
    /// Incremental-vs-scratch comparisons performed (`--incremental`).
    pub incremental_checks: u64,
    /// Search nodes of the plain solve plus every CEGAR iteration.
    pub solver_nodes: u64,
    /// An Fx fold of the plain-solver and CEGAR verdicts, models and
    /// node counts (`0` when the solver layers did not run): equal
    /// folds mean the search found the same answers the same way.
    pub search_fold: u64,
    /// The first disagreement found, if any.
    pub disagreement: Option<Disagreement>,
}

impl CaseOutcome {
    fn empty() -> CaseOutcome {
        CaseOutcome {
            features: None,
            support: None,
            solver_verdict: "skipped",
            cegar_verdict: "skipped",
            oracle_skips: 0,
            dfa_words_checked: 0,
            dfa_skips: 0,
            engine_fast: None,
            engine_words_checked: 0,
            incremental_checks: 0,
            solver_nodes: 0,
            search_fold: 0,
            disagreement: None,
        }
    }
}

/// Folds a verdict, its model (string values in variable order, then
/// every boolean the pool allocated) and a node count into `hasher`.
fn fold_search(hasher: &mut FxHasher, pool: &VarPool, outcome: &Outcome, nodes: u64) {
    hasher.write(outcome.label().as_bytes());
    if let Outcome::Sat(model) = outcome {
        let mut strings: Vec<_> = model.iter_strings().collect();
        strings.sort_unstable();
        hasher.write_usize(strings.len());
        for (v, value) in strings {
            hasher.write_u32(v.index());
            hasher.write(value.as_bytes());
            hasher.write_u8(0xff);
        }
        let mut ids = VarPool::new();
        for _ in 0..pool.bool_count() {
            hasher.write_u8(match model.try_get_bool(ids.fresh_bool()) {
                None => 2,
                Some(value) => u8::from(value),
            });
        }
    }
    hasher.write_u64(nodes);
}

/// The oracle regex: stateful flags cleared, exactly as the CEGAR loop
/// consults it (Algorithm 2 applies `lastIndex` slicing before
/// modeling).
fn oracle_regex(regex: &Regex) -> Regex {
    let mut r = regex.clone();
    r.flags.global = false;
    r.flags.sticky = false;
    r
}

/// A budgeted oracle call; `Err(())` means the step budget ran out.
#[allow(clippy::result_unit_err)]
pub fn oracle_exec(
    regex: &Regex,
    word: &str,
    budget: &FuzzBudget,
) -> Result<Option<MatchResult>, ()> {
    let mut oracle = RegExp::from_regex(oracle_regex(regex));
    oracle
        .exec_within(word, Some(budget.step_limit))
        .map_err(|_| ())
}

/// Characters for sampling and bounded enumeration: drawn from the
/// pattern itself (so words have a chance to match) plus the query
/// word, deduplicated, meta-characters excluded, capped.
fn case_alphabet(ast: &Ast, query: &Query, cap: usize) -> Vec<char> {
    // Query-word characters come FIRST: the bounded enumeration exists
    // to reconstruct a concrete witness for the posed query, so
    // truncation must never evict the pinned word's alphabet in favour
    // of pattern characters that happen to sort earlier.
    let mut chars = Vec::new();
    if let Query::PinInput { word, .. }
    | Query::NeInput { word, .. }
    | Query::CaptureEq { word, .. } = query
    {
        chars.extend(word.chars());
    }
    collect_chars(ast, &mut chars);
    chars.retain(|&c| c != INPUT_START && c != INPUT_END);
    // First-occurrence dedup preserves the priority order.
    let mut seen = Vec::new();
    for c in chars {
        if !seen.contains(&c) {
            seen.push(c);
        }
    }
    seen.truncate(cap.max(1));
    if seen.is_empty() {
        seen.push('a');
    }
    // Canonical enumeration order within the retained set.
    seen.sort_unstable();
    seen
}

fn collect_chars(ast: &Ast, out: &mut Vec<char>) {
    match ast {
        Ast::Literal(c) => out.push(*c),
        Ast::Class(set) => {
            for item in &set.items {
                match item {
                    regex_syntax_es6::class::ClassItem::Single(c) => out.push(*c),
                    regex_syntax_es6::class::ClassItem::Range(lo, hi) => {
                        out.push(*lo);
                        out.push(*hi);
                    }
                    regex_syntax_es6::class::ClassItem::Perl(p) => {
                        // One representative per predefined class.
                        out.push(match p.kind {
                            regex_syntax_es6::class::PerlKind::Digit => '7',
                            regex_syntax_es6::class::PerlKind::Word => 'w',
                            regex_syntax_es6::class::PerlKind::Space => ' ',
                        });
                    }
                }
            }
        }
        Ast::Group { ast, .. } | Ast::NonCapturing(ast) | Ast::Lookahead { ast, .. } => {
            collect_chars(ast, out)
        }
        Ast::Repeat { ast, .. } => collect_chars(ast, out),
        Ast::Alt(items) | Ast::Concat(items) => {
            for item in items {
                collect_chars(item, out);
            }
        }
        _ => {}
    }
}

/// All words over `alphabet` of length ≤ `max_len`, shortest first —
/// the bounded enumeration behind the Unsat cross-checks.
fn words_up_to(alphabet: &[char], max_len: usize) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut frontier = vec![String::new()];
    for _ in 0..max_len {
        let mut next = Vec::with_capacity(frontier.len() * alphabet.len());
        for w in &frontier {
            for &c in alphabet {
                let mut extended = w.clone();
                extended.push(c);
                next.push(extended);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// The query's extra conjunct over the constraint's variables, or
/// `None` when the query references a capture the regex does not have
/// (shrinking can remove groups) — treated as `Top`.
fn query_formula(query: &Query, constraint: &CapturingConstraint) -> Option<Formula> {
    match query {
        Query::Top { .. } => Some(Formula::top()),
        Query::PinInput { word, .. } => Some(Formula::eq_lit(constraint.input, word.clone())),
        Query::NeInput { word, .. } => Some(Formula::ne_lit(constraint.input, word.clone())),
        Query::CaptureDefined { index, value } => {
            let cap = constraint.captures.get(*index)?;
            Some(Formula::bool_is(cap.defined, *value))
        }
        Query::CaptureEq { index, word } => {
            let cap = constraint.captures.get(*index)?;
            Some(Formula::and(vec![
                Formula::bool_is(cap.defined, true),
                Formula::eq_lit(cap.value, word.clone()),
            ]))
        }
    }
}

/// Does `word` concretely satisfy polarity + query, per the oracle?
/// `None` = the oracle ran out of budget (no verdict).
fn concretely_satisfies(
    regex: &Regex,
    query: &Query,
    word: &str,
    budget: &FuzzBudget,
) -> Option<bool> {
    let result = oracle_exec(regex, word, budget).ok()?;
    let positive = query.positive();
    if result.is_some() != positive {
        return Some(false);
    }
    Some(match query {
        Query::Top { .. } => true,
        Query::PinInput { word: pinned, .. } => word == pinned,
        Query::NeInput { word: banned, .. } => word != banned,
        Query::CaptureDefined { index, value } => {
            let result = result.expect("positive polarity checked above");
            result
                .captures
                .get(*index)
                .is_some_and(|c| c.is_some() == *value)
        }
        Query::CaptureEq { index, word: want } => {
            let result = result.expect("positive polarity checked above");
            result.captures.get(*index).cloned().flatten().as_deref() == Some(want.as_str())
        }
    })
}

/// Runs every cross-layer comparison for one case.
pub fn run_case(case: &Case, budget: &FuzzBudget) -> CaseOutcome {
    let mut outcome = CaseOutcome::empty();

    // Layer 0: the parser, plus the printer/parser round-trip.
    let regex = match case.regex() {
        Ok(regex) => regex,
        Err(e) => {
            outcome.disagreement = Some(Disagreement {
                layer: Layer::Parser,
                detail: format!("pattern does not parse: {e}"),
            });
            return outcome;
        }
    };
    let rendered = regex.ast.to_source();
    match regex_syntax_es6::parse(&rendered) {
        Ok(reparsed) if reparsed == regex.ast => {}
        Ok(_) => {
            outcome.disagreement = Some(Disagreement {
                layer: Layer::Parser,
                detail: format!("round-trip changed the AST (rendered {rendered:?})"),
            });
            return outcome;
        }
        Err(e) => {
            outcome.disagreement = Some(Disagreement {
                layer: Layer::Parser,
                detail: format!("rendered source {rendered:?} does not re-parse: {e}"),
            });
            return outcome;
        }
    }
    outcome.features = Some(FeatureSet::of(&regex));
    outcome.support = Some(SupportLevel::required_for(&regex));

    let mut rng = StdRng::seed_from_u64(case.seed ^ 0xf022_5eed_c0de_55aa);
    let alphabet = case_alphabet(&regex.ast, &case.query, budget.enum_alphabet);

    // Layer 1a: the two concrete match engines against each other.
    // Unlike the DFA layer this has no classical-fragment or state-cap
    // restriction — in particular the pathological `Σ*·body·Σ*` shapes
    // the DFA layer abandons are decided here by the Pike VM.
    if let Some(disagreement) = check_engine_vs_engine(
        &regex,
        &case.query,
        &alphabet,
        budget,
        &mut rng,
        &mut outcome,
    ) {
        outcome.disagreement = Some(disagreement);
        return outcome;
    }

    // Layer 1b: concrete matcher vs. word-language DFA on the classical
    // fragment.
    if let Some(disagreement) =
        check_matcher_vs_dfa(&regex, &alphabet, budget, &mut rng, &mut outcome)
    {
        outcome.disagreement = Some(disagreement);
        return outcome;
    }

    // Layers 2–3: the Algorithm 2 model through the plain solver and
    // through the CEGAR loop. Patterns whose overapproximation guide
    // explodes structurally (nested quantified backreferences expand
    // recursively) would spend seconds in determinization for a single
    // case — skip the solver layers there and say so in the stats
    // (`solver_verdict == "skipped"`), rather than silently stalling
    // the whole run.
    let guide = expose_core::classical::overapprox_word_regex(&regex.ast, regex.flags);
    if cregex_size(&guide) > budget.max_guide_size {
        return outcome;
    }
    let mut pool = VarPool::new();
    let constraint = build_match_model(
        &regex,
        case.query.positive(),
        &mut pool,
        &BuildConfig::default(),
    );
    // Out-of-range capture indices (shrinking can remove groups)
    // degrade to `Top` on both the formula and the concrete side.
    let (query, effective_query) = match query_formula(&case.query, &constraint) {
        Some(f) => (f, case.query.clone()),
        None => (
            Formula::top(),
            Query::Top {
                positive: case.query.positive(),
            },
        ),
    };

    // One solver for both layers: the clone handed to CEGAR shares the
    // Arc'd compiled-DFA cache, so the duplicated iteration-0 problem
    // never determinizes the same languages twice.
    let solver = Solver::new(budget.solver.clone());
    let problem = Formula::and(vec![constraint.formula.clone(), query.clone()]);
    let (solver_outcome, solver_stats) = solver.solve(&problem);
    outcome.solver_verdict = solver_outcome.label();
    let mut search = FxHasher::default();
    fold_search(&mut search, &pool, &solver_outcome, solver_stats.nodes);
    outcome.solver_nodes = solver_stats.nodes;
    outcome.search_fold = search.finish();
    if let Some(disagreement) = check_solver(
        &regex,
        &constraint,
        &effective_query,
        &problem,
        &solver_outcome,
        &alphabet,
        budget,
        &mut outcome,
    ) {
        outcome.disagreement = Some(disagreement);
        return outcome;
    }

    let cegar = CegarSolver::new(solver.clone(), budget.refinement_limit);
    let result = cegar.solve(&query, std::slice::from_ref(&constraint));
    outcome.cegar_verdict = result.outcome.label();
    fold_search(
        &mut search,
        &pool,
        &result.outcome,
        result.stats.solver.nodes,
    );
    outcome.solver_nodes += result.stats.solver.nodes;
    outcome.search_fold = search.finish();
    if let Some(disagreement) = check_cegar(
        &regex,
        &constraint,
        &effective_query,
        &result.outcome,
        &alphabet,
        budget,
        &mut outcome,
    ) {
        outcome.disagreement = Some(disagreement);
    }

    // Layer 4 (`--incremental` only): the assumption-stack paths must
    // reproduce the two scratch solves above byte-for-byte.
    if budget.incremental_check && outcome.disagreement.is_none() {
        let incremental = check_incremental(
            &solver,
            &constraint,
            &query,
            &solver_outcome,
            &cegar,
            &result,
            &mut outcome,
        );
        outcome.disagreement = incremental;
    }
    outcome
}

/// The `--incremental` cross-check: re-solves this case's problem
/// through the assumption-stack session (the split `run_dse` uses for
/// a flip: shared prefix frame + per-flip assumption) and through
/// [`CegarSolver::solve_incremental`], and demands byte-identical
/// outcomes — including models and refinement trails — against the
/// from-scratch solves already computed. The CEGAR leg runs twice
/// through a fresh [`CegarCache`] so the second call exercises the
/// whole-run verdict-replay path.
fn check_incremental(
    solver: &Solver,
    constraint: &CapturingConstraint,
    query: &Formula,
    solver_outcome: &Outcome,
    cegar: &CegarSolver,
    scratch: &CegarResult,
    outcome: &mut CaseOutcome,
) -> Option<Disagreement> {
    // Plain solver: prefix frame = the constraint model, assumption =
    // the query conjunct (scratch solved `model ∧ query`).
    let mut session = SolveSession::new(solver.clone());
    session.push(vec![constraint.formula.clone()]);
    let (got, stats) = session.solve_at(1, std::slice::from_ref(query));
    outcome.incremental_checks += 1;
    if &got != solver_outcome {
        return Some(Disagreement {
            layer: Layer::Incremental,
            detail: format!(
                "session solve said {} but scratch said {}",
                got.label(),
                solver_outcome.label()
            ),
        });
    }
    if stats.prefix_reuse_hits != 1 {
        return Some(Disagreement {
            layer: Layer::Incremental,
            detail: format!(
                "session solve reused {} prefix frames, expected 1",
                stats.prefix_reuse_hits
            ),
        });
    }

    // CEGAR: the query is the shared frame, the constraint model the
    // assumption (scratch conjoined them in that order). Two passes
    // over one fresh verdict cache: the first stores the finished run,
    // the second must replay it wholesale.
    let mut session = SolveSession::new(solver.clone());
    session.push(vec![query.clone()]);
    let verdicts = CegarCache::new(8);
    for (pass, expect_replay) in [("store", false), ("replay", true)] {
        let got = cegar.solve_incremental(
            &session,
            1,
            &[],
            std::slice::from_ref(constraint),
            Some(&verdicts),
        );
        outcome.incremental_checks += 1;
        if got.outcome != scratch.outcome
            || got.stats.refinements != scratch.stats.refinements
            || got.stats.limit_hit != scratch.stats.limit_hit
        {
            return Some(Disagreement {
                layer: Layer::Incremental,
                detail: format!(
                    "incremental CEGAR ({pass} pass) said {} after {} refinement(s) \
                     (limit_hit {}) but scratch said {} after {} (limit_hit {})",
                    got.outcome.label(),
                    got.stats.refinements,
                    got.stats.limit_hit,
                    scratch.outcome.label(),
                    scratch.stats.refinements,
                    scratch.stats.limit_hit
                ),
            });
        }
        if got.stats.replayed != expect_replay {
            return Some(Disagreement {
                layer: Layer::Incremental,
                detail: format!(
                    "incremental CEGAR {pass} pass: replayed={}, expected {expect_replay}",
                    got.stats.replayed
                ),
            });
        }
    }
    None
}

/// Structural node count of a classical regex (the determinization-cost
/// proxy behind [`FuzzBudget::max_guide_size`]).
fn cregex_size(re: &automata::CRegex) -> usize {
    use automata::CRegex as C;
    match re {
        C::EmptySet | C::Epsilon | C::Set(_) => 1,
        C::Concat(items) | C::Alt(items) | C::And(items) => {
            1 + items.iter().map(cregex_size).sum::<usize>()
        }
        C::Star(inner) | C::Not(inner) => 1 + cregex_size(inner),
    }
}

/// One random accepted word: walk live transitions uniformly, steering
/// home along the distance-to-accept gradient once `max_len` nears.
/// Deterministic in the RNG.
fn sample_accepted_word(dfa: &Dfa, rng: &mut StdRng, max_len: usize) -> Option<String> {
    let mut state = dfa.start_state();
    dfa.distance_to_accept(state)?;
    let mut word = Vec::new();
    loop {
        let remaining = dfa.distance_to_accept(state)? as usize;
        if remaining == 0 && (word.len() >= max_len || rng.random_bool(0.35)) {
            return Some(dfa.alphabet().realize(&word));
        }
        let classes = 0..dfa.alphabet().class_count() as automata::ClassId;
        if word.len() + remaining >= max_len {
            // Out of slack: follow the gradient straight to acceptance.
            if remaining == 0 {
                return Some(dfa.alphabet().realize(&word));
            }
            let class = classes.clone().find(|&c| {
                dfa.distance_to_accept(dfa.step(state, c)) == Some(remaining as u32 - 1)
            })?;
            word.push(class);
            state = dfa.step(state, class);
            continue;
        }
        // Free exploration among live successors.
        let live: Vec<automata::ClassId> = classes
            .filter(|&c| dfa.distance_to_accept(dfa.step(state, c)).is_some())
            .collect();
        let class = *live.choose(rng)?;
        word.push(class);
        state = dfa.step(state, class);
    }
}

/// The engine-vs-engine differential layer: for patterns the
/// [`es6_matcher::select`] analysis routes to the Pike VM, runs the
/// unanchored search through both engines on sampled words and demands
/// byte-identical results — match presence, leftmost extent, and every
/// capture slot.
///
/// The backtracker runs under the usual step budget (exhaustion is a
/// skip); the VM runs under a bound comfortably above its `O(n·m)`
/// worst case, so a VM exhaustion is itself a finding (a superlinear
/// fast path), not a skip.
fn check_engine_vs_engine(
    regex: &Regex,
    query: &Query,
    alphabet: &[char],
    budget: &FuzzBudget,
    rng: &mut StdRng,
    outcome: &mut CaseOutcome,
) -> Option<Disagreement> {
    let oracle = oracle_regex(regex);
    let prog = match es6_matcher::compile(&oracle.ast, oracle.flags) {
        Ok(prog) => prog,
        Err(_) => {
            outcome.engine_fast = Some(false);
            return None;
        }
    };
    outcome.engine_fast = Some(true);
    let vm = es6_matcher::PikeVm::new(&prog);
    let bt = es6_matcher::Engine::new(&oracle.ast, oracle.flags);

    let mut words: Vec<String> = Vec::new();
    if let Query::PinInput { word, .. }
    | Query::NeInput { word, .. }
    | Query::CaptureEq { word, .. } = query
    {
        words.push(word.clone());
    }
    for _ in 0..budget.sample_words * 2 {
        let len = rng.random_range(0usize..=budget.enum_len + 2);
        words.push(
            (0..len)
                .map(|_| *alphabet.choose(rng).expect("non-empty alphabet"))
                .collect(),
        );
    }
    words.sort();
    words.dedup();

    for word in &words {
        let chars: Vec<char> = word.chars().collect();
        // Linear bound witness: instruction visits per position are at
        // most the program length, each charged once, plus the memoized
        // lookahead sub-runs (same bound per segment). The factor-8
        // slack keeps the bound robust without admitting blowups.
        let vm_bound = (chars.len() as u64 + 2)
            * (prog.code.len() as u64 + 1)
            * (prog.looks.len() as u64 + 1)
            * 8;
        let expected = match bt.search_within(&chars, 0, budget.step_limit) {
            Ok(m) => m,
            Err(_) => {
                outcome.oracle_skips += 1;
                continue;
            }
        };
        let got = match vm.search_within(&chars, 0, vm_bound) {
            Ok(m) => m,
            Err(_) => {
                return Some(Disagreement {
                    layer: Layer::EngineVsEngine,
                    detail: format!(
                        "Pike VM exceeded its linear step bound ({vm_bound}) on {word:?}"
                    ),
                });
            }
        };
        outcome.engine_words_checked += 1;
        if got != expected {
            return Some(Disagreement {
                layer: Layer::EngineVsEngine,
                detail: format!("word {word:?}: backtracker {expected:?} vs Pike VM {got:?}"),
            });
        }
    }
    None
}

/// The flat builders against the reference builders on one case: both
/// alphabets (the language's own over `sets[..own_sets]`, the case's
/// over all of `sets`), the bounded pipeline over each, and the minimization of
/// each result must agree byte for byte, build counts included.
fn check_construction(
    lang: &CRegex,
    sets: &[CharSet],
    own_sets: usize,
    own_alphabet: &Arc<Alphabet>,
    dfa_alphabet: &Arc<Alphabet>,
    budget: &FuzzBudget,
) -> Option<Disagreement> {
    let disagreement = |what: &str| {
        Some(Disagreement {
            layer: Layer::Construction,
            detail: format!("{what} differs from the reference builder's"),
        })
    };
    if **own_alphabet != oracle::alphabet_from_sets(&sets[..own_sets]) {
        return disagreement("the own-alphabet partition");
    }
    if **dfa_alphabet != oracle::alphabet_from_sets(sets) {
        return disagreement("the case-alphabet partition");
    }
    let config = AutomataConfig::default();
    for alphabet in [own_alphabet, dfa_alphabet] {
        let (mut flat_metrics, mut oracle_metrics) =
            (BuildMetrics::default(), BuildMetrics::default());
        let flat = Dfa::try_from_cregex_with(
            lang,
            alphabet,
            &config,
            &mut flat_metrics,
            budget.max_dfa_states,
        );
        let reference = oracle::try_from_cregex_with(
            lang,
            alphabet,
            &config,
            &mut oracle_metrics,
            budget.max_dfa_states,
        );
        match (flat, reference) {
            (None, None) => {}
            (Some(flat), Some(reference)) => {
                if flat.canonical_key() != reference.canonical_key()
                    || distances(&flat) != distances(&reference)
                    || flat_metrics != oracle_metrics
                {
                    return disagreement("a bounded DFA build");
                }
                let (minimal, reference) = (flat.minimized(), oracle::minimized(&reference));
                if minimal.canonical_key() != reference.canonical_key()
                    || distances(&minimal) != distances(&reference)
                {
                    return disagreement("a minimized DFA");
                }
            }
            _ => return disagreement("the state cap's verdict"),
        }
    }
    None
}

fn distances(dfa: &Dfa) -> Vec<Option<u32>> {
    (0..dfa.state_count() as u32)
        .map(|s| dfa.distance_to_accept(s))
        .collect()
}

fn check_matcher_vs_dfa(
    regex: &Regex,
    alphabet: &[char],
    budget: &FuzzBudget,
    rng: &mut StdRng,
    outcome: &mut CaseOutcome,
) -> Option<Disagreement> {
    let lang = try_wrapped_word_language(&regex.ast, regex.flags)?;
    let mut sets = Vec::new();
    lang.collect_sets(&mut sets);
    let own_alphabet = Arc::new(Alphabet::from_sets(&sets));
    let own_sets = sets.len();
    for &c in alphabet {
        sets.push(automata::CharSet::single(c));
    }
    let dfa_alphabet = Arc::new(Alphabet::from_sets(&sets));
    if let Some(disagreement) =
        check_construction(&lang, &sets, own_sets, &own_alphabet, &dfa_alphabet, budget)
    {
        return Some(disagreement);
    }
    // Bounded minimizing pipeline: subset construction of unanchored
    // `Σ*·body·Σ*` languages can visit millions of intermediate states
    // before collapsing — abandon those instances (skip the layer)
    // instead of stalling the run on a single seed.
    let dfa = match Dfa::try_from_cregex_with(
        &lang,
        &dfa_alphabet,
        &automata::AutomataConfig::default(),
        &mut automata::BuildMetrics::default(),
        budget.max_dfa_states,
    ) {
        Some(dfa) => dfa,
        None => {
            // Counted in `--stats`; the engine-vs-engine layer already
            // cross-checked this case's pattern where the VM can decide
            // it, so the state cap no longer leaves the case unchecked.
            outcome.dfa_skips += 1;
            return None;
        }
    };

    // Projection: the language determinized over its own minterms and
    // projected onto the case alphabet must be exactly the minimized
    // direct build — the solver's DFA cache serves every conjunction
    // alphabet this way. An own-alphabet build over the state cap
    // skips only this comparison.
    if let Some(own) = Dfa::try_from_cregex_with(
        &lang,
        &own_alphabet,
        &automata::AutomataConfig::default(),
        &mut automata::BuildMetrics::default(),
        budget.max_dfa_states,
    ) {
        let projected = own.minimized().project(&dfa_alphabet);
        if projected.map(|p| p.canonical_key()) != Some(dfa.minimized().canonical_key()) {
            return Some(Disagreement {
                layer: Layer::MatcherVsDfa,
                detail: "own-alphabet DFA projected onto the case alphabet differs from the \
                         direct build"
                    .to_string(),
            });
        }
    }

    // Positive samples: the shortest accepted wrapped word plus
    // distance-guided random walks. (Exhaustive `Dfa::words` is
    // exponential in the class count on unanchored languages — a
    // handful of guided samples exercises the same comparison.)
    let mut wrapped_samples: Vec<String> = dfa.shortest_word().into_iter().collect();
    let walk_cap = wrapped_samples
        .first()
        .map_or(budget.enum_len + 4, |w| w.chars().count() + budget.enum_len);
    for _ in 0..budget.sample_words {
        if let Some(w) = sample_accepted_word(&dfa, rng, walk_cap) {
            wrapped_samples.push(w);
        }
    }
    let mut words: Vec<String> = Vec::new();
    for wrapped in wrapped_samples {
        let chars: Vec<char> = wrapped.chars().collect();
        if chars.first() == Some(&INPUT_START) && chars.last() == Some(&INPUT_END) {
            words.push(chars[1..chars.len() - 1].iter().collect());
        }
    }
    // Random samples over the case alphabet (mostly negative). Under `m`
    // the line terminators join it: the anchors' line contexts test for
    // them, yet patterns rarely contain one.
    let mut sample_alphabet = alphabet.to_vec();
    if regex.flags.multiline {
        sample_alphabet.extend(line_terminators().iter());
    }
    for _ in 0..budget.sample_words {
        let len = rng.random_range(0usize..=budget.enum_len + 1);
        let word: String = (0..len)
            .map(|_| *sample_alphabet.choose(rng).expect("non-empty alphabet"))
            .collect();
        words.push(word);
    }
    words.sort();
    words.dedup();

    for word in &words {
        // Words containing meta-characters live outside the modeled
        // universe.
        if word.chars().any(|c| c == INPUT_START || c == INPUT_END) {
            continue;
        }
        let dfa_says = dfa.contains(&wrap_input(word));
        match oracle_exec(regex, word, budget) {
            Err(()) => outcome.oracle_skips += 1,
            Ok(result) => {
                outcome.dfa_words_checked += 1;
                if result.is_some() != dfa_says {
                    return Some(Disagreement {
                        layer: Layer::MatcherVsDfa,
                        detail: format!(
                            "word {word:?}: matcher={} dfa={dfa_says}",
                            result.is_some()
                        ),
                    });
                }
            }
        }
    }
    None
}

/// Is an `Unsat` from this constraint checkable by enumeration? The
/// positive model always overapproximates the capturing language (so
/// its Unsat implies real Unsat and a concrete witness refutes it);
/// negative models only when exact (the §4.4 general shape is openly
/// inexact — the CEGAR layer is responsible for downgrading those).
fn unsat_is_checkable(constraint: &CapturingConstraint) -> bool {
    constraint.positive || constraint.exact
}

#[allow(clippy::too_many_arguments)]
fn check_solver(
    regex: &Regex,
    constraint: &CapturingConstraint,
    query: &Query,
    problem: &Formula,
    solver_outcome: &Outcome,
    alphabet: &[char],
    budget: &FuzzBudget,
    outcome: &mut CaseOutcome,
) -> Option<Disagreement> {
    match solver_outcome {
        Outcome::Sat(model) => {
            // Model soundness: the witness must satisfy the formula
            // under the independent evaluator.
            if !model.satisfies(problem) {
                return Some(Disagreement {
                    layer: Layer::SolverModel,
                    detail: "Sat model fails the independent evaluator".to_string(),
                });
            }
            // On *exact* constraints the model's input word must agree
            // with the oracle on polarity (captures may still be
            // spurious — that is CEGAR's job, not the solver's).
            if constraint.exact {
                let word = model.get_str(constraint.input).unwrap_or_default();
                match oracle_exec(regex, word, budget) {
                    Err(()) => outcome.oracle_skips += 1,
                    Ok(result) => {
                        if result.is_some() != constraint.positive {
                            return Some(Disagreement {
                                layer: Layer::SolverVsOracle,
                                detail: format!(
                                    "exact model Sat witness {word:?} has oracle polarity {} \
                                     but constraint wants {}",
                                    result.is_some(),
                                    constraint.positive
                                ),
                            });
                        }
                    }
                }
            }
            None
        }
        Outcome::Unsat if unsat_is_checkable(constraint) => {
            for word in words_up_to(alphabet, budget.enum_len) {
                match concretely_satisfies(regex, query, &word, budget) {
                    None => outcome.oracle_skips += 1,
                    Some(true) => {
                        return Some(Disagreement {
                            layer: Layer::SolverVsOracle,
                            detail: format!("solver said Unsat but {word:?} concretely satisfies"),
                        });
                    }
                    Some(false) => {}
                }
            }
            None
        }
        _ => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn check_cegar(
    regex: &Regex,
    constraint: &CapturingConstraint,
    query: &Query,
    cegar_outcome: &Outcome,
    alphabet: &[char],
    budget: &FuzzBudget,
    outcome: &mut CaseOutcome,
) -> Option<Disagreement> {
    match cegar_outcome {
        Outcome::Sat(model) => {
            let word = model.get_str(constraint.input).unwrap_or_default();
            let result = match oracle_exec(regex, word, budget) {
                Err(()) => {
                    outcome.oracle_skips += 1;
                    return None;
                }
                Ok(result) => result,
            };
            if result.is_some() != constraint.positive {
                return Some(Disagreement {
                    layer: Layer::CegarModel,
                    detail: format!(
                        "CEGAR Sat witness {word:?} has oracle polarity {} but constraint wants {}",
                        result.is_some(),
                        constraint.positive
                    ),
                });
            }
            // Positive constraints: CEGAR guarantees engine-faithful
            // captures — compare every slot against the oracle.
            if let Some(result) = &result {
                for (i, cap) in constraint.captures.iter().enumerate() {
                    let concrete = result.captures.get(i).cloned().flatten();
                    let modeled = if model.get_bool(cap.defined) {
                        Some(model.get_str(cap.value).unwrap_or_default().to_string())
                    } else {
                        None
                    };
                    if concrete != modeled {
                        return Some(Disagreement {
                            layer: Layer::CegarModel,
                            detail: format!(
                                "capture C{i} on {word:?}: oracle {concrete:?} vs model {modeled:?}"
                            ),
                        });
                    }
                }
            }
            // The query itself must hold concretely.
            match concretely_satisfies(regex, query, word, budget) {
                None => outcome.oracle_skips += 1,
                Some(true) => {}
                Some(false) => {
                    return Some(Disagreement {
                        layer: Layer::CegarModel,
                        detail: format!("CEGAR Sat witness {word:?} fails the query concretely"),
                    });
                }
            }
            None
        }
        // CEGAR's Unsat claims soundness unconditionally (it downgrades
        // the openly inexact cases to Unknown itself) — every concrete
        // witness is a refutation.
        Outcome::Unsat => {
            for word in words_up_to(alphabet, budget.enum_len) {
                match concretely_satisfies(regex, query, &word, budget) {
                    None => outcome.oracle_skips += 1,
                    Some(true) => {
                        return Some(Disagreement {
                            layer: Layer::CegarUnsat,
                            detail: format!("CEGAR said Unsat but {word:?} concretely satisfies"),
                        });
                    }
                    Some(false) => {}
                }
            }
            None
        }
        Outcome::Unknown => None,
    }
}
