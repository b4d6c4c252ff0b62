//! Translation of path conditions into solver queries.
//!
//! Flipping clause `k` of a trace's path condition produces the query
//! `pc₀ ∧ … ∧ pcₖ₋₁ ∧ ¬pcₖ` (§3.2). Boolean symbolic expressions
//! translate to [`strsolve::Formula`]s; regex events translate to
//! Algorithm 2 models via [`expose_core::build_match_model`], with the
//! polarity demanded by the query, and the whole problem is decided by
//! the CEGAR solver (cut after its first solve below the `Refinement`
//! support level — the Table 7 ablation).

use std::collections::HashMap;
use std::sync::Arc;

use expose_core::api::CapturingConstraint;
use expose_core::cegar::{CegarCache, CegarResult, CegarSolver};
use expose_core::model::BuildConfig;
use expose_core::negate::nnf_negate;
use expose_core::SupportLevel;
use strsolve::{Formula, Outcome, SolveSession, SolveStats, Solver, StrVar, Term, VarPool};

use crate::caching::DseCaches;
use crate::sym::{RegexEvent, SymExpr, Trace};

/// Statistics for one flip query (rows of Table 8).
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    /// Wall-clock duration.
    pub duration: std::time::Duration,
    /// Whether a regex was modeled in this query.
    pub modeled_regex: bool,
    /// Whether a capture group or backreference was modeled.
    pub had_captures: bool,
    /// Refinements performed by CEGAR.
    pub refinements: usize,
    /// Whether the refinement limit was hit.
    pub limit_hit: bool,
    /// The verdict (true = SAT with new inputs).
    pub sat: bool,
    /// Regex models served from the shared model cache.
    pub model_cache_hits: u64,
    /// Regex models built fresh (cache miss or cache disabled).
    pub model_cache_misses: u64,
    /// The solver's counters, summed over every solve of the query's
    /// CEGAR run: search nodes, DFA states built and kept, length
    /// prunes, DFA-cache hits, and the canonical prefix frames reused
    /// from an incremental [`TraceFlipSession`] (`0` for from-scratch
    /// solves). A replayed run searches nothing and counts only the
    /// reused frames.
    pub solver: SolveStats,
    /// Whole CEGAR refinement runs replayed from the shared verdict
    /// cache ([`expose_core::cegar::CegarCache`]).
    pub verdict_replays: u64,
}

/// The result of solving one flipped path condition.
#[derive(Debug)]
pub struct FlipResult {
    /// New concrete inputs when satisfiable.
    pub inputs: Option<Vec<String>>,
    /// Query statistics.
    pub record: QueryRecord,
}

/// Builds and solves the query for flipping clause `flip_index` of the
/// trace from scratch, under the given support level.
///
/// This is the reference oracle for [`TraceFlipSession::solve`], the
/// path the engine runs: it rebuilds the whole conjunction and runs
/// [`CegarSolver::solve`] without a verdict cache, so tests, examples
/// and benchmarks can check the session path against it. Regex models
/// are obtained through `caches.model`; pass [`DseCaches::disabled`]
/// for a fully uncached solve.
pub fn solve_flip(
    trace: &Trace,
    flip_index: usize,
    support: SupportLevel,
    solver: &Solver,
    refinement_limit: usize,
    build: &BuildConfig,
    caches: &DseCaches,
) -> FlipResult {
    let started = std::time::Instant::now();
    let mut builder = QueryBuilder::new(support, build.clone(), caches);

    let mut conjuncts = Vec::new();
    for (i, clause) in trace.path.iter().enumerate() {
        if i > flip_index {
            break;
        }
        let expected = if i == flip_index {
            !clause.taken
        } else {
            clause.taken
        };
        conjuncts.push(builder.bool_formula(&trace.events, &clause.cond, expected));
    }
    let record_base = QueryRecord {
        modeled_regex: !builder.constraints.is_empty(),
        had_captures: builder
            .constraints
            .values()
            .any(|c| c.captures.len() > 1 || c.regex.ast.has_backref()),
        model_cache_hits: builder.model_cache_hits,
        model_cache_misses: builder.model_cache_misses,
        ..QueryRecord::default()
    };

    if builder.infeasible {
        return FlipResult {
            inputs: None,
            record: QueryRecord {
                duration: started.elapsed(),
                ..record_base
            },
        };
    }

    let problem = Formula::and(conjuncts);
    let constraints = builder.sorted_constraints();

    let result =
        flip_solver(support, solver.clone(), refinement_limit).solve(&problem, &constraints);
    let inputs = extract_inputs(&result.outcome, &builder.input_vars, trace.inputs_used);
    FlipResult {
        record: solved_record(&result, inputs.is_some(), started, record_base),
        inputs,
    }
}

/// The CEGAR solver a support level calls for: Algorithm 1 at
/// `Refinement`, otherwise the no-refinement ablation that conjoins the
/// models and accepts the first assignment (may be spurious — Table 7).
fn flip_solver(support: SupportLevel, solver: Solver, refinement_limit: usize) -> CegarSolver {
    if support.refines() {
        CegarSolver::new(solver, refinement_limit)
    } else {
        CegarSolver::unrefined(solver)
    }
}

/// Fills a flip's record skeleton with the counters of its solve.
fn solved_record(
    result: &CegarResult,
    sat: bool,
    started: std::time::Instant,
    base: QueryRecord,
) -> QueryRecord {
    QueryRecord {
        duration: started.elapsed(),
        refinements: result.stats.refinements,
        limit_hit: result.stats.limit_hit,
        sat,
        solver: result.stats.solver.clone(),
        verdict_replays: u64::from(result.stats.replayed),
        ..base
    }
}

/// Reads the new concrete inputs out of a `Sat` model (`None`
/// otherwise), padded to the number of inputs the trace consumed.
fn extract_inputs(
    outcome: &Outcome,
    input_vars: &HashMap<usize, StrVar>,
    inputs_used: usize,
) -> Option<Vec<String>> {
    match outcome {
        Outcome::Sat(model) => {
            let n_inputs = inputs_used.max(input_vars.keys().copied().max().map_or(0, |k| k + 1));
            let mut inputs = vec![String::new(); n_inputs];
            for (&k, &var) in input_vars {
                inputs[k] = model.get_str(var).unwrap_or_default().to_string();
            }
            Some(inputs)
        }
        _ => None,
    }
}

/// One flip's pre-built query pieces inside a [`TraceFlipSession`]: the
/// flipped tie (the assumption), the constraint models it needs, and
/// the record skeleton — everything except the actual solve.
#[derive(Debug)]
struct FlipPlan {
    /// The flipped clause tie `¬tieₖ` (plus nothing else: the shared
    /// prefix lives in the session frames).
    assumption: Vec<Formula>,
    /// The capturing constraints of the query, in event order, shared
    /// with the builder that made them.
    constraints: Vec<Arc<CapturingConstraint>>,
    /// Input variables allocated by the time this flip was planned.
    input_vars: HashMap<usize, StrVar>,
    /// True when the flip demanded contradictory polarities of one
    /// regex event (trivially unsatisfiable; never solved).
    infeasible: bool,
    /// Record fields known at build time (modeled_regex, captures,
    /// model-cache traffic).
    record_base: QueryRecord,
}

/// The incremental counterpart of [`solve_flip`]: one assumption-stack
/// [`SolveSession`] per trace.
///
/// [`TraceFlipSession::build`] walks the trace's clauses **once**. Ahead
/// of each taken clause `k` it *forks* the shared query builder to
/// translate the flipped tie `¬tieₖ` — the fork's state equals a
/// from-scratch flip-`k` builder's after the prefix, so variable
/// allocation (and with it every formula byte) matches [`solve_flip`]
/// exactly. It then pushes the taken tie `tieₖ` as session frame `k`,
/// canonicalizing it once for the whole flip family.
///
/// [`TraceFlipSession::solve`] takes `&self`, so the flips of one trace
/// can fan out over worker threads against the shared prefix. Each
/// flip solves as "frames `0..k` + assumption" (the same canonical key
/// a scratch build would produce), and whole CEGAR refinement chains
/// replay from the run's
/// [`expose_core::cegar::CegarCache`] when a structurally identical
/// flip was already solved — the dominant cross-trace case, since child
/// traces re-pose their parent's prefix flips verbatim.
#[derive(Debug)]
pub struct TraceFlipSession<'a> {
    session: SolveSession,
    plans: Vec<FlipPlan>,
    /// The shared prefix builder, advanced one taken tie per pushed
    /// clause. Kept so clauses can keep arriving after construction
    /// (the streaming wire sessions push one clause per request).
    builder: QueryBuilder<'a>,
    /// Builder states from *before* each pushed clause — recorded only
    /// when retraction is enabled, so the engine's forward-only path
    /// pays nothing for them.
    snapshots: Vec<QueryBuilder<'a>>,
    retractable: bool,
    support: SupportLevel,
    refinement_limit: usize,
    /// The run's verdict cache, `None` when it is disabled (capacity
    /// `0`): a disabled cache is neither probed nor counted.
    verdicts: Option<&'a CegarCache>,
    inputs_used: usize,
}

impl<'a> TraceFlipSession<'a> {
    /// Creates an empty session: no clauses pushed, no flips planned.
    /// Feed it with [`TraceFlipSession::push_clause`].
    pub fn new(
        support: SupportLevel,
        solver: &Solver,
        refinement_limit: usize,
        build: &BuildConfig,
        caches: &'a DseCaches,
    ) -> TraceFlipSession<'a> {
        TraceFlipSession {
            session: SolveSession::new(solver.clone()),
            plans: Vec::new(),
            builder: QueryBuilder::new(support, build.clone(), caches),
            snapshots: Vec::new(),
            retractable: false,
            support,
            refinement_limit,
            verdicts: (caches.verdicts.stats().capacity > 0).then_some(caches.verdicts.as_ref()),
            inputs_used: 0,
        }
    }

    /// Enables [`TraceFlipSession::pop_clause`] by snapshotting the
    /// prefix builder before every push. The engine's trace walk never
    /// retracts and skips this; wire sessions need it for `pop`.
    pub fn retractable(mut self) -> TraceFlipSession<'a> {
        self.retractable = true;
        self
    }

    /// Declares how many concrete inputs the trace consumed, so SAT
    /// models pad their input vectors exactly like
    /// [`solve_flip`] on a trace with the same `inputs_used`.
    pub fn with_inputs_used(mut self, inputs_used: usize) -> TraceFlipSession<'a> {
        self.inputs_used = inputs_used;
        self
    }

    /// Builds the shared prefix and the per-flip plans for the first
    /// `flips` clauses of `trace`.
    pub fn build(
        trace: &Trace,
        flips: usize,
        support: SupportLevel,
        solver: &Solver,
        refinement_limit: usize,
        build: &BuildConfig,
        caches: &'a DseCaches,
    ) -> TraceFlipSession<'a> {
        let mut this = TraceFlipSession::new(support, solver, refinement_limit, build, caches)
            .with_inputs_used(trace.inputs_used);
        for clause in trace.path.iter().take(flips) {
            this.push_clause(&trace.events, &clause.cond, clause.taken);
        }
        this
    }

    /// Pushes one taken clause: plans flip `depth()` (the flipped tie
    /// `¬tie` and the models it needs) and advances the shared prefix
    /// with the taken tie as a new session frame.
    ///
    /// `events` is the trace's regex-event table — append-only across
    /// pushes, and long enough for every event index `cond` references
    /// (the indices of earlier pushes must keep resolving to the same
    /// entries, or the builder's per-event model cache would lie).
    pub fn push_clause(&mut self, events: &[RegexEvent], cond: &SymExpr, taken: bool) {
        if self.retractable {
            self.snapshots.push(self.builder.clone());
        }
        // Fork the shared builder: its state is exactly a scratch
        // flip-k builder's after prefix clauses 0..k, so the flipped
        // tie allocates the same variables a scratch build would.
        let mut fork = self.builder.clone();
        let hits_before = fork.model_cache_hits;
        let misses_before = fork.model_cache_misses;
        let flipped = fork.bool_formula(events, cond, !taken);
        let mut plan = FlipPlan {
            assumption: vec![flipped],
            constraints: fork.sorted_constraints(),
            input_vars: fork.input_vars.clone(),
            infeasible: fork.infeasible,
            record_base: QueryRecord {
                modeled_regex: !fork.constraints.is_empty(),
                had_captures: fork
                    .constraints
                    .values()
                    .any(|c| c.captures.len() > 1 || c.regex.ast.has_backref()),
                model_cache_hits: fork.model_cache_hits - hits_before,
                model_cache_misses: fork.model_cache_misses - misses_before,
                ..QueryRecord::default()
            },
        };
        // Advance the shared prefix with the taken tie; its model
        // lookups are charged to this flip's record so the report's
        // totals still count every lookup of the trace.
        let shared_hits = self.builder.model_cache_hits;
        let shared_misses = self.builder.model_cache_misses;
        let taken_tie = self.builder.bool_formula(events, cond, taken);
        self.session.push(vec![taken_tie]);
        plan.record_base.model_cache_hits += self.builder.model_cache_hits - shared_hits;
        plan.record_base.model_cache_misses += self.builder.model_cache_misses - shared_misses;
        self.plans.push(plan);
    }

    /// Retracts the most recent clause: drops its flip plan, pops its
    /// session frame and rewinds the prefix builder to its pre-push
    /// snapshot. Returns `false` (and changes nothing) when no clause
    /// is pushed or the session was not built
    /// [`TraceFlipSession::retractable`].
    pub fn pop_clause(&mut self) -> bool {
        if !self.retractable || self.plans.is_empty() {
            return false;
        }
        self.plans.pop();
        self.session.pop();
        self.builder = self.snapshots.pop().expect("snapshot per pushed clause");
        true
    }

    /// Number of planned flips.
    pub fn flips(&self) -> usize {
        self.plans.len()
    }

    /// Current clause depth — the same number as
    /// [`TraceFlipSession::flips`], under the name wire sessions use.
    pub fn depth(&self) -> usize {
        self.plans.len()
    }

    /// Cumulative counters of the underlying [`SolveSession`]: queries
    /// assembled and prefix frames reused over the session lifetime.
    pub fn session_stats(&self) -> strsolve::SessionStats {
        self.session.session_stats()
    }

    /// Solves flip `k` against the shared prefix (frames `0..k` plus
    /// the flip's assumption). Verdicts, models and refinement counts
    /// are identical to [`solve_flip`] on the same trace and index.
    pub fn solve(&self, k: usize) -> FlipResult {
        let started = std::time::Instant::now();
        let plan = &self.plans[k];
        if plan.infeasible {
            return FlipResult {
                inputs: None,
                record: QueryRecord {
                    duration: started.elapsed(),
                    ..plan.record_base.clone()
                },
            };
        }

        let cegar = flip_solver(
            self.support,
            self.session.solver().clone(),
            self.refinement_limit,
        );
        let result = cegar.solve_incremental(
            &self.session,
            k,
            &plan.assumption,
            &plan.constraints,
            self.verdicts,
        );
        let inputs = extract_inputs(&result.outcome, &plan.input_vars, self.inputs_used);
        FlipResult {
            record: solved_record(&result, inputs.is_some(), started, plan.record_base.clone()),
            inputs,
        }
    }
}

/// Clone is cheap by design (constraints sit behind `Arc`): a
/// [`TraceFlipSession`] forks the shared prefix builder once per flip.
#[derive(Clone, Debug)]
struct QueryBuilder<'a> {
    pool: VarPool,
    input_vars: HashMap<usize, StrVar>,
    constraints: HashMap<usize, Arc<CapturingConstraint>>,
    polarity: HashMap<usize, bool>,
    build: BuildConfig,
    support: SupportLevel,
    caches: &'a DseCaches,
    model_cache_hits: u64,
    model_cache_misses: u64,
    infeasible: bool,
}

impl<'a> QueryBuilder<'a> {
    /// An empty builder. The regex-event table is *not* part of the
    /// builder's state — each translation call takes it as a parameter,
    /// so streamed sessions can grow the table between clauses.
    fn new(support: SupportLevel, build: BuildConfig, caches: &'a DseCaches) -> QueryBuilder<'a> {
        QueryBuilder {
            pool: VarPool::new(),
            input_vars: HashMap::new(),
            constraints: HashMap::new(),
            polarity: HashMap::new(),
            build,
            support,
            caches,
            model_cache_hits: 0,
            model_cache_misses: 0,
            infeasible: false,
        }
    }
    /// The built constraints in event order — the conjunct (and with it
    /// the solver search) order of the CEGAR problem; map iteration
    /// order would make verdicts vary run to run.
    fn sorted_constraints(&self) -> Vec<Arc<CapturingConstraint>> {
        let mut events: Vec<usize> = self.constraints.keys().copied().collect();
        events.sort_unstable();
        events
            .into_iter()
            .map(|e| Arc::clone(&self.constraints[&e]))
            .collect()
    }

    fn input_var(&mut self, k: usize) -> StrVar {
        if let Some(&v) = self.input_vars.get(&k) {
            return v;
        }
        let v = self.pool.fresh_str();
        self.input_vars.insert(k, v);
        v
    }

    /// The Algorithm 2 constraint for a regex event, built on demand
    /// with the polarity the query requires.
    fn event_constraint(
        &mut self,
        events: &[RegexEvent],
        event: usize,
        positive: bool,
    ) -> Option<Formula> {
        if let Some(&p) = self.polarity.get(&event) {
            if p != positive {
                // The same event is required to both match and not match:
                // infeasible query.
                self.infeasible = true;
                return None;
            }
            return Some(Formula::top());
        }
        self.polarity.insert(event, positive);
        let info = &events[event];
        let (constraint, cache_hit) = self.caches.model.get_or_build(
            &info.regex,
            positive,
            self.support,
            &mut self.pool,
            &self.build,
        );
        if cache_hit {
            self.model_cache_hits += 1;
        } else {
            self.model_cache_misses += 1;
        }
        // Tie the model's input variable to the subject expression.
        let subject_terms = self.string_terms(events, &info.subject.clone());
        let tie = match subject_terms {
            Some((terms, guards)) => Formula::and(
                guards
                    .into_iter()
                    .chain(std::iter::once(Formula::eq_concat(constraint.input, terms)))
                    .collect(),
            ),
            None => Formula::top(),
        };
        let formula = tie;
        self.constraints.insert(event, Arc::new(constraint));
        Some(formula)
    }

    /// Translates a string-sorted expression into concatenation terms
    /// plus definedness guards for any captures involved.
    fn string_terms(
        &mut self,
        events: &[RegexEvent],
        e: &SymExpr,
    ) -> Option<(Vec<Term>, Vec<Formula>)> {
        match e {
            SymExpr::Input(k) => Some((vec![Term::Var(self.input_var(*k))], vec![])),
            SymExpr::StrLit(s) => Some((vec![Term::Lit(s.clone())], vec![])),
            SymExpr::Concat(items) => {
                let mut terms = Vec::new();
                let mut guards = Vec::new();
                for item in items {
                    let (t, g) = self.string_terms(events, item)?;
                    terms.extend(t);
                    guards.extend(g);
                }
                Some((terms, guards))
            }
            SymExpr::Capture { event, index } => {
                // Referencing a capture requires the event to have
                // matched positively.
                let event_formula = self.event_constraint(events, *event, true)?;
                let constraint = self.constraints.get(event)?;
                let cap = *constraint.captures.get(*index)?;
                Some((
                    vec![Term::Var(cap.value)],
                    vec![event_formula, Formula::bool_is(cap.defined, true)],
                ))
            }
            _ => None,
        }
    }

    /// Translates a boolean-sorted expression, asserted to equal
    /// `expected`.
    fn bool_formula(&mut self, events: &[RegexEvent], e: &SymExpr, expected: bool) -> Formula {
        match e {
            SymExpr::BoolLit(b) => {
                if *b == expected {
                    Formula::top()
                } else {
                    Formula::bottom()
                }
            }
            SymExpr::Not(inner) => self.bool_formula(events, inner, !expected),
            SymExpr::And(a, b) => {
                if expected {
                    Formula::and(vec![
                        self.bool_formula(events, a, true),
                        self.bool_formula(events, b, true),
                    ])
                } else {
                    Formula::or(vec![
                        self.bool_formula(events, a, false),
                        self.bool_formula(events, b, false),
                    ])
                }
            }
            SymExpr::Or(a, b) => {
                if expected {
                    Formula::or(vec![
                        self.bool_formula(events, a, true),
                        self.bool_formula(events, b, true),
                    ])
                } else {
                    Formula::and(vec![
                        self.bool_formula(events, a, false),
                        self.bool_formula(events, b, false),
                    ])
                }
            }
            SymExpr::StrEq(a, b) => {
                let Some((ta, ga)) = self.string_terms(events, a) else {
                    return Formula::top();
                };
                let Some((tb, gb)) = self.string_terms(events, b) else {
                    return Formula::top();
                };
                let v = self.pool.fresh_str();
                let core = Formula::and(vec![
                    Formula::eq_concat(v, ta.clone()),
                    Formula::eq_concat(v, tb.clone()),
                ]);
                if expected {
                    Formula::and(
                        ga.into_iter()
                            .chain(gb)
                            .chain(std::iter::once(core))
                            .collect(),
                    )
                } else {
                    // Inequality: either a guard fails (e.g. an
                    // undefined capture) or the values differ.
                    let va = self.pool.fresh_str();
                    let vb = self.pool.fresh_str();
                    let differ = Formula::and(vec![
                        Formula::eq_concat(va, ta),
                        Formula::eq_concat(vb, tb),
                        Formula::ne_var(va, vb),
                    ]);
                    let mut branches: Vec<Formula> =
                        ga.into_iter().chain(gb).map(|g| nnf_negate(&g)).collect();
                    branches.push(differ);
                    Formula::or(branches)
                }
            }
            SymExpr::TestResult { event } => {
                match self.event_constraint(events, *event, expected) {
                    Some(f) => f,
                    None => Formula::bottom(),
                }
            }
            SymExpr::CaptureDefined { event, index } => {
                let Some(f) = self.event_constraint(events, *event, true) else {
                    return Formula::bottom();
                };
                let Some(constraint) = self.constraints.get(event) else {
                    return Formula::bottom();
                };
                match constraint.captures.get(*index) {
                    Some(cap) => Formula::and(vec![f, Formula::bool_is(cap.defined, expected)]),
                    None => Formula::bottom(),
                }
            }
            // String-sorted expressions in boolean position: truthiness
            // = non-emptiness.
            s if s.is_string() => {
                let Some((terms, guards)) = self.string_terms(events, s) else {
                    return Formula::top();
                };
                let v = self.pool.fresh_str();
                let def = Formula::eq_concat(v, terms);
                if expected {
                    Formula::and(
                        guards
                            .into_iter()
                            .chain([def, Formula::ne_lit(v, "")])
                            .collect(),
                    )
                } else {
                    Formula::and(
                        guards
                            .into_iter()
                            .chain([def, Formula::eq_lit(v, "")])
                            .collect(),
                    )
                }
            }
            _ => Formula::top(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute, Harness, InterpConfig};
    use crate::parser::parse_program;

    fn flip_last(src: &str, inputs: &[&str]) -> FlipResult {
        let program = parse_program(src).expect("parse");
        let inputs: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        let trace = execute(
            &program,
            &Harness::strings("f", 1),
            &inputs,
            &InterpConfig::default(),
        );
        assert!(!trace.path.is_empty(), "expected a symbolic path");
        solve_flip(
            &trace,
            trace.path.len() - 1,
            SupportLevel::Refinement,
            &Solver::default(),
            20,
            &BuildConfig::default(),
            &DseCaches::disabled(),
        )
    }

    #[test]
    fn flip_string_equality() {
        let result = flip_last(
            r#"function f(x) { if (x === "secret") { return 1; } return 0; }"#,
            &["nope"],
        );
        let inputs = result.inputs.expect("sat");
        assert_eq!(inputs[0], "secret");
    }

    #[test]
    fn flip_regex_test_to_match() {
        let result = flip_last(
            r#"function f(x) { let ok = /^go+d$/.test(x); return ok; }"#,
            &["nope"],
        );
        let inputs = result.inputs.expect("sat");
        let mut oracle = es6_matcher::RegExp::new("^go+d$", "").expect("regex");
        assert!(oracle.test(&inputs[0]), "flipped input {:?}", inputs[0]);
        assert!(result.record.modeled_regex);
    }

    #[test]
    fn flip_capture_comparison() {
        // Drive execution into the m[1] === "timeout" comparison, then
        // flip it: the solver must produce "<timeout>".
        let src = r#"function f(x) {
            let m = /^<([a-z]+)>$/.exec(x);
            if (m) { if (m[1] === "timeout") { return 1; } }
            return 0;
        }"#;
        let result = flip_last(src, &["<div>"]);
        let inputs = result.inputs.expect("sat");
        assert_eq!(inputs[0], "<timeout>");
        assert!(result.record.had_captures);
    }

    #[test]
    fn flip_concat_equality() {
        let result = flip_last(
            r#"function f(x) { let s = "a" + x; if (s === "ab") { return 1; } return 0; }"#,
            &["zz"],
        );
        let inputs = result.inputs.expect("sat");
        assert_eq!(inputs[0], "b");
    }

    #[test]
    fn infeasible_flip_is_unsat() {
        // Flip of `x === x-same-literal` prefix conflict: prefix pins x
        // to "a", flip demands x !== "a" — the same clause twice makes
        // the flipped query unsatisfiable.
        let src = r#"function f(x) {
            if (x === "a") { if (x === "a") { return 1; } }
            return 0;
        }"#;
        let program = parse_program(src).expect("parse");
        let trace = execute(
            &program,
            &Harness::strings("f", 1),
            &["a".to_string()],
            &InterpConfig::default(),
        );
        assert_eq!(trace.path.len(), 2);
        let result = solve_flip(
            &trace,
            1,
            SupportLevel::Refinement,
            &Solver::default(),
            20,
            &BuildConfig::default(),
            &DseCaches::disabled(),
        );
        assert!(result.inputs.is_none());
    }

    #[test]
    fn cached_and_uncached_flip_agree() {
        // The same flip solved by the engine's session path through
        // warm caches and by the scratch oracle with caches disabled
        // must produce the same verdict and inputs.
        let src = r#"function f(x) { let ok = /^go+d$/.test(x); return ok; }"#;
        let program = parse_program(src).expect("parse");
        let trace = execute(
            &program,
            &Harness::strings("f", 1),
            &["nope".to_string()],
            &InterpConfig::default(),
        );
        let k = trace.path.len() - 1;
        let uncached = solve_flip(
            &trace,
            k,
            SupportLevel::Refinement,
            &Solver::default(),
            20,
            &BuildConfig::default(),
            &DseCaches::disabled(),
        );
        let caches = DseCaches::new(64, 64);
        let solver = Solver::default();
        let session_solve = || {
            TraceFlipSession::build(
                &trace,
                k + 1,
                SupportLevel::Refinement,
                &solver,
                20,
                &BuildConfig::default(),
                &caches,
            )
            .solve(k)
        };
        // Twice: the second run exercises the hit paths of both caches.
        let cold = session_solve();
        let warm = session_solve();
        assert_eq!(uncached.inputs, cold.inputs);
        assert_eq!(uncached.inputs, warm.inputs);
        assert!(cold.record.model_cache_misses >= 1);
        assert_eq!(cold.record.verdict_replays, 0);
        assert_eq!(warm.record.model_cache_misses, 0);
        assert_eq!(warm.record.verdict_replays, 1);
    }
}
