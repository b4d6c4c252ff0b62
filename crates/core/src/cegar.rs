//! Counterexample-guided abstraction refinement for matching precedence
//! (Algorithm 1, §5 of the paper).
//!
//! The Table 2/3 models ignore greediness, so a satisfying assignment
//! may carry capture values no real ES6 engine would produce (§3.4's
//! `/^a*(a)?$/` example). [`CegarSolver::solve`] runs Algorithm 1
//! verbatim: solve the SMT problem, validate every capturing-language
//! constraint against the concrete ES6 matcher, refine (pin captures for
//! matched words of positive constraints; ban words that disagree with
//! the constraint polarity) and repeat up to a refinement limit.
//!
//! Every iteration and probe shares the solver's compiled-DFA cache:
//! [`CegarSolver`] clones the [`Solver`], and the clone holds the same
//! `Arc`'d cache of minimized, canonically numbered automata — so the
//! membership constraints a refinement re-poses never pay
//! determinization or Hopcroft again, and language-equal regexes across
//! iterations intern to one automaton. Verdicts are cached only as whole
//! finished runs ([`CegarCache`]), never per iteration: learned lemmas
//! make a refined iteration's formula context-dependent.
//!
//! [`CegarSolver::unrefined`] is the loop cut after its first solve (the
//! support levels below `Refinement`), so every support level solves
//! through the same entry points and replays from the same cache.
//!
//! [`CegarCache`] is a [`SharedLru`]: it locks, counts, bounds and
//! evicts like every other shared cache, and reports one
//! [`strsolve::CacheStats`] snapshot. An entry weighs what it owns —
//! its compact key, signatures and cached outcome — not the constraint
//! models it shares.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use automata::FxHasher;
use es6_matcher::RegExp;
use strsolve::{
    CacheStats, Canonicalizer, Formula, Group, Model, Outcome, SessionView, SharedLru,
    SolveSession, SolveStats, Solver, ViewKey,
};

use crate::api::CapturingConstraint;

/// Statistics for one CEGAR query (feeds Table 8).
#[derive(Debug, Clone, Default)]
pub struct CegarStats {
    /// Number of refinement iterations performed.
    pub refinements: usize,
    /// True when the refinement limit was hit (result `Unknown`).
    pub limit_hit: bool,
    /// Aggregated solver statistics across iterations.
    pub solver: SolveStats,
    /// True when the whole run (verdict, refinement count, model) was
    /// replayed from a [`CegarCache`] instead of re-running the loop.
    pub replayed: bool,
}

/// The result of a CEGAR-checked query.
#[derive(Debug, Clone)]
pub struct CegarResult {
    /// The verdict: `Sat` models have specification-correct captures.
    pub outcome: Outcome,
    /// Query statistics.
    pub stats: CegarStats,
}

/// Algorithm 1: a satisfiability checker for constraint problems with
/// capturing-language membership constraints.
///
/// # Examples
///
/// The §3.4 example: the model alone admits `("aa", "aa", "a")` for
/// `/^a*(a)?$/`, but CEGAR converges to the engine-correct `C₁ = ⊥`:
///
/// ```
/// use expose_core::{api::build_match_model, cegar::CegarSolver, model::BuildConfig};
/// use regex_syntax_es6::Regex;
/// use strsolve::{Formula, VarPool};
///
/// let regex = Regex::parse_literal("/^a*(a)?$/")?;
/// let mut pool = VarPool::new();
/// let c = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
/// // Force the input to be "aa".
/// let problem = Formula::and(vec![Formula::eq_lit(c.input, "aa")]);
/// let result = CegarSolver::default().solve(&problem, std::slice::from_ref(&c));
/// let model = result.outcome.model().expect("sat");
/// // Matching precedence: the greedy a* consumes both characters.
/// assert!(!model.get_bool(c.captures[1].defined));
/// # Ok::<(), regex_syntax_es6::ParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CegarSolver {
    solver: Solver,
    refinement_limit: usize,
    /// False for the no-refinement ablation: the loop stops after the
    /// first solve and accepts its assignment unvalidated.
    refines: bool,
}

impl Default for CegarSolver {
    fn default() -> CegarSolver {
        // §7.2: "We limited the refinement scheme to 20 iterations,
        // which we identified as effective in preliminary testing."
        CegarSolver::new(Solver::default(), 20)
    }
}

impl CegarSolver {
    /// Creates a CEGAR solver with a custom base solver and limit.
    pub fn new(solver: Solver, refinement_limit: usize) -> CegarSolver {
        CegarSolver {
            solver,
            refinement_limit,
            refines: true,
        }
    }

    /// The Captures-without-refinement ablation (Table 7): one solve of
    /// the problem conjoined with the constraint models, whose first
    /// assignment is accepted without validation (its captures may be
    /// spurious). Runs share the [`CegarCache`] with refining runs under
    /// keys of their own.
    pub fn unrefined(solver: Solver) -> CegarSolver {
        CegarSolver {
            solver,
            refinement_limit: 0,
            refines: false,
        }
    }

    /// The refinement limit.
    pub fn refinement_limit(&self) -> usize {
        self.refinement_limit
    }

    /// Decides `problem ∧ ⋀ⱼ constraintⱼ` with specification-correct
    /// capture assignments (Algorithm 1).
    ///
    /// `problem` carries the rest of the path condition; `constraints`
    /// are the modeled capturing-language constraints, owned or shared
    /// (`Arc<CapturingConstraint>`).
    pub fn solve<C: Borrow<CapturingConstraint>>(
        &self,
        problem: &Formula,
        constraints: &[C],
    ) -> CegarResult {
        // P := problem ∧ all constraint models.
        let mut parts = vec![problem.clone()];
        parts.extend(constraints.iter().map(|c| c.borrow().formula.clone()));
        let p = Formula::and(parts);
        self.run(&self.solver, p, constraints)
    }

    /// The incremental counterpart of [`CegarSolver::solve`]: the
    /// shared trace prefix lives in `session` (frames `0..depth`) and
    /// only `problem_items` — the flipped clause tie — plus the
    /// constraint models form the per-flip assumption.
    ///
    /// The session poses the iteration-0 problem as a [`SessionView`]
    /// without re-canonicalizing or copying the shared prefix; each
    /// constraint model is posed as a group through its build-time
    /// shape ([`CapturingConstraint::group`]), so its formula is
    /// neither copied nor renumbered. When a [`CegarCache`] is
    /// supplied, a finished run (verdict, model, refinement count)
    /// whose stored key — the view's [`ViewKey`], which determines the
    /// complete canonical conjunct list, plus constraint signatures
    /// and solver limits — equals this query's is replayed wholesale:
    /// the dominant cross-trace case, since a child trace re-poses its
    /// parent's prefix flips verbatim. Replay is exact: the solver and
    /// oracle are deterministic, so a fresh loop on an identical
    /// canonical problem reproduces the identical result. Only on a
    /// miss is the caller-space conjunction assembled (the one place a
    /// model formula is copied) and the loop run, exactly like the
    /// from-scratch one.
    pub fn solve_incremental<C: Borrow<CapturingConstraint>>(
        &self,
        session: &SolveSession,
        depth: usize,
        problem_items: &[Formula],
        constraints: &[C],
        verdicts: Option<&CegarCache>,
    ) -> CegarResult {
        let start = Instant::now();
        let groups: Vec<Group<'_>> = constraints.iter().map(|c| c.borrow().group()).collect();
        let mut view = session.view_with(depth, problem_items, &groups);

        let probed =
            verdicts.map(|cache| (cache, self.cache_probe(session, &mut view, constraints)));
        if let Some((cache, probe)) = &probed {
            if let Some(entry) = cache.lookup(probe, &view) {
                let outcome = entry.run.rehydrate(view.canonicalizer());
                return CegarResult {
                    outcome,
                    stats: CegarStats {
                        refinements: entry.run.refinements,
                        limit_hit: entry.run.limit_hit,
                        solver: SolveStats {
                            duration: start.elapsed(),
                            prefix_reuse_hits: view.reused_frames(),
                            ..SolveStats::default()
                        },
                        replayed: true,
                    },
                };
            }
        }

        let mut result = self.run(session.solver(), view.original(), constraints);
        result.stats.solver.prefix_reuse_hits += view.reused_frames();
        if let Some((cache, probe)) = probed {
            cache.store(probe, &view, &result);
        }
        result
    }

    /// The verdict-cache probe for this solver's run of `view` under
    /// `constraints`: the digest that selects an entry, and everything
    /// besides the view's key that decides it. Maps the constraint
    /// variables into the view's renumbering.
    fn cache_probe<C: Borrow<CapturingConstraint>>(
        &self,
        session: &SolveSession,
        view: &mut SessionView<'_>,
        constraints: &[C],
    ) -> CacheProbe {
        let constraints = constraint_signatures(view, constraints);
        let params = RunParams {
            constraints,
            fingerprint: session.solver().config().fingerprint(),
            refinement_limit: self.refinement_limit,
            refines: self.refines,
        };
        let mut hasher = FxHasher::default();
        hasher.write_u64(view.digest());
        params.hash(&mut hasher);
        CacheProbe {
            digest: hasher.finish(),
            params,
        }
    }

    /// The Algorithm 1 loop: every iteration and probe is a plain solve
    /// through `solver`.
    fn run<C: Borrow<CapturingConstraint>>(
        &self,
        solver: &Solver,
        mut p: Formula,
        constraints: &[C],
    ) -> CegarResult {
        let mut stats = CegarStats::default();

        loop {
            let (outcome, solve_stats) = solver.solve(&p);
            stats.solver.absorb(&solve_stats);
            if !self.refines {
                return CegarResult { outcome, stats };
            }
            let model = match outcome {
                Outcome::Sat(m) => m,
                other => {
                    // An inexact negative model does not overapproximate
                    // the complement (the §4.4 shape misses nothing for
                    // Sat — the oracle validates — but its Unsat is not
                    // a proof), so refusal must be downgraded.
                    let unsound_unsat = matches!(other, Outcome::Unsat)
                        && constraints
                            .iter()
                            .map(C::borrow)
                            .any(|c| !c.positive && !c.exact);
                    return CegarResult {
                        outcome: if unsound_unsat {
                            Outcome::Unknown
                        } else {
                            other
                        },
                        stats,
                    };
                }
            };

            let mut failed = false;
            // Capture-mismatched (constraint, word) pairs of this round:
            // their words still satisfy the constraint polarity, only
            // the capture split was spurious.
            let mut mismatches = Vec::new();
            for constraint in constraints.iter().map(C::borrow) {
                match self.validate(constraint, &model) {
                    Validation::Valid => {}
                    Validation::Refine(refinement) => {
                        failed = true;
                        p = Formula::and(vec![p, refinement]);
                    }
                    Validation::CaptureMismatch { word, refinement } => {
                        failed = true;
                        p = Formula::and(vec![p, refinement]);
                        mismatches.push((constraint.input, word));
                    }
                }
            }

            if !failed {
                return CegarResult {
                    outcome: Outcome::Sat(model),
                    stats,
                };
            }
            stats.refinements += 1;
            if stats.refinements >= self.refinement_limit {
                stats.limit_hit = true;
                return CegarResult {
                    outcome: Outcome::Unknown,
                    stats,
                };
            }

            // Progress guarantee: an implication alone does not stop the
            // solver from wandering to a fresh word (with yet another
            // spurious split) every round. Probe the mismatched words
            // directly — their captures are now pinned, so either the
            // probe yields a specification-correct model, or the words
            // provably cannot support the path condition and are banned.
            if !mismatches.is_empty() {
                let pinned = Formula::and(
                    mismatches
                        .iter()
                        .map(|(input, word)| Formula::eq_lit(*input, word.clone()))
                        .collect(),
                );
                let probe = Formula::and(vec![p.clone(), pinned]);
                let (outcome, solve_stats) = solver.solve(&probe);
                stats.solver.absorb(&solve_stats);
                match outcome {
                    Outcome::Sat(m)
                        if constraints.iter().all(|c| {
                            matches!(self.validate(c.borrow(), &m), Validation::Valid)
                        }) =>
                    {
                        return CegarResult {
                            outcome: Outcome::Sat(m),
                            stats,
                        };
                    }
                    // Spurious on some other constraint: fall through to
                    // the main loop, which will refine it.
                    Outcome::Sat(_) => {}
                    // No engine-correct assignment over these words
                    // satisfies the problem, so at least one of them
                    // must change. Sound to ban as a disjunction.
                    Outcome::Unsat => {
                        p = Formula::and(vec![
                            p,
                            Formula::or(
                                mismatches
                                    .iter()
                                    .map(|(input, word)| Formula::ne_lit(*input, word.clone()))
                                    .collect(),
                            ),
                        ]);
                    }
                    // Budget exhaustion: banning now could make a later
                    // Unsat unsound, so keep only the implication.
                    Outcome::Unknown => {}
                }
            }
        }
    }

    /// Lines 9–22 of Algorithm 1 for one constraint: validates the
    /// candidate assignment with the concrete matcher; returns a
    /// refinement formula when the candidate is spurious.
    fn validate(&self, constraint: &CapturingConstraint, model: &Model) -> Validation {
        let input = model.get_str(constraint.input).unwrap_or_default();
        // ConcreteMatch(M[w], R): the ES6-compliant oracle.
        let mut oracle = RegExp::from_regex(oracle_regex(&constraint.regex));
        let concrete = oracle.exec(input);

        match (concrete, constraint.positive) {
            (Some(result), true) => {
                // Check capture agreement (lines 12–15).
                let mut agree = true;
                for (i, cap) in constraint.captures.iter().enumerate() {
                    let concrete_value = result.captures.get(i).cloned().flatten();
                    let model_value = if model.get_bool(cap.defined) {
                        Some(model.get_str(cap.value).unwrap_or_default().to_string())
                    } else {
                        None
                    };
                    if concrete_value != model_value {
                        agree = false;
                        break;
                    }
                }
                if agree {
                    Validation::Valid
                } else {
                    // Refinement: pin the captures for this word
                    // (line 15): w = M[w] ⟹ ⋀ᵢ Cᵢ = C♮ᵢ.
                    let mut pins = Vec::new();
                    for (i, cap) in constraint.captures.iter().enumerate() {
                        match result.captures.get(i).cloned().flatten() {
                            Some(value) => {
                                pins.push(Formula::bool_is(cap.defined, true));
                                pins.push(Formula::eq_lit(cap.value, value));
                            }
                            None => pins.push(cap.undefined()),
                        }
                    }
                    Validation::CaptureMismatch {
                        word: input.to_string(),
                        refinement: Formula::implies_eq_lit(
                            constraint.input,
                            input,
                            Formula::and(pins),
                        ),
                    }
                }
            }
            // Non-membership constraint, but the word matches
            // concretely: ban the word (line 18).
            (Some(_), false) => Validation::Refine(Formula::ne_lit(constraint.input, input)),
            // Positive constraint, but no concrete match: ban the word
            // (line 22).
            (None, true) => Validation::Refine(Formula::ne_lit(constraint.input, input)),
            // Negative constraint, no concrete match: consistent.
            (None, false) => Validation::Valid,
        }
    }
}

/// The verdict of validating one constraint against a candidate model.
enum Validation {
    /// The concrete matcher agrees with the candidate.
    Valid,
    /// Spurious for polarity reasons; conjoin the refinement and retry.
    Refine(Formula),
    /// The word satisfies the constraint polarity but the capture split
    /// is spurious; the refinement pins the engine's captures for it.
    CaptureMismatch {
        /// The candidate word (value of the constraint's input var).
        word: String,
        /// `input = word ⟹ ⋀ᵢ Cᵢ = C♮ᵢ`.
        refinement: Formula,
    },
}

/// Everything the CEGAR loop's behaviour depends on for one constraint,
/// in canonical variable space: the oracle identity (pattern source +
/// flags, which determine the concrete matcher exactly), the polarity
/// and exactness (which gate the unsound-Unsat downgrade), and the
/// canonical ids of the variables that refinements reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ConstraintSig {
    source: String,
    flags: u8,
    positive: bool,
    exact: bool,
    input: u32,
    wrapped: u32,
    /// `(value, defined)` canonical ids per capture group.
    captures: Vec<(u32, u32)>,
}

/// Everything the CEGAR loop's outcome depends on besides the canonical
/// conjunct list: the constraint signatures and the solving limits.
#[derive(Debug, PartialEq, Eq, Hash)]
struct RunParams {
    /// Constraint signatures, in event order.
    constraints: Vec<ConstraintSig>,
    /// [`strsolve::SolverConfig::fingerprint`] of the solving limits.
    fingerprint: u64,
    refinement_limit: usize,
    /// False for [`CegarSolver::unrefined`] runs, whose unvalidated
    /// verdicts must never answer a refining run (or the reverse).
    refines: bool,
}

/// One query's side of a verdict-cache probe: the digest that selects
/// an entry and the parameters that (with the view's key) decide it.
/// The view's renumbering, extended with the constraint variables,
/// rehydrates a replayed model.
struct CacheProbe {
    /// Fx digest of the view's digest and `params`.
    digest: u64,
    params: RunParams,
}

/// The full key of one cached run, stored in its entry.
#[derive(Debug)]
struct CegarKey {
    /// The iteration-0 problem (problem ∧ constraint models) in compact
    /// form: the canonical problem conjuncts plus each model's shape
    /// and variable ids ([`SessionView::key`]).
    view: ViewKey,
    params: RunParams,
}

/// A resident verdict-cache entry: the full key and the run it keys.
#[derive(Debug)]
struct CegarEntry {
    key: CegarKey,
    run: CachedRun,
}

/// A finished run in canonical variable space.
#[derive(Debug)]
struct CachedRun {
    outcome: CachedOutcome,
    refinements: usize,
    limit_hit: bool,
}

#[derive(Debug)]
enum CachedOutcome {
    Sat {
        strs: Vec<(u32, String)>,
        bools: Vec<(u32, bool)>,
    },
    Unsat,
    Unknown,
}

impl CachedRun {
    fn rehydrate(&self, ext: &Canonicalizer) -> Outcome {
        match &self.outcome {
            CachedOutcome::Sat { strs, bools } => {
                let mut model = Model::new();
                for (canon, value) in strs {
                    model.set_str(ext.str_vars()[*canon as usize], value.clone());
                }
                for (canon, value) in bools {
                    model.set_bool(ext.bool_vars()[*canon as usize], *value);
                }
                Outcome::Sat(model)
            }
            CachedOutcome::Unsat => Outcome::Unsat,
            CachedOutcome::Unknown => Outcome::Unknown,
        }
    }
}

/// Builds the constraint signatures for a canonical query, extending
/// the view's renumbering with any constraint variables that do not
/// occur in the formula (possible for approximate models) so a replayed
/// model can cover every variable a refined solve might assign. The
/// extension is a pure function of (query, constraints), so store and
/// lookup sides always agree.
fn constraint_signatures<C: Borrow<CapturingConstraint>>(
    view: &mut SessionView<'_>,
    constraints: &[C],
) -> Vec<ConstraintSig> {
    constraints
        .iter()
        .map(C::borrow)
        .map(|c| ConstraintSig {
            source: c.regex.source.clone(),
            flags: crate::cache::pack_flags(c.regex.flags),
            positive: c.positive,
            exact: c.exact,
            input: view.map_str(c.input).index(),
            wrapped: view.map_str(c.wrapped).index(),
            captures: c
                .captures
                .iter()
                .map(|cap| {
                    (
                        view.map_str(cap.value).index(),
                        view.map_bool(cap.defined).index(),
                    )
                })
                .collect(),
        })
        .collect()
}

/// A shared, thread-safe cache of *whole validated CEGAR runs*.
///
/// Replays the entire Algorithm 1 loop — final validated outcome,
/// refinement count and limit flag — for a query whose complete
/// canonical iteration-0 problem, constraint signatures, solver
/// fingerprint and refinement limit equal a stored run's. Since the
/// solver and the concrete ES6 oracle are both deterministic, a fresh
/// run of an identical canonical problem necessarily retraces the
/// identical refinement chain to the identical result, so replay is
/// exact — this is how banned words and capture-pinning lemmas learned
/// for one flip are soundly carried to its verbatim re-posings
/// (retraction-free: a different assumption produces a different key by
/// construction).
///
/// Entries are indexed by one 64-bit digest: the session's chained
/// digest ([`SessionView::digest`]) folded with the signatures and
/// limits. The digest only *selects* an entry. Each entry stores its
/// full key in compact form: the canonical problem conjuncts, plus per
/// constraint model its shape (an `Arc` shared with the model, taken
/// once when the model was built) and the query's ids of the shape's
/// variables ([`ViewKey`]). A lookup counts as a hit only if that key
/// compares equal to the borrowed session prefix, the canonical items
/// and the posed groups — a comparison that allocates nothing and
/// short-circuits on shared `Arc<CRegex>` and `Arc<Shape>` pointers.
/// Equal keys imply equal canonical conjunct lists, so replay stays
/// exact. A digest collision, even one forced from service input, is
/// therefore a miss, and the store that follows replaces the colliding
/// entry: Unsat stays a proof, and a collision costs one solve.
/// Entries are shared (`Arc`), so a hit clones a pointer, not a run.
///
/// This is the cross-trace node sink in DSE: a child trace re-poses
/// every prefix flip of its parent verbatim, and each re-posing skips
/// the whole refinement chain instead of just iteration 0.
#[derive(Debug)]
pub struct CegarCache {
    entries: SharedLru<u64, Arc<CegarEntry>>,
}

impl CegarCache {
    /// Creates a cache holding at most `capacity` runs (`0` disables).
    pub fn new(capacity: usize) -> CegarCache {
        CegarCache::with_byte_budget(capacity, 0)
    }

    /// Creates a cache additionally bounded by an approximate byte
    /// budget (`0` = unlimited).
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> CegarCache {
        CegarCache {
            entries: SharedLru::new(capacity, byte_budget),
        }
    }

    /// The cache's counters: replays (hits), lookups that fell through
    /// to a full CEGAR loop (misses), resident runs and bytes,
    /// evictions, and the configured bounds.
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// The configured run capacity (`0` = disabled), read without
    /// taking the lock.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The entry stored under the probe's digest, if its full key
    /// equals this query's; the comparison runs outside the lock, and
    /// a digest collision counts as a miss.
    fn lookup(&self, probe: &CacheProbe, view: &SessionView<'_>) -> Option<Arc<CegarEntry>> {
        self.entries.get_with(&probe.digest, Arc::clone, |entry| {
            entry.key.params == probe.params && view.matches(&entry.key.view)
        })
    }

    fn store(&self, probe: CacheProbe, view: &SessionView<'_>, result: &CegarResult) {
        let ext = view.canonicalizer();
        let outcome = match &result.outcome {
            Outcome::Sat(model) => CachedOutcome::Sat {
                // Only solver-assigned variables, so a rehydrated model
                // is indistinguishable from the fresh run's.
                strs: ext
                    .str_vars()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| model.get_str(*v).map(|s| (i as u32, s.to_string())))
                    .collect(),
                bools: ext
                    .bool_vars()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| model.try_get_bool(*v).map(|b| (i as u32, b)))
                    .collect(),
            },
            Outcome::Unsat => CachedOutcome::Unsat,
            Outcome::Unknown => CachedOutcome::Unknown,
        };
        let key = view.key();
        let weight = key.approx_bytes()
            + probe
                .params
                .constraints
                .iter()
                .map(|c| 64 + c.source.len() + c.captures.len() * 8)
                .sum::<usize>()
            + match &outcome {
                CachedOutcome::Sat { strs, bools } => {
                    strs.iter().map(|(_, s)| 24 + s.len()).sum::<usize>() + bools.len() * 8
                }
                _ => 16,
            };
        let entry = CegarEntry {
            key: CegarKey {
                view: key,
                params: probe.params,
            },
            run: CachedRun {
                outcome,
                refinements: result.stats.refinements,
                limit_hit: result.stats.limit_hit,
            },
        };
        self.entries.insert(probe.digest, Arc::new(entry), weight);
    }
}

/// The oracle regex: the original pattern with the stateful flags
/// cleared (`lastIndex` slicing is applied before modeling, Algorithm 2
/// lines 2–4).
fn oracle_regex(regex: &regex_syntax_es6::Regex) -> regex_syntax_es6::Regex {
    let mut r = regex.clone();
    r.flags.global = false;
    r.flags.sticky = false;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::build_match_model;
    use crate::model::BuildConfig;
    use regex_syntax_es6::Regex;
    use strsolve::VarPool;

    fn run(
        literal: &str,
        positive: bool,
        extra: impl FnOnce(&CapturingConstraint) -> Formula,
    ) -> (CegarResult, CapturingConstraint, VarPool) {
        let regex = Regex::parse_literal(literal).expect("literal");
        let mut pool = VarPool::new();
        let c = build_match_model(&regex, positive, &mut pool, &BuildConfig::default());
        let problem = extra(&c);
        let result = CegarSolver::default().solve(&problem, std::slice::from_ref(&c));
        (result, c, pool)
    }

    #[test]
    fn paper_refinement_example() {
        // §3.4: /^a*(a)?$/ on "aa" — C1 must be ⊥, not "a".
        let (result, c, _) = run("/^a*(a)?$/", true, |c| Formula::eq_lit(c.input, "aa"));
        let model = result.outcome.model().expect("sat");
        assert!(!model.get_bool(c.captures[1].defined));
        // C0 must be the full greedy match.
        assert_eq!(model.get_str(c.captures[0].value), Some("aa"));
    }

    #[test]
    fn greedy_capture_assignment() {
        // /(a*)(a*)/ on "aaa": greedy first group takes everything.
        let (result, c, _) = run("/^(a*)(a*)$/", true, |c| Formula::eq_lit(c.input, "aaa"));
        let model = result.outcome.model().expect("sat");
        assert_eq!(model.get_str(c.captures[1].value), Some("aaa"));
        assert_eq!(model.get_str(c.captures[2].value), Some(""));
    }

    #[test]
    fn lazy_quantifier_precedence() {
        // /(a*?)(a*)/ on "aaa": lazy first group takes nothing.
        let (result, c, _) = run("/^(a*?)(a*)$/", true, |c| Formula::eq_lit(c.input, "aaa"));
        let model = result.outcome.model().expect("sat");
        assert_eq!(model.get_str(c.captures[1].value), Some(""));
        assert_eq!(model.get_str(c.captures[2].value), Some("aaa"));
    }

    #[test]
    fn alternation_precedence() {
        // /(a|ab)/ matching "ab…": leftmost alternative wins at the
        // first matching position, so C1 = "a".
        let (result, c, _) = run("/(a|ab)/", true, |c| Formula::eq_lit(c.input, "ab"));
        let model = result.outcome.model().expect("sat");
        assert_eq!(model.get_str(c.captures[1].value), Some("a"));
    }

    #[test]
    fn unsat_when_input_cannot_match() {
        let (result, _, _) = run("/^[0-9]+$/", true, |c| Formula::eq_lit(c.input, "xyz"));
        assert_eq!(result.outcome, Outcome::Unsat);
    }

    #[test]
    fn negative_query_returns_nonmatching_word() {
        let (result, c, _) = run("/^a+$/", false, |_| Formula::top());
        let model = result.outcome.model().expect("sat");
        let input = model.get_str(c.input).expect("assigned");
        let mut oracle = RegExp::from_regex(c.regex.clone());
        assert!(!oracle.test(input));
    }

    #[test]
    fn backreference_membership_via_cegar() {
        // /^(ab|c)\1$/ requires the two halves to be equal.
        let (result, c, _) = run(r"/^(ab|c)\1$/", true, |_| Formula::top());
        let model = result.outcome.model().expect("sat");
        let input = model.get_str(c.input).expect("assigned");
        let mut oracle = RegExp::from_regex(c.regex.clone());
        assert!(oracle.test(input), "witness {input:?} must match");
    }

    #[test]
    fn stats_track_refinements() {
        let (result, _, _) = run("/^a*(a)?$/", true, |c| Formula::eq_lit(c.input, "aa"));
        // The spurious capture assignment may or may not be proposed
        // first, but the loop must terminate within the limit.
        assert!(!result.stats.limit_hit);
        assert!(result.stats.refinements <= 20);
    }

    /// Builds a two-frame session plus one flip assumption and the
    /// matching scratch problem for one of the refinement-heavy
    /// examples.
    fn incremental_fixture(
        literal: &str,
        input_lit: Option<&str>,
    ) -> (SolveSession, Vec<Formula>, Formula, CapturingConstraint) {
        let regex = Regex::parse_literal(literal).expect("literal");
        let mut pool = VarPool::new();
        let guard = pool.fresh_str();
        let c = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
        let frames = vec![
            vec![Formula::ne_lit(guard, "off")],
            match input_lit {
                Some(word) => vec![Formula::eq_lit(c.input, word)],
                None => vec![],
            },
        ];
        let assumption = vec![Formula::ne_lit(c.input, "zzz")];
        let mut scratch_items: Vec<Formula> = frames.iter().flatten().cloned().collect();
        scratch_items.extend(assumption.iter().cloned());
        let problem = Formula::and(scratch_items);
        let mut session = SolveSession::new(Solver::default());
        for frame in &frames {
            session.push(frame.clone());
        }
        (session, assumption, problem, c)
    }

    #[test]
    fn incremental_matches_scratch() {
        for (literal, input) in [
            ("/^a*(a)?$/", Some("aa")),
            ("/^(a*)(a*)$/", Some("aaa")),
            ("/^[0-9]+$/", Some("xyz")),
            ("/(a|ab)/", Some("ab")),
            (r"/^(ab|c)\1$/", None),
        ] {
            let (session, assumption, problem, c) = incremental_fixture(literal, input);
            let cegar = CegarSolver::default();
            let scratch = cegar.solve(&problem, std::slice::from_ref(&c));
            let incremental = cegar.solve_incremental(
                &session,
                session.depth(),
                &assumption,
                std::slice::from_ref(&c),
                None,
            );
            assert_eq!(incremental.outcome, scratch.outcome, "{literal}");
            assert_eq!(
                incremental.stats.refinements, scratch.stats.refinements,
                "{literal}"
            );
            assert_eq!(incremental.stats.limit_hit, scratch.stats.limit_hit);
            assert!(!incremental.stats.replayed);
        }
    }

    #[test]
    fn verdict_cache_replays_whole_runs() {
        let (session, assumption, problem, c) = incremental_fixture("/^a*(a)?$/", Some("aa"));
        let cegar = CegarSolver::default();
        let cache = CegarCache::new(16);
        let first = cegar.solve_incremental(
            &session,
            session.depth(),
            &assumption,
            std::slice::from_ref(&c),
            Some(&cache),
        );
        assert!(!first.stats.replayed);
        assert_eq!(cache.stats().misses, 1);
        assert!(first.stats.refinements > 0, "fixture must refine");

        let second = cegar.solve_incremental(
            &session,
            session.depth(),
            &assumption,
            std::slice::from_ref(&c),
            Some(&cache),
        );
        assert!(second.stats.replayed);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(second.outcome, first.outcome);
        assert_eq!(second.stats.refinements, first.stats.refinements);
        assert_eq!(second.stats.limit_hit, first.stats.limit_hit);
        assert_eq!(second.stats.solver.nodes, 0, "replay must not search");
        // And the replayed run still matches a from-scratch loop.
        let scratch = cegar.solve(&problem, std::slice::from_ref(&c));
        assert_eq!(second.outcome, scratch.outcome);
    }

    #[test]
    fn unrefined_runs_replay_under_their_own_keys() {
        let (session, assumption, problem, c) = incremental_fixture("/^a*(a)?$/", Some("aa"));
        let unrefined = CegarSolver::unrefined(Solver::default());
        let constraints = std::slice::from_ref(&c);
        let cache = CegarCache::new(16);
        let solve = |cegar: &CegarSolver| {
            cegar.solve_incremental(
                &session,
                session.depth(),
                &assumption,
                constraints,
                Some(&cache),
            )
        };

        // Unrefined = one plain solve of problem ∧ models, unvalidated.
        let (plain, _) = Solver::default().solve(&Formula::and(vec![problem, c.formula.clone()]));
        let first = solve(&unrefined);
        assert!(!first.stats.replayed);
        assert_eq!(first.outcome, plain);
        assert_eq!(first.stats.refinements, 0);

        let second = solve(&unrefined);
        assert!(second.stats.replayed);
        assert_eq!(second.outcome, plain);
        assert_eq!(second.stats.solver.nodes, 0, "replay must not search");

        // A refining run of the same problem must not replay the
        // unvalidated verdict.
        let refined = solve(&CegarSolver::default());
        assert!(!refined.stats.replayed);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn verdict_cache_replays_across_posings() {
        // One canonical problem A ∧ B ∧ C ∧ model posed three ways: as
        // frames [A],[B] with assumption [C] at depth 2, as frame [A]
        // with assumption [B, C] at depth 1, and renamed into a fresh
        // pool with skewed raw indices. All three share one entry.
        let regex = Regex::parse_literal("/^a*(a)?$/").expect("literal");
        let cegar = CegarSolver::default();
        let cache = CegarCache::new(16);
        let mut outcomes = Vec::new();
        for (padding, split) in [(0usize, 2usize), (0, 1), (3, 2)] {
            let mut pool = VarPool::new();
            for _ in 0..padding {
                pool.fresh_str();
            }
            let guard = pool.fresh_str();
            let c = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
            let conjuncts = [
                Formula::ne_lit(guard, "off"),
                Formula::eq_lit(c.input, "aa"),
                Formula::ne_lit(c.input, "zzz"),
            ];
            let mut session = SolveSession::new(Solver::default());
            for a in &conjuncts[..split] {
                session.push(vec![a.clone()]);
            }
            let result = cegar.solve_incremental(
                &session,
                split,
                &conjuncts[split..],
                std::slice::from_ref(&c),
                Some(&cache),
            );
            assert_eq!(result.stats.replayed, !outcomes.is_empty(), "split {split}");
            let model = result.outcome.model().expect("sat");
            assert!(!model.get_bool(c.captures[1].defined));
            outcomes.push(model.get_str(c.input).map(str::to_string));
        }
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().entries, 1);
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn a_model_rebuilt_after_eviction_still_replays() {
        // A one-entry ModelCache: the second regex evicts the first, so
        // the third lookup rebuilds it — a new shape `Arc` with equal
        // content, which must still replay the stored run.
        let models = crate::cache::ModelCache::new(1);
        let cfg = BuildConfig::default();
        let level = crate::SupportLevel::Refinement;
        let wanted = Regex::parse_literal("/^a*(a)?$/").expect("literal");
        let other = Regex::parse_literal("/^b+$/").expect("literal");
        let cegar = CegarSolver::default();
        let cache = CegarCache::new(16);
        let mut shapes = Vec::new();
        for (round, padding) in [(0, 0usize), (1, 2)] {
            let mut pool = VarPool::new();
            for _ in 0..padding {
                pool.fresh_str();
            }
            let (c, hit) = models.get_or_build(&wanted, true, level, &mut pool, &cfg);
            assert!(!hit, "round {round} must build");
            let mut session = SolveSession::new(Solver::default());
            session.push(vec![Formula::eq_lit(c.input, "aa")]);
            let result =
                cegar.solve_incremental(&session, 1, &[], std::slice::from_ref(&c), Some(&cache));
            assert_eq!(result.stats.replayed, round == 1, "round {round}");
            assert!(!result
                .outcome
                .model()
                .expect("sat")
                .get_bool(c.captures[1].defined));
            shapes.push(Arc::clone(c.group().shape));
            models.get_or_build(&other, true, level, &mut pool, &cfg);
        }
        assert_eq!(models.stats().evictions, 3);
        assert!(!Arc::ptr_eq(&shapes[0], &shapes[1]));
        assert_eq!(*shapes[0], *shapes[1]);
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
    }

    #[test]
    fn verdict_entries_weigh_what_they_own() {
        // Every run shares one large constraint model, and an entry
        // holds only a pointer to its shape: a budget of half a model
        // per run keeps all N runs resident.
        const N: usize = 4;
        let regex = Regex::parse_literal("/^(a){3,9}$/").expect("literal");
        let mut pool = VarPool::new();
        let guard = pool.fresh_str();
        let c = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
        let mut session = SolveSession::new(Solver::default());
        session.push(vec![Formula::ne_lit(guard, "off")]);
        let cache = CegarCache::with_byte_budget(64, N * c.formula.approx_bytes() / 2);
        let cegar = CegarSolver::default();
        for i in 0..N {
            let assumption = [Formula::ne_lit(c.input, format!("q{i}"))];
            let constraints = std::slice::from_ref(&c);
            cegar.solve_incremental(&session, 1, &assumption, constraints, Some(&cache));
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (N, 0), "{stats:?}");
        assert!(stats.bytes <= stats.byte_budget);
    }

    #[test]
    fn digest_collision_is_a_miss() {
        let (session, assumption, _, c) = incremental_fixture("/^a*(a)?$/", Some("aa"));
        let constraints = std::slice::from_ref(&c);
        let cegar = CegarSolver::default();
        let cache = CegarCache::new(16);
        cegar.solve_incremental(
            &session,
            session.depth(),
            &assumption,
            constraints,
            Some(&cache),
        );
        let posed = |items: &[Formula]| {
            let mut view = session.view_with(session.depth(), items, &[c.group()]);
            cegar.cache_probe(&session, &mut view, constraints).digest
        };
        // Force a collision: file the stored run under the digest of a
        // different query.
        let other = vec![Formula::ne_lit(c.input, "qqq")];
        let stored = cache.entries.get(&posed(&assumption)).expect("stored");
        cache.entries.insert(posed(&other), stored, 0);
        let before = cache.stats();

        let result =
            cegar.solve_incremental(&session, session.depth(), &other, constraints, Some(&cache));
        assert!(!result.stats.replayed);
        let after = cache.stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.hits, before.hits);
        let uncached =
            cegar.solve_incremental(&session, session.depth(), &other, constraints, None);
        assert_eq!(result.outcome, uncached.outcome);
        assert_eq!(result.stats.refinements, uncached.stats.refinements);
        assert_eq!(result.stats.limit_hit, uncached.stats.limit_hit);
        // The store after the miss replaced the colliding entry, so the
        // query now replays its own run.
        let again =
            cegar.solve_incremental(&session, session.depth(), &other, constraints, Some(&cache));
        assert!(again.stats.replayed);
        assert_eq!(again.outcome, uncached.outcome);
    }

    #[test]
    fn verdict_cache_separates_different_assumptions() {
        let (session, assumption, _, c) = incremental_fixture("/^a*(a)?$/", Some("aa"));
        let cegar = CegarSolver::default();
        let cache = CegarCache::new(16);
        cegar.solve_incremental(
            &session,
            session.depth(),
            &assumption,
            std::slice::from_ref(&c),
            Some(&cache),
        );
        // A different assumption must key a different entry.
        let other = vec![Formula::ne_lit(c.input, "qqq")];
        let result = cegar.solve_incremental(
            &session,
            session.depth(),
            &other,
            std::slice::from_ref(&c),
            Some(&cache),
        );
        assert!(!result.stats.replayed);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 2);
    }
}
