//! Assumption-stack (push/pop) solving for trace flip families.
//!
//! The flip queries of one DSE trace share long conjunction prefixes:
//! flip `k` asks `tie₀ ∧ … ∧ tieₖ₋₁ ∧ ¬tieₖ`, so siblings differ only
//! in their final assumption. A [`SolveSession`] holds that shared
//! prefix as a stack of *frames* — one per taken clause — and
//! canonicalizes each frame's conjuncts exactly once. Solving a flip
//! then assembles the query from the cached canonical prefix plus a
//! per-flip *assumption* (the flipped tie and its constraint models),
//! skipping the repeated renumbering pass and producing a
//! [`CanonicalQuery`] that is **byte-identical** to what a from-scratch
//! [`crate::cache::canonical_query`] over the whole conjunction would
//! return. Identical keys mean a verdict cached for one posing (see
//! `expose_core::cegar::CegarCache`) replays for every other — a child
//! trace re-posing its parent's prefix flips hits the same entries.
//!
//! # Retraction rules
//!
//! Everything carried across sibling flips is either immutable or
//! scoped to a frame:
//!
//! 1. **Canonical prefix frames** — [`SolveSession::pop`] truncates the
//!    conjunct list, the canonical conjunct list, and the renumbering
//!    state to the previous frame's watermarks; nothing pushed after
//!    that watermark survives.
//! 2. **Compiled DFAs, alphabets, folded products** — pure functions of
//!    regex and alphabet, shared via the solver's
//!    [`crate::DfaTables`]/DFA cache; reuse can never change a verdict,
//!    so no retraction is needed.
//! 3. **Cached verdicts** (including whole CEGAR refinement chains, see
//!    `expose_core::cegar::CegarCache`) are keyed by the *complete*
//!    canonical problem plus the solver fingerprint, so they can never
//!    be replayed for a different assumption — retraction-free by
//!    construction.
//! 4. **Learned length intervals** are *not* carried: a flip's
//!    conjunction is a superset of the prefix, so intervals recomputed
//!    from the full conjunction are always at least as tight as any
//!    prefix-derived ones — carrying them would add bookkeeping and no
//!    pruning. The length-abstraction pass therefore runs per query,
//!    inside the solve.
//!
//! The per-flip *assumption* (flipped tie, constraint model formulas,
//! CEGAR lemmas learned during its refinement loop) lives only in the
//! assembled query and dies with it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::{canonical_query, CanonicalQuery, Canonicalizer};
use crate::formula::{Atom, Formula};
use crate::solver::{Outcome, Solver};
use crate::stats::SolveStats;

/// Cumulative counters for one session's lifetime, snapshot via
/// [`SolveSession::session_stats`]. Unlike [`SolveStats`] (per solve),
/// these accumulate across every query assembled against the session —
/// the numbers a service `stats` probe reports for an active wire
/// session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries assembled against this session (one per posed flip,
    /// counting CEGAR verdict replays but not refinement iterations).
    pub solves: u64,
    /// Total prefix frames reused across those assemblies.
    pub prefix_reuse_hits: u64,
}

#[derive(Debug, Default)]
struct SessionCounters {
    solves: AtomicU64,
    prefix_reuse_hits: AtomicU64,
}

/// Watermarks recorded after one pushed frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Conjunct count after this frame.
    conjuncts: usize,
    /// Canonical string variables assigned after this frame.
    strs: usize,
    /// Canonical boolean variables assigned after this frame.
    bools: usize,
    /// True when a top-level `⊥` was pushed at or before this frame
    /// (the whole conjunction is then `⊥` at any deeper depth, exactly
    /// like [`Formula::and`]'s short-circuit).
    has_false: bool,
}

const ROOT: Frame = Frame {
    conjuncts: 0,
    strs: 0,
    bools: 0,
    has_false: false,
};

/// One flip query assembled against a session prefix: the conjunction
/// in the caller's variable space plus its canonicalization, ready for
/// a verdict-cache lookup.
#[derive(Debug, Clone)]
pub struct SessionQuery {
    /// The assembled conjunction in the caller's variable space —
    /// exactly what `Formula::and(prefix ++ assumption)` returns.
    pub original: Formula,
    /// Its canonicalization — exactly what
    /// [`crate::cache::canonical_query`] on [`SessionQuery::original`]
    /// returns, assembled without re-renumbering the prefix.
    pub canonical: CanonicalQuery,
    reused_frames: u64,
}

impl SessionQuery {
    /// Prefix frames whose canonical form was reused (not re-derived)
    /// when assembling this query.
    pub fn reused_frames(&self) -> u64 {
        self.reused_frames
    }
}

/// An incremental solver over a stack of shared conjunction frames.
///
/// Build the stack with [`SolveSession::push`] (one frame per taken
/// trace clause), then solve each flip with [`SolveSession::solve_at`]:
/// the query at depth `d` is the conjunction of frames `0..d` plus the
/// flip's assumption formulas. Assembly reuses the canonical prefix
/// and yields the same canonical key a from-scratch query would; solving
/// is a plain [`Solver::solve`] of the assembled conjunction. See the
/// module docs for the retraction rules.
///
/// Solving takes `&self`, so once the stack is built the session can be
/// shared across flip worker threads.
///
/// # Examples
///
/// ```
/// use strsolve::{session::SolveSession, Formula, Solver, VarPool};
///
/// let mut pool = VarPool::new();
/// let v = pool.fresh_str("v");
/// let mut session = SolveSession::new(Solver::default());
/// session.push(vec![Formula::eq_lit(v, "hello")]);
/// // Flip query at depth 1: prefix ∧ assumption.
/// let (outcome, stats) = session.solve_at(1, &[Formula::ne_lit(v, "world")]);
/// assert!(outcome.is_sat());
/// assert_eq!(stats.prefix_reuse_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SolveSession {
    solver: Solver,
    /// The flattened conjunct stream in caller variable space.
    conjuncts: Vec<Formula>,
    /// Canonical counterparts, 1:1 with `conjuncts`.
    canon_conjuncts: Vec<Formula>,
    /// Renumbering state after all pushed frames.
    canon: Canonicalizer,
    frames: Vec<Frame>,
    /// Lifetime counters, shared by clones of this session (a clone is
    /// the same logical session viewed from another worker thread).
    counters: Arc<SessionCounters>,
}

impl SolveSession {
    /// Creates an empty session around a solver (typically a clone
    /// sharing the run's caches).
    pub fn new(solver: Solver) -> SolveSession {
        SolveSession {
            solver,
            conjuncts: Vec::new(),
            canon_conjuncts: Vec::new(),
            canon: Canonicalizer::new(),
            frames: Vec::new(),
            counters: Arc::new(SessionCounters::default()),
        }
    }

    /// Snapshot of the session's cumulative counters: queries assembled
    /// and prefix frames reused, across the session's whole lifetime
    /// (pops do not rewind them).
    pub fn session_stats(&self) -> SessionStats {
        SessionStats {
            solves: self.counters.solves.load(Ordering::Relaxed),
            prefix_reuse_hits: self.counters.prefix_reuse_hits.load(Ordering::Relaxed),
        }
    }

    /// The underlying solver (CEGAR refinement iterations solve through
    /// it).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Number of pushed frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Pushes one frame of conjuncts onto the stack.
    ///
    /// The items are folded into the conjunct stream with
    /// [`Formula::and`]'s exact semantics — `⊤` dropped, a top-level
    /// `⊥` poisoning every deeper depth, one level of `And` flattening
    /// — and canonicalized against the state left by earlier frames.
    pub fn push(&mut self, items: Vec<Formula>) {
        let mut has_false = self.frames.last().is_some_and(|f| f.has_false);
        for item in items {
            match item {
                Formula::Atom(Atom::True) => {}
                Formula::Atom(Atom::False) => has_false = true,
                Formula::And(inner) => {
                    for f in inner {
                        let c = self.canon.formula(&f);
                        self.conjuncts.push(f);
                        self.canon_conjuncts.push(c);
                    }
                }
                other => {
                    let c = self.canon.formula(&other);
                    self.conjuncts.push(other);
                    self.canon_conjuncts.push(c);
                }
            }
        }
        self.frames.push(Frame {
            conjuncts: self.conjuncts.len(),
            strs: self.canon.str_vars().len(),
            bools: self.canon.bool_vars().len(),
            has_false,
        });
    }

    /// Retracts the top frame: conjuncts, canonical conjuncts and
    /// renumbering state are truncated to the previous frame's
    /// watermarks (retraction rule 1).
    ///
    /// # Panics
    ///
    /// Panics when no frame is pushed.
    pub fn pop(&mut self) {
        self.frames.pop().expect("pop on an empty session");
        let prev = self.frames.last().copied().unwrap_or(ROOT);
        self.conjuncts.truncate(prev.conjuncts);
        self.canon_conjuncts.truncate(prev.conjuncts);
        self.canon = Canonicalizer::seeded(
            &self.canon.str_vars()[..prev.strs],
            &self.canon.bool_vars()[..prev.bools],
        );
    }

    /// Assembles the query "frames `0..depth` plus `assumption`".
    ///
    /// Both the original-space conjunction and its canonicalization are
    /// byte-identical to what a from-scratch
    /// `canonical_query(&Formula::and(...))` over the same conjuncts
    /// would produce; only the prefix renumbering work is skipped.
    ///
    /// # Panics
    ///
    /// Panics when `depth` exceeds [`SolveSession::depth`].
    pub fn assemble(&self, depth: usize, assumption: &[Formula]) -> SessionQuery {
        assert!(depth <= self.frames.len(), "assemble beyond session depth");
        self.counters.solves.fetch_add(1, Ordering::Relaxed);
        self.counters
            .prefix_reuse_hits
            .fetch_add(depth as u64, Ordering::Relaxed);
        let frame = if depth == 0 {
            ROOT
        } else {
            self.frames[depth - 1]
        };
        // Flatten the assumption with Formula::and's semantics.
        let mut extra: Vec<&Formula> = Vec::new();
        let mut has_false = frame.has_false;
        for item in assumption {
            match item {
                Formula::Atom(Atom::True) => {}
                Formula::Atom(Atom::False) => has_false = true,
                Formula::And(inner) => extra.extend(inner.iter()),
                other => extra.push(other),
            }
        }
        if has_false {
            return SessionQuery {
                original: Formula::bottom(),
                canonical: canonical_query(&Formula::bottom()),
                reused_frames: depth as u64,
            };
        }

        let prefix = &self.conjuncts[..frame.conjuncts];
        let canon_prefix = &self.canon_conjuncts[..frame.conjuncts];
        let mut canon = Canonicalizer::seeded(
            &self.canon.str_vars()[..frame.strs],
            &self.canon.bool_vars()[..frame.bools],
        );
        let canon_extra: Vec<Formula> = extra.iter().map(|f| canon.formula(f)).collect();

        let total = prefix.len() + extra.len();
        let (original, formula) = match total {
            0 => (Formula::top(), Formula::top()),
            1 => match prefix.first() {
                Some(single) => (single.clone(), canon_prefix[0].clone()),
                None => (extra[0].clone(), canon_extra[0].clone()),
            },
            _ => (
                Formula::And(
                    prefix
                        .iter()
                        .cloned()
                        .chain(extra.iter().map(|f| (*f).clone()))
                        .collect(),
                ),
                Formula::And(canon_prefix.iter().cloned().chain(canon_extra).collect()),
            ),
        };
        SessionQuery {
            original,
            canonical: CanonicalQuery { formula, canon },
            reused_frames: depth as u64,
        }
    }

    /// [`SolveSession::assemble`] followed by a plain [`Solver::solve`]
    /// of the conjunction. The returned stats count the reused prefix
    /// frames as [`SolveStats::prefix_reuse_hits`].
    pub fn solve_at(&self, depth: usize, assumption: &[Formula]) -> (Outcome, SolveStats) {
        let query = self.assemble(depth, assumption);
        let (outcome, mut stats) = self.solver.solve(&query.original);
        stats.prefix_reuse_hits += query.reused_frames;
        (outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::vars::{Term, VarPool};
    use automata::{CRegex, CharSet};

    /// A small structured corpus: prefix frames + assumptions built
    /// from one pool, exercising concat equations, regex membership
    /// and literal (dis)equalities.
    fn corpus() -> (Vec<Vec<Formula>>, Vec<Vec<Formula>>) {
        let mut pool = VarPool::new();
        let w = pool.fresh_str("w");
        let p1 = pool.fresh_str("p1");
        let p2 = pool.fresh_str("p2");
        let q = pool.fresh_str("q");
        let frames = vec![
            vec![Formula::eq_concat(
                w,
                vec![Term::Var(p1), Term::lit("-"), Term::Var(p2)],
            )],
            vec![
                Formula::in_re(p1, CRegex::plus(CRegex::set(CharSet::range('a', 'c')))),
                Formula::top(), // dropped by and()
            ],
            vec![Formula::and(vec![
                Formula::in_re(p2, CRegex::plus(CRegex::set(CharSet::range('0', '9')))),
                Formula::ne_lit(p2, "0"),
            ])],
        ];
        let assumptions = vec![
            vec![Formula::ne_lit(w, "a-1")],
            vec![Formula::eq_lit(q, "z"), Formula::eq_var(q, p1)],
            vec![Formula::not_in_re(p1, CRegex::lit("a"))],
        ];
        (frames, assumptions)
    }

    fn scratch_conjunction(
        frames: &[Vec<Formula>],
        depth: usize,
        assumption: &[Formula],
    ) -> Formula {
        let mut items: Vec<Formula> = frames[..depth].iter().flatten().cloned().collect();
        items.extend(assumption.iter().cloned());
        Formula::and(items)
    }

    #[test]
    fn assembled_queries_match_scratch_bytes() {
        let (frames, assumptions) = corpus();
        let mut session = SolveSession::new(Solver::default());
        for frame in &frames {
            session.push(frame.clone());
        }
        for depth in 0..=frames.len() {
            for assumption in &assumptions {
                let scratch = scratch_conjunction(&frames, depth, assumption);
                let scratch_canon = canonical_query(&scratch);
                let q = session.assemble(depth, assumption);
                assert_eq!(q.original, scratch, "original at depth {depth}");
                assert_eq!(
                    q.canonical.formula, scratch_canon.formula,
                    "canonical formula at depth {depth}"
                );
                assert_eq!(q.canonical.str_vars(), scratch_canon.str_vars());
                assert_eq!(q.canonical.bool_vars(), scratch_canon.bool_vars());
            }
        }
    }

    #[test]
    fn verdicts_and_models_match_scratch() {
        let (frames, assumptions) = corpus();
        let uncached = Solver::new(SolverConfig::default());
        let mut session = SolveSession::new(uncached.clone());
        for frame in &frames {
            session.push(frame.clone());
        }
        for depth in 0..=frames.len() {
            for assumption in &assumptions {
                let scratch = scratch_conjunction(&frames, depth, assumption);
                let (expected, _) = uncached.solve(&scratch);
                let (got, _) = session.solve_at(depth, assumption);
                assert_eq!(got, expected, "depth {depth}");
            }
        }
    }

    #[test]
    fn pop_retracts_to_previous_watermark() {
        let (frames, assumptions) = corpus();
        let mut session = SolveSession::new(Solver::default());
        session.push(frames[0].clone());
        let baseline = session.assemble(1, &assumptions[0]);

        session.push(frames[1].clone());
        session.push(frames[2].clone());
        session.pop();
        session.pop();
        assert_eq!(session.depth(), 1);
        let retracted = session.assemble(1, &assumptions[0]);
        assert_eq!(retracted.original, baseline.original);
        assert_eq!(retracted.canonical.formula, baseline.canonical.formula);

        // The retracted slot can be refilled with different content.
        session.push(vec![Formula::eq_lit(
            VarPool::new().fresh_str("fresh"),
            "x",
        )]);
        assert_eq!(session.depth(), 2);
    }

    #[test]
    fn session_stats_accumulate_across_solves_and_clones() {
        let (frames, assumptions) = corpus();
        let mut session = SolveSession::new(Solver::default());
        for frame in &frames {
            session.push(frame.clone());
        }
        assert_eq!(session.session_stats(), SessionStats::default());

        session.solve_at(3, &assumptions[0]);
        session.solve_at(1, &assumptions[1]);
        let stats = session.session_stats();
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.prefix_reuse_hits, 4);

        // A clone is the same logical session: its solves land in the
        // shared counters, and pops do not rewind them.
        let clone = session.clone();
        clone.solve_at(2, &assumptions[2]);
        session.pop();
        let stats = session.session_stats();
        assert_eq!(stats.solves, 3);
        assert_eq!(stats.prefix_reuse_hits, 6);
    }

    #[test]
    fn top_level_false_poisons_deeper_depths() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str("v");
        let mut session = SolveSession::new(Solver::default());
        session.push(vec![Formula::eq_lit(v, "a")]);
        session.push(vec![Formula::bottom()]);
        let clean = session.assemble(1, &[]);
        assert_eq!(clean.original, Formula::eq_lit(v, "a"));
        let poisoned = session.assemble(2, &[Formula::ne_lit(v, "b")]);
        assert_eq!(poisoned.original, Formula::bottom());
        let (outcome, _) = session.solve_at(2, &[]);
        assert_eq!(outcome, Outcome::Unsat);
    }
}
