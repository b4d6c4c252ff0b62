//! Assumption-stack (push/pop) solving for trace flip families.
//!
//! The flip queries of one DSE trace share long conjunction prefixes:
//! flip `k` asks `tie₀ ∧ … ∧ tieₖ₋₁ ∧ ¬tieₖ`, so siblings differ only
//! in their final assumption. A [`SolveSession`] holds that shared
//! prefix as a stack of *frames* — one per taken clause — and
//! canonicalizes each frame's conjuncts exactly once, chaining a 64-bit
//! structural digest over the canonical conjunct list as it goes.
//! Posing a flip ([`SolveSession::view_with`]) canonicalizes only the
//! per-flip assumption *items* (the flipped tie) and chains them onto
//! the frame's digest. The rest of the assumption — the constraint
//! models — is posed as *groups*: each carries a [`Shape`], the model
//! formula canonicalized once when it was built, and the view only maps
//! the shape's variables into the query's numbering and chains the
//! shape's digest with those ids. The resulting [`SessionView`] borrows
//! the canonical prefix and the group formulas instead of copying them;
//! its canonical conjunct list is exactly the flattened
//! [`crate::cache::canonical_query`] of the whole conjunction, and its
//! digest is a function of that list and its grouping into shapes —
//! not of where the prefix/assumption split falls, nor of which
//! [`crate::VarPool`] posed the query. So a verdict cached for one
//! posing (see `expose_core::cegar::CegarCache`, keyed by the compact
//! [`ViewKey`]) replays for every other — a child trace re-posing its
//! parent's prefix flips hits the same entries. The caller-space
//! conjunction is built only when a solve needs it
//! ([`SessionView::original`]).
//!
//! # Retraction rules
//!
//! Everything carried across sibling flips is either immutable or
//! scoped to a frame:
//!
//! 1. **Canonical prefix frames** — [`SolveSession::pop`] truncates the
//!    conjunct list, the canonical conjunct list, the digest chain and
//!    the renumbering state to the previous frame's watermarks; nothing
//!    pushed after that watermark survives.
//! 2. **Compiled DFAs, alphabets, folded products** — pure functions of
//!    regex and alphabet, shared via the solver's
//!    [`crate::DfaTables`]/DFA cache; reuse can never change a verdict,
//!    so no retraction is needed.
//! 3. **Cached verdicts** (including whole CEGAR refinement chains, see
//!    `expose_core::cegar::CegarCache`) are selected by the digest but
//!    decided by comparing the complete [`ViewKey`] — which determines
//!    the canonical conjunct list — plus the solver fingerprint, so
//!    they can never be replayed for a different assumption —
//!    retraction-free by construction.
//! 4. **Learned length intervals** are *not* carried: a flip's
//!    conjunction is a superset of the prefix, so intervals recomputed
//!    from the full conjunction are always at least as tight as any
//!    prefix-derived ones — carrying them would add bookkeeping and no
//!    pruning. The length-abstraction pass therefore runs per query,
//!    inside the solve.
//!
//! The per-flip *assumption* (flipped tie, constraint model formulas,
//! CEGAR lemmas learned during its refinement loop) lives only in the
//! view and the query built from it, and dies with them.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use automata::FxHasher;

use crate::cache::Canonicalizer;
use crate::formula::{Atom, Formula};
use crate::solver::{Outcome, Solver};
use crate::stats::SolveStats;
use crate::vars::{BoolVar, StrVar};

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
    /// Chained digest of the canonical conjuncts after this frame.
    digest: u64,
}

const ROOT: Frame = Frame {
    conjuncts: 0,
    strs: 0,
    bools: 0,
    has_false: false,
    digest: EMPTY_DIGEST,
};

/// The digest of the empty conjunct list.
const EMPTY_DIGEST: u64 = 0;

/// The caller-space conjunct a poisoned view stands for.
static BOTTOM: Formula = Formula::Atom(Atom::False);

/// Chains one canonical conjunct onto the digest of the list before it.
fn chain_digest(prev: u64, conjunct: &Formula) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u64(prev);
    conjunct.hash(&mut hasher);
    hasher.finish()
}

/// Chains one posed group — its shape and the query's ids of the
/// shape's variables — onto the digest of the list before it.
fn chain_group(prev: u64, shape: &Shape, strs: &[u32], bools: &[u32]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u64(prev);
    hasher.write_u64(shape.digest);
    strs.hash(&mut hasher);
    bools.hash(&mut hasher);
    hasher.finish()
}

/// The structural digest of a canonical conjunct list — what
/// [`SessionView::digest`] returns for a view with that list posed
/// without groups, however the list was split into frames and
/// assumption.
pub fn conjunct_digest<'a>(conjuncts: impl IntoIterator<Item = &'a Formula>) -> u64 {
    conjuncts.into_iter().fold(EMPTY_DIGEST, chain_digest)
}

/// The conjunction of a flattened list of `len` conjuncts, exactly as
/// [`Formula::and`] assembles it.
fn conjoin<'a>(len: usize, mut items: impl Iterator<Item = &'a Formula>) -> Formula {
    match len {
        0 => Formula::top(),
        1 => items.next().expect("one item").clone(),
        _ => Formula::And(items.cloned().collect()),
    }
}

/// The conjuncts one assumption item contributes under
/// [`Formula::and`]'s rules: none for `⊤`, `None` (the conjunction is
/// `⊥`) for `⊥`, the items of a top-level `And` (one level), or the
/// item itself.
fn flatten(item: &Formula) -> Option<&[Formula]> {
    match item {
        Formula::Atom(Atom::True) => Some(&[]),
        Formula::Atom(Atom::False) => None,
        Formula::And(inner) => Some(inner),
        other => Some(std::slice::from_ref(other)),
    }
}

/// One assumption item canonicalized on its own, once: its flattened
/// conjuncts (exactly as [`SolveSession::view`] flattens an item),
/// renumbered from `0` in first-occurrence order, plus the item's
/// variables in that order.
///
/// Posing the item again only needs its variables mapped into the
/// query's numbering ([`SolveSession::view_with`]): an item's canonical
/// conjuncts inside a query are its shape's conjuncts with shape index
/// `i` replaced by the query's canonical index of the item's `i`-th
/// variable. So a formula that is posed again and again under
/// different variable numberings — a regex's constraint model — is
/// canonicalized once, not per query.
///
/// A shape's identity is its canonical conjuncts alone: two shapes are
/// equal when their items are equal up to renaming, whichever variables
/// they were built on. The variable list is posing data.
#[derive(Debug)]
pub struct Shape {
    /// The canonical conjuncts, in the shape's own numbering.
    conjuncts: Vec<Formula>,
    /// True when the item is `⊥` (it then has no conjuncts).
    bottom: bool,
    /// The item's string variables in first-occurrence order.
    strs: Vec<StrVar>,
    /// The item's boolean variables in first-occurrence order.
    bools: Vec<BoolVar>,
    /// [`conjunct_digest`] of `conjuncts`.
    digest: u64,
}

impl Shape {
    /// Canonicalizes one assumption item.
    pub fn of(item: &Formula) -> Shape {
        let mut canon = Canonicalizer::new();
        let conjuncts: Vec<Formula> = flatten(item)
            .unwrap_or_default()
            .iter()
            .map(|f| canon.formula(f))
            .collect();
        Shape {
            digest: conjunct_digest(&conjuncts),
            conjuncts,
            bottom: flatten(item).is_none(),
            strs: canon.str_vars().to_vec(),
            bools: canon.bool_vars().to_vec(),
        }
    }

    /// True when this shape, posed with the given offsets from its
    /// variables, is exactly the shape of `item` — the check that an
    /// item was not changed after its shape was taken.
    pub fn describes(&self, item: &Formula, str_offset: u32, bool_offset: u32) -> bool {
        let fresh = Shape::of(item);
        fresh == *self
            && fresh.strs.len() == self.strs.len()
            && fresh.bools.len() == self.bools.len()
            && fresh
                .strs
                .iter()
                .zip(&self.strs)
                .all(|(f, s)| *f == s.offset_by(str_offset))
            && fresh
                .bools
                .iter()
                .zip(&self.bools)
                .all(|(f, b)| *f == b.offset_by(bool_offset))
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Shape) -> bool {
        self.bottom == other.bottom && self.conjuncts == other.conjuncts
    }
}

impl Eq for Shape {}

/// An assumption item posed through its precomputed [`Shape`]: the item
/// in the caller's variables, and the offsets that carry the shape's
/// variables onto the item's (a shape taken before
/// [`Formula::offset_vars`] rebased the item).
#[derive(Debug, Clone, Copy)]
pub struct Group<'a> {
    /// The item in caller space; read only to assemble
    /// [`SessionView::original`].
    pub formula: &'a Formula,
    /// The item's shape.
    pub shape: &'a Arc<Shape>,
    /// Offset from the shape's string variables to the item's.
    pub str_offset: u32,
    /// Offset from the shape's boolean variables to the item's.
    pub bool_offset: u32,
}

/// The stored identity of one [`SessionView`], compact: the canonical
/// prefix and item conjuncts, plus each group's shape and its variable
/// ids in the query's numbering. [`SessionView::matches`] decides
/// equality against a posed view without allocating. Equal keys imply
/// equal canonical conjunct lists ([`SessionView::conjuncts`]).
#[derive(Debug)]
pub struct ViewKey {
    conjuncts: Vec<Formula>,
    shapes: Vec<Arc<Shape>>,
    str_ids: Vec<u32>,
    bool_ids: Vec<u32>,
}

impl ViewKey {
    /// Approximate bytes the key owns: its canonical conjuncts and id
    /// lists, and one pointer per shape. The shapes themselves are
    /// shared with the constraint models they were taken from.
    pub fn approx_bytes(&self) -> usize {
        self.conjuncts
            .iter()
            .map(Formula::approx_bytes)
            .sum::<usize>()
            + self.shapes.len() * std::mem::size_of::<Arc<Shape>>()
            + (self.str_ids.len() + self.bool_ids.len()) * std::mem::size_of::<u32>()
    }
}

/// One flip query posed against a session prefix, ready for a
/// verdict-cache lookup: its canonical prefix (borrowed from the
/// session), its canonicalized assumption items, its groups as shapes
/// plus variable ids, the chained digest of all of that, and the
/// renumbering back to the caller's variables. Neither the prefix nor a
/// group's formula is copied or renumbered; the caller-space
/// conjunction is built only on demand by [`SessionView::original`],
/// and the canonical conjunct list only by [`SessionView::conjuncts`].
#[derive(Debug)]
pub struct SessionView<'a> {
    /// Caller-space prefix conjuncts (frames `0..depth`).
    prefix: &'a [Formula],
    /// Caller-space assumption item conjuncts, flattened.
    extra: Vec<&'a Formula>,
    /// The posed groups with a conjunct (`⊤` groups add nothing).
    groups: Vec<Group<'a>>,
    /// Canonical counterparts of `prefix`, borrowed from the session.
    canon_prefix: &'a [Formula],
    /// Canonical counterparts of `extra`.
    canon_tail: Vec<Formula>,
    /// Per group in order, the query's canonical ids of the shape's
    /// string variables.
    str_ids: Vec<u32>,
    /// Per group in order, the query's canonical ids of the shape's
    /// boolean variables.
    bool_ids: Vec<u32>,
    /// Length of the canonical conjunct list.
    len: usize,
    canon: Canonicalizer,
    digest: u64,
    reused_frames: u64,
}

impl<'a> SessionView<'a> {
    /// The canonical conjunct list, materialized: exactly the conjuncts
    /// of the flattened [`crate::cache::canonical_query`] of
    /// [`SessionView::original`] (`[]` for `⊤`, `[⊥]` for `⊥`).
    pub fn conjuncts(&self) -> Vec<Formula> {
        let mut list: Vec<Formula> = self.canon_prefix.to_vec();
        list.extend(self.canon_tail.iter().cloned());
        let (mut s, mut b) = (0, 0);
        for group in &self.groups {
            let shape = group.shape;
            let strs = &self.str_ids[s..s + shape.strs.len()];
            let bools = &self.bool_ids[b..b + shape.bools.len()];
            list.extend(shape.conjuncts.iter().map(|c| {
                c.map_vars(
                    &|v: StrVar| StrVar(strs[v.index() as usize]),
                    &|v: BoolVar| BoolVar(bools[v.index() as usize]),
                )
            }));
            s += shape.strs.len();
            b += shape.bools.len();
        }
        list
    }

    /// The compact identity of this view, to store next to a cached
    /// verdict.
    pub fn key(&self) -> ViewKey {
        let mut conjuncts = self.canon_prefix.to_vec();
        conjuncts.extend(self.canon_tail.iter().cloned());
        ViewKey {
            conjuncts,
            shapes: self.groups.iter().map(|g| Arc::clone(g.shape)).collect(),
            str_ids: self.str_ids.clone(),
            bool_ids: self.bool_ids.clone(),
        }
    }

    /// True when `key` is this view's [`SessionView::key`]; compares in
    /// place, without allocating, and short-circuits on shared shapes.
    /// Equal conjuncts, shapes and ids imply an equal canonical
    /// conjunct list, so a match is exact.
    pub fn matches(&self, key: &ViewKey) -> bool {
        let split = self.canon_prefix.len();
        key.conjuncts.len() == split + self.canon_tail.len()
            && key.conjuncts[..split] == *self.canon_prefix
            && key.conjuncts[split..] == *self.canon_tail
            && key.shapes.len() == self.groups.len()
            && key
                .shapes
                .iter()
                .zip(&self.groups)
                .all(|(a, g)| Arc::ptr_eq(a, g.shape) || **a == **g.shape)
            && key.str_ids == self.str_ids
            && key.bool_ids == self.bool_ids
    }

    /// The chained structural digest of the view. Without groups it is
    /// [`conjunct_digest`] of [`SessionView::conjuncts`]; each group
    /// chains its shape's digest and variable ids instead of its
    /// conjuncts, so the digest is a function of the canonical list and
    /// its grouping into shapes. Equal keys give equal digests; the
    /// converse holds only up to 64-bit collisions, so a digest may
    /// select a cached entry but never decide it.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The renumbering of the query: canonical index → caller variable.
    pub fn canonicalizer(&self) -> &Canonicalizer {
        &self.canon
    }

    /// Maps a string variable into the query's renumbering, assigning
    /// the next canonical index on first occurrence, for variables that
    /// may not occur in the view's conjuncts (e.g. a capture variable of
    /// an approximate constraint model). The digest, key and ids were
    /// fixed when the view was built; this extends only
    /// [`SessionView::canonicalizer`].
    pub fn map_str(&mut self, v: StrVar) -> StrVar {
        self.canon.map_str(v)
    }

    /// Maps a boolean variable into the query's renumbering (see
    /// [`SessionView::map_str`]).
    pub fn map_bool(&mut self, v: BoolVar) -> BoolVar {
        self.canon.map_bool(v)
    }

    /// The assembled conjunction in the caller's variable space —
    /// exactly what `Formula::and(prefix ++ items ++ group formulas)`
    /// returns.
    pub fn original(&self) -> Formula {
        let groups = self
            .groups
            .iter()
            .flat_map(|g| flatten(g.formula).unwrap_or_default());
        conjoin(
            self.len,
            self.prefix
                .iter()
                .chain(self.extra.iter().copied())
                .chain(groups),
        )
    }

    /// The assembled canonical conjunction — exactly the formula of
    /// [`crate::cache::canonical_query`] on [`SessionView::original`].
    pub fn canonical(&self) -> Formula {
        let list = self.conjuncts();
        conjoin(list.len(), list.iter())
    }

    /// Prefix frames whose canonical form was reused (not re-derived)
    /// for this view.
    pub fn reused_frames(&self) -> u64 {
        self.reused_frames
    }
}

/// An incremental solver over a stack of shared conjunction frames.
///
/// Build the stack with [`SolveSession::push`] (one frame per taken
/// trace clause), then solve each flip with [`SolveSession::solve_at`]:
/// the query at depth `d` is the conjunction of frames `0..d` plus the
/// flip's assumption formulas. [`SolveSession::view`] reuses the
/// canonical prefix and its digest and yields the same canonical
/// conjunct list a from-scratch query would; solving is a plain
/// [`Solver::solve`] of the assembled conjunction. See the module docs
/// for the retraction rules.
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
/// let v = pool.fresh_str();
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
        let top = self.frames.last().copied().unwrap_or(ROOT);
        let mut has_false = top.has_false;
        let mut digest = top.digest;
        for item in items {
            match item {
                Formula::Atom(Atom::True) => {}
                Formula::Atom(Atom::False) => has_false = true,
                Formula::And(inner) => {
                    for f in inner {
                        digest = self.push_conjunct(digest, f);
                    }
                }
                other => digest = self.push_conjunct(digest, other),
            }
        }
        self.frames.push(Frame {
            conjuncts: self.conjuncts.len(),
            strs: self.canon.str_vars().len(),
            bools: self.canon.bool_vars().len(),
            has_false,
            digest,
        });
    }

    /// Appends one flattened conjunct and its canonical form; returns
    /// the digest chained over it.
    fn push_conjunct(&mut self, digest: u64, f: Formula) -> u64 {
        let c = self.canon.formula(&f);
        let digest = chain_digest(digest, &c);
        self.conjuncts.push(f);
        self.canon_conjuncts.push(c);
        digest
    }

    /// Retracts the top frame: conjuncts, canonical conjuncts, the
    /// digest chain and renumbering state are truncated to the previous
    /// frame's watermarks (retraction rule 1).
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

    /// Poses the query "frames `0..depth` plus `assumption`":
    /// [`SolveSession::view_with`] without groups.
    ///
    /// # Panics
    ///
    /// Panics when `depth` exceeds [`SolveSession::depth`].
    pub fn view<'a>(&'a self, depth: usize, assumption: &'a [Formula]) -> SessionView<'a> {
        self.view_with(depth, assumption, &[])
    }

    /// Poses the query "frames `0..depth` plus `items` plus the
    /// `groups`' formulas".
    ///
    /// Only the items are canonicalized (against the renumbering state
    /// at the frame watermark) and chained onto the frame's digest; the
    /// canonical prefix is borrowed. Each group then maps its shape's
    /// variables, shifted by the group's offsets, through the same
    /// renumbering in order — which assigns exactly the ids that
    /// canonicalizing its formula would — and chains its shape's digest
    /// and those ids. The view's canonical conjunct list and
    /// renumbering are byte-identical to a from-scratch
    /// `canonical_query(&Formula::and(...))` over the same conjuncts,
    /// and [`SessionView::original`] to the `Formula::and` itself.
    ///
    /// # Panics
    ///
    /// Panics when `depth` exceeds [`SolveSession::depth`].
    pub fn view_with<'a>(
        &'a self,
        depth: usize,
        items: &'a [Formula],
        groups: &[Group<'a>],
    ) -> SessionView<'a> {
        assert!(depth <= self.frames.len(), "view beyond session depth");
        self.counters.solves.fetch_add(1, Ordering::Relaxed);
        self.counters
            .prefix_reuse_hits
            .fetch_add(depth as u64, Ordering::Relaxed);
        let frame = if depth == 0 {
            ROOT
        } else {
            self.frames[depth - 1]
        };
        // Flatten the items with Formula::and's semantics.
        let mut extra: Vec<&Formula> = Vec::new();
        let mut has_false = frame.has_false;
        for item in items {
            match flatten(item) {
                Some(conjuncts) => extra.extend(conjuncts),
                None => has_false = true,
            }
        }
        has_false |= groups.iter().any(|g| g.shape.bottom);
        if has_false {
            return SessionView {
                prefix: &[],
                extra: vec![&BOTTOM],
                groups: Vec::new(),
                canon_prefix: &[],
                canon_tail: vec![Formula::bottom()],
                str_ids: Vec::new(),
                bool_ids: Vec::new(),
                len: 1,
                canon: Canonicalizer::new(),
                digest: chain_digest(EMPTY_DIGEST, &BOTTOM),
                reused_frames: depth as u64,
            };
        }

        let mut canon = Canonicalizer::seeded(
            &self.canon.str_vars()[..frame.strs],
            &self.canon.bool_vars()[..frame.bools],
        );
        let mut digest = frame.digest;
        let canon_tail: Vec<Formula> = extra
            .iter()
            .map(|f| {
                let c = canon.formula(f);
                digest = chain_digest(digest, &c);
                c
            })
            .collect();
        let groups: Vec<Group<'a>> = groups
            .iter()
            .filter(|g| !g.shape.conjuncts.is_empty())
            .copied()
            .collect();
        let mut str_ids = Vec::new();
        let mut bool_ids = Vec::new();
        let mut len = frame.conjuncts + canon_tail.len();
        for group in &groups {
            let shape = group.shape;
            let (s, b) = (str_ids.len(), bool_ids.len());
            str_ids.extend(
                shape
                    .strs
                    .iter()
                    .map(|v| canon.map_str(v.offset_by(group.str_offset)).index()),
            );
            bool_ids.extend(
                shape
                    .bools
                    .iter()
                    .map(|v| canon.map_bool(v.offset_by(group.bool_offset)).index()),
            );
            digest = chain_group(digest, shape, &str_ids[s..], &bool_ids[b..]);
            len += shape.conjuncts.len();
        }
        SessionView {
            prefix: &self.conjuncts[..frame.conjuncts],
            extra,
            groups,
            canon_prefix: &self.canon_conjuncts[..frame.conjuncts],
            canon_tail,
            str_ids,
            bool_ids,
            len,
            canon,
            digest,
            reused_frames: depth as u64,
        }
    }

    /// [`SolveSession::view`] followed by a plain [`Solver::solve`] of
    /// the conjunction. The returned stats count the reused prefix
    /// frames as [`SolveStats::prefix_reuse_hits`].
    pub fn solve_at(&self, depth: usize, assumption: &[Formula]) -> (Outcome, SolveStats) {
        let view = self.view(depth, assumption);
        let (outcome, mut stats) = self.solver.solve(&view.original());
        stats.prefix_reuse_hits += view.reused_frames();
        (outcome, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::canonical_query;
    use crate::config::SolverConfig;
    use crate::vars::{Term, VarPool};
    use automata::{CRegex, CharSet};

    /// A small structured corpus: prefix frames + assumptions built
    /// from one pool, exercising concat equations, regex membership
    /// and literal (dis)equalities.
    fn corpus() -> (Vec<Vec<Formula>>, Vec<Vec<Formula>>) {
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let p1 = pool.fresh_str();
        let p2 = pool.fresh_str();
        let q = pool.fresh_str();
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

    /// The conjunct list of a canonical formula, flattened the way a
    /// view lists it.
    fn flattened(formula: &Formula) -> Vec<Formula> {
        match formula {
            Formula::Atom(Atom::True) => Vec::new(),
            Formula::And(items) => items.clone(),
            other => vec![other.clone()],
        }
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
                let q = session.view(depth, assumption);
                assert_eq!(q.original(), scratch, "original at depth {depth}");
                assert_eq!(
                    q.canonical(),
                    scratch_canon.formula,
                    "canonical formula at depth {depth}"
                );
                assert_eq!(q.canonicalizer().str_vars(), scratch_canon.str_vars());
                assert_eq!(q.canonicalizer().bool_vars(), scratch_canon.bool_vars());
            }
        }
    }

    #[test]
    fn view_digest_is_a_function_of_the_canonical_list() {
        let (frames, assumptions) = corpus();
        let mut session = SolveSession::new(Solver::default());
        for frame in &frames {
            session.push(frame.clone());
        }
        for depth in 0..=frames.len() {
            for assumption in &assumptions {
                let scratch = scratch_conjunction(&frames, depth, assumption);
                let list = flattened(&canonical_query(&scratch).formula);
                let view = session.view(depth, assumption);
                assert_eq!(view.conjuncts(), list, "conjunct list at depth {depth}");
                assert_eq!(view.digest(), conjunct_digest(&list), "depth {depth}");

                // The same list pushed conjunct by conjunct, one frame
                // each, carries the same digest at full depth.
                let mut single = SolveSession::new(Solver::default());
                for c in &list {
                    single.push(vec![c.clone()]);
                }
                assert_eq!(single.view(list.len(), &[]).digest(), view.digest());
            }
        }
    }

    #[test]
    fn digest_follows_a_pop_and_a_different_push() {
        let (frames, _) = corpus();
        let mut session = SolveSession::new(Solver::default());
        session.push(frames[0].clone());
        session.push(frames[1].clone());
        let before = session.view(2, &[]).digest();

        session.pop();
        assert_eq!(session.view(1, &[]).digest(), {
            let list = flattened(&canonical_query(&scratch_conjunction(&frames, 1, &[])).formula);
            conjunct_digest(&list)
        });
        session.push(frames[2].clone());
        let view = session.view(2, &[]);
        let mut items = frames[0].clone();
        items.extend(frames[2].iter().cloned());
        let list = flattened(&canonical_query(&Formula::and(items)).formula);
        assert_eq!(view.digest(), conjunct_digest(&list));
        assert_eq!(view.conjuncts(), list);
        assert_ne!(view.digest(), before);
    }

    /// Poses `assumption` with its last `grouped` items as groups
    /// (shapes taken from the items as they stand, offsets `0`) and
    /// checks the view against posing every item plainly.
    fn assert_grouped_matches_plain(
        session: &SolveSession,
        depth: usize,
        assumption: &[Formula],
        grouped: usize,
    ) {
        let split = assumption.len() - grouped;
        let shapes: Vec<Arc<Shape>> = assumption[split..]
            .iter()
            .map(|f| Arc::new(Shape::of(f)))
            .collect();
        let groups: Vec<Group<'_>> = assumption[split..]
            .iter()
            .zip(&shapes)
            .map(|(formula, shape)| Group {
                formula,
                shape,
                str_offset: 0,
                bool_offset: 0,
            })
            .collect();
        let grouped_view = session.view_with(depth, &assumption[..split], &groups);
        let plain = session.view(depth, assumption);
        let at = format!("depth {depth}, {grouped} grouped");
        assert_eq!(grouped_view.conjuncts(), plain.conjuncts(), "{at}");
        assert_eq!(grouped_view.canonical(), plain.canonical(), "{at}");
        assert_eq!(
            grouped_view.canonicalizer().str_vars(),
            plain.canonicalizer().str_vars(),
            "{at}"
        );
        assert_eq!(
            grouped_view.canonicalizer().bool_vars(),
            plain.canonicalizer().bool_vars(),
            "{at}"
        );
        assert_eq!(grouped_view.original(), plain.original(), "{at}");
        assert!(grouped_view.matches(&grouped_view.key()), "{at}");
    }

    #[test]
    fn grouped_views_match_plain_views() {
        let (frames, assumptions) = corpus();
        let mut session = SolveSession::new(Solver::default());
        for frame in &frames {
            session.push(frame.clone());
        }
        // Also a grouped item that is itself an `And` (one level is
        // flattened) and one with a boolean variable.
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let flag = pool.fresh_bool();
        let mut assumptions = assumptions;
        assumptions.push(vec![
            Formula::ne_lit(v, "q"),
            Formula::and(vec![Formula::bool_is(flag, true), Formula::eq_lit(v, "r")]),
        ]);
        for depth in 0..=frames.len() {
            for assumption in &assumptions {
                for grouped in 0..=assumption.len() {
                    assert_grouped_matches_plain(&session, depth, assumption, grouped);
                }
            }
        }
    }

    #[test]
    fn a_shape_posed_from_shifted_pools_keys_alike() {
        // One model formula posed from the corpus pool as built and
        // from pools shifted by padding, with its shape taken once
        // before the shift (a shared `Arc`, posed with the shift as its
        // offsets) or rebuilt from the shifted formula (equal content).
        let (frames, _) = corpus();
        let mut pool = VarPool::new();
        for _ in 0..4 {
            pool.fresh_str();
        }
        let m = pool.fresh_str();
        let flag = pool.fresh_bool();
        let model = Formula::and(vec![
            Formula::eq_concat(m, vec![Term::lit("<"), Term::Var(StrVar(0))]),
            Formula::bool_is(flag, false),
            Formula::in_re(m, CRegex::plus(CRegex::set(CharSet::range('a', 'c')))),
        ]);
        let shape = Arc::new(Shape::of(&model));
        let pose = |shift: u32, shape: &Arc<Shape>, offset: u32, stored: Option<&ViewKey>| {
            let mut session = SolveSession::new(Solver::default());
            for frame in &frames {
                session.push(frame.iter().map(|f| f.offset_vars(shift, shift)).collect());
            }
            let tie = [Formula::ne_lit(StrVar(shift), "a-1")];
            let formula = model.offset_vars(shift, shift);
            let group = Group {
                formula: &formula,
                shape,
                str_offset: offset,
                bool_offset: offset,
            };
            let view = session.view_with(frames.len(), &tie, &[group]);
            if let Some(stored) = stored {
                assert!(view.matches(stored), "shift {shift}, offset {offset}");
            }
            (view.digest(), view.key(), view.conjuncts())
        };
        let (digest, key, list) = pose(0, &shape, 0, None);
        for shift in [3, 11] {
            let (d, k, l) = pose(shift, &shape, shift, Some(&key));
            assert_eq!((d, &l), (digest, &list), "shift {shift}");
            assert!(Arc::ptr_eq(&k.shapes[0], &shape));

            // A shape rebuilt from the shifted formula: another `Arc`,
            // equal content, offsets 0 — still the same key.
            let rebuilt = Arc::new(Shape::of(&model.offset_vars(shift, shift)));
            assert!(!Arc::ptr_eq(&rebuilt, &shape));
            assert_eq!(*rebuilt, *shape);
            let (d, _, l) = pose(shift, &rebuilt, 0, Some(&key));
            assert_eq!((d, &l), (digest, &list), "rebuilt shape, shift {shift}");
        }
    }

    #[test]
    fn bottom_and_top_groups_fold_like_items() {
        let (frames, assumptions) = corpus();
        let mut session = SolveSession::new(Solver::default());
        for frame in &frames {
            session.push(frame.clone());
        }
        let bottom = Formula::bottom();
        let top = Formula::top();
        let (bottom_shape, top_shape) = (Arc::new(Shape::of(&bottom)), Arc::new(Shape::of(&top)));
        let group = |formula, shape| Group {
            formula,
            shape,
            str_offset: 0,
            bool_offset: 0,
        };
        for depth in 0..=frames.len() {
            for assumption in &assumptions {
                let mut with_bottom = assumption.clone();
                with_bottom.push(bottom.clone());
                let poisoned =
                    session.view_with(depth, assumption, &[group(&bottom, &bottom_shape)]);
                let plain = session.view(depth, &with_bottom);
                assert_eq!(poisoned.conjuncts(), vec![Formula::bottom()]);
                assert_eq!(poisoned.conjuncts(), plain.conjuncts());
                assert_eq!(poisoned.digest(), plain.digest());
                assert_eq!(poisoned.original(), plain.original());
                assert!(poisoned.matches(&plain.key()));

                let topped = session.view_with(depth, assumption, &[group(&top, &top_shape)]);
                let plain = session.view(depth, assumption);
                assert_eq!(topped.conjuncts(), plain.conjuncts());
                assert_eq!(topped.digest(), plain.digest());
                assert_eq!(topped.original(), plain.original());
                assert!(topped.matches(&plain.key()));
            }
        }
    }

    #[test]
    fn a_shape_describes_only_its_own_formula() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let flag = pool.fresh_bool();
        let item = Formula::and(vec![Formula::eq_lit(v, "x"), Formula::bool_is(flag, true)]);
        let shape = Shape::of(&item);
        assert!(shape.describes(&item, 0, 0));
        assert!(shape.describes(&item.offset_vars(2, 5), 2, 5));
        assert!(!shape.describes(&item.offset_vars(2, 5), 2, 4));
        let mutated = Formula::and(vec![Formula::eq_lit(v, "y"), Formula::bool_is(flag, true)]);
        assert!(!shape.describes(&mutated, 0, 0));
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
        let baseline = session.view(1, &assumptions[0]);
        let (original, canonical, digest) =
            (baseline.original(), baseline.canonical(), baseline.digest());

        session.push(frames[1].clone());
        session.push(frames[2].clone());
        session.pop();
        session.pop();
        assert_eq!(session.depth(), 1);
        let retracted = session.view(1, &assumptions[0]);
        assert_eq!(retracted.original(), original);
        assert_eq!(retracted.canonical(), canonical);
        assert_eq!(retracted.digest(), digest);

        // The retracted slot can be refilled with different content.
        session.push(vec![Formula::eq_lit(VarPool::new().fresh_str(), "x")]);
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
        let v = pool.fresh_str();
        let mut session = SolveSession::new(Solver::default());
        session.push(vec![Formula::eq_lit(v, "a")]);
        session.push(vec![Formula::bottom()]);
        let clean = session.view(1, &[]);
        assert_eq!(clean.original(), Formula::eq_lit(v, "a"));
        let assumption = [Formula::ne_lit(v, "b")];
        let poisoned = session.view(2, &assumption);
        assert_eq!(poisoned.original(), Formula::bottom());
        assert_eq!(poisoned.canonical(), Formula::bottom());
        assert_eq!(poisoned.digest(), conjunct_digest(&[Formula::bottom()]));
        let (outcome, _) = session.solve_at(2, &[]);
        assert_eq!(outcome, Outcome::Unsat);
    }
}
