//! The solving engine.
//!
//! A query runs in two layers:
//!
//! 1. **Boolean layer** — DFS over disjunctions of the NNF formula,
//!    producing conjunctions of atoms (with a branch budget);
//! 2. **String layer** — for each conjunction: union-find over variable
//!    aliases, per-variable DFA intersection of all regular constraints
//!    (including complements for negative ones), then a guided
//!    bounded search over word-equation assignments with dead-state
//!    pruning.
//!
//! Within its budgets the procedure is *refutation-sound* (`Unsat` is
//! definite: every variable's constraint DFA is exact, and enumeration
//! exhaustion is tracked) and *model-sound* (`Sat` models are checked
//! against every atom before being returned). Budget exhaustion yields
//! `Unknown`, which DSE treats like an SMT timeout (paper §5.3).

use std::cmp::Reverse;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use automata::{Alphabet, CRegex, CharSet, Dfa, FxHasher};

use crate::cache::{CacheStats, SharedLru};
use crate::config::SolverConfig;
use crate::formula::{Atom, Formula};
use crate::model::Model;
use crate::stats::SolveStats;
use crate::vars::{BoolVar, StrVar, Term};

/// The verdict of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Satisfiable, with a witness assignment.
    Sat(Model),
    /// Definitely unsatisfiable (within exact reasoning).
    Unsat,
    /// A resource limit was hit before a verdict was reached.
    Unknown,
}

impl Outcome {
    /// True for `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    /// Extracts the model of a `Sat` outcome.
    pub fn model(self) -> Option<Model> {
        match self {
            Outcome::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// A short stable name for the verdict (`"sat"`, `"unsat"`,
    /// `"unknown"`) — the introspection hook used by verdict histograms
    /// and cross-layer comparisons, where two `Sat`s with different
    /// witnesses must still count as the same verdict.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Sat(_) => "sat",
            Outcome::Unsat => "unsat",
            Outcome::Unknown => "unknown",
        }
    }
}

/// A string-constraint solver with fixed resource limits.
///
/// # Examples
///
/// The §3.3 flavour of constraint — a word split into pieces with
/// regular constraints per piece:
///
/// ```
/// use strsolve::{Formula, Solver, Term, VarPool};
/// use automata::{CharSet, CRegex};
///
/// let mut pool = VarPool::new();
/// let w = pool.fresh_str();
/// let w1 = pool.fresh_str();
/// let w2 = pool.fresh_str();
/// let formula = Formula::and(vec![
///     Formula::eq_concat(w, vec![Term::Var(w1), Term::Var(w2)]),
///     Formula::in_re(w1, CRegex::plus(CRegex::set(CharSet::single('a')))),
///     Formula::in_re(w2, CRegex::lit("b")),
///     Formula::ne_lit(w, "ab"),
/// ]);
/// let (outcome, _stats) = Solver::default().solve(&formula);
/// let model = outcome.model().expect("satisfiable");
/// assert_eq!(model.get_str(w), Some("aab"));
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    config: SolverConfig,
    dfas: Arc<DfaCache>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new(SolverConfig::default())
    }
}

impl Solver {
    /// Creates a solver with the given limits.
    pub fn new(config: SolverConfig) -> Solver {
        let dfas = Arc::new(DfaCache::new(config.dfa_cache_capacity));
        Solver { config, dfas }
    }

    /// Replaces the solver-private DFA cache with session-scoped
    /// [`DfaTables`]: compiled automata, interned alphabets and folded
    /// products are then shared with every other solver holding the
    /// same tables. A hit is byte-identical to a fresh build (see
    /// [`DfaTables`]).
    pub fn with_dfa_tables(mut self, tables: &DfaTables) -> Solver {
        self.dfas = Arc::clone(&tables.cache);
        self
    }

    /// The configured limits.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Decides a formula, returning the verdict and query statistics.
    /// The compiled-DFA cache is consulted throughout: a DFA is a pure
    /// function of regex and alphabet, so reuse can never change a
    /// verdict.
    pub fn solve(&self, formula: &Formula) -> (Outcome, SolveStats) {
        let start = Instant::now();
        let ranks = Ranks::of(formula);
        let ranked = Ranked::of(formula, &ranks);
        let mut search = Search {
            config: &self.config,
            dfas: &self.dfas,
            ranks: &ranks,
            ranked: &ranked,
            stats: SolveStats::default(),
            nodes_left: self.config.max_nodes,
            branches_left: self.config.max_bool_branches,
            word_dfa_memo: HashMap::new(),
            query_dfa_memo: FxHashMap::default(),
            sets_memo: FxHashMap::default(),
            tables: Tables::new(ranks.strs.len(), ranks.bools.len()),
            scratch: Scratch::default(),
            spare: Vec::new(),
        };
        let mut pending = vec![(ranked.root, NIL)];
        let mut atoms = Vec::new();
        let outcome = search.boolean_dfs(&mut pending, 0, &mut atoms);
        search.stats.duration = start.elapsed();
        (outcome, search.stats)
    }
}

/// Session-shareable DFA intern tables.
///
/// Every [`Solver`] owns a DFA cache (compiled DFAs, each regex's
/// own-alphabet base DFA, alphabets, exact-word and universal DFAs,
/// intersection folds); by
/// default that cache is private to the solver. `DfaTables` lifts it to
/// session scope: hand one instance to every solver of a scheduler
/// session (via [`Solver::with_dfa_tables`]) and a regex determinized
/// for one job is free for every other job.
///
/// Every solver builds its automata the same way, so a hit is always
/// byte-identical to what the asking solver would have built itself.
/// Sharing is therefore verdict- and candidate-order-preserving, not
/// just language-preserving.
///
/// # Examples
///
/// ```
/// use strsolve::{DfaTables, Formula, Solver, VarPool};
/// use automata::{CharSet, CRegex};
///
/// let tables = DfaTables::new(256);
/// let a = Solver::default().with_dfa_tables(&tables);
/// let b = Solver::default().with_dfa_tables(&tables);
/// let mut pool = VarPool::new();
/// let v = pool.fresh_str();
/// let re = CRegex::plus(CRegex::set(CharSet::single('a')));
/// a.solve(&Formula::in_re(v, re.clone()));
/// let before = tables.stats().hits;
/// b.solve(&Formula::in_re(v, re));
/// assert!(tables.stats().hits > before, "second solver reused the tables");
/// ```
#[derive(Debug, Clone)]
pub struct DfaTables {
    cache: Arc<DfaCache>,
}

impl DfaTables {
    /// Creates tables holding at most `capacity` entries per index
    /// (`0` disables storage, turning every lookup into a miss).
    pub fn new(capacity: usize) -> DfaTables {
        DfaTables {
            cache: Arc::new(DfaCache::new(capacity)),
        }
    }

    /// The totals of the compiled-DFA, exact-word, universal and
    /// fold-product indexes: a miss is a lookup that had to produce an
    /// automaton (build or project it).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Hit rate in `[0, 1]` (`0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }
}

/// A cache of compiled (and optionally complemented) DFAs, keyed by
/// structural `(regex, alphabet)` identity. Determinization is the
/// solver's single most repeated expense: the same membership
/// constraint is re-lowered for every boolean branch, every CEGAR
/// iteration, and every query that mentions the regex. Sharing the
/// compiled automaton is free of behavioral risk — the construction is
/// deterministic, so a hit is byte-identical to a rebuild.
///
/// Stored DFAs are *minimal and canonically numbered*. Each regex is
/// determinized only once, over its own minterm alphabet (the `bases`
/// tier); an `entries` miss projects that automaton onto the asking
/// conjunction's alphabet ([`Dfa::project`]), which yields exactly the
/// minimal DFA a fresh build would.
#[derive(Debug)]
pub(crate) struct DfaCache {
    entries: SharedLru<DfaKey, Arc<Dfa>>,
    /// Each regex's minimal, canonically numbered DFA over its own
    /// minterm alphabet — the source every `entries` miss projects
    /// from.
    bases: SharedLru<ReKey, Arc<Dfa>>,
    /// Interned minterm alphabets, keyed by a std-hashed digest of the
    /// normalized problem (sorted deduped sets + literal characters);
    /// the value keeps the sets, and a hit compares them in place, so
    /// a digest collision is a miss. Building the partition is pure
    /// per-conjunction overhead, and interning also makes repeated
    /// conjunctions share one `Arc`.
    alphabets: SharedLru<u64, (Vec<CharSet>, Arc<Alphabet>)>,
    /// Exact-word DFAs for equality/disequality literals, keyed by
    /// word + alphabet pointer (each DFA holds its alphabet's `Arc`,
    /// so a resident key's address cannot be recycled).
    words: SharedLru<(String, usize, bool), Arc<Dfa>>,
    /// Universal DFAs for unconstrained roots, keyed by alphabet
    /// pointer (the DFA holds the alphabet, as above).
    universals: SharedLru<usize, Arc<Dfa>>,
    /// Intersection folds, keyed by the sorted pointer set of their
    /// factors (each factor `Arc` retained in the value — same ABA
    /// argument). A conjunction repeated across boolean branches,
    /// CEGAR iterations, or queries reuses the folded product instead
    /// of re-multiplying the factors.
    products: SharedLru<Vec<usize>, ProductEntry>,
}

/// The pipeline of [`DfaCache::product`]'s intersection folds. Fold
/// products are built far more often than cache-resident DFAs, so they
/// are minimized only once they reach 64 states: small intermediates
/// cost more to minimize than they save.
const FOLD_CONFIG: automata::AutomataConfig = automata::AutomataConfig::minimizing_from(64);

/// A cached fold product plus its factor keep-alives.
type ProductEntry = (Arc<Dfa>, Vec<Arc<Dfa>>);

/// What a cached DFA was compiled from. Alphabets compare by content,
/// so structurally equal alphabets from different conjunctions share
/// entries — and a stale pointer can never alias a different partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DfaKey {
    re: ReKey,
    alphabet: Arc<Alphabet>,
    complemented: bool,
}

/// A regex as a cache key: compared by content, hashed by a std-hashed
/// digest of that content taken once per [`DfaCache::get_or_build`]
/// instead of once per shard operation (a lookup and a store in each of
/// `entries` and `bases`).
#[derive(Debug, Clone)]
struct ReKey {
    digest: u64,
    re: Arc<CRegex>,
}

impl ReKey {
    fn of(re: &Arc<CRegex>) -> ReKey {
        ReKey {
            digest: BuildHasherDefault::<DefaultHasher>::default().hash_one(&**re),
            re: Arc::clone(re),
        }
    }
}

impl PartialEq for ReKey {
    fn eq(&self, other: &ReKey) -> bool {
        self.digest == other.digest && self.re == other.re
    }
}

impl Eq for ReKey {}

impl Hash for ReKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Consistent with `Eq`: equal regexes have equal digests.
        state.write_u64(self.digest);
    }
}

impl DfaCache {
    fn new(capacity: usize) -> DfaCache {
        DfaCache {
            entries: SharedLru::new(capacity, 0),
            bases: SharedLru::new(capacity, 0),
            alphabets: SharedLru::new(capacity, 0),
            words: SharedLru::new(capacity, 0),
            universals: SharedLru::new(capacity, 0),
            products: SharedLru::new(capacity, 0),
        }
    }

    /// The totals of the indexes whose hits a query counts in
    /// [`SolveStats::dfa_cache_hits`]: `bases` and `alphabets` sit
    /// behind them.
    fn stats(&self) -> CacheStats {
        [
            self.entries.stats(),
            self.words.stats(),
            self.universals.stats(),
            self.products.stats(),
        ]
        .into_iter()
        .sum()
    }

    /// The exact-word DFA (optionally complemented) of a literal under
    /// an interned alphabet.
    fn word_dfa(
        &self,
        word: &str,
        alphabet: &Arc<Alphabet>,
        complemented: bool,
        stats: &mut SolveStats,
    ) -> Arc<Dfa> {
        let key = (
            word.to_string(),
            Arc::as_ptr(alphabet) as usize,
            complemented,
        );
        if let Some(dfa) = self.words.get(&key) {
            stats.dfa_cache_hits += 1;
            return dfa;
        }
        stats.dfas_built += 1;
        let mut dfa = Dfa::from_word(word, alphabet);
        if complemented {
            dfa = dfa.complement();
        }
        let dfa = Arc::new(dfa);
        debug_assert!(Arc::ptr_eq(dfa.alphabet(), alphabet));
        self.words.insert(key, Arc::clone(&dfa), 0);
        dfa
    }

    /// The DFA accepting every word over `alphabet` — the language of
    /// an unconstrained root. Keyed by alphabet pointer: interned
    /// alphabets recur across conjunctions.
    fn universal_dfa(&self, alphabet: &Arc<Alphabet>, stats: &mut SolveStats) -> Arc<Dfa> {
        let key = Arc::as_ptr(alphabet) as usize;
        if let Some(dfa) = self.universals.get(&key) {
            stats.dfa_cache_hits += 1;
            return dfa;
        }
        stats.dfas_built += 1;
        let dfa = Arc::new(Dfa::universal(alphabet));
        debug_assert!(Arc::ptr_eq(dfa.alphabet(), alphabet));
        self.universals.insert(key, Arc::clone(&dfa), 0);
        dfa
    }

    /// The intersection of `factors` (at least two, pre-sorted
    /// smallest-first by the caller), folded pairwise with thresholded
    /// minimization and cached by factor identity.
    fn product(&self, factors: Vec<Arc<Dfa>>, stats: &mut SolveStats) -> Arc<Dfa> {
        let mut key: Vec<usize> = factors.iter().map(|f| Arc::as_ptr(f) as usize).collect();
        key.sort_unstable();
        key.dedup(); // intersection is idempotent
        if let Some(dfa) = self
            .products
            .get_with(&key, |(dfa, _)| Arc::clone(dfa), |_| true)
        {
            stats.dfa_cache_hits += 1;
            return dfa;
        }
        let (first, rest) = factors.split_first().expect("at least two factors");
        let mut acc: Option<Dfa> = None;
        for factor in rest {
            let mut metrics = automata::BuildMetrics::default();
            let left = acc.as_ref().unwrap_or(first);
            acc = Some(left.intersect(factor).reduced(&FOLD_CONFIG, &mut metrics));
            stats.dfa_states_built += metrics.states_built;
            stats.states_after_minimize += metrics.states_after_minimize;
        }
        let product = Arc::new(acc.expect("at least two factors"));
        self.products
            .insert(key, (Arc::clone(&product), factors), 0);
        product
    }

    /// The interned minterm alphabet of a conjunction's character sets
    /// (its regexes' sets and a single-char set per literal character).
    /// The partition is order- and duplicate-independent, so the key
    /// is normalized (sorted, deduped) over the borrowed sets. A hit
    /// clones nothing; a miss builds via [`Alphabet::from_sets`] on the
    /// normalized sets, which yields the same classes as the raw
    /// collection would, and clones the distinct sets into the entry.
    fn alphabet_for(&self, sets: &mut Vec<&CharSet>) -> Arc<Alphabet> {
        sets.sort_unstable();
        sets.dedup();
        let digest = BuildHasherDefault::<DefaultHasher>::default().hash_one(&*sets);
        let same = |stored: &[CharSet]| {
            stored.len() == sets.len() && stored.iter().zip(sets.iter()).all(|(a, b)| a == *b)
        };
        let resident = self.alphabets.get_with(
            &digest,
            |(stored, alphabet)| same(stored).then(|| Arc::clone(alphabet)),
            Option::is_some,
        );
        if let Some(alphabet) = resident.flatten() {
            return alphabet;
        }
        let alphabet = Arc::new(Alphabet::from_sets(sets));
        let owned = sets.iter().map(|&set| set.clone()).collect();
        self.alphabets
            .insert(digest, (owned, Arc::clone(&alphabet)), 0);
        alphabet
    }

    /// The DFA of `re` (complemented when asked) under `alphabet`.
    ///
    /// A miss projects the regex's base automaton (see
    /// [`DfaCache::base_dfa`]) onto `alphabet` and complements it if
    /// asked. A projection constructs no subset or product states, so
    /// only base builds count towards `stats.dfas_built` and the state
    /// metrics.
    fn get_or_build(
        &self,
        re: &Arc<CRegex>,
        alphabet: &Arc<Alphabet>,
        complemented: bool,
        stats: &mut SolveStats,
    ) -> Arc<Dfa> {
        let key = DfaKey {
            re: ReKey::of(re),
            alphabet: Arc::clone(alphabet),
            complemented,
        };
        if let Some(dfa) = self.entries.get(&key) {
            stats.dfa_cache_hits += 1;
            return dfa;
        }
        // A conjunction's alphabet partitions every set of its regexes,
        // so it refines each regex's own alphabet.
        let projected = self
            .base_dfa(&key.re, stats)
            .project(alphabet)
            .expect("a conjunction alphabet refines its regexes' own alphabets");
        // Complementing a minimal complete DFA keeps it minimal and its
        // breadth-first numbering canonical.
        let dfa = Arc::new(if complemented {
            projected.complement()
        } else {
            projected
        });
        self.entries.insert(key, Arc::clone(&dfa), 0);
        dfa
    }

    /// The minimal, canonically numbered DFA of `re` over its own
    /// minterm alphabet, built on first use.
    fn base_dfa(&self, key: &ReKey, stats: &mut SolveStats) -> Arc<Dfa> {
        if let Some(base) = self.bases.get(key) {
            return base;
        }
        let re = &key.re;
        stats.dfas_built += 1;
        // The partition is order- and duplicate-independent: the
        // borrowed sets go in as the walk finds them.
        let mut sets = Vec::new();
        re.collect_set_refs(&mut sets);
        let alphabet = Arc::new(Alphabet::from_sets(&sets));
        let mut metrics = automata::BuildMetrics::default();
        let base = Arc::new(Dfa::minimal_from_cregex(re, &alphabet, &mut metrics));
        stats.dfa_states_built += metrics.states_built;
        stats.states_after_minimize += metrics.states_after_minimize;
        self.bases.insert(key.clone(), Arc::clone(&base), 0);
        base
    }
}

/// The end of a pending list and an untouched union-find slot.
const NIL: u32 = u32::MAX;

/// A `HashMap` for the per-query pointer-keyed memos.
type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The formula's variables numbered by *rank*: ascending caller id.
/// Sorting or breaking ties by rank therefore orders exactly as by id,
/// and the per-conjunction tables are as long as the formula has
/// variables, whatever the magnitude of their ids.
#[derive(Default)]
struct Ranks {
    strs: Vec<StrVar>,
    bools: Vec<BoolVar>,
}

impl Ranks {
    fn of(formula: &Formula) -> Ranks {
        let mut ranks = Ranks::default();
        ranks.collect(formula);
        ranks.strs.sort_unstable();
        ranks.strs.dedup();
        ranks.bools.sort_unstable();
        ranks.bools.dedup();
        ranks
    }

    fn collect(&mut self, formula: &Formula) {
        match formula {
            Formula::And(items) | Formula::Or(items) => {
                for item in items {
                    self.collect(item);
                }
            }
            Formula::Atom(atom) => match atom {
                Atom::InRe(v, _) | Atom::NotInRe(v, _) | Atom::EqLit(v, _) | Atom::NeLit(v, _) => {
                    self.strs.push(*v)
                }
                Atom::EqVar(a, b) | Atom::NeVar(a, b) => self.strs.extend([*a, *b]),
                Atom::EqConcat(v, parts) => {
                    self.strs.push(*v);
                    self.strs.extend(parts.iter().filter_map(|p| match p {
                        Term::Var(u) => Some(*u),
                        Term::Lit(_) => None,
                    }));
                }
                Atom::Bool(b, _) => self.bools.push(*b),
                Atom::True | Atom::False => {}
            },
        }
    }

    fn str(&self, v: StrVar) -> u32 {
        self.strs
            .binary_search(&v)
            .expect("every variable is ranked") as u32
    }

    fn bool(&self, b: BoolVar) -> usize {
        self.bools
            .binary_search(&b)
            .expect("every variable is ranked")
    }
}

/// One node of a [`Ranked`] formula.
#[derive(Clone, Copy)]
enum RankedNode<'f> {
    Atom(RankedAtom<'f>),
    /// A conjunction or disjunction of the nodes `kids[lo..hi]`.
    And(u32, u32),
    Or(u32, u32),
}

/// An [`Atom`] with its variables numbered by rank.
#[derive(Clone, Copy)]
enum RankedAtom<'f> {
    InRe(u32, &'f Arc<CRegex>),
    NotInRe(u32, &'f Arc<CRegex>),
    EqLit(u32, &'f str),
    NeLit(u32, &'f str),
    EqVar(u32, u32),
    NeVar(u32, u32),
    /// `lhs = parts[lo..hi]`, variable parts by rank.
    EqConcat(u32, u32, u32),
    Bool(usize, bool),
    True,
    False,
}

/// The formula in rank form, built once per solve, so that no pass over
/// a conjunction looks a variable's rank up again: a node arena whose
/// children sit contiguously in `kids`, and the parts of its word
/// equations. Each table is sized by a first walk and allocated once.
struct Ranked<'f> {
    root: u32,
    nodes: Vec<RankedNode<'f>>,
    kids: Vec<u32>,
    parts: Vec<Part<'f>>,
}

impl<'f> Ranked<'f> {
    fn of(formula: &'f Formula, ranks: &Ranks) -> Ranked<'f> {
        let mut sizes = [0; 3];
        Ranked::size(formula, &mut sizes);
        let mut ranked = Ranked {
            root: 0,
            nodes: Vec::with_capacity(sizes[0]),
            kids: Vec::with_capacity(sizes[1]),
            parts: Vec::with_capacity(sizes[2]),
        };
        ranked.root = ranked.lower(formula, ranks);
        ranked
    }

    /// Adds `formula`'s node, child and part counts to `sizes`.
    fn size(formula: &Formula, sizes: &mut [usize; 3]) {
        sizes[0] += 1;
        match formula {
            Formula::And(items) | Formula::Or(items) => {
                sizes[1] += items.len();
                for item in items {
                    Ranked::size(item, sizes);
                }
            }
            Formula::Atom(Atom::EqConcat(_, terms)) => sizes[2] += terms.len(),
            Formula::Atom(_) => {}
        }
    }

    /// Appends `formula`'s nodes, children first, and returns its id.
    fn lower(&mut self, formula: &'f Formula, ranks: &Ranks) -> u32 {
        let node = match formula {
            Formula::And(items) | Formula::Or(items) => {
                let lo = self.kids.len();
                self.kids.resize(lo + items.len(), 0);
                for (i, item) in items.iter().enumerate() {
                    self.kids[lo + i] = self.lower(item, ranks);
                }
                let (lo, hi) = (lo as u32, (lo + items.len()) as u32);
                if matches!(formula, Formula::And(_)) {
                    RankedNode::And(lo, hi)
                } else {
                    RankedNode::Or(lo, hi)
                }
            }
            Formula::Atom(atom) => {
                let rank = |v: &StrVar| ranks.str(*v);
                let ranked = match atom {
                    Atom::InRe(v, re) => RankedAtom::InRe(rank(v), re),
                    Atom::NotInRe(v, re) => RankedAtom::NotInRe(rank(v), re),
                    Atom::EqLit(v, s) => RankedAtom::EqLit(rank(v), s),
                    Atom::NeLit(v, s) => RankedAtom::NeLit(rank(v), s),
                    Atom::EqVar(a, b) => RankedAtom::EqVar(rank(a), rank(b)),
                    Atom::NeVar(a, b) => RankedAtom::NeVar(rank(a), rank(b)),
                    Atom::EqConcat(v, terms) => {
                        let lo = self.parts.len() as u32;
                        self.parts.extend(terms.iter().map(|term| match term {
                            Term::Var(u) => Part::Var(rank(u)),
                            Term::Lit(s) => Part::Lit(s.as_str()),
                        }));
                        RankedAtom::EqConcat(rank(v), lo, self.parts.len() as u32)
                    }
                    Atom::Bool(b, value) => RankedAtom::Bool(ranks.bool(*b), *value),
                    Atom::True => RankedAtom::True,
                    Atom::False => RankedAtom::False,
                };
                RankedNode::Atom(ranked)
            }
        };
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    fn parts(&self, lo: u32, hi: u32) -> &[Part<'f>] {
        &self.parts[lo as usize..hi as usize]
    }
}

/// The regular and literal constraints collected on one root.
#[derive(Default)]
struct VarCons<'f> {
    /// True once any constraint names the root.
    present: bool,
    pos: Vec<&'f Arc<CRegex>>,
    neg: Vec<&'f Arc<CRegex>>,
    eq: Option<&'f str>,
    ne: Vec<&'f str>,
}

/// A conjunction's state, indexed by string (or boolean) rank. One
/// instance serves every conjunction of a solve: [`Tables::reset`]
/// clears what the previous conjunction wrote, keeping the capacity.
#[derive(Default)]
struct Tables<'f> {
    bools: Vec<Option<bool>>,
    uf: UnionFind,
    cons: Vec<VarCons<'f>>,
    dfas: Vec<Option<Arc<Dfa>>>,
    /// Accepted-length windows per root from the length-abstraction
    /// pass (all `None` when the pass is disabled).
    intervals: Vec<Option<LenInterval>>,
    eq_depth: Vec<Option<u32>>,
    assignment: Vec<Option<String>>,
    /// Congruence-closure scratch: each right-hand side's owner.
    owners: Owners<'f>,
    /// The equations as collected, then topologically sorted and
    /// extended with their flattened copies.
    collected: Equations<'f>,
    equations: Equations<'f>,
    /// Per rank, an index into an equation list (`NIL` for none):
    /// [`has_cycle`] fills it with each variable's last definition in
    /// `collected` and clears it again; [`flatten_equations`] then
    /// fills it with each variable's first definition in `equations`,
    /// which holds until the reset.
    defs: Vec<u32>,
    /// Per rank, [`topo_sort`]'s count of pending definitions (zero
    /// outside it).
    pending_defs: Vec<u32>,
    /// Sort and substitution scratch.
    pending_eqs: Vec<u32>,
    deferred_eqs: Vec<u32>,
    current_parts: Vec<Part<'f>>,
    next_parts: Vec<Part<'f>>,
    ne_pairs: Vec<(u32, u32)>,
    roots: Vec<u32>,
    order: Vec<u32>,
}

impl<'f> Tables<'f> {
    fn new(strs: usize, bools: usize) -> Tables<'f> {
        Tables {
            bools: vec![None; bools],
            uf: UnionFind::new(strs),
            cons: (0..strs).map(|_| VarCons::default()).collect(),
            dfas: vec![None; strs],
            intervals: vec![None; strs],
            eq_depth: vec![None; strs],
            assignment: vec![None; strs],
            defs: vec![NIL; strs],
            pending_defs: vec![0; strs],
            ..Tables::default()
        }
    }

    /// Clears the previous conjunction's entries. Every rank-indexed
    /// entry belongs to a root, and every root was touched.
    fn reset(&mut self) {
        self.bools.fill(None);
        for &v in &self.uf.touched {
            let v = v as usize;
            let cons = &mut self.cons[v];
            cons.present = false;
            cons.pos.clear();
            cons.neg.clear();
            cons.eq = None;
            cons.ne.clear();
            self.dfas[v] = None;
            self.intervals[v] = None;
            self.eq_depth[v] = None;
            self.assignment[v] = None;
            self.defs[v] = NIL;
        }
        self.uf.reset();
        self.collected.clear();
        self.equations.clear();
        self.ne_pairs.clear();
        self.roots.clear();
        self.order.clear();
    }
}

/// Reused buffers: the alphabet's literal characters and the strings
/// of the equation checks.
#[derive(Default)]
struct Scratch {
    chars: Vec<char>,
    value: String,
    prefix: String,
    suffix: String,
}

struct Search<'a> {
    config: &'a SolverConfig,
    dfas: &'a DfaCache,
    ranks: &'a Ranks,
    ranked: &'a Ranked<'a>,
    stats: SolveStats,
    nodes_left: u64,
    branches_left: u64,
    /// Per-conjunction memo of pinned-word guide DFAs (cleared when a
    /// new conjunction — and with it a new alphabet — starts). Keyed by
    /// word content, so it keeps the std hasher.
    word_dfa_memo: HashMap<String, Arc<Dfa>>,
    /// Per-query memo in front of the shared [`DfaCache`], keyed by
    /// *pointer* identity of the regex and (interned) alphabet: the
    /// same `Arc`s recur across the conjunctions of one query, and a
    /// pointer hash skips the deep structural hash a [`DfaKey`] lookup
    /// pays. The value keeps both `Arc`s alive, so a resident key's
    /// addresses can never be recycled by another allocation.
    query_dfa_memo: QueryDfaMemo,
    /// Per-query memo of each regex's `CharSet`s (alphabet
    /// construction input), borrowed from the formula and keyed by
    /// `Arc` pointer: the formula outlives the solve, so a key's
    /// address cannot be recycled meanwhile.
    sets_memo: FxHashMap<usize, Vec<&'a CharSet>>,
    tables: Tables<'a>,
    scratch: Scratch,
    /// Buffers of finished candidate enumerations.
    spare: Vec<CandidateBuffers<'a>>,
}

type QueryDfaMemo = FxHashMap<(usize, usize, bool), (Arc<Dfa>, Arc<CRegex>, Arc<Alphabet>)>;

/// One cell of the pending-formula list: a [`Ranked`] node and the
/// index of the cell below it ([`NIL`] at the bottom).
type Pending = (u32, u32);

impl<'a> Search<'a> {
    /// The constraint DFA of `re` under `alphabet`, through the
    /// per-query pointer memo and then the shared structural cache.
    fn constraint_dfa(
        &mut self,
        re: &Arc<CRegex>,
        alphabet: &Arc<Alphabet>,
        complemented: bool,
    ) -> Arc<Dfa> {
        let key = (
            Arc::as_ptr(re) as usize,
            Arc::as_ptr(alphabet) as usize,
            complemented,
        );
        if let Some((dfa, _, _)) = self.query_dfa_memo.get(&key) {
            return Arc::clone(dfa);
        }
        let dfa = self
            .dfas
            .get_or_build(re, alphabet, complemented, &mut self.stats);
        self.query_dfa_memo.insert(
            key,
            (Arc::clone(&dfa), Arc::clone(re), Arc::clone(alphabet)),
        );
        dfa
    }

    /// Explores disjunctions. `pending` is an arena of list cells and
    /// `head` the top of the formulas still to flatten; `atoms` is the
    /// conjunction accumulated so far. A branch pushes its cells above
    /// the arena's length at the disjunction and is truncated back to
    /// it, so no branch copies the pending list.
    fn boolean_dfs(
        &mut self,
        pending: &mut Vec<Pending>,
        mut head: u32,
        atoms: &mut Vec<&'a RankedAtom<'a>>,
    ) -> Outcome {
        let ranked = self.ranked;
        // Flatten conjunctions and atoms until we hit a disjunction.
        let mut pushed = 0usize;
        let result = loop {
            if head == NIL {
                break self.solve_conjunction(atoms);
            }
            let (node, below) = pending[head as usize];
            head = below;
            match &ranked.nodes[node as usize] {
                RankedNode::Atom(a) => {
                    if matches!(a, RankedAtom::False) {
                        break Outcome::Unsat;
                    }
                    if !matches!(a, RankedAtom::True) {
                        atoms.push(a);
                        pushed += 1;
                    }
                }
                &RankedNode::And(lo, hi) => {
                    for &item in &ranked.kids[lo as usize..hi as usize] {
                        pending.push((item, head));
                        head = (pending.len() - 1) as u32;
                    }
                }
                &RankedNode::Or(lo, hi) => {
                    let mark = pending.len();
                    let mut any_unknown = false;
                    let mut branch_result = Outcome::Unsat;
                    for &branch in &ranked.kids[lo as usize..hi as usize] {
                        if self.branches_left == 0 {
                            any_unknown = true;
                            break;
                        }
                        self.branches_left -= 1;
                        self.stats.bool_branches += 1;
                        pending.push((branch, head));
                        let before = atoms.len();
                        let r = self.boolean_dfs(pending, mark as u32, atoms);
                        atoms.truncate(before);
                        pending.truncate(mark);
                        match r {
                            Outcome::Sat(m) => {
                                branch_result = Outcome::Sat(m);
                                break;
                            }
                            Outcome::Unknown => any_unknown = true,
                            Outcome::Unsat => {}
                        }
                    }
                    if !branch_result.is_sat() && any_unknown {
                        branch_result = Outcome::Unknown;
                    }
                    break branch_result;
                }
            }
        };
        atoms.truncate(atoms.len() - pushed.min(atoms.len()));
        result
    }

    /// Decides a conjunction of atoms over the solve's reused tables.
    fn solve_conjunction(&mut self, atoms: &[&'a RankedAtom<'a>]) -> Outcome {
        let mut tables = std::mem::take(&mut self.tables);
        tables.reset();
        let outcome = self.decide(atoms, &mut tables);
        self.tables = tables;
        outcome
    }

    fn decide(&mut self, atoms: &[&'a RankedAtom<'a>], t: &mut Tables<'a>) -> Outcome {
        let (ranks, ranked) = (self.ranks, self.ranked);

        // --- Boolean flags ---------------------------------------------
        for atom in atoms {
            if let RankedAtom::Bool(b, v) = **atom {
                match t.bools[b].replace(v) {
                    Some(prev) if prev != v => return Outcome::Unsat,
                    _ => {}
                }
            }
        }

        // --- Union-find over aliases ------------------------------------
        let uf = &mut t.uf;
        for atom in atoms {
            match **atom {
                RankedAtom::EqVar(a, b) => uf.union(a, b),
                RankedAtom::EqConcat(v, lo, hi) => match *ranked.parts(lo, hi) {
                    // An equation `v = [u]` with a single variable part
                    // is an alias: merging lets the DFAs intersect
                    // directly.
                    [Part::Var(u)] => uf.union(v, u),
                    ref parts => {
                        uf.touch(v);
                        for p in parts {
                            if let Part::Var(u) = *p {
                                uf.touch(u);
                            }
                        }
                    }
                },
                RankedAtom::NeVar(a, b) => {
                    uf.touch(a);
                    uf.touch(b);
                }
                RankedAtom::InRe(v, _)
                | RankedAtom::NotInRe(v, _)
                | RankedAtom::EqLit(v, _)
                | RankedAtom::NeLit(v, _) => uf.touch(v),
                _ => {}
            }
        }
        let part = |uf: &mut UnionFind, p: &Part<'a>| match *p {
            Part::Var(u) => Part::Var(uf.find(u)),
            lit => lit,
        };

        // --- Congruence closure over word equations -----------------------
        // Two variables defined by the *same* concatenation are equal:
        // `x = t₁ ++ … ++ tₙ ∧ y = t₁ ++ … ++ tₙ ⟹ x = y`. Merging
        // them makes their regular constraints intersect in one root
        // DFA, so conflicts prune candidate enumeration instead of
        // surfacing after every equation completes. (The Algorithm 2
        // models produce exactly this shape: the wrapped word `⟨input⟩`
        // is re-derived for every regex applied to the same subject.)
        // With fewer than two equations there is nothing to merge, and
        // most conjunctions have none — skip the fixpoint entirely.
        let mut merging = atoms
            .iter()
            .filter(|atom| matches!(atom, RankedAtom::EqConcat(..)))
            .count()
            >= 2;
        while merging {
            t.owners.clear();
            let mut changed = false;
            for atom in atoms {
                let RankedAtom::EqConcat(v, lo, hi) = **atom else {
                    continue;
                };
                let start = t.owners.eqs.parts.len();
                for p in ranked.parts(lo, hi) {
                    let p = part(&mut t.uf, p);
                    t.owners.eqs.parts.push(p);
                }
                let root = t.uf.find(v);
                match t.owners.owner(start, root) {
                    Some(owner) if t.uf.find(owner) != root => {
                        t.uf.union(owner, root);
                        changed = true;
                    }
                    _ => {}
                }
            }
            merging = changed;
        }

        // --- Per-root constraint collection ------------------------------
        for atom in atoms {
            match **atom {
                RankedAtom::InRe(v, re) => {
                    let cons = &mut t.cons[t.uf.find(v) as usize];
                    cons.present = true;
                    cons.pos.push(re);
                }
                RankedAtom::NotInRe(v, re) => {
                    let cons = &mut t.cons[t.uf.find(v) as usize];
                    cons.present = true;
                    cons.neg.push(re);
                }
                RankedAtom::EqLit(v, s) => {
                    let cons = &mut t.cons[t.uf.find(v) as usize];
                    cons.present = true;
                    match cons.eq {
                        Some(prev) if prev != s => return Outcome::Unsat,
                        _ => cons.eq = Some(s),
                    }
                }
                RankedAtom::NeLit(v, s) => {
                    let cons = &mut t.cons[t.uf.find(v) as usize];
                    cons.present = true;
                    cons.ne.push(s);
                }
                RankedAtom::NeVar(a, b) => {
                    let (ra, rb) = (t.uf.find(a), t.uf.find(b));
                    if ra == rb {
                        // x ≠ x is unsatisfiable.
                        return Outcome::Unsat;
                    }
                    t.ne_pairs.push((ra, rb));
                }
                RankedAtom::EqConcat(v, lo, hi) => {
                    let lhs = t.uf.find(v);
                    let start = t.collected.parts.len();
                    for p in ranked.parts(lo, hi) {
                        let p = part(&mut t.uf, p);
                        t.collected.parts.push(p);
                    }
                    // Single-variable equations were merged as aliases;
                    // after union-find they degenerate to `v = [v]`.
                    if t.collected.parts[start..] == [Part::Var(lhs)] {
                        t.collected.parts.truncate(start);
                        continue;
                    }
                    t.collected.commit_unique(lhs, start);
                }
                _ => {}
            }
        }
        // Every rank a constraint names, in first-touch order.
        let constrained = || {
            t.uf.touched
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| t.cons[v].present)
        };
        // Quick inconsistency: eq vs ne on the same root.
        for v in constrained() {
            let info = &t.cons[v];
            if let Some(eq) = info.eq {
                if info.ne.contains(&eq) {
                    return Outcome::Unsat;
                }
            }
        }

        // --- Occurs check (cyclic equations are outside the fragment) ----
        if has_cycle(&t.collected, &mut t.defs) {
            return Outcome::Unknown;
        }
        topo_sort(
            &t.collected,
            &mut t.equations,
            &mut t.pending_eqs,
            &mut t.deferred_eqs,
            &mut t.pending_defs,
        );
        flatten_equations(
            &mut t.equations,
            &mut t.defs,
            &mut t.current_parts,
            &mut t.next_parts,
        );
        let equations = &t.equations;
        let ne_pairs = &t.ne_pairs;

        // --- Alphabet -----------------------------------------------------
        // Each regex's sets are memoized per query: the same `Arc`s
        // recur in every conjunction of a query.
        for v in constrained() {
            let info = &t.cons[v];
            for &re in info.pos.iter().chain(info.neg.iter()) {
                self.sets_memo
                    .entry(Arc::as_ptr(re) as usize)
                    .or_insert_with(|| {
                        let mut fresh = Vec::new();
                        re.collect_set_refs(&mut fresh);
                        fresh
                    });
            }
        }
        let chars = &mut self.scratch.chars;
        chars.clear();
        for v in constrained() {
            let info = &t.cons[v];
            chars.extend(info.eq.iter().chain(&info.ne).flat_map(|s| s.chars()));
        }
        for (_, parts) in equations.iter() {
            for p in parts {
                if let Part::Lit(s) = p {
                    chars.extend(s.chars());
                }
            }
        }
        // One single-char set per distinct character; the alphabet key
        // itself is normalized by `alphabet_for`.
        chars.sort_unstable();
        chars.dedup();
        let singles: Vec<CharSet> = chars.iter().map(|&c| CharSet::single(c)).collect();
        let mut sets: Vec<&CharSet> = singles.iter().collect();
        for v in constrained() {
            let info = &t.cons[v];
            for re in info.pos.iter().chain(info.neg.iter()) {
                sets.extend(&self.sets_memo[&(Arc::as_ptr(re) as usize)]);
            }
        }
        let alphabet = self.dfas.alphabet_for(&mut sets);

        // --- Per-root DFAs -----------------------------------------------
        let roots = &mut t.roots;
        roots.extend(constrained().map(|v| v as u32));
        for (lhs, parts) in equations.iter() {
            roots.push(lhs);
            for p in parts {
                if let Part::Var(v) = p {
                    roots.push(*v);
                }
            }
        }
        for &(a, b) in ne_pairs {
            roots.push(a);
            roots.push(b);
        }
        // Ranks sort like the caller's ids.
        roots.sort_unstable();
        roots.dedup();
        let roots = &t.roots;
        for &root in roots {
            let info = &t.cons[root as usize];
            let dfa: Arc<Dfa> = match info.eq {
                // Pinned root: the language is `{eq}` or `∅`, so *run
                // the word* through each constraint instead of building
                // any product — and never build the complement DFAs of
                // negative constraints at all. (`ne ≠ eq` was already
                // checked above.) The verdict is identical to the
                // fold's: its language is exactly `{eq}` when every
                // membership holds and empty otherwise.
                Some(eq) => {
                    for re in &info.pos {
                        if !self.constraint_dfa(re, &alphabet, false).contains(eq) {
                            return Outcome::Unsat;
                        }
                    }
                    for re in &info.neg {
                        if self.constraint_dfa(re, &alphabet, false).contains(eq) {
                            return Outcome::Unsat;
                        }
                    }
                    self.dfas.word_dfa(eq, &alphabet, false, &mut self.stats)
                }
                // Otherwise collect every constraint automaton and
                // fold the intersection smallest-first: the product
                // worklist only materializes reachable pairs, so a
                // small accumulator bounds every intermediate, and the
                // thresholded minimization after each product keeps it
                // small.
                None => {
                    let mut factors: Vec<Arc<Dfa>> = Vec::new();
                    for re in &info.pos {
                        factors.push(self.constraint_dfa(re, &alphabet, false));
                    }
                    for re in &info.neg {
                        factors.push(self.constraint_dfa(re, &alphabet, true));
                    }
                    for ne in &info.ne {
                        factors.push(self.dfas.word_dfa(ne, &alphabet, true, &mut self.stats));
                    }
                    factors.sort_by_key(|d| d.state_count());
                    match factors.len() {
                        // An unconstrained root: the universal DFA of
                        // the alphabet, built once per alphabet.
                        0 => self.dfas.universal_dfa(&alphabet, &mut self.stats),
                        1 => factors.into_iter().next().expect("one factor"),
                        _ => self.dfas.product(factors, &mut self.stats),
                    }
                }
            };
            if dfa.is_empty() {
                return Outcome::Unsat;
            }
            t.dfas[root as usize] = Some(dfa);
        }

        // --- Length abstraction -------------------------------------------
        // Propagate `[lo, hi]` accepted-length intervals through the
        // concat equations as integer arithmetic. An empty interval
        // refutes the conjunction before any word search; the surviving
        // intervals bound per-variable candidate lengths below.
        if self.config.length_abstraction
            && length_intervals(roots, &t.dfas, equations, &mut t.intervals).is_err()
        {
            self.stats.length_prunes += 1;
            return Outcome::Unsat;
        }

        // --- Assignment search --------------------------------------------
        // Pin equality literals immediately.
        for &root in roots {
            if let Some(eq) = t.cons[root as usize].eq {
                t.assignment[root as usize] = Some(eq.to_string());
            }
        }
        let assignment = &mut t.assignment;

        // Free variables in first-occurrence order across equations,
        // stably sorted so the most constrained languages enumerate
        // first: finite, then infinite-nonempty, then near-universal
        // (the latter are best derived by propagation/unit slicing).
        let order = &mut t.order;
        let defs = &t.defs;
        for (_, parts) in equations.iter() {
            for p in parts {
                if let Part::Var(v) = *p {
                    if defs[v as usize] == NIL
                        && assignment[v as usize].is_none()
                        && !order.contains(&v)
                    {
                        order.push(v);
                    }
                }
            }
        }
        // Nesting depth: equations whose lhs feeds other equations are
        // "inner"; their free variables should be assigned first so the
        // outer words become derivable by propagation/unit slicing.
        let eq_depth = &mut t.eq_depth;
        for _ in 0..equations.len() {
            let mut changed = false;
            for (lhs, _) in equations.iter() {
                let depth = equations
                    .iter()
                    .filter(|(_, parts)| parts.contains(&Part::Var(lhs)))
                    .map(|(outer, _)| eq_depth[outer as usize].unwrap_or(0) + 1)
                    .max()
                    .unwrap_or(0);
                if eq_depth[lhs as usize] != Some(depth) {
                    eq_depth[lhs as usize] = Some(depth);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let var_depth = |v: u32| -> u32 {
            equations
                .iter()
                .filter(|(_, parts)| parts.contains(&Part::Var(v)))
                .map(|(lhs, _)| eq_depth[lhs as usize].unwrap_or(0))
                .max()
                .unwrap_or(0)
        };
        let dfas = &t.dfas;
        order.sort_by_key(|&v| {
            let dfa = dfas[v as usize].as_ref().expect("every root has a DFA");
            let class = if !dfa.is_infinite() {
                0u8
            } else if !dfa.accepts_empty() {
                1
            } else {
                2
            };
            (class, std::cmp::Reverse(var_depth(v)))
        });

        let ctx = StringCtx {
            alphabet,
            dfas,
            equations,
            order,
            ne_pairs,
            intervals: &t.intervals,
        };

        // Membership-only variables (not in any equation, not pinned)
        // get their shortest accepted word directly.
        for &root in roots {
            let in_equations = ctx
                .equations
                .iter()
                .any(|(l, parts)| l == root || parts.contains(&Part::Var(root)));
            if !in_equations && assignment[root as usize].is_none() {
                let word = ctx
                    .dfa(root)
                    .shortest_word()
                    .expect("nonempty language checked above");
                assignment[root as usize] = Some(word);
            }
        }

        // The pinned-lhs guide DFAs of the word-equation search are
        // word-valued and alphabet-specific; a pinned value stays
        // pinned for a whole search subtree, so memoize the built DFAs
        // for the duration of this conjunction (the alphabet is fixed
        // here, and the memo is thread-local to the search — no lock).
        self.word_dfa_memo.clear();
        match self.assign(&ctx, assignment) {
            StepResult::Sat => {
                let mut model = Model::new();
                for (rank, value) in t.bools.iter().enumerate() {
                    if let Some(value) = *value {
                        model.set_bool(ranks.bools[rank], value);
                    }
                }
                // Map every variable through its root.
                for i in 0..t.uf.touched.len() {
                    let v = t.uf.touched[i];
                    let root = t.uf.find(v);
                    let value = t.assignment[root as usize].clone().unwrap_or_default();
                    model.set_str(ranks.strs[v as usize], value);
                }
                Outcome::Sat(model)
            }
            StepResult::Exhausted => Outcome::Unsat,
            StepResult::Truncated => Outcome::Unknown,
        }
    }

    /// Depth-first assignment of free variables.
    fn assign(&mut self, ctx: &StringCtx<'_, 'a>, assignment: &mut [Option<String>]) -> StepResult {
        if self.nodes_left == 0 {
            self.stats.truncated = true;
            return StepResult::Truncated;
        }
        self.nodes_left -= 1;
        self.stats.nodes += 1;

        // Propagate equations to fixpoint; collect newly assigned lhs so
        // we can undo on backtrack. Variables whose enumeration yields
        // exactly one candidate are forced, not decision points: they
        // are assigned in place (like unit slices) and the loop selects
        // again, so a search node is only ever spent on a real branch.
        let mut trail: Vec<u32> = Vec::new();
        let mut units: Vec<u32> = Vec::new();
        loop {
            if propagate(ctx, assignment, &mut trail, &mut self.scratch).is_err() {
                retract(assignment, &trail, &units);
                return StepResult::Exhausted;
            }

            // Pick the next unassigned free variable dynamically,
            // preferring the strongest available guide (fail-first): a
            // variable whose equation lhs is already a concrete word
            // enumerates a handful of slices, while an unguided
            // near-universal variable floods the budget.
            let Some(var) = select_var(ctx, assignment) else {
                // Everything assigned: final verification.
                if final_check(ctx, assignment, &mut self.scratch.value) {
                    return StepResult::Sat;
                }
                retract(assignment, &trail, &units);
                return StepResult::Exhausted;
            };
            let slot = var as usize;
            let mut words = self.candidates(ctx, assignment, var);
            let mut next = words.next(&mut self.stats);
            let mut queued = match next {
                Some(_) => words.next(&mut self.stats),
                None => None,
            };
            if queued.is_none() && !words.truncated {
                if let Some(word) = next.take() {
                    // A complete enumeration with a single word:
                    // committing it is the only way forward, so no
                    // branch is opened.
                    assignment[slot] = Some(word);
                    units.push(var);
                    self.recycle(words);
                    continue;
                }
            }
            let mut any_truncated = false;
            while let Some(word) = next {
                if self.nodes_left == 0 {
                    // The child would return at once on the spent node
                    // budget, and so would every later one.
                    self.stats.truncated = true;
                    any_truncated = true;
                    break;
                }
                assignment[slot] = Some(word);
                match self.assign(ctx, assignment) {
                    StepResult::Sat => return StepResult::Sat,
                    StepResult::Truncated => any_truncated = true,
                    StepResult::Exhausted => {}
                }
                assignment[slot] = None;
                next = queued.take().or_else(|| words.next(&mut self.stats));
            }
            retract(assignment, &trail, &units);
            let truncated = any_truncated || words.truncated;
            self.recycle(words);
            return if truncated {
                StepResult::Truncated
            } else {
                StepResult::Exhausted
            };
        }
    }

    /// Starts the candidate enumeration for `var`, guided by the
    /// residual states of the equations it participates in.
    fn candidates(
        &mut self,
        ctx: &StringCtx<'_, 'a>,
        assignment: &[Option<String>],
        var: u32,
    ) -> Candidates<'a> {
        // Guides are collected for every equation where all parts
        // before the first occurrence of `var` are assigned. When the
        // lhs value is already pinned, the guide is the exact-word DFA
        // of that value — the strongest possible residual constraint.
        let CandidateBuffers {
            mut guides,
            mut banned,
            mut nodes,
            mut guide_states,
            heap,
            class_word,
        } = self.spare.pop().unwrap_or_default();
        'eqs: for (lhs, parts) in ctx.equations.iter() {
            let lhs_dfa: Arc<Dfa> = match &assignment[lhs as usize] {
                // Class-granularity word DFA: the pinned value may
                // contain characters that are not singleton classes.
                // Memoized per conjunction — the same pinned value is
                // requested at every node of the subtree below the pin.
                Some(value) => match self.word_dfa_memo.get(value) {
                    Some(dfa) => Arc::clone(dfa),
                    None => {
                        self.stats.dfas_built += 1;
                        let dfa = Arc::new(Dfa::from_word(value, &ctx.alphabet));
                        self.word_dfa_memo.insert(value.clone(), Arc::clone(&dfa));
                        dfa
                    }
                },
                None => Arc::clone(ctx.dfa(lhs)),
            };
            let mut state = lhs_dfa.start_state();
            let mut first_at = None;
            for (i, p) in parts.iter().enumerate() {
                match *p {
                    Part::Var(v) if v == var => {
                        first_at = Some(i);
                        break;
                    }
                    Part::Var(v) => match &assignment[v as usize] {
                        Some(w) => state = lhs_dfa.run(state, w),
                        None => continue 'eqs,
                    },
                    Part::Lit(s) => state = lhs_dfa.run(state, s),
                }
            }
            let Some(first_at) = first_at else { continue };
            // The forced tail: known iff every part after the first
            // occurrence is a literal, an assigned variable, or `var`
            // itself (a repeated occurrence echoes the candidate).
            let mut tail = Some(Vec::new());
            for p in &parts[first_at + 1..] {
                let piece = match *p {
                    Part::Var(v) if v == var => Some(TailPiece::Own),
                    Part::Var(v) => assignment[v as usize].clone().map(TailPiece::Word),
                    Part::Lit(s) => Some(TailPiece::Lit(s)),
                };
                match (piece, &mut tail) {
                    (Some(piece), Some(pieces)) => pieces.push(piece),
                    _ => {
                        tail = None;
                        break;
                    }
                }
            }
            guides.push(Guide {
                dfa: lhs_dfa,
                state,
                tail,
            });
        }
        // Disequalities that become decidable the moment `var` is
        // assigned: candidates equal to the other side's pinned value
        // are rejected by the next `propagate` unconditionally.
        banned.extend(ctx.ne_pairs.iter().filter_map(|&(a, b)| {
            if a == var {
                assignment[b as usize].clone()
            } else if b == var {
                assignment[a as usize].clone()
            } else {
                None
            }
        }));
        // The variable's length window from the abstraction pass.
        // Cutting at the interval's upper bound is *exact* — no longer
        // word can be part of any solution — so only a cut at the
        // configured limit marks the enumeration as truncated.
        let bounds = ctx.intervals[var as usize].unwrap_or_else(LenInterval::full);
        let hard_cap = self.config.max_word_len as u64;
        let var_dfa = Arc::clone(ctx.dfa(var));
        nodes.push(Node {
            parent: u32::MAX,
            class: 0,
            len: 0,
            vs: var_dfa.start_state(),
        });
        guide_states.extend(guides.iter().map(|g| g.state));
        let mut words = Candidates {
            alphabet: Arc::clone(&ctx.alphabet),
            min_len: bounds.lo,
            cap: bounds.hi.map_or(hard_cap, |h| h.min(hard_cap)),
            cap_is_exact: bounds.hi.is_some_and(|h| h <= hard_cap),
            max_candidates: self.config.max_candidates_per_var,
            max_expansions: self
                .config
                .max_candidates_per_var
                .saturating_mul(64)
                .max(4_096),
            yielded: 0,
            expansions: 0,
            truncated: false,
            nodes,
            guide_states,
            counter: 0,
            heap: BinaryHeap::from(heap),
            class_word,
            var_dfa,
            guides,
            banned,
        };
        if words
            .guides
            .iter()
            .all(|g| g.dfa.distance_to_accept(g.state).is_some())
        {
            let root = words.priority(0, words.var_dfa.start_state(), 0);
            words.heap.push(Reverse((root, 0, 0)));
        }
        words
    }

    /// Keeps a finished enumeration's buffers for the next one.
    fn recycle(&mut self, words: Candidates<'a>) {
        let mut spare = CandidateBuffers {
            guides: words.guides,
            banned: words.banned,
            nodes: words.nodes,
            guide_states: words.guide_states,
            heap: words.heap.into_vec(),
            class_word: words.class_word,
        };
        spare.guides.clear();
        spare.banned.clear();
        spare.nodes.clear();
        spare.guide_states.clear();
        spare.heap.clear();
        self.spare.push(spare);
    }
}

/// The buffers of a [`Candidates`] enumeration, kept across the
/// enumerations of one solve. The search holds one enumeration per
/// level of its recursion, so the spares form a stack.
#[derive(Default)]
struct CandidateBuffers<'f> {
    guides: Vec<Guide<'f>>,
    banned: Vec<String>,
    nodes: Vec<Node>,
    guide_states: Vec<u32>,
    heap: Vec<Reverse<(u64, u64, u32)>>,
    class_word: Vec<u16>,
}

/// A piece of a guide's forced tail: a literal run, an assigned
/// variable's word, or a repeated occurrence of the searched variable
/// (which takes the candidate's own value once one is proposed).
enum TailPiece<'f> {
    Lit(&'f str),
    Word(String),
    Own,
}

/// One residual guide: the lhs DFA after running the assigned prefix,
/// plus — when every part after the first occurrence of the searched
/// variable is concrete or the variable itself — the forced tail. A
/// candidate that cannot run that tail to acceptance would complete
/// the equation and be rejected by the very next `propagate`, so it is
/// filtered by the enumeration instead of burning a search node (the
/// surviving candidates and their order are unchanged, so the found
/// model is identical).
struct Guide<'f> {
    dfa: Arc<Dfa>,
    state: u32,
    tail: Option<Vec<TailPiece<'f>>>,
}

/// One prefix in a [`Candidates`] arena; `parent == u32::MAX` marks the
/// root.
struct Node {
    parent: u32,
    class: u16,
    len: u32,
    vs: u32,
}

/// The pull-based candidate enumeration for one variable.
///
/// Best-first (A*-style) search over (var state, guide states):
/// priority = word length + residual distances to acceptance in the
/// variable DFA and every guide. This finds words that *complete* the
/// surrounding equations early, instead of flooding the budget with
/// short irrelevant words. Words are produced on demand, so a search
/// that commits to its first candidate never pays for the rest.
///
/// Heap entries are indices into a parent-pointer arena — the
/// class-word and guide-state vectors live once per *node* (shared
/// prefix via parent links, guide states in one flat buffer) instead of
/// being cloned on every heap push; a word is only realized when it is
/// accepted.
struct Candidates<'f> {
    var_dfa: Arc<Dfa>,
    alphabet: Arc<Alphabet>,
    guides: Vec<Guide<'f>>,
    banned: Vec<String>,
    /// The length window: shorter words are not yielded, and prefixes
    /// are not extended past `cap`.
    min_len: u64,
    cap: u64,
    cap_is_exact: bool,
    max_candidates: usize,
    max_expansions: usize,
    yielded: usize,
    expansions: usize,
    /// Set once the enumeration hit a limit (candidate or expansion
    /// count, or an inexact length cap): words may be missing.
    truncated: bool,
    nodes: Vec<Node>,
    /// Node i's guide states live at `i * guides.len() ..`.
    guide_states: Vec<u32>,
    /// FIFO tiebreak → length order among ties.
    counter: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// The class word of the last accepted node ([`Candidates::spell`]).
    class_word: Vec<u16>,
}

impl Candidates<'_> {
    /// The next candidate word, or `None` once the enumeration is
    /// exhausted or hit a limit (then `truncated` is set). Yields are
    /// counted in `stats.candidates`, limits in `stats.truncated`.
    fn next(&mut self, stats: &mut SolveStats) -> Option<String> {
        let guide_count = self.guides.len();
        while let Some(Reverse((_, _, idx))) = self.heap.pop() {
            if self.yielded >= self.max_candidates || self.expansions >= self.max_expansions {
                self.truncate(stats);
                self.heap.clear();
                return None;
            }
            let (vs, len) = {
                let node = &self.nodes[idx as usize];
                (node.vs, u64::from(node.len))
            };
            let mut found = None;
            if self.var_dfa.is_accepting(vs) && len >= self.min_len {
                // A candidate is only yielded if no equation it
                // completes (guides with a fully concrete tail) rejects
                // it and no decidable disequality pins it to a banned
                // word — `propagate` would refute such a child at the
                // cost of a search node. Survivors keep their order, so
                // the first model found is unchanged.
                self.spell(idx);
                let word = self.alphabet.realize(&self.class_word);
                let gs = &self.guide_states[idx as usize * guide_count..][..guide_count];
                let viable = self.guides.iter().zip(gs).all(|(g, &st)| match &g.tail {
                    Some(pieces) => {
                        let end = pieces.iter().fold(st, |st, p| match p {
                            TailPiece::Lit(s) => g.dfa.run(st, s),
                            TailPiece::Word(s) => g.dfa.run(st, s),
                            TailPiece::Own => g.dfa.run(st, &word),
                        });
                        g.dfa.is_accepting(end)
                    }
                    None => true,
                });
                if viable && !self.banned.contains(&word) {
                    found = Some(word);
                }
            }
            if len >= self.cap {
                if !self.cap_is_exact {
                    self.truncate(stats);
                }
            } else {
                self.expand(idx, vs, len);
            }
            if found.is_some() {
                self.yielded += 1;
                stats.candidates += 1;
                return found;
            }
        }
        None
    }

    fn truncate(&mut self, stats: &mut SolveStats) {
        self.truncated = true;
        stats.truncated = true;
    }

    /// Pushes every live one-class extension of node `idx`.
    fn expand(&mut self, idx: u32, vs: u32, len: u64) {
        let guide_count = self.guides.len();
        let gs_base = idx as usize * guide_count;
        for class in 0..self.alphabet.class_count() {
            self.expansions += 1;
            let nvs = self.var_dfa.step(vs, class as u16);
            if self.var_dfa.distance_to_accept(nvs).is_none() {
                continue;
            }
            // Step the guides into the tail of the flat buffer; on a
            // dead guide the partial segment is rolled back.
            let segment = self.guide_states.len();
            let mut live = true;
            for i in 0..guide_count {
                let g = &self.guides[i].dfa;
                let next = g.step(self.guide_states[gs_base + i], class as u16);
                if g.distance_to_accept(next).is_none() {
                    live = false;
                    break;
                }
                self.guide_states.push(next);
            }
            if !live {
                self.guide_states.truncate(segment);
                continue;
            }
            let new_idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                parent: idx,
                class: class as u16,
                len: (len + 1) as u32,
                vs: nvs,
            });
            self.counter += 1;
            let p = self.priority(len + 1, nvs, segment);
            self.heap.push(Reverse((p, self.counter, new_idx)));
        }
    }

    /// Word length plus the residual distances to acceptance of the
    /// variable DFA at `vs` and of every guide at its states stored
    /// from `guide_states[at..]`.
    fn priority(&self, len: u64, vs: u32, at: usize) -> u64 {
        let mut p = len;
        p += u64::from(self.var_dfa.distance_to_accept(vs).unwrap_or(0));
        for (g, &st) in self.guides.iter().zip(&self.guide_states[at..]) {
            p += u64::from(g.dfa.distance_to_accept(st).unwrap_or(0));
        }
        p
    }

    /// Writes the class word spelled by the path from the root to
    /// `idx` to `class_word`.
    fn spell(&mut self, mut idx: u32) {
        self.class_word.clear();
        while self.nodes[idx as usize].parent != u32::MAX {
            self.class_word.push(self.nodes[idx as usize].class);
            idx = self.nodes[idx as usize].parent;
        }
        self.class_word.reverse();
    }
}

enum StepResult {
    Sat,
    Exhausted,
    Truncated,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Part<'f> {
    Var(u32),
    Lit(&'f str),
}

struct StringCtx<'t, 'f> {
    alphabet: Arc<Alphabet>,
    dfas: &'t [Option<Arc<Dfa>>],
    equations: &'t Equations<'f>,
    order: &'t [u32],
    ne_pairs: &'t [(u32, u32)],
    /// Accepted-length windows per root from the length-abstraction
    /// pass (all `None` when the pass is disabled).
    intervals: &'t [Option<LenInterval>],
}

impl StringCtx<'_, '_> {
    /// The constraint DFA of a root.
    fn dfa(&self, root: u32) -> &Arc<Dfa> {
        self.dfas[root as usize]
            .as_ref()
            .expect("every root has a DFA")
    }
}

/// An inclusive interval of word lengths; `hi = None` means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LenInterval {
    lo: u64,
    hi: Option<u64>,
}

impl LenInterval {
    /// The interval constraining nothing.
    fn full() -> LenInterval {
        LenInterval { lo: 0, hi: None }
    }

    /// The singleton interval `[n, n]`.
    fn exact(n: u64) -> LenInterval {
        LenInterval { lo: n, hi: Some(n) }
    }

    /// Intersection; `None` when empty.
    fn meet(self, other: LenInterval) -> Option<LenInterval> {
        let lo = self.lo.max(other.lo);
        let hi = match (self.hi, other.hi) {
            (None, h) | (h, None) => h,
            (Some(a), Some(b)) => Some(a.min(b)),
        };
        match hi {
            Some(h) if h < lo => None,
            _ => Some(LenInterval { lo, hi }),
        }
    }

    /// Minkowski sum: the lengths of a concatenation.
    fn add(self, other: LenInterval) -> LenInterval {
        LenInterval {
            lo: self.lo.saturating_add(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }

    /// The lengths `x` with `x + y ∈ self` possible for some
    /// `y ∈ other`; `None` when no such `x` exists.
    fn minus(self, other: LenInterval) -> Option<LenInterval> {
        let lo = match other.hi {
            Some(h) => self.lo.saturating_sub(h),
            None => 0,
        };
        let hi = match self.hi {
            None => None,
            Some(h) => Some(h.checked_sub(other.lo)?),
        };
        match hi {
            Some(h) if h < lo => None,
            _ => Some(LenInterval { lo, hi }),
        }
    }
}

/// Computes per-root length intervals and propagates them through the
/// concat equations to a fixpoint (bounded rounds). `Err` means some
/// interval became empty — the conjunction has no solution.
fn length_intervals(
    roots: &[u32],
    dfas: &[Option<Arc<Dfa>>],
    equations: &Equations,
    intervals: &mut [Option<LenInterval>],
) -> Result<(), ()> {
    for &root in roots {
        let dfa = dfas[root as usize].as_ref().expect("every root has a DFA");
        // Empty languages were refuted before this pass runs.
        let bounds = dfa.length_bounds().ok_or(())?;
        intervals[root as usize] = Some(LenInterval {
            lo: bounds.min as u64,
            hi: bounds.max.map(|m| m as u64),
        });
    }
    let part_interval = |p: &Part, intervals: &[Option<LenInterval>]| -> LenInterval {
        match *p {
            Part::Var(v) => intervals[v as usize].unwrap_or_else(LenInterval::full),
            Part::Lit(s) => LenInterval::exact(s.chars().count() as u64),
        }
    };
    // Interval refinement is monotone, so a fixpoint exists; the round
    // cap only bounds time on pathological chains.
    let max_rounds = 4 * equations.len() + 4;
    for _ in 0..max_rounds {
        let mut changed = false;
        for (lhs, parts) in equations.iter() {
            // Forward: len(lhs) ∈ Σ len(part).
            let mut sum = LenInterval::exact(0);
            for p in parts {
                sum = sum.add(part_interval(p, intervals));
            }
            let current = intervals[lhs as usize].unwrap_or_else(LenInterval::full);
            let refined = current.meet(sum).ok_or(())?;
            if refined != current {
                intervals[lhs as usize] = Some(refined);
                changed = true;
            }
            // Backward: each variable occurrence fits in what the lhs
            // leaves after the other parts.
            for (i, p) in parts.iter().enumerate() {
                let Part::Var(v) = *p else { continue };
                let mut others = LenInterval::exact(0);
                for (j, q) in parts.iter().enumerate() {
                    if j != i {
                        others = others.add(part_interval(q, intervals));
                    }
                }
                let derived = refined.minus(others).ok_or(())?;
                let current = intervals[v as usize].unwrap_or_else(LenInterval::full);
                let met = current.meet(derived).ok_or(())?;
                if met != current {
                    intervals[v as usize] = Some(met);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(())
}

/// Propagates fully-determined equations (computing lhs values) and
/// prefix-prunes partially determined ones. Returns `Err` on conflict.
fn propagate(
    ctx: &StringCtx,
    assignment: &mut [Option<String>],
    trail: &mut Vec<u32>,
    scratch: &mut Scratch,
) -> Result<(), ()> {
    let mut changed = true;
    while changed {
        changed = false;
        for (lhs, parts) in ctx.equations.iter() {
            let value = &mut scratch.value;
            value.clear();
            let mut complete = true;
            let lhs_dfa = ctx.dfa(lhs);
            let mut state = lhs_dfa.start_state();
            for p in parts {
                let piece: Option<&str> = match *p {
                    Part::Var(v) => assignment[v as usize].as_deref(),
                    Part::Lit(s) => Some(s),
                };
                match piece {
                    Some(s) => {
                        value.push_str(s);
                        state = lhs_dfa.run(state, s);
                        if lhs_dfa.distance_to_accept(state).is_none() {
                            // The lhs DFA can never accept any extension
                            // of this prefix.
                            return Err(());
                        }
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                match &assignment[lhs as usize] {
                    Some(existing) => {
                        if existing != value {
                            return Err(());
                        }
                    }
                    None => {
                        if !lhs_dfa.is_accepting(state) {
                            return Err(());
                        }
                        assignment[lhs as usize] = Some(value.clone());
                        trail.push(lhs);
                        changed = true;
                    }
                }
            } else if let Some(existing) = &assignment[lhs as usize] {
                // lhs pinned: the assigned prefix must be a prefix of it.
                if !existing.starts_with(value.as_str()) {
                    return Err(());
                }
                // Unit slicing: with exactly one unassigned variable part
                // (occurring once), its value is forced by the pinned lhs.
                let mut unassigned = parts.iter().filter_map(|p| match *p {
                    Part::Var(v) if assignment[v as usize].is_none() => Some(v),
                    _ => None,
                });
                let (Some(var), None) = (unassigned.next(), unassigned.next()) else {
                    continue;
                };
                let Scratch { prefix, suffix, .. } = scratch;
                prefix.clear();
                suffix.clear();
                let mut before = true;
                for p in parts {
                    let piece: Option<&str> = match *p {
                        Part::Var(v) if v == var => {
                            before = false;
                            continue;
                        }
                        Part::Var(v) => assignment[v as usize].as_deref(),
                        Part::Lit(s) => Some(s),
                    };
                    let piece = piece.expect("only `var` is unassigned");
                    if before {
                        prefix.push_str(piece);
                    } else {
                        suffix.push_str(piece);
                    }
                }
                // `existing` splits as prefix ++ middle ++ suffix exactly
                // when it is long enough and starts and ends with them;
                // both end on character boundaries, so the byte lengths
                // decide as the character counts would.
                if existing.len() < prefix.len() + suffix.len()
                    || !existing.starts_with(prefix.as_str())
                    || !existing.ends_with(suffix.as_str())
                {
                    return Err(());
                }
                let middle = &existing[prefix.len()..existing.len() - suffix.len()];
                if let Some(dfa) = &ctx.dfas[var as usize] {
                    if !dfa.contains(middle) {
                        return Err(());
                    }
                }
                let middle = middle.to_string();
                assignment[var as usize] = Some(middle);
                trail.push(var);
                changed = true;
            }
        }
    }
    // Variable disequalities fail as soon as both sides are assigned.
    // Without this, a doomed pair pinned near the root of the search
    // tree is only rediscovered by `final_check` at every leaf below
    // it — an exponential blowup observed in the wild (a §4.4 negated
    // capture binding burned 27k nodes on one flip query).
    for &(a, b) in ctx.ne_pairs {
        if let (Some(va), Some(vb)) = (&assignment[a as usize], &assignment[b as usize]) {
            if va == vb {
                return Err(());
            }
        }
    }
    Ok(())
}

/// Picks the unassigned free variable with the strongest guide:
/// 0 — some equation has it first-unassigned with a concrete lhs word;
/// 1 — same but the lhs language is finite;
/// 2 — same but the lhs language is infinite (weak guide);
/// 3 — no equation ready to guide it.
/// Static order position breaks ties, keeping the search deterministic.
fn select_var(ctx: &StringCtx, assignment: &[Option<String>]) -> Option<u32> {
    let mut best: Option<(u8, usize)> = None;
    for (pos, &var) in ctx.order.iter().enumerate() {
        if assignment[var as usize].is_some() {
            continue;
        }
        let mut score = 3u8;
        for (lhs, parts) in ctx.equations.iter() {
            let mut preceding_assigned = true;
            let mut found = false;
            for part in parts {
                match *part {
                    Part::Var(v) if v == var => {
                        found = true;
                        break;
                    }
                    Part::Var(v) => {
                        if assignment[v as usize].is_none() {
                            preceding_assigned = false;
                            break;
                        }
                    }
                    Part::Lit(_) => {}
                }
            }
            if !found || !preceding_assigned {
                continue;
            }
            let strength = if assignment[lhs as usize].is_some() {
                0
            } else if !ctx.dfa(lhs).is_infinite() {
                1
            } else {
                2
            };
            score = score.min(strength);
            if score == 0 {
                break;
            }
        }
        if best.is_none_or(|(s, p)| (score, pos) < (s, p)) {
            best = Some((score, pos));
        }
    }
    best.map(|(_, pos)| ctx.order[pos])
}

/// Backtracks one search node: drops both the propagation trail and the
/// unit (single-candidate) assignments committed at that node.
fn retract(assignment: &mut [Option<String>], trail: &[u32], units: &[u32]) {
    for &v in trail.iter().chain(units) {
        assignment[v as usize] = None;
    }
}

fn final_check(ctx: &StringCtx, assignment: &[Option<String>], value: &mut String) -> bool {
    for (lhs, parts) in ctx.equations.iter() {
        let Some(lhs_val) = &assignment[lhs as usize] else {
            return false;
        };
        value.clear();
        for p in parts {
            match *p {
                Part::Var(v) => match &assignment[v as usize] {
                    Some(s) => value.push_str(s),
                    None => return false,
                },
                Part::Lit(s) => value.push_str(s),
            }
        }
        if lhs_val != value {
            return false;
        }
    }
    for (dfa, value) in ctx.dfas.iter().zip(assignment) {
        if let (Some(dfa), Some(value)) = (dfa, value) {
            if !dfa.contains(value) {
                return false;
            }
        }
    }
    for &(a, b) in ctx.ne_pairs {
        match (&assignment[a as usize], &assignment[b as usize]) {
            (Some(va), Some(vb)) if va == vb => return false,
            _ => {}
        }
    }
    true
}

/// A conjunction's word equations `lhs = parts` over roots, the parts
/// of every equation stored back to back.
#[derive(Debug, Default)]
struct Equations<'f> {
    /// Per equation: its lhs and the end of its parts in `parts`.
    heads: Vec<(u32, u32)>,
    parts: Vec<Part<'f>>,
}

impl<'f> Equations<'f> {
    fn clear(&mut self) {
        self.heads.clear();
        self.parts.clear();
    }

    fn len(&self) -> usize {
        self.heads.len()
    }

    fn get(&self, i: usize) -> (u32, &[Part<'f>]) {
        let start = match i {
            0 => 0,
            _ => self.heads[i - 1].1 as usize,
        };
        let (lhs, end) = self.heads[i];
        (lhs, &self.parts[start..end as usize])
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &[Part<'f>])> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Makes the parts pushed since the last equation the equation
    /// `lhs = …`.
    fn commit(&mut self, lhs: u32) {
        self.heads.push((lhs, self.parts.len() as u32));
    }

    /// Like [`Equations::commit`], unless that equation is already
    /// present; `start` is where its parts begin.
    fn commit_unique(&mut self, lhs: u32, start: usize) {
        let parts = &self.parts[start..];
        if self.iter().any(|(l, p)| l == lhs && p == parts) {
            self.parts.truncate(start);
        } else {
            self.commit(lhs);
        }
    }

    fn push_unique(&mut self, lhs: u32, parts: &[Part<'f>]) {
        let start = self.parts.len();
        self.parts.extend_from_slice(parts);
        self.commit_unique(lhs, start);
    }

    fn push(&mut self, lhs: u32, parts: &[Part<'f>]) {
        self.parts.extend_from_slice(parts);
        self.commit(lhs);
    }
}

/// The congruence closure's distinct right-hand sides, each with its
/// owner: the equations `owner = rhs`, found by a hash of the parts
/// (the std hasher: literal parts are input text). `index` maps a hash
/// to the latest equation with it, and `next` chains each equation to
/// the previous one with the same hash.
#[derive(Default)]
struct Owners<'f> {
    eqs: Equations<'f>,
    index: HashMap<u64, u32>,
    next: Vec<u32>,
    hasher: RandomState,
}

impl<'f> Owners<'f> {
    fn clear(&mut self) {
        self.eqs.clear();
        self.index.clear();
        self.next.clear();
    }

    /// The owner of the right-hand side pushed to `eqs.parts` since
    /// `start`, which is then dropped; a new right-hand side is kept
    /// with `root` as its owner.
    fn owner(&mut self, start: usize, root: u32) -> Option<u32> {
        let rhs = &self.eqs.parts[start..];
        let hash = self.hasher.hash_one(rhs);
        let mut i = self.index.get(&hash).copied().unwrap_or(NIL);
        while i != NIL {
            let (owner, seen) = self.eqs.get(i as usize);
            if seen == rhs {
                self.eqs.parts.truncate(start);
                return Some(owner);
            }
            i = self.next[i as usize];
        }
        let latest = self.index.insert(hash, self.eqs.len() as u32);
        self.next.push(latest.unwrap_or(NIL));
        self.eqs.commit(root);
        None
    }
}

/// Whether the equations cycle. `defs` is all `NIL` on entry and on
/// return.
fn has_cycle(equations: &Equations, defs: &mut [u32]) -> bool {
    // DFS from each lhs through parts that are themselves lhs, along
    // the *last* definition of each variable.
    fn visit(
        v: u32,
        equations: &Equations,
        defs: &[u32],
        visiting: &mut Vec<u32>,
        done: &mut Vec<u32>,
    ) -> bool {
        if done.contains(&v) {
            return false;
        }
        if visiting.contains(&v) {
            return true;
        }
        visiting.push(v);
        let def = defs[v as usize];
        if def != NIL {
            let (_, parts) = equations.get(def as usize);
            for p in parts {
                if let Part::Var(u) = *p {
                    if visit(u, equations, defs, visiting, done) {
                        return true;
                    }
                }
            }
        }
        visiting.pop();
        done.push(v);
        false
    }
    for (i, (lhs, _)) in equations.iter().enumerate() {
        defs[lhs as usize] = i as u32;
    }
    let mut done = Vec::new();
    let cyclic = equations.iter().any(|(lhs, _)| {
        let mut visiting = Vec::new();
        visit(lhs, equations, defs, &mut visiting, &mut done)
    });
    for (lhs, _) in equations.iter() {
        defs[lhs as usize] = NIL;
    }
    cyclic
}

/// Adds the transitive closures of nested equations: when the lhs of
/// one equation occurs as a part of another, the substituted (implied)
/// equation is appended alongside the originals. The originals keep
/// intermediate variables derivable by propagation; the flattened
/// copies relate *base* variables directly to outer words, so a pinned
/// outer word guides candidate enumeration for inner variables instead
/// of leaving them near-universal (which floods the node budget).
/// `defs` is all `NIL` on entry and maps each lhs to its first
/// definition on return; `current` and `next` are substitution scratch.
fn flatten_equations<'f>(
    equations: &mut Equations<'f>,
    defs: &mut [u32],
    current: &mut Vec<Part<'f>>,
    next: &mut Vec<Part<'f>>,
) {
    let originals = equations.len();
    // First definition wins for variables with several equations; the
    // others still get checked via their own (flattened) equations.
    for (i, (lhs, _)) in equations.iter().enumerate() {
        if defs[lhs as usize] == NIL {
            defs[lhs as usize] = i as u32;
        }
    }
    for i in 0..originals {
        let (lhs, parts) = equations.get(i);
        current.clear();
        current.extend_from_slice(parts);
        // The occurs check ran on ONE definition per variable; with
        // several definitions the substitution graph can still cycle
        // (e.g. x = [y,"a"], y = [x,"c"] alongside an acyclic x
        // definition). In an acyclic system the substitution depth is
        // bounded by the number of equations, so fuel exhaustion means
        // a cycle: abandon the flattened copy (it is only a redundant
        // search guide) and keep the original equation.
        let mut fuel = originals + 1;
        let mut diverged = false;
        loop {
            next.clear();
            let mut changed = false;
            for &part in current.iter() {
                match part {
                    Part::Var(v) if v != lhs && defs[v as usize] != NIL => {
                        next.extend_from_slice(equations.get(defs[v as usize] as usize).1);
                        changed = true;
                    }
                    _ => next.push(part),
                }
            }
            std::mem::swap(current, next);
            if !changed {
                break;
            }
            fuel -= 1;
            if fuel == 0 {
                diverged = true;
                break;
            }
        }
        if !diverged {
            equations.push_unique(lhs, current);
        }
    }
}

/// Writes `equations` to `out` so that inner (dependency) equations
/// come first. `pending` and `deferred` are index scratch;
/// `pending_defs` is all zero on entry and on return.
fn topo_sort<'f>(
    equations: &Equations<'f>,
    out: &mut Equations<'f>,
    pending: &mut Vec<u32>,
    deferred: &mut Vec<u32>,
    pending_defs: &mut [u32],
) {
    out.clear();
    pending.clear();
    pending.extend(0..equations.len() as u32);
    for (lhs, _) in equations.iter() {
        pending_defs[lhs as usize] += 1;
    }
    while !pending.is_empty() {
        deferred.clear();
        let before = out.len();
        // Readiness is judged against the definitions pending at the
        // start of the round.
        for &i in pending.iter() {
            let (lhs, parts) = equations.get(i as usize);
            let ready = parts.iter().all(|p| match *p {
                Part::Var(v) => pending_defs[v as usize] == 0 || v == lhs,
                Part::Lit(_) => true,
            });
            if ready {
                out.push(lhs, parts);
            } else {
                deferred.push(i);
            }
        }
        if out.len() == before {
            // Cycle was excluded earlier; defensive fallback.
            for &i in deferred.iter() {
                let (lhs, parts) = equations.get(i as usize);
                out.push(lhs, parts);
            }
            break;
        }
        for i in before..out.len() {
            pending_defs[out.get(i).0 as usize] -= 1;
        }
        std::mem::swap(pending, deferred);
    }
    for (lhs, _) in equations.iter() {
        pending_defs[lhs as usize] = 0;
    }
}

/// Union-find over string ranks: `parent[v] == NIL` until `v` is
/// touched, and `touched` lists the touched ranks in order, so a reset
/// costs what the conjunction used.
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<u32>,
    touched: Vec<u32>,
}

impl UnionFind {
    fn new(len: usize) -> UnionFind {
        UnionFind {
            parent: vec![NIL; len],
            touched: Vec::new(),
        }
    }

    fn touch(&mut self, v: u32) {
        if self.parent[v as usize] == NIL {
            self.parent[v as usize] = v;
            self.touched.push(v);
        }
    }

    fn find(&mut self, v: u32) -> u32 {
        self.touch(v);
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.parent[v as usize] = NIL;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarPool;

    fn solve(f: &Formula) -> Outcome {
        Solver::default().solve(f).0
    }

    fn re_char(c: char) -> CRegex {
        CRegex::set(CharSet::single(c))
    }

    #[test]
    fn trivial_sat_and_unsat() {
        assert!(solve(&Formula::top()).is_sat());
        assert_eq!(solve(&Formula::bottom()), Outcome::Unsat);
    }

    #[test]
    fn membership_witness() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let re = CRegex::plus(re_char('a'));
        let outcome = solve(&Formula::in_re(v, re));
        let model = outcome.model().expect("sat");
        assert_eq!(model.get_str(v), Some("a"));
    }

    #[test]
    fn membership_conflict_is_unsat() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::in_re(v, CRegex::plus(re_char('a'))),
            Formula::in_re(v, CRegex::plus(re_char('b'))),
        ]);
        assert_eq!(solve(&f), Outcome::Unsat);
    }

    #[test]
    fn eq_lit_checked_against_membership() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::in_re(v, CRegex::plus(re_char('a'))),
            Formula::eq_lit(v, "aaa"),
        ]);
        let model = solve(&f).model().expect("sat");
        assert_eq!(model.get_str(v), Some("aaa"));
        let f = Formula::and(vec![
            Formula::in_re(v, CRegex::plus(re_char('a'))),
            Formula::eq_lit(v, "ab"),
        ]);
        assert_eq!(solve(&f), Outcome::Unsat);
    }

    #[test]
    fn concat_equation() {
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(a), Term::Var(b)]),
            Formula::in_re(a, CRegex::plus(re_char('x'))),
            Formula::in_re(b, CRegex::plus(re_char('y'))),
            Formula::eq_lit(w, "xxyy"),
        ]);
        let model = solve(&f).model().expect("sat");
        assert_eq!(model.get_str(a), Some("xx"));
        assert_eq!(model.get_str(b), Some("yy"));
    }

    #[test]
    fn enumeration_stops_at_the_committed_word() {
        // The search commits to the first candidate of each variable,
        // so a lazy enumeration realizes only the words it pulls: two
        // to tell a unit from a branch, for each decided variable.
        let mut pool = VarPool::new();
        let x = pool.fresh_str();
        let y = pool.fresh_str();
        let z = pool.fresh_str();
        let lower = CharSet::range('a', 'z');
        let digit = CharSet::range('0', '9');
        let f = Formula::and(vec![
            Formula::eq_concat(x, vec![Term::Var(y), Term::Var(z)]),
            Formula::in_re(y, CRegex::plus(CRegex::set(lower.clone()))),
            Formula::in_re(z, CRegex::plus(CRegex::set(digit.clone()))),
            Formula::in_re(x, CRegex::star(CRegex::set(lower.union(&digit)))),
        ]);
        let (outcome, stats) = Solver::new(SolverConfig::fast()).solve(&f);
        let model = outcome.model().expect("sat");
        assert_eq!(model.get_str(x), Some("a0"));
        assert_eq!(stats.nodes, 3);
        assert_eq!(stats.candidates, 4);
        assert!(!stats.truncated);
    }

    #[test]
    fn concat_equation_unsat() {
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(a), Term::Var(b)]),
            Formula::in_re(a, CRegex::plus(re_char('x'))),
            Formula::in_re(b, CRegex::plus(re_char('y'))),
            Formula::eq_lit(w, "yx"),
        ]);
        assert_eq!(solve(&f), Outcome::Unsat);
    }

    #[test]
    fn negative_membership() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::in_re(v, CRegex::star(re_char('a'))),
            Formula::not_in_re(v, CRegex::Epsilon),
            Formula::ne_lit(v, "a"),
        ]);
        let model = solve(&f).model().expect("sat");
        assert_eq!(model.get_str(v), Some("aa"));
    }

    #[test]
    fn alias_merging() {
        let mut pool = VarPool::new();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let f = Formula::and(vec![Formula::eq_var(a, b), Formula::eq_lit(b, "shared")]);
        let model = solve(&f).model().expect("sat");
        assert_eq!(model.get_str(a), Some("shared"));
    }

    #[test]
    fn alias_conflict() {
        let mut pool = VarPool::new();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_var(a, b),
            Formula::eq_lit(a, "x"),
            Formula::eq_lit(b, "y"),
        ]);
        assert_eq!(solve(&f), Outcome::Unsat);
    }

    #[test]
    fn disjunction_explores_branches() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::or(vec![
            Formula::and(vec![
                Formula::eq_lit(v, "a"),
                Formula::ne_lit(v, "a"), // contradiction
            ]),
            Formula::eq_lit(v, "b"),
        ]);
        let model = solve(&f).model().expect("sat");
        assert_eq!(model.get_str(v), Some("b"));
    }

    #[test]
    fn bool_flags() {
        let mut pool = VarPool::new();
        let b = pool.fresh_bool();
        let f = Formula::and(vec![Formula::bool_is(b, true)]);
        let model = solve(&f).model().expect("sat");
        assert!(model.get_bool(b));
        let f = Formula::and(vec![Formula::bool_is(b, true), Formula::bool_is(b, false)]);
        assert_eq!(solve(&f), Outcome::Unsat);
    }

    #[test]
    fn nested_equations() {
        // w = u ++ "c", u = a ++ b — two-level nesting.
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let u = pool.fresh_str();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(u), Term::lit("c")]),
            Formula::eq_concat(u, vec![Term::Var(a), Term::Var(b)]),
            Formula::in_re(a, re_char('x')),
            Formula::in_re(b, re_char('y')),
        ]);
        let model = solve(&f).model().expect("sat");
        assert_eq!(model.get_str(w), Some("xyc"));
        assert_eq!(model.get_str(u), Some("xy"));
    }

    #[test]
    fn refinement_shape() {
        // The CEGAR clause shape: (w = "aa" ⟹ c = "") ∧ w = "aa".
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let c = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_lit(w, "aa"),
            Formula::implies_eq_lit(w, "aa", Formula::eq_lit(c, "")),
        ]);
        let model = solve(&f).model().expect("sat");
        assert_eq!(model.get_str(c), Some(""));
    }

    #[test]
    fn cyclic_equation_is_unknown() {
        let mut pool = VarPool::new();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(a, vec![Term::Var(b), Term::lit("x")]),
            Formula::eq_concat(b, vec![Term::Var(a)]),
        ]);
        assert_eq!(solve(&f), Outcome::Unknown);
    }

    #[test]
    fn shared_var_multiple_occurrences() {
        // w = v ++ v (backreference shape): both halves equal.
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let v = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(v), Term::Var(v)]),
            Formula::in_re(v, CRegex::alt(vec![CRegex::lit("ab"), CRegex::lit("c")])),
            Formula::ne_lit(w, "cc"),
        ]);
        let model = solve(&f).model().expect("sat");
        assert_eq!(model.get_str(w), Some("abab"));
    }

    #[test]
    fn unsat_exhaustive_finite_language() {
        // v ∈ {a, b} and w = v ++ v and w = "ab" — impossible.
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let v = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(v), Term::Var(v)]),
            Formula::in_re(v, CRegex::alt(vec![CRegex::lit("a"), CRegex::lit("b")])),
            Formula::eq_lit(w, "ab"),
        ]);
        assert_eq!(solve(&f), Outcome::Unsat);
    }

    #[test]
    fn length_abstraction_refutes_doomed_conjunction() {
        // w ∈ a{5}, v ∈ a{3}, w = v ++ v: |w| would have to be 6 ≠ 5.
        // The interval pass must refute this before any word search.
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let v = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(v), Term::Var(v)]),
            Formula::in_re(v, CRegex::repeat(re_char('a'), 3, Some(3))),
            Formula::in_re(w, CRegex::repeat(re_char('a'), 5, Some(5))),
        ]);
        let (outcome, stats) = Solver::default().solve(&f);
        assert_eq!(outcome, Outcome::Unsat);
        assert!(stats.length_prunes >= 1, "pass did not fire: {stats:?}");
        // Disabled, the verdict is the same but found by search.
        let unpruned = Solver::new(SolverConfig {
            length_abstraction: false,
            ..SolverConfig::default()
        });
        let (outcome, stats) = unpruned.solve(&f);
        assert_eq!(outcome, Outcome::Unsat);
        assert_eq!(stats.length_prunes, 0);
    }

    /// The cache's stored form of `re` under `alphabet`, built from
    /// scratch.
    fn fresh_minimal(re: &CRegex, alphabet: &Arc<Alphabet>) -> Dfa {
        let cfg = automata::AutomataConfig::default();
        Dfa::from_cregex_with(re, alphabet, &cfg, &mut automata::BuildMetrics::default())
            .minimized()
    }

    #[test]
    fn lazy_cache_projects_each_regex_from_one_base_build() {
        let cache = DfaCache::new(64);
        let mut stats = SolveStats::default();
        let re = Arc::new(CRegex::concat(vec![
            CRegex::plus(CRegex::set(CharSet::range('a', 'f'))),
            CRegex::not(CRegex::lit("cab")),
        ]));
        let mut sets = Vec::new();
        re.collect_sets(&mut sets);
        let own = cache.alphabet_for(&mut sets.iter().collect());
        let singles: Vec<CharSet> = "bxz\u{1F600}".chars().map(CharSet::single).collect();
        let wider = cache.alphabet_for(&mut sets.iter().chain(&singles).collect());
        for alphabet in [&own, &wider] {
            for complemented in [false, true] {
                let got = cache.get_or_build(&re, alphabet, complemented, &mut stats);
                let fresh = if complemented {
                    fresh_minimal(&CRegex::not((*re).clone()), alphabet)
                } else {
                    fresh_minimal(&re, alphabet)
                };
                assert_eq!(got.canonical_key(), fresh.canonical_key());
                assert!(Arc::ptr_eq(got.alphabet(), alphabet));
            }
        }
        // Four entries, one determinization: the other three are
        // projections and complements, which build no states.
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(stats.dfas_built, 1);
        let mut base = automata::BuildMetrics::default();
        let cfg = automata::AutomataConfig::default();
        Dfa::from_cregex_with(&re, &own, &cfg, &mut base);
        assert_eq!(stats.dfa_states_built, base.states_built);
    }

    #[test]
    fn universal_dfa_is_served_once_per_alphabet() {
        let cache = DfaCache::new(64);
        let mut stats = SolveStats::default();
        let (az, z) = (CharSet::range('a', 'c'), CharSet::single('z'));
        let alphabet = cache.alphabet_for(&mut vec![&az, &z]);
        let first = cache.universal_dfa(&alphabet, &mut stats);
        let second = cache.universal_dfa(&alphabet, &mut stats);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            first.canonical_key(),
            Dfa::universal(&alphabet).canonical_key()
        );
        assert_eq!((stats.dfas_built, stats.dfa_cache_hits), (1, 1));

        // An unconstrained root reaches it through the solver: the
        // second solve over the same tables builds nothing.
        let tables = DfaTables::new(64);
        let mut pool = VarPool::new();
        let (w, x, y) = (pool.fresh_str(), pool.fresh_str(), pool.fresh_str());
        let formula = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(x), Term::Var(y)]),
            Formula::in_re(w, CRegex::lit("ab")),
        ]);
        let solver = Solver::default().with_dfa_tables(&tables);
        let (first, _) = solver.solve(&formula);
        let (second, stats) = solver.solve(&formula);
        assert!(first.is_sat() && second == first);
        assert_eq!(stats.dfas_built, 0);
    }

    #[test]
    fn stats_are_recorded() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let (outcome, stats) =
            Solver::default().solve(&Formula::in_re(v, CRegex::plus(re_char('z'))));
        assert!(outcome.is_sat());
        assert!(stats.nodes >= 1);
        assert!(stats.duration.as_nanos() > 0);
    }

    #[test]
    fn multiply_defined_variable_cycle_terminates() {
        // Regression: x has an acyclic definition (the one the occurs
        // check happens to follow) AND a definition that cycles through
        // y. Equation flattening must not diverge substituting the
        // cyclic pair; the solver has to return within its budgets.
        let mut pool = VarPool::new();
        let x = pool.fresh_str();
        let y = pool.fresh_str();
        let p = pool.fresh_str();
        let w = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(x, vec![Term::Var(p), Term::lit("b")]),
            Formula::eq_concat(p, vec![Term::lit("e")]),
            Formula::eq_concat(x, vec![Term::Var(y), Term::lit("a")]),
            Formula::eq_concat(y, vec![Term::Var(x), Term::lit("c")]),
            Formula::eq_concat(p, vec![Term::Var(x), Term::lit("d")]),
            Formula::eq_concat(w, vec![Term::Var(x), Term::Var(x)]),
        ]);
        // Any verdict is acceptable; the point is termination.
        let (_outcome, stats) = Solver::default().solve(&f);
        assert!(stats.duration.as_secs() < 30);
    }
}
