//! Deterministic finite automata over minterm alphabets.
//!
//! DFAs here are always *complete* (every state has a transition for
//! every class), which makes complementation a matter of flipping
//! accepting states and makes products total. The solver relies on:
//!
//! * [`Dfa::intersect`]/[`Dfa::union`] — products over a shared alphabet;
//! * [`Dfa::complement`] — for non-membership constraints;
//! * [`Dfa::project`] — one regex's minimal DFA re-expressed over each
//!   problem alphabet that refines its own, instead of a rebuild;
//! * [`Dfa::is_empty`]/[`Dfa::shortest_word`] — UNSAT detection and
//!   witness generation;
//! * [`Dfa::words`]/[`WordIter`] — bounded enumeration in length order;
//! * [`Dfa::step`]/[`Dfa::distance_to_accept`] — incremental runs with
//!   dead-state pruning during word-equation search.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::alphabet::{Alphabet, ClassId};
use crate::build::with_scratch;
use crate::config::{AutomataConfig, BuildMetrics};
use crate::cregex::CRegex;

/// A complete deterministic finite automaton.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Flattened transition table: `state * class_count + class`.
    pub(crate) transitions: Vec<u32>,
    pub(crate) accepting: Vec<bool>,
    pub(crate) start: u32,
    pub(crate) class_count: usize,
    pub(crate) alphabet: Arc<Alphabet>,
    /// BFS distance from each state to the nearest accepting state
    /// (`None` = dead).
    pub(crate) distances: Vec<Option<u32>>,
    /// Memoized [`Dfa::is_infinite`] — queried at every search node of
    /// the solver's variable-selection heuristic, and a DFS per call
    /// would dominate it.
    pub(crate) infinite: std::sync::OnceLock<bool>,
    /// Memoized [`Dfa::length_bounds`] result.
    pub(crate) bounds: std::sync::OnceLock<Option<crate::minimize::LengthBounds>>,
}

impl Dfa {
    /// Assembles a DFA from raw parts and computes its distance
    /// metadata (crate-internal: used by the minimizer's rebuild).
    pub(crate) fn from_parts(
        transitions: Vec<u32>,
        accepting: Vec<bool>,
        start: u32,
        class_count: usize,
        alphabet: Arc<Alphabet>,
    ) -> Dfa {
        let distances = with_scratch(|s| s.distances(&transitions, &accepting, class_count));
        Dfa::with_distances(
            transitions,
            accepting,
            start,
            class_count,
            alphabet,
            distances,
        )
    }

    /// Assembles a DFA whose distance metadata is already known.
    pub(crate) fn with_distances(
        transitions: Vec<u32>,
        accepting: Vec<bool>,
        start: u32,
        class_count: usize,
        alphabet: Arc<Alphabet>,
        distances: Vec<Option<u32>>,
    ) -> Dfa {
        Dfa {
            transitions,
            accepting,
            start,
            class_count,
            alphabet,
            distances,
            infinite: std::sync::OnceLock::new(),
            bounds: std::sync::OnceLock::new(),
        }
    }

    /// Compiles a classical regex to a DFA over `alphabet`, eagerly and
    /// without minimization — the seed reproduction's pipeline, kept as
    /// the differential oracle. The lazy, minimizing pipeline the
    /// solver uses is [`Dfa::from_cregex_with`].
    ///
    /// The alphabet must contain every `CharSet` of the regex (build it
    /// with [`Alphabet::from_sets`] over the whole problem).
    pub fn from_cregex(re: &CRegex, alphabet: &Arc<Alphabet>) -> Dfa {
        Dfa::from_cregex_with(
            re,
            alphabet,
            &AutomataConfig::disabled(),
            &mut BuildMetrics::default(),
        )
    }

    /// Compiles a classical regex through the reachable-only pipeline:
    /// every subset construction and boolean operation is followed by a
    /// (thresholded) minimization pass, and intersections fold
    /// smallest-operand-first so intermediate products stay small.
    ///
    /// `metrics` accumulates before/after state counts; the accepted
    /// language is identical to [`Dfa::from_cregex`]'s for any
    /// configuration.
    pub fn from_cregex_with(
        re: &CRegex,
        alphabet: &Arc<Alphabet>,
        config: &AutomataConfig,
        metrics: &mut BuildMetrics,
    ) -> Dfa {
        Dfa::try_from_cregex_with(re, alphabet, config, metrics, usize::MAX)
            .expect("unbounded construction cannot overflow")
    }

    /// Applies the thresholded minimization pass, recording before and
    /// after state counts in `metrics`. The language is unchanged.
    pub fn reduced(self, config: &AutomataConfig, metrics: &mut BuildMetrics) -> Dfa {
        self.reduce(config, metrics).0
    }

    /// [`Dfa::reduced`], also saying whether the pass minimized.
    fn reduce(self, config: &AutomataConfig, metrics: &mut BuildMetrics) -> (Dfa, bool) {
        metrics.states_built += self.state_count() as u64;
        let minimize = config.should_minimize(self.state_count());
        let out = if minimize { self.minimized() } else { self };
        metrics.states_after_minimize += out.state_count() as u64;
        (out, minimize)
    }

    /// A hashable identity of the automaton's structure under its
    /// alphabet. After [`Dfa::minimized`] (which numbers states
    /// canonically) this is a *language* identity: two DFAs over the
    /// same alphabet have equal keys iff their minimal canonical forms
    /// coincide.
    pub fn canonical_key(&self) -> (u32, Vec<u32>, Vec<bool>) {
        (self.start, self.transitions.clone(), self.accepting.clone())
    }

    /// [`Dfa::from_cregex_with`] under a state budget: every subset
    /// construction and boolean-operation result is capped at
    /// `max_states`; `None` means the instance was abandoned (never a
    /// wrong answer). The successful result is identical to the
    /// unbounded pipeline's.
    pub fn try_from_cregex_with(
        re: &CRegex,
        alphabet: &Arc<Alphabet>,
        config: &AutomataConfig,
        metrics: &mut BuildMetrics,
        max_states: usize,
    ) -> Option<Dfa> {
        Some(Dfa::construct(re, alphabet, config, metrics, max_states)?.0)
    }

    /// The minimal, canonically numbered DFA of `re` over `alphabet`:
    /// [`Dfa::from_cregex_with`] under the default configuration, then
    /// a final minimization unless the last pass already minimized.
    /// `metrics` reports *retained* states, so a re-minimized result
    /// replaces its thresholded count.
    ///
    /// ```
    /// use automata::{Alphabet, BuildMetrics, CRegex, CharSet, Dfa};
    /// use std::sync::Arc;
    ///
    /// let re = CRegex::plus(CRegex::lit("ab"));
    /// let alphabet = Arc::new(Alphabet::from_sets(&[CharSet::single('a'), CharSet::single('b')]));
    /// let dfa = Dfa::minimal_from_cregex(&re, &alphabet, &mut BuildMetrics::default());
    /// assert_eq!(dfa.canonical_key(), Dfa::from_cregex(&re, &alphabet).minimized().canonical_key());
    /// ```
    pub fn minimal_from_cregex(
        re: &CRegex,
        alphabet: &Arc<Alphabet>,
        metrics: &mut BuildMetrics,
    ) -> Dfa {
        let (dfa, minimal) = Dfa::construct(
            re,
            alphabet,
            &AutomataConfig::default(),
            metrics,
            usize::MAX,
        )
        .expect("unbounded construction cannot overflow");
        if minimal {
            return dfa;
        }
        let minimal = dfa.minimized();
        metrics.states_after_minimize =
            metrics.states_after_minimize - dfa.state_count() as u64 + minimal.state_count() as u64;
        minimal
    }

    /// [`Dfa::try_from_cregex_with`], also saying whether the last
    /// pass minimized the result.
    fn construct(
        re: &CRegex,
        alphabet: &Arc<Alphabet>,
        config: &AutomataConfig,
        metrics: &mut BuildMetrics,
        max_states: usize,
    ) -> Option<(Dfa, bool)> {
        let capped = |(dfa, minimal): (Dfa, bool)| {
            (dfa.state_count() <= max_states).then_some((dfa, minimal))
        };
        match re {
            CRegex::And(items) => {
                let mut operands: Vec<(Dfa, bool)> = items
                    .iter()
                    .map(|item| Dfa::construct(item, alphabet, config, metrics, max_states))
                    .collect::<Option<_>>()?;
                // Smallest-first fold: the product worklist only visits
                // reachable pairs, so keeping the accumulator small
                // bounds every intermediate.
                operands.sort_by_key(|(dfa, _)| dfa.state_count());
                let mut iter = operands.into_iter();
                let mut acc = iter.next().expect("And is non-empty");
                for (operand, _) in iter {
                    acc = capped(
                        acc.0
                            .product(&operand, ProductMode::Intersect)
                            .reduce(config, metrics),
                    )?;
                }
                Some(acc)
            }
            CRegex::Not(inner) => capped(
                Dfa::construct(inner, alphabet, config, metrics, max_states)?
                    .0
                    .complement()
                    .reduce(config, metrics),
            ),
            _ => {
                let (transitions, accepting) =
                    with_scratch(|s| s.subset(re, alphabet, max_states))?;
                let dfa = Dfa::from_parts(
                    transitions,
                    accepting,
                    0,
                    alphabet.class_count(),
                    Arc::clone(alphabet),
                );
                Some(dfa.reduce(config, metrics))
            }
        }
    }

    /// A DFA accepting exactly the words whose *class sequence* equals
    /// that of `word`: exactly `{word}` when its characters are
    /// singleton classes of `alphabet` (they are when the word
    /// contributed to it, as with [`Alphabet::for_problem`]), and a
    /// safe minterm-granularity overapproximation of it otherwise — the
    /// solver's residual guides rely on the latter.
    ///
    /// Built directly as the `n + 2`-state chain (positions `0..=n`
    /// plus a dead state), numbered exactly as the subset construction
    /// numbers the automaton of [`CRegex::lit`]: breadth-first from
    /// the start, classes in id order.
    pub fn from_word(word: &str, alphabet: &Arc<Alphabet>) -> Dfa {
        let classes = alphabet.abstract_word(word);
        let class_count = alphabet.class_count();
        let n = classes.len();
        // Discovery order: processing the start state meets the dead
        // state at the first class other than the word's first class
        // (class 0, or class 1 when the word starts with class 0);
        // with a single class it is met only after the last position.
        let dead = if class_count == 1 {
            n + 1
        } else if n > 0 && classes[0] == 0 {
            2
        } else {
            1
        };
        let id = |position: usize| (position + usize::from(position >= dead)) as u32;
        let mut transitions = vec![dead as u32; (n + 2) * class_count];
        for (position, &class) in classes.iter().enumerate() {
            transitions[id(position) as usize * class_count + class as usize] = id(position + 1);
        }
        let mut accepting = vec![false; n + 2];
        accepting[id(n) as usize] = true;
        Dfa::from_parts(transitions, accepting, 0, class_count, Arc::clone(alphabet))
    }

    /// A DFA accepting every word.
    pub fn universal(alphabet: &Arc<Alphabet>) -> Dfa {
        Dfa::from_cregex(&CRegex::anything(), alphabet)
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// The shared alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// The start state.
    pub fn start_state(&self) -> u32 {
        self.start
    }

    /// Transition function.
    pub fn step(&self, state: u32, class: ClassId) -> u32 {
        self.transitions[state as usize * self.class_count + class as usize]
    }

    /// Runs the DFA over a string from `state`.
    pub fn run(&self, state: u32, word: &str) -> u32 {
        word.chars()
            .fold(state, |s, c| self.step(s, self.alphabet.classify(c)))
    }

    /// Acceptance predicate.
    pub fn is_accepting(&self, state: u32) -> bool {
        self.accepting[state as usize]
    }

    /// Language membership.
    pub fn contains(&self, word: &str) -> bool {
        self.is_accepting(self.run(self.start, word))
    }

    /// BFS distance from `state` to the nearest accepting state, or
    /// `None` when no accepting state is reachable (dead state).
    pub fn distance_to_accept(&self, state: u32) -> Option<u32> {
        self.distances[state as usize]
    }

    /// True when the language is empty.
    pub fn is_empty(&self) -> bool {
        self.distances[self.start as usize].is_none()
    }

    /// True when `ε` is accepted.
    pub fn accepts_empty(&self) -> bool {
        self.is_accepting(self.start)
    }

    /// Complement (flips acceptance; completeness makes this exact).
    pub fn complement(&self) -> Dfa {
        Dfa::from_parts(
            self.transitions.clone(),
            self.accepting.iter().map(|&a| !a).collect(),
            self.start,
            self.class_count,
            Arc::clone(&self.alphabet),
        )
    }

    /// The same language over `target`, an alphabet that refines this
    /// DFA's own ([`Alphabet::refinement_map`]); `None` when it does
    /// not. Each class of `target` takes the transitions of the class
    /// it refines, and the reachable states are renumbered
    /// breadth-first in class order.
    ///
    /// Projecting a [minimized](Dfa::minimized) DFA yields exactly the
    /// minimized DFA a fresh build over `target` would: the refinement
    /// hits every class of the coarser alphabet, so every state stays
    /// reachable and distinguishable, and the minimal complete DFA of a
    /// language is unique up to numbering — which the breadth-first
    /// renumbering makes canonical. A regex is thus determinized once
    /// over its own minterms and projected onto each problem alphabet.
    ///
    /// ```
    /// use automata::{Alphabet, AutomataConfig, BuildMetrics, CRegex, CharSet, Dfa};
    /// use std::sync::Arc;
    ///
    /// let re = CRegex::plus(CRegex::set(CharSet::range('a', 'c')));
    /// let own = Arc::new(Alphabet::from_sets(&[CharSet::range('a', 'c')]));
    /// let problem = Arc::new(Alphabet::from_sets(&[
    ///     CharSet::range('a', 'c'),
    ///     CharSet::single('b'),
    /// ]));
    /// let fresh = |alphabet: &Arc<Alphabet>| {
    ///     let cfg = AutomataConfig::default();
    ///     Dfa::from_cregex_with(&re, alphabet, &cfg, &mut BuildMetrics::default()).minimized()
    /// };
    /// let projected = fresh(&own).project(&problem).expect("problem refines own");
    /// assert_eq!(projected.canonical_key(), fresh(&problem).canonical_key());
    /// ```
    pub fn project(&self, target: &Arc<Alphabet>) -> Option<Dfa> {
        let (transitions, accepting, distances) = with_scratch(|s| s.project(self, target))?;
        Some(Dfa::with_distances(
            transitions,
            accepting,
            0,
            target.class_count(),
            Arc::clone(target),
            distances,
        ))
    }

    /// Intersection product.
    ///
    /// # Panics
    ///
    /// Panics if the two DFAs use different alphabets.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, ProductMode::Intersect)
    }

    /// Union product.
    ///
    /// # Panics
    ///
    /// Panics if the two DFAs use different alphabets.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, ProductMode::Union)
    }

    /// Worklist product construction: only pairs reachable from the
    /// start pair are materialized, and pairs that are provably dead
    /// from the operands' distance metadata (either side dead for an
    /// intersection, both sides for a union) collapse into one shared
    /// rejecting sink instead of being expanded.
    fn product(&self, other: &Dfa, mode: ProductMode) -> Dfa {
        assert_eq!(
            self.class_count, other.class_count,
            "product requires a shared alphabet"
        );
        let (transitions, accepting) = with_scratch(|s| s.product(self, other, mode));
        Dfa::from_parts(
            transitions,
            accepting,
            0,
            self.class_count,
            Arc::clone(&self.alphabet),
        )
    }

    /// The shortest accepted word (readable representatives), if any.
    pub fn shortest_word(&self) -> Option<String> {
        let mut state = self.start;
        let mut remaining = self.distances[state as usize]?;
        let mut word = String::new();
        while remaining > 0 {
            // Greedily pick a class that decreases the distance.
            let mut advanced = false;
            for class in 0..self.class_count {
                let next = self.step(state, class as ClassId);
                if self.distances[next as usize] == Some(remaining - 1) {
                    word.push(self.alphabet.representative(class as ClassId));
                    state = next;
                    remaining -= 1;
                    advanced = true;
                    break;
                }
            }
            debug_assert!(advanced, "distance function must decrease");
            if !advanced {
                return None;
            }
        }
        Some(word)
    }

    /// Enumerates accepted words in length order (then class-id order),
    /// up to `max_len` characters, yielding at most `limit` words.
    pub fn words(&self, max_len: usize, limit: usize) -> Vec<String> {
        self.iter_words(max_len).take(limit).collect()
    }

    /// An iterator over accepted words in length order.
    pub fn iter_words(&self, max_len: usize) -> WordIter<'_> {
        let mut queue = VecDeque::new();
        queue.push_back((self.start, Vec::new()));
        WordIter {
            dfa: self,
            queue,
            max_len,
        }
    }

    /// True when the accepted language is infinite. Memoized: the
    /// first call runs the cycle detection, later calls are a load.
    pub fn is_infinite(&self) -> bool {
        *self.infinite.get_or_init(|| self.compute_is_infinite())
    }

    fn compute_is_infinite(&self) -> bool {
        // A live cycle reachable from start that can reach acceptance.
        // DFS detecting a cycle among live states.
        let n = self.state_count();
        let live = |s: u32| self.distances[s as usize].is_some();
        if !live(self.start) {
            return false;
        }
        let mut color = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut stack: Vec<(u32, usize)> = vec![(self.start, 0)];
        color[self.start as usize] = 1;
        while let Some(&mut (state, ref mut class)) = stack.last_mut() {
            if *class >= self.class_count {
                color[state as usize] = 2;
                stack.pop();
                continue;
            }
            let c = *class;
            *class += 1;
            let next = self.step(state, c as ClassId);
            if !live(next) {
                continue;
            }
            match color[next as usize] {
                0 => {
                    color[next as usize] = 1;
                    stack.push((next, 0));
                }
                1 => return true,
                _ => {}
            }
        }
        false
    }
}

/// How a [`Dfa::product`] combines its operands' acceptance, which also
/// determines when a pair is provably dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProductMode {
    Intersect,
    Union,
}

/// Iterator over accepted words in length order; see
/// [`Dfa::iter_words`].
#[derive(Debug)]
pub struct WordIter<'a> {
    dfa: &'a Dfa,
    queue: VecDeque<(u32, Vec<ClassId>)>,
    max_len: usize,
}

impl Iterator for WordIter<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        while let Some((state, word)) = self.queue.pop_front() {
            if word.len() < self.max_len {
                for class in 0..self.dfa.class_count {
                    let next = self.dfa.step(state, class as ClassId);
                    if self.dfa.distances[next as usize].is_some() {
                        let mut w = word.clone();
                        w.push(class as ClassId);
                        self.queue.push_back((next, w));
                    }
                }
            }
            if self.dfa.is_accepting(state) {
                return Some(self.dfa.alphabet.realize(&word));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charset::CharSet;
    use regex_syntax_es6::parse;

    fn dfa(pattern: &str) -> Dfa {
        let ast = parse(pattern).expect("parse");
        let re = crate::cregex::compile_classical(&ast, &crate::cregex::CompileOptions::default())
            .expect("classical");
        let mut sets = Vec::new();
        re.collect_sets(&mut sets);
        let alphabet = Arc::new(Alphabet::from_sets(&sets));
        Dfa::from_cregex(&re, &alphabet)
    }

    #[test]
    fn membership() {
        let d = dfa("goo+d");
        assert!(d.contains("good"));
        assert!(d.contains("goood"));
        assert!(!d.contains("god"));
        assert!(!d.contains("goodx"));
    }

    #[test]
    fn complement_flips() {
        let d = dfa("a+");
        let c = d.complement();
        assert!(!c.contains("aa"));
        assert!(c.contains("b"));
        assert!(c.contains(""));
    }

    #[test]
    fn intersection() {
        let re_a = parse("[ab]*").expect("parse");
        let re_b = parse("[bc]*").expect("parse");
        let opts = crate::cregex::CompileOptions::default();
        let ca = crate::cregex::compile_classical(&re_a, &opts).expect("classical");
        let cb = crate::cregex::compile_classical(&re_b, &opts).expect("classical");
        let mut sets = Vec::new();
        ca.collect_sets(&mut sets);
        cb.collect_sets(&mut sets);
        let alphabet = Arc::new(Alphabet::from_sets(&sets));
        let da = Dfa::from_cregex(&ca, &alphabet);
        let db = Dfa::from_cregex(&cb, &alphabet);
        let inter = da.intersect(&db);
        assert!(inter.contains("bbb"));
        assert!(!inter.contains("ab"));
        assert!(inter.contains(""));
    }

    #[test]
    fn emptiness() {
        let d = dfa("a");
        assert!(!d.is_empty());
        let never = d.intersect(&d.complement());
        assert!(never.is_empty());
        assert_eq!(never.shortest_word(), None);
    }

    #[test]
    fn shortest_word() {
        let d = dfa("goo+d");
        assert_eq!(d.shortest_word(), Some("good".to_string()));
    }

    #[test]
    fn shortest_word_empty_language_is_none() {
        let d = dfa("a").intersect(&dfa("a").complement());
        assert_eq!(d.shortest_word(), None);
    }

    #[test]
    fn word_enumeration_in_length_order() {
        let d = dfa("a|bb|ccc");
        let words = d.words(5, 10);
        assert_eq!(words, vec!["a", "bb", "ccc"]);
    }

    #[test]
    fn word_enumeration_respects_max_len() {
        let d = dfa("a*");
        let words = d.words(2, 100);
        assert_eq!(words, vec!["", "a", "aa"]);
    }

    #[test]
    fn infinite_detection() {
        assert!(dfa("a*").is_infinite());
        assert!(!dfa("a{1,3}").is_infinite());
        assert!(!dfa("abc").is_infinite());
    }

    #[test]
    fn lookahead_intersection_via_dfa() {
        // (?=a[ab]*)aab… intersection behaviour end-to-end.
        let d = dfa("(?=ab)a[bc]");
        assert!(d.contains("ab"));
        assert!(!d.contains("ac"));
    }

    #[test]
    fn negative_lookahead_via_complement() {
        let d = dfa("(?!ab)a[bc]");
        assert!(!d.contains("ab"));
        assert!(d.contains("ac"));
    }

    #[test]
    fn from_word_exact() {
        let alphabet = Alphabet::for_problem(&[CharSet::range('a', 'z')], &["hey"]);
        let d = Dfa::from_word("hey", &alphabet);
        assert!(d.contains("hey"));
        assert!(!d.contains("he"));
        assert!(!d.contains("heyy"));
    }

    #[test]
    fn universal_accepts_everything() {
        let alphabet = Alphabet::for_problem(&[], &["x"]);
        let d = Dfa::universal(&alphabet);
        assert!(d.contains(""));
        assert!(d.contains("anything at all"));
    }

    /// A small random classical regex over `a`–`d` and a non-BMP
    /// character, with intersections and complements.
    fn random_regex(rng: &mut rand::rngs::StdRng, depth: usize) -> CRegex {
        use rand::RngExt;
        let leaf = |rng: &mut rand::rngs::StdRng| match rng.random_range(0usize..6) {
            0 => CRegex::set(CharSet::single('a')),
            1 => CRegex::set(CharSet::range('a', 'c')),
            2 => CRegex::lit("bd"),
            3 => CRegex::set(CharSet::single('\u{1F600}')),
            4 => CRegex::any_char(),
            _ => CRegex::Epsilon,
        };
        if depth == 0 {
            return leaf(rng);
        }
        let pick = rng.random_range(0usize..8);
        let mut sub = || random_regex(rng, depth - 1);
        match pick {
            0 => CRegex::star(sub()),
            1 => CRegex::opt(sub()),
            2 => CRegex::concat(vec![sub(), sub()]),
            3 => CRegex::alt(vec![sub(), sub()]),
            4 => CRegex::and(vec![sub(), sub()]),
            5 => CRegex::not(sub()),
            _ => CRegex::lit("c"),
        }
    }

    fn distances(d: &Dfa) -> Vec<Option<u32>> {
        (0..d.state_count() as u32)
            .map(|s| d.distance_to_accept(s))
            .collect()
    }

    #[test]
    fn flat_construction_matches_the_reference_builders() {
        use crate::oracle;
        use rand::SeedableRng;
        for seed in 0..300u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let re = random_regex(&mut rng, 3);
            let mut sets = vec![CharSet::range('b', 'e')];
            re.collect_sets(&mut sets);
            let alphabet = Arc::new(Alphabet::from_sets(&sets));
            for config in [AutomataConfig::disabled(), AutomataConfig::default()] {
                let (mut flat_metrics, mut oracle_metrics) =
                    (BuildMetrics::default(), BuildMetrics::default());
                let flat = Dfa::from_cregex_with(&re, &alphabet, &config, &mut flat_metrics);
                let reference = oracle::try_from_cregex_with(
                    &re,
                    &alphabet,
                    &config,
                    &mut oracle_metrics,
                    usize::MAX,
                )
                .expect("unbounded");
                assert_eq!(
                    flat.canonical_key(),
                    reference.canonical_key(),
                    "seed {seed}: {re}"
                );
                assert_eq!(distances(&flat), distances(&reference), "seed {seed}");
                assert_eq!(flat_metrics, oracle_metrics, "seed {seed}");
                let (minimal, reference) = (flat.minimized(), oracle::minimized(&reference));
                assert_eq!(
                    minimal.canonical_key(),
                    reference.canonical_key(),
                    "seed {seed}"
                );
                assert_eq!(distances(&minimal), distances(&reference), "seed {seed}");
            }
            // The cap trips exactly where the reference outgrows it.
            let nfa = oracle::Nfa::thompson(&re, &alphabet);
            let states = oracle::subset(&nfa, usize::MAX)
                .expect("unbounded")
                .state_count();
            let capped = |max| {
                let cfg = AutomataConfig::disabled();
                Dfa::try_from_cregex_with(&re, &alphabet, &cfg, &mut BuildMetrics::default(), max)
            };
            if !matches!(re, CRegex::And(_) | CRegex::Not(_)) {
                assert!(capped(states).is_some(), "seed {seed}");
                assert!(capped(states - 1).is_none(), "seed {seed}");
            }
        }
    }

    #[test]
    fn from_word_matches_the_literal_subset_construction() {
        // Alphabets where the words' first class is 0, is not 0, and
        // where there is a single class; words empty and non-empty.
        let alphabets = [
            Alphabet::for_problem(&[CharSet::range('a', 'z')], &["hey", "a", "zz"]),
            Alphabet::for_problem(&[], &["ab"]),
            Alphabet::for_problem(&[CharSet::single('\0')], &["\0\0b"]),
            Arc::new(Alphabet::from_sets::<CharSet>(&[])),
        ];
        let words = ["", "hey", "a", "zz", "ab", "ba", "\0\0b", "\0"];
        for alphabet in &alphabets {
            for word in words {
                let singleton = word
                    .chars()
                    .all(|c| alphabet.class_set(alphabet.classify(c)).len() == 1);
                // A character in a wider class stands for its class:
                // spell the literal as its class sets, which is the
                // language `CRegex::lit` compiles to there.
                let literal = if singleton {
                    CRegex::lit(word)
                } else {
                    CRegex::concat(
                        word.chars()
                            .map(|c| CRegex::set(alphabet.class_set(alphabet.classify(c)).clone()))
                            .collect(),
                    )
                };
                let direct = Dfa::from_word(word, alphabet);
                let built = Dfa::from_cregex(&literal, alphabet);
                assert_eq!(direct.canonical_key(), built.canonical_key(), "{word:?}");
                assert_eq!(distances(&direct), distances(&built), "{word:?}");
                assert!(direct.contains(word), "{word:?}");
            }
        }
    }

    #[test]
    fn distances_decrease_along_accepting_path() {
        let d = dfa("abc");
        let s0 = d.start_state();
        assert_eq!(d.distance_to_accept(s0), Some(3));
        let s1 = d.step(s0, d.alphabet().classify('a'));
        assert_eq!(d.distance_to_accept(s1), Some(2));
    }
}
