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
use crate::config::{AutomataConfig, BuildMetrics};
use crate::cregex::CRegex;
use crate::fxhash::FxHashMap;
use crate::nfa::Nfa;

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
        let mut dfa = Dfa {
            transitions,
            accepting,
            start,
            class_count,
            alphabet,
            distances: Vec::new(),
            infinite: std::sync::OnceLock::new(),
            bounds: std::sync::OnceLock::new(),
        };
        dfa.compute_distances();
        dfa
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
        metrics.states_built += self.state_count() as u64;
        let out = if config.should_minimize(self.state_count()) {
            self.minimized()
        } else {
            self
        };
        metrics.states_after_minimize += out.state_count() as u64;
        out
    }

    /// A hashable identity of the automaton's structure under its
    /// alphabet. After [`Dfa::minimized`] (which numbers states
    /// canonically) this is a *language* identity: two DFAs over the
    /// same alphabet have equal keys iff their minimal canonical forms
    /// coincide.
    pub fn canonical_key(&self) -> (u32, Vec<u32>, Vec<bool>) {
        (self.start, self.transitions.clone(), self.accepting.clone())
    }

    /// Subset construction.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        Dfa::from_nfa_bounded(nfa, usize::MAX).expect("unbounded construction cannot overflow")
    }

    /// [`Dfa::from_nfa`] with a cap on the number of subset states:
    /// `None` when the construction would exceed `max_states`.
    ///
    /// Subset construction is exponential in the worst case (an
    /// unanchored `Σ*·body·Σ*` language can visit millions of subset
    /// states before minimizing to a dozen); bounded construction lets
    /// batch consumers — the differential fuzzer foremost — skip
    /// pathological instances instead of stalling on them.
    ///
    /// States are numbered in discovery order: breadth-first from the
    /// start set, classes in id order.
    pub fn from_nfa_bounded(nfa: &Nfa, max_states: usize) -> Option<Dfa> {
        let class_count = nfa.alphabet.class_count();
        let mut closure = Closure::new(nfa);
        let mut next: Vec<u32> = Vec::new();
        closure.of(&[nfa.start], &mut next);

        let mut ids: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        // Subset of each state id, in id order (the BFS queue).
        let mut sets: Vec<Vec<u32>> = Vec::new();
        let mut transitions: Vec<u32> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();

        ids.insert(next.clone(), 0);
        accepting.push(closure.holds(nfa.accept));
        sets.push(std::mem::take(&mut next));

        // Targets of the current subset's edges, bucketed by class in
        // one pass over its edges.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); class_count];
        let mut id = 0;
        while id < sets.len() {
            for bucket in &mut buckets {
                bucket.clear();
            }
            for &s in &sets[id] {
                for &(c, t) in &nfa.states[s as usize].transitions {
                    buckets[c as usize].push(t);
                }
            }
            for bucket in &buckets {
                closure.of(bucket, &mut next);
                let next_id = match ids.get(&next) {
                    Some(&id) => id,
                    None => {
                        if accepting.len() >= max_states {
                            return None;
                        }
                        let new_id = accepting.len() as u32;
                        ids.insert(next.clone(), new_id);
                        accepting.push(closure.holds(nfa.accept));
                        sets.push(next.clone());
                        new_id
                    }
                };
                transitions.push(next_id);
            }
            id += 1;
        }

        Some(Dfa::from_parts(
            transitions,
            accepting,
            0,
            class_count,
            Arc::clone(&nfa.alphabet),
        ))
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
        let capped = |dfa: Dfa| {
            if dfa.state_count() > max_states {
                None
            } else {
                Some(dfa)
            }
        };
        match re {
            CRegex::And(items) => {
                let mut operands: Vec<Dfa> = items
                    .iter()
                    .map(|item| {
                        Dfa::try_from_cregex_with(item, alphabet, config, metrics, max_states)
                    })
                    .collect::<Option<_>>()?;
                // Smallest-first fold: the product worklist only visits
                // reachable pairs, so keeping the accumulator small
                // bounds every intermediate.
                operands.sort_by_key(Dfa::state_count);
                let mut iter = operands.into_iter();
                let mut acc = iter.next().expect("And is non-empty");
                for operand in iter {
                    acc = capped(
                        acc.product(&operand, ProductMode::Intersect)
                            .reduced(config, metrics),
                    )?;
                }
                Some(acc)
            }
            CRegex::Not(inner) => capped(
                Dfa::try_from_cregex_with(inner, alphabet, config, metrics, max_states)?
                    .complement()
                    .reduced(config, metrics),
            ),
            _ => {
                let nfa = Nfa::thompson(re, alphabet);
                Some(Dfa::from_nfa_bounded(&nfa, max_states)?.reduced(config, metrics))
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
        let map = target.refinement_map(&self.alphabet)?;
        let class_count = map.len();
        let mut canon = vec![u32::MAX; self.state_count()];
        let mut order = vec![self.start]; // canonical id → own state
        canon[self.start as usize] = 0;
        let mut transitions = Vec::with_capacity(self.state_count() * class_count);
        let mut next = 0;
        while next < order.len() {
            let state = order[next];
            next += 1;
            for &class in &map {
                let t = self.step(state, class);
                if canon[t as usize] == u32::MAX {
                    canon[t as usize] = order.len() as u32;
                    order.push(t);
                }
                transitions.push(canon[t as usize]);
            }
        }
        // The map is onto (every coarser class holds some interval of
        // `target`), so a state's shortest accepted suffix lifts class
        // by class: distances carry over unchanged.
        Some(Dfa {
            transitions,
            accepting: order.iter().map(|&s| self.is_accepting(s)).collect(),
            start: 0,
            class_count,
            alphabet: Arc::clone(target),
            distances: order.iter().map(|&s| self.distances[s as usize]).collect(),
            infinite: std::sync::OnceLock::new(),
            bounds: std::sync::OnceLock::new(),
        })
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
        let class_count = self.class_count;
        let dead_pair = |a: u32, b: u32| -> bool {
            let a_dead = self.distance_to_accept(a).is_none();
            let b_dead = other.distance_to_accept(b).is_none();
            match mode {
                ProductMode::Intersect => a_dead || b_dead,
                ProductMode::Union => a_dead && b_dead,
            }
        };
        let accept = |a: u32, b: u32| -> bool {
            match mode {
                ProductMode::Intersect => self.is_accepting(a) && other.is_accepting(b),
                ProductMode::Union => self.is_accepting(a) || other.is_accepting(b),
            }
        };
        let mut ids: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        let mut transitions: Vec<u32> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut worklist = VecDeque::new();
        let mut sink: Option<u32> = None;

        let start_pair = (self.start, other.start);
        ids.insert(start_pair, 0);
        transitions.resize(class_count, u32::MAX);
        accepting.push(accept(self.start, other.start));
        worklist.push_back(start_pair);

        while let Some((a, b)) = worklist.pop_front() {
            let id = ids[&(a, b)];
            for class in 0..class_count {
                let next = (
                    self.step(a, class as ClassId),
                    other.step(b, class as ClassId),
                );
                let next_id = if dead_pair(next.0, next.1) {
                    *sink.get_or_insert_with(|| {
                        let sink_id = accepting.len() as u32;
                        // Self-looping rejecting sink.
                        transitions.extend(std::iter::repeat_n(sink_id, class_count));
                        accepting.push(false);
                        sink_id
                    })
                } else {
                    match ids.get(&next) {
                        Some(&id) => id,
                        None => {
                            let new_id = accepting.len() as u32;
                            ids.insert(next, new_id);
                            transitions.extend(std::iter::repeat_n(u32::MAX, class_count));
                            accepting.push(accept(next.0, next.1));
                            worklist.push_back(next);
                            new_id
                        }
                    }
                };
                transitions[id as usize * class_count + class] = next_id;
            }
        }

        Dfa::from_parts(
            transitions,
            accepting,
            0,
            class_count,
            Arc::clone(&self.alphabet),
        )
    }

    fn compute_distances(&mut self) {
        let n = self.state_count();
        let mut distances: Vec<Option<u32>> = vec![None; n];
        // Reverse BFS from accepting states, over the reverse edges in
        // one flat CSR array: the predecessors of `t` are
        // `preds[offsets[t]..offsets[t + 1]]`.
        let mut offsets: Vec<u32> = vec![0; n + 1];
        for &t in &self.transitions {
            offsets[t as usize + 1] += 1;
        }
        for t in 0..n {
            offsets[t + 1] += offsets[t];
        }
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        let mut preds: Vec<u32> = vec![0; self.transitions.len()];
        for (state, row) in self.transitions.chunks_exact(self.class_count).enumerate() {
            for &t in row {
                preds[fill[t as usize] as usize] = state as u32;
                fill[t as usize] += 1;
            }
        }
        let mut queue = VecDeque::new();
        for (state, &acc) in self.accepting.iter().enumerate() {
            if acc {
                distances[state] = Some(0);
                queue.push_back(state as u32);
            }
        }
        while let Some(state) = queue.pop_front() {
            let d = distances[state as usize].expect("queued states have distance");
            let (lo, hi) = (offsets[state as usize], offsets[state as usize + 1]);
            for &prev in &preds[lo as usize..hi as usize] {
                if distances[prev as usize].is_none() {
                    distances[prev as usize] = Some(d + 1);
                    queue.push_back(prev);
                }
            }
        }
        self.distances = distances;
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

/// ε-closures over one NFA, deduplicated with a generation-stamped
/// mark array instead of linear `contains` scans.
struct Closure<'a> {
    nfa: &'a Nfa,
    /// `mark[s] == stamp` iff `s` is in the latest closure.
    mark: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
}

impl<'a> Closure<'a> {
    fn new(nfa: &'a Nfa) -> Closure<'a> {
        Closure {
            nfa,
            mark: vec![0; nfa.len()],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// Writes the sorted ε-closure of `seeds` into `out`.
    fn of(&mut self, seeds: &[u32], out: &mut Vec<u32>) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        out.clear();
        for &s in seeds {
            self.visit(s, out);
        }
        let nfa = self.nfa;
        while let Some(s) = self.stack.pop() {
            for &t in &nfa.states[s as usize].epsilon {
                self.visit(t, out);
            }
        }
        out.sort_unstable();
    }

    fn visit(&mut self, s: u32, out: &mut Vec<u32>) {
        if self.mark[s as usize] != self.stamp {
            self.mark[s as usize] = self.stamp;
            out.push(s);
            self.stack.push(s);
        }
    }

    /// True when `state` is in the latest closure.
    fn holds(&self, state: u32) -> bool {
        self.mark[state as usize] == self.stamp
    }
}

/// How a [`Dfa::product`] combines its operands' acceptance, which also
/// determines when a pair is provably dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProductMode {
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

    /// The subset construction as first written — per-class edge
    /// scans, `Vec::contains` dedup, SipHash id map — kept as the
    /// oracle the bucketed construction must match state for state.
    fn subset_reference(nfa: &Nfa) -> Dfa {
        let class_count = nfa.alphabet.class_count();
        let mut start_set = vec![nfa.start];
        nfa.epsilon_closure(&mut start_set);
        let mut ids: std::collections::HashMap<Vec<u32>, u32> = std::collections::HashMap::new();
        let mut transitions: Vec<u32> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut worklist: VecDeque<Vec<u32>> = VecDeque::new();
        ids.insert(start_set.clone(), 0);
        transitions.resize(class_count, u32::MAX);
        accepting.push(start_set.contains(&nfa.accept));
        worklist.push_back(start_set);
        while let Some(set) = worklist.pop_front() {
            let id = ids[&set];
            for class in 0..class_count {
                let mut next: Vec<u32> = Vec::new();
                for &s in &set {
                    for &(c, t) in &nfa.states[s as usize].transitions {
                        if c as usize == class && !next.contains(&t) {
                            next.push(t);
                        }
                    }
                }
                nfa.epsilon_closure(&mut next);
                let next_id = match ids.get(&next) {
                    Some(&id) => id,
                    None => {
                        let new_id = accepting.len() as u32;
                        ids.insert(next.clone(), new_id);
                        transitions.extend(std::iter::repeat_n(u32::MAX, class_count));
                        accepting.push(next.contains(&nfa.accept));
                        worklist.push_back(next);
                        new_id
                    }
                };
                transitions[id as usize * class_count + class] = next_id;
            }
        }
        Dfa::from_parts(
            transitions,
            accepting,
            0,
            class_count,
            Arc::clone(&nfa.alphabet),
        )
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
    fn bucketed_subset_construction_matches_the_reference() {
        use rand::SeedableRng;
        for seed in 0..300u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let re = random_regex(&mut rng, 3);
            let mut sets = vec![CharSet::range('b', 'e')];
            re.collect_sets(&mut sets);
            let alphabet = Arc::new(Alphabet::from_sets(&sets));
            let nfa = Nfa::thompson(&re, &alphabet);
            let fast = Dfa::from_nfa(&nfa);
            let reference = subset_reference(&nfa);
            assert_eq!(
                fast.canonical_key(),
                reference.canonical_key(),
                "seed {seed}: {re}"
            );
            assert_eq!(distances(&fast), distances(&reference), "seed {seed}");
            // The cap trips exactly where the reference outgrows it.
            assert!(Dfa::from_nfa_bounded(&nfa, reference.state_count()).is_some());
            assert!(Dfa::from_nfa_bounded(&nfa, reference.state_count() - 1).is_none());
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
            Arc::new(Alphabet::from_sets(&[])),
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
