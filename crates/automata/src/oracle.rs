//! Reference builders, kept as test oracles.
//!
//! These are the construction algorithms as first written: the
//! minterm builder that probes every set per interval and grows classes
//! by `union`, the `intersect`-based class decomposition, the Thompson
//! NFA with a `Vec` per state, the bucketed subset construction over
//! hashed state sets, the worklist product, Hopcroft refinement over
//! per-state predecessor lists, and the reverse-BFS distance labelling.
//! The flat kernels the crate builds with must reproduce their output
//! byte for byte: the same alphabets, the same state numbering, the
//! same distances and the same build counts. Tests and the
//! differential fuzzer compare the two; nothing else calls these.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::alphabet::{Alphabet, ClassId};
use crate::charset::CharSet;
use crate::config::{AutomataConfig, BuildMetrics};
use crate::cregex::CRegex;
use crate::dfa::Dfa;
use crate::fxhash::FxHashMap;
pub use crate::nfa::{Nfa, NfaState, StateId};

/// The minterm partition of `sets`, built interval by interval: each
/// interval's signature is a probe of every set, and each class grows
/// by [`CharSet::union`].
pub fn alphabet_from_sets(sets: &[CharSet]) -> Alphabet {
    // Collect boundaries: starts and one-past-ends of every range.
    // The surrogate block D800–DFFF is carved out: `char` cannot
    // represent it, and complements exclude it, so no class may
    // contain it.
    let mut bounds: Vec<u32> = vec![0, 0xD800, 0xE000, 0x110000];
    for set in sets {
        for &(lo, hi) in set.ranges() {
            bounds.push(lo);
            bounds.push(hi + 1);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();

    // Signature per interval: which sets contain it.
    let mut interval_class = Vec::with_capacity(bounds.len() - 1);
    let mut classes: Vec<CharSet> = Vec::new();
    let mut signature_to_class: HashMap<Vec<bool>, ClassId> = HashMap::new();
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1] - 1);
        let surrogate_gap = lo >= 0xD800 && hi <= 0xDFFF;
        let probe = char::from_u32(lo)
            .or_else(|| char::from_u32(hi))
            .unwrap_or('\u{FFFD}');
        let signature: Vec<bool> = if surrogate_gap {
            vec![false; sets.len()]
        } else {
            sets.iter().map(|s| s.contains(probe)).collect()
        };
        let class = *signature_to_class.entry(signature).or_insert_with(|| {
            classes.push(CharSet::empty());
            (classes.len() - 1) as ClassId
        });
        if !surrogate_gap {
            classes[class as usize] =
                classes[class as usize].union(&CharSet::from_ranges(vec![(lo, hi)]));
        }
        interval_class.push(class);
    }
    Alphabet::assemble(bounds, interval_class, classes)
}

/// The classes of `alphabet` that `set` intersects, in class order:
/// one [`CharSet::intersect`] per class.
pub fn classes_of(alphabet: &Alphabet, set: &CharSet) -> Vec<ClassId> {
    let mut out = Vec::new();
    for id in 0..alphabet.class_count() as ClassId {
        if !alphabet.class_set(id).intersect(set).is_empty() {
            out.push(id);
        }
    }
    out
}

/// The subset construction of `nfa`, `None` past `max_states` states.
/// States are numbered in discovery order: breadth-first from the
/// start set, classes in id order.
pub fn subset(nfa: &Nfa, max_states: usize) -> Option<Dfa> {
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

    Some(assemble(
        transitions,
        accepting,
        0,
        class_count,
        Arc::clone(&nfa.alphabet),
    ))
}

/// The construction pipeline over the reference builders:
/// [`Dfa::try_from_cregex_with`] as first written.
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
                .map(|item| try_from_cregex_with(item, alphabet, config, metrics, max_states))
                .collect::<Option<_>>()?;
            // Smallest-first fold: the product worklist only visits
            // reachable pairs, so keeping the accumulator small
            // bounds every intermediate.
            operands.sort_by_key(Dfa::state_count);
            let mut iter = operands.into_iter();
            let mut acc = iter.next().expect("And is non-empty");
            for operand in iter {
                acc = capped(reduced(intersect(&acc, &operand), config, metrics))?;
            }
            Some(acc)
        }
        CRegex::Not(inner) => {
            let inner = try_from_cregex_with(inner, alphabet, config, metrics, max_states)?;
            capped(reduced(complement(&inner), config, metrics))
        }
        _ => {
            let nfa = Nfa::thompson(re, alphabet);
            Some(reduced(subset(&nfa, max_states)?, config, metrics))
        }
    }
}

/// The eager pipeline without minimization, as the Thompson
/// construction embeds `And`/`Not` subtrees.
pub(crate) fn from_cregex(re: &CRegex, alphabet: &Arc<Alphabet>) -> Dfa {
    try_from_cregex_with(
        re,
        alphabet,
        &AutomataConfig::disabled(),
        &mut BuildMetrics::default(),
        usize::MAX,
    )
    .expect("unbounded construction cannot overflow")
}

/// [`Dfa::minimal_from_cregex`] over the reference builders: the
/// default pipeline, then a minimization pass whenever the result is
/// below the threshold, already minimal or not.
pub fn minimal_from_cregex(
    re: &CRegex,
    alphabet: &Arc<Alphabet>,
    metrics: &mut BuildMetrics,
) -> Dfa {
    let config = AutomataConfig::default();
    let dfa = try_from_cregex_with(re, alphabet, &config, metrics, usize::MAX)
        .expect("unbounded construction cannot overflow");
    if config.should_minimize(dfa.state_count()) {
        return dfa;
    }
    let minimal = minimized(&dfa);
    metrics.states_after_minimize =
        metrics.states_after_minimize - dfa.state_count() as u64 + minimal.state_count() as u64;
    minimal
}

/// [`Dfa::reduced`] with the reference minimization.
fn reduced(dfa: Dfa, config: &AutomataConfig, metrics: &mut BuildMetrics) -> Dfa {
    metrics.states_built += dfa.state_count() as u64;
    let out = if config.should_minimize(dfa.state_count()) {
        minimized(&dfa)
    } else {
        dfa
    };
    metrics.states_after_minimize += out.state_count() as u64;
    out
}

/// [`Dfa::complement`] with the reference distance labelling.
fn complement(dfa: &Dfa) -> Dfa {
    assemble(
        dfa.transitions.clone(),
        dfa.accepting.iter().map(|&a| !a).collect(),
        dfa.start,
        dfa.class_count,
        Arc::clone(&dfa.alphabet),
    )
}

/// The intersection product: [`Dfa::intersect`] as first written.
pub fn intersect(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, true)
}

/// The union product: [`Dfa::union`] as first written.
pub fn union(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, false)
}

fn product(this: &Dfa, other: &Dfa, intersect: bool) -> Dfa {
    assert_eq!(
        this.class_count, other.class_count,
        "product requires a shared alphabet"
    );
    let class_count = this.class_count;
    let dead_pair = |a: u32, b: u32| -> bool {
        let a_dead = this.distance_to_accept(a).is_none();
        let b_dead = other.distance_to_accept(b).is_none();
        match intersect {
            true => a_dead || b_dead,
            false => a_dead && b_dead,
        }
    };
    let accept = |a: u32, b: u32| -> bool {
        match intersect {
            true => this.is_accepting(a) && other.is_accepting(b),
            false => this.is_accepting(a) || other.is_accepting(b),
        }
    };
    let mut ids: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut transitions: Vec<u32> = Vec::new();
    let mut accepting: Vec<bool> = Vec::new();
    let mut worklist = VecDeque::new();
    let mut sink: Option<u32> = None;

    let start_pair = (this.start, other.start);
    ids.insert(start_pair, 0);
    transitions.resize(class_count, u32::MAX);
    accepting.push(accept(this.start, other.start));
    worklist.push_back(start_pair);

    while let Some((a, b)) = worklist.pop_front() {
        let id = ids[&(a, b)];
        for class in 0..class_count {
            let next = (
                this.step(a, class as ClassId),
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

    assemble(
        transitions,
        accepting,
        0,
        class_count,
        Arc::clone(&this.alphabet),
    )
}

/// The minimal complete DFA of `dfa`'s language, canonically
/// numbered: Hopcroft refinement over per-state predecessor lists.
pub fn minimized(dfa: &Dfa) -> Dfa {
    let class_count = dfa.class_count;
    // --- Restrict to states reachable from the start -------------
    let total = dfa.state_count();
    let mut compact: Vec<u32> = vec![u32::MAX; total]; // old → compact
    let mut reachable: Vec<u32> = Vec::new(); // compact → old
    {
        let mut queue = VecDeque::new();
        compact[dfa.start as usize] = 0;
        reachable.push(dfa.start);
        queue.push_back(dfa.start);
        while let Some(s) = queue.pop_front() {
            for class in 0..class_count {
                let t = dfa.step(s, class as ClassId);
                if compact[t as usize] == u32::MAX {
                    compact[t as usize] = reachable.len() as u32;
                    reachable.push(t);
                    queue.push_back(t);
                }
            }
        }
    }
    let n = reachable.len();

    // --- Reverse transitions over the compact states -------------
    // rev[class * n + target] = predecessor list.
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); class_count * n];
    for (s, &old) in reachable.iter().enumerate() {
        for class in 0..class_count {
            let t = compact[dfa.step(old, class as ClassId) as usize];
            rev[class * n + t as usize].push(s as u32);
        }
    }

    // --- Hopcroft refinement -------------------------------------
    let mut block_of: Vec<u32> = vec![0; n];
    let mut blocks: Vec<Vec<u32>> = Vec::new();
    {
        let mut accepting_block: Vec<u32> = Vec::new();
        let mut rejecting_block: Vec<u32> = Vec::new();
        for (s, &old) in reachable.iter().enumerate() {
            if dfa.is_accepting(old) {
                accepting_block.push(s as u32);
            } else {
                rejecting_block.push(s as u32);
            }
        }
        for block in [accepting_block, rejecting_block] {
            if !block.is_empty() {
                let id = blocks.len() as u32;
                for &s in &block {
                    block_of[s as usize] = id;
                }
                blocks.push(block);
            }
        }
    }
    // Worklist of (block, class) splitters; `in_worklist` mirrors
    // membership so a pending pair is never enqueued twice.
    let mut worklist: VecDeque<(u32, usize)> = VecDeque::new();
    let mut in_worklist: Vec<bool> = Vec::new();
    let enqueue_all =
        |worklist: &mut VecDeque<(u32, usize)>, in_worklist: &mut Vec<bool>, block: u32| {
            for class in 0..class_count {
                worklist.push_back((block, class));
                in_worklist[block as usize * class_count + class] = true;
            }
        };
    in_worklist.resize(blocks.len() * class_count, false);
    for b in 0..blocks.len() as u32 {
        enqueue_all(&mut worklist, &mut in_worklist, b);
    }

    let mut marked: Vec<bool> = vec![false; n];
    let mut marked_states: Vec<u32> = Vec::new();
    let mut hit_count: Vec<u32> = vec![0; blocks.len()];
    while let Some((a, class)) = worklist.pop_front() {
        in_worklist[a as usize * class_count + class] = false;
        // X = preimage of block `a` under `class`.
        let mut touched: Vec<u32> = Vec::new();
        for &t in &blocks[a as usize] {
            for &s in &rev[class * n + t as usize] {
                if !marked[s as usize] {
                    marked[s as usize] = true;
                    marked_states.push(s);
                    let b = block_of[s as usize];
                    if hit_count[b as usize] == 0 {
                        touched.push(b);
                    }
                    hit_count[b as usize] += 1;
                }
            }
        }
        for &b in &touched {
            let size = blocks[b as usize].len();
            let hits = hit_count[b as usize] as usize;
            hit_count[b as usize] = 0;
            if hits == size {
                continue; // no split: every member is in X
            }
            // Split block `b` into marked (keeps id `b`) and
            // unmarked (new id) halves.
            let members = std::mem::take(&mut blocks[b as usize]);
            let (inside, outside): (Vec<u32>, Vec<u32>) =
                members.into_iter().partition(|&s| marked[s as usize]);
            let new_id = blocks.len() as u32;
            for &s in &outside {
                block_of[s as usize] = new_id;
            }
            blocks[b as usize] = inside;
            blocks.push(outside);
            hit_count.push(0);
            in_worklist.resize(blocks.len() * class_count, false);
            for d in 0..class_count {
                if in_worklist[b as usize * class_count + d] {
                    // (b, d) is pending and now means the inside
                    // half; the outside half must also be
                    // processed.
                    worklist.push_back((new_id, d));
                    in_worklist[new_id as usize * class_count + d] = true;
                } else {
                    // Enqueue the smaller half (Hopcroft's trick).
                    let smaller = if blocks[b as usize].len() <= blocks[new_id as usize].len() {
                        b
                    } else {
                        new_id
                    };
                    worklist.push_back((smaller, d));
                    in_worklist[smaller as usize * class_count + d] = true;
                }
            }
        }
        for s in marked_states.drain(..) {
            marked[s as usize] = false;
        }
    }

    // --- Canonical rebuild: BFS over blocks from the start block --
    let block_count = blocks.len();
    let mut canon_of_block: Vec<u32> = vec![u32::MAX; block_count];
    let mut order: Vec<u32> = Vec::new(); // canonical id → block
    {
        let start_block = block_of[0]; // compact state 0 is the start
        let mut queue = VecDeque::new();
        canon_of_block[start_block as usize] = 0;
        order.push(start_block);
        queue.push_back(start_block);
        while let Some(b) = queue.pop_front() {
            let representative = blocks[b as usize][0];
            let old = reachable[representative as usize];
            for class in 0..class_count {
                let t = compact[dfa.step(old, class as ClassId) as usize];
                let tb = block_of[t as usize];
                if canon_of_block[tb as usize] == u32::MAX {
                    canon_of_block[tb as usize] = order.len() as u32;
                    order.push(tb);
                    queue.push_back(tb);
                }
            }
        }
    }
    // Every block is reachable (blocks partition reachable states),
    // so `order` covers all of them.
    debug_assert_eq!(order.len(), block_count);

    let mut transitions = vec![0u32; order.len() * class_count];
    let mut accepting = vec![false; order.len()];
    for (canon, &b) in order.iter().enumerate() {
        let representative = blocks[b as usize][0];
        let old = reachable[representative as usize];
        accepting[canon] = dfa.is_accepting(old);
        for class in 0..class_count {
            let t = compact[dfa.step(old, class as ClassId) as usize];
            transitions[canon * class_count + class] =
                canon_of_block[block_of[t as usize] as usize];
        }
    }
    assemble(
        transitions,
        accepting,
        0,
        class_count,
        Arc::clone(&dfa.alphabet),
    )
}

/// A DFA from its parts, labelled with the reference distances.
fn assemble(
    transitions: Vec<u32>,
    accepting: Vec<bool>,
    start: u32,
    class_count: usize,
    alphabet: Arc<Alphabet>,
) -> Dfa {
    let distances = distances(&transitions, &accepting, class_count);
    Dfa::with_distances(
        transitions,
        accepting,
        start,
        class_count,
        alphabet,
        distances,
    )
}

/// Breadth-first distance from every state to the nearest accepting
/// state, over reverse edges in one CSR array.
fn distances(transitions: &[u32], accepting: &[bool], class_count: usize) -> Vec<Option<u32>> {
    let n = accepting.len();
    let mut distances: Vec<Option<u32>> = vec![None; n];
    // Reverse BFS from accepting states, over the reverse edges in
    // one flat CSR array: the predecessors of `t` are
    // `preds[offsets[t]..offsets[t + 1]]`.
    let mut offsets: Vec<u32> = vec![0; n + 1];
    for &t in transitions {
        offsets[t as usize + 1] += 1;
    }
    for t in 0..n {
        offsets[t + 1] += offsets[t];
    }
    let mut fill: Vec<u32> = offsets[..n].to_vec();
    let mut preds: Vec<u32> = vec![0; transitions.len()];
    for (state, row) in transitions.chunks_exact(class_count).enumerate() {
        for &t in row {
            preds[fill[t as usize] as usize] = state as u32;
            fill[t as usize] += 1;
        }
    }
    let mut queue = VecDeque::new();
    for (state, &acc) in accepting.iter().enumerate() {
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
    distances
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
