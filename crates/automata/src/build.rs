//! The construction kernels — Thompson NFA, subset construction,
//! product, Hopcroft refinement and distance labelling — over flat
//! storage in reused scratch.
//!
//! The automata the solver builds are tiny (a handful of states over a
//! handful of classes), so their cost is per-state and per-edge
//! bookkeeping, not state explosion. Every kernel here therefore keeps
//! its working state in one [`Scratch`] of flat vectors: the NFA as CSR
//! arrays, subset states in one arena behind an open-addressing id
//! table, the partition as one permuted state array with block bounds.
//! A warm scratch makes a build allocate only the automaton it returns.
//!
//! Each kernel numbers states exactly as the reference builders in
//! [`crate::oracle`] do, so every automaton is byte-identical to theirs.

use std::cell::RefCell;
use std::hash::Hasher;
use std::sync::Arc;

use crate::alphabet::{Alphabet, ClassId};
use crate::cregex::CRegex;
use crate::dfa::{Dfa, ProductMode};
use crate::fxhash::FxHasher;

/// Scratch buffers a thread keeps between builds: at most this many
/// (one per nesting level of `And`/`Not` embeddings in use at once)…
const POOL_DEPTH: usize = 4;
/// …each dropped after a build that left it holding more than this
/// many bytes, so one outsized automaton does not pin its buffers.
const RETAIN_BYTES: usize = 1 << 20;

thread_local! {
    static POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a scratch from the thread's pool and returns the
/// scratch afterwards. A nested call (a Thompson build embedding the
/// DFA of an `And`/`Not` subtree) takes a second scratch.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = POOL
        .try_with(|pool| pool.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    let out = f(&mut scratch);
    if scratch.bytes() <= RETAIN_BYTES {
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_DEPTH {
                pool.push(scratch);
            }
        });
    }
    out
}

/// An empty slot of an [`IdTable`].
const EMPTY: u32 = u32::MAX;

/// An open-addressing table of dense ids whose keys live elsewhere
/// (a subset arena, a pair list): the table stores only ids, and the
/// caller supplies each key's hash and an equality test by id.
#[derive(Default)]
struct IdTable {
    slots: Vec<u32>,
    /// A copy of the slots while the table grows.
    spare: Vec<u32>,
    len: usize,
}

impl IdTable {
    fn clear(&mut self) {
        self.slots.clear();
        self.slots.resize(16, EMPTY);
        self.len = 0;
    }

    fn slot(&self, hash: u64) -> usize {
        home(hash, self.slots.len())
    }

    /// The id whose key `is_key` accepts, or the free slot to insert it.
    fn find(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.slot(hash);
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                id if is_key(id) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Fills the slot [`IdTable::find`] returned, growing the table
    /// past half full; `hashes[id]` is each resident id's hash.
    fn insert(&mut self, slot: usize, id: u32, hashes: &[u64]) {
        self.slots[slot] = id;
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.spare.clear();
            self.spare.extend_from_slice(&self.slots);
            self.slots.clear();
            self.slots.resize(self.spare.len() * 2, EMPTY);
            let mask = self.slots.len() - 1;
            for &id in self.spare.iter().filter(|&&id| id != EMPTY) {
                let mut i = home(hashes[id as usize], self.slots.len());
                while self.slots[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = id;
            }
        }
    }

    /// Inserts id 0, the first key, into a cleared table.
    fn insert_first(&mut self, hash: u64) {
        let slot = self.slot(hash);
        self.slots[slot] = 0;
        self.len = 1;
    }

    fn bytes(&self) -> usize {
        (self.slots.capacity() + self.spare.capacity()) * 4
    }
}

/// The home slot of `hash` in a table of `slots` (a power of two).
fn home(hash: u64, slots: usize) -> usize {
    (hash ^ (hash >> 29)) as usize & (slots - 1)
}

/// A Thompson NFA as CSR arrays: the ε-successors of state `s` are
/// `eps[eps_start[s]..eps_start[s + 1]]`, its labelled edges likewise.
#[derive(Default)]
struct FlatNfa {
    states: u32,
    start: u32,
    accept: u32,
    /// Edges in the order the construction adds them.
    eps_edges: Vec<(u32, u32)>,
    sym_edges: Vec<(u32, ClassId, u32)>,
    eps_start: Vec<u32>,
    eps: Vec<u32>,
    sym_start: Vec<u32>,
    sym: Vec<(ClassId, u32)>,
    /// `classes_of` output for the current `Set` node.
    classes: Vec<ClassId>,
}

impl FlatNfa {
    fn build(&mut self, re: &CRegex, alphabet: &Arc<Alphabet>) {
        self.states = 0;
        self.eps_edges.clear();
        self.sym_edges.clear();
        let (start, accept) = self.fragment(re, alphabet);
        (self.start, self.accept) = (start, accept);
        let n = self.states as usize;
        csr(
            n,
            self.eps_edges.iter().map(|&(from, to)| (from, to)),
            &mut self.eps_start,
            &mut self.eps,
        );
        csr(
            n,
            self.sym_edges.iter().map(|&(from, c, to)| (from, (c, to))),
            &mut self.sym_start,
            &mut self.sym,
        );
    }

    fn state(&mut self) -> u32 {
        self.states += 1;
        self.states - 1
    }

    fn pair(&mut self) -> (u32, u32) {
        (self.state(), self.state())
    }

    /// Returns `(start, accept)` of the fragment for `re`, numbering
    /// states as [`crate::oracle::Nfa::thompson`] does.
    fn fragment(&mut self, re: &CRegex, alphabet: &Arc<Alphabet>) -> (u32, u32) {
        match re {
            CRegex::EmptySet => self.pair(),
            CRegex::Epsilon => {
                let (s, a) = self.pair();
                self.eps_edges.push((s, a));
                (s, a)
            }
            CRegex::Set(set) => {
                let (s, a) = self.pair();
                alphabet.classes_into(set, &mut self.classes);
                self.sym_edges
                    .extend(self.classes.iter().map(|&class| (s, class, a)));
                (s, a)
            }
            CRegex::Concat(items) => {
                let mut current: Option<(u32, u32)> = None;
                for item in items {
                    let (s2, a2) = self.fragment(item, alphabet);
                    current = Some(match current {
                        None => (s2, a2),
                        Some((s1, a1)) => {
                            self.eps_edges.push((a1, s2));
                            (s1, a2)
                        }
                    });
                }
                current.unwrap_or_else(|| {
                    let (s, a) = self.pair();
                    self.eps_edges.push((s, a));
                    (s, a)
                })
            }
            CRegex::Alt(items) => {
                let (s, a) = self.pair();
                for item in items {
                    let (si, ai) = self.fragment(item, alphabet);
                    self.eps_edges.extend([(s, si), (ai, a)]);
                }
                (s, a)
            }
            CRegex::Star(inner) => {
                let (s, a) = self.pair();
                let (si, ai) = self.fragment(inner, alphabet);
                self.eps_edges.extend([(s, si), (ai, si), (s, a), (ai, a)]);
                (s, a)
            }
            CRegex::And(_) | CRegex::Not(_) => {
                // Compile through the DFA layer, then embed.
                let dfa = Dfa::from_cregex(re, alphabet);
                let offset = self.states;
                self.states += dfa.state_count() as u32;
                let accept = self.state();
                let classes = dfa.class_count;
                for (state, row) in dfa.transitions.chunks_exact(classes).enumerate() {
                    let from = offset + state as u32;
                    self.sym_edges.extend(
                        row.iter()
                            .enumerate()
                            .map(|(class, &to)| (from, class as ClassId, offset + to)),
                    );
                    if dfa.accepting[state] {
                        self.eps_edges.push((from, accept));
                    }
                }
                (offset + dfa.start, accept)
            }
        }
    }

    fn bytes(&self) -> usize {
        self.eps_edges.capacity() * 8
            + self.sym_edges.capacity() * 12
            + (self.eps_start.capacity() + self.eps.capacity() + self.sym_start.capacity()) * 4
            + self.sym.capacity() * 8
            + self.classes.capacity() * 2
    }
}

/// Groups `(from, item)` edges by source into CSR form, keeping each
/// source's items in insertion order.
fn csr<T: Copy + Default>(
    n: usize,
    edges: impl Iterator<Item = (u32, T)> + Clone,
    start: &mut Vec<u32>,
    items: &mut Vec<T>,
) {
    start.clear();
    start.resize(n + 1, 0);
    for (from, _) in edges.clone() {
        start[from as usize + 1] += 1;
    }
    for s in 0..n {
        start[s + 1] += start[s];
    }
    items.clear();
    items.resize(start[n] as usize, T::default());
    // Fill through the starts, then shift them back into place.
    for (from, item) in edges {
        let at = &mut start[from as usize];
        items[*at as usize] = item;
        *at += 1;
    }
    for s in (1..=n).rev() {
        start[s] = start[s - 1];
    }
    start[0] = 0;
}

/// Per-build working state of every kernel. Obtain one through
/// [`with_scratch`].
#[derive(Default)]
pub(crate) struct Scratch {
    nfa: FlatNfa,
    /// ε-closure marks (`mark[s] == stamp` iff `s` is in the latest
    /// closure) and DFS stack.
    mark: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
    /// The latest closure, sorted.
    next: Vec<u32>,
    /// Subset states: the members of state `i` are
    /// `members[member_start[i]..member_start[i + 1]]`.
    members: Vec<u32>,
    member_start: Vec<u32>,
    /// Per-state key hashes (subsets or pairs) for the id table.
    hashes: Vec<u64>,
    ids: IdTable,
    /// Product states: the operand pair of each id.
    pairs: Vec<(u32, u32)>,
    /// Projection: the coarser class of each target class.
    class_map: Vec<ClassId>,
    /// The current subset's edge targets, bucketed by class.
    bucket_start: Vec<u32>,
    bucket: Vec<u32>,
    /// The automaton under construction.
    transitions: Vec<u32>,
    accepting: Vec<bool>,
    /// Minimization: state renumbering, reverse edges and partition.
    compact: Vec<u32>,
    reachable: Vec<u32>,
    rev_start: Vec<u32>,
    rev: Vec<u32>,
    elems: Vec<u32>,
    loc: Vec<u32>,
    block_of: Vec<u32>,
    first: Vec<u32>,
    end: Vec<u32>,
    marked: Vec<u32>,
    worklist: Vec<(u32, u32)>,
    in_worklist: Vec<bool>,
    touched: Vec<u32>,
    preimage: Vec<u32>,
    in_preimage: Vec<bool>,
    order: Vec<u32>,
    /// Distance labelling: the BFS queue.
    queue: Vec<u32>,
}

impl Scratch {
    /// Bytes held by the buffers (capacity, not length).
    fn bytes(&self) -> usize {
        let words = self.mark.capacity()
            + self.stack.capacity()
            + self.next.capacity()
            + self.members.capacity()
            + self.member_start.capacity()
            + self.bucket_start.capacity()
            + self.bucket.capacity()
            + self.transitions.capacity()
            + self.compact.capacity()
            + self.reachable.capacity()
            + self.rev_start.capacity()
            + self.rev.capacity()
            + self.elems.capacity()
            + self.loc.capacity()
            + self.block_of.capacity()
            + self.first.capacity()
            + self.end.capacity()
            + self.marked.capacity()
            + self.touched.capacity()
            + self.class_map.capacity().div_ceil(2)
            + self.preimage.capacity()
            + self.order.capacity()
            + self.queue.capacity();
        self.nfa.bytes()
            + self.ids.bytes()
            + words * 4
            + (self.hashes.capacity() + self.pairs.capacity() + self.worklist.capacity()) * 8
            + self.accepting.capacity()
            + self.in_worklist.capacity()
            + self.in_preimage.capacity()
    }

    /// The transitions and acceptance flags of the subset construction
    /// over the Thompson NFA of `re`; `None` past `max_states` states.
    /// States are numbered in discovery order: breadth-first from the
    /// start set, classes in id order.
    pub(crate) fn subset(
        &mut self,
        re: &CRegex,
        alphabet: &Arc<Alphabet>,
        max_states: usize,
    ) -> Option<(Vec<u32>, Vec<bool>)> {
        self.nfa.build(re, alphabet);
        let class_count = alphabet.class_count();
        let n = self.nfa.states as usize;
        self.mark.clear();
        self.mark.resize(n, 0);
        self.stamp = 0;
        self.members.clear();
        self.member_start.clear();
        self.member_start.push(0);
        self.hashes.clear();
        self.ids.clear();
        self.transitions.clear();
        self.accepting.clear();

        self.bucket.clear();
        self.bucket.push(self.nfa.start);
        self.closure(0, 1);
        let hash = slice_hash(&self.next);
        self.add_subset(hash);
        self.ids.insert_first(hash);
        let mut id = 0;
        while id < self.accepting.len() {
            self.bucket_targets(id, class_count);
            for class in 0..class_count {
                let (lo, hi) = (self.bucket_start[class], self.bucket_start[class + 1]);
                self.closure(lo as usize, hi as usize);
                let hash = slice_hash(&self.next);
                let (members, member_start, next) = (&self.members, &self.member_start, &self.next);
                let next_id = match self.ids.find(hash, |id| {
                    let id = id as usize;
                    &members[member_start[id] as usize..member_start[id + 1] as usize]
                        == next.as_slice()
                }) {
                    Ok(id) => id,
                    Err(slot) => {
                        if self.accepting.len() >= max_states {
                            return None;
                        }
                        let new_id = self.add_subset(hash);
                        self.ids.insert(slot, new_id, &self.hashes);
                        new_id
                    }
                };
                self.transitions.push(next_id);
            }
            id += 1;
        }
        Some((self.transitions.clone(), self.accepting.clone()))
    }

    /// Records the latest closure as a new subset state.
    fn add_subset(&mut self, hash: u64) -> u32 {
        let id = self.accepting.len() as u32;
        self.members.extend_from_slice(&self.next);
        self.member_start.push(self.members.len() as u32);
        self.hashes.push(hash);
        self.accepting
            .push(self.mark[self.nfa.accept as usize] == self.stamp);
        id
    }

    /// Buckets the labelled-edge targets of subset `id` by class.
    fn bucket_targets(&mut self, id: usize, class_count: usize) {
        let members =
            &self.members[self.member_start[id] as usize..self.member_start[id + 1] as usize];
        let nfa = &self.nfa;
        let edges = |s: u32| {
            &nfa.sym[nfa.sym_start[s as usize] as usize..nfa.sym_start[s as usize + 1] as usize]
        };
        let start = &mut self.bucket_start;
        start.clear();
        start.resize(class_count + 1, 0);
        for &s in members {
            for &(c, _) in edges(s) {
                start[c as usize + 1] += 1;
            }
        }
        for c in 0..class_count {
            start[c + 1] += start[c];
        }
        self.bucket.clear();
        self.bucket.resize(start[class_count] as usize, 0);
        for &s in members {
            for &(c, t) in edges(s) {
                let at = &mut start[c as usize];
                self.bucket[*at as usize] = t;
                *at += 1;
            }
        }
        for c in (1..=class_count).rev() {
            start[c] = start[c - 1];
        }
        start[0] = 0;
    }

    /// Writes the sorted ε-closure of `bucket[lo..hi]` into `next`.
    fn closure(&mut self, lo: usize, hi: usize) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        self.next.clear();
        let (mark, stamp) = (&mut self.mark, self.stamp);
        for &s in &self.bucket[lo..hi] {
            if mark[s as usize] != stamp {
                mark[s as usize] = stamp;
                self.next.push(s);
                self.stack.push(s);
            }
        }
        let nfa = &self.nfa;
        while let Some(s) = self.stack.pop() {
            let (from, to) = (nfa.eps_start[s as usize], nfa.eps_start[s as usize + 1]);
            for &t in &nfa.eps[from as usize..to as usize] {
                if mark[t as usize] != stamp {
                    mark[t as usize] = stamp;
                    self.next.push(t);
                    self.stack.push(t);
                }
            }
        }
        self.next.sort_unstable();
    }

    /// The worklist product of two DFAs over one alphabet: only pairs
    /// reachable from the start pair are materialized, and pairs
    /// provably dead from the operands' distances share one rejecting
    /// sink. Pairs are numbered in discovery order, the sink when first
    /// met.
    pub(crate) fn product(&mut self, a: &Dfa, b: &Dfa, mode: ProductMode) -> (Vec<u32>, Vec<bool>) {
        let class_count = a.class_count;
        let dead_pair = |p: u32, q: u32| {
            let (p_dead, q_dead) = (
                a.distances[p as usize].is_none(),
                b.distances[q as usize].is_none(),
            );
            match mode {
                ProductMode::Intersect => p_dead || q_dead,
                ProductMode::Union => p_dead && q_dead,
            }
        };
        let accept = |p: u32, q: u32| match mode {
            ProductMode::Intersect => a.accepting[p as usize] && b.accepting[q as usize],
            ProductMode::Union => a.accepting[p as usize] || b.accepting[q as usize],
        };
        self.pairs.clear();
        self.hashes.clear();
        self.ids.clear();
        self.transitions.clear();
        self.accepting.clear();
        let mut sink: Option<u32> = None;

        let start = (a.start, b.start);
        self.pairs.push(start);
        self.hashes.push(pair_hash(start));
        self.ids.insert_first(self.hashes[0]);
        self.transitions.resize(class_count, EMPTY);
        self.accepting.push(accept(start.0, start.1));
        let mut id = 0;
        while id < self.pairs.len() {
            if sink == Some(id as u32) {
                id += 1;
                continue;
            }
            let (p, q) = self.pairs[id];
            for class in 0..class_count {
                let next = (
                    a.transitions[p as usize * class_count + class],
                    b.transitions[q as usize * class_count + class],
                );
                let next_id = if dead_pair(next.0, next.1) {
                    *sink.get_or_insert_with(|| {
                        let sink_id = self.accepting.len() as u32;
                        // Self-looping rejecting sink.
                        self.transitions
                            .extend(std::iter::repeat_n(sink_id, class_count));
                        self.accepting.push(false);
                        self.pairs.push((EMPTY, EMPTY));
                        self.hashes.push(0);
                        sink_id
                    })
                } else {
                    let hash = pair_hash(next);
                    let pairs = &self.pairs;
                    match self.ids.find(hash, |id| pairs[id as usize] == next) {
                        Ok(id) => id,
                        Err(slot) => {
                            let new_id = self.accepting.len() as u32;
                            self.pairs.push(next);
                            self.hashes.push(hash);
                            self.ids.insert(slot, new_id, &self.hashes);
                            self.transitions
                                .extend(std::iter::repeat_n(EMPTY, class_count));
                            self.accepting.push(accept(next.0, next.1));
                            new_id
                        }
                    }
                };
                self.transitions[id * class_count + class] = next_id;
            }
            id += 1;
        }
        (self.transitions.clone(), self.accepting.clone())
    }

    /// The minimal complete DFA of `dfa`'s language, numbered
    /// breadth-first from the start state in class order: Hopcroft
    /// refinement of the reachable states over a reverse CSR table and
    /// a refinable partition (one permuted state array, each block a
    /// contiguous run with its marked members at the front).
    pub(crate) fn minimize(&mut self, dfa: &Dfa) -> (Vec<u32>, Vec<bool>) {
        let k = dfa.class_count;
        let step = |s: u32, c: usize| dfa.transitions[s as usize * k + c];

        // --- Restrict to states reachable from the start -------------
        self.compact.clear();
        self.compact.resize(dfa.state_count(), EMPTY);
        self.reachable.clear();
        self.compact[dfa.start as usize] = 0;
        self.reachable.push(dfa.start);
        let mut head = 0;
        while head < self.reachable.len() {
            let s = self.reachable[head];
            head += 1;
            for c in 0..k {
                let t = step(s, c);
                if self.compact[t as usize] == EMPTY {
                    self.compact[t as usize] = self.reachable.len() as u32;
                    self.reachable.push(t);
                }
            }
        }
        let n = self.reachable.len();
        let compact = &self.compact;
        let reachable = &self.reachable;

        // --- Reverse edges: preds of `t` under `c` at `c * n + t` ------
        let rev_start = &mut self.rev_start;
        rev_start.clear();
        rev_start.resize(k * n + 1, 0);
        for &old in reachable {
            for c in 0..k {
                rev_start[c * n + compact[step(old, c) as usize] as usize + 1] += 1;
            }
        }
        for i in 0..k * n {
            rev_start[i + 1] += rev_start[i];
        }
        self.rev.clear();
        self.rev.resize(k * n, 0);
        for (s, &old) in reachable.iter().enumerate() {
            for c in 0..k {
                let at = &mut rev_start[c * n + compact[step(old, c) as usize] as usize];
                self.rev[*at as usize] = s as u32;
                *at += 1;
            }
        }
        for i in (1..=k * n).rev() {
            rev_start[i] = rev_start[i - 1];
        }
        rev_start[0] = 0;

        // --- Initial partition: accepting, then rejecting ------------
        let elems = &mut self.elems;
        elems.clear();
        elems.extend((0..n as u32).filter(|&s| dfa.accepting[reachable[s as usize] as usize]));
        let accepting_count = elems.len() as u32;
        elems.extend((0..n as u32).filter(|&s| !dfa.accepting[reachable[s as usize] as usize]));
        self.loc.clear();
        self.loc.resize(n, 0);
        self.block_of.clear();
        self.block_of.resize(n, 0);
        for (at, &s) in elems.iter().enumerate() {
            self.loc[s as usize] = at as u32;
        }
        self.first.clear();
        self.end.clear();
        for (lo, hi) in [(0, accepting_count), (accepting_count, n as u32)] {
            if lo < hi {
                let block = self.first.len() as u32;
                for &s in &elems[lo as usize..hi as usize] {
                    self.block_of[s as usize] = block;
                }
                self.first.push(lo);
                self.end.push(hi);
            }
        }
        self.marked.clear();
        self.marked.resize(n, 0);
        self.in_worklist.clear();
        self.in_worklist.resize(n * k, false);
        self.worklist.clear();
        if self.first.len() == 2 {
            // Hopcroft's start: the smaller block under every class.
            let smaller = u32::from(n as u32 - accepting_count < accepting_count);
            for c in 0..k {
                self.worklist.push((smaller, c as u32));
                self.in_worklist[smaller as usize * k + c] = true;
            }
        }
        self.in_preimage.clear();
        self.in_preimage.resize(n, false);

        // --- Refinement ------------------------------------------------
        while let Some((a, c)) = self.worklist.pop() {
            let c = c as usize;
            self.in_worklist[a as usize * k + c] = false;
            // The preimage of block `a` under `c`.
            self.preimage.clear();
            for &t in &elems[self.first[a as usize] as usize..self.end[a as usize] as usize] {
                let at = c * n + t as usize;
                for &s in &self.rev[rev_start[at] as usize..rev_start[at + 1] as usize] {
                    if !self.in_preimage[s as usize] {
                        self.in_preimage[s as usize] = true;
                        self.preimage.push(s);
                    }
                }
            }
            // Move each member of the preimage to the marked front of
            // its block.
            for &s in &self.preimage {
                self.in_preimage[s as usize] = false;
                let b = self.block_of[s as usize] as usize;
                let (from, to) = (self.loc[s as usize], self.first[b] + self.marked[b]);
                let other = elems[to as usize];
                elems.swap(from as usize, to as usize);
                self.loc[s as usize] = to;
                self.loc[other as usize] = from;
                self.marked[b] += 1;
                if self.marked[b] == 1 {
                    self.touched.push(b as u32);
                }
            }
            // Split every touched block that the preimage cuts.
            for &b in &self.touched {
                let b = b as usize;
                let split = self.first[b] + self.marked[b];
                self.marked[b] = 0;
                if split == self.end[b] {
                    continue;
                }
                let new = self.first.len();
                self.first.push(split);
                self.end.push(self.end[b]);
                self.end[b] = split;
                for &s in &elems[split as usize..self.end[new] as usize] {
                    self.block_of[s as usize] = new as u32;
                }
                let smaller = if self.end[b] - self.first[b] <= self.end[new] - self.first[new] {
                    b
                } else {
                    new
                };
                for d in 0..k {
                    let pick = if self.in_worklist[b * k + d] {
                        new
                    } else {
                        smaller
                    };
                    self.worklist.push((pick as u32, d as u32));
                    self.in_worklist[pick * k + d] = true;
                }
            }
            self.touched.clear();
        }

        // --- Canonical rebuild: BFS over blocks from the start block --
        let blocks = self.first.len();
        let block_of = &self.block_of;
        let representative = |b: u32| reachable[elems[self.first[b as usize] as usize] as usize];
        // `marked` is all zeros again; reuse it as the block → canonical
        // id map, offset by one so zero means "not yet numbered".
        let canon = &mut self.marked;
        let order = &mut self.order;
        order.clear();
        order.push(block_of[0]);
        canon[block_of[0] as usize] = 1;
        let mut head = 0;
        while head < order.len() {
            let old = representative(order[head]);
            head += 1;
            for c in 0..k {
                let tb = block_of[compact[step(old, c) as usize] as usize];
                if canon[tb as usize] == 0 {
                    order.push(tb);
                    canon[tb as usize] = order.len() as u32;
                }
            }
        }
        // Every block is reachable, so `order` covers all of them.
        debug_assert_eq!(order.len(), blocks);
        let mut transitions = vec![0u32; blocks * k];
        let mut accepting = vec![false; blocks];
        for (id, &b) in order.iter().enumerate() {
            let old = representative(b);
            accepting[id] = dfa.accepting[old as usize];
            for c in 0..k {
                let tb = block_of[compact[step(old, c) as usize] as usize];
                transitions[id * k + c] = canon[tb as usize] - 1;
            }
        }
        (transitions, accepting)
    }

    /// The transitions, acceptance flags and distances of `dfa` over
    /// `target`, an alphabet that refines the DFA's own: each class of
    /// `target` takes the transitions of the class it refines, and the
    /// reachable states are renumbered breadth-first in class order.
    /// `None` when `target` does not refine the DFA's alphabet.
    #[allow(clippy::type_complexity)]
    pub(crate) fn project(
        &mut self,
        dfa: &Dfa,
        target: &Alphabet,
    ) -> Option<(Vec<u32>, Vec<bool>, Vec<Option<u32>>)> {
        if !target.refinement_into(&dfa.alphabet, &mut self.class_map) {
            return None;
        }
        let canon = &mut self.compact;
        canon.clear();
        canon.resize(dfa.state_count(), EMPTY);
        let order = &mut self.order; // canonical id → own state
        order.clear();
        order.push(dfa.start);
        canon[dfa.start as usize] = 0;
        let mut transitions = Vec::with_capacity(dfa.state_count() * self.class_map.len());
        let mut next = 0;
        while next < order.len() {
            let state = order[next];
            next += 1;
            for &class in &self.class_map {
                let t = dfa.step(state, class);
                if canon[t as usize] == EMPTY {
                    canon[t as usize] = order.len() as u32;
                    order.push(t);
                }
                transitions.push(canon[t as usize]);
            }
        }
        // The map is onto (every coarser class holds some interval of
        // `target`), so a state's shortest accepted suffix lifts class
        // by class: distances carry over unchanged.
        let accepting = order.iter().map(|&s| dfa.accepting[s as usize]).collect();
        let distances = order.iter().map(|&s| dfa.distances[s as usize]).collect();
        Some((transitions, accepting, distances))
    }

    /// Breadth-first distance from every state to the nearest accepting
    /// state (`None` = dead), over the reverse edges as CSR arrays.
    pub(crate) fn distances(
        &mut self,
        transitions: &[u32],
        accepting: &[bool],
        class_count: usize,
    ) -> Vec<Option<u32>> {
        let n = accepting.len();
        let start = &mut self.rev_start;
        start.clear();
        start.resize(n + 1, 0);
        for &t in transitions {
            start[t as usize + 1] += 1;
        }
        for t in 0..n {
            start[t + 1] += start[t];
        }
        self.rev.clear();
        self.rev.resize(transitions.len(), 0);
        for (state, row) in transitions.chunks_exact(class_count.max(1)).enumerate() {
            for &t in row {
                let at = &mut start[t as usize];
                self.rev[*at as usize] = state as u32;
                *at += 1;
            }
        }
        for t in (1..=n).rev() {
            start[t] = start[t - 1];
        }
        start[0] = 0;
        let mut distances: Vec<Option<u32>> = vec![None; n];
        self.queue.clear();
        for (state, &acc) in accepting.iter().enumerate() {
            if acc {
                distances[state] = Some(0);
                self.queue.push(state as u32);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let state = self.queue[head] as usize;
            head += 1;
            let d = distances[state].expect("queued states have distance");
            for &prev in &self.rev[start[state] as usize..start[state + 1] as usize] {
                if distances[prev as usize].is_none() {
                    distances[prev as usize] = Some(d + 1);
                    self.queue.push(prev);
                }
            }
        }
        distances
    }
}

fn slice_hash(members: &[u32]) -> u64 {
    let mut hasher = FxHasher::default();
    for &m in members {
        hasher.write_u32(m);
    }
    hasher.write_usize(members.len());
    hasher.finish()
}

fn pair_hash((a, b): (u32, u32)) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u64(u64::from(a) << 32 | u64::from(b));
    hasher.finish()
}
