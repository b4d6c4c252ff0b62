//! Building blocks for cross-query caches.
//!
//! DSE traces re-encounter near-identical path conditions thousands of
//! times: a child trace shares its path prefix with the parent, so the
//! flip queries along that prefix are *exactly* the queries the parent
//! already solved — up to variable numbering, which differs because
//! every query is built against a fresh [`crate::VarPool`]. The
//! [`canonical_query`] normal form (variables renumbered in
//! first-occurrence order) closes that gap, and [`Lru`] bounds the
//! resident entries.
//!
//! Every shared cache of the pipeline is a [`SharedLru`]: the lock, the
//! bounded map and the hit/miss counters in one place, with one
//! [`CacheStats`] snapshot per cache. That covers
//! `expose_core::cache::ModelCache` (regex models),
//! `expose_core::cegar::CegarCache` (whole validated CEGAR runs,
//! selected by a session's conjunct digest and decided by the full
//! canonical conjunct list plus a [`crate::SolverConfig`] fingerprint)
//! and the six indexes of the solver's DFA cache ([`crate::DfaTables`]).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::iter::Sum;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::formula::{Atom, Formula};
use crate::vars::{BoolVar, StrVar, Term};

/// A capacity- and byte-bounded map with least-recently-used eviction.
///
/// Entries live in a slab threaded by an intrusive doubly linked
/// recency list (most recent at the head), with a hash index from key
/// to slot. A lookup hit relinks its slot to the head and an eviction
/// unlinks the tail, so `get`, `insert_weighted` and every eviction are
/// O(1) — cold workloads evict on nearly every insert, so a scan for
/// the oldest entry would cost a pass over all resident entries (under
/// the owning cache's lock) per insert. The key is shared between the
/// index and its slot through an `Arc`, so a hit neither allocates nor
/// clones a key. A capacity of `0` disables the map: inserts are
/// dropped and lookups always miss.
///
/// Besides the entry-count capacity, a map can carry an *approximate
/// byte budget* ([`Lru::with_byte_budget`]): entries inserted through
/// [`Lru::insert_weighted`] declare an approximate resident size, and
/// eviction also runs while the weighted total exceeds the budget —
/// the backstop that keeps long-lived session caches (models, verdicts,
/// automata) from growing without bound on entry counts alone.
///
/// Inserts hand their evicted entries back ([`Evicted`]) instead of
/// dropping them, so a map kept behind a lock frees them after the lock
/// is released.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    byte_budget: usize,
    bytes: usize,
    evictions: u64,
    index: HashMap<Arc<K>, usize>,
    slots: Vec<Slot<K, V>>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<usize>,
    /// Most recently used slot ([`NIL`] when empty).
    head: usize,
    /// Least recently used slot — the next eviction.
    tail: usize,
}

/// One slab slot; `entry` is `None` only while the slot is free.
#[derive(Debug)]
struct Slot<K, V> {
    entry: Option<(Arc<K>, V)>,
    weight: usize,
    prev: usize,
    next: usize,
}

/// The null link of the recency list.
const NIL: usize = usize::MAX;

/// The entries one insert evicted, least recently used first. Dropping
/// it frees them: a caller holding the map behind a lock binds it and
/// lets it drop after the guard. A capacity eviction pushes out at most
/// one entry, which is held without allocating.
#[must_use = "bind the evicted entries and let them drop after the lock is released"]
#[derive(Debug)]
pub struct Evicted<K, V> {
    first: Option<(Arc<K>, V)>,
    rest: Vec<(Arc<K>, V)>,
}

impl<K, V> Evicted<K, V> {
    fn none() -> Evicted<K, V> {
        Evicted {
            first: None,
            rest: Vec::new(),
        }
    }

    fn push(&mut self, entry: (Arc<K>, V)) {
        match self.first {
            None => self.first = Some(entry),
            Some(_) => self.rest.push(entry),
        }
    }

    /// The evicted keys, in eviction order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.first.iter().chain(&self.rest).map(|(key, _)| &**key)
    }
}

impl<K: Eq + Hash, V> Lru<K, V> {
    /// Creates a map holding at most `capacity` entries, with no byte
    /// budget.
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru::with_byte_budget(capacity, 0)
    }

    /// Creates a map holding at most `capacity` entries and (when
    /// `byte_budget > 0`) at most roughly `byte_budget` bytes of
    /// weighted entries.
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> Lru<K, V> {
        Lru {
            capacity,
            byte_budget,
            bytes: 0,
            evictions: 0,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Approximate bytes held by resident weighted entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries evicted so far (capacity- or budget-driven).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up a key, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.index.get(key)?;
        self.touch(slot);
        self.slots[slot].entry.as_ref().map(|(_, value)| value)
    }

    /// Inserts an entry with zero weight (entry-count bounding only),
    /// returning what it evicted.
    pub fn insert(&mut self, key: K, value: V) -> Evicted<K, V> {
        self.insert_weighted(key, value, 0)
    }

    /// Inserts an entry weighing approximately `weight` bytes, evicting
    /// least-recently-used entries while over the entry capacity or the
    /// byte budget, and returns the evicted entries. No-op when the
    /// capacity is `0`.
    pub fn insert_weighted(&mut self, key: K, value: V, weight: usize) -> Evicted<K, V> {
        let mut evicted = Evicted::none();
        if self.capacity == 0 {
            return evicted;
        }
        match self.index.entry(Arc::new(key)) {
            Entry::Occupied(resident) => {
                let slot = *resident.get();
                let s = &mut self.slots[slot];
                self.bytes = self.bytes - s.weight + weight;
                s.weight = weight;
                if let Some((_, old)) = &mut s.entry {
                    *old = value;
                }
                self.touch(slot);
            }
            Entry::Vacant(vacant) => {
                let fresh = Slot {
                    entry: Some((Arc::clone(vacant.key()), value)),
                    weight,
                    prev: NIL,
                    next: NIL,
                };
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot] = fresh;
                        slot
                    }
                    None => {
                        self.slots.push(fresh);
                        self.slots.len() - 1
                    }
                };
                vacant.insert(slot);
                self.bytes += weight;
                self.push_front(slot);
            }
        }
        // The fresh entry heads the recency list, so it is evicted only
        // when it alone exceeds the budget — an oversized entry is not
        // retained.
        while self.index.len() > self.capacity
            || (self.byte_budget > 0 && self.bytes > self.byte_budget)
        {
            evicted.push(self.evict_lru());
        }
        evicted
    }

    /// Moves a resident slot to the head of the recency list.
    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    /// Unlinks the least recently used entry, frees its slot and
    /// returns the entry.
    fn evict_lru(&mut self) -> (Arc<K>, V) {
        let slot = self.tail;
        self.unlink(slot);
        let s = &mut self.slots[slot];
        let entry = s.entry.take().expect("linked slots are occupied");
        self.bytes -= s.weight;
        self.index.remove(&entry.0);
        self.free.push(slot);
        self.evictions += 1;
        entry
    }
}

/// A point-in-time snapshot of a cache's counters, or the sum of
/// several caches' snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, or rejected by the
    /// caller).
    pub misses: u64,
    /// Resident entries.
    pub entries: usize,
    /// Approximate bytes held by resident weighted entries.
    pub bytes: usize,
    /// Entries evicted so far (capacity- or budget-driven).
    pub evictions: u64,
    /// The entry capacity (`0` = the cache is disabled).
    pub capacity: usize,
    /// The byte budget (`0` = unlimited).
    pub byte_budget: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (`0` when no lookup happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| CacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            entries: a.entries + b.entries,
            bytes: a.bytes + b.bytes,
            evictions: a.evictions + b.evictions,
            capacity: a.capacity + b.capacity,
            byte_budget: a.byte_budget + b.byte_budget,
        })
    }
}

/// An [`Lru`] shared between threads: one lock around the map, plus
/// the hit and miss counters.
///
/// Each lookup and each insert takes the lock once. A lookup reads the
/// resident value under the lock (cloning at most a pointer, for the
/// `Arc` values every cache stores) and may judge what it read after
/// the lock is released; a value the caller rejects counts as a miss.
/// An insert frees what it evicted only after the lock is released:
/// dropping an evicted model, run or automaton can free a lot of
/// memory, and other threads wait on the lock meanwhile.
#[derive(Debug)]
pub struct SharedLru<K, V> {
    lru: Mutex<Lru<K, V>>,
    /// The entry capacity, fixed at construction: read without the lock.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V> SharedLru<K, V> {
    /// Creates a cache holding at most `capacity` entries (`0`
    /// disables it: inserts are dropped and lookups miss) and, when
    /// `byte_budget > 0`, at most roughly `byte_budget` bytes of
    /// weighted entries.
    pub fn new(capacity: usize, byte_budget: usize) -> SharedLru<K, V> {
        SharedLru {
            lru: Mutex::new(Lru::with_byte_budget(capacity, byte_budget)),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The entry capacity (`0` = the cache is disabled), read without
    /// taking the lock.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up and clones its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone, |_| true)
    }

    /// Looks `key` up: `read` runs on the resident value under the
    /// lock, and `accept` judges what it read once the lock is
    /// released. A value `accept` rejects counts as a miss.
    pub fn get_with<R>(
        &self,
        key: &K,
        read: impl FnOnce(&V) -> R,
        accept: impl FnOnce(&R) -> bool,
    ) -> Option<R> {
        let resident = self.lru.lock().get(key).map(read);
        let found = resident.filter(accept);
        let counter = match found {
            Some(_) => &self.hits,
            None => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts an entry weighing approximately `weight` bytes (see
    /// [`Lru::insert_weighted`]) and frees what it evicted after the
    /// lock is released.
    pub fn insert(&self, key: K, value: V, weight: usize) {
        let evicted = self.lru.lock().insert_weighted(key, value, weight);
        drop(evicted);
    }

    /// The cache's counters, as one snapshot.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lru.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lru.len(),
            bytes: lru.bytes(),
            evictions: lru.evictions(),
            capacity: self.capacity,
            byte_budget: lru.byte_budget,
        }
    }
}

/// An incremental first-occurrence variable renumberer.
///
/// Feeding formulas through [`Canonicalizer::formula`] assigns each
/// distinct variable the next canonical index the first time it is
/// seen, exactly like a one-shot [`canonical_query`] over the
/// concatenation of everything fed so far. [`crate::session::SolveSession`]
/// exploits this to canonicalize a trace's shared prefix once and
/// extend the numbering per flip; [`Canonicalizer::seeded`] rebuilds
/// the state at a frame watermark from the recorded variable order.
#[derive(Debug, Clone, Default)]
pub struct Canonicalizer {
    str_map: HashMap<StrVar, u32>,
    bool_map: HashMap<BoolVar, u32>,
    strs: Vec<StrVar>,
    bools: Vec<BoolVar>,
}

impl Canonicalizer {
    /// An empty renumbering.
    pub fn new() -> Canonicalizer {
        Canonicalizer::default()
    }

    /// Rebuilds the state reached after first-occurrence numbering
    /// assigned exactly `strs` and `bools`, in order.
    pub fn seeded(strs: &[StrVar], bools: &[BoolVar]) -> Canonicalizer {
        let mut canon = Canonicalizer::new();
        for &v in strs {
            canon.str_var(v);
        }
        for &v in bools {
            canon.bool_var(v);
        }
        canon
    }

    /// Canonical string index → original variable, in assignment order.
    pub fn str_vars(&self) -> &[StrVar] {
        &self.strs
    }

    /// Canonical boolean index → original variable, in assignment order.
    pub fn bool_vars(&self) -> &[BoolVar] {
        &self.bools
    }

    /// The canonical index assigned to an original string variable.
    pub fn str_id(&self, v: StrVar) -> Option<u32> {
        self.str_map.get(&v).copied()
    }

    /// The canonical index assigned to an original boolean variable.
    pub fn bool_id(&self, v: BoolVar) -> Option<u32> {
        self.bool_map.get(&v).copied()
    }

    /// Maps one string variable, assigning the next canonical index on
    /// first occurrence — for callers extending a query's canonical
    /// space with variables that may not occur in the formula itself
    /// (e.g. capture variables of an approximate constraint model).
    pub fn map_str(&mut self, v: StrVar) -> StrVar {
        self.str_var(v)
    }

    /// Maps one boolean variable, assigning the next canonical index on
    /// first occurrence (see [`Canonicalizer::map_str`]).
    pub fn map_bool(&mut self, v: BoolVar) -> BoolVar {
        self.bool_var(v)
    }

    fn str_var(&mut self, v: StrVar) -> StrVar {
        if let Some(&id) = self.str_map.get(&v) {
            return StrVar(id);
        }
        let id = self.strs.len() as u32;
        self.str_map.insert(v, id);
        self.strs.push(v);
        StrVar(id)
    }

    fn bool_var(&mut self, v: BoolVar) -> BoolVar {
        if let Some(&id) = self.bool_map.get(&v) {
            return BoolVar(id);
        }
        let id = self.bools.len() as u32;
        self.bool_map.insert(v, id);
        self.bools.push(v);
        BoolVar(id)
    }

    fn term(&mut self, t: &Term) -> Term {
        match t {
            Term::Var(v) => Term::Var(self.str_var(*v)),
            Term::Lit(s) => Term::Lit(s.clone()),
        }
    }

    /// Renumbers a formula, extending the state with any new variables.
    pub fn formula(&mut self, f: &Formula) -> Formula {
        match f {
            Formula::Atom(a) => Formula::Atom(self.atom(a)),
            Formula::And(items) => Formula::And(items.iter().map(|f| self.formula(f)).collect()),
            Formula::Or(items) => Formula::Or(items.iter().map(|f| self.formula(f)).collect()),
        }
    }

    fn atom(&mut self, a: &Atom) -> Atom {
        match a {
            Atom::InRe(v, re) => Atom::InRe(self.str_var(*v), re.clone()),
            Atom::NotInRe(v, re) => Atom::NotInRe(self.str_var(*v), re.clone()),
            Atom::EqLit(v, lit) => Atom::EqLit(self.str_var(*v), lit.clone()),
            Atom::NeLit(v, lit) => Atom::NeLit(self.str_var(*v), lit.clone()),
            Atom::EqVar(v, u) => Atom::EqVar(self.str_var(*v), self.str_var(*u)),
            Atom::NeVar(v, u) => Atom::NeVar(self.str_var(*v), self.str_var(*u)),
            Atom::EqConcat(v, parts) => Atom::EqConcat(
                self.str_var(*v),
                parts.iter().map(|t| self.term(t)).collect(),
            ),
            Atom::Bool(flag, value) => Atom::Bool(self.bool_var(*flag), *value),
            Atom::True => Atom::True,
            Atom::False => Atom::False,
        }
    }
}

/// A formula renumbered into canonical variable space, with the maps
/// back to the original variables — the from-scratch oracle that
/// [`crate::SessionView`] must agree with.
#[derive(Debug, Clone)]
pub struct CanonicalQuery {
    /// The renumbered formula.
    pub formula: Formula,
    canon: Canonicalizer,
}

impl CanonicalQuery {
    /// Canonical string index → original variable.
    pub fn str_vars(&self) -> &[StrVar] {
        self.canon.str_vars()
    }

    /// Canonical boolean index → original variable.
    pub fn bool_vars(&self) -> &[BoolVar] {
        self.canon.bool_vars()
    }

    /// The canonical index of an original string variable, if it
    /// occurs in the query.
    pub fn str_id(&self, v: StrVar) -> Option<u32> {
        self.canon.str_id(v)
    }

    /// The canonical index of an original boolean variable, if it
    /// occurs in the query.
    pub fn bool_id(&self, v: BoolVar) -> Option<u32> {
        self.canon.bool_id(v)
    }
}

/// Renumbers a formula's variables in first-occurrence order — the
/// normal form under which structurally identical queries from
/// different [`crate::VarPool`]s collide.
pub fn canonical_query(formula: &Formula) -> CanonicalQuery {
    let mut canon = Canonicalizer::new();
    let formula = canon.formula(formula);
    CanonicalQuery { formula, canon }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarPool;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, &str> = Lru::new(2);
        let _ = lru.insert(1, "one");
        let _ = lru.insert(2, "two");
        assert_eq!(lru.get(&1), Some(&"one")); // refresh 1
        let evicted = lru.insert(3, "three");
        assert_eq!(evicted.keys().collect::<Vec<_>>(), [&2]);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"one"));
        assert_eq!(lru.get(&3), Some(&"three"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut lru: Lru<u32, &str> = Lru::new(0);
        let _ = lru.insert(1, "one");
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn byte_budget_evicts_weighted_entries() {
        let mut lru: Lru<u32, &str> = Lru::with_byte_budget(16, 100);
        let _ = lru.insert_weighted(1, "one", 60);
        assert_eq!(lru.bytes(), 60);
        let _ = lru.insert_weighted(2, "two", 60); // 120 > 100 → evicts 1
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.get(&2), Some(&"two"));
        assert_eq!(lru.bytes(), 60);
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn oversized_entry_is_not_retained() {
        let mut lru: Lru<u32, &str> = Lru::with_byte_budget(16, 100);
        let _ = lru.insert_weighted(1, "big", 200);
        assert!(lru.is_empty());
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn replacing_an_entry_updates_bytes() {
        let mut lru: Lru<u32, &str> = Lru::with_byte_budget(16, 100);
        let _ = lru.insert_weighted(1, "one", 40);
        let _ = lru.insert_weighted(1, "uno", 70);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.bytes(), 70);
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn shared_lru_counts_hits_and_misses() {
        let cache: SharedLru<u32, Arc<str>> = SharedLru::new(4, 0);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, Arc::from("one"), 0);
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        // A resident value the caller rejects is a miss.
        assert_eq!(cache.get_with(&1, Arc::clone, |_| false), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!(
            (stats.entries, stats.capacity, stats.byte_budget),
            (1, 4, 0)
        );
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn shared_lru_with_zero_capacity_stores_nothing() {
        let cache: SharedLru<u32, u32> = SharedLru::new(0, 0);
        cache.insert(1, 10, 8);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&1), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (0, 0, 0));
    }

    #[test]
    fn shared_lru_byte_budget_evicts_and_holds() {
        let cache: SharedLru<u32, u32> = SharedLru::new(64, 100);
        for key in 0..10 {
            cache.insert(key, key, 30);
            let stats = cache.stats();
            assert!(stats.bytes <= 100, "{stats:?}");
            assert_eq!(stats.bytes, stats.entries * 30);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (3, 7));
        // The three most recent keys are resident, the rest evicted.
        assert_eq!(cache.get(&9), Some(9));
        assert_eq!(cache.get(&6), None);
    }

    #[test]
    fn cache_stats_sum_fieldwise() {
        let one = CacheStats {
            hits: 1,
            misses: 2,
            entries: 3,
            bytes: 4,
            evictions: 5,
            capacity: 6,
            byte_budget: 7,
        };
        let total: CacheStats = [one, one].into_iter().sum();
        assert_eq!(
            total,
            CacheStats {
                hits: 2,
                misses: 4,
                entries: 6,
                bytes: 8,
                evictions: 10,
                capacity: 12,
                byte_budget: 14,
            }
        );
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    /// The min-tick-scan map `Lru` replaced, kept as the eviction-order
    /// oracle: recency is a monotonic tick and eviction scans for the
    /// minimum.
    struct ScanLru {
        capacity: usize,
        byte_budget: usize,
        bytes: usize,
        evictions: u64,
        tick: u64,
        entries: HashMap<u32, (u32, u64, usize)>,
    }

    impl ScanLru {
        fn get(&mut self, key: &u32) -> Option<&u32> {
            self.tick += 1;
            let tick = self.tick;
            self.entries.get_mut(key).map(|(value, last, _)| {
                *last = tick;
                &*value
            })
        }

        /// Returns the evicted keys, oldest first.
        fn insert_weighted(&mut self, key: u32, value: u32, weight: usize) -> Vec<u32> {
            let mut evicted = Vec::new();
            if self.capacity == 0 {
                return evicted;
            }
            self.tick += 1;
            if let Some((_, _, old)) = self.entries.remove(&key) {
                self.bytes -= old;
            }
            self.entries.insert(key, (value, self.tick, weight));
            self.bytes += weight;
            while self.entries.len() > self.capacity
                || (self.byte_budget > 0 && self.bytes > self.byte_budget)
            {
                let Some(oldest) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last, _))| *last)
                    .map(|(k, _)| *k)
                else {
                    break;
                };
                if let Some((_, _, w)) = self.entries.remove(&oldest) {
                    self.bytes -= w;
                    self.evictions += 1;
                    evicted.push(oldest);
                }
            }
            evicted
        }

        /// Resident keys, least recently used first.
        fn recency(&self) -> Vec<u32> {
            let mut keys: Vec<(u64, u32)> = self
                .entries
                .iter()
                .map(|(k, (_, last, _))| (*last, *k))
                .collect();
            keys.sort_unstable();
            keys.into_iter().map(|(_, k)| k).collect()
        }
    }

    /// Resident keys of the slab map, least recently used first.
    fn recency(lru: &Lru<u32, u32>) -> Vec<u32> {
        let mut keys = Vec::new();
        let mut slot = lru.tail;
        while slot != NIL {
            let (key, _) = lru.slots[slot].entry.as_ref().expect("linked slot");
            keys.push(**key);
            slot = lru.slots[slot].prev;
        }
        keys
    }

    #[test]
    fn slab_lru_matches_the_min_tick_scan() {
        // Seeded mixed get/insert/insert_weighted sequences over small
        // key spaces (so re-inserts and hits are frequent), including a
        // disabled map, entry-capacity eviction, byte-budget eviction
        // and entries heavier than the whole budget.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for (capacity, byte_budget) in [
            (0, 0),
            (1, 0),
            (3, 0),
            (8, 0),
            (16, 100),
            (4, 50),
            (64, 300),
        ] {
            let mut lru: Lru<u32, u32> = Lru::with_byte_budget(capacity, byte_budget);
            let mut oracle = ScanLru {
                capacity,
                byte_budget,
                bytes: 0,
                evictions: 0,
                tick: 0,
                entries: HashMap::new(),
            };
            for op in 0..3_000u32 {
                let key = next(24) as u32;
                match next(3) {
                    0 => assert_eq!(lru.get(&key), oracle.get(&key), "get {key} at op {op}"),
                    1 => {
                        let evicted: Vec<u32> = lru.insert(key, op).keys().copied().collect();
                        assert_eq!(evicted, oracle.insert_weighted(key, op, 0), "op {op}");
                    }
                    _ => {
                        // Mostly budget-sized weights, sometimes one
                        // larger than the whole budget.
                        let weight = next(byte_budget.max(1) as u64 * 6 / 5 + 1) as usize;
                        let evicted = lru.insert_weighted(key, op, weight);
                        let evicted: Vec<u32> = evicted.keys().copied().collect();
                        assert_eq!(evicted, oracle.insert_weighted(key, op, weight), "op {op}");
                    }
                }
                assert_eq!(recency(&lru), oracle.recency(), "resident order at op {op}");
                assert_eq!(lru.len(), oracle.entries.len());
                assert_eq!(lru.bytes(), oracle.bytes);
                assert_eq!(lru.evictions(), oracle.evictions);
            }
        }
    }

    #[test]
    fn incremental_canonicalization_matches_one_shot() {
        // A Canonicalizer fed the prefix then the suffix — including a
        // reseed from the watermark slices in between, as SolveSession
        // does per flip — must produce byte-identical canonical output
        // to canonicalizing the whole conjunction at once.
        let mut pool = VarPool::new();
        let _pad = pool.fresh_str(); // skew raw indices
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let prefix = Formula::eq_concat(a, vec![Term::Var(b), Term::lit("x")]);
        let suffix = Formula::eq_lit(b, "y");
        let whole = Formula::and(vec![prefix.clone(), suffix.clone()]);
        let one_shot = canonical_query(&whole);

        let mut canon = Canonicalizer::new();
        let c_prefix = canon.formula(&prefix);
        let mut reseeded = Canonicalizer::seeded(canon.str_vars(), canon.bool_vars());
        let c_suffix = reseeded.formula(&suffix);
        let assembled = Formula::and(vec![c_prefix, c_suffix]);
        assert_eq!(assembled, one_shot.formula);
        assert_eq!(reseeded.str_vars(), one_shot.str_vars());
        assert_eq!(reseeded.bool_vars(), one_shot.bool_vars());
    }
}
