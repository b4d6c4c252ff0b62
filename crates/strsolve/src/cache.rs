//! Building blocks for cross-query caches.
//!
//! DSE traces re-encounter near-identical path conditions thousands of
//! times: a child trace shares its path prefix with the parent, so the
//! flip queries along that prefix are *exactly* the queries the parent
//! already solved — up to variable numbering, which differs because
//! every query is built against a fresh [`crate::VarPool`]. The
//! [`canonical_query`] normal form (variables renumbered in
//! first-occurrence order) closes that gap, and [`Lru`] bounds the
//! resident entries. The caches built from them live upstream:
//! `expose_core::cache::ModelCache` (regex models) and
//! `expose_core::cegar::CegarCache` (whole validated CEGAR runs, keyed
//! by the canonical problem plus a [`crate::SolverConfig`] fingerprint).

use std::collections::HashMap;
use std::hash::Hash;

use crate::formula::{Atom, Formula};
use crate::vars::{BoolVar, StrVar, Term};

/// A capacity- and byte-bounded map with least-recently-used eviction.
///
/// Recency is tracked with a monotonic tick; eviction scans for the
/// minimum (capacities are small and evictions rare, so the linear scan
/// beats the bookkeeping of an intrusive list). A capacity of `0`
/// disables the map: inserts are dropped and lookups always miss.
///
/// Besides the entry-count capacity, a map can carry an *approximate
/// byte budget* ([`Lru::with_byte_budget`]): entries inserted through
/// [`Lru::insert_weighted`] declare an approximate resident size, and
/// eviction also runs while the weighted total exceeds the budget —
/// the backstop that keeps long-lived session caches (models, verdicts,
/// automata) from growing without bound on entry counts alone.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    byte_budget: usize,
    bytes: usize,
    evictions: u64,
    tick: u64,
    entries: HashMap<K, (V, u64, usize)>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
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
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured byte budget (`0` = unlimited).
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
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
        self.entries.len()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a key, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(value, last, _)| {
            *last = tick;
            &*value
        })
    }

    /// Inserts an entry with zero weight (entry-count bounding only).
    pub fn insert(&mut self, key: K, value: V) {
        self.insert_weighted(key, value, 0);
    }

    /// Inserts an entry weighing approximately `weight` bytes, evicting
    /// least-recently-used entries while over the entry capacity or the
    /// byte budget. No-op when the capacity is `0`.
    pub fn insert_weighted(&mut self, key: K, value: V, weight: usize) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((_, _, old)) = self.entries.remove(&key) {
            self.bytes -= old;
        }
        self.entries.insert(key, (value, self.tick, weight));
        self.bytes += weight;
        // The fresh entry carries the maximal tick, so it is evicted
        // only when it alone exceeds the budget — an oversized entry is
        // not retained.
        while self.entries.len() > self.capacity
            || (self.byte_budget > 0 && self.bytes > self.byte_budget)
        {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last, _))| *last)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some((_, _, w)) = self.entries.remove(&oldest) {
                self.bytes -= w;
                self.evictions += 1;
            }
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
/// back to the original variables.
#[derive(Debug, Clone)]
pub struct CanonicalQuery {
    /// The renumbered formula (the cache key, together with the solver
    /// fingerprint).
    pub formula: Formula,
    pub(crate) canon: Canonicalizer,
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

    /// A clone of the renumbering state, for callers that need to
    /// extend the canonical space deterministically beyond the
    /// formula's own variables.
    pub fn canonicalizer(&self) -> Canonicalizer {
        self.canon.clone()
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
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert_eq!(lru.get(&1), Some(&"one")); // refresh 1
        lru.insert(3, "three"); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&"one"));
        assert_eq!(lru.get(&3), Some(&"three"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut lru: Lru<u32, &str> = Lru::new(0);
        lru.insert(1, "one");
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn byte_budget_evicts_weighted_entries() {
        let mut lru: Lru<u32, &str> = Lru::with_byte_budget(16, 100);
        lru.insert_weighted(1, "one", 60);
        assert_eq!(lru.bytes(), 60);
        lru.insert_weighted(2, "two", 60); // 120 > 100 → evicts 1
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.get(&2), Some(&"two"));
        assert_eq!(lru.bytes(), 60);
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn oversized_entry_is_not_retained() {
        let mut lru: Lru<u32, &str> = Lru::with_byte_budget(16, 100);
        lru.insert_weighted(1, "big", 200);
        assert!(lru.is_empty());
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn replacing_an_entry_updates_bytes() {
        let mut lru: Lru<u32, &str> = Lru::with_byte_budget(16, 100);
        lru.insert_weighted(1, "one", 40);
        lru.insert_weighted(1, "uno", 70);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.bytes(), 70);
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn incremental_canonicalization_matches_one_shot() {
        // A Canonicalizer fed the prefix then the suffix — including a
        // reseed from the watermark slices in between, as SolveSession
        // does per flip — must produce byte-identical canonical output
        // to canonicalizing the whole conjunction at once.
        let mut pool = VarPool::new();
        let _pad = pool.fresh_str("pad"); // skew raw indices
        let a = pool.fresh_str("a");
        let b = pool.fresh_str("b");
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
