//! Cross-query regex model caching.
//!
//! Building an Algorithm 2 model ([`crate::api::build_match_model`]) is
//! pure recursion over the regex AST — expensive for patterns with
//! quantifier expansion, and repeated endlessly by DSE: every trace of
//! a program applies the *same* regexes, and every clause flip along a
//! trace rebuilds their models from scratch. [`ModelCache`] builds each
//! distinct `(pattern, flags, polarity, support level, build config)`
//! combination once, against a private [`VarPool`], and *rebases* the
//! cached constraint into each asking query's pool by offsetting its
//! variables ([`strsolve::VarPool::absorb`] +
//! [`CapturingConstraint::offset_vars`]).
//!
//! Rebasing makes a hit observationally identical to a fresh build:
//! `build_match_model` allocates pool variables strictly sequentially,
//! so shifting the privately-built model by the asking pool's current
//! size yields exactly the constraint a direct build would have
//! produced (the differential tests in `tests/cache_differential.rs`
//! assert formula-level equality).
//!
//! The cache is a [`SharedLru`]: it locks, counts, bounds and evicts
//! like every other shared cache, and reports one
//! [`strsolve::CacheStats`] snapshot.

use std::sync::Arc;

use regex_syntax_es6::{Flags, Regex};
use strsolve::{CacheStats, SharedLru, VarPool};

use crate::api::{build_match_model, CapturingConstraint};
use crate::config::SupportLevel;
use crate::model::BuildConfig;

/// The cache key: everything the built model depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ModelKey {
    /// The pattern source text.
    source: String,
    /// The flag set, packed.
    flags: u8,
    /// Match (`∈`) or non-match (`∉`) polarity.
    positive: bool,
    /// The support level the query runs under (kept in the key so an
    /// engine comparing levels side by side never shares entries
    /// across them).
    support: SupportLevel,
    /// [`BuildConfig::fingerprint`].
    build: u64,
}

pub(crate) fn pack_flags(flags: Flags) -> u8 {
    u8::from(flags.global)
        | u8::from(flags.ignore_case) << 1
        | u8::from(flags.multiline) << 2
        | u8::from(flags.dot_all) << 3
        | u8::from(flags.unicode) << 4
        | u8::from(flags.sticky) << 5
}

/// A cached model: the constraint plus the private pool it was built
/// against (absorbed into the asking pool on every use).
#[derive(Debug)]
struct Entry {
    pool: VarPool,
    constraint: CapturingConstraint,
}

/// A shared, thread-safe, capacity-bounded cache of built regex models,
/// shared across queries, traces, and batch jobs.
///
/// # Examples
///
/// ```
/// use expose_core::{cache::ModelCache, model::BuildConfig, SupportLevel};
/// use regex_syntax_es6::Regex;
/// use strsolve::VarPool;
///
/// let cache = ModelCache::new(64);
/// let regex = Regex::parse_literal("/^a+(b)?$/")?;
/// let cfg = BuildConfig::default();
/// let mut pool = VarPool::new();
/// let (first, hit1) =
///     cache.get_or_build(&regex, true, SupportLevel::Refinement, &mut pool, &cfg);
/// let (second, hit2) =
///     cache.get_or_build(&regex, true, SupportLevel::Refinement, &mut pool, &cfg);
/// assert!(!hit1 && hit2);
/// // Distinct uses get distinct variables, same structure.
/// assert_ne!(first.input, second.input);
/// # Ok::<(), regex_syntax_es6::ParseError>(())
/// ```
#[derive(Debug)]
pub struct ModelCache {
    entries: SharedLru<ModelKey, Arc<Entry>>,
}

impl ModelCache {
    /// Creates a cache holding at most `capacity` built models
    /// (`0` disables caching; lookups then always build fresh).
    pub fn new(capacity: usize) -> ModelCache {
        ModelCache::with_byte_budget(capacity, 0)
    }

    /// Creates a cache additionally bounded by an approximate byte
    /// budget over resident models (`0` = unlimited) — the backstop for
    /// long-lived service sessions whose entry count alone would let
    /// large models accumulate.
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> ModelCache {
        ModelCache {
            entries: SharedLru::new(capacity, byte_budget),
        }
    }

    /// Returns the Algorithm 2 model for `regex` with the given
    /// polarity, rebased into `pool`, building and caching it on a
    /// miss. The boolean is `true` on a cache hit.
    pub fn get_or_build(
        &self,
        regex: &Regex,
        positive: bool,
        support: SupportLevel,
        pool: &mut VarPool,
        cfg: &BuildConfig,
    ) -> (CapturingConstraint, bool) {
        let key = ModelKey {
            source: regex.source.clone(),
            flags: pack_flags(regex.flags),
            positive,
            support,
            build: cfg.fingerprint(),
        };
        if let Some(entry) = self.entries.get(&key) {
            let (s, b) = pool.absorb(&entry.pool);
            return (entry.constraint.offset_vars(s, b), true);
        }

        let mut private = VarPool::new();
        let constraint = build_match_model(regex, positive, &mut private, cfg);
        let (s, b) = pool.absorb(&private);
        let rebased = constraint.offset_vars(s, b);
        // Approximate resident size: the model formula dominates; pool
        // variable names and the pattern source are counted coarsely.
        let weight = constraint.formula.approx_bytes()
            + key.source.len()
            + (private.str_count() + private.bool_count()) * 24;
        self.entries.insert(
            key,
            Arc::new(Entry {
                pool: private,
                constraint,
            }),
            weight,
        );
        (rebased, false)
    }

    /// The cache's counters: hits, misses, resident models and bytes,
    /// evictions, and the configured bounds.
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsolve::Solver;

    fn regex(literal: &str) -> Regex {
        Regex::parse_literal(literal).expect("literal")
    }

    #[test]
    fn hit_is_identical_to_fresh_build() {
        let cache = ModelCache::new(16);
        let re = regex("/^<([a-z]+)>$/");
        let cfg = BuildConfig::default();

        // Prime the cache from one pool.
        let mut warm = VarPool::new();
        cache.get_or_build(&re, true, SupportLevel::Refinement, &mut warm, &cfg);

        // A hit from a second pool must equal a direct build into an
        // identically-sized pool, formula and variables included.
        let mut pool_hit = VarPool::new();
        pool_hit.fresh_str();
        let (from_cache, hit) =
            cache.get_or_build(&re, true, SupportLevel::Refinement, &mut pool_hit, &cfg);
        assert!(hit);

        let mut pool_fresh = VarPool::new();
        pool_fresh.fresh_str();
        let fresh = build_match_model(&re, true, &mut pool_fresh, &cfg);
        assert_eq!(from_cache.formula, fresh.formula);
        assert_eq!(from_cache.input, fresh.input);
        assert_eq!(from_cache.wrapped, fresh.wrapped);
        assert_eq!(from_cache.captures, fresh.captures);
        assert_eq!(pool_hit.str_count(), pool_fresh.str_count());
        assert_eq!(pool_hit.bool_count(), pool_fresh.bool_count());
    }

    #[test]
    fn polarity_and_flags_split_entries() {
        let cache = ModelCache::new(16);
        let cfg = BuildConfig::default();
        let mut pool = VarPool::new();
        cache.get_or_build(
            &regex("/a+/"),
            true,
            SupportLevel::Refinement,
            &mut pool,
            &cfg,
        );
        cache.get_or_build(
            &regex("/a+/"),
            false,
            SupportLevel::Refinement,
            &mut pool,
            &cfg,
        );
        cache.get_or_build(
            &regex("/a+/i"),
            true,
            SupportLevel::Refinement,
            &mut pool,
            &cfg,
        );
        cache.get_or_build(
            &regex("/a+/"),
            true,
            SupportLevel::Captures,
            &mut pool,
            &cfg,
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 4, 4));
    }

    #[test]
    fn byte_budget_bounds_resident_models() {
        let unbounded = ModelCache::new(64);
        let cfg = BuildConfig::default();
        let mut pool = VarPool::new();
        let patterns: Vec<String> = (0..6).map(|i| format!("/^[a-z]+[0-9]+x{i}$/")).collect();
        for p in &patterns {
            unbounded.get_or_build(&regex(p), true, SupportLevel::Refinement, &mut pool, &cfg);
        }
        assert_eq!(unbounded.stats().evictions, 0);
        // A budget that fits only part of the set must evict, and the
        // resident total must stay within it.
        let budget = unbounded.stats().bytes / 2;
        let bounded = ModelCache::with_byte_budget(64, budget);
        for p in &patterns {
            bounded.get_or_build(&regex(p), true, SupportLevel::Refinement, &mut pool, &cfg);
        }
        let stats = bounded.stats();
        assert!(stats.bytes <= budget);
        assert!(stats.evictions > 0);
        assert!(stats.entries < patterns.len());
    }

    #[test]
    fn zero_capacity_always_builds() {
        let cache = ModelCache::new(0);
        let cfg = BuildConfig::default();
        let mut pool = VarPool::new();
        let re = regex("/b+/");
        let (c1, h1) = cache.get_or_build(&re, true, SupportLevel::Refinement, &mut pool, &cfg);
        let (_c2, h2) = cache.get_or_build(&re, true, SupportLevel::Refinement, &mut pool, &cfg);
        assert!(!h1 && !h2);
        assert_eq!(cache.stats().entries, 0);
        // Still usable: the built model solves.
        let (outcome, _) = Solver::default().solve(&c1.formula);
        assert!(outcome.is_sat());
    }

    #[test]
    fn cached_model_survives_solving_from_two_pools() {
        let cache = ModelCache::new(16);
        let cfg = BuildConfig::default();
        let re = regex("/^go+d$/");
        for padding in [0usize, 7] {
            let mut pool = VarPool::new();
            for _ in 0..padding {
                pool.fresh_str();
            }
            let (c, _) = cache.get_or_build(&re, true, SupportLevel::Refinement, &mut pool, &cfg);
            let (outcome, _) = Solver::default().solve(&c.formula);
            let model = outcome.model().expect("sat");
            let input = model.get_str(c.input).expect("assigned");
            let mut oracle = es6_matcher::RegExp::from_regex(c.regex.clone());
            assert!(oracle.test(input), "witness {input:?} must match");
        }
        assert_eq!(cache.stats().hits, 1);
    }
}
