//! The engine's shared cache set.
//!
//! One [`DseCaches`] instance is shared by every flip query of a DSE
//! run — and, via [`crate::sched::Scheduler`] and
//! [`crate::batch::BatchOptions`], across all jobs of a session: the model
//! cache amortizes regex→SMT model construction, the verdict cache
//! replays whole validated CEGAR runs (child traces share their path
//! prefix with the parent, so the prefix flip queries repeat verbatim),
//! and a [`DseCaches::session`] set additionally shares the solver's DFA
//! intern tables so a regex determinized for one job is free for every
//! other. All three layers are verdict-preserving: a hit returns
//! exactly what a fresh build/solve would (see
//! `tests/cache_differential.rs`), so sharing never perturbs the
//! reproduced tables.

use std::sync::Arc;

use expose_core::cache::ModelCache;
use expose_core::cegar::CegarCache;
use strsolve::DfaTables;

use crate::engine::EngineConfig;

/// The shared caches of a DSE run (cheap to clone; clones share state).
#[derive(Debug, Clone)]
pub struct DseCaches {
    /// Regex → built Algorithm 2 model, shared across queries/traces.
    pub model: Arc<ModelCache>,
    /// Canonical CEGAR problem → whole validated refinement run,
    /// consulted by every flip (child traces re-pose their parent's
    /// prefix flips verbatim, so entire refinement chains replay across
    /// traces).
    pub verdicts: Arc<CegarCache>,
    /// Session-scoped DFA intern tables. `None` (the single-run
    /// default) leaves each solver its private tables; a scheduler
    /// session shares one instance across every shard so a regex
    /// determinized for one job is free for all others.
    pub dfa: Option<DfaTables>,
}

/// A session-scoped cache set: the name under which scheduler shards
/// and the job service share one [`DseCaches`] (models, verdicts, and
/// DFA intern tables) across every job of a session. Construct with
/// [`DseCaches::session`].
pub type CacheSet = DseCaches;

impl DseCaches {
    /// Creates a cache set with the given capacities (`0` disables the
    /// respective cache). The DFA tables stay solver-private.
    pub fn new(model_capacity: usize, verdict_capacity: usize) -> DseCaches {
        DseCaches {
            model: Arc::new(ModelCache::new(model_capacity)),
            verdicts: Arc::new(CegarCache::new(verdict_capacity)),
            dfa: None,
        }
    }

    /// Creates a session cache set: models, verdicts, *and* DFA intern
    /// tables shared by every run handed this set. `dfa_capacity` is
    /// the per-index capacity of the shared tables (`0` keeps lookups
    /// always-missing, matching a disabled solver-private cache).
    pub fn session(
        model_capacity: usize,
        verdict_capacity: usize,
        dfa_capacity: usize,
    ) -> DseCaches {
        DseCaches::session_with_byte_budget(model_capacity, verdict_capacity, dfa_capacity, 0)
    }

    /// A session cache set whose model and verdict caches are each
    /// additionally bounded by an approximate byte budget (`0` =
    /// unlimited) — used by long-lived `expose-serve` sessions so
    /// resident cached state cannot grow without bound.
    pub fn session_with_byte_budget(
        model_capacity: usize,
        verdict_capacity: usize,
        dfa_capacity: usize,
        byte_budget: usize,
    ) -> DseCaches {
        DseCaches {
            model: Arc::new(ModelCache::with_byte_budget(model_capacity, byte_budget)),
            verdicts: Arc::new(CegarCache::with_byte_budget(verdict_capacity, byte_budget)),
            dfa: Some(DfaTables::new(dfa_capacity)),
        }
    }

    /// A cache set sized from an engine configuration.
    pub fn from_config(config: &EngineConfig) -> DseCaches {
        DseCaches::new(config.model_cache_capacity, config.query_cache_capacity)
    }

    /// A session cache set sized from an engine configuration (the DFA
    /// tables take the solver's `dfa_cache_capacity`).
    pub fn session_from_config(config: &EngineConfig) -> DseCaches {
        DseCaches::session(
            config.model_cache_capacity,
            config.query_cache_capacity,
            config.solver.dfa_cache_capacity,
        )
    }

    /// A cache set whose model and verdict caches are disabled (every
    /// lookup misses and stores nothing). With `dfa: None`, each solver
    /// still keeps a private DFA cache of
    /// [`strsolve::SolverConfig::dfa_cache_capacity`] entries per index;
    /// set that capacity to `0` as well for a fully uncached run, as
    /// the perf harness's baseline does.
    pub fn disabled() -> DseCaches {
        DseCaches::new(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let caches = DseCaches::new(8, 8);
        let clone = caches.clone();
        assert!(Arc::ptr_eq(&caches.model, &clone.model));
        assert!(Arc::ptr_eq(&caches.verdicts, &clone.verdicts));
    }

    #[test]
    fn session_set_carries_shared_dfa_tables() {
        let caches = DseCaches::session(8, 8, 16);
        let tables = caches.dfa.as_ref().expect("session tables");
        // The totals span four indexes of 16 entries each.
        let stats = tables.stats();
        assert_eq!((stats.capacity, stats.entries), (4 * 16, 0));
        // Plain sets keep solver-private tables.
        assert!(DseCaches::new(8, 8).dfa.is_none());
    }

    #[test]
    fn disabled_set_is_empty_capacity() {
        let caches = DseCaches::disabled();
        for stats in [caches.model.stats(), caches.verdicts.stats()] {
            assert_eq!((stats.capacity, stats.entries), (0, 0));
        }
    }
}
