//! Solver resource limits.

/// Resource limits for one [`crate::Solver::solve`] call.
///
/// The solver is a bounded decision procedure: within the limits it is
/// refutation-sound (UNSAT answers are definite) and model-sound (SAT
/// models satisfy the formula); when a limit is hit it answers
/// [`crate::Outcome::Unknown`], which the DSE layer treats like an SMT
/// solver timeout (§5.3 of the paper).
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum candidate word length per variable, in characters.
    pub max_word_len: usize,
    /// Maximum candidate words enumerated per variable per search node.
    pub max_candidates_per_var: usize,
    /// Global budget of search-tree nodes across the whole query.
    pub max_nodes: u64,
    /// Maximum boolean (disjunction) branches explored.
    pub max_bool_branches: u64,
    /// Capacity of the per-solver compiled-DFA cache (`0` disables
    /// it). Purely an amortization knob: determinizing the same regex
    /// under the same alphabet always yields the same DFA, so this
    /// never affects verdicts (and is therefore *not* part of
    /// [`SolverConfig::fingerprint`]).
    pub dfa_cache_capacity: usize,
    /// Minimize (Hopcroft) constraint DFAs with at least this many
    /// states after every boolean operation and subset construction.
    /// `0` selects the seed's *eager* pipeline wholesale: no
    /// minimization, no canonical interning, and no lazy
    /// product-avoidance for pinned variables. Neither mode changes
    /// any accepted language — the candidate enumeration is a pure
    /// function of the languages involved — so this is an amortization
    /// knob, not part of the fingerprint.
    pub minimize_threshold: usize,
    /// Enable the length-abstraction pass: `[lo, hi]` accepted-length
    /// intervals from each constraint DFA are propagated through
    /// concat equations as integer arithmetic, failing doomed
    /// conjunctions before any word search and bounding per-variable
    /// candidate lengths. The pass only ever removes words that cannot
    /// appear in any solution, but by pruning early it can upgrade a
    /// budget-bound `Unknown` to a definite `Unsat` — so it *is* part
    /// of [`SolverConfig::fingerprint`].
    pub length_abstraction: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            max_word_len: 24,
            max_candidates_per_var: 64,
            max_nodes: 100_000,
            max_bool_branches: 4_096,
            dfa_cache_capacity: 512,
            minimize_threshold: 8,
            length_abstraction: true,
        }
    }
}

impl SolverConfig {
    /// A stable fingerprint of the limits, used as part of the result
    /// cache key: a cached verdict (including `Unknown`, which encodes
    /// budget exhaustion) is only valid under identical limits.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        // Exhaustive destructuring: adding a field fails compilation
        // here, forcing a decision on whether it affects verdicts
        // (hash it) or is a pure amortization knob (bind it to `_`).
        let SolverConfig {
            max_word_len,
            max_candidates_per_var,
            max_nodes,
            max_bool_branches,
            dfa_cache_capacity: _,
            minimize_threshold: _,
            length_abstraction,
        } = self;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        (
            max_word_len,
            max_candidates_per_var,
            max_nodes,
            max_bool_branches,
            length_abstraction,
        )
            .hash(&mut hasher);
        hasher.finish()
    }

    /// A small-budget configuration for latency-sensitive callers.
    pub fn fast() -> SolverConfig {
        SolverConfig {
            max_word_len: 12,
            max_candidates_per_var: 128,
            max_nodes: 10_000,
            max_bool_branches: 512,
            ..SolverConfig::default()
        }
    }

    /// A generous configuration for offline experiments.
    pub fn thorough() -> SolverConfig {
        SolverConfig {
            max_word_len: 48,
            max_candidates_per_var: 4_096,
            max_nodes: 1_000_000,
            max_bool_branches: 65_536,
            ..SolverConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_limits() {
        assert_eq!(
            SolverConfig::default().fingerprint(),
            SolverConfig::default().fingerprint()
        );
        assert_ne!(
            SolverConfig::default().fingerprint(),
            SolverConfig::fast().fingerprint()
        );
    }

    #[test]
    fn presets_are_ordered() {
        let fast = SolverConfig::fast();
        let default = SolverConfig::default();
        let thorough = SolverConfig::thorough();
        assert!(fast.max_nodes < default.max_nodes);
        assert!(default.max_nodes < thorough.max_nodes);
    }
}
