//! Query statistics, feeding the Table 8 reproduction.

use std::time::Duration;

/// Statistics for one solver query.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Wall-clock time spent in the query.
    pub duration: Duration,
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// Boolean branches explored.
    pub bool_branches: u64,
    /// Candidate words generated across all variables.
    pub candidates: u64,
    /// True when any enumeration was cut short by a limit (the query
    /// outcome can then be `Unknown` instead of `Unsat`).
    pub truncated: bool,
    /// Number of DFA products/complements built.
    pub dfas_built: u64,
    /// DFA states produced by subset constructions and boolean
    /// operations, before minimization.
    pub dfa_states_built: u64,
    /// DFA states remaining after the thresholded Hopcroft pass
    /// (equals `dfa_states_built` when minimization is disabled).
    pub states_after_minimize: u64,
    /// Conjunctions refuted by the length-abstraction pass before any
    /// word search started.
    pub length_prunes: u64,
    /// DFA-cache lookups (compiled regexes, exact words, folded
    /// products) served from resident entries — shared-table reuse
    /// when the solver holds session [`crate::DfaTables`].
    pub dfa_cache_hits: u64,
    /// Assumption-stack frames whose canonical form was reused from a
    /// [`crate::session::SolveSession`] when assembling this query —
    /// prefix work the query did *not* repeat.
    pub prefix_reuse_hits: u64,
}

impl SolveStats {
    /// Merges another query's statistics into this one (used by the
    /// per-package aggregation of Table 8).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.duration += other.duration;
        self.nodes += other.nodes;
        self.bool_branches += other.bool_branches;
        self.candidates += other.candidates;
        self.truncated |= other.truncated;
        self.dfas_built += other.dfas_built;
        self.dfa_states_built += other.dfa_states_built;
        self.states_after_minimize += other.states_after_minimize;
        self.length_prunes += other.length_prunes;
        self.dfa_cache_hits += other.dfa_cache_hits;
        self.prefix_reuse_hits += other.prefix_reuse_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = SolveStats {
            nodes: 10,
            candidates: 5,
            ..SolveStats::default()
        };
        let b = SolveStats {
            nodes: 7,
            truncated: true,
            dfa_cache_hits: 2,
            prefix_reuse_hits: 1,
            ..SolveStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.nodes, 17);
        assert!(a.truncated);
        assert_eq!(a.candidates, 5);
        assert_eq!(a.dfa_cache_hits, 2);
        assert_eq!(a.prefix_reuse_hits, 1);
    }
}
