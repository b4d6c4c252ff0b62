//! Construction-pipeline tuning knobs and build metrics.

/// Tuning knobs for the DFA construction pipeline.
///
/// The automata layer can [`minimize`](crate::Dfa::minimized) the
/// result of every subset construction and boolean operation, keeping
/// intermediate products small at the cost of a Hopcroft pass per
/// operation. Minimization never changes the accepted language, so
/// these knobs are pure space/time trade-offs — callers that need the
/// raw eager construction (e.g. differential oracles) use
/// [`AutomataConfig::disabled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutomataConfig {
    /// Minimize the result of a subset construction or boolean
    /// operation when it has at least this many states; results below
    /// the threshold are kept as built (a Hopcroft pass on a handful
    /// of states costs more than it saves). `0` disables minimization
    /// entirely.
    pub minimize_threshold: usize,
}

impl Default for AutomataConfig {
    fn default() -> AutomataConfig {
        AutomataConfig {
            minimize_threshold: 8,
        }
    }
}

impl AutomataConfig {
    /// A configuration that never minimizes — the eager pipeline
    /// exactly as the seed reproduction built it.
    pub fn disabled() -> AutomataConfig {
        AutomataConfig {
            minimize_threshold: 0,
        }
    }

    /// A configuration that minimizes every result with at least
    /// `states` states.
    pub const fn minimizing_from(states: usize) -> AutomataConfig {
        AutomataConfig {
            minimize_threshold: states,
        }
    }

    /// True when `states` is large enough to be worth a Hopcroft pass.
    pub fn should_minimize(&self, states: usize) -> bool {
        self.minimize_threshold > 0 && states >= self.minimize_threshold
    }
}

/// Counters describing the automata built during one compilation.
///
/// `states_built` accumulates the state counts of every intermediate
/// automaton as constructed; `states_after_minimize` accumulates the
/// counts after the (thresholded) minimization pass. The ratio of the
/// two is the shrink factor the pipeline achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildMetrics {
    /// Total DFA states produced by subset constructions and boolean
    /// operations, before minimization.
    pub states_built: u64,
    /// Total DFA states remaining after the thresholded minimization
    /// pass (equal to `states_built` when minimization is disabled).
    pub states_after_minimize: u64,
}

impl BuildMetrics {
    /// Merges another compilation's counters into this one.
    pub fn absorb(&mut self, other: &BuildMetrics) {
        self.states_built += other.states_built;
        self.states_after_minimize += other.states_after_minimize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_gates_minimization() {
        let cfg = AutomataConfig {
            minimize_threshold: 8,
        };
        assert!(!cfg.should_minimize(7));
        assert!(cfg.should_minimize(8));
        assert!(!AutomataConfig::disabled().should_minimize(1_000_000));
    }

    #[test]
    fn metrics_absorb() {
        let mut a = BuildMetrics {
            states_built: 10,
            states_after_minimize: 4,
        };
        a.absorb(&BuildMetrics {
            states_built: 5,
            states_after_minimize: 5,
        });
        assert_eq!(a.states_built, 15);
        assert_eq!(a.states_after_minimize, 9);
    }
}
