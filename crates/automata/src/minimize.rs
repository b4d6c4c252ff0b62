//! DFA minimization (Hopcroft partition refinement) and accepted-word
//! length bounds.
//!
//! [`Dfa::minimized`] produces the unique minimal complete DFA of the
//! language, numbered canonically (breadth-first from the start state
//! in class order). Canonical numbering means two language-equal DFAs
//! minimize to *byte-identical* transition tables, which the solver's
//! DFA cache exploits to intern structurally different but
//! language-equal regexes into one entry.
//!
//! [`Dfa::length_bounds`] reads the minimum accepted length off the
//! existing distance metadata and detects accepting cycles to decide
//! whether a maximum exists; when the language is finite the maximum is
//! the longest path through the (then acyclic) live subgraph.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::alphabet::ClassId;
use crate::build::with_scratch;
use crate::dfa::Dfa;

/// Inclusive bounds on the lengths of a DFA's accepted words; see
/// [`Dfa::length_bounds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LengthBounds {
    /// Length of the shortest accepted word.
    pub min: usize,
    /// Length of the longest accepted word, or `None` when the
    /// language is infinite (an accepting cycle exists).
    pub max: Option<usize>,
}

impl Dfa {
    /// The unique minimal complete DFA of this language, canonically
    /// numbered (BFS from the start state in class order). Dead and
    /// unreachable states are trimmed as a side effect: unreachable
    /// states are dropped before refinement and all dead states merge
    /// into one rejecting sink.
    ///
    /// Minimization never changes the accepted language, and because
    /// the numbering is canonical, any two language-equal inputs yield
    /// identical outputs:
    ///
    /// ```
    /// use automata::{Alphabet, CharSet, CRegex, Dfa};
    /// use std::sync::Arc;
    ///
    /// let alphabet = Arc::new(Alphabet::from_sets(&[CharSet::single('a')]));
    /// // (a|aa)(a)* and a+ denote the same language.
    /// let verbose = CRegex::concat(vec![
    ///     CRegex::alt(vec![CRegex::lit("a"), CRegex::lit("aa")]),
    ///     CRegex::star(CRegex::lit("a")),
    /// ]);
    /// let d1 = Dfa::from_cregex(&verbose, &alphabet).minimized();
    /// let d2 = Dfa::from_cregex(&CRegex::plus(CRegex::lit("a")), &alphabet).minimized();
    /// assert_eq!(d1.state_count(), d2.state_count());
    /// assert!(d1.contains("aaa") && !d1.contains(""));
    /// ```
    pub fn minimized(&self) -> Dfa {
        let (transitions, accepting) = with_scratch(|s| s.minimize(self));
        Dfa::from_parts(
            transitions,
            accepting,
            0,
            self.class_count,
            Arc::clone(&self.alphabet),
        )
    }

    /// Inclusive bounds on the lengths of accepted words, or `None`
    /// when the language is empty.
    ///
    /// The minimum is the start state's distance-to-accept (already
    /// maintained for dead-state pruning); the maximum is `None` when
    /// an accepting cycle exists ([`Dfa::is_infinite`], which reads the
    /// same distance metadata), and otherwise the longest path through
    /// the live subgraph, which is acyclic in the finite case.
    ///
    /// ```
    /// use automata::{Alphabet, Dfa, LengthBounds};
    /// use std::sync::Arc;
    ///
    /// let dfa = |s: &str| {
    ///     let re = regex_syntax_es6::parse(s).unwrap();
    ///     let re = automata::compile_classical(&re, &Default::default()).unwrap();
    ///     let mut sets = Vec::new();
    ///     re.collect_sets(&mut sets);
    ///     Dfa::from_cregex(&re, &Arc::new(Alphabet::from_sets(&sets)))
    /// };
    /// assert_eq!(
    ///     dfa("a{2,5}").length_bounds(),
    ///     Some(LengthBounds { min: 2, max: Some(5) })
    /// );
    /// assert_eq!(
    ///     dfa("ab+").length_bounds(),
    ///     Some(LengthBounds { min: 2, max: None })
    /// );
    /// ```
    pub fn length_bounds(&self) -> Option<LengthBounds> {
        *self.bounds.get_or_init(|| self.compute_length_bounds())
    }

    fn compute_length_bounds(&self) -> Option<LengthBounds> {
        let min = self.distance_to_accept(self.start_state())? as usize;
        if self.is_infinite() {
            return Some(LengthBounds { min, max: None });
        }
        // Finite language: the subgraph of live states reachable from
        // the start is acyclic (a live cycle would make it infinite).
        // Longest accepted length = longest path from the start to an
        // accepting state, by DP in reverse topological order.
        let n = self.state_count();
        let live = |s: u32| self.distance_to_accept(s).is_some();
        let mut in_graph = vec![false; n];
        let mut nodes: Vec<u32> = Vec::new();
        {
            let mut queue = VecDeque::new();
            in_graph[self.start_state() as usize] = true;
            nodes.push(self.start_state());
            queue.push_back(self.start_state());
            while let Some(s) = queue.pop_front() {
                for class in 0..self.class_count {
                    let t = self.step(s, class as ClassId);
                    if live(t) && !in_graph[t as usize] {
                        in_graph[t as usize] = true;
                        nodes.push(t);
                        queue.push_back(t);
                    }
                }
            }
        }
        // Kahn's algorithm for a topological order of the live
        // subgraph (counting parallel edges uniformly is fine — each
        // decrements what it incremented).
        let mut indegree: Vec<u32> = vec![0; n];
        for &s in &nodes {
            for class in 0..self.class_count {
                let t = self.step(s, class as ClassId);
                if in_graph[t as usize] {
                    indegree[t as usize] += 1;
                }
            }
        }
        let mut topo: Vec<u32> = Vec::with_capacity(nodes.len());
        let mut queue: VecDeque<u32> = nodes
            .iter()
            .copied()
            .filter(|&s| indegree[s as usize] == 0)
            .collect();
        while let Some(s) = queue.pop_front() {
            topo.push(s);
            for class in 0..self.class_count {
                let t = self.step(s, class as ClassId);
                if in_graph[t as usize] {
                    indegree[t as usize] -= 1;
                    if indegree[t as usize] == 0 {
                        queue.push_back(t);
                    }
                }
            }
        }
        debug_assert_eq!(topo.len(), nodes.len(), "finite live subgraph is acyclic");
        // longest[s] = longest accepted word length starting at s.
        let mut longest: Vec<usize> = vec![0; n];
        for &s in topo.iter().rev() {
            let mut best = 0usize;
            for class in 0..self.class_count {
                let t = self.step(s, class as ClassId);
                if in_graph[t as usize] {
                    best = best.max(1 + longest[t as usize]);
                }
            }
            longest[s as usize] = best;
        }
        Some(LengthBounds {
            min,
            max: Some(longest[self.start_state() as usize]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::cregex::{compile_classical, CompileOptions};

    fn dfa(pattern: &str) -> Dfa {
        let ast = regex_syntax_es6::parse(pattern).expect("parse");
        let re = compile_classical(&ast, &CompileOptions::default()).expect("classical");
        let mut sets = Vec::new();
        re.collect_sets(&mut sets);
        let alphabet = Arc::new(Alphabet::from_sets(&sets));
        Dfa::from_cregex(&re, &alphabet)
    }

    #[test]
    fn minimization_preserves_language() {
        let d = dfa("(a|b)*abb");
        let m = d.minimized();
        assert!(m.state_count() <= d.state_count());
        for w in ["abb", "aabb", "babb", "abab", "", "abbb"] {
            assert_eq!(d.contains(w), m.contains(w), "word {w:?}");
        }
    }

    #[test]
    fn minimization_merges_equivalent_states() {
        // a|b over the same alphabet class collapses to a 3-state
        // minimal DFA (start, accept, dead).
        let d = dfa("[ab]");
        let m = d.minimized();
        assert!(m.state_count() <= 3);
        assert!(m.contains("a") && m.contains("b") && !m.contains("ab"));
    }

    #[test]
    fn canonical_form_is_language_determined() {
        // Structurally different, language-equal regexes minimize to
        // identical automata.
        let d1 = dfa("a(a)*").minimized();
        let d2 = dfa("(a)*a").minimized();
        assert_eq!(d1.state_count(), d2.state_count());
        assert_eq!(d1.canonical_key(), d2.canonical_key());
    }

    #[test]
    fn minimized_empty_language_is_single_dead_state() {
        let d = dfa("a").intersect(&dfa("a").complement());
        let m = d.minimized();
        assert_eq!(m.state_count(), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn minimized_universal_is_single_state() {
        let alphabet = Arc::new(Alphabet::from_sets(&[crate::charset::CharSet::single('x')]));
        let m = Dfa::universal(&alphabet).minimized();
        assert_eq!(m.state_count(), 1);
        assert!(m.contains("") && m.contains("xxx"));
    }

    #[test]
    fn length_bounds_exact_repetition() {
        assert_eq!(
            dfa("a{2,5}").length_bounds(),
            Some(LengthBounds {
                min: 2,
                max: Some(5)
            })
        );
    }

    #[test]
    fn length_bounds_unbounded() {
        assert_eq!(
            dfa("goo+d").length_bounds(),
            Some(LengthBounds { min: 4, max: None })
        );
    }

    #[test]
    fn length_bounds_empty_language() {
        let never = dfa("a").intersect(&dfa("a").complement());
        assert_eq!(never.length_bounds(), None);
    }

    #[test]
    fn length_bounds_alternation() {
        assert_eq!(
            dfa("a|bb|ccc").length_bounds(),
            Some(LengthBounds {
                min: 1,
                max: Some(3)
            })
        );
    }

    #[test]
    fn length_bounds_epsilon() {
        assert_eq!(
            dfa("(a)?").length_bounds(),
            Some(LengthBounds {
                min: 0,
                max: Some(1)
            })
        );
    }

    #[test]
    fn length_bounds_survive_minimization() {
        let d = dfa("(ab){1,3}c?");
        assert_eq!(d.length_bounds(), d.minimized().length_bounds());
    }
}
