//! The reference Thompson NFA over a minterm alphabet, one `Vec` of
//! edges per state; re-exported by [`crate::oracle`].

use std::sync::Arc;

use crate::alphabet::{Alphabet, ClassId};
use crate::cregex::CRegex;
use crate::dfa::Dfa;
use crate::oracle;

/// State identifier within an [`Nfa`].
pub type StateId = u32;

/// One NFA state: class-labelled transitions plus ε-transitions.
#[derive(Debug, Clone, Default)]
pub struct NfaState {
    /// `(class, target)` transitions.
    pub transitions: Vec<(ClassId, StateId)>,
    /// ε-transitions.
    pub epsilon: Vec<StateId>,
}

/// A nondeterministic finite automaton with a single start and a single
/// accepting state (Thompson form).
#[derive(Debug, Clone)]
pub struct Nfa {
    /// All states.
    pub states: Vec<NfaState>,
    /// Start state.
    pub start: StateId,
    /// The unique accepting state.
    pub accept: StateId,
    /// Shared alphabet.
    pub alphabet: Arc<Alphabet>,
}

impl Nfa {
    /// Builds the Thompson NFA of a classical regex.
    ///
    /// `And`/`Not` subtrees are compiled through the reference DFA
    /// pipeline (product/complement) and re-embedded, so arbitrary combinations
    /// of boolean operations with concatenation and star are supported.
    pub fn thompson(re: &CRegex, alphabet: &Arc<Alphabet>) -> Nfa {
        let mut builder = Builder {
            states: Vec::new(),
            alphabet: Arc::clone(alphabet),
        };
        let (start, accept) = builder.build(re);
        Nfa {
            states: builder.states,
            start,
            accept,
            alphabet: Arc::clone(alphabet),
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the NFA has no states (never constructed by
    /// [`Nfa::thompson`], which always creates at least two).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// ε-closure of a set of states (sorted, deduplicated).
    pub fn epsilon_closure(&self, set: &mut Vec<StateId>) {
        let mut stack: Vec<StateId> = set.clone();
        while let Some(s) = stack.pop() {
            for &t in &self.states[s as usize].epsilon {
                if !set.contains(&t) {
                    set.push(t);
                    stack.push(t);
                }
            }
        }
        set.sort_unstable();
        set.dedup();
    }
}

struct Builder {
    states: Vec<NfaState>,
    alphabet: Arc<Alphabet>,
}

impl Builder {
    fn new_state(&mut self) -> StateId {
        self.states.push(NfaState::default());
        (self.states.len() - 1) as StateId
    }

    fn eps(&mut self, from: StateId, to: StateId) {
        self.states[from as usize].epsilon.push(to);
    }

    /// Returns `(start, accept)` of the fragment for `re`.
    fn build(&mut self, re: &CRegex) -> (StateId, StateId) {
        match re {
            CRegex::EmptySet => {
                let s = self.new_state();
                let a = self.new_state();
                (s, a) // no path from s to a
            }
            CRegex::Epsilon => {
                let s = self.new_state();
                let a = self.new_state();
                self.eps(s, a);
                (s, a)
            }
            CRegex::Set(set) => {
                let s = self.new_state();
                let a = self.new_state();
                let classes = oracle::classes_of(&self.alphabet, set);
                for class in classes {
                    self.states[s as usize].transitions.push((class, a));
                }
                (s, a)
            }
            CRegex::Concat(items) => {
                let mut current: Option<(StateId, StateId)> = None;
                for item in items {
                    let (s2, a2) = self.build(item);
                    current = Some(match current {
                        None => (s2, a2),
                        Some((s1, a1)) => {
                            self.eps(a1, s2);
                            (s1, a2)
                        }
                    });
                }
                current.unwrap_or_else(|| {
                    let s = self.new_state();
                    let a = self.new_state();
                    self.eps(s, a);
                    (s, a)
                })
            }
            CRegex::Alt(items) => {
                let s = self.new_state();
                let a = self.new_state();
                for item in items {
                    let (si, ai) = self.build(item);
                    self.eps(s, si);
                    self.eps(ai, a);
                }
                (s, a)
            }
            CRegex::Star(inner) => {
                let s = self.new_state();
                let a = self.new_state();
                let (si, ai) = self.build(inner);
                self.eps(s, si);
                self.eps(ai, si);
                self.eps(s, a);
                self.eps(ai, a);
                (s, a)
            }
            CRegex::And(_) | CRegex::Not(_) => {
                // Compile through the DFA layer, then embed.
                let dfa = oracle::from_cregex(re, &self.alphabet);
                self.embed_dfa(&dfa)
            }
        }
    }

    /// Embeds a DFA as a Thompson fragment.
    fn embed_dfa(&mut self, dfa: &Dfa) -> (StateId, StateId) {
        let offset = self.states.len() as StateId;
        for _ in 0..dfa.state_count() {
            self.new_state();
        }
        let accept = self.new_state();
        let classes = self.alphabet.class_count();
        for state in 0..dfa.state_count() {
            for class in 0..classes {
                let next = dfa.step(state as u32, class as ClassId);
                self.states[(offset + state as StateId) as usize]
                    .transitions
                    .push((class as ClassId, offset + next));
            }
            if dfa.is_accepting(state as u32) {
                self.eps(offset + state as StateId, accept);
            }
        }
        (offset + dfa.start_state(), accept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charset::CharSet;

    fn alpha_for(re: &CRegex) -> Arc<Alphabet> {
        let mut sets = Vec::new();
        re.collect_sets(&mut sets);
        Arc::new(Alphabet::from_sets(&sets))
    }

    #[test]
    fn thompson_literal() {
        let re = CRegex::lit("ab");
        let nfa = Nfa::thompson(&re, &alpha_for(&re));
        assert!(nfa.len() >= 4);
        assert!(!nfa.is_empty());
    }

    #[test]
    fn epsilon_closure_transitive() {
        let re = CRegex::star(CRegex::lit("a"));
        let nfa = Nfa::thompson(&re, &alpha_for(&re));
        let mut set = vec![nfa.start];
        nfa.epsilon_closure(&mut set);
        assert!(set.contains(&nfa.accept), "star accepts ε");
    }

    #[test]
    fn empty_set_has_no_accept_path() {
        let re = CRegex::EmptySet;
        let alphabet = Arc::new(Alphabet::from_sets(&[CharSet::single('a')]));
        let nfa = Nfa::thompson(&re, &alphabet);
        let mut set = vec![nfa.start];
        nfa.epsilon_closure(&mut set);
        assert!(!set.contains(&nfa.accept));
    }
}
