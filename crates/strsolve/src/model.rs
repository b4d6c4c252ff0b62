//! Satisfying assignments, and the independent model evaluator.

use std::collections::HashMap;
use std::sync::Arc;

use automata::{Alphabet, CRegex, CharSet, Dfa};

use crate::formula::{Atom, Formula};
use crate::vars::{BoolVar, StrVar, Term};

/// A satisfying assignment returned by the solver.
///
/// Every string variable mentioned in the formula is mapped to a
/// concrete string; boolean (definedness) variables to `bool`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    strings: HashMap<StrVar, String>,
    bools: HashMap<BoolVar, bool>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// The value of a string variable.
    pub fn get_str(&self, v: StrVar) -> Option<&str> {
        self.strings.get(&v).map(String::as_str)
    }

    /// The value of a boolean variable (defaults to `false` when the
    /// variable was unconstrained).
    pub fn get_bool(&self, v: BoolVar) -> bool {
        self.bools.get(&v).copied().unwrap_or(false)
    }

    /// Sets a string variable.
    pub fn set_str(&mut self, v: StrVar, value: impl Into<String>) {
        self.strings.insert(v, value.into());
    }

    /// Sets a boolean variable.
    pub fn set_bool(&mut self, v: BoolVar, value: bool) {
        self.bools.insert(v, value);
    }

    /// Number of assigned string variables.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty() && self.bools.is_empty()
    }

    /// Iterates over string assignments.
    pub fn iter_strings(&self) -> impl Iterator<Item = (StrVar, &str)> + '_ {
        self.strings.iter().map(|(&v, s)| (v, s.as_str()))
    }

    /// The value of a boolean variable, `None` when unassigned
    /// (distinct from [`Model::get_bool`]'s `false` default — used by
    /// the result cache to store exactly what the solver assigned).
    pub fn try_get_bool(&self, v: BoolVar) -> Option<bool> {
        self.bools.get(&v).copied()
    }

    /// Evaluates `formula` directly against this model, independently
    /// of the solver's propagation machinery: word equations by string
    /// concatenation, regular membership by a freshly built DFA.
    ///
    /// Every `Sat` the solver returns must pass this check — it is the
    /// model-soundness oracle the property tests and the differential
    /// fuzzer verify against. String atoms over *unassigned* variables
    /// evaluate pessimistically to `false`, so a model that forgot an
    /// assignment fails rather than vacuously passes.
    pub fn satisfies(&self, formula: &Formula) -> bool {
        match formula {
            Formula::And(items) => items.iter().all(|f| self.satisfies(f)),
            Formula::Or(items) => items.iter().any(|f| self.satisfies(f)),
            Formula::Atom(atom) => self.satisfies_atom(atom),
        }
    }

    fn satisfies_atom(&self, atom: &Atom) -> bool {
        let term_value = |t: &Term| match t {
            Term::Var(v) => self.get_str(*v).map(str::to_string),
            Term::Lit(s) => Some(s.clone()),
        };
        match atom {
            Atom::True => true,
            Atom::False => false,
            Atom::Bool(b, value) => self.get_bool(*b) == *value,
            Atom::EqLit(v, lit) => self.get_str(*v) == Some(lit.as_str()),
            Atom::NeLit(v, lit) => self.get_str(*v).is_some_and(|value| value != lit.as_str()),
            Atom::EqVar(v, u) => self.get_str(*v).is_some() && self.get_str(*v) == self.get_str(*u),
            Atom::NeVar(v, u) => match (self.get_str(*v), self.get_str(*u)) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            },
            Atom::InRe(v, re) => self.get_str(*v).is_some_and(|value| re_contains(re, value)),
            Atom::NotInRe(v, re) => self
                .get_str(*v)
                .is_some_and(|value| !re_contains(re, value)),
            Atom::EqConcat(v, parts) => {
                let Some(lhs) = self.get_str(*v) else {
                    return false;
                };
                let mut rhs = String::new();
                for part in parts {
                    match term_value(part) {
                        Some(value) => rhs.push_str(&value),
                        None => return false,
                    }
                }
                lhs == rhs
            }
        }
    }
}

/// Direct DFA-based membership check over an alphabet refined with the
/// word's own characters — independent of any solver-held automata.
/// Public so the property tests and the differential fuzzer share the
/// exact evaluator [`Model::satisfies`] uses, rather than re-deriving
/// their own copies of the alphabet-refinement recipe.
pub fn re_contains(re: &CRegex, word: &str) -> bool {
    let mut sets = Vec::new();
    re.collect_sets(&mut sets);
    for c in word.chars() {
        sets.push(CharSet::single(c));
    }
    let alphabet = Arc::new(Alphabet::from_sets(&sets));
    Dfa::from_cregex(re, &alphabet).contains(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarPool;

    #[test]
    fn set_and_get() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let b = pool.fresh_bool();
        let mut m = Model::new();
        m.set_str(v, "hello");
        m.set_bool(b, true);
        assert_eq!(m.get_str(v), Some("hello"));
        assert!(m.get_bool(b));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn unconstrained_bool_defaults_false() {
        let mut pool = VarPool::new();
        let b = pool.fresh_bool();
        let m = Model::new();
        assert!(!m.get_bool(b));
    }
}
