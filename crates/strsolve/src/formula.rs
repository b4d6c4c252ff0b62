//! The constraint language: atoms and negation-normal-form formulas.
//!
//! The capturing-language models of the paper (§4) compile to exactly
//! this fragment: classical regular (non-)membership, word equations of
//! the shape `x = t₁ ++ … ++ tₙ`, (dis)equality with literals, variable
//! aliasing, and boolean definedness flags for capture variables.
//! Formulas are built in negation normal form — negation only appears
//! baked into atoms (`NotInRe`, `NeLit`, `Bool(_, false)`), mirroring
//! how §4.4 pushes negation through the models.

use std::fmt;
use std::sync::Arc;

use automata::CRegex;

use crate::vars::{BoolVar, StrVar, Term};

/// An atomic constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// `v ∈ L(re)`.
    InRe(StrVar, Arc<CRegex>),
    /// `v ∉ L(re)`.
    NotInRe(StrVar, Arc<CRegex>),
    /// `v = "lit"`.
    EqLit(StrVar, String),
    /// `v ≠ "lit"`.
    NeLit(StrVar, String),
    /// `v = u` (aliasing).
    EqVar(StrVar, StrVar),
    /// `v ≠ u` (variable disequality, produced by the §4.4 negated
    /// models of backreference bindings).
    NeVar(StrVar, StrVar),
    /// `v = t₁ ++ t₂ ++ … ++ tₙ` (word equation).
    EqConcat(StrVar, Vec<Term>),
    /// `b = value` (capture definedness flags).
    Bool(BoolVar, bool),
    /// The constant true.
    True,
    /// The constant false.
    False,
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::InRe(v, re) => write!(f, "{v} ∈ L({re})"),
            Atom::NotInRe(v, re) => write!(f, "{v} ∉ L({re})"),
            Atom::EqLit(v, s) => write!(f, "{v} = {s:?}"),
            Atom::NeLit(v, s) => write!(f, "{v} ≠ {s:?}"),
            Atom::EqVar(v, u) => write!(f, "{v} = {u}"),
            Atom::NeVar(v, u) => write!(f, "{v} ≠ {u}"),
            Atom::EqConcat(v, parts) => {
                write!(f, "{v} = ")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ++ ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Atom::Bool(b, val) => write!(f, "{b} = {val}"),
            Atom::True => write!(f, "⊤"),
            Atom::False => write!(f, "⊥"),
        }
    }
}

/// A formula in negation normal form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// An atomic constraint.
    Atom(Atom),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// The constant true.
    pub fn top() -> Formula {
        Formula::Atom(Atom::True)
    }

    /// The constant false.
    pub fn bottom() -> Formula {
        Formula::Atom(Atom::False)
    }

    /// Smart conjunction: flattens and prunes constants.
    pub fn and(items: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(items.len());
        for item in items {
            match item {
                Formula::Atom(Atom::True) => {}
                Formula::Atom(Atom::False) => return Formula::bottom(),
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::top(),
            1 => flat.pop().expect("one item"),
            _ => Formula::And(flat),
        }
    }

    /// Smart disjunction: flattens and prunes constants.
    pub fn or(items: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(items.len());
        for item in items {
            match item {
                Formula::Atom(Atom::False) => {}
                Formula::Atom(Atom::True) => return Formula::top(),
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::bottom(),
            1 => flat.pop().expect("one item"),
            _ => Formula::Or(flat),
        }
    }

    /// `guard ⟹ body` encoded as `¬guard ∨ body` for a literal guard
    /// `v = lit` (the shape produced by CEGAR refinements, Algorithm 1
    /// line 15).
    pub fn implies_eq_lit(v: StrVar, lit: impl Into<String>, body: Formula) -> Formula {
        let lit = lit.into();
        Formula::or(vec![Formula::Atom(Atom::NeLit(v, lit)), body])
    }

    /// Atom shortcut.
    pub fn atom(a: Atom) -> Formula {
        Formula::Atom(a)
    }

    /// `v ∈ L(re)`.
    pub fn in_re(v: StrVar, re: impl Into<Arc<CRegex>>) -> Formula {
        Formula::Atom(Atom::InRe(v, re.into()))
    }

    /// `v ∉ L(re)`.
    pub fn not_in_re(v: StrVar, re: impl Into<Arc<CRegex>>) -> Formula {
        Formula::Atom(Atom::NotInRe(v, re.into()))
    }

    /// `v = "lit"`.
    pub fn eq_lit(v: StrVar, lit: impl Into<String>) -> Formula {
        Formula::Atom(Atom::EqLit(v, lit.into()))
    }

    /// `v ≠ "lit"`.
    pub fn ne_lit(v: StrVar, lit: impl Into<String>) -> Formula {
        Formula::Atom(Atom::NeLit(v, lit.into()))
    }

    /// `v = u`.
    pub fn eq_var(v: StrVar, u: StrVar) -> Formula {
        Formula::Atom(Atom::EqVar(v, u))
    }

    /// `v ≠ u`.
    pub fn ne_var(v: StrVar, u: StrVar) -> Formula {
        Formula::Atom(Atom::NeVar(v, u))
    }

    /// `v = t₁ ++ … ++ tₙ`.
    pub fn eq_concat(v: StrVar, parts: Vec<Term>) -> Formula {
        Formula::Atom(Atom::EqConcat(v, parts))
    }

    /// `b = value`.
    pub fn bool_is(b: BoolVar, value: bool) -> Formula {
        Formula::Atom(Atom::Bool(b, value))
    }

    /// Counts atoms (for statistics and budgeting).
    pub fn atom_count(&self) -> usize {
        match self {
            Formula::Atom(_) => 1,
            Formula::And(items) | Formula::Or(items) => items.iter().map(Formula::atom_count).sum(),
        }
    }

    /// Approximate resident size in bytes, for cache byte budgets.
    ///
    /// Counts per-node overhead plus owned literal text; `Arc`'d
    /// regexes count only as a pointer since the automata behind them
    /// are shared (and budgeted by their own caches).
    pub fn approx_bytes(&self) -> usize {
        fn term_bytes(t: &Term) -> usize {
            match t {
                Term::Var(_) => std::mem::size_of::<Term>(),
                Term::Lit(s) => std::mem::size_of::<Term>() + s.len(),
            }
        }
        let node = std::mem::size_of::<Formula>();
        match self {
            Formula::Atom(a) => {
                node + match a {
                    Atom::EqLit(_, s) | Atom::NeLit(_, s) => s.len(),
                    Atom::EqConcat(_, parts) => parts.iter().map(term_bytes).sum(),
                    _ => 0,
                }
            }
            Formula::And(items) | Formula::Or(items) => {
                node + items.iter().map(Formula::approx_bytes).sum::<usize>()
            }
        }
    }

    /// The formula with every variable shifted by the given offsets —
    /// the counterpart of [`crate::VarPool::absorb`] for rebasing a
    /// formula built against a private pool into another pool.
    pub fn offset_vars(&self, str_offset: u32, bool_offset: u32) -> Formula {
        let strs = |v: StrVar| v.offset_by(str_offset);
        let bools = |b: BoolVar| b.offset_by(bool_offset);
        self.map_vars(&strs, &bools)
    }

    /// The formula with every variable replaced through the two maps.
    pub(crate) fn map_vars(
        &self,
        strs: &impl Fn(StrVar) -> StrVar,
        bools: &impl Fn(BoolVar) -> BoolVar,
    ) -> Formula {
        match self {
            Formula::Atom(a) => Formula::Atom(map_atom(a, strs, bools)),
            Formula::And(items) => {
                Formula::And(items.iter().map(|f| f.map_vars(strs, bools)).collect())
            }
            Formula::Or(items) => {
                Formula::Or(items.iter().map(|f| f.map_vars(strs, bools)).collect())
            }
        }
    }

    /// Counts `Or` nodes (proxy for boolean search breadth).
    pub fn or_count(&self) -> usize {
        match self {
            Formula::Atom(_) => 0,
            Formula::And(items) => items.iter().map(Formula::or_count).sum(),
            Formula::Or(items) => 1 + items.iter().map(Formula::or_count).sum::<usize>(),
        }
    }
}

fn map_atom(atom: &Atom, s: &impl Fn(StrVar) -> StrVar, b: &impl Fn(BoolVar) -> BoolVar) -> Atom {
    let term = |t: &Term| match t {
        Term::Var(v) => Term::Var(s(*v)),
        Term::Lit(lit) => Term::Lit(lit.clone()),
    };
    match atom {
        Atom::InRe(v, re) => Atom::InRe(s(*v), re.clone()),
        Atom::NotInRe(v, re) => Atom::NotInRe(s(*v), re.clone()),
        Atom::EqLit(v, lit) => Atom::EqLit(s(*v), lit.clone()),
        Atom::NeLit(v, lit) => Atom::NeLit(s(*v), lit.clone()),
        Atom::EqVar(v, u) => Atom::EqVar(s(*v), s(*u)),
        Atom::NeVar(v, u) => Atom::NeVar(s(*v), s(*u)),
        Atom::EqConcat(v, parts) => Atom::EqConcat(s(*v), parts.iter().map(term).collect()),
        Atom::Bool(flag, value) => Atom::Bool(b(*flag), *value),
        Atom::True => Atom::True,
        Atom::False => Atom::False,
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::And(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Formula::Or(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarPool;

    #[test]
    fn and_simplifies_constants() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::and(vec![Formula::top(), Formula::eq_lit(v, "x")]);
        assert_eq!(f, Formula::eq_lit(v, "x"));
        let f = Formula::and(vec![Formula::bottom(), Formula::eq_lit(v, "x")]);
        assert_eq!(f, Formula::bottom());
    }

    #[test]
    fn or_simplifies_constants() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::or(vec![Formula::bottom(), Formula::eq_lit(v, "x")]);
        assert_eq!(f, Formula::eq_lit(v, "x"));
        let f = Formula::or(vec![Formula::top(), Formula::eq_lit(v, "x")]);
        assert_eq!(f, Formula::top());
    }

    #[test]
    fn nested_flattening() {
        let mut pool = VarPool::new();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::and(vec![Formula::eq_lit(a, "1"), Formula::eq_lit(b, "2")]),
            Formula::eq_var(a, b),
        ]);
        match f {
            Formula::And(items) => assert_eq!(items.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn atom_and_or_counts() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::or(vec![
            Formula::eq_lit(v, "a"),
            Formula::and(vec![Formula::eq_lit(v, "b"), Formula::ne_lit(v, "c")]),
        ]);
        assert_eq!(f.atom_count(), 3);
        assert_eq!(f.or_count(), 1);
    }

    #[test]
    fn offset_vars_shifts_every_variable_kind() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let u = pool.fresh_str();
        let b = pool.fresh_bool();
        let f = Formula::and(vec![
            Formula::eq_concat(v, vec![Term::lit("a"), Term::Var(u)]),
            Formula::bool_is(b, true),
            Formula::ne_var(v, u),
        ]);
        let shifted = f.offset_vars(10, 3);
        let expected = Formula::and(vec![
            Formula::eq_concat(
                v.offset_by(10),
                vec![Term::lit("a"), Term::Var(u.offset_by(10))],
            ),
            Formula::bool_is(b.offset_by(3), true),
            Formula::ne_var(v.offset_by(10), u.offset_by(10)),
        ]);
        assert_eq!(shifted, expected);
    }

    #[test]
    fn display_is_readable() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::eq_concat(v, vec![Term::lit("a"), Term::Var(v)]);
        assert_eq!(f.to_string(), "s0 = \"a\" ++ s0");
    }
}
