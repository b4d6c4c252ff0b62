//! Non-membership models (§4.4 of the paper).
//!
//! A negative constraint `∀C₀…Cₙ: (w, C₀, …, Cₙ) ∉ Lc(R)` cannot be
//! expressed directly over free capture variables. The paper's negated
//! models keep the *structural* parts positive — word partitions
//! (`w = w₁ ++ w₂`) and capture bindings (`Cᵢ = w`) — and disjoin the
//! negations of the language and emptiness constraints: "for all capture
//! assignments there exists some partition of the word such that one of
//! the individual constraints is violated".
//!
//! [`nnf_negate`] implements that transformation over the formulas
//! produced by [`crate::model::ModelBuilder`]. The result
//! *overapproximates* true non-membership (some matching words also
//! satisfy it); Algorithm 1's lines 16–18 refine those away, so the
//! CEGAR-completed procedure is exact (§5.4).
//!
//! When the regex is backreference-free, callers should prefer the exact
//! classical reduction `w ∉ L(...)` from
//! [`crate::classical::try_wrapped_word_language`]; this module is the
//! general path.

use strsolve::{Atom, Formula};

/// Structurally negates a model formula per §4.4.
///
/// * `Or` → `And` of negations (De Morgan);
/// * `And` → keep word partitions (`EqConcat`) positive, disjoin the
///   negations of the remaining conjuncts;
/// * atoms flip polarity (`InRe ↔ NotInRe`, `EqLit ↔ NeLit`,
///   `Bool(b,v) ↔ Bool(b,¬v)`, `EqVar ↔ NeVar`);
/// * a conjunction of *only* partitions cannot be violated, so its
///   negation is `⊥`.
///
/// Keeping partitions positive while negating capture bindings makes the
/// result strictly *weaker* than true non-membership in places (e.g. a
/// capture binding can be "violated" by choosing a different capture
/// value), which is safe: the result overapproximates the non-matching
/// words, and spurious solutions are eliminated by Algorithm 1's
/// refinement (lines 16–18).
///
/// # Examples
///
/// ```
/// use expose_core::negate::nnf_negate;
/// use strsolve::{Formula, VarPool};
///
/// let mut pool = VarPool::new();
/// let v = pool.fresh_str();
/// let f = Formula::or(vec![Formula::eq_lit(v, "a"), Formula::eq_lit(v, "b")]);
/// let neg = nnf_negate(&f);
/// assert_eq!(
///     neg,
///     Formula::and(vec![Formula::ne_lit(v, "a"), Formula::ne_lit(v, "b")])
/// );
/// ```
pub fn nnf_negate(formula: &Formula) -> Formula {
    match formula {
        Formula::Atom(atom) => negate_atom(atom),
        Formula::Or(items) => Formula::and(items.iter().map(nnf_negate).collect()),
        Formula::And(items) => {
            let mut structural = Vec::new();
            let mut negated = Vec::new();
            for item in items {
                if is_structural(item) {
                    structural.push(item.clone());
                } else {
                    negated.push(nnf_negate(item));
                }
            }
            if negated.is_empty() {
                // Pure structure cannot be violated.
                return Formula::bottom();
            }
            structural.push(Formula::or(negated));
            Formula::and(structural)
        }
    }
}

/// True for atoms that §4.4 keeps positive under negation: word
/// partitions.
fn is_structural(f: &Formula) -> bool {
    matches!(f, Formula::Atom(Atom::EqConcat(..)))
}

fn negate_atom(atom: &Atom) -> Formula {
    Formula::Atom(match atom {
        Atom::InRe(v, re) => Atom::NotInRe(*v, re.clone()),
        Atom::NotInRe(v, re) => Atom::InRe(*v, re.clone()),
        Atom::EqLit(v, s) => Atom::NeLit(*v, s.clone()),
        Atom::NeLit(v, s) => Atom::EqLit(*v, s.clone()),
        Atom::EqVar(a, b) => Atom::NeVar(*a, *b),
        Atom::NeVar(a, b) => Atom::EqVar(*a, *b),
        // A bare partition cannot be violated (§4.4 keeps them).
        Atom::EqConcat(..) => Atom::False,
        Atom::Bool(b, v) => Atom::Bool(*b, !*v),
        Atom::True => Atom::False,
        Atom::False => Atom::True,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsolve::{Term, VarPool};

    #[test]
    fn atom_negations() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let b = pool.fresh_bool();
        assert_eq!(
            nnf_negate(&Formula::eq_lit(v, "x")),
            Formula::ne_lit(v, "x")
        );
        assert_eq!(
            nnf_negate(&Formula::bool_is(b, true)),
            Formula::bool_is(b, false)
        );
        assert_eq!(nnf_negate(&Formula::top()), Formula::bottom());
    }

    #[test]
    fn and_keeps_partitions_positive() {
        // ¬(w = a ++ b ∧ a ∈ L) = (w = a ++ b) ∧ (a ∉ L) — the §4.4 shape.
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        let f = Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(a), Term::Var(b)]),
            Formula::eq_lit(a, "x"),
        ]);
        let neg = nnf_negate(&f);
        assert_eq!(
            neg,
            Formula::and(vec![
                Formula::eq_concat(w, vec![Term::Var(a), Term::Var(b)]),
                Formula::ne_lit(a, "x"),
            ])
        );
    }

    #[test]
    fn pure_structure_negates_to_bottom() {
        let mut pool = VarPool::new();
        let w = pool.fresh_str();
        let a = pool.fresh_str();
        let f = Formula::and(vec![Formula::eq_concat(w, vec![Term::Var(a)])]);
        // Formula::and of a single item collapses to the atom itself.
        assert_eq!(nnf_negate(&f), Formula::bottom());
    }

    #[test]
    fn or_becomes_and() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let f = Formula::or(vec![Formula::eq_lit(v, "a"), Formula::eq_lit(v, "b")]);
        assert_eq!(
            nnf_negate(&f),
            Formula::and(vec![Formula::ne_lit(v, "a"), Formula::ne_lit(v, "b"),])
        );
    }

    #[test]
    fn double_negation_of_atoms_is_identity() {
        let mut pool = VarPool::new();
        let v = pool.fresh_str();
        let u = pool.fresh_str();
        for f in [
            Formula::eq_lit(v, "a"),
            Formula::ne_lit(v, "a"),
            Formula::eq_var(v, u),
            Formula::ne_var(v, u),
        ] {
            assert_eq!(nnf_negate(&nnf_negate(&f)), f);
        }
    }
}
