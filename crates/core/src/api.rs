//! Symbolic models of the ES6 regex API (Algorithm 2, §6.1).
//!
//! [`build_match_model`] implements the pseudocode of Algorithm 2 for
//! `RegExp.exec(input)` symbolically: the subject string is wrapped in
//! the ⟨/⟩ meta-characters, the pattern is wrapped in
//! `(?:.|\n)*?(source)(?:.|\n)*?` with the original source inside the
//! implicit capture group 0, flags are processed (`i` by case-expansion,
//! `m` by anchor-set adjustment), and the result is a
//! [`CapturingConstraint`] relating the input variable to the capture
//! variables. `RegExp.test(s)` is precisely
//! `RegExp.exec(s) !== undefined` and uses the same constraint.

use std::sync::Arc;

use regex_syntax_es6::Regex;
use strsolve::{Formula, Group, Shape, StrVar, Term, VarPool};

use crate::classical::{no_meta_star, overapprox_word_regex, try_wrapped_word_language};
use crate::meta::{INPUT_END, INPUT_START};
use crate::model::{BuildConfig, CaptureVar, ModelBuilder};
use crate::negate::nnf_negate;

/// One capturing-language membership constraint
/// `(w, C₀, …, Cₙ) ⊡ Lc(R)` with `⊡ ∈ {∈, ∉}`, packaged with everything
/// Algorithm 1 needs: the formula, the variables, and the original
/// regex for the concrete-matcher oracle.
///
/// The constraint also carries the formula's [`Shape`], canonicalized
/// once when the model is built and shared (an `Arc`) by every rebased
/// copy ([`CapturingConstraint::offset_vars`]), so posing the model in a
/// flip query ([`CapturingConstraint::group`]) maps variables instead
/// of renumbering the formula. Hence the invariant: **`formula` must
/// not be mutated after construction** — the shape would no longer
/// describe it and would key the verdict cache wrongly (debug builds
/// assert it on every posing).
#[derive(Debug, Clone)]
pub struct CapturingConstraint {
    /// The original regex (the CEGAR oracle matches against this).
    pub regex: Regex,
    /// The raw subject-string variable (no meta-characters).
    pub input: StrVar,
    /// The wrapped word variable `⟨input⟩`.
    pub wrapped: StrVar,
    /// Capture variables `C₀ … Cₙ` (`C₀` is the whole match).
    pub captures: Vec<CaptureVar>,
    /// True for membership (`∈`), false for non-membership (`∉`).
    pub positive: bool,
    /// The model formula (conjoin with the rest of the path condition).
    /// Read-only: see the type's invariant.
    pub formula: Formula,
    /// False when the model took an extra overapproximation beyond the
    /// paper's base model (see [`crate::model::RegexModel::exact`]).
    pub exact: bool,
    /// The shape of `formula`, taken at build time.
    shape: Arc<Shape>,
    /// Offset from the shape's string variables to `formula`'s.
    str_offset: u32,
    /// Offset from the shape's boolean variables to `formula`'s.
    bool_offset: u32,
}

impl CapturingConstraint {
    /// A freshly built constraint; takes the formula's shape.
    fn new(
        regex: &Regex,
        input: StrVar,
        wrapped: StrVar,
        captures: Vec<CaptureVar>,
        positive: bool,
        formula: Formula,
        exact: bool,
    ) -> CapturingConstraint {
        CapturingConstraint {
            regex: regex.clone(),
            input,
            wrapped,
            captures,
            positive,
            shape: Arc::new(Shape::of(&formula)),
            formula,
            exact,
            str_offset: 0,
            bool_offset: 0,
        }
    }

    /// The constraint with every variable shifted into another pool's
    /// numbering — the rebasing step of the cross-query model cache
    /// ([`crate::cache::ModelCache`]): a constraint built against a
    /// private pool is grafted onto a query's pool with the offsets
    /// returned by [`strsolve::VarPool::absorb`]. The copy shares the
    /// original's shape.
    pub fn offset_vars(&self, str_offset: u32, bool_offset: u32) -> CapturingConstraint {
        CapturingConstraint {
            regex: self.regex.clone(),
            input: self.input.offset_by(str_offset),
            wrapped: self.wrapped.offset_by(str_offset),
            captures: self
                .captures
                .iter()
                .map(|c| c.offset_by(str_offset, bool_offset))
                .collect(),
            positive: self.positive,
            formula: self.formula.offset_vars(str_offset, bool_offset),
            exact: self.exact,
            shape: Arc::clone(&self.shape),
            str_offset: self.str_offset + str_offset,
            bool_offset: self.bool_offset + bool_offset,
        }
    }

    /// The model formula posed as a session group
    /// ([`strsolve::SolveSession::view_with`]): the formula plus its
    /// build-time shape and offsets.
    pub fn group(&self) -> Group<'_> {
        debug_assert!(
            self.shape
                .describes(&self.formula, self.str_offset, self.bool_offset),
            "a constraint's formula was changed after its shape was taken"
        );
        Group {
            formula: &self.formula,
            shape: &self.shape,
            str_offset: self.str_offset,
            bool_offset: self.bool_offset,
        }
    }
}

/// Builds the Algorithm 2 model for a match (`exec` returning a result,
/// `test` returning `true`) or a non-match (`∉`, `test` returning
/// `false`) of `regex` against a fresh symbolic input string.
///
/// # Examples
///
/// ```
/// use expose_core::api::build_match_model;
/// use expose_core::model::BuildConfig;
/// use regex_syntax_es6::Regex;
/// use strsolve::{Solver, VarPool};
///
/// let regex = Regex::parse_literal("/goo+d/")?;
/// let mut pool = VarPool::new();
/// let constraint = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
/// let (outcome, _) = Solver::default().solve(&constraint.formula);
/// let model = outcome.model().expect("satisfiable");
/// let input = model.get_str(constraint.input).expect("assigned");
/// assert!(input.contains("goo"));
/// # Ok::<(), regex_syntax_es6::ParseError>(())
/// ```
pub fn build_match_model(
    regex: &Regex,
    positive: bool,
    pool: &mut VarPool,
    cfg: &BuildConfig,
) -> CapturingConstraint {
    let input = pool.fresh_str();
    let wrapped = pool.fresh_str();
    // input' = ⟨ + input + ⟩, and the raw input contains no markers.
    let well_formed = Formula::and(vec![
        Formula::eq_concat(
            wrapped,
            vec![
                Term::lit(INPUT_START.to_string()),
                Term::Var(input),
                Term::lit(INPUT_END.to_string()),
            ],
        ),
        Formula::in_re(input, no_meta_star()),
    ]);

    if positive {
        build_positive(regex, input, wrapped, well_formed, pool, cfg)
    } else {
        build_negative(regex, input, wrapped, well_formed, pool, cfg)
    }
}

fn build_positive(
    regex: &Regex,
    input: StrVar,
    wrapped: StrVar,
    well_formed: Formula,
    pool: &mut VarPool,
    cfg: &BuildConfig,
) -> CapturingConstraint {
    // source' = (?:.|\n)*?( source )(?:.|\n)*? — the outer group is C₀.
    let w1 = pool.fresh_str();
    let w0 = pool.fresh_str();
    let w3 = pool.fresh_str();
    let c0 = CaptureVar::fresh(pool);

    let normalized = regex_syntax_es6::rewrite::normalize_lazy(&regex.ast);
    let mut builder = ModelBuilder::new(&normalized, regex.flags, pool, cfg.clone());
    let body = builder.model(
        &normalized,
        w0,
        Some(vec![Term::Var(w1)]),
        Some(vec![Term::Var(w3)]),
    );
    let mut captures = vec![c0];
    captures.extend_from_slice(builder.captures());
    let exact = builder.is_exact();

    // The wrapper wildcards: w1 starts with ⟨, w3 ends with ⟩, and the
    // match itself contains no markers.
    let start_marker = automata::CRegex::lit(&INPUT_START.to_string());
    let end_marker = automata::CRegex::lit(&INPUT_END.to_string());
    let pre_lang = automata::CRegex::concat(vec![start_marker, crate::classical::no_meta_star()]);
    let post_lang = automata::CRegex::concat(vec![crate::classical::no_meta_star(), end_marker]);

    // Necessary-condition guide for word enumeration (see
    // `classical::overapprox_word_regex`).
    let guide = overapprox_word_regex(&regex.ast, regex.flags);

    let formula = Formula::and(vec![
        well_formed,
        Formula::eq_concat(wrapped, vec![Term::Var(w1), Term::Var(w0), Term::Var(w3)]),
        Formula::in_re(w1, pre_lang),
        Formula::in_re(w3, post_lang),
        Formula::in_re(w0, crate::classical::no_meta_star()),
        c0.defined_as(w0),
        body,
        Formula::in_re(wrapped, guide),
    ]);

    CapturingConstraint::new(regex, input, wrapped, captures, true, formula, exact)
}

fn build_negative(
    regex: &Regex,
    input: StrVar,
    wrapped: StrVar,
    well_formed: Formula,
    pool: &mut VarPool,
    cfg: &BuildConfig,
) -> CapturingConstraint {
    // Exact classical reduction when possible: captures do not affect
    // the word language, so ∀C: (w, C) ∉ Lc(R) ⟺ w ∉ L(wrapped R).
    if let Some(lang) = try_wrapped_word_language(&regex.ast, regex.flags) {
        let c0 = CaptureVar::fresh(pool);
        let n = regex.capture_count;
        let mut captures = vec![c0];
        for _ in 1..=n {
            captures.push(CaptureVar::fresh(pool));
        }
        let mut conjuncts = vec![well_formed, Formula::not_in_re(wrapped, lang)];
        // A failed exec defines no captures.
        for cap in &captures {
            conjuncts.push(cap.undefined());
        }
        return CapturingConstraint::new(
            regex,
            input,
            wrapped,
            captures,
            false,
            Formula::and(conjuncts),
            true,
        );
    }

    // General path (§4.4): negate the structural model.
    let w1 = pool.fresh_str();
    let w0 = pool.fresh_str();
    let w3 = pool.fresh_str();
    let c0 = CaptureVar::fresh(pool);
    let normalized = regex_syntax_es6::rewrite::normalize_lazy(&regex.ast);
    let mut builder = ModelBuilder::new(&normalized, regex.flags, pool, cfg.clone());
    let body = builder.model(
        &normalized,
        w0,
        Some(vec![Term::Var(w1)]),
        Some(vec![Term::Var(w3)]),
    );
    let mut captures = vec![c0];
    captures.extend_from_slice(builder.captures());

    let start_marker = automata::CRegex::lit(&INPUT_START.to_string());
    let end_marker = automata::CRegex::lit(&INPUT_END.to_string());
    let pre_lang = automata::CRegex::concat(vec![start_marker, crate::classical::no_meta_star()]);
    let post_lang = automata::CRegex::concat(vec![crate::classical::no_meta_star(), end_marker]);

    let match_structure = Formula::and(vec![
        Formula::eq_concat(wrapped, vec![Term::Var(w1), Term::Var(w0), Term::Var(w3)]),
        Formula::in_re(w1, pre_lang),
        Formula::in_re(w3, post_lang),
        body,
    ]);
    // The negated structural model keeps the partition equations
    // positive (§4.4), so it is only satisfiable when the match shape
    // can be laid out over the word at all. Words where it cannot (no
    // substring fits the structure) are genuine non-matches the
    // negation would otherwise miss — cover them with the sound escape
    // hatch "the wrapped word violates a necessary condition of
    // matching" (the overapproximated word language).
    let guide = overapprox_word_regex(&regex.ast, regex.flags);
    let formula = Formula::and(vec![
        well_formed,
        Formula::or(vec![
            Formula::not_in_re(wrapped, guide),
            nnf_negate(&match_structure),
        ]),
    ]);

    // The general negated model is never exact before refinement.
    CapturingConstraint::new(regex, input, wrapped, captures, false, formula, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsolve::Solver;

    fn constraint(literal: &str, positive: bool) -> (CapturingConstraint, VarPool) {
        let regex = Regex::parse_literal(literal).expect("literal");
        let mut pool = VarPool::new();
        let c = build_match_model(&regex, positive, &mut pool, &BuildConfig::default());
        (c, pool)
    }

    #[test]
    fn positive_model_produces_matching_input() {
        let (c, _) = constraint("/goo+d/", true);
        let (outcome, _) = Solver::default().solve(&c.formula);
        let model = outcome.model().expect("sat");
        let input = model.get_str(c.input).expect("assigned");
        let mut oracle = es6_matcher::RegExp::from_regex(c.regex.clone());
        assert!(oracle.test(input), "witness {input:?} must match");
    }

    #[test]
    fn negative_model_produces_non_matching_input() {
        let (c, _) = constraint("/goo+d/", false);
        let (outcome, _) = Solver::default().solve(&c.formula);
        let model = outcome.model().expect("sat");
        let input = model.get_str(c.input).expect("assigned");
        let mut oracle = es6_matcher::RegExp::from_regex(c.regex.clone());
        assert!(!oracle.test(input), "witness {input:?} must not match");
    }

    #[test]
    fn anchored_negative_is_exact() {
        let (c, _) = constraint("/^[0-9]+$/", false);
        assert!(c.exact);
        let (outcome, _) = Solver::default().solve(&c.formula);
        let model = outcome.model().expect("sat");
        let input = model.get_str(c.input).expect("assigned");
        let mut oracle = es6_matcher::RegExp::from_regex(c.regex.clone());
        assert!(!oracle.test(input));
    }

    #[test]
    fn positive_capture_variables_populated() {
        let (c, _) = constraint(r"/<([a-z]+)>/", true);
        let (outcome, _) = Solver::default().solve(&c.formula);
        let model = outcome.model().expect("sat");
        assert_eq!(c.captures.len(), 2); // C0, C1
        let c1 = c.captures[1];
        assert!(model.get_bool(c1.defined));
        let v = model.get_str(c1.value).expect("assigned");
        assert!(!v.is_empty());
    }

    #[test]
    fn backref_negative_uses_general_path() {
        let (c, _) = constraint(r"/(a)\1/", false);
        assert!(!c.exact);
    }
}
