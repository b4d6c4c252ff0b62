//! The capturing-language model builder (Tables 2 and 3 of the paper).
//!
//! [`ModelBuilder`] recursively translates an ES6 regex AST into a
//! [`strsolve::Formula`] over string variables, such that the formula is
//! satisfied by `(w, C₀, …, Cₙ)` whenever the tuple is in (an
//! overapproximation of) the capturing language `Lc(R)` (§4.2). Matching
//! precedence is deliberately ignored here — the CEGAR loop of
//! [`crate::cegar`] restores it (§5).
//!
//! Design notes mirroring the paper:
//!
//! * **Capture variables** are pairs of a string value and a definedness
//!   flag ([`CaptureVar`]), since `⊥` (undefined) is distinct from `ε`.
//! * **Quantifier expansion** (§4.1) duplicates capture groups; shadow
//!   frames allocate fresh variables for non-final copies, and the
//!   canonical `Cᵢ` is bound by the last copy (`Cᵢ = Cᵢ,last`).
//! * **Backreferences** (Table 3) are classified on the fly: references
//!   to groups that have not yet closed match `ε`; quantified
//!   backreference contexts use the bounded same-value expansion that
//!   realizes rows 3–5 of Table 3 uniformly (the paper's practical,
//!   deliberately underapproximate rule — §4.3, §5.4). A sound bounded
//!   expansion with per-iteration shadow captures is available behind
//!   [`BuildConfig::sound_mutable_backrefs`] for the ablation study.
//! * **Anchors and word boundaries** constrain prefix/suffix context
//!   variables threaded through the recursion, using the ⟨/⟩
//!   meta-characters of Algorithm 2.

use std::collections::HashMap;

use automata::{compile_classical, CRegex, CharSet};
use regex_syntax_es6::ast::{AssertionKind, Ast};
use regex_syntax_es6::rewrite::normalize_lazy;
use regex_syntax_es6::Flags;
use strsolve::{BoolVar, Formula, StrVar, Term, VarPool};

use crate::classical::{try_hat_star, user_compile_options};
use crate::meta::line_terminators;

/// A capture variable `Cᵢ`: a string value plus a definedness flag
/// distinguishing `⊥` from `ε`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureVar {
    /// The captured substring (meaningful only when defined).
    pub value: StrVar,
    /// True when the capture participated in the match.
    pub defined: BoolVar,
}

impl CaptureVar {
    /// Allocates a fresh capture variable.
    pub fn fresh(pool: &mut VarPool) -> CaptureVar {
        CaptureVar {
            value: pool.fresh_str(),
            defined: pool.fresh_bool(),
        }
    }

    /// The formula `Cᵢ = ⊥`.
    pub fn undefined(&self) -> Formula {
        Formula::bool_is(self.defined, false)
    }

    /// The formula `Cᵢ ≠ ⊥ ∧ Cᵢ = w`.
    pub fn defined_as(&self, w: StrVar) -> Formula {
        Formula::and(vec![
            Formula::bool_is(self.defined, true),
            Formula::eq_var(self.value, w),
        ])
    }

    /// The capture variable shifted into another pool's numbering (see
    /// [`strsolve::VarPool::absorb`]).
    pub fn offset_by(&self, str_offset: u32, bool_offset: u32) -> CaptureVar {
        CaptureVar {
            value: self.value.offset_by(str_offset),
            defined: self.defined.offset_by(bool_offset),
        }
    }
}

/// Configuration for model construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BuildConfig {
    /// Maximum number of explicit copies when expanding `{m,n}`
    /// repetitions (§4.1); beyond it the model falls back to a classical
    /// overapproximation of the repetition.
    pub max_repeat_expansion: u32,
    /// Bound on iteration counts for quantified-backreference contexts
    /// (the `∃m` of Table 3 rows 3–5).
    pub max_backref_copies: u32,
    /// Use the sound (but expensive, bounded) per-iteration model for
    /// mutable backreferences instead of the paper's practical
    /// immutable approximation (Table 3 last row). Ablation only.
    pub sound_mutable_backrefs: bool,
}

impl Default for BuildConfig {
    fn default() -> BuildConfig {
        BuildConfig {
            max_repeat_expansion: 8,
            max_backref_copies: 3,
            sound_mutable_backrefs: false,
        }
    }
}

impl BuildConfig {
    /// A stable fingerprint of the limits, used as part of the model
    /// cache key: models built under different expansion bounds differ
    /// structurally and must not be shared.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

/// The result of modeling one capturing-language membership constraint.
#[derive(Debug, Clone)]
pub struct RegexModel {
    /// Variable holding the matched word.
    pub word: StrVar,
    /// Canonical capture variables `C₁ … Cₙ` (the API layer adds `C₀`).
    pub captures: Vec<CaptureVar>,
    /// The model formula.
    pub formula: Formula,
    /// False when an overapproximating shortcut beyond the paper's
    /// base overapproximation was taken (large repetition fallback,
    /// assertion in an unsupported position, quantified backreference).
    pub exact: bool,
}

/// Builds the membership model `(w, C₁…Cₙ) ∈ Lc(R)` for a bare pattern
/// (no Algorithm 2 wrapping; anchors resolve against the word edges).
///
/// # Examples
///
/// ```
/// use expose_core::model::{build_membership, BuildConfig};
/// use regex_syntax_es6::parse;
/// use strsolve::{Solver, VarPool};
///
/// let ast = parse("(a|(b))c")?;
/// let mut pool = VarPool::new();
/// let model = build_membership(&ast, Default::default(), &mut pool, &BuildConfig::default());
/// let (outcome, _) = Solver::default().solve(&model.formula);
/// assert!(outcome.is_sat());
/// # Ok::<(), regex_syntax_es6::ParseError>(())
/// ```
pub fn build_membership(
    ast: &Ast,
    flags: Flags,
    pool: &mut VarPool,
    cfg: &BuildConfig,
) -> RegexModel {
    let normalized = normalize_lazy(ast);
    let mut builder = ModelBuilder::new(&normalized, flags, pool, cfg.clone());
    let word = builder.pool.fresh_str();
    let formula = builder.model(&normalized, word, Some(Vec::new()), Some(Vec::new()));
    RegexModel {
        word,
        captures: builder.captures.clone(),
        formula,
        exact: builder.exact,
    }
}

/// The recursive Table 2/3 translator. See the module docs.
pub struct ModelBuilder<'p> {
    pool: &'p mut VarPool,
    cfg: BuildConfig,
    flags: Flags,
    /// Canonical capture variables, index `i-1` for group `i`.
    captures: Vec<CaptureVar>,
    /// Shadow frames for duplicated copies (innermost last).
    shadow: Vec<HashMap<u32, CaptureVar>>,
    /// Groups whose subtree has been fully modeled at least once
    /// (Definition 2's post-order "closed" test).
    closed: std::collections::HashSet<u32>,
    /// The whole pattern, for resolving backreference group bodies in
    /// overapproximation escape disjuncts.
    root: Ast,
    exact: bool,
}

impl<'p> ModelBuilder<'p> {
    /// Creates a builder for the given (lazy-normalized) AST.
    pub fn new(
        ast: &Ast,
        flags: Flags,
        pool: &'p mut VarPool,
        cfg: BuildConfig,
    ) -> ModelBuilder<'p> {
        let n = ast.capture_count();
        let captures = (1..=n).map(|_| CaptureVar::fresh(pool)).collect();
        ModelBuilder {
            pool,
            cfg,
            flags,
            captures,
            shadow: Vec::new(),
            closed: std::collections::HashSet::new(),
            root: ast.clone(),
            exact: true,
        }
    }

    /// The canonical capture variables.
    pub fn captures(&self) -> &[CaptureVar] {
        &self.captures
    }

    /// True unless an extra overapproximation was taken.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Builds the model formula for `(w, …) ∈ Lc(ast)`.
    ///
    /// `prefix`/`suffix` are the concatenation contexts around `w` in
    /// the overall match word (for anchors and word boundaries);
    /// `None` means the context is unknown (e.g. inside a quantifier).
    pub fn model(
        &mut self,
        ast: &Ast,
        w: StrVar,
        prefix: Option<Vec<Term>>,
        suffix: Option<Vec<Term>>,
    ) -> Formula {
        // Fast path: capture-free, backreference-free, assertion-free
        // subtrees are purely classical (Table 2 base case).
        if self.is_classical(ast) {
            return self.classical_membership(ast, w);
        }
        match ast {
            Ast::Empty => Formula::eq_lit(w, ""),
            Ast::Assertion(kind) => Formula::and(vec![
                Formula::eq_lit(w, ""),
                self.assertion(*kind, prefix, suffix),
            ]),
            Ast::Group { index, ast } => {
                let cap = self.capvar(*index);
                let inner = self.model(ast, w, prefix, suffix);
                self.closed.insert(*index);
                Formula::and(vec![inner, cap.defined_as(w)])
            }
            Ast::NonCapturing(inner) => self.model(inner, w, prefix, suffix),
            Ast::Lookahead { .. } => {
                // A bare lookahead asserts on the suffix context.
                let items = [ast.clone()];
                self.model_concat(&items, w, prefix, suffix)
            }
            Ast::Alt(branches) => self.model_alt(branches, w, prefix, suffix),
            Ast::Concat(items) => {
                let items = items.clone();
                self.model_concat(&items, w, prefix, suffix)
            }
            Ast::Repeat { ast, min, max, .. } => {
                let (ast, min, max) = (ast.clone(), *min, *max);
                self.model_repeat(&ast, min, max, w)
            }
            Ast::Backref(k) => self.model_backref(*k, w),
            // Literal/Dot/Class are classical and handled above.
            leaf => self.classical_membership(leaf, w),
        }
    }

    /// True when the subtree needs no capture or context reasoning.
    /// Lookaheads are *not* classical here: they assert on the suffix
    /// context beyond the subtree's own word variable, so they must go
    /// through [`ModelBuilder::model_concat`]'s context threading — a
    /// fragment-local compilation would cut their scope at the end of
    /// the variable and yield wrong verdicts in both directions.
    fn is_classical(&self, ast: &Ast) -> bool {
        !ast.has_captures() && !ast.has_backref() && !ast.has_assertion() && !ast.has_lookahead()
    }

    fn classical_membership(&mut self, ast: &Ast, w: StrVar) -> Formula {
        let opts = user_compile_options(self.flags);
        match compile_classical(ast, &opts) {
            Ok(re) => Formula::in_re(w, re),
            Err(_) => {
                // Defensive: treat as unconstrained (overapproximate).
                self.exact = false;
                Formula::top()
            }
        }
    }

    // --- Alternation (Table 2 row 1) -----------------------------------

    fn model_alt(
        &mut self,
        branches: &[Ast],
        w: StrVar,
        prefix: Option<Vec<Term>>,
        suffix: Option<Vec<Term>>,
    ) -> Formula {
        let mut alts = Vec::with_capacity(branches.len());
        for (i, branch) in branches.iter().enumerate() {
            let body = self.model(branch, w, prefix.clone(), suffix.clone());
            // Captures of the non-matching branches are undefined.
            let mut undefs = Vec::new();
            for (j, other) in branches.iter().enumerate() {
                if i != j {
                    undefs.push(self.undef_all(other));
                }
            }
            alts.push(Formula::and(std::iter::once(body).chain(undefs).collect()));
        }
        Formula::or(alts)
    }

    /// `∧ Cᵢ = ⊥` over every capture group in the subtree.
    fn undef_all(&mut self, ast: &Ast) -> Formula {
        let indices = ast.capture_indices();
        Formula::and(
            indices
                .into_iter()
                .map(|i| self.capvar(i).undefined())
                .collect(),
        )
    }

    // --- Concatenation, assertions, lookaheads (Table 2) ----------------

    fn model_concat(
        &mut self,
        items: &[Ast],
        w: StrVar,
        prefix: Option<Vec<Term>>,
        suffix: Option<Vec<Term>>,
    ) -> Formula {
        // Allocate a term per consuming item (literals stay literal).
        let mut terms: Vec<Option<Term>> = Vec::with_capacity(items.len());
        for item in items {
            terms.push(match item {
                Ast::Assertion(_) | Ast::Lookahead { .. } => None,
                Ast::Literal(c) if !self.flags.ignore_case => Some(Term::Lit(c.to_string())),
                _ => Some(Term::Var(self.pool.fresh_str())),
            });
        }
        let consuming: Vec<Term> = terms.iter().flatten().cloned().collect();
        let mut conjuncts = vec![Formula::eq_concat(w, consuming)];

        for (i, item) in items.iter().enumerate() {
            // Context before item i (within this concat) and after it.
            let local_prefix: Vec<Term> = terms[..i].iter().flatten().cloned().collect();
            let local_suffix: Vec<Term> = terms[i + 1..].iter().flatten().cloned().collect();
            let full_prefix = prefix.as_ref().map(|p| {
                let mut v = p.clone();
                v.extend(local_prefix.iter().cloned());
                v
            });
            let full_suffix = suffix.as_ref().map(|s| {
                let mut v = local_suffix.clone();
                v.extend(s.iter().cloned());
                v
            });
            match (&terms[i], item) {
                (None, Ast::Assertion(kind)) => {
                    conjuncts.push(self.assertion(*kind, full_prefix, full_suffix));
                }
                (None, Ast::Lookahead { negative, ast }) => {
                    conjuncts.push(self.lookahead(*negative, ast, full_prefix, full_suffix));
                }
                (Some(Term::Lit(_)), _) => {}
                (Some(Term::Var(v)), _) => {
                    conjuncts.push(self.model(item, *v, full_prefix, full_suffix));
                }
                (None, _) => unreachable!("only assertions have no term"),
            }
        }
        Formula::and(conjuncts)
    }

    fn assertion(
        &mut self,
        kind: AssertionKind,
        prefix: Option<Vec<Term>>,
        suffix: Option<Vec<Term>>,
    ) -> Formula {
        let multiline = self.flags.multiline;
        match kind {
            AssertionKind::StartAnchor => match prefix {
                None => {
                    self.exact = false;
                    Formula::top()
                }
                Some(parts) if parts.is_empty() => Formula::top(),
                Some(parts) => {
                    let (p, def) = self.concat_var(parts);
                    // p ends with ⟨ (or a line terminator under `m`),
                    // or p is empty (true word start).
                    let mut enders = CharSet::single(crate::meta::INPUT_START);
                    if multiline {
                        enders = enders.union(&line_terminators());
                    }
                    let ends_with = CRegex::concat(vec![
                        CRegex::star(CRegex::set(CharSet::any())),
                        CRegex::set(enders),
                    ]);
                    Formula::and(vec![
                        def,
                        Formula::or(vec![Formula::eq_lit(p, ""), Formula::in_re(p, ends_with)]),
                    ])
                }
            },
            AssertionKind::EndAnchor => match suffix {
                None => {
                    self.exact = false;
                    Formula::top()
                }
                Some(parts) if parts.is_empty() => Formula::top(),
                Some(parts) => {
                    let (s, def) = self.concat_var(parts);
                    let mut starters = CharSet::single(crate::meta::INPUT_END);
                    if multiline {
                        starters = starters.union(&line_terminators());
                    }
                    let starts_with = CRegex::concat(vec![
                        CRegex::set(starters),
                        CRegex::star(CRegex::set(CharSet::any())),
                    ]);
                    Formula::and(vec![
                        def,
                        Formula::or(vec![Formula::eq_lit(s, ""), Formula::in_re(s, starts_with)]),
                    ])
                }
            },
            AssertionKind::WordBoundary | AssertionKind::NotWordBoundary => {
                let (Some(pre), Some(post)) = (prefix, suffix) else {
                    self.exact = false;
                    return Formula::top();
                };
                let (p, p_def) = self.concat_var(pre);
                let (s, s_def) = self.concat_var(post);
                let word = CharSet::from_class(&regex_syntax_es6::class::ClassSet::word());
                let non_word = word.complement();
                let any_star = CRegex::star(CRegex::set(CharSet::any()));
                let ends_nonword =
                    CRegex::concat(vec![any_star.clone(), CRegex::set(non_word.clone())]);
                let ends_word = CRegex::concat(vec![any_star.clone(), CRegex::set(word.clone())]);
                let starts_word = CRegex::concat(vec![CRegex::set(word), any_star.clone()]);
                let starts_nonword = CRegex::concat(vec![CRegex::set(non_word), any_star]);
                if kind == AssertionKind::WordBoundary {
                    // Table 2: boundary either way.
                    let disj = Formula::or(vec![
                        Formula::and(vec![
                            Formula::or(vec![
                                Formula::in_re(p, ends_nonword),
                                Formula::eq_lit(p, ""),
                            ]),
                            Formula::in_re(s, starts_word),
                        ]),
                        Formula::and(vec![
                            Formula::in_re(p, ends_word),
                            Formula::or(vec![
                                Formula::in_re(s, starts_nonword),
                                Formula::eq_lit(s, ""),
                            ]),
                        ]),
                    ]);
                    Formula::and(vec![p_def, s_def, disj])
                } else {
                    // Table 2 non-word boundary: the dual.
                    Formula::and(vec![
                        p_def,
                        s_def,
                        Formula::or(vec![
                            Formula::and(vec![
                                Formula::not_in_re(p, ends_nonword),
                                Formula::ne_lit(p, ""),
                            ]),
                            Formula::not_in_re(s, starts_word),
                        ]),
                        Formula::or(vec![
                            Formula::not_in_re(p, ends_word),
                            Formula::and(vec![
                                Formula::not_in_re(s, starts_nonword),
                                Formula::ne_lit(s, ""),
                            ]),
                        ]),
                    ])
                }
            }
        }
    }

    fn lookahead(
        &mut self,
        negative: bool,
        inner: &Ast,
        _prefix: Option<Vec<Term>>,
        suffix: Option<Vec<Term>>,
    ) -> Formula {
        // Unknown suffix context (inside a quantifier or another
        // lookahead's head): the remaining text is not represented by
        // any term, so the assertion cannot be stated. Treating it as
        // empty — the old behaviour — made the model too *strong*
        // (`(?=b)` with unknown context became `⊥`), risking unsound
        // Unsat; `⊤` plus the inexactness mark is the sound weakening.
        let Some(suffix_terms) = suffix else {
            self.exact = false;
            return Formula::top();
        };
        let (la, la_def) = self.concat_var(suffix_terms);
        if !negative {
            // Table 2: (la, caps) ∈ Lc(t₁.*): t₁ matches a prefix of the
            // remaining text; its captures persist. The head's own
            // trailing lookaheads scope into the rest variable.
            let u = self.pool.fresh_str();
            let v = self.pool.fresh_str();
            let inner_model = self.model(inner, u, None, Some(vec![Term::Var(v)]));
            Formula::and(vec![
                la_def,
                Formula::eq_concat(la, vec![Term::Var(u), Term::Var(v)]),
                inner_model,
                Formula::in_re(v, CRegex::star(CRegex::set(CharSet::any()))),
            ])
        } else {
            // Negative lookahead: la ∉ L(t₁.*); inner captures reset.
            let undefs = self.undef_all(inner);
            let opts = user_compile_options(self.flags);
            let assertion = match automata::compile_classical_into(
                &regex_syntax_es6::rewrite::strip_captures(inner),
                &opts,
                CRegex::star(CRegex::set(CharSet::any())),
            ) {
                Ok(lang) => Formula::not_in_re(la, lang),
                Err(_) => {
                    // Backreference inside a negative lookahead: negate
                    // the structural model (§4.4). The split variables
                    // stay existential under the negation, so this only
                    // requires *one* failing layout — a (sound)
                    // overapproximation of "no prefix matches", and an
                    // extra weakening beyond the base model.
                    self.exact = false;
                    let u = self.pool.fresh_str();
                    let v = self.pool.fresh_str();
                    let inner_model = self.model(inner, u, None, None);
                    crate::negate::nnf_negate(&Formula::and(vec![
                        Formula::eq_concat(la, vec![Term::Var(u), Term::Var(v)]),
                        inner_model,
                    ]))
                }
            };
            Formula::and(vec![la_def, undefs, assertion])
        }
    }

    /// Binds a fresh variable to the concatenation of `parts`,
    /// returning the variable and its defining constraint.
    fn concat_var(&mut self, parts: Vec<Term>) -> (StrVar, Formula) {
        let v = self.pool.fresh_str();
        let def = if parts.is_empty() {
            Formula::eq_lit(v, "")
        } else {
            Formula::eq_concat(v, parts)
        };
        (v, def)
    }

    // --- Quantification (Table 2 row 3, §4.1, Table 3 rows 3–5) ---------

    fn model_repeat(&mut self, body: &Ast, min: u32, max: Option<u32>, w: StrVar) -> Formula {
        if body.has_backref() {
            return self.model_backref_repeat(body, min, max, w);
        }
        match (min, max) {
            // t* — the Table 2 quantification rule.
            (0, None) => self.model_star(body, w),
            // t? → t|ε.
            (0, Some(1)) => {
                let matched = self.model(body, w, None, None);
                let skipped = Formula::and(vec![Formula::eq_lit(w, ""), self.undef_all(body)]);
                Formula::or(vec![matched, skipped])
            }
            // t+ → t*t (§4.1): captures come from the final copy.
            (1, None) => {
                let w1 = self.pool.fresh_str();
                let w2 = self.pool.fresh_str();
                let star = self.hat_star_constraint(body, w1);
                let last = self.model(body, w2, None, None);
                Formula::and(vec![
                    Formula::eq_concat(w, vec![Term::Var(w1), Term::Var(w2)]),
                    star,
                    last,
                ])
            }
            // t{m,} → m-1 shadow copies, then t+.
            (m, None) => {
                let m = m.min(self.cfg.max_repeat_expansion + 1);
                let mut terms = Vec::new();
                let mut conjuncts = Vec::new();
                for _ in 0..m.saturating_sub(1) {
                    let x = self.pool.fresh_str();
                    terms.push(Term::Var(x));
                    let f = self.model_shadow_copy(body, x);
                    conjuncts.push(f);
                }
                let w1 = self.pool.fresh_str();
                let w2 = self.pool.fresh_str();
                terms.push(Term::Var(w1));
                terms.push(Term::Var(w2));
                conjuncts.push(self.hat_star_constraint(body, w1));
                let last = self.model(body, w2, None, None);
                conjuncts.push(last);
                conjuncts.insert(0, Formula::eq_concat(w, terms));
                Formula::and(conjuncts)
            }
            // t{m,n} → tⁿ | … | tᵐ (§4.1).
            (m, Some(n)) => {
                if n.saturating_sub(m) > self.cfg.max_repeat_expansion || n > 16 {
                    // Classical fallback for large repetitions. Only
                    // sound for lookahead-free bodies: a per-iteration
                    // lookahead compiled fragment-locally can make the
                    // membership too strong (unsound Unsat), so those
                    // weaken to ⊤ instead.
                    self.exact = false;
                    if body.has_lookahead() {
                        return Formula::top();
                    }
                    let opts = user_compile_options(self.flags);
                    return match compile_classical(
                        &regex_syntax_es6::rewrite::strip_captures(body),
                        &opts,
                    ) {
                        Ok(re) => Formula::in_re(w, CRegex::repeat(re, m, Some(n))),
                        Err(_) => Formula::top(),
                    };
                }
                let mut branches = Vec::new();
                for j in (m..=n).rev() {
                    branches.push(self.repeat_branch(body, j, w));
                }
                Formula::or(branches)
            }
        }
    }

    /// One alternate of the §4.1 expansion: exactly `j` copies, with the
    /// canonical captures bound by the last copy.
    fn repeat_branch(&mut self, body: &Ast, j: u32, w: StrVar) -> Formula {
        if j == 0 {
            return Formula::and(vec![Formula::eq_lit(w, ""), self.undef_all(body)]);
        }
        let mut terms = Vec::new();
        let mut conjuncts = Vec::new();
        for _ in 0..j - 1 {
            let x = self.pool.fresh_str();
            terms.push(Term::Var(x));
            let f = self.model_shadow_copy(body, x);
            conjuncts.push(f);
        }
        let last = self.pool.fresh_str();
        terms.push(Term::Var(last));
        let f = self.model(body, last, None, None);
        conjuncts.push(f);
        conjuncts.insert(0, Formula::eq_concat(w, terms));
        Formula::and(conjuncts)
    }

    /// Models one *shadow* copy: capture groups bind fresh throwaway
    /// variables (they correspond to non-final copies of §4.1).
    fn model_shadow_copy(&mut self, body: &Ast, w: StrVar) -> Formula {
        let frame: HashMap<u32, CaptureVar> = body
            .capture_indices()
            .into_iter()
            .map(|i| (i, CaptureVar::fresh(self.pool)))
            .collect();
        self.shadow.push(frame);
        let f = self.model(body, w, None, None);
        self.shadow.pop();
        f
    }

    /// The Table 2 star rule.
    fn model_star(&mut self, body: &Ast, w: StrVar) -> Formula {
        let w1 = self.pool.fresh_str();
        let w2 = self.pool.fresh_str();
        let head = self.hat_star_constraint(body, w1);
        let last_model = self.model(body, w2, None, None);
        let undefs = self.undef_all(body);
        let undefs2 = undefs.clone();
        Formula::and(vec![
            Formula::eq_concat(w, vec![Term::Var(w1), Term::Var(w2)]),
            head,
            // (w2, C…) ∈ Lc(t₁|ε)
            Formula::or(vec![
                last_model,
                Formula::and(vec![Formula::eq_lit(w2, ""), undefs]),
            ]),
            // w2 = ε ⟹ w1 = ε ∧ C = ⊥
            Formula::or(vec![
                Formula::ne_lit(w2, ""),
                Formula::and(vec![Formula::eq_lit(w1, ""), undefs2]),
            ]),
        ])
    }

    /// `w1 ∈ L(t̂₁*)` when computable; `⊤` (inexact) otherwise.
    fn hat_star_constraint(&mut self, body: &Ast, w1: StrVar) -> Formula {
        match try_hat_star(body, self.flags) {
            Some(re) => Formula::in_re(w1, re),
            None => {
                self.exact = false;
                Formula::top()
            }
        }
    }

    // --- Backreferences (Table 3) ---------------------------------------

    fn model_backref(&mut self, k: u32, w: StrVar) -> Formula {
        if !self.closed.contains(&k) {
            // Empty type (Definition 2): forward or self reference.
            return Formula::eq_lit(w, "");
        }
        let cap = self.capvar(k);
        Formula::or(vec![
            Formula::and(vec![cap.undefined(), Formula::eq_lit(w, "")]),
            cap.defined_as(w),
        ])
    }

    /// Quantified contexts containing backreferences: the bounded
    /// expansion realizing Table 3 rows 3–5.
    ///
    /// In the default (paper) configuration every iteration is the *same*
    /// word (the immutable approximation, last row of Table 3): `w = xᵐ`
    /// with one shared copy variable `x`. With
    /// [`BuildConfig::sound_mutable_backrefs`], each iteration gets its
    /// own variable and shadow captures (sound up to the iteration
    /// bound).
    fn model_backref_repeat(
        &mut self,
        body: &Ast,
        min: u32,
        max: Option<u32>,
        w: StrVar,
    ) -> Formula {
        self.exact = false; // quantified backreference (§5.4)
        let hi = max
            .unwrap_or(u32::MAX)
            .min(min.saturating_add(self.cfg.max_backref_copies));
        let mut branches = Vec::new();
        for m in min..=hi {
            if m == 0 {
                branches.push(Formula::and(vec![
                    Formula::eq_lit(w, ""),
                    self.undef_all(body),
                ]));
                continue;
            }
            if self.cfg.sound_mutable_backrefs {
                // Distinct iterations with per-iteration shadow captures;
                // the final iteration binds the canonical captures.
                let mut terms = Vec::new();
                let mut conjuncts = Vec::new();
                for _ in 0..m - 1 {
                    let x = self.pool.fresh_str();
                    terms.push(Term::Var(x));
                    let f = self.model_shadow_copy(body, x);
                    conjuncts.push(f);
                }
                let last = self.pool.fresh_str();
                terms.push(Term::Var(last));
                let f = self.model(body, last, None, None);
                conjuncts.push(f);
                conjuncts.insert(0, Formula::eq_concat(w, terms));
                branches.push(Formula::and(conjuncts));
            } else {
                // Same-value expansion: all m iterations share one word.
                let x = self.pool.fresh_str();
                let f = self.model(body, x, None, None);
                branches.push(Formula::and(vec![
                    Formula::eq_concat(w, vec![Term::Var(x); m as usize]),
                    f,
                ]));
            }
        }
        // Escape disjunct: both the same-value restriction and the
        // iteration-count truncation *under*-approximate (the §4.3
        // example `^((a|b)\2)+$` matches "aabb" with different words
        // per iteration), and an under-approximating branch in a
        // positive model makes Unsat unsound — the differential
        // fuzzer's corpus pins that exact case. Admit every word the
        // true language could possibly produce (iterated
        // overapproximation of the body, captures unconstrained); the
        // CEGAR oracle rejects or repairs spurious witnesses.
        let truncated = max.is_none_or(|n| n > hi);
        if !self.cfg.sound_mutable_backrefs || truncated {
            let over = crate::classical::overapprox_fragment(body, &self.root, self.flags);
            branches.push(Formula::in_re(w, CRegex::repeat(over, min, None)));
        }
        Formula::or(branches)
    }

    // --- Capture variable resolution -------------------------------------

    /// Resolves group `index` through shadow frames to its variable.
    fn capvar(&mut self, index: u32) -> CaptureVar {
        for frame in self.shadow.iter().rev() {
            if let Some(cap) = frame.get(&index) {
                return *cap;
            }
        }
        self.captures[(index - 1) as usize]
    }
}
