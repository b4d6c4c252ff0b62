//! Classical regular expressions extended with intersection and
//! complement.
//!
//! [`CRegex`] is the target language of the capturing-language models:
//! backreference-free, capture-free, assertion-free expressions whose
//! word problem the string solver decides via automata. Intersection
//! (`And`) and complement (`Not`) are included because lookaheads encode
//! language intersection (§2.4 of the paper) and non-membership
//! constraints need complements; both are eliminated during DFA
//! compilation.

use std::fmt;
use std::sync::Arc;

use regex_syntax_es6::ast::Ast;

use crate::charset::CharSet;

/// A classical regular expression over [`CharSet`] transitions, with
/// intersection and complement.
///
/// # Examples
///
/// ```
/// use automata::{CRegex, CharSet};
///
/// // goo+d
/// let re = CRegex::concat(vec![
///     CRegex::lit("go"),
///     CRegex::plus(CRegex::set(CharSet::single('o'))),
///     CRegex::lit("d"),
/// ]);
/// assert_eq!(re.to_string(), "gooo*d");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CRegex {
    /// The empty language `∅`.
    EmptySet,
    /// The language `{ε}`.
    Epsilon,
    /// One character drawn from a set.
    Set(CharSet),
    /// Concatenation.
    Concat(Vec<CRegex>),
    /// Union.
    Alt(Vec<CRegex>),
    /// Kleene star.
    Star(Arc<CRegex>),
    /// Language intersection (eliminated by DFA product).
    And(Vec<CRegex>),
    /// Language complement (eliminated by DFA complement).
    Not(Arc<CRegex>),
}

impl CRegex {
    /// A literal string.
    pub fn lit(s: &str) -> CRegex {
        let items: Vec<CRegex> = s.chars().map(|c| CRegex::Set(CharSet::single(c))).collect();
        match items.len() {
            0 => CRegex::Epsilon,
            1 => items.into_iter().next().expect("one item"),
            _ => CRegex::Concat(items),
        }
    }

    /// One character from `set`; the empty set yields `∅`.
    pub fn set(set: CharSet) -> CRegex {
        if set.is_empty() {
            CRegex::EmptySet
        } else {
            CRegex::Set(set)
        }
    }

    /// Any single character.
    pub fn any_char() -> CRegex {
        CRegex::Set(CharSet::any())
    }

    /// `.*` over the full alphabet.
    pub fn anything() -> CRegex {
        CRegex::star(CRegex::any_char())
    }

    /// Smart concatenation: flattens, drops `ε`, propagates `∅`.
    pub fn concat(items: Vec<CRegex>) -> CRegex {
        let mut flat = Vec::with_capacity(items.len());
        for item in items {
            match item {
                CRegex::Epsilon => {}
                CRegex::EmptySet => return CRegex::EmptySet,
                CRegex::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => CRegex::Epsilon,
            1 => flat.pop().expect("one item"),
            _ => CRegex::Concat(flat),
        }
    }

    /// Smart union: flattens and drops `∅` branches.
    pub fn alt(items: Vec<CRegex>) -> CRegex {
        let mut flat = Vec::with_capacity(items.len());
        for item in items {
            match item {
                CRegex::EmptySet => {}
                CRegex::Alt(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        flat.dedup();
        match flat.len() {
            0 => CRegex::EmptySet,
            1 => flat.pop().expect("one item"),
            _ => CRegex::Alt(flat),
        }
    }

    /// Kleene star with trivial simplifications.
    pub fn star(item: CRegex) -> CRegex {
        match item {
            CRegex::EmptySet | CRegex::Epsilon => CRegex::Epsilon,
            star @ CRegex::Star(_) => star,
            other => CRegex::Star(Arc::new(other)),
        }
    }

    /// `r+` as `rr*`.
    pub fn plus(item: CRegex) -> CRegex {
        CRegex::concat(vec![item.clone(), CRegex::star(item)])
    }

    /// `r?` as `r|ε`.
    pub fn opt(item: CRegex) -> CRegex {
        CRegex::alt(vec![item, CRegex::Epsilon])
    }

    /// Intersection.
    pub fn and(items: Vec<CRegex>) -> CRegex {
        let mut flat = Vec::with_capacity(items.len());
        for item in items {
            match item {
                CRegex::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => CRegex::anything(),
            1 => flat.pop().expect("one item"),
            _ => CRegex::And(flat),
        }
    }

    /// Complement.
    #[allow(clippy::should_implement_trait)] // constructor family: star/plus/opt/not
    pub fn not(item: CRegex) -> CRegex {
        match item {
            CRegex::Not(inner) => Arc::unwrap_or_clone(inner),
            other => CRegex::Not(Arc::new(other)),
        }
    }

    /// Bounded repetition `r{min,max}` (unrolled).
    pub fn repeat(item: CRegex, min: u32, max: Option<u32>) -> CRegex {
        let mut parts = vec![item.clone(); min as usize];
        match max {
            None => parts.push(CRegex::star(item)),
            Some(max) => {
                for _ in min..max {
                    parts.push(CRegex::opt(item.clone()));
                }
            }
        }
        CRegex::concat(parts)
    }

    /// True if `ε` is in the language (conservative for `And`/`Not`:
    /// exact, computed structurally).
    pub fn nullable(&self) -> bool {
        match self {
            CRegex::EmptySet => false,
            CRegex::Epsilon | CRegex::Star(_) => true,
            CRegex::Set(_) => false,
            CRegex::Concat(items) => items.iter().all(CRegex::nullable),
            CRegex::Alt(items) => items.iter().any(CRegex::nullable),
            CRegex::And(items) => items.iter().all(CRegex::nullable),
            CRegex::Not(inner) => !inner.nullable(),
        }
    }

    /// Collects every [`CharSet`] used in the expression, for alphabet
    /// (minterm) construction.
    pub fn collect_sets(&self, out: &mut Vec<CharSet>) {
        match self {
            CRegex::Set(set) => out.push(set.clone()),
            CRegex::Concat(items) | CRegex::Alt(items) | CRegex::And(items) => {
                for item in items {
                    item.collect_sets(out);
                }
            }
            CRegex::Star(inner) | CRegex::Not(inner) => inner.collect_sets(out),
            _ => {}
        }
    }

    /// [`CRegex::collect_sets`] without the clones: borrows every
    /// [`CharSet`] of the expression, in the same order.
    pub fn collect_set_refs<'r>(&'r self, out: &mut Vec<&'r CharSet>) {
        match self {
            CRegex::Set(set) => out.push(set),
            CRegex::Concat(items) | CRegex::Alt(items) | CRegex::And(items) => {
                for item in items {
                    item.collect_set_refs(out);
                }
            }
            CRegex::Star(inner) | CRegex::Not(inner) => inner.collect_set_refs(out),
            _ => {}
        }
    }

    /// True if the expression contains `And` or `Not` (requiring DFA
    /// operations to compile).
    pub fn has_boolean_ops(&self) -> bool {
        match self {
            CRegex::And(_) | CRegex::Not(_) => true,
            CRegex::Concat(items) | CRegex::Alt(items) => items.iter().any(CRegex::has_boolean_ops),
            CRegex::Star(inner) => inner.has_boolean_ops(),
            _ => false,
        }
    }
}

impl fmt::Display for CRegex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CRegex::EmptySet => write!(f, "∅"),
            CRegex::Epsilon => write!(f, "ε"),
            CRegex::Set(set) => {
                if set.len() == 1 {
                    let c = set.pick().expect("nonempty");
                    if c.is_ascii_graphic() || c == ' ' {
                        return write!(f, "{c}");
                    }
                }
                write!(f, "[")?;
                for (shown, &(lo, hi)) in set.ranges().iter().enumerate() {
                    if shown >= 4 {
                        write!(f, "…")?;
                        break;
                    }
                    let lo_c = char::from_u32(lo).unwrap_or('?');
                    let hi_c = char::from_u32(hi).unwrap_or('?');
                    if lo == hi {
                        write!(f, "{}", printable(lo_c))?;
                    } else {
                        write!(f, "{}-{}", printable(lo_c), printable(hi_c))?;
                    }
                }
                write!(f, "]")
            }
            CRegex::Concat(items) => {
                for item in items {
                    match item {
                        CRegex::Alt(_) => write!(f, "({item})")?,
                        _ => write!(f, "{item}")?,
                    }
                }
                Ok(())
            }
            CRegex::Alt(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{item}")?;
                }
                Ok(())
            }
            CRegex::Star(inner) => match &**inner {
                CRegex::Set(_) | CRegex::Epsilon => write!(f, "{inner}*"),
                _ => write!(f, "({inner})*"),
            },
            CRegex::And(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, "&")?;
                    }
                    write!(f, "({item})")?;
                }
                Ok(())
            }
            CRegex::Not(inner) => write!(f, "¬({inner})"),
        }
    }
}

fn printable(c: char) -> String {
    if c.is_ascii_graphic() || c == ' ' {
        c.to_string()
    } else {
        format!("u{:04X}", c as u32)
    }
}

/// Error converting an ES6 AST to a classical regex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotClassical {
    /// Description of the offending construct.
    pub construct: &'static str,
}

impl fmt::Display for NotClassical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex is not classical: contains {}", self.construct)
    }
}

impl std::error::Error for NotClassical {}

/// Options for classical compilation.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Characters excluded from `.` and negated classes — the ⟨/⟩
    /// meta-characters of Algorithm 2, which must never be produced by
    /// user-regex wildcards.
    pub exclude: CharSet,
    /// Apply the `i` flag by case-expanding literals and classes.
    pub ignore_case: bool,
    /// Apply the `s` flag: `.` also matches line terminators.
    pub dot_all: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            exclude: CharSet::empty(),
            ignore_case: false,
            dot_all: false,
        }
    }
}

/// Compiles a capture-free, backreference-free, assertion-free ES6 AST
/// into a classical regex.
///
/// Equivalent to [`compile_classical_into`] with an ε continuation:
/// the result is the language of words the pattern matches *entirely,
/// with nothing following* — so a trailing `(?=a)` correctly yields the
/// empty language (no input remains for the lookahead to inspect), and
/// a trailing `(?!a)` is a no-op.
///
/// Capture groups are accepted and compiled transparently (their
/// grouping is classical). Anchors, word boundaries and backreferences
/// are rejected — the model layer eliminates those first.
///
/// # Errors
///
/// Returns [`NotClassical`] when the AST contains backreferences, word
/// boundaries, anchors, or a lookahead under an unbounded (or large)
/// quantifier — lookahead scoping across iterations is not expressible
/// by syntactic composition.
pub fn compile_classical(ast: &Ast, opts: &CompileOptions) -> Result<CRegex, NotClassical> {
    compile_classical_into(ast, opts, CRegex::Epsilon)
}

/// Largest bounded-repetition count unrolled when the body contains a
/// lookahead (each iteration must see its true continuation).
const LOOKAHEAD_UNROLL_LIMIT: u32 = 12;

/// Compiles `ast ⋅ k` — the pattern followed by the continuation
/// language `k` — with lookaheads scoping over the *actual*
/// continuation rather than the end of the fragment.
///
/// This is the sound form of classical lookahead compilation: in
/// `a(?=b)` the assertion inspects whatever follows the fragment, so
/// its compilation needs `k`. (The former fragment-local treatment cut
/// the assertion's scope at the end of the compiled subtree, which both
/// over- and under-approximated; the differential fuzzer found both
/// directions within 200 seeds.)
///
/// `(?=A)` becomes `L(A ⋅ Σ*) ∩ k` and `(?!A)` becomes `¬L(A ⋅ Σ*) ∩ k`
/// — `A` itself threaded into `Σ*`, since a lookahead's own trailing
/// lookaheads scope into the unconstrained future. A lookahead under a
/// *bounded* quantifier is unrolled (each copy sees the following
/// copies); under an unbounded one compilation is refused rather than
/// miscompiled.
///
/// # Errors
///
/// [`NotClassical`] as for [`compile_classical`].
pub fn compile_classical_into(
    ast: &Ast,
    opts: &CompileOptions,
    k: CRegex,
) -> Result<CRegex, NotClassical> {
    // Lookahead-free subtrees are context-independent: compile them
    // fragment-locally (linear) and append the continuation once.
    // Threading `k` through them instead would clone it per Alt branch
    // — exponential in sequential alternations for patterns that never
    // needed the continuation at all.
    if !ast.has_lookahead() {
        let plain = compile_plain(ast, opts)?;
        return Ok(CRegex::concat(vec![plain, k]));
    }
    Ok(match ast {
        Ast::Group { ast, .. } | Ast::NonCapturing(ast) => compile_classical_into(ast, opts, k)?,
        Ast::Lookahead { negative, ast } => {
            // The assertion constrains the remaining word: a prefix in
            // L(A), anything after. Nested trailing lookaheads inside A
            // scope into that unconstrained future.
            let assertion = compile_classical_into(ast, opts, CRegex::anything())?;
            let assertion = if *negative {
                CRegex::not(assertion)
            } else {
                assertion
            };
            CRegex::and(vec![assertion, k])
        }
        Ast::Repeat { ast, min, max, .. } => {
            // The body contains a lookahead (the lookahead-free case
            // took the fragment-local fast path above), so iterations
            // must see their true continuations — unroll bounded
            // counts, refuse unbounded ones.
            let Some(n) = *max else {
                return Err(NotClassical {
                    construct: "lookahead under unbounded repetition",
                });
            };
            if n > LOOKAHEAD_UNROLL_LIMIT {
                return Err(NotClassical {
                    construct: "lookahead under large bounded repetition",
                });
            }
            // Unroll: body^j ⋅ k for j in min..=n, each iteration
            // threaded into the following ones.
            let mut tail = k.clone();
            let mut branches = Vec::with_capacity((n - *min) as usize + 1);
            if *min == 0 {
                branches.push(tail.clone());
            }
            for j in 1..=n {
                tail = compile_classical_into(ast, opts, tail)?;
                if j >= *min {
                    branches.push(tail.clone());
                }
            }
            CRegex::alt(branches)
        }
        Ast::Alt(items) => CRegex::alt(
            items
                .iter()
                .map(|i| compile_classical_into(i, opts, k.clone()))
                .collect::<Result<_, _>>()?,
        ),
        Ast::Concat(items) => {
            // Right fold: every item sees the language of what follows.
            let mut acc = k;
            for item in items.iter().rev() {
                acc = compile_classical_into(item, opts, acc)?;
            }
            acc
        }
        // Leaves cannot contain lookaheads; the fast path handled them.
        _ => unreachable!("leaf nodes contain no lookahead"),
    })
}

/// Fragment-local compilation of a *lookahead-free* classical AST —
/// the linear workhorse behind [`compile_classical_into`]'s fast path.
fn compile_plain(ast: &Ast, opts: &CompileOptions) -> Result<CRegex, NotClassical> {
    Ok(match ast {
        Ast::Empty => CRegex::Epsilon,
        Ast::Literal(c) => {
            if opts.ignore_case {
                // Variants join the set only when Canonicalize-equal
                // under the same non-unicode rule the matcher applies —
                // `ſ` must not drag ASCII `S` in (a non-ASCII character
                // whose uppercase is ASCII canonicalizes to itself).
                use regex_syntax_es6::class::{canonicalize_simple, simple_case_variants};
                let mut set = CharSet::single(*c);
                for v in simple_case_variants(*c) {
                    if canonicalize_simple(v) == canonicalize_simple(*c) {
                        set = set.union(&CharSet::single(v));
                    }
                }
                CRegex::set(set)
            } else {
                CRegex::Set(CharSet::single(*c))
            }
        }
        Ast::Dot => {
            let base = if opts.dot_all {
                CharSet::any()
            } else {
                let terminators =
                    CharSet::from_ranges(vec![(0x0A, 0x0A), (0x0D, 0x0D), (0x2028, 0x2029)]);
                CharSet::any().difference(&terminators)
            };
            CRegex::set(base.difference(&opts.exclude))
        }
        Ast::Class(class) => {
            let class = if opts.ignore_case {
                class.case_insensitive()
            } else {
                class.clone()
            };
            let set = CharSet::from_class(&class);
            // Negated classes could admit the meta-characters.
            CRegex::set(set.difference(&opts.exclude))
        }
        Ast::Assertion(_) => {
            return Err(NotClassical {
                construct: "anchor or word boundary",
            })
        }
        Ast::Group { ast, .. } | Ast::NonCapturing(ast) => compile_plain(ast, opts)?,
        Ast::Lookahead { .. } => unreachable!("caller guarantees a lookahead-free subtree"),
        Ast::Repeat { ast, min, max, .. } => CRegex::repeat(compile_plain(ast, opts)?, *min, *max),
        Ast::Alt(items) => CRegex::alt(
            items
                .iter()
                .map(|i| compile_plain(i, opts))
                .collect::<Result<_, _>>()?,
        ),
        Ast::Concat(items) => CRegex::concat(
            items
                .iter()
                .map(|i| compile_plain(i, opts))
                .collect::<Result<_, _>>()?,
        ),
        Ast::Backref(_) => {
            return Err(NotClassical {
                construct: "backreference",
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regex_syntax_es6::parse;

    fn compile(pattern: &str) -> CRegex {
        compile_classical(&parse(pattern).expect("parse"), &CompileOptions::default())
            .expect("classical")
    }

    #[test]
    fn literal_compilation() {
        assert_eq!(CRegex::lit("ab").to_string(), "ab");
    }

    #[test]
    fn smart_constructors_simplify() {
        assert_eq!(
            CRegex::concat(vec![CRegex::Epsilon, CRegex::lit("a")]),
            CRegex::lit("a")
        );
        assert_eq!(
            CRegex::concat(vec![CRegex::EmptySet, CRegex::lit("a")]),
            CRegex::EmptySet
        );
        assert_eq!(CRegex::alt(vec![CRegex::EmptySet]), CRegex::EmptySet);
        assert_eq!(CRegex::star(CRegex::Epsilon), CRegex::Epsilon);
    }

    #[test]
    fn nullable() {
        assert!(compile("a*").nullable());
        assert!(!compile("a+").nullable());
        assert!(compile("a|").nullable());
        assert!(!CRegex::not(CRegex::anything()).nullable());
    }

    #[test]
    fn rejects_non_classical() {
        let opts = CompileOptions::default();
        assert!(compile_classical(&parse(r"(a)\1").expect("parse"), &opts).is_err());
        assert!(compile_classical(&parse(r"\bfoo").expect("parse"), &opts).is_err());
        assert!(compile_classical(&parse("^a").expect("parse"), &opts).is_err());
    }

    #[test]
    fn captures_compile_transparently() {
        assert_eq!(compile("(ab)c"), compile("(?:ab)c"));
    }

    #[test]
    fn lookahead_becomes_intersection() {
        let re = compile("(?=ab)a.");
        assert!(re.has_boolean_ops());
    }

    #[test]
    fn dot_excludes_meta_chars() {
        let opts = CompileOptions {
            exclude: CharSet::single('\u{E000}'),
            ..CompileOptions::default()
        };
        let re = compile_classical(&parse(".").expect("parse"), &opts).expect("classical");
        match re {
            CRegex::Set(set) => {
                assert!(!set.contains('\u{E000}'));
                assert!(set.contains('x'));
                assert!(!set.contains('\n'));
            }
            other => panic!("expected set, got {other:?}"),
        }
    }

    #[test]
    fn ignore_case_expands() {
        let opts = CompileOptions {
            ignore_case: true,
            ..CompileOptions::default()
        };
        let re = compile_classical(&parse("a").expect("parse"), &opts).expect("classical");
        match re {
            CRegex::Set(set) => {
                assert!(set.contains('a') && set.contains('A'));
            }
            other => panic!("expected set, got {other:?}"),
        }
    }

    #[test]
    fn repeat_unrolls() {
        let re = CRegex::repeat(CRegex::lit("a"), 2, Some(3));
        // aa(a|ε)
        assert!(!re.nullable());
    }

    #[test]
    fn collect_set_refs_borrows_what_collect_sets_clones() {
        let re = compile("(?![0-9])[a-z]+x|y*");
        let (mut owned, mut borrowed) = (Vec::new(), Vec::new());
        re.collect_sets(&mut owned);
        re.collect_set_refs(&mut borrowed);
        assert_eq!(owned.iter().collect::<Vec<_>>(), borrowed);
    }

    #[test]
    fn collect_sets_finds_all() {
        let mut sets = Vec::new();
        compile("[a-z]+[0-9]").collect_sets(&mut sets);
        assert_eq!(sets.len(), 3); // [a-z] twice (plus unrolling) + [0-9]
    }
}
