//! Word-language compilation helpers.
//!
//! Two services on top of [`automata::compile_classical`]:
//!
//! * [`try_wrapped_word_language`] — the *exact* word language of the
//!   Algorithm 2 wrapping `(?:.|\n)*?(R)(?:.|\n)*?` over marked input
//!   `⟨input⟩`, available when `R` is backreference-free and uses anchors
//!   only at its top level. Under the `m` flag those anchors test one
//!   character of context (a line terminator or a marker), so the
//!   language stays classical. Used for exact non-membership constraints
//!   (`∀C: (w, C) ∉ Lc(R)` reduces to `w ∉ L(...)` because captures do
//!   not affect the word language).
//! * [`overapprox_word_regex`] — a total overapproximation of the same
//!   language for *any* ES6 regex (backreferences become optional copies
//!   of their groups, lookarounds and inner anchors weaken to `ε`).
//!   Conjoined to positive membership queries as a *necessary* condition,
//!   it steers the solver's word enumeration toward matching inputs
//!   without affecting the model's meaning.

use automata::{compile_classical, CRegex, CharSet, CompileOptions};
use regex_syntax_es6::ast::{AssertionKind, Ast};
use regex_syntax_es6::rewrite::strip_captures;
use regex_syntax_es6::Flags;

use crate::meta::{line_terminators, INPUT_END, INPUT_START};

/// Compile options for user regexes: meta-characters are excluded from
/// wildcards and negated classes, and flags are applied.
pub fn user_compile_options(flags: Flags) -> CompileOptions {
    CompileOptions {
        exclude: crate::meta::meta_set(),
        ignore_case: flags.ignore_case,
        dot_all: flags.dot_all,
    }
}

/// Any character, including the meta-characters (the wrapper wildcard
/// `(?:.|\n)*?` of Algorithm 2 must be able to consume the markers).
pub fn wrapper_wildcard() -> CRegex {
    CRegex::star(CRegex::set(CharSet::any()))
}

/// `Σ*` over characters excluding the meta-characters.
pub fn no_meta_star() -> CRegex {
    CRegex::star(CRegex::set(
        CharSet::any().difference(&crate::meta::meta_set()),
    ))
}

/// Splits a top-level concatenation into (leading `^`?, body, trailing
/// `$`?). Returns `None` if anchors appear anywhere else.
fn split_top_anchors(ast: &Ast) -> Option<(bool, Vec<Ast>, bool)> {
    let items: Vec<Ast> = match ast {
        Ast::Concat(items) => items.clone(),
        other => vec![other.clone()],
    };
    let mut start = false;
    let mut end = false;
    let mut body = items.as_slice();
    if let Some(Ast::Assertion(AssertionKind::StartAnchor)) = body.first() {
        start = true;
        body = &body[1..];
    }
    if let Some(Ast::Assertion(AssertionKind::EndAnchor)) = body.last() {
        end = true;
        body = &body[..body.len() - 1];
    }
    if body.iter().any(Ast::has_assertion) {
        return None;
    }
    Some((start, body.to_vec(), end))
}

/// The wrapper's left and right contexts around the body: what
/// Algorithm 2's wildcards may consume before and after the match,
/// given the body's top-level anchors.
///
/// Unanchored, the wrapper consumes `⟨·Σ'*` and `Σ'*·⟩`, where Σ'
/// excludes the markers. A top-level `^` leaves only `⟨`, and `$` only
/// `⟩`. Under `m` an anchor is a one-character context test — "at
/// input start or after a LineTerminator", "at input end or before
/// one" — so `^` becomes `⟨·(Σ'*·LT)?` and `$` becomes `(LT·Σ'*)?·⟩`.
fn wrapper_contexts(anchored_start: bool, anchored_end: bool, flags: Flags) -> (CRegex, CRegex) {
    let start_marker = CRegex::set(CharSet::single(INPUT_START));
    let end_marker = CRegex::set(CharSet::single(INPUT_END));
    let line_break = || CRegex::set(line_terminators());
    let left = match (anchored_start, flags.multiline) {
        (false, _) => vec![start_marker, no_meta_star()],
        (true, false) => vec![start_marker],
        (true, true) => vec![
            start_marker,
            CRegex::opt(CRegex::concat(vec![no_meta_star(), line_break()])),
        ],
    };
    let right = match (anchored_end, flags.multiline) {
        (false, _) => vec![no_meta_star(), end_marker],
        (true, false) => vec![end_marker],
        (true, true) => vec![
            CRegex::opt(CRegex::concat(vec![line_break(), no_meta_star()])),
            end_marker,
        ],
    };
    (CRegex::concat(left), CRegex::concat(right))
}

/// The exact word language of the wrapped pattern over marked input, if
/// computable classically.
///
/// Returns `None` when the regex contains backreferences, word
/// boundaries, or anchors below the top level.
pub fn try_wrapped_word_language(ast: &Ast, flags: Flags) -> Option<CRegex> {
    if ast.has_backref() {
        return None;
    }
    let (anchored_start, body, anchored_end) = split_top_anchors(ast)?;
    let (left, right) = wrapper_contexts(anchored_start, anchored_end, flags);
    // The body is compiled *into* the rest-of-word language so that
    // lookaheads in (or at the end of) the body inspect the real
    // continuation — the suffix and the `⟩` marker, which correctly
    // plays "end of input" because no user atom can consume it.
    let body = strip_captures(&Ast::concat(body));
    let inner_and_right =
        automata::compile_classical_into(&body, &user_compile_options(flags), right).ok()?;
    Some(CRegex::concat(vec![left, inner_and_right]))
}

/// A total overapproximation of the wrapped word language, used to guide
/// word enumeration for positive membership queries.
pub fn overapprox_word_regex(ast: &Ast, flags: Flags) -> CRegex {
    let (anchored_start, body, anchored_end) = match split_top_anchors(ast) {
        Some(split) => split,
        // Anchors in odd positions: ignore anchoring (overapproximate).
        None => (false, vec![ast.clone()], false),
    };
    let inner = overapprox_body(&Ast::concat(body), ast, &user_compile_options(flags), 0);
    let (left, right) = wrapper_contexts(anchored_start, anchored_end, flags);
    CRegex::concat(vec![left, inner, right])
}

/// Overapproximates an arbitrary AST fragment as a classical regex
/// over the *user* alphabet (no input markers): assertions and
/// lookarounds weaken to `ε`, backreferences to an optional copy of the
/// referenced group's language (resolved against `root`). The result is
/// a necessary condition on the fragment's matched word — safe to
/// conjoin positively, or to use as the word language of an escape
/// disjunct that restores overapproximation to an otherwise truncated
/// expansion (quantified mutable backreferences, Table 3).
pub fn overapprox_fragment(ast: &Ast, root: &Ast, flags: Flags) -> CRegex {
    overapprox_body(ast, root, &user_compile_options(flags), 0)
}

/// Overapproximates an arbitrary AST as a classical regex: assertions
/// and lookarounds weaken to `ε`, backreferences to an optional copy of
/// the referenced group's language.
fn overapprox_body(ast: &Ast, root: &Ast, opts: &CompileOptions, depth: u32) -> CRegex {
    match ast {
        Ast::Empty => CRegex::Epsilon,
        Ast::Assertion(_) | Ast::Lookahead { .. } => CRegex::Epsilon,
        Ast::Backref(k) => {
            if depth >= 4 {
                // Self-referential chains: fall back to ε|anything-ish;
                // ε alone would underapproximate, so use the loosest
                // sound choice for a necessary condition: Σ*.
                return no_meta_star();
            }
            match find_group(root, *k) {
                // A backreference matches ε (group undefined) or a word
                // from (an overapproximation of) the group's language.
                Some(group_body) => {
                    CRegex::opt(overapprox_body(&group_body, root, opts, depth + 1))
                }
                None => CRegex::Epsilon,
            }
        }
        Ast::Group { ast, .. } | Ast::NonCapturing(ast) => overapprox_body(ast, root, opts, depth),
        Ast::Repeat { ast, min, max, .. } => {
            CRegex::repeat(overapprox_body(ast, root, opts, depth), *min, *max)
        }
        Ast::Alt(items) => CRegex::alt(
            items
                .iter()
                .map(|i| overapprox_body(i, root, opts, depth))
                .collect(),
        ),
        Ast::Concat(items) => CRegex::concat(
            items
                .iter()
                .map(|i| overapprox_body(i, root, opts, depth))
                .collect(),
        ),
        // Leaf cases are classical already.
        leaf => compile_classical(leaf, opts).unwrap_or_else(|_| no_meta_star()),
    }
}

/// Finds the body of capture group `k`.
fn find_group(ast: &Ast, k: u32) -> Option<Ast> {
    match ast {
        Ast::Group { index, ast } if *index == k => Some((**ast).clone()),
        Ast::Group { ast, .. } | Ast::NonCapturing(ast) | Ast::Lookahead { ast, .. } => {
            find_group(ast, k)
        }
        Ast::Repeat { ast, .. } => find_group(ast, k),
        Ast::Alt(items) | Ast::Concat(items) => items.iter().find_map(|i| find_group(i, k)),
        _ => None,
    }
}

/// `t̂₁*` of the Table 2 quantification rule: the classical star of the
/// capture-stripped body, when it is classical.
///
/// Lookaheads are refused along with backreferences and assertions: a
/// lookahead inside one iteration scopes over the *following*
/// iterations (and beyond), which the syntactic star cannot express —
/// compiling it fragment-locally produced constraints that were too
/// strong, i.e. unsound `Unsat`s. Callers treat `None` as `⊤` and mark
/// the model inexact.
pub fn try_hat_star(body: &Ast, flags: Flags) -> Option<CRegex> {
    if body.has_backref() || body.has_assertion() || body.has_lookahead() {
        return None;
    }
    let opts = user_compile_options(flags);
    compile_classical(&strip_captures(body), &opts)
        .ok()
        .map(CRegex::star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::wrap_input;
    use automata::{Alphabet, Dfa};
    use regex_syntax_es6::parse;
    use std::sync::Arc;

    fn dfa_of(re: &CRegex) -> Dfa {
        let mut sets = Vec::new();
        re.collect_sets(&mut sets);
        let alphabet = Arc::new(Alphabet::from_sets(&sets));
        Dfa::from_cregex(re, &alphabet)
    }

    #[test]
    fn unanchored_word_language() {
        let ast = parse("goo+d").expect("parse");
        let re = try_wrapped_word_language(&ast, Flags::empty()).expect("classical");
        let dfa = dfa_of(&re);
        assert!(dfa.contains(&wrap_input("so goood")));
        assert!(!dfa.contains(&wrap_input("god")));
    }

    #[test]
    fn anchored_word_language() {
        let ast = parse("^[0-9]+$").expect("parse");
        let re = try_wrapped_word_language(&ast, Flags::empty()).expect("classical");
        let dfa = dfa_of(&re);
        assert!(dfa.contains(&wrap_input("123")));
        assert!(!dfa.contains(&wrap_input("x123")));
        assert!(!dfa.contains(&wrap_input("123x")));
        assert!(!dfa.contains(&wrap_input("")));
    }

    #[test]
    fn start_anchor_only() {
        let ast = parse("^ab").expect("parse");
        let re = try_wrapped_word_language(&ast, Flags::empty()).expect("classical");
        let dfa = dfa_of(&re);
        assert!(dfa.contains(&wrap_input("abc")));
        assert!(!dfa.contains(&wrap_input("xab")));
    }

    #[test]
    fn backrefs_are_not_classical() {
        let ast = parse(r"(a)\1").expect("parse");
        assert!(try_wrapped_word_language(&ast, Flags::empty()).is_none());
    }

    #[test]
    fn inner_anchor_rejected() {
        let ast = parse("a(?:^b)?").expect("parse");
        assert!(try_wrapped_word_language(&ast, Flags::empty()).is_none());
    }

    #[test]
    fn overapprox_contains_all_matches() {
        // The overapproximation must accept every truly matching input.
        let ast = parse(r"<(\w+)>([0-9]*)<\/\1>").expect("parse");
        let re = overapprox_word_regex(&ast, Flags::empty());
        let dfa = dfa_of(&re);
        assert!(dfa.contains(&wrap_input("<a>1</a>")));
        assert!(dfa.contains(&wrap_input("xx<tag>99</tag>yy")));
        // It may also accept non-matches (it is an overapproximation):
        assert!(dfa.contains(&wrap_input("<a>1</b>")));
        // But it must still prune grossly wrong words.
        assert!(!dfa.contains(&wrap_input("no tags at all")));
    }

    #[test]
    fn overapprox_with_anchors() {
        let ast = parse("^a+$").expect("parse");
        let re = overapprox_word_regex(&ast, Flags::empty());
        let dfa = dfa_of(&re);
        assert!(dfa.contains(&wrap_input("aaa")));
        assert!(!dfa.contains(&wrap_input("baa")));
    }

    const LINE_TERMINATORS: [char; 4] = ['\n', '\r', '\u{2028}', '\u{2029}'];

    /// Asserts the wrapped word language of `/pattern/flags` on inputs
    /// where `~` stands for the line terminator `lt`, after checking
    /// each expectation against the concrete matcher.
    fn assert_language(pattern: &str, flags: &str, lt: char, accepts: &[&str], rejects: &[&str]) {
        let ast = parse(pattern).expect("parse");
        let re = try_wrapped_word_language(&ast, flags.parse().expect("flags")).expect("classical");
        let dfa = dfa_of(&re);
        let mut oracle = es6_matcher::RegExp::new(pattern, flags).expect("regexp");
        for (inputs, expected) in [(accepts, true), (rejects, false)] {
            for input in inputs.iter().map(|t| t.replace('~', &lt.to_string())) {
                let context = format!("/{pattern}/{flags} on {input:?}");
                assert_eq!(oracle.test(&input), expected, "matcher: {context}");
                assert_eq!(
                    dfa.contains(&wrap_input(&input)),
                    expected,
                    "language: {context}"
                );
            }
        }
    }

    #[test]
    fn multiline_anchors_are_line_contexts() {
        let lines = ["x~ab", "ab~x", "ab"];
        for lt in LINE_TERMINATORS {
            assert_language("^ab$", "m", lt, &lines, &["xab", "abx", "a~b"]);
            assert_language("^ab", "m", lt, &lines, &["xab", "a~b"]);
            assert_language("ab$", "m", lt, &lines, &["abx", "a~b"]);
        }
    }

    #[test]
    fn multiline_anchors_with_ignore_case_and_dot_all() {
        for lt in LINE_TERMINATORS {
            assert_language(
                "^AB$",
                "im",
                lt,
                &["x~ab", "aB~x", "Ab"],
                &["xab", "abx", "a~b"],
            );
            // Without `s` the dot stops at a line terminator; with it,
            // the dot may consume one while the anchors still see lines.
            assert_language("^a.b$", "m", lt, &["x~axb", "axb~"], &["a~b", "xaxb"]);
            assert_language("^a.b$", "ms", lt, &["a~b", "x~a~b~y"], &["xa~b", "a~bx"]);
        }
    }

    #[test]
    fn multiline_inner_anchor_rejected() {
        let ast = parse("(?:^a|b)").expect("parse");
        assert!(try_wrapped_word_language(&ast, "m".parse().expect("flags")).is_none());
    }

    #[test]
    fn multiline_overapprox_keeps_line_contexts() {
        let ast = parse("^a+$").expect("parse");
        let re = overapprox_word_regex(&ast, "m".parse().expect("flags"));
        let dfa = dfa_of(&re);
        assert!(!dfa.contains(&wrap_input("baa")));
        for lt in LINE_TERMINATORS {
            assert!(dfa.contains(&wrap_input(&format!("b{lt}aa"))));
            assert!(dfa.contains(&wrap_input(&format!("aa{lt}b"))));
        }
    }

    #[test]
    fn hat_star_strips_captures() {
        let body = parse("(ab|c)").expect("parse");
        let re = try_hat_star(&body, Flags::empty()).expect("classical");
        let dfa = dfa_of(&re);
        assert!(dfa.contains(""));
        assert!(dfa.contains("abc"));
        assert!(dfa.contains("cab"));
        assert!(!dfa.contains("b"));
    }

    #[test]
    fn hat_star_rejects_backrefs() {
        let body = parse(r"(a)\1").expect("parse");
        assert!(try_hat_star(&body, Flags::empty()).is_none());
    }
}
