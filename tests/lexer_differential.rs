//! The byte-scanning lexer against the reference lexer it replaced
//! (`lexer::oracle`): on every library workload, on generated DSE
//! packages, and on seeded mutations of both, the two return the same
//! tokens, or the same error message at the same character index.
//!
//! The mutations aim at the rules that read more than one byte or that
//! decode a character: truncation anywhere (unterminated strings,
//! regexes and comments, half an operator), stray ASCII and non-ASCII
//! characters (U+00A0 and U+2028 are whitespace, most others are
//! errors), and a `/` after `)`, `]`, identifiers and keywords, where
//! division and a regex literal part ways.

use expose::corpus::{generate_dse_programs, library_workloads};
use expose::dse::lexer::{lex, oracle};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// Seeds of the generated package sets.
const SEEDS: [u64; 4] = [1, 5, 501, 0x5eed];

/// Mutants per source.
const MUTANTS: usize = 4;

/// Characters inserted at random positions.
const STRAYS: &[&str] = &[
    "#", "@", "&", "|", "\\", "\"", "'", "`", "~", "^", "\u{0b}", "\u{0c}", "\u{1c}", "\u{85}",
    "\u{a0}", "\u{2028}", "\u{2029}", "\u{3000}", "\u{feff}", "é", "€", "𝄞", "/", "/*", "//", "=",
    "!", "<", "1.2.3", "\\u{1}",
];

/// Text inserted after a `)`, `]`, identifier or keyword.
const SLASHES: &[&str] = &["/", "/x/", " /[/]/g ", "/2", "/ y /", "/\\//", "/é/"];

/// Fails with the first source on which the two lexers differ; true
/// when both reject it.
fn assert_agree(what: &str, src: &str) -> bool {
    let fast = lex(src);
    let slow = oracle::lex(src);
    assert_eq!(fast, slow, "{what}: the lexers disagree on {src:?}");
    fast.is_err()
}

/// The byte offsets at which a character starts, plus the end.
fn boundaries(src: &str) -> Vec<usize> {
    src.char_indices()
        .map(|(i, _)| i)
        .chain([src.len()])
        .collect()
}

/// `src` with `text` inserted at byte `at`.
fn insert(src: &str, at: usize, text: &str) -> String {
    format!("{}{text}{}", &src[..at], &src[at..])
}

/// One seeded mutant of `src`.
fn mutate(src: &str, rng: &mut StdRng) -> String {
    let cuts = boundaries(src);
    match rng.random_range(0..3u8) {
        0 => src[..*cuts.choose(rng).expect("non-empty")].to_string(),
        1 => {
            let mut out = src.to_string();
            for _ in 0..rng.random_range(1..=3usize) {
                let at = *boundaries(&out).choose(rng).expect("non-empty");
                out = insert(&out, at, STRAYS.choose(rng).expect("non-empty"));
            }
            out
        }
        _ => {
            // After `)`, `]` and the last character of a word.
            let sites: Vec<usize> = src
                .char_indices()
                .filter(|&(i, c)| {
                    let next = src[i + c.len_utf8()..].chars().next();
                    matches!(c, ')' | ']')
                        || (c.is_ascii_alphanumeric()
                            && !next.is_some_and(|n| n.is_ascii_alphanumeric()))
                })
                .map(|(i, c)| i + c.len_utf8())
                .collect();
            match sites.choose(rng) {
                Some(&at) => insert(src, at, SLASHES.choose(rng).expect("non-empty")),
                None => src.to_string(),
            }
        }
    }
}

/// Every source and `MUTANTS` mutants of it; returns how many were
/// checked and how many of those both lexers rejected.
fn assert_agree_with_mutants(what: &str, src: &str, rng: &mut StdRng) -> (usize, usize) {
    let mut rejected = usize::from(assert_agree(what, src));
    for _ in 0..MUTANTS {
        rejected += usize::from(assert_agree(what, &mutate(src, rng)));
    }
    (MUTANTS + 1, rejected)
}

/// Both outcomes must be exercised, or the comparison shows little.
fn assert_mixed((checked, rejected): (usize, usize)) {
    assert!(
        rejected > 0 && rejected < checked,
        "{rejected} of {checked} sources were rejected"
    );
}

#[test]
fn lexers_agree_on_library_workloads_and_their_mutants() {
    let mut rng = StdRng::seed_from_u64(0x1e8e);
    let mut totals = (0, 0);
    for w in library_workloads() {
        assert!(lex(w.source).is_ok(), "{} must lex", w.name);
        let (checked, rejected) = assert_agree_with_mutants(w.name, w.source, &mut rng);
        totals = (totals.0 + checked, totals.1 + rejected);
    }
    assert_mixed(totals);
}

#[test]
fn lexers_agree_on_generated_programs_and_their_mutants() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1e8e);
        let mut totals = (0, 0);
        for p in generate_dse_programs(1000, seed) {
            let (checked, rejected) = assert_agree_with_mutants(&p.name, &p.source, &mut rng);
            totals = (totals.0 + checked, totals.1 + rejected);
        }
        assert_mixed(totals);
    }
}

#[test]
fn lexers_agree_on_edge_cases() {
    let cases = [
        "",
        "/",
        "x /",
        "/*",
        "/*/",
        "/* a * / b",
        "//",
        "a // b\u{2028}c",
        "\"a\\",
        "'a\\'",
        "\"\\é\"",
        "\"a\\\"b\" 'c\\n\\t\\r\\0d'",
        "/a\\/b/gi.test(x)",
        "/a\\\n/",
        "/a\nb/",
        "/[/\\]]/",
        "(x) / y / z",
        "a[0] / 2",
        "return /a/",
        "typeof /a/ === 'object'",
        "x ==== y !=== z",
        "a & b | c",
        "1.2.3",
        "1..",
        "\u{a0}x\u{2028}=\u{2029}1\u{3000};",
        "é",
        "let é = 1;",
        "x\u{1c}y",
        "x\u{0b}y\u{0c}z",
        "\"𝄞\" + '€' #",
    ];
    for src in cases {
        assert_agree("edge case", src);
    }
}
