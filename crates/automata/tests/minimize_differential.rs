//! Differential suite for the lazy/minimizing pipeline: random
//! classical regexes are compiled through both the eager seed pipeline
//! (`Dfa::from_cregex`) and the reachable-only, Hopcroft-minimizing
//! pipeline (`Dfa::from_cregex_with` + `Dfa::minimized`), and the two
//! must agree on membership for every word up to length 6 over the
//! problem alphabet, plus oracle strings from the concrete ES6
//! matcher. `length_bounds()` must bracket every accepted word.
//! Projecting a minimized DFA onto a refining alphabet must equal the
//! minimized fresh build over that alphabet, complement included.

use std::sync::Arc;

use automata::{
    compile_classical, Alphabet, AutomataConfig, BuildMetrics, CRegex, CharSet, CompileOptions, Dfa,
};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// A small random classical regex over {a, b, c}, occasionally using
/// intersection and complement so the product and complement paths of
/// the pipeline are exercised too.
fn random_regex(rng: &mut StdRng, depth: usize) -> CRegex {
    let leaf = |rng: &mut StdRng| {
        let options = [
            CRegex::set(CharSet::single('a')),
            CRegex::set(CharSet::single('b')),
            CRegex::set(CharSet::range('a', 'c')),
            CRegex::lit("ab"),
            CRegex::lit("c"),
            CRegex::Epsilon,
        ];
        options.choose(rng).expect("nonempty").clone()
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.random_range(0usize..8) {
        0 => CRegex::star(random_regex(rng, depth - 1)),
        1 => CRegex::plus(random_regex(rng, depth - 1)),
        2 => CRegex::opt(random_regex(rng, depth - 1)),
        3 => CRegex::concat(vec![
            random_regex(rng, depth - 1),
            random_regex(rng, depth - 1),
        ]),
        4 => CRegex::alt(vec![
            random_regex(rng, depth - 1),
            random_regex(rng, depth - 1),
        ]),
        5 => CRegex::and(vec![
            random_regex(rng, depth - 1),
            random_regex(rng, depth - 1),
        ]),
        6 => CRegex::not(random_regex(rng, depth - 1)),
        _ => leaf(rng),
    }
}

fn alphabet_of(re: &CRegex) -> Arc<Alphabet> {
    let mut sets = Vec::new();
    re.collect_sets(&mut sets);
    // Anchor the alphabet so even set-free regexes (ε, ∅-like) get a
    // usable partition with the probe characters present.
    sets.push(CharSet::range('a', 'c'));
    Arc::new(Alphabet::from_sets(&sets))
}

/// Every word over the alphabet's class representatives up to
/// `max_len` characters.
fn words_up_to(alphabet: &Alphabet, max_len: usize) -> Vec<String> {
    let reps: Vec<char> = (0..alphabet.class_count())
        .map(|c| alphabet.representative(c as u16))
        .collect();
    let mut out = vec![String::new()];
    let mut frontier = vec![String::new()];
    for _ in 0..max_len {
        let mut next = Vec::with_capacity(frontier.len() * reps.len());
        for word in &frontier {
            for &r in &reps {
                let mut w = word.clone();
                w.push(r);
                next.push(w);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

#[test]
fn minimized_equals_unminimized_on_enumerated_words() {
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let re = random_regex(&mut rng, 3);
        let alphabet = alphabet_of(&re);
        let eager = Dfa::from_cregex(&re, &alphabet);
        let mut metrics = BuildMetrics::default();
        let lazy = Dfa::from_cregex_with(&re, &alphabet, &AutomataConfig::default(), &mut metrics)
            .minimized();
        assert!(
            lazy.state_count() <= eager.state_count(),
            "seed {seed}: minimized {} > eager {} states",
            lazy.state_count(),
            eager.state_count()
        );
        for word in words_up_to(&alphabet, 6) {
            assert_eq!(
                eager.contains(&word),
                lazy.contains(&word),
                "seed {seed}: {re} disagrees on {word:?}"
            );
        }
    }
}

#[test]
fn minimized_agrees_with_the_eager_pipeline_on_each_others_witnesses() {
    // Enumerated witnesses from either pipeline (beyond the
    // exhaustive length-6 window) must be accepted by the other.
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0xd1ff ^ seed);
        let re = random_regex(&mut rng, 3);
        let alphabet = alphabet_of(&re);
        let eager = Dfa::from_cregex(&re, &alphabet);
        let lazy = Dfa::from_cregex_with(
            &re,
            &alphabet,
            &AutomataConfig::default(),
            &mut BuildMetrics::default(),
        )
        .minimized();
        for w in eager.words(10, 40) {
            assert!(lazy.contains(&w), "seed {seed}: lazy rejects {w:?} of {re}");
        }
        for w in lazy.words(10, 40) {
            assert!(
                eager.contains(&w),
                "seed {seed}: eager rejects {w:?} of {re}"
            );
        }
    }
}

#[test]
fn length_bounds_bracket_every_accepted_word() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x1e4 ^ seed);
        let re = random_regex(&mut rng, 3);
        let alphabet = alphabet_of(&re);
        let dfa = Dfa::from_cregex(&re, &alphabet);
        let Some(bounds) = dfa.length_bounds() else {
            assert!(dfa.is_empty(), "seed {seed}: no bounds but nonempty {re}");
            continue;
        };
        let accepted: Vec<String> = dfa.words(9, 200);
        assert!(!accepted.is_empty(), "seed {seed}: bounds but no words");
        for w in &accepted {
            let n = w.chars().count();
            assert!(
                n >= bounds.min,
                "seed {seed}: {re} accepts {w:?} below min {}",
                bounds.min
            );
            if let Some(max) = bounds.max {
                assert!(n <= max, "seed {seed}: {re} accepts {w:?} above max {max}");
            }
        }
        // The minimum is attained exactly.
        let shortest = dfa.shortest_word().expect("nonempty");
        assert_eq!(shortest.chars().count(), bounds.min, "seed {seed}: {re}");
        // Bounds are a language property: minimization preserves them.
        assert_eq!(dfa.minimized().length_bounds(), Some(bounds), "seed {seed}");
    }
}

#[test]
fn minimized_agrees_with_the_es6_matcher_oracle() {
    // Anchored full-match semantics: the DFA of a classical pattern
    // decides the same language as /^(?:pattern)$/ in the concrete
    // matcher.
    let patterns = [
        "go+d",
        "(a|b)*abb",
        "a{2,5}",
        "(ab|c)+",
        "a[bc]*c",
        "(a|bb)(c|ab)*",
        "[a-c]{1,3}",
        "a*b*c*",
    ];
    for pattern in patterns {
        let ast = regex_syntax_es6::parse(pattern).expect("parse");
        let re = compile_classical(&ast, &CompileOptions::default()).expect("classical");
        let alphabet = alphabet_of(&re);
        let dfa = Dfa::from_cregex_with(
            &re,
            &alphabet,
            &AutomataConfig::default(),
            &mut BuildMetrics::default(),
        )
        .minimized();
        let mut oracle =
            es6_matcher::RegExp::new(&format!("^(?:{pattern})$"), "").expect("oracle regex");
        for word in words_up_to(&alphabet, 5) {
            assert_eq!(
                oracle.test(&word),
                dfa.contains(&word),
                "pattern {pattern}: disagreement on {word:?}"
            );
        }
    }
}

/// The pipeline result the solver's cache stores: the lazy build,
/// minimized (canonically numbered).
fn lazy_minimal(re: &CRegex, alphabet: &Arc<Alphabet>) -> Dfa {
    Dfa::from_cregex_with(
        re,
        alphabet,
        &AutomataConfig::default(),
        &mut BuildMetrics::default(),
    )
    .minimized()
}

/// `alphabet_of(re)` refined by a random handful of extra sets: single
/// characters (inside and outside the regex's sets, one non-BMP), a
/// range straddling `[a-c]`, and sets that cover every scalar value so
/// the surrogate gap becomes a class of its own.
fn refining_alphabet(re: &CRegex, rng: &mut StdRng) -> Arc<Alphabet> {
    let pool = [
        CharSet::single('a'),
        CharSet::single('c'),
        CharSet::single('z'),
        CharSet::single('\u{1F600}'),
        CharSet::range('b', 'q'),
        CharSet::range('a', 'c').complement(),
        CharSet::any(),
    ];
    let mut sets = Vec::new();
    re.collect_sets(&mut sets);
    sets.push(CharSet::range('a', 'c'));
    for _ in 0..rng.random_range(0usize..4) {
        sets.push(pool.choose(rng).expect("nonempty").clone());
    }
    Arc::new(Alphabet::from_sets(&sets))
}

fn distances(d: &Dfa) -> Vec<Option<u32>> {
    (0..d.state_count() as u32)
        .map(|s| d.distance_to_accept(s))
        .collect()
}

#[test]
fn projection_equals_a_fresh_minimal_build() {
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x9a0_u64 ^ seed);
        let re = random_regex(&mut rng, 3);
        let own = alphabet_of(&re);
        let base = lazy_minimal(&re, &own);
        for _ in 0..3 {
            let target = refining_alphabet(&re, &mut rng);
            let projected = base.project(&target).expect("target refines own");
            let fresh = lazy_minimal(&re, &target);
            assert_eq!(
                projected.canonical_key(),
                fresh.canonical_key(),
                "seed {seed}: {re}"
            );
            assert_eq!(distances(&projected), distances(&fresh), "seed {seed}");
            // Complementing commutes with projecting.
            let fresh_not = lazy_minimal(&CRegex::not(re.clone()), &target);
            assert_eq!(
                projected.complement().canonical_key(),
                fresh_not.canonical_key(),
                "seed {seed}: complement of {re}"
            );
        }
    }
}

#[test]
fn projection_refuses_an_alphabet_that_does_not_refine() {
    let re = CRegex::plus(CRegex::set(CharSet::range('a', 'm')));
    let own = Arc::new(Alphabet::from_sets(&[CharSet::range('a', 'm')]));
    let crossing = Arc::new(Alphabet::from_sets(&[CharSet::range('g', 'z')]));
    assert!(lazy_minimal(&re, &own).project(&crossing).is_none());
}
