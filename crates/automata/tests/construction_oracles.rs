//! The flat builders against the reference builders of
//! `automata::oracle`: the sweep-line minterm builder must produce the
//! same alphabet as the per-interval probe (boundaries, interval
//! classes, class sets and fingerprint), and decompose every set into
//! the same classes; the flat construction pipeline must produce the
//! same automata, state for state, with the same build counts.

use std::hash::BuildHasher;
use std::sync::Arc;

use automata::{
    compile_classical, oracle, Alphabet, AutomataConfig, BuildMetrics, CRegex, CharSet,
    CompileOptions, Dfa,
};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// Scalar values at the edges of the surrogate block and of the scalar
/// space, where boundaries are fixed.
const EDGES: [u32; 8] = [0, 1, 0xD7FE, 0xD7FF, 0xE000, 0xE001, 0x10FFFE, 0x10FFFF];

/// Many-range sets the regex front end produces: Perl classes, their
/// negations, case-folded and Unicode-escaped classes.
fn front_end_sets() -> Vec<CharSet> {
    let mut sets = Vec::new();
    for (pattern, ignore_case) in [
        (r"\w", true),
        (r"\W", true),
        (r"\s\S", false),
        (r"[^a-z\d]", true),
        (r"[à-ÿĀ-ſ]", true),
        (r"[^\u{1F600}-\u{1F64F}x]", false),
        (r".", false),
        (r"[kK]", true),
    ] {
        let ast = regex_syntax_es6::parse(pattern).expect("parse");
        let options = CompileOptions {
            ignore_case,
            ..CompileOptions::default()
        };
        compile_classical(&ast, &options)
            .expect("classical")
            .collect_sets(&mut sets);
    }
    sets
}

/// A random set: a few ranges, each endpoint either anywhere, near a
/// fixed edge, or in ASCII. Raw ranges may span the surrogate block.
fn random_set(rng: &mut StdRng) -> CharSet {
    let point = |rng: &mut StdRng| match rng.random_range(0u32..4) {
        0 => rng.random_range(0u32..=0x10FFFF),
        1 => *EDGES.choose(rng).expect("nonempty"),
        _ => rng.random_range(0x20u32..0x80),
    };
    let ranges = (0..rng.random_range(1usize..5))
        .map(|_| {
            let (a, b) = (point(rng), point(rng));
            (a.min(b), a.max(b))
        })
        .collect();
    CharSet::from_ranges(ranges)
}

fn fingerprint(alphabet: &Alphabet) -> u64 {
    std::hash::BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default()
        .hash_one(alphabet)
}

fn assert_same_alphabet(sets: &[CharSet], context: &str) {
    let sweep = Alphabet::from_sets(sets);
    let reference = oracle::alphabet_from_sets(sets);
    // `==` compares boundaries, interval classes, class sets and the
    // precomputed fingerprint; `Hash` writes only the fingerprint.
    assert_eq!(sweep, reference, "{context}");
    assert_eq!(fingerprint(&sweep), fingerprint(&reference), "{context}");
    let borrowed: Vec<&CharSet> = sets.iter().collect();
    assert_eq!(
        Alphabet::from_sets(&borrowed),
        reference,
        "{context}: borrowed"
    );
    for set in sets {
        assert_eq!(
            sweep.classes_of(set),
            oracle::classes_of(&reference, set),
            "{context}: classes of {set:?}"
        );
    }
    // Unions of classes decompose the same way too.
    for class in 0..sweep.class_count() as u16 {
        let set = sweep.class_set(class);
        assert_eq!(sweep.classes_of(set), oracle::classes_of(&reference, set));
    }
}

#[test]
fn sweep_alphabet_matches_the_reference_builder() {
    assert_same_alphabet(&[], "no sets");
    assert_same_alphabet(&front_end_sets(), "front-end classes");
    let spans = [
        CharSet::from_ranges(vec![(0xD000, 0xE100)]),
        CharSet::from_ranges(vec![(0xD7FF, 0xE000)]),
        CharSet::from_ranges(vec![(0, 0x10FFFF)]),
        CharSet::from_ranges(vec![(0xD800, 0xDFFF)]),
        CharSet::single('a'),
        CharSet::single('a'),
    ];
    assert_same_alphabet(&spans, "surrogate spans and duplicates");
    // A raw range past U+10FFFF classifies as U+FFFD did. (Such a set
    // is not a union of classes, so it has no decomposition to check.)
    let past = [
        CharSet::from_ranges(vec![(0xFFF0, 0xFFFF)]),
        CharSet::from_ranges(vec![(0x10FFF0, 0x110010)]),
    ];
    assert_eq!(
        Alphabet::from_sets(&past),
        oracle::alphabet_from_sets(&past)
    );
    // …and so joins the class just below U+110000 when U+FFFD is in it.
    let joined = [CharSet::from_ranges(vec![(0xFFF0, 0x110010)])];
    assert_eq!(
        Alphabet::from_sets(&joined),
        oracle::alphabet_from_sets(&joined)
    );

    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Up to 150 sets: signatures span up to three 64-bit words.
        let count = match seed % 4 {
            0 => rng.random_range(65usize..150),
            _ => rng.random_range(1usize..12),
        };
        let mut sets: Vec<CharSet> = (0..count).map(|_| random_set(&mut rng)).collect();
        if seed % 3 == 0 {
            let again = sets[rng.random_range(0..sets.len())].clone();
            sets.push(again);
        }
        if seed % 5 == 0 {
            sets.extend(front_end_sets());
        }
        assert_same_alphabet(&sets, &format!("seed {seed}"));
    }
}

/// A random classical regex over a few sets, with intersections and
/// complements.
fn random_regex(rng: &mut StdRng, depth: usize) -> CRegex {
    if depth == 0 {
        return leaves().choose(rng).expect("nonempty").clone();
    }
    let sub = |rng: &mut StdRng| random_regex(rng, depth - 1);
    match rng.random_range(0usize..9) {
        0 => CRegex::star(sub(rng)),
        1 => CRegex::opt(sub(rng)),
        2 => CRegex::concat(vec![sub(rng), sub(rng)]),
        3 => CRegex::alt(vec![sub(rng), sub(rng)]),
        4 => CRegex::and(vec![sub(rng), sub(rng)]),
        5 => CRegex::not(sub(rng)),
        6 => CRegex::plus(sub(rng)),
        7 => CRegex::EmptySet,
        _ => random_regex(rng, 0),
    }
}

fn leaves() -> [CRegex; 6] {
    [
        CRegex::set(CharSet::single('a')),
        CRegex::set(CharSet::range('a', 'c')),
        CRegex::lit("bd"),
        CRegex::set(CharSet::single('\u{1F600}')),
        CRegex::any_char(),
        CRegex::Epsilon,
    ]
}

fn distances(dfa: &Dfa) -> Vec<Option<u32>> {
    (0..dfa.state_count() as u32)
        .map(|s| dfa.distance_to_accept(s))
        .collect()
}

#[test]
fn flat_pipeline_matches_the_reference_pipeline() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA17A);
        let re = random_regex(&mut rng, 4);
        // Every leaf's sets, so a second random regex fits the alphabet.
        let mut sets = Vec::new();
        CRegex::alt(leaves().to_vec()).collect_sets(&mut sets);
        let alphabet = Arc::new(Alphabet::from_sets(&sets));
        for (config, cap) in [
            (AutomataConfig::disabled(), usize::MAX),
            (AutomataConfig::default(), usize::MAX),
            (AutomataConfig::default(), 12),
        ] {
            let (mut flat_metrics, mut oracle_metrics) =
                (BuildMetrics::default(), BuildMetrics::default());
            let flat = Dfa::try_from_cregex_with(&re, &alphabet, &config, &mut flat_metrics, cap);
            let reference =
                oracle::try_from_cregex_with(&re, &alphabet, &config, &mut oracle_metrics, cap);
            assert_eq!(
                flat.as_ref().map(Dfa::canonical_key),
                reference.as_ref().map(Dfa::canonical_key),
                "seed {seed}: {re}"
            );
            if let (Some(flat), Some(reference)) = (&flat, &reference) {
                assert_eq!(distances(flat), distances(reference), "seed {seed}");
                assert_eq!(flat_metrics, oracle_metrics, "seed {seed}");
            }
        }
        let (mut flat_metrics, mut oracle_metrics) =
            (BuildMetrics::default(), BuildMetrics::default());
        let flat = Dfa::minimal_from_cregex(&re, &alphabet, &mut flat_metrics);
        let reference = oracle::minimal_from_cregex(&re, &alphabet, &mut oracle_metrics);
        assert_eq!(
            flat.canonical_key(),
            reference.canonical_key(),
            "seed {seed}"
        );
        assert_eq!(distances(&flat), distances(&reference), "seed {seed}");
        assert_eq!(flat_metrics, oracle_metrics, "seed {seed}");

        // Products of the minimal automaton with a second regex's.
        let other = Dfa::minimal_from_cregex(
            &random_regex(&mut rng, 3),
            &alphabet,
            &mut BuildMetrics::default(),
        );
        for (flat, reference) in [
            (flat.intersect(&other), oracle::intersect(&flat, &other)),
            (flat.union(&other), oracle::union(&flat, &other)),
        ] {
            assert_eq!(
                flat.canonical_key(),
                reference.canonical_key(),
                "seed {seed}"
            );
            assert_eq!(distances(&flat), distances(&reference), "seed {seed}");
            let (minimal, reference) = (flat.minimized(), oracle::minimized(&reference));
            assert_eq!(
                minimal.canonical_key(),
                reference.canonical_key(),
                "seed {seed}"
            );
        }
    }
}
