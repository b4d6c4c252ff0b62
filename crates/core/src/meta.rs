//! The ⟨/⟩ input-boundary meta-characters of Algorithm 2.
//!
//! The paper marks the start and end of the subject string with two
//! meta-characters so that anchors (`^`, `$`) and the sticky `lastIndex`
//! logic become ordinary string constraints (§6.1). We use two private
//! use area code points that no surveyed regex feature class (`\w`,
//! `\d`, `\s`) contains.

use automata::CharSet;

/// `⟨` — marks the start of input.
pub const INPUT_START: char = '\u{E000}';

/// `⟩` — marks the end of input.
pub const INPUT_END: char = '\u{E001}';

/// The set `{⟨, ⟩}`.
pub fn meta_set() -> CharSet {
    CharSet::single(INPUT_START).union(&CharSet::single(INPUT_END))
}

/// The ES6 line terminators (§11.3): `\n`, `\r`, U+2028 and U+2029.
/// Multiline anchors test for them in both the positive model and the
/// classical word language.
pub fn line_terminators() -> CharSet {
    CharSet::from_ranges(vec![(0x0A, 0x0A), (0x0D, 0x0D), (0x2028, 0x2029)])
}

/// Wraps a subject string in the meta-characters:
/// `input′ = ⟨ + input + ⟩` (Algorithm 2 line 1).
pub fn wrap_input(input: &str) -> String {
    let mut out = String::with_capacity(input.len() + 2);
    out.push(INPUT_START);
    out.push_str(input);
    out.push(INPUT_END);
    out
}

/// Removes the meta-characters from a solver witness (Algorithm 2
/// line 9).
pub fn strip_meta(word: &str) -> String {
    word.chars()
        .filter(|&c| c != INPUT_START && c != INPUT_END)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_and_strip_round_trip() {
        let wrapped = wrap_input("hello");
        assert_eq!(wrapped.chars().count(), 7);
        assert_eq!(strip_meta(&wrapped), "hello");
    }

    #[test]
    fn meta_chars_are_not_word_chars() {
        let word = regex_syntax_es6::class::ClassSet::word();
        assert!(!word.contains(INPUT_START));
        assert!(!word.contains(INPUT_END));
        let space = regex_syntax_es6::class::ClassSet::space();
        assert!(!space.contains(INPUT_START));
        let digit = regex_syntax_es6::class::ClassSet::digit();
        assert!(!digit.contains(INPUT_END));
    }

    #[test]
    fn line_terminators_agree_with_the_matcher() {
        let set = line_terminators();
        for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
            assert_eq!(
                set.contains(c),
                regex_syntax_es6::class::is_line_terminator(c),
                "{c:?}"
            );
        }
    }

    #[test]
    fn meta_set_contains_both() {
        let set = meta_set();
        assert!(set.contains(INPUT_START));
        assert!(set.contains(INPUT_END));
        assert!(!set.contains('a'));
    }
}
