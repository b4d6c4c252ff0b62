//! The JavaScript-facing API: `RegExp` objects with `lastIndex` state and
//! the `String.prototype` methods that take regexes.
//!
//! Semantics follow ES262 §21.2.5 (`RegExp.prototype.exec`, `test`) and
//! §21.1.3 (`match`, `replace`, `search`, `split`). `RegExp` objects are
//! stateful under the `g` and `y` flags, as the paper's §2.1 example
//! shows.

use std::sync::{Arc, OnceLock};

use regex_syntax_es6::{Flags, ParseError, Regex};

use crate::exec::{Engine, Match};
use crate::pikevm::PikeVm;
use crate::prog::{self, Prog};
use crate::select::EngineKind;

/// A concrete ES6 `RegExp` object.
///
/// Matching is routed through the static engine selection of
/// [`crate::select()`]: patterns the Thompson compiler can express
/// faithfully run on the linear-time Pike VM, the rest (backreferences
/// foremost) on the spec-operational backtracker.
///
/// The parsed pattern and its lazily compiled program live behind one
/// shared pointer; only `lastIndex` is per object. Cloning a `RegExp`
/// therefore copies a pointer and an index, and every clone shares one
/// compilation (routing is decided once per pattern, whichever clone
/// matches first), while each clone keeps its own `lastIndex`.
///
/// # Examples
///
/// The stateful sticky-flag example from §2.1 of the paper:
///
/// ```
/// use es6_matcher::RegExp;
///
/// let mut r = RegExp::from_literal("/goo+d/y")?;
/// assert!(r.test("goood"));
/// assert_eq!(r.last_index(), 5);
/// assert!(!r.test("goood"));
/// assert_eq!(r.last_index(), 0);
/// # Ok::<(), regex_syntax_es6::ParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RegExp {
    shared: Arc<Compiled>,
    last_index: usize,
}

/// The part of a [`RegExp`] its clones share.
#[derive(Debug)]
struct Compiled {
    regex: Arc<Regex>,
    /// Lazily compiled fast-path program; `Some(None)` caches a
    /// fallback decision so compilation is attempted at most once.
    prog: OnceLock<Option<Prog>>,
}

impl Compiled {
    fn prog(&self) -> Option<&Prog> {
        self.prog
            .get_or_init(|| prog::compile(&self.regex.ast, self.regex.flags).ok())
            .as_ref()
    }
}

/// The result of a successful `exec`: the JavaScript match array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchResult {
    /// `result[0]` — the whole matched substring, and `result[i]` — the
    /// last substring matched by capture group `i` (or `None`).
    pub captures: Vec<Option<String>>,
    /// `result.index` — character offset of the match start.
    pub index: usize,
    /// `result.input` — the subject string.
    pub input: String,
}

impl MatchResult {
    /// The whole matched substring (`result[0]`).
    pub fn matched(&self) -> &str {
        self.captures[0].as_deref().expect("group 0 always defined")
    }

    /// The capture group `i` value, if defined.
    pub fn group(&self, i: usize) -> Option<&str> {
        self.captures.get(i).and_then(|c| c.as_deref())
    }
}

impl RegExp {
    /// Creates a `RegExp` from a pattern and flags, like
    /// `new RegExp(pattern, flags)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] for invalid patterns or flags.
    pub fn new(pattern: &str, flags: &str) -> Result<RegExp, ParseError> {
        let flags: Flags = flags.parse()?;
        Ok(RegExp::from_regex(Regex::new(pattern, flags)?))
    }

    /// Creates a `RegExp` from a `/pattern/flags` literal.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] for malformed literals.
    pub fn from_literal(literal: &str) -> Result<RegExp, ParseError> {
        Ok(RegExp::from_regex(Regex::parse_literal(literal)?))
    }

    /// Wraps an already-parsed [`Regex`].
    pub fn from_regex(regex: Regex) -> RegExp {
        RegExp::from_shared(Arc::new(regex))
    }

    /// Wraps a shared parsed [`Regex`] without copying it, e.g. a regex
    /// literal of a program that many executions match against.
    pub fn from_shared(regex: Arc<Regex>) -> RegExp {
        RegExp {
            shared: Arc::new(Compiled {
                regex,
                prog: OnceLock::new(),
            }),
            last_index: 0,
        }
    }

    /// The parsed pattern.
    pub fn regex(&self) -> &Regex {
        &self.shared.regex
    }

    /// The flag set.
    pub fn flags(&self) -> Flags {
        self.shared.regex.flags
    }

    /// Current `lastIndex` (in characters, as our strings are char
    /// sequences).
    pub fn last_index(&self) -> usize {
        self.last_index
    }

    /// Sets `lastIndex`, like assigning the JavaScript property.
    pub fn set_last_index(&mut self, value: usize) {
        self.last_index = value;
    }

    /// The compiled fast-path program, compiling (once) on first use;
    /// `None` when the pattern is routed to the backtracker.
    fn prog(&self) -> Option<&Prog> {
        self.shared.prog()
    }

    /// Which engine this pattern is routed to (see [`crate::select()`]).
    pub fn engine_kind(&self) -> EngineKind {
        if self.prog().is_some() {
            EngineKind::PikeVm
        } else {
            EngineKind::Backtrack
        }
    }

    /// `RegExp.prototype.exec(input)` (§21.2.5.2).
    ///
    /// Stateful under `g`/`y`: matching starts at `lastIndex`, which is
    /// advanced past the match on success and reset to 0 on failure.
    pub fn exec(&mut self, input: &str) -> Option<MatchResult> {
        self.exec_within(input, None)
            .expect("unbounded exec cannot exhaust a step budget")
    }

    /// [`RegExp::exec`] with an optional step budget.
    ///
    /// The budget is shared across all start positions of the unanchored
    /// search, so the total work is bounded even when every position
    /// backtracks. On exhaustion `lastIndex` is left unchanged and
    /// [`StepLimitExceeded`](crate::exec::StepLimitExceeded) is returned
    /// — a starved attempt proves nothing, so it must not be read as a
    /// failed match. This is the evaluation hook the differential fuzzer
    /// drives the oracle through.
    ///
    /// Patterns on the Pike-VM fast path are decided in `O(n·m)` steps,
    /// so with ordinary budgets the error can only arise where
    /// backtracking is actually used (backreference patterns).
    ///
    /// # Errors
    ///
    /// [`crate::exec::StepLimitExceeded`] when the budget ran out.
    pub fn exec_within(
        &mut self,
        input: &str,
        step_limit: Option<u64>,
    ) -> Result<Option<MatchResult>, crate::exec::StepLimitExceeded> {
        let chars: Vec<char> = input.chars().collect();
        let compiled = &*self.shared;
        let stateful = compiled.regex.flags.is_stateful();
        let start = if stateful { self.last_index } else { 0 };
        if start > chars.len() {
            self.last_index = 0;
            return Ok(None);
        }
        let sticky = compiled.regex.flags.sticky;
        let found = if let Some(prog) = compiled.prog() {
            let vm = PikeVm::new(prog);
            match step_limit {
                None => {
                    if sticky {
                        vm.match_at(&chars, start)
                    } else {
                        vm.search(&chars, start)
                    }
                }
                Some(limit) => {
                    if sticky {
                        vm.match_at_within(&chars, start, limit)?
                    } else {
                        vm.search_within(&chars, start, limit)?
                    }
                }
            }
        } else {
            let engine = Engine::new(&compiled.regex.ast, compiled.regex.flags);
            match step_limit {
                None => {
                    if sticky {
                        engine.match_at(&chars, start)
                    } else {
                        (start..=chars.len()).find_map(|at| engine.match_at(&chars, at))
                    }
                }
                Some(limit) => {
                    if sticky {
                        engine.match_at_within(&chars, start, limit)?
                    } else {
                        engine.search_within(&chars, start, limit)?
                    }
                }
            }
        };
        Ok(match found {
            Some(m) => {
                if stateful {
                    self.last_index = m.end;
                }
                let mut captures = Vec::with_capacity(m.captures.0.len());
                captures.push(Some(chars[m.start..m.end].iter().collect::<String>()));
                for slot in m.captures.0.iter().skip(1) {
                    captures.push(slot.map(|(s, e)| chars[s..e].iter().collect::<String>()));
                }
                Some(MatchResult {
                    captures,
                    index: m.start,
                    input: input.to_string(),
                })
            }
            None => {
                if stateful {
                    self.last_index = 0;
                }
                None
            }
        })
    }

    /// `RegExp.prototype.test(input)`: precisely
    /// `exec(input) !== undefined` (§6.1 of the paper).
    pub fn test(&mut self, input: &str) -> bool {
        self.exec(input).is_some()
    }
}

/// Engine-routed anchored matching for the `String.prototype` helpers,
/// so `replace`/`split` get the fast path too. Built once per call —
/// previously `string_replace` constructed a fresh backtracking engine
/// on every loop iteration.
enum AnchoredMatcher<'r> {
    Vm(&'r Prog),
    Bt(Engine<'r>),
}

impl AnchoredMatcher<'_> {
    fn for_regexp(regexp: &RegExp) -> AnchoredMatcher<'_> {
        match regexp.prog() {
            Some(prog) => AnchoredMatcher::Vm(prog),
            None => AnchoredMatcher::Bt(Engine::new(&regexp.regex().ast, regexp.flags())),
        }
    }

    fn match_at(&self, chars: &[char], at: usize) -> Option<Match> {
        match self {
            AnchoredMatcher::Vm(prog) => PikeVm::new(prog).match_at(chars, at),
            AnchoredMatcher::Bt(engine) => engine.match_at(chars, at),
        }
    }

    fn search(&self, chars: &[char], from: usize) -> Option<Match> {
        match self {
            AnchoredMatcher::Vm(prog) => PikeVm::new(prog).search(chars, from),
            AnchoredMatcher::Bt(engine) => {
                (from..=chars.len()).find_map(|at| engine.match_at(chars, at))
            }
        }
    }
}

/// `String.prototype.match(regexp)` (§21.1.3.11).
///
/// Without `g`: equivalent to `exec`. With `g`: returns all matched
/// substrings (no capture groups), advancing past empty matches.
pub fn string_match(input: &str, regexp: &mut RegExp) -> Option<Vec<String>> {
    if !regexp.flags().global {
        return regexp.exec(input).map(|m| {
            m.captures
                .iter()
                .map(|c| c.clone().unwrap_or_default())
                .collect()
        });
    }
    regexp.set_last_index(0);
    let mut out = Vec::new();
    let n_chars = input.chars().count();
    loop {
        match regexp.exec(input) {
            None => break,
            Some(m) => {
                let matched = m.matched().to_string();
                let empty = matched.is_empty();
                out.push(matched);
                if empty {
                    let next = regexp.last_index() + 1;
                    if next > n_chars {
                        break;
                    }
                    regexp.set_last_index(next);
                }
            }
        }
    }
    regexp.set_last_index(0);
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// `String.prototype.search(regexp)` (§21.1.3.15): index of the first
/// match or -1. Ignores and does not mutate `lastIndex`: the search runs
/// from index 0 as if `g` and `y` were clear, which the compiled
/// program does not depend on.
pub fn string_search(input: &str, regexp: &RegExp) -> isize {
    let chars: Vec<char> = input.chars().collect();
    match AnchoredMatcher::for_regexp(regexp).search(&chars, 0) {
        Some(m) => m.start as isize,
        None => -1,
    }
}

/// `String.prototype.replace(regexp, replacement)` (§21.1.3.14) with
/// `$&`, `` $` ``, `$'`, `$1`–`$99` and `$$` substitution patterns.
///
/// Replaces the first match, or all matches under the `g` flag.
pub fn string_replace(input: &str, regexp: &mut RegExp, replacement: &str) -> String {
    let chars: Vec<char> = input.chars().collect();
    let global = regexp.flags().global;
    let mut out = String::new();
    let mut cursor = 0usize;
    regexp.set_last_index(0);
    let matcher = AnchoredMatcher::for_regexp(regexp);
    loop {
        // Search from `cursor` manually so non-global regexes also
        // continue correctly on the first iteration.
        let m = if regexp.flags().sticky {
            matcher.match_at(&chars, cursor)
        } else {
            matcher.search(&chars, cursor)
        };
        let Some(m) = m else { break };
        out.extend(&chars[cursor..m.start]);
        expand_replacement(&mut out, replacement, &chars, m.start, m.end, &m.captures.0);
        let advanced = if m.end == m.start {
            // Empty match: copy one char through to avoid looping.
            if m.end < chars.len() {
                out.push(chars[m.end]);
            }
            m.end + 1
        } else {
            m.end
        };
        cursor = advanced;
        if !global || cursor > chars.len() {
            break;
        }
    }
    if cursor <= chars.len() {
        out.extend(&chars[cursor.min(chars.len())..]);
    }
    regexp.set_last_index(0);
    out
}

fn expand_replacement(
    out: &mut String,
    replacement: &str,
    chars: &[char],
    start: usize,
    end: usize,
    captures: &[Option<(usize, usize)>],
) {
    let rep: Vec<char> = replacement.chars().collect();
    let mut i = 0;
    while i < rep.len() {
        if rep[i] == '$' && i + 1 < rep.len() {
            match rep[i + 1] {
                '$' => {
                    out.push('$');
                    i += 2;
                }
                '&' => {
                    out.extend(&chars[start..end]);
                    i += 2;
                }
                '`' => {
                    out.extend(&chars[..start]);
                    i += 2;
                }
                '\'' => {
                    out.extend(&chars[end..]);
                    i += 2;
                }
                d if d.is_ascii_digit() => {
                    // Longest valid group number wins ($10 before $1).
                    let mut num = d.to_digit(10).expect("digit") as usize;
                    let mut width = 1;
                    if i + 2 < rep.len() {
                        if let Some(d2) = rep[i + 2].to_digit(10) {
                            let two = num * 10 + d2 as usize;
                            if two < captures.len() {
                                num = two;
                                width = 2;
                            }
                        }
                    }
                    if num >= 1 && num < captures.len() {
                        if let Some((s, e)) = captures[num] {
                            out.extend(&chars[s..e]);
                        }
                        i += 1 + width;
                    } else {
                        out.push('$');
                        i += 1;
                    }
                }
                _ => {
                    out.push('$');
                    i += 1;
                }
            }
        } else {
            out.push(rep[i]);
            i += 1;
        }
    }
}

/// `String.prototype.split(separator)` (§21.1.3.17) for regexp
/// separators: capture groups are spliced into the output, and empty
/// leading/trailing pieces follow the spec.
pub fn string_split(input: &str, regexp: &RegExp, limit: Option<usize>) -> Vec<String> {
    let chars: Vec<char> = input.chars().collect();
    let limit = limit.unwrap_or(usize::MAX);
    let mut out: Vec<String> = Vec::new();
    if limit == 0 {
        return out;
    }
    let matcher = AnchoredMatcher::for_regexp(regexp);
    if chars.is_empty() {
        // Spec: if the regex matches empty input, the result is [].
        if matcher.match_at(&chars, 0).is_some() {
            return out;
        }
        out.push(String::new());
        return out;
    }
    let mut piece_start = 0usize; // spec variable p
    let mut q = 0usize;
    while q < chars.len() {
        match matcher.match_at(&chars, q) {
            Some(m) if m.end != piece_start => {
                out.push(chars[piece_start..q].iter().collect());
                if out.len() == limit {
                    return out;
                }
                for slot in m.captures.0.iter().skip(1) {
                    out.push(
                        slot.map(|(s, e)| chars[s..e].iter().collect::<String>())
                            .unwrap_or_default(),
                    );
                    if out.len() == limit {
                        return out;
                    }
                }
                piece_start = m.end;
                q = piece_start.max(q + 1);
            }
            _ => q += 1,
        }
    }
    out.push(chars[piece_start..].iter().collect());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_returns_match_array() {
        // §2.2's example semantics via exec.
        let mut r = RegExp::new(r"a|((b)*c)*d", "").expect("valid");
        let m = r.exec("bbbbcbcd").expect("match");
        assert_eq!(m.captures[0].as_deref(), Some("bbbbcbcd"));
        assert_eq!(m.captures[1].as_deref(), Some("bc"));
        assert_eq!(m.captures[2].as_deref(), Some("b"));
        assert_eq!(m.index, 0);
    }

    #[test]
    fn sticky_statefulness() {
        // §2.1 example: lastIndex advances then resets.
        let mut r = RegExp::from_literal("/goo+d/y").expect("valid");
        assert!(r.test("goood"));
        assert_eq!(r.last_index(), 5);
        assert!(!r.test("goood"));
        assert_eq!(r.last_index(), 0);
    }

    #[test]
    fn clones_share_the_program_but_not_last_index() {
        // The §2.1 sticky example on two clones of one object: both see
        // one compiled program, each advances its own lastIndex.
        let first = RegExp::from_literal("/goo+d/y").expect("valid");
        let mut a = first.clone();
        let mut b = first.clone();
        assert!(a.test("goood"));
        assert_eq!((a.last_index(), b.last_index()), (5, 0));
        assert!(b.test("goood"));
        assert!(!a.test("goood"));
        assert_eq!((a.last_index(), b.last_index()), (0, 5));
        assert_eq!(first.last_index(), 0);

        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        let prog = |re: &RegExp| re.prog().map(|p| p as *const Prog);
        assert!(prog(&first).is_some(), "the pattern takes the fast path");
        assert_eq!(prog(&a), prog(&first));
        assert_eq!(prog(&b), prog(&first));
    }

    #[test]
    fn from_shared_wraps_the_literal_without_copying() {
        let literal = Arc::new(Regex::parse_literal("/goo+d/y").expect("valid"));
        let mut re = RegExp::from_shared(Arc::clone(&literal));
        assert!(std::ptr::eq(re.regex(), &*literal));
        assert_eq!(Arc::strong_count(&literal), 2);
        assert!(re.test("goood"));
        assert_eq!(re.last_index(), 5);
        drop(re);
        assert_eq!(Arc::strong_count(&literal), 1);
    }

    #[test]
    fn global_exec_iterates_matches() {
        let mut r = RegExp::new(r"\d+", "g").expect("valid");
        let first = r.exec("a1b22c333").expect("first");
        assert_eq!(first.matched(), "1");
        let second = r.exec("a1b22c333").expect("second");
        assert_eq!(second.matched(), "22");
        let third = r.exec("a1b22c333").expect("third");
        assert_eq!(third.matched(), "333");
        assert!(r.exec("a1b22c333").is_none());
        assert_eq!(r.last_index(), 0);
    }

    #[test]
    fn non_global_exec_is_stateless() {
        let mut r = RegExp::new("a", "").expect("valid");
        let m1 = r.exec("xa").expect("m1");
        let m2 = r.exec("xa").expect("m2");
        assert_eq!(m1.index, m2.index);
    }

    #[test]
    fn string_match_global_collects_all() {
        let mut r = RegExp::new(r"\d+", "g").expect("valid");
        assert_eq!(
            string_match("a1b22c333", &mut r),
            Some(vec!["1".into(), "22".into(), "333".into()])
        );
    }

    #[test]
    fn string_match_none() {
        let mut r = RegExp::new(r"\d", "g").expect("valid");
        assert_eq!(string_match("abc", &mut r), None);
    }

    #[test]
    fn search_returns_index() {
        let r = RegExp::new("o+", "").expect("valid");
        assert_eq!(string_search("goood", &r), 1);
        assert_eq!(string_search("gd", &r), -1);
    }

    #[test]
    fn replace_first_and_global() {
        let mut r = RegExp::new("goo+d", "").expect("valid");
        assert_eq!(
            string_replace("so goood and good", &mut r, "better"),
            "so better and good"
        );
        let mut rg = RegExp::new("goo+d", "g").expect("valid");
        assert_eq!(
            string_replace("so goood and good", &mut rg, "better"),
            "so better and better"
        );
    }

    #[test]
    fn replace_with_group_substitution() {
        let mut r = RegExp::new(r"(\w+)@(\w+)", "").expect("valid");
        assert_eq!(
            string_replace("mail me: bob@example", &mut r, "$2 gets $1 ($&)"),
            "mail me: example gets bob (bob@example)"
        );
    }

    #[test]
    fn replace_dollar_escapes() {
        let mut r = RegExp::new("a", "").expect("valid");
        assert_eq!(string_replace("a", &mut r, "$$"), "$");
        assert_eq!(string_replace("xay", &mut r, "[$`|$']"), "x[x|y]y");
    }

    #[test]
    fn split_basic() {
        let r = RegExp::new(",", "").expect("valid");
        assert_eq!(string_split("a,b,c", &r, None), vec!["a", "b", "c"]);
    }

    #[test]
    fn split_with_captures() {
        // Spec: capture groups are included in the result.
        let r = RegExp::new(r"(\d)", "").expect("valid");
        assert_eq!(
            string_split("a1b2c", &r, None),
            vec!["a", "1", "b", "2", "c"]
        );
    }

    #[test]
    fn split_empty_input_matching_regex() {
        let r = RegExp::new(".?", "").expect("valid");
        assert_eq!(string_split("", &r, None), Vec::<String>::new());
    }

    #[test]
    fn split_limit() {
        let r = RegExp::new(",", "").expect("valid");
        assert_eq!(string_split("a,b,c", &r, Some(2)), vec!["a", "b"]);
    }

    #[test]
    fn exec_last_index_beyond_input() {
        let mut r = RegExp::new("a", "y").expect("valid");
        r.set_last_index(10);
        assert!(r.exec("aaa").is_none());
        assert_eq!(r.last_index(), 0);
    }

    #[test]
    fn global_flag_empty_match_progress() {
        let mut r = RegExp::new("x?", "g").expect("valid");
        // Must terminate even though every position matches empty.
        let all = string_match("abc", &mut r);
        assert!(all.is_some());
    }
}
