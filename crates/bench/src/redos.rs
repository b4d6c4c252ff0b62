//! The shared ReDoS corpus: classic catastrophic-backtracking patterns
//! with non-matching inputs sized so the backtracker's search space is
//! astronomically large while the Pike VM's `O(n·m)` simulation decides
//! each in microseconds.
//!
//! Used by the `redos` CI gate binary (the `redos-smoke` job).

use es6_matcher::{compile, Engine, PikeVm, Prog};
use regex_syntax_es6::{Flags, Regex};

/// One pathological pattern plus the adversarial input that triggers
/// exponential backtracking.
#[derive(Debug, Clone, Copy)]
pub struct RedosCase {
    /// Short stable identifier (fit for JSON keys and table rows).
    pub name: &'static str,
    /// The regex source, without delimiters.
    pub pattern: &'static str,
    /// Flag string (parsed with [`Flags`]).
    pub flags: &'static str,
    /// The input that blows up a backtracking search.
    pub input: &'static str,
}

/// The corpus. Every pattern is backreference-free so
/// [`es6_matcher::select()`] routes it to the Pike VM; every input fails
/// to match, forcing a backtracker to exhaust the whole search space.
pub fn redos_corpus() -> Vec<RedosCase> {
    vec![
        RedosCase {
            name: "nested_plus",
            pattern: "^(a+)+$",
            flags: "",
            input: "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab",
        },
        RedosCase {
            name: "alt_same",
            pattern: "^(a|a)*$",
            flags: "",
            input: "aaaaaaaaaaaaaaaaaaaaaaaaab",
        },
        RedosCase {
            name: "alt_overlap",
            pattern: "^(a|aa)+$",
            flags: "",
            input: "aaaaaaaaaaaaaaaaaaaaaaaaaaaab",
        },
        RedosCase {
            name: "class_star_star",
            pattern: "^([a-zA-Z]+)*$",
            flags: "",
            input: "abcdefghijklmnopqrstuvwxyzAB!",
        },
        RedosCase {
            name: "star_in_star",
            pattern: "(a*)*b",
            flags: "",
            input: "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaac",
        },
        RedosCase {
            name: "nested_dot",
            pattern: "^(.*)*x$",
            flags: "",
            input: "yyyyyyyyyyyyyyyyyyyyyyyyyyy",
        },
        RedosCase {
            name: "xml_tag",
            // The paper's motivating shape: an XML open-tag matcher
            // whose inner quantifier overlaps with the outer one (the
            // optional `\s*` lets a name run split arbitrarily across
            // iterations), on a tag that never closes.
            pattern: "<(\\w+\\s*)*>",
            flags: "",
            input: "<timeout aaaaaaaaaaaaaaaaaaaaaa",
        },
        RedosCase {
            name: "email_local",
            // Email local-part with *optional* dot separators: a letter
            // run partitions into iterations in exponentially many ways
            // once the `@` never arrives.
            pattern: "^([a-z0-9]+[.]?)+@[a-z0-9]+[.][a-z]+$",
            flags: "",
            input: "aaaaaaaaaaaaaaaaaaaaaaaaaa",
        },
        RedosCase {
            name: "word_runs",
            pattern: "^(\\w+\\s?)*$",
            flags: "",
            input: "some words and then some more!",
        },
    ]
}

/// Parses one case's pattern. Panics on a malformed corpus entry —
/// these are compile-time constants, not inputs.
pub fn parse_case(case: &RedosCase) -> Regex {
    let flags: Flags = case.flags.parse().expect("corpus flags parse");
    Regex::new(case.pattern, flags)
        .unwrap_or_else(|e| panic!("corpus pattern {} must parse: {e}", case.name))
}

/// Compiles one case for the fast path. Panics if the pattern falls
/// back — the corpus is Pike-VM-routable by construction, and a
/// fallback here means the selection analysis regressed.
pub fn compile_case(case: &RedosCase) -> (Regex, Prog) {
    let regex = parse_case(case);
    let prog = compile(&regex.ast, regex.flags).unwrap_or_else(|e| {
        panic!(
            "corpus pattern {} must take the fast path, fell back: {}",
            case.name, e.reason
        )
    });
    (regex, prog)
}

/// The `O(n·m)` step-bound witness for one program and input length:
/// generous constant factor, but linear in `n` and in program size.
pub fn vm_step_bound(prog: &Prog, input_chars: usize) -> u64 {
    (input_chars as u64 + 2) * (prog.code.len() as u64 + 1) * (prog.looks.len() as u64 + 1) * 8
}

/// Outcome of running one corpus case through both engines.
#[derive(Debug, Clone)]
pub struct RedosOutcome {
    /// The case name.
    pub name: &'static str,
    /// VM instruction visits (must stay under [`vm_step_bound`]).
    pub vm_steps: u64,
    /// The bound the VM was held to.
    pub vm_bound: u64,
    /// VM wall-clock for the search, in milliseconds.
    pub vm_ms: f64,
    /// Whether the budgeted backtracker exhausted its step budget
    /// (the expected ReDoS signal).
    pub bt_flagged: bool,
    /// Backtracker wall-clock until the budget verdict, in milliseconds.
    pub bt_ms: f64,
}

/// Runs one case: the Pike VM must *decide* it (no match, within the
/// linear bound); the backtracker, budgeted at `bt_budget` steps, is
/// expected to exhaust the budget.
pub fn run_case(case: &RedosCase, bt_budget: u64) -> RedosOutcome {
    let (regex, prog) = compile_case(case);
    let chars: Vec<char> = case.input.chars().collect();
    let bound = vm_step_bound(&prog, chars.len());

    let vm = PikeVm::new(&prog);
    let started = std::time::Instant::now();
    let vm_result = vm.search_within(&chars, 0, bound);
    let vm_ms = started.elapsed().as_secs_f64() * 1e3;
    match vm_result {
        Ok(Some(m)) => panic!(
            "corpus input for {} unexpectedly matched at {}..{}",
            case.name, m.start, m.end
        ),
        Ok(None) => {}
        Err(_) => panic!(
            "Pike VM exceeded its linear bound on {} ({} steps > {bound})",
            case.name,
            vm.last_steps()
        ),
    }

    let bt = Engine::new(&regex.ast, regex.flags);
    let started = std::time::Instant::now();
    let bt_flagged = bt.search_within(&chars, 0, bt_budget).is_err();
    let bt_ms = started.elapsed().as_secs_f64() * 1e3;

    RedosOutcome {
        name: case.name,
        vm_steps: vm.last_steps(),
        vm_bound: bound,
        vm_ms,
        bt_flagged,
        bt_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parses_and_compiles() {
        for case in redos_corpus() {
            let (_, prog) = compile_case(&case);
            assert!(!prog.code.is_empty(), "{}: empty program", case.name);
        }
    }

    #[test]
    fn shared_and_owned_regexps_agree() {
        // A `RegExp` wrapping a shared literal (as the DSE interpreter
        // builds them) and one owning a copy give the same `exec` result
        // on every prefix of every corpus input, matching ones included.
        let mut matched = 0;
        for case in redos_corpus() {
            let regex = parse_case(&case);
            let mut owned = es6_matcher::RegExp::from_regex(regex.clone());
            let mut shared = es6_matcher::RegExp::from_shared(std::sync::Arc::new(regex));
            assert_eq!(owned.engine_kind(), shared.engine_kind(), "{}", case.name);
            let chars: Vec<char> = case.input.chars().collect();
            for end in 0..=chars.len() {
                let input: String = chars[..end].iter().collect();
                let result = owned.exec(&input);
                assert_eq!(result, shared.exec(&input), "{} on {input:?}", case.name);
                assert_eq!(owned.last_index(), shared.last_index());
                matched += usize::from(result.is_some());
            }
        }
        assert!(
            matched > 0,
            "no prefix matched: the comparison saw only failures"
        );
    }

    #[test]
    fn vm_decides_every_case_within_bound() {
        for case in redos_corpus() {
            let outcome = run_case(&case, 100_000);
            assert!(
                outcome.vm_steps <= outcome.vm_bound,
                "{}: {} steps over bound {}",
                outcome.name,
                outcome.vm_steps,
                outcome.vm_bound
            );
            assert!(
                outcome.bt_flagged,
                "{}: backtracker finished within 100k steps — input not pathological",
                outcome.name
            );
        }
    }
}
