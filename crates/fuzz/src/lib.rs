//! Differential fuzzing of the whole reproduction stack.
//!
//! The paper's central claim is *soundness*: every `Sat` the CEGAR loop
//! returns matches under spec-faithful ES6 semantics, and `Unsat` is
//! never wrong. Hand-written suites only cover fixed corpora; this
//! crate manufactures scenarios forever. A seed deterministically
//! becomes a random ES6 regex (spanning the full Table 1/Table 5
//! feature space) plus a query over its capture model, and the case is
//! cross-checked through four independent layers:
//!
//! * the **concrete matcher** (`es6-matcher`, step-budgeted) as ground
//!   truth,
//! * the **automata** word-language DFA on the classical fragment,
//!   whose alphabets and automata are also rebuilt by the reference
//!   builders of `automata::oracle` and must come out byte-identical,
//! * the **string solver** (`strsolve`) verdict and model on the
//!   Algorithm 2 formula,
//! * the full **CEGAR** loop, with every `Sat` model re-executed
//!   through the matcher and every `Unsat` cross-checked by bounded
//!   word enumeration over a small alphabet.
//!
//! `Unknown` is never a failure — it is tracked as a support-level
//! metric ([`FuzzStats::unknown_rate`]). A failing case is reduced by
//! the delta-debugging [`shrink()`](fn@shrink) reducer to a minimal
//! reproducer, rendered
//! as a ready-to-paste Rust test, and checked into the regression
//! corpus (`crates/fuzz/corpus/`), which a normal `cargo test`
//! replays.
//!
//! # Examples
//!
//! ```
//! use expose_fuzz::{run_range, FuzzBudget};
//! use regex_syntax_es6::arbitrary::GenConfig;
//!
//! let (stats, failures) = run_range(0..50, &GenConfig::default(), &FuzzBudget::quick());
//! assert_eq!(stats.cases, 50);
//! assert!(failures.is_empty(), "disagreements: {failures:?}");
//! ```

pub mod case;
pub mod check;
pub mod gen;
pub mod shrink;
pub mod stats;

use std::ops::Range;

pub use case::{Case, Query};
pub use check::{run_case, CaseOutcome, Disagreement, FuzzBudget, Layer};
pub use gen::generate_case;
pub use regex_syntax_es6::arbitrary::GenConfig;
pub use shrink::{render_repro_test, shrink, shrink_with, Shrunk};
pub use stats::FuzzStats;

/// A failing case together with its disagreement.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The failing case.
    pub case: Case,
    /// What failed.
    pub disagreement: Disagreement,
}

/// Generates and checks every seed in `seeds`, returning the aggregate
/// statistics and all failing cases (unshrunk — see [`shrink()`](fn@shrink)).
pub fn run_range(
    seeds: Range<u64>,
    cfg: &GenConfig,
    budget: &FuzzBudget,
) -> (FuzzStats, Vec<Failure>) {
    let mut stats = FuzzStats::default();
    let mut failures = Vec::new();
    for seed in seeds {
        let case = generate_case(seed, cfg, budget);
        let outcome = run_case(&case, budget);
        stats.absorb(&outcome);
        if let Some(disagreement) = outcome.disagreement {
            failures.push(Failure { case, disagreement });
        }
    }
    (stats, failures)
}
