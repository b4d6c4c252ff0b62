//! ExpoSE-regex: sound ES6 regular expression semantics for dynamic
//! symbolic execution — a Rust reproduction of Loring, Mitchell and
//! Kinder, *Sound Regular Expression Semantics for Dynamic Symbolic
//! Execution of JavaScript* (PLDI 2019).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`syntax`] — full ES6 regex parser, AST, rewriting, analyses;
//! * [`matcher`] — specification-faithful backtracking matcher (oracle);
//! * [`automata`] — classical regexes, NFAs, minterm-alphabet DFAs;
//! * [`strsolve`] — the string constraint solver (Z3 substitute);
//! * [`core`] — capturing-language models, §4.4 negation, the CEGAR
//!   matching-precedence refinement, the Algorithm 2 API models;
//! * [`dse`] — the concolic engine for a JavaScript-like language,
//!   plus the sharded job scheduler;
//! * [`service`] — the NDJSON job service over that scheduler
//!   (`expose-serve`);
//! * [`fuzz`] — the deterministic differential fuzzer (`fuzz` binary)
//!   cross-checking matcher, automata, solver and CEGAR against each
//!   other, with a delta-debugging reproducer shrinker;
//! * [`survey`]/[`corpus`] — the §7.1 usage survey and its synthetic
//!   corpus.
//!
//! # Quickstart
//!
//! Ask for a string matching `/^(a+)(b+)$/` whose *second* group is
//! `"bb"`, with engine-faithful (greedy) capture assignment:
//!
//! ```
//! use expose::core::{api::build_match_model, cegar::CegarSolver, model::BuildConfig};
//! use expose::strsolve::{Formula, VarPool};
//! use expose::syntax::Regex;
//!
//! let regex = Regex::parse_literal("/^(a+)(b+)$/")?;
//! let mut pool = VarPool::new();
//! let c = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
//! let problem = Formula::and(vec![
//!     Formula::bool_is(c.captures[2].defined, true),
//!     Formula::eq_lit(c.captures[2].value, "bb"),
//! ]);
//! let result = CegarSolver::default().solve(&problem, &[c.clone()]);
//! let model = result.outcome.model().expect("satisfiable");
//! let input = model.get_str(c.input).expect("assigned");
//! assert!(input.ends_with("bb"));
//! # Ok::<(), expose::syntax::ParseError>(())
//! ```

pub use automata;
pub use corpus;
pub use es6_matcher as matcher;
pub use expose_core as core;
pub use expose_dse as dse;
pub use expose_fuzz as fuzz;
pub use expose_service as service;
pub use regex_syntax_es6 as syntax;
pub use strsolve;
pub use survey;
