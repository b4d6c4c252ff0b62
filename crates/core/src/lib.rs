//! Sound ES6 regex semantics for dynamic symbolic execution — the
//! paper's core contribution.
//!
//! This crate reproduces the system of *Sound Regular Expression
//! Semantics for Dynamic Symbolic Execution of JavaScript* (PLDI 2019):
//!
//! * [`model`] — the capturing-language models of Tables 2 and 3:
//!   ES6 regexes translate to string constraints plus classical regular
//!   membership, with capture variables distinguishing `⊥` from `ε`;
//! * [`negate`] — the non-membership models of §4.4;
//! * [`cegar`] — Algorithm 1, the counterexample-guided abstraction
//!   refinement that restores matching precedence (greediness) using the
//!   concrete ES6 matcher as oracle;
//! * [`api`] — Algorithm 2, the symbolic `RegExp.exec`/`test` models
//!   with the ⟨/⟩ input markers ([`meta`]) and flag handling;
//! * [`config`] — the §7.3 support levels used by the evaluation;
//! * [`cache`] — the cross-query model cache that amortizes model
//!   construction over the thousands of times DSE re-encounters the
//!   same regex.
//!
//! # Examples
//!
//! Find an input on which `/^(a+)(b+)$/` matches with a non-empty
//! second group, with engine-faithful (greedy) capture values:
//!
//! ```
//! use expose_core::{api::build_match_model, cegar::CegarSolver, model::BuildConfig};
//! use regex_syntax_es6::Regex;
//! use strsolve::{Formula, VarPool};
//!
//! let regex = Regex::parse_literal("/^(a+)(b+)$/")?;
//! let mut pool = VarPool::new();
//! let constraint = build_match_model(&regex, true, &mut pool, &BuildConfig::default());
//! let result = CegarSolver::default().solve(&Formula::top(), &[constraint.clone()]);
//! let model = result.outcome.model().expect("satisfiable");
//! let input = model.get_str(constraint.input).expect("assigned");
//! let mut oracle = es6_matcher::RegExp::from_regex(constraint.regex.clone());
//! assert!(oracle.test(input));
//! # Ok::<(), regex_syntax_es6::ParseError>(())
//! ```

pub mod api;
pub mod cache;
pub mod cegar;
pub mod classical;
pub mod config;
pub mod meta;
pub mod model;
pub mod negate;

pub use api::{build_match_model, CapturingConstraint};
pub use cache::ModelCache;
pub use cegar::{CegarCache, CegarResult, CegarSolver, CegarStats};
pub use config::SupportLevel;
pub use model::{BuildConfig, CaptureVar, ModelBuilder, RegexModel};
