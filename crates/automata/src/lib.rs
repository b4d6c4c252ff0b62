//! Classical regular language automata: the decision-procedure substrate
//! of the string solver.
//!
//! The capturing-language models of the paper reduce ES6 regex matching
//! to *classical* regular membership plus string constraints (§4). This
//! crate provides the classical side:
//!
//! * [`CharSet`] — scalar-value sets as sorted ranges;
//! * [`CRegex`] — classical regexes extended with intersection and
//!   complement (for lookaheads and non-membership);
//! * [`Alphabet`] — minterm partitions shared across a constraint
//!   problem, keeping DFAs small;
//! * [`Dfa`] — Thompson construction, subset construction, product,
//!   complement, projection onto a refining alphabet, emptiness,
//!   shortest-word and bounded word enumeration, all on flat,
//!   reused storage;
//! * [`minimize`] — Hopcroft minimization with canonical state
//!   numbering plus accepted-word [`LengthBounds`], driven by
//!   [`AutomataConfig`] thresholds and reported through
//!   [`BuildMetrics`];
//! * [`oracle`] — the reference builders the flat ones must reproduce
//!   byte for byte, for tests and the differential fuzzer.
//!
//! # Examples
//!
//! ```
//! use automata::{compile_classical, Alphabet, CompileOptions, Dfa};
//! use std::sync::Arc;
//!
//! let ast = regex_syntax_es6::parse("goo+d")?;
//! let re = compile_classical(&ast, &CompileOptions::default())?;
//! let mut sets = Vec::new();
//! re.collect_sets(&mut sets);
//! let alphabet = Arc::new(Alphabet::from_sets(&sets));
//! let dfa = Dfa::from_cregex(&re, &alphabet);
//! assert!(dfa.contains("goood"));
//! assert_eq!(dfa.shortest_word(), Some("good".to_string()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod alphabet;
mod build;
pub mod charset;
pub mod config;
pub mod cregex;
pub mod dfa;
mod fxhash;
pub mod minimize;
mod nfa;
pub mod oracle;

pub use alphabet::{Alphabet, ClassId};
pub use charset::CharSet;
pub use config::{AutomataConfig, BuildMetrics};
pub use cregex::{compile_classical, compile_classical_into, CRegex, CompileOptions, NotClassical};
pub use dfa::{Dfa, WordIter};
pub use fxhash::FxHasher;
pub use minimize::LengthBounds;
