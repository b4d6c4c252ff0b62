//! A string constraint solver for the fragment emitted by the
//! capturing-language models: word equations, classical regular
//! (non-)membership, literal (dis)equalities, variable aliases and
//! boolean definedness flags.
//!
//! This crate is the workspace's substitute for Z3's string/regex theory
//! (the paper solves its models with Z3, §6.2): the constraint fragment
//! is the same shape, and the solver is refutation-sound and model-sound
//! within configurable budgets, answering [`Outcome::Unknown`] otherwise
//! — exactly how DSE treats SMT timeouts (paper §5.3).
//!
//! # Examples
//!
//! The running §3.3 constraint shape — split a word into pieces with
//! regular constraints on the pieces:
//!
//! ```
//! use strsolve::{Formula, Solver, Term, VarPool};
//! use automata::{CharSet, CRegex};
//!
//! let mut pool = VarPool::new();
//! let w = pool.fresh_str();
//! let tag = pool.fresh_str();
//! // w = "<" ++ tag ++ ">"  ∧  tag ∈ [a-z]+
//! let formula = Formula::and(vec![
//!     Formula::eq_concat(w, vec![Term::lit("<"), Term::Var(tag), Term::lit(">")]),
//!     Formula::in_re(tag, CRegex::plus(CRegex::set(CharSet::range('a', 'z')))),
//! ]);
//! let (outcome, _) = Solver::default().solve(&formula);
//! let model = outcome.model().expect("satisfiable");
//! assert_eq!(model.get_str(w), Some("<a>"));
//! ```

pub mod cache;
pub mod config;
pub mod formula;
pub mod model;
pub mod session;
pub mod solver;
pub mod stats;
pub mod vars;

pub use cache::{
    canonical_query, CacheStats, CanonicalQuery, Canonicalizer, Evicted, Lru, SharedLru,
};
pub use config::SolverConfig;
pub use formula::{Atom, Formula};
pub use model::Model;
pub use session::{
    conjunct_digest, Group, SessionStats, SessionView, Shape, SolveSession, ViewKey,
};
pub use solver::{DfaTables, Outcome, Solver};
pub use stats::SolveStats;
pub use vars::{BoolVar, StrVar, Term, VarPool};
