//! A dynamic symbolic execution engine for a JavaScript-like language
//! with sound symbolic ES6 regex support — the ExpoSE reproduction.
//!
//! The crate provides:
//!
//! * a mini-JS language ([`ast`], [`lexer`], [`parser`]) rich enough to
//!   express the paper's workloads (Listing 1 is a test case);
//! * a concolic interpreter ([`interp`]) that records path conditions
//!   and regex events (§3.2);
//! * query construction and solving ([`solve`]) through the
//!   capturing-language models and CEGAR loop of [`expose_core`];
//! * a generational-search driver with CUPA-style scheduling
//!   ([`engine`], §6.2), parameterized by the Table 7 support levels;
//! * a work-stealing sharded scheduler for job streams ([`sched`]),
//!   with the one-shot batch front door ([`batch`]) on top;
//! * a pure-concolic exploration orchestrator ([`mod@explore`]) that
//!   closes the solve→seed loop over a deterministic corpus
//!   ([`store`]) driven by a coverage frontier ([`frontier`]).
//!
//! # Examples
//!
//! ```
//! use expose_dse::{run_dse, EngineConfig, Harness, parser::parse_program};
//!
//! let program = parse_program(r#"
//!     function check(s) {
//!         if (/^-?[0-9]+$/.test(s)) { return "int"; }
//!         return "other";
//!     }
//! "#)?;
//! let report = run_dse(&program, &Harness::strings("check", 1), &EngineConfig::default());
//! assert!(report.coverage_fraction() > 0.9);
//! # Ok::<(), expose_dse::parser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod batch;
pub mod caching;
pub mod engine;
pub mod explore;
pub mod frontier;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod sched;
pub mod solve;
pub mod store;
pub mod sym;
pub mod value;

pub use batch::{BatchOptions, Job};
pub use caching::{CacheSet, DseCaches};
pub use engine::{
    build_solver, run_dse, run_dse_observed, run_dse_with_caches, EngineConfig, Report,
};
pub use explore::{
    explore, explore_observed, explore_with_caches, ExploreBug, ExploreConfig, ExploreReport,
    IterationProgress, StopReason,
};
pub use frontier::{CoverageMap, FrontierScheduler};
pub use interp::{execute, execute_with, ArgSpec, Harness, InterpConfig, MatcherMemo};
pub use sched::{Completion, JobId, Scheduler, SchedulerConfig, ShardStats};
pub use solve::{solve_flip, FlipResult, QueryRecord, TraceFlipSession};
pub use store::{content_hash, trail_digest, CorpusEntry, CorpusStore};
pub use sym::{Clause, RegexEvent, SymExpr, Trace};
pub use value::{Concolic, Value};
