//! Shared harness for the evaluation reproduction (Tables 4–8).
//!
//! Each `table*` binary regenerates one table of the paper's evaluation
//! section; this library holds the run helpers they share, the ReDoS
//! corpus, and the TCP soak client of `serve-harness`.

pub mod redos;
pub mod soak;

use corpus::{DseProgram, LibraryWorkload};
use expose_core::SupportLevel;
use expose_dse::parser::parse_program;
use expose_dse::{run_dse, EngineConfig, Harness, Report};
use strsolve::SolverConfig;

/// Budget preset for the DSE experiments.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum executions per program.
    pub executions: usize,
    /// Interpreter step budget per execution.
    pub steps: u64,
}

impl Budget {
    /// A quick budget for benches and CI. Generous enough in
    /// executions that the generational search re-visits shared path
    /// prefixes — the regime the cross-query caches are built for (and
    /// the regime real DSE runs spend their time in).
    pub fn quick() -> Budget {
        Budget {
            executions: 40,
            steps: 50_000,
        }
    }

    /// The budget used by the table binaries.
    pub fn full() -> Budget {
        Budget {
            executions: 48,
            steps: 100_000,
        }
    }
}

/// Engine configuration for a support level and budget.
pub fn engine_config(support: SupportLevel, budget: Budget) -> EngineConfig {
    EngineConfig {
        support,
        max_executions: budget.executions,
        max_steps: budget.steps,
        solver: SolverConfig::default(),
        ..EngineConfig::default()
    }
}

/// Runs one Table 6 library workload at a support level.
pub fn run_workload(workload: &LibraryWorkload, support: SupportLevel, budget: Budget) -> Report {
    let program = parse_program(workload.source)
        .unwrap_or_else(|e| panic!("workload {} must parse: {e}", workload.name));
    let harness = Harness::strings(workload.entry, workload.arity);
    run_dse(&program, &harness, &engine_config(support, budget))
}

/// Runs one generated Table 7 program at a support level.
pub fn run_generated(program: &DseProgram, support: SupportLevel, budget: Budget) -> Report {
    let parsed = parse_program(&program.source)
        .unwrap_or_else(|e| panic!("program {} must parse: {e}", program.name));
    let harness = Harness::strings(&program.entry, program.arity);
    run_dse(&parsed, &harness, &engine_config(support, budget))
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Geometric mean of (strictly positive) ratios.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-9).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
    }

    #[test]
    fn workloads_all_parse_and_run() {
        for w in corpus::library_workloads() {
            let report = run_workload(
                &w,
                SupportLevel::Concrete,
                Budget {
                    executions: 1,
                    steps: 10_000,
                },
            );
            assert!(report.executions >= 1, "{} must execute", w.name);
        }
    }
}
