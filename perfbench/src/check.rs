//! The output check: every measured job's deterministic outcome must
//! equal the one the serial, cache-disabled engine computes for the
//! same program. References are built after the timed region.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use expose_dse::ast::Program;
use expose_dse::{run_dse_with_caches, DseCaches, EngineConfig, Harness, Report};
use expose_service::json::Value;
use expose_service::verdict_digest;

/// The scheduling-independent outcome of one DSE job: the verdict-trail
/// digest, coverage and generated tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV digest of the `(sat, refinements, limit_hit)` trail.
    pub verdicts: u64,
    /// Statements in the program.
    pub stmts: u64,
    /// Statements covered.
    pub covered: u64,
    /// Distinct inputs generated.
    pub tests: u64,
}

impl Digest {
    /// The digest of an in-process report.
    pub fn of(report: &Report) -> Digest {
        Digest {
            verdicts: verdict_digest(report),
            stmts: u64::from(report.stmt_count),
            covered: report.coverage.len() as u64,
            tests: report.tests_generated as u64,
        }
    }

    /// The digest carried by a service `result` line; the line's
    /// `error` text when the job failed.
    pub fn from_result_line(line: &Value) -> Result<Digest, String> {
        if let Some(error) = line.get("error").and_then(Value::as_str) {
            return Err(error.to_string());
        }
        let number = |key: &str| {
            line.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("result line lacks {key:?}"))
        };
        let verdicts = line
            .get("verdicts")
            .and_then(Value::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("result line lacks \"verdicts\"")?;
        Ok(Digest {
            verdicts,
            stmts: number("stmts")?,
            covered: number("covered")?,
            tests: number("tests")?,
        })
    }
}

/// Runs `work(i)` for `i in 0..n` on `threads` threads, returning the
/// results in index order; a panicking item yields `Err`.
pub fn parallel_map<T: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<T, String>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| work(i)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                slots.lock().expect("result slots poisoned")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every index ran"))
        .collect()
}

/// The text of a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked".to_string())
}

/// Reference digests of `programs` under `config` (the serial,
/// cache-disabled configuration), computed on `threads` threads that
/// each run one job at a time.
pub fn reference_digests(
    programs: &[(&Program, &Harness)],
    config: &EngineConfig,
    threads: usize,
) -> Vec<Result<Digest, String>> {
    parallel_map(programs.len(), threads, |i| {
        let (program, harness) = programs[i];
        Digest::of(&run_dse_with_caches(
            program,
            harness,
            config,
            &DseCaches::disabled(),
        ))
    })
}

/// Counts of the output check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that panicked, errored, got no answer or differed from the
    /// reference.
    pub failed: u64,
}

impl Tally {
    /// Checks one job's outcome against its reference.
    pub fn check(
        &mut self,
        name: &str,
        outcome: &Result<Digest, String>,
        reference: &Result<Digest, String>,
    ) {
        self.attempted += 1;
        match (outcome, reference) {
            (Ok(got), Ok(want)) if got == want => {}
            (Ok(got), Ok(want)) => {
                self.failed += 1;
                eprintln!("perfbench: {name}: output {got:?} differs from reference {want:?}");
            }
            (Err(error), _) => {
                self.failed += 1;
                eprintln!("perfbench: {name}: job failed: {error}");
            }
            (Ok(_), Err(error)) => {
                self.failed += 1;
                eprintln!("perfbench: {name}: reference run failed: {error}");
            }
        }
    }

    /// Counts a job that never got an answer.
    pub fn missing(&mut self, name: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: {name}: no response");
    }
}
