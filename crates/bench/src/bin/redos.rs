//! The `redos-smoke` CI gate: every pattern in the shared ReDoS corpus
//! must be *decided* by the Pike-VM fast path within its linear step
//! bound, while the budgeted backtracker flags each one as
//! `StepLimitExceeded` — the paper's timeout-as-ReDoS-detector signal,
//! now with a fast engine that answers anyway.
//!
//! Exits nonzero if any case violates either side, or if the aggregate
//! VM-vs-backtracker wall-clock speedup falls below 10x.
//!
//! ```text
//! cargo run --release -p bench --bin redos -- [--bt-budget N]
//! ```

use bench::redos::{redos_corpus, run_case};

const USAGE: &str = "usage: redos [--bt-budget N]";

/// Prints the usage line and exits: 0 for `--help` (no `problem`), 64
/// (`EX_USAGE`) for an unknown or malformed argument.
fn usage(problem: Option<&str>) -> ! {
    match problem {
        None => {
            println!("{USAGE}");
            std::process::exit(0)
        }
        Some(problem) => {
            eprintln!("redos: {problem}");
            eprintln!("{USAGE}");
            std::process::exit(64)
        }
    }
}

fn main() {
    let mut bt_budget = 2_000_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bt-budget" => {
                bt_budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage(Some("--bt-budget needs a number")))
            }
            "--help" | "-h" => usage(None),
            other => usage(Some(&format!("unknown argument {other:?}"))),
        }
    }

    let corpus = redos_corpus();
    println!(
        "{:<18} {:>10} {:>12} {:>9} {:>10} {:>9}",
        "case", "vm steps", "vm bound", "vm ms", "bt budget", "bt ms"
    );
    let mut vm_ms = 0.0f64;
    let mut bt_ms = 0.0f64;
    let mut failures = 0usize;
    for case in &corpus {
        let outcome = run_case(case, bt_budget);
        println!(
            "{:<18} {:>10} {:>12} {:>9.3} {:>10} {:>9.1}",
            outcome.name,
            outcome.vm_steps,
            outcome.vm_bound,
            outcome.vm_ms,
            if outcome.bt_flagged { "hit" } else { "MISSED" },
            outcome.bt_ms
        );
        vm_ms += outcome.vm_ms;
        bt_ms += outcome.bt_ms;
        if !outcome.bt_flagged {
            eprintln!(
                "redos: FAIL — backtracker finished {} within {bt_budget} steps; \
                 the input is not pathological enough to gate on",
                outcome.name
            );
            failures += 1;
        }
    }
    let speedup = bt_ms / vm_ms.max(1e-9);
    println!(
        "total: vm {vm_ms:.2} ms, backtracker (to budget verdict) {bt_ms:.1} ms, \
         speedup {speedup:.0}x"
    );
    if speedup < 10.0 {
        eprintln!("redos: FAIL — VM-vs-backtracker speedup {speedup:.1}x below the 10x gate");
        failures += 1;
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!(
        "redos: OK — {} cases decided on the fast path",
        corpus.len()
    );
}
