//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit; per-layer metrics
//! also say what they should move), then, as the last line, the JSON
//! result. Exits 2 when an output was wrong.
//!
//! Extra option: `--spans-out <path>` (where the traced run writes its
//! spans; default `perfbench/out/spans-<workload>-<seed>.ndjson`).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::run;
use perfbench::{RunOptions, Scale, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload dse-shared|dse-novel|serve-tcp --seed <n> \
         --seconds <s> --trace 0|1 [--spans-out <path>]"
    );
    ExitCode::from(64)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(n) => seed = Some(n),
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace flag {value:?}")),
            },
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            other => return usage(&format!("unknown option {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let spans_out = trace.then(|| {
        spans_out.unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench/out/spans-{}-{seed}.ndjson",
                workload.name()
            ))
        })
    });
    let options = RunOptions {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        spans_out,
    };
    let outcome = run(&options);
    print!("{}", outcome.table(trace));
    println!("{}", outcome.json(trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: wrong output ({} of {} failed)",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(2)
    }
}
