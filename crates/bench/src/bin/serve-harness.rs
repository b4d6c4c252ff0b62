//! `serve-harness` — the check-side companion of `expose-serve`: the
//! serial reference its streams are diffed against, the corpus
//! emitters that feed it, and a TCP soak client.
//!
//! ```text
//! # Serial reference: run the submits through a one-worker batch and
//! # print the same result lines (the service-smoke CI job diffs this
//! # against the streamed output — they must be byte-identical):
//! serve-harness --batch < batch.ndjson
//!
//! # Print the benchmark corpus as submit lines (pipe into expose-serve):
//! serve-harness --emit-corpus 10 [--budget quick|full]
//!
//! # Print the corpus as protocol-v2 exploration requests (the
//! # explore-smoke CI job byte-diffs the served output across
//! # --flip-workers 1/2/8):
//! serve-harness --emit-explore 10 --iterations 5 [--budget quick|full]
//!
//! # Soak a served tcp: endpoint with concurrent closed-loop clients
//! # and report exact end-to-end latency quantiles (seconds 0 = one
//! # corpus pass per client):
//! serve-harness --soak 127.0.0.1:7077 --clients 8 --seconds 30
//! ```

use std::io::Write;

use bench::soak::{run_soak, SoakOptions};
use expose_service::{
    corpus_explore_lines, corpus_submit_lines, serial_reference, CorpusBudget, ServiceConfig,
};

const USAGE: &str = "usage: serve-harness (--batch | --emit-corpus N | --emit-explore N \
     [--iterations N] | --soak ADDR [--clients N] [--seconds N]) [--budget quick|full]";

/// Prints the usage line and exits: 0 for `--help` (no `problem`), 64
/// (`EX_USAGE`) for an unknown or malformed argument.
fn usage(problem: Option<&str>) -> ! {
    match problem {
        None => {
            println!("{USAGE}");
            std::process::exit(0)
        }
        Some(problem) => {
            eprintln!("serve-harness: {problem}");
            eprintln!("{USAGE}");
            std::process::exit(64)
        }
    }
}

/// Parses a numeric argument value, or exits with the usage line.
fn number<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(Some(&format!("{name} needs a number, got {value:?}"))))
}

enum Mode {
    Batch,
    EmitCorpus(usize),
    EmitExplore(usize),
    Soak(String),
}

struct Options {
    mode: Option<Mode>,
    iterations: usize,
    clients: usize,
    seconds: u64,
    budget: CorpusBudget,
}

fn parse_args() -> Options {
    let mut options = Options {
        mode: None,
        iterations: 5,
        clients: 8,
        seconds: 0,
        budget: CorpusBudget::Quick,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(Some(&format!("{arg} needs a value"))))
        };
        match arg.as_str() {
            "--batch" => options.mode = Some(Mode::Batch),
            "--emit-corpus" => options.mode = Some(Mode::EmitCorpus(number(&arg, &value()))),
            "--emit-explore" => options.mode = Some(Mode::EmitExplore(number(&arg, &value()))),
            "--soak" => {
                let addr = value();
                // Accept both a bare host:port and the tcp: spec form.
                let addr = addr.strip_prefix("tcp:").unwrap_or(&addr).to_string();
                options.mode = Some(Mode::Soak(addr));
            }
            "--iterations" => options.iterations = number(&arg, &value()),
            "--clients" => options.clients = number(&arg, &value()),
            "--seconds" => options.seconds = number(&arg, &value()),
            "--budget" => {
                options.budget = match value().as_str() {
                    "quick" => CorpusBudget::Quick,
                    "full" => CorpusBudget::Full,
                    other => usage(Some(&format!(
                        "unknown budget {other:?} (expected quick|full)"
                    ))),
                }
            }
            "--help" | "-h" => usage(None),
            other => usage(Some(&format!("unknown argument {other:?}"))),
        }
    }
    options
}

/// Runs the concurrent soak client against an already-serving `tcp:`
/// endpoint and prints one summary line; exits nonzero if any job got
/// no response at all.
fn soak(addr: String, options: &Options) -> std::io::Result<()> {
    let report = run_soak(&SoakOptions {
        addr,
        clients: options.clients,
        seconds: options.seconds,
        budget: options.budget,
        ..SoakOptions::default()
    })?;
    println!(
        "soak: clients={} jobs={} completed={} errors={} dropped={} wall_ms={:.0} \
         p50_ms={:.3} p99_ms={:.3} max_ms={:.3}",
        options.clients,
        report.jobs,
        report.completed,
        report.errors,
        report.dropped,
        report.wall_ms,
        report.latency_p50_ms,
        report.latency_p99_ms,
        report.latency_max_ms,
    );
    if report.dropped > 0 {
        return Err(std::io::Error::other(format!(
            "{} job(s) got no response from the server",
            report.dropped
        )));
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    let mut options = parse_args();
    let lines = match options.mode.take() {
        None => usage(Some("no mode given")),
        Some(Mode::Batch) => {
            let stdout = std::io::stdout();
            return serial_reference(
                std::io::stdin().lock(),
                &ServiceConfig::default(),
                stdout.lock(),
            );
        }
        Some(Mode::Soak(addr)) => return soak(addr, &options),
        Some(Mode::EmitCorpus(generated)) => corpus_submit_lines(generated, options.budget),
        Some(Mode::EmitExplore(generated)) => {
            corpus_explore_lines(generated, options.budget, options.iterations)
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in lines {
        writeln!(out, "{line}")?;
    }
    Ok(())
}
