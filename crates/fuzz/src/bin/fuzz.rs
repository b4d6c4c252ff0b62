//! The differential fuzzing front-end.
//!
//! ```text
//! cargo run --release -p expose-fuzz --bin fuzz -- \
//!     [--seed-range A..B] [--budget quick|full] [--incremental] \
//!     [--shrink] [--stats] [--summary-md PATH] [--repro-out PATH] \
//!     [--max-failures N]
//! ```
//!
//! Generates and cross-checks one case per seed. Exit code 0 when every
//! layer agreed on every case, 1 on any cross-layer disagreement (after
//! printing — and with `--shrink`, minimizing — each failure; with
//! `--repro-out`, the shrunk reproducers are also written as
//! ready-to-paste Rust tests plus corpus lines). `--incremental`
//! additionally cross-checks the assumption-stack solver paths against
//! the from-scratch solves on every case. `--stats` prints the
//! per-feature histogram and Unknown rates; `--summary-md` writes the
//! same numbers as job-summary markdown.

use std::ops::Range;

use expose_fuzz::{
    generate_case, render_repro_test, run_case, shrink, FuzzBudget, FuzzStats, GenConfig,
};

const USAGE: &str = "usage: fuzz [--seed-range A..B] [--budget quick|full] [--incremental] \
     [--shrink] [--stats] [--summary-md PATH] [--repro-out PATH] [--max-failures N]";

/// Prints the usage line and exits: 0 for `--help` (no `problem`), 64
/// (`EX_USAGE`) for an unknown or malformed argument.
fn usage(problem: Option<&str>) -> ! {
    match problem {
        None => {
            println!("{USAGE}");
            std::process::exit(0)
        }
        Some(problem) => {
            eprintln!("fuzz: {problem}");
            eprintln!("{USAGE}");
            std::process::exit(64)
        }
    }
}

fn parse_seed_range(s: &str) -> Option<Range<u64>> {
    let (a, b) = s.split_once("..")?;
    let (start, end): (u64, u64) = (a.parse().ok()?, b.parse().ok()?);
    (start < end).then_some(start..end)
}

fn main() {
    let mut seeds = 0u64..2000;
    let mut budget_name = String::from("quick");
    let mut do_shrink = false;
    let mut incremental = false;
    let mut print_stats = false;
    let mut summary_md: Option<String> = None;
    let mut repro_out: Option<String> = None;
    let mut max_failures = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(Some(&format!("{name} needs a value"))))
        };
        match arg.as_str() {
            "--seed-range" => {
                let range = value("--seed-range");
                seeds = parse_seed_range(&range).unwrap_or_else(|| {
                    usage(Some(&format!(
                        "--seed-range wants a non-empty A..B, got {range:?}"
                    )))
                });
            }
            "--budget" => {
                budget_name = value("--budget");
                if !matches!(budget_name.as_str(), "quick" | "full") {
                    usage(Some(&format!(
                        "unknown budget {budget_name:?} (expected quick|full)"
                    )));
                }
            }
            "--shrink" => do_shrink = true,
            "--incremental" => incremental = true,
            "--stats" => print_stats = true,
            "--summary-md" => summary_md = Some(value("--summary-md")),
            "--repro-out" => repro_out = Some(value("--repro-out")),
            "--max-failures" => {
                let count = value("--max-failures");
                max_failures = count.parse().unwrap_or_else(|_| {
                    usage(Some(&format!(
                        "--max-failures wants a count, got {count:?}"
                    )))
                });
            }
            "--help" | "-h" => usage(None),
            other => usage(Some(&format!("unknown argument {other:?}"))),
        }
    }
    let mut budget = if budget_name == "full" {
        FuzzBudget::full()
    } else {
        FuzzBudget::quick()
    };
    budget.incremental_check = incremental;
    let cfg = GenConfig::default();

    eprintln!(
        "fuzz: seeds {}..{}, {budget_name} budget{}",
        seeds.start,
        seeds.end,
        if incremental {
            ", incremental cross-check"
        } else {
            ""
        }
    );
    let mut stats = FuzzStats::default();
    let mut failures = Vec::new();
    for seed in seeds {
        let case = generate_case(seed, &cfg, &budget);
        let outcome = run_case(&case, &budget);
        stats.absorb(&outcome);
        if let Some(disagreement) = outcome.disagreement {
            eprintln!(
                "fuzz: DISAGREEMENT [{}] {case}: {}",
                disagreement.layer.name(),
                disagreement.detail
            );
            failures.push((case, disagreement));
            if failures.len() >= max_failures {
                eprintln!("fuzz: stopping after {max_failures} failures");
                break;
            }
        }
    }

    // Shrink each failure to a minimal reproducer.
    let mut repro_blocks = Vec::new();
    if do_shrink {
        for (case, disagreement) in &failures {
            let shrunk = shrink(case, disagreement.layer, &budget);
            eprintln!(
                "fuzz: shrunk {case} -> {} ({} steps) [{}] {}",
                shrunk.case,
                shrunk.steps,
                shrunk.disagreement.layer.name(),
                shrunk.disagreement.detail
            );
            eprintln!("fuzz: corpus line: {}", shrunk.case.to_line());
            let test = render_repro_test(&shrunk);
            eprintln!("{test}");
            repro_blocks.push((shrunk, test));
        }
    }
    if let Some(path) = &repro_out {
        if repro_blocks.is_empty() && failures.is_empty() {
            // No file at all on a clean run — CI uploads conditionally.
        } else {
            let mut content = String::from(
                "// Shrunk reproducers from a fuzz run. To promote one into the\n\
                 // regression corpus, append its corpus line to a file under\n\
                 // crates/fuzz/corpus/ (see README \"Fuzzing\").\n\n",
            );
            for (shrunk, test) in &repro_blocks {
                content.push_str(&format!("// corpus line: {}\n", shrunk.case.to_line()));
                content.push_str(test);
                content.push('\n');
            }
            if repro_blocks.is_empty() {
                for (case, disagreement) in &failures {
                    content.push_str(&format!(
                        "// unshrunk [{}] {}: {}\n",
                        disagreement.layer.name(),
                        case.to_line(),
                        disagreement.detail
                    ));
                }
            }
            std::fs::write(path, content).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("fuzz: wrote reproducers to {path}");
        }
    }

    if print_stats {
        print!("{}", stats.render_text());
    }
    if let Some(path) = &summary_md {
        let title = format!(
            "Fuzz ({budget_name} budget, {} cases, {} disagreement{})",
            stats.cases,
            stats.disagreements,
            if stats.disagreements == 1 { "" } else { "s" }
        );
        std::fs::write(path, stats.render_markdown(&title))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("fuzz: wrote summary markdown to {path}");
    }

    if !stats.covers_all_features() {
        eprintln!(
            "fuzz: FAIL — feature buckets never generated: {:?}",
            stats.uncovered_features()
        );
        std::process::exit(2);
    }
    if stats.disagreements > 0 {
        eprintln!(
            "fuzz: FAIL — {} cross-layer disagreement(s)",
            stats.disagreements
        );
        std::process::exit(1);
    }
    eprintln!(
        "fuzz: OK — {} cases, 0 disagreements, unknown rate {:.1}%",
        stats.cases,
        100.0 * stats.unknown_rate()
    );
}
