//! The CI determinism gate: quick-budget DSE over a fixed corpus,
//! serial/uncached vs parallel/cached, emitted as machine-readable
//! `BENCH_dse.json`.
//!
//! Two configurations run the same workload set (the Table 6 library
//! programs plus the first 10 generated Table 7 programs):
//!
//! * **baseline** — `flip_workers = 1`, every cache disabled, no
//!   length abstraction: the engine as close to the paper's serial
//!   reproduction as its one flip-solve path and one automata pipeline
//!   allow. It runs once, as the verdict oracle;
//! * **optimized** — 4 flip workers, model + verdict caches shared
//!   across all workloads. It runs twice with fresh caches, and the two
//!   runs must agree on every verdict and counter.
//!
//! Both must produce identical per-query verdicts (`verdict_diffs` must
//! be 0, exit 2 otherwise): the caches, the fan-out and the length
//! abstraction are behavior-preserving, not just fast.
//!
//! The pure-concolic exploration orchestrator then sweeps the same
//! corpus twice (shared session caches, 8 iterations per workload;
//! both sweeps must fold to the same `explore_trajectory`), plus once
//! stopped after one iteration. The loop must witness strictly more
//! unique paths than those single-trace runs (exit 9 otherwise).
//!
//! Every key of the artifact is deterministic and independent of the
//! machine, so `--check <baseline.json>` compares the artifact key for
//! key against the checked-in file and exits 5 on any difference: a
//! change that means to move a count regenerates the baseline. The
//! optimized block leaves out the automata counters, because its
//! concurrent flip workers race on DFA-cache misses (see
//! `docs/src/solver-caches.md`); wall-clock lives in perfbench.
//!
//! `--summary-md <path>` writes the job-summary markdown from the
//! in-memory numbers (CI `cat`s it into `$GITHUB_STEP_SUMMARY`).
//!
//! ```text
//! cargo run --release -p bench --bin perf -- \
//!     [--out BENCH_dse.json] [--check crates/bench/baseline/BENCH_dse.json] \
//!     [--summary-md PERF_SUMMARY.md]
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use bench::{engine_config, Budget};
use corpus::{generate_dse_programs, library_workloads};
use expose_core::cache::CacheStats;
use expose_core::SupportLevel;
use expose_dse::parser::parse_program;
use expose_dse::{
    explore_with_caches, run_dse_with_caches, DseCaches, EngineConfig, ExploreConfig,
    ExploreReport, Harness, Report,
};
use expose_service::json::{self, Value};

/// Flip workers of the optimized run and the exploration sweeps. No
/// count in the artifact depends on it.
const FLIP_WORKERS: usize = 4;
/// Generated Table 7 programs appended to the library workloads.
const PROGRAMS: usize = 10;
/// Exploration iterations per workload.
const ITERATIONS: usize = 8;

/// One named, parsed workload.
struct Workload {
    name: String,
    program: expose_dse::ast::Program,
    harness: Harness,
}

fn workload_set() -> Vec<Workload> {
    let mut set = Vec::new();
    for w in library_workloads() {
        set.push(Workload {
            name: w.name.to_string(),
            program: parse_program(w.source)
                .unwrap_or_else(|e| panic!("workload {} must parse: {e}", w.name)),
            harness: Harness::strings(w.entry, w.arity),
        });
    }
    for p in generate_dse_programs(PROGRAMS, 0xbe7c) {
        set.push(Workload {
            name: p.name.clone(),
            program: parse_program(&p.source)
                .unwrap_or_else(|e| panic!("program {} must parse: {e}", p.name)),
            harness: Harness::strings(&p.entry, p.arity),
        });
    }
    set
}

/// Aggregate counts for one configuration over the whole set.
#[derive(Default)]
struct Aggregate {
    flip_queries: u64,
    solver_nodes: u64,
    tests_generated: u64,
    coverage_sum: f64,
    model_cache_hits: u64,
    model_cache_misses: u64,
    dfa_states_built: u64,
    states_after_minimize: u64,
    length_prunes: u64,
    prefix_reuse_hits: u64,
    verdict_replays: u64,
    matcher_fast_path: u64,
    matcher_fallback: u64,
}

impl Aggregate {
    fn absorb(&mut self, report: &Report) {
        self.flip_queries += report.queries.len() as u64;
        self.solver_nodes += report.solver_nodes();
        self.tests_generated += report.tests_generated as u64;
        self.coverage_sum += report.coverage_fraction();
        self.model_cache_hits += report.model_cache_hits;
        self.model_cache_misses += report.model_cache_misses;
        self.dfa_states_built += report.dfa_states_built();
        self.states_after_minimize += report.states_after_minimize();
        self.length_prunes += report.length_prunes();
        self.prefix_reuse_hits += report.prefix_reuse_hits();
        self.verdict_replays += report.verdict_replays();
        self.matcher_fast_path += report.matcher_fast_path;
        self.matcher_fallback += report.matcher_fallback;
    }

    fn hit_rate(&self) -> f64 {
        CacheStats {
            hits: self.model_cache_hits,
            misses: self.model_cache_misses,
        }
        .hit_rate()
    }

    /// The config block of the artifact. `automata` adds the DFA state
    /// counters, which only a serial run reproduces exactly.
    fn json(&self, workloads: usize, automata: bool) -> String {
        let mut json = format!(
            concat!(
                "{{\n",
                "    \"flip_queries\": {},\n",
                "    \"solver_nodes\": {},\n",
                "    \"tests_generated\": {},\n",
                "    \"mean_coverage\": {:.4},\n",
                "    \"model_cache_hits\": {},\n",
                "    \"model_cache_misses\": {},\n",
                "    \"model_cache_hit_rate\": {:.4},\n",
            ),
            self.flip_queries,
            self.solver_nodes,
            self.tests_generated,
            self.coverage_sum / workloads.max(1) as f64,
            self.model_cache_hits,
            self.model_cache_misses,
            self.hit_rate(),
        );
        if automata {
            let _ = write!(
                json,
                "    \"dfa_states_built\": {},\n    \"states_after_minimize\": {},\n",
                self.dfa_states_built, self.states_after_minimize
            );
        }
        let _ = write!(
            json,
            concat!(
                "    \"length_prunes\": {},\n",
                "    \"prefix_reuse_hits\": {},\n",
                "    \"verdict_replays\": {}\n",
                "  }}"
            ),
            self.length_prunes, self.prefix_reuse_hits, self.verdict_replays,
        );
        json
    }
}

/// The per-query verdict trail of one workload, for the
/// zero-difference check.
type VerdictTrail = Vec<(bool, usize, bool)>;

fn verdicts(report: &Report) -> VerdictTrail {
    report
        .queries
        .iter()
        .map(|q| (q.sat, q.refinements, q.limit_hit))
        .collect()
}

fn run_config(
    set: &[Workload],
    config: &EngineConfig,
    caches: &DseCaches,
) -> (Aggregate, Vec<VerdictTrail>) {
    let mut aggregate = Aggregate::default();
    let mut trails = Vec::with_capacity(set.len());
    for w in set {
        let report = run_dse_with_caches(&w.program, &w.harness, config, caches);
        aggregate.absorb(&report);
        trails.push(verdicts(&report));
    }
    (aggregate, trails)
}

/// The numbers of the exploration sweeps over the corpus.
struct ExploreNumbers {
    /// Total distinct executed paths across the corpus (looped runs).
    unique_paths: u64,
    /// The same total with every loop stopped after one iteration —
    /// what plain single-trace flip jobs witness.
    single_paths: u64,
    /// FNV fold of every workload's trajectory digest, in corpus
    /// order — the run-to-run determinism witness.
    trajectory: u64,
    /// Cumulative `(covered_stmts, unique_paths)` across the corpus at
    /// each iteration index (workloads that stopped early contribute
    /// their final value).
    coverage_over_time: Vec<(u64, u64)>,
}

/// Runs the exploration orchestrator over the corpus twice with fresh
/// shared session caches (the trajectories must agree), plus the
/// one-iteration reference sweep.
fn measure_explore(set: &[Workload], engine: &EngineConfig) -> ExploreNumbers {
    let sweep = |max_iterations: usize| -> Vec<ExploreReport> {
        let caches = DseCaches::session_from_config(engine);
        let config = ExploreConfig {
            engine: engine.clone(),
            max_iterations,
            ..ExploreConfig::default()
        };
        set.iter()
            .map(|w| explore_with_caches(&w.program, &w.harness, &config, &caches))
            .collect()
    };
    let trajectory = |reports: &[ExploreReport]| {
        let mut fold = expose_dse::store::Fnv::new();
        for report in reports {
            fold.eat_u64(report.trajectory_digest());
        }
        fold.finish()
    };

    let reports = sweep(ITERATIONS);
    let digest = trajectory(&reports);
    assert_eq!(
        digest,
        trajectory(&sweep(ITERATIONS)),
        "explore: corpus trajectory changed between two sweeps"
    );

    let mut coverage_over_time = Vec::with_capacity(ITERATIONS);
    for k in 0..ITERATIONS {
        let mut stmts = 0u64;
        let mut paths = 0u64;
        for report in &reports {
            // A workload whose frontier dried up before iteration k
            // holds its final checkpoint.
            if let Some(p) = report.progress.get(k).or(report.progress.last()) {
                stmts += p.covered_stmts as u64;
                paths += p.unique_paths as u64;
            }
        }
        coverage_over_time.push((stmts, paths));
    }

    let paths = |reports: &[ExploreReport]| reports.iter().map(|r| r.unique_paths as u64).sum();
    ExploreNumbers {
        unique_paths: paths(&reports),
        single_paths: paths(&sweep(1)),
        trajectory: digest,
        coverage_over_time,
    }
}

/// Every leaf of `value` under its dotted key; array elements are
/// keyed by index.
fn leaves(prefix: &str, value: &Value, out: &mut BTreeMap<String, Value>) {
    let key = |k: &str| {
        if prefix.is_empty() {
            k.to_string()
        } else {
            format!("{prefix}.{k}")
        }
    };
    match value {
        Value::Obj(members) => {
            for (k, v) in members {
                leaves(&key(k), v, out);
            }
        }
        Value::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                leaves(&key(&i.to_string()), v, out);
            }
        }
        leaf => {
            out.insert(prefix.to_string(), leaf.clone());
        }
    }
}

/// The keys on which `artifact` and `reference` differ, each rendered
/// as `key: reference → artifact` (`-` for a missing key).
fn differences(artifact: &Value, reference: &Value) -> Vec<String> {
    let (mut now, mut then) = (BTreeMap::new(), BTreeMap::new());
    leaves("", artifact, &mut now);
    leaves("", reference, &mut then);
    let show = |v: Option<&Value>| match v {
        None => "-".to_string(),
        Some(Value::Num(n)) => n.to_string(),
        Some(Value::Str(s)) => format!("{s:?}"),
        Some(other) => format!("{other:?}"),
    };
    let keys: BTreeSet<&String> = now.keys().chain(then.keys()).collect();
    keys.into_iter()
        .filter(|key| now.get(*key) != then.get(*key))
        .map(|key| {
            format!(
                "{key}: {} \u{2192} {}",
                show(then.get(key)),
                show(now.get(key))
            )
        })
        .collect()
}

const USAGE: &str = "usage: perf [--out PATH] [--check BASELINE.json] [--summary-md PATH]";

/// Prints the usage line and exits: 0 for `--help` (no `problem`), 64
/// (`EX_USAGE`) for an unknown or malformed argument.
fn usage(problem: Option<&str>) -> ! {
    match problem {
        None => {
            println!("{USAGE}");
            std::process::exit(0)
        }
        Some(problem) => {
            eprintln!("perf: {problem}");
            eprintln!("{USAGE}");
            std::process::exit(64)
        }
    }
}

fn main() {
    let mut out = String::from("BENCH_dse.json");
    let mut check: Option<String> = None;
    let mut summary_md: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(Some(&format!("{name} needs a value"))))
        };
        match arg.as_str() {
            "--out" => out = value("--out"),
            "--check" => check = Some(value("--check")),
            "--summary-md" => summary_md = Some(value("--summary-md")),
            "--help" | "-h" => usage(None),
            other => usage(Some(&format!("unknown argument {other:?}"))),
        }
    }

    let set = workload_set();
    eprintln!(
        "perf: {} workloads, quick budget, flip_workers={FLIP_WORKERS}",
        set.len()
    );

    // The baseline is the engine as the serial reproduction ran it:
    // caches off, no length abstraction.
    let mut base_config = EngineConfig {
        flip_workers: 1,
        model_cache_capacity: 0,
        query_cache_capacity: 0,
        ..engine_config(SupportLevel::Refinement, Budget::quick())
    };
    base_config.solver.dfa_cache_capacity = 0;
    base_config.solver.length_abstraction = false;
    let (baseline, baseline_trails) = run_config(&set, &base_config, &DseCaches::disabled());

    // The optimized run twice, fresh caches each time: the verdicts and
    // every emitted counter must agree with themselves.
    let opt_config = EngineConfig {
        flip_workers: FLIP_WORKERS,
        ..engine_config(SupportLevel::Refinement, Budget::quick())
    };
    let optimized_run = || run_config(&set, &opt_config, &DseCaches::from_config(&opt_config));
    let (optimized, optimized_trails) = optimized_run();
    let (again, again_trails) = optimized_run();
    let matcher = |a: &Aggregate| (a.matcher_fast_path, a.matcher_fallback);
    assert!(
        optimized_trails == again_trails
            && optimized.json(set.len(), false) == again.json(set.len(), false)
            && matcher(&optimized) == matcher(&again),
        "optimized: verdicts or counters changed between two runs"
    );

    let mut verdict_diffs = 0usize;
    for ((w, a), b) in set.iter().zip(&baseline_trails).zip(&optimized_trails) {
        if a != b {
            verdict_diffs += 1;
            eprintln!("perf: verdict trail mismatch in workload {}", w.name);
        }
    }

    // Exploration: the orchestrator over the corpus, strictly more
    // unique paths than single-trace flip runs (the whole point of
    // closing the solve→seed loop).
    let explore = measure_explore(&set, &opt_config);
    eprintln!(
        "perf: explore {} unique paths over {ITERATIONS} iterations vs {} single-trace paths",
        explore.unique_paths, explore.single_paths,
    );

    let mut coverage = String::new();
    for (k, (stmts, paths)) in explore.coverage_over_time.iter().enumerate() {
        if k > 0 {
            coverage.push_str(", ");
        }
        let _ = write!(
            coverage,
            "{{\"iteration\": {}, \"covered_stmts\": {stmts}, \"unique_paths\": {paths}}}",
            k + 1
        );
    }
    let artifact = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"expose-bench-dse/v2\",\n",
            "  \"workloads\": {},\n",
            "  \"flip_workers\": {},\n",
            "  \"verdict_diffs\": {},\n",
            "  \"optimized_solver_nodes\": {},\n",
            "  \"matcher_fast_path\": {},\n",
            "  \"matcher_fallback\": {},\n",
            "  \"explore_iterations\": {},\n",
            "  \"explore_unique_paths\": {},\n",
            "  \"explore_single_paths\": {},\n",
            "  \"explore_trajectory\": \"{:016x}\",\n",
            "  \"coverage_over_time\": [{}],\n",
            "  \"baseline\": {},\n",
            "  \"optimized\": {}\n",
            "}}\n"
        ),
        set.len(),
        FLIP_WORKERS,
        verdict_diffs,
        optimized.solver_nodes,
        optimized.matcher_fast_path,
        optimized.matcher_fallback,
        ITERATIONS,
        explore.unique_paths,
        explore.single_paths,
        explore.trajectory,
        coverage,
        baseline.json(set.len(), true),
        optimized.json(set.len(), false),
    );
    std::fs::write(&out, &artifact).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("perf: verdict_diffs {verdict_diffs}, wrote {out}");

    // The job-summary markdown, rendered from the numbers themselves.
    if let Some(path) = &summary_md {
        let mut md = String::new();
        let _ = writeln!(md, "### Perf (quick budget, BENCH_dse.json)");
        let _ = writeln!(md, "- **verdict_diffs**: {verdict_diffs}");
        let _ = writeln!(
            md,
            "- **solver nodes** (baseline \u{2192} optimized): {} \u{2192} {}",
            baseline.solver_nodes, optimized.solver_nodes
        );
        let _ = writeln!(
            md,
            "- **automata counters** (baseline): states built {}, after minimize {}, \
             length prunes {}",
            baseline.dfa_states_built, baseline.states_after_minimize, baseline.length_prunes,
        );
        let _ = writeln!(
            md,
            "- **model cache** (optimized): {} hits / {} misses ({:.1}%)",
            optimized.model_cache_hits,
            optimized.model_cache_misses,
            100.0 * optimized.hit_rate(),
        );
        let _ = writeln!(
            md,
            "- **incremental solving** (optimized): {} prefix frames reused, \
             {} CEGAR runs replayed",
            optimized.prefix_reuse_hits, optimized.verdict_replays,
        );
        let _ = writeln!(
            md,
            "- **exploration**: {} unique paths in {ITERATIONS} iterations/workload \
             vs {} single-trace paths",
            explore.unique_paths, explore.single_paths,
        );
        let _ = writeln!(
            md,
            "- **matcher engines** (optimized run): {} fast-path / {} fallback executions",
            optimized.matcher_fast_path, optimized.matcher_fallback,
        );
        let _ = writeln!(md);
        let _ = writeln!(md, "<details><summary>Full artifact</summary>\n");
        let _ = writeln!(md, "```json\n{artifact}```\n");
        let _ = writeln!(md, "</details>");
        std::fs::write(path, md).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("perf: wrote summary markdown to {path}");
    }

    if verdict_diffs > 0 {
        eprintln!("perf: FAIL — parallel/cached run changed {verdict_diffs} verdict trail(s)");
        std::process::exit(2);
    }
    // The loop exists to witness paths one trace's flips cannot; if it
    // stops strictly exceeding the single-trace sweep, the frontier
    // scheduling or the corpus feedback broke.
    if explore.unique_paths <= explore.single_paths {
        eprintln!(
            "perf: FAIL — exploration witnessed {} unique paths, not strictly more \
             than the {} of single-trace flip runs",
            explore.unique_paths, explore.single_paths
        );
        std::process::exit(9);
    }
    if let Some(path) = check {
        let reference = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let reference =
            json::parse(&reference).unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        let artifact = json::parse(&artifact).expect("the artifact is valid JSON");
        let differences = differences(&artifact, &reference);
        if !differences.is_empty() {
            for difference in &differences {
                eprintln!("perf: {difference}");
            }
            eprintln!(
                "perf: FAIL — {} key(s) differ from {path} (baseline \u{2192} this run); \
                 a change that means to move them regenerates the baseline",
                differences.len()
            );
            std::process::exit(5);
        }
        eprintln!("perf: check passed, every key equals {path}");
    }
}
