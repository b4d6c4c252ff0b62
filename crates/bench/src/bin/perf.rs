//! The CI performance trajectory: quick-budget DSE, serial/uncached vs
//! parallel/cached, emitted as machine-readable `BENCH_dse.json`.
//!
//! Two configurations run the same workload set (the Table 6 library
//! programs plus a slice of the generated Table 7 population):
//!
//! * **baseline** — `flip_workers = 1`, every cache disabled, the
//!   seed's eager automata pipeline: the engine as close to the paper's
//!   serial reproduction as its one flip-solve path allows;
//! * **optimized** — `flip_workers ≥ 4`, model + verdict caches shared
//!   across all workloads (the per-config blocks record
//!   `prefix_reuse_hits` and `verdict_replays`).
//!
//! Both must produce byte-identical query verdicts (`verdict_diffs`
//! must be 0 — the caches, the fan-out, the minimized automata and the
//! length abstraction are proven behavior-preserving, not just fast).
//! Each configuration runs three times with fresh caches and the
//! min-wall repetition is reported (the noise-robust estimator on
//! shared runners); the repetitions must also agree verdict-for-verdict,
//! which doubles as a run-to-run determinism gate. The emitted artifact
//! is uploaded by the `perf-smoke` CI job; with `--check
//! <baseline.json>` the binary gates on a >2× wall-clock regression
//! *and* a >2× `solver_nodes` regression against the checked-in
//! baseline (nodes are deterministic, so that gate is
//! machine-independent).
//!
//! Every run also pushes a small fixed seed range through the
//! differential fuzzer (`expose-fuzz`) and records `fuzz_cases`,
//! `fuzz_disagreements` and `fuzz_unknown_rate` in the artifact and the
//! summary — one artifact summarizes the perf *and* soundness
//! trajectory. Any fuzz disagreement fails the run.
//!
//! With `--throughput`, the binary additionally pushes the same
//! workload corpus through the NDJSON job service (scheduler fan-out,
//! shared session caches) and records `throughput_jobs_per_sec`; it
//! then serves the corpus over a real loopback TCP listener and soaks
//! it with 8 concurrent closed-loop clients, recording the exact
//! end-to-end `latency_p50_ms`/`latency_p99_ms` and `soak_jobs` (any
//! dropped response is exit 10). The `--check` gate then also fails on
//! a >2× throughput drop or a >2× p50/p99 latency regression against
//! the baseline artifact (each latency gate is skipped while the
//! baseline lacks its key).
//!
//! With `--explore`, the binary runs the pure-concolic exploration
//! orchestrator over the same corpus (shared session caches, 8
//! iterations per workload) and records `explore_unique_paths`,
//! `unique_paths_per_sec` and the per-iteration `coverage_over_time`
//! checkpoints. The loop must witness strictly more unique paths than
//! the sum of single-trace flip runs (`explore_single_paths`, the
//! same workloads stopped after one iteration) — exit 9 otherwise —
//! and the `--check` gate fails on a >2× `unique_paths_per_sec` drop
//! when the baseline artifact carries the key.
//!
//! `--summary-md <path>` writes the job-summary markdown from the
//! in-memory numbers (CI `cat`s it into `$GITHUB_STEP_SUMMARY` instead
//! of scraping the JSON). `--budget full` switches from the PR-CI
//! quick budget to the nightly table budget.
//!
//! ```text
//! cargo run --release -p bench --bin perf -- \
//!     [--out BENCH_dse.json] [--check crates/bench/baseline/BENCH_dse.json] \
//!     [--flip-workers 4] [--programs 10] [--budget quick|full] \
//!     [--throughput] [--explore] [--summary-md PERF_SUMMARY.md]
//! ```

use std::time::Instant;

use bench::{engine_config, Budget};
use corpus::{generate_dse_programs, library_workloads};
use expose_core::cache::CacheStats;
use expose_core::SupportLevel;
use expose_dse::parser::parse_program;
use expose_dse::{
    explore_with_caches, run_dse_with_caches, DseCaches, EngineConfig, ExploreConfig, Harness,
    Report,
};

/// One named, parsed workload.
struct Workload {
    name: String,
    program: expose_dse::ast::Program,
    harness: Harness,
}

fn workload_set(generated: usize) -> Vec<Workload> {
    let mut set = Vec::new();
    for w in library_workloads() {
        set.push(Workload {
            name: w.name.to_string(),
            program: parse_program(w.source)
                .unwrap_or_else(|e| panic!("workload {} must parse: {e}", w.name)),
            harness: Harness::strings(w.entry, w.arity),
        });
    }
    for p in generate_dse_programs(generated, 0xbe7c) {
        set.push(Workload {
            name: p.name.clone(),
            program: parse_program(&p.source)
                .unwrap_or_else(|e| panic!("program {} must parse: {e}", p.name)),
            harness: Harness::strings(&p.entry, p.arity),
        });
    }
    set
}

/// Aggregate numbers for one configuration over the whole set.
#[derive(Default)]
struct Aggregate {
    wall_ms: f64,
    solver_ms: f64,
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
        self.solver_ms += report.solver_time().as_secs_f64() * 1e3;
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

    fn hit_rate(hits: u64, misses: u64) -> f64 {
        CacheStats { hits, misses }.hit_rate()
    }

    fn json(&self, workloads: usize) -> String {
        format!(
            concat!(
                "{{\n",
                "    \"wall_ms\": {:.1},\n",
                "    \"solver_ms\": {:.1},\n",
                "    \"flip_queries\": {},\n",
                "    \"solver_nodes\": {},\n",
                "    \"tests_generated\": {},\n",
                "    \"mean_coverage\": {:.4},\n",
                "    \"model_cache_hits\": {},\n",
                "    \"model_cache_misses\": {},\n",
                "    \"model_cache_hit_rate\": {:.4},\n",
                "    \"dfa_states_built\": {},\n",
                "    \"states_after_minimize\": {},\n",
                "    \"length_prunes\": {},\n",
                "    \"prefix_reuse_hits\": {},\n",
                "    \"verdict_replays\": {}\n",
                "  }}"
            ),
            self.wall_ms,
            self.solver_ms,
            self.flip_queries,
            self.solver_nodes,
            self.tests_generated,
            self.coverage_sum / workloads.max(1) as f64,
            self.model_cache_hits,
            self.model_cache_misses,
            Self::hit_rate(self.model_cache_hits, self.model_cache_misses),
            self.dfa_states_built,
            self.states_after_minimize,
            self.length_prunes,
            self.prefix_reuse_hits,
            self.verdict_replays,
        )
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
    config_for: impl Fn() -> EngineConfig,
    caches: &DseCaches,
) -> (Aggregate, Vec<VerdictTrail>) {
    let mut aggregate = Aggregate::default();
    let mut trails = Vec::with_capacity(set.len());
    let started = Instant::now();
    for w in set {
        let report = run_dse_with_caches(&w.program, &w.harness, &config_for(), caches);
        if std::env::var("PERF_VERBOSE").is_ok() {
            eprintln!(
                "  {:24} solver {:7.1} ms, {:3} queries, {:6} nodes",
                w.name,
                report.solver_time().as_secs_f64() * 1e3,
                report.queries.len(),
                report.solver_nodes(),
            );
        }
        aggregate.absorb(&report);
        trails.push(verdicts(&report));
    }
    aggregate.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    (aggregate, trails)
}

/// Pulls `"key": <number>` out of a flat JSON document — enough to read
/// our own artifact back without a JSON dependency.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let at = json.find(&pattern)? + pattern.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pushes the workload corpus through the NDJSON job service (the
/// scheduler behind `expose-serve`) and returns `(jobs, workers,
/// wall_ms, jobs_per_sec)`.
fn measure_throughput(programs: usize, budget: Budget, workers: usize) -> (u64, usize, f64, f64) {
    let corpus_budget = if budget.executions >= Budget::full().executions {
        expose_service::CorpusBudget::Full
    } else {
        expose_service::CorpusBudget::Quick
    };
    let mut input = expose_service::corpus_submit_lines(programs, corpus_budget).join("\n");
    input.push('\n');
    let config = expose_service::ServiceConfig {
        workers,
        ..expose_service::ServiceConfig::default()
    };
    let mut output: Vec<u8> = Vec::new();
    let started = Instant::now();
    let summary = expose_service::ServeOptions::new()
        .config(config)
        .serve(input.as_bytes(), &mut output)
        .expect("throughput session failed");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let jobs_per_sec = summary.jobs as f64 / (wall_ms / 1e3).max(1e-9);
    (summary.jobs, workers, wall_ms, jobs_per_sec)
}

/// The numbers of one concurrent-client latency soak.
struct LatencyNumbers {
    /// Concurrent closed-loop clients.
    clients: usize,
    /// Jobs submitted across all clients (one corpus pass each).
    jobs: u64,
    /// Jobs that got no response at all — must be zero.
    dropped: u64,
    /// Median end-to-end job latency, milliseconds (exact quantile).
    p50_ms: f64,
    /// 99th-percentile end-to-end job latency, milliseconds (exact).
    p99_ms: f64,
}

/// Serves the corpus over a real loopback TCP listener (through the
/// same admission front-end as `expose-serve --listen tcp:`) and soaks
/// it with concurrent closed-loop clients, returning exact end-to-end
/// latency quantiles — the client-observed counterpart of the
/// scheduler's bucketed histogram.
fn measure_latency(
    programs: usize,
    budget: Budget,
    workers: usize,
    clients: usize,
) -> LatencyNumbers {
    let corpus_budget = if budget.executions >= Budget::full().executions {
        expose_service::CorpusBudget::Full
    } else {
        expose_service::CorpusBudget::Quick
    };
    let listen = expose_service::Listen::parse("tcp:127.0.0.1:0").expect("loopback spec");
    let mut listener = listen.bind().expect("loopback bind");
    let addr = listener.local_addr();
    let state = expose_service::ServerState::new();
    let options = expose_service::ServeOptions::new()
        .config(expose_service::ServiceConfig::default().workers(workers));
    std::thread::scope(|scope| {
        let server_state = std::sync::Arc::clone(&state);
        let server = scope.spawn(move || {
            expose_service::serve_listener(listener.as_mut(), &options, &server_state)
                .expect("latency server failed");
        });
        let report = expose_service::run_soak(&expose_service::SoakOptions {
            addr,
            clients,
            seconds: 0,
            generated: programs,
            budget: corpus_budget,
        })
        .expect("latency soak failed");
        state.begin_drain();
        server.join().expect("latency server thread");
        LatencyNumbers {
            clients,
            jobs: report.jobs,
            dropped: report.dropped,
            p50_ms: report.latency_p50_ms,
            p99_ms: report.latency_p99_ms,
        }
    })
}

/// The numbers of one `--explore` measurement over the corpus.
struct ExploreNumbers {
    /// Per-workload iteration budget.
    iterations: usize,
    /// Total distinct executed paths across the corpus (looped runs).
    unique_paths: u64,
    /// The same total with every loop stopped after one iteration —
    /// what plain single-trace flip jobs witness.
    single_paths: u64,
    /// Wall-clock of the looped sweep (min over repetitions).
    wall_ms: f64,
    /// `unique_paths` per second of looped wall-clock.
    paths_per_sec: f64,
    /// FNV fold of every workload's trajectory digest, in corpus
    /// order — the run-to-run/worker-count determinism witness.
    trajectory: u64,
    /// Cumulative `(covered_stmts, unique_paths)` across the corpus at
    /// each iteration index (workloads that stopped early contribute
    /// their final value).
    coverage_over_time: Vec<(u64, u64)>,
}

/// Runs the exploration orchestrator over the corpus: `REPS`
/// repetitions with fresh shared session caches, min-wall kept, equal
/// trajectories required, plus the one-iteration reference sweep.
fn measure_explore(
    set: &[Workload],
    budget: Budget,
    flip_workers: usize,
    reps: usize,
) -> ExploreNumbers {
    let iterations = 8usize;
    let engine = EngineConfig {
        flip_workers,
        ..engine_config(SupportLevel::Refinement, budget)
    };
    let sweep = |max_iterations: usize| {
        let caches = DseCaches::session_from_config(&engine);
        let config = ExploreConfig {
            engine: engine.clone(),
            max_iterations,
            ..ExploreConfig::default()
        };
        let started = Instant::now();
        let reports: Vec<expose_dse::ExploreReport> = set
            .iter()
            .map(|w| explore_with_caches(&w.program, &w.harness, &config, &caches))
            .collect();
        (reports, started.elapsed().as_secs_f64() * 1e3)
    };

    let mut best: Option<(Vec<expose_dse::ExploreReport>, f64)> = None;
    let mut reference_trajectory: Option<u64> = None;
    for rep in 0..reps {
        let (reports, wall_ms) = sweep(iterations);
        let mut fold = expose_dse::store::Fnv::new();
        for report in &reports {
            fold.eat_u64(report.trajectory_digest());
        }
        let trajectory = fold.finish();
        match reference_trajectory {
            None => reference_trajectory = Some(trajectory),
            Some(reference) => assert_eq!(
                reference, trajectory,
                "explore rep {rep}: corpus trajectory changed between repetitions"
            ),
        }
        if best.as_ref().is_none_or(|(_, b)| wall_ms < *b) {
            best = Some((reports, wall_ms));
        }
    }
    let (reports, wall_ms) = best.expect("at least one repetition");
    let unique_paths: u64 = reports.iter().map(|r| r.unique_paths as u64).sum();

    let mut coverage_over_time = Vec::with_capacity(iterations);
    for k in 0..iterations {
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

    let (single_reports, _) = sweep(1);
    let single_paths: u64 = single_reports.iter().map(|r| r.unique_paths as u64).sum();

    ExploreNumbers {
        iterations,
        unique_paths,
        single_paths,
        wall_ms,
        paths_per_sec: unique_paths as f64 / (wall_ms / 1e3).max(1e-9),
        trajectory: reference_trajectory.expect("at least one repetition"),
        coverage_over_time,
    }
}

fn main() {
    let mut out = String::from("BENCH_dse.json");
    let mut check: Option<String> = None;
    let mut flip_workers = 4usize;
    let mut programs = 10usize;
    let mut budget_name = String::from("quick");
    let mut throughput = false;
    let mut explore = false;
    let mut summary_md: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = value("--out"),
            "--check" => check = Some(value("--check")),
            "--flip-workers" => {
                flip_workers = value("--flip-workers").parse().expect("worker count")
            }
            "--programs" => programs = value("--programs").parse().expect("program count"),
            "--budget" => {
                budget_name = value("--budget");
                assert!(
                    matches!(budget_name.as_str(), "quick" | "full"),
                    "unknown budget {budget_name:?} (expected quick|full)"
                );
            }
            "--throughput" => throughput = true,
            "--explore" => explore = true,
            "--summary-md" => summary_md = Some(value("--summary-md")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(
        flip_workers >= 4,
        "the tracked configuration uses flip_workers >= 4"
    );
    let budget = if budget_name == "full" {
        Budget::full()
    } else {
        Budget::quick()
    };

    let set = workload_set(programs);
    eprintln!(
        "perf: {} workloads, {budget_name} budget, flip_workers={flip_workers}",
        set.len()
    );

    let base_config = || {
        let mut config = EngineConfig {
            flip_workers: 1,
            model_cache_capacity: 0,
            query_cache_capacity: 0,
            ..engine_config(SupportLevel::Refinement, budget)
        };
        // The baseline is the engine as the serial reproduction ran it:
        // caches off, eager unminimized automata, no length abstraction.
        config.solver.dfa_cache_capacity = 0;
        config.solver.minimize_threshold = 0;
        config.solver.length_abstraction = false;
        config
    };
    // Each configuration runs `REPS` times with fresh caches and the
    // min-wall repetition is kept: wall-clock on shared CI runners is
    // noisy, and the minimum is the standard noise-robust estimator.
    // The verdict trails double as a run-to-run determinism gate.
    const REPS: usize = 3;
    let run_best = |label: &str,
                    config_for: &dyn Fn() -> EngineConfig,
                    caches_for: &dyn Fn() -> DseCaches|
     -> (Aggregate, Vec<VerdictTrail>) {
        let mut best: Option<(Aggregate, Vec<VerdictTrail>)> = None;
        for rep in 0..REPS {
            let caches = caches_for();
            let (aggregate, trails) = run_config(&set, config_for, &caches);
            if let Some((best_aggregate, best_trails)) = &best {
                assert_eq!(
                    best_trails, &trails,
                    "{label} rep {rep}: verdict trails changed between repetitions"
                );
                if aggregate.wall_ms >= best_aggregate.wall_ms {
                    continue;
                }
            }
            best = Some((aggregate, trails));
        }
        best.expect("at least one repetition")
    };

    // Fuzz smoke: a small fixed seed range through the differential
    // fuzzer, so the one perf artifact also tracks the soundness
    // trajectory (cases run, Unknown rate, disagreements). The range is
    // deliberately tiny — the dedicated fuzz-smoke CI job covers the
    // wide one.
    let fuzz_seeds = 0u64..250;
    let (fuzz_stats, fuzz_failures) = expose_fuzz::run_range(
        fuzz_seeds.clone(),
        &expose_fuzz::GenConfig::default(),
        &expose_fuzz::FuzzBudget::quick(),
    );
    eprintln!(
        "perf: fuzz smoke seeds {}..{}: {} cases, {} disagreements, unknown rate {:.1}%",
        fuzz_seeds.start,
        fuzz_seeds.end,
        fuzz_stats.cases,
        fuzz_stats.disagreements,
        100.0 * fuzz_stats.unknown_rate()
    );
    for failure in &fuzz_failures {
        eprintln!(
            "perf: fuzz DISAGREEMENT [{}] {}: {}",
            failure.disagreement.layer.name(),
            failure.case.to_line(),
            failure.disagreement.detail
        );
    }

    // ReDoS suite: the shared pathological corpus through both match
    // engines. The Pike VM must decide every pattern within its linear
    // step bound (run_case panics otherwise); the budgeted backtracker
    // is expected to flag each as a blowup. Folded into the artifact so
    // one file also tracks the fast path's ReDoS-robustness trajectory.
    let redos_corpus = bench::redos::redos_corpus();
    let redos_bt_budget = 250_000u64;
    let mut redos_bt_flagged = 0u64;
    let mut redos_vm_ms = 0.0f64;
    let mut redos_bt_ms = 0.0f64;
    for case in &redos_corpus {
        let outcome = bench::redos::run_case(case, redos_bt_budget);
        redos_bt_flagged += outcome.bt_flagged as u64;
        redos_vm_ms += outcome.vm_ms;
        redos_bt_ms += outcome.bt_ms;
    }
    let redos_speedup = redos_bt_ms / redos_vm_ms.max(1e-9);
    eprintln!(
        "perf: redos {} patterns, {} flagged by backtracker, vm {:.2} ms vs bt {:.1} ms ({:.0}x)",
        redos_corpus.len(),
        redos_bt_flagged,
        redos_vm_ms,
        redos_bt_ms,
        redos_speedup
    );

    let (baseline, baseline_trails) = run_best("baseline", &base_config, &DseCaches::disabled);
    eprintln!(
        "perf: baseline (serial, uncached) {:.0} ms",
        baseline.wall_ms
    );

    let opt_config = || EngineConfig {
        flip_workers,
        ..engine_config(SupportLevel::Refinement, budget)
    };
    let (optimized, optimized_trails) = run_best("optimized", &opt_config, &|| {
        DseCaches::from_config(&opt_config())
    });
    eprintln!(
        "perf: optimized (parallel, cached) {:.0} ms",
        optimized.wall_ms
    );

    let mut verdict_diffs = 0usize;
    for ((w, a), b) in set.iter().zip(&baseline_trails).zip(&optimized_trails) {
        if a != b {
            verdict_diffs += 1;
            eprintln!("perf: verdict trail mismatch in workload {}", w.name);
        }
    }
    let speedup = baseline.wall_ms / optimized.wall_ms.max(1e-9);

    // Throughput: the corpus through the NDJSON job service, best of
    // the same REPS repetitions.
    let throughput_numbers = throughput.then(|| {
        let mut best: Option<(u64, usize, f64, f64)> = None;
        for _ in 0..REPS {
            let measured = measure_throughput(programs, budget, flip_workers);
            if best.is_none_or(|b| measured.3 > b.3) {
                best = Some(measured);
            }
        }
        let best = best.expect("at least one repetition");
        eprintln!(
            "perf: throughput {:.1} jobs/sec ({} jobs, {} workers, {:.0} ms)",
            best.3, best.0, best.1, best.2
        );
        best
    });
    // Latency trajectory: the same corpus over a real loopback TCP
    // socket under 8-way client concurrency (one soak pass — the
    // quantiles are per-job, so a single pass already has hundreds of
    // samples at full budget).
    let latency_numbers = throughput.then(|| {
        let measured = measure_latency(programs, budget, flip_workers, 8);
        eprintln!(
            "perf: latency p50 {:.1} ms, p99 {:.1} ms ({} jobs, {} clients, {} dropped)",
            measured.p50_ms, measured.p99_ms, measured.jobs, measured.clients, measured.dropped
        );
        measured
    });
    // Exploration: the orchestrator over the corpus, strictly-more
    // unique paths than single-trace flip runs (the whole point of
    // closing the solve→seed loop).
    let explore_numbers = explore.then(|| {
        let measured = measure_explore(&set, budget, flip_workers, REPS);
        eprintln!(
            "perf: explore {} unique paths over {} iterations ({:.0} ms, {:.1} paths/sec) \
             vs {} single-trace paths",
            measured.unique_paths,
            measured.iterations,
            measured.wall_ms,
            measured.paths_per_sec,
            measured.single_paths,
        );
        measured
    });
    let explore_json = match &explore_numbers {
        Some(e) => {
            use std::fmt::Write as _;
            let mut json = format!(
                concat!(
                    "  \"explore_iterations\": {},\n",
                    "  \"explore_unique_paths\": {},\n",
                    "  \"explore_single_paths\": {},\n",
                    "  \"explore_wall_ms\": {:.1},\n",
                    "  \"unique_paths_per_sec\": {:.1},\n",
                    "  \"explore_trajectory\": \"{:016x}\",\n",
                ),
                e.iterations,
                e.unique_paths,
                e.single_paths,
                e.wall_ms,
                e.paths_per_sec,
                e.trajectory,
            );
            json.push_str("  \"coverage_over_time\": [");
            for (k, (stmts, paths)) in e.coverage_over_time.iter().enumerate() {
                if k > 0 {
                    json.push_str(", ");
                }
                let _ = write!(
                    json,
                    "{{\"iteration\": {}, \"covered_stmts\": {stmts}, \"unique_paths\": {paths}}}",
                    k + 1
                );
            }
            json.push_str("],\n");
            json
        }
        None => String::new(),
    };
    let throughput_json = match &throughput_numbers {
        Some((jobs, workers, wall_ms, jobs_per_sec)) => format!(
            concat!(
                "  \"throughput_jobs\": {},\n",
                "  \"throughput_workers\": {},\n",
                "  \"throughput_wall_ms\": {:.1},\n",
                "  \"throughput_jobs_per_sec\": {:.1},\n",
            ),
            jobs, workers, wall_ms, jobs_per_sec
        ),
        None => String::new(),
    };
    let latency_json = match &latency_numbers {
        Some(l) => format!(
            concat!(
                "  \"latency_clients\": {},\n",
                "  \"soak_jobs\": {},\n",
                "  \"soak_dropped\": {},\n",
                "  \"latency_p50_ms\": {:.3},\n",
                "  \"latency_p99_ms\": {:.3},\n",
            ),
            l.clients, l.jobs, l.dropped, l.p50_ms, l.p99_ms
        ),
        None => String::new(),
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"expose-bench-dse/v1\",\n",
            "  \"budget\": \"{}\",\n",
            "  \"workloads\": {},\n",
            "  \"flip_workers\": {},\n",
            "  \"baseline_wall_ms\": {:.1},\n",
            "  \"optimized_wall_ms\": {:.1},\n",
            "  \"speedup\": {:.3},\n",
            "  \"verdict_diffs\": {},\n",
            "  \"optimized_solver_nodes\": {},\n",
            "  \"fuzz_cases\": {},\n",
            "  \"fuzz_disagreements\": {},\n",
            "  \"fuzz_unknown_rate\": {:.4},\n",
            "  \"redos_patterns\": {},\n",
            "  \"redos_vm_decided\": {},\n",
            "  \"redos_bt_flagged\": {},\n",
            "  \"redos_vm_wall_ms\": {:.3},\n",
            "  \"redos_bt_wall_ms\": {:.1},\n",
            "  \"redos_speedup\": {:.1},\n",
            "  \"matcher_fast_path\": {},\n",
            "  \"matcher_fallback\": {},\n",
            "{}",
            "{}",
            "{}",
            "  \"baseline\": {},\n",
            "  \"optimized\": {}\n",
            "}}\n"
        ),
        budget_name,
        set.len(),
        flip_workers,
        baseline.wall_ms,
        optimized.wall_ms,
        speedup,
        verdict_diffs,
        optimized.solver_nodes,
        fuzz_stats.cases,
        fuzz_stats.disagreements,
        fuzz_stats.unknown_rate(),
        redos_corpus.len(),
        redos_corpus.len(),
        redos_bt_flagged,
        redos_vm_ms,
        redos_bt_ms,
        redos_speedup,
        optimized.matcher_fast_path,
        optimized.matcher_fallback,
        explore_json,
        throughput_json,
        latency_json,
        baseline.json(set.len()),
        optimized.json(set.len()),
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("perf: speedup {speedup:.2}x, verdict_diffs {verdict_diffs}, wrote {out}");

    // The job-summary markdown, rendered from the numbers themselves —
    // CI used to scrape the JSON with grep, which silently dropped
    // keys whenever the formatting shifted.
    if let Some(path) = &summary_md {
        use std::fmt::Write as _;
        let mut md = String::new();
        let _ = writeln!(md, "### Perf ({budget_name} budget, BENCH_dse.json)");
        let _ = writeln!(
            md,
            "- **speedup**: {speedup:.2}x (baseline {:.1} ms \u{2192} optimized {:.1} ms)",
            baseline.wall_ms, optimized.wall_ms
        );
        let _ = writeln!(md, "- **verdict_diffs**: {verdict_diffs}");
        let _ = writeln!(
            md,
            "- **solver nodes** (baseline \u{2192} optimized): {} \u{2192} {}",
            baseline.solver_nodes, optimized.solver_nodes
        );
        let _ = writeln!(
            md,
            "- **automata counters** (baseline \u{2192} optimized): states built {} \u{2192} {}, \
             after minimize {} \u{2192} {}, length prunes {} \u{2192} {}",
            baseline.dfa_states_built,
            optimized.dfa_states_built,
            baseline.states_after_minimize,
            optimized.states_after_minimize,
            baseline.length_prunes,
            optimized.length_prunes,
        );
        let _ = writeln!(
            md,
            "- **model cache hit rate** (optimized): {:.1}%",
            100.0 * Aggregate::hit_rate(optimized.model_cache_hits, optimized.model_cache_misses),
        );
        let _ = writeln!(
            md,
            "- **incremental solving** (optimized): {} prefix frames reused, \
             {} CEGAR runs replayed",
            optimized.prefix_reuse_hits, optimized.verdict_replays,
        );
        if let Some((jobs, workers, wall_ms, jobs_per_sec)) = &throughput_numbers {
            let _ = writeln!(
                md,
                "- **service throughput**: {jobs_per_sec:.1} jobs/sec \
                 ({jobs} jobs, {workers} workers, {wall_ms:.0} ms)"
            );
        }
        if let Some(l) = &latency_numbers {
            let _ = writeln!(
                md,
                "- **service latency**: p50 {:.1} ms, p99 {:.1} ms \
                 ({} jobs over TCP, {} concurrent clients, {} dropped)",
                l.p50_ms, l.p99_ms, l.jobs, l.clients, l.dropped,
            );
        }
        if let Some(e) = &explore_numbers {
            let _ = writeln!(
                md,
                "- **exploration**: {} unique paths in {} iterations/workload \
                 ({:.1} paths/sec) vs {} single-trace paths",
                e.unique_paths, e.iterations, e.paths_per_sec, e.single_paths,
            );
        }
        let _ = writeln!(
            md,
            "- **fuzz smoke**: {} cases, {} disagreement{}, Unknown rate {:.1}%",
            fuzz_stats.cases,
            fuzz_stats.disagreements,
            if fuzz_stats.disagreements == 1 {
                ""
            } else {
                "s"
            },
            100.0 * fuzz_stats.unknown_rate(),
        );
        let _ = writeln!(
            md,
            "- **matcher engines** (optimized run): {} fast-path / {} fallback executions",
            optimized.matcher_fast_path, optimized.matcher_fallback,
        );
        let _ = writeln!(
            md,
            "- **ReDoS suite**: {}/{} decided by the Pike VM within its linear bound, \
             {}/{} flagged by the budgeted backtracker, {redos_speedup:.0}x wall-clock",
            redos_corpus.len(),
            redos_corpus.len(),
            redos_bt_flagged,
            redos_corpus.len(),
        );
        let _ = writeln!(md);
        let _ = writeln!(md, "<details><summary>Full artifact</summary>\n");
        let _ = writeln!(md, "```json\n{}```\n", json);
        let _ = writeln!(md, "</details>");
        std::fs::write(path, md).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("perf: wrote summary markdown to {path}");
    }

    if verdict_diffs > 0 {
        eprintln!("perf: FAIL — parallel/cached run changed {verdict_diffs} verdict trail(s)");
        std::process::exit(2);
    }
    if fuzz_stats.disagreements > 0 {
        eprintln!(
            "perf: FAIL — fuzz smoke found {} cross-layer disagreement(s)",
            fuzz_stats.disagreements
        );
        std::process::exit(7);
    }
    if redos_bt_flagged < redos_corpus.len() as u64 {
        eprintln!(
            "perf: FAIL — only {redos_bt_flagged}/{} ReDoS patterns tripped the \
             backtracker budget; the corpus stopped being pathological",
            redos_corpus.len()
        );
        std::process::exit(8);
    }
    if speedup < 1.5 {
        // Advisory on arbitrary machines; the CI gate is the checked-in
        // baseline comparison below.
        eprintln!("perf: WARN — speedup {speedup:.2}x below the 1.5x target");
    }
    if let Some(l) = &latency_numbers {
        // A dropped job means a client's submit never got a response —
        // the one thing a front-end must never do, on any machine.
        if l.dropped > 0 {
            eprintln!(
                "perf: FAIL — the latency soak dropped {} of {} job(s)",
                l.dropped, l.jobs
            );
            std::process::exit(10);
        }
    }
    if let Some(e) = &explore_numbers {
        // The loop exists to witness paths one trace's flips cannot; if
        // it stops strictly exceeding the single-trace sweep, the
        // frontier scheduling or the corpus feedback broke.
        if e.unique_paths <= e.single_paths {
            eprintln!(
                "perf: FAIL — exploration witnessed {} unique paths, not strictly more \
                 than the {} of single-trace flip runs",
                e.unique_paths, e.single_paths
            );
            std::process::exit(9);
        }
    }
    if let Some(path) = check {
        let reference = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let reference_ms = extract_number(&reference, "optimized_wall_ms")
            .unwrap_or_else(|| panic!("no optimized_wall_ms in {path}"));
        let limit = reference_ms * 2.0;
        eprintln!(
            "perf: check {:.0} ms against baseline {:.0} ms (limit {:.0} ms)",
            optimized.wall_ms, reference_ms, limit
        );
        if optimized.wall_ms > limit {
            eprintln!("perf: FAIL — optimized wall-clock regressed more than 2x the baseline");
            std::process::exit(3);
        }
        // Machine-independent gate: the absolute-ms comparison above
        // also measures runner speed, so additionally require the
        // same-run baseline→optimized ratio to stay above a floor well
        // under the tracked ~2.5x (a drop below it means the caches or
        // the fan-out genuinely stopped paying for themselves).
        if speedup < 1.2 {
            eprintln!("perf: FAIL — same-run speedup {speedup:.2}x fell below the 1.2x floor");
            std::process::exit(4);
        }
        // Search-effort gate, fully machine-independent: solver nodes
        // are deterministic per engine version, so a >2x jump against
        // the checked-in baseline means the automata/length pruning
        // genuinely regressed, not that the runner was slow.
        let reference_nodes = extract_number(&reference, "optimized_solver_nodes")
            .unwrap_or_else(|| panic!("no optimized_solver_nodes in {path}"));
        let node_limit = reference_nodes * 2.0;
        eprintln!(
            "perf: check {} solver nodes against baseline {:.0} (limit {:.0})",
            optimized.solver_nodes, reference_nodes, node_limit
        );
        if optimized.solver_nodes as f64 > node_limit {
            eprintln!("perf: FAIL — optimized solver_nodes regressed more than 2x the baseline");
            std::process::exit(5);
        }
        // Service-throughput gate: only when this run measured it and
        // the reference artifact has a number to compare against (PR
        // CI runs without --throughput and older baselines lack the
        // key — both skip the gate rather than failing spuriously).
        if let Some((_, _, _, jobs_per_sec)) = &throughput_numbers {
            if let Some(reference_tps) = extract_number(&reference, "throughput_jobs_per_sec") {
                let floor = reference_tps / 2.0;
                eprintln!(
                    "perf: check {jobs_per_sec:.1} jobs/sec against baseline {reference_tps:.1} \
                     (floor {floor:.1})"
                );
                if *jobs_per_sec < floor {
                    eprintln!(
                        "perf: FAIL — service throughput regressed more than 2x the baseline"
                    );
                    std::process::exit(6);
                }
            } else {
                eprintln!("perf: baseline has no throughput_jobs_per_sec; gate skipped");
            }
        }
        // Latency gates, same skip-if-missing shape: p50 and p99 may
        // each regress at most 2x against the checked-in baseline.
        if let Some(l) = &latency_numbers {
            for (key, measured) in [("latency_p50_ms", l.p50_ms), ("latency_p99_ms", l.p99_ms)] {
                if let Some(reference_ms) = extract_number(&reference, key) {
                    let limit = reference_ms * 2.0;
                    eprintln!(
                        "perf: check {key} {measured:.1} ms against baseline {reference_ms:.1} \
                         (limit {limit:.1})"
                    );
                    if measured > limit {
                        eprintln!("perf: FAIL — {key} regressed more than 2x the baseline");
                        std::process::exit(10);
                    }
                } else {
                    eprintln!("perf: baseline has no {key}; gate skipped");
                }
            }
        }
        // Exploration-rate gate, mirroring the throughput one: only
        // when this run measured it and the baseline carries the key.
        if let Some(e) = &explore_numbers {
            if let Some(reference_pps) = extract_number(&reference, "unique_paths_per_sec") {
                let floor = reference_pps / 2.0;
                eprintln!(
                    "perf: check {:.1} paths/sec against baseline {reference_pps:.1} \
                     (floor {floor:.1})",
                    e.paths_per_sec
                );
                if e.paths_per_sec < floor {
                    eprintln!(
                        "perf: FAIL — exploration path rate regressed more than 2x the baseline"
                    );
                    std::process::exit(9);
                }
            } else {
                eprintln!("perf: baseline has no unique_paths_per_sec; gate skipped");
            }
        }
    }
}
