//! `expose-serve` — the NDJSON DSE job service.
//!
//! ```text
//! # Stream jobs through the work-stealing scheduler (stdin/stdout):
//! expose-serve [--workers N] [--max-inflight N]
//!
//! # Same protocol over a Unix socket or TCP (connections share warm
//! # caches; admission control via --max-connections; SIGTERM drains
//! # gracefully — stop accepting, flush in-flight, close each stream
//! # with its done line):
//! expose-serve --listen unix:/tmp/expose.sock [--workers N]
//! expose-serve --listen tcp:127.0.0.1:7077 [--max-connections N] [--shed]
//!
//! # Soak a served tcp: endpoint with concurrent closed-loop clients
//! # and report exact end-to-end latency quantiles (seconds 0 = one
//! # corpus pass per client):
//! expose-serve --soak 127.0.0.1:7077 --clients 8 --seconds 30
//!
//! # Serial reference: run the submits through a one-worker batch
//! # and print the same result lines (the service-smoke CI job diffs
//! # this against the streamed output — they must be byte-identical):
//! expose-serve --batch
//!
//! # Print the benchmark corpus as submit lines (pipe back in):
//! expose-serve --emit-corpus 10 [--budget quick|full]
//!
//! # Print the corpus as protocol-v2 streaming scripts (pipe back in):
//! expose-serve --emit-stream 10 [--budget quick|full]
//!
//! # Print the corpus as protocol-v2 exploration requests (pipe back
//! # in; the explore-smoke CI job byte-diffs the served output across
//! # --flip-workers 1/2/8):
//! expose-serve --emit-explore 10 --iterations 5 [--budget quick|full]
//!
//! # Replay recorded streaming scripts against a served session and
//! # check the solved responses against the whole-program reference
//! # (one deterministic line per workload; exits nonzero on any
//! # mismatch — the streaming leg of service-smoke runs this at
//! # --workers 1/2/8 and byte-diffs the outputs):
//! expose-serve --replay-stream 10 [--workers N]
//! ```

use std::io::{BufRead, Write};

use expose_dse::sched::Completion;
use expose_dse::BatchOptions;
use expose_service::json::{self, Value};
use expose_service::session::{job_from_submit, ServeOptions, ServiceConfig};
use expose_service::stream::{fold_responses, record_stream};
use expose_service::{
    corpus_explore_lines, corpus_submit_lines, proto, run_soak, serve_listener, CorpusBudget,
    Listen, ProtoVersion, Request, ServerState, SoakOptions,
};

struct Options {
    workers: usize,
    flip_workers: Option<usize>,
    max_inflight: usize,
    listen: Option<String>,
    max_connections: Option<usize>,
    shed: bool,
    metrics_text: bool,
    soak: Option<String>,
    clients: usize,
    seconds: u64,
    batch: bool,
    emit_corpus: Option<usize>,
    emit_stream: Option<usize>,
    emit_explore: Option<usize>,
    iterations: usize,
    replay_stream: Option<usize>,
    budget: CorpusBudget,
    cache_bytes: Option<usize>,
}

fn parse_args() -> Options {
    let mut options = Options {
        workers: 0,
        flip_workers: None,
        max_inflight: 256,
        listen: None,
        max_connections: None,
        shed: false,
        metrics_text: false,
        soak: None,
        clients: 8,
        seconds: 0,
        batch: false,
        emit_corpus: None,
        emit_stream: None,
        emit_explore: None,
        iterations: 5,
        replay_stream: None,
        budget: CorpusBudget::Quick,
        cache_bytes: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workers" => options.workers = value("--workers").parse().expect("worker count"),
            "--flip-workers" => {
                options.flip_workers = Some(value("--flip-workers").parse().expect("worker count"))
            }
            "--max-inflight" => {
                options.max_inflight = value("--max-inflight").parse().expect("bound")
            }
            "--listen" => options.listen = Some(value("--listen")),
            "--max-connections" => {
                options.max_connections =
                    Some(value("--max-connections").parse().expect("connection cap"))
            }
            "--shed" => options.shed = true,
            "--metrics-text" => options.metrics_text = true,
            "--soak" => {
                let addr = value("--soak");
                // Accept both a bare host:port and the tcp: spec form.
                options.soak = Some(addr.strip_prefix("tcp:").unwrap_or(&addr).to_string());
            }
            "--clients" => options.clients = value("--clients").parse().expect("client count"),
            "--seconds" => options.seconds = value("--seconds").parse().expect("seconds"),
            "--batch" => options.batch = true,
            "--emit-corpus" => {
                options.emit_corpus = Some(value("--emit-corpus").parse().expect("program count"))
            }
            "--emit-stream" => {
                options.emit_stream = Some(value("--emit-stream").parse().expect("program count"))
            }
            "--emit-explore" => {
                options.emit_explore = Some(value("--emit-explore").parse().expect("program count"))
            }
            "--iterations" => {
                options.iterations = value("--iterations").parse().expect("iteration count")
            }
            "--replay-stream" => {
                options.replay_stream =
                    Some(value("--replay-stream").parse().expect("program count"))
            }
            "--budget" => {
                options.budget = match value("--budget").as_str() {
                    "quick" => CorpusBudget::Quick,
                    "full" => CorpusBudget::Full,
                    other => panic!("unknown budget {other:?} (expected quick|full)"),
                }
            }
            "--cache-bytes" => {
                options.cache_bytes = Some(value("--cache-bytes").parse().expect("byte budget"))
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    options
}

fn service_config(options: &Options) -> ServiceConfig {
    let mut config = ServiceConfig::default()
        .workers(options.workers)
        .max_inflight(options.max_inflight)
        .load_shed(options.shed);
    if let Some(cap) = options.max_connections {
        config = config.max_connections(cap);
    }
    // `--cache-bytes N` caps each session cache at ~N resident bytes
    // (0 = unlimited); the default ceiling lives in ServiceConfig.
    if let Some(bytes) = options.cache_bytes {
        config = config.cache_bytes(bytes);
    }
    // `--flip-workers N` sets the default per-trace flip-solving worker
    // count (requests may still override per line). Exploration output
    // must be byte-identical for any value — explore-smoke diffs it.
    if let Some(n) = options.flip_workers {
        config = config.flip_workers(n);
    }
    config
}

/// The benchmark corpus as parsed jobs (engine settings = the service
/// defaults plus each submit line's overrides).
fn corpus_jobs(
    generated: usize,
    budget: CorpusBudget,
    config: &ServiceConfig,
) -> Vec<expose_dse::Job> {
    corpus_submit_lines(generated, budget)
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let (request, _) = proto::parse_request(line).expect("corpus line parses");
            let Request::Submit(submit) = request else {
                panic!("corpus line is a submit");
            };
            let name = submit.name.clone().unwrap_or_else(|| format!("job{i}"));
            job_from_submit(&submit, &name, &config.engine).expect("corpus job parses")
        })
        .collect()
}

/// The serial reference: collect submits, run them through a
/// one-worker batch, and print result lines identical to a streamed
/// session's.
fn run_batch_mode(input: impl BufRead, config: &ServiceConfig) -> std::io::Result<()> {
    let mut pending: Vec<(String, ProtoVersion, Result<expose_dse::Job, String>)> = Vec::new();
    let mut stream_version = ProtoVersion::V1;
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match proto::parse_request(line) {
            Ok((request, version)) => {
                if version == ProtoVersion::V2 {
                    stream_version = ProtoVersion::V2;
                }
                match request {
                    Request::Submit(submit) => {
                        let name = submit
                            .name
                            .clone()
                            .unwrap_or_else(|| format!("job{}", pending.len()));
                        let job = job_from_submit(&submit, &name, &config.engine);
                        pending.push((name, version, job));
                    }
                    Request::Shutdown => break,
                    Request::Status | Request::Stats | Request::Metrics => {
                        // Progress queries are meaningless for an
                        // offline batch; the streamed session answers
                        // them instead.
                    }
                    Request::OpenSession(_)
                    | Request::Push(_)
                    | Request::Pop
                    | Request::Solve { .. }
                    | Request::CloseSession
                    | Request::Explore(_) => {
                        println!(
                            "{}",
                            proto::error_line(&proto::RequestError::new(
                                proto::ErrorCode::NoSession,
                                "streaming sessions need a served session, not --batch",
                                version,
                            ))
                        );
                    }
                }
            }
            Err(error) => {
                println!("{}", proto::error_line(&error));
            }
        }
    }

    let jobs: Vec<expose_dse::Job> = pending
        .iter()
        .filter_map(|(_, _, job)| job.as_ref().ok().cloned())
        .collect();
    let mut reports = BatchOptions::new().workers(1).run(jobs).into_iter();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let total = pending.len() as u64;
    for (id, (name, version, job)) in pending.into_iter().enumerate() {
        let outcome = match job {
            Ok(_) => Ok(reports.next().expect("one report per job")),
            Err(error) => Err(error),
        };
        let completion = Completion {
            id: id as u64,
            name,
            outcome,
        };
        writeln!(out, "{}", proto::result_line(&completion, version))?;
    }
    writeln!(out, "{}", proto::done_line(total, stream_version))?;
    Ok(())
}

/// Prints the corpus as protocol-v2 streaming scripts: per workload,
/// one session per executed trace, pushes and solves interleaved.
fn run_emit_stream(generated: usize, options: &Options) -> std::io::Result<()> {
    let config = service_config(options);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for job in corpus_jobs(generated, options.budget, &config) {
        for line in record_stream(&job).script {
            writeln!(out, "{line}")?;
        }
    }
    Ok(())
}

/// Replays the corpus as streaming scripts against served sessions and
/// checks the solved responses against the whole-program reference.
///
/// Per workload, the served input is the workload's `submit` (routed
/// through the scheduler at the configured worker count) followed by
/// the recorded session scripts (solved on the reader thread against
/// the same warm caches). Three equalities must hold:
///
/// 1. the folded `solved` digest equals the recorded reference run's,
/// 2. the `result` line's `verdicts` digest equals the same value,
/// 3. across the corpus, multi-flip workloads report `prefix_reuse`
///    \> 0 in aggregate (a single workload can legitimately report 0 —
///    e.g. when every deep flip is statically infeasible and never
///    reaches the assumption stack).
///
/// One deterministic line per workload goes to stdout, so CI can run
/// this at several worker counts and byte-diff the outputs.
fn run_replay_stream(generated: usize, options: &Options) -> std::io::Result<()> {
    let config = service_config(options);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut failures = 0usize;
    let mut any_multi_flip = false;
    let mut total_prefix_reuse = 0u64;
    for job in corpus_jobs(generated, options.budget, &config) {
        let recording = record_stream(&job);
        let reference = proto::verdict_digest(&recording.report);

        let mut input = String::new();
        input.push_str(
            corpus_submit_lines(generated, options.budget)
                .iter()
                .find(|l| l.contains(&format!("\"name\":{}", json::escaped(&job.name))))
                .expect("workload has a submit line"),
        );
        input.push('\n');
        for line in &recording.script {
            input.push_str(line);
            input.push('\n');
        }

        let mut served: Vec<u8> = Vec::new();
        let summary = ServeOptions::new()
            .config(config.clone())
            .serve(input.as_bytes(), &mut served)?;
        let served = String::from_utf8(served).expect("utf8 output");
        let folded = fold_responses(served.lines()).unwrap_or_else(|e| panic!("{e}"));
        let submitted = served
            .lines()
            .find_map(|line| {
                let value = json::parse(line).ok()?;
                if value.get("type").and_then(Value::as_str) != Some("result") {
                    return None;
                }
                value
                    .get("verdicts")
                    .and_then(Value::as_str)
                    .map(str::to_string)
            })
            .unwrap_or_default();

        any_multi_flip |= recording.max_session_flips >= 2;
        total_prefix_reuse += folded.prefix_reuse_hits;

        let digest_ok = folded.digest == reference;
        let submit_ok = submitted == format!("{reference:016x}");
        let clean = summary.request_errors == 0 && folded.errors == 0;
        let ok = digest_ok && submit_ok && clean;
        if !ok {
            failures += 1;
            eprintln!(
                "expose-serve: {} mismatch: streamed={:016x} reference={reference:016x} \
                 submit={submitted:?} prefix_reuse={} errors={}/{}",
                job.name,
                folded.digest,
                folded.prefix_reuse_hits,
                summary.request_errors,
                folded.errors,
            );
        }
        writeln!(
            out,
            "{} sessions={} solves={} verdicts={reference:016x} prefix_reuse={} {}",
            job.name,
            recording.report.executions,
            folded.solves,
            folded.prefix_reuse_hits,
            if ok { "ok" } else { "MISMATCH" },
        )?;
    }
    if failures > 0 {
        return Err(std::io::Error::other(format!(
            "{failures} workload(s) diverged between streamed and whole-program solving"
        )));
    }
    if any_multi_flip && total_prefix_reuse == 0 {
        return Err(std::io::Error::other(
            "multi-flip workloads streamed without any prefix reuse",
        ));
    }
    Ok(())
}

/// SIGTERM/SIGINT → graceful drain: the async-signal handler only
/// flips a static flag; a watcher thread turns the flag into
/// [`ServerState::begin_drain`] from safe code.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use expose_service::ServerState;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    pub fn drain_on_signals(state: &Arc<ServerState>) {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
        let state = Arc::clone(state);
        std::thread::spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                eprintln!("expose-serve: signal received; draining");
                state.begin_drain();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
}

#[cfg(not(unix))]
mod sig {
    use expose_service::ServerState;
    use std::sync::Arc;

    pub fn drain_on_signals(_state: &Arc<ServerState>) {}
}

/// Serves `--listen stdio|unix:PATH|tcp:ADDR` through the admission
/// front-end: one shared warm cache set, `--max-connections` cap,
/// graceful drain on SIGTERM/SIGINT.
fn run_listener(spec: &str, options: &Options) -> std::io::Result<()> {
    let listen = Listen::parse(spec).map_err(std::io::Error::other)?;
    let mut listener = listen.bind()?;
    eprintln!("expose-serve: listening on {}", listener.local_addr());
    let state = ServerState::new();
    sig::drain_on_signals(&state);
    let serve = ServeOptions::new()
        .config(service_config(options))
        .metrics_text(options.metrics_text);
    let summary = serve_listener(listener.as_mut(), &serve, &state)?;
    eprintln!(
        "expose-serve: drained, {} connection(s) served, {} refused",
        summary.connections, summary.rejected
    );
    Ok(())
}

/// Runs the concurrent soak client against an already-serving `tcp:`
/// endpoint and prints one summary line; exits nonzero if any job got
/// no response at all.
fn run_soak_mode(addr: &str, options: &Options) -> std::io::Result<()> {
    let report = run_soak(&SoakOptions {
        addr: addr.to_string(),
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
    let options = parse_args();

    if let Some(addr) = &options.soak {
        return run_soak_mode(addr, &options);
    }

    if let Some(generated) = options.emit_corpus {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in corpus_submit_lines(generated, options.budget) {
            writeln!(out, "{line}")?;
        }
        return Ok(());
    }
    if let Some(generated) = options.emit_stream {
        return run_emit_stream(generated, &options);
    }
    if let Some(generated) = options.emit_explore {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in corpus_explore_lines(generated, options.budget, options.iterations) {
            writeln!(out, "{line}")?;
        }
        return Ok(());
    }
    if let Some(generated) = options.replay_stream {
        return run_replay_stream(generated, &options);
    }

    let config = service_config(&options);
    if options.batch {
        return run_batch_mode(std::io::stdin().lock(), &config);
    }
    if let Some(spec) = &options.listen {
        return run_listener(spec, &options);
    }

    let stdin = std::io::stdin();
    let summary = ServeOptions::new()
        .config(config)
        .metrics_text(options.metrics_text)
        .serve(stdin.lock(), std::io::stdout())?;
    eprintln!(
        "expose-serve: session done, {} job(s), {} request error(s)",
        summary.jobs, summary.request_errors
    );
    Ok(())
}
