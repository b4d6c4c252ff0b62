//! One service session: a reader loop feeding the scheduler and an
//! emitter thread streaming re-sequenced results.
//!
//! The reader (the calling thread) parses NDJSON requests and submits
//! jobs; [`expose_dse::sched::Scheduler::submit`] blocks when
//! `max_inflight` jobs are pending, so backpressure propagates to the
//! input — the session stops *reading* instead of buffering without
//! bound. The emitter thread drains completions in job-id order and
//! writes one `result` line per job as it lands; because the scheduler
//! re-sequences, the result stream is byte-identical for any worker
//! count.
//!
//! Protocol-v2 streaming sessions (`open_session`/`push`/`pop`/
//! `solve`/`close_session`) are handled on the reader thread: each
//! connection holds at most one live [`TraceFlipSession`] whose
//! assumption stack grows clause by clause, sharing the connection's
//! warm [`CacheSet`] (model/verdict/DFA layers) with batch jobs, so
//! a flip solved for a submitted program warms the streamed session and
//! vice versa. `solved` responses are synchronous and ordered with the
//! requests, which keeps them deterministic for any worker count.

use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use expose_dse::sched::{LatencyHistogram, Scheduler, SchedulerConfig};
use expose_dse::sym::RegexEvent;
use expose_dse::{
    build_solver, explore_observed, parser::parse_program, CacheSet, EngineConfig, ExploreConfig,
    Harness, Job, TraceFlipSession,
};

use crate::proto::{
    self, CacheCounters, ErrorCode, ExploreRequest, HarnessKind, LifetimeCounters, ProtoVersion,
    PushRequest, Request, RequestError, SessionCounters, SubmitRequest,
};
use crate::server::ServerState;
use crate::transport::{next_line, LineBuffer, LineEvent};
use crate::wire;

/// Session configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker shards (`0` = auto).
    pub workers: usize,
    /// In-flight bound for backpressure (`0` = unbounded).
    pub max_inflight: usize,
    /// Approximate byte budget of each cache in a fresh session cache
    /// set — resident regex models and cached CEGAR verdicts are
    /// bounded separately (`0` = unlimited). Entry counts alone do not
    /// bound memory — a few hundred quantifier-expanded models can
    /// dwarf thousands of small ones — so long-lived sessions get a
    /// byte ceiling too. Entry capacities come from `engine`.
    pub cache_byte_budget: usize,
    /// Maximum assumption-stack depth of a protocol-v2 streaming
    /// session; a `push` beyond it is rejected with `depth_limit`.
    /// Every retained frame (and its retraction snapshot) stays
    /// resident, so unbounded depth would let one connection grow
    /// server memory without limit. An `open_session` request may
    /// lower (never raise) this per session via `max_depth`.
    pub max_session_depth: usize,
    /// Maximum byte length of one request line (`0` = unlimited); an
    /// oversized line is discarded and answered with `bad_request`
    /// instead of buffering without bound.
    pub max_line_bytes: usize,
    /// Concurrent-connection cap of the socket front-end (`0` =
    /// unlimited); connections beyond it are refused with
    /// `overloaded`.
    pub max_connections: usize,
    /// Turn scheduler backpressure into load shedding: when the
    /// in-flight bound is reached, answer a `submit` with an
    /// `overloaded` error instead of stalling the reader. Off by
    /// default — shedding is timing-dependent, so the deterministic
    /// stream contract only holds without it.
    pub load_shed: bool,
    /// Per-job engine defaults; `submit` fields override per job.
    pub engine: EngineConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            max_inflight: 256,
            // 64 MiB per cache: far above any workload in the bench
            // suite, but a hard ceiling for sessions that run for days.
            cache_byte_budget: 64 << 20,
            // A trace this deep is far beyond any engine workload; the
            // bound exists to cap per-connection memory, not to be hit.
            max_session_depth: 4096,
            // 4 MiB comfortably fits every corpus program while keeping
            // one malicious line from ballooning memory.
            max_line_bytes: 4 << 20,
            max_connections: 64,
            load_shed: false,
            engine: EngineConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Sets the worker shard count (`0` = auto).
    pub fn workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers;
        self
    }

    /// Sets the in-flight backpressure bound (`0` = unbounded).
    pub fn max_inflight(mut self, max_inflight: usize) -> ServiceConfig {
        self.max_inflight = max_inflight;
        self
    }

    /// Sets the per-cache byte budget (model and verdict caches each)
    /// to `bytes` — the `--cache-bytes` knob.
    pub fn cache_bytes(mut self, bytes: usize) -> ServiceConfig {
        self.cache_byte_budget = bytes;
        self
    }

    /// Sets the per-trace flip solver worker count (`0` = auto).
    pub fn flip_workers(mut self, flip_workers: usize) -> ServiceConfig {
        self.engine.flip_workers = flip_workers;
        self
    }

    /// Sets the concurrent-connection cap (`0` = unlimited).
    pub fn max_connections(mut self, max_connections: usize) -> ServiceConfig {
        self.max_connections = max_connections;
        self
    }

    /// Sets the per-line byte cap (`0` = unlimited).
    pub fn max_line_bytes(mut self, max_line_bytes: usize) -> ServiceConfig {
        self.max_line_bytes = max_line_bytes;
        self
    }

    /// Enables or disables load shedding at the in-flight bound.
    pub fn load_shed(mut self, load_shed: bool) -> ServiceConfig {
        self.load_shed = load_shed;
        self
    }

    /// A fresh session cache set: entry capacities from the engine
    /// defaults, each cache bounded by `cache_byte_budget`.
    pub fn cache_set(&self) -> CacheSet {
        CacheSet::session_with_byte_budget(
            self.engine.model_cache_capacity,
            self.engine.query_cache_capacity,
            self.engine.solver.dfa_cache_capacity,
            self.cache_byte_budget,
        )
    }

    /// The effective configuration as a compact JSON object — the
    /// `config` echo of `stats` and `metrics` lines, so a tenant can
    /// confirm what the service actually runs with.
    pub fn echo_json(&self) -> String {
        format!(
            "{{\"workers\":{},\"max_inflight\":{},\"max_connections\":{},\
             \"max_line_bytes\":{},\"load_shed\":{},\"max_session_depth\":{},\
             \"model_cache_capacity\":{},\"query_cache_capacity\":{},\
             \"dfa_table_capacity\":{},\"cache_byte_budget\":{},\"max_executions\":{},\
             \"max_steps\":{},\"max_flips\":{},\"flip_workers\":{},\"seed\":{}}}",
            self.workers,
            self.max_inflight,
            self.max_connections,
            self.max_line_bytes,
            self.load_shed,
            self.max_session_depth,
            self.engine.model_cache_capacity,
            self.engine.query_cache_capacity,
            self.engine.solver.dfa_cache_capacity,
            self.cache_byte_budget,
            self.engine.max_executions,
            self.engine.max_steps,
            self.engine.max_flips_per_trace,
            self.engine.flip_workers,
            self.engine.seed,
        )
    }
}

/// What a finished session did.
#[derive(Debug, Clone, Default)]
pub struct ServiceSummary {
    /// Jobs completed (including rejected submissions).
    pub jobs: u64,
    /// Requests answered with an `error` line (parse failures and
    /// session-verb misuse).
    pub request_errors: u64,
}

/// Builds the engine configuration of one submission.
fn engine_for(submit: &SubmitRequest, defaults: &EngineConfig) -> EngineConfig {
    let mut config = defaults.clone();
    if let Some(support) = submit.support {
        config.support = support;
    }
    if let Some(n) = submit.max_executions {
        config.max_executions = n;
    }
    if let Some(n) = submit.max_steps {
        config.max_steps = n;
    }
    if let Some(n) = submit.max_flips {
        config.max_flips_per_trace = n;
    }
    if let Some(n) = submit.seed {
        config.seed = n;
    }
    if let Some(n) = submit.flip_workers {
        config.flip_workers = n;
    }
    config
}

/// Converts a submission into a runnable job (the program must parse).
pub fn job_from_submit(
    submit: &SubmitRequest,
    name: &str,
    defaults: &EngineConfig,
) -> Result<Job, String> {
    let program = parse_program(&submit.program).map_err(|e| format!("parse: {e}"))?;
    let harness = match submit.harness {
        HarnessKind::Strings => Harness::strings(&submit.entry, submit.arity),
        HarnessKind::StringArray => Harness::string_array(&submit.entry, submit.arity),
    };
    Ok(Job {
        name: name.to_string(),
        program,
        harness,
        config: engine_for(submit, defaults),
    })
}

/// Builds the exploration configuration of one `explore` request from
/// the service's engine defaults plus the request's overrides.
pub fn explore_config_for(request: &ExploreRequest, defaults: &EngineConfig) -> ExploreConfig {
    let mut engine = defaults.clone();
    if let Some(support) = request.support {
        engine.support = support;
    }
    if let Some(n) = request.max_steps {
        engine.max_steps = n;
    }
    if let Some(n) = request.max_flips {
        engine.max_flips_per_trace = n;
    }
    if let Some(n) = request.flip_workers {
        engine.flip_workers = n;
    }
    let mut config = ExploreConfig {
        engine,
        ..ExploreConfig::default()
    };
    if let Some(n) = request.iterations {
        config.max_iterations = n;
    }
    if let Some(n) = request.max_corpus {
        config.max_corpus = n;
    }
    config
}

/// One connection's open streaming session: the wire-facing event
/// table plus the incremental flip session it feeds. The event table is
/// append-only — `pop` retracts the clause but keeps the events it
/// introduced, so client-side event indices never shift.
struct StreamState<'a> {
    id: u64,
    /// Effective depth cap: the service's `max_session_depth`, lowered
    /// by the session's `max_depth` override if one was given.
    max_depth: usize,
    events: Vec<RegexEvent>,
    flips: TraceFlipSession<'a>,
}

/// Options for serving one NDJSON session — the single serve entry
/// point (the old `serve`/`serve_with_caches` free functions are
/// gone).
///
/// ```no_run
/// # use expose_service::{ServeOptions, ServiceConfig};
/// let stdin = std::io::stdin();
/// let summary = ServeOptions::new()
///     .config(ServiceConfig::default())
///     .serve(stdin.lock(), std::io::stdout())?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    config: ServiceConfig,
    caches: Option<CacheSet>,
    server: Option<Arc<ServerState>>,
    metrics_text: bool,
}

impl ServeOptions {
    /// Default options: [`ServiceConfig::default`], fresh caches.
    pub fn new() -> ServeOptions {
        ServeOptions::default()
    }

    /// Sets the session configuration.
    pub fn config(mut self, config: ServiceConfig) -> ServeOptions {
        self.config = config;
        self
    }

    /// Uses a caller-provided cache set instead of a fresh one, so
    /// several sessions (e.g. successive socket connections) keep
    /// their caches warm.
    pub fn caches(mut self, caches: CacheSet) -> ServeOptions {
        self.caches = Some(caches);
        self
    }

    /// Attaches the shared front-end state: the session polls its
    /// drain flag between reads (closing gracefully when the server
    /// drains) and reports its admission counters in `metrics` lines.
    pub fn server(mut self, state: Arc<ServerState>) -> ServeOptions {
        self.server = Some(state);
        self
    }

    /// Dumps a human-readable metrics block to stderr when the session
    /// ends (the `--metrics-text` flag).
    pub fn metrics_text(mut self, enabled: bool) -> ServeOptions {
        self.metrics_text = enabled;
        self
    }

    pub(crate) fn config_ref(&self) -> &ServiceConfig {
        &self.config
    }

    pub(crate) fn caches_ref(&self) -> Option<&CacheSet> {
        self.caches.as_ref()
    }

    /// Serves one NDJSON session over `input`/`output`. Returns when
    /// the input ends or a `shutdown` request arrives, after the
    /// result stream has fully drained.
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        input: R,
        output: W,
    ) -> std::io::Result<ServiceSummary> {
        let config = &self.config;
        let caches = self.caches.clone().unwrap_or_else(|| config.cache_set());
        let dfa_tables = caches.dfa.clone();
        // Streaming sessions solve on the reader thread with the same
        // cache set the scheduler's shards use (a clone shares every
        // layer), so batch jobs and streamed sessions warm each other.
        let stream_caches = caches.clone();
        let stream_solver = build_solver(&config.engine, &stream_caches);
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: config.workers,
                max_inflight: config.max_inflight,
            },
            caches,
        );
        let output = Mutex::new(output);
        // One line per call, atomically, so emitter and reader output
        // never interleave mid-line.
        let write_line = |line: &str| -> std::io::Result<()> {
            let mut out = output.lock().expect("output poisoned");
            writeln!(out, "{line}")?;
            out.flush()
        };

        let config_json = config.echo_json();
        // Wall time of each streamed `solve`, mirroring the
        // scheduler's per-job histogram.
        let solve_latency = LatencyHistogram::new();
        // Streaming-session totals survive close_session, so a
        // drain-time `stats`/`metrics` report is complete.
        let mut lifetime = LifetimeCounters::default();
        let mut summary = ServiceSummary::default();
        let mut io_error: Option<std::io::Error> = None;
        // The final `done` line answers in the highest version any
        // request used; a pure-v1 session sees a byte-identical stream
        // to the pre-v2 protocol modulo the `"v":1` prefix.
        let mut stream_version = ProtoVersion::V1;
        // Version each job was submitted in, indexed by job id (the
        // reader is the sole submitter, so ids are dense and the entry
        // is pushed before the submit call that allocates the id).
        let job_versions: Mutex<Vec<ProtoVersion>> = Mutex::new(Vec::new());

        let reader_result = std::thread::scope(|scope| -> std::io::Result<()> {
            let emitter = scope.spawn(|| {
                let mut jobs: u64 = 0;
                let mut first_error: Option<std::io::Error> = None;
                while let Some(completion) = scheduler.next_ordered() {
                    jobs += 1;
                    if first_error.is_some() {
                        // The sink is gone; keep draining so submitters
                        // blocked on backpressure are not wedged.
                        continue;
                    }
                    let version = job_versions
                        .lock()
                        .expect("versions poisoned")
                        .get(completion.id as usize)
                        .copied()
                        .unwrap_or_default();
                    if let Err(e) = write_line(&proto::result_line(&completion, version)) {
                        first_error = Some(e);
                    }
                }
                (jobs, first_error)
            });

            // Session-verb failures are structured v2 errors (the verbs
            // only parse under `"v":2`).
            let reject = |errors: &mut u64, code: ErrorCode, message: String| {
                *errors += 1;
                write_line(&proto::error_line(&RequestError::new(
                    code,
                    message,
                    ProtoVersion::V2,
                )))
            };

            // Cache counters assembled identically for `stats` and
            // `metrics` lines.
            let collect_caches = |active: &Option<StreamState>| -> CacheCounters {
                let caches = scheduler.caches();
                CacheCounters {
                    model: (caches.model.stats().hits, caches.model.stats().misses),
                    verdicts: (caches.verdicts.hits(), caches.verdicts.misses()),
                    dfa: dfa_tables
                        .as_ref()
                        .map(|t| (t.hits(), t.misses()))
                        .unwrap_or_default(),
                    bytes: (caches.model.bytes() as u64, caches.verdicts.bytes() as u64),
                    evictions: (caches.model.evictions(), caches.verdicts.evictions()),
                    session: active.as_ref().map(|stream| {
                        let stats = stream.flips.session_stats();
                        SessionCounters {
                            id: stream.id,
                            depth: stream.flips.depth() as u64,
                            solves: stats.solves,
                            prefix_reuse_hits: stats.prefix_reuse_hits,
                        }
                    }),
                }
            };
            // Lifetime totals including the still-open session's
            // contribution (which close_session would fold in later).
            let lifetime_view =
                |lifetime: &LifetimeCounters, active: &Option<StreamState>| -> LifetimeCounters {
                    let mut view = *lifetime;
                    if let Some(stream) = active {
                        let stats = stream.flips.session_stats();
                        view.solves += stats.solves;
                        view.prefix_reuse_hits += stats.prefix_reuse_hits;
                    }
                    view
                };

            // The reader loop runs inside a closure so an I/O error (a
            // dropped socket, a broken pipe on a status/ack write) cannot
            // `?` past the `close()` below — the emitter only exits once
            // the session is closed, and the scope joins it either way.
            let reader = (|| -> std::io::Result<()> {
                let mut active: Option<StreamState> = None;
                let mut next_session_id: u64 = 0;
                let mut next_explore_id: u64 = 0;
                let mut input = input;
                let mut line_buf = LineBuffer::new();
                loop {
                    let line = match next_line(&mut input, &mut line_buf, config.max_line_bytes)? {
                        LineEvent::Eof => break,
                        LineEvent::TimedOut => {
                            // Socket transports wake the reader
                            // periodically so a drain is noticed even
                            // while the peer is idle.
                            if self.server.as_ref().is_some_and(|s| s.draining()) {
                                write_line(&proto::error_line(&RequestError::new(
                                    ErrorCode::Draining,
                                    "server draining; closing after in-flight work",
                                    stream_version,
                                )))?;
                                break;
                            }
                            continue;
                        }
                        LineEvent::Oversized { dropped } => {
                            summary.request_errors += 1;
                            write_line(&proto::error_line(&RequestError::new(
                                ErrorCode::BadRequest,
                                format!(
                                    "line exceeds the {}-byte limit ({dropped} bytes dropped)",
                                    config.max_line_bytes
                                ),
                                stream_version,
                            )))?;
                            continue;
                        }
                        LineEvent::Line(line) => line,
                    };
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    let (request, version) = match proto::parse_request(line) {
                        Err(error) => {
                            summary.request_errors += 1;
                            write_line(&proto::error_line(&error))?;
                            continue;
                        }
                        Ok(parsed) => parsed,
                    };
                    if version == ProtoVersion::V2 {
                        stream_version = ProtoVersion::V2;
                    }
                    match request {
                        Request::Submit(submit) => {
                            if config.load_shed && scheduler.at_capacity() {
                                summary.request_errors += 1;
                                write_line(&proto::error_line(&RequestError::new(
                                    ErrorCode::Overloaded,
                                    format!(
                                        "{} jobs in flight; submission shed — retry later",
                                        config.max_inflight
                                    ),
                                    version,
                                )))?;
                                continue;
                            }
                            // The reader is the only submitter, so the next
                            // id is stable between this read and the
                            // submit call.
                            let next_id = scheduler.progress().submitted;
                            let name = submit
                                .name
                                .clone()
                                .unwrap_or_else(|| format!("job{next_id}"));
                            job_versions
                                .lock()
                                .expect("versions poisoned")
                                .push(version);
                            let id = match job_from_submit(&submit, &name, &config.engine) {
                                Ok(job) => scheduler.submit(job),
                                Err(error) => scheduler.submit_rejected(&name, error),
                            };
                            if submit.ack {
                                write_line(&proto::accepted_line(id, &name, version))?;
                            }
                        }
                        Request::Status => {
                            write_line(&proto::status_line(
                                &scheduler.progress(),
                                scheduler.workers(),
                                version,
                            ))?;
                        }
                        Request::Stats => {
                            write_line(&proto::stats_line(
                                &collect_caches(&active),
                                &scheduler.shard_stats(),
                                &lifetime_view(&lifetime, &active),
                                &config_json,
                                version,
                            ))?;
                        }
                        Request::Metrics => {
                            let progress = scheduler.progress();
                            let report = proto::MetricsReport {
                                workers: scheduler.workers(),
                                jobs: progress.drained,
                                request_errors: summary.request_errors,
                                job_latency: scheduler.latency(),
                                solve_latency: solve_latency.snapshot(),
                                progress,
                                caches: &collect_caches(&active),
                                shards: &scheduler.shard_stats(),
                                lifetime: lifetime_view(&lifetime, &active),
                                server: self.server.as_ref().map(|s| s.admission_counters()),
                                config_json: &config_json,
                            };
                            write_line(&proto::metrics_line(&report, version))?;
                        }
                        Request::Shutdown => break,
                        Request::OpenSession(open) => {
                            if active.is_some() {
                                reject(
                                    &mut summary.request_errors,
                                    ErrorCode::SessionOpen,
                                    "a streaming session is already open on this connection \
                                     (close_session first)"
                                        .to_string(),
                                )?;
                                continue;
                            }
                            let id = next_session_id;
                            next_session_id += 1;
                            let name = open.name.clone().unwrap_or_else(|| format!("session{id}"));
                            let support = open.support.unwrap_or(config.engine.support);
                            // A tenant may lower (never raise) the
                            // service's depth cap for this session.
                            let max_depth = open.max_depth.map_or(config.max_session_depth, |d| {
                                d.min(config.max_session_depth)
                            });
                            let flips = TraceFlipSession::new(
                                support,
                                &stream_solver,
                                config.engine.refinement_limit,
                                &config.engine.build,
                                &stream_caches,
                            )
                            .retractable()
                            .with_inputs_used(open.inputs_used);
                            lifetime.sessions_opened += 1;
                            active = Some(StreamState {
                                id,
                                max_depth,
                                events: Vec::new(),
                                flips,
                            });
                            write_line(&proto::session_opened_line(id, &name))?;
                        }
                        Request::Push(push) => {
                            let Some(stream) = active.as_mut() else {
                                reject(
                                    &mut summary.request_errors,
                                    ErrorCode::NoSession,
                                    "push requires an open session (send open_session first)"
                                        .to_string(),
                                )?;
                                continue;
                            };
                            if stream.flips.depth() >= stream.max_depth {
                                reject(
                                    &mut summary.request_errors,
                                    ErrorCode::DepthLimit,
                                    format!("session depth limit {} reached", stream.max_depth),
                                )?;
                                continue;
                            }
                            // Validate every event reference before
                            // touching session state, so a rejected push
                            // leaves the stack and table untouched.
                            let PushRequest {
                                events,
                                cond,
                                taken,
                            } = *push;
                            let base = stream.events.len();
                            let total = base + events.len();
                            let mut invalid = None;
                            for (i, event) in events.iter().enumerate() {
                                match wire::max_referenced_event(&event.subject) {
                                    // An event subject may reference only
                                    // strictly earlier events.
                                    Some(max) if max >= base + i => {
                                        invalid = Some(format!(
                                            "event {} references event {max}, which is not \
                                             defined before it",
                                            base + i
                                        ));
                                        break;
                                    }
                                    _ => {}
                                }
                            }
                            if invalid.is_none() {
                                if let Some(max) = wire::max_referenced_event(&cond) {
                                    if max >= total {
                                        invalid = Some(format!(
                                            "cond references event {max}, but the session \
                                             defines {total}"
                                        ));
                                    }
                                }
                            }
                            if let Some(message) = invalid {
                                reject(&mut summary.request_errors, ErrorCode::BadEvent, message)?;
                                continue;
                            }
                            stream.events.extend(events);
                            stream.flips.push_clause(&stream.events, &cond, taken);
                            write_line(&proto::pushed_line(stream.id, stream.flips.depth()))?;
                        }
                        Request::Pop => {
                            let Some(stream) = active.as_mut() else {
                                reject(
                                    &mut summary.request_errors,
                                    ErrorCode::NoSession,
                                    "pop requires an open session".to_string(),
                                )?;
                                continue;
                            };
                            if !stream.flips.pop_clause() {
                                reject(
                                    &mut summary.request_errors,
                                    ErrorCode::BadDepth,
                                    "pop at depth 0".to_string(),
                                )?;
                                continue;
                            }
                            write_line(&proto::popped_line(stream.id, stream.flips.depth()))?;
                        }
                        Request::Solve { depth } => {
                            let Some(stream) = active.as_ref() else {
                                reject(
                                    &mut summary.request_errors,
                                    ErrorCode::NoSession,
                                    "solve requires an open session".to_string(),
                                )?;
                                continue;
                            };
                            if depth >= stream.flips.depth() {
                                reject(
                                    &mut summary.request_errors,
                                    ErrorCode::BadDepth,
                                    format!(
                                        "solve depth {depth} out of range (session depth {})",
                                        stream.flips.depth()
                                    ),
                                )?;
                                continue;
                            }
                            let started = Instant::now();
                            let result = stream.flips.solve(depth);
                            solve_latency.record(started.elapsed());
                            write_line(&proto::solved_line(stream.id, depth, &result))?;
                        }
                        Request::CloseSession => {
                            let Some(stream) = active.take() else {
                                reject(
                                    &mut summary.request_errors,
                                    ErrorCode::NoSession,
                                    "close_session requires an open session".to_string(),
                                )?;
                                continue;
                            };
                            let stats = stream.flips.session_stats();
                            lifetime.sessions_closed += 1;
                            lifetime.solves += stats.solves;
                            lifetime.prefix_reuse_hits += stats.prefix_reuse_hits;
                            write_line(&proto::session_closed_line(
                                stream.id,
                                stream.flips.depth(),
                                stats,
                            ))?;
                        }
                        Request::Explore(explore) => {
                            // Exploration runs synchronously on the
                            // reader thread (like streamed solves) with
                            // the connection's shared cache set, so its
                            // progress lines stay ordered with the
                            // requests and the stream is deterministic
                            // at any worker count.
                            let id = next_explore_id;
                            next_explore_id += 1;
                            let name = explore
                                .name
                                .clone()
                                .unwrap_or_else(|| format!("explore{id}"));
                            let program = match parse_program(&explore.program) {
                                Ok(program) => program,
                                Err(e) => {
                                    write_line(&proto::explore_error_line(
                                        id,
                                        &name,
                                        &format!("parse: {e}"),
                                    ))?;
                                    continue;
                                }
                            };
                            let harness = match explore.harness {
                                HarnessKind::Strings => {
                                    Harness::strings(&explore.entry, explore.arity)
                                }
                                HarnessKind::StringArray => {
                                    Harness::string_array(&explore.entry, explore.arity)
                                }
                            };
                            let explore_config = explore_config_for(&explore, &config.engine);
                            let mut stream_error: Option<std::io::Error> = None;
                            let report = explore_observed(
                                &program,
                                &harness,
                                &explore_config,
                                &stream_caches,
                                &mut |progress| {
                                    if stream_error.is_none() {
                                        if let Err(e) =
                                            write_line(&proto::explore_progress_line(id, progress))
                                        {
                                            stream_error = Some(e);
                                        }
                                    }
                                },
                            );
                            if let Some(e) = stream_error {
                                return Err(e);
                            }
                            write_line(&proto::explore_result_line(id, &name, &report))?;
                        }
                    }
                }
                Ok(())
            })();

            scheduler.close();
            let (jobs, emit_error) = emitter.join().expect("emitter panicked");
            summary.jobs = jobs;
            io_error = emit_error;
            reader
        });

        reader_result?;
        if self.metrics_text {
            let progress = scheduler.progress();
            let job_latency = scheduler.latency();
            let solve = solve_latency.snapshot();
            let caches = scheduler.caches();
            eprintln!(
                "metrics: jobs={} request_errors={} sessions={}/{} solves={} prefix_reuse={}",
                summary.jobs,
                summary.request_errors,
                lifetime.sessions_opened,
                lifetime.sessions_closed,
                lifetime.solves,
                lifetime.prefix_reuse_hits,
            );
            eprintln!(
                "metrics: scheduler workers={} submitted={} drained={} queued={} \
                 job_p50_ms={:.3} job_p99_ms={:.3} job_max_ms={:.3}",
                scheduler.workers(),
                progress.submitted,
                progress.drained,
                progress.queued,
                job_latency.p50_ms(),
                job_latency.p99_ms(),
                job_latency.max_ms(),
            );
            eprintln!(
                "metrics: solve count={} p50_ms={:.3} p99_ms={:.3} cache_bytes=[{},{}] \
                 cache_evictions=[{},{}]",
                solve.count,
                solve.p50_ms(),
                solve.p99_ms(),
                caches.model.bytes(),
                caches.verdicts.bytes(),
                caches.model.evictions(),
                caches.verdicts.evictions(),
            );
        }
        if let Some(error) = io_error {
            return Err(error);
        }
        write_line(&proto::done_line(summary.jobs, stream_version))?;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_lines(lines: &str, config: &ServiceConfig) -> (Vec<String>, ServiceSummary) {
        let mut out: Vec<u8> = Vec::new();
        let summary = ServeOptions::new()
            .config(config.clone())
            .serve(lines.as_bytes(), &mut out)
            .expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        (text.lines().map(str::to_string).collect(), summary)
    }

    fn quick_config(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            engine: EngineConfig {
                max_executions: 6,
                ..EngineConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submits_stream_results_in_order() {
        let input = concat!(
            r#"{"type":"submit","name":"a","program":"function f(x) { if (x === \"k\") { return 1; } return 0; }"}"#,
            "\n",
            r#"{"type":"submit","name":"b","program":"function f(x) { return 0; }"}"#,
            "\n",
            r#"{"type":"shutdown"}"#,
            "\n",
        );
        let (lines, summary) = run_lines(input, &quick_config(2));
        assert_eq!(summary.jobs, 2);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].starts_with(r#"{"v":1,"type":"result","job":0,"name":"a""#));
        assert!(lines[1].starts_with(r#"{"v":1,"type":"result","job":1,"name":"b""#));
        assert_eq!(lines[2], r#"{"v":1,"type":"done","jobs":2}"#);
    }

    #[test]
    fn parse_failures_hold_their_slot() {
        let input = concat!(
            r#"{"type":"submit","name":"bad","program":"function f(x) { if ("}"#,
            "\n",
            r#"{"type":"submit","name":"good","program":"function f(x) { return 0; }"}"#,
            "\n",
        );
        let (lines, summary) = run_lines(input, &quick_config(2));
        assert_eq!(summary.jobs, 2);
        assert!(
            lines[0].contains(r#""job":0,"name":"bad","error":"parse:"#),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains(r#""job":1,"name":"good""#));
    }

    #[test]
    fn malformed_requests_get_error_lines() {
        let input = "this is not json\n{\"type\":\"status\"}\n";
        let (lines, summary) = run_lines(input, &quick_config(1));
        assert_eq!(summary.request_errors, 1);
        assert!(
            lines[0].starts_with(r#"{"v":1,"type":"error","code":"malformed_json""#),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with(r#"{"v":1,"type":"status""#),
            "{}",
            lines[1]
        );
        assert_eq!(lines[2], r#"{"v":1,"type":"done","jobs":0}"#);
    }

    #[test]
    fn reader_io_error_ends_the_session_instead_of_hanging() {
        // A sink that dies immediately: the first write (the error
        // line for the malformed request) fails. serve() must close
        // the scheduler and return the error — before the fix the
        // reader error skipped `close()` and the scope deadlocked
        // joining the emitter.
        struct DeadSink;
        impl std::io::Write for DeadSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let input = "not json\n{\"type\":\"submit\",\"program\":\"function f(x) { return 0; }\"}\n";
        let result = ServeOptions::new()
            .config(quick_config(2))
            .serve(input.as_bytes(), DeadSink);
        let error = result.expect_err("dead sink must surface as an error");
        assert_eq!(error.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn session_support_default_applies_when_submit_omits_it() {
        use expose_core::SupportLevel;
        let defaults = EngineConfig {
            support: SupportLevel::Concrete,
            ..EngineConfig::default()
        };
        let line = r#"{"type":"submit","program":"function f(x) { return 0; }"}"#;
        let (request, _) = crate::proto::parse_request(line).expect("parses");
        let crate::proto::Request::Submit(submit) = request else {
            panic!("submit");
        };
        let job = job_from_submit(&submit, "j", &defaults).expect("parses");
        assert_eq!(job.config.support, SupportLevel::Concrete);

        let line =
            r#"{"type":"submit","program":"function f(x) { return 0; }","support":"modeling"}"#;
        let (request, _) = crate::proto::parse_request(line).expect("parses");
        let crate::proto::Request::Submit(submit) = request else {
            panic!("submit");
        };
        let job = job_from_submit(&submit, "j", &defaults).expect("parses");
        assert_eq!(job.config.support, SupportLevel::Modeling);
    }

    #[test]
    fn cache_set_carries_byte_budgets() {
        let config = ServiceConfig::default().cache_bytes(2048);
        let caches = config.cache_set();
        assert_eq!(caches.model.byte_budget(), 2048);
        assert_eq!(caches.verdicts.byte_budget(), 2048);
        // Entry capacities follow the engine configuration.
        assert_eq!(
            caches.verdicts.capacity(),
            config.engine.query_cache_capacity
        );
        // The defaults are bounded, not unlimited.
        let defaults = ServiceConfig::default().cache_set();
        assert!(defaults.model.byte_budget() > 0);
        assert!(defaults.verdicts.byte_budget() > 0);
    }

    #[test]
    fn stats_and_ack_lines_render() {
        let input = concat!(
            r#"{"type":"submit","name":"a","ack":true,"program":"function f(x) { return 0; }"}"#,
            "\n",
            r#"{"type":"stats"}"#,
            "\n",
        );
        let (lines, _) = run_lines(input, &quick_config(1));
        assert_eq!(lines[0], r#"{"v":1,"type":"accepted","job":0,"name":"a"}"#);
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with(r#"{"v":1,"type":"stats""#)),
            "{lines:?}"
        );
    }

    #[test]
    fn response_versions_follow_the_request() {
        let input = concat!(
            r#"{"type":"submit","name":"a","program":"function f(x) { return 0; }"}"#,
            "\n",
            r#"{"v":2,"type":"submit","name":"b","program":"function f(x) { return 0; }"}"#,
            "\n",
        );
        let (lines, summary) = run_lines(input, &quick_config(1));
        assert_eq!(summary.jobs, 2);
        assert!(
            lines[0].starts_with(r#"{"v":1,"type":"result","job":0"#),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with(r#"{"v":2,"type":"result","job":1"#),
            "{}",
            lines[1]
        );
        // The done line answers in the highest version the stream used.
        assert_eq!(lines[2], r#"{"v":2,"type":"done","jobs":2}"#);
    }

    #[test]
    fn session_misuse_yields_structured_errors() {
        let input = concat!(
            r#"{"v":2,"type":"pop"}"#,
            "\n",
            r#"{"v":2,"type":"open_session","name":"s"}"#,
            "\n",
            r#"{"v":2,"type":"open_session","name":"t"}"#,
            "\n",
            r#"{"v":2,"type":"pop"}"#,
            "\n",
            r#"{"v":2,"type":"solve","depth":0}"#,
            "\n",
            r#"{"v":2,"type":"push","cond":["test",3],"taken":true}"#,
            "\n",
            r#"{"v":2,"type":"close_session"}"#,
            "\n",
            r#"{"v":2,"type":"close_session"}"#,
            "\n",
        );
        let (lines, summary) = run_lines(input, &quick_config(1));
        assert_eq!(summary.jobs, 0);
        assert_eq!(summary.request_errors, 6);
        assert!(lines[0].contains(r#""code":"no_session""#), "{}", lines[0]);
        assert_eq!(
            lines[1],
            r#"{"v":2,"type":"session_opened","session":0,"name":"s"}"#
        );
        assert!(
            lines[2].contains(r#""code":"session_open""#),
            "{}",
            lines[2]
        );
        assert!(lines[3].contains(r#""code":"bad_depth""#), "{}", lines[3]);
        assert!(lines[4].contains(r#""code":"bad_depth""#), "{}", lines[4]);
        assert!(lines[5].contains(r#""code":"bad_event""#), "{}", lines[5]);
        assert!(
            lines[6].starts_with(r#"{"v":2,"type":"session_closed","session":0,"depth":0"#),
            "{}",
            lines[6]
        );
        assert!(lines[7].contains(r#""code":"no_session""#), "{}", lines[7]);
    }

    #[test]
    fn streamed_session_solves_and_reports_stats() {
        // Push `/^a+$/.test(in0)` taken=true, flip it at depth 0: the
        // flipped query asks for a subject *not* matching ^a+$, which
        // is satisfiable.
        let input = concat!(
            r#"{"v":2,"type":"open_session","name":"t","inputs_used":1}"#,
            "\n",
            r#"{"v":2,"type":"push","events":[{"regex":"^a+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
            "\n",
            r#"{"v":2,"type":"solve","depth":0}"#,
            "\n",
            r#"{"v":2,"type":"stats"}"#,
            "\n",
            r#"{"v":2,"type":"close_session"}"#,
            "\n",
        );
        let (lines, summary) = run_lines(input, &quick_config(1));
        assert_eq!(summary.request_errors, 0, "{lines:?}");
        assert_eq!(lines[1], r#"{"v":2,"type":"pushed","session":0,"depth":1}"#);
        assert!(
            lines[2].starts_with(r#"{"v":2,"type":"solved","session":0,"depth":0,"sat":true"#),
            "{}",
            lines[2]
        );
        let stats = &lines[3];
        assert!(
            stats.contains(r#""session":{"id":0,"depth":1,"solves":"#),
            "{stats}"
        );
        assert!(
            lines[4].starts_with(r#"{"v":2,"type":"session_closed","session":0,"depth":1"#),
            "{}",
            lines[4]
        );
    }

    #[test]
    fn explore_streams_progress_and_result() {
        let input = concat!(
            r#"{"v":2,"type":"explore","name":"e0","iterations":4,"program":"function f(x) { if (/^[a-z]+$/.test(x)) { if (x === \"deep\") { return 2; } return 1; } return 0; }"}"#,
            "\n",
            r#"{"v":2,"type":"explore","name":"bad","program":"function f(x) { if ("}"#,
            "\n",
        );
        let (lines, summary) = run_lines(input, &quick_config(1));
        assert_eq!(summary.request_errors, 0, "{lines:?}");
        let progress: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains(r#""type":"explore_progress""#))
            .collect();
        // One line per iteration; the loop may exhaust its frontier
        // before the 4-iteration budget.
        assert!(
            (2..=4).contains(&progress.len()),
            "{} progress lines: {lines:?}",
            progress.len()
        );
        assert!(
            progress[0]
                .starts_with(r#"{"v":2,"type":"explore_progress","explore":0,"iteration":1"#),
            "{}",
            progress[0]
        );
        let result = lines
            .iter()
            .find(|l| l.contains(r#""type":"explore_result","explore":0"#))
            .expect("result line");
        assert!(result.contains(r#""name":"e0""#), "{result}");
        assert!(result.contains(r#""stopped":""#), "{result}");
        assert!(result.contains(r#""corpus_digest":""#), "{result}");
        // The parse failure still yields a terminal explore_result.
        let failed = lines
            .iter()
            .find(|l| l.contains(r#""type":"explore_result","explore":1"#))
            .expect("error line");
        assert!(failed.contains(r#""error":"parse:"#), "{failed}");
    }

    #[test]
    fn explore_stream_is_flip_worker_invariant() {
        let input = concat!(
            r#"{"v":2,"type":"explore","name":"e","iterations":6,"program":"function f(x) { let m = /^<([a-z]+)>$/.exec(x); if (m) { if (m[1] === \"timeout\") { return 1; } return 2; } return 0; }"}"#,
            "\n",
        );
        let run_at = |flip_workers: usize| {
            let config = ServiceConfig {
                engine: EngineConfig {
                    flip_workers,
                    ..EngineConfig::default()
                },
                ..quick_config(1)
            };
            run_lines(input, &config).0
        };
        let serial = run_at(1);
        assert_eq!(serial, run_at(2));
        assert_eq!(serial, run_at(8));
    }

    #[test]
    fn metrics_line_reports_lifetime_and_config() {
        let input = concat!(
            r#"{"v":2,"type":"open_session","name":"s","inputs_used":1}"#,
            "\n",
            r#"{"v":2,"type":"push","events":[{"regex":"^a+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
            "\n",
            r#"{"v":2,"type":"solve","depth":0}"#,
            "\n",
            r#"{"v":2,"type":"close_session"}"#,
            "\n",
            r#"{"type":"submit","name":"a","program":"function f(x) { return 0; }"}"#,
            "\n",
            r#"{"v":2,"type":"metrics"}"#,
            "\n",
        );
        let (lines, summary) = run_lines(input, &quick_config(1));
        assert_eq!(summary.request_errors, 0, "{lines:?}");
        let metrics = lines
            .iter()
            .find(|l| l.contains(r#""type":"metrics""#))
            .expect("metrics line");
        assert!(
            metrics.starts_with(r#"{"v":2,"type":"metrics""#),
            "{metrics}"
        );
        // The closed session's solves survive in the lifetime totals.
        assert!(
            metrics.contains(r#""lifetime":{"sessions_opened":1,"sessions_closed":1,"solves":1"#),
            "{metrics}"
        );
        assert!(metrics.contains(r#""job_latency":{"count":"#), "{metrics}");
        assert!(
            metrics.contains(r#""solve_latency":{"count":1"#),
            "{metrics}"
        );
        assert!(metrics.contains(r#""queued":"#), "{metrics}");
        assert!(
            metrics.contains(r#""config":{"workers":1,"max_inflight":256"#),
            "{metrics}"
        );
        // No front-end: no server object.
        assert!(!metrics.contains(r#""server":"#), "{metrics}");
    }

    #[test]
    fn stats_echo_config_and_keep_lifetime_after_close() {
        let input = concat!(
            r#"{"v":2,"type":"open_session","name":"s","inputs_used":1}"#,
            "\n",
            r#"{"v":2,"type":"push","events":[{"regex":"^b+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#,
            "\n",
            r#"{"v":2,"type":"solve","depth":0}"#,
            "\n",
            r#"{"v":2,"type":"close_session"}"#,
            "\n",
            r#"{"v":2,"type":"stats"}"#,
            "\n",
        );
        let (lines, summary) = run_lines(input, &quick_config(1));
        assert_eq!(summary.request_errors, 0, "{lines:?}");
        let stats = lines
            .iter()
            .find(|l| l.contains(r#""type":"stats""#))
            .expect("stats line");
        // The session is closed (no "session" object), but its counters
        // survive in the lifetime totals.
        assert!(!stats.contains(r#""session":{"#), "{stats}");
        assert!(
            stats.contains(r#""lifetime":{"sessions_opened":1,"sessions_closed":1,"solves":1"#),
            "{stats}"
        );
        assert!(stats.contains(r#""config":{"workers":1"#), "{stats}");
    }

    #[test]
    fn open_session_max_depth_override_is_clamped() {
        let push =
            r#"{"v":2,"type":"push","events":[],"cond":["test",0],"taken":true}"#.to_string();
        // A session that lowers the cap to 1: the second push must be
        // rejected with depth_limit.
        let event_push = r#"{"v":2,"type":"push","events":[{"regex":"^a+$","flags":"","subject":["in",0]}],"cond":["test",0],"taken":true}"#;
        let input = format!(
            "{}\n{}\n{}\n",
            r#"{"v":2,"type":"open_session","name":"s","inputs_used":1,"max_depth":1}"#,
            event_push,
            push,
        );
        let (lines, summary) = run_lines(&input, &quick_config(1));
        assert_eq!(summary.request_errors, 1, "{lines:?}");
        assert!(lines[2].contains(r#""code":"depth_limit""#), "{}", lines[2]);
        assert!(lines[2].contains("depth limit 1"), "{}", lines[2]);
    }

    #[test]
    fn oversized_line_is_bad_request_not_fatal() {
        let config = ServiceConfig {
            max_line_bytes: 128,
            ..quick_config(1)
        };
        let long = format!(
            r#"{{"type":"submit","name":"big","program":"function f(x) {{ return {}; }}"}}"#,
            "\"x\"".repeat(200)
        );
        let input = format!("{long}\n{}\n", r#"{"type":"status"}"#);
        let (lines, summary) = run_lines(&input, &config);
        assert_eq!(summary.request_errors, 1);
        assert!(
            lines[0].contains(r#""code":"bad_request""#) && lines[0].contains("byte limit"),
            "{}",
            lines[0]
        );
        // The session keeps serving after the oversized line.
        assert!(lines[1].contains(r#""type":"status""#), "{}", lines[1]);
        assert_eq!(lines[2], r#"{"v":1,"type":"done","jobs":0}"#);
    }

    #[test]
    fn load_shed_answers_overloaded_at_the_inflight_bound() {
        // One worker, inflight bound 1, shedding on: the first submit
        // occupies the slot, and with the reader never draining until
        // close, later submits shed deterministically once the bound
        // is visibly reached. Use a slow job to hold the slot.
        let config = ServiceConfig {
            max_inflight: 1,
            load_shed: true,
            ..quick_config(1)
        };
        let slow = r#"{"type":"submit","name":"slow","program":"function f(x) { if (/^[a-z]+[0-9]+$/.test(x)) { return 1; } return 0; }"}"#;
        let input = format!("{slow}\n{slow}\n{slow}\n");
        let (lines, summary) = run_lines(&input, &config);
        // At least one later submit hit the bound and was shed; the
        // first always runs.
        let results = lines
            .iter()
            .filter(|l| l.contains(r#""type":"result""#))
            .count();
        let shed = lines
            .iter()
            .filter(|l| l.contains(r#""code":"overloaded""#))
            .count();
        assert_eq!(results + shed, 3, "{lines:?}");
        assert!(results >= 1, "{lines:?}");
        assert_eq!(summary.request_errors as usize, shed);
    }
}
