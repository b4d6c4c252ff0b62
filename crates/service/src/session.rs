//! One service session: the driver that pumps a transport's request
//! lines through a [`Connection`] and an emitter thread streaming
//! re-sequenced results.
//!
//! The reader (the calling thread) feeds each line to the connection
//! core, whose submits go to the scheduler;
//! [`expose_dse::sched::Scheduler::submit`] blocks when `max_inflight`
//! jobs are pending, so backpressure propagates to the input — the
//! session stops *reading* instead of buffering without bound. The
//! emitter thread drains completions in job-id order and writes one
//! `result` line per job as it lands; because the scheduler
//! re-sequences, the result stream is byte-identical for any worker
//! count.

use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};

use expose_dse::ast::Program;
use expose_dse::parser::parse_program;
use expose_dse::{CacheSet, EngineConfig, ExploreConfig, Harness, Job};

use crate::connection::{Backend, Connection, Flow};
use crate::proto::{self, ExploreRequest, HarnessKind, ProgramSpec, SubmitRequest};
use crate::server::ServerState;
use crate::transport::{next_line, LineBuffer};

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
             \"max_line_bytes\":{},\"max_session_depth\":{},\
             \"model_cache_capacity\":{},\"query_cache_capacity\":{},\
             \"dfa_table_capacity\":{},\"cache_byte_budget\":{},\"max_executions\":{},\
             \"max_steps\":{},\"max_flips\":{},\"flip_workers\":{},\"seed\":{}}}",
            self.workers,
            self.max_inflight,
            self.max_connections,
            self.max_line_bytes,
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

/// The engine configuration of one request: the service defaults plus
/// the overrides `submit` and `explore` share.
fn engine_for(spec: &ProgramSpec, defaults: &EngineConfig) -> EngineConfig {
    let mut config = defaults.clone();
    if let Some(support) = spec.support {
        config.support = support;
    }
    if let Some(n) = spec.max_steps {
        config.max_steps = n;
    }
    if let Some(n) = spec.max_flips {
        config.max_flips_per_trace = n;
    }
    if let Some(n) = spec.flip_workers {
        config.flip_workers = n;
    }
    config
}

/// Parses a request's program and builds its entry harness; the error
/// is the `parse: …` message of a failed `result` or `explore_result`.
pub(crate) fn program_and_harness(spec: &ProgramSpec) -> Result<(Program, Harness), String> {
    let program = parse_program(&spec.program).map_err(|e| format!("parse: {e}"))?;
    let harness = match spec.harness {
        HarnessKind::Strings => Harness::strings(&spec.entry, spec.arity),
        HarnessKind::StringArray => Harness::string_array(&spec.entry, spec.arity),
    };
    Ok((program, harness))
}

/// Converts a submission into a runnable job (the program must parse).
pub fn job_from_submit(
    submit: &SubmitRequest,
    name: &str,
    defaults: &EngineConfig,
) -> Result<Job, String> {
    let (program, harness) = program_and_harness(&submit.spec)?;
    let mut config = engine_for(&submit.spec, defaults);
    if let Some(n) = submit.max_executions {
        config.max_executions = n;
    }
    if let Some(n) = submit.seed {
        config.seed = n;
    }
    Ok(Job {
        name: name.to_string(),
        program,
        harness,
        config,
    })
}

/// Builds the exploration configuration of one `explore` request from
/// the service's engine defaults plus the request's overrides.
pub fn explore_config_for(request: &ExploreRequest, defaults: &EngineConfig) -> ExploreConfig {
    let mut config = ExploreConfig {
        engine: engine_for(&request.spec, defaults),
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

    /// Attaches the shared front-end state: the session checks its
    /// drain flag between reads (closing gracefully when the server
    /// drains) and reports its admission counters in `metrics` lines.
    pub fn server(mut self, state: Arc<ServerState>) -> ServeOptions {
        self.server = Some(state);
        self
    }

    /// Prints the session's final `metrics` line to stderr when it ends
    /// (the `--metrics-text` flag).
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
        mut input: R,
        output: W,
    ) -> std::io::Result<ServiceSummary> {
        let caches = self
            .caches
            .clone()
            .unwrap_or_else(|| self.config.cache_set());
        let backend = Backend::start(&self.config, caches);
        let mut connection = Connection::new(&backend, self.server.as_deref());
        let output = Mutex::new(output);
        // One line per call, atomically, so emitter and reader output
        // never interleave mid-line.
        let write_line = |line: &str| -> std::io::Result<()> {
            let mut out = output.lock().expect("output poisoned");
            writeln!(out, "{line}")?;
            out.flush()
        };

        let (reader, (jobs, emit_error)) = std::thread::scope(|scope| {
            let emitter = scope.spawn(|| {
                let mut jobs: u64 = 0;
                let mut first_error: Option<std::io::Error> = None;
                while let Some(line) = backend.next_result_line() {
                    jobs += 1;
                    // Once the sink is gone, keep draining so submitters
                    // blocked on backpressure are not wedged.
                    if first_error.is_none() {
                        first_error = write_line(&line).err();
                    }
                }
                (jobs, first_error)
            });
            // The reader loop runs inside a closure so an I/O error (a
            // dropped socket, a broken pipe) cannot `?` past the
            // `close()` below — the emitter only exits once the backend
            // is closed, and the scope joins it either way.
            let reader = (|| -> std::io::Result<()> {
                let mut buffer = LineBuffer::new();
                loop {
                    let event = next_line(&mut input, &mut buffer, self.config.max_line_bytes)?;
                    let mut write_error = None;
                    let flow = connection.handle(event, &mut |line| {
                        if write_error.is_none() {
                            write_error = write_line(line).err();
                        }
                    });
                    if let Some(error) = write_error {
                        return Err(error);
                    }
                    if flow == Flow::Close {
                        return Ok(());
                    }
                }
            })();
            backend.close();
            (reader, emitter.join().expect("emitter panicked"))
        });

        reader?;
        if self.metrics_text {
            let snapshot = connection.snapshot();
            eprintln!("{}", proto::metrics_line(&snapshot, connection.version()));
        }
        if let Some(error) = emit_error {
            return Err(error);
        }
        write_line(&proto::done_line(jobs, connection.version()))?;
        Ok(ServiceSummary {
            jobs,
            request_errors: connection.request_errors(),
        })
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
        assert_eq!(caches.model.stats().byte_budget, 2048);
        assert_eq!(caches.verdicts.stats().byte_budget, 2048);
        // Entry capacities follow the engine configuration.
        assert_eq!(
            caches.verdicts.stats().capacity,
            config.engine.query_cache_capacity
        );
        // The defaults are bounded, not unlimited.
        let defaults = ServiceConfig::default().cache_set();
        assert!(defaults.model.stats().byte_budget > 0);
        assert!(defaults.verdicts.stats().byte_budget > 0);
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
    fn metrics_line_counts_cache_traffic() {
        // Two identical regex submits drain on one connection; a second
        // connection sharing the cache set then reads the counters.
        let config = quick_config(1);
        let options = ServeOptions::new()
            .config(config.clone())
            .caches(config.cache_set());
        let submit = r#"{"type":"submit","name":"a","program":"function f(x) { if (/^(a+)b$/.test(x)) { return 1; } return 0; }"}"#;
        options
            .serve(format!("{submit}\n{submit}\n").as_bytes(), std::io::sink())
            .expect("serve");
        let mut out: Vec<u8> = Vec::new();
        options
            .serve(&b"{\"v\":2,\"type\":\"metrics\"}\n"[..], &mut out)
            .expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let line = text.lines().next().expect("metrics line");
        let metrics = crate::json::parse(line).expect("json");
        let pair = |key: &str| -> (u64, u64) {
            match metrics.get(key) {
                Some(crate::json::Value::Arr(items)) if items.len() == 2 => (
                    items[0].as_u64().expect("count"),
                    items[1].as_u64().expect("count"),
                ),
                other => panic!("{key}: {other:?} in {line}"),
            }
        };
        for key in ["model_cache", "verdict_cache", "dfa_tables"] {
            let (hits, misses) = pair(key);
            assert!(hits > 0 && misses > 0, "{key} in {line}");
        }
        let (model_bytes, verdict_bytes) = pair("cache_bytes");
        assert!(model_bytes > 0 && verdict_bytes > 0, "{line}");
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
}
