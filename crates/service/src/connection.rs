//! The connection core: a thread-free state machine that turns one
//! request line into that request's response lines.
//!
//! [`Connection`] owns all per-connection protocol state — the open
//! streaming session, lifetime counters, the stream's protocol version,
//! session and explore ids, the `solve` latency histogram and the
//! request-error count — and does no I/O of its own: every response
//! line goes to the caller's sink. Transports only drive it
//! ([`crate::ServeOptions::serve`] pumps lines from any reader), and a
//! test or fuzzer can drive it directly.
//!
//! Submitted jobs go to the [`Backend`]'s scheduler; their `result`
//! lines come back out of [`Backend::next_result_line`], re-sequenced by
//! job id, on whichever thread drains them. Protocol-v2 streaming
//! sessions (`open_session`/`push`/`pop`/`solve`/`close_session`) and
//! `explore` run synchronously inside [`Connection::handle`]: each
//! connection holds at most one live [`TraceFlipSession`] whose
//! assumption stack grows clause by clause, sharing the scheduler's warm
//! [`CacheSet`] (model/verdict/DFA layers) with batch jobs, so a flip
//! solved for a submitted program warms the streamed session and vice
//! versa. Their responses are ordered with the requests, which keeps
//! them deterministic for any worker count.

use std::sync::Mutex;
use std::time::Instant;

use expose_dse::sched::{LatencyHistogram, Scheduler, SchedulerConfig};
use expose_dse::sym::RegexEvent;
use expose_dse::{build_solver, explore_observed, CacheSet, TraceFlipSession};
use strsolve::{DfaTables, Solver};

use crate::proto::{
    self, CacheCounters, ErrorCode, ExploreRequest, LifetimeCounters, MetricsReport,
    OpenSessionRequest, ProtoVersion, PushRequest, Request, RequestError, SessionCounters,
    SubmitRequest,
};
use crate::server::ServerState;
use crate::session::{explore_config_for, job_from_submit, program_and_harness, ServiceConfig};
use crate::transport::LineEvent;
use crate::wire;

/// What one connection runs on: the scheduler its submits feed, the
/// solver its streaming sessions clone, and the protocol version each
/// job was submitted in. The driver shares it between the
/// [`Connection`] and the thread draining [`Backend::next_result_line`].
pub struct Backend {
    config: ServiceConfig,
    config_json: String,
    scheduler: Scheduler,
    solver: Solver,
    /// Version of each job, indexed by job id (the connection is the
    /// sole submitter, so ids are dense and the entry is pushed before
    /// the submit call that allocates the id).
    versions: Mutex<Vec<ProtoVersion>>,
}

impl Backend {
    /// Starts the scheduler of one connection over `caches`; streaming
    /// sessions and explores share the same cache set.
    pub fn start(config: &ServiceConfig, caches: CacheSet) -> Backend {
        Backend {
            config: config.clone(),
            config_json: config.echo_json(),
            solver: build_solver(&config.engine, &caches),
            scheduler: Scheduler::start(
                SchedulerConfig {
                    workers: config.workers,
                    max_inflight: config.max_inflight,
                },
                caches,
            ),
            versions: Mutex::default(),
        }
    }

    /// Blocks for the next job completion in id order and renders its
    /// `result` line; `None` once [`Backend::close`] was called and
    /// every job drained.
    pub fn next_result_line(&self) -> Option<String> {
        let completion = self.scheduler.next_ordered()?;
        let version = self
            .versions
            .lock()
            .expect("versions poisoned")
            .get(completion.id as usize)
            .copied()
            .unwrap_or_default();
        Some(proto::result_line(&completion, version))
    }

    /// Accepts no further jobs; the result stream ends once the queued
    /// ones drain.
    pub fn close(&self) {
        self.scheduler.close();
    }
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

/// Whether the connection keeps reading after a [`Connection::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Read the next line.
    Continue,
    /// The input ended, a `shutdown` arrived, or the server drains:
    /// stop reading and finish the stream.
    Close,
}

/// What one request line produced, before error rendering.
enum Reply {
    Silent,
    Line(String),
    Close,
}

/// The per-connection protocol state machine. See the module docs.
pub struct Connection<'a> {
    backend: &'a Backend,
    server: Option<&'a ServerState>,
    /// The highest version any request used — the `done` line's.
    version: ProtoVersion,
    active: Option<StreamState<'a>>,
    /// Streaming-session totals; they survive `close_session`, so a
    /// drain-time `stats`/`metrics` report is complete.
    lifetime: LifetimeCounters,
    next_session_id: u64,
    next_explore_id: u64,
    /// Wall time of each streamed `solve`, mirroring the scheduler's
    /// per-job histogram.
    solve_latency: LatencyHistogram,
    request_errors: u64,
}

/// A session-verb failure; those verbs only parse under `"v":2`.
fn session_error(code: ErrorCode, message: impl Into<String>) -> RequestError {
    RequestError::new(code, message, ProtoVersion::V2)
}

impl<'a> Connection<'a> {
    /// A fresh connection over `backend`. Under a multi-connection
    /// front-end, `server` supplies the drain flag (checked whenever
    /// the transport's read times out) and the admission counters of
    /// `metrics` lines.
    pub fn new(backend: &'a Backend, server: Option<&'a ServerState>) -> Connection<'a> {
        Connection {
            backend,
            server,
            version: ProtoVersion::V1,
            active: None,
            lifetime: LifetimeCounters::default(),
            next_session_id: 0,
            next_explore_id: 0,
            solve_latency: LatencyHistogram::new(),
            request_errors: 0,
        }
    }

    /// The highest protocol version the stream used so far: a pure-v1
    /// stream ends with a v1 `done` line.
    pub fn version(&self) -> ProtoVersion {
        self.version
    }

    /// Requests answered with an `error` line so far.
    pub fn request_errors(&self) -> u64 {
        self.request_errors
    }

    /// Handles one transport event, passing each response line to
    /// `emit` in order (`explore` emits its progress lines while it
    /// runs). Failed requests answer with exactly one `error` line.
    pub fn handle(&mut self, event: LineEvent, emit: &mut dyn FnMut(&str)) -> Flow {
        let reply = match event {
            LineEvent::Eof => return Flow::Close,
            // Socket transports time out reads periodically so a drain
            // is noticed even while the peer is idle.
            LineEvent::TimedOut if self.server.is_some_and(ServerState::draining) => {
                emit(&proto::error_line(&RequestError::new(
                    ErrorCode::Draining,
                    "server draining; closing after in-flight work",
                    self.version,
                )));
                return Flow::Close;
            }
            LineEvent::TimedOut => return Flow::Continue,
            LineEvent::Oversized { dropped } => Err(RequestError::new(
                ErrorCode::BadRequest,
                format!(
                    "line exceeds the {}-byte limit ({dropped} bytes dropped)",
                    self.backend.config.max_line_bytes
                ),
                self.version,
            )),
            LineEvent::Line(line) => self.request(line.trim(), emit),
        };
        match reply {
            Ok(Reply::Silent) => {}
            Ok(Reply::Line(line)) => emit(&line),
            Ok(Reply::Close) => return Flow::Close,
            Err(error) => {
                self.request_errors += 1;
                emit(&proto::error_line(&error));
            }
        }
        Flow::Continue
    }

    fn request(&mut self, line: &str, emit: &mut dyn FnMut(&str)) -> Result<Reply, RequestError> {
        if line.is_empty() {
            return Ok(Reply::Silent);
        }
        let (request, version) = proto::parse_request(line)?;
        if version == ProtoVersion::V2 {
            self.version = ProtoVersion::V2;
        }
        let scheduler = &self.backend.scheduler;
        let line = match request {
            Request::Submit(submit) => {
                return Ok(self
                    .submit(&submit, version)
                    .map_or(Reply::Silent, Reply::Line))
            }
            Request::Shutdown => return Ok(Reply::Close),
            Request::Status => {
                proto::status_line(&scheduler.progress(), scheduler.workers(), version)
            }
            Request::Stats => proto::stats_line(&self.snapshot(), version),
            Request::Metrics => proto::metrics_line(&self.snapshot(), version),
            Request::OpenSession(open) => self.open_session(&open)?,
            Request::Push(push) => self.push(*push)?,
            Request::Pop => self.pop()?,
            Request::Solve { depth } => self.solve(depth)?,
            Request::CloseSession => self.close_session()?,
            Request::Explore(explore) => self.explore(&explore, emit),
        };
        Ok(Reply::Line(line))
    }

    /// Queues one job (a program that fails to parse still takes its
    /// slot as an error result); answers only with an optional ack.
    fn submit(&self, submit: &SubmitRequest, version: ProtoVersion) -> Option<String> {
        let backend = self.backend;
        // The connection is the only submitter, so the next id is stable
        // between this read and the submit call.
        let next_id = backend.scheduler.progress().submitted;
        let name = submit
            .name
            .clone()
            .unwrap_or_else(|| format!("job{next_id}"));
        backend
            .versions
            .lock()
            .expect("versions poisoned")
            .push(version);
        let id = match job_from_submit(submit, &name, &backend.config.engine) {
            Ok(job) => backend.scheduler.submit(job),
            Err(error) => backend.scheduler.submit_rejected(&name, error),
        };
        submit.ack.then(|| proto::accepted_line(id, &name, version))
    }

    /// The connection's counters as one snapshot — what `stats`,
    /// `metrics` and `--metrics-text` render. Lifetime totals include
    /// the still-open session's contribution.
    pub fn snapshot(&self) -> MetricsReport<'_> {
        let scheduler = &self.backend.scheduler;
        let caches = scheduler.caches();
        let progress = scheduler.progress();
        let mut lifetime = self.lifetime;
        let session = self.active.as_ref().map(|stream| {
            let stats = stream.flips.session_stats();
            lifetime.solves += stats.solves;
            lifetime.prefix_reuse_hits += stats.prefix_reuse_hits;
            SessionCounters {
                id: stream.id,
                depth: stream.flips.depth() as u64,
                solves: stats.solves,
                prefix_reuse_hits: stats.prefix_reuse_hits,
            }
        });
        MetricsReport {
            workers: scheduler.workers(),
            jobs: progress.drained,
            request_errors: self.request_errors,
            job_latency: scheduler.latency(),
            solve_latency: self.solve_latency.snapshot(),
            progress,
            caches: CacheCounters {
                model: caches.model.stats(),
                verdicts: caches.verdicts.stats(),
                dfa: caches
                    .dfa
                    .as_ref()
                    .map(DfaTables::stats)
                    .unwrap_or_default(),
                session,
            },
            shards: scheduler.shard_stats(),
            lifetime,
            server: self.server.map(ServerState::admission_counters),
            config_json: &self.backend.config_json,
        }
    }

    fn open_session(&mut self, open: &OpenSessionRequest) -> Result<String, RequestError> {
        if self.active.is_some() {
            return Err(session_error(
                ErrorCode::SessionOpen,
                "a streaming session is already open on this connection (close_session first)",
            ));
        }
        let backend = self.backend;
        let config = &backend.config;
        let id = self.next_session_id;
        self.next_session_id += 1;
        let name = open.name.clone().unwrap_or_else(|| format!("session{id}"));
        // A tenant may lower (never raise) the service's depth cap for
        // this session.
        let max_depth = open.max_depth.map_or(config.max_session_depth, |d| {
            d.min(config.max_session_depth)
        });
        let flips = TraceFlipSession::new(
            open.support.unwrap_or(config.engine.support),
            &backend.solver,
            config.engine.refinement_limit,
            &config.engine.build,
            backend.scheduler.caches(),
        )
        .retractable()
        .with_inputs_used(open.inputs_used);
        self.lifetime.sessions_opened += 1;
        self.active = Some(StreamState {
            id,
            max_depth,
            events: Vec::new(),
            flips,
        });
        Ok(proto::session_opened_line(id, &name))
    }

    fn push(&mut self, push: PushRequest) -> Result<String, RequestError> {
        let stream = self.active.as_mut().ok_or_else(|| {
            session_error(
                ErrorCode::NoSession,
                "push requires an open session (send open_session first)",
            )
        })?;
        if stream.flips.depth() >= stream.max_depth {
            return Err(session_error(
                ErrorCode::DepthLimit,
                format!("session depth limit {} reached", stream.max_depth),
            ));
        }
        // Validate every event reference before touching session state,
        // so a rejected push leaves the stack and table untouched.
        let base = stream.events.len();
        let total = base + push.events.len();
        for (i, event) in push.events.iter().enumerate() {
            // An event subject may reference only strictly earlier events.
            if let Some(max) = wire::max_referenced_event(&event.subject).filter(|&m| m >= base + i)
            {
                return Err(session_error(
                    ErrorCode::BadEvent,
                    format!(
                        "event {} references event {max}, which is not defined before it",
                        base + i
                    ),
                ));
            }
        }
        if let Some(max) = wire::max_referenced_event(&push.cond).filter(|&m| m >= total) {
            return Err(session_error(
                ErrorCode::BadEvent,
                format!("cond references event {max}, but the session defines {total}"),
            ));
        }
        stream.events.extend(push.events);
        stream
            .flips
            .push_clause(&stream.events, &push.cond, push.taken);
        Ok(proto::pushed_line(stream.id, stream.flips.depth()))
    }

    fn pop(&mut self) -> Result<String, RequestError> {
        let stream = self
            .active
            .as_mut()
            .ok_or_else(|| session_error(ErrorCode::NoSession, "pop requires an open session"))?;
        if !stream.flips.pop_clause() {
            return Err(session_error(ErrorCode::BadDepth, "pop at depth 0"));
        }
        Ok(proto::popped_line(stream.id, stream.flips.depth()))
    }

    fn solve(&mut self, depth: usize) -> Result<String, RequestError> {
        let stream = self
            .active
            .as_ref()
            .ok_or_else(|| session_error(ErrorCode::NoSession, "solve requires an open session"))?;
        if depth >= stream.flips.depth() {
            return Err(session_error(
                ErrorCode::BadDepth,
                format!(
                    "solve depth {depth} out of range (session depth {})",
                    stream.flips.depth()
                ),
            ));
        }
        let started = Instant::now();
        let result = stream.flips.solve(depth);
        self.solve_latency.record(started.elapsed());
        Ok(proto::solved_line(stream.id, depth, &result))
    }

    fn close_session(&mut self) -> Result<String, RequestError> {
        let stream = self.active.take().ok_or_else(|| {
            session_error(
                ErrorCode::NoSession,
                "close_session requires an open session",
            )
        })?;
        let stats = stream.flips.session_stats();
        self.lifetime.sessions_closed += 1;
        self.lifetime.solves += stats.solves;
        self.lifetime.prefix_reuse_hits += stats.prefix_reuse_hits;
        Ok(proto::session_closed_line(
            stream.id,
            stream.flips.depth(),
            stats,
        ))
    }

    /// Runs one exploration loop with the shared cache set, emitting a
    /// progress line per iteration; returns the `explore_result` line
    /// (the error shape when the program does not parse).
    fn explore(&mut self, explore: &ExploreRequest, emit: &mut dyn FnMut(&str)) -> String {
        let id = self.next_explore_id;
        self.next_explore_id += 1;
        let name = explore
            .name
            .clone()
            .unwrap_or_else(|| format!("explore{id}"));
        let (program, harness) = match program_and_harness(&explore.spec) {
            Ok(built) => built,
            Err(error) => return proto::explore_error_line(id, &name, &error),
        };
        let report = explore_observed(
            &program,
            &harness,
            &explore_config_for(explore, &self.backend.config.engine),
            self.backend.scheduler.caches(),
            &mut |progress| emit(&proto::explore_progress_line(id, progress)),
        );
        proto::explore_result_line(id, &name, &report)
    }
}
